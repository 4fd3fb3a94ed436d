//! Oracle test for [`SearchTree::new`]: the tree it builds must equal the
//! one the direct quadratic construction builds. The reference below
//! checks every candidate against every net point, finds parents and tail
//! sites with `nearest_in`, tallies relays from full `m.path` expansions,
//! and distributes pairs by its own DFS. Compared per node: parent, edge
//! weight, level, stored pairs, subtree key range and relay bits.

use std::collections::BTreeMap;

use proptest::prelude::*;

use doubling_metric::graph::{Dist, Graph, GraphBuilder, NodeId};
use doubling_metric::MetricSpace;
use searchtree::{SearchTree, SearchTreeConfig};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..9), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..9), 0..n),
        )
            .prop_map(|(n, tree, extra)| {
                let mut b = GraphBuilder::new(n);
                for (c, (praw, w)) in tree.into_iter().enumerate() {
                    b.edge((c + 1) as u32, (praw % (c + 1)) as u32, w).unwrap();
                }
                for (u, v, w) in extra {
                    if u != v {
                        b.edge(u, v, w).unwrap();
                    }
                }
                b.build().expect("connected")
            })
    })
}

/// What the reference construction produces, keyed by graph id.
struct Reference {
    parent: BTreeMap<NodeId, NodeId>,
    level: BTreeMap<NodeId, u32>,
    levels: u32,
    has_tails: bool,
    relay: BTreeMap<NodeId, u64>,
    pairs: BTreeMap<NodeId, Vec<(u64, u32)>>,
    range: BTreeMap<NodeId, Option<(u64, u64)>>,
}

fn reference(
    m: &MetricSpace,
    center: NodeId,
    ball: &[NodeId],
    config: SearchTreeConfig,
    mut items: Vec<(u64, u32)>,
) -> Reference {
    let mut remaining: Vec<NodeId> = ball.iter().copied().filter(|&x| x != center).collect();
    remaining.sort_unstable();
    let mut parent = BTreeMap::new();
    let mut level = BTreeMap::from([(center, 0)]);
    let mut level_sets = vec![vec![center]];
    let cap = config.max_levels.unwrap_or(u32::MAX);
    let mut i = 1u32;
    while !remaining.is_empty() && i <= cap {
        let rho: Dist = if i >= 64 { 0 } else { config.eps_r >> i };
        let (mut net, mut rest) = (Vec::new(), Vec::new());
        for &x in &remaining {
            if net.iter().all(|&y| m.dist(x, y) >= rho) {
                net.push(x);
            } else {
                rest.push(x);
            }
        }
        for &v in &net {
            parent.insert(v, m.nearest_in(v, &level_sets[i as usize - 1]).unwrap());
            level.insert(v, i);
        }
        level_sets.push(net);
        remaining = rest;
        i += 1;
    }
    let levels = (level_sets.len() - 1) as u32;
    let has_tails = !remaining.is_empty();
    // Tails: each site's Voronoi leftovers chained in id order.
    let sites = &level_sets[levels as usize];
    let mut tail_end: BTreeMap<NodeId, NodeId> = sites.iter().map(|&s| (s, s)).collect();
    for &x in &remaining {
        let site = m.nearest_in(x, sites).unwrap();
        parent.insert(x, tail_end.insert(site, x).unwrap());
        level.insert(x, levels + 1);
    }

    let mut relay = BTreeMap::new();
    for (&c, &p) in &parent {
        let path = m.path(p, c);
        for &x in &path[1..path.len() - 1] {
            *relay.entry(x).or_insert(0) += 2;
        }
    }

    // Algorithm 1: pre-order DFS with children in id order, ⌈k/m⌉ pairs
    // per node in key order.
    let mut children: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for (&c, &p) in &parent {
        children.entry(p).or_default().push(c);
    }
    let mut order = Vec::new();
    let mut stack = vec![center];
    while let Some(u) = stack.pop() {
        order.push(u);
        stack.extend(children.get(&u).into_iter().flatten().rev());
    }
    items.sort_by_key(|&(k, _)| k);
    let per_node = items.len().div_ceil(ball.len());
    let mut it = items.into_iter();
    let pairs: BTreeMap<NodeId, Vec<(u64, u32)>> =
        order.iter().map(|&u| (u, it.by_ref().take(per_node).collect())).collect();
    let mut range: BTreeMap<NodeId, Option<(u64, u64)>> = BTreeMap::new();
    for &u in order.iter().rev() {
        let own = pairs[&u].first().map(|&(lo, _)| (lo, pairs[&u].last().unwrap().0));
        let below = children.get(&u).into_iter().flatten().filter_map(|c| range[c]);
        let merged = own.into_iter().chain(below).reduce(|(a, b), (c, d)| (a.min(c), b.max(d)));
        range.insert(u, merged);
    }
    Reference { parent, level, levels, has_tails, relay, pairs, range }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn construction_matches_quadratic_reference(
        g in arb_graph(28),
        center_raw in 0u32..28,
        radius in 1u64..60,
        eps_r in 0u64..48,
        mask in 0u64..u64::MAX,
        cap in proptest::option::of(0u32..4),
        keys in proptest::collection::vec(0u64..40, 0..60),
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        // A random active sub-ball: any subset of B(center, radius) that
        // keeps the center.
        let ball: Vec<NodeId> = m
            .ball(center, radius)
            .iter()
            .map(|&(_, x)| x)
            .filter(|&x| x == center || (mask >> (x % 64)) & 1 == 1)
            .collect();
        let items: Vec<(u64, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let config = SearchTreeConfig { eps_r, max_levels: cap };
        let st = SearchTree::new(&m, center, &ball, config, items.clone());
        let want = reference(&m, center, &ball, config, items);

        prop_assert_eq!(st.levels(), want.levels);
        prop_assert_eq!(st.has_tails(), want.has_tails);
        let t = st.tree();
        prop_assert_eq!(t.len(), ball.len());
        for &v in &ball {
            let local = t.local(v).unwrap();
            let p = t.node(t.parent(local));
            prop_assert_eq!(p, want.parent.get(&v).copied().unwrap_or(v), "parent of {}", v);
            prop_assert_eq!(t.weight_up(local), m.dist(v, p));
            prop_assert_eq!(st.level_of(v), want.level[&v], "level of {}", v);
            prop_assert_eq!(st.pairs_at(v), &want.pairs[&v][..], "pairs at {}", v);
            prop_assert_eq!(st.subtree_range_of(local), want.range[&v], "range at {}", v);
        }
        for x in 0..m.n() as NodeId {
            let entries = want.relay.get(&x).copied().unwrap_or(0);
            prop_assert_eq!(st.relay_bits(x, 3), 3 * entries, "relay bits at {}", x);
        }
        let relays: Vec<(NodeId, u64)> = st.relay_nodes().collect();
        let expected: Vec<(NodeId, u64)> = want.relay.into_iter().collect();
        prop_assert_eq!(relays, expected);
    }
}
