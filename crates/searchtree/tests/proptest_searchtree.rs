//! Property-based tests for search trees: lookup correctness, the
//! Eqn. (3) height bound, Algorithm 1's balanced distribution, relay
//! accounting consistency, and the flat pair store under the mutation API
//! on random graphs and random ball choices.

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::{Eps, MetricSpace};
use searchtree::{SearchTree, SearchTreeConfig};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..9), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..9), 0..n / 2),
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

/// A tree over the ball `B(center, radius)` storing key `3x + 1` for every
/// member `x`, with payload [`payload`] of the key.
fn keyed_tree(m: &MetricSpace, center: NodeId, radius: u64) -> (SearchTree<u32>, Vec<(u64, u32)>) {
    let ball: Vec<NodeId> = m.ball(center, radius).iter().map(|&(_, x)| x).collect();
    let pairs: Vec<(u64, u32)> =
        ball.iter().map(|&x| (x as u64 * 3 + 1, payload(x as u64 * 3 + 1))).collect();
    let config = SearchTreeConfig { eps_r: (radius / 2).max(1), max_levels: None };
    (SearchTree::new(m, center, &ball, config, pairs.clone()), pairs)
}

fn payload(key: u64) -> u32 {
    (key / 3) as u32
}

/// Every stored key, sorted, checking on the way that each member's run
/// is in ascending key order.
fn stored_keys(st: &SearchTree<u32>) -> Vec<u64> {
    let mut keys = Vec::new();
    for &v in st.tree().nodes() {
        let run = st.pairs_at(v);
        assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run at {v} is unsorted");
        keys.extend(run.iter().map(|&(k, d)| {
            assert_eq!(d, payload(k));
            k
        }));
    }
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn insert_then_remove_restores_the_tree(
        g in arb_graph(24),
        center_raw in 0u32..24,
        radius in 1u64..40,
        key_raw in 0u64..u64::MAX,
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let (original, pairs) = keyed_tree(&m, center, radius);
        let (lo, hi) = original.subtree_range_of(0).expect("the root range covers every pair");
        // Stored keys are 1 mod 3; `3j + 2` is absent. Inside the root
        // range the insert leaves every range as it was, so the removal
        // restores the tree exactly.
        let inside = lo + 1 + key_raw % (hi - lo + 1);
        let inside = inside - inside % 3 + 2;
        let mut st = original.clone();
        st.insert_pair(inside, payload(inside));
        prop_assert_eq!(st.pairs_at(center).iter().filter(|&&(k, _)| k == inside).count(), 1);
        prop_assert_eq!(st.search_all(inside).result, Some(payload(inside)));
        prop_assert_eq!(st.remove_pair(inside), Some(payload(inside)));
        if inside <= hi {
            prop_assert_eq!(&st, &original);
        }
        // Outside it, only the root range stays widened (ranges are
        // conservative after removals); every pair is back in place.
        let outside = hi + 1 + (key_raw % 1000) * 3;
        let mut st = original.clone();
        st.insert_pair(outside, payload(outside));
        prop_assert_eq!(st.remove_pair(outside), Some(payload(outside)));
        prop_assert_eq!(st.subtree_range_of(0), Some((lo, outside)));
        for (u, &v) in (0u32..).zip(original.tree().nodes()) {
            prop_assert_eq!(st.pairs_at(v), original.pairs_at(v));
            if u > 0 {
                prop_assert_eq!(st.subtree_range_of(u), original.subtree_range_of(u));
            }
        }
        st.refresh_pairs(pairs);
        prop_assert_eq!(&st, &original);
    }

    #[test]
    fn refresh_after_mutations_equals_a_fresh_build(
        g in arb_graph(24),
        center_raw in 0u32..24,
        radius in 1u64..40,
        ops in proptest::collection::vec((0u32..3, 0u64..80), 0..40),
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let (fresh, pairs) = keyed_tree(&m, center, radius);
        let mut st = fresh.clone();
        // A sorted multiset of the keys the tree should hold.
        let mut model: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        model.sort_unstable();
        for (op, key) in ops {
            if op == 0 {
                st.insert_pair(key, payload(key));
                let at = model.partition_point(|&k| k < key);
                model.insert(at, key);
            } else {
                let removed = st.remove_pair(key);
                match model.binary_search(&key) {
                    Ok(at) => {
                        prop_assert_eq!(removed, Some(payload(key)));
                        model.remove(at);
                    }
                    Err(_) => prop_assert_eq!(removed, None),
                }
            }
            prop_assert_eq!(stored_keys(&st), model.clone());
            for &k in &model {
                prop_assert_eq!(st.search_all(k).result, Some(payload(k)));
            }
        }
        st.refresh_pairs(pairs);
        prop_assert_eq!(&st, &fresh);
    }

    #[test]
    fn every_stored_key_is_found(
        g in arb_graph(24),
        center_raw in 0u32..24,
        radius in 1u64..40,
        inv in 2u64..12,
        cap in proptest::option::of(1u32..5),
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let ball: Vec<u32> = m.ball(center, radius).iter().map(|&(_, x)| x).collect();
        let pairs: Vec<(u64, u32)> = ball.iter().map(|&x| (x as u64 * 3 + 1, x)).collect();
        let eps = Eps::one_over(inv);
        let st = SearchTree::new(
            &m,
            center,
            &ball,
            SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: cap },
            pairs.clone(),
        );
        // Every member is placed exactly once.
        prop_assert_eq!(st.tree().len(), ball.len());
        // Every stored key retrieves its datum; walks start/end at center.
        for (k, v) in pairs {
            let walk = st.search(k);
            prop_assert_eq!(walk.result, Some(v));
            prop_assert_eq!(*walk.nodes.first().unwrap(), center);
            prop_assert_eq!(*walk.nodes.last().unwrap(), center);
        }
        // Missing keys return None.
        prop_assert_eq!(st.search(0).result, None);
        prop_assert_eq!(st.search(u64::MAX).result, None);
    }

    #[test]
    fn height_bound_holds(
        g in arb_graph(20),
        center_raw in 0u32..20,
        inv in 2u64..10,
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let radius = m.diameter();
        let ball: Vec<u32> = m.ball(center, radius).iter().map(|&(_, x)| x).collect();
        let eps = Eps::one_over(inv);
        let st = SearchTree::new(
            &m,
            center,
            &ball,
            SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: None },
            Vec::<(u64, u32)>::new(),
        );
        // Eqn (3): height ≤ r + εr (+ min_dist slack for integer floors).
        prop_assert!(st.height() <= radius + eps.mul_floor(radius) + m.min_dist());
    }

    #[test]
    fn distribution_is_balanced(
        g in arb_graph(16),
        multiplier in 1usize..5,
    ) {
        let m = MetricSpace::new(&g);
        let ball: Vec<u32> = (0..m.n() as u32).collect();
        let k = ball.len() * multiplier;
        let pairs: Vec<(u64, u32)> = (0..k as u64).map(|i| (i, i as u32)).collect();
        let st = SearchTree::new(
            &m,
            0,
            &ball,
            SearchTreeConfig { eps_r: m.min_dist(), max_levels: None },
            pairs,
        );
        // Algorithm 1: ⌈k/m⌉ per node.
        for &v in st.tree().nodes() {
            prop_assert!(st.pairs_at(v).len() <= multiplier);
        }
    }

    #[test]
    fn relay_totals_match_edge_interiors(
        g in arb_graph(16),
        center_raw in 0u32..16,
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let radius = m.diameter();
        let ball: Vec<u32> = m.ball(center, radius).iter().map(|&(_, x)| x).collect();
        let st = SearchTree::new(
            &m,
            center,
            &ball,
            SearchTreeConfig { eps_r: (radius / 2).max(1), max_levels: None },
            Vec::<(u64, u32)>::new(),
        );
        let mut expected = 0u64;
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            let p = st.tree().parent(u);
            if p != u {
                expected += 2 * (m.path(st.tree().node(p), v).len() as u64 - 2);
            }
        }
        let total: u64 = (0..m.n() as u32).map(|v| st.relay_bits(v, 1)).sum();
        prop_assert_eq!(total, expected);
    }
}
