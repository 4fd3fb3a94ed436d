//! Property-based tests: both tree routers must route along the exact
//! tree path for arbitrary random trees, and their compactness invariants
//! must hold.

use proptest::prelude::*;
use treeroute::{CompactTreeRouter, IntervalRouter, Tree};

/// Strategy: a random rooted tree on `2..=max_n` nodes with random parent
/// choices and weights.
fn arb_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (2usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0usize..usize::MAX, n - 1),
            proptest::collection::vec(1u64..100, n - 1),
        )
            .prop_map(|(n, parents, weights)| {
                let edges = (1..n).map(|c| {
                    let p = (parents[c - 1] % c) as u32;
                    (c as u32, p, weights[c - 1])
                });
                Tree::new(0, edges).expect("parent structure is a tree")
            })
    })
}

/// Strategy: a random tree on `2..=max_n` nodes with scattered graph ids
/// (the root not the smallest) and its edges in a rotated order.
fn arb_scattered_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (2usize..=max_n).prop_flat_map(move |n| {
        (Just(n), proptest::collection::vec(0usize..usize::MAX, n - 1), 0usize..max_n).prop_map(
            |(n, parents, rotate)| {
                let id = |c: usize| ((c * 7919 + 5003) % 10007) as u32;
                let mut edges: Vec<(u32, u32, u64)> =
                    (1..n).map(|c| (id(c), id(parents[c - 1] % c), c as u64)).collect();
                let len = edges.len();
                edges.rotate_left(rotate % len);
                Tree::new(id(0), edges).expect("parent structure is a tree")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn children_are_the_sorted_inverse_of_parent(t in arb_scattered_tree(40)) {
        let n = t.len() as u32;
        let mut total = 0;
        for u in 0..n {
            let want: Vec<u32> = (1..n).filter(|&v| t.parent(v) == u).collect();
            prop_assert_eq!(t.children(u), &want[..], "children of local {}", u);
            prop_assert_eq!(
                t.subtree_size(u),
                1 + want.iter().map(|&c| t.subtree_size(c)).sum::<u32>()
            );
            total += want.len();
        }
        prop_assert_eq!(total, n as usize - 1);
    }

    #[test]
    fn interval_router_routes_exact_tree_paths(t in arb_tree(40)) {
        let n = t.len();
        let r = IntervalRouter::new(t);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let route = r.route(a, r.label_of(b));
                prop_assert_eq!(&route, &r.tree().path(a, b));
            }
        }
    }

    #[test]
    fn compact_router_routes_exact_tree_paths(t in arb_tree(40)) {
        let n = t.len();
        let r = CompactTreeRouter::new(t);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let route = r.route(a, r.label_of(b));
                prop_assert_eq!(&route, &r.tree().path(a, b));
            }
        }
    }

    #[test]
    fn routers_agree_with_each_other(t in arb_tree(30)) {
        let n = t.len();
        let ri = IntervalRouter::new(t.clone());
        let rc = CompactTreeRouter::new(t);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(
                    ri.route(a, ri.label_of(b)),
                    rc.route(a, rc.label_of(b))
                );
            }
        }
    }

    #[test]
    fn light_trails_stay_logarithmic(t in arb_tree(64)) {
        let n = t.len() as u64;
        let r = CompactTreeRouter::new(t);
        let bound = (64 - (n.max(2) - 1).leading_zeros()) as usize; // ⌈log2 n⌉
        for v in 0..n as u32 {
            prop_assert!(r.label_of(v).lights.len() <= bound);
        }
    }

    #[test]
    fn interval_labels_are_bijective(t in arb_tree(40)) {
        let n = t.len();
        let r = IntervalRouter::new(t);
        let mut seen = vec![false; n];
        for v in 0..n as u32 {
            let l = r.label_of(v) as usize;
            prop_assert!(!seen[l]);
            seen[l] = true;
            prop_assert_eq!(r.node_of_label(l as u32), v);
        }
    }
}
