//! Memory footprint of an owned [`SearchTree`]: the heap it retains per
//! member and the number of allocations a clone makes, measured with the
//! counting global allocator over grid balls of growing size.
//!
//! The file holds a single test so no other test thread allocates while
//! the counters are read.

use doubling_metric::graph::NodeId;
use doubling_metric::{gen, Eps, MetricSpace};
use obs::alloc::{allocation_count, live_bytes, CountingAlloc};
use searchtree::{SearchTree, SearchTreeConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Retained heap per member, in bytes, allowed for a tree storing one
/// `(u64, u32)` pair per member. The flat store measures 74–76 B on the
/// balls below (28 B tree skeleton, 4 B level, 4 B pair offset, 16 B pair,
/// 16 B subtree range, the rest relay entries); the per-member `Vec`
/// layout it replaced measured 179–185 B.
const MAX_BYTES_PER_MEMBER: u64 = 90;

/// Allocations one clone may make, whatever the member count: one per
/// flat array (six in the tree skeleton, five in the search tree).
const MAX_CLONE_ALLOCATIONS: u64 = 11;

fn build(m: &MetricSpace, center: NodeId, r: u64) -> SearchTree<u32> {
    let ball: Vec<NodeId> = m.ball(center, r).iter().map(|&(_, x)| x).collect();
    let pairs: Vec<(u64, u32)> = ball.iter().map(|&x| (x as u64, x)).collect();
    let config = SearchTreeConfig { eps_r: Eps::one_over(8).mul_floor(r), max_levels: None };
    SearchTree::new(m, center, &ball, config, pairs)
}

#[test]
fn retained_bytes_and_clone_allocations_stay_flat() {
    // Balls of radius 8, 16 and 36 around the middle of a 42×42 grid hold
    // 145, 545 and 1703 members (the last one clipped by the border).
    let side = 42u32;
    let m = MetricSpace::new(&gen::grid(side as usize, side as usize));
    let center = (side / 2) * side + side / 2;
    // Warm whatever the metric computes lazily, so the deltas below are
    // the tree's alone.
    drop(build(&m, center, 36));

    let mut clone_allocs = Vec::new();
    for r in [8u64, 16, 36] {
        let before = live_bytes();
        let st = build(&m, center, r);
        let retained = live_bytes() - before;
        let members = st.tree().len() as u64;
        let per_member = retained as f64 / members as f64;

        let allocs = allocation_count();
        let copy = st.clone();
        let allocs = allocation_count() - allocs;
        assert_eq!(copy, st);
        clone_allocs.push(allocs);

        println!("r {r}: {members} members, {per_member:.1} B/member, clone {allocs} allocations");
        assert!(
            retained <= MAX_BYTES_PER_MEMBER * members,
            "r {r}: {per_member:.1} B per member exceeds {MAX_BYTES_PER_MEMBER}"
        );
        assert!(
            allocs <= MAX_CLONE_ALLOCATIONS,
            "r {r}: clone made {allocs} allocations for {members} members"
        );
    }
    assert!(
        clone_allocs.windows(2).all(|w| w[0] == w[1]),
        "clone allocations grow with member count: {clone_allocs:?}"
    );
}
