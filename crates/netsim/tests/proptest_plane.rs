//! Differential property tests of the bit-packed forwarding planes: on
//! random connected graphs with random adversarial namings, every plane
//! must route **hop-identically** to its reference scheme — equal `Route`
//! values, i.e. the same hops, segments, header bits, and stretch — for
//! both labeled and named ingress, and every arena must survive a
//! decode → re-encode round trip byte-exactly.
//!
//! Planes and schemes route through the same generic procedures, written
//! once over the table-read traits (`RingTable`, `ScaleFreeTable`,
//! `NiTable`, `PortTable`, `SearchTable`). What keeps a plane's routes
//! equal to the reference is therefore that its packed reads equal the
//! owned reads, which `packed_table_reads_equal_owned_reads` checks read
//! by read, on full builds and on overlays with departed nodes.

use proptest::prelude::*;

use std::fmt::Debug;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::net_labeled::RingTable;
use labeled_routing::scale_free::ScaleFreeTable;
use labeled_routing::{NetLabeled, NetLabeledPlane, ScaleFreeLabeled, ScaleFreeLabeledPlane};
use name_independent::{
    Facility, FacilityView, NiTable, ScaleFreeNameIndependent, ScaleFreeNiPlane,
    SimpleNameIndependent, SimpleNiPlane,
};
use netsim::naming::Naming;
use netsim::plane::{roundtrip_ok, ForwardingPlane};
use netsim::scheme::{Label, LabeledScheme, NameIndependentScheme};
use searchtree::SearchTable;
use treeroute::PortTable;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..20), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..20), 0..2 * n),
        )
            .prop_map(|(n, tree, extra)| {
                let mut b = GraphBuilder::new(n);
                for (c, (praw, w)) in tree.into_iter().enumerate() {
                    let child = c + 1;
                    b.edge(child as u32, (praw % child) as u32, w).unwrap();
                }
                for (u, v, w) in extra {
                    if u != v {
                        b.edge(u, v, w).unwrap();
                    }
                }
                b.build().expect("connected by construction")
            })
    })
}

/// Both tables give node `u` the same label; a departed node answers to
/// no active node's label in either (the owned tables hold
/// `INACTIVE_LABEL`, the plane packs the placeholder `num_active`).
fn assert_same_label(owned: Label, packed: Label, active: bool, num_active: usize, u: NodeId) {
    if active {
        assert_eq!(owned, packed, "label({u})");
    } else {
        assert!(owned as usize >= num_active && packed as usize >= num_active, "label({u})");
    }
}

/// Every `node` and `scan` read of a `len`-member search tree agrees, for
/// every key up to `max_key`.
fn assert_same_search_reads<A, B>(owned: A, packed: B, len: usize, max_key: u64, what: &str)
where
    A: SearchTable,
    B: SearchTable<Item = A::Item>,
    A::Item: PartialEq + Debug,
{
    for u in 0..len as u32 {
        assert_eq!(owned.node(u), packed.node(u), "{what}: node({u})");
        for key in 0..=max_key {
            assert_eq!(owned.scan(u, key), packed.scan(u, key), "{what}: scan({u}, {key})");
        }
    }
}

/// Every read of a port router agrees, for every member `v` and local
/// index of `members` (the tree's nodes in local order).
fn assert_same_port_reads<A: PortTable, B: PortTable>(
    owned: A,
    packed: B,
    members: &[NodeId],
    what: &str,
) {
    assert_eq!(owned.port_bits(), packed.port_bits(), "{what}: port_bits");
    for (u, &v) in (0u32..).zip(members) {
        assert_eq!(owned.local(v), packed.local(v), "{what}: local({v})");
        assert_eq!(owned.dfs_of(u), packed.dfs_of(u), "{what}: dfs_of({u})");
        assert_eq!(owned.interval_of(u), packed.interval_of(u), "{what}: interval_of({u})");
        assert_eq!(owned.parent_node(u), packed.parent_node(u), "{what}: parent_node({u})");
        assert_eq!(owned.heavy_child(u), packed.heavy_child(u), "{what}: heavy_child({u})");
    }
}

/// Every [`RingTable`] read of the net-labeled plane equals the scheme's.
fn assert_same_ring_reads(s: &NetLabeled, p: &NetLabeledPlane, n: usize) {
    let nets = s.nets();
    for u in 0..n as NodeId {
        assert_same_label(s.label(u), p.label(u), nets.is_active(u), nets.num_active(), u);
        for label in 0..=n as Label {
            assert_eq!(s.min_hit(u, label), p.min_hit(u, label), "min_hit({u}, {label})");
        }
    }
}

/// Every [`ScaleFreeTable`] read of the scale-free labeled plane, down
/// through each cell's port router and search tree, equals the scheme's.
fn assert_same_scale_free_reads(s: &ScaleFreeLabeled, p: &ScaleFreeLabeledPlane, n: usize) {
    let nets = s.nets();
    assert_eq!(ScaleFreeTable::eps(s), p.eps());
    for u in 0..n as NodeId {
        assert_same_label(s.label(u), p.label(u), nets.is_active(u), nets.num_active(), u);
        for label in 0..=n as Label {
            assert_eq!(s.min_hit(u, label), p.min_hit(u, label), "min_hit({u}, {label})");
        }
        for j in 0..=s.log2_n() {
            assert_eq!(s.voronoi_row(u, j), p.voronoi_row(u, j), "voronoi_row({u}, {j})");
        }
    }
    for j in 0..=s.log2_n() {
        for k in 0..s.packings().at(j).balls().len() as u32 {
            let what = format!("cell ({j}, {k})");
            let (c, root) = s.root_label(j, k);
            let (pc, proot) = p.root_label(j, k);
            assert_eq!((c, root.as_ref()), (pc, proot.as_ref()), "{what}: root_label");
            let ((router, search), (prouter, psearch)) = (s.cell(j, k), p.cell(j, k));
            assert_same_port_reads(router, prouter, router.tree().nodes(), &what);
            let len = search.tree().len();
            assert_same_search_reads(search, psearch, len, n as u64, &what);
        }
    }
}

/// Every [`NiTable`] read of a name-independent plane equals its scheme's:
/// names, zoom rows of active sources, every host's facility (variant and
/// tree reads; `tree_len(k, j)` sizes the owned tree), labels, and the
/// underlying routes between active nodes.
fn assert_same_ni_reads<A, B>(
    m: &MetricSpace,
    owned: &A,
    packed: &B,
    nets: &doubling_metric::nets::NetHierarchy,
    hosts: impl Fn(usize) -> usize,
    tree_len: impl Fn(usize, usize) -> usize,
) where
    A: NiTable,
    B: NiTable,
{
    let n = m.n();
    assert_eq!(owned.round_count(), packed.round_count());
    for u in 0..n as NodeId {
        let active = nets.is_active(u);
        assert_eq!(owned.name(u), packed.name(u), "name({u})");
        assert_same_label(owned.label(u), packed.label(u), active, nets.num_active(), u);
        if !active {
            continue;
        }
        for k in 0..owned.round_count() {
            assert_eq!(owned.zoom_row(u, k), packed.zoom_row(u, k), "zoom_row({u}, {k})");
        }
        for &v in nets.active_nodes() {
            let label = owned.label(v);
            assert_eq!(
                owned.route_label(m, u, label),
                packed.route_label(m, u, label),
                "route_label({u}, {label})"
            );
        }
    }
    for k in 0..owned.round_count() {
        for j in 0..hosts(k) {
            let what = format!("facility ({k}, {j})");
            let len = tree_len(k, j);
            match (owned.facility(k, j), packed.facility(k, j)) {
                (Facility::Own(a), Facility::Own(b)) | (Facility::Link(a), Facility::Link(b)) => {
                    assert_same_search_reads(a, b, len, n as u64, &what)
                }
                _ => panic!("{what}: owned and packed facility kinds differ"),
            }
        }
    }
}

proptest! {
    // Scheme preprocessing dominates; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Both labeled planes are hop-identical to their reference schemes
    /// on every (source, target) pair — via the label ingress and via the
    /// packed name directory — and round-trip byte-exactly.
    #[test]
    fn labeled_planes_are_hop_identical(
        g in arb_connected_graph(12),
        eps_pick in 0u64..2,
        name_seed in 0u64..1000,
        epoch in 0u64..100,
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(m.n(), name_seed);

        let nl = NetLabeled::new(&m, eps).expect("eps within range");
        let nlp = NetLabeledPlane::compile(&m, &nl, Some(&naming), epoch);
        let sfl = ScaleFreeLabeled::new(&m, eps).expect("eps within range");
        let sflp = ScaleFreeLabeledPlane::compile(&m, &sfl, Some(&naming), epoch);
        prop_assert_eq!(nlp.epoch(), epoch);
        prop_assert_eq!(sflp.epoch(), epoch);

        for u in 0..m.n() as u32 {
            for v in 0..m.n() as u32 {
                let want = nl.route(&m, u, nl.label_of(v)).expect("reference routes");
                prop_assert_eq!(
                    &nlp.route(&m, u, nl.label_of(v)).expect("plane routes"), &want,
                    "net-labeled {}->{}", u, v
                );
                prop_assert_eq!(
                    &nlp.route_named(&m, u, naming.name_of(v)).expect("named ingress"), &want,
                    "net-labeled {}->name({})", u, v
                );

                let want = sfl.route(&m, u, sfl.label_of(v)).expect("reference routes");
                prop_assert_eq!(
                    &sflp.route(&m, u, sfl.label_of(v)).expect("plane routes"), &want,
                    "scale-free {}->{}", u, v
                );
                prop_assert_eq!(
                    &sflp.route_named(&m, u, naming.name_of(v)).expect("named ingress"), &want,
                    "scale-free {}->name({})", u, v
                );
            }
        }

        let (nld, fields) = NetLabeledPlane::decode(nlp.arena().clone());
        prop_assert!(roundtrip_ok(nlp.arena(), &fields), "net-labeled arena round-trip");
        prop_assert_eq!(nld.epoch(), epoch);
        let (sfld, fields) = ScaleFreeLabeledPlane::decode(sflp.arena().clone());
        prop_assert!(roundtrip_ok(sflp.arena(), &fields), "scale-free arena round-trip");
        prop_assert_eq!(sfld.epoch(), epoch);

        // The decoded planes still route identically (index rebuild is
        // faithful, not just byte-preserving).
        let v = (m.n() - 1) as u32;
        prop_assert_eq!(
            nld.route(&m, 0, nl.label_of(v)).expect("decoded plane routes"),
            nl.route(&m, 0, nl.label_of(v)).expect("reference routes")
        );
        prop_assert_eq!(
            sfld.route(&m, 0, sfl.label_of(v)).expect("decoded plane routes"),
            sfl.route(&m, 0, sfl.label_of(v)).expect("reference routes")
        );
    }

    /// Both name-independent planes are hop-identical to their reference
    /// schemes on every (source, name) pair, their label ingress matches
    /// the underlying labeled scheme, and their arenas round-trip
    /// byte-exactly.
    #[test]
    fn name_independent_planes_are_hop_identical(
        g in arb_connected_graph(10),
        eps_pick in 0u64..2,
        name_seed in 0u64..1000,
        epoch in 0u64..100,
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(m.n(), name_seed);

        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let snip = SimpleNiPlane::compile(&m, &sni, epoch);
        let sfni =
            ScaleFreeNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let sfnip = ScaleFreeNiPlane::compile(&m, &sfni, epoch);

        for u in 0..m.n() as u32 {
            for name in 0..m.n() as u32 {
                prop_assert_eq!(
                    &snip.route_named(&m, u, name).expect("plane routes"),
                    &sni.route(&m, u, name).expect("reference routes"),
                    "simple-ni {}->{}", u, name
                );
                prop_assert_eq!(
                    &sfnip.route_named(&m, u, name).expect("plane routes"),
                    &sfni.route(&m, u, name).expect("reference routes"),
                    "scale-free-ni {}->{}", u, name
                );
            }
            // Label ingress delegates to the underlying labeled plane.
            let label = sni.underlying().label_of(u);
            prop_assert_eq!(
                snip.route(&m, 0, label).expect("label ingress"),
                sni.underlying().route(&m, 0, label).expect("reference routes")
            );
            let label = sfni.underlying().label_of(u);
            prop_assert_eq!(
                sfnip.route(&m, 0, label).expect("label ingress"),
                sfni.underlying().route(&m, 0, label).expect("reference routes")
            );
        }

        let (u_dec, fields) = NetLabeledPlane::decode(snip.underlying().arena().clone());
        prop_assert!(roundtrip_ok(snip.underlying().arena(), &fields));
        let (snid, fields) = SimpleNiPlane::decode(snip.arena().clone(), u_dec);
        prop_assert!(roundtrip_ok(snip.arena(), &fields), "simple-ni arena round-trip");
        prop_assert_eq!(snid.epoch(), epoch);
        prop_assert_eq!(
            snid.route_named(&m, 0, (m.n() - 1) as u32).expect("decoded plane routes"),
            sni.route(&m, 0, (m.n() - 1) as u32).expect("reference routes")
        );

        let (u_dec, fields) = ScaleFreeLabeledPlane::decode(sfnip.underlying().arena().clone());
        prop_assert!(roundtrip_ok(sfnip.underlying().arena(), &fields));
        let (sfnid, fields) = ScaleFreeNiPlane::decode(sfnip.arena().clone(), u_dec);
        prop_assert!(roundtrip_ok(sfnip.arena(), &fields), "scale-free-ni arena round-trip");
        prop_assert_eq!(sfnid.epoch(), epoch);
        prop_assert_eq!(
            sfnid.route_named(&m, 0, (m.n() - 1) as u32).expect("decoded plane routes"),
            sfni.route(&m, 0, (m.n() - 1) as u32).expect("reference routes")
        );
    }

    /// Every table-trait read of every plane equals the owned tables'
    /// read, for every node and every label, name or key: the labeled
    /// rings and cells (with their port routers and search trees) and the
    /// name-independent names, zoom rows and facilities. Checked on a full
    /// build and on a `new_over` random active subset, whose departed
    /// nodes keep forwarding state but hold no label.
    #[test]
    fn packed_table_reads_equal_owned_reads(
        g in arb_connected_graph(10),
        eps_pick in 0u64..2,
        name_seed in 0u64..1000,
        mask in proptest::collection::vec(0u8..3, 10),
    ) {
        let m = MetricSpace::new(&g);
        let n = m.n();
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(n, name_seed);
        let mut subset: Vec<NodeId> = (0..n as NodeId).filter(|&u| mask[u as usize] != 0).collect();
        if subset.is_empty() {
            subset.push(0);
        }
        let all: Vec<NodeId> = (0..n as NodeId).collect();

        for active in [&all, &subset] {
            let sni = SimpleNameIndependent::new_over(&m, eps, naming.clone(), active)
                .expect("eps within range");
            let snip = SimpleNiPlane::compile(&m, &sni, 0);
            let sfni = ScaleFreeNameIndependent::new_over(&m, eps, naming.clone(), active)
                .expect("eps within range");
            let sfnip = ScaleFreeNiPlane::compile(&m, &sfni, 0);

            assert_same_ring_reads(sni.underlying(), snip.underlying(), n);
            assert_same_scale_free_reads(sfni.underlying(), sfnip.underlying(), n);

            let nets = sni.underlying().nets();
            let host_level = |k: usize| nets.level(sni.rounds().host_level(k));
            assert_same_ni_reads(&m, &sni, &snip, nets, |k| host_level(k).len(), |k, j| {
                sni.tree_of(k, host_level(k)[j]).tree().len()
            });

            let nets = sfni.underlying().nets();
            assert_same_ni_reads(
                &m,
                &sfni,
                &sfnip,
                nets,
                |k| nets.level(sfni.rounds().host_level(k)).len(),
                |k, j| match sfni.facility_of(k, j) {
                    FacilityView::Own(tree) => tree.tree().len(),
                    FacilityView::Link { j, ball } => sfni.btrees_at(j)[ball as usize].tree().len(),
                },
            );
        }
    }
}
