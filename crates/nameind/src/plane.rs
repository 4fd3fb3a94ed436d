//! Bit-packed forwarding planes for the two name-independent schemes.
//!
//! Each NI plane owns the packed name-resolution state (per-node names,
//! zoom rows, packed search trees / facilities) and *wraps* the packed
//! plane of its underlying labeled scheme. Both implement [`NiTable`]
//! over those bits, so [`ForwardingPlane::route_named`] runs the same
//! [`route_by_name`] as the reference schemes, with every underlying
//! sub-route served by the underlying packed plane.
//!
//! Own-arena layouts:
//!
//! ```text
//! simple NI:
//!   widths:5×7  n:cnt  epoch:64  nrounds:7
//!   per node u: name:node, per round k: y:node j:cnt    (zoom rows)
//!   per round k: nhosts:cnt, per host: packed search tree (Label payloads)
//!
//! scale-free NI:
//!   widths:5×7  n:cnt  epoch:64  nrounds:7  log2_n:7
//!   per node u: name:node, per round k: y:node j:cnt
//!   per j ∈ [0, log2_n]: ntrees:cnt, per ball: packed ℬ-type tree
//!   per round k: nhosts:cnt, per host:
//!     own?:1  { packed 𝒜-type tree | bj:7 ball:cnt }
//! ```

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use labeled_routing::net_labeled::RingTable;
use labeled_routing::scale_free::ScaleFreeTable;
use labeled_routing::{NetLabeledPlane, ScaleFreeLabeledPlane};
use netsim::bits::{bits_for_count, FieldWidths};
use netsim::plane::{push_width_header, take_width_header, BitArena, BitCursor, ForwardingPlane};
use netsim::route::{Route, RouteError};
use netsim::scheme::{Label, Name};
use searchtree::{PackedSearchTree, PackedTree, PackedTreeWidths, U32Codec};

use crate::scale_free::FacilityView;
use crate::{route_by_name, Facility, NiTable, ScaleFreeNameIndependent, SimpleNameIndependent};

/// Width of small structural counters (round count, size exponents).
const SMALL_FIELD_BITS: u64 = 7;

/// The packed `(y, j)` zoom row for round `k` of the node whose section
/// starts at `node_off` (after its name, one `y:node j:cnt` row per round).
fn zoom_row(
    arena: &BitArena,
    node_off: u64,
    widths: &FieldWidths,
    cnt: u64,
    k: usize,
) -> (NodeId, usize) {
    let off = node_off + widths.node + k as u64 * (widths.node + cnt);
    (arena.read(off, widths.node) as NodeId, arena.read(off + widths.node, cnt) as usize)
}

/// The packed-tree widths shared by every NI search tree (name keys and
/// `Label` payloads both fit in node width).
fn ni_tree_widths(widths: &FieldWidths, cnt: u64) -> PackedTreeWidths {
    PackedTreeWidths { key: widths.node, cnt, node: widths.node }
}

/// The [`SimpleNameIndependent`] scheme compiled into a bit arena, layered
/// over a packed [`NetLabeledPlane`].
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use name_independent::{SimpleNameIndependent, SimpleNiPlane};
/// use netsim::{ForwardingPlane, NameIndependentScheme, Naming};
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// let s = SimpleNameIndependent::new(&m, Eps::one_over(8), Naming::random(16, 1))?;
/// let plane = SimpleNiPlane::compile(&m, &s, 0);
/// assert_eq!(plane.route_named(&m, 0, 7)?, s.route(&m, 0, 7)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimpleNiPlane {
    underlying: NetLabeledPlane,
    arena: BitArena,
    epoch: u64,
    n: usize,
    widths: FieldWidths,
    cnt: u64,
    nrounds: usize,
    node_off: Vec<u64>,
    /// `trees[k][j]` = packed search tree of the `j`-th round-`k` host.
    trees: Vec<Vec<PackedSearchTree<U32Codec>>>,
}

impl SimpleNiPlane {
    /// Compiles `s` (and its underlying labeled scheme) at epoch `epoch`.
    pub fn compile(m: &MetricSpace, s: &SimpleNameIndependent, epoch: u64) -> Self {
        let underlying = NetLabeledPlane::compile(m, s.underlying(), None, epoch);
        let n = m.n();
        let widths = FieldWidths::new(m);
        let cnt = bits_for_count(n as u64 + 1);
        let nrounds = s.rounds().count();
        let nets = s.underlying().nets();

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        arena.push(nrounds as u64, SMALL_FIELD_BITS);

        let mut node_off = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            node_off.push(arena.len_bits());
            arena.push(s.naming().name_of(u) as u64, widths.node);
            // Placeholder zoom rows for inactive (churned-out) nodes:
            // routing from them is undefined, as in the reference scheme.
            let active = nets.is_active(u);
            for k in 0..nrounds {
                if !active {
                    arena.push(0, widths.node);
                    arena.push(0, cnt);
                    continue;
                }
                let (y, j) = s.rounds().zoom_row(nets, u, k);
                arena.push(y as u64, widths.node);
                arena.push(j as u64, cnt);
            }
        }

        let codec = U32Codec { width: widths.node };
        let tw = ni_tree_widths(&widths, cnt);
        let mut trees = Vec::with_capacity(nrounds);
        for k in 0..nrounds {
            let hosts = nets.level(s.rounds().host_level(k));
            arena.push(hosts.len() as u64, cnt);
            let mut round = Vec::with_capacity(hosts.len());
            for &y in hosts {
                round.push(PackedSearchTree::encode(&mut arena, s.tree_of(k, y), codec, tw));
            }
            trees.push(round);
        }

        SimpleNiPlane { underlying, arena, epoch, n, widths, cnt, nrounds, node_off, trees }
    }

    /// Rebuilds the NI layer from its arena plus a decoded underlying
    /// plane, recording every structural field of the *own* arena.
    pub fn decode(arena: BitArena, underlying: NetLabeledPlane) -> (Self, Vec<(u64, u64)>) {
        let mut out = Vec::new();
        let mut cur = BitCursor::new(&arena, 0);
        let (widths, cnt) = take_width_header(&mut cur, &mut out);
        let n = cur.take_recorded(cnt, &mut out) as usize;
        let epoch = cur.take_recorded(64, &mut out);
        let nrounds = cur.take_recorded(SMALL_FIELD_BITS, &mut out) as usize;
        let mut node_off = Vec::with_capacity(n);
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.take_recorded(widths.node, &mut out);
            for _ in 0..nrounds {
                cur.take_recorded(widths.node, &mut out);
                cur.take_recorded(cnt, &mut out);
            }
        }
        let codec = U32Codec { width: widths.node };
        let tw = ni_tree_widths(&widths, cnt);
        let mut trees = Vec::with_capacity(nrounds);
        for _ in 0..nrounds {
            let nhosts = cur.take_recorded(cnt, &mut out);
            let mut round = Vec::with_capacity(nhosts as usize);
            for _ in 0..nhosts {
                round.push(PackedSearchTree::decode(&mut cur, codec, tw, &mut out));
            }
            trees.push(round);
        }
        let plane =
            SimpleNiPlane { underlying, arena, epoch, n, widths, cnt, nrounds, node_off, trees };
        (plane, out)
    }

    /// The NI layer's own arena (excludes the underlying plane's).
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }

    /// The wrapped underlying labeled plane.
    pub fn underlying(&self) -> &NetLabeledPlane {
        &self.underlying
    }
}

impl NiTable for SimpleNiPlane {
    type Tree<'a> = PackedTree<'a, U32Codec>;

    fn name(&self, u: NodeId) -> Name {
        self.arena.read(self.node_off[u as usize], self.widths.node) as Name
    }

    fn round_count(&self) -> usize {
        self.nrounds
    }

    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize) {
        zoom_row(&self.arena, self.node_off[u as usize], &self.widths, self.cnt, k)
    }

    fn facility(&self, k: usize, j: usize) -> Facility<PackedTree<'_, U32Codec>> {
        Facility::Own(self.trees[k][j].at(&self.arena))
    }

    fn label(&self, u: NodeId) -> Label {
        self.underlying.label(u)
    }

    fn route_label(&self, m: &MetricSpace, src: NodeId, to: Label) -> Result<Route, RouteError> {
        self.underlying.route(m, src, to)
    }
}

impl ForwardingPlane for SimpleNiPlane {
    fn plane_name(&self) -> &'static str {
        "simple-name-independent"
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn n(&self) -> usize {
        self.n
    }

    fn packed_bits(&self) -> u64 {
        self.arena.len_bits() + self.underlying.packed_bits()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        self.underlying.route(m, src, target)
    }

    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        route_by_name(self, m, src, name)
    }
}

/// One packed facility: own 𝒜-type tree, or a link into the ℬ-type pool.
#[derive(Debug, Clone)]
enum PackedFacility {
    Own(PackedSearchTree<U32Codec>),
    Link { j: u32, ball: u32 },
}

/// The [`ScaleFreeNameIndependent`] scheme compiled into a bit arena,
/// layered over a packed [`ScaleFreeLabeledPlane`].
#[derive(Debug, Clone)]
pub struct ScaleFreeNiPlane {
    underlying: ScaleFreeLabeledPlane,
    arena: BitArena,
    epoch: u64,
    n: usize,
    widths: FieldWidths,
    cnt: u64,
    nrounds: usize,
    node_off: Vec<u64>,
    /// `btrees[j][k]` = packed ℬ-type tree of ball `k` in `ℬ_j`.
    btrees: Vec<Vec<PackedSearchTree<U32Codec>>>,
    /// `facility[k][j]` for the `j`-th member of round `k`'s hosting level.
    facility: Vec<Vec<PackedFacility>>,
}

impl ScaleFreeNiPlane {
    /// Compiles `s` (and its underlying labeled scheme) at epoch `epoch`.
    pub fn compile(m: &MetricSpace, s: &ScaleFreeNameIndependent, epoch: u64) -> Self {
        let underlying = ScaleFreeLabeledPlane::compile(m, s.underlying(), None, epoch);
        let n = m.n();
        let widths = FieldWidths::new(m);
        let cnt = bits_for_count(n as u64 + 1);
        let nrounds = s.rounds().count();
        let log2_n = s.underlying().log2_n();
        let nets = s.underlying().nets();

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        arena.push(nrounds as u64, SMALL_FIELD_BITS);
        arena.push(log2_n as u64, SMALL_FIELD_BITS);

        let mut node_off = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            node_off.push(arena.len_bits());
            arena.push(s.naming().name_of(u) as u64, widths.node);
            // Placeholder zoom rows for inactive nodes, as in the simple
            // NI plane.
            let active = nets.is_active(u);
            for k in 0..nrounds {
                if !active {
                    arena.push(0, widths.node);
                    arena.push(0, cnt);
                    continue;
                }
                let (y, j) = s.rounds().zoom_row(nets, u, k);
                arena.push(y as u64, widths.node);
                arena.push(j as u64, cnt);
            }
        }

        let codec = U32Codec { width: widths.node };
        let tw = ni_tree_widths(&widths, cnt);
        let mut btrees = Vec::with_capacity(log2_n as usize + 1);
        for j in 0..=log2_n {
            let pool = s.btrees_at(j);
            arena.push(pool.len() as u64, cnt);
            let mut level = Vec::with_capacity(pool.len());
            for tree in pool {
                level.push(PackedSearchTree::encode(&mut arena, tree, codec, tw));
            }
            btrees.push(level);
        }

        let mut facility = Vec::with_capacity(nrounds);
        for k in 0..nrounds {
            let nhosts = nets.level(s.rounds().host_level(k)).len();
            arena.push(nhosts as u64, cnt);
            let mut round = Vec::with_capacity(nhosts);
            for j in 0..nhosts {
                match s.facility_of(k, j) {
                    FacilityView::Own(tree) => {
                        arena.push(1, 1);
                        round.push(PackedFacility::Own(PackedSearchTree::encode(
                            &mut arena, tree, codec, tw,
                        )));
                    }
                    FacilityView::Link { j: bj, ball } => {
                        arena.push(0, 1);
                        arena.push(bj as u64, SMALL_FIELD_BITS);
                        arena.push(ball as u64, cnt);
                        round.push(PackedFacility::Link { j: bj, ball });
                    }
                }
            }
            facility.push(round);
        }

        ScaleFreeNiPlane {
            underlying,
            arena,
            epoch,
            n,
            widths,
            cnt,
            nrounds,
            node_off,
            btrees,
            facility,
        }
    }

    /// Rebuilds the NI layer from its arena plus a decoded underlying
    /// plane, recording every structural field of the *own* arena.
    pub fn decode(arena: BitArena, underlying: ScaleFreeLabeledPlane) -> (Self, Vec<(u64, u64)>) {
        let mut out = Vec::new();
        let mut cur = BitCursor::new(&arena, 0);
        let (widths, cnt) = take_width_header(&mut cur, &mut out);
        let n = cur.take_recorded(cnt, &mut out) as usize;
        let epoch = cur.take_recorded(64, &mut out);
        let nrounds = cur.take_recorded(SMALL_FIELD_BITS, &mut out) as usize;
        let log2_n = cur.take_recorded(SMALL_FIELD_BITS, &mut out) as u32;
        let mut node_off = Vec::with_capacity(n);
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.take_recorded(widths.node, &mut out);
            for _ in 0..nrounds {
                cur.take_recorded(widths.node, &mut out);
                cur.take_recorded(cnt, &mut out);
            }
        }
        let codec = U32Codec { width: widths.node };
        let tw = ni_tree_widths(&widths, cnt);
        let mut btrees = Vec::with_capacity(log2_n as usize + 1);
        for _ in 0..=log2_n {
            let ntrees = cur.take_recorded(cnt, &mut out);
            let mut level = Vec::with_capacity(ntrees as usize);
            for _ in 0..ntrees {
                level.push(PackedSearchTree::decode(&mut cur, codec, tw, &mut out));
            }
            btrees.push(level);
        }
        let mut facility = Vec::with_capacity(nrounds);
        for _ in 0..nrounds {
            let nhosts = cur.take_recorded(cnt, &mut out);
            let mut round = Vec::with_capacity(nhosts as usize);
            for _ in 0..nhosts {
                if cur.take_recorded(1, &mut out) == 1 {
                    round.push(PackedFacility::Own(PackedSearchTree::decode(
                        &mut cur, codec, tw, &mut out,
                    )));
                } else {
                    let bj = cur.take_recorded(SMALL_FIELD_BITS, &mut out) as u32;
                    let ball = cur.take_recorded(cnt, &mut out) as u32;
                    round.push(PackedFacility::Link { j: bj, ball });
                }
            }
            facility.push(round);
        }
        let plane = ScaleFreeNiPlane {
            underlying,
            arena,
            epoch,
            n,
            widths,
            cnt,
            nrounds,
            node_off,
            btrees,
            facility,
        };
        (plane, out)
    }

    /// The NI layer's own arena (excludes the underlying plane's).
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }

    /// The wrapped underlying labeled plane.
    pub fn underlying(&self) -> &ScaleFreeLabeledPlane {
        &self.underlying
    }
}

impl NiTable for ScaleFreeNiPlane {
    type Tree<'a> = PackedTree<'a, U32Codec>;

    fn name(&self, u: NodeId) -> Name {
        self.arena.read(self.node_off[u as usize], self.widths.node) as Name
    }

    fn round_count(&self) -> usize {
        self.nrounds
    }

    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize) {
        zoom_row(&self.arena, self.node_off[u as usize], &self.widths, self.cnt, k)
    }

    fn facility(&self, k: usize, j: usize) -> Facility<PackedTree<'_, U32Codec>> {
        match &self.facility[k][j] {
            PackedFacility::Own(tree) => Facility::Own(tree.at(&self.arena)),
            PackedFacility::Link { j: bj, ball } => {
                Facility::Link(self.btrees[*bj as usize][*ball as usize].at(&self.arena))
            }
        }
    }

    fn label(&self, u: NodeId) -> Label {
        self.underlying.label(u)
    }

    fn route_label(&self, m: &MetricSpace, src: NodeId, to: Label) -> Result<Route, RouteError> {
        self.underlying.route(m, src, to)
    }
}

impl ForwardingPlane for ScaleFreeNiPlane {
    fn plane_name(&self) -> &'static str {
        "scale-free-name-independent"
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn n(&self) -> usize {
        self.n
    }

    fn packed_bits(&self) -> u64 {
        self.arena.len_bits() + self.underlying.packed_bits()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        self.underlying.route(m, src, target)
    }

    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        route_by_name(self, m, src, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps};
    use netsim::plane::roundtrip_ok;
    use netsim::scheme::NameIndependentScheme;
    use netsim::Naming;

    #[test]
    fn simple_ni_plane_matches_reference() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = SimpleNameIndependent::new(&m, Eps::one_over(8), Naming::random(25, 11)).unwrap();
        let plane = SimpleNiPlane::compile(&m, &s, 0);
        for u in 0..25u32 {
            for name in 0..25u32 {
                let want = s.route(&m, u, name).unwrap();
                assert_eq!(plane.route_named(&m, u, name).unwrap(), want, "{u}->{name}");
            }
        }
    }

    #[test]
    fn simple_ni_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = SimpleNameIndependent::new(&m, Eps::one_over(4), Naming::random(16, 5)).unwrap();
        let plane = SimpleNiPlane::compile(&m, &s, 2);
        let (u_dec, _) = NetLabeledPlane::decode(plane.underlying().arena().clone());
        let (dec, fields) = SimpleNiPlane::decode(plane.arena().clone(), u_dec);
        assert!(roundtrip_ok(plane.arena(), &fields));
        assert_eq!(dec.epoch(), 2);
        assert_eq!(dec.node_off, plane.node_off);
        assert_eq!(dec.route_named(&m, 3, 9).unwrap(), s.route(&m, 3, 9).unwrap());
    }

    #[test]
    fn scale_free_ni_plane_matches_reference() {
        let m = MetricSpace::new(&gen::exp_weight_path(16));
        let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(8), Naming::random(16, 4)).unwrap();
        let plane = ScaleFreeNiPlane::compile(&m, &s, 0);
        for u in 0..16u32 {
            for name in 0..16u32 {
                let want = s.route(&m, u, name).unwrap();
                assert_eq!(plane.route_named(&m, u, name).unwrap(), want, "{u}->{name}");
            }
        }
    }

    #[test]
    fn scale_free_ni_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(4), Naming::random(16, 8)).unwrap();
        let plane = ScaleFreeNiPlane::compile(&m, &s, 6);
        let (u_dec, _) = ScaleFreeLabeledPlane::decode(plane.underlying().arena().clone());
        let (dec, fields) = ScaleFreeNiPlane::decode(plane.arena().clone(), u_dec);
        assert!(roundtrip_ok(plane.arena(), &fields));
        assert_eq!(dec.epoch(), 6);
        for u in 0..16u32 {
            for name in 0..16u32 {
                assert_eq!(dec.route_named(&m, u, name).unwrap(), s.route(&m, u, name).unwrap());
            }
        }
    }
}
