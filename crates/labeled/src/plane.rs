//! Bit-packed forwarding planes for the two labeled schemes.
//!
//! [`NetLabeledPlane`] and [`ScaleFreeLabeledPlane`] compile a built
//! [`NetLabeled`] / [`ScaleFreeLabeled`] scheme into one contiguous
//! [`BitArena`]. They implement the schemes' table-read traits
//! ([`RingTable`], [`ScaleFreeTable`]) over the packed state, so their
//! [`ForwardingPlane::route`] runs the reference procedure itself
//! ([`ring_walk`], [`algorithm_5`]) and every [`Route`] is `==` to the
//! reference scheme's.
//!
//! Arena layouts (all counts packed in-arena; see [`netsim::plane`] for
//! the shared conventions):
//!
//! ```text
//! net-labeled:
//!   widths:5×7  n:cnt  epoch:64  num_levels:7
//!   has_names:1  [name directory: n × label:node]
//!   per node u:
//!     label:node
//!     per level i: count:cnt { x:node lo:node hi:node next:node }*
//!
//! scale-free labeled:
//!   widths:5×7  n:cnt  epoch:64  eps_num:64  eps_den:64  log2_n:7
//!   has_names:1  [name directory: n × label:node]
//!   per node u:
//!     label:node
//!     per j ∈ [0, log2_n]: k:cnt local:cnt           (Voronoi rows)
//!     nrings:cnt
//!     per stored ring: level:level count:cnt
//!       { x:node lo:node hi:node next:node dist:dist }*
//!   per j ∈ [0, log2_n]: nballs:cnt, per ball:
//!     center:node  port_bits:7  len:cnt
//!     per local: node:node dfs:node lo:node hi:node parent:node
//!                heavy?:1 heavy_local:cnt            (fixed-size records)
//!     root label (PortLabel codec)
//!     packed search tree (PortLabel payloads)
//! ```
//!
//! An optional *name directory* (`name → label`, one row per name) gives
//! labeled planes a [`ForwardingPlane::route_named`] ingress; planes
//! compiled without one fail named queries with a structured lookup error
//! at the source.

use std::borrow::Cow;

use doubling_metric::graph::NodeId;
use doubling_metric::nets::NetHierarchy;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

use netsim::bits::{bits_for_count, FieldWidths};
use netsim::naming::Naming;
use netsim::plane::{push_width_header, take_width_header, BitArena, BitCursor, ForwardingPlane};
use netsim::route::{Route, RouteError};
use netsim::scheme::{Label, Name};
use searchtree::{PackedSearchTree, PackedTree, PackedTreeWidths, PayloadCodec, PortLabelCodec};
use treeroute::{PortLabel, PortTable};

use crate::net_labeled::{ring_walk, RingTable};
use crate::scale_free::{algorithm_5, RingHit, ScaleFreeTable};
use crate::{NetLabeled, ScaleFreeLabeled};

/// Width of the small structural header fields (level counts, size
/// exponents) that are bounded by 64-ish but not by the metric widths.
const SMALL_FIELD_BITS: u64 = 7;

/// The label packed for every node. Inactive (churned-out) nodes keep
/// their real tables, because routes between active nodes may still
/// transit them exactly as in the reference scheme, but hold no label:
/// they pack `num_active`, which no active node's label equals, so no
/// route ever stops at them.
fn packed_labels(nets: &NetHierarchy, n: usize) -> Vec<Label> {
    let placeholder = nets.num_active() as Label;
    (0..n as NodeId).map(|v| if nets.is_active(v) { nets.label(v) } else { placeholder }).collect()
}

/// Packs the optional name directory: a presence flag, then one label per
/// name in name order.
fn push_name_directory(arena: &mut BitArena, naming: Option<&Naming>, labels: &[Label], w: u64) {
    match naming {
        Some(nm) => {
            arena.push(1, 1);
            for name in 0..labels.len() as Name {
                arena.push(labels[nm.node_of(name) as usize] as u64, w);
            }
        }
        None => arena.push(0, 1),
    }
}

/// Reads back the optional name directory, recording fields. Returns the
/// offset of the first directory row, if present.
fn take_name_directory(
    cur: &mut BitCursor<'_>,
    n: usize,
    w: u64,
    out: &mut Vec<(u64, u64)>,
) -> Option<u64> {
    if cur.take_recorded(1, out) == 1 {
        let off = cur.pos();
        for _ in 0..n {
            cur.take_recorded(w, out);
        }
        Some(off)
    } else {
        None
    }
}

/// Resolves `name` through the packed name directory at `names_off`; a
/// plane compiled without one fails the query at the source.
fn resolve_name(
    arena: &BitArena,
    names_off: Option<u64>,
    w: u64,
    src: NodeId,
    name: Name,
) -> Result<Label, RouteError> {
    let off = names_off.ok_or_else(|| RouteError::LookupFailed {
        at: src,
        detail: format!("name {name}: no name directory compiled into this plane"),
    })?;
    Ok(arena.read(off + name as u64 * w, w) as Label)
}

/// [`crate::rings::ring_lookup`] against a packed ring of `len` entries of
/// `esz` bits from `base`, each starting `x lo hi next` at node width `w`:
/// the offset of the entry whose range contains `label`, by the same
/// partition-point binary search.
fn ring_entry(
    arena: &BitArena,
    base: u64,
    len: u64,
    esz: u64,
    w: u64,
    label: Label,
) -> Option<u64> {
    let (mut lo_i, mut hi_i) = (0u64, len);
    while lo_i < hi_i {
        let mid = (lo_i + hi_i) / 2;
        if arena.read(base + mid * esz + w, w) <= label as u64 {
            lo_i = mid + 1;
        } else {
            hi_i = mid;
        }
    }
    let e = base + lo_i.checked_sub(1)? * esz;
    (label as u64 <= arena.read(e + 2 * w, w)).then_some(e)
}

/// The [`NetLabeled`] scheme compiled into a bit arena.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use labeled_routing::{NetLabeled, NetLabeledPlane};
/// use netsim::{ForwardingPlane, LabeledScheme};
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// let s = NetLabeled::new(&m, Eps::one_over(8))?;
/// let plane = NetLabeledPlane::compile(&m, &s, None, 0);
/// let want = s.route(&m, 0, s.label_of(15))?;
/// assert_eq!(plane.route(&m, 0, s.label_of(15))?, want);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetLabeledPlane {
    arena: BitArena,
    epoch: u64,
    n: usize,
    num_levels: usize,
    widths: FieldWidths,
    cnt: u64,
    names_off: Option<u64>,
    node_off: Vec<u64>,
    /// Offset of ring `(u, i)`'s count field, `n × num_levels` rows.
    ring_off: Vec<u64>,
}

impl NetLabeledPlane {
    /// Compiles `s` at maintainer epoch `epoch`. With `naming` set, a
    /// name directory is packed so the plane serves named queries too.
    ///
    /// # Panics
    ///
    /// Panics if `naming` is present with a different node count.
    pub fn compile(m: &MetricSpace, s: &NetLabeled, naming: Option<&Naming>, epoch: u64) -> Self {
        let n = m.n();
        if let Some(nm) = naming {
            assert_eq!(nm.n(), n, "naming must cover all nodes");
        }
        let widths = FieldWidths::new(m);
        let cnt = bits_for_count(n as u64 + 1);
        let num_levels = s.num_levels();
        let labels = packed_labels(s.nets(), n);

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        arena.push(num_levels as u64, SMALL_FIELD_BITS);
        let names_flag_off = arena.len_bits();
        push_name_directory(&mut arena, naming, &labels, widths.node);
        let names_off = naming.map(|_| names_flag_off + 1);

        let mut node_off = Vec::with_capacity(n);
        let mut ring_off = Vec::with_capacity(n * num_levels);
        for u in 0..n as NodeId {
            node_off.push(arena.len_bits());
            arena.push(labels[u as usize] as u64, widths.node);
            for i in 0..num_levels {
                ring_off.push(arena.len_bits());
                let ring = s.ring(u, i);
                arena.push(ring.len() as u64, cnt);
                for e in ring {
                    arena.push(e.x as u64, widths.node);
                    arena.push(e.range.0 as u64, widths.node);
                    arena.push(e.range.1 as u64, widths.node);
                    arena.push(e.next as u64, widths.node);
                }
            }
        }
        NetLabeledPlane { arena, epoch, n, num_levels, widths, cnt, names_off, node_off, ring_off }
    }

    /// Rebuilds a plane from its arena alone, recording every structural
    /// field — the differential layer asserts the recorded stream
    /// re-encodes to the identical arena.
    pub fn decode(arena: BitArena) -> (Self, Vec<(u64, u64)>) {
        let mut out = Vec::new();
        let mut cur = BitCursor::new(&arena, 0);
        let (widths, cnt) = take_width_header(&mut cur, &mut out);
        let n = cur.take_recorded(cnt, &mut out) as usize;
        let epoch = cur.take_recorded(64, &mut out);
        let num_levels = cur.take_recorded(SMALL_FIELD_BITS, &mut out) as usize;
        let names_off = take_name_directory(&mut cur, n, widths.node, &mut out);
        let mut node_off = Vec::with_capacity(n);
        let mut ring_off = Vec::with_capacity(n * num_levels);
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.take_recorded(widths.node, &mut out);
            for _ in 0..num_levels {
                ring_off.push(cur.pos());
                let len = cur.take_recorded(cnt, &mut out);
                for _ in 0..4 * len {
                    cur.take_recorded(widths.node, &mut out);
                }
            }
        }
        let plane = NetLabeledPlane {
            arena,
            epoch,
            n,
            num_levels,
            widths,
            cnt,
            names_off,
            node_off,
            ring_off,
        };
        (plane, out)
    }

    /// The backing arena.
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }
}

impl RingTable for NetLabeledPlane {
    fn label(&self, u: NodeId) -> Label {
        self.arena.read(self.node_off[u as usize], self.widths.node) as Label
    }

    fn min_hit(&self, u: NodeId, label: Label) -> Option<(u32, NodeId)> {
        let w = self.widths.node;
        (0..self.num_levels).find_map(|i| {
            let off = self.ring_off[u as usize * self.num_levels + i];
            let len = self.arena.read(off, self.cnt);
            let e = ring_entry(&self.arena, off + self.cnt, len, 4 * w, w, label)?;
            Some((i as u32, self.arena.read(e + 3 * w, w) as NodeId))
        })
    }
}

impl ForwardingPlane for NetLabeledPlane {
    fn plane_name(&self) -> &'static str {
        "net-labeled"
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn n(&self) -> usize {
        self.n
    }

    fn packed_bits(&self) -> u64 {
        self.arena.len_bits()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        ring_walk(self, m, src, target)
    }

    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        let label = resolve_name(&self.arena, self.names_off, self.widths.node, src, name)?;
        self.route(m, src, label)
    }
}

/// One packed Voronoi cell of the scale-free plane: derived offsets into
/// the arena (center and widths cached for addressing).
#[derive(Debug, Clone)]
struct PackedCell {
    center: NodeId,
    port_bits: u64,
    router_base: u64,
    root_label_off: u64,
    search: PackedSearchTree<PortLabelCodec>,
}

/// The [`ScaleFreeLabeled`] scheme compiled into a bit arena.
///
/// Routes by [`algorithm_5`] over the packed `R(u)` rings, `ε`, Voronoi
/// rows, tree routers ([`PackedRouter`]) and search trees.
#[derive(Debug, Clone)]
pub struct ScaleFreeLabeledPlane {
    arena: BitArena,
    epoch: u64,
    n: usize,
    widths: FieldWidths,
    cnt: u64,
    log2_n: u32,
    eps: Eps,
    names_off: Option<u64>,
    node_off: Vec<u64>,
    /// `cells[j][k]`, mirroring the scheme's cell table.
    cells: Vec<Vec<PackedCell>>,
}

impl ScaleFreeLabeledPlane {
    /// Size of one packed router record.
    fn router_record_bits(node: u64, cnt: u64) -> u64 {
        5 * node + 1 + cnt
    }

    /// Compiles `s` at maintainer epoch `epoch`, optionally with a name
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics if `naming` is present with a different node count.
    pub fn compile(
        m: &MetricSpace,
        s: &ScaleFreeLabeled,
        naming: Option<&Naming>,
        epoch: u64,
    ) -> Self {
        let n = m.n();
        if let Some(nm) = naming {
            assert_eq!(nm.n(), n, "naming must cover all nodes");
        }
        let widths = FieldWidths::new(m);
        let cnt = bits_for_count(n as u64 + 1);
        let log2_n = s.log2_n();
        let labels = packed_labels(s.nets(), n);

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        arena.push(s.eps().num(), 64);
        arena.push(s.eps().den(), 64);
        arena.push(log2_n as u64, SMALL_FIELD_BITS);
        let names_flag_off = arena.len_bits();
        push_name_directory(&mut arena, naming, &labels, widths.node);
        let names_off = naming.map(|_| names_flag_off + 1);

        let mut node_off = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            node_off.push(arena.len_bits());
            arena.push(labels[u as usize] as u64, widths.node);
            for j in 0..=log2_n {
                let packing = s.packings().at(j);
                let k = packing.voronoi_index(u);
                let local = s.cell(j, k).0.tree().local(u).expect("u is in its Voronoi region");
                arena.push(k as u64, cnt);
                arena.push(local as u64, cnt);
            }
            let rings = s.rings_of(u);
            arena.push(rings.len() as u64, cnt);
            for (i, ring) in rings {
                arena.push(*i as u64, widths.level);
                arena.push(ring.len() as u64, cnt);
                for e in ring {
                    arena.push(e.x as u64, widths.node);
                    arena.push(e.range.0 as u64, widths.node);
                    arena.push(e.range.1 as u64, widths.node);
                    arena.push(e.next as u64, widths.node);
                    arena.push(e.dist, widths.dist);
                }
            }
        }

        let mut cells: Vec<Vec<PackedCell>> = Vec::with_capacity(log2_n as usize + 1);
        for j in 0..=log2_n {
            let packing = s.packings().at(j);
            let nballs = packing.balls().len();
            arena.push(nballs as u64, cnt);
            let mut level_cells = Vec::with_capacity(nballs);
            for k in 0..nballs as u32 {
                let (router, search) = s.cell(j, k);
                let c = packing.balls()[k as usize].center;
                arena.push(c as u64, widths.node);
                arena.push(router.port_bits(), SMALL_FIELD_BITS);
                let len = router.tree().len();
                arena.push(len as u64, cnt);
                let router_base = arena.len_bits();
                for i in 0..len as u32 {
                    arena.push(router.tree().node(i) as u64, widths.node);
                    arena.push(router.dfs_of(i) as u64, widths.node);
                    let (lo, hi) = router.interval_of(i);
                    arena.push(lo as u64, widths.node);
                    arena.push(hi as u64, widths.node);
                    arena.push(router.tree().node(router.tree().parent(i)) as u64, widths.node);
                    match router.heavy_of(i) {
                        Some(h) => {
                            arena.push(1, 1);
                            arena.push(h as u64, cnt);
                        }
                        None => {
                            arena.push(0, 1);
                            arena.push(0, cnt);
                        }
                    }
                }
                let codec = PortLabelCodec { node: widths.node, port: router.port_bits(), cnt };
                let root_label_off = arena.len_bits();
                codec.encode(&mut arena, router.label_of(c));
                let packed_search = PackedSearchTree::encode(
                    &mut arena,
                    search,
                    codec,
                    PackedTreeWidths { key: widths.node, cnt, node: widths.node },
                );
                level_cells.push(PackedCell {
                    center: c,
                    port_bits: router.port_bits(),
                    router_base,
                    root_label_off,
                    search: packed_search,
                });
            }
            cells.push(level_cells);
        }

        ScaleFreeLabeledPlane {
            arena,
            epoch,
            n,
            widths,
            cnt,
            log2_n,
            eps: s.eps(),
            names_off,
            node_off,
            cells,
        }
    }

    /// Rebuilds a plane from its arena alone, recording every structural
    /// field for the byte-exact round-trip check.
    pub fn decode(arena: BitArena) -> (Self, Vec<(u64, u64)>) {
        let mut out = Vec::new();
        let mut cur = BitCursor::new(&arena, 0);
        let (widths, cnt) = take_width_header(&mut cur, &mut out);
        let n = cur.take_recorded(cnt, &mut out) as usize;
        let epoch = cur.take_recorded(64, &mut out);
        let eps_num = cur.take_recorded(64, &mut out);
        let eps_den = cur.take_recorded(64, &mut out);
        let log2_n = cur.take_recorded(SMALL_FIELD_BITS, &mut out) as u32;
        let names_off = take_name_directory(&mut cur, n, widths.node, &mut out);
        let mut node_off = Vec::with_capacity(n);
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.take_recorded(widths.node, &mut out);
            for _ in 0..=log2_n {
                cur.take_recorded(cnt, &mut out);
                cur.take_recorded(cnt, &mut out);
            }
            let nrings = cur.take_recorded(cnt, &mut out);
            for _ in 0..nrings {
                cur.take_recorded(widths.level, &mut out);
                let len = cur.take_recorded(cnt, &mut out);
                for _ in 0..len {
                    for _ in 0..4 {
                        cur.take_recorded(widths.node, &mut out);
                    }
                    cur.take_recorded(widths.dist, &mut out);
                }
            }
        }
        let mut cells = Vec::with_capacity(log2_n as usize + 1);
        for _ in 0..=log2_n {
            let nballs = cur.take_recorded(cnt, &mut out);
            let mut level_cells = Vec::with_capacity(nballs as usize);
            for _ in 0..nballs {
                let center = cur.take_recorded(widths.node, &mut out) as NodeId;
                let port_bits = cur.take_recorded(SMALL_FIELD_BITS, &mut out);
                let len = cur.take_recorded(cnt, &mut out);
                let router_base = cur.pos();
                for _ in 0..len {
                    for _ in 0..5 {
                        cur.take_recorded(widths.node, &mut out);
                    }
                    cur.take_recorded(1, &mut out);
                    cur.take_recorded(cnt, &mut out);
                }
                let codec = PortLabelCodec { node: widths.node, port: port_bits, cnt };
                let root_label_off = cur.pos();
                codec.decode_recorded(&mut cur, &mut out);
                let search = PackedSearchTree::decode(
                    &mut cur,
                    codec,
                    PackedTreeWidths { key: widths.node, cnt, node: widths.node },
                    &mut out,
                );
                level_cells.push(PackedCell {
                    center,
                    port_bits,
                    router_base,
                    root_label_off,
                    search,
                });
            }
            cells.push(level_cells);
        }
        let plane = ScaleFreeLabeledPlane {
            arena,
            epoch,
            n,
            widths,
            cnt,
            log2_n,
            eps: Eps::new(eps_num, eps_den).expect("packed eps is a valid fraction"),
            names_off,
            node_off,
            cells,
        };
        (plane, out)
    }

    /// The backing arena.
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }
}

impl ScaleFreeTable for ScaleFreeLabeledPlane {
    type Router<'a> = PackedRouter<'a>;
    type Search<'a> = PackedTree<'a, PortLabelCodec>;

    fn eps(&self) -> Eps {
        self.eps
    }

    fn label(&self, u: NodeId) -> Label {
        self.arena.read(self.node_off[u as usize], self.widths.node) as Label
    }

    fn min_hit(&self, u: NodeId, label: Label) -> Option<RingHit> {
        let (w, dist) = (self.widths.node, self.widths.dist);
        let mut off = self.node_off[u as usize] + w + (self.log2_n as u64 + 1) * 2 * self.cnt;
        let nrings = self.arena.read(off, self.cnt);
        off += self.cnt;
        for _ in 0..nrings {
            let level = self.arena.read(off, self.widths.level) as u32;
            let len = self.arena.read(off + self.widths.level, self.cnt);
            off += self.widths.level + self.cnt;
            if let Some(e) = ring_entry(&self.arena, off, len, 4 * w + dist, w, label) {
                let x = self.arena.read(e, w) as NodeId;
                let next = self.arena.read(e + 3 * w, w) as NodeId;
                return Some(RingHit { level, x, dist: self.arena.read(e + 4 * w, dist), next });
            }
            off += len * (4 * w + dist);
        }
        None
    }

    fn voronoi_row(&self, u: NodeId, j: u32) -> (u32, u32) {
        let off = self.node_off[u as usize] + self.widths.node + j as u64 * 2 * self.cnt;
        (self.arena.read(off, self.cnt) as u32, self.arena.read(off + self.cnt, self.cnt) as u32)
    }

    fn root_label(&self, j: u32, k: u32) -> (NodeId, Cow<'_, PortLabel>) {
        let cell = &self.cells[j as usize][k as usize];
        let codec = PortLabelCodec { node: self.widths.node, port: cell.port_bits, cnt: self.cnt };
        let label = codec.decode(&mut BitCursor::new(&self.arena, cell.root_label_off));
        (cell.center, Cow::Owned(label))
    }

    fn cell(&self, j: u32, k: u32) -> (PackedRouter<'_>, PackedTree<'_, PortLabelCodec>) {
        let cell = &self.cells[j as usize][k as usize];
        (PackedRouter { plane: self, j, cell }, cell.search.at(&self.arena))
    }
}

/// One packed cell's router records, read against the plane's arena. A
/// node's local index comes from its packed Voronoi row.
#[derive(Debug, Clone, Copy)]
pub struct PackedRouter<'a> {
    plane: &'a ScaleFreeLabeledPlane,
    j: u32,
    cell: &'a PackedCell,
}

impl PackedRouter<'_> {
    /// Bit offset of local `u`'s fixed-size router record.
    fn record(self, u: u32) -> u64 {
        let p = self.plane;
        self.cell.router_base
            + u as u64 * ScaleFreeLabeledPlane::router_record_bits(p.widths.node, p.cnt)
    }

    fn read_node(self, off: u64) -> u64 {
        self.plane.arena.read(off, self.plane.widths.node)
    }
}

// Record fields at multiples of the node width: `node, dfs, lo, hi,
// parent`, then `heavy?:1 heavy_local:cnt`.
impl PortTable for PackedRouter<'_> {
    fn local(self, v: NodeId) -> u32 {
        self.plane.voronoi_row(v, self.j).1
    }

    fn dfs_of(self, u: u32) -> u32 {
        self.read_node(self.record(u) + self.plane.widths.node) as u32
    }

    fn interval_of(self, u: u32) -> (u32, u32) {
        let (rec, w) = (self.record(u), self.plane.widths.node);
        (self.read_node(rec + 2 * w) as u32, self.read_node(rec + 3 * w) as u32)
    }

    fn parent_node(self, u: u32) -> NodeId {
        self.read_node(self.record(u) + 4 * self.plane.widths.node) as NodeId
    }

    fn heavy_child(self, u: u32) -> Option<(NodeId, (u32, u32))> {
        let (rec, w) = (self.record(u), self.plane.widths.node);
        let arena = &self.plane.arena;
        (arena.read(rec + 5 * w, 1) == 1).then(|| {
            let h = arena.read(rec + 5 * w + 1, self.plane.cnt) as u32;
            (self.read_node(self.record(h)) as NodeId, self.interval_of(h))
        })
    }

    fn port_bits(self) -> u64 {
        self.cell.port_bits
    }
}

impl ForwardingPlane for ScaleFreeLabeledPlane {
    fn plane_name(&self) -> &'static str {
        "scale-free-labeled"
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn n(&self) -> usize {
        self.n
    }

    fn packed_bits(&self) -> u64 {
        self.arena.len_bits()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        algorithm_5(self, m, src, target)
    }

    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        let label = resolve_name(&self.arena, self.names_off, self.widths.node, src, name)?;
        self.route(m, src, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps};
    use netsim::plane::roundtrip_ok;
    use netsim::LabeledScheme;

    #[test]
    fn net_labeled_plane_routes_match_reference() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        let naming = Naming::random(25, 3);
        let plane = NetLabeledPlane::compile(&m, &s, Some(&naming), 0);
        for u in 0..25u32 {
            for v in 0..25u32 {
                let want = s.route(&m, u, s.label_of(v)).unwrap();
                assert_eq!(plane.route(&m, u, s.label_of(v)).unwrap(), want, "{u}->{v}");
                assert_eq!(
                    plane.route_named(&m, u, naming.name_of(v)).unwrap(),
                    want,
                    "{u}->name({v})"
                );
            }
        }
    }

    #[test]
    fn net_labeled_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        let plane = NetLabeledPlane::compile(&m, &s, Some(&Naming::random(16, 9)), 7);
        let (dec, fields) = NetLabeledPlane::decode(plane.arena().clone());
        assert!(roundtrip_ok(plane.arena(), &fields));
        assert_eq!(dec.epoch(), 7);
        assert_eq!(dec.node_off, plane.node_off);
        assert_eq!(dec.ring_off, plane.ring_off);
        let r = dec.route(&m, 0, s.label_of(15)).unwrap();
        assert_eq!(r, s.route(&m, 0, s.label_of(15)).unwrap());
    }

    #[test]
    fn scale_free_plane_routes_match_reference_on_exp_path() {
        // The exponential path exercises the packing phase (pruned R(u)).
        let m = MetricSpace::new(&gen::exp_weight_path(20));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(8)).unwrap();
        let plane = ScaleFreeLabeledPlane::compile(&m, &s, None, 0);
        for u in 0..20u32 {
            for v in 0..20u32 {
                let want = s.route(&m, u, s.label_of(v)).unwrap();
                assert_eq!(plane.route(&m, u, s.label_of(v)).unwrap(), want, "{u}->{v}");
            }
        }
    }

    #[test]
    fn scale_free_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(4)).unwrap();
        let plane = ScaleFreeLabeledPlane::compile(&m, &s, Some(&Naming::random(16, 2)), 3);
        let (dec, fields) = ScaleFreeLabeledPlane::decode(plane.arena().clone());
        assert!(roundtrip_ok(plane.arena(), &fields));
        assert_eq!(dec.epoch(), 3);
        assert_eq!(dec.node_off, plane.node_off);
        for u in 0..16u32 {
            for v in 0..16u32 {
                assert_eq!(
                    dec.route(&m, u, s.label_of(v)).unwrap(),
                    s.route(&m, u, s.label_of(v)).unwrap()
                );
            }
        }
    }

    /// Checks that, after `gone` departed, plane routes between all other
    /// nodes equal the reference routes, including the routes that
    /// transit `gone`. Returns how many reference routes did.
    fn routes_through_departed_match<P: ForwardingPlane>(
        m: &MetricSpace,
        label_of: impl Fn(NodeId) -> Label,
        route: impl Fn(NodeId, Label) -> Route,
        plane: &P,
        gone: NodeId,
    ) -> usize {
        let mut transits = 0;
        for u in (0..m.n() as NodeId).filter(|&u| u != gone) {
            for v in (0..m.n() as NodeId).filter(|&v| v != gone) {
                let want = route(u, label_of(v));
                assert_eq!(want.dst, v);
                assert_eq!(plane.route(m, u, label_of(v)).unwrap(), want, "{u}->{v}");
                transits += usize::from(want.hops.len() > 2 && want.hops.contains(&gone));
            }
        }
        transits
    }

    #[test]
    fn planes_route_through_departed_nodes_like_the_reference() {
        use doubling_metric::nets::{ChurnBatch, NetRepairBudget};
        let m = MetricSpace::new(&gen::grid(7, 7));
        let eps = Eps::one_over(8);
        let gone = 24; // the grid's center: many shortest paths cross it
        let leave = ChurnBatch::new(vec![], vec![gone]);
        let budget = NetRepairBudget::unbounded();

        let mut net = NetLabeled::new(&m, eps).unwrap();
        net.repair(&m, &leave, &budget);
        assert!(!net.nets().is_active(gone));
        let plane = NetLabeledPlane::compile(&m, &net, None, 1);
        let transits = routes_through_departed_match(
            &m,
            |v| net.label_of(v),
            |u, l| net.route(&m, u, l).unwrap(),
            &plane,
            gone,
        );
        assert!(transits > 0, "no net-labeled route crossed the departed node");

        let mut sf = ScaleFreeLabeled::new(&m, eps).unwrap();
        sf.repair(&m, &leave, &budget);
        let plane = ScaleFreeLabeledPlane::compile(&m, &sf, None, 1);
        let transits = routes_through_departed_match(
            &m,
            |v| sf.label_of(v),
            |u, l| sf.route(&m, u, l).unwrap(),
            &plane,
            gone,
        );
        assert!(transits > 0, "no scale-free-labeled route crossed the departed node");
    }

    #[test]
    fn plane_without_directory_fails_named_queries() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        let plane = NetLabeledPlane::compile(&m, &s, None, 0);
        assert!(matches!(plane.route_named(&m, 0, 5), Err(RouteError::LookupFailed { at: 0, .. })));
    }
}
