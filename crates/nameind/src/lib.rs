//! Name-independent compact routing schemes for networks of low doubling
//! dimension — the paper's headline contribution.
//!
//! A name-independent scheme must deliver a packet given only the
//! destination's *arbitrary original name* (not a designer-chosen label).
//! Both schemes here follow the same two-layer recipe (Section 3):
//!
//! 1. An **underlying labeled scheme** provides `(1+O(ε))`-stretch routing
//!    once the destination's label is known.
//! 2. A **hierarchy of search trees** maps names to labels: the source
//!    walks its *zooming sequence* `u(0), u(1), u(2), …` (each net point
//!    stores the label of its netting-tree parent), and at each `u(i)`
//!    searches a ball of radius `2^i/ε` for the pair `(name, label)`
//!    (**Algorithm 3**). The geometric growth of the search radii against
//!    the lower bound `d(u, v) ≳ 2^{j−1}/ε` at the first successful level
//!    `j` yields total cost `(9 + O(ε))·d(u, v)` (**Lemma 3.4**) — and
//!    stretch 9 is optimal by the paper's Theorem 1.3.
//!
//! * [`simple::SimpleNameIndependent`] (**Theorem 1.4**) keeps one search
//!   tree per net point per level — `(1/ε)^{O(α)}·log Δ·log n` bits per
//!   node, `O(log n)` headers; not scale-free.
//! * [`scale_free::ScaleFreeNameIndependent`] (**Theorem 1.1**) replaces
//!   most per-level search trees with shared trees over the ball packings
//!   `ℬ_j` (Section 3.3): a ball `B_u(2^i/ε)` whose contents are already
//!   indexed by a packed ball's tree stores only a link `H(u, i)` to that
//!   ball (**Algorithm 4** redirects the search through the link). Claims
//!   3.6–3.9 bound the storage at `(1/ε)^{O(α)}·log³ n` bits — independent
//!   of Δ. Together with the matching lower bound this is the first
//!   optimal-stretch scale-free name-independent compact routing scheme
//!   for doubling networks.

#![warn(missing_docs)]

pub mod objects;
pub mod plane;
pub mod rounds;
pub mod scale_free;
pub mod simple;

pub use objects::ObjectDirectory;
pub use plane::{ScaleFreeNiPlane, SimpleNiPlane};
pub use scale_free::{FacilityView, ScaleFreeNameIndependent};
pub use simple::SimpleNameIndependent;

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;
use netsim::bits::FieldWidths;
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Label, Name};
use searchtree::{SearchTable, SearchTree};

/// A round host's search facility: its own search tree, or (Algorithm 4)
/// a link `H(y, k)` to the ℬ-type tree of a packed ball.
#[derive(Debug, Clone, Copy)]
pub enum Facility<T> {
    /// The host's own tree (every host of the simple scheme).
    Own(T),
    /// A ℬ-type tree, searched from its center.
    Link(T),
}

/// The table reads of name-independent routing: names, zoom rows,
/// facilities, and the underlying labeled scheme. The two schemes and
/// their two planes implement it; [`route_by_name`] routes over all four.
pub trait NiTable {
    /// A search tree of `(name, label)` pairs.
    type Tree<'a>: SearchTable<Item = Label>
    where
        Self: 'a;

    /// The name of node `u`.
    fn name(&self, u: NodeId) -> Name;

    /// Number of search rounds.
    fn round_count(&self) -> usize;

    /// Round `k`'s host `y = u(i_k)` and its index `j` in the host level.
    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize);

    /// The facility of the `j`-th host of round `k`.
    fn facility(&self, k: usize, j: usize) -> Facility<Self::Tree<'_>>;

    /// The underlying label of node `u`.
    fn label(&self, u: NodeId) -> Label;

    /// The underlying labeled route from `src` to label `to`.
    ///
    /// # Errors
    ///
    /// The underlying scheme's route errors.
    fn route_label(&self, m: &MetricSpace, src: NodeId, to: Label) -> Result<Route, RouteError>;
}

/// Name-independent routing from `src` to the node named `name`, over any
/// [`NiTable`]: per round, zoom to the host, run the host's facility
/// search, and on a hit route to the found label.
///
/// # Errors
///
/// [`RouteError::LookupFailed`] if no round finds the name, or the
/// underlying routes' errors.
pub fn route_by_name<T: NiTable + ?Sized>(
    t: &T,
    m: &MetricSpace,
    src: NodeId,
    name: Name,
) -> Result<Route, RouteError> {
    let mut rec = RouteRecorder::new(m, src);
    // Name-independent header: the destination name plus the current
    // round; underlying headers are folded in by absorb().
    let w = FieldWidths::new(m);
    rec.note_header_bits(w.node + w.level);

    if t.name(src) == name {
        return Ok(rec.finish());
    }

    for k in 0..t.round_count() {
        // Go to the round's host u(i_k) — reached by netting-tree hops
        // whose labels the intermediate net points store.
        let (y, j) = t.zoom_row(src, k);
        rec.begin_segment("zoom", Some(k as u32));
        go(t, m, &mut rec, t.label(y))?;

        rec.begin_segment("search", Some(k as u32));
        if let Some(label) = search(t, m, &mut rec, t.facility(k, j), name)? {
            rec.begin_segment("final", Some(k as u32));
            go(t, m, &mut rec, label)?;
            return Ok(rec.finish());
        }
    }
    Err(RouteError::LookupFailed {
        at: rec.current(),
        detail: format!("name {name} not found at any round (top ball must cover V)"),
    })
}

/// Routes via the underlying labeled scheme and absorbs the sub-route.
pub(crate) fn go<T: NiTable + ?Sized>(
    t: &T,
    m: &MetricSpace,
    rec: &mut RouteRecorder<'_>,
    target: Label,
) -> Result<(), RouteError> {
    if t.label(rec.current()) == target {
        return Ok(());
    }
    let sub = t.route_label(m, rec.current(), target)?;
    rec.absorb(&sub)
}

/// Algorithm 4's local search from the round host: Algorithm 2 on its own
/// tree, or on a linked ℬ-type tree reached through that tree's center.
/// Returns the label if found, with the packet back at the host.
fn search<T: NiTable + ?Sized>(
    t: &T,
    m: &MetricSpace,
    rec: &mut RouteRecorder<'_>,
    facility: Facility<T::Tree<'_>>,
    name: Name,
) -> Result<Option<Label>, RouteError> {
    let host = rec.current();
    let tree = match facility {
        Facility::Own(tree) => tree,
        Facility::Link(tree) => {
            go(t, m, rec, t.label(tree.node(0)))?;
            tree
        }
    };
    let walk = tree.search(name as u64);
    for &x in &walk.nodes[1..] {
        go(t, m, rec, t.label(x))?;
    }
    // The walk ends at the tree's root: the host itself for an own tree
    // (so this is a no-op), the linked ball's center otherwise.
    go(t, m, rec, t.label(host))?;
    Ok(walk.result)
}

/// Adds one search tree's per-node table share (member storage plus
/// non-member Lemma 4.3 relay entries, every field `widths.node` bits)
/// into `search_bits`. Both schemes sum their shares from scratch with it,
/// and repair adds the share of each new tree.
pub(crate) fn add_tree_share(
    search_bits: &mut [u64],
    widths: FieldWidths,
    tree: &SearchTree<Label>,
) {
    let w = widths.node;
    tree.for_each_share(w, w, |_| w, |v, bits| search_bits[v as usize] += bits);
}

/// Takes a dropped or rebuilt tree's [`add_tree_share`] back out of
/// `search_bits`.
pub(crate) fn remove_tree_share(
    search_bits: &mut [u64],
    widths: FieldWidths,
    tree: &SearchTree<Label>,
) {
    let w = widths.node;
    tree.for_each_share(w, w, |_| w, |v, bits| search_bits[v as usize] -= bits);
}

/// The paper's Lemma 3.4 stretch bound `1 + 8(1/ε + 1)/(1/ε − 2)` as a
/// float (it tends to `9` as `ε → 0`). This is the *search-layer* bound;
/// the composed scheme's cost additionally carries the underlying labeled
/// scheme's `(1+O(ε))` factor on every movement, which the paper's big-O
/// absorbs ("since `(1+ε)(1+O(ε)) = 1+O(ε)` we omit the factor").
pub fn lemma_3_4_bound(eps: doubling_metric::Eps) -> f64 {
    let inv = eps.den() as f64 / eps.num() as f64;
    1.0 + 8.0 * (inv + 1.0) / (inv - 2.0)
}

/// Acceptance envelope used by tests and the benchmark harness: Lemma 3.4
/// with a 1.5× allowance on the additive term for the underlying labeled
/// scheme's own `1+O(ε)` stretch applied to the zoom/search/final legs.
/// It tends to `13`, not `9`, as `ε → 0`: it is a test envelope, looser
/// than the `9 + O(ε)` of Theorems 1.4/1.1.
pub fn stretch_envelope(eps: doubling_metric::Eps) -> f64 {
    let inv = eps.den() as f64 / eps.num() as f64;
    1.0 + 12.0 * (inv + 1.0) / (inv - 2.0)
}
