//! Port-based heavy-path tree routing — the Fraigniaud–Gavoille port
//! model.
//!
//! [`crate::compact::CompactTreeRouter`] stores a full node id per light
//! edge in the label. The original tree-routing schemes instead name the
//! *output port*: the index of the link at the branching node. A node
//! knows its own physical links for free (they are its network
//! interfaces, not routing state), so ports cost `⌈log₂ Δ_G⌉` bits
//! instead of `⌈log₂ n⌉` — the step toward Lemma 4.1's tighter label
//! sizes.
//!
//! Ports are physical-link indices, so this router applies to trees whose
//! edges are graph edges — exactly the Voronoi shortest-path trees
//! `T_c(j)` of Section 4. [`PortTreeRouter::new`] verifies the property.

use std::fmt;

use doubling_metric::graph::{Graph, NodeId};

use crate::tree::Tree;

/// Errors from [`PortTreeRouter::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortError {
    /// A tree edge is not a graph edge, so it has no port.
    NotAGraphEdge {
        /// Child endpoint.
        child: NodeId,
        /// Parent endpoint.
        parent: NodeId,
    },
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::NotAGraphEdge { child, parent } => {
                write!(f, "tree edge ({child}, {parent}) is not a physical link")
            }
        }
    }
}

impl std::error::Error for PortError {}

/// A port-based compact routing label: DFS number plus one
/// `(dfs(x), port)` pair per light edge on the root path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortLabel {
    /// DFS number of the labeled node.
    pub dfs: u32,
    /// `(dfs of branching node, output port at that node)` per light edge,
    /// root-to-node order.
    pub lights: Vec<(u32, u32)>,
}

impl PortLabel {
    /// Serialized size: one node-sized field plus `(node + port)` per
    /// light edge.
    pub fn bits(&self, node_bits: u64, port_bits: u64) -> u64 {
        node_bits + self.lights.len() as u64 * (node_bits + port_bits)
    }
}

/// The per-node table reads of heavy-path port routing: a node's local
/// index and its router record. `&PortTreeRouter` and the scale-free
/// labeled plane implement it; [`Self::next_hop`] and [`Self::route`]
/// are the one procedure over both.
pub trait PortTable: Copy {
    /// Local index of graph node `v`.
    fn local(self, v: NodeId) -> u32;

    /// DFS number of local index `u`.
    fn dfs_of(self, u: u32) -> u32;

    /// DFS interval `[lo, hi]` of the subtree at local index `u`.
    fn interval_of(self, u: u32) -> (u32, u32);

    /// Graph node of local index `u`'s parent (the root is its own
    /// parent).
    fn parent_node(self, u: u32) -> NodeId;

    /// Heavy child of local index `u` as `(graph node, DFS interval)`, or
    /// `None` for a leaf.
    fn heavy_child(self, u: u32) -> Option<(NodeId, (u32, u32))>;

    /// The port field width in bits (`⌈log₂ max-degree⌉`).
    fn port_bits(self) -> u64;

    /// Next hop from `from` toward `target`, or `None` on arrival. The
    /// decision uses the node's constant-size table, the label in the
    /// header, and the node's own physical link list (free).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not in the tree or a port is out of range.
    fn next_hop(self, g: &Graph, from: NodeId, target: &PortLabel) -> Option<NodeId> {
        let u = self.local(from);
        let my = self.dfs_of(u);
        if my == target.dfs {
            return None;
        }
        let (lo, hi) = self.interval_of(u);
        if target.dfs < lo || target.dfs > hi {
            return Some(self.parent_node(u));
        }
        if let Some((h, (hlo, hhi))) = self.heavy_child(u) {
            if hlo <= target.dfs && target.dfs <= hhi {
                return Some(h);
            }
        }
        for &(x_dfs, port) in &target.lights {
            if x_dfs == my {
                return Some(g.neighbors(from)[port as usize].node);
            }
        }
        unreachable!("light trail must name the branching port")
    }

    /// Full route from `from` to the labeled node (graph nodes,
    /// inclusive).
    fn route(self, g: &Graph, from: NodeId, target: &PortLabel) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(next) = self.next_hop(g, cur, target) {
            path.push(next);
            cur = next;
        }
        path
    }
}

/// Port-based heavy-path router over a tree embedded in a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortTreeRouter {
    tree: Tree,
    dfs: Vec<u32>,
    interval: Vec<(u32, u32)>,
    heavy: Vec<u32>,
    labels: Vec<PortLabel>,
    /// `⌈log₂ max-degree⌉`, the port field width.
    port_bits: u64,
}

const NO_CHILD: u32 = u32::MAX;

impl PortTreeRouter {
    /// Builds the router, verifying every tree edge is a graph edge and
    /// computing ports as adjacency-list indices.
    ///
    /// # Errors
    ///
    /// Returns [`PortError::NotAGraphEdge`] if some tree edge is virtual.
    pub fn new(tree: Tree, g: &Graph) -> Result<Self, PortError> {
        let n = tree.len();
        // Verify embedding and precompute the port of each tree edge
        // (from parent towards child).
        let mut port_down = vec![0u32; n]; // port at parent(i) toward i
        for i in 0..n as u32 {
            let p = tree.parent(i);
            if p == i {
                continue;
            }
            let (pu, cu) = (tree.node(p), tree.node(i));
            let port = g
                .neighbors(pu)
                .binary_search_by_key(&cu, |nb| nb.node)
                .map_err(|_| PortError::NotAGraphEdge { child: cu, parent: pu })?;
            port_down[i as usize] = port as u32;
        }

        let mut heavy = vec![NO_CHILD; n];
        for u in 0..n as u32 {
            let mut best: Option<(u32, NodeId, u32)> = None;
            for &c in tree.children(u) {
                let sz = tree.subtree_size(c);
                let id = tree.node(c);
                let better = match best {
                    None => true,
                    Some((bs, bid, _)) => sz > bs || (sz == bs && id < bid),
                };
                if better {
                    best = Some((sz, id, c));
                }
            }
            if let Some((_, _, c)) = best {
                heavy[u as usize] = c;
            }
        }

        let mut dfs = vec![0u32; n];
        let mut interval = vec![(0u32, 0u32); n];
        let mut counter = 0u32;
        enum Frame {
            Enter(u32),
            Exit(u32),
        }
        let mut stack = vec![Frame::Enter(0)];
        while let Some(f) = stack.pop() {
            match f {
                Frame::Enter(u) => {
                    dfs[u as usize] = counter;
                    counter += 1;
                    stack.push(Frame::Exit(u));
                    let h = heavy[u as usize];
                    for &c in tree.children(u).iter().rev() {
                        if c != h {
                            stack.push(Frame::Enter(c));
                        }
                    }
                    if h != NO_CHILD {
                        stack.push(Frame::Enter(h));
                    }
                }
                Frame::Exit(u) => {
                    let mut hi = dfs[u as usize];
                    for &c in tree.children(u) {
                        hi = hi.max(interval[c as usize].1);
                    }
                    interval[u as usize] = (dfs[u as usize], hi);
                }
            }
        }

        let mut labels: Vec<PortLabel> = vec![PortLabel { dfs: 0, lights: Vec::new() }; n];
        let mut stack: Vec<(u32, Vec<(u32, u32)>)> = vec![(0, Vec::new())];
        while let Some((u, trail)) = stack.pop() {
            labels[u as usize] = PortLabel { dfs: dfs[u as usize], lights: trail.clone() };
            for &c in tree.children(u) {
                let mut t = trail.clone();
                if c != heavy[u as usize] {
                    t.push((dfs[u as usize], port_down[c as usize]));
                }
                stack.push((c, t));
            }
        }

        let max_deg = (0..n as u32).map(|i| g.degree(tree.node(i)) as u64).max().unwrap_or(1);
        let port_bits = netsim_bits(max_deg);

        Ok(PortTreeRouter { tree, dfs, interval, heavy, labels, port_bits })
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The label of graph node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the tree.
    pub fn label_of(&self, v: NodeId) -> &PortLabel {
        &self.labels[self.tree.local(v).expect("node in tree") as usize]
    }

    /// Heavy child (local index) of local index `i`, or `None` for a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn heavy_of(&self, i: u32) -> Option<u32> {
        let h = self.heavy[i as usize];
        (h != NO_CHILD).then_some(h)
    }

    /// Table bits per node: same seven node-sized fields as the id-based
    /// router (the port tables are the node's physical links, free).
    pub fn table_bits(&self, _v: NodeId, node_bits: u64) -> u64 {
        7 * node_bits
    }

    /// The largest label in bits.
    pub fn max_label_bits(&self, node_bits: u64) -> u64 {
        self.labels.iter().map(|l| l.bits(node_bits, self.port_bits)).max().unwrap_or(node_bits)
    }
}

impl PortTable for &PortTreeRouter {
    fn local(self, v: NodeId) -> u32 {
        self.tree.local(v).expect("node in tree")
    }

    fn dfs_of(self, u: u32) -> u32 {
        self.dfs[u as usize]
    }

    fn interval_of(self, u: u32) -> (u32, u32) {
        self.interval[u as usize]
    }

    fn parent_node(self, u: u32) -> NodeId {
        self.tree.node(self.tree.parent(u))
    }

    fn heavy_child(self, u: u32) -> Option<(NodeId, (u32, u32))> {
        self.heavy_of(u).map(|h| (self.tree.node(h), self.interval[h as usize]))
    }

    fn port_bits(self) -> u64 {
        self.port_bits
    }
}

fn netsim_bits(count: u64) -> u64 {
    if count <= 1 {
        1
    } else {
        doubling_metric::ceil_log2(count) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CompactTreeRouter;
    use doubling_metric::{gen, MetricSpace};

    /// A shortest-path tree of the whole graph rooted at `root` — every
    /// edge is a graph edge by construction.
    fn spt(m: &MetricSpace, root: NodeId) -> Tree {
        let edges = (0..m.n() as NodeId).filter(|&v| v != root).map(|v| {
            let p = m.apsp().parent(root, v);
            let w = m.graph().edge_weight(p, v).expect("tree edge is a graph edge");
            (v, p, w)
        });
        Tree::new(root, edges).expect("SPT is a tree")
    }

    #[test]
    fn routes_match_id_based_router() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let tree = spt(&m, 14);
        let pr = PortTreeRouter::new(tree.clone(), m.graph()).unwrap();
        let cr = CompactTreeRouter::new(tree);
        for a in 0..36u32 {
            for b in 0..36u32 {
                assert_eq!(
                    pr.route(m.graph(), a, pr.label_of(b)),
                    cr.route(a, cr.label_of(b)),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn port_labels_are_smaller() {
        // On a bounded-degree graph, ports are much narrower than ids.
        let m = MetricSpace::new(&gen::grid(10, 10));
        let tree = spt(&m, 0);
        let pr = PortTreeRouter::new(tree.clone(), m.graph()).unwrap();
        let cr = CompactTreeRouter::new(tree);
        let node_bits = 7; // ⌈log2 100⌉
        assert_eq!(pr.port_bits(), 2); // max degree 4
        assert!(
            pr.max_label_bits(node_bits) <= cr.max_label_bits(node_bits),
            "port labels {} vs id labels {}",
            pr.max_label_bits(node_bits),
            cr.max_label_bits(node_bits)
        );
    }

    #[test]
    fn rejects_virtual_trees() {
        let m = MetricSpace::new(&gen::path(5));
        // Tree edge (0, 4) is not a graph edge on a path.
        let t = Tree::new(4, vec![(0, 4, 4)]).unwrap();
        assert!(matches!(PortTreeRouter::new(t, m.graph()), Err(PortError::NotAGraphEdge { .. })));
    }

    #[test]
    fn routes_on_random_geometric_spt() {
        let m = MetricSpace::new(&gen::random_geometric(40, 260, 8));
        let tree = spt(&m, 3);
        let pr = PortTreeRouter::new(tree, m.graph()).unwrap();
        for a in 0..40u32 {
            for b in 0..40u32 {
                let route = pr.route(m.graph(), a, pr.label_of(b));
                assert_eq!(route, pr.tree().path(a, b));
            }
        }
    }

    #[test]
    fn table_bits_are_degree_independent() {
        let m = MetricSpace::new(&gen::spider(8, 3));
        let tree = spt(&m, 0);
        let pr = PortTreeRouter::new(tree, m.graph()).unwrap();
        assert_eq!(pr.table_bits(0, 5), pr.table_bits(7, 5));
    }
}
