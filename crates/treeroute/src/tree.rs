//! Rooted weighted trees over graph node ids.
//!
//! The trees the routing schemes build (Voronoi shortest-path trees
//! `T_c(j)`, search trees, local tail trees) live over subsets of the
//! graph's nodes; [`Tree`] numbers its members with dense local indices
//! (the root first, then the other members in ascending id order) and
//! validates tree-ness on construction. Since the members past the root
//! are sorted, a graph id's local index is found by binary search.

use std::fmt;

use doubling_metric::graph::{Dist, NodeId};

/// Errors from [`Tree::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A node had two parent edges.
    DuplicateChild {
        /// The node with two parents.
        child: NodeId,
    },
    /// The root appeared as a child.
    RootHasParent,
    /// Some node is not reachable from the root (cycle or disconnection).
    NotATree {
        /// Nodes reachable from the root.
        reachable: usize,
        /// Total nodes mentioned.
        total: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DuplicateChild { child } => {
                write!(f, "node {child} has more than one parent edge")
            }
            TreeError::RootHasParent => write!(f, "the root appears as a child"),
            TreeError::NotATree { reachable, total } => {
                write!(f, "edges do not form a tree: {reachable}/{total} nodes reachable")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted weighted tree over graph node ids.
///
/// # Examples
///
/// ```rust
/// use treeroute::Tree;
///
/// // child, parent, weight triples rooted at 10.
/// let t = Tree::new(10, vec![(20, 10, 1), (30, 10, 2), (40, 20, 3)]).unwrap();
/// assert_eq!(t.root(), 10);
/// assert_eq!(t.path(40, 30), vec![40, 20, 10, 30]);
/// assert_eq!(t.path_weight(40, 30), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// Local index → graph node id. Index 0 is the root.
    nodes: Vec<NodeId>,
    parent: Vec<u32>,
    /// Children in CSR form: the children of `i` are
    /// `child[child_off[i]..child_off[i + 1]]`, ascending.
    child_off: Vec<u32>,
    child: Vec<u32>,
    weight_up: Vec<Dist>,
    subtree_size: Vec<u32>,
}

impl Tree {
    /// Builds a tree from `(child, parent, weight)` edges rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns an error if a node has two parents, the root has a parent,
    /// or the edges do not form a single tree containing every mentioned
    /// node.
    pub fn new(
        root: NodeId,
        edges: impl IntoIterator<Item = (NodeId, NodeId, Dist)>,
    ) -> Result<Self, TreeError> {
        let edges: Vec<(NodeId, NodeId, Dist)> = edges.into_iter().collect();
        let mut mentioned: Vec<NodeId> = Vec::with_capacity(2 * edges.len() + 1);
        mentioned.push(root);
        for &(c, p, _) in &edges {
            mentioned.push(c);
            mentioned.push(p);
        }
        mentioned.sort_unstable();
        mentioned.dedup();

        // Local indexing: root first, then remaining nodes in id order (the
        // deterministic convention used throughout the workspace).
        let mut nodes = Vec::with_capacity(mentioned.len());
        nodes.push(root);
        nodes.extend(mentioned.into_iter().filter(|&x| x != root));

        // Edges are checked in input order, so the reported error is the
        // first one the input exhibits. `NO_PARENT` marks a node whose
        // parent edge has not been seen yet.
        const NO_PARENT: u32 = u32::MAX;
        let mut parent = vec![NO_PARENT; nodes.len()];
        let mut weight_up = vec![0 as Dist; nodes.len()];
        let mut child_off = vec![0u32; nodes.len() + 1];
        for &(c, p, w) in &edges {
            if c == root {
                return Err(TreeError::RootHasParent);
            }
            let cl = local_in(&nodes, c).expect("child mentioned");
            if parent[cl as usize] != NO_PARENT {
                return Err(TreeError::DuplicateChild { child: c });
            }
            let pl = local_in(&nodes, p).expect("parent mentioned");
            parent[cl as usize] = pl;
            weight_up[cl as usize] = w;
            child_off[pl as usize + 1] += 1;
        }
        parent[0] = 0;
        // Counting sort by parent: placing children in ascending local
        // order leaves every run sorted.
        for i in 1..child_off.len() {
            child_off[i] += child_off[i - 1];
        }
        let mut fill = child_off.clone();
        let mut child = vec![0u32; edges.len()];
        for (cl, &pl) in (0u32..).zip(&parent).skip(1) {
            if pl != NO_PARENT {
                child[fill[pl as usize] as usize] = cl;
                fill[pl as usize] += 1;
            }
        }
        let children =
            |u: u32| &child[child_off[u as usize] as usize..child_off[u as usize + 1] as usize];

        // Verify reachability (tree-ness) and compute subtree sizes.
        let mut size = vec![0u32; nodes.len()];
        let mut order = Vec::with_capacity(nodes.len());
        let mut stack = vec![0u32];
        let mut seen = vec![false; nodes.len()];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            for &c in children(u) {
                if seen[c as usize] {
                    return Err(TreeError::NotATree { reachable: order.len(), total: nodes.len() });
                }
                seen[c as usize] = true;
                stack.push(c);
            }
        }
        if order.len() != nodes.len() {
            return Err(TreeError::NotATree { reachable: order.len(), total: nodes.len() });
        }
        for &u in order.iter().rev() {
            size[u as usize] = 1 + children(u).iter().map(|&c| size[c as usize]).sum::<u32>();
        }

        Ok(Tree { nodes, parent, child_off, child, weight_up, subtree_size: size })
    }

    /// A single-node tree.
    pub fn singleton(root: NodeId) -> Self {
        Tree::new(root, std::iter::empty()).expect("singleton is a tree")
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single node. Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root's graph id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Graph id of local index `i`.
    #[inline]
    pub fn node(&self, i: u32) -> NodeId {
        self.nodes[i as usize]
    }

    /// Local index of graph node `x`, if present.
    #[inline]
    pub fn local(&self, x: NodeId) -> Option<u32> {
        local_in(&self.nodes, x)
    }

    /// Whether graph node `x` belongs to the tree.
    #[inline]
    pub fn contains(&self, x: NodeId) -> bool {
        self.local(x).is_some()
    }

    /// Parent local index (root maps to itself).
    #[inline]
    pub fn parent(&self, i: u32) -> u32 {
        self.parent[i as usize]
    }

    /// Children local indices, sorted by graph id.
    #[inline]
    pub fn children(&self, i: u32) -> &[u32] {
        &self.child[self.child_off[i as usize] as usize..self.child_off[i as usize + 1] as usize]
    }

    /// Weight of the edge from `i` to its parent (0 for the root).
    #[inline]
    pub fn weight_up(&self, i: u32) -> Dist {
        self.weight_up[i as usize]
    }

    /// Subtree size of `i`.
    #[inline]
    pub fn subtree_size(&self, i: u32) -> u32 {
        self.subtree_size[i as usize]
    }

    /// All graph ids in the tree (root first, then ascending).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The tree path between two members, as graph ids (inclusive).
    ///
    /// Used by tests as the ground truth the routers must match.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not in the tree.
    pub fn path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut ai = self.local(a).expect("a in tree");
        let mut bi = self.local(b).expect("b in tree");
        let depth = |mut x: u32| {
            let mut d = 0;
            while self.parent(x) != x {
                x = self.parent(x);
                d += 1;
            }
            d
        };
        let (mut da, mut db) = (depth(ai), depth(bi));
        let mut up_a = vec![ai];
        let mut up_b = vec![bi];
        while da > db {
            ai = self.parent(ai);
            up_a.push(ai);
            da -= 1;
        }
        while db > da {
            bi = self.parent(bi);
            up_b.push(bi);
            db -= 1;
        }
        while ai != bi {
            ai = self.parent(ai);
            bi = self.parent(bi);
            up_a.push(ai);
            up_b.push(bi);
        }
        up_b.pop();
        up_b.reverse();
        up_a.extend(up_b);
        up_a.into_iter().map(|i| self.node(i)).collect()
    }

    /// Total weight of the tree path between two members.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not in the tree.
    pub fn path_weight(&self, a: NodeId, b: NodeId) -> Dist {
        let p = self.path(a, b);
        let mut total = 0;
        for w in p.windows(2) {
            let (x, y) = (self.local(w[0]).unwrap(), self.local(w[1]).unwrap());
            total += if self.parent(x) == y { self.weight_up(x) } else { self.weight_up(y) };
        }
        total
    }
}

/// Local index of `x` in `nodes` (root first, then ascending ids): `0`
/// for the root, otherwise a binary search of the sorted tail.
#[inline]
fn local_in(nodes: &[NodeId], x: NodeId) -> Option<u32> {
    if x == nodes[0] {
        return Some(0);
    }
    nodes[1..].binary_search(&x).ok().map(|i| i as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small tree:        10
    ///                     /  \
    ///                    20    30
    ///                   /  \     \
    ///                  40   50    60
    fn sample() -> Tree {
        Tree::new(10, vec![(20, 10, 1), (30, 10, 2), (40, 20, 3), (50, 20, 4), (60, 30, 5)])
            .unwrap()
    }

    #[test]
    fn construction_and_queries() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.root(), 10);
        assert!(t.contains(40));
        assert!(!t.contains(99));
        let l20 = t.local(20).unwrap();
        assert_eq!(t.node(t.parent(l20)), 10);
        assert_eq!(t.weight_up(l20), 1);
        assert_eq!(t.subtree_size(0), 6);
        assert_eq!(t.subtree_size(l20), 3);
    }

    #[test]
    fn children_sorted_by_graph_id() {
        let t = sample();
        let ch: Vec<NodeId> = t.children(0).iter().map(|&c| t.node(c)).collect();
        assert_eq!(ch, vec![20, 30]);
    }

    #[test]
    fn paths_and_weights() {
        let t = sample();
        assert_eq!(t.path(40, 60), vec![40, 20, 10, 30, 60]);
        assert_eq!(t.path_weight(40, 60), 3 + 1 + 2 + 5);
        assert_eq!(t.path(40, 50), vec![40, 20, 50]);
        assert_eq!(t.path(10, 10), vec![10]);
        assert_eq!(t.path_weight(10, 10), 0);
    }

    #[test]
    fn rejects_duplicate_parent() {
        let err = Tree::new(0, vec![(1, 0, 1), (1, 2, 1), (2, 0, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 1 });
        // The child named is the one whose second edge comes first in
        // input order: here 3's, then 1's.
        let err = Tree::new(0, vec![(1, 0, 1), (3, 0, 1), (3, 1, 1), (1, 3, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 3 });
        let err = Tree::new(0, vec![(1, 0, 1), (3, 0, 1), (1, 3, 1), (3, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 1 });
        // A repeated identical edge and a self-loop after a real edge both
        // count as a second parent.
        let err = Tree::new(0, vec![(2, 0, 1), (2, 0, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 2 });
        let err = Tree::new(0, vec![(2, 0, 1), (2, 2, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 2 });
    }

    #[test]
    fn local_and_contains_with_the_root_amid_the_ids() {
        // Root 30 sits in the middle of the id range: local 0, members
        // below and above it take 1.. in ascending id order.
        let t = Tree::new(30, vec![(10, 30, 1), (50, 30, 1), (20, 10, 1), (40, 50, 1)]).unwrap();
        assert_eq!(t.nodes(), &[30, 10, 20, 40, 50]);
        assert_eq!(t.local(30), Some(0));
        for (i, &x) in t.nodes().iter().enumerate() {
            assert_eq!(t.local(x), Some(i as u32));
            assert_eq!(t.node(i as u32), x);
            assert!(t.contains(x));
        }
        for x in [0, 15, 29, 31, 45, 51, NodeId::MAX] {
            assert_eq!(t.local(x), None, "{x} is not a member");
            assert!(!t.contains(x));
        }
        let single = Tree::singleton(7);
        assert_eq!(single.local(7), Some(0));
        assert!(!single.contains(6) && !single.contains(8));
    }

    #[test]
    fn rejects_root_as_child() {
        let err = Tree::new(0, vec![(0, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent);
        // The first offending edge decides between the two errors.
        let err = Tree::new(0, vec![(1, 0, 1), (0, 1, 1), (1, 2, 1)]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent);
        let err = Tree::new(0, vec![(1, 0, 1), (1, 2, 1), (0, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 1 });
    }

    #[test]
    fn rejects_cycle() {
        // 1 -> 2 -> 3 -> 1 plus root 0 disconnected from the cycle.
        let err = Tree::new(0, vec![(1, 2, 1), (2, 3, 1), (3, 1, 1)]).unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }));
        // 2 hangs off 3, which has no parent edge: only 0 and 1 are reachable.
        let err = Tree::new(0, vec![(1, 0, 1), (2, 3, 1)]).unwrap_err();
        assert_eq!(err, TreeError::NotATree { reachable: 2, total: 4 });
        // A self-loop is a node whose only parent is itself.
        let err = Tree::new(0, vec![(1, 0, 1), (2, 2, 1)]).unwrap_err();
        assert_eq!(err, TreeError::NotATree { reachable: 2, total: 3 });
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::singleton(7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), 7);
        assert_eq!(t.path(7, 7), vec![7]);
        assert!(!t.is_empty());
    }
}
