//! Search trees over metric balls (Section 3.1.1 and Definition 4.2 of the
//! paper).
//!
//! A *search tree* `T(c, r)` over a ball `B_c(r)` (Definition 3.2) layers
//! the ball into nets of geometrically shrinking radius: `U_0 = {c}` and
//! `U_i` is a net of radius `≈ εr/2^i` of the ball minus all earlier
//! layers; each `v ∈ U_i` hangs off its nearest node in `U_{i−1}`. The
//! root-to-leaf cost is at most `(1+O(ε))·r` (Eqn. (3)) and the maximum
//! degree is `(1/ε)^{O(α)}` by Lemma 2.2.
//!
//! `(key, data)` pairs are distributed over the tree by a DFS traversal
//! (**Algorithm 1**: `⌈k/m⌉` pairs per node in sorted key order) and
//! retrieved by a root-to-holder descent that reports back to the root
//! (**Algorithm 2**), costing at most `2(1+O(ε))·r`.
//!
//! *Search tree II* `T'(c, r)` (Definition 4.2) truncates the layering at
//! `⌈log n⌉` levels — necessary when `ε·r` is super-polynomial in `n`,
//! i.e. in the scale-free regime — and links the leftover nodes into
//! per-Voronoi tail paths whose edges cost `O(εr/n)` each (Lemma 4.3).
//! Pass [`SearchTreeConfig::max_levels`] to select this variant.
//!
//! The tree is *virtual*: its edges are generally not graph edges.
//! [`SearchTree::search`] returns the walk as a sequence of tree nodes; the
//! calling scheme executes each virtual hop with its underlying routing
//! machinery (shortest-path next hops or an underlying labeled scheme) and
//! charges the true cost.

#![warn(missing_docs)]

pub mod packed;

pub use packed::{
    PackedSearchTree, PackedTree, PackedTreeWidths, PayloadCodec, PortLabelCodec, U32Codec,
};

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::space::MetricSpace;
use treeroute::Tree;

/// Construction parameters for a [`SearchTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchTreeConfig {
    /// `⌊ε·r⌋` in metric units: the top net radius of the layering.
    pub eps_r: Dist,
    /// Maximum number of net levels (Definition 4.2's `⌈log n⌉` cap), or
    /// `None` for the unbounded Definition 3.2 tree.
    pub max_levels: Option<u32>,
}

/// The outcome of one Algorithm-2 lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchWalk<D> {
    /// The tree nodes visited, starting and ending at the center (descent
    /// followed by the reversed ascent).
    pub nodes: Vec<NodeId>,
    /// The retrieved data, or `None` if no pair with the key exists.
    pub result: Option<D>,
    /// Deepest tree level (edges below the root) the lookup descended to —
    /// the per-lookup depth statistic the observability layer aggregates.
    pub depth: usize,
}

/// The per-node table reads of an Algorithm 2 lookup. `&SearchTree` and
/// [`PackedTree`] implement it; [`Self::search`] is the one walk over
/// both.
pub trait SearchTable: Copy {
    /// The stored payload type.
    type Item;

    /// Scans the node at local index `u`: the payload stored under `key`
    /// (if any) and the first child, as a local index, whose subtree key
    /// range contains `key` (if any).
    fn scan(self, u: u32, key: u64) -> (Option<Self::Item>, Option<u32>);

    /// The graph node at local index `u` (`0` is the root).
    fn node(self, u: u32) -> NodeId;

    /// Algorithm 2: descend from the root while the current node misses
    /// and a child range covers `key`, then report back to the root.
    fn search(self, key: u64) -> SearchWalk<Self::Item> {
        let mut down: Vec<u32> = vec![0];
        let result = loop {
            match self.scan(*down.last().expect("root"), key) {
                (Some(data), _) => break Some(data),
                (None, Some(c)) => down.push(c),
                (None, None) => break None,
            }
        };
        let mut nodes: Vec<NodeId> = down.iter().map(|&u| self.node(u)).collect();
        for i in (0..down.len() - 1).rev() {
            nodes.push(nodes[i]);
        }
        SearchWalk { nodes, result, depth: down.len() - 1 }
    }
}

/// A search tree over a ball, with stored `(key, data)` pairs.
///
/// Type parameter `D` is the stored payload (a routing label of the
/// underlying scheme, in both of the paper's uses).
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, MetricSpace};
/// use searchtree::{SearchTree, SearchTreeConfig};
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let ball: Vec<u32> = m.ball(12, 3).iter().map(|&(_, x)| x).collect();
/// let pairs: Vec<(u64, u32)> = ball.iter().map(|&x| (x as u64, x)).collect();
/// let st = SearchTree::new(
///     &m,
///     12,
///     &ball,
///     SearchTreeConfig { eps_r: 1, max_levels: None },
///     pairs,
/// );
/// let walk = st.search(14);
/// assert_eq!(walk.result, Some(14));          // found the datum
/// assert_eq!(*walk.nodes.last().unwrap(), 12); // and reported back to the root
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchTree<D> {
    center: NodeId,
    tree: Tree,
    /// Net level per local index (`0` for the root; tails get
    /// `levels + 1` where `levels` is the last net level).
    level_of: Vec<u32>,
    /// Number of net levels actually used (excluding tails).
    levels: u32,
    /// Whether Definition 4.2 tails were attached.
    has_tails: bool,
    /// Stored pairs in CSR form: local index `u` holds
    /// `pairs[pair_off[u]..pair_off[u + 1]]`, in ascending key order.
    pair_off: Vec<u32>,
    pairs: Vec<(u64, D)>,
    /// Min/max stored key in each local subtree, [`EMPTY_RANGE`] if the
    /// subtree stores nothing.
    subtree_range: Vec<(u64, u64)>,
    /// Lemma 4.3 relay accounting: for every *graph* node lying strictly
    /// inside the shortest path realizing a virtual tree edge, the number
    /// of next-hop entries it must store (two directions per edge it
    /// relays). Sorted by graph node id.
    relay_entries: Vec<(NodeId, u32)>,
}

/// The key range of a subtree that stores no pairs: `lo > hi`, so it
/// covers no key and is the identity of the min/max merge.
const EMPTY_RANGE: (u64, u64) = (u64::MAX, 0);

impl<D: Clone> SearchTree<D> {
    /// Builds the search tree over `ball` (which must contain `center`)
    /// and distributes `pairs` per Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `ball` does not contain `center` or contains duplicates.
    pub fn new(
        m: &MetricSpace,
        center: NodeId,
        ball: &[NodeId],
        config: SearchTreeConfig,
        pairs: Vec<(u64, D)>,
    ) -> Self {
        assert!(ball.contains(&center), "ball must contain its center");
        let mut remaining = ball.to_vec();
        remaining.sort_unstable();
        let before = remaining.len();
        remaining.dedup();
        assert_eq!(before, remaining.len(), "ball must not contain duplicates");
        remaining.retain(|&x| x != center);

        // Per-graph-node scratch: `level[x]` is the net level `x` joined
        // (`NONE` if not yet placed); `marked[x] == i` means `x` lies within
        // `ρ_i − 1` of a level-`i` net point.
        const NONE: u32 = u32::MAX;
        let mut level = vec![NONE; m.n()];
        let mut marked = vec![0u32; m.n()];
        level[center as usize] = 0;

        // --- Layering (Definition 3.2 / 4.2). ---
        let mut edges: Vec<(NodeId, NodeId, Dist)> = Vec::new();
        // The last net level built (`U_0 = {center}` to start).
        let mut sites: Vec<NodeId> = vec![center];

        let cap = config.max_levels.unwrap_or(u32::MAX);
        let mut i: u32 = 1;
        while !remaining.is_empty() && i <= cap {
            let rho = if i >= 64 { 0 } else { config.eps_r >> i };
            // Greedy rho-net of `remaining` in id order: `x` joins unless an
            // earlier net point lies strictly within rho, i.e. within
            // `rho − 1` (distances are integers), which is exactly what the
            // ball marks record. With rho == 0 everything joins.
            let mut net: Vec<NodeId> = Vec::new();
            let mut rest: Vec<NodeId> = Vec::new();
            for &x in &remaining {
                if marked[x as usize] == i {
                    rest.push(x);
                    continue;
                }
                net.push(x);
                if rho > 0 {
                    for &(_, y) in m.ball(x, rho - 1) {
                        marked[y as usize] = i;
                    }
                }
            }
            // Everything not selected but within rho of the net stays for
            // later levels — the net covers them; they are *not* members.
            // Parents: the nearest previous-level point, least id on ties —
            // the first one in the `(dist, id)`-sorted row. Covering keeps
            // the scan inside `B(v, ρ_{i−1})`.
            for &v in &net {
                let p = if i == 1 { center } else { first_at_level(m, v, &level, i - 1) };
                edges.push((v, p, m.dist(v, p)));
                level[v as usize] = i;
            }
            sites = net;
            remaining = rest;
            i += 1;
        }
        let levels = i - 1;

        // --- Definition 4.2 tails for leftovers. ---
        let has_tails = !remaining.is_empty();
        if has_tails {
            assert!(!sites.is_empty(), "tails require a nonempty last net level");
            // Voronoi assignment of leftovers to last-level sites (sites are
            // in id order, so a site's index is a binary search away).
            let mut tail_members: Vec<Vec<NodeId>> = vec![Vec::new(); sites.len()];
            for &x in &remaining {
                let u = first_at_level(m, x, &level, levels);
                let k = sites.binary_search(&u).expect("site found");
                tail_members[k].push(x);
            }
            for (k, members) in tail_members.iter().enumerate() {
                let mut prev = sites[k];
                for &x in members {
                    // members are in id order (remaining was sorted).
                    edges.push((x, prev, m.dist(x, prev)));
                    level[x as usize] = levels + 1;
                    prev = x;
                }
            }
        }

        // Lemma 4.3: each virtual edge (u, v) is realized by the shortest
        // path between its endpoints, whose interior nodes store next-hop
        // entries in both directions. Tally those entries per graph node by
        // walking the parent's shortest-path tree up from the child.
        let apsp = m.apsp();
        let mut count = vec![0u32; m.n()];
        let mut relays: Vec<NodeId> = Vec::new();
        for &(child, parent, _) in &edges {
            let mut x = apsp.parent(parent, child);
            while x != parent {
                if count[x as usize] == 0 {
                    relays.push(x);
                }
                count[x as usize] += 2;
                x = apsp.parent(parent, x);
            }
        }
        relays.sort_unstable();
        let relay_entries: Vec<(NodeId, u32)> =
            relays.into_iter().map(|x| (x, count[x as usize])).collect();

        let tree = Tree::new(center, edges).expect("layering forms a tree");
        debug_assert_eq!(tree.len(), ball.len(), "every ball member is placed");

        let level_of: Vec<u32> = tree.nodes().iter().map(|&x| level[x as usize]).collect();

        let mut st = SearchTree {
            center,
            tree,
            level_of,
            levels,
            has_tails,
            pair_off: Vec::new(),
            pairs: Vec::new(),
            subtree_range: Vec::new(),
            relay_entries,
        };
        st.store(pairs);
        st
    }

    /// Algorithm 1: distribute the pairs over the tree in DFS order,
    /// `⌈k/m⌉` per node, and record subtree key ranges.
    fn store(&mut self, mut items: Vec<(u64, D)>) {
        items.sort_by_key(|&(k, _)| k);
        let m = self.tree.len();
        let k = items.len();
        let per_node = if k == 0 { 0 } else { k.div_ceil(m) };
        assert!(u32::try_from(k).is_ok(), "pair count must fit the u32 offsets");

        // The node at DFS position `i` takes the sorted items
        // `i·per_node..(i+1)·per_node` (fewer at the end); the flat store
        // keeps each node's run at its local index.
        let order = self.dfs_order();
        let mut pair_off = vec![0u32; m + 1];
        for (i, &u) in order.iter().enumerate() {
            pair_off[u as usize + 1] = per_node.min(k.saturating_sub(i * per_node)) as u32;
        }
        for u in 0..m {
            pair_off[u + 1] += pair_off[u];
        }
        // Move each item to its slot by following the permutation's
        // cycles: every swap puts one item in place.
        let mut dest: Vec<u32> = (0..k)
            .map(|i| pair_off[order[i / per_node] as usize] + (i % per_node) as u32)
            .collect();
        for i in 0..k {
            while dest[i] as usize != i {
                let d = dest[i] as usize;
                items.swap(i, d);
                dest.swap(i, d);
            }
        }
        // Callers collect pairs through filters, which leaves spare
        // capacity that the tree would otherwise keep for its lifetime.
        items.shrink_to_fit();

        // Subtree ranges bottom-up (children appear after parents in
        // `order`, so reverse iteration is a valid bottom-up order).
        let mut range = vec![EMPTY_RANGE; m];
        for &u in order.iter().rev() {
            let own = &items[pair_off[u as usize] as usize..pair_off[u as usize + 1] as usize];
            let (mut lo, mut hi) = match (own.first(), own.last()) {
                (Some(&(first, _)), Some(&(last, _))) => (first, last),
                _ => EMPTY_RANGE,
            };
            for &c in self.tree.children(u) {
                let (clo, chi) = range[c as usize];
                lo = lo.min(clo);
                hi = hi.max(chi);
            }
            range[u as usize] = (lo, hi);
        }

        self.pair_off = pair_off;
        self.pairs = items;
        self.subtree_range = range;
    }

    /// The pairs stored at local index `u`.
    #[inline]
    pub(crate) fn pairs_local(&self, u: u32) -> &[(u64, D)] {
        &self.pairs[self.pair_off[u as usize] as usize..self.pair_off[u as usize + 1] as usize]
    }

    /// Whether the key range of the subtree at local index `u` contains
    /// `key` (never for a subtree that stores nothing).
    #[inline]
    fn covers(&self, u: u32, key: u64) -> bool {
        let (lo, hi) = self.subtree_range[u as usize];
        lo <= key && key <= hi
    }

    /// Pre-order DFS over local indices, children in graph-id order — the
    /// traversal Algorithm 1 distributes pairs along.
    fn dfs_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.tree.len());
        let mut stack = vec![0u32];
        while let Some(u) = stack.pop() {
            order.push(u);
            for &c in self.tree.children(u).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Algorithm 2 over the owned tables: [`SearchTable::search`].
    pub fn search(&self, key: u64) -> SearchWalk<D> {
        SearchTable::search(self, key)
    }

    /// Inserts a `(key, data)` pair after construction (mobility support:
    /// a tracked object arriving in this tree's ball). The pair is stored
    /// at the root and the root's range is widened; lookups that may run
    /// after mutations should use [`Self::search_all`]. Costs O(pairs):
    /// every later run of the flat store shifts by one.
    pub fn insert_pair(&mut self, key: u64, data: D) {
        assert!(self.pairs.len() < u32::MAX as usize, "pair count must fit the u32 offsets");
        let idx = self.pairs_local(0).partition_point(|&(k, _)| k < key);
        self.pairs.insert(idx, (key, data));
        for off in &mut self.pair_off[1..] {
            *off += 1;
        }
        let (lo, hi) = self.subtree_range[0];
        self.subtree_range[0] = (lo.min(key), hi.max(key));
    }

    /// Removes one pair with `key` (mobility support: the object left).
    /// Ranges are left conservative (they may over-approximate after
    /// removals), which [`Self::search_all`]'s backtracking tolerates.
    /// Costs O(pairs), like [`Self::insert_pair`].
    ///
    /// Returns the removed data, or `None` if the key is absent.
    pub fn remove_pair(&mut self, key: u64) -> Option<D> {
        // Backtracking DFS over range-matching subtrees.
        let mut stack = vec![0u32];
        while let Some(u) = stack.pop() {
            if let Ok(idx) = self.pairs_local(u).binary_search_by_key(&key, |&(k, _)| k) {
                let at = self.pair_off[u as usize] as usize + idx;
                for off in &mut self.pair_off[u as usize + 1..] {
                    *off -= 1;
                }
                return Some(self.pairs.remove(at).1);
            }
            stack.extend(self.tree.children(u).iter().filter(|&&c| self.covers(c, key)));
        }
        None
    }

    /// Wholesale pair refresh over the **existing** tree skeleton: rebuilds
    /// the Algorithm 1 distribution and subtree ranges from `items` exactly
    /// as construction would. A tree refreshed with some pair set is
    /// byte-identical to one freshly built over the same skeleton with that
    /// pair set, which is what incremental table repair relies on when only
    /// keys/data changed (e.g. relabeled destinations) but the metric ball
    /// the tree spans did not.
    pub fn refresh_pairs(&mut self, items: Vec<(u64, D)>) {
        self.store(items);
    }

    /// Replaces every stored payload with `f(key)` in place. Keys, their
    /// Algorithm 1 distribution and the subtree ranges stay as they are,
    /// so the result equals [`Self::refresh_pairs`] with the same keys
    /// paired with the new payloads, without re-sorting or re-allocating.
    /// Incremental repair uses it for trees whose ball is untouched but
    /// whose destinations were relabeled.
    pub fn relabel(&mut self, mut f: impl FnMut(u64) -> D) {
        for (key, data) in &mut self.pairs {
            *data = f(*key);
        }
    }

    /// Calls `f(v, bits)` once for every graph node this tree charges
    /// table bits to: each member with its [`Self::storage_bits`], then
    /// each non-member relay with its [`Self::relay_bits`]. Summing these
    /// over a scheme's trees gives its per-node search-tree share; taking
    /// one tree's calls back out removes exactly that tree's share.
    pub fn for_each_share(
        &self,
        node_bits: u64,
        key_bits: u64,
        data_bits: impl Fn(&D) -> u64,
        mut f: impl FnMut(NodeId, u64),
    ) {
        for (u, &v) in (0u32..).zip(self.tree.nodes()) {
            f(v, self.storage_bits_at(u, node_bits, key_bits, &data_bits));
        }
        for &(v, entries) in &self.relay_entries {
            if !self.tree.contains(v) {
                f(v, entries as u64 * node_bits);
            }
        }
    }

    /// Backtracking variant of [`Self::search`]: explores *every* subtree
    /// whose (possibly conservative) range contains the key, so it stays
    /// correct after [`Self::remove_pair`] mutations. On unmutated trees
    /// it visits the same single path as `search`.
    pub fn search_all(&self, key: u64) -> SearchWalk<D> {
        let mut nodes: Vec<NodeId> = vec![self.tree.node(0)];
        let mut result = None;
        let mut max_depth = 0usize;
        // Recursive DFS recording down-and-up movement.
        #[allow(clippy::too_many_arguments)]
        fn dfs<D: Clone>(
            st: &SearchTree<D>,
            u: u32,
            depth: usize,
            key: u64,
            nodes: &mut Vec<NodeId>,
            result: &mut Option<D>,
            max_depth: &mut usize,
        ) {
            if result.is_some() {
                return;
            }
            *max_depth = (*max_depth).max(depth);
            let pairs = st.pairs_local(u);
            if let Ok(idx) = pairs.binary_search_by_key(&key, |&(k, _)| k) {
                *result = Some(pairs[idx].1.clone());
                return;
            }
            for &c in st.tree.children(u) {
                if result.is_some() {
                    return;
                }
                if st.covers(c, key) {
                    nodes.push(st.tree.node(c));
                    dfs(st, c, depth + 1, key, nodes, result, max_depth);
                    if result.is_some() {
                        return;
                    }
                    nodes.push(st.tree.node(u)); // backtrack
                }
            }
        }
        dfs(self, 0, 0, key, &mut nodes, &mut result, &mut max_depth);
        // Return to the root along the remaining spine.
        if let Some(&last) = nodes.last() {
            if last != self.center {
                let mut cur = self.tree.local(last).expect("member");
                while self.tree.parent(cur) != cur {
                    cur = self.tree.parent(cur);
                    nodes.push(self.tree.node(cur));
                }
            }
        }
        SearchWalk { nodes, result, depth: max_depth }
    }

    /// The ball center (tree root).
    #[inline]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The underlying virtual tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Number of net levels used (excluding the root level and tails).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Whether Definition 4.2 tails were attached.
    #[inline]
    pub fn has_tails(&self) -> bool {
        self.has_tails
    }

    /// The net level of a member (tails report `levels() + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn level_of(&self, v: NodeId) -> u32 {
        self.level_of[self.tree.local(v).expect("member") as usize]
    }

    /// Whether `v` is a member of this tree.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.tree.contains(v)
    }

    /// The pairs stored at member `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn pairs_at(&self, v: NodeId) -> &[(u64, D)] {
        self.pairs_local(self.tree.local(v).expect("member"))
    }

    /// The key range covered by the subtree rooted at local index `local`
    /// (`None` when the subtree stores no pairs) — the interval the
    /// Algorithm 2 descent tests. Exposed so the plane compiler can pack
    /// the exact ranges the search uses.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn subtree_range_of(&self, local: u32) -> Option<(u64, u64)> {
        let (lo, hi) = self.subtree_range[local as usize];
        (lo <= hi).then_some((lo, hi))
    }

    /// Maximum number of children of any tree node (the paper bounds this
    /// by `(1/ε)^{O(α)}` via Lemma 2.2).
    pub fn max_degree(&self) -> usize {
        (0..self.tree.len() as u32).map(|u| self.tree.children(u).len()).max().unwrap_or(0)
    }

    /// Exact tree-path cost from the root to `v` (sum of virtual edge
    /// weights — each the true metric distance between its endpoints).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn depth_cost(&self, v: NodeId) -> Dist {
        let mut u = self.tree.local(v).expect("member");
        let mut total = 0;
        while self.tree.parent(u) != u {
            total += self.tree.weight_up(u);
            u = self.tree.parent(u);
        }
        total
    }

    /// The maximum [`Self::depth_cost`] over all members — the height that
    /// Eqn. (3) bounds by `(1+O(ε))·r`.
    pub fn height(&self) -> Dist {
        self.tree.nodes().iter().map(|&v| self.depth_cost(v)).max().unwrap_or(0)
    }

    /// Serialized table bits a member contributes, given field widths and a
    /// per-datum size function: own range + per-child `(link, range)` +
    /// parent link + stored pairs + the node's Lemma 4.3 relay entries.
    pub fn storage_bits(
        &self,
        v: NodeId,
        node_bits: u64,
        key_bits: u64,
        data_bits: impl Fn(&D) -> u64,
    ) -> u64 {
        let u = self.tree.local(v).expect("member");
        self.storage_bits_at(u, node_bits, key_bits, data_bits)
    }

    /// [`Self::storage_bits`] of the member at local index `u`.
    fn storage_bits_at(
        &self,
        u: u32,
        node_bits: u64,
        key_bits: u64,
        data_bits: impl Fn(&D) -> u64,
    ) -> u64 {
        let deg = self.tree.children(u).len() as u64;
        let ranges = 2 * key_bits * (deg + 1);
        let links = node_bits * (deg + 1);
        let stored: u64 = self.pairs_local(u).iter().map(|(_, d)| key_bits + data_bits(d)).sum();
        ranges + links + stored + self.relay_bits(self.tree.node(u), node_bits)
    }

    /// Lemma 4.3 relay bits stored at graph node `v` for this tree's
    /// virtual edges (next-hop entries for every edge whose realizing
    /// shortest path passes strictly through `v`). Defined for *any* graph
    /// node, member or not.
    pub fn relay_bits(&self, v: NodeId, node_bits: u64) -> u64 {
        self.relay_entries
            .binary_search_by_key(&v, |&(x, _)| x)
            .map_or(0, |idx| self.relay_entries[idx].1 as u64)
            * node_bits
    }

    /// Graph nodes (with entry counts) that relay this tree's virtual
    /// edges without being members, in ascending id order.
    pub fn relay_nodes(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.relay_entries.iter().map(|&(x, entries)| (x, entries as u64))
    }
}

impl<D: Clone> SearchTable for &SearchTree<D> {
    type Item = D;

    fn scan(self, u: u32, key: u64) -> (Option<D>, Option<u32>) {
        let pairs = self.pairs_local(u);
        let hit = pairs.binary_search_by_key(&key, |&(k, _)| k).ok().map(|i| pairs[i].1.clone());
        let descend = self.tree.children(u).iter().copied().find(|&c| self.covers(c, key));
        (hit, descend)
    }

    fn node(self, u: u32) -> NodeId {
        self.tree.node(u)
    }
}

/// The first node of `v`'s `(dist, id)`-sorted row placed at net level
/// `lv`: its nearest level-`lv` point, least id on ties.
fn first_at_level(m: &MetricSpace, v: NodeId, level: &[u32], lv: u32) -> NodeId {
    m.sorted_row(v)
        .iter()
        .map(|&(_, y)| y)
        .find(|&y| level[y as usize] == lv)
        .expect("net level is nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps, MetricSpace};

    fn ball_of(m: &MetricSpace, c: NodeId, r: Dist) -> Vec<NodeId> {
        m.ball(c, r).iter().map(|&(_, x)| x).collect()
    }

    fn make(m: &MetricSpace, c: NodeId, r: Dist, eps: Eps, cap: Option<u32>) -> SearchTree<u32> {
        let ball = ball_of(m, c, r);
        let pairs: Vec<(u64, u32)> = ball.iter().map(|&x| (x as u64 * 10, x)).collect();
        SearchTree::new(
            m,
            c,
            &ball,
            SearchTreeConfig { eps_r: eps.mul_floor(r), max_levels: cap },
            pairs,
        )
    }

    #[test]
    fn covers_ball_and_finds_everything() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let st = make(&m, 27, 6, Eps::one_over(2), None);
        assert_eq!(st.tree().len(), ball_of(&m, 27, 6).len());
        for &x in st.tree().nodes() {
            let walk = st.search(x as u64 * 10);
            assert_eq!(walk.result, Some(x), "lookup of {x} failed");
            assert_eq!(*walk.nodes.first().unwrap(), 27);
            assert_eq!(*walk.nodes.last().unwrap(), 27, "walk must report back to root");
        }
    }

    #[test]
    fn missing_keys_return_none() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let st = make(&m, 14, 5, Eps::one_over(2), None);
        for bad in [1u64, 7, 999_999] {
            let walk = st.search(bad);
            assert_eq!(walk.result, None);
            assert_eq!(*walk.nodes.last().unwrap(), 14);
        }
    }

    #[test]
    fn height_bound_eqn_3() {
        // Height ≤ (1 + O(ε))·r: with our εr/2^i radii the bound is r + εr.
        let m = MetricSpace::new(&gen::random_geometric(80, 230, 5));
        for &(c, frac) in &[(3u32, 2u64), (40, 4), (11, 8)] {
            let eps = Eps::one_over(frac);
            let r = m.diameter() / 2;
            let st = make(&m, c, r, eps, None);
            let bound = r + eps.mul_floor(r) + m.min_dist();
            assert!(st.height() <= bound, "height {} exceeds (1+ε)r bound {bound}", st.height());
        }
    }

    #[test]
    fn walk_cost_bounded_by_twice_height() {
        let m = MetricSpace::new(&gen::grid(7, 7));
        let st = make(&m, 24, 6, Eps::one_over(2), None);
        for &x in st.tree().nodes() {
            let walk = st.search(x as u64 * 10);
            let mut cost = 0;
            for w in walk.nodes.windows(2) {
                cost += m.dist(w[0], w[1]);
            }
            assert!(cost <= 2 * st.height());
        }
    }

    #[test]
    fn algorithm1_distributes_evenly() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let ball = ball_of(&m, 14, 4);
        let pairs: Vec<(u64, u32)> = (0..3 * ball.len() as u64).map(|k| (k, k as u32)).collect();
        let st =
            SearchTree::new(&m, 14, &ball, SearchTreeConfig { eps_r: 2, max_levels: None }, pairs);
        for &v in st.tree().nodes() {
            assert!(st.pairs_at(v).len() <= 3, "⌈k/m⌉ = 3 pairs per node");
        }
        for k in 0..3 * ball.len() as u64 {
            assert_eq!(st.search(k).result, Some(k as u32));
        }
    }

    #[test]
    fn def_4_2_cap_truncates_levels_and_attaches_tails() {
        // Huge eps_r forces many natural levels; a cap of 2 must truncate.
        let m = MetricSpace::new(&gen::exp_weight_path(32));
        let c = 0;
        let r = m.diameter();
        let ball = ball_of(&m, c, r);
        assert_eq!(ball.len(), 32);
        let pairs: Vec<(u64, u32)> = ball.iter().map(|&x| (x as u64, x)).collect();
        let capped = SearchTree::new(
            &m,
            c,
            &ball,
            SearchTreeConfig { eps_r: r / 2, max_levels: Some(2) },
            pairs.clone(),
        );
        assert!(capped.levels() <= 2);
        assert!(capped.has_tails(), "truncation must produce tails");
        // All lookups still succeed.
        for &x in &ball {
            assert_eq!(capped.search(x as u64).result, Some(x));
        }
        // Tail members are at level levels()+1.
        let tail_count =
            ball.iter().filter(|&&x| capped.level_of(x) == capped.levels() + 1).count();
        assert!(tail_count > 0);
    }

    #[test]
    fn uncapped_tree_has_no_tails() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let st = make(&m, 12, 4, Eps::one_over(2), None);
        assert!(!st.has_tails());
    }

    #[test]
    fn max_degree_grows_as_eps_shrinks() {
        // Degree is (1/ε)^{O(α)} (Lemma 2.2): smaller ε → coarser first
        // level relative to r → wider, shallower tree.
        let m = MetricSpace::new(&gen::grid(9, 9));
        let big = make(&m, 40, 8, Eps::new(3, 4).unwrap(), None);
        let small = make(&m, 40, 8, Eps::one_over(8), None);
        assert!(
            small.max_degree() >= big.max_degree(),
            "ε=1/8 degree {} vs ε=3/4 degree {}",
            small.max_degree(),
            big.max_degree()
        );
    }

    #[test]
    fn singleton_ball() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let st = SearchTree::new(
            &m,
            4,
            &[4],
            SearchTreeConfig { eps_r: 1, max_levels: None },
            vec![(99u64, 4u32)],
        );
        assert_eq!(st.search(99).result, Some(4));
        assert_eq!(st.search(99).nodes, vec![4]);
        assert_eq!(st.height(), 0);
    }

    #[test]
    fn storage_bits_accounting() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let st = make(&m, 5, 3, Eps::one_over(2), None);
        let total: u64 = st.tree().nodes().iter().map(|&v| st.storage_bits(v, 4, 8, |_| 4)).sum();
        assert!(total > 0);
        // Every member stores at least its own range + parent link.
        for &v in st.tree().nodes() {
            assert!(st.storage_bits(v, 4, 8, |_| 4) >= 2 * 8 + 4);
        }
    }

    #[test]
    fn duplicate_keys_first_match_wins() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let ball = ball_of(&m, 4, 2);
        let pairs = vec![(5u64, 100u32), (5, 100), (7, 200)];
        let st =
            SearchTree::new(&m, 4, &ball, SearchTreeConfig { eps_r: 1, max_levels: None }, pairs);
        assert_eq!(st.search(5).result, Some(100));
        assert_eq!(st.search(7).result, Some(200));
    }

    #[test]
    fn insert_remove_and_search_all_roundtrip() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let mut st = make(&m, 14, 5, Eps::one_over(2), None);
        // Insert a new key, find it, move it out, miss it.
        st.insert_pair(999_999, 42);
        assert_eq!(st.search_all(999_999).result, Some(42));
        assert_eq!(st.remove_pair(999_999), Some(42));
        assert_eq!(st.search_all(999_999).result, None);
        assert_eq!(st.remove_pair(999_999), None);
        // Original keys still retrievable by both lookups.
        for &x in st.tree().nodes() {
            assert_eq!(st.search(x as u64 * 10).result, Some(x));
            assert_eq!(st.search_all(x as u64 * 10).result, Some(x));
        }
    }

    #[test]
    fn search_all_matches_search_on_fresh_trees() {
        let m = MetricSpace::new(&gen::grid(7, 7));
        let st = make(&m, 24, 6, Eps::one_over(2), None);
        for &x in st.tree().nodes() {
            let a = st.search(x as u64 * 10);
            let b = st.search_all(x as u64 * 10);
            assert_eq!(a.result, b.result);
            assert_eq!(a.nodes, b.nodes, "walks must coincide on fresh trees");
            assert_eq!(a.depth, b.depth, "descent depths must coincide too");
        }
    }

    #[test]
    fn walk_depth_matches_descent() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let st = make(&m, 27, 6, Eps::one_over(2), None);
        let mut some_deep = false;
        for &x in st.tree().nodes() {
            let w = st.search(x as u64 * 10);
            // depth edges down + depth edges back = whole walk.
            assert_eq!(w.nodes.len(), 2 * w.depth + 1);
            assert!(w.depth <= (st.levels() + 1) as usize);
            some_deep |= w.depth > 0;
        }
        assert!(some_deep, "a multi-node tree must have non-root holders");
        // The root-stored key is found at depth 0.
        let singleton = SearchTree::new(
            &m,
            27,
            &[27],
            SearchTreeConfig { eps_r: 1, max_levels: None },
            vec![(1u64, 27u32)],
        );
        assert_eq!(singleton.search(1).depth, 0);
    }

    #[test]
    fn search_all_survives_removals_of_siblings() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let mut st = make(&m, 14, 5, Eps::one_over(2), None);
        // Remove a batch of keys; all remaining keys stay findable even
        // though ranges are now conservative.
        let all: Vec<u64> = st.tree().nodes().iter().map(|&x| x as u64 * 10).collect();
        for &k in &all[..all.len() / 2] {
            assert!(st.remove_pair(k).is_some());
        }
        for (i, &k) in all.iter().enumerate() {
            let expect = if i < all.len() / 2 { None } else { Some((k / 10) as u32) };
            assert_eq!(st.search_all(k).result, expect, "key {k}");
        }
    }

    #[test]
    fn search_all_walks_start_and_end_at_center() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let mut st = make(&m, 12, 4, Eps::one_over(2), None);
        st.remove_pair(0);
        for &x in st.tree().nodes() {
            let w = st.search_all(x as u64 * 10);
            assert_eq!(*w.nodes.first().unwrap(), 12);
            assert_eq!(*w.nodes.last().unwrap(), 12);
        }
        // A miss also returns to the center.
        let w = st.search_all(123_456);
        assert_eq!(*w.nodes.last().unwrap(), 12);
    }

    #[test]
    fn relabel_equals_refresh_with_new_payloads() {
        let m = MetricSpace::new(&gen::exp_weight_path(32));
        let ball = ball_of(&m, 0, m.diameter());
        let pairs: Vec<(u64, u32)> = ball.iter().map(|&x| (x as u64 * 7 + 3, x)).collect();
        let new_payload = |key: u64| (key as u32).wrapping_mul(31) ^ 0x5a5a;
        for cap in [None, Some(2)] {
            let config = SearchTreeConfig { eps_r: m.diameter() / 2, max_levels: cap };
            let mut relabeled = SearchTree::new(&m, 0, &ball, config, pairs.clone());
            assert_eq!(relabeled.has_tails(), cap.is_some(), "cap {cap:?}");
            let mut refreshed = relabeled.clone();
            relabeled.relabel(new_payload);
            refreshed.refresh_pairs(pairs.iter().map(|&(k, _)| (k, new_payload(k))).collect());
            assert_eq!(relabeled, refreshed, "cap {cap:?}");
            for &(k, _) in &pairs {
                assert_eq!(relabeled.search(k).result, Some(new_payload(k)), "cap {cap:?}");
            }
        }
    }

    #[test]
    fn shares_sum_storage_and_non_member_relays() {
        let m = MetricSpace::new(&gen::path(16));
        let st = make(&m, 3, 12, Eps::one_over(2), None);
        let mut shares = [0u64; 16];
        st.for_each_share(4, 8, |_| 4, |v, b| shares[v as usize] += b);
        for v in 0..16u32 {
            let expect =
                if st.contains(v) { st.storage_bits(v, 4, 8, |_| 4) } else { st.relay_bits(v, 4) };
            assert_eq!(shares[v as usize], expect, "node {v}");
        }
    }

    #[test]
    fn relay_accounting_covers_virtual_edges() {
        // On a path graph, a wide search tree's virtual edges pass through
        // interior nodes, which must each carry two next-hop entries per
        // relayed edge (Lemma 4.3).
        let m = MetricSpace::new(&gen::path(16));
        let st = make(&m, 0, 15, Eps::one_over(2), None);
        // Total relayed entries = 2 × Σ over virtual edges of interior
        // path length.
        let mut expected: u64 = 0;
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            let p = st.tree().parent(u);
            if p != u {
                let interior = m.path(st.tree().node(p), v).len().saturating_sub(2);
                expected += 2 * interior as u64;
            }
        }
        let total: u64 = (0..16u32).map(|v| st.relay_bits(v, 1)).sum();
        assert_eq!(total, expected);
        // Endpoints never count as their own relays.
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            if st.tree().parent(u) == u {
                continue;
            }
        }
    }

    #[test]
    fn relay_bits_zero_when_edges_are_graph_edges() {
        // On a complete-ish small ball where every virtual edge is a
        // direct graph edge, there are no interior relays.
        let m = MetricSpace::new(&gen::grid(2, 2));
        let st = make(&m, 0, 2, Eps::one_over(2), None);
        let total: u64 = (0..4u32).map(|v| st.relay_bits(v, 8)).sum();
        // Grid 2x2 ball of radius 2 = whole graph; virtual edges may hop
        // diagonally (distance 2, one interior node). Just check the
        // accounting is consistent with the tree structure.
        let mut expected = 0u64;
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            let p = st.tree().parent(u);
            if p != u {
                expected += 8 * 2 * (m.path(st.tree().node(p), v).len() as u64 - 2);
            }
        }
        assert_eq!(total, expected);
    }
}
