//! Immutable compressed-sparse-row (CSR) graph representation.
//!
//! All graphs in this workspace are simple, undirected, and unweighted at
//! this layer (weights live in [`crate::weighted`]). Nodes are dense
//! `0..n` indices ([`NodeId`]); every undirected edge has a stable
//! [`EdgeId`], and every *directed* occurrence of an edge (an adjacency
//! slot) has an [`ArcId`]. Arc identities matter for the Kogan–Parter
//! construction, where each endpoint samples its own direction of an edge
//! independently.

use std::fmt;

/// Dense node identifier in `0..n`.
pub type NodeId = u32;

/// Identifier of an undirected edge, indexing the canonical edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the raw index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of a directed adjacency slot (one direction of one edge).
///
/// Arc `a` lives in the CSR `neighbors` array; its *tail* is the node
/// whose adjacency list contains slot `a` and its *head* is
/// `neighbors[a]`. An undirected edge `{u, v}` owns exactly two arcs:
/// `u → v` and `v → u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub u32);

impl ArcId {
    /// Returns the raw index of this arc.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Error produced when constructing a [`Graph`] from invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The number of nodes the graph was declared with.
        n: usize,
    },
    /// A self-loop `{u, u}` was supplied.
    SelfLoop {
        /// The node with the loop.
        node: NodeId,
    },
    /// More than `u32::MAX / 2` edges were supplied.
    TooManyEdges,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::TooManyEdges => write!(f, "edge count exceeds u32 capacity"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable simple undirected graph in CSR form.
///
/// # Examples
///
/// ```
/// use lcs_graph::Graph;
///
/// // A triangle plus a pendant: 0-1, 1-2, 2-0, 2-3.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert!(g.has_edge(0, 2));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`arc_edges` for `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists; length `2m`.
    neighbors: Vec<NodeId>,
    /// For each adjacency slot, the undirected edge id; length `2m`.
    arc_edges: Vec<EdgeId>,
    /// Canonical edge list with endpoints `(u, v)`, `u < v`; length `m`.
    edges: Vec<(NodeId, NodeId)>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Duplicate edges (in either orientation) are collapsed. Endpoint
    /// order within each pair is irrelevant.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`,
    /// [`GraphError::SelfLoop`] on a loop, and
    /// [`GraphError::TooManyEdges`] if the deduplicated edge count
    /// exceeds `u32` capacity.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut canon: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            canon.push(if u < v { (u, v) } else { (v, u) });
        }
        canon.sort_unstable();
        canon.dedup();
        if canon.len() >= (u32::MAX / 2) as usize {
            return Err(GraphError::TooManyEdges);
        }
        Ok(Self::from_canonical_edges(n, canon))
    }

    /// Builds a graph from an already-canonical (sorted, deduplicated,
    /// `u < v`) edge list. Internal fast path.
    pub(crate) fn from_canonical_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut neighbors = vec![0 as NodeId; offsets[n] as usize];
        let mut arc_edges = vec![EdgeId(0); offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (e, &(u, v)) in edges.iter().enumerate() {
            let eid = EdgeId(e as u32);
            let cu = cursor[u as usize] as usize;
            neighbors[cu] = v;
            arc_edges[cu] = eid;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            neighbors[cv] = u;
            arc_edges[cv] = eid;
            cursor[v as usize] += 1;
        }
        // Filling in canonical (min, max) order sorts every list without
        // a sort: node v first receives its smaller neighbours (the edges
        // (u, v), u < v, ascending in u), then its larger ones (the edges
        // (v, w), all after them, ascending in w). `edge_between` binary
        // searches these lists.
        debug_assert!((0..n).all(|v| {
            let list = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            list.windows(2).all(|w| w[0] < w[1])
        }));
        Graph {
            offsets,
            neighbors,
            arc_edges,
            edges,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Number of arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Iterates `(neighbor, edge_id)` pairs of `v` in neighbor order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors_with_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.arc_edges[lo..hi].iter().copied())
    }

    /// Iterates the arcs whose tail is `v` as `(arc, head, edge_id)`.
    pub fn arcs_from(&self, v: NodeId) -> impl Iterator<Item = (ArcId, NodeId, EdgeId)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (lo..hi).map(move |a| (ArcId(a as u32), self.neighbors[a], self.arc_edges[a]))
    }

    /// The contiguous range of arc indices whose tail is `v` — `v`'s
    /// slice of the CSR arrays. O(1); this is the addressing primitive
    /// of the arc-indexed simulator mailboxes.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcs_graph::{ArcId, Graph};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// assert_eq!(g.arc_range(1), 1..3);
    /// for a in g.arc_range(1) {
    ///     assert_eq!(g.arc_tail(ArcId(a as u32)), 1);
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// The `i`-th neighbor of `v` (in sorted neighbor order). O(1).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcs_graph::Graph;
    ///
    /// let g = Graph::from_edges(4, &[(2, 0), (2, 1), (2, 3)]).unwrap();
    /// assert_eq!(g.nth_neighbor(2, 0), 0);
    /// assert_eq!(g.nth_neighbor(2, 2), 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `i >= degree(v)`.
    #[inline]
    pub fn nth_neighbor(&self, v: NodeId, i: usize) -> NodeId {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.neighbors[lo..hi][i]
    }

    /// Endpoints of edge `e` in canonical `(min, max)` order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// The canonical edge list, `(u, v)` with `u < v`, sorted.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Looks up the edge between `u` and `v`, if present.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u as usize >= self.n() || v as usize >= self.n() || u == v {
            return None;
        }
        // Search the smaller adjacency list; on tiny lists a linear scan
        // is branch-predictable and beats binary search.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let lo = self.offsets[a as usize] as usize;
        let hi = self.offsets[a as usize + 1] as usize;
        // Unconditional binary search on the sorted neighbor list:
        // O(log deg) even when both endpoints are hubs, where a linear
        // scan turns all-pairs hub queries quadratic.
        self.neighbors[lo..hi]
            .binary_search(&b)
            .ok()
            .map(|i| self.arc_edges[lo + i])
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Tail node of arc `a` (binary search over offsets).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn arc_tail(&self, a: ArcId) -> NodeId {
        debug_assert!(a.index() < self.num_arcs());
        // partition_point returns the first v with offsets[v] > a, so the
        // tail is that minus one.
        let v = self
            .offsets
            .partition_point(|&off| off as usize <= a.index());
        (v - 1) as NodeId
    }

    /// Head node of arc `a`. O(1).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcs_graph::{ArcId, Graph};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// // Node 1's arcs point at its sorted neighbors 0 and 2.
    /// let arcs: Vec<_> = g.arc_range(1).collect();
    /// assert_eq!(g.arc_head(ArcId(arcs[0] as u32)), 0);
    /// assert_eq!(g.arc_head(ArcId(arcs[1] as u32)), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn arc_head(&self, a: ArcId) -> NodeId {
        self.neighbors[a.index()]
    }

    /// Undirected edge underlying arc `a`. O(1) — an arc names its edge
    /// directly, which is what lets the simulator account per-edge
    /// traffic without an adjacency lookup.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcs_graph::{ArcId, Graph};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// for v in g.nodes() {
    ///     for a in g.arc_range(v) {
    ///         let e = g.arc_edge(ArcId(a as u32));
    ///         let (x, y) = g.edge_endpoints(e);
    ///         assert!(x == v || y == v);
    ///     }
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn arc_edge(&self, a: ArcId) -> EdgeId {
        self.arc_edges[a.index()]
    }

    /// Iterates all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n() as u32).map(|v| v as NodeId)
    }

    /// Iterates all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.m() as u32).map(EdgeId)
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Incremental builder for [`Graph`].
///
/// # Examples
///
/// ```
/// use lcs_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build().unwrap();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the builder was created with.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge; duplicates are tolerated and collapsed at
    /// [`GraphBuilder::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Extends with many edges.
    pub fn add_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> &mut Self {
        self.edges.extend(iter);
        self
    }

    /// Number of (possibly duplicated) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from [`Graph::from_edges`].
    pub fn build(&self) -> Result<Graph, GraphError> {
        Graph::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn single_node_no_edges() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn dedup_and_orientation() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 1)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, &[(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, &[(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 3, n: 3 });
    }

    #[test]
    fn degrees_and_neighbors_sorted() {
        let g = k4();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted adjacency");
            assert!(!ns.contains(&v));
        }
    }

    #[test]
    fn edge_between_consistency() {
        let g = k4();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            assert_eq!(g.edge_between(u, v), Some(e));
            assert_eq!(g.edge_between(v, u), Some(e));
        }
        assert_eq!(g.edge_between(0, 0), None);
        assert_eq!(g.edge_between(0, 99), None);
    }

    #[test]
    fn arcs_cover_both_directions() {
        let g = k4();
        assert_eq!(g.num_arcs(), 2 * g.m());
        let mut seen = std::collections::HashSet::new();
        for v in g.nodes() {
            for (a, head, e) in g.arcs_from(v) {
                assert_eq!(g.arc_tail(a), v);
                assert_eq!(g.arc_head(a), head);
                assert_eq!(g.arc_edge(a), e);
                let (x, y) = g.edge_endpoints(e);
                assert!((v, head) == (x, y) || (v, head) == (y, x));
                seen.insert((v, head));
            }
        }
        assert_eq!(seen.len(), g.num_arcs());
    }

    #[test]
    fn arc_tail_handles_isolated_nodes() {
        // Node 1 is isolated; offsets have a run of equal values.
        let g = Graph::from_edges(4, &[(0, 2), (2, 3)]).unwrap();
        for v in g.nodes() {
            for (a, _, _) in g.arcs_from(v) {
                assert_eq!(g.arc_tail(a), v);
            }
        }
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new(5);
        assert!(b.is_empty());
        b.add_edge(0, 1).add_edge(1, 2);
        b.add_edges([(2, 3), (3, 4)]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.n(), 5);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn arc_range_and_nth_neighbor_match_csr() {
        let g = k4();
        let mut covered = 0usize;
        for v in g.nodes() {
            let r = g.arc_range(v);
            assert_eq!(r.len(), g.degree(v));
            covered += r.len();
            for (i, a) in r.clone().enumerate() {
                assert_eq!(g.arc_head(ArcId(a as u32)), g.nth_neighbor(v, i));
                assert_eq!(g.arc_tail(ArcId(a as u32)), v);
            }
        }
        assert_eq!(covered, g.num_arcs());
    }

    #[test]
    fn edge_between_two_hubs_regression() {
        // Two hubs of degree ~500 joined by one edge. Before the
        // unconditional binary search, querying between two hubs
        // scanned the smaller (still huge) adjacency list — all-pairs
        // hub queries were quadratic. The test pins the O(log deg)
        // behaviour by exercising exactly that shape: hub–hub,
        // hub–leaf, and absent leaf–leaf pairs.
        let h0: NodeId = 0;
        let h1: NodeId = 1;
        let mut edges = vec![(h0, h1)];
        // Leaves 2..502 on hub 0, 502..1002 on hub 1.
        edges.extend((2..502).map(|v| (h0, v)));
        edges.extend((502..1002).map(|v| (h1, v)));
        let g = Graph::from_edges(1002, &edges).unwrap();
        assert_eq!(g.degree(h0), 501);
        assert_eq!(g.degree(h1), 501);
        let hub_edge = g.edge_between(h0, h1).expect("hub-hub edge");
        assert_eq!(g.edge_between(h1, h0), Some(hub_edge));
        assert_eq!(g.edge_endpoints(hub_edge), (h0, h1));
        for v in [2u32, 250, 501] {
            let e = g.edge_between(h0, v).expect("hub0 leaf edge");
            assert_eq!(g.edge_between(v, h0), Some(e));
            assert_eq!(g.edge_between(h1, v), None, "leaf {v} not on hub 1");
        }
        assert_eq!(g.edge_between(2, 3), None);
        assert_eq!(g.edge_between(2, 502), None);
    }

    #[test]
    fn edge_between_high_degree_uses_binary_search_path() {
        // Complete graph on 12 nodes: every adjacency list has 11
        // entries, forcing the binary-search branch on both endpoints.
        let g = Graph::from_edges(
            12,
            &(0..12u32)
                .flat_map(|u| (u + 1..12).map(move |v| (u, v)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            assert_eq!(g.edge_between(u, v), Some(e));
            assert_eq!(g.edge_between(v, u), Some(e));
        }
        assert_eq!(g.edge_between(3, 3), None);
    }

    #[test]
    fn neighbors_with_edges_matches_edge_between() {
        let g = k4();
        for v in g.nodes() {
            for (w, e) in g.neighbors_with_edges(v) {
                assert_eq!(g.edge_between(v, w), Some(e));
            }
        }
    }
}
