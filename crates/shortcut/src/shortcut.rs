//! Shortcut sets and their quality (congestion + dilation) measurement.
//!
//! Definition 1.1 (Ghaffari–Haeupler): a `(d, c)`-shortcut of `G` and
//! `S = {S_1, …, S_ℓ}` assigns each part a subgraph `H_i ⊆ G` such that
//! the diameter of `G[S_i] ∪ H_i` is at most `d` and every edge belongs
//! to at most `c` of the augmented subgraphs.
//!
//! ### Measurement conventions
//!
//! * **Congestion** is exact: for each graph edge we count the augmented
//!   subgraphs `G[S_i] ∪ H_i` containing it (`G[S_i]` edges count —
//!   disjointness makes that contribution ≤ 1 per edge).
//! * **Dilation** is reported as the maximum over parts of the maximum
//!   distance *between part members* inside `G[S_i] ∪ H_i`. For the
//!   tree-shaped shortcuts the constructions emit this coincides with
//!   the subgraph diameter up to a factor ≤ 2; for raw sampled sets
//!   (whose stray edges may be disconnected from `S_i`) it is the
//!   quantity the paper's Theorem 3.1 actually bounds
//!   (`dist_H(s, t)` for `s, t ∈ S_j`).

use crate::partition::Partition;
use lcs_graph::{EdgeId, EdgeSubgraph, Graph, NodeId};
use std::fmt;

/// Per-part shortcut edge sets `H_1, …, H_ℓ`, aligned with a
/// [`Partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortcutSet {
    per_part: Vec<Vec<EdgeId>>,
}

impl ShortcutSet {
    /// An empty shortcut (`H_i = ∅`) for `num_parts` parts.
    pub fn empty(num_parts: usize) -> Self {
        ShortcutSet {
            per_part: vec![Vec::new(); num_parts],
        }
    }

    /// Builds from per-part edge lists, each sorted and deduplicated
    /// here; a list that is already ascending costs one linear check.
    pub fn from_edge_lists(mut per_part: Vec<Vec<EdgeId>>) -> Self {
        for edges in &mut per_part {
            edges.sort_unstable();
            edges.dedup();
        }
        ShortcutSet { per_part }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.per_part.len()
    }

    /// Shortcut edges of part `i` (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edges(&self, i: usize) -> &[EdgeId] {
        &self.per_part[i]
    }

    /// Adds an edge to `H_i` (keeps the list sorted and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn add(&mut self, i: usize, e: EdgeId) {
        let list = &mut self.per_part[i];
        if let Err(pos) = list.binary_search(&e) {
            list.insert(pos, e);
        }
    }

    /// Total shortcut edges across parts (with multiplicity).
    pub fn total_edges(&self) -> usize {
        self.per_part.iter().map(|p| p.len()).sum()
    }

    /// Edge set of `G[S_i]`: edges with both endpoints in part `i`.
    pub fn part_internal_edges(graph: &Graph, partition: &Partition, i: usize) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        for &v in partition.part(i) {
            for (w, e) in graph.neighbors_with_edges(v) {
                if v < w && partition.part_of(w) == Some(i as u32) {
                    edges.push(e);
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Materializes the augmented subgraph `G[S_i] ∪ H_i` (part members
    /// forced present even when isolated).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the partition or shortcut set.
    pub fn augmented_subgraph(
        &self,
        graph: &Graph,
        partition: &Partition,
        i: usize,
    ) -> EdgeSubgraph {
        let mut edges = Self::part_internal_edges(graph, partition, i);
        edges.extend_from_slice(&self.per_part[i]);
        edges.sort_unstable();
        edges.dedup();
        EdgeSubgraph::new(graph, &edges, partition.part(i))
    }

    /// Each `H_i` stripped to what connects `S_i`: every node outside
    /// `S_i` of degree 1 in `G[S_i] ∪ H_i` is deleted with its edge,
    /// repeatedly, until none is left. Each deleted piece holds no
    /// member and hangs off the rest by one edge, so it lies on no path
    /// between two members: the distances between members — the
    /// dilation [`measure_quality`] reports — do not change, and as
    /// every `H_i` only loses edges, congestion cannot rise. Stripping
    /// is idempotent. Linear in the total set size, with `n`-sized
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if a part index or an edge is out of range for
    /// `partition` or `graph`.
    pub fn stripped(&self, graph: &Graph, partition: &Partition) -> ShortcutSet {
        let mut stripper = Stripper::new(graph.n());
        let per_part = self
            .per_part
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let mut kept = Vec::new();
                stripper.strip(graph, partition, i, h, &mut kept);
                kept
            })
            .collect();
        ShortcutSet { per_part }
    }
}

/// The scratch of [`ShortcutSet::stripped`], shared across parts: per
/// node, its degree in `H_i` and the XOR of its incident edge ids,
/// which names its last edge once the degree is 1. Reset after each
/// part through the part and the list of nodes it touched.
#[derive(Default)]
pub(crate) struct Stripper {
    /// `(degree, xor)` per node; the degree is [`Self::MEMBER`] on the
    /// current part and [`Self::GONE`] once deleted.
    node: Vec<(u32, u32)>,
    touched: Vec<NodeId>,
    leaves: Vec<NodeId>,
}

impl Stripper {
    const MEMBER: u32 = u32::MAX - 1;
    const GONE: u32 = u32::MAX;

    pub(crate) fn new(n: usize) -> Self {
        Stripper {
            node: vec![(0, 0); n],
            ..Stripper::default()
        }
    }

    /// Sets `kept` to the edges of `h` (part `i`'s `H_i`, ascending)
    /// that stripping keeps, ascending.
    pub(crate) fn strip(
        &mut self,
        graph: &Graph,
        partition: &Partition,
        i: usize,
        h: &[EdgeId],
        kept: &mut Vec<EdgeId>,
    ) {
        let Stripper {
            node,
            touched,
            leaves,
        } = self;
        for &v in partition.part(i) {
            node[v as usize].0 = Self::MEMBER;
        }
        for &e in h {
            let (u, w) = graph.edge_endpoints(e);
            for x in [u, w] {
                let (degree, xor) = &mut node[x as usize];
                if *degree < Self::MEMBER {
                    if *degree == 0 {
                        touched.push(x);
                    }
                    *degree += 1;
                    *xor ^= e.0;
                }
            }
        }
        leaves.extend(touched.iter().filter(|&&x| node[x as usize].0 == 1));
        while let Some(v) = leaves.pop() {
            // A leaf whose neighbour was deleted first is left isolated.
            let (degree, xor) = node[v as usize];
            if degree != 1 {
                continue;
            }
            node[v as usize].0 = Self::GONE;
            let (a, b) = graph.edge_endpoints(EdgeId(xor));
            let w = if a == v { b } else { a };
            let (degree, rest) = &mut node[w as usize];
            if *degree < Self::MEMBER {
                *degree -= 1;
                *rest ^= xor;
                if *degree == 1 {
                    leaves.push(w);
                }
            }
        }
        // An edge is gone exactly when one of its ends is.
        kept.clear();
        kept.extend(h.iter().copied().filter(|&e| {
            let (u, w) = graph.edge_endpoints(e);
            node[u as usize].0 != Self::GONE && node[w as usize].0 != Self::GONE
        }));
        for x in touched.drain(..) {
            node[x as usize] = (0, 0);
        }
        for &v in partition.part(i) {
            node[v as usize].0 = 0;
        }
    }
}

/// How to compute dilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DilationMode {
    /// Exact max pairwise part-member distance (BFS from every member).
    Exact,
    /// Double-sweep bracket; the reported dilation is the *upper* end
    /// (2 × leader radius), so bound checks remain sound.
    Estimate,
}

/// The two quality components of Definition 1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Max number of augmented subgraphs sharing one edge.
    pub congestion: u32,
    /// Max over parts of the part-member diameter of `G[S_i] ∪ H_i`.
    pub dilation: u32,
}

impl Quality {
    /// `c + d`, the scalar the paper's bounds are stated in.
    pub fn total(&self) -> u64 {
        self.congestion as u64 + self.dilation as u64
    }
}

impl fmt::Display for Quality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c={} d={} (c+d={})",
            self.congestion,
            self.dilation,
            self.total()
        )
    }
}

/// Full quality report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityReport {
    /// Aggregate quality.
    pub quality: Quality,
    /// Dilation of each part.
    pub per_part_dilation: Vec<u32>,
    /// Dilation lower bounds (equal to dilation in exact mode).
    pub per_part_dilation_lower: Vec<u32>,
    /// Congestion of every edge (indexed by [`EdgeId`]).
    pub per_edge_congestion: Vec<u32>,
}

impl QualityReport {
    /// Mean per-edge congestion over edges with nonzero load.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcs_shortcut::{Quality, QualityReport};
    ///
    /// let r = QualityReport {
    ///     quality: Quality { congestion: 2, dilation: 2 },
    ///     per_part_dilation: vec![2, 1],
    ///     per_part_dilation_lower: vec![2, 1],
    ///     per_edge_congestion: vec![1, 1, 2, 1, 0],
    /// };
    /// // Four loaded edges carrying total load 5; the idle edge is
    /// // ignored, so the mean load is 5/4.
    /// assert_eq!(r.mean_loaded_congestion(), 1.25);
    /// ```
    pub fn mean_loaded_congestion(&self) -> f64 {
        let loaded: Vec<u32> = self
            .per_edge_congestion
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        if loaded.is_empty() {
            return 0.0;
        }
        loaded.iter().map(|&c| c as f64).sum::<f64>() / loaded.len() as f64
    }
}

/// Measures the quality of `shortcuts` for `partition` on `graph`.
///
/// Dilation per part is `u32::MAX` if two part members are disconnected
/// in the augmented subgraph (cannot happen for valid partitions, whose
/// parts are connected in `G`).
///
/// # Examples
///
/// A hand-checkable 5-node instance: the path `0–1–2–3–4` with chord
/// `1–3`, parts `{0, 1, 2}` and `{3, 4}`, and shortcuts `H_0 = {1–3}`,
/// `H_1 = {1–3, 2–3}`:
///
/// ```
/// use lcs_graph::Graph;
/// use lcs_shortcut::{measure_quality, DilationMode, Partition, ShortcutSet};
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]).unwrap();
/// let p = Partition::new(&g, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
/// let chord = g.edge_between(1, 3).unwrap();
/// let e23 = g.edge_between(2, 3).unwrap();
/// let s = ShortcutSet::from_edge_lists(vec![vec![chord], vec![chord, e23]]);
///
/// let r = measure_quality(&g, &p, &s, DilationMode::Exact);
/// // The chord serves both parts; every other edge serves exactly one.
/// assert_eq!(r.quality.congestion, 2);
/// // Part 0's worst pair is 0 ↔ 2 (two hops); part 1 has edge 3–4.
/// assert_eq!(r.per_part_dilation, vec![2, 1]);
/// assert_eq!(r.quality.dilation, 2);
/// ```
///
/// # Panics
///
/// Panics if `shortcuts.num_parts() != partition.num_parts()`.
pub fn measure_quality(
    graph: &Graph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    mode: DilationMode,
) -> QualityReport {
    assert_eq!(shortcuts.num_parts(), partition.num_parts());
    let mut per_edge = vec![0u32; graph.m()];
    let mut per_part_dilation = Vec::with_capacity(partition.num_parts());
    let mut per_part_lower = Vec::with_capacity(partition.num_parts());
    for i in 0..partition.num_parts() {
        // Congestion: union of G[S_i] and H_i edges.
        let mut edges = ShortcutSet::part_internal_edges(graph, partition, i);
        edges.extend_from_slice(shortcuts.edges(i));
        edges.sort_unstable();
        edges.dedup();
        for &e in &edges {
            per_edge[e.index()] += 1;
        }
        // Dilation.
        let sub = shortcuts.augmented_subgraph(graph, partition, i);
        let members = partition.part(i);
        let (lower, upper) = match mode {
            DilationMode::Exact => {
                let d = sub.max_pairwise_distance(members).unwrap_or(0);
                (d, d)
            }
            DilationMode::Estimate => sub
                .estimate_pairwise_distance(members, partition.leader(i))
                .unwrap_or((0, 0)),
        };
        per_part_dilation.push(upper);
        per_part_lower.push(lower);
    }
    let congestion = per_edge.iter().copied().max().unwrap_or(0);
    let dilation = per_part_dilation.iter().copied().max().unwrap_or(0);
    QualityReport {
        quality: Quality {
            congestion,
            dilation,
        },
        per_part_dilation,
        per_part_dilation_lower: per_part_lower,
        per_edge_congestion: per_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators::path;
    use lcs_graph::HighwayGraph;
    use lcs_graph::HighwayParams;

    fn fixture() -> (Graph, Partition) {
        // Path 0..9 with two parts.
        let g = path(10);
        let p = Partition::new(&g, vec![vec![0, 1, 2, 3, 4], vec![5, 6, 7, 8, 9]]).unwrap();
        (g, p)
    }

    #[test]
    fn empty_shortcut_dilation_is_part_diameter() {
        let (g, p) = fixture();
        let s = ShortcutSet::empty(2);
        let r = measure_quality(&g, &p, &s, DilationMode::Exact);
        assert_eq!(r.quality.dilation, 4);
        // Intra-part edges give congestion 1.
        assert_eq!(r.quality.congestion, 1);
        assert_eq!(r.per_part_dilation, vec![4, 4]);
    }

    #[test]
    fn shortcut_edge_reduces_dilation_on_highway() {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 2,
            path_len: 12,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph();
        let p = Partition::new(g, hw.path_parts()).unwrap();
        let empty = ShortcutSet::empty(2);
        let base = measure_quality(g, &p, &empty, DilationMode::Exact);
        assert_eq!(base.quality.dilation, 11);

        // Give part 0 all leaf and tree edges: dilation collapses to O(D).
        let mut h0: Vec<EdgeId> = Vec::new();
        for c in 0..12 {
            let leaf = hw.column_leaf(c);
            h0.push(g.edge_between(leaf, hw.path_node(0, c)).unwrap());
            for (w, e) in g.neighbors_with_edges(leaf) {
                if w >= hw.highway_first() {
                    h0.push(e);
                }
            }
        }
        let s = ShortcutSet::from_edge_lists(vec![h0, Vec::new()]);
        let r = measure_quality(g, &p, &s, DilationMode::Exact);
        assert!(
            r.per_part_dilation[0] <= 6,
            "tree shortcut should give O(D) dilation, got {}",
            r.per_part_dilation[0]
        );
        assert_eq!(r.per_part_dilation[1], 11, "part 1 untouched");
        // Overall dilation is the max over parts, so part 1 dominates.
        assert_eq!(r.quality.dilation, 11);
    }

    #[test]
    fn congestion_counts_shared_edges() {
        let (g, p) = fixture();
        // Both parts get the same middle edge 4-5 in their H_i.
        let mid = g.edge_between(4, 5).unwrap();
        let s = ShortcutSet::from_edge_lists(vec![vec![mid], vec![mid]]);
        let r = measure_quality(&g, &p, &s, DilationMode::Exact);
        assert_eq!(r.per_edge_congestion[mid.index()], 2);
        assert_eq!(r.quality.congestion, 2);
        // The shared edge joins the two parts into one subgraph each:
        // part 0's subgraph now includes node 5.
        let sub = s.augmented_subgraph(&g, &p, 0);
        assert_eq!(sub.distance(4, 5), Some(1));
    }

    #[test]
    fn internal_edges_not_double_counted_with_hi() {
        let (g, p) = fixture();
        let internal = g.edge_between(0, 1).unwrap();
        let s = ShortcutSet::from_edge_lists(vec![vec![internal], vec![]]);
        let r = measure_quality(&g, &p, &s, DilationMode::Exact);
        // Edge 0-1 is in G[S_0] and in H_0: one subgraph, congestion 1.
        assert_eq!(r.per_edge_congestion[internal.index()], 1);
    }

    #[test]
    fn estimate_mode_is_sound_upper_bound() {
        let (g, p) = fixture();
        let s = ShortcutSet::empty(2);
        let exact = measure_quality(&g, &p, &s, DilationMode::Exact);
        let est = measure_quality(&g, &p, &s, DilationMode::Estimate);
        for i in 0..2 {
            assert!(est.per_part_dilation[i] >= exact.per_part_dilation[i]);
            assert!(est.per_part_dilation_lower[i] <= exact.per_part_dilation[i]);
        }
    }

    #[test]
    fn add_and_dedup() {
        let (g, _) = fixture();
        let mut s = ShortcutSet::empty(1);
        let e = g.edge_between(2, 3).unwrap();
        s.add(0, e);
        s.add(0, e);
        assert_eq!(s.edges(0), &[e]);
        assert_eq!(s.total_edges(), 1);
    }

    #[test]
    fn five_node_hand_computed_exact_answer() {
        // Path 0–1–2–3–4 plus chord 1–3; parts {0,1,2} and {3,4};
        // H_0 = {1–3}, H_1 = {1–3, 2–3}. Every number below is computed
        // by hand from Definition 1.1.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]).unwrap();
        let p = Partition::new(&g, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
        let chord = g.edge_between(1, 3).unwrap();
        let e23 = g.edge_between(2, 3).unwrap();
        let s = ShortcutSet::from_edge_lists(vec![vec![chord], vec![chord, e23]]);
        let r = measure_quality(&g, &p, &s, DilationMode::Exact);
        // Loads: 0–1 and 1–2 are internal to part 0, 3–4 internal to
        // part 1, 2–3 is in H_1 only, and the chord is in H_0 and H_1.
        let mut expected = vec![0u32; 5];
        expected[g.edge_between(0, 1).unwrap().index()] = 1;
        expected[g.edge_between(1, 2).unwrap().index()] = 1;
        expected[chord.index()] = 2;
        expected[e23.index()] = 1;
        expected[g.edge_between(3, 4).unwrap().index()] = 1;
        assert_eq!(r.per_edge_congestion, expected);
        // Part 0: worst pair 0 ↔ 2 at distance 2 (the chord adds node 3
        // but no shorter 0–2 route). Part 1: members 3, 4 at distance 1.
        assert_eq!(r.per_part_dilation, vec![2, 1]);
        assert_eq!(r.per_part_dilation_lower, vec![2, 1]);
        assert_eq!(
            r.quality,
            Quality {
                congestion: 2,
                dilation: 2
            }
        );
        // Five edges all loaded: (1+1+2+1+1)/5.
        assert_eq!(r.mean_loaded_congestion(), 1.2);
    }

    #[test]
    fn quality_total() {
        let q = Quality {
            congestion: 3,
            dilation: 9,
        };
        assert_eq!(q.total(), 12);
        assert_eq!(format!("{q}"), "c=3 d=9 (c+d=12)");
    }
}
