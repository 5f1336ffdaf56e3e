//! (1+ε)-approximate minimum cut via tree packing
//! (Corollary 1.2 / Fact 4.1, Theorem 7.6.1 of Ghaffari's thesis;
//! algorithmic core from Karger '96 / Thorup).
//!
//! Pipeline:
//!
//! 1. **Skeleton** — sample each edge with probability
//!    `p = min(1, c₀·ln n / (ε²·ĉ))` (Karger sparsification): cuts are
//!    preserved to `(1 ± ε)` w.h.p. while the skeleton min cut drops to
//!    `O(log n / ε²)`, so few trees suffice.
//! 2. **Greedy tree packing** — repeatedly take a minimum spanning tree
//!    of the skeleton w.r.t. edge *loads* (times used so far). Karger:
//!    w.h.p. some packed tree 2-respects a `(1+ε)`-minimum cut.
//! 3. **Respecting cuts** — for each packed tree, compute the exact
//!    minimum 1-respecting and 2-respecting cut *of the original
//!    weighted graph* (`min_respecting_cut`). In the tree's DFS
//!    preorder every subtree is a range of positions. `cut1[v]` is a
//!    subtree sum of `+w` at both endpoints of each edge and `−2w` at
//!    their lowest common ancestor (an edge `(x,y)` crosses exactly the
//!    subtrees rooted along the tree path `x⇝y` below that ancestor),
//!    and `cut2(u,v) = cut1[u] + cut1[v] − 2·M(u,v)` with `M(u,v)` the
//!    weight crossing both subtrees. Row `u` weighs only the `v` nested
//!    in its subtree and the later `v` that an edge leaving its subtree
//!    reaches: any other pair has `M = 0` and weighs at least twice the
//!    lightest 1-respecting cut.
//! 4. The estimate `ĉ` is settled by a doubling loop (start at the
//!    minimum degree cut; re-run once if the found cut is much smaller).
//!
//! Cost: one tree is evaluated in `O(m + Σ_v deg(v)·depth(v))` time
//! plus, per row, the union of the tree paths its leaving edges enter
//! — at most one step per pair of subtrees an edge crosses on opposite
//! sides of its lowest common ancestor, so never more than the
//! `|tree path|²` pairs per edge — and `O(n + m)` memory, whose buffers
//! the trees of one run share. That is the worst case: a row costs only
//! its first position's degree when that position's edges to earlier
//! positions weigh at least the lightest cut found so far, by the
//! search (starting from the minimum weighted degree) or in this tree,
//! because every cut the row weighs crosses them. When the minimum cut
//! is well below most nodes' weighted degree, most rows stop there.
//! Packing a tree buckets the edges by load and runs one union–find
//! pass, `O(m·α(n))`.
//!
//! Distributed cost accounting: each packed tree costs one
//! MST-via-shortcuts computation plus one partwise aggregation for the
//! subtree sums (`Õ(k_D)` each); the 2-respecting scan is evaluated
//! centrally with its round cost charged per GH16's distributed
//! implementation — see the README's "Substitutions".

use crate::mst::{check_encodable, mst_via_shortcuts, MstConfig, MstError};
use lcs_congest::{ceil_log2, FaultPlan, SimError};
use lcs_core::{detect_and_excise, DegradedOutcome};
use lcs_graph::{connected_components, stoer_wagner, Graph, NodeId, UnionFind, WeightedGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Min-cut configuration.
#[derive(Debug, Clone)]
pub struct MinCutConfig {
    /// Approximation slack ε.
    pub epsilon: f64,
    /// Seed for skeleton sampling.
    pub seed: u64,
    /// Sparsification constant `c₀` (theory wants ~12; smaller is
    /// faster and usually still exact at bench scales).
    pub sampling_constant: f64,
    /// Number of packed trees per estimate round (`None` = `⌈3·ln n⌉`).
    pub trees: Option<usize>,
    /// MST configuration [`approximate_min_cut`] prices each packed
    /// tree with: its MST run takes all of its Boruvka aggregations
    /// through one engine [`Session`](lcs_congest::Session), whose
    /// worker pool its `shards` field sizes.
    pub mst: MstConfig,
}

impl Default for MinCutConfig {
    fn default() -> Self {
        MinCutConfig {
            epsilon: 0.2,
            seed: 0xCA7,
            sampling_constant: 6.0,
            trees: None,
            mst: MstConfig::default(),
        }
    }
}

/// Min-cut failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinCutError {
    /// Graph has fewer than two nodes or is disconnected.
    NotCuttable,
    /// Propagated MST error (round accounting).
    Mst(MstError),
    /// Fault-handling failure (detection phase).
    Sim(SimError),
}

impl fmt::Display for MinCutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinCutError::NotCuttable => write!(f, "graph has no proper cut (n < 2)"),
            MinCutError::Mst(e) => write!(f, "mst subroutine failed: {e}"),
            MinCutError::Sim(e) => write!(f, "fault handling failed: {e}"),
        }
    }
}

impl std::error::Error for MinCutError {}

impl From<MstError> for MinCutError {
    fn from(e: MstError) -> Self {
        MinCutError::Mst(e)
    }
}

/// Result of the approximate min cut.
#[derive(Debug, Clone)]
pub struct MinCutOutcome {
    /// The best cut weight found.
    pub weight: u64,
    /// One side of the best cut found, sorted ascending (as original
    /// node ids when the run was degraded).
    pub side: Vec<NodeId>,
    /// Trees packed in total.
    pub trees_packed: usize,
    /// Rounds charged (tree computations + aggregations).
    pub total_rounds: u64,
    /// Estimate-loop iterations.
    pub estimate_iterations: u32,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](MstConfig::faults) on its MST subroutine: what
    /// graceful degradation excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

/// A spanning tree laid out in DFS preorder: the root is at position 0
/// and the subtree of position `p` is the position range
/// `[p, end[p])`. The buffers are reused from one tree to the next.
#[derive(Debug, Default)]
struct RootedTree {
    /// Node → position.
    pos: Vec<u32>,
    /// Position → parent position (the root is its own parent).
    parent: Vec<u32>,
    /// Position → one past the last position of its subtree.
    end: Vec<u32>,
    /// Tree adjacency over node ids, each list in `tree_edges` order.
    adj_start: Vec<u32>,
    adj: Vec<(NodeId, ())>,
    /// DFS stack of `(node, next adjacency slot)`.
    stack: Vec<(NodeId, u32)>,
}

impl RootedTree {
    /// Lays out `tree_edges` rooted at `root`; a node's children are
    /// visited in the order their edges appear.
    ///
    /// # Panics
    ///
    /// Panics unless `tree_edges` is a spanning tree of `0..n`.
    fn layout(&mut self, tree_edges: &[(NodeId, NodeId)], n: usize, root: NodeId) {
        assert!(
            tree_edges.len() + 1 == n,
            "min_respecting_cut needs a spanning tree: {} tree edges for {n} nodes",
            tree_edges.len()
        );
        let edges = tree_edges.iter().map(|&(u, v)| (u, v, ()));
        adjacency(n, edges, &mut self.adj_start, &mut self.adj);

        // Iterative DFS: a node takes the next position when discovered,
        // and its subtree ends where the next position stands when it
        // is finished.
        self.pos.clear();
        self.pos.resize(n, u32::MAX);
        self.end.clear();
        self.end.resize(n, 0);
        self.parent.clear();
        self.pos[root as usize] = 0;
        self.parent.push(0);
        self.stack.clear();
        self.stack.push((root, self.adj_start[root as usize]));
        while let Some((v, slot)) = self.stack.last_mut() {
            if *slot == self.adj_start[*v as usize + 1] {
                self.end[self.pos[*v as usize] as usize] = self.parent.len() as u32;
                self.stack.pop();
                continue;
            }
            let (w, ()) = self.adj[*slot as usize];
            *slot += 1;
            if self.pos[w as usize] == u32::MAX {
                let from = self.pos[*v as usize];
                self.pos[w as usize] = self.parent.len() as u32;
                self.parent.push(from);
                self.stack.push((w, self.adj_start[w as usize]));
            }
        }
        assert!(
            self.parent.len() == n,
            "min_respecting_cut needs a spanning tree: {} of {n} nodes reachable from the root",
            self.parent.len()
        );
    }
}

/// Undirected `edges` as CSR adjacency over `n` nodes: the arcs
/// `(neighbour, label)` of node `v` are `arcs[start[v]..start[v + 1]]`,
/// in edge order.
fn adjacency<L: Copy + Default>(
    n: usize,
    edges: impl Iterator<Item = (u32, u32, L)> + Clone,
    start: &mut Vec<u32>,
    arcs: &mut Vec<(u32, L)>,
) {
    start.clear();
    start.resize(n + 1, 0);
    for (a, b, _) in edges.clone() {
        start[a as usize] += 1;
        start[b as usize] += 1;
    }
    let mut total = 0;
    for s in start.iter_mut() {
        (*s, total) = (total, total + *s);
    }
    arcs.resize(total as usize, (0, L::default()));
    // Fill each node's range; its start slides to the next node's.
    for (a, b, label) in edges {
        arcs[start[a as usize] as usize] = (b, label);
        start[a as usize] += 1;
        arcs[start[b as usize] as usize] = (a, label);
        start[b as usize] += 1;
    }
    start.copy_within(0..n, 1);
    start[0] = 0;
}

/// Buffers [`min_respecting_cut`] reuses across the trees of one query.
#[derive(Debug, Default)]
pub(crate) struct CutBuffers {
    tree: RootedTree,
    /// The graph's adjacency over positions: `(neighbour, weight)`.
    arc_start: Vec<u32>,
    arcs: Vec<(u32, u64)>,
    /// Weight leaving each position's subtree.
    cut1: Vec<u64>,
    /// Per row `i`: weight from each subtree inside subtree(i) to the
    /// outside of subtree(i).
    inner: Vec<u64>,
    /// Per row `i`: the later positions whose subtree an edge leaving
    /// subtree(i) enters (a forest), how many of each one's touched
    /// children are still `pending`, and the weight `shared` between
    /// subtree(i) and its subtree once they are not.
    touched: Vec<u32>,
    is_touched: Vec<bool>,
    pending: Vec<u32>,
    shared: Vec<u64>,
    /// Touched positions whose subtree sum is complete.
    ready: Vec<u32>,
}

/// Minimum 1- or 2-respecting cut of `wg` with respect to the spanning
/// tree `tree_edges` rooted at `root`, exact whenever it weighs less
/// than `bound`. Returns `(weight, side)` with `side` sorted ascending:
/// below `bound`, the exact minimum with its ties broken as below;
/// otherwise some respecting cut, of weight at least `bound`, that a
/// caller looking for a cut lighter than `bound` discards. With
/// `bound = u64::MAX` the answer is always the exact minimum.
///
/// Positions follow the tree's DFS preorder. A 1-respecting cut is a
/// subtree; the first position of least weight wins. A 2-respecting
/// cut is a symmetric difference `subtree(i) Δ subtree(j)` with `i < j`
/// and positive weight `cut1[i] + cut1[j] − 2·M(i, j)`, `M` being the
/// weight of the edges that cross both subtrees. It replaces the best
/// cut only when strictly lighter, so ties go to the 1-respecting cut
/// and then to the first pair in `(i, j)` order.
///
/// Each row `i` walks the edges leaving subtree(i). For the `j` nested
/// in subtree(i), `M(i, j)` is a subtree sum of those edges' inner
/// endpoints. For the later disjoint `j`, it is a subtree sum of their
/// outer endpoints, taken over the union of those endpoints' tree paths
/// up to row `i`'s ancestors. The disjoint `j` off that union are
/// skipped: with `M = 0` they weigh `cut1[i] + cut1[j]`, at least twice
/// the lightest subtree, which never wins. A row costs its subtree's
/// size and degree sum plus the size of the union, at most one step
/// per (leaving edge, later subtree it crosses), so an edge never costs
/// more than the `|tree path|²` pairs of subtrees it crosses, and
/// memory stays `O(n + m)` in `buffers`.
///
/// A row that cannot matter is skipped outright. Every side row `i`
/// weighs holds position `i` and no earlier position, so each edge
/// from `i` to an earlier position crosses all of them. When those
/// edges weigh at least `min(bound, best)`, `best` being the lightest
/// cut found so far, the row can neither beat nor tie the winner, nor
/// bring the answer below `bound`, and costs only `i`'s degree.
///
/// # Panics
///
/// Panics unless `tree_edges` is a spanning tree of `wg`'s nodes
/// (`n − 1` edges that reach every node from `root`).
pub(crate) fn min_respecting_cut(
    wg: &WeightedGraph,
    tree_edges: &[(NodeId, NodeId)],
    root: NodeId,
    bound: u64,
    buffers: &mut CutBuffers,
) -> (u64, Vec<NodeId>) {
    let g = wg.graph();
    let n = g.n();
    let CutBuffers {
        tree,
        arc_start,
        arcs,
        cut1,
        inner,
        touched,
        is_touched,
        pending,
        shared,
        ready,
    } = buffers;
    tree.layout(tree_edges, n, root);
    let (pos, parent, end) = (&tree.pos, &tree.parent, &tree.end);

    let edges = || {
        let weighted = g.edges().iter().zip(wg.weights());
        weighted.map(|(&(x, y), &w)| (pos[x as usize], pos[y as usize], w))
    };
    adjacency(n, edges(), arc_start, arcs);

    // cut1: +w at both endpoints and −2w at their lowest common
    // ancestor, summed over subtrees (wrapping: the sums are exact).
    cut1.clear();
    cut1.resize(n, 0);
    for (px, py, w) in edges() {
        let (mut lca, below) = (px.min(py) as usize, px.max(py));
        while below >= end[lca] {
            lca = parent[lca] as usize;
        }
        cut1[px as usize] = cut1[px as usize].wrapping_add(w);
        cut1[py as usize] = cut1[py as usize].wrapping_add(w);
        cut1[lca] = cut1[lca].wrapping_sub(2 * w);
    }
    for p in (1..n).rev() {
        let q = parent[p] as usize;
        cut1[q] = cut1[q].wrapping_add(cut1[p]);
    }

    // 1-respecting: the first position of least cut1.
    let mut best = u64::MAX;
    let mut winner: Option<(usize, Option<usize>)> = None;
    for (p, &c) in cut1.iter().enumerate().skip(1) {
        if c < best {
            best = c;
            winner = Some((p, None));
        }
    }

    // 2-respecting, row by row. A row whose edges to earlier positions
    // weigh at least min(bound, best) is skipped (with best = 0, every
    // row). A disjoint j that no edge of subtree(i) reaches weighs
    // cut1[i] + cut1[j] > best, so rows skip those.
    inner.resize(n, 0);
    is_touched.resize(n, false);
    pending.resize(n, 0);
    shared.resize(n, 0);
    for i in 1..n {
        let row_arcs = &arcs[arc_start[i] as usize..arc_start[i + 1] as usize];
        let to_earlier: u64 = row_arcs
            .iter()
            .filter(|&&(q, _)| (q as usize) < i)
            .map(|&(_, w)| w)
            .sum();
        if to_earlier >= bound.min(best) {
            continue;
        }
        let e = end[i] as usize;
        let base = cut1[i];
        for p in i..e {
            let mut out = 0u64;
            for &(q, w) in &arcs[arc_start[p] as usize..arc_start[p + 1] as usize] {
                let q = q as usize;
                if q < i {
                    out += w;
                } else if q >= e {
                    out += w;
                    shared[q] += w;
                    // Touch q's tree path up to the first touched
                    // position or row i's ancestors.
                    let mut a = q;
                    while !is_touched[a] {
                        is_touched[a] = true;
                        touched.push(a as u32);
                        let up = parent[a] as usize;
                        if up < e {
                            break;
                        }
                        pending[up] += 1;
                        a = up;
                    }
                }
            }
            inner[p] = out;
        }
        let (mut row, mut row_j) = (u64::MAX, usize::MAX);
        // Nested j in descending position: each sum is complete when
        // reached, and `<=` keeps the least j of a tie.
        for j in (i + 1..e).rev() {
            let c = base + cut1[j] - 2 * inner[j];
            if c > 0 && c <= row {
                (row, row_j) = (c, j);
            }
            inner[parent[j] as usize] += inner[j];
        }
        // Later touched j, children first: `shared` becomes the
        // subtree sum of the outer endpoints' weights.
        ready.extend(touched.drain(..).filter(|&j| pending[j as usize] == 0));
        while let Some(j) = ready.pop() {
            let j = j as usize;
            let c = base + cut1[j] - 2 * shared[j];
            if c > 0 && (c < row || (c == row && j < row_j)) {
                (row, row_j) = (c, j);
            }
            let up = parent[j] as usize;
            if up >= e {
                shared[up] += shared[j];
                pending[up] -= 1;
                if pending[up] == 0 {
                    ready.push(up as u32);
                }
            }
            is_touched[j] = false;
            shared[j] = 0;
        }
        if row < best {
            best = row;
            winner = Some((i, Some(row_j)));
        }
    }

    // The side: subtree(i), or subtree(i) Δ subtree(j).
    let Some((i, j)) = winner else {
        return (best, Vec::new());
    };
    let mut in_side = vec![false; n];
    let ranges = std::iter::once(i).chain(j).map(|p| p..end[p] as usize);
    for p in ranges.flatten() {
        in_side[p] ^= true;
    }
    let side = (0..n as NodeId)
        .filter(|&v| in_side[pos[v as usize] as usize])
        .collect();
    (best, side)
}

/// Greedy tree packing: `count` spanning trees of the connected
/// `skeleton`, each the minimum spanning tree under the current edge
/// loads (times used so far) with ties broken by edge id, as
/// [`kruskal`](lcs_graph::kruskal) picks it. A tree lists its edges in
/// ascending id.
fn pack_trees(skeleton: &Graph, count: usize) -> Vec<Vec<(NodeId, NodeId)>> {
    let (n, edges) = (skeleton.n(), skeleton.edges());
    let mut loads = vec![0u32; edges.len()];
    let mut by_load = vec![0u32; edges.len()];
    let mut in_tree = vec![false; edges.len()];
    let mut trees = Vec::with_capacity(count);
    for packed in 0..count {
        // Bucket the edges by load (at most `packed`), in id order.
        let mut next = vec![0usize; packed + 2];
        for &load in &loads {
            next[load as usize + 1] += 1;
        }
        for l in 1..next.len() {
            next[l] += next[l - 1];
        }
        for (e, &load) in loads.iter().enumerate() {
            by_load[next[load as usize]] = e as u32;
            next[load as usize] += 1;
        }
        let mut uf = UnionFind::new(n);
        let mut picked = 0;
        in_tree.fill(false);
        for &e in &by_load {
            if picked + 1 >= n {
                break;
            }
            let (u, v) = edges[e as usize];
            if uf.union(u, v) {
                in_tree[e as usize] = true;
                picked += 1;
            }
        }
        let mut tree = Vec::with_capacity(picked);
        for (e, &pair) in edges.iter().enumerate() {
            if in_tree[e] {
                loads[e] += 1;
                tree.push(pair);
            }
        }
        trees.push(tree);
    }
    trees
}

/// What the cut search found, before its rounds are priced.
#[derive(Debug, Clone)]
pub struct CutSearch {
    /// The best cut weight found.
    pub weight: u64,
    /// One side of the best cut found, sorted ascending.
    pub side: Vec<NodeId>,
    /// Trees packed in total.
    pub trees_packed: usize,
    /// Estimate-loop iterations.
    pub estimate_iterations: u32,
}

fn check_cuttable(g: &Graph) -> Result<(), MinCutError> {
    if g.n() < 2 || !lcs_graph::is_connected(g) {
        return Err(MinCutError::NotCuttable);
    }
    Ok(())
}

/// The cut search of [`approximate_min_cut`] without its round
/// pricing: skeleton sampling, greedy tree packing and the
/// respecting-cut scan, on the whole graph (`cfg.mst` is not run, and
/// its fault plan is not consulted). The index-served min-cut calls
/// this alone, since its answer carries no round count. When the
/// positive-weight edges leave the graph disconnected, the answer is
/// the weight-0 cut whose side is what they connect to node 0.
///
/// # Errors
///
/// [`MinCutError::NotCuttable`] for `n < 2` or disconnected inputs;
/// [`MinCutError::Mst`]`(`[`MstError::EncodingOverflow`]`)` when an
/// edge's weight or id exceeds what the MST subroutine's MWOE encoding
/// carries (weights of 2^37 or more), checked before any weight is
/// summed.
pub fn min_cut_search(wg: &WeightedGraph, cfg: &MinCutConfig) -> Result<CutSearch, MinCutError> {
    let g = wg.graph();
    let n = g.n();
    check_cuttable(g)?;
    check_encodable(wg)?;
    let ln_n = (n as f64).ln().max(1.0);
    let trees_per_round = cfg.trees.unwrap_or((3.0 * ln_n).ceil() as usize).max(1);

    // Initial estimate: minimum degree cut.
    let mut best: u64 = u64::MAX;
    let mut best_side: Vec<NodeId> = Vec::new();
    for v in g.nodes() {
        let deg_cut: u64 = g.neighbors_with_edges(v).map(|(_, e)| wg.weight(e)).sum();
        if deg_cut < best {
            best = deg_cut;
            best_side = vec![v];
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut buffers = CutBuffers::default();
    let mut trees_packed = 0usize;
    let mut iterations = 0u32;
    let mut estimate = best.max(1);
    let mut sample_all = false;
    loop {
        iterations += 1;
        // Skeleton: weighted sampling — edge kept with probability
        // 1 − (1−p)^w (a weight-w bundle of parallel unit edges).
        let p = if sample_all {
            1.0
        } else {
            (cfg.sampling_constant * ln_n / (cfg.epsilon * cfg.epsilon * estimate as f64)).min(1.0)
        };
        let kept: Vec<(NodeId, NodeId)> = g
            .edge_ids()
            .filter(|&e| {
                let w = wg.weight(e) as f64;
                let keep_prob = 1.0 - (1.0 - p).powf(w);
                rng.gen_bool(keep_prob.clamp(0.0, 1.0))
            })
            .map(|e| g.edge_endpoints(e))
            .collect();
        let skeleton = Graph::from_edges(n, &kept).expect("skeleton nodes in range");
        if !lcs_graph::is_connected(&skeleton) {
            if p >= 1.0 {
                // Every positive-weight edge was kept, so only
                // zero-weight edges leave node 0's component.
                if best > 0 {
                    let parts = connected_components(&skeleton);
                    (best, best_side) = (0, parts.members(parts.label[0]));
                }
                break;
            }
            // Sampling too sparse (estimate too big): the min cut is
            // tiny; halve the estimate and retry. An estimate already
            // at 1 cannot shrink, so the next skeleton keeps every edge.
            sample_all = estimate == 1;
            estimate = (estimate / 2).max(1);
            continue;
        }
        // Pack trees and evaluate respecting cuts on the ORIGINAL graph.
        let trees = pack_trees(&skeleton, trees_per_round);
        trees_packed += trees.len();
        for tree in &trees {
            let (w, side) = min_respecting_cut(wg, tree, 0, best, &mut buffers);
            if w < best {
                best = w;
                best_side = side;
            }
        }
        // Doubling loop: if the found cut is much smaller than the
        // estimate the sampling rate was off; re-run with the better
        // estimate. Otherwise we are done.
        if best >= estimate / 2 || p >= 1.0 {
            break;
        }
        estimate = best.max(1);
        if iterations > 40 {
            break;
        }
    }

    Ok(CutSearch {
        weight: best,
        side: best_side,
        trees_packed,
        estimate_iterations: iterations,
    })
}

/// Runs the (1+ε)-approximate min cut: [`min_cut_search`], priced at
/// one MST-via-shortcuts run under `cfg.mst` (plus its subtree-sum
/// aggregations) per packed tree.
///
/// With a [`FaultPlan`](MstConfig::faults) attached to `cfg.mst`,
/// crash-stopped nodes are detected and excised first (see
/// [`lcs_core::degrade`]) and the cut is computed on the surviving
/// subgraph — the returned side carries **original** node ids and the
/// outcome a [`DegradedOutcome`].
///
/// # Errors
///
/// [`MinCutError::NotCuttable`] for `n < 2` or disconnected inputs (or
/// fewer than two survivors after excision);
/// [`MinCutError::Mst`] when the MST subroutine fails;
/// [`MinCutError::Sim`] when the detection phase fails.
pub fn approximate_min_cut(
    wg: &WeightedGraph,
    cfg: &MinCutConfig,
) -> Result<MinCutOutcome, MinCutError> {
    if let Some(plan) = &cfg.mst.faults {
        check_cuttable(wg.graph())?;
        return degraded_min_cut(wg, cfg, plan);
    }
    let found = min_cut_search(wg, cfg)?;
    let mst = mst_via_shortcuts(wg, &cfg.mst)?;
    let per_tree_rounds = mst.total_rounds
        + 2 * (ceil_log2(wg.graph().n()) as u64) * (mst.total_rounds / mst.phases.max(1) as u64);
    Ok(MinCutOutcome {
        weight: found.weight,
        side: found.side,
        trees_packed: found.trees_packed,
        total_rounds: found.trees_packed as u64 * per_tree_rounds,
        estimate_iterations: found.estimate_iterations,
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network,
/// excise the dead, and pack trees on the surviving subgraph (which the
/// detection BFS guarantees is connected). The inner MST subroutine
/// re-derives the diameter once nodes are excised, since excision can
/// lengthen shortest paths ([`lcs_core::Excision::survivors_diameter`]);
/// detection rounds are charged on top.
fn degraded_min_cut(
    wg: &WeightedGraph,
    cfg: &MinCutConfig,
    plan: &FaultPlan,
) -> Result<MinCutOutcome, MinCutError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.mst.seed, cfg.mst.shards).map_err(MinCutError::Sim)?;
    if exc.survivors.len() < 2 {
        return Err(MinCutError::NotCuttable);
    }
    let inner = MinCutConfig {
        mst: MstConfig {
            faults: None,
            diameter: exc.survivors_diameter(cfg.mst.diameter),
            ..cfg.mst.clone()
        },
        ..cfg.clone()
    };
    let sub_wg = exc.induced_weighted(wg);
    let sub = approximate_min_cut(&sub_wg, &inner)?;
    let side: Vec<NodeId> = sub
        .side
        .iter()
        .map(|&v| exc.survivors[v as usize])
        .collect();
    Ok(MinCutOutcome {
        weight: sub.weight,
        side,
        trees_packed: sub.trees_packed,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        estimate_iterations: sub.estimate_iterations,
        degraded: Some(exc.outcome()),
    })
}

/// Convenience: ratio between the approximate result and the exact
/// Stoer–Wagner cut; `f64::INFINITY` when the exact cut weighs 0 and
/// the found one does not.
pub fn approximation_ratio(wg: &WeightedGraph, outcome: &MinCutOutcome) -> f64 {
    let exact = stoer_wagner(wg).map(|c| c.weight).unwrap_or(0);
    match (exact, outcome.weight) {
        (0, 0) => 1.0,
        (0, _) => f64::INFINITY,
        _ => outcome.weight as f64 / exact as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_congest::hash::Fnv;
    use lcs_graph::{cut_weight, gnp_connected, HighwayGraph, HighwayParams};
    use rand::seq::SliceRandom;

    fn weighted_fixture(seed: u64) -> WeightedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = gnp_connected(40, 0.12, &mut rng);
        WeightedGraph::with_random_weights(g, 20, &mut rng)
    }

    #[test]
    fn respecting_cut_on_a_path_tree_is_exact() {
        // Graph = weighted cycle; tree = the path (cycle minus one
        // edge). Every cut of a cycle is 2-respecting w.r.t. that path.
        let wg = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 4, 2), (4, 0, 4)],
        )
        .unwrap();
        let tree: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let (w, side) = min_respecting_cut(&wg, &tree, 0, u64::MAX, &mut CutBuffers::default());
        let exact = stoer_wagner(&wg).unwrap().weight;
        assert_eq!(w, exact);
        assert_eq!(cut_weight(&wg, &side), w);
    }

    #[test]
    fn approx_matches_exact_on_bridge_graph() {
        // A weight-0 bridge leaves the skeleton disconnected at every
        // sampling rate: the search must return that cut, and a cut
        // that misses it has an unbounded ratio.
        for bridge in [2, 0] {
            let wg = WeightedGraph::from_weighted_edges(
                6,
                &[
                    (0, 1, 9),
                    (1, 2, 9),
                    (2, 0, 9),
                    (3, 4, 9),
                    (4, 5, 9),
                    (5, 3, 9),
                    (2, 3, bridge),
                ],
            )
            .unwrap();
            let cfg = MinCutConfig {
                mst: MstConfig {
                    diameter: Some(3),
                    ..MstConfig::default()
                },
                ..MinCutConfig::default()
            };
            let out = approximate_min_cut(&wg, &cfg).unwrap();
            assert_eq!(out.weight, bridge);
            assert_eq!(cut_weight(&wg, &out.side), bridge);
            assert_eq!(approximation_ratio(&wg, &out), 1.0);
            let missed = MinCutOutcome {
                weight: 18,
                ..out.clone()
            };
            assert_eq!(approximation_ratio(&wg, &missed), 18.0 / bridge as f64);
        }
    }

    #[test]
    fn ratio_within_epsilon_on_random_graphs() {
        let mut worst: f64 = 1.0;
        for seed in 0..6 {
            let wg = weighted_fixture(seed);
            let cfg = MinCutConfig {
                epsilon: 0.25,
                seed,
                ..MinCutConfig::default()
            };
            let out = approximate_min_cut(&wg, &cfg).unwrap();
            // The returned side must evaluate to the claimed weight.
            assert_eq!(cut_weight(&wg, &out.side), out.weight, "seed {seed}");
            assert!(
                out.side.windows(2).all(|w| w[0] < w[1]),
                "side sorted ascending"
            );
            let r = approximation_ratio(&wg, &out);
            assert!(r >= 1.0 - 1e-9, "cannot beat the exact cut");
            worst = worst.max(r);
        }
        assert!(
            worst <= 1.25 + 1e-9,
            "worst ratio {worst} exceeded 1 + epsilon"
        );
    }

    #[test]
    fn highway_family_cut() {
        // The highway family's min cut is small (a path end column).
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 16,
            diameter: 4,
        })
        .unwrap();
        let wg = WeightedGraph::new(hw.graph().clone(), vec![1; hw.graph().m()]).unwrap();
        let cfg = MinCutConfig {
            mst: MstConfig {
                diameter: Some(4),
                ..MstConfig::default()
            },
            ..MinCutConfig::default()
        };
        let out = approximate_min_cut(&wg, &cfg).unwrap();
        let exact = stoer_wagner(&wg).unwrap().weight;
        assert_eq!(out.weight, exact);
        assert!(out.total_rounds > 0);
        assert!(out.trees_packed > 0);
    }

    #[test]
    fn degraded_min_cut_excises_and_matches_stoer_wagner() {
        use lcs_congest::{Crash, FaultPlan};
        // Two weight-9 triangles joined by a weight-2 bridge; node 4
        // (in the right triangle) crash-stops under lossy, corrupting
        // links. The survivors stay connected through the bridge.
        let wg = WeightedGraph::from_weighted_edges(
            6,
            &[
                (0, 1, 9),
                (1, 2, 9),
                (2, 0, 9),
                (3, 4, 9),
                (4, 5, 9),
                (5, 3, 9),
                (2, 3, 2),
            ],
        )
        .unwrap();
        let plan = FaultPlan {
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            crashes: vec![Crash {
                node: 4,
                at_round: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let cfg = MinCutConfig {
            mst: MstConfig {
                diameter: Some(3),
                faults: Some(plan),
                ..MstConfig::default()
            },
            ..MinCutConfig::default()
        };
        let out = approximate_min_cut(&wg, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("fault plan reports degradation");
        assert_eq!(deg.excluded_nodes, vec![4]);
        assert!(deg.extra_rounds > 0);
        assert!(out.side.iter().all(|&v| v != 4), "excised node in no side");

        // Differential reference: Stoer–Wagner on the survivors'
        // induced subgraph (survivors 0,1,2,3,5 → sub ids 0..=4).
        let sub = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 9), (1, 2, 9), (0, 2, 9), (3, 4, 9), (2, 3, 2)],
        )
        .unwrap();
        let exact = stoer_wagner(&sub).unwrap().weight;
        assert_eq!(out.weight, exact);
        assert_eq!(out.weight, 2, "the bridge is still the min cut");
        let side_sub: Vec<NodeId> = out
            .side
            .iter()
            .map(|&v| if v == 5 { 4 } else { v })
            .collect();
        assert_eq!(cut_weight(&sub, &side_sub), out.weight);
    }

    /// Without permanent crashes the excision is empty and the outcome
    /// is the fault-free run's plus the detection bill. The caller's
    /// diameter is two more than the fixture's exact one, and an empty
    /// excision keeps it: re-deriving it would price every packed tree
    /// at a different MST.
    #[test]
    fn degraded_min_cut_without_permanent_crashes_matches_fault_free() {
        use lcs_congest::FaultPlan;
        let wg = weighted_fixture(3);
        let d = lcs_graph::exact_diameter(wg.graph()).expect("connected fixture");
        let clean_cfg = MinCutConfig {
            epsilon: 0.25,
            seed: 3,
            mst: MstConfig {
                diameter: Some(d + 2),
                ..MstConfig::default()
            },
            ..MinCutConfig::default()
        };
        let clean = approximate_min_cut(&wg, &clean_cfg).unwrap();
        let plan = FaultPlan {
            drop_rate: 0.10,
            corrupt_rate: 0.05,
            ..FaultPlan::default()
        };
        let faulty_cfg = MinCutConfig {
            mst: MstConfig {
                faults: Some(plan.clone()),
                ..clean_cfg.mst.clone()
            },
            ..clean_cfg.clone()
        };
        let out = approximate_min_cut(&wg, &faulty_cfg).unwrap();
        let exc =
            detect_and_excise(wg.graph(), &plan, clean_cfg.mst.seed, clean_cfg.mst.shards).unwrap();
        assert!(exc.excluded.is_empty());
        assert_eq!(out.weight, clean.weight);
        assert_eq!(out.side, clean.side);
        assert_eq!(out.trees_packed, clean.trees_packed);
        assert_eq!(out.estimate_iterations, clean.estimate_iterations);
        assert_eq!(out.total_rounds, clean.total_rounds + exc.extra_rounds);
        assert_eq!(out.degraded, Some(exc.outcome()));
    }

    /// Brute-force reference for [`min_respecting_cut`]: weighs every
    /// subtree, then every `subtree(u) Δ subtree(v)` with `u` before
    /// `v` in DFS preorder, using `cut_weight`, and keeps the first
    /// strictly lighter cut (a pair must weigh more than 0).
    fn respecting_cut_oracle(
        wg: &WeightedGraph,
        tree: &[(NodeId, NodeId)],
        root: NodeId,
    ) -> (u64, Vec<NodeId>) {
        fn visit(
            v: NodeId,
            adj: &[Vec<NodeId>],
            parent: &mut [Option<NodeId>],
            seen: &mut [bool],
            order: &mut Vec<NodeId>,
        ) {
            seen[v as usize] = true;
            order.push(v);
            for &w in &adj[v as usize] {
                if !seen[w as usize] {
                    parent[w as usize] = Some(v);
                    visit(w, adj, parent, seen, order);
                }
            }
        }
        let n = wg.graph().n();
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in tree {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let (mut parent, mut seen, mut order) = (vec![None; n], vec![false; n], Vec::new());
        visit(root, &adj, &mut parent, &mut seen, &mut order);
        // subtree[u][x]: is u on the tree path from x up to the root?
        let mut subtree = vec![vec![false; n]; n];
        for x in 0..n as NodeId {
            for u in std::iter::successors(Some(x), |&y| parent[y as usize]) {
                subtree[u as usize][x as usize] = true;
            }
        }
        let mut best = (u64::MAX, Vec::new());
        for &u in &order[1..] {
            let su = &subtree[u as usize];
            let side: Vec<NodeId> = (0..n as NodeId).filter(|&x| su[x as usize]).collect();
            let w = cut_weight(wg, &side);
            if w < best.0 {
                best = (w, side);
            }
        }
        for (a, &u) in order.iter().enumerate().skip(1) {
            for &v in &order[a + 1..] {
                let (su, sv) = (&subtree[u as usize], &subtree[v as usize]);
                let side: Vec<NodeId> = (0..n as NodeId)
                    .filter(|&x| su[x as usize] != sv[x as usize])
                    .collect();
                let w = cut_weight(wg, &side);
                if w > 0 && w < best.0 {
                    best = (w, side);
                }
            }
        }
        best
    }

    /// Cliques of 1..=4 nodes on weight-9 edges, joined in a ring by
    /// unit edges: any two ring edges make a minimum cut, so many
    /// 2-respecting pairs tie.
    fn cluster_ring(rng: &mut ChaCha8Rng) -> WeightedGraph {
        let sizes: Vec<NodeId> = (0..rng.gen_range(3..9))
            .map(|_| rng.gen_range(1..=4))
            .collect();
        let starts: Vec<NodeId> = sizes
            .iter()
            .scan(0, |next, &size| {
                *next += size;
                Some(*next - size)
            })
            .collect();
        let mut edges = Vec::new();
        for c in 0..sizes.len() {
            let (at, size) = (starts[c], sizes[c]);
            for u in at..at + size {
                edges.extend((u + 1..at + size).map(|v| (u, v, 9)));
            }
            let d = (c + 1) % sizes.len();
            let (u, v) = (
                at + rng.gen_range(0..size),
                starts[d] + rng.gen_range(0..sizes[d]),
            );
            edges.push((u, v, 1));
        }
        WeightedGraph::from_weighted_edges(sizes.iter().sum::<NodeId>() as usize, &edges).unwrap()
    }

    #[test]
    fn min_respecting_cut_matches_brute_force_oracle() {
        // Connected G(n, p) with weights 1..=3 (ties), 1..=100, and
        // 0..=2 (zero-weight edges, where a pair can weigh 0 and is
        // skipped); then cluster rings, where 2-respecting cuts tie.
        // Each case runs at bounds 0, the oracle's weight, one more, a
        // random value and u64::MAX.
        let mut rng = ChaCha8Rng::seed_from_u64(0x0AC1E);
        let mut bound_rng = ChaCha8Rng::seed_from_u64(0xB0D);
        let mut buffers = CutBuffers::default();
        for case in 0..2700 {
            let wg = if case < 2100 {
                let n = rng.gen_range(3..40);
                let p = rng.gen_range(0.05..0.3);
                let g = gnp_connected(n, p, &mut rng);
                let (lo, hi) = [(1, 3), (1, 100), (0, 2)][case % 3];
                let weights = (0..g.m()).map(|_| rng.gen_range(lo..=hi)).collect();
                WeightedGraph::new(g, weights).unwrap()
            } else {
                cluster_ring(&mut rng)
            };
            let n = wg.graph().n();
            // A random spanning tree (Kruskal over shuffled edges),
            // listed in shuffled order, rooted at a random node.
            let mut edges = wg.graph().edges().to_vec();
            edges.shuffle(&mut rng);
            let mut uf = UnionFind::new(n);
            let mut tree: Vec<(NodeId, NodeId)> =
                edges.into_iter().filter(|&(u, v)| uf.union(u, v)).collect();
            tree.shuffle(&mut rng);
            let root = rng.gen_range(0..n as NodeId);
            // Below the bound the answer is the oracle's; otherwise it
            // is a real cut of at least the bound.
            let oracle = respecting_cut_oracle(&wg, &tree, root);
            let random = bound_rng.gen_range(0..=2 * oracle.0 + 1);
            for bound in [0, oracle.0, oracle.0 + 1, random, u64::MAX] {
                let (w, side) = min_respecting_cut(&wg, &tree, root, bound, &mut buffers);
                if oracle.0 < bound {
                    assert_eq!(
                        (w, &side),
                        (oracle.0, &oracle.1),
                        "case {case} bound {bound}: n={n} root={root} tree={tree:?}"
                    );
                } else {
                    assert!(w >= bound, "case {case} bound {bound}: weight {w}");
                    assert_eq!(cut_weight(&wg, &side), w, "case {case} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn min_cut_search_answers_are_pinned() {
        // 240 seeded instances: G(n, p) under five weight ranges,
        // cluster rings and small highway graphs, each family at every
        // ε of {0.1, 0.2, 0.5}. Weights are at least 1, so no answer is
        // a zero-weight cut.
        let mut rng = ChaCha8Rng::seed_from_u64(0x91C07);
        let mut fnv = Fnv::new();
        for case in 0..240u64 {
            let wg = match case % 8 {
                family @ 0..=4 => {
                    let n = rng.gen_range(4..60);
                    let g = gnp_connected(n, rng.gen_range(0.05..0.4), &mut rng);
                    let (lo, hi) =
                        [(1, 1), (1, 3), (1, 100), (50, 5000), (1, 1 << 36)][family as usize];
                    let weights = (0..g.m()).map(|_| rng.gen_range(lo..=hi)).collect();
                    WeightedGraph::new(g, weights).unwrap()
                }
                5 => cluster_ring(&mut rng),
                _ => {
                    let hw = HighwayGraph::new(HighwayParams {
                        num_paths: rng.gen_range(2..5),
                        path_len: rng.gen_range(6..16),
                        diameter: rng.gen_range(3..5),
                    })
                    .unwrap();
                    let g = hw.graph().clone();
                    WeightedGraph::with_random_weights(g, 20, &mut rng)
                }
            };
            let cfg = MinCutConfig {
                epsilon: [0.1, 0.2, 0.5][(case % 3) as usize],
                seed: case,
                ..MinCutConfig::default()
            };
            let out = min_cut_search(&wg, &cfg).unwrap();
            assert_eq!(cut_weight(&wg, &out.side), out.weight, "case {case}");
            fnv.u64(out.weight).u64(out.side.len() as u64);
            for &v in &out.side {
                fnv.u64(v.into());
            }
            fnv.u64(out.trees_packed as u64)
                .u64(out.estimate_iterations.into());
        }
        assert_eq!(fnv.finish(), 0x4723_4356_0599_f99f);
    }

    #[test]
    #[should_panic(expected = "needs a spanning tree")]
    fn min_respecting_cut_rejects_a_short_tree() {
        let wg = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        min_respecting_cut(
            &wg,
            &[(0, 1), (1, 2)],
            0,
            u64::MAX,
            &mut CutBuffers::default(),
        );
    }

    #[test]
    #[should_panic(expected = "needs a spanning tree")]
    fn min_respecting_cut_rejects_a_tree_that_misses_a_node() {
        // n − 1 edges, but a triangle leaves node 3 unreached.
        let wg =
            WeightedGraph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)])
                .unwrap();
        min_respecting_cut(
            &wg,
            &[(0, 1), (1, 2), (2, 0)],
            0,
            u64::MAX,
            &mut CutBuffers::default(),
        );
    }

    #[test]
    fn starved_sampling_still_returns_the_min_cut() {
        // With no sampling budget every skeleton is disconnected until
        // the estimate reaches 1; the next one must keep every edge.
        let wg =
            WeightedGraph::from_weighted_edges(4, &[(0, 1, 3), (1, 2, 2), (2, 3, 4), (3, 0, 1)])
                .unwrap();
        let exact = stoer_wagner(&wg).unwrap().weight;
        for cfg in [
            MinCutConfig {
                sampling_constant: 0.0,
                ..MinCutConfig::default()
            },
            MinCutConfig {
                epsilon: 1e9,
                ..MinCutConfig::default()
            },
        ] {
            let out = approximate_min_cut(&wg, &cfg).unwrap();
            assert_eq!(out.weight, exact, "{cfg:?}");
            assert_eq!(cut_weight(&wg, &out.side), exact, "{cfg:?}");
        }
    }

    #[test]
    fn rejects_uncuttable_inputs() {
        let single = WeightedGraph::from_weighted_edges(1, &[]).unwrap();
        assert_eq!(
            approximate_min_cut(&single, &MinCutConfig::default()).unwrap_err(),
            MinCutError::NotCuttable
        );
        let disc = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert_eq!(
            approximate_min_cut(&disc, &MinCutConfig::default()).unwrap_err(),
            MinCutError::NotCuttable
        );
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use lcs_graph::cut_weight;

    #[test]
    fn two_respecting_nested_pair_is_found() {
        // Tree = path 0-1-2-3-4 rooted at 0. The min cut {1,2} crosses
        // tree edges (0,1) and (2,3): the 2-respecting pair is the
        // *nested* subtrees of 1 and 3 (side = S_1 Δ S_3 = {1,2}).
        let wg = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 1), (1, 2, 10), (2, 3, 1), (3, 4, 10), (0, 4, 10)],
        )
        .unwrap();
        let tree: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let (w, side) = min_respecting_cut(&wg, &tree, 0, u64::MAX, &mut CutBuffers::default());
        assert_eq!(w, 2);
        assert_eq!(side, vec![1, 2]);
        assert_eq!(cut_weight(&wg, &side), 2);
        // Exact reference agrees.
        assert_eq!(stoer_wagner(&wg).unwrap().weight, 2);
    }

    #[test]
    fn one_respecting_beats_two_respecting_when_optimal_is_a_subtree() {
        // Min cut isolates node 4 (subtree of the path tree): a pure
        // 1-respecting cut.
        let wg = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 10), (1, 2, 10), (2, 3, 10), (3, 4, 1), (0, 4, 1)],
        )
        .unwrap();
        let tree: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let (w, side) = min_respecting_cut(&wg, &tree, 0, u64::MAX, &mut CutBuffers::default());
        assert_eq!(w, 2);
        assert!(side == vec![4] || side.len() == 4);
    }
}
