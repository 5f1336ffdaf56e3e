//! Query kinds and their execution against a [`CustomizedIndex`].
//!
//! Every kind is deterministic in `(customized index, query, seed)` —
//! the seed is the *only* randomness a query may consume — so batches
//! reproduce bit for bit regardless of which pool worker answers which
//! query. The differential suite (`tests/differential.rs`) holds each
//! kind byte-identical to the corresponding one-shot pipeline:
//! [`lcs_apps::shortcut_sssp`], [`lcs_apps::mst_via_shortcuts`],
//! [`AggregationSetup`](lcs_shortcut::AggregationSetup) aggregation,
//! and [`lcs_apps::approximate_min_cut`].

use crate::customize::CustomizedIndex;
use lcs_apps::{approximate_min_cut, mst_via_shortcuts, MinCutConfig, MstConfig};
use lcs_congest::hash::{splitmix64, Fnv};
use lcs_congest::AggOp;
use lcs_graph::{EdgeId, NodeId, W_UNREACHABLE};

/// One request against the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Single-source shortest paths (upper bounds) from `source` via
    /// interleaved Bellman–Ford + partwise tree relaxations.
    Sssp {
        /// The source node.
        source: NodeId,
        /// Outer-iteration cap (pass ≥ `n` for the exact fixpoint).
        max_iterations: u32,
    },
    /// Minimum spanning tree via Boruvka over the index shortcuts.
    Mst,
    /// One partwise aggregation sweep: every part folds a
    /// seed-derived value per member under `op`.
    Aggregate {
        /// The fold operator.
        op: AggOp,
    },
    /// `(1+ε)`-approximate min cut (tree packing on skeletons).
    MinCut,
}

impl Query {
    /// SSSP from `source` with a convergence-sized iteration cap.
    pub fn sssp(source: NodeId) -> Self {
        Query::Sssp {
            source,
            max_iterations: 4096,
        }
    }
}

/// A query's answer. Integer payloads only, so results fingerprint and
/// compare exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Answer to [`Query::Sssp`].
    Sssp {
        /// Distance upper bounds per node.
        dist: Vec<u64>,
        /// Outer iterations until fixpoint (or cap).
        iterations: u32,
        /// Accounted rounds (Bellman–Ford sweeps + scheduled
        /// aggregations), same accounting as the one-shot pipeline.
        total_rounds: u64,
    },
    /// Answer to [`Query::Mst`].
    Mst {
        /// MST/MSF edges, sorted by id.
        edges: Vec<EdgeId>,
        /// Total tree weight.
        weight: u64,
        /// Boruvka phases used.
        phases: u32,
    },
    /// Answer to [`Query::Aggregate`].
    Aggregate {
        /// The per-part fold results, in part order.
        per_part: Vec<u64>,
    },
    /// Answer to [`Query::MinCut`].
    MinCut {
        /// Best cut weight found.
        weight: u64,
        /// One side of the cut, sorted.
        side: Vec<NodeId>,
        /// Trees packed across estimate rounds.
        trees_packed: u64,
    },
    /// The query could not be answered (e.g. MST encoding overflow).
    Failed(String),
}

impl QueryResult {
    /// FNV-1a fingerprint of the integer payload (stable across hosts
    /// and pool sizes).
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv::new();
        match self {
            QueryResult::Sssp {
                dist,
                iterations,
                total_rounds,
            } => {
                f.u64(1);
                for &d in dist {
                    f.u64(d);
                }
                f.u64(u64::from(*iterations)).u64(*total_rounds);
            }
            QueryResult::Mst {
                edges,
                weight,
                phases,
            } => {
                f.u64(2);
                for e in edges {
                    f.u64(u64::from(e.0));
                }
                f.u64(*weight).u64(u64::from(*phases));
            }
            QueryResult::Aggregate { per_part } => {
                f.u64(3);
                for &v in per_part {
                    f.u64(v);
                }
            }
            QueryResult::MinCut {
                weight,
                side,
                trees_packed,
            } => {
                f.u64(4);
                f.u64(*weight);
                for &v in side {
                    f.u64(u64::from(v));
                }
                f.u64(*trees_packed);
            }
            QueryResult::Failed(why) => {
                f.u64(5);
                for &b in why.as_bytes() {
                    f.u64(u64::from(b));
                }
            }
        }
        f.finish()
    }
}

/// The deterministic per-member value an [`Query::Aggregate`] folds:
/// a seed-derived pseudo-random 16-bit payload (small enough that
/// `Sum` over any part cannot overflow). Public so differential tests
/// can replay the identical workload through the one-shot pipeline.
pub fn aggregate_value(seed: u64, part: usize, v: NodeId) -> u64 {
    splitmix64(seed ^ ((part as u64) << 32) ^ u64::from(v)) & 0xFFFF
}

/// Answers one query against the customized index, deterministically
/// in `(cx, query, seed)`.
pub(crate) fn answer(cx: &CustomizedIndex, query: &Query, seed: u64) -> QueryResult {
    match *query {
        Query::Sssp {
            source,
            max_iterations,
        } => sssp(cx, source, max_iterations),
        Query::Mst => mst(cx, seed),
        Query::Aggregate { op } => aggregate(cx, op, seed),
        Query::MinCut => min_cut(cx, seed),
    }
}

/// The interleaved Bellman–Ford + partwise tree relaxation, driven by
/// the **customized tables** (frozen trees + recomputed weighted
/// depths) instead of rebuilding them per call. Distances, iteration
/// count, and round accounting are byte-identical to
/// [`lcs_apps::shortcut_sssp`] on the same inputs — the differential
/// suite pins this.
fn sssp(cx: &CustomizedIndex, source: NodeId, max_iterations: u32) -> QueryResult {
    let wg = cx.weighted_graph();
    let g = wg.graph();
    let n = g.n();
    if source as usize >= n {
        return QueryResult::Failed(format!("sssp source {source} out of range (n={n})"));
    }
    let setup = cx.setup();
    let depths = cx.depths();
    let partition = cx.index().partition();
    let agg_rounds = setup.schedule_cost().rounds_no_precompute(n.max(2)) * 2;

    let mut dist = vec![W_UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut total_rounds = 0u64;
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let mut changed = false;
        // (a) one Bellman-Ford sweep: 1 round.
        total_rounds += 1;
        let snapshot = dist.clone();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let w = wg.weight(e);
            if snapshot[u as usize] != W_UNREACHABLE && snapshot[u as usize] + w < dist[v as usize]
            {
                dist[v as usize] = snapshot[u as usize] + w;
                changed = true;
            }
            if snapshot[v as usize] != W_UNREACHABLE && snapshot[v as usize] + w < dist[u as usize]
            {
                dist[u as usize] = snapshot[v as usize] + w;
                changed = true;
            }
        }
        // (b) partwise tree relaxation over the frozen trees.
        total_rounds += agg_rounds;
        for (tree, depth) in setup.trees.iter().zip(depths.iter()) {
            let mut a = W_UNREACHABLE;
            for &(v, _) in &tree.members {
                if partition.part_of(v) == Some(tree.part as u32)
                    && dist[v as usize] != W_UNREACHABLE
                {
                    a = a.min(dist[v as usize] + depth[&v]);
                }
            }
            if a == W_UNREACHABLE {
                continue;
            }
            for &(v, _) in &tree.members {
                if partition.part_of(v) == Some(tree.part as u32) {
                    let cand = a + depth[&v];
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                        changed = true;
                    }
                }
            }
        }
        if !changed || iterations >= max_iterations {
            break;
        }
    }
    QueryResult::Sssp {
        dist,
        iterations,
        total_rounds,
    }
}

/// The MST configuration an index-served [`Query::Mst`] (and the
/// min-cut's MST subroutine) runs under — exposed so differential
/// tests can run the identical one-shot pipeline.
pub fn mst_config(cx: &CustomizedIndex, seed: u64) -> MstConfig {
    MstConfig {
        seed,
        diameter: cx.index().meta().diameter,
        ..MstConfig::default()
    }
}

fn mst(cx: &CustomizedIndex, seed: u64) -> QueryResult {
    match mst_via_shortcuts(cx.weighted_graph(), &mst_config(cx, seed)) {
        Ok(out) => QueryResult::Mst {
            edges: out.edges,
            weight: out.weight,
            phases: out.phases,
        },
        Err(e) => QueryResult::Failed(format!("mst: {e}")),
    }
}

fn aggregate(cx: &CustomizedIndex, op: AggOp, seed: u64) -> QueryResult {
    let partition = cx.index().partition();
    let value = |v: NodeId, part: usize| -> u64 {
        if partition.part_of(v) == Some(part as u32) {
            aggregate_value(seed, part, v)
        } else {
            op.identity()
        }
    };
    QueryResult::Aggregate {
        per_part: cx.setup().aggregate_centralized(op, &value),
    }
}

/// The min-cut configuration an index-served [`Query::MinCut`] runs
/// under — exposed for the differential suite.
pub fn min_cut_config(cx: &CustomizedIndex, seed: u64) -> MinCutConfig {
    MinCutConfig {
        seed,
        mst: mst_config(cx, seed),
        ..MinCutConfig::default()
    }
}

fn min_cut(cx: &CustomizedIndex, seed: u64) -> QueryResult {
    match approximate_min_cut(cx.weighted_graph(), &min_cut_config(cx, seed)) {
        Ok(out) => QueryResult::MinCut {
            weight: out.weight,
            side: out.side,
            trees_packed: out.trees_packed as u64,
        },
        Err(e) => QueryResult::Failed(format!("min-cut: {e}")),
    }
}
