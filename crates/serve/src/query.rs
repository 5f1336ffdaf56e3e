//! Query kinds and their execution against a [`CustomizedIndex`].
//!
//! Every kind is deterministic in `(customized index, query, seed)` —
//! the seed is the *only* randomness a query may consume — so batches
//! reproduce bit for bit regardless of which pool worker answers which
//! query. Each kind reads only what its answer depends on:
//!
//! * SSSP runs [`lcs_apps::relax_partwise`], the relaxation loop
//!   [`lcs_apps::shortcut_sssp`] runs, with each part's minimum folded
//!   over its members under the customization's depth table;
//! * aggregation folds over the part members each frozen tree lists
//!   ([`ShortcutIndex::part_paths`](lcs_shortcut::ShortcutIndex::part_paths)),
//!   not over the shortcut nodes of other parts, which fold the
//!   identity;
//! * MST is computed once per customization by [`lcs_apps::boruvka`],
//!   from the weighted graph alone, and cloned for every later query;
//! * min-cut runs [`lcs_apps::min_cut_search`] alone, without the MST
//!   run [`lcs_apps::approximate_min_cut`] makes to price its rounds.
//!
//! The differential suite (`tests/differential.rs`) holds each kind
//! byte-identical to the corresponding one-shot pipeline:
//! [`lcs_apps::shortcut_sssp`], [`lcs_apps::mst_via_shortcuts`],
//! [`AggregationSetup`](lcs_shortcut::AggregationSetup) aggregation,
//! and [`lcs_apps::approximate_min_cut`].

use crate::customize::CustomizedIndex;
use lcs_apps::{boruvka, min_cut_search, relax_partwise, MinCutConfig, MstConfig};
use lcs_congest::hash::{splitmix64, Fnv};
use lcs_congest::AggOp;
use lcs_graph::{EdgeId, NodeId};

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
            QueryResult::Sssp { dist, iterations } => {
                f.u64(1);
                for &d in dist {
                    f.u64(d);
                }
                f.u64(u64::from(*iterations));
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
        Query::Mst => mst(cx),
        Query::Aggregate { op } => aggregate(cx, op, seed),
        Query::MinCut => min_cut(cx, seed),
    }
}

/// The interleaved Bellman–Ford + partwise tree relaxation under the
/// customization's depth table — the loop [`lcs_apps::shortcut_sssp`]
/// runs, so distances and iteration count are byte-identical to it on
/// the same inputs (the differential suite pins this).
fn sssp(cx: &CustomizedIndex, source: NodeId, max_iterations: u32) -> QueryResult {
    let wg = cx.weighted_graph();
    let n = wg.graph().n();
    if source as usize >= n {
        return QueryResult::Failed(format!("sssp source {source} out of range (n={n})"));
    }
    let (dist, iterations) = relax_partwise(
        wg,
        cx.index().partition(),
        cx.depths(),
        source,
        max_iterations,
    );
    QueryResult::Sssp { dist, iterations }
}

/// The customization's MST answer: the first query computes it by
/// [`lcs_apps::boruvka`], and every later one clones it. Boruvka merges
/// on the exact minimum `(weight, edge id)`, so the edges, weight, phase
/// count and an encoding overflow depend only on the weighted graph,
/// and equal what [`lcs_apps::mst_via_shortcuts`] returns under any
/// seed and shortcut strategy.
fn mst(cx: &CustomizedIndex) -> QueryResult {
    cx.mst
        .get_or_init(|| match boruvka(cx.weighted_graph()) {
            Ok(forest) => QueryResult::Mst {
                edges: forest.edges,
                weight: forest.weight,
                phases: forest.phases,
            },
            Err(e) => QueryResult::Failed(format!("mst: {e}")),
        })
        .clone()
}

fn aggregate(cx: &CustomizedIndex, op: AggOp, seed: u64) -> QueryResult {
    let paths = cx.index().part_paths();
    QueryResult::Aggregate {
        per_part: paths.aggregate_members(op, |v, part| aggregate_value(seed, part, v)),
    }
}

/// The min-cut configuration an index-served [`Query::MinCut`] runs
/// under, whose MST part the one-shot min-cut prices rounds with —
/// exposed for the differential suite.
pub fn min_cut_config(cx: &CustomizedIndex, seed: u64) -> MinCutConfig {
    MinCutConfig {
        seed,
        mst: MstConfig {
            seed,
            diameter: cx.index().meta().diameter,
            ..MstConfig::default()
        },
        ..MinCutConfig::default()
    }
}

/// The cut search alone: the served answer carries no round count, so
/// the MST run [`lcs_apps::approximate_min_cut`] prices rounds with is
/// skipped. Weight, side and trees packed equal the one-shot run's.
fn min_cut(cx: &CustomizedIndex, seed: u64) -> QueryResult {
    match min_cut_search(cx.weighted_graph(), &min_cut_config(cx, seed)) {
        Ok(out) => QueryResult::MinCut {
            weight: out.weight,
            side: out.side,
            trees_packed: out.trees_packed as u64,
        },
        Err(e) => QueryResult::Failed(format!("min-cut: {e}")),
    }
}
