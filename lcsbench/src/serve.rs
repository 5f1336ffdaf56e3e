//! `serve` and `reweight`: one index on `HighwayGraph::balanced(1361,
//! 4)` (n = 1,370, 36 parts), built, round-tripped through bytes and
//! customized once in set-up, then queried by one client through a
//! one-worker `ServePool`.
//!
//! * `serve` — one operation is one single-query `serve` call from a
//!   fixed 16-query cycle of 6 SSSP (rotating sources), 5 aggregate
//!   (Sum, Max, Min), 4 MST and 1 min-cut.
//! * `reweight` — one operation customizes the index with a fresh
//!   weight vector (`CustomizedIndex::with_weights`) and serves one
//!   batch carrying an SSSP and an aggregate query.
//!
//! Every answer is checked against a centralized reference computed
//! once per weight vector, outside the timing.

use crate::clock::splitmix64;
use crate::pipeline::{build, check_built, config, Built, DIAMETER};
use crate::run::Ctx;
use crate::trace::SpanId;
use lcs_congest::AggOp;
use lcs_graph::{
    cut_weight, dijkstra, kruskal, stoer_wagner, HighwayGraph, NodeId, SpanningForest,
    WeightedGraph,
};
use lcs_serve::{aggregate_value, per_query_seed, CustomizedIndex, Query, QueryResult, ServePool};
use lcs_shortcut::Partition;
use std::sync::Arc;
use std::time::Instant;

/// `HighwayGraph::balanced(1361, 4)`: n = 1,370, 36 parts.
const N_TARGET: usize = 1361;
/// Edge weights are drawn from `1..=MAX_WEIGHT`.
const MAX_WEIGHT: u64 = 100;
/// Seeds of the served index's weights and of the pipeline run that
/// builds it. They do not follow `--seed`: query costs hinge on the one
/// weight draw and the one shortcut set, and with both drawn per seed
/// the SSSP median moved by 13–16 % (interquartile range) across seeds,
/// swamping the program's own variation. Sources, query seeds and
/// `reweight`'s weight vectors follow `--seed`.
const SERVED_WEIGHTS_SEED: u64 = 0x5E_0001;
const SERVED_PIPELINE_SEED: u64 = 0x5E_0002;
/// Set-up builds an index (about 55 ms) between two kernel ticks. It
/// runs once before the first operation and again after every this
/// many `serve` cycles, so the set-up median spans the host's speed
/// phases over the whole run, as the operation medians do.
const SETUP_EVERY_CYCLES: usize = 2;
/// The same for `reweight`, in batches of [`REWEIGHT_BATCH`].
const SETUP_EVERY_BATCHES: usize = 4;
/// `serve` cycles per requested second (a cycle is about 0.4 s with
/// its two kernel ticks).
const CYCLES_PER_S: f64 = 2.4;
/// Distinct weight vectors (each with its own SSSP source) `reweight`
/// cycles through.
const WEIGHT_VECTORS: usize = 128;
/// `reweight` operations per requested second (about 7 ms each, plus
/// a kernel tick per batch).
const REWEIGHT_OPS_PER_S: f64 = 100.0;
/// `reweight` operations between kernel ticks (about 130 ms).
const REWEIGHT_BATCH: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sssp,
    Agg,
    Mst,
    MinCut,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Sssp => "sssp",
            Kind::Agg => "agg",
            Kind::Mst => "mst",
            Kind::MinCut => "mincut",
        }
    }
}

/// One cycle of the `serve` stream, 6 SSSP : 5 aggregate : 4 MST : 1
/// min-cut, as two batches — the short queries (about 50 ms), then the
/// min-cut — each followed by a kernel tick.
const CYCLE: [&[Kind]; 2] = {
    use Kind::*;
    [
        &[
            Sssp, Agg, Mst, Sssp, Agg, Mst, Sssp, Agg, Sssp, Mst, Sssp, Agg, Mst, Sssp, Agg,
        ],
        &[MinCut],
    ]
};

const AGG_OPS: [AggOp; 3] = [AggOp::Sum, AggOp::Max, AggOp::Min];

fn random_weights(seed: u64, m: usize) -> Vec<u64> {
    (0..m as u64)
        .map(|e| 1 + splitmix64(seed ^ e.wrapping_mul(0x9E37_79B9)) % MAX_WEIGHT)
        .collect()
}

fn pick_node(seed: u64, n: usize) -> NodeId {
    (splitmix64(seed) % n as u64) as NodeId
}

/// The served index and what checking its answers needs.
struct Served {
    partition: Partition,
    built: Built,
    cx: Arc<CustomizedIndex>,
}

/// Set-up, timed as one batch of its own: partition, index build and
/// byte round trip, baseline customization.
fn set_up(ctx: &mut Ctx, hw: &HighwayGraph, weights: &[u64]) -> Served {
    let graph = hw.graph();
    let served = ctx.setup_batch(
        1,
        || hw.path_parts(),
        |ctx, parts| {
            let partition =
                Partition::new(graph, parts).expect("highway paths partition the graph");
            let cfg = config(SERVED_PIPELINE_SEED);
            let built = build(ctx, graph, weights, &partition, &cfg, None);
            built.map(|built| {
                let span = ctx.span("serve.with_weights", "baseline", None);
                let cx = Arc::new(CustomizedIndex::baseline(Arc::clone(&built.loaded)));
                ctx.end(span);
                Served {
                    partition,
                    built,
                    cx,
                }
            })
        },
    );
    served.unwrap_or_else(|e| panic!("set-up index build failed: {e}"))
}

/// The first set-up, whose index is served; it is checked like a
/// `construct` build.
fn first_set_up(ctx: &mut Ctx, hw: &HighwayGraph, weights: &[u64]) -> Served {
    ctx.tick();
    let served = set_up(ctx, hw, weights);
    let mut failures = Vec::new();
    check_built(ctx, &served.built, None, &mut failures);
    assert!(failures.is_empty(), "set-up index: {}", failures.join("; "));
    served
}

/// A repeated set-up, timed like the first; its index must equal the
/// served one byte for byte.
fn repeat_set_up(ctx: &mut Ctx, hw: &HighwayGraph, weights: &[u64], served: &Served) {
    let again = set_up(ctx, hw, weights);
    assert!(
        again.built.bytes == served.built.bytes,
        "a repeated set-up built a different index"
    );
}

/// The expected answer to an aggregate query: a direct fold of each
/// part's seed-derived values.
fn expected_aggregate(partition: &Partition, op: AggOp, seed: u64) -> Vec<u64> {
    (0..partition.num_parts())
        .map(|i| {
            partition.part(i).iter().fold(op.identity(), |acc, &v| {
                op.apply(acc, aggregate_value(seed, i, v))
            })
        })
        .collect()
}

/// What one answer is checked against.
struct Reference<'a> {
    partition: &'a Partition,
    /// Exact distances from the source of an SSSP query.
    dist: &'a [u64],
    /// Kruskal's forest, for MST queries.
    mst: Option<&'a SpanningForest>,
    /// The weighted graph min-cut sides are weighed on.
    cut_graph: Option<&'a WeightedGraph>,
}

/// Checks one answer; notes its counts. Returns the reported cut
/// weight of a min-cut answer, which the caller compares with
/// Stoer–Wagner once that reference exists.
fn check_answer(
    ctx: &mut Ctx,
    span: SpanId,
    query: &Query,
    result: &QueryResult,
    query_seed: u64,
    reference: &Reference,
    failures: &mut Vec<String>,
) -> Option<u64> {
    ctx.fold(result.fingerprint());
    match (query, result) {
        (_, QueryResult::Failed(why)) => failures.push(format!("query failed: {why}")),
        (
            Query::Sssp { max_iterations, .. },
            QueryResult::Sssp {
                dist, iterations, ..
            },
        ) => {
            ctx.note(span, "apps.sssp_iterations", f64::from(*iterations));
            let exact = reference.dist;
            let below = dist.len() != exact.len() || dist.iter().zip(exact).any(|(d, r)| d < r);
            if below {
                failures.push("sssp distance below Dijkstra".to_string());
            } else if iterations < max_iterations && dist.as_slice() != exact {
                failures.push("sssp fixpoint differs from Dijkstra".to_string());
            }
        }
        (Query::Aggregate { op }, QueryResult::Aggregate { per_part }) => {
            if *per_part != expected_aggregate(reference.partition, *op, query_seed) {
                failures.push("aggregate differs from the direct fold".to_string());
            }
        }
        (
            Query::Mst,
            QueryResult::Mst {
                edges,
                weight,
                phases,
            },
        ) => {
            ctx.note(span, "apps.mst_phases", f64::from(*phases));
            let forest = reference.mst.expect("MST queries have a Kruskal reference");
            if *weight != forest.weight || *edges != forest.edges {
                failures.push("MST differs from Kruskal".to_string());
            }
        }
        (
            Query::MinCut,
            QueryResult::MinCut {
                weight,
                side,
                trees_packed,
            },
        ) => {
            ctx.note(span, "apps.mincut_trees", *trees_packed as f64);
            let wg = reference
                .cut_graph
                .expect("min-cut queries have a weighted graph");
            if side.is_empty() || side.len() >= wg.graph().n() {
                failures.push("min-cut side is not a proper subset".to_string());
            } else if cut_weight(wg, side) != *weight {
                failures.push("min-cut side does not weigh the reported weight".to_string());
            }
            return Some(*weight);
        }
        _ => failures.push("answer kind does not match the query".to_string()),
    }
    None
}

/// Runs `serve`; returns its peak heap in MiB.
pub fn run_serve(ctx: &mut Ctx, seed: u64, seconds: u64) -> f64 {
    let span = ctx.span("graph.generate", "", None);
    let hw = HighwayGraph::balanced(N_TARGET, DIAMETER).expect("highway parameters are valid");
    let (n, m) = (hw.graph().n(), hw.graph().m());
    let weights = random_weights(SERVED_WEIGHTS_SEED, m);
    let wg = WeightedGraph::new(hw.graph().clone(), weights.clone()).expect("one weight per edge");
    // The whole query sequence: every SSSP query has a source of its
    // own, aggregates rotate through Sum, Max and Min.
    let cycles = (seconds as f64 * CYCLES_PER_S).ceil() as usize;
    let kinds = CYCLE.iter().flat_map(|batch| batch.iter());
    let mut aggregates = AGG_OPS.iter().cycle();
    let queries: Vec<(Kind, Query, u64)> = (0..cycles)
        .flat_map(|_| kinds.clone())
        .enumerate()
        .map(|(i, &kind)| {
            let seed = splitmix64(seed ^ 0x5E_1000_0000 ^ i as u64);
            let query = match kind {
                Kind::Sssp => Query::sssp(pick_node(seed, n)),
                Kind::Agg => Query::Aggregate {
                    op: *aggregates.next().expect("endless cycle"),
                },
                Kind::Mst => Query::Mst,
                Kind::MinCut => Query::MinCut,
            };
            (kind, query, seed)
        })
        .collect();
    ctx.end(span);

    let served = first_set_up(ctx, &hw, &weights);

    let span = ctx.span("graph.reference", "kruskal", None);
    let mst_ref = kruskal(&wg);
    ctx.end(span);

    let pool = ServePool::with_customization(Arc::clone(&served.cx), 1);
    let mut queries = queries.into_iter().enumerate();
    let mut cuts: Vec<(usize, u64, Vec<String>)> = Vec::new();
    for cycle in 0..cycles {
        for batch in CYCLE {
            for (op, (kind, query, batch_seed)) in queries.by_ref().take(batch.len()) {
                let op_span = ctx.span("op", kind.name(), Some(op));
                let t0 = Instant::now();
                let span = ctx.span("serve.serve", kind.name(), Some(op));
                let answer = pool.serve(std::slice::from_ref(&query), batch_seed);
                ctx.end(span);
                ctx.record(kind.name(), t0.elapsed());
                ctx.end(op_span);

                let dist_ref = match query {
                    Query::Sssp { source, .. } => {
                        let span = ctx.span("graph.reference", "dijkstra", Some(op));
                        let dist = dijkstra(&wg, source);
                        ctx.end(span);
                        dist
                    }
                    _ => Vec::new(),
                };
                let reference = Reference {
                    partition: &served.partition,
                    dist: &dist_ref,
                    mst: Some(&mst_ref),
                    cut_graph: Some(&wg),
                };
                let mut failures = Vec::new();
                let cut = check_answer(
                    ctx,
                    span,
                    &query,
                    &answer.results[0],
                    per_query_seed(batch_seed, 0),
                    &reference,
                    &mut failures,
                );
                match cut {
                    Some(weight) => cuts.push((op, weight, failures)),
                    None => ctx.finish_op(op, &failures),
                }
            }
            ctx.tick();
        }
        if (cycle + 1) % SETUP_EVERY_CYCLES == 0 {
            repeat_set_up(ctx, &hw, &weights, &served);
        }
    }
    let peak = ctx.peak_heap_mb();

    let span = ctx.span("graph.reference", "stoer_wagner", None);
    let min_cut = stoer_wagner(&wg).expect("the highway graph is connected");
    ctx.end(span);
    for (op, weight, mut failures) in cuts {
        if weight < min_cut.weight {
            failures.push(format!(
                "min-cut {weight} below Stoer-Wagner's {}",
                min_cut.weight
            ));
        }
        ctx.finish_op(op, &failures);
    }
    peak
}

/// Runs `reweight`; returns its peak heap in MiB.
pub fn run_reweight(ctx: &mut Ctx, seed: u64, seconds: u64) -> f64 {
    let span = ctx.span("graph.generate", "", None);
    let hw = HighwayGraph::balanced(N_TARGET, DIAMETER).expect("highway parameters are valid");
    let (n, m) = (hw.graph().n(), hw.graph().m());
    let weights = random_weights(SERVED_WEIGHTS_SEED, m);
    let vectors: Vec<Vec<u64>> = (0..WEIGHT_VECTORS as u64)
        .map(|k| random_weights(splitmix64(seed ^ 0x5E_2000 ^ k), m))
        .collect();
    let sources: Vec<NodeId> = (0..WEIGHT_VECTORS as u64)
        .map(|k| pick_node(seed ^ 0x5E_3000 ^ k, n))
        .collect();
    let batches = (seconds as f64 * REWEIGHT_OPS_PER_S / REWEIGHT_BATCH as f64).ceil() as usize;
    let ops = batches * REWEIGHT_BATCH;
    let batch_seeds: Vec<u64> = (0..ops as u64)
        .map(|i| splitmix64(seed ^ 0x5E_4000_0000 ^ i))
        .collect();
    ctx.end(span);

    let served = first_set_up(ctx, &hw, &weights);
    let index = Arc::clone(&served.built.loaded);

    let span = ctx.span("graph.reference", "dijkstra", None);
    let dist_refs: Vec<Vec<u64>> = vectors
        .iter()
        .zip(&sources)
        .map(|(w, &s)| {
            let wg =
                WeightedGraph::new(hw.graph().clone(), w.clone()).expect("one weight per edge");
            dijkstra(&wg, s)
        })
        .collect();
    ctx.end(span);

    for op in 0..ops {
        let k = op % WEIGHT_VECTORS;
        let agg = AGG_OPS[op % AGG_OPS.len()];
        let queries = [Query::sssp(sources[k]), Query::Aggregate { op: agg }];
        let fresh = vectors[k].clone();
        let op_span = ctx.span("op", "reweight", Some(op));
        let t0 = Instant::now();
        let span = ctx.span("serve.with_weights", "", Some(op));
        let cx = CustomizedIndex::with_weights(Arc::clone(&index), fresh);
        ctx.end(span);
        let answer = cx.map(|cx| {
            let pool = ServePool::with_customization(Arc::new(cx), 1);
            let span = ctx.span("serve.serve", "sssp+agg", Some(op));
            let answer = pool.serve(&queries, batch_seeds[op]);
            ctx.end(span);
            (answer, span)
        });
        ctx.record("reweight", t0.elapsed());
        ctx.end(op_span);

        let mut failures = Vec::new();
        match answer {
            Err(e) => failures.push(format!("with_weights: {e}")),
            Ok((answer, span)) => {
                let reference = Reference {
                    partition: &served.partition,
                    dist: &dist_refs[k],
                    mst: None,
                    cut_graph: None,
                };
                for (j, (query, result)) in queries.iter().zip(&answer.results).enumerate() {
                    let seed = per_query_seed(batch_seeds[op], j);
                    check_answer(ctx, span, query, result, seed, &reference, &mut failures);
                }
            }
        }
        ctx.finish_op(op, &failures);
        if (op + 1) % REWEIGHT_BATCH == 0 {
            ctx.tick();
            if (op + 1) % (REWEIGHT_BATCH * SETUP_EVERY_BATCHES) == 0 {
                repeat_set_up(ctx, &hw, &weights, &served);
            }
        }
    }
    ctx.peak_heap_mb()
}
