//! `construct`: the paper's construction end to end on the highway
//! lower-bound instance, with the diameter left to the guess ladder.
//! One operation builds, freezes, serializes and reloads an index under
//! the next pipeline seed of a fixed list.

use crate::clock::splitmix64;
use crate::pipeline::{build, check_built, config, DIAMETER};
use crate::run::Ctx;
use lcs_graph::HighwayGraph;
use lcs_shortcut::Partition;
use std::time::Instant;

/// `HighwayGraph::balanced(2500, 4)`: n = 2,551, m = 5,000, 50 parts.
const N_TARGET: usize = 2500;
/// Operations per requested second: one build with its kernel tick
/// and its exact verification takes about 0.25 s on the nominal host.
const OPS_PER_S: f64 = 4.0;
/// Set-up is one `Partition::new` of about 0.1 ms, too short to time
/// once; it runs in batches of this many back-to-back repetitions.
const SETUP_REPS: usize = 20;
/// One set-up batch runs before the first operation and one after
/// every this many operations, so the set-up median spans the host's
/// speed phases over the whole run, as the operation median does.
const SETUP_EVERY: usize = 3;

/// Runs the workload; returns its peak heap in MiB.
pub fn run(ctx: &mut Ctx, seed: u64, seconds: u64) -> f64 {
    let span = ctx.span("graph.generate", "", None);
    let hw = HighwayGraph::balanced(N_TARGET, DIAMETER).expect("highway parameters are valid");
    let graph = hw.graph().clone();
    let parts = hw.path_parts();
    let weights = vec![1u64; graph.m()];
    ctx.end(span);
    let ops = (seconds as f64 * OPS_PER_S).ceil() as usize;
    let seeds: Vec<u64> = (0..ops as u64)
        .map(|i| splitmix64(seed ^ splitmix64(0xC0_0000 + i)))
        .collect();

    let set_up = |ctx: &mut Ctx| {
        ctx.setup_batch(
            SETUP_REPS,
            || parts.clone(),
            |_, parts| Partition::new(&graph, parts).expect("highway paths partition the graph"),
        )
    };
    ctx.tick();
    let partition = set_up(ctx);

    for (i, &pipeline_seed) in seeds.iter().enumerate() {
        let cfg = config(pipeline_seed);
        let op = ctx.span("op", "build", Some(i));
        let t0 = Instant::now();
        let built = build(ctx, &graph, &weights, &partition, &cfg, Some(i));
        ctx.record("build", t0.elapsed());
        ctx.end(op);
        ctx.tick();
        if (i + 1) % SETUP_EVERY == 0 {
            set_up(ctx);
        }

        let mut failures = Vec::new();
        match &built {
            Ok(b) => check_built(ctx, b, Some(i), &mut failures),
            Err(e) => failures.push(e.clone()),
        }
        ctx.finish_op(i, &failures);
    }
    ctx.peak_heap_mb()
}
