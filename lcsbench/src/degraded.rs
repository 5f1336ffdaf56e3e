//! `degraded`: the distributed construction under a fault plan on
//! `HighwayGraph::balanced(300, 4)` (n = 307, 17 parts). Every plan
//! drops 5 % of deliveries, delays 3 % by up to 2 rounds, corrupts
//! 5 %, permanently crashes 2–3 hash-picked non-leader nodes and
//! crashes one more node transiently (it rejoins). Each operation runs
//! the next plan and pipeline seed of a fixed list.

use crate::clock::splitmix64;
use crate::pipeline::{claimed, config, note_outcome, run_pipeline, verify_quality, DIAMETER};
use crate::run::Ctx;
use lcs_congest::{Crash, FaultPlan};
use lcs_core::{detect_and_excise, distributed_shortcuts, DistributedOutcome, Excision};
use lcs_graph::{bfs, BfsOptions, Graph, HighwayGraph, NodeId};
use lcs_shortcut::Partition;
use std::collections::HashSet;
use std::time::Instant;

/// `HighwayGraph::balanced(300, 4)`: n = 307, 17 parts.
const N_TARGET: usize = 300;
/// Operations per requested second (about 0.37 s each with the
/// kernel tick and the checks).
const OPS_PER_S: f64 = 2.7;
/// Set-up is one `Partition::new` of about 10 µs, too short to time
/// once; it runs in batches of this many back-to-back repetitions.
const SETUP_REPS: usize = 20;
/// One set-up batch runs before the first operation and one after
/// every this many operations, so the set-up median spans the host's
/// speed phases over the whole run, as the operation median does.
const SETUP_EVERY: usize = 2;
/// Round at which every crash happens.
const CRASH_ROUND: u64 = 2;
/// Round at which the transient node rejoins.
const REJOIN_ROUND: u64 = 40;

/// One operation's input.
struct Plan {
    pipeline_seed: u64,
    faults: FaultPlan,
    crashed: Vec<NodeId>,
    transient: NodeId,
}

/// The `i`-th plan: crash nodes are picked by hash among nodes that are
/// neither node 0 (it roots detection) nor a part leader, and the
/// transient node is one that still reaches node 0 around them, so it
/// must survive detection.
fn plan(seed: u64, i: u64, graph: &Graph, partition: &Partition) -> Plan {
    let leaders: HashSet<NodeId> = (0..partition.num_parts())
        .map(|p| partition.leader(p))
        .collect();
    let h = splitmix64(seed ^ splitmix64(0xDE_0000 + i));
    let n = graph.n() as u64;
    let mut draws = (1u64..).map(|j| (splitmix64(h ^ j) % n) as NodeId);
    let mut down: HashSet<NodeId> = HashSet::new();
    let mut crashed = Vec::new();
    while crashed.len() < 2 + (h & 1) as usize {
        let v = draws.next().expect("endless draws");
        if v != 0 && !leaders.contains(&v) && down.insert(v) {
            crashed.push(v);
        }
    }
    let up = |v: NodeId| !down.contains(&v);
    let around_down = bfs(
        graph,
        &[0],
        &BfsOptions {
            node_filter: Some(&up),
            ..BfsOptions::default()
        },
    );
    let transient = draws
        .find(|&v| v != 0 && around_down.reached(v))
        .expect("endless draws");
    let mut crashes: Vec<Crash> = crashed
        .iter()
        .map(|&node| Crash {
            node,
            at_round: CRASH_ROUND,
            recover_at: None,
        })
        .collect();
    crashes.push(Crash {
        node: transient,
        at_round: CRASH_ROUND,
        recover_at: Some(REJOIN_ROUND),
    });
    Plan {
        pipeline_seed: splitmix64(h ^ 0x5EED),
        faults: FaultPlan {
            drop_rate: 0.05,
            delay_rate: 0.03,
            max_delay: 2,
            corrupt_rate: 0.05,
            crashes,
            fault_seed: splitmix64(h ^ 0xFA17),
        },
        crashed,
        transient,
    }
}

/// The checks on one degraded run: every permanently crashed node is
/// excised, the transient node is kept, and the survivors' shortcuts
/// pass verification against the accepted parameters' bounds.
fn check(
    ctx: &mut Ctx,
    graph: &Graph,
    partition: &Partition,
    plan: &Plan,
    out: &DistributedOutcome,
    op: usize,
    failures: &mut Vec<String>,
) {
    let Some(degraded) = &out.degraded else {
        failures.push("no degradation report".to_string());
        return;
    };
    let excluded = &degraded.excluded_nodes;
    if !degraded.completed {
        failures.push("pipeline did not complete on the survivors".to_string());
    }
    if let Some(v) = plan.crashed.iter().find(|v| !excluded.contains(v)) {
        failures.push(format!("crashed node {v} was not excised"));
    }
    if excluded.contains(&plan.transient) {
        failures.push(format!("transient node {} was excised", plan.transient));
    }
    let n = graph.n();
    let mut new_id = vec![u32::MAX; n];
    let mut survivors = Vec::new();
    for v in 0..n as NodeId {
        if !excluded.contains(&v) {
            new_id[v as usize] = survivors.len() as u32;
            survivors.push(v);
        }
    }
    let excision = Excision {
        survivors,
        new_id,
        excluded: excluded.clone(),
        extra_rounds: degraded.extra_rounds,
        messages: 0,
        phase_stats: Vec::new(),
    };
    let sub_graph = excision.induced_graph(graph);
    let (sub_partition, to_orig) = excision.split_partition(&sub_graph, partition);
    let shortcuts = excision.restrict_shortcuts(graph, &sub_graph, &out.shortcuts, &to_orig);
    if let Err(e) = verify_quality(
        ctx,
        &sub_graph,
        &sub_partition,
        &shortcuts,
        claimed(out),
        Some(op),
    ) {
        failures.push(e);
    }
    ctx.fold(out.total_rounds);
    ctx.fold(out.total_messages);
    for &v in excluded {
        ctx.fold(u64::from(v));
    }
    for p in 0..out.shortcuts.num_parts() {
        for e in out.shortcuts.edges(p) {
            ctx.fold(u64::from(e.0));
        }
    }
}

/// Runs the workload; returns its peak heap in MiB.
pub fn run(ctx: &mut Ctx, seed: u64, seconds: u64) -> f64 {
    let span = ctx.span("graph.generate", "", None);
    let hw = HighwayGraph::balanced(N_TARGET, DIAMETER).expect("highway parameters are valid");
    let graph = hw.graph().clone();
    let parts = hw.path_parts();
    let partition =
        Partition::new(&graph, parts.clone()).expect("highway paths partition the graph");
    let ops = (seconds as f64 * OPS_PER_S).ceil() as u64;
    let plans: Vec<Plan> = (0..ops)
        .map(|i| plan(seed, i, &graph, &partition))
        .collect();
    ctx.end(span);

    let set_up = |ctx: &mut Ctx| {
        ctx.setup_batch(
            SETUP_REPS,
            || parts.clone(),
            |_, parts| Partition::new(&graph, parts).expect("highway paths partition the graph"),
        )
    };
    ctx.tick();
    let partition = set_up(ctx);

    for (i, plan) in plans.iter().enumerate() {
        let cfg = lcs_core::DistributedConfig {
            faults: Some(plan.faults.clone()),
            ..config(plan.pipeline_seed)
        };
        let op = ctx.span("op", "degraded", Some(i));
        let t0 = Instant::now();
        let (out, span) = run_pipeline(ctx, &graph, &partition, &cfg, Some(i));
        ctx.record("degraded", t0.elapsed());
        ctx.end(op);
        ctx.tick();
        if (i + 1) % SETUP_EVERY == 0 {
            set_up(ctx);
        }

        let mut failures = Vec::new();
        match &out {
            Err(e) => failures.push(format!("distributed_shortcuts: {e}")),
            Ok(out) => {
                note_outcome(ctx, span, out);
                check(ctx, &graph, &partition, plan, out, i, &mut failures);
            }
        }
        if ctx.trace.on() {
            // The detection phase alone, on the same plan and seed.
            let span = ctx.span("core.detect_and_excise", "", Some(i));
            let excision = detect_and_excise(&graph, &plan.faults, cfg.seed, cfg.shards);
            ctx.end(span);
            let same = match (&excision, &out) {
                (Ok(x), Ok(out)) => out
                    .degraded
                    .as_ref()
                    .is_some_and(|d| d.excluded_nodes == x.excluded),
                _ => false,
            };
            if !same {
                failures.push("detect_and_excise disagrees with the pipeline".to_string());
            }
            // The same pipeline seed without faults, for the share of
            // messages the faults add.
            let span = ctx.span("graph.reference", "fault_free", Some(i));
            let fault_free = distributed_shortcuts(&graph, &partition, &config(plan.pipeline_seed));
            ctx.end(span);
            match (&fault_free, &out) {
                (Ok(free), Ok(out)) => ctx.note(
                    span,
                    "congest.useful_ratio",
                    free.total_messages as f64 / out.total_messages as f64,
                ),
                (Err(e), _) => failures.push(format!("fault-free distributed_shortcuts: {e}")),
                _ => {}
            }
        }
        ctx.finish_op(i, &failures);
    }
    ctx.peak_heap_mb()
}
