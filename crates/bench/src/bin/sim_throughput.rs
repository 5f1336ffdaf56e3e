//! Simulator throughput benchmark: rounds/sec and messages/sec of the
//! CONGEST engine on standard workloads (idle rounds, saturated
//! message path, flood, sparse long-path BFS, multi-BFS, partwise
//! aggregation, a composed session pipeline), emitted as
//! `BENCH_sim.json` so the engine's perf trajectory is tracked per-PR.
//!
//! Usage: `sim_throughput [--quick] [--shards K[,K2,...]] [--reps N]
//! [--out PATH] [--check PATH]`
//!
//! `--quick` shrinks the workloads to CI scale. `--shards` takes a
//! comma-separated sweep of shard counts (e.g. `--shards 1,2,4,8`);
//! shard count 1 is always measured first as the baseline. `--reps N`
//! repeats every workload `N` times and records the median elapsed
//! time (recommended: `--reps 3` when regenerating `BENCH_sim.json`,
//! so a scheduler hiccup on the bench host cannot masquerade as a
//! regression); statistics must be identical across repetitions or the
//! run aborts. For every workload the run records a
//! [`RunStats::fingerprint`] and a speedup relative to the 1-shard
//! baseline, and **exits nonzero if any sharded run's statistics
//! diverge from the sequential run's** — CI runs `--quick --shards
//! 1,4` and relies on that exit code as the shard determinism gate
//! (the gate covers the event-driven active-set engine's sparsest
//! workloads — `idle` and `sparse_bfs` — alongside the saturated ones, so
//! an active-set scheduling divergence fails the build).
//!
//! Two workloads run at **large scale** — `large_bfs` and
//! `large_flood` on a 10⁶-node grid (40 000 nodes under `--quick`, so
//! the CI determinism gate exercises the same code path at CI cost) —
//! covering the memory-lean u32/CSR representations at the graph sizes
//! the shortcut-quality experiments need.
//!
//! `--check PATH` compares the run against a committed
//! `BENCH_sim.json` instead of writing one: the mode and the
//! `(workload, shards)` set must match (exit 2 if not), and every
//! workload's rounds, messages and stats fingerprint must equal the
//! committed ones (exit 1 if not). CI runs `--quick --shards 1,4
//! --check BENCH_sim.json`, so a change to what any engine workload
//! decides fails the build until the file is regenerated.

use lcs_bench::sim_workloads::{multi_bfs_spec, Clock, Saturate};
use lcs_bench::{check_records, value_flag};
use lcs_congest::{
    positions_from_tree, AggOp, Bfs, MultiAggregate, MultiBfs, Participation, Protocol, RoundCtx,
    RunStats, Session, SimConfig, TreeAggregate,
};
use lcs_graph::{generators, Graph};
use std::time::Instant;

/// Flood protocol (same shape as the engine's own smoke test): node 0
/// fires a token that everyone forwards once. Message-light, round-heavy
/// — measures per-round engine overhead. A node's state is `(seen,
/// fired)`.
struct Flood;

impl Protocol for Flood {
    type Msg = u32;
    type State = (bool, bool);
    type Output = ();
    fn init(&mut self, graph: &Graph) -> Vec<(bool, bool)> {
        vec![(false, false); graph.n()]
    }
    fn round(&self, (seen, fired): &mut (bool, bool), ctx: &mut RoundCtx<'_, u32>) {
        if ctx.round() == 0 && ctx.node() == 0 {
            *seen = true;
        }
        if !*seen && !ctx.inbox().is_empty() {
            *seen = true;
        }
        if *seen && !*fired {
            *fired = true;
            for i in 0..ctx.degree() {
                ctx.send(ctx.neighbors()[i], 1);
            }
        }
    }
    fn halted(&self, &(seen, fired): &(bool, bool)) -> bool {
        fired || !seen
    }
    fn finish(self, _: &Graph, _: Vec<(bool, bool)>, _: &RunStats) {}
}

#[derive(Debug, Clone)]
struct Measurement {
    name: String,
    n: usize,
    m: usize,
    shards: usize,
    rounds: u64,
    messages: u64,
    elapsed_s: f64,
    /// [`RunStats::fingerprint`] of the run (the cumulative session
    /// fingerprint for composed workloads).
    stats_fingerprint: u64,
    /// Wall-clock speedup over the 1-shard run of the same workload
    /// (filled in after the sweep; 1.0 for the baseline itself).
    speedup_vs_1shard: f64,
    /// Per-phase breakdown for composed (Session) workloads:
    /// `(label, rounds, messages, fingerprint)`; empty for
    /// single-protocol workloads.
    phases: Vec<(String, u64, u64, u64)>,
}

impl Measurement {
    fn from_stats(name: &str, g: &Graph, shards: usize, stats: &RunStats, secs: f64) -> Self {
        Measurement {
            name: name.to_string(),
            n: g.n(),
            m: g.m(),
            shards,
            rounds: stats.rounds,
            messages: stats.messages,
            elapsed_s: secs,
            stats_fingerprint: stats.fingerprint(),
            speedup_vs_1shard: 1.0,
            phases: Vec::new(),
        }
    }

    fn json(&self) -> String {
        let phases = if self.phases.is_empty() {
            String::new()
        } else {
            let body = self
                .phases
                .iter()
                .map(|(label, rounds, messages, fp)| {
                    format!(
                        concat!(
                            "{{\"label\":\"{}\",\"rounds\":{},",
                            "\"messages\":{},\"fingerprint\":\"{:#018x}\"}}"
                        ),
                        label, rounds, messages, fp
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(",\"phases\":[{body}]")
        };
        format!(
            concat!(
                "{{\"name\":\"{}\",\"n\":{},\"m\":{},\"shards\":{},",
                "\"rounds\":{},\"messages\":{},\"elapsed_s\":{:.6},",
                "\"rounds_per_s\":{:.1},\"messages_per_s\":{:.1},",
                "\"stats_fingerprint\":\"{:#018x}\",\"speedup_vs_1shard\":{:.3}{}}}"
            ),
            self.name,
            self.n,
            self.m,
            self.shards,
            self.rounds,
            self.messages,
            self.elapsed_s,
            self.rounds as f64 / self.elapsed_s,
            self.messages as f64 / self.elapsed_s,
            self.stats_fingerprint,
            self.speedup_vs_1shard,
            phases,
        )
    }
}

fn cfg_with(shards: usize, max_rounds: u64) -> SimConfig {
    SimConfig {
        max_rounds,
        shards,
        ..SimConfig::default()
    }
}

fn bench_flood(name: &str, g: &Graph, shards: usize) -> Measurement {
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, 1_000_000));
    session.run(Flood).expect("flood");
    Measurement::from_stats(name, g, shards, session.stats(), t.elapsed().as_secs_f64())
}

/// Single-source BFS on the large grid: the scale workload. Frontier
/// waves cross a graph whose slot/occupancy/adjacency arrays are far
/// bigger than the last-level cache, so this measures the engine's
/// memory behaviour (and the u32-id CSR layout) rather than its
/// per-round bookkeeping.
fn bench_large_bfs(g: &Graph, side: usize, shards: usize) -> Measurement {
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(Bfs::new(0))
        .expect("large_bfs");
    assert_eq!(out.depth() as usize, 2 * (side - 1), "grid BFS depth");
    Measurement::from_stats(
        "large_bfs",
        g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
}

fn bench_multi_bfs(g: &Graph, instances: usize, shards: usize) -> Measurement {
    let spec = multi_bfs_spec(g.n(), instances);
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(MultiBfs::new(spec))
        .expect("multi_bfs");
    Measurement::from_stats(
        "multi_bfs",
        g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
}

fn bench_multi_aggregate(g: &Graph, instances: usize, shards: usize) -> Measurement {
    let bfs = Session::new(g, SimConfig::default())
        .run(Bfs::new(0))
        .expect("bfs tree");
    let parts: Vec<Vec<Participation>> = (0..g.n())
        .map(|v| {
            (0..instances as u32)
                .map(|inst| Participation {
                    inst,
                    parent: bfs.parent[v],
                    children: bfs.children[v].clone(),
                    value: v as u64 + inst as u64,
                })
                .collect()
        })
        .collect();
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(MultiAggregate::new(parts, AggOp::Sum, true))
        .expect("multi_aggregate");
    Measurement::from_stats(
        "multi_aggregate",
        g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
}

/// Composed-session workload: a sequential bfs → aggregate pipeline
/// through ONE engine (single pool spawn), reporting the cumulative
/// stats plus the per-phase breakdown. Its fingerprint feeds the shard
/// determinism gate, so *composition* — not just individual protocols —
/// is covered by the CI `--shards 1,4` check.
fn bench_session_pipeline(g: &Graph, shards: usize) -> Measurement {
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, 10_000_000));
    let bfs = session.run(Bfs::new(0)).expect("pipeline bfs");
    let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let (res, _) = session
        .run(TreeAggregate::new(pos, &values, AggOp::Sum, true))
        .expect("pipeline aggregate");
    assert_eq!(res[0], Some((0..g.n() as u64).sum::<u64>()));
    let mut m = Measurement::from_stats(
        "session_pipeline",
        g,
        shards,
        session.stats(),
        t.elapsed().as_secs_f64(),
    );
    m.phases = session
        .phases()
        .iter()
        .map(|p| (p.label.clone(), p.rounds, p.messages, p.fingerprint()))
        .collect();
    m
}

/// Quiescent network + one awake clock node: the engine's pure
/// idle-round cost. Every node but node 0 sleeps after round 0 (the
/// event-driven active set never touches it again); node 0 stays awake
/// `rounds` rounds via the explicit wake contract, then the run
/// terminates normally. A round is O(1) — independent of `n`, and
/// independent of the shard count because near-quiescent rounds run
/// inline on the coordinator, skipping the worker barrier entirely.
/// (The previous engine invoked all `n` nodes every round here and paid
/// the barrier per round at shards > 1.)
fn bench_idle(g: &Graph, rounds: u64, shards: usize) -> Measurement {
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, rounds + 10));
    session.run(Clock::new(rounds)).expect("idle");
    let stats = session.stats();
    assert_eq!(stats.rounds, rounds);
    assert_eq!(stats.messages, 0);
    Measurement::from_stats("idle", g, shards, stats, t.elapsed().as_secs_f64())
}

/// Sparse-frontier workload: BFS down a long path. The frontier is 1–2
/// nodes for `n` rounds, so the run isolates the O(active + messages)
/// round cost — the previous full-scan engine paid O(n) per round,
/// an O(n²) total that dwarfed the O(n) of useful work.
fn bench_sparse_bfs(n: usize, shards: usize) -> Measurement {
    let g = generators::path(n);
    let t = Instant::now();
    let out = Session::new(&g, cfg_with(shards, 10_000_000))
        .run(Bfs::new(0))
        .expect("sparse_bfs");
    assert_eq!(out.depth() as usize, n - 1);
    Measurement::from_stats(
        "sparse_bfs",
        &g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
}

/// Chaos workload: a drop×delay×crash sweep through ONE session — raw
/// BFS under a drop plan, a delay plan, and a mixed plan with mid-run
/// crashes (one recovering), plus a [`Reliable`](lcs_congest::Reliable)-wrapped BFS under
/// drops whose output must still be the exact fault-free tree. The
/// cumulative session fingerprint folds the fault counters
/// (dropped/delayed/crashed), so the CI `--shards 1,4` determinism gate
/// asserts the entire fault layer — fate hashing, reorder buffers,
/// crash windows, retransmission — is bit-identical across shard
/// counts.
fn bench_chaos(g: &Graph, side: usize, shards: usize) -> Measurement {
    use lcs_congest::{Crash, FaultPlan, Reliable};
    let n = g.n();
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, 10_000_000));
    let drop_plan = FaultPlan::drops(0.10, 0xC0FFEE);
    let delay_plan = FaultPlan {
        drop_rate: 0.0,
        delay_rate: 0.20,
        max_delay: 2,
        corrupt_rate: 0.0,
        crashes: vec![],
        fault_seed: 0xC0FFEE,
    };
    let mix_plan = FaultPlan {
        drop_rate: 0.05,
        delay_rate: 0.10,
        max_delay: 3,
        corrupt_rate: 0.0,
        crashes: vec![
            Crash {
                node: (n / 3) as u32,
                at_round: 5,
                recover_at: None,
            },
            Crash {
                node: (n / 2) as u32,
                at_round: 10,
                recover_at: Some(64),
            },
            Crash {
                node: (2 * n / 3) as u32,
                at_round: 15,
                recover_at: None,
            },
        ],
        fault_seed: 0xBAD_F00D,
    };
    for (label, plan) in [
        ("chaos.drop", drop_plan.clone()),
        ("chaos.delay", delay_plan),
        ("chaos.mix", mix_plan),
    ] {
        session
            .run_configured(label, Bfs::new(0), |c| c.faults = Some(plan))
            .expect("chaos bfs");
    }
    // The grid diameter is known, so cap the synchronizer's quiet wave
    // at Θ(D) instead of the default Θ(n) termination tail.
    let reliable = Reliable::new(Bfs::new(0)).with_quiet_bound(2 * (side as u32 - 1));
    let out = session
        .run_configured("chaos.reliable", reliable, |c| c.faults = Some(drop_plan))
        .expect("chaos reliable bfs");
    // Reliability under drops is exact: the tree has true grid depth.
    assert_eq!(out.depth() as usize, 2 * (side - 1), "reliable BFS depth");
    let mut m = Measurement::from_stats(
        "chaos",
        g,
        shards,
        session.stats(),
        t.elapsed().as_secs_f64(),
    );
    m.phases = session
        .phases()
        .iter()
        .map(|p| (p.label.clone(), p.rounds, p.messages, p.fingerprint()))
        .collect();
    m
}

fn bench_saturate(g: &Graph, rounds: u64, shards: usize) -> Measurement {
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, 10_000_000));
    session.run(Saturate::new(rounds)).expect("saturate");
    Measurement::from_stats(
        "saturate",
        g,
        shards,
        session.stats(),
        t.elapsed().as_secs_f64(),
    )
}

/// Parses `--shards 1,4` (comma-separated sweep) or `--shards 4`
/// (shorthand for `1,4`). Shard count 1 is always included as the
/// baseline and measured first.
fn parse_shard_sweep(args: &[String]) -> Vec<usize> {
    let flag = args.iter().position(|a| a == "--shards");
    let raw = flag.and_then(|i| args.get(i + 1));
    if flag.is_some() && raw.is_none_or(|v| v.starts_with("--")) {
        // A bare `--shards` must not silently degrade to a 1-shard run:
        // that would pass the determinism gate without testing anything.
        eprintln!("sim_throughput: --shards requires a value (e.g. --shards 1,4)");
        std::process::exit(2);
    }
    let mut sweep = vec![1usize];
    if let Some(raw) = raw {
        for piece in raw.split(',') {
            match piece.trim().parse::<usize>() {
                Ok(k) if k >= 1 => {
                    if !sweep.contains(&k) {
                        sweep.push(k);
                    }
                }
                _ => {
                    eprintln!("sim_throughput: bad --shards value {piece:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    sweep
}

/// Runs `f` `reps` times and keeps the median-elapsed measurement.
/// Statistics must be identical across repetitions — the workloads are
/// deterministic, so a mismatch means the harness (not the host) is
/// broken and the numbers would be meaningless.
fn median_of(reps: usize, f: impl Fn() -> Measurement) -> Measurement {
    let mut runs: Vec<Measurement> = (0..reps.max(1)).map(|_| f()).collect();
    for r in &runs[1..] {
        assert_eq!(
            r.stats_fingerprint, runs[0].stats_fingerprint,
            "workload {} not deterministic across repetitions",
            runs[0].name
        );
    }
    runs.sort_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s));
    runs.swap_remove(runs.len() / 2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let shard_sweep = parse_shard_sweep(&args);
    let out_path = value_flag(&args, "--out").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let check_path = value_flag(&args, "--check");
    let reps = value_flag(&args, "--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1usize);

    let side = if quick { 40 } else { 100 };
    // 10⁶ nodes at full scale; still well past any cache under --quick.
    let big_side = if quick { 200 } else { 1000 };
    let instances = value_flag(&args, "--instances")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 8 } else { 32 });
    let g = generators::grid(side, side);
    let big = generators::grid(big_side, big_side);

    let mut all: Vec<Measurement> = Vec::new();
    for &k in &shard_sweep {
        eprintln!("== shards = {k} ==");
        for m in [
            median_of(reps, || bench_idle(&g, if quick { 200 } else { 1000 }, k)),
            median_of(reps, || bench_saturate(&g, if quick { 50 } else { 200 }, k)),
            median_of(reps, || bench_flood("flood", &g, k)),
            median_of(reps, || {
                bench_sparse_bfs(if quick { 2_000 } else { 10_000 }, k)
            }),
            median_of(reps, || bench_multi_bfs(&g, instances, k)),
            median_of(reps, || bench_multi_aggregate(&g, instances / 2, k)),
            median_of(reps, || bench_session_pipeline(&g, k)),
            median_of(reps, || bench_chaos(&g, side, k)),
            median_of(reps, || bench_large_bfs(&big, big_side, k)),
            median_of(reps, || bench_flood("large_flood", &big, k)),
        ] {
            eprintln!(
                "{:>16}  n={} rounds={} messages={} elapsed={:.3}s  ({:.0} rounds/s, {:.0} msgs/s)",
                m.name,
                m.n,
                m.rounds,
                m.messages,
                m.elapsed_s,
                m.rounds as f64 / m.elapsed_s,
                m.messages as f64 / m.elapsed_s,
            );
            all.push(m);
        }
    }

    // Fill in speedups against the 1-shard baseline of each workload.
    let baselines: Vec<(String, f64)> = all
        .iter()
        .filter(|m| m.shards == 1)
        .map(|m| (m.name.clone(), m.elapsed_s))
        .collect();
    for m in &mut all {
        if let Some((_, base)) = baselines.iter().find(|(n, _)| *n == m.name) {
            m.speedup_vs_1shard = base / m.elapsed_s;
        }
    }
    for m in all.iter().filter(|m| m.shards != 1) {
        eprintln!(
            "speedup {:>16} @ {} shards: {:.2}x",
            m.name, m.shards, m.speedup_vs_1shard
        );
    }

    // Shard determinism gate: every sharded run's stats fingerprint
    // must equal the sequential run's for the same workload.
    let mut diverged = false;
    for m in all.iter().filter(|m| m.shards != 1) {
        let base = all
            .iter()
            .find(|b| b.shards == 1 && b.name == m.name)
            .expect("baseline measured first");
        if m.stats_fingerprint != base.stats_fingerprint {
            diverged = true;
            eprintln!(
                "DETERMINISM VIOLATION: {} stats fingerprint {:#018x} at {} shards \
                 != {:#018x} at 1 shard",
                m.name, m.stats_fingerprint, m.shards, base.stats_fingerprint
            );
        }
        if m.phases != base.phases {
            diverged = true;
            eprintln!(
                "DETERMINISM VIOLATION: {} per-phase breakdown at {} shards \
                 differs from the 1-shard run",
                m.name, m.shards
            );
        }
    }

    let records: Vec<String> = all.iter().map(Measurement::json).collect();
    let mode = if quick { "quick" } else { "full" };
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"sim_throughput\",\n  \"mode\": \"{}\",\n",
            "  \"shard_sweep\": {:?},\n  \"determinism\": \"{}\",\n",
            "  \"workloads\": [\n    {}\n  ]\n}}\n"
        ),
        mode,
        shard_sweep,
        if diverged { "DIVERGED" } else { "ok" },
        records.join(",\n    ")
    );
    match &check_path {
        Some(path) => check_records(
            "sim_throughput",
            path,
            mode,
            &records,
            &["rounds", "messages", "stats_fingerprint"],
        ),
        None => {
            std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
            eprintln!("wrote {out_path}");
        }
    }
    // A machine-readable copy for CI logs.
    println!("{json}");
    if diverged {
        eprintln!("sim_throughput: sharded RunStats diverged from the sequential engine");
        std::process::exit(1);
    }
    eprintln!("shard determinism check: ok");
}
