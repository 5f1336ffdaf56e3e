//! Adversary benchmark: worst-case fault placement vs random.
//!
//! Emits `BENCH_adversary.json`. Every scenario runs the *same* fault
//! budget (drop/delay/corrupt rates and crash count) and varies only
//! **where** the faults land:
//!
//! * `*_fault_free` — the clean baseline the overhead columns divide by.
//! * `*_random` — crashes placed by a seeded hash on non-leader nodes,
//!   plus one transient crash that recovers mid-detection.
//! * `*_leaders` — the adversarial placement: permanent crashes on the
//!   leaders of the largest parts, i.e. exactly the nodes every guess
//!   of the ladder roots its part-wise convergecasts at. Killing a
//!   leader forces the detection phase to excise it, fragments its part
//!   (UnionFind split), and makes the surviving pipeline re-elect.
//! * `sc_corrupt_storm` — no crashes, corruption cranked to 25% on
//!   every link (a uniform superset of "corrupt the heaviest links":
//!   fault fates are per-(arc, round), so the heavy links are hit at
//!   the same rate as everything else). Nothing may be excised and the
//!   output must be **byte-identical** to the fault-free run — the
//!   integrity-tag + ARQ layer turns corruption into pure round/message
//!   overhead. The bin asserts this.
//!
//! Families: `sc_*` drives the full shortcut-construction pipeline
//! ([`distributed_shortcuts`]); `mst_*` drives simulated Boruvka
//! ([`mst_via_shortcuts`]) on the same highway instance with
//! deterministic weights.
//!
//! Like `sim_throughput`, the bin doubles as a CI gate: every scenario
//! is run at each shard count of `--shards` and the process exits
//! nonzero if any sharded run's fingerprint, phase breakdown, or
//! excision set diverges from the 1-shard run's — graceful degradation
//! is inside the same determinism contract as the fault-free engine.
//! At full scale it also exits 1 when a faulty scenario's rounds exceed
//! its bound over the fault-free run ([`OVERHEAD_BOUNDS`]): 2.2× for
//! `sc_random` and `sc_leaders`, 3× for `sc_corrupt_storm`. `--quick`
//! runs are not bounded: on the small instance detection's cost weighs
//! more against a shorter fault-free run.
//!
//! Usage: `adversary_bench [--quick] [--shards 1,K,...] [--out PATH]
//! [--check PATH]`
//!
//! `--check PATH` compares the run against a committed
//! `BENCH_adversary.json` instead of writing one: the mode and the
//! `(scenario, shards)` set must match (exit 2 if not), and every
//! scenario's rounds, messages, excision count, stats fingerprint and
//! phase breakdown must equal the committed ones (exit 1 if not). CI
//! runs `--shards 1,4 --check BENCH_adversary.json` at full scale, so a
//! change to what any fault scenario costs or decides fails the build
//! until the file is regenerated.

use std::collections::HashSet;
use std::time::Instant;

use lcs_apps::{mst_via_shortcuts, MstConfig, MstOutcome};
use lcs_bench::{check_records, f3, highway_workload, value_flag, Table};
use lcs_congest::hash::splitmix64;
use lcs_congest::{Crash, FaultPlan};
use lcs_core::{distributed_shortcuts, DistributedConfig, DistributedOutcome};
use lcs_graph::{Graph, NodeId, WeightedGraph};
use lcs_shortcut::Partition;

/// Seed for crash placement, weights, and the fault layer's PRF.
const ADV_SEED: u64 = 0xADF0_0D5E;

#[derive(Debug, Clone)]
struct Measurement {
    name: String,
    n: usize,
    m: usize,
    shards: usize,
    rounds: u64,
    messages: u64,
    elapsed_s: f64,
    /// Nodes the detection phase excised (0 for fault-free runs).
    excluded: usize,
    /// Rounds charged to detection (0 for fault-free runs).
    extra_rounds: u64,
    /// Round/message overhead vs the same family's fault-free run at
    /// the same shard count (1.0 for the baselines themselves).
    overhead_rounds: f64,
    overhead_messages: f64,
    /// Cumulative engine fingerprint (shortcut family) or a fold over
    /// the full outcome (MST family — no session stats are exposed).
    stats_fingerprint: u64,
    /// `(label, rounds, messages, fingerprint)` per phase, detection
    /// phases included; empty for the MST family.
    phases: Vec<(String, u64, u64, u64)>,
}

impl Measurement {
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
                "\"excluded\":{},\"extra_rounds\":{},",
                "\"overhead_rounds\":{:.4},\"overhead_messages\":{:.4},",
                "\"stats_fingerprint\":\"{:#018x}\"{}}}"
            ),
            self.name,
            self.n,
            self.m,
            self.shards,
            self.rounds,
            self.messages,
            self.elapsed_s,
            self.excluded,
            self.extra_rounds,
            self.overhead_rounds,
            self.overhead_messages,
            self.stats_fingerprint,
            phases,
        )
    }
}

fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

/// Permanent crashes on the leaders of the `k` largest parts (never
/// node 0 — it roots the detection convergecast).
fn leader_crashes(partition: &Partition, k: usize) -> Vec<Crash> {
    let mut order: Vec<usize> = (0..partition.num_parts()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(partition.part(i).len()), i));
    let mut crashes = Vec::new();
    for &i in &order {
        if crashes.len() == k {
            break;
        }
        let leader = partition.leader(i);
        if leader == 0 {
            continue;
        }
        crashes.push(Crash {
            node: leader,
            at_round: 2,
            recover_at: None,
        });
    }
    assert_eq!(crashes.len(), k, "not enough non-root leaders to crash");
    crashes
}

/// Permanent crashes on `k` hash-picked nodes that are neither node 0
/// nor any part leader — the same budget as [`leader_crashes`], placed
/// blindly.
fn random_crashes(n: usize, partition: &Partition, k: usize) -> Vec<Crash> {
    let leaders: HashSet<NodeId> = (0..partition.num_parts())
        .map(|i| partition.leader(i))
        .collect();
    let mut picked: HashSet<NodeId> = HashSet::new();
    let mut crashes = Vec::new();
    let mut ctr = 0u64;
    while crashes.len() < k {
        let v = (splitmix64(ADV_SEED ^ ctr) % n as u64) as NodeId;
        ctr += 1;
        if v == 0 || leaders.contains(&v) || !picked.insert(v) {
            continue;
        }
        crashes.push(Crash {
            node: v,
            at_round: 2,
            recover_at: None,
        });
    }
    crashes
}

/// One transient crash (dies at round 2, recovers at round 40) on a
/// node untouched by `crashes` — an outage inside the detection phase
/// that the reliable links must ride out: the node must NOT be excised.
fn add_transient(crashes: &mut Vec<Crash>, n: usize) {
    let down: HashSet<NodeId> = crashes.iter().map(|c| c.node).collect();
    let mut ctr = 0x7_1A5u64;
    loop {
        let v = (splitmix64(ADV_SEED ^ ctr) % n as u64) as NodeId;
        ctr += 1;
        if v != 0 && !down.contains(&v) {
            crashes.push(Crash {
                node: v,
                at_round: 2,
                recover_at: Some(40),
            });
            return;
        }
    }
}

/// The shared four-tier budget: every faulty scenario uses these rates
/// so the only variable across `random`/`leaders` is crash placement.
fn budget_plan(crashes: Vec<Crash>) -> FaultPlan {
    FaultPlan {
        drop_rate: 0.05,
        delay_rate: 0.03,
        max_delay: 2,
        corrupt_rate: 0.05,
        crashes,
        fault_seed: ADV_SEED,
    }
}

fn corrupt_storm_plan() -> FaultPlan {
    FaultPlan {
        drop_rate: 0.05,
        corrupt_rate: 0.25,
        fault_seed: ADV_SEED,
        ..FaultPlan::default()
    }
}

fn run_shortcuts(
    name: &str,
    g: &Graph,
    partition: &Partition,
    shards: usize,
    plan: Option<FaultPlan>,
) -> (Measurement, DistributedOutcome) {
    let cfg = DistributedConfig {
        shards,
        faults: plan,
        ..DistributedConfig::default()
    };
    let t = Instant::now();
    let out = distributed_shortcuts(g, partition, &cfg)
        .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
    let secs = t.elapsed().as_secs_f64();
    let (excluded, extra_rounds) = match &out.degraded {
        Some(d) => (d.excluded_nodes.len(), d.extra_rounds),
        None => (0, 0),
    };
    let m = Measurement {
        name: name.to_string(),
        n: g.n(),
        m: g.m(),
        shards,
        rounds: out.total_rounds,
        messages: out.total_messages,
        elapsed_s: secs,
        excluded,
        extra_rounds,
        overhead_rounds: 1.0,
        overhead_messages: 1.0,
        stats_fingerprint: out.stats.fingerprint(),
        phases: out
            .phase_stats
            .iter()
            .map(|s| (s.label.clone(), s.rounds, s.messages, s.fingerprint()))
            .collect(),
    };
    (m, out)
}

/// MST outcomes expose no session stats, so the gate fingerprint is a
/// fold over everything the run decided: edges, weight, phase count,
/// costs, and the excision set.
fn mst_fingerprint(out: &MstOutcome) -> u64 {
    let mut h = 0x4D57_0E55u64;
    h = fold(h, out.weight);
    h = fold(h, out.phases as u64);
    h = fold(h, out.total_rounds);
    h = fold(h, out.messages);
    for e in &out.edges {
        h = fold(h, e.0 as u64);
    }
    if let Some(d) = &out.degraded {
        h = fold(h, d.extra_rounds);
        for v in &d.excluded_nodes {
            h = fold(h, u64::from(*v) + 1);
        }
    }
    h
}

fn run_mst(name: &str, wg: &WeightedGraph, shards: usize, plan: Option<FaultPlan>) -> Measurement {
    let cfg = MstConfig {
        shards,
        faults: plan,
        ..MstConfig::default()
    };
    let t = Instant::now();
    let out = mst_via_shortcuts(wg, &cfg).unwrap_or_else(|e| panic!("{name}: Boruvka failed: {e}"));
    let secs = t.elapsed().as_secs_f64();
    let (excluded, extra_rounds) = match &out.degraded {
        Some(d) => (d.excluded_nodes.len(), d.extra_rounds),
        None => (0, 0),
    };
    Measurement {
        name: name.to_string(),
        n: wg.graph().n(),
        m: wg.graph().m(),
        shards,
        rounds: out.total_rounds,
        messages: out.messages,
        elapsed_s: secs,
        excluded,
        extra_rounds,
        overhead_rounds: 1.0,
        overhead_messages: 1.0,
        stats_fingerprint: mst_fingerprint(&out),
        phases: Vec::new(),
    }
}

/// Shortcut sets carry no `Eq`; compare the parts pairwise.
fn assert_same_shortcuts(name: &str, a: &DistributedOutcome, b: &DistributedOutcome) {
    assert_eq!(
        a.accepted_guess, b.accepted_guess,
        "{name}: accepted guess changed under corruption"
    );
    assert_eq!(a.is_large, b.is_large, "{name}: largeness changed");
    assert_eq!(a.shortcuts.num_parts(), b.shortcuts.num_parts());
    for i in 0..a.shortcuts.num_parts() {
        assert_eq!(
            a.shortcuts.edges(i),
            b.shortcuts.edges(i),
            "{name}: shortcut edges of part {i} changed under corruption"
        );
    }
}

/// Full-scale ceilings on `overhead_rounds`, the faulty runs' rounds
/// over the fault-free run's: the degraded round profile must stay
/// within a small factor of the fault-free one, whatever `--check`'s
/// committed file holds.
const OVERHEAD_BOUNDS: [(&str, f64); 3] = [
    ("sc_random", 2.2),
    ("sc_leaders", 2.2),
    ("sc_corrupt_storm", 3.0),
];

/// The fields `--check` compares: everything a scenario decides or
/// costs in rounds and messages. Wall time is left out, and the
/// overhead ratios follow from the rounds and messages.
const GATED: [&str; 5] = [
    "rounds",
    "messages",
    "excluded",
    "stats_fingerprint",
    "phases",
];

fn parse_args() -> (bool, Vec<usize>, String, Option<String>) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut shards = vec![1, 4];
    if let Some(spec) = value_flag(&args, "--shards") {
        shards = spec
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad shard count {s:?}");
                    std::process::exit(2);
                })
            })
            .collect();
        if shards.is_empty() || shards[0] != 1 {
            // The 1-shard run is the determinism baseline.
            shards.retain(|&s| s != 1);
            shards.insert(0, 1);
        }
    }
    let out_path = value_flag(&args, "--out").unwrap_or_else(|| "BENCH_adversary.json".to_string());
    (quick, shards, out_path, value_flag(&args, "--check"))
}

fn main() {
    let (quick, shard_sweep, out_path, check_path) = parse_args();
    let (n_target, k_crashes) = if quick { (300, 2) } else { (1500, 3) };

    let (hw, partition) = highway_workload(n_target, 4);
    let g = hw.graph();
    let weighted: Vec<(NodeId, NodeId, u64)> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(e, &(u, v))| (u, v, splitmix64(ADV_SEED ^ e as u64) % 1_000 + 1))
        .collect();
    let wg = WeightedGraph::from_weighted_edges(g.n(), &weighted).expect("weighted highway");

    let adversarial = leader_crashes(&partition, k_crashes);
    let blind = random_crashes(g.n(), &partition, k_crashes);
    let mut adversarial_t = adversarial.clone();
    add_transient(&mut adversarial_t, g.n());
    let mut blind_t = blind.clone();
    add_transient(&mut blind_t, g.n());

    let mut all: Vec<Measurement> = Vec::new();
    for &shards in &shard_sweep {
        let (base, base_out) = run_shortcuts("sc_fault_free", g, &partition, shards, None);
        let (random, random_out) = run_shortcuts(
            "sc_random",
            g,
            &partition,
            shards,
            Some(budget_plan(blind_t.clone())),
        );
        let (leaders, leaders_out) = run_shortcuts(
            "sc_leaders",
            g,
            &partition,
            shards,
            Some(budget_plan(adversarial_t.clone())),
        );
        let (storm, storm_out) = run_shortcuts(
            "sc_corrupt_storm",
            g,
            &partition,
            shards,
            Some(corrupt_storm_plan()),
        );

        // Graceful-degradation contracts, checked at every shard count.
        for (m, out, crashes) in [
            (&random, &random_out, &blind_t),
            (&leaders, &leaders_out, &adversarial_t),
        ] {
            let d = out.degraded.as_ref().expect("faulty run reports outcome");
            assert!(d.completed, "{}: survivors did not complete", m.name);
            for c in crashes {
                let excised = d.excluded_nodes.contains(&c.node);
                match c.recover_at {
                    None => assert!(excised, "{}: dead node {} kept", m.name, c.node),
                    Some(_) => assert!(!excised, "{}: rejoined node {} excised", m.name, c.node),
                }
            }
        }
        let storm_d = storm_out.degraded.as_ref().expect("storm reports outcome");
        assert!(
            storm_d.excluded_nodes.is_empty(),
            "corrupt storm excised nodes"
        );
        assert_same_shortcuts("sc_corrupt_storm", &storm_out, &base_out);
        drop(base_out);

        let mst_base = run_mst("mst_fault_free", &wg, shards, None);
        let mst_random = run_mst(
            "mst_random",
            &wg,
            shards,
            Some(budget_plan(blind_t.clone())),
        );
        let mst_leaders = run_mst(
            "mst_leaders",
            &wg,
            shards,
            Some(budget_plan(adversarial_t.clone())),
        );

        let over = |m: &mut Measurement, b: &Measurement| {
            m.overhead_rounds = m.rounds as f64 / b.rounds.max(1) as f64;
            m.overhead_messages = m.messages as f64 / b.messages.max(1) as f64;
        };
        let mut batch = vec![
            base,
            random,
            leaders,
            storm,
            mst_base,
            mst_random,
            mst_leaders,
        ];
        let (sc_base, mst_base) = (batch[0].clone(), batch[4].clone());
        for m in &mut batch[1..4] {
            over(m, &sc_base);
        }
        for m in &mut batch[5..7] {
            over(m, &mst_base);
        }
        all.extend(batch);
    }

    // Shard-determinism gate: fingerprints, phase breakdowns, costs,
    // and excision sets must be bit-identical to the 1-shard baseline.
    let mut diverged = Vec::new();
    let baseline: Vec<Measurement> = all.iter().filter(|m| m.shards == 1).cloned().collect();
    for m in all.iter().filter(|m| m.shards != 1) {
        let b = baseline
            .iter()
            .find(|b| b.name == m.name)
            .expect("baseline scenario");
        if (
            m.stats_fingerprint,
            &m.phases,
            m.rounds,
            m.messages,
            m.excluded,
        ) != (
            b.stats_fingerprint,
            &b.phases,
            b.rounds,
            b.messages,
            b.excluded,
        ) {
            diverged.push(format!("{} @ {} shards", m.name, m.shards));
        }
    }

    let mut table = Table::new(
        "Adversarial vs random fault placement",
        &[
            "scenario",
            "shards",
            "rounds",
            "messages",
            "excised",
            "detect_rounds",
            "x rounds",
            "x msgs",
        ],
    );
    for m in &all {
        table.row(vec![
            m.name.clone(),
            m.shards.to_string(),
            m.rounds.to_string(),
            m.messages.to_string(),
            m.excluded.to_string(),
            m.extra_rounds.to_string(),
            f3(m.overhead_rounds),
            f3(m.overhead_messages),
        ]);
    }
    table.print();

    let over_bound: Vec<String> = all
        .iter()
        .filter(|_| !quick)
        .filter_map(|m| {
            let &(_, bound) = OVERHEAD_BOUNDS.iter().find(|(name, _)| *name == m.name)?;
            (m.overhead_rounds > bound).then(|| {
                format!(
                    "{} @ {} shards: {:.4}x the fault-free rounds, bound {bound}x",
                    m.name, m.shards, m.overhead_rounds
                )
            })
        })
        .collect();
    for line in &over_bound {
        eprintln!("OVERHEAD BOUND EXCEEDED: {line}");
    }

    let determinism = if diverged.is_empty() {
        "ok".to_string()
    } else {
        format!("DIVERGED: {}", diverged.join(", "))
    };
    let body = all
        .iter()
        .map(Measurement::json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let mode = if quick { "quick" } else { "full" };
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"adversary_bench\",\n  \"mode\": \"{}\",\n",
            "  \"shard_sweep\": {:?},\n  \"determinism\": \"{}\",\n",
            "  \"scenarios\": [\n    {}\n  ]\n}}\n"
        ),
        mode, shard_sweep, determinism, body,
    );
    match &check_path {
        Some(path) => {
            let records: Vec<String> = all.iter().map(Measurement::json).collect();
            check_records("adversary_bench", path, mode, &records, &GATED);
        }
        None => std::fs::write(&out_path, &json).expect("write BENCH_adversary.json"),
    }
    println!("{json}");
    if !diverged.is_empty() {
        eprintln!("DETERMINISM FAILURE: {determinism}");
    }
    if !diverged.is_empty() || !over_bound.is_empty() {
        std::process::exit(1);
    }
}
