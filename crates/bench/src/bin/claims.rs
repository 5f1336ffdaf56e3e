//! `claims` — the paper's statements, run on fixed seeds.
//!
//! Usage: `claims [--quick] [--out PATH | --check PATH]`
//!
//! Prints one row per statement of Kogan & Parter (PODC 2021) and
//! instance: the measured value, the bound and a verdict. A row has a
//! bound only where the code already holds it as an expression
//! (`KpParams::congestion_bound`, `dilation_bound`, `round_budget`, the
//! Lemma 3.3 walk expression, `1 + ε`) or where an exact reference
//! exists (Kruskal, Stoer–Wagner, Dijkstra, Bellman–Ford, 2-edge-
//! connectivity). An `O(·)` statement with no constant in the code, and
//! every scaling statement, is a measured row with no verdict: log-log
//! slopes print next to the exponent `(D−2)/(2D−2)`, unasserted. Every
//! KP set is `centralized_shortcuts`, the coins the library ships.
//!
//! Two rows are controls, bounded `≥ 1`: the Lemma 3.5 trace on H = ∅
//! and the Lemma 3.3 walks at a twentieth of `p` must each find a
//! violation, so an instrument that cannot fire fails the run.
//!
//! Exit status: 0 when every bounded row holds, 1 when one fails, 2 on
//! any argument but `--quick` (CI scale), `--out PATH` (also write the
//! rows as JSON; the committed `BENCH_claims.json` is a full run) and
//! `--check PATH`. Every instance is seeded, so two runs print the same
//! rows, and `--check PATH` compares every row with the file at `PATH`
//! and never writes: it exits 1 and names each row that differs, is new
//! or is missing, and 2 before running anything if the file is not a
//! run of the same mode.

use lcs_apps::{
    approximate_min_cut, bellman_ford_rounds, mst_via_shortcuts, shortcut_sssp, two_ecss,
    verify_two_ecss, MinCutConfig, MstConfig, ShortcutStrategy,
};
use lcs_bench::{geomean, highway_workload, json_str, loglog_slope};
use lcs_congest::{MultiBfs, MultiBfsInstance, MultiBfsSpec, Session, SimConfig};
use lcs_core::{
    centralized_shortcuts, certify_part, distributed_shortcuts, k_d, odd_shortcuts_subdivision,
    prune_to_trees, shared_delay, DistributedConfig, KpParams, SampleOracle, ShortcutTree,
};
use lcs_graph::{
    complete, dijkstra, gnp_connected, kruskal, stoer_wagner, HighwayGraph, HighwayParams, NodeId,
    WeightedGraph,
};
use lcs_shortcut::{
    global_tree_shortcuts, kitamura_style_shortcuts, measure_quality, trivial_shortcuts,
    DilationMode, Partition, ShortcutSet,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// What a row's value is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// Measured only: no verdict.
    Measured,
    /// Measured, printed next to a reference value: no verdict.
    Ref(f64),
    /// `value ≤ bound`.
    AtMost(f64),
    /// `value ≥ bound`.
    AtLeast(f64),
    /// `value = bound`.
    Equal(f64),
}

/// One paper statement measured on one instance.
#[derive(Debug)]
struct Row {
    claim: &'static str,
    instance: String,
    value: f64,
    bound: Bound,
    note: String,
}

impl Row {
    /// `Some(holds)` for a bounded row, `None` for a measured one.
    fn verdict(&self) -> Option<bool> {
        match self.bound {
            Bound::Measured | Bound::Ref(_) => None,
            Bound::AtMost(b) => Some(self.value <= b),
            Bound::AtLeast(b) => Some(self.value >= b),
            Bound::Equal(b) => Some(self.value == b),
        }
    }

    fn verdict_str(&self) -> &'static str {
        match self.verdict() {
            None => "measured",
            Some(true) => "holds",
            Some(false) => "FAILS",
        }
    }

    /// The comparison and its right-hand side.
    fn bound_parts(&self) -> (&'static str, Option<f64>) {
        match self.bound {
            Bound::Measured => ("", None),
            Bound::Ref(b) => ("ref", Some(b)),
            Bound::AtMost(b) => ("<=", Some(b)),
            Bound::AtLeast(b) => (">=", Some(b)),
            Bound::Equal(b) => ("=", Some(b)),
        }
    }

    fn bound_str(&self) -> String {
        let (op, b) = self.bound_parts();
        b.map_or(String::new(), |b| format!("{op} {}", num(b)))
    }

    fn json(&self) -> String {
        let (op, b) = self.bound_parts();
        format!(
            concat!(
                "{{\"claim\": \"{}\", \"instance\": \"{}\", \"value\": {}, \"op\": \"{}\", ",
                "\"bound\": {}, \"verdict\": \"{}\", \"note\": \"{}\"}}"
            ),
            self.claim,
            self.instance,
            num(self.value),
            op,
            b.map_or("null".to_string(), num),
            self.verdict_str(),
            self.note,
        )
    }
}

/// The rows of a run, and the instance the next rows are measured on.
#[derive(Debug, Default)]
struct Report {
    rows: Vec<Row>,
    instance: String,
}

impl Report {
    /// Names the instance of the rows pushed after this call.
    fn on(&mut self, instance: String) {
        self.instance = instance;
    }

    /// Adds a row on the current instance; set `.note` on the result to
    /// print more of what was measured.
    fn push(&mut self, claim: &'static str, value: f64, bound: Bound) -> &mut Row {
        self.rows.push(Row {
            claim,
            instance: self.instance.clone(),
            value,
            bound,
            note: String::new(),
        });
        self.rows.last_mut().expect("just pushed")
    }
}

/// Integers print whole, everything else to three decimals.
fn num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// 1 if any bounded row fails, else 0.
fn exit_status(rows: &[Row]) -> i32 {
    i32::from(rows.iter().any(|r| r.verdict() == Some(false)))
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

/// Parses the arguments after the program name; `Err` names the
/// offending one.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--quick" => {
                parsed.quick = true;
                continue;
            }
            "--out" => &mut parsed.out,
            "--check" => &mut parsed.check,
            other => return Err(format!("unknown argument {other:?}")),
        };
        match it.next() {
            Some(path) if !path.starts_with("--") => *slot = Some(path.clone()),
            _ => return Err(format!("{arg} requires a path")),
        }
    }
    if parsed.out.is_some() && parsed.check.is_some() {
        return Err("--check never writes; drop --out".to_string());
    }
    Ok(parsed)
}

fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// `Err` unless `committed`, a file `--out` wrote, holds a run of `mode`.
fn check_mode(committed: &str, mode: &str) -> Result<(), String> {
    match json_str(committed, "mode") {
        Some(m) if m == mode => Ok(()),
        m => Err(format!(
            "the file is a {:?} run, this is a \"{mode}\" run",
            m.unwrap_or("?")
        )),
    }
}

/// Every row of this run that differs from the committed row of the
/// same claim and instance, or that `committed` lacks, then every
/// committed row this run lacks, one line each.
fn row_diffs(rows: &[Row], committed: &str) -> Vec<String> {
    fn key(line: &str) -> (Option<&str>, Option<&str>) {
        (json_str(line, "claim"), json_str(line, "instance"))
    }
    let then: Vec<&str> = committed
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with("{\"claim\":"))
        .collect();
    let now: Vec<String> = rows.iter().map(Row::json).collect();
    let mut diffs = Vec::new();
    for line in &now {
        match then.iter().find(|t| key(t) == key(line)) {
            Some(t) if t == line => {}
            Some(t) => diffs.push(format!("differs: {line}\n   was: {t}")),
            None => diffs.push(format!("new: {line}")),
        }
    }
    for t in &then {
        if !now.iter().any(|line| key(line) == key(t)) {
            diffs.push(format!("missing: {t}"));
        }
    }
    diffs
}

/// The exact-dilation cutoff of every experiment: BFS from every part
/// member up to n = 3,000, the double-sweep upper end above it.
fn dilation_mode(n: usize) -> DilationMode {
    if n > 3000 {
        DilationMode::Estimate
    } else {
        DilationMode::Exact
    }
}

fn kp_params(n: usize, d: u32) -> KpParams {
    KpParams::new(n, d).expect("every instance has n >= 2 and D >= 3")
}

/// E1 and E7 (Thm 1.1, measured): `c + d` of the centralized KP sets on
/// the highway instances next to the trivial and global-tree sets and,
/// at D ∈ {3, 4}, the Kitamura-style sampling (arXiv 1908.09473), with
/// the log-log slopes next to `(D−2)/(2D−2)`.
fn quality_scaling(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick {
        &[400, 900, 1600]
    } else {
        &[400, 900, 1600, 3600, 6400, 12800]
    };
    for d in 3..=8u32 {
        let (mut kp_points, mut kita_points) = (Vec::new(), Vec::new());
        for &nt in sizes {
            let (hw, partition) = highway_workload(nt, d);
            let g = hw.graph();
            let n = g.n();
            let mode = dilation_mode(n);
            let total = |s: &ShortcutSet| measure_quality(g, &partition, s, mode).quality.total();
            let kp = total(&centralized_shortcuts(g, &partition, kp_params(n, d), 1).shortcuts);
            let trivial = total(&trivial_shortcuts(&partition));
            let global = total(&global_tree_shortcuts(g, &partition, 0, Some(1)));
            let lg = (n as f64).log2();
            let mut note = format!(
                "(c+d)/(k_D*lg^2 n) {:.3}; trivial {trivial}; global-tree {global}",
                kp as f64 / (k_d(n, d) * lg * lg)
            );
            if d <= 4 {
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                let kita = total(&kitamura_style_shortcuts(g, &partition, d, 1.0, &mut rng));
                kita_points.push((n as f64, kita as f64));
                note.push_str(&format!("; Kitamura-style {kita}"));
            }
            kp_points.push((n as f64, kp as f64));
            r.on(format!("E1 D={d} n={n}"));
            r.push("Thm 1.1: KP c+d", kp as f64, Bound::Measured).note = note;
        }
        let exponent = (d as f64 - 2.0) / (2.0 * d as f64 - 2.0);
        r.on(format!(
            "E1 D={d} n={}..{}",
            kp_points[0].0,
            kp_points[sizes.len() - 1].0
        ));
        for (claim, points) in [
            ("Thm 1.1: KP c+d log-log slope", &kp_points),
            ("E7: Kitamura-style c+d log-log slope", &kita_points),
        ] {
            if !points.is_empty() {
                let slope = loglog_slope(points).expect("every sweep has two or more sizes");
                r.push(claim, slope, Bound::Ref(exponent));
            }
        }
    }
}

/// E2 and E3 (Thm 1.1 congestion, Thm 3.1 dilation, Lemma 3.5): the
/// worst over seeds per (D, n) cell, then a control that must fire: the
/// same Lemma 3.5 trace on H = ∅ over a path about six times 4·k_D long.
fn congestion_and_dilation(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick {
        &[400, 900]
    } else {
        &[900, 1600, 3600, 6400]
    };
    let seeds: u64 = if quick { 3 } else { 10 };
    for d in [3u32, 4, 6] {
        for &nt in sizes {
            let (hw, partition) = highway_workload(nt, d);
            let g = hw.graph();
            let n = g.n();
            let params = kp_params(n, d);
            let (mut cong, mut dil, mut violations, mut depth) = (0u32, 0u32, 0u32, 0u32);
            let mut means = Vec::new();
            for s in 0..seeds {
                let out = centralized_shortcuts(g, &partition, params, s);
                let report = measure_quality(g, &partition, &out.shortcuts, dilation_mode(n));
                cong = cong.max(report.quality.congestion);
                dil = dil.max(report.quality.dilation);
                means.push(report.mean_loaded_congestion());
                // The Theorem 3.1 recursion on the first part, 4·k_D per level.
                let trace = certify_part(g, &partition, &out.shortcuts, 0, 4 * params.k_ceil);
                violations += trace.violations;
                depth = depth.max(trace.recursion_depth);
            }
            let cb = params.congestion_bound() as f64;
            r.on(format!("E2/E3 D={d} n={n} seeds 0..{seeds}"));
            r.push(
                "Thm 1.1: congestion <= congestion_bound()",
                cong.into(),
                Bound::AtMost(cb),
            )
            .note = format!(
                "max/bound {:.3}; mean loaded congestion {:.3}",
                f64::from(cong) / cb,
                geomean(&means)
            );
            let db = params.dilation_bound() as f64;
            r.push(
                "Thm 3.1: dilation <= dilation_bound()",
                dil.into(),
                Bound::AtMost(db),
            );
            r.push(
                "Lemma 3.5: levels with no event at 4*k_D",
                violations.into(),
                Bound::Equal(0.0),
            )
            .note = format!("max recursion depth {depth}; lg n {:.1}", (n as f64).log2());
        }
    }
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 7,
        path_len: 357,
        diameter: 4,
    })
    .expect("valid highway");
    let (g, n) = (hw.graph(), hw.graph().n());
    let partition = Partition::new(g, hw.path_parts()).expect("path parts are valid");
    let threshold = 4 * kp_params(n, 4).k_ceil;
    let trace = certify_part(g, &partition, &trivial_shortcuts(&partition), 0, threshold);
    r.on(format!("E3 control D=4 n={n} 7 paths of 357, H empty"));
    r.push(
        "Lemma 3.5 control: levels with no event at 4*k_D",
        trace.violations.into(),
        Bound::AtLeast(1.0),
    )
    .note = format!(
        "max recursion depth {}; threshold {threshold}",
        trace.recursion_depth
    );
}

/// E4 and E9 (Thm 1.1 rounds, §1 messages): the distributed construction
/// on D = 4 highways, diameter known and guessed. Each guess is held to
/// its own `round_budget()`.
fn rounds_and_messages(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick {
        &[300, 600]
    } else {
        &[300, 600, 1000, 1600]
    };
    for &nt in sizes {
        let (hw, partition) = highway_workload(nt, 4);
        let g = hw.graph();
        let n = g.n();
        let (k, lg) = (k_d(n, 4), (n as f64).log2());
        for (label, known_diameter) in [("known D", Some(4)), ("guessing", None)] {
            let cfg = DistributedConfig {
                known_diameter,
                ..DistributedConfig::default()
            };
            let out = distributed_shortcuts(g, &partition, &cfg).expect("construction succeeds");
            for gr in &out.guesses {
                let budget = kp_params(n, gr.guess).round_budget() as f64;
                r.on(format!("E4 D=4 n={n} {label}, guess {}", gr.guess));
                r.push(
                    "Thm 1.1: guess rounds <= round_budget()",
                    gr.rounds as f64,
                    Bound::AtMost(budget),
                )
                .note = format!("max queue {}", gr.max_queue);
            }
            if known_diameter.is_some() {
                let (rounds, msgs) = (out.total_rounds as f64, out.total_messages as f64);
                r.on(format!("E4/E9 D=4 n={n} m={} known D", g.m()));
                r.push(
                    "Thm 1.1: rounds/(k_D*lg^2 n)",
                    rounds / (k * lg * lg),
                    Bound::Measured,
                )
                .note = format!("rounds {rounds}");
                r.push(
                    "§1: messages/(m*k_D*lg n)",
                    msgs / (g.m() as f64 * k * lg),
                    Bound::Measured,
                )
                .note = format!("messages {msgs}");
            }
        }
    }
}

/// E5 (Cor 1.2, MST): every strategy's tree against Kruskal's, and the
/// rounds of each: its MWOE aggregations as the engine ran them, plus
/// the construction and leader-relabel charges.
fn mst(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick {
        &[400, 900]
    } else {
        &[400, 900, 1600, 3600, 6400]
    };
    for d in [4u32, 6] {
        for &nt in sizes {
            let (hw, _) = highway_workload(nt, d);
            let n = hw.graph().n();
            let mut rng = ChaCha8Rng::seed_from_u64(nt as u64);
            let wg = WeightedGraph::with_random_weights(hw.graph().clone(), 1 << 20, &mut rng);
            let reference = kruskal(&wg);
            let mut rounds = Vec::new();
            let mut differing = 0u32;
            for strategy in [
                ShortcutStrategy::KoganParter,
                ShortcutStrategy::GlobalTree,
                ShortcutStrategy::Trivial,
            ] {
                let cfg = MstConfig {
                    strategy,
                    diameter: Some(d),
                    seed: nt as u64,
                    ..MstConfig::default()
                };
                let out = mst_via_shortcuts(&wg, &cfg).expect("highway graphs are connected");
                differing += u32::from(out.edges != reference.edges);
                let agg: u64 = out.phase_costs.iter().map(|p| p.aggregation_rounds).sum();
                rounds.push((out.total_rounds, agg, out.phases));
            }
            let [(kp, kp_agg, phases), (gt, gt_agg, _), (tr, tr_agg, _)] = rounds[..] else {
                unreachable!("three strategies")
            };
            r.on(format!("E5 D={d} n={n}"));
            r.push(
                "Cor 1.2: strategies whose MST is not Kruskal's",
                differing.into(),
                Bound::Equal(0.0),
            )
            .note = format!("Kruskal weight {}", reference.weight);
            r.push("Cor 1.2: MST rounds, KP", kp as f64, Bound::Measured).note = format!(
                "global-tree {gt}; trivial {tr}; aggregation only K/G/T {kp_agg}/{gt_agg}/{tr_agg}; \
                 phases {phases}; sqrt(n) {:.1}",
                (n as f64).sqrt()
            );
        }
    }
}

/// E6 (Cor 1.2, min cut): per ε, the worst tree-packing cut over
/// instances and seeds against `(1+ε)·` Stoer–Wagner.
fn min_cut(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick {
        &[30, 60]
    } else {
        &[40, 80, 120, 200]
    };
    let seeds: u64 = if quick { 3 } else { 8 };
    for epsilon in [0.1f64, 0.25, 0.5] {
        let (mut ratios, mut trees) = (Vec::new(), 0);
        for &n in sizes {
            for seed in 0..seeds {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 1000 + n as u64);
                let g = gnp_connected(n, 0.15, &mut rng);
                let wg = WeightedGraph::with_random_weights(g, 30, &mut rng);
                let cfg = MinCutConfig {
                    epsilon,
                    seed,
                    mst: MstConfig {
                        seed,
                        ..MstConfig::default()
                    },
                    ..MinCutConfig::default()
                };
                let out = approximate_min_cut(&wg, &cfg).expect("connected graphs are cuttable");
                let exact = stoer_wagner(&wg).expect("n >= 2").weight;
                ratios.push(out.weight as f64 / exact as f64);
                trees = trees.max(out.trees_packed);
            }
        }
        let worst = ratios.iter().copied().fold(1.0, f64::max);
        r.on(format!(
            "E6 eps={epsilon} gnp(n, 0.15) n in {sizes:?} seeds 0..{seeds}"
        ));
        r.push(
            "Cor 1.2: min cut / Stoer-Wagner <= 1 + eps",
            worst,
            Bound::AtMost(1.0 + epsilon),
        )
        .note = format!(
            "geomean ratio {:.3}; most trees packed {trees}",
            geomean(&ratios)
        );
    }
}

/// E8 (Lemmas 3.2 and 3.3, Observation 3.1): greedy (i,k)-walks and T*
/// layer distances in the shortcut tree of the first path of a D = 6
/// highway, towards its column leaves. At these sizes `p` clamps to 1,
/// so a control reruns the same walks at a twentieth of `p`, where the
/// Lemma 3.3 bound must fail.
fn walks(quick: bool, r: &mut Report) {
    let d = 6u32;
    let (hw, partition) = highway_workload(if quick { 600 } else { 2500 }, d);
    let g = hw.graph();
    let n = g.n();
    let params = kp_params(n, d);
    let ell = (d / 2) as usize;
    let path: Vec<NodeId> = partition.part(0).to_vec();
    let q: Vec<NodeId> = (0..hw.params().path_len)
        .map(|c| hw.column_leaf(c))
        .collect();
    let seeds: u64 = if quick { 3 } else { 10 };
    let levels = 2..=ell + 1;
    let stress_p = 0.05 * params.p;
    let (mut max_len, mut stress_len) = (vec![0usize; ell + 2], vec![0usize; ell + 2]);
    let (mut walks, mut repeated, mut unreachable, mut layer_dist) = (0, 0, 0, 0);
    for seed in 0..seeds {
        let tree_at = |p| {
            let oracle = SampleOracle::new(seed, p, params.reps);
            ShortcutTree::new(g, &path, &q, ell, &oracle, partition.leader(0), 0)
                .expect("Q lies within distance ell of P")
        };
        let (tree, stress) = (tree_at(params.p), tree_at(stress_p));
        for level in levels.clone() {
            for i in (0..path.len()).step_by((path.len() / 8).max(1)) {
                if let Some(m) = tree.walk_to_level(i, level) {
                    max_len[level] = max_len[level].max(m.length);
                    walks += 1;
                    repeated += u32::from(!m.level_nodes_distinct);
                }
                if let Some(m) = stress.walk_to_level(i, level) {
                    stress_len[level] = stress_len[level].max(m.length);
                }
            }
            match tree.tstar_dist_to_layer(0, level) {
                Some(dist) => layer_dist = layer_dist.max(dist),
                None => unreachable += 1,
            }
        }
    }
    let ratio = params.big_n as f64 / (params.k * (n as f64).ln());
    let bound = |level: usize| ratio.max(2.0).powi(level as i32 - 2).max(1.0);
    for level in levels.clone() {
        r.on(format!("E8 D={d} n={n} seeds 0..{seeds}, level {level}"));
        r.push(
            "Lemma 3.3: walk length <= max(N/(k_D ln n), 2)^(k-2)",
            max_len[level] as f64,
            Bound::AtMost(bound(level)),
        )
        .note = format!("p {:.3}", params.p);
    }
    let over = levels
        .clone()
        .filter(|&l| stress_len[l] as f64 > bound(l))
        .count();
    let per_level: Vec<String> = levels
        .map(|l| format!("{} vs {}", stress_len[l], num(bound(l))))
        .collect();
    r.on(format!("E8 control D={d} n={n} seeds 0..{seeds}, p/20"));
    r.push(
        "Lemma 3.3 control: levels whose longest walk exceeds the bound",
        over as f64,
        Bound::AtLeast(1.0),
    )
    .note = format!(
        "p {stress_p:.3}; longest walk vs bound at levels 2 to {}: {}",
        ell + 1,
        per_level.join(", ")
    );
    r.on(format!("E8 D={d} n={n} seeds 0..{seeds}"));
    r.push(
        "Obs 3.1: walks whose level-k nodes repeat",
        repeated.into(),
        Bound::Equal(0.0),
    )
    .note = format!("{walks} walks");
    r.push(
        "Lemma 3.2: unreachable T* layers",
        unreachable.into(),
        Bound::Equal(0.0),
    )
    .note = format!(
        "max T* distance to a layer {layer_dist}; k_D {:.3}",
        params.k
    );
}

/// E10 (§3.2): the subdivision and the direct odd-D constructions, each
/// against both Theorem 1.1 bounds.
fn odd_diameter(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick {
        &[400, 900]
    } else {
        &[400, 900, 1600, 3600]
    };
    for d in [5u32, 7] {
        for &nt in sizes {
            let (hw, partition) = highway_workload(nt, d);
            let g = hw.graph();
            let n = g.n();
            let params = kp_params(n, d);
            let sub = odd_shortcuts_subdivision(g, &partition, params, 3);
            let direct = centralized_shortcuts(g, &partition, params, 3);
            let (cb, db) = (
                params.congestion_bound() as f64,
                params.dilation_bound() as f64,
            );
            for (name, set) in [
                ("subdivision", &sub.shortcuts),
                ("direct", &direct.shortcuts),
            ] {
                let q = measure_quality(g, &partition, set, dilation_mode(n)).quality;
                r.on(format!("E10 D={d} n={n} {name}"));
                r.push(
                    "§3.2: congestion <= congestion_bound()",
                    q.congestion.into(),
                    Bound::AtMost(cb),
                );
                r.push(
                    "§3.2: dilation <= dilation_bound()",
                    q.dilation.into(),
                    Bound::AtMost(db),
                );
            }
        }
    }
}

/// E11 (Cor 4.2 and 4.3): shortcut SSSP against Dijkstra and
/// Bellman–Ford on D = 4 highways (path edges weigh 1, the rest 100),
/// and the 2-ECSS of weighted cliques against Kruskal.
fn sssp_and_two_ecss(quick: bool, r: &mut Report) {
    let sizes: &[usize] = if quick { &[400] } else { &[400, 900, 1600] };
    for &nt in sizes {
        let (hw, partition) = highway_workload(nt, 4);
        let g = hw.graph();
        let on_path = |e| {
            let (u, v) = g.edge_endpoints(e);
            u < hw.highway_first() && v < hw.highway_first()
        };
        let weights = g
            .edge_ids()
            .map(|e| if on_path(e) { 1 } else { 100 })
            .collect();
        let wg = WeightedGraph::new(g.clone(), weights).expect("one weight per edge");
        let params = kp_params(g.n(), 4);
        let raw = centralized_shortcuts(g, &partition, params, 11);
        let pruned = prune_to_trees(g, &partition, &raw.shortcuts, params.depth_limit());
        let truth = dijkstra(&wg, 0);
        let (_, bf_rounds) = bellman_ford_rounds(&wg, 0);
        let sim = SimConfig::default();
        let run = |iters| shortcut_sssp(&wg, &partition, &pruned.shortcuts, 0, iters, &sim);
        let [two, four, eight, fixpoint] =
            [run(2), run(4), run(8), run(4096)].map(|out| out.expect("fault-free relaxations run"));
        let count = |dist: &[u64], bad: fn(&u64, &u64) -> bool| {
            dist.iter().zip(&truth).filter(|(a, b)| bad(a, b)).count() as f64
        };
        let below: f64 = [&two, &four, &eight]
            .iter()
            .map(|o| count(&o.dist, u64::lt))
            .sum();
        r.on(format!("E11 D=4 n={}", g.n()));
        r.push(
            "Cor 4.2: nodes below Dijkstra after 2, 4, 8 iterations",
            below,
            Bound::Equal(0.0),
        );
        r.push(
            "Cor 4.2: fixpoint nodes off Dijkstra",
            count(&fixpoint.dist, u64::ne),
            Bound::Equal(0.0),
        );
        r.push(
            "Cor 4.2: iterations to the fixpoint <= Bellman-Ford rounds",
            fixpoint.iterations.into(),
            Bound::AtMost(bf_rounds as f64),
        );
        r.push(
            "Cor 4.2: stretch after 8 iterations",
            eight.max_stretch,
            Bound::Measured,
        )
        .note = format!(
            "after 2: {:.3}; after 4: {:.3}",
            two.max_stretch, four.max_stretch
        );
    }
    let cliques: &[usize] = if quick { &[12, 20] } else { &[12, 20, 32, 48] };
    for &n in cliques {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let wg = WeightedGraph::with_random_weights(complete(n), 100, &mut rng);
        let cfg = MstConfig {
            diameter: Some(3),
            ..MstConfig::default()
        };
        let out = two_ecss(&wg, &cfg).expect("cliques are 2-edge-connected");
        let valid = verify_two_ecss(wg.graph(), &out.edges);
        let mst = kruskal(&wg).weight as f64;
        r.on(format!("E11 clique n={n}"));
        r.push(
            "Cor 4.3: 2-ECSS is 2-edge-connected (1 = yes)",
            u8::from(valid).into(),
            Bound::Equal(1.0),
        );
        r.push(
            "Cor 4.3: 2-ECSS weight >= Kruskal's MST weight",
            out.weight as f64,
            Bound::AtLeast(mst),
        );
        r.push(
            "Cor 4.3: 2-ECSS weight / MST weight",
            out.weight as f64 / mst,
            Bound::Measured,
        )
        .note = format!("greedy rounds {}", out.greedy_rounds);
    }
}

/// The scheduler ablation (random start delays vs simultaneous starts in
/// the part-wise BFS) and the part-shape ablation (KP vs the baselines as
/// the part count n^γ varies), both on D = 4 highways.
fn ablations(quick: bool, r: &mut Report) {
    let (hw, partition) = highway_workload(if quick { 600 } else { 2500 }, 4);
    let g = hw.graph();
    let n = g.n();
    let params = kp_params(n, 4);
    let leaders: Vec<NodeId> = (0..partition.num_parts())
        .map(|i| partition.leader(i))
        .collect();
    let parts: Vec<u32> = (0..partition.num_parts() as u32).collect();
    let membership = SampleOracle::new(5, params.p, params.reps).membership(&partition, &parts, n);
    let phase_len = lcs_congest::ceil_log2(n) as u64;
    for (name, delays) in [
        ("random start delays", true),
        ("simultaneous starts", false),
    ] {
        let instances = (0..partition.num_parts())
            .map(|i| MultiBfsInstance {
                root: leaders[i],
                start_round: if delays {
                    shared_delay(99, i as u32, params.k_ceil as u64) * phase_len
                } else {
                    0
                },
                depth_limit: params.depth_limit(),
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: membership.clone(),
            queue_cap: 0,
        });
        let out = Session::new(g, SimConfig::default())
            .run(MultiBfs::new(spec))
            .expect("the BFS bundle finishes");
        r.on(format!("D=4 n={n} {name}"));
        r.push(
            "Ablation: part-wise BFS rounds",
            out.stats.rounds as f64,
            Bound::Measured,
        )
        .note = format!("max queue {}", out.max_queue);
    }
    for gexp in [0.25f64, 0.4, 0.5, 0.6, 0.75] {
        let hw = HighwayGraph::with_gamma_exponent(2500, 4, gexp).expect("valid shape");
        let g = hw.graph();
        let partition = Partition::new(g, hw.path_parts()).expect("path parts are valid");
        let total = |s: &ShortcutSet| {
            measure_quality(g, &partition, s, DilationMode::Exact)
                .quality
                .total()
        };
        let params = kp_params(g.n(), 4);
        let kp = total(&centralized_shortcuts(g, &partition, params, 9).shortcuts);
        let p = hw.params();
        r.on(format!(
            "D=4 n={} {} paths of {} (gamma n^{gexp:.2})",
            g.n(),
            p.num_paths,
            p.path_len
        ));
        r.push("Ablation: KP c+d by part shape", kp as f64, Bound::Measured)
            .note = format!(
            "trivial {}; global-tree {}",
            total(&trivial_shortcuts(&partition)),
            total(&global_tree_shortcuts(g, &partition, 0, Some(1))),
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("claims: {e}\nusage: claims [--quick] [--out PATH | --check PATH]");
        std::process::exit(2);
    });
    let committed = args.check.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("claims --check: cannot read {path}: {e}");
            std::process::exit(2);
        });
        if let Err(e) = check_mode(&text, mode(args.quick)) {
            eprintln!("claims --check {path}: {e}; modes must match to compare");
            std::process::exit(2);
        }
        text
    });
    let mut report = Report::default();
    quality_scaling(args.quick, &mut report);
    congestion_and_dilation(args.quick, &mut report);
    rounds_and_messages(args.quick, &mut report);
    mst(args.quick, &mut report);
    min_cut(args.quick, &mut report);
    walks(args.quick, &mut report);
    odd_diameter(args.quick, &mut report);
    sssp_and_two_ecss(args.quick, &mut report);
    ablations(args.quick, &mut report);
    let rows = report.rows;

    let width = |f: fn(&Row) -> usize| rows.iter().map(f).max().unwrap_or(0);
    let (wc, wi) = (
        width(|r| r.claim.chars().count()),
        width(|r| r.instance.chars().count()),
    );
    for r in &rows {
        let (verdict, value, bound) = (r.verdict_str(), num(r.value), r.bound_str());
        let line = format!(
            "{verdict:<8}  {:<wc$}  {:<wi$}  {value:>9}  {bound:<10}  {}",
            r.claim, r.instance, r.note
        );
        println!("{}", line.trim_end());
    }
    let failed: Vec<&Row> = rows.iter().filter(|r| r.verdict() == Some(false)).collect();
    let bounded = rows.iter().filter(|r| r.verdict().is_some()).count();
    println!(
        "claims: {} of {bounded} bounded rows hold; {} rows measured",
        bounded - failed.len(),
        rows.len() - bounded
    );
    for r in &failed {
        eprintln!(
            "FAILS: {} on {}: value {}, bound {}",
            r.claim,
            r.instance,
            num(r.value),
            r.bound_str()
        );
    }
    if let Some(path) = &args.out {
        let mode = mode(args.quick);
        let body: Vec<String> = rows.iter().map(Row::json).collect();
        let json = format!(
            "{{\n  \"bench\": \"claims\",\n  \"mode\": \"{mode}\",\n  \"failed\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
            failed.len(),
            body.join(",\n    ")
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("claims: cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let (Some(path), Some(committed)) = (&args.check, &committed) {
        let diffs = row_diffs(&rows, committed);
        for d in &diffs {
            eprintln!("{d}");
        }
        if !diffs.is_empty() {
            eprintln!(
                "claims --check: {} rows differ from {path} \
                 (rerun with `--out {path}` instead to regenerate if intentional)",
                diffs.len()
            );
            std::process::exit(1);
        }
        eprintln!("claims --check: all {} rows equal {path}", rows.len());
    }
    std::process::exit(exit_status(&rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(cells: &[(f64, Bound)]) -> Vec<Row> {
        let mut report = Report::default();
        for &(value, bound) in cells {
            report.push("claim", value, bound);
        }
        report.rows
    }

    #[test]
    fn a_row_over_its_bound_fails_the_run() {
        let over = rows(&[(1.0, Bound::AtMost(4.0)), (5.0, Bound::AtMost(4.0))]);
        assert_eq!(over[1].verdict(), Some(false));
        assert_eq!(over[1].verdict_str(), "FAILS");
        assert_eq!(exit_status(&over), 1);
        assert_eq!(exit_status(&rows(&[(3.0, Bound::AtLeast(4.0))])), 1);
        assert_eq!(exit_status(&rows(&[(1.0, Bound::Equal(0.0))])), 1);
    }

    #[test]
    fn an_all_holding_set_exits_0() {
        let all = rows(&[
            (4.0, Bound::AtMost(4.0)),
            (4.0, Bound::AtLeast(4.0)),
            (0.0, Bound::Equal(0.0)),
            (1e9, Bound::Measured),
            (0.9, Bound::Ref(0.25)),
        ]);
        assert!(all[..3].iter().all(|r| r.verdict() == Some(true)));
        assert!(all[3..].iter().all(|r| r.verdict().is_none()));
        assert_eq!(exit_status(&all), 0);
        assert_eq!(exit_status(&[]), 0);
    }

    #[test]
    fn only_quick_out_and_check_are_accepted() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]), Ok(Args::default()));
        let both = Args {
            quick: true,
            out: Some("x.json".to_string()),
            check: None,
        };
        assert_eq!(parse(&["--out", "x.json", "--quick"]), Ok(both));
        let check = Args {
            quick: true,
            out: None,
            check: Some("x.json".to_string()),
        };
        assert_eq!(parse(&["--quick", "--check", "x.json"]), Ok(check));
        for bad in [
            &["--seed", "1"][..],
            &["--out"],
            &["--out", "--quick"],
            &["quick"],
            &["--check"],
            &["--check", "--quick"],
            &["--check", "x.json", "--out", "y.json"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn check_names_each_differing_new_and_missing_row() {
        let mut report = Report::default();
        for (instance, value) in [("a", 1.0), ("b", 2.0), ("c", 3.0)] {
            report.on(instance.to_string());
            report.push("claim", value, Bound::AtMost(4.0));
        }
        let file = |rows: &[Row]| {
            let body: Vec<String> = rows.iter().map(Row::json).collect();
            format!(
                "{{\n  \"mode\": \"full\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
                body.join(",\n    ")
            )
        };
        let committed = file(&report.rows);
        assert_eq!(check_mode(&committed, "full"), Ok(()));
        assert!(check_mode(&committed, "quick").is_err());
        assert!(row_diffs(&report.rows, &committed).is_empty());

        report.rows[1].value = 2.5;
        report.rows[2].instance = "d".to_string();
        let diffs = row_diffs(&report.rows, &committed);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs[0].starts_with("differs: ") && diffs[0].contains("\"value\": 2.500"));
        assert!(diffs[1].starts_with("new: ") && diffs[1].contains("\"instance\": \"d\""));
        assert!(diffs[2].starts_with("missing: ") && diffs[2].contains("\"instance\": \"c\""));
    }
}
