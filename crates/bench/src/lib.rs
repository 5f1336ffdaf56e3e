//! # lcs-bench
//!
//! Benches for the Kogan–Parter reproduction (PODC 2021). The paper is a
//! theory paper, so its "results" are theorems and corollaries; the
//! `claims` binary (`src/bin/claims.rs`) runs each statement on fixed
//! seeds and prints one row per statement with its measured value, its
//! bound and a verdict, and exits 1 if a bounded row fails. The other
//! binaries are the gated benches: `sim_throughput`, `quality_bench`,
//! `serve_throughput` and `adversary_bench`, each checked against a
//! committed `BENCH_*.json`.
//!
//! Shared infrastructure: aligned table printing, log-log slope fits,
//! the standard highway workload, the JSON helpers of the `--check`
//! gates, the quality-bench cells ([`quality`]) and the simulator
//! workloads ([`sim_workloads`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quality;

use lcs_graph::HighwayGraph;
use lcs_shortcut::Partition;

/// A printed results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the measured
/// exponent of a power law. Returns `None` with fewer than two valid
/// points.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Standard benchmark workload: the balanced highway hard instance with
/// its path parts.
pub fn highway_workload(n_target: usize, diameter: u32) -> (HighwayGraph, Partition) {
    let hw = HighwayGraph::balanced(n_target, diameter).expect("valid workload parameters");
    let parts = hw.path_parts();
    let partition = Partition::new(hw.graph(), parts).expect("path parts are valid");
    (hw, partition)
}

/// Parses `--flag VALUE` from a bin's arguments. A bare `--flag` (no
/// value, or another flag next) exits with status 2 rather than
/// behaving like an absent flag.
pub fn value_flag(args: &[String], flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    match args.get(pos + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

/// Extracts `"key": "value"` from the hand-rolled JSON the bench bins
/// emit (the workspace has no JSON dependency).
pub fn json_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..].find('"')? + start;
    Some(&json[start..end])
}

/// The raw text of `key`'s value in one record object of the JSON the
/// bench bins write: an array up to its `]`, anything else up to the
/// next `,` or `}`. Keys are matched with their opening quote, so
/// `"rounds"` never matches `"extra_rounds"`, and a record's own fields
/// precede its phase array.
fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

/// `--check` for the bins that write one `{"name":…,"shards":…}`
/// record per line (`adversary_bench`, `sim_throughput`): compares this
/// run's `records` against the committed file at `path`, and never
/// writes. Exits 2 unless `path` holds a run of the same `mode` over
/// the same `(name, shards)` set, and 1 unless every `gated` field of
/// every record equals the committed one.
pub fn check_records(bin: &str, path: &str, mode: &str, records: &[String], gated: &[&str]) {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{bin} --check: cannot read {path}: {e}"));
    let want_mode = json_str(&committed, "mode").unwrap_or("?");
    if want_mode != mode {
        eprintln!(
            "{bin}: committed {path} is a \"{want_mode}\" run; \
             this is a \"{mode}\" run — modes must match to compare"
        );
        std::process::exit(2);
    }
    let key = |obj: &str| {
        (
            raw_field(obj, "name")
                .unwrap_or("?")
                .trim_matches('"')
                .to_string(),
            raw_field(obj, "shards").unwrap_or("?").to_string(),
        )
    };
    let want: Vec<&str> = committed
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"name\":"))
        .map(|l| l.trim_end_matches(','))
        .collect();
    let mut want_keys: Vec<_> = want.iter().map(|o| key(o)).collect();
    let mut got_keys: Vec<_> = records.iter().map(|o| key(o)).collect();
    want_keys.sort();
    got_keys.sort();
    if want_keys != got_keys {
        eprintln!(
            "{bin}: {path} holds records {want_keys:?}, this run has {got_keys:?} — \
             the (name, shards) sets must match to compare"
        );
        std::process::exit(2);
    }
    let mut regressed = false;
    for obj in records {
        let k = key(obj);
        let committed_obj = want.iter().find(|o| key(o) == k).expect("same key sets");
        for field in gated {
            let (now, then) = (raw_field(obj, field), raw_field(committed_obj, field));
            if now != then {
                regressed = true;
                eprintln!(
                    "{bin} REGRESSION: {} @ {} shards: {field} is {} but {path} has {}",
                    k.0,
                    k.1,
                    now.unwrap_or("(missing)"),
                    then.unwrap_or("(missing)"),
                );
            }
        }
    }
    if regressed {
        eprintln!("(rerun without --check, with `--out {path}`, to regenerate if intentional)");
        std::process::exit(1);
    }
    eprintln!("{bin} check: ok ({} records)", records.len());
}

/// Geometric mean of ratios (for summarizing bound slack).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// The simulator-throughput workloads the `sim_throughput` binary runs
/// (emits and checks `BENCH_sim.json`): an idle clock, a saturating
/// flood and the standard multi-BFS bundle.
pub mod sim_workloads {
    use lcs_congest::{MultiBfsInstance, MultiBfsSpec, Protocol, RoundCtx, RunStats, Wake};
    use lcs_graph::{Graph, NodeId};
    use std::sync::Arc;

    /// Node 0 stays awake (explicit [`Wake`] contract — it gets no
    /// mail) for a fixed number of rounds, then sleeps; every other node
    /// sleeps after round 0. This is the engine's pure **idle-round**
    /// workload: under event-driven active sets each round costs O(1) —
    /// independent of `n`, and of the shard count too, because
    /// near-quiescent rounds run inline on the coordinator instead of
    /// crossing the worker barrier. A node's state is its ticks left.
    #[derive(Debug)]
    pub struct Clock {
        ticks: u64,
    }

    impl Clock {
        /// Node 0 stays scheduled for `ticks` rounds (0 = everyone
        /// sleeps after round 0).
        pub fn new(ticks: u64) -> Self {
            Clock { ticks }
        }
    }

    impl Protocol for Clock {
        type Msg = u32;
        type State = u64;
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<u64> {
            (0..graph.n())
                .map(|v| if v == 0 { self.ticks } else { 0 })
                .collect()
        }
        fn round(&self, ticks: &mut u64, _ctx: &mut RoundCtx<'_, u32>) {
            if *ticks > 0 {
                *ticks -= 1;
            }
        }
        fn halted(&self, _: &u64) -> bool {
            true
        }
        fn wake(&self, &ticks: &u64) -> Wake {
            if ticks > 0 {
                Wake::Stay
            } else {
                Wake::Sleep
            }
        }
        fn finish(self, _: &Graph, _: Vec<u64>, _: &RunStats) {}
    }

    /// Saturates every arc every round: the raw engine message path
    /// (send → slot → gather) with a trivial node program. Every node
    /// sends for a fixed number of rounds; the output is a checksum of
    /// everything heard (defeats dead-code elimination). A node's state
    /// is `(rounds left to keep sending, checksum)`.
    #[derive(Debug)]
    pub struct Saturate {
        rounds: u64,
    }

    impl Saturate {
        /// Every node sends on every arc for `rounds` rounds.
        pub fn new(rounds: u64) -> Self {
            Saturate { rounds }
        }
    }

    impl Protocol for Saturate {
        type Msg = u32;
        type State = (u64, u64);
        type Output = u64;
        fn init(&mut self, graph: &Graph) -> Vec<(u64, u64)> {
            vec![(self.rounds, 0); graph.n()]
        }
        fn round(&self, (rounds_left, sum): &mut (u64, u64), ctx: &mut RoundCtx<'_, u32>) {
            for &(_, m) in ctx.inbox() {
                *sum = sum.wrapping_add(u64::from(m));
            }
            if *rounds_left > 0 {
                *rounds_left -= 1;
                for i in 0..ctx.degree() {
                    ctx.send_nth(i, ctx.round() as u32);
                }
            }
        }
        fn halted(&self, &(rounds_left, _): &(u64, u64)) -> bool {
            rounds_left == 0
        }
        fn finish(self, _: &Graph, states: Vec<(u64, u64)>, _: &RunStats) -> u64 {
            states
                .iter()
                .fold(0, |acc, &(_, sum)| acc.wrapping_add(sum))
        }
    }

    /// The standard multi-BFS bundle: `instances` full-membership BFS
    /// roots spread evenly over `0..n`, staggered starts, unlimited
    /// depth.
    pub fn multi_bfs_spec(n: usize, instances: usize) -> Arc<MultiBfsSpec> {
        Arc::new(MultiBfsSpec {
            instances: (0..instances)
                .map(|i| MultiBfsInstance {
                    root: ((i * n) / instances) as NodeId,
                    start_round: (i as u64 * 3) % 16,
                    depth_limit: u32::MAX,
                })
                .collect(),
            membership: lcs_congest::Membership::func(|_, _, _| true),
            queue_cap: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let x = i as f64 * 10.0;
                (x, 3.0 * x.powf(0.25))
            })
            .collect();
        let s = loglog_slope(&pts).unwrap();
        assert!((s - 0.25).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn slope_edge_cases() {
        assert!(loglog_slope(&[]).is_none());
        assert!(loglog_slope(&[(1.0, 2.0)]).is_none());
        assert!(loglog_slope(&[(0.0, 2.0), (-1.0, 3.0)]).is_none());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn workload_construction() {
        let (hw, p) = highway_workload(500, 4);
        assert!(hw.n() >= 300);
        assert!(p.num_parts() >= 2);
    }

    #[test]
    fn geomean_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }
}
