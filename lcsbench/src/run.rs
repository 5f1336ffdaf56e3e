//! One benchmark run: the clock, the tracer, timed samples, output
//! checks, counts, and the metrics computed from them.

use crate::clock::{iqr_share, median, percentile, scale, tail_percentile, HostClock};
use crate::heap;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sample kind of set-up repetitions; every other kind is an operation.
pub const SETUP: &str = "setup";

/// Failure messages printed before the rest are only counted.
const MAX_REPORTED_FAILURES: usize = 5;

struct Sample {
    kind: &'static str,
    raw: f64,
    interval: usize,
}

/// State of one run.
pub struct Ctx {
    /// The host-normalized clock.
    pub clock: HostClock,
    /// The span recorder.
    pub trace: Tracer,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    fingerprint: u64,
    counts: BTreeMap<&'static str, (f64, u64)>,
    /// Heap bytes live once the clock's kernel is built.
    baseline_heap: usize,
}

impl Ctx {
    /// A run with tracing on or off.
    pub fn new(trace: bool) -> Self {
        let clock = HostClock::new();
        heap::reset_peak();
        Ctx {
            clock,
            trace: Tracer::new(trace),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
            counts: BTreeMap::new(),
            baseline_heap: heap::live(),
        }
    }

    /// The workload's own peak heap so far, in MiB: the most bytes live
    /// at once since the clock's kernel was built, less the bytes live
    /// then (the benchmark's fixed footprint).
    pub fn peak_heap_mb(&self) -> f64 {
        (heap::peak() - self.baseline_heap) as f64 / f64::from(1 << 20)
    }

    /// Opens a span in the current clock interval.
    pub fn span(&mut self, name: &'static str, tag: &'static str, op: Option<usize>) -> SpanId {
        let interval = self.clock.interval();
        self.trace.begin(name, tag, op, interval)
    }

    /// Closes a span.
    pub fn end(&mut self, span: SpanId) {
        self.trace.end(span);
    }

    /// Takes a clock tick in a `host.kernel` span that carries the timed
    /// pass, so the span dump holds what normalization used.
    pub fn tick(&mut self) {
        let span = self.span("host.kernel", "", None);
        self.clock.tick();
        self.end(span);
        let refs = self.clock.refs();
        self.trace.count(span, "ref_s", refs[refs.len() - 1]);
    }

    /// Records one timed duration of `kind`.
    pub fn record(&mut self, kind: &'static str, raw: Duration) {
        let interval = self.clock.interval();
        self.samples.push(Sample {
            kind,
            raw: raw.as_secs_f64(),
            interval,
        });
    }

    /// Runs one batch of `reps` set-up repetitions back to back, each
    /// on a fresh input from `input` (made outside the timing) and
    /// timed as one [`SETUP`] sample, then takes a clock tick. Called
    /// right after a tick, so the batch fills one interval of its own.
    /// Returns the last repetition's result.
    pub fn setup_batch<I, T>(
        &mut self,
        reps: usize,
        mut input: impl FnMut() -> I,
        mut setup: impl FnMut(&mut Ctx, I) -> T,
    ) -> T {
        let mut last = None;
        for _ in 0..reps {
            let input = input();
            let span = self.span("setup", "", None);
            let t0 = Instant::now();
            let value = setup(self, input);
            self.record(SETUP, t0.elapsed());
            self.end(span);
            last = Some(value);
        }
        self.tick();
        last.expect("at least one set-up repetition")
    }

    /// Counts one operation and whether every check on it passed.
    pub fn finish_op(&mut self, op: usize, failures: &[String]) {
        self.attempted += 1;
        if failures.is_empty() {
            return;
        }
        self.failed += 1;
        if self.failed as usize <= MAX_REPORTED_FAILURES {
            eprintln!("operation {op} failed: {}", failures.join("; "));
        }
    }

    /// Operations attempted and failed so far.
    pub fn tally(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// Folds an integer output into the run's fingerprint.
    pub fn fold(&mut self, x: u64) {
        self.fold_bytes(&x.to_le_bytes());
    }

    /// Folds a byte string into the run's fingerprint.
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fingerprint ^= u64::from(b);
            self.fingerprint = self.fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a fingerprint over every operation's integer outputs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Attaches a count to `span` and adds it to the run's mean of
    /// `key`.
    pub fn note(&mut self, span: SpanId, key: &'static str, value: f64) {
        self.trace.count(span, key, value);
        let e = self.counts.entry(key).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// Mean of every value noted under `key` (0 when none was).
    pub fn mean(&self, key: &str) -> f64 {
        self.counts.get(key).map_or(0.0, |&(sum, n)| sum / n as f64)
    }

    /// Normalized durations of the samples `kind` selects, in order.
    pub fn normalized(&self, kind: impl Fn(&str) -> bool) -> Vec<f64> {
        let refs = self.clock.refs();
        self.samples
            .iter()
            .filter(|s| kind(s.kind))
            .map(|s| s.raw * scale(refs, s.interval))
            .collect()
    }

    /// Raw wall durations of the samples `kind` selects, in order.
    pub fn raw(&self, kind: impl Fn(&str) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| kind(s.kind))
            .map(|s| s.raw)
            .collect()
    }

    /// Operation kinds in first-seen order.
    pub fn op_kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = Vec::new();
        for s in &self.samples {
            if s.kind != SETUP && !kinds.contains(&s.kind) {
                kinds.push(s.kind);
            }
        }
        kinds
    }

    /// Normalized durations of the spans named `name`.
    pub fn span_durations(&self, name: &str) -> Vec<f64> {
        let refs = self.clock.refs();
        self.trace
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall() * scale(refs, s.interval))
            .collect()
    }

    /// Share of operation time spent in the own time of spans named
    /// `name` that run inside an operation.
    pub fn op_share(&self, name: &str) -> f64 {
        let spans = self.trace.spans();
        let own = self.trace.self_times();
        let op_total: f64 = spans
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| s.wall())
            .sum();
        let inside = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.op.is_some())
            .fold(0.0, |sum, (_, &t)| sum + t);
        inside / op_total
    }
}

/// A metric as printed in the result line.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(ctx: &Ctx, peak_heap_mb: f64) -> Vec<Metric> {
    let setup = ctx.normalized(|k| k == SETUP);
    let ops = ctx.normalized(|k| k != SETUP);
    vec![
        m("setup_s", "s", median(&setup)),
        m("p50_s", "s", median(&ops)),
        m(
            "ops_per_s",
            "1/s",
            ops.len() as f64 / ops.iter().sum::<f64>(),
        ),
        m("rounds", "count", ctx.mean("rounds")),
        m("messages", "count", ctx.mean("messages")),
        m("c_plus_d", "count", ctx.mean("c_plus_d")),
        m("peak_heap_mb", "MiB", peak_heap_mb),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(ctx: &Ctx) -> Vec<Metric> {
    let build_s = median(&ctx.span_durations("core.distributed_shortcuts"));
    let op_wall: f64 = ctx.raw(|k| k != SETUP).iter().sum();
    vec![
        m(
            "p90_s",
            "s",
            percentile(&ctx.normalized(|k| k != SETUP), 90.0),
        ),
        m("congest.A.rounds", "count", ctx.mean("congest.A.rounds")),
        m("congest.B1.rounds", "count", ctx.mean("congest.B1.rounds")),
        m("congest.B2.rounds", "count", ctx.mean("congest.B2.rounds")),
        m("congest.B3.rounds", "count", ctx.mean("congest.B3.rounds")),
        m("congest.B4.rounds", "count", ctx.mean("congest.B4.rounds")),
        m(
            "congest.B3.messages",
            "count",
            ctx.mean("congest.B3.messages"),
        ),
        m("congest.msgs_per_s", "1/s", ctx.mean("messages") / build_s),
        m(
            "congest.detect.rounds",
            "count",
            ctx.mean("congest.detect.rounds"),
        ),
        m(
            "congest.detect.messages",
            "count",
            ctx.mean("congest.detect.messages"),
        ),
        m("congest.dropped", "count", ctx.mean("congest.dropped")),
        m("congest.delayed", "count", ctx.mean("congest.delayed")),
        m("congest.corrupted", "count", ctx.mean("congest.corrupted")),
        m(
            "congest.useful_ratio",
            "ratio",
            ctx.mean("congest.useful_ratio"),
        ),
        m("core.build_s", "s", build_s),
        m(
            "core.build_share",
            "ratio",
            ctx.op_share("core.distributed_shortcuts"),
        ),
        m("core.guesses", "count", ctx.mean("core.guesses")),
        m(
            "core.accepted_guess",
            "count",
            ctx.mean("core.accepted_guess"),
        ),
        m("core.overflowed", "count", ctx.mean("core.overflowed")),
        m("core.excised", "count", ctx.mean("core.excised")),
        m("core.detect_share", "ratio", ctx.mean("core.detect_share")),
        m(
            "shortcut.verify_s",
            "s",
            median(&ctx.span_durations("shortcut.verify")),
        ),
        m(
            "shortcut.freeze_share",
            "ratio",
            ctx.op_share("shortcut.freeze"),
        ),
        m(
            "shortcut.bytes_share",
            "ratio",
            ctx.op_share("shortcut.to_bytes") + ctx.op_share("shortcut.from_bytes"),
        ),
        m(
            "shortcut.index_bytes",
            "B",
            ctx.mean("shortcut.index_bytes"),
        ),
        m(
            "shortcut.congestion",
            "count",
            ctx.mean("shortcut.congestion"),
        ),
        m("shortcut.dilation", "count", ctx.mean("shortcut.dilation")),
        m(
            "serve.with_weights_share",
            "ratio",
            ctx.op_share("serve.with_weights"),
        ),
        m("serve.query_share", "ratio", ctx.op_share("serve.serve")),
        m(
            "apps.sssp_iterations",
            "count",
            ctx.mean("apps.sssp_iterations"),
        ),
        m("apps.mst_phases", "count", ctx.mean("apps.mst_phases")),
        m("apps.mincut_trees", "count", ctx.mean("apps.mincut_trees")),
        m(
            "graph.generate_s",
            "s",
            ctx.span_durations("graph.generate").iter().sum(),
        ),
        m("host.ref_s", "s", median(ctx.clock.refs())),
        m("host.ref_iqr", "ratio", iqr_share(ctx.clock.refs())),
        m("host.raw_p50_s", "s", median(&ctx.raw(|k| k != SETUP))),
        m("host.ref_share", "ratio", ctx.clock.kernel_share()),
        m("trace.overhead", "ratio", 1.0 + ctx.trace.own_s() / op_wall),
    ]
}

/// Context lines printed before the result: sample counts, raw and
/// normalized medians per operation kind, the tail percentile the
/// sample supports, the kernel's own spread, and (traced) the median
/// of every span name.
pub fn context(ctx: &Ctx) -> Vec<String> {
    let mut lines = Vec::new();
    let (attempted, failed) = ctx.tally();
    lines.push(format!(
        "ops attempted={attempted} failed={failed} error_rate={}",
        failed as f64 / attempted.max(1) as f64
    ));
    lines.push(format!("fingerprint={:#018x}", ctx.fingerprint()));
    let refs = ctx.clock.refs();
    lines.push(format!(
        "kernel ticks={} p50_s={:.6} iqr={:.4} share={:.4}",
        refs.len(),
        median(refs),
        iqr_share(refs),
        ctx.clock.kernel_share()
    ));
    let mut kinds = vec![SETUP];
    kinds.extend(ctx.op_kinds());
    if ctx.op_kinds().len() > 1 {
        kinds.push("all");
    }
    for kind in kinds {
        let select = |k: &str| if kind == "all" { k != SETUP } else { k == kind };
        let norm = ctx.normalized(select);
        let raw = ctx.raw(select);
        let tail = tail_percentile(norm.len()).map_or("none".to_string(), |q| {
            format!("p{q}={:.6}", percentile(&norm, q))
        });
        lines.push(format!(
            "{kind:<8} n={:<5} p50_s={:.6} raw_p50_s={:.6} tail {tail}",
            norm.len(),
            median(&norm),
            median(&raw),
        ));
    }
    if ctx.trace.on() {
        let mut names: Vec<&str> = ctx.trace.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let d = ctx.span_durations(name);
            lines.push(format!(
                "span {name:<28} n={:<5} p50_s={:.6} total_s={:.4}",
                d.len(),
                median(&d),
                d.iter().sum::<f64>()
            ));
        }
    }
    lines
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                if x.value.is_finite() {
                    format!("{:?}", x.value)
                } else {
                    "null".to_string()
                },
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[m("p50_s", "s", 0.012_5), m("rounds", "count", 281.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_s\": {\"value\": 0.0125, \"unit\": \"s\"}, \
             \"rounds\": {\"value\": 281.0, \"unit\": \"count\"}}}"
        );
    }
}
