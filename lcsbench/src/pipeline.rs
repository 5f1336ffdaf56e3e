//! The index build shared by `construct` (as its operation) and by
//! `serve` and `reweight` (as their set-up): `distributed_shortcuts` →
//! `ShortcutIndex::freeze` → `to_bytes` → `from_bytes`, one span per
//! public call, plus the checks and counts that run after the timing.

use crate::layers::PhaseTotals;
use crate::run::Ctx;
use crate::trace::SpanId;
use lcs_core::{distributed_shortcuts, DistributedConfig, DistributedError, DistributedOutcome};
use lcs_graph::Graph;
use lcs_shortcut::{
    verify, DilationMode, IndexMeta, Partition, Quality, QualityReport, ShortcutIndex, ShortcutSet,
};
use std::sync::Arc;

/// Generators of the highway lower-bound family all run at D = 4.
pub const DIAMETER: u32 = 4;

/// A built, serialized and reloaded index with the spans that carry
/// its counts.
pub struct Built {
    /// The pipeline's accounting (its shortcut set moved into `index`).
    pub outcome: DistributedOutcome,
    /// The frozen index.
    pub index: ShortcutIndex,
    /// Its serialized form.
    pub bytes: Vec<u8>,
    /// The index loaded back from `bytes`, ready to share with a
    /// server.
    pub loaded: Arc<ShortcutIndex>,
    build_span: SpanId,
    bytes_span: SpanId,
}

/// A pipeline config on one engine shard.
pub fn config(seed: u64) -> DistributedConfig {
    DistributedConfig {
        seed,
        shards: 1,
        ..DistributedConfig::default()
    }
}

/// The accepted parameters' bounds, as a verifier claim.
pub fn claimed(outcome: &DistributedOutcome) -> Quality {
    let clamp = |b: u64| b.min(u64::from(u32::MAX)) as u32;
    Quality {
        congestion: clamp(outcome.params.congestion_bound()),
        dilation: clamp(outcome.params.dilation_bound()),
    }
}

/// Runs the distributed pipeline in a `core.distributed_shortcuts`
/// span.
pub fn run_pipeline(
    ctx: &mut Ctx,
    graph: &Graph,
    partition: &Partition,
    cfg: &DistributedConfig,
    op: Option<usize>,
) -> (Result<DistributedOutcome, DistributedError>, SpanId) {
    let span = ctx.span("core.distributed_shortcuts", "", op);
    let out = distributed_shortcuts(graph, partition, cfg);
    ctx.end(span);
    (out, span)
}

/// Builds, freezes, serializes and reloads an index.
pub fn build(
    ctx: &mut Ctx,
    graph: &Graph,
    weights: &[u64],
    partition: &Partition,
    cfg: &DistributedConfig,
    op: Option<usize>,
) -> Result<Built, String> {
    let (out, build_span) = run_pipeline(ctx, graph, partition, cfg, op);
    let mut outcome = out.map_err(|e| format!("distributed_shortcuts: {e}"))?;
    let meta = IndexMeta {
        backend: "kogan_parter_distributed".to_string(),
        params: Vec::new(),
        seed: cfg.seed,
        certificate: Some(claimed(&outcome)),
        diameter: Some(outcome.accepted_guess),
    };
    let shortcuts = std::mem::replace(&mut outcome.shortcuts, ShortcutSet::from_edge_lists(vec![]));
    let span = ctx.span("shortcut.freeze", "", op);
    let index = ShortcutIndex::freeze(
        graph.clone(),
        weights.to_vec(),
        partition.clone(),
        shortcuts,
        meta,
    );
    ctx.end(span);
    let bytes_span = ctx.span("shortcut.to_bytes", "", op);
    let bytes = index.to_bytes();
    ctx.end(bytes_span);
    let span = ctx.span("shortcut.from_bytes", "", op);
    let loaded = ShortcutIndex::from_bytes(&bytes);
    ctx.end(span);
    let loaded = Arc::new(loaded.map_err(|e| format!("from_bytes: {e}"))?);
    Ok(Built {
        outcome,
        index,
        bytes,
        loaded,
        build_span,
        bytes_span,
    })
}

/// Notes the engine and ladder counts of one pipeline run on its span:
/// total rounds and messages, each phase family's rounds, fault
/// counters, and the guess ladder.
pub fn note_outcome(ctx: &mut Ctx, span: SpanId, out: &DistributedOutcome) {
    let phases = PhaseTotals::of(&out.phase_stats);
    if !phases.unknown.is_empty() {
        eprintln!("unmapped phase labels: {:?}", phases.unknown);
    }
    let total_rounds = out.total_rounds as f64;
    let total_messages = out.total_messages as f64;
    let detect_rounds = phases.rounds_of("detect") as f64;
    let detect_messages = phases.messages_of("detect") as f64;
    ctx.note(span, "rounds", total_rounds);
    ctx.note(span, "messages", total_messages);
    for (key, family) in [
        ("congest.A.rounds", "A"),
        ("congest.B1.rounds", "B1"),
        ("congest.B2.rounds", "B2"),
        ("congest.B3.rounds", "B3"),
        ("congest.B4.rounds", "B4"),
    ] {
        ctx.note(span, key, phases.rounds_of(family) as f64);
    }
    ctx.note(span, "congest.B3.messages", phases.messages_of("B3") as f64);
    ctx.note(span, "congest.detect.rounds", detect_rounds);
    ctx.note(span, "congest.detect.messages", detect_messages);
    ctx.note(span, "congest.dropped", phases.dropped as f64);
    ctx.note(span, "congest.delayed", phases.delayed as f64);
    ctx.note(span, "congest.corrupted", phases.corrupted as f64);
    if out.degraded.is_none() {
        // A fault-free run is its own fault-free reference; a degraded
        // run's ratio is noted once its reference has run.
        ctx.note(span, "congest.useful_ratio", 1.0);
    }
    ctx.note(span, "core.guesses", out.guesses.len() as f64);
    ctx.note(span, "core.accepted_guess", f64::from(out.accepted_guess));
    let overflowed = out.guesses.iter().filter(|g| g.overflowed).count();
    ctx.note(span, "core.overflowed", overflowed as f64);
    let excised = out.degraded.as_ref().map_or(0, |d| d.excluded_nodes.len());
    ctx.note(span, "core.excised", excised as f64);
    ctx.note(span, "core.detect_share", detect_rounds / total_rounds);
}

/// Verifies `shortcuts` against `claim` in a `shortcut.verify` span and
/// notes the measured quality.
pub fn verify_quality(
    ctx: &mut Ctx,
    graph: &Graph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    claim: Quality,
    op: Option<usize>,
) -> Result<QualityReport, String> {
    let span = ctx.span("shortcut.verify", "", op);
    let report = verify(
        graph,
        partition,
        shortcuts,
        Some(claim),
        DilationMode::Exact,
    );
    ctx.end(span);
    let report = report.map_err(|e| format!("verify: {e}"))?;
    let q = report.quality;
    ctx.note(span, "shortcut.congestion", f64::from(q.congestion));
    ctx.note(span, "shortcut.dilation", f64::from(q.dilation));
    ctx.note(span, "c_plus_d", f64::from(q.congestion + q.dilation));
    Ok(report)
}

/// The checks on one built index, after the timing: the shortcuts
/// pass verification against the accepted parameters' bounds, and the
/// index round-trips byte for byte. Notes the build's counts and folds
/// its integer outputs into the fingerprint.
pub fn check_built(ctx: &mut Ctx, built: &Built, op: Option<usize>, failures: &mut Vec<String>) {
    note_outcome(ctx, built.build_span, &built.outcome);
    ctx.note(
        built.bytes_span,
        "shortcut.index_bytes",
        built.bytes.len() as f64,
    );
    let index = &built.index;
    match verify_quality(
        ctx,
        index.graph(),
        index.partition(),
        index.shortcuts(),
        claimed(&built.outcome),
        op,
    ) {
        Ok(report) => {
            ctx.fold(u64::from(report.quality.congestion));
            ctx.fold(u64::from(report.quality.dilation));
        }
        Err(e) => failures.push(e),
    }
    if *built.loaded != built.index {
        failures.push("loaded index differs from the frozen one".to_string());
    }
    if built.loaded.to_bytes() != built.bytes {
        failures.push("index bytes do not round-trip".to_string());
    }
    ctx.fold(built.outcome.total_rounds);
    ctx.fold(built.outcome.total_messages);
    ctx.fold(u64::from(built.outcome.accepted_guess));
    ctx.fold_bytes(&built.bytes);
}
