//! Spans recorded by the benchmark around each public library call.
//!
//! Tracing is off in the runs that give end-to-end metrics; there
//! [`Tracer::begin`] and [`Tracer::end`] do nothing. In a traced run
//! each span keeps its name, start, end, parent, operation id, the
//! clock interval it ran in, and the counts read from the call's
//! result. Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.distributed_shortcuts`.
    pub name: &'static str,
    /// Free-form tag, e.g. the query kind of a `serve.serve` span.
    pub tag: &'static str,
    /// Operation index, or `None` for set-up, checks and references.
    pub op: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Clock interval the span started in.
    pub interval: usize,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Counts read from the call's result.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    own: Duration,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            own: Duration::ZERO,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: Option<usize>,
        interval: usize,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let entered = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            op,
            parent: self.open.last().copied(),
            interval,
            start: (entered - self.t0).as_secs_f64(),
            end: f64::NAN,
            counts: Vec::new(),
        });
        self.open.push(id);
        self.own += entered.elapsed();
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let entered = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = (entered - self.t0).as_secs_f64();
            if top == id {
                break;
            }
        }
        self.own += entered.elapsed();
    }

    /// Attaches a count to `span`.
    pub fn count(&mut self, span: SpanId, key: &'static str, value: f64) {
        if let Some(id) = span.0 {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Every closed span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time spent inside the recorder itself.
    pub fn own_s(&self) -> f64 {
        self.own.as_secs_f64()
    }

    /// Self time of each span: its duration minus the part of it its
    /// child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::wall).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.wall();
            }
        }
        own
    }

    /// The spans as JSON lines, with self times.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"op\":{},\"parent\":{},\
                 \"interval\":{},\"start_s\":{},\"end_s\":{},\"self_s\":{},\"counts\":{{{}}}}}",
                s.name,
                s.tag,
                opt(s.op),
                opt(s.parent),
                s.interval,
                s.start,
                s.end,
                own,
                counts.join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("op", "", Some(0), 0);
        t.count(s, "x", 1.0);
        t.end(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", "", Some(0), 0);
        let a = t.begin("a", "", Some(0), 0);
        t.end(a);
        let b = t.begin("b", "", Some(0), 0);
        t.end(b);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = t.self_times();
        let expect = spans[0].wall() - spans[1].wall() - spans[2].wall();
        assert!((own[0] - expect).abs() < 1e-12);
        assert_eq!(own[1], spans[1].wall());
        assert!(t.to_jsonl().lines().count() == 3);
    }
}
