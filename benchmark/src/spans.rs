//! Spans the benchmark records around its own calls into each layer: name,
//! start, end, the span that caused it, and the op they belong to. They are
//! held in memory and written out once, when the run ends.

use crate::json;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; when off every call runs its closure and nothing
/// else, so the timed ops and the traced ops are the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    stack: Vec<SpanId>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans recorded from now on belong to op `op`.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<SpanId>) {
        if !self.on {
            return (f(self), None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, Some(id))
    }

    /// Time `f` as a span caused by the span that is open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_id(name, f).0
    }

    /// [`span`](Self::span), also returning the span's id (`None` when off).
    pub fn span_id<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<SpanId>) {
        let parent = self.stack.last().copied();
        self.record(name, parent, f)
    }

    /// [`span`](Self::span), also returning the seconds `f` took, measured
    /// whether or not the tracer is on.
    pub fn span_timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = self.span(name, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Time `f` as a span caused by `parent` although it runs after `parent`
    /// has ended: the replay of a call whose inside the benchmark cannot see.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.record(name, parent, |_| f()).0
    }
}

/// Each span's self time: its duration minus its children's durations.
/// Replayed children may sum to more than their parent took; the negative
/// remainder is kept, because it is the error of the attribution.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns() as i64;
        }
    }
    own
}

/// The spans as one JSON document, self times included, with `metrics`
/// (name, value, unit) beside them.
pub fn to_json(workload: &str, spans: &[Span], metrics: &[(String, f64, String)]) -> String {
    let own = self_times_ns(spans);
    let mut out = format!("{{\"workload\": {}, \"spans\": [", json::string(workload));
    for (id, (s, self_ns)) in spans.iter().zip(&own).enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\": {id}, \"name\": {}, \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            json::string(s.name),
            s.op,
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("\n], \"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(name),
            json::number(*value),
            json::string(unit)
        ));
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        let spans = [
            span("verdict", None, 0, 100),
            span("compile", Some(0), 10, 40),
            span("run", Some(0), 40, 90),
            span("align", Some(1), 12, 20),
            span("map", Some(1), 20, 35),
        ];
        // verdict 100 - (30 + 50); compile 30 - (8 + 15); leaves keep theirs.
        assert_eq!(self_times_ns(&spans), vec![20, 7, 50, 8, 15]);
    }

    #[test]
    fn replayed_children_longer_than_the_parent_leave_a_negative_remainder() {
        let spans = [
            span("compile", None, 0, 10),
            span("align", Some(0), 50, 58),
            span("map", Some(0), 58, 62),
        ];
        assert_eq!(self_times_ns(&spans)[0], -2);
    }

    #[test]
    fn tracer_links_children_to_the_open_span_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.begin_op(3);
        let (inner, root) = t.span_id("root", |t| t.span_id("child", |_| 7));
        assert_eq!(inner.0, 7);
        t.replay("again", inner.1, || ());
        t.span("sibling", |_| ());
        let parents: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            parents,
            vec![
                ("root", None, 3),
                ("child", root, 3),
                ("again", inner.1, 3),
                ("sibling", None, 3)
            ]
        );
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        assert_eq!(off.span_id("root", |t| t.span("child", |_| 1)), (1, None));
        assert!(off.spans.is_empty());
    }

    #[test]
    fn spans_file_is_well_formed_json() {
        let mut t = Tracer::new(true);
        t.span("a \"quoted\" name", |t| t.span("b", |_| ()));
        let metrics = [("sim.run_s".to_string(), f64::NAN, "s".to_string())];
        let doc = to_json("stream_seq", &t.spans, &metrics);
        bp_sim::validate_json(&doc).expect("spans file must validate");
        assert_eq!(doc.matches("\"start_ns\"").count(), 2, "{doc}");
    }
}
