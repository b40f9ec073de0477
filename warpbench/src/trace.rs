//! In-memory spans for the traced run.
//!
//! A span is one call into a layer, recorded by the benchmark around the
//! public function it drives: name, start, end, parent span, and the
//! kernel or session it worked for. Spans stay in memory while the run
//! measures and are written out once it ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.
//!
//! Spans the tracer times itself (the CAD stages) are on the thread CPU
//! clock ([`crate::clock`]); spans recorded with explicit times carry the
//! caller's clock (wall-clock ns since the window opened, for serving).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, as `layer.operation` (for example `fabric.route`).
    pub name: &'static str,
    /// The kernel or session the work was for.
    pub subject: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Records spans.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// The tracer's own clock: CPU time of the calling thread.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        clock::thread_cpu_ns()
    }

    /// Records a span whose times were taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        subject: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            subject: subject.to_string(),
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        subject: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, subject, parent, start, end);
        out
    }

    /// Opens a span that nested spans can name as their parent; close
    /// it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, subject: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.record(name, subject, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.close_at(id, now);
    }

    /// Sets the end of a span recorded with explicit times.
    pub fn close_at(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id].end_ns = end_ns.max(self.spans[id].start_ns);
    }

    /// All recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, over spans whose subject passes
    /// `keep`.
    #[must_use]
    pub fn self_ns_by_name(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            if keep(span) {
                *out.entry(span.name).or_insert(0) += own;
            }
        }
        out
    }

    /// The spans as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let own = self_times_ns(&self.spans);
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"subject\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{sep}",
                s.name,
                s.subject.escape_default(),
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children may overlap (a
/// fleet window's concurrent sessions), so the union is measured, not
/// the sum.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, subject: "k".into(), parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("cad.kernel", None, 0, 100),
            span("synth.synthesize", Some(0), 10, 30),
            span("fabric.route", Some(0), 30, 90),
            span("fabric.route.inner", Some(2), 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 20 - 60, 20, 60 - 10, 10]);
        // Self times of a tree partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("fleet.window", None, 100, 200),
            span("session", Some(0), 90, 150),
            span("session", Some(0), 120, 160),
            span("session", Some(0), 180, 260),
        ];
        // Covered: [100,160) and [180,200) = 80 ns.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_parents_and_writes_json() {
        let mut t = Tracer::default();
        let pass = t.open("cad.pass", "cold", None);
        let v = t.span("synth.map", "idct", Some(pass), || 7);
        t.close(pass);
        let id = t.spans().len() - 1;
        assert_eq!(v, 7);
        assert_eq!(t.spans()[id].parent, Some(pass));
        assert!(t.spans()[pass].end_ns >= t.spans()[id].end_ns);
        let by_name = t.self_ns_by_name(|s| s.subject == "idct");
        assert_eq!(by_name.keys().copied().collect::<Vec<_>>(), vec!["synth.map"]);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"synth.map\""));
        assert!(json.contains("\"parent\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
