//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions: name, start, end, the span that
//! caused it and the request it belongs to. They stay in memory while the
//! benchmark measures and are written out once at exit. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `crypto.client_sign`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Request (live) or batch (replay) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. Each thread that records owns one;
/// [`write_json`] merges them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by all the
    /// tracers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// this tracer become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a child of whatever span
    /// is open (the live loop times calls itself so that an untraced call
    /// costs one branch).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// The recorded spans, in start order per nesting level.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the duration of its direct
/// children (children lie inside their parent and do not overlap each
/// other, both by construction of [`Tracer::span`]).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Every span of one name: durations and self times, in record order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Named {
    /// Duration of each span, ns.
    pub durations_ns: Vec<u64>,
    /// Self time of each span, ns.
    pub self_ns: Vec<u64>,
}

impl Named {
    /// Median duration in microseconds: a span that was preempted or hit
    /// a slow phase of the machine does not move it.
    pub fn median_us(&self) -> f64 {
        let ns: Vec<f64> = self.durations_ns.iter().map(|d| *d as f64).collect();
        crate::stats::median(&ns) / 1_000.0
    }
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Named> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Named> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let named = out.entry(s.name).or_default();
        named.durations_ns.push(s.duration_ns());
        named.self_ns.push(self_ns);
    }
    out
}

/// Writes the spans of several tracers as one JSON document. Span ids are
/// `<thread>:<index>` so parents stay unambiguous after the merge.
pub fn write_json(path: &Path, workload: &str, threads: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns since run epoch\", \"spans\": ["
    )?;
    let mut first = true;
    for (thread, tracer) in threads {
        let own = self_times(tracer.spans());
        for (i, (s, self_ns)) in tracer.spans().iter().zip(own).enumerate() {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let parent = match s.parent {
                Some(p) => format!("\"{thread}:{p}\""),
                None => "null".to_string(),
            };
            write!(
                out,
                "{{\"id\": \"{thread}:{i}\", \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"self\": {self_ns}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 with children 10..30 and 40..90; the second child
        // has its own child 50..60.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times partition the root's duration exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let t = by_name(&spans);
        assert_eq!(t["root"].self_ns, vec![30]);
        assert_eq!(t["b"].durations_ns, vec![50]);
        assert_eq!(t["b"].self_ns, vec![40]);
        assert_eq!(t["b"].median_us(), 0.05);
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            span("root", 0, 10, None),
            span("mid", 0, 10, Some(0)),
            span("leaf", 0, 10, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 10]);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            let now = Instant::now();
            t.record("timed", 7, now, now);
        });
        t.span("sibling", 8, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s[0].end_ns >= s[1].end_ns && s[0].start_ns <= s[1].start_ns);
        assert_eq!(s[3].request, 8);
    }
}
