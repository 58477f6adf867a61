//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span has a name, a start and end on the run's monotonic clock, and
//! the span that was open when it began. Spans stay in memory and are
//! written out as JSONL when the run ends. With tracing off, `begin` and
//! `end` only read the clock, so traced and untraced runs time the same
//! calls.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Open-span handle returned by [`Tracer::begin`].
pub struct Open {
    start_ns: u64,
    slot: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled: false` keeps no spans.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between calls.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let slot = self.enabled.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open { start_ns, slot }
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans must nest");
            self.spans[slot].end_ns = end_ns;
        }
        end_ns - open.start_ns
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(name);
        let r = f();
        let ns = self.end(open);
        (r, ns)
    }

    /// The spans as JSONL: one `{"id","name","start_ns","end_ns","parent"}`
    /// object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let ((), _) = t.time("inner", || ());
        t.end(outer);
        let s = &t.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, _ns) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
