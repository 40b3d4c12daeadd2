//! The benchmark's own spans: recorded around each public call it makes
//! into the simulator, kept in memory, summarized at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `engine.replay`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part direct children
    /// cover), ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time in ms (0 when no span was recorded).
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Records spans and counts when enabled; a disabled tracer only runs
/// the closures it is handed.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Totals for one span name (zero if none was recorded).
    pub fn total(&self, name: &str) -> SpanTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Summed self time in ns of every span whose name starts with
    /// `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.totals()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Writes every span as Chrome trace-event JSON (complete events on
    /// one track, µs timestamps).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_chrome<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        w.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3
            )?;
        }
        w.write_all(b"\n]}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |t| t.span("leaf", |_| std::hint::black_box(1)));
            t.count("things", 2);
        });
        let totals = t.totals();
        let (outer, inner, leaf) = (totals["outer"], totals["inner"], totals["leaf"]);
        assert_eq!(outer.count, 1);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns - leaf.total_ns);
        assert_eq!(leaf.self_ns, leaf.total_ns);
        assert_eq!(t.counter("things"), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_still_runs_the_work() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 41 + 1), 42);
        t.count("x", 1);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("x"), 0);
    }
}
