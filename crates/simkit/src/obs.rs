//! Sim-time observability: hierarchical spans, Chrome trace export, and
//! structured per-run metric reports.
//!
//! Three pieces, all deterministic and all zero-cost when disabled:
//!
//! - [`SpanRecorder`] collects [`Span`]s — intervals of simulated time
//!   keyed by a `(unit kind, unit index)` pair. A disabled recorder
//!   (capacity 0, the default) costs one predictable branch per record
//!   site, cheap enough to leave compiled into the engine hot path.
//! - [`ChromeTraceWriter`] exports a recorder as Chrome trace-event
//!   JSON, loadable in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`. Events are sorted by `(time, kind, unit, seq)` so
//!   identical runs produce byte-identical files.
//! - [`MetricsRegistry`] is an insertion-ordered collection of named
//!   sections of named values, serializing to JSON with stable field
//!   ordering and deterministic number formatting — the per-run metric
//!   report format.
//!
//! Nothing here uses wall-clock time, host thread identity, or hash-map
//! iteration order: two identical runs serialize byte-identically
//! regardless of `--jobs` or host.

use std::io::{self, Write};

use crate::stats::{Histogram, Summary};
use crate::time::{Duration, SimTime};

pub mod latency;

/// The classes of simulated units spans are keyed by.
///
/// The discriminant doubles as the Chrome-trace `pid`, so the Perfetto
/// process list shows units grouped top-down in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum UnitKind {
    /// The engine itself (batch-level phases).
    Engine = 0,
    /// A host CPU core.
    HostCpu = 1,
    /// An embedded (firmware) core.
    Core = 2,
    /// The hardware command router.
    Router = 3,
    /// A flash die.
    Die = 4,
    /// A flash channel bus.
    Channel = 5,
    /// SSD-internal DRAM.
    Dram = 6,
    /// The PCIe link.
    Pcie = 7,
    /// The GNN accelerator (systolic + vector arrays).
    Accelerator = 8,
}

impl UnitKind {
    /// Every kind, in `pid` order.
    pub const ALL: [UnitKind; 9] = [
        UnitKind::Engine,
        UnitKind::HostCpu,
        UnitKind::Core,
        UnitKind::Router,
        UnitKind::Die,
        UnitKind::Channel,
        UnitKind::Dram,
        UnitKind::Pcie,
        UnitKind::Accelerator,
    ];

    /// Stable lower-case display name (also the trace process name).
    pub fn as_str(self) -> &'static str {
        match self {
            UnitKind::Engine => "engine",
            UnitKind::HostCpu => "host_cpu",
            UnitKind::Core => "core",
            UnitKind::Router => "router",
            UnitKind::Die => "die",
            UnitKind::Channel => "channel",
            UnitKind::Dram => "dram",
            UnitKind::Pcie => "pcie",
            UnitKind::Accelerator => "accelerator",
        }
    }

    fn pid(self) -> u32 {
        self as u32 + 1
    }
}

/// One span of simulated time on one unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unit class.
    pub kind: UnitKind,
    /// Unit index within its class (die index, channel index, ...).
    pub unit: u32,
    /// Span name (e.g. `"sense"`, `"xfer"`, `"compute"`).
    pub name: &'static str,
    /// Span start.
    pub start: SimTime,
    /// Span end (`== start` for instant events).
    pub end: SimTime,
    /// Free-form payload (hop number, byte count, batch index, ...).
    pub value: f64,
    /// Record-order sequence number — the determinism tiebreaker.
    pub seq: u64,
}

/// Bounded span collector; disabled unless built with a capacity.
///
/// Recording past the capacity drops the new span and counts it in
/// [`dropped`](SpanRecorder::dropped) — the retained prefix stays a
/// faithful, deterministic view of the start of the run.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl SpanRecorder {
    /// A disabled recorder: every `record` is a no-op after one branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder retaining up to `capacity` spans (0 disables). The
    /// capacity is clamped to `u32::MAX`, the most the trace exporter
    /// indexes.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder {
            // Lazy: large captures grow on demand, tiny ones stay tiny.
            spans: Vec::new(),
            capacity: capacity.min(u32::MAX as usize),
            seq: 0,
            dropped: 0,
        }
    }

    /// Whether spans are being collected. Call sites with non-trivial
    /// argument computation should branch on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one span.
    #[inline]
    pub fn record(
        &mut self,
        kind: UnitKind,
        unit: u32,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        value: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.spans.push(Span {
            kind,
            unit,
            name,
            start,
            end,
            value,
            seq,
        });
    }

    /// Records an instant (zero-length) event.
    #[inline]
    pub fn instant(
        &mut self,
        kind: UnitKind,
        unit: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        self.record(kind, unit, name, at, at, value);
    }

    /// Spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if no spans were retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retention capacity this recorder was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates retained spans in record order.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Absorbs spans a caller staged in exact record order (their `seq`
    /// fields are ignored and re-stamped), clearing `batch`.
    ///
    /// This is the batched counterpart of [`record`](Self::record) for
    /// hot loops: the caller pushes plain [`Span`] values into its own
    /// staging buffer with no capacity or sequence bookkeeping, then
    /// flushes once per phase. Because the staging buffer is a single
    /// FIFO, sequence numbers are assigned in the identical order a
    /// per-call `record` would have used, and the capacity/drop
    /// accounting is applied span-by-span exactly as `record` applies
    /// it — the resulting recorder is indistinguishable.
    pub fn record_batch(&mut self, batch: &mut Vec<Span>) {
        if !self.is_enabled() {
            batch.clear();
            return;
        }
        let room = self.capacity - self.spans.len().min(self.capacity);
        self.spans.reserve(batch.len().min(room));
        for s in batch.drain(..) {
            if self.spans.len() >= self.capacity {
                self.dropped += 1;
                continue;
            }
            let seq = self.seq;
            self.seq += 1;
            self.spans.push(Span { seq, ..s });
        }
    }

    /// Indices of the retained spans in the canonical export order,
    /// `(start, kind, unit, seq)`. Every retained span's `seq` is its
    /// index (both recording paths stamp `seq` as they push), so the
    /// index stands in for `seq` as the tiebreaker.
    fn export_order(&self) -> Vec<u32> {
        // `with_capacity` clamps retention to `u32::MAX` spans.
        let mut order: Vec<u32> = (0..self.spans.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let s = &self.spans[i as usize];
            (s.start, s.kind, s.unit, i)
        });
        order
    }
}

/// Exports a [`SpanRecorder`] as Chrome trace-event JSON.
///
/// Each span becomes a `ph:"X"` complete event (or `ph:"i"` for instant
/// events) with `pid` = unit kind and `tid` = unit index; metadata
/// events name the processes/threads so Perfetto shows "die 3" instead
/// of "pid 5 tid 3". Timestamps are microseconds with fixed
/// three-decimal nanosecond precision, formatted from integers — no
/// float round-trip, so output is byte-stable across hosts.
///
/// Events are formatted straight into a bounded byte buffer that is
/// handed to the sink in 64 KiB pieces, so exporting never holds a
/// second copy of the trace.
pub struct ChromeTraceWriter;

/// Flush threshold of [`ChromeTraceWriter`]'s staging buffer.
const TRACE_CHUNK: usize = 64 * 1024;

impl ChromeTraceWriter {
    /// Writes the full trace JSON document.
    pub fn write<W: Write>(spans: &SpanRecorder, w: W) -> io::Result<()> {
        let mut out = TraceOut {
            w,
            buf: Vec::with_capacity(TRACE_CHUNK + 1024),
            first: true,
        };
        out.put(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        // Name each unit kind present (plus sort order) exactly once,
        // then each unit within it, so Perfetto rows read "die 3"
        // rather than bare pid/tid numbers.
        let mut units: [Vec<u32>; UnitKind::ALL.len()] = Default::default();
        for s in &spans.spans {
            units[s.kind as usize].push(s.unit);
        }
        for (kind, units) in UnitKind::ALL.into_iter().zip(&mut units) {
            units.sort_unstable();
            units.dedup();
            if units.is_empty() {
                continue;
            }
            out.sep();
            write!(
                out.buf,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}},\n\
                 {{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{pid}}}}}",
                pid = kind.pid(),
                name = kind.as_str(),
            )?;
            for &unit in units.iter() {
                out.sep();
                write!(
                    out.buf,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name} {tid}\"}}}}",
                    pid = kind.pid(),
                    tid = unit,
                    name = kind.as_str(),
                )?;
                out.flush_if_full()?;
            }
        }
        // The fixed text between a span's name and its `tid`, per kind:
        // `[kind][0]` for complete events, `[kind][1]` for instants.
        let heads = UnitKind::ALL.map(|kind| {
            ["\"X\"", "\"i\",\"s\":\"t\""].map(|ph| {
                format!(
                    ",\"cat\":\"{cat}\",\"ph\":{ph},\"pid\":{pid},\"tid\":",
                    cat = kind.as_str(),
                    pid = kind.pid(),
                )
                .into_bytes()
            })
        });
        let mut names = NameCache::default();
        for i in spans.export_order() {
            let s = &spans.spans[i as usize];
            let instant = s.end == s.start;
            out.sep();
            out.put(b"{\"name\":");
            out.put(names.quoted(s.name));
            out.put(&heads[s.kind as usize][instant as usize]);
            out.uint(u64::from(s.unit));
            out.put(b",\"ts\":");
            out.micros(s.start.as_ns());
            if !instant {
                out.put(b",\"dur\":");
                out.micros((s.end - s.start).as_ns());
            }
            out.put(b",\"args\":{\"v\":");
            out.value(s.value);
            out.put(b",\"seq\":");
            out.uint(s.seq);
            out.put(b"}}");
            out.flush_if_full()?;
        }
        out.put(b"\n]}\n");
        out.w.write_all(&out.buf)
    }
}

/// [`ChromeTraceWriter`]'s output: a staging buffer in front of the
/// sink plus the integer and float formatters the events need.
struct TraceOut<W> {
    w: W,
    buf: Vec<u8>,
    /// No event written yet (the next one needs no separator).
    first: bool,
}

impl<W: Write> TraceOut<W> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Hands the buffer to the sink once it holds a chunk.
    fn flush_if_full(&mut self) -> io::Result<()> {
        if self.buf.len() >= TRACE_CHUNK {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// The `,\n` between events.
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.put(b",\n");
        }
    }

    /// `n` in decimal.
    fn uint(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.put(&digits[i..]);
    }

    /// Nanoseconds as a microsecond decimal with exactly three
    /// fractional digits (`1234` → `1.234`), entirely in integer math.
    fn micros(&mut self, ns: u64) {
        self.uint(ns / 1_000);
        let f = ns % 1_000;
        let digit = |d: u64| b'0' + d as u8;
        self.put(&[b'.', digit(f / 100), digit(f / 10 % 10), digit(f % 10)]);
    }

    /// A span value exactly as [`format_f64`] renders it. Non-negative
    /// integers below 1e15 — the hop numbers and byte counts the engine
    /// records — print as `N.0` without the float formatter; fractions,
    /// negatives (−0.0 included), non-finite and huge values take the
    /// general path.
    fn value(&mut self, v: f64) {
        let n = v as u64;
        if v.is_sign_positive() && v < 1e15 && n as f64 == v {
            self.uint(n);
            self.put(b".0");
        } else {
            self.put(format_f64(v).as_bytes());
        }
    }
}

/// Quoted, escaped span names, each escaped once per export. Names are
/// `&'static str` literals, so lookup compares address and length.
#[derive(Default)]
struct NameCache(Vec<(&'static str, Vec<u8>)>);

impl NameCache {
    fn quoted(&mut self, name: &'static str) -> &[u8] {
        let i = match self.0.iter().position(|(n, _)| std::ptr::eq(*n, name)) {
            Some(i) => i,
            None => {
                self.0.push((name, json_string(name).into_bytes()));
                self.0.len() - 1
            }
        };
        &self.0[i].1
    }
}

/// One metric value. Numbers render without quotes; strings are
/// escaped.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A boolean flag.
    Bool(bool),
    /// An unsigned counter / total.
    U64(u64),
    /// A float (rendered with shortest-round-trip formatting; non-finite
    /// values render as `null`).
    F64(f64),
    /// A string.
    Str(String),
}

impl MetricValue {
    fn render(&self) -> String {
        match self {
            MetricValue::Bool(b) => b.to_string(),
            MetricValue::U64(v) => v.to_string(),
            MetricValue::F64(v) => format_f64(*v),
            MetricValue::Str(s) => json_string(s),
        }
    }
}

/// An insertion-ordered set of named metric values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    entries: Vec<(String, MetricValue)>,
}

impl Section {
    /// Sets `key` (replacing in place if present, preserving its
    /// original position).
    pub fn set(&mut self, key: &str, value: MetricValue) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Sets an unsigned counter.
    pub fn set_u64(&mut self, key: &str, v: u64) {
        self.set(key, MetricValue::U64(v));
    }

    /// Sets a float.
    pub fn set_f64(&mut self, key: &str, v: f64) {
        self.set(key, MetricValue::F64(v));
    }

    /// Sets a boolean.
    pub fn set_bool(&mut self, key: &str, v: bool) {
        self.set(key, MetricValue::Bool(v));
    }

    /// Sets a string.
    pub fn set_str(&mut self, key: &str, v: &str) {
        self.set(key, MetricValue::Str(v.to_string()));
    }

    /// Sets a duration, in integer nanoseconds under `<key>_ns`.
    pub fn set_duration(&mut self, key: &str, d: Duration) {
        self.set_u64(&format!("{key}_ns"), d.as_ns());
    }

    /// Snapshots a [`Summary`] as `<prefix>_{count,mean,min,max}`.
    pub fn set_summary(&mut self, prefix: &str, s: &Summary) {
        self.set_u64(&format!("{prefix}_count"), s.count());
        self.set_f64(&format!("{prefix}_mean"), s.mean().unwrap_or(0.0));
        self.set_f64(&format!("{prefix}_min"), s.min().unwrap_or(0.0));
        self.set_f64(&format!("{prefix}_max"), s.max().unwrap_or(0.0));
    }

    /// Snapshots a [`Histogram`] as
    /// `<prefix>_{count,mean_ns,p50_ns,p99_ns,max_ns,overflow}`.
    pub fn set_histogram(&mut self, prefix: &str, h: &Histogram) {
        let ns = |d: Option<Duration>| d.map_or(0, |d| d.as_ns());
        self.set_u64(&format!("{prefix}_count"), h.count());
        self.set_u64(&format!("{prefix}_mean_ns"), ns(h.mean()));
        self.set_u64(&format!("{prefix}_p50_ns"), ns(h.percentile(0.50)));
        self.set_u64(&format!("{prefix}_p99_ns"), ns(h.percentile(0.99)));
        self.set_u64(&format!("{prefix}_max_ns"), ns(h.max()));
        self.set_u64(&format!("{prefix}_overflow"), h.overflow());
    }

    /// Looks a value up (mainly for tests).
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Entries in insertion order — lets exporters enumerate fields
    /// generically instead of hardcoding (and silently missing) names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the section has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An insertion-ordered collection of [`Section`]s serializing to JSON
/// with stable field ordering — the per-run metric report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    sections: Vec<(String, Section)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds or appends the named section.
    pub fn section(&mut self, name: &str) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|(n, _)| n == name) {
            return &mut self.sections[i].1;
        }
        self.sections.push((name.to_string(), Section::default()));
        &mut self.sections.last_mut().unwrap().1
    }

    /// Looks a section up without inserting.
    pub fn get(&self, name: &str) -> Option<&Section> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Section names in order (mainly for tests and schema checks).
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Sections in insertion order. Consumers that iterate here see
    /// every section the run produced — including ones added after
    /// they were written (e.g. `replay`) — rather than a fixed list.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Section)> {
        self.sections.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Renders the report as pretty JSON (2-space indent, stable
    /// ordering, trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\n");
        for (si, (name, section)) in self.sections.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&json_string(name));
            out.push_str(": {\n");
            for (ei, (key, value)) in section.entries.iter().enumerate() {
                out.push_str("    ");
                out.push_str(&json_string(key));
                out.push_str(": ");
                out.push_str(&value.render());
                if ei + 1 < section.entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("  }");
            if si + 1 < self.sections.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Writes the JSON report.
    pub fn write_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_json_string().as_bytes())
    }
}

/// Deterministic JSON float formatting: shortest round-trip for finite
/// values (`3.0`, `0.125`, `1e300`), `null` for NaN/infinities.
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes and quotes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = SpanRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(UnitKind::Die, 0, "sense", t(0), t(10), 1.0);
        r.instant(UnitKind::Engine, 0, "done", t(5), 0.0);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_retention_and_counts_drops() {
        let mut r = SpanRecorder::with_capacity(2);
        for i in 0..5 {
            r.record(UnitKind::Die, i, "sense", t(i as u64), t(i as u64 + 1), 0.0);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        // The retained prefix is the first-recorded spans.
        assert_eq!(r.iter().map(|s| s.unit).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn sorted_orders_by_time_then_unit_then_seq() {
        let mut r = SpanRecorder::with_capacity(16);
        r.record(UnitKind::Channel, 1, "xfer", t(20), t(30), 0.0);
        r.record(UnitKind::Die, 3, "sense", t(10), t(20), 0.0);
        r.record(UnitKind::Die, 1, "sense", t(10), t(15), 0.0);
        r.record(UnitKind::Die, 1, "sense", t(10), t(18), 0.0);
        let order: Vec<(u64, u32, u64)> = r
            .export_order()
            .into_iter()
            .map(|i| &r.spans[i as usize])
            .map(|s| (s.start.as_ns(), s.unit, s.seq))
            .collect();
        assert_eq!(order, vec![(10, 1, 2), (10, 1, 3), (10, 3, 1), (20, 1, 0)]);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_well_formed() {
        let mut r = SpanRecorder::with_capacity(16);
        r.record(UnitKind::Die, 2, "sense", t(1_500), t(4_500), 1.0);
        r.instant(UnitKind::Engine, 0, "cmd_done", t(4_500), 2.0);
        let mut a = Vec::new();
        ChromeTraceWriter::write(&r, &mut a).unwrap();
        let mut b = Vec::new();
        ChromeTraceWriter::write(&r, &mut b).unwrap();
        assert_eq!(a, b);
        let s = String::from_utf8(a).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ts\":1.500"));
        assert!(s.contains("\"dur\":3.000"));
        assert!(s.contains("\"name\":\"process_name\""));
        assert!(s.contains("{\"name\":\"die\"}"));
        assert!(s.contains("\"name\":\"thread_name\""));
        assert!(s.contains("{\"name\":\"die 2\"}"));
        assert!(s.contains("{\"name\":\"engine 0\"}"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn micros_is_fixed_point() {
        let micros = |ns| {
            let mut out = TraceOut {
                w: io::sink(),
                buf: Vec::new(),
                first: true,
            };
            out.micros(ns);
            String::from_utf8(out.buf).unwrap()
        };
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(u64::MAX), "18446744073709551.615");
    }

    /// The exporter as first written (whole-span clone sort, nine
    /// filter passes, `write!` per event) — the oracle the streaming
    /// writer must match byte for byte.
    fn reference_write(spans: &SpanRecorder) -> Vec<u8> {
        fn micros(ns: u64) -> String {
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }
        fn sep(w: &mut Vec<u8>, first: &mut bool) {
            if *first {
                *first = false;
            } else {
                w.extend_from_slice(b",\n");
            }
        }
        let mut w = Vec::new();
        w.extend_from_slice(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut sorted = spans.spans.clone();
        sorted.sort_by_key(|s| (s.start, s.kind, s.unit, s.seq));
        let mut first = true;
        for kind in UnitKind::ALL {
            let mut units: Vec<u32> = sorted
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.unit)
                .collect();
            units.sort_unstable();
            units.dedup();
            if units.is_empty() {
                continue;
            }
            sep(&mut w, &mut first);
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}},\n\
                 {{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{pid}}}}}",
                pid = kind.pid(),
                name = kind.as_str(),
            )
            .unwrap();
            for unit in units {
                sep(&mut w, &mut first);
                write!(
                    w,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name} {tid}\"}}}}",
                    pid = kind.pid(),
                    tid = unit,
                    name = kind.as_str(),
                )
                .unwrap();
            }
        }
        for s in &sorted {
            sep(&mut w, &mut first);
            let ts = micros(s.start.as_ns());
            if s.end == s.start {
                write!(
                    w,
                    "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{\"v\":{v},\"seq\":{seq}}}}}",
                    name = json_string(s.name),
                    cat = s.kind.as_str(),
                    pid = s.kind.pid(),
                    tid = s.unit,
                    ts = ts,
                    v = format_f64(s.value),
                    seq = s.seq,
                )
                .unwrap();
            } else {
                write!(
                    w,
                    "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"v\":{v},\"seq\":{seq}}}}}",
                    name = json_string(s.name),
                    cat = s.kind.as_str(),
                    pid = s.kind.pid(),
                    tid = s.unit,
                    ts = ts,
                    dur = micros((s.end - s.start).as_ns()),
                    v = format_f64(s.value),
                    seq = s.seq,
                )
                .unwrap();
            }
        }
        w.extend_from_slice(b"\n]}\n");
        w
    }

    fn assert_matches_reference(r: &SpanRecorder) {
        let mut got = Vec::new();
        ChromeTraceWriter::write(r, &mut got).unwrap();
        let want = reference_write(r);
        assert!(
            got == want,
            "streaming writer diverged from the reference:\n got: {}\nwant: {}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
        );
    }

    /// A sink that accepts at most a few bytes per call, so the writer's
    /// chunked hand-off goes through `write_all`'s retry loop.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_writer_matches_reference_byte_for_byte() {
        const VALUES: [f64; 22] = [
            0.0,
            -0.0,
            1.0,
            42.0,
            0.5,
            0.1,
            -3.0,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15 - 1.0,
            1e15,
            1e15 + 0.5,
            1e16,
            1e17,
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            123_456_789.0,
            4_503_599_627_370_496.5,
            u64::MAX as f64,
        ];
        const NAMES: [&str; 6] = [
            "sense",
            "xfer",
            "a\"quote",
            "back\\slash",
            "tab\there",
            "ctl\u{1}\n",
        ];
        const KINDS: [UnitKind; 4] = [
            UnitKind::Channel,
            UnitKind::Die,
            UnitKind::Engine,
            UnitKind::Accelerator,
        ];

        // Empty recorders, enabled and disabled.
        assert_matches_reference(&SpanRecorder::disabled());
        assert_matches_reference(&SpanRecorder::with_capacity(8));

        // Every value and name, with `start` ties across kinds and
        // units, instants mixed in, recorded out of time order.
        let mut direct = SpanRecorder::with_capacity(1 << 12);
        for (i, &v) in VALUES.iter().enumerate() {
            for (j, &name) in NAMES.iter().enumerate() {
                let kind = KINDS[(i + j) % KINDS.len()];
                let start = t(((i * 7 + j * 3) % 5) as u64 * 1_000 + 999);
                let end = if (i + j) % 3 == 0 {
                    start
                } else {
                    t(start.as_ns() + (i * j) as u64 + 1)
                };
                direct.record(kind, (j % 3) as u32, name, start, end, v);
            }
        }
        direct.record(
            UnitKind::Pcie,
            u32::MAX,
            "big",
            t(u64::MAX - 1),
            t(u64::MAX),
            1.0,
        );
        assert_matches_reference(&direct);

        // The same spans entered through `record_batch`, with capacity
        // drops.
        let mut staged: Vec<Span> = direct.spans.iter().rev().copied().collect();
        let mut batched = SpanRecorder::with_capacity(50);
        batched.record_batch(&mut staged);
        assert!(batched.dropped() > 0);
        assert_matches_reference(&batched);

        // A trace larger than one chunk, through a sink that takes a
        // few bytes per write.
        let mut big = SpanRecorder::with_capacity(1 << 14);
        for i in 0..5_000u64 {
            let kind = UnitKind::ALL[(i % 9) as usize];
            big.record(
                kind,
                (i % 13) as u32,
                NAMES[(i % 6) as usize],
                t(i / 3),
                t(i / 3 + i % 4),
                i as f64 / 8.0,
            );
        }
        let mut trickle = Trickle(Vec::new());
        ChromeTraceWriter::write(&big, &mut trickle).unwrap();
        assert!(trickle.0.len() > 2 * TRACE_CHUNK);
        assert!(trickle.0 == reference_write(&big));
    }

    #[test]
    fn registry_preserves_insertion_order_and_is_stable() {
        let mut m = MetricsRegistry::new();
        m.section("zeta").set_u64("b", 2);
        m.section("alpha").set_f64("x", 0.125);
        m.section("zeta").set_u64("a", 1);
        m.section("zeta").set_u64("b", 7); // replace in place
        assert_eq!(m.section_names(), vec!["zeta", "alpha"]);
        let json = m.to_json_string();
        assert_eq!(json, m.clone().to_json_string());
        let zb = json.find("\"b\": 7").unwrap();
        let za = json.find("\"a\": 1").unwrap();
        assert!(zb < za, "replaced key keeps its original position");
        assert!(json.find("\"zeta\"").unwrap() < json.find("\"alpha\"").unwrap());
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(format_f64(3.0), "3.0");
        assert_eq!(format_f64(0.1), "0.1");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn summary_and_histogram_snapshots() {
        let mut s = Summary::default();
        s.record(2.0);
        s.record(4.0);
        let mut h = Histogram::new(Duration::from_ns(10), 4);
        h.record(Duration::from_ns(5));
        h.record(Duration::from_ns(500));
        let mut sec = Section::default();
        sec.set_summary("lat", &s);
        sec.set_histogram("q", &h);
        assert_eq!(sec.get("lat_count"), Some(&MetricValue::U64(2)));
        assert_eq!(sec.get("lat_mean"), Some(&MetricValue::F64(3.0)));
        assert_eq!(sec.get("q_count"), Some(&MetricValue::U64(2)));
        assert_eq!(sec.get("q_overflow"), Some(&MetricValue::U64(1)));
        assert_eq!(sec.get("q_max_ns"), Some(&MetricValue::U64(500)));
    }
}
