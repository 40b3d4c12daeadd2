//! Bounded event tracing with CSV export.
//!
//! Simulations emit [`TraceEvent`]s into a [`Trace`] ring; the trace
//! can then be exported as CSV for external plotting (the raw material
//! behind timeline figures like the paper's Fig 15/16). The ring is
//! bounded so tracing a long run cannot exhaust memory — the newest
//! events win.

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::time::SimTime;

/// One traced event: a timestamped, labeled record with an optional
/// numeric payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Event category (e.g. "die_start", "xfer_done").
    pub kind: &'static str,
    /// Which unit it concerns (die id, channel id, command id...).
    pub unit: u64,
    /// Free payload (bytes moved, hop number, ...).
    pub value: f64,
}

/// A bounded in-memory event trace.
///
/// # Examples
///
/// ```
/// use simkit::trace::Trace;
/// use simkit::SimTime;
///
/// let mut trace = Trace::with_capacity(2);
/// trace.record(SimTime::from_ns(1), "a", 0, 0.0);
/// trace.record(SimTime::from_ns(2), "b", 0, 0.0);
/// trace.record(SimTime::from_ns(3), "c", 0, 0.0); // evicts "a"
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.iter().next().unwrap().kind, "b");
/// assert_eq!(trace.dropped(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace bounded to `capacity` events (0 disables
    /// recording entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event (dropping the oldest when full).
    pub fn record(&mut self, at: SimTime, kind: &'static str, unit: u64, value: f64) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent {
            at,
            kind,
            unit,
            value,
        });
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted or suppressed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Writes the trace as CSV (`time_ns,kind,unit,value`) to `writer`.
    /// A `&mut` reference can be passed as the writer.
    ///
    /// `kind` labels containing CSV metacharacters (comma, quote,
    /// newline) are quoted with doubled inner quotes per RFC 4180, so a
    /// hostile or careless label can never corrupt the row structure.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn to_csv<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "time_ns,kind,unit,value")?;
        for e in &self.ring {
            writeln!(
                writer,
                "{},{},{},{}",
                e.at.as_ns(),
                csv_field(e.kind),
                e.unit,
                e.value
            )?;
        }
        Ok(())
    }
}

/// Quotes a CSV field when it contains a metacharacter; passes plain
/// fields through untouched (borrowed, no allocation on the fast path).
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains(['"', ',', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::with_capacity(10);
        t.record(SimTime::from_ns(5), "x", 1, 2.0);
        t.record(SimTime::from_ns(9), "y", 2, 3.0);
        let kinds: Vec<&str> = t.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["x", "y"]);
        assert!(!t.is_empty());
        assert!(t.is_enabled());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::with_capacity(3);
        for i in 0..10u64 {
            t.record(SimTime::from_ns(i), "e", i, 0.0);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.iter().next().unwrap().unit, 7);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut t = Trace::with_capacity(0);
        t.record(SimTime::ZERO, "e", 0, 0.0);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn csv_escapes_hostile_kind_labels() {
        let mut t = Trace::with_capacity(4);
        t.record(SimTime::from_ns(1), "a,b", 0, 1.0);
        t.record(SimTime::from_ns(2), "say \"hi\"", 0, 2.0);
        t.record(SimTime::from_ns(3), "line\nbreak", 0, 3.0);
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("1,\"a,b\",0,1"));
        assert!(s.contains("2,\"say \"\"hi\"\"\",0,2"));
        assert!(s.contains("3,\"line\nbreak\",0,3"));
        // Unquoted commas appear only as the three real separators per
        // row: every data row still splits into exactly four fields
        // under an RFC 4180 reader (quoted regions keep theirs).
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn csv_export_of_short_ring_reflects_evictions() {
        // A ring shorter than the event stream exports only the
        // retained tail — header plus `capacity` rows, newest last.
        let mut t = Trace::with_capacity(2);
        for i in 0..5u64 {
            t.record(SimTime::from_ns(i), "e", i, 0.0);
        }
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "3,e,3,0");
        assert_eq!(lines[2], "4,e,4,0");
        assert_eq!(t.dropped(), 3);
    }

    /// A writer that fails after `ok_writes` successful writes.
    struct FailingWriter {
        ok_writes: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn csv_export_propagates_io_errors() {
        let mut t = Trace::with_capacity(4);
        t.record(SimTime::from_ns(1), "e", 0, 0.0);
        // Failure on the very first write (the header)...
        let err = t.to_csv(FailingWriter { ok_writes: 0 }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // ...and mid-body, after the header went through.
        assert!(t.to_csv(FailingWriter { ok_writes: 1 }).is_err());
        // A healthy writer still succeeds afterwards (export does not
        // consume or corrupt the trace).
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_export() {
        let mut t = Trace::with_capacity(4);
        t.record(SimTime::from_ns(1), "die_start", 3, 4096.0);
        t.record(SimTime::from_ns(2), "xfer_done", 3, 456.0);
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "time_ns,kind,unit,value");
        assert_eq!(lines[1], "1,die_start,3,4096");
        assert_eq!(lines[2], "2,xfer_done,3,456");
    }
}
