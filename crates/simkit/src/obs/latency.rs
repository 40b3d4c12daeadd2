//! Per-query latency accounting: streaming histograms, tail
//! percentiles, and critical-path attribution.
//!
//! Three pieces, mirroring the span layer's determinism contract:
//!
//! - [`LatencyHistogram`] — a log-bucketed streaming histogram with
//!   *fixed* bucket boundaries (HDR-style: 32 sub-buckets per octave,
//!   ≤ ~3% relative error). Because the boundaries are data-independent,
//!   merging per-shard histograms is a bucket-wise count addition and
//!   every percentile query is byte-identical at any thread count.
//! - [`Stage`] / [`PathAttr`] — the critical-path stage vector of one
//!   command chain: nanoseconds of queueing, die sense, channel
//!   transfer, PCIe, accelerator, fabric hop, … summed along the chain.
//! - [`ChainTable`] / [`LatencyReport`] — per-query reduction (the
//!   *longest* dependency chain wins, ties broken by the stage vector's
//!   lexicographic order so lane-merge order can never matter) and the
//!   finished artifact: per-query rows, the overall histogram, windowed
//!   per-epoch histograms, and stage totals, rendered into the
//!   `latency` / `latency_breakdown` registry sections.
//!
//! Everything is driven by the engines; a disabled path costs one
//! predictable branch per site, like [`SpanRecorder`](super::SpanRecorder).

use std::collections::BTreeMap;
use std::io::{self, Write};

use super::Section;
use crate::time::{Duration, SimTime};

/// Sub-bucket resolution: 2^5 = 32 buckets per octave (~3% error).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count: values 1..64 ns are exact (linear region), then
/// 32 log sub-buckets per octave up to `u64::MAX`.
pub const NUM_BUCKETS: usize = (58 * SUB as usize) + (2 * SUB as usize);

/// The pipeline stages end-to-end query latency decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Waiting for any resource grant (die, channel, core, DRAM, PCIe,
    /// accelerator input, epoch-quantization slack, hop barriers).
    Queue = 0,
    /// Flash die cell-array sense time.
    DieSense = 1,
    /// Flash channel bus transfer time.
    Channel = 2,
    /// Embedded-core firmware execution.
    Firmware = 3,
    /// SSD-internal DRAM staging.
    Dram = 4,
    /// PCIe link transfer.
    Pcie = 5,
    /// Host CPU execution.
    Host = 6,
    /// GNN accelerator compute.
    Accel = 7,
    /// Inter-device fabric hop (link serialization + hop latency).
    Fabric = 8,
    /// Fixed protocol latencies (NVMe wire, router parse).
    Other = 9,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 10;

    /// Every stage, in discriminant order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Queue,
        Stage::DieSense,
        Stage::Channel,
        Stage::Firmware,
        Stage::Dram,
        Stage::Pcie,
        Stage::Host,
        Stage::Accel,
        Stage::Fabric,
        Stage::Other,
    ];

    /// Stable lower-case name (registry field prefix, CSV column).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::DieSense => "die_sense",
            Stage::Channel => "channel",
            Stage::Firmware => "firmware",
            Stage::Dram => "dram",
            Stage::Pcie => "pcie",
            Stage::Host => "host",
            Stage::Accel => "accel",
            Stage::Fabric => "fabric",
            Stage::Other => "other",
        }
    }
}

/// Per-stage nanosecond totals along one command chain.
///
/// The derived `Ord` is lexicographic over the stage array — the
/// deterministic tiebreak [`ChainTable::observe`] uses when two chains
/// end at the same instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathAttr {
    ns: [u64; Stage::COUNT],
}

impl PathAttr {
    /// Adds a duration to one stage.
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.ns[stage as usize] = self.ns[stage as usize].saturating_add(d.as_ns());
    }

    /// Adds raw nanoseconds to one stage.
    #[inline]
    pub fn add_ns(&mut self, stage: Stage, ns: u64) {
        self.ns[stage as usize] = self.ns[stage as usize].saturating_add(ns);
    }

    /// One stage's accumulated nanoseconds.
    #[inline]
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Sum over all stages.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Adds another attribution stage-wise (chain concatenation).
    pub fn merge(&mut self, other: &PathAttr) {
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            *a = a.saturating_add(*b);
        }
    }
}

/// A free-list arena of [`PathAttr`]s for engines whose in-flight
/// commands are identified by a small handle rather than a stable slot
/// (the array's device lanes).
///
/// Allocation order is driven entirely by the lane's deterministic
/// event stream, so handles are reproducible run-to-run.
#[derive(Debug, Clone, Default)]
pub struct PathArena {
    slots: Vec<PathAttr>,
    free: Vec<u32>,
}

/// The sentinel handle commands carry while latency tracking is off.
pub const NO_PATH: u32 = u32::MAX;

impl PathArena {
    /// Allocates a slot holding `p` and returns its handle.
    pub fn alloc(&mut self, p: PathAttr) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = p;
            i
        } else {
            self.slots.push(p);
            (self.slots.len() - 1) as u32
        }
    }

    /// Releases a handle for reuse.
    pub fn release(&mut self, i: u32) {
        self.free.push(i);
    }

    /// The attribution behind a handle.
    pub fn get(&self, i: u32) -> &PathAttr {
        &self.slots[i as usize]
    }

    /// Mutable access to the attribution behind a handle.
    pub fn get_mut(&mut self, i: u32) -> &mut PathAttr {
        &mut self.slots[i as usize]
    }

    /// Drops every slot (between runs).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Per-query best-chain reduction: for each query, the dependency chain
/// with the latest end time (ties broken by the lexicographically
/// largest stage vector — a commutative max, so absorbing per-lane
/// tables in any fixed order yields identical results).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainTable {
    best: Vec<Option<(SimTime, PathAttr)>>,
}

impl ChainTable {
    /// A table over `queries` query slots, all unobserved.
    pub fn new(queries: usize) -> Self {
        ChainTable {
            best: vec![None; queries],
        }
    }

    /// Resets to `queries` unobserved slots, reusing storage.
    pub fn reset(&mut self, queries: usize) {
        self.best.clear();
        self.best.resize(queries, None);
    }

    /// Number of query slots.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Returns `true` if the table has no query slots.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Offers one finished chain for query `qid`; the max survives.
    #[inline]
    pub fn observe(&mut self, qid: usize, end: SimTime, path: &PathAttr) {
        let slot = &mut self.best[qid];
        match slot {
            Some((e, p)) if (*e, *p) >= (end, *path) => {}
            _ => *slot = Some((end, *path)),
        }
    }

    /// Folds another table in (per-slot commutative max).
    pub fn absorb(&mut self, other: &ChainTable) {
        if self.best.len() < other.best.len() {
            self.best.resize(other.best.len(), None);
        }
        for (qid, o) in other.best.iter().enumerate() {
            if let Some((end, path)) = o {
                self.observe(qid, *end, path);
            }
        }
    }

    /// The winning chain for query `qid`, if any chain retired.
    pub fn get(&self, qid: usize) -> Option<&(SimTime, PathAttr)> {
        self.best.get(qid).and_then(|o| o.as_ref())
    }
}

/// A log-bucketed streaming latency histogram with fixed, data-
/// independent bucket boundaries.
///
/// Values 1–63 ns occupy exact singleton buckets; from 64 ns on, each
/// octave splits into 32 sub-buckets, so any reported percentile is
/// within one sub-bucket (≤ ~3.1%) of the true order statistic.
/// Merging is a bucket-wise saturating addition — commutative and
/// associative, the property the multi-lane engines rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket counts; empty until the first record (zero-alloc default).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The fixed bucket index of a nanosecond value (clamped to ≥ 1).
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    let v = ns.max(1);
    if v < 2 * SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let top = (v >> shift) as usize;
    (shift as usize) * SUB as usize + top
}

/// The inclusive `[low, high]` nanosecond range of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    debug_assert!(idx < NUM_BUCKETS);
    if idx < 2 * SUB as usize {
        return (idx as u64, idx as u64);
    }
    let shift = (idx as u64) / SUB - 1;
    let top = idx as u64 - shift * SUB;
    let low = top << shift;
    let high = low + ((1u64 << shift) - 1);
    (low, high)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation (in nanoseconds).
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
            self.min = u64::MAX;
        }
        let idx = bucket_index(ns);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Folds another histogram in (bucket-wise saturating addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
            self.min = u64::MAX;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations, in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Mean latency in nanoseconds, or `None` when empty.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Minimum observation, or `None` when empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The count in bucket `idx` (0 when never recorded).
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Non-empty `(bucket_index, count)` pairs, ascending.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The `num/den` quantile (e.g. `999/1000` for p99.9) as the upper
    /// bound of the containing bucket, clamped to the exact recorded
    /// extremes; `None` when empty. Integer rank math — no floats.
    pub fn percentile_ns(&self, num: u64, den: u64) -> Option<u64> {
        if self.count == 0 || den == 0 {
            return None;
        }
        let rank = (self.count as u128 * num as u128)
            .div_ceil(den as u128)
            .max(1) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let (_, high) = bucket_bounds(i);
                return Some(high.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }
}

/// One finished query: identity, endpoints, and its critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLat {
    /// Batch index within the run.
    pub batch: u32,
    /// Query slot within the batch.
    pub slot: u32,
    /// Submission time (root command entering the device).
    pub submit: SimTime,
    /// Retirement time (query result computed).
    pub end: SimTime,
    /// Critical-path stage attribution.
    pub path: PathAttr,
}

impl QueryLat {
    /// End-to-end latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.end.saturating_duration_since(self.submit).as_ns()
    }
}

/// The finished per-run latency artifact: per-query rows, the overall
/// histogram, per-epoch windowed histograms, and critical-path stage
/// totals. Built once at end of run; [`LatencyReport::default`] is the
/// disabled/empty report (what an untracked run carries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyReport {
    enabled: bool,
    epoch_ns: u64,
    queries: Vec<QueryLat>,
    hist: LatencyHistogram,
    windows: Vec<(u64, LatencyHistogram)>,
    totals: PathAttr,
}

impl LatencyReport {
    /// The report of a run that did not track latency.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Builds the report from finished queries. `epoch` is the windowed
    /// time-series bucket width (a query lands in the window containing
    /// its retirement time); zero disables windowing.
    pub fn build(epoch: Duration, queries: Vec<QueryLat>) -> Self {
        let epoch_ns = epoch.as_ns();
        let mut hist = LatencyHistogram::new();
        let mut totals = PathAttr::default();
        let mut windows: BTreeMap<u64, LatencyHistogram> = BTreeMap::new();
        for q in &queries {
            let ns = q.latency_ns();
            hist.record(ns);
            totals.merge(&q.path);
            if let Some(w) = q.end.as_ns().checked_div(epoch_ns) {
                windows.entry(w).or_default().record(ns);
            }
        }
        LatencyReport {
            enabled: true,
            epoch_ns,
            queries,
            hist,
            windows: windows.into_iter().collect(),
            totals,
        }
    }

    /// Whether this run tracked latency.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The windowing epoch, in nanoseconds (0 = no windows).
    pub fn epoch_ns(&self) -> u64 {
        self.epoch_ns
    }

    /// Finished queries in (batch, slot) order.
    pub fn queries(&self) -> &[QueryLat] {
        &self.queries
    }

    /// The overall latency histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Per-epoch windowed histograms, ascending by epoch index.
    pub fn windows(&self) -> &[(u64, LatencyHistogram)] {
        &self.windows
    }

    /// Total critical-path nanoseconds attributed to `stage` across all
    /// queries.
    pub fn stage_total_ns(&self, stage: Stage) -> u64 {
        self.totals.get(stage)
    }

    /// Renders the `latency` registry section (tail percentiles).
    pub fn render_latency(&self, s: &mut Section) {
        let q = |num, den| self.hist.percentile_ns(num, den).unwrap_or(0);
        s.set_bool("enabled", self.enabled);
        s.set_u64("queries", self.hist.count());
        s.set_u64("epoch_ns", self.epoch_ns);
        s.set_u64("min_ns", self.hist.min_ns().unwrap_or(0));
        s.set_f64("mean_ns", self.hist.mean_ns().unwrap_or(0.0));
        s.set_u64("p50_ns", q(50, 100));
        s.set_u64("p90_ns", q(90, 100));
        s.set_u64("p95_ns", q(95, 100));
        s.set_u64("p99_ns", q(99, 100));
        s.set_u64("p999_ns", q(999, 1000));
        s.set_u64("max_ns", self.hist.max_ns().unwrap_or(0));
        s.set_u64("windows", self.windows.len() as u64);
    }

    /// Renders the `latency_breakdown` registry section (critical-path
    /// stage totals over all queries).
    pub fn render_breakdown(&self, s: &mut Section) {
        for stage in Stage::ALL {
            s.set_u64(&format!("{}_ns", stage.as_str()), self.totals.get(stage));
        }
        s.set_u64("total_ns", self.totals.total_ns());
    }

    /// Writes the per-query CSV dump (`--latency-csv`): one row per
    /// query with its endpoints, latency, and stage attribution.
    pub fn write_query_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "batch,slot,submit_ns,end_ns,latency_ns")?;
        for stage in Stage::ALL {
            write!(w, ",{}_ns", stage.as_str())?;
        }
        writeln!(w)?;
        for q in &self.queries {
            write!(
                w,
                "{},{},{},{},{}",
                q.batch,
                q.slot,
                q.submit.as_ns(),
                q.end.as_ns(),
                q.latency_ns()
            )?;
            for stage in Stage::ALL {
                write!(w, ",{}", q.path.get(stage))?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Writes the windowed time-series CSV: one row per sim-time epoch
    /// with per-window percentiles — the saturation-knee view.
    pub fn write_window_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "epoch,epoch_start_ns,queries,p50_ns,p90_ns,p99_ns,p999_ns,max_ns"
        )?;
        for (idx, h) in &self.windows {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{}",
                idx,
                idx * self.epoch_ns,
                h.count(),
                h.percentile_ns(50, 100).unwrap_or(0),
                h.percentile_ns(90, 100).unwrap_or(0),
                h.percentile_ns(99, 100).unwrap_or(0),
                h.percentile_ns(999, 1000).unwrap_or(0),
                h.max_ns().unwrap_or(0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the linear/log boundary, spot checks beyond.
        let mut prev = 0;
        for v in 1..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo},{hi}]");
            prev = idx;
        }
        for v in [u64::MAX, u64::MAX / 2, 1 << 40, (1 << 40) + 12345] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn linear_region_is_exact() {
        for v in 1..64u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
        // First log bucket starts exactly where the linear region ends.
        assert_eq!(bucket_index(63) + 1, bucket_index(64));
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [100u64, 1_000, 65_537, 1 << 33, (1 << 50) + 7] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            // Width ≤ lo / 32: ≤ ~3.1% relative error.
            assert!(hi - lo <= lo / SUB, "bucket too wide at {v}");
        }
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_ns(50, 100), None);
        assert_eq!(h.mean_ns(), None);
        assert_eq!(h.min_ns(), None);
        assert_eq!(h.max_ns(), None);
    }

    #[test]
    fn single_sample_every_percentile_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        for (num, den) in [(1, 100), (50, 100), (99, 100), (999, 1000), (1, 1)] {
            assert_eq!(h.percentile_ns(num, den), Some(12_345));
        }
        assert_eq!(h.min_ns(), Some(12_345));
        assert_eq!(h.max_ns(), Some(12_345));
        assert_eq!(h.mean_ns(), Some(12_345.0));
    }

    #[test]
    fn zero_clamps_into_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_ns(), Some(0));
        // The percentile clamps the bucket bound to the recorded min.
        assert_eq!(h.percentile_ns(50, 100), Some(0));
    }

    #[test]
    fn boundary_values_land_deterministically() {
        // Powers of two sit on octave boundaries; each must land in a
        // bucket whose range contains exactly it as the lower bound.
        for shift in 6..63u32 {
            let v = 1u64 << shift;
            let (lo, _) = bucket_bounds(bucket_index(v));
            assert_eq!(lo, v, "2^{shift} not a bucket lower bound");
            let (_, hi) = bucket_bounds(bucket_index(v - 1));
            assert_eq!(hi, v - 1, "2^{shift}-1 not a bucket upper bound");
        }
    }

    #[test]
    fn saturating_counts_do_not_wrap() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        a.count = u64::MAX - 1;
        a.counts[bucket_index(100)] = u64::MAX - 1;
        a.sum = u64::MAX - 1;
        let mut b = LatencyHistogram::new();
        b.record(100);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.bucket_count(bucket_index(100)), u64::MAX);
        assert_eq!(a.sum_ns(), u64::MAX);
        a.record(100);
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    fn percentiles_walk_buckets_in_order() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        // Linear-region values (< 64 ns) are exact; 90 and 100 land in
        // 2-ns log buckets, so their upper bounds report.
        assert_eq!(h.percentile_ns(50, 100), Some(50));
        assert_eq!(h.percentile_ns(90, 100), Some(91));
        assert_eq!(h.percentile_ns(1, 1), Some(100));
        assert_eq!(h.percentile_ns(10, 100), Some(10));
    }

    #[test]
    fn merge_empty_identities() {
        let mut a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.merge(&b);
        assert_eq!(a, LatencyHistogram::new());
        a.record(42);
        let snapshot = a.clone();
        a.merge(&b);
        assert_eq!(a, snapshot);
        let mut c = LatencyHistogram::new();
        c.merge(&snapshot);
        assert_eq!(c, snapshot);
    }

    #[test]
    fn chain_table_max_is_commutative() {
        let mut p1 = PathAttr::default();
        p1.add_ns(Stage::Queue, 5);
        let mut p2 = PathAttr::default();
        p2.add_ns(Stage::DieSense, 5);
        let t = SimTime::from_ns(100);
        // Same end time: the lexicographically larger stage vector wins
        // regardless of observation order. Queue precedes DieSense in
        // the array, so p1 = [5,0,..] > p2 = [0,5,..].
        let mut a = ChainTable::new(1);
        a.observe(0, t, &p1);
        a.observe(0, t, &p2);
        let mut b = ChainTable::new(1);
        b.observe(0, t, &p2);
        b.observe(0, t, &p1);
        assert_eq!(a, b);
        assert_eq!(a.get(0), Some(&(t, p1)));
        // Later end always wins.
        a.observe(0, SimTime::from_ns(101), &p2);
        assert_eq!(a.get(0), Some(&(SimTime::from_ns(101), p2)));
    }

    #[test]
    fn chain_table_absorb_matches_single_table() {
        let ends = [7u64, 3, 9, 9, 2, 8];
        let mut single = ChainTable::new(3);
        let mut shard_a = ChainTable::new(3);
        let mut shard_b = ChainTable::new(3);
        for (i, &e) in ends.iter().enumerate() {
            let mut p = PathAttr::default();
            p.add_ns(Stage::Channel, e);
            single.observe(i % 3, SimTime::from_ns(e), &p);
            let shard = if i % 2 == 0 {
                &mut shard_a
            } else {
                &mut shard_b
            };
            shard.observe(i % 3, SimTime::from_ns(e), &p);
        }
        let mut merged = ChainTable::new(3);
        merged.absorb(&shard_a);
        merged.absorb(&shard_b);
        assert_eq!(merged, single);
        let mut reversed = ChainTable::new(3);
        reversed.absorb(&shard_b);
        reversed.absorb(&shard_a);
        assert_eq!(reversed, single);
    }

    #[test]
    fn report_build_populates_windows_and_totals() {
        let mut p = PathAttr::default();
        p.add_ns(Stage::Queue, 60);
        p.add_ns(Stage::Accel, 40);
        let queries = vec![
            QueryLat {
                batch: 0,
                slot: 0,
                submit: SimTime::from_ns(0),
                end: SimTime::from_ns(100),
                path: p,
            },
            QueryLat {
                batch: 1,
                slot: 0,
                submit: SimTime::from_ns(900),
                end: SimTime::from_ns(1_100),
                path: p,
            },
        ];
        let r = LatencyReport::build(Duration::from_ns(1_000), queries);
        assert!(r.is_enabled());
        assert_eq!(r.histogram().count(), 2);
        assert_eq!(r.windows().len(), 2);
        assert_eq!(r.windows()[0].0, 0);
        assert_eq!(r.windows()[1].0, 1);
        assert_eq!(r.stage_total_ns(Stage::Queue), 120);
        assert_eq!(r.stage_total_ns(Stage::Accel), 80);
        let mut s = Section::default();
        r.render_latency(&mut s);
        assert_eq!(s.get("queries"), Some(&crate::MetricValue::U64(2)));
        let mut b = Section::default();
        r.render_breakdown(&mut b);
        assert_eq!(b.get("queue_ns"), Some(&crate::MetricValue::U64(120)));
        assert_eq!(b.get("total_ns"), Some(&crate::MetricValue::U64(200)));
    }

    #[test]
    fn disabled_report_renders_zeroes() {
        let r = LatencyReport::disabled();
        assert!(!r.is_enabled());
        let mut s = Section::default();
        r.render_latency(&mut s);
        assert_eq!(s.get("enabled"), Some(&crate::MetricValue::Bool(false)));
        assert_eq!(s.get("p999_ns"), Some(&crate::MetricValue::U64(0)));
    }

    #[test]
    fn csv_dumps_are_deterministic() {
        let q = QueryLat {
            batch: 0,
            slot: 3,
            submit: SimTime::from_ns(10),
            end: SimTime::from_ns(250),
            path: PathAttr::default(),
        };
        let r = LatencyReport::build(Duration::from_ns(100), vec![q]);
        let mut a = Vec::new();
        r.write_query_csv(&mut a).unwrap();
        let mut b = Vec::new();
        r.write_query_csv(&mut b).unwrap();
        assert_eq!(a, b);
        let s = String::from_utf8(a).unwrap();
        assert!(s.starts_with("batch,slot,submit_ns,end_ns,latency_ns,queue_ns"));
        assert!(s.contains("0,3,10,250,240"));
        let mut wcsv = Vec::new();
        r.write_window_csv(&mut wcsv).unwrap();
        let s = String::from_utf8(wcsv).unwrap();
        assert!(s.contains("2,200,1,240,240,240,240,240"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sharded recording merges to the exact single-shard histogram,
        /// bucket for bucket, for any values and any shard assignment.
        #[test]
        fn merged_shards_equal_single_shard(
            values in pvec(0u64..u64::MAX, 1..200),
            shards in 1usize..8,
        ) {
            let mut single = LatencyHistogram::new();
            let mut parts = vec![LatencyHistogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                single.record(v);
                parts[i % shards].record(v);
            }
            let mut merged = LatencyHistogram::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(&merged, &single);
            // Merge order cannot matter.
            let mut rev = LatencyHistogram::new();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            prop_assert_eq!(&rev, &single);
            for i in 0..NUM_BUCKETS {
                prop_assert_eq!(merged.bucket_count(i), single.bucket_count(i));
            }
        }

        /// Percentiles are monotone in the quantile and bracketed by the
        /// recorded extremes.
        #[test]
        fn percentiles_are_monotone(
            values in pvec(0u64..10_000_000_000, 1..100),
        ) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let qs = [(1u64, 100u64), (50, 100), (90, 100), (95, 100),
                      (99, 100), (999, 1000), (1, 1)];
            let mut prev = 0u64;
            for (num, den) in qs {
                let p = h.percentile_ns(num, den).unwrap();
                prop_assert!(p >= prev);
                prop_assert!(p >= h.min_ns().unwrap());
                prop_assert!(p <= h.max_ns().unwrap());
                prev = p;
            }
        }
    }
}
