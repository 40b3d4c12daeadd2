//! The event calendar: a time-ordered priority queue of simulation events.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Allocation and occupancy behaviour of the calendar (see
/// [`Calendar::pool_stats`]).
///
/// The slot counters are cumulative across [`Calendar::reset`] (the
/// slab itself survives resets, so its growth history does too); the
/// high-water marks describe one run and rewind to zero on `reset`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slots created by growing the slab (each one is a real
    /// allocation-bearing event at some point in the run).
    pub slots_allocated: u64,
    /// Schedules served by recycling a previously freed slot — the
    /// allocations the pool avoided.
    pub slots_reused: u64,
    /// Peak number of events resident in the near-horizon wheel
    /// buckets at once, including events scheduled at the current
    /// instant (they queue in the current bucket). Resets to zero on
    /// [`Calendar::reset`].
    pub wheel_high_water: u64,
    /// Peak number of events parked in the far tier at once. Resets to
    /// zero on [`Calendar::reset`].
    pub far_high_water: u64,
    /// Peak number of live pending events at once (the `len()` high
    /// water, across both tiers). Resets to zero on [`Calendar::reset`].
    pub live_high_water: u64,
}

/// log2 of the wheel span: the near wheel covers one aligned window of
/// `WHEEL_SLOTS` nanoseconds with one bucket per nanosecond.
const WHEEL_BITS: u32 = 13;
/// Buckets in the near wheel (also the window span in ns).
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// u64 words in the occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// The null slab link.
const NIL: u32 = u32::MAX;

/// One slab node: an event, its timestamp, and the link to the next
/// node of whichever list holds it — a wheel bucket, a far window, or
/// the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    at: SimTime,
    next: u32,
    event: Option<E>,
}

/// A singly linked FIFO of slab nodes. Empty when `head` is [`NIL`];
/// `tail` is only meaningful while the list is non-empty.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// Appends node `n` (whose `next` is already [`NIL`]) to `list`.
#[inline]
fn append<E>(nodes: &mut [Node<E>], list: &mut List, n: u32) {
    if list.head == NIL {
        list.head = n;
    } else {
        nodes[list.tail as usize].next = n;
    }
    list.tail = n;
}

/// One far-tier window: its events in schedule order, plus the
/// earliest timestamp among them so `peek_time` stays O(1) while the
/// wheel is empty.
#[derive(Debug, Clone, Copy)]
struct FarWindow {
    list: List,
    min_at: SimTime,
}

/// A time-ordered event calendar.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO tie-breaking), which keeps simulations
/// deterministic regardless of queue internals.
///
/// # Timing wheel
///
/// Every pending event is one node in a slab; the queue structure is
/// nothing but `u32` links between nodes, in two tiers:
///
/// 1. a **near wheel** of [`WHEEL_SLOTS`] one-nanosecond buckets
///    covering the aligned window that contains the watermark. Each
///    bucket is a `(head, tail)` pair of links (64 KiB for the whole
///    wheel) and a bitmap marks the occupied ones, so the next bucket
///    is found with a word scan;
/// 2. a **far tier** (`BTreeMap` keyed by window index) holding one
///    linked list per later window. When the wheel drains, the
///    earliest far window moves into it by relinking its nodes into
///    their buckets — nothing is copied.
///
/// Schedule and pop are O(1) amortized: each event is linked once on
/// insert, at most once more when its window moves in, and unlinked
/// once on pop. Freed nodes go on an intrusive free list, so a
/// pipeline scheduling about as many events as it pops stops growing
/// the slab and performs no allocator traffic ([`pool_stats`]
/// quantifies this).
///
/// [`pool_stats`]: Calendar::pool_stats
///
/// ## Why delivery order is exactly `(time, FIFO)`
///
/// Buckets are 1 ns wide, so every node in a bucket has the same
/// timestamp and a bucket is a FIFO over one instant: the bitmap scan
/// visits instants in ascending order, and within a bucket append
/// order is schedule order. That holds for an event scheduled at the
/// current instant too — it appends behind the same-instant events
/// already queued. A far window moves into the wheel inside `pop`,
/// before the watermark (and therefore any later `schedule`) can enter
/// it, and its list is in schedule order, so its nodes land in each
/// bucket ahead of every later direct insert.
///
/// # Examples
///
/// ```
/// use simkit::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_ns(10), 'b');
/// cal.schedule(SimTime::from_ns(10), 'c');
/// cal.schedule(SimTime::from_ns(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    /// Near wheel: `WHEEL_SLOTS` one-ns buckets for the current window.
    buckets: Box<[List]>,
    /// Bit i set ⇔ bucket i holds at least one node.
    occupied: [u64; WHEEL_WORDS],
    /// First ns of the window the wheel covers. Invariant: the window
    /// of the watermark (it moves only when `pop` advances to a far
    /// window and then pops from it).
    wheel_base: u64,
    /// Nodes resident in wheel buckets.
    wheel_len: usize,
    /// Far tier: window index → that window's nodes.
    far: BTreeMap<u64, FarWindow>,
    /// Nodes resident in the far tier.
    far_len: usize,
    nodes: Vec<Node<E>>,
    /// Head of the intrusive free list.
    free: u32,
    /// Latest time popped so far; used to detect causality violations.
    watermark: SimTime,
    stats: PoolStats,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Calendar {
            buckets: vec![EMPTY; WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; WHEEL_WORDS],
            wheel_base: 0,
            wheel_len: 0,
            far: BTreeMap::new(),
            far_len: 0,
            nodes: Vec::new(),
            free: NIL,
            watermark: SimTime::ZERO,
            stats: PoolStats::default(),
        }
    }

    /// Reserves capacity for at least `additional` more events, so a
    /// burst of scheduling (e.g. a mini-batch fan-out) does not pay
    /// repeated reallocation.
    pub fn reserve(&mut self, additional: usize) {
        let free = self.nodes.len() - self.len();
        self.nodes.reserve(additional.saturating_sub(free));
    }

    /// Empties the calendar and rewinds the causality watermark to
    /// zero, **keeping** the slab and its capacity. A reset calendar
    /// behaves exactly like a fresh one (identical pop order for
    /// identical schedules), which is what lets one calendar be reused
    /// across independent simulation runs without re-growing its pool
    /// each time. Slot counters in [`pool_stats`](Calendar::pool_stats)
    /// persist across resets; the high-water marks rewind to zero.
    pub fn reset(&mut self) {
        if self.wheel_len > 0 {
            self.buckets.fill(EMPTY);
            self.occupied = [0; WHEEL_WORDS];
            self.wheel_len = 0;
        }
        self.wheel_base = 0;
        self.far.clear();
        self.far_len = 0;
        self.free = NIL;
        for (i, node) in self.nodes.iter_mut().enumerate().rev() {
            node.event = None;
            node.next = self.free;
            self.free = i as u32;
        }
        self.watermark = SimTime::ZERO;
        self.stats.wheel_high_water = 0;
        self.stats.far_high_water = 0;
        self.stats.live_high_water = 0;
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped time: scheduling into
    /// the past is a causality bug in the model.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.watermark,
            "event scheduled in the past: at={at}, watermark={}",
            self.watermark
        );
        let n = self.alloc(at, event);
        let ns = at.as_ns();
        if ns >> WHEEL_BITS == self.wheel_base >> WHEEL_BITS {
            // Current window: straight onto its 1 ns bucket's tail.
            let idx = (ns - self.wheel_base) as usize;
            append(&mut self.nodes, &mut self.buckets[idx], n);
            self.occupied[idx >> 6] |= 1u64 << (idx & 63);
            self.wheel_len += 1;
            self.stats.wheel_high_water = self.stats.wheel_high_water.max(self.wheel_len as u64);
        } else {
            // Beyond the window (never before it: `at` is at or after
            // the watermark, whose window the wheel covers).
            let win = self.far.entry(ns >> WHEEL_BITS).or_insert(FarWindow {
                list: EMPTY,
                min_at: at,
            });
            win.min_at = win.min_at.min(at);
            append(&mut self.nodes, &mut win.list, n);
            self.far_len += 1;
            self.stats.far_high_water = self.stats.far_high_water.max(self.far_len as u64);
        }
        self.stats.live_high_water = self.stats.live_high_water.max(self.len() as u64);
    }

    /// Takes a node off the free list (or grows the slab) and fills it.
    #[inline]
    fn alloc(&mut self, at: SimTime, event: E) -> u32 {
        let node = Node {
            at,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "calendar slab overflow");
            self.nodes.push(node);
            self.stats.slots_allocated += 1;
            return (self.nodes.len() - 1) as u32;
        }
        let n = self.free;
        self.free = self.nodes[n as usize].next;
        self.nodes[n as usize] = node;
        self.stats.slots_reused += 1;
        n
    }

    /// Index of the first occupied bucket at or after bucket `from`.
    /// Caller guarantees one exists (every wheel node is at or after
    /// the watermark).
    #[inline]
    fn scan_occupied(&self, from: usize) -> usize {
        let mut word = from >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return (word << 6) + bits.trailing_zeros() as usize;
            }
            word += 1;
            bits = self.occupied[word];
        }
    }

    /// Moves the earliest far window into the (empty) wheel by
    /// relinking its nodes into their buckets, in schedule order.
    /// Returns `false` if the far tier is exhausted.
    fn advance_to_far(&mut self) -> bool {
        let Some((w, win)) = self.far.pop_first() else {
            return false;
        };
        self.wheel_base = w << WHEEL_BITS;
        let mut n = win.list.head;
        while n != NIL {
            let node = &mut self.nodes[n as usize];
            let next = std::mem::replace(&mut node.next, NIL);
            let idx = (node.at.as_ns() - self.wheel_base) as usize;
            append(&mut self.nodes, &mut self.buckets[idx], n);
            self.occupied[idx >> 6] |= 1u64 << (idx & 63);
            self.wheel_len += 1;
            n = next;
        }
        self.far_len -= self.wheel_len;
        self.stats.wheel_high_water = self.stats.wheel_high_water.max(self.wheel_len as u64);
        true
    }

    /// Removes and returns the earliest event, advancing the causality
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from = if self.wheel_len > 0 {
            (self.watermark.as_ns() - self.wheel_base) as usize
        } else if self.advance_to_far() {
            0
        } else {
            return None;
        };
        let idx = self.scan_occupied(from);
        let bucket = &mut self.buckets[idx];
        let n = bucket.head;
        let node = &mut self.nodes[n as usize];
        bucket.head = node.next;
        if bucket.head == NIL {
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        }
        let event = node.event.take().expect("queued node holds an event");
        let at = node.at;
        node.next = self.free;
        self.free = n;
        self.wheel_len -= 1;
        self.watermark = at;
        Some((at, event))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.wheel_len > 0 {
            let idx = self.scan_occupied((self.watermark.as_ns() - self.wheel_base) as usize);
            Some(SimTime::from_ns(self.wheel_base + idx as u64))
        } else {
            // Far windows lie strictly beyond the wheel's, so the first
            // one holds the minimum.
            self.far.first_key_value().map(|(_, w)| w.min_at)
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far_len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest time returned by [`Calendar::pop`] so far.
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Cumulative event-pool behaviour plus per-run occupancy marks: how
    /// many slab slots were ever allocated versus how many schedules
    /// were served by recycling, and the high-water occupancy of each
    /// tier. A steady-state pipeline should show `slots_allocated`
    /// plateau at its peak concurrency while `slots_reused` keeps
    /// growing.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(30), 3);
        cal.schedule(SimTime::from_ns(10), 1);
        cal.schedule(SimTime::from_ns(20), 2);
        assert_eq!(cal.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(SimTime::from_ns(7), i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop().unwrap().1, i);
        }
    }

    #[test]
    fn immediate_fast_path_preserves_fifo_with_wheel_ties() {
        let mut cal = Calendar::new();
        // Two wheel events at t=10, scheduled before the watermark gets
        // there.
        cal.schedule(SimTime::from_ns(10), "wheel-a");
        cal.schedule(SimTime::from_ns(10), "wheel-b");
        assert_eq!(cal.pop().unwrap().1, "wheel-a"); // watermark now 10
                                                     // An event at the watermark must NOT overtake the equal-time
                                                     // event scheduled before it.
        cal.schedule(SimTime::from_ns(10), "imm-c");
        cal.schedule(SimTime::from_ns(11), "late");
        cal.schedule(SimTime::from_ns(10), "imm-d");
        assert_eq!(cal.pop().unwrap().1, "wheel-b");
        assert_eq!(cal.pop().unwrap().1, "imm-c");
        assert_eq!(cal.pop().unwrap().1, "imm-d");
        assert_eq!(cal.pop().unwrap().1, "late");
        assert!(cal.is_empty());
    }

    #[test]
    fn same_instant_schedule_queues_behind_pending_ties() {
        // Inside the first window.
        let mut cal = Calendar::new();
        for e in ["a", "b", "c"] {
            cal.schedule(SimTime::from_ns(40), e);
        }
        assert_eq!(cal.pop(), Some((SimTime::from_ns(40), "a")));
        cal.schedule(SimTime::from_ns(40), "d");
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["b", "c", "d"]);

        // Right after a far window moved into the wheel: its ties were
        // relinked into the bucket, and the new event queues behind them.
        let t = SimTime::from_ns(3 * WHEEL_SLOTS as u64 + 11);
        for e in ["far-a", "far-b", "far-c"] {
            cal.schedule(t, e);
        }
        assert_eq!(cal.pop(), Some((t, "far-a")));
        cal.schedule(t, "now-d");
        cal.schedule(t + Duration::from_ns(1), "next");
        cal.schedule(t, "now-e");
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["far-b", "far-c", "now-d", "now-e", "next"]);
    }

    #[test]
    fn immediate_events_at_time_zero() {
        // Before any pop the watermark is zero, so t=0 events queue at
        // the current instant straight away — and still interleave FIFO.
        let mut cal = Calendar::new();
        cal.schedule(SimTime::ZERO, 0);
        cal.schedule(SimTime::from_ns(5), 2);
        cal.schedule(SimTime::ZERO, 1);
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.peek_time(), Some(SimTime::ZERO));
        assert_eq!(cal.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(cal.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(5), 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(10), ());
        cal.pop();
        cal.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn watermark_tracks_now() {
        let mut cal = Calendar::new();
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.schedule(SimTime::from_ns(42), ());
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_ns(42));
        // Scheduling at the current time is allowed.
        cal.schedule(cal.now() + Duration::ZERO, ());
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(42)));
    }

    #[test]
    fn pop_advances_watermark_monotonically() {
        let mut cal = Calendar::new();
        for t in [5u64, 1, 9, 1, 5] {
            cal.schedule(SimTime::from_ns(t), t);
        }
        let mut times = Vec::new();
        while cal.peek_time().is_some_and(|t| t <= SimTime::from_ns(5)) {
            times.push(cal.pop().unwrap().0.as_ns());
        }
        assert_eq!(times, vec![1, 1, 5, 5]);
        assert_eq!(cal.now(), SimTime::from_ns(5));
        assert_eq!(cal.len(), 1);
        // Causality: the watermark now rejects anything before 5 ns.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cal.schedule(SimTime::from_ns(3), 3);
        }));
        assert!(r.is_err(), "pre-watermark schedule must panic after pops");
    }

    #[test]
    fn pop_on_empty_is_noop() {
        let mut cal: Calendar<()> = Calendar::new();
        cal.reserve(32);
        assert_eq!(cal.peek_time(), None);
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.now(), SimTime::ZERO);
        assert!(cal.is_empty());
        assert_eq!(cal.pool_stats(), PoolStats::default());
    }

    #[test]
    fn far_windows_deliver_in_time_seq_order() {
        // Spread events across several wheel windows, with ties inside
        // a distant window, and interleave a post-relink insert.
        let span = WHEEL_SLOTS as u64;
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(2 * span + 5), "far-a");
        cal.schedule(SimTime::from_ns(5), "near");
        cal.schedule(SimTime::from_ns(2 * span + 5), "far-b");
        cal.schedule(SimTime::from_ns(7 * span + 1), "farther");
        assert_eq!(cal.pop().unwrap().1, "near");
        assert_eq!(cal.pop().unwrap().1, "far-a");
        // The wheel now covers window 2: same-bucket inserts append
        // after the relinked far nodes.
        cal.schedule(SimTime::from_ns(2 * span + 5), "late-tie");
        assert_eq!(cal.pop().unwrap().1, "far-b");
        assert_eq!(cal.pop().unwrap().1, "late-tie");
        assert_eq!(cal.pop().unwrap().1, "farther");
        assert!(cal.is_empty());
    }

    #[test]
    fn empty_pop_after_far_windows_keeps_wheel_anchored() {
        // Draining every far window and popping past the end must leave
        // the wheel on the watermark's window, so later schedules into
        // that window and into a later one still deliver by time.
        let span = WHEEL_SLOTS as u64;
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(5 * span + 7), 1u32);
        cal.schedule(SimTime::from_ns(9 * span + 3), 2);
        assert_eq!(cal.pop(), Some((SimTime::from_ns(5 * span + 7), 1)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(9 * span + 3), 2)));
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.peek_time(), None);
        cal.schedule(SimTime::from_ns(11 * span + 1), 4);
        cal.schedule(SimTime::from_ns(9 * span + 8), 3);
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(9 * span + 8)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(9 * span + 8), 3)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(11 * span + 1), 4)));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn pool_reuses_slots_in_steady_state() {
        let mut cal = Calendar::new();
        // A pipeline with bounded concurrency: at most 4 outstanding.
        for i in 0..4u64 {
            cal.schedule(SimTime::from_ns(i), i);
        }
        for i in 4..1000u64 {
            let (_, _) = cal.pop().unwrap();
            cal.schedule(SimTime::from_ns(i), i);
        }
        while cal.pop().is_some() {}
        let stats = cal.pool_stats();
        assert_eq!(
            stats.slots_allocated, 4,
            "slab must plateau at peak concurrency"
        );
        assert_eq!(stats.slots_reused, 996, "steady state must recycle");
        assert_eq!(stats.live_high_water, 4, "peak concurrency is 4");
    }

    #[test]
    fn high_water_marks_track_tier_occupancy() {
        let span = WHEEL_SLOTS as u64;
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(1), 'a');
        cal.schedule(SimTime::from_ns(2), 'b');
        cal.schedule(SimTime::from_ns(span + 1), 'c'); // far tier
        let s = cal.pool_stats();
        assert_eq!(s.wheel_high_water, 2);
        assert_eq!(s.far_high_water, 1);
        assert_eq!(s.live_high_water, 3);
        // Same-instant events queue in the wheel and count there.
        assert_eq!(cal.pop(), Some((SimTime::from_ns(1), 'a')));
        cal.schedule(SimTime::from_ns(1), 'd');
        cal.schedule(SimTime::from_ns(1), 'e');
        assert_eq!(cal.pool_stats().wheel_high_water, 3);
        while cal.pop().is_some() {}
        // Marks are per-run: reset rewinds them but not the slot totals.
        cal.reset();
        let s = cal.pool_stats();
        assert_eq!(s.wheel_high_water, 0);
        assert_eq!(s.far_high_water, 0);
        assert_eq!(s.live_high_water, 0);
        assert_eq!(s.slots_allocated, 4);
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let run = |cal: &mut Calendar<u64>| -> Vec<(u64, u64)> {
            for t in [7u64, 3, 7, 1] {
                cal.schedule(SimTime::from_ns(t), t * 10);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = cal.pop() {
                out.push((t.as_ns(), e));
            }
            out
        };
        let mut fresh = Calendar::new();
        let expect = run(&mut fresh);
        let mut reused = Calendar::new();
        let _ = run(&mut reused);
        reused.reset();
        assert_eq!(reused.now(), SimTime::ZERO);
        assert!(reused.is_empty());
        assert_eq!(run(&mut reused), expect);
        // The second pass allocated nothing new.
        assert_eq!(reused.pool_stats().slots_allocated, 4);
        assert!(reused.pool_stats().slots_reused >= 4);
    }

    #[test]
    fn reset_clears_far_tier() {
        let span = WHEEL_SLOTS as u64;
        let run = |cal: &mut Calendar<u32>| -> Vec<u64> {
            cal.schedule(SimTime::from_ns(4 * span + 2), 1);
            cal.schedule(SimTime::from_ns(9), 2);
            cal.schedule(SimTime::from_ns(span - 1), 3);
            let mut out = Vec::new();
            while let Some((t, _)) = cal.pop() {
                out.push(t.as_ns());
            }
            out
        };
        let mut cal = Calendar::new();
        let expect = run(&mut cal);
        cal.reset();
        assert_eq!(run(&mut cal), expect);
        assert_eq!(cal.pool_stats().slots_allocated, 3);
    }
}
