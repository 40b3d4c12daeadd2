//! Conservative-lookahead synchronization for multi-lane event loops.
//!
//! A multi-lane simulation (the multi-SSD array's device lanes) splits
//! its units into *lanes* that each own
//! a private calendar and advance in bulk-synchronous *rounds*: every
//! round the coordinator picks a shared horizon, each lane drains its
//! calendar strictly below the horizon, and everything a lane wants to
//! tell another lane (or a shared resource) is buffered as a message
//! and delivered at the next round boundary.
//!
//! Determinism at any worker-thread count comes from two rules this
//! module enforces:
//!
//! 1. The horizon is a pure function of simulated state — the next
//!    epoch boundary at or above the earliest pending event across all
//!    lanes ([`EpochWindow::horizon_for`]) — never of thread timing.
//! 2. Cross-lane messages are merged into one globally sorted sequence
//!    by `(time, key)` ([`MessagePool::drain_sorted`]), where `key` is
//!    a deterministic per-message identity, before any of them is
//!    delivered. Which worker produced a message is invisible after the
//!    sort, so any grouping of lanes onto threads yields byte-identical
//!    delivery order.

use crate::time::{Duration, SimTime};

/// The conservative lookahead window: lanes may only interact at
/// multiples of `window`, so a round that drains `[.., horizon)` can
/// run its lanes independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWindow {
    window: Duration,
}

impl EpochWindow {
    /// Creates a window of `window` nanoseconds of lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero window would make every
    /// round a single event and the rounds would never terminate.
    pub fn new(window: Duration) -> Self {
        assert!(!window.is_zero(), "epoch window must be positive");
        EpochWindow { window }
    }

    /// The window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The first epoch boundary strictly after `t`: the earliest
    /// instant a message emitted at `t` may be delivered to another
    /// lane.
    pub fn next_boundary(&self, t: SimTime) -> SimTime {
        let w = self.window.as_ns();
        let n = t.as_ns() / w + 1;
        SimTime::from_ns(n.saturating_mul(w))
    }

    /// The round horizon for an earliest pending event at `min_next`:
    /// the first boundary strictly above it. Every lane drains events
    /// with `time < horizon` this round.
    pub fn horizon_for(&self, min_next: SimTime) -> SimTime {
        self.next_boundary(min_next)
    }

    /// Quantizes a cross-lane delivery: the later of the message's own
    /// arrival time and the first boundary after `sent` — a message
    /// never lands inside the epoch it was produced in.
    pub fn quantize(&self, sent: SimTime, arrival: SimTime) -> SimTime {
        arrival.max(self.next_boundary(sent))
    }
}

/// A deterministically ordered pool of cross-lane messages.
///
/// Workers append in whatever interleaving the host scheduler produces;
/// [`drain_sorted`](MessagePool::drain_sorted) then yields them in
/// `(time, key)` order. As long as every message carries a unique
/// deterministic `key`, the drained order is a pure function of the
/// simulation — worker count and scheduling are invisible.
#[derive(Debug)]
pub struct MessagePool<M> {
    items: Vec<(SimTime, u128, M)>,
}

impl<M> Default for MessagePool<M> {
    fn default() -> Self {
        MessagePool { items: Vec::new() }
    }
}

impl<M> MessagePool<M> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one message.
    pub fn push(&mut self, at: SimTime, key: u128, msg: M) {
        self.items.push((at, key, msg));
    }

    /// Moves another pool's messages into this one (used to fold
    /// per-worker outboxes into the round's global pool).
    pub fn absorb(&mut self, other: &mut MessagePool<M>) {
        self.items.append(&mut other.items);
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorts by `(time, key)` and drains, returning the canonical
    /// delivery sequence for this round.
    ///
    /// The sort is unstable on purpose: keys must be unique, so no two
    /// messages ever compare equal and instability can never show.
    pub fn drain_sorted(&mut self) -> std::vec::Drain<'_, (SimTime, u128, M)> {
        self.items.sort_unstable_by_key(|&(t, k, _)| (t, k));
        self.items.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn boundary_is_strictly_after() {
        let w = EpochWindow::new(Duration::from_ns(500));
        assert_eq!(w.next_boundary(t(0)), t(500));
        assert_eq!(w.next_boundary(t(499)), t(500));
        assert_eq!(w.next_boundary(t(500)), t(1000));
        assert_eq!(w.next_boundary(t(501)), t(1000));
        assert_eq!(w.window(), Duration::from_ns(500));
    }

    #[test]
    fn quantize_never_lands_in_source_epoch() {
        let w = EpochWindow::new(Duration::from_ns(500));
        // Arrival already past the boundary: untouched.
        assert_eq!(w.quantize(t(100), t(700)), t(700));
        // Arrival inside the source epoch: pushed to the boundary.
        assert_eq!(w.quantize(t(100), t(200)), t(500));
        // Sent exactly on a boundary: delivery waits for the next one.
        assert_eq!(w.quantize(t(500), t(500)), t(1000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        EpochWindow::new(Duration::ZERO);
    }

    #[test]
    fn pool_drains_in_time_key_order_regardless_of_push_order() {
        let mut a: MessagePool<&str> = MessagePool::new();
        let mut b: MessagePool<&str> = MessagePool::new();
        // Two "workers" push in different interleavings.
        a.push(t(20), 1, "a-late");
        a.push(t(10), 7, "a-early-hi");
        b.push(t(10), 3, "b-early-lo");
        b.push(t(30), 0, "b-last");
        let mut merged = MessagePool::new();
        merged.absorb(&mut a);
        merged.absorb(&mut b);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(merged.len(), 4);
        let order: Vec<&str> = merged.drain_sorted().map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["b-early-lo", "a-early-hi", "a-late", "b-last"]);
        assert!(merged.is_empty());

        // The reverse interleaving produces the identical sequence.
        let mut merged2 = MessagePool::new();
        merged2.push(t(30), 0, "b-last");
        merged2.push(t(10), 3, "b-early-lo");
        merged2.push(t(20), 1, "a-late");
        merged2.push(t(10), 7, "a-early-hi");
        let order2: Vec<&str> = merged2.drain_sorted().map(|(_, _, m)| m).collect();
        assert_eq!(order, order2);
    }
}
