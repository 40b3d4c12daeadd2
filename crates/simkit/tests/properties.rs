//! Property tests for the simulation kernel's ordering guarantees.

use proptest::prelude::*;
use simkit::{Calendar, Duration, SerialResource, SimTime};

proptest! {
    /// The calendar delivers events in nondecreasing time order, with
    /// FIFO tie-breaking among equal timestamps.
    #[test]
    fn calendar_orders_any_schedule(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, id)) = cal.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(at >= lt, "time went backwards");
                if at == lt {
                    // FIFO among ties: schedule order == insertion index.
                    prop_assert!(
                        times[lid] != times[id] || lid < id,
                        "tie broken out of order"
                    );
                }
            }
            last = Some((at, id));
        }
    }

    /// Serial-resource grants never overlap and respect arrival order:
    /// for arrivals issued in nondecreasing time order, each grant
    /// starts no earlier than the previous grant's end or its own
    /// arrival.
    #[test]
    fn serial_resource_grants_are_disjoint(
        jobs in proptest::collection::vec((0u64..500, 1u64..50), 1..100),
    ) {
        let mut r = SerialResource::new();
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_by_key(|&(a, _)| a);
        let mut prev_end = SimTime::ZERO;
        let mut busy_total = Duration::ZERO;
        for (arrive, dur) in arrivals {
            let g = r.acquire(SimTime::from_ns(arrive), Duration::from_ns(dur));
            prop_assert!(g.start >= prev_end, "grants overlap");
            prop_assert!(g.start >= SimTime::from_ns(arrive), "service before arrival");
            prop_assert_eq!(g.end, g.start + Duration::from_ns(dur));
            prev_end = g.end;
            busy_total += Duration::from_ns(dur);
        }
        prop_assert_eq!(r.busy_total(), busy_total);
    }

    /// Busy-timeline accounting integrates exactly: total busy
    /// unit-time equals the sum over slices of (active × slice width).
    #[test]
    fn busy_timeline_integral_matches(
        intervals in proptest::collection::vec((0u64..200, 1u64..100), 1..50),
    ) {
        use simkit::stats::BusyTimeline;
        // Convert to nested, chronologically ordered up/down events.
        let mut events: Vec<(u64, bool)> = Vec::new();
        let mut expected: u64 = 0;
        for &(start, len) in &intervals {
            events.push((start, true));
            events.push((start + len, false));
            expected += len;
        }
        events.sort_by_key(|&(t, up)| (t, !up));
        let mut tl = BusyTimeline::new(Duration::from_ns(7));
        let mut end = 0u64;
        for (t, up) in events {
            if up {
                tl.unit_up(SimTime::from_ns(t));
            } else {
                tl.unit_down(SimTime::from_ns(t));
            }
            end = end.max(t);
        }
        let curve = tl.finish(SimTime::from_ns(end));
        let integral: f64 = curve.iter().sum::<f64>() * 7.0;
        prop_assert!(
            (integral - expected as f64).abs() < 1e-6,
            "integral {} vs expected {}",
            integral,
            expected
        );
    }
}

/// Runs `ops` against a calendar and against a naive reference model
/// (live events as `(at, seq, id)`, delivered by `(at, seq)` minimum),
/// asserting identical pops, lengths and peeks, then drains both.
///
/// Each op is `(kind, delta, n)`: kinds 0..=5 schedule at `watermark +
/// delta` (`delta == 0` queues at the current instant, behind any
/// same-instant events already pending); kinds 6..=7 pop once; other
/// kinds pop a burst of `n % 4 + 1` events and then schedule one event
/// at the new watermark.
fn check_against_reference(ops: &[(u8, u64, u64)]) {
    let mut cal = Calendar::new();
    let mut model: Vec<(u64, u64, u32)> = Vec::new();
    let mut seq = 0u64;
    let mut next_id = 0u32;
    let mut watermark = 0u64;
    let mut schedule = |cal: &mut Calendar<u32>, model: &mut Vec<_>, at: u64| {
        cal.schedule(SimTime::from_ns(at), next_id);
        model.push((at, seq, next_id));
        seq += 1;
        next_id += 1;
    };
    let pop = |cal: &mut Calendar<u32>, model: &mut Vec<(u64, u64, u32)>, watermark: &mut u64| {
        let expect = model
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(at, s, _))| (at, s))
            .map(|(i, _)| i);
        prop_assert_eq!(
            cal.peek_time(),
            expect.map(|i| SimTime::from_ns(model[i].0))
        );
        match expect {
            Some(i) => {
                let (at, _, id) = model.remove(i);
                *watermark = at;
                prop_assert_eq!(cal.pop(), Some((SimTime::from_ns(at), id)));
            }
            None => prop_assert_eq!(cal.pop(), None),
        }
    };
    for &(kind, delta, n) in ops {
        match kind {
            0..=5 => schedule(&mut cal, &mut model, watermark + delta),
            6 | 7 => pop(&mut cal, &mut model, &mut watermark),
            _ => {
                for _ in 0..n % 4 + 1 {
                    pop(&mut cal, &mut model, &mut watermark);
                }
                schedule(&mut cal, &mut model, watermark);
            }
        }
        prop_assert_eq!(cal.len(), model.len());
    }
    // Drain the remainder and compare the full tail order.
    model.sort_by_key(|&(at, s, _)| (at, s));
    for &(at, _, id) in &model {
        prop_assert_eq!(cal.pop(), Some((SimTime::from_ns(at), id)));
    }
    prop_assert_eq!(cal.pop(), None);
}

proptest! {
    /// The pooled slab/free-list calendar is a drop-in replacement for a
    /// naive sorted-list calendar: under arbitrary interleavings of
    /// schedules (at the current instant or up to 60 ns ahead) and
    /// pops, the delivery order — nondecreasing time with FIFO
    /// tie-breaking — is identical to the reference model's.
    #[test]
    fn pooled_calendar_matches_reference_model(
        ops in proptest::collection::vec((0u8..10, 0u64..60, 0u64..1000), 1..300),
    ) {
        check_against_reference(&ops);
    }

    /// The cross-tier variant of the reference-model test: time deltas
    /// up to 100_000 ns span many 8192-ns wheel windows, so schedules
    /// land in the far tier, move into the wheel as the watermark
    /// advances, and meet same-instant schedules right after a window
    /// moved in. Order must stay identical to the flat model.
    #[test]
    fn calendar_matches_reference_across_tiers(
        ops in proptest::collection::vec((0u8..10, 0u64..100_000, 0u64..1000), 1..200),
    ) {
        check_against_reference(&ops);
    }

    /// Equal timestamps drain in schedule order even when the tied
    /// group sits beyond the wheel window at schedule time (far tier)
    /// and is only promoted into the wheel later: the FIFO
    /// tie-break survives the tier migration.
    #[test]
    fn calendar_far_tier_preserves_fifo_ties(
        tie_at in 8_192u64..200_000,
        n in 2usize..64,
    ) {
        let mut cal = simkit::Calendar::new();
        for i in 0..n {
            cal.schedule(SimTime::from_ns(tie_at), i);
        }
        for expect in 0..n {
            prop_assert_eq!(cal.pop(), Some((SimTime::from_ns(tie_at), expect)));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// `reset` restores a calendar that has events resident in both
    /// tiers (wheel, far map) to a pristine state: the next
    /// schedule/pop cycle behaves exactly like a fresh calendar's.
    #[test]
    fn calendar_reset_then_reuse_across_tiers(
        first in proptest::collection::vec(0u64..100_000, 1..100),
        pops in 0usize..50,
        second in proptest::collection::vec(0u64..100_000, 1..100),
    ) {
        let mut cal = simkit::Calendar::new();
        let mut fresh = simkit::Calendar::new();
        for (i, &t) in first.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
        }
        for _ in 0..pops.min(first.len()) {
            cal.pop();
        }
        cal.reset();
        prop_assert_eq!(cal.len(), 0);
        prop_assert_eq!(cal.peek_time(), None);
        prop_assert_eq!(cal.pop(), None);
        // Second wave: the reused calendar must deliver the same
        // sequence as a never-used one.
        for (i, &t) in second.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
            fresh.schedule(SimTime::from_ns(t), i);
        }
        while let Some(expect) = fresh.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// `peek_time` always names the instant the next `pop` returns, and
    /// popping while the peek is at or before a cut leaves the same
    /// events, in the same order, as a full drain's prefix.
    #[test]
    fn calendar_peek_matches_next_pop(
        times in proptest::collection::vec(0u64..50_000, 1..150),
        cut in 0u64..50_000,
    ) {
        let mut a = simkit::Calendar::new();
        let mut b = simkit::Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            a.schedule(SimTime::from_ns(t), i);
            b.schedule(SimTime::from_ns(t), i);
        }
        let mut cut_prefix = Vec::new();
        while a.peek_time().is_some_and(|t| t <= SimTime::from_ns(cut)) {
            cut_prefix.push(a.pop().unwrap());
        }
        let mut all = Vec::new();
        while let Some(peek) = b.peek_time() {
            let (at, e) = b.pop().unwrap();
            prop_assert_eq!(at, peek);
            all.push((at, e));
        }
        prop_assert_eq!(&all[..cut_prefix.len()], &cut_prefix[..]);
        prop_assert!(all[cut_prefix.len()..].iter().all(|&(t, _)| t > SimTime::from_ns(cut)));
        prop_assert_eq!(a.len(), all.len() - cut_prefix.len());
    }
}
