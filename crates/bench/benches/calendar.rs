//! Calendar microbenchmarks: the timing wheel under the three op mixes
//! the engine hot loops actually produce. These isolate the
//! `schedule`/`pop` costs from the rest of the simulator so a calendar
//! regression shows up here before it shows up as a diffuse fig18 or
//! scale-out wall-clock drift.
//!
//! - **schedule_heavy** — bulk insertion followed by one full drain:
//!   the shape of engine warm-up, where a whole batch of arrivals is
//!   scheduled before the first pop.
//! - **drain_heavy** — a small steady-state live set where every pop
//!   schedules a successor (the engine's dominant regime: each event
//!   handler schedules the command's next hop).
//! - **many_calendars** — sixteen calendars with a few live events
//!   each, drained round-robin up to a common horizon that advances one
//!   lookahead window per round: the way `ArrayEngine` drives its
//!   device lanes. Every calendar's wheel is touched every round, so
//!   the per-calendar memory footprint shows up here.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simkit::{Calendar, SimTime};
use std::hint::black_box;

/// Events per iteration; large enough to cross wheel windows (the
/// near wheel spans 8192 ns) yet small enough for quick samples.
const EVENTS: u64 = 64 * 1024;

/// Deterministic xorshift64* stream — no external RNG crates, and the
/// benches must schedule the same sequence every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn schedule_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("schedule_heavy", |b| {
        let mut cal: Calendar<u64> = Calendar::new();
        b.iter(|| {
            cal.reset();
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
            // Mix of offsets: mostly near-wheel, a tail into the far
            // tier, matching the engine's service-time distribution.
            for i in 0..EVENTS {
                let spread = if i % 16 == 0 { 100_000 } else { 4_096 };
                cal.schedule(SimTime::from_ns(rng.next() % spread), i);
            }
            let mut acc = 0u64;
            while let Some((_, id)) = cal.pop() {
                acc = acc.wrapping_add(id);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn drain_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("drain_heavy", |b| {
        let mut cal: Calendar<u64> = Calendar::new();
        b.iter(|| {
            cal.reset();
            let mut rng = Rng(0xA076_1D64_78BD_642F);
            // Steady state: 256 live events; every pop reschedules one
            // successor a short service time ahead, so the wheel cursor
            // chases the watermark just like the engine's event loop.
            for i in 0..256u64 {
                cal.schedule(SimTime::from_ns(rng.next() % 512), i);
            }
            let mut acc = 0u64;
            for _ in 0..EVENTS {
                let (now, id) = cal.pop().expect("live set never empties");
                acc = acc.wrapping_add(id);
                let delay = 1 + rng.next() % 2_048;
                cal.schedule(now + simkit::Duration::from_ns(delay), id);
            }
            while cal.pop().is_some() {}
            black_box(acc)
        })
    });
    g.finish();
}

/// Device lanes in the `many_calendars` mix (the largest scale-out
/// cell).
const LANES: usize = 16;
/// Lookahead window between round horizons, in ns (the PCIe P2P fabric
/// hop latency).
const WINDOW_NS: u64 = 600;

fn many_calendars(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("many_calendars", |b| {
        let mut cals: Vec<Calendar<u64>> = (0..LANES).map(|_| Calendar::new()).collect();
        b.iter(|| {
            let mut rng = Rng(0x5851_F42D_4C95_7F2D);
            for (l, cal) in cals.iter_mut().enumerate() {
                cal.reset();
                for i in 0..4u64 {
                    cal.schedule(SimTime::from_ns(rng.next() % 2_048), l as u64 * 4 + i);
                }
            }
            // Each round drains every lane strictly below the horizon,
            // rescheduling one successor per pop a die/channel service
            // time ahead, until the op budget is spent.
            let mut acc = 0u64;
            let mut ops = 0u64;
            let mut horizon = SimTime::ZERO;
            while ops < EVENTS {
                horizon += simkit::Duration::from_ns(WINDOW_NS);
                for cal in &mut cals {
                    while cal.peek_time().is_some_and(|t| t < horizon) {
                        let (now, id) = cal.pop().expect("peeked event");
                        acc = acc.wrapping_add(id);
                        let delay = 1 + rng.next() % 4_096;
                        cal.schedule(now + simkit::Duration::from_ns(delay), id);
                        ops += 1;
                    }
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, schedule_heavy, drain_heavy, many_calendars);
criterion_main!(benches);
