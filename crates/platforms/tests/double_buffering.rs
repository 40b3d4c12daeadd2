//! The §VI-D batch pipeline, checked on the engine that produces every
//! figure.
//!
//! The SSD firmware pipelines the preparation of one mini-batch with
//! the computation of the previous one, and stages prepared batches in
//! a DRAM region split into two halves. Read off the engine's own
//! `prep` and `compute` spans, that policy means:
//!
//! * one batch prepares at a time, and one batch computes at a time;
//! * batch *i* computes only after its preparation ends, in batch order;
//! * batch *i* ≥ 2 prepares only after batch *i−2*'s computation has
//!   released its buffer half.
//!
//! A compute-bound run (a hidden dimension wide enough that accelerator
//! time dwarfs the flash backend) exercises the buffer rule; the
//! paper's default model is prep-bound and exercises the other side.

use beacon_gnn::GnnModelConfig;
use beacon_graph::{generate, FeatureTable, NodeId};
use beacon_platforms::{Engine, Platform};
use beacon_ssd::SsdConfig;
use directgraph::{build::DirectGraphBuilder, AddrLayout};
use simkit::{Duration, SimTime, UnitKind};

const NODES: usize = 1_000;
const BATCH: usize = 16;
const BATCHES: usize = 6;
const COMPUTE_BOUND_HIDDEN: usize = 4096;

/// The `(start, end)` windows of one BG-2 run's batch phases, indexed
/// by batch, plus its makespan end.
struct Pipeline {
    prep: Vec<(SimTime, SimTime)>,
    compute: Vec<(SimTime, SimTime)>,
    end: SimTime,
}

impl Pipeline {
    fn run(hidden_dim: usize, batches: usize) -> Self {
        let graph = generate::power_law(&generate::PowerLawConfig::new(NODES, 16.0), 3);
        let features = FeatureTable::synthetic(NODES, 64, 3);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &features)
            .expect("synthetic graph builds");
        let model = GnnModelConfig {
            hidden_dim,
            ..GnnModelConfig::paper_default(64)
        };
        let targets: Vec<Vec<NodeId>> = (0..batches)
            .map(|b| {
                (0..BATCH)
                    .map(|i| NodeId::new(((b * BATCH + i) * 7 % NODES) as u32))
                    .collect()
            })
            .collect();
        let m = Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 3)
            .with_obs(1 << 20)
            .run(&targets);
        assert_eq!(m.spans.dropped(), 0, "every span must be retained");

        let mut prep = vec![None; batches];
        let mut compute = vec![None; batches];
        for s in m.spans.iter() {
            let slot = match (s.kind, s.name) {
                (UnitKind::Engine, "prep") => &mut prep,
                (UnitKind::Accelerator, "compute") => &mut compute,
                _ => continue,
            };
            let prev = slot[s.value as usize].replace((s.start, s.end));
            assert!(prev.is_none(), "one {} span per batch", s.name);
        }
        let all = |w: Vec<Option<(SimTime, SimTime)>>| -> Vec<(SimTime, SimTime)> {
            w.into_iter()
                .map(|x| x.expect("a span for every batch"))
                .collect()
        };
        Pipeline {
            prep: all(prep),
            compute: all(compute),
            end: SimTime::ZERO + m.makespan,
        }
    }

    fn prep_ns(&self) -> u64 {
        self.prep.iter().map(|(s, e)| (*e - *s).as_ns()).sum()
    }

    fn compute_ns(&self) -> u64 {
        self.compute.iter().map(|(s, e)| (*e - *s).as_ns()).sum()
    }

    fn compute_bound() -> Self {
        let p = Pipeline::run(COMPUTE_BOUND_HIDDEN, BATCHES);
        assert!(
            p.compute_ns() > 2 * p.prep_ns(),
            "run must be compute-bound: compute {} ns vs prep {} ns",
            p.compute_ns(),
            p.prep_ns()
        );
        p
    }

    fn prep_bound() -> Self {
        let p = Pipeline::run(128, BATCHES);
        assert!(
            p.prep_ns() > 2 * p.compute_ns(),
            "run must be prep-bound: prep {} ns vs compute {} ns",
            p.prep_ns(),
            p.compute_ns()
        );
        p
    }
}

#[test]
fn buffer_halves_limit_outstanding_batches() {
    let p = Pipeline::compute_bound();
    let mut tight = 0;
    for i in 2..BATCHES {
        let released = p.compute[i - 2].1;
        assert!(
            p.prep[i].0 >= released,
            "batch {i} prep starts at {} before batch {}'s compute frees its half at {}",
            p.prep[i].0,
            i - 2,
            released
        );
        if p.prep[i].0 == released {
            tight += 1;
        }
    }
    // Compute-bound, the buffer release is what gates preparation: the
    // bound is met with equality, so the engine really enforces it.
    assert!(
        tight > 0,
        "no batch's prep was gated by the buffer release: {:?} / {:?}",
        p.prep,
        p.compute
    );
}

#[test]
fn backend_exclusivity_enforced() {
    for p in [Pipeline::compute_bound(), Pipeline::prep_bound()] {
        for i in 1..BATCHES {
            assert!(
                p.prep[i].0 >= p.prep[i - 1].1,
                "batches {} and {i} prepare at once",
                i - 1
            );
        }
    }
}

#[test]
fn batches_compute_in_order() {
    for p in [Pipeline::compute_bound(), Pipeline::prep_bound()] {
        for i in 0..BATCHES {
            assert!(
                p.compute[i].0 >= p.prep[i].1,
                "batch {i} computes before its prep ends"
            );
            if i >= 1 {
                assert!(
                    p.compute[i].0 >= p.compute[i - 1].1,
                    "batch {i} computes before batch {} finishes",
                    i - 1
                );
            }
        }
    }
}

#[test]
fn pipelining_overlaps_prep_and_compute() {
    for p in [Pipeline::compute_bound(), Pipeline::prep_bound()] {
        for i in 1..BATCHES {
            assert!(
                p.prep[i].0 < p.compute[i - 1].1,
                "batch {i} prep does not overlap batch {} compute",
                i - 1
            );
        }
        let serial = SimTime::ZERO + Duration::from_ns(p.prep_ns() + p.compute_ns());
        assert!(
            p.end < serial,
            "pipelined makespan {} not below serial {serial}",
            p.end
        );
    }
}

#[test]
fn compute_bound_pipeline() {
    // After the first preparation the accelerator never idles:
    // makespan = prep(0) + every batch's compute.
    let p = Pipeline::compute_bound();
    for i in 1..BATCHES {
        assert_eq!(
            p.compute[i].0,
            p.compute[i - 1].1,
            "accelerator idled before batch {i}"
        );
    }
    assert_eq!(p.end.as_ns(), p.prep[0].1.as_ns() + p.compute_ns());
}

#[test]
fn prep_bound_pipeline() {
    // The flash backend never idles and the buffer never gates it:
    // makespan = every batch's prep + the last batch's compute.
    let p = Pipeline::prep_bound();
    assert_eq!(p.prep[0].0, SimTime::ZERO);
    for i in 1..BATCHES {
        assert_eq!(
            p.prep[i].0,
            p.prep[i - 1].1,
            "backend idled before batch {i}"
        );
    }
    for i in 0..BATCHES {
        assert_eq!(
            p.compute[i].0, p.prep[i].1,
            "batch {i} waited for the accelerator"
        );
    }
    let (last_start, last_end) = p.compute[BATCHES - 1];
    assert_eq!(p.end.as_ns(), p.prep_ns() + (last_end - last_start).as_ns());
}

#[test]
fn single_batch_flows_through_states() {
    let p = Pipeline::run(128, 1);
    let (prep, compute) = (p.prep[0], p.compute[0]);
    assert_eq!(prep.0, SimTime::ZERO);
    assert!(prep.1 > prep.0, "prep takes time");
    assert_eq!(compute.0, prep.1, "compute starts when prep ends");
    assert!(compute.1 > compute.0, "compute takes time");
    assert_eq!(p.end, compute.1);
}
