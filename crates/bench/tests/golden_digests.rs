//! Golden digests: pins the deterministic outputs that the CI
//! determinism smokes otherwise only check for *self*-consistency
//! (jobs=1 vs jobs=4, cold vs warm cache). These constants are the
//! digests the current implementation produces; any simulation-visible
//! change — event ordering, timing model, sampler draw order, workload
//! synthesis — shifts them and fails here, inside plain `cargo test`,
//! without running the full figure sweep.
//!
//! If a change *intends* to alter simulated results, re-pin the
//! constants from the test failure output and say so in the commit.

use std::sync::Arc;

use beacon_bench as bench;
use beacongnn::{
    ArrayConfig, Dataset, Experiment, Partition, Platform, RunCell, RunMatrix, SsdConfig, Workload,
};

/// FNV-1a fold, mirroring `perf_smoke`'s digest of result streams.
fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a run-metrics stream, exactly as `perf_smoke` folds its
/// `digest matrix …` / `digest fig18 …` stdout lines.
fn metrics_digest(results: &[beacongnn::RunMetrics]) -> u64 {
    results.iter().fold(FNV_OFFSET, |h, m| {
        let h = fnv1a_fold(h, &m.nodes_visited.to_le_bytes());
        let h = fnv1a_fold(h, &m.flash_reads.to_le_bytes());
        fnv1a_fold(h, &m.makespan.as_ns().to_le_bytes())
    })
}

/// The `digest workload …` line of perf_smoke: the DirectGraph image
/// digest of the fixed smoke workload (Amazon, 8k nodes, batch 128 × 2,
/// seed 7).
#[test]
fn perf_smoke_workload_digest_is_pinned() {
    let w = Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(8_000)
        .batch_size(128)
        .batches(2)
        .seed(7)
        .prepare()
        .expect("smoke workload prepares");
    assert_eq!(
        w.directgraph().digest(),
        0x26787abe61d5a557,
        "perf_smoke workload digest drifted"
    );
}

/// The `digest matrix …` line of perf_smoke: the Fig 14 platform ×
/// dataset matrix at smoke scale (4k nodes, batch 64), run sequentially.
#[test]
fn perf_smoke_matrix_digest_is_pinned() {
    let matrix = bench::fig14_matrix(4_000, 64);
    let results = matrix.run_sequential();
    assert_eq!(
        metrics_digest(&results),
        0x08f95fdebcdc17d9,
        "perf_smoke fig14-matrix digest drifted"
    );
}

/// The `digest fig18 …` line of perf_smoke: the controller-core
/// sensitivity matrix (BG chain × core counts) at smoke scale.
#[test]
fn perf_smoke_fig18_digest_is_pinned() {
    let w = bench::workload(Dataset::Amazon, 4_000, 64);
    let mut matrix = RunMatrix::new();
    for &cores in &[1usize, 2, 4, 8] {
        let ssd = SsdConfig::paper_default().with_cores(cores);
        for p in Platform::BG_CHAIN {
            matrix.push(RunCell::new(p, Arc::clone(&w)).ssd(ssd));
        }
    }
    let results = matrix.run_sequential();
    assert_eq!(
        metrics_digest(&results),
        0x1cf7241d101629eb,
        "perf_smoke fig18-matrix digest drifted"
    );
}

/// The per-query latency report on the smoke-scale BG-2 cell: folds the
/// full query stream (latency + per-stage attribution) plus the derived
/// tail percentiles, so both the histogram math and the critical-path
/// split are pinned, not just the aggregate makespan.
#[test]
fn latency_report_digest_is_pinned() {
    let w = bench::workload(Dataset::Amazon, 4_000, 64);
    let m = Experiment::new(&w).run_latency(Platform::Bg2, simkit::Duration::from_ms(1));
    let lat = &m.latency;
    let h = lat.histogram();
    let mut d = FNV_OFFSET;
    d = fnv1a_fold(d, &h.count().to_le_bytes());
    for q in [50, 90, 99] {
        d = fnv1a_fold(d, &h.percentile_ns(q, 100).unwrap_or(0).to_le_bytes());
    }
    d = fnv1a_fold(d, &h.percentile_ns(999, 1000).unwrap_or(0).to_le_bytes());
    d = fnv1a_fold(d, &h.max_ns().unwrap_or(0).to_le_bytes());
    for stage in simkit::Stage::ALL {
        d = fnv1a_fold(d, &lat.stage_total_ns(stage).to_le_bytes());
    }
    for q in lat.queries() {
        d = fnv1a_fold(d, &q.latency_ns().to_le_bytes());
    }
    assert_eq!(d, 0xf3d6_a300_bf3d_1676, "latency report digest drifted");
}

/// The Fig 7b barrier-cost sweep at harness scale — the rows behind the
/// `experiments fig7b` stdout the CI determinism smoke `cmp`s. Folding
/// the raw row values pins the same information as the rendered table
/// without coupling the test to the text formatting.
#[test]
fn fig7b_rows_digest_is_pinned() {
    let rows = bench::fig7b(bench::DEFAULT_NODES);
    let digest = rows.iter().fold(FNV_OFFSET, |h, r| {
        let h = fnv1a_fold(h, &(r.batch_size as u64).to_le_bytes());
        let h = fnv1a_fold(h, &r.barriered_util.to_bits().to_le_bytes());
        let h = fnv1a_fold(h, &r.out_of_order_util.to_bits().to_le_bytes());
        fnv1a_fold(h, &r.prep_inflation.to_bits().to_le_bytes())
    });
    assert_eq!(digest, 0x8edc98599281dc82, "fig7b row digest drifted");
}

/// The observability exports of two observed smoke-scale cells: BG-2
/// (die, channel, router and accelerator tracks) and CC (host CPU and
/// PCIe tracks, plus zero-length spans exported as instant events).
/// Folds each cell's Chrome trace bytes and metrics-registry JSON, so
/// any change to trace formatting, event order or registry rendering
/// fails here.
#[test]
fn chrome_trace_digest_is_pinned() {
    let w = bench::workload(Dataset::Amazon, 4_000, 64);
    let mut d = FNV_OFFSET;
    for platform in [Platform::Bg2, Platform::Cc] {
        let m = Experiment::new(&w).run_observed(platform, 1 << 20);
        let mut trace = Vec::new();
        simkit::ChromeTraceWriter::write(&m.spans, &mut trace).expect("in-memory write");
        let has = |ph: &[u8]| trace.windows(ph.len()).any(|b| b == ph);
        assert!(has(b"\"ph\":\"X\""));
        assert!(platform != Platform::Cc || has(b"\"ph\":\"i\""));
        d = fnv1a_fold(d, &trace);
        d = fnv1a_fold(d, m.metrics_registry().to_json_string().as_bytes());
    }
    assert_eq!(
        d, 0xb8c0_bde9_1513_b255,
        "chrome trace / registry digest drifted"
    );
}

/// The multi-SSD array replay on a small power-law workload (Amazon
/// shape, 2k nodes): folds the full metrics registry (merged run,
/// `array`, `device_<i>` and `fabric_link_<i>` sections) of every cell
/// of a 4/8 devices × hash/bfs_grow × PCIe-P2P/NVMe-oF grid, once with
/// per-query latency tracking off and once with it on. Pins the round
/// protocol's delivery order, fabric grants and lane merge, which the
/// serial-engine pins above never reach.
#[test]
fn array_registry_digest_is_pinned() {
    let w = bench::workload(Dataset::Amazon, 2_000, 32);
    let exp = Experiment::new(&w);
    let mut d = FNV_OFFSET;
    for latency in [false, true] {
        let engine = |array: ArrayConfig| {
            let e = exp.array_engine(Platform::Bg2, array);
            if latency {
                e.with_latency(simkit::Duration::from_us(50))
            } else {
                e
            }
        };
        let cascade = engine(ArrayConfig::pcie_p2p(1)).record(w.batches());
        for devices in [4usize, 8] {
            let k = devices as u32;
            for part in [
                Partition::hash(w.graph(), k),
                Partition::bfs_grow(w.graph(), k),
            ] {
                for array in [
                    ArrayConfig::pcie_p2p(devices),
                    ArrayConfig::nvme_of(devices),
                ] {
                    let m = engine(array).run_recorded(&cascade, &part);
                    assert_eq!(m.metrics.latency.is_enabled(), latency);
                    d = fnv1a_fold(d, m.metrics_registry().to_json_string().as_bytes());
                }
            }
        }
    }
    assert_eq!(d, 0xf1b2_6b48_59ed_1273, "array registry digest drifted");
}
