//! Dependency-free performance smoke test.
//!
//! Times a fixed BG-2 simulation plus two scaling sweeps with
//! `std::time::Instant` only — no bench harness, no external crates —
//! so any environment that can build the workspace can track simulator
//! performance over time:
//!
//! ```sh
//! cargo run --release -p beacon-bench --bin perf_smoke
//! cargo run --release -p beacon-bench --bin perf_smoke -- --jobs 4 --min-speedup 1.5
//! cargo run --release -p beacon-bench --bin perf_smoke -- --build-jobs 4 --min-build-speedup 1.5
//! cargo run --release -p beacon-bench --bin perf_smoke -- --iters 5 --json perf.json
//! ```
//!
//! Eight phases, reported separately so a regression can be attributed:
//!
//! 1. **workload build sweep** — synthesizing one 8k-node graph and its
//!    DirectGraph image at each power of two of build threads up to
//!    `--build-jobs`, asserting the image digest never changes.
//! 2. **cached prepare** — the same workload through [`beacongnn::WorkloadCache`]
//!    (honouring `BEACON_WORKLOAD_CACHE`); near-zero when the on-disk
//!    cache is warm.
//! 3. **single-cell execution** — repeated BG-2 runs of that workload
//!    (the engine inner loop; `--iters` controls repetitions).
//! 4. **parallel sweep** — the Fig 14 platform × dataset matrix at
//!    reduced scale, executed sequentially and then at each power of
//!    two up to `--jobs`, with the matrix (workload-build) phase timed
//!    apart from the cell-execution passes.
//! 5. **fig18 matrix** — the Fig 18 controller-core sensitivity matrix
//!    (BG chain × core counts) run sequentially with observability
//!    *disabled*. This is the wall-clock the `--baseline-json` gate
//!    tracks: any regression here is hot-path overhead.
//! 6. **observability** — the phase-3 cell re-run with `simkit::obs`
//!    enabled: simulated results must match the unobserved run exactly,
//!    two observed runs must produce byte-identical metric reports, and
//!    the obs wall-clock cost is reported.
//! 7. **array scale-out** — the phase-3 cell sharded over
//!    `--array-devices` simulated SSDs (bfs_grow partition, PCIe-P2P
//!    fabric): the cascade is recorded once, then the device-lane
//!    replay is timed and reported per simulated event.
//! 8. **record-once / replay-many** — the phase-5 matrix re-run through
//!    a fresh [`beacongnn::ReplayCache`]: the first pass records the
//!    shared cascade once, later passes replay it warm. Every replayed
//!    registry must be byte-identical to the phase-5 full run; the
//!    full/warm-replay wall-clock ratio feeds the
//!    `--min-replay-speedup` gate. The exact-cell memo path (identical
//!    cells served by cloning) is timed alongside. (Phases 4–5 pin
//!    `ReplayCache::disabled()` so their numbers keep measuring the
//!    untouched full path.)
//!
//! Timings go to stderr. Stdout carries only deterministic content:
//! `digest …` lines that must be byte-identical between cold- and
//! warm-cache runs (CI `cmp`s them), plus — when `--json PATH` is *not*
//! given — the JSON report. `--min-speedup X` / `--min-build-speedup X`
//! turn the sweeps into gates: the process exits non-zero if the
//! speedup at the highest job/thread count falls below `X`. These gates
//! auto-skip (with a warning) when the host has fewer cores than that
//! count — a single-core container cannot exhibit parallel speedup, and
//! failing there would only punish the hardware. `--min-replay-speedup
//! X` gates the phase-8 full/replay ratio, soft-skipping when the full
//! pass is too fast to time reliably. `--max-ns-per-event X`
//! gates the phase-3 wall-clock per simulated event (soft-skipping if
//! the run reports zero events). `--baseline-json PATH
//! --max-regress-pct X` gates the phase-5 obs-disabled wall-clock
//! against the `fig18_matrix_s` recorded in a previous report; it
//! auto-skips when the baseline is missing or unreadable.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use beacon_bench as bench;
use beacongnn::{
    ArrayConfig, Dataset, Experiment, ParallelRunner, Partition, Platform, ReplayCache, RunCell,
    RunMatrix, SsdConfig, Workload, WorkloadCache,
};
use simkit::hash::{fnv1a, FNV_OFFSET};

/// Fixed smoke-test shape: large enough that the event calendar and
/// resource models dominate, small enough to finish in seconds.
const NODES: usize = 8_000;
const BATCH: usize = 128;
const BATCHES: usize = 2;
const SEED: u64 = 7;

/// Parallel-sweep matrix shape (8 platforms × 5 datasets = 40 cells);
/// smaller than the single-cell phase so the whole sweep stays fast.
const MATRIX_NODES: usize = 4_000;
const MATRIX_BATCH: usize = 64;

fn smoke_builder() -> beacongnn::WorkloadBuilder {
    Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(NODES)
        .batch_size(BATCH)
        .batches(BATCHES)
        .seed(SEED)
}

fn main() {
    let mut iters = 3usize;
    let mut jobs = 4usize;
    let mut build_jobs = 4usize;
    let mut array_devices = 8usize;
    let mut min_speedup: Option<f64> = None;
    let mut min_build_speedup: Option<f64> = None;
    let mut min_replay_speedup: Option<f64> = None;
    let mut max_ns_per_event: Option<f64> = None;
    let mut json_path: Option<String> = None;
    let mut baseline_json: Option<String> = None;
    let mut max_regress_pct: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => iters = parse_arg(&mut args, "--iters"),
            "--jobs" => jobs = parse_arg(&mut args, "--jobs"),
            "--build-jobs" => build_jobs = parse_arg(&mut args, "--build-jobs"),
            "--array-devices" => array_devices = parse_arg(&mut args, "--array-devices"),
            "--min-speedup" => min_speedup = Some(parse_arg(&mut args, "--min-speedup")),
            "--min-build-speedup" => {
                min_build_speedup = Some(parse_arg(&mut args, "--min-build-speedup"))
            }
            "--min-replay-speedup" => {
                min_replay_speedup = Some(parse_arg(&mut args, "--min-replay-speedup"))
            }
            "--max-ns-per-event" => {
                max_ns_per_event = Some(parse_arg(&mut args, "--max-ns-per-event"))
            }
            "--json" => json_path = args.next(),
            "--baseline-json" => baseline_json = args.next(),
            "--max-regress-pct" => {
                max_regress_pct = Some(parse_arg(&mut args, "--max-regress-pct"))
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: perf_smoke [--iters N] [--jobs N] \
                     [--build-jobs N] [--array-devices N] [--min-speedup X] \
                     [--min-build-speedup X] [--min-replay-speedup X] [--max-ns-per-event X] \
                     [--json PATH] [--baseline-json PATH] [--max-regress-pct X]"
                );
                std::process::exit(2);
            }
        }
    }
    let iters = iters.max(1);
    let jobs = jobs.max(1);
    let build_jobs = build_jobs.max(1);
    let array_devices = array_devices.max(1);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Phase 1: workload preparation (synthesis + DirectGraph build) at
    // each power of two of build threads. Every point must produce the
    // same image — `digest()` covers pages, directory, and stats.
    let mut thread_counts = vec![1usize];
    while let Some(&last) = thread_counts.last() {
        if last >= build_jobs {
            break;
        }
        thread_counts.push((last * 2).min(build_jobs));
    }
    let mut build_rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut workload = None;
    let mut digest = 0u64;
    for &threads in &thread_counts {
        simkit::par::set_build_threads(threads);
        let t = Instant::now();
        let w = smoke_builder().prepare().expect("smoke workload prepares");
        let secs = t.elapsed().as_secs_f64();
        if workload.is_none() {
            digest = w.directgraph().digest();
        } else {
            assert_eq!(
                w.directgraph().digest(),
                digest,
                "workload build must be byte-identical at any thread count"
            );
        }
        let base = build_rows.first().map_or(secs, |&(_, s, _)| s);
        let speedup = if secs > 0.0 { base / secs } else { 1.0 };
        eprintln!("prepare --build-jobs {threads}: {secs:.3} s, speedup {speedup:.2}x");
        build_rows.push((threads, secs, speedup));
        workload = Some(w);
    }
    let prepare_s = build_rows.first().map_or(0.0, |&(_, s, _)| s);
    let workload = std::sync::Arc::new(workload.expect("at least one build point"));
    eprintln!("prepare: {prepare_s:.3} s single-thread ({NODES} nodes, batch {BATCH} x {BATCHES})");

    // Phase 2: the same workload through the disk-aware cache. Cold
    // runs pay one extra build plus the serialization; warm runs load
    // the image from disk and should be near-zero.
    let t = Instant::now();
    let cached = WorkloadCache::new()
        .get_or_prepare(smoke_builder())
        .expect("cached smoke workload prepares");
    let cached_prepare_s = t.elapsed().as_secs_f64();
    assert_eq!(
        cached.directgraph().digest(),
        digest,
        "cached workload must match the freshly built image"
    );
    drop(cached);
    let cache_stats = beacongnn::diskcache::stats();
    eprintln!(
        "cached prepare: {cached_prepare_s:.3} s (disk hits {}, misses {})",
        cache_stats.hits, cache_stats.misses
    );
    println!("digest workload 0x{digest:016x}");

    // Phase 3: single-cell engine execution (the hot loop).
    let cell = RunCell::new(Platform::Bg2, Arc::clone(&workload));
    // One warm-up run so allocator and page-cache effects do not skew
    // the first timed iteration.
    let warm = cell.execute();
    let mut times = Vec::with_capacity(iters);
    for i in 0..iters {
        let t = Instant::now();
        let m = cell.execute();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            m.nodes_visited, warm.nodes_visited,
            "simulation must be deterministic across timing iterations"
        );
        eprintln!("run {}/{iters}: {secs:.3} s", i + 1);
        times.push(secs);
    }
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    // Wall-clock cost per simulated event — the per-event figure the
    // hot-path budget tracks. Zero events (impossible for a healthy
    // run, but kept non-fatal) reports as 0 and soft-skips the gate.
    let events = warm.pools.events_processed;
    let ns_per_event = if events > 0 && best.is_finite() {
        best * 1e9 / events as f64
    } else {
        0.0
    };
    eprintln!(
        "BG-2 {NODES}-node run: best {best:.3} s, mean {mean:.3} s, \
         {:.0} nodes visited, makespan {}, {events} events ({ns_per_event:.0} ns/event)",
        warm.nodes_visited as f64, warm.makespan
    );
    eprintln!(
        "calendar occupancy: wheel high-water {}, far high-water {}",
        warm.pools.calendar_wheel_high_water, warm.pools.calendar_far_high_water
    );

    // Phase 4: parallel-scaling sweep on the Fig 14 matrix. Workload
    // build (cache population during matrix construction) is timed
    // apart from the cell-execution passes so the two phases cannot be
    // conflated when the numbers move.
    let tb = Instant::now();
    let matrix = bench::fig14_matrix(MATRIX_NODES, MATRIX_BATCH);
    let build_s = tb.elapsed().as_secs_f64();
    eprintln!(
        "matrix build: {build_s:.3} s ({} cells, {MATRIX_NODES} nodes)",
        matrix.len()
    );

    // Phases 4–5 pin the disabled replay cache: their wall-clocks are
    // hot-path numbers (the `--baseline-json` gate tracks phase 5), so
    // they must keep timing full execution even though the default
    // entry points now record/replay shared cascades. Phase 8 measures
    // the replay delta explicitly.
    let no_replay = ReplayCache::disabled();
    let ts = Instant::now();
    let baseline = matrix.run_sequential_with(&no_replay);
    let sequential_s = ts.elapsed().as_secs_f64();
    eprintln!("matrix sequential: {sequential_s:.3} s");
    let matrix_digest = baseline.iter().fold(FNV_OFFSET, |h, m| {
        let h = fnv1a(h, &m.nodes_visited.to_le_bytes());
        let h = fnv1a(h, &m.flash_reads.to_le_bytes());
        fnv1a(h, &m.makespan.as_ns().to_le_bytes())
    });
    println!("digest matrix 0x{matrix_digest:016x}");

    let mut job_counts = vec![1usize];
    while let Some(&last) = job_counts.last() {
        if last >= jobs {
            break;
        }
        job_counts.push((last * 2).min(jobs));
    }
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for &j in &job_counts {
        let t = Instant::now();
        let results = ParallelRunner::new(j).run_with(&matrix, &no_replay);
        let secs = t.elapsed().as_secs_f64();
        for (a, b) in baseline.iter().zip(&results) {
            assert_eq!(
                (a.nodes_visited, a.makespan),
                (b.nodes_visited, b.makespan),
                "parallel execution must match the sequential baseline"
            );
        }
        let speedup = if secs > 0.0 { sequential_s / secs } else { 1.0 };
        eprintln!("matrix --jobs {j}: {secs:.3} s, speedup {speedup:.2}x");
        rows.push((j, secs, speedup));
    }
    let final_cache = beacongnn::diskcache::stats();

    // Phase 5: the Fig 18 controller-core sensitivity matrix (BG chain
    // × core counts) run sequentially with observability disabled. The
    // `--baseline-json` gate below compares this wall-clock against a
    // previous report, so the obs layer's disabled path stays within
    // noise of the pre-obs hot path.
    let w18 = bench::workload(Dataset::Amazon, MATRIX_NODES, MATRIX_BATCH);
    let mut fig18_matrix = RunMatrix::new();
    for &cores in &[1usize, 2, 4, 8] {
        let ssd = SsdConfig::paper_default().with_cores(cores);
        for p in Platform::BG_CHAIN {
            fig18_matrix.push(RunCell::new(p, Arc::clone(&w18)).ssd(ssd));
        }
    }
    let t = Instant::now();
    let fig18_results = fig18_matrix.run_sequential_with(&no_replay);
    let fig18_matrix_s = t.elapsed().as_secs_f64();
    let fig18_digest = fig18_results.iter().fold(FNV_OFFSET, |h, m| {
        let h = fnv1a(h, &m.nodes_visited.to_le_bytes());
        let h = fnv1a(h, &m.flash_reads.to_le_bytes());
        fnv1a(h, &m.makespan.as_ns().to_le_bytes())
    });
    eprintln!(
        "fig18 matrix ({} cells, obs disabled): {fig18_matrix_s:.3} s",
        fig18_matrix.len()
    );
    println!("digest fig18 0x{fig18_digest:016x}");

    // Phase 6: observability determinism + cost. The observed run must
    // reproduce the unobserved phase-3 results exactly, two observed
    // runs must render byte-identical metric reports, and the observed
    // wall-clock is reported next to the unobserved best.
    let exp = Experiment::new(&workload);
    let mut obs_times = Vec::with_capacity(iters);
    let mut observed = None;
    for _ in 0..iters {
        let t = Instant::now();
        let m = exp.run_observed(Platform::Bg2, 1 << 20);
        obs_times.push(t.elapsed().as_secs_f64());
        observed = Some(m);
    }
    let observed = observed.expect("at least one observed run");
    assert_eq!(
        (
            observed.nodes_visited,
            observed.flash_reads,
            observed.makespan
        ),
        (warm.nodes_visited, warm.flash_reads, warm.makespan),
        "observability must not change simulated results"
    );
    let report_a = observed.metrics_registry().to_json_string();
    let report_b = exp
        .run_observed(Platform::Bg2, 1 << 20)
        .metrics_registry()
        .to_json_string();
    assert_eq!(
        report_a, report_b,
        "metric reports must be byte-identical across identical runs"
    );
    let obs_best = obs_times.iter().cloned().fold(f64::INFINITY, f64::min);
    let obs_overhead_pct = if best > 0.0 {
        (obs_best / best - 1.0) * 100.0
    } else {
        0.0
    };
    let report_digest = fnv1a(FNV_OFFSET, report_a.as_bytes());
    eprintln!(
        "observed run: best {obs_best:.3} s ({obs_overhead_pct:+.1}% vs unobserved best), \
         {} spans, report {} bytes",
        observed.spans.len(),
        report_a.len()
    );
    println!("digest metrics 0x{report_digest:016x}");

    // Phase 7: array scale-out. The phase-3 cell sharded over
    // `--array-devices` simulated SSDs behind the partition-aware host
    // router. The cascade records once (timed apart); then only the
    // device-lane replay is timed.
    let array_cfg = ArrayConfig::pcie_p2p(array_devices);
    let array_part = Partition::bfs_grow(workload.graph(), array_devices as u32);
    let t = Instant::now();
    let cascade = exp
        .array_engine(Platform::Bg2, array_cfg)
        .record(workload.batches());
    let array_record_s = t.elapsed().as_secs_f64();
    let mut array_times = Vec::with_capacity(iters);
    let mut array_run = None;
    for _ in 0..iters {
        let t = Instant::now();
        let m = exp
            .array_engine(Platform::Bg2, array_cfg)
            .run_recorded(&cascade, &array_part);
        array_times.push(t.elapsed().as_secs_f64());
        array_run = Some(m);
    }
    let array_run = array_run.expect("at least one array run");
    let array_report = array_run.metrics_registry().to_json_string();
    let array_best = array_times.iter().cloned().fold(f64::INFINITY, f64::min);
    let array_events: u64 = array_run
        .per_device
        .iter()
        .map(|d| d.events_processed)
        .sum();
    let array_ns_per_event = if array_events > 0 && array_best.is_finite() {
        array_best * 1e9 / array_events as f64
    } else {
        0.0
    };
    let array_digest = fnv1a(FNV_OFFSET, array_report.as_bytes());
    eprintln!(
        "array replay ({array_devices} devices): record {array_record_s:.3} s, replay best \
         {array_best:.3} s, {array_events} events ({array_ns_per_event:.0} ns/event), \
         efficiency {:.3}, makespan {}",
        array_run.efficiency(),
        array_run.metrics.makespan
    );
    println!("digest array 0x{array_digest:016x}");

    // Phase 8: record-once / replay-many. The phase-5 matrix (16 cells,
    // one shared workload ⇒ one replay key) re-run through a fresh
    // in-memory ReplayCache. The cold pass pays the single canonical
    // recording; warm passes replay every cell. Every replayed registry
    // must be byte-identical to the phase-5 full run — the invariant
    // that makes replay a pure performance decision — and the
    // full/warm-replay ratio feeds the `--min-replay-speedup` gate.
    let replay_cache = ReplayCache::in_memory().without_memo();
    let t = Instant::now();
    let replay_cold = fig18_matrix.run_sequential_with(&replay_cache);
    let replay_cold_s = t.elapsed().as_secs_f64();
    let mut replay_times = Vec::with_capacity(iters);
    let mut replay_warm = replay_cold;
    for _ in 0..iters {
        let t = Instant::now();
        replay_warm = fig18_matrix.run_sequential_with(&replay_cache);
        replay_times.push(t.elapsed().as_secs_f64());
    }
    for (full, replayed) in fig18_results.iter().zip(&replay_warm) {
        assert_eq!(
            full.metrics_registry().to_json_string(),
            replayed.metrics_registry().to_json_string(),
            "replayed registry must be byte-identical to the full run"
        );
    }
    let replay_stats = replay_cache.stats();
    assert_eq!(replay_stats.records, 1, "one shared key records once");
    assert_eq!(replay_stats.fallbacks, 0, "all smoke cells are replayable");
    let replay_warm_best = replay_times.iter().cloned().fold(f64::INFINITY, f64::min);
    let replay_speedup = if replay_warm_best > 0.0 {
        fig18_matrix_s / replay_warm_best
    } else {
        1.0
    };
    // The exact-cell memo path: re-running the *same* matrix through a
    // memoizing cache serves every cell by cloning its first result —
    // the cross-figure deduplication the experiments suite leans on.
    let memo_cache = ReplayCache::in_memory();
    let memo_seed = fig18_matrix.run_sequential_with(&memo_cache);
    let mut memo_times = Vec::with_capacity(iters);
    let mut memo_warm = memo_seed;
    for _ in 0..iters {
        let t = Instant::now();
        memo_warm = fig18_matrix.run_sequential_with(&memo_cache);
        memo_times.push(t.elapsed().as_secs_f64());
    }
    for (full, memoed) in fig18_results.iter().zip(&memo_warm) {
        assert_eq!(
            full.metrics_registry().to_json_string(),
            memoed.metrics_registry().to_json_string(),
            "memoized registry must be byte-identical to the full run"
        );
    }
    assert_eq!(
        memo_cache.stats().memo_hits,
        (fig18_matrix.len() * iters) as u64,
        "warm passes must be served entirely from the memo"
    );
    let memo_warm_best = memo_times.iter().cloned().fold(f64::INFINITY, f64::min);
    let memo_speedup = if memo_warm_best > 0.0 {
        fig18_matrix_s / memo_warm_best
    } else {
        1.0
    };
    let replay_digest = replay_warm.iter().fold(FNV_OFFSET, |h, m| {
        fnv1a(h, m.metrics_registry().to_json_string().as_bytes())
    });
    eprintln!(
        "replay matrix ({} cells): full {fig18_matrix_s:.3} s, cold (record+replay) \
         {replay_cold_s:.3} s, warm best {replay_warm_best:.3} s, speedup {replay_speedup:.2}x, \
         {} records, {} hits; memo warm best {memo_warm_best:.3} s ({memo_speedup:.1}x)",
        fig18_matrix.len(),
        replay_stats.records,
        replay_stats.hits
    );
    println!("digest replay 0x{replay_digest:016x}");

    let mut json = String::new();
    json.push('{');
    let _ = write!(json, "\"platform\": \"BG-2\", ");
    let _ = write!(
        json,
        "\"nodes\": {NODES}, \"batch\": {BATCH}, \"batches\": {BATCHES}, "
    );
    let _ = write!(json, "\"seed\": {SEED}, \"iters\": {iters}, ");
    let _ = write!(json, "\"host_cores\": {host_cores}, ");
    let _ = write!(json, "\"workload_prepare_s\": {prepare_s:.6}, ");
    let _ = write!(json, "\"workload_digest\": \"0x{digest:016x}\", ");
    let _ = write!(json, "\"build\": {{\"rows\": [");
    for (i, (t, secs, speedup)) in build_rows.iter().enumerate() {
        let comma = if i + 1 < build_rows.len() { ", " } else { "" };
        let _ = write!(
            json,
            "{{\"threads\": {t}, \"seconds\": {secs:.6}, \"speedup\": {speedup:.4}}}{comma}"
        );
    }
    let _ = write!(json, "], \"cached_prepare_s\": {cached_prepare_s:.6}}}, ");
    let _ = write!(
        json,
        "\"disk_cache\": {{\"hits\": {}, \"misses\": {}}}, ",
        final_cache.hits, final_cache.misses
    );
    let _ = write!(
        json,
        "\"run_best_s\": {best:.6}, \"run_mean_s\": {mean:.6}, "
    );
    let _ = write!(
        json,
        "\"runs_per_s\": {:.4}, ",
        if best > 0.0 { 1.0 / best } else { 0.0 }
    );
    let _ = write!(
        json,
        "\"events_processed\": {events}, \"ns_per_event\": {ns_per_event:.2}, "
    );
    let _ = write!(
        json,
        "\"calendar_wheel_high_water\": {}, \"calendar_far_high_water\": {}, ",
        warm.pools.calendar_wheel_high_water, warm.pools.calendar_far_high_water
    );
    let _ = write!(json, "\"nodes_visited\": {}, ", warm.nodes_visited);
    let _ = write!(json, "\"flash_reads\": {}, ", warm.flash_reads);
    let _ = write!(json, "\"makespan_ns\": {}, ", warm.makespan.as_ns());
    let _ = write!(
        json,
        "\"matrix\": {{\"cells\": {}, \"nodes\": {MATRIX_NODES}, \"batch\": {MATRIX_BATCH}, \
         \"digest\": \"0x{matrix_digest:016x}\", \
         \"workload_build_s\": {build_s:.6}, \"sequential_s\": {sequential_s:.6}, \"rows\": [",
        matrix.len()
    );
    for (i, (j, secs, speedup)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { ", " } else { "" };
        let _ = write!(
            json,
            "{{\"jobs\": {j}, \"seconds\": {secs:.6}, \"speedup\": {speedup:.4}}}{comma}"
        );
    }
    json.push_str("]}, ");
    let _ = write!(
        json,
        "\"fig18_matrix_s\": {fig18_matrix_s:.6}, \
         \"fig18_digest\": \"0x{fig18_digest:016x}\", "
    );
    let _ = write!(
        json,
        "\"obs\": {{\"run_best_s\": {obs_best:.6}, \"overhead_pct\": {obs_overhead_pct:.2}, \
         \"spans\": {}, \"report_bytes\": {}, \"report_digest\": \"0x{report_digest:016x}\"}}, ",
        observed.spans.len(),
        report_a.len()
    );
    let _ = write!(
        json,
        "\"array\": {{\"devices\": {array_devices}, \
         \"record_s\": {array_record_s:.6}, \"t1_best_s\": {array_best:.6}, \
         \"events_processed\": {array_events}, \"ns_per_event\": {array_ns_per_event:.2}, \
         \"efficiency\": {:.6}, \"digest\": \"0x{array_digest:016x}\"}}, ",
        array_run.efficiency()
    );
    let _ = write!(
        json,
        "\"replay\": {{\"cells\": {}, \"full_s\": {fig18_matrix_s:.6}, \
         \"cold_s\": {replay_cold_s:.6}, \"warm_best_s\": {replay_warm_best:.6}, \
         \"speedup\": {replay_speedup:.4}, \"records\": {}, \"hits\": {}, \
         \"memo_warm_best_s\": {memo_warm_best:.6}, \"memo_speedup\": {memo_speedup:.4}, \
         \"digest\": \"0x{replay_digest:016x}\"}}",
        fig18_matrix.len(),
        replay_stats.records,
        replay_stats.hits
    );
    json.push_str("}\n");

    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write JSON output");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }

    let mut failed = false;
    if let Some(min) = min_build_speedup {
        let &(top_threads, _, top_speedup) = build_rows.last().expect("at least one build row");
        if host_cores < top_threads {
            eprintln!(
                "build speedup gate skipped: host has {host_cores} cores, \
                 cannot scale to {top_threads} build threads"
            );
        } else if top_speedup < min {
            eprintln!(
                "build speedup gate FAILED: {top_speedup:.2}x at {top_threads} threads \
                 (required >= {min:.2}x)"
            );
            failed = true;
        } else {
            eprintln!("build speedup gate passed: {top_speedup:.2}x >= {min:.2}x");
        }
    }
    if let Some(min) = min_speedup {
        let &(top_jobs, _, top_speedup) = rows.last().expect("at least one sweep row");
        if host_cores < top_jobs {
            eprintln!(
                "speedup gate skipped: host has {host_cores} cores, \
                 cannot scale to {top_jobs} jobs"
            );
        } else if top_speedup < min {
            eprintln!(
                "speedup gate FAILED: {top_speedup:.2}x at --jobs {top_jobs} \
                 (required >= {min:.2}x)"
            );
            failed = true;
        } else {
            eprintln!("speedup gate passed: {top_speedup:.2}x >= {min:.2}x");
        }
    }
    if let Some(min) = min_replay_speedup {
        // No core-count skip here — replay saves work, it does not
        // parallelize it — but a full pass too fast to time reliably
        // makes the ratio pure noise, so soft-skip like the ns/event
        // gate does on zero events.
        if fig18_matrix_s < 0.05 {
            eprintln!(
                "replay speedup gate skipped: full pass {fig18_matrix_s:.3} s is too fast \
                 to time reliably"
            );
        } else if replay_speedup < min {
            eprintln!(
                "replay speedup gate FAILED: {replay_speedup:.2}x warm replay \
                 (required >= {min:.2}x)"
            );
            failed = true;
        } else {
            eprintln!("replay speedup gate passed: {replay_speedup:.2}x >= {min:.2}x");
        }
    }
    if let Some(max) = max_ns_per_event {
        if events == 0 {
            eprintln!("ns/event gate skipped: run reported zero events processed");
        } else if ns_per_event > max {
            eprintln!("ns/event gate FAILED: {ns_per_event:.0} ns/event (allowed <= {max:.0})");
            failed = true;
        } else {
            eprintln!("ns/event gate passed: {ns_per_event:.0} ns/event <= {max:.0}");
        }
    }
    if let Some(path) = baseline_json {
        let max_pct = max_regress_pct.unwrap_or(2.0);
        match std::fs::read_to_string(&path) {
            Err(e) => {
                eprintln!("fig18 regression gate skipped: cannot read {path}: {e}");
            }
            Ok(text) => match scan_json_f64(&text, "\"fig18_matrix_s\": ") {
                None => eprintln!(
                    "fig18 regression gate skipped: no fig18_matrix_s in {path} \
                     (baseline predates the obs layer?)"
                ),
                Some(base) if base <= 0.0 => {
                    eprintln!("fig18 regression gate skipped: baseline {base} s is not positive");
                }
                Some(base) => {
                    let pct = (fig18_matrix_s / base - 1.0) * 100.0;
                    if pct > max_pct {
                        eprintln!(
                            "fig18 regression gate FAILED: {fig18_matrix_s:.3} s vs baseline \
                             {base:.3} s ({pct:+.1}%, allowed +{max_pct:.1}%)"
                        );
                        failed = true;
                    } else {
                        eprintln!(
                            "fig18 regression gate passed: {fig18_matrix_s:.3} s vs baseline \
                             {base:.3} s ({pct:+.1}%, allowed +{max_pct:.1}%)"
                        );
                    }
                }
            },
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Pulls the number following `key` out of a flat JSON report without a
/// JSON parser: finds the first occurrence of the exact `"key": `
/// pattern and reads the numeric token after it.
fn scan_json_f64(text: &str, key: &str) -> Option<f64> {
    let start = text.find(key)? + key.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the next argument as `T`, exiting with a usage error if it is
/// missing or malformed.
fn parse_arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = args.next().unwrap_or_default();
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got `{v}`");
        std::process::exit(2);
    })
}
