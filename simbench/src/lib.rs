//! The BeaconGNN simulator's benchmark.
//!
//! One command runs one workload — a figure-shaped set of simulation
//! cells — for a fixed host-time budget, checks every cell's output,
//! and prints a record whose last line is one JSON object. With
//! `--trace 0` the record carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer split from the benchmark's own
//! spans. See `README.md` in this directory for the metric tables.

pub mod checks;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use beacongnn::ReplayStats;

use crate::checks::Ledger;
use crate::host::Host;
use crate::stats::{fold, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Checking, Kind, Plan, Prepared, Rep, Scale};

/// Cold set-ups per untraced run: at least this many, and more until
/// [`MIN_SETUP_SECONDS`] have passed; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;

/// Host seconds the untraced run's set-ups take at least.
pub const MIN_SETUP_SECONDS: f64 = 2.0;

/// The tail percentile of `cell_ms`: the highest that leaves at least
/// [`MIN_TAIL_CELLS`] cells beyond it on the smallest workload (see
/// [`stats::tail_percentile`]).
pub const TAIL_PERCENTILE: u32 = 75;

/// Cells a tail percentile must leave beyond it.
pub const MIN_TAIL_CELLS: usize = 10;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p75", "ms"),
    ("max_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("graph.build_s", "s"),
    ("graph.partition_ms", "ms"),
    ("directgraph.build_s", "s"),
    ("core.setup_other_s", "s"),
    ("replay.record_s", "s"),
    ("replay.records", "count"),
    ("replay.hits", "count"),
    ("replay.memo_hits", "count"),
    ("replay.memo_hit_ratio", "ratio"),
    ("engine.replay_ms", "ms"),
    ("engine.replay_ns_per_event", "ns"),
    ("engine.full_ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.full_ms.cc", "ms"),
    ("engine.full_ms.smartsage", "ms"),
    ("engine.full_ms.glist", "ms"),
    ("engine.full_ms.bg1", "ms"),
    ("engine.full_ms.bgdg", "ms"),
    ("engine.full_ms.bgsp", "ms"),
    ("engine.full_ms.bgdgsp", "ms"),
    ("engine.full_ms.bg2", "ms"),
    ("flash.sampler_ns_per_cmd", "ns"),
    ("flash.sampler_cmds", "count"),
    ("flash.reads", "count"),
    ("calendar.ns_per_op", "ns"),
    ("array.record_s", "s"),
    ("array.cell_ms.1dev", "ms"),
    ("array.cell_ms.16dev", "ms"),
    ("array.ns_per_event", "ns"),
    ("obs.run_overhead_pct", "%"),
    ("obs.export_ms", "ms"),
    ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.cells_per_s", "1/s"),
    ("trace.untraced_cells_per_s", "1/s"),
    ("trace.reps", "count"),
];

/// Usage text.
pub const USAGE: &str = "usage: simbench --workload <sweep|platforms|scaleout|observed|all> \
[--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds the measured phase runs for (at least one
    /// repetition either way).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input scale: always [`Scale::FULL`] from the command line; the
    /// benchmark's tests use [`Scale::QUICK`].
    pub scale: Scale,
    /// Where a traced run writes its spans as Chrome trace JSON.
    pub spans: Option<PathBuf>,
}

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut kind = None;
        let mut out = Args {
            kind: Kind::Sweep,
            seed: workloads::SEED,
            seconds: 10.0,
            trace: false,
            scale: Scale::FULL,
            spans: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--spans" => out.spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        out.kind = kind.ok_or("--workload is required")?;
        Ok(out)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Record {
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
    /// Cell executions attempted.
    pub attempted: u64,
    /// Cell executions that failed a check.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs the benchmark described by `args`, keeping every workload and
/// replay disk cache under `dir`.
///
/// # Errors
///
/// Returns a message if a workload cannot be prepared.
pub fn run(args: &Args, dir: &Path) -> Result<Record, String> {
    let host = Host::probe();
    let plan = Plan::new(args.kind, args.scale, args.seed);
    let mut lines = vec![
        format!(
            "simbench workload={} seed={} seconds={} trace={} nodes={} workloads={} cells={}",
            args.kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.scale.nodes,
            plan.workloads(),
            plan.cells.len()
        ),
        format!("host {}", host.to_json()),
    ];
    let mut ledger = Ledger::new();
    let (metrics, reference) = if args.trace {
        traced(args, &plan, dir, &mut ledger, &mut lines)?
    } else {
        untraced(args, &plan, dir, &mut ledger, &mut lines)?
    };
    let sim = reference
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, d| fold(h, &d.to_le_bytes()));
    lines.push(format!("sim_digest {sim:#018x}"));
    for ((rep, cell), why) in ledger.failures() {
        lines.push(format!("failed rep={rep} cell={cell}: {why}"));
    }
    for m in &metrics {
        lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }
    Ok(Record {
        lines,
        attempted: ledger.attempted(),
        failed: ledger.failed(),
        metrics,
    })
}

fn prep_error(e: beacongnn::WorkloadError) -> String {
    format!("workload preparation failed: {e}")
}

/// The reference repetition (untraced, every invariant checked) and the
/// replay-equals-full check; returns its digests.
fn reference_rep(
    plan: &Plan,
    prep: &Prepared,
    ledger: &mut Ledger,
    lines: &mut Vec<String>,
) -> Rep {
    let reference = workloads::rep(
        plan,
        prep,
        &mut Tracer::off(),
        Checking {
            ledger,
            rep: 0,
            deep: true,
        },
    );
    workloads::check_replay_matches_full(
        plan,
        prep,
        &reference.digests(),
        &mut Checking {
            ledger,
            rep: 0,
            deep: true,
        },
    );
    if let Some(g) = workloads::bg2_over_cc_geomean(plan, &reference) {
        lines.push(format!(
            "bg2_over_cc_geomean {g:.2}x (paper 21.7x; information only)"
        ));
    }
    reference
}

/// A repetition compared against the reference digests.
fn checked_rep(
    plan: &Plan,
    prep: &Prepared,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    index: u32,
    reference: &[u64],
) -> Rep {
    let r = workloads::rep(
        plan,
        prep,
        tracer,
        Checking {
            ledger,
            rep: index,
            deep: false,
        },
    );
    ledger.compare_digests(index, reference, &r.digests());
    r
}

fn untraced(
    args: &Args,
    plan: &Plan,
    dir: &Path,
    ledger: &mut Ledger,
    lines: &mut Vec<String>,
) -> Result<(Vec<Metric>, Vec<u64>), String> {
    let mut setup_s = Vec::new();
    let mut prep = None;
    let t0 = Instant::now();
    while setup_s.len() < MIN_SETUPS || t0.elapsed().as_secs_f64() < MIN_SETUP_SECONDS {
        drop(prep.take());
        let d = dir.join(format!("setup-{}", setup_s.len()));
        let t = Instant::now();
        prep = Some(workloads::setup(plan, &d).map_err(prep_error)?);
        setup_s.push(t.elapsed().as_secs_f64());
        // Best-effort: the whole directory is removed at exit anyway.
        let _ = std::fs::remove_dir_all(&d);
    }
    let prep = prep.expect("at least one set-up");
    let reference = reference_rep(plan, &prep, ledger, lines).digests();
    let mut cell_ms = Vec::new();
    let mut rep_rates = Vec::new();
    let t0 = Instant::now();
    while rep_rates.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let index = rep_rates.len() as u32 + 1;
        let r = checked_rep(plan, &prep, &mut Tracer::off(), ledger, index, &reference);
        rep_rates.push(r.cells.len() as f64 / r.cell_secs());
        cell_ms.extend(r.cells.iter().map(|c| c.secs * 1e3));
    }
    lines.push(format!(
        "timed reps={} cells={} cells_per_s_each={rep_rates:.3?} setups={} setup_s_each={setup_s:.3?}",
        rep_rates.len(),
        cell_ms.len(),
        setup_s.len()
    ));
    let values = [
        median(&rep_rates),
        percentile(&cell_ms, 50),
        percentile(&cell_ms, TAIL_PERCENTILE),
        host::max_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        median(&setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    Ok((metrics, reference))
}

fn traced(
    args: &Args,
    plan: &Plan,
    dir: &Path,
    ledger: &mut Ledger,
    lines: &mut Vec<String>,
) -> Result<(Vec<Metric>, Vec<u64>), String> {
    let mut setup = Tracer::on();
    let prep =
        workloads::setup_traced(plan, &dir.join("setup-traced"), &mut setup).map_err(prep_error)?;
    let first = reference_rep(plan, &prep, ledger, lines);
    let reference = first.digests();
    let cells = plan.cells.len() as f64;
    let mut tracer = Tracer::on();
    let (mut plain_cps, mut traced_cps) = (Vec::new(), Vec::new());
    let mut replay = first.replay;
    let t0 = Instant::now();
    let mut pair = 0u32;
    while pair == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        pair += 1;
        // Alternate which side of the pair runs first.
        let traced_first = pair.is_multiple_of(2);
        for traced_side in [traced_first, !traced_first] {
            let index = 2 * pair - u32::from(!traced_side);
            if traced_side {
                let r = checked_rep(plan, &prep, &mut tracer, ledger, index, &reference);
                traced_cps.push(cells / r.cell_secs());
            } else {
                let r = checked_rep(plan, &prep, &mut Tracer::off(), ledger, index, &reference);
                plain_cps.push(cells / r.cell_secs());
                replay = r.replay.or(replay);
            }
        }
    }
    if let Some(path) = &args.spans {
        let write = || -> std::io::Result<()> {
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            tracer.write_chrome(&mut w)?;
            w.flush()
        };
        write().map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let layers = Layers {
        setup: &setup,
        reps: &tracer,
        traced_reps: pair as f64,
        cells,
        replay,
        sampler_ns_per_cmd: workloads::sampler_ns_per_cmd(plan, &prep),
        calendar_ns_per_op: workloads::calendar_ns_per_op(
            first.wheel_high_water,
            first.far_high_water,
        ),
        plain_cps: median(&plain_cps),
        traced_cps: median(&traced_cps),
        observed: plan.kind == Kind::Observed,
    };
    lines.push(format!(
        "traced pairs={pair} calendar_wheel_high_water={} calendar_far_high_water={}",
        first.wheel_high_water, first.far_high_water
    ));
    Ok((layers.metrics(), reference))
}

/// Inputs of the per-layer metrics.
struct Layers<'a> {
    setup: &'a Tracer,
    reps: &'a Tracer,
    traced_reps: f64,
    cells: f64,
    replay: Option<ReplayStats>,
    sampler_ns_per_cmd: f64,
    calendar_ns_per_op: f64,
    plain_cps: f64,
    traced_cps: f64,
    observed: bool,
}

impl Layers<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let (setup, reps, n) = (self.setup, self.reps, self.traced_reps);
        let secs = |ns: u64| ns as f64 / 1e9;
        let per_rep = |name: &str| reps.counter(name) as f64 / n;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let graph = setup.total("graph.build").total_ns;
        let dg = setup.total("directgraph.build").total_ns;
        let prepare = setup.total("core.prepare").total_ns;
        let replay = self.replay.unwrap_or_default();
        let full_self = reps.self_ns_with_prefix("engine.full.");
        let obs_self = reps.total("obs.run").self_ns;
        let value = |name: &str| -> f64 {
            match name {
                "graph.build_s" => secs(graph),
                "graph.partition_ms" => reps.total("graph.partition").total_ns as f64 / n / 1e6,
                "directgraph.build_s" => secs(dg),
                "core.setup_other_s" => (prepare as f64 - graph as f64 - dg as f64) / 1e9,
                "replay.record_s" => secs(reps.total("replay.record").total_ns) / n,
                "replay.records" => replay.records as f64,
                "replay.hits" => replay.hits as f64,
                "replay.memo_hits" => replay.memo_hits as f64,
                "replay.memo_hit_ratio" => replay.memo_hits as f64 / self.cells,
                "engine.replay_ms" => reps.total("engine.replay").mean_self_ms(),
                "engine.replay_ns_per_event" => ratio(
                    reps.total("engine.replay").self_ns,
                    reps.counter("engine.replay.events"),
                ),
                "engine.full_ns_per_event" => ratio(full_self, reps.counter("engine.full.events")),
                "engine.events" => per_rep("engine.events"),
                "flash.sampler_ns_per_cmd" => self.sampler_ns_per_cmd,
                "flash.sampler_cmds" => per_rep("flash.sampler_cmds"),
                "flash.reads" => per_rep("flash.reads"),
                "calendar.ns_per_op" => self.calendar_ns_per_op,
                "array.record_s" => secs(reps.total("array.record").total_ns) / n,
                "array.cell_ms.1dev" => reps.total("array.run.1dev").mean_self_ms(),
                "array.cell_ms.16dev" => reps.total("array.run.16dev").mean_self_ms(),
                "array.ns_per_event" => ratio(
                    reps.self_ns_with_prefix("array.run."),
                    reps.counter("array.events"),
                ),
                "obs.run_overhead_pct" if self.observed && full_self > 0 => {
                    (obs_self as f64 / full_self as f64 - 1.0) * 100.0
                }
                "obs.run_overhead_pct" => 0.0,
                "obs.export_ms" => reps.total("obs.export").mean_self_ms(),
                "obs.spans" => per_rep("obs.spans"),
                "obs.spans_dropped" => per_rep("obs.spans_dropped"),
                "trace.overhead_pct" => (self.plain_cps / self.traced_cps - 1.0) * 100.0,
                "trace.cells_per_s" => self.traced_cps,
                "trace.untraced_cells_per_s" => self.plain_cps,
                "trace.reps" => n,
                full => {
                    let platform = full
                        .strip_prefix("engine.full_ms.")
                        .expect("a per-platform metric");
                    let span = format!("engine.full.{platform}");
                    reps.total(&span).mean_self_ms()
                }
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: value(name),
            })
            .collect()
    }
}

/// A benchmark-owned temporary directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory under `base`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if it cannot be created.
    pub fn create(base: &Path) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where scratch directories live: `.scratch` inside this package.
pub fn scratch_base() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}
