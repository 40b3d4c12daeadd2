//! The four workloads: which figure cells each runs, how they are set
//! up, how one repetition executes them, and the checks on their
//! outputs.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use beacon_platforms::{ArrayCascade, CascadeRecording, Engine, EngineScratch};
use beacongnn::{
    ArrayConfig, ArrayRunMetrics, Dataset, DatasetSpec, Experiment, FabricConfig, Partition,
    Platform, ReplayCache, ReplayStats, RunCell, RunMatrix, RunMetrics, SsdConfig, Workload,
    WorkloadBuilder, WorkloadCache, WorkloadError,
};
use directgraph::{AddrLayout, DirectGraphBuilder};
use simkit::{Calendar, ChromeTraceWriter, Duration, SimTime, SplitMix64};

use crate::checks::Ledger;
use crate::stats::{fnv1a, fold, median};
use crate::trace::Tracer;

/// Default workload seed (the figure harness's seed).
pub const SEED: u64 = 2024;

/// Latency-window width of the observed cells (the `latency` figure's).
pub const LATENCY_EPOCH: Duration = Duration::from_ms(1);

/// Span capacity of the observed cells.
pub const SPAN_CAPACITY: usize = 1 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 18: 5 BG-chain platforms × 6 sweeps × 4 points, replay on.
    Sweep,
    /// Fig 14: 8 platforms × 5 datasets, full path (replay off).
    Platforms,
    /// §VIII: 1–16 devices × 3 partitions × 3 fabrics off one recording.
    Scaleout,
    /// 8 platforms × 5 datasets with latency and spans on, exported.
    Observed,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Sweep, Kind::Platforms, Kind::Scaleout, Kind::Observed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Platforms => "platforms",
            Kind::Scaleout => "scaleout",
            Kind::Observed => "observed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input scale: nodes per synthesized graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Graph nodes.
    pub nodes: usize,
}

impl Scale {
    /// The figures' scale.
    pub const FULL: Scale = Scale { nodes: 12_000 };
    /// A reduced scale for the benchmark's own tests.
    pub const QUICK: Scale = Scale { nodes: 1_200 };
}

/// The builder parameters of one distinct workload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    dataset: Dataset,
    batch: usize,
    batches: usize,
    page: usize,
}

impl Shape {
    /// An amazon workload of three batches (the Fig 18 shape).
    fn amazon(batch: usize, page: usize) -> Shape {
        Shape {
            dataset: Dataset::Amazon,
            batch,
            batches: 3,
            page,
        }
    }

    fn builder(self, nodes: usize, seed: u64) -> WorkloadBuilder {
        Workload::builder()
            .dataset(self.dataset)
            .nodes(nodes)
            .batch_size(self.batch)
            .batches(self.batches)
            .page_size(self.page)
            .seed(seed)
    }
}

/// Partition strategy of the array's host router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Node-id modulo.
    Hash,
    /// Contiguous id ranges.
    Range,
    /// Greedy BFS region growing.
    BfsGrow,
}

impl Strategy {
    const ALL: [Strategy; 3] = [Strategy::Hash, Strategy::Range, Strategy::BfsGrow];

    fn build(self, w: &Workload, k: u32) -> Partition {
        match self {
            Strategy::Hash => Partition::hash(w.graph(), k),
            Strategy::Range => Partition::range(w.graph(), k),
            Strategy::BfsGrow => Partition::bfs_grow(w.graph(), k),
        }
    }
}

/// Device counts of the scale-out sweep.
const DEVICES: [usize; 5] = [1, 2, 4, 8, 16];

/// The scale-out fabrics: PCIe P2P, NVMe-oF, and a thin 1 GB/s link.
fn fabric(i: usize) -> FabricConfig {
    match i {
        0 => FabricConfig::pcie_p2p(),
        1 => FabricConfig::nvme_of(),
        _ => FabricConfig::pcie_p2p().with_bandwidth(1_000_000_000),
    }
}

/// A Fig 18 sweep point's workload and device configuration.
type SweepPoint = fn(u64) -> (Shape, SsdConfig);

/// One figure data point.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into the plan's workloads.
    pub workload: usize,
    /// Platform simulated.
    pub platform: Platform,
    /// Device configuration (page size matched at run time).
    pub ssd: SsdConfig,
    /// Array devices (scale-out only; 1 elsewhere).
    pub devices: usize,
    /// Array partition (scale-out only).
    pub strategy: Strategy,
    /// Array fabric index (scale-out only).
    pub fabric: usize,
}

impl Cell {
    fn new(workload: usize, platform: Platform, ssd: SsdConfig) -> Cell {
        Cell {
            workload,
            platform,
            ssd,
            devices: 1,
            strategy: Strategy::Hash,
            fabric: 0,
        }
    }
}

/// The cells of one workload at one scale and seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// Input scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    shapes: Vec<Shape>,
    /// Cells in figure order.
    pub cells: Vec<Cell>,
}

impl Plan {
    /// The plan of `kind`.
    pub fn new(kind: Kind, scale: Scale, seed: u64) -> Plan {
        let mut plan = Plan {
            kind,
            scale,
            seed,
            shapes: Vec::new(),
            cells: Vec::new(),
        };
        let default = SsdConfig::paper_default();
        match kind {
            Kind::Sweep => {
                let sweeps: [(&[u64; 4], SweepPoint); 6] = [
                    (&[32, 64, 128, 256], |b| {
                        (Shape::amazon(b as usize, 4096), SsdConfig::paper_default())
                    }),
                    (&[333, 800, 1600, 2400], |mbs| {
                        let ssd =
                            SsdConfig::paper_default().with_channel_bandwidth(mbs * 1_000_000);
                        (Shape::amazon(256, 4096), ssd)
                    }),
                    (&[1, 2, 4, 8], |c| {
                        let ssd = SsdConfig::paper_default().with_cores(c as usize);
                        (Shape::amazon(256, 4096), ssd)
                    }),
                    (&[4, 8, 16, 32], |c| {
                        let ssd = SsdConfig::paper_default().with_channels(c as usize);
                        (Shape::amazon(256, 4096), ssd)
                    }),
                    (&[2, 4, 8, 16], |d| {
                        let ssd = SsdConfig::paper_default().with_dies_per_channel(d as usize);
                        (Shape::amazon(256, 4096), ssd)
                    }),
                    (&[2048, 4096, 8192, 16384], |p| {
                        let ssd = SsdConfig::paper_default().with_page_size(p as usize);
                        (Shape::amazon(256, p as usize), ssd)
                    }),
                ];
                for (points, at) in sweeps {
                    for &point in points {
                        let (shape, ssd) = at(point);
                        let w = plan.shape_index(shape);
                        for p in Platform::BG_CHAIN {
                            plan.cells.push(Cell::new(w, p, ssd));
                        }
                    }
                }
            }
            Kind::Platforms | Kind::Observed => {
                let (batch, batches) = if kind == Kind::Platforms {
                    (256, 3)
                } else {
                    (128, 2)
                };
                for dataset in Dataset::ALL {
                    let w = plan.shape_index(Shape {
                        dataset,
                        batch,
                        batches,
                        page: 4096,
                    });
                    for p in Platform::ALL {
                        plan.cells.push(Cell::new(w, p, default));
                    }
                }
            }
            Kind::Scaleout => {
                let w = plan.shape_index(Shape {
                    dataset: Dataset::Amazon,
                    batch: 256,
                    batches: 3,
                    page: 4096,
                });
                for devices in DEVICES {
                    for strategy in Strategy::ALL {
                        for fabric in 0..3 {
                            plan.cells.push(Cell {
                                devices,
                                strategy,
                                fabric,
                                ..Cell::new(w, Platform::Bg2, default)
                            });
                        }
                    }
                }
            }
        }
        plan
    }

    fn shape_index(&mut self, shape: Shape) -> usize {
        match self.shapes.iter().position(|s| *s == shape) {
            Some(i) => i,
            None => {
                self.shapes.push(shape);
                self.shapes.len() - 1
            }
        }
    }

    /// Distinct workloads the plan prepares.
    pub fn workloads(&self) -> usize {
        self.shapes.len()
    }

    /// The workload whose BG-2 paper-default cell the sampler probe
    /// times: amazon at 4 KB pages with the largest batch.
    fn canonical(&self) -> usize {
        (0..self.shapes.len())
            .filter(|&i| self.shapes[i].dataset == Dataset::Amazon && self.shapes[i].page == 4096)
            .max_by_key(|&i| self.shapes[i].batch)
            .expect("every plan has an amazon 4 KB workload")
    }
}

/// The prepared workloads of a plan, in plan order.
#[derive(Debug)]
pub struct Prepared {
    /// One per distinct workload.
    pub workloads: Vec<Arc<Workload>>,
}

/// Builds every workload of `plan` into a workload cache persisting to
/// `dir`: a cold `WorkloadBuilder::prepare` plus the cache write each.
///
/// # Errors
///
/// Returns the first preparation error.
pub fn setup(plan: &Plan, dir: &Path) -> Result<Prepared, WorkloadError> {
    let cache = WorkloadCache::with_disk_dir(dir);
    let workloads = plan
        .shapes
        .iter()
        .map(|s| cache.get_or_prepare(s.builder(plan.scale.nodes, plan.seed)))
        .collect::<Result<_, _>>()?;
    Ok(Prepared { workloads })
}

/// [`setup`] with its layers traced. The graph and DirectGraph builds
/// happen inside `prepare`, where the benchmark cannot place spans, so
/// the same public calls are also made on their own under
/// `graph.build` and `directgraph.build`; `core.prepare` is the cold
/// cached prepare itself.
///
/// # Errors
///
/// Returns the first build or preparation error.
pub fn setup_traced(
    plan: &Plan,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Prepared, WorkloadError> {
    tracer.span("setup", |t| {
        for s in &plan.shapes {
            let spec = DatasetSpec::preset(s.dataset).at_scale(plan.scale.nodes);
            let (graph, features) = t.span("graph.build", |_| {
                (spec.build_graph(plan.seed), spec.build_features(plan.seed))
            });
            let layout =
                AddrLayout::for_page_size(s.page).ok_or(WorkloadError::BadPageSize(s.page))?;
            t.span("directgraph.build", |_| {
                DirectGraphBuilder::new(layout).build(&graph, &features)
            })?;
        }
        t.span("core.prepare", |_| setup(plan, dir))
    })
}

/// One cell execution: host time and output digest.
#[derive(Debug, Clone, Copy)]
pub struct CellRun {
    /// Host seconds.
    pub secs: f64,
    /// Digest of the cell's exported outputs.
    pub digest: u64,
    /// Simulated throughput, targets per simulated second.
    pub throughput: f64,
}

/// One repetition of a plan.
#[derive(Debug)]
pub struct Rep {
    /// Cells in plan order.
    pub cells: Vec<CellRun>,
    /// The replay cache's counters (sweep only).
    pub replay: Option<ReplayStats>,
    /// Highest calendar wheel population of any cell.
    pub wheel_high_water: u64,
    /// Highest calendar far-tier population of any cell.
    pub far_high_water: u64,
}

impl Rep {
    /// Sum of the cells' host seconds.
    pub fn cell_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.secs).sum()
    }

    /// Cell digests in plan order.
    pub fn digests(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.digest).collect()
    }

    fn observe(&mut self, m: &RunMetrics) {
        self.wheel_high_water = self.wheel_high_water.max(m.pools.calendar_wheel_high_water);
        self.far_high_water = self.far_high_water.max(m.pools.calendar_far_high_water);
    }
}

/// What one repetition checks besides digests.
pub struct Checking<'l> {
    /// Where failures go.
    pub ledger: &'l mut Ledger,
    /// Repetition index failures are filed under.
    pub rep: u32,
    /// Whether to run the per-cell invariants (done once per process,
    /// on the reference repetition).
    pub deep: bool,
}

/// The digest of a run's metrics registry.
pub fn registry_digest(m: &RunMetrics) -> u64 {
    fnv1a(m.metrics_registry().to_json_string().as_bytes())
}

/// The page-size-matched device configuration of `cell`.
fn cell_ssd(cell: &Cell, w: &Workload) -> SsdConfig {
    cell.ssd
        .with_page_size(w.directgraph().layout().page_size())
}

/// Span name of a full-path run per platform.
fn full_span(p: Platform) -> &'static str {
    match p {
        Platform::Cc => "engine.full.cc",
        Platform::SmartSage => "engine.full.smartsage",
        Platform::Glist => "engine.full.glist",
        Platform::Bg1 => "engine.full.bg1",
        Platform::BgDg => "engine.full.bgdg",
        Platform::BgSp => "engine.full.bgsp",
        Platform::BgDgsp => "engine.full.bgdgsp",
        Platform::Bg2 => "engine.full.bg2",
    }
}

/// Span name of an array cell per device count.
fn array_span(devices: usize) -> &'static str {
    match devices {
        1 => "array.run.1dev",
        2 => "array.run.2dev",
        4 => "array.run.4dev",
        8 => "array.run.8dev",
        _ => "array.run.16dev",
    }
}

/// Counts one engine execution's work. `sampled` is false for replays,
/// whose commands come from a recording instead of the die samplers.
fn count_run(t: &mut Tracer, m: &RunMetrics, sampled: bool) {
    t.count("engine.events", m.pools.events_processed);
    t.count("flash.reads", m.flash_reads);
    if sampled {
        t.count("flash.sampler_cmds", m.sampler_executed);
    }
}

/// Runs every cell of `plan` once. With the tracer on, spans wrap each
/// cell (`cell`) and each public call inside it; cell host time is
/// measured around the cell's own work only, never around digests or
/// checks.
pub fn rep(plan: &Plan, prep: &Prepared, tracer: &mut Tracer, mut check: Checking<'_>) -> Rep {
    let mut rep = Rep {
        cells: Vec::with_capacity(plan.cells.len()),
        replay: None,
        wheel_high_water: 0,
        far_high_water: 0,
    };
    match plan.kind {
        Kind::Sweep if tracer.is_on() => sweep_direct(plan, prep, tracer, &mut rep, &mut check),
        Kind::Sweep => sweep_matrix(plan, prep, &mut rep, &mut check),
        Kind::Platforms => platforms(plan, prep, tracer, &mut rep, &mut check),
        Kind::Scaleout => scaleout(plan, prep, tracer, &mut rep, &mut check),
        Kind::Observed => observed(plan, prep, tracer, &mut rep, &mut check),
    }
    check.ledger.attempt(rep.cells.len());
    rep
}

/// `targets == batches × batch_size`.
fn check_targets(plan: &Plan, cell: usize, targets: u64, check: &mut Checking<'_>) {
    let s = plan.shapes[plan.cells[cell].workload];
    let want = (s.batch * s.batches) as u64;
    if check.deep && targets != want {
        check.ledger.fail(
            check.rep,
            cell,
            format!("{targets} targets, expected {want}"),
        );
    }
}

/// Sweep through the matrix path: one `RunMatrix` cell at a time over a
/// fresh in-memory replay cache, recording each workload's cascade on
/// first use (charged to that cell).
fn sweep_matrix(plan: &Plan, prep: &Prepared, rep: &mut Rep, check: &mut Checking<'_>) {
    let cache = ReplayCache::in_memory();
    let mut primed = vec![false; prep.workloads.len()];
    for (i, c) in plan.cells.iter().enumerate() {
        let w = &prep.workloads[c.workload];
        let t = Instant::now();
        if !primed[c.workload] {
            primed[c.workload] = cache.prime_recording(w, w.seed());
        }
        let mut matrix = RunMatrix::new();
        matrix.push(RunCell::new(c.platform, Arc::clone(w)).ssd(c.ssd));
        let m = matrix
            .run_sequential_with(&cache)
            .pop()
            .expect("one cell in, one out");
        let secs = t.elapsed().as_secs_f64();
        rep.observe(&m);
        check_targets(plan, i, m.targets, check);
        rep.cells.push(CellRun {
            secs,
            digest: registry_digest(&m),
            throughput: m.throughput(),
        });
    }
    rep.replay = Some(cache.stats());
}

/// Sweep through direct engine calls: `Engine::record_cascade` once per
/// workload, `Engine::replay_with` per cell, and the exact-cell memo
/// mirrored, so each layer gets its own span.
fn sweep_direct(
    plan: &Plan,
    prep: &Prepared,
    tracer: &mut Tracer,
    rep: &mut Rep,
    check: &mut Checking<'_>,
) {
    let mut recordings: Vec<Option<CascadeRecording>> =
        prep.workloads.iter().map(|_| None).collect();
    let mut memo: HashMap<String, RunMetrics> = HashMap::new();
    let mut scratch = EngineScratch::new();
    for (i, c) in plan.cells.iter().enumerate() {
        let w = &prep.workloads[c.workload];
        let ssd = cell_ssd(c, w);
        let key = format!("{}|{}|{ssd:?}", c.workload, c.platform.spec().name);
        let t = Instant::now();
        let m =
            tracer.span("cell", |t| {
                let recording = match &mut recordings[c.workload] {
                    Some(r) => r,
                    slot => {
                        let canonical = SsdConfig::paper_default()
                            .with_page_size(w.directgraph().layout().page_size());
                        let (rm, r) = t.span("replay.record", |_| {
                            Engine::new(
                                Platform::Bg2,
                                canonical,
                                w.model(),
                                w.directgraph(),
                                w.seed(),
                            )
                            .record_cascade(&mut scratch, w.batches())
                        });
                        t.count("replay.records", 1);
                        count_run(t, &rm, true);
                        slot.insert(r)
                    }
                };
                if let Some(m) = memo.get(&key) {
                    t.count("replay.memo_hits", 1);
                    return t.span("replay.memo", |_| m.clone());
                }
                let m =
                    t.span("engine.replay", |_| {
                        Engine::new(c.platform, ssd, w.model(), w.directgraph(), w.seed())
                            .replay_with(&mut scratch, recording, w.batches())
                    });
                t.count("replay.hits", 1);
                t.count("engine.replay.events", m.pools.events_processed);
                count_run(t, &m, false);
                memo.insert(key, m.clone());
                m
            });
        let secs = t.elapsed().as_secs_f64();
        rep.observe(&m);
        check_targets(plan, i, m.targets, check);
        rep.cells.push(CellRun {
            secs,
            digest: registry_digest(&m),
            throughput: m.throughput(),
        });
    }
}

/// Platforms: every cell on the full path through a `RunMatrix` with
/// replay disabled.
fn platforms(
    plan: &Plan,
    prep: &Prepared,
    tracer: &mut Tracer,
    rep: &mut Rep,
    check: &mut Checking<'_>,
) {
    let disabled = ReplayCache::disabled();
    for (i, c) in plan.cells.iter().enumerate() {
        let w = &prep.workloads[c.workload];
        let t = Instant::now();
        let m = tracer.span("cell", |t| {
            t.span(full_span(c.platform), |_| {
                let mut matrix = RunMatrix::new();
                matrix.push(RunCell::new(c.platform, Arc::clone(w)).ssd(c.ssd));
                matrix
                    .run_sequential_with(&disabled)
                    .pop()
                    .expect("one cell in, one out")
            })
        });
        let secs = t.elapsed().as_secs_f64();
        tracer.count("engine.full.events", m.pools.events_processed);
        count_run(tracer, &m, true);
        rep.observe(&m);
        check_targets(plan, i, m.targets, check);
        rep.cells.push(CellRun {
            secs,
            digest: registry_digest(&m),
            throughput: m.throughput(),
        });
    }
}

/// Scale-out: one `ArrayEngine::record` (charged to the first cell),
/// one partition build per device count × strategy (charged to the
/// first cell using it), and `run_recorded` per cell on one thread.
fn scaleout(
    plan: &Plan,
    prep: &Prepared,
    tracer: &mut Tracer,
    rep: &mut Rep,
    check: &mut Checking<'_>,
) {
    let w = &prep.workloads[0];
    let exp = Experiment::new(w);
    let serial_digest = check.deep.then(|| {
        let m = Engine::new(
            Platform::Bg2,
            exp.config(),
            w.model(),
            w.directgraph(),
            w.seed(),
        )
        .run(w.batches());
        registry_digest(&m)
    });
    let mut cascade: Option<ArrayCascade> = None;
    let mut partition: Option<((usize, Strategy), Partition)> = None;
    for (i, c) in plan.cells.iter().enumerate() {
        let t = Instant::now();
        let m: ArrayRunMetrics = tracer.span("cell", |t| {
            let cascade = match &mut cascade {
                Some(a) => a,
                slot => {
                    let a = t.span("array.record", |_| {
                        exp.array_engine(Platform::Bg2, ArrayConfig::pcie_p2p(1))
                            .record(w.batches())
                    });
                    count_run(t, a.single_metrics(), true);
                    slot.insert(a)
                }
            };
            let group = (c.devices, c.strategy);
            if partition.as_ref().is_none_or(|(g, _)| *g != group) {
                let p = t.span("graph.partition", |_| c.strategy.build(w, c.devices as u32));
                partition = Some((group, p));
            }
            let (_, part) = partition.as_ref().expect("partition built above");
            let array = ArrayConfig::pcie_p2p(c.devices).with_fabric(fabric(c.fabric));
            t.span(array_span(c.devices), |_| {
                exp.array_engine(Platform::Bg2, array)
                    .threads(1)
                    .run_recorded(cascade, part)
            })
        });
        let secs = t.elapsed().as_secs_f64();
        let device_events: u64 = m.per_device.iter().map(|d| d.events_processed).sum();
        tracer.count("array.events", device_events);
        tracer.count("engine.events", device_events);
        tracer.count("flash.reads", m.metrics.flash_reads);
        rep.observe(&m.metrics);
        check_targets(plan, i, m.metrics.targets, check);
        if check.deep {
            let single = cascade
                .as_ref()
                .expect("recorded by the first cell")
                .single_metrics();
            check_array(&m, single, i, check);
            if c.devices == 1 && Some(registry_digest(&m.metrics)) != serial_digest {
                check.ledger.fail(
                    check.rep,
                    i,
                    "1-device array differs from the serial engine",
                );
            }
        }
        rep.cells.push(CellRun {
            secs,
            digest: fnv1a(m.metrics_registry().to_json_string().as_bytes()),
            throughput: m.throughput(),
        });
    }
}

/// Per-device work sums to the single-engine totals.
fn check_array(m: &ArrayRunMetrics, single: &RunMetrics, cell: usize, check: &mut Checking<'_>) {
    let sum =
        |f: fn(&beacon_platforms::DeviceMetrics) -> u64| m.per_device.iter().map(f).sum::<u64>();
    let pairs = [
        ("targets", sum(|d| d.targets), single.targets),
        ("flash_reads", sum(|d| d.flash_reads), single.flash_reads),
        (
            "nodes_visited",
            sum(|d| d.nodes_visited),
            single.nodes_visited,
        ),
        (
            "sampler_faults",
            sum(|d| d.sampler_faults),
            single.sampler_faults,
        ),
    ];
    for (what, devices, engine) in pairs {
        if devices != engine {
            check.ledger.fail(
                check.rep,
                cell,
                format!("per-device {what} sum {devices} != single engine {engine}"),
            );
        }
    }
}

/// An observed cell's exports: registry JSON and Chrome trace, folded
/// into one digest.
fn export(m: &RunMetrics) -> (String, Vec<u8>) {
    let mut trace = Vec::new();
    ChromeTraceWriter::write(&m.spans, &mut trace).expect("writing a trace to memory cannot fail");
    (m.metrics_registry().to_json_string(), trace)
}

fn export_digest(json: &str, trace: &[u8]) -> u64 {
    fold(fnv1a(json.as_bytes()), trace)
}

fn observed_engine<'a>(c: &Cell, w: &'a Workload) -> Engine<'a> {
    Engine::new(
        c.platform,
        cell_ssd(c, w),
        w.model(),
        w.directgraph(),
        w.seed(),
    )
    .with_latency(LATENCY_EPOCH)
    .with_obs(SPAN_CAPACITY)
}

/// Observed: latency tracking and spans on, then the Chrome trace and
/// the metrics registry exported to memory. With the tracer on (or on
/// the checked repetition) each cell is also run plain, outside its
/// cell time, for the overhead and makespan comparison.
fn observed(
    plan: &Plan,
    prep: &Prepared,
    tracer: &mut Tracer,
    rep: &mut Rep,
    check: &mut Checking<'_>,
) {
    let mut scratch = EngineScratch::new();
    for (i, c) in plan.cells.iter().enumerate() {
        let w = &prep.workloads[c.workload];
        let t = Instant::now();
        let (m, json, trace) = tracer.span("cell", |t| {
            let m = t.span("obs.run", |_| {
                observed_engine(c, w).run_with(&mut scratch, w.batches())
            });
            let (json, trace) = t.span("obs.export", |_| export(&m));
            (m, json, trace)
        });
        let secs = t.elapsed().as_secs_f64();
        tracer.count("obs.spans", m.spans.len() as u64);
        tracer.count("obs.spans_dropped", m.spans.dropped());
        count_run(tracer, &m, true);
        rep.observe(&m);
        check_targets(plan, i, m.targets, check);
        if check.deep {
            let bad = m
                .latency
                .queries()
                .iter()
                .filter(|q| q.path.total_ns() != q.latency_ns())
                .count();
            if !m.latency.is_enabled() || bad > 0 {
                check.ledger.fail(
                    check.rep,
                    i,
                    format!("{bad} queries whose stage sum != latency"),
                );
            }
        }
        if check.deep || tracer.is_on() {
            let plain = tracer.span(full_span(c.platform), |_| {
                Engine::new(
                    c.platform,
                    cell_ssd(c, w),
                    w.model(),
                    w.directgraph(),
                    w.seed(),
                )
                .run_with(&mut scratch, w.batches())
            });
            tracer.count("engine.full.events", plain.pools.events_processed);
            if plain.makespan != m.makespan {
                check
                    .ledger
                    .fail(check.rep, i, "observed makespan differs from the plain run");
            }
        }
        rep.cells.push(CellRun {
            secs,
            digest: export_digest(&json, &trace),
            throughput: m.throughput(),
        });
    }
}

/// Replay equals the full path, on the first cell of each distinct
/// workload: the reference repetition's digest (replayed for `sweep`,
/// full for `platforms` and `observed`) against the other path.
/// `scaleout` checks the equivalent (1 device against the serial
/// engine) inside its repetition.
pub fn check_replay_matches_full(
    plan: &Plan,
    prep: &Prepared,
    reference: &[u64],
    check: &mut Checking<'_>,
) {
    if plan.kind == Kind::Scaleout {
        return;
    }
    let mut scratch = EngineScratch::new();
    let mut seen = vec![false; prep.workloads.len()];
    for (i, c) in plan.cells.iter().enumerate() {
        if std::mem::replace(&mut seen[c.workload], true) {
            continue;
        }
        let w = &prep.workloads[c.workload];
        let other = match plan.kind {
            Kind::Sweep => {
                registry_digest(&RunCell::new(c.platform, Arc::clone(w)).ssd(c.ssd).execute())
            }
            _ => {
                let canonical =
                    SsdConfig::paper_default().with_page_size(w.directgraph().layout().page_size());
                let (_, recording) = Engine::new(
                    Platform::Bg2,
                    canonical,
                    w.model(),
                    w.directgraph(),
                    w.seed(),
                )
                .record_cascade(&mut scratch, w.batches());
                if plan.kind == Kind::Observed {
                    let m =
                        observed_engine(c, w).replay_with(&mut scratch, &recording, w.batches());
                    let (json, trace) = export(&m);
                    export_digest(&json, &trace)
                } else {
                    let m = Engine::new(
                        c.platform,
                        cell_ssd(c, w),
                        w.model(),
                        w.directgraph(),
                        w.seed(),
                    )
                    .replay_with(&mut scratch, &recording, w.batches());
                    registry_digest(&m)
                }
            }
        };
        if other != reference[i] {
            check
                .ledger
                .fail(check.rep, i, "replayed and full-path outputs differ");
        }
    }
}

/// Host ns per sampler command: `record_cascade` minus `replay_with` on
/// the plan's canonical BG-2 paper-default cell, over the commands the
/// samplers executed; the median of three pairs.
pub fn sampler_ns_per_cmd(plan: &Plan, prep: &Prepared) -> f64 {
    let w = &prep.workloads[plan.canonical()];
    let ssd = Experiment::new(w).config();
    let mut scratch = EngineScratch::new();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let (recorded, recording) =
                Engine::new(Platform::Bg2, ssd, w.model(), w.directgraph(), w.seed())
                    .record_cascade(&mut scratch, w.batches());
            let record_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let replayed = Engine::new(Platform::Bg2, ssd, w.model(), w.directgraph(), w.seed())
                .replay_with(&mut scratch, &recording, w.batches());
            let replay_s = t.elapsed().as_secs_f64();
            assert_eq!(
                registry_digest(&recorded),
                registry_digest(&replayed),
                "replay must reproduce the recorded run"
            );
            (record_s - replay_s) * 1e9 / recorded.sampler_executed.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Host ns per calendar operation for a schedule+pop mix holding `wheel`
/// events in the near wheel and `far` events in the far tier (the
/// populations a workload's cells reached); the median of three runs.
pub fn calendar_ns_per_op(wheel: u64, far: u64) -> f64 {
    const OPS: u64 = 1_000_000;
    const NEAR_NS: u64 = 8_000;
    const FAR_NS: u64 = 1_000_000_000_000;
    let mut rng = SplitMix64::new(0x5EED);
    let mut cal: Calendar<u64> = Calendar::new();
    for e in 0..wheel.max(1) {
        cal.schedule(SimTime::from_ns(1 + rng.next_u64() % NEAR_NS), e);
    }
    for e in 0..far {
        cal.schedule(SimTime::from_ns(FAR_NS + rng.next_u64() % NEAR_NS), e);
    }
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..OPS {
                let (at, e) = cal.pop().expect("the population is held constant");
                let delta = Duration::from_ns(1 + rng.next_u64() % NEAR_NS);
                cal.schedule(at + delta, std::hint::black_box(e));
            }
            t.elapsed().as_nanos() as f64 / (2 * OPS) as f64
        })
        .collect();
    median(&samples)
}

/// BG-2 over CC simulated throughput on `platforms`, geometric mean
/// over datasets (the paper reports 21.7×). Information only.
pub fn bg2_over_cc_geomean(plan: &Plan, rep: &Rep) -> Option<f64> {
    if plan.kind != Kind::Platforms {
        return None;
    }
    let find = |w: usize, p: Platform| {
        plan.cells
            .iter()
            .position(|c| c.workload == w && c.platform == p)
            .map(|i| rep.cells[i].throughput)
    };
    let logs: Vec<f64> = (0..plan.workloads())
        .filter_map(|w| Some((find(w, Platform::Bg2)? / find(w, Platform::Cc)?).ln()))
        .collect();
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}
