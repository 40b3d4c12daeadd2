//! Host fingerprint, environment guard and memory high-water mark.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Environment variables that change what the benchmark measures.
pub const GUARDED_ENV: [&str; 3] = ["BEACON_REPLAY", "BEACON_PROFILE", "BEACON_BUILD_THREADS"];

/// What the record says about the machine and build it was made on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Online CPUs as `nproc` reports them.
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `nproc` × (time of one spinner alone) / (time of `nproc`
    /// spinners together): how many cores of throughput the host gives.
    pub effective_parallelism: f64,
    /// CPU model name.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub commit: String,
}

impl Host {
    /// Probes the host. Takes a fraction of a second (the spin probe).
    pub fn probe() -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let nproc = command_line("nproc", &[])
            .and_then(|s| s.parse().ok())
            .unwrap_or(available_parallelism);
        Host {
            nproc,
            available_parallelism,
            effective_parallelism: effective_parallelism(nproc),
            cpu_model: cpu_model(),
            rustc: env!("SIMBENCH_RUSTC_VERSION").to_string(),
            commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"effective_parallelism\": {:.3}, \
             \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            self.available_parallelism,
            self.effective_parallelism,
            simkit::obs::json_string(&self.cpu_model),
            simkit::obs::json_string(&self.rustc),
            simkit::obs::json_string(&self.commit),
        )
    }
}

/// Runs `program args`, returning its trimmed stdout on success. The
/// child is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed amount of integer work that the optimizer cannot delete.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Equal work on one thread, then on `threads` threads at once.
fn effective_parallelism(threads: usize) -> f64 {
    const ITERS: u64 = 40_000_000;
    let t = Instant::now();
    spin(ITERS);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(ITERS));
        }
    });
    let all = t.elapsed().as_secs_f64();
    threads as f64 * one / all.max(f64::MIN_POSITIVE)
}

/// Everything in the environment or build that would change what is
/// measured: set guard variables, and the `simkit/profile` feature.
pub fn measurement_conflicts() -> Vec<String> {
    let mut found: Vec<String> = GUARDED_ENV
        .iter()
        .filter(|v| std::env::var_os(v).is_some())
        .map(|v| format!("environment variable {v} is set"))
        .collect();
    if profile_compiled_in() {
        found.push("the build has the simkit/profile feature".to_string());
    }
    found
}

/// Whether simkit's profiling timers are compiled in: only then can
/// the runtime switch turn them on.
fn profile_compiled_in() -> bool {
    let was = simkit::profile::is_enabled();
    simkit::profile::set_enabled(true);
    let compiled = simkit::profile::is_enabled();
    simkit::profile::set_enabled(was);
    compiled
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn max_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
