//! `simbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints its record; the last stdout
//! line is the JSON result. `--workload all` runs every workload, each
//! in a process of its own, one after another. Exits 2 on a bad command
//! line or when the environment or build would change what is measured.

use std::process::{Command, ExitCode};

use simbench::workloads::Kind;
use simbench::{host, Args, ScratchDir, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.windows(2).position(|w| w == ["--workload", "all"]) {
        return run_all(&argv, i + 1);
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let conflicts = host::measurement_conflicts();
    if !conflicts.is_empty() {
        for c in conflicts {
            eprintln!("simbench: refusing to measure: {c}");
        }
        return ExitCode::from(2);
    }
    // One thread throughout: workload builds would otherwise fan out
    // over every core.
    simkit::par::set_build_threads(1);
    let scratch = match ScratchDir::create(&simbench::scratch_base()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simbench: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    match simbench::run(&args, scratch.path()) {
        Ok(record) => {
            for line in &record.lines {
                println!("{line}");
            }
            println!("{}", record.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Re-runs this binary once per workload (argument `name_at` replaced),
/// waiting for each; fails if any run fails.
fn run_all(argv: &[String], name_at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("simbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let with = |kind: Kind| {
        let mut args = argv.to_vec();
        args[name_at] = kind.name().to_string();
        args
    };
    if let Err(e) = Args::parse(with(Kind::Sweep)) {
        eprintln!("simbench: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for kind in Kind::ALL {
        match Command::new(&exe).args(with(kind)).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("simbench: workload {} exited with {status}", kind.name());
                failed = true;
            }
            Err(e) => {
                eprintln!("simbench: cannot run workload {}: {e}", kind.name());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
