//! Every workload at reduced scale, untraced and traced: no cell fails,
//! and each run emits exactly the metrics `BENCHMARK.json` declares,
//! with their units.

use simbench::stats::tail_percentile;
use simbench::workloads::{Kind, Plan, Scale, SEED};
use simbench::{Args, Record, ScratchDir, END_TO_END, MIN_TAIL_CELLS, PER_LAYER, TAIL_PERCENTILE};

const DECLARED: &str = include_str!("../../BENCHMARK.json");

fn quick(kind: Kind, trace: bool) -> Record {
    let args = Args {
        kind,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::QUICK,
        spans: None,
    };
    let dir = ScratchDir::create(&simbench::scratch_base()).expect("scratch directory");
    simbench::run(&args, dir.path()).expect("quick run")
}

fn assert_emits(kind: Kind, trace: bool, table: &[(&str, &str)]) {
    let record = quick(kind, trace);
    assert!(record.attempted > 0);
    assert_eq!(record.failed, 0, "{}: {:#?}", kind.name(), record.lines);
    let emitted: Vec<(&str, &str)> = record.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(emitted, table);
    for m in &record.metrics {
        assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
    }
    let json = record.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for (name, unit) in table {
        let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            DECLARED.contains(&declared),
            "BENCHMARK.json lacks {declared}"
        );
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{json}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for kind in Kind::ALL {
        assert_emits(kind, false, &END_TO_END);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for kind in Kind::ALL {
        assert_emits(kind, true, &PER_LAYER);
    }
}

#[test]
fn the_tail_percentile_leaves_ten_cells_on_the_smallest_workload() {
    let smallest = Kind::ALL
        .into_iter()
        .map(|k| Plan::new(k, Scale::FULL, SEED).cells.len())
        .min()
        .expect("four workloads");
    assert_eq!(smallest, 40);
    assert_eq!(
        tail_percentile(smallest, MIN_TAIL_CELLS),
        Some(TAIL_PERCENTILE)
    );
}

#[test]
fn benchmark_json_declares_nothing_else() {
    let declared = DECLARED.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn bad_command_lines_are_refused() {
    let parse = |a: &[&str]| Args::parse(a.iter().map(|s| s.to_string()));
    assert!(parse(&[]).is_err());
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "sweep", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "sweep", "--seconds", "-1"]).is_err());
    assert!(parse(&["--workload", "sweep", "--bogus", "1"]).is_err());
    let ok = parse(&[
        "--workload",
        "observed",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid");
    assert_eq!(
        (ok.kind, ok.seed, ok.seconds, ok.trace),
        (Kind::Observed, 9, 3.0, true)
    );
}
