//! §VIII extensions in action: real-time GNN query latency and the
//! simulated device-lane array's scale-out efficiency.
//!
//! ```sh
//! cargo run --release --example scaleout_query
//! ```
//!
//! The full scale-out figure (1–16 devices × partition strategies ×
//! fabrics) lives in the harness: `cargo run --release -p beacon-bench
//! --bin experiments scaleout`.

use beacongnn::platforms::measure_query_latency;
use beacongnn::report::{percent, Table};
use beacongnn::{
    ArrayConfig, Dataset, Experiment, NodeId, Partition, Platform, SsdConfig, Workload,
    WorkloadError,
};

fn main() -> Result<(), WorkloadError> {
    let workload = Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(10_000)
        .batch_size(64)
        .batches(2)
        .seed(5)
        .prepare()?;

    // --- GNN queries: single-target inference latency. ---
    println!("Single-target GNN query latency (device idle, no pipelining):\n");
    let queries: Vec<Vec<NodeId>> = (0..5).map(|i| vec![NodeId::new(i * 17)]).collect();
    let mut t = Table::new(&["platform", "mean", "max"]);
    for p in [Platform::Cc, Platform::Bg1, Platform::Bg2] {
        let lat = measure_query_latency(
            p,
            SsdConfig::paper_default(),
            workload.model(),
            workload.directgraph(),
            &queries,
            9,
        );
        t.row_owned(vec![
            p.to_string(),
            format!("{}", lat.mean),
            format!("{}", lat.max),
        ]);
    }
    println!("{}", t.render());

    // --- Storage array: simulated device lanes. ---
    // The array replays one recorded sampling cascade through
    // per-device lanes and an explicit fabric, so the efficiency below
    // includes queueing on the fabric links.
    println!("\nBG-2 array scale-out, simulated (PCIe P2P, hash partition):\n");
    let exp = Experiment::new(&workload);
    let cascade = exp
        .array_engine(Platform::Bg2, ArrayConfig::pcie_p2p(1))
        .record(workload.batches());
    let mut t = Table::new(&["SSDs", "efficiency", "cross-device traffic"]);
    for n in [1usize, 2, 4, 8] {
        let part = Partition::hash(workload.graph(), n as u32);
        let simulated = exp
            .array_engine(Platform::Bg2, ArrayConfig::pcie_p2p(n))
            .run_recorded(&cascade, &part);
        t.row_owned(vec![
            n.to_string(),
            percent(simulated.efficiency()),
            format!("{:.2} MB", simulated.fabric_bytes() as f64 / 1e6),
        ]);
    }
    println!("{}", t.render());
    println!("See `experiments scaleout` for the partition-strategy and fabric sweeps.");
    Ok(())
}
