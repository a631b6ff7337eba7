//! The deterministic ledger: two runs with the same seed report the same
//! quality and count metrics, and `hier-partition` reports the same at 1
//! block worker as at 2.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a few minutes on a 2-core host; debug builds are far slower).

use perfbench::designs::Workload;
use perfbench::run::{run, Config, Report, HIER_WORKERS};

/// End-to-end metrics that must repeat exactly.
const QUALITY: [&str; 3] = ["phi_sum", "luts", "ffs"];

/// Per-layer counts that must repeat exactly.
const COUNTS: [&str; 13] = [
    "turbomap.expand_nodes",
    "turbomap.probes",
    "turbomap.sweeps",
    "turbomap.requeued_gates",
    "turbomap.cut_queries",
    "turbomap.cut_found_ratio",
    "graphalgo.maxflow_runs",
    "graphalgo.augmentations",
    "retiming.forward_moves",
    "partition.cut_ffs",
    "report.certificates_verified",
    "report.certificates_unavailable",
    "failed_frac",
];

/// One round only: the smallest budget still runs one pass (one pair
/// when traced).
fn once(workload: Workload, seed: u64, trace: bool, hier_workers: usize) -> Report {
    let report = run(&Config {
        workload,
        seed,
        seconds: 0.001,
        trace,
        hier_workers,
    });
    assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.failures);
    assert!(report.attempted > 0);
    report
}

fn ledger(report: &Report, names: &[&str]) -> Vec<(String, f64)> {
    names
        .iter()
        .map(|&n| {
            let v = report
                .metric(n)
                .unwrap_or_else(|| panic!("metric {n} missing"));
            (n.to_string(), v)
        })
        .collect()
}

fn assert_repeats(workload: Workload, workers: [usize; 2]) {
    let [a, b] = workers.map(|w| once(workload, 7, false, w));
    assert_eq!(ledger(&a, &QUALITY), ledger(&b, &QUALITY), "{workload:?}");
    let [a, b] = workers.map(|w| once(workload, 7, true, w));
    assert_eq!(ledger(&a, &COUNTS), ledger(&b, &COUNTS), "{workload:?}");
}

#[test]
fn iscas_frt_repeats() {
    assert_repeats(Workload::IscasFrt, [HIER_WORKERS; 2]);
}

#[test]
fn fsm_table1_repeats() {
    assert_repeats(Workload::FsmTable1, [HIER_WORKERS; 2]);
}

#[test]
fn hier_partition_repeats_across_worker_counts() {
    assert_repeats(Workload::HierPartition, [1, HIER_WORKERS]);
}
