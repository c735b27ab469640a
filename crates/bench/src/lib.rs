//! # factorhd-bench — the experiment harness
//!
//! Shared infrastructure for regenerating every table and figure of the
//! FactorHD paper: trial runners for each method (FactorHD Rep 1–3, the
//! resonator network, the IMC factorizer, the C-I model), wall-clock and
//! operation accounting, a TH-sweep driver, and plain-text table/CSV
//! output. The `src/bin/*` binaries print the paper's series and time
//! the throughput workloads.
//!
//! Trials run data-parallel with `rayon`, standing in for the paper's
//! batched GPU execution (DESIGN.md, substitution table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_bench;
pub mod gate;
pub mod json;
pub mod kernel_bench;
pub mod learn_bench;
pub mod packed_bench;
pub mod runner;
pub mod serving_bench;
pub mod table;

pub use engine_bench::{
    collect_metrics_report, engine_throughput_json, engine_throughput_points,
    engine_throughput_table, measure_batch, metrics_snapshot_json, thread_grid,
    verify_artifact_round_trip, MetricsReport, ThroughputPoint,
};
pub use gate::{
    gate_documents, gate_texts, GateOutcome, CLIFF_MARGIN, DEFAULT_GATE_MARGIN, SERVING_FLOOR,
};
pub use json::JsonValue;
pub use kernel_bench::{
    kernel_bench_json, kernel_bench_table, kernel_points, measure_kernel,
    verify_kernel_equivalence, KernelPoint,
};
pub use learn_bench::{
    learn_json, learn_points, learn_table, EpochPoint, LearnPoint, LearnReport, DIM_GRID,
    LEARN_CLASSES,
};
pub use packed_bench::{
    measure_scan, packed_scan_json, packed_scan_points, packed_scan_table,
    verify_packed_equivalence, ScanPoint,
};
pub use runner::{
    run_ci_model, run_factorhd_rep1, run_factorhd_rep23, run_imc, run_resonator, th_sweep,
    MethodResult, Rep23Setting, SweepPoint,
};
pub use serving_bench::{
    overload_table, serving_json, serving_points, serving_table, OverloadPoint, ServingPoint,
    ServingReport, CLIENT_GRID, PIPELINE_GRID,
};
pub use table::Table;

/// Returns `true` when the binary was invoked with `--quick` (reduced trial
/// counts for smoke runs) and the trial count to use.
pub fn parse_quick(default_trials: usize, quick_trials: usize) -> (bool, usize) {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        (true, quick_trials)
    } else {
        (false, default_trials)
    }
}
