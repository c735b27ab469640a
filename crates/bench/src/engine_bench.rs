//! Serving-engine throughput: a **threads × batch scaling grid** of
//! batched warm-cache execution vs the naive per-request rebuild the
//! engine replaces.
//!
//! Three modes run the *same* deterministic typed-op stream:
//!
//! * **naive/s** — the pre-engine calling pattern: every op rebuilds
//!   the taxonomy (labels and codebooks re-derived from the seed)
//!   and a fresh model state (label-elimination masks re-bound), then
//!   runs sequentially.
//! * **cold/s** — a freshly constructed [`FactorEngine`] planning the
//!   batch once (masks pre-built; codebook and reconstruction caches
//!   filling as it goes).
//! * **warm/s** — the same engine planning the batch again with every
//!   cache hot.
//!
//! The sweep measures every batch size of [`BATCH_SIZES`] at every pool
//! size of [`thread_grid`] (resizing the worker pool through
//! `rayon::configure_pool`, the in-process equivalent of re-running under
//! different `RAYON_NUM_THREADS`). At **every** grid point the planned
//! batch is asserted bit-identical to a sequential loop over the same
//! ops, and the naive baseline — which has no batch or thread dimension —
//! is measured once per batch size on a single-lane pool.
//!
//! Timing is **best-of-reps** (the minimum wall-clock across
//! repetitions): throughput noise is one-sided — a run can only be slowed
//! down by interference, never sped up — so the minimum is the stablest
//! estimator of the machine's actual capability, which matters for the
//! regression gate (`crate::gate`, run by the `bench_gate` bin) that
//! diffs the emitted document against a committed baseline.
//!
//! The table reports requests per second, the warm÷naive speedup, and
//! warm efficiency vs linear scaling (warm ÷ (threads × single-lane
//! warm)); [`engine_throughput_json`] renders the same points — plus the
//! engine telemetry snapshot and the measured metrics overhead
//! ([`collect_metrics_report`]) — as the machine-readable
//! `BENCH_engine.json` (schema v3, documented in docs/SERVING.md).

use crate::json::JsonValue;
use crate::Table;
use factorhd_core::{Encoder, FactorizeConfig, Scene, Taxonomy, TaxonomyBuilder, ThresholdPolicy};
use factorhd_engine::metrics::{self, HistogramSnapshot, MetricsSnapshot};
use factorhd_engine::{
    AnyOp, AnyOutput, EncodeScene, EngineConfig, FactorEngine, FactorizeRep2, FactorizeRep3,
    MembershipProbe, PartialDecode,
};
use hdc::derive_seed;
use std::time::Instant;

const DIM: usize = 2048;
const MODEL_SEED: u64 = 0x5E21_D0DE;
const WORKLOAD_SEED: u64 = 0xBA7C_4ED5;
/// Distinct objects in the simulated catalog; requests draw from this
/// pool the way production traffic revisits a finite item population.
const CATALOG: usize = 32;
/// The batch sizes the sweep measures.
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

/// The pool sizes the scaling grid sweeps: 1, 2, 4, and every available
/// core (deduplicated — on a machine with ≤ 4 cores the grid just stops
/// at the core count, plus the oversubscribed rows 2/4 which measure
/// timesharing honestly rather than being skipped).
pub fn thread_grid() -> Vec<usize> {
    let mut grid = vec![1, 2, 4, rayon::env_num_threads()];
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// The benchmark's model: one hierarchical class plus two flat ones.
pub fn bench_taxonomy() -> Taxonomy {
    TaxonomyBuilder::new(DIM)
        .seed(MODEL_SEED)
        .class("animal", &[16, 8])
        .class("color", &[16])
        .class("size", &[16])
        .build()
        .expect("valid taxonomy")
}

fn bench_factorize_config() -> FactorizeConfig {
    FactorizeConfig {
        threshold: ThresholdPolicy::Analytic { n_objects: 2 },
        ..FactorizeConfig::default()
    }
}

/// The benchmark's engine configuration.
pub fn bench_engine_config() -> EngineConfig {
    EngineConfig {
        factorize: bench_factorize_config(),
        ..EngineConfig::default()
    }
}

/// Builds the deterministic mixed typed-op stream for one batch size:
/// single-object factorizations (the bulk), multi-object Rep-3 scenes,
/// partial factorizations, membership probes, and scene encodes.
pub fn build_ops(taxonomy: &Taxonomy, batch: usize) -> Vec<AnyOp> {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(derive_seed(&[WORKLOAD_SEED, 1]));
    let catalog: Vec<_> = (0..CATALOG)
        .map(|_| taxonomy.sample_object(&mut rng))
        .collect();
    let mut rng = hdc::rng_from_seed(derive_seed(&[WORKLOAD_SEED, batch as u64]));
    (0..batch)
        .map(|i| {
            let object = catalog[(i * 7 + i / 3) % CATALOG].clone();
            match i % 8 {
                0 => {
                    let other = catalog[(i * 5 + 1) % CATALOG].clone();
                    let scene = Scene::new(vec![object, other]);
                    AnyOp::Rep3(FactorizeRep3 {
                        scene: encoder.encode_scene(&scene).expect("encodable"),
                    })
                }
                5 => AnyOp::Partial(PartialDecode {
                    scene: encoder
                        .encode_scene(&Scene::single(object))
                        .expect("encodable"),
                    classes: vec![1],
                }),
                6 => AnyOp::Membership(MembershipProbe {
                    scene: encoder
                        .encode_scene(&Scene::single(object.clone()))
                        .expect("encodable"),
                    items: vec![(1, object.assignment(1).expect("present").clone())],
                    absent: vec![],
                }),
                7 => {
                    let fresh = taxonomy.sample_object(&mut rng);
                    AnyOp::Encode(EncodeScene {
                        scene: Scene::new(vec![object, fresh]),
                    })
                }
                _ => AnyOp::Rep2(FactorizeRep2 {
                    scene: encoder
                        .encode_scene(&Scene::single(object))
                        .expect("encodable"),
                }),
            }
        })
        .collect()
}

/// Executes one op the pre-engine way: rebuild the taxonomy (labels,
/// codebooks, clauses all re-derived) and the label-elimination masks
/// from scratch, then serve the single op and throw everything away.
/// A throwaway one-op engine *is* that calling pattern — and routing
/// through [`FactorEngine::run`] keeps the dispatch semantics defined in
/// exactly one place.
fn execute_naive(op: &AnyOp) -> AnyOutput {
    FactorEngine::new(bench_taxonomy(), bench_engine_config())
        .expect("valid config")
        .run(op)
        .expect("op succeeds")
}

fn unwrap_all(results: Vec<Result<AnyOutput, factorhd_engine::EngineError>>) -> Vec<AnyOutput> {
    results
        .into_iter()
        .map(|r| r.expect("op succeeds"))
        .collect()
}

/// One measured grid point of the throughput sweep.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Requests per batch.
    pub batch: usize,
    /// Worker-pool compute lanes this row ran on.
    pub threads: usize,
    /// Naive sequential cold-path requests/second (thread-independent;
    /// measured once per batch size on a single-lane pool).
    pub naive_per_sec: f64,
    /// Cold-engine batched requests/second (construction + first batch).
    pub cold_per_sec: f64,
    /// Warm-engine batched requests/second.
    pub warm_per_sec: f64,
    /// Warm throughput ÷ (threads × single-lane warm throughput at the
    /// same batch): 1.0 is perfect linear scaling, 1/threads is no
    /// scaling at all (e.g. more lanes than cores).
    pub efficiency_vs_linear: f64,
}

impl ThroughputPoint {
    /// Warm-cache speedup over the naive baseline.
    pub fn speedup(&self) -> f64 {
        self.warm_per_sec / self.naive_per_sec
    }
}

/// Times `run` `reps` times and returns the best (minimum) wall-clock in
/// seconds — the stablest throughput estimator, since interference only
/// ever slows a run down.
fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn per_sec(requests: usize, secs: f64) -> f64 {
    requests as f64 / secs.max(f64::MIN_POSITIVE)
}

/// Measures the naive rebuild-per-request baseline for `ops`, returning
/// its outputs (the bit-identity reference) and requests/second.
fn measure_naive(ops: &[AnyOp], reps: usize) -> (Vec<AnyOutput>, f64) {
    let outputs: Vec<AnyOutput> = ops.iter().map(execute_naive).collect();
    let secs = best_of(reps, || {
        for op in ops {
            std::hint::black_box(execute_naive(op));
        }
    });
    (outputs, per_sec(ops.len(), secs))
}

/// Measures planned batch execution of `ops` on the current worker pool:
/// asserts the planned outputs bit-identical to a sequential loop (fresh
/// engines, no shared caches), then times the cold path (construction +
/// first batch) and the warm path (every cache hot). Returns the planned
/// outputs and (cold, warm) requests/second.
fn measure_engine(ops: &[AnyOp], reps: usize) -> (Vec<AnyOutput>, f64, f64) {
    let engine = FactorEngine::new(bench_taxonomy(), bench_engine_config()).expect("valid config");
    let planned = unwrap_all(engine.run_mixed(ops));
    let sequential = unwrap_all(
        FactorEngine::new(bench_taxonomy(), bench_engine_config())
            .expect("valid config")
            .run_mixed_sequential(ops),
    );
    assert_eq!(
        planned, sequential,
        "planned batch must be bit-identical to the sequential loop"
    );

    let cold_secs = best_of(reps, || {
        let fresh =
            FactorEngine::new(bench_taxonomy(), bench_engine_config()).expect("valid config");
        std::hint::black_box(fresh.run_mixed(ops));
    });

    // `engine` already served one batch above: every cache is hot.
    let warm_reference = unwrap_all(engine.run_mixed(ops));
    assert_eq!(planned, warm_reference, "warm cache changed results");
    let warm_secs = best_of(reps, || {
        std::hint::black_box(engine.run_mixed(ops));
    });

    (
        planned,
        per_sec(ops.len(), cold_secs),
        per_sec(ops.len(), warm_secs),
    )
}

/// Measures one batch size on the **current** worker pool, verifying that
/// naive, cold-planned, warm-planned, and sequential execution all return
/// bit-identical outputs before timing them. When the pool has more than
/// one lane, the single-lane warm reference (for the efficiency column)
/// is measured by temporarily shrinking the pool, which is restored
/// before returning.
pub fn measure_batch(batch: usize, reps: usize) -> ThroughputPoint {
    let taxonomy = bench_taxonomy();
    let ops = build_ops(&taxonomy, batch);
    let threads = rayon::current_num_threads();

    let (naive, naive_per_sec) = measure_naive(&ops, reps);
    let (planned, cold_per_sec, warm_per_sec) = measure_engine(&ops, reps);
    assert_eq!(naive, planned, "engine must be bit-identical to naive path");

    let warm_single = if threads == 1 {
        warm_per_sec
    } else {
        rayon::configure_pool(1);
        let (_, _, warm_single) = measure_engine(&ops, reps);
        rayon::configure_pool(threads);
        warm_single
    };
    ThroughputPoint {
        batch,
        threads,
        naive_per_sec,
        cold_per_sec,
        warm_per_sec,
        efficiency_vs_linear: warm_per_sec / (threads as f64 * warm_single),
    }
}

/// Runs the full [`thread_grid`] × [`BATCH_SIZES`] sweep. `quick` runs
/// three repetitions per point instead of five — still best-of, because
/// a single repetition is noisy enough on a shared container to trip the
/// regression gate spuriously. Every grid point's planned outputs
/// are asserted bit-identical to sequential execution; the pool is
/// restored to its entry size before returning.
pub fn engine_throughput_points(quick: bool) -> Vec<ThroughputPoint> {
    let reps = if quick { 3 } else { 5 };
    let initial = rayon::current_num_threads();
    let taxonomy = bench_taxonomy();
    let mut points = Vec::new();
    for &batch in &BATCH_SIZES {
        let ops = build_ops(&taxonomy, batch);
        // The naive baseline has no batch planner and no parallelism:
        // measure it once per batch size on a single-lane pool.
        rayon::configure_pool(1);
        let (naive, naive_per_sec) = measure_naive(&ops, reps);
        let mut warm_single = f64::NAN;
        for &threads in &thread_grid() {
            rayon::configure_pool(threads);
            let (planned, cold_per_sec, warm_per_sec) = measure_engine(&ops, reps);
            assert_eq!(
                naive, planned,
                "grid point (threads {threads}, batch {batch}) diverged from the naive path"
            );
            if threads == 1 {
                warm_single = warm_per_sec;
            }
            points.push(ThroughputPoint {
                batch,
                threads,
                naive_per_sec,
                cold_per_sec,
                warm_per_sec,
                efficiency_vs_linear: warm_per_sec / (threads as f64 * warm_single),
            });
        }
    }
    rayon::configure_pool(initial);
    points
}

/// The telemetry section of the `BENCH_engine.json` document: a
/// [`MetricsSnapshot`] taken after the measured warm batch-64 runs, plus
/// the warm batch-64 throughput with recording on vs off — the measured
/// cost of the telemetry layer, gated at ≤ 2% (docs/OBSERVABILITY.md).
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// The engine telemetry tables after the recording-on measurement.
    pub snapshot: MetricsSnapshot,
    /// Warm batch-64 requests/second with recording enabled.
    pub warm_on_per_sec: f64,
    /// Warm batch-64 requests/second with recording disabled (under the
    /// `metrics-off` feature the switch is inert, so on ≈ off).
    pub warm_off_per_sec: f64,
}

impl MetricsReport {
    /// Fraction of warm throughput the telemetry layer costs:
    /// `1 − on/off`. Slightly negative values are measurement noise.
    pub fn overhead_fraction(&self) -> f64 {
        1.0 - self.warm_on_per_sec / self.warm_off_per_sec
    }
}

/// Measures the telemetry layer on the warm batch-64 workload: resets
/// the global tables, times the warm path best-of-reps with recording
/// on (snapshotting the tables it filled), then times the same path
/// with recording off, restoring the recording switch before returning.
pub fn collect_metrics_report(quick: bool) -> MetricsReport {
    let reps = if quick { 3 } else { 5 };
    let taxonomy = bench_taxonomy();
    let ops = build_ops(&taxonomy, 64);
    let engine = FactorEngine::new(bench_taxonomy(), bench_engine_config()).expect("valid config");
    // Two passes leave every cache hot before anything is timed.
    unwrap_all(engine.run_mixed(&ops));
    unwrap_all(engine.run_mixed(&ops));

    let was_recording = metrics::metrics_recording();
    metrics::set_metrics_recording(true);
    metrics::reset();
    let on_secs = best_of(reps, || {
        std::hint::black_box(engine.run_mixed(&ops));
    });
    let snapshot = metrics::snapshot();
    metrics::set_metrics_recording(false);
    let off_secs = best_of(reps, || {
        std::hint::black_box(engine.run_mixed(&ops));
    });
    metrics::set_metrics_recording(was_recording);
    MetricsReport {
        snapshot,
        warm_on_per_sec: per_sec(ops.len(), on_secs),
        warm_off_per_sec: per_sec(ops.len(), off_secs),
    }
}

/// Renders the sweep as the human-readable table.
pub fn engine_throughput_table(points: &[ThroughputPoint]) -> Table {
    let mut table = Table::new(
        "engine_throughput: requests/sec over the threads × batch grid (rebuild-per-request naive baseline; eff = warm ÷ threads·single-lane warm)",
        &["batch", "threads", "naive/s", "cold/s", "warm/s", "warm÷naive", "eff"],
    );
    for point in points {
        table.row(&[
            point.batch.to_string(),
            point.threads.to_string(),
            format!("{:.0}", point.naive_per_sec),
            format!("{:.0}", point.cold_per_sec),
            format!("{:.0}", point.warm_per_sec),
            format!("{:.2}x", point.speedup()),
            format!("{:.2}", point.efficiency_vs_linear),
        ]);
    }
    table
}

/// Histogram buckets with the all-zero tail trimmed — the documents
/// stay compact while bucket indices keep their meaning (index = bit
/// width of the recorded value).
fn buckets_json(buckets: &[u64]) -> JsonValue {
    let used = buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    JsonValue::Arr(
        buckets[..used]
            .iter()
            .map(|&c| JsonValue::Uint(c))
            .collect(),
    )
}

fn histogram_json(histogram: &HistogramSnapshot) -> JsonValue {
    JsonValue::obj(vec![
        ("count", JsonValue::Uint(histogram.count)),
        ("p50", JsonValue::Uint(histogram.p50)),
        ("p95", JsonValue::Uint(histogram.p95)),
        ("p99", JsonValue::Uint(histogram.p99)),
        ("buckets", buckets_json(&histogram.buckets)),
    ])
}

/// Renders a [`MetricsSnapshot`] as the `metrics` object of the
/// `BENCH_engine.json` v3 document (schema in docs/OBSERVABILITY.md).
pub fn metrics_snapshot_json(snapshot: &MetricsSnapshot) -> JsonValue {
    JsonValue::obj(vec![
        ("recording", JsonValue::Bool(snapshot.recording)),
        ("compiled_out", JsonValue::Bool(snapshot.compiled_out)),
        (
            "ops",
            JsonValue::Arr(
                snapshot
                    .ops
                    .iter()
                    .map(|op| {
                        JsonValue::obj(vec![
                            ("kind", JsonValue::Str(op.kind.name().into())),
                            ("submitted", JsonValue::Uint(op.submitted)),
                            ("completed", JsonValue::Uint(op.completed)),
                            ("failed", JsonValue::Uint(op.failed)),
                            ("p50_ns", JsonValue::Uint(op.latency_ns.p50)),
                            ("p95_ns", JsonValue::Uint(op.latency_ns.p95)),
                            ("p99_ns", JsonValue::Uint(op.latency_ns.p99)),
                            ("latency_count", JsonValue::Uint(op.latency_ns.count)),
                            ("latency_buckets", buckets_json(&op.latency_ns.buckets)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("batch_sizes", histogram_json(&snapshot.batch_sizes)),
        ("chunk_sizes", histogram_json(&snapshot.chunk_sizes)),
        (
            "stages",
            JsonValue::Arr(
                snapshot
                    .stages
                    .iter()
                    .map(|stage| {
                        JsonValue::obj(vec![
                            ("stage", JsonValue::Str(stage.stage.name().into())),
                            ("count", JsonValue::Uint(stage.count)),
                            ("total_nanos", JsonValue::Uint(stage.nanos)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "models",
            JsonValue::Arr(
                snapshot
                    .models
                    .iter()
                    .map(|model| {
                        JsonValue::obj(vec![
                            ("generation", JsonValue::Uint(model.generation)),
                            ("ops", JsonValue::Uint(model.ops)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("model_overflow", JsonValue::Uint(snapshot.model_overflow)),
    ])
}

/// Renders the sweep as the `BENCH_engine.json` document (schema v3,
/// documented in docs/SERVING.md and docs/OBSERVABILITY.md). Every
/// point records the scan kernel the engine's codebook scans dispatched
/// to, the document carries the CPU features the dispatcher saw, and
/// the `metrics` / `metrics_overhead` sections carry the telemetry
/// snapshot and its measured cost ([`collect_metrics_report`]).
pub fn engine_throughput_json(
    points: &[ThroughputPoint],
    quick: bool,
    metrics_report: &MetricsReport,
) -> String {
    let kernel = hdc::kernels::selected_kernel().name();
    let available_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    JsonValue::obj(vec![
        ("bench", JsonValue::Str("engine_throughput".into())),
        ("schema_version", JsonValue::Uint(3)),
        ("quick", JsonValue::Bool(quick)),
        ("unit", JsonValue::Str("requests_per_second".into())),
        ("cpu_features", JsonValue::Str(hdc::kernels::cpu_features())),
        ("available_cores", JsonValue::Uint(available_cores as u64)),
        (
            "points",
            JsonValue::Arr(
                points
                    .iter()
                    .map(|p| {
                        JsonValue::obj(vec![
                            ("batch", JsonValue::Uint(p.batch as u64)),
                            ("threads", JsonValue::Uint(p.threads as u64)),
                            ("kernel", JsonValue::Str(kernel.into())),
                            ("naive_per_sec", JsonValue::Num(p.naive_per_sec)),
                            ("cold_per_sec", JsonValue::Num(p.cold_per_sec)),
                            ("warm_per_sec", JsonValue::Num(p.warm_per_sec)),
                            ("warm_over_naive", JsonValue::Num(p.speedup())),
                            (
                                "efficiency_vs_linear",
                                JsonValue::Num(p.efficiency_vs_linear),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_snapshot_json(&metrics_report.snapshot)),
        (
            "metrics_overhead",
            JsonValue::obj(vec![
                (
                    "warm_on_per_sec",
                    JsonValue::Num(metrics_report.warm_on_per_sec),
                ),
                (
                    "warm_off_per_sec",
                    JsonValue::Num(metrics_report.warm_off_per_sec),
                ),
                (
                    "overhead_fraction",
                    JsonValue::Num(metrics_report.overhead_fraction()),
                ),
            ]),
        ),
    ])
    .render()
}

/// Verifies the artifact acceptance criterion: save → load → factorize is
/// bit-identical to serving from the in-memory model. Returns the number
/// of compared outputs.
pub fn verify_artifact_round_trip() -> usize {
    let engine = FactorEngine::new(bench_taxonomy(), bench_engine_config()).expect("valid config");
    let ops = build_ops(engine.taxonomy(), 64);
    let mut bytes = Vec::new();
    engine.save_to(&mut bytes).expect("artifact serializes");
    let restored = FactorEngine::load_from(&mut &bytes[..], bench_engine_config())
        .expect("artifact deserializes");
    let original = unwrap_all(engine.run_mixed(&ops));
    let roundtripped = unwrap_all(restored.run_mixed(&ops));
    assert_eq!(
        original, roundtripped,
        "artifact round trip must serve bit-identically"
    );
    original.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let taxonomy = bench_taxonomy();
        assert_eq!(build_ops(&taxonomy, 16), build_ops(&taxonomy, 16));
    }

    #[test]
    fn small_batch_modes_agree_and_speed_up() {
        let point = measure_batch(8, 1);
        assert_eq!(point.batch, 8);
        assert!(point.threads >= 1);
        assert!(point.naive_per_sec > 0.0);
        assert!(point.warm_per_sec > 0.0);
        assert!(point.efficiency_vs_linear > 0.0);
    }

    #[test]
    fn thread_grid_is_sorted_deduped_and_starts_at_one() {
        let grid = thread_grid();
        assert_eq!(grid[0], 1, "single-lane reference row must come first");
        assert!(grid.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        assert!(grid.contains(&rayon::env_num_threads()));
    }

    #[test]
    fn artifact_round_trip_is_bit_identical() {
        assert_eq!(verify_artifact_round_trip(), 64);
    }

    /// A deterministic synthetic report (the real one is measured, so
    /// its numbers cannot be asserted on).
    fn synthetic_metrics_report() -> MetricsReport {
        use factorhd_engine::metrics::{ModelMetrics, OpKindMetrics, Stage, StageTotal};
        use factorhd_engine::OpKind;
        let mut latency_buckets = vec![0u64; metrics::HISTOGRAM_BUCKETS];
        latency_buckets[11] = 90; // ~1–2 µs
        latency_buckets[14] = 10; // ~8–16 µs
        let histogram = |buckets: Vec<u64>| {
            let count = buckets.iter().sum();
            HistogramSnapshot {
                count,
                buckets,
                p50: 2047,
                p95: 16383,
                p99: 16383,
            }
        };
        MetricsReport {
            snapshot: MetricsSnapshot {
                recording: true,
                compiled_out: false,
                ops: vec![OpKindMetrics {
                    kind: OpKind::Rep2,
                    submitted: 100,
                    completed: 99,
                    failed: 1,
                    latency_ns: histogram(latency_buckets),
                }],
                batch_sizes: histogram(vec![0, 0, 0, 0, 0, 0, 0, 5]),
                chunk_sizes: histogram(vec![0, 0, 0, 0, 0, 20]),
                stages: vec![StageTotal {
                    stage: Stage::Scan,
                    count: 40,
                    nanos: 123456,
                }],
                models: vec![ModelMetrics {
                    generation: 0,
                    ops: 99,
                    train_ops: 0,
                    classify_ops: 0,
                }],
                model_overflow: 0,
                retrain_epochs: histogram(vec![0; 5]),
            },
            warm_on_per_sec: 980.0,
            warm_off_per_sec: 1000.0,
        }
    }

    #[test]
    fn json_document_has_the_documented_shape() {
        let points = [ThroughputPoint {
            batch: 64,
            threads: 2,
            naive_per_sec: 100.0,
            cold_per_sec: 200.0,
            warm_per_sec: 300.0,
            efficiency_vs_linear: 0.75,
        }];
        let doc = engine_throughput_json(&points, true, &synthetic_metrics_report());
        for needle in [
            r#""bench":"engine_throughput""#,
            r#""schema_version":3"#,
            r#""quick":true"#,
            r#""cpu_features":"#,
            r#""available_cores":"#,
            r#""batch":64"#,
            r#""threads":2"#,
            r#""kernel":"#,
            r#""warm_per_sec":300"#,
            r#""warm_over_naive":3"#,
            r#""efficiency_vs_linear":0.75"#,
            // The v3 telemetry sections.
            r#""metrics":{"recording":true,"compiled_out":false"#,
            r#""kind":"rep2","submitted":100,"completed":99,"failed":1"#,
            r#""p50_ns":2047,"p95_ns":16383,"p99_ns":16383,"latency_count":100"#,
            r#""batch_sizes":{"count":5"#,
            r#""chunk_sizes":{"count":20"#,
            r#""stages":[{"stage":"scan","count":40,"total_nanos":123456}]"#,
            r#""models":[{"generation":0,"ops":99}]"#,
            r#""model_overflow":0"#,
            r#""metrics_overhead":{"warm_on_per_sec":980,"warm_off_per_sec":1000,"overhead_fraction":"#,
        ] {
            assert!(doc.contains(needle), "{needle} missing from {doc}");
        }
        // The document round-trips through the parser the gate uses, and
        // the bucket tail is trimmed (bucket 14 is the last non-zero).
        let parsed = JsonValue::parse(&doc).expect("emitted document parses");
        let op = parsed
            .get("metrics")
            .unwrap()
            .get("ops")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .clone();
        assert_eq!(
            op.get("latency_buckets").unwrap().as_array().unwrap().len(),
            15
        );
    }

    #[test]
    fn metrics_report_measures_the_warm_batch64_workload() {
        let report = collect_metrics_report(true);
        assert!(report.warm_on_per_sec > 0.0);
        assert!(report.warm_off_per_sec > 0.0);
        if metrics::metrics_compiled_out() {
            assert!(report.snapshot.compiled_out);
            return;
        }
        // 3 best-of reps of a 64-op batch were recorded after the reset.
        // The tables are process-global and sibling tests run engines on
        // other threads concurrently, so assert lower bounds only.
        assert!(report.snapshot.batch_sizes.count >= 3);
        let submitted: u64 = report.snapshot.ops.iter().map(|op| op.submitted).sum();
        assert!(submitted >= 3 * 64, "submitted {submitted}");
        let scans = report
            .snapshot
            .stages
            .iter()
            .find(|s| s.stage == factorhd_engine::metrics::Stage::Scan)
            .expect("scan stage present");
        assert!(scans.count > 0, "warm batches must cross the scan stage");
    }
}
