//! Per-layer measurements shared by the workloads: engine telemetry
//! deltas, serve statistics, and timed replays through the public
//! functions of `serve::protocol`, `core`, and `hdc`. Replays run after
//! the measured phase, on inputs drawn like the workload's own.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use factorhd_core::{Encoder, Scene};
use factorhd_engine::{
    AnyOp, CacheStats, MetricsSnapshot, ModelId, ModelRegistry, ModelState, Stage,
};
use factorhd_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use factorhd_serve::{Request, Response, Server};
use hdc::AccumHv;
use rand::Rng;

use crate::common::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Engine telemetry at the start of a measured window.
pub struct EngineMark {
    snapshot: MetricsSnapshot,
    recon: CacheStats,
}

impl EngineMark {
    /// Marks the process-global engine tables and `state`'s
    /// reconstruction memo.
    pub fn take(registry: &ModelRegistry, state: &ModelState) -> Self {
        EngineMark {
            snapshot: registry.metrics_snapshot(),
            recon: state.reconstruction_stats(),
        }
    }

    /// Reports `engine.ops_failed`, `engine.stage.*_us_per_op` and
    /// `engine.recon_hit_ratio` over the window since the mark.
    pub fn report(&self, registry: &ModelRegistry, state: &ModelState, report: &mut Report) {
        let now = registry.metrics_snapshot();
        let sum = |s: &MetricsSnapshot, f: fn(&factorhd_engine::OpKindMetrics) -> u64| {
            s.ops.iter().map(f).sum::<u64>()
        };
        let completed = sum(&now, |m| m.completed) - sum(&self.snapshot, |m| m.completed);
        let failed = sum(&now, |m| m.failed) - sum(&self.snapshot, |m| m.failed);
        report.layer(
            "engine.ops_failed",
            failed as f64,
            format!("of {completed} completed"),
        );
        let stage_nanos = |s: &MetricsSnapshot, stage: Stage| {
            s.stages
                .iter()
                .find(|t| t.stage == stage)
                .map_or(0, |t| t.nanos)
        };
        for (stage, name) in [
            (Stage::Plan, "engine.stage.plan_us_per_op"),
            (Stage::Scan, "engine.stage.scan_us_per_op"),
            (Stage::Rerank, "engine.stage.rerank_us_per_op"),
            (Stage::Scatter, "engine.stage.scatter_us_per_op"),
        ] {
            let nanos = stage_nanos(&now, stage) - stage_nanos(&self.snapshot, stage);
            report.layer(
                name,
                nanos as f64 / 1e3 / completed.max(1) as f64,
                format!("self time over {completed} ops"),
            );
        }
        let recon = state.reconstruction_stats();
        let hits = recon.hits - self.recon.hits;
        let lookups = hits + recon.misses - self.recon.misses;
        report.layer(
            "engine.recon_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            format!("{hits} of {lookups} reconstruction lookups"),
        );
    }
}

/// Reports the `serve.*` statistics of a running server.
pub fn report_serve(server: &Server, report: &mut Report) {
    let s = server.stats();
    // Every request of a run is an op: those neither shed nor expired
    // went through the batcher.
    let batched = s.requests_received - s.requests_shed - s.deadline_expired;
    let batch_mean = batched as f64 / s.batches_dispatched.max(1) as f64;
    report.layer(
        "serve.batch_mean",
        batch_mean,
        format!("{} batches", s.batches_dispatched),
    );
    let edge = "log2 bucket upper edge";
    report.layer(
        "serve.server_e2e_us.p50",
        s.e2e_latency_ns.p50 as f64 / 1e3,
        format!("n={} ({edge})", s.e2e_latency_ns.count),
    );
    report.layer(
        "serve.server_e2e_us.p99",
        s.e2e_latency_ns.p99 as f64 / 1e3,
        format!("n={} ({edge})", s.e2e_latency_ns.count),
    );
    report.layer("serve.shed", s.requests_shed as f64, "");
    report.layer("serve.deadline_expired", s.deadline_expired as f64, "");
    report.layer("serve.protocol_errors", s.protocol_errors as f64, "");
}

/// Times the four protocol functions on `pairs` of (request id, request,
/// response) and reports `serve.protocol.*`.
pub fn protocol_replay(
    pairs: &[(u64, Request, Response)],
    tracer: &mut Tracer,
    parent: SpanId,
    report: &mut Report,
) {
    let mut req_bytes = 0usize;
    let mut resp_bytes = 0usize;
    for (id, request, response) in pairs {
        let req = tracer.time("serve.protocol.req_encode", *id, parent, || {
            encode_request(*id, black_box(request))
        });
        tracer.time("serve.protocol.req_decode", *id, parent, || {
            black_box(decode_request(black_box(&req)).expect("replayed request decodes"))
        });
        let resp = tracer.time("serve.protocol.resp_encode", *id, parent, || {
            encode_response(*id, black_box(response))
        });
        tracer.time("serve.protocol.resp_decode", *id, parent, || {
            black_box(decode_response(black_box(&resp)).expect("replayed response decodes"))
        });
        req_bytes += req.len() + 4;
        resp_bytes += resp.len() + 4;
    }
    let n = pairs.len().max(1) as f64;
    for (span, name) in [
        ("serve.protocol.req_encode", "serve.protocol.req_encode_us"),
        ("serve.protocol.req_decode", "serve.protocol.req_decode_us"),
        (
            "serve.protocol.resp_encode",
            "serve.protocol.resp_encode_us",
        ),
        (
            "serve.protocol.resp_decode",
            "serve.protocol.resp_decode_us",
        ),
    ] {
        let us = tracer.micros_of(span);
        report.layer(
            name,
            stats::mean(&us),
            format!("mean of {} frames", us.len()),
        );
    }
    report.layer(
        "serve.protocol.req_bytes",
        req_bytes as f64 / n,
        "mean framed bytes",
    );
    report.layer(
        "serve.protocol.resp_bytes",
        resp_bytes as f64 / n,
        "mean framed bytes",
    );
}

/// Times the selected scan kernel on `dim`-bit vectors and reports
/// `hdc.kernel_ns_per_kword`.
pub fn kernel_timing(dim: usize, seed: u64, report: &mut Report) {
    let words = dim / 64;
    let mut rng = hdc::rng_from_seed(seed);
    let a: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    let b: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    let kernel = hdc::kernels::selected_kernel();
    let calls = 200_000usize;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..calls {
        acc = acc.wrapping_add(kernel.hamming_words(black_box(&a), black_box(&b)));
    }
    black_box(acc);
    let ns = start.elapsed().as_nanos() as f64;
    report.layer(
        "hdc.kernel_ns_per_kword",
        ns / (calls * words) as f64 * 1000.0,
        format!("{} kernel, {calls} calls × {words} words", kernel.name()),
    );
}

/// Replays single-object (Rep-2) and multi-object (Rep-3) factorization
/// and scene encoding through `core` on `state`, and reports the
/// `core.*` counters and timings plus `hdc.scan_bytes_per_op`.
pub fn core_replay(
    state: &ModelState,
    rep2: &[AccumHv],
    rep3: &[AccumHv],
    scenes: &[Scene],
    tracer: &mut Tracer,
    parent: SpanId,
    report: &mut Report,
) {
    let factorizer = state.factorizer();
    let (mut sims, mut combos, mut unbinds) = (0u64, 0u64, 0u64);
    for (i, hv) in rep2.iter().enumerate() {
        let (_, s) = tracer.time("core.factorize.rep2", i as u64, parent, || {
            factorizer
                .factorize_single_traced(hv)
                .expect("replayed Rep-2 factorizes")
        });
        sims += s.similarity_checks;
        combos += s.combination_tests;
        unbinds += s.unbind_ops;
    }
    for (i, hv) in rep3.iter().enumerate() {
        let scene = tracer.time("core.factorize.rep3", i as u64, parent, || {
            factorizer
                .factorize_multi(hv)
                .expect("replayed Rep-3 factorizes")
        });
        sims += scene.stats.similarity_checks;
        combos += scene.stats.combination_tests;
        unbinds += scene.stats.unbind_ops;
    }
    let ops = (rep2.len() + rep3.len()).max(1) as f64;
    let note = format!("{} Rep-2 + {} Rep-3 replayed", rep2.len(), rep3.len());
    report.layer(
        "core.similarity_checks_per_op",
        sims as f64 / ops,
        note.clone(),
    );
    report.layer(
        "core.combination_tests_per_op",
        combos as f64 / ops,
        note.clone(),
    );
    report.layer("core.unbind_ops_per_op", unbinds as f64 / ops, note);
    for (span, name) in [
        ("core.factorize.rep2", "core.factorize_us.rep2"),
        ("core.factorize.rep3", "core.factorize_us.rep3"),
    ] {
        let us = tracer.micros_of(span);
        report.layer(
            name,
            stats::median(&us).unwrap_or(0.0),
            format!("median of {}", us.len()),
        );
    }
    let dim = state.taxonomy().dim();
    report.layer(
        "hdc.scan_bytes_per_op",
        sims as f64 / ops * (dim / 8) as f64,
        format!(
            "computed: similarity checks × {} B per packed D={dim} vector",
            dim / 8
        ),
    );
    let encoder = Encoder::new(state.taxonomy());
    for (i, scene) in scenes.iter().enumerate() {
        tracer.time("core.encode", i as u64, parent, || {
            black_box(encoder.encode_scene(black_box(scene)).expect("encodable"))
        });
    }
    let us = tracer.micros_of("core.encode");
    report.layer(
        "core.encode_us",
        stats::median(&us).unwrap_or(0.0),
        format!("median of {} scene encodes", us.len()),
    );
}

/// Replays the run's own requests `ids` as direct `execute_batch` calls
/// at the server's observed mean batch (`serve.batch_mean`, already in
/// `report`), up to 1,100 calls, and reports `engine.batch_us.*`.
pub fn engine_replay(
    registry: &ModelRegistry,
    ids: Range<usize>,
    op_of: &dyn Fn(usize) -> (ModelId, AnyOp),
    tracer: &mut Tracer,
    parent: SpanId,
    report: &mut Report,
) -> Result<(), String> {
    let mean = report
        .layers
        .iter()
        .find(|m| m.name == "serve.batch_mean")
        .map_or(1.0, |m| m.value);
    let batch = (mean.round() as usize).max(1);
    let mut us = Vec::new();
    for (b, chunk) in ids
        .collect::<Vec<_>>()
        .chunks_exact(batch)
        .take(1100)
        .enumerate()
    {
        let ops: Vec<(ModelId, AnyOp)> = chunk.iter().map(|&id| op_of(id)).collect();
        let start = Instant::now();
        let results = registry.execute_batch(&ops);
        let end = Instant::now();
        tracer.record("engine.execute_batch", b as u64, parent, start, end);
        if let Some(Err(e)) = results.into_iter().find(Result::is_err) {
            return Err(format!("replayed batch failed: {e}"));
        }
        us.push((end - start).as_secs_f64() * 1e6);
    }
    report_batch_us(
        &us,
        &format!("replayed calls of {batch}, the served mean"),
        report,
    );
    Ok(())
}

/// Reports a percentile pair of batch timings as `engine.batch_us.*`.
/// A p99 the sample cannot support is replaced by the sample maximum
/// (never below the true p99) and marked so.
pub fn report_batch_us(batch_us: &[f64], what: &str, report: &mut Report) {
    let sorted = stats::sorted(batch_us);
    let n = sorted.len();
    report.layer(
        "engine.batch_us.p50",
        stats::percentile(&sorted, 0.5).unwrap_or(0.0),
        format!("n={n} {what}"),
    );
    let (p99, how) = match stats::percentile(&sorted, 0.99) {
        Some(p) => (p, format!("n={n} {what}")),
        None => (
            sorted.last().copied().unwrap_or(0.0),
            format!("n={n} {what}; below 1,000 samples, maximum reported"),
        ),
    };
    report.layer("engine.batch_us.p99", p99, how);
}

/// Reports the given per-layer metrics as zero: layers this workload
/// does not exercise.
pub fn not_exercised(names: &[&'static str], report: &mut Report) {
    for name in names {
        report.layer(name, 0.0, "layer not exercised by this workload");
    }
}
