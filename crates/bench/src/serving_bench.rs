//! Loopback serving throughput: a **clients × pipeline grid** of the
//! network front end (`factorhd-serve`) against the warm batch-64
//! direct-engine reference it must keep up with.
//!
//! Each grid point starts a fresh [`Server`] on a loopback listener and
//! drives it the way a production load generator would: every client
//! thread pre-encodes its burst of `pipeline` requests into a single
//! frame buffer once, then repeatedly writes the whole burst in one
//! syscall and reads back exactly `pipeline` response frames. The hot
//! loop validates cheaply (frame arrives, is not a typed error); full
//! decode validation runs once per client in the warm-up burst, and the
//! serving integration tests pin down bit-identity exhaustively.
//!
//! The op stream is [`build_ops`] — the *same* deterministic mixed
//! typed-op workload the engine grid measures — so the **direct
//! reference** (warm batch-64 `execute_batch` on the same registry,
//! measured in-run) is apples-to-apples: the serving fraction reported
//! per point is network throughput ÷ direct throughput, and the
//! top-line `serving_fraction` (the best ≥ 8-client point) is what the
//! regression gate holds above [`crate::gate::SERVING_FLOOR`].
//!
//! Timing is best-of-reps minimum wall clock, for the same reason as
//! the engine grid: interference is one-sided. Latency percentiles come
//! from the server's own end-to-end histogram (request decoded →
//! response written), which quantizes to log2 buckets and honors the
//! engine metrics gate — under `metrics-off` the histogram is empty and
//! the document says so (`metrics_recording: false`), so the gate skips
//! latency checks instead of failing on zeros.

use crate::engine_bench::{bench_engine_config, bench_taxonomy, build_ops};
use crate::json::JsonValue;
use crate::Table;
use factorhd_engine::{AnyOp, ModelId, ModelRegistry, ModelState};
use factorhd_serve::protocol::{self, Request, Response, DEFAULT_MAX_FRAME_BYTES, KIND_ERROR};
use factorhd_serve::{BatcherConfig, ErrorCode, HistogramSummary, Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Registry name of the benchmark model.
const MODEL: &str = "bench";
/// Server-side batch ceiling — matches the engine grid's batch-64 sweet
/// spot, so a saturated server dispatches the batches the reference
/// measures.
const MAX_BATCH: usize = 64;
/// Concurrent client connections the grid sweeps.
pub const CLIENT_GRID: [usize; 4] = [1, 2, 4, 8];
/// In-flight requests per client connection (burst depth) the grid
/// sweeps — the payload axis: each op carries a dim-2048 scene vector,
/// so depth also scales bytes on the wire per syscall.
pub const PIPELINE_GRID: [usize; 2] = [8, 32];

/// One measured grid point of the serving sweep.
#[derive(Debug, Clone)]
pub struct ServingPoint {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests in flight per connection.
    pub pipeline: usize,
    /// Sustained end-to-end requests per second (best of reps).
    pub throughput_per_sec: f64,
    /// This point's throughput ÷ the direct warm batch-64 reference.
    pub fraction_of_direct: f64,
    /// Server-side end-to-end latency summary (nanoseconds; zeros when
    /// the metrics gate is off).
    pub latency: HistogramSummary,
    /// Engine batches the batcher dispatched.
    pub batches_dispatched: u64,
    /// Mean coalesced batch size (requests ÷ batches).
    pub mean_coalesced: f64,
    /// Admission refusals during this point. Cooperative load against
    /// the default (deep) queue must never shed; the gate fails a
    /// nonzero value here.
    pub requests_shed: u64,
}

/// The measured overload point: the same closed-loop load generator
/// driven against a server whose admission queue is capped at one
/// batch, so most offered requests bounce with a typed `Overloaded`
/// while admitted ones keep the engine fed with full batches
/// (docs/ROBUSTNESS.md, "Overload behavior under measurement").
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests in flight per connection.
    pub pipeline: usize,
    /// Requests offered per second — admitted *and* shed. Sheds answer
    /// in microseconds, so the closed loop re-offers them immediately,
    /// inflating the offered rate well past capacity (the ≈4× point:
    /// in-flight requests ≈ 4 × queue depth).
    pub offered_per_sec: f64,
    /// Requests per second that were admitted and executed.
    pub admitted_per_sec: f64,
    /// `offered ÷ admitted` — how far past capacity the load ran.
    pub overload_factor: f64,
    /// Typed `Overloaded` refusals observed by the clients.
    pub shed: u64,
    /// The cooperative grid point at the same (clients, pipeline), for
    /// the gate's admitted-throughput floor.
    pub cooperative_per_sec: f64,
    /// **Admitted-only** end-to-end latency (refused requests never
    /// enter the histogram), so overload cannot masquerade as a
    /// latency win.
    pub latency: HistogramSummary,
    /// Deadline expiries (zero: this load sends no deadlines).
    pub deadline_expired: u64,
}

/// The full sweep result: every grid point plus the in-run direct
/// reference it is judged against.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// The measured grid.
    pub points: Vec<ServingPoint>,
    /// Warm batch-64 `execute_batch` throughput on the same registry.
    pub direct_warm64_per_sec: f64,
    /// Best `fraction_of_direct` among points with ≥ 8 clients — the
    /// number the gate holds above [`crate::gate::SERVING_FLOOR`].
    pub serving_fraction: f64,
    /// The shed-tolerant overload measurement.
    pub overload: OverloadPoint,
}

fn build_registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.install(
        MODEL,
        ModelState::new(bench_taxonomy(), bench_engine_config()).expect("valid bench model"),
    );
    registry
}

/// Warm batch-64 throughput of `execute_batch` on `registry` — the
/// direct path the server's batcher calls, minus the network.
fn measure_direct_warm64(registry: &ModelRegistry, reps: usize, iters: usize) -> f64 {
    let handle = registry.get(MODEL).expect("bench model installed");
    let ops = build_ops(handle.state().taxonomy(), MAX_BATCH);
    let batch: Vec<(ModelId, AnyOp)> = ops
        .into_iter()
        .map(|op| (ModelId::new(MODEL), op))
        .collect();
    for _ in 0..2 {
        for result in registry.execute_batch(&batch) {
            result.expect("direct warm-up executes");
        }
    }
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            registry.execute_batch(&batch);
        }
        best = best.min(start.elapsed());
    }
    (MAX_BATCH * iters) as f64 / best.as_secs_f64()
}

/// One client connection's life: warm-up burst with full decode
/// validation, then `reps` timed windows of `iters` pre-encoded bursts,
/// synchronized with the measuring thread at every window edge.
fn run_client(
    addr: SocketAddr,
    burst: &[u8],
    pipeline: usize,
    reps: usize,
    iters: usize,
    barrier: &Barrier,
) {
    let mut stream = TcpStream::connect(addr).expect("load generator connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::with_capacity(
        1 << 16,
        stream.try_clone().expect("clone stream for reading"),
    );
    // Warm-up: one burst, fully decoded — proves the pre-encoded frames
    // are answered with well-formed outputs before the cheap hot loop.
    stream.write_all(burst).expect("warm-up burst writes");
    for _ in 0..pipeline {
        let payload = protocol::read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
            .expect("warm-up frame reads")
            .expect("server keeps the connection open");
        let (_, response) = protocol::decode_response(&payload).expect("warm-up response decodes");
        assert!(
            matches!(response, Response::Output(_)),
            "warm-up op failed: {response:?}"
        );
    }
    for _ in 0..reps {
        barrier.wait();
        for _ in 0..iters {
            stream.write_all(burst).expect("burst writes");
            for _ in 0..pipeline {
                let payload = protocol::read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                    .expect("response frame reads")
                    .expect("server keeps the connection open");
                assert_ne!(payload[6], KIND_ERROR, "server answered with an error");
            }
        }
        barrier.wait();
    }
}

/// Measures one (clients, pipeline) grid point against a fresh server,
/// so its per-server telemetry covers exactly this point's traffic.
fn measure_point(
    registry: &Arc<ModelRegistry>,
    clients: usize,
    pipeline: usize,
    reps: usize,
    target_ops: usize,
    direct_per_sec: f64,
) -> ServingPoint {
    let server = Server::start(
        Arc::clone(registry),
        "127.0.0.1:0",
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: MAX_BATCH,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bench server starts");
    let addr = server.local_addr();

    // Every client sends the same deterministic burst, pre-encoded once
    // into a single write — ids are per-connection, so reuse is safe.
    let handle = registry.get(MODEL).expect("bench model installed");
    let ops = build_ops(handle.state().taxonomy(), pipeline);
    let mut burst = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        let payload = protocol::encode_request(
            id as u64,
            &Request::Op {
                model: MODEL.to_owned(),
                op: op.clone(),
                deadline: None,
            },
        );
        protocol::append_frame(&mut burst, &payload);
    }
    // Scale iterations so every point measures a comparable op count —
    // small grids need more bursts to produce a stable window.
    let iters = (target_ops / (clients * pipeline)).max(4);

    let barrier = Barrier::new(clients + 1);
    let mut best = Duration::MAX;
    thread::scope(|scope| {
        for _ in 0..clients {
            let burst = &burst;
            let barrier = &barrier;
            scope.spawn(move || run_client(addr, burst, pipeline, reps, iters, barrier));
        }
        for _ in 0..reps {
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            best = best.min(start.elapsed());
        }
    });
    let stats = server.stats();
    server.shutdown();

    let throughput = (clients * pipeline * iters) as f64 / best.as_secs_f64();
    ServingPoint {
        clients,
        pipeline,
        throughput_per_sec: throughput,
        fraction_of_direct: throughput / direct_per_sec,
        latency: stats.e2e_latency_ns,
        batches_dispatched: stats.batches_dispatched,
        mean_coalesced: stats.requests_received as f64 / stats.batches_dispatched.max(1) as f64,
        requests_shed: stats.requests_shed,
    }
}

/// One overload client: the same pre-encoded closed-loop burst as
/// [`run_client`], but tolerating typed `Overloaded` refusals — and
/// *only* those. Any other error frame is still a bench failure.
fn run_overload_client(
    addr: SocketAddr,
    burst: &[u8],
    pipeline: usize,
    iters: usize,
    barrier: &Barrier,
    shed: &AtomicU64,
) {
    let mut stream = TcpStream::connect(addr).expect("overload generator connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::with_capacity(
        1 << 16,
        stream.try_clone().expect("clone stream for reading"),
    );
    barrier.wait();
    let mut refused = 0u64;
    for _ in 0..iters {
        stream.write_all(burst).expect("burst writes");
        for _ in 0..pipeline {
            let payload = protocol::read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                .expect("response frame reads")
                .expect("server keeps the connection open");
            if payload[6] == KIND_ERROR {
                match protocol::decode_response(&payload) {
                    Ok((
                        _,
                        Response::Error {
                            code: ErrorCode::Overloaded,
                            ..
                        },
                    )) => {
                        refused += 1;
                    }
                    other => panic!("only Overloaded refusals are tolerated, got {other:?}"),
                }
            }
        }
    }
    shed.fetch_add(refused, Ordering::Relaxed);
    barrier.wait();
}

/// Measures the overload point: `clients × pipeline` requests kept in
/// flight against a server whose admission queue holds exactly one
/// batch, so the in-flight load runs ≈ `clients × pipeline ÷ max_queue`
/// times past capacity (4× on the default 8 × 32 grid point). Admitted
/// requests must keep flowing at near-cooperative throughput — load
/// shedding protects the engine, it does not replace it.
fn measure_overload(
    registry: &Arc<ModelRegistry>,
    clients: usize,
    pipeline: usize,
    iters: usize,
    cooperative_per_sec: f64,
) -> OverloadPoint {
    let server = Server::start(
        Arc::clone(registry),
        "127.0.0.1:0",
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: MAX_BATCH,
                // One batch of queue: everything beyond it sheds.
                max_queue: MAX_BATCH,
            },
            ..ServerConfig::default()
        },
    )
    .expect("overload server starts");
    let addr = server.local_addr();

    let handle = registry.get(MODEL).expect("bench model installed");
    let ops = build_ops(handle.state().taxonomy(), pipeline);
    let mut burst = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        let payload = protocol::encode_request(
            id as u64,
            &Request::Op {
                model: MODEL.to_owned(),
                op: op.clone(),
                deadline: None,
            },
        );
        protocol::append_frame(&mut burst, &payload);
    }

    let barrier = Barrier::new(clients + 1);
    let shed = AtomicU64::new(0);
    let mut elapsed = Duration::ZERO;
    thread::scope(|scope| {
        for _ in 0..clients {
            let burst = &burst;
            let barrier = &barrier;
            let shed = &shed;
            scope.spawn(move || run_overload_client(addr, burst, pipeline, iters, barrier, shed));
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        elapsed = start.elapsed();
    });
    let stats = server.stats();
    server.shutdown();

    let offered = (clients * pipeline * iters) as u64;
    let shed = shed.load(Ordering::Relaxed);
    let admitted = offered.saturating_sub(shed);
    let offered_per_sec = offered as f64 / elapsed.as_secs_f64();
    let admitted_per_sec = admitted as f64 / elapsed.as_secs_f64();
    OverloadPoint {
        clients,
        pipeline,
        offered_per_sec,
        admitted_per_sec,
        overload_factor: offered as f64 / admitted.max(1) as f64,
        shed,
        cooperative_per_sec,
        latency: stats.e2e_latency_ns,
        deadline_expired: stats.deadline_expired,
    }
}

/// Runs the full [`CLIENT_GRID`] × [`PIPELINE_GRID`] sweep plus the
/// direct reference. `quick` halves repetitions and the per-point op
/// target — still best-of, for the same noise-floor reasons as the
/// engine grid.
pub fn serving_points(quick: bool) -> ServingReport {
    let registry = build_registry();
    let (reps, direct_iters, target_ops) = if quick { (2, 8, 512) } else { (4, 16, 2048) };
    let direct_warm64_per_sec = measure_direct_warm64(&registry, reps, direct_iters);
    let mut points = Vec::new();
    for &clients in &CLIENT_GRID {
        for &pipeline in &PIPELINE_GRID {
            points.push(measure_point(
                &registry,
                clients,
                pipeline,
                reps,
                target_ops,
                direct_warm64_per_sec,
            ));
        }
    }
    let serving_fraction = points
        .iter()
        .filter(|p| p.clients >= 8)
        .map(|p| p.fraction_of_direct)
        .fold(0.0, f64::max);
    // Overload at the deepest grid point: 8 × 32 = 256 in flight vs a
    // 64-slot queue is the ≈4× offered-load point.
    let (clients, pipeline) = (8, 32);
    let cooperative_per_sec = points
        .iter()
        .find(|p| p.clients == clients && p.pipeline == pipeline)
        .map(|p| p.throughput_per_sec)
        .unwrap_or(direct_warm64_per_sec);
    let overload_iters = (target_ops / (clients * pipeline)).max(4) * 2;
    let overload = measure_overload(
        &registry,
        clients,
        pipeline,
        overload_iters,
        cooperative_per_sec,
    );
    ServingReport {
        points,
        direct_warm64_per_sec,
        serving_fraction,
        overload,
    }
}

/// Renders the sweep as the human-readable table the bin prints.
pub fn serving_table(report: &ServingReport) -> Table {
    let mut table = Table::new(
        &format!(
            "serving loopback throughput (direct warm batch-64: {:.0} req/s)",
            report.direct_warm64_per_sec
        ),
        &[
            "clients",
            "pipeline",
            "req/s",
            "x direct",
            "p50 us",
            "p95 us",
            "p99 us",
            "mean batch",
        ],
    );
    for p in &report.points {
        table.row(&[
            p.clients.to_string(),
            p.pipeline.to_string(),
            format!("{:.0}", p.throughput_per_sec),
            format!("{:.2}", p.fraction_of_direct),
            format!("{:.0}", p.latency.p50 as f64 / 1e3),
            format!("{:.0}", p.latency.p95 as f64 / 1e3),
            format!("{:.0}", p.latency.p99 as f64 / 1e3),
            format!("{:.1}", p.mean_coalesced),
        ]);
    }
    table
}

/// Renders the overload point as its own small table.
pub fn overload_table(report: &ServingReport) -> Table {
    let o = &report.overload;
    let mut table = Table::new(
        &format!(
            "overload point ({} clients x {} pipeline vs a {}-slot queue)",
            o.clients, o.pipeline, MAX_BATCH
        ),
        &[
            "offered req/s",
            "admitted req/s",
            "factor",
            "shed",
            "admitted p95 us",
            "x cooperative",
        ],
    );
    table.row(&[
        format!("{:.0}", o.offered_per_sec),
        format!("{:.0}", o.admitted_per_sec),
        format!("{:.1}x", o.overload_factor),
        o.shed.to_string(),
        format!("{:.0}", o.latency.p95 as f64 / 1e3),
        format!("{:.2}", o.admitted_per_sec / o.cooperative_per_sec.max(1.0)),
    ]);
    table
}

/// Renders the machine-readable `BENCH_serving.json` document (schema
/// v2, documented in docs/SERVING.md, "Network front end"; v2 adds the
/// per-point `requests_shed` counter and the top-level `overload`
/// object, docs/ROBUSTNESS.md).
pub fn serving_json(report: &ServingReport, quick: bool) -> String {
    let available_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let o = &report.overload;
    JsonValue::obj(vec![
        ("bench", JsonValue::Str("serving".into())),
        ("schema_version", JsonValue::Uint(2)),
        ("quick", JsonValue::Bool(quick)),
        ("unit", JsonValue::Str("requests_per_second".into())),
        ("cpu_features", JsonValue::Str(hdc::kernels::cpu_features())),
        ("available_cores", JsonValue::Uint(available_cores as u64)),
        ("max_batch", JsonValue::Uint(MAX_BATCH as u64)),
        (
            "metrics_recording",
            JsonValue::Bool(factorhd_engine::metrics::metrics_recording()),
        ),
        (
            "direct_warm64_per_sec",
            JsonValue::Num(report.direct_warm64_per_sec),
        ),
        ("serving_fraction", JsonValue::Num(report.serving_fraction)),
        (
            "points",
            JsonValue::Arr(
                report
                    .points
                    .iter()
                    .map(|p| {
                        JsonValue::obj(vec![
                            ("clients", JsonValue::Uint(p.clients as u64)),
                            ("pipeline", JsonValue::Uint(p.pipeline as u64)),
                            ("throughput_per_sec", JsonValue::Num(p.throughput_per_sec)),
                            ("fraction_of_direct", JsonValue::Num(p.fraction_of_direct)),
                            ("latency_count", JsonValue::Uint(p.latency.count)),
                            ("p50_ns", JsonValue::Uint(p.latency.p50)),
                            ("p95_ns", JsonValue::Uint(p.latency.p95)),
                            ("p99_ns", JsonValue::Uint(p.latency.p99)),
                            ("batches_dispatched", JsonValue::Uint(p.batches_dispatched)),
                            ("mean_coalesced", JsonValue::Num(p.mean_coalesced)),
                            ("requests_shed", JsonValue::Uint(p.requests_shed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "overload",
            JsonValue::obj(vec![
                ("clients", JsonValue::Uint(o.clients as u64)),
                ("pipeline", JsonValue::Uint(o.pipeline as u64)),
                ("offered_per_sec", JsonValue::Num(o.offered_per_sec)),
                ("admitted_per_sec", JsonValue::Num(o.admitted_per_sec)),
                ("overload_factor", JsonValue::Num(o.overload_factor)),
                ("requests_shed", JsonValue::Uint(o.shed)),
                ("deadline_expired", JsonValue::Uint(o.deadline_expired)),
                ("cooperative_per_sec", JsonValue::Num(o.cooperative_per_sec)),
                ("latency_count", JsonValue::Uint(o.latency.count)),
                ("p50_ns", JsonValue::Uint(o.latency.p50)),
                ("p95_ns", JsonValue::Uint(o.latency.p95)),
                ("p99_ns", JsonValue::Uint(o.latency.p99)),
            ]),
        ),
    ])
    .render()
}
