//! The chaos battery (docs/ROBUSTNESS.md, "Chaos harness"): the real
//! server and real client under injected faults — corrupted byte
//! streams via [`ChaosProxy`], engine-level failures via the
//! [`factorhd_engine::failpoint`] registry.
//!
//! Every test asserts the same three invariants from the robustness
//! contract:
//!
//! 1. **Typed errors only** — no panic ever crosses a crate boundary;
//!    every fault surfaces as a [`ServeError`] variant or a typed
//!    error response.
//! 2. **Zero lost request ids** — each accepted request gets exactly
//!    one response (possibly an error response), and requests the
//!    client retries transparently still succeed exactly once.
//! 3. **The server keeps serving** — after the fault, a fresh
//!    connection completes ops normally.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use factorhd_core::{Scene, Taxonomy, TaxonomyBuilder};
use factorhd_engine::failpoint::{self, FailMode};
use factorhd_engine::{artifact, AnyOp, EncodeScene, EngineConfig, ModelRegistry, ModelState};
use factorhd_serve::{
    BatcherConfig, ChaosFault, ChaosProxy, Client, ClientConfig, ErrorCode, RetryPolicy,
    ServeError, Server, ServerConfig,
};

/// Failpoints are process-global; tests that arm one hold this lock so
/// parallel test threads can't see each other's faults.
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn failpoint_guard() -> std::sync::MutexGuard<'static, ()> {
    FAILPOINT_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Disarms a failpoint on drop, so a failing assertion can't leak an
/// armed fault into the next test.
struct Armed(&'static str);

impl Armed {
    fn arm(name: &'static str, mode: FailMode) -> Armed {
        failpoint::arm(name, mode);
        Armed(name)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        failpoint::disarm(self.0);
    }
}

fn build_taxonomy(seed: u64) -> Taxonomy {
    TaxonomyBuilder::new(256)
        .seed(seed)
        .class("animal", &[4])
        .class("color", &[4])
        .build()
        .expect("valid taxonomy")
}

fn start_server(config: ServerConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    let state = ModelState::new(build_taxonomy(7), EngineConfig::default()).expect("valid model");
    registry.install("m", state);
    Server::start(registry, "127.0.0.1:0", config).expect("server starts")
}

/// A deterministic encode op; `objects` controls its
/// [`AnyOp::chaos_tag`] (300 + object count).
fn encode_op(taxonomy: &Taxonomy, seed: u64, objects: usize) -> AnyOp {
    let mut rng = hdc::rng_from_seed(seed);
    let scene = Scene::new(
        (0..objects)
            .map(|_| taxonomy.sample_object(&mut rng))
            .collect(),
    );
    AnyOp::Encode(EncodeScene { scene })
}

/// A client that surfaces the first failure instead of retrying — what
/// the fault-observation side of each test wants.
fn no_retry_client(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            retry: None,
            read_timeout: Some(Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .expect("client connects")
}

/// Post-fault liveness probe: a fresh direct connection must complete
/// a real op.
fn assert_still_serving(server: &Server) {
    let mut probe = no_retry_client(server.local_addr());
    let taxonomy = build_taxonomy(7);
    let op = encode_op(&taxonomy, 99, 1);
    probe
        .run("m", &op)
        .expect("server must keep serving after the fault");
}

// ---------------------------------------------------------------------------
// Stream corruption (via the chaos proxy)
// ---------------------------------------------------------------------------

#[test]
fn truncated_request_fails_typed_and_server_keeps_answering() {
    let server = start_server(ServerConfig::default());
    // Cut the client→server stream 20 bytes in: mid-frame (the length
    // prefix is 4 bytes and every op payload is longer than 16).
    let proxy = ChaosProxy::start(
        server.local_addr(),
        Some(ChaosFault::TruncateAfter(20)),
        None,
    )
    .expect("proxy starts");

    let taxonomy = build_taxonomy(7);
    let mut client = no_retry_client(proxy.local_addr());
    let err = client
        .run("m", &encode_op(&taxonomy, 1, 1))
        .expect_err("a truncated request cannot produce an output");
    assert!(
        matches!(err, ServeError::Closed | ServeError::Io(_)),
        "truncation must surface as a typed transport error, got {err:?}"
    );

    proxy.shutdown();
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn flipped_bit_in_response_fails_typed_not_misparsed() {
    let server = start_server(ServerConfig::default());
    // Server→client stream offset 10 = response payload byte 6, well
    // inside the checksummed region (header kind byte).
    let proxy = ChaosProxy::start(
        server.local_addr(),
        None,
        Some(ChaosFault::FlipBit { offset: 10, bit: 3 }),
    )
    .expect("proxy starts");

    let taxonomy = build_taxonomy(7);
    let mut client = no_retry_client(proxy.local_addr());
    let err = client
        .run("m", &encode_op(&taxonomy, 2, 1))
        .expect_err("a corrupted response must not decode");
    assert!(
        matches!(err, ServeError::Wire(_)),
        "a flipped bit must be caught by the codec, got {err:?}"
    );

    proxy.shutdown();
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn mid_flight_disconnects_are_survived_by_the_retry_contract() {
    let server = start_server(ServerConfig::default());
    // Kill each proxied connection after ~2 pong frames of s2c bytes;
    // every reconnect gets a fresh budget, so a retrying client makes
    // steady progress through repeated disconnects.
    let proxy = ChaosProxy::start(server.local_addr(), None, Some(ChaosFault::DropAfter(70)))
        .expect("proxy starts");

    let mut client = Client::connect_with(
        proxy.local_addr(),
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            retry: Some(RetryPolicy {
                max_retries: 4,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
            }),
            ..ClientConfig::default()
        },
    )
    .expect("client connects");

    // Zero lost requests: every ping must eventually succeed exactly
    // once, with the disconnects absorbed as transparent retries.
    for i in 0..10 {
        client.ping().unwrap_or_else(|err| {
            panic!("ping {i} must survive mid-flight disconnects, got {err:?}")
        });
    }
    assert!(
        client.retries() > 0,
        "the drop fault must have forced at least one retry"
    );

    proxy.shutdown();
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn pipelined_burst_through_disconnect_loses_no_answered_ids() {
    let server = start_server(ServerConfig::default());
    // Let roughly half the burst's responses through, then disconnect.
    let proxy = ChaosProxy::start(
        server.local_addr(),
        None,
        Some(ChaosFault::DropAfter(4 * 1024)),
    )
    .expect("proxy starts");

    let taxonomy = build_taxonomy(7);
    let ops: Vec<AnyOp> = (0..16).map(|i| encode_op(&taxonomy, i, 1)).collect();
    let mut client = no_retry_client(proxy.local_addr());
    match client.run_pipelined("m", &ops) {
        // The whole call fails typed once the stream dies: the burst
        // may mix idempotent and non-idempotent ops, so the client
        // never silently re-sends (the caller owns the dedup decision).
        Err(err) => assert!(
            matches!(
                err,
                ServeError::Closed | ServeError::Io(_) | ServeError::Wire(_)
            ),
            "disconnect mid-burst must be a typed transport error, got {err:?}"
        ),
        // Tiny frames can slip under the byte budget; then every slot
        // must hold a real per-op result.
        Ok(results) => assert_eq!(results.len(), ops.len()),
    }

    proxy.shutdown();
    assert_still_serving(&server);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Slow peers (server-side read budgets)
// ---------------------------------------------------------------------------

#[test]
fn slowloris_partial_frame_is_cut_off_by_the_read_budget() {
    let server = start_server(ServerConfig {
        frame_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });

    // A raw socket that starts a frame and then stalls forever.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .write_all(&[0x30, 0x00])
        .expect("partial length prefix writes");
    stream.flush().expect("flushes");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");

    // The server must give up on the half-frame and close: our read
    // unblocks with EOF (or a reset) well before the 10 s guard.
    let start = Instant::now();
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server must not answer a half-frame, sent {n} bytes"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the read budget must cut the connection promptly, took {:?}",
        start.elapsed()
    );

    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_quietly() {
    let server = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });

    // Connect and send nothing at all.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server must not send to an idle peer, sent {n} bytes"),
    }

    // An idle hangup is not a protocol error.
    let stats = server.stats();
    assert_eq!(
        stats.protocol_errors, 0,
        "idle expiry must not count as a protocol error"
    );
    assert_still_serving(&server);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Engine faults (failpoints)
// ---------------------------------------------------------------------------

#[test]
fn injected_op_panic_is_contained_to_its_request() {
    let _guard = failpoint_guard();
    let server = start_server(ServerConfig::default());
    let taxonomy = build_taxonomy(7);

    // Nine single-object encodes (tag 301) around one two-object
    // encode (tag 302); poison exactly the latter.
    let mut ops: Vec<AnyOp> = (0..9).map(|i| encode_op(&taxonomy, i, 1)).collect();
    ops.insert(4, encode_op(&taxonomy, 40, 2));
    assert_ne!(ops[0].chaos_tag(), ops[4].chaos_tag());
    let _armed = Armed::arm("engine/op_panic", FailMode::Tag(ops[4].chaos_tag()));

    let mut client = no_retry_client(server.local_addr());
    let results = client
        .run_pipelined("m", &ops)
        .expect("the transport must survive a contained panic");
    assert_eq!(results.len(), ops.len(), "every request id must answer");
    for (i, result) in results.iter().enumerate() {
        if i == 4 {
            match result {
                Err(ServeError::Remote { code, .. }) => {
                    assert_eq!(*code, ErrorCode::OpPanicked, "poisoned op fails typed")
                }
                other => panic!("poisoned op must fail with OpPanicked, got {other:?}"),
            }
        } else {
            result
                .as_ref()
                .unwrap_or_else(|err| panic!("op {i} shares no fate with op 4: {err:?}"));
        }
    }

    let stats = server.stats();
    assert!(
        stats.ops_panicked >= 1,
        "the panic must be visible in telemetry, stats: {stats:?}"
    );
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn overloaded_queue_sheds_typed_and_recovers() {
    let _guard = failpoint_guard();
    // A tiny admission queue plus a stalled batcher: submissions pile
    // up against `max_queue` while the worker sleeps.
    let server = start_server(ServerConfig {
        batcher: BatcherConfig {
            max_batch: 2,
            max_queue: 2,
        },
        ..ServerConfig::default()
    });
    let _armed = Armed::arm(
        "serve/batcher_stall",
        FailMode::Sleep(Duration::from_millis(40)),
    );

    let taxonomy = build_taxonomy(7);
    let ops: Vec<AnyOp> = (0..32).map(|i| encode_op(&taxonomy, i, 1)).collect();
    let mut client = no_retry_client(server.local_addr());
    let results = client
        .run_pipelined("m", &ops)
        .expect("shedding must not break the transport");

    // Zero lost ids: all 32 requests answer, each either executing or
    // refusing typed.
    assert_eq!(results.len(), ops.len());
    let mut executed = 0usize;
    let mut shed = 0usize;
    for result in &results {
        match result {
            Ok(_) => executed += 1,
            Err(ServeError::Remote { code, .. }) if *code == ErrorCode::Overloaded => shed += 1,
            other => panic!("only Output or typed Overloaded is acceptable, got {other:?}"),
        }
    }
    assert!(shed > 0, "32 ops against a queue of 2 must shed");
    assert!(executed > 0, "admitted requests must still execute");
    assert_eq!(
        server.stats().requests_shed,
        shed as u64,
        "telemetry must count exactly the shed requests"
    );

    drop(_armed);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn expired_deadline_is_refused_without_executing() {
    let _guard = failpoint_guard();
    let server = start_server(ServerConfig::default());
    let _armed = Armed::arm(
        "serve/batcher_stall",
        FailMode::Sleep(Duration::from_millis(40)),
    );

    let taxonomy = build_taxonomy(7);
    let mut client = no_retry_client(server.local_addr());
    let err = client
        .run_with_deadline(
            "m",
            &encode_op(&taxonomy, 1, 1),
            Some(Duration::from_micros(1)),
        )
        .expect_err("a 1 µs budget cannot survive a 40 ms stall");
    match err {
        ServeError::Remote { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected a typed DeadlineExceeded, got {other:?}"),
    }
    let stats = server.stats();
    assert!(stats.deadline_expired >= 1, "telemetry counts the expiry");
    // The expired request was answered instantly, never executed.
    assert_eq!(
        stats.e2e_latency_ns.count, 0,
        "refused requests must not enter the admitted-latency histogram"
    );

    drop(_armed);
    assert_still_serving(&server);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Crash-safe artifacts
// ---------------------------------------------------------------------------

#[test]
fn kill_mid_artifact_write_never_publishes_a_torn_file() {
    let _guard = failpoint_guard();
    let dir = std::env::temp_dir().join(format!("factorhd_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.fhd");

    // A good artifact is on disk first.
    let original = build_taxonomy(7);
    artifact::save_model(&path, &original, None).expect("clean save succeeds");

    // Crash the next save mid-write: it must error out *before* the
    // atomic rename, leaving the published path untouched. The
    // replacement has a different dimension so a torn or blended load
    // would be detectable.
    let _armed = Armed::arm("engine/artifact_partial_write", FailMode::Once);
    let replacement = TaxonomyBuilder::new(512)
        .seed(8)
        .class("animal", &[4])
        .build()
        .expect("valid taxonomy");
    artifact::save_model(&path, &replacement, None)
        .expect_err("a simulated crash mid-save must surface as an error");

    // The torn temp file exists (a real crash couldn't clean up) …
    let torn: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir lists")
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().contains(".tmp-"))
        .collect();
    assert!(!torn.is_empty(), "the simulated crash leaves its torn temp");

    // … but the loader only ever sees the original, intact artifact.
    let (loaded, _) = artifact::load_model(&path).expect("published artifact still loads");
    assert_eq!(
        loaded.dim(),
        original.dim(),
        "the published artifact must still be the pre-crash one"
    );

    // After the fault clears, the same path saves and loads cleanly.
    artifact::save_model(&path, &replacement, None).expect("post-crash save succeeds");
    artifact::load_model(&path).expect("replacement artifact loads");

    let _ = std::fs::remove_dir_all(&dir);
}
