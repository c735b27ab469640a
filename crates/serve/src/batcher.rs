//! The work-conserving batcher: coalesces in-flight requests from many
//! connections into engine batches.
//!
//! Requests enqueue into a shared queue; a dedicated worker thread
//! drains it into [`ModelRegistry::execute_batch`]. Whenever the worker
//! is idle and the queue is not empty, it takes everything queued, up
//! to `max_batch`, and dispatches at once — no request ever waits for
//! company while the engine sits idle.
//!
//! Batches still grow under load, because requests pile up while the
//! previous batch executes, and bigger batches are cheaper per op warm
//! (the engine's planner groups same-shape ops into contiguous
//! packed-shard scans). `max_batch` is only a cap. Shutdown flushes:
//! every queued request is dispatched (in `max_batch` chunks) before
//! the worker exits, so no accepted request is ever dropped.
//!
//! Two robustness policies live here (docs/ROBUSTNESS.md):
//!
//! * **Admission control** — the queue is bounded at
//!   [`BatcherConfig::max_queue`]; [`Batcher::submit`] refuses beyond
//!   it ([`SubmitOutcome::Overloaded`]) so an overloaded server answers
//!   a typed `Overloaded` error in microseconds instead of building an
//!   unbounded backlog whose every entry times out.
//! * **Deadline enforcement** — a request that carried a deadline and
//!   is still queued when it expires is answered
//!   `DeadlineExceeded` at dequeue, without executing: the client has
//!   already given up, so running the op would only steal capacity from
//!   requests that still have a waiter.
//!
//! The queue is one `std::sync` mutex + condvar pair, with the worker
//! sleeping on the condvar while the queue is empty.
//! Lock poisoning is recovered (`into_inner`): the queue is plain data
//! that stays structurally valid, and the batcher must keep serving
//! even if a thread panicked while holding the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use factorhd_engine::{failpoint, AnyOp, EngineError, ModelId, ModelRegistry};

use crate::error::ErrorCode;
use crate::metrics::ServeMetrics;
use crate::protocol::Response;

/// Knobs for the work-conserving dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Cap on one engine batch: the idle worker takes at most this many
    /// queued requests at once. `1` degrades to pass-through (every
    /// request is its own engine batch).
    pub max_batch: usize,
    /// Admission bound: new requests are refused with a typed
    /// `Overloaded` error while this many requests are already queued.
    /// Sized in requests, not bytes — the queue holds decoded ops, so
    /// the byte bound is `max_queue × max_frame_bytes`.
    pub max_queue: usize,
}

impl Default for BatcherConfig {
    /// `max_batch` 64 (the warm sweet spot in BENCH_engine.json),
    /// `max_queue` 1024 (16 full batches of headroom before shedding).
    fn default() -> Self {
        BatcherConfig {
            max_batch: 64,
            max_queue: 1024,
        }
    }
}

/// What [`Batcher::submit`] did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitOutcome {
    /// Queued; a response will arrive on the reply channel.
    Accepted,
    /// Refused: the queue is at `max_queue`. The op did not execute and
    /// no response will arrive — the caller answers `Overloaded`.
    Overloaded,
    /// Refused: the batcher has shut down. The caller answers
    /// `Shutdown`.
    ShuttingDown,
}

/// One queued request: the op, its routing metadata, and the channel
/// its response travels back on.
pub(crate) struct Pending {
    /// Registry name of the target model.
    pub model: String,
    /// The op to execute.
    pub op: AnyOp,
    /// Client-chosen request id, echoed in the response.
    pub request_id: u64,
    /// When the request's frame finished decoding (anchors both the
    /// request's deadline budget and the end-to-end latency histogram).
    pub received_at: Instant,
    /// Absolute expiry (the wire budget anchored at `received_at`);
    /// `None` means the request waits as long as it takes.
    pub deadline: Option<Instant>,
    /// Where the response goes (a connection's writer queue).
    pub reply: mpsc::Sender<Outgoing>,
}

/// One response ready to be written back to a connection.
pub(crate) struct Outgoing {
    /// Echoed request id.
    pub request_id: u64,
    /// Latency anchor (see [`Pending::received_at`]).
    pub received_at: Instant,
    /// The typed response.
    pub response: Response,
}

struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    config: BatcherConfig,
}

impl Shared {
    /// Locks the queue, recovering from poisoning (see module docs).
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The batcher: a shared queue plus the worker thread draining it into
/// [`ModelRegistry::execute_batch`].
pub(crate) struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
    /// Batches dispatched so far; read by the unit tests (the
    /// user-facing count lives in [`ServeMetrics`]).
    #[cfg_attr(not(test), allow(dead_code))]
    dispatched: Arc<AtomicU64>,
}

impl Batcher {
    /// Spawns the worker thread; fails only if the OS refuses a thread
    /// (resource exhaustion), which the caller surfaces as an I/O error
    /// instead of a panic.
    pub(crate) fn new(
        registry: Arc<ModelRegistry>,
        config: BatcherConfig,
        metrics: Arc<ServeMetrics>,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            config: BatcherConfig {
                max_batch: config.max_batch.max(1),
                ..config
            },
        });
        let dispatched = Arc::new(AtomicU64::new(0));
        let worker = {
            let shared = Arc::clone(&shared);
            let dispatched = Arc::clone(&dispatched);
            thread::Builder::new()
                .name("factorhd-batcher".into())
                .spawn(move || worker_loop(&shared, &registry, &metrics, &dispatched))?
        };
        Ok(Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
            dispatched,
        })
    }

    /// Enqueues one request, refusing typed-ly when the queue is at its
    /// admission bound or the batcher has shut down (the request is
    /// dropped and no reply will arrive in either refusal case).
    pub(crate) fn submit(&self, pending: Pending) -> SubmitOutcome {
        let mut queue = self.shared.lock_queue();
        if queue.shutdown {
            return SubmitOutcome::ShuttingDown;
        }
        if queue.pending.len() >= self.shared.config.max_queue {
            return SubmitOutcome::Overloaded;
        }
        queue.pending.push_back(pending);
        // Wake the worker if it is idle; a busy worker finds this
        // request queued when its current batch completes.
        self.shared.wake.notify_one();
        SubmitOutcome::Accepted
    }

    /// Engine batches dispatched so far (test observability).
    #[cfg(test)]
    pub(crate) fn batches_dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Flushes every queued request and stops the worker. Idempotent.
    pub(crate) fn shutdown(&self) {
        {
            let mut queue = self.shared.lock_queue();
            queue.shutdown = true;
            self.shared.wake.notify_one();
        }
        let worker = self
            .worker
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    shared: &Shared,
    registry: &ModelRegistry,
    metrics: &ServeMetrics,
    dispatched: &AtomicU64,
) {
    let max_batch = shared.config.max_batch;
    loop {
        let batch: Vec<Pending> = {
            let mut queue = shared.lock_queue();
            while queue.pending.is_empty() && !queue.shutdown {
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            if queue.pending.is_empty() {
                // Shut down and fully flushed.
                return;
            }
            let take = queue.pending.len().min(max_batch);
            queue.pending.drain(..take).collect()
        };
        // Chaos site: lets fault-injection tests hold the queue at its
        // admission bound deterministically (the worker sleeps here,
        // outside the lock, so `submit` keeps refusing typed-ly).
        failpoint::sleep("serve/batcher_stall");
        // Count before dispatching so an observer that has already
        // received a reply sees the batch that produced it.
        dispatched.fetch_add(1, Ordering::Relaxed);
        dispatch(registry, metrics, batch);
    }
}

/// Runs one coalesced batch through the engine and scatters the typed
/// results back to each request's connection by request id. Requests
/// whose deadline has already passed are answered `DeadlineExceeded`
/// here, at dequeue, without executing.
fn dispatch(registry: &ModelRegistry, metrics: &ServeMetrics, batch: Vec<Pending>) {
    let now = Instant::now();
    let mut ops = Vec::with_capacity(batch.len());
    let mut routes = Vec::with_capacity(batch.len());
    for pending in batch {
        if pending.deadline.is_some_and(|deadline| now >= deadline) {
            metrics.deadline_expired();
            let _ = pending.reply.send(Outgoing {
                request_id: pending.request_id,
                received_at: pending.received_at,
                response: Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired while queued; op not executed".into(),
                },
            });
            continue;
        }
        ops.push((ModelId::new(&pending.model), pending.op));
        routes.push((pending.request_id, pending.received_at, pending.reply));
    }
    if ops.is_empty() {
        return;
    }
    metrics.batch_dispatched(ops.len() as u64);
    let results = registry.execute_batch(&ops);
    for ((request_id, received_at, reply), result) in routes.into_iter().zip(results) {
        let response = match result {
            Ok(output) => Response::Output(output),
            Err(err) => {
                let code = engine_error_code(&err);
                if code == ErrorCode::OpPanicked {
                    metrics.op_panicked();
                }
                Response::Error {
                    code,
                    message: err.to_string(),
                }
            }
        };
        // A send error means the connection is gone; the response is
        // dropped, matching what TCP would do to it anyway.
        let _ = reply.send(Outgoing {
            request_id,
            received_at,
            response,
        });
    }
}

/// Maps an engine failure onto its wire error code.
fn engine_error_code(err: &EngineError) -> ErrorCode {
    match err {
        EngineError::UnknownModel { .. } => ErrorCode::UnknownModel,
        EngineError::OpPanicked { .. } => ErrorCode::OpPanicked,
        _ => ErrorCode::Engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorhd_core::TaxonomyBuilder;
    use factorhd_engine::failpoint::FailMode;
    use factorhd_engine::{EncodeScene, EngineConfig, ModelState};
    use std::time::Duration;

    /// The result of draining one reply receiver after `n` submissions.
    fn expect_outputs(rx: &mpsc::Receiver<Outgoing>, n: usize) -> Vec<Outgoing> {
        (0..n)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("response within timeout")
            })
            .collect()
    }

    fn test_registry() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        let taxonomy = TaxonomyBuilder::new(256)
            .seed(11)
            .class("animal", &[4])
            .class("color", &[4])
            .build()
            .expect("valid taxonomy");
        registry.install(
            "m",
            ModelState::new(taxonomy, EngineConfig::default()).expect("valid model"),
        );
        registry
    }

    fn encode_op(registry: &ModelRegistry) -> AnyOp {
        let mut rng = hdc::rng_from_seed(3);
        let object = registry
            .get("m")
            .expect("installed")
            .state()
            .taxonomy()
            .sample_object(&mut rng);
        AnyOp::Encode(EncodeScene {
            scene: factorhd_core::Scene::single(object),
        })
    }

    fn pending(op: &AnyOp, id: u64, reply: &mpsc::Sender<Outgoing>) -> Pending {
        Pending {
            model: "m".into(),
            op: op.clone(),
            request_id: id,
            received_at: Instant::now(),
            deadline: None,
            reply: reply.clone(),
        }
    }

    fn batcher(registry: &Arc<ModelRegistry>, config: BatcherConfig) -> Batcher {
        Batcher::new(Arc::clone(registry), config, Arc::new(ServeMetrics::new()))
            .expect("spawn batcher worker")
    }

    /// Serializes the tests that arm the (process-global)
    /// `serve/batcher_stall` failpoint.
    static STALL_FAILPOINT: Mutex<()> = Mutex::new(());

    fn stall_lock() -> std::sync::MutexGuard<'static, ()> {
        STALL_FAILPOINT
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until the worker has drained the queue (it is then
    /// stalled or executing what it took).
    fn wait_until_drained(batcher: &Batcher) {
        while !batcher.shared.lock_queue().pending.is_empty() {
            thread::yield_now();
        }
    }

    /// Work conservation: a lone request on an idle worker is answered
    /// with no further submission and no shutdown, as its own batch.
    #[test]
    fn idle_worker_dispatches_lone_request() {
        let registry = test_registry();
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch: 64,
                max_queue: 4096,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        assert_eq!(
            batcher.submit(pending(&op, 42, &tx)),
            SubmitOutcome::Accepted
        );
        let reply = expect_outputs(&rx, 1).pop().expect("one reply");
        assert_eq!(reply.request_id, 42);
        assert!(matches!(reply.response, Response::Output(_)));
        assert_eq!(batcher.batches_dispatched(), 1);
    }

    /// Coalescing under load: `max_batch` requests that arrive while the
    /// worker is busy with a first request go out together as the next
    /// batch.
    #[test]
    fn requests_queued_while_busy_coalesce() {
        let _guard = stall_lock();
        let registry = test_registry();
        failpoint::arm(
            "serve/batcher_stall",
            FailMode::Sleep(Duration::from_millis(100)),
        );
        let max_batch = 8;
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch,
                max_queue: 4096,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        assert_eq!(
            batcher.submit(pending(&op, 0, &tx)),
            SubmitOutcome::Accepted
        );
        wait_until_drained(&batcher);
        for id in 1..=max_batch as u64 {
            assert_eq!(
                batcher.submit(pending(&op, id, &tx)),
                SubmitOutcome::Accepted
            );
        }
        let replies = expect_outputs(&rx, max_batch + 1);
        failpoint::disarm("serve/batcher_stall");
        assert_eq!(
            batcher.batches_dispatched(),
            2,
            "lone request, then one full batch"
        );
        let mut ids: Vec<u64> = replies.iter().map(|o| o.request_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..=max_batch as u64).collect::<Vec<_>>());
        for reply in &replies {
            assert!(matches!(reply.response, Response::Output(_)));
        }
    }

    /// Shutdown flush: requests still queued behind a stalled worker are
    /// all dispatched before the worker exits.
    #[test]
    fn shutdown_flushes_queued_requests() {
        let _guard = stall_lock();
        let registry = test_registry();
        failpoint::arm(
            "serve/batcher_stall",
            FailMode::Sleep(Duration::from_millis(50)),
        );
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch: 64,
                max_queue: 4096,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        assert_eq!(
            batcher.submit(pending(&op, 0, &tx)),
            SubmitOutcome::Accepted
        );
        wait_until_drained(&batcher);
        for id in 1..5 {
            assert_eq!(
                batcher.submit(pending(&op, id, &tx)),
                SubmitOutcome::Accepted
            );
        }
        batcher.shutdown();
        failpoint::disarm("serve/batcher_stall");
        let mut ids: Vec<u64> = expect_outputs(&rx, 5)
            .iter()
            .map(|o| o.request_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "flush may not drop requests");
        // After shutdown, submissions are refused.
        assert_eq!(
            batcher.submit(pending(&op, 99, &tx)),
            SubmitOutcome::ShuttingDown
        );
    }

    /// `max_batch = 1` degenerates to pass-through: every request is
    /// its own engine batch.
    #[test]
    fn max_batch_one_is_pass_through() {
        let registry = test_registry();
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch: 1,
                max_queue: 4096,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        for id in 0..3 {
            assert_eq!(
                batcher.submit(pending(&op, id, &tx)),
                SubmitOutcome::Accepted
            );
            let reply = expect_outputs(&rx, 1).pop().expect("one reply");
            assert_eq!(reply.request_id, id);
        }
        assert_eq!(
            batcher.batches_dispatched(),
            3,
            "pass-through means one batch per request"
        );
    }

    /// Unknown models come back as typed error responses, not dropped
    /// requests.
    #[test]
    fn unknown_model_yields_typed_error() {
        let registry = test_registry();
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch: 1,
                max_queue: 4096,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        let mut missing = pending(&op, 7, &tx);
        missing.model = "no-such-model".into();
        assert_eq!(batcher.submit(missing), SubmitOutcome::Accepted);
        let reply = expect_outputs(&rx, 1).pop().expect("one reply");
        match &reply.response {
            Response::Error { code, .. } => assert_eq!(*code, ErrorCode::UnknownModel),
            other => panic!("expected error, got {other:?}"),
        }
    }

    /// Admission control: with the worker stalled, submissions beyond
    /// `max_queue` are refused as `Overloaded`, and every accepted
    /// request is still answered once the stall clears.
    #[test]
    fn queue_at_capacity_refuses_overloaded() {
        let _guard = stall_lock();
        let registry = test_registry();
        failpoint::arm(
            "serve/batcher_stall",
            FailMode::Sleep(Duration::from_millis(100)),
        );
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch: 2,
                max_queue: 3,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        // The worker grabs up to max_batch then stalls 100 ms; keep
        // submitting until the queue itself reports full.
        let mut accepted = 0u64;
        let mut shed = 0u64;
        for id in 0..64 {
            match batcher.submit(pending(&op, id, &tx)) {
                SubmitOutcome::Accepted => accepted += 1,
                SubmitOutcome::Overloaded => shed += 1,
                SubmitOutcome::ShuttingDown => panic!("not shutting down"),
            }
        }
        failpoint::disarm("serve/batcher_stall");
        assert!(shed > 0, "64 submissions into a 3-deep queue must shed");
        // Every *accepted* request is answered — sheds are the caller's
        // to answer, and none of them ever reach the queue.
        let replies = expect_outputs(&rx, accepted as usize);
        assert_eq!(replies.len() as u64, accepted);
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "no replies beyond the accepted count"
        );
    }

    /// Deadline enforcement: a request whose deadline has passed by
    /// dispatch time is answered `DeadlineExceeded` without executing;
    /// a fresh one in the same batch still runs.
    #[test]
    fn expired_deadline_is_answered_at_dequeue() {
        let _guard = stall_lock();
        let registry = test_registry();
        failpoint::arm(
            "serve/batcher_stall",
            FailMode::Sleep(Duration::from_millis(30)),
        );
        let batcher = batcher(
            &registry,
            BatcherConfig {
                max_batch: 2,
                max_queue: 4096,
            },
        );
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        let mut expired = pending(&op, 1, &tx);
        // Already expired when dispatched (the stall guarantees ≥30 ms
        // in queue against a 1 ms budget).
        expired.deadline = Some(Instant::now() + Duration::from_millis(1));
        let fresh = pending(&op, 2, &tx);
        assert_eq!(batcher.submit(expired), SubmitOutcome::Accepted);
        assert_eq!(batcher.submit(fresh), SubmitOutcome::Accepted);
        let replies = expect_outputs(&rx, 2);
        failpoint::disarm("serve/batcher_stall");
        for reply in &replies {
            match reply.request_id {
                1 => match &reply.response {
                    Response::Error { code, .. } => {
                        assert_eq!(*code, ErrorCode::DeadlineExceeded)
                    }
                    other => panic!("expected deadline error, got {other:?}"),
                },
                2 => assert!(matches!(reply.response, Response::Output(_))),
                id => panic!("unexpected request id {id}"),
            }
        }
    }
}
