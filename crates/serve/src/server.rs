//! The threaded TCP server: accept loop, per-connection reader/writer
//! threads, and the shared batcher.
//!
//! # Thread anatomy
//!
//! ```text
//! accept loop ──► reader thread (per connection)
//!                   │  decode frame → Request
//!                   │    op    → batcher queue ─► batcher worker
//!                   │    stats │ ping → answered inline    │
//!                   ▼                                      │
//!                 writer thread ◄──── responses by id ◄────┘
//!                   encode frame, write, record e2e latency
//! ```
//!
//! Each connection gets one reader and one writer thread joined by an
//! mpsc channel; the batcher worker holds a clone of that channel's
//! sender for every in-flight op, so responses are scattered back to
//! the right connection by construction. The writer drains its channel
//! greedily and flushes once per drain, so a coalesced batch's worth of
//! responses to one client goes out in few syscalls.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (also run on drop) is graceful: stop accepting,
//! half-close every connection's read side (clients see their writes
//! rejected, queued responses still deliverable), flush the batcher so
//! every accepted op is answered, then join every thread. No accepted
//! request is dropped; clients observe clean EOF after their last
//! response.
//!
//! # Robustness
//!
//! (docs/ROBUSTNESS.md.) Admission refusals from the batcher become
//! typed `Overloaded` responses; requests carrying a wire deadline are
//! anchored at frame-decode time and expire typed-ly at dequeue. Reader
//! threads enforce two read budgets against slowloris peers: an **idle
//! timeout** between frames (expiry is a quiet close — the peer just
//! had nothing to say) and a **frame timeout** once a frame's first
//! byte arrives (expiry is an error close — the peer started a frame
//! and stalled). Mutex poisoning is recovered everywhere (`into_inner`;
//! the maps hold plain handles that stay structurally valid), and
//! thread-spawn failures degrade a connection, never the process.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use factorhd_engine::ModelRegistry;

use crate::batcher::{Batcher, BatcherConfig, Outgoing, Pending, SubmitOutcome};
use crate::error::{ErrorCode, ServeError, WireError};
use crate::metrics::{ServeMetrics, ServingStats};
use crate::protocol::{
    self, peek_request_id, write_frame, Request, Response, DEFAULT_MAX_FRAME_BYTES,
};

/// Locks a mutex, recovering from poisoning: server maps hold plain
/// handles/join-handles that stay structurally valid even if a thread
/// panicked while holding the lock, and the server must keep serving.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-connection read/write buffer capacity — above a typical scene-op
/// frame at the dimensions this repo runs, so pipelined traffic costs
/// few syscalls per burst rather than one-plus per frame.
const CONNECTION_BUFFER_BYTES: usize = 1 << 16;

/// Server knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// The batcher's batch cap and admission bound.
    pub batcher: BatcherConfig,
    /// Per-frame payload cap; oversized frames close the connection.
    pub max_frame_bytes: usize,
    /// How long a connection may sit with **no** frame in progress
    /// before the server closes it (quietly — an idle peer is not an
    /// error). `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// How long a frame may take from its first byte to its last once
    /// started; a peer that drip-feeds past this is closed with an
    /// error (slowloris defense). `None` disables the budget.
    pub frame_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    /// Idle connections are kept for 60 s; a started frame has 10 s to
    /// complete.
    fn default() -> Self {
        ServerConfig {
            batcher: BatcherConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            idle_timeout: Some(Duration::from_secs(60)),
            frame_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// Shared state every server thread holds an `Arc` to.
struct Shared {
    metrics: Arc<ServeMetrics>,
    /// The served registry; reader threads answer `ListModels` from it
    /// inline (a lock-free-read listing, never routed through the
    /// batcher).
    registry: Arc<ModelRegistry>,
    shutting_down: AtomicBool,
    max_frame_bytes: usize,
    idle_timeout: Option<Duration>,
    frame_timeout: Option<Duration>,
    /// Read-half clones of live connections keyed by a token, so
    /// shutdown can unblock every reader thread; each entry is removed
    /// when its connection closes (no fd retention).
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_token: AtomicU64,
    /// Reader-thread handles, joined on shutdown.
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running network front end over a [`ModelRegistry`].
///
/// ```no_run
/// use std::sync::Arc;
/// use factorhd_engine::ModelRegistry;
/// use factorhd_serve::{Server, ServerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = Arc::new(ModelRegistry::new());
/// let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default())?;
/// println!("serving on {}", server.local_addr());
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    batcher: Arc<Batcher>,
    accept_worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop and batcher worker.
    pub fn start(
        registry: Arc<ModelRegistry>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let shared = Arc::new(Shared {
            metrics: Arc::clone(&metrics),
            registry: Arc::clone(&registry),
            shutting_down: AtomicBool::new(false),
            max_frame_bytes: config.max_frame_bytes,
            idle_timeout: config.idle_timeout,
            frame_timeout: config.frame_timeout,
            connections: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let batcher = Arc::new(Batcher::new(registry, config.batcher, metrics)?);
        let accept_worker = {
            let shared = Arc::clone(&shared);
            let batcher = Arc::clone(&batcher);
            thread::Builder::new()
                .name("factorhd-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &batcher))?
        };
        Ok(Server {
            addr,
            shared,
            batcher,
            accept_worker: Mutex::new(Some(accept_worker)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A copy of the server's telemetry, as the `Stats` op reports it.
    pub fn stats(&self) -> ServingStats {
        self.shared.metrics.stats()
    }

    /// The server's metrics block (full histogram snapshots for bench
    /// documents).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Graceful shutdown: stop accepting, flush the batcher so every
    /// accepted request is answered, then join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a wake-up connection; it checks
        // the flag before handing the connection to a reader.
        let _ = TcpStream::connect(self.addr);
        if let Some(worker) = lock_recovering(&self.accept_worker).take() {
            let _ = worker.join();
        }
        // Half-close every connection's read side: readers unblock with
        // EOF and stop feeding the batcher; queued responses can still
        // be written.
        for connection in lock_recovering(&self.shared.connections).values() {
            let _ = connection.shutdown(Shutdown::Read);
        }
        // Flush the batcher: every queued op executes and its response
        // lands in some writer's queue before the worker exits.
        self.batcher.shutdown();
        // Readers have EOF'd and the batcher released its reply
        // senders, so writers drain and exit; join everything.
        let workers = std::mem::take(&mut *lock_recovering(&self.shared.workers));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, batcher: &Arc<Batcher>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (fd pressure, aborted
                // handshake); back off briefly instead of spinning.
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        shared.metrics.connection_accepted();
        let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_half) = stream.try_clone() {
            lock_recovering(&shared.connections).insert(token, read_half);
        }
        let worker = {
            let shared = Arc::clone(shared);
            let batcher = Arc::clone(batcher);
            thread::Builder::new()
                .name("factorhd-conn".into())
                .spawn(move || serve_connection(stream, token, &shared, &batcher))
        };
        match worker {
            Ok(handle) => lock_recovering(&shared.workers).push(handle),
            Err(_) => {
                // Thread exhaustion degrades this connection (dropped,
                // peer sees EOF), never the whole server.
                lock_recovering(&shared.connections).remove(&token);
                shared.metrics.connection_closed();
            }
        }
    }
}

/// Reader side of one connection; spawns and joins its writer.
fn serve_connection(stream: TcpStream, token: u64, shared: &Arc<Shared>, batcher: &Arc<Batcher>) {
    let (reply_tx, reply_rx) = mpsc::channel::<Outgoing>();
    let writer_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            shared.metrics.connection_closed();
            return;
        }
    };
    let writer = {
        let writer_shared = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("factorhd-conn-writer".into())
            .spawn(move || write_loop(writer_stream, &reply_rx, &writer_shared));
        match spawned {
            Ok(handle) => handle,
            Err(_) => {
                // No writer means no way to answer; degrade this
                // connection (peer sees EOF), never the process.
                lock_recovering(&shared.connections).remove(&token);
                shared.metrics.connection_closed();
                return;
            }
        }
    };

    // A second handle to the socket just for adjusting read timeouts
    // (the timed reader flips between the idle and frame budgets).
    let control = stream.try_clone().ok();
    // Sized above a typical scene-op frame so pipelined bursts coalesce
    // into few syscalls instead of one-plus per frame.
    let mut reader = BufReader::with_capacity(CONNECTION_BUFFER_BYTES, stream);
    // Stop reading on clean EOF, idle expiry, I/O failure, a stalled
    // frame, or an oversized frame (the only wire error framing can't
    // recover from — the stream offset is lost).
    while let Ok(Some(payload)) = read_frame_timed(&mut reader, control.as_ref(), shared) {
        match protocol::decode_request(&payload) {
            Ok((request_id, request)) => {
                shared.metrics.request_received();
                let received_at = Instant::now();
                match request {
                    Request::Op {
                        model,
                        op,
                        deadline,
                    } => {
                        let outcome = batcher.submit(Pending {
                            model,
                            op,
                            request_id,
                            received_at,
                            // The wire budget is relative; anchor it at
                            // frame-decode time so client and server
                            // clocks never need to agree.
                            deadline: deadline.map(|budget| received_at + budget),
                            reply: reply_tx.clone(),
                        });
                        let refusal = match outcome {
                            SubmitOutcome::Accepted => None,
                            SubmitOutcome::Overloaded => {
                                shared.metrics.request_shed();
                                Some((
                                    ErrorCode::Overloaded,
                                    "server overloaded: admission queue full; op not executed",
                                ))
                            }
                            SubmitOutcome::ShuttingDown => {
                                Some((ErrorCode::Shutdown, "server is shutting down"))
                            }
                        };
                        if let Some((code, message)) = refusal {
                            let _ = reply_tx.send(Outgoing {
                                request_id,
                                received_at,
                                response: Response::Error {
                                    code,
                                    message: message.into(),
                                },
                            });
                        }
                    }
                    Request::Stats => {
                        let _ = reply_tx.send(Outgoing {
                            request_id,
                            received_at,
                            response: Response::Stats(shared.metrics.stats()),
                        });
                    }
                    Request::Ping => {
                        let _ = reply_tx.send(Outgoing {
                            request_id,
                            received_at,
                            response: Response::Pong,
                        });
                    }
                    Request::ListModels => {
                        let _ = reply_tx.send(Outgoing {
                            request_id,
                            received_at,
                            response: Response::Models(shared.registry.models_info()),
                        });
                    }
                }
            }
            Err(wire_err) => {
                // The frame was intact (length prefix honored) but the
                // payload is malformed: answer with a typed protocol
                // error on the salvaged request id and keep serving.
                shared.metrics.protocol_error();
                let _ = reply_tx.send(Outgoing {
                    request_id: peek_request_id(&payload).unwrap_or(0),
                    received_at: Instant::now(),
                    response: Response::Error {
                        code: ErrorCode::Protocol,
                        message: wire_err.to_string(),
                    },
                });
            }
        }
    }
    // Dropping our sender lets the writer exit once the batcher has
    // delivered (or dropped) every in-flight reply for this connection.
    drop(reply_tx);
    let _ = writer.join();
    lock_recovering(&shared.connections).remove(&token);
    shared.metrics.connection_closed();
}

/// Whether an I/O error is a socket read-timeout expiry (Unix reports
/// `WouldBlock`, Windows `TimedOut`).
fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed frame under the server's two read budgets
/// (module docs, "Robustness"): the **idle** budget while no frame has
/// started (expiry → `Ok(None)`, a quiet close) and the **frame**
/// budget from a frame's first byte to its last (expiry → error — the
/// peer started a frame and stalled). With per-read socket timeouts a
/// drip-feeding peer is bounded by `frame_timeout` of stall per read
/// and `frame_timeout` overall via the elapsed check, so the worst case
/// is ~2× the budget, not forever.
fn read_frame_timed(
    reader: &mut BufReader<TcpStream>,
    control: Option<&TcpStream>,
    shared: &Shared,
) -> Result<Option<Vec<u8>>, ServeError> {
    let set_timeout = |budget: Option<Duration>| {
        if let Some(control) = control {
            let _ = control.set_read_timeout(budget);
        }
    };
    set_timeout(shared.idle_timeout);
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    let mut frame_started: Option<Instant> = None;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                )));
            }
            Ok(n) => {
                if filled == 0 {
                    frame_started = Some(Instant::now());
                    set_timeout(shared.frame_timeout);
                }
                filled += n;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if is_timeout(&err) => {
                if filled == 0 {
                    // Idle expiry between frames: not an error, the
                    // peer just had nothing more to say.
                    return Ok(None);
                }
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame stalled inside length prefix",
                )));
            }
            Err(err) => return Err(ServeError::Io(err)),
        }
    }
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > shared.max_frame_bytes {
        return Err(ServeError::Wire(WireError::FrameTooLarge {
            declared,
            max: shared.max_frame_bytes,
        }));
    }
    let mut payload = vec![0u8; declared];
    let mut got = 0;
    while got < declared {
        if let (Some(started), Some(budget)) = (frame_started, shared.frame_timeout) {
            if started.elapsed() > budget {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame stalled past its read budget",
                )));
            }
        }
        match reader.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame payload",
                )))
            }
            Ok(n) => got += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if is_timeout(&err) => {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame stalled inside payload",
                )))
            }
            Err(err) => return Err(ServeError::Io(err)),
        }
    }
    Ok(Some(payload))
}

/// Writer side of one connection: drain the reply queue greedily,
/// flush once per drain, record end-to-end latency at write time.
fn write_loop(stream: TcpStream, replies: &mpsc::Receiver<Outgoing>, shared: &Arc<Shared>) {
    let mut writer = BufWriter::with_capacity(CONNECTION_BUFFER_BYTES, stream);
    while let Ok(first) = replies.recv() {
        let mut wrote = write_reply(&mut writer, &first, shared);
        while let Ok(next) = replies.try_recv() {
            wrote &= write_reply(&mut writer, &next, shared);
        }
        if !wrote || writer.flush().is_err() {
            // The client is gone; keep draining so batcher sends don't
            // pile up, but stop writing.
            for _ in replies.iter() {}
            return;
        }
    }
}

fn write_reply(writer: &mut impl Write, outgoing: &Outgoing, shared: &Arc<Shared>) -> bool {
    let payload = protocol::encode_response(outgoing.request_id, &outgoing.response);
    if write_frame(writer, &payload).is_err() {
        return false;
    }
    shared.metrics.response_sent();
    // The latency histogram covers **admitted** requests only: sheds and
    // deadline expiries are answered in microseconds without executing,
    // and folding them in would make overload look like a latency win.
    let excluded = matches!(
        &outgoing.response,
        Response::Error {
            code: ErrorCode::Overloaded | ErrorCode::DeadlineExceeded,
            ..
        }
    );
    if !excluded {
        shared
            .metrics
            .e2e_latency(outgoing.received_at.elapsed().as_nanos() as u64);
    }
    true
}
