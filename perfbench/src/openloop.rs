//! Open-loop load generation over one TCP connection: requests leave on
//! a precomputed Poisson schedule whatever the server's state, and each
//! is timed from when it was *due*, so a stall in the server (or in the
//! generator) is charged to every request it delayed.
//!
//! One sender thread writes frames at their scheduled times; the calling
//! thread reads responses. Those two threads and one connection are the
//! whole load generator.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use factorhd_serve::protocol::{append_frame, decode_response, fnv1a};
use factorhd_serve::{ErrorCode, Response};
use rand::Rng;

use crate::stats;

/// Exponential inter-arrival offsets for rate `rate_per_s` over
/// `duration`, starting at zero.
pub fn poisson_schedule<R: Rng + ?Sized>(
    rate_per_s: f64,
    duration: Duration,
    rng: &mut R,
) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * end * 1.1) as usize + 16);
    while t < end {
        out.push(Duration::from_secs_f64(t));
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s;
    }
    out
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No response arrived before the phase's drain deadline.
    Missing,
    /// The op's output came back.
    Ok,
    /// Refused at admission (`Overloaded`); never executed.
    Refused,
    /// Any other typed error.
    Error,
}

/// The life of one request, in nanoseconds since the generator origin.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When its frame was handed to the socket.
    pub sent_ns: u64,
    /// When its response was fully read.
    pub received_ns: Option<u64>,
    /// How it ended.
    pub outcome: Outcome,
    /// FNV-1a digest of the response payload (the whole frame body,
    /// request id and checksum included).
    pub digest: u64,
    /// The response payload, when the workload asked to keep it.
    pub kept: Option<Vec<u8>>,
}

/// Latency and failure accounting for one phase (a set of records).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Requests scheduled.
    pub attempted: usize,
    /// Responses carrying an op output.
    pub completed: usize,
    /// Admission refusals.
    pub refused: usize,
    /// Typed errors other than refusals.
    pub errors: usize,
    /// Requests never answered in time.
    pub missing: usize,
    /// Due → received latency (µs) of every request, in due order;
    /// infinite for a request that did not complete, so it misses any
    /// latency limit.
    pub latencies_us: Vec<f64>,
    /// Sent − due (µs) for every request: how late the generator ran.
    pub late_us: Vec<f64>,
}

impl PhaseStats {
    /// Accounts `records`.
    pub fn of(records: &[Record]) -> Self {
        let mut s = PhaseStats {
            attempted: records.len(),
            completed: 0,
            refused: 0,
            errors: 0,
            missing: 0,
            latencies_us: Vec::with_capacity(records.len()),
            late_us: Vec::with_capacity(records.len()),
        };
        for r in records {
            s.late_us
                .push(r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e3);
            let mut latency = f64::INFINITY;
            match r.outcome {
                Outcome::Ok => {
                    s.completed += 1;
                    let received = r.received_ns.expect("completed requests were received");
                    latency = received.saturating_sub(r.due_ns) as f64 / 1e3;
                }
                Outcome::Refused => s.refused += 1,
                Outcome::Error => s.errors += 1,
                Outcome::Missing => s.missing += 1,
            }
            s.latencies_us.push(latency);
        }
        s
    }

    /// Latency percentile `q` (µs) over every request, or `None` when
    /// the sample does not support `q`.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        stats::percentile(&stats::sorted(&self.latencies_us), q)
    }
}

/// Sender-side per-request spans (`start`, `end` of encode + write).
pub type SendSpans = Vec<(u64, Instant, Instant)>;

/// One connection to the server and every request sent on it.
pub struct Generator {
    stream: TcpStream,
    origin: Instant,
    records: Vec<Record>,
    inbuf: Vec<u8>,
    /// `(request id, decode start, decode end)` when tracing.
    pub recv_spans: Vec<(u64, Instant, Instant)>,
    /// Whether to record per-request spans.
    pub tracing: bool,
}

/// Bound on one response frame, far above any this benchmark produces.
const MAX_RESPONSE_BYTES: usize = 1 << 24;

impl Generator {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr, origin: Instant) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(Generator {
            stream,
            origin,
            records: Vec::new(),
            inbuf: Vec::with_capacity(1 << 16),
            recv_spans: Vec::new(),
            tracing: false,
        })
    }

    /// Every request sent so far, indexed by request id.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Sends one request per `schedule` entry (offsets from now), with
    /// consecutive request ids starting at `records().len()`. `encode`
    /// builds the payload for a request id; `keep` says whether to keep
    /// its response payload. Returns once every request of the phase is
    /// answered or `drain` has passed since the last one was due; the
    /// phase's records are then `records()[first..]`.
    ///
    /// # Errors
    ///
    /// Socket failures and undecodable responses.
    pub fn run_phase(
        &mut self,
        schedule: &[Duration],
        encode: &(dyn Fn(u64) -> Vec<u8> + Sync),
        keep: &dyn Fn(u64) -> bool,
        drain: Duration,
    ) -> io::Result<(usize, SendSpans)> {
        let first = self.records.len();
        let start = Instant::now();
        for offset in schedule {
            self.records.push(Record {
                due_ns: self.since_origin(start + *offset),
                sent_ns: 0,
                received_ns: None,
                outcome: Outcome::Missing,
                digest: 0,
                kept: None,
            });
        }
        let deadline = start + schedule.last().copied().unwrap_or_default() + drain;
        let mut writer = self.stream.try_clone()?;
        let tracing = self.tracing;
        let (sent, spans) = thread::scope(|scope| -> io::Result<_> {
            let sender = scope
                .spawn(move || send_schedule(&mut writer, start, schedule, first, encode, tracing));
            let received = self.receive_until(first, deadline, keep);
            let sent = sender.join().expect("sender thread does not panic")?;
            received?;
            Ok(sent)
        })?;
        for (i, at) in sent.into_iter().enumerate() {
            self.records[first + i].sent_ns = self.since_origin(at);
        }
        Ok((first, spans))
    }

    /// Keeps reading responses until every request from `first` on is
    /// answered or `deadline` passes.
    pub fn receive_until(
        &mut self,
        first: usize,
        deadline: Instant,
        keep: &dyn Fn(u64) -> bool,
    ) -> io::Result<()> {
        let mut outstanding = self.records[first..]
            .iter()
            .filter(|r| r.outcome == Outcome::Missing)
            .count();
        let mut chunk = vec![0u8; 1 << 16];
        while outstanding > 0 && Instant::now() < deadline {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    let received_at = Instant::now();
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    outstanding -= self.take_frames(first, received_at, keep)?;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Parses every complete frame in the input buffer; returns how many
    /// answered requests at or after `first`.
    fn take_frames(
        &mut self,
        first: usize,
        received_at: Instant,
        keep: &dyn Fn(u64) -> bool,
    ) -> io::Result<usize> {
        let mut consumed = 0;
        let mut answered = 0;
        let received_ns = self.since_origin(received_at);
        while self.inbuf.len() - consumed >= 4 {
            let len_bytes: [u8; 4] = self.inbuf[consumed..consumed + 4]
                .try_into()
                .expect("four bytes");
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len > MAX_RESPONSE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversized response frame",
                ));
            }
            if self.inbuf.len() - consumed - 4 < len {
                break;
            }
            let payload = &self.inbuf[consumed + 4..consumed + 4 + len];
            let decode_start = Instant::now();
            let (id, response) = decode_response(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let decode_end = Instant::now();
            if self.tracing {
                self.recv_spans.push((id, decode_start, decode_end));
            }
            let record = usize::try_from(id)
                .ok()
                .and_then(|i| self.records.get_mut(i))
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown request id"))?;
            if record.outcome != Outcome::Missing {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "duplicate response",
                ));
            }
            record.outcome = match response {
                Response::Output(_) => Outcome::Ok,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                } => Outcome::Refused,
                _ => Outcome::Error,
            };
            record.received_ns = Some(received_ns);
            record.digest = fnv1a(payload);
            if keep(id) {
                record.kept = Some(payload.to_vec());
            }
            if id as usize >= first {
                answered += 1;
            }
            consumed += 4 + len;
        }
        self.inbuf.drain(..consumed);
        Ok(answered)
    }
}

/// How close to a due time the sender stops sleeping and spins.
const SPIN_WINDOW: Duration = Duration::from_millis(2);

/// The sender thread: waits for each due time, then writes every frame
/// that is due in one write. Returns each request's send instant.
fn send_schedule(
    writer: &mut TcpStream,
    start: Instant,
    schedule: &[Duration],
    first: usize,
    encode: &(dyn Fn(u64) -> Vec<u8> + Sync),
    tracing: bool,
) -> io::Result<(Vec<Instant>, SendSpans)> {
    let mut sent = Vec::with_capacity(schedule.len());
    let mut spans = Vec::with_capacity(if tracing { schedule.len() } else { 0 });
    let mut buf = Vec::with_capacity(1 << 16);
    let mut next = 0;
    while next < schedule.len() {
        let due = start + schedule[next];
        let now = Instant::now();
        // Sleep through long gaps, but spin the last stretch: a sleeping
        // thread's wake-up is late by up to milliseconds on a virtual
        // CPU, and that lateness would be charged to the server.
        if due > now + SPIN_WINDOW {
            thread::sleep(due - now - SPIN_WINDOW);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let now = Instant::now();
        buf.clear();
        let batch_start = next;
        while next < schedule.len() && start + schedule[next] <= now {
            let id = (first + next) as u64;
            let encode_start = Instant::now();
            append_frame(&mut buf, &encode(id));
            if tracing {
                spans.push((id, encode_start, Instant::now()));
            }
            next += 1;
        }
        writer.write_all(&buf)?;
        let written = Instant::now();
        sent.extend(std::iter::repeat_n(now, next - batch_start));
        if tracing {
            for span in &mut spans[batch_start..] {
                span.2 = written;
            }
        }
    }
    Ok((sent, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(due: u64, sent: u64, received: Option<u64>, outcome: Outcome) -> Record {
        Record {
            due_ns: due,
            sent_ns: sent,
            received_ns: received,
            outcome,
            digest: 0,
            kept: None,
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // Sent 400 µs late (a generator stall): the wait counts.
        let stats = PhaseStats::of(&[record(1_000_000, 1_400_000, Some(1_500_000), Outcome::Ok)]);
        assert_eq!(stats.latencies_us, vec![500.0]);
        assert_eq!(stats.late_us, vec![400.0]);
    }

    #[test]
    fn unanswered_and_refused_requests_miss_every_limit() {
        let mut records: Vec<Record> = (0..990)
            .map(|i| record(i * 1000, i * 1000, Some(i * 1000 + 100_000), Outcome::Ok))
            .collect();
        records.extend((0..5).map(|_| record(0, 0, None, Outcome::Missing)));
        records.extend((0..5).map(|_| record(0, 0, Some(10), Outcome::Refused)));
        let stats = PhaseStats::of(&records);
        assert_eq!(stats.attempted, 1000);
        assert_eq!((stats.completed, stats.missing, stats.refused), (990, 5, 5));
        assert_eq!(stats.latencies_us.len(), 1000);
        // Ten non-completions sit above every latency: p99 is still a
        // real latency, but one more failure would push it to infinity.
        assert_eq!(stats.percentile_us(0.99), Some(100.0));
        let mut more = records.clone();
        more[0].outcome = Outcome::Error;
        assert_eq!(
            PhaseStats::of(&more).percentile_us(0.99),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let mut rng = hdc::rng_from_seed(11);
        let schedule = poisson_schedule(2000.0, Duration::from_secs(10), &mut rng);
        let n = schedule.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        assert!(*schedule.last().expect("nonempty") < Duration::from_secs(10));
        let again = poisson_schedule(2000.0, Duration::from_secs(10), &mut hdc::rng_from_seed(11));
        assert_eq!(schedule, again);
    }
}
