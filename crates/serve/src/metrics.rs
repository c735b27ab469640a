//! Per-server serving telemetry, layered on the engine's metrics
//! machinery (docs/OBSERVABILITY.md).
//!
//! Unlike the engine's process-global tables, serving metrics are
//! per-[`Server`](crate::Server): each server owns one [`ServeMetrics`],
//! so concurrent servers (and tests) never bleed counts into each
//! other. Counters are plain relaxed atomics; the two distributions —
//! coalesced engine-batch sizes and end-to-end request latency — reuse
//! the engine's [`LogHistogram`] (same log2 buckets, same
//! conservative-quantile convention, same `metrics-off` /
//! `set_metrics_recording(false)` gate).
//!
//! A snapshot travels to clients as [`ServingStats`] via the protocol's
//! `Stats` op, with each histogram condensed to a [`HistogramSummary`]
//! (count + p50/p95/p99) to keep the response frame small.

use std::sync::atomic::{AtomicU64, Ordering};

use factorhd_engine::metrics::{HistogramSnapshot, LogHistogram};

/// A histogram condensed for the wire: observation count plus the
/// conservative p50/p95/p99 bucket edges (values are never understated
/// by more than one power of two; see the engine's
/// [`HistogramSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Total observations recorded.
    pub count: u64,
    /// Median (upper edge of the bucket holding rank ⌈0.50·count⌉).
    pub p50: u64,
    /// 95th percentile (same bucket-edge convention).
    pub p95: u64,
    /// 99th percentile (same bucket-edge convention).
    pub p99: u64,
}

impl HistogramSummary {
    /// Condenses a full snapshot to the wire summary.
    pub fn from_snapshot(snapshot: &HistogramSnapshot) -> Self {
        HistogramSummary {
            count: snapshot.count,
            p50: snapshot.p50,
            p95: snapshot.p95,
            p99: snapshot.p99,
        }
    }
}

/// A point-in-time copy of one server's counters and distributions —
/// what the protocol's `Stats` op returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Connections the accept loop has handed to reader threads.
    pub connections_accepted: u64,
    /// Connections whose reader thread has exited.
    pub connections_closed: u64,
    /// Frames that decoded into a request (op, stats, or ping).
    pub requests_received: u64,
    /// Response frames written back to clients.
    pub responses_sent: u64,
    /// Frames that failed to decode (answered with a typed protocol
    /// error when the request id could be salvaged).
    pub protocol_errors: u64,
    /// Engine batches the batcher has dispatched.
    pub batches_dispatched: u64,
    /// Distribution of coalesced engine-batch sizes.
    pub coalesced_batch: HistogramSummary,
    /// Distribution of end-to-end request latency (frame decoded →
    /// response written), in nanoseconds. **Admitted requests only** —
    /// shed and deadline-expired requests are answered in microseconds
    /// and would drag the distribution into meaninglessness under
    /// overload (docs/ROBUSTNESS.md, "Load shedding").
    pub e2e_latency_ns: HistogramSummary,
    /// Requests refused at admission because the batcher queue was full
    /// (answered with `ErrorCode::Overloaded`, never executed).
    pub requests_shed: u64,
    /// Requests whose deadline expired while queued (answered with
    /// `ErrorCode::DeadlineExceeded` at dequeue, never executed).
    pub deadline_expired: u64,
    /// Ops whose execution panicked; the panic was contained to that
    /// request (`ErrorCode::OpPanicked`) and the batch completed.
    pub ops_panicked: u64,
}

/// One server's telemetry: construct-free counters plus the two
/// serving histograms. Shared as an `Arc` between the accept loop,
/// connection threads, and the batcher worker.
#[derive(Default)]
pub struct ServeMetrics {
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
    requests_received: AtomicU64,
    responses_sent: AtomicU64,
    protocol_errors: AtomicU64,
    batches_dispatched: AtomicU64,
    requests_shed: AtomicU64,
    deadline_expired: AtomicU64,
    ops_panicked: AtomicU64,
    coalesced_batch: LogHistogram,
    e2e_latency_ns: LogHistogram,
}

impl ServeMetrics {
    /// A new, zeroed metrics block.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    pub(crate) fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_received(&self) {
        self.requests_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn response_sent(&self) {
        self.responses_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn batch_dispatched(&self, coalesced: u64) {
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.coalesced_batch.record(coalesced);
    }

    pub(crate) fn e2e_latency(&self, nanos: u64) {
        self.e2e_latency_ns.record(nanos);
    }

    pub(crate) fn request_shed(&self) {
        self.requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn op_panicked(&self) {
        self.ops_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// The full (bucketed) snapshot of the coalesced-batch-size
    /// distribution, for bench documents that want the buckets.
    pub fn coalesced_batch_snapshot(&self) -> HistogramSnapshot {
        self.coalesced_batch.snapshot()
    }

    /// The full (bucketed) snapshot of the end-to-end latency
    /// distribution.
    pub fn e2e_latency_snapshot(&self) -> HistogramSnapshot {
        self.e2e_latency_ns.snapshot()
    }

    /// Copies every counter and condenses both histograms.
    pub fn stats(&self) -> ServingStats {
        ServingStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            requests_received: self.requests_received.load(Ordering::Relaxed),
            responses_sent: self.responses_sent.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            batches_dispatched: self.batches_dispatched.load(Ordering::Relaxed),
            coalesced_batch: HistogramSummary::from_snapshot(&self.coalesced_batch.snapshot()),
            e2e_latency_ns: HistogramSummary::from_snapshot(&self.e2e_latency_ns.snapshot()),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            ops_panicked: self.ops_panicked.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let metrics = ServeMetrics::new();
        metrics.connection_accepted();
        metrics.request_received();
        metrics.request_received();
        metrics.response_sent();
        metrics.protocol_error();
        metrics.batch_dispatched(2);
        metrics.batch_dispatched(64);
        metrics.e2e_latency(1_000);
        metrics.request_shed();
        metrics.deadline_expired();
        metrics.deadline_expired();
        metrics.op_panicked();
        metrics.connection_closed();

        let stats = metrics.stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_closed, 1);
        assert_eq!(stats.requests_received, 2);
        assert_eq!(stats.responses_sent, 1);
        assert_eq!(stats.protocol_errors, 1);
        assert_eq!(stats.batches_dispatched, 2);
        assert_eq!(stats.requests_shed, 1);
        assert_eq!(stats.deadline_expired, 2);
        assert_eq!(stats.ops_panicked, 1);
        if factorhd_engine::metrics::snapshot().recording {
            assert_eq!(stats.coalesced_batch.count, 2);
            assert_eq!(stats.e2e_latency_ns.count, 1);
        }
    }
}
