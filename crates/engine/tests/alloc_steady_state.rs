//! Zero-allocation guarantee for the telemetry record path: every
//! `factorhd_engine::metrics` record primitive — counters, histograms,
//! the per-model table, and the stage timers — must not touch the heap
//! once the process is warm. The tables are statically allocated
//! atomics, so a record is one or two relaxed adds; this test proves it
//! with a counting global allocator, the same technique as the hdc scan
//! steady-state test: only allocations made on the measuring thread
//! count, so no other thread of the test process can blur the
//! measurement.

use factorhd_engine::metrics::{self, Stage, StageTimer};
use factorhd_engine::OpKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates to the system allocator, counting every allocation and
/// reallocation made **on a thread inside [`measured`]** (deallocations
/// are free to happen — the invariant under test is "no new memory", not
/// "no memory"). Allocations by other threads of the test process — the
/// test harness's own main thread, say — are not the code under test and
/// do not count.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs the measured rounds. `const`-initialized
    /// and destructor-free, so reading it from inside the allocator never
    /// allocates or re-enters it.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with this thread's allocations counted, returning how many
/// it made.
fn measured(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// SAFETY: pure delegation to `System`, which upholds the `GlobalAlloc`
// contract; the counter is a side effect invisible to allocation
// semantics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One round of every record primitive the engine's hot paths call.
fn record_round(round: u64) {
    for kind in OpKind::ALL {
        metrics::record_submitted(kind, 3);
        metrics::record_outcomes(kind, 2, 1);
        metrics::record_op_nanos(kind, 1_500 + round);
        metrics::record_group_nanos(kind, 4, 80_000 + round);
    }
    metrics::record_batch_size(64);
    metrics::record_chunk_size(16);
    // Both generations were claimed during warm-up, so these are pure
    // linear-scan + relaxed-add hits.
    metrics::record_model_ops(metrics::UNREGISTERED_GENERATION, 8);
    metrics::record_model_ops(7, 8);
    // Nested spans: Plan wrapping Scan, the deepest shape the engine's
    // instrumentation produces, exercising the exclusive-time flush.
    let plan = StageTimer::enter(Stage::Plan);
    {
        let _scan = StageTimer::enter(Stage::Scan);
        std::hint::black_box(round);
    }
    drop(plan);
    if let Some(started) = metrics::now() {
        metrics::record_op_nanos(OpKind::Rep2, started.elapsed().as_nanos() as u64);
    }
}

#[test]
fn steady_state_metric_recording_performs_zero_heap_allocations() {
    metrics::set_metrics_recording(true);
    metrics::reset();

    // Warm-up: claim this thread's counter shard, the two model-table
    // slots, and pay any one-time clock setup.
    for round in 0..2 {
        record_round(round);
    }

    // Every record primitive runs on the calling thread, so counting this
    // thread's allocations sees all of them.
    let allocations = measured(|| {
        for round in 0..25 {
            record_round(round);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state metric recording must not allocate (saw {allocations} allocations over 25 rounds)"
    );

    // The allocation-free rounds really recorded (27 rounds total since
    // reset) — unless the layer is compiled out, in which case every
    // record path must have stayed a no-op.
    let snapshot = metrics::snapshot();
    if metrics::metrics_compiled_out() {
        assert_eq!(snapshot.batch_sizes.count, 0);
        return;
    }
    let rep2 = &snapshot.ops[OpKind::Rep2.index()];
    assert_eq!(rep2.submitted, 27 * 3);
    assert_eq!(rep2.completed, 27 * 2);
    assert_eq!(rep2.failed, 27);
    // 1 op + 4 group shares + 1 timed observation per round.
    assert_eq!(rep2.latency_ns.count, 27 * 6);
    assert_eq!(snapshot.batch_sizes.count, 27);
    assert_eq!(snapshot.chunk_sizes.count, 27);
    assert_eq!(snapshot.models.len(), 2);
    assert!(snapshot.models.iter().all(|m| m.ops == 27 * 8));
    let spans: u64 = snapshot
        .stages
        .iter()
        .filter(|s| matches!(s.stage, Stage::Plan | Stage::Scan))
        .map(|s| s.count)
        .sum();
    assert_eq!(spans, 27 * 2, "both nested spans must count every round");
}
