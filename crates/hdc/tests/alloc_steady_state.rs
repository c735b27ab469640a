//! Zero-allocation guarantee for the serving-path scans: once warm, the
//! caller-buffer scan variants (`top_k_into`, `top_k_many_into`,
//! `dots_into`, `above_threshold_into`) must not touch the heap at all —
//! the bounded candidate heaps live in `hdc`'s thread-local scan
//! scratch, the final ordering is an in-place unstable sort, and the
//! output buffers are caller-owned and reused.
//!
//! Proven with a counting global allocator: every `alloc`/`realloc` made
//! on the measuring thread increments a counter, and the steady-state
//! scan loop must leave it untouched. The `_into` scans run entirely on
//! the calling thread, so nothing under test escapes the count, while
//! allocations by other threads of the test process cannot blur it. The
//! queries cover every packed form: ternary masks and integer
//! accumulators with one to several magnitude planes, including the
//! all-zero residual.
//!
//! The loop runs with **metrics recording enabled**: the scan stage
//! timers (`hdc::stage`) sit inside every `_into` scan, so this test
//! also proves the telemetry layer keeps the zero-allocation guarantee
//! (its tables are statically allocated atomics; see
//! docs/OBSERVABILITY.md).

use hdc::{AccumHv, AsPackedQuery, Bundle, Codebook, PackedHv, PackedQuery, TernaryHv};
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

/// Completed-span count of the scan stage (`hdc::stage::Stage::Scan`).
fn scan_stage_count() -> u64 {
    hdc::stage::stage_totals()
        .iter()
        .find(|total| total.stage == hdc::Stage::Scan)
        .expect("scan stage present")
        .count
}

#[test]
fn steady_state_scans_perform_zero_heap_allocations() {
    const K: usize = 4;
    const THRESHOLD: f64 = 0.0;

    // Serving-sized geometry, well below the rayon fork threshold so the
    // scans stay on the single-threaded zero-allocation path.
    let cb = Codebook::derive(0x00A1_10C8, 256, 2048);
    let view = cb.packed_view();
    let queries: Vec<TernaryHv> = (0..8)
        .map(|i| {
            let mut rng = hdc::rng_from_seed(0x5CA7C4 + i);
            let a = hdc::BipolarHv::random(2048, &mut rng);
            let b = hdc::BipolarHv::random(2048, &mut rng);
            a.bundle(&b).clip_ternary()
        })
        .collect();
    // Accumulator queries: bundles of 2, 3 and 5 objects (two and three
    // magnitude planes) and the all-zero vector (zero planes).
    let accums: Vec<PackedHv> = [2u64, 3, 5, 0]
        .iter()
        .map(|&n| {
            let mut rng = hdc::rng_from_seed(0xACC0 + n);
            let mut acc = AccumHv::zeros(2048);
            for _ in 0..n {
                acc.add_bipolar(&hdc::BipolarHv::random(2048, &mut rng), 1);
            }
            PackedHv::from_accum(&acc)
        })
        .collect();
    let packed: Vec<PackedQuery<'_>> = queries
        .iter()
        .map(|q| q.packed_query())
        .chain(accums.iter().map(|q| q.packed_query()))
        .collect();
    let n_queries = packed.len();

    let mut hits = Vec::new();
    let mut many = Vec::new();
    let mut dots = Vec::new();
    let mut th_hits = Vec::new();

    let run_all = |hits: &mut Vec<_>, many: &mut _, dots: &mut Vec<_>, th: &mut Vec<_>| {
        for q in &packed {
            view.top_k_into(*q, K, hits);
            view.dots_into(*q, dots);
            view.above_threshold_into(*q, THRESHOLD, th);
        }
        view.top_k_many_into(&packed, K, many);
    };

    // Warm-up: grow every caller buffer and the thread-local scratch to
    // the workload's steady-state sizes (and pay the one-time kernel
    // dispatch, which reads the environment).
    for _ in 0..2 {
        run_all(&mut hits, &mut many, &mut dots, &mut th_hits);
    }

    // Reference copies for the post-measurement correctness check
    // (cloning allocates, so it happens before the snapshot).
    let expected_hits = hits.clone();
    let expected_many = many.clone();
    let expected_dots = dots.clone();
    let expected_th = th_hits.clone();

    // The measured rounds run with stage-timer recording on (the
    // default; re-asserted here in case a sibling build flipped it).
    hdc::stage::set_metrics_recording(true);
    let scans_before = scan_stage_count();

    let allocations = measured(|| {
        for _ in 0..25 {
            run_all(&mut hits, &mut many, &mut dots, &mut th_hits);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state scans must not allocate (saw {allocations} allocations over 25 warm rounds)"
    );

    // Recording was live during the allocation-free rounds: the scan
    // stage must have counted every timed span (25 rounds × 12 queries ×
    // 3 per-query scans + 25 many-scans), unless the telemetry layer was
    // compiled out, in which case the timers are inert by design.
    if hdc::stage::metrics_recording() {
        assert_eq!(
            scan_stage_count() - scans_before,
            25 * (n_queries as u64 * 3 + 1),
            "scan stage timer must record every steady-state scan"
        );
    } else {
        assert!(hdc::stage::metrics_compiled_out());
    }

    // The allocation-free rounds still computed the right answers.
    assert_eq!(hits, expected_hits);
    assert_eq!(many, expected_many);
    assert_eq!(dots, expected_dots);
    assert_eq!(th_hits, expected_th);
    assert_eq!(many.len(), n_queries);
    assert!(many.iter().all(|m| m.len() == K));
}
