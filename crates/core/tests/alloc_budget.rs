//! Allocation budgets for the warm decode path.
//!
//! A warm [`Taxonomy::codebook`] lookup must not touch the heap, and warm
//! Rep-2 (`factorize_single`) and Rep-3 (`factorize_multi`) decodes on
//! the paper-scale 3 × [100, 10], D = 4096 model must stay within fixed
//! per-op allocation budgets. Before the codebook lookup became
//! hash-free and the Rep-3 candidates stopped copying their item
//! vectors, these decodes allocated 143.0, 212.4 and 463.0 times per
//! Rep-2, two-object and three-object Rep-3 op; they now allocate 32.0,
//! 93.0 and 144.8 times. Each budget is the smaller of half the old count
//! and 1.5 times the current one, so it holds the halving and also
//! catches a regression that doubles today's count.
//!
//! Counted with a counting global allocator: every `alloc`/`realloc`
//! made on the measuring thread increments a counter. Decodes run on
//! the calling thread, so nothing under test escapes the count, while
//! allocations by other threads of the test process cannot blur it.

use factorhd_core::{Encoder, FactorizeConfig, Factorizer, Taxonomy, TaxonomyBuilder};
use hdc::{AccumHv, Codebook};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates to the system allocator, counting every allocation and
/// reallocation made on a thread inside [`measured`].
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs measured work. `const`-initialized and
    /// destructor-free, so reading it from inside the allocator never
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

/// Per-op budgets: `min(old / 2, 1.5 × current)` of the counts in the
/// module docs.
const REP2_BUDGET: f64 = 48.0;
const REP3_TWO_OBJECT_BUDGET: f64 = 212.4 / 2.0;
const REP3_THREE_OBJECT_BUDGET: f64 = 217.2;

/// The paper-scale model: 3 classes × [100, 10] items, D = 4096.
fn paper_taxonomy() -> Taxonomy {
    TaxonomyBuilder::new(4096)
        .seed(0xA110_C8ED)
        .uniform_classes(3, &[100, 10])
        .build()
        .expect("valid taxonomy")
}

/// Encodes `count` scenes of `objects` distinct random objects each.
fn scenes(taxonomy: &Taxonomy, objects: usize, count: usize, seed: u64) -> Vec<AccumHv> {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(seed);
    (0..count)
        .map(|_| {
            let scene = taxonomy.sample_scene(objects, true, &mut rng);
            encoder.encode_scene(&scene).expect("encodable")
        })
        .collect()
}

/// Mean allocations per decode over `queries`, measured on a second,
/// warm round (every codebook the decodes touch is derived, and the
/// thread's scan scratch has grown, during the first).
fn warm_allocations_per_op(queries: &[AccumHv], decode: impl Fn(&AccumHv)) -> f64 {
    queries.iter().for_each(&decode);
    let total = measured(|| queries.iter().for_each(&decode));
    total as f64 / queries.len() as f64
}

#[test]
fn warm_codebook_lookup_allocates_nothing() {
    let taxonomy = paper_taxonomy();
    taxonomy
        .set_codebook(2, &[], Codebook::derive(0x0E12, 100, 4096))
        .expect("valid replacement");
    let lookups = [
        (0usize, &[][..]),
        (1, &[7][..]),
        (2, &[][..]),
        (2, &[99][..]),
    ];
    for &(class, parent) in &lookups {
        taxonomy.codebook(class, parent).expect("valid path");
    }
    let allocations = measured(|| {
        for _ in 0..100 {
            for &(class, parent) in &lookups {
                black_box(taxonomy.codebook(class, parent).expect("valid path"));
            }
        }
    });
    assert_eq!(
        allocations, 0,
        "warm codebook lookups (derived and installed) must not allocate"
    );
}

#[test]
fn warm_decodes_stay_within_allocation_budget() {
    let taxonomy = paper_taxonomy();
    let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
    let rep2 = warm_allocations_per_op(&scenes(&taxonomy, 1, 16, 1), |hv| {
        black_box(factorizer.factorize_single(hv).expect("decodable"));
    });
    let rep3_two = warm_allocations_per_op(&scenes(&taxonomy, 2, 16, 2), |hv| {
        black_box(factorizer.factorize_multi(hv).expect("decodable"));
    });
    let rep3_three = warm_allocations_per_op(&scenes(&taxonomy, 3, 16, 3), |hv| {
        black_box(factorizer.factorize_multi(hv).expect("decodable"));
    });
    eprintln!(
        "allocations per warm op: Rep-2 {rep2:.1}, Rep-3 two objects {rep3_two:.1}, \
         Rep-3 three objects {rep3_three:.1}"
    );
    assert!(rep2 <= REP2_BUDGET, "Rep-2: {rep2:.1} > {REP2_BUDGET}");
    assert!(
        rep3_two <= REP3_TWO_OBJECT_BUDGET,
        "Rep-3 (2 objects): {rep3_two:.1} > {REP3_TWO_OBJECT_BUDGET}"
    );
    assert!(
        rep3_three <= REP3_THREE_OBJECT_BUDGET,
        "Rep-3 (3 objects): {rep3_three:.1} > {REP3_THREE_OBJECT_BUDGET}"
    );
}
