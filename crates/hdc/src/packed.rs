//! Packed-word scan backend: hypervectors as `u64` sign and magnitude
//! bit-planes, and codebooks as contiguous sharded word tables.
//!
//! Every recognition step in FactorHD is a scan `sim(V1, V2) = V1 · V2 / D`
//! of one query against a codebook (PAPER.md §II-A, §III). The types here
//! make that scan run at word speed end to end, for every query type:
//!
//! * [`PackedHv`] — an owned query in packed form: one sign bit per
//!   dimension plus the component magnitudes as bit-planes (none for a
//!   bipolar vector, one non-zero mask for a ternary one, `k` weighted
//!   planes for an integer accumulator). Dot products, Hamming distance
//!   and binding all run on XOR/popcount kernels, and the accumulator
//!   form is exact: a multi-object Rep-3 residual scans as
//!   `L1 − 2·Σ_p 2^p · popcount((sign ^ item) & plane_p)`.
//! * [`PackedQuery`] — a borrowed word-level view of a query; obtained via
//!   [`AsPackedQuery`] from [`BipolarHv`], [`TernaryHv`] or [`PackedHv`]
//!   without copying.
//! * [`PackedShards`] — a codebook's items re-laid-out as one contiguous
//!   word array, grouped into cache-sized shards. Batched searches
//!   ([`PackedShards::top_k`], [`PackedShards::above_threshold`],
//!   [`PackedShards::dots`]) run a bounded heap per shard and
//!   rayon-parallelize across shards once the table is large enough to
//!   amortize the fork.
//! * [`CodebookScan`] — the routing trait the factorizer layers use:
//!   word-level query types scan through [`PackedShards`] directly, and
//!   integer accumulators are packed with [`PackedHv::from_accum`] first,
//!   so no query type scans on the scalar reference path.
//!
//! The inner XOR-popcount loops are not hard-coded: every dot product
//! goes through the [`crate::kernels`] dispatch layer, which picks the
//! fastest implementation the running CPU supports (hardware `POPCNT`,
//! AVX2 nibble-LUT, AVX-512 `vpopcntq`, or the portable Harley–Seal
//! ladder) once at startup. The serving-path scans additionally reuse a
//! thread-local [`ScanScratch`] workspace and offer `*_into` variants
//! ([`PackedShards::top_k_into`], [`PackedShards::top_k_many_into`],
//! [`PackedShards::dots_into`], [`PackedShards::above_threshold_into`])
//! that write into caller-owned buffers, so a warm scan performs **zero
//! heap allocations**.
//!
//! All packed results are **bit-identical** to the scalar reference
//! implementations on [`Codebook`]: dots are exact integers, similarities
//! are computed with the same `dot as f64 / dim as f64` expression, and
//! ties are broken by ascending item index exactly like the reference's
//! stable descending sort — regardless of which kernel is dispatched.

use crate::codebook::{Codebook, SearchHit};
use crate::kernels::{self, ScanKernel};
use crate::sim::Similarity;
use crate::stage::{Stage, StageTimer};
use crate::{
    clear_padding, full_word, words_for, AccumHv, Bind, BipolarHv, HdcError, TernaryHv, WORD_BITS,
};
use rayon::prelude::*;
use std::cell::RefCell;
use std::fmt;

/// Target shard payload in bytes: one shard's words should fit comfortably
/// in L1 alongside the query planes.
const SHARD_BYTES: usize = 32 * 1024;

/// Minimum table size (in words) before a batched search forks across the
/// rayon pool; smaller scans finish faster than a fork would take.
const PAR_MIN_WORDS: usize = 1 << 18;

/// Words per stack block of [`PackedHv::sim_to_product`]'s bound
/// product: a whole `D = 4096` vector in 512 bytes.
const PRODUCT_BLOCK_WORDS: usize = 64;

/// Queries per register block in the batched multi-query scan: each
/// L1-sized tile of codebook words is scanned by up to this many queries
/// before the next tile is touched, so the tile's cache lines (and the
/// block's query planes) are reused instead of re-fetched per query.
const QUERY_BLOCK: usize = 4;

/// Reusable per-thread scan workspace: every buffer a serving-path scan
/// needs lives here, grown once and reused, so warm
/// [`PackedShards::top_k_into`] / [`PackedShards::top_k_many_into`] /
/// [`PackedShards::dots_into`] / [`PackedShards::above_threshold_into`]
/// calls allocate nothing.
#[derive(Default)]
struct ScanScratch {
    /// Flat per-query bounded heaps for the multi-query scan: query `q`
    /// of a `k`-wide scan owns `heap_data[q * k .. q * k + heap_lens[q]]`.
    heap_data: Vec<(i64, usize)>,
    heap_lens: Vec<usize>,
    /// Candidate buffer for single-query top-k and threshold scans.
    cand: Vec<(i64, usize)>,
    /// Per-query L1 weights for the multi-query scan.
    weights: Vec<i64>,
}

thread_local! {
    /// One [`ScanScratch`] per thread: rayon workers executing planned
    /// engine batches each warm their own copy, after which steady-state
    /// scans on that worker stop allocating.
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

/// Runs `f` with this thread's scan scratch. Scans never re-enter the
/// scan path while holding the borrow, so the `RefCell` cannot panic.
fn with_scratch<R>(f: impl FnOnce(&mut ScanScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// `true` when candidate `a` ranks strictly below `b`: a lower dot, or an
/// equal dot with the larger item index (ties prefer small indices, like
/// the scalar reference's stable descending sort).
#[inline]
fn ranks_below(a: (i64, usize), b: (i64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// Offers `entry` to the bounded worst-at-root heap held in
/// `data[..*len]` (capacity `k`): while not full the entry is sifted in;
/// once full, the entry replaces the root — the worst kept candidate —
/// only if it ranks above it. Keeps exactly the `k` best candidates seen,
/// under the total order of [`ranks_below`] (which has no equal keys:
/// item indices are unique), so the kept set is identical to any other
/// correct top-k selection.
#[inline]
fn heap_offer(data: &mut [(i64, usize)], len: &mut usize, k: usize, entry: (i64, usize)) {
    if *len < k {
        data[*len] = entry;
        *len += 1;
        let mut i = *len - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if ranks_below(data[i], data[parent]) {
                data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        return;
    }
    if !ranks_below(data[0], entry) {
        return;
    }
    data[0] = entry;
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        let right = left + 1;
        let mut worst = i;
        if left < k && ranks_below(data[left], data[worst]) {
            worst = left;
        }
        if right < k && ranks_below(data[right], data[worst]) {
            worst = right;
        }
        if worst == i {
            break;
        }
        data.swap(i, worst);
        i = worst;
    }
}

/// Sorts candidates into the reference hit order: descending dot, ties by
/// ascending item index. Unstable sort is exact here — `(dot, index)`
/// keys are unique — and, unlike the stable sort, allocates nothing.
#[inline]
fn sort_candidates(cand: &mut [(i64, usize)]) {
    cand.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
}

/// A borrowed word-level view of a scan query.
///
/// `sign` holds one bit per dimension (set ⇔ the component is negative);
/// `planes`, when present, holds the component magnitudes as bit-planes,
/// plane-major: plane `p` occupies `planes[p * W .. (p + 1) * W]` for `W`
/// words per vector and weighs `2^p`. A missing `planes` means the query
/// is dense (every component is `±1`); a present one with no planes is
/// the all-zero vector; one plane is a ternary non-zero mask.
#[derive(Clone, Copy)]
pub struct PackedQuery<'a> {
    sign: &'a [u64],
    planes: Option<&'a [u64]>,
    dim: usize,
}

impl<'a> PackedQuery<'a> {
    /// The query's dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The query's L1 weight `Σ |v_i|` — the non-zero count for bipolar
    /// and ternary queries (`D` for a dense one). Exact below `2^63`,
    /// which any accumulator of fewer than `2^32` components stays under;
    /// only products of two wide accumulators can pass it, and there the
    /// sum wraps like the dot products scored against it.
    #[inline]
    pub fn l1_weight(&self) -> i64 {
        match self.planes {
            None => self.dim as i64,
            Some(planes) => {
                planes
                    .chunks_exact(self.sign.len())
                    .enumerate()
                    .fold(0i64, |acc, (p, plane)| {
                        let ones: i64 = plane.iter().map(|w| w.count_ones() as i64).sum();
                        acc.wrapping_add(ones << p)
                    })
            }
        }
    }

    /// Exact integer dot product against one item's packed sign words,
    /// given the query's precomputed L1 weight and the scan kernel to run
    /// the popcount loops on (both hoisted out of the per-item loop by
    /// every scan entry point):
    /// `L1 − 2·Σ_p 2^p · popcount((sign ^ item) & plane_p)`.
    #[inline]
    fn dot_words(&self, item: &[u64], weight: i64, kernel: &ScanKernel) -> i64 {
        let neg = match self.planes {
            None => kernel.hamming_words(self.sign, item) as i64,
            Some(planes) => planes
                .chunks_exact(self.sign.len())
                .enumerate()
                .map(|(p, plane)| (kernel.masked_hamming_words(self.sign, plane, item) as i64) << p)
                .sum(),
        };
        weight - 2 * neg
    }
}

/// Borrowing conversion into the packed scan form.
///
/// Implemented by every query representation that is already stored as
/// word planes, so the view costs no copy. [`AccumHv`] stores `i32`
/// components instead: it is packed into an owned [`PackedHv`] with
/// [`PackedHv::from_accum`] (which is what its [`CodebookScan`] impl
/// does) and viewed from there.
pub trait AsPackedQuery {
    /// This query's borrowed word-level view.
    fn packed_query(&self) -> PackedQuery<'_>;
}

impl AsPackedQuery for BipolarHv {
    fn packed_query(&self) -> PackedQuery<'_> {
        PackedQuery {
            sign: self.words(),
            planes: None,
            dim: self.dim(),
        }
    }
}

impl AsPackedQuery for TernaryHv {
    fn packed_query(&self) -> PackedQuery<'_> {
        PackedQuery {
            sign: self.sign_words(),
            planes: self.mask_words(),
            dim: self.dim(),
        }
    }
}

impl AsPackedQuery for PackedHv {
    fn packed_query(&self) -> PackedQuery<'_> {
        PackedQuery {
            sign: &self.sign,
            planes: self.planes.as_deref(),
            dim: self.dim,
        }
    }
}

/// An owned hypervector in packed scan form: sign bits in `u64` words plus
/// the component magnitudes as bit-planes.
///
/// This is the representation every codebook scan runs on, and it holds
/// any integer vector exactly:
///
/// * dense vectors (`{-1, +1}^D`) store no planes at all;
/// * ternary vectors (`{-1, 0, +1}^D`) store one plane, the non-zero mask;
/// * integer accumulators store `⌈log2(max|v_i| + 1)⌉` planes, plane `p`
///   weighing `2^p` — two planes for a bundle of two or three objects;
/// * the all-zero vector stores zero planes and is **not** dense.
///
/// Dot products against bipolar items are
/// `L1 − 2·Σ_p 2^p · popcount((sign ^ item) & plane_p)` on the dispatched
/// popcount kernels, exact integers that agree bit-for-bit with the
/// scalar reference arithmetic on [`BipolarHv`] / [`TernaryHv`] /
/// [`AccumHv`]. The form is canonical (no all-zero top plane, sign bits
/// clear under zero components, a full single plane stored as dense), so
/// equal vectors compare equal whatever their construction route.
///
/// ```
/// use hdc::{AccumHv, Bind, BipolarHv, PackedHv, Similarity};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let a = BipolarHv::random(1000, &mut rng);
/// let b = BipolarHv::random(1000, &mut rng);
///
/// let pa = PackedHv::from_bipolar(&a);
/// let pb = PackedHv::from_bipolar(&b);
/// // Word-parallel kernels, bit-identical to the reference arithmetic.
/// assert_eq!(pa.dot(&pb), a.dot(&b));
/// assert_eq!(pa.hamming(&pb), a.hamming(&b));
/// assert_eq!(pa.bind(&pb).dot(&pa), a.bind(&b).dot(&a));
///
/// // A two-object bundle packs losslessly into two magnitude planes.
/// let mut bundle = AccumHv::zeros(1000);
/// bundle.add_bipolar(&a, 1);
/// bundle.add_bipolar(&b, 1);
/// let packed = PackedHv::from_accum(&bundle);
/// assert_eq!(packed.num_planes(), 2);
/// assert_eq!(packed.sim_to(&a), bundle.sim_to(&a));
/// assert_eq!(packed.bind(&b).sim_to(&a), bundle.bind(&b).sim_to(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedHv {
    /// Bit set ⇔ component is negative (clear under zero components).
    sign: Vec<u64>,
    /// Magnitude bit-planes, plane-major (plane `p` weighs `2^p`);
    /// `None` ⇔ fully dense.
    planes: Option<Vec<u64>>,
    dim: usize,
    /// The L1 weight `Σ |v_i|`, kept with the planes so that scoring
    /// one vector against many items computes it once.
    l1: i64,
}

impl PackedHv {
    /// Packs a dense bipolar vector (no magnitude planes).
    pub fn from_bipolar(hv: &BipolarHv) -> Self {
        PackedHv::dense(hv.words().to_vec(), hv.dim())
    }

    /// Packs a ternary vector: its non-zero mask becomes the single
    /// magnitude plane (canonicalized to the dense form when no component
    /// is zero, and to zero planes when every component is).
    pub fn from_ternary(hv: &TernaryHv) -> Self {
        match hv.mask_words() {
            None => PackedHv::dense(hv.sign_words().to_vec(), hv.dim()),
            Some(mask) => PackedHv::canonical(hv.sign_words().to_vec(), mask.to_vec(), hv.dim()),
        }
    }

    /// Packs an integer accumulator losslessly: one sign plane plus the
    /// bit-planes of `|v_i|`, as many as the largest magnitude needs (up
    /// to 32, for a component at `i32::MIN`). A ternary-valued
    /// accumulator packs to exactly [`PackedHv::from_ternary`]'s form.
    pub fn from_accum(hv: &AccumHv) -> Self {
        let (sign, planes) = pack_planes(hv.components(), |v| (v < 0, v.unsigned_abs()));
        PackedHv::canonical(sign, planes, hv.dim())
    }

    /// Assembles the canonical form from a sign plane and magnitude
    /// planes: all-zero top planes are dropped, sign bits are cleared
    /// under zero components, and a single plane covering every
    /// dimension becomes the dense form.
    fn canonical(mut sign: Vec<u64>, mut planes: Vec<u64>, dim: usize) -> Self {
        let words = sign.len();
        while planes.len() >= words && planes[planes.len() - words..].iter().all(|&w| w == 0) {
            planes.truncate(planes.len() - words);
        }
        if planes.len() == words && (0..words).all(|i| planes[i] == full_word(dim, i)) {
            clear_padding(&mut sign, dim);
            return PackedHv::dense(sign, dim);
        }
        for (i, s) in sign.iter_mut().enumerate() {
            *s &= planes
                .iter()
                .skip(i)
                .step_by(words)
                .fold(0, |acc, &w| acc | w);
        }
        let l1 = PackedQuery {
            sign: &sign,
            planes: Some(&planes),
            dim,
        }
        .l1_weight();
        PackedHv {
            sign,
            planes: Some(planes),
            dim,
            l1,
        }
    }

    /// The dense form over `sign` (padding bits already clear).
    fn dense(sign: Vec<u64>, dim: usize) -> Self {
        PackedHv {
            sign,
            planes: None,
            dim,
            l1: dim as i64,
        }
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when every component is `±1` (no magnitude planes). The
    /// all-zero vector is **not** dense: it has zero planes.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.planes.is_none()
    }

    /// Number of stored magnitude planes: 0 for a dense or an all-zero
    /// vector, 1 for a ternary one, `⌈log2(max|v_i| + 1)⌉` in general.
    #[inline]
    pub fn num_planes(&self) -> usize {
        self.planes
            .as_ref()
            .map_or(0, |p| p.len() / self.sign.len())
    }

    /// The L1 weight `Σ |v_i|` (the non-zero count for bipolar and
    /// ternary vectors).
    #[inline]
    pub fn l1_weight(&self) -> i64 {
        self.l1
    }

    /// Number of magnitude planes the plane-wise loops walk: a dense
    /// vector counts as one implicit all-ones plane.
    #[inline]
    fn plane_count(&self) -> usize {
        if self.is_dense() {
            1
        } else {
            self.num_planes()
        }
    }

    /// Word `i` of magnitude plane `p` (zero past the top plane).
    #[inline]
    fn plane_word(&self, p: usize, i: usize) -> u64 {
        match &self.planes {
            None if p > 0 => 0,
            None => full_word(self.dim, i),
            Some(planes) => planes.get(p * self.sign.len() + i).copied().unwrap_or(0),
        }
    }

    /// Word `i` of the non-zero mask (the OR of every plane).
    #[inline]
    fn nonzero_word(&self, i: usize) -> u64 {
        (0..self.plane_count()).fold(0, |acc, p| acc | self.plane_word(p, i))
    }

    /// `true` when every magnitude is 0 or 1 (dense or at most one plane).
    #[inline]
    fn is_unit(&self) -> bool {
        self.plane_count() <= 1
    }

    /// Component at `index`, exactly.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn component(&self, index: usize) -> i64 {
        assert!(
            index < self.dim,
            "component {index} out of bounds (dim {})",
            self.dim
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let magnitude: i64 = (0..self.plane_count())
            .map(|p| ((self.plane_word(p, w) >> b & 1) as i64) << p)
            .sum();
        if self.sign[w] >> b & 1 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Exact integer dot product with another packed vector: one masked
    /// popcount pass per pair of magnitude planes.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, rhs: &PackedHv) -> i64 {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let mut total = 0i64;
        for p in 0..self.plane_count() {
            for q in 0..rhs.plane_count() {
                let (mut both, mut neg) = (0i64, 0i64);
                for i in 0..self.sign.len() {
                    let m = self.plane_word(p, i) & rhs.plane_word(q, i);
                    both += m.count_ones() as i64;
                    neg += ((self.sign[i] ^ rhs.sign[i]) & m).count_ones() as i64;
                }
                total += (both - 2 * neg) << (p + q);
            }
        }
        total
    }

    /// Normalized dot similarity `dot / D`.
    #[inline]
    pub fn sim(&self, rhs: &PackedHv) -> f64 {
        self.dot(rhs) as f64 / self.dim as f64
    }

    /// Normalized dot similarity against the bound product `⊙ items` of
    /// bipolar vectors, bit-identical to `self.sim_to(&product)`, without
    /// materializing the product: its words are XORed together one block
    /// at a time in a stack buffer and scored on the dispatched kernel
    /// with the stored L1 weight. The product of no items is the all-ones
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if an item's dimension differs.
    pub fn sim_to_product<'b, I>(&self, items: I) -> f64
    where
        I: IntoIterator<Item = &'b BipolarHv>,
        I::IntoIter: Clone,
    {
        let items = items.into_iter();
        for item in items.clone() {
            assert_eq!(
                self.dim,
                item.dim(),
                "dimension mismatch: {} vs {}",
                self.dim,
                item.dim()
            );
        }
        let kernel = kernels::selected_kernel();
        let words = self.sign.len();
        let mut block = [0u64; PRODUCT_BLOCK_WORDS];
        let mut neg = 0i64;
        for start in (0..words).step_by(PRODUCT_BLOCK_WORDS) {
            let end = (start + PRODUCT_BLOCK_WORDS).min(words);
            let product = &mut block[..end - start];
            let mut items = items.clone();
            match items.next() {
                None => product.fill(0),
                Some(first) => {
                    product.copy_from_slice(&first.words()[start..end]);
                    for item in items {
                        for (p, w) in product.iter_mut().zip(&item.words()[start..end]) {
                            *p ^= w;
                        }
                    }
                }
            }
            let sign = &self.sign[start..end];
            neg += match &self.planes {
                None => kernel.hamming_words(sign, product) as i64,
                Some(planes) => planes
                    .chunks_exact(words)
                    .enumerate()
                    .map(|(p, plane)| {
                        (kernel.masked_hamming_words(sign, &plane[start..end], product) as i64) << p
                    })
                    .sum(),
            };
        }
        (self.l1 - 2 * neg) as f64 / self.dim as f64
    }

    /// Number of disagreeing components (any difference in value counts,
    /// including zero versus non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hamming(&self, rhs: &PackedHv) -> usize {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let planes = self.plane_count().max(rhs.plane_count());
        (0..self.sign.len())
            .map(|i| {
                // Differ where any magnitude bit differs, or both are
                // non-zero with opposite signs. Padding bits are zero in
                // every plane and sign word.
                let magnitude = (0..planes).fold(0, |acc, p| {
                    acc | (self.plane_word(p, i) ^ rhs.plane_word(p, i))
                });
                let both = self.nonzero_word(i) & rhs.nonzero_word(i);
                (magnitude | ((self.sign[i] ^ rhs.sign[i]) & both)).count_ones() as usize
            })
            .sum()
    }

    /// [`Bind`] for two multi-plane operands: magnitudes multiply per
    /// component (accumulator-range magnitudes multiply to at most
    /// `2^62`, which fits 63 planes).
    fn bind_components(&self, rhs: &PackedHv) -> PackedHv {
        let products: Vec<i64> = (0..self.dim)
            .map(|i| self.component(i) * rhs.component(i))
            .collect();
        let (sign, planes) = pack_planes(&products, |v| (v < 0, v.unsigned_abs()));
        PackedHv::canonical(sign, planes, self.dim)
    }

    /// Adds a bipolar vector in place (the word-parallel
    /// [`AccumHv::add_bipolar`] with weight 1).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_bipolar(&mut self, rhs: &BipolarHv) {
        self.add_unit(rhs.dim(), rhs.words(), None, false);
    }

    /// Subtracts a bipolar vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_bipolar(&mut self, rhs: &BipolarHv) {
        self.add_unit(rhs.dim(), rhs.words(), None, true);
    }

    /// Adds a ternary vector in place (the word-parallel
    /// [`AccumHv::add_ternary`] with weight 1).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_ternary(&mut self, rhs: &TernaryHv) {
        self.add_unit(rhs.dim(), rhs.sign_words(), rhs.mask_words(), false);
    }

    /// Subtracts a ternary vector in place: the reconstruct-and-exclude
    /// step of Rep-3 factorization, run on the residual's bit-planes.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_ternary(&mut self, rhs: &TernaryHv) {
        self.add_unit(rhs.dim(), rhs.sign_words(), rhs.mask_words(), true);
    }

    /// Adds (or, with `negate`, subtracts) a unit vector given by its
    /// sign words and non-zero mask (`None` = dense), exactly, on the
    /// sign-magnitude planes.
    ///
    /// Per word, a component whose sign agrees with the unit's (or that
    /// is zero) grows in magnitude by one and takes the unit's sign; one
    /// of opposite sign shrinks by one. Both run as one bit-sliced ripple
    /// over the planes — a carry for the growing lanes, a borrow for the
    /// shrinking ones (the two lane sets are disjoint) — into one spare
    /// top plane, and [`PackedHv::canonical`] restores the canonical form
    /// (trims emptied top planes, clears signs under new zeros, folds a
    /// full single plane back to dense).
    fn add_unit(&mut self, dim: usize, unit_sign: &[u64], unit_mask: Option<&[u64]>, negate: bool) {
        assert_eq!(self.dim, dim, "dimension mismatch: {} vs {}", self.dim, dim);
        let words = self.sign.len();
        let mut sign = std::mem::take(&mut self.sign);
        let mut planes = match self.planes.take() {
            Some(planes) => planes,
            None => (0..words).map(|i| full_word(dim, i)).collect(),
        };
        let num_planes = planes.len() / words;
        planes.resize((num_planes + 1) * words, 0);
        let flip = if negate { u64::MAX } else { 0 };
        for i in 0..words {
            let active = unit_mask.map_or(full_word(dim, i), |mask| mask[i]);
            let unit_neg = (unit_sign[i] ^ flip) & active;
            let nonzero = (0..num_planes).fold(0, |acc, p| acc | planes[p * words + i]);
            let shrink = active & nonzero & (sign[i] ^ unit_neg);
            let grow = active & !shrink;
            let (mut carry, mut borrow) = (grow, shrink);
            for p in 0..=num_planes {
                let bit = planes[p * words + i];
                planes[p * words + i] = bit ^ carry ^ borrow;
                carry &= bit;
                borrow &= !bit;
            }
            sign[i] = (sign[i] & !grow) | (unit_neg & grow);
        }
        *self = PackedHv::canonical(sign, planes, dim);
    }

    /// Euclidean norm of the components, bit-identical to
    /// [`AccumHv::norm`] over the same components.
    ///
    /// The sum of squares comes from plane popcounts,
    /// `Σ v_i² = Σ_{p,q} 2^{p+q} · popcount(plane_p & plane_q)`, as an
    /// exact integer. [`AccumHv::norm`] sums `v_i²` in `f64` in index
    /// order; every term and every partial sum is a non-negative integer
    /// no larger than the total, so while the total is below `2^53`
    /// each of them is exactly representable, every addition is exact,
    /// and the reference's `f64` sum equals the exact total. At or above
    /// `2^53` rounding depends on the summation order, so the norm
    /// replays the reference's index-order `f64` sum instead.
    pub fn norm(&self) -> f64 {
        match self.sum_of_squares() {
            Some(total) if total < 1 << 53 => (total as f64).sqrt(),
            _ => (0..self.dim)
                .map(|i| {
                    let v = self.component(i) as f64;
                    v * v
                })
                .sum::<f64>()
                .sqrt(),
        }
    }

    /// `Σ v_i²` from plane popcounts, or `None` if it overflows `u128`.
    fn sum_of_squares(&self) -> Option<u128> {
        let planes = self.plane_count();
        let mut total = 0u128;
        for p in 0..planes {
            for q in p..planes {
                let ones: u64 = (0..self.sign.len())
                    .map(|i| (self.plane_word(p, i) & self.plane_word(q, i)).count_ones() as u64)
                    .sum();
                let pairs = if p == q { 1u128 } else { 2 };
                let weight = 1u128.checked_shl((p + q) as u32)?.checked_mul(pairs)?;
                total = total.checked_add((ones as u128).checked_mul(weight)?)?;
            }
        }
        Some(total)
    }
}

/// Transposes integer `values`, given each one's (negative, magnitude)
/// parts, into a sign plane plus as many magnitude bit-planes as the
/// largest magnitude needs (plane-major, not yet canonical): the pack
/// behind [`PackedHv::from_accum`] and the multi-plane [`Bind`].
///
/// The transpose runs a word at a time. Each component's code is its
/// magnitude with the sign as one more bit on top (bit `num_planes`),
/// cut into byte lanes. For one word's 64 components, a lane is
/// narrowed into 64 bytes, and [`gather_bit`] turns eight of those
/// bytes (one `u64` load) into eight bits of a plane word with one
/// multiply, so a plane word costs eight multiplies instead of 64
/// shift-or steps. Magnitudes stay in their own width `M` (`u32` for
/// an accumulator), which keeps the narrowing loop vectorizable.
fn pack_planes<T: Copy, M: Magnitude>(
    values: &[T],
    parts: impl Fn(T) -> (bool, M),
) -> (Vec<u64>, Vec<u64>) {
    let words = words_for(values.len());
    let span = values.iter().fold(M::default(), |acc, &v| acc | parts(v).1);
    let num_planes = span.bit_len();
    let code_bits = num_planes + 1;
    let mut sign = vec![0u64; words];
    let mut planes = vec![0u64; num_planes * words];
    let mut bytes = [0u8; WORD_BITS];
    for (w, chunk) in values.chunks(WORD_BITS).enumerate() {
        for shift in (0..code_bits).step_by(8) {
            if num_planes - shift < 8 {
                // The sign bit lies in this lane.
                let sign_bit = 1u8 << (num_planes - shift);
                for (byte, &v) in bytes.iter_mut().zip(chunk) {
                    let (negative, magnitude) = parts(v);
                    *byte =
                        magnitude.lane_byte(shift) | (0u8.wrapping_sub(negative as u8) & sign_bit);
                }
            } else {
                for (byte, &v) in bytes.iter_mut().zip(chunk) {
                    *byte = parts(v).1.lane_byte(shift);
                }
            }
            bytes[chunk.len()..].fill(0);
            let groups: [u64; 8] = std::array::from_fn(|g| {
                u64::from_le_bytes(bytes[8 * g..8 * g + 8].try_into().expect("8 bytes"))
            });
            for bit in 0..(code_bits - shift).min(8) {
                let word = groups
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (g, &x)| acc | gather_bit(x, bit) << (8 * g));
                match shift + bit {
                    p if p == num_planes => sign[w] = word,
                    p => planes[p * words + w] = word,
                }
            }
        }
    }
    (sign, planes)
}

/// Unsigned component magnitudes [`pack_planes`] transposes: `u32`
/// for accumulators, `u64` for products of two accumulator components.
trait Magnitude: Copy + Default + std::ops::BitOr<Output = Self> {
    /// Number of bits up to and including the highest set one.
    fn bit_len(self) -> usize;
    /// Bits `shift..shift + 8` (zero once `shift` passes the width).
    fn lane_byte(self, shift: usize) -> u8;
}

macro_rules! impl_magnitude {
    ($($t:ty),*) => {$(
        impl Magnitude for $t {
            #[inline(always)]
            fn bit_len(self) -> usize {
                (<$t>::BITS - self.leading_zeros()) as usize
            }

            #[inline(always)]
            fn lane_byte(self, shift: usize) -> u8 {
                self.checked_shr(shift as u32).unwrap_or(0) as u8
            }
        }
    )*};
}

impl_magnitude!(u32, u64);

/// Gathers bit `bit` of each byte of `x` into one byte, byte `j` landing
/// on bit `j`. After masking, byte `j` holds `b_j ∈ {0, 1}` at bit `8j`;
/// the multiplier has bits `7k + 7` for `k = 0..8`, so the product places
/// `b_j` at bits `8j + 7k + 7`. The pair `k = 7 − j` lands on bit `56 + j`
/// of the top byte, and every pair lands on a distinct bit, so no carry
/// disturbs it.
#[inline(always)]
fn gather_bit(x: u64, bit: usize) -> u64 {
    ((x >> bit) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

impl Bind for PackedHv {
    type Output = PackedHv;

    /// Component-wise product. When either operand has unit magnitudes
    /// (dense or ternary) this is word-parallel: signs XOR and the other
    /// operand's planes are masked by its non-zero plane. Two multi-plane
    /// operands multiply component by component.
    fn bind(&self, rhs: &PackedHv) -> PackedHv {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let sign: Vec<u64> = self
            .sign
            .iter()
            .zip(&rhs.sign)
            .map(|(a, b)| a ^ b)
            .collect();
        let (wide, unit) = match (self.is_unit(), rhs.is_unit()) {
            (_, true) => (self, rhs),
            (true, false) => (rhs, self),
            (false, false) => return self.bind_components(rhs),
        };
        let planes = match (&wide.planes, &unit.planes) {
            (None, None) => return PackedHv::dense(sign, self.dim),
            (Some(planes), None) => planes.clone(),
            (None, Some(mask)) => mask.clone(),
            // An all-zero `unit` (no plane) zeroes every product plane.
            (Some(planes), Some(mask)) => planes
                .iter()
                .zip(mask.iter().cycle())
                .map(|(w, m)| w & m)
                .collect(),
        };
        PackedHv::canonical(sign, planes, self.dim)
    }
}

impl Bind<BipolarHv> for PackedHv {
    type Output = PackedHv;

    /// Binding with a bipolar vector flips signs and keeps every
    /// magnitude: one pass over the sign words (label elimination on a
    /// packed residual).
    fn bind(&self, rhs: &BipolarHv) -> PackedHv {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let sign = (0..self.sign.len())
            .map(|i| (self.sign[i] ^ rhs.words()[i]) & self.nonzero_word(i))
            .collect();
        PackedHv {
            sign,
            planes: self.planes.clone(),
            dim: self.dim,
            l1: self.l1,
        }
    }
}

impl Similarity for PackedHv {
    fn sim_to(&self, reference: &BipolarHv) -> f64 {
        assert_eq!(
            self.dim,
            reference.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            reference.dim()
        );
        let kernel = kernels::selected_kernel();
        self.packed_query()
            .dot_words(reference.words(), self.l1, kernel) as f64
            / self.dim as f64
    }
}

impl fmt::Debug for PackedHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedHv")
            .field("dim", &self.dim)
            .field("dense", &self.is_dense())
            .field("planes", &self.num_planes())
            .finish()
    }
}

/// A codebook's items re-laid-out for scanning: one contiguous array of
/// packed sign words, grouped into cache-sized shards.
///
/// Built lazily by [`Codebook::packed_view`] (or eagerly by the `.fhd`
/// artifact loader) and guarded by the owning codebook's
/// [`generation`](Codebook::generation) stamp: a shard table always
/// carries the generation of the item set it was built from, so staleness
/// is structurally impossible — replacing a codebook (e.g. via
/// `Taxonomy::set_codebook`) creates a new codebook with a new generation
/// and an empty view.
///
/// ```
/// use hdc::Codebook;
///
/// let cb = Codebook::derive(42, 64, 1024);
/// let shards = cb.packed_view();
/// let hits = shards.top_k(hdc::AsPackedQuery::packed_query(cb.item(9)), 3);
/// assert_eq!(hits[0].index, 9);
/// assert!((hits[0].sim - 1.0).abs() < 1e-12);
/// // Bit-identical to the scalar reference search.
/// assert_eq!(hits, cb.top_k(cb.item(9), 3));
/// ```
#[derive(Clone)]
pub struct PackedShards {
    /// Item-major sign words: item `i` occupies
    /// `words[i * words_per_item .. (i + 1) * words_per_item]`.
    words: Vec<u64>,
    words_per_item: usize,
    /// Items per shard (the parallel/blocking granularity).
    shard_len: usize,
    len: usize,
    dim: usize,
    generation: u64,
}

impl PackedShards {
    /// Builds a shard table over `items` (all of dimension `dim`),
    /// stamped with the owning codebook's `generation`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_len == 0` (a programming error, not a runtime
    /// condition — wire-format readers validate before calling).
    pub(crate) fn build(
        items: &[BipolarHv],
        dim: usize,
        shard_len: usize,
        generation: u64,
    ) -> Self {
        assert!(shard_len > 0, "shard length must be positive");
        let words_per_item = words_for(dim);
        let mut words = Vec::with_capacity(items.len() * words_per_item);
        for item in items {
            words.extend_from_slice(item.words());
        }
        PackedShards {
            words,
            words_per_item,
            shard_len,
            len: items.len(),
            dim,
            generation,
        }
    }

    /// The default shard geometry for `dim`: as many items as fit a
    /// [`SHARD_BYTES`]-sized block, at least one.
    pub(crate) fn default_shard_len(dim: usize) -> usize {
        (SHARD_BYTES / (words_for(dim) * 8)).max(1)
    }

    /// Number of items in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no items (never for a built codebook).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hypervector dimension `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Items per shard (the parallel/blocking granularity).
    #[inline]
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.len.div_ceil(self.shard_len)
    }

    /// The generation stamp of the codebook this table was built from.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn check_query(&self, query: &PackedQuery<'_>) {
        assert_eq!(
            self.dim,
            query.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            query.dim()
        );
    }

    #[inline]
    fn sim_of(&self, dot: i64) -> f64 {
        dot as f64 / self.dim as f64
    }

    /// `true` when a batched search over this table is worth forking
    /// across the rayon pool.
    ///
    /// Beyond the size threshold this also checks the pool itself: a
    /// single-lane pool has nothing to fork to, and a scan issued from
    /// **inside** a parallel region (a batch planner already fanning op
    /// chunks across the pool) must not fork again — nested forking
    /// oversubscribes the pool with tasks that steal lanes from the
    /// batch level, which is what caused the batch-512 throughput
    /// rollover. In both cases the scan takes its sequential `_into`
    /// path instead.
    #[inline]
    fn parallel(&self) -> bool {
        self.words.len() >= PAR_MIN_WORDS
            && self.num_shards() > 1
            && !rayon::in_parallel_region()
            && rayon::current_num_threads() > 1
    }

    /// The item index range of shard `s`.
    #[inline]
    fn shard_range(&self, s: usize) -> std::ops::Range<usize> {
        let start = s * self.shard_len;
        start..(start + self.shard_len).min(self.len)
    }

    /// Runs `scan` over every shard — in parallel when the table is big
    /// enough — and returns the per-shard results in shard order.
    fn scan_shards<T: Send, F>(&self, scan: F) -> Vec<T>
    where
        F: Fn(std::ops::Range<usize>) -> T + Sync,
    {
        if self.parallel() {
            (0..self.num_shards())
                .into_par_iter()
                .map(|s| scan(self.shard_range(s)))
                .collect()
        } else {
            (0..self.num_shards())
                .map(|s| scan(self.shard_range(s)))
                .collect()
        }
    }

    /// Exact integer dot products of `query` against every item, in item
    /// order — the packed replacement for per-item
    /// [`BipolarHv::dot`] loops over boxed items.
    ///
    /// Tables below the parallel threshold are scanned through
    /// [`PackedShards::dots_into`] (zero steady-state allocations beyond
    /// the returned `Vec`); larger tables fork across the rayon pool.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn dots(&self, query: PackedQuery<'_>) -> Vec<i64> {
        if !self.parallel() {
            let mut out = Vec::with_capacity(self.len);
            self.dots_into(query, &mut out);
            return out;
        }
        self.check_query(&query);
        let kernel = kernels::selected_kernel();
        let weight = query.l1_weight();
        let per_shard = self.scan_shards(|range| {
            range
                .map(|i| query.dot_words(self.item_words(i), weight, kernel))
                .collect::<Vec<i64>>()
        });
        per_shard.concat()
    }

    /// [`PackedShards::dots`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a reused buffer makes the warm scan
    /// allocation-free. Always single-threaded (the zero-allocation
    /// serving path); results are identical to [`PackedShards::dots`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn dots_into(&self, query: PackedQuery<'_>, out: &mut Vec<i64>) {
        let _span = StageTimer::enter(Stage::Scan);
        self.check_query(&query);
        out.clear();
        out.reserve(self.len);
        let kernel = kernels::selected_kernel();
        let weight = query.l1_weight();
        for i in 0..self.len {
            out.push(query.dot_words(self.item_words(i), weight, kernel));
        }
    }

    /// The `k` most similar items, sorted by descending similarity with
    /// ties broken by ascending item index — exactly the ordering of the
    /// scalar reference [`Codebook::top_k`].
    ///
    /// Tables below the parallel threshold are scanned through
    /// [`PackedShards::top_k_into`] (thread-local scratch, zero
    /// steady-state allocations beyond the returned `Vec`); larger tables
    /// keep a bounded `k`-best heap per shard across the rayon pool and
    /// merge the per-shard survivors, allocating `O(shards · k)` instead
    /// of materializing all `M` similarities.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn top_k(&self, query: PackedQuery<'_>, k: usize) -> Vec<SearchHit> {
        if !self.parallel() {
            let mut out = Vec::with_capacity(k.min(self.len));
            self.top_k_into(query, k, &mut out);
            return out;
        }
        self.check_query(&query);
        if k == 0 {
            return Vec::new();
        }
        let kernel = kernels::selected_kernel();
        let weight = query.l1_weight();
        let per_shard = self.scan_shards(|range| {
            let cap = k.min(range.len());
            let mut heap = vec![(0i64, 0usize); cap];
            let mut len = 0usize;
            for i in range {
                let dot = query.dot_words(self.item_words(i), weight, kernel);
                heap_offer(&mut heap, &mut len, cap, (dot, i));
            }
            heap.truncate(len);
            heap
        });
        let mut merged: Vec<(i64, usize)> = per_shard.concat();
        sort_candidates(&mut merged);
        merged.truncate(k);
        merged
            .into_iter()
            .map(|(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            })
            .collect()
    }

    /// [`PackedShards::top_k`] into a caller-owned buffer: `out` is
    /// cleared and refilled, the bounded candidate heap lives in the
    /// thread-local scan scratch, and the final ordering uses an
    /// allocation-free unstable sort — a warm call with a reused `out`
    /// performs **zero heap allocations**. Always single-threaded;
    /// results are identical to [`PackedShards::top_k`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn top_k_into(&self, query: PackedQuery<'_>, k: usize, out: &mut Vec<SearchHit>) {
        let _span = StageTimer::enter(Stage::Scan);
        self.check_query(&query);
        out.clear();
        if k == 0 {
            return;
        }
        let kernel = kernels::selected_kernel();
        let weight = query.l1_weight();
        let cap = k.min(self.len);
        with_scratch(|scratch| {
            let cand = &mut scratch.cand;
            cand.clear();
            cand.resize(cap, (0, 0));
            let mut len = 0usize;
            for i in 0..self.len {
                let dot = query.dot_words(self.item_words(i), weight, kernel);
                heap_offer(cand, &mut len, cap, (dot, i));
            }
            cand.truncate(len);
            sort_candidates(cand);
            out.extend(cand.iter().map(|&(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            }));
        });
    }

    /// [`PackedShards::top_k`] for a whole batch of queries in one tiled
    /// table traversal: shards are walked in the outer loop and, within
    /// each shard, queries run in register blocks of four — an
    /// L1-sized tile of codebook words is scanned by up to four queries
    /// before the next tile is touched, so each tile's cache lines are
    /// loaded once per block instead of once per query. This is the
    /// amortization a serving planner relies on when it groups requests
    /// against one codebook.
    ///
    /// Per-query results are **bit-identical** to calling
    /// [`PackedShards::top_k`] once per query (same candidate set, same
    /// descending-similarity order, same ascending-index tie break). The
    /// traversal is single-threaded; callers that want parallelism chunk
    /// the query batch and fan the chunks out themselves.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the table's.
    pub fn top_k_many(&self, queries: &[PackedQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        let mut outs = Vec::with_capacity(queries.len());
        self.top_k_many_into(queries, k, &mut outs);
        outs
    }

    /// [`PackedShards::top_k_many`] into caller-owned buffers: `outs` is
    /// resized to one inner `Vec` per query (inner buffers are cleared
    /// and reused, extras truncated away), the per-query bounded heaps
    /// live flat in the thread-local scan scratch, and the final ordering
    /// uses an allocation-free unstable sort — a warm call with reused
    /// buffers performs **zero heap allocations**. Results are identical
    /// to [`PackedShards::top_k_many`].
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the table's.
    pub fn top_k_many_into(
        &self,
        queries: &[PackedQuery<'_>],
        k: usize,
        outs: &mut Vec<Vec<SearchHit>>,
    ) {
        let _span = StageTimer::enter(Stage::Scan);
        for query in queries {
            self.check_query(query);
        }
        outs.truncate(queries.len());
        for out in outs.iter_mut() {
            out.clear();
        }
        while outs.len() < queries.len() {
            outs.push(Vec::new());
        }
        if k == 0 || queries.is_empty() {
            return;
        }
        let kernel = kernels::selected_kernel();
        let cap = k.min(self.len);
        with_scratch(|scratch| {
            let ScanScratch {
                heap_data,
                heap_lens,
                weights,
                ..
            } = scratch;
            weights.clear();
            weights.extend(queries.iter().map(|q| q.l1_weight()));
            heap_data.clear();
            heap_data.resize(queries.len() * cap, (0, 0));
            heap_lens.clear();
            heap_lens.resize(queries.len(), 0);
            for s in 0..self.num_shards() {
                let range = self.shard_range(s);
                // Register-blocked inner loop: every item of this tile is
                // scanned by up to QUERY_BLOCK queries before eviction,
                // in ascending item order per query — the same
                // candidate-retention policy as the single-query scan.
                for block_start in (0..queries.len()).step_by(QUERY_BLOCK) {
                    let block_end = (block_start + QUERY_BLOCK).min(queries.len());
                    for i in range.clone() {
                        let item = self.item_words(i);
                        for q in block_start..block_end {
                            let dot = queries[q].dot_words(item, weights[q], kernel);
                            let segment = &mut heap_data[q * cap..(q + 1) * cap];
                            heap_offer(segment, &mut heap_lens[q], cap, (dot, i));
                        }
                    }
                }
            }
            for (q, out) in outs.iter_mut().enumerate() {
                let segment = &mut heap_data[q * cap..q * cap + heap_lens[q]];
                sort_candidates(segment);
                out.extend(segment.iter().map(|&(dot, index)| SearchHit {
                    index,
                    sim: self.sim_of(dot),
                }));
            }
        });
    }

    /// The single most similar item (equivalent to `top_k(query, 1)`).
    ///
    /// # Errors
    ///
    /// Never fails for a constructed codebook; returns
    /// [`HdcError::EmptyCodebook`] defensively.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn best_match(&self, query: PackedQuery<'_>) -> Result<SearchHit, HdcError> {
        self.top_k(query, 1)
            .into_iter()
            .next()
            .ok_or(HdcError::EmptyCodebook)
    }

    /// All items whose similarity strictly exceeds `threshold`, sorted by
    /// descending similarity with ties broken by ascending item index —
    /// exactly the ordering of the scalar reference
    /// [`Codebook::above_threshold`].
    ///
    /// Tables below the parallel threshold are scanned through
    /// [`PackedShards::above_threshold_into`] (thread-local scratch, zero
    /// steady-state allocations beyond the returned `Vec`); larger tables
    /// fork across the rayon pool.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn above_threshold(&self, query: PackedQuery<'_>, threshold: f64) -> Vec<SearchHit> {
        if !self.parallel() {
            let mut out = Vec::new();
            self.above_threshold_into(query, threshold, &mut out);
            return out;
        }
        self.check_query(&query);
        let kernel = kernels::selected_kernel();
        let weight = query.l1_weight();
        let per_shard = self.scan_shards(|range| {
            range
                .filter_map(|i| {
                    let dot = query.dot_words(self.item_words(i), weight, kernel);
                    let sim = self.sim_of(dot);
                    (sim > threshold).then_some((dot, i))
                })
                .collect::<Vec<(i64, usize)>>()
        });
        let mut hits: Vec<(i64, usize)> = per_shard.concat();
        sort_candidates(&mut hits);
        hits.into_iter()
            .map(|(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            })
            .collect()
    }

    /// [`PackedShards::above_threshold`] into a caller-owned buffer:
    /// `out` is cleared and refilled, candidates accumulate in the
    /// thread-local scan scratch, and the final ordering uses an
    /// allocation-free unstable sort — a warm call with a reused `out`
    /// performs **zero heap allocations**. Always single-threaded;
    /// results are identical to [`PackedShards::above_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn above_threshold_into(
        &self,
        query: PackedQuery<'_>,
        threshold: f64,
        out: &mut Vec<SearchHit>,
    ) {
        let _span = StageTimer::enter(Stage::Scan);
        self.check_query(&query);
        out.clear();
        let kernel = kernels::selected_kernel();
        let weight = query.l1_weight();
        with_scratch(|scratch| {
            let cand = &mut scratch.cand;
            cand.clear();
            for i in 0..self.len {
                let dot = query.dot_words(self.item_words(i), weight, kernel);
                if self.sim_of(dot) > threshold {
                    cand.push((dot, i));
                }
            }
            sort_candidates(cand);
            out.extend(cand.iter().map(|&(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            }));
        });
    }

    #[inline]
    fn item_words(&self, index: usize) -> &[u64] {
        &self.words[index * self.words_per_item..(index + 1) * self.words_per_item]
    }
}

impl fmt::Debug for PackedShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedShards")
            .field("len", &self.len)
            .field("dim", &self.dim)
            .field("shard_len", &self.shard_len)
            .field("generation", &self.generation)
            .finish()
    }
}

/// Scan routing: every query type scans a codebook through its
/// [`PackedShards`] table.
///
/// Word-level representations ([`BipolarHv`], [`TernaryHv`], [`PackedHv`])
/// scan through their borrowed [`PackedQuery`] view; integer accumulators
/// ([`AccumHv`]) are first packed into sign-plus-magnitude-planes form
/// with [`PackedHv::from_accum`], which is lossless for every
/// accumulator. Every route returns results identical to the scalar
/// reference searches on [`Codebook`] — the oracle the packed kernels are
/// tested against.
///
/// ```
/// use hdc::{AccumHv, Codebook, CodebookScan};
///
/// let cb = Codebook::derive(3, 16, 512);
/// let query = cb.item(4).to_ternary();
/// let packed = query.scan_top_k(&cb, 2);      // packed shard scan
/// let reference = cb.top_k(&query, 2);        // scalar reference
/// assert_eq!(packed, reference);
/// assert_eq!(packed[0].index, 4);
///
/// // A two-item bundle scans on two magnitude planes, still exactly.
/// let mut bundle = AccumHv::zeros(512);
/// bundle.add_bipolar(cb.item(4), 1);
/// bundle.add_bipolar(cb.item(9), 1);
/// assert_eq!(bundle.scan_top_k(&cb, 3), cb.top_k(&bundle, 3));
/// ```
pub trait CodebookScan: Similarity {
    /// The `k` most similar items of `codebook`, sorted by descending
    /// similarity (ties by ascending index).
    fn scan_top_k(&self, codebook: &Codebook, k: usize) -> Vec<SearchHit>;

    /// [`CodebookScan::scan_top_k`] into a caller-owned buffer: `out` is
    /// cleared and refilled with identical hits through
    /// [`PackedShards::top_k_into`] — thread-local scratch, zero
    /// steady-state allocations in the scan when `out` is reused — which
    /// is what the factorizer's per-class and beam-descent scans run on.
    fn scan_top_k_into(&self, codebook: &Codebook, k: usize, out: &mut Vec<SearchHit>);

    /// All items of `codebook` whose similarity strictly exceeds
    /// `threshold`, sorted by descending similarity (ties by ascending
    /// index).
    fn scan_above_threshold(&self, codebook: &Codebook, threshold: f64) -> Vec<SearchHit>;

    /// [`CodebookScan::scan_above_threshold`] into a caller-owned buffer:
    /// `out` is cleared and refilled with identical hits through
    /// [`PackedShards::above_threshold_into`] — the **explicitly
    /// sequential** zero-alloc path — making this the safe entry point for
    /// callers that may already be running inside a parallel region (the
    /// factorizer's per-class and descent scans under planned batch
    /// execution).
    fn scan_above_threshold_into(
        &self,
        codebook: &Codebook,
        threshold: f64,
        out: &mut Vec<SearchHit>,
    );

    /// The single most similar item of `codebook`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyCodebook`] defensively; constructed
    /// codebooks are never empty.
    fn scan_best(&self, codebook: &Codebook) -> Result<SearchHit, HdcError> {
        self.scan_top_k(codebook, 1)
            .into_iter()
            .next()
            .ok_or(HdcError::EmptyCodebook)
    }

    /// [`CodebookScan::scan_top_k`] for a whole batch of queries against
    /// one codebook, per-query results bit-identical to the one-at-a-time
    /// scan, through [`PackedShards::top_k_many`]: the table traversal is
    /// amortized across the batch.
    fn scan_top_k_many(codebook: &Codebook, queries: &[Self], k: usize) -> Vec<Vec<SearchHit>>
    where
        Self: Sized;
}

macro_rules! impl_codebook_scan_packed {
    ($($ty:ty),*) => {$(
        impl CodebookScan for $ty {
            fn scan_top_k(&self, codebook: &Codebook, k: usize) -> Vec<SearchHit> {
                codebook.packed_view().top_k(self.packed_query(), k)
            }

            fn scan_top_k_into(
                &self,
                codebook: &Codebook,
                k: usize,
                out: &mut Vec<SearchHit>,
            ) {
                codebook.packed_view().top_k_into(self.packed_query(), k, out)
            }

            fn scan_above_threshold(
                &self,
                codebook: &Codebook,
                threshold: f64,
            ) -> Vec<SearchHit> {
                codebook
                    .packed_view()
                    .above_threshold(self.packed_query(), threshold)
            }

            fn scan_above_threshold_into(
                &self,
                codebook: &Codebook,
                threshold: f64,
                out: &mut Vec<SearchHit>,
            ) {
                codebook
                    .packed_view()
                    .above_threshold_into(self.packed_query(), threshold, out)
            }

            fn scan_top_k_many(
                codebook: &Codebook,
                queries: &[Self],
                k: usize,
            ) -> Vec<Vec<SearchHit>> {
                let packed: Vec<PackedQuery<'_>> =
                    queries.iter().map(|q| q.packed_query()).collect();
                codebook.packed_view().top_k_many(&packed, k)
            }
        }
    )*};
}

impl_codebook_scan_packed!(BipolarHv, TernaryHv, PackedHv);

/// Accumulators pack once per call ([`PackedHv::from_accum`]) and scan
/// the packed form. Callers scanning one accumulator many times pack it
/// themselves and reuse the [`PackedHv`].
impl CodebookScan for AccumHv {
    fn scan_top_k(&self, codebook: &Codebook, k: usize) -> Vec<SearchHit> {
        PackedHv::from_accum(self).scan_top_k(codebook, k)
    }

    fn scan_top_k_into(&self, codebook: &Codebook, k: usize, out: &mut Vec<SearchHit>) {
        PackedHv::from_accum(self).scan_top_k_into(codebook, k, out)
    }

    fn scan_above_threshold(&self, codebook: &Codebook, threshold: f64) -> Vec<SearchHit> {
        PackedHv::from_accum(self).scan_above_threshold(codebook, threshold)
    }

    fn scan_above_threshold_into(
        &self,
        codebook: &Codebook,
        threshold: f64,
        out: &mut Vec<SearchHit>,
    ) {
        PackedHv::from_accum(self).scan_above_threshold_into(codebook, threshold, out)
    }

    fn scan_top_k_many(codebook: &Codebook, queries: &[Self], k: usize) -> Vec<Vec<SearchHit>> {
        let packed: Vec<PackedHv> = queries.iter().map(PackedHv::from_accum).collect();
        PackedHv::scan_top_k_many(codebook, &packed, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rng_from_seed, Bind, Bundle};

    fn random_ternary(dim: usize, seed: u64) -> TernaryHv {
        let mut rng = rng_from_seed(seed);
        let a = BipolarHv::random(dim, &mut rng);
        let b = BipolarHv::random(dim, &mut rng);
        a.bundle(&b).clip_ternary()
    }

    #[test]
    fn bounded_heap_keeps_the_k_best() {
        // Adversarial stream with heavy ties: the kept set must be the k
        // candidates ranking highest under (dot desc, index asc).
        let entries: Vec<(i64, usize)> = (0..40).map(|i| ((i % 5) as i64, i)).collect();
        for k in [1usize, 3, 7, 40, 50] {
            let cap = k.min(entries.len());
            let mut heap = vec![(0i64, 0usize); cap];
            let mut len = 0usize;
            for &e in &entries {
                heap_offer(&mut heap, &mut len, cap, e);
            }
            heap.truncate(len);
            sort_candidates(&mut heap);
            let mut expected = entries.clone();
            sort_candidates(&mut expected);
            expected.truncate(cap);
            assert_eq!(heap, expected, "k {k}");
        }
    }

    #[test]
    fn packed_dot_matches_reference_dense() {
        let mut rng = rng_from_seed(1);
        for dim in [1usize, 63, 64, 65, 333, 1024] {
            let a = BipolarHv::random(dim, &mut rng);
            let b = BipolarHv::random(dim, &mut rng);
            let pa = PackedHv::from_bipolar(&a);
            let pb = PackedHv::from_bipolar(&b);
            assert_eq!(pa.dot(&pb), a.dot(&b), "dim {dim}");
            assert_eq!(pa.hamming(&pb), a.hamming(&b), "dim {dim}");
        }
    }

    #[test]
    fn packed_dot_matches_reference_ternary() {
        for (dim, seed) in [(1usize, 10u64), (65, 11), (200, 12), (1024, 13)] {
            let t = random_ternary(dim, seed);
            let u = random_ternary(dim, seed ^ 0xFF);
            let pt = PackedHv::from_ternary(&t);
            let pu = PackedHv::from_ternary(&u);
            assert_eq!(pt.dot(&pu), t.dot(&u), "dim {dim}");
            let mut rng = rng_from_seed(seed ^ 0xAAAA);
            let b = BipolarHv::random(dim, &mut rng);
            assert_eq!(pt.dot(&PackedHv::from_bipolar(&b)), t.dot_bipolar(&b));
        }
    }

    #[test]
    fn packed_hamming_counts_zero_disagreements() {
        let t = TernaryHv::from_components(&[1, 0, -1, 0]).unwrap();
        let u = TernaryHv::from_components(&[1, 1, 1, 0]).unwrap();
        let h = PackedHv::from_ternary(&t).hamming(&PackedHv::from_ternary(&u));
        // Components 1 (0 vs 1) and 2 (-1 vs 1) differ.
        assert_eq!(h, 2);
    }

    #[test]
    fn packed_bind_matches_componentwise_product() {
        let t = random_ternary(130, 20);
        let u = random_ternary(130, 21);
        let bound = PackedHv::from_ternary(&t).bind(&PackedHv::from_ternary(&u));
        let expected: TernaryHv = t.bind(&u);
        assert_eq!(bound, PackedHv::from_ternary(&expected));
        for i in 0..130 {
            assert_eq!(bound.component(i), expected.component(i) as i64);
        }
    }

    #[test]
    fn multi_plane_bind_packs_exact_products() {
        // Two multi-plane operands multiply component by component and
        // pack through the `u64` transpose: products of up to 62 planes,
        // the sign in its own byte lane past 7 planes, full and partial
        // last words.
        use rand::Rng;
        let mut rng = rng_from_seed(0xFAC7);
        for dim in [1usize, 63, 64, 65, 200] {
            for max in [3i32, 127, 128, 70_000, i32::MAX] {
                let mut a: Vec<i32> = (0..dim).map(|_| rng.gen_range(-max..=max)).collect();
                let b: Vec<i32> = (0..dim).map(|_| rng.gen_range(-max..=max)).collect();
                a[dim - 1] = i32::MIN;
                let product = PackedHv::from_accum(&AccumHv::from_components(a.clone()))
                    .bind(&PackedHv::from_accum(&AccumHv::from_components(b.clone())));
                for i in 0..dim {
                    assert_eq!(
                        product.component(i),
                        a[i] as i64 * b[i] as i64,
                        "dim {dim} max {max} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn product_similarity_matches_the_materialized_product() {
        let mut rng = rng_from_seed(0x9E0D);
        for dim in [1usize, 63, 130, 4096, 4097 + 64 * 64] {
            let items: Vec<BipolarHv> = (0..3).map(|_| BipolarHv::random(dim, &mut rng)).collect();
            let mut bundle = AccumHv::zeros(dim);
            for item in &items {
                bundle.add_bipolar(item, 1);
            }
            let queries = [
                PackedHv::from_bipolar(&items[0]),
                PackedHv::from_ternary(&random_ternary(dim, dim as u64)),
                PackedHv::from_accum(&bundle),
                PackedHv::from_accum(&AccumHv::zeros(dim)),
            ];
            for query in &queries {
                assert_eq!(query.l1_weight(), query.packed_query().l1_weight());
                assert_eq!(
                    query.sim_to_product([]),
                    query.sim_to(&BipolarHv::ones(dim))
                );
                for n in 1..=3 {
                    let mut product = items[0].clone();
                    for item in &items[1..n] {
                        product.bind_assign(item);
                    }
                    assert_eq!(query.sim_to_product(&items[..n]), query.sim_to(&product));
                    assert_eq!(
                        query.sim_to_product(&items[..n]),
                        bundle_sim(query, &product)
                    );
                }
            }
        }
    }

    /// The scalar reference similarity of a packed vector, component by
    /// component.
    fn bundle_sim(query: &PackedHv, reference: &BipolarHv) -> f64 {
        let dot: i64 = (0..query.dim())
            .map(|i| query.component(i) * reference.component(i) as i64)
            .sum();
        dot as f64 / query.dim() as f64
    }

    #[test]
    fn dense_ternary_canonicalizes_to_maskless() {
        let mut rng = rng_from_seed(30);
        let b = BipolarHv::random(100, &mut rng);
        let via_ternary = PackedHv::from_ternary(&b.to_ternary());
        let direct = PackedHv::from_bipolar(&b);
        assert_eq!(via_ternary, direct);
        assert!(via_ternary.is_dense());
    }

    #[test]
    fn packed_similarity_trait_matches_reference() {
        let mut rng = rng_from_seed(31);
        let reference = BipolarHv::random(777, &mut rng);
        let t = random_ternary(777, 32);
        let packed = PackedHv::from_ternary(&t);
        assert_eq!(packed.sim_to(&reference), t.sim_to(&reference));
        assert_eq!(
            PackedHv::from_accum(&t.to_accum()).sim_to(&reference),
            t.sim_to(&reference)
        );
        let big = AccumHv::from_components(vec![2, 0, -1]);
        let big_ref = BipolarHv::from_components(&[1, -1, -1]).unwrap();
        assert_eq!(
            PackedHv::from_accum(&big).sim_to(&big_ref),
            big.sim_to(&big_ref)
        );
    }

    #[test]
    fn shard_table_dots_match_reference() {
        let cb = Codebook::derive(40, 37, 513);
        let mut rng = rng_from_seed(41);
        let q = BipolarHv::random(513, &mut rng);
        assert_eq!(
            cb.packed_view().dots(q.packed_query()),
            cb.iter().map(|item| q.dot(item)).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn shard_table_top_k_matches_reference_ordering() {
        // Small dim forces many exact ties: ordering must still agree.
        let cb = Codebook::derive(42, 64, 16);
        let t = random_ternary(16, 43);
        for k in [1usize, 3, 16, 64, 100] {
            assert_eq!(t.scan_top_k(&cb, k), cb.top_k(&t, k), "k {k}");
        }
        assert_eq!(t.scan_top_k(&cb, 0), Vec::new());
    }

    #[test]
    fn shard_table_above_threshold_matches_reference() {
        let cb = Codebook::derive(44, 50, 256);
        let t = random_ternary(256, 45);
        for th in [-0.5f64, -0.1, 0.0, 0.05, 0.3, 0.9] {
            assert_eq!(
                t.scan_above_threshold(&cb, th),
                cb.above_threshold(&t, th),
                "threshold {th}"
            );
        }
    }

    #[test]
    fn scan_best_matches_best_match() {
        let cb = Codebook::derive(46, 20, 1024);
        let q = cb.item(13).clone();
        let packed = q.scan_best(&cb).unwrap();
        let reference = cb.best_match(&q).unwrap();
        assert_eq!(packed, reference);
        assert_eq!(packed.index, 13);
    }

    #[test]
    fn accum_route_matches_packed_route_when_lossless() {
        let cb = Codebook::derive(47, 24, 512);
        let t = random_ternary(512, 48);
        let acc = t.to_accum();
        assert_eq!(acc.scan_top_k(&cb, 5), t.scan_top_k(&cb, 5));
        assert_eq!(
            acc.scan_above_threshold(&cb, 0.1),
            t.scan_above_threshold(&cb, 0.1)
        );
    }

    #[test]
    fn shard_geometry_covers_all_items() {
        let cb = Codebook::derive(49, 1000, 8192);
        let view = cb.packed_view();
        assert_eq!(view.len(), 1000);
        assert_eq!(view.dim(), 8192);
        assert!(view.shard_len() >= 1);
        assert_eq!(view.num_shards(), 1000usize.div_ceil(view.shard_len()));
        // Every index appears in exactly one shard.
        let mut seen = vec![false; 1000];
        for s in 0..view.num_shards() {
            for i in view.shard_range(s) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    /// Serializes tests that resize the global worker pool.
    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_sequential() {
        let _guard = pool_test_lock();
        let before = rayon::current_num_threads();
        // Multi-lane pool so the size gate is the only question…
        rayon::configure_pool(2);
        // …and big enough to clear PAR_MIN_WORDS (4096 items × 128 words).
        let cb = Codebook::derive(50, 4096, 8192);
        let view = cb.packed_view();
        assert!(view.parallel(), "table must take the parallel route");
        let t = random_ternary(8192, 51);
        let q = t.packed_query();
        // Sequential reference over the same table.
        let weight = q.l1_weight();
        let kernel = kernels::selected_kernel();
        let seq: Vec<i64> = (0..view.len())
            .map(|i| q.dot_words(view.item_words(i), weight, kernel))
            .collect();
        assert_eq!(view.dots(q), seq);
        assert_eq!(view.top_k(q, 7), cb.top_k(&t, 7));
        rayon::configure_pool(before);
    }

    #[test]
    fn top_k_many_matches_per_query_top_k() {
        // Small dim forces exact ties: the batched traversal must keep the
        // same candidates in the same order as the one-at-a-time scan.
        let cb = Codebook::derive(60, 96, 64);
        let view = cb.packed_view();
        let queries: Vec<TernaryHv> = (0..9).map(|i| random_ternary(64, 61 + i)).collect();
        let packed: Vec<PackedQuery<'_>> = queries.iter().map(|q| q.packed_query()).collect();
        for k in [1usize, 4, 96, 200] {
            let many = view.top_k_many(&packed, k);
            for (q, hits) in queries.iter().zip(&many) {
                assert_eq!(hits, &view.top_k(q.packed_query(), k), "k {k}");
                assert_eq!(hits, &cb.top_k(q, k), "k {k} vs reference");
            }
        }
        assert_eq!(view.top_k_many(&packed, 0), vec![Vec::new(); queries.len()]);
        assert_eq!(view.top_k_many(&[], 3), Vec::<Vec<SearchHit>>::new());
    }

    #[test]
    fn scan_top_k_many_routes_match_per_query() {
        let cb = Codebook::derive(62, 40, 512);
        let ternary: Vec<TernaryHv> = (0..5).map(|i| random_ternary(512, 63 + i)).collect();
        let grouped = TernaryHv::scan_top_k_many(&cb, &ternary, 3);
        let single: Vec<Vec<SearchHit>> = ternary.iter().map(|q| q.scan_top_k(&cb, 3)).collect();
        assert_eq!(grouped, single);
        // The accumulator route (packed per call) agrees too.
        let accums: Vec<AccumHv> = ternary.iter().map(|t| t.to_accum()).collect();
        assert_eq!(AccumHv::scan_top_k_many(&cb, &accums, 3), single);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let cb = Codebook::derive(52, 4, 64);
        assert!(!format!("{:?}", cb.packed_view()).is_empty());
        assert!(!format!("{:?}", PackedHv::from_bipolar(cb.item(0))).is_empty());
    }

    #[test]
    fn into_variants_match_plain_scans_across_reuses() {
        // The caller-buffer variants must agree with the plain scans and
        // stay correct when their buffers are reused (smaller and larger
        // follow-up scans, stale contents cleared).
        let cb = Codebook::derive(70, 96, 192);
        let view = cb.packed_view();
        let mut hits = Vec::new();
        let mut dots = Vec::new();
        let mut th_hits = Vec::new();
        let mut many = Vec::new();
        for round in 0..3 {
            for (i, k) in [(1usize, 1usize), (5, 4), (9, 96), (13, 200)].into_iter() {
                let t = random_ternary(192, 71 + i as u64 + round);
                let q = t.packed_query();
                view.top_k_into(q, k, &mut hits);
                assert_eq!(hits, view.top_k(q, k), "k {k} round {round}");
                view.dots_into(q, &mut dots);
                assert_eq!(dots, view.dots(q), "round {round}");
                view.above_threshold_into(q, 0.05, &mut th_hits);
                assert_eq!(th_hits, view.above_threshold(q, 0.05), "round {round}");
            }
            let queries: Vec<TernaryHv> = (0..7 - round as usize)
                .map(|i| random_ternary(192, 80 + round * 10 + i as u64))
                .collect();
            let packed: Vec<PackedQuery<'_>> = queries.iter().map(|q| q.packed_query()).collect();
            view.top_k_many_into(&packed, 5, &mut many);
            assert_eq!(many.len(), packed.len());
            assert_eq!(many, view.top_k_many(&packed, 5), "round {round}");
        }
        // k = 0 clears every buffer.
        let t = random_ternary(192, 99);
        view.top_k_into(t.packed_query(), 0, &mut hits);
        assert!(hits.is_empty());
        view.top_k_many_into(&[t.packed_query()], 0, &mut many);
        assert_eq!(many, vec![Vec::new()]);
    }

    #[test]
    fn scan_above_threshold_into_matches_plain_scan() {
        // The explicit sequential entry point must agree with the
        // parallel-capable scan for both word-level queries and
        // accumulators, and inside a parallel region the gated scan must stay
        // bit-identical (the nested-suppression path).
        let cb = Codebook::derive(76, 64, 256);
        let t = random_ternary(256, 77);
        let mut out = Vec::new();
        t.scan_above_threshold_into(&cb, 0.03, &mut out);
        assert_eq!(out, t.scan_above_threshold(&cb, 0.03));
        let accum = t.to_accum();
        accum.scan_above_threshold_into(&cb, 0.03, &mut out);
        assert_eq!(out, accum.scan_above_threshold(&cb, 0.03));
        // From inside a region the gate forces the sequential path; the
        // hits must stay bit-identical. (Two items on a two-lane pool so
        // the closure genuinely runs in-region.)
        let _guard = pool_test_lock();
        let before = rayon::current_num_threads();
        rayon::configure_pool(2);
        let reference = t.scan_above_threshold(&cb, 0.03);
        let nested: Vec<Vec<SearchHit>> = vec![0u64, 1]
            .into_par_iter()
            .map(|_| {
                assert!(rayon::in_parallel_region());
                t.scan_above_threshold(&cb, 0.03)
            })
            .collect();
        rayon::configure_pool(before);
        assert_eq!(nested[0], reference);
        assert_eq!(nested[1], reference);
    }

    #[test]
    fn batched_scan_exceeding_query_block_matches_per_query() {
        // More queries than one register block (QUERY_BLOCK) and more
        // items than one shard: the tiled traversal must stay
        // bit-identical to the one-at-a-time scans.
        let cb = Codebook::derive(72, 300, 2048);
        let view = cb.packed_view();
        assert!(view.num_shards() > 1, "geometry must span multiple tiles");
        let queries: Vec<TernaryHv> = (0..QUERY_BLOCK as u64 * 3 + 1)
            .map(|i| random_ternary(2048, 73 + i))
            .collect();
        let packed: Vec<PackedQuery<'_>> = queries.iter().map(|q| q.packed_query()).collect();
        let many = view.top_k_many(&packed, 6);
        for (q, hits) in queries.iter().zip(&many) {
            assert_eq!(hits, &view.top_k(q.packed_query(), 6));
            assert_eq!(hits, &cb.top_k(q, 6));
        }
    }

    #[test]
    fn every_available_kernel_scans_bit_identically() {
        // Small dim forces exact ties; every dispatchable kernel must
        // keep the reference candidate set and tie ordering.
        let _guard = kernels::selection_test_lock();
        let cb = Codebook::derive(74, 80, 48);
        let view = cb.packed_view();
        let t = random_ternary(48, 75);
        let reference = cb.top_k(&t, 10);
        let original = kernels::selected_kernel();
        for kernel in kernels::available_kernels() {
            kernels::force_kernel(kernel.name()).expect("available");
            assert_eq!(
                view.top_k(t.packed_query(), 10),
                reference,
                "kernel {}",
                kernel.name()
            );
        }
        kernels::force_kernel(original.name()).expect("restore");
    }
}
