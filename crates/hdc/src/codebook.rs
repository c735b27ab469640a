//! Codebooks: indexed collections of quasi-orthogonal item hypervectors.
//!
//! A codebook holds the `M` holographic item vectors of one class (or one
//! subclass level) and answers the similarity queries every factorizer is
//! built from: best match, top-k, above-threshold, and weighted
//! superposition (the resonator "cleanup" step).

use crate::packed::{AsPackedQuery, PackedShards};
use crate::{AccumHv, BipolarHv, HdcError, Similarity, TernaryHv, WORD_BITS};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Monotonic codebook-generation source: every constructed codebook gets
/// a fresh stamp, so derived structures (the packed shard table, external
/// caches) can assert they were built from exactly this item set.
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One similarity-search result: item index plus its normalized similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Index of the item inside the codebook.
    pub index: usize,
    /// Normalized dot similarity of the query to that item.
    pub sim: f64,
}

/// An ordered set of `M` random bipolar item hypervectors.
///
/// ```
/// use hdc::Codebook;
///
/// let cb = Codebook::derive(42, 16, 1024);
/// let query = cb.item(5).clone();
/// let best = cb.best_match(&query).unwrap();
/// assert_eq!(best.index, 5);
/// assert!((best.sim - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Codebook {
    items: Vec<BipolarHv>,
    dim: usize,
    /// Row-major dense `i8` mirror of the items, built lazily for the
    /// weighted-superposition kernel (resonator cleanup).
    dense: OnceLock<Vec<i8>>,
    /// Contiguous sharded word table for packed scans, built lazily by
    /// [`Codebook::packed_view`] (or primed eagerly by the `.fhd` artifact
    /// loader via [`Codebook::from_le_bytes_with_shards`]).
    packed: OnceLock<PackedShards>,
    /// Construction stamp guarding derived structures against staleness;
    /// see [`Codebook::generation`].
    generation: u64,
}

impl PartialEq for Codebook {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.items == other.items
    }
}

impl Codebook {
    /// Creates a codebook of `m` random items sampled from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyCodebook`] if `m == 0` and
    /// [`HdcError::InvalidDimension`] if `dim == 0`.
    pub fn random<R: Rng + ?Sized>(m: usize, dim: usize, rng: &mut R) -> Result<Self, HdcError> {
        if m == 0 {
            return Err(HdcError::EmptyCodebook);
        }
        if dim == 0 {
            return Err(HdcError::InvalidDimension(0));
        }
        let items = (0..m).map(|_| BipolarHv::random(dim, rng)).collect();
        Ok(Codebook {
            items,
            dim,
            dense: OnceLock::new(),
            packed: OnceLock::new(),
            generation: next_generation(),
        })
    }

    /// Deterministically derives a codebook from a seed. The same
    /// `(seed, m, dim)` always produces the same items, which lets the
    /// taxonomy generate per-parent child codebooks lazily.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `dim == 0`.
    pub fn derive(seed: u64, m: usize, dim: usize) -> Self {
        let mut rng = crate::rng_from_seed(seed);
        Codebook::random(m, dim, &mut rng).expect("validated m and dim")
    }

    /// Builds a codebook from existing item vectors (e.g. trained
    /// prototypes from the neural pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyCodebook`] for an empty list and
    /// [`HdcError::DimensionMismatch`] if items disagree on dimension.
    pub fn from_items(items: Vec<BipolarHv>) -> Result<Self, HdcError> {
        let dim = items.first().ok_or(HdcError::EmptyCodebook)?.dim();
        if let Some(bad) = items.iter().find(|v| v.dim() != dim) {
            return Err(HdcError::DimensionMismatch {
                left: dim,
                right: bad.dim(),
            });
        }
        Ok(Codebook {
            items,
            dim,
            dense: OnceLock::new(),
            packed: OnceLock::new(),
            generation: next_generation(),
        })
    }

    /// Serialized length of [`Codebook::to_le_bytes`] for `m` items of
    /// dimension `dim`.
    #[inline]
    pub fn byte_len(m: usize, dim: usize) -> usize {
        m * BipolarHv::byte_len(dim)
    }

    /// Serializes all items, concatenated in index order, each in the
    /// [`BipolarHv::to_le_bytes`] wire form.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::byte_len(self.items.len(), self.dim));
        for item in &self.items {
            out.extend_from_slice(&item.to_le_bytes());
        }
        out
    }

    /// Reconstructs a codebook of `m` items of dimension `dim` from
    /// [`Codebook::to_le_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`HdcError::EmptyCodebook`] if `m == 0`,
    /// [`HdcError::InvalidDimension`] if `dim == 0`, or
    /// [`HdcError::InvalidEncoding`] if `bytes` is not exactly
    /// [`Codebook::byte_len`] long.
    pub fn from_le_bytes(m: usize, dim: usize, bytes: &[u8]) -> Result<Self, HdcError> {
        if m == 0 {
            return Err(HdcError::EmptyCodebook);
        }
        if dim == 0 {
            return Err(HdcError::InvalidDimension(0));
        }
        let expected = Self::byte_len(m, dim);
        if bytes.len() != expected {
            return Err(HdcError::InvalidEncoding {
                expected,
                actual: bytes.len(),
            });
        }
        let stride = BipolarHv::byte_len(dim);
        let items = bytes
            .chunks_exact(stride)
            .map(|chunk| BipolarHv::from_le_bytes(dim, chunk))
            .collect::<Result<Vec<_>, _>>()?;
        Codebook::from_items(items)
    }

    /// Reconstructs a codebook from [`Codebook::to_le_bytes`] output
    /// **with its packed shard table primed** at the given geometry —
    /// the wire payload *is* the shard table's word layout, so the `.fhd`
    /// artifact loader uses this to make packed scans warm from the first
    /// request instead of rebuilding the table on first use.
    ///
    /// # Errors
    ///
    /// The conditions of [`Codebook::from_le_bytes`], plus
    /// [`HdcError::InvalidShardLen`] if `shard_len == 0`.
    pub fn from_le_bytes_with_shards(
        m: usize,
        dim: usize,
        bytes: &[u8],
        shard_len: usize,
    ) -> Result<Self, HdcError> {
        if shard_len == 0 {
            return Err(HdcError::InvalidShardLen);
        }
        let cb = Codebook::from_le_bytes(m, dim, bytes)?;
        let shards = PackedShards::build(&cb.items, dim, shard_len, cb.generation);
        cb.packed
            .set(shards)
            .expect("freshly constructed codebook has no packed view");
        Ok(cb)
    }

    /// The construction stamp of this codebook's item set. Structures
    /// derived from the items — the [`PackedShards`] table, external
    /// caches — carry the generation they were built from, so a table can
    /// never silently describe a different item set (replacing a codebook,
    /// e.g. via `Taxonomy::set_codebook`, always installs a freshly
    /// stamped codebook with an empty view).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The packed shard table over this codebook's items, built on first
    /// use and cached (construction is one pass over the item words).
    ///
    /// All batched searches — [`PackedShards::top_k`],
    /// [`PackedShards::above_threshold`], [`PackedShards::dots`] — run on
    /// this contiguous table instead of chasing per-item allocations, and
    /// return results bit-identical to the scalar reference methods on
    /// this codebook.
    pub fn packed_view(&self) -> &PackedShards {
        self.packed.get_or_init(|| {
            PackedShards::build(
                &self.items,
                self.dim,
                PackedShards::default_shard_len(self.dim),
                self.generation,
            )
        })
    }

    /// `true` when the packed shard table has already been built (always
    /// true for codebooks loaded via
    /// [`Codebook::from_le_bytes_with_shards`]).
    #[inline]
    pub fn packed_view_ready(&self) -> bool {
        self.packed.get().is_some()
    }

    /// The shard geometry a `.fhd` artifact should persist for this
    /// codebook: the built table's geometry when the view exists, the
    /// default geometry for this dimension otherwise. Does **not** force
    /// the table to be built.
    #[inline]
    pub fn packed_shard_len(&self) -> usize {
        self.packed.get().map_or_else(
            || PackedShards::default_shard_len(self.dim),
            |s| s.shard_len(),
        )
    }

    /// Number of items `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the codebook has no items (never constructible publicly).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The hypervector dimension `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow item `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn item(&self, index: usize) -> &BipolarHv {
        &self.items[index]
    }

    /// Fallible item access.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ItemOutOfBounds`] for an invalid index.
    pub fn get(&self, index: usize) -> Result<&BipolarHv, HdcError> {
        self.items.get(index).ok_or(HdcError::ItemOutOfBounds {
            index,
            len: self.items.len(),
        })
    }

    /// Iterates over the item vectors.
    pub fn iter(&self) -> std::slice::Iter<'_, BipolarHv> {
        self.items.iter()
    }

    /// Normalized similarity of `query` to every item, in item order.
    pub fn sims<Q: Similarity>(&self, query: &Q) -> Vec<f64> {
        self.items.iter().map(|item| query.sim_to(item)).collect()
    }

    /// Integer dot products of a bipolar query against every item
    /// (the resonator hot path), served from the contiguous packed shard
    /// table — bit-identical to per-item [`BipolarHv::dot`] calls.
    pub fn dots_bipolar(&self, query: &BipolarHv) -> Vec<i64> {
        self.packed_view().dots(query.packed_query())
    }

    /// The single most similar item to `query`.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed codebook; returns
    /// [`HdcError::EmptyCodebook`] defensively.
    pub fn best_match<Q: Similarity>(&self, query: &Q) -> Result<SearchHit, HdcError> {
        let mut best: Option<SearchHit> = None;
        for (index, item) in self.items.iter().enumerate() {
            let sim = query.sim_to(item);
            if best.is_none_or(|b| sim > b.sim) {
                best = Some(SearchHit { index, sim });
            }
        }
        best.ok_or(HdcError::EmptyCodebook)
    }

    /// All items whose similarity to `query` strictly exceeds `threshold`,
    /// sorted by descending similarity. This is FactorHD's Rep-3 candidate
    /// selection ("select all the subclass items ... with a similarity
    /// larger than TH").
    pub fn above_threshold<Q: Similarity>(&self, query: &Q, threshold: f64) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .items
            .iter()
            .enumerate()
            .filter_map(|(index, item)| {
                let sim = query.sim_to(item);
                (sim > threshold).then_some(SearchHit { index, sim })
            })
            .collect();
        hits.sort_by(|a, b| b.sim.total_cmp(&a.sim));
        hits
    }

    /// The `k` most similar items, sorted by descending similarity.
    pub fn top_k<Q: Similarity>(&self, query: &Q, k: usize) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .items
            .iter()
            .enumerate()
            .map(|(index, item)| SearchHit {
                index,
                sim: query.sim_to(item),
            })
            .collect();
        hits.sort_by(|a, b| b.sim.total_cmp(&a.sim));
        hits.truncate(k);
        hits
    }

    /// Bundles all items into one accumulator (the resonator's initial
    /// estimate is the sign of this superposition).
    pub fn superposition(&self) -> AccumHv {
        let mut acc = AccumHv::zeros(self.dim);
        for item in &self.items {
            acc.add_bipolar(item, 1);
        }
        acc
    }

    /// Weighted superposition `Σ_j weights[j] · item_j`, the codebook
    /// "cleanup" projection of resonator networks. Uses a dense `i8`
    /// mirror of the items so the inner loop vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != len()`.
    pub fn weighted_superposition(&self, weights: &[i64]) -> AccumHv {
        assert_eq!(
            weights.len(),
            self.items.len(),
            "weight count {} != item count {}",
            weights.len(),
            self.items.len()
        );
        let dense = self.dense();
        let mut data = vec![0i64; self.dim];
        for (j, &w) in weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let row = &dense[j * self.dim..(j + 1) * self.dim];
            for (d, &s) in data.iter_mut().zip(row) {
                *d += w * s as i64;
            }
        }
        let clamped: Vec<i32> = data
            .iter()
            .map(|&v| v.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
            .collect();
        AccumHv::from_components(clamped)
    }

    fn dense(&self) -> &[i8] {
        self.dense.get_or_init(|| {
            let mut dense = Vec::with_capacity(self.items.len() * self.dim);
            for item in &self.items {
                for w_idx in 0..item.words().len() {
                    let word = item.words()[w_idx];
                    let base = w_idx * WORD_BITS;
                    let end = (base + WORD_BITS).min(self.dim);
                    for b in 0..(end - base) {
                        dense.push(if word >> b & 1 == 1 { -1 } else { 1 });
                    }
                }
            }
            dense
        })
    }

    /// Clips each item's bundle with `others` — utility for building
    /// clause-like structures in tests.
    pub fn bundle_with(&self, index: usize, others: &[&BipolarHv]) -> Result<TernaryHv, HdcError> {
        let mut members = Vec::with_capacity(others.len() + 1);
        members.push(self.get(index)?);
        members.extend_from_slice(others);
        Ok(TernaryHv::clipped_sum(&members))
    }
}

impl<'a> IntoIterator for &'a Codebook {
    type Item = &'a BipolarHv;
    type IntoIter = std::slice::Iter<'a, BipolarHv>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn derive_is_deterministic() {
        let a = Codebook::derive(77, 8, 256);
        let b = Codebook::derive(77, 8, 256);
        assert_eq!(a, b);
        let c = Codebook::derive(78, 8, 256);
        assert_ne!(a, c);
    }

    #[test]
    fn random_rejects_degenerate() {
        let mut rng = rng_from_seed(50);
        assert_eq!(
            Codebook::random(0, 64, &mut rng).unwrap_err(),
            HdcError::EmptyCodebook
        );
        assert_eq!(
            Codebook::random(4, 0, &mut rng).unwrap_err(),
            HdcError::InvalidDimension(0)
        );
    }

    #[test]
    fn best_match_finds_exact_item() {
        let cb = Codebook::derive(51, 32, 512);
        for idx in [0, 15, 31] {
            let hit = cb.best_match(cb.item(idx)).unwrap();
            assert_eq!(hit.index, idx);
            assert!((hit.sim - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn best_match_tolerates_noise() {
        let cb = Codebook::derive(52, 64, 2048);
        let mut rng = rng_from_seed(53);
        let noisy = cb.item(7).flip_noise(0.2, &mut rng);
        assert_eq!(cb.best_match(&noisy).unwrap().index, 7);
    }

    #[test]
    fn above_threshold_selects_bundle_members() {
        let cb = Codebook::derive(54, 16, 4096);
        let mut acc = AccumHv::zeros(4096);
        acc.add_bipolar(cb.item(2), 1);
        acc.add_bipolar(cb.item(9), 1);
        let hits = cb.above_threshold(&acc, 0.3);
        let indices: Vec<usize> = hits.iter().map(|h| h.index).collect();
        assert_eq!(indices.len(), 2);
        assert!(indices.contains(&2) && indices.contains(&9));
    }

    #[test]
    fn above_threshold_sorted_descending() {
        let cb = Codebook::derive(55, 16, 1024);
        let hits = cb.top_k(cb.item(0), 16);
        for w in hits.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
    }

    #[test]
    fn top_k_truncates() {
        let cb = Codebook::derive(56, 10, 256);
        assert_eq!(cb.top_k(cb.item(0), 3).len(), 3);
        assert_eq!(cb.top_k(cb.item(0), 100).len(), 10);
    }

    #[test]
    fn weighted_superposition_matches_naive() {
        let cb = Codebook::derive(57, 5, 200);
        let weights = [3i64, -1, 0, 7, 2];
        let fast = cb.weighted_superposition(&weights);
        let mut naive = AccumHv::zeros(200);
        for (j, &w) in weights.iter().enumerate() {
            naive.add_bipolar(cb.item(j), w as i32);
        }
        assert_eq!(fast, naive);
    }

    #[test]
    fn superposition_similar_to_all_items() {
        let cb = Codebook::derive(58, 4, 4096);
        let sup = cb.superposition();
        for item in &cb {
            assert!(sup.sim_bipolar(item) > 0.2);
        }
    }

    #[test]
    fn from_items_validates_dims() {
        let mut rng = rng_from_seed(59);
        let a = BipolarHv::random(64, &mut rng);
        let b = BipolarHv::random(65, &mut rng);
        assert!(Codebook::from_items(vec![]).is_err());
        assert!(Codebook::from_items(vec![a.clone(), b]).is_err());
        assert!(Codebook::from_items(vec![a.clone(), a]).is_ok());
    }

    #[test]
    fn le_bytes_round_trip() {
        let cb = Codebook::derive(61, 7, 130);
        let bytes = cb.to_le_bytes();
        assert_eq!(bytes.len(), Codebook::byte_len(7, 130));
        assert_eq!(Codebook::from_le_bytes(7, 130, &bytes).unwrap(), cb);
        assert!(Codebook::from_le_bytes(0, 130, &[]).is_err());
        assert!(Codebook::from_le_bytes(7, 0, &bytes).is_err());
        assert!(Codebook::from_le_bytes(6, 130, &bytes).is_err());
    }

    #[test]
    fn get_bounds_error() {
        let cb = Codebook::derive(60, 3, 64);
        assert!(cb.get(2).is_ok());
        assert_eq!(
            cb.get(3).unwrap_err(),
            HdcError::ItemOutOfBounds { index: 3, len: 3 }
        );
    }
}
