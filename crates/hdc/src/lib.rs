//! # hdc — hyperdimensional computing substrate
//!
//! This crate implements the vector-symbolic-architecture (VSA) substrate
//! used by the FactorHD reproduction: hypervector types, the algebra over
//! them (binding, bundling, permutation, similarity), and codebooks /
//! item memories for symbol storage and cleanup.
//!
//! Three hypervector representations cover the value domains the paper
//! uses:
//!
//! * [`BipolarHv`] — dense `{-1, +1}` vectors stored as packed sign bits
//!   (one bit per dimension). Binding is XOR, dot products are popcounts.
//! * [`TernaryHv`] — `{-1, 0, +1}` vectors stored as two bit planes
//!   (a non-zero mask plane and a sign plane; the mask is omitted when no
//!   component is zero). FactorHD clips single-object clause bundles into
//!   this space ("2 bits per dimension" in the paper).
//! * [`AccumHv`] — integer vectors (`i32` per dimension) used for
//!   unclipped bundles of multiple objects, which the paper keeps in `Z^D`.
//!
//! On top of these, the packed scan backend ([`PackedHv`],
//! [`PackedShards`], [`CodebookScan`]) re-lays codebooks out as contiguous
//! sharded `u64` word tables and holds every query — integer accumulators
//! included, as a sign plane plus magnitude bit-planes — in word form, so
//! that every similarity scan — the dominating cost of FactorHD's label
//! elimination and factorization — runs as word-parallel XOR/popcount
//! kernels, bit-identical to the scalar reference arithmetic. The inner popcount loops themselves are
//! runtime-dispatched ([`kernels`]): hardware `POPCNT`, AVX2, and
//! AVX-512 `vpopcntq` implementations are selected by CPU detection at
//! first use (forcible via the `FACTORHD_KERNEL` environment variable),
//! with a portable Harley–Seal ladder as the fallback. See
//! `docs/REPRESENTATIONS.md` for how the representations map onto the
//! paper and `docs/KERNELS.md` for the kernel-dispatch design.
//!
//! # Example
//!
//! ```
//! use hdc::{Bind, BipolarHv, Codebook};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let a = BipolarHv::random(1024, &mut rng);
//! let b = BipolarHv::random(1024, &mut rng);
//!
//! // Randomly generated hypervectors are quasi-orthogonal...
//! assert!(a.sim(&b).abs() < 0.2);
//! // ...and binding is self-inverse.
//! let bound = a.bind(&b);
//! assert_eq!(bound.bind(&b), a);
//! ```

// `unsafe` is denied crate-wide; the single exception is the `kernels`
// module, whose `#[target_feature]` SIMD bodies and dispatch wrappers
// carry explicit `#[allow(unsafe_code)]` with a documented safety
// argument (docs/KERNELS.md).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accum;
mod bipolar;
mod codebook;
mod error;
mod item_memory;
pub mod kernels;
mod ops;
mod packed;
mod rng;
mod sim;
pub mod stage;
mod ternary;

pub use accum::AccumHv;
pub use bipolar::BipolarHv;
pub use codebook::{Codebook, SearchHit};
pub use error::HdcError;
pub use item_memory::ItemMemory;
pub use ops::{Bind, Bundle, Permute};
pub use packed::{AsPackedQuery, CodebookScan, PackedHv, PackedQuery, PackedShards};
pub use rng::{derive_seed, rng_from_seed, DEFAULT_SEED};
pub use sim::{cosine, hamming_distance, normalized_dot, Similarity};
pub use stage::{Stage, StageTimer, StageTotal};
pub use ternary::TernaryHv;

/// Convenient glob import of the most common substrate types and traits.
///
/// ```
/// use hdc::prelude::*;
/// ```
pub mod prelude {
    pub use crate::{
        AccumHv, AsPackedQuery, Bind, BipolarHv, Bundle, Codebook, CodebookScan, HdcError,
        ItemMemory, PackedHv, Permute, Similarity, TernaryHv,
    };
}

pub(crate) const WORD_BITS: usize = 64;

/// Number of 64-bit words needed to store `dim` packed bits.
#[inline]
pub(crate) fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Mask keeping only the valid (in-dimension) bits of the final word.
#[inline]
pub(crate) fn tail_mask(dim: usize) -> u64 {
    let rem = dim % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Word `i` of an all-ones plane for a vector of logical length `dim`:
/// every bit, except the padding of the last word.
#[inline]
pub(crate) fn full_word(dim: usize, i: usize) -> u64 {
    if i + 1 == words_for(dim) {
        tail_mask(dim)
    } else {
        u64::MAX
    }
}

/// Zeroes the padding bits of the last word in `words` for a vector of
/// logical length `dim`. Internal invariant: padding bits are always zero so
/// popcount-based kernels need no per-call masking.
#[inline]
pub(crate) fn clear_padding(words: &mut [u64], dim: usize) {
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(dim);
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_covers_remainder() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(3), 0b111);
        assert_eq!(tail_mask(65), 1);
    }

    #[test]
    fn clear_padding_zeroes_tail() {
        let mut words = vec![u64::MAX, u64::MAX];
        clear_padding(&mut words, 65);
        assert_eq!(words[0], u64::MAX);
        assert_eq!(words[1], 1);
    }
}
