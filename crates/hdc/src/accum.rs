//! Integer accumulator hypervectors (`Z^D`).
//!
//! Bundling several objects keeps component sums un-clipped ("when bundling
//! HVs of different objects, we retain the results in Z^D", §II-A), so the
//! scene representation and all intermediate unbinding results live here.

use crate::ops::{Bind, Bundle, Permute};
use crate::{full_word, BipolarHv, TernaryHv, WORD_BITS};
use std::fmt;

/// An integer-valued hypervector in `Z^D`, the bundling accumulator.
///
/// ```
/// use hdc::{AccumHv, BipolarHv};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let a = BipolarHv::random(256, &mut rng);
/// let b = BipolarHv::random(256, &mut rng);
///
/// let mut scene = AccumHv::zeros(256);
/// scene.add_bipolar(&a, 1);
/// scene.add_bipolar(&b, 1);
/// // The bundle stays similar to each member.
/// assert!(scene.sim_bipolar(&a) > 0.3);
/// assert!(scene.sim_bipolar(&b) > 0.3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AccumHv {
    data: Vec<i32>,
    dim: usize,
}

impl AccumHv {
    /// The all-zero accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        AccumHv {
            data: vec![0; dim],
            dim,
        }
    }

    /// Builds from explicit integer components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn from_components(components: Vec<i32>) -> Self {
        assert!(
            !components.is_empty(),
            "hypervector dimension must be positive"
        );
        let dim = components.len();
        AccumHv {
            data: components,
            dim,
        }
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the raw components.
    #[inline]
    pub fn components(&self) -> &[i32] {
        &self.data
    }

    /// Component at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    #[inline]
    pub fn component(&self, index: usize) -> i32 {
        self.data[index]
    }

    /// Adds `weight ×` a bipolar vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_bipolar(&mut self, rhs: &BipolarHv, weight: i32) {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        for (w_idx, &word) in rhs.words().iter().enumerate() {
            let base = w_idx * WORD_BITS;
            let end = (base + WORD_BITS).min(self.dim);
            for i in base..end {
                if word >> (i - base) & 1 == 1 {
                    self.data[i] -= weight;
                } else {
                    self.data[i] += weight;
                }
            }
        }
    }

    /// Adds `weight ×` a ternary vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_ternary(&mut self, rhs: &TernaryHv, weight: i32) {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let signs = rhs.sign_words();
        let mask = rhs.mask_words();
        let dim = self.dim;
        for (w_idx, chunk) in self.data.chunks_mut(WORD_BITS).enumerate() {
            // Walk the set bits of each word: sign bits are clear under
            // zero components, so `negative` marks the -1 lanes and
            // `positive` the +1 lanes.
            let negative = signs[w_idx];
            let mut positive = mask.map_or(full_word(dim, w_idx), |m| m[w_idx]) & !negative;
            while positive != 0 {
                chunk[positive.trailing_zeros() as usize] += weight;
                positive &= positive - 1;
            }
            let mut negative = negative;
            while negative != 0 {
                chunk[negative.trailing_zeros() as usize] -= weight;
                negative &= negative - 1;
            }
        }
    }

    /// Adds another accumulator in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_accum(&mut self, rhs: &AccumHv) {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Subtracts another accumulator in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_accum(&mut self, rhs: &AccumHv) {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// Subtracts a ternary vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_ternary(&mut self, rhs: &TernaryHv) {
        self.add_ternary(rhs, -1);
    }

    /// Multiplies every component by `factor`.
    pub fn scale(&mut self, factor: i32) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Component-wise multiplication by a bipolar vector, in place. This is
    /// the unbinding step FactorHD applies to a scene bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bind_bipolar_assign(&mut self, rhs: &BipolarHv) {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        for (w_idx, &word) in rhs.words().iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = w_idx * WORD_BITS;
            let end = (base + WORD_BITS).min(self.dim);
            for i in base..end {
                if word >> (i - base) & 1 == 1 {
                    self.data[i] = -self.data[i];
                }
            }
        }
    }

    /// Serialized length of [`AccumHv::to_le_bytes`] for dimension `dim`:
    /// one little-endian `i32` per component.
    #[inline]
    pub fn byte_len(dim: usize) -> usize {
        dim * 4
    }

    /// Serializes the components as little-endian `i32` values — the
    /// word-level wire form used by the `.fhd` model-artifact codec.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::byte_len(self.dim));
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Reconstructs an accumulator from [`AccumHv::to_le_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`crate::HdcError::InvalidDimension`] if `dim == 0`, or
    /// [`crate::HdcError::InvalidEncoding`] if `bytes` is not exactly
    /// [`AccumHv::byte_len`] long.
    pub fn from_le_bytes(dim: usize, bytes: &[u8]) -> Result<Self, crate::HdcError> {
        if dim == 0 {
            return Err(crate::HdcError::InvalidDimension(0));
        }
        let expected = Self::byte_len(dim);
        if bytes.len() != expected {
            return Err(crate::HdcError::InvalidEncoding {
                expected,
                actual: bytes.len(),
            });
        }
        let data: Vec<i32> = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        Ok(AccumHv { data, dim })
    }

    /// Clips to `{-1, 0, 1}` by sign, the FactorHD clause normalization.
    pub fn clip_ternary(&self) -> TernaryHv {
        let comps: Vec<i8> = self.data.iter().map(|&v| v.signum() as i8).collect();
        TernaryHv::from_components(&comps).expect("dim > 0 by construction")
    }

    /// Collapses to bipolar by sign; zero components resolve to `+1`
    /// (deterministic tie-breaking, documented behaviour).
    pub fn sign_bipolar(&self) -> BipolarHv {
        let comps: Vec<i8> = self
            .data
            .iter()
            .map(|&v| if v < 0 { -1 } else { 1 })
            .collect();
        BipolarHv::from_components(&comps).expect("dim > 0 by construction")
    }

    /// Exact integer dot product with a bipolar vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot_bipolar(&self, rhs: &BipolarHv) -> i64 {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let mut total: i64 = 0;
        for (w_idx, &word) in rhs.words().iter().enumerate() {
            let base = w_idx * WORD_BITS;
            let end = (base + WORD_BITS).min(self.dim);
            for i in base..end {
                let v = self.data[i] as i64;
                if word >> (i - base) & 1 == 1 {
                    total -= v;
                } else {
                    total += v;
                }
            }
        }
        total
    }

    /// Exact integer dot product with a ternary vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot_ternary(&self, rhs: &TernaryHv) -> i64 {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let mut total: i64 = 0;
        for i in 0..self.dim {
            total += self.data[i] as i64 * rhs.component(i) as i64;
        }
        total
    }

    /// Exact integer dot product with another accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, rhs: &AccumHv) -> i64 {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a as i64 * b as i64)
            .sum()
    }

    /// Normalized dot similarity against a bipolar vector (`dot / D`).
    #[inline]
    pub fn sim_bipolar(&self, rhs: &BipolarHv) -> f64 {
        self.dot_bipolar(rhs) as f64 / self.dim as f64
    }

    /// Normalized dot similarity against a ternary vector (`dot / D`).
    #[inline]
    pub fn sim_ternary(&self, rhs: &TernaryHv) -> f64 {
        self.dot_ternary(rhs) as f64 / self.dim as f64
    }

    /// Euclidean norm of the components.
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }
}

impl Bind<BipolarHv> for AccumHv {
    type Output = AccumHv;

    fn bind(&self, rhs: &BipolarHv) -> AccumHv {
        let mut out = self.clone();
        out.bind_bipolar_assign(rhs);
        out
    }
}

impl Bundle for AccumHv {
    type Output = AccumHv;

    fn bundle(&self, rhs: &AccumHv) -> AccumHv {
        let mut out = self.clone();
        out.add_accum(rhs);
        out
    }
}

impl Permute for AccumHv {
    fn permute(&self, shift: usize) -> Self {
        let shift = shift % self.dim;
        let mut data = vec![0; self.dim];
        for i in 0..self.dim {
            data[(i + shift) % self.dim] = self.data[i];
        }
        AccumHv {
            data,
            dim: self.dim,
        }
    }
}

impl From<BipolarHv> for AccumHv {
    fn from(value: BipolarHv) -> Self {
        value.to_accum()
    }
}

impl From<TernaryHv> for AccumHv {
    fn from(value: TernaryHv) -> Self {
        value.to_accum()
    }
}

impl fmt::Debug for AccumHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<i32> = self.data.iter().take(8).copied().collect();
        f.debug_struct("AccumHv")
            .field("dim", &self.dim)
            .field("head", &preview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn add_bipolar_matches_components() {
        let mut rng = rng_from_seed(30);
        let v = BipolarHv::random(130, &mut rng);
        let mut acc = AccumHv::zeros(130);
        acc.add_bipolar(&v, 3);
        for i in 0..130 {
            assert_eq!(acc.component(i), 3 * v.component(i) as i32);
        }
    }

    #[test]
    fn add_then_sub_ternary_is_identity() {
        let mut rng = rng_from_seed(31);
        let a = BipolarHv::random(200, &mut rng);
        let b = BipolarHv::random(200, &mut rng);
        let t = a.bundle(&b).clip_ternary();
        let mut acc = AccumHv::zeros(200);
        acc.add_ternary(&t, 1);
        acc.sub_ternary(&t);
        assert!(acc.is_zero());
    }

    #[test]
    fn bind_bipolar_is_self_inverse() {
        let mut rng = rng_from_seed(32);
        let v = BipolarHv::random(99, &mut rng);
        let orig = AccumHv::from_components((0..99).map(|i| i - 50).collect());
        let mut acc = orig.clone();
        acc.bind_bipolar_assign(&v);
        acc.bind_bipolar_assign(&v);
        assert_eq!(acc, orig);
    }

    #[test]
    fn dot_bipolar_matches_naive() {
        let mut rng = rng_from_seed(33);
        let v = BipolarHv::random(257, &mut rng);
        let acc = AccumHv::from_components((0..257).map(|i| (i % 7) - 3).collect());
        let naive: i64 = (0..257)
            .map(|i| acc.component(i) as i64 * v.component(i) as i64)
            .sum();
        assert_eq!(acc.dot_bipolar(&v), naive);
    }

    #[test]
    fn dot_accum_matches_naive() {
        let a = AccumHv::from_components(vec![1, -2, 3, 0]);
        let b = AccumHv::from_components(vec![4, 5, -6, 7]);
        assert_eq!(a.dot(&b), 4 - 10 - 18);
    }

    #[test]
    fn clip_ternary_signs() {
        let acc = AccumHv::from_components(vec![5, -3, 0, 1, -1]);
        let t = acc.clip_ternary();
        let comps: Vec<i8> = t.iter().collect();
        assert_eq!(comps, vec![1, -1, 0, 1, -1]);
    }

    #[test]
    fn sign_bipolar_breaks_ties_positive() {
        let acc = AccumHv::from_components(vec![2, -2, 0]);
        let b = acc.sign_bipolar();
        assert_eq!(b.component(0), 1);
        assert_eq!(b.component(1), -1);
        assert_eq!(b.component(2), 1);
    }

    #[test]
    fn bundle_preserves_member_similarity() {
        let mut rng = rng_from_seed(34);
        let members: Vec<BipolarHv> = (0..5).map(|_| BipolarHv::random(2048, &mut rng)).collect();
        let mut scene = AccumHv::zeros(2048);
        for m in &members {
            scene.add_bipolar(m, 1);
        }
        let outsider = BipolarHv::random(2048, &mut rng);
        for m in &members {
            assert!(
                scene.sim_bipolar(m) > 0.2,
                "member lost: {}",
                scene.sim_bipolar(m)
            );
        }
        assert!(scene.sim_bipolar(&outsider).abs() < 0.15);
    }

    #[test]
    fn le_bytes_round_trip() {
        let acc = AccumHv::from_components(vec![5, -3, 0, i32::MAX, i32::MIN, 1]);
        let bytes = acc.to_le_bytes();
        assert_eq!(bytes.len(), AccumHv::byte_len(6));
        assert_eq!(AccumHv::from_le_bytes(6, &bytes).unwrap(), acc);
        assert!(AccumHv::from_le_bytes(0, &[]).is_err());
        assert!(AccumHv::from_le_bytes(6, &bytes[1..]).is_err());
    }

    #[test]
    fn scale_and_norm() {
        let mut acc = AccumHv::from_components(vec![3, 4]);
        assert!((acc.norm() - 5.0).abs() < 1e-12);
        acc.scale(2);
        assert_eq!(acc.components(), &[6, 8]);
    }

    #[test]
    fn permute_shifts() {
        let acc = AccumHv::from_components(vec![1, 2, 3]);
        let p = acc.permute(1);
        assert_eq!(p.components(), &[3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_accum_mismatch_panics() {
        let mut a = AccumHv::zeros(4);
        let b = AccumHv::zeros(5);
        a.add_accum(&b);
    }
}
