//! Runtime-dispatched SIMD scan kernels.
//!
//! Every FactorHD recognition step — level arg-max, beam descent, Rep-3
//! threshold decoding — bottoms out in one of two inner loops over packed
//! `u64` words:
//!
//! * [`ScanKernel::hamming_words`] — `Σ popcount(a[i] ^ b[i])`, the
//!   dense-query scan kernel;
//! * [`ScanKernel::masked_hamming_words`] —
//!   `Σ popcount((s[i] ^ w[i]) & m[i])`, the scan kernel for a query with
//!   magnitude planes, run once per plane (a ternary query has one).
//!
//! This module compiles every implementation the target architecture
//! admits and picks the fastest one the *running* CPU supports, once, at
//! first use:
//!
//! | name          | requires (runtime)         | technique |
//! |---------------|----------------------------|-----------|
//! | `scalar`      | —                          | one `count_ones` per word (the reference oracle) |
//! | `harley-seal` | —                          | carry-save-adder ladder, 1 popcount per 16 words |
//! | `popcnt`      | x86-64 `POPCNT`            | 4-way unrolled hardware popcount |
//! | `avx2`        | x86-64 `AVX2` + `POPCNT`   | 256-bit nibble-LUT popcount (`vpshufb` + `vpsadbw`) |
//! | `avx512`      | x86-64 `AVX512F` + `AVX512VPOPCNTDQ` + `POPCNT` | 512-bit `vpopcntq` |
//!
//! Dispatch order is `avx512` → `avx2` → `popcnt` → `harley-seal`; the
//! `FACTORHD_KERNEL` environment variable (read once, at first use)
//! forces a specific row, and [`force_kernel`] does the same at runtime.
//! All kernels are **bit-identical**: `scalar` is the oracle every other
//! row is property-tested against, so forcing a kernel can change
//! throughput but never results. See `docs/KERNELS.md` for the dispatch
//! design, the safety argument, and how to add a kernel.

use crate::HdcError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable forcing a specific kernel (`scalar`,
/// `harley-seal`, `popcnt`, `avx2`, `avx512`, or `auto`). Read once at
/// first kernel use; later changes to the process environment have no
/// effect (use [`force_kernel`] for runtime switching).
pub const KERNEL_ENV: &str = "FACTORHD_KERNEL";

/// One scan-kernel implementation: a named pair of word-level popcount
/// loops, selected at runtime by [`selected_kernel`].
///
/// The function pointers are `unsafe fn` because the SIMD rows are
/// compiled with `#[target_feature]`: calling one on a CPU without that
/// feature is undefined behavior. The safe methods below uphold the
/// invariant that a `ScanKernel` is only reachable through this module's
/// constructors — [`selected_kernel`], [`force_kernel`],
/// [`available_kernels`] — which all verify the required CPU features
/// with `is_x86_feature_detected!` before exposing the kernel.
pub struct ScanKernel {
    name: &'static str,
    /// `true` when the running CPU supports this kernel (checked once
    /// per call site via the detection macro; the macro itself caches).
    supported: fn() -> bool,
    hamming: unsafe fn(&[u64], &[u64]) -> u64,
    masked: unsafe fn(&[u64], &[u64], &[u64]) -> u64,
}

impl ScanKernel {
    /// The kernel's dispatch name (the value `FACTORHD_KERNEL` accepts).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `true` when the running CPU can execute this kernel.
    #[inline]
    pub fn is_supported(&self) -> bool {
        (self.supported)()
    }

    /// `Σ popcount(a[i] ^ b[i])` — the dense-query scan kernel.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert`) on length mismatch; callers guarantee
    /// equal word counts.
    #[inline]
    pub fn hamming_words(&self, a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: this kernel was only handed out after `is_supported`
        // confirmed the CPU features its `#[target_feature]` body needs
        // (see the module constructors); slices are length-checked above.
        #[allow(unsafe_code)]
        unsafe {
            (self.hamming)(a, b)
        }
    }

    /// `Σ popcount((sign[i] ^ words[i]) & mask[i])` — the ternary-query
    /// scan kernel.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert`) on length mismatch; callers guarantee
    /// equal word counts.
    #[inline]
    pub fn masked_hamming_words(&self, sign: &[u64], mask: &[u64], words: &[u64]) -> u64 {
        debug_assert_eq!(sign.len(), mask.len());
        debug_assert_eq!(sign.len(), words.len());
        // SAFETY: as in `hamming_words` — CPU support was verified before
        // this kernel became reachable, and lengths are checked above.
        #[allow(unsafe_code)]
        unsafe {
            (self.masked)(sign, mask, words)
        }
    }
}

impl std::fmt::Debug for ScanKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanKernel")
            .field("name", &self.name)
            .field("supported", &self.is_supported())
            .finish()
    }
}

impl PartialEq for ScanKernel {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for ScanKernel {}

// ---------------------------------------------------------------------
// Portable kernels (every architecture)
// ---------------------------------------------------------------------

fn always() -> bool {
    true
}

/// The scalar reference oracle: one `count_ones` per word, no tricks.
/// Every other kernel is property-tested bit-identical to this one.
fn hamming_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as u64)
        .sum()
}

fn masked_hamming_scalar(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
    s.iter()
        .zip(m)
        .zip(w)
        .map(|((x, y), z)| ((x ^ z) & y).count_ones() as u64)
        .sum()
}

/// Carry-save adder: returns the (sum, carry) bit planes of `a + b + c`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Running state of a Harley–Seal ladder: bit planes holding the 1s, 2s,
/// 4s and 8s digits of the popcount sum, plus the completed 16-blocks.
#[derive(Default)]
struct LadderState {
    ones: u64,
    twos: u64,
    fours: u64,
    eights: u64,
    sixteens_total: u64,
}

impl LadderState {
    /// Folds 16 words into the ladder: 15 CSA steps plus **one** popcount
    /// instead of 16. On targets where `count_ones` lowers to a multi-op
    /// SWAR sequence (no hardware `POPCNT`), cutting popcount invocations
    /// 16-fold is what makes this the portable fallback of choice — while
    /// staying exact (the ladder is pure integer carry bookkeeping).
    #[inline(always)]
    fn fold16(&mut self, w: &[u64; 16]) {
        let (s, twos_a) = csa(self.ones, w[0], w[1]);
        let (s, twos_b) = csa(s, w[2], w[3]);
        let (s2, fours_a) = csa(self.twos, twos_a, twos_b);
        let (s, twos_a) = csa(s, w[4], w[5]);
        let (s, twos_b) = csa(s, w[6], w[7]);
        let (s2, fours_b) = csa(s2, twos_a, twos_b);
        let (s4, eights_a) = csa(self.fours, fours_a, fours_b);
        let (s, twos_a) = csa(s, w[8], w[9]);
        let (s, twos_b) = csa(s, w[10], w[11]);
        let (s2, fours_a) = csa(s2, twos_a, twos_b);
        let (s, twos_a) = csa(s, w[12], w[13]);
        let (s, twos_b) = csa(s, w[14], w[15]);
        let (s2, fours_b) = csa(s2, twos_a, twos_b);
        let (s4, eights_b) = csa(s4, fours_a, fours_b);
        let (s8, sixteens) = csa(self.eights, eights_a, eights_b);
        self.sixteens_total += sixteens.count_ones() as u64;
        self.ones = s;
        self.twos = s2;
        self.fours = s4;
        self.eights = s8;
    }

    /// The exact popcount sum of everything folded so far.
    #[inline(always)]
    fn total(&self) -> u64 {
        16 * self.sixteens_total
            + 8 * self.eights.count_ones() as u64
            + 4 * self.fours.count_ones() as u64
            + 2 * self.twos.count_ones() as u64
            + self.ones.count_ones() as u64
    }
}

fn hamming_harley_seal(a: &[u64], b: &[u64]) -> u64 {
    let mut state = LadderState::default();
    let mut ac = a.chunks_exact(16);
    let mut bc = b.chunks_exact(16);
    for (aw, bw) in (&mut ac).zip(&mut bc) {
        let mut buf = [0u64; 16];
        for ((o, x), y) in buf.iter_mut().zip(aw).zip(bw) {
            *o = x ^ y;
        }
        state.fold16(&buf);
    }
    let mut total = state.total();
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        total += (x ^ y).count_ones() as u64;
    }
    total
}

fn masked_hamming_harley_seal(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
    let mut state = LadderState::default();
    let mut sc = s.chunks_exact(16);
    let mut mc = m.chunks_exact(16);
    let mut wc = w.chunks_exact(16);
    for ((sw, mw), ww) in (&mut sc).zip(&mut mc).zip(&mut wc) {
        let mut buf = [0u64; 16];
        for (((o, x), y), z) in buf.iter_mut().zip(sw).zip(mw).zip(ww) {
            *o = (x ^ z) & y;
        }
        state.fold16(&buf);
    }
    let mut total = state.total();
    for ((x, y), z) in sc
        .remainder()
        .iter()
        .zip(mc.remainder())
        .zip(wc.remainder())
    {
        total += ((x ^ z) & y).count_ones() as u64;
    }
    total
}

// The portable rows wrap safe bodies; the pointer type in the vtable is
// `unsafe fn`, so thin unsafe-signature adapters are needed.
#[allow(unsafe_code)]
mod portable_adapters {
    pub(super) unsafe fn hamming_scalar(a: &[u64], b: &[u64]) -> u64 {
        super::hamming_scalar(a, b)
    }

    pub(super) unsafe fn masked_hamming_scalar(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
        super::masked_hamming_scalar(s, m, w)
    }

    pub(super) unsafe fn hamming_harley_seal(a: &[u64], b: &[u64]) -> u64 {
        super::hamming_harley_seal(a, b)
    }

    pub(super) unsafe fn masked_hamming_harley_seal(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
        super::masked_hamming_harley_seal(s, m, w)
    }
}

/// The scalar reference kernel (always available, the exactness oracle).
pub static SCALAR: ScanKernel = ScanKernel {
    name: "scalar",
    supported: always,
    hamming: portable_adapters::hamming_scalar,
    masked: portable_adapters::masked_hamming_scalar,
};

/// The portable Harley–Seal CSA-ladder kernel (always available; the
/// fallback when no SIMD feature is detected).
pub static HARLEY_SEAL: ScanKernel = ScanKernel {
    name: "harley-seal",
    supported: always,
    hamming: portable_adapters::hamming_harley_seal,
    masked: portable_adapters::masked_hamming_harley_seal,
};

// ---------------------------------------------------------------------
// x86-64 SIMD kernels
// ---------------------------------------------------------------------

/// Hardware-accelerated kernels for x86-64, each compiled with
/// `#[target_feature]` and only dispatched to after
/// `is_x86_feature_detected!` confirms the running CPU supports it.
///
/// Safety argument (the full version lives in `docs/KERNELS.md`): every
/// function here is `unsafe fn` solely because of its `#[target_feature]`
/// attribute — the bodies perform no raw-pointer arithmetic beyond
/// in-bounds `as_ptr().add(i)` reads guarded by explicit
/// `i + LANES <= len` loop conditions, all loads are unaligned-tolerant
/// (`loadu`), and no memory is written. Undefined behavior is therefore
/// possible only by executing an instruction the CPU lacks, which the
/// dispatch layer rules out before a kernel becomes reachable.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::*;

    pub(super) fn popcnt_supported() -> bool {
        std::arch::is_x86_feature_detected!("popcnt")
    }

    pub(super) fn avx2_supported() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && popcnt_supported()
    }

    pub(super) fn avx512_supported() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            && popcnt_supported()
    }

    // ----- POPCNT: 4-way unrolled hardware popcount -----

    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn hamming_popcnt(a: &[u64], b: &[u64]) -> u64 {
        // Four independent accumulators give the out-of-order core four
        // parallel dependency chains (POPCNT has a 3-cycle latency but
        // 1/cycle throughput on the cores that matter).
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for (aw, bw) in (&mut ac).zip(&mut bc) {
            c0 += (aw[0] ^ bw[0]).count_ones() as u64;
            c1 += (aw[1] ^ bw[1]).count_ones() as u64;
            c2 += (aw[2] ^ bw[2]).count_ones() as u64;
            c3 += (aw[3] ^ bw[3]).count_ones() as u64;
        }
        let mut total = c0 + c1 + c2 + c3;
        for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
            total += (x ^ y).count_ones() as u64;
        }
        total
    }

    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn masked_hamming_popcnt(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        let mut sc = s.chunks_exact(4);
        let mut mc = m.chunks_exact(4);
        let mut wc = w.chunks_exact(4);
        for ((sw, mw), ww) in (&mut sc).zip(&mut mc).zip(&mut wc) {
            c0 += ((sw[0] ^ ww[0]) & mw[0]).count_ones() as u64;
            c1 += ((sw[1] ^ ww[1]) & mw[1]).count_ones() as u64;
            c2 += ((sw[2] ^ ww[2]) & mw[2]).count_ones() as u64;
            c3 += ((sw[3] ^ ww[3]) & mw[3]).count_ones() as u64;
        }
        let mut total = c0 + c1 + c2 + c3;
        for ((x, y), z) in sc
            .remainder()
            .iter()
            .zip(mc.remainder())
            .zip(wc.remainder())
        {
            total += ((x ^ z) & y).count_ones() as u64;
        }
        total
    }

    // ----- AVX2: nibble-LUT popcount (Muła), 4 words per vector -----

    /// Per-lane popcount of a 256-bit vector via the 16-entry nibble
    /// lookup table, horizontally summed to one count per 64-bit lane by
    /// `vpsadbw` (each byte count is ≤ 8, so the per-lane sums fit
    /// comfortably in a byte before the SAD step).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_epi64_avx2(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Horizontal sum of the four 64-bit lanes of an AVX2 accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_epi64_avx2(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn hamming_avx2(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            acc = _mm256_add_epi64(acc, popcount_epi64_avx2(_mm256_xor_si256(va, vb)));
            i += 4;
        }
        let mut total = reduce_epi64_avx2(acc);
        while i < n {
            total += (a[i] ^ b[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn masked_hamming_avx2(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
        let n = s.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let vs = _mm256_loadu_si256(s.as_ptr().add(i).cast());
            let vm = _mm256_loadu_si256(m.as_ptr().add(i).cast());
            let vw = _mm256_loadu_si256(w.as_ptr().add(i).cast());
            let x = _mm256_and_si256(_mm256_xor_si256(vs, vw), vm);
            acc = _mm256_add_epi64(acc, popcount_epi64_avx2(x));
            i += 4;
        }
        let mut total = reduce_epi64_avx2(acc);
        while i < n {
            total += ((s[i] ^ w[i]) & m[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    // ----- AVX-512: native vpopcntq, 8 words per vector -----

    /// Horizontal sum of the eight 64-bit lanes of an AVX-512 accumulator.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce_epi64_avx512(v: __m512i) -> u64 {
        _mm512_reduce_add_epi64(v) as u64
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub(super) unsafe fn hamming_avx512(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
            i += 8;
        }
        let mut total = reduce_epi64_avx512(acc);
        while i < n {
            total += (a[i] ^ b[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub(super) unsafe fn masked_hamming_avx512(s: &[u64], m: &[u64], w: &[u64]) -> u64 {
        let n = s.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            let vs = _mm512_loadu_si512(s.as_ptr().add(i).cast());
            let vm = _mm512_loadu_si512(m.as_ptr().add(i).cast());
            let vw = _mm512_loadu_si512(w.as_ptr().add(i).cast());
            let x = _mm512_and_si512(_mm512_xor_si512(vs, vw), vm);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
            i += 8;
        }
        let mut total = reduce_epi64_avx512(acc);
        while i < n {
            total += ((s[i] ^ w[i]) & m[i]).count_ones() as u64;
            i += 1;
        }
        total
    }
}

/// The hardware-popcount kernel (x86-64 only; requires `POPCNT`).
#[cfg(target_arch = "x86_64")]
pub static POPCNT: ScanKernel = ScanKernel {
    name: "popcnt",
    supported: x86::popcnt_supported,
    hamming: x86::hamming_popcnt,
    masked: x86::masked_hamming_popcnt,
};

/// The AVX2 nibble-LUT popcount kernel (x86-64 only; requires `AVX2` and
/// `POPCNT`).
#[cfg(target_arch = "x86_64")]
pub static AVX2: ScanKernel = ScanKernel {
    name: "avx2",
    supported: x86::avx2_supported,
    hamming: x86::hamming_avx2,
    masked: x86::masked_hamming_avx2,
};

/// The AVX-512 `vpopcntq` kernel (x86-64 only; requires `AVX512F`,
/// `AVX512VPOPCNTDQ`, and `POPCNT`).
#[cfg(target_arch = "x86_64")]
pub static AVX512: ScanKernel = ScanKernel {
    name: "avx512",
    supported: x86::avx512_supported,
    hamming: x86::hamming_avx512,
    masked: x86::masked_hamming_avx512,
};

/// Every kernel compiled into this build, in dispatch-preference order
/// (fastest candidate first, portable fallbacks last). Some entries may
/// be unsupported on the running CPU — see [`available_kernels`].
pub fn compiled_kernels() -> &'static [&'static ScanKernel] {
    #[cfg(target_arch = "x86_64")]
    static COMPILED: [&ScanKernel; 5] = [&AVX512, &AVX2, &POPCNT, &HARLEY_SEAL, &SCALAR];
    #[cfg(not(target_arch = "x86_64"))]
    static COMPILED: [&ScanKernel; 2] = [&HARLEY_SEAL, &SCALAR];
    &COMPILED
}

/// The kernels the running CPU can execute, in dispatch-preference order.
/// Always ends with the portable `harley-seal` and `scalar` rows.
pub fn available_kernels() -> Vec<&'static ScanKernel> {
    compiled_kernels()
        .iter()
        .copied()
        .filter(|k| k.is_supported())
        .collect()
}

/// The kernel auto-detection would pick on this CPU (ignoring the
/// environment override and any [`force_kernel`] call).
pub fn detected_kernel() -> &'static ScanKernel {
    compiled_kernels()
        .iter()
        .copied()
        .find(|k| k.is_supported() && k.name != "scalar")
        .unwrap_or(&SCALAR)
}

/// Comma-separated list of the scan-relevant CPU features detected at
/// runtime (empty when none of them are present, e.g. off x86-64).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        if std::arch::is_x86_feature_detected!("popcnt") {
            features.push("popcnt");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512vpopcntdq") {
            features.push("avx512vpopcntdq");
        }
        features.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

/// Index-into-[`compiled_kernels`] of the active kernel, plus one;
/// zero means "not yet selected".
static SELECTED: AtomicUsize = AtomicUsize::new(0);

fn kernel_by_name(name: &str) -> Result<&'static ScanKernel, HdcError> {
    let compiled = compiled_kernels();
    let Some(kernel) = compiled.iter().copied().find(|k| k.name == name) else {
        let names: Vec<&str> = compiled.iter().map(|k| k.name).collect();
        return Err(HdcError::UnknownKernel {
            requested: name.to_owned(),
            available: format!("auto,{}", names.join(",")),
        });
    };
    if !kernel.is_supported() {
        return Err(HdcError::UnknownKernel {
            requested: format!("{name} (compiled, but unsupported by this CPU)"),
            available: available_kernels()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>()
                .join(","),
        });
    }
    Ok(kernel)
}

fn store_selected(kernel: &'static ScanKernel) {
    let index = compiled_kernels()
        .iter()
        .position(|k| std::ptr::eq(*k, kernel))
        .expect("kernel comes from the compiled table");
    SELECTED.store(index + 1, Ordering::Release);
}

fn init_from_env() -> &'static ScanKernel {
    let kernel = match std::env::var(KERNEL_ENV) {
        Ok(name) if !name.is_empty() && name != "auto" => match kernel_by_name(&name) {
            Ok(kernel) => kernel,
            Err(err) => panic!("invalid {KERNEL_ENV}={name}: {err}"),
        },
        _ => detected_kernel(),
    };
    store_selected(kernel);
    kernel
}

/// The active scan kernel: the `FACTORHD_KERNEL` override if set (first
/// use only), the last [`force_kernel`] call if any, otherwise the best
/// kernel the running CPU supports.
///
/// # Panics
///
/// Panics on first use if `FACTORHD_KERNEL` names an unknown kernel or
/// one this CPU cannot execute — a misconfigured deployment should fail
/// loudly at startup, not silently fall back.
#[inline]
pub fn selected_kernel() -> &'static ScanKernel {
    let index = SELECTED.load(Ordering::Acquire);
    if index != 0 {
        compiled_kernels()[index - 1]
    } else {
        init_from_env()
    }
}

/// Forces the active kernel at runtime: `name` is a row of the dispatch
/// table (`scalar`, `harley-seal`, `popcnt`, `avx2`, `avx512`) or
/// `auto` to return to CPU detection. Returns the kernel now active.
///
/// Every kernel is bit-identical, so switching mid-flight changes
/// throughput but never results — concurrent scans simply finish on
/// whichever kernel they started with.
///
/// # Errors
///
/// [`HdcError::UnknownKernel`] when `name` is not a compiled kernel or
/// the running CPU does not support it.
pub fn force_kernel(name: &str) -> Result<&'static ScanKernel, HdcError> {
    let kernel = if name == "auto" {
        detected_kernel()
    } else {
        kernel_by_name(name)?
    };
    store_selected(kernel);
    Ok(kernel)
}

/// Serializes lib tests that mutate the process-global kernel selection
/// (results are kernel-independent, but assertions *about the selection
/// itself* would race). Poisoning is ignored: a failed sibling test must
/// not cascade.
#[cfg(test)]
pub(crate) fn selection_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic adversarial word patterns: pseudorandom, all-ones
    /// (stressing every carry level of the ladder), and alternating
    /// signs.
    fn pattern(tag: u64, i: usize) -> u64 {
        match tag {
            0 => crate::derive_seed(&[0xC0DE, i as u64]),
            1 => u64::MAX,
            2 => 0xAAAA_AAAA_AAAA_AAAA,
            _ => 0,
        }
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        // Lengths straddling every lane boundary (4, 8, 16 words) and
        // the Harley–Seal 16-word block.
        for kernel in available_kernels() {
            for n in (0..40).chain([63, 64, 65, 127, 128, 129, 255, 256, 257]) {
                for (ta, tb, tm) in [(0, 0, 0), (1, 3, 1), (2, 2, 2), (0, 1, 3)] {
                    let a: Vec<u64> = (0..n).map(|i| pattern(ta, i)).collect();
                    let b: Vec<u64> = (0..n).map(|i| pattern(tb, i + 7)).collect();
                    let m: Vec<u64> = (0..n).map(|i| pattern(tm, i + 13)).collect();
                    assert_eq!(
                        kernel.hamming_words(&a, &b),
                        SCALAR.hamming_words(&a, &b),
                        "kernel {} hamming n {n} patterns {ta}/{tb}",
                        kernel.name()
                    );
                    assert_eq!(
                        kernel.masked_hamming_words(&a, &m, &b),
                        SCALAR.masked_hamming_words(&a, &m, &b),
                        "kernel {} masked n {n} patterns {ta}/{tb}/{tm}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn portable_rows_are_always_available() {
        let names: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
        assert!(names.contains(&"harley-seal"));
        assert!(names.contains(&"scalar"));
    }

    #[test]
    fn detection_never_picks_scalar() {
        // `scalar` exists as the oracle and the forced-override floor;
        // auto-detection should always prefer at least the ladder.
        assert_ne!(detected_kernel().name(), "scalar");
    }

    #[test]
    fn force_kernel_round_trips() {
        let _guard = selection_test_lock();
        let original = selected_kernel();
        for kernel in available_kernels() {
            let forced = force_kernel(kernel.name()).expect("available kernel");
            assert_eq!(forced.name(), kernel.name());
            assert_eq!(selected_kernel().name(), kernel.name());
        }
        assert!(force_kernel("no-such-kernel").is_err());
        let auto = force_kernel("auto").expect("auto always valid");
        assert_eq!(auto.name(), detected_kernel().name());
        // Leave the process-global selection as we found it.
        force_kernel(original.name()).expect("original kernel still available");
    }

    #[test]
    fn unknown_kernel_error_lists_options() {
        let err = force_kernel("quantum").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("quantum"), "{msg}");
        assert!(msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn debug_format_names_the_kernel() {
        let text = format!("{:?}", &SCALAR);
        assert!(text.contains("scalar"));
    }
}
