//! Kernel exactness suite: every scan kernel the running CPU can
//! dispatch must be **bit-identical** to the scalar reference oracle —
//! on raw word buffers (`hamming_words` / `masked_hamming_words`) across
//! lengths straddling every SIMD lane width and the Harley–Seal 16-word
//! block, and end to end through `PackedShards::top_k`, where small
//! dimensions force exact similarity ties and the tie *ordering* must
//! survive a forced-kernel override. Accumulator queries (sign plus
//! magnitude bit-planes) run the same sweep: small bundles, components
//! at `i32::MIN` / `i32::MAX`, ternary-valued and all-zero vectors.
//!
//! CI runs the whole test suite once more with `FACTORHD_KERNEL=scalar`
//! and once with `RUSTFLAGS="-C target-cpu=native"`, so both dispatch
//! extremes are exercised on every push; this file is the per-kernel
//! sweep in between.

use hdc::kernels::{self, SCALAR};
use hdc::{AccumHv, AsPackedQuery, Bind, Bundle, Codebook, PackedHv, Similarity, TernaryHv};
use proptest::prelude::*;

/// Word-buffer families: pseudorandom, all-zero (empty masks), all-ones
/// (every carry level of the ladder), and alternating signs.
fn arb_buffer(len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        proptest::collection::vec(any::<u64>(), len),
        Just(vec![0u64; len]),
        Just(vec![u64::MAX; len]),
        Just(vec![0xAAAA_AAAA_AAAA_AAAAu64; len]),
        Just(vec![0x5555_5555_5555_5555u64; len]),
    ]
}

/// Lengths 0..=257: empty buffers, every lane-width boundary (4, 8, 16
/// words) with its off-by-one neighbors, and multi-block tails.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=17,
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(255usize),
        Just(256usize),
        Just(257usize),
        0usize..=257,
    ]
}

/// An accumulator query of the given family: a bundle of `1 + seed % 4`
/// random bipolar vectors (family 0), the same with one component at
/// `i32::MIN` and the last at `i32::MAX` (1), a ternary-valued vector (2),
/// or the all-zero vector (3).
fn accum_query(family: u8, dim: usize, seed: u64) -> AccumHv {
    let mut rng = hdc::rng_from_seed(seed);
    let mut acc = AccumHv::zeros(dim);
    match family {
        0 | 1 => {
            for _ in 0..=seed % 4 {
                acc.add_bipolar(&hdc::BipolarHv::random(dim, &mut rng), 1);
            }
            if family == 1 {
                let mut comps = acc.components().to_vec();
                comps[0] = i32::MIN;
                comps[dim - 1] = i32::MAX;
                acc = AccumHv::from_components(comps);
            }
        }
        2 => {
            let a = hdc::BipolarHv::random(dim, &mut rng);
            let b = hdc::BipolarHv::random(dim, &mut rng);
            acc.add_ternary(&a.bundle(&b).clip_ternary(), 1);
        }
        _ => {}
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hamming_words_matches_scalar_for_every_kernel(
        (a, b) in arb_len().prop_flat_map(|n| (arb_buffer(n), arb_buffer(n)))
    ) {
        let expected = SCALAR.hamming_words(&a, &b);
        for kernel in kernels::available_kernels() {
            prop_assert_eq!(
                kernel.hamming_words(&a, &b),
                expected,
                "kernel {} diverged at {} words",
                kernel.name(),
                a.len()
            );
        }
    }

    #[test]
    fn masked_hamming_words_matches_scalar_for_every_kernel(
        (s, m, w) in arb_len().prop_flat_map(|n| (arb_buffer(n), arb_buffer(n), arb_buffer(n)))
    ) {
        let expected = SCALAR.masked_hamming_words(&s, &m, &w);
        for kernel in kernels::available_kernels() {
            prop_assert_eq!(
                kernel.masked_hamming_words(&s, &m, &w),
                expected,
                "kernel {} diverged at {} words",
                kernel.name(),
                s.len()
            );
        }
    }

    #[test]
    fn top_k_tie_ordering_survives_forced_kernel_override(
        (seed, m, k) in (any::<u64>(), 2usize..64, 1usize..80)
    ) {
        // Tiny dimension ⇒ a handful of distinct dot values over up to 64
        // items ⇒ guaranteed exact ties; the scalar reference ordering
        // (descending similarity, ties by ascending index) must be
        // reproduced under every forced kernel.
        let dim = 16;
        let cb = Codebook::derive(seed, m, dim);
        let query = {
            let mut rng = hdc::rng_from_seed(seed ^ 0xD15A);
            let a = hdc::BipolarHv::random(dim, &mut rng);
            let b = hdc::BipolarHv::random(dim, &mut rng);
            a.bundle(&b).clip_ternary()
        };
        let reference = cb.top_k(&query, k);
        let original = kernels::selected_kernel();
        for kernel in kernels::available_kernels() {
            kernels::force_kernel(kernel.name()).expect("available kernel");
            let packed = cb.packed_view().top_k(query.packed_query(), k);
            prop_assert_eq!(
                &packed,
                &reference,
                "kernel {} changed top-{} ordering",
                kernel.name(),
                k
            );
        }
        kernels::force_kernel(original.name()).expect("restore selection");
    }

    #[test]
    fn ternary_scan_queries_agree_across_kernels(
        (seed, dim) in (any::<u64>(), 1usize..300)
    ) {
        // End-to-end dot products (dense + masked planes) through the
        // packed query path, every kernel against the scalar oracle.
        let mut rng = hdc::rng_from_seed(seed);
        let item = hdc::BipolarHv::random(dim, &mut rng);
        let t: TernaryHv = {
            let a = hdc::BipolarHv::random(dim, &mut rng);
            let b = hdc::BipolarHv::random(dim, &mut rng);
            a.bundle(&b).clip_ternary()
        };
        let expected = t.dot_bipolar(&item);
        let original = kernels::selected_kernel();
        for kernel in kernels::available_kernels() {
            kernels::force_kernel(kernel.name()).expect("available kernel");
            let cb = Codebook::from_items(vec![item.clone()]).expect("one item");
            let mut dots = Vec::new();
            cb.packed_view().dots_into(t.packed_query(), &mut dots);
            prop_assert_eq!(dots[0], expected, "kernel {}", kernel.name());
        }
        kernels::force_kernel(original.name()).expect("restore selection");
    }

    #[test]
    fn accumulator_scan_queries_agree_across_kernels(
        (seed, dim, family, m, k) in (any::<u64>(), 1usize..300, 0u8..4, 1usize..40, 1usize..48)
    ) {
        // Multi-plane queries through every scan entry point, under every
        // forced kernel, against the scalar accumulator oracle.
        let acc = accum_query(family, dim, seed);
        let cb = Codebook::derive(seed ^ 0xACC, m, dim);
        let key = hdc::BipolarHv::random(dim, &mut hdc::rng_from_seed(seed ^ 0x4E7));
        let packed = PackedHv::from_accum(&acc);
        let q = packed.packed_query();
        let dots: Vec<i64> = cb.iter().map(|item| acc.dot_bipolar(item)).collect();
        let top = cb.top_k(&acc, k);
        let above = cb.above_threshold(&acc, 0.02);
        let sims: Vec<f64> = cb.iter().map(|item| acc.sim_to(item)).collect();
        let bound_sims: Vec<f64> = cb
            .iter()
            .map(|item| {
                let v: i64 = (0..dim)
                    .map(|i| {
                        acc.component(i) as i64 * key.component(i) as i64 * item.component(i) as i64
                    })
                    .sum();
                v as f64 / dim as f64
            })
            .collect();
        let original = kernels::selected_kernel();
        for kernel in kernels::available_kernels() {
            kernels::force_kernel(kernel.name()).expect("available kernel");
            let view = cb.packed_view();
            let name = kernel.name();
            prop_assert_eq!(&view.dots(q), &dots, "kernel {}", name);
            let mut out = Vec::new();
            view.dots_into(q, &mut out);
            prop_assert_eq!(&out, &dots, "kernel {}", name);
            prop_assert_eq!(&view.top_k(q, k), &top, "kernel {}", name);
            prop_assert_eq!(&view.top_k_many(&[q, q], k)[1], &top, "kernel {}", name);
            prop_assert_eq!(&view.above_threshold(q, 0.02), &above, "kernel {}", name);
            let got: Vec<f64> = cb.iter().map(|item| packed.sim_to(item)).collect();
            prop_assert_eq!(&got, &sims, "kernel {}", name);
            let bound = packed.bind(&key);
            let got: Vec<f64> = cb.iter().map(|item| bound.sim_to(item)).collect();
            prop_assert_eq!(&got, &bound_sims, "kernel {}", name);
        }
        kernels::force_kernel(original.name()).expect("restore selection");
    }
}
