//! Property-based tests for the VSA algebra invariants.

use hdc::prelude::*;
use hdc::rng_from_seed;
use proptest::prelude::*;
use rand::Rng;

fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=8,     // tiny, exercises tail masking
        60usize..=70,   // around one word boundary
        120usize..=200, // multi-word
        Just(1024usize),
    ]
}

fn arb_bipolar(dim: usize) -> impl Strategy<Value = BipolarHv> {
    any::<u64>().prop_map(move |seed| BipolarHv::random(dim, &mut rng_from_seed(seed)))
}

fn arb_ternary(dim: usize) -> impl Strategy<Value = TernaryHv> {
    proptest::collection::vec(-1i8..=1, dim)
        .prop_map(|c| TernaryHv::from_components(&c).expect("valid ternary components"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bipolar_bind_self_inverse((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bipolar_bind_commutative((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bipolar_dot_symmetric((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn bipolar_dot_bounds((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let dot = a.dot(&b);
        prop_assert!(dot.abs() <= dim as i64);
        // dot and dim always share parity for bipolar vectors.
        prop_assert_eq!((dot.rem_euclid(2)) as usize, dim % 2);
    }

    #[test]
    fn binding_distributes_over_dot((dim, s1, s2, s3) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>(), any::<u64>()))) {
        // <a ⊙ c, b ⊙ c> = <a, b>: binding by a common key preserves similarity.
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let c = BipolarHv::random(dim, &mut rng_from_seed(s3));
        prop_assert_eq!(a.bind(&c).dot(&b.bind(&c)), a.dot(&b));
    }

    #[test]
    fn ternary_bind_associative(dim in 1usize..100) {
        let run = |s: u64| {
            let comps: Vec<i8> = (0..dim).map(|i| ((hdc::derive_seed(&[s, i as u64]) % 3) as i8) - 1).collect();
            TernaryHv::from_components(&comps).expect("valid components")
        };
        let (a, b, c) = (run(1), run(2), run(3));
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn ternary_density_in_unit_interval(dim in 1usize..300, seed in any::<u64>()) {
        let comps: Vec<i8> = (0..dim).map(|i| ((hdc::derive_seed(&[seed, i as u64]) % 3) as i8) - 1).collect();
        let t = TernaryHv::from_components(&comps).expect("valid components");
        prop_assert!(t.density() >= 0.0 && t.density() <= 1.0);
        prop_assert_eq!(t.nonzero_count(), comps.iter().filter(|&&c| c != 0).count());
    }

    #[test]
    fn accum_bundle_commutes((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.bundle(&b), b.bundle(&a));
    }

    #[test]
    fn accum_unbind_recovers_dot((dim, s1, s2, s3) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>(), any::<u64>()))) {
        // (acc ⊙ k) · (v ⊙ k) == acc · v for any bipolar key k.
        let v = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let w = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let k = BipolarHv::random(dim, &mut rng_from_seed(s3));
        let acc = v.bundle(&w);
        let unbound = acc.bind(&k);
        prop_assert_eq!(unbound.dot_bipolar(&v.bind(&k)), acc.dot_bipolar(&v));
    }

    #[test]
    fn clip_ternary_then_dot_consistent(dim in 1usize..200, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let clause = a.bundle(&b).clip_ternary();
        let naive: i64 = (0..dim).map(|i| clause.component(i) as i64 * a.component(i) as i64).sum();
        prop_assert_eq!(clause.dot_bipolar(&a), naive);
    }

    #[test]
    fn permute_composes(dim in 2usize..150, s in any::<u64>(), k1 in 0usize..300, k2 in 0usize..300) {
        let v = BipolarHv::random(dim, &mut rng_from_seed(s));
        prop_assert_eq!(v.permute(k1).permute(k2), v.permute((k1 + k2) % dim));
    }

    #[test]
    fn codebook_best_match_is_argmax(seed in any::<u64>(), m in 2usize..32) {
        let cb = Codebook::derive(seed, m, 256);
        let q = BipolarHv::random(256, &mut rng_from_seed(seed ^ 0xABCD));
        let sims = cb.sims(&q);
        let best = cb.best_match(&q).expect("non-empty codebook");
        let max = sims.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((best.sim - max).abs() < 1e-12);
    }

    #[test]
    fn codebook_threshold_consistent(seed in any::<u64>(), m in 2usize..32, th in -0.5f64..0.9) {
        let cb = Codebook::derive(seed, m, 256);
        let q = BipolarHv::random(256, &mut rng_from_seed(seed ^ 0x1234));
        let hits = cb.above_threshold(&q, th);
        let sims = cb.sims(&q);
        let expected = sims.iter().filter(|&&s| s > th).count();
        prop_assert_eq!(hits.len(), expected);
        for hit in hits {
            prop_assert!(hit.sim > th);
            prop_assert!((sims[hit.index] - hit.sim).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Packed backend vs the f64/scalar reference (the oracle): dot,
    // Hamming, and every batched codebook search must agree exactly —
    // including at non-multiple-of-64 dimensions where tail-word masking
    // can go wrong.
    // ------------------------------------------------------------------

    #[test]
    fn packed_dot_and_hamming_match_reference((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let (pa, pb) = (PackedHv::from_bipolar(&a), PackedHv::from_bipolar(&b));
        prop_assert_eq!(pa.dot(&pb), a.dot(&b));
        prop_assert_eq!(pa.hamming(&pb), a.hamming(&b));
        prop_assert_eq!(pa.sim(&pb), a.sim(&b));
    }

    #[test]
    fn packed_ternary_dot_matches_reference((dim, s) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>()))) {
        let t = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(s));
            let b = BipolarHv::random(dim, &mut rng_from_seed(s ^ 0xD00D));
            a.bundle(&b).clip_ternary()
        };
        let b = BipolarHv::random(dim, &mut rng_from_seed(s ^ 0xBEEF));
        let pt = PackedHv::from_ternary(&t);
        prop_assert_eq!(pt.dot(&PackedHv::from_bipolar(&b)), t.dot_bipolar(&b));
        prop_assert_eq!(pt.sim_to(&b), t.sim_bipolar(&b));
    }

    #[test]
    fn packed_bind_matches_reference((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let make = |s: u64| {
            let a = BipolarHv::random(dim, &mut rng_from_seed(s));
            let b = BipolarHv::random(dim, &mut rng_from_seed(s ^ 0x5150));
            a.bundle(&b).clip_ternary()
        };
        let (t, u) = (make(s1), make(s2));
        let packed = PackedHv::from_ternary(&t).bind(&PackedHv::from_ternary(&u));
        let reference: TernaryHv = t.bind(&u);
        prop_assert_eq!(packed, PackedHv::from_ternary(&reference));
    }

    #[test]
    fn packed_top_k_matches_reference((dim, seed, m, k) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..48, 0usize..64))) {
        let cb = Codebook::derive(seed, m, dim);
        // Small dims force many exact similarity ties: the packed heap
        // merge must reproduce the reference's stable tie ordering.
        let q = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xACE));
            let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xDEAF));
            a.bundle(&b).clip_ternary()
        };
        prop_assert_eq!(q.scan_top_k(&cb, k), cb.top_k(&q, k));
        let dense = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xF00));
        prop_assert_eq!(dense.scan_top_k(&cb, k), cb.top_k(&dense, k));
    }

    #[test]
    fn packed_above_threshold_matches_reference((dim, seed, m, th) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..48, -0.6f64..0.9))) {
        let cb = Codebook::derive(seed, m, dim);
        let q = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x7777));
            let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x8888));
            a.bundle(&b).clip_ternary()
        };
        prop_assert_eq!(q.scan_above_threshold(&cb, th), cb.above_threshold(&q, th));
        prop_assert_eq!(q.scan_best(&cb).unwrap(), cb.best_match(&q).unwrap());
    }

    #[test]
    fn packed_dots_match_per_item_reference((dim, seed, m) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..48))) {
        let cb = Codebook::derive(seed, m, dim);
        let q = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x1CE));
        let reference: Vec<i64> = cb.iter().map(|item| q.dot(item)).collect();
        prop_assert_eq!(cb.dots_bipolar(&q), reference);
    }

    #[test]
    fn accum_scan_route_matches_packed_route((dim, seed, m) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..32))) {
        // The AccumHv reference route and the packed ternary route answer
        // identically for any query that fits both representations.
        let cb = Codebook::derive(seed, m, dim);
        let t = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x3A3));
            let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x4B4));
            a.bundle(&b).clip_ternary()
        };
        let acc = t.to_accum();
        prop_assert_eq!(acc.scan_top_k(&cb, 5), t.scan_top_k(&cb, 5));
        prop_assert_eq!(acc.scan_above_threshold(&cb, 0.05), t.scan_above_threshold(&cb, 0.05));
    }
}

/// Accumulator query families, by `family`: a bundle of 1–4 random
/// bipolar vectors, small random integers in `-9..=9`, a ternary-valued
/// vector, a small bundle with components pinned at `i32::MIN` and
/// `i32::MAX` (32 magnitude planes), and the all-zero vector (zero planes,
/// never dense).
fn accum_family(family: u8, dim: usize, seed: u64) -> AccumHv {
    let mut rng = rng_from_seed(seed);
    match family {
        0 | 3 => {
            let mut acc = AccumHv::zeros(dim);
            for _ in 0..=seed % 4 {
                acc.add_bipolar(&BipolarHv::random(dim, &mut rng), 1);
            }
            if family == 3 {
                let mut comps = acc.components().to_vec();
                comps[0] = i32::MIN;
                comps[dim - 1] = i32::MAX;
                acc = AccumHv::from_components(comps);
            }
            acc
        }
        1 => AccumHv::from_components((0..dim).map(|_| rng.gen_range(-9..=9)).collect()),
        2 => {
            let a = BipolarHv::random(dim, &mut rng);
            let b = BipolarHv::random(dim, &mut rng);
            a.bundle(&b).clip_ternary().to_accum()
        }
        _ => AccumHv::zeros(dim),
    }
}

fn arb_accum_case() -> impl Strategy<Value = (AccumHv, u64)> {
    (arb_dim(), 0u8..5, any::<u64>())
        .prop_map(|(dim, family, seed)| (accum_family(family, dim, seed), seed))
}

/// `PackedHv::from_accum` is exact: every component, the L1 weight, the
/// plane count (the ternary form for ternary values, none for zero) and
/// the dot and similarity against a bipolar vector.
fn check_packed_accum_lossless(acc: &AccumHv, seed: u64) {
    let packed = PackedHv::from_accum(acc);
    let dim = acc.dim();
    for i in 0..dim {
        prop_assert_eq!(packed.component(i), acc.component(i) as i64);
    }
    let l1: i64 = acc.components().iter().map(|&v| (v as i64).abs()).sum();
    prop_assert_eq!(packed.l1_weight(), l1);
    let span = acc
        .components()
        .iter()
        .fold(0u32, |a, &v| a | v.unsigned_abs());
    if acc.is_zero() {
        prop_assert!(!packed.is_dense(), "all-zero must not read as dense");
        prop_assert_eq!(packed.num_planes(), 0);
    } else if span == 1 {
        // Ternary-valued: exactly the ternary packed form.
        prop_assert_eq!(&packed, &PackedHv::from_ternary(&acc.clip_ternary()));
    } else {
        prop_assert_eq!(packed.num_planes(), (32 - span.leading_zeros()) as usize);
    }
    let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xB1B));
    prop_assert_eq!(packed.dot(&PackedHv::from_bipolar(&b)), acc.dot_bipolar(&b));
    prop_assert_eq!(packed.sim_to(&b), acc.sim_to(&b));
}

#[test]
fn packed_accum_is_lossless_at_the_edges() {
    // The random cases above reach these only by chance: dimensions that
    // are not a multiple of 64 (a partial last word), and a component at
    // `i32::MIN`, whose magnitude 2^31 needs all 32 planes, in the first,
    // a middle and the last (partial-word) position.
    for dim in [1usize, 63, 65, 130, 1000, 4097] {
        for family in 0..5u8 {
            let seed = dim as u64 * 31 + family as u64;
            let acc = accum_family(family, dim, seed);
            check_packed_accum_lossless(&acc, seed);
            for at in [0, dim / 2, dim - 1] {
                let mut comps = acc.components().to_vec();
                comps[at] = i32::MIN;
                let acc = AccumHv::from_components(comps);
                check_packed_accum_lossless(&acc, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Accumulator queries in sign-plus-magnitude-planes form against the
    // scalar `AccumHv` / `Codebook` oracle.
    // ------------------------------------------------------------------

    #[test]
    fn packed_accum_is_lossless((acc, seed) in arb_accum_case()) {
        check_packed_accum_lossless(&acc, seed);
    }

    #[test]
    fn packed_accum_bind_matches_reference((acc, seed) in arb_accum_case()) {
        let dim = acc.dim();
        let key = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x4E7));
        let item = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x17E));
        let packed = PackedHv::from_accum(&acc);
        let bound = packed.bind(&key);
        for i in 0..dim {
            prop_assert_eq!(bound.component(i), acc.component(i) as i64 * key.component(i) as i64);
        }
        if acc.components().iter().all(|&v| v != i32::MIN) {
            let reference = acc.bind(&key);
            prop_assert_eq!(&bound, &PackedHv::from_accum(&reference));
            prop_assert_eq!(bound.sim_to(&item), reference.sim_to(&item));
        }
        // Binding twice with the same key restores the query.
        prop_assert_eq!(bound.bind(&key), packed.clone());
        // Packed-by-packed products and Hamming agree with the components.
        let other = PackedHv::from_accum(&accum_family((seed % 5) as u8, dim, seed ^ 0x0DD));
        let product = packed.bind(&other);
        let mut dot = 0i64;
        let mut differing = 0usize;
        for i in 0..dim {
            let (a, b) = (packed.component(i), other.component(i));
            prop_assert_eq!(product.component(i), a * b);
            dot += a * b;
            differing += (a != b) as usize;
        }
        if acc.components().iter().all(|&v| v.unsigned_abs() < 1 << 20) {
            prop_assert_eq!(packed.dot(&other), dot);
        }
        prop_assert_eq!(packed.hamming(&other), differing);
    }

    #[test]
    fn packed_accum_scans_match_reference((acc, seed) in arb_accum_case(), m in 1usize..40, k in 0usize..48, th in -0.5f64..0.9) {
        let dim = acc.dim();
        let cb = Codebook::derive(seed, m, dim);
        prop_assert_eq!(acc.scan_top_k(&cb, k), cb.top_k(&acc, k));
        prop_assert_eq!(acc.scan_above_threshold(&cb, th), cb.above_threshold(&acc, th));
        prop_assert_eq!(acc.scan_best(&cb).unwrap(), cb.best_match(&acc).unwrap());
        let mut out = Vec::new();
        acc.scan_top_k_into(&cb, k, &mut out);
        prop_assert_eq!(&out, &cb.top_k(&acc, k));
        acc.scan_above_threshold_into(&cb, th, &mut out);
        prop_assert_eq!(&out, &cb.above_threshold(&acc, th));
        let packed = PackedHv::from_accum(&acc);
        let reference: Vec<i64> = cb.iter().map(|item| acc.dot_bipolar(item)).collect();
        prop_assert_eq!(cb.packed_view().dots(packed.packed_query()), reference);
        let queries: Vec<AccumHv> = (0..5u64)
            .map(|i| accum_family(((seed + i) % 5) as u8, dim, seed ^ i))
            .collect();
        let many = AccumHv::scan_top_k_many(&cb, &queries, k);
        for (q, hits) in queries.iter().zip(&many) {
            prop_assert_eq!(hits, &cb.top_k(q, k));
        }
    }
}

#[test]
fn all_zero_accumulator_scans_as_zero_not_dense() {
    // A fully peeled residual: zero planes, L1 weight 0, every dot 0 —
    // so no item clears a non-negative threshold.
    let cb = Codebook::derive(0x2E60, 32, 200);
    let zero = AccumHv::zeros(200);
    let packed = PackedHv::from_accum(&zero);
    assert!(!packed.is_dense());
    assert_eq!(packed.num_planes(), 0);
    assert_eq!(packed.l1_weight(), 0);
    assert_eq!(packed, PackedHv::from_ternary(&TernaryHv::zeros(200)));
    assert_eq!(cb.packed_view().dots(packed.packed_query()), vec![0; 32]);
    assert!(zero.scan_above_threshold(&cb, 0.0).is_empty());
    assert_eq!(zero.scan_top_k(&cb, 32), cb.top_k(&zero, 32));
    for item in cb.iter() {
        assert_eq!(packed.sim_to(item), 0.0);
        assert_eq!(packed.bind(item), packed);
    }
}

#[test]
fn parallel_accum_scans_match_reference() {
    // A table past the parallel fork threshold (4096 items × 64 words)
    // on a multi-lane pool: the parallel `dots` / `top_k` /
    // `above_threshold` forms must match the scalar oracle for
    // multi-plane queries too, as must the sequential `top_k_many`.
    let before = rayon::current_num_threads();
    rayon::configure_pool(2);
    let dim = 4096;
    let cb = Codebook::derive(0x9A2A, 4096, dim);
    let view = cb.packed_view();
    for family in 0..5u8 {
        let acc = accum_family(family, dim, 0x9A2B + family as u64);
        let packed = PackedHv::from_accum(&acc);
        let q = packed.packed_query();
        let reference: Vec<i64> = cb.iter().map(|item| acc.dot_bipolar(item)).collect();
        assert_eq!(view.dots(q), reference, "family {family}");
        assert_eq!(view.top_k(q, 9), cb.top_k(&acc, 9), "family {family}");
        assert_eq!(
            view.above_threshold(q, 0.01),
            cb.above_threshold(&acc, 0.01),
            "family {family}"
        );
        assert_eq!(view.top_k_many(&[q, q], 5)[1], cb.top_k(&acc, 5));
    }
    rayon::configure_pool(before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arb_ternary_produces_valid_vectors(t in arb_ternary(32)) {
        prop_assert_eq!(t.dim(), 32);
        for i in 0..32 {
            prop_assert!((-1..=1).contains(&t.component(i)));
        }
    }

    #[test]
    fn arb_bipolar_produces_valid_vectors(v in arb_bipolar(65)) {
        prop_assert_eq!(v.dim(), 65);
        prop_assert_eq!(v.dot(&v), 65);
    }
}

// ----------------------------------------------------------------------
// In-place arithmetic on the packed planes, the word-parallel clause
// builder and the word-parallel accumulator update, each against its
// scalar reference.
// ----------------------------------------------------------------------

/// Operand `pick` of a small pool, so sequences revisit the same vectors
/// and magnitudes climb and fall: two bipolar vectors, a half-density
/// clause, a dense ternary vector and the all-zero ternary vector.
enum Operand {
    Bipolar(BipolarHv),
    Ternary(TernaryHv),
}

fn operand_pool(dim: usize, seed: u64) -> Vec<Operand> {
    let mut rng = rng_from_seed(seed);
    let a = BipolarHv::random(dim, &mut rng);
    let b = BipolarHv::random(dim, &mut rng);
    let clause = a.bundle(&b).clip_ternary();
    let dense = BipolarHv::random(dim, &mut rng).to_ternary();
    vec![
        Operand::Bipolar(a),
        Operand::Bipolar(b),
        Operand::Ternary(clause),
        Operand::Ternary(dense),
        Operand::Ternary(TernaryHv::zeros(dim)),
    ]
}

/// Applies `operand` with sign `add` to both the packed vector and the
/// `AccumHv` reference.
fn apply(packed: &mut PackedHv, reference: &mut AccumHv, operand: &Operand, add: bool) {
    let weight = if add { 1 } else { -1 };
    match (operand, add) {
        (Operand::Bipolar(v), true) => packed.add_bipolar(v),
        (Operand::Bipolar(v), false) => packed.sub_bipolar(v),
        (Operand::Ternary(t), true) => packed.add_ternary(t),
        (Operand::Ternary(t), false) => packed.sub_ternary(t),
    }
    match operand {
        Operand::Bipolar(v) => reference.add_bipolar(v, weight),
        Operand::Ternary(t) => reference.add_ternary(t, weight),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_add_sub_sequences_match_accum_reference(
        (dim, seed, ops) in arb_dim().prop_flat_map(|d| (
            Just(d),
            any::<u64>(),
            proptest::collection::vec((0usize..5, any::<bool>()), 1..40),
        ))
    ) {
        let pool = operand_pool(dim, seed);
        let start = accum_family((seed % 3) as u8, dim, seed);
        let mut packed = PackedHv::from_accum(&start);
        let mut reference = start;
        for (step, &(pick, add)) in ops.iter().enumerate() {
            apply(&mut packed, &mut reference, &pool[pick], add);
            prop_assert_eq!(&packed, &PackedHv::from_accum(&reference), "step {}", step);
            prop_assert_eq!(packed.norm().to_bits(), reference.norm().to_bits());
        }
    }

    #[test]
    fn packed_norm_matches_accum_norm((acc, _seed) in arb_accum_case()) {
        prop_assert_eq!(PackedHv::from_accum(&acc).norm().to_bits(), acc.norm().to_bits());
    }

    #[test]
    fn clipped_sum_matches_scalar_clause((dim, seed, depth) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 0usize..=4))) {
        // A label plus `depth` path items, like `Taxonomy::clause`.
        let mut rng = rng_from_seed(seed);
        let members: Vec<BipolarHv> = (0..=depth).map(|_| BipolarHv::random(dim, &mut rng)).collect();
        let mut acc = AccumHv::zeros(dim);
        for m in &members {
            acc.add_bipolar(m, 1);
        }
        let refs: Vec<&BipolarHv> = members.iter().collect();
        let clause = TernaryHv::clipped_sum(&refs);
        prop_assert_eq!(&clause, &acc.clip_ternary());
        if members.len() % 2 == 1 {
            prop_assert_eq!(clause.nonzero_count(), dim);
        }
        for i in 0..dim {
            // Even counts tie to zero exactly where the members cancel.
            prop_assert_eq!(clause.component(i) == 0, acc.component(i) == 0);
        }
    }

    #[test]
    fn accum_add_ternary_matches_per_component_reference(
        (t, weight, seed) in arb_dim().prop_flat_map(|d| (arb_ternary(d), -1000i32..=1000, any::<u64>()))
    ) {
        let dim = t.dim();
        let start = accum_family(1, dim, seed);
        let mut acc = start.clone();
        acc.add_ternary(&t, weight);
        for i in 0..dim {
            prop_assert_eq!(acc.component(i), start.component(i) + weight * t.component(i) as i32);
        }
        acc.sub_ternary(&t);
        for i in 0..dim {
            prop_assert_eq!(acc.component(i), start.component(i) + (weight - 1) * t.component(i) as i32);
        }
    }
}

#[test]
fn packed_arithmetic_walks_every_plane_transition() {
    // Odd D: the last word carries padding that must stay clear.
    let dim = 131;
    let mut rng = rng_from_seed(0xA817);
    let b = BipolarHv::random(dim, &mut rng);
    let t = b.bundle(&BipolarHv::random(dim, &mut rng)).clip_ternary();
    let zero = PackedHv::from_accum(&AccumHv::zeros(dim));

    // All-zero → dense.
    let mut v = zero.clone();
    v.add_bipolar(&b);
    assert!(v.is_dense());
    assert_eq!(v, PackedHv::from_bipolar(&b));
    // Carry into a new top plane: every magnitude becomes 2.
    v.add_bipolar(&b);
    assert_eq!(v.num_planes(), 2);
    assert_eq!(v.norm(), (4.0 * dim as f64).sqrt());
    // Borrow that empties the top plane: back to dense.
    v.sub_bipolar(&b);
    assert_eq!(v, PackedHv::from_bipolar(&b));
    // Dense → all-zero (zero planes, not dense).
    v.sub_bipolar(&b);
    assert_eq!(v, zero);
    assert!(!v.is_dense());
    assert_eq!(v.norm(), 0.0);
    // Sign flips through zero.
    v.sub_bipolar(&b);
    assert_eq!(v, PackedHv::from_bipolar(&b.negated()));
    // Dense → ternary → all-zero.
    let mut u = PackedHv::from_bipolar(&b);
    u.sub_bipolar(&b);
    u.add_ternary(&t);
    assert_eq!(u, PackedHv::from_ternary(&t));
    assert_eq!(u.num_planes(), 1);
    u.sub_ternary(&t);
    assert_eq!(u, zero);
}

#[test]
fn packed_norm_replays_the_reference_sum_past_2_pow_53() {
    // Large magnitudes: terms near 2^62 round in f64, and the total is
    // far past 2^53, so only the index-order f64 sum reproduces the
    // reference bit for bit.
    let mut rng = rng_from_seed(0x2053);
    for dim in [1usize, 3, 67, 200] {
        let comps: Vec<i32> = (0..dim)
            .map(|_| rng.gen_range(i32::MIN..=i32::MAX))
            .collect();
        let acc = AccumHv::from_components(comps);
        assert_eq!(
            PackedHv::from_accum(&acc).norm().to_bits(),
            acc.norm().to_bits()
        );
    }
    // Totals straddling 2^53: 2^26 squared is 2^52.
    for extra in [0, 1, 2] {
        let mut comps = vec![1 << 26, 1 << 26];
        comps.extend(std::iter::repeat_n(1, extra));
        let acc = AccumHv::from_components(comps);
        assert_eq!(
            PackedHv::from_accum(&acc).norm().to_bits(),
            acc.norm().to_bits()
        );
    }
    let extremes = AccumHv::from_components(vec![i32::MIN, i32::MAX, -7, 0]);
    assert_eq!(
        PackedHv::from_accum(&extremes).norm().to_bits(),
        extremes.norm().to_bits()
    );
}

#[test]
fn clipped_sum_of_cancelling_members_is_zero() {
    let mut rng = rng_from_seed(0xCA7C);
    let a = BipolarHv::random(77, &mut rng);
    let b = BipolarHv::random(77, &mut rng);
    let negated = a.negated();
    assert_eq!(
        TernaryHv::clipped_sum(&[&a, &negated]),
        TernaryHv::zeros(77)
    );
    assert_eq!(TernaryHv::clipped_sum(&[&a]), a.to_ternary());
    assert_eq!(TernaryHv::clipped_sum(&[&a, &b, &negated]), b.to_ternary());
}
