//! Determinism guarantees: identical seeds must reproduce identical
//! structures, encodings, and factorizations across the whole stack —
//! the property every experiment in EXPERIMENTS.md relies on.

use factorhd::baselines::{FactorizationProblem, ImcConfig, ImcFactorizer};
use factorhd::prelude::*;

fn build_taxonomy(seed: u64) -> Taxonomy {
    TaxonomyBuilder::new(1024)
        .seed(seed)
        .class("animal", &[8, 4])
        .class("color", &[8])
        .build()
        .expect("valid taxonomy")
}

#[test]
fn taxonomies_reproduce_bit_identically() {
    let a = build_taxonomy(55);
    let b = build_taxonomy(55);
    assert_eq!(a.label(0), b.label(0));
    assert_eq!(a.label(1), b.label(1));
    assert_eq!(a.null_hv(), b.null_hv());
    assert_eq!(
        a.codebook(0, &[3]).expect("valid").as_ref(),
        b.codebook(0, &[3]).expect("valid").as_ref()
    );
}

#[test]
fn different_seeds_give_different_taxonomies() {
    let a = build_taxonomy(55);
    let b = build_taxonomy(56);
    assert_ne!(a.label(0), b.label(0));
}

#[test]
fn scene_encoding_reproduces() {
    let taxonomy = build_taxonomy(57);
    let encoder = Encoder::new(&taxonomy);
    let mut rng1 = hdc::rng_from_seed(1);
    let mut rng2 = hdc::rng_from_seed(1);
    let s1 = taxonomy.sample_scene(3, true, &mut rng1);
    let s2 = taxonomy.sample_scene(3, true, &mut rng2);
    assert_eq!(s1, s2);
    assert_eq!(
        encoder.encode_scene(&s1).expect("encodable"),
        encoder.encode_scene(&s2).expect("encodable")
    );
}

#[test]
fn factorization_reproduces() {
    let taxonomy = build_taxonomy(58);
    let encoder = Encoder::new(&taxonomy);
    let factorizer = Factorizer::new(
        &taxonomy,
        FactorizeConfig {
            threshold: ThresholdPolicy::Analytic { n_objects: 2 },
            ..FactorizeConfig::default()
        },
    );
    let mut rng = hdc::rng_from_seed(2);
    let scene = taxonomy.sample_scene(2, true, &mut rng);
    let hv = encoder.encode_scene(&scene).expect("encodable");
    let a = factorizer.factorize_multi(&hv).expect("decodable");
    let b = factorizer.factorize_multi(&hv).expect("decodable");
    assert_eq!(a, b);
}

#[test]
fn stochastic_baseline_reproduces_with_fixed_seed() {
    let problem = FactorizationProblem::derive(59, 3, 16, 512);
    let config = ImcConfig {
        seed: 999,
        ..ImcConfig::default()
    };
    let a = ImcFactorizer::new(config).solve(&problem);
    let b = ImcFactorizer::new(config).solve(&problem);
    assert_eq!(a, b);
}

#[test]
fn parallel_trial_runners_reproduce() {
    // The bench runners fan trials out across threads; accuracy and
    // operation counts must not depend on scheduling (wall-clock does and
    // is deliberately excluded here).
    use factorhd_bench::{run_factorhd_rep1, th_sweep};
    let a = run_factorhd_rep1(3, 8, 1024, 16, 77);
    let b = run_factorhd_rep1(3, 8, 1024, 16, 77);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.avg_ops, b.avg_ops);

    let grid = [0.05, 0.10, 0.15];
    let (th_a, points_a) = th_sweep(2, 3, 1024, 8, &grid, 8, 78);
    let (th_b, points_b) = th_sweep(2, 3, 1024, 8, &grid, 8, 78);
    assert_eq!(th_a, th_b);
    assert_eq!(points_a, points_b);
}

#[test]
fn parallel_encoding_preserves_trial_order() {
    // Regression guard for parallel-reduction nondeterminism: a parallel
    // map over per-trial scene encodings must return bit-identical vectors
    // in input order, or any accumulator bundled from them would drift
    // between runs.
    use rayon::prelude::*;
    let taxonomy = build_taxonomy(60);
    let encoder = Encoder::new(&taxonomy);
    let encode_trial = |trial: u64| {
        let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[61, trial]));
        let scene = taxonomy.sample_scene(2, true, &mut rng);
        encoder.encode_scene(&scene).expect("encodable")
    };
    let sequential: Vec<_> = (0..16u64).map(encode_trial).collect();
    let parallel: Vec<_> = (0..16u64).into_par_iter().map(encode_trial).collect();
    assert_eq!(sequential, parallel);

    let mut bundle_seq = sequential[0].clone();
    let mut bundle_par = parallel[0].clone();
    for (s, p) in sequential.iter().zip(&parallel).skip(1) {
        bundle_seq.add_accum(s);
        bundle_par.add_accum(p);
    }
    assert_eq!(bundle_seq, bundle_par);
}

/// A deterministic mixed typed-op stream over `taxonomy`: Rep-2 singles,
/// Rep-3 multis, partial factorizations, membership probes, and encodes.
fn mixed_ops(taxonomy: &Taxonomy, n: usize, seed: u64) -> Vec<AnyOp> {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(seed);
    (0..n)
        .map(|i| {
            let object = taxonomy.sample_object(&mut rng);
            match i % 5 {
                0 => {
                    let scene = taxonomy.sample_scene(2, true, &mut rng);
                    AnyOp::Rep3(FactorizeRep3 {
                        scene: encoder.encode_scene(&scene).expect("encodable"),
                    })
                }
                1 => AnyOp::Partial(PartialDecode {
                    scene: encoder
                        .encode_scene(&Scene::single(object))
                        .expect("encodable"),
                    classes: vec![0],
                }),
                2 => AnyOp::Membership(MembershipProbe {
                    scene: encoder
                        .encode_scene(&Scene::single(object.clone()))
                        .expect("encodable"),
                    items: vec![(1, object.assignment(1).expect("present").clone())],
                    absent: vec![],
                }),
                3 => AnyOp::Encode(EncodeScene {
                    scene: Scene::single(object),
                }),
                _ => AnyOp::Rep2(FactorizeRep2 {
                    scene: encoder
                        .encode_scene(&Scene::single(object))
                        .expect("encodable"),
                }),
            }
        })
        .collect()
}

#[test]
fn engine_batch_is_bit_identical_to_sequential_loop() {
    // The serving engine's planned batch execution must be
    // indistinguishable — bit for bit — from a sequential loop over the
    // same typed ops, whether its caches are cold or warm, and across
    // construction paths (in-memory vs artifact round trip).
    let ops = mixed_ops(&build_taxonomy(62), 20, 63);
    let unwrap = |results: Vec<Result<AnyOutput, EngineError>>| -> Vec<AnyOutput> {
        results
            .into_iter()
            .map(|r| r.expect("op succeeds"))
            .collect()
    };

    // Cold engine, planned batch.
    let cold_engine =
        FactorEngine::new(build_taxonomy(62), EngineConfig::default()).expect("valid config");
    let cold_batched = unwrap(cold_engine.run_mixed(&ops));
    // Cold engine, sequential (fresh instance so no cache is shared).
    let seq_engine =
        FactorEngine::new(build_taxonomy(62), EngineConfig::default()).expect("valid config");
    let cold_sequential = unwrap(seq_engine.run_mixed_sequential(&ops));
    assert_eq!(cold_batched, cold_sequential);

    // Warm caches (both engines served one pass already).
    let warm_batched = unwrap(cold_engine.run_mixed(&ops));
    let warm_sequential = unwrap(seq_engine.run_mixed_sequential(&ops));
    assert_eq!(warm_batched, cold_batched);
    assert_eq!(warm_sequential, cold_sequential);

    // The plain core loop (no engine, no caches) agrees output by
    // output.
    let taxonomy = build_taxonomy(62);
    let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
    let encoder = Encoder::new(&taxonomy);
    for (op, output) in ops.iter().zip(&cold_batched) {
        match (op, output) {
            (AnyOp::Rep2(FactorizeRep2 { scene }), AnyOutput::Rep2(decoded)) => {
                assert_eq!(
                    &factorizer.factorize_single(scene).expect("decodes"),
                    decoded
                );
            }
            (AnyOp::Rep3(FactorizeRep3 { scene }), AnyOutput::Rep3(decoded)) => {
                assert_eq!(
                    &factorizer.factorize_multi(scene).expect("decodes"),
                    decoded
                );
            }
            (AnyOp::Partial(PartialDecode { scene, classes }), AnyOutput::Partial(decoded)) => {
                assert_eq!(
                    &factorizer
                        .factorize_classes(scene, classes)
                        .expect("decodes"),
                    decoded
                );
            }
            (AnyOp::Encode(EncodeScene { scene }), AnyOutput::Encoded(hv)) => {
                assert_eq!(&encoder.encode_scene(scene).expect("encodable"), hv);
            }
            (
                AnyOp::Membership(MembershipProbe {
                    scene,
                    items,
                    absent,
                }),
                AnyOutput::Membership(answer),
            ) => {
                let mut query = SceneQuery::new(&taxonomy);
                for (class, path) in items {
                    query = query.with_item(*class, path.clone()).expect("valid item");
                }
                for &class in absent {
                    query = query.with_absent(class).expect("valid class");
                }
                assert_eq!(&query.evaluate(scene).expect("evaluates"), answer);
            }
            (op, output) => panic!("mismatched variants: {op:?} → {output:?}"),
        }
    }

    // An artifact round trip serves the same stream identically.
    let mut bytes = Vec::new();
    cold_engine.save_to(&mut bytes).expect("serializes");
    let restored =
        FactorEngine::load_from(&mut &bytes[..], EngineConfig::default()).expect("deserializes");
    assert_eq!(unwrap(restored.run_mixed(&ops)), cold_batched);
}

#[test]
fn metrics_recording_state_is_unobservable_in_outputs() {
    // Telemetry must never influence computation: the same mixed-op
    // batch served with metrics recording on, off, and on again (and
    // under the `metrics-off` feature, where the switch is inert)
    // returns bit-identical outputs, batched and sequential alike.
    let ops = mixed_ops(&build_taxonomy(72), 20, 73);
    let engine =
        FactorEngine::new(build_taxonomy(72), EngineConfig::default()).expect("valid config");
    let unwrap = |results: Vec<Result<AnyOutput, EngineError>>| -> Vec<AnyOutput> {
        results
            .into_iter()
            .map(|r| r.expect("op succeeds"))
            .collect()
    };
    let was_recording = factorhd::metrics::metrics_recording();

    factorhd::metrics::set_metrics_recording(true);
    let recorded = unwrap(engine.run_mixed(&ops));
    let recorded_sequential = unwrap(engine.run_mixed_sequential(&ops));

    factorhd::metrics::set_metrics_recording(false);
    let unrecorded = unwrap(engine.run_mixed(&ops));
    let unrecorded_sequential = unwrap(engine.run_mixed_sequential(&ops));

    factorhd::metrics::set_metrics_recording(true);
    let recorded_again = unwrap(engine.run_mixed(&ops));
    factorhd::metrics::set_metrics_recording(was_recording);

    assert_eq!(recorded, unrecorded, "recording switch changed outputs");
    assert_eq!(recorded, recorded_again);
    assert_eq!(recorded, recorded_sequential);
    assert_eq!(recorded, unrecorded_sequential);
}

#[test]
fn engine_batch_is_thread_count_invariant() {
    // The worker pool's size must be unobservable in results: the same
    // mixed-op batch served on 1-, 2-, and 4-lane pools (the in-process
    // equivalent of RAYON_NUM_THREADS=1/2/4) returns bit-identical
    // outputs in the same stable input order, and each pool size matches
    // the sequential reference loop.
    let ops = mixed_ops(&build_taxonomy(70), 24, 71);
    let engine =
        FactorEngine::new(build_taxonomy(70), EngineConfig::default()).expect("valid config");
    let unwrap = |results: Vec<Result<AnyOutput, EngineError>>| -> Vec<AnyOutput> {
        results
            .into_iter()
            .map(|r| r.expect("op succeeds"))
            .collect()
    };
    let initial = rayon::current_num_threads();
    let mut reference: Option<Vec<AnyOutput>> = None;
    for threads in [1usize, 2, 4] {
        rayon::configure_pool(threads);
        let batched = unwrap(engine.run_mixed(&ops));
        let sequential = unwrap(engine.run_mixed_sequential(&ops));
        assert_eq!(
            batched, sequential,
            "planned vs sequential at {threads} lanes"
        );
        match &reference {
            None => reference = Some(batched),
            Some(expected) => {
                assert_eq!(&batched, expected, "pool size {threads} changed results")
            }
        }
    }
    rayon::configure_pool(initial);
}

#[test]
fn online_trained_prototypes_are_thread_count_invariant() {
    // Online learning must be deterministic under the parallel planner:
    // the same Train batch + Retrain + Classify stream executed on 1-,
    // 2-, and 4-lane pools (the in-process equivalent of
    // RAYON_NUM_THREADS=1/2/4) leaves bit-identical prototype
    // accumulators, replay buffers, and classifications — integer
    // bundling is commutative and the replay buffer is keyed by sample
    // id, so chunking and scheduling are unobservable. (Train *acks*
    // carry arrival-order-dependent running totals and are deliberately
    // not compared.)
    use factorhd::learn::PrototypeModel;
    use hdc::{AccumHv, BipolarHv};

    const CLASSES: usize = 3;
    const DIM: usize = 512;

    let example = |class: usize, sample: u64| -> AccumHv {
        let mut anchor_rng = hdc::rng_from_seed(900 + class as u64);
        let anchor = BipolarHv::random(DIM, &mut anchor_rng);
        let mut noise_rng = hdc::rng_from_seed(7000 + sample);
        let noise = BipolarHv::random(DIM, &mut noise_rng);
        let mut acc = AccumHv::zeros(DIM);
        acc.add_bipolar(&anchor, 1);
        acc.add_bipolar(&noise, 2);
        acc
    };

    let run_at = |threads: usize| -> (PrototypeModel, Vec<AnyOutput>) {
        rayon::configure_pool(threads);
        let registry = ModelRegistry::new();
        let taxonomy = TaxonomyBuilder::new(DIM)
            .class("shape", &[4])
            .build()
            .expect("valid taxonomy");
        let state = ModelState::new_learnable(
            taxonomy,
            EngineConfig::default(),
            LearnConfig::new(CLASSES, DIM),
        )
        .expect("valid learnable state");
        registry.install("m", state);

        // One parallel Train batch (groupable: chunked across the pool),
        // then a Retrain, then classifications.
        let train_batch: Vec<(ModelId, AnyOp)> = (0..60u64)
            .map(|i| {
                let class = i as usize % CLASSES;
                (
                    ModelId::new("m"),
                    AnyOp::Train(Train {
                        class,
                        sample: i,
                        example: example(class, i),
                        retain: true,
                    }),
                )
            })
            .collect();
        for result in registry.execute_batch(&train_batch) {
            result.expect("train succeeds");
        }
        registry
            .run("m", &Retrain { epochs: 5 })
            .expect("retrain succeeds");
        let classify_batch: Vec<(ModelId, AnyOp)> = (0..12u64)
            .map(|i| {
                (
                    ModelId::new("m"),
                    AnyOp::Classify(Classify {
                        query: example(i as usize % CLASSES, 5000 + i),
                        top_k: 2,
                    }),
                )
            })
            .collect();
        let classifications = registry
            .execute_batch(&classify_batch)
            .into_iter()
            .map(|r| r.expect("classify succeeds"))
            .collect();

        let handle = registry.get("m").expect("installed");
        let model = handle
            .state()
            .learner()
            .expect("learnable")
            .with_model(|m| m.clone());
        (model, classifications)
    };

    let initial = rayon::current_num_threads();
    let mut reference: Option<(PrototypeModel, Vec<AnyOutput>)> = None;
    for threads in [1usize, 2, 4] {
        let run = run_at(threads);
        match &reference {
            None => reference = Some(run),
            Some((expected_model, expected_outputs)) => {
                assert_eq!(
                    &run.0, expected_model,
                    "pool size {threads} changed the trained model"
                );
                assert_eq!(
                    &run.1, expected_outputs,
                    "pool size {threads} changed classifications"
                );
            }
        }
    }
    rayon::configure_pool(initial);
}

#[test]
fn contained_op_panics_preserve_batch_determinism() {
    // Panic containment must be invisible to every op it does not
    // contain: with one op in the batch poisoned via the
    // `engine/op_panic` failpoint, the poisoned slot comes back as a
    // typed `OpPanicked` while every other slot stays bit-identical to
    // the (uncontained, failpoint-free) sequential reference — at 1-,
    // 2-, and 4-lane pools alike.
    use factorhd::engine::failpoint::{self, FailMode};

    // The poisoned op is an Encode of a 3-object scene (chaos tag 303)
    // — no other test in this binary executes that shape, so the
    // process-global failpoint cannot leak across tests.
    let taxonomy = build_taxonomy(80);
    let mut ops = mixed_ops(&taxonomy, 20, 81);
    let mut rng = hdc::rng_from_seed(82);
    let poisoned = AnyOp::Encode(EncodeScene {
        scene: taxonomy.sample_scene(3, true, &mut rng),
    });
    assert!(
        ops.iter().all(|op| op.chaos_tag() != poisoned.chaos_tag()),
        "the poison tag must single out exactly one op"
    );
    ops.insert(7, poisoned);

    let engine =
        FactorEngine::new(build_taxonomy(80), EngineConfig::default()).expect("valid config");
    // The sequential reference path has no failpoint site, so it
    // yields the poisoned op's true output for free.
    let sequential = engine.run_mixed_sequential(&ops);

    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoint::disarm("engine/op_panic");
        }
    }
    failpoint::arm("engine/op_panic", FailMode::Tag(ops[7].chaos_tag()));
    let _disarm = Disarm;

    let initial = rayon::current_num_threads();
    for threads in [1usize, 2, 4] {
        rayon::configure_pool(threads);
        let batched = engine.run_mixed(&ops);
        assert_eq!(batched.len(), sequential.len());
        for (slot, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            if slot == 7 {
                assert!(
                    matches!(b, Err(EngineError::OpPanicked { .. })),
                    "poisoned slot must fail typed at {threads} lanes, got {b:?}"
                );
            } else {
                assert_eq!(
                    b.as_ref().expect("unpoisoned op succeeds"),
                    s.as_ref().expect("reference op succeeds"),
                    "slot {slot} drifted under containment at {threads} lanes"
                );
            }
        }
    }
    rayon::configure_pool(initial);
}

#[test]
fn registry_batch_is_bit_identical_to_sequential_loop() {
    // The multi-model planner must match its own sequential reference
    // while serving two different taxonomies from one batch.
    let registry = ModelRegistry::new();
    registry.install(
        "a",
        ModelState::new(build_taxonomy(64), EngineConfig::default()).expect("valid config"),
    );
    registry.install(
        "b",
        ModelState::new(build_taxonomy(65), EngineConfig::default()).expect("valid config"),
    );
    let ops_a = {
        let handle = registry.get("a").expect("installed");
        mixed_ops(handle.state().taxonomy(), 10, 66)
    };
    let ops_b = {
        let handle = registry.get("b").expect("installed");
        mixed_ops(handle.state().taxonomy(), 10, 67)
    };
    // Interleave the two models so grouping actually has work to do.
    let mut routed: Vec<(ModelId, AnyOp)> = Vec::new();
    for (a, b) in ops_a.into_iter().zip(ops_b) {
        routed.push((ModelId::new("a"), a));
        routed.push((ModelId::new("b"), b));
    }
    let batched = registry.execute_batch(&routed);
    let sequential = registry.execute_sequential(&routed);
    assert_eq!(batched.len(), sequential.len());
    for (b, s) in batched.iter().zip(&sequential) {
        assert_eq!(
            b.as_ref().expect("op succeeds"),
            s.as_ref().expect("op succeeds")
        );
    }
}

#[test]
fn neural_pipeline_reproduces() {
    use factorhd::neural::{CifarPipeline, CifarPipelineConfig};
    let config = CifarPipelineConfig {
        dim: 1024,
        samples_per_class: 8,
        ..CifarPipelineConfig::cifar10()
    };
    let p1 = CifarPipeline::new(config).expect("valid pipeline");
    let p2 = CifarPipeline::new(config).expect("valid pipeline");
    assert_eq!(p1.alignment(), p2.alignment());
    assert_eq!(
        p1.evaluate(50, 3).expect("runs"),
        p2.evaluate(50, 3).expect("runs")
    );
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Folds every observable field of a Rep-3 decode into `hash`: the
/// recovered objects, each confidence's bit pattern, the operation
/// counters, and the residual norm's bit pattern.
fn digest_scene(mut hash: u64, decoded: &DecodedScene) -> u64 {
    hash = fnv1a(hash, &(decoded.objects.len() as u64).to_le_bytes());
    for d in &decoded.objects {
        for assignment in d.object().assignments() {
            match assignment {
                None => hash = fnv1a(hash, &[0xFF]),
                Some(path) => {
                    hash = fnv1a(hash, &[path.depth() as u8]);
                    for &i in path.indices() {
                        hash = fnv1a(hash, &i.to_le_bytes());
                    }
                }
            }
        }
        hash = fnv1a(hash, &d.confidence().to_bits().to_le_bytes());
    }
    let s = &decoded.stats;
    for v in [
        s.similarity_checks,
        s.combination_tests,
        s.unbind_ops,
        s.objects_found as u64,
        s.truncated_combinations as u64,
    ] {
        hash = fnv1a(hash, &v.to_le_bytes());
    }
    fnv1a(hash, &decoded.residual_norm.to_bits().to_le_bytes())
}

#[test]
fn rep3_decodes_match_pinned_digest() {
    // Fixed-seed Rep-3 scenes of 1–4 objects (some with absent classes)
    // on the paper-scale 3 × [100, 10] taxonomy. The digest was computed
    // on the scalar accumulator scan route and pins every decode, every
    // confidence bit, every counter and the residual norm: any scan
    // route must reproduce it exactly.
    let taxonomy = TaxonomyBuilder::new(4096)
        .seed(0x0D16_E575)
        .uniform_classes(3, &[100, 10])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);
    let factorizers: Vec<Factorizer<'_>> = (1..=4)
        .map(|n_objects| {
            Factorizer::new(
                &taxonomy,
                FactorizeConfig {
                    threshold: ThresholdPolicy::Analytic { n_objects },
                    ..FactorizeConfig::default()
                },
            )
        })
        .collect();
    let mut rng = hdc::rng_from_seed(0x0D16_E576);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut right = 0;
    let scenes = 48;
    for i in 0..scenes {
        let n = i % 4 + 1;
        let objects = (0..n)
            .map(|_| taxonomy.sample_object_with_nulls(0.15, &mut rng))
            .collect();
        let scene = Scene::new(objects);
        let hv = encoder.encode_scene(&scene).expect("encodable");
        let decoded = factorizers[n - 1].factorize_multi(&hv).expect("decodable");
        right += decoded.to_scene().same_multiset(&scene) as usize;
        hash = digest_scene(hash, &decoded);
    }
    assert_eq!(
        format!("{hash:016x} {right}/{scenes}"),
        "251f453777808316 48/48"
    );
}

/// Folds a recovered path (or NULL) into `hash`.
fn digest_path(hash: u64, path: Option<&ItemPath>) -> u64 {
    match path {
        None => fnv1a(hash, &[0xFF]),
        Some(path) => {
            let hash = fnv1a(hash, &[path.depth() as u8]);
            path.indices()
                .iter()
                .fold(hash, |h, i| fnv1a(h, &i.to_le_bytes()))
        }
    }
}

/// Folds a single-object decode into `hash`: every assignment and the
/// confidence's bit pattern.
fn digest_object(hash: u64, decoded: &DecodedObject) -> u64 {
    let hash = decoded
        .object()
        .assignments()
        .iter()
        .fold(hash, |h, a| digest_path(h, a.as_ref()));
    fnv1a(hash, &decoded.confidence().to_bits().to_le_bytes())
}

#[test]
fn rep2_decodes_match_pinned_digest() {
    // Fixed-seed Rep-2 queries on the paper-scale 3 × [100, 10]
    // taxonomy: single objects (some with absent classes) plus two-object
    // bundles, whose two magnitude planes exercise the multi-plane pack.
    // Every query goes through the one-at-a-time decode, the grouped
    // batch decode and a partial decode of classes [2, 0]; the digest
    // pins every path, every confidence and similarity bit, and was
    // computed before the accumulator pack and the codebook lookup were
    // rewritten.
    let taxonomy = TaxonomyBuilder::new(4096)
        .seed(0x0D16_E577)
        .uniform_classes(3, &[100, 10])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);
    let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
    let mut rng = hdc::rng_from_seed(0x0D16_E578);
    let mut scenes = Vec::new();
    let mut queries = Vec::new();
    for i in 0..48 {
        let n = if i % 4 == 3 { 2 } else { 1 };
        let scene = Scene::new(
            (0..n)
                .map(|_| taxonomy.sample_object_with_nulls(0.15, &mut rng))
                .collect(),
        );
        queries.push(encoder.encode_scene(&scene).expect("encodable"));
        scenes.push(scene);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut right = 0;
    for (scene, hv) in scenes.iter().zip(&queries) {
        let decoded = factorizer.factorize_single(hv).expect("decodable");
        if scene.len() == 1 {
            right += (decoded.object() == &scene.objects()[0]) as usize;
        }
        hash = digest_object(hash, &decoded);
        for d in factorizer
            .factorize_classes(hv, &[2, 0])
            .expect("decodable")
        {
            hash = fnv1a(hash, &[d.class as u8]);
            hash = digest_path(hash, d.path.as_ref());
            hash = fnv1a(hash, &d.sim.to_bits().to_le_bytes());
        }
    }
    for group in queries.chunks(12) {
        let refs: Vec<&AccumHv> = group.iter().collect();
        for decoded in factorizer.factorize_single_many(&refs) {
            hash = digest_object(hash, &decoded.expect("decodable"));
        }
    }
    assert_eq!(format!("{hash:016x} {right}/36"), "ecffd87b692e82a7 36/36");
}
