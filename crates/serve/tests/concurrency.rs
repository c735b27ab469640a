//! Loopback concurrency: N client threads stream mixed ops against a
//! two-model registry through the network front end, and every decoded
//! response must be bit-identical to `execute_batch` run directly on
//! the same registry — across 1-, 2-, and 4-lane worker pools (the
//! in-process equivalent of `RAYON_NUM_THREADS={1,2,4}`; the CI
//! multi-thread matrix covers the env-var entry path on this same
//! test).

use std::sync::Arc;
use std::thread;

use factorhd_core::{Encoder, Scene, Taxonomy, TaxonomyBuilder};
use factorhd_engine::{
    AnyOp, AnyOutput, EncodeScene, EngineConfig, FactorizeRep1, FactorizeRep2, FactorizeRep3,
    MembershipProbe, ModelId, ModelRegistry, ModelState, PartialDecode,
};
use factorhd_serve::{BatcherConfig, Client, Server, ServerConfig};

const CLIENTS: usize = 6;
const OPS_PER_CLIENT: usize = 18;

fn build_taxonomy(seed: u64) -> Taxonomy {
    TaxonomyBuilder::new(256)
        .seed(seed)
        .class("animal", &[4, 2])
        .class("color", &[4])
        .build()
        .expect("valid taxonomy")
}

/// One deterministic mixed op against `taxonomy`, cycling through all
/// six kinds.
fn mixed_op(taxonomy: &Taxonomy, index: usize, seed: u64) -> AnyOp {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(seed.wrapping_add(index as u64));
    let object = taxonomy.sample_object(&mut rng);
    let scene = encoder
        .encode_scene(&Scene::single(object.clone()))
        .expect("encodable");
    match index % 6 {
        0 => AnyOp::Rep1(FactorizeRep1 { scene }),
        1 => AnyOp::Rep2(FactorizeRep2 { scene }),
        2 => {
            let other = taxonomy.sample_object(&mut rng);
            AnyOp::Rep3(FactorizeRep3 {
                scene: encoder
                    .encode_scene(&Scene::new(vec![object, other]))
                    .expect("encodable"),
            })
        }
        3 => AnyOp::Partial(PartialDecode {
            scene,
            classes: vec![0],
        }),
        4 => AnyOp::Membership(MembershipProbe {
            scene,
            items: vec![(0, object.assignments()[0].clone().expect("class 0 present"))],
            absent: vec![],
        }),
        _ => AnyOp::Encode(EncodeScene {
            scene: Scene::single(object),
        }),
    }
}

/// The full workload: client → ordered `(model, op)` pairs, mixing both
/// models within every client's stream.
fn workload(alpha: &Taxonomy, beta: &Taxonomy) -> Vec<Vec<(String, AnyOp)>> {
    (0..CLIENTS)
        .map(|client| {
            (0..OPS_PER_CLIENT)
                .map(|i| {
                    let (model, taxonomy) = if (client + i) % 2 == 0 {
                        ("alpha", alpha)
                    } else {
                        ("beta", beta)
                    };
                    let seed = (client as u64) * 1_000 + 7;
                    (model.to_owned(), mixed_op(taxonomy, i, seed))
                })
                .collect()
        })
        .collect()
}

#[test]
fn loopback_responses_match_direct_execute_batch() {
    let registry = Arc::new(ModelRegistry::new());
    registry.install(
        "alpha",
        ModelState::new(build_taxonomy(101), EngineConfig::default()).expect("valid model"),
    );
    registry.install(
        "beta",
        ModelState::new(build_taxonomy(202), EngineConfig::default()).expect("valid model"),
    );
    let alpha_handle = registry.get("alpha").expect("installed");
    let beta_handle = registry.get("beta").expect("installed");

    let streams = workload(
        alpha_handle.state().taxonomy(),
        beta_handle.state().taxonomy(),
    );

    // The reference: the same ops, in the same per-client order, run
    // directly through the registry. Per-op outputs are independent of
    // batch composition (the engine's determinism guarantee), so any
    // coalescing the server's batcher picks must reproduce these
    // exactly, bit for bit.
    let expected: Vec<Vec<AnyOutput>> = streams
        .iter()
        .map(|stream| {
            let ops: Vec<(ModelId, AnyOp)> = stream
                .iter()
                .map(|(model, op)| (ModelId::new(model), op.clone()))
                .collect();
            registry
                .execute_batch(&ops)
                .into_iter()
                .map(|result| result.expect("direct execution succeeds"))
                .collect()
        })
        .collect();

    let initial_threads = rayon::current_num_threads();
    for threads in [1usize, 2, 4] {
        rayon::configure_pool(threads);
        let server = Server::start(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                batcher: BatcherConfig {
                    max_batch: 16,
                    ..BatcherConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.local_addr();

        let received: Vec<Vec<AnyOutput>> = thread::scope(|scope| {
            let workers: Vec<_> = streams
                .iter()
                .map(|stream| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("client connects");
                        stream
                            .iter()
                            .map(|(model, op)| {
                                client.run(model, op).expect("op succeeds over loopback")
                            })
                            .collect::<Vec<AnyOutput>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("client thread completes"))
                .collect()
        });

        assert_eq!(
            received, expected,
            "loopback responses diverged from direct execute_batch at {threads} lanes"
        );

        let stats = server.stats();
        let total = (CLIENTS * OPS_PER_CLIENT) as u64;
        assert_eq!(stats.requests_received, total);
        assert_eq!(stats.responses_sent, total);
        assert_eq!(stats.protocol_errors, 0);
        assert!(
            stats.batches_dispatched >= 1 && stats.batches_dispatched <= total,
            "batches dispatched out of range: {}",
            stats.batches_dispatched
        );
        server.shutdown();
        let after = server.stats();
        assert_eq!(
            after.connections_accepted, after.connections_closed,
            "every accepted connection must be closed after shutdown"
        );
    }
    rayon::configure_pool(initial_threads);
}

/// The pipelined client path coalesces: a burst of ops on one
/// connection comes back in op order, bit-identical to direct
/// execution, and the batcher sees batches bigger than one.
#[test]
fn pipelined_burst_matches_direct_and_coalesces() {
    let registry = Arc::new(ModelRegistry::new());
    registry.install(
        "alpha",
        ModelState::new(build_taxonomy(303), EngineConfig::default()).expect("valid model"),
    );
    let alpha_handle = registry.get("alpha").expect("installed");
    let alpha = alpha_handle.state().taxonomy();
    let ops: Vec<AnyOp> = (0..32).map(|i| mixed_op(alpha, i, 11)).collect();
    let direct: Vec<(ModelId, AnyOp)> = ops
        .iter()
        .map(|op| (ModelId::new("alpha"), op.clone()))
        .collect();
    let expected: Vec<AnyOutput> = registry
        .execute_batch(&direct)
        .into_iter()
        .map(|result| result.expect("direct execution succeeds"))
        .collect();

    let server = Server::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: 16,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let received: Vec<AnyOutput> = client
        .run_pipelined("alpha", &ops)
        .expect("burst succeeds")
        .into_iter()
        .map(|result| result.expect("op succeeds"))
        .collect();
    assert_eq!(received, expected, "pipelined burst diverged");

    let stats = server.stats();
    assert!(
        stats.batches_dispatched < ops.len() as u64,
        "a pipelined burst must coalesce (got {} batches for {} ops)",
        stats.batches_dispatched,
        ops.len()
    );
    // Histogram recording honors the metrics gate; the counter above is
    // unconditional.
    if factorhd_engine::metrics::metrics_recording() {
        assert_eq!(stats.coalesced_batch.count, stats.batches_dispatched);
        assert_eq!(stats.e2e_latency_ns.count, stats.responses_sent);
    }
    server.shutdown();
}
