//! Hot-swap under load: clients stream ops through the network front
//! end while the registry hot-swaps the model underneath them. Every
//! response must be bit-identical to the output of either the old or
//! the new generation — never an error, never a lost request-id, never
//! a blend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use factorhd_core::{Encoder, Scene, Taxonomy, TaxonomyBuilder};
use factorhd_engine::{
    AnyOp, AnyOutput, EncodeScene, EngineConfig, FactorizeRep2, ModelId, ModelRegistry, ModelState,
};
use factorhd_serve::{BatcherConfig, Client, Server, ServerConfig};

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 40;

/// Same dimension and class structure, different seed: ops built for
/// one generation stay valid (deterministically decodable) under the
/// other, but the two generations' outputs differ.
fn build_taxonomy(seed: u64) -> Taxonomy {
    TaxonomyBuilder::new(256)
        .seed(seed)
        .class("animal", &[4])
        .class("color", &[4])
        .build()
        .expect("valid taxonomy")
}

/// The per-client op stream: encodes and Rep-2 factorizations whose
/// inputs are generation-independent bytes (objects for Encode, an
/// old-generation scene vector for Rep-2 — garbage under the new
/// generation, but deterministic garbage).
fn stream_ops(taxonomy: &Taxonomy, client: usize) -> Vec<AnyOp> {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(0xC0FFEE + client as u64);
    (0..OPS_PER_CLIENT)
        .map(|i| {
            let object = taxonomy.sample_object(&mut rng);
            if i % 2 == 0 {
                AnyOp::Encode(EncodeScene {
                    scene: Scene::single(object),
                })
            } else {
                AnyOp::Rep2(FactorizeRep2 {
                    scene: encoder
                        .encode_scene(&Scene::single(object))
                        .expect("encodable"),
                })
            }
        })
        .collect()
}

/// Direct reference outputs for `ops` against one pinned model state.
fn reference(state: &Arc<ModelState>, ops: &[AnyOp]) -> Vec<AnyOutput> {
    let registry = ModelRegistry::new();
    registry.install_shared("m", Arc::clone(state));
    let batch: Vec<(ModelId, AnyOp)> = ops
        .iter()
        .map(|op| (ModelId::new("m"), op.clone()))
        .collect();
    registry
        .execute_batch(&batch)
        .into_iter()
        .map(|result| result.expect("reference execution succeeds"))
        .collect()
}

#[test]
fn responses_under_hot_swap_are_old_or_new_never_blended() {
    let old_state = Arc::new(ModelState::new(build_taxonomy(1), EngineConfig::default()).unwrap());
    let new_state = Arc::new(ModelState::new(build_taxonomy(2), EngineConfig::default()).unwrap());

    // Per-client streams are built against the OLD taxonomy; both
    // generations share its dimension and shape, so every op is
    // executable under either.
    let streams: Vec<Vec<AnyOp>> = (0..CLIENTS)
        .map(|client| stream_ops(old_state.taxonomy(), client))
        .collect();
    let expected_old: Vec<Vec<AnyOutput>> = streams
        .iter()
        .map(|ops| reference(&old_state, ops))
        .collect();
    let expected_new: Vec<Vec<AnyOutput>> = streams
        .iter()
        .map(|ops| reference(&new_state, ops))
        .collect();
    // The test is vacuous unless the generations actually disagree.
    assert_ne!(
        expected_old, expected_new,
        "generations must produce different outputs"
    );

    let registry = Arc::new(ModelRegistry::new());
    registry.install_shared("m", Arc::clone(&old_state));
    let server = Server::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            batcher: BatcherConfig {
                max_batch: 8,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();
    let swapped = Arc::new(AtomicBool::new(false));

    let received: Vec<Vec<AnyOutput>> = thread::scope(|scope| {
        // Swapper: wait until the stream is demonstrably mid-flight,
        // then install the new generation.
        {
            let registry = Arc::clone(&registry);
            let new_state = Arc::clone(&new_state);
            let swapped = Arc::clone(&swapped);
            let server = &server;
            scope.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(30);
                while server.stats().responses_sent < (CLIENTS * OPS_PER_CLIENT / 4) as u64 {
                    if Instant::now() > deadline {
                        break;
                    }
                    thread::yield_now();
                }
                registry.install_shared("m", new_state);
                swapped.store(true, Ordering::SeqCst);
            });
        }

        let swapped = &swapped;
        let workers: Vec<_> = streams
            .iter()
            .map(|ops| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    ops.iter()
                        .enumerate()
                        .map(|(i, op)| {
                            // The second half waits for the swap, so every
                            // client sends ops on both sides of it.
                            if i == OPS_PER_CLIENT / 2 {
                                while !swapped.load(Ordering::SeqCst) {
                                    thread::yield_now();
                                }
                            }
                            client
                                .run("m", op)
                                .expect("no response may be an error during a hot swap")
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
    assert!(swapped.load(Ordering::SeqCst), "swap must have happened");

    // Every response is bit-identical to exactly the old or the new
    // generation's output for that op — and once a client has seen the
    // new generation, the registry never serves it the old one again
    // (install is atomic; in-flight batches finish on the model they
    // resolved).
    let mut old_hits = 0usize;
    let mut new_hits = 0usize;
    for (client, outputs) in received.iter().enumerate() {
        assert_eq!(
            outputs.len(),
            OPS_PER_CLIENT,
            "client {client} lost responses"
        );
        for (i, output) in outputs.iter().enumerate() {
            let from_old = output == &expected_old[client][i];
            let from_new = output == &expected_new[client][i];
            assert!(
                from_old || from_new,
                "client {client} op {i}: response matches neither generation"
            );
            if from_old {
                old_hits += 1;
            } else {
                new_hits += 1;
            }
        }
    }
    // The swap happened mid-stream, so both generations must appear
    // across the workload as a whole.
    assert!(old_hits > 0, "no response came from the old generation");
    assert!(new_hits > 0, "no response came from the new generation");

    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.requests_received, (CLIENTS * OPS_PER_CLIENT) as u64);
    assert_eq!(stats.responses_sent, (CLIENTS * OPS_PER_CLIENT) as u64);
    server.shutdown();
}
