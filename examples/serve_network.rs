//! The network front end, end to end on loopback: start a [`Server`]
//! over a two-model registry, run typed ops through a [`Client`] —
//! one-at-a-time and as a pipelined burst the batcher
//! coalesces — hot-swap a model under live traffic, read the serving
//! telemetry over the wire, and shut down cleanly.
//!
//! ```sh
//! cargo run --release --example serve_network
//! ```

use factorhd::prelude::*;
use std::sync::Arc;

fn zoo_taxonomy(seed: u64) -> Result<Taxonomy, FactorHdError> {
    TaxonomyBuilder::new(2048)
        .seed(seed)
        .class("animal", &[12, 4])
        .class("color", &[8])
        .build()
}

/// `n` single-object Rep-2 factorizations against `taxonomy`.
fn rep2_ops(taxonomy: &Taxonomy, n: usize, seed: u64) -> Result<Vec<AnyOp>, FactorHdError> {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(seed);
    (0..n)
        .map(|_| {
            let object = taxonomy.sample_object(&mut rng);
            Ok(AnyOp::Rep2(FactorizeRep2 {
                scene: encoder.encode_scene(&Scene::single(object))?,
            }))
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two models behind one registry, served on an OS-picked
    //    loopback port.
    let registry = Arc::new(ModelRegistry::new());
    registry.install(
        "zoo",
        ModelState::new(zoo_taxonomy(7)?, EngineConfig::default())?,
    );
    registry.install(
        "aquarium",
        ModelState::new(zoo_taxonomy(8)?, EngineConfig::default())?,
    );
    let server = Server::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )?;
    println!("serving {:?} on {}", registry.ids(), server.local_addr());

    // 2. A client runs ops one at a time — each one a full wire round
    //    trip through the batcher.
    let mut client = Client::connect(server.local_addr())?;
    client.ping()?;
    let zoo = registry.get("zoo")?;
    let ops = rep2_ops(zoo.state().taxonomy(), 12, 42)?;
    for (i, op) in ops.iter().take(3).enumerate() {
        let output = client.run("zoo", op)?;
        if let AnyOutput::Rep2(decoded) = output {
            println!(
                "op {i}: decoded {} (confidence {:.2})",
                decoded.object(),
                decoded.confidence()
            );
        }
    }

    // 3. The same ops as one pipelined burst: a single write carries
    //    all twelve requests, and the server's batcher
    //    coalesces them into engine batches.
    let outputs = client.run_pipelined("zoo", &ops)?;
    let ok = outputs.iter().filter(|r| r.is_ok()).count();
    println!("pipelined burst: {ok}/{} ops answered", outputs.len());

    // 4. Hot-swap the zoo model while the connection stays up; the next
    //    ops run against the new generation.
    registry.install(
        "zoo",
        ModelState::new(zoo_taxonomy(9)?, EngineConfig::default())?,
    );
    let swapped_ops = rep2_ops(registry.get("zoo")?.state().taxonomy(), 3, 43)?;
    for op in &swapped_ops {
        client.run("zoo", op)?;
    }
    println!("hot-swapped \"zoo\" under a live connection");

    // 5. Serving telemetry travels over the wire as a typed op.
    let stats = client.stats()?;
    println!(
        "server stats: {} requests, {} batches (mean coalesced {:.1}), e2e p95 {}us",
        stats.requests_received,
        stats.batches_dispatched,
        stats.requests_received as f64 / stats.batches_dispatched.max(1) as f64,
        stats.e2e_latency_ns.p95 / 1_000,
    );

    // 6. Graceful shutdown: every accepted request is answered, every
    //    connection joined.
    drop(client);
    server.shutdown();
    let final_stats = server.stats();
    assert_eq!(
        final_stats.requests_received, final_stats.responses_sent,
        "shutdown must answer everything it accepted"
    );
    println!(
        "clean shutdown: {}/{} responses delivered",
        final_stats.responses_sent, final_stats.requests_received
    );
    Ok(())
}
