//! Hot swap under retraining: clients stream `Classify` ops through
//! the network front end while a trainer retrains the prototypes
//! underneath them. Every classification must be bit-identical to the
//! output of exactly one published snapshot (old or new — never a
//! blend of two epochs), no request id may be lost, and readers must
//! keep being answered while retraining runs (they classify against an
//! immutable snapshot `Arc`, never the staging model's lock).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use factorhd_core::TaxonomyBuilder;
use factorhd_engine::{
    AnyOp, AnyOutput, Classify, EngineConfig, LearnConfig, ModelRegistry, ModelState,
    PrototypeModel, Retrain, Train,
};
use factorhd_serve::{BatcherConfig, Client, Server, ServerConfig};
use hdc::{AccumHv, BipolarHv};

const CLASSES: usize = 4;
const DIM: usize = 256;
const TRAIN_EXAMPLES: usize = 48;
const RETRAINS: u32 = 6;
const CLIENTS: usize = 3;
const READS_PER_CLIENT: usize = 40;

/// A deterministic labelled example: the class anchor with a noise
/// vector mixed in, so classes overlap enough that retraining epochs
/// actually move the prototypes.
fn example(class: usize, sample: u64) -> AccumHv {
    let mut anchor_rng = hdc::rng_from_seed(0xA11C0 + class as u64);
    let anchor = BipolarHv::random(DIM, &mut anchor_rng);
    let mut noise_rng = hdc::rng_from_seed(0x4015E + sample);
    let noise = BipolarHv::random(DIM, &mut noise_rng);
    let mut acc = AccumHv::zeros(DIM);
    acc.add_bipolar(&anchor, 1);
    acc.add_bipolar(&noise, 2);
    acc
}

/// The labelled training set, round-robin over classes.
fn training_set() -> Vec<(usize, u64, AccumHv)> {
    (0..TRAIN_EXAMPLES)
        .map(|i| (i % CLASSES, i as u64, example(i % CLASSES, i as u64)))
        .collect()
}

/// The shared query set readers classify over and over.
fn queries() -> Vec<AccumHv> {
    (0..8)
        .map(|i| example(i % CLASSES, 10_000 + i as u64))
        .collect()
}

#[test]
fn classifications_under_retrain_match_exactly_one_published_epoch() {
    let learn = LearnConfig::new(CLASSES, DIM);
    let taxonomy = TaxonomyBuilder::new(DIM)
        .class("shape", &[4])
        .build()
        .expect("valid taxonomy");
    let state = ModelState::new_learnable(taxonomy, EngineConfig::default(), learn)
        .expect("valid learnable state");

    let registry = Arc::new(ModelRegistry::new());
    registry.install("m", state);
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

    // Pre-train over the wire; each successful Train auto-publishes.
    let mut trainer = Client::connect(addr).expect("trainer connects");
    for (class, sample, hv) in training_set() {
        let ack = trainer
            .run(
                "m",
                &AnyOp::Train(Train {
                    class,
                    sample,
                    example: hv,
                    retain: true,
                }),
            )
            .expect("train succeeds");
        assert!(matches!(ack, AnyOutput::Trained(_)));
    }

    // Reference replay: the identical model trained locally, snapshotted
    // after every retrain epoch. Classification outputs are keyed by the
    // snapshot's epoch counter, so each wire response can be checked
    // against exactly the epoch it claims to come from.
    let mut reference = PrototypeModel::new(learn).expect("valid config");
    for (class, sample, hv) in training_set() {
        reference
            .observe(class, sample, &hv, true)
            .expect("observe succeeds");
    }
    let query_set = queries();
    // expected[k][q] = classification of query q at epoch k.
    let mut expected: Vec<Vec<factorhd_engine::Classification>> = Vec::new();
    let snapshot_at = |model: &PrototypeModel| {
        let snapshot = model.snapshot().expect("snapshot builds");
        query_set
            .iter()
            .map(|q| snapshot.classify(q, 2).expect("classify succeeds"))
            .collect::<Vec<_>>()
    };
    expected.push(snapshot_at(&reference));
    for _ in 0..RETRAINS {
        let report = reference.retrain(1);
        assert_eq!(report.epochs_run, 1);
        expected.push(snapshot_at(&reference));
    }

    let pretrain_responses = server.stats().responses_sent;
    let received: Vec<Vec<(usize, factorhd_engine::Classification)>> = thread::scope(|scope| {
        // Trainer: wait until reads are demonstrably mid-flight, then
        // retrain one epoch at a time (each publish hot-swaps the
        // snapshot readers resolve).
        {
            let server = &server;
            scope.spawn(move || {
                let mut trainer = Client::connect(addr).expect("trainer reconnects");
                let quarter = pretrain_responses + (CLIENTS * READS_PER_CLIENT / 4) as u64;
                let deadline = Instant::now() + Duration::from_secs(30);
                while server.stats().responses_sent < quarter {
                    if Instant::now() > deadline {
                        break;
                    }
                    thread::yield_now();
                }
                for _ in 0..RETRAINS {
                    let out = trainer
                        .run("m", &AnyOp::Retrain(Retrain { epochs: 1 }))
                        .expect("retrain succeeds");
                    assert!(matches!(out, AnyOutput::Retrained(_)));
                }
            });
        }

        let query_set = &query_set;
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_client| {
                scope.spawn(move || {
                    let mut reader = Client::connect(addr).expect("reader connects");
                    // Read at least READS_PER_CLIENT times, and on until the
                    // trainer's last epoch is published, so the reads span
                    // the whole retrain (the deadline only guards against a
                    // failed trainer; the assertions below then report it).
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let mut outputs = Vec::new();
                    let mut last_epoch = 0u64;
                    while outputs.len() < READS_PER_CLIENT
                        || (last_epoch < RETRAINS as u64 && Instant::now() < deadline)
                    {
                        let q = outputs.len() % query_set.len();
                        let out = reader
                            .run(
                                "m",
                                &AnyOp::Classify(Classify {
                                    query: query_set[q].clone(),
                                    top_k: 2,
                                }),
                            )
                            .expect("no classify may fail during a retrain");
                        match out {
                            AnyOutput::Classified(c) => {
                                last_epoch = c.epoch;
                                outputs.push((q, c));
                            }
                            other => panic!("expected classification, got {other:?}"),
                        }
                    }
                    outputs
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("reader thread completes"))
            .collect()
    });

    // Every response matches the reference output of exactly the epoch
    // it claims — a torn read (a blend of two snapshots) could not.
    let mut initial_epoch_hits = 0usize;
    let mut retrained_hits = 0usize;
    for (client, outputs) in received.iter().enumerate() {
        assert!(
            outputs.len() >= READS_PER_CLIENT,
            "client {client} lost responses"
        );
        let mut last_epoch = 0u64;
        for (i, (q, classification)) in outputs.iter().enumerate() {
            let epoch = classification.epoch;
            assert!(
                epoch <= RETRAINS as u64,
                "client {client} op {i}: epoch {epoch} was never published"
            );
            assert_eq!(
                classification, &expected[epoch as usize][*q],
                "client {client} op {i}: response is not bit-identical to epoch {epoch}"
            );
            // Sequential requests from one client never travel back in
            // time: publishes are generation-ordered.
            assert!(
                epoch >= last_epoch,
                "client {client} op {i}: epoch regressed"
            );
            last_epoch = epoch;
            if epoch == 0 {
                initial_epoch_hits += 1;
            } else {
                retrained_hits += 1;
            }
        }
    }
    assert!(
        initial_epoch_hits > 0,
        "no response came from the pre-retrain snapshot"
    );
    assert!(
        retrained_hits > 0,
        "no response came from a retrained snapshot"
    );

    // A final classify observes the last published epoch exactly.
    let mut checker = Client::connect(addr).expect("checker connects");
    let out = checker
        .run(
            "m",
            &AnyOp::Classify(Classify {
                query: query_set[0].clone(),
                top_k: 2,
            }),
        )
        .expect("final classify succeeds");
    match out {
        AnyOutput::Classified(c) => {
            assert_eq!(c.epoch, RETRAINS as u64);
            assert_eq!(c, expected[RETRAINS as usize][0]);
        }
        other => panic!("expected classification, got {other:?}"),
    }

    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.responses_sent, stats.requests_received);
    server.shutdown();
}
