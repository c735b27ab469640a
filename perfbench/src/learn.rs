//! `wire-learn-mixed`: writes beside reads on one server with two
//! tenants, open loop. A learnable CIFAR-10 model receives Classify
//! reads, Train writes and an occasional Retrain; the lookup model
//! receives Rep-2 reads. Every successful training batch auto-publishes
//! (a registry hot swap), so this workload exercises `learn`, the
//! registry's publish path and cross-tenant interference, which the
//! other two workloads never touch.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use factorhd_core::TaxonomyBuilder;
use factorhd_engine::{
    AnyOp, AnyOutput, Classify, LearnConfig, ModelId, PrototypeModel, PrototypeSnapshot, Retrain,
    Train,
};
use factorhd_neural::{CifarPipeline, CifarPipelineConfig};
use factorhd_serve::protocol::{decode_response, encode_request, encode_response, fnv1a};
use factorhd_serve::{Request, Response};
use hdc::{derive_seed, AccumHv, BipolarHv};
use rand::Rng;

use crate::common::{self, Report, CIFAR_CLASSES, CIFAR_DIM, CIFAR_MODEL, LOOKUP_MODEL};
use crate::deck::Deck;
use crate::layers;
use crate::lookup::{self, LookupPool};
use crate::openloop::{Generator, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, WireStream};
use crate::Args;

/// 1,000 req/s at the fixed rate; the rate search's p99 limit is the
/// lookup workload's, for the same reason.
const PLAN: wire::Plan = wire::Plan {
    fixed_rate: 1000.0,
    limit_ms: 50.0,
};
/// Labelled examples per class baked into the artifact.
const PRETRAIN_PER_CLASS: usize = 8;
/// Replay-buffer bound of the learnable model: a Retrain then costs the
/// same at any point of a run, so latency does not drift with run length.
const MAX_RETAINED: usize = 512;
/// Distinct feature vectors requests draw from.
const FEATURE_POOL: usize = 2048;
/// Held-out examples for the accuracy of the final snapshot.
const HELD_OUT: usize = 4000;
/// Reference states kept for reads still to be checked.
const MAX_SNAPSHOTS: usize = 4096;
/// Classes returned per Classify.
const TOP_K: usize = 3;

/// Request kinds of the mixed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Classify,
    Train,
    Lookup,
    Retrain,
}

/// No source fixes this mix, so it is the simplest one: Classify reads,
/// Train writes and Rep-2 reads on the other tenant in equal numbers,
/// and one Retrain per deck of 1,000 (about one a second at the fixed
/// rate).
fn deck() -> Deck<Kind> {
    Deck::new(&[
        (Kind::Classify, 333),
        (Kind::Train, 333),
        (Kind::Lookup, 333),
        (Kind::Retrain, 1),
    ])
}

/// One request's input.
#[derive(Debug, Clone, Copy)]
enum Desc {
    Classify { feature: usize },
    Train { feature: usize },
    Retrain,
    Lookup { entry: usize },
}

impl Desc {
    fn is_write(self) -> bool {
        matches!(self, Desc::Train { .. } | Desc::Retrain)
    }
}

/// A labelled feature encoding, stored as its sign vector (encodings
/// are a single bipolar vector, so this is lossless).
struct Feature {
    class: usize,
    hv: BipolarHv,
}

impl Feature {
    fn accum(&self) -> AccumHv {
        let mut acc = AccumHv::zeros(self.hv.dim());
        acc.add_bipolar(&self.hv, 1);
        acc
    }
}

fn draw_features(pipeline: &CifarPipeline, n: usize, seed: u64) -> Vec<Feature> {
    let mut rng = hdc::rng_from_seed(seed);
    (0..n)
        .map(|i| {
            let class = i % CIFAR_CLASSES;
            let acc = pipeline.encode_features(class, &mut rng);
            let hv = acc.sign_bipolar();
            debug_assert_eq!(
                Feature {
                    class,
                    hv: hv.clone()
                }
                .accum(),
                acc
            );
            Feature { class, hv }
        })
        .collect()
}

/// The sample id a Train request carries: unique per request.
fn sample_id(id: usize) -> u64 {
    1_000_000 + id as u64
}

fn op_of(desc: Desc, id: usize, features: &[Feature], pool: &LookupPool) -> (String, AnyOp) {
    match desc {
        Desc::Classify { feature } => (
            CIFAR_MODEL.into(),
            AnyOp::Classify(Classify {
                query: features[feature].accum(),
                top_k: TOP_K,
            }),
        ),
        Desc::Train { feature } => (
            CIFAR_MODEL.into(),
            AnyOp::Train(Train {
                class: features[feature].class,
                sample: sample_id(id),
                example: features[feature].accum(),
                retain: true,
            }),
        ),
        Desc::Retrain => (CIFAR_MODEL.into(), AnyOp::Retrain(Retrain { epochs: 1 })),
        Desc::Lookup { entry } => (LOOKUP_MODEL.into(), pool.op(entry).clone()),
    }
}

struct MixedStream<'a> {
    features: &'a [Feature],
    pool: &'a LookupPool,
    deck: Deck<Kind>,
    rng: rand::rngs::StdRng,
    descs: Vec<Desc>,
}

impl WireStream for MixedStream<'_> {
    fn ensure(&mut self, n: usize) {
        if n <= self.descs.len() {
            return;
        }
        let want = (n - self.descs.len()).div_ceil(self.deck.len()) * self.deck.len();
        for kind in self.deck.deal(want, &mut self.rng) {
            let feature = self.rng.gen_range(0..self.features.len());
            self.descs.push(match kind {
                Kind::Classify => Desc::Classify { feature },
                Kind::Train => Desc::Train { feature },
                Kind::Retrain => Desc::Retrain,
                Kind::Lookup => Desc::Lookup {
                    entry: self
                        .pool
                        .entry(lookup::Kind::Rep2, self.rng.gen_range(0..lookup::CATALOG)),
                },
            });
        }
    }

    fn encode(&self, id: u64) -> Vec<u8> {
        let (model, op) = op_of(
            self.descs[id as usize],
            id as usize,
            self.features,
            self.pool,
        );
        encode_request(
            id,
            &Request::Op {
                model,
                op,
                deadline: None,
            },
        )
    }

    fn keep(&self, id: u64) -> bool {
        self.descs[id as usize].is_write()
    }
}

/// Builds the learnable model's artifact: a CIFAR-10 prototype model
/// pretrained on a few examples per class (seed-independent).
fn write_cifar_artifact(pipeline: &CifarPipeline, path: &std::path::Path) -> Result<(), String> {
    let taxonomy = TaxonomyBuilder::new(CIFAR_DIM)
        .seed(0xC1FA_0010)
        .class("image", &[CIFAR_CLASSES])
        .build()
        .map_err(|e| e.to_string())?;
    let config = LearnConfig {
        max_retained: MAX_RETAINED,
        ..LearnConfig::new(CIFAR_CLASSES, CIFAR_DIM)
    };
    let mut model = PrototypeModel::new(config).map_err(|e| e.to_string())?;
    let pretrain = draw_features(pipeline, PRETRAIN_PER_CLASS * CIFAR_CLASSES, 0x5EED_0001);
    for (i, f) in pretrain.iter().enumerate() {
        model
            .observe(f.class, i as u64, &f.accum(), true)
            .map_err(|e| e.to_string())?;
    }
    factorhd_engine::artifact::save_model(path, &taxonomy, Some(&model)).map_err(|e| e.to_string())
}

/// The sequential reference for the learnable tenant: the loaded model
/// replayed write by write in applied order, keeping the snapshot after
/// every write that a later read may still have observed.
struct Reference {
    model: PrototypeModel,
    /// Writes applied so far.
    applied: usize,
    /// `(writes applied, snapshot)` for every state a pending read may
    /// have seen, oldest first.
    snapshots: VecDeque<(usize, PrototypeSnapshot)>,
    tracer_spans: Vec<(&'static str, Duration)>,
    /// Epochs each replayed Retrain ran.
    retrain_epochs: Vec<u32>,
}

impl Reference {
    fn new(model: PrototypeModel) -> Result<Self, String> {
        let first = model.snapshot().map_err(|e| e.to_string())?;
        Ok(Reference {
            model,
            applied: 0,
            snapshots: VecDeque::from([(0, first)]),
            tracer_spans: Vec::new(),
            retrain_epochs: Vec::new(),
        })
    }

    /// Applies one write; returns its reference output.
    fn apply(&mut self, op: &AnyOp) -> Result<AnyOutput, String> {
        let start = Instant::now();
        let out = match op {
            AnyOp::Train(t) => AnyOutput::Trained(
                self.model
                    .observe(t.class, t.sample, &t.example, t.retain)
                    .map_err(|e| e.to_string())?,
            ),
            AnyOp::Retrain(r) => {
                let report = self.model.retrain(r.epochs);
                self.retrain_epochs.push(report.epochs_run);
                AnyOutput::Retrained(report)
            }
            other => return Err(format!("{} is not a write", other.kind().name())),
        };
        let name = if matches!(op, AnyOp::Train(_)) {
            "observe"
        } else {
            "retrain"
        };
        self.tracer_spans.push((name, start.elapsed()));
        let start = Instant::now();
        let snapshot = self.model.snapshot().map_err(|e| e.to_string())?;
        self.tracer_spans.push(("snapshot", start.elapsed()));
        self.applied += 1;
        self.snapshots.push_back((self.applied, snapshot));
        if self.snapshots.len() > MAX_SNAPSHOTS {
            self.snapshots.pop_front();
        }
        Ok(out)
    }

    /// Forgets snapshots older than `k` writes.
    fn forget_before(&mut self, k: usize) {
        while self.snapshots.front().is_some_and(|(n, _)| *n < k) {
            self.snapshots.pop_front();
        }
    }
}

/// Where a write sits in the order the engine applied writes. A Train
/// ack carries the epoch counter and the running example count it saw;
/// a Retrain report, the epoch counter after its epochs. Writes sorted by
/// this key are in the order they were applied, which need not be send
/// order: a batch runs its Train and Retrain tasks concurrently.
type WriteKey = (u64, u8, u64);

/// The writes that may have been applied (all but refusals), in the
/// order their responses claim, each with its decoded output when one
/// came back. A write with no output is placed after every write sent
/// before it.
fn write_order(
    descs: &[Desc],
    records: &[crate::openloop::Record],
) -> Result<Vec<(usize, Option<AnyOutput>)>, String> {
    let mut keyed: Vec<(WriteKey, usize, Option<AnyOutput>)> = Vec::new();
    let mut last: WriteKey = (0, 0, 0);
    for (id, record) in records.iter().enumerate() {
        if !descs[id].is_write() || record.outcome == Outcome::Refused {
            continue;
        }
        let output = if record.outcome == Outcome::Ok {
            let payload = record
                .kept
                .as_deref()
                .ok_or("write response was not kept")?;
            match decode_response(payload)
                .map_err(|_| "undecodable write response")?
                .1
            {
                Response::Output(out) => Some(out),
                _ => return Err(format!("request {id}: write answered without an output")),
            }
        } else {
            None
        };
        let key = match &output {
            Some(AnyOutput::Trained(ack)) => (ack.epoch, 0, ack.examples),
            Some(AnyOutput::Retrained(r)) => {
                (r.epoch.saturating_sub(u64::from(r.epochs_run)), 1, 0)
            }
            _ => last,
        };
        last = last.max(key);
        keyed.push((key, id, output));
    }
    keyed.sort_by_key(|(key, id, _)| (*key, *id));
    Ok(keyed.into_iter().map(|(_, id, out)| (id, out)).collect())
}

/// The learnable tenant's writes, replayed in the order they claim.
struct Writes {
    order: Vec<(usize, Option<AnyOutput>)>,
    /// Writes of `order` replayed so far.
    next: usize,
}

impl Writes {
    /// Replays the writes next in order while they were sent before
    /// `bound`, checking each output against the replay's. Writes after
    /// the first one sent at or past `bound` ran in the batch of a read
    /// sent at `bound` or later, so that read saw none of them.
    fn replay_before(
        &mut self,
        bound: usize,
        op_of: &dyn Fn(usize) -> AnyOp,
        reference: &mut Reference,
        tally: &mut wire::Tally,
        report: &mut Report,
    ) -> Result<(), String> {
        while let Some((id, got)) = self.order.get(self.next).filter(|(id, _)| *id < bound) {
            self.next += 1;
            let op = op_of(*id);
            let expected = reference.apply(&op)?;
            if got.as_ref().is_some_and(|got| *got != expected) {
                tally.wrong += 1;
                report.mismatches.push(format!(
                    "request {id}: {} differs from the replay",
                    op.kind().name()
                ));
            }
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let out = common::out_dir()?;
    let pipeline = CifarPipeline::new(CifarPipelineConfig {
        dim: CIFAR_DIM,
        samples_per_class: 16,
        ..CifarPipelineConfig::cifar10()
    })
    .map_err(|e| e.to_string())?;
    let cifar_path = out.join("cifar10.fhd");
    write_cifar_artifact(&pipeline, &cifar_path)?;
    let lookup_taxonomy = common::lookup_taxonomy();
    let lookup_path = out.join("lookup.fhd");
    factorhd_engine::artifact::save_taxonomy(&lookup_path, &lookup_taxonomy)
        .map_err(|e| e.to_string())?;

    let features = draw_features(&pipeline, FEATURE_POOL, derive_seed(&[args.seed, 4]));
    let held_out = draw_features(&pipeline, HELD_OUT, derive_seed(&[args.seed, 5]));
    let pool = LookupPool::new(&lookup_taxonomy, LOOKUP_MODEL, args.seed);

    // Set-up serves one op of each kind: the writes are fixed and
    // replayed into the reference below.
    let warm_features = draw_features(&pipeline, CIFAR_CLASSES, 0x5EED_0002);
    let warm_writes = [
        AnyOp::Train(Train {
            class: warm_features[0].class,
            sample: 1,
            example: warm_features[0].accum(),
            retain: true,
        }),
        AnyOp::Retrain(Retrain { epochs: 1 }),
    ];
    let mut warm: Vec<(&str, AnyOp)> = vec![(
        CIFAR_MODEL,
        AnyOp::Classify(Classify {
            query: warm_features[1].accum(),
            top_k: TOP_K,
        }),
    )];
    warm.extend(warm_writes.iter().map(|op| (CIFAR_MODEL, op.clone())));
    warm.push((
        LOOKUP_MODEL,
        LookupPool::new(&lookup_taxonomy, LOOKUP_MODEL, u64::MAX)
            .op(1)
            .clone(),
    ));
    let served = wire::set_up(
        &[
            (CIFAR_MODEL, &cifar_path, 2),
            (LOOKUP_MODEL, &lookup_path, 2),
        ],
        &warm,
    )?;
    let cifar = || served.registry.get(CIFAR_MODEL).map_err(|e| e.to_string());

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, false);
    let mut gen = Generator::connect(served.server.local_addr(), origin)
        .map_err(|e| format!("connect: {e}"))?;
    let mut stream = MixedStream {
        features: &features,
        pool: &pool,
        deck: deck(),
        rng: hdc::rng_from_seed(derive_seed(&[args.seed, 2])),
        descs: Vec::new(),
    };
    let mut sched_rng = hdc::rng_from_seed(derive_seed(&[args.seed, 3]));
    let mut report = Report::default();

    let (fixed_ids, fixed) = wire::fixed_phase(
        &mut gen,
        &mut stream,
        PLAN,
        args,
        &mut sched_rng,
        &mut report,
    )?;
    let fixed_end = fixed_ids.end;
    let rss = common::peak_rss_mib()?;
    // Every fixed-phase write has been answered (or the phase drained):
    // the published snapshot now is the fixed phase's final model.
    let live = cifar()?;
    let live_snapshot = live.state().prototypes().ok_or("cifar10 has no snapshot")?;
    let live_predictions: Vec<_> = held_out
        .iter()
        .map(|f| {
            live_snapshot
                .classify(&f.accum(), 1)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let generation = cifar()?.generation();
    let lookup_state = served
        .registry
        .get(LOOKUP_MODEL)
        .map_err(|e| e.to_string())?;
    let traced = wire::second_half(
        &mut gen,
        &mut stream,
        PLAN,
        &fixed,
        args,
        &mut tracer,
        (&served.registry, lookup_state.state()),
        &mut sched_rng,
        &mut report,
    )?;
    if traced.is_some() {
        report.layer(
            "engine.registry.publishes",
            (cifar()?.generation() - generation) as f64,
            "cifar10 generations during the traced phase",
        );
    }

    // --- Check every answer. ---
    let mut tally = wire::Tally::count(&gen, fixed_ids);
    let lookup_reference = pool.reference(&served.registry, LOOKUP_MODEL);
    let loaded = factorhd_engine::artifact::load_model(&cifar_path)
        .map_err(|e| e.to_string())?
        .1
        .ok_or("artifact lost its prototypes")?;
    let mut reference = Reference::new(loaded)?;
    for op in &warm_writes {
        reference.apply(op)?;
    }
    reference.forget_before(reference.applied);
    let mut writes = Writes {
        order: write_order(&stream.descs, gen.records())?,
        next: 0,
    };
    let write_op = |id: usize| op_of(stream.descs[id], id, &features, &pool).1;
    let mut oldest = reference.applied;
    let mut fixed_snapshot = None;
    let mut classify_us = Vec::new();
    for (id, record) in gen.records().iter().enumerate() {
        if id == fixed_end {
            writes.replay_before(
                fixed_end,
                &write_op,
                &mut reference,
                &mut tally,
                &mut report,
            )?;
            fixed_snapshot = Some(reference.model.snapshot().map_err(|e| e.to_string())?);
        }
        match stream.descs[id] {
            Desc::Lookup { entry } if record.outcome == Outcome::Ok => {
                let expected = lookup_reference[entry]
                    .as_ref()
                    .map_err(|e| e.to_string())?;
                let digest = fnv1a(&encode_response(
                    id as u64,
                    &Response::Output(expected.clone()),
                ));
                if digest != record.digest {
                    tally.wrong += 1;
                    report.mismatches.push(format!(
                        "request {id}: Rep2 differs from execute_sequential"
                    ));
                }
            }
            Desc::Classify { feature } if record.outcome == Outcome::Ok => {
                // The read saw the state after some prefix of the writes
                // in applied order, all sent before it, and no older state
                // than the read before.
                writes.replay_before(id, &write_op, &mut reference, &mut tally, &mut report)?;
                let query = features[feature].accum();
                let mut matched = None;
                for (k, snapshot) in &reference.snapshots {
                    if *k < oldest {
                        continue;
                    }
                    let start = Instant::now();
                    let expected = snapshot
                        .classify(&query, TOP_K)
                        .map_err(|e| e.to_string())?;
                    classify_us.push(start.elapsed().as_secs_f64() * 1e6);
                    let payload = encode_response(
                        id as u64,
                        &Response::Output(AnyOutput::Classified(expected)),
                    );
                    if fnv1a(&payload) == record.digest {
                        matched = Some(*k);
                        break;
                    }
                }
                match matched {
                    Some(k) => {
                        oldest = k;
                        reference.forget_before(k);
                    }
                    None => {
                        tally.wrong += 1;
                        report
                            .mismatches
                            .push(format!("request {id}: Classify matches no published state"));
                    }
                }
            }
            _ => {}
        }
    }
    writes.replay_before(
        usize::MAX,
        &write_op,
        &mut reference,
        &mut tally,
        &mut report,
    )?;
    let fixed_snapshot = match fixed_snapshot {
        Some(s) => s,
        None => reference.model.snapshot().map_err(|e| e.to_string())?,
    };
    let mut held_right = 0usize;
    for (f, live) in held_out.iter().zip(&live_predictions) {
        let expected = fixed_snapshot
            .classify(&f.accum(), 1)
            .map_err(|e| e.to_string())?;
        if expected != *live {
            tally.wrong += 1;
            report.mismatches.push(
                "snapshot published after the fixed-rate phase differs from the replay".into(),
            );
            break;
        }
        held_right += usize::from(live.hits[0].class == f.class);
    }

    report.correct = tally.wrong == 0;
    report.attempted = tally.attempted;
    report.failed = tally.failed();
    report.e2e(
        "setup_s",
        served.setup_s,
        format!("median of {}", common::SETUPS),
    );
    report.e2e("peak_rss_mb", rss, "VmHWM after the fixed-rate phase");
    report.e2e(
        "success_frac",
        1.0 - tally.failed() as f64 / tally.attempted as f64,
        format!(
            "{} attempted, {} errors, {} refused at the fixed rate, {} wrong",
            tally.attempted, tally.errors, tally.fixed_refused, tally.wrong
        ),
    );
    report.e2e(
        "accuracy",
        held_right as f64 / HELD_OUT as f64,
        format!(
            "held-out accuracy of the snapshot published after the fixed-rate phase (n={HELD_OUT})"
        ),
    );

    if let Some(traced) = traced {
        layers::report_serve(&served.server, &mut report);
        let root = tracer.open("replay", 0, 0);
        let snapshot = cifar()?;
        let snapshot = snapshot.state().prototypes().ok_or("no snapshot")?;
        let pairs: Vec<(u64, Request, Response)> = traced
            .clone()
            .take(2000)
            .filter_map(|id| {
                let (model, op) = op_of(stream.descs[id], id, &features, &pool);
                let output = match (&op, stream.descs[id]) {
                    (AnyOp::Classify(c), _) => {
                        AnyOutput::Classified(snapshot.classify(&c.query, TOP_K).ok()?)
                    }
                    (_, Desc::Lookup { entry }) => lookup_reference[entry].as_ref().ok()?.clone(),
                    _ => match decode_response(gen.records()[id].kept.as_deref()?).ok()?.1 {
                        Response::Output(out) => out,
                        _ => return None,
                    },
                };
                Some((
                    id as u64,
                    Request::Op {
                        model,
                        op,
                        deadline: None,
                    },
                    Response::Output(output),
                ))
            })
            .collect();
        layers::protocol_replay(&pairs, &mut tracer, root, &mut report);
        // Replayed Trains carry fresh sample ids, off the run's own.
        let replay_op = |id: usize| {
            let (model, op) = op_of(stream.descs[id], id + 10_000_000, &features, &pool);
            (ModelId::new(model), op)
        };
        layers::engine_replay(
            &served.registry,
            traced,
            &replay_op,
            &mut tracer,
            root,
            &mut report,
        )?;
        let mut publish_us = Vec::new();
        for i in 0..200 {
            let us = tracer.time("engine.registry.publish", i, root, || {
                let start = Instant::now();
                served
                    .registry
                    .publish_prototypes(CIFAR_MODEL)
                    .map(|_| start.elapsed())
            });
            publish_us.push(us.map_err(|e| e.to_string())?.as_secs_f64() * 1e6);
        }
        report.layer(
            "engine.registry.publish_us",
            stats::median(&publish_us).unwrap_or(0.0),
            "median of 200 publishes",
        );
        report.layer(
            "engine.artifact.load_ms",
            served.load_s * 1e3,
            "median ModelRegistry::load of cifar10",
        );
        report.layer(
            "engine.artifact.bytes",
            common::file_bytes(&cifar_path)? as f64,
            "cifar10.fhd",
        );
        let rep2: Vec<AccumHv> = (0..200)
            .filter_map(
                |i| match pool.op(pool.entry(lookup::Kind::Rep2, i % lookup::CATALOG)) {
                    AnyOp::Rep2(op) => Some(op.scene.clone()),
                    _ => None,
                },
            )
            .collect();
        let scenes: Vec<_> = (0..200)
            .map(|i| factorhd_core::Scene::single(pool.catalog[i % lookup::CATALOG].clone()))
            .collect();
        layers::core_replay(
            lookup_state.state(),
            &rep2,
            &[],
            &scenes,
            &mut tracer,
            root,
            &mut report,
        );
        layers::kernel_timing(common::LOOKUP_DIM, args.seed, &mut report);
        tracer.close(root);
        let pick = |name: &str| -> Vec<f64> {
            reference
                .tracer_spans
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, d)| d.as_secs_f64() * 1e6)
                .collect()
        };
        report.layer(
            "learn.observe_us",
            stats::median(&pick("observe")).unwrap_or(0.0),
            "median PrototypeModel::observe in the replay",
        );
        report.layer(
            "learn.snapshot_us",
            stats::median(&pick("snapshot")).unwrap_or(0.0),
            "median PrototypeModel::snapshot in the replay",
        );
        report.layer(
            "learn.classify_us",
            stats::median(&classify_us).unwrap_or(0.0),
            "median PrototypeSnapshot::classify in the check",
        );
        let retrains = pick("retrain");
        report.layer(
            "learn.retrain_ms",
            stats::mean(&retrains) / 1e3,
            format!("mean of {} replayed retrains", retrains.len()),
        );
        let epochs: Vec<f64> = reference
            .retrain_epochs
            .iter()
            .map(|&e| f64::from(e))
            .collect();
        report.layer(
            "learn.retrain_epochs",
            stats::mean(&epochs),
            format!("mean epochs run by {} replayed retrains", epochs.len()),
        );
        report.layer(
            "core.truncated_ops",
            0.0,
            "layer not exercised by this workload",
        );
        report.layer("trace.spans", tracer.len() as f64, "");
        tracer
            .write_jsonl(&out.join(format!("trace-wire-learn-mixed-{}.jsonl", args.seed)))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    served.server.shutdown();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::Record;
    use factorhd_engine::{RetrainReport, TrainAck};

    fn answered(id: u64, outcome: Outcome, output: Option<AnyOutput>) -> Record {
        Record {
            due_ns: 0,
            sent_ns: 0,
            received_ns: Some(1),
            outcome,
            digest: 0,
            kept: output.map(|out| encode_response(id, &Response::Output(out))),
        }
    }

    fn ack(epoch: u64, examples: u64) -> Option<AnyOutput> {
        Some(AnyOutput::Trained(TrainAck {
            class: 0,
            examples,
            retained: examples,
            epoch,
        }))
    }

    #[test]
    fn writes_are_replayed_in_the_order_their_responses_claim() {
        let train = Desc::Train { feature: 0 };
        let descs = [
            train,
            Desc::Retrain,
            train,
            Desc::Classify { feature: 0 },
            train,
            train,
            train,
        ];
        let report = RetrainReport {
            epochs_requested: 1,
            epochs_run: 1,
            errors_per_epoch: vec![0],
            retained: 2,
            epoch: 6,
        };
        let records = [
            // Sent first, but applied after the Retrain it shared a
            // batch with, and after the Train sent third.
            answered(0, Outcome::Ok, ack(6, 12)),
            answered(1, Outcome::Ok, Some(AnyOutput::Retrained(report))),
            answered(2, Outcome::Ok, ack(5, 11)),
            answered(3, Outcome::Ok, None),
            // Refused: never applied.
            answered(4, Outcome::Refused, None),
            // No answer: placed after every write sent before it.
            answered(5, Outcome::Missing, None),
            answered(6, Outcome::Ok, ack(6, 13)),
        ];
        let order: Vec<usize> = write_order(&descs, &records)
            .expect("decodable")
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(order, vec![2, 1, 0, 5, 6]);
    }

    #[test]
    fn the_learn_deck_holds_each_kind_in_its_stated_number() {
        let cards = deck().deal(2000, &mut hdc::rng_from_seed(1));
        for block in cards.chunks(1000) {
            let count = |k: Kind| block.iter().filter(|&&c| c == k).count();
            assert_eq!(count(Kind::Classify), 333);
            assert_eq!(count(Kind::Train), 333);
            assert_eq!(count(Kind::Lookup), 333);
            assert_eq!(count(Kind::Retrain), 1);
        }
    }
}
