//! `wire-lookup`: cheap single-object ops on the small model over
//! loopback TCP, open loop. A warm Rep-2 costs about 14 µs, so the
//! protocol, batcher and sockets dominate: this is where a batcher or
//! wire change shows, and where `core` and `hdc` barely register.

use std::time::Instant;

use factorhd_core::{Encoder, ObjectSpec, Scene, Taxonomy};
use factorhd_engine::{
    AnyOp, AnyOutput, EncodeScene, EngineError, FactorizeRep1, FactorizeRep2, MembershipProbe,
    ModelId, PartialDecode,
};
use factorhd_serve::protocol::{encode_request, encode_response, fnv1a};
use factorhd_serve::{Request, Response};
use hdc::derive_seed;
use rand::Rng;

use crate::common::{self, Report, LOOKUP_MODEL};
use crate::deck::Deck;
use crate::layers;
use crate::openloop::{Generator, Outcome};
use crate::trace::Tracer;
use crate::wire::{self, WireStream};
use crate::Args;

/// 2,000 req/s at the fixed rate. The p99 limit of the rate search is
/// 50 ms: host scheduling stalls on a small virtual machine already put
/// single-window p99s at 2,000 req/s anywhere from 3 to 30 ms, so a
/// tighter limit would measure the host, not the server's capacity knee.
const PLAN: wire::Plan = wire::Plan {
    fixed_rate: 2000.0,
    limit_ms: 50.0,
};
/// Objects in the catalog every request draws from.
pub const CATALOG: usize = 32;

/// The single-object op kinds of the lookup mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rep1,
    Rep2,
    Partial,
    Membership,
    Encode,
}

/// The lookup deck: the proportions of the repository's engine bench
/// mix (`build_ops` in `crates/bench/src/engine_bench.rs`: per eight
/// ops, four Rep-2, one Rep-3, one partial decode, one membership probe,
/// one encode), with its one multi-object Rep-3 replaced by the cheap
/// single-object Rep-1.
pub fn deck() -> Deck<Kind> {
    Deck::new(&[
        (Kind::Rep2, 4),
        (Kind::Rep1, 1),
        (Kind::Partial, 1),
        (Kind::Membership, 1),
        (Kind::Encode, 1),
    ])
}

/// The op of `kind` on catalog object `object`.
pub fn op_for(encoder: &Encoder<'_>, kind: Kind, object: &ObjectSpec, class: usize) -> AnyOp {
    let hv = || {
        encoder
            .encode_scene(&Scene::single(object.clone()))
            .expect("catalog objects encode")
    };
    match kind {
        Kind::Rep1 => AnyOp::Rep1(FactorizeRep1 { scene: hv() }),
        Kind::Rep2 => AnyOp::Rep2(FactorizeRep2 { scene: hv() }),
        Kind::Partial => AnyOp::Partial(PartialDecode {
            scene: hv(),
            classes: vec![class],
        }),
        Kind::Membership => AnyOp::Membership(MembershipProbe {
            scene: hv(),
            items: vec![(class, object.assignment(class).expect("present").clone())],
            absent: vec![],
        }),
        Kind::Encode => AnyOp::Encode(EncodeScene {
            scene: Scene::single(object.clone()),
        }),
    }
}

/// Whether `output` is the right factorization of `object` for `op`;
/// `None` for ops that are not factorizations (encodes).
pub fn answer_is_right(op: &AnyOp, output: &AnyOutput, object: &ObjectSpec) -> Option<bool> {
    Some(match (op, output) {
        (AnyOp::Rep1(_), AnyOutput::Rep1(d)) => *d.object() == object.truncated(1),
        (AnyOp::Rep2(_), AnyOutput::Rep2(d)) => d.object() == object,
        (AnyOp::Partial(p), AnyOutput::Partial(decodes)) => {
            decodes.len() == p.classes.len()
                && decodes
                    .iter()
                    .all(|d| d.path.as_ref() == object.assignment(d.class))
        }
        (AnyOp::Membership(_), AnyOutput::Membership(a)) => a.present,
        (AnyOp::Encode(_), AnyOutput::Encoded(_)) => return None,
        _ => false,
    })
}

/// A pool of distinct lookup requests (catalog object × kind) and the
/// per-id choice of pool entry.
pub struct LookupPool {
    /// `(catalog object, request)` per pool entry.
    pub entries: Vec<(usize, Request)>,
    /// The catalog.
    pub catalog: Vec<ObjectSpec>,
    kinds: Vec<Kind>,
}

impl LookupPool {
    /// Builds every catalog object × kind request for `model`.
    pub fn new(taxonomy: &Taxonomy, model: &str, seed: u64) -> Self {
        let encoder = Encoder::new(taxonomy);
        let mut rng = hdc::rng_from_seed(derive_seed(&[seed, 1]));
        let catalog: Vec<ObjectSpec> = (0..CATALOG)
            .map(|_| taxonomy.sample_object(&mut rng))
            .collect();
        let kinds = vec![
            Kind::Rep1,
            Kind::Rep2,
            Kind::Partial,
            Kind::Membership,
            Kind::Encode,
        ];
        let mut entries = Vec::new();
        for (o, object) in catalog.iter().enumerate() {
            for &kind in &kinds {
                let class = o % taxonomy.num_classes();
                entries.push((
                    o,
                    Request::Op {
                        model: model.to_owned(),
                        op: op_for(&encoder, kind, object, class),
                        deadline: None,
                    },
                ));
            }
        }
        LookupPool {
            entries,
            catalog,
            kinds,
        }
    }

    /// The pool entry of (`kind`, catalog object `object`).
    pub fn entry(&self, kind: Kind, object: usize) -> usize {
        object * self.kinds.len() + self.kinds.iter().position(|k| *k == kind).expect("pooled")
    }

    /// The op of pool entry `e`.
    pub fn op(&self, e: usize) -> &AnyOp {
        match &self.entries[e].1 {
            Request::Op { op, .. } => op,
            _ => unreachable!("the pool holds only ops"),
        }
    }

    /// Reference outputs of every pool entry, from
    /// `ModelRegistry::execute_sequential` on the serving registry.
    pub fn reference(
        &self,
        registry: &factorhd_engine::ModelRegistry,
        model: &str,
    ) -> Vec<Result<AnyOutput, EngineError>> {
        let ops: Vec<(ModelId, AnyOp)> = (0..self.entries.len())
            .map(|e| (ModelId::new(model), self.op(e).clone()))
            .collect();
        registry.execute_sequential(&ops)
    }
}

/// The lookup request stream: each id draws a deck kind and a catalog
/// object.
struct LookupStream<'a> {
    pool: &'a LookupPool,
    deck: Deck<Kind>,
    rng: rand::rngs::StdRng,
    /// Pool entry per request id.
    entries: Vec<usize>,
}

impl WireStream for LookupStream<'_> {
    fn ensure(&mut self, n: usize) {
        if n <= self.entries.len() {
            return;
        }
        // Deal whole decks so the stratification survives phase edges.
        let want = (n - self.entries.len()).div_ceil(self.deck.len()) * self.deck.len();
        for kind in self.deck.deal(want, &mut self.rng) {
            let object = self.rng.gen_range(0..CATALOG);
            self.entries.push(self.pool.entry(kind, object));
        }
    }

    fn encode(&self, id: u64) -> Vec<u8> {
        encode_request(id, &self.pool.entries[self.entries[id as usize]].1)
    }

    fn keep(&self, _id: u64) -> bool {
        false
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let out = common::out_dir()?;
    let taxonomy = common::lookup_taxonomy();
    let path = out.join("lookup.fhd");
    factorhd_engine::artifact::save_taxonomy(&path, &taxonomy).map_err(|e| e.to_string())?;
    let pool = LookupPool::new(&taxonomy, LOOKUP_MODEL, args.seed);
    // Set-up serves one op of each kind on a seed-independent object.
    let warm_pool = LookupPool::new(&taxonomy, LOOKUP_MODEL, u64::MAX);
    let warm: Vec<(&str, AnyOp)> = (0..5)
        .map(|k| (LOOKUP_MODEL, warm_pool.op(k).clone()))
        .collect();

    let served = wire::set_up(&[(LOOKUP_MODEL, &path, 2)], &warm)?;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, false);
    let mut gen = Generator::connect(served.server.local_addr(), origin)
        .map_err(|e| format!("connect: {e}"))?;
    let mut stream = LookupStream {
        pool: &pool,
        deck: deck(),
        rng: hdc::rng_from_seed(derive_seed(&[args.seed, 2])),
        entries: Vec::new(),
    };
    let mut sched_rng = hdc::rng_from_seed(derive_seed(&[args.seed, 3]));
    let mut report = Report::default();
    let state = served
        .registry
        .get(LOOKUP_MODEL)
        .map_err(|e| e.to_string())?;

    // The first half runs at the fixed rate untraced; the second is
    // traced (--trace 1) or searches for the highest rate.
    let (fixed_ids, fixed) = wire::fixed_phase(
        &mut gen,
        &mut stream,
        PLAN,
        args,
        &mut sched_rng,
        &mut report,
    )?;
    // Memory of serving the stated load; the rate search's bookkeeping
    // (one record per probe request) would otherwise dominate it.
    let rss = common::peak_rss_mib()?;
    let traced = wire::second_half(
        &mut gen,
        &mut stream,
        PLAN,
        &fixed,
        args,
        &mut tracer,
        (&served.registry, state.state()),
        &mut sched_rng,
        &mut report,
    )?;

    // Check every answer against the sequential reference.
    let reference = pool.reference(&served.registry, LOOKUP_MODEL);
    let mut tally = wire::Tally::count(&gen, fixed_ids);
    let (mut right, mut judged) = (0u64, 0u64);
    for (id, record) in gen.records().iter().enumerate() {
        if record.outcome != Outcome::Ok {
            continue;
        }
        let e = stream.entries[id];
        let expected = match &reference[e] {
            Ok(out) => out,
            Err(err) => return Err(format!("reference for pool entry {e} failed: {err}")),
        };
        let digest = fnv1a(&encode_response(
            id as u64,
            &Response::Output(expected.clone()),
        ));
        let matches = digest == record.digest;
        if !matches {
            tally.wrong += 1;
            report.mismatches.push(format!(
                "request {id} ({}) differs from execute_sequential",
                pool.op(e).kind().name()
            ));
        }
        if let Some(ok) = answer_is_right(pool.op(e), expected, &pool.catalog[pool.entries[e].0]) {
            judged += 1;
            right += u64::from(ok && matches);
        }
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
        right as f64 / judged.max(1) as f64,
        format!("{right} of {judged} factorize answers equal the encoded truth"),
    );

    if let Some(traced) = traced {
        layers::report_serve(&served.server, &mut report);
        let root = tracer.open("replay", 0, 0);
        let pairs: Vec<_> = traced
            .clone()
            .take(2000)
            .map(|id| {
                let e = stream.entries[id];
                let out = reference[e].as_ref().expect("checked above").clone();
                (id as u64, pool.entries[e].1.clone(), Response::Output(out))
            })
            .collect();
        layers::protocol_replay(&pairs, &mut tracer, root, &mut report);
        let model = ModelId::new(LOOKUP_MODEL);
        let op_of = |id: usize| (model.clone(), pool.op(stream.entries[id]).clone());
        layers::engine_replay(
            &served.registry,
            traced,
            &op_of,
            &mut tracer,
            root,
            &mut report,
        )?;
        let encoder = Encoder::new(&taxonomy);
        let scenes: Vec<Scene> = (0..200)
            .map(|i| Scene::single(pool.catalog[i % CATALOG].clone()))
            .collect();
        let rep2: Vec<_> = scenes
            .iter()
            .map(|s| encoder.encode_scene(s).expect("catalog objects encode"))
            .collect();
        layers::core_replay(
            state.state(),
            &rep2,
            &[],
            &scenes,
            &mut tracer,
            root,
            &mut report,
        );
        layers::kernel_timing(common::LOOKUP_DIM, args.seed, &mut report);
        tracer.close(root);
        report.layer(
            "engine.artifact.load_ms",
            served.load_s * 1e3,
            "median ModelRegistry::load",
        );
        report.layer(
            "engine.artifact.bytes",
            common::file_bytes(&path)? as f64,
            "lookup.fhd",
        );
        layers::not_exercised(
            &[
                "engine.registry.publishes",
                "engine.registry.publish_us",
                "core.truncated_ops",
                "learn.observe_us",
                "learn.snapshot_us",
                "learn.classify_us",
                "learn.retrain_ms",
                "learn.retrain_epochs",
            ],
            &mut report,
        );
        report.layer("trace.spans", tracer.len() as f64, "");
        tracer
            .write_jsonl(&out.join(format!("trace-wire-lookup-{}.jsonl", args.seed)))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    served.server.shutdown();
    Ok(report)
}
