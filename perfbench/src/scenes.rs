//! `batch-scenes-1e9`: a closed loop of direct
//! `ModelRegistry::execute_batch` calls, 64 ops each, on the paper-scale
//! model (3 classes × [100, 10] levels, 10^9 leaf combinations, D =
//! 4096). Every object is drawn fresh, so the Rep-3 reconstruction memo
//! mostly misses. The factorizer and the scans take nearly all the time
//! and `serve` is bypassed: a scan or factorizer change shows here, a
//! batcher change should read "no change".

use std::time::{Duration, Instant};

use factorhd_core::{Encoder, Scene, Taxonomy};
use factorhd_engine::{AnyOp, AnyOutput, FactorizeRep2, FactorizeRep3, ModelId, ModelRegistry};
use factorhd_serve::protocol::{encode_response, fnv1a};
use factorhd_serve::{Request, Response};
use hdc::derive_seed;
use rand::rngs::StdRng;

use crate::common::{self, Report, SCENES_MODEL};
use crate::deck::Deck;
use crate::layers;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

/// Ops per `execute_batch` call.
const BATCH: usize = 64;

/// Op shapes of the scene mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Rep-3 over a scene of this many distinct objects.
    Scene(usize),
    /// Rep-2 over one object.
    Single,
}

/// No source fixes this mix, so it is the simplest one: the two op
/// kinds, Rep-3 and Rep-2, in equal numbers, and the Rep-3 scenes split
/// equally between 2 and 3 objects. Every 64-op batch is 16 decks:
/// 16 / 16 / 32.
fn deck() -> Deck<Kind> {
    Deck::new(&[(Kind::Scene(3), 1), (Kind::Scene(2), 1), (Kind::Single, 2)])
}

/// One op's symbolic input: its ground truth.
struct Truth {
    kind: Kind,
    scene: Scene,
}

fn draw(taxonomy: &Taxonomy, kind: Kind, rng: &mut StdRng) -> Truth {
    let n = match kind {
        Kind::Scene(n) => n,
        Kind::Single => 1,
    };
    Truth {
        kind,
        scene: taxonomy.sample_scene(n, true, rng),
    }
}

fn op_of(encoder: &Encoder<'_>, truth: &Truth) -> AnyOp {
    let scene = encoder
        .encode_scene(&truth.scene)
        .expect("sampled scenes encode");
    match truth.kind {
        Kind::Scene(_) => AnyOp::Rep3(FactorizeRep3 { scene }),
        Kind::Single => AnyOp::Rep2(FactorizeRep2 { scene }),
    }
}

fn is_right(truth: &Truth, output: &AnyOutput) -> bool {
    match output {
        AnyOutput::Rep3(decoded) => decoded.to_scene().same_multiset(&truth.scene),
        AnyOutput::Rep2(decoded) => Some(decoded.object()) == truth.scene.objects().first(),
        _ => false,
    }
}

/// The inputs of call `index`, drawn from a stream of their own so the
/// check can regenerate them rather than keep every scene in memory
/// (which would tie `peak_rss_mb` to the throughput).
fn batch_truths(taxonomy: &Taxonomy, seed: u64, index: usize) -> Vec<Truth> {
    let mut rng = hdc::rng_from_seed(derive_seed(&[seed, 1, index as u64]));
    deck()
        .deal(BATCH, &mut rng)
        .into_iter()
        .map(|kind| draw(taxonomy, kind, &mut rng))
        .collect()
}

fn batch_ops(encoder: &Encoder<'_>, truths: &[Truth]) -> Vec<(ModelId, AnyOp)> {
    let model = ModelId::new(SCENES_MODEL);
    truths
        .iter()
        .map(|t| (model.clone(), op_of(encoder, t)))
        .collect()
}

/// An output's canonical digest: FNV-1a of its wire encoding, which
/// carries every float as its IEEE-754 bits.
fn digest(output: &AnyOutput) -> u64 {
    fnv1a(&encode_response(0, &Response::Output(output.clone())))
}

/// One timed `execute_batch` call.
struct Batch {
    /// Digest per op, `None` where the op failed.
    digests: Vec<Option<u64>>,
    /// Answers equal to the encoded truth.
    right: u64,
    /// Rep-3 answers whose combination search was truncated.
    truncated: u64,
    took: Duration,
}

/// Runs closed-loop calls `first..` until `budget` of in-call time is
/// spent.
fn closed_loop(
    registry: &ModelRegistry,
    taxonomy: &Taxonomy,
    seed: u64,
    budget: Duration,
    first: usize,
    tracer: &mut Tracer,
    parent: usize,
) -> Vec<Batch> {
    let encoder = Encoder::new(taxonomy);
    let mut batches = Vec::new();
    let mut spent = Duration::ZERO;
    while spent < budget {
        let index = first + batches.len();
        let truths = batch_truths(taxonomy, seed, index);
        let ops = batch_ops(&encoder, &truths);
        let start = Instant::now();
        let results = registry.execute_batch(&ops);
        let end = Instant::now();
        tracer.record("engine.execute_batch", index as u64, parent, start, end);
        spent += end - start;
        let mut batch = Batch {
            digests: Vec::with_capacity(BATCH),
            right: 0,
            truncated: 0,
            took: end - start,
        };
        for (truth, result) in truths.iter().zip(&results) {
            batch.digests.push(result.as_ref().ok().map(digest));
            if let Ok(output) = result {
                batch.right += u64::from(is_right(truth, output));
                if let AnyOutput::Rep3(scene) = output {
                    batch.truncated += u64::from(scene.stats.truncated_combinations);
                }
            }
        }
        batches.push(batch);
    }
    batches
}

/// Calls per throughput window (about a second of work).
const WINDOW_BATCHES: usize = 16;

/// Ops per second of time inside `execute_batch`, per window of
/// [`WINDOW_BATCHES`] calls, summarized by the median over windows so a
/// host stall moves one window, not the figure. Falls back to the whole
/// run when it is shorter than one window.
fn ops_per_s(batches: &[Batch]) -> f64 {
    let rate = |window: &[Batch]| {
        let secs: f64 = window.iter().map(|b| b.took.as_secs_f64()).sum();
        (window.len() * BATCH) as f64 / secs
    };
    let windows: Vec<f64> = batches.chunks_exact(WINDOW_BATCHES).map(rate).collect();
    stats::median(&windows).unwrap_or_else(|| rate(batches))
}

/// Per-op latency percentiles (ms): every op's latency is the duration
/// of the `execute_batch` call that carried it.
fn per_op_latency(batches: &[Batch]) -> Result<(f64, f64, String), String> {
    let per_op: Vec<f64> = batches
        .iter()
        .flat_map(|b| std::iter::repeat_n(b.took.as_secs_f64() * 1e3, BATCH))
        .collect();
    let sorted = stats::sorted(&per_op);
    let p = |q| stats::percentile(&sorted, q).ok_or("too few ops for a percentile");
    Ok((
        p(0.5)?,
        p(0.99)?,
        format!(
            "n={} ops in {} calls; an op's latency is its call's",
            sorted.len(),
            batches.len()
        ),
    ))
}

/// Fixed set-up ops, independent of the workload seed.
fn warm_ops(taxonomy: &Taxonomy) -> Vec<(ModelId, AnyOp)> {
    let encoder = Encoder::new(taxonomy);
    let mut rng = hdc::rng_from_seed(u64::MAX);
    [Kind::Scene(2), Kind::Single]
        .into_iter()
        .map(|kind| {
            (
                ModelId::new(SCENES_MODEL),
                op_of(&encoder, &draw(taxonomy, kind, &mut rng)),
            )
        })
        .collect()
}

/// One set-up: a fresh registry loads the model through
/// `ModelRegistry::load` and runs one op of each kind. Returns the
/// registry, the set-up time and the load time (s).
fn set_up(
    path: &std::path::Path,
    warm: &[(ModelId, AnyOp)],
) -> Result<(ModelRegistry, f64, f64), String> {
    let start = Instant::now();
    let registry = ModelRegistry::new();
    registry
        .load(SCENES_MODEL, path, common::engine_config(3))
        .map_err(|e| format!("load {SCENES_MODEL}: {e}"))?;
    let load = start.elapsed().as_secs_f64();
    if registry.execute_batch(warm).iter().any(Result::is_err) {
        return Err("set-up ops failed".into());
    }
    Ok((registry, start.elapsed().as_secs_f64(), load))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let out = common::out_dir()?;
    let taxonomy = common::scenes_taxonomy();
    let path = out.join("scenes-1e9.fhd");
    factorhd_engine::artifact::save_taxonomy(&path, &taxonomy).map_err(|e| e.to_string())?;
    let warm = warm_ops(&taxonomy);

    let (registry, setup, load) = set_up(&path, &warm)?;
    let (mut setups, mut loads) = (vec![setup], vec![load]);
    let state = registry.get(SCENES_MODEL).map_err(|e| e.to_string())?;

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, false);
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    // The other set-ups are spread over the closed loop, one after each
    // equal slice of it: a set-up lasts milliseconds, and the host's
    // load shifts on a scale of a hundred, so set-ups made back to back
    // would all time one moment of it.
    let slices = common::SETUPS - 1;
    let mut batches = Vec::new();
    let mut spent = Duration::ZERO;
    for k in 1..=slices {
        let target = budget * k as u32 / slices as u32;
        let slice = closed_loop(
            &registry,
            &taxonomy,
            args.seed,
            target.saturating_sub(spent),
            batches.len(),
            &mut tracer,
            0,
        );
        spent += slice.iter().map(|b| b.took).sum::<Duration>();
        batches.extend(slice);
        let (_, setup, load) = set_up(&path, &warm)?;
        setups.push(setup);
        loads.push(load);
    }
    let rss = common::peak_rss_mib()?;
    let untraced_rate = ops_per_s(&batches);
    let mut report = Report::default();
    report.e2e(
        "setup_s",
        stats::median(&setups).expect("set up"),
        format!("median of {}", common::SETUPS),
    );
    report.e2e("peak_rss_mb", rss, "VmHWM after the closed loop");
    report.e2e(
        "ops_per_s",
        untraced_rate,
        format!(
            "{} ops in {} calls of {BATCH}; median over windows of {WINDOW_BATCHES} calls of ops per second inside execute_batch",
            batches.len() * BATCH,
            batches.len()
        ),
    );
    report.e2e(
        "max_rate_rps",
        untraced_rate,
        "stand-in, repeats ops_per_s: a closed loop's sustained rate is its completed rate",
    );
    let (p50, p99, note) = per_op_latency(&batches)?;
    println!("per-op p99 {p99:.4} ms ({note})");
    report.e2e("p50_ms", p50, note);

    let mut traced_batches = 0;
    let mut mark = None;
    if args.trace {
        tracer.set_enabled(true);
        mark = Some(layers::EngineMark::take(&registry, state.state()));
        let root = tracer.open("phase.traced", 0, 0);
        let traced = closed_loop(
            &registry,
            &taxonomy,
            args.seed,
            args.seconds - budget,
            batches.len(),
            &mut tracer,
            root,
        );
        tracer.close(root);
        let traced_rate = ops_per_s(&traced);
        report.layer(
            "trace.overhead_pct",
            (untraced_rate - traced_rate) / untraced_rate * 100.0,
            format!("traced {traced_rate:.1} ops/s vs untraced {untraced_rate:.1} ops/s"),
        );
        traced_batches = traced.len();
        batches.extend(traced);
    }

    // Check every answer against execute_sequential on the same
    // registry, two threads each replaying half the calls.
    let half = batches.len().div_ceil(2).max(1);
    let references: Vec<Vec<Option<u64>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..batches.len())
            .step_by(half)
            .map(|from| {
                let (registry, taxonomy) = (&registry, &taxonomy);
                let to = (from + half).min(batches.len());
                scope.spawn(move || {
                    let encoder = Encoder::new(taxonomy);
                    (from..to)
                        .map(|index| {
                            let ops =
                                batch_ops(&encoder, &batch_truths(taxonomy, args.seed, index));
                            registry
                                .execute_sequential(&ops)
                                .iter()
                                .map(|r| r.as_ref().ok().map(digest))
                                .collect()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread completes"))
            .collect()
    });
    let (mut errors, mut wrong) = (0u64, 0u64);
    for (index, (batch, reference)) in batches.iter().zip(&references).enumerate() {
        for (op, (got, want)) in batch.digests.iter().zip(reference).enumerate() {
            match got {
                None => errors += 1,
                Some(_) if got != want => {
                    wrong += 1;
                    report.mismatches.push(format!(
                        "call {index} op {op} differs from execute_sequential"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    let right: u64 = batches.iter().map(|b| b.right).sum();
    let truncated: u64 = batches.iter().map(|b| b.truncated).sum();
    let attempted = (batches.len() * BATCH) as u64;
    report.correct = wrong == 0;
    report.attempted = attempted;
    report.failed = errors + wrong;
    report.e2e(
        "success_frac",
        1.0 - (errors + wrong) as f64 / attempted as f64,
        format!("{attempted} ops, {errors} errors, {wrong} wrong"),
    );
    report.e2e(
        "accuracy",
        right as f64 / attempted as f64,
        format!("{right} of {attempted} answers equal the encoded truth"),
    );

    if let Some(mark) = mark {
        mark.report(&registry, state.state(), &mut report);
        let traced_us: Vec<f64> = batches[batches.len() - traced_batches..]
            .iter()
            .map(|b| b.took.as_secs_f64() * 1e6)
            .collect();
        layers::report_batch_us(&traced_us, "traced execute_batch calls", &mut report);
        report.layer(
            "engine.artifact.load_ms",
            stats::median(&loads).expect("loaded") * 1e3,
            "median ModelRegistry::load",
        );
        report.layer(
            "engine.artifact.bytes",
            common::file_bytes(&path)? as f64,
            "scenes-1e9.fhd",
        );
        report.layer(
            "core.truncated_ops",
            truncated as f64,
            format!("of {attempted} ops"),
        );
        let root = tracer.open("replay", 0, 0);
        let encoder = Encoder::new(&taxonomy);
        let ops = batch_ops(&encoder, &batch_truths(&taxonomy, args.seed, 0));
        let pairs: Vec<(u64, Request, Response)> = ops
            .iter()
            .zip(registry.execute_sequential(&ops))
            .enumerate()
            .filter_map(|(i, ((_, op), out))| {
                Some((
                    i as u64,
                    Request::Op {
                        model: SCENES_MODEL.to_owned(),
                        op: op.clone(),
                        deadline: None,
                    },
                    Response::Output(out.ok()?),
                ))
            })
            .collect();
        layers::protocol_replay(&pairs, &mut tracer, root, &mut report);
        let mut replay_rng = hdc::rng_from_seed(derive_seed(&[args.seed, 9]));
        let fresh = |kind, n: usize, rng: &mut StdRng| -> Vec<Truth> {
            (0..n).map(|_| draw(&taxonomy, kind, rng)).collect()
        };
        let singles = fresh(Kind::Single, 100, &mut replay_rng);
        let mut scenes = fresh(Kind::Scene(3), 15, &mut replay_rng);
        scenes.extend(fresh(Kind::Scene(2), 15, &mut replay_rng));
        let hv = |t: &Truth| encoder.encode_scene(&t.scene).expect("encodable");
        let rep2: Vec<_> = singles.iter().map(hv).collect();
        let rep3: Vec<_> = scenes.iter().map(hv).collect();
        let encode: Vec<Scene> = scenes.iter().map(|t| t.scene.clone()).collect();
        layers::core_replay(
            state.state(),
            &rep2,
            &rep3,
            &encode,
            &mut tracer,
            root,
            &mut report,
        );
        layers::kernel_timing(common::SCENES_DIM, args.seed, &mut report);
        tracer.close(root);
        let (_, p99, note) = per_op_latency(&batches[batches.len() - traced_batches..])?;
        report.layer("gen.p99_ms", p99, note);
        report.layer("gen.late_p99_us", 0.0, "closed loop: never late");
        report.layer("gen.sent", attempted as f64, "ops submitted");
        report.layer(
            "gen.completed",
            (attempted - errors) as f64,
            "ops completed",
        );
        layers::not_exercised(
            &[
                "serve.batch_mean",
                "serve.server_e2e_us.p50",
                "serve.server_e2e_us.p99",
                "serve.shed",
                "serve.deadline_expired",
                "serve.protocol_errors",
                "engine.registry.publishes",
                "engine.registry.publish_us",
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
            .write_jsonl(&out.join(format!("trace-batch-scenes-1e9-{}.jsonl", args.seed)))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(report)
}
