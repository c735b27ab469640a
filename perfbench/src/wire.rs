//! The parts of the two wire workloads that do not depend on the op
//! mix: set-up, the fixed-rate phase, the rate search, and request
//! accounting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use factorhd_engine::{AnyOp, ModelRegistry, ModelState};
use factorhd_serve::{Client, Server, ServerConfig};
use rand::rngs::StdRng;

use crate::common::{self, Report};
use crate::layers;
use crate::openloop::{poisson_schedule, Generator, Outcome, PhaseStats, SendSpans};
use crate::stats;
use crate::trace::Tracer;

/// A workload's request stream, addressed by request id.
pub trait WireStream: Sync {
    /// Makes ids `0..n` addressable (draws their inputs if needed).
    fn ensure(&mut self, n: usize);
    /// The request payload for `id`.
    fn encode(&self, id: u64) -> Vec<u8>;
    /// Whether the response payload of `id` must be kept for checking.
    fn keep(&self, id: u64) -> bool;
}

/// A running server plus what set-up measured.
pub struct Served {
    /// The registry the server serves.
    pub registry: Arc<ModelRegistry>,
    /// The server.
    pub server: Server,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Median `ModelRegistry::load` time of the first model (s).
    pub load_s: f64,
}

/// Sets the server up [`common::SETUPS`] times and keeps the last one:
/// load every `(name, path, n_objects)` model through
/// `ModelRegistry::load`, start a default-configured server, and serve
/// every op in `warm` once over a connection.
pub fn set_up(
    models: &[(&str, &std::path::Path, usize)],
    warm: &[(&str, AnyOp)],
) -> Result<Served, String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut kept = None;
    for _ in 0..common::SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let registry = Arc::new(ModelRegistry::new());
        for (i, (name, path, n_objects)) in models.iter().enumerate() {
            let load_start = Instant::now();
            registry
                .load(*name, path, common::engine_config(*n_objects))
                .map_err(|e| format!("load {name}: {e}"))?;
            if i == 0 {
                loads.push(load_start.elapsed().as_secs_f64());
            }
        }
        let server = Server::start(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .map_err(|e| format!("start server: {e}"))?;
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        for (model, op) in warm {
            client
                .run(model, op)
                .map_err(|e| format!("set-up {} op: {e}", op.kind().name()))?;
        }
        drop(client);
        setups.push(start.elapsed().as_secs_f64());
        kept = Some((registry, server));
    }
    let (registry, server) = kept.expect("at least one set-up");
    Ok(Served {
        registry,
        server,
        setup_s: stats::median(&setups).expect("set-ups ran"),
        load_s: stats::median(&loads).expect("loads ran"),
    })
}

/// Runs one open-loop phase at `rate` for `duration`; returns the first
/// request id of the phase and the sender's spans.
fn phase(
    gen: &mut Generator,
    stream: &mut dyn WireStream,
    rate: f64,
    duration: Duration,
    drain: Duration,
    rng: &mut StdRng,
) -> Result<(usize, SendSpans), String> {
    let schedule = poisson_schedule(rate, duration, rng);
    stream.ensure(gen.records().len() + schedule.len());
    let stream: &dyn WireStream = stream;
    gen.run_phase(
        &schedule,
        &|id| stream.encode(id),
        &|id| stream.keep(id),
        drain,
    )
    .map_err(|e| format!("open-loop phase at {rate} req/s: {e}"))
}

/// Shortest rate-search step: long enough to see a backlog grow.
const MIN_STEP: Duration = Duration::from_millis(600);
/// First-pass multiplier while looking for a failing rate: large, so
/// the climb from the fixed rate to the capacity knee takes few probes
/// and the budget goes to bisecting near the knee.
const GROW: f64 = 2.0;
/// The search stops once passing and failing rates are this close.
const RESOLUTION: f64 = 1.05;

/// One probed rate.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate.
    pub rate: f64,
    /// p99 latency (ms), non-completions counted as misses.
    pub p99_ms: f64,
    /// Requests in the step.
    pub n: usize,
    /// Whether the step met the limit.
    pub pass: bool,
}

/// What the rate search found.
#[derive(Debug, Clone)]
pub struct Search {
    /// Highest passing rate (0 if none passed).
    pub max_rate: f64,
    /// Every probe, repeats included.
    pub steps: Vec<Step>,
    /// Lowest failing rate, if one failed.
    pub fail_rate: Option<f64>,
    /// Whether the passing and failing rates ended within
    /// [`RESOLUTION`]; `false` when the budget ran out first.
    pub converged: bool,
}

impl Search {
    /// How the search ended, printed beside `max_rate_rps`.
    pub fn outcome(&self) -> String {
        let fail = self
            .fail_rate
            .map_or("none".to_owned(), |f| format!("{f:.1}"));
        if self.converged {
            format!("converged: pass {:.1} / fail {fail} req/s", self.max_rate)
        } else {
            format!(
                "UNFINISHED: budget spent with pass {:.1} / fail {fail} req/s, not within 5%",
                self.max_rate
            )
        }
    }
}

/// Finds the highest offered rate whose p99 (every request that did not
/// complete counting as a miss) meets `limit_ms`, probing rates no more
/// than 5% apart at the end. The first probe is at `start`; the search
/// then climbs or descends by [`GROW`] until it has a passing and a
/// failing rate, then bisects between them. A probe starts only if its
/// worst case — the probe, its drain and the drain after a failure —
/// fits in what is left of `budget`; a rate whose failing probe cannot
/// be repeated is left undecided, and the search ends unconverged.
fn rate_search(
    gen: &mut Generator,
    stream: &mut dyn WireStream,
    start: f64,
    limit_ms: f64,
    budget: Duration,
    rng: &mut StdRng,
) -> Result<Search, String> {
    let began = Instant::now();
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let mut steps = Vec::new();
    let converged = loop {
        let rate = match (lo, hi) {
            (None, None) => start,
            (Some(l), None) => l * GROW,
            (None, Some(h)) => h / GROW,
            (Some(l), Some(h)) if h / l > RESOLUTION => (l * h).sqrt(),
            _ => break true,
        };
        let duration = MIN_STEP.max(Duration::from_secs_f64(WINDOW as f64 / rate));
        let drain = Duration::from_secs_f64(limit_ms / 1e3 * 4.0).max(Duration::from_millis(100));
        // A failing probe is repeated once: a host stall inside one probe
        // must not end the climb, while a rate past capacity fails twice.
        let mut verdict = None;
        for attempt in 0..2 {
            if began.elapsed() + duration + drain + DRAIN > budget {
                break;
            }
            let (first, _) = phase(gen, stream, rate, duration, drain, rng)?;
            let step = PhaseStats::of(&gen.records()[first..]);
            let p99_ms = step
                .percentile_us(0.99)
                .map_or(f64::INFINITY, |us| us / 1e3);
            let pass = p99_ms <= limit_ms;
            steps.push(Step {
                rate,
                p99_ms,
                n: step.attempted,
                pass,
            });
            if pass {
                verdict = Some(true);
                break;
            }
            // Let the backlog of a failed probe clear before the next.
            gen.receive_until(first, Instant::now() + DRAIN, &|id| stream.keep(id))
                .map_err(|e| format!("draining after {rate} req/s: {e}"))?;
            if attempt == 1 {
                verdict = Some(false);
            }
        }
        match verdict {
            Some(true) => lo = Some(rate),
            Some(false) => hi = Some(rate),
            None => break false,
        }
    };
    Ok(Search {
        max_rate: lo.unwrap_or(0.0),
        steps,
        fail_rate: hi,
        converged,
    })
}

/// Request accounting over a whole run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Typed errors other than refusals, plus requests never answered.
    pub errors: u64,
    /// Refusals during the fixed-rate phase (refusals while probing
    /// past capacity are the search's signal, not failures).
    pub fixed_refused: u64,
    /// Answers that did not match their reference.
    pub wrong: u64,
}

impl Tally {
    /// Counts every request's outcome; `fixed` is the id range of the
    /// fixed-rate phase.
    pub fn count(gen: &Generator, fixed: std::ops::Range<usize>) -> Self {
        let mut t = Tally::default();
        for (i, r) in gen.records().iter().enumerate() {
            t.attempted += 1;
            match r.outcome {
                Outcome::Ok => {}
                Outcome::Refused if fixed.contains(&i) => t.fixed_refused += 1,
                Outcome::Refused => {}
                Outcome::Error | Outcome::Missing => t.errors += 1,
            }
        }
        t
    }

    /// Failed, refused (fixed phase) or wrong.
    pub fn failed(&self) -> u64 {
        self.errors + self.fixed_refused + self.wrong
    }
}

/// Requests per latency window: enough for a p99 (ten beyond it).
pub const WINDOW: usize = 1100;

/// A phase's latency, each percentile taken per window of [`WINDOW`]
/// consecutive requests (in due order) and summarized by the median over
/// windows, so one host stall moves one window rather than the figure.
/// Requests that did not complete count as missing every limit.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Median of window medians (ms).
    pub p50_ms: f64,
    /// Median of window p99s (ms).
    pub p99_ms: f64,
    /// Windows used.
    pub windows: usize,
    /// Requests in the phase.
    pub n: usize,
}

impl Latency {
    /// Windows `phase`'s latencies.
    pub fn of(phase: &PhaseStats) -> Result<Self, String> {
        let (p50, windows) = stats::windowed_percentile(&phase.latencies_us, 0.5, WINDOW)
            .ok_or_else(|| format!("{} requests are less than one window", phase.attempted))?;
        let (p99, _) = stats::windowed_percentile(&phase.latencies_us, 0.99, WINDOW)
            .ok_or("a window cannot support a p99")?;
        Ok(Latency {
            p50_ms: p50 / 1e3,
            p99_ms: p99 / 1e3,
            windows,
            n: phase.attempted,
        })
    }

    /// How the figures were formed, printed beside them.
    pub fn note(&self) -> String {
        format!(
            "n={} from due time, median over {} windows of {WINDOW}",
            self.n, self.windows
        )
    }
}

/// Reports the fixed-rate phase's `p50_ms` and `ops_per_s`, and prints
/// its p99 and the generator's lateness.
fn report_fixed(
    fixed: &PhaseStats,
    duration: Duration,
    report: &mut Report,
) -> Result<Latency, String> {
    let latency = Latency::of(fixed)?;
    let late = stats::sorted(&fixed.late_us);
    println!(
        "fixed rate: p99 {:.4} ms ({}); generator late p50 {:.1} us, p99 {:.1} us",
        latency.p99_ms,
        latency.note(),
        stats::percentile(&late, 0.5).unwrap_or(0.0),
        stats::percentile(&late, 0.99).unwrap_or(0.0),
    );
    report.e2e("p50_ms", latency.p50_ms, latency.note());
    report.e2e(
        "ops_per_s",
        fixed.completed as f64 / duration.as_secs_f64(),
        format!(
            "{} completed over the fixed-rate phase; stand-in, repeats the offered rate less the losses success_frac counts",
            fixed.completed
        ),
    );
    Ok(latency)
}

/// Reports the load generator's `gen.*` metrics for a phase.
fn report_gen(phase: &PhaseStats, report: &mut Report) -> Result<(), String> {
    let latency = Latency::of(phase)?;
    report.layer("gen.p99_ms", latency.p99_ms, latency.note());
    let late = stats::sorted(&phase.late_us);
    report.layer(
        "gen.late_p99_us",
        stats::percentile(&late, 0.99).unwrap_or(0.0),
        format!("n={}", late.len()),
    );
    report.layer("gen.sent", phase.attempted as f64, "");
    report.layer("gen.completed", phase.completed as f64, "");
    Ok(())
}

/// A wire workload's offered load.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rate of the fixed-rate phase (req/s).
    pub fixed_rate: f64,
    /// p99 limit of the rate search (ms).
    pub limit_ms: f64,
}

/// How long a phase may take to answer its last request.
const DRAIN: Duration = Duration::from_secs(2);

/// The fixed-rate phase's share of the run: half when traced (the other
/// half repeats it with spans on), else two fifths, leaving the rate
/// search room to bisect near the capacity knee.
fn fixed_time(args: &crate::Args) -> Duration {
    if args.trace {
        args.seconds / 2
    } else {
        args.seconds * 2 / 5
    }
}

/// Runs the fixed-rate phase and reports its `p50_ms` and `ops_per_s`;
/// returns its request ids and latency.
pub fn fixed_phase(
    gen: &mut Generator,
    stream: &mut dyn WireStream,
    plan: Plan,
    args: &crate::Args,
    rng: &mut StdRng,
    report: &mut Report,
) -> Result<(std::ops::Range<usize>, Latency), String> {
    let duration = fixed_time(args);
    let (first, _) = phase(gen, stream, plan.fixed_rate, duration, DRAIN, rng)?;
    let end = gen.records().len();
    let latency = report_fixed(
        &PhaseStats::of(&gen.records()[first..end]),
        duration,
        report,
    )?;
    Ok((first..end, latency))
}

/// The run's second half. Traced runs repeat the fixed rate with spans
/// on and report the `gen.*` metrics, the engine's deltas on `state`
/// and the tracing overhead, returning the traced request ids; untraced
/// runs search for `max_rate_rps`. Either way every request is then
/// given until its drain deadline to be answered.
#[allow(clippy::too_many_arguments)]
pub fn second_half(
    gen: &mut Generator,
    stream: &mut dyn WireStream,
    plan: Plan,
    fixed: &Latency,
    args: &crate::Args,
    tracer: &mut Tracer,
    engine: (&ModelRegistry, &ModelState),
    rng: &mut StdRng,
    report: &mut Report,
) -> Result<Option<std::ops::Range<usize>>, String> {
    let rest = args.seconds - fixed_time(args);
    let traced = if args.trace {
        tracer.set_enabled(true);
        gen.tracing = true;
        let root = tracer.open("phase.traced", 0, 0);
        let mark = layers::EngineMark::take(engine.0, engine.1);
        let (first, sends) = phase(gen, stream, plan.fixed_rate, rest, DRAIN, rng)?;
        tracer.close(root);
        collect_spans(gen, &sends, tracer, root);
        gen.tracing = false;
        let traced = PhaseStats::of(&gen.records()[first..]);
        mark.report(engine.0, engine.1, report);
        let p50 = Latency::of(&traced)?.p50_ms;
        report.layer(
            "trace.overhead_pct",
            (p50 - fixed.p50_ms) / fixed.p50_ms * 100.0,
            format!("traced p50 {p50:.4} ms vs untraced {:.4} ms", fixed.p50_ms),
        );
        report_gen(&traced, report)?;
        report.e2e("max_rate_rps", 0.0, "not searched in the traced run");
        Some(first..gen.records().len())
    } else {
        let search = rate_search(gen, stream, plan.fixed_rate, plan.limit_ms, rest, rng)?;
        for s in &search.steps {
            println!(
                "  probe {:>9.1} req/s: p99 {:>9.3} ms (n={}) {}",
                s.rate,
                s.p99_ms,
                s.n,
                if s.pass { "pass" } else { "fail" }
            );
        }
        println!("rate search {}", search.outcome());
        report.e2e(
            "max_rate_rps",
            search.max_rate,
            format!(
                "p99 <= {} ms, {} probes, {}",
                plan.limit_ms,
                search.steps.len(),
                search.outcome()
            ),
        );
        None
    };
    let keep = |id| stream.keep(id);
    gen.receive_until(0, Instant::now() + DRAIN, &keep)
        .map_err(|e| format!("final drain: {e}"))?;
    Ok(traced)
}

/// Moves the generator's per-request spans into `tracer` under `parent`.
fn collect_spans(gen: &mut Generator, sends: &SendSpans, tracer: &mut Tracer, parent: usize) {
    for &(id, start, end) in sends {
        tracer.record("gen.send", id, parent, start, end);
    }
    for (id, start, end) in std::mem::take(&mut gen.recv_spans) {
        tracer.record("gen.recv", id, parent, start, end);
    }
}
