//! What every workload shares: the models under test, their artifacts,
//! configuration, the result report, and process measurements.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use factorhd_core::{FactorizeConfig, Taxonomy, TaxonomyBuilder, ThresholdPolicy};
use factorhd_engine::EngineConfig;

/// End-to-end metrics, in BENCHMARK.json order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_frac", "ratio"),
    ("accuracy", "ratio"),
    ("p50_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("ops_per_s", "ops/s"),
];

/// Per-layer metrics, in BENCHMARK.json order, with their units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("serve.batch_mean", "ops"),
    ("serve.server_e2e_us.p50", "us"),
    ("serve.server_e2e_us.p99", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.protocol.req_encode_us", "us"),
    ("serve.protocol.req_decode_us", "us"),
    ("serve.protocol.resp_encode_us", "us"),
    ("serve.protocol.resp_decode_us", "us"),
    ("serve.protocol.req_bytes", "B"),
    ("serve.protocol.resp_bytes", "B"),
    ("engine.batch_us.p50", "us"),
    ("engine.batch_us.p99", "us"),
    ("engine.ops_failed", "count"),
    ("engine.stage.plan_us_per_op", "us"),
    ("engine.stage.scan_us_per_op", "us"),
    ("engine.stage.rerank_us_per_op", "us"),
    ("engine.stage.scatter_us_per_op", "us"),
    ("engine.recon_hit_ratio", "ratio"),
    ("engine.artifact.load_ms", "ms"),
    ("engine.artifact.bytes", "B"),
    ("engine.registry.publishes", "count"),
    ("engine.registry.publish_us", "us"),
    ("core.similarity_checks_per_op", "count"),
    ("core.combination_tests_per_op", "count"),
    ("core.unbind_ops_per_op", "count"),
    ("core.truncated_ops", "count"),
    ("core.factorize_us.rep2", "us"),
    ("core.factorize_us.rep3", "us"),
    ("core.encode_us", "us"),
    ("hdc.scan_bytes_per_op", "B-computed"),
    ("hdc.kernel_ns_per_kword", "ns"),
    ("learn.observe_us", "us"),
    ("learn.snapshot_us", "us"),
    ("learn.classify_us", "us"),
    ("learn.retrain_ms", "ms"),
    ("learn.retrain_epochs", "count"),
    ("gen.p99_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.completed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Registry name of the small lookup model.
pub const LOOKUP_MODEL: &str = "lookup";
/// Registry name of the paper-scale scene model.
pub const SCENES_MODEL: &str = "scenes-1e9";
/// Registry name of the learnable CIFAR-10 model.
pub const CIFAR_MODEL: &str = "cifar10";

/// Dimension of the lookup model.
pub const LOOKUP_DIM: usize = 2048;
/// Dimension of the paper-scale scene model.
pub const SCENES_DIM: usize = 4096;
/// Dimension of the learnable CIFAR-10 model's feature encodings.
pub const CIFAR_DIM: usize = 1024;
/// Classes of the learnable model.
pub const CIFAR_CLASSES: usize = 10;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 25;

/// The small lookup model: 3 classes, 16 × 8 / 16 / 16 items, D = 2048.
pub fn lookup_taxonomy() -> Taxonomy {
    TaxonomyBuilder::new(LOOKUP_DIM)
        .seed(0x5E21_D0DE)
        .class("animal", &[16, 8])
        .class("color", &[16])
        .class("size", &[16])
        .build()
        .expect("valid lookup taxonomy")
}

/// The paper-scale model: 3 classes × [100, 10] levels, so 1,000 leaves
/// per class and 10^9 leaf combinations, at D = 4096.
pub fn scenes_taxonomy() -> Taxonomy {
    TaxonomyBuilder::new(SCENES_DIM)
        .seed(0xF0C7_0E09)
        .uniform_classes(3, &[100, 10])
        .build()
        .expect("valid scene taxonomy")
}

/// `EngineConfig::default()` with only the threshold policy set.
pub fn engine_config(n_objects: usize) -> EngineConfig {
    EngineConfig {
        factorize: FactorizeConfig {
            threshold: ThresholdPolicy::Analytic { n_objects },
            ..FactorizeConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// The benchmark's output directory (model artifacts, traces), inside
/// the benchmark's own directory.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Size of a file in bytes.
pub fn file_bytes(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// The process's resident-set high-water mark, in MiB (Linux
/// `VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Prints the run's context: selected scan kernel, CPU features and
/// core count. Context, not metrics.
pub fn print_context() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "context: kernel={} cpu_features=[{}] nproc={cores}",
        hdc::kernels::selected_kernel().name(),
        hdc::kernels::cpu_features()
    );
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] / [`PER_LAYER`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Sample count and how the value was formed, printed beside it.
    pub note: String,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every checked answer matched its reference.
    pub correct: bool,
    /// Requests or ops attempted.
    pub attempted: u64,
    /// Failed, refused or wrong.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// One line per wrong answer (printed, capped).
    pub mismatches: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.e2e.push(Metric {
            name,
            value,
            note: note.into(),
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.layers.push(Metric {
            name,
            value,
            note: note.into(),
        });
    }

    /// Prints every metric by name and unit, the wrong answers, and the
    /// JSON result line (last). Missing or non-finite metrics are a bug
    /// in the workload and panic here rather than print a bad result.
    pub fn print(&self, trace: bool) {
        let print_group =
            |title: &str, table: &[(&'static str, &'static str)], metrics: &[Metric]| {
                println!("{title}:");
                for (name, unit) in table {
                    if let Some(m) = metrics.iter().find(|m| m.name == *name) {
                        println!("  {name:<34} {:>16.6} {unit:<10} {}", m.value, m.note);
                    }
                }
            };
        print_group("end-to-end", &END_TO_END, &self.e2e);
        if trace {
            print_group("per-layer", &PER_LAYER, &self.layers);
        }
        println!("wrong answers: {}", self.mismatches.len());
        for line in self.mismatches.iter().take(20) {
            println!("  mismatch: {line}");
        }
        let (table, metrics): (&[(&str, &str)], &[Metric]) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        println!("{}", self.json(table, metrics));
    }

    fn json(&self, table: &[(&'static str, &'static str)], metrics: &[Metric]) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let metric = metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            assert!(metric.value.is_finite(), "{name} is not finite");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                metric.value
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        );
        // The benchmark directory also runs stand-alone; check only when
        // the repository file is present.
        let Ok(spec) = spec else { return };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"name\":").count();
        // Every metric plus the workloads.
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.e2e(name, 1.25, "");
        }
        let line = r.json(&END_TO_END, &r.e2e);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}}"));
    }
}
