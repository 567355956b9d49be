//! Metric names, units and the printed result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract: every
//! run prints each end-to-end metric, and every traced run each per-layer
//! metric (0 for a layer the workload never calls). `BENCHMARK.json` at
//! the repository root lists the same names; a test keeps them equal.

use serde_json::Value;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["profile-predict", "validate-sim", "serve-mixed"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pred_err_pct", "%"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("trace.read_ms", "ms"),
    ("trace.read_ms.json", "ms"),
    ("trace.read_ms.rpt1", "ms"),
    ("trace.read_ms.ops", "ms"),
    ("profiler.profile_ms", "ms"),
    ("profiler.ns_per_op", "ns"),
    ("profiler.cache_hit_ratio", "ratio"),
    ("profiler.cache_evictions", "count"),
    ("profiler.cache_resident_bytes", "bytes"),
    ("core.predict_us", "us"),
    ("docs.json_us", "us"),
    ("sim.simulate_ms", "ms"),
    ("sim.ns_per_op", "ns"),
    ("sim.cycles_digest", "cycles"),
    ("validate-sim.profile_over_simulate", "ratio"),
    ("serve.hit_us", "us"),
    ("serve.sweep_us", "us"),
    ("serve.http_us", "us"),
    ("serve.upload_ms.small", "ms"),
    ("serve.upload_ms.spooled", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.polls_per_cold", "count"),
    ("serve.jobs_failed", "count"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("self_pct.workloads", "%"),
    ("self_pct.trace", "%"),
    ("self_pct.profiler", "%"),
    ("self_pct.core", "%"),
    ("self_pct.sim", "%"),
    ("self_pct.docs", "%"),
    ("self_pct.serve", "%"),
    ("setup.workloads_ms", "ms"),
    ("setup.trace_ms", "ms"),
    ("setup.profiler_ms", "ms"),
    ("setup.core_ms", "ms"),
    ("setup.sim_ms", "ms"),
    ("setup.docs_ms", "ms"),
    ("setup.serve_ms", "ms"),
    ("setup.unattributed_ms", "ms"),
    ("host.reference_ms", "ms"),
];

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value is a ratio or mean of, for the traced run's table.
    pub base: Option<String>,
}

/// An ordered set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.insert(name, value, unit, None);
    }

    /// Sets `name` together with its base.
    pub fn set_with_base(&mut self, name: &str, value: f64, unit: &'static str, base: String) {
        self.insert(name, value, unit, Some(base));
    }

    fn insert(&mut self, name: &str, value: f64, unit: &'static str, base: Option<String>) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        });
    }

    /// The metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// The metrics a run prints, in contract order: exactly the names in
/// `contract`. Per-layer metrics the workload never set are 0 (it spent no
/// time in that layer); a missing end-to-end metric is an error.
///
/// # Errors
///
/// An end-to-end metric is missing, non-finite, or a metric the workload
/// set is not in the contract.
pub fn select(
    metrics: &Metrics,
    contract: &[(&str, &'static str)],
    fill_zero: bool,
) -> Result<Vec<Metric>, String> {
    if let Some(extra) = metrics
        .iter()
        .find(|m| !contract.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric `{}` is not in the contract", extra.name));
    }
    contract
        .iter()
        .map(|&(name, unit)| {
            let found = metrics.iter().find(|m| m.name == name);
            let metric = match found {
                Some(m) => m.clone(),
                None if fill_zero => Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    base: Some("layer not called by this workload".to_string()),
                },
                None => return Err(format!("metric `{name}` was not measured")),
            };
            if metric.unit != unit {
                return Err(format!(
                    "metric `{name}` has unit {} not {unit}",
                    metric.unit
                ));
            }
            if !metric.value.is_finite() {
                return Err(format!("metric `{name}` is not finite"));
            }
            Ok(metric)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Value::Object(vec![
                                ("value".into(), Value::F64(m.value)),
                                ("unit".into(), Value::String(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string(&doc).expect("metrics are finite")
}

/// The traced run's table: one line per metric with its unit and base.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!(
            "{:<36} {:>16.4} {:<6} {}\n",
            m.name,
            m.value,
            m.unit,
            m.base.as_deref().unwrap_or("")
        ));
    }
    out
}
