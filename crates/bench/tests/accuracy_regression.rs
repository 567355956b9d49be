//! Accuracy-regression suite: freshly generated report JSON must match the
//! committed golden baselines (`results/golden/*.json`) within tolerance.
//!
//! Report generation is deterministic and thread-count-independent, so a
//! mismatch means the model, profiler, simulator or workload generators
//! changed behaviour. If the change is intentional, regenerate the
//! baselines with:
//!
//! ```text
//! cargo run --release -p rppm-cli -- golden update
//! ```

use rppm::Session;
use rppm_bench::golden::{self, GOLDEN_RTOL};
use rppm_bench::RunCtx;
use serde_json::Value;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

#[test]
fn reports_match_golden_baselines() {
    let session = Session::builder().jobs(2).build();
    let ctx = RunCtx::new(&session);
    let mut failures = String::new();
    let mut checked = 0;
    for report in golden::golden_reports(&ctx) {
        let path = golden_dir().join(format!("{}.json", report.name));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden baseline {} ({e}); regenerate with \
                 `cargo run --release -p rppm-cli -- golden update`",
                path.display()
            )
        });
        let baseline: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
        let deltas = golden::diff(&baseline, &report.json, GOLDEN_RTOL);
        if !deltas.is_empty() {
            failures.push_str(&golden::render_deltas(report.name, &deltas));
        }
        checked += 1;
    }
    assert_eq!(
        checked, 6,
        "golden set covers fig4, table3, table5, dse, sim_profile, ablation"
    );
    assert!(
        failures.is_empty(),
        "accuracy drifted from golden baselines:\n{failures}\
         if intentional, regenerate with \
         `cargo run --release -p rppm-cli -- golden update`"
    );
}

/// The harness itself must catch regressions: perturbing one prediction
/// cell of a real baseline has to produce a delta naming that cell.
#[test]
fn perturbed_prediction_fails_the_diff() {
    let path = golden_dir().join("fig4.json");
    let text = std::fs::read_to_string(&path).expect("committed baseline exists");
    let baseline: Value = serde_json::from_str(&text).expect("baseline parses");

    // Nudge the first benchmark's rppm_error by 0.1% absolute — far below
    // eyeball resolution, far above tolerance.
    let mut perturbed = baseline.clone();
    {
        let Value::Object(entries) = &mut perturbed else {
            panic!("baseline is an object")
        };
        let benches = entries
            .iter_mut()
            .find(|(k, _)| k == "benchmarks")
            .map(|(_, v)| v)
            .expect("baseline has benchmarks");
        let Value::Array(rows) = benches else {
            panic!("benchmarks is an array")
        };
        let Value::Object(row) = &mut rows[0] else {
            panic!("row is an object")
        };
        let cell = row
            .iter_mut()
            .find(|(k, _)| k == "rppm_error")
            .map(|(_, v)| v)
            .expect("row has rppm_error");
        let old = cell.as_f64().expect("numeric cell");
        *cell = Value::F64(old + 0.001);
    }

    let deltas = golden::diff(&baseline, &perturbed, GOLDEN_RTOL);
    assert_eq!(deltas.len(), 1, "exactly the perturbed cell is flagged");
    assert_eq!(deltas[0].path, "$.benchmarks[0].rppm_error");
    assert!(golden::diff(&baseline, &baseline.clone(), GOLDEN_RTOL).is_empty());
}
