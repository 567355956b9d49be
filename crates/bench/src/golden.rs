//! Golden accuracy-regression machinery.
//!
//! Every report emits a machine-readable JSON twin; this module pins a
//! subset of them against committed baselines (`results/golden/*.json`) so
//! accuracy changes show up as reviewable per-cell deltas instead of
//! silent drift. The golden set is generated at a tiny fixed scale
//! ([`GOLDEN_SCALE`]) — report generation is deterministic and
//! thread-count-independent, so fresh runs reproduce the baselines exactly
//! unless the model, profiler, simulator or workloads changed behaviour.
//!
//! Regenerate baselines (after an intentional accuracy change) with:
//!
//! ```text
//! cargo run --release -p rppm-cli -- golden update
//! ```

use crate::reports::{self, Report, RunCtx};
use serde_json::Value;

/// Work scale the golden baselines are generated at (tiny, so the full
/// golden set regenerates in seconds — fast enough for a test and for CI).
pub const GOLDEN_SCALE: f64 = 0.02;

/// Relative tolerance for numeric cells. Generation is deterministic, so
/// any genuine model change lands far above this; the slack only absorbs
/// platform-level floating-point noise (libm differences and the like).
pub const GOLDEN_RTOL: f64 = 1e-6;

/// The reports pinned by the golden suite: per-benchmark prediction errors
/// (fig4), sync-event counts (table3), design-space deficiencies (table5),
/// the batched DSE engine's optimum + Pareto-frontier membership (dse),
/// the simulator's own op-frequency profile (sim_profile) — which pins the
/// exact simulated instruction streams, so any "optimization" that changes
/// the op sequences fails the diff — and the model-component ablation
/// (ablation), which pins every calibration knob's effect.
pub fn golden_reports(ctx: &RunCtx<'_>) -> Vec<Report> {
    vec![
        reports::fig4(GOLDEN_SCALE, ctx),
        reports::table3(GOLDEN_SCALE, ctx),
        reports::table5(GOLDEN_SCALE, ctx),
        reports::dse(GOLDEN_SCALE, ctx),
        reports::sim_profile(GOLDEN_SCALE, ctx),
        reports::ablation(GOLDEN_SCALE, ctx),
    ]
}

/// One divergence between a golden baseline and a fresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// JSON path of the divergent cell (e.g. `benchmarks[3].rppm_error`).
    pub path: String,
    /// The committed value (rendered).
    pub golden: String,
    /// The freshly generated value (rendered).
    pub fresh: String,
}

impl std::fmt::Display for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: golden {} -> fresh {}",
            self.path, self.golden, self.fresh
        )
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unserializable>".to_string())
}

/// Structurally diffs `fresh` against `golden`, treating numbers within
/// `rtol` relative tolerance as equal. Returns every divergent cell with
/// its JSON path — an empty result means the run matches the baseline.
pub fn diff(golden: &Value, fresh: &Value, rtol: f64) -> Vec<Delta> {
    let mut out = Vec::new();
    walk("$", golden, fresh, rtol, &mut out);
    out
}

fn push(path: &str, golden: &Value, fresh: &Value, out: &mut Vec<Delta>) {
    out.push(Delta {
        path: path.to_string(),
        golden: render(golden),
        fresh: render(fresh),
    });
}

fn walk(path: &str, golden: &Value, fresh: &Value, rtol: f64, out: &mut Vec<Delta>) {
    // Numbers compare numerically whatever their JSON representation. A
    // non-finite cell (NaN/inf — a divide-by-zero class of regression)
    // never tolerance-matches a differing value: NaN comparisons are all
    // false, so the tolerance path would wave it through.
    if let (Some(a), Some(b)) = (golden.as_f64(), fresh.as_f64()) {
        if !a.is_finite() || !b.is_finite() {
            if a.to_bits() != b.to_bits() {
                push(path, golden, fresh, out);
            }
            return;
        }
        let denom = a.abs().max(b.abs());
        if denom > 0.0 && ((a - b).abs() / denom) > rtol {
            push(path, golden, fresh, out);
        }
        return;
    }
    match (golden, fresh) {
        (Value::Array(g), Value::Array(f)) => {
            if g.len() != f.len() {
                out.push(Delta {
                    path: path.to_string(),
                    golden: format!("{} elements", g.len()),
                    fresh: format!("{} elements", f.len()),
                });
                return;
            }
            for (i, (gv, fv)) in g.iter().zip(f).enumerate() {
                walk(&format!("{path}[{i}]"), gv, fv, rtol, out);
            }
        }
        (Value::Object(g), Value::Object(f)) => {
            for (k, gv) in g {
                match Value::get(f, k) {
                    Some(fv) => walk(&format!("{path}.{k}"), gv, fv, rtol, out),
                    None => out.push(Delta {
                        path: format!("{path}.{k}"),
                        golden: render(gv),
                        fresh: "<missing>".to_string(),
                    }),
                }
            }
            for (k, fv) in f {
                if Value::get(g, k).is_none() {
                    out.push(Delta {
                        path: format!("{path}.{k}"),
                        golden: "<missing>".to_string(),
                        fresh: render(fv),
                    });
                }
            }
        }
        _ if golden == fresh => {}
        _ => push(path, golden, fresh, out),
    }
}

/// Renders one report's delta list as a human-readable block.
pub fn render_deltas(report: &str, deltas: &[Delta]) -> String {
    let mut out = String::new();
    if deltas.is_empty() {
        out.push_str(&format!("{report}: OK (matches golden baseline)\n"));
    } else {
        out.push_str(&format!(
            "{report}: {} cell(s) drifted from the golden baseline:\n",
            deltas.len()
        ));
        for d in deltas {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_obj(v: f64) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String("x".to_string())),
            ("err".to_string(), Value::F64(v)),
        ])
    }

    #[test]
    fn identical_values_produce_no_deltas() {
        let v = Value::Array(vec![num_obj(0.112), num_obj(0.023)]);
        assert!(diff(&v, &v.clone(), GOLDEN_RTOL).is_empty());
    }

    #[test]
    fn perturbed_number_is_flagged_with_path() {
        let golden = Value::Array(vec![num_obj(0.112), num_obj(0.023)]);
        let fresh = Value::Array(vec![num_obj(0.112), num_obj(0.024)]);
        let deltas = diff(&golden, &fresh, GOLDEN_RTOL);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].path, "$[1].err");
    }

    #[test]
    fn within_tolerance_is_equal() {
        let golden = num_obj(1.0);
        let fresh = num_obj(1.0 + 1e-9);
        assert!(diff(&golden, &fresh, GOLDEN_RTOL).is_empty());
        assert_eq!(diff(&golden, &fresh, 1e-12).len(), 1);
    }

    #[test]
    fn integer_representations_compare_numerically() {
        // 7 as U64 vs 7.0 as F64 must not be a false positive.
        assert!(diff(&Value::U64(7), &Value::F64(7.0), GOLDEN_RTOL).is_empty());
        assert_eq!(diff(&Value::U64(7), &Value::U64(8), GOLDEN_RTOL).len(), 1);
    }

    #[test]
    fn non_finite_fresh_values_are_flagged() {
        // The worst accuracy regression — a prediction going NaN/inf —
        // must never tolerance-match a finite baseline.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let deltas = diff(&num_obj(0.112), &num_obj(bad), GOLDEN_RTOL);
            assert_eq!(deltas.len(), 1, "{bad} slipped through");
            assert_eq!(deltas[0].path, "$.err");
        }
        // Identical non-finite values (bitwise) are not drift.
        assert!(diff(&num_obj(f64::NAN), &num_obj(f64::NAN), GOLDEN_RTOL).is_empty());
    }

    #[test]
    fn shape_changes_are_flagged() {
        let golden = Value::Object(vec![("a".to_string(), Value::U64(1))]);
        let fresh = Value::Object(vec![
            ("a".to_string(), Value::U64(1)),
            ("b".to_string(), Value::U64(2)),
        ]);
        let deltas = diff(&golden, &fresh, GOLDEN_RTOL);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].path, "$.b");
        assert_eq!(deltas[0].golden, "<missing>");

        let short = Value::Array(vec![Value::U64(1)]);
        let long = Value::Array(vec![Value::U64(1), Value::U64(2)]);
        assert_eq!(diff(&short, &long, GOLDEN_RTOL).len(), 1);
    }

    #[test]
    fn string_changes_are_flagged() {
        let golden = Value::String("backprop".to_string());
        let fresh = Value::String("backdrop".to_string());
        assert_eq!(diff(&golden, &fresh, GOLDEN_RTOL).len(), 1);
    }

    #[test]
    fn render_deltas_reports_both_outcomes() {
        assert!(render_deltas("fig4", &[]).contains("OK"));
        let d = diff(&num_obj(1.0), &num_obj(2.0), GOLDEN_RTOL);
        let text = render_deltas("fig4", &d);
        assert!(text.contains("drifted"), "{text}");
        assert!(text.contains("$.err"), "{text}");
    }
}
