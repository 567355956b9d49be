//! Ablation study: re-run the Figure 4 accuracy suite with each model
//! refinement (DESIGN.md §7) disabled in turn, quantifying what every
//! mechanism contributes to RPPM's accuracy.
//!
//! Each variant is an explicit [`Knobs`] value. Profiles and simulations
//! are knob-independent, so one plan run supplies the golden simulations,
//! the one-time profiles and the full model's predictions; every other
//! variant prepares each profile with its own knobs
//! ([`PreparedProfile::with_knobs`]) and re-predicts, in parallel. The JSON
//! twin labels each variant's overrides (`env`) with the knobs' historical
//! `RPPM_*` names, which the golden baseline pins.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{ExperimentPlan, Row};
use rppm::core::{abs_pct_error, parallel_map, Knobs, PreparedProfile};
use rppm::workloads::Params;
use serde_json::Value;
use std::sync::Arc;

/// Overrides a variant's JSON row records, as `(name, value)` labels.
type Overrides = &'static [(&'static str, &'static str)];

/// The variants: row label, knobs, recorded overrides.
fn variants() -> [(&'static str, Knobs, Overrides); 5] {
    let full = Knobs::default();
    [
        ("full model", full, &[]),
        (
            "no path-selection factor (kappa=1)",
            Knobs { kappa: 1.0, ..full },
            &[("RPPM_KAPPA", "1.0")],
        ),
        (
            "no MLP efficiency (gamma=cap=1)",
            Knobs {
                mlp_eff: 1.0,
                mlp_cap: 1.0,
                ..full
            },
            &[("RPPM_MLP_EFF", "1.0"), ("RPPM_MLP_CAP", "1.0")],
        ),
        (
            "no chain bound",
            Knobs {
                no_chain_bound: true,
                ..full
            },
            &[("RPPM_NO_CHAIN_BOUND", "1")],
        ),
        (
            "no retirement exposure",
            Knobs {
                no_exposure: true,
                ..full
            },
            &[("RPPM_NO_EXPOSURE", "1")],
        ),
    ]
}

/// Renders the ablation study at the given work scale.
pub fn ablation(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let config = ctx.base.clone();
    let runs =
        ExperimentPlan::single_config(ctx.handles(rppm::workloads::all(), params), config.clone())
            .run(ctx.session.jobs());

    let mut out = String::new();
    out.push_str(&format!(
        "Ablation: RPPM suite error (all {} benchmarks, {} config, scale {scale})\n\n",
        runs.len(),
        config.name
    ));
    Row::new()
        .cell(38, "variant")
        .rcell(10, "avg err")
        .rcell(10, "max err")
        .line(&mut out);
    out.push_str(&"-".repeat(60));
    out.push('\n');

    let mut rows = Vec::new();
    for (name, knobs, overrides) in variants() {
        let errs = parallel_map(ctx.session.jobs(), runs.len(), |i| {
            let run = &runs[i];
            let predicted = if knobs == Knobs::default() {
                // The plan predicted the full model through the cached
                // preparation.
                run.only().rppm.total_cycles
            } else {
                PreparedProfile::with_knobs(Arc::clone(run.profile.profile()), knobs)
                    .predict(&config)
                    .total_cycles
            };
            abs_pct_error(predicted, run.only().sim.total_cycles)
        });
        let (mean, max) = (rppm::core::mean(&errs), rppm::core::max(&errs));
        Row::new()
            .cell(38, name)
            .rcell(10, format!("{:.1}%", mean * 100.0))
            .rcell(10, format!("{:.1}%", max * 100.0))
            .line(&mut out);
        rows.push(obj([
            ("variant", Value::String(name.to_string())),
            ("avg_error", Value::F64(mean)),
            ("max_error", Value::F64(max)),
            (
                "env",
                Value::Object(
                    overrides
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::String(v.to_string())))
                        .collect(),
                ),
            ),
        ]));
    }
    out.push('\n');
    out.push_str("Each row disables one DESIGN.md §7 refinement; deltas vs. the first row\n");
    out.push_str("quantify that mechanism's contribution to RPPM's accuracy.\n");

    Report {
        name: "ablation",
        text: out,
        json: obj([("scale", Value::F64(scale)), ("variants", arr(rows))]),
    }
}
