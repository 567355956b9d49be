//! Figure 4: prediction error of MAIN, CRIT and RPPM versus cycle-level
//! simulation, for all Rodinia and Parsec analogs on the base quad-core
//! configuration.
//!
//! Paper result: MAIN averages ~45% error (outliers >100% on Parsec), CRIT
//! ~28%, RPPM 11.2% with a 23% maximum.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{ExperimentPlan, Row};
use rppm::workloads::Params;
use serde_json::Value;

/// Renders Figure 4 at the given work scale.
pub fn fig4(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let runs = ExperimentPlan::single_config(
        ctx.handles(rppm::workloads::all(), params),
        ctx.base.clone(),
    )
    .run(ctx.session.jobs());

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4: prediction error vs. simulation ({} config, scale {scale})\n\n",
        ctx.base.name
    ));
    Row::new()
        .cell(16, "benchmark")
        .cell(8, "suite")
        .rcell(9, "MAIN")
        .rcell(9, "CRIT")
        .rcell(9, "RPPM")
        .line(&mut out);
    out.push_str(&"-".repeat(58));
    out.push('\n');

    let mut main_errs = Vec::new();
    let mut crit_errs = Vec::new();
    let mut rppm_errs = Vec::new();
    let mut rows = Vec::new();
    let mut prev_suite = None;

    for run in &runs {
        // Horizontal rule between suites (rodinia / parsec / imported).
        let suite = run.workload.suite();
        if prev_suite.is_some_and(|p| p != suite) {
            out.push_str(&"-".repeat(58));
            out.push('\n');
        }
        prev_suite = Some(suite);
        let suite = suite.map_or("imported".to_string(), |s| s.to_string());
        let cell = run.only();
        let (m, c, r) = (cell.main_error(), cell.crit_error(), cell.rppm_error());
        let over = cell.rppm.total_cycles >= cell.sim.total_cycles;
        let sign = if over { '+' } else { '-' };
        Row::new()
            .cell(16, run.workload.name())
            .cell(8, &suite)
            .rcell(9, format!("{:.1}%", m * 100.0))
            .rcell(9, format!("{:.1}%", c * 100.0))
            .rcell(9, format!("{sign}{:.1}%", r * 100.0))
            .line(&mut out);
        main_errs.push(m);
        crit_errs.push(c);
        rppm_errs.push(r);
        rows.push(obj([
            ("benchmark", Value::String(run.workload.name().to_string())),
            ("suite", Value::String(suite)),
            ("main_error", Value::F64(m)),
            ("crit_error", Value::F64(c)),
            ("rppm_error", Value::F64(r)),
            ("rppm_signed_error", Value::F64(if over { r } else { -r })),
        ]));
    }

    out.push_str(&"-".repeat(58));
    out.push('\n');
    Row::new()
        .cell(25, "average")
        .rcell(9, format!("{:.1}%", rppm::core::mean(&main_errs) * 100.0))
        .rcell(9, format!("{:.1}%", rppm::core::mean(&crit_errs) * 100.0))
        .rcell(9, format!("{:.1}%", rppm::core::mean(&rppm_errs) * 100.0))
        .line(&mut out);
    Row::new()
        .cell(25, "max")
        .rcell(9, format!("{:.1}%", rppm::core::max(&main_errs) * 100.0))
        .rcell(9, format!("{:.1}%", rppm::core::max(&crit_errs) * 100.0))
        .rcell(9, format!("{:.1}%", rppm::core::max(&rppm_errs) * 100.0))
        .line(&mut out);
    out.push('\n');
    out.push_str("Paper: MAIN avg 45% (max >110%), CRIT avg 28%, RPPM avg 11.2% (max 23%).\n");

    Report {
        name: "fig4",
        text: out,
        json: obj([
            ("scale", Value::F64(scale)),
            ("benchmarks", arr(rows)),
            (
                "summary",
                obj([
                    ("main_avg", Value::F64(rppm::core::mean(&main_errs))),
                    ("crit_avg", Value::F64(rppm::core::mean(&crit_errs))),
                    ("rppm_avg", Value::F64(rppm::core::mean(&rppm_errs))),
                    ("main_max", Value::F64(rppm::core::max(&main_errs))),
                    ("crit_max", Value::F64(rppm::core::max(&crit_errs))),
                    ("rppm_max", Value::F64(rppm::core::max(&rppm_errs))),
                ]),
            ),
        ]),
    }
}
