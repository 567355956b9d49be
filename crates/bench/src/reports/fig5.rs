//! Figure 5: average per-thread CPI stacks, RPPM (left) versus simulation
//! (right), normalized to the simulated total.
//!
//! The paper attributes RPPM's residual error chiefly to the base and
//! data-memory components.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{ExperimentPlan, Row};
use rppm::trace::CpiStack;
use rppm::workloads::Params;
use serde_json::Value;

fn print_stack(label: &str, s: &CpiStack, norm: f64, out: &mut String) {
    let mut row = Row::new().cell(10, label);
    for v in s.values() {
        row = row.rcell(8, format!("{:.3}", v / norm));
    }
    row.rcell(8, format!("{:.3}", s.total() / norm)).line(out);
}

fn stack_json(s: &CpiStack, norm: f64) -> Value {
    Value::Object(
        CpiStack::LABELS
            .iter()
            .zip(s.values())
            .map(|(l, v)| (l.to_string(), Value::F64(v / norm)))
            .chain([("total".to_string(), Value::F64(s.total() / norm))])
            .collect(),
    )
}

/// Renders Figure 5 at the given work scale; `only` restricts the output to
/// one benchmark.
pub fn fig5(scale: f64, only: Option<&str>, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let handles: Vec<_> = ctx
        .handles(rppm::workloads::all(), params)
        .into_iter()
        .filter(|h| only.is_none_or(|f| h.name() == f))
        .collect();
    let runs = ExperimentPlan::single_config(handles, ctx.base.clone()).run(ctx.session.jobs());

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 5: normalized per-thread CPI stacks (RPPM vs simulation), scale {scale}\n\n"
    ));
    let mut header = Row::new().cell(10, "");
    for l in CpiStack::LABELS {
        header = header.rcell(8, l);
    }
    header.rcell(8, "total").line(&mut out);

    let mut rows = Vec::new();
    for run in &runs {
        let cell = run.only();
        // Per-thread mean stacks, normalized to the simulated mean total
        // (the paper normalizes both bars to simulation).
        let sim_stack = cell.sim.mean_cpi_stack();
        let rppm_stack = cell.rppm.mean_cpi_stack();
        let norm = sim_stack.total();
        out.push_str(&format!(
            "\n{} (sim {:.0} cycles total):\n",
            run.workload.name(),
            cell.sim.total_cycles
        ));
        print_stack("  RPPM", &rppm_stack, norm, &mut out);
        print_stack("  sim", &sim_stack, norm, &mut out);
        rows.push(obj([
            ("benchmark", Value::String(run.workload.name().to_string())),
            ("sim_total_cycles", Value::F64(cell.sim.total_cycles)),
            ("rppm_stack", stack_json(&rppm_stack, norm)),
            ("sim_stack", stack_json(&sim_stack, norm)),
        ]));
    }

    Report {
        name: "fig5",
        text: out,
        json: obj([("scale", Value::F64(scale)), ("benchmarks", arr(rows))]),
    }
}
