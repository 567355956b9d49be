//! Figure 6: bottlegraphs for the Parsec analogs — RPPM's predicted
//! parallelism/criticality per thread versus simulation.
//!
//! Each thread is a box: height = share of execution time, width = average
//! parallelism while active. ASCII rendering, widest box at the bottom.

use super::{arr, obj, Report, RunCtx};
use crate::runner::ExperimentPlan;
use rppm::core::Bottlegraph;
use rppm::workloads::{Params, PARSEC};
use serde_json::Value;

fn render(g: &Bottlegraph, label: &str, out: &mut String) {
    out.push_str(&format!("  {label}:\n"));
    // Stack top-down: tallest (least parallel) first, like the paper's plot.
    for b in g.boxes.iter().rev() {
        if b.height < 0.005 {
            continue;
        }
        let width = (b.parallelism * 8.0).round() as usize;
        out.push_str(&format!(
            "    T{} {:>5.1}% |{}| parallelism {:.2}\n",
            b.thread,
            b.height * 100.0,
            "#".repeat(width.max(1)),
            b.parallelism
        ));
    }
}

fn graph_json(g: &Bottlegraph) -> Value {
    arr(g.boxes.iter().map(|b| {
        obj([
            ("thread", Value::U64(b.thread as u64)),
            ("height", Value::F64(b.height)),
            ("parallelism", Value::F64(b.parallelism)),
        ])
    }))
}

/// Renders Figure 6 at the given work scale.
pub fn fig6(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let runs = ExperimentPlan::single_config(ctx.handles(PARSEC, params), ctx.base.clone())
        .run(ctx.session.jobs());

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 6: bottlegraphs, RPPM (left/top) vs simulation (right/bottom), scale {scale}\n"
    ));
    let mut rows = Vec::new();
    for run in &runs {
        let cell = run.only();
        out.push_str(&format!("\n{}\n", run.workload.name()));
        let pred = Bottlegraph::from_intervals(&cell.rppm.intervals, cell.rppm.total_cycles);
        let sim = Bottlegraph::from_intervals(&cell.sim.intervals, cell.sim.total_cycles);
        render(&pred, "RPPM", &mut out);
        render(&sim, "simulation", &mut out);
        rows.push(obj([
            ("benchmark", Value::String(run.workload.name().to_string())),
            ("rppm", graph_json(&pred)),
            ("simulation", graph_json(&sim)),
        ]));
    }
    out.push('\n');
    out.push_str("Paper categories: balanced idle-main (blackscholes, canneal, fluidanimate,\n");
    out.push_str("raytrace, swaptions); working main (facesim, freqmine, bodytrack);\n");
    out.push_str("imbalanced (streamcluster, vips).\n");

    Report {
        name: "fig6",
        text: out,
        json: obj([("scale", Value::F64(scale)), ("benchmarks", arr(rows))]),
    }
}
