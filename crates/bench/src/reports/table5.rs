//! Table V: design-space exploration. For each Rodinia analog, RPPM
//! predicts all five Table IV design points from one profile; design points
//! within a bound of the predicted optimum are candidates; the chosen
//! design's slowdown versus the true (simulated) optimum is the deficiency.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{ExperimentPlan, Row};
use rppm::core::{dse_row, TABLE_V_BOUNDS};
use rppm::trace::DesignPoint;
use rppm::workloads::{Params, RODINIA};
use serde_json::Value;

/// Renders Table V at the given work scale.
pub fn table5(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
    let runs = ExperimentPlan::cross(ctx.handles(RODINIA, params), configs).run(ctx.session.jobs());

    let mut out = String::new();
    out.push_str(&format!(
        "Table V: predicting the optimum design point (bounds 0/1/3/5%, scale {scale})\n\n"
    ));
    let mut header = Row::new().cell(16, "benchmark");
    for b in TABLE_V_BOUNDS {
        header = header.rcell(12, format!("<{:.0}%", b * 100.0));
    }
    header.line(&mut out);
    out.push_str(&"-".repeat(16 + 14 * TABLE_V_BOUNDS.len()));
    out.push('\n');

    let mut sums = vec![0.0; TABLE_V_BOUNDS.len()];
    let mut rows = Vec::new();
    for run in &runs {
        // One profile, five predictions; five simulations as ground truth.
        let predicted: Vec<f64> = run.cells.iter().map(|c| c.rppm.total_seconds).collect();
        let simulated: Vec<f64> = run.cells.iter().map(|c| c.sim.total_seconds).collect();
        let row = dse_row(run.workload.name(), &predicted, &simulated, &TABLE_V_BOUNDS)
            .expect("one prediction and one simulation per Table IV design point");
        let mut r = Row::new().cell(16, run.workload.name());
        let mut cells_json = Vec::new();
        for (k, &(_, deficiency, candidates)) in row.cells.iter().enumerate() {
            sums[k] += deficiency;
            r = r.rcell(12, format!("{:.2}% {}", deficiency * 100.0, candidates));
            cells_json.push(obj([
                ("bound", Value::F64(TABLE_V_BOUNDS[k])),
                ("deficiency", Value::F64(deficiency)),
                ("candidates", Value::U64(candidates as u64)),
            ]));
        }
        r.line(&mut out);
        rows.push(obj([
            ("benchmark", Value::String(run.workload.name().to_string())),
            ("cells", arr(cells_json)),
        ]));
    }
    out.push_str(&"-".repeat(16 + 14 * TABLE_V_BOUNDS.len()));
    out.push('\n');
    let mut r = Row::new().cell(16, "average");
    let mut avg_json = Vec::new();
    for s in &sums {
        let avg = s / runs.len() as f64;
        r = r.rcell(12, format!("{:.2}%", avg * 100.0));
        avg_json.push(Value::F64(avg));
    }
    r.line(&mut out);
    out.push('\n');
    out.push_str("Cells: deficiency vs. true optimum, and number of candidate designs.\n");
    out.push_str("Paper: average deficiency 1.95% at 0% bound, 0.76% at 1%, 0.12% at 5%.\n");

    Report {
        name: "table5",
        text: out,
        json: obj([
            ("scale", Value::F64(scale)),
            ("bounds", arr(TABLE_V_BOUNDS.map(Value::F64))),
            ("benchmarks", arr(rows)),
            ("average_deficiency", arr(avg_json)),
        ]),
    }
}
