//! The `dse` report: the million-point DSE engine at validation scale.
//!
//! Runs the fixed 12-point [`ConfigSpace::tiny`] space on one benchmark:
//! every point is predicted through the batched precompute/evaluate path
//! *and* simulated for ground truth, so the report pins — and the golden
//! suite drift-gates — the predicted optimum, the Pareto-frontier
//! membership over (time, area, power) and the Table V-style deficiency
//! ladder of the new engine.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{ExperimentPlan, Row};
use rppm::core::{dse_row, sweep, ConfigSpace, Constraints, TABLE_V_BOUNDS};
use rppm::workloads::Params;
use serde_json::Value;

const WORKLOAD: &str = "kmeans";

/// Renders the DSE-engine report at the given work scale.
pub fn dse(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let space = ConfigSpace::tiny_from(ctx.base.clone());
    let configs: Vec<_> = (0..space.len()).map(|i| space.config(i)).collect();
    let workload = ctx
        .session
        .workload(WORKLOAD)
        .expect("catalog workload")
        .scale(params.scale)
        .seed(params.seed);
    let runs = ExperimentPlan::cross(vec![workload], configs).run(ctx.session.jobs());
    let run = &runs[0];

    let predicted: Vec<f64> = run.cells.iter().map(|c| c.rppm.total_seconds).collect();
    let simulated: Vec<f64> = run.cells.iter().map(|c| c.sim.total_seconds).collect();
    let row = dse_row(WORKLOAD, &predicted, &simulated, &TABLE_V_BOUNDS)
        .expect("one prediction and one simulation per point of the tiny space");

    // The same points through the batched engine over the cached
    // preparation: sweep() is bit-identical to the full predictions above
    // by construction, and adds the frontier + optimum the golden baseline
    // pins.
    let swept = sweep(
        run.profile.prepared(),
        &space,
        &Constraints::none(),
        &TABLE_V_BOUNDS,
        ctx.session.jobs(),
    )
    .expect("tiny space is nonempty and unconstrained");
    assert_eq!(
        swept.best.seconds.to_bits(),
        predicted.iter().cloned().fold(f64::MAX, f64::min).to_bits(),
        "batched sweep drifted from the full predictions"
    );

    let mut out = String::new();
    out.push_str(&format!(
        "DSE engine: {WORKLOAD} over the {}-point tiny space (scale {scale})\n\n",
        swept.points
    ));
    Row::new()
        .cell(7, "point")
        .rcell(15, "predicted (ms)")
        .rcell(15, "simulated (ms)")
        .rcell(9, "frontier")
        .line(&mut out);
    out.push_str(&"-".repeat(50));
    out.push('\n');
    let mut points_json = Vec::new();
    for (i, (p, s)) in predicted.iter().zip(&simulated).enumerate() {
        let on_frontier = swept.frontier.iter().any(|f| f.index == i);
        Row::new()
            .cell(7, format!("#{i}"))
            .rcell(15, format!("{:.6}", p * 1e3))
            .rcell(15, format!("{:.6}", s * 1e3))
            .rcell(9, if on_frontier { "yes" } else { "" })
            .line(&mut out);
        points_json.push(obj([
            ("index", Value::U64(i as u64)),
            ("predicted_seconds", Value::F64(*p)),
            ("simulated_seconds", Value::F64(*s)),
            ("frontier", Value::Bool(on_frontier)),
        ]));
    }
    out.push('\n');
    out.push_str(&format!(
        "predicted optimum: #{} ({:.6} ms); frontier: {} of {} points\n",
        swept.best.index,
        swept.best.seconds * 1e3,
        swept.frontier.len(),
        swept.points
    ));
    let mut cells_json = Vec::new();
    out.push_str("deficiency:");
    for &(bound, deficiency, candidates) in &row.cells {
        out.push_str(&format!(
            "  <{:.0}%: {:.2}% ({candidates} cand.)",
            bound * 100.0,
            deficiency * 100.0
        ));
        cells_json.push(obj([
            ("bound", Value::F64(bound)),
            ("deficiency", Value::F64(deficiency)),
            ("candidates", Value::U64(candidates as u64)),
        ]));
    }
    out.push('\n');

    Report {
        name: "dse",
        text: out,
        json: obj([
            ("scale", Value::F64(scale)),
            ("workload", Value::String(WORKLOAD.to_string())),
            ("points", arr(points_json)),
            ("best_index", Value::U64(swept.best.index as u64)),
            (
                "frontier",
                arr(swept
                    .frontier
                    .iter()
                    .map(|f| Value::U64(f.index as u64))
                    .collect::<Vec<_>>()),
            ),
            ("deficiency", arr(cells_json)),
        ]),
    }
}
