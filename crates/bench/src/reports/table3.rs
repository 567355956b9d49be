//! Table III: dynamic synchronization events in the Parsec benchmarks,
//! counted by the profiler from the one-time profile (critical sections,
//! barriers, condition-variable events).
//!
//! Our analogs scale the dynamic counts down (10-350x depending on the
//! benchmark) to keep golden-reference simulation fast; the shape — which
//! benchmark is dominated by which primitive — is the reproduced result.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{ExperimentPlan, Row};
use rppm::workloads::{Params, PARSEC};
use serde_json::Value;

/// Paper's Table III rows for reference (CS, barriers, cond. vars).
/// Expansion-set analogs and imported traces are not in the paper and get
/// an `n/a` reference column.
const PAPER: [(&str, &str, &str, &str); 10] = [
    ("blackscholes", "-", "-", "-"),
    ("bodytrack", "6,700", "98", "25"),
    ("canneal", "4", "64", "-"),
    ("facesim", "10,472", "-", "1,232"),
    ("fluidanimate", "2,140,206", "50", "-"),
    ("freqmine", "-", "-", "-"),
    ("raytrace", "47", "-", "15"),
    ("streamcluster_p", "68", "13,003", "34"),
    ("swaptions", "-", "-", "-"),
    ("vips", "8,973", "-", "1,433"),
];

fn paper_row(name: &str) -> (&'static str, &'static str, &'static str) {
    PAPER
        .iter()
        .find(|r| r.0 == name)
        .map(|r| (r.1, r.2, r.3))
        .unwrap_or(("n/a", "n/a", "n/a"))
}

/// Renders Table III at the given work scale.
pub fn table3(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    // Profiles only — no configurations to simulate.
    let runs =
        ExperimentPlan::cross(ctx.handles(PARSEC, params), Vec::new()).run(ctx.session.jobs());

    let mut out = String::new();
    out.push_str(&format!(
        "Table III: dynamic synchronization events (Parsec analogs, scale {scale})\n\n"
    ));
    Row::new()
        .cell(16, "benchmark")
        .rcell(10, "CS")
        .rcell(10, "barriers")
        .rcell(10, "cond.var")
        .cell(3, "")
        .cell(30, "paper (CS / barrier / cond)")
        .line(&mut out);
    out.push_str(&"-".repeat(84));
    out.push('\n');

    let mut rows = Vec::new();
    for run in &runs {
        let paper = paper_row(run.workload.name());
        let prof = run.profile.profile();
        let (cs, bar, cond) = prof.sync_event_counts();
        let fmt = |v: u64| {
            if v == 0 {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        Row::new()
            .cell(16, run.workload.name())
            .rcell(10, fmt(cs))
            .rcell(10, fmt(bar))
            .rcell(10, fmt(cond))
            .cell(3, "")
            .cell(30, format!("{} / {} / {}", paper.0, paper.1, paper.2))
            .line(&mut out);

        // Bonus: the profiler's condition-variable usage recognition
        // (Section III-A of the paper).
        let mut usages = Vec::new();
        for usage in prof.classify_cond_vars() {
            out.push_str(&format!("    cond-var usage: {usage:?}\n"));
            usages.push(Value::String(format!("{usage:?}")));
        }
        rows.push(obj([
            ("benchmark", Value::String(run.workload.name().to_string())),
            ("critical_sections", Value::U64(cs)),
            ("barriers", Value::U64(bar)),
            ("cond_vars", Value::U64(cond)),
            ("cond_var_usage", arr(usages)),
            (
                "paper",
                obj([
                    ("critical_sections", Value::String(paper.0.to_string())),
                    ("barriers", Value::String(paper.1.to_string())),
                    ("cond_vars", Value::String(paper.2.to_string())),
                ]),
            ),
        ]));
    }
    out.push('\n');
    out.push_str("Counts are scaled down vs. the paper (10-350x) to keep simulation fast;\n");
    out.push_str("the dominance pattern per benchmark is the reproduced result.\n");

    Report {
        name: "table3",
        text: out,
        json: obj([("scale", Value::F64(scale)), ("benchmarks", arr(rows))]),
    }
}
