//! Table II: Rodinia benchmark analogs and their generation parameters —
//! the reproduction's equivalent of the paper's input-set table.

use super::{arr, obj, Report};
use crate::runner::Row;
use rppm::workloads::{Params, RODINIA};
use serde_json::Value;

/// Renders Table II at the given work scale.
pub fn table2(scale: f64) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };

    let mut out = String::new();
    out.push_str(&format!(
        "Table II: Rodinia analogs at scale {scale} (paper uses native inputs; see Table II there)\n\n"
    ));
    Row::new()
        .cell(16, "benchmark")
        .rcell(10, "threads")
        .rcell(12, "ops (ROI)")
        .rcell(10, "barriers")
        .line(&mut out);
    out.push_str(&"-".repeat(52));
    out.push('\n');

    let mut rows = Vec::new();
    for bench in RODINIA {
        let prog = bench.build(&params);
        let barriers: usize = prog
            .threads
            .iter()
            .map(|t| {
                t.sync_ops()
                    .filter(|op| matches!(op, rppm::trace::SyncOp::Barrier { .. }))
                    .count()
            })
            .sum();
        Row::new()
            .cell(16, bench.name)
            .rcell(10, prog.num_threads())
            .rcell(12, prog.total_ops())
            .rcell(10, barriers)
            .line(&mut out);
        rows.push(obj([
            ("benchmark", Value::String(bench.name.to_string())),
            ("threads", Value::U64(prog.num_threads() as u64)),
            ("ops", Value::U64(prog.total_ops())),
            ("barriers", Value::U64(barriers as u64)),
        ]));
    }

    Report {
        name: "table2",
        text: out,
        json: obj([("scale", Value::F64(scale)), ("benchmarks", arr(rows))]),
    }
}
