//! The `sim_profile` report: the simulator's own execution profile.
//!
//! Runs every catalog workload through the probed golden simulator on the
//! run's machine (the paper's base design point unless `--machine` swaps
//! it) and aggregates the engine's self-profile: op frequencies, the
//! dynamic op-pair histogram (the superinstruction candidates), the
//! synchronization mix and the dispatch/fusion statistics the PGO loop
//! feeds on. The JSON twin is drift-gated by the golden suite:
//! a change in the committed op-frequency profile means the simulated
//! instruction streams changed — exactly the regression the bit-identical
//! optimization discipline forbids.

use super::{arr, obj, Report, RunCtx};
use rppm::sim::{simulate_profiled, SimEngine, SimProfile};
use rppm::workloads::Params;
use serde_json::Value;

/// Number of op pairs listed in the text rendering.
const TOP_PAIRS: usize = 8;

/// Parses a [`SimProfile`]'s deterministic JSON into a [`Value`] for the
/// machine-readable twin.
pub(crate) fn profile_json(p: &SimProfile) -> Value {
    serde_json::from_str(&p.to_json_string()).expect("SimProfile JSON parses")
}

/// Renders the simulator self-profile report at the given work scale.
pub fn sim_profile(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let config = &ctx.base;

    let mut merged = SimProfile::default();
    let mut rows = Vec::new();
    let mut rows_json = Vec::new();
    for bench in rppm::workloads::all() {
        let program = bench.build(&params);
        let (_, p) = simulate_profiled(&program, config, SimEngine::Fused);
        rows.push(format!(
            "{:<16} {:>10} {:>10} {:>7.1}% {:>8.1}%",
            bench.name,
            p.total_ops(),
            p.dispatches,
            p.fused_fraction() * 100.0,
            p.dispatch_reduction() * 100.0
        ));
        rows_json.push(obj([
            ("name", Value::String(bench.name.to_string())),
            ("ops", Value::U64(p.total_ops())),
            ("dispatches", Value::U64(p.dispatches)),
            ("fused_pairs", Value::U64(p.fused_pairs)),
        ]));
        merged.merge(&p);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Simulator self-profile: {} catalog workloads, {} design point (scale {scale})\n\n",
        rows.len(),
        config.name
    ));
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>8} {:>9}\n",
        "workload", "ops", "dispatch", "fused", "disp.red"
    ));
    out.push_str(&"-".repeat(58));
    out.push('\n');
    for r in &rows {
        out.push_str(r);
        out.push('\n');
    }
    out.push('\n');

    let total = merged.total_ops().max(1);
    out.push_str("catalog-wide op mix:\n");
    for (k, class) in rppm::trace::OpClass::ALL.iter().enumerate() {
        let n = merged.op_freq[k];
        if n > 0 {
            out.push_str(&format!(
                "  {:<8} {:>6.2}%  {n}\n",
                class.to_string(),
                n as f64 * 100.0 / total as f64
            ));
        }
    }
    out.push_str(&format!("\ntop {TOP_PAIRS} dynamic op pairs:\n"));
    for (a, b, n) in merged.top_pairs(TOP_PAIRS) {
        out.push_str(&format!(
            "  {a:<8}-> {b:<8} {n:>10}  ({:.2}%)\n",
            n as f64 * 100.0 / total as f64
        ));
    }
    out.push_str(&format!(
        "\ndispatch actions: {} for {} ops ({} fused pairs, {:.2}% dispatch reduction)\n",
        merged.dispatches,
        merged.total_ops(),
        merged.fused_pairs,
        merged.dispatch_reduction() * 100.0
    ));
    let s = &merged.sync;
    out.push_str(&format!(
        "sync mix: {} creates, {} joins, {} barriers ({} via cond), {} lock/unlock, {} produce/consume\n",
        s.creates,
        s.joins,
        s.barriers + s.cond_barriers,
        s.cond_barriers,
        s.locks + s.unlocks,
        s.produces + s.consumes
    ));

    Report {
        name: "sim_profile",
        text: out,
        json: obj([
            ("scale", Value::F64(scale)),
            ("point", Value::String(config.name.clone())),
            ("workloads", arr(rows_json)),
            ("merged", profile_json(&merged)),
        ]),
    }
}
