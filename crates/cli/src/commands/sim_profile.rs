//! `rppm sim-profile` — the simulator profiling itself.
//!
//! The PGO loop's observation half: runs a workload (or the whole catalog)
//! through the golden simulator with the self-profiling probe attached and
//! prints what the engine executed — op-class frequencies, the dynamic
//! op-pair histogram that nominates superinstruction candidates, the sync
//! mix and the dispatch/fusion statistics. `--reference` swaps in the naive
//! one-op-at-a-time reference engine, whose profile is the "before" picture
//! (every op is its own dispatch, nothing fuses).

use super::is_help;
use crate::args::{ArgStream, CliError};
use rppm::sim::{simulate_profiled, SimEngine, SimProfile};
use rppm::trace::DesignPoint;
use rppm::workloads::Params;
use serde_json::Value;

const USAGE: &str = "usage: rppm sim-profile [WORKLOAD] [--catalog] [--scale S] [--seed N]
       [--point smallest|small|base|big|biggest] [--machine FILE] [--top N]
       [--reference] [--json] [--out FILE]

Runs WORKLOAD (or, with --catalog, every catalog workload, merging the
profiles) through the golden simulator with the self-profiling probe
attached and reports the engine's own execution profile: op-class mix,
hot dynamic op pairs (the superinstruction-fusion candidates), sync-op
mix, per-thread block shape and dispatch/fusion statistics.

--reference profiles the naive one-op-at-a-time reference engine instead
(the PGO \"before\": one dispatch per op, zero fusion). --point picks the
machine (default base); --machine FILE simulates the `.machine`
description in FILE instead and overrides --point. --top N sets how many
op pairs are listed (default 8). --json prints the machine-readable
document instead of text; --out FILE additionally writes that document
to FILE.";

fn render_text(scope: &str, engine: &str, point: &str, p: &SimProfile, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{scope}: {} ops through the {engine} engine @ {point}\n\n",
        p.total_ops()
    ));
    let total = p.total_ops().max(1);
    out.push_str("op mix:\n");
    for (k, class) in rppm::trace::OpClass::ALL.iter().enumerate() {
        let n = p.op_freq[k];
        if n > 0 {
            out.push_str(&format!(
                "  {class:<8} {:>6.2}%  {n}\n",
                n as f64 * 100.0 / total as f64
            ));
        }
    }
    out.push_str(&format!("\ntop {top} dynamic op pairs:\n"));
    for (a, b, n) in p.top_pairs(top) {
        out.push_str(&format!(
            "  {a:<8}-> {b:<8} {n:>10}  ({:.2}%)\n",
            n as f64 * 100.0 / total as f64
        ));
    }
    out.push_str(&format!(
        "\ndispatch: {} actions for {} ops | {} fused pairs | {:.2}% of ops fused | {:.2}% dispatch reduction\n",
        p.dispatches,
        p.total_ops(),
        p.fused_pairs,
        p.fused_fraction() * 100.0,
        p.dispatch_reduction() * 100.0
    ));
    let s = &p.sync;
    out.push_str(&format!(
        "sync mix: {} creates, {} joins, {} barriers ({} via cond), {} locks, {} unlocks, {} produces, {} consumes\n",
        s.creates, s.joins, s.barriers, s.cond_barriers, s.locks, s.unlocks, s.produces, s.consumes
    ));
    out.push_str("\nthreads (ops / uninterrupted runs / longest run / syncs):\n");
    for (i, t) in p.threads.iter().enumerate() {
        out.push_str(&format!(
            "  t{i:<3} {:>10} {:>8} {:>10} {:>6}\n",
            t.ops, t.runs, t.longest_run, t.syncs
        ));
    }
    out
}

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut workload: Option<String> = None;
    let mut catalog = false;
    let mut scale = 1.0f64;
    let mut seed = 0x5EEDu64;
    let mut point = DesignPoint::Base;
    let mut machine: Option<String> = None;
    let mut top = 8usize;
    let mut sim_engine = SimEngine::Fused;
    let mut json = false;
    let mut out_file: Option<String> = None;
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        match arg.as_str() {
            "--catalog" => catalog = true,
            "--scale" => scale = args.parse_of(&arg)?,
            "--seed" => seed = args.parse_of(&arg)?,
            "--point" => point = args.value_of(&arg)?.parse().map_err(|e| args.error(e))?,
            "--machine" => machine = Some(args.value_of(&arg)?),
            "--top" => top = args.parse_of(&arg)?,
            "--reference" => sim_engine = SimEngine::Reference,
            "--json" => json = true,
            "--out" => out_file = Some(args.value_of(&arg)?),
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ if workload.is_none() => workload = Some(arg.into_positional()),
            _ => return Err(args.error(format!("unexpected argument `{}`", arg.into_positional()))),
        }
    }
    if catalog && workload.is_some() {
        return Err(args.error("pass either WORKLOAD or --catalog, not both"));
    }
    if !catalog && workload.is_none() {
        return Err(args.error("missing the workload name (or pass --catalog)"));
    }

    let params = Params { scale, seed };
    let config = match &machine {
        Some(path) => rppm::trace::read_machine(path).map_err(CliError::user)?,
        None => point.config(),
    };
    let engine = match sim_engine {
        SimEngine::Fused => "optimized",
        SimEngine::Reference => "reference",
    };

    let (scope, profile, per_workload) = if catalog {
        let mut merged = SimProfile::default();
        let mut rows = Vec::new();
        for bench in rppm::workloads::all() {
            let program = bench.build(&params);
            let p = simulate_profiled(&program, &config, sim_engine).1;
            rows.push(Value::Object(vec![
                ("name".into(), Value::String(bench.name.to_string())),
                ("ops".into(), Value::U64(p.total_ops())),
                ("dispatches".into(), Value::U64(p.dispatches)),
                ("fused_pairs".into(), Value::U64(p.fused_pairs)),
            ]));
            merged.merge(&p);
        }
        (format!("catalog ({} workloads)", rows.len()), merged, rows)
    } else {
        let name = workload.unwrap();
        let bench = rppm::workloads::all()
            .into_iter()
            .find(|b| b.name == name)
            .ok_or_else(|| args.error(format!("unknown workload `{name}`")))?;
        let program = bench.build(&params);
        let p = simulate_profiled(&program, &config, sim_engine).1;
        (name, p, Vec::new())
    };

    let mut doc_entries = vec![
        ("scope".into(), Value::String(scope.clone())),
        ("engine".into(), Value::String(engine.to_string())),
        ("point".into(), Value::String(config.name.clone())),
        ("scale".into(), Value::F64(scale)),
        ("seed".into(), Value::U64(seed)),
        (
            "profile".into(),
            serde_json::from_str(&profile.to_json_string()).expect("SimProfile JSON parses"),
        ),
    ];
    if !per_workload.is_empty() {
        doc_entries.push(("workloads".into(), Value::Array(per_workload)));
    }
    let doc = Value::Object(doc_entries);

    if let Some(path) = &out_file {
        let body = serde_json::to_string(&doc).expect("doc serializes");
        std::fs::write(path, body).map_err(|e| {
            CliError::user(rppm::Error::Io {
                path: path.into(),
                source: e,
            })
        })?;
        eprintln!("wrote {path}");
    }
    if json {
        println!("{}", serde_json::to_string(&doc).expect("doc serializes"));
    } else {
        print!(
            "{}",
            render_text(&scope, engine, &config.name, &profile, top)
        );
    }
    Ok(0)
}
