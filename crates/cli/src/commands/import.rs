//! `rppm import` — predict trace files across every design point, or
//! export a catalog workload as a trace file.

use super::{is_help, take_jobs};
use crate::args::{ArgStream, CliError};
use rppm::trace::DesignPoint;
use rppm::workloads::Params;
use rppm::Session;
use rppm_bench::{ExperimentPlan, Row};

const USAGE: &str = "usage: rppm import TRACE.json|TRACE.rpt... [--jobs N]
       rppm import --export NAME FILE [--scale S] [--seed N]

The first form predicts + simulates each trace file on all five Table IV
design points (JSON or RPT1 binary, auto-detected by magic bytes), then
counts the trace files and the profiling runs they took (twins of one
trace share one). The second form exports a built-in workload as a trace
file (`.rpt` / `.bin` extensions write the binary container).";

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut files = Vec::new();
    let mut jobs = None;
    let mut export: Option<(String, String)> = None;
    let mut params = Params::full();
    // The first generation flag seen: only --export generates a workload.
    let mut generation_flag = None;
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if let Some(n) = take_jobs(&mut args, &arg)? {
            jobs = Some(n);
            continue;
        }
        match arg.as_str() {
            "--export" => {
                let name = args.value_of(&arg)?;
                let Some(file) = args.next().filter(|a| !a.is_flag()) else {
                    return Err(args.error("--export needs a workload name and an output file"));
                };
                export = Some((name, file.into_positional()));
            }
            "--scale" => {
                params.scale = args.parse_of(&arg)?;
                generation_flag.get_or_insert("--scale");
            }
            "--seed" => {
                params.seed = args.parse_of(&arg)?;
                generation_flag.get_or_insert("--seed");
            }
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ => files.push(arg.into_positional()),
        }
    }

    if let Some((name, file)) = export {
        if !files.is_empty() {
            return Err(args.error(format!(
                "cannot mix --export with trace files to import ({})",
                files.join(", ")
            )));
        }
        if jobs.is_some() {
            return Err(args
                .error("--jobs only applies to importing trace files (--export writes one file)"));
        }
        let bench = rppm::workloads::by_name(&name)
            .ok_or_else(|| CliError::user(rppm::Error::UnknownWorkload { name: name.clone() }))?;
        let program = bench.build(&params);
        if rppm::trace::has_binary_extension(&file) {
            rppm::trace::write_program_binary(&program, &file).map_err(CliError::user)?;
        } else {
            rppm::trace::write_program(&program, &file).map_err(CliError::user)?;
        }
        println!(
            "exported `{}` (scale {}, seed {}, {} ops, {} threads) to {file}",
            name,
            params.scale,
            params.seed,
            program.total_ops(),
            program.num_threads()
        );
        return Ok(0);
    }

    if let Some(flag) = generation_flag {
        return Err(args.error(format!(
            "{flag} only applies to --export (a trace file's stream is fixed)"
        )));
    }
    if files.is_empty() {
        return Err(args.error("nothing to do: pass trace files to import, or --export NAME FILE"));
    }

    let session = Session::builder()
        .jobs(jobs.unwrap_or_else(rppm::core::default_jobs))
        .build();
    let traces = files
        .iter()
        .map(|f| session.import(f).map_err(CliError::user))
        .collect::<Result<_, _>>()?;

    let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
    let runs = ExperimentPlan::cross(traces, configs).run(session.jobs());

    for (run, file) in runs.iter().zip(&files) {
        let program = run.profile.program();
        let mut out = String::new();
        out.push_str(&format!(
            "{} (from {file}, {} threads, {} ops)\n",
            run.workload.name(),
            program.num_threads(),
            program.total_ops(),
        ));
        Row::new()
            .cell(10, "design")
            .rcell(14, "sim cycles")
            .rcell(14, "RPPM cycles")
            .rcell(9, "error")
            .line(&mut out);
        out.push_str(&"-".repeat(51));
        out.push('\n');
        for (dp, cell) in DesignPoint::ALL.iter().zip(&run.cells) {
            Row::new()
                .cell(10, dp.to_string())
                .rcell(14, format!("{:.0}", cell.sim.total_cycles))
                .rcell(14, format!("{:.0}", cell.rppm.total_cycles))
                .rcell(9, format!("{:.1}%", cell.rppm_error() * 100.0))
                .line(&mut out);
        }
        println!("{out}");
    }
    println!(
        "{} trace file(s), {} profiling run(s)",
        files.len(),
        session.profiles_collected()
    );
    Ok(0)
}
