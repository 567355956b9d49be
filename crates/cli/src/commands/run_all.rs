//! `rppm run-all` — regenerate every report under `results/`, in-process
//! and in parallel, with every report opening its workloads in one
//! session.

use super::{is_help, take_jobs};
use crate::args::{parse_with, ArgStream, CliError};
use rppm::Session;
use rppm_bench::reports::{self, Report};
use rppm_bench::RunCtx;

const USAGE: &str = "usage: rppm run-all [scale] [dse_scale] [--jobs N] [--import FILE]...

Regenerates every table/figure (text + machine-readable JSON twin) under
results/. All reports share one session, so each (workload, params)
pair is profiled exactly once per invocation. Defaults: scale 0.5,
dse_scale 0.3, one worker per core.

Each --import names a trace file (JSON interchange or RPT1 binary,
auto-detected by magic bytes); imported workloads join every
workload-running report as first-class rows.";

/// A named, deferred report job.
type ReportJob<'a> = (&'a str, Box<dyn FnOnce() -> Report + 'a>);

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut positional = Vec::new();
    let mut jobs = rppm::core::default_jobs();
    let mut import_paths = Vec::new();
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if let Some(n) = take_jobs(&mut args, &arg)? {
            jobs = n;
            continue;
        }
        if arg.as_str() == "--import" {
            import_paths.push(args.value_of(&arg)?);
            continue;
        }
        if arg.is_flag() {
            return Err(args.unknown(&arg));
        }
        positional.push(arg.into_positional());
    }
    if positional.len() > 2 {
        return Err(args.error(format!("unexpected argument `{}`", positional[2])));
    }
    let scale: f64 = positional
        .first()
        .map(|s| parse_with(s, "scale", USAGE))
        .unwrap_or(Ok(0.5))?;
    let dse_scale: f64 = positional
        .get(1)
        .map(|s| parse_with(s, "dse_scale", USAGE))
        .unwrap_or(Ok(0.3))?;

    let session = Session::builder().jobs(jobs).build();
    let mut imports = Vec::new();
    for path in &import_paths {
        let handle = session.import(path).map_err(CliError::user)?;
        eprintln!("imported {path} as workload `{}`", handle.name());
        imports.push(handle);
    }

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| {
        CliError::user(rppm::Error::Io {
            path: dir.to_path_buf(),
            source: e,
        })
    })?;

    let ctx = RunCtx::new(&session).with_imports(imports);
    let t0 = std::time::Instant::now();

    let jobs_list: Vec<ReportJob<'_>> = vec![
        ("table1", Box::new(|| reports::table1(1_000_000))),
        ("table2", Box::new(|| reports::table2(1.0))),
        ("table3", Box::new(|| reports::table3(1.0, &ctx))),
        ("table4", Box::new(reports::table4)),
        ("fig4", Box::new(|| reports::fig4(scale, &ctx))),
        ("fig5", Box::new(|| reports::fig5(scale, None, &ctx))),
        ("table5", Box::new(|| reports::table5(dse_scale, &ctx))),
        ("fig6", Box::new(|| reports::fig6(dse_scale, &ctx))),
        ("ablation", Box::new(|| reports::ablation(dse_scale, &ctx))),
        ("dse", Box::new(|| reports::dse(dse_scale, &ctx))),
        (
            "sim_profile",
            Box::new(|| reports::sim_profile(dse_scale, &ctx)),
        ),
    ];
    for (name, job) in jobs_list {
        eprintln!("running {name} ({jobs} jobs)...");
        let report = job();
        assert_eq!(report.name, name, "report name matches job list");
        report.write_into(dir).map_err(|e| {
            CliError::user(rppm::Error::Io {
                path: dir.join(name),
                source: e,
            })
        })?;
        eprintln!("  -> results/{name}.txt + results/{name}.json");
    }

    eprintln!(
        "all experiments regenerated under results/ in {:.1?} \
         ({} workloads profiled once each, {} profile() calls)",
        t0.elapsed(),
        session.cache().len(),
        session.profiles_collected(),
    );
    Ok(0)
}
