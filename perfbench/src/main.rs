//! `rppm-perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload profile-predict --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric, each with its value and unit). The
//! traced run also prints a table of the per-layer metrics with their
//! bases, and writes its spans under `.bench_work/spans/`.

use rppm_perfbench::inputs::DEFAULT_SEED;
use rppm_perfbench::measure::Run;
use rppm_perfbench::report::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rppm-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

workloads: profile-predict, validate-sim, serve-mixed
seeds: 1 by default; 7919 is held out from tuning, for confirming claims";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Calibration knobs change model output, so a run with any of them set
    // would not measure the program as shipped.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RPPM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("error: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }

    let work = PathBuf::from(".bench_work");
    let dir = work.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    // The service spools large uploads to the temporary directory; keep
    // them inside the working tree.
    std::env::set_var("TMPDIR", std::fs::canonicalize(&dir).unwrap_or(dir.clone()));
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
    };
    let outcome = rppm_perfbench::run_workload(&args.workload, &run);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for failure in outcome.failures.iter().take(10) {
        eprintln!("failed: {failure}");
    }
    let metrics = if args.trace {
        let spans_dir = work.join("spans");
        let file = spans_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&spans_dir)
            .and_then(|()| std::fs::write(&file, outcome.spans.to_json_lines()))
        {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
        report::select(&outcome.per_layer, &PER_LAYER, true)
    } else {
        report::select(&outcome.end_to_end, &END_TO_END, false)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        print!("{}", report::table(&metrics));
    }
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failures.len(), &metrics)
    );
    ExitCode::SUCCESS
}
