//! The unified `rppm` command-line interface.
//!
//! One binary drives every workflow the old per-report binaries covered:
//!
//! ```text
//! rppm report <name> [args]   # one table/figure of the paper
//! rppm run-all [...]          # regenerate everything under results/
//! rppm import [...]           # predict trace files / export workloads
//! rppm convert IN OUT         # JSON <-> RPT1 container conversion
//! rppm dse WORKLOAD [...]     # million-point design-space exploration
//! rppm golden diff|update     # accuracy-regression gate / baselines
//! rppm bench guard FRESH.json # perf-regression gate
//! ```
//!
//! User errors (missing files, bad magic, unknown workloads, malformed
//! flags) exit with status 2 and a one-line `error: ...` message — never a
//! panic or a backtrace. Regression gates that detect drift exit 1.

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::CliError;

const USAGE: &str = "rppm — RPPM: profile once, predict many (ISPASS 2019 reproduction)

usage: rppm <command> [args]

commands:
  report <name> [args]    print one report: table1|table2|table3|table4|
                          table5|fig4|fig5|fig6|ablation|dse|sim_profile
  run-all [args]          regenerate every report under results/ in-process
  import [args]           predict trace files across all design points, or
                          export a catalog workload as a trace file
  convert IN OUT          convert a trace between the JSON and RPT1 containers
                          (--to ops also records the expanded micro-ops)
  trace-info FILE...      inspect RPT1 containers: version, per-section byte
                          counts, recorded op-stream totals
  dse WORKLOAD [args]     sweep a 10^5-point design space from one profile:
                          batched Eq.1, constraint filters, Pareto frontier
  sim-profile [args]      the simulator profiling itself: op mix, hot op
                          pairs, fusion/dispatch stats (PGO observation)
  serve [args]            long-lived HTTP prediction service over the
                          profile-once cache (bounded memory, job queue)
  load-gen [args]         benchmark client for `rppm serve`; emits a
                          CRITERION_JSON capture for `rppm bench guard`
  golden diff|update      accuracy-regression gate over results/golden/
  bench guard FRESH.json  perf-regression gate over BENCH_speed.json ratios
  help                    show this message

run `rppm <command> --help` for each command's usage.";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        println!("{USAGE}");
        return 0;
    }
    let command = argv.remove(0);
    let result = match command.as_str() {
        "report" => commands::report::run(argv),
        "run-all" => commands::run_all::run(argv),
        "import" => commands::import::run(argv),
        "convert" => commands::convert::run(argv),
        "trace-info" => commands::trace_info::run(argv),
        "dse" => commands::dse::run(argv),
        "sim-profile" => commands::sim_profile::run(argv),
        "serve" => commands::serve::run(argv),
        "load-gen" => commands::load_gen::run(argv),
        "golden" => commands::golden::run(argv),
        "bench" => commands::bench_guard::run(argv),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(CliError::usage(format!("unknown command `{other}`"), USAGE)),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage { message, usage }) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{usage}");
            2
        }
        Err(CliError::User(message)) => {
            eprintln!("error: {message}");
            2
        }
    }
}
