//! `rppm report <name> [args]` — print one table/figure of the paper.

use super::{is_help, take_jobs};
use crate::args::{parse_with, ArgStream, CliError};
use rppm::Session;
use rppm_bench::{reports, RunCtx};

const USAGE: &str = "usage: rppm report <name> [args] [--jobs N] [--machine FILE]

reports (and their optional positional arguments):
  table1 [iterations]     error accumulation study      (default 1000000)
  table2 [scale]          per-suite error summary       (default 1.0)
  table3 [scale]          synchronization behaviour     (default 1.0)
  table4                  design-space design points
  table5 [scale]          DSE: predicted vs actual      (default 0.3)
  fig4   [scale]          MAIN/CRIT/RPPM error per benchmark (default 0.5)
  fig5   [scale] [bench]  predicted vs simulated CPI stacks  (default 0.5)
  fig6   [scale]          scaling behaviour categories  (default 0.3)
  ablation [scale]        model-component ablation      (default 0.2)
  dse    [scale]          batched DSE engine: optimum, frontier,
                          deficiency on the tiny space (default 0.3)
  sim_profile [scale]     simulator self-profile: op mix, hot pairs,
                          fusion/dispatch statistics (default 0.3)

--jobs N runs the report's workloads on N worker threads; table3, table5,
fig4, fig5, fig6, ablation and dse take it. --machine FILE evaluates
fig4, fig5, fig6, ablation, dse (the base of its space) and sim_profile
on the `.machine` description in FILE instead of the paper's base design
point. Every other report rejects either flag.

The report text is printed to stdout, byte-identical to the retired
per-report binaries.";

/// Every report: its name, how many positional arguments it takes, and
/// whether it reads `--jobs` and `--machine`.
const REPORTS: [(&str, usize, bool, bool); 11] = [
    ("table1", 1, false, false),
    ("table2", 1, false, false),
    ("table3", 1, true, false),
    ("table4", 0, false, false),
    ("table5", 1, true, false),
    ("fig4", 1, true, true),
    ("fig5", 2, true, true),
    ("fig6", 1, true, true),
    ("ablation", 1, true, true),
    ("dse", 1, true, true),
    ("sim_profile", 1, false, true),
];

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut jobs = None;
    let mut machine: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if let Some(n) = take_jobs(&mut args, &arg)? {
            jobs = Some(n);
            continue;
        }
        if arg.as_str() == "--machine" {
            machine = Some(args.value_of(&arg)?);
            continue;
        }
        if arg.is_flag() {
            return Err(args.unknown(&arg));
        }
        positional.push(arg.into_positional());
    }
    let Some((name, rest)) = positional.split_first() else {
        return Err(args.error("missing report name"));
    };
    let Some(&(_, max_args, takes_jobs, takes_machine)) =
        REPORTS.iter().find(|(report, ..)| report == name)
    else {
        return Err(args.error(format!("unknown report `{name}`")));
    };
    if let Some(surplus) = rest.get(max_args) {
        return Err(args.error(format!("unexpected argument `{surplus}`")));
    }
    if jobs.is_some() && !takes_jobs {
        return Err(args.error(format!("report `{name}` does not take --jobs")));
    }
    if machine.is_some() && !takes_machine {
        return Err(args.error(format!("report `{name}` does not take --machine")));
    }

    let scale_arg = |default: f64| -> Result<f64, CliError> {
        rest.first()
            .map(|s| parse_with(s, "scale", USAGE))
            .unwrap_or(Ok(default))
    };

    let session = Session::builder()
        .jobs(jobs.unwrap_or_else(rppm::core::default_jobs))
        .build();
    let mut ctx = RunCtx::new(&session);
    if let Some(path) = &machine {
        ctx = ctx.with_base(rppm::trace::read_machine(path).map_err(CliError::user)?);
    }
    let report = match name.as_str() {
        "table1" => {
            let iterations = rest
                .first()
                .map(|s| parse_with(s, "iterations", USAGE))
                .unwrap_or(Ok(1_000_000))?;
            reports::table1(iterations)
        }
        "table2" => reports::table2(scale_arg(1.0)?),
        "table3" => reports::table3(scale_arg(1.0)?, &ctx),
        "table4" => reports::table4(),
        "table5" => reports::table5(scale_arg(0.3)?, &ctx),
        "fig4" => reports::fig4(scale_arg(0.5)?, &ctx),
        "fig5" => reports::fig5(scale_arg(0.5)?, rest.get(1).map(String::as_str), &ctx),
        "fig6" => reports::fig6(scale_arg(0.3)?, &ctx),
        "ablation" => reports::ablation(scale_arg(0.2)?, &ctx),
        "dse" => reports::dse(scale_arg(0.3)?, &ctx),
        "sim_profile" => reports::sim_profile(scale_arg(0.3)?, &ctx),
        other => unreachable!("report `{other}` is missing from REPORTS"),
    };
    print!("{}", report.text);
    Ok(0)
}
