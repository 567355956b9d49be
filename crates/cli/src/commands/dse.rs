//! `rppm dse` — million-point design-space exploration from one profile.

use super::{is_help, take_jobs};
use crate::args::{ArgStream, CliError};
use rppm::core::{find_best, sweep, ConfigSpace, Constraints, DseError};
use rppm::docs::{describe_config as describe, dse_best_doc, dse_bounds_ladder, dse_sweep_doc};
use rppm::trace::{read_machine, DesignPoint};
use rppm::Session;

const USAGE: &str = "usage: rppm dse WORKLOAD [--scale S] [--seed N] [--jobs N]
       [--max-area A] [--max-power P] [--bound B] [--tiny] [--best-only]
       [--machine FILE] [--json]

Profiles WORKLOAD once, precomputes the configuration-independent model
state, then sweeps the default 108000-point design space (core family x
frequency x L1/L2/L3 x MSHRs x predictor budget) through the batched
Equation-1 evaluator. Prints the predicted optimum, the Pareto frontier
over (time, area, power) and the candidate counts within --bound
(default 0.05) of the optimum.

--max-area / --max-power filter points by first-order resource proxies
(arbitrary units; see rppm_core::area_proxy). --tiny swaps in the fixed
12-point golden space. --best-only skips the frontier and hunts only the
optimum, pruning points whose throughput lower bound cannot beat the
running best. --machine FILE builds the space around the `.machine`
description in FILE instead of the paper's base design point (the swept
axes override its core geometry; everything else is inherited). --json
emits the machine-readable twin.";

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut workload: Option<String> = None;
    let mut scale = 1.0f64;
    let mut seed = 1u64;
    let mut jobs = rppm::core::default_jobs();
    let mut constraints = Constraints::none();
    let mut bound = 0.05f64;
    let mut tiny = false;
    let mut best_only = false;
    let mut machine: Option<String> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if let Some(n) = take_jobs(&mut args, &arg)? {
            jobs = n;
            continue;
        }
        match arg.as_str() {
            "--scale" => scale = args.parse_of(&arg)?,
            "--seed" => seed = args.parse_of(&arg)?,
            "--max-area" => constraints.max_area = Some(args.parse_of(&arg)?),
            "--max-power" => constraints.max_power = Some(args.parse_of(&arg)?),
            "--bound" => bound = args.parse_of(&arg)?,
            "--tiny" => tiny = true,
            "--best-only" => best_only = true,
            "--machine" => machine = Some(args.value_of(&arg)?),
            "--json" => json = true,
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ if workload.is_none() => workload = Some(arg.into_positional()),
            _ => return Err(args.error(format!("unexpected argument `{}`", arg.into_positional()))),
        }
    }
    let workload = workload.ok_or_else(|| args.error("missing the workload name"))?;
    if !(0.0..1.0).contains(&bound) {
        return Err(args.error(format!("--bound {bound} is not in [0, 1)")));
    }

    let session = Session::builder().jobs(jobs).build();
    let profile = session
        .workload(&workload)
        .map_err(CliError::user)?
        .scale(scale)
        .seed(seed)
        .profile();
    let prepared = profile.prepared();
    let base = match &machine {
        Some(path) => read_machine(path).map_err(CliError::user)?,
        None => DesignPoint::Base.config(),
    };
    let space = if tiny {
        ConfigSpace::tiny_from(base)
    } else {
        ConfigSpace::default_space_from(base)
    };

    let dse_err = |e: DseError| CliError::user(format!("{workload}: {e}"));

    if best_only {
        let out = find_best(prepared, &space, &constraints, bound, jobs).map_err(dse_err)?;
        let cfg = space.config(out.best.index);
        if json {
            let doc = dse_best_doc(&workload, &space, &out);
            println!("{}", serde_json::to_string(&doc).expect("doc serializes"));
        } else {
            println!(
                "{workload}: {} points, {} feasible, {} pruned without evaluation",
                out.points, out.feasible, out.pruned
            );
            println!(
                "best: #{} {} -> {:.6} ms (area {:.1}, power {:.1})",
                out.best.index,
                describe(&cfg),
                out.best.seconds * 1e3,
                out.best.area,
                out.best.power
            );
            println!(
                "{} candidate design(s) within {:.0}% of the predicted optimum",
                out.candidates,
                out.bound * 100.0
            );
        }
        return Ok(0);
    }

    let bounds = dse_bounds_ladder(bound);
    let out = sweep(prepared, &space, &constraints, &bounds, jobs).map_err(dse_err)?;

    if json {
        let doc = dse_sweep_doc(&workload, &space, &out);
        println!("{}", serde_json::to_string(&doc).expect("doc serializes"));
        return Ok(0);
    }

    println!(
        "{workload}: swept {} of {} design points ({} infeasible under the constraints)",
        out.feasible,
        out.points,
        out.points - out.feasible
    );
    println!(
        "best: #{} {} -> {:.6} ms",
        out.best.index,
        describe(&space.config(out.best.index)),
        out.best.seconds * 1e3
    );
    print!("candidates within bound:");
    for &(b, n) in &out.candidates {
        print!("  <{:.0}%: {n}", b * 100.0);
    }
    println!();
    println!();
    println!(
        "Pareto frontier over (time, area, power): {} point(s)",
        out.frontier.len()
    );
    const SHOWN: usize = 20;
    println!(
        "{:>8}  {:>12} {:>8} {:>8}  config",
        "index", "time (ms)", "area", "power"
    );
    for p in out.frontier.iter().take(SHOWN) {
        println!(
            "{:>8}  {:>12.6} {:>8.1} {:>8.1}  {}",
            p.index,
            p.seconds * 1e3,
            p.area,
            p.power,
            describe(&space.config(p.index))
        );
    }
    if out.frontier.len() > SHOWN {
        println!(
            "... {} more (use --json for all)",
            out.frontier.len() - SHOWN
        );
    }
    Ok(0)
}
