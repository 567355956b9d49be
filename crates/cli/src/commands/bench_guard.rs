//! `rppm bench` — the CI performance-regression tooling.
//!
//! `rppm bench guard FRESH.json` compares a fresh `CRITERION_JSON` capture
//! against the committed `BENCH_speed.json` baseline. Absolute nanoseconds
//! are machine-dependent, so the gate checks **ratios between benchmarks
//! of the same run**: each entry of the baseline's `guards` array names a
//! numerator and denominator benchmark plus a generous `max_regression`
//! factor, and the guard fails (exit 1) when
//!
//! ```text
//! fresh(num)/fresh(den)  >  max_regression × baseline(num)/baseline(den)
//! ```
//!
//! where baseline values are the `after_mean_ns` fields.
//!
//! A second guard form checks the committed baseline itself: entries with a
//! `bench` field assert `after_mean_ns / before_mean_ns <= max_after_over_before`
//! for that benchmark — pinning a claimed cross-version improvement (the
//! before/after columns are captured back-to-back on one machine, the only
//! honest cross-version comparison a single fresh binary cannot make).

use super::is_help;
use crate::args::{ArgStream, CliError};
use serde_json::Value;

const USAGE: &str = "usage: rppm bench guard FRESH.json [--baseline BENCH_speed.json]

guard gates the benchmark ratios of a fresh CRITERION_JSON capture
(CRITERION_JSON=FRESH.json cargo bench -p rppm-bench) against the
committed baseline's `guards` array. Exits 1 on any failed guard.";

/// Mean ns of `name` in a fresh `CRITERION_JSON` capture.
fn fresh_mean(fresh: &[(String, Value)], name: &str) -> Option<f64> {
    Value::get(fresh, name)?
        .as_object()
        .and_then(|e| Value::get(e, "mean_ns"))
        .and_then(Value::as_f64)
}

/// Baseline (`after_mean_ns`) of `name` in BENCH_speed.json.
fn baseline_mean(benchmarks: &[(String, Value)], name: &str) -> Option<f64> {
    Value::get(benchmarks, name)?
        .as_object()
        .and_then(|e| Value::get(e, "after_mean_ns"))
        .and_then(Value::as_f64)
}

fn load_object(path: &str) -> Result<Vec<(String, Value)>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::user(format!("cannot read `{path}`: {e}")))?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| CliError::user(format!("`{path}` is not valid JSON: {e}")))?;
    Ok(value
        .as_object()
        .ok_or_else(|| CliError::user(format!("`{path}` is not a JSON object")))?
        .to_vec())
}

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let Some(first) = args.next() else {
        return Err(args.error("missing bench action (expected guard)"));
    };
    if is_help(&first) {
        println!("{USAGE}");
        return Ok(0);
    }
    match first.as_str() {
        "guard" => run_guard(args),
        other => Err(args.error(format!("unknown bench action `{other}` (expected guard)"))),
    }
}

fn run_guard(mut args: ArgStream) -> Result<i32, CliError> {
    let mut fresh_path: Option<String> = None;
    let mut baseline_path = "BENCH_speed.json".to_string();
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        match arg.as_str() {
            "--baseline" => baseline_path = args.value_of(&arg)?,
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ if fresh_path.is_none() => fresh_path = Some(arg.into_positional()),
            _ => return Err(args.error("exactly one fresh CRITERION_JSON capture expected")),
        }
    }
    let fresh_path =
        fresh_path.ok_or_else(|| args.error("missing the fresh CRITERION_JSON capture path"))?;

    let fresh = load_object(&fresh_path)?;
    let baseline = load_object(&baseline_path)?;
    let benchmarks = Value::get(&baseline, "benchmarks")
        .and_then(Value::as_object)
        .ok_or_else(|| CliError::user(format!("`{baseline_path}` has no `benchmarks` object")))?;
    let guards = Value::get(&baseline, "guards")
        .and_then(Value::as_array)
        .ok_or_else(|| CliError::user(format!("`{baseline_path}` has no `guards` array")))?;

    let mut failures = 0;
    println!("perf-regression gate: {fresh_path} vs {baseline_path}");
    for guard in guards {
        let entries = guard
            .as_object()
            .ok_or_else(|| CliError::user("guard entries must be objects"))?;
        let get_str = |k: &str| {
            Value::get(entries, k)
                .and_then(Value::as_str)
                .ok_or_else(|| CliError::user(format!("guard missing string field `{k}`")))
        };
        let name = get_str("name")?;

        // Baseline self-check form: `bench` + `max_after_over_before`.
        if let Some(bench) = Value::get(entries, "bench").and_then(Value::as_str) {
            let max_ratio = Value::get(entries, "max_after_over_before")
                .and_then(Value::as_f64)
                .ok_or_else(|| {
                    CliError::user(format!("guard `{name}` missing `max_after_over_before`"))
                })?;
            let entry = Value::get(benchmarks, bench)
                .and_then(Value::as_object)
                .ok_or_else(|| CliError::user(format!("guard `{name}`: no benchmark `{bench}`")))?;
            let before = Value::get(entry, "before_mean_ns").and_then(Value::as_f64);
            let after = Value::get(entry, "after_mean_ns").and_then(Value::as_f64);
            let (Some(before), Some(after)) = (before, after) else {
                return Err(CliError::user(format!(
                    "guard `{name}`: `{bench}` lacks before/after means"
                )));
            };
            let ratio = after / before;
            let verdict = if ratio <= max_ratio { "ok  " } else { "FAIL" };
            println!(
                "  {verdict} {name}: committed {bench} after/before = {ratio:.3} \
                 (limit {max_ratio}, i.e. >= {:.2}x speedup)",
                1.0 / max_ratio
            );
            if ratio > max_ratio {
                failures += 1;
            }
            continue;
        }

        let num = get_str("num")?;
        let den = get_str("den")?;
        let max_regression = Value::get(entries, "max_regression")
            .and_then(Value::as_f64)
            .ok_or_else(|| CliError::user(format!("guard `{name}` missing `max_regression`")))?;

        let base_ratio = match (
            baseline_mean(benchmarks, num),
            baseline_mean(benchmarks, den),
        ) {
            (Some(n), Some(d)) if d > 0.0 => n / d,
            _ => {
                return Err(CliError::user(format!(
                    "guard `{name}`: baseline lacks after_mean_ns for `{num}` / `{den}`"
                )))
            }
        };
        let (fresh_num, fresh_den) = match (fresh_mean(&fresh, num), fresh_mean(&fresh, den)) {
            (Some(n), Some(d)) if d > 0.0 => (n, d),
            _ => {
                println!("  FAIL {name}: fresh capture lacks `{num}` or `{den}` — was the bench run with CRITERION_JSON?");
                failures += 1;
                continue;
            }
        };
        let fresh_ratio = fresh_num / fresh_den;
        let limit = max_regression * base_ratio;
        let verdict = if fresh_ratio <= limit { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {name}: {num} / {den} = {fresh_ratio:.3} \
             (baseline {base_ratio:.3}, limit {limit:.3} = {max_regression}x)"
        );
        if fresh_ratio > limit {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!(
            "{failures} perf guard(s) failed; if the regression is intentional, refresh \
             BENCH_speed.json (CRITERION_JSON=out.json cargo bench -p rppm-bench) and commit it"
        );
        return Ok(1);
    }
    println!("all perf guards passed");
    Ok(0)
}
