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
//!
//! `rppm bench rss` measures peak resident memory (`VmHWM`) of the two
//! profiling paths — in-memory expansion versus out-of-core replay of a
//! recorded op stream under a deliberately small chunk budget — each in a
//! fresh child process (a high-water mark is only meaningful for a process
//! that did nothing else), and merges the results as `rss/*` rows into the
//! same capture, so the guard can gate the memory ratio exactly like a
//! time ratio.

use super::is_help;
use crate::args::{ArgStream, CliError};
use serde_json::Value;

const USAGE: &str = "usage: rppm bench guard FRESH.json [--baseline BENCH_speed.json]
       rppm bench rss [--workload NAME] [--scale S] [--out FRESH.json]

guard gates the benchmark ratios of a fresh CRITERION_JSON capture
(CRITERION_JSON=FRESH.json cargo bench -p rppm-bench) against the
committed baseline's `guards` array. Exits 1 on any failed guard.

rss records an op stream for the workload, then measures the peak
resident memory (Linux VmHWM) of profiling it twice in fresh child
processes: rss/profile_expand (in-memory expansion) and
rss/profile_replay (out-of-core replay, 256 KiB pool, no mmap). --out
merges both rows into a CRITERION_JSON capture; the values are BYTES,
not nanoseconds, but ratio guards are unit-agnostic.";

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
        return Err(args.error("missing bench action (expected guard or rss)"));
    };
    if is_help(&first) {
        println!("{USAGE}");
        return Ok(0);
    }
    match first.as_str() {
        "guard" => run_guard(args),
        "rss" => run_rss(args),
        // Internal: one measured child process of `bench rss`.
        "rss-child" => run_rss_child(args),
        other => Err(args.error(format!(
            "unknown bench action `{other}` (expected guard or rss)"
        ))),
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

/// Stream options the replay child measures under: a pool two orders of
/// magnitude below the default-scale stream size, mmap disabled so the
/// high-water mark counts heap pages only (a mapped file inflates `VmHWM`
/// by every page touched even though the kernel can drop them freely).
const RSS_CHUNK_OPS: usize = 512;
const RSS_POOL_BYTES: usize = 1 << 18;

fn run_rss(mut args: ArgStream) -> Result<i32, CliError> {
    let mut workload = "hotspot".to_string();
    let mut scale = 0.1f64;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        match arg.as_str() {
            "--workload" => workload = args.value_of(&arg)?,
            "--scale" => scale = args.parse_of(&arg)?,
            "--out" => out = Some(args.value_of(&arg)?),
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ => return Err(args.error(format!("unexpected argument `{}`", arg.into_positional()))),
        }
    }

    // Record the op stream once; both children profile the same trace.
    let program = rppm::workloads::by_name(&workload)
        .ok_or_else(|| CliError::user(format!("unknown workload `{workload}`")))?
        .build(&rppm::workloads::Params {
            scale,
            ..rppm::workloads::Params::full()
        });
    let path = std::env::temp_dir().join(format!("rppm-bench-rss-{}.rpt", std::process::id()));
    let guard = TempFile(path.clone());
    rppm::trace::write_program_ops(&program, &path)
        .map_err(|e| CliError::user(format!("recording op stream: {e}")))?;
    let stream_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let path_arg = path.to_string_lossy().into_owned();

    let expand = measure_child("expand", &[workload.clone(), format!("{scale}")])?;
    let replay = measure_child("replay", &[path_arg])?;
    drop(guard);

    println!(
        "rss/profile_expand: peak {} bytes (in-memory expansion, {workload} scale {scale})",
        expand.mean()
    );
    println!(
        "rss/profile_replay: peak {} bytes (out-of-core replay of a {stream_bytes}-byte stream, \
         {RSS_POOL_BYTES}-byte pool, chunks of {RSS_CHUNK_OPS} ops)",
        replay.mean()
    );
    println!(
        "replay/expand peak-RSS ratio: {:.3}",
        replay.mean() as f64 / expand.mean().max(1) as f64
    );
    if stream_bytes <= RSS_POOL_BYTES as u64 {
        eprintln!(
            "note: the recorded stream ({stream_bytes} bytes) fits the pool budget; \
             raise --scale for an out-of-core measurement"
        );
    }

    if let Some(path) = out {
        merge_capture(&path, &[&expand, &replay])?;
        println!("wrote {path}");
    }
    Ok(0)
}

/// The measured process: profiles once, prints its peak RSS in bytes.
fn run_rss_child(mut args: ArgStream) -> Result<i32, CliError> {
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        if arg.is_flag() {
            return Err(args.unknown(&arg));
        }
        positional.push(arg.into_positional());
    }
    let profile = match positional.first().map(String::as_str) {
        Some("expand") => {
            let [_, workload, scale] = positional.as_slice() else {
                return Err(args.error("rss-child expand WORKLOAD SCALE"));
            };
            let scale: f64 = scale
                .parse()
                .map_err(|e| CliError::user(format!("bad scale `{scale}`: {e}")))?;
            let program = rppm::workloads::by_name(workload)
                .ok_or_else(|| CliError::user(format!("unknown workload `{workload}`")))?
                .build(&rppm::workloads::Params {
                    scale,
                    ..rppm::workloads::Params::full()
                });
            rppm::profiler::profile(&program)
        }
        Some("replay") => {
            let [_, path] = positional.as_slice() else {
                return Err(args.error("rss-child replay FILE.rpt"));
            };
            let replay = rppm::trace::OpReplay::open_with(
                path,
                rppm::trace::StreamOptions {
                    chunk_ops: RSS_CHUNK_OPS,
                    pool_bytes: RSS_POOL_BYTES,
                    mmap: false,
                    ..rppm::trace::StreamOptions::default()
                },
            )
            .map_err(|e| CliError::user(format!("{path}: {e}")))?;
            rppm::profiler::profile(&replay)
        }
        _ => return Err(args.error("rss-child expects `expand` or `replay`")),
    };
    std::hint::black_box(&profile);
    println!("{}", peak_rss_bytes()?);
    Ok(0)
}

/// Runs `rppm bench rss-child MODE ARGS...` three times and collects the
/// printed peak-RSS samples under a capture-style row name.
fn measure_child(mode: &str, child_args: &[String]) -> Result<RssRow, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::user(format!("cannot locate own binary: {e}")))?;
    let mut samples = Vec::new();
    for _ in 0..3 {
        let output = std::process::Command::new(&exe)
            .arg("bench")
            .arg("rss-child")
            .arg(mode)
            .args(child_args)
            .output()
            .map_err(|e| CliError::user(format!("spawning rss child: {e}")))?;
        if !output.status.success() {
            return Err(CliError::user(format!(
                "rss child `{mode}` failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            )));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let bytes: u64 = text.trim().parse().map_err(|_| {
            CliError::user(format!(
                "rss child `{mode}` printed `{}`, expected peak bytes",
                text.trim()
            ))
        })?;
        samples.push(bytes);
    }
    Ok(RssRow {
        name: format!("rss/profile_{mode}"),
        samples,
    })
}

struct RssRow {
    name: String,
    samples: Vec<u64>,
}

impl RssRow {
    fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }
    fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
    fn mean(&self) -> u64 {
        if self.samples.is_empty() {
            0
        } else {
            self.samples.iter().sum::<u64>() / self.samples.len() as u64
        }
    }
}

/// Merges rows into a `CRITERION_JSON` capture the way `rppm load-gen`
/// does, replacing same-named entries and keeping everything else.
fn merge_capture(path: &str, rows: &[&RssRow]) -> Result<(), CliError> {
    let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .ok()
            .and_then(|v| v.as_object().map(<[_]>::to_vec))
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    for row in rows {
        let doc = Value::Object(vec![
            ("min_ns".to_string(), Value::U64(row.min())),
            ("mean_ns".to_string(), Value::U64(row.mean())),
            ("max_ns".to_string(), Value::U64(row.max())),
            ("samples".to_string(), Value::U64(row.samples.len() as u64)),
        ]);
        entries.retain(|(k, _)| k != &row.name);
        entries.push((row.name.clone(), doc));
    }
    let merged = serde_json::to_string(&Value::Object(entries))
        .map_err(|e| CliError::user(format!("serializing {path}: {e}")))?;
    std::fs::write(path, merged).map_err(|e| CliError::user(format!("writing {path}: {e}")))
}

/// This process's peak resident set size, from `/proc/self/status` —
/// Linux-only, like the CI runner this gate exists for.
fn peak_rss_bytes() -> Result<u64, CliError> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| {
        CliError::user(format!(
            "reading /proc/self/status (peak-RSS measurement is Linux-only): {e}"
        ))
    })?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .map_err(|_| CliError::user(format!("unparseable line `{line}`")))?;
            return Ok(kb * 1024);
        }
    }
    Err(CliError::user("no VmHWM line in /proc/self/status"))
}

/// Removes the recorded stream even when a child fails mid-measurement.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
