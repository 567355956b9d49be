//! `rppm trace-info` — inspect an `RPT1` container without decoding it.

use super::is_help;
use crate::args::{ArgStream, CliError};

const USAGE: &str = "usage: rppm trace-info FILE.rpt... [--check-replay]
                      [--chunk-ops N] [--pool-bytes N] [--no-mmap]

Scans each RPT1 container and prints its format version, workload identity
and a per-section breakdown: tag, kind, section count and payload bytes.
Version-3 containers written by `rppm convert --ops` additionally report
the recorded op stream (op-run / op-sync / op-meta sections). Malformed or
truncated files exit 2 with a one-line error.

--check-replay opens each file's op stream out-of-core (under the given
chunk/pool memory budget), profiles the replayed stream and the in-memory
program, and diffs the two profiles; any divergence exits 1.";

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut files = Vec::new();
    let mut check_replay = false;
    let mut options = rppm::trace::StreamOptions::default();
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        match arg.as_str() {
            "--check-replay" => check_replay = true,
            "--chunk-ops" => options.chunk_ops = args.parse_of(&arg)?,
            "--pool-bytes" => options.pool_bytes = args.parse_of(&arg)?,
            "--no-mmap" => options.mmap = false,
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ => files.push(arg.into_positional()),
        }
    }
    if files.is_empty() {
        return Err(args.error("expected at least one RPT1 trace file"));
    }

    for (i, file) in files.iter().enumerate() {
        let info = rppm::trace::container_info(file)
            .map_err(|e| CliError::user(format!("{file}: {e}")))?;
        if i > 0 {
            println!();
        }
        println!(
            "{file}: RPT1 v{} `{}`, {} threads, {} bytes",
            info.version, info.name, info.num_threads, info.file_bytes
        );
        let stream = if info.has_op_stream {
            format!(
                "{} recorded ops, {} sync events",
                info.recorded_ops, info.recorded_syncs
            )
        } else {
            "none (plain program container)".to_string()
        };
        println!("  program segments: {}; op stream: {stream}", info.segments);
        for s in &info.sections {
            println!(
                "  tag {} {:<8} {:>7} section{} {:>12} bytes",
                s.tag,
                s.label,
                s.count,
                if s.count == 1 { " " } else { "s" },
                s.bytes
            );
        }
        if check_replay && !check(file, options)? {
            return Ok(1);
        }
    }
    Ok(0)
}

/// Profiles `file`'s op stream out-of-core under `options` and diffs the
/// result against profiling the in-memory program; `Ok(false)` on any
/// divergence (the caller exits 1).
fn check(file: &str, options: rppm::trace::StreamOptions) -> Result<bool, CliError> {
    let replay = rppm::trace::OpReplay::open_with(file, options)
        .map_err(|e| CliError::user(format!("{file}: {e}")))?;
    let replayed = rppm::profiler::profile(&replay);
    let expanded = rppm::profiler::profile(replay.program());
    let a = serde_json::to_string(&replayed).map_err(CliError::user)?;
    let b = serde_json::to_string(&expanded).map_err(CliError::user)?;
    if a == b {
        println!(
            "  replay check: {} ops via chunks of {} — profile identical to in-memory expansion",
            replay.total_ops(),
            options.chunk_ops.max(1)
        );
        Ok(true)
    } else {
        eprintln!("error: {file}: replayed profile diverges from in-memory expansion");
        Ok(false)
    }
}
