//! `rppm trace-info` — inspect an `RPT1` container's sections.

use super::is_help;
use crate::args::{ArgStream, CliError};

const USAGE: &str = "usage: rppm trace-info FILE.rpt...

Reads each RPT1 container through the section walker every trace reader
uses and prints its format version, workload identity and a per-section
breakdown: tag, kind, section count and payload bytes. Version-3 containers
written by `rppm convert --to ops` additionally report the recorded op
stream (op-run / op-sync / op-meta sections). Every section is read and
checked, but no segment record or micro-op is decoded; malformed or
truncated files exit 2 with a one-line error.";

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut files = Vec::new();
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if arg.is_flag() {
            return Err(args.unknown(&arg));
        }
        files.push(arg.into_positional());
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
    }
    Ok(0)
}
