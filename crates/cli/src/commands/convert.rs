//! `rppm convert IN OUT` — convert a trace file between the JSON
//! interchange format and the `RPT1` binary streaming container.

use super::is_help;
use crate::args::{ArgStream, CliError};
use std::path::Path;

const USAGE: &str = "usage: rppm convert IN OUT [--to json|binary|ops] [--ops]

The input format is auto-detected by magic bytes (RPT1 => binary, anything
else => JSON). The output format follows --to when given, otherwise the
output extension: .rpt / .bin write binary, everything else writes JSON.
Conversion is lossless both ways.

--ops (or --to ops) writes a version-3 RPT1 container that additionally
records the fully expanded micro-op stream after the program sections, for
tools that consume raw micro-ops (`rppm trace-info` shows the
op-run/op-sync/op-meta sections). Every rppm reader takes the program
from such a file and checks the op sections' structure; profiling and
simulation always expand the program.";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Json,
    Binary,
    Ops,
}

impl Format {
    fn name(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Binary => "binary",
            Format::Ops => "binary+ops",
        }
    }
}

fn sniff(path: &Path) -> Format {
    let mut magic = [0u8; 4];
    match std::fs::File::open(path).and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
    {
        Ok(()) if magic == rppm::trace::BINARY_TRACE_MAGIC => Format::Binary,
        _ => Format::Json,
    }
}

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut paths = Vec::new();
    let mut to: Option<Format> = None;
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        match arg.as_str() {
            "--to" => {
                let v = args.value_of(&arg)?;
                to = Some(match v.as_str() {
                    "json" => Format::Json,
                    "binary" | "rpt" => Format::Binary,
                    "ops" => Format::Ops,
                    other => {
                        return Err(args.error(format!(
                            "unknown format `{other}` (expected json, binary or ops)"
                        )))
                    }
                });
            }
            "--ops" => to = Some(Format::Ops),
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ => paths.push(arg.into_positional()),
        }
    }
    let [input, output] = paths.as_slice() else {
        return Err(args.error("expected exactly IN and OUT paths"));
    };
    let input = Path::new(input);
    let output = Path::new(output);

    let in_format = sniff(input);
    let out_format = to.unwrap_or_else(|| {
        if rppm::trace::has_binary_extension(output) {
            Format::Binary
        } else {
            Format::Json
        }
    });

    let program = rppm::trace::read_program_any(input).map_err(CliError::user)?;
    match out_format {
        Format::Json => rppm::trace::write_program(&program, output),
        Format::Binary => rppm::trace::write_program_binary(&program, output),
        Format::Ops => rppm::trace::write_program_ops(&program, output),
    }
    .map_err(CliError::user)?;

    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let out_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    println!(
        "converted {} ({}, {} bytes) -> {} ({}, {} bytes): workload `{}`, {} threads, {} ops",
        input.display(),
        in_format.name(),
        in_bytes,
        output.display(),
        out_format.name(),
        out_bytes,
        program.name,
        program.num_threads(),
        program.total_ops(),
    );
    Ok(0)
}
