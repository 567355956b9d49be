//! One module per `rppm` subcommand.

pub mod bench_guard;
pub mod convert;
pub mod dse;
pub mod golden;
pub mod import;
pub mod load_gen;
pub mod report;
pub mod run_all;
pub mod serve;
pub mod sim_profile;
pub mod trace_info;

use crate::args::{Arg, ArgStream, CliError};

/// Handles the shared `--help` / `-h` spelling: prints `usage` and signals
/// the caller to return successfully.
pub fn is_help(arg: &Arg) -> bool {
    matches!(arg.as_str(), "--help" | "-h" | "help")
}

/// Parses the shared `--jobs N` / `-j N` flag: `Some(N)` if `arg` is that
/// flag, `None` otherwise. Zero workers cannot run anything, so `--jobs 0`
/// is a usage error rather than a silent clamp.
pub fn take_jobs(args: &mut ArgStream, arg: &Arg) -> Result<Option<usize>, CliError> {
    if !matches!(arg.as_str(), "--jobs" | "-j") {
        return Ok(None);
    }
    let n: usize = args.parse_of(arg)?;
    if n == 0 {
        return Err(args.error(format!("{} must be at least 1, got 0", arg.as_str())));
    }
    Ok(Some(n))
}
