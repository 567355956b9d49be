//! `rppm serve` — run the long-lived prediction service.

use super::{is_help, take_jobs};
use crate::args::{ArgStream, CliError};
use rppm::CacheBudget;
use rppm_serve::{ServeConfig, Server};

const USAGE: &str = "usage: rppm serve [--addr HOST:PORT] [--workers N] [--runners N] [--jobs N]
       [--max-entries N] [--max-bytes BYTES] [--max-body BYTES]
       [--spool-bytes BYTES] [--max-uploads N]

Serves the profile-once session over HTTP/1.1 until POST /shutdown:

  GET  /healthz              liveness probe
  GET  /stats                cache + job-queue counters
  POST /traces               upload an RPT1/JSON trace -> profiling job id
  POST /machines             upload a .machine description, registered by name
  GET  /jobs/<id>            poll a profiling job
  GET  /predict?W            one prediction (&design=POINT or &machine=NAME)
  GET  /sweep?W              all five Table IV design points (&machine=A,B,...)
  GET  /dse?W                design-space sweep, byte-identical to `rppm dse --json`
                             (&tiny=1 &best_only=1 &bound= &max_area= &max_power=
                             &machine=NAME)
  POST /shutdown             drain and exit

W is workload=NAME[&scale=S][&seed=N] or trace=FP (an uploaded trace takes
no scale or seed). Any other query key, or a repeated one, is a 400.

--max-entries / --max-bytes bound the profile cache (LRU eviction; default
unbounded like the offline tools — long-lived deployments should set one).
--max-body caps trace uploads (default 64 MiB); uploads above --spool-bytes
(default 1 MiB) are copied to a temporary file first and read back by the
same reader, with the same answer. --workers sizes the HTTP pool, --runners
the profiling-job pool, --jobs the threads per sweep.";

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut config = ServeConfig {
        addr: "127.0.0.1:7077".to_string(),
        ..ServeConfig::default()
    };
    let mut budget = CacheBudget::unbounded();
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if let Some(n) = take_jobs(&mut args, &arg)? {
            config.jobs = n;
            continue;
        }
        match arg.as_str() {
            "--addr" => config.addr = args.value_of(&arg)?,
            "--workers" => {
                let n: usize = args.parse_of(&arg)?;
                if n == 0 {
                    return Err(args.error("--workers must be at least 1, got 0"));
                }
                config.workers = n;
            }
            "--runners" => {
                let n: usize = args.parse_of(&arg)?;
                if n == 0 {
                    return Err(args.error("--runners must be at least 1, got 0"));
                }
                config.runners = n;
            }
            "--max-entries" => budget = budget.with_entries(args.parse_of(&arg)?),
            "--max-bytes" => budget = budget.with_bytes(args.parse_of(&arg)?),
            "--max-body" => config.max_body_bytes = args.parse_of(&arg)?,
            "--spool-bytes" => config.spool_bytes = args.parse_of(&arg)?,
            "--max-uploads" => config.max_uploads = args.parse_of(&arg)?,
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ => return Err(args.error(format!("unexpected argument `{}`", arg.into_positional()))),
        }
    }
    config.budget = budget;

    let addr = config.addr.clone();
    let server =
        Server::bind(config).map_err(|e| CliError::user(format!("cannot bind {addr}: {e}")))?;
    println!("rppm serve listening on http://{}", server.local_addr());
    server.wait();
    println!("rppm serve: shut down cleanly");
    Ok(0)
}
