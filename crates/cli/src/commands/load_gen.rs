//! `rppm load-gen` — benchmark client for the prediction service.
//!
//! Measures the two service latencies that matter and emits them in the
//! same `CRITERION_JSON` capture format as `cargo bench`, so a combined
//! capture can flow straight into `rppm bench guard`:
//!
//! * `serve/predict_hit` — round-trip of `GET /predict` served
//!   synchronously from a resident profile (the fast path).
//! * `serve/profile_cold` — submit-to-done latency of profiling an
//!   uncached workload through the job queue (the slow path).

use super::{is_help, take_jobs};
use crate::args::{ArgStream, CliError};
use rppm_serve::{Client, ServeConfig, Server};
use serde_json::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rppm load-gen [--addr HOST:PORT] [--workload NAME] [--scale S]
       [--requests N] [--clients C] [--cold N] [--out FILE] [--jobs N]

Drives GET /predict against a running `rppm serve` (or, without --addr, an
in-process throwaway server) and reports:

  serve/predict_hit    mean round-trip of a cache-hit prediction
                       (--requests per client, --clients concurrent)
  serve/profile_cold   submit-to-done latency of profiling an uncached
                       workload (--cold samples, distinct seeds)

--out FILE writes/merges the measurements into a CRITERION_JSON capture,
so `cargo bench` output and load-gen output can share one file for
`rppm bench guard`.";

struct Measurement {
    name: &'static str,
    samples: Vec<u128>,
}

impl Measurement {
    fn min(&self) -> u128 {
        self.samples.iter().copied().min().unwrap_or(0)
    }
    fn max(&self) -> u128 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
    fn mean(&self) -> u128 {
        if self.samples.is_empty() {
            0
        } else {
            self.samples.iter().sum::<u128>() / self.samples.len() as u128
        }
    }
}

fn job_id(body: &str) -> Option<u64> {
    let doc: Value = serde_json::from_str(body).ok()?;
    Value::get(doc.as_object()?, "job").and_then(Value::as_u64)
}

/// Polls `/jobs/<id>` until done (or failed / timed out).
fn await_job(client: &mut Client, id: u64) -> Result<(), CliError> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client
            .get(&format!("/jobs/{id}"))
            .map_err(|e| CliError::user(format!("polling job {id}: {e}")))?;
        let text = resp.text();
        if text.contains("\"done\"") {
            return Ok(());
        }
        if text.contains("\"failed\"") {
            return Err(CliError::user(format!("job {id} failed: {text}")));
        }
        if Instant::now() > deadline {
            return Err(CliError::user(format!("job {id} did not finish in 120s")));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Issues `GET path` expecting 200 (fast path) or 202 (awaits the job and
/// retries once).
fn predict_until_hit(client: &mut Client, path: &str) -> Result<Duration, CliError> {
    let start = Instant::now();
    let resp = client
        .get(path)
        .map_err(|e| CliError::user(format!("GET {path}: {e}")))?;
    match resp.status {
        200 => Ok(start.elapsed()),
        202 => {
            let id = job_id(&resp.text()).ok_or_else(|| CliError::user("202 without a job id"))?;
            await_job(client, id)?;
            let retry = client
                .get(path)
                .map_err(|e| CliError::user(format!("GET {path}: {e}")))?;
            if retry.status != 200 {
                return Err(CliError::user(format!(
                    "expected 200 after profiling, got {} ({})",
                    retry.status,
                    retry.text()
                )));
            }
            Ok(start.elapsed())
        }
        s => Err(CliError::user(format!(
            "GET {path} -> {s}: {}",
            resp.text()
        ))),
    }
}

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut addr: Option<String> = None;
    let mut workload = "hotspot".to_string();
    let mut scale = 0.1f64;
    let mut requests = 200usize;
    let mut clients = 1usize;
    let mut cold = 3usize;
    let mut out: Option<String> = None;
    let mut jobs = rppm::core::default_jobs();
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
            "--addr" => addr = Some(args.value_of(&arg)?),
            "--workload" => workload = args.value_of(&arg)?,
            "--scale" => scale = args.parse_of(&arg)?,
            "--requests" => requests = args.parse_of(&arg)?,
            "--clients" => clients = args.parse_of(&arg)?,
            "--cold" => cold = args.parse_of(&arg)?,
            "--out" => out = Some(args.value_of(&arg)?),
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ => return Err(args.error(format!("unexpected argument `{}`", arg.into_positional()))),
        }
    }
    if requests == 0 || clients == 0 {
        return Err(args.error("--requests and --clients must be at least 1"));
    }

    // Without --addr, stand up a private in-process server.
    let own_server = match &addr {
        Some(_) => None,
        None => {
            let server = Server::bind(ServeConfig {
                jobs,
                ..ServeConfig::default()
            })
            .map_err(|e| CliError::user(format!("cannot start in-process server: {e}")))?;
            Some(server)
        }
    };
    let sock_addr: SocketAddr = match &own_server {
        Some(s) => s.local_addr(),
        None => addr
            .as_deref()
            .expect("addr set when no own server")
            .parse()
            .map_err(|e| CliError::user(format!("bad --addr: {e}")))?,
    };

    let mut client = Client::new(sock_addr);

    // Cold: each sample profiles a distinct (workload, scale, seed) key.
    // Seeds count down from u64::MAX to stay clear of seeds a warm cache
    // might already hold.
    let mut cold_m = Measurement {
        name: "serve/profile_cold",
        samples: Vec::new(),
    };
    for i in 0..cold {
        let seed = u64::MAX - i as u64;
        let path = format!("/predict?workload={workload}&scale={scale}&seed={seed}");
        cold_m
            .samples
            .push(predict_until_hit(&mut client, &path)?.as_nanos());
    }

    // Warm the hit-path key, then measure concurrent round-trips.
    let hit_path = format!("/predict?workload={workload}&scale={scale}&seed=1");
    predict_until_hit(&mut client, &hit_path)?;
    let mut hit_m = Measurement {
        name: "serve/predict_hit",
        samples: Vec::new(),
    };
    let worker = move |path: String| -> Result<Vec<u128>, String> {
        let mut c = Client::new(sock_addr);
        let mut samples = Vec::with_capacity(requests);
        for _ in 0..requests {
            let start = Instant::now();
            let resp = c.get(&path).map_err(|e| format!("GET {path}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("GET {path} -> {} ({})", resp.status, resp.text()));
            }
            samples.push(start.elapsed().as_nanos());
        }
        Ok(samples)
    };
    if clients == 1 {
        hit_m.samples = worker(hit_path.clone()).map_err(CliError::user)?;
    } else {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let path = hit_path.clone();
                std::thread::spawn(move || worker(path))
            })
            .collect();
        for h in handles {
            let samples = h
                .join()
                .map_err(|_| CliError::user("load-gen client thread panicked"))?
                .map_err(CliError::user)?;
            hit_m.samples.extend(samples);
        }
    }

    if let Some(server) = own_server {
        server.shutdown();
        server.wait();
    }

    for m in [&hit_m, &cold_m] {
        println!(
            "{}: mean {} ns, min {} ns, max {} ns over {} sample(s)",
            m.name,
            m.mean(),
            m.min(),
            m.max(),
            m.samples.len()
        );
    }

    if let Some(path) = out {
        let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str::<Value>(&text)
                .ok()
                .and_then(|v| v.as_object().map(<[_]>::to_vec))
                .unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        for m in [&hit_m, &cold_m] {
            let doc = Value::Object(vec![
                ("min_ns".to_string(), Value::U64(m.min() as u64)),
                ("mean_ns".to_string(), Value::U64(m.mean() as u64)),
                ("max_ns".to_string(), Value::U64(m.max() as u64)),
                ("samples".to_string(), Value::U64(m.samples.len() as u64)),
            ]);
            entries.retain(|(k, _)| k != m.name);
            entries.push((m.name.to_string(), doc));
        }
        let merged = serde_json::to_string(&Value::Object(entries))
            .map_err(|e| CliError::user(format!("serializing {path}: {e}")))?;
        std::fs::write(&path, merged)
            .map_err(|e| CliError::user(format!("writing {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(0)
}
