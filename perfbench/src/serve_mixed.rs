//! `serve-mixed`: `rppm serve` running in-process, driven over a real
//! loopback socket.
//!
//! One client thread sends a closed loop of requests over one keep-alive
//! connection to a server with one HTTP worker, one profiling runner and
//! one job per sweep. Each round interleaves, in seeded order:
//!
//! * `GET /predict` hits on profiles made resident in set-up, addressed by
//!   `design=` and by `machine=` names registered in set-up;
//! * `GET /sweep` of the five design points on one of those profiles;
//! * three cold operations: `POST /traces` of a never-seen program, polled
//!   to done, then the first `GET /predict?trace=`. One uploads a small
//!   `RPT1` parsed from the socket, two an op-stream container above
//!   `spool_bytes`, which takes the spool path.
//!
//! Hits are 91% of the operations, sweeps 6.5% and cold operations 2.4%,
//! and a cold operation costs about twice a sweep; so the median falls
//! among the hits and the 99th percentile inside the spooled cold
//! operations, never on a boundary between classes. Cold programs are
//! generated at a smaller scale than the hot set so that their profiles,
//! and the offline answers they are checked against, stay cheap.
//!
//! The cache holds the hot set plus a few uploads, so uploads evict older
//! uploads and never the hot set. Every 200 body is compared byte for
//! byte with its offline `rppm::docs` twin.

use crate::inputs;
use crate::measure::{median, Finish, Run, Workload};
use crate::spans::{Spans, Summary};
use rppm::docs::{prediction_doc, sweep_doc};
use rppm::trace::{format_machine, program_fingerprint, DesignPoint, MachineConfig};
use rppm::{CacheBudget, Session};
use rppm_serve::{Client, ServeConfig, Server};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seed stream of this workload's operation order.
const STREAM: u64 = 4;

/// Seed tag base of cold-upload programs (fresh programs every round).
const COLD_TAG: u64 = 1 << 20;

/// Work scale of cold-upload programs (profiles of about 2 ms).
const COLD_SCALE: f64 = 0.03;

/// Each (hot program, target) hit appears this often per round.
const HIT_REPEATS: usize = 2;

/// `GET /sweep` requests per round, all on the first hot program.
const SWEEPS: usize = 8;

/// Cold operations per round; all but the first upload a spooled
/// op-stream container.
const COLDS: usize = 3;

/// Upload slots in the cache beyond the hot set. Every round touches every
/// hot profile, and at most five uploads follow the start of the previous
/// round, so with more than five slots the least recently used profile
/// is always an upload and the hot set is never evicted.
const UPLOAD_SLOTS: usize = 8;

/// Pause between polls of a profiling job: small next to a ~2 ms profile.
const POLL_INTERVAL: Duration = Duration::from_micros(250);

/// Uploads above this size are spooled to disk (the cold op-stream
/// containers are 20+ KiB, the plain ones 1 to 2 KiB).
const SPOOL_BYTES: u64 = 16 * 1024;

/// One operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `GET /predict` on hot program `hot` at target `target`.
    Hit {
        /// Index into the hot set.
        hot: usize,
        /// Index into the targets (design points, then machines).
        target: usize,
    },
    /// `GET /sweep` on the sweep program.
    Sweep,
    /// Upload, poll and first prediction of a never-seen program.
    Cold {
        /// The round that planned it.
        round: usize,
        /// Which of the round's cold operations (0 uploads a small
        /// container, the others a spooled one).
        slot: usize,
    },
}

/// Hot programs. They predict in 0.2 to 0.6 ms per design point, so a
/// hit is mostly prediction work and the HTTP round trip is a minority;
/// the first one also takes the sweeps.
pub const HOT: [&str; 8] = [
    "leukocyte",
    "hotspot",
    "lavamd",
    "heartwall",
    "btree",
    "swaptions",
    "vips",
    "bodytrack",
];

/// Cold programs, uploaded with a fresh seed each time.
pub const COLD: [&str; 2] = ["facesim", "raytrace"];

/// A registered machine: the base design with one axis changed.
fn machines() -> Vec<MachineConfig> {
    let base = DesignPoint::Base.config();
    vec![
        base.to_builder()
            .name("bench-wide")
            .dispatch_width(6)
            .build()
            .expect("a 6-wide base design is valid"),
        base.to_builder()
            .name("bench-lean")
            .mshrs(4)
            .build()
            .expect("a 4-MSHR base design is valid"),
    ]
}

struct Hot {
    name: &'static str,
    seed: u64,
    /// Expected `/predict` body per target.
    bodies: Vec<String>,
}

/// A cold upload, generated when its round is planned.
struct ColdInput {
    spooled: bool,
    body: Vec<u8>,
    fingerprint: String,
    design: DesignPoint,
    /// The offline twin of the first `/predict?trace=` body.
    want: String,
}

/// `/stats` counters read before and after the measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Cache lookups through the profiling path.
    pub lookups: u64,
    /// Of those, hits.
    pub hits: u64,
    /// Profiles evicted.
    pub evictions: u64,
    /// Approximate bytes of resident profiles.
    pub resident_bytes: u64,
    /// Profiling jobs that failed.
    pub jobs_failed: u64,
}

/// Workload state.
pub struct ServeMixed {
    seed: u64,
    server: Option<Server>,
    client: Option<Client>,
    hot: Vec<Hot>,
    /// Expected `/sweep` body of the first hot program.
    sweep: String,
    /// Planned cold uploads by (round, slot), removed when they run.
    cold: BTreeMap<(usize, usize), ColdInput>,
    /// Target labels: the five design points, then the machines.
    targets: Vec<String>,
    stats_before: Stats,
    /// Hits answered by the server (200 from a resident profile).
    pub hits: usize,
    /// Cold operations completed.
    pub colds: usize,
    /// Statistics after the measured phase (set by `finish`).
    pub stats_after: Option<Stats>,
}

fn field<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter()
        .try_fold(doc, |v, key| Value::get(v.as_object()?, key))
}

impl ServeMixed {
    fn client(&mut self) -> &mut Client {
        self.client
            .as_mut()
            .expect("the client lives as long as the workload")
    }

    fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        let r = self
            .client()
            .get(path)
            .map_err(|e| format!("GET {path}: {e}"))?;
        Ok((r.status, r.text()))
    }

    fn stats(&mut self) -> Result<Stats, String> {
        let (status, body) = self.get("/stats")?;
        let doc: Value = serde_json::from_str(&body).map_err(|e| format!("/stats: {e}"))?;
        let n = |path: &[&str]| {
            field(&doc, path)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("/stats ({status}) has no {path:?}: {body}"))
        };
        Ok(Stats {
            lookups: n(&["cache", "lookups"])?,
            hits: n(&["cache", "hits"])?,
            evictions: n(&["cache", "evictions"])?,
            resident_bytes: n(&["cache", "resident_bytes"])?,
            jobs_failed: n(&["jobs", "failed"])?,
        })
    }

    fn target_query(&self, target: usize) -> String {
        if target < DesignPoint::ALL.len() {
            format!("design={}", self.targets[target])
        } else {
            format!("machine={}", self.targets[target])
        }
    }

    fn hit(&mut self, hot: usize, target: usize, spans: &mut Spans) -> Result<f64, String> {
        let h = &self.hot[hot];
        let path = format!(
            "/predict?workload={}&scale={}&seed={}&{}",
            h.name,
            inputs::SCALE,
            h.seed,
            self.target_query(target)
        );
        let (status, body) = spans.span("serve.hit", |_| self.get(&path))?;
        if status != 200 || body != self.hot[hot].bodies[target] {
            return Err(format!("GET {path}: {status} {body}"));
        }
        self.hits += 1;
        Ok(1.0)
    }

    fn sweep(&mut self, spans: &mut Spans) -> Result<f64, String> {
        let h = &self.hot[0];
        let path = format!(
            "/sweep?workload={}&scale={}&seed={}",
            h.name,
            inputs::SCALE,
            h.seed
        );
        let (status, body) = spans.span("serve.sweep", |_| self.get(&path))?;
        if status != 200 || body != self.sweep {
            return Err(format!("GET {path}: {status} {body}"));
        }
        Ok(1.0)
    }

    fn cold(&mut self, round: usize, slot: usize, spans: &mut Spans) -> Result<f64, String> {
        let ColdInput {
            spooled,
            body,
            fingerprint,
            design,
            want,
        } = self
            .cold
            .remove(&(round, slot))
            .ok_or_else(|| format!("round {round} planned no upload {slot}"))?;
        let upload_span = if spooled {
            "serve.upload.spooled"
        } else {
            "serve.upload.small"
        };
        let answer = spans.span("serve.cold", |spans| -> Result<String, String> {
            let reply = spans
                .span(upload_span, |_| self.client().post("/traces", &body))
                .map_err(|e| format!("POST /traces: {e}"))?;
            let doc: Value = serde_json::from_str(&reply.text()).map_err(|e| e.to_string())?;
            let job = field(&doc, &["job"]).and_then(Value::as_u64);
            let trace = field(&doc, &["trace"]).and_then(Value::as_str);
            let Some(job) = job.filter(|_| reply.status == 202 && trace == Some(&fingerprint))
            else {
                return Err(format!("POST /traces: {} {}", reply.status, reply.text()));
            };
            loop {
                let (status, body) =
                    spans.span("serve.poll", |_| self.get(&format!("/jobs/{job}")))?;
                spans.count("serve.polls", 1.0);
                let state: Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
                match field(&state, &["state"]).and_then(Value::as_str) {
                    Some("done") if status == 200 => break,
                    Some("queued" | "running") if status == 200 => {
                        std::thread::sleep(POLL_INTERVAL)
                    }
                    _ => return Err(format!("GET /jobs/{job}: {status} {body}")),
                }
            }
            let path = format!("/predict?trace={fingerprint}&design={design}");
            let (status, body) = spans.span("serve.predict_cold", |_| self.get(&path))?;
            if status != 200 {
                return Err(format!("GET {path}: {status} {body}"));
            }
            Ok(body)
        })?;
        if answer != want {
            return Err(format!(
                "cold upload {fingerprint}: served {answer}, offline {want}"
            ));
        }
        self.colds += 1;
        Ok(1.0)
    }

    /// Generates cold upload `slot` of round `round` and its offline answer.
    fn plan_cold(&self, round: usize, slot: usize) -> ColdInput {
        let params = rppm::workloads::Params {
            scale: COLD_SCALE,
            seed: inputs::derive(self.seed, COLD_TAG + (COLDS * round + slot) as u64),
        };
        let program = inputs::build(COLD[cold_program(round, slot)], &params);
        let spooled = slot > 0;
        let body = if spooled {
            rppm::trace::export_program_ops(&program)
        } else {
            rppm::trace::export_program_binary(&program)
        }
        .expect("catalog programs encode");
        let fingerprint = format!("{:016x}", program_fingerprint(&program));
        let design = DesignPoint::ALL[(COLDS * round + slot) % DesignPoint::ALL.len()];
        let profile = Session::builder()
            .jobs(1)
            .build()
            .program(program)
            .expect("catalog programs validate")
            .profile();
        let want = serde_json::to_string(&prediction_doc(&profile.predict(&design.config())))
            .expect("prediction documents serialize");
        ColdInput {
            spooled,
            body,
            fingerprint,
            design,
            want,
        }
    }

    /// Times the in-process twin of every hit class: `predict`, then
    /// `prediction_doc` plus serialization. Returns mean seconds per class
    /// of (predict, document).
    fn twins(&self) -> Result<(f64, f64), String> {
        const REPEATS: usize = 15;
        let server = self.server.as_ref().expect("server runs until drop");
        let configs = target_configs();
        let (mut predict, mut doc) = (Vec::new(), Vec::new());
        for h in &self.hot {
            let profile = server
                .session()
                .workload(h.name)
                .map_err(|e| e.to_string())?
                .scale(inputs::SCALE)
                .seed(h.seed)
                .profile_if_cached()
                .ok_or_else(|| format!("hot profile {} was evicted", h.name))?;
            for config in &configs {
                let (mut p, mut d) = (Vec::new(), Vec::new());
                for _ in 0..REPEATS {
                    let t = Instant::now();
                    let prediction = std::hint::black_box(profile.predict(config));
                    let mid = Instant::now();
                    let body = serde_json::to_string(&prediction_doc(&prediction));
                    std::hint::black_box(body.map_err(|e| e.to_string())?);
                    p.push((mid - t).as_secs_f64());
                    d.push(mid.elapsed().as_secs_f64());
                }
                predict.push(median(&p));
                doc.push(median(&d));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        Ok((mean(&predict), mean(&doc)))
    }
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the last CPU it may run on (Linux only, like the rest of the
/// benchmark's `/proc` reads).
fn pin_to_one_cpu() -> Result<(), String> {
    // glibc's cpu_set_t: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU is allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Index into [`COLD`] of the program of cold upload `slot` in round
/// `round`: both programs take both upload paths.
fn cold_program(round: usize, slot: usize) -> usize {
    (round + slot) % COLD.len()
}

fn target_configs() -> Vec<MachineConfig> {
    DesignPoint::ALL
        .iter()
        .map(|d| d.config())
        .chain(machines())
        .collect()
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        // Close the connection first so the worker returns to the accept
        // queue, then stop and join every server thread.
        self.client = None;
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
    }
}

impl Workload for ServeMixed {
    type Op = Op;

    fn setup(run: &Run, spans: &mut Spans) -> Result<Self, String> {
        // Client and server share one CPU, so each request is handed over
        // by a same-core context switch. Across two CPUs every round trip
        // woke an idle virtual CPU, and on a shared host that wake-up made
        // median latency vary by half between runs of one build.
        pin_to_one_cpu()?;
        let server = spans
            .span("serve.bind", |_| {
                Server::bind(ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    workers: 1,
                    runners: 1,
                    jobs: 1,
                    budget: CacheBudget::entries(HOT.len() + UPLOAD_SLOTS),
                    spool_bytes: SPOOL_BYTES,
                    max_uploads: UPLOAD_SLOTS,
                    ..ServeConfig::default()
                })
            })
            .map_err(|e| format!("bind: {e}"))?;
        let mut workload = ServeMixed {
            seed: run.seed,
            client: Some(Client::new(server.local_addr())),
            server: Some(server),
            hot: Vec::new(),
            sweep: String::new(),
            cold: BTreeMap::new(),
            targets: DesignPoint::ALL
                .iter()
                .map(|d| d.to_string())
                .chain(machines().into_iter().map(|m| m.name))
                .collect(),
            stats_before: Stats::default(),
            hits: 0,
            colds: 0,
            stats_after: None,
        };
        // The hot set is profiled directly through the server's session,
        // and its expected bodies are rendered offline.
        let configs = target_configs();
        for (i, name) in HOT.into_iter().enumerate() {
            let seed = inputs::params(run.seed, i as u64).seed;
            let session: &Session = workload.server.as_ref().expect("just bound").session();
            let handle = session
                .workload(name)
                .map_err(|e| e.to_string())?
                .scale(inputs::SCALE)
                .seed(seed);
            let profile = spans.span("profiler.profile", |_| handle.profile());
            let predictions = spans.span("core.predict", |_| {
                configs
                    .iter()
                    .map(|c| profile.predict(c))
                    .collect::<Vec<_>>()
            });
            let (bodies, sweep) = spans.span("docs.json", |_| -> Result<_, String> {
                let bodies = predictions
                    .iter()
                    .map(|p| serde_json::to_string(&prediction_doc(p)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let labelled: Vec<_> = DesignPoint::ALL
                    .iter()
                    .map(|d| d.to_string())
                    .zip(predictions.iter().cloned())
                    .collect();
                let sweep = serde_json::to_string(&sweep_doc(name, &labelled))
                    .map_err(|e| e.to_string())?;
                Ok((bodies, sweep))
            })?;
            workload.hot.push(Hot { name, seed, bodies });
            if workload.sweep.is_empty() {
                workload.sweep = sweep;
            }
        }
        for machine in machines() {
            let (status, body) = spans.span("serve.machine", |_| {
                workload
                    .client()
                    .post("/machines", format_machine(&machine).as_bytes())
                    .map(|r| (r.status, r.text()))
                    .map_err(|e| format!("POST /machines: {e}"))
            })?;
            if status != 200 {
                return Err(format!("POST /machines: {status} {body}"));
            }
        }
        workload.stats_before = spans.span("serve.stats", |_| workload.stats())?;
        Ok(workload)
    }

    fn round(&mut self, round: usize) -> Vec<Op> {
        let mut ops: Vec<Op> = Vec::new();
        for hot in 0..self.hot.len() {
            for target in 0..self.targets.len() {
                ops.extend(std::iter::repeat_n(Op::Hit { hot, target }, HIT_REPEATS));
            }
        }
        ops.extend(std::iter::repeat_n(Op::Sweep, SWEEPS));
        // Never-seen programs: a fresh seed for every upload.
        for slot in 0..COLDS {
            let input = self.plan_cold(round, slot);
            self.cold.insert((round, slot), input);
            ops.push(Op::Cold { round, slot });
        }
        inputs::shuffled(&ops, self.seed, STREAM, round)
    }

    fn class(&self, op: &Op) -> usize {
        let hits = self.hot.len() * self.targets.len();
        match op {
            Op::Hit { hot, target } => hot * self.targets.len() + target,
            Op::Sweep => hits,
            Op::Cold { round, slot } => {
                hits + 1 + usize::from(*slot > 0) * COLD.len() + cold_program(*round, *slot)
            }
        }
    }

    fn run(&mut self, op: &Op, spans: &mut Spans) -> Result<f64, String> {
        match *op {
            Op::Hit { hot, target } => self.hit(hot, target, spans),
            Op::Sweep => self.sweep(spans),
            Op::Cold { round, slot } => self.cold(round, slot, spans),
        }
    }

    fn finish(&mut self, traced: &Summary, out: &mut Finish) -> Result<(), String> {
        // A failed profiling job fails the cold operation that polls it,
        // so the job counter is reported here, not counted again.
        let after = self.stats()?;
        self.stats_after = Some(after);
        let before = self.stats_before;

        out.pred_err_pct = Some(crate::validate_sim::catalog_error(self.seed)?);

        let l = &mut out.layers;
        let lookups = after.lookups - before.lookups;
        let hits = after.hits - before.hits;
        l.set_with_base(
            "profiler.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
            format!(
                "{hits} hits / {lookups} profiling-path lookups (/stats does not count resident fast-path answers)"
            ),
        );
        l.set_with_base(
            "profiler.cache_evictions",
            (after.evictions - before.evictions) as f64,
            "count",
            format!("during {} cold uploads", self.colds),
        );
        l.set(
            "profiler.cache_resident_bytes",
            after.resident_bytes as f64,
            "bytes",
        );
        l.set(
            "serve.jobs_failed",
            (after.jobs_failed - before.jobs_failed) as f64,
            "count",
        );
        if traced.calls("serve.hit") == 0 {
            return Ok(());
        }
        let (predict, doc) = self.twins()?;
        let hit = traced.mean("serve.hit");
        let l = &mut out.layers;
        l.set_with_base(
            "serve.hit_us",
            1e6 * hit,
            "us",
            format!("{} hits", traced.calls("serve.hit")),
        );
        l.set_with_base(
            "serve.sweep_us",
            1e6 * traced.mean("serve.sweep"),
            "us",
            format!("{} sweeps", traced.calls("serve.sweep")),
        );
        l.set_with_base(
            "serve.http_us",
            1e6 * (hit - predict - doc),
            "us",
            format!(
                "hit {:.1} us - in-process twin {:.1} us",
                1e6 * hit,
                1e6 * (predict + doc)
            ),
        );
        l.set_with_base(
            "core.predict_us",
            1e6 * predict,
            "us",
            "in-process twin of a hit, per design point".to_string(),
        );
        l.set_with_base(
            "docs.json_us",
            1e6 * doc,
            "us",
            "prediction_doc + serialize, per response".to_string(),
        );
        for (metric, span) in [
            ("serve.upload_ms.small", "serve.upload.small"),
            ("serve.upload_ms.spooled", "serve.upload.spooled"),
        ] {
            l.set_with_base(
                metric,
                1e3 * traced.mean(span),
                "ms",
                format!("{} uploads", traced.calls(span)),
            );
        }
        let colds = traced.calls("serve.cold");
        l.set_with_base(
            "serve.cold_ms",
            1e3 * traced.mean("serve.cold"),
            "ms",
            format!("{colds} cold operations, upload to first 200"),
        );
        l.set_with_base(
            "serve.polls_per_cold",
            traced.count("serve.polls") / colds.max(1) as f64,
            "count",
            format!(
                "{} polls / {colds} cold operations",
                traced.count("serve.polls")
            ),
        );
        Ok(())
    }
}
