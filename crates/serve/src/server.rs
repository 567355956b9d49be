//! The prediction service: a fixed pool of HTTP workers over one
//! profile-once [`Session`] with a bounded cache, plus runner threads
//! draining the profiling [`JobQueue`].
//!
//! Request handling is two-speed by construction: anything answerable
//! from a resident profile (predictions, sweeps, DSE) is served
//! synchronously on the HTTP worker, and anything that would have to
//! *profile* is converted into a job — the client gets `202 Accepted`
//! with a job id and polls `/jobs/<id>`. HTTP workers therefore never
//! block behind a profiling run.

use crate::http::{read_request_head, write_response, HttpError, RequestHead};
use crate::jobs::{job_doc, JobQueue};
use rppm::core::{find_best, sweep, ConfigSpace, Constraints};
use rppm::docs::{
    describe_config, dse_best_doc, dse_bounds_ladder, dse_sweep_doc, prediction_doc, sweep_doc,
};
use rppm::trace::{
    parse_machine, program_fingerprint, read_program_any, read_program_stream, DesignPoint,
    MachineConfig, Program,
};
use rppm::{CacheBudget, Session, WorkloadHandle};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` picks a free port).
    pub addr: String,
    /// HTTP worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Profiling runner threads draining the job queue.
    pub runners: usize,
    /// Worker threads per parallel sweep inside one request.
    pub jobs: usize,
    /// Profile-cache budget. Unlike offline runs, a long-lived service
    /// should set one — see [`CacheBudget`].
    pub budget: CacheBudget,
    /// Largest accepted request body (trace upload), in bytes.
    pub max_body_bytes: u64,
    /// Trace uploads larger than this are copied to a temporary file
    /// before the same sniffing reader as smaller uploads reads them back;
    /// the answer does not depend on which side of the threshold a body
    /// falls.
    pub spool_bytes: u64,
    /// Uploaded-trace handles retained for re-profiling after eviction;
    /// beyond this the oldest upload is forgotten (clients re-upload).
    pub max_uploads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            runners: 2,
            jobs: rppm::core::default_jobs(),
            budget: CacheBudget::unbounded(),
            max_body_bytes: 64 * 1024 * 1024,
            spool_bytes: 1024 * 1024,
            max_uploads: 256,
        }
    }
}

/// Everything the handlers share.
struct State {
    session: Session,
    jobs: JobQueue,
    uploads: Mutex<Uploads>,
    machines: Mutex<Machines>,
    requests: AtomicU64,
    started: Instant,
    stopping: AtomicBool,
    max_body_bytes: u64,
    spool_bytes: u64,
    max_uploads: usize,
    /// The bound address, kept so an HTTP-initiated shutdown can poke the
    /// accept loop out of its blocking `accept()`.
    addr: SocketAddr,
    /// One slot per HTTP worker: the connection it serves.
    workers: Vec<WorkerSlot>,
}

/// What [`State::stop`] needs to know of one HTTP worker.
#[derive(Default)]
struct WorkerSlot {
    /// A handle on the connection being served, if any.
    conn: Mutex<Option<TcpStream>>,
    /// Set while the worker waits for the first byte of a request.
    idle: AtomicBool,
}

impl State {
    /// Stops the service: no new connections or jobs, and every worker
    /// waiting for a request on a kept-alive connection is released by
    /// shutting down the connection's read half (bytes already received
    /// are still read). Requests being read or answered complete, and
    /// their responses close the connection.
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.jobs.shutdown();
        for slot in &self.workers {
            if slot.idle.load(Ordering::SeqCst) {
                if let Some(conn) = &*slot.conn.lock().expect("worker slot lock") {
                    let _ = conn.shutdown(Shutdown::Read);
                }
            }
        }
        // The accept thread is parked in `accept()`; without this poke it
        // would only notice `stopping` on the next organic connection —
        // i.e. never, for a drained service.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// FIFO-capped registry of uploaded traces, keyed by content fingerprint.
/// Retaining the [`WorkloadHandle`] keeps the *program* alive so an
/// evicted profile can be re-collected without a re-upload; the cap
/// bounds that retention like the cache budget bounds profiles.
#[derive(Default)]
struct Uploads {
    by_fingerprint: HashMap<u64, WorkloadHandle>,
    order: VecDeque<u64>,
}

impl Uploads {
    fn insert(&mut self, fingerprint: u64, handle: WorkloadHandle, cap: usize) {
        if self.by_fingerprint.insert(fingerprint, handle).is_none() {
            self.order.push_back(fingerprint);
            while self.order.len() > cap.max(1) {
                if let Some(old) = self.order.pop_front() {
                    self.by_fingerprint.remove(&old);
                }
            }
        }
    }
}

/// Named machine-description registry. Seeded with the five Table IV
/// presets at startup; `POST /machines` adds (or replaces) uploads under
/// their `[machine] name`, which may not be a preset's. Uploads are
/// FIFO-capped like trace uploads; the seeded presets are not part of the
/// FIFO and are never evicted or replaced.
struct Machines {
    by_name: HashMap<String, MachineConfig>,
    order: VecDeque<String>,
}

impl Machines {
    fn seeded() -> Self {
        Machines {
            by_name: DesignPoint::ALL
                .iter()
                .map(|d| (d.to_string(), d.config()))
                .collect(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, config: MachineConfig, cap: usize) {
        let name = config.name.clone();
        if self.by_name.insert(name.clone(), config).is_none() {
            self.order.push_back(name);
            while self.order.len() > cap.max(1) {
                if let Some(old) = self.order.pop_front() {
                    self.by_name.remove(&old);
                }
            }
        }
    }
}

/// A handler-level failure: one HTTP status plus a one-line message,
/// rendered as `{"error": "..."}`. Every hostile or malformed input along
/// the serve surface lands here — a 4xx response, never a worker death.
struct ApiError {
    status: u16,
    message: String,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        ApiError {
            status,
            message: message.into(),
        }
    }
    fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }
    fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, message)
    }
}

type ApiResult = Result<(u16, Value), ApiError>;

fn error_doc(message: &str) -> Value {
    Value::Object(vec![(
        "error".to_string(),
        Value::String(message.to_string()),
    )])
}

/// A request's query as its handler reads it: every lookup marks the
/// `(key, value)` pair it returns, and [`Query::finish`] refuses the
/// request if any pair was left unread — a misspelt key, a key the
/// endpoint does not take, or a repeated key (only its first value is
/// ever read).
struct Query<'h> {
    head: &'h RequestHead,
    read: Vec<bool>,
}

impl<'h> Query<'h> {
    fn new(head: &'h RequestHead) -> Self {
        let read = vec![false; head.query.len()];
        Query { head, read }
    }

    /// The first value of `key`, if present.
    fn str(&mut self, key: &str) -> Option<&'h str> {
        let i = self.head.query.iter().position(|(k, _)| k == key)?;
        self.read[i] = true;
        Some(&self.head.query[i].1)
    }

    /// The value of `key` parsed as a number, if present.
    fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, ApiError> {
        match self.str(key) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
                ApiError::bad_request(format!(
                    "query parameter `{key}={raw}` is not a valid number"
                ))
            }),
        }
    }

    /// Whether the flag `key` is set (`1` or `true`).
    fn flag(&mut self, key: &str) -> bool {
        matches!(self.str(key), Some("1") | Some("true"))
    }

    /// Refuses the request, naming the key and the endpoint, if any pair
    /// was left unread.
    fn finish(self) -> Result<(), ApiError> {
        match self.read.iter().position(|read| !read) {
            None => Ok(()),
            Some(i) => Err(ApiError::bad_request(format!(
                "{} does not read query parameter `{}` (unknown to it, or repeated)",
                self.head.path, self.head.query[i].0
            ))),
        }
    }
}

/// A spooled upload on disk, removed when the guard drops (including on
/// every import-error path).
struct SpoolFile(std::path::PathBuf);

impl Drop for SpoolFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Copies an oversized upload body to a temporary file and reads it back
/// with [`read_program_any`], which sniffs the format and walks `RPT1`
/// sections exactly as [`read_program_stream`] does for small uploads.
fn spool_and_read(body: &mut dyn Read) -> Result<Program, ApiError> {
    static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SPOOL_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "rppm-serve-upload-{}-{seq}.spool",
        std::process::id()
    ));
    let guard = SpoolFile(path.clone());
    {
        let file = std::fs::File::create(&path)
            .map_err(|e| ApiError::new(500, format!("cannot spool upload: {e}")))?;
        let mut writer = BufWriter::new(file);
        std::io::copy(body, &mut writer)
            .map_err(|e| ApiError::bad_request(format!("body read failed: {e}")))?;
        std::io::Write::flush(&mut writer)
            .map_err(|e| ApiError::new(500, format!("cannot spool upload: {e}")))?;
    }
    let program = read_program_any(&path)
        .map_err(|e| ApiError::bad_request(format!("trace rejected: {e}")))?;
    drop(guard);
    Ok(program)
}

impl State {
    /// Looks up `name` in the machine registry, 404 on a miss.
    fn machine(&self, name: &str) -> Result<MachineConfig, ApiError> {
        self.machines
            .lock()
            .expect("machines lock")
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ApiError::not_found(format!(
                    "no machine `{name}` in the registry (POST /machines to add it)"
                ))
            })
    }

    /// The machine a single-config endpoint evaluates: `machine=<name>`
    /// (registry lookup) or `design=<point>` (Table IV preset, default
    /// `base`) — passing both is an error.
    fn machine_or_design(
        &self,
        machine: Option<&str>,
        design: Option<&str>,
    ) -> Result<MachineConfig, ApiError> {
        match (machine, design) {
            (Some(_), Some(_)) => Err(ApiError::bad_request(
                "pass either `design` (Table IV point) or `machine` (registry name), not both",
            )),
            (Some(name), None) => self.machine(name),
            (None, design) => design
                .unwrap_or("base")
                .parse::<DesignPoint>()
                .map(DesignPoint::config)
                .map_err(ApiError::bad_request),
        }
    }

    /// Resolves `workload=NAME[&scale=S][&seed=N]` or `trace=FP` to a
    /// workload handle, after refusing any pair of `query` left unread
    /// (so a malformed query is never looked up or profiled).
    fn resolve(&self, mut query: Query<'_>) -> Result<WorkloadHandle, ApiError> {
        match (query.str("workload"), query.str("trace")) {
            (Some(_), Some(_)) => Err(ApiError::bad_request(
                "pass either `workload` (catalog) or `trace` (uploaded fingerprint), not both",
            )),
            (Some(name), None) => {
                let scale = query.num::<f64>("scale")?.unwrap_or(1.0);
                let seed = query.num::<u64>("seed")?.unwrap_or(1);
                query.finish()?;
                let handle = self
                    .session
                    .workload(name)
                    .map_err(|e| ApiError::not_found(e.to_string()))?;
                Ok(handle.scale(scale).seed(seed))
            }
            (None, Some(fp)) => {
                if let Some(key) = ["scale", "seed"]
                    .into_iter()
                    .find(|k| query.str(k).is_some())
                {
                    return Err(ApiError::bad_request(format!(
                        "`{key}` applies to catalog workloads only: an uploaded trace's stream is fixed"
                    )));
                }
                let fp = u64::from_str_radix(fp, 16).map_err(|_| {
                    ApiError::bad_request(format!("`trace={fp}` is not a hex fingerprint"))
                })?;
                query.finish()?;
                self.uploads
                    .lock()
                    .expect("uploads lock")
                    .by_fingerprint
                    .get(&fp)
                    .cloned()
                    .ok_or_else(|| {
                        ApiError::not_found(format!(
                            "no uploaded trace {fp:016x} (expired or never uploaded; POST /traces)"
                        ))
                    })
            }
            (None, None) => Err(ApiError::bad_request(
                "missing `workload=<catalog name>` or `trace=<fingerprint>` query parameter",
            )),
        }
    }

    /// The resident-profile fast path: `Ok` with the profile when cached,
    /// otherwise a `202 Accepted` document pointing at a freshly submitted
    /// profiling job.
    fn profile_or_job(&self, handle: &WorkloadHandle) -> Result<rppm::ProfileHandle, (u16, Value)> {
        if let Some(profile) = handle.profile_if_cached() {
            return Ok(profile);
        }
        let id = self.jobs.submit(handle.clone());
        Err((
            202,
            Value::Object(vec![
                ("job".to_string(), Value::U64(id)),
                (
                    "status".to_string(),
                    Value::String(format!("profiling; poll /jobs/{id}, then retry")),
                ),
            ]),
        ))
    }

    fn handle_predict(&self, head: &RequestHead) -> ApiResult {
        let mut query = Query::new(head);
        let (machine, design) = (query.str("machine"), query.str("design"));
        let handle = self.resolve(query)?;
        let config = self.machine_or_design(machine, design)?;
        match self.profile_or_job(&handle) {
            Ok(profile) => Ok((200, prediction_doc(&profile.predict(&config)))),
            Err(accepted) => Ok(accepted),
        }
    }

    fn handle_sweep(&self, head: &RequestHead) -> ApiResult {
        let mut query = Query::new(head);
        let machines = query.str("machine");
        let handle = self.resolve(query)?;
        // Default sweep: the five Table IV points. `machine=a,b,c` sweeps
        // registered machines instead, labelled by registry name.
        let targets: Vec<(String, MachineConfig)> = match machines {
            Some(list) => list
                .split(',')
                .map(|name| {
                    let name = name.trim();
                    Ok((name.to_string(), self.machine(name)?))
                })
                .collect::<Result<_, ApiError>>()?,
            None => DesignPoint::ALL
                .iter()
                .map(|d| (d.to_string(), d.config()))
                .collect(),
        };
        match self.profile_or_job(&handle) {
            Ok(profile) => {
                let configs: Vec<MachineConfig> = targets.iter().map(|(_, c)| c.clone()).collect();
                let labelled: Vec<(String, rppm::core::Prediction)> = targets
                    .into_iter()
                    .map(|(name, _)| name)
                    .zip(profile.predict_sweep(&configs))
                    .collect();
                Ok((200, sweep_doc(handle.name(), &labelled)))
            }
            Err(accepted) => Ok(accepted),
        }
    }

    fn handle_dse(&self, head: &RequestHead) -> ApiResult {
        let mut query = Query::new(head);
        let tiny = query.flag("tiny");
        let best_only = query.flag("best_only");
        let bound = query.num::<f64>("bound")?.unwrap_or(0.05);
        if !(0.0..1.0).contains(&bound) {
            return Err(ApiError::bad_request(format!(
                "`bound={bound}` is not in [0, 1)"
            )));
        }
        let constraints = Constraints {
            max_area: query.num("max_area")?,
            max_power: query.num("max_power")?,
        };
        let machine = query.str("machine");
        let handle = self.resolve(query)?;
        let base = match machine {
            Some(name) => self.machine(name)?,
            None => DesignPoint::Base.config(),
        };
        let profile = match self.profile_or_job(&handle) {
            Ok(p) => p,
            Err(accepted) => return Ok(accepted),
        };
        let prepared = profile.prepared();
        let space = if tiny {
            ConfigSpace::tiny_from(base)
        } else {
            ConfigSpace::default_space_from(base)
        };
        let jobs = self.session.jobs();
        if best_only {
            let out = find_best(prepared, &space, &constraints, bound, jobs)
                .map_err(|e| ApiError::bad_request(format!("{}: {e}", handle.name())))?;
            return Ok((200, dse_best_doc(handle.name(), &space, &out)));
        }
        let bounds = dse_bounds_ladder(bound);
        let out = sweep(prepared, &space, &constraints, &bounds, jobs)
            .map_err(|e| ApiError::bad_request(format!("{}: {e}", handle.name())))?;
        Ok((200, dse_sweep_doc(handle.name(), &space, &out)))
    }

    /// What every upload passes before its body is read: no query, and a
    /// `Content-Length` body (411) within the body limit (413).
    fn check_upload(&self, head: &RequestHead, what: &str) -> Result<(), ApiError> {
        Query::new(head).finish()?;
        if head.content_length == 0 {
            return Err(ApiError::new(
                411,
                format!("{what} upload needs a Content-Length body"),
            ));
        }
        if head.content_length > self.max_body_bytes {
            return Err(ApiError::new(
                413,
                format!(
                    "body of {} bytes exceeds the {}-byte limit",
                    head.content_length, self.max_body_bytes
                ),
            ));
        }
        Ok(())
    }

    fn handle_upload(&self, head: &RequestHead, body: &mut dyn Read) -> ApiResult {
        self.check_upload(head, "trace")?;
        let mut limited = body.take(head.content_length);
        let program = if head.content_length > self.spool_bytes {
            spool_and_read(&mut limited)?
        } else {
            read_program_stream(&mut limited)
                .map_err(|e| ApiError::bad_request(format!("trace rejected: {e}")))?
        };
        // Binary traces can end before Content-Length does; drain so the
        // connection stays framed for keep-alive.
        std::io::copy(&mut limited, &mut std::io::sink())
            .map_err(|e| ApiError::bad_request(format!("body read failed: {e}")))?;
        let fingerprint = program_fingerprint(&program);
        let name = program.name.clone();
        let handle = self
            .session
            .program(program)
            .map_err(|e| ApiError::bad_request(format!("trace rejected: {e}")))?;
        self.uploads.lock().expect("uploads lock").insert(
            fingerprint,
            handle.clone(),
            self.max_uploads,
        );
        let id = self.jobs.submit(handle);
        Ok((
            202,
            Value::Object(vec![
                ("job".to_string(), Value::U64(id)),
                ("workload".to_string(), Value::String(name)),
                (
                    "trace".to_string(),
                    Value::String(format!("{fingerprint:016x}")),
                ),
            ]),
        ))
    }

    fn handle_machine_upload(&self, head: &RequestHead, body: &mut dyn Read) -> ApiResult {
        self.check_upload(head, "machine")?;
        let mut text = String::new();
        body.take(head.content_length)
            .read_to_string(&mut text)
            .map_err(|e| ApiError::bad_request(format!("body read failed: {e}")))?;
        let config = parse_machine(&text)
            .map_err(|e| ApiError::bad_request(format!("machine rejected: {e}")))?;
        if config.name.parse::<DesignPoint>().is_ok() {
            return Err(ApiError::bad_request(format!(
                "machine rejected: `{}` names a Table IV preset; upload it under another name",
                config.name
            )));
        }
        let name = config.name.clone();
        let description = describe_config(&config);
        self.machines
            .lock()
            .expect("machines lock")
            .insert(config, self.max_uploads);
        Ok((
            200,
            Value::Object(vec![
                ("machine".to_string(), Value::String(name)),
                ("config".to_string(), Value::String(description)),
            ]),
        ))
    }

    fn handle_job(&self, path: &str) -> ApiResult {
        let id = path
            .strip_prefix("/jobs/")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| ApiError::bad_request("job ids are decimal: /jobs/<n>"))?;
        let state = self
            .jobs
            .state(id)
            .ok_or_else(|| ApiError::not_found(format!("no job {id}")))?;
        Ok((200, job_doc(id, &state)))
    }

    fn handle_stats(&self) -> ApiResult {
        let cache = self.session.cache();
        let counts = self.jobs.counts();
        let budget = cache.budget();
        let opt_u64 = |v: Option<u64>| v.map(Value::U64).unwrap_or(Value::Null);
        Ok((
            200,
            Value::Object(vec![
                (
                    "uptime_seconds".to_string(),
                    Value::F64(self.started.elapsed().as_secs_f64()),
                ),
                (
                    "requests".to_string(),
                    Value::U64(self.requests.load(Ordering::Relaxed)),
                ),
                (
                    "cache".to_string(),
                    Value::Object(vec![
                        ("lookups".to_string(), Value::U64(cache.lookups() as u64)),
                        ("hits".to_string(), Value::U64(cache.hits() as u64)),
                        (
                            "profiles_collected".to_string(),
                            Value::U64(cache.profiles_collected() as u64),
                        ),
                        (
                            "evictions".to_string(),
                            Value::U64(cache.evictions() as u64),
                        ),
                        ("resident".to_string(), Value::U64(cache.resident() as u64)),
                        (
                            "resident_bytes".to_string(),
                            Value::U64(cache.resident_bytes()),
                        ),
                        (
                            "max_entries".to_string(),
                            opt_u64(budget.max_entries.map(|n| n as u64)),
                        ),
                        ("max_bytes".to_string(), opt_u64(budget.max_bytes)),
                    ]),
                ),
                (
                    "uploads".to_string(),
                    Value::U64(self.uploads.lock().expect("uploads lock").order.len() as u64),
                ),
                (
                    "machines".to_string(),
                    Value::U64(self.machines.lock().expect("machines lock").by_name.len() as u64),
                ),
                (
                    "jobs".to_string(),
                    Value::Object(vec![
                        ("queued".to_string(), Value::U64(counts.queued as u64)),
                        ("running".to_string(), Value::U64(counts.running as u64)),
                        ("done".to_string(), Value::U64(counts.done as u64)),
                        ("failed".to_string(), Value::U64(counts.failed as u64)),
                    ]),
                ),
            ]),
        ))
    }

    fn route(&self, head: &RequestHead, body: &mut dyn Read) -> (u16, Value) {
        // Endpoints that read no query refuse any key.
        let no_query = || Query::new(head).finish();
        let result = match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => no_query().map(|()| {
                (
                    200,
                    Value::Object(vec![("ok".to_string(), Value::Bool(true))]),
                )
            }),
            ("GET", "/stats") => no_query().and_then(|()| self.handle_stats()),
            ("GET", "/predict") => self.handle_predict(head),
            ("GET", "/sweep") => self.handle_sweep(head),
            ("GET", "/dse") => self.handle_dse(head),
            ("POST", "/traces") => self.handle_upload(head, body),
            ("POST", "/machines") => self.handle_machine_upload(head, body),
            ("POST", "/shutdown") => no_query().map(|()| {
                self.stop();
                (
                    200,
                    Value::Object(vec![("stopping".to_string(), Value::Bool(true))]),
                )
            }),
            ("GET", p) if p.starts_with("/jobs/") => no_query().and_then(|()| self.handle_job(p)),
            (m, _) if m != "GET" && m != "POST" => {
                Err(ApiError::new(405, format!("method {m} not supported")))
            }
            (_, p) => Err(ApiError::not_found(format!("no such endpoint `{p}`"))),
        };
        match result {
            Ok((status, doc)) => (status, doc),
            Err(e) => (e.status, error_doc(&e.message)),
        }
    }
}

/// The running service: accept thread + HTTP worker pool + job runners.
///
/// [`Server::bind`] starts everything; [`Server::wait`] parks the caller
/// until a `POST /shutdown` arrives (or [`Server::shutdown`] is called
/// from another thread).
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `config.addr`, spawns the worker pool and job runners, and
    /// returns the handle. The service is accepting requests when this
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let session = Session::builder()
            .jobs(config.jobs)
            .cache_budget(config.budget)
            .build();
        let state = Arc::new(State {
            session,
            jobs: JobQueue::new(),
            uploads: Mutex::new(Uploads::default()),
            machines: Mutex::new(Machines::seeded()),
            requests: AtomicU64::new(0),
            started: Instant::now(),
            stopping: AtomicBool::new(false),
            max_body_bytes: config.max_body_bytes,
            spool_bytes: config.spool_bytes,
            max_uploads: config.max_uploads,
            addr,
            workers: (0..config.workers.max(1))
                .map(|_| WorkerSlot::default())
                .collect(),
        });

        let mut threads = Vec::new();
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        for w in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rppm-serve-http-{w}"))
                    .spawn(move || loop {
                        let stream = match rx.lock().expect("conn queue lock").recv() {
                            Ok(s) => s,
                            Err(_) => return,
                        };
                        serve_connection(&state, &state.workers[w], stream);
                    })
                    .expect("spawn http worker"),
            );
        }

        for r in 0..config.runners.max(1) {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rppm-serve-runner-{r}"))
                    .spawn(move || {
                        while let Some((id, handle)) = state.jobs.next_job() {
                            let outcome = catch_unwind(AssertUnwindSafe(|| handle.profile()))
                                .map(|_profile| handle.name().to_string())
                                .map_err(|_| "profiling run panicked".to_string());
                            state.jobs.finish(id, outcome);
                        }
                    })
                    .expect("spawn job runner"),
            );
        }

        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("rppm-serve-accept".to_string())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if state.stopping.load(Ordering::SeqCst) {
                                break;
                            }
                            if let Ok(stream) = stream {
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                        }
                        // Dropping `tx` drains the worker pool.
                    })
                    .expect("spawn accept thread"),
            );
        }

        Ok(Server {
            state,
            addr,
            threads,
        })
    }

    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server state accessors for embedding callers and tests.
    pub fn session(&self) -> &Session {
        &self.state.session
    }

    /// Initiates shutdown: stops accepting, wakes the job runners,
    /// releases the workers waiting on idle kept-alive connections, and
    /// unblocks the accept loop.
    pub fn shutdown(&self) {
        self.state.stop();
    }

    /// Blocks until every thread exits (after [`Server::shutdown`] or an
    /// HTTP `POST /shutdown`).
    pub fn wait(mut self) {
        // If shutdown came over HTTP, the accept loop may still be parked
        // in `accept()`; poke it.
        if self.state.stopping.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Whether a shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.state.stopping.load(Ordering::SeqCst)
    }
}

/// Serves one connection on the worker owning `slot`, which holds a
/// handle on it for [`State::stop`].
fn serve_connection(state: &State, slot: &WorkerSlot, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // Responses are small and latency-bound; never wait on Nagle.
    let _ = stream.set_nodelay(true);
    let Ok(handle) = stream.try_clone() else {
        return;
    };
    *slot.conn.lock().expect("worker slot lock") = Some(handle);
    serve_requests(state, &slot.idle, &stream);
    slot.idle.store(false, Ordering::Relaxed);
    *slot.conn.lock().expect("worker slot lock") = None;
}

/// The keep-alive request loop, with panic isolation — a handler panic
/// produces a 500 and closes this connection, never kills the worker.
/// `idle` is set while the loop waits for a request's first byte.
fn serve_requests(state: &State, idle: &AtomicBool, stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);

    const MAX_REQUESTS_PER_CONN: usize = 10_000;
    for _ in 0..MAX_REQUESTS_PER_CONN {
        // Either this load sees the stop, or the stop sees `idle` and
        // shuts the read half down under this wait.
        idle.store(true, Ordering::SeqCst);
        if state.stopping.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let arrived = reader.fill_buf().map(|bytes| !bytes.is_empty());
        // Clearing publishes nothing: a stop that still reads `true` meets
        // a request that arrived as it stopped, and may cut it short.
        idle.store(false, Ordering::Relaxed);
        if !matches!(arrived, Ok(true)) {
            return;
        }
        let head = match read_request_head(&mut reader) {
            Ok(h) => h,
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(HttpError::HeadTooLarge) => {
                let body =
                    serde_json::to_string(&error_doc("request head too large")).unwrap_or_default();
                let _ =
                    write_response(&mut writer, 431, "application/json", body.as_bytes(), false);
                return;
            }
            Err(e) => {
                let body = serde_json::to_string(&error_doc(&e.to_string())).unwrap_or_default();
                let _ =
                    write_response(&mut writer, 400, "application/json", body.as_bytes(), false);
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut body = (&mut reader).take(head.content_length);
            let response = state.route(&head, &mut body);
            // Drain whatever the handler left unread so the next request
            // on this connection starts at a frame boundary — but never
            // slurp a body the handler rejected as oversized; close the
            // connection instead.
            let drained = head.content_length <= state.max_body_bytes
                && std::io::copy(&mut body, &mut std::io::sink()).is_ok();
            (response, drained)
        }));
        let (response, keep_alive) = match outcome {
            Ok(((status, doc), drained)) => {
                let keep = head.keep_alive && drained && !state.stopping.load(Ordering::SeqCst);
                ((status, doc), keep)
            }
            Err(_) => ((500, error_doc("internal error")), false),
        };
        let (status, doc) = response;
        let body = serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string());
        if write_response(
            &mut writer,
            status,
            "application/json",
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
        {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}
