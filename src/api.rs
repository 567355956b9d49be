//! The session facade: RPPM's *profile once, predict many* workflow as a
//! first-class API.
//!
//! A [`Session`] owns a thread-safe profile-once cache
//! ([`rppm_core::ProfileCache`]). Workloads enter the session from the
//! benchmark catalog ([`Session::workload`]), from a trace file in either
//! on-disk container ([`Session::import`], format auto-detected by magic
//! bytes), or as an in-memory [`Program`] ([`Session::program`]); each
//! yields a [`WorkloadHandle`]. Calling [`WorkloadHandle::profile`]
//! collects the microarchitecture-independent profile **at most once per
//! session** — every further call, from any thread, is a cache hit — and
//! returns a [`ProfileHandle`] that predicts any number of machine
//! configurations ([`ProfileHandle::predict`], the parallel
//! [`ProfileHandle::predict_sweep`], or the batched
//! [`ProfileHandle::predict_batch`] for design-space exploration). The
//! profiling run also prepares the profile once (see
//! [`rppm_core::PreparedProfile`]); every handle call evaluates through
//! that one preparation.
//!
//! Everything fallible returns the unified [`Error`], whose variants keep
//! their underlying causes reachable through
//! [`std::error::Error::source`].
//!
//! ```
//! use rppm::{Session, trace::DesignPoint};
//!
//! let session = Session::builder().build();
//! let workload = session.workload("lud")?.scale(0.02).seed(7);
//!
//! let profile = workload.profile();           // profiled here, once
//! let base = profile.predict(&DesignPoint::Base.config());
//! let big = profile.predict(&DesignPoint::Big.config());
//! assert!(base.total_cycles > big.total_cycles);
//! assert_eq!(session.profiles_collected(), 1);
//! # Ok::<(), rppm::Error>(())
//! ```
//!
//! The stateless free functions ([`profile()`](crate::profiler::profile()),
//! [`predict()`](crate::core::predict()), [`simulate()`](crate::sim::simulate()))
//! remain available for one-shot use; the session is those functions plus
//! the amortization contract.

use rppm_core::{
    parallel_map, CacheBudget, Prediction, PreparedProfile, ProfileCache, ProfileKey,
    ProfiledWorkload,
};
use rppm_profiler::ApplicationProfile;
use rppm_sim::{simulate, SimResult};
use rppm_trace::{program_fingerprint, MachineConfig, Program, ProgramError, TraceFileError};
use rppm_workloads::{Benchmark, Params, Suite};
use std::path::Path;
use std::sync::Arc;

/// Unified error type for the `rppm` API surface.
///
/// Every variant preserves its underlying cause: [`Error::Trace`] wraps the
/// typed trace-file diagnostics, [`Error::InvalidProgram`] the structural
/// program validation, and [`Error::Io`] raw I/O failures — all reachable
/// through [`std::error::Error::source`], so callers can render either the
/// one-line summary (`Display`) or the full chain.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The named workload is not in the benchmark catalog.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// Importing or exporting a trace file failed (I/O, bad magic, schema
    /// mismatch, corruption, ...).
    Trace(TraceFileError),
    /// A program violates structural invariants (orphan threads,
    /// unbalanced locks, ...).
    InvalidProgram(ProgramError),
    /// An I/O operation outside the trace containers failed.
    Io {
        /// The path being accessed.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownWorkload { name } => write!(
                f,
                "unknown workload `{name}` (the catalog has {} benchmarks; \
                 see rppm::workloads::all())",
                rppm_workloads::all().len()
            ),
            Error::Trace(e) => write!(f, "{e}"),
            Error::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            Error::Io { path, source } => {
                write!(f, "cannot access `{}`: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::UnknownWorkload { .. } => None,
            Error::Trace(e) => Some(e),
            Error::InvalidProgram(e) => Some(e),
            Error::Io { source, .. } => Some(source),
        }
    }
}

impl From<TraceFileError> for Error {
    fn from(e: TraceFileError) -> Self {
        Error::Trace(e)
    }
}

impl From<ProgramError> for Error {
    fn from(e: ProgramError) -> Self {
        Error::InvalidProgram(e)
    }
}

/// Configures and creates a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    jobs: usize,
    budget: CacheBudget,
}

impl SessionBuilder {
    /// Worker threads for parallel sweeps ([`ProfileHandle::predict_sweep`],
    /// [`ProfileHandle::simulate_sweep`]). Defaults to one per core.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Memory budget for the session's profile cache. The default is
    /// [`CacheBudget::unbounded`] — the historical behaviour, where every
    /// profile ever collected stays resident. Long-lived callers (e.g.
    /// `rppm serve`) should cap the cache by entry count and/or
    /// approximate bytes; least-recently-used resident profiles are then
    /// evicted at insert time, while in-flight profiling runs are never
    /// evicted, so the profile-once coalescing contract is unaffected.
    pub fn cache_budget(mut self, budget: CacheBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        Session {
            cache: Arc::new(ProfileCache::with_budget(self.budget)),
            jobs: self.jobs,
        }
    }
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            jobs: rppm_core::default_jobs(),
            budget: CacheBudget::unbounded(),
        }
    }
}

/// A profile-once session: the owner of the shared [`ProfileCache`].
///
/// Cheap to clone conceptually — hand out [`WorkloadHandle`]s freely; they
/// keep the cache alive via [`Arc`] and may be profiled from any thread.
#[derive(Debug)]
pub struct Session {
    cache: Arc<ProfileCache>,
    jobs: usize,
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session with default settings.
    pub fn new() -> Session {
        Session::builder().build()
    }

    /// Opens a catalog workload by name at full scale and the default
    /// seed ([`Params::full`](rppm_workloads::Params::full)); set either
    /// with [`WorkloadHandle::scale`] / [`WorkloadHandle::seed`].
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorkload`] if `name` is not in the catalog.
    pub fn workload(&self, name: &str) -> Result<WorkloadHandle, Error> {
        let bench = rppm_workloads::by_name(name).ok_or_else(|| Error::UnknownWorkload {
            name: name.to_string(),
        })?;
        Ok(self.handle(Source::Catalog {
            bench,
            params: Params::full(),
        }))
    }

    /// Imports the trace file at `path` as a workload. The container
    /// format (JSON interchange or `RPT1` binary) is auto-detected by
    /// magic bytes; the trace is cached by content fingerprint, so the
    /// same trace imported twice — even once per container format — is
    /// profiled once.
    ///
    /// # Errors
    ///
    /// [`Error::Trace`] on any import failure.
    pub fn import(&self, path: impl AsRef<Path>) -> Result<WorkloadHandle, Error> {
        let program = rppm_trace::read_program_any(path)?;
        Ok(self.fixed(Arc::new(program)))
    }

    /// Adopts an in-memory program (e.g. built with
    /// [`rppm_trace::ProgramBuilder`]) as a workload, validating it first.
    /// Like imports, it is cached by content fingerprint.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProgram`] if the program violates structural
    /// invariants.
    pub fn program(&self, program: Program) -> Result<WorkloadHandle, Error> {
        program.validate()?;
        Ok(self.fixed(Arc::new(program)))
    }

    /// Number of profiling runs this session has performed — the "once"
    /// in profile once, predict many.
    pub fn profiles_collected(&self) -> usize {
        self.cache.profiles_collected()
    }

    /// Profile requests served from the cache instead of re-profiling.
    pub fn cache_hits(&self) -> usize {
        self.cache.hits()
    }

    /// Profiles evicted to stay within the session's [`CacheBudget`].
    /// Always zero for the default unbounded budget.
    pub fn cache_evictions(&self) -> usize {
        self.cache.evictions()
    }

    /// Worker threads for parallel sweeps, as set by
    /// [`SessionBuilder::jobs`].
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared profile cache, for its counters and budget (every
    /// workload handle of this session profiles through it).
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.cache
    }

    fn fixed(&self, program: Arc<Program>) -> WorkloadHandle {
        let fingerprint = program_fingerprint(&program);
        self.handle(Source::Fixed {
            program,
            fingerprint,
        })
    }

    fn handle(&self, source: Source) -> WorkloadHandle {
        WorkloadHandle {
            cache: Arc::clone(&self.cache),
            jobs: self.jobs,
            source,
        }
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// Where a workload handle's program comes from.
#[derive(Debug, Clone)]
enum Source {
    /// A catalog generator plus its generation parameters.
    Catalog { bench: Benchmark, params: Params },
    /// A fixed dynamic stream (imported trace or adopted program),
    /// identified by content fingerprint.
    Fixed {
        program: Arc<Program>,
        fingerprint: u64,
    },
}

/// A workload opened in a [`Session`], ready to be profiled once.
#[derive(Debug, Clone)]
pub struct WorkloadHandle {
    cache: Arc<ProfileCache>,
    jobs: usize,
    source: Source,
}

impl WorkloadHandle {
    /// Sets the generation work scale. Only generated (catalog) workloads
    /// scale; a fixed trace's dynamic stream is immutable, so this is a
    /// no-op for imported workloads.
    pub fn scale(mut self, scale: f64) -> Self {
        if let Source::Catalog { params, .. } = &mut self.source {
            params.scale = scale;
        }
        self
    }

    /// Sets the generation seed. Like [`WorkloadHandle::scale`], a no-op
    /// for fixed traces.
    pub fn seed(mut self, seed: u64) -> Self {
        if let Source::Catalog { params, .. } = &mut self.source {
            params.seed = seed;
        }
        self
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        match &self.source {
            Source::Catalog { bench, .. } => bench.name,
            Source::Fixed { program, .. } => &program.name,
        }
    }

    /// The catalog suite of a generated workload; `None` for imported
    /// traces and adopted programs.
    pub fn suite(&self) -> Option<Suite> {
        match &self.source {
            Source::Catalog { bench, .. } => Some(bench.suite),
            Source::Fixed { .. } => None,
        }
    }

    /// The content fingerprint a fixed trace (an import or an adopted
    /// program) is cached under, as `rppm_trace::program_fingerprint`
    /// computes it; `None` for catalog workloads.
    pub fn fingerprint(&self) -> Option<u64> {
        match &self.source {
            Source::Catalog { .. } => None,
            Source::Fixed { fingerprint, .. } => Some(*fingerprint),
        }
    }

    /// The cache key this workload profiles under.
    fn key(&self) -> ProfileKey {
        match &self.source {
            Source::Catalog { bench, params } => {
                ProfileKey::generated(bench.name, params.scale, params.seed)
            }
            Source::Fixed { fingerprint, .. } => ProfileKey::fingerprint(*fingerprint),
        }
    }

    /// Builds and profiles the workload **at most once per session** —
    /// every further call (same scale/seed, or same trace content, from
    /// any thread) returns the cached profile. The returned
    /// [`ProfileHandle`] carries the shared [`Arc`]s.
    pub fn profile(&self) -> ProfileHandle {
        let key = self.key();
        let workload = match &self.source {
            Source::Catalog { bench, params } => self
                .cache
                .get_or_profile(key, || Arc::new(bench.build(params))),
            Source::Fixed { program, .. } => self.cache.get_or_profile(key, || Arc::clone(program)),
        };
        ProfileHandle {
            workload,
            jobs: self.jobs,
        }
    }

    /// Returns the profile only if it is already resident in the cache —
    /// the non-blocking fast path for services that must not stall a
    /// request behind a profiling run. Refreshes the entry's LRU position
    /// but never profiles and never counts toward the hit/miss statistics;
    /// `None` means a [`WorkloadHandle::profile`] call would have to do
    /// (or join) a profiling run.
    pub fn profile_if_cached(&self) -> Option<ProfileHandle> {
        self.cache.peek(&self.key()).map(|workload| ProfileHandle {
            workload,
            jobs: self.jobs,
        })
    }
}

/// A profiled workload: one microarchitecture-independent profile, any
/// number of predictions.
#[derive(Debug, Clone)]
pub struct ProfileHandle {
    workload: ProfiledWorkload,
    jobs: usize,
}

impl ProfileHandle {
    /// The cached profile artifact (serializable via
    /// [`ApplicationProfile::to_json`]).
    pub fn profile(&self) -> &Arc<ApplicationProfile> {
        &self.workload.profile
    }

    /// The materialized program (what the golden-reference simulator
    /// consumes).
    pub fn program(&self) -> &Arc<Program> {
        &self.workload.program
    }

    /// The profile's one preparation, built with the profile and shared
    /// by every prediction of this workload (e.g. to hand to
    /// [`rppm_core::sweep`] / [`rppm_core::find_best`]).
    pub fn prepared(&self) -> &Arc<PreparedProfile> {
        &self.workload.prepared
    }

    /// Predicts execution on one machine configuration (Equation 1 +
    /// Algorithm 2) — microseconds of model time, no re-profiling.
    pub fn predict(&self, config: &MachineConfig) -> Prediction {
        self.workload.prepared.predict(config)
    }

    /// The MAIN baseline prediction (cycles).
    pub fn predict_main(&self, config: &MachineConfig) -> f64 {
        self.workload.prepared.predict_main(config)
    }

    /// The CRIT baseline prediction (cycles).
    pub fn predict_crit(&self, config: &MachineConfig) -> f64 {
        self.workload.prepared.predict_crit(config)
    }

    /// Predicts every configuration of a design space from the one
    /// profile, chunked over the session's worker threads with one
    /// evaluator per worker, like [`ProfileHandle::predict_batch`]; the
    /// workers share the preparation's rate columns, so a cache geometry or
    /// predictor it has answered before is not queried again.
    /// Results are in `configs` order regardless of the worker count, and
    /// each equals `predict(config)`.
    pub fn predict_sweep(&self, configs: &[MachineConfig]) -> Vec<Prediction> {
        self.workload
            .prepared
            .batched_chunks(configs.len(), self.jobs, |batch, range| {
                configs[range]
                    .iter()
                    .map(|config| batch.predict(config))
                    .collect::<Vec<Prediction>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Predicts total cycles for every configuration, chunked over the
    /// session's worker threads with one batched Equation-1 evaluator
    /// ([`rppm_core::BatchedEq1`]) per worker
    /// ([`PreparedProfile::batched_chunks`]) — an order of magnitude
    /// cheaper per point than [`ProfileHandle::predict`] over many points.
    /// Results are in `configs` order, independent of the worker count,
    /// and each equals `predict(config).total_cycles` bit for bit.
    pub fn predict_batch(&self, configs: &[MachineConfig]) -> Vec<f64> {
        self.workload
            .prepared
            .batched_chunks(configs.len(), self.jobs, |batch, range| {
                configs[range]
                    .iter()
                    .map(|config| batch.eval(config))
                    .collect::<Vec<f64>>()
            })
            .concat()
    }

    /// Golden-reference detailed simulation (slow; for validation).
    pub fn simulate(&self, config: &MachineConfig) -> SimResult {
        simulate(&self.workload.program, config)
    }

    /// Simulates every configuration of a design space, fanned out over
    /// the session's worker threads, in `configs` order.
    pub fn simulate_sweep(&self, configs: &[MachineConfig]) -> Vec<SimResult> {
        parallel_map(self.jobs, configs.len(), |i| self.simulate(&configs[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::DesignPoint;

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let session = Session::new();
        let err = session.workload("nosuch").unwrap_err();
        assert!(matches!(err, Error::UnknownWorkload { ref name } if name == "nosuch"));
        assert!(err.to_string().contains("nosuch"));
    }

    #[test]
    fn sweep_matches_sequential_predictions() {
        let session = Session::builder().jobs(4).build();
        let profile = session
            .workload("nn")
            .expect("catalog")
            .scale(0.02)
            .seed(3)
            .profile();
        let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
        let sweep = profile.predict_sweep(&configs);
        assert_eq!(sweep.len(), configs.len());
        for (p, c) in sweep.iter().zip(&configs) {
            assert_eq!(
                p.total_cycles.to_bits(),
                profile.predict(c).total_cycles.to_bits()
            );
        }
        assert_eq!(session.profiles_collected(), 1);
    }

    #[test]
    fn bounded_session_evicts_and_serves_fast_path() {
        let session = Session::builder()
            .jobs(1)
            .cache_budget(CacheBudget::entries(1))
            .build();
        let a = session.workload("nn").expect("catalog").scale(0.02).seed(1);
        let b = session.workload("nn").expect("catalog").scale(0.02).seed(2);
        assert!(a.profile_if_cached().is_none(), "cold cache has nothing");
        let first = a.profile();
        assert!(a.profile_if_cached().is_some(), "resident after profiling");
        b.profile(); // budget of one entry: this evicts `a`
        assert_eq!(session.cache_evictions(), 1);
        assert!(a.profile_if_cached().is_none(), "evicted entry not served");
        let again = a.profile(); // re-profiles, bit-identical
        assert_eq!(session.profiles_collected(), 3);
        assert_eq!(first.profile().to_json(), again.profile().to_json());
    }

    #[test]
    fn prepared_batch_is_bit_identical_to_scalar() {
        // Five points on four workers: chunks of 2, 1, 1 and 1.
        let session = Session::builder().jobs(4).build();
        let profile = session
            .workload("nn")
            .expect("catalog")
            .scale(0.02)
            .seed(3)
            .profile();
        let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
        let batch = profile.predict_batch(&configs);
        assert_eq!(batch.len(), configs.len());
        for (cycles, c) in batch.iter().zip(&configs) {
            assert_eq!(cycles.to_bits(), profile.predict(c).total_cycles.to_bits());
            assert_eq!(
                cycles.to_bits(),
                rppm_core::predict(profile.profile(), c)
                    .total_cycles
                    .to_bits()
            );
        }
        assert_eq!(
            profile.predict_main(&configs[0]).to_bits(),
            rppm_core::predict_main(profile.profile(), &configs[0]).to_bits()
        );
        assert!(profile.predict_batch(&[]).is_empty());
    }
}
