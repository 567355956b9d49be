//! The profile-once experiment engine.
//!
//! RPPM's headline workflow is "profile once, predict many": one
//! microarchitecture-independent profile per workload, amortized over every
//! design point it is evaluated on. [`ExperimentPlan`] is that workflow as
//! an API — a set of (workload, params) jobs crossed with machine
//! configurations, where profiling happens exactly once per workload (the
//! shared [`ProfileCache`], which also prepares each profile once) and the
//! per-cell work (golden simulation + model predictions through that
//! preparation) fans out over a scoped thread pool.
//!
//! Results are placed by (workload, config) index, so output is
//! byte-identical no matter how many worker threads run the plan.

use rppm_core::Prediction;
use rppm_sim::{simulate, SimResult};
use rppm_trace::{program_fingerprint, read_program_any, MachineConfig, Program, TraceFileError};
use rppm_workloads::{Benchmark, Params, Suite};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

// The amortization engine itself was promoted out of this crate: the cache
// and the scoped fan-out live in `rppm-core`, shared with the
// `rppm::Session` facade. Re-exported here so harness code keeps its
// historical paths.
pub use rppm_core::{default_jobs, parallel_for, ProfileCache, ProfileKey, ProfiledWorkload};

/// A trace imported from an on-disk file (see `rppm_trace::file`), ready to
/// be planned like any built-in benchmark. The program is held behind an
/// [`Arc`] and fingerprinted once, so planning it is cheap and profile
/// caching keys on content, not on file identity.
#[derive(Debug, Clone)]
pub struct ImportedTrace {
    program: Arc<Program>,
    fingerprint: u64,
}

impl ImportedTrace {
    /// Wraps an already-imported program.
    pub fn new(program: Program) -> Self {
        let fingerprint = program_fingerprint(&program);
        ImportedTrace {
            program: Arc::new(program),
            fingerprint,
        }
    }

    /// Reads, validates and wraps the trace file at `path`. The format is
    /// auto-detected by magic bytes: `RPT1` binary containers and JSON
    /// interchange files are both accepted, and twins of the same trace in
    /// either format share one content fingerprint (and therefore one
    /// cached profile).
    ///
    /// # Errors
    ///
    /// Propagates every `rppm_trace` import failure (JSON or binary).
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, TraceFileError> {
        read_program_any(path).map(Self::new)
    }

    /// The workload name recorded in the trace.
    pub fn name(&self) -> &str {
        &self.program.name
    }

    /// The imported program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Content fingerprint (stable across re-imports of identical files).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Anything an [`ExperimentPlan`] can run: a built-in generator from the
/// workload catalog, or a trace imported from a file. Imported traces are
/// first-class — they profile once through the same [`ProfileCache`] and
/// appear in every report alongside the built-ins.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A catalog benchmark, generated from [`Params`].
    Builtin(Benchmark),
    /// An externally collected trace (fixed dynamic stream; [`Params`] do
    /// not apply).
    Imported(ImportedTrace),
}

impl WorkloadSpec {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Builtin(b) => b.name,
            WorkloadSpec::Imported(t) => t.name(),
        }
    }

    /// Suite column label: `rodinia`, `parsec`, or `imported`.
    pub fn suite_label(&self) -> &'static str {
        match self {
            WorkloadSpec::Builtin(b) => match b.suite {
                Suite::Rodinia => "rodinia",
                Suite::Parsec => "parsec",
            },
            WorkloadSpec::Imported(_) => "imported",
        }
    }

    /// Whether this workload came from a trace file.
    pub fn is_imported(&self) -> bool {
        matches!(self, WorkloadSpec::Imported(_))
    }

    /// Materializes the program (generates builtins; shares imports).
    fn build(&self, params: &Params) -> Arc<Program> {
        match self {
            WorkloadSpec::Builtin(b) => Arc::new(b.build(params)),
            WorkloadSpec::Imported(t) => Arc::clone(&t.program),
        }
    }
}

impl From<Benchmark> for WorkloadSpec {
    fn from(b: Benchmark) -> Self {
        WorkloadSpec::Builtin(b)
    }
}

impl From<ImportedTrace> for WorkloadSpec {
    fn from(t: ImportedTrace) -> Self {
        WorkloadSpec::Imported(t)
    }
}

/// Returns the profiled workload for `(spec, params)`, building and
/// profiling it through `cache` on first use. Builtins are keyed by name
/// and generation parameters (same key ⇒ bit-identical program and
/// profile); imported traces by content fingerprint (their dynamic stream
/// is fixed, so [`Params`] are deliberately not part of the key).
pub fn profiled(cache: &ProfileCache, spec: &WorkloadSpec, params: &Params) -> ProfiledWorkload {
    cache.get_or_profile(key_of(spec, params), || spec.build(params))
}

fn key_of(spec: &WorkloadSpec, params: &Params) -> ProfileKey {
    match spec {
        WorkloadSpec::Builtin(b) => ProfileKey::generated(b.name, params.scale, params.seed),
        WorkloadSpec::Imported(t) => ProfileKey::fingerprint(t.fingerprint),
    }
}

/// One (workload, configuration) cell: the golden simulation and the three
/// model predictions, all derived from the workload's shared profile.
#[derive(Debug)]
pub struct CellRun {
    /// The configuration this cell was evaluated on.
    pub config: MachineConfig,
    /// Golden-reference simulation.
    pub sim: SimResult,
    /// Full RPPM prediction.
    pub rppm: Prediction,
    /// MAIN baseline prediction (cycles).
    pub main_cycles: f64,
    /// CRIT baseline prediction (cycles).
    pub crit_cycles: f64,
}

impl CellRun {
    /// Relative error of the RPPM prediction vs. simulation.
    pub fn rppm_error(&self) -> f64 {
        rppm_core::abs_pct_error(self.rppm.total_cycles, self.sim.total_cycles)
    }

    /// Relative error of the MAIN baseline vs. simulation.
    pub fn main_error(&self) -> f64 {
        rppm_core::abs_pct_error(self.main_cycles, self.sim.total_cycles)
    }

    /// Relative error of the CRIT baseline vs. simulation.
    pub fn crit_error(&self) -> f64 {
        rppm_core::abs_pct_error(self.crit_cycles, self.sim.total_cycles)
    }
}

/// All results for one workload job: the shared profile plus one [`CellRun`]
/// per planned configuration (in plan order).
#[derive(Debug)]
pub struct WorkloadRuns {
    /// The workload (builtin benchmark or imported trace).
    pub spec: WorkloadSpec,
    /// Generation parameters (ignored for imported traces).
    pub params: Params,
    /// The workload's shared program + profile.
    pub workload: ProfiledWorkload,
    /// One cell per configuration, in [`ExperimentPlan::configs`] order.
    pub cells: Vec<CellRun>,
}

impl WorkloadRuns {
    /// The cell for the single-config common case.
    ///
    /// # Panics
    ///
    /// Panics if the plan had more than one configuration.
    pub fn only(&self) -> &CellRun {
        assert_eq!(self.cells.len(), 1, "plan has multiple configs");
        &self.cells[0]
    }
}

/// A set of (workload, params) jobs crossed with machine configurations.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Workload jobs (profiled once each).
    pub workloads: Vec<(WorkloadSpec, Params)>,
    /// Configurations every workload is simulated and predicted on.
    pub configs: Vec<MachineConfig>,
}

impl ExperimentPlan {
    /// Plans `workloads` × `configs` with uniform `params`. Accepts any mix
    /// of [`Benchmark`]s, [`ImportedTrace`]s and [`WorkloadSpec`]s.
    pub fn cross<I>(workloads: I, params: Params, configs: Vec<MachineConfig>) -> Self
    where
        I: IntoIterator,
        I::Item: Into<WorkloadSpec>,
    {
        ExperimentPlan {
            workloads: workloads.into_iter().map(|w| (w.into(), params)).collect(),
            configs,
        }
    }

    /// Plans `workloads` on a single configuration.
    pub fn single_config<I>(workloads: I, params: Params, config: MachineConfig) -> Self
    where
        I: IntoIterator,
        I::Item: Into<WorkloadSpec>,
    {
        Self::cross(workloads, params, vec![config])
    }

    /// Runs the plan on `jobs` worker threads, sharing `cache` for
    /// profiles. Two phases, each fanned out over a [`std::thread::scope`]
    /// pool: first every distinct workload is built + profiled (exactly
    /// once, even if it appears in several jobs or was already cached),
    /// then every (workload, config) cell simulates and predicts through
    /// the shared preparation. Results are ordered by plan position —
    /// independent of `jobs` and of scheduling.
    pub fn run(&self, cache: &ProfileCache, jobs: usize) -> Vec<WorkloadRuns> {
        // Phase 1: profile each distinct workload once.
        let mut seen = HashMap::new();
        for (w, p) in &self.workloads {
            seen.entry(key_of(w, p)).or_insert((w, p));
        }
        let unique: Vec<_> = seen.into_values().collect();
        parallel_for(jobs, unique.len(), |i| {
            let (w, p) = unique[i];
            profiled(cache, w, p);
        });

        // Phase 2: one job per (workload, config) cell.
        let shared: Vec<ProfiledWorkload> = self
            .workloads
            .iter()
            .map(|(w, p)| profiled(cache, w, p))
            .collect();
        let n_cfg = self.configs.len();
        let cells: Vec<Mutex<Option<CellRun>>> = (0..self.workloads.len() * n_cfg)
            .map(|_| Mutex::new(None))
            .collect();
        parallel_for(jobs, cells.len(), |i| {
            let (wi, ci) = (i / n_cfg, i % n_cfg);
            let config = &self.configs[ci];
            let w = &shared[wi];
            let sim = simulate(&w.program, config);
            let rppm = w.prepared.predict(config);
            let main_cycles = w.prepared.predict_main(config);
            let crit_cycles = w.prepared.predict_crit(config);
            *cells[i].lock().expect("cell lock") = Some(CellRun {
                config: config.clone(),
                sim,
                rppm,
                main_cycles,
                crit_cycles,
            });
        });

        let mut cells = cells.into_iter();
        self.workloads
            .iter()
            .zip(shared)
            .map(|((spec, params), workload)| WorkloadRuns {
                spec: spec.clone(),
                params: *params,
                workload,
                cells: cells
                    .by_ref()
                    .take(n_cfg)
                    .map(|c| c.into_inner().expect("cell lock").expect("cell filled"))
                    .collect(),
            })
            .collect()
    }
}

/// A simple aligned-column row builder for harness output.
#[derive(Debug, Default)]
pub struct Row {
    cells: Vec<String>,
}

impl Row {
    /// Starts an empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Appends a left-aligned cell of the given width.
    pub fn cell(mut self, width: usize, s: impl std::fmt::Display) -> Self {
        self.cells.push(format!("{s:<width$}"));
        self
    }

    /// Appends a right-aligned cell of the given width.
    pub fn rcell(mut self, width: usize, s: impl std::fmt::Display) -> Self {
        self.cells.push(format!("{s:>width$}"));
        self
    }

    /// Renders the row (no trailing newline).
    pub fn render(self) -> String {
        self.cells.join("  ")
    }

    /// Appends the rendered row plus newline to `out`.
    pub fn line(self, out: &mut String) {
        out.push_str(&self.render());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::DesignPoint;

    #[test]
    fn pipeline_runs_end_to_end() {
        let cache = ProfileCache::new();
        let bench = rppm_workloads::by_name("pathfinder").expect("known");
        let plan = ExperimentPlan::single_config(
            [bench],
            Params {
                scale: 0.02,
                seed: 1,
            },
            DesignPoint::Base.config(),
        );
        let runs = plan.run(&cache, 1);
        assert_eq!(runs.len(), 1);
        let run = runs[0].only();
        assert!(run.sim.total_cycles > 0.0);
        assert!(run.rppm.total_cycles > 0.0);
        assert!(run.main_cycles > 0.0);
        assert!(run.crit_cycles > 0.0);
        assert!(run.rppm_error().is_finite());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn duplicate_jobs_share_one_profile() {
        let cache = ProfileCache::new();
        let bench = rppm_workloads::by_name("nn").expect("known");
        let params = Params {
            scale: 0.02,
            seed: 1,
        };
        // Same workload listed twice, two configs: one profile total.
        let plan = ExperimentPlan::cross(
            [bench, bench],
            params,
            vec![DesignPoint::Base.config(), DesignPoint::Big.config()],
        );
        let runs = plan.run(&cache, 4);
        assert_eq!(runs.len(), 2);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(
            &runs[0].workload.profile,
            &runs[1].workload.profile
        ));
        assert_eq!(runs[0].cells.len(), 2);
    }

    #[test]
    fn imported_traces_are_cached_by_content() {
        let cache = ProfileCache::new();
        let params = Params {
            scale: 0.02,
            seed: 1,
        };
        let bench = rppm_workloads::by_name("nn").expect("known");
        let text = rppm_trace::export_program(&bench.build(&params)).expect("exports");
        // Two independent imports of the same file content...
        let a = ImportedTrace::new(rppm_trace::import_program(&text).expect("imports"));
        let b = ImportedTrace::new(rppm_trace::import_program(&text).expect("imports"));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let plan = ExperimentPlan::single_config([a, b], params, DesignPoint::Base.config());
        let runs = plan.run(&cache, 2);
        // ...share one profile, and Params are not part of an import's key.
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(
            &runs[0].workload.profile,
            &runs[1].workload.profile
        ));
        assert!(runs[0].spec.is_imported());
        assert_eq!(runs[0].spec.name(), "nn");
        assert_eq!(runs[0].spec.suite_label(), "imported");
        // The imported trace predicts bit-identically to the builtin it was
        // exported from.
        let builtin = profiled(&cache, &WorkloadSpec::from(bench), &params);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            builtin
                .prepared
                .predict(&DesignPoint::Base.config())
                .total_cycles
                .to_bits(),
            runs[0].only().rppm.total_cycles.to_bits()
        );
    }

    #[test]
    fn binary_and_json_twins_share_one_profile() {
        let cache = ProfileCache::new();
        let params = Params {
            scale: 0.02,
            seed: 1,
        };
        let bench = rppm_workloads::by_name("lud").expect("known");
        let program = bench.build(&params);
        let json = rppm_trace::export_program(&program).expect("exports json");
        let bin = rppm_trace::export_program_binary(&program).expect("exports binary");
        // The same trace imported once from each container format...
        let a = ImportedTrace::new(rppm_trace::import_program(&json).expect("imports"));
        let b = ImportedTrace::new(rppm_trace::import_program_binary(&bin).expect("imports"));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let plan = ExperimentPlan::single_config([a, b], params, DesignPoint::Base.config());
        let runs = plan.run(&cache, 2);
        // ...is one workload: one profile, bit-identical predictions.
        assert_eq!(cache.len(), 1);
        assert_eq!(
            runs[0].only().rppm.total_cycles.to_bits(),
            runs[1].only().rppm.total_cycles.to_bits()
        );
    }

    #[test]
    fn row_renders_aligned() {
        let mut out = String::new();
        Row::new().cell(6, "ab").rcell(5, 42).line(&mut out);
        assert_eq!(out, "ab         42\n");
    }
}
