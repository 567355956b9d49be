//! The profile-once experiment engine.
//!
//! RPPM's headline workflow is "profile once, predict many": one
//! microarchitecture-independent profile per workload, amortized over every
//! design point it is evaluated on. [`ExperimentPlan`] is that workflow as
//! an experiment: a set of workloads opened in an [`rppm::Session`]
//! (catalog generators or imported traces, as [`WorkloadHandle`]s) crossed
//! with machine configurations. Each workload profiles through its
//! session's cache, which runs one profiling (and preparation) per
//! distinct workload however many handles, plans or threads ask for it;
//! the per-cell work (golden simulation + model predictions through that
//! preparation) fans out over a scoped thread pool.
//!
//! Results are placed by (workload, config) index, so output is
//! byte-identical no matter how many worker threads run the plan.

use rppm::core::{parallel_map, Prediction};
use rppm::sim::SimResult;
use rppm::trace::MachineConfig;
use rppm::{ProfileHandle, WorkloadHandle};

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
        rppm::core::abs_pct_error(self.rppm.total_cycles, self.sim.total_cycles)
    }

    /// Relative error of the MAIN baseline vs. simulation.
    pub fn main_error(&self) -> f64 {
        rppm::core::abs_pct_error(self.main_cycles, self.sim.total_cycles)
    }

    /// Relative error of the CRIT baseline vs. simulation.
    pub fn crit_error(&self) -> f64 {
        rppm::core::abs_pct_error(self.crit_cycles, self.sim.total_cycles)
    }
}

/// All results for one workload: its shared profile plus one [`CellRun`]
/// per planned configuration (in plan order).
#[derive(Debug)]
pub struct WorkloadRuns {
    /// The workload (catalog benchmark or imported trace).
    pub workload: WorkloadHandle,
    /// The workload's shared program, profile and preparation.
    pub profile: ProfileHandle,
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

/// A set of workloads crossed with machine configurations.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Workloads, each profiled once through its session's cache.
    pub workloads: Vec<WorkloadHandle>,
    /// Configurations every workload is simulated and predicted on.
    pub configs: Vec<MachineConfig>,
}

impl ExperimentPlan {
    /// Plans `workloads` × `configs`.
    pub fn cross(workloads: Vec<WorkloadHandle>, configs: Vec<MachineConfig>) -> Self {
        ExperimentPlan { workloads, configs }
    }

    /// Plans `workloads` on a single configuration.
    pub fn single_config(workloads: Vec<WorkloadHandle>, config: MachineConfig) -> Self {
        Self::cross(workloads, vec![config])
    }

    /// Runs the plan on `jobs` worker threads. Two phases, each fanned out
    /// over a [`std::thread::scope`] pool: first every workload is profiled
    /// through [`WorkloadHandle::profile`] (the session's cache folds
    /// repeated and concurrent requests for one workload onto one
    /// profiling run, and serves already-cached ones), then every
    /// (workload, config) cell simulates and predicts through the shared
    /// preparation. Results are ordered by plan position — independent of
    /// `jobs` and of scheduling.
    pub fn run(&self, jobs: usize) -> Vec<WorkloadRuns> {
        let profiles = parallel_map(jobs, self.workloads.len(), |i| self.workloads[i].profile());
        let n_cfg = self.configs.len();
        let mut cells = parallel_map(jobs, profiles.len() * n_cfg, |i| {
            let config = &self.configs[i % n_cfg];
            let profile = &profiles[i / n_cfg];
            CellRun {
                config: config.clone(),
                sim: profile.simulate(config),
                rppm: profile.predict(config),
                main_cycles: profile.predict_main(config),
                crit_cycles: profile.predict_crit(config),
            }
        })
        .into_iter();
        self.workloads
            .iter()
            .zip(profiles)
            .map(|(workload, profile)| WorkloadRuns {
                workload: workload.clone(),
                profile,
                cells: cells.by_ref().take(n_cfg).collect(),
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
    use rppm::trace::{program_fingerprint, DesignPoint};
    use rppm::workloads::Params;
    use rppm::Session;
    use std::sync::Arc;

    #[test]
    fn pipeline_runs_end_to_end() {
        let session = Session::new();
        let bench = session
            .workload("pathfinder")
            .expect("known")
            .scale(0.02)
            .seed(1);
        let plan = ExperimentPlan::single_config(vec![bench], DesignPoint::Base.config());
        let runs = plan.run(1);
        assert_eq!(runs.len(), 1);
        let run = runs[0].only();
        assert!(run.sim.total_cycles > 0.0);
        assert!(run.rppm.total_cycles > 0.0);
        assert!(run.main_cycles > 0.0);
        assert!(run.crit_cycles > 0.0);
        assert!(run.rppm_error().is_finite());
        assert_eq!(session.cache().len(), 1);
    }

    #[test]
    fn duplicate_jobs_share_one_profile() {
        let session = Session::new();
        let nn = session.workload("nn").expect("known").scale(0.02).seed(1);
        // Same workload listed twice, two configs: one profile total.
        let plan = ExperimentPlan::cross(
            vec![nn.clone(), nn],
            vec![DesignPoint::Base.config(), DesignPoint::Big.config()],
        );
        let runs = plan.run(4);
        assert_eq!(runs.len(), 2);
        assert_eq!(session.cache().len(), 1);
        assert!(Arc::ptr_eq(
            runs[0].profile.profile(),
            runs[1].profile.profile()
        ));
        assert_eq!(runs[0].cells.len(), 2);
    }

    #[test]
    fn imported_traces_are_cached_by_content() {
        let session = Session::new();
        let params = Params {
            scale: 0.02,
            seed: 1,
        };
        let bench = rppm::workloads::by_name("nn").expect("known");
        let text = rppm::trace::export_program(&bench.build(&params)).expect("exports");
        // Two independent imports of the same file content...
        let a = rppm::trace::import_program(&text).expect("imports");
        let b = rppm::trace::import_program(&text).expect("imports");
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        let a = session.program(a).expect("valid");
        let b = session.program(b).expect("valid").scale(0.03).seed(2);
        let plan = ExperimentPlan::single_config(vec![a, b], DesignPoint::Base.config());
        let runs = plan.run(2);
        // ...share one profile, and scale/seed are not part of an import's
        // key.
        assert_eq!(session.cache().len(), 1);
        assert!(Arc::ptr_eq(
            runs[0].profile.profile(),
            runs[1].profile.profile()
        ));
        assert!(runs[0].workload.suite().is_none());
        assert_eq!(runs[0].workload.name(), "nn");
        // The imported trace predicts bit-identically to the builtin it was
        // exported from.
        let builtin = session
            .workload("nn")
            .expect("known")
            .scale(params.scale)
            .seed(params.seed)
            .profile();
        assert_eq!(session.cache().len(), 2);
        assert_eq!(
            builtin
                .predict(&DesignPoint::Base.config())
                .total_cycles
                .to_bits(),
            runs[0].only().rppm.total_cycles.to_bits()
        );
    }

    #[test]
    fn binary_and_json_twins_share_one_profile() {
        let session = Session::new();
        let params = Params {
            scale: 0.02,
            seed: 1,
        };
        let bench = rppm::workloads::by_name("lud").expect("known");
        let program = bench.build(&params);
        let json = rppm::trace::export_program(&program).expect("exports json");
        let bin = rppm::trace::export_program_binary(&program).expect("exports binary");
        // The same trace imported once from each container format...
        let a = rppm::trace::import_program(&json).expect("imports");
        let b = rppm::trace::import_program_binary(&bin).expect("imports");
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        let handles = vec![
            session.program(a).expect("valid"),
            session.program(b).expect("valid"),
        ];
        let plan = ExperimentPlan::single_config(handles, DesignPoint::Base.config());
        let runs = plan.run(2);
        // ...is one workload: one profile, bit-identical predictions.
        assert_eq!(session.cache().len(), 1);
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
