//! Experiment harness support code for the RPPM reproduction.
//!
//! The `rppm` CLI (`crates/cli`) drives this library to regenerate every
//! table and figure of the paper (see DESIGN.md §5 for the index). This
//! library holds:
//!
//! * [`runner`] — the experiment engine: [`ExperimentPlan`] fans
//!   (workload × config) cells out over a thread pool while each workload
//!   is profiled and prepared exactly once through the shared
//!   [`ProfileCache`] (the cache itself is `rppm_core::ProfileCache`,
//!   promoted out of this crate and shared with the `rppm::Session`
//!   facade);
//! * [`reports`] — one function per table/figure, each returning the
//!   rendered text and a machine-readable JSON value, used by both
//!   `rppm report <name>` and the in-process `rppm run-all` driver;
//! * [`golden`] — the accuracy-regression harness diffing freshly
//!   generated report JSON against the committed `results/golden/*.json`
//!   baselines (`rppm golden diff`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod reports;
pub mod runner;

pub use reports::{Report, RunCtx};
pub use runner::{
    default_jobs, parallel_for, profiled, CellRun, ExperimentPlan, ImportedTrace, ProfileCache,
    ProfileKey, ProfiledWorkload, Row, WorkloadRuns, WorkloadSpec,
};
