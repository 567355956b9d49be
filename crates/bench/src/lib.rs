//! Experiment harness support code for the RPPM reproduction.
//!
//! The `rppm` CLI (`crates/cli`) drives this library to regenerate every
//! table and figure of the paper (see DESIGN.md §5 for the index). It is a
//! client of the public [`rppm::Session`] API: every workload a report runs
//! is a [`rppm::WorkloadHandle`] opened in one session, so the session's
//! cache profiles and prepares it exactly once. This library holds:
//!
//! * [`runner`] — the experiment engine: [`ExperimentPlan`] fans
//!   (workload × config) cells out over a thread pool, each workload
//!   profiled through [`rppm::WorkloadHandle::profile`];
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
pub use runner::{CellRun, ExperimentPlan, Row, WorkloadRuns};
