//! RPPM: Rapid Performance Prediction of Multithreaded Workloads on
//! Multicore Processors (De Pestel et al., ISPASS 2019).
//!
//! This crate is the paper's primary contribution: a *mechanistic
//! analytical* model that takes a microarchitecture-independent workload
//! profile (collected once by `rppm-profiler`) and predicts multi-threaded
//! execution time on any multicore configuration, in two phases:
//!
//! 1. **Per-epoch active times** ([`predict_epoch`]) — the single-threaded
//!    interval model (Equation 1: base + branch + I-cache + D-cache
//!    components), extended with the multi-threaded StatStack distributions
//!    so shared-cache interference and cache-coherence invalidations are
//!    reflected in per-thread memory components.
//! 2. **Synchronization** ([`execute`], Algorithm 2) — symbolic execution of
//!    the synchronization events (barriers, critical sections, condition
//!    variables, creation/join) over the predicted epoch times, yielding
//!    idle-time, total execution time and the predicted parallel schedule.
//!
//! Both phases evaluate over a [`PreparedProfile`]: the state derived once
//! from a profile (deduplicated epochs and their StatStack models). The
//! profile-once cache ([`ProfileCache`]) builds one per profiling run.
//!
//! The naive baselines the paper compares against ([`predict_main`],
//! [`predict_crit`]), bottlegraph analysis ([`Bottlegraph`]), design-space
//! exploration helpers ([`evaluate_choice`]) and the Table I
//! error-accumulation study ([`accumulation_error`]) are all here too.
//!
//! # Example
//!
//! ```
//! use rppm_trace::{ProgramBuilder, BlockSpec, DesignPoint};
//! use rppm_profiler::profile;
//! use rppm_core::predict;
//!
//! let mut b = ProgramBuilder::new("demo", 2);
//! b.spawn_workers();
//! b.thread(1u32).block(BlockSpec::new(20_000, 1).deps(0.3, 4.0));
//! b.join_workers();
//!
//! let prof = profile(&b.build());          // profile once...
//! for dp in DesignPoint::ALL {             // ...predict many architectures
//!     let p = predict(&prof, &dp.config());
//!     assert!(p.total_cycles > 0.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulation;
pub mod bottlegraph;
pub mod cache;
pub mod dse;
pub mod eq1;
pub mod predict;
pub mod prepared;
pub mod report;
pub mod symexec;

pub use accumulation::{accumulation_bias, accumulation_error};
pub use bottlegraph::{BottleBox, Bottlegraph};
pub use cache::{CacheBudget, ProfileCache, ProfileKey, ProfiledWorkload};
pub use dse::{
    area_proxy, dse_row, evaluate_choice, find_best, pareto_frontier, power_proxy, sweep,
    ConfigSpace, Constraints, CoreFamily, DseBest, DseChoice, DseError, DsePoint, DseRow, DseSweep,
    TABLE_V_BOUNDS,
};
pub use eq1::{predict_epoch, EpochPrediction, Knobs};
pub use predict::{predict, predict_crit, predict_main, Prediction, ThreadPrediction};
pub use prepared::{BatchedEq1, PreparedProfile};
pub use report::{abs_pct_error, max, mean, signed_pct_error};
pub use rppm_trace::par::{default_jobs, parallel_for, parallel_map};
pub use symexec::{execute, Schedule, ThreadSchedule, ThreadTimeline};
