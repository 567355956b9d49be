//! # RPPM — Rapid Performance Prediction of Multithreaded Workloads
//!
//! Umbrella crate for the RPPM reproduction (De Pestel, Van den Steen,
//! Akram & Eeckhout, ISPASS 2019): a mechanistic analytical model that
//! profiles a multi-threaded workload **once**, collecting only
//! microarchitecture-independent characteristics, and then predicts its
//! execution time on **any** multicore configuration.
//!
//! The pieces (each re-exported as a module here):
//!
//! * [`trace`] — workload IR, generator DSL, machine configurations
//!   (Table IV design points).
//! * [`workloads`] — synthetic Rodinia + Parsec benchmark analogs.
//! * [`profiler`] — the one-time profiler (instruction mix, ILP/MLP
//!   structure, branch entropy, reuse distances, synchronization events).
//! * [`statstack`] — the StatStack cache model with the multi-threaded
//!   extension (shared caches, coherence).
//! * [`branch_model`] — entropy-based branch misprediction prediction.
//! * [`core`] — the RPPM model: Equation 1 + Algorithm 2, the MAIN/CRIT
//!   baselines, bottlegraphs, design-space exploration.
//! * [`sim`] — the detailed multicore simulator used as golden reference.
//!
//! # Quickstart
//!
//! The [`Session`] facade is the front door: it owns the profile-once
//! cache, so however many configurations (or callers) ask about a
//! workload, it is profiled exactly once.
//!
//! ```
//! use rppm::prelude::*;
//!
//! // 1. Open a session (it owns the shared profile-once cache).
//! let session = Session::builder().build();
//!
//! // 2. Pick a workload and profile it once (microarchitecture-
//! //    independent; also works for session.import("trace.rpt") files).
//! let workload = session.workload("hotspot")?.scale(0.02).seed(1);
//! let profile = workload.profile();
//!
//! // 3. Predict any machine configuration from the one profile...
//! let prediction = profile.predict(&DesignPoint::Base.config());
//! let sweep = profile.predict_sweep(
//!     &DesignPoint::ALL.iter().map(|d| d.config()).collect::<Vec<_>>());
//! assert_eq!(sweep.len(), 5);
//!
//! // ...profile once: re-opening the same workload hits the cache.
//! let again = session.workload("hotspot")?.scale(0.02).seed(1).profile();
//! assert_eq!(session.profiles_collected(), 1, "one profiling run");
//! assert_eq!(session.cache_hits(), 1, "second .profile() was a cache hit");
//!
//! // 4. ...and compare against detailed simulation when desired.
//! let reference = profile.simulate(&DesignPoint::Base.config());
//! let err = abs_pct_error(prediction.total_cycles, reference.total_cycles);
//! assert!(err < 0.5, "prediction within 50% of simulation, got {:.0}%", err * 100.0);
//! # Ok::<(), rppm::Error>(())
//! ```
//!
//! The stateless free functions (`profile`, `predict`, `simulate`) remain
//! in the [`prelude`] for one-shot use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod docs;

pub use api::{Error, ProfileHandle, Session, SessionBuilder, WorkloadHandle};
pub use rppm_core::CacheBudget;

pub use rppm_branch_model as branch_model;
pub use rppm_core as core;
pub use rppm_profiler as profiler;
pub use rppm_sim as sim;
pub use rppm_statstack as statstack;
pub use rppm_trace as trace;
pub use rppm_workloads as workloads;

/// Convenient glob-import surface for the common workflow.
pub mod prelude {
    pub use crate::api::{Error, ProfileHandle, Session, SessionBuilder, WorkloadHandle};
    pub use rppm_core::{
        abs_pct_error, predict, predict_crit, predict_main, Bottlegraph, Prediction,
    };
    pub use rppm_profiler::{profile, ApplicationProfile};
    pub use rppm_sim::{simulate, SimResult};
    pub use rppm_trace::{
        read_machine, BlockSpec, DesignPoint, MachineConfig, MachineConfigBuilder, Program,
        ProgramBuilder,
    };
    pub use rppm_workloads::Params as WorkloadParams;
}
