//! Detailed multicore timing simulator — the golden reference for RPPM.
//!
//! The paper validates RPPM against Sniper, a hardware-validated cycle-level
//! multicore simulator. This crate plays that role: an instruction-grain
//! out-of-order core model ([`CoreModel`]) per thread, a shared memory
//! hierarchy with write-invalidate coherence ([`MemorySystem`]), a real
//! tournament branch predictor ([`TournamentPredictor`]), and an execution
//! engine implementing full synchronization semantics ([`simulate`]).
//!
//! The simulator and the analytical model (`rppm-core`) share *only* what
//! lives in `rppm-trace`: the workload IR, the
//! [`MachineConfig`](rppm_trace::MachineConfig) and the pthread rules of
//! [`SyncCore`](rppm_trace::SyncCore) — the model never observes simulator
//! timing, mirroring the paper's methodology.
//!
//! # Example
//!
//! ```
//! use rppm_trace::{ProgramBuilder, BlockSpec, DesignPoint};
//! use rppm_sim::simulate;
//!
//! let mut b = ProgramBuilder::new("demo", 2);
//! b.spawn_workers();
//! b.thread(1u32).block(BlockSpec::new(10_000, 7));
//! b.join_workers();
//! let program = b.build();
//!
//! let result = simulate(&program, &DesignPoint::Base.config());
//! assert!(result.total_cycles > 0.0);
//! assert_eq!(result.threads.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bpred;
pub mod cache;
pub mod core;
pub mod engine;
pub mod mem;
pub mod reference;
pub mod simprof;

pub use crate::core::{CoreCounters, CoreModel};
pub use bpred::TournamentPredictor;
pub use cache::SetAssocCache;
pub use engine::{simulate, simulate_profiled, simulate_with, SimEngine, SimResult, ThreadResult};
pub use mem::{MemStats, MemorySystem, ServiceLevel};
pub use simprof::{NoProbe, ProfileCollector, SimProbe, SimProfile, ThreadShape};
