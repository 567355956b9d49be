//! Microarchitecture-independent workload profiler (the Pin-tool analog).
//!
//! [`profile()`] executes a multi-threaded workload once on a unit-cost
//! abstract machine and collects everything RPPM needs to predict its
//! performance on *any* multicore configuration:
//!
//! * per-thread, per-epoch instruction mix, ILP and MLP structure
//!   (micro-trace analysis), branch predictability (outcome entropy) and
//!   branch resolution depth;
//! * private and global reuse-distance histograms (StatStack multi-threaded
//!   extension) including cold misses and coherence write-invalidations;
//! * instruction-line reuse distances (I-cache behaviour);
//! * the synchronization-event sequence delimiting the epochs.
//!
//! The resulting [`ApplicationProfile`] is serializable: collect once, then
//! feed to `rppm-core` to predict any number of machine configurations —
//! the paper's headline workflow.
//!
//! # Example
//!
//! ```
//! use rppm_trace::{ProgramBuilder, BlockSpec};
//! use rppm_profiler::profile;
//!
//! let mut b = ProgramBuilder::new("demo", 2);
//! b.spawn_workers();
//! b.thread(1u32).block(BlockSpec::new(5_000, 3).loads(0.1).addr(
//!     rppm_trace::AddressPattern::stream(rppm_trace::Region::new(0, 128)), 1.0));
//! b.join_workers();
//!
//! let prof = profile(&b.build());
//! assert_eq!(prof.num_threads(), 2);
//! assert!(prof.is_consistent());
//! let json = prof.to_json(); // the on-disk, collect-once artifact
//! assert!(json.contains("demo"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod curves;
pub mod logical;
pub mod microtrace;
pub mod profile;

pub use curves::GridLogs;
pub use logical::profile;
pub use microtrace::{analyze, MicroTraceAnalysis, WINDOWS};
pub use profile::{ApplicationProfile, CondVarUsage, EpochProfile, ThreadProfile};
