//! Workload trace intermediate representation for RPPM.
//!
//! This crate provides the *microarchitecture-independent* representation of
//! a multi-threaded workload used throughout the RPPM reproduction:
//!
//! * [`MicroOp`] / [`OpClass`] — dynamic micro-operations with register
//!   dependence distances, cache-line addresses and branch outcomes. This is
//!   the same information a Pin-based profiler observes from a native
//!   execution; here it is produced by a deterministic generator.
//! * [`SyncOp`] — synchronization events (thread creation/join, barriers,
//!   critical sections, condition-variable producer/consumer operations)
//!   mirroring the pthread/OpenMP library calls the paper's profiler hooks.
//! * [`Program`] / [`ThreadScript`] — a whole multi-threaded workload: one
//!   script per thread, each a sequence of parametric instruction
//!   [`BlockSpec`]s interleaved with synchronization events. Blocks are
//!   expanded lazily and deterministically, so multi-million-instruction
//!   workloads occupy almost no memory.
//! * [`ProgramBuilder`] — an ergonomic DSL used by `rppm-workloads` to define
//!   the Rodinia/Parsec benchmark analogs.
//! * [`MachineConfig`] — the target multicore description shared by the
//!   golden-reference simulator (`rppm-sim`) and the analytical model
//!   (`rppm-core`). Includes the five design points of Table IV.
//! * [`machine`][mod@machine] — the `.machine` text format for machine
//!   descriptions: [`read_machine`] / [`write_machine`] with a versioned
//!   key=value layout and typed [`MachineFileError`]s, so design points
//!   come from files instead of code.
//! * [`file`][mod@file] — the versioned on-disk trace interchange format:
//!   [`export_program`] / [`import_program`] with schema-version checking
//!   and typed, actionable errors, so externally collected traces can be
//!   fed to the profiler.
//! * [`binary`][mod@binary] — the `RPT1` binary streaming container for
//!   the same programs: length-prefixed sections, varint + delta encoding,
//!   and a [`TraceWriter`] / [`TraceReader`] pair that never holds more
//!   than one section in memory. [`TraceReader`] is the one section walker:
//!   [`read_program_any`] and [`read_program_stream`] auto-detect either
//!   format by magic bytes, and [`container_info`] inventories any
//!   container without decoding segment records or micro-ops.
//! * [`ops`][mod@ops] — op-stream recording: [`write_program_ops`] records
//!   the fully expanded micro-op stream beside the program in a version-3
//!   `RPT1` container.
//! * [`cursor`][mod@cursor] — [`ThreadCursor`], the one way the profiler
//!   and both simulator engines walk a thread: blocks expanded on the fly,
//!   lent out as zero-copy runs of micro-ops.
//! * [`par`][mod@par] — the tiny scoped-thread parallel runtime
//!   ([`par::parallel_for`] / [`par::parallel_map`] / [`par::default_jobs`])
//!   shared by every crate above.
//! * [`sched`][mod@sched] and [`sync_core`][mod@sync_core] — the
//!   discrete-event core every execution engine (profiler, simulator,
//!   Algorithm 2) runs on: [`SyncCore`], the one implementation of the
//!   synchronization rules and of the scheduling loop over the
//!   [`EventQueue`] ready heap, generic over the engine's [`Clock`]; each
//!   engine plugs in as an [`Executor`].
//!
//! # Example
//!
//! ```
//! use rppm_trace::{ProgramBuilder, BlockSpec, AddressPattern, BranchPattern};
//!
//! let mut b = ProgramBuilder::new("demo", 2);
//! let region = b.alloc_region(1024); // 1024 cache lines
//! let barrier = b.alloc_barrier();
//! for t in 0..2 {
//!     b.thread(t)
//!         .block(
//!             BlockSpec::new(10_000, 0xC0FFEE + t as u64)
//!                 .loads(0.25)
//!                 .stores(0.05)
//!                 .branches(0.1)
//!                 .addr(AddressPattern::stream(region), 1.0)
//!                 .branch_pattern(BranchPattern::loop_every(16)),
//!         )
//!         .barrier(barrier);
//! }
//! b.thread(0).create(1.into());
//! let program = b.build();
//! assert_eq!(program.num_threads(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary;
pub mod block;
pub mod builder;
pub mod config;
pub mod cpi;
pub mod cursor;
pub mod file;
pub mod machine;
pub mod op;
pub mod ops;
pub mod par;
pub mod pattern;
pub mod program;
pub mod rng;
pub mod sched;
pub mod sync;
pub mod sync_core;

pub use binary::{
    container_info, export_program_binary, has_binary_extension, import_program_binary,
    read_program_any, read_program_stream, write_program_binary, ContainerInfo, SectionSummary,
    TraceReader, TraceWriter, BINARY_TRACE_MAGIC, BINARY_TRACE_VERSION,
};
pub use block::BlockSpec;
pub use builder::{ProgramBuilder, ThreadBuilder};
pub use config::{
    BranchPredictorConfig, CacheGeometry, DesignPoint, FuConfig, MachineConfig,
    MachineConfigBuilder,
};
pub use cpi::CpiStack;
pub use cursor::{BlockItem, ThreadCursor};
pub use file::{
    export_program, import_program, program_fingerprint, write_program, TraceFileError,
    TRACE_FORMAT, TRACE_VERSION,
};
pub use machine::{
    format_machine, parse_machine, read_machine, write_machine, MachineFileError, MACHINE_FORMAT,
    MACHINE_VERSION,
};
pub use op::{MicroOp, OpClass};
pub use ops::{export_program_ops, record_ops, write_program_ops};
pub use pattern::{AddressPattern, BranchPattern, Region};
pub use program::{Program, ProgramError, Segment, ThreadScript};
pub use rng::Rng;
pub use sched::{Clock, EventQueue};
pub use sync::{BarrierId, CondId, MutexId, QueueId, SyncMix, SyncOp, ThreadId};
pub use sync_core::{barrier_participants, Executor, SyncCore};
