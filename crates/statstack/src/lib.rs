//! StatStack: statistical cache modeling from reuse distances.
//!
//! This crate implements the cache-locality substrate RPPM builds on:
//!
//! * [`ReuseHistogram`] — a log-bucketed histogram of *reuse distances* (the
//!   number of memory accesses between two accesses to the same cache line),
//!   the cheap-to-collect, microarchitecture-independent locality statistic
//!   of Eklöv & Hagersten's StatStack (ISPASS 2010). Cold accesses (first
//!   touch) and coherence-invalidated reuses (infinite distance) are tracked
//!   separately.
//! * [`StackDistanceModel`] — converts reuse distances into expected *stack
//!   distances* (unique lines touched in between) and predicts the miss rate
//!   of an LRU cache of a given capacity. The conversion uses the closed
//!   form `SD(r) = r − (1/N)·Σᵢ mᵢ·max(0, r − dᵢ)`, the expectation of the
//!   classic "count intervening accesses whose own reuse escapes the window"
//!   argument.
//! * [`MultiThreadCollector`] — the multi-threaded extension (Åhlman 2016)
//!   used by RPPM: it maintains *per-thread* counters (private-cache
//!   locality) and a *global* counter shared by all threads (shared-cache
//!   locality, capturing positive and negative interference), and detects
//!   write invalidations (another thread wrote the line between two accesses
//!   by this thread ⇒ infinite private reuse distance ⇒ coherence miss).
//!   It keeps one record per line and a row of per-thread slots only for
//!   lines two or more threads touch, so its memory is O(lines + shared
//!   lines × threads).
//!
//! # Example
//!
//! ```
//! use rppm_statstack::{ReuseHistogram, StackDistanceModel};
//!
//! // A loop over 100 lines: every reuse distance is 99 intervening accesses.
//! let mut h = ReuseHistogram::new();
//! for _ in 0..10_000u32 { h.record(99); }
//! h.record_cold(100);
//! let model = StackDistanceModel::new(&h);
//! // A 128-line cache holds the loop: only cold misses remain.
//! assert!(model.miss_rate(128) < 0.02);
//! // A 64-line cache thrashes.
//! assert!(model.miss_rate(64) > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collect;
pub mod hist;
pub mod intern;
pub mod model;

pub use collect::{EpochLocality, MultiThreadCollector};
pub use hist::ReuseHistogram;
pub use intern::{AddrInterner, FxHashMap, FxHasher, ReuseTracker};
pub use model::StackDistanceModel;
