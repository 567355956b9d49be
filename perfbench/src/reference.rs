//! The host-speed reference.
//!
//! On a shared host the speed of a virtual CPU drifts by a third or more
//! over minutes, as neighbours come and go, and every wall time moves
//! with it. A run therefore also times a fixed kernel, before every
//! set-up and between operations, and scales the times of each phase by
//! how fast that kernel ran in it: a time is reported as it would have
//! been on a host where the kernel takes [`NOMINAL_SECS`]. The kernel is
//! part of this package, not of the program under test, so a change to
//! the program moves the scaled times and a change of host speed mostly
//! does not. This is the same idea as the same-process ratio guards of
//! `BENCH_speed.json`, applied to whole flows.

use crate::measure::median;
use std::time::{Duration, Instant};

/// Median kernel time on the host the bounds were tuned on (a 2-vCPU
/// Xeon virtual machine); scaled times are relative to it.
pub const NOMINAL_SECS: f64 = 1.2e-3;

/// Least wall time between two samples in the measured phase, so the
/// kernel takes about 2% of it.
const INTERVAL: Duration = Duration::from_millis(50);

/// Slots of the kernel's hash table (512 KiB of `u64`).
const SLOTS: usize = 1 << 16;

/// Keys the kernel looks up, or inserts, per sample.
const KEYS: usize = 60_000;

/// Kernel timings of one run.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
    samples: Vec<f64>,
    last: Instant,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: vec![0; SLOTS],
            samples: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl Reference {
    /// Runs and times the kernel once.
    pub fn sample(&mut self) {
        let started = Instant::now();
        std::hint::black_box(kernel(&mut self.table));
        self.samples.push(started.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Samples if [`INTERVAL`] has passed since the last sample; returns
    /// the seconds spent.
    pub fn tick(&mut self) -> f64 {
        if self.last.elapsed() < INTERVAL {
            return 0.0;
        }
        self.sample();
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// Ends a phase of the run (sampling once if it has no sample yet).
    pub fn end_phase(&mut self) -> Phase {
        if self.samples.is_empty() {
            self.sample();
        }
        let phase = Phase {
            secs: median(&self.samples),
            samples: self.samples.len(),
        };
        self.samples.clear();
        phase
    }
}

/// The kernel's timings in one phase of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Median kernel time, seconds.
    pub secs: f64,
    /// Samples taken.
    pub samples: usize,
}

impl Phase {
    /// How much slower than nominal the host ran: divide times by it,
    /// multiply rates by it.
    pub fn slowdown(&self) -> f64 {
        self.secs / NOMINAL_SECS
    }
}

/// Looks up pseudo-random keys in an open-addressing hash table that
/// starts empty, inserting three in four of those it misses: hashing,
/// linear probing with data-dependent branches, and scattered reads and
/// writes over a table larger than the first-level caches, the kind of
/// work the profiler's and the service's hash maps do. Of the kernels
/// tried (floating-point chains alone or followed by random access to a
/// 1 MiB table, random access to a 16 MiB table, pointer chasing over
/// 256 KiB), this one tracked the three workloads' speed most closely
/// across runs.
fn kernel(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mask = table.len() - 1;
    let mut x: u64 = 7;
    let mut hits = 0;
    for _ in 0..KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 40) | 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & mask;
        loop {
            if table[slot] == key {
                hits += 1;
                break;
            }
            if table[slot] == 0 {
                if key & 3 != 0 {
                    table[slot] = key;
                }
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    hits
}
