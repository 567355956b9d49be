//! Synthetic Rodinia and Parsec benchmark analogs.
//!
//! The paper evaluates RPPM on all OpenMP Rodinia v3.1 benchmarks and a
//! pthread Parsec v3.0 subset. Neither suite can run here (no x86 binaries,
//! no Pin), so this crate provides *behavioural analogs* built on the
//! `rppm-trace` DSL: each generator reproduces its namesake's documented
//! signature — thread/synchronization structure (Table III), working-set
//! and sharing behaviour (LLC MPKI up to ~40, MLP up to ~5), instruction
//! mix, branch predictability, and the parallel (im)balance categories of
//! Figure 6. See DESIGN.md §4 for the substitution rationale and the
//! per-benchmark characterizations.
//!
//! Dynamic synchronization counts are scaled down relative to Table III to
//! keep golden-reference simulation fast; every generator documents its
//! scale and [`Benchmark::build`] is deterministic in [`Params::seed`].
//!
//! # Example
//!
//! ```
//! use rppm_workloads::{by_name, Params};
//!
//! let bench = by_name("backprop").expect("known benchmark");
//! let program = bench.build(&Params::quick());
//! assert_eq!(program.name, "backprop");
//! assert!(program.total_ops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod parsec;
pub mod rodinia;

use rppm_trace::Program;

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia v3.1 (OpenMP): barrier-only synchronization, main thread is
    /// part of the worker team.
    Rodinia,
    /// Parsec v3.0 (pthreads): critical sections, barriers, condition
    /// variables, fork/join.
    Parsec,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Rodinia => f.write_str("rodinia"),
            Suite::Parsec => f.write_str("parsec"),
        }
    }
}

/// Generation parameters: a global work scale and a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Work multiplier: 1.0 is the full evaluation size (hundreds of
    /// thousands of ops per thread), smaller values shrink proportionally.
    pub scale: f64,
    /// Seed; different seeds give statistically identical but distinct
    /// dynamic streams (used to test profiling-run insensitivity).
    pub seed: u64,
}

impl Params {
    /// Full evaluation size.
    pub fn full() -> Self {
        Params {
            scale: 1.0,
            seed: 0x5EED,
        }
    }

    /// Reduced size for fast tests (~10% of full).
    pub fn quick() -> Self {
        Params {
            scale: 0.1,
            seed: 0x5EED,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales an op count (clamped to at least 64).
    pub(crate) fn ops(&self, n: u32) -> u32 {
        ((n as f64 * self.scale) as u32).max(64)
    }

    /// Scales a repetition count (sub-linearly, clamped to at least 2), so
    /// reduced-size runs keep a meaningful synchronization structure.
    pub(crate) fn rounds(&self, n: u32) -> u32 {
        ((n as f64 * self.scale.sqrt()) as u32).max(2)
    }

    /// Deterministic per-site seed derivation.
    pub(crate) fn seed_for(&self, bench: u64, thread: u32, epoch: u32) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(bench.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add((thread as u64) << 32)
            .wrapping_add(epoch as u64 + 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::full()
    }
}

/// A named benchmark generator.
#[derive(Clone, Copy)]
pub struct Benchmark {
    /// Benchmark name (matches the paper's tables and figures).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    build_fn: fn(&Params) -> Program,
}

impl Benchmark {
    /// Builds the workload.
    pub fn build(&self, params: &Params) -> Program {
        (self.build_fn)(params)
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

macro_rules! bench {
    ($suite:ident, $module:ident, $name:ident) => {
        Benchmark {
            name: stringify!($name),
            suite: Suite::$suite,
            build_fn: $module::$name,
        }
    };
}

/// All Rodinia analogs: the paper's 16 (Table V order) plus two
/// expansion-set analogs (`hotspot3d`, `b+tree`) beyond the evaluated
/// subset.
pub const RODINIA: [Benchmark; 18] = [
    bench!(Rodinia, rodinia, backprop),
    bench!(Rodinia, rodinia, bfs),
    bench!(Rodinia, rodinia, cfd),
    bench!(Rodinia, rodinia, heartwall),
    bench!(Rodinia, rodinia, hotspot),
    bench!(Rodinia, rodinia, kmeans),
    bench!(Rodinia, rodinia, lavamd),
    bench!(Rodinia, rodinia, leukocyte),
    bench!(Rodinia, rodinia, lud),
    bench!(Rodinia, rodinia, myocyte),
    bench!(Rodinia, rodinia, nn),
    bench!(Rodinia, rodinia, nw),
    bench!(Rodinia, rodinia, particlefilter),
    bench!(Rodinia, rodinia, pathfinder),
    bench!(Rodinia, rodinia, srad),
    bench!(Rodinia, rodinia, streamcluster),
    bench!(Rodinia, rodinia, hotspot3d),
    bench!(Rodinia, rodinia, btree),
];

/// All Parsec analogs: the paper's 10 (Table III order) plus two
/// expansion-set pipeline analogs (`dedup`, `ferret`) beyond the evaluated
/// subset.
pub const PARSEC: [Benchmark; 12] = [
    bench!(Parsec, parsec, blackscholes),
    bench!(Parsec, parsec, bodytrack),
    bench!(Parsec, parsec, canneal),
    bench!(Parsec, parsec, facesim),
    bench!(Parsec, parsec, fluidanimate),
    bench!(Parsec, parsec, freqmine),
    bench!(Parsec, parsec, raytrace),
    bench!(Parsec, parsec, streamcluster_p),
    bench!(Parsec, parsec, swaptions),
    bench!(Parsec, parsec, vips),
    bench!(Parsec, parsec, dedup),
    bench!(Parsec, parsec, ferret),
];

/// Every benchmark, Rodinia first.
pub fn all() -> Vec<Benchmark> {
    RODINIA.iter().chain(PARSEC.iter()).copied().collect()
}

/// Looks a benchmark up by name (Parsec streamcluster is
/// `"streamcluster_p"` or `"streamcluster-p"`, distinguishing it from the
/// Rodinia one).
pub fn by_name(name: &str) -> Option<Benchmark> {
    all()
        .into_iter()
        .find(|b| b.name == name || b.name.replace('_', "-") == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        assert_eq!(RODINIA.len(), 18);
        assert_eq!(PARSEC.len(), 12);
        assert_eq!(all().len(), 30);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("backprop").is_some());
        assert!(by_name("streamcluster-p").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn every_benchmark_builds_and_validates() {
        let p = Params {
            scale: 0.02,
            seed: 1,
        };
        for b in all() {
            let prog = b.build(&p);
            assert!(prog.validate().is_ok(), "{} invalid", b.name);
            assert!(prog.total_ops() > 0, "{} empty", b.name);
            assert!(prog.num_threads() >= 2, "{} not parallel", b.name);
            assert!(prog.num_threads() <= 5, "{} too wide", b.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = Params::quick();
        for b in [by_name("bfs").unwrap(), by_name("vips").unwrap()] {
            assert_eq!(b.build(&p), b.build(&p), "{}", b.name);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let b = by_name("backprop").unwrap();
        let a = b.build(&Params::quick());
        let c = b.build(&Params::quick().with_seed(99));
        assert_ne!(a, c);
    }

    #[test]
    fn scale_shrinks_work() {
        let b = by_name("cfd").unwrap();
        let small = b
            .build(&Params {
                scale: 0.05,
                seed: 1,
            })
            .total_ops();
        let big = b
            .build(&Params {
                scale: 0.5,
                seed: 1,
            })
            .total_ops();
        assert!(big > small * 3, "big {big} small {small}");
    }

    #[test]
    fn rodinia_is_barrier_only() {
        use rppm_trace::SyncOp;
        let p = Params {
            scale: 0.02,
            seed: 1,
        };
        for b in RODINIA {
            let prog = b.build(&p);
            for script in &prog.threads {
                for op in script.sync_ops() {
                    assert!(
                        matches!(
                            op,
                            SyncOp::Barrier {
                                via_cond: false,
                                ..
                            } | SyncOp::Create { .. }
                                | SyncOp::Join { .. }
                        ),
                        "{}: unexpected sync op {op}",
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn params_helpers_clamp() {
        let p = Params {
            scale: 0.0001,
            seed: 0,
        };
        assert!(p.ops(100_000) >= 64);
        assert!(p.rounds(10) >= 2);
        assert_ne!(p.seed_for(1, 0, 0), p.seed_for(1, 0, 1));
        assert_ne!(p.seed_for(1, 0, 0), p.seed_for(2, 0, 0));
    }
}
