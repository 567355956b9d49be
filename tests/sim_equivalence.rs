//! Differential property suite for the profile-guided simulator engine:
//! superinstruction fusion, hot-first dispatch, the MRU cache fast path and
//! chunked block expansion must be **bit-identical** to the naive
//! one-op-at-a-time reference engine — the PGO loop changes cost, never
//! results. Random programs (thread counts, op mixes, dependence chains,
//! sync patterns) × random design points, plus every catalog workload, and
//! the self-profiling probe must observe the same op stream from both
//! engines.

use proptest::prelude::*;
use rppm::sim::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine, SimResult};
use rppm::trace::{AddressPattern, BlockSpec, DesignPoint, MachineConfig, Program, ProgramBuilder};
use rppm::workloads::{by_name, Params};

/// The naive reference engine, the oracle the fused engine must match.
fn simulate_reference(program: &Program, config: &MachineConfig) -> SimResult {
    simulate_with(program, config, SimEngine::Reference, &mut NoProbe)
}

/// Asserts two simulation results are bit-for-bit identical: end-to-end
/// time, every per-thread timing/counter and intervals.
fn assert_identical(a: &SimResult, b: &SimResult) {
    prop_assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
    prop_assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
    prop_assert_eq!(a.threads.len(), b.threads.len());
    for (t, (x, y)) in a.threads.iter().zip(b.threads.iter()).enumerate() {
        prop_assert_eq!(x.start.to_bits(), y.start.to_bits(), "thread {} start", t);
        prop_assert_eq!(
            x.finish.to_bits(),
            y.finish.to_bits(),
            "thread {} finish",
            t
        );
        prop_assert_eq!(x.ops, y.ops, "thread {} ops", t);
        prop_assert_eq!(x.branches, y.branches, "thread {} branches", t);
        prop_assert_eq!(x.mispredicts, y.mispredicts, "thread {} mispredicts", t);
        prop_assert_eq!(x.dram_loads, y.dram_loads, "thread {} dram_loads", t);
        prop_assert_eq!(
            x.cpi.total().to_bits(),
            y.cpi.total().to_bits(),
            "thread {} cpi",
            t
        );
    }
    prop_assert_eq!(&a.intervals, &b.intervals);
}

/// Builds a random fork-join program: `n_threads` workers, each running
/// `blocks` blocks with a generated op mix, separated by barriers.
#[allow(clippy::too_many_arguments)]
fn random_program(
    n_threads: usize,
    blocks: usize,
    ops: u32,
    seed: u64,
    loads: f64,
    stores: f64,
    branches: f64,
    dep_p: f64,
    dep_mean: f64,
    footprint: u64,
) -> Program {
    let mut b = ProgramBuilder::new("random", n_threads);
    let heap = b.alloc_region(4096);
    let shared = b.alloc_region(64);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..n_threads {
        let mut tb = b.thread(t as u32);
        for k in 0..blocks {
            let spec = BlockSpec::new(ops, seed ^ ((t as u64) << 32) ^ k as u64)
                .loads(loads)
                .stores(stores)
                .branches(branches)
                .deps(dep_p, dep_mean)
                .deps2(dep_p / 2.0)
                .load_chain(0.2)
                .fp(0.15, 0.1)
                .code_footprint(footprint)
                .addr(AddressPattern::stream(heap), 2.0)
                .addr(AddressPattern::random(shared), 1.0);
            tb.block(spec);
            if n_threads > 1 {
                tb.barrier(bar);
            }
        }
    }
    b.join_workers();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random program × random design point: the fused engine equals the
    /// naive reference bit for bit.
    #[test]
    fn fused_engine_is_bit_identical_to_reference(
        n_threads in 1usize..6,
        blocks in 1usize..4,
        ops in 200u32..3000,
        seed in 0u64..1000,
        loads in 0.0f64..0.5,
        stores in 0.0f64..0.3,
        branches in 0.0f64..0.3,
        dep_p in 0.0f64..0.8,
        dep_mean in 1.0f64..200.0,
        footprint in 1u64..40,
        point in 0usize..5,
    ) {
        let p = random_program(
            n_threads, blocks, ops, seed, loads, stores, branches, dep_p, dep_mean, footprint,
        );
        let cfg = DesignPoint::ALL[point].config();
        let a = simulate(&p, &cfg);
        let r = simulate_reference(&p, &cfg);
        assert_identical(&a, &r);
    }

    /// The self-profiling probe observes the same executed op stream from
    /// both engines (identical frequencies, pairs and sync mix) and does
    /// not perturb timing.
    #[test]
    fn probe_observes_identical_streams(
        n_threads in 1usize..5,
        ops in 200u32..2000,
        seed in 0u64..1000,
        point in 0usize..5,
    ) {
        let p = random_program(n_threads, 2, ops, seed, 0.3, 0.1, 0.1, 0.4, 8.0, 7);
        let cfg = DesignPoint::ALL[point].config();
        let plain = simulate(&p, &cfg);
        let (probed, after) = simulate_profiled(&p, &cfg, SimEngine::Fused);
        let (_, before) = simulate_profiled(&p, &cfg, SimEngine::Reference);
        assert_identical(&plain, &probed);
        prop_assert_eq!(&after.op_freq, &before.op_freq, "executed op mix must match");
        prop_assert_eq!(&after.pairs, &before.pairs, "dynamic op pairs must match");
        prop_assert_eq!(&after.sync, &before.sync);
        prop_assert_eq!(before.fused_pairs, 0, "reference never fuses");
        prop_assert_eq!(before.dispatches, before.total_ops());
        prop_assert!(after.dispatches <= before.dispatches);
    }

    /// Catalog workloads at random seeds: the real benchmark generators
    /// (producer/consumer queues, locks, cond barriers, task queues) hit
    /// sync paths the random fork-join programs don't.
    #[test]
    fn catalog_workloads_match_reference(
        which in 0usize..30,
        seed in 1u64..100,
        point in 0usize..5,
    ) {
        let benches = rppm::workloads::all();
        let bench = &benches[which];
        let p = bench.build(&Params { scale: 0.02, seed });
        let cfg = DesignPoint::ALL[point].config();
        let a = simulate(&p, &cfg);
        let r = simulate_reference(&p, &cfg);
        assert_identical(&a, &r);
    }
}

/// Single-op and empty-block degenerate shapes (fusion windows can't
/// straddle what doesn't exist).
#[test]
fn degenerate_programs_match_reference() {
    for (n_threads, ops) in [(1usize, 1u32), (1, 2), (2, 1), (4, 3)] {
        let p = random_program(n_threads, 1, ops, 7, 0.5, 0.2, 0.2, 0.5, 2.0, 3);
        let cfg = DesignPoint::Base.config();
        let a = simulate(&p, &cfg);
        let r = simulate_reference(&p, &cfg);
        assert_eq!(
            a.total_cycles.to_bits(),
            r.total_cycles.to_bits(),
            "{n_threads} threads x {ops} ops"
        );
    }
}

/// The paper's profiling-run insensitivity sanity: a workload simulated at
/// two different generator seeds gives different streams, which the probe
/// must reflect (guards against the profile being accidentally static).
#[test]
fn probe_distinguishes_seeds() {
    let bench = by_name("kmeans").expect("known workload");
    let p1 = bench.build(&Params {
        scale: 0.02,
        seed: 1,
    });
    let p2 = bench.build(&Params {
        scale: 0.02,
        seed: 2,
    });
    let cfg = DesignPoint::Base.config();
    let (_, a) = simulate_profiled(&p1, &cfg, SimEngine::Fused);
    let (_, b) = simulate_profiled(&p2, &cfg, SimEngine::Fused);
    assert_eq!(a.total_ops(), b.total_ops(), "same size at equal scale");
    assert_ne!(a.pairs, b.pairs, "distinct dynamic streams");
}
