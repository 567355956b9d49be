//! Differential suite pinning the simulator's out-of-core replay path to
//! in-memory expansion: [`rppm_sim::simulate_with`] on a recorded op
//! stream must be bit-identical to [`rppm_sim::simulate`] on the program
//! it was recorded from — timings, CPI stacks, intervals, sync counts and
//! the self-profiling probe output — across all five Table IV design
//! points, through both the optimized and the naive reference core.

use proptest::prelude::*;
use rppm_sim::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine, SimResult};
use rppm_trace::{
    AddressPattern, BlockSpec, DesignPoint, MachineConfig, OpReplay, Program, ProgramBuilder,
    StreamOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fused engine over a replayed stream.
fn simulate_replay(replay: &OpReplay, config: &MachineConfig) -> SimResult {
    simulate_with(replay, config, SimEngine::Fused, &mut NoProbe)
}

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rppm-simdiff-test-{}-{tag}-{seq}.rpt",
        std::process::id()
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Sync-rich two-worker program (fits the smallest design point's
/// one-thread-per-core budget with the tolerated main thread).
fn rich_program() -> Program {
    let mut b = ProgramBuilder::new("simdiff", 3);
    let bar = b.alloc_barrier();
    let mx = b.alloc_mutex();
    let q = b.alloc_queue();
    let reg = b.alloc_region(1 << 14);
    b.spawn_workers();
    for t in 1..3u32 {
        b.thread(t)
            .block(
                BlockSpec::new(8_000 + 700 * t, 11 + t as u64)
                    .loads(0.3)
                    .stores(0.08)
                    .branches(0.1)
                    .deps(0.3, 5.0)
                    .addr(AddressPattern::stream(reg), 1.0),
            )
            .barrier(bar)
            .lock(mx)
            .unlock(mx)
            .block(BlockSpec::new(2_000, 90 + t as u64).fp(0.2, 0.1));
    }
    b.thread(1u32).produce(q, 2);
    b.thread(2u32).consume(q).consume(q);
    b.join_workers();
    b.build()
}

/// Field-by-field bit equality, including per-thread CPI stacks and the
/// active-interval lists the bottlegraphs are built from.
fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.program, b.program, "{what}: program name");
    assert_eq!(a.config, b.config, "{what}: config name");
    assert_eq!(
        a.total_cycles.to_bits(),
        b.total_cycles.to_bits(),
        "{what}: total cycles"
    );
    assert_eq!(a.threads.len(), b.threads.len(), "{what}: thread count");
    for (i, (x, y)) in a.threads.iter().zip(b.threads.iter()).enumerate() {
        assert_eq!(x.start.to_bits(), y.start.to_bits(), "{what}: t{i} start");
        assert_eq!(
            x.finish.to_bits(),
            y.finish.to_bits(),
            "{what}: t{i} finish"
        );
        assert_eq!(x.ops, y.ops, "{what}: t{i} ops");
        assert_eq!(x.mispredicts, y.mispredicts, "{what}: t{i} mispredicts");
        assert_eq!(x.dram_loads, y.dram_loads, "{what}: t{i} dram loads");
        assert_eq!(
            x.cpi.total().to_bits(),
            y.cpi.total().to_bits(),
            "{what}: t{i} cpi"
        );
    }
    assert_eq!(a.intervals, b.intervals, "{what}: intervals");
    assert_eq!(a.sync_events, b.sync_events, "{what}: sync events");
}

#[test]
fn replay_matches_expansion_on_every_design_point() {
    let program = rich_program();
    let path = tmp_path("alldp");
    let _guard = TempFile(path.clone());
    rppm_trace::write_program_ops(&program, &path).expect("record");
    let replay = OpReplay::open(&path).expect("open");
    for dp in DesignPoint::ALL {
        let cfg = dp.config();
        let a = simulate(&program, &cfg);
        let b = simulate_replay(&replay, &cfg);
        assert_bit_identical(&a, &b, &format!("{dp:?}"));
    }
}

#[test]
fn probe_output_matches_from_replay() {
    let program = rich_program();
    let path = tmp_path("probe");
    let _guard = TempFile(path.clone());
    rppm_trace::write_program_ops(&program, &path).expect("record");
    let replay = OpReplay::open(&path).expect("open");
    let cfg = DesignPoint::Base.config();
    let (res_a, prof_a) = simulate_profiled(&program, &cfg, SimEngine::Fused);
    let (res_b, prof_b) = simulate_profiled(&replay, &cfg, SimEngine::Fused);
    assert_bit_identical(&res_a, &res_b, "profiled");
    assert_eq!(prof_a, prof_b, "self-profile probe output diverges");
}

#[test]
fn reference_core_matches_from_replay_under_tiny_chunks() {
    let program = rich_program();
    let path = tmp_path("ref");
    let _guard = TempFile(path.clone());
    rppm_trace::write_program_ops(&program, &path).expect("record");
    // Out-of-core worst case: 5-op chunks, 64-byte pool, no mmap.
    let replay = OpReplay::open_with(
        &path,
        StreamOptions {
            chunk_ops: 5,
            pool_bytes: 64,
            mmap: false,
            ..StreamOptions::default()
        },
    )
    .expect("open");
    let cfg = DesignPoint::Base.config();
    let a = simulate_with(&program, &cfg, SimEngine::Reference, &mut NoProbe);
    let b = simulate_with(&replay, &cfg, SimEngine::Reference, &mut NoProbe);
    assert_bit_identical(&a, &b, "reference core");
    // And the optimized core agrees with both (the existing equivalence
    // property, now holding across the replay boundary too).
    let c = simulate_replay(&replay, &cfg);
    assert_bit_identical(&a, &c, "optimized core from replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Generated-program sweep: arbitrary block shapes simulate
    /// identically from replay on a rotating design point.
    #[test]
    fn generated_programs_simulate_identically(
        seed in 1u64..1_000_000,
        ops in 500u32..4_000,
        loads in 0u32..40,
        branches in 0u32..20,
        chunk_ops in 1usize..2_000,
        dp_index in 0usize..5,
    ) {
        let mut b = ProgramBuilder::new("prop", 2);
        let bar = b.alloc_barrier();
        let reg = b.alloc_region(1 << 12);
        b.spawn_workers();
        b.thread(1u32)
            .block(
                BlockSpec::new(ops, seed)
                    .loads(loads as f64 / 100.0)
                    .branches(branches as f64 / 100.0)
                    .deps(0.25, 6.0)
                    .addr(AddressPattern::stream(reg), 1.0),
            )
            .barrier(bar)
            .block(BlockSpec::new(ops / 3 + 1, seed ^ 0xF00D));
        b.thread(0u32).barrier(bar);
        b.join_workers();
        let program = b.build();

        let path = tmp_path("prop");
        let _guard = TempFile(path.clone());
        rppm_trace::write_program_ops(&program, &path).expect("record");
        let replay = OpReplay::open_with(&path, StreamOptions {
            chunk_ops,
            mmap: seed % 2 == 0,
            ..StreamOptions::default()
        }).expect("open");

        let cfg = DesignPoint::ALL[dp_index].config();
        let a = simulate(&program, &cfg);
        let b = simulate_replay(&replay, &cfg);
        prop_assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
        prop_assert_eq!(&a.intervals, &b.intervals);
        prop_assert_eq!(a.sync_events, b.sync_events);
    }
}
