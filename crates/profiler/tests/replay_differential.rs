//! Differential suite pinning out-of-core replay to in-memory expansion:
//! [`rppm_profiler::profile`] over a recorded op stream must produce a
//! profile bit-identical (as serialized JSON) to the same call on the
//! program it was recorded from — for a sync-rich fixed program, for every
//! catalog-style knob combination the generator sweeps, and under an
//! adversarially tiny chunk/pool budget.

use proptest::prelude::*;
use rppm_profiler::profile;
use rppm_trace::{AddressPattern, BlockSpec, OpReplay, Program, ProgramBuilder, StreamOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rppm-profdiff-test-{}-{tag}-{seq}.rpt",
        std::process::id()
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Every synchronization kind, shared addresses, and uneven per-thread
/// work — the profile must capture identical sync behavior either way.
fn rich_program() -> Program {
    let mut b = ProgramBuilder::new("rich", 3);
    let bar = b.alloc_barrier();
    let mx = b.alloc_mutex();
    let q = b.alloc_queue();
    let rw = b.alloc_rwlock();
    let sem = b.alloc_sem();
    let reg = b.alloc_region(512);
    b.spawn_workers();
    for t in 0..3u32 {
        b.thread(t)
            .block(
                BlockSpec::new(300 + 70 * t, 11 + t as u64)
                    .loads(0.3)
                    .stores(0.08)
                    .branches(0.12)
                    .deps(0.3, 5.0)
                    .addr(AddressPattern::stream(reg), 1.0),
            )
            .barrier(bar)
            .lock(mx)
            .unlock(mx)
            .rw_lock(rw, t == 0)
            .rw_unlock(rw)
            .block(BlockSpec::new(128, 90 + t as u64).fp(0.2, 0.1));
    }
    b.thread(0u32).produce(q, 2).sem_post(sem, 2);
    b.thread(1u32).consume(q).sem_wait(sem);
    b.thread(2u32).consume(q).sem_wait(sem);
    b.join_workers();
    b.build()
}

/// Records `program`, reopens it under `options`, and asserts the replayed
/// profile serializes byte-identically to the expansion profile.
fn assert_profiles_match(program: &Program, options: StreamOptions, what: &str) {
    let path = tmp_path("diff");
    let _guard = TempFile(path.clone());
    rppm_trace::write_program_ops(program, &path).expect("record");
    let replay = OpReplay::open_with(&path, options).expect("open");
    let from_replay = profile(&replay).to_json();
    let from_expansion = profile(program).to_json();
    assert_eq!(from_replay, from_expansion, "{what}: profiles diverge");
}

#[test]
fn rich_program_profiles_identically_from_replay() {
    assert_profiles_match(&rich_program(), StreamOptions::default(), "default options");
}

#[test]
fn tiny_chunk_budget_profiles_identically() {
    // Out-of-core worst case: 3-op decode chunks, a 64-byte buffer pool,
    // no mmap — peak memory is bounded far below the stream size and the
    // profile still cannot move.
    assert_profiles_match(
        &rich_program(),
        StreamOptions {
            chunk_ops: 3,
            pool_bytes: 64,
            mmap: false,
            ..StreamOptions::default()
        },
        "tiny chunk budget",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated-program sweep: arbitrary block shapes and sync mixes
    /// profile identically from replay, across chunk sizes.
    #[test]
    fn generated_programs_profile_identically(
        seed in 1u64..1_000_000,
        ops in 16u32..500,
        loads in 0u32..40,
        stores in 0u32..15,
        branches in 0u32..20,
        chunk_ops in 1usize..1500,
        use_barrier in any::<bool>(),
        use_queue in any::<bool>(),
    ) {
        let mut b = ProgramBuilder::new("prop", 2);
        let bar = b.alloc_barrier();
        let q = b.alloc_queue();
        let reg = b.alloc_region(256);
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t).block(
                BlockSpec::new(ops + t, seed + t as u64)
                    .loads(loads as f64 / 100.0)
                    .stores(stores as f64 / 100.0)
                    .branches(branches as f64 / 100.0)
                    .addr(AddressPattern::stream(reg), 1.0),
            );
            if use_barrier {
                b.thread(t).barrier(bar);
                b.thread(t).block(BlockSpec::new(ops / 3 + 1, seed ^ 0x5A5A));
            }
        }
        if use_queue {
            b.thread(0u32).produce(q, 1);
            b.thread(1u32).consume(q);
        }
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
        prop_assert_eq!(
            profile(&replay).to_json(),
            profile(&program).to_json(),
            "replayed and expanded profiles diverge"
        );
    }
}
