//! Pins, by value, how every `SyncOp` variant is tallied.
//!
//! Table III counts critical sections, barriers and condition-variable
//! events from the profile; the simulator's self-profile counts the same
//! events by kind. One program issues all eleven variants — including the
//! trace-format version-2 reader-writer locks and semaphores, which no
//! catalog workload uses — so both tallies are checked against literal
//! counts rather than against each other.

use rppm::profiler::profile;
use rppm::sim::{simulate_profiled, SimEngine};
use rppm::trace::{BlockSpec, DesignPoint, Program, ProgramBuilder};

fn work(ops: u32, seed: u64) -> BlockSpec {
    BlockSpec::new(ops, seed).loads(0.2).deps(0.3, 4.0)
}

/// Three threads: two creates and joins, one plain and two
/// condition-variable barrier phases, one mutex section per thread, four
/// reader-writer sections (one writer, three readers), one queue produce
/// of two items with two consumes, and one semaphore post of two permits
/// with two waits.
fn every_variant() -> Program {
    let mut b = ProgramBuilder::new("sync-tally", 3);
    let plain = b.alloc_barrier();
    let cond = b.alloc_barrier();
    let mutex = b.alloc_mutex();
    let queue = b.alloc_queue();
    let rw = b.alloc_rwlock();
    let sem = b.alloc_sem();
    b.spawn_workers();
    for t in 0..3u32 {
        let seed = u64::from(t) * 10;
        b.thread(t)
            .block(work(1_000 + 500 * t, seed))
            .barrier(plain)
            .lock(mutex)
            .block(work(200, seed + 1))
            .unlock(mutex)
            .rw_lock(rw, t == 0)
            .block(work(300, seed + 2))
            .rw_unlock(rw)
            .cond_barrier(cond);
    }
    b.thread(0u32)
        .rw_lock(rw, false)
        .block(work(100, 3))
        .rw_unlock(rw)
        .produce(queue, 2)
        .sem_post(sem, 2);
    for t in 1..3u32 {
        b.thread(t)
            .consume(queue)
            .sem_wait(sem)
            .block(work(400, u64::from(t) * 10 + 4));
    }
    for t in 0..3u32 {
        b.thread(t).cond_barrier(cond);
    }
    b.join_workers();
    b.build()
}

#[test]
fn table3_counts_from_the_profile() {
    let (critical_sections, barriers, cond_vars) = profile(&every_variant()).sync_event_counts();
    // Mutex and reader-writer acquisitions; releases close the same section.
    assert_eq!(critical_sections, 7);
    // Plain barrier waits only.
    assert_eq!(barriers, 3);
    // Condition-variable barrier waits, produces, consumes, semaphore
    // posts and waits.
    assert_eq!(cond_vars, 12);
}

#[test]
fn simulator_probe_tallies_every_variant() {
    let program = every_variant();
    let sync = simulate_profiled(&program, &DesignPoint::Base.config(), SimEngine::Fused)
        .1
        .sync;
    assert_eq!(sync.creates, 2);
    assert_eq!(sync.joins, 2);
    assert_eq!(sync.barriers, 3);
    assert_eq!(sync.cond_barriers, 6);
    // Mutex and reader-writer acquisitions, then their releases.
    assert_eq!(sync.locks, 7);
    assert_eq!(sync.unlocks, 7);
    // Queue produces plus semaphore posts, queue consumes plus waits.
    assert_eq!(sync.produces, 2);
    assert_eq!(sync.consumes, 4);
}
