//! Differential property suite for the shared discrete-event scheduler
//! ([`rppm::trace::EventQueue`]): the min-heap must reproduce the retired
//! linear scan event for event, and the engines built on it must stay
//! bit-identical to each other on random *high-thread-count* fork-join
//! programs — including the format-v2 synchronization ops (reader-writer
//! locks, counting semaphores) that post wakeups through the queue.

use proptest::prelude::*;
use rppm::sim::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine, SimResult};
use rppm::trace::{BlockSpec, DesignPoint, EventQueue, MachineConfig, Program, ProgramBuilder};

/// The naive reference engine, the oracle the fused engine must match.
fn simulate_reference(program: &Program, config: &MachineConfig) -> SimResult {
    simulate_with(program, config, SimEngine::Reference, &mut NoProbe)
}

/// The retired scheduler: a linear scan over every live `(key, thread)`
/// entry picking the **first** entry with the strictly smallest key —
/// i.e. the earliest-posted among key ties. Kept here as the oracle the
/// heap must match event for event.
#[derive(Default)]
struct ScanOracle {
    live: Vec<(u64, usize)>,
}

impl ScanOracle {
    fn post(&mut self, key: u64, thread: usize) {
        self.live.push((key, thread));
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let best = self.live.iter().enumerate().min_by_key(|&(_, &e)| e)?.0;
        Some(self.live.swap_remove(best))
    }
}

/// Builds a fork-join program over `n_threads` workers where every thread
/// runs `phases` phases of: a compute block, a shared read (or exclusive
/// write for the designated writer) under a reader-writer lock, and a
/// semaphore-gated handoff — the v2 sync surface, at thread counts far
/// beyond the paper's 4–8.
fn rw_sem_program(n_threads: usize, phases: usize, ops: u32, seed: u64) -> Program {
    let mut b = ProgramBuilder::new("sched-stress", n_threads);
    let rw = b.alloc_rwlock();
    let sem = b.alloc_sem();
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..n_threads {
        let mut tb = b.thread(t as u32);
        for k in 0..phases {
            let spec = BlockSpec::new(ops, seed ^ ((t as u64) << 24) ^ k as u64).deps(0.3, 6.0);
            tb.block(spec);
            // One writer per phase (rotating), everyone else shares reads.
            let write = t == k % n_threads;
            tb.rw_lock(rw, write);
            tb.block(BlockSpec::new(ops / 4 + 1, seed ^ 0xABCD ^ t as u64));
            tb.rw_unlock(rw);
            // Thread 0 stocks the semaphore; the rest drain one permit each.
            if t == 0 {
                tb.sem_post(sem, (n_threads - 1) as u32);
            } else {
                tb.sem_wait(sem);
            }
            tb.barrier(bar);
        }
    }
    b.join_workers();
    b.build()
}

/// Asserts two simulation results are bit-for-bit identical (the schedule,
/// not just the total, must match).
fn assert_identical(a: &SimResult, b: &SimResult) {
    prop_assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of posts and pops: the heap pops exactly what
    /// the retired linear scan would have picked, every time. Keys repeat
    /// on purpose (barrier releases wake whole cohorts at one timestamp).
    #[test]
    fn event_queue_matches_linear_scan_oracle(
        script in proptest::collection::vec((0u64..50, 0usize..64, any::<bool>()), 1usize..300),
    ) {
        let mut heap = EventQueue::new();
        let mut scan = ScanOracle::default();
        for (key, thread, pop) in script {
            heap.post(key, thread);
            scan.post(key, thread);
            if pop {
                prop_assert_eq!(heap.pop(), scan.pop());
            }
        }
        loop {
            let (a, b) = (heap.pop(), scan.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// High-thread-count fork-join programs exercising the v2 sync ops:
    /// the fused engine and the naive reference share the event queue and
    /// must produce bit-identical schedules at every design point.
    #[test]
    fn high_thread_count_engines_stay_bit_identical(
        n_threads in 8usize..96,
        phases in 1usize..4,
        ops in 50u32..600,
        seed in 0u64..1000,
        point in 0usize..5,
    ) {
        let p = rw_sem_program(n_threads, phases, ops, seed);
        // One core per thread: the engines enforce the paper's
        // thread-per-core assumption, so scaling threads scales cores.
        let cfg = DesignPoint::ALL[point].config_with_cores(n_threads as u32);
        let (a, a_profile) = simulate_profiled(&p, &cfg, SimEngine::Fused);
        let (b, b_profile) = simulate_profiled(&p, &cfg, SimEngine::Reference);
        assert_identical(&a, &b);
        prop_assert_eq!(&a_profile.sync, &b_profile.sync);
    }

    /// The logical profiler walks the same programs with its own inline
    /// heap; its profile must stay structurally consistent (epochs =
    /// events + 1 on every thread) at any thread count and sync mix.
    #[test]
    fn profiler_stays_consistent_at_high_thread_counts(
        n_threads in 8usize..96,
        phases in 1usize..3,
        seed in 0u64..1000,
    ) {
        let p = rw_sem_program(n_threads, phases, 100, seed);
        let prof = rppm::profiler::profile(&p);
        prop_assert!(prof.is_consistent());
        prop_assert_eq!(prof.threads.len(), n_threads);
    }
}

/// A 1024-thread mostly-idle program is exactly the shape the heap exists
/// for; it must still produce the same answer as the reference engine
/// (the perf half of this claim lives in the `sched` bench group).
#[test]
fn mostly_idle_1024_threads_matches_reference() {
    let n = 1024;
    let mut b = ProgramBuilder::new("mostly-idle", n);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..n {
        let mut tb = b.thread(t as u32);
        // Thread 0 does the real work; the other 1023 block almost
        // immediately and wait at the barrier.
        let ops = if t == 0 { 20_000 } else { 10 };
        tb.block(BlockSpec::new(ops, 7 ^ t as u64));
        tb.barrier(bar);
    }
    b.join_workers();
    let p = b.build();
    let cfg = DesignPoint::Base.config_with_cores(n as u32);
    let a = simulate(&p, &cfg);
    let r = simulate_reference(&p, &cfg);
    assert_eq!(a.total_cycles.to_bits(), r.total_cycles.to_bits());
    assert_eq!(a.threads.len(), r.threads.len());
}
