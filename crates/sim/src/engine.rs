//! Multicore execution engine: schedules per-core timing models against the
//! shared memory system under full synchronization semantics (thread
//! creation/join, barriers, critical sections, producer/consumer condition
//! variables, reader-writer locks, semaphores).
//!
//! Cores advance in quantum-sized slices in global-time order (the runnable
//! thread with the smallest local clock goes next), so shared-cache and
//! coherence interactions are observed in approximately correct order and
//! the whole simulation is deterministic. Scheduling is discrete-event: the
//! runnable threads live in an [`EventQueue`] min-heap keyed by their local
//! clocks, so blocked and idle threads cost nothing per scheduling step and
//! thread counts far beyond the paper's 4–8 stay cheap. Synchronization
//! rules come from the [`SyncCore`] the profiler and Algorithm 2 share;
//! this engine keeps its own clock arithmetic — library overhead charged
//! per event, spawn latency for created threads, waits charged to the sync
//! stall component — plus the active intervals. A [`ProfileCollector`]
//! probe tallies the events executed in a [`SyncMix`](rppm_trace::SyncMix).
//!
//! One entry point covers every combination: [`simulate_with`] takes the
//! [`Program`], the [`SimEngine`] (the optimized [`CoreModel`] or the
//! pinned naive dispatch in [`crate::reference`]) and a [`SimProbe`]
//! ([`NoProbe`], or a [`ProfileCollector`] as in [`simulate_profiled`]);
//! [`simulate`] is the common case. Both the core and the probe type
//! monomorphize away. Each thread is walked by one [`ThreadCursor`] that
//! expands its blocks on the fly; uninterrupted op runs are handed to the
//! core as whole zero-copy block slices (`CoreTiming::run_ops`), keeping
//! the per-op quantum bookkeeping out of this loop; the cold
//! synchronization path stays here.

use crate::core::{CoreCounters, CoreModel};
use crate::mem::MemorySystem;
use crate::reference::ReferenceCore;
use crate::simprof::{NoProbe, ProfileCollector, SimProbe, SimProfile};
use rppm_trace::{
    BlockItem, CpiStack, EventQueue, MachineConfig, MicroOp, Program, Step, SyncCore, SyncOp,
    ThreadCursor, ThreadStatus,
};

/// Scheduling quantum in cycles.
const QUANTUM: f64 = 500.0;

/// A per-thread timing model the engine can schedule.
///
/// Implemented by the optimized [`CoreModel`] and by the naive
/// reference core (see [`crate::reference`]); both must produce
/// bit-identical timing, which the differential equivalence tests pin.
pub(crate) trait CoreTiming {
    /// Creates a core in reset state with its clock at `start_time`.
    fn new(config: &MachineConfig, start_time: f64) -> Self;
    /// Current thread-local time in cycles.
    fn time(&self) -> f64;
    /// Sets the initial clock (thread creation).
    fn set_start_time(&mut self, t: f64);
    /// Advances the clock to `t`, charging the jump to sync.
    fn resume_at(&mut self, t: f64);
    /// Charges sync-library overhead cycles.
    fn charge_sync_overhead(&mut self, cycles: f64);
    /// Total sync-library overhead charged.
    fn sync_overhead_charged(&self) -> f64;
    /// Drains in-flight ops and returns the final time.
    fn finish(&mut self) -> f64;
    /// Stall attribution accumulated so far.
    fn stalls(&self) -> &CpiStack;
    /// Execution counters.
    fn counters(&self) -> &CoreCounters;
    /// `(dispatch_actions, fused_pairs)` taken so far.
    fn dispatch_stats(&self) -> (u64, u64);
    /// Processes a prefix of `ops`, stopping after the first op that pushes
    /// the clock past `limit`; returns `(ops_used, over_limit)`.
    fn run_ops(
        &mut self,
        ops: &[MicroOp],
        mem: &mut MemorySystem,
        core_id: usize,
        limit: f64,
    ) -> (usize, bool);
}

impl CoreTiming for CoreModel {
    fn new(config: &MachineConfig, start_time: f64) -> Self {
        CoreModel::new(config, start_time)
    }
    fn time(&self) -> f64 {
        self.time()
    }
    fn set_start_time(&mut self, t: f64) {
        self.set_start_time(t)
    }
    fn resume_at(&mut self, t: f64) {
        self.resume_at(t)
    }
    fn charge_sync_overhead(&mut self, cycles: f64) {
        self.charge_sync_overhead(cycles)
    }
    fn sync_overhead_charged(&self) -> f64 {
        self.sync_overhead_charged()
    }
    fn finish(&mut self) -> f64 {
        self.finish()
    }
    fn stalls(&self) -> &CpiStack {
        self.stalls()
    }
    fn counters(&self) -> &CoreCounters {
        self.counters()
    }
    fn dispatch_stats(&self) -> (u64, u64) {
        self.dispatch_stats()
    }
    #[inline]
    fn run_ops(
        &mut self,
        ops: &[MicroOp],
        mem: &mut MemorySystem,
        core_id: usize,
        limit: f64,
    ) -> (usize, bool) {
        self.run_ops(ops, mem, core_id, limit)
    }
}

/// Per-thread simulation outcome.
#[derive(Debug, Clone)]
pub struct ThreadResult {
    /// Time the thread started executing (cycles).
    pub start: f64,
    /// Time the thread finished (cycles).
    pub finish: f64,
    /// Cycle breakdown; `base` is the residual after attributing stalls.
    pub cpi: CpiStack,
    /// Micro-ops executed.
    pub ops: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Loads serviced by DRAM.
    pub dram_loads: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Accesses served from a remote private cache.
    pub remote_hits: u64,
    /// Coherence invalidations received.
    pub invalidations: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// Synchronization-library overhead cycles (subset of `cpi.sync` during
    /// which the thread was active).
    pub sync_overhead: f64,
}

impl ThreadResult {
    /// Total wall-clock cycles from thread start to finish.
    pub fn total_cycles(&self) -> f64 {
        self.finish - self.start
    }
}

/// Result of simulating a program on a machine configuration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name.
    pub program: String,
    /// Configuration name.
    pub config: String,
    /// End-to-end execution time in cycles (last thread to finish).
    pub total_cycles: f64,
    /// End-to-end execution time in seconds.
    pub total_seconds: f64,
    /// Per-thread outcomes.
    pub threads: Vec<ThreadResult>,
    /// Per-thread active intervals (for bottlegraphs): time ranges during
    /// which the thread was running (not blocked on synchronization).
    pub intervals: Vec<Vec<(f64, f64)>>,
}

impl SimResult {
    /// Total micro-ops executed.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(|t| t.ops).sum()
    }

    /// Average per-thread CPI stack (Figure 5 aggregation).
    pub fn mean_cpi_stack(&self) -> CpiStack {
        let mut acc = CpiStack::default();
        for t in &self.threads {
            acc.add(&t.cpi);
        }
        acc.scaled(1.0 / self.threads.len().max(1) as f64)
    }
}

struct ThreadCtx<C> {
    core: C,
    start: f64,
    intervals: Vec<(f64, f64)>,
    open: f64,
}

/// The per-thread timing model driving a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// The optimized core: hot-first dispatch, fused superinstructions.
    Fused,
    /// The naive one-op-at-a-time core kept as the oracle the fused one is
    /// pinned bit-identical to (see [`crate::reference`]).
    Reference,
}

/// Simulates `program` on `config` with the fused engine, returning the
/// golden-reference timing. Shorthand for [`simulate_with`] with
/// [`SimEngine::Fused`] and [`NoProbe`].
///
/// # Panics
///
/// Panics if the program is structurally invalid (see
/// [`Program::validate`]), uses more threads than the machine has cores, or
/// deadlocks (e.g. consuming from a queue nothing ever produces).
pub fn simulate(program: &Program, config: &MachineConfig) -> SimResult {
    run_simulation::<CoreModel, _>(program, config, &mut NoProbe)
}

/// Simulates `program` on `config` through `engine`, with `probe`
/// observing the dispatch loop. The result never depends on the probe, and
/// is bit-identical across engines (pinned by the `sim_equivalence`
/// suite).
///
/// # Panics
///
/// Same conditions as [`simulate`].
pub fn simulate_with<P: SimProbe>(
    program: &Program,
    config: &MachineConfig,
    engine: SimEngine,
    probe: &mut P,
) -> SimResult {
    match engine {
        SimEngine::Fused => run_simulation::<CoreModel, _>(program, config, probe),
        SimEngine::Reference => run_simulation::<ReferenceCore, _>(program, config, probe),
    }
}

/// [`simulate_with`] collecting the simulator self-profile (op
/// frequencies, pair histogram, sync mix, dispatch-batch shapes, fusion
/// statistics) alongside the result.
///
/// # Panics
///
/// Same conditions as [`simulate`].
pub fn simulate_profiled(
    program: &Program,
    config: &MachineConfig,
    engine: SimEngine,
) -> (SimResult, SimProfile) {
    let mut collector = ProfileCollector::new();
    let result = simulate_with(program, config, engine, &mut collector);
    (result, collector.into_profile())
}

/// Validates inputs and runs the engine with the given timing model and
/// probe.
fn run_simulation<C: CoreTiming, P: SimProbe>(
    program: &Program,
    config: &MachineConfig,
    probe: &mut P,
) -> SimResult {
    program.validate().expect("invalid program");
    config.validate().expect("invalid machine configuration");
    // RPPM assumes one thread per core. One extra thread is tolerated to
    // support the common Parsec structure (a main thread that spawns
    // `cores` workers and then sleeps in join); it gets its own private
    // hierarchy, which is harmless as long as it stays quiescent.
    assert!(
        program.num_threads() <= config.cores as usize + 1,
        "RPPM assumes one thread per core: {} threads > {} cores",
        program.num_threads(),
        config.cores
    );
    Engine::<C>::new(program, config).run(probe)
}

struct Engine<'p, C> {
    config: &'p MachineConfig,
    program: &'p Program,
    /// Per-thread stream cursors, parallel to `threads`. Kept separate so
    /// the zero-copy op slices a cursor lends out can be fed to a core
    /// model while the shared memory system is mutated.
    cursors: Vec<ThreadCursor<'p>>,
    threads: Vec<ThreadCtx<C>>,
    mem: MemorySystem,
    sync: SyncCore<f64>,
    /// Threads the last synchronization step made runnable.
    wake: Vec<(usize, f64)>,
    /// Discrete-event ready queue: `(wake_time, thread)` min-heap. Threads
    /// are posted when they become runnable and popped in global time
    /// order; blocked threads are re-posted by whoever wakes them.
    queue: EventQueue,
}

impl<'p, C: CoreTiming> Engine<'p, C> {
    fn new(program: &'p Program, config: &'p MachineConfig) -> Self {
        let n = program.num_threads();
        let cursors = program.threads.iter().map(ThreadCursor::new).collect();
        let threads = (0..n)
            .map(|_| ThreadCtx {
                core: C::new(config, 0.0),
                start: 0.0,
                intervals: Vec::new(),
                open: 0.0,
            })
            .collect();
        Engine {
            config,
            program,
            cursors,
            threads,
            mem: MemorySystem::with_cores(config, n.max(1)),
            sync: SyncCore::for_program(program),
            wake: Vec::new(),
            queue: EventQueue::new(),
        }
    }

    /// Closes the running thread's active interval as it blocks.
    fn block(&mut self, i: usize) {
        let th = &mut self.threads[i];
        let t = th.core.time();
        if t > th.open {
            th.intervals.push((th.open, t));
        }
    }

    /// The running thread `i` waits in place until `t` (join of a finished
    /// thread, barrier release as last arriver, consuming an item produced
    /// "in the future" relative to this thread's clock). The wait is charged
    /// to sync and excluded from the active intervals.
    fn wait_running(&mut self, i: usize, t: f64) {
        let th = &mut self.threads[i];
        let now = th.core.time();
        if t > now {
            if now > th.open {
                th.intervals.push((th.open, now));
            }
            th.core.resume_at(t);
            th.open = th.core.time();
        }
    }

    /// Makes the threads in `wake` runnable: the child of a `Create`
    /// starts after the spawn latency; a blocked thread resumes at `t`,
    /// its wait charged to sync.
    fn wake_all(&mut self, spawn: bool) {
        let mut wake = std::mem::take(&mut self.wake);
        for (w, t) in wake.drain(..) {
            let th = &mut self.threads[w];
            if spawn {
                let start = t + self.config.spawn_latency_cycles as f64;
                th.core.set_start_time(start);
                th.start = start;
            } else {
                th.core.resume_at(t);
            }
            th.open = th.core.time();
            self.queue.post_at(th.core.time(), w);
        }
        self.wake = wake;
    }

    fn finish_thread(&mut self, i: usize) {
        let th = &mut self.threads[i];
        let t = th.core.finish();
        if t > th.open {
            th.intervals.push((th.open, t));
        }
        self.sync.finish(i, t, &mut self.wake);
        self.wake_all(false);
    }

    /// Handles one synchronization event for thread `i`. Returns `true` if
    /// the thread blocked. This is the cold path of the run loop: every op
    /// between two sync events flows through `CoreTiming::run_ops` without
    /// touching any of this bookkeeping.
    #[cold]
    fn handle_sync(&mut self, i: usize, op: SyncOp) -> bool {
        let core = &mut self.threads[i].core;
        core.charge_sync_overhead(self.config.sync_overhead_cycles as f64);
        let now = core.time();
        let step = self.sync.handle(i, op, now, &mut self.wake);
        self.wake_all(matches!(op, SyncOp::Create { .. }));
        match step {
            Step::Proceed => false,
            Step::WaitUntil(t) => {
                self.wait_running(i, t);
                false
            }
            Step::Block => {
                self.block(i);
                true
            }
        }
    }

    fn run<P: SimProbe>(mut self, probe: &mut P) -> SimResult {
        // Discrete-event scheduling: pop the runnable thread with the
        // smallest local clock from the ready queue (ties to the lowest
        // thread index, matching the historical scan bit for bit); blocked
        // and finished threads cost nothing per scheduling step.
        if !self.threads.is_empty() {
            self.queue.post_at(self.threads[0].core.time(), 0); // main thread starts ready
        }
        while let Some((_, i)) = self.queue.pop() {
            debug_assert_eq!(self.sync.status(i), ThreadStatus::Ready);
            let t0 = self.threads[i].core.time();

            let limit = t0 + QUANTUM;
            loop {
                let Engine {
                    cursors,
                    threads,
                    mem,
                    ..
                } = &mut self;
                match cursors[i].peek_block() {
                    None => {
                        self.finish_thread(i);
                        break;
                    }
                    Some(BlockItem::Sync(op)) => {
                        cursors[i].consume_sync();
                        probe.on_sync(i, &op);
                        if self.handle_sync(i, op) {
                            break;
                        }
                        if self.threads[i].core.time() > limit {
                            break;
                        }
                    }
                    Some(BlockItem::Ops(ops)) => {
                        // Hand the whole lent slice to the core model; it
                        // enforces the quantum after each op exactly like
                        // the per-op loop did (op latencies vary, so the
                        // budget cannot be precomputed as an op count).
                        let th = &mut threads[i];
                        let (used, over) = th.core.run_ops(ops, mem, i, limit);
                        probe.on_ops(i, &ops[..used]);
                        cursors[i].consume_ops(used);
                        if over {
                            break;
                        }
                    }
                }
            }
            // Re-post the thread if it is still runnable after its slice
            // (blocked threads are re-posted by whoever wakes them).
            if self.sync.status(i) == ThreadStatus::Ready {
                self.queue.post_at(self.threads[i].core.time(), i);
            }
        }
        self.sync.assert_finished(&self.program.name);

        for (i, th) in self.threads.iter().enumerate() {
            let (dispatches, fused) = th.core.dispatch_stats();
            probe.on_thread_finish(i, dispatches, fused);
        }

        self.collect()
    }

    fn collect(self) -> SimResult {
        let mut threads = Vec::with_capacity(self.threads.len());
        let mut intervals = Vec::with_capacity(self.threads.len());
        let mut total_cycles: f64 = 0.0;
        for (i, th) in self.threads.iter().enumerate() {
            let finish = self.sync.finish_time(i);
            total_cycles = total_cycles.max(finish);
            let counters = th.core.counters();
            let stalls = th.core.stalls();
            let total = finish - th.start;
            let attributed = stalls.branch
                + stalls.icache
                + stalls.mem_l2
                + stalls.mem_l3
                + stalls.mem_dram
                + stalls.sync;
            let cpi = CpiStack {
                base: (total - attributed).max(0.0),
                ..*stalls
            };
            let ms = self.mem.stats(i);
            threads.push(ThreadResult {
                start: th.start,
                finish,
                cpi,
                ops: counters.ops,
                branches: counters.branches,
                mispredicts: counters.mispredicts,
                loads: counters.loads,
                stores: counters.stores,
                dram_loads: counters.dram_loads,
                l1d_misses: ms.l1d_misses,
                l2_misses: ms.l2_misses,
                l3_misses: ms.l3_misses,
                remote_hits: ms.remote_hits,
                invalidations: ms.invalidations,
                l1i_misses: ms.l1i_misses,
                sync_overhead: th.core.sync_overhead_charged(),
            });
            intervals.push(th.intervals.clone());
        }
        SimResult {
            program: self.program.name.clone(),
            config: self.config.name.clone(),
            total_cycles,
            total_seconds: self.config.cycles_to_seconds(total_cycles),
            threads,
            intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::{
        AddressPattern, BlockSpec, DesignPoint, ProgramBuilder, Region, SyncMix, ThreadId,
    };

    fn base() -> MachineConfig {
        DesignPoint::Base.config()
    }

    fn compute_block(ops: u32, seed: u64) -> BlockSpec {
        BlockSpec::new(ops, seed).deps(0.3, 4.0)
    }

    #[test]
    fn single_thread_program_runs() {
        let mut b = ProgramBuilder::new("single", 1);
        b.thread(0u32).block(compute_block(10_000, 1));
        let p = b.build();
        let r = simulate(&p, &base());
        assert_eq!(r.threads.len(), 1);
        assert!(r.total_cycles > 0.0);
        assert_eq!(r.threads[0].ops, 10_000);
        assert!(r.total_seconds > 0.0);
    }

    #[test]
    fn fork_join_waits_for_workers() {
        let mut b = ProgramBuilder::new("forkjoin", 4);
        b.spawn_workers();
        for t in 1..4u32 {
            b.thread(t).block(compute_block(50_000, t as u64));
        }
        b.join_workers();
        let p = b.build();
        let r = simulate(&p, &base());
        // Main finishes after every worker.
        let main_fin = r.threads[0].finish;
        for t in 1..4 {
            assert!(r.threads[t].finish <= main_fin + 1e-6);
        }
        // Main accumulated join wait.
        assert!(r.threads[0].cpi.sync > 0.0);
    }

    #[test]
    fn barrier_synchronizes_epochs() {
        let mut b = ProgramBuilder::new("barrier", 2);
        let bar = b.alloc_barrier();
        b.spawn_workers();
        // Thread 0: short work. Thread 1: long work. Barrier between.
        b.thread(0u32)
            .block(compute_block(1_000, 1))
            .barrier(bar)
            .block(compute_block(1_000, 2));
        b.thread(1u32)
            .block(compute_block(100_000, 3))
            .barrier(bar)
            .block(compute_block(1_000, 4));
        b.join_workers();
        let p = b.build();
        let (r, profile) = simulate_profiled(&p, &base(), SimEngine::Fused);
        // Thread 0 must have waited for thread 1 at the barrier.
        assert!(
            r.threads[0].cpi.sync > 1000.0,
            "sync wait {}",
            r.threads[0].cpi.sync
        );
        assert_eq!(profile.sync.table3().1, 2);
    }

    #[test]
    fn mutex_serializes_critical_sections() {
        let mut b = ProgramBuilder::new("mutex", 3);
        let m = b.alloc_mutex();
        let shared = b.alloc_region(64);
        b.spawn_workers();
        for t in 0..3u32 {
            let mut tb = b.thread(t);
            for k in 0..20 {
                tb.lock(m)
                    .block(
                        BlockSpec::new(2_000, (t as u64) << 8 | k)
                            .loads(0.2)
                            .stores(0.2)
                            .addr(AddressPattern::stream(Region::new(shared.base, 64)), 1.0),
                    )
                    .unlock(m);
            }
        }
        b.join_workers();
        let p = b.build();
        let (r, profile) = simulate_profiled(&p, &base(), SimEngine::Fused);
        assert_eq!(profile.sync.table3().0, 60);
        // With 3 threads contending, at least one accumulated lock wait.
        let total_sync: f64 = r.threads.iter().map(|t| t.cpi.sync).sum();
        assert!(total_sync > 1000.0, "total sync {total_sync}");
    }

    #[test]
    fn rwlock_readers_share_writer_excludes() {
        let mut b = ProgramBuilder::new("rwlock", 3);
        let rw = b.alloc_rwlock();
        b.spawn_workers();
        // Two readers hold the lock through long work; a late writer must
        // wait for both to release.
        for t in 0..2u32 {
            b.thread(t)
                .rw_lock(rw, false)
                .block(compute_block(50_000, t as u64))
                .rw_unlock(rw);
        }
        b.thread(2u32)
            .block(compute_block(1_000, 9))
            .rw_lock(rw, true)
            .block(compute_block(1_000, 10))
            .rw_unlock(rw);
        b.join_workers();
        let p = b.build();
        let (r, profile) = simulate_profiled(&p, &base(), SimEngine::Fused);
        // Acquisitions count as critical sections (releases do not).
        assert_eq!(profile.sync.table3().0, 3);
        // Readers enter concurrently, so neither waits on the other; the
        // writer queues behind both and eats the read-section latency.
        let writer_wait = r.threads[2].cpi.sync;
        assert!(writer_wait > 1_000.0, "writer wait {writer_wait}");
        for t in 0..2 {
            assert!(
                r.threads[t].cpi.sync < writer_wait,
                "reader {t} waited {} >= writer {writer_wait}",
                r.threads[t].cpi.sync
            );
        }
    }

    #[test]
    fn semaphore_permits_gate_waiters() {
        let mut b = ProgramBuilder::new("sem", 2);
        let s = b.alloc_sem();
        b.spawn_workers();
        b.thread(0u32)
            .block(compute_block(50_000, 1))
            .sem_post(s, 2);
        b.thread(1u32)
            .sem_wait(s)
            .sem_wait(s)
            .block(compute_block(1_000, 2));
        b.join_workers();
        let p = b.build();
        let (r, profile) = simulate_profiled(&p, &base(), SimEngine::Fused);
        // The waiter blocked until the post: most of its time is sync wait.
        assert!(
            r.threads[1].cpi.sync > r.threads[1].cpi.base,
            "waiter should be starved: {:?}",
            r.threads[1].cpi
        );
        // One post plus two waits, all condition-variable events.
        assert_eq!(profile.sync.table3().2, 3);
    }

    #[test]
    fn producer_consumer_pipeline() {
        let mut b = ProgramBuilder::new("pipeline", 2);
        let q = b.alloc_queue();
        b.spawn_workers();
        // Worker consumes 10 items; main produces them slowly.
        for k in 0..10u64 {
            b.thread(0u32).block(compute_block(20_000, k)).produce(q, 1);
        }
        for k in 0..10u64 {
            b.thread(1u32)
                .consume(q)
                .block(compute_block(1_000, 100 + k));
        }
        b.join_workers();
        let p = b.build();
        let (r, profile) = simulate_profiled(&p, &base(), SimEngine::Fused);
        // The consumer is starved: most of its time is sync wait.
        assert!(
            r.threads[1].cpi.sync > r.threads[1].cpi.base,
            "consumer should be starved: {:?}",
            r.threads[1].cpi
        );
        assert_eq!(profile.sync.table3().2, 20);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unproduced_consume_deadlocks() {
        let mut b = ProgramBuilder::new("deadlock", 1);
        let q = b.alloc_queue();
        b.thread(0u32).consume(q);
        let p = b.build();
        simulate(&p, &base());
    }

    #[test]
    fn coherence_visible_in_sharing_workload() {
        let mut b = ProgramBuilder::new("sharing", 2);
        let shared = b.alloc_region(512);
        let bar = b.alloc_barrier();
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(50_000, t as u64)
                        .loads(0.3)
                        .stores(0.1)
                        .addr(AddressPattern::random(shared), 1.0),
                )
                .barrier(bar);
        }
        b.join_workers();
        let p = b.build();
        let r = simulate(&p, &base());
        let inval: u64 = r.threads.iter().map(|t| t.invalidations).sum();
        assert!(inval > 0, "write sharing must invalidate");
    }

    #[test]
    fn intervals_cover_active_time() {
        let mut b = ProgramBuilder::new("intervals", 2);
        let bar = b.alloc_barrier();
        b.spawn_workers();
        b.thread(0u32).block(compute_block(1_000, 1)).barrier(bar);
        b.thread(1u32).block(compute_block(50_000, 2)).barrier(bar);
        b.join_workers();
        let p = b.build();
        let r = simulate(&p, &base());
        for (t, iv) in r.intervals.iter().enumerate() {
            assert!(!iv.is_empty(), "thread {t} has no intervals");
            // Intervals are ordered and disjoint.
            for w in iv.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9);
            }
            let active: f64 = iv.iter().map(|(s, e)| e - s).sum();
            let th = &r.threads[t];
            // Library overhead is active time charged to sync.
            let expected = th.finish - th.start - th.cpi.sync + th.sync_overhead;
            assert!(
                (active - expected).abs() / expected.max(1.0) < 0.05,
                "thread {t}: active {active} vs finish-start-sync {expected}"
            );
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mk = || {
            let mut b = ProgramBuilder::new("det", 2);
            let bar = b.alloc_barrier();
            let r = b.alloc_region(4096);
            b.spawn_workers();
            for t in 0..2u32 {
                b.thread(t)
                    .block(
                        BlockSpec::new(20_000, t as u64)
                            .loads(0.25)
                            .branches(0.1)
                            .addr(AddressPattern::random(r), 1.0),
                    )
                    .barrier(bar);
            }
            b.join_workers();
            b.build()
        };
        let r1 = simulate(&mk(), &base());
        let r2 = simulate(&mk(), &base());
        assert_eq!(r1.total_cycles, r2.total_cycles);
        assert_eq!(r1.threads[0].cpi.mem_dram, r2.threads[0].cpi.mem_dram);
    }

    #[test]
    fn cpi_stack_sums_to_total() {
        let mut b = ProgramBuilder::new("stack", 2);
        let bar = b.alloc_barrier();
        let reg = b.alloc_region(1 << 18);
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(30_000, t as u64 + 7)
                        .loads(0.3)
                        .branches(0.15)
                        .branch_pattern(rppm_trace::BranchPattern::bernoulli(0.7))
                        .addr(AddressPattern::stream(reg), 1.0),
                )
                .barrier(bar);
        }
        b.join_workers();
        let p = b.build();
        let r = simulate(&p, &base());
        for t in &r.threads {
            let total = t.finish - t.start;
            assert!(
                (t.cpi.total() - total).abs() / total < 1e-6,
                "stack {} vs total {}",
                t.cpi.total(),
                total
            );
        }
    }

    #[test]
    #[should_panic(expected = "one thread per core")]
    fn too_many_threads_rejected() {
        let mut b = ProgramBuilder::new("toomany", 8);
        b.spawn_workers();
        for t in 0..8u32 {
            b.thread(t).block(compute_block(10, t as u64));
        }
        b.join_workers();
        let p = b.build();
        simulate(&p, &base());
    }

    #[test]
    fn join_of_finished_thread_does_not_block() {
        let mut b = ProgramBuilder::new("fastchild", 2);
        b.thread(0u32).create(ThreadId(1));
        b.thread(1u32).block(compute_block(100, 1));
        // Main does a lot of work, then joins the long-finished child.
        b.thread(0u32)
            .block(compute_block(200_000, 2))
            .join(ThreadId(1));
        let p = b.build();
        let r = simulate(&p, &base());
        // Join wait should be ~0 (child done long ago).
        assert!(r.threads[0].cpi.sync < 5000.0, "{}", r.threads[0].cpi.sync);
    }

    #[test]
    fn profiled_result_matches_simulate_bit_for_bit() {
        let mut b = ProgramBuilder::new("profiled", 2);
        let bar = b.alloc_barrier();
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(20_000, t as u64 + 3)
                        .loads(0.25)
                        .branches(0.08),
                )
                .barrier(bar);
        }
        b.join_workers();
        let p = b.build();
        let plain = simulate(&p, &base());
        let (probed, profile) = simulate_profiled(&p, &base(), SimEngine::Fused);
        assert_eq!(plain.total_cycles.to_bits(), probed.total_cycles.to_bits());
        for (a, b) in plain.threads.iter().zip(probed.threads.iter()) {
            assert_eq!(a.finish.to_bits(), b.finish.to_bits());
            assert_eq!(a.ops, b.ops);
        }
        // The profile saw every executed op and every scripted sync event.
        assert_eq!(profile.total_ops(), plain.total_ops());
        let mut scripted = SyncMix::default();
        for op in p.threads.iter().flat_map(|t| t.sync_ops()) {
            scripted.record(op);
        }
        assert_eq!(profile.sync, scripted);
        assert_eq!(
            profile.dispatches + profile.fused_pairs,
            profile.total_ops()
        );
        assert!(profile.fused_pairs > 0, "compute blocks must fuse");
        assert!(profile.threads.iter().all(|t| t.runs > 0));
    }
}
