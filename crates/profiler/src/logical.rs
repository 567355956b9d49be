//! The profiling executor.
//!
//! The paper's profiler observes a real multi-threaded execution under Pin.
//! Our trace-driven equivalent executes the workload on a *unit-cost abstract
//! machine*: every micro-op costs one tick and synchronization has its usual
//! semantics, so threads interleave the way a timing-agnostic balanced
//! execution would. This interleaving drives the global reuse-distance
//! counters (shared-cache locality); all per-thread statistics are
//! interleaving-independent. Section III-A of the paper argues (and we
//! verify in integration tests) that predictions are insensitive to the
//! particular profiling interleaving.
//!
//! The executor is an [`Executor`] of the shared discrete-event core: the
//! [`SyncCore`] the simulator and Algorithm 2 use schedules threads by
//! their `u64` tick and applies every synchronization event. What stays
//! here is the profiler's own clock arithmetic and its slice of work: a
//! popped thread runs up to `CHUNK` ops, an epoch is cut at every event,
//! and a created child starts at its creator's tick (the unit-cost machine
//! has no spawn latency). Each thread's micro-ops come from one
//! [`ThreadCursor`], which expands the program's blocks on the fly and
//! lends them out a chunk at a time.

use crate::microtrace::{Scratch, NLAT, NWIN, WINDOWS};
use crate::profile::{ApplicationProfile, EpochProfile, ThreadProfile};
use rppm_branch_model::EntropyCollector;
use rppm_statstack::{MultiThreadCollector, ReuseHistogram, ReuseTracker};
use rppm_trace::op::NUM_OP_CLASSES;
use rppm_trace::{BlockItem, Executor, MicroOp, OpClass, Program, SyncCore, SyncOp, ThreadCursor};

/// Ops per scheduling chunk of the unit-cost executor.
const CHUNK: u64 = 256;
/// A micro-trace of up to this many ops is sampled. 512 is the largest ILP
/// window the analysis measures ([`WINDOWS`]): a longer trace only adds
/// more small-window samples at proportional analysis cost, so the trace
/// length is pinned to the largest window.
const MICROTRACE_LEN: u64 = 512;
/// ...at the start of every window of this many ops (the paper samples 1000
/// instructions every 1M; our epochs are ~100-1000x shorter, so the sampling
/// period shrinks proportionally).
const SAMPLE_PERIOD: u64 = 10_000;

/// Profiles `program`, producing its microarchitecture-independent
/// [`ApplicationProfile`]. Each thread's blocks are expanded on the fly by
/// a [`ThreadCursor`].
///
/// # Panics
///
/// Panics if the program is structurally invalid or deadlocks.
pub fn profile(program: &Program) -> ApplicationProfile {
    program.validate().expect("invalid program");
    let mut profiler = Profiler::new(program);
    SyncCore::for_program(program).run(&mut profiler, &program.name);
    profiler.into_profile()
}

/// Accumulates one epoch's statistics for one thread.
#[derive(Debug)]
struct EpochCollector {
    ops: u64,
    mix: [u64; NUM_OP_CLASSES],
    entropy: EntropyCollector,
    /// The micro-trace being sampled; the buffer moves on to the thread's
    /// next epoch.
    microtrace: Vec<MicroOp>,
    ilp_sum: [[f64; NWIN]; NLAT],
    mlp_sum: [f64; NWIN],
    curve_weight: f64,
    branch_depth_sum: f64,
    branch_slice_loads_sum: f64,
    branch_depth_weight: f64,
    code_fetches: u64,
}

impl EpochCollector {
    fn new(microtrace: Vec<MicroOp>) -> Self {
        debug_assert!(microtrace.is_empty());
        EpochCollector {
            ops: 0,
            mix: [0; NUM_OP_CLASSES],
            entropy: EntropyCollector::new(),
            microtrace,
            ilp_sum: [[0.0; NWIN]; NLAT],
            mlp_sum: [0.0; NWIN],
            curve_weight: 0.0,
            branch_depth_sum: 0.0,
            branch_slice_loads_sum: 0.0,
            branch_depth_weight: 0.0,
            code_fetches: 0,
        }
    }

    fn flush_microtrace(&mut self, scratch: &mut Scratch) {
        if self.microtrace.len() >= 16 {
            let a = scratch.analyze(&self.microtrace);
            let ilp = a.ilp.expect("a 16-op trace has an ILP curve");
            for (sums, curve) in self.ilp_sum.iter_mut().zip(&ilp) {
                for (s, v) in sums.iter_mut().zip(curve) {
                    *s += v;
                }
            }
            for (s, v) in self.mlp_sum.iter_mut().zip(&a.mlp) {
                *s += v;
            }
            self.curve_weight += 1.0;
            if a.branch_depth > 0.0 {
                self.branch_depth_sum += a.branch_depth;
                self.branch_slice_loads_sum += a.branch_slice_loads;
                self.branch_depth_weight += 1.0;
            }
        }
        self.microtrace.clear();
    }

    /// Ends the epoch: returns its profile and leaves a fresh collector
    /// (holding the same micro-trace buffer) in its place.
    fn finish(
        &mut self,
        locality: rppm_statstack::EpochLocality,
        icache_rd: ReuseHistogram,
        scratch: &mut Scratch,
    ) -> EpochProfile {
        self.flush_microtrace(scratch);
        let buffer = std::mem::take(&mut self.microtrace);
        let e = std::mem::replace(self, EpochCollector::new(buffer));
        let w = e.curve_weight;
        let curve = |sums: &[f64; NWIN]| -> Vec<(u32, f64)> {
            WINDOWS
                .iter()
                .zip(sums)
                .map(|(&win, s)| (win, s / w))
                .collect()
        };
        let (ilp, mlp) = if w > 0.0 {
            (e.ilp_sum.iter().map(curve).collect(), curve(&e.mlp_sum))
        } else {
            (Vec::new(), Vec::new())
        };
        let per_trace = |s: f64| {
            if e.branch_depth_weight > 0.0 {
                s / e.branch_depth_weight
            } else {
                0.0
            }
        };
        EpochProfile {
            ops: e.ops,
            mix: e.mix,
            ilp,
            mlp,
            branch: e.entropy.finish(),
            branch_depth: per_trace(e.branch_depth_sum),
            branch_slice_loads: per_trace(e.branch_slice_loads_sum),
            private_rd: locality.private,
            global_rd: locality.global,
            accesses: locality.accesses,
            stores: locality.stores,
            icache_rd,
            code_fetches: e.code_fetches,
        }
    }
}

struct ThreadState {
    tick: u64,
    epoch: EpochCollector,
    sample_phase: u64,
    /// Per-code-line last-fetch tracker for I-cache reuse distances and
    /// their per-epoch histogram (interner-backed; the line state persists
    /// across epochs like the data-side state).
    code_rd: ReuseTracker,
    last_code_line: u64,
    epochs: Vec<EpochProfile>,
    events: Vec<SyncOp>,
}

struct Profiler<'p> {
    program: &'p Program,
    /// Per-thread stream cursors, parallel to `threads`. Kept separate so
    /// the zero-copy op slices a cursor lends out can be iterated while
    /// the thread's statistics (and the shared memory collector) are
    /// mutated.
    cursors: Vec<ThreadCursor<'p>>,
    threads: Vec<ThreadState>,
    mem: MultiThreadCollector,
    /// Micro-trace analysis buffers, shared by every thread's epochs.
    scratch: Scratch,
}

impl<'p> Profiler<'p> {
    fn new(program: &'p Program) -> Self {
        let n = program.num_threads();
        let cursors = program.threads.iter().map(ThreadCursor::new).collect();
        let threads = (0..n)
            .map(|_| ThreadState {
                tick: 0,
                epoch: EpochCollector::new(Vec::with_capacity(MICROTRACE_LEN as usize)),
                sample_phase: 0,
                code_rd: ReuseTracker::new(),
                last_code_line: u64::MAX,
                epochs: Vec::new(),
                events: Vec::new(),
            })
            .collect();
        Profiler {
            program,
            cursors,
            threads,
            mem: MultiThreadCollector::new(n),
            scratch: Scratch::default(),
        }
    }

    /// Accounts one micro-op to thread `i`'s state (`th`), the shared
    /// memory collector (`mem`) and the micro-trace `scratch`. A
    /// free-standing function over disjoint borrows so the caller can
    /// iterate a cursor-lent op slice while mutating them.
    fn step_op(
        th: &mut ThreadState,
        mem: &mut MultiThreadCollector,
        scratch: &mut Scratch,
        i: usize,
        op: MicroOp,
    ) {
        th.tick += 1;
        let e = &mut th.epoch;
        e.ops += 1;
        e.mix[op.class.index()] += 1;

        // Micro-trace sampling: the first MICROTRACE_LEN ops of every
        // SAMPLE_PERIOD window, tracked with a wrapping phase counter
        // (equivalent to `op_idx % SAMPLE_PERIOD < MICROTRACE_LEN` without
        // the per-op division).
        if th.sample_phase < MICROTRACE_LEN {
            e.microtrace.push(op);
            if e.microtrace.len() >= MICROTRACE_LEN as usize {
                e.flush_microtrace(scratch);
            }
        }
        th.sample_phase += 1;
        if th.sample_phase == SAMPLE_PERIOD {
            th.sample_phase = 0;
        }

        // Branch entropy.
        if op.class == OpClass::Branch {
            e.entropy.record(op.site, op.taken);
        }

        // Instruction-line reuse (on code-line transitions, like a fetch
        // engine).
        if op.code_line != th.last_code_line {
            th.last_code_line = op.code_line;
            e.code_fetches += 1;
            th.code_rd.access(op.code_line);
        }

        // Data reuse (private + global counters, coherence detection).
        if op.is_mem() {
            mem.access(i, op.line, op.is_store());
        }
    }

    fn end_epoch(&mut self, i: usize, event: Option<SyncOp>) {
        let locality = self.mem.end_epoch(i);
        let th = &mut self.threads[i];
        let icache_rd = th.code_rd.end_epoch();
        let epoch = th.epoch.finish(locality, icache_rd, &mut self.scratch);
        th.epochs.push(epoch);
        th.sample_phase = 0;
        if let Some(ev) = event {
            th.events.push(ev);
        }
    }

    fn into_profile(self) -> ApplicationProfile {
        ApplicationProfile {
            name: self.program.name.clone(),
            threads: self
                .threads
                .into_iter()
                .map(|t| {
                    let tp = ThreadProfile {
                        epochs: t.epochs,
                        events: t.events,
                    };
                    debug_assert!(tp.is_consistent());
                    tp
                })
                .collect(),
        }
    }
}

impl Executor<u64> for Profiler<'_> {
    fn clock(&self, i: usize) -> u64 {
        self.threads[i].tick
    }

    fn start(&mut self, i: usize, tick: u64) {
        self.threads[i].tick = tick;
    }

    fn resume(&mut self, i: usize, tick: u64) {
        let th = &mut self.threads[i];
        th.tick = th.tick.max(tick);
    }

    fn block(&mut self, _: usize) {}

    fn run(&mut self, i: usize, core: &mut SyncCore<u64>) {
        let limit = self.threads[i].tick + CHUNK;
        loop {
            match self.cursors[i].peek_block() {
                None => {
                    self.end_epoch(i, None);
                    core.exit(self, i);
                    return;
                }
                Some(BlockItem::Sync(op)) => {
                    self.cursors[i].consume_sync();
                    self.end_epoch(i, Some(op));
                    if !core.sync(self, i, op) {
                        return;
                    }
                }
                Some(BlockItem::Ops(ops)) => {
                    // Every op costs one tick, so the chunk budget
                    // translates directly into an op count. A thread
                    // arriving at/over the limit (a sync event can jump its
                    // tick forward) still makes one op of progress.
                    let th = &mut self.threads[i];
                    let budget = limit.saturating_sub(th.tick).max(1) as usize;
                    let take = ops.len().min(budget);
                    for &op in &ops[..take] {
                        Self::step_op(th, &mut self.mem, &mut self.scratch, i, op);
                    }
                    self.cursors[i].consume_ops(take);
                    if th.tick >= limit {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_statstack::StackDistanceModel;
    use rppm_trace::{AddressPattern, BlockSpec, BranchPattern, Program, ProgramBuilder};

    fn simple_program(ops: u32) -> Program {
        let mut b = ProgramBuilder::new("prof-test", 2);
        let bar = b.alloc_barrier();
        let r = b.alloc_region(256);
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(ops, 11 + t as u64)
                        .loads(0.25)
                        .stores(0.05)
                        .branches(0.1)
                        .addr(AddressPattern::stream(r.chunk(t as u64, 2)), 1.0)
                        .branch_pattern(BranchPattern::loop_every(8)),
                )
                .barrier(bar)
                .block(BlockSpec::new(ops / 2, 23 + t as u64));
        }
        b.join_workers();
        b.build()
    }

    #[test]
    fn profile_structure_matches_script() {
        let p = simple_program(20_000);
        let prof = profile(&p);
        assert_eq!(prof.num_threads(), 2);
        assert!(prof.is_consistent());
        // Thread 0 script: create, block, barrier, block, join
        // => events: create, barrier, join => 4 epochs.
        assert_eq!(prof.threads[0].events.len(), 3);
        assert_eq!(prof.threads[0].epochs.len(), 4);
        // Thread 1: block barrier block => events: [barrier], 2 epochs.
        assert_eq!(prof.threads[1].events.len(), 1);
        assert_eq!(prof.threads[1].epochs.len(), 2);
    }

    #[test]
    fn ops_are_fully_accounted() {
        let p = simple_program(20_000);
        let prof = profile(&p);
        assert_eq!(prof.total_ops(), p.total_ops());
        assert_eq!(prof.threads[1].total_ops(), 30_000);
    }

    #[test]
    fn mix_matches_block_spec() {
        let p = simple_program(40_000);
        let prof = profile(&p);
        let big = &prof.threads[1].epochs[0];
        assert_eq!(big.ops, 40_000);
        let load_frac = big.mix_fraction(OpClass::Load);
        assert!((load_frac - 0.25).abs() < 0.02, "load frac {load_frac}");
        assert!(big.branches() > 3000);
    }

    #[test]
    fn ilp_and_mlp_curves_profiled() {
        let p = simple_program(40_000);
        let prof = profile(&p);
        let e = &prof.threads[1].epochs[0];
        assert!(!e.ilp.is_empty(), "ILP profiled");
        assert!(!e.mlp.is_empty(), "MLP profiled");
        let logs = crate::GridLogs::new();
        let ipc = e.ilp_at(&logs, 128, 3.0).expect("interpolates");
        let ipc_slow = e.ilp_at(&logs, 128, 75.0).expect("interpolates");
        assert!(ipc_slow <= ipc, "slow loads cannot raise ILP");
        assert!(ipc > 1.0 && ipc < 20.0, "ipc {ipc}");
    }

    #[test]
    fn branch_profile_sees_loop_pattern() {
        let p = simple_program(40_000);
        let prof = profile(&p);
        let e = &prof.threads[1].epochs[0];
        // loop_every(8): 1/8 mispredicted without history, ~0 with.
        assert!(e.branch.miss_floor(12) < 0.03, "{:?}", e.branch.m);
        assert!(e.branch.miss_floor(0) > 0.05);
    }

    #[test]
    fn private_locality_predicts_small_cache_hit() {
        let p = simple_program(40_000);
        let prof = profile(&p);
        let e = &prof.threads[1].epochs[0];
        // Streaming over 128 lines: fits in anything >= 128 lines.
        let model = StackDistanceModel::new(&e.private_rd);
        assert!(model.miss_rate(512) < 0.05, "{}", model.miss_rate(512));
        assert!(e.accesses > 10_000);
    }

    #[test]
    fn global_rd_sees_interleaving() {
        // Two threads streaming disjoint data: global distances are longer
        // than private ones.
        let p = simple_program(40_000);
        let prof = profile(&p);
        let e = &prof.threads[1].epochs[0];
        let mp = e.private_rd.mean_finite().unwrap_or(0.0);
        let mg = e.global_rd.mean_finite().unwrap_or(0.0);
        assert!(mg > mp, "global {mg} should exceed private {mp}");
    }

    #[test]
    fn coherence_detected_for_migratory_sharing() {
        let mut b = ProgramBuilder::new("migratory", 2);
        let shared = b.alloc_region(64);
        let bar = b.alloc_barrier();
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(20_000, t as u64)
                        .loads(0.2)
                        .stores(0.2)
                        .addr(AddressPattern::random(shared), 1.0),
                )
                .barrier(bar);
        }
        b.join_workers();
        let prof = profile(&b.build());
        let inval: u64 = prof
            .threads
            .iter()
            .flat_map(|t| &t.epochs)
            .map(|e| e.private_rd.invalidated)
            .sum();
        assert!(
            inval > 100,
            "write sharing must be seen as invalidations: {inval}"
        );
    }

    #[test]
    fn icache_reuse_profiled() {
        let p = simple_program(20_000);
        let prof = profile(&p);
        let e = &prof.threads[1].epochs[0];
        assert!(e.code_fetches > 0);
        // The loop's code footprint is tiny: everything re-fetches quickly.
        let model = StackDistanceModel::new(&e.icache_rd);
        assert!(model.miss_rate(512) < 0.05);
    }

    #[test]
    fn profiling_is_deterministic() {
        let p1 = profile(&simple_program(20_000));
        let p2 = profile(&simple_program(20_000));
        assert_eq!(p1, p2);
    }

    #[test]
    fn rwlock_and_semaphore_profile_cleanly() {
        let mut b = ProgramBuilder::new("rw-sem", 3);
        let rw = b.alloc_rwlock();
        let s = b.alloc_sem();
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .rw_lock(rw, false)
                .block(BlockSpec::new(5_000, t as u64))
                .rw_unlock(rw);
        }
        b.thread(2u32)
            .rw_lock(rw, true)
            .block(BlockSpec::new(1_000, 9))
            .rw_unlock(rw)
            .sem_post(s, 1);
        b.thread(0u32).sem_wait(s);
        b.join_workers();
        let prof = profile(&b.build());
        assert!(prof.is_consistent());
        let (cs, bar, cond) = prof.sync_event_counts();
        assert_eq!(cs, 3, "three rw acquisitions are critical sections");
        assert_eq!(bar, 0);
        assert_eq!(cond, 2, "sem post + wait are cond-var events");
    }

    #[test]
    fn producer_consumer_profiles_cleanly() {
        let mut b = ProgramBuilder::new("pc", 2);
        let q = b.alloc_queue();
        b.spawn_workers();
        for k in 0..5u64 {
            b.thread(0u32).block(BlockSpec::new(5_000, k)).produce(q, 1);
            b.thread(1u32)
                .consume(q)
                .block(BlockSpec::new(1_000, 50 + k));
        }
        b.join_workers();
        let prof = profile(&b.build());
        assert!(prof.is_consistent());
        let (cs, bar, cond) = prof.sync_event_counts();
        assert_eq!((cs, bar), (0, 0));
        assert_eq!(cond, 10);
        let usage = prof.classify_cond_vars();
        assert_eq!(usage.len(), 1);
    }
}
