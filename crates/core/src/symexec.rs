//! Algorithm 2: symbolic execution of synchronization.
//!
//! Phase 2 of RPPM: given each thread's predicted per-epoch active times and
//! its synchronization-event sequence, the symbolic execution repeatedly
//! picks the unblocked thread with the smallest accumulated time and
//! advances it to its next synchronization event, emulating barrier,
//! critical-section, condition-variable, creation and join semantics. The
//! slowest thread determines each event's timing; faster threads accumulate
//! idle (sync) time. The critical path through this schedule is the
//! predicted execution time.
//!
//! The scheduling and the semantics come from the [`SyncCore`] the profiler
//! and the simulator share; Algorithm 2 is its [`Executor`]. What stays
//! here is Algorithm 2's clock arithmetic — predicted epoch times, library
//! overhead counted as active time, spawn latency, idle time for every
//! wait — and its slice of work: a popped thread runs its pending epoch and
//! the event that ends it.
//!
//! Three entry points share one engine. Two are crate-internal and run over
//! the borrowed flat timelines of a preparation (one cycle buffer, per-thread
//! ranges and event slices) in a `SymScratch` reused across configurations,
//! so a design point allocates nothing there: `execute_flat` records each
//! thread's active intervals and returns the full [`Schedule`] (every full
//! prediction), and `execute_total` skips the intervals and returns the
//! total (the design-space sweep). [`execute`] is the public adapter over
//! per-thread [`ThreadTimeline`]s: it flattens them and calls
//! `execute_flat`. All three produce bit-identical times: the interval
//! bookkeeping never feeds back into the schedule.

use rppm_trace::{barrier_participants, Executor, MachineConfig, SyncCore, SyncOp};
use std::collections::HashMap;

/// One thread's input to the symbolic execution: predicted active cycles per
/// epoch, and the events separating them (`epochs.len() == events.len() + 1`).
#[derive(Debug, Clone, Default)]
pub struct ThreadTimeline {
    /// Predicted active cycles per epoch.
    pub epochs: Vec<f64>,
    /// Synchronization events between epochs.
    pub events: Vec<SyncOp>,
}

/// Borrowed, flat view of all thread timelines: one shared cycle buffer
/// plus per-thread `(offset, len)` ranges and event slices. This shape lets
/// the batched path overwrite the cycle buffer between evaluations without
/// rebuilding any per-thread structure.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatTimelines<'a> {
    /// Predicted active cycles for every epoch of every thread,
    /// thread-major.
    pub cycles: &'a [f64],
    /// Per-thread `(offset, len)` into `cycles`.
    pub ranges: &'a [(usize, usize)],
    /// Per-thread synchronization events (`len == ranges[i].1 - 1`).
    pub events: &'a [&'a [SyncOp]],
}

/// Outcome of the symbolic execution for one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadSchedule {
    /// Time the thread started (cycles).
    pub start: f64,
    /// Time the thread finished (cycles).
    pub finish: f64,
    /// Total active cycles (sum of epochs + sync-library overhead).
    pub active: f64,
    /// Idle cycles spent waiting on synchronization.
    pub idle: f64,
    /// Active intervals for bottlegraph construction.
    pub intervals: Vec<(f64, f64)>,
}

/// Result of the symbolic execution.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Predicted end-to-end execution time (cycles).
    pub total: f64,
    /// Per-thread schedules.
    pub threads: Vec<ThreadSchedule>,
}

impl Schedule {
    /// Per-thread active intervals (bottlegraph input).
    pub fn intervals(&self) -> Vec<Vec<(f64, f64)>> {
        self.threads.iter().map(|t| t.intervals.clone()).collect()
    }
}

/// Mutable per-thread execution state (the timeline itself is borrowed).
#[derive(Debug, Default)]
struct ThreadState {
    /// The next epoch to run; event `idx` ends it.
    idx: usize,
    time: f64,
    start: f64,
    active: f64,
    idle: f64,
    intervals: Vec<(f64, f64)>,
    open: f64,
}

impl ThreadState {
    fn reset(&mut self) {
        self.idx = 0;
        self.time = 0.0;
        self.start = 0.0;
        self.active = 0.0;
        self.idle = 0.0;
        self.intervals.clear();
        self.open = 0.0;
    }

    /// Ends the active interval open since `open` at the current time, if
    /// intervals are recorded.
    fn close_interval(&mut self, record: bool) {
        if record && self.time > self.open {
            self.intervals.push((self.open, self.time));
        }
    }
}

/// Reusable state for repeated symbolic executions of the *same* profile
/// under different configurations: every vector and primitive map retains
/// its allocation between runs, so a design-space sweep performs no
/// per-point allocation here after the first evaluation.
#[derive(Debug)]
pub(crate) struct SymScratch {
    threads: Vec<ThreadState>,
    sync: SyncCore<f64>,
}

impl SymScratch {
    /// Scratch for timelines whose barriers have the given participant
    /// counts (see [`barrier_participants`]).
    pub(crate) fn new(participants: HashMap<u32, usize>) -> Self {
        SymScratch {
            threads: Vec::new(),
            sync: SyncCore::new(0, participants),
        }
    }

    fn reset(&mut self, n_threads: usize) {
        self.threads.resize_with(n_threads, ThreadState::default);
        self.threads.iter_mut().for_each(ThreadState::reset);
        self.sync.reset(n_threads);
    }
}

/// Runs Algorithm 2 over the thread timelines.
///
/// `config` supplies the synchronization constants (library overhead per
/// event, thread-spawn latency) — the same values the simulator uses.
///
/// # Panics
///
/// Panics on structurally inconsistent timelines
/// (`epochs.len() != events.len() + 1`) or a deadlocked schedule.
pub fn execute(timelines: &[ThreadTimeline], config: &MachineConfig) -> Schedule {
    for (i, tl) in timelines.iter().enumerate() {
        assert_eq!(
            tl.epochs.len(),
            tl.events.len() + 1,
            "thread {i}: inconsistent timeline"
        );
    }
    let mut cycles = Vec::new();
    let mut ranges = Vec::with_capacity(timelines.len());
    let mut events: Vec<&[SyncOp]> = Vec::with_capacity(timelines.len());
    for tl in timelines {
        ranges.push((cycles.len(), tl.epochs.len()));
        cycles.extend_from_slice(&tl.epochs);
        events.push(&tl.events);
    }
    let flat = FlatTimelines {
        cycles: &cycles,
        ranges: &ranges,
        events: &events,
    };
    execute_flat(
        flat,
        config,
        &mut SymScratch::new(barrier_participants(&events)),
    )
}

/// The recording entry: Algorithm 2 over borrowed flat timelines in a
/// reusable scratch (holding the barrier participants), with per-thread
/// active intervals. Returns the full schedule.
pub(crate) fn execute_flat(
    tl: FlatTimelines<'_>,
    config: &MachineConfig,
    scratch: &mut SymScratch,
) -> Schedule {
    let total = run_symexec(tl, config, scratch, true);
    let threads = scratch
        .threads
        .iter_mut()
        .enumerate()
        .map(|(i, th)| ThreadSchedule {
            start: th.start,
            finish: scratch.sync.finish_time(i),
            active: th.active,
            idle: th.idle,
            intervals: std::mem::take(&mut th.intervals),
        })
        .collect();
    Schedule { total, threads }
}

/// The lean entry for the design-space sweep: like [`execute_flat`], but
/// without interval recording. Returns the predicted end-to-end execution
/// time in cycles, the same total [`execute_flat`] reports.
pub(crate) fn execute_total(
    tl: FlatTimelines<'_>,
    config: &MachineConfig,
    scratch: &mut SymScratch,
) -> f64 {
    run_symexec(tl, config, scratch, false)
}

fn run_symexec(
    tl: FlatTimelines<'_>,
    config: &MachineConfig,
    scratch: &mut SymScratch,
    record: bool,
) -> f64 {
    scratch.reset(tl.ranges.len());
    let SymScratch { threads, sync } = scratch;
    let mut exec = SymExec {
        overhead: config.sync_overhead_cycles as f64,
        spawn: config.spawn_latency_cycles as f64,
        record,
        tl,
        threads,
    };
    // Algorithm 2 picks the unblocked thread with the shortest accumulated
    // time. We schedule by *arrival time at the next synchronization event*
    // (time + pending epoch), the discrete-event refinement: every
    // synchronization state change is processed in globally nondecreasing
    // time order, so untimed lock/queue state is always consistent with
    // wall-clock order.
    sync.run(&mut exec, "symbolic execution");
    (0..threads.len())
        .map(|i| sync.finish_time(i))
        .fold(0.0, f64::max)
}

struct SymExec<'e> {
    overhead: f64,
    spawn: f64,
    record: bool,
    tl: FlatTimelines<'e>,
    threads: &'e mut [ThreadState],
}

impl Executor<f64> for SymExec<'_> {
    fn clock(&self, i: usize) -> f64 {
        self.threads[i].time
    }

    /// Arrival time of thread `i` at its next synchronization event (its
    /// accumulated time plus the pending epoch, if any) — the key the old
    /// linear scan minimized.
    fn ready_at(&self, i: usize) -> f64 {
        let th = &self.threads[i];
        let (off, len) = self.tl.ranges[i];
        if th.idx < len {
            th.time + self.tl.cycles[off + th.idx]
        } else {
            th.time
        }
    }

    fn start(&mut self, i: usize, t: f64) {
        let th = &mut self.threads[i];
        th.time = t + self.spawn;
        th.start = th.time;
        th.open = th.time;
    }

    /// Idle until `t`.
    fn resume(&mut self, i: usize, t: f64) {
        let th = &mut self.threads[i];
        if t > th.time {
            th.idle += t - th.time;
            th.time = t;
        }
        th.open = th.time;
    }

    fn block(&mut self, i: usize) {
        self.threads[i].close_interval(self.record);
    }

    /// Runs thread `i`'s pending epoch, then the event that ends it (with
    /// its library overhead, counted as active time) or the thread.
    fn run(&mut self, i: usize, core: &mut SyncCore<f64>) {
        let (off, len) = self.tl.ranges[i];
        let th = &mut self.threads[i];
        if th.idx < len {
            let dur = self.tl.cycles[off + th.idx];
            th.time += dur;
            th.active += dur;
        }
        match self.tl.events[i].get(th.idx) {
            Some(&ev) => {
                th.idx += 1;
                th.time += self.overhead;
                th.active += self.overhead;
                core.sync(self, i, ev);
            }
            None => {
                th.close_interval(self.record);
                core.exit(self, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::{BarrierId, DesignPoint, MutexId, QueueId, ThreadId};

    fn cfg() -> MachineConfig {
        let mut c = DesignPoint::Base.config();
        // Zero constants make the arithmetic of tests exact.
        c.sync_overhead_cycles = 0;
        c.spawn_latency_cycles = 0;
        c
    }

    fn barrier(id: u32) -> SyncOp {
        SyncOp::Barrier {
            id: BarrierId(id),
            via_cond: false,
        }
    }

    #[test]
    fn single_thread_sums_epochs() {
        let tl = vec![ThreadTimeline {
            epochs: vec![100.0],
            events: vec![],
        }];
        let s = execute(&tl, &cfg());
        assert_eq!(s.total, 100.0);
        assert_eq!(s.threads[0].active, 100.0);
        assert_eq!(s.threads[0].idle, 0.0);
    }

    #[test]
    fn barrier_waits_for_slowest() {
        // Two threads: 100 vs 300 to the barrier, then 50 each.
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 100.0, 50.0],
                events: vec![SyncOp::Create { child: ThreadId(1) }, barrier(0)],
            },
            ThreadTimeline {
                epochs: vec![300.0, 50.0],
                events: vec![barrier(0)],
            },
        ];
        let s = execute(&tl, &cfg());
        assert_eq!(s.total, 350.0);
        assert_eq!(s.threads[0].idle, 200.0, "fast thread waits 200");
        assert_eq!(s.threads[1].idle, 0.0, "slow thread never waits");
    }

    #[test]
    fn inter_barrier_criticality_switches() {
        // Epoch 1: thread 1 slower; epoch 2: thread 0 slower. Total is the
        // sum of per-epoch maxima (the paper's Figure 3(c)).
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 100.0, 400.0],
                events: vec![SyncOp::Create { child: ThreadId(1) }, barrier(0)],
            },
            ThreadTimeline {
                epochs: vec![300.0, 100.0],
                events: vec![barrier(0)],
            },
        ];
        let s = execute(&tl, &cfg());
        assert_eq!(s.total, 700.0); // max(100,300) + max(400,100)
    }

    #[test]
    fn mutex_serializes_and_orders_by_arrival() {
        // Two threads reach a 100-cycle critical section at times 0 and 10.
        let mk = |lead: f64| ThreadTimeline {
            epochs: vec![lead, 100.0, 0.0],
            events: vec![
                SyncOp::Lock { id: MutexId(0) },
                SyncOp::Unlock { id: MutexId(0) },
            ],
        };
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 0.0, 100.0, 0.0],
                events: vec![
                    SyncOp::Create { child: ThreadId(1) },
                    SyncOp::Lock { id: MutexId(0) },
                    SyncOp::Unlock { id: MutexId(0) },
                ],
            },
            mk(10.0),
        ];
        let s = execute(&tl, &cfg());
        // Thread 0 holds [0,100); thread 1 arrives at 10, waits until 100,
        // leaves at 200.
        assert_eq!(s.threads[1].idle, 90.0);
        assert_eq!(s.total, 200.0);
    }

    #[test]
    fn producer_consumer_starves_consumer() {
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 500.0, 0.0],
                events: vec![
                    SyncOp::Create { child: ThreadId(1) },
                    SyncOp::Produce {
                        queue: QueueId(0),
                        count: 1,
                    },
                ],
            },
            ThreadTimeline {
                epochs: vec![0.0, 10.0],
                events: vec![SyncOp::Consume { queue: QueueId(0) }],
            },
        ];
        let s = execute(&tl, &cfg());
        assert_eq!(s.threads[1].idle, 500.0);
        assert_eq!(s.total, 510.0);
    }

    #[test]
    fn join_extends_main() {
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 10.0, 0.0],
                events: vec![
                    SyncOp::Create { child: ThreadId(1) },
                    SyncOp::Join { child: ThreadId(1) },
                ],
            },
            ThreadTimeline {
                epochs: vec![1000.0],
                events: vec![],
            },
        ];
        let s = execute(&tl, &cfg());
        assert_eq!(s.total, 1000.0);
        assert_eq!(s.threads[0].idle, 990.0);
    }

    #[test]
    fn spawn_latency_delays_child() {
        let mut c = cfg();
        c.spawn_latency_cycles = 500;
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 0.0],
                events: vec![SyncOp::Create { child: ThreadId(1) }],
            },
            ThreadTimeline {
                epochs: vec![100.0],
                events: vec![],
            },
        ];
        let s = execute(&tl, &c);
        assert_eq!(s.threads[1].start, 500.0);
        assert_eq!(s.total, 600.0);
    }

    #[test]
    fn overhead_counts_as_active() {
        let mut c = cfg();
        c.sync_overhead_cycles = 40;
        let tl = vec![ThreadTimeline {
            epochs: vec![100.0, 100.0],
            events: vec![barrier(0)],
        }];
        let s = execute(&tl, &c);
        assert_eq!(s.total, 240.0);
        assert_eq!(s.threads[0].active, 240.0);
    }

    #[test]
    fn intervals_partition_active_time() {
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 100.0, 50.0],
                events: vec![SyncOp::Create { child: ThreadId(1) }, barrier(0)],
            },
            ThreadTimeline {
                epochs: vec![300.0, 50.0],
                events: vec![barrier(0)],
            },
        ];
        let s = execute(&tl, &cfg());
        for (i, th) in s.threads.iter().enumerate() {
            let covered: f64 = th.intervals.iter().map(|(a, b)| b - a).sum();
            assert!(
                (covered - th.active).abs() < 1e-9,
                "thread {i}: intervals {covered} vs active {}",
                th.active
            );
            assert!((th.finish - th.start - th.active - th.idle).abs() < 1e-9);
        }
    }

    #[test]
    fn lean_path_matches_execute_and_reuses_scratch() {
        let tl = vec![
            ThreadTimeline {
                epochs: vec![0.0, 100.0, 50.0, 7.0],
                events: vec![
                    SyncOp::Create { child: ThreadId(1) },
                    barrier(0),
                    SyncOp::Join { child: ThreadId(1) },
                ],
            },
            ThreadTimeline {
                epochs: vec![300.0, 50.0],
                events: vec![barrier(0)],
            },
        ];
        let mut c = cfg();
        c.sync_overhead_cycles = 40;
        c.spawn_latency_cycles = 1500;
        let full = execute(&tl, &c);

        let mut cycles = Vec::new();
        let mut ranges = Vec::new();
        let mut events: Vec<&[SyncOp]> = Vec::new();
        for t in &tl {
            ranges.push((cycles.len(), t.epochs.len()));
            cycles.extend_from_slice(&t.epochs);
            events.push(&t.events);
        }
        let mut scratch = SymScratch::new(barrier_participants(&events));
        // Run twice through the same scratch: results must be identical
        // (state fully reset between runs).
        for _ in 0..2 {
            let flat = FlatTimelines {
                cycles: &cycles,
                ranges: &ranges,
                events: &events,
            };
            let total = execute_total(flat, &c, &mut scratch);
            assert_eq!(total.to_bits(), full.total.to_bits());
            let recorded = execute_flat(flat, &c, &mut scratch);
            assert_eq!(recorded.total.to_bits(), full.total.to_bits());
            assert_eq!(recorded.threads, full.threads);
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent timeline")]
    fn inconsistent_timeline_panics() {
        let tl = vec![ThreadTimeline {
            epochs: vec![1.0, 2.0],
            events: vec![],
        }];
        execute(&tl, &cfg());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn consume_without_produce_deadlocks() {
        let tl = vec![ThreadTimeline {
            epochs: vec![0.0, 0.0],
            events: vec![SyncOp::Consume { queue: QueueId(0) }],
        }];
        execute(&tl, &cfg());
    }
}
