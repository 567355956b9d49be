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
//! The semantics come from the [`SyncCore`] the profiler and the simulator
//! share, scheduled through the same [`EventQueue`]. What stays here is
//! Algorithm 2's clock arithmetic: predicted epoch times, library overhead
//! counted as active time, spawn latency, and idle time for every wait.
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

use rppm_trace::{
    barrier_participants, EventQueue, MachineConfig, Step, SyncCore, SyncOp, ThreadStatus,
};
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
    /// Next element to execute: epoch `idx` if `at_epoch`, else event `idx`.
    idx: usize,
    at_epoch: bool,
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
        self.at_epoch = true;
        self.time = 0.0;
        self.start = 0.0;
        self.active = 0.0;
        self.idle = 0.0;
        self.intervals.clear();
        self.open = 0.0;
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
    wake: Vec<(usize, f64)>,
    queue: EventQueue,
}

impl SymScratch {
    /// Scratch for timelines whose barriers have the given participant
    /// counts (see [`barrier_participants`]).
    pub(crate) fn new(participants: HashMap<u32, usize>) -> Self {
        SymScratch {
            threads: Vec::new(),
            sync: SyncCore::new(0, participants),
            wake: Vec::new(),
            queue: EventQueue::new(),
        }
    }

    fn reset(&mut self, n_threads: usize) {
        self.threads.resize_with(n_threads, ThreadState::default);
        self.threads.iter_mut().for_each(ThreadState::reset);
        self.sync.reset(n_threads);
        self.queue.clear();
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
    SymExec {
        overhead: config.sync_overhead_cycles as f64,
        spawn: config.spawn_latency_cycles as f64,
        record,
        tl,
        st: scratch,
    }
    .run()
}

struct SymExec<'e, 's> {
    overhead: f64,
    spawn: f64,
    record: bool,
    tl: FlatTimelines<'e>,
    st: &'s mut SymScratch,
}

impl SymExec<'_, '_> {
    /// Arrival time of thread `i` at its next synchronization event (its
    /// accumulated time plus the pending epoch, if any) — the wake key the
    /// old linear scan minimized.
    fn eta(&self, i: usize) -> f64 {
        let th = &self.st.threads[i];
        let (off, len) = self.tl.ranges[i];
        if th.at_epoch && th.idx < len {
            th.time + self.tl.cycles[off + th.idx]
        } else {
            th.time
        }
    }

    /// Posts a wake-up for thread `i`, which must have just become ready.
    /// Called on every transition into [`ThreadStatus::Ready`] (and only
    /// there), so each thread has at most one live event in the queue.
    fn post(&mut self, i: usize) {
        let eta = self.eta(i);
        self.st.queue.post_at(eta, i);
    }

    /// Closes the running thread's active interval as it blocks.
    fn block(&mut self, i: usize) {
        let th = &mut self.st.threads[i];
        if self.record && th.time > th.open {
            th.intervals.push((th.open, th.time));
        }
    }

    /// Thread `i`, while running, waits in place until `t`.
    fn wait_running(&mut self, i: usize, t: f64) {
        let th = &mut self.st.threads[i];
        if t > th.time {
            if self.record && th.time > th.open {
                th.intervals.push((th.open, th.time));
            }
            th.idle += t - th.time;
            th.time = t;
            th.open = t;
        }
    }

    /// Makes the threads in `wake` runnable: the child of a `Create`
    /// starts after the spawn latency; a blocked thread resumes at `t`,
    /// idle until then.
    fn wake_all(&mut self, spawn: bool) {
        let mut wake = std::mem::take(&mut self.st.wake);
        for (w, t) in wake.drain(..) {
            let th = &mut self.st.threads[w];
            if spawn {
                th.time = t + self.spawn;
                th.start = th.time;
            } else if t > th.time {
                th.idle += t - th.time;
                th.time = t;
            }
            th.open = th.time;
            self.post(w);
        }
        self.st.wake = wake;
    }

    fn finish_thread(&mut self, i: usize) {
        let th = &mut self.st.threads[i];
        let t = th.time;
        if self.record && t > th.open {
            th.intervals.push((th.open, t));
        }
        self.st.sync.finish(i, t, &mut self.st.wake);
        self.wake_all(false);
    }

    /// Applies event `ev` of thread `i` (library overhead is active time).
    fn handle_event(&mut self, i: usize, ev: SyncOp) {
        let th = &mut self.st.threads[i];
        th.time += self.overhead;
        th.active += self.overhead;
        let now = th.time;
        let step = self.st.sync.handle(i, ev, now, &mut self.st.wake);
        self.wake_all(matches!(ev, SyncOp::Create { .. }));
        match step {
            Step::Proceed => {}
            Step::WaitUntil(t) => self.wait_running(i, t),
            Step::Block => self.block(i),
        }
    }

    fn run(mut self) -> f64 {
        // Algorithm 2 picks the unblocked thread with the shortest
        // accumulated time. We schedule by *arrival time at the next
        // synchronization event* (time + pending epoch), the discrete-event
        // refinement: every synchronization state change is processed in
        // globally nondecreasing time order, so untimed lock/queue state is
        // always consistent with wall-clock order. Ready threads live in a
        // min-heap keyed by that arrival time (ties to the lowest thread
        // index, matching the old scan); blocked and finished threads cost
        // nothing per scheduling step.
        if !self.st.threads.is_empty() {
            self.post(0); // main thread starts ready at t=0
        }
        while let Some((_, i)) = self.st.queue.pop() {
            debug_assert_eq!(self.st.sync.status(i), ThreadStatus::Ready);

            // Proceed thread i to its next synchronization event (or end).
            loop {
                let (off, len) = self.tl.ranges[i];
                let events = self.tl.events[i];
                let th = &mut self.st.threads[i];
                if th.at_epoch {
                    if th.idx >= len {
                        self.finish_thread(i);
                        break;
                    }
                    let dur = self.tl.cycles[off + th.idx];
                    th.time += dur;
                    th.active += dur;
                    th.at_epoch = false;
                    if th.idx >= events.len() {
                        // Last epoch: thread ends.
                        th.idx += 1;
                        self.finish_thread(i);
                        break;
                    }
                } else {
                    let ev = events[th.idx];
                    th.idx += 1;
                    th.at_epoch = true;
                    // Whether or not the thread blocked, reschedule: another
                    // thread may now have the smallest accumulated time.
                    self.handle_event(i, ev);
                    break;
                }
            }
            // Re-post the thread if it is still runnable after its event
            // (blocked threads are re-posted by whoever wakes them).
            if self.st.sync.status(i) == ThreadStatus::Ready {
                self.post(i);
            }
        }
        self.st.sync.assert_finished("symbolic execution");
        (0..self.st.threads.len())
            .map(|i| self.st.sync.finish_time(i))
            .fold(0.0, f64::max)
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
