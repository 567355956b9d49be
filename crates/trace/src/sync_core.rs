//! One implementation of the pthread synchronization rules and of the
//! scheduling loop that applies them, shared by every execution engine.
//!
//! The profiler's unit-cost interleaving, the golden simulator and
//! Algorithm 2 (symbolic execution) apply the same semantics: thread
//! creation and join, barriers, FIFO mutexes, producer/consumer queues,
//! reader-writer locks and counting semaphores. [`SyncCore`] holds that
//! state machine once, together with the ready queue, split the way
//! event-driven emulators split a scheduler from its components: the core
//! decides *when* each thread runs; each engine, through the [`Executor`]
//! trait, decides *what executes* and keeps only its own clock arithmetic
//! (the profiler cuts epochs, the simulator charges library overhead and
//! spawn latency, Algorithm 2 adds predicted epoch times).
//!
//! [`SyncCore::run`] posts the main thread, then repeatedly pops the
//! ready thread with the smallest key (ties to the lowest index; see
//! [`EventQueue`]) and lets the engine run a slice of it. Each event the
//! slice reaches goes to [`SyncCore::sync`] and the end of its stream to
//! [`SyncCore::exit`]; both make the threads they wake runnable through
//! the engine's [`Executor::start`] or [`Executor::resume`] and post them.
//! A thread still ready after its slice is posted again; a blocked one is
//! posted by whoever wakes it. When nothing is ready, every thread must
//! have finished, or the run deadlocked.
//!
//! The core is generic over the engine's [`Clock`] — `u64` ticks in the
//! profiler, `f64` cycles in the engines — and only ever compares times,
//! so both share one definition.

use crate::program::Program;
use crate::sched::{Clock, EventQueue};
use crate::sync::SyncOp;
use std::collections::{HashMap, HashSet, VecDeque};

/// An execution engine as [`SyncCore::run`] drives it: its clock
/// arithmetic, and the slice of work it runs when a thread is popped.
/// Thread `i` is an index into the program's threads.
pub trait Executor<T: Clock> {
    /// Thread `i`'s clock as it reaches a synchronization event (after any
    /// library overhead the engine charges) or the end of its stream.
    fn clock(&self, i: usize) -> T;

    /// The time ready thread `i` is queued under: its clock or, in
    /// Algorithm 2, its arrival at its next event.
    fn ready_at(&self, i: usize) -> T {
        self.clock(i)
    }

    /// Thread `i` was created at time `t` and starts: at `t`, plus any
    /// spawn latency the engine models.
    fn start(&mut self, i: usize, t: T);

    /// Blocked thread `i` was woken at time `t` and resumes at the later of
    /// its own clock and `t` (a blocked thread's clock does not move, so a
    /// wake time behind it means "resume now").
    fn resume(&mut self, i: usize, t: T);

    /// Running thread `i` stops running until a later
    /// [`Executor::resume`]: it blocked, or it waits in place for a time
    /// past its clock (the release of a barrier it completed, the finish of
    /// a child it joined, or the availability of an item or permit it
    /// took), which the core applies as a block and a resume at that time.
    fn block(&mut self, i: usize);

    /// Runs a slice of ready thread `i`: executes its work, hands each
    /// synchronization event to [`SyncCore::sync`] and the end of its
    /// stream to [`SyncCore::exit`], and returns once the thread blocked,
    /// finished, or ran as long as the engine lets one thread run before
    /// the others get a turn.
    fn run(&mut self, i: usize, core: &mut SyncCore<T>);
}

/// Lifecycle of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    /// Not created yet (every thread but the main one starts here).
    NotStarted,
    /// Runnable: running, or waiting in the ready queue.
    Ready,
    /// Waiting on a synchronization primitive until a wake resumes it.
    Blocked,
    /// Reached the end of its stream.
    Done,
}

/// What the thread that handled a synchronization event does next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step<T> {
    /// Continue at the current time.
    Proceed,
    /// Continue once the clock reaches this time (at once if it already
    /// has): the release of a barrier it completed, the finish of a child
    /// it joined, or the availability of an item or permit it took.
    WaitUntil(T),
    /// The thread blocked; a later wake resumes it.
    Block,
}

#[derive(Debug, Default)]
struct Barrier<T> {
    arrived: Vec<usize>,
    /// Latest arrival time of the current instance.
    latest: T,
}

#[derive(Debug, Default)]
struct Mutex {
    held_by: Option<usize>,
    queue: VecDeque<usize>,
}

/// A producer/consumer queue or a counting semaphore: available items
/// (permits) carry the time they became available. Never holds available
/// tokens and waiting threads at once.
#[derive(Debug, Default)]
struct Tokens<T> {
    available: VecDeque<T>,
    waiting: VecDeque<usize>,
}

impl<T: Clock> Tokens<T> {
    /// Takes one token for thread `i`, blocking if there is none.
    fn take(&mut self, i: usize) -> Step<T> {
        match self.available.pop_front() {
            Some(at) => Step::WaitUntil(at),
            None => {
                self.waiting.push_back(i);
                Step::Block
            }
        }
    }

    /// Makes `count` tokens available at `now`, handing them to waiting
    /// threads in arrival order first.
    fn give(&mut self, count: u32, now: T, wake: &mut Vec<(usize, T)>) {
        for _ in 0..count {
            match self.waiting.pop_front() {
                Some(w) => wake.push((w, now)),
                None => self.available.push_back(now),
            }
        }
    }
}

#[derive(Debug, Default)]
struct RwLock {
    writer: Option<usize>,
    readers: usize,
    /// Blocked acquirers in arrival order: `(thread, wants_write)`.
    queue: VecDeque<(usize, bool)>,
}

impl RwLock {
    /// Grants the lock to thread `i` unless it is held incompatibly or
    /// anyone is queued (a queued writer holds back later readers).
    fn acquire(&mut self, i: usize, write: bool) -> bool {
        let free = self.writer.is_none() && self.queue.is_empty();
        if write && free && self.readers == 0 {
            self.writer = Some(i);
        } else if !write && free {
            self.readers += 1;
        } else {
            self.queue.push_back((i, write));
            return false;
        }
        true
    }

    /// Releases thread `i`'s hold, then admits queued acquirers FIFO: a
    /// writer at the front enters alone once the lock is free; a run of
    /// readers at the front enters together.
    fn release<T: Copy>(&mut self, i: usize, now: T, wake: &mut Vec<(usize, T)>) {
        if self.writer == Some(i) {
            self.writer = None;
        } else {
            self.readers = self.readers.saturating_sub(1);
        }
        if self.writer.is_some() {
            return;
        }
        if let Some(&(w, true)) = self.queue.front() {
            if self.readers == 0 {
                self.queue.pop_front();
                self.writer = Some(w);
                wake.push((w, now));
            }
            return;
        }
        while let Some(&(w, false)) = self.queue.front() {
            self.queue.pop_front();
            self.readers += 1;
            wake.push((w, now));
        }
    }
}

/// Per-thread lifecycle, the state of every synchronization primitive and
/// the ready queue of one run. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SyncCore<T> {
    /// Threads taking part in each barrier (a pure property of the
    /// streams, kept across [`SyncCore::reset`]).
    participants: HashMap<u32, usize>,
    status: Vec<ThreadStatus>,
    finish: Vec<T>,
    /// Threads blocked joining each thread, in arrival order.
    joiners: Vec<Vec<usize>>,
    barriers: HashMap<u32, Barrier<T>>,
    mutexes: HashMap<u32, Mutex>,
    queues: HashMap<u32, Tokens<T>>,
    sems: HashMap<u32, Tokens<T>>,
    rwlocks: HashMap<u32, RwLock>,
    /// Ready threads keyed by [`Executor::ready_at`]; each thread has at
    /// most one entry.
    ready: EventQueue,
    /// Threads the event being handled makes runnable.
    wake: Vec<(usize, T)>,
}

impl<T: Clock> SyncCore<T> {
    /// A core for `threads` threads whose barriers have the given
    /// participant counts (see [`barrier_participants`]). Only the main
    /// thread (0) starts out ready.
    pub fn new(threads: usize, participants: HashMap<u32, usize>) -> Self {
        let mut core = SyncCore {
            participants,
            ..SyncCore::default()
        };
        core.reset(threads);
        core
    }

    /// A core for executing `program`.
    pub fn for_program(program: &Program) -> Self {
        let events = program
            .threads
            .iter()
            .map(|t| t.sync_ops().copied().collect::<Vec<_>>());
        Self::new(program.num_threads(), barrier_participants(events))
    }

    /// Returns every thread, primitive and the ready queue to their initial
    /// state for another run over the same events, keeping every
    /// allocation.
    pub fn reset(&mut self, threads: usize) {
        self.status.clear();
        self.status.resize(threads, ThreadStatus::NotStarted);
        if let Some(main) = self.status.first_mut() {
            *main = ThreadStatus::Ready;
        }
        self.finish.clear();
        self.finish.resize(threads, T::default());
        self.joiners.resize_with(threads, Vec::new);
        self.joiners.iter_mut().for_each(Vec::clear);
        for b in self.barriers.values_mut() {
            b.arrived.clear();
            b.latest = T::default();
        }
        for m in self.mutexes.values_mut() {
            m.held_by = None;
            m.queue.clear();
        }
        for q in self.queues.values_mut().chain(self.sems.values_mut()) {
            q.available.clear();
            q.waiting.clear();
        }
        for rw in self.rwlocks.values_mut() {
            rw.writer = None;
            rw.readers = 0;
            rw.queue.clear();
        }
        self.ready.clear();
        self.wake.clear();
    }

    /// The time thread `i` finished (the clock's zero until it has).
    #[inline]
    pub fn finish_time(&self, i: usize) -> T {
        self.finish[i]
    }

    /// Runs every thread to the end of its stream through `exec`: posts the
    /// main thread, then runs a slice of the earliest ready thread until
    /// none is ready (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics naming the blocked threads and `run` if the run deadlocks
    /// (e.g. a consume from a queue nothing ever produces into), or if a
    /// thread is created twice.
    pub fn run<E: Executor<T>>(&mut self, exec: &mut E, run: &str) {
        if !self.status.is_empty() {
            self.ready.post_at(exec.ready_at(0), 0);
        }
        while let Some((_, i)) = self.ready.pop() {
            debug_assert_eq!(self.status[i], ThreadStatus::Ready);
            exec.run(i, self);
            if self.status[i] == ThreadStatus::Ready {
                self.ready.post_at(exec.ready_at(i), i);
            }
        }
        self.assert_finished(run);
    }

    /// Applies running thread `i`'s synchronization event `op` at its
    /// [`Executor::clock`], making the threads it wakes runnable, and has
    /// `i` wait or block as the event demands. Returns whether `i` is still
    /// running.
    pub fn sync<E: Executor<T>>(&mut self, exec: &mut E, i: usize, op: SyncOp) -> bool {
        let step = self.handle(i, op, exec.clock(i));
        self.make_ready(exec, matches!(op, SyncOp::Create { .. }));
        match step {
            Step::Proceed => true,
            Step::WaitUntil(t) => {
                if t > exec.clock(i) {
                    exec.block(i);
                    exec.resume(i, t);
                }
                true
            }
            Step::Block => {
                exec.block(i);
                false
            }
        }
    }

    /// Marks running thread `i` finished at its [`Executor::clock`],
    /// making the threads joining it runnable.
    pub fn exit<E: Executor<T>>(&mut self, exec: &mut E, i: usize) {
        self.finish(i, exec.clock(i));
        self.make_ready(exec, false);
    }

    /// Starts (`created`) or resumes every thread the last event woke, in
    /// order, and posts it.
    fn make_ready<E: Executor<T>>(&mut self, exec: &mut E, created: bool) {
        for (w, t) in self.wake.drain(..) {
            if created {
                exec.start(w, t);
            } else {
                exec.resume(w, t);
            }
            self.ready.post_at(exec.ready_at(w), w);
        }
    }

    /// Applies thread `i`'s synchronization event `op` at time `now`,
    /// appending the threads it makes runnable to the wake buffer.
    ///
    /// # Panics
    ///
    /// Panics if `op` creates a thread that was already created.
    fn handle(&mut self, i: usize, op: SyncOp, now: T) -> Step<T> {
        let wake = &mut self.wake;
        let first = wake.len();
        let step = match op {
            SyncOp::Create { child } => {
                let c = child.index();
                assert_eq!(
                    self.status[c],
                    ThreadStatus::NotStarted,
                    "thread {c} created twice"
                );
                wake.push((c, now));
                Step::Proceed
            }
            SyncOp::Join { child } => {
                let c = child.index();
                if self.status[c] == ThreadStatus::Done {
                    Step::WaitUntil(self.finish[c])
                } else {
                    self.joiners[c].push(i);
                    Step::Block
                }
            }
            SyncOp::Barrier { id, .. } => {
                let need = self.participants[&id.0];
                let bar = self.barriers.entry(id.0).or_default();
                bar.arrived.push(i);
                if now > bar.latest {
                    bar.latest = now;
                }
                if bar.arrived.len() >= need {
                    let release = std::mem::take(&mut bar.latest);
                    let others = bar.arrived.drain(..).filter(|&w| w != i);
                    wake.extend(others.map(|w| (w, release)));
                    Step::WaitUntil(release)
                } else {
                    Step::Block
                }
            }
            SyncOp::Lock { id } => {
                let m = self.mutexes.entry(id.0).or_default();
                if m.held_by.is_none() && m.queue.is_empty() {
                    m.held_by = Some(i);
                    Step::Proceed
                } else {
                    m.queue.push_back(i);
                    Step::Block
                }
            }
            SyncOp::Unlock { id } => {
                let m = self.mutexes.entry(id.0).or_default();
                m.held_by = m.queue.pop_front();
                wake.extend(m.held_by.map(|w| (w, now)));
                Step::Proceed
            }
            SyncOp::Produce { queue, count } => {
                self.queues
                    .entry(queue.0)
                    .or_default()
                    .give(count, now, wake);
                Step::Proceed
            }
            SyncOp::Consume { queue } => self.queues.entry(queue.0).or_default().take(i),
            SyncOp::RwLock { id, write } => {
                if self.rwlocks.entry(id.0).or_default().acquire(i, write) {
                    Step::Proceed
                } else {
                    Step::Block
                }
            }
            SyncOp::RwUnlock { id } => {
                self.rwlocks.entry(id.0).or_default().release(i, now, wake);
                Step::Proceed
            }
            SyncOp::SemWait { id } => self.sems.entry(id.0).or_default().take(i),
            SyncOp::SemPost { id, count } => {
                self.sems.entry(id.0).or_default().give(count, now, wake);
                Step::Proceed
            }
        };
        if step == Step::Block {
            self.status[i] = ThreadStatus::Blocked;
        }
        for &(w, _) in &wake[first..] {
            self.status[w] = ThreadStatus::Ready;
        }
        step
    }

    /// Marks thread `i` finished at `now`, appending the threads joining
    /// it to the wake buffer.
    fn finish(&mut self, i: usize, now: T) {
        self.status[i] = ThreadStatus::Done;
        self.finish[i] = now;
        for w in self.joiners[i].drain(..) {
            self.status[w] = ThreadStatus::Ready;
            self.wake.push((w, now));
        }
    }

    /// Checks, once no thread is ready, that every thread finished.
    ///
    /// # Panics
    ///
    /// Panics naming the blocked threads if the run deadlocked.
    fn assert_finished(&self, run: &str) {
        if self.status.iter().any(|&s| s != ThreadStatus::Done) {
            let blocked: Vec<usize> = (0..self.status.len())
                .filter(|&i| self.status[i] == ThreadStatus::Blocked)
                .collect();
            panic!("deadlock: threads {blocked:?} blocked forever in {run}");
        }
    }
}

/// Counts, per barrier id, the threads whose events name that barrier:
/// every one of them takes part in each instance. A pure function of the
/// event streams, so engines that run the same streams repeatedly compute
/// it once.
pub fn barrier_participants<E: AsRef<[SyncOp]>>(
    events_per_thread: impl IntoIterator<Item = E>,
) -> HashMap<u32, usize> {
    let mut participants = HashMap::new();
    let mut seen = HashSet::new();
    for events in events_per_thread {
        seen.clear();
        for op in events.as_ref() {
            if let SyncOp::Barrier { id, .. } = op {
                if seen.insert(id.0) {
                    *participants.entry(id.0).or_insert(0) += 1;
                }
            }
        }
    }
    participants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{BarrierId, RwLockId, SemId, ThreadId};

    fn core(threads: usize, events: &[Vec<SyncOp>]) -> SyncCore<u64> {
        SyncCore::new(threads, barrier_participants(events))
    }

    #[test]
    fn create_starts_the_child_and_join_waits_for_it() {
        let mut c = core(2, &[]);
        let create = SyncOp::Create { child: ThreadId(1) };
        assert_eq!(c.handle(0, create, 5), Step::Proceed);
        assert_eq!(c.wake, vec![(1, 5)]);
        assert_eq!(c.status[1], ThreadStatus::Ready);
        c.wake.clear();
        let join = SyncOp::Join { child: ThreadId(1) };
        assert_eq!(c.handle(0, join, 6), Step::Block);
        c.finish(1, 40);
        assert_eq!(c.wake, vec![(0, 40)]);
        assert_eq!(c.status[0], ThreadStatus::Ready);
        // Joining a thread that already finished waits for its finish.
        assert_eq!(c.handle(0, join, 30), Step::WaitUntil(40));
        c.finish(0, 41);
        c.assert_finished("test");
    }

    #[test]
    fn barrier_releases_everyone_at_the_latest_arrival() {
        let bar = SyncOp::Barrier {
            id: BarrierId(3),
            via_cond: false,
        };
        let mut c = core(3, &[vec![bar], vec![bar, bar], vec![bar]]);
        assert_eq!(c.handle(0, bar, 10), Step::Block);
        assert_eq!(c.handle(2, bar, 30), Step::Block);
        assert_eq!(c.handle(1, bar, 20), Step::WaitUntil(30));
        assert_eq!(c.wake, vec![(0, 30), (2, 30)]);
        // The next instance starts from scratch.
        c.wake.clear();
        assert_eq!(c.handle(1, bar, 50), Step::Block);
    }

    #[test]
    fn a_queued_writer_holds_back_later_readers() {
        let id = RwLockId(0);
        let read = SyncOp::RwLock { id, write: false };
        let write = SyncOp::RwLock { id, write: true };
        let unlock = SyncOp::RwUnlock { id };
        let mut c = core(4, &[]);
        assert_eq!(c.handle(0, read, 0), Step::Proceed);
        assert_eq!(c.handle(1, write, 1), Step::Block);
        assert_eq!(c.handle(2, read, 2), Step::Block);
        assert_eq!(c.handle(3, read, 3), Step::Block);
        c.handle(0, unlock, 10);
        assert_eq!(c.wake, vec![(1, 10)], "the writer enters alone");
        c.wake.clear();
        c.handle(1, unlock, 20);
        assert_eq!(c.wake, vec![(2, 20), (3, 20)], "then both readers together");
    }

    #[test]
    fn posts_hand_permits_to_waiters_then_bank_the_rest() {
        let id = SemId(0);
        let wait = SyncOp::SemWait { id };
        let mut c = core(4, &[]);
        for t in 1..4 {
            assert_eq!(c.handle(t, wait, t as u64), Step::Block);
        }
        c.handle(0, SyncOp::SemPost { id, count: 2 }, 7);
        assert_eq!(c.wake, vec![(1, 7), (2, 7)]);
        c.wake.clear();
        c.handle(0, SyncOp::SemPost { id, count: 3 }, 9);
        assert_eq!(c.wake, vec![(3, 9)]);
        assert_eq!(c.handle(1, wait, 12), Step::WaitUntil(9));
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut c = core(2, &[]);
        c.handle(0, SyncOp::Create { child: ThreadId(1) }, 0);
        c.handle(1, SyncOp::Lock { id: 0.into() }, 0);
        c.reset(2);
        assert_eq!(c.status[0], ThreadStatus::Ready);
        assert_eq!(c.status[1], ThreadStatus::NotStarted);
        assert_eq!(c.handle(0, SyncOp::Lock { id: 0.into() }, 0), Step::Proceed);
    }

    #[test]
    #[should_panic(expected = "deadlock: threads [0]")]
    fn a_blocked_thread_is_a_deadlock() {
        let mut c = core(1, &[]);
        let consume = SyncOp::Consume { queue: 0.into() };
        assert_eq!(c.handle(0, consume, 0), Step::Block);
        c.assert_finished("test");
    }
}
