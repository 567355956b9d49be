//! Discrete-event ready queue shared by the execution engines.
//!
//! The profiler's unit-cost interleaving, Algorithm 2 (symbolic execution)
//! and the golden simulator engine all schedule the same way: *run the
//! ready thread with the smallest clock next*. The historical
//! implementation rescanned every thread on every scheduling step, which is
//! O(threads) per step — harmless at the paper's 4–8 threads, but the
//! dominant cost for hundreds-to-thousands-of-thread scenarios where almost
//! every thread is blocked or finished at any given moment.
//!
//! [`EventQueue`] replaces the scan with a binary min-heap of
//! `(wake_key, thread)` events. Threads are *posted* when they become
//! runnable (creation, wake-up from a barrier/lock/queue, or re-posting
//! after a scheduling quantum) and popped in global time order; blocked and
//! finished threads simply are not in the heap and cost nothing. It lives
//! here, in the crate every engine depends on, next to the one
//! implementation of the synchronization rules ([`crate::sync_core`]).
//!
//! # Bit-identity with the scan
//!
//! The linear scan picked the **first** thread with the strictly smallest
//! key — i.e. the lowest index among ties. Popping the minimum of the
//! lexicographic pair `(key, thread_index)` selects exactly the same
//! thread, so engines ported to this queue reproduce their previous
//! schedules bit for bit (pinned by the golden suite, the sim-equivalence
//! suite and the scheduler differential tests).
//!
//! Each engine keeps time in its own [`Clock`]: `u64` ticks in the
//! profiler, `f64` cycles in the simulator and Algorithm 2. A tick is its
//! own key; [`time_key`] maps a non-negative, non-NaN `f64` to a `u64`
//! whose integer order matches the float order (IEEE-754 bit patterns of
//! non-negative floats are monotone), so the heap never compares floats
//! directly.
//!
//! # Invariant
//!
//! Each thread has **at most one** live entry in the queue: only the
//! engine-side transitions *into* the ready state post, and a thread
//! already in the queue never changes its wake key (a blocked thread is
//! not in the queue; the running thread has been popped). This is what
//! makes lazy deletion and sequence numbers unnecessary.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An engine's notion of time: `u64` ticks or `f64` cycles.
pub trait Clock: Copy + Default + PartialOrd {
    /// The [`EventQueue`] key of this time; keys order like times.
    fn key(self) -> u64;
}

impl Clock for u64 {
    #[inline]
    fn key(self) -> u64 {
        self
    }
}

impl Clock for f64 {
    #[inline]
    fn key(self) -> u64 {
        time_key(self)
    }
}

/// Maps a non-negative, non-NaN time in cycles to a heap key whose `u64`
/// ordering matches the `f64` ordering.
///
/// `-0.0` is normalized to `+0.0` so both spellings of zero share a key.
#[inline]
pub fn time_key(t: f64) -> u64 {
    debug_assert!(t >= 0.0, "simulated time must be non-negative, got {t}");
    if t == 0.0 {
        0
    } else {
        t.to_bits()
    }
}

/// Min-heap of `(wake_key, thread)` scheduling events.
///
/// See the [module docs](self) for the single-live-entry invariant and the
/// bit-identity argument.
#[derive(Debug, Default, Clone)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Removes every pending event, keeping the allocation (for scratch
    /// reuse across design-space sweep evaluations).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no thread is currently runnable.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Posts a wake-up for `thread` at `key` (see [`Clock::key`]).
    #[inline]
    pub fn post(&mut self, key: u64, thread: usize) {
        self.heap.push(Reverse((key, thread)));
    }

    /// Posts a wake-up for `thread` at time `t`.
    #[inline]
    pub fn post_at<T: Clock>(&mut self, t: T, thread: usize) {
        self.post(t.key(), thread);
    }

    /// Pops the earliest event: the smallest `(key, thread)` pair, i.e. the
    /// lowest-index thread among those sharing the minimum key.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.post_at(30.0, 1);
        q.post_at(10.0, 2);
        q.post_at(20.0, 0);
        assert_eq!(q.pop(), Some((time_key(10.0), 2)));
        assert_eq!(q.pop(), Some((time_key(20.0), 0)));
        assert_eq!(q.pop(), Some((time_key(30.0), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_to_lowest_thread_index() {
        let mut q = EventQueue::new();
        for i in [3usize, 0, 2, 1] {
            q.post_at(42.0, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "scan picked the first min index");
    }

    #[test]
    fn time_key_is_monotone_on_representative_values() {
        let mut times = [
            0.0,
            1e-9,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            QUANTUMISH,
            1e18,
            f64::MAX,
        ];
        times.sort_by(f64::total_cmp);
        for w in times.windows(2) {
            assert!(time_key(w[0]) <= time_key(w[1]), "{} vs {}", w[0], w[1]);
            if w[0] < w[1] {
                assert!(time_key(w[0]) < time_key(w[1]));
            }
        }
    }
    const QUANTUMISH: f64 = 500.0;

    #[test]
    fn negative_zero_normalizes() {
        assert_eq!(time_key(-0.0), time_key(0.0));
    }

    #[test]
    fn clear_keeps_reusability() {
        let mut q = EventQueue::new();
        q.post_at(1.0, 0);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.post_at(2.0, 7);
        assert_eq!(q.pop(), Some((time_key(2.0), 7)));
    }
}
