//! The multi-threaded reuse-distance collector.
//!
//! The original single-stream StatStack measurement, a per-location counter
//! that yields the reuse distance of every access, is
//! [`ReuseTracker`](crate::ReuseTracker); the profiler uses it for
//! instruction-line reuse.
//!
//! [`MultiThreadCollector`] implements the multi-threaded extension RPPM
//! relies on (Section III-A, "Memory Behavior"): every thread's accesses are
//! measured against *two* counters — the thread's private access counter
//! (private L1/L2 locality) and a single global counter shared by all
//! threads (shared LLC locality, capturing positive interference from data
//! sharing and negative interference from capacity contention). A reuse
//! broken by a remote write is recorded as an infinite private distance
//! (write invalidation ⇒ coherence miss).
//!
//! The collector sits on the profiler's per-access hot path, so line state
//! lives in one flat table indexed by interned dense line ids
//! ([`AddrInterner`]) rather than a per-line-allocating hash map. A line
//! that one thread alone has touched keeps that thread's two counters
//! inline in its record and no write state: until a second thread arrives,
//! no other thread can have invalidated it. The second thread gives the
//! line a row of one slot per thread, and from then on the line also keeps
//! the global counter of its last access and of its last write. The
//! collector's memory is therefore O(lines + shared lines × threads), not
//! O(lines × threads). Each thread's reuse distances are counted into dense
//! per-bucket arrays kept for the whole run; an epoch boundary hands out
//! their compact [`ReuseHistogram`]s and clears them.

use crate::hist::{DenseHistogram, ReuseHistogram};
use crate::intern::AddrInterner;

/// Locality statistics of one thread over one inter-synchronization epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochLocality {
    /// Private (per-thread counter) reuse-distance histogram. Predicts the
    /// private L1/L2 miss rates.
    pub private: ReuseHistogram,
    /// Global (interleaved counter) reuse-distance histogram. Predicts the
    /// shared LLC miss rate.
    pub global: ReuseHistogram,
    /// Data accesses observed in the epoch.
    pub accesses: u64,
    /// Store accesses observed in the epoch.
    pub stores: u64,
}

/// One thread's counts since its last epoch boundary: kept for the whole
/// run, emptied at each boundary.
#[derive(Debug, Clone, Default)]
struct EpochCounts {
    private: DenseHistogram,
    global: DenseHistogram,
    accesses: u64,
    stores: u64,
}

/// One thread's private and global counter values at its last access to a
/// line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    priv_last: u64,
    glob_last: u64,
}

impl Slot {
    /// The slot of a thread that has not touched the line (the global
    /// counter never reaches `u64::MAX`).
    const UNSEEN: Slot = Slot {
        priv_last: 0,
        glob_last: u64::MAX,
    };
}

/// The state of one interned line.
#[derive(Debug, Clone, Copy)]
enum Line {
    /// Only `owner` has touched the line; `last` is its last access.
    Private { owner: u32, last: Slot },
    /// Two or more threads have touched the line. Their slots are row `row`
    /// of [`MultiThreadCollector::slots`] (unseen threads hold
    /// [`Slot::UNSEEN`]).
    Shared {
        row: u32,
        /// Global counter value of the most recent access by anyone.
        last_any_glob: u64,
        /// Global counter value of the most recent write since the line
        /// became shared, or 0. A write made while the line was private
        /// came from its owner before any other thread touched it, so it
        /// can invalidate no one.
        last_write_glob: u64,
    },
}

/// Multi-threaded reuse-distance collector with coherence detection.
///
/// The caller feeds an interleaved access stream via
/// [`MultiThreadCollector::access`]; per-thread epoch boundaries are marked
/// with [`MultiThreadCollector::end_epoch`], which returns the
/// [`EpochLocality`] accumulated for that thread since its previous
/// boundary. Line state persists across epochs (reuse distances legitimately
/// span synchronization events).
#[derive(Debug)]
pub struct MultiThreadCollector {
    n_threads: usize,
    global_count: u64,
    priv_count: Vec<u64>,
    interner: AddrInterner,
    /// Per interned line id.
    lines: Vec<Line>,
    /// Per shared line, one slot per thread (row-major).
    slots: Vec<Slot>,
    current: Vec<EpochCounts>,
}

impl MultiThreadCollector {
    /// Creates a collector for `n_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0);
        MultiThreadCollector {
            n_threads,
            global_count: 0,
            priv_count: vec![0; n_threads],
            interner: AddrInterner::new(),
            lines: Vec::new(),
            slots: Vec::new(),
            current: vec![EpochCounts::default(); n_threads],
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.n_threads
    }

    /// Records an access by `thread` to `line`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn access(&mut self, thread: usize, line: u64, is_write: bool) {
        assert!(thread < self.n_threads);
        let now = Slot {
            priv_last: self.priv_count[thread],
            glob_last: self.global_count,
        };
        let g = now.glob_last;
        self.priv_count[thread] += 1;
        self.global_count += 1;
        let epoch = &mut self.current[thread];
        epoch.accesses += 1;
        if is_write {
            epoch.stores += 1;
        }

        let (id, first) = self.interner.intern(line);
        if first {
            epoch.private.record_cold();
            epoch.global.record_cold();
            self.lines.push(Line::Private {
                owner: thread as u32,
                last: now,
            });
            return;
        }
        let n = self.n_threads;
        let state = &mut self.lines[id as usize];
        match *state {
            Line::Private { owner, last } if owner as usize == thread => {
                // No other thread has touched the line, so none can have
                // invalidated it.
                epoch.private.record(now.priv_last - last.priv_last - 1);
                epoch.global.record(g - last.glob_last - 1);
                *state = Line::Private { owner, last: now };
            }
            Line::Private { owner, last } => {
                // A second thread's first touch. For the *shared* cache the
                // owner brought the line in (positive interference): measure
                // against the owner's last access.
                epoch.private.record_cold();
                epoch.global.record(g - last.glob_last - 1);
                let row = self.slots.len() / n;
                self.slots.resize(self.slots.len() + n, Slot::UNSEEN);
                self.slots[row * n + owner as usize] = last;
                self.slots[row * n + thread] = now;
                *state = Line::Shared {
                    // Rows never outnumber the interner's `u32` line ids.
                    row: row as u32,
                    last_any_glob: g,
                    last_write_glob: if is_write { g } else { 0 },
                };
            }
            Line::Shared {
                row,
                last_any_glob,
                last_write_glob,
            } => {
                let slot = &mut self.slots[row as usize * n + thread];
                if slot.glob_last == Slot::UNSEEN.glob_last {
                    // First touch by this thread: measured against the most
                    // recent access by anyone, as above.
                    epoch.private.record_cold();
                    epoch.global.record(g - last_any_glob - 1);
                } else {
                    // Write invalidation: a write after our last access is
                    // remote (our own writes are never later than our last
                    // access) and broke the private reuse (the line was
                    // invalidated in our private hierarchy), but the shared
                    // LLC still holds it.
                    if last_write_glob > slot.glob_last {
                        epoch.private.record_invalidated();
                    } else {
                        epoch.private.record(now.priv_last - slot.priv_last - 1);
                    }
                    epoch.global.record(g - slot.glob_last - 1);
                }
                *slot = now;
                *state = Line::Shared {
                    row,
                    last_any_glob: g,
                    last_write_glob: if is_write { g } else { last_write_glob },
                };
            }
        }
    }

    /// Ends the current epoch of `thread`, returning its locality statistics
    /// and starting a fresh accumulation.
    pub fn end_epoch(&mut self, thread: usize) -> EpochLocality {
        let counts = &mut self.current[thread];
        EpochLocality {
            private: counts.private.take(),
            global: counts.global.take(),
            accesses: std::mem::take(&mut counts.accesses),
            stores: std::mem::take(&mut counts.stores),
        }
    }

    /// Total accesses recorded across all threads.
    pub fn total_accesses(&self) -> u64 {
        self.global_count
    }

    /// Number of distinct lines touched so far (by anyone).
    pub fn unique_lines(&self) -> u64 {
        self.interner.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut m = MultiThreadCollector::new(1);
        m.access(0, 7, false);
        m.access(0, 7, false);
        let e = m.end_epoch(0);
        assert_eq!(e.private.cold, 1);
        assert_eq!(e.private.iter().collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(e.global.iter().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn multithread_private_matches_single_when_disjoint() {
        // Two threads touching disjoint lines: private distances unaffected
        // by interleaving.
        let mut m = MultiThreadCollector::new(2);
        for _ in 0..3 {
            for line in 0..4u64 {
                m.access(0, line, false);
                m.access(1, 100 + line, false);
            }
        }
        let e0 = m.end_epoch(0);
        assert_eq!(e0.private.cold, 4);
        let buckets: Vec<(u64, u64)> = e0.private.iter().collect();
        assert_eq!(buckets, vec![(3, 8)]);
        // Global distances are doubled (+1) by interleaving: 2*3+1 = 7.
        let gbuckets: Vec<(u64, u64)> = e0.global.iter().collect();
        assert_eq!(gbuckets, vec![(7, 8)]);
    }

    #[test]
    fn paper_figure2_example() {
        // Thread 1: D E F F D — second D: private rd 3, global rd 7 after
        // interleaving with thread 2's A B B D A... Reproduce the figure's
        // interleaving: D A B E F B F D D A (t1 accesses D E F F D,
        // t2 accesses A B B D A).
        let mut m = MultiThreadCollector::new(2);
        // interleave exactly as drawn
        m.access(0, 'D' as u64, false); // t1 D
        m.access(1, 'A' as u64, false); // t2 A
        m.access(1, 'B' as u64, false); // t2 B
        m.access(0, 'E' as u64, false); // t1 E
        m.access(0, 'F' as u64, false); // t1 F
        m.access(1, 'B' as u64, false); // t2 B
        m.access(0, 'F' as u64, false); // t1 F
        m.access(1, 'D' as u64, false); // t2 D  (shares D with t1!)
        m.access(0, 'D' as u64, false); // t1 D  (second access)
        m.access(1, 'A' as u64, false); // t2 A

        let e0 = m.end_epoch(0);
        let e1 = m.end_epoch(1);
        // t1's second D: private distance = 3 (E F F in between).
        let d_priv: Vec<(u64, u64)> = e0.private.iter().collect();
        assert!(d_priv.contains(&(3, 1)), "{d_priv:?}");
        // t1's second F: private distance 0; global distance 1 (B between).
        assert!(e0.global.iter().any(|(d, _)| d == 1));
        // t2's D was brought in new for t2 but t1 accessed it at global 0:
        // positive interference — global distance finite (6), not cold.
        assert_eq!(e1.global.cold, 2, "only A and B are globally cold");
        assert!(e1.global.iter().any(|(d, _)| d == 6));
    }

    #[test]
    fn write_invalidation_detected() {
        let mut m = MultiThreadCollector::new(2);
        m.access(0, 5, false); // t0 reads line 5
        m.access(1, 5, true); // t1 writes line 5
        m.access(0, 5, false); // t0 re-reads: invalidated
        let e0 = m.end_epoch(0);
        assert_eq!(e0.private.invalidated, 1);
        assert_eq!(e0.private.cold, 1); // the first access
                                        // Global reuse still finite (LLC keeps the line).
        assert_eq!(e0.global.total_finite(), 1);
    }

    #[test]
    fn own_writes_do_not_invalidate() {
        let mut m = MultiThreadCollector::new(2);
        m.access(0, 5, true);
        m.access(0, 5, true);
        m.access(0, 5, false);
        let e0 = m.end_epoch(0);
        assert_eq!(e0.private.invalidated, 0);
        assert_eq!(e0.private.total_finite(), 2);
    }

    #[test]
    fn remote_write_before_first_access_is_positive_interference() {
        let mut m = MultiThreadCollector::new(2);
        m.access(0, 9, true); // t0 writes (producer)
        m.access(1, 9, false); // t1 first touch: globally warm
        let e1 = m.end_epoch(1);
        assert_eq!(e1.private.cold, 1);
        assert_eq!(e1.global.cold, 0);
        assert_eq!(e1.global.total_finite(), 1);
    }

    #[test]
    fn epochs_reset_accumulation_but_not_line_state() {
        let mut m = MultiThreadCollector::new(1);
        m.access(0, 1, false);
        let e1 = m.end_epoch(0);
        assert_eq!(e1.accesses, 1);
        m.access(0, 1, false); // reuse across epoch boundary
        let e2 = m.end_epoch(0);
        assert_eq!(e2.accesses, 1);
        assert_eq!(e2.private.cold, 0, "line state persists across epochs");
        assert_eq!(e2.private.total_finite(), 1);
    }

    #[test]
    fn store_counting() {
        let mut m = MultiThreadCollector::new(1);
        m.access(0, 1, true);
        m.access(0, 2, false);
        m.access(0, 3, true);
        let e = m.end_epoch(0);
        assert_eq!(e.stores, 2);
        assert_eq!(e.accesses, 3);
    }

    #[test]
    fn unique_lines_counts_distinct() {
        let mut m = MultiThreadCollector::new(2);
        m.access(0, 1, false);
        m.access(1, 1, false);
        m.access(0, 2, false);
        assert_eq!(m.unique_lines(), 2);
        assert_eq!(m.total_accesses(), 3);
    }

    #[test]
    fn hundred_threads_share_one_line() {
        // More threads than one 64-bit word has bits; the semantics must
        // match the narrow case.
        let n = 100;
        let mut m = MultiThreadCollector::new(n);
        for t in 0..n {
            m.access(t, 42, false); // everyone touches the same line
        }
        m.access(99, 42, false); // reuse by the last thread
        let e99 = m.end_epoch(99);
        assert_eq!(e99.private.cold, 1);
        assert_eq!(e99.private.total_finite(), 1);
        // First-touch accesses by threads 1.. see positive interference.
        let e1 = m.end_epoch(1);
        assert_eq!(e1.global.cold, 0);
        assert_eq!(e1.global.total_finite(), 1);
        let e0 = m.end_epoch(0);
        assert_eq!(e0.global.cold, 1, "thread 0 touched the line first");
    }

    #[test]
    fn lines_one_thread_touches_allocate_no_row() {
        let mut m = MultiThreadCollector::new(8);
        for rep in 0..3 {
            for t in 0..8 {
                for line in 0..16u64 {
                    m.access(t, (t as u64) << 32 | line, rep == 1);
                }
            }
        }
        assert_eq!(m.unique_lines(), 128);
        assert!(m.slots.is_empty(), "private lines need no per-thread row");
        m.access(3, 0, false); // thread 0's first line gains a second thread
        assert_eq!(m.slots.len(), 8, "one row of one slot per thread");
    }

    #[test]
    fn state_survives_many_lines() {
        // Push far past the interner's initial capacity and check a reuse
        // distance that spans the growth.
        let mut m = MultiThreadCollector::new(2);
        m.access(0, 0xABCD, false);
        for k in 0..50_000u64 {
            m.access(1, k, false);
        }
        m.access(0, 0xABCD, false);
        let e0 = m.end_epoch(0);
        // Private: 0 intervening accesses by thread 0 itself.
        assert_eq!(e0.private.iter().next(), Some((0, 1)));
        assert_eq!(m.unique_lines(), 50_000, "0xABCD is within 0..50_000");
    }
}
