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
//! lives in flat struct-of-arrays tables indexed by interned dense line ids
//! ([`AddrInterner`]) rather than a per-line-allocating hash map. The
//! per-thread columns use a power-of-two stride (so the common 1–8-thread
//! case indexes with a shift) and the per-line "which threads touched this
//! line" set is a single bitmask word for up to 64 threads, with a
//! multi-word fallback beyond. Each thread's reuse distances are counted
//! into dense per-bucket arrays kept for the whole run; an epoch boundary
//! hands out their compact [`ReuseHistogram`]s and clears them.

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

/// Sentinel for "no thread has written this line".
const NO_WRITER: u32 = u32::MAX;

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
    /// log2 of the per-line stride of the per-thread columns
    /// (`n_threads.next_power_of_two()`), so `line_id << stride_shift + t`
    /// indexes without a multiply.
    stride_shift: u32,
    /// Bitmask words per line in `seen` (1 for up to 64 threads).
    seen_words: usize,
    global_count: u64,
    priv_count: Vec<u64>,
    interner: AddrInterner,
    /// Per (line, thread): private counter value at that thread's last
    /// access. Line-major, stride `1 << stride_shift`.
    priv_last: Vec<u64>,
    /// Per (line, thread): global counter value at that thread's last
    /// access. Same layout as `priv_last`.
    glob_last: Vec<u64>,
    /// Per line: bitmask of threads that have touched the line.
    seen: Vec<u64>,
    /// Per line: global counter value of the most recent access by anyone
    /// (the running max of `glob_last` across threads).
    last_any_glob: Vec<u64>,
    /// Per line: global counter value of the most recent write.
    last_write_glob: Vec<u64>,
    /// Per line: thread of the most recent write, or [`NO_WRITER`].
    last_writer: Vec<u32>,
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
            stride_shift: n_threads.next_power_of_two().trailing_zeros(),
            seen_words: n_threads.div_ceil(64),
            global_count: 0,
            priv_count: vec![0; n_threads],
            interner: AddrInterner::new(),
            priv_last: Vec::new(),
            glob_last: Vec::new(),
            seen: Vec::new(),
            last_any_glob: Vec::new(),
            last_write_glob: Vec::new(),
            last_writer: Vec::new(),
            current: vec![EpochCounts::default(); n_threads],
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.n_threads
    }

    /// Appends zeroed state rows for a newly interned line.
    #[cold]
    fn push_line(&mut self) {
        let stride = 1usize << self.stride_shift;
        self.priv_last.resize(self.priv_last.len() + stride, 0);
        self.glob_last.resize(self.glob_last.len() + stride, 0);
        self.seen.resize(self.seen.len() + self.seen_words, 0);
        self.last_any_glob.push(0);
        self.last_write_glob.push(0);
        self.last_writer.push(NO_WRITER);
    }

    /// Records an access by `thread` to `line`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn access(&mut self, thread: usize, line: u64, is_write: bool) {
        assert!(thread < self.n_threads);
        let g = self.global_count;
        let p = self.priv_count[thread];

        let (id, first) = self.interner.intern(line);
        if first {
            self.push_line();
        }
        let idx = id as usize;
        let slot = (idx << self.stride_shift) + thread;

        // Test-and-set this thread's bit in the line's seen mask; the
        // single-word branch is the common (≤ 64 threads) fast path.
        let (was_seen, any_seen);
        if self.seen_words == 1 {
            let w = &mut self.seen[idx];
            any_seen = *w != 0;
            was_seen = (*w >> thread) & 1 == 1;
            *w |= 1 << thread;
        } else {
            let words = &mut self.seen[idx * self.seen_words..(idx + 1) * self.seen_words];
            any_seen = words.iter().any(|&w| w != 0);
            was_seen = (words[thread / 64] >> (thread % 64)) & 1 == 1;
            words[thread / 64] |= 1 << (thread % 64);
        }

        let epoch = &mut self.current[thread];
        epoch.accesses += 1;
        if is_write {
            epoch.stores += 1;
        }

        if was_seen {
            let glob_prev = self.glob_last[slot];
            // Write invalidation: a remote write after our last access breaks
            // the private reuse (the line was invalidated in our private
            // hierarchy), but the shared LLC still holds it.
            let writer = self.last_writer[idx];
            let invalidated = writer != NO_WRITER
                && writer != thread as u32
                && self.last_write_glob[idx] > glob_prev;
            if invalidated {
                epoch.private.record_invalidated();
            } else {
                epoch.private.record(p - self.priv_last[slot] - 1);
            }
            epoch.global.record(g - glob_prev - 1);
        } else {
            // First touch by this thread. For the *shared* cache the line may
            // have been brought in by another thread (positive interference):
            // measure against the most recent access by anyone.
            epoch.private.record_cold();
            if any_seen {
                epoch.global.record(g - self.last_any_glob[idx] - 1);
            } else {
                epoch.global.record_cold();
            }
        }

        self.priv_last[slot] = p;
        self.glob_last[slot] = g;
        self.last_any_glob[idx] = g;
        if is_write {
            self.last_write_glob[idx] = g;
            self.last_writer[idx] = thread as u32;
        }
        self.priv_count[thread] += 1;
        self.global_count += 1;
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
    fn wide_collector_uses_multiword_seen_masks() {
        // 100 threads forces the multi-word seen-mask path; the semantics
        // must match the narrow case.
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
