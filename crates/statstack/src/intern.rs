//! Address interning: dense `u32` ids for 64-bit line addresses.
//!
//! Reuse-distance collection touches its line-state table on *every* memory
//! access, so the seed's `HashMap<u64, LineState>` (SipHash, per-line boxed
//! slices) dominated profiling time. [`AddrInterner`] replaces it with an
//! open-addressing table under an FxHash-style multiplicative hash: one
//! probe sequence over a flat slot array, no per-entry allocation, and a
//! dense id that indexes the caller's flat per-line table.

use crate::hist::{DenseHistogram, ReuseHistogram};

/// Golden-ratio multiplier used by FxHash-style mixers.
const FX_K: u64 = 0x517C_C1B7_2722_0A95;

/// Mixes a 64-bit key into a table hash (FxHash-style: xor-fold the high
/// half down, then one odd-constant multiply). Line addresses are
/// low-entropy in their low bits, so the fold keeps the high bits relevant.
#[inline(always)]
fn fx_hash(key: u64) -> u64 {
    (key ^ (key >> 32)).wrapping_mul(FX_K)
}

/// A [`std::hash::Hasher`] over the same multiplicative mix, usable as a
/// drop-in `HashMap` hasher on hot paths (and, unlike the std default,
/// unseeded — map iteration order is stable across processes).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(FX_K);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.hash = fx_hash(self.hash ^ n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = fx_hash(self.hash ^ n);
    }

    fn write_usize(&mut self, n: usize) {
        self.hash = fx_hash(self.hash ^ n as u64);
    }
}

/// A `HashMap` keyed by the FxHash-style hasher (fast, unseeded).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// Sentinel id marking an empty slot.
const EMPTY: u32 = u32::MAX;

/// An open-addressing interner mapping 64-bit addresses to dense `u32` ids
/// in first-seen order.
///
/// ```
/// use rppm_statstack::AddrInterner;
///
/// let mut it = AddrInterner::new();
/// assert_eq!(it.intern(0xDEAD_BEEF), (0, true));
/// assert_eq!(it.intern(0xFEED_FACE), (1, true));
/// assert_eq!(it.intern(0xDEAD_BEEF), (0, false));
/// assert_eq!(it.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AddrInterner {
    /// Interned keys, slot-parallel with `ids`.
    keys: Vec<u64>,
    /// Dense id per slot; `EMPTY` marks a free slot.
    ids: Vec<u32>,
    mask: usize,
    len: u32,
}

impl Default for AddrInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrInterner {
    /// Initial slot count (power of two).
    const INITIAL: usize = 1024;

    /// Creates an empty interner.
    pub fn new() -> Self {
        AddrInterner {
            keys: vec![0; Self::INITIAL],
            ids: vec![EMPTY; Self::INITIAL],
            mask: Self::INITIAL - 1,
            len: 0,
        }
    }

    /// Interns `addr`, returning `(id, first_time)`. Ids are dense and
    /// assigned in first-seen order, so they directly index caller-side
    /// state arrays.
    #[inline]
    pub fn intern(&mut self, addr: u64) -> (u32, bool) {
        let mut slot = (fx_hash(addr) as usize) & self.mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                let new_id = self.len;
                self.keys[slot] = addr;
                self.ids[slot] = new_id;
                self.len += 1;
                // Grow at 3/4 load to keep probe chains short.
                if (self.len as usize) * 4 > self.keys.len() * 3 {
                    self.grow();
                }
                return (new_id, true);
            }
            if self.keys[slot] == addr {
                return (id, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Number of distinct addresses interned.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns whether no addresses have been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_ids = std::mem::replace(&mut self.ids, vec![EMPTY; new_cap]);
        self.mask = new_cap - 1;
        for (key, id) in old_keys.into_iter().zip(old_ids) {
            if id == EMPTY {
                continue;
            }
            let mut slot = (fx_hash(key) as usize) & self.mask;
            while self.ids[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.keys[slot] = key;
            self.ids[slot] = id;
        }
    }
}

/// A per-stream reuse-distance tracker built on [`AddrInterner`]: one
/// access counter, a flat last-access table and the current epoch's
/// histogram.
///
/// Returns the reuse distance of each access (`None` for a first touch) and
/// counts it into the epoch's histogram, which
/// [`ReuseTracker::end_epoch`] hands out — the profiler keeps one tracker
/// per thread for instruction-line (I-cache) reuse.
#[derive(Debug, Clone, Default)]
pub struct ReuseTracker {
    interner: AddrInterner,
    last: Vec<u64>,
    count: u64,
    epoch: DenseHistogram,
}

impl ReuseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `addr`: `Some(distance)` for a reuse (number of
    /// accesses since the previous access to `addr`), `None` for a cold
    /// first touch.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let c = self.count;
        self.count += 1;
        let (id, first) = self.interner.intern(addr);
        if first {
            self.last.push(c);
            self.epoch.record_cold();
            return None;
        }
        let idx = id as usize;
        let d = c - self.last[idx] - 1;
        self.last[idx] = c;
        self.epoch.record(d);
        Some(d)
    }

    /// Returns the histogram of the accesses since the previous call (or
    /// since creation) and starts the next epoch's; the per-address state
    /// carries over, so a reuse can span the boundary.
    pub fn end_epoch(&mut self) -> ReuseHistogram {
        self.epoch.take()
    }

    /// Accesses recorded so far.
    pub fn accesses(&self) -> u64 {
        self.count
    }

    /// Distinct addresses seen so far.
    pub fn unique(&self) -> usize {
        self.interner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = AddrInterner::new();
        assert_eq!(it.intern(10), (0, true));
        assert_eq!(it.intern(20), (1, true));
        assert_eq!(it.intern(10), (0, false));
        assert_eq!(it.intern(30), (2, true));
        assert_eq!(it.len(), 3);
        assert!(!it.is_empty());
    }

    #[test]
    fn survives_growth() {
        let mut it = AddrInterner::new();
        // Far past the initial capacity, with adversarially regular keys.
        for k in 0..100_000u64 {
            let (id, first) = it.intern(k * 64);
            assert_eq!(id as u64, k);
            assert!(first);
        }
        for k in 0..100_000u64 {
            assert_eq!(it.intern(k * 64), (k as u32, false));
        }
        assert_eq!(it.len(), 100_000);
    }

    #[test]
    fn colliding_high_bits_still_distinct() {
        let mut it = AddrInterner::new();
        let a = it.intern(0x0000_0001_0000_0000).0;
        let b = it.intern(0x0000_0002_0000_0000).0;
        let c = it.intern(0x0000_0000_0000_0000).0;
        assert_eq!(
            3,
            [a, b, c]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn single_thread_loop_distances() {
        // A 4-line loop read three times: 4 cold touches, then 8 reuses at
        // distance 3.
        let mut t = ReuseTracker::new();
        let distances: Vec<Option<u64>> = (0..3)
            .flat_map(|_| 0..4u64)
            .map(|line| t.access(line))
            .collect();
        assert_eq!(distances[..4], [None; 4]);
        assert_eq!(distances[4..], [Some(3); 8]);
    }

    #[test]
    fn tracker_matches_manual_distances() {
        let mut t = ReuseTracker::new();
        assert_eq!(t.access(7), None);
        assert_eq!(t.access(7), Some(0));
        assert_eq!(t.access(9), None);
        assert_eq!(t.access(7), Some(1));
        assert_eq!(t.accesses(), 4);
        assert_eq!(t.unique(), 2);
    }

    #[test]
    fn epochs_histogram_their_own_accesses() {
        let mut t = ReuseTracker::new();
        for addr in [7, 7, 9, 7] {
            t.access(addr);
        }
        let first = t.end_epoch();
        assert_eq!(first.cold, 2);
        assert_eq!(first.iter().collect::<Vec<_>>(), vec![(0, 1), (1, 1)]);
        // A reuse across the boundary counts in the next epoch, not cold.
        assert_eq!(t.access(9), Some(1));
        let second = t.end_epoch();
        assert_eq!((second.cold, second.total()), (0, 1));
        assert!(t.end_epoch().is_empty());
    }
}
