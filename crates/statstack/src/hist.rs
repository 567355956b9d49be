//! Log-bucketed reuse-distance histograms.

use serde::{Deserialize, Serialize};

/// Distances below this are stored exactly (one bucket per distance).
const EXACT: u64 = 64;
/// Sub-buckets per power-of-two octave above the exact range.
const SUB: u32 = 4;
/// Number of octaves covered (2^6 .. 2^(6+OCTAVES)).
const OCTAVES: u32 = 40;
/// Total number of finite buckets.
const BUCKETS: usize = EXACT as usize + (OCTAVES * SUB) as usize;

/// Maps a distance to its bucket index.
fn bucket_of(d: u64) -> usize {
    if d < EXACT {
        d as usize
    } else {
        let o = 63 - d.leading_zeros(); // floor(log2 d), >= 6
        let sub = ((d >> (o - 2)) & 0x3) as u32;
        let idx = EXACT as usize + ((o - 6) * SUB + sub) as usize;
        idx.min(BUCKETS - 1)
    }
}

/// Representative (lower-edge) distance of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i < EXACT as usize {
        i as u64
    } else {
        let k = (i - EXACT as usize) as u32;
        let o = k / SUB + 6;
        let sub = (k % SUB) as u64;
        (1u64 << o) + sub * (1u64 << (o - 2))
    }
}

/// Geometric-ish midpoint used as the representative distance of bucket `i`.
fn bucket_mid(i: usize) -> u64 {
    let lo = bucket_lo(i);
    if i < EXACT as usize {
        lo
    } else {
        let hi = if i + 1 < BUCKETS {
            bucket_lo(i + 1)
        } else {
            lo * 2
        };
        lo + (hi - lo) / 2
    }
}

/// Histogram of reuse distances with dedicated cold and infinite buckets.
///
/// Reuse distance is the number of accesses *between* two accesses to the
/// same cache line (0 = immediately repeated). `cold` counts first-touch
/// accesses; `invalidated` counts reuses broken by a remote write (cache
/// coherence), which behave as compulsory misses in a private cache of any
/// size.
///
/// Only the non-empty finite buckets are stored, as ascending
/// `(bucket, count)` pairs: a profile keeps three histograms per epoch and
/// each fills a handful of its 224 buckets. The JSON form is the dense one
/// (every bucket's count, in order). The profiler's collectors count into
/// one counter per bucket and compact the counts once per epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseHistogram {
    /// The non-empty finite buckets, ascending by bucket.
    buckets: Vec<(u8, u64)>,
    /// First-touch accesses (miss at every cache size).
    pub cold: u64,
    /// Reuses broken by a remote write (coherence miss at every size).
    pub invalidated: u64,
    total_finite: u64,
}

// Bucket indices are stored in a byte.
const _: () = assert!(BUCKETS <= 256);

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finite reuse distance.
    pub fn record(&mut self, distance: u64) {
        let bucket = bucket_of(distance) as u8;
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
        self.total_finite += 1;
    }

    /// Records `n` cold (first-touch) accesses.
    pub fn record_cold(&mut self, n: u64) {
        self.cold += n;
    }

    /// Records `n` coherence-invalidated reuses.
    pub fn record_invalidated(&mut self, n: u64) {
        self.invalidated += n;
    }

    /// Approximate heap + inline size of this histogram in bytes (cache
    /// memory-budget accounting).
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.buckets.capacity() * std::mem::size_of::<(u8, u64)>())
            as u64
    }

    /// Total recorded accesses (finite + cold + invalidated).
    pub fn total(&self) -> u64 {
        self.total_finite + self.cold + self.invalidated
    }

    /// Total accesses with a finite reuse distance.
    pub fn total_finite(&self) -> u64 {
        self.total_finite
    }

    /// Fraction of accesses that are cold or invalidated (always-miss).
    pub fn always_miss_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.cold + self.invalidated) as f64 / t as f64
        }
    }

    /// Iterates over the non-empty finite buckets as
    /// `(representative distance, count)`, in increasing distance order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(b, c)| (bucket_mid(b as usize), c))
    }

    /// Mean finite reuse distance (bucket-representative approximation);
    /// `None` when no finite reuses were recorded.
    pub fn mean_finite(&self) -> Option<f64> {
        if self.total_finite == 0 {
            return None;
        }
        let sum: f64 = self.iter().map(|(d, c)| d as f64 * c as f64).sum();
        Some(sum / self.total_finite as f64)
    }

    /// Returns whether no accesses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// The non-empty buckets of dense `counts` as `(bucket, count)` pairs, in
/// a vector of exactly their number.
fn nonempty(counts: &[u64]) -> Vec<(u8, u64)> {
    let mut buckets = Vec::with_capacity(counts.iter().filter(|&&c| c > 0).count());
    buckets.extend(
        (0..=u8::MAX)
            .zip(counts.iter().copied())
            .filter(|&(_, c)| c > 0),
    );
    buckets
}

/// The serialized form of a [`ReuseHistogram`]: every bucket's count.
mod wire {
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub(super) struct ReuseHistogram {
        pub(super) counts: Vec<u64>,
        pub(super) cold: u64,
        pub(super) invalidated: u64,
        pub(super) total_finite: u64,
    }
}

impl Serialize for ReuseHistogram {
    fn to_value(&self) -> serde::Value {
        let mut counts = vec![0; BUCKETS];
        for &(b, c) in &self.buckets {
            counts[b as usize] = c;
        }
        wire::ReuseHistogram {
            counts,
            cold: self.cold,
            invalidated: self.invalidated,
            total_finite: self.total_finite,
        }
        .to_value()
    }
}

impl Deserialize for ReuseHistogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let w = wire::ReuseHistogram::from_value(v)?;
        if w.counts.len() != BUCKETS {
            return Err(serde::Error::custom(format!(
                "a reuse histogram has {BUCKETS} buckets, not {}",
                w.counts.len()
            )));
        }
        Ok(ReuseHistogram {
            buckets: nonempty(&w.counts),
            cold: w.cold,
            invalidated: w.invalidated,
            total_finite: w.total_finite,
        })
    }
}

/// A reuse-distance histogram with one counter per bucket, for the
/// collectors' per-access hot path: recording is one increment. A collector
/// keeps one per thread for its whole run; [`DenseHistogram::take`] hands
/// out an epoch's [`ReuseHistogram`] and leaves it empty for the next.
#[derive(Debug, Clone)]
pub(crate) struct DenseHistogram {
    counts: Box<[u64; BUCKETS]>,
    cold: u64,
    invalidated: u64,
}

impl Default for DenseHistogram {
    fn default() -> Self {
        DenseHistogram {
            counts: Box::new([0; BUCKETS]),
            cold: 0,
            invalidated: 0,
        }
    }
}

impl DenseHistogram {
    /// Records a finite reuse distance.
    #[inline]
    pub(crate) fn record(&mut self, distance: u64) {
        self.counts[bucket_of(distance)] += 1;
    }

    /// Records one cold (first-touch) access.
    #[inline]
    pub(crate) fn record_cold(&mut self) {
        self.cold += 1;
    }

    /// Records one coherence-invalidated reuse.
    #[inline]
    pub(crate) fn record_invalidated(&mut self) {
        self.invalidated += 1;
    }

    /// Returns the counts recorded since the last call as a compact
    /// [`ReuseHistogram`] and clears them.
    pub(crate) fn take(&mut self) -> ReuseHistogram {
        let buckets = nonempty(&self.counts[..]);
        self.counts.fill(0);
        ReuseHistogram {
            total_finite: buckets.iter().map(|&(_, c)| c).sum(),
            buckets,
            cold: std::mem::take(&mut self.cold),
            invalidated: std::mem::take(&mut self.invalidated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_buckets_are_exact() {
        for d in 0..EXACT {
            assert_eq!(bucket_lo(bucket_of(d)), d);
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut prev = 0;
        for d in [0u64, 1, 5, 63, 64, 65, 100, 1000, 1 << 20, 1 << 33] {
            let b = bucket_of(d);
            assert!(b >= prev, "bucket_of({d}) = {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn bucket_lo_below_or_equal_distance() {
        for d in [0u64, 1, 63, 64, 100, 999, 12345, 1 << 30] {
            let b = bucket_of(d);
            assert!(bucket_lo(b) <= d);
            if b + 1 < BUCKETS {
                assert!(bucket_lo(b + 1) > d, "d={d} b={b}");
            }
        }
    }

    #[test]
    fn record_and_total() {
        let mut h = ReuseHistogram::new();
        h.record(5);
        h.record(5);
        h.record(1000);
        h.record_cold(3);
        h.record_invalidated(2);
        assert_eq!(h.total(), 8);
        assert_eq!(h.total_finite(), 3);
        assert!((h.always_miss_fraction() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn iter_sorted_and_counts_match() {
        let mut h = ReuseHistogram::new();
        for d in [3u64, 3, 7, 100, 100, 100, 50_000] {
            h.record(d);
        }
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u64 = buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn dense_take_matches_recording_and_clears() {
        let mut dense = DenseHistogram::default();
        let mut compact = ReuseHistogram::new();
        for d in [1u64, 1, 1 << 20, 63, 64, 7] {
            dense.record(d);
            compact.record(d);
        }
        dense.record_cold();
        dense.record_invalidated();
        compact.record_cold(1);
        compact.record_invalidated(1);
        assert_eq!(dense.take(), compact);
        assert_eq!(dense.take(), ReuseHistogram::new(), "take leaves it empty");
        dense.record(5);
        assert_eq!(dense.take().iter().collect::<Vec<_>>(), vec![(5, 1)]);
    }

    #[test]
    fn json_needs_every_bucket() {
        let json = serde_json::to_string(&ReuseHistogram::new()).unwrap();
        let short = json.replacen("[0,", "[", 1);
        let err = serde_json::from_str::<ReuseHistogram>(&short).unwrap_err();
        assert!(err.to_string().contains("224 buckets, not 223"), "{err}");
    }

    #[test]
    fn mean_finite_handles_empty() {
        let h = ReuseHistogram::new();
        assert!(h.mean_finite().is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let mut h = ReuseHistogram::new();
        h.record(42);
        h.record_cold(1);
        let json = serde_json::to_string(&h).unwrap();
        let back: ReuseHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    proptest! {
        #[test]
        fn bucket_of_never_panics_and_is_in_range(d in any::<u64>()) {
            let b = bucket_of(d);
            prop_assert!(b < BUCKETS);
        }

        #[test]
        fn bucket_mid_within_bucket(d in 0u64..(1 << 40)) {
            let b = bucket_of(d);
            let mid = bucket_mid(b);
            prop_assert!(bucket_of(mid) == b, "mid {mid} of bucket {b} (d={d}) lands in {}", bucket_of(mid));
        }

        #[test]
        fn monotone_distance_monotone_bucket(a in 0u64..(1<<40), b in 0u64..(1<<40)) {
            if a <= b {
                prop_assert!(bucket_of(a) <= bucket_of(b));
            }
        }
    }
}
