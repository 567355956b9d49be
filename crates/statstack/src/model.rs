//! Reuse-distance → stack-distance conversion and LRU miss-rate prediction.

use crate::hist::ReuseHistogram;

/// StatStack's statistical LRU cache model, built from a [`ReuseHistogram`].
///
/// For an access with reuse distance `r` (number of intervening accesses),
/// the expected number of *unique* lines touched in between — the stack
/// distance — is the expected number of intervening accesses that are the
/// last access to their line within the window. An intervening access at
/// position `i` (0-based, window length `r`) is "last" when its own forward
/// reuse distance exceeds `r − i`. Approximating each access's forward reuse
/// by an i.i.d. draw from the aggregate distribution `D`:
///
/// ```text
/// SD(r) = Σ_{j=0}^{r−1} P(D > j) = r − (1/N)·Σᵢ mᵢ·max(0, r − dᵢ)
/// ```
///
/// where `(dᵢ, mᵢ)` are the histogram buckets and `N` the total access count
/// (cold/invalidated accesses have `D = ∞` and thus never truncate the sum).
/// `SD` is monotonically non-decreasing and `SD(r) ≤ r`, so for a cache of
/// capacity `C` lines there is a unique threshold reuse distance `r*` with
/// `SD(r*) ≥ C`; every access with `D ≥ r*` misses, plus all cold and
/// invalidated accesses.
///
/// [`StackDistanceModel::miss_rate`] uses StatStack's standard
/// fully-associative assumption; [`StackDistanceModel::miss_rate_assoc`]
/// adds Hill & Smith's set-mapping conflict model on top.
#[derive(Debug, Clone)]
pub struct StackDistanceModel {
    /// Sorted finite buckets: (distance, count).
    buckets: Vec<(u64, u64)>,
    /// Suffix counts: `suffix[i]` = number of finite accesses with distance
    /// ≥ `buckets[i].0`.
    suffix: Vec<u64>,
    total: u64,
    always_miss: u64,
}

impl StackDistanceModel {
    /// Builds the model from a histogram.
    pub fn new(hist: &ReuseHistogram) -> Self {
        let buckets: Vec<(u64, u64)> = hist.iter().collect();
        let mut suffix = vec![0u64; buckets.len()];
        let mut acc = 0u64;
        for i in (0..buckets.len()).rev() {
            acc += buckets[i].1;
            suffix[i] = acc;
        }
        StackDistanceModel {
            buckets,
            suffix,
            total: hist.total(),
            always_miss: hist.cold + hist.invalidated,
        }
    }

    /// Approximate heap + inline size of this model in bytes (cache
    /// memory-budget accounting).
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.buckets.capacity() * std::mem::size_of::<(u64, u64)>()
            + self.suffix.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Total accesses underlying the model.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Expected stack distance for reuse distance `r`.
    ///
    /// Returns 0 for an empty model.
    pub fn stack_distance(&self, r: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let r_f = r as f64;
        let mut truncated = 0.0;
        for &(d, m) in &self.buckets {
            if d >= r {
                break;
            }
            truncated += m as f64 * (r_f - d as f64);
        }
        (r_f - truncated / self.total as f64).max(0.0)
    }

    /// Predicted miss rate (misses per access) for a fully-associative LRU
    /// cache of `capacity_lines` lines.
    ///
    /// Includes cold and coherence-invalidated accesses, which miss at any
    /// capacity. Returns 0 for an empty model.
    pub fn miss_rate(&self, capacity_lines: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if capacity_lines == 0 {
            return 1.0;
        }
        let r_star = self.threshold_reuse(capacity_lines);
        let finite_misses = self.count_at_least(r_star);
        (finite_misses + self.always_miss) as f64 / self.total as f64
    }

    /// Smallest reuse distance whose expected stack distance reaches
    /// `capacity` (accesses at or beyond it miss).
    fn threshold_reuse(&self, capacity: u64) -> u64 {
        // SD(r) <= r, so r* >= capacity; SD is monotone: binary search.
        let mut lo = capacity;
        let mut hi = capacity.max(1);
        // Exponential search for an upper bound.
        while self.stack_distance(hi) < capacity as f64 {
            if hi > (1 << 62) {
                return u64::MAX; // cache bigger than any observed footprint
            }
            hi *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.stack_distance(mid) >= capacity as f64 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Number of finite accesses with reuse distance ≥ `r`.
    fn count_at_least(&self, r: u64) -> u64 {
        if r == u64::MAX {
            return 0;
        }
        // First bucket with distance >= r.
        let idx = self.buckets.partition_point(|&(d, _)| d < r);
        self.suffix.get(idx).copied().unwrap_or(0)
    }

    /// Predicted misses (absolute count) at the given capacity.
    pub fn misses(&self, capacity_lines: u64) -> f64 {
        self.miss_rate(capacity_lines) * self.total as f64
    }

    /// Predicted miss rate for a *set-associative* LRU cache with `sets`
    /// sets of `assoc` ways.
    ///
    /// Fully-associative LRU misses exactly when the stack distance reaches
    /// capacity; a set-associative cache also takes conflict misses near
    /// capacity. With random set mapping, the `s` unique intervening lines
    /// of an access with stack distance `s` fall into the access's own set
    /// as `Binomial(s, 1/sets) ≈ Poisson(s/sets)`; the access hits iff
    /// fewer than `assoc` of them landed there:
    ///
    /// ```text
    /// P(hit | s) = Σ_{k<assoc} e^{−s/sets} (s/sets)^k / k!
    /// ```
    ///
    /// (Hill & Smith's associativity model applied to StatStack's expected
    /// stack distances.) Cold and invalidated accesses miss regardless.
    pub fn miss_rate_assoc(&self, sets: u64, assoc: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if sets == 0 || assoc == 0 {
            return 1.0;
        }
        let mut miss_mass = 0.0f64;
        for &(d, m) in &self.buckets {
            let s = self.stack_distance(d);
            let lambda = s / sets as f64;
            // P(Poisson(lambda) >= assoc)
            let mut p_hit = 0.0f64;
            let mut term = (-lambda).exp();
            for k in 0..assoc {
                p_hit += term;
                term *= lambda / (k + 1) as f64;
            }
            miss_mass += m as f64 * (1.0 - p_hit.min(1.0));
        }
        (miss_mass + self.always_miss as f64) / self.total as f64
    }

    /// Predicted miss rate for a cache described by `geom`
    /// (set-associative; see [`StackDistanceModel::miss_rate_assoc`]).
    pub fn miss_rate_geom(&self, geom: &rppm_trace::CacheGeometry) -> f64 {
        self.miss_rate_assoc(geom.sets(), geom.assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn loop_hist(lines: u64, iters: u64) -> ReuseHistogram {
        // A loop over `lines` distinct lines: after the first pass, every
        // access has reuse distance lines-1.
        let mut h = ReuseHistogram::new();
        h.record_cold(lines);
        for _ in 0..(lines * iters) {
            h.record(lines - 1);
        }
        h
    }

    #[test]
    fn stack_distance_of_loop_equals_unique_lines() {
        let h = loop_hist(100, 100);
        let m = StackDistanceModel::new(&h);
        // Intervening 99 accesses touch 99 unique lines (all reuses escape
        // the window only when further than the window). SD(99) should be
        // close to 99 * fraction... exact reasoning: P(D > j) = 1 for j < 99
        // (ignoring cold mass), so SD(99) ≈ 99.
        let sd = m.stack_distance(99);
        assert!((sd - 99.0).abs() < 2.0, "sd {sd}");
    }

    #[test]
    fn loop_fits_or_thrashes() {
        let h = loop_hist(100, 1000);
        let m = StackDistanceModel::new(&h);
        assert!(m.miss_rate(128) < 0.01, "fit: {}", m.miss_rate(128));
        assert!(m.miss_rate(64) > 0.95, "thrash: {}", m.miss_rate(64));
    }

    #[test]
    fn cold_and_invalidated_always_miss() {
        let mut h = ReuseHistogram::new();
        h.record_cold(50);
        h.record_invalidated(50);
        let m = StackDistanceModel::new(&h);
        assert!((m.miss_rate(1 << 30) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_model_is_benign() {
        let m = StackDistanceModel::new(&ReuseHistogram::new());
        assert_eq!(m.miss_rate(1024), 0.0);
        assert_eq!(m.stack_distance(100), 0.0);
        assert_eq!(m.total_accesses(), 0);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let h = loop_hist(10, 10);
        let m = StackDistanceModel::new(&h);
        assert_eq!(m.miss_rate(0), 1.0);
    }

    #[test]
    fn tiny_distances_hit_tiny_caches() {
        let mut h = ReuseHistogram::new();
        for _ in 0..1000 {
            h.record(0); // immediate reuse
        }
        let m = StackDistanceModel::new(&h);
        assert!(m.miss_rate(2) < 0.01);
    }

    #[test]
    fn misses_scale_with_total() {
        let h = loop_hist(100, 10);
        let m = StackDistanceModel::new(&h);
        let misses = m.misses(64);
        assert!(misses > 900.0, "misses {misses}");
    }

    #[test]
    fn mixed_working_sets_have_intermediate_miss_rate() {
        // Half the accesses reuse within 8 lines, half within 10_000 lines.
        let mut h = ReuseHistogram::new();
        for _ in 0..10_000 {
            h.record(7);
            h.record(9_999);
        }
        let m = StackDistanceModel::new(&h);
        let mr = m.miss_rate(1024);
        assert!(mr > 0.40 && mr < 0.60, "miss rate {mr}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stack_distance_is_monotone_and_bounded(
            ds in proptest::collection::vec(0u64..100_000, 1..200),
            probes in proptest::collection::vec(0u64..200_000, 2..20),
        ) {
            let mut h = ReuseHistogram::new();
            for d in &ds { h.record(*d); }
            let m = StackDistanceModel::new(&h);
            let mut sorted = probes.clone();
            sorted.sort_unstable();
            let mut prev = -1.0f64;
            for r in sorted {
                let sd = m.stack_distance(r);
                prop_assert!(sd <= r as f64 + 1e-9);
                prop_assert!(sd + 1e-9 >= prev, "SD not monotone");
                prev = sd;
            }
        }

        #[test]
        fn miss_rate_decreases_with_capacity(
            ds in proptest::collection::vec(0u64..50_000, 1..200),
            cold in 0u64..50,
        ) {
            let mut h = ReuseHistogram::new();
            for d in &ds { h.record(*d); }
            h.record_cold(cold);
            let m = StackDistanceModel::new(&h);
            let caps = [1u64, 4, 16, 64, 256, 1024, 4096, 65_536, 1 << 20];
            let mut prev = 1.0f64 + 1e-9;
            for c in caps {
                let mr = m.miss_rate(c);
                prop_assert!((0.0..=1.0).contains(&mr));
                prop_assert!(mr <= prev + 1e-9, "miss rate increased at {c}");
                prev = mr;
            }
        }

        #[test]
        fn miss_rate_lower_bounded_by_always_miss(
            ds in proptest::collection::vec(0u64..10_000, 0..100),
            cold in 1u64..100,
            inval in 0u64..100,
        ) {
            let mut h = ReuseHistogram::new();
            for d in &ds { h.record(*d); }
            h.record_cold(cold);
            h.record_invalidated(inval);
            let m = StackDistanceModel::new(&h);
            let floor = h.always_miss_fraction();
            prop_assert!(m.miss_rate(1 << 24) >= floor - 1e-9);
        }
    }
}
