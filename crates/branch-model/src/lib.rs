//! Microarchitecture-independent branch misprediction modeling.
//!
//! RPPM predicts the branch CPI component from a profile of branch-outcome
//! *predictability*, following the branch-entropy approach of De Pestel et
//! al. (ISPASS 2015): during profiling we measure, per static branch and per
//! history length `h`, the irreducible misprediction rate of an ideal
//! history-`h` predictor,
//!
//! ```text
//! M_h = Σ_hist P(hist) · min(p_taken|hist, 1 − p_taken|hist)
//! ```
//!
//! which is a property of the outcome stream only — independent of any
//! concrete predictor. At prediction time, [`predict_miss_rate`] evaluates a
//! target [`BranchPredictorConfig`](rppm_trace::BranchPredictorConfig):
//! an idealized tournament predictor picks the better of the bimodal
//! (`M_0`) and global-history (`M_h`, `h` = predictor history bits)
//! components per branch, with a first-order aliasing correction when the
//! observed pattern footprint exceeds the predictor's table capacity.
//!
//! # Example
//!
//! ```
//! use rppm_branch_model::EntropyCollector;
//!
//! let mut c = EntropyCollector::new();
//! // A loop branch with period 4: TTTF TTTF ... perfectly predictable with
//! // history >= 2, 25% mispredicted by a history-less predictor.
//! for i in 0..10_000u32 {
//!     c.record(1, i % 4 != 3);
//! }
//! let profile = c.finish();
//! assert!(profile.miss_floor(0) > 0.2);
//! assert!(profile.miss_floor(8) < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rppm_statstack::FxHashMap;
use serde::{Deserialize, Serialize};

/// History lengths (in branch outcomes) at which predictability is profiled.
pub const HIST_LENGTHS: [u32; 6] = [0, 1, 2, 4, 8, 12];

/// Per-epoch, per-thread branch predictability profile.
///
/// `m[k]` is the irreducible misprediction rate at history length
/// `HIST_LENGTHS[k]`, aggregated over all branches (weighted by execution
/// count). The curve is used by [`predict_miss_rate`] to evaluate concrete
/// predictor configurations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BranchProfile {
    /// Dynamic branch count.
    pub branches: u64,
    /// Misprediction floor per profiled history length (aggregated).
    pub m: [f64; HIST_LENGTHS.len()],
    /// Number of static branch sites observed.
    pub static_sites: u32,
    /// Distinct (site, history) patterns observed at the longest profiled
    /// history — the predictor table footprint the workload needs.
    pub patterns: u64,
}

impl BranchProfile {
    /// Misprediction floor for an ideal predictor with `history` outcome
    /// bits (evaluated on the profiled grid; lengths beyond `history` are
    /// not used).
    pub fn miss_floor(&self, history: u32) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        let mut best = self.m[0];
        for (k, &h) in HIST_LENGTHS.iter().enumerate() {
            if h <= history {
                // Longer usable history can only help an ideal predictor;
                // guard against estimation noise with a running min.
                best = best.min(self.m[k]);
            }
        }
        best
    }

    /// Merges another profile into this one (weighted by branch counts).
    pub fn merge(&mut self, other: &BranchProfile) {
        let total = self.branches + other.branches;
        if total == 0 {
            return;
        }
        let wa = self.branches as f64 / total as f64;
        let wb = other.branches as f64 / total as f64;
        for k in 0..HIST_LENGTHS.len() {
            self.m[k] = self.m[k] * wa + other.m[k] * wb;
        }
        self.branches = total;
        self.static_sites = self.static_sites.max(other.static_sites);
        self.patterns += other.patterns;
    }
}

/// History lengths with a flat table per site: every one but the longest.
const FLAT: usize = HIST_LENGTHS.len() - 1;

/// Where each flat history length's table starts in [`SiteCollector`]'s
/// slots (one slot per history value), and the total slot count.
const FLAT_OFFSET: [usize; FLAT + 1] = {
    let mut offset = [0; FLAT + 1];
    let mut k = 0;
    while k < FLAT {
        assert!(
            HIST_LENGTHS[k] <= 8,
            "flat tables hold at most 2^8 histories"
        );
        offset[k + 1] = offset[k] + (1 << HIST_LENGTHS[k]);
        k += 1;
    }
    offset
};

/// Outcome statistics of one static branch.
///
/// For each profiled history length `h` an ideal predictor keeps one
/// counter per `h`-bit history and predicts by online majority vote: this
/// is what an ideal table predictor achieves *including training
/// transients*, and it converges to `min(p, 1 − p)` — unlike the offline
/// plug-in estimator, which is badly biased when many histories have few
/// samples. A counter needs only its balance (taken minus not-taken
/// outcomes; the vote is "taken" iff the balance is not negative), and a
/// length's misprediction count is kept as one sum. The histories of up to
/// 8 bits index flat tables directly; only the 12-bit histories, of which
/// a site sees few of the 4,096 possible, are kept in a map, whose size is
/// the site's pattern footprint.
#[derive(Debug)]
struct SiteCollector {
    history: u64,
    observed: u64,
    /// Mispredictions of the majority vote, per profiled history length.
    errors: [u64; HIST_LENGTHS.len()],
    /// Balances of the flat history lengths, at [`FLAT_OFFSET`].
    flat: [i64; FLAT_OFFSET[FLAT]],
    /// Balances of the longest history length, by history.
    long: FxHashMap<u64, i64>,
}

impl Default for SiteCollector {
    fn default() -> Self {
        SiteCollector {
            history: 0,
            observed: 0,
            errors: [0; HIST_LENGTHS.len()],
            flat: [0; FLAT_OFFSET[FLAT]],
            long: FxHashMap::default(),
        }
    }
}

impl SiteCollector {
    fn record(&mut self, taken: bool) {
        let step = if taken { 1 } else { -1 };
        let vote = |balance: &mut i64, errors: &mut u64| {
            *errors += u64::from((*balance >= 0) != taken);
            *balance += step;
        };
        for (k, errors) in self.errors[..FLAT].iter_mut().enumerate() {
            let mask = (1u64 << HIST_LENGTHS[k]) - 1;
            vote(
                &mut self.flat[FLAT_OFFSET[k] + (self.history & mask) as usize],
                errors,
            );
        }
        let mask = (1u64 << HIST_LENGTHS[FLAT]) - 1;
        vote(
            self.long.entry(self.history & mask).or_default(),
            &mut self.errors[FLAT],
        );
        self.history = (self.history << 1) | taken as u64;
        self.observed += 1;
    }

    /// Misprediction floor at each profiled history length.
    fn floors(&self) -> [f64; HIST_LENGTHS.len()] {
        if self.observed == 0 {
            return [0.0; HIST_LENGTHS.len()];
        }
        self.errors.map(|wrong| wrong as f64 / self.observed as f64)
    }
}

/// Streaming collector building a [`BranchProfile`] from branch outcomes.
#[derive(Debug, Default)]
pub struct EntropyCollector {
    sites: FxHashMap<u32, SiteCollector>,
    branches: u64,
}

impl EntropyCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of one dynamic branch at static site `site`.
    pub fn record(&mut self, site: u32, taken: bool) {
        self.sites.entry(site).or_default().record(taken);
        self.branches += 1;
    }

    /// Dynamic branches recorded so far.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Finishes collection, producing the profile.
    pub fn finish(self) -> BranchProfile {
        let mut m = [0.0; HIST_LENGTHS.len()];
        let mut patterns = 0u64;
        if self.branches > 0 {
            // Accumulate in site-id order so the floating-point sums are
            // independent of map iteration order (profiles must be
            // bit-reproducible across processes).
            let mut sites: Vec<(&u32, &SiteCollector)> = self.sites.iter().collect();
            sites.sort_unstable_by_key(|(id, _)| **id);
            for (_, site) in sites {
                let w = site.observed as f64 / self.branches as f64;
                let f = site.floors();
                for k in 0..HIST_LENGTHS.len() {
                    m[k] += w * f[k];
                }
                patterns += site.long.len() as u64;
            }
        }
        BranchProfile {
            branches: self.branches,
            m,
            static_sites: self.sites.len() as u32,
            patterns,
        }
    }
}

/// Predicts the misprediction rate of a tournament predictor described by
/// `config` for a workload with branch profile `profile`.
///
/// The tournament's chooser picks, per branch, the better of the bimodal
/// component (history 0) and the global-history component (history
/// `config.history_bits`); we evaluate both floors and take the minimum,
/// then apply a first-order aliasing correction: when the workload needs
/// more table entries than the predictor has, the excess fraction of
/// accesses degrades toward the history-less floor.
pub fn predict_miss_rate(
    profile: &BranchProfile,
    config: &rppm_trace::BranchPredictorConfig,
) -> f64 {
    if profile.branches == 0 {
        return 0.0;
    }
    let ideal = profile.miss_floor(config.history_bits);
    let entries = config.table_entries() as f64;
    let needed = profile.patterns.max(1) as f64;
    if needed <= entries {
        ideal
    } else {
        let alias_frac = 1.0 - entries / needed;
        let degraded = profile.miss_floor(0).max(ideal);
        ideal + alias_frac * (degraded - ideal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::BranchPredictorConfig;

    fn collect(outcomes: impl IntoIterator<Item = bool>) -> BranchProfile {
        let mut c = EntropyCollector::new();
        for t in outcomes {
            c.record(0, t);
        }
        c.finish()
    }

    #[test]
    fn always_taken_is_perfectly_predictable() {
        let p = collect((0..1000).map(|_| true));
        for k in 0..HIST_LENGTHS.len() {
            assert!(p.m[k] < 1e-9);
        }
        assert_eq!(p.static_sites, 1);
    }

    #[test]
    fn loop_branch_needs_history() {
        // TTTF repeating.
        let p = collect((0..10_000).map(|i| i % 4 != 3));
        assert!(
            (p.miss_floor(0) - 0.25).abs() < 0.01,
            "m0 {}",
            p.miss_floor(0)
        );
        assert!(p.miss_floor(4) < 0.01, "m4 {}", p.miss_floor(4));
    }

    #[test]
    fn bernoulli_half_is_unpredictable() {
        let mut rng = rppm_trace::Rng::new(1);
        let p = collect((0..50_000).map(|_| rng.chance(0.5)));
        for h in [0u32, 4, 12] {
            let m = p.miss_floor(h);
            // Finite-sample conditioning inflates apparent predictability at
            // long histories; 0.40 is a loose floor.
            assert!(m > 0.40, "h={h} m={m}");
        }
    }

    #[test]
    fn biased_bernoulli_floor_matches_minority() {
        let mut rng = rppm_trace::Rng::new(2);
        let p = collect((0..100_000).map(|_| rng.chance(0.9)));
        assert!((p.miss_floor(0) - 0.1).abs() < 0.01, "{}", p.miss_floor(0));
    }

    #[test]
    fn floors_are_monotone_in_history() {
        let mut rng = rppm_trace::Rng::new(3);
        // Mix of a loop and noise.
        let p = collect((0..50_000).map(|i| (i % 5 != 0) ^ rng.chance(0.05)));
        let mut prev = 1.0;
        for h in [0u32, 1, 2, 4, 8, 12] {
            let m = p.miss_floor(h);
            assert!(m <= prev + 1e-9, "floor increased at h={h}");
            prev = m;
        }
    }

    #[test]
    fn per_site_weighting() {
        let mut c = EntropyCollector::new();
        // Site 1: always taken (weight 3/4). Site 2: alternating longer
        // pattern — perfectly predictable with history, 50% without.
        for i in 0..40_000u32 {
            if i % 4 < 3 {
                c.record(1, true);
            } else {
                c.record(2, (i / 4) % 2 == 0);
            }
        }
        let p = c.finish();
        assert_eq!(p.static_sites, 2);
        assert!(p.miss_floor(12) < 0.01);
        let m0 = p.miss_floor(0);
        assert!(m0 > 0.05 && m0 < 0.15, "m0 {m0}");
    }

    #[test]
    fn predict_ideal_when_tables_fit() {
        let p = collect((0..10_000).map(|i| i % 4 != 3));
        let miss = predict_miss_rate(&p, &BranchPredictorConfig::tournament_4kb());
        assert!(miss < 0.01, "miss {miss}");
    }

    #[test]
    fn predict_degrades_under_aliasing() {
        let mut p = collect((0..10_000).map(|i| i % 4 != 3));
        // Pretend the workload exhibits an enormous pattern footprint.
        p.patterns = 10_000_000;
        let small = BranchPredictorConfig {
            size_bytes: 128,
            history_bits: 12,
        };
        let miss = predict_miss_rate(&p, &small);
        assert!(miss > 0.15, "aliased miss {miss}");
    }

    #[test]
    fn empty_profile_predicts_zero() {
        let p = BranchProfile::default();
        assert_eq!(
            predict_miss_rate(&p, &BranchPredictorConfig::tournament_4kb()),
            0.0
        );
        assert_eq!(p.miss_floor(12), 0.0);
    }

    #[test]
    fn merge_weights_by_count() {
        let a = collect((0..1000).map(|_| true)); // floor 0
        let mut rng = rppm_trace::Rng::new(9);
        let b = collect((0..1000).map(|_| rng.chance(0.5))); // floor ~0.5
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.branches, 2000);
        let m0 = merged.m[0];
        assert!((m0 - 0.25).abs() < 0.03, "merged m0 {m0}");
    }

    #[test]
    fn serde_round_trip() {
        let p = collect((0..100).map(|i| i % 2 == 0));
        let json = serde_json::to_string(&p).unwrap();
        let back: BranchProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
