//! Address and branch-outcome patterns.
//!
//! Workload blocks describe their memory and control-flow behaviour
//! parametrically; the patterns here expand to concrete address and outcome
//! streams. The patterns are chosen so that the benchmark analogs can dial in
//! the locality (reuse-distance shape), sharing (coherence traffic) and
//! branch predictability (outcome entropy) regimes the paper's workloads
//! exhibit.

use crate::rng::Rng;
use serde::{Deserialize, Serialize};

/// A contiguous region of the line-granular address space.
///
/// Regions are allocated by [`crate::ProgramBuilder::alloc_region`]; distinct
/// regions never overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// First cache line of the region.
    pub base: u64,
    /// Extent in cache lines.
    pub lines: u64,
}

impl Region {
    /// Creates a region covering `lines` cache lines starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`.
    pub fn new(base: u64, lines: u64) -> Self {
        assert!(lines > 0, "region must span at least one line");
        Region { base, lines }
    }

    /// Splits the region into `n` equal consecutive chunks, returning chunk
    /// `i`. The last chunk absorbs any remainder.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0` or the region has fewer than `n` lines.
    pub fn chunk(&self, i: u64, n: u64) -> Region {
        assert!(n > 0 && i < n, "chunk index out of range");
        assert!(self.lines >= n, "region too small for {n} chunks");
        let per = self.lines / n;
        let base = self.base + i * per;
        let lines = if i == n - 1 {
            self.lines - per * (n - 1)
        } else {
            per
        };
        Region { base, lines }
    }

    /// Returns a sub-region of `lines` lines starting `offset` lines in,
    /// wrapping around the region end.
    pub fn window(&self, offset: u64, lines: u64) -> Region {
        let off = offset % self.lines;
        Region {
            base: self.base + off,
            lines: lines.min(self.lines).max(1),
        }
    }
}

/// Parametric data-address pattern within a block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AddressPattern {
    /// Sequential scan over a region with the given stride (in lines),
    /// wrapping. Successive accesses that fall in the same line model
    /// spatial locality with `repeats_per_line > 1`.
    Stream {
        /// Region scanned.
        region: Region,
        /// Stride in lines between successive line advances.
        stride: u64,
        /// Number of accesses issued to each line before advancing.
        repeats_per_line: u32,
        /// Starting offset in lines (lets epochs resume where the previous
        /// one stopped, or stream disjoint slices).
        start: u64,
    },
    /// Uniformly random accesses over a region.
    Random {
        /// Region accessed.
        region: Region,
    },
    /// Two-level working set: with probability `p_hot` access the hot
    /// sub-region (first `hot_lines` of the region), otherwise the remainder.
    Hot {
        /// Region accessed.
        region: Region,
        /// Size of the hot subset in lines.
        hot_lines: u64,
        /// Probability of touching the hot subset.
        p_hot: f64,
    },
}

impl AddressPattern {
    /// Sequential scan of `region` with unit stride.
    pub fn stream(region: Region) -> Self {
        AddressPattern::Stream {
            region,
            stride: 1,
            repeats_per_line: 1,
            start: 0,
        }
    }

    /// Sequential scan of `region` starting at `start` lines in.
    pub fn stream_from(region: Region, start: u64) -> Self {
        AddressPattern::Stream {
            region,
            stride: 1,
            repeats_per_line: 1,
            start,
        }
    }

    /// Sequential scan touching each line `repeats` times (spatial locality).
    pub fn stream_dense(region: Region, repeats: u32) -> Self {
        AddressPattern::Stream {
            region,
            stride: 1,
            repeats_per_line: repeats.max(1),
            start: 0,
        }
    }

    /// Strided scan of `region`.
    pub fn strided(region: Region, stride: u64) -> Self {
        AddressPattern::Stream {
            region,
            stride: stride.max(1),
            repeats_per_line: 1,
            start: 0,
        }
    }

    /// Uniformly random accesses over `region`.
    pub fn random(region: Region) -> Self {
        AddressPattern::Random { region }
    }

    /// Hot/cold working-set mixture.
    pub fn hot(region: Region, hot_lines: u64, p_hot: f64) -> Self {
        AddressPattern::Hot {
            region,
            hot_lines: hot_lines.max(1),
            p_hot: p_hot.clamp(0.0, 1.0),
        }
    }

    /// The region the pattern draws from.
    pub(crate) fn region(&self) -> Region {
        match self {
            AddressPattern::Stream { region, .. }
            | AddressPattern::Random { region }
            | AddressPattern::Hot { region, .. } => *region,
        }
    }

    /// Instantiates the stateful sampler for one block expansion.
    pub(crate) fn sampler(&self) -> AddrSampler {
        // Stream advances are strength-reduced: `(start + pos * stride) %
        // lines` becomes a running offset bumped by the pre-reduced stride
        // with one conditional wrap — the same value without a u64 mod on
        // every access.
        let (cur, stride_r) = match self {
            AddressPattern::Stream {
                region,
                stride,
                start,
                ..
            } => (start % region.lines, stride % region.lines),
            _ => (0, 0),
        };
        AddrSampler {
            pattern: self.clone(),
            cur,
            stride_r,
            rep: 0,
        }
    }
}

/// Stateful address generator for one block expansion.
#[derive(Debug, Clone)]
pub(crate) struct AddrSampler {
    pattern: AddressPattern,
    /// Stream patterns: current offset within the region, already reduced
    /// mod `region.lines`.
    cur: u64,
    /// Stream patterns: stride reduced mod `region.lines`.
    stride_r: u64,
    rep: u32,
}

impl AddrSampler {
    pub(crate) fn next(&mut self, rng: &mut Rng) -> u64 {
        match &self.pattern {
            AddressPattern::Stream {
                region,
                repeats_per_line,
                ..
            } => {
                let line = region.base + self.cur;
                self.rep += 1;
                if self.rep >= *repeats_per_line {
                    self.rep = 0;
                    self.cur += self.stride_r;
                    if self.cur >= region.lines {
                        self.cur -= region.lines;
                    }
                }
                line
            }
            AddressPattern::Random { region } => region.base + rng.next_below(region.lines),
            AddressPattern::Hot {
                region,
                hot_lines,
                p_hot,
            } => {
                let hot = (*hot_lines).min(region.lines);
                if rng.chance(*p_hot) || hot == region.lines {
                    region.base + rng.next_below(hot)
                } else {
                    region.base + hot + rng.next_below(region.lines - hot)
                }
            }
        }
    }
}

/// Parametric branch-outcome pattern for the branch sites of a block.
///
/// The pattern controls the *entropy* of the outcome stream, which in turn
/// controls how predictable the branches are for any history-based predictor
/// — the microarchitecture-independent quantity the RPPM branch model
/// profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BranchPattern {
    /// Loop-style branch: taken `period - 1` times, then not-taken once
    /// (the loop exit). Highly predictable for any predictor with a counter
    /// or short history.
    Loop {
        /// Loop trip count.
        period: u32,
    },
    /// Independent Bernoulli outcomes, taken with probability `p_taken`.
    /// Entropy is H(p); p = 0.5 defeats every predictor.
    Bernoulli {
        /// Probability of "taken".
        p_taken: f64,
    },
    /// Repeating fixed outcome pattern of `len` bits (LSB first). Learnable
    /// by a global-history predictor whose history covers the period.
    Periodic {
        /// Outcome bits, LSB = first outcome.
        bits: u64,
        /// Pattern length in bits (1..=64).
        len: u8,
    },
}

impl BranchPattern {
    /// Loop branch taken `period - 1` out of `period` times.
    pub fn loop_every(period: u32) -> Self {
        BranchPattern::Loop {
            period: period.max(2),
        }
    }

    /// Bernoulli outcomes with the given taken probability.
    pub fn bernoulli(p_taken: f64) -> Self {
        BranchPattern::Bernoulli {
            p_taken: p_taken.clamp(0.0, 1.0),
        }
    }

    /// Repeating `len`-bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 64.
    pub fn periodic(bits: u64, len: u8) -> Self {
        assert!((1..=64).contains(&len), "pattern length must be in 1..=64");
        BranchPattern::Periodic { bits, len }
    }

    pub(crate) fn sampler(&self, phase: u32) -> BranchSampler {
        BranchSampler {
            pattern: self.clone(),
            pos: phase,
        }
    }
}

/// Stateful branch-outcome generator for one branch site.
#[derive(Debug, Clone)]
pub(crate) struct BranchSampler {
    pattern: BranchPattern,
    pos: u32,
}

impl BranchSampler {
    pub(crate) fn next(&mut self, rng: &mut Rng) -> bool {
        match &self.pattern {
            BranchPattern::Loop { period } => {
                let taken = (self.pos % period) != period - 1;
                self.pos = self.pos.wrapping_add(1);
                taken
            }
            BranchPattern::Bernoulli { p_taken } => rng.chance(*p_taken),
            BranchPattern::Periodic { bits, len } => {
                let taken = (bits >> (self.pos % *len as u32)) & 1 == 1;
                self.pos = self.pos.wrapping_add(1);
                taken
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_chunks_partition() {
        let r = Region::new(100, 10);
        let c0 = r.chunk(0, 3);
        let c1 = r.chunk(1, 3);
        let c2 = r.chunk(2, 3);
        assert_eq!(c0, Region::new(100, 3));
        assert_eq!(c1, Region::new(103, 3));
        assert_eq!(c2, Region::new(106, 4)); // remainder absorbed
        assert_eq!(c0.lines + c1.lines + c2.lines, r.lines);
    }

    #[test]
    #[should_panic(expected = "chunk index")]
    fn region_chunk_out_of_range_panics() {
        Region::new(0, 10).chunk(3, 3);
    }

    #[test]
    fn stream_wraps_and_stays_in_region() {
        let r = Region::new(50, 4);
        let mut s = AddressPattern::stream(r).sampler();
        let mut rng = Rng::new(0);
        let seq: Vec<u64> = (0..10).map(|_| s.next(&mut rng)).collect();
        assert_eq!(seq, vec![50, 51, 52, 53, 50, 51, 52, 53, 50, 51]);
    }

    #[test]
    fn stream_dense_repeats_lines() {
        let r = Region::new(0, 8);
        let mut s = AddressPattern::stream_dense(r, 3).sampler();
        let mut rng = Rng::new(0);
        let seq: Vec<u64> = (0..7).map(|_| s.next(&mut rng)).collect();
        assert_eq!(seq, vec![0, 0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn strided_skips_lines() {
        let r = Region::new(0, 16);
        let mut s = AddressPattern::strided(r, 4).sampler();
        let mut rng = Rng::new(0);
        let seq: Vec<u64> = (0..5).map(|_| s.next(&mut rng)).collect();
        assert_eq!(seq, vec![0, 4, 8, 12, 0]);
    }

    #[test]
    fn random_stays_in_region() {
        let r = Region::new(1000, 64);
        let mut s = AddressPattern::random(r).sampler();
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let a = s.next(&mut rng);
            assert!((1000..1064).contains(&a));
        }
    }

    #[test]
    fn hot_pattern_is_biased() {
        let r = Region::new(0, 1000);
        let mut s = AddressPattern::hot(r, 10, 0.9).sampler();
        let mut rng = Rng::new(2);
        let hot_hits = (0..10_000).filter(|_| s.next(&mut rng) < 10).count();
        let frac = hot_hits as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn loop_branch_is_mostly_taken() {
        let mut s = BranchPattern::loop_every(4).sampler(0);
        let mut rng = Rng::new(0);
        let seq: Vec<bool> = (0..8).map(|_| s.next(&mut rng)).collect();
        assert_eq!(seq, vec![true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut s = BranchPattern::bernoulli(0.7).sampler(0);
        let mut rng = Rng::new(3);
        let taken = (0..100_000).filter(|_| s.next(&mut rng)).count();
        let frac = taken as f64 / 100_000.0;
        assert!((frac - 0.7).abs() < 0.01, "taken rate {frac}");
    }

    #[test]
    fn periodic_repeats() {
        // pattern 0b0110 (LSB first): F T T F F T T F ...
        let mut s = BranchPattern::periodic(0b0110, 4).sampler(0);
        let mut rng = Rng::new(0);
        let seq: Vec<bool> = (0..8).map(|_| s.next(&mut rng)).collect();
        assert_eq!(
            seq,
            vec![false, true, true, false, false, true, true, false]
        );
    }

    #[test]
    fn periodic_phase_offsets_start() {
        let mut s = BranchPattern::periodic(0b01, 2).sampler(1);
        let mut rng = Rng::new(0);
        assert!(!s.next(&mut rng)); // position 1 of "10" = 0
        assert!(s.next(&mut rng));
    }

    #[test]
    fn samplers_deterministic() {
        let r = Region::new(0, 100);
        let mk = || {
            let mut s = AddressPattern::hot(r, 5, 0.5).sampler();
            let mut rng = Rng::new(77);
            (0..50).map(|_| s.next(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
