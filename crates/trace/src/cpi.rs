//! Shared CPI-stack vocabulary.
//!
//! Both the golden-reference simulator and the RPPM model report per-thread
//! cycle breakdowns in terms of the same components, mirroring Figure 5 of
//! the paper (base, branch, I-cache, data-memory by level, synchronization).

use serde::{Deserialize, Serialize};

/// Per-thread cycle breakdown (a CPI stack, in absolute cycles).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CpiStack {
    /// Useful dispatch/execution cycles (including ILP and FU limits).
    pub base: f64,
    /// Cycles lost to branch mispredictions (resolution + front-end refill).
    pub branch: f64,
    /// Cycles lost to instruction-cache misses.
    pub icache: f64,
    /// Cycles stalled on loads served by the private L2.
    pub mem_l2: f64,
    /// Cycles stalled on loads served by the shared L3.
    pub mem_l3: f64,
    /// Cycles stalled on loads served by main memory (after MLP overlap).
    pub mem_dram: f64,
    /// Idle cycles waiting on synchronization (barriers, critical sections,
    /// condition variables, joins).
    pub sync: f64,
}

impl CpiStack {
    /// Sum of every component.
    pub fn total(&self) -> f64 {
        self.base
            + self.branch
            + self.icache
            + self.mem_l2
            + self.mem_l3
            + self.mem_dram
            + self.sync
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &CpiStack) {
        self.base += other.base;
        self.branch += other.branch;
        self.icache += other.icache;
        self.mem_l2 += other.mem_l2;
        self.mem_l3 += other.mem_l3;
        self.mem_dram += other.mem_dram;
        self.sync += other.sync;
    }

    /// Returns the stack scaled by `k` (e.g. for normalization).
    pub fn scaled(&self, k: f64) -> CpiStack {
        CpiStack {
            base: self.base * k,
            branch: self.branch * k,
            icache: self.icache * k,
            mem_l2: self.mem_l2 * k,
            mem_l3: self.mem_l3 * k,
            mem_dram: self.mem_dram * k,
            sync: self.sync * k,
        }
    }

    /// Component labels in display order (matches [`CpiStack::values`]).
    pub const LABELS: [&'static str; 7] = [
        "base", "branch", "icache", "mem-L2", "mem-L3", "mem-DRAM", "sync",
    ];

    /// Component values in display order (matches [`CpiStack::LABELS`]).
    pub fn values(&self) -> [f64; 7] {
        [
            self.base,
            self.branch,
            self.icache,
            self.mem_l2,
            self.mem_l3,
            self.mem_dram,
            self.sync,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let s = CpiStack {
            base: 1.0,
            branch: 2.0,
            icache: 3.0,
            mem_l2: 4.0,
            mem_l3: 5.0,
            mem_dram: 6.0,
            sync: 7.0,
        };
        assert!((s.total() - 28.0).abs() < 1e-12);
    }

    #[test]
    fn add_is_componentwise() {
        let mut a = CpiStack {
            base: 1.0,
            ..Default::default()
        };
        let b = CpiStack {
            branch: 2.0,
            sync: 3.0,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.base, 1.0);
        assert_eq!(a.branch, 2.0);
        assert_eq!(a.sync, 3.0);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let s = CpiStack {
            base: 2.0,
            mem_dram: 4.0,
            ..Default::default()
        };
        let t = s.scaled(0.5);
        assert_eq!(t.base, 1.0);
        assert_eq!(t.mem_dram, 2.0);
        assert_eq!(t.total(), 3.0);
    }

    #[test]
    fn labels_match_values_len() {
        let s = CpiStack::default();
        assert_eq!(CpiStack::LABELS.len(), s.values().len());
    }
}
