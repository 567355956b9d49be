//! Multicore memory hierarchy with write-invalidate coherence.
//!
//! Per core: L1I + L1D + unified-latency L2 (private). Shared, inclusive L3.
//! A full-map directory tracks which cores may hold each line in their
//! private hierarchy; writes invalidate remote copies (MESI-equivalent
//! timing without transient states). A read that hits a remote core's dirty
//! copy is served by cache-to-cache intervention at `l3 + coherence` cycles.

use crate::cache::SetAssocCache;
use rppm_trace::MachineConfig;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for the directory's u64 line keys (the Fx/rustc
/// construction). The directory sits on the L2-miss path of every data
/// access; SipHash was a measurable fraction of simulation time, and map
/// *order* is never observed — only point lookups — so a weaker, faster
/// hash changes nothing observable.
#[derive(Debug, Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Where a data access was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Private L1 data cache hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared L3 hit.
    L3,
    /// Cache-to-cache transfer from another core's private cache.
    Remote,
    /// Main memory.
    Dram,
}

#[derive(Debug, Default, Clone)]
struct DirEntry {
    /// Bitmask of cores that may hold the line privately.
    holders: u8,
    /// Core holding a modified copy, if any.
    dirty_owner: Option<u8>,
}

/// Per-core memory statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemStats {
    /// Data accesses (loads + stores).
    pub accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses (DRAM accesses).
    pub l3_misses: u64,
    /// Accesses served by a remote private cache.
    pub remote_hits: u64,
    /// Invalidations received (lines stolen by remote writers).
    pub invalidations: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// Instruction fetch line transitions (L1I lookups).
    pub ifetches: u64,
}

/// The shared multicore memory system.
#[derive(Debug)]
pub struct MemorySystem {
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
    directory: LineMap<DirEntry>,
    stats: Vec<MemStats>,
    lat_l1: f64,
    lat_l2: f64,
    lat_l3: f64,
    lat_remote: f64,
    lat_mem: f64,
}

impl MemorySystem {
    /// Creates the hierarchy for `config` with one private hierarchy per
    /// core.
    pub fn new(config: &MachineConfig) -> Self {
        Self::with_cores(config, config.cores as usize)
    }

    /// Creates the hierarchy with an explicit number of private hierarchies
    /// (used when a quiescent extra main thread is tolerated, the Parsec
    /// spawn pattern).
    pub fn with_cores(config: &MachineConfig, n: usize) -> Self {
        MemorySystem {
            l1i: (0..n).map(|_| SetAssocCache::new(&config.l1i)).collect(),
            l1d: (0..n).map(|_| SetAssocCache::new(&config.l1d)).collect(),
            l2: (0..n).map(|_| SetAssocCache::new(&config.l2)).collect(),
            l3: SetAssocCache::new(&config.l3),
            directory: LineMap::default(),
            stats: vec![MemStats::default(); n],
            lat_l1: config.l1d.latency as f64,
            lat_l2: config.l2.latency as f64,
            lat_l3: config.l3.latency as f64,
            lat_remote: (config.l3.latency + config.coherence_latency) as f64,
            lat_mem: config.l3.latency as f64 + config.mem_latency_cycles(),
        }
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> &MemStats {
        &self.stats[core]
    }

    /// Invalidate `line` in every private cache except `keep`, updating the
    /// directory. Returns how many cores lost a copy.
    fn invalidate_others(&mut self, line: u64, keep: usize) -> u32 {
        let Some(entry) = self.directory.get_mut(&line) else {
            return 0;
        };
        let mut stolen = 0;
        let holders = entry.holders;
        entry.holders &= 1 << keep;
        entry.dirty_owner = None;
        for c in 0..self.l1d.len() {
            if c != keep && holders & (1 << c) != 0 {
                let a = self.l1d[c].invalidate(line);
                let b = self.l2[c].invalidate(line);
                if a || b {
                    self.stats[c].invalidations += 1;
                    stolen += 1;
                }
            }
        }
        stolen
    }

    /// Directory update for a write by `core`: claim exclusive dirty
    /// ownership, invalidating every other holder's private copies. One
    /// hash lookup — state-equivalent to [`MemorySystem::invalidate_others`]
    /// followed by an `entry(line)` holder/dirty-owner update.
    fn claim_for_write(&mut self, line: u64, core: usize) {
        let e = self.directory.entry(line).or_default();
        let holders = e.holders;
        e.holders = 1 << core;
        e.dirty_owner = Some(core as u8);
        let others = holders & !(1u8 << core);
        if others != 0 {
            for c in 0..self.l1d.len() {
                if others & (1 << c) != 0 {
                    let a = self.l1d[c].invalidate(line);
                    let b = self.l2[c].invalidate(line);
                    if a || b {
                        self.stats[c].invalidations += 1;
                    }
                }
            }
        }
    }

    /// Performs a data access by `core` to `line`.
    ///
    /// Returns the load-to-use latency in cycles and the level that serviced
    /// the request. Stores update coherence state but their latency is
    /// hidden by the store buffer (the core model ignores it).
    pub fn access(&mut self, core: usize, line: u64, is_write: bool) -> (f64, ServiceLevel) {
        self.stats[core].accesses += 1;

        // L1D.
        let (l1_hit, _) = self.l1d[core].access(line, is_write);
        if l1_hit {
            if is_write {
                self.claim_for_write(line, core);
            }
            return (self.lat_l1, ServiceLevel::L1);
        }
        self.stats[core].l1d_misses += 1;

        // L2 (private). Maintain L1 inclusivity on L2 evictions.
        let (l2_hit, l2_evicted) = self.l2[core].access(line, is_write);
        if let Some(ev) = l2_evicted {
            self.l1d[core].invalidate(ev);
            if let Some(e) = self.directory.get_mut(&ev) {
                e.holders &= !(1 << core);
                if e.dirty_owner == Some(core as u8) {
                    e.dirty_owner = None; // written back to L3
                }
            }
        }
        if l2_hit {
            if is_write {
                self.claim_for_write(line, core);
            }
            return (self.lat_l2, ServiceLevel::L2);
        }
        self.stats[core].l2_misses += 1;

        // Beyond the private hierarchy: consult the directory first.
        let remote_dirty = self
            .directory
            .get(&line)
            .and_then(|e| e.dirty_owner)
            .filter(|&o| o as usize != core);

        let (latency, level) = if let Some(owner) = remote_dirty {
            // Cache-to-cache intervention. On a read the owner's copy is
            // downgraded (clean, shared); on a write it is invalidated.
            if is_write {
                self.invalidate_others(line, core);
            } else if let Some(e) = self.directory.get_mut(&line) {
                e.dirty_owner = None;
            }
            let _ = owner;
            self.stats[core].remote_hits += 1;
            // Written-back data now lives in L3 too.
            self.l3.access(line, false);
            (self.lat_remote, ServiceLevel::Remote)
        } else {
            let (l3_hit, l3_evicted) = self.l3.access(line, is_write);
            if let Some(ev) = l3_evicted {
                // Inclusive LLC: back-invalidate everywhere.
                for c in 0..self.l1d.len() {
                    self.l1d[c].invalidate(ev);
                    self.l2[c].invalidate(ev);
                }
                self.directory.remove(&ev);
            }
            if l3_hit {
                (self.lat_l3, ServiceLevel::L3)
            } else {
                self.stats[core].l3_misses += 1;
                (self.lat_mem, ServiceLevel::Dram)
            }
        };

        // Fill the private hierarchy and update the directory.
        if is_write {
            self.claim_for_write(line, core);
        } else {
            let e = self.directory.entry(line).or_default();
            e.holders |= 1 << core;
        }
        self.l1d[core].access(line, is_write);

        (latency, level)
    }

    /// Performs an instruction fetch of `code_line` by `core`.
    ///
    /// Returns the added front-end stall in cycles (0 on an L1I hit).
    /// Instruction lines are read-only; misses are refilled at L2 latency
    /// (instruction footprints in this suite always fit in L2 — see
    /// DESIGN.md).
    pub fn icache_access(&mut self, core: usize, code_line: u64) -> f64 {
        self.stats[core].ifetches += 1;
        let (hit, _) = self.l1i[core].access(code_line, false);
        if hit {
            0.0
        } else {
            self.stats[core].l1i_misses += 1;
            self.lat_l2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::DesignPoint;

    fn mem() -> MemorySystem {
        MemorySystem::new(&DesignPoint::Base.config())
    }

    #[test]
    fn cold_access_goes_to_dram() {
        let mut m = mem();
        let (lat, level) = m.access(0, 42, false);
        assert_eq!(level, ServiceLevel::Dram);
        assert!(lat > 200.0, "{lat}");
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = mem();
        m.access(0, 42, false);
        let (lat, level) = m.access(0, 42, false);
        assert_eq!(level, ServiceLevel::L1);
        assert!((lat - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sharing_read_hits_l3() {
        let mut m = mem();
        m.access(0, 42, false); // core 0 brings it in
        let (_, level) = m.access(1, 42, false); // core 1 reads it
        assert_eq!(level, ServiceLevel::L3);
    }

    #[test]
    fn remote_dirty_line_is_intervened() {
        let mut m = mem();
        m.access(0, 42, true); // core 0 writes (dirty)
        let (lat, level) = m.access(1, 42, false);
        assert_eq!(level, ServiceLevel::Remote);
        assert!(lat > 35.0);
        // After the intervention the line is clean-shared: core 1 hits L1.
        let (_, l2) = m.access(1, 42, false);
        assert_eq!(l2, ServiceLevel::L1);
    }

    #[test]
    fn write_invalidates_remote_copies() {
        let mut m = mem();
        m.access(0, 42, false);
        m.access(1, 42, false); // both cores now hold the line
        m.access(1, 42, false); // L1 hit for core 1
        m.access(0, 42, true); // core 0 writes: invalidates core 1
        let (_, level) = m.access(1, 42, false);
        assert_ne!(level, ServiceLevel::L1, "core 1's copy must be gone");
        assert_eq!(m.stats(1).invalidations, 1);
    }

    #[test]
    fn write_write_ping_pong() {
        let mut m = mem();
        for i in 0..10 {
            let c = i % 2;
            let (_, level) = m.access(c, 7, true);
            if i >= 2 {
                assert_eq!(level, ServiceLevel::Remote, "iteration {i}");
            }
        }
        assert!(m.stats(0).invalidations >= 4);
        assert!(m.stats(1).invalidations >= 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = DesignPoint::Base.config();
        let mut m = MemorySystem::new(&cfg);
        let l1_lines = cfg.l1d.lines();
        // Touch line 0, then sweep enough lines to evict it from L1 but not
        // from the much larger L2.
        m.access(0, 0, false);
        for l in 1..=l1_lines * 2 {
            m.access(0, l, false);
        }
        let (_, level) = m.access(0, 0, false);
        assert_eq!(level, ServiceLevel::L2);
    }

    #[test]
    fn icache_miss_then_hit() {
        let mut m = mem();
        assert!(m.icache_access(0, 5) > 0.0);
        assert_eq!(m.icache_access(0, 5), 0.0);
        assert_eq!(m.stats(0).l1i_misses, 1);
        assert_eq!(m.stats(0).ifetches, 2);
    }

    #[test]
    fn stats_track_miss_levels() {
        let mut m = mem();
        m.access(0, 1, false); // dram
        m.access(0, 1, false); // l1
        m.access(1, 1, false); // l3
        let s0 = m.stats(0);
        assert_eq!(s0.accesses, 2);
        assert_eq!(s0.l1d_misses, 1);
        assert_eq!(s0.l3_misses, 1);
        let s1 = m.stats(1);
        assert_eq!(s1.l1d_misses, 1);
        assert_eq!(s1.l3_misses, 0);
    }
}
