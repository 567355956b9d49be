//! Target multicore machine description.
//!
//! [`MachineConfig`] is shared by the golden-reference simulator
//! (`rppm-sim`) and the analytical model (`rppm-core`): both consume exactly
//! the same architectural parameters, and nothing else, mirroring the paper's
//! methodology where Sniper and RPPM are configured from the same tables.
//!
//! The five design points of Table IV (constant peak throughput of
//! 10 billion operations per second) are provided via [`DesignPoint`].

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access (hit) latency in cycles.
    pub latency: u32,
}

impl CacheGeometry {
    /// Creates a geometry; sizes in bytes.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the configuration has no sets.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u32, latency: u32) -> Self {
        assert!(size_bytes > 0 && assoc > 0 && line_bytes > 0);
        let g = CacheGeometry {
            size_bytes,
            assoc,
            line_bytes,
            latency,
        };
        assert!(g.sets() > 0, "cache must have at least one set");
        g
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes as u64)
    }

    /// Total capacity in lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }
}

/// Functional-unit (issue-port) counts per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuConfig {
    /// Simple integer ALUs.
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_mul: u32,
    /// Floating-point units (add + mul pipes).
    pub fp: u32,
    /// Load/store ports.
    pub mem: u32,
    /// Branch units.
    pub branch: u32,
}

impl FuConfig {
    /// The standard width-derived port mix used by every Table IV design
    /// point and by the DSE core axis: one ALU per dispatch slot, one
    /// multiplier per three slots, and one FP/memory/branch port per two
    /// slots (each class at least one port).
    pub fn scaled(width: u32) -> Self {
        FuConfig {
            int_alu: width.max(1),
            int_mul: (width / 3).max(1),
            fp: (width / 2).max(1),
            mem: (width / 2).max(1),
            branch: (width / 2).max(1),
        }
    }
}

/// Branch predictor specification (a 4 KB tournament predictor in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchPredictorConfig {
    /// Total 2-bit-counter budget in bytes (split across tables).
    pub size_bytes: u32,
    /// Global-history length in bits used by the gshare component.
    pub history_bits: u32,
}

impl BranchPredictorConfig {
    /// The paper's 4 KB tournament predictor.
    pub fn tournament_4kb() -> Self {
        BranchPredictorConfig {
            size_bytes: 4096,
            history_bits: 12,
        }
    }

    /// Entries per component table (three tables: bimodal, gshare, chooser;
    /// 2-bit counters, so 4 counters per byte).
    pub fn table_entries(&self) -> u32 {
        ((self.size_bytes * 4) / 3).next_power_of_two() / 2
    }
}

/// Full multicore machine description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable configuration name.
    pub name: String,
    /// Core count (RPPM assumes one thread per core).
    pub cores: u32,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Dispatch (front-end) width in micro-ops per cycle.
    pub dispatch_width: u32,
    /// Reorder-buffer capacity in micro-ops.
    pub rob_size: u32,
    /// Issue-queue capacity in micro-ops.
    pub issue_queue: u32,
    /// Front-end pipeline depth: refill penalty after a mispredicted branch,
    /// in cycles.
    pub frontend_depth: u32,
    /// Functional-unit counts.
    pub fu: FuConfig,
    /// Branch predictor.
    pub bpred: BranchPredictorConfig,
    /// Private L1 instruction cache.
    pub l1i: CacheGeometry,
    /// Private L1 data cache.
    pub l1d: CacheGeometry,
    /// Private unified L2.
    pub l2: CacheGeometry,
    /// Shared last-level cache.
    pub l3: CacheGeometry,
    /// Main-memory access latency in nanoseconds (frequency-independent;
    /// the cycle cost scales with `freq_ghz`).
    pub mem_latency_ns: f64,
    /// Miss-status-holding registers per core: bound on overlapping memory
    /// misses (memory-level parallelism).
    pub mshrs: u32,
    /// Extra latency in cycles for a cache line transferred from another
    /// core's private cache (coherence intervention).
    pub coherence_latency: u32,
    /// Fixed cost in cycles of executing a synchronization library call
    /// (lock, unlock, barrier arrival, condition-variable operation).
    pub sync_overhead_cycles: u32,
    /// Latency in cycles from a `pthread_create`-style call to the child
    /// thread starting to execute.
    pub spawn_latency_cycles: u32,
}

impl MachineConfig {
    /// Main-memory latency in cycles at this configuration's frequency.
    pub fn mem_latency_cycles(&self) -> f64 {
        self.mem_latency_ns * self.freq_ghz
    }

    /// Converts a cycle count into seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Peak throughput in micro-ops per second.
    pub fn peak_ops_per_second(&self) -> f64 {
        self.dispatch_width as f64 * self.freq_ghz * 1e9
    }

    /// FU ports available for the given op class.
    pub fn ports_for(&self, class: crate::op::OpClass) -> u32 {
        use crate::op::OpClass;
        match class {
            OpClass::IntAlu => self.fu.int_alu,
            OpClass::IntMul | OpClass::IntDiv => self.fu.int_mul,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => self.fu.fp,
            OpClass::Load | OpClass::Store => self.fu.mem,
            OpClass::Branch => self.fu.branch,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("core count must be positive".into());
        }
        if self.dispatch_width == 0 {
            return Err("dispatch width must be positive".into());
        }
        if self.rob_size < self.dispatch_width {
            return Err("ROB must hold at least one dispatch group".into());
        }
        if self.freq_ghz <= 0.0 {
            return Err("frequency must be positive".into());
        }
        if self.mshrs == 0 {
            return Err("at least one MSHR is required".into());
        }
        if self.l1d.line_bytes != self.l2.line_bytes || self.l2.line_bytes != self.l3.line_bytes {
            return Err("cache levels must share a line size".into());
        }
        Ok(())
    }

    /// Starts a builder seeded from the paper's base configuration with the
    /// given name. Every parameter can then be overridden; [`MachineConfigBuilder::build`]
    /// validates the result (see its docs for the rules) instead of letting
    /// an inconsistent configuration reach the model.
    pub fn builder(name: &str) -> MachineConfigBuilder {
        let mut cfg = DesignPoint::Base.config();
        cfg.name = name.to_string();
        MachineConfigBuilder { cfg }
    }

    /// Reopens this configuration as a builder (e.g. to derive a variant).
    pub fn to_builder(&self) -> MachineConfigBuilder {
        MachineConfigBuilder { cfg: self.clone() }
    }
}

/// Validating constructor for [`MachineConfig`].
///
/// Obtained from [`MachineConfig::builder`] (seeded from the base design
/// point) or [`MachineConfig::to_builder`] (seeded from an existing
/// configuration). Setters override individual parameters;
/// [`MachineConfigBuilder::build`] is the only exit and refuses
/// configurations the engines cannot sensibly run:
///
/// * everything [`MachineConfig::validate`] checks (positive core count,
///   width, frequency, MSHRs; ROB at least one dispatch group; uniform line
///   size across cache levels), plus
/// * nonzero functional-unit counts in every class,
/// * power-of-two cache geometry (line size and set count) at every level,
/// * a nonzero issue queue and branch-predictor budget.
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Sets the configuration name.
    pub fn name(mut self, name: &str) -> Self {
        self.cfg.name = name.to_string();
        self
    }

    /// Sets the core count.
    pub fn cores(mut self, cores: u32) -> Self {
        self.cfg.cores = cores;
        self
    }

    /// Sets the clock frequency in GHz.
    pub fn freq_ghz(mut self, freq_ghz: f64) -> Self {
        self.cfg.freq_ghz = freq_ghz;
        self
    }

    /// Sets the dispatch width **and** rescales the functional-unit mix to
    /// the standard width-derived ports ([`FuConfig::scaled`]). Call
    /// [`MachineConfigBuilder::fu`] afterwards to pin an explicit mix.
    pub fn dispatch_width(mut self, width: u32) -> Self {
        self.cfg.dispatch_width = width;
        self.cfg.fu = FuConfig::scaled(width);
        self
    }

    /// Sets the reorder-buffer capacity.
    pub fn rob_size(mut self, rob: u32) -> Self {
        self.cfg.rob_size = rob;
        self
    }

    /// Sets the issue-queue capacity.
    pub fn issue_queue(mut self, iq: u32) -> Self {
        self.cfg.issue_queue = iq;
        self
    }

    /// Sets the front-end pipeline depth (misprediction refill penalty).
    pub fn frontend_depth(mut self, depth: u32) -> Self {
        self.cfg.frontend_depth = depth;
        self
    }

    /// Pins an explicit functional-unit mix.
    pub fn fu(mut self, fu: FuConfig) -> Self {
        self.cfg.fu = fu;
        self
    }

    /// Sets the branch predictor.
    pub fn bpred(mut self, bpred: BranchPredictorConfig) -> Self {
        self.cfg.bpred = bpred;
        self
    }

    /// Sets the L1 instruction cache geometry.
    pub fn l1i(mut self, g: CacheGeometry) -> Self {
        self.cfg.l1i = g;
        self
    }

    /// Sets the L1 data cache geometry.
    pub fn l1d(mut self, g: CacheGeometry) -> Self {
        self.cfg.l1d = g;
        self
    }

    /// Sets the private L2 geometry.
    pub fn l2(mut self, g: CacheGeometry) -> Self {
        self.cfg.l2 = g;
        self
    }

    /// Sets the shared L3 geometry.
    pub fn l3(mut self, g: CacheGeometry) -> Self {
        self.cfg.l3 = g;
        self
    }

    /// Sets the main-memory latency in nanoseconds.
    pub fn mem_latency_ns(mut self, ns: f64) -> Self {
        self.cfg.mem_latency_ns = ns;
        self
    }

    /// Sets the MSHR count (memory-level-parallelism bound).
    pub fn mshrs(mut self, mshrs: u32) -> Self {
        self.cfg.mshrs = mshrs;
        self
    }

    /// Sets the coherence intervention latency in cycles.
    pub fn coherence_latency(mut self, cycles: u32) -> Self {
        self.cfg.coherence_latency = cycles;
        self
    }

    /// Sets the synchronization-call overhead in cycles.
    pub fn sync_overhead_cycles(mut self, cycles: u32) -> Self {
        self.cfg.sync_overhead_cycles = cycles;
        self
    }

    /// Sets the thread-spawn latency in cycles.
    pub fn spawn_latency_cycles(mut self, cycles: u32) -> Self {
        self.cfg.spawn_latency_cycles = cycles;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency (see the type
    /// docs for the full rule set).
    pub fn build(self) -> Result<MachineConfig, String> {
        let c = self.cfg;
        for (class, ports) in [
            ("int_alu", c.fu.int_alu),
            ("int_mul", c.fu.int_mul),
            ("fp", c.fu.fp),
            ("mem", c.fu.mem),
            ("branch", c.fu.branch),
        ] {
            if ports == 0 {
                return Err(format!(
                    "functional-unit class {class} needs at least one port"
                ));
            }
        }
        if c.issue_queue == 0 {
            return Err("issue queue must be positive".into());
        }
        if c.bpred.size_bytes == 0 {
            return Err("branch predictor budget must be positive".into());
        }
        for (level, g) in [("l1i", c.l1i), ("l1d", c.l1d), ("l2", c.l2), ("l3", c.l3)] {
            if g.size_bytes == 0 || g.assoc == 0 || g.line_bytes == 0 {
                return Err(format!("{level} geometry must be nonzero"));
            }
            if !g.line_bytes.is_power_of_two() {
                return Err(format!(
                    "{level} line size {} is not a power of two",
                    g.line_bytes
                ));
            }
            let sets = g.sets();
            if sets == 0 || !sets.is_power_of_two() {
                return Err(format!(
                    "{level} has {sets} sets ({} B / ({} ways × {} B lines)): \
                     set count must be a nonzero power of two",
                    g.size_bytes, g.assoc, g.line_bytes
                ));
            }
        }
        c.validate()?;
        Ok(c)
    }
}

/// The five design points of Table IV.
///
/// All five deliver the same peak performance (10 billion operations per
/// second): frequency shrinks as the pipeline widens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignPoint {
    /// 5.00 GHz, 2-wide, 32-entry ROB.
    Smallest,
    /// 3.33 GHz, 3-wide, 72-entry ROB.
    Small,
    /// 2.50 GHz, 4-wide, 128-entry ROB (the paper's base configuration).
    Base,
    /// 2.00 GHz, 5-wide, 200-entry ROB.
    Big,
    /// 1.66 GHz, 6-wide, 288-entry ROB.
    Biggest,
}

impl DesignPoint {
    /// All design points, smallest to biggest.
    pub const ALL: [DesignPoint; 5] = [
        DesignPoint::Smallest,
        DesignPoint::Small,
        DesignPoint::Base,
        DesignPoint::Big,
        DesignPoint::Biggest,
    ];

    /// Materializes the configuration for a quad-core machine (the paper's
    /// evaluation setup).
    pub fn config(self) -> MachineConfig {
        self.config_with_cores(4)
    }

    /// The point's name: `smallest`, `small`, `base`, `big` or `biggest`.
    fn name(self) -> &'static str {
        match self {
            DesignPoint::Smallest => "smallest",
            DesignPoint::Small => "small",
            DesignPoint::Base => "base",
            DesignPoint::Big => "big",
            DesignPoint::Biggest => "biggest",
        }
    }

    /// Materializes the configuration with an arbitrary core count.
    pub fn config_with_cores(self, cores: u32) -> MachineConfig {
        let (freq, width, rob, iq) = match self {
            DesignPoint::Smallest => (5.00, 2u32, 32u32, 16u32),
            DesignPoint::Small => (3.33, 3, 72, 36),
            DesignPoint::Base => (2.50, 4, 128, 64),
            DesignPoint::Big => (2.00, 5, 200, 100),
            DesignPoint::Biggest => (1.66, 6, 288, 144),
        };
        MachineConfig {
            name: self.name().to_string(),
            cores,
            freq_ghz: freq,
            dispatch_width: width,
            rob_size: rob,
            issue_queue: iq,
            frontend_depth: 6,
            fu: FuConfig::scaled(width),
            bpred: BranchPredictorConfig::tournament_4kb(),
            l1i: CacheGeometry::new(32 * 1024, 4, 64, 3),
            l1d: CacheGeometry::new(32 * 1024, 4, 64, 3),
            l2: CacheGeometry::new(256 * 1024, 8, 64, 12),
            l3: CacheGeometry::new(8 * 1024 * 1024, 16, 64, 35),
            mem_latency_ns: 80.0,
            mshrs: 10,
            coherence_latency: 40,
            sync_overhead_cycles: 40,
            spawn_latency_cycles: 1500,
        }
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DesignPoint {
    type Err = String;

    /// Parses a design point by its name; the error lists every name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DesignPoint::ALL
            .into_iter()
            .find(|d| d.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = DesignPoint::ALL.iter().map(|d| d.name()).collect();
                format!(
                    "unknown design point `{s}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_design_points_validate() {
        for dp in DesignPoint::ALL {
            let c = dp.config();
            assert!(c.validate().is_ok(), "{dp} invalid");
        }
    }

    #[test]
    fn design_points_parse_by_name() {
        for dp in DesignPoint::ALL {
            assert_eq!(dp.to_string().parse::<DesignPoint>(), Ok(dp));
            assert_eq!(dp.config().name, dp.to_string());
        }
        assert_eq!(
            "huge".parse::<DesignPoint>(),
            Err(
                "unknown design point `huge` (expected one of smallest, small, base, big, biggest)"
                    .to_string()
            )
        );
    }

    #[test]
    fn peak_throughput_is_constant_across_design_points() {
        // Table IV: every configuration can execute 10 G ops/s (±1% for the
        // rounded 3.33/1.66 GHz figures).
        for dp in DesignPoint::ALL {
            let c = dp.config();
            let peak = c.peak_ops_per_second();
            assert!((peak - 1e10).abs() / 1e10 < 0.01, "{dp}: peak {peak}");
        }
    }

    #[test]
    fn base_matches_table_iv() {
        let c = DesignPoint::Base.config();
        assert_eq!(c.dispatch_width, 4);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.issue_queue, 64);
        assert!((c.freq_ghz - 2.5).abs() < 1e-9);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.assoc, 4);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.l3.assoc, 16);
        assert_eq!(c.bpred.size_bytes, 4096);
        assert_eq!(c.cores, 4);
    }

    #[test]
    fn mem_latency_scales_with_frequency() {
        let fast = DesignPoint::Smallest.config();
        let slow = DesignPoint::Biggest.config();
        assert!(fast.mem_latency_cycles() > slow.mem_latency_cycles());
        assert!((fast.mem_latency_cycles() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_to_seconds_inverts_frequency() {
        let c = DesignPoint::Base.config();
        let s = c.cycles_to_seconds(2.5e9);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cache_geometry_sets_and_lines() {
        let g = CacheGeometry::new(32 * 1024, 4, 64, 3);
        assert_eq!(g.sets(), 128);
        assert_eq!(g.lines(), 512);
    }

    #[test]
    #[should_panic]
    fn zero_size_cache_panics() {
        CacheGeometry::new(0, 4, 64, 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = DesignPoint::Base.config();
        c.mshrs = 0;
        assert!(c.validate().is_err());

        let mut c = DesignPoint::Base.config();
        c.rob_size = 1;
        assert!(c.validate().is_err());

        let mut c = DesignPoint::Base.config();
        c.l2.line_bytes = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn predictor_tables_are_pow2() {
        let b = BranchPredictorConfig::tournament_4kb();
        let e = b.table_entries();
        assert!(e.is_power_of_two());
        assert!(e >= 1024);
    }

    #[test]
    fn ports_for_covers_all_classes() {
        use crate::op::OpClass;
        let c = DesignPoint::Base.config();
        for class in OpClass::ALL {
            assert!(c.ports_for(class) >= 1);
        }
    }

    #[test]
    fn builder_reproduces_design_points() {
        // Rebuilding each preset through the builder (same parameters) is
        // the identity — the builder adds validation, not behaviour.
        for dp in DesignPoint::ALL {
            let c = dp.config();
            assert_eq!(c.to_builder().build().expect("preset validates"), c);
        }
        let derived = MachineConfig::builder("wide")
            .dispatch_width(6)
            .rob_size(288)
            .issue_queue(144)
            .freq_ghz(1.66)
            .build()
            .expect("valid");
        assert_eq!(derived.name, "wide");
        assert_eq!(derived.fu, FuConfig::scaled(6));
        assert_eq!(derived.l1d, DesignPoint::Base.config().l1d);
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        // Non-power-of-two set count.
        let bad = MachineConfig::builder("bad").l1d(CacheGeometry {
            size_bytes: 48 * 1024,
            assoc: 4,
            line_bytes: 64,
            latency: 3,
        });
        let err = bad.build().unwrap_err();
        assert!(err.contains("power of two"), "{err}");

        let err = MachineConfig::builder("bad")
            .fu(FuConfig {
                int_alu: 4,
                int_mul: 0,
                fp: 2,
                mem: 2,
                branch: 2,
            })
            .build()
            .unwrap_err();
        assert!(err.contains("int_mul"), "{err}");

        // The base validate() rules still apply through the builder.
        let err = MachineConfig::builder("bad").mshrs(0).build().unwrap_err();
        assert!(err.contains("MSHR"), "{err}");
    }

    #[test]
    fn scaled_fu_matches_table_iv_derivation() {
        for dp in DesignPoint::ALL {
            let c = dp.config();
            assert_eq!(c.fu, FuConfig::scaled(c.dispatch_width));
        }
    }

    #[test]
    fn serde_round_trip() {
        let c = DesignPoint::Big.config();
        let json = serde_json::to_string(&c).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
