//! Equation 1: per-epoch active execution time.
//!
//! ```text
//! C = N/Deff                                   (base)
//!   + m_bpred · (c_res + c_fr)                 (branch)
//!   + Σ m_IL_i · c_L(i+1)                      (I-cache)
//!   + m_LLC · c_mem / MLP                      (D-cache)
//! ```
//!
//! All inputs come from the microarchitecture-independent profile; all
//! machine parameters come from [`MachineConfig`]. Three mechanisms mirror
//! the structure of the paper's model:
//!
//! * **Mid-level cache latencies fold into `Deff`.** The profile carries
//!   ILP curves parameterized by load latency; at prediction time the
//!   expected per-load latency (from StatStack's miss rates: L1/L2/L3 hits,
//!   coherence interventions) selects the effective curve. This is why
//!   Equation 1 has no explicit L2/L3 terms. For CPI-stack reporting the
//!   induced slowdown over the nominal-latency curve is attributed to the
//!   `mem_l2`/`mem_l3` components.
//! * **Mispredictions truncate the effective window.** The distance to the
//!   next mispredicted branch bounds the useful instruction window for both
//!   ILP and MLP (speculation cannot proceed past an unresolved mispredicted
//!   branch).
//! * **Branch resolution time is memory-aware.** A mispredicted branch
//!   whose backward slice contains loads resolves only after those loads
//!   complete; the profile records the loads on the critical path feeding
//!   branches, and each contributes its expected cache latency to `c_res`.
//!   DRAM misses consumed this way are removed from the D-cache component
//!   (they overlap, as in Eyerman et al.'s interval analysis).
//!
//! # One arithmetic body, one rate provider
//!
//! [`predict_epoch_rated`] is Equation 1 downstream of the StatStack and
//! branch-model queries. Every prediction reaches it through the one
//! evaluator, [`crate::BatchedEq1`], over a [`crate::PreparedProfile`]: the
//! preparation builds the stack-distance models once per distinct epoch
//! and keeps their answers as one column per distinct cache geometry and
//! predictor, which every evaluator reads. [`predict_epoch`] is the naive reference: it builds
//! fresh models for one epoch and feeds the same body, so the
//! differential suites can compare every path against it bit for bit.
//! Both interpolate the epoch's ILP/MLP curves through
//! [`EpochProfile::ilp_at`] / [`EpochProfile::mlp_at`] with the grid's
//! logarithms ([`GridLogs`]) taken once per caller. The calibration
//! [`Knobs`] are always an explicit argument; the model reads no
//! environment.

use rppm_profiler::{EpochProfile, GridLogs};
use rppm_statstack::StackDistanceModel;
use rppm_trace::{CpiStack, MachineConfig, OpClass};

/// Prediction for one epoch of one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochPrediction {
    /// Predicted active execution cycles.
    pub cycles: f64,
    /// Component breakdown (sync is always 0 here; it is added by the
    /// symbolic execution).
    pub stack: CpiStack,
    /// Effective dispatch rate used for the base component.
    pub deff: f64,
    /// Predicted mispredicted branches.
    pub mispredicts: f64,
    /// Predicted loads served by DRAM.
    pub dram_misses: f64,
    /// Predicted memory-level parallelism for DRAM misses.
    pub mlp: f64,
}

/// Calibration knobs of Equation 1.
///
/// [`Knobs::default`] holds the calibrated constants every prediction
/// uses; the ablation report evaluates other values through
/// [`crate::PreparedProfile::with_knobs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Path-selection factor for memory-aware branch resolution
    /// (default 3.0).
    pub kappa: f64,
    /// Effective-MLP utilization factor (default 0.85).
    pub mlp_eff: f64,
    /// MSHR-capacity fraction usable by overlapping misses (default 0.75).
    pub mlp_cap: f64,
    /// Disable the in-order retirement-exposure term (ablation only).
    pub no_exposure: bool,
    /// Disable the dependence-chain lower bound (ablation only).
    pub no_chain_bound: bool,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            kappa: 3.0,
            mlp_eff: 0.85,
            mlp_cap: 0.75,
            no_exposure: false,
            no_chain_bound: false,
        }
    }
}

/// Raw per-epoch StatStack / branch-model outputs for one configuration.
///
/// These are the *unclamped* model queries; [`predict_epoch_rated`] applies
/// the level-to-level monotonicity clamps (`r2 ≤ r1`, `r3 ≤ r2`) itself so
/// that providers can memoize each query independently of the others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRates {
    /// Private-histogram miss rate at the L1D geometry.
    pub r1: f64,
    /// Private-histogram miss rate at the L2 geometry (unclamped).
    pub r2: f64,
    /// LLC miss rate at the L3 geometry (global histogram for the RPPM
    /// model, private histogram for the isolated MAIN/CRIT variant;
    /// unclamped).
    pub r3: f64,
    /// Instruction-line miss rate at the L1I geometry.
    pub l1i: f64,
    /// Branch-predictor miss rate.
    pub bmiss: f64,
}

/// An all-zero prediction for an empty epoch (MLP floor of 1.0).
pub(crate) fn empty_epoch_prediction() -> EpochPrediction {
    EpochPrediction {
        mlp: 1.0,
        ..Default::default()
    }
}

/// Equation 1 downstream of the StatStack/branch-model queries: the one
/// arithmetic body every prediction path shares.
///
/// `epoch.ops` must be nonzero (callers handle the empty-epoch early
/// return). `logs` serves the epoch's ILP/MLP interpolations and `rates`
/// holds the raw model queries for this `(epoch, config)` cell; `knobs`
/// carries the calibration constants.
pub fn predict_epoch_rated(
    epoch: &EpochProfile,
    config: &MachineConfig,
    logs: &GridLogs,
    rates: RawRates,
    knobs: &Knobs,
) -> EpochPrediction {
    let n = epoch.ops as f64;
    let loads = epoch.loads() as f64;

    // --- Cache miss rates (StatStack, multi-threaded extension). ---
    let r1 = rates.r1;
    let r2 = rates.r2.min(r1);
    // Shared LLC: global (interleaved) reuse distances capture inter-thread
    // interference, positive and negative. Coherence-invalidated reuses are
    // "always miss" in the private histograms but typically hit the shared
    // LLC or a remote cache, so they surface as (r2 - r3) traffic.
    let r3 = rates.r3.min(r2);

    let lat_l1 = OpClass::Load.latency() as f64;
    let lat_l2 = config.l2.latency as f64;
    // L2 misses that stay on chip are served by the LLC or, for
    // coherence-invalidated lines, by a remote private cache (intervention).
    let inval_frac = {
        let t = epoch.private_rd.total();
        if t == 0 {
            0.0
        } else {
            epoch.private_rd.invalidated as f64 / t as f64
        }
    };
    let onchip = (r2 - r3).max(1e-12);
    let remote_share = (inval_frac / onchip).clamp(0.0, 1.0);
    let lat_l3 = config.l3.latency as f64 + remote_share * config.coherence_latency as f64;
    let c_mem = config.l3.latency as f64 + config.mem_latency_cycles();

    // Expected on-chip load latency (DRAM handled separately below).
    let l_eff = lat_l1 + (r1 - r2) * (lat_l2 - lat_l1) + (r2 - r3) * (lat_l3 - lat_l1);

    // --- Branch component (memory-aware resolution). ---
    let mispredicts = rates.bmiss * epoch.branches() as f64;
    // Loads on the critical path feeding a branch each contribute their
    // expected extra latency; a DRAM miss on that path stalls resolution for
    // the full memory latency.
    let extra_per_load =
        (r1 - r2) * (lat_l2 - lat_l1) + (r2 - r3) * (lat_l3 - lat_l1) + r3 * (c_mem - lat_l1);
    // Path-selection factor: the realized critical path to a branch is the
    // *maximum* over many dependence paths, which systematically exceeds
    // the single memory-weighted path evaluated at expected latencies
    // (E[max] > max E). Calibrated once against the reference simulator.
    let c_res = epoch.branch_depth.max(OpClass::Branch.latency() as f64)
        + knobs.kappa * epoch.branch_slice_loads * extra_per_load;
    let branch = mispredicts * (c_res + config.frontend_depth as f64);

    // --- Effective window. Speculation cannot pass an unresolved
    // mispredicted branch, but only *memory-bound* resolutions actually
    // drain the pipeline (short resolutions stall the front-end briefly
    // while the ROB backlog keeps executing). Scale the truncation by the
    // probability that a mispredict's slice chains through DRAM. ---
    let p_long = (epoch.branch_slice_loads * r3).min(1.0);
    let long_mispredicts = mispredicts * p_long;
    let ops_per_drain = if long_mispredicts > 0.5 {
        n / long_mispredicts
    } else {
        f64::INFINITY
    };
    let w_eff = (config.rob_size as f64).min(ops_per_drain).max(8.0) as u32;

    // --- Base: effective dispatch rate at the effective load latency. ---
    let width = config.dispatch_width as f64;
    let ilp_nominal = epoch.ilp_at(logs, w_eff, lat_l1).unwrap_or(f64::INFINITY);
    let ilp_eff = epoch.ilp_at(logs, w_eff, l_eff).unwrap_or(f64::INFINITY);
    // Functional-unit throughput limit: the tightest ports/mix ratio,
    // grouping classes that share an issue-port pool.
    let mut pool_frac = [0.0f64; rppm_trace::op::NUM_PORT_POOLS];
    let mut pool_ports = [1.0f64; rppm_trace::op::NUM_PORT_POOLS];
    for class in OpClass::ALL {
        pool_frac[class.port_pool()] += epoch.mix_fraction(class);
        pool_ports[class.port_pool()] = config.ports_for(class) as f64;
    }
    let mut fu_limit = f64::INFINITY;
    for (frac, ports) in pool_frac.iter().zip(&pool_ports) {
        if *frac > 0.0 {
            fu_limit = fu_limit.min(ports / frac);
        }
    }
    let deff = width.min(ilp_eff).min(fu_limit).max(0.1);
    let deff_nominal = width.min(ilp_nominal).min(fu_limit).max(0.1);
    let cycles_eff = n / deff;
    let base = n / deff_nominal;
    // Slowdown induced by on-chip load latencies through dependence chains,
    // attributed to the memory components for CPI-stack reporting (split by
    // latency contribution).
    let mid_extra = (cycles_eff - base).max(0.0);
    let w_l2 = (r1 - r2) * (lat_l2 - lat_l1);
    let w_l3 = (r2 - r3) * (lat_l3 - lat_l1);
    let (chain_l2, chain_l3) = if w_l2 + w_l3 > 0.0 {
        (
            mid_extra * w_l2 / (w_l2 + w_l3),
            mid_extra * w_l3 / (w_l2 + w_l3),
        )
    } else {
        (0.0, 0.0)
    };
    // In-order retirement exposure: even fully independent loads stall the
    // window when their latency exceeds what the ROB can buffer
    // (`w_eff/Deff` cycles of run-ahead). Each window containing at least
    // one such load pays the exposure once (its peers overlap under it).
    let loads_per_window = (loads / n) * w_eff as f64;
    let windows = n / w_eff as f64;
    let drain = w_eff as f64 / deff_nominal;
    let expose = |rate: f64, lat: f64| -> f64 {
        let per_window = rate * loads_per_window;
        let exposure = (lat - drain).max(0.0);
        windows * exposure * (1.0 - (-per_window).exp())
    };
    // (`knobs.no_exposure` disables the retirement-exposure term — ablation
    // only.)
    let win_l2 = if knobs.no_exposure {
        0.0
    } else {
        expose(r1 - r2, lat_l2)
    };
    let win_l3 = if knobs.no_exposure {
        0.0
    } else {
        expose(r2 - r3, lat_l3)
    };
    // The chain-induced and retirement-induced stalls overlap; count the
    // larger per level.
    let mem_l2 = chain_l2.max(win_l2);
    let mem_l3 = chain_l3.max(win_l3);

    // --- I-cache component. ---
    let l1i_misses = rates.l1i * epoch.code_fetches as f64;
    let icache = l1i_misses * config.l2.latency as f64;

    // --- D-cache DRAM component with MLP overlap. ---
    let dram_misses = r3 * loads;
    // Misses on mispredicted-branch slices are already paid for in the
    // branch component (the events overlap).
    let dram_in_branch = mispredicts * epoch.branch_slice_loads * r3;
    let dram_eff = (dram_misses - dram_in_branch).max(0.0);
    let p_dram = if loads > 0.0 {
        (dram_misses / loads).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let indep = epoch.mlp_at(logs, w_eff).unwrap_or(0.0);
    // Effective MSHR utilization: issue-port and dispatch gaps keep the
    // overlap below the ideal independent-miss count (calibrated once
    // against the reference simulator). The cap is at least one miss in
    // flight: a single MSHR allows no overlap, not less than none.
    let mlp_cap = (knobs.mlp_cap * config.mshrs as f64).max(1.0);
    let mlp = (knobs.mlp_eff * (1.0 + indep * p_dram)).clamp(1.0, mlp_cap);
    let mem_dram_raw = dram_eff * c_mem / mlp;
    // Misses *independent* of a mispredicted branch's slice still overlap
    // with its resolution stall (the window keeps servicing them while the
    // front-end is squashed). Credit that overlap: up to the branch
    // component's memory portion, scaled by the fraction of window loads
    // that are independent.
    let branch_mem_time = mispredicts * epoch.branch_slice_loads * extra_per_load;
    let f_indep = if loads_per_window > 0.0 {
        (indep / loads_per_window).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mem_dram = (mem_dram_raw - branch_mem_time * f_indep).max(0.0);

    let mut stack = CpiStack {
        base,
        branch,
        icache,
        mem_l2,
        mem_l3,
        mem_dram,
        sync: 0.0,
    };

    // Chain bound: the epoch can never run faster than its data-dependence
    // critical path evaluated with the *expected* load latency including
    // DRAM misses. Pointer-chasing code (serialized misses spanning window
    // boundaries) is governed by this bound rather than by the additive
    // components; any excess is memory time. (`knobs.no_chain_bound`
    // disables it — ablation only.)
    let l_chain = l_eff + r3 * (c_mem - lat_l1);
    if knobs.no_chain_bound {
        return EpochPrediction {
            cycles: stack.total(),
            stack,
            deff,
            mispredicts,
            dram_misses,
            mlp,
        };
    }
    if let Some(ilp_chain) = epoch.ilp_at(logs, w_eff, l_chain) {
        let chain_cycles = n / ilp_chain.min(deff_nominal).max(0.05);
        let total = stack.total();
        if chain_cycles > total {
            stack.mem_dram += chain_cycles - total;
        }
    }

    EpochPrediction {
        cycles: stack.total(),
        stack,
        deff,
        mispredicts,
        dram_misses,
        mlp,
    }
}

/// Predicts the active execution time of one epoch on `config` from
/// scratch: fresh stack-distance models, then [`predict_epoch_rated`].
///
/// This is the naive per-epoch reference the differential suites compare
/// the prepared and batched paths against; predictions go through
/// [`crate::PreparedProfile`], which builds each distinct epoch's models
/// once.
pub fn predict_epoch(
    epoch: &EpochProfile,
    config: &MachineConfig,
    knobs: &Knobs,
) -> EpochPrediction {
    if epoch.ops == 0 {
        return empty_epoch_prediction();
    }
    let priv_model = StackDistanceModel::new(&epoch.private_rd);
    let glob_model = StackDistanceModel::new(&epoch.global_rd);
    let icache_model = StackDistanceModel::new(&epoch.icache_rd);
    let rates = RawRates {
        r1: priv_model.miss_rate_geom(&config.l1d),
        r2: priv_model.miss_rate_geom(&config.l2),
        r3: glob_model.miss_rate_geom(&config.l3),
        l1i: icache_model.miss_rate_geom(&config.l1i),
        bmiss: rppm_branch_model::predict_miss_rate(&epoch.branch, &config.bpred),
    };
    predict_epoch_rated(epoch, config, &GridLogs::new(), rates, knobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_profiler::profile;
    use rppm_trace::{
        AddressPattern, BlockSpec, BranchPattern, DesignPoint, ProgramBuilder, Region,
    };

    fn eq1(epoch: &EpochProfile, config: &MachineConfig) -> EpochPrediction {
        predict_epoch(epoch, config, &Knobs::default())
    }

    fn single_epoch(spec: BlockSpec) -> EpochProfile {
        let mut b = ProgramBuilder::new("one", 1);
        b.thread(0u32).block(spec);
        let prof = profile(&b.build());
        prof.threads[0].epochs[0].clone()
    }

    #[test]
    fn empty_epoch_predicts_zero() {
        let e = EpochProfile::default();
        let p = eq1(&e, &DesignPoint::Base.config());
        assert_eq!(p.cycles, 0.0);
    }

    #[test]
    fn ilp_limited_code_predicts_low_ipc() {
        let e = single_epoch(BlockSpec::new(50_000, 1).deps(1.0, 1.0).deps2(0.0));
        let p = eq1(&e, &DesignPoint::Base.config());
        let ipc = e.ops as f64 / p.cycles;
        assert!(ipc < 1.5, "serial chain ipc {ipc}");
    }

    #[test]
    fn wide_code_reaches_width() {
        let e = single_epoch(BlockSpec::new(50_000, 2).deps(0.0, 1.0).deps2(0.0));
        let cfg = DesignPoint::Base.config();
        let p = eq1(&e, &cfg);
        let ipc = e.ops as f64 / p.cycles;
        assert!((ipc - cfg.dispatch_width as f64).abs() < 0.5, "ipc {ipc}");
    }

    #[test]
    fn fp_heavy_code_hits_fu_limit() {
        let e = single_epoch(
            BlockSpec::new(50_000, 3)
                .fp(0.5, 0.4)
                .deps(0.0, 1.0)
                .deps2(0.0),
        );
        let cfg = DesignPoint::Base.config(); // 2 FP pipes
        let p = eq1(&e, &cfg);
        // 90% FP through 2 ports: Deff <= 2/0.9 = 2.22.
        assert!(p.deff < 2.4, "deff {}", p.deff);
    }

    #[test]
    fn random_branches_cost_cycles() {
        let spec = |pat| BlockSpec::new(50_000, 4).branches(0.2).branch_pattern(pat);
        let cfg = DesignPoint::Base.config();
        let predictable = eq1(&single_epoch(spec(BranchPattern::loop_every(64))), &cfg);
        let random = eq1(&single_epoch(spec(BranchPattern::bernoulli(0.5))), &cfg);
        assert!(random.stack.branch > 10.0 * predictable.stack.branch.max(1.0));
        assert!(random.mispredicts > 3000.0);
    }

    #[test]
    fn streaming_loads_cost_dram_time() {
        let e = single_epoch(
            BlockSpec::new(50_000, 5)
                .loads(0.3)
                .addr(AddressPattern::stream(Region::new(0, 4 << 20)), 1.0),
        );
        let cfg = DesignPoint::Base.config();
        let p = eq1(&e, &cfg);
        assert!(p.dram_misses > 1000.0);
        assert!(p.stack.mem_dram > 0.0);
        assert!(p.mlp > 1.0, "streaming should overlap misses: {}", p.mlp);
    }

    #[test]
    fn one_mshr_serializes_misses() {
        // With one MSHR the usable share of the MSHRs is below one miss;
        // the prediction still stands, with no overlap, and no faster than
        // with two.
        let e = single_epoch(
            BlockSpec::new(50_000, 5)
                .loads(0.3)
                .addr(AddressPattern::stream(Region::new(0, 4 << 20)), 1.0),
        );
        let mut one = DesignPoint::Base.config();
        one.mshrs = 1;
        let mut two = one.clone();
        two.mshrs = 2;
        let (p1, p2) = (eq1(&e, &one), eq1(&e, &two));
        assert!(p1.cycles.is_finite() && p1.cycles > 0.0, "{p1:?}");
        assert_eq!(p1.mlp, 1.0);
        assert!(p1.cycles >= p2.cycles, "{} vs {}", p1.cycles, p2.cycles);
    }

    #[test]
    fn chained_loads_get_no_mlp() {
        let mk = |chain| {
            single_epoch(
                BlockSpec::new(50_000, 6)
                    .loads(0.3)
                    .deps(0.0, 1.0)
                    .load_chain(chain)
                    .addr(AddressPattern::random(Region::new(0, 4 << 20)), 1.0),
            )
        };
        let cfg = DesignPoint::Base.config();
        let indep = eq1(&mk(0.0), &cfg);
        let chained = eq1(&mk(1.0), &cfg);
        assert!(chained.mlp < indep.mlp, "{} vs {}", chained.mlp, indep.mlp);
        assert!(chained.stack.mem_dram > indep.stack.mem_dram);
    }

    #[test]
    fn cache_resident_data_is_cheap() {
        // A long epoch over a tiny working set: only the ~128 cold misses
        // ever reach DRAM, so the memory component amortizes away.
        let e = single_epoch(
            BlockSpec::new(500_000, 7)
                .loads(0.3)
                .addr(AddressPattern::random(Region::new(0, 128)), 1.0),
        );
        let p = eq1(&e, &DesignPoint::Base.config());
        assert!(p.dram_misses < 200.0, "{}", p.dram_misses);
        assert!(p.stack.mem_dram < 0.25 * p.cycles, "{:?}", p.stack);
    }

    /// The isolated (MAIN/CRIT) cycles of a one-epoch profile's only epoch,
    /// through the prepared path.
    fn isolated(epoch: &EpochProfile, config: &MachineConfig) -> f64 {
        let prof = rppm_profiler::ApplicationProfile {
            name: "one".into(),
            threads: vec![rppm_profiler::ThreadProfile {
                epochs: vec![epoch.clone()],
                events: Vec::new(),
            }],
        };
        crate::PreparedProfile::new(std::sync::Arc::new(prof)).predict_main(config)
    }

    #[test]
    fn isolated_variant_ignores_global_hist() {
        let e = single_epoch(
            BlockSpec::new(20_000, 8)
                .loads(0.3)
                .addr(AddressPattern::random(Region::new(0, 1 << 16)), 1.0),
        );
        let cfg = DesignPoint::Base.config();
        let a = isolated(&e, &cfg);
        // For a single-threaded profile global == private interleaving, so
        // both variants agree.
        let b = eq1(&e, &cfg);
        assert!((a - b.cycles).abs() / b.cycles < 0.05);
    }

    #[test]
    fn isolated_variant_matches_cloned_global_histogram() {
        // The isolated path must be bit-identical to predicting an epoch
        // whose global histogram was replaced by the private one.
        let e = single_epoch(
            BlockSpec::new(20_000, 11)
                .loads(0.3)
                .branches(0.1)
                .addr(AddressPattern::random(Region::new(0, 1 << 18)), 1.0),
        );
        for dp in DesignPoint::ALL {
            let cfg = dp.config();
            let fast = isolated(&e, &cfg);
            let mut iso = e.clone();
            iso.global_rd = e.private_rd.clone();
            let slow = eq1(&iso, &cfg);
            assert_eq!(fast.to_bits(), slow.cycles.to_bits(), "{dp}");
        }
    }

    #[test]
    fn bigger_rob_extracts_more_mlp() {
        // Partially chained streaming loads: the independent-miss count in
        // the window grows with the ROB, so bigger designs overlap more.
        let e = single_epoch(
            BlockSpec::new(50_000, 20)
                .loads(0.25)
                .deps(0.0, 1.0)
                .load_chain(0.8)
                .addr(AddressPattern::stream(Region::new(0, 4 << 20)), 1.0),
        );
        let small = eq1(&e, &DesignPoint::Smallest.config());
        let big = eq1(&e, &DesignPoint::Biggest.config());
        assert!(
            big.mlp > small.mlp,
            "ROB 288 should overlap more than ROB 32: {} vs {}",
            big.mlp,
            small.mlp
        );
    }

    #[test]
    fn bigger_rob_hides_more_l3_latency() {
        // Working set between L2 and L3 sizes, long enough that cold misses
        // are negligible: loads mostly hit the shared L3.
        let e = single_epoch(
            BlockSpec::new(400_000, 9)
                .loads(0.3)
                .addr(AddressPattern::random(Region::new(0, 20_000)), 1.0),
        );
        let small = eq1(&e, &DesignPoint::Smallest.config());
        let big = eq1(&e, &DesignPoint::Biggest.config());
        // The larger window extracts more parallelism among the L3-latency
        // loads, so less of the epoch is attributed to mem-L3.
        assert!(
            big.stack.mem_l3 < small.stack.mem_l3,
            "big window should hide more: {} vs {}",
            big.stack.mem_l3,
            small.stack.mem_l3
        );
    }
}
