//! Top-level prediction: RPPM and the naive MAIN / CRIT baselines.
//!
//! The free functions here are one-shot conveniences: each prepares the
//! profile ([`crate::PreparedProfile`]'s work) and evaluates once. Callers
//! that predict more than once hold a preparation instead — the
//! profile-once cache builds one per profiling run.

use crate::eq1::EpochPrediction;
use crate::prepared::PreparedProfile;
use crate::symexec::Schedule;
use rppm_profiler::ApplicationProfile;
use rppm_trace::{CpiStack, MachineConfig};

/// Per-thread prediction outcome.
#[derive(Debug, Clone, Default)]
pub struct ThreadPrediction {
    /// Predicted active cycles (Phase 1, summed over epochs).
    pub active_cycles: f64,
    /// Predicted idle cycles from synchronization (Phase 2).
    pub sync_cycles: f64,
    /// Predicted finish time.
    pub finish: f64,
    /// Predicted CPI stack (epoch components + sync idle).
    pub cpi: CpiStack,
    /// Per-epoch predictions (exposed for analysis; C-INTERMEDIATE).
    pub epochs: Vec<EpochPrediction>,
}

/// Full RPPM prediction for one workload on one machine configuration.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Workload name.
    pub program: String,
    /// Configuration name.
    pub config: String,
    /// Predicted end-to-end execution time in cycles.
    pub total_cycles: f64,
    /// Predicted end-to-end execution time in seconds.
    pub total_seconds: f64,
    /// Per-thread predictions.
    pub threads: Vec<ThreadPrediction>,
    /// Predicted active intervals per thread (bottlegraph input).
    pub intervals: Vec<Vec<(f64, f64)>>,
}

impl Prediction {
    /// Average per-thread CPI stack (Figure 5 aggregation).
    pub fn mean_cpi_stack(&self) -> CpiStack {
        let mut acc = CpiStack::default();
        for t in &self.threads {
            acc.add(&t.cpi);
        }
        acc.scaled(1.0 / self.threads.len().max(1) as f64)
    }
}

/// Predicts multi-threaded execution time with the full RPPM model:
/// per-epoch active times from Equation 1 (using the multi-threaded
/// StatStack extension for shared-cache and coherence effects), then
/// synchronization overhead via symbolic execution (Algorithm 2).
///
/// # Panics
///
/// Panics if the profile is structurally inconsistent.
pub fn predict(profile: &ApplicationProfile, config: &MachineConfig) -> Prediction {
    PreparedProfile::new(profile).predict(config)
}

/// Builds the full [`Prediction`] from per-epoch predictions plus the
/// symbolic-execution schedule.
pub(crate) fn assemble(
    profile: &ApplicationProfile,
    config: &MachineConfig,
    epoch_preds: Vec<Vec<EpochPrediction>>,
    schedule: Schedule,
) -> Prediction {
    let threads: Vec<ThreadPrediction> = epoch_preds
        .into_iter()
        .zip(&schedule.threads)
        .map(|(preds, sched)| {
            let mut cpi = CpiStack::default();
            for p in &preds {
                cpi.add(&p.stack);
            }
            cpi.sync = sched.idle + (sched.active - preds.iter().map(|p| p.cycles).sum::<f64>());
            ThreadPrediction {
                active_cycles: sched.active,
                sync_cycles: sched.idle,
                finish: sched.finish,
                cpi,
                epochs: preds,
            }
        })
        .collect();

    Prediction {
        program: profile.name.clone(),
        config: config.name.clone(),
        total_cycles: schedule.total,
        total_seconds: config.cycles_to_seconds(schedule.total),
        threads,
        intervals: schedule.intervals(),
    }
}

/// The MAIN baseline (Section II-C): apply the single-threaded model to the
/// main thread only and use its active time as the program prediction.
/// No synchronization, no interference, no coherence.
pub fn predict_main(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
    PreparedProfile::new(profile).predict_main(config)
}

/// The CRIT baseline (Section II-C): apply the single-threaded model to
/// every thread in isolation and take the slowest (critical) thread's
/// active time as the program prediction.
pub fn predict_crit(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
    PreparedProfile::new(profile).predict_crit(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_profiler::profile as run_profiler;
    use rppm_trace::{AddressPattern, BlockSpec, DesignPoint, ProgramBuilder, Region};

    fn balanced_program() -> rppm_trace::Program {
        let mut b = ProgramBuilder::new("balanced", 4);
        let bar = b.alloc_barrier();
        let r = b.alloc_region(4096);
        b.spawn_workers();
        for t in 0..4u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(20_000, 3 + t as u64)
                        .loads(0.25)
                        .branches(0.1)
                        .addr(AddressPattern::stream(r.chunk(t as u64, 4)), 1.0),
                )
                .barrier(bar);
        }
        b.join_workers();
        b.build()
    }

    fn imbalanced_program() -> rppm_trace::Program {
        let mut b = ProgramBuilder::new("imbalanced", 3);
        b.spawn_workers();
        // Main does nothing; worker 1 does 10x the work of worker 2.
        b.thread(1u32)
            .block(BlockSpec::new(100_000, 1).deps(0.3, 4.0));
        b.thread(2u32)
            .block(BlockSpec::new(10_000, 2).deps(0.3, 4.0));
        b.join_workers();
        b.build()
    }

    #[test]
    fn rppm_prediction_is_positive_and_consistent() {
        let prof = run_profiler(&balanced_program());
        let pred = predict(&prof, &DesignPoint::Base.config());
        assert!(pred.total_cycles > 0.0);
        assert_eq!(pred.threads.len(), 4);
        for t in &pred.threads {
            assert!(t.finish <= pred.total_cycles + 1e-9);
            assert!(t.cpi.total() > 0.0);
        }
    }

    #[test]
    fn total_at_least_slowest_thread_active() {
        let prof = run_profiler(&balanced_program());
        let pred = predict(&prof, &DesignPoint::Base.config());
        let max_active = pred
            .threads
            .iter()
            .map(|t| t.active_cycles)
            .fold(0.0, f64::max);
        assert!(pred.total_cycles >= max_active - 1e-9);
    }

    #[test]
    fn main_underestimates_when_main_is_idle() {
        let prof = run_profiler(&imbalanced_program());
        let cfg = DesignPoint::Base.config();
        let main = predict_main(&prof, &cfg);
        let rppm = predict(&prof, &cfg).total_cycles;
        // The main thread does almost nothing: MAIN must grossly
        // underestimate (the Parsec failure mode from Figure 4).
        assert!(main < 0.2 * rppm, "main {main} vs rppm {rppm}");
    }

    #[test]
    fn crit_between_main_and_rppm_for_imbalance() {
        let prof = run_profiler(&imbalanced_program());
        let cfg = DesignPoint::Base.config();
        let main = predict_main(&prof, &cfg);
        let crit = predict_crit(&prof, &cfg);
        let rppm = predict(&prof, &cfg).total_cycles;
        assert!(crit > main, "crit picks the heavy worker");
        // CRIT ignores spawn/join structure but captures the critical
        // thread; it should be within 2x of RPPM here.
        assert!(
            crit <= rppm * 1.5 && crit >= rppm * 0.3,
            "crit {crit} rppm {rppm}"
        );
    }

    #[test]
    fn prediction_time_scales_with_frequency() {
        // Same cycle behaviour, different frequency: compute-bound work
        // takes proportionally less wall time at higher frequency.
        let mut b = ProgramBuilder::new("freq", 1);
        b.thread(0u32)
            .block(BlockSpec::new(50_000, 5).deps(0.2, 6.0));
        let prof = run_profiler(&b.build());

        let base = DesignPoint::Base.config();
        let mut fast = base.clone();
        fast.freq_ghz = 5.0;
        fast.name = "fast".into();
        let t_base = predict(&prof, &base).total_seconds;
        let t_fast = predict(&prof, &fast).total_seconds;
        assert!(
            (t_base / t_fast - 2.0).abs() < 0.05,
            "2x frequency halves compute-bound time: {t_base} vs {t_fast}"
        );
    }

    #[test]
    fn profile_once_predict_many_configs() {
        let prof = run_profiler(&balanced_program());
        let mut last = 0.0;
        for dp in DesignPoint::ALL {
            let p = predict(&prof, &dp.config());
            assert!(p.total_cycles > 0.0, "{dp} predicts nonzero");
            last = p.total_cycles;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn memory_bound_chained_work_prefers_big_windows() {
        // All five design points have equal peak ops/s and the DRAM latency
        // in ns is constant. With partially chained misses the small-ROB
        // design cannot overlap them (low MLP) while the big-ROB one can,
        // so the wide/slow design wins in *time* despite its low frequency.
        let mut b = ProgramBuilder::new("membound", 1);
        let r = Region::new(0, 4 << 20);
        b.thread(0u32).block(
            BlockSpec::new(100_000, 6)
                .loads(0.25)
                .deps(0.0, 1.0)
                .load_chain(0.8)
                .addr(AddressPattern::stream(r), 1.0),
        );
        let prof = run_profiler(&b.build());
        let t_small = predict(&prof, &DesignPoint::Smallest.config()).total_seconds;
        let t_big = predict(&prof, &DesignPoint::Biggest.config()).total_seconds;
        assert!(
            t_big < t_small,
            "large-window design should win for chained memory-bound work: {t_big} vs {t_small}"
        );
    }

    #[test]
    fn single_epoch_profile_predicts() {
        // A profile with one thread and one epoch (no sync at all).
        let mut b = ProgramBuilder::new("solo", 1);
        b.thread(0u32)
            .block(BlockSpec::new(5_000, 3).deps(0.3, 4.0));
        let prof = run_profiler(&b.build());
        let p = predict(&prof, &DesignPoint::Base.config());
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.threads[0].sync_cycles, 0.0);
        assert!(p.total_cycles > 1_000.0);
    }

    #[test]
    fn baselines_equal_rppm_for_single_thread_no_sync() {
        // With one thread and no synchronization, MAIN == CRIT and RPPM's
        // active time matches them (phase 2 adds nothing).
        let mut b = ProgramBuilder::new("solo", 1);
        b.thread(0u32).block(
            BlockSpec::new(20_000, 9)
                .loads(0.2)
                .addr(AddressPattern::random(Region::new(0, 2_000)), 1.0),
        );
        let prof = run_profiler(&b.build());
        let cfg = DesignPoint::Base.config();
        let main = predict_main(&prof, &cfg);
        let crit = predict_crit(&prof, &cfg);
        let rppm = predict(&prof, &cfg);
        assert!((main - crit).abs() < 1e-9);
        let active = rppm.threads[0].active_cycles;
        assert!(
            (active - main).abs() / main < 0.05,
            "active {active} vs single-threaded model {main}"
        );
    }

    #[test]
    fn cpi_stack_components_cover_active_time() {
        let prof = run_profiler(&balanced_program());
        let pred = predict(&prof, &DesignPoint::Base.config());
        for t in &pred.threads {
            let explained = t.cpi.total();
            let wall = t.finish; // thread 0 starts at 0; workers later
            assert!(explained > 0.0 && explained <= wall * 1.5);
        }
    }
}
