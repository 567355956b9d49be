//! The precompute/evaluate split: profile-side work hoisted out of the
//! per-configuration loop.
//!
//! A scalar [`predict`](crate::predict()) call rebuilds three
//! [`StackDistanceModel`]s per epoch, re-reads the calibration environment
//! and re-derives the ILP/MLP interpolation tables on every invocation —
//! irrelevant for one prediction, dominant when a design-space sweep
//! evaluates 10⁵ configurations from one profile. [`PreparedProfile`]
//! performs all of that **once**:
//!
//! * deduplicates identical epochs across threads and iterations (iterative
//!   kernels repeat the same per-epoch profile many times),
//! * builds the private/global/instruction stack-distance models and the
//!   precomputed [`EpochCurves`] interpolation tables per *distinct* epoch,
//! * captures the calibration [`Knobs`] from the environment,
//! * flattens the thread timelines and precomputes the barrier-participant
//!   counts consumed by the symbolic execution.
//!
//! [`BatchedEq1`] is the matching evaluator: a structure-of-arrays sweep
//! loop that memoizes StatStack and branch-predictor queries per distinct
//! cache geometry (design spaces reuse a handful of axis values across
//! thousands of points) and reuses one flat cycle buffer plus one
//! `SymScratch` across configurations, so steady-state evaluation
//! performs **no per-point allocation**.
//!
//! **Bit-identity contract**: every path through this module reproduces the
//! scalar pipeline exactly — the same [`predict_epoch_rated`] arithmetic
//! body, curve tables proven bit-identical to the profile methods, and the
//! same symbolic-execution engine. With no `RPPM_*` calibration variables
//! set between preparation and evaluation, [`BatchedEq1::eval`] equals
//! [`predict`](crate::predict())`(...).total_cycles` to the last bit (pinned by the
//! `dse_equivalence` differential property suite).
//!
//! # Example: prepare once, evaluate many
//!
//! ```
//! use rppm_trace::{ProgramBuilder, BlockSpec, DesignPoint};
//! use rppm_profiler::profile;
//! use rppm_core::{predict, PreparedProfile};
//! use std::sync::Arc;
//!
//! let mut b = ProgramBuilder::new("demo", 1);
//! b.thread(0u32).block(BlockSpec::new(10_000, 1).deps(0.3, 4.0));
//! let prof = profile(&b.build());
//!
//! let prepared = PreparedProfile::new(Arc::new(prof)); // heavy work here
//! let mut batch = prepared.batched();                  // cheap, reusable
//! for dp in DesignPoint::ALL {
//!     let cfg = dp.config();
//!     let fast = batch.eval(&cfg);                     // microseconds
//!     let slow = predict(prepared.profile(), &cfg).total_cycles;
//!     assert_eq!(fast.to_bits(), slow.to_bits());
//! }
//! ```

use crate::eq1::{empty_epoch_prediction, predict_epoch_rated, EpochPrediction, Knobs, RawRates};
use crate::predict::{assemble, Prediction};
use crate::symexec::{execute, execute_total, FlatTimelines, SymScratch, ThreadTimeline};
use rppm_profiler::{ApplicationProfile, EpochCurves, EpochProfile};
use rppm_statstack::StackDistanceModel;
use rppm_trace::{barrier_participants, CacheGeometry, MachineConfig, SyncOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel in the flat-epoch → cell map for empty (zero-op) epochs, whose
/// prediction is always the zero prediction.
const EMPTY_CELL: usize = usize::MAX;

/// One distinct epoch's precomputed state: the stack-distance models and
/// interpolation tables every configuration evaluation reuses.
#[derive(Debug)]
struct PreparedEpoch {
    /// Location of the representative epoch in the profile.
    thread: usize,
    epoch: usize,
    priv_model: StackDistanceModel,
    glob_model: StackDistanceModel,
    icache_model: StackDistanceModel,
    curves: EpochCurves,
}

/// A profile with all configuration-independent prediction work done.
///
/// Construction cost is a few scalar predictions; each subsequent
/// evaluation through [`PreparedProfile::batched`] costs microseconds (see
/// the module docs for the bit-identity contract with the scalar path).
#[derive(Debug)]
pub struct PreparedProfile {
    profile: Arc<ApplicationProfile>,
    knobs: Knobs,
    /// One entry per distinct nonempty epoch.
    cells: Vec<PreparedEpoch>,
    /// Per flat epoch (thread-major): index into `cells`, or [`EMPTY_CELL`].
    cell_of: Vec<usize>,
    /// Per-thread `(offset, len)` into the flat epoch order.
    ranges: Vec<(usize, usize)>,
    /// Barrier participant counts (pure profile property).
    participants: HashMap<u32, usize>,
}

impl PreparedProfile {
    /// Performs the one-time precomputation for `profile`: epoch
    /// deduplication, stack-distance model and curve-table construction,
    /// calibration capture (the `RPPM_*` environment is read **here**, not
    /// per evaluation) and timeline flattening.
    ///
    /// # Panics
    ///
    /// Panics if the profile is structurally inconsistent.
    pub fn new(profile: Arc<ApplicationProfile>) -> Self {
        assert!(profile.is_consistent(), "inconsistent profile");
        let mut cells: Vec<PreparedEpoch> = Vec::new();
        let mut reps: Vec<&EpochProfile> = Vec::new();
        let mut cell_of = Vec::new();
        let mut ranges = Vec::new();
        for (t, thread) in profile.threads.iter().enumerate() {
            ranges.push((cell_of.len(), thread.epochs.len()));
            for (e, epoch) in thread.epochs.iter().enumerate() {
                if epoch.ops == 0 {
                    cell_of.push(EMPTY_CELL);
                    continue;
                }
                let cell = match reps.iter().position(|r| *r == epoch) {
                    Some(i) => i,
                    None => {
                        reps.push(epoch);
                        cells.push(PreparedEpoch {
                            thread: t,
                            epoch: e,
                            priv_model: StackDistanceModel::new(&epoch.private_rd),
                            glob_model: StackDistanceModel::new(&epoch.global_rd),
                            icache_model: StackDistanceModel::new(&epoch.icache_rd),
                            curves: EpochCurves::new(epoch),
                        });
                        cells.len() - 1
                    }
                };
                cell_of.push(cell);
            }
        }
        let participants = barrier_participants(profile.threads.iter().map(|t| &t.events));
        drop(reps);
        PreparedProfile {
            profile,
            knobs: Knobs::from_env(),
            cells,
            cell_of,
            ranges,
            participants,
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &Arc<ApplicationProfile> {
        &self.profile
    }

    /// Number of distinct nonempty epochs (the per-configuration Equation-1
    /// workload of one batched evaluation).
    pub fn distinct_epochs(&self) -> usize {
        self.cells.len()
    }

    /// Total number of epochs across all threads.
    pub fn total_epochs(&self) -> usize {
        self.cell_of.len()
    }

    /// Creates a reusable batched evaluator borrowing this preparation.
    ///
    /// The evaluator owns the mutable sweep state (rate memos, cycle
    /// buffer, symbolic-execution scratch); create one per worker thread
    /// for parallel sweeps — they share the preparation read-only.
    pub fn batched(&self) -> BatchedEq1<'_> {
        BatchedEq1 {
            prep: self,
            events: self
                .profile
                .threads
                .iter()
                .map(|t| t.events.as_slice())
                .collect(),
            priv_rates: HashMap::new(),
            glob_rates: HashMap::new(),
            icache_rates: HashMap::new(),
            bpred_rates: HashMap::new(),
            cell_cycles: vec![0.0; self.cells.len()],
            cycles: vec![0.0; self.cell_of.len()],
            scratch: SymScratch::new(self.participants.clone()),
        }
    }

    fn epoch(&self, cell: &PreparedEpoch) -> &EpochProfile {
        &self.profile.threads[cell.thread].epochs[cell.epoch]
    }

    fn rates(&self, cell: &PreparedEpoch, config: &MachineConfig) -> RawRates {
        RawRates {
            r1: cell.priv_model.miss_rate_geom(&config.l1d),
            r2: cell.priv_model.miss_rate_geom(&config.l2),
            r3: cell.glob_model.miss_rate_geom(&config.l3),
            l1i: cell.icache_model.miss_rate_geom(&config.l1i),
            bmiss: rppm_branch_model::predict_miss_rate(&self.epoch(cell).branch, &config.bpred),
        }
    }

    fn rates_isolated(&self, cell: &PreparedEpoch, config: &MachineConfig) -> RawRates {
        RawRates {
            r1: cell.priv_model.miss_rate_geom(&config.l1d),
            r2: cell.priv_model.miss_rate_geom(&config.l2),
            r3: cell.priv_model.miss_rate_geom(&config.l3),
            l1i: cell.icache_model.miss_rate_geom(&config.l1i),
            bmiss: rppm_branch_model::predict_miss_rate(&self.epoch(cell).branch, &config.bpred),
        }
    }

    /// Per-cell epoch predictions for `config` (full RPPM rates).
    fn cell_predictions(&self, config: &MachineConfig) -> Vec<EpochPrediction> {
        self.cells
            .iter()
            .map(|c| {
                predict_epoch_rated(
                    self.epoch(c),
                    config,
                    &c.curves,
                    self.rates(c, config),
                    &self.knobs,
                )
            })
            .collect()
    }

    /// Full prediction for one configuration, reusing the precomputed
    /// models — bit-identical to [`predict`](crate::predict()) when no `RPPM_*`
    /// variable changed since preparation.
    pub fn predict(&self, config: &MachineConfig) -> Prediction {
        let cell_preds = self.cell_predictions(config);
        let epoch_preds: Vec<Vec<EpochPrediction>> = self
            .ranges
            .iter()
            .map(|&(off, len)| {
                self.cell_of[off..off + len]
                    .iter()
                    .map(|&c| {
                        if c == EMPTY_CELL {
                            empty_epoch_prediction()
                        } else {
                            cell_preds[c].clone()
                        }
                    })
                    .collect()
            })
            .collect();
        let timelines: Vec<ThreadTimeline> = self
            .profile
            .threads
            .iter()
            .zip(&epoch_preds)
            .map(|(t, preds)| ThreadTimeline {
                epochs: preds.iter().map(|p| p.cycles).collect(),
                events: t.events.clone(),
            })
            .collect();
        let schedule = execute(&timelines, config);
        assemble(&self.profile, config, epoch_preds, schedule)
    }

    /// The MAIN baseline ([`crate::predict_main`]) from the prepared
    /// models; bit-identical to the scalar function under the same
    /// environment caveat as [`PreparedProfile::predict`].
    pub fn predict_main(&self, config: &MachineConfig) -> f64 {
        self.isolated_thread_active(0, config)
    }

    /// The CRIT baseline ([`crate::predict_crit`]) from the prepared
    /// models.
    pub fn predict_crit(&self, config: &MachineConfig) -> f64 {
        (0..self.ranges.len())
            .map(|t| self.isolated_thread_active(t, config))
            .fold(0.0, f64::max)
    }

    /// Sum of isolated-model epoch times for one thread. Matches the
    /// scalar baselines' per-epoch iteration exactly: equal epochs produce
    /// bit-equal predictions, so summing shared cell results in flat-epoch
    /// order reproduces the scalar sum bit for bit.
    fn isolated_thread_active(&self, thread: usize, config: &MachineConfig) -> f64 {
        let mut memo: Vec<Option<f64>> = vec![None; self.cells.len()];
        let (off, len) = self.ranges[thread];
        self.cell_of[off..off + len]
            .iter()
            .map(|&c| {
                if c == EMPTY_CELL {
                    return 0.0;
                }
                *memo[c].get_or_insert_with(|| {
                    let cell = &self.cells[c];
                    predict_epoch_rated(
                        self.epoch(cell),
                        config,
                        &cell.curves,
                        self.rates_isolated(cell, config),
                        &self.knobs,
                    )
                    .cycles
                })
            })
            .sum()
    }
}

/// Memo key for a cache-geometry-dependent miss-rate column: everything
/// [`StackDistanceModel::miss_rate_geom`] reads from the geometry.
type GeomKey = (u64, u32, u32);

fn geom_key(g: &CacheGeometry) -> GeomKey {
    (g.size_bytes, g.assoc, g.line_bytes)
}

/// Which stack-distance model a rate column is drawn from.
#[derive(Clone, Copy)]
enum ModelKind {
    Private,
    Global,
    Icache,
}

/// Structure-of-arrays Equation-1 evaluator over a [`PreparedProfile`].
///
/// Owns the per-sweep mutable state: miss-rate columns memoized per
/// distinct cache geometry (and branch-predictor miss rates per distinct
/// predictor), the flat cycle buffer and the symbolic-execution scratch.
/// After the first evaluation of each distinct axis value, an evaluation
/// allocates nothing.
///
/// Not `Sync` by design: create one evaluator per worker thread (they
/// share the read-only [`PreparedProfile`]). Memoized values are pure
/// functions of (epoch, geometry), so every worker computes identical
/// bits.
#[derive(Debug)]
pub struct BatchedEq1<'p> {
    prep: &'p PreparedProfile,
    /// Per-thread event slices for the borrowed flat-timeline view.
    events: Vec<&'p [SyncOp]>,
    /// Miss-rate columns (one `f64` per cell) per distinct geometry.
    priv_rates: HashMap<GeomKey, Box<[f64]>>,
    glob_rates: HashMap<GeomKey, Box<[f64]>>,
    icache_rates: HashMap<GeomKey, Box<[f64]>>,
    /// Branch miss-rate columns per distinct predictor configuration.
    bpred_rates: HashMap<(u32, u32), Box<[f64]>>,
    /// Per-cell predicted cycles for the configuration being evaluated.
    cell_cycles: Vec<f64>,
    /// Flat per-epoch cycle buffer fed to the symbolic execution.
    cycles: Vec<f64>,
    scratch: SymScratch,
}

impl BatchedEq1<'_> {
    /// The preparation this evaluator sweeps over.
    pub fn prepared(&self) -> &PreparedProfile {
        self.prep
    }

    fn ensure_column(&mut self, kind: ModelKind, geom: &CacheGeometry) {
        let (map, cells) = match kind {
            ModelKind::Private => (&mut self.priv_rates, &self.prep.cells),
            ModelKind::Global => (&mut self.glob_rates, &self.prep.cells),
            ModelKind::Icache => (&mut self.icache_rates, &self.prep.cells),
        };
        map.entry(geom_key(geom)).or_insert_with(|| {
            cells
                .iter()
                .map(|c| {
                    match kind {
                        ModelKind::Private => &c.priv_model,
                        ModelKind::Global => &c.glob_model,
                        ModelKind::Icache => &c.icache_model,
                    }
                    .miss_rate_geom(geom)
                })
                .collect()
        });
    }

    fn ensure_bpred(&mut self, config: &MachineConfig) {
        let key = (config.bpred.size_bytes, config.bpred.history_bits);
        self.bpred_rates.entry(key).or_insert_with(|| {
            self.prep
                .cells
                .iter()
                .map(|c| {
                    rppm_branch_model::predict_miss_rate(&self.prep.epoch(c).branch, &config.bpred)
                })
                .collect()
        });
    }

    /// Predicted end-to-end execution time in **cycles** for `config` —
    /// bit-identical to [`predict`](crate::predict())`(profile, config).total_cycles`
    /// under the module-level environment caveat. Seconds follow as
    /// [`MachineConfig::cycles_to_seconds`], the same conversion the scalar
    /// path applies.
    pub fn eval(&mut self, config: &MachineConfig) -> f64 {
        self.ensure_column(ModelKind::Private, &config.l1d);
        self.ensure_column(ModelKind::Private, &config.l2);
        self.ensure_column(ModelKind::Global, &config.l3);
        self.ensure_column(ModelKind::Icache, &config.l1i);
        self.ensure_bpred(config);
        let r1 = &self.priv_rates[&geom_key(&config.l1d)];
        let r2 = &self.priv_rates[&geom_key(&config.l2)];
        let r3 = &self.glob_rates[&geom_key(&config.l3)];
        let l1i = &self.icache_rates[&geom_key(&config.l1i)];
        let bmiss = &self.bpred_rates[&(config.bpred.size_bytes, config.bpred.history_bits)];

        for (i, cell) in self.prep.cells.iter().enumerate() {
            let rates = RawRates {
                r1: r1[i],
                r2: r2[i],
                r3: r3[i],
                l1i: l1i[i],
                bmiss: bmiss[i],
            };
            self.cell_cycles[i] = predict_epoch_rated(
                self.prep.epoch(cell),
                config,
                &cell.curves,
                rates,
                &self.prep.knobs,
            )
            .cycles;
        }
        for (slot, &c) in self.cycles.iter_mut().zip(&self.prep.cell_of) {
            *slot = if c == EMPTY_CELL {
                0.0
            } else {
                self.cell_cycles[c]
            };
        }
        execute_total(
            FlatTimelines {
                cycles: &self.cycles,
                ranges: &self.prep.ranges,
                events: &self.events,
            },
            config.sync_overhead_cycles as f64,
            config.spawn_latency_cycles as f64,
            &mut self.scratch,
        )
    }

    /// Evaluates a vector of configurations, writing predicted cycles into
    /// `out` (cleared first). `out`'s capacity is reused across calls.
    pub fn eval_into(&mut self, configs: &[MachineConfig], out: &mut Vec<f64>) {
        out.clear();
        out.extend(configs.iter().map(|c| self.eval(c)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{predict, predict_crit, predict_main};
    use rppm_profiler::profile;
    use rppm_trace::{AddressPattern, BlockSpec, DesignPoint, ProgramBuilder};

    fn parallel_profile() -> Arc<ApplicationProfile> {
        let mut b = ProgramBuilder::new("prep-test", 4);
        let bar = b.alloc_barrier();
        let r = b.alloc_region(1 << 20);
        b.spawn_workers();
        for t in 0..4u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(20_000, 3 + (t % 2) as u64)
                        .loads(0.25)
                        .branches(0.1)
                        .addr(AddressPattern::stream(r.chunk((t % 2) as u64, 2)), 1.0),
                )
                .barrier(bar)
                .block(
                    BlockSpec::new(10_000, 3 + (t % 2) as u64)
                        .loads(0.25)
                        .branches(0.1)
                        .addr(AddressPattern::stream(r.chunk((t % 2) as u64, 2)), 1.0),
                );
        }
        b.join_workers();
        Arc::new(profile(&b.build()))
    }

    #[test]
    fn deduplicates_identical_epochs() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let total: usize = prof.threads.iter().map(|t| t.epochs.len()).sum();
        assert_eq!(prep.total_epochs(), total);
        // Workers 0/2 and 1/3 run identical blocks: their epochs collapse.
        assert!(
            prep.distinct_epochs() * 2 <= total,
            "{} distinct of {total}",
            prep.distinct_epochs()
        );
    }

    #[test]
    fn batched_eval_matches_scalar_predict_bitwise() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let mut batch = prep.batched();
        for dp in DesignPoint::ALL {
            let cfg = dp.config();
            let fast = batch.eval(&cfg);
            let slow = predict(&prof, &cfg).total_cycles;
            assert_eq!(fast.to_bits(), slow.to_bits(), "{dp}");
        }
        // Second pass through the same evaluator (memos warm, scratch
        // reused): still identical.
        for dp in DesignPoint::ALL {
            let cfg = dp.config();
            assert_eq!(
                batch.eval(&cfg).to_bits(),
                predict(&prof, &cfg).total_cycles.to_bits(),
                "{dp} (warm)"
            );
        }
    }

    #[test]
    fn prepared_predict_matches_scalar_fully() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let cfg = DesignPoint::Big.config();
        let fast = prep.predict(&cfg);
        let slow = predict(&prof, &cfg);
        assert_eq!(fast.total_cycles.to_bits(), slow.total_cycles.to_bits());
        assert_eq!(fast.total_seconds.to_bits(), slow.total_seconds.to_bits());
        assert_eq!(fast.threads.len(), slow.threads.len());
        for (f, s) in fast.threads.iter().zip(&slow.threads) {
            assert_eq!(f.active_cycles.to_bits(), s.active_cycles.to_bits());
            assert_eq!(f.sync_cycles.to_bits(), s.sync_cycles.to_bits());
            assert_eq!(f.epochs, s.epochs);
        }
        assert_eq!(fast.intervals, slow.intervals);
    }

    #[test]
    fn prepared_baselines_match_scalar_bitwise() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        for dp in DesignPoint::ALL {
            let cfg = dp.config();
            assert_eq!(
                prep.predict_main(&cfg).to_bits(),
                predict_main(&prof, &cfg).to_bits(),
                "{dp} main"
            );
            assert_eq!(
                prep.predict_crit(&cfg).to_bits(),
                predict_crit(&prof, &cfg).to_bits(),
                "{dp} crit"
            );
        }
    }

    #[test]
    fn eval_into_reuses_output_buffer() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(prof);
        let mut batch = prep.batched();
        let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
        let mut out = Vec::new();
        batch.eval_into(&configs, &mut out);
        assert_eq!(out.len(), configs.len());
        let first = out.clone();
        batch.eval_into(&configs, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn extreme_cache_geometries_stay_identical() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let mut batch = prep.batched();
        let mut tiny = DesignPoint::Base.config();
        tiny.name = "tiny".into();
        tiny.l1d = rppm_trace::CacheGeometry::new(64, 1, 64, 3);
        tiny.l1i = rppm_trace::CacheGeometry::new(64, 1, 64, 3);
        tiny.l2 = rppm_trace::CacheGeometry::new(128, 2, 64, 12);
        tiny.l3 = rppm_trace::CacheGeometry::new(256, 4, 64, 35);
        let mut huge = DesignPoint::Base.config();
        huge.name = "huge".into();
        huge.l3 = rppm_trace::CacheGeometry::new(1 << 30, 16, 64, 35);
        for cfg in [tiny, huge] {
            assert_eq!(
                batch.eval(&cfg).to_bits(),
                predict(&prof, &cfg).total_cycles.to_bits(),
                "{}",
                cfg.name
            );
        }
    }
}
