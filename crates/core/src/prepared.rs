//! Profile once, predict many: every prediction evaluates over state
//! derived once from the profile.
//!
//! Equation 1 needs three [`StackDistanceModel`]s per epoch (private,
//! global and instruction reuse distances). Building them is the
//! configuration-independent part of a prediction, so [`PreparedProfile`]
//! does it **once**:
//!
//! * it deduplicates identical epochs across threads and iterations
//!   (iterative kernels repeat the same per-epoch profile many times),
//! * builds the three stack-distance models per *distinct* epoch,
//! * holds the calibration [`Knobs`] ([`Knobs::default`] unless built with
//!   [`PreparedProfile::with_knobs`]),
//! * flattens the thread timelines and precomputes the barrier-participant
//!   counts consumed by the symbolic execution.
//!
//! The profile-once cache (`crate::cache`) builds one preparation per
//! profiling run, so [`PreparedProfile::predict`] on a resident profile
//! costs the miss-rate queries, Equation 1 and Algorithm 2 only. The free
//! functions [`predict`](crate::predict()),
//! [`predict_main`](crate::predict_main()) and
//! [`predict_crit`](crate::predict_crit()) prepare and evaluate in one call
//! for one-shot use.
//!
//! [`BatchedEq1`] is the design-space evaluator over a preparation: a
//! structure-of-arrays sweep loop that memoizes StatStack and
//! branch-predictor queries per distinct cache geometry (design spaces
//! reuse a handful of axis values across thousands of points), evaluates
//! the ILP/MLP curves through precomputed [`EpochCurves`] tables, and
//! reuses one flat cycle buffer plus one `SymScratch` across
//! configurations, so steady-state evaluation performs **no per-point
//! allocation**. The curve tables are built per evaluator, not per
//! preparation: they are about half the size of the prepared state and
//! only pay off over many configurations. [`PreparedProfile::batched_chunks`]
//! is the one parallel fan-out over evaluators, shared by the design-space
//! pass ([`sweep`](crate::sweep()), [`find_best`](crate::find_best())) and
//! the session's batched predictions.
//!
//! **Bit-identity contract**: every path through this module feeds the
//! same [`predict_epoch_rated`] arithmetic body and the same
//! symbolic-execution engine, and the curve tables are proven
//! bit-identical to the profile's own interpolation. So
//! [`BatchedEq1::eval`] equals
//! [`PreparedProfile::predict`]`(...).total_cycles` to the last bit, and
//! both equal a naive evaluation that rebuilds every epoch's models
//! through [`predict_epoch`](crate::predict_epoch()) (pinned by the
//! `dse_equivalence` differential property suite).
//!
//! # Example: prepare once, evaluate many
//!
//! ```
//! use rppm_trace::{ProgramBuilder, BlockSpec, DesignPoint};
//! use rppm_profiler::profile;
//! use rppm_core::PreparedProfile;
//! use std::sync::Arc;
//!
//! let mut b = ProgramBuilder::new("demo", 1);
//! b.thread(0u32).block(BlockSpec::new(10_000, 1).deps(0.3, 4.0));
//! let prof = profile(&b.build());
//!
//! let prepared = PreparedProfile::new(Arc::new(prof)); // models built here
//! let mut batch = prepared.batched();                  // curve tables here
//! for dp in DesignPoint::ALL {
//!     let cfg = dp.config();
//!     let fast = batch.eval(&cfg);                     // microseconds
//!     let full = prepared.predict(&cfg).total_cycles;
//!     assert_eq!(fast.to_bits(), full.to_bits());
//! }
//! ```

use crate::eq1::{empty_epoch_prediction, predict_epoch_rated, EpochPrediction, Knobs, RawRates};
use crate::predict::{assemble, Prediction};
use crate::symexec::{execute, execute_total, FlatTimelines, SymScratch, ThreadTimeline};
use rppm_profiler::{ApplicationProfile, EpochCurves, EpochProfile};
use rppm_statstack::StackDistanceModel;
use rppm_trace::par::parallel_map;
use rppm_trace::{barrier_participants, CacheGeometry, MachineConfig, SyncOp};
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Sentinel in the flat-epoch → cell map for empty (zero-op) epochs, whose
/// prediction is always the zero prediction.
const EMPTY_CELL: usize = usize::MAX;

/// One distinct epoch's stack-distance models.
#[derive(Debug)]
struct PreparedEpoch {
    /// Location of the representative epoch in the profile.
    thread: usize,
    epoch: usize,
    priv_model: StackDistanceModel,
    glob_model: StackDistanceModel,
    icache_model: StackDistanceModel,
}

impl PreparedEpoch {
    fn epoch<'p>(&self, profile: &'p ApplicationProfile) -> &'p EpochProfile {
        &profile.threads[self.thread].epochs[self.epoch]
    }

    fn approx_bytes(&self) -> u64 {
        self.priv_model.approx_bytes()
            + self.glob_model.approx_bytes()
            + self.icache_model.approx_bytes()
            + 2 * size_of::<usize>() as u64
    }
}

/// A profile with all configuration-independent prediction work done.
///
/// `P` is how the preparation holds its profile: an [`Arc`] for a
/// preparation that outlives its caller (the profile-once cache keeps one
/// per resident profile), a plain reference for the one-shot free
/// functions. Construction costs about one prediction's worth of model
/// building; each subsequent [`PreparedProfile::predict`] costs only the
/// per-configuration queries, and each [`BatchedEq1::eval`] microseconds
/// (see the module docs for the bit-identity contract).
#[derive(Debug)]
pub struct PreparedProfile<P = Arc<ApplicationProfile>> {
    profile: P,
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

impl<P: Deref<Target = ApplicationProfile>> PreparedProfile<P> {
    /// Prepares `profile` with the calibrated [`Knobs::default`].
    ///
    /// # Panics
    ///
    /// Panics if the profile is structurally inconsistent.
    pub fn new(profile: P) -> Self {
        Self::with_knobs(profile, Knobs::default())
    }

    /// Prepares `profile` with explicit calibration `knobs` (the ablation
    /// report's variants): epoch deduplication, stack-distance model
    /// construction and timeline flattening.
    ///
    /// # Panics
    ///
    /// Panics if the profile is structurally inconsistent.
    pub fn with_knobs(profile: P, knobs: Knobs) -> Self {
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
            knobs,
            cells,
            cell_of,
            ranges,
            participants,
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &P {
        &self.profile
    }

    /// Approximate heap + inline size in bytes of the prepared state: the
    /// stack-distance models plus the flattening tables (the profile is
    /// accounted separately). What the profile-once cache adds to a
    /// resident entry's budget.
    pub fn approx_bytes(&self) -> u64 {
        let tables = size_of::<Self>()
            + self.cell_of.capacity() * size_of::<usize>()
            + self.ranges.capacity() * size_of::<(usize, usize)>()
            + self.participants.capacity() * size_of::<(u32, usize)>();
        self.cells
            .iter()
            .map(PreparedEpoch::approx_bytes)
            .sum::<u64>()
            + tables as u64
    }

    /// Creates a reusable batched evaluator borrowing this preparation,
    /// building its interpolation tables.
    ///
    /// The evaluator owns the mutable sweep state (curve tables, rate
    /// memos, cycle buffer, symbolic-execution scratch); create one per
    /// worker thread for parallel sweeps — they share the preparation
    /// read-only.
    pub fn batched(&self) -> BatchedEq1<'_, P> {
        BatchedEq1 {
            prep: self,
            curves: self
                .cells
                .iter()
                .map(|c| EpochCurves::new(c.epoch(&self.profile)))
                .collect(),
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

    /// Calls `f` on each of `jobs.clamp(1, n)` contiguous, near-equal
    /// chunks of `0..n`, each on its own worker thread with its own
    /// [`BatchedEq1`] (which is not `Sync`), and returns the results in
    /// chunk order — so index order, whatever the worker count.
    pub fn batched_chunks<T: Send>(
        &self,
        n: usize,
        jobs: usize,
        f: impl Fn(&mut BatchedEq1<'_, P>, Range<usize>) -> T + Sync,
    ) -> Vec<T>
    where
        P: Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let jobs = jobs.clamp(1, n);
        parallel_map(jobs, jobs, |w| {
            f(&mut self.batched(), w * n / jobs..(w + 1) * n / jobs)
        })
    }

    /// Equation 1 for one cell from the profile's own ILP/MLP curves.
    /// `isolated` answers the LLC from the private histogram: the
    /// single-threaded model of the MAIN/CRIT baselines (no interference,
    /// no coherence awareness beyond what profiling embedded in the
    /// private histogram).
    fn cell_prediction(
        &self,
        cell: &PreparedEpoch,
        config: &MachineConfig,
        isolated: bool,
    ) -> EpochPrediction {
        let epoch = cell.epoch(&self.profile);
        let llc = if isolated {
            &cell.priv_model
        } else {
            &cell.glob_model
        };
        let rates = RawRates {
            r1: cell.priv_model.miss_rate_geom(&config.l1d),
            r2: cell.priv_model.miss_rate_geom(&config.l2),
            r3: llc.miss_rate_geom(&config.l3),
            l1i: cell.icache_model.miss_rate_geom(&config.l1i),
            bmiss: rppm_branch_model::predict_miss_rate(&epoch.branch, &config.bpred),
        };
        predict_epoch_rated(epoch, config, epoch, rates, &self.knobs)
    }

    /// Full prediction for one configuration (Equation 1 per distinct
    /// epoch, then Algorithm 2).
    pub fn predict(&self, config: &MachineConfig) -> Prediction {
        let cell_preds: Vec<EpochPrediction> = self
            .cells
            .iter()
            .map(|c| self.cell_prediction(c, config, false))
            .collect();
        let epoch_preds: Vec<Vec<EpochPrediction>> = self
            .ranges
            .iter()
            .map(|&(off, len)| {
                self.cell_of[off..off + len]
                    .iter()
                    .map(|&c| match c {
                        EMPTY_CELL => empty_epoch_prediction(),
                        c => cell_preds[c].clone(),
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

    /// Per-thread active cycles under the single-threaded model, each the
    /// sum of its epochs' isolated predictions in epoch order.
    fn isolated_active(&self, config: &MachineConfig) -> Vec<f64> {
        let cycles: Vec<f64> = self
            .cells
            .iter()
            .map(|c| self.cell_prediction(c, config, true).cycles)
            .collect();
        self.ranges
            .iter()
            .map(|&(off, len)| {
                self.cell_of[off..off + len]
                    .iter()
                    .map(|&c| if c == EMPTY_CELL { 0.0 } else { cycles[c] })
                    .sum()
            })
            .collect()
    }

    /// The MAIN baseline (Section II-C): the single-threaded model applied
    /// to the main thread only; its active time in cycles.
    pub fn predict_main(&self, config: &MachineConfig) -> f64 {
        self.isolated_active(config)[0]
    }

    /// The CRIT baseline (Section II-C): the single-threaded model applied
    /// to every thread in isolation; the slowest thread's active time in
    /// cycles.
    pub fn predict_crit(&self, config: &MachineConfig) -> f64 {
        self.isolated_active(config).into_iter().fold(0.0, f64::max)
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
/// Owns the per-sweep state: the ILP/MLP curve tables of every distinct
/// epoch, miss-rate columns memoized per distinct cache geometry (and
/// branch-predictor miss rates per distinct predictor), the flat cycle
/// buffer and the symbolic-execution scratch. After the first evaluation
/// of each distinct axis value, an evaluation allocates nothing.
///
/// Not `Sync` by design: create one evaluator per worker thread (they
/// share the read-only [`PreparedProfile`]). Memoized values are pure
/// functions of (epoch, geometry), so every worker computes identical
/// bits.
#[derive(Debug)]
pub struct BatchedEq1<'p, P = Arc<ApplicationProfile>> {
    prep: &'p PreparedProfile<P>,
    /// Interpolation tables, one per cell.
    curves: Vec<EpochCurves>,
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

impl<P: Deref<Target = ApplicationProfile>> BatchedEq1<'_, P> {
    fn ensure_column(&mut self, kind: ModelKind, geom: &CacheGeometry) {
        let cells = &self.prep.cells;
        let map = match kind {
            ModelKind::Private => &mut self.priv_rates,
            ModelKind::Global => &mut self.glob_rates,
            ModelKind::Icache => &mut self.icache_rates,
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
        let profile = &self.prep.profile;
        let cells = &self.prep.cells;
        self.bpred_rates.entry(key).or_insert_with(|| {
            cells
                .iter()
                .map(|c| {
                    rppm_branch_model::predict_miss_rate(&c.epoch(profile).branch, &config.bpred)
                })
                .collect()
        });
    }

    /// Predicted end-to-end execution time in **cycles** for `config` —
    /// bit-identical to [`PreparedProfile::predict`]`(config).total_cycles`.
    /// Seconds follow as [`MachineConfig::cycles_to_seconds`], the same
    /// conversion a full prediction applies.
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

        let prep = self.prep;
        for (i, (cell, curves)) in prep.cells.iter().zip(&self.curves).enumerate() {
            let rates = RawRates {
                r1: r1[i],
                r2: r2[i],
                r3: r3[i],
                l1i: l1i[i],
                bmiss: bmiss[i],
            };
            self.cell_cycles[i] = predict_epoch_rated(
                cell.epoch(&prep.profile),
                config,
                curves,
                rates,
                &prep.knobs,
            )
            .cycles;
        }
        for (slot, &c) in self.cycles.iter_mut().zip(&prep.cell_of) {
            *slot = if c == EMPTY_CELL {
                0.0
            } else {
                self.cell_cycles[c]
            };
        }
        execute_total(
            FlatTimelines {
                cycles: &self.cycles,
                ranges: &prep.ranges,
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

    /// The naive reference predictor every path here is compared against:
    /// each epoch evaluated on its own through
    /// [`predict_epoch`](crate::predict_epoch()) (fresh stack-distance
    /// models, no deduplication, no rate memo, the profile's own ILP/MLP
    /// curves), then Algorithm 2.
    mod naive {
        use crate::eq1::{predict_epoch, EpochPrediction, Knobs};
        use crate::predict::{assemble, Prediction};
        use crate::symexec::{execute, ThreadTimeline};
        use rppm_profiler::{ApplicationProfile, EpochProfile};
        use rppm_trace::MachineConfig;

        /// The full prediction, assembled exactly like the prepared path's.
        pub(super) fn predict(profile: &ApplicationProfile, config: &MachineConfig) -> Prediction {
            let epoch_preds: Vec<Vec<EpochPrediction>> = profile
                .threads
                .iter()
                .map(|t| {
                    t.epochs
                        .iter()
                        .map(|e| predict_epoch(e, config, &Knobs::default()))
                        .collect()
                })
                .collect();
            let timelines: Vec<ThreadTimeline> = profile
                .threads
                .iter()
                .zip(&epoch_preds)
                .map(|(t, preds)| ThreadTimeline {
                    epochs: preds.iter().map(|p| p.cycles).collect(),
                    events: t.events.clone(),
                })
                .collect();
            let schedule = execute(&timelines, config);
            assemble(profile, config, epoch_preds, schedule)
        }

        /// One thread's active time under the single-threaded model: every epoch
        /// with its global histogram replaced by the private one.
        fn isolated_active(epochs: &[EpochProfile], config: &MachineConfig) -> f64 {
            epochs
                .iter()
                .map(|e| {
                    let mut iso = e.clone();
                    iso.global_rd = e.private_rd.clone();
                    predict_epoch(&iso, config, &Knobs::default()).cycles
                })
                .sum()
        }

        /// The MAIN baseline.
        pub(super) fn predict_main(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
            isolated_active(&profile.threads[0].epochs, config)
        }

        /// The CRIT baseline.
        pub(super) fn predict_crit(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
            profile
                .threads
                .iter()
                .map(|t| isolated_active(&t.epochs, config))
                .fold(0.0, f64::max)
        }
    }
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
        assert_eq!(prep.cell_of.len(), total);
        // Workers 0/2 and 1/3 run identical blocks: their epochs collapse.
        assert!(
            prep.cells.len() * 2 <= total,
            "{} distinct of {total}",
            prep.cells.len()
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
            let slow = naive::predict(&prof, &cfg).total_cycles;
            assert_eq!(fast.to_bits(), slow.to_bits(), "{dp}");
        }
        // Second pass through the same evaluator (memos warm, scratch
        // reused): still identical.
        for dp in DesignPoint::ALL {
            let cfg = dp.config();
            assert_eq!(
                batch.eval(&cfg).to_bits(),
                naive::predict(&prof, &cfg).total_cycles.to_bits(),
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
        let slow = naive::predict(&prof, &cfg);
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
                naive::predict_main(&prof, &cfg).to_bits(),
                "{dp} main"
            );
            assert_eq!(
                prep.predict_crit(&cfg).to_bits(),
                naive::predict_crit(&prof, &cfg).to_bits(),
                "{dp} crit"
            );
        }
    }

    #[test]
    fn batched_chunks_cover_the_range_in_order() {
        let prep = PreparedProfile::new(parallel_profile());
        for n in 0..8 {
            for jobs in 1..10 {
                let chunks = prep.batched_chunks(n, jobs, |_, range| range);
                assert_eq!(chunks.len(), if n == 0 { 0 } else { jobs.min(n) });
                assert!(chunks.iter().all(|r| !r.is_empty()), "{n} over {jobs}");
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "{n} over {jobs}");
            }
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
                naive::predict(&prof, &cfg).total_cycles.to_bits(),
                "{}",
                cfg.name
            );
        }
    }
}
