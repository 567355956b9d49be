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
//!   counts consumed by the symbolic execution,
//! * keeps the miss-rate columns its evaluators compute (see below).
//!
//! The profile-once cache (`crate::cache`) builds one preparation per
//! profiling run, so [`PreparedProfile::predict`] on a resident profile
//! costs Equation 1 and Algorithm 2 only, plus the miss-rate queries the
//! first time a cache geometry or predictor is asked for. The free
//! functions [`predict`](crate::predict()),
//! [`predict_main`](crate::predict_main()) and
//! [`predict_crit`](crate::predict_crit()) prepare and evaluate in one call
//! for one-shot use.
//!
//! # One evaluator
//!
//! [`BatchedEq1`] is the only evaluator over a preparation. Every
//! prediction goes through it: the full [`BatchedEq1::predict`], the
//! MAIN/CRIT baselines ([`PreparedProfile::predict_main`],
//! [`PreparedProfile::predict_crit`]) and the cycles-only
//! [`BatchedEq1::eval`] of the design-space pass. It reads the StatStack
//! and branch-predictor answers as columns, one `f64` per distinct epoch
//! for each distinct cache geometry and predictor (design spaces, and the
//! five Table IV points, reuse a handful of axis values), runs one per-cell
//! Equation-1 loop over those columns, and runs Algorithm 2 on the
//! preparation's flat timelines in one reusable cycle buffer and
//! `SymScratch`. After the first evaluation of each distinct axis value,
//! [`BatchedEq1::eval`] allocates nothing and takes no lock.
//!
//! # Where the columns live
//!
//! The preparation owns the columns: a memo behind a mutex, mapping each
//! geometry (per stack-distance model) and each predictor to a shared
//! column. An evaluator takes a column from the memo, or computes it
//! outside the lock and publishes it; it then holds its own handle, so the
//! design-space pass reads columns without locking. The memo keeps at most
//! 16 columns of each kind (private, global, instruction, predictor), a
//! constant, and [`PreparedProfile::approx_bytes`] counts it full, so a
//! resident entry's budget does not move as it answers requests. Beyond
//! the cap, columns stay with the evaluator that computed them. So every
//! request on a resident profile, every evaluator of a sweep and every
//! session entry share one set of columns, computed once.
//!
//! Creating an evaluator costs little next to a prediction: it keeps no
//! per-epoch tables, interpolates the profile's own ILP/MLP curves with the
//! grid logarithms ([`GridLogs`]) it takes once, and finds its columns in
//! the memo. [`PreparedProfile::predict`],
//! [`PreparedProfile::predict_main`] and [`PreparedProfile::predict_crit`]
//! each create one for a single call; [`PreparedProfile::batched_chunks`]
//! is the one parallel fan-out over evaluators, shared by the
//! design-space pass ([`sweep`](crate::sweep()),
//! [`find_best`](crate::find_best())) and the session's sweeps and
//! batches.
//!
//! **Bit-identity contract**: the evaluator feeds the same
//! [`predict_epoch_rated`] arithmetic body, the same interpolation and the
//! same symbolic-execution engine as the naive reference, which rebuilds
//! every epoch's models through [`predict_epoch`](crate::predict_epoch())
//! with no deduplication and no memo; a memoized column is a pure function
//! of (epoch, geometry). So [`BatchedEq1::eval`] equals
//! [`PreparedProfile::predict`]`(...).total_cycles` to the last bit, and
//! every prediction equals the naive one field by field, whatever the
//! order of the calls an evaluator serves (pinned by the `dse_equivalence`
//! differential property suite).
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
//! let mut batch = prepared.batched();                  // one evaluator
//! for dp in DesignPoint::ALL {
//!     let cfg = dp.config();
//!     let fast = batch.eval(&cfg);                     // microseconds
//!     let full = prepared.predict(&cfg).total_cycles;
//!     assert_eq!(fast.to_bits(), full.to_bits());
//! }
//! ```

use crate::eq1::{empty_epoch_prediction, predict_epoch_rated, EpochPrediction, Knobs, RawRates};
use crate::predict::{assemble, Prediction};
use crate::symexec::{execute_flat, execute_total, FlatTimelines, SymScratch};
use rppm_profiler::{ApplicationProfile, EpochProfile, GridLogs};
use rppm_statstack::{FxHashMap, FxHasher, StackDistanceModel};
use rppm_trace::par::parallel_map;
use rppm_trace::{barrier_participants, CacheGeometry, MachineConfig, SyncOp};
use std::collections::HashMap;
use std::hash::Hasher;
use std::mem::size_of;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

    fn model(&self, kind: ModelKind) -> &StackDistanceModel {
        match kind {
            ModelKind::Private => &self.priv_model,
            ModelKind::Global => &self.glob_model,
            ModelKind::Icache => &self.icache_model,
        }
    }

    fn approx_bytes(&self) -> u64 {
        self.priv_model.approx_bytes()
            + self.glob_model.approx_bytes()
            + self.icache_model.approx_bytes()
            + 2 * size_of::<usize>() as u64
    }
}

/// A hash of `epoch` that agrees with `EpochProfile`'s `==`: equal epochs
/// hash equally, because only fields `==` compares go in. It takes the
/// counts and the two branch-resolution floats (by bit pattern, `-0.0`
/// folded into `0.0`, which compare equal; a NaN equals nothing, so its
/// hash does not matter) and leaves the curves and histogram buckets to
/// `==`: cheap enough for a profile of a few epochs, and epochs that
/// agree on every count rarely differ elsewhere.
fn content_hash(epoch: &EpochProfile) -> u64 {
    let mut h = FxHasher::default();
    for n in epoch.mix {
        h.write_u64(n);
    }
    let b = &epoch.branch;
    for n in [epoch.ops, epoch.accesses, epoch.stores, epoch.code_fetches]
        .into_iter()
        .chain([b.branches, b.patterns, u64::from(b.static_sites)])
    {
        h.write_u64(n);
    }
    for rd in [&epoch.private_rd, &epoch.global_rd, &epoch.icache_rd] {
        h.write_u64(rd.cold);
        h.write_u64(rd.invalidated);
        h.write_u64(rd.total_finite());
    }
    for x in [epoch.branch_depth, epoch.branch_slice_loads] {
        h.write_u64(if x == 0.0 { 0 } else { x.to_bits() });
    }
    h.finish()
}

/// A profile with all configuration-independent prediction work done.
///
/// `P` is how the preparation holds its profile: an [`Arc`] for a
/// preparation that outlives its caller (the profile-once cache keeps one
/// per resident profile), a plain reference for the one-shot free
/// functions. Construction costs about one prediction's worth of model
/// building; each subsequent [`PreparedProfile::predict`] costs Equation 1
/// and Algorithm 2, plus the miss-rate queries of a cache geometry or
/// predictor the preparation has not answered yet, and each
/// [`BatchedEq1::eval`] microseconds (see the module docs for the
/// bit-identity contract).
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
    /// The rate columns every evaluator of this preparation reads, up to
    /// [`SHARED_COLUMNS`] of each kind; beyond that, columns stay with the
    /// evaluator that computed them. A column is a pure function of
    /// (cells, key), so whichever evaluator publishes one first, every
    /// other would have computed the same bits.
    shared: Mutex<FxHashMap<ColumnKey, Column>>,
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
        // Cells by content hash: the newest cell with each hash, and per
        // cell the previous one with its hash. An epoch is compared with
        // `==` only to the representatives of its own hash.
        let mut newest: FxHashMap<u64, usize> = FxHashMap::default();
        let mut older: Vec<Option<usize>> = Vec::new();
        let mut cell_of = Vec::new();
        let mut ranges = Vec::new();
        for (t, thread) in profile.threads.iter().enumerate() {
            ranges.push((cell_of.len(), thread.epochs.len()));
            for (e, epoch) in thread.epochs.iter().enumerate() {
                if epoch.ops == 0 {
                    cell_of.push(EMPTY_CELL);
                    continue;
                }
                let hash = content_hash(epoch);
                let mut same_hash = newest.get(&hash).copied();
                while let Some(c) = same_hash.filter(|&c| reps[c] != epoch) {
                    same_hash = older[c];
                }
                let cell = match same_hash {
                    Some(c) => c,
                    None => {
                        older.push(newest.insert(hash, cells.len()));
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
            shared: Mutex::default(),
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &P {
        &self.profile
    }

    /// Approximate heap + inline size in bytes of the prepared state: the
    /// stack-distance models, the flattening tables and the shared rate
    /// columns at their cap (the profile is accounted separately). What the
    /// profile-once cache adds to a resident entry's budget; predictions
    /// do not change it.
    pub fn approx_bytes(&self) -> u64 {
        let column = size_of::<(ColumnKey, Column)>()
            + 2 * size_of::<usize>()
            + self.cells.len() * size_of::<f64>();
        let tables = size_of::<Self>()
            + self.cell_of.capacity() * size_of::<usize>()
            + self.ranges.capacity() * size_of::<(usize, usize)>()
            + self.participants.capacity() * size_of::<(u32, usize)>()
            + COLUMN_KINDS * SHARED_COLUMNS * column;
        self.cells
            .iter()
            .map(PreparedEpoch::approx_bytes)
            .sum::<u64>()
            + tables as u64
    }

    /// The shared rate columns. Every change to them is one map insert, so
    /// a panic elsewhere while the lock was held leaves them whole and a
    /// poisoned lock is read as is.
    fn shared(&self) -> MutexGuard<'_, FxHashMap<ColumnKey, Column>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a reusable evaluator borrowing this preparation.
    ///
    /// The evaluator owns the mutable evaluation state (handles on the rate
    /// columns it reads, cycle buffers, symbolic-execution scratch); create
    /// one per worker thread for parallel sweeps — they share the
    /// preparation and its rate columns.
    pub fn batched(&self) -> BatchedEq1<'_, P> {
        BatchedEq1 {
            prep: self,
            logs: GridLogs::new(),
            events: self
                .profile
                .threads
                .iter()
                .map(|t| t.events.as_slice())
                .collect(),
            columns: FxHashMap::default(),
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

    /// Full prediction for one configuration (Equation 1 per distinct
    /// epoch, then Algorithm 2); see [`BatchedEq1::predict`].
    pub fn predict(&self, config: &MachineConfig) -> Prediction {
        self.batched().predict(config)
    }

    /// The MAIN baseline (Section II-C): the single-threaded model applied
    /// to the main thread only; its active time in cycles.
    pub fn predict_main(&self, config: &MachineConfig) -> f64 {
        self.batched().predict_main(config)
    }

    /// The CRIT baseline (Section II-C): the single-threaded model applied
    /// to every thread in isolation; the slowest thread's active time in
    /// cycles.
    pub fn predict_crit(&self, config: &MachineConfig) -> f64 {
        self.batched().predict_crit(config)
    }
}

/// Memo key for a cache-geometry-dependent miss-rate column: everything
/// [`StackDistanceModel::miss_rate_geom`] reads from the geometry.
type GeomKey = (u64, u32, u32);

fn geom_key(g: &CacheGeometry) -> GeomKey {
    (g.size_bytes, g.assoc, g.line_bytes)
}

/// Which stack-distance model a rate column is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ModelKind {
    Private,
    Global,
    Icache,
}

/// A rate column: one miss rate per cell, in cell order.
type Column = Arc<[f64]>;

/// What a rate column answers: one stack-distance model at one cache
/// geometry, or the branch model at one predictor `(size_bytes,
/// history_bits)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ColumnKey {
    Cache(ModelKind, GeomKey),
    Bpred(u32, u32),
}

/// The kinds of rate column: the three stack-distance models and the
/// branch model.
const COLUMN_KINDS: usize = 4;

impl ColumnKey {
    fn kind(self) -> usize {
        match self {
            ColumnKey::Cache(kind, _) => kind as usize,
            ColumnKey::Bpred(..) => COLUMN_KINDS - 1,
        }
    }
}

/// Most rate columns of each kind a preparation keeps for all its
/// evaluators. The Table IV points need three private columns and one of
/// every other kind; the default design space at most 12 of a kind.
const SHARED_COLUMNS: usize = 16;

/// The evaluator over a [`PreparedProfile`]: every prediction goes through
/// one (see the module docs).
///
/// Owns the evaluation state: handles on the miss-rate columns (one `f64`
/// per distinct epoch) it has read, per distinct cache geometry and
/// predictor, the per-cell and flat cycle buffers, and the
/// symbolic-execution scratch. A column comes from the preparation's
/// shared memo, or is computed here and published to it while it has room.
/// After the first evaluation of each distinct axis value,
/// [`BatchedEq1::eval`] allocates nothing and takes no lock.
///
/// Not `Sync` by design: create one evaluator per worker thread (they
/// share the [`PreparedProfile`]). Memoized values are pure functions of
/// (epoch, geometry), so every worker computes identical bits.
#[derive(Debug)]
pub struct BatchedEq1<'p, P = Arc<ApplicationProfile>> {
    prep: &'p PreparedProfile<P>,
    /// The grid logarithms every interpolation reads.
    logs: GridLogs,
    /// Per-thread event slices for the borrowed flat-timeline view.
    events: Vec<&'p [SyncOp]>,
    /// The rate columns this evaluator has read.
    columns: FxHashMap<ColumnKey, Column>,
    /// Per-cell predicted cycles for the configuration being evaluated.
    cell_cycles: Vec<f64>,
    /// Flat per-epoch cycle buffer fed to the symbolic execution.
    cycles: Vec<f64>,
    scratch: SymScratch,
}

impl<P: Deref<Target = ApplicationProfile>> BatchedEq1<'_, P> {
    /// Makes column `key` this evaluator's: the shared memo's if it has
    /// it, else `rate` of every cell, published to the memo while the
    /// memo has room for its kind (a column published meanwhile by another
    /// evaluator wins; its bits are the same).
    fn ensure(&mut self, key: ColumnKey, rate: impl Fn(&PreparedEpoch) -> f64) {
        if self.columns.contains_key(&key) {
            return;
        }
        let prep = self.prep;
        let found = prep.shared().get(&key).cloned();
        let column = found.unwrap_or_else(|| {
            let column: Column = prep.cells.iter().map(rate).collect();
            let mut shared = prep.shared();
            if let Some(first) = shared.get(&key) {
                return first.clone();
            }
            let kind = key.kind();
            if shared.keys().filter(|k| k.kind() == kind).count() < SHARED_COLUMNS {
                shared.insert(key, column.clone());
            }
            column
        });
        self.columns.insert(key, column);
    }

    /// Equation 1 for every cell at `config`, from the memoized columns,
    /// into `cell_cycles`; `keep` also receives every cell's prediction, in
    /// cell order. `isolated` answers the LLC from the private model's
    /// column at the L3 geometry: the single-threaded model of the
    /// MAIN/CRIT baselines (no interference, no coherence awareness beyond
    /// what profiling embedded in the private histogram).
    fn eq1(
        &mut self,
        config: &MachineConfig,
        isolated: bool,
        mut keep: Option<&mut Vec<EpochPrediction>>,
    ) {
        let llc = if isolated {
            ModelKind::Private
        } else {
            ModelKind::Global
        };
        let caches = [
            (ModelKind::Private, &config.l1d),
            (ModelKind::Private, &config.l2),
            (llc, &config.l3),
            (ModelKind::Icache, &config.l1i),
        ]
        .map(|(kind, geom)| {
            let key = ColumnKey::Cache(kind, geom_key(geom));
            self.ensure(key, |c| c.model(kind).miss_rate_geom(geom));
            key
        });
        let prep = self.prep;
        let bpred = ColumnKey::Bpred(config.bpred.size_bytes, config.bpred.history_bits);
        self.ensure(bpred, |c| {
            rppm_branch_model::predict_miss_rate(&c.epoch(&prep.profile).branch, &config.bpred)
        });
        let [r1, r2, r3, l1i] = caches.map(|key| &self.columns[&key]);
        let bmiss = &self.columns[&bpred];

        for (i, cell) in prep.cells.iter().enumerate() {
            let rates = RawRates {
                r1: r1[i],
                r2: r2[i],
                r3: r3[i],
                l1i: l1i[i],
                bmiss: bmiss[i],
            };
            let p = predict_epoch_rated(
                cell.epoch(&prep.profile),
                config,
                &self.logs,
                rates,
                &prep.knobs,
            );
            self.cell_cycles[i] = p.cycles;
            if let Some(keep) = keep.as_deref_mut() {
                keep.push(p);
            }
        }
    }

    /// Spreads the cell cycles over the flat epoch buffer (an empty epoch
    /// takes 0) and hands the preparation's flat timelines to `run`, one
    /// of Algorithm 2's flat entries.
    fn symexec<T>(&mut self, run: impl FnOnce(FlatTimelines<'_>, &mut SymScratch) -> T) -> T {
        let prep = self.prep;
        for (slot, &c) in self.cycles.iter_mut().zip(&prep.cell_of) {
            *slot = if c == EMPTY_CELL {
                0.0
            } else {
                self.cell_cycles[c]
            };
        }
        let flat = FlatTimelines {
            cycles: &self.cycles,
            ranges: &prep.ranges,
            events: &self.events,
        };
        run(flat, &mut self.scratch)
    }

    /// Predicted end-to-end execution time in **cycles** for `config` —
    /// bit-identical to [`BatchedEq1::predict`]`(config).total_cycles`.
    /// Seconds follow as [`MachineConfig::cycles_to_seconds`], the same
    /// conversion a full prediction applies.
    pub fn eval(&mut self, config: &MachineConfig) -> f64 {
        self.eq1(config, false, None);
        self.symexec(|tl, scratch| execute_total(tl, config, scratch))
    }

    /// Evaluates a vector of configurations, writing predicted cycles into
    /// `out` (cleared first). `out`'s capacity is reused across calls.
    pub fn eval_into(&mut self, configs: &[MachineConfig], out: &mut Vec<f64>) {
        out.clear();
        out.extend(configs.iter().map(|c| self.eval(c)));
    }

    /// The full prediction for `config`: Equation 1 per distinct epoch,
    /// then Algorithm 2 with each thread's active intervals, assembled with
    /// every epoch's prediction.
    pub fn predict(&mut self, config: &MachineConfig) -> Prediction {
        let mut cells = Vec::with_capacity(self.prep.cells.len());
        self.eq1(config, false, Some(&mut cells));
        let schedule = self.symexec(|tl, scratch| execute_flat(tl, config, scratch));
        let prep = self.prep;
        let epochs = prep
            .ranges
            .iter()
            .map(|&(off, len)| {
                prep.cell_of[off..off + len]
                    .iter()
                    .map(|&c| match c {
                        EMPTY_CELL => empty_epoch_prediction(),
                        c => cells[c].clone(),
                    })
                    .collect()
            })
            .collect();
        assemble(&prep.profile, config, epochs, schedule)
    }

    /// One thread's active cycles under the single-threaded model after an
    /// isolated [`eq1`](Self::eq1): the sum of its epochs' predictions in
    /// epoch order. `(off, len)` is its range of the flat epoch order.
    fn isolated_cycles(&self, (off, len): (usize, usize)) -> f64 {
        self.prep.cell_of[off..off + len]
            .iter()
            .map(|&c| {
                if c == EMPTY_CELL {
                    0.0
                } else {
                    self.cell_cycles[c]
                }
            })
            .sum()
    }

    /// [`PreparedProfile::predict_main`] in this evaluator.
    pub(crate) fn predict_main(&mut self, config: &MachineConfig) -> f64 {
        self.eq1(config, true, None);
        self.prep
            .ranges
            .first()
            .map_or(0.0, |&range| self.isolated_cycles(range))
    }

    /// [`PreparedProfile::predict_crit`] in this evaluator.
    pub(crate) fn predict_crit(&mut self, config: &MachineConfig) -> f64 {
        self.eq1(config, true, None);
        self.prep
            .ranges
            .iter()
            .map(|&range| self.isolated_cycles(range))
            .fold(0.0, f64::max)
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
    use rppm_profiler::{profile, ThreadProfile};
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
    fn cells_match_a_linear_search() {
        let prof = parallel_profile();
        let base = prof.threads[1].epochs[0].clone();
        assert!(base.ops > 0 && base.branch_depth != 0.0);
        // Near-duplicates: one extra reuse in one histogram bucket (two
        // different buckets), and a float that differs only in its sign
        // of zero (equal under `==`, so it must share a cell).
        let variant = |f: &dyn Fn(&mut EpochProfile)| {
            let mut e = base.clone();
            f(&mut e);
            e
        };
        let near = variant(&|e| e.private_rd.record(5));
        let far = variant(&|e| e.private_rd.record(5000));
        let zero = variant(&|e| e.branch_depth = 0.0);
        let negative_zero = variant(&|e| e.branch_depth = -0.0);
        let empty = EpochProfile::default();
        let mut epochs = vec![
            base.clone(),
            near.clone(),
            far.clone(),
            empty,
            zero,
            negative_zero,
            near,
            base,
            far,
        ];
        epochs.extend(prof.threads.iter().flat_map(|t| t.epochs.clone()));
        let mut threads = vec![ThreadProfile {
            events: vec![
                SyncOp::Barrier {
                    id: 7.into(),
                    via_cond: false,
                };
                epochs.len() - 1
            ],
            epochs,
        }];
        threads.extend(prof.threads.iter().cloned());
        let prof = ApplicationProfile {
            name: "near-duplicates".to_string(),
            threads,
        };
        // The linear search the hashed buckets replace.
        let mut reps: Vec<&EpochProfile> = Vec::new();
        let linear: Vec<usize> = prof
            .threads
            .iter()
            .flat_map(|t| &t.epochs)
            .map(|e| {
                if e.ops == 0 {
                    return EMPTY_CELL;
                }
                reps.iter().position(|r| *r == e).unwrap_or_else(|| {
                    reps.push(e);
                    reps.len() - 1
                })
            })
            .collect();
        let prep = PreparedProfile::new(&prof);
        assert_eq!(prep.cell_of, linear);
        assert_eq!(prep.cells.len(), reps.len());
        assert_eq!(prep.cell_of[..9], [0, 1, 2, EMPTY_CELL, 3, 3, 1, 0, 2]);
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
    fn one_evaluator_serves_every_entry_interleaved() {
        // One evaluator, its memos filled by whichever entry comes first:
        // full predictions, cycles and baselines stay equal to the naive
        // reference in any order.
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let mut batch = prep.batched();
        for round in 0..2 {
            for (i, dp) in DesignPoint::ALL.iter().enumerate() {
                let cfg = dp.config();
                let main = naive::predict_main(&prof, &cfg).to_bits();
                let crit = naive::predict_crit(&prof, &cfg).to_bits();
                if (i + round) % 2 == 0 {
                    assert_eq!(batch.predict_main(&cfg).to_bits(), main, "{dp}");
                }
                let full = batch.predict(&cfg);
                let slow = naive::predict(&prof, &cfg);
                assert_eq!(full.total_cycles.to_bits(), slow.total_cycles.to_bits());
                assert_eq!(batch.eval(&cfg).to_bits(), slow.total_cycles.to_bits());
                assert_eq!(batch.predict_crit(&cfg).to_bits(), crit, "{dp}");
                assert_eq!(batch.predict_main(&cfg).to_bits(), main, "{dp}");
                for (f, s) in full.threads.iter().zip(&slow.threads) {
                    assert_eq!(f.epochs, s.epochs, "{dp}");
                    assert_eq!(f.finish.to_bits(), s.finish.to_bits(), "{dp}");
                }
                assert_eq!(full.intervals, slow.intervals, "{dp}");
            }
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
    fn shared_memo_stops_at_its_cap_and_keeps_its_byte_count() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let bytes = prep.approx_bytes();
        // Distinct values of every kind, well past the cap: private (L1D,
        // L2), global (L3), instruction (L1I) and predictor columns.
        let configs: Vec<MachineConfig> = (0..SHARED_COLUMNS as u64 + 5)
            .map(|k| {
                let mut c = DesignPoint::Base.config();
                c.name = format!("distinct-{k}");
                c.l1d = CacheGeometry::new((4 + k) << 10, 4, 64, 4);
                c.l2 = CacheGeometry::new((64 + k) << 10, 8, 64, 12);
                c.l3 = CacheGeometry::new((1024 + k) << 10, 16, 64, 35);
                c.l1i = CacheGeometry::new((8 + k) << 10, 4, 64, 3);
                c.bpred.size_bytes = 1024 + 64 * k as u32;
                c
            })
            .collect();
        for (round, cfg) in configs.iter().chain(&configs).enumerate() {
            // Alternate a fresh evaluator per call with one long-lived
            // evaluator: both read and fill the one memo.
            let slow = naive::predict(&prof, cfg).total_cycles.to_bits();
            assert_eq!(prep.predict(cfg).total_cycles.to_bits(), slow, "{round}");
            assert_eq!(prep.batched().eval(cfg).to_bits(), slow, "{round}");
            assert_eq!(prep.approx_bytes(), bytes, "{round}");
        }
        let shared = prep.shared();
        assert_eq!(shared.len(), COLUMN_KINDS * SHARED_COLUMNS);
        for kind in 0..COLUMN_KINDS {
            let n = shared.keys().filter(|k| k.kind() == kind).count();
            assert_eq!(n, SHARED_COLUMNS, "kind {kind}");
        }
    }

    #[test]
    fn every_evaluator_reads_the_columns_of_the_first() {
        let prep = PreparedProfile::new(parallel_profile());
        let cfg = DesignPoint::Base.config();
        let mut first = prep.batched();
        let cycles = first.eval(&cfg);
        let mut second = prep.batched();
        assert_eq!(second.eval(&cfg).to_bits(), cycles.to_bits());
        assert_eq!(first.columns.len(), 5);
        for (key, column) in &first.columns {
            assert!(Arc::ptr_eq(column, &second.columns[key]), "{key:?}");
        }
    }

    #[test]
    fn a_poisoned_memo_still_answers() {
        let prof = parallel_profile();
        let prep = PreparedProfile::new(Arc::clone(&prof));
        let cfg = DesignPoint::Big.config();
        let before = prep.predict(&cfg).total_cycles.to_bits();
        std::thread::scope(|s| {
            let poison = s.spawn(|| {
                let _held = prep.shared.lock().unwrap();
                panic!("poison the memo");
            });
            assert!(poison.join().is_err());
        });
        assert!(prep.shared.is_poisoned());
        assert_eq!(prep.predict(&cfg).total_cycles.to_bits(), before);
        let base = DesignPoint::Base.config();
        assert_eq!(
            prep.predict(&base).total_cycles.to_bits(),
            naive::predict(&prof, &base).total_cycles.to_bits()
        );
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
