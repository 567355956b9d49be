//! Design-space exploration: from the Table V case study to million-point
//! sweeps.
//!
//! RPPM's purpose is fast design-space pruning: predict all design points
//! from one profile, keep those within a bound of the predicted optimum,
//! then (optionally) simulate only the survivors. This module supplies the
//! whole pipeline:
//!
//! * [`ConfigSpace`] — a cross-product enumeration of machine
//!   configurations (core family × cache sizes × MSHRs × predictor budget)
//!   that materializes points lazily, so 10⁵–10⁶-point spaces cost nothing
//!   to describe;
//! * [`area_proxy`] / [`power_proxy`] and [`Constraints`] — first-order
//!   resource proxies used as feasibility filters (silicon-accurate
//!   area/power models are out of scope; these are monotone-in-resources
//!   stand-ins, in arbitrary units);
//! * [`find_best`] and [`sweep`] — one evaluation pass: every feasible
//!   point through [`PreparedProfile::batched_chunks`], with **early
//!   pruning** of points whose admissible lower bound already lies outside
//!   the bound around the running optimum. [`sweep`] runs it at an infinite
//!   bound, which never prunes, and adds the Pareto frontier over (time,
//!   area, power) and per-bound candidate counts;
//! * [`evaluate_choice`] / [`dse_row`] — the paper's deficiency metric:
//!   how much slower the model-chosen design is than the true (simulated)
//!   optimum, at the [`TABLE_V_BOUNDS`] rungs.
//!
//! Every candidate test is one rule: within `best × (1 + bound)` plus a
//! `1e-12` epsilon.

use crate::prepared::PreparedProfile;
use rppm_trace::{BranchPredictorConfig, CacheGeometry, MachineConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// The paper's Table V bounds: keep every design predicted within 0, 1, 3
/// or 5% of the predicted optimum.
pub const TABLE_V_BOUNDS: [f64; 4] = [0.0, 0.01, 0.03, 0.05];

/// Candidate-set slack: absolute epsilon added to the relative bound so a
/// design predicted *exactly* at the boundary stays a candidate despite
/// floating-point rounding of `best × (1 + bound)`.
const BOUND_EPSILON: f64 = 1e-12;

/// The largest predicted time that is still a candidate at `bound` around
/// the optimum `best`. Infinite for an infinite `bound` (NaN when `best` is
/// 0), so no time compares above it.
fn limit(best: f64, bound: f64) -> f64 {
    best * (1.0 + bound) + BOUND_EPSILON
}

/// Typed failure of a design-space operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DseError {
    /// The design space has no points at all.
    EmptySpace,
    /// `predicted` and `simulated` describe different design spaces.
    MismatchedLengths {
        /// Number of predicted execution times.
        predicted: usize,
        /// Number of simulated execution times.
        simulated: usize,
    },
    /// The constraint filter eliminated every point of the space.
    NoFeasiblePoint {
        /// Size of the (nonempty) space that was filtered.
        points: usize,
    },
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::EmptySpace => write!(f, "empty design space"),
            DseError::MismatchedLengths {
                predicted,
                simulated,
            } => write!(
                f,
                "mismatched design spaces: {predicted} predicted vs {simulated} simulated points"
            ),
            DseError::NoFeasiblePoint { points } => write!(
                f,
                "no feasible design point: the constraints eliminated all {points} points"
            ),
        }
    }
}

impl std::error::Error for DseError {}

/// Outcome of a model-guided design choice at one bound.
#[derive(Debug, Clone, PartialEq)]
pub struct DseChoice {
    /// Indices of the design points within the bound of the predicted
    /// optimum (the candidate set simulation would re-evaluate).
    pub candidates: Vec<usize>,
    /// Index of the design chosen: the *simulated*-best candidate.
    pub chosen: usize,
    /// Relative slowdown of the chosen design versus the true optimum
    /// (0 when the model's candidate set contains the true optimum).
    pub deficiency: f64,
}

/// Evaluates a model-guided design choice.
///
/// `predicted[i]` and `simulated[i]` are execution times of design point
/// `i`. `bound` is the relative slack around the predicted optimum
/// (e.g. `0.01` keeps every design predicted within 1% of the best
/// prediction). A design predicted exactly on the boundary is a candidate
/// (the comparison carries a `1e-12` absolute epsilon for the rounding of
/// `best × (1 + bound)`).
///
/// # Errors
///
/// [`DseError::EmptySpace`] if the slices are empty,
/// [`DseError::MismatchedLengths`] if they disagree in length.
pub fn evaluate_choice(
    predicted: &[f64],
    simulated: &[f64],
    bound: f64,
) -> Result<DseChoice, DseError> {
    if predicted.len() != simulated.len() {
        return Err(DseError::MismatchedLengths {
            predicted: predicted.len(),
            simulated: simulated.len(),
        });
    }
    if predicted.is_empty() {
        return Err(DseError::EmptySpace);
    }

    let best_pred = predicted.iter().cloned().fold(f64::MAX, f64::min);
    let candidates: Vec<usize> = predicted
        .iter()
        .enumerate()
        .filter(|(_, &p)| p <= limit(best_pred, bound))
        .map(|(i, _)| i)
        .collect();

    let chosen = candidates
        .iter()
        .copied()
        .min_by(|&a, &b| simulated[a].total_cmp(&simulated[b]))
        .expect("candidate set nonempty");

    let true_best = simulated.iter().cloned().fold(f64::MAX, f64::min);
    let deficiency = (simulated[chosen] - true_best) / true_best;

    Ok(DseChoice {
        candidates,
        chosen,
        deficiency: deficiency.max(0.0),
    })
}

/// One benchmark's row in Table V: deficiency and candidate count at each
/// bound.
#[derive(Debug, Clone, PartialEq)]
pub struct DseRow {
    /// Benchmark name.
    pub name: String,
    /// `(bound, deficiency, candidate count)` per evaluated bound.
    pub cells: Vec<(f64, f64, usize)>,
}

/// Builds a Table V row for one benchmark.
///
/// # Errors
///
/// Propagates [`evaluate_choice`]'s errors.
pub fn dse_row(
    name: &str,
    predicted: &[f64],
    simulated: &[f64],
    bounds: &[f64],
) -> Result<DseRow, DseError> {
    let cells = bounds
        .iter()
        .map(|&b| {
            evaluate_choice(predicted, simulated, b).map(|c| (b, c.deficiency, c.candidates.len()))
        })
        .collect::<Result<_, _>>()?;
    Ok(DseRow {
        name: name.to_string(),
        cells,
    })
}

/// One value of the core axis: frequency, pipeline width and window size
/// vary together (the issue queue and functional-unit mix are derived from
/// the width the same way the Table IV design points derive them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreFamily {
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Dispatch width in micro-ops per cycle.
    pub width: u32,
    /// Reorder-buffer capacity in micro-ops.
    pub rob: u32,
}

/// A cross-product design space over a base [`MachineConfig`].
///
/// Points are enumerated lazily by mixed-radix index decoding
/// ([`ConfigSpace::config`]), so describing a 10⁵-point space allocates a
/// handful of axis vectors, never 10⁵ configurations. Axis values replace
/// the corresponding base-configuration fields; every other parameter is
/// inherited from the base.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    base: MachineConfig,
    /// Core-family axis (frequency × width × ROB, jointly).
    pub cores: Vec<CoreFamily>,
    /// L1 capacity axis in KiB (applied to both L1I and L1D).
    pub l1_kb: Vec<u32>,
    /// L2 capacity axis in KiB.
    pub l2_kb: Vec<u32>,
    /// L3 capacity axis in MiB.
    pub l3_mb: Vec<u32>,
    /// MSHR-count axis.
    pub mshrs: Vec<u32>,
    /// Branch-predictor budget axis in KiB.
    pub bpred_kb: Vec<u32>,
}

impl ConfigSpace {
    /// The default exploration space of `rppm dse` around the Table IV base
    /// configuration; see [`ConfigSpace::default_space_from`].
    pub fn default_space() -> Self {
        Self::default_space_from(rppm_trace::DesignPoint::Base.config())
    }

    /// The default exploration space of `rppm dse` around an arbitrary base
    /// configuration: the five Table IV core sizings crossed with six
    /// frequencies (decoupled, unlike the constant-peak Table IV line), six
    /// L1/L2 capacities, five L3 capacities, five MSHR counts and four
    /// predictor budgets — 108 000 points. Parameters without an axis
    /// (core count, latencies, associativities, ...) come from `base`.
    pub fn default_space_from(base: MachineConfig) -> Self {
        let mut cores = Vec::new();
        for &(width, rob) in &[(2u32, 32u32), (3, 72), (4, 128), (5, 200), (6, 288)] {
            for &freq_ghz in &[1.66, 2.0, 2.5, 3.0, 3.33, 5.0] {
                cores.push(CoreFamily {
                    freq_ghz,
                    width,
                    rob,
                });
            }
        }
        ConfigSpace {
            base,
            cores,
            l1_kb: vec![8, 16, 32, 64, 128, 256],
            l2_kb: vec![128, 256, 512, 1024, 2048, 4096],
            l3_mb: vec![2, 4, 8, 16, 32],
            mshrs: vec![4, 8, 12, 16, 24],
            bpred_kb: vec![2, 4, 8, 16],
        }
    }

    /// The fixed 12-point space of the `dse` golden report around the
    /// Table IV base configuration; see [`ConfigSpace::tiny_from`].
    pub fn tiny() -> Self {
        Self::tiny_from(rppm_trace::DesignPoint::Base.config())
    }

    /// The fixed 12-point space of the `dse` golden report around an
    /// arbitrary base: three Table IV core sizings × two L3 capacities ×
    /// two MSHR counts. Small enough to simulate every point for
    /// ground-truth deficiency.
    pub fn tiny_from(base: MachineConfig) -> Self {
        ConfigSpace {
            base,
            cores: vec![
                CoreFamily {
                    freq_ghz: 5.0,
                    width: 2,
                    rob: 32,
                },
                CoreFamily {
                    freq_ghz: 2.5,
                    width: 4,
                    rob: 128,
                },
                CoreFamily {
                    freq_ghz: 1.66,
                    width: 6,
                    rob: 288,
                },
            ],
            l1_kb: vec![32],
            l2_kb: vec![256],
            l3_mb: vec![4, 8],
            mshrs: vec![8, 16],
            bpred_kb: vec![4],
        }
    }

    /// The base configuration axis values are applied onto.
    pub fn base(&self) -> &MachineConfig {
        &self.base
    }

    /// Number of points in the space (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.cores.len()
            * self.l1_kb.len()
            * self.l2_kb.len()
            * self.l3_mb.len()
            * self.mshrs.len()
            * self.bpred_kb.len()
    }

    /// Whether any axis is empty (making the space empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes point `i` (mixed-radix decoding, `i < len()`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn config(&self, i: usize) -> MachineConfig {
        assert!(i < self.len(), "design-point index out of range");
        let mut rest = i;
        let mut take = |n: usize| {
            let k = rest % n;
            rest /= n;
            k
        };
        let bpred_kb = self.bpred_kb[take(self.bpred_kb.len())];
        let mshrs = self.mshrs[take(self.mshrs.len())];
        let l3_mb = self.l3_mb[take(self.l3_mb.len())];
        let l2_kb = self.l2_kb[take(self.l2_kb.len())];
        let l1_kb = self.l1_kb[take(self.l1_kb.len())];
        let core = self.cores[take(self.cores.len())];

        let mut c = self.base.clone();
        c.name = format!("dse-{i}");
        c.freq_ghz = core.freq_ghz;
        c.dispatch_width = core.width;
        c.rob_size = core.rob;
        c.issue_queue = (core.rob / 2).max(core.width);
        c.fu = rppm_trace::FuConfig::scaled(core.width);
        c.l1i = CacheGeometry::new(
            u64::from(l1_kb) << 10,
            self.base.l1i.assoc,
            self.base.l1i.line_bytes,
            self.base.l1i.latency,
        );
        c.l1d = CacheGeometry::new(
            u64::from(l1_kb) << 10,
            self.base.l1d.assoc,
            self.base.l1d.line_bytes,
            self.base.l1d.latency,
        );
        c.l2 = CacheGeometry::new(
            u64::from(l2_kb) << 10,
            self.base.l2.assoc,
            self.base.l2.line_bytes,
            self.base.l2.latency,
        );
        c.l3 = CacheGeometry::new(
            u64::from(l3_mb) << 20,
            self.base.l3.assoc,
            self.base.l3.line_bytes,
            self.base.l3.latency,
        );
        c.mshrs = mshrs;
        c.bpred = BranchPredictorConfig {
            size_bytes: bpred_kb << 10,
            history_bits: self.base.bpred.history_bits,
        };
        c
    }
}

/// First-order area proxy in arbitrary units: quadratic in pipeline width
/// (bypass networks), linear in window structures and cache capacities,
/// with the shared L3 counted once. **Not** a silicon area model — a
/// monotone-in-resources stand-in for constraint filtering.
pub fn area_proxy(c: &MachineConfig) -> f64 {
    let window = 0.6 * (c.dispatch_width as f64).powi(2)
        + c.rob_size as f64 / 16.0
        + c.issue_queue as f64 / 16.0
        + 0.2 * c.mshrs as f64
        + c.bpred.size_bytes as f64 / 4096.0;
    let l1 = (c.l1i.size_bytes + c.l1d.size_bytes) as f64 / (32.0 * 1024.0);
    let l2 = c.l2.size_bytes as f64 / (128.0 * 1024.0);
    let l3 = c.l3.size_bytes as f64 / (1024.0 * 1024.0);
    c.cores as f64 * (window + l1 + l2) + l3
}

/// First-order power proxy in arbitrary units: dynamic power scales with
/// frequency and superlinearly with width, plus a leakage term
/// proportional to [`area_proxy`]. Same caveat: a filter, not a model.
pub fn power_proxy(c: &MachineConfig) -> f64 {
    let dynamic = c.freq_ghz
        * ((c.dispatch_width as f64).powf(1.5) + c.rob_size as f64 / 64.0 + 0.05 * c.mshrs as f64);
    c.cores as f64 * dynamic + 0.1 * area_proxy(c)
}

/// Feasibility constraints over the resource proxies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Maximum admissible [`area_proxy`] value.
    pub max_area: Option<f64>,
    /// Maximum admissible [`power_proxy`] value.
    pub max_power: Option<f64>,
}

impl Constraints {
    /// No constraints: every point is feasible.
    pub fn none() -> Self {
        Constraints::default()
    }

    /// Whether a point with the given proxy values is feasible.
    pub fn admits(&self, area: f64, power: f64) -> bool {
        self.max_area.is_none_or(|a| area <= a) && self.max_power.is_none_or(|p| power <= p)
    }
}

/// One evaluated design point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsePoint {
    /// Index into the [`ConfigSpace`] ([`ConfigSpace::config`] rebuilds
    /// the configuration).
    pub index: usize,
    /// Predicted execution time in seconds.
    pub seconds: f64,
    /// [`area_proxy`] value.
    pub area: f64,
    /// [`power_proxy`] value.
    pub power: f64,
}

/// `a` Pareto-dominates `b` over (seconds, area, power): no worse in every
/// objective, strictly better in at least one.
fn dominates(a: &DsePoint, b: &DsePoint) -> bool {
    a.seconds <= b.seconds
        && a.area <= b.area
        && a.power <= b.power
        && (a.seconds < b.seconds || a.area < b.area || a.power < b.power)
}

/// Extracts the Pareto frontier of `points` over (seconds, area, power),
/// minimizing all three. The result is sorted by predicted time. Exact
/// duplicates (identical in all three objectives) are all kept: neither
/// strictly dominates the other.
pub fn pareto_frontier(points: &[DsePoint]) -> Vec<DsePoint> {
    let mut sorted: Vec<&DsePoint> = points.iter().collect();
    // Sorting by the objective triple guarantees any dominator of a point
    // precedes it, so one forward pass suffices.
    sorted.sort_by(|a, b| {
        a.seconds
            .total_cmp(&b.seconds)
            .then(a.area.total_cmp(&b.area))
            .then(a.power.total_cmp(&b.power))
            .then(a.index.cmp(&b.index))
    });
    let mut frontier: Vec<DsePoint> = Vec::new();
    for p in sorted {
        if !frontier.iter().any(|q| dominates(q, p)) {
            frontier.push(*p);
        }
    }
    frontier
}

/// Result of a full design-space sweep.
#[derive(Debug, Clone)]
pub struct DseSweep {
    /// Size of the enumerated space.
    pub points: usize,
    /// Points passing the constraint filter (all of them were evaluated).
    pub feasible: usize,
    /// The predicted-time optimum among feasible points (first index on
    /// ties).
    pub best: DsePoint,
    /// Pareto frontier over (time, area, power), sorted by time.
    pub frontier: Vec<DsePoint>,
    /// `(bound, candidate count)` per requested bound: feasible points
    /// predicted within `bound` of the optimum (the set simulation would
    /// re-evaluate; same epsilon rule as [`evaluate_choice`]).
    pub candidates: Vec<(f64, usize)>,
}

/// Evaluates every feasible point of `space` through `prep`'s batched
/// evaluator, fanned out over `jobs` worker threads: [`find_best`]'s pass
/// at an infinite bound, which prunes nothing (results are deterministic
/// and independent of the worker count). Returns the optimum, the Pareto
/// frontier and the candidate counts at each of `bounds`.
///
/// # Errors
///
/// [`DseError::EmptySpace`] if the space has no points,
/// [`DseError::NoFeasiblePoint`] if the constraints eliminate all of them.
pub fn sweep(
    prep: &PreparedProfile,
    space: &ConfigSpace,
    constraints: &Constraints,
    bounds: &[f64],
    jobs: usize,
) -> Result<DseSweep, DseError> {
    let (hunt, evaluated) = hunt(prep, space, constraints, f64::INFINITY, jobs)?;
    Ok(DseSweep {
        points: hunt.points,
        feasible: hunt.feasible,
        best: hunt.best,
        frontier: pareto_frontier(&evaluated),
        candidates: bounds
            .iter()
            .map(|&b| (b, candidates(&evaluated, hunt.best.seconds, b)))
            .collect(),
    })
}

/// Result of a pruned optimum hunt ([`find_best`]).
#[derive(Debug, Clone, Copy)]
pub struct DseBest {
    /// Size of the enumerated space.
    pub points: usize,
    /// Points passing the constraint filter.
    pub feasible: usize,
    /// Feasible points skipped without a full evaluation.
    pub pruned: usize,
    /// The predicted-time optimum (identical to [`sweep`]'s: pruning never
    /// discards a potential optimum or bound-candidate).
    pub best: DsePoint,
    /// Feasible points predicted within `bound` of the optimum.
    pub candidates: usize,
    /// The bound the hunt preserved candidates for.
    pub bound: f64,
}

/// Finds the predicted-time optimum with **early pruning against a running
/// optimum**: a feasible point whose admissible lower bound (peak
/// throughput over the heaviest thread's operation count — per-epoch time
/// can never beat `ops / dispatch_width` cycles) already exceeds
/// `(1 + bound) ×` the best time seen so far is skipped without a full
/// evaluation. The returned optimum and candidate count are identical to
/// an unpruned [`sweep`] over the same space: only points that can be
/// neither the optimum nor a bound-candidate are pruned. The *amount*
/// pruned depends on evaluation order — with `jobs > 1` it varies run to
/// run; `jobs == 1` is deterministic.
///
/// # Errors
///
/// Same conditions as [`sweep`].
pub fn find_best(
    prep: &PreparedProfile,
    space: &ConfigSpace,
    constraints: &Constraints,
    bound: f64,
    jobs: usize,
) -> Result<DseBest, DseError> {
    hunt(prep, space, constraints, bound, jobs).map(|(best, _)| best)
}

/// The one evaluation pass: [`find_best`]'s hunt at `bound`, also
/// returning the evaluated points in index order. A feasible point whose
/// admissible lower bound exceeds the [`limit`] at `bound` around the
/// running optimum is skipped; with an infinite `bound`, none is.
fn hunt(
    prep: &PreparedProfile,
    space: &ConfigSpace,
    constraints: &Constraints,
    bound: f64,
    jobs: usize,
) -> Result<(DseBest, Vec<DsePoint>), DseError> {
    let points = space.len();
    if points == 0 {
        return Err(DseError::EmptySpace);
    }
    // Admissible numerator: the heaviest thread's operation count. Total
    // time is at least that thread's active time, and every epoch needs at
    // least ops / dispatch_width cycles (Deff ≤ width).
    let heaviest_ops = prep
        .profile()
        .threads
        .iter()
        .map(|t| t.total_ops())
        .max()
        .unwrap_or(0) as f64;
    // Running optimum in seconds, shared across workers. For positive
    // floats the bit pattern is order-preserving as u64, so a fetch_min on
    // the bits is a fetch_min on the values.
    let running = AtomicU64::new(f64::INFINITY.to_bits());
    let chunks = prep.batched_chunks(points, jobs, |batch, range| {
        let (mut evaluated, mut feasible) = (Vec::new(), 0);
        for index in range {
            let config = space.config(index);
            let area = area_proxy(&config);
            let power = power_proxy(&config);
            if !constraints.admits(area, power) {
                continue;
            }
            feasible += 1;
            let current = f64::from_bits(running.load(Ordering::Relaxed));
            if heaviest_ops / config.peak_ops_per_second() > limit(current, bound) {
                continue;
            }
            let seconds = config.cycles_to_seconds(batch.eval(&config));
            if seconds < current {
                running.fetch_min(seconds.to_bits(), Ordering::Relaxed);
            }
            evaluated.push(DsePoint {
                index,
                seconds,
                area,
                power,
            });
        }
        (evaluated, feasible)
    });
    let feasible = chunks.iter().map(|(_, f)| f).sum::<usize>();
    let evaluated: Vec<DsePoint> = chunks.into_iter().flat_map(|(e, _)| e).collect();
    let best = *evaluated
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds).then(a.index.cmp(&b.index)))
        .ok_or(DseError::NoFeasiblePoint { points })?;
    let hunt = DseBest {
        points,
        feasible,
        // Every feasible point is either evaluated or pruned.
        pruned: feasible - evaluated.len(),
        best,
        candidates: candidates(&evaluated, best.seconds, bound),
        bound,
    };
    Ok((hunt, evaluated))
}

/// How many of `points` are predicted within `bound` of `best` seconds.
fn candidates(points: &[DsePoint], best: f64, bound: f64) -> usize {
    let limit = limit(best, bound);
    points.iter().filter(|p| p.seconds <= limit).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rppm_profiler::profile;
    use rppm_trace::{BlockSpec, DesignPoint, ProgramBuilder};
    use std::sync::Arc;

    fn prepared() -> PreparedProfile {
        let mut b = ProgramBuilder::new("dse-test", 2);
        b.spawn_workers();
        b.thread(1u32)
            .block(BlockSpec::new(20_000, 1).loads(0.2).deps(0.3, 4.0));
        b.join_workers();
        PreparedProfile::new(Arc::new(profile(&b.build())))
    }

    fn small_space() -> ConfigSpace {
        let mut s = ConfigSpace::tiny();
        s.mshrs = vec![8];
        s // 3 cores × 2 l3 = 6 points
    }

    #[test]
    fn perfect_model_has_zero_deficiency() {
        let times = [5.0, 3.0, 4.0];
        let c = evaluate_choice(&times, &times, 0.0).unwrap();
        assert_eq!(c.chosen, 1);
        assert_eq!(c.deficiency, 0.0);
        assert_eq!(c.candidates, vec![1]);
    }

    #[test]
    fn wrong_model_pays_deficiency() {
        let predicted = [1.0, 2.0, 3.0]; // model loves design 0
        let simulated = [2.0, 1.0, 3.0]; // reality prefers design 1
        let c = evaluate_choice(&predicted, &simulated, 0.0).unwrap();
        assert_eq!(c.chosen, 0);
        assert!((c.deficiency - 1.0).abs() < 1e-12, "100% slower");
    }

    #[test]
    fn wider_bound_recovers_true_optimum() {
        let predicted = [1.0, 1.009, 3.0];
        let simulated = [2.0, 1.0, 3.0];
        let tight = evaluate_choice(&predicted, &simulated, 0.0).unwrap();
        assert!(tight.deficiency > 0.9);
        let loose = evaluate_choice(&predicted, &simulated, 0.01).unwrap();
        assert_eq!(loose.candidates, vec![0, 1]);
        assert_eq!(loose.chosen, 1);
        assert_eq!(loose.deficiency, 0.0);
    }

    #[test]
    fn bound_is_relative() {
        let predicted = [100.0, 104.0, 106.0];
        let simulated = [1.0, 1.0, 1.0];
        let c = evaluate_choice(&predicted, &simulated, 0.05).unwrap();
        assert_eq!(c.candidates, vec![0, 1]);
    }

    #[test]
    fn boundary_tie_is_a_candidate() {
        // A design predicted at exactly best × (1 + bound) stays in the
        // candidate set even when the product rounds below the exact value:
        // the 1e-12 epsilon absorbs one ulp of rounding.
        let best = 1.0;
        let bound = 0.03;
        let exactly_on = best * (1.0 + bound);
        let predicted = [best, exactly_on, exactly_on + 1e-9];
        let simulated = [3.0, 1.0, 0.5];
        let c = evaluate_choice(&predicted, &simulated, bound).unwrap();
        assert_eq!(c.candidates, vec![0, 1], "boundary point included");
        assert_eq!(c.chosen, 1);
        // Just past the epsilon: excluded.
        let c = evaluate_choice(&[best, exactly_on + 1e-9], &[1.0, 0.5], bound).unwrap();
        assert_eq!(c.candidates, vec![0]);
    }

    #[test]
    fn row_spans_bounds() {
        let predicted = [1.0, 1.02, 2.0];
        let simulated = [1.1, 1.0, 2.0];
        let row = dse_row("bench", &predicted, &simulated, &TABLE_V_BOUNDS).unwrap();
        assert_eq!(row.cells.len(), 4);
        // Deficiency is non-increasing in the bound.
        for w in row.cells.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
            assert!(w[1].2 >= w[0].2);
        }
    }

    #[test]
    fn mismatched_lengths_are_a_typed_error() {
        assert_eq!(
            evaluate_choice(&[1.0], &[1.0, 2.0], 0.0),
            Err(DseError::MismatchedLengths {
                predicted: 1,
                simulated: 2
            })
        );
    }

    #[test]
    fn empty_design_space_is_a_typed_error() {
        assert_eq!(evaluate_choice(&[], &[], 0.0), Err(DseError::EmptySpace));
        let err = evaluate_choice(&[], &[], 0.0).unwrap_err();
        assert!(err.to_string().contains("empty design space"));
    }

    #[test]
    fn spaces_inherit_an_arbitrary_base() {
        let mut base = DesignPoint::Base.config();
        base.cores = 8;
        base.mem_latency_ns = 120.0;
        for space in [
            ConfigSpace::tiny_from(base.clone()),
            ConfigSpace::default_space_from(base.clone()),
        ] {
            assert_eq!(space.base(), &base);
            let c = space.config(0);
            assert_eq!(c.cores, 8, "axis-free parameters come from the base");
            assert_eq!(c.mem_latency_ns, 120.0);
        }
    }

    #[test]
    fn default_space_has_at_least_1e5_points() {
        let s = ConfigSpace::default_space();
        assert!(s.len() >= 100_000, "{} points", s.len());
    }

    #[test]
    fn every_point_of_the_small_spaces_validates() {
        for space in [ConfigSpace::tiny(), small_space()] {
            for i in 0..space.len() {
                let c = space.config(i);
                assert!(c.validate().is_ok(), "point {i}: {:?}", c.validate());
            }
        }
        // Spot-check the big space (all corners + a stride).
        let s = ConfigSpace::default_space();
        for i in (0..s.len()).step_by(7919).chain([0, s.len() - 1]) {
            assert!(s.config(i).validate().is_ok(), "point {i}");
        }
    }

    #[test]
    fn config_decoding_round_trips_every_axis_value() {
        let s = small_space();
        let mut names = std::collections::HashSet::new();
        let mut widths = std::collections::HashSet::new();
        let mut l3s = std::collections::HashSet::new();
        for i in 0..s.len() {
            let c = s.config(i);
            names.insert(c.name.clone());
            widths.insert(c.dispatch_width);
            l3s.insert(c.l3.size_bytes);
        }
        assert_eq!(names.len(), s.len(), "every point distinct");
        assert_eq!(widths.len(), s.cores.len());
        assert_eq!(l3s.len(), s.l3_mb.len());
    }

    #[test]
    fn proxies_grow_with_resources() {
        let small = DesignPoint::Smallest.config();
        let big = DesignPoint::Biggest.config();
        assert!(area_proxy(&big) > area_proxy(&small));
        // Power: the small design runs at 5 GHz vs 1.66 GHz, so compare
        // same-frequency variants instead.
        let mut big_at_5 = big.clone();
        big_at_5.freq_ghz = 5.0;
        assert!(power_proxy(&big_at_5) > power_proxy(&small));
    }

    #[test]
    fn sweep_matches_scalar_predictions_and_finds_optimum() {
        let prep = prepared();
        let space = small_space();
        let out = sweep(&prep, &space, &Constraints::none(), &[0.0, 0.05], 2).unwrap();
        assert_eq!(out.points, space.len());
        assert_eq!(out.feasible, space.len());
        // The best point's time matches the full prediction of the same
        // configuration bit for bit.
        let cfg = space.config(out.best.index);
        let full = prep.predict(&cfg);
        assert_eq!(out.best.seconds.to_bits(), full.total_seconds.to_bits());
        // Candidate counts are monotone in the bound and include the best.
        assert!(out.candidates[0].1 >= 1);
        assert!(out.candidates[1].1 >= out.candidates[0].1);
    }

    #[test]
    fn constraints_filter_and_can_empty_the_space() {
        let prep = prepared();
        let space = small_space();
        let unconstrained = sweep(&prep, &space, &Constraints::none(), &[], 1).unwrap();
        let tight = Constraints {
            max_area: Some(area_proxy(&space.config(unconstrained.best.index)) - 1.0),
            max_power: None,
        };
        match sweep(&prep, &space, &tight, &[], 1) {
            Ok(s) => assert!(s.feasible < space.len(), "filter removed something"),
            Err(DseError::NoFeasiblePoint { points }) => assert_eq!(points, space.len()),
            Err(e) => panic!("unexpected error {e}"),
        }
        let impossible = Constraints {
            max_area: Some(-1.0),
            max_power: None,
        };
        assert_eq!(
            sweep(&prep, &space, &impossible, &[], 1).unwrap_err(),
            DseError::NoFeasiblePoint {
                points: space.len()
            }
        );
    }

    #[test]
    fn find_best_agrees_with_sweep_and_prunes_soundly() {
        let prep = prepared();
        // A space with genuinely different peak throughputs so the lower
        // bound can prune: the fast-wide family enumerates first (the core
        // axis varies slowest), seeding the running optimum the slow-narrow
        // family's lower bound cannot beat.
        let mut space = small_space();
        space.cores = vec![
            CoreFamily {
                freq_ghz: 5.0,
                width: 6,
                rob: 288,
            },
            CoreFamily {
                freq_ghz: 0.5,
                width: 2,
                rob: 64,
            },
        ];
        for bound in [0.0, 0.05] {
            let full = sweep(&prep, &space, &Constraints::none(), &[bound], 1).unwrap();
            let fast = find_best(&prep, &space, &Constraints::none(), bound, 1).unwrap();
            assert_eq!(fast.best.index, full.best.index);
            assert_eq!(fast.best.seconds.to_bits(), full.best.seconds.to_bits());
            assert_eq!(fast.candidates, full.candidates[0].1, "bound {bound}");
            assert_eq!(fast.feasible, full.feasible);
        }
        let fast = find_best(&prep, &space, &Constraints::none(), 0.0, 1).unwrap();
        assert!(fast.pruned > 0, "10x peak gap should prune");
    }

    #[test]
    fn frontier_on_known_points() {
        let p = |index, seconds, area, power| DsePoint {
            index,
            seconds,
            area,
            power,
        };
        let pts = [
            p(0, 1.0, 10.0, 10.0), // fastest
            p(1, 2.0, 5.0, 10.0),  // cheaper area
            p(2, 3.0, 5.0, 10.0),  // dominated by 1
            p(3, 2.5, 10.0, 4.0),  // cheapest power
            p(4, 4.0, 20.0, 20.0), // dominated by everything
        ];
        let f = pareto_frontier(&pts);
        let idx: Vec<usize> = f.iter().map(|q| q.index).collect();
        assert_eq!(idx, vec![0, 1, 3]);
        // Sorted by seconds.
        for w in f.windows(2) {
            assert!(w[0].seconds <= w[1].seconds);
        }
    }

    #[test]
    fn duplicate_points_both_stay_on_frontier() {
        let p = DsePoint {
            index: 0,
            seconds: 1.0,
            area: 2.0,
            power: 3.0,
        };
        let q = DsePoint { index: 1, ..p };
        let f = pareto_frontier(&[p, q]);
        assert_eq!(f.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn frontier_dominance_invariants(
            raw in proptest::collection::vec((0.1f64..100.0, 0.1f64..100.0, 0.1f64..100.0), 1..60)
        ) {
            let pts: Vec<DsePoint> = raw
                .iter()
                .enumerate()
                .map(|(index, &(seconds, area, power))| DsePoint { index, seconds, area, power })
                .collect();
            let frontier = pareto_frontier(&pts);
            prop_assert!(!frontier.is_empty());
            // No frontier point is dominated by any point of the space.
            for f in &frontier {
                for p in &pts {
                    prop_assert!(!dominates(p, f), "{p:?} dominates frontier {f:?}");
                }
            }
            // Every dropped point is dominated by some frontier point.
            for p in &pts {
                if !frontier.iter().any(|f| f.index == p.index) {
                    prop_assert!(
                        frontier.iter().any(|f| dominates(f, p)),
                        "dropped {p:?} undominated"
                    );
                }
            }
        }

        #[test]
        fn candidate_set_respects_the_bound(
            times in proptest::collection::vec(0.1f64..10.0, 1..30),
            bound in 0.0f64..0.2,
        ) {
            let c = evaluate_choice(&times, &times, bound).unwrap();
            let best = times.iter().cloned().fold(f64::MAX, f64::min);
            for (i, &t) in times.iter().enumerate() {
                let inside = t <= best * (1.0 + bound) + 1e-12;
                prop_assert_eq!(c.candidates.contains(&i), inside, "point {}", i);
            }
            // Self-evaluation: deficiency 0 (candidates contain the true optimum).
            prop_assert_eq!(c.deficiency, 0.0);
        }
    }
}
