//! Differential property suite for the prediction paths: the cached
//! preparation (`ProfileHandle::predict`, the MAIN/CRIT baselines), the
//! batched evaluator (`predict_batch`, `sweep`) and the one-shot free
//! functions must all be **bit-identical** to a naive reference that
//! evaluates every epoch on its own — fresh StatStack models, no
//! deduplication, no rate memo, the profile's own ILP/MLP curves — and
//! then runs Algorithm 2. Preparation and batching change cost, never
//! results. Random workloads × random design points, plus the degenerate
//! spaces a sweep can encounter (single point, duplicated configs, extreme
//! cache geometries), and every session entry called in random order over
//! config lists that mix repeated and novel axis values — sequentially and
//! from several threads at once on one resident handle, over more distinct
//! geometries and predictors per kind than a preparation keeps. The pruned
//! optimum hunt (`find_best`) must keep exactly the full sweep's optimum
//! and candidate count under random bounds, constraints and worker counts.

use proptest::prelude::*;
use rppm::core::{
    execute, predict, predict_crit, predict_epoch, predict_main, ConfigSpace, EpochPrediction,
    Knobs, Prediction, Schedule, ThreadTimeline,
};
use rppm::profiler::{ApplicationProfile, EpochProfile};
use rppm::trace::{BranchPredictorConfig, CacheGeometry, CpiStack, DesignPoint, MachineConfig};
use rppm::Session;

/// Workloads with distinct sync behaviour: barriers, critical sections and
/// a task queue.
const WORKLOADS: [&str; 3] = ["hotspot", "kmeans", "swaptions"];

fn space() -> ConfigSpace {
    ConfigSpace::default_space()
}

/// The naive reference: every epoch through `predict_epoch`, then
/// Algorithm 2 over the resulting timelines.
fn naive(
    profile: &ApplicationProfile,
    config: &MachineConfig,
) -> (Vec<Vec<EpochPrediction>>, Schedule) {
    let epochs: Vec<Vec<EpochPrediction>> = profile
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
        .zip(&epochs)
        .map(|(t, preds)| ThreadTimeline {
            epochs: preds.iter().map(|p| p.cycles).collect(),
            events: t.events.clone(),
        })
        .collect();
    let schedule = execute(&timelines, config);
    (epochs, schedule)
}

fn naive_total(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
    naive(profile, config).1.total
}

/// One thread's active time under the single-threaded MAIN/CRIT model:
/// every epoch with its global histogram replaced by the private one.
fn naive_isolated(epochs: &[EpochProfile], config: &MachineConfig) -> f64 {
    epochs
        .iter()
        .map(|e| {
            let mut iso = e.clone();
            iso.global_rd = e.private_rd.clone();
            predict_epoch(&iso, config, &Knobs::default()).cycles
        })
        .sum()
}

fn naive_main(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
    naive_isolated(&profile.threads[0].epochs, config)
}

fn naive_crit(profile: &ApplicationProfile, config: &MachineConfig) -> f64 {
    profile
        .threads
        .iter()
        .map(|t| naive_isolated(&t.epochs, config))
        .fold(0.0, f64::max)
}

fn stack_bits(s: &CpiStack) -> [u64; 7] {
    [
        s.base, s.branch, s.icache, s.mem_l2, s.mem_l3, s.mem_dram, s.sync,
    ]
    .map(f64::to_bits)
}

fn epoch_bits(p: &EpochPrediction) -> ([u64; 5], [u64; 7]) {
    (
        [p.cycles, p.deff, p.mispredicts, p.dram_misses, p.mlp].map(f64::to_bits),
        stack_bits(&p.stack),
    )
}

fn interval_bits(intervals: &[Vec<(f64, f64)>]) -> Vec<Vec<(u64, u64)>> {
    intervals
        .iter()
        .map(|t| t.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect())
        .collect()
}

/// Asserts that `pred` equals the naive reference bit for bit, field by
/// field: totals, intervals, and each thread's active, sync and finish
/// times, CPI stack (assembled as a prediction assembles it: the epochs'
/// stacks plus the schedule's idle and library time) and epochs.
fn assert_naive(pred: &Prediction, profile: &ApplicationProfile, config: &MachineConfig) {
    assert_reference(pred, &naive(profile, config), config);
}

fn assert_reference(
    pred: &Prediction,
    (epochs, schedule): &(Vec<Vec<EpochPrediction>>, Schedule),
    config: &MachineConfig,
) {
    assert_eq!(
        pred.total_cycles.to_bits(),
        schedule.total.to_bits(),
        "{}",
        config.name
    );
    assert_eq!(
        pred.total_seconds.to_bits(),
        config.cycles_to_seconds(schedule.total).to_bits()
    );
    assert_eq!(pred.threads.len(), epochs.len());
    for ((t, e), s) in pred.threads.iter().zip(epochs).zip(&schedule.threads) {
        assert_eq!(&t.epochs, e);
        let bits = |ps: &[EpochPrediction]| ps.iter().map(epoch_bits).collect::<Vec<_>>();
        assert_eq!(bits(&t.epochs), bits(e), "{}", config.name);
        assert_eq!(t.active_cycles.to_bits(), s.active.to_bits());
        assert_eq!(t.sync_cycles.to_bits(), s.idle.to_bits());
        assert_eq!(t.finish.to_bits(), s.finish.to_bits());
        let mut cpi = CpiStack::default();
        for p in e {
            cpi.add(&p.stack);
        }
        cpi.sync = s.idle + (s.active - e.iter().map(|p| p.cycles).sum::<f64>());
        assert_eq!(stack_bits(&t.cpi), stack_bits(&cpi), "{}", config.name);
    }
    assert_eq!(pred.intervals, schedule.intervals());
    assert_eq!(
        interval_bits(&pred.intervals),
        interval_bits(&schedule.intervals())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random profile × random design points: every batched evaluation
    /// equals the naive reference bit for bit, whatever the worker count,
    /// and so do the cached and one-shot full predictions.
    #[test]
    fn batched_is_bit_identical_to_scalar(
        which in 0usize..WORKLOADS.len(),
        seed in 1u64..50,
        jobs in 1usize..5,
        indices in proptest::collection::vec(0usize..108_000, 1..12),
    ) {
        let space = space();
        let session = Session::builder().jobs(jobs).build();
        let profile = session
            .workload(WORKLOADS[which])
            .expect("catalog workload")
            .scale(0.02)
            .seed(seed)
            .profile();
        let configs: Vec<MachineConfig> =
            indices.iter().map(|&i| space.config(i % space.len())).collect();

        let batch = profile.predict_batch(&configs);
        prop_assert_eq!(batch.len(), configs.len());
        for (cycles, config) in batch.iter().zip(&configs) {
            prop_assert_eq!(
                cycles.to_bits(),
                naive_total(profile.profile(), config).to_bits(),
                "config {} diverged",
                &config.name
            );
            assert_naive(&profile.predict(config), profile.profile(), config);
            assert_naive(&predict(profile.profile(), config), profile.profile(), config);
        }
    }

    /// The MAIN/CRIT baselines, cached and one-shot, agree with the naive
    /// isolated model.
    #[test]
    fn prepared_baselines_are_bit_identical(
        which in 0usize..WORKLOADS.len(),
        index in 0usize..108_000,
    ) {
        let space = space();
        let config = space.config(index % space.len());
        let session = Session::new();
        let profile = session
            .workload(WORKLOADS[which])
            .expect("catalog workload")
            .scale(0.02)
            .seed(7)
            .profile();
        let prof = profile.profile();
        prop_assert_eq!(profile.predict_main(&config).to_bits(), naive_main(prof, &config).to_bits());
        prop_assert_eq!(profile.predict_crit(&config).to_bits(), naive_crit(prof, &config).to_bits());
        prop_assert_eq!(predict_main(prof, &config).to_bits(), naive_main(prof, &config).to_bits());
        prop_assert_eq!(predict_crit(prof, &config).to_bits(), naive_crit(prof, &config).to_bits());
    }
}

/// A config list mixing repeated and novel axis values. Each draw starts
/// from a Table IV design point or a point of the default space, then keeps
/// its caches, branch predictor and core count, or swaps in values from a
/// small shared pool (repeated across the list), or fresh ones (novel).
fn mixed_configs(draws: &[((usize, usize), usize, usize, usize)]) -> Vec<MachineConfig> {
    let space = space();
    draws
        .iter()
        .enumerate()
        .map(|(i, &((base, index), geom, bpred, cores))| {
            let mut c = match DesignPoint::ALL.get(base) {
                Some(dp) => dp.config(),
                None => space.config(index % space.len()),
            };
            c.name = format!("mixed-{i}");
            let n = index as u64;
            let (l1d_kb, l2_kb, l3_kb) = match geom {
                3 => (32, 256, 8 << 10),
                4 => (16, 1 << 10, 4 << 10),
                5 => (64, 512, 16 << 10),
                6 | 7 => (4 * (1 + n % 13), 32 * (1 + n % 37), 512 * (1 + n % 29)),
                _ => (0, 0, 0),
            };
            if l1d_kb > 0 {
                c.l1d = CacheGeometry::new(l1d_kb << 10, 4, 64, c.l1d.latency);
                c.l2 = CacheGeometry::new(l2_kb << 10, 8, 64, c.l2.latency);
                c.l3 = CacheGeometry::new(l3_kb << 10, 16, 64, c.l3.latency);
            }
            let predictor = |size_bytes, history_bits| BranchPredictorConfig {
                size_bytes,
                history_bits,
            };
            match bpred {
                3 => c.bpred = predictor(1024, 10),
                4 => c.bpred = predictor(8192, 14),
                5 => c.bpred = predictor(256 * (1 + index as u32 % 61), 4 + index as u32 % 13),
                _ => {}
            }
            match cores {
                3 => c.cores = 2,
                4 => c.cores = 16,
                5 => c.cores = 1 + index as u32 % 64,
                _ => {}
            }
            c
        })
        .collect()
}

/// More distinct values of every rate-column axis than a preparation keeps
/// resident: private (L1D and L2; L3 for MAIN/CRIT), global (L3),
/// instruction (L1I) and predictor columns.
const WIDE: usize = 36;

/// `WIDE` configurations, each with its own L1D, L2, L3 and L1I geometry
/// and its own predictor, derived from `seed`.
fn wide_configs(seed: u64) -> Vec<MachineConfig> {
    (0..WIDE as u64)
        .map(|k| {
            let mut c = DesignPoint::ALL[(k % 5) as usize].config();
            c.name = format!("wide-{k}");
            let n = seed * 131 + k;
            c.l1d = CacheGeometry::new((4 + k) << 10, 4, 64, c.l1d.latency);
            c.l1i = CacheGeometry::new((2 + k) << 10, 2 + (n % 3) as u32, 64, c.l1i.latency);
            c.l2 = CacheGeometry::new((64 + 8 * k) << 10, 8, 64, c.l2.latency);
            c.l3 = CacheGeometry::new((1024 + 64 * k) << 10, 16, 64, c.l3.latency);
            c.bpred = BranchPredictorConfig {
                size_bytes: 512 * (1 + k as u32),
                history_bits: 4 + (n % 12) as u32,
            };
            c
        })
        .collect()
}

/// Calls every prediction entry on `profile` from three threads released
/// together, each over every configuration in its own order, and checks
/// each answer against the precomputed naive references.
fn assert_concurrent_calls(
    profile: &rppm::ProfileHandle,
    configs: &[MachineConfig],
    reference: &[(Vec<Vec<EpochPrediction>>, Schedule)],
    baselines: &[(f64, f64)],
) {
    let n = configs.len();
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for worker in 0..3usize {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for step in 0..n {
                    let i = if worker == 1 {
                        n - 1 - step
                    } else {
                        (step + worker * n / 3) % n
                    };
                    let config = &configs[i];
                    match (step + worker) % 4 {
                        0 => assert_reference(&profile.predict(config), &reference[i], config),
                        1 => {
                            let batch = profile.predict_batch(std::slice::from_ref(config));
                            assert_eq!(batch[0].to_bits(), reference[i].1.total.to_bits());
                        }
                        2 => {
                            let (main, crit) = baselines[i];
                            assert_eq!(profile.predict_main(config).to_bits(), main.to_bits());
                            assert_eq!(profile.predict_crit(config).to_bits(), crit.to_bits());
                        }
                        _ => {
                            let j = (i + 1) % n;
                            let pair = [config.clone(), configs[j].clone()];
                            let sweep = profile.predict_sweep(&pair);
                            assert_reference(&sweep[0], &reference[i], config);
                            assert_reference(&sweep[1], &reference[j], &configs[j]);
                        }
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every prediction entry of a session — `predict`, `predict_sweep`,
    /// `predict_batch`, `predict_main` and `predict_crit` — called in random
    /// order over config lists that mix repeated and novel cache
    /// geometries, predictor budgets and core counts, equals the naive
    /// reference in full, with 1 to 4 workers; then again from three
    /// threads at once on the same resident handle. Half the lists carry
    /// more distinct values of every rate-column axis than a preparation
    /// keeps resident.
    #[test]
    fn interleaved_entries_match_the_naive_reference(
        which in 0usize..WORKLOADS.len(),
        seed in 1u64..50,
        draws in proptest::collection::vec(
            ((0usize..10, 0usize..108_000), 0usize..8, 0usize..6, 0usize..6),
            3..9,
        ),
        calls in proptest::collection::vec((0usize..5, 0usize..64, 0usize..64), 5..12),
        wide in 0usize..2,
    ) {
        let mut configs = mixed_configs(&draws);
        if wide == 1 {
            configs.extend(wide_configs(seed));
        }
        let mut reference: Vec<Option<(Vec<Vec<EpochPrediction>>, Schedule)>> =
            vec![None; configs.len()];
        let mut baselines: Vec<Option<(f64, f64)>> = vec![None; configs.len()];
        for jobs in 1..=4 {
            let session = Session::builder().jobs(jobs).build();
            let profile = session
                .workload(WORKLOADS[which])
                .expect("catalog workload")
                .scale(0.02)
                .seed(seed)
                .profile();
            let prof = profile.profile();
            for &(call, a, b) in &calls {
                let (a, b) = (a % configs.len(), b % configs.len());
                let range = a.min(b)..a.max(b) + 1;
                let slice = &configs[range.clone()];
                match call {
                    0 => {
                        let r = reference[a].get_or_insert_with(|| naive(prof, &configs[a]));
                        assert_reference(&profile.predict(&configs[a]), r, &configs[a]);
                    }
                    1 => {
                        let sweep = profile.predict_sweep(slice);
                        prop_assert_eq!(sweep.len(), slice.len());
                        for (i, pred) in range.zip(&sweep) {
                            let r = reference[i].get_or_insert_with(|| naive(prof, &configs[i]));
                            assert_reference(pred, r, &configs[i]);
                        }
                    }
                    2 => {
                        let batch = profile.predict_batch(slice);
                        prop_assert_eq!(batch.len(), slice.len());
                        for (i, cycles) in range.zip(&batch) {
                            let r = reference[i].get_or_insert_with(|| naive(prof, &configs[i]));
                            prop_assert_eq!(cycles.to_bits(), r.1.total.to_bits(), "{}", i);
                        }
                    }
                    _ => {
                        let config = &configs[a];
                        let (main, crit) = *baselines[a].get_or_insert_with(|| {
                            (naive_main(prof, config), naive_crit(prof, config))
                        });
                        if call == 3 {
                            prop_assert_eq!(profile.predict_main(config).to_bits(), main.to_bits());
                        } else {
                            prop_assert_eq!(profile.predict_crit(config).to_bits(), crit.to_bits());
                        }
                    }
                }
            }
            let all: Vec<_> = (0..configs.len())
                .map(|i| reference[i].get_or_insert_with(|| naive(prof, &configs[i])).clone())
                .collect();
            let base: Vec<(f64, f64)> = (0..configs.len())
                .map(|i| {
                    let config = &configs[i];
                    *baselines[i].get_or_insert_with(|| {
                        (naive_main(prof, config), naive_crit(prof, config))
                    })
                })
                .collect();
            assert_concurrent_calls(&profile, &configs, &all, &base);
        }
    }
}

#[test]
fn degenerate_single_point_space() {
    let session = Session::new();
    let profile = session
        .workload("lud")
        .expect("catalog")
        .scale(0.02)
        .profile();
    let config = DesignPoint::Base.config();
    let batch = profile.predict_batch(std::slice::from_ref(&config));
    assert_eq!(batch.len(), 1);
    assert_eq!(
        batch[0].to_bits(),
        naive_total(profile.profile(), &config).to_bits()
    );
}

#[test]
fn duplicate_configs_get_identical_bits() {
    let session = Session::builder().jobs(4).build();
    let profile = session
        .workload("nn")
        .expect("catalog")
        .scale(0.02)
        .profile();
    // The same configuration many times, split across workers: memoized
    // rate columns and fresh ones must produce the same bits.
    let configs = vec![DesignPoint::Big.config(); 9];
    let batch = profile.predict_batch(&configs);
    for w in batch.windows(2) {
        assert_eq!(w[0].to_bits(), w[1].to_bits());
    }
    assert_eq!(
        batch[0].to_bits(),
        naive_total(profile.profile(), &configs[0]).to_bits()
    );
}

#[test]
fn extreme_cache_geometries_stay_identical() {
    let session = Session::new();
    let profile = session
        .workload("streamcluster")
        .expect("catalog")
        .scale(0.02)
        .profile();
    let mut tiny = DesignPoint::Base.config();
    tiny.name = "tiny-caches".into();
    tiny.l1d = CacheGeometry::new(64, 1, 64, tiny.l1d.latency);
    tiny.l1i = CacheGeometry::new(128, 1, 64, tiny.l1i.latency);
    let mut huge = DesignPoint::Base.config();
    huge.name = "huge-l3".into();
    huge.l3 = CacheGeometry::new(1 << 30, 16, 64, huge.l3.latency);
    let configs = [tiny, huge];
    let batch = profile.predict_batch(&configs);
    for (cycles, config) in batch.iter().zip(&configs) {
        assert_eq!(
            cycles.to_bits(),
            naive_total(profile.profile(), config).to_bits(),
            "{} diverged",
            config.name
        );
        assert_naive(&profile.predict(config), profile.profile(), config);
    }
}

/// The batched path underlying `rppm_core::sweep` finds exactly the
/// optimum a naive scan over the same space finds.
#[test]
fn sweep_optimum_equals_scalar_scan() {
    use rppm::core::{sweep, Constraints};
    let mut space = ConfigSpace::tiny();
    space.mshrs = vec![8];
    let session = Session::new();
    let profile = session
        .workload("kmeans")
        .expect("catalog")
        .scale(0.02)
        .profile();
    let swept =
        sweep(profile.prepared(), &space, &Constraints::none(), &[0.0], 2).expect("nonempty");
    let naive_best = (0..space.len())
        .map(|i| {
            let config = space.config(i);
            config.cycles_to_seconds(naive_total(profile.profile(), &config))
        })
        .fold(f64::MAX, f64::min);
    assert_eq!(swept.best.seconds.to_bits(), naive_best.to_bits());
}

/// A slice of the default space: every core family crossed with a few
/// values of each other axis (2,160 points).
fn default_slice() -> ConfigSpace {
    let mut space = ConfigSpace::default_space();
    space.l1_kb = vec![8, 32, 128];
    space.l2_kb = vec![128, 512, 2048];
    space.l3_mb = vec![4, 16];
    space.mshrs = vec![8, 16];
    space.bpred_kb = vec![2, 8];
    space
}

/// `None` for a third of the draws, otherwise a cap between the smallest
/// and largest value of the proxy over the space.
fn cap((pick, frac): (f64, f64), values: &[f64]) -> Option<f64> {
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (pick >= 1.0 / 3.0).then_some(lo + frac * (hi - lo))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `find_best` keeps exactly `sweep`'s optimum, candidate count and
    /// feasible count at any bound, constraint and worker count, and
    /// `sweep`'s answer does not depend on the worker count.
    #[test]
    fn find_best_agrees_with_sweep_under_random_constraints(
        which in 0usize..2,
        tiny in 0usize..2,
        bound in 0.0f64..0.2,
        area in (0.0f64..1.0, 0.0f64..1.0),
        power in (0.0f64..1.0, 0.0f64..1.0),
        jobs in 1usize..5,
    ) {
        use rppm::core::{area_proxy, find_best, power_proxy, sweep, Constraints};
        let space = if tiny == 1 { ConfigSpace::tiny() } else { default_slice() };
        let configs: Vec<MachineConfig> = (0..space.len()).map(|i| space.config(i)).collect();
        let areas: Vec<f64> = configs.iter().map(area_proxy).collect();
        let powers: Vec<f64> = configs.iter().map(power_proxy).collect();
        let constraints = Constraints {
            max_area: cap(area, &areas),
            max_power: cap(power, &powers),
        };
        let session = Session::new();
        let profile = session
            .workload(["kmeans", "hotspot"][which])
            .expect("catalog workload")
            .scale(0.02)
            .profile();
        let prep = profile.prepared();

        let reference = sweep(prep, &space, &constraints, &[bound], 1);
        for j in 2..=4 {
            let other = sweep(prep, &space, &constraints, &[bound], j);
            match (&reference, &other) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.best, b.best, "jobs {}", j);
                    prop_assert_eq!(&a.candidates, &b.candidates, "jobs {}", j);
                    let frontier = |s: &rppm::core::DseSweep| -> Vec<usize> {
                        s.frontier.iter().map(|p| p.index).collect()
                    };
                    prop_assert_eq!(frontier(a), frontier(b), "jobs {}", j);
                    prop_assert_eq!(a.feasible, b.feasible);
                }
                (a, b) => prop_assert_eq!(
                    a.as_ref().err(),
                    b.as_ref().err(),
                    "jobs {}",
                    j
                ),
            }
        }

        let best = find_best(prep, &space, &constraints, bound, jobs);
        match (&reference, &best) {
            (Ok(full), Ok(fast)) => {
                prop_assert_eq!(fast.best.index, full.best.index);
                prop_assert_eq!(fast.best.seconds.to_bits(), full.best.seconds.to_bits());
                prop_assert_eq!(fast.candidates, full.candidates[0].1, "bound {}", bound);
                prop_assert_eq!(fast.feasible, full.feasible);
            }
            (full, fast) => prop_assert_eq!(full.as_ref().err(), fast.as_ref().err()),
        }
    }
}
