//! End-to-end integration tests: the full profile → predict → compare
//! pipeline across crates.

use rppm::prelude::*;
use rppm::sim::{simulate_profiled, SimEngine};

fn quick() -> WorkloadParams {
    WorkloadParams {
        scale: 0.05,
        seed: 11,
    }
}

/// RPPM predictions land within a sane band of simulation for every
/// benchmark analog, even at the reduced test scale (the paper-scale
/// accuracy run lives in the rppm-bench harness).
#[test]
fn rppm_tracks_simulation_for_all_benchmarks() {
    let config = DesignPoint::Base.config();
    let mut errors = Vec::new();
    for bench in rppm::workloads::all() {
        let program = bench.build(&quick());
        let prof = profile(&program);
        let sim = simulate(&program, &config);
        let pred = predict(&prof, &config);
        let err = abs_pct_error(pred.total_cycles, sim.total_cycles);
        assert!(
            err < 0.9,
            "{}: prediction {:.0} vs simulation {:.0} ({:.0}% off)",
            bench.name,
            pred.total_cycles,
            sim.total_cycles,
            err * 100.0
        );
        errors.push(err);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(
        mean < 0.35,
        "suite mean error {:.1}% too high",
        mean * 100.0
    );
}

/// The three models keep the paper's ordering on the suite average:
/// RPPM < CRIT < MAIN (Figure 4's key result).
#[test]
fn model_ordering_matches_figure_4() {
    let config = DesignPoint::Base.config();
    let (mut main_sum, mut crit_sum, mut rppm_sum) = (0.0, 0.0, 0.0);
    for bench in rppm::workloads::all() {
        let program = bench.build(&quick());
        let prof = profile(&program);
        let sim = simulate(&program, &config).total_cycles;
        main_sum += abs_pct_error(predict_main(&prof, &config), sim);
        crit_sum += abs_pct_error(predict_crit(&prof, &config), sim);
        rppm_sum += abs_pct_error(predict(&prof, &config).total_cycles, sim);
    }
    assert!(
        rppm_sum < crit_sum && crit_sum < main_sum,
        "expected RPPM < CRIT < MAIN, got {rppm_sum:.2} / {crit_sum:.2} / {main_sum:.2}"
    );
}

/// One profile predicts every design point: the profile is collected once
/// and is valid across microarchitectures (the paper's headline property).
#[test]
fn profile_once_predict_many_architectures() {
    let bench = rppm::workloads::by_name("cfd").expect("known");
    let program = bench.build(&quick());
    let prof = profile(&program);
    for dp in DesignPoint::ALL {
        let config = dp.config();
        let pred = predict(&prof, &config);
        let sim = simulate(&program, &config);
        let err = abs_pct_error(pred.total_cycles, sim.total_cycles);
        assert!(err < 0.8, "{dp}: error {:.0}%", err * 100.0);
    }
}

/// Profiles survive serialization: for *every* workload, the on-disk JSON
/// artifact predicts bit-identically to the freshly collected in-memory
/// profile on every design point — the "profile once" artifact is
/// trustworthy.
#[test]
fn serialized_profile_predicts_identically_for_all_workloads() {
    for bench in rppm::workloads::all() {
        let program = bench.build(&quick());
        let prof = profile(&program);
        let restored = ApplicationProfile::from_json(&prof.to_json()).expect("round-trip");
        assert_eq!(prof, restored, "{}: lossy profile round-trip", bench.name);
        for dp in DesignPoint::ALL {
            let config = dp.config();
            let a = predict(&prof, &config);
            let b = predict(&restored, &config);
            assert_eq!(
                a.total_cycles.to_bits(),
                b.total_cycles.to_bits(),
                "{} on {dp}: round-tripped profile predicts differently",
                bench.name
            );
        }
    }
}

/// Profiling-run insensitivity (Section III-A): profiles collected from
/// different dynamic executions (different seeds) yield similar
/// predictions.
#[test]
fn predictions_insensitive_to_profiling_run() {
    let bench = rppm::workloads::by_name("hotspot").expect("known");
    let config = DesignPoint::Base.config();
    let p1 = {
        let prog = bench.build(&quick());
        predict(&profile(&prog), &config).total_cycles
    };
    let p2 = {
        let prog = bench.build(&WorkloadParams {
            scale: 0.05,
            seed: 999,
        });
        predict(&profile(&prog), &config).total_cycles
    };
    let diff = (p1 - p2).abs() / p1;
    assert!(
        diff < 0.10,
        "seed changed prediction by {:.1}%",
        diff * 100.0
    );
}

/// The predicted critical thread matters: for an imbalanced workload the
/// symbolic execution must attribute idle time to the fast threads.
#[test]
fn symbolic_execution_finds_waiters() {
    let bench = rppm::workloads::by_name("vips").expect("known");
    let program = bench.build(&quick());
    let prof = profile(&program);
    let pred = predict(&prof, &DesignPoint::Base.config());
    // vips: thread 1 produces, threads 2-3 consume, main mostly joins.
    let producer_wait = pred.threads[1].sync_cycles;
    let consumer_wait = pred.threads[2].sync_cycles;
    assert!(
        consumer_wait > producer_wait,
        "consumers ({consumer_wait:.0}) should wait more than the producer ({producer_wait:.0})"
    );
}

/// Simulator and model agree on which thread is the bottleneck
/// (Figure 6's qualitative claim), checked on a strongly imbalanced case.
#[test]
fn bottleneck_thread_matches_simulation() {
    use rppm::core::Bottlegraph;
    let bench = rppm::workloads::by_name("freqmine").expect("known");
    let program = bench.build(&quick());
    let prof = profile(&program);
    let config = DesignPoint::Base.config();
    let pred = predict(&prof, &config);
    let sim = simulate(&program, &config);
    let g_pred = Bottlegraph::from_intervals(&pred.intervals, pred.total_cycles);
    let g_sim = Bottlegraph::from_intervals(&sim.intervals, sim.total_cycles);
    assert_eq!(
        g_pred.bottleneck().map(|b| b.thread),
        g_sim.bottleneck().map(|b| b.thread),
        "predicted and simulated bottleneck threads disagree"
    );
}

/// Sync-event accounting agrees between the profiler (used for Table III)
/// and the simulator.
#[test]
fn profiler_and_simulator_count_the_same_events() {
    for name in ["fluidanimate", "streamcluster-p", "bodytrack"] {
        let bench = rppm::workloads::by_name(name).expect("known");
        let program = bench.build(&quick());
        let prof = profile(&program);
        let (_, sim) = simulate_profiled(&program, &DesignPoint::Base.config(), SimEngine::Fused);
        let (cs, bar, cond) = prof.sync_event_counts();
        let (sim_cs, sim_bar, sim_cond) = sim.sync.table3();
        assert_eq!(cs, sim_cs, "{name}: critical sections");
        assert_eq!(bar, sim_bar, "{name}: barriers");
        assert_eq!(cond, sim_cond, "{name}: cond vars");
    }
}
