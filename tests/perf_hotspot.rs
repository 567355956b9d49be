//! Paired timing harness for the PGO work, on the exact workload the
//! bench_guard gates (`hotspot` at scale 0.1). Ignored by default:
//!
//! ```text
//! cargo test --release --test perf_hotspot -- --ignored --nocapture
//! ```
//!
//! Optimized and reference simulation runs are interleaved (ABAB) so slow
//! drift of the host machine cancels out of the ratio.

use rppm_sim::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine};
use rppm_trace::DesignPoint;
use rppm_workloads::{by_name, Params};
use std::time::Instant;

fn time_one<F: FnMut() -> f64>(f: &mut F) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

#[test]
#[ignore]
fn paired_hotspot() {
    let bench = by_name("hotspot").expect("known benchmark");
    let params = Params {
        scale: 0.1,
        ..Params::full()
    };
    let program = bench.build(&params);
    let config = DesignPoint::Base.config();
    let total_ops = simulate(&program, &config).total_ops();

    let mut f_opt = || simulate(&program, &config).total_cycles;
    let mut f_ref =
        || simulate_with(&program, &config, SimEngine::Reference, &mut NoProbe).total_cycles;
    let mut f_prof = || {
        simulate_profiled(&program, &config, SimEngine::Fused)
            .0
            .total_cycles
    };

    // Warmup.
    time_one(&mut f_opt);
    time_one(&mut f_ref);

    let rounds = 40;
    let (mut opt, mut refr, mut prof) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        opt.push(time_one(&mut f_opt));
        refr.push(time_one(&mut f_ref));
        prof.push(time_one(&mut f_prof));
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (m_opt, m_ref, m_prof) = (med(&mut opt), med(&mut refr), med(&mut prof));
    println!(
        "hotspot0.1 ops={total_ops}: opt={m_opt:.3}ms ({:.1}ns/op)  ref={m_ref:.3}ms  prof={m_prof:.3}ms",
        m_opt * 1e6 / total_ops as f64
    );
    println!(
        "  ratio opt/ref={:.3}  prof/opt={:.3}  min opt={:.3} ref={:.3}",
        m_opt / m_ref,
        m_prof / m_opt,
        opt[0],
        refr[0]
    );
}
