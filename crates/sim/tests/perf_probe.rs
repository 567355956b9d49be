//! Manual timing probes for the PGO work. Ignored by default: run with
//! `cargo test --release -p rppm-sim --test perf_probe -- --ignored --nocapture`.

use rppm_sim::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine};
use rppm_trace::{AddressPattern, BlockSpec, DesignPoint, Program, ProgramBuilder, Region};
use std::time::Instant;

fn time_min<F: FnMut() -> f64>(n: usize, mut f: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut acc = 0.0;
    for _ in 0..n {
        let t = Instant::now();
        acc += f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best * 1e3, acc)
}

fn mixed(scale: f64) -> Program {
    // hotspot-like mix: loads .30 stores .10 branches .05
    let ops = (200_000.0 * scale) as u32;
    let mut b = ProgramBuilder::new("mixed", 2);
    let reg = b.alloc_region(1 << 18);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..2u32 {
        b.thread(t)
            .block(
                BlockSpec::new(ops, t as u64 + 1)
                    .loads(0.30)
                    .stores(0.10)
                    .branches(0.05)
                    .fp(0.22, 0.10)
                    .deps(0.3, 4.0)
                    .addr(AddressPattern::stream(Region::new(0, 1 << 18)), 1.0),
            )
            .barrier(bar);
        let _ = reg;
    }
    b.join_workers();
    b.build()
}

fn compute_only(scale: f64) -> Program {
    let ops = (200_000.0 * scale) as u32;
    let mut b = ProgramBuilder::new("compute", 2);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..2u32 {
        b.thread(t)
            .block(
                BlockSpec::new(ops, t as u64 + 1)
                    .fp(0.3, 0.2)
                    .deps(0.3, 4.0),
            )
            .barrier(bar);
    }
    b.join_workers();
    b.build()
}

#[test]
#[ignore]
fn probe() {
    let cfg = DesignPoint::Base.config();
    for (name, p) in [("mixed", mixed(2.0)), ("compute", compute_only(2.0))] {
        let total_ops: u64 = simulate(&p, &cfg).total_ops();
        let (t_opt, _) = time_min(7, || simulate(&p, &cfg).total_cycles);
        let (t_ref, _) = time_min(7, || {
            simulate_with(&p, &cfg, SimEngine::Reference, &mut NoProbe).total_cycles
        });
        let (t_prof, _) = time_min(7, || {
            simulate_profiled(&p, &cfg, SimEngine::Fused).0.total_cycles
        });
        println!(
            "{name}: ops={total_ops} opt={t_opt:.3}ms ({:.1}ns/op)  ref={t_ref:.3}ms ({:.1}ns/op)  prof={t_prof:.3}ms  ratio opt/ref={:.3}",
            t_opt * 1e6 / total_ops as f64,
            t_ref * 1e6 / total_ops as f64,
            t_opt / t_ref
        );
        let (_, prof) = simulate_profiled(&p, &cfg, SimEngine::Fused);
        println!(
            "  fused_fraction={:.3} dispatch_reduction={:.3}",
            prof.fused_fraction(),
            prof.dispatch_reduction()
        );
    }
}
