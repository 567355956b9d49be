//! The "R" in RPPM: model speed versus detailed simulation.
//!
//! The paper's pitch is that one profiling run (an order of magnitude
//! faster than simulation) plus near-instant analytical predictions replace
//! one simulation per design point. These benches measure all three stages
//! plus the core model components.

use criterion::{criterion_group, criterion_main, Criterion};
use rppm::branch_model::EntropyCollector;
use rppm::core::{execute, predict, PreparedProfile, ThreadTimeline};
use rppm::profiler::{analyze, profile};
use rppm::sim::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine};
use rppm::statstack::{MultiThreadCollector, ReuseHistogram, StackDistanceModel};
use rppm::trace::{
    AddressPattern, BlockItem, BlockSpec, DesignPoint, MicroOp, Region, Rng, SyncOp, ThreadCursor,
};
use rppm::workloads::{by_name, Params};
use rppm::Session;

fn cursor(c: &mut Criterion) {
    let bench = by_name("hotspot").expect("known benchmark");
    let params = Params {
        scale: 0.1,
        ..Params::full()
    };
    let program = bench.build(&params);
    let total_ops = program.total_ops();

    let mut g = c.benchmark_group("cursor");
    g.sample_size(10);
    // The zero-copy block API the profiler and simulator drive: runs of
    // ops lent straight out of the expansion buffer. This walk is the
    // expansion floor both engines share.
    g.bench_function("walk_blocks_hotspot_0.1", |b| {
        b.iter(|| {
            let mut acc: u64 = 0;
            for script in &std::hint::black_box(&program).threads {
                let mut cur = ThreadCursor::new(script);
                loop {
                    match cur.peek_block() {
                        None => break,
                        Some(BlockItem::Sync(_)) => cur.consume_sync(),
                        Some(BlockItem::Ops(ops)) => {
                            for op in ops {
                                acc = acc.wrapping_add(op.line ^ op.code_line);
                            }
                            let n = ops.len();
                            cur.consume_ops(n);
                        }
                    }
                }
            }
            acc
        })
    });
    g.finish();
    eprintln!("  (cursor walks cover {total_ops} ops per iteration)");
}

fn trace_io(c: &mut Criterion) {
    let bench = by_name("hotspot").expect("known benchmark");
    let params = Params {
        scale: 0.1,
        ..Params::full()
    };
    let program = bench.build(&params);
    let json = rppm::trace::export_program(&program).expect("exports");
    let bin = rppm::trace::export_program_binary(&program).expect("exports");

    let mut g = c.benchmark_group("trace_io");
    g.bench_function("export_json_hotspot_0.1", |b| {
        b.iter(|| rppm::trace::export_program(std::hint::black_box(&program)).unwrap())
    });
    g.bench_function("export_binary_hotspot_0.1", |b| {
        b.iter(|| rppm::trace::export_program_binary(std::hint::black_box(&program)).unwrap())
    });
    g.bench_function("import_json_hotspot_0.1", |b| {
        b.iter(|| rppm::trace::import_program(std::hint::black_box(&json)).unwrap())
    });
    g.bench_function("import_binary_hotspot_0.1", |b| {
        b.iter(|| rppm::trace::import_program_binary(std::hint::black_box(&bin)).unwrap())
    });
    g.finish();
    eprintln!(
        "  (trace sizes: {} JSON bytes vs {} binary bytes)",
        json.len(),
        bin.len()
    );
}

fn opstream(c: &mut Criterion) {
    let bench = by_name("hotspot").expect("known benchmark");
    let params = Params {
        scale: 0.1,
        ..Params::full()
    };
    let program = bench.build(&params);
    let ops = rppm::trace::export_program_ops(&program).expect("records");

    let mut g = c.benchmark_group("opstream");
    g.sample_size(10);
    // Recording cost: expand once and serialize the raw micro-op stream.
    // Like profile(), this walks every op, so the ratio between the two is
    // a machine-independent throughput pin.
    g.bench_function("record_ops_hotspot_0.1", |b| {
        b.iter(|| rppm::trace::export_program_ops(std::hint::black_box(&program)).unwrap())
    });
    g.finish();
    eprintln!(
        "  (recorded op stream: {} bytes for {} ops)",
        ops.len(),
        program.total_ops()
    );
}

fn pipeline(c: &mut Criterion) {
    let bench = by_name("hotspot").expect("known benchmark");
    let params = Params {
        scale: 0.1,
        ..Params::full()
    };
    let program = bench.build(&params);
    let config = DesignPoint::Base.config();
    let prof = profile(&program);

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("simulate_hotspot_0.1", |b| {
        b.iter(|| simulate(std::hint::black_box(&program), &config))
    });
    // The pre-PGO naive dispatch, kept as a pinned baseline: the
    // simulate/simulate_reference ratio IS the superinstruction speedup,
    // measured in the same process so machine noise cancels.
    g.bench_function("simulate_reference_hotspot_0.1", |b| {
        b.iter(|| {
            simulate_with(
                std::hint::black_box(&program),
                &config,
                SimEngine::Reference,
                &mut NoProbe,
            )
        })
    });
    // Self-profiling overhead: must stay marginal over plain simulate.
    g.bench_function("simulate_profiled_hotspot_0.1", |b| {
        b.iter(|| simulate_profiled(std::hint::black_box(&program), &config, SimEngine::Fused))
    });
    g.bench_function("profile_hotspot_0.1", |b| {
        b.iter(|| profile(std::hint::black_box(&program)))
    });
    // One-shot predict(): prepare the profile (StatStack models), then
    // evaluate one configuration.
    g.bench_function("predict_hotspot_0.1", |b| {
        b.iter(|| predict(std::hint::black_box(&prof), &config))
    });
    // The headline workflow: one profile, five design points (five
    // one-shot predictions).
    g.bench_function("predict_5_design_points", |b| {
        b.iter(|| {
            DesignPoint::ALL
                .iter()
                .map(|dp| predict(std::hint::black_box(&prof), &dp.config()).total_cycles)
                .sum::<f64>()
        })
    });
    // The same five points on the session API: full predictions from a
    // resident handle of a jobs-1 session (prepared once, when profiled).
    let session = Session::builder().jobs(1).build();
    let handle = session
        .workload("hotspot")
        .expect("known benchmark")
        .scale(0.1)
        .profile();
    let configs: Vec<_> = DesignPoint::ALL.iter().map(|dp| dp.config()).collect();
    g.bench_function("predict_sweep_hotspot_0.1", |b| {
        b.iter(|| handle.predict_sweep(std::hint::black_box(&configs)))
    });
    // A serve hit's model time: one full prediction on the same resident
    // handle after its first, so the preparation already holds the rate
    // columns of every Table IV cache geometry and predictor.
    handle.predict(&config);
    g.bench_function("predict_resident_hotspot_0.1", |b| {
        b.iter(|| handle.predict(std::hint::black_box(&config)))
    });
    g.finish();
}

fn dse(c: &mut Criterion) {
    use rppm::core::ConfigSpace;
    use std::sync::Arc;

    // kmeans at 0.1: a barrier-heavy workload whose profile (20 distinct
    // epoch cells) is representative of the catalog. The one-shot
    // predict() prepares the profile on every call; the batched path
    // prepares once and evaluates from the preparation's rate columns.
    let bench = by_name("kmeans").expect("known benchmark");
    let params = Params {
        scale: 0.1,
        ..Params::full()
    };
    let prof = Arc::new(profile(&bench.build(&params)));
    let space = ConfigSpace::default_space();
    // 256 points spread across the whole space: a slice of the sweep
    // `rppm dse` runs, with the realistic mix of repeated and novel cache
    // geometries the memoized rate columns see.
    let stride = space.len() / 256;
    let configs: Vec<_> = (0..256).map(|i| space.config(i * stride)).collect();
    let scalar_config = configs[0].clone();

    let mut g = c.benchmark_group("dse");
    g.bench_function("prepare_kmeans_0.1", |b| {
        b.iter(|| PreparedProfile::new(Arc::clone(std::hint::black_box(&prof))))
    });
    let prep = PreparedProfile::new(Arc::clone(&prof));
    let mut batch = prep.batched();
    let mut out = vec![0.0; configs.len()];
    // Per-point cost = this mean / 256.
    g.bench_function("batched_256_kmeans_0.1", |b| {
        b.iter(|| {
            batch.eval_into(std::hint::black_box(&configs), &mut out);
            out.iter().sum::<f64>()
        })
    });
    g.bench_function("predict_scalar_kmeans_0.1", |b| {
        b.iter(|| predict(std::hint::black_box(&prof), &scalar_config).total_cycles)
    });
    g.finish();
}

fn components(c: &mut Criterion) {
    // StatStack miss-rate queries.
    let mut h = ReuseHistogram::new();
    let mut rng = Rng::new(42);
    for _ in 0..100_000 {
        h.record(rng.next_below(1 << 20));
    }
    h.record_cold(1000);
    let model = StackDistanceModel::new(&h);
    let geom = DesignPoint::Base.config().l2;

    let mut g = c.benchmark_group("components");
    g.bench_function("statstack_build_100k", |b| {
        b.iter(|| StackDistanceModel::new(std::hint::black_box(&h)))
    });
    g.bench_function("statstack_miss_rate", |b| {
        b.iter(|| std::hint::black_box(&model).miss_rate_geom(&geom))
    });

    // The profiling hot path: the multi-threaded reuse-distance collector
    // fed a 4-thread interleaved mix of streaming and random accesses.
    g.bench_function("mt_collector_100k_accesses", |b| {
        b.iter(|| {
            let mut c = MultiThreadCollector::new(4);
            let mut rng = Rng::new(7);
            for i in 0..100_000u64 {
                let t = (i & 3) as usize;
                let line = if i & 4 == 0 {
                    (i >> 3) & 0xFFF
                } else {
                    rng.next_below(1 << 16)
                };
                c.access(t, line, i & 15 == 0);
            }
            std::hint::black_box(c.total_accesses())
        })
    });

    // First touches only: 21k distinct lines from 5 round-robin threads,
    // one access each (the shape of blackscholes' data accesses).
    g.bench_function("mt_collector_cold_5t", |b| {
        b.iter(|| {
            let mut c = MultiThreadCollector::new(5);
            for i in 0..21_000u64 {
                c.access((i % 5) as usize, i, i & 7 == 0);
            }
            std::hint::black_box(c.total_accesses())
        })
    });

    // Symbolic execution of a 4-thread, 1000-barrier schedule (thread 0
    // creates the workers first, as a real profile would record).
    let config = DesignPoint::Base.config();
    let timelines: Vec<ThreadTimeline> = (0..4u32)
        .map(|t| {
            let mut rng = Rng::new(t as u64);
            let mut events: Vec<SyncOp> = if t == 0 {
                (1..4).map(|c| SyncOp::Create { child: c.into() }).collect()
            } else {
                Vec::new()
            };
            events.extend((0..1000).map(|_| SyncOp::Barrier {
                id: 0.into(),
                via_cond: false,
            }));
            let epochs: Vec<f64> = (0..events.len() + 1)
                .map(|_| 1000.0 + rng.next_f64() * 200.0)
                .collect();
            ThreadTimeline { epochs, events }
        })
        .collect();
    g.bench_function("symexec_4x1000_barriers", |b| {
        b.iter(|| execute(std::hint::black_box(&timelines), &config))
    });

    // Micro-trace analysis (ILP, MLP, branch resolution) of fixed 512-op
    // traces, the length the profiler samples.
    let traces: Vec<Vec<MicroOp>> = (0..8u64)
        .map(|s| {
            BlockSpec::new(512, 100 + s)
                .loads(0.25)
                .branches(0.1)
                .deps(0.6, 6.0)
                .addr(AddressPattern::random(Region::new(0, 1 << 16)), 1.0)
                .expand()
        })
        .collect();
    g.bench_function("microtrace_analyze_512", |b| {
        b.iter(|| {
            traces
                .iter()
                .map(|t| analyze(std::hint::black_box(t)).branch_depth)
                .sum::<f64>()
        })
    });

    // Branch entropy over a fixed 20,000-branch stream of 32 sites: loops,
    // biased coins, fair coins (every 12-bit history) and period-3 loops.
    let mut rng = Rng::new(11);
    let stream: Vec<(u32, bool)> = (0..20_000u32)
        .map(|i| {
            let site = i % 32;
            let taken = match site % 4 {
                0 => (i / 32) % 7 != 6,
                1 => rng.chance(0.9),
                2 => rng.chance(0.5),
                _ => (i / 32) % 3 != 2,
            };
            (site * 8 + 1, taken)
        })
        .collect();
    g.bench_function("entropy_record", |b| {
        b.iter(|| {
            let mut c = EntropyCollector::new();
            for &(site, taken) in std::hint::black_box(&stream) {
                c.record(site, taken);
            }
            c.finish().patterns
        })
    });
    g.finish();
}

fn sched(c: &mut Criterion) {
    // The shape the event queue exists for: thread 0 grinds through a
    // long stream of uncontended lock/unlock events while the other
    // N-1 threads sit in the heap on one far-future compute epoch. The
    // retired linear scan paid O(N) per thread-0 step here; the heap
    // pays O(log N), so the 1024-thread run must stay within a small
    // constant of its 32-thread twin (gated by the `sched_1024_over_32`
    // ratio in BENCH_speed.json).
    fn mostly_idle(n: u32, lock_pairs: usize) -> Vec<ThreadTimeline> {
        (0..n)
            .map(|t| {
                let mut rng = Rng::new(t as u64);
                if t == 0 {
                    let mut events: Vec<SyncOp> =
                        (1..n).map(|c| SyncOp::Create { child: c.into() }).collect();
                    for _ in 0..lock_pairs {
                        events.push(SyncOp::Lock { id: 0.into() });
                        events.push(SyncOp::Unlock { id: 0.into() });
                    }
                    events.extend((1..n).map(|c| SyncOp::Join { child: c.into() }));
                    let epochs = (0..events.len() + 1)
                        .map(|_| 1000.0 + rng.next_f64() * 200.0)
                        .collect();
                    ThreadTimeline { epochs, events }
                } else {
                    // One enormous epoch: created early, resident in the
                    // queue for the whole grind, joined at the end.
                    ThreadTimeline {
                        epochs: vec![80_000_000.0 + rng.next_f64() * 1000.0],
                        events: Vec::new(),
                    }
                }
            })
            .collect()
    }

    let config = DesignPoint::Base.config();
    let idle_32 = mostly_idle(32, 40_000);
    let idle_1024 = mostly_idle(1024, 40_000);

    let mut g = c.benchmark_group("sched");
    g.bench_function("symexec_idle_32", |b| {
        b.iter(|| execute(std::hint::black_box(&idle_32), &config))
    });
    g.bench_function("symexec_idle_1024", |b| {
        b.iter(|| execute(std::hint::black_box(&idle_1024), &config))
    });
    g.finish();
}

criterion_group!(benches, pipeline, dse, components, cursor, trace_io, opstream, sched);
criterion_main!(benches);
