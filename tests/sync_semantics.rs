//! Pins the pthread semantics of all three execution engines by value.
//!
//! The profiler's unit-cost interleaving, the golden simulator and
//! Algorithm 2 all apply the same create/join, barrier, mutex, queue,
//! reader-writer lock and semaphore rules. The differential suites compare
//! engines that share one implementation of those rules, so a change to
//! the rules themselves slips past them. This suite does not: six seeded
//! programs that together use every `SyncOp` variant — in the contended
//! shapes where the rules matter — are profiled, simulated and predicted
//! at all five Table IV design points, and FNV-1a digests of the results
//! must equal constants captured before the engines were refactored.

use rppm::core::{predict, Prediction};
use rppm::profiler::profile;
use rppm::sim::{simulate_profiled, SimEngine, SimProfile, SimResult};
use rppm::trace::{
    AddressPattern, BlockSpec, DesignPoint, MachineConfig, Program, ProgramBuilder, ThreadId,
};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    fn intervals(&mut self, per_thread: &[Vec<(f64, f64)>]) -> &mut Self {
        for iv in per_thread {
            self.u64(iv.len() as u64);
            for &(a, b) in iv {
                self.f64(a).f64(b);
            }
        }
        self
    }
}

fn profile_digest(p: &Program) -> u64 {
    Fnv::new().bytes(profile(p).to_json().as_bytes()).0
}

fn sim_digest((r, probe): &(SimResult, SimProfile)) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.total_cycles);
    for t in &r.threads {
        h.f64(t.start).f64(t.finish);
    }
    let (critical_sections, barriers, cond_vars) = probe.sync.table3();
    h.u64(critical_sections).u64(barriers).u64(cond_vars);
    h.intervals(&r.intervals).0
}

fn predict_digest(p: &Prediction) -> u64 {
    let mut h = Fnv::new();
    h.f64(p.total_cycles);
    for t in &p.threads {
        h.f64(t.active_cycles).f64(t.sync_cycles).f64(t.finish);
    }
    h.intervals(&p.intervals).0
}

/// The design point's machine, widened so every thread gets a core.
fn machine(dp: DesignPoint, threads: usize) -> MachineConfig {
    if threads > 5 {
        dp.config_with_cores(threads as u32)
    } else {
        dp.config()
    }
}

fn work(ops: u32, seed: u64) -> BlockSpec {
    BlockSpec::new(ops, seed)
        .loads(0.2)
        .stores(0.05)
        .branches(0.1)
        .deps(0.3, 4.0)
}

/// Four threads through plain and condition-variable barriers, with the
/// slowest thread changing from phase to phase.
fn barriers() -> Program {
    let mut b = ProgramBuilder::new("sync-barriers", 4);
    let plain = b.alloc_barrier();
    let cond = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..4u32 {
        let mut tb = b.thread(t);
        for phase in 0..3u32 {
            let ops = 2_000 + 1_500 * ((t + phase) % 4);
            tb.block(work(ops, u64::from(t * 10 + phase)));
            if phase % 2 == 0 {
                tb.barrier(plain);
            } else {
                tb.cond_barrier(cond);
            }
        }
    }
    b.join_workers();
    b.build()
}

/// Eight threads contending for one mutex around short critical sections
/// that write a shared region.
fn contended_mutex() -> Program {
    let mut b = ProgramBuilder::new("sync-mutex", 8);
    let m = b.alloc_mutex();
    let shared = b.alloc_region(64);
    b.spawn_workers();
    for t in 0..8u32 {
        let mut tb = b.thread(t);
        for k in 0..4u64 {
            tb.block(work(300 + 100 * t, u64::from(t) << 8 | k))
                .lock(m)
                .block(
                    BlockSpec::new(400, 0x1000 | u64::from(t) << 8 | k)
                        .loads(0.2)
                        .stores(0.2)
                        .addr(AddressPattern::random(shared), 1.0),
                )
                .unlock(m);
        }
    }
    b.join_workers();
    b.build()
}

/// One producer, six consumers: each batch of three items arrives while
/// more consumers than items are waiting; the last consumer finds an item
/// produced before it arrived.
fn producer_consumer() -> Program {
    let mut b = ProgramBuilder::new("sync-queue", 7);
    let q = b.alloc_queue();
    b.spawn_workers();
    b.thread(0u32)
        .block(work(8_000, 1))
        .produce(q, 3)
        .block(work(6_000, 2))
        .produce(q, 3)
        .produce(q, 1);
    for t in 1..7u32 {
        b.thread(t)
            .block(work(200 * t, 10 + u64::from(t)))
            .consume(q)
            .block(work(1_500, 20 + u64::from(t)));
    }
    b.thread(6u32).block(work(20_000, 40)).consume(q);
    b.join_workers();
    b.build()
}

/// A reader holds the lock while a writer queues; later readers must wait
/// behind the writer rather than join the first reader, then enter
/// together once the writer leaves.
fn rwlock_writer_between_readers() -> Program {
    let mut b = ProgramBuilder::new("sync-rwlock", 5);
    let rw = b.alloc_rwlock();
    b.spawn_workers();
    b.thread(1u32)
        .rw_lock(rw, false)
        .block(work(12_000, 1))
        .rw_unlock(rw);
    b.thread(2u32)
        .block(work(1_000, 2))
        .rw_lock(rw, true)
        .block(work(3_000, 3))
        .rw_unlock(rw);
    for t in 3..5u32 {
        b.thread(t)
            .block(work(2_500 * t, u64::from(t)))
            .rw_lock(rw, false)
            .block(work(4_000, 10 + u64::from(t)))
            .rw_unlock(rw)
            .block(work(500, 20 + u64::from(t)))
            .rw_lock(rw, true)
            .block(work(800, 30 + u64::from(t)))
            .rw_unlock(rw);
    }
    b.join_workers();
    b.build()
}

/// Four waiters on a semaphore: a post of three permits releases three of
/// them, a later post of two the fourth plus a permit a fifth wait finds.
fn semaphore_waiters() -> Program {
    let mut b = ProgramBuilder::new("sync-sem", 5);
    let s = b.alloc_sem();
    b.spawn_workers();
    b.thread(0u32)
        .block(work(9_000, 1))
        .sem_post(s, 3)
        .block(work(5_000, 2))
        .sem_post(s, 2);
    for t in 1..5u32 {
        b.thread(t)
            .block(work(400 * t, 10 + u64::from(t)))
            .sem_wait(s)
            .block(work(2_000, 20 + u64::from(t)));
    }
    b.thread(4u32).block(work(12_000, 30)).sem_wait(s);
    b.join_workers();
    b.build()
}

/// A compute-only block: the simulator's coherence directory tracks at most
/// eight cores, so the sixteen-thread program stays out of data memory.
fn compute(ops: u32, seed: u64) -> BlockSpec {
    BlockSpec::new(ops, seed).branches(0.1).deps(0.3, 4.0)
}

/// Sixteen threads: the main thread joins short children that have long
/// finished and long ones still running, and a worker creates and joins a
/// grandchild of its own.
fn joins() -> Program {
    let mut b = ProgramBuilder::new("sync-joins", 16);
    for t in 1..15u32 {
        b.thread(0u32).create(ThreadId(t));
    }
    b.thread(0u32).block(compute(6_000, 1));
    for t in (1..15u32).rev() {
        b.thread(0u32).join(ThreadId(t));
    }
    for t in 1..15u32 {
        let ops = if t % 2 == 0 { 500 } else { 4_000 + 700 * t };
        b.thread(t).block(compute(ops, 100 + u64::from(t)));
    }
    b.thread(7u32)
        .create(ThreadId(15))
        .block(compute(300, 200))
        .join(ThreadId(15));
    b.thread(15u32).block(compute(9_000, 201));
    b.build()
}

/// Expected digests: profile JSON, then `simulate` and `predict` at the
/// five design points, smallest to biggest.
struct Expected {
    profile: u64,
    simulate: [u64; 5],
    predict: [u64; 5],
}

fn check(program: Program, want: Expected) {
    let n = program.num_threads();
    let prof = profile(&program);
    let got_profile = profile_digest(&program);
    let mut got_sim = [0u64; 5];
    let mut got_pred = [0u64; 5];
    for (k, dp) in DesignPoint::ALL.into_iter().enumerate() {
        let config = machine(dp, n);
        got_sim[k] = sim_digest(&simulate_profiled(&program, &config, SimEngine::Fused));
        got_pred[k] = predict_digest(&predict(&prof, &config));
    }
    let hex = |v: &[u64]| {
        v.iter()
            .map(|d| format!("0x{d:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let actual = format!(
        "{}: profile 0x{got_profile:016x}, simulate [{}], predict [{}]",
        program.name,
        hex(&got_sim),
        hex(&got_pred)
    );
    assert_eq!(got_profile, want.profile, "profile digest; {actual}");
    assert_eq!(got_sim, want.simulate, "simulate digests; {actual}");
    assert_eq!(got_pred, want.predict, "predict digests; {actual}");
}

#[test]
fn barrier_and_cond_barrier() {
    check(
        barriers(),
        Expected {
            profile: 0x2eae6deea4e942a9,
            simulate: [
                0x70c739a6b05003a5,
                0x47869c6c53ceec26,
                0x4fc3e36923b169c3,
                0x165298b0bfa95d6c,
                0x7b6d98c8939f54b1,
            ],
            predict: [
                0x5ebe98f6474bed79,
                0x4e1bd6aa97c5ad51,
                0xeca712ddbc104b4b,
                0xe0b63205396e680a,
                0x52f433f88dea3707,
            ],
        },
    );
}

#[test]
fn contended_mutex_serializes() {
    check(
        contended_mutex(),
        Expected {
            profile: 0xe00ba1b318e65cee,
            simulate: [
                0x7a019c829429b68d,
                0x1a80bee4b28bad8d,
                0xdae5989519012c08,
                0x67dd5a5c93adc423,
                0xfb9d82f6b307754b,
            ],
            predict: [
                0x51aa1b89f9c287c6,
                0xcc289ad2ec822ebb,
                0x26783f6a540a8f9e,
                0xe2d540e0e01a2179,
                0xedd856dad81e5ed9,
            ],
        },
    );
}

#[test]
fn produce_many_to_more_waiting_consumers() {
    check(
        producer_consumer(),
        Expected {
            profile: 0x6f2219d84f17856e,
            simulate: [
                0xaf1e85f34dd52cf7,
                0x4a1d1859c416c733,
                0x5d1338c505938800,
                0x0729ab9931273e77,
                0x7c8d92ca3326c23f,
            ],
            predict: [
                0xb0680699eb9cc9cb,
                0xfa024f58c26df6a5,
                0x07363d40b15f41ab,
                0xf19bd16dd2f1eea1,
                0x393c67906c2079c5,
            ],
        },
    );
}

#[test]
fn rwlock_readers_queue_behind_a_waiting_writer() {
    check(
        rwlock_writer_between_readers(),
        Expected {
            profile: 0xb5dbfca9b96961a6,
            simulate: [
                0x6a05512041a9b8b7,
                0xbb7fe7da8bf9c780,
                0xc287da84687060e6,
                0x2efce0b8bd4ae950,
                0xe2460d1d766b4c2e,
            ],
            predict: [
                0x96cc8e145683015e,
                0x7833a80e8e27f532,
                0xe62d0a514b6f9d1f,
                0xaf8db6bd046b5f52,
                0xc496cec65e3095b3,
            ],
        },
    );
}

#[test]
fn sem_post_many_to_several_waiters() {
    check(
        semaphore_waiters(),
        Expected {
            profile: 0x349e808c2e611962,
            simulate: [
                0x5ac1e6f147217200,
                0x861cbe11bbd06fd3,
                0x4b1c973dcb6831db,
                0x36e0e47079d66e3f,
                0x1c63f2311151fa78,
            ],
            predict: [
                0x03d777d0dccbf142,
                0x9e5f4ee44c8d1194,
                0x5bf72e067b238e08,
                0x69f256530d381136,
                0x9a9c42e352210244,
            ],
        },
    );
}

#[test]
fn join_finished_and_running_children() {
    check(
        joins(),
        Expected {
            profile: 0xd13825a2ed72f670,
            simulate: [
                0xf20bc0aead22729e,
                0xc7ce9e368665ef68,
                0x30c84acf33633e68,
                0x4d9ed67f46ab3c2a,
                0xcc0e8a0c9ffcf88a,
            ],
            predict: [
                0xebd1017a5930e730,
                0x34460826250db533,
                0x3d107b2faa1f467d,
                0xc1e55e09c7c5abd0,
                0x90b4dbc0f4bc9e69,
            ],
        },
    );
}
