//! Pins deadlock detection in all three execution engines.
//!
//! Each program below deadlocks whatever the timing: the threads it names
//! wait on something no thread will ever do. The profiler, both simulator
//! engines and Algorithm 2 (over the same event streams) must all stop
//! with `deadlock: threads [..] blocked forever`, naming the same threads.

use rppm::core::{execute, ThreadTimeline};
use rppm::profiler::profile;
use rppm::sim::{simulate_with, NoProbe, SimEngine};
use rppm::trace::{BlockSpec, DesignPoint, Program, ProgramBuilder, ThreadId};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn work(seed: u64) -> BlockSpec {
    BlockSpec::new(2_000, seed).loads(0.2).branches(0.1)
}

/// A worker consumes from a queue that nothing produces into.
fn unproduced_consume() -> Program {
    let mut b = ProgramBuilder::new("unproduced-consume", 3);
    let q = b.alloc_queue();
    b.spawn_workers();
    b.thread(0u32).block(work(1));
    b.thread(1u32).block(work(2)).consume(q).block(work(3));
    b.thread(2u32).block(work(4));
    b.build()
}

/// A worker waits on a semaphore that nothing posts.
fn unposted_sem_wait() -> Program {
    let mut b = ProgramBuilder::new("unposted-sem-wait", 3);
    let s = b.alloc_sem();
    b.spawn_workers();
    b.thread(0u32).block(work(1));
    b.thread(1u32).block(work(2));
    b.thread(2u32).block(work(3)).sem_wait(s).block(work(4));
    b.build()
}

/// All three threads meet at a barrier once; thread 2 never reaches its
/// second instance, so the other two wait there forever.
fn unreached_barrier() -> Program {
    let mut b = ProgramBuilder::new("unreached-barrier", 3);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..3u32 {
        b.thread(t).block(work(t as u64)).barrier(bar);
    }
    for t in 0..2u32 {
        b.thread(t).block(work(10 + t as u64)).barrier(bar);
    }
    b.thread(2u32).block(work(12));
    b.build()
}

/// Main joins a finished worker, then a worker blocked forever on a queue.
fn join_of_blocked_thread() -> Program {
    let mut b = ProgramBuilder::new("join-of-blocked", 3);
    let q = b.alloc_queue();
    b.spawn_workers();
    b.thread(1u32).block(work(1)).consume(q);
    b.thread(2u32).block(work(2));
    b.thread(0u32)
        .block(work(3))
        .join(ThreadId(2))
        .join(ThreadId(1));
    b.build()
}

/// Runs `run`, which must panic with a deadlock, and returns the list of
/// threads its message names.
fn blocked_threads(engine: &str, run: impl FnOnce()) -> String {
    let payload =
        catch_unwind(AssertUnwindSafe(run)).expect_err(&format!("{engine}: the run must deadlock"));
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    let threads = msg
        .strip_prefix("deadlock: threads ")
        .and_then(|rest| rest.split_once(" blocked forever"))
        .map(|(threads, _)| threads.to_string());
    threads.unwrap_or_else(|| panic!("{engine}: not a deadlock panic: {msg}"))
}

#[test]
fn every_engine_names_the_same_deadlocked_threads() {
    let cases: [(Program, &str); 4] = [
        (unproduced_consume(), "[1]"),
        (unposted_sem_wait(), "[2]"),
        (unreached_barrier(), "[0, 1]"),
        (join_of_blocked_thread(), "[0, 1]"),
    ];
    let config = DesignPoint::Base.config();
    for (program, expected) in &cases {
        program
            .validate()
            .expect("the program is structurally valid");
        let timelines: Vec<ThreadTimeline> = program
            .threads
            .iter()
            .map(|t| {
                let events: Vec<_> = t.sync_ops().copied().collect();
                ThreadTimeline {
                    epochs: vec![1_000.0; events.len() + 1],
                    events,
                }
            })
            .collect();
        let check = |engine: &str, run: &dyn Fn()| {
            let engine = format!("{} / {engine}", program.name);
            assert_eq!(blocked_threads(&engine, run), *expected, "{engine}");
        };
        check("profile", &|| {
            profile(program);
        });
        for engine in [SimEngine::Fused, SimEngine::Reference] {
            check(&format!("simulate {engine:?}"), &|| {
                simulate_with(program, &config, engine, &mut NoProbe);
            });
        }
        check("execute", &|| {
            execute(&timelines, &config);
        });
    }
}
