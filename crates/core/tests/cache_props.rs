//! Property tests for the bounded [`ProfileCache`]: random multi-threaded
//! interleavings of `get_or_profile` under a tiny budget must never exceed
//! the bound, never run two profiling passes for a key concurrently,
//! always return bit-identical profiles across eviction/re-profile cycles,
//! prepare each profile exactly once per profiling run, and account every
//! resident entry (preparation included) at its `approx_bytes()`.

use proptest::prelude::*;
use rppm_core::{CacheBudget, PreparedProfile, ProfileCache, ProfileKey};
use rppm_trace::{BlockSpec, Program, ProgramBuilder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

fn tiny(seed: u64) -> Arc<Program> {
    let mut b = ProgramBuilder::new("prop", 2);
    b.spawn_workers();
    b.thread(1u32)
        .block(BlockSpec::new(200 + (seed % 7) as u32, seed));
    b.join_workers();
    Arc::new(b.build())
}

fn key(seed: u64) -> ProfileKey {
    ProfileKey::generated("prop", 0.5, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of lookups from several threads, against a cache
    /// whose budget is far smaller than the key universe, holds three
    /// invariants: the resident count never exceeds the budget, every
    /// build is accounted as exactly one profiling run, and a key's
    /// profile bytes are identical no matter how many eviction cycles it
    /// went through.
    #[test]
    fn bounded_cache_survives_concurrent_churn(
        max_entries in 1usize..4,
        ops in proptest::collection::vec((0u64..6, 0usize..3), 9..36),
    ) {
        let cache = Arc::new(ProfileCache::with_budget(CacheBudget::entries(max_entries)));
        let builds = Arc::new(AtomicUsize::new(0));
        let canonical: Arc<Mutex<HashMap<u64, String>>> = Arc::default();

        // Partition the sampled ops across 3 threads by their thread tag;
        // the OS supplies the interleaving.
        let mut per_thread: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for &(seed, thread) in &ops {
            per_thread[thread].push(seed);
        }
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|seeds| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let canonical = Arc::clone(&canonical);
                std::thread::spawn(move || {
                    for seed in seeds {
                        let got = cache.get_or_profile(key(seed), || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            tiny(seed)
                        });
                        let json = got.profile.to_json();
                        let mut map = canonical.lock().unwrap();
                        match map.get(&seed) {
                            Some(first) => assert_eq!(
                                first, &json,
                                "profile for seed {seed} changed across eviction cycles"
                            ),
                            None => {
                                map.insert(seed, json);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }

        prop_assert!(
            cache.resident() <= max_entries,
            "resident {} exceeds budget {}",
            cache.resident(),
            max_entries
        );
        // Every closure invocation is one counted profiling run — the cache
        // never double-builds a slot and never loses track of one.
        prop_assert_eq!(builds.load(Ordering::Relaxed), cache.profiles_collected());
        prop_assert_eq!(cache.lookups(), ops.len());
        let distinct = canonical.lock().unwrap().len();
        prop_assert!(cache.profiles_collected() >= distinct || ops.is_empty());
        // The byte account is exactly the resident entries' sizes.
        let resident: Vec<_> = (0..6).filter_map(|seed| cache.peek(&key(seed))).collect();
        prop_assert_eq!(resident.len(), cache.resident());
        prop_assert_eq!(
            resident.iter().map(|w| w.approx_bytes()).sum::<u64>(),
            cache.resident_bytes()
        );
    }
}

/// Concurrent requests for one key always coalesce onto a single profiling
/// run — including requests for a key that was evicted and is being
/// re-profiled. Each rendezvous round of 4 threads must trigger exactly
/// one build and one preparation, no matter how many eviction cycles
/// separate the rounds.
#[test]
fn in_flight_key_is_profiled_exactly_once_per_round() {
    let cache = Arc::new(ProfileCache::with_budget(CacheBudget::entries(1)));
    let builds = Arc::new(AtomicUsize::new(0));
    const THREADS: usize = 4;

    let mut expected_builds = 0;
    // Every round's preparation, held so no address is reused.
    let mut preparations: Vec<Arc<PreparedProfile>> = Vec::new();
    for round in 0..3u64 {
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let got = cache.get_or_profile(key(7), || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window: every thread in the round
                        // arrives while this build is still in flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        tiny(7)
                    });
                    assert!(Arc::ptr_eq(got.prepared.profile(), &got.profile));
                    (got.profile.to_json(), got.prepared)
                })
            })
            .collect();
        let (jsons, prepared): (Vec<String>, Vec<Arc<PreparedProfile>>) = handles
            .into_iter()
            .map(|h| h.join().expect("round thread panicked"))
            .unzip();
        assert!(
            jsons.windows(2).all(|w| w[0] == w[1]),
            "round {round}: coalesced callers saw different profiles"
        );
        assert!(
            prepared.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "round {round}: coalesced callers saw different preparations"
        );
        assert!(
            preparations.iter().all(|p| !Arc::ptr_eq(p, &prepared[0])),
            "round {round}: re-profiling an evicted key must prepare it afresh"
        );
        preparations.push(Arc::clone(&prepared[0]));
        expected_builds += 1;
        assert_eq!(
            builds.load(Ordering::Relaxed),
            expected_builds,
            "round {round}: an in-flight key was profiled more than once"
        );
        // Evict key 7 so the next round re-profiles it from scratch.
        cache.get_or_profile(key(1000 + round), tiny_builder(1000 + round));
        assert!(
            cache.peek(&key(7)).is_none(),
            "round {round}: key 7 evicted"
        );
    }
    assert_eq!(cache.resident(), 1);
}

fn tiny_builder(seed: u64) -> impl FnOnce() -> Arc<Program> {
    move || tiny(seed)
}

/// A resident entry is accounted at its program, profile and preparation
/// sizes together, and the preparation counts its StatStack models.
#[test]
fn resident_bytes_count_the_preparation() {
    let cache = ProfileCache::new();
    let w = cache.get_or_profile(key(3), tiny_builder(3));
    let prepared = w.prepared.approx_bytes();
    assert!(prepared > 0);
    assert_eq!(
        w.approx_bytes(),
        w.program.approx_bytes() + w.profile.approx_bytes() + prepared
    );
    assert_eq!(cache.resident_bytes(), w.approx_bytes());
    // A second entry adds exactly its own size.
    let v = cache.get_or_profile(key(4), tiny_builder(4));
    assert_eq!(cache.resident_bytes(), w.approx_bytes() + v.approx_bytes());
}
