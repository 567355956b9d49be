//! The profile-once cache: RPPM's amortization engine as a public type.
//!
//! The paper's headline workflow is *profile once, predict many*: one
//! microarchitecture-independent [`ApplicationProfile`] per workload,
//! amortized over every machine configuration it is evaluated on.
//! [`ProfileCache`] enforces that contract process-wide — each
//! [`ProfileKey`] is built and profiled exactly once per cache, no matter
//! how many callers, experiments or worker threads ask for it. Concurrent
//! requests for the same key block on the single profiling run; requests
//! for different keys proceed in parallel.
//!
//! The same run also prepares the profile: each resident entry holds one
//! [`PreparedProfile`] (the stack-distance models Equation 1 queries), so
//! every prediction from a cached workload costs the per-configuration
//! evaluation only, and no caller rebuilds the models.
//!
//! # Memory bounds
//!
//! By default the cache is **unbounded** — the right behavior for batch
//! runs (an `ExperimentPlan` touches each workload a handful of times and
//! exits). A long-lived process (`rppm serve`) instead constructs the
//! cache with a [`CacheBudget`]: a cap on resident entries and/or
//! approximate resident bytes. When a freshly collected profile pushes the
//! cache over its budget, least-recently-used **resident** entries are
//! evicted until the budget holds again ([`ProfileCache::evictions`]
//! counts them). Three guarantees survive eviction:
//!
//! * **Handles stay valid.** Eviction drops the cache's reference, not the
//!   caller's: a [`ProfiledWorkload`] obtained earlier keeps its `Arc`s
//!   (program, profile and preparation) alive for as long as the caller
//!   holds them.
//! * **In-flight keys still coalesce.** A key currently being profiled is
//!   never evicted, so concurrent requests — including requests for a key
//!   that was evicted and is being re-profiled — always fold onto one
//!   profiling run.
//! * **Re-profiling is bit-identical.** Builders are deterministic, so an
//!   evicted-then-re-requested key yields the same bytes it did the first
//!   time; eviction changes cost, never results.
//!
//! The cache is thread-safe and lives behind an `Arc` in the `rppm`
//! session facade. Every workload handle profiles through its session's
//! cache — library callers, `rppm serve`, the CLI and the `rppm-bench`
//! experiment engine alike — so all of them observe the one contract.

use crate::prepared::PreparedProfile;
use rppm_profiler::{profile, ApplicationProfile};
use rppm_trace::Program;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of a profiled workload.
///
/// Generated workloads are identified by name and generation parameters
/// (same key ⇒ bit-identical program and profile); externally collected
/// traces by content fingerprint (their dynamic stream is fixed, so
/// generation parameters are deliberately not part of the key). The two
/// namespaces never collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProfileKey {
    /// A workload produced by a deterministic generator (the benchmark
    /// catalog, or any caller-defined parametric source).
    Generated {
        /// Generator name.
        name: String,
        /// Work-scale multiplier, as raw bits (hashable, exact).
        scale_bits: u64,
        /// Generation seed.
        seed: u64,
    },
    /// A fixed program, identified by its content fingerprint
    /// (see `rppm_trace::program_fingerprint`).
    Fingerprint {
        /// Content fingerprint, stable across containers and re-imports.
        fingerprint: u64,
    },
}

impl ProfileKey {
    /// Key for a generated workload.
    pub fn generated(name: impl Into<String>, scale: f64, seed: u64) -> Self {
        ProfileKey::Generated {
            name: name.into(),
            scale_bits: scale.to_bits(),
            seed,
        }
    }

    /// Key for a fixed program, fingerprinted by content.
    pub fn fingerprint(fingerprint: u64) -> Self {
        ProfileKey::Fingerprint { fingerprint }
    }
}

/// A workload built, profiled and prepared once, shared (via [`Arc`]) by
/// every caller that predicts or simulates it.
#[derive(Debug, Clone)]
pub struct ProfiledWorkload {
    /// The program (needed for golden-reference simulation).
    pub program: Arc<Program>,
    /// The one-time microarchitecture-independent profile.
    pub profile: Arc<ApplicationProfile>,
    /// The profile's one preparation, which every prediction of this
    /// workload evaluates through.
    pub prepared: Arc<PreparedProfile>,
}

impl ProfiledWorkload {
    /// Approximate resident size of this entry (program + profile +
    /// preparation heap), the unit [`CacheBudget::max_bytes`] is accounted
    /// in.
    pub fn approx_bytes(&self) -> u64 {
        self.program.approx_bytes() + self.profile.approx_bytes() + self.prepared.approx_bytes()
    }
}

/// Memory budget for a [`ProfileCache`]: maximum resident entries and/or
/// approximate resident bytes (see [`ProfiledWorkload::approx_bytes`]).
///
/// The default ([`CacheBudget::unbounded`]) imposes no limit — existing
/// batch callers keep the grow-only behavior. Either cap may be set alone;
/// when both are set, exceeding either triggers eviction. A bound is
/// enforced over **resident** (fully profiled) entries: profiling runs in
/// flight are not counted (their size is unknown until they finish) and
/// are never evicted, preserving the profile-once coalescing guarantee.
/// The most recently completed entry itself is always retained, so a
/// single profile larger than `max_bytes` still serves its callers — the
/// cache then holds that one oversized entry alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum resident entries, or `None` for unlimited.
    pub max_entries: Option<usize>,
    /// Maximum approximate resident bytes, or `None` for unlimited.
    pub max_bytes: Option<u64>,
}

impl CacheBudget {
    /// No limits: the cache only grows (the pre-existing behavior).
    pub fn unbounded() -> Self {
        CacheBudget::default()
    }

    /// Caps the number of resident profiles.
    pub fn entries(n: usize) -> Self {
        CacheBudget {
            max_entries: Some(n),
            max_bytes: None,
        }
    }

    /// Caps the approximate resident bytes.
    pub fn bytes(n: u64) -> Self {
        CacheBudget {
            max_entries: None,
            max_bytes: Some(n),
        }
    }

    /// Adds an entry cap to this budget.
    pub fn with_entries(mut self, n: usize) -> Self {
        self.max_entries = Some(n);
        self
    }

    /// Adds a byte cap to this budget.
    pub fn with_bytes(mut self, n: u64) -> Self {
        self.max_bytes = Some(n);
        self
    }

    /// Whether this budget imposes no limit.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

/// One cache slot: the shared profiling cell plus bookkeeping for LRU
/// eviction and byte accounting.
#[derive(Debug)]
struct Entry {
    slot: Arc<OnceLock<ProfiledWorkload>>,
    /// Monotonic use tick; smallest = least recently used.
    last_used: u64,
    /// Approximate bytes once resident; `None` while profiling is in
    /// flight (in-flight entries are uncounted and unevictable).
    bytes: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<ProfileKey, Entry>,
    tick: u64,
    resident: usize,
    resident_bytes: u64,
}

impl Inner {
    /// Evicts least-recently-used resident entries until the budget holds,
    /// never touching in-flight entries or `keep` (the entry that just
    /// became resident). Returns the number of evictions.
    fn enforce(&mut self, budget: &CacheBudget, keep: &ProfileKey) -> usize {
        let over = |inner: &Inner| {
            budget.max_entries.is_some_and(|m| inner.resident > m)
                || budget.max_bytes.is_some_and(|m| inner.resident_bytes > m)
        };
        let mut evicted = 0;
        while over(self) {
            let victim = self
                .map
                .iter()
                .filter(|(k, e)| e.bytes.is_some() && *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                // Only `keep` (or in-flight entries) remain: an oversized
                // single profile is retained rather than thrashing.
                break;
            };
            let entry = self.map.remove(&victim).expect("victim exists");
            self.resident -= 1;
            self.resident_bytes -= entry.bytes.unwrap_or(0);
            evicted += 1;
        }
        evicted
    }
}

/// Shared profile store: each [`ProfileKey`] is built and profiled exactly
/// once per cache, no matter how many experiments, configurations, or
/// worker threads ask for it. Optionally memory-bounded — see
/// [`CacheBudget`] and [`ProfileCache::with_budget`].
#[derive(Debug, Default)]
pub struct ProfileCache {
    inner: Mutex<Inner>,
    budget: CacheBudget,
    lookups: AtomicUsize,
    profiled: AtomicUsize,
    evictions: AtomicUsize,
}

impl ProfileCache {
    /// Creates an empty, unbounded cache (the batch-run default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache enforcing `budget` (see [`CacheBudget`]).
    pub fn with_budget(budget: CacheBudget) -> Self {
        ProfileCache {
            budget,
            ..Self::default()
        }
    }

    /// The budget this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Returns the profiled workload for `key`, materializing the program
    /// with `build`, then profiling and preparing it on first use.
    /// Concurrent callers for the same key block until the single
    /// profiling run finishes; callers for different keys proceed in
    /// parallel. Under a [`CacheBudget`], completing a fresh profile may
    /// evict least-recently-used resident entries (the returned workload
    /// itself is never the victim of its own insertion). If `build` or the
    /// profiling run panics, the panic reaches the caller and the key's
    /// entry is dropped, so a later request profiles afresh.
    pub fn get_or_profile(
        &self,
        key: ProfileKey,
        build: impl FnOnce() -> Arc<Program>,
    ) -> ProfiledWorkload {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner.map.entry(key.clone()).or_insert_with(|| Entry {
                slot: Arc::default(),
                last_used: tick,
                bytes: None,
            });
            entry.last_used = tick;
            Arc::clone(&entry.slot)
        };
        let mut fresh = false;
        // Unwinding is caught only to drop the entry below; the panic is
        // then resumed unchanged.
        let init = panic::catch_unwind(AssertUnwindSafe(|| {
            slot.get_or_init(|| {
                // Release pairs with the Acquire load in
                // `profiles_collected`: a reader that sees this increment
                // also sees the `lookups` increment above, keeping `hits()`
                // non-negative.
                self.profiled.fetch_add(1, Ordering::Release);
                fresh = true;
                let program = build();
                let prof = Arc::new(profile(&program));
                let prepared = Arc::new(PreparedProfile::new(Arc::clone(&prof)));
                ProfiledWorkload {
                    program,
                    profile: prof,
                    prepared,
                }
            })
            .clone()
        }));
        let workload = match init {
            Ok(workload) => workload,
            Err(payload) => {
                // The build or the profiling run panicked and left the slot
                // empty. An empty entry is never evicted, so drop it (unless
                // a concurrent caller has since filled or replaced it); a
                // retry of the key then profiles afresh.
                let mut inner = self.inner.lock().expect("cache lock");
                if inner
                    .map
                    .get(&key)
                    .is_some_and(|e| Arc::ptr_eq(&e.slot, &slot) && e.slot.get().is_none())
                {
                    inner.map.remove(&key);
                }
                drop(inner); // released before unwinding: no poisoned lock
                panic::resume_unwind(payload)
            }
        };
        if fresh {
            self.mark_resident(&key, &slot, &workload);
        }
        workload
    }

    /// Returns the cached workload for `key` if (and only if) its profile
    /// is already resident, refreshing its LRU position. Never profiles;
    /// does not touch the lookup/hit counters (use [`ProfileCache::
    /// get_or_profile`] for the counted amortization path). This is the
    /// serving fast path: answer instantly on a hit, queue a profiling job
    /// on a miss.
    pub fn peek(&self, key: &ProfileKey) -> Option<ProfiledWorkload> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        let workload = entry.slot.get()?.clone();
        Some(workload)
    }

    /// Records a freshly profiled entry as resident and enforces the
    /// budget. The entry may already have been evicted (and even replaced)
    /// by a concurrent completion; only the slot this caller actually
    /// filled is accounted.
    fn mark_resident(
        &self,
        key: &ProfileKey,
        slot: &Arc<OnceLock<ProfiledWorkload>>,
        workload: &ProfiledWorkload,
    ) {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(entry) = inner.map.get_mut(key) {
            if Arc::ptr_eq(&entry.slot, slot) && entry.bytes.is_none() {
                let bytes = workload.approx_bytes();
                entry.bytes = Some(bytes);
                inner.resident += 1;
                inner.resident_bytes += bytes;
            }
        }
        if !self.budget.is_unbounded() {
            let evicted = inner.enforce(&self.budget, key);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Number of distinct workload slots currently tracked (resident
    /// profiles plus profiling runs in flight).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Returns whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of fully profiled entries currently resident (what
    /// [`CacheBudget::max_entries`] bounds).
    pub fn resident(&self) -> usize {
        self.inner.lock().expect("cache lock").resident
    }

    /// Approximate bytes held by resident entries (what
    /// [`CacheBudget::max_bytes`] bounds).
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().expect("cache lock").resident_bytes
    }

    /// Total lookups served (hits + profiling runs).
    pub fn lookups(&self) -> usize {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Lookups satisfied from an already-collected profile — the
    /// amortization the paper's "profile once, predict many" promises.
    pub fn hits(&self) -> usize {
        // Every miss increments `lookups` before `profiled`, and the
        // Acquire/Release pairing on `profiled` makes that prior lookup
        // visible here — so reading `profiled` first keeps the difference
        // non-negative; saturating_sub is a second line of defense.
        let profiled = self.profiles_collected();
        self.lookups().saturating_sub(profiled)
    }

    /// Number of profiling runs this cache has performed.
    pub fn profiles_collected(&self) -> usize {
        self.profiled.load(Ordering::Acquire)
    }

    /// Number of resident entries evicted to hold the [`CacheBudget`]
    /// (always 0 for unbounded caches).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::{BlockSpec, ProgramBuilder};

    fn tiny(name: &str, seed: u64) -> Arc<Program> {
        let mut b = ProgramBuilder::new(name, 2);
        b.spawn_workers();
        b.thread(1u32).block(BlockSpec::new(500, seed));
        b.join_workers();
        Arc::new(b.build())
    }

    #[test]
    fn same_key_profiles_once() {
        let cache = ProfileCache::new();
        let key = ProfileKey::generated("t", 0.5, 1);
        let a = cache.get_or_profile(key.clone(), || tiny("t", 1));
        let b = cache.get_or_profile(key, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a.profile, &b.profile));
        assert!(Arc::ptr_eq(&a.prepared, &b.prepared));
        assert!(Arc::ptr_eq(a.prepared.profile(), &a.profile));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.profiles_collected(), 1);
        assert_eq!(cache.lookups(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn distinct_keys_profile_separately() {
        let cache = ProfileCache::new();
        cache.get_or_profile(ProfileKey::generated("t", 0.5, 1), || tiny("t", 1));
        cache.get_or_profile(ProfileKey::generated("t", 0.5, 2), || tiny("t", 2));
        cache.get_or_profile(ProfileKey::fingerprint(42), || tiny("t", 1));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.profiles_collected(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn scale_and_seed_are_part_of_generated_identity() {
        assert_ne!(
            ProfileKey::generated("t", 0.5, 1),
            ProfileKey::generated("t", 0.25, 1)
        );
        assert_ne!(
            ProfileKey::generated("t", 0.5, 1),
            ProfileKey::generated("t", 0.5, 2)
        );
        assert_eq!(ProfileKey::fingerprint(7), ProfileKey::fingerprint(7));
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let cache = ProfileCache::with_budget(CacheBudget::entries(2));
        let k = |s: u64| ProfileKey::generated("t", 0.5, s);
        cache.get_or_profile(k(1), || tiny("t", 1));
        cache.get_or_profile(k(2), || tiny("t", 2));
        // Touch key 1 so key 2 becomes the LRU victim.
        cache.get_or_profile(k(1), || panic!("cached"));
        cache.get_or_profile(k(3), || tiny("t", 3));
        assert_eq!(cache.resident(), 2);
        assert_eq!(cache.evictions(), 1);
        // Key 1 survived; key 2 was evicted and must rebuild.
        cache.get_or_profile(k(1), || panic!("still cached"));
        let rebuilt = std::sync::atomic::AtomicUsize::new(0);
        cache.get_or_profile(k(2), || {
            rebuilt.fetch_add(1, Ordering::Relaxed);
            tiny("t", 2)
        });
        assert_eq!(rebuilt.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn byte_budget_holds_and_keeps_newest_oversized_entry() {
        // A budget smaller than any single profile: each insertion evicts
        // everything else but retains itself.
        let cache = ProfileCache::with_budget(CacheBudget::bytes(1));
        let k = |s: u64| ProfileKey::generated("t", 0.5, s);
        let a = cache.get_or_profile(k(1), || tiny("t", 1));
        assert!(a.approx_bytes() > 1);
        assert_eq!(cache.resident(), 1, "oversized entry retained");
        cache.get_or_profile(k(2), || tiny("t", 2));
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn eviction_and_reprofile_are_bit_identical() {
        let cache = ProfileCache::with_budget(CacheBudget::entries(1));
        let k = |s: u64| ProfileKey::generated("t", 0.5, s);
        let first = cache.get_or_profile(k(1), || tiny("t", 1));
        cache.get_or_profile(k(2), || tiny("t", 2)); // evicts key 1
        assert_eq!(cache.evictions(), 1);
        let again = cache.get_or_profile(k(1), || tiny("t", 1));
        assert!(!Arc::ptr_eq(&first.profile, &again.profile));
        assert!(!Arc::ptr_eq(&first.prepared, &again.prepared));
        assert_eq!(
            first.profile.to_json(),
            again.profile.to_json(),
            "re-profile after eviction is bit-identical"
        );
        // The evicted caller's handle stayed valid throughout.
        assert_eq!(first.program.name, "t");
    }

    #[test]
    fn panicking_builds_leave_no_entry() {
        let cache = ProfileCache::with_budget(CacheBudget::entries(1));
        let k = |s: u64| ProfileKey::generated("t", 0.5, s);
        for s in 0..10 {
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                cache.get_or_profile(k(s), || panic!("build {s} fails"))
            }));
            assert!(run.is_err(), "the build's panic reaches the caller");
        }
        assert_eq!(cache.len(), 0, "no entry outlives its failed build");
        assert_eq!(cache.resident(), 0);
        // A later good build of one of those keys profiles afresh and stays.
        cache.get_or_profile(k(3), || tiny("t", 3));
        assert!(cache.peek(&k(3)).is_some());
        assert_eq!((cache.len(), cache.resident()), (1, 1));
    }

    #[test]
    fn peek_never_profiles() {
        let cache = ProfileCache::new();
        let key = ProfileKey::generated("t", 0.5, 1);
        assert!(cache.peek(&key).is_none());
        assert_eq!(cache.profiles_collected(), 0);
        assert_eq!(cache.lookups(), 0, "peek is uncounted");
        cache.get_or_profile(key.clone(), || tiny("t", 1));
        assert!(cache.peek(&key).is_some());
        assert_eq!(cache.profiles_collected(), 1);
    }

    #[test]
    fn peek_refreshes_lru_position() {
        let cache = ProfileCache::with_budget(CacheBudget::entries(2));
        let k = |s: u64| ProfileKey::generated("t", 0.5, s);
        cache.get_or_profile(k(1), || tiny("t", 1));
        cache.get_or_profile(k(2), || tiny("t", 2));
        assert!(cache.peek(&k(1)).is_some(), "refreshes key 1");
        cache.get_or_profile(k(3), || tiny("t", 3));
        assert!(cache.peek(&k(1)).is_some(), "key 1 survived");
        assert!(cache.peek(&k(2)).is_none(), "key 2 was the LRU victim");
    }
}
