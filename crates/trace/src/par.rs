//! Minimal scoped-thread fan-out used by design-space sweeps.
//!
//! Prediction is embarrassingly parallel — every (profile, configuration)
//! cell is independent — so a design-space sweep only needs a
//! deterministic index-parallel loop, not a task system. [`parallel_for`]
//! is that loop: dynamically load-balanced over scoped worker threads,
//! with results placed by index so output order never depends on the
//! worker count. The `rppm` session facade (`predict_sweep`), the
//! design-space engine and the `rppm-bench` experiment engine all drive
//! their fan-out through it. It lives in `rppm-trace` (the bottom of the
//! crate stack); `rppm_core` re-exports its three functions at its root.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(0..n)` on up to `jobs` scoped worker threads, dynamically
/// load-balanced. With `jobs <= 1` (or `n <= 1`) runs inline on the caller
/// thread. Panics in `f` propagate to the caller.
pub fn parallel_for(jobs: usize, n: usize, f: impl Fn(usize) + Sync) {
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Maps `f` over `0..n` on up to `jobs` worker threads, collecting results
/// in index order (independent of scheduling).
pub fn parallel_map<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    parallel_for(jobs, n, |i| {
        *slots[i].lock().expect("slot lock") = Some(f(i));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(4, hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_is_index_ordered() {
        let out = parallel_map(8, 50, |i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let out = parallel_map(1, 4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }
}
