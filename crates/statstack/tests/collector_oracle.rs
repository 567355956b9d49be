//! Pins [`MultiThreadCollector`] against a plain-map model of its semantics.
//!
//! The model keeps, per line, every thread's counters at its last access,
//! the global counter of the last access by anyone and the last writer with
//! the global counter of its write, all in `HashMap`s, exactly as the
//! multi-threaded StatStack extension defines them. Both are fed the same
//! random interleaved stream — 1 to 130 threads (either side of one 64-bit
//! word of thread bits), each with a private line pool, plus a pool every
//! thread draws from, random writes and random epoch boundaries — and every
//! [`EpochLocality`] must match.

use proptest::prelude::*;
use rppm_statstack::{EpochLocality, MultiThreadCollector, ReuseHistogram};
use rppm_trace::Rng;
use std::collections::HashMap;

#[derive(Default)]
struct ModelLine {
    /// Thread → (private counter, global counter) at its last access.
    last: HashMap<usize, (u64, u64)>,
    last_any_glob: u64,
    /// (writer, global counter) of the most recent write.
    last_write: Option<(usize, u64)>,
}

#[derive(Default)]
struct ModelEpoch {
    private: ReuseHistogram,
    global: ReuseHistogram,
    accesses: u64,
    stores: u64,
}

struct Model {
    global: u64,
    priv_count: Vec<u64>,
    lines: HashMap<u64, ModelLine>,
    epochs: Vec<ModelEpoch>,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            global: 0,
            priv_count: vec![0; n],
            lines: HashMap::new(),
            epochs: (0..n).map(|_| ModelEpoch::default()).collect(),
        }
    }

    fn access(&mut self, t: usize, line: u64, is_write: bool) {
        let (g, p) = (self.global, self.priv_count[t]);
        let e = &mut self.epochs[t];
        e.accesses += 1;
        e.stores += is_write as u64;
        let any_seen = self.lines.contains_key(&line);
        let st = self.lines.entry(line).or_default();
        match st.last.get(&t) {
            Some(&(priv_last, glob_last)) => {
                let invalidated =
                    matches!(st.last_write, Some((w, wg)) if w != t && wg > glob_last);
                if invalidated {
                    e.private.record_invalidated(1);
                } else {
                    e.private.record(p - priv_last - 1);
                }
                e.global.record(g - glob_last - 1);
            }
            None => {
                e.private.record_cold(1);
                if any_seen {
                    e.global.record(g - st.last_any_glob - 1);
                } else {
                    e.global.record_cold(1);
                }
            }
        }
        st.last.insert(t, (p, g));
        st.last_any_glob = g;
        if is_write {
            st.last_write = Some((t, g));
        }
        self.priv_count[t] += 1;
        self.global += 1;
    }

    fn end_epoch(&mut self, t: usize) -> ModelEpoch {
        std::mem::take(&mut self.epochs[t])
    }
}

fn assert_same(got: &EpochLocality, want: &ModelEpoch, thread: usize, step: usize) {
    assert_eq!(
        got.private, want.private,
        "private, thread {thread}, step {step}"
    );
    assert_eq!(
        got.global, want.global,
        "global, thread {thread}, step {step}"
    );
    assert_eq!(got.accesses, want.accesses, "accesses, thread {thread}");
    assert_eq!(got.stores, want.stores, "stores, thread {thread}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn collector_matches_map_model(
        seed in any::<u64>(),
        n_threads in 1usize..131,
        pools in (1u64..48, 1u64..48),
        steps in 1usize..6000,
    ) {
        let (private_lines, shared_lines) = pools;
        let mut rng = Rng::new(seed);
        let p_shared = rng.next_f64();
        let p_write = rng.next_f64() * 0.5;
        let mut collector = MultiThreadCollector::new(n_threads);
        let mut model = Model::new(n_threads);
        let mut thread = 0;
        for step in 0..steps {
            // Runs of one thread, so a thread reuses its own lines too.
            if rng.chance(0.3) {
                thread = rng.next_below(n_threads as u64) as usize;
            }
            let line = if rng.chance(p_shared) {
                (1 << 40) | rng.next_below(shared_lines)
            } else {
                ((thread as u64) << 20) | rng.next_below(private_lines)
            };
            let is_write = rng.chance(p_write);
            collector.access(thread, line, is_write);
            model.access(thread, line, is_write);
            if rng.chance(0.01) {
                let t = rng.next_below(n_threads as u64) as usize;
                assert_same(&collector.end_epoch(t), &model.end_epoch(t), t, step);
            }
        }
        for t in 0..n_threads {
            assert_same(&collector.end_epoch(t), &model.end_epoch(t), t, steps);
        }
        prop_assert_eq!(collector.unique_lines(), model.lines.len() as u64);
        prop_assert_eq!(collector.total_accesses(), model.global);
    }
}
