//! Seeded inputs. Every generated program, container choice, operation
//! order and upload is derived from the run's `--seed`; the program under
//! test only ever sees the generated inputs.

use rppm::trace::{Program, Rng};
use rppm::workloads::Params;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Work scale of every generated program (0.1 of the full evaluation
/// size, as in `rppm report` smoke runs).
pub const SCALE: f64 = 0.1;

/// Derives an independent seed for `tag` from the run seed (SplitMix64
/// finalizer, so neighbouring tags give unrelated streams).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order of round `round`: `items` shuffled (Fisher-Yates) by a
/// generator derived from the run seed, a per-workload stream tag and the
/// round number.
pub fn shuffled<T: Clone>(items: &[T], seed: u64, stream: u64, round: usize) -> Vec<T> {
    let mut out = items.to_vec();
    let mut rng = Rng::new(derive(derive(seed, stream), round as u64));
    for i in (1..out.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

/// Generation parameters of a run's `tag`-th program: the benchmark scale
/// and a seed derived from the run seed and `tag`.
pub fn params(seed: u64, tag: u64) -> Params {
    Params {
        scale: SCALE,
        seed: derive(seed, tag),
    }
}

/// Builds catalog benchmark `name` with `params`.
///
/// # Panics
///
/// If `name` is not in the catalog (the benchmark's own input lists are
/// fixed at compile time).
pub fn build(name: &str, params: &Params) -> Program {
    rppm::workloads::by_name(name)
        .unwrap_or_else(|| panic!("`{name}` is not in the catalog"))
        .build(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let items: Vec<u32> = (0..50).collect();
        assert_eq!(shuffled(&items, 1, 3, 0), shuffled(&items, 1, 3, 0));
        assert_ne!(shuffled(&items, 1, 3, 0), shuffled(&items, 2, 3, 0));
        assert_ne!(shuffled(&items, 1, 3, 0), shuffled(&items, 1, 3, 1));
        let mut sorted = shuffled(&items, 9, 3, 4);
        sorted.sort_unstable();
        assert_eq!(sorted, items);
    }
}
