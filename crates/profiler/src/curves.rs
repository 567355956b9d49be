//! Precomputed ILP/MLP interpolation tables for the batched predictor.
//!
//! [`crate::EpochProfile::ilp_at`] recomputes the logarithms of the profiled
//! window grid on every call; fine for one prediction, dominant when a
//! design-space sweep evaluates the same epoch against 10⁵ configurations.
//! [`EpochCurves`] caches `ln(window)` per curve point and `ln(latitude)`
//! per grid latitude once per epoch, so each interpolation costs one table
//! scan and (at most) one fresh `ln` for the query latency.
//!
//! **Bit-identity contract**: every evaluation reproduces the exact
//! arithmetic expression of [`crate::EpochProfile::ilp_at`] /
//! [`crate::EpochProfile::mlp_at`] — same clamps, same comparison
//! boundaries, same operation order — so batched predictions are
//! bit-identical to single ones. The property tests below pin this.

use crate::microtrace::LOAD_LAT_GRID;
use crate::EpochProfile;

/// One point of a log-linear `(window, value)` curve with its cached
/// logarithm.
#[derive(Debug, Clone, Copy)]
struct CurvePoint {
    w: f64,
    v: f64,
    ln_w: f64,
}

/// A `(window, value)` curve with precomputed window logarithms.
#[derive(Debug, Clone, Default)]
struct CurveTable {
    pts: Vec<CurvePoint>,
}

impl CurveTable {
    fn new(curve: &[(u32, f64)]) -> Self {
        CurveTable {
            pts: curve
                .iter()
                .map(|&(w, v)| {
                    let wf = w as f64;
                    CurvePoint {
                        w: wf,
                        v,
                        ln_w: wf.ln(),
                    }
                })
                .collect(),
        }
    }

    /// Mirrors the profiler's private `interp_curve` exactly; `w` is the
    /// window clamped to at least 1 and `ln_w` its logarithm.
    fn eval(&self, w: f64, ln_w: f64) -> Option<f64> {
        let pts = &self.pts;
        let first = pts.first()?;
        if w <= first.w {
            return Some(first.v);
        }
        for pair in pts.windows(2) {
            if w <= pair[1].w {
                let t = (ln_w - pair[0].ln_w) / (pair[1].ln_w - pair[0].ln_w);
                return Some(pair[0].v + t * (pair[1].v - pair[0].v));
            }
        }
        Some(pts.last().expect("nonempty").v)
    }
}

/// Precomputed interpolation tables for one epoch's ILP and MLP curves.
///
/// Built once per distinct epoch by each `BatchedEq1` sweep evaluator (in
/// `rppm-core`) and evaluated once per `(epoch, configuration)` cell.
#[derive(Debug, Clone, Default)]
pub struct EpochCurves {
    ilp: Vec<CurveTable>,
    mlp: CurveTable,
    ln_grid: [f64; LOAD_LAT_GRID.len()],
}

impl EpochCurves {
    /// Builds the tables from an epoch's profiled curves.
    pub fn new(epoch: &EpochProfile) -> Self {
        let mut ln_grid = [0.0; LOAD_LAT_GRID.len()];
        for (slot, &g) in ln_grid.iter_mut().zip(&LOAD_LAT_GRID) {
            *slot = (g as f64).ln();
        }
        EpochCurves {
            ilp: epoch.ilp.iter().map(|c| CurveTable::new(c)).collect(),
            mlp: CurveTable::new(&epoch.mlp),
            ln_grid,
        }
    }

    /// [`EpochProfile::ilp_at`] from the cached tables; bit-identical to
    /// the profile method. The window logarithm is taken once and shared
    /// by both latitude curves.
    pub fn ilp_at(&self, window: u32, load_lat: f64) -> Option<f64> {
        if self.ilp.is_empty() {
            return None;
        }
        let w = window.max(1) as f64;
        let ln_w = w.ln();
        let grid = &LOAD_LAT_GRID;
        let lat = load_lat.clamp(grid[0] as f64, *grid.last().expect("grid") as f64);
        let mut k = 0;
        while k + 1 < grid.len() && (grid[k + 1] as f64) < lat {
            k += 1;
        }
        let lo = self.ilp.get(k)?.eval(w, ln_w)?;
        if k + 1 >= self.ilp.len() {
            return Some(lo);
        }
        let hi = self.ilp[k + 1].eval(w, ln_w)?;
        // `ln` of a value already on the grid is the cached grid logarithm
        // (same input, same function — identical bits); only off-grid
        // latencies pay a fresh `ln`.
        let ln_lat = if lat == grid[k] as f64 {
            self.ln_grid[k]
        } else {
            lat.ln()
        };
        let t =
            ((ln_lat - self.ln_grid[k]) / (self.ln_grid[k + 1] - self.ln_grid[k])).clamp(0.0, 1.0);
        Some(lo + t * (hi - lo))
    }

    /// [`EpochProfile::mlp_at`] from the cached table; bit-identical to
    /// the profile method.
    pub fn mlp_at(&self, window: u32) -> Option<f64> {
        let w = window.max(1) as f64;
        self.mlp.eval(w, w.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn epoch_with(ilp: Vec<Vec<(u32, f64)>>, mlp: Vec<(u32, f64)>) -> EpochProfile {
        EpochProfile {
            ops: 1000,
            ilp,
            mlp,
            ..Default::default()
        }
    }

    #[test]
    fn empty_curves_return_none() {
        let e = epoch_with(vec![], vec![]);
        let c = EpochCurves::new(&e);
        assert_eq!(c.ilp_at(64, 10.0), None);
        assert_eq!(c.mlp_at(64), None);
    }

    #[test]
    fn short_ilp_vector_matches_profile() {
        // Fewer latitude curves than the grid: the `get(k)?` and
        // `k + 1 >= len` paths must match the profile method exactly.
        let e = epoch_with(vec![vec![(16, 2.0), (64, 3.0)]], vec![(16, 1.0)]);
        let c = EpochCurves::new(&e);
        for lat in [1.0, 3.0, 11.9, 12.0, 40.0, 300.0] {
            for w in [1u32, 8, 16, 33, 64, 512] {
                assert_eq!(
                    c.ilp_at(w, lat).map(f64::to_bits),
                    e.ilp_at(w, lat).map(f64::to_bits),
                    "w {w} lat {lat}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn ilp_matches_profile_bit_for_bit(
            n_lats in 0usize..6,
            values in proptest::collection::vec(0.01f64..8.0, 36..37),
            windows in proptest::collection::vec(0u32..2048, 1..24),
            lats in proptest::collection::vec(0.0f64..400.0, 1..12),
        ) {
            let grid_w = [16u32, 32, 64, 128, 256, 512];
            let mut vals = values.iter().copied();
            let ilp: Vec<Vec<(u32, f64)>> = (0..n_lats)
                .map(|_| grid_w.iter().map(|&w| (w, vals.next().unwrap())).collect())
                .collect();
            let e = epoch_with(ilp, vec![]);
            let c = EpochCurves::new(&e);
            for &w in &windows {
                for &lat in &lats {
                    prop_assert_eq!(
                        c.ilp_at(w, lat).map(f64::to_bits),
                        e.ilp_at(w, lat).map(f64::to_bits),
                        "w {} lat {}", w, lat
                    );
                }
            }
        }

        #[test]
        fn mlp_matches_profile_bit_for_bit(
            values in proptest::collection::vec(0.0f64..16.0, 6..7),
            windows in proptest::collection::vec(0u32..2048, 1..24),
        ) {
            let grid_w = [16u32, 32, 64, 128, 256, 512];
            let mlp: Vec<(u32, f64)> = grid_w.iter().zip(&values).map(|(&w, &v)| (w, v)).collect();
            let e = epoch_with(vec![], mlp);
            let c = EpochCurves::new(&e);
            for &w in &windows {
                prop_assert_eq!(
                    c.mlp_at(w).map(f64::to_bits),
                    e.mlp_at(w).map(f64::to_bits),
                    "w {}", w
                );
            }
        }
    }
}
