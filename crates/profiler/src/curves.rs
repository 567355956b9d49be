//! Interpolating the profiled ILP and MLP curves.
//!
//! [`EpochProfile::ilp_at`] and [`EpochProfile::mlp_at`] interpolate the
//! profiled curves log-linearly in the window size (and, for ILP, in the
//! load latency). The logarithms of the grid's six [`WINDOWS`] and five
//! [`LOAD_LAT_GRID`] latencies are the same in every epoch, so a
//! [`GridLogs`] holds them: an evaluator takes them once and passes them to
//! every interpolation. A curve point or latency off the grid (a hand-built
//! or deserialized curve, a latency between grid values) takes its
//! logarithm on the spot, so every curve interpolates to the same bits as
//! if each logarithm were taken on every call. The tests below pin this.

use crate::microtrace::{LOAD_LAT_GRID, NLAT, NWIN, WINDOWS};
use crate::EpochProfile;

impl EpochProfile {
    /// Achievable IPC for an instruction window of `window` micro-ops and
    /// an expected per-load latency of `load_lat` cycles, interpolated
    /// (log-linearly in both dimensions) on the profiled grid, whose
    /// logarithms `logs` holds. Returns `None` when the epoch was too small
    /// to profile ILP.
    pub fn ilp_at(&self, logs: &GridLogs, window: u32, load_lat: f64) -> Option<f64> {
        if self.ilp.is_empty() {
            return None;
        }
        let grid = &LOAD_LAT_GRID;
        let lat = load_lat.clamp(grid[0] as f64, *grid.last().expect("grid") as f64);
        // Find the surrounding latitude pair.
        let mut k = 0;
        while k + 1 < grid.len() && (grid[k + 1] as f64) < lat {
            k += 1;
        }
        let w = window.max(1) as f64;
        let ln_w = w.ln();
        let lo = interp_curve(self.ilp.get(k)?, logs, w, ln_w)?;
        if k + 1 >= self.ilp.len() {
            return Some(lo);
        }
        let hi = interp_curve(&self.ilp[k + 1], logs, w, ln_w)?;
        let ln_lat = if lat == grid[k] as f64 {
            logs.lats[k]
        } else {
            lat.ln()
        };
        let (l0, l1) = (logs.lats[k], logs.lats[k + 1]);
        let t = ((ln_lat - l0) / (l1 - l0)).clamp(0.0, 1.0);
        Some(lo + t * (hi - lo))
    }

    /// Mean independent trailing loads within `window` micro-ops of a load,
    /// log-linearly interpolated (`logs` as for [`EpochProfile::ilp_at`]).
    /// Returns `None` when unprofiled.
    pub fn mlp_at(&self, logs: &GridLogs, window: u32) -> Option<f64> {
        let w = window.max(1) as f64;
        interp_curve(&self.mlp, logs, w, w.ln())
    }
}

/// The natural logarithms of the profiled grid: every [`WINDOWS`] size and
/// every [`LOAD_LAT_GRID`] latency (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridLogs {
    windows: [f64; NWIN],
    lats: [f64; NLAT],
}

impl GridLogs {
    /// Takes the grid's eleven logarithms.
    pub fn new() -> Self {
        GridLogs {
            windows: WINDOWS.map(|w| f64::from(w).ln()),
            lats: LOAD_LAT_GRID.map(|l| f64::from(l).ln()),
        }
    }

    /// `ln(window)` of point `j` of a curve: the table's value when the
    /// point sits at the grid's `j`-th window, as every profiled curve's
    /// points do, else taken here.
    fn window_ln(&self, j: usize, window: u32) -> f64 {
        match WINDOWS.get(j) {
            Some(&w) if w == window => self.windows[j],
            _ => off_grid_ln(window),
        }
    }
}

impl Default for GridLogs {
    fn default() -> Self {
        GridLogs::new()
    }
}

/// `ln(window)` of a curve point off the grid; out of line, because
/// profiled curves never get here.
#[cold]
fn off_grid_ln(window: u32) -> f64 {
    f64::from(window).ln()
}

/// Log-linear interpolation on a `(window, value)` curve at window `w`
/// (at least 1), whose logarithm is `ln_w`.
pub(crate) fn interp_curve(
    curve: &[(u32, f64)],
    logs: &GridLogs,
    w: f64,
    ln_w: f64,
) -> Option<f64> {
    let &(w_first, v_first) = curve.first()?;
    if w <= w_first as f64 {
        return Some(v_first);
    }
    for (j, pair) in curve.windows(2).enumerate() {
        let (w0, v0) = pair[0];
        let (w1, v1) = pair[1];
        if w <= w1 as f64 {
            let lw0 = logs.window_ln(j, w0);
            let lw1 = logs.window_ln(j + 1, w1);
            let t = (ln_w - lw0) / (lw1 - lw0);
            return Some(v0 + t * (v1 - v0));
        }
    }
    Some(curve.last().expect("nonempty").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: [`interp_curve`] as it was before the grid
    /// logarithms were shared, taking every logarithm on the call.
    fn per_call_curve(curve: &[(u32, f64)], window: u32) -> Option<f64> {
        let w = window.max(1) as f64;
        let &(w_first, v_first) = curve.first()?;
        if w <= w_first as f64 {
            return Some(v_first);
        }
        for pair in curve.windows(2) {
            let (w0, v0) = pair[0];
            let (w1, v1) = pair[1];
            if w <= w1 as f64 {
                let lw0 = (w0 as f64).ln();
                let t = (w.ln() - lw0) / ((w1 as f64).ln() - lw0);
                return Some(v0 + t * (v1 - v0));
            }
        }
        Some(curve.last().expect("nonempty").1)
    }

    /// The reference for [`EpochProfile::ilp_at`], on [`per_call_curve`].
    fn per_call_ilp(e: &EpochProfile, window: u32, load_lat: f64) -> Option<f64> {
        if e.ilp.is_empty() {
            return None;
        }
        let grid = LOAD_LAT_GRID.map(f64::from);
        let lat = load_lat.clamp(grid[0], grid[NLAT - 1]);
        let mut k = 0;
        while k + 1 < NLAT && grid[k + 1] < lat {
            k += 1;
        }
        let lo = per_call_curve(e.ilp.get(k)?, window)?;
        if k + 1 >= e.ilp.len() {
            return Some(lo);
        }
        let hi = per_call_curve(&e.ilp[k + 1], window)?;
        let (l0, l1) = (grid[k].ln(), grid[k + 1].ln());
        let t = ((lat.ln() - l0) / (l1 - l0)).clamp(0.0, 1.0);
        Some(lo + t * (hi - lo))
    }

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
        let logs = GridLogs::new();
        assert_eq!(e.ilp_at(&logs, 64, 10.0), None);
        assert_eq!(e.mlp_at(&logs, 64), None);
    }

    #[test]
    fn short_ilp_vector_matches_profile() {
        // Fewer latitude curves than the grid: the `get(k)?` and
        // `k + 1 >= len` paths must match the reference exactly.
        let e = epoch_with(vec![vec![(16, 2.0), (64, 3.0)]], vec![(16, 1.0)]);
        let logs = GridLogs::new();
        for lat in [1.0, 3.0, 11.9, 12.0, 40.0, 300.0] {
            for w in [1u32, 8, 16, 33, 64, 512] {
                assert_eq!(
                    e.ilp_at(&logs, w, lat).map(f64::to_bits),
                    per_call_ilp(&e, w, lat).map(f64::to_bits),
                    "w {w} lat {lat}"
                );
                assert_eq!(
                    e.mlp_at(&logs, w).map(f64::to_bits),
                    per_call_curve(&e.mlp, w).map(f64::to_bits),
                    "w {w}"
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
            let mut vals = values.iter().copied();
            let ilp: Vec<Vec<(u32, f64)>> = (0..n_lats)
                .map(|_| WINDOWS.iter().map(|&w| (w, vals.next().unwrap())).collect())
                .collect();
            let e = epoch_with(ilp, vec![]);
            let logs = GridLogs::new();
            for &w in windows.iter().chain(&WINDOWS) {
                for &lat in lats.iter().chain(&LOAD_LAT_GRID.map(f64::from)) {
                    prop_assert_eq!(
                        e.ilp_at(&logs, w, lat).map(f64::to_bits),
                        per_call_ilp(&e, w, lat).map(f64::to_bits),
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
            let mlp: Vec<(u32, f64)> = WINDOWS.iter().zip(&values).map(|(&w, &v)| (w, v)).collect();
            let e = epoch_with(vec![], mlp);
            let logs = GridLogs::new();
            for &w in windows.iter().chain(&WINDOWS) {
                prop_assert_eq!(
                    e.mlp_at(&logs, w).map(f64::to_bits),
                    per_call_curve(&e.mlp, w).map(f64::to_bits),
                    "w {}", w
                );
            }
        }
    }
}
