//! Pins [`EpochProfile::ilp_at`] and [`EpochProfile::mlp_at`] bit for bit
//! against a straightforward reference.
//!
//! The reference below is the log-linear interpolation as first written:
//! it takes the logarithm of every window and latitude it touches, on
//! every call. The public methods must return exactly the same `f64`s
//! (compared by bit pattern) for curves on the profiled grid (every
//! [`WINDOWS`] point, 0–5 latitude curves) and off it (hand-built or
//! deserialized curves: 1–8 points at random sorted windows 0–2048, repeats
//! and window 0 allowed, up to 7 latitude curves), queried at windows
//! 0–4096 and load latencies 0–400, including every grid value.

use proptest::prelude::*;
use rppm_profiler::microtrace::{LOAD_LAT_GRID, WINDOWS};
use rppm_profiler::{EpochProfile, GridLogs};

// The reference: the interpolation before the grid logarithms were shared.

fn interp_curve(curve: &[(u32, f64)], window: u32) -> Option<f64> {
    if curve.is_empty() {
        return None;
    }
    let w = window.max(1) as f64;
    let first = curve[0];
    if w <= first.0 as f64 {
        return Some(first.1);
    }
    for pair in curve.windows(2) {
        let (w0, v0) = pair[0];
        let (w1, v1) = pair[1];
        if w <= w1 as f64 {
            let lw0 = (w0 as f64).ln();
            let lw1 = (w1 as f64).ln();
            let t = (w.ln() - lw0) / (lw1 - lw0);
            return Some(v0 + t * (v1 - v0));
        }
    }
    Some(curve.last().expect("nonempty").1)
}

fn ilp_at(epoch: &EpochProfile, window: u32, load_lat: f64) -> Option<f64> {
    if epoch.ilp.is_empty() {
        return None;
    }
    let grid = &LOAD_LAT_GRID;
    let lat = load_lat.clamp(grid[0] as f64, *grid.last().expect("grid") as f64);
    let mut k = 0;
    while k + 1 < grid.len() && (grid[k + 1] as f64) < lat {
        k += 1;
    }
    let lo = interp_curve(epoch.ilp.get(k)?, window)?;
    if k + 1 >= epoch.ilp.len() {
        return Some(lo);
    }
    let hi = interp_curve(&epoch.ilp[k + 1], window)?;
    let l0 = (grid[k] as f64).ln();
    let l1 = (grid[k + 1] as f64).ln();
    let t = ((lat.ln() - l0) / (l1 - l0)).clamp(0.0, 1.0);
    Some(lo + t * (hi - lo))
}

fn mlp_at(epoch: &EpochProfile, window: u32) -> Option<f64> {
    interp_curve(&epoch.mlp, window)
}

/// The public methods under test, as bit patterns: `(ilp, mlp)`.
fn public(epoch: &EpochProfile, window: u32, lat: f64) -> (Option<u64>, Option<u64>) {
    let logs = GridLogs::new();
    (
        epoch.ilp_at(&logs, window, lat).map(f64::to_bits),
        epoch.mlp_at(&logs, window).map(f64::to_bits),
    )
}

fn reference(epoch: &EpochProfile, window: u32, lat: f64) -> (Option<u64>, Option<u64>) {
    (
        ilp_at(epoch, window, lat).map(f64::to_bits),
        mlp_at(epoch, window).map(f64::to_bits),
    )
}

fn epoch_with(ilp: Vec<Vec<(u32, f64)>>, mlp: Vec<(u32, f64)>) -> EpochProfile {
    EpochProfile {
        ops: 1000,
        ilp,
        mlp,
        ..Default::default()
    }
}

/// Every grid window and latency, the clamp edges, and the random draws.
fn queries(windows: &[u32], lats: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut ws = vec![0, 1, 15, 17, 511, 513, 2048, 4096];
    ws.extend(WINDOWS);
    ws.extend(windows);
    let mut ls = vec![0.0, 1.0, 2.999, 250.001, 400.0];
    ls.extend(LOAD_LAT_GRID.map(f64::from));
    ls.extend(lats);
    (ws, ls)
}

fn assert_matches(epoch: &EpochProfile, windows: &[u32], lats: &[f64]) {
    let (ws, ls) = queries(windows, lats);
    for &w in &ws {
        for &lat in &ls {
            assert_eq!(
                public(epoch, w, lat),
                reference(epoch, w, lat),
                "w {} lat {} curves {:?} / {:?}",
                w,
                lat,
                &epoch.ilp,
                &epoch.mlp
            );
        }
    }
}

#[test]
fn empty_and_short_curves_match() {
    // No curves at all, and fewer latitude curves than the grid: the
    // `get(k)?` and `k + 1 >= len` paths.
    let cases = [
        epoch_with(vec![], vec![]),
        epoch_with(vec![vec![(16, 2.0), (64, 3.0)]], vec![(16, 1.0)]),
        epoch_with(
            vec![vec![(0, 1.0), (0, 2.0), (512, 3.0)]],
            vec![(0, 1.0), (64, 2.0)],
        ),
    ];
    for e in &cases {
        assert_matches(e, &[3, 33, 1000], &[11.9, 40.0, 300.0]);
    }
    assert_eq!(public(&cases[0], 64, 10.0), (None, None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Curves as the profiler writes them: one point per grid window.
    #[test]
    fn grid_curves_match_the_reference(
        n_lats in 0usize..6,
        has_mlp in 0usize..2,
        values in proptest::collection::vec(0.0f64..16.0, 36..37),
        windows in proptest::collection::vec(0u32..4097, 1..24),
        lats in proptest::collection::vec(0.0f64..400.0, 1..12),
    ) {
        let mut vals = values.iter().copied();
        let mut curve = || -> Vec<(u32, f64)> {
            WINDOWS.iter().map(|&w| (w, vals.next().expect("36 values"))).collect()
        };
        let ilp: Vec<Vec<(u32, f64)>> = (0..n_lats).map(|_| curve()).collect();
        let mlp = if has_mlp == 1 { curve() } else { Vec::new() };
        assert_matches(&epoch_with(ilp, mlp), &windows, &lats);
    }

    /// Hand-built or deserialized curves: any sorted windows, off the grid
    /// or on it, repeated or zero.
    #[test]
    fn off_grid_curves_match_the_reference(
        ilp in proptest::collection::vec(
            proptest::collection::vec((0u32..2049, 0usize..3, 0.0f64..16.0), 1..9),
            0..8,
        ),
        mlp in proptest::collection::vec((0u32..2049, 0usize..3, 0.0f64..16.0), 1..9),
        windows in proptest::collection::vec(0u32..4097, 1..24),
        lats in proptest::collection::vec(0.0f64..400.0, 1..12),
    ) {
        // A third of the points snap to a grid window, so curves mix grid
        // and off-grid points and repeat windows.
        let curve = |points: Vec<(u32, usize, f64)>| {
            let mut c: Vec<(u32, f64)> = points
                .into_iter()
                .map(|(w, snap, v)| (if snap == 0 { WINDOWS[w as usize % WINDOWS.len()] } else { w }, v))
                .collect();
            c.sort_by_key(|p| p.0);
            c
        };
        let ilp: Vec<Vec<(u32, f64)>> = ilp.into_iter().map(curve).collect();
        assert_matches(&epoch_with(ilp, curve(mlp)), &windows, &lats);
    }
}
