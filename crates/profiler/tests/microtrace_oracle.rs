//! Pins [`analyze`] bit for bit against a straightforward reference.
//!
//! The reference below is the per-window formulation of the Van den Steen
//! et al. micro-trace analysis, written as separate passes: one critical-path
//! pass per ILP window size (every load latency at once), one bitset pass for
//! MLP and one pass over disjoint 64-op windows for branch resolution.
//! `analyze` must return exactly the same `f64`s (compared by bit pattern)
//! for random traces of every length class — shorter than 4 and 16 ops,
//! non-multiples of 16/64/512, longer than 512 — over every op class, with
//! dependence distances that reach past the start of the trace.

use proptest::prelude::*;
use rppm_profiler::microtrace::{analyze, LOAD_LAT_GRID, WINDOWS};
use rppm_trace::{MicroOp, OpClass, Rng};

const NLAT: usize = LOAD_LAT_GRID.len();

// The reference: the analysis as it was written before the one-pass
// rewrite, one pass per ILP window, then MLP, then branch resolution.

fn lat_of(op: &MicroOp, load_lat: f64) -> f64 {
    if op.class == OpClass::Load {
        load_lat
    } else {
        op.class.latency() as f64
    }
}

fn critical_path_lanes(ops: &[MicroOp], depth: &mut [[f64; NLAT]]) -> [f64; NLAT] {
    let mut max = [0.0f64; NLAT];
    for (i, op) in ops.iter().enumerate() {
        let mut start = [0.0f64; NLAT];
        if op.src1 != 0 {
            if let Some(j) = i.checked_sub(op.src1 as usize) {
                for (s, d) in start.iter_mut().zip(&depth[j]) {
                    *s = s.max(*d);
                }
            }
        }
        if op.src2 != 0 {
            if let Some(j) = i.checked_sub(op.src2 as usize) {
                for (s, d) in start.iter_mut().zip(&depth[j]) {
                    *s = s.max(*d);
                }
            }
        }
        if op.class == OpClass::Load {
            for (l, (s, lat)) in start.iter_mut().zip(LOAD_LAT_GRID).enumerate() {
                let d = *s + lat as f64;
                depth[i][l] = d;
                max[l] = max[l].max(d);
            }
        } else {
            let lat = op.class.latency() as f64;
            for (l, s) in start.iter_mut().enumerate() {
                let d = *s + lat;
                depth[i][l] = d;
                max[l] = max[l].max(d);
            }
        }
    }
    max
}

fn ilp_curves(trace: &[MicroOp]) -> Vec<Vec<(u32, f64)>> {
    let mut out: Vec<Vec<(u32, f64)>> = (0..NLAT)
        .map(|_| Vec::with_capacity(WINDOWS.len()))
        .collect();
    // Enough scratch for the largest chunk (full windows) and for the
    // whole-trace fallback (trace shorter than the window).
    let mut depth =
        vec![[0.0f64; NLAT]; trace.len().min(*WINDOWS.last().expect("nonempty") as usize)];
    for &w in &WINDOWS {
        let w_us = w as usize;
        if trace.len() < w_us {
            // Use the whole trace as a single (short) window if possible.
            if trace.len() >= 4 {
                let cp = critical_path_lanes(trace, &mut depth);
                for (l, curves) in out.iter_mut().enumerate() {
                    curves.push((w, trace.len() as f64 / cp[l].max(1.0)));
                }
            }
            continue;
        }
        let mut total_cp = [0.0f64; NLAT];
        let mut windows = 0u32;
        let mut i = 0;
        while i + w_us <= trace.len() {
            let cp = critical_path_lanes(&trace[i..i + w_us], &mut depth);
            for (t, c) in total_cp.iter_mut().zip(cp) {
                *t += c.max(1.0);
            }
            windows += 1;
            i += w_us;
        }
        if windows > 0 {
            for (l, curves) in out.iter_mut().enumerate() {
                curves.push((w, w as f64 / (total_cp[l] / windows as f64)));
            }
        }
    }
    out
}

fn mlp_curve(trace: &[MicroOp]) -> Vec<(u32, f64)> {
    let n_loads = trace.iter().filter(|o| o.class == OpClass::Load).count();
    if n_loads == 0 {
        return WINDOWS.iter().map(|&w| (w, 0.0)).collect();
    }
    let words = n_loads.div_ceil(64);
    // dep bitsets, op-major: dep[k*words..][..words].
    let mut dep = vec![0u64; trace.len() * words];
    // Positions of loads seen so far (sorted), and one sliding lower bound
    // per window: the first earlier load within `W[wi]` ops of the current
    // op. Pair counting: sums[wi] = #{(i, k) loads, 0 < pos_k - pos_i <=
    // W[wi], k independent of i} — identical to crediting each load i with
    // its independent trailing loads at every window checkpoint.
    let mut load_pos: Vec<usize> = Vec::with_capacity(n_loads);
    let mut lower = [0usize; WINDOWS.len()];
    let mut sums = [0u64; WINDOWS.len()];
    let mut li = 0usize; // load index of the current op, if it is a load
    for (k, op) in trace.iter().enumerate() {
        let (prev, cur) = dep.split_at_mut(k * words);
        let row = &mut cur[..words];
        let mut any = false;
        if op.src1 != 0 {
            if let Some(j) = k.checked_sub(op.src1 as usize) {
                for (r, p) in row.iter_mut().zip(&prev[j * words..(j + 1) * words]) {
                    *r |= p;
                    any |= *p != 0;
                }
            }
        }
        if op.src2 != 0 {
            if let Some(j) = k.checked_sub(op.src2 as usize) {
                for (r, p) in row.iter_mut().zip(&prev[j * words..(j + 1) * words]) {
                    *r |= p;
                    any |= *p != 0;
                }
            }
        }
        if op.class == OpClass::Load {
            for (wi, &w) in WINDOWS.iter().enumerate() {
                while lower[wi] < li && k - load_pos[lower[wi]] > w as usize {
                    lower[wi] += 1;
                }
                let eligible = (li - lower[wi]) as u64;
                let dependent = if any {
                    count_bits_in_range(row, lower[wi], li)
                } else {
                    0
                };
                sums[wi] += eligible - dependent;
            }
            // Self bit: later ops reading this load become dependent on it.
            row[li / 64] |= 1u64 << (li % 64);
            load_pos.push(k);
            li += 1;
        }
    }
    WINDOWS
        .iter()
        .enumerate()
        .map(|(k, &w)| (w, sums[k] as f64 / n_loads as f64))
        .collect()
}

fn count_bits_in_range(row: &[u64], lo: usize, hi: usize) -> u64 {
    if lo >= hi {
        return 0;
    }
    let (lw, lb) = (lo / 64, lo % 64);
    let (hw, hb) = (hi / 64, hi % 64);
    if lw == hw {
        // Same word and hi > lo imply 0 <= lb < hb <= 63.
        let mask = (u64::MAX >> (64 - hb)) & (u64::MAX << lb);
        return (row[lw] & mask).count_ones() as u64;
    }
    let mut n = (row[lw] & (u64::MAX << lb)).count_ones() as u64;
    for w in &row[lw + 1..hw] {
        n += w.count_ones() as u64;
    }
    if hb > 0 {
        n += (row[hw] & (u64::MAX >> (64 - hb))).count_ones() as u64;
    }
    n
}

fn branch_resolution(trace: &[MicroOp]) -> (f64, f64) {
    // Dependence chains persist through the register file, so the window
    // here reflects how far back a chain can realistically hold up a branch
    // (roughly the dispatch backlog), not the issue-queue depth.
    const W: usize = 64;
    // Load weight used when tracing the memory-critical path: high enough
    // that any path through a potentially-missing load dominates. The
    // *depth* is still reported at nominal latencies; only the load count
    // uses the memory-weighted path (a load that misses turns its path into
    // the critical one, so this is the count that matters at prediction
    // time).
    const MEM_W: f64 = 75.0;
    let mut total = 0.0f64;
    let mut total_loads = 0.0f64;
    let mut branches = 0u64;
    // Fixed-size window: stack scratch, no per-window allocation.
    let mut depth = [0.0f64; W];
    let mut mem_depth = [0.0f64; W];
    let mut path_loads = [0.0f64; W];
    let mut i = 0;
    while i < trace.len() {
        let end = (i + W).min(trace.len());
        let slice = &trace[i..end];
        for (k, op) in slice.iter().enumerate() {
            let mut start = 0.0f64;
            let mut mstart = 0.0f64;
            let mut loads = 0.0f64;
            for src in [op.src1, op.src2] {
                if src != 0 {
                    if let Some(j) = k.checked_sub(src as usize) {
                        start = start.max(depth[j]);
                        if mem_depth[j] > mstart {
                            mstart = mem_depth[j];
                            loads = path_loads[j];
                        }
                    }
                }
            }
            depth[k] = start + op.class.latency() as f64;
            mem_depth[k] = mstart + lat_of(op, MEM_W);
            path_loads[k] = loads + (op.class == OpClass::Load) as u64 as f64;
            if op.class == OpClass::Branch {
                total += depth[k];
                total_loads += loads;
                branches += 1;
            }
        }
        i = end;
    }
    if branches == 0 {
        (0.0, 0.0)
    } else {
        (total / branches as f64, total_loads / branches as f64)
    }
}

/// A random trace of `len` ops: a per-trace class mix (some traces are
/// load-heavy, so the MLP bitsets span several words) and dependence
/// distances that are mostly short, sometimes medium and sometimes anywhere
/// in `0..=1100` (past the op's own index, or across window boundaries).
fn random_trace(seed: u64, len: usize) -> Vec<MicroOp> {
    let mut rng = Rng::new(seed);
    let load_share = rng.next_f64();
    let none_share = rng.next_f64() * 0.5;
    let src = |rng: &mut Rng| -> u16 {
        let r = rng.next_f64();
        if r < none_share {
            0
        } else if r < 0.75 {
            1 + rng.next_below(8) as u16
        } else if r < 0.92 {
            1 + rng.next_below(80) as u16
        } else {
            rng.next_below(1101) as u16
        }
    };
    (0..len)
        .map(|_| {
            let class = if rng.chance(load_share) {
                OpClass::Load
            } else {
                OpClass::ALL[rng.next_below(OpClass::ALL.len() as u64) as usize]
            };
            MicroOp::compute(class, src(&mut rng), src(&mut rng))
        })
        .collect()
}

fn assert_matches_reference(trace: &[MicroOp]) {
    let a = analyze(trace);
    let ilp = ilp_curves(trace);
    let mlp = mlp_curve(trace);
    let (depth, slice_loads) = branch_resolution(trace);
    let n = trace.len();
    assert_eq!(a.ops, n);
    assert_eq!(a.ilp.len(), ilp.len(), "len {n}: ILP latency count");
    for (l, (got, want)) in a.ilp.iter().zip(&ilp).enumerate() {
        assert_eq!(got.len(), want.len(), "len {n}: ILP curve {l} length");
        for (&(gw, gv), &(ww, wv)) in got.iter().zip(want) {
            assert_eq!(gw, ww, "len {n}: ILP curve {l} windows");
            assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "len {n}: ILP[{l}] at {gw}: {gv} vs {wv}"
            );
        }
    }
    assert_eq!(a.mlp.len(), mlp.len(), "len {n}: MLP curve length");
    for (&(gw, gv), &(ww, wv)) in a.mlp.iter().zip(&mlp) {
        assert_eq!(gw, ww, "len {n}: MLP windows");
        assert_eq!(
            gv.to_bits(),
            wv.to_bits(),
            "len {n}: MLP at {gw}: {gv} vs {wv}"
        );
    }
    assert_eq!(
        a.branch_depth.to_bits(),
        depth.to_bits(),
        "len {n}: branch depth"
    );
    assert_eq!(
        a.branch_slice_loads.to_bits(),
        slice_loads.to_bits(),
        "len {n}: branch slice loads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn analyze_matches_reference_on_random_traces(seed in any::<u64>(), len in 0usize..1101) {
        assert_matches_reference(&random_trace(seed, len));
    }
}

#[test]
fn analyze_matches_reference_at_every_length_boundary() {
    let mut lengths: Vec<usize> = (0..=40).collect();
    for w in [64usize, 128, 256, 512, 1024] {
        lengths.extend([w - 1, w, w + 1]);
    }
    lengths.extend([100, 500, 700, 1100]);
    for (k, &len) in lengths.iter().enumerate() {
        for s in 0..3u64 {
            assert_matches_reference(&random_trace(k as u64 * 31 + s, len));
        }
    }
}

#[test]
fn analyze_matches_reference_on_all_class_chains() {
    // Each class alone, fully chained: the deepest paths the lanes hold.
    for class in OpClass::ALL {
        for len in [3usize, 17, 64, 513, 1100] {
            let trace: Vec<MicroOp> = (0..len).map(|_| MicroOp::compute(class, 1, 2)).collect();
            assert_matches_reference(&trace);
        }
    }
}
