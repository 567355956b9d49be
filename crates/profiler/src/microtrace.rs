//! Micro-trace analysis: ILP, MLP and branch-resolution depth.
//!
//! Following Van den Steen et al., fine-grained characteristics are measured
//! on sampled *micro-traces* (about a thousand consecutive micro-ops):
//!
//! * **ILP curve** — for each window size `W`, the IPC an idealized machine
//!   (infinite fetch/issue bandwidth, window of `W` in-flight ops) can
//!   sustain given the trace's register dependences and instruction
//!   latencies: `W / mean(critical path of disjoint W-windows)`.
//! * **MLP structure** — for each window size `W`, the average number of
//!   loads within the next `W` ops that are *not* (transitively) data
//!   dependent on a given load; multiplied by the predicted per-load miss
//!   probability this yields the expected miss overlap (memory-level
//!   parallelism).
//! * **Branch resolution depth** — the average dependence-chain latency from
//!   window entry to a branch's execution, i.e. the paper's `c_res`.
//!
//! # One pass
//!
//! All three are computed in a single forward pass over the trace. Each op
//! resolves its two sources once and fills one row of 32 `f32`
//! critical-path depths: one lane per (window size, load latency) pair, plus
//! the number of loads on the branch-resolution memory path. This is exact:
//!
//! * A depth is a sum of integer latencies along a chain inside one window,
//!   so it never exceeds `512 × 250`, far below 2^24: `f32` holds every
//!   depth, and every maximum of depths, exactly.
//! * The windows are aligned powers of two, so source `j` lies in op `i`'s
//!   `W`-window iff `i ^ j < W`. A trace shorter than `W` is one window,
//!   which the same test covers (both indices are below `W`). Each lane
//!   simply ignores sources outside its window; a window's maximum is
//!   folded into its sum when the window's last op is reached.
//! * Branch resolution uses disjoint 64-op windows at nominal latencies
//!   and at the memory weight `MEM_W`: exactly the 64-op lanes at load
//!   latencies `LOAD_LAT_GRID[0]` (a load's nominal latency) and
//!   `LOAD_LAT_GRID[3]`, which a const assertion pins.
//! * MLP dependences are integers (one bitset row per op over the trace's
//!   loads), and every `f64` sum — per-window critical paths, branch depths
//!   and load counts — is accumulated in the same order as a separate pass
//!   per window would.
//!
//! The scratch rows live in a `Scratch` the profiler owns and reuses for
//! every micro-trace of a run.

use rppm_trace::op::NUM_OP_CLASSES;
use rppm_trace::{MicroOp, OpClass};

/// Window sizes (in micro-ops) at which ILP and MLP are profiled.
pub const WINDOWS: [u32; 6] = [16, 32, 64, 128, 256, 512];

/// Load latencies (cycles) at which the ILP curve is evaluated. The profile
/// stays microarchitecture-independent by *parameterizing* the critical-path
/// analysis over the load latency; at prediction time the model interpolates
/// at the expected per-load latency implied by the cache model (L1 hit …
/// coherence intervention). This is how mid-level cache latencies fold into
/// the effective dispatch rate, as in the paper's Equation 1.
pub const LOAD_LAT_GRID: [u32; 5] = [3, 12, 35, 75, 250];

/// Result of analyzing one micro-trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroTraceAnalysis {
    /// Per load latency in [`LOAD_LAT_GRID`]: `(window, achievable IPC)`
    /// per profiled window size.
    pub ilp: Vec<Vec<(u32, f64)>>,
    /// `(window, mean independent trailing loads per load)`.
    pub mlp: Vec<(u32, f64)>,
    /// Mean dependence-chain latency feeding branches (cycles at nominal
    /// latencies).
    pub branch_depth: f64,
    /// Mean number of loads on the critical dependence path feeding a
    /// branch — at prediction time each contributes its expected cache
    /// latency to the branch resolution time.
    pub branch_slice_loads: f64,
    /// Micro-ops analyzed.
    pub ops: usize,
}

/// Analyzes one micro-trace (typically ~500 consecutive ops).
pub fn analyze(trace: &[MicroOp]) -> MicroTraceAnalysis {
    let a = Scratch::default().analyze(trace);
    let curve =
        |values: &[f64; NWIN]| -> Vec<(u32, f64)> { WINDOWS.into_iter().zip(*values).collect() };
    MicroTraceAnalysis {
        ilp: match &a.ilp {
            Some(ilp) => ilp.iter().map(curve).collect(),
            None => vec![Vec::new(); NLAT],
        },
        mlp: curve(&a.mlp),
        branch_depth: a.branch_depth,
        branch_slice_loads: a.branch_slice_loads,
        ops: trace.len(),
    }
}

/// Number of profiled load latencies.
pub(crate) const NLAT: usize = LOAD_LAT_GRID.len();
/// Number of profiled window sizes.
pub(crate) const NWIN: usize = WINDOWS.len();
/// Critical-path lanes, window-major: lane `k * NLAT + l` is window
/// `WINDOWS[k]` with loads costing `LOAD_LAT_GRID[l]` cycles.
const ILP_LANES: usize = NWIN * NLAT;
/// Lane holding the loads on an op's branch-resolution memory path.
const PATH_LOADS: usize = ILP_LANES;
/// Width of one depth row (the ILP lanes, the path-load lane, padding).
const LANES: usize = 32;

/// Branch resolution's window: dependence chains persist through the
/// register file, so it reflects how far back a chain can realistically
/// hold up a branch (roughly the dispatch backlog), not the issue-queue
/// depth.
const BRANCH_WINDOW: usize = 2;
/// Load weight used when tracing the memory-critical path feeding a
/// branch: high enough that any path through a potentially-missing load
/// dominates. The *depth* is still reported at nominal latencies; only the
/// load count uses the memory-weighted path (a load that misses turns its
/// path into the critical one, so this is the count that matters at
/// prediction time).
const MEM_W: u32 = 75;
/// The branch lanes: the branch window at a load's nominal latency
/// (`LOAD_LAT_GRID[0]`) and at `MEM_W` (`LOAD_LAT_GRID[3]`).
const NOMINAL: usize = BRANCH_WINDOW * NLAT;
const MEM: usize = BRANCH_WINDOW * NLAT + 3;

const _: () = {
    assert!(ILP_LANES < LANES);
    // Windows are 16 · 2^k, so `window_reaching` can take a logarithm.
    let mut k = 0;
    while k < NWIN {
        assert!(WINDOWS[k] == 16 << k);
        k += 1;
    }
    // Branch resolution reads the 64-op lanes at these two latencies.
    assert!(WINDOWS[BRANCH_WINDOW] == 64);
    assert!(LOAD_LAT_GRID[0] == OpClass::Load.latency());
    assert!(LOAD_LAT_GRID[3] == MEM_W);
};

/// Per class, the latency each lane adds: a load costs its lane's
/// [`LOAD_LAT_GRID`] entry, every other class its nominal latency.
const LANE_LATENCY: [[f32; LANES]; NUM_OP_CLASSES] = {
    let mut t = [[0.0; LANES]; NUM_OP_CLASSES];
    let mut c = 0;
    while c < NUM_OP_CLASSES {
        let class = OpClass::ALL[c];
        let mut lane = 0;
        while lane < ILP_LANES {
            t[c][lane] = match class {
                OpClass::Load => LOAD_LAT_GRID[lane % NLAT],
                _ => class.latency(),
            } as f32;
            lane += 1;
        }
        c += 1;
    }
    t
};

/// `IN_WINDOW[k][lane]` is 1 for the ILP lanes of windows `WINDOWS[k..]`
/// and 0 elsewhere: the lanes a source reaches when the smallest window
/// holding it is `WINDOWS[k]` (`k == NWIN`: none).
const IN_WINDOW: [[f32; LANES]; NWIN + 1] = {
    let mut t = [[0.0; LANES]; NWIN + 1];
    let mut k = 0;
    while k <= NWIN {
        let mut lane = k * NLAT;
        while lane < ILP_LANES {
            t[k][lane] = 1.0;
            lane += 1;
        }
        k += 1;
    }
    t
};

/// Index of the smallest window holding a source at `reach = i ^ j`
/// (`NWIN` if none does).
#[inline]
fn window_reaching(reach: usize) -> usize {
    ((reach | 8).ilog2() as usize - 3).min(NWIN)
}

/// Reusable buffers of the one-pass analysis: a depth row per op, a
/// load-dependence bitset row per op and the number of loads before each
/// op.
/// One per profiling run; [`analyze`] makes its own.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    depth: Vec<[f32; LANES]>,
    dep: Vec<u64>,
    loads_before: Vec<usize>,
}

/// One micro-trace's analysis in fixed-size form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Analysis {
    /// `ilp[l][k]`: IPC at window `WINDOWS[k]` with loads costing
    /// `LOAD_LAT_GRID[l]`; `None` for a trace shorter than 4 ops.
    pub(crate) ilp: Option<[[f64; NWIN]; NLAT]>,
    /// Mean independent trailing loads per load, per window.
    pub(crate) mlp: [f64; NWIN],
    /// Mean nominal dependence-chain latency feeding a branch.
    pub(crate) branch_depth: f64,
    /// Mean loads on the memory-critical path feeding a branch.
    pub(crate) branch_slice_loads: f64,
}

impl Scratch {
    /// Analyzes `trace` in one forward pass (see the module docs).
    pub(crate) fn analyze(&mut self, trace: &[MicroOp]) -> Analysis {
        let n = trace.len();
        let n_loads = trace.iter().filter(|o| o.class == OpClass::Load).count();
        let words = n_loads.div_ceil(64);
        // Every row is written before it is read, so growing is enough.
        if self.depth.len() < n {
            self.depth.resize(n, [0.0; LANES]);
        }
        if self.dep.len() < n * words {
            self.dep.resize(n * words, 0);
        }
        if self.loads_before.len() < n {
            self.loads_before.resize(n, 0);
        }

        // ILP: the running critical path of each lane's current window,
        // and per window the sum of its completed windows' paths.
        let mut cp = [0.0f32; LANES];
        let mut total = [[0.0f64; NLAT]; NWIN];
        let mut windows = [0u32; NWIN];
        // MLP: per window, the count of independent (load, trailing load)
        // pairs within the window.
        let mut pairs = [0u64; NWIN];
        let mut li = 0usize;
        // Branch resolution sums.
        let (mut depth_sum, mut loads_sum, mut branches) = (0.0f64, 0.0f64, 0u64);

        for (i, op) in trace.iter().enumerate() {
            let sources = [op.src1, op.src2].map(|s| match s {
                0 => None,
                s => i.checked_sub(s as usize),
            });
            let is_load = op.class == OpClass::Load;

            // Critical paths, all lanes at once; and the memory-critical
            // source of the branch-resolution path (the first deepest one).
            let mut start = [0.0f32; LANES];
            let (mut mem_start, mut path_loads) = (0.0f32, 0.0f32);
            for j in sources.into_iter().flatten() {
                let (row, reach) = (&self.depth[j], i ^ j);
                let mask = &IN_WINDOW[window_reaching(reach)];
                for ((s, d), m) in start.iter_mut().zip(row).zip(mask) {
                    *s = s.max(d * m);
                }
                if reach < WINDOWS[BRANCH_WINDOW] as usize && row[MEM] > mem_start {
                    mem_start = row[MEM];
                    path_loads = row[PATH_LOADS];
                }
            }
            let row = &mut self.depth[i];
            for (((d, s), lat), c) in row
                .iter_mut()
                .zip(start)
                .zip(&LANE_LATENCY[op.class.index()])
                .zip(cp.iter_mut())
            {
                *d = s + lat;
                *c = c.max(*d);
            }
            row[PATH_LOADS] = path_loads + is_load as u8 as f32;
            if op.class == OpClass::Branch {
                depth_sum += row[NOMINAL] as f64;
                loads_sum += path_loads as f64;
                branches += 1;
            }
            // Fold every window that ends at this op (windows nest).
            for (k, &w) in WINDOWS.iter().enumerate() {
                if (i + 1) % w as usize != 0 {
                    break;
                }
                let lanes = &mut cp[k * NLAT..(k + 1) * NLAT];
                for (t, c) in total[k].iter_mut().zip(lanes.iter_mut()) {
                    *t += (*c as f64).max(1.0);
                    *c = 0.0;
                }
                windows[k] += 1;
            }

            // MLP: `dep` row `i` has bit `b` set iff op `i` transitively
            // depends on load number `b`.
            if words == 0 {
                continue;
            }
            let (prev, cur) = self.dep.split_at_mut(i * words);
            let row = &mut cur[..words];
            row.fill(0);
            let mut any = false;
            for j in sources.into_iter().flatten() {
                for (r, p) in row.iter_mut().zip(&prev[j * words..(j + 1) * words]) {
                    *r |= p;
                    any |= *p != 0;
                }
            }
            self.loads_before[i] = li;
            if is_load {
                // The earlier loads within each window (the loads from
                // position `i - w` on), and how many of them this load
                // depends on; windows nest, so each count extends the
                // previous window's.
                let (mut hi, mut dependent) = (li, 0);
                for (k, &w) in WINDOWS.iter().enumerate() {
                    let lower = self.loads_before[i.saturating_sub(w as usize)];
                    if any {
                        dependent += count_bits_in_range(row, lower, hi);
                        hi = lower;
                    }
                    pairs[k] += (li - lower) as u64 - dependent;
                }
                // Self bit: later ops reading this load depend on it.
                row[li / 64] |= 1u64 << (li % 64);
                li += 1;
            }
        }

        // A trace shorter than a window is analyzed as one short window
        // (if it has at least 4 ops); otherwise only complete windows count.
        let ilp = (n >= 4).then(|| {
            let mut ilp = [[0.0; NWIN]; NLAT];
            for (k, &w) in WINDOWS.iter().enumerate() {
                for (l, curve) in ilp.iter_mut().enumerate() {
                    curve[k] = if n < w as usize {
                        n as f64 / (cp[k * NLAT + l] as f64).max(1.0)
                    } else {
                        w as f64 / (total[k][l] / windows[k] as f64)
                    };
                }
            }
            ilp
        });
        let per_load = |p: u64| {
            if n_loads == 0 {
                0.0
            } else {
                p as f64 / n_loads as f64
            }
        };
        let per_branch = |s: f64| {
            if branches == 0 {
                0.0
            } else {
                s / branches as f64
            }
        };
        Analysis {
            ilp,
            mlp: pairs.map(per_load),
            branch_depth: per_branch(depth_sum),
            branch_slice_loads: per_branch(loads_sum),
        }
    }
}

/// Population count of `row` bits in `[lo, hi)`.
#[inline]
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

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::{AddressPattern, BlockSpec, Region};

    #[test]
    fn independent_ops_have_high_ilp() {
        let trace = BlockSpec::new(2048, 1).deps(0.0, 1.0).deps2(0.0).expand();
        let a = analyze(&trace);
        for &(w, ipc) in &a.ilp[0] {
            assert!(ipc > w as f64 / 2.0, "window {w}: ipc {ipc}");
        }
    }

    #[test]
    fn serial_chain_has_ilp_one() {
        let trace = BlockSpec::new(2048, 2).deps(1.0, 1.0).deps2(0.0).expand();
        let a = analyze(&trace);
        for &(w, ipc) in &a.ilp[0] {
            assert!(ipc < 1.3, "window {w}: ipc {ipc}");
        }
    }

    #[test]
    fn ilp_grows_with_window_for_mixed_code() {
        let trace = BlockSpec::new(4096, 3).deps(0.6, 12.0).expand();
        let a = analyze(&trace);
        let first = a.ilp[0].first().expect("has windows").1;
        let last = a.ilp[0].last().expect("has windows").1;
        assert!(
            last >= first * 0.9,
            "ILP curve should not collapse: {:?}",
            a.ilp[0]
        );
    }

    #[test]
    fn higher_load_latency_lowers_ilp() {
        let trace = BlockSpec::new(4096, 13)
            .loads(0.3)
            .deps(0.5, 3.0)
            .addr(AddressPattern::random(Region::new(0, 4096)), 1.0)
            .expand();
        let a = analyze(&trace);
        // ILP at load latency 75 must be well below ILP at latency 3.
        let fast = a.ilp[0].last().expect("curve").1;
        let slow = a.ilp[3].last().expect("curve").1;
        assert!(slow < fast * 0.6, "fast {fast} slow {slow}");
    }

    #[test]
    fn branch_slice_loads_counts_memory_feeding_branches() {
        // Branches chained directly to loads have loads on their path.
        let loady = BlockSpec::new(4096, 14)
            .loads(0.4)
            .branches(0.2)
            .deps(1.0, 1.5)
            .addr(AddressPattern::random(Region::new(0, 4096)), 1.0)
            .expand();
        let slice_loads = analyze(&loady).branch_slice_loads;
        assert!(slice_loads > 1.0, "loady slice loads {slice_loads}");

        let pure = BlockSpec::new(4096, 15)
            .branches(0.2)
            .deps(1.0, 1.5)
            .expand();
        let none = analyze(&pure).branch_slice_loads;
        assert!(none < 0.2, "pure-compute slice loads {none}");
    }

    #[test]
    fn independent_loads_give_mlp() {
        let region = Region::new(0, 1 << 20);
        let trace = BlockSpec::new(4096, 4)
            .loads(0.25)
            .deps(0.0, 1.0)
            .addr(AddressPattern::stream(region), 1.0)
            .expand();
        let a = analyze(&trace);
        // In a 128-op window with 25% loads, ~32 trailing loads, all
        // independent.
        let (w, v) = a.mlp[3];
        assert_eq!(w, 128);
        assert!(v > 20.0, "mlp@128 {v}");
    }

    #[test]
    fn chained_loads_have_no_mlp() {
        let region = Region::new(0, 1 << 20);
        let trace = BlockSpec::new(4096, 5)
            .loads(0.25)
            .deps(0.0, 1.0)
            .load_chain(1.0)
            .addr(AddressPattern::random(region), 1.0)
            .expand();
        let a = analyze(&trace);
        for &(w, v) in &a.mlp {
            assert!(
                v < 1.0,
                "window {w}: chained loads should be dependent, got {v}"
            );
        }
    }

    #[test]
    fn mlp_monotone_in_window() {
        let region = Region::new(0, 1 << 18);
        let trace = BlockSpec::new(4096, 6)
            .loads(0.2)
            .deps(0.3, 6.0)
            .addr(AddressPattern::random(region), 1.0)
            .expand();
        let a = analyze(&trace);
        let mut prev = -1.0;
        for &(w, v) in &a.mlp {
            assert!(v >= prev - 1e-9, "MLP decreased at window {w}");
            prev = v;
        }
    }

    #[test]
    fn branch_depth_zero_without_branches() {
        let trace = BlockSpec::new(512, 7).expand();
        let no_branch: Vec<_> = trace
            .iter()
            .filter(|o| o.class != OpClass::Branch)
            .cloned()
            .collect();
        assert_eq!(analyze(&no_branch).branch_depth, 0.0);
    }

    #[test]
    fn dependent_branches_resolve_later() {
        // Branches depending on long chains resolve late.
        let chained = BlockSpec::new(2048, 8)
            .branches(0.1)
            .deps(1.0, 1.0)
            .expand();
        let free = BlockSpec::new(2048, 8)
            .branches(0.1)
            .deps(0.0, 1.0)
            .expand();
        let d_chained = analyze(&chained).branch_depth;
        let d_free = analyze(&free).branch_depth;
        assert!(
            d_chained > d_free * 2.0,
            "chained {d_chained} vs free {d_free}"
        );
    }

    #[test]
    fn empty_trace_is_benign() {
        let a = analyze(&[]);
        assert!(a.ilp.iter().all(|c| c.is_empty()));
        assert_eq!(a.branch_depth, 0.0);
        assert_eq!(a.branch_slice_loads, 0.0);
        assert_eq!(a.ops, 0);
    }

    #[test]
    fn short_trace_uses_whole_slice() {
        let trace = BlockSpec::new(10, 9).expand();
        let a = analyze(&trace);
        assert!(!a.ilp.is_empty(), "short traces still yield an ILP point");
    }
}
