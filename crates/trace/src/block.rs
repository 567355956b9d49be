//! Parametric instruction blocks and their deterministic expansion.

use crate::op::{MicroOp, OpClass};
use crate::pattern::{AddrSampler, AddressPattern, BranchPattern, BranchSampler};
use crate::rng::Rng;
use serde::{Deserialize, Serialize};

/// Number of micro-ops that fit in one instruction-cache line (64-byte lines,
/// ~4 bytes per instruction).
pub const OPS_PER_CODE_LINE: u64 = 16;

/// A parametric block of straight-line-ish code.
///
/// A block describes `ops` dynamic micro-ops by their statistical structure:
/// instruction mix, register-dependence profile (ILP), data-address patterns
/// and branch-outcome patterns. Expansion ([`BlockSpec::expand`]) is
/// deterministic in the embedded seed, so the profiler, the simulator and any
/// number of prediction runs all observe the identical dynamic stream —
/// the trace-IR equivalent of running the same binary twice under Pin.
///
/// `BlockSpec` is a consuming builder: configuration methods take and return
/// `self` so specs can be written inline (see crate-level example).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockSpec {
    /// Total micro-ops in the block.
    pub ops: u32,
    /// Expansion seed.
    pub seed: u64,
    /// Fraction of ops that are loads.
    pub f_load: f64,
    /// Fraction of ops that are stores.
    pub f_store: f64,
    /// Fraction of ops that are conditional branches.
    pub f_branch: f64,
    /// Fraction of ops that are FP adds.
    pub f_fp_add: f64,
    /// Fraction of ops that are FP multiplies.
    pub f_fp_mul: f64,
    /// Fraction of ops that are FP divides.
    pub f_fp_div: f64,
    /// Fraction of ops that are integer multiplies.
    pub f_int_mul: f64,
    /// Fraction of ops that are integer divides.
    pub f_int_div: f64,
    /// Probability an op depends on an earlier op (first source).
    pub p_dep: f64,
    /// Mean dependence distance (geometric), in micro-ops.
    pub dep_mean: f64,
    /// Probability an op has a second dependence.
    pub p_dep2: f64,
    /// Probability a load depends on the most recent previous load
    /// (pointer chasing; serializes the memory stream).
    pub p_load_chain: f64,
    /// Weighted data-address patterns (loads and stores draw from these).
    pub addr: Vec<(AddressPattern, f64)>,
    /// Address patterns used by stores *only* (if empty, stores use `addr`).
    /// Lets a block read shared data but write private data, or vice versa.
    pub store_addr: Vec<(AddressPattern, f64)>,
    /// Branch pattern applied to each branch site.
    pub branch: BranchPattern,
    /// Number of static branch sites in the block (round-robin).
    pub n_sites: u32,
    /// Base identifier for branch sites (set by the builder; globally
    /// unique per block).
    pub site_base: u32,
    /// Instruction footprint in cache lines (the block's code loops over
    /// this many I-cache lines).
    pub code_lines: u64,
    /// First instruction line (set by the builder; globally unique).
    pub code_base: u64,
}

impl BlockSpec {
    /// Creates a block of `ops` micro-ops with the given expansion seed.
    ///
    /// Defaults: pure integer ALU code, 40% single-dependence ops at mean
    /// distance 3, one perfectly-biased branch site, 8 code lines, no memory
    /// accesses.
    pub fn new(ops: u32, seed: u64) -> Self {
        BlockSpec {
            ops,
            seed,
            f_load: 0.0,
            f_store: 0.0,
            f_branch: 0.0,
            f_fp_add: 0.0,
            f_fp_mul: 0.0,
            f_fp_div: 0.0,
            f_int_mul: 0.0,
            f_int_div: 0.0,
            p_dep: 0.4,
            dep_mean: 3.0,
            p_dep2: 0.15,
            p_load_chain: 0.0,
            addr: Vec::new(),
            store_addr: Vec::new(),
            branch: BranchPattern::loop_every(64),
            n_sites: 1,
            site_base: 0,
            code_lines: 8,
            code_base: 0,
        }
    }

    /// Why expansion cannot use this block's parameters, if it cannot: it
    /// takes branch sites round-robin, reduces pattern positions modulo the
    /// loop period or periodic length, and addresses modulo each region's
    /// extent.
    pub(crate) fn defect(&self) -> Option<String> {
        if self.n_sites == 0 {
            return Some("a block needs at least one branch site, not n_sites 0".to_string());
        }
        match self.branch {
            BranchPattern::Loop { period: 0 } => {
                return Some("loop branch pattern with period 0".to_string());
            }
            BranchPattern::Periodic { len, .. } if !(1..=64).contains(&len) => {
                return Some(format!(
                    "periodic branch pattern length {len} not in 1..=64"
                ));
            }
            _ => {}
        }
        self.addr
            .iter()
            .chain(&self.store_addr)
            .any(|(pattern, _)| pattern.region().lines == 0)
            .then(|| "address-pattern region with zero lines".to_string())
    }

    /// Sets the load fraction.
    pub fn loads(mut self, f: f64) -> Self {
        self.f_load = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the store fraction.
    pub fn stores(mut self, f: f64) -> Self {
        self.f_store = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the branch fraction.
    pub fn branches(mut self, f: f64) -> Self {
        self.f_branch = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the FP add / FP multiply fractions.
    pub fn fp(mut self, add: f64, mul: f64) -> Self {
        self.f_fp_add = add.clamp(0.0, 1.0);
        self.f_fp_mul = mul.clamp(0.0, 1.0);
        self
    }

    /// Sets the FP divide fraction.
    pub fn fp_div(mut self, f: f64) -> Self {
        self.f_fp_div = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the integer multiply / divide fractions.
    pub fn int_muldiv(mut self, mul: f64, div: f64) -> Self {
        self.f_int_mul = mul.clamp(0.0, 1.0);
        self.f_int_div = div.clamp(0.0, 1.0);
        self
    }

    /// Sets the dependence profile: probability `p` of a first dependence at
    /// geometric mean distance `mean`.
    ///
    /// Small `mean` and large `p` produce long serial chains (low ILP);
    /// the opposite produces highly parallel code.
    pub fn deps(mut self, p: f64, mean: f64) -> Self {
        self.p_dep = p.clamp(0.0, 1.0);
        self.dep_mean = mean.max(1.0);
        self
    }

    /// Sets the probability of a second dependence.
    pub fn deps2(mut self, p: f64) -> Self {
        self.p_dep2 = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the pointer-chasing probability (loads depending on loads).
    pub fn load_chain(mut self, p: f64) -> Self {
        self.p_load_chain = p.clamp(0.0, 1.0);
        self
    }

    /// Adds a weighted data-address pattern.
    pub fn addr(mut self, pattern: AddressPattern, weight: f64) -> Self {
        self.addr.push((pattern, weight.max(0.0)));
        self
    }

    /// Adds a weighted store-only address pattern.
    pub fn store_addr(mut self, pattern: AddressPattern, weight: f64) -> Self {
        self.store_addr.push((pattern, weight.max(0.0)));
        self
    }

    /// Sets the branch-outcome pattern.
    pub fn branch_pattern(mut self, p: BranchPattern) -> Self {
        self.branch = p;
        self
    }

    /// Sets the number of static branch sites.
    pub fn sites(mut self, n: u32) -> Self {
        self.n_sites = n.max(1);
        self
    }

    /// Sets the instruction footprint in cache lines.
    pub fn code_footprint(mut self, lines: u64) -> Self {
        self.code_lines = lines.max(1);
        self
    }

    /// Expands the block into its dynamic micro-op stream.
    ///
    /// Expansion is pure: calling it any number of times yields the same
    /// stream.
    pub fn expand(&self) -> Vec<MicroOp> {
        let mut out = Vec::with_capacity(self.ops as usize);
        self.expand_into(&mut out);
        out
    }

    /// Expands the block, appending to `out` (reuses its capacity).
    pub fn expand_into(&self, out: &mut Vec<MicroOp>) {
        self.expander().expand_chunk(out, usize::MAX);
    }

    /// Creates a streaming expander positioned at the start of the block.
    ///
    /// Chunked expansion yields exactly the stream [`BlockSpec::expand`]
    /// produces, regardless of chunk boundaries — all generator state lives
    /// in the expander. The trace cursor uses this to hand the simulator
    /// cache-sized slices instead of materializing multi-hundred-KB blocks.
    pub fn expander(&self) -> BlockExpander<'_> {
        let mut rng = Rng::new(self.seed);
        let addr_rng = rng.fork(1);
        let branch_rng = rng.fork(2);

        let mut load_samplers: Vec<(AddrSampler, f64)> = Vec::new();
        let mut total_w = 0.0;
        for (p, w) in &self.addr {
            total_w += *w;
            load_samplers.push((p.sampler(), total_w));
        }
        let mut store_samplers: Vec<(AddrSampler, f64)> = Vec::new();
        let mut store_w = 0.0;
        for (p, w) in &self.store_addr {
            store_w += *w;
            store_samplers.push((p.sampler(), store_w));
        }

        let sites: Vec<BranchSampler> = (0..self.n_sites)
            .map(|k| self.branch.sampler(k.wrapping_mul(7)))
            .collect();

        // Cumulative class thresholds.
        let t_load = self.f_load;
        let t_store = t_load + self.f_store;
        let t_branch = t_store + self.f_branch;
        let t_fpa = t_branch + self.f_fp_add;
        let t_fpm = t_fpa + self.f_fp_mul;
        let t_fpd = t_fpm + self.f_fp_div;
        let t_imul = t_fpd + self.f_int_mul;
        let t_idiv = t_imul + self.f_int_div;

        BlockExpander {
            spec: self,
            rng,
            addr_rng,
            branch_rng,
            load_samplers,
            store_samplers,
            sites,
            next_site: 0,
            thresholds: [
                t_load, t_store, t_branch, t_fpa, t_fpm, t_fpd, t_imul, t_idiv,
            ],
            last_load_at: None,
            ln_q: Rng::geometric_ln(1.0 / self.dep_mean),
            code_lines: self.code_lines.max(1),
            line_rel: 0,
            line_rep: 0,
            i: 0,
        }
    }

    fn pick_addr(samplers: &mut [(AddrSampler, f64)], rng: &mut Rng) -> u64 {
        if samplers.is_empty() {
            return 0;
        }
        let total = samplers.last().map(|(_, w)| *w).unwrap_or(0.0);
        if samplers.len() == 1 || total <= 0.0 {
            return samplers[0].0.next(rng);
        }
        let u = rng.next_f64() * total;
        for (s, cum) in samplers.iter_mut() {
            if u < *cum {
                return s.next(rng);
            }
        }
        let last = samplers.len() - 1;
        samplers[last].0.next(rng)
    }
}

/// Streaming expansion state for one block (see [`BlockSpec::expander`]).
#[derive(Debug, Clone)]
pub struct BlockExpander<'s> {
    spec: &'s BlockSpec,
    rng: Rng,
    addr_rng: Rng,
    branch_rng: Rng,
    load_samplers: Vec<(AddrSampler, f64)>,
    store_samplers: Vec<(AddrSampler, f64)>,
    sites: Vec<BranchSampler>,
    next_site: usize,
    /// Cumulative class thresholds: load, store, branch, fpa, fpm, fpd,
    /// imul, idiv.
    thresholds: [f64; 8],
    last_load_at: Option<u32>,
    /// Precomputed `ln(1 - 1/dep_mean)` for geometric dependence draws.
    ln_q: f64,
    /// `(i / OPS_PER_CODE_LINE) % code_lines` strength-reduced to a pair of
    /// wrapping counters: a u64 div+mod per op is measurable in the
    /// expansion-bound simulator pipeline.
    code_lines: u64,
    line_rel: u64,
    line_rep: u64,
    /// Next op index.
    i: u32,
}

impl BlockExpander<'_> {
    /// Micro-ops not yet expanded.
    pub fn remaining(&self) -> u32 {
        self.spec.ops - self.i
    }

    /// Expands up to `max` further micro-ops, appending to `out`.
    /// Returns the number appended (0 when the block is exhausted).
    pub fn expand_chunk(&mut self, out: &mut Vec<MicroOp>, max: usize) -> usize {
        let end = self.i + (self.remaining() as usize).min(max) as u32;
        let produced = (end - self.i) as usize;
        // `Range` is `TrustedLen`, so this extend reserves once and skips
        // the per-push capacity check.
        let start = self.i;
        out.extend((start..end).map(|i| self.gen_op(i)));
        self.i = end;
        produced
    }

    /// Generates the micro-op at index `i`, advancing all generator state.
    #[inline(always)]
    fn gen_op(&mut self, i: u32) -> MicroOp {
        let spec = self.spec;
        let rng = &mut self.rng;
        let [t_load, t_store, t_branch, t_fpa, t_fpm, t_fpd, t_imul, t_idiv] = self.thresholds;

        {
            let u = rng.next_f64();
            let class = if u < t_load {
                OpClass::Load
            } else if u < t_store {
                OpClass::Store
            } else if u < t_branch {
                OpClass::Branch
            } else if u < t_fpa {
                OpClass::FpAdd
            } else if u < t_fpm {
                OpClass::FpMul
            } else if u < t_fpd {
                OpClass::FpDiv
            } else if u < t_imul {
                OpClass::IntMul
            } else if u < t_idiv {
                OpClass::IntDiv
            } else {
                OpClass::IntAlu
            };

            let mut src1: u16 = 0;
            let mut src2: u16 = 0;
            if rng.chance(spec.p_dep) {
                src1 = rng.geometric_with(self.ln_q).min(u16::MAX as u64) as u16;
            }
            if rng.chance(spec.p_dep2) {
                src2 = rng.geometric_with(self.ln_q).min(u16::MAX as u64) as u16;
            }

            let code_line = spec.code_base + self.line_rel;
            self.line_rep += 1;
            if self.line_rep == OPS_PER_CODE_LINE {
                self.line_rep = 0;
                self.line_rel += 1;
                if self.line_rel == self.code_lines {
                    self.line_rel = 0;
                }
            }

            match class {
                OpClass::Load => {
                    if let Some(prev) = self.last_load_at {
                        if rng.chance(spec.p_load_chain) {
                            src1 = (i - prev).min(u16::MAX as u32) as u16;
                        }
                    }
                    self.last_load_at = Some(i);
                    let line = BlockSpec::pick_addr(&mut self.load_samplers, &mut self.addr_rng);
                    MicroOp {
                        class,
                        src1,
                        src2,
                        line,
                        code_line,
                        site: 0,
                        taken: false,
                    }
                }
                OpClass::Store => {
                    let line = if self.store_samplers.is_empty() {
                        BlockSpec::pick_addr(&mut self.load_samplers, &mut self.addr_rng)
                    } else {
                        BlockSpec::pick_addr(&mut self.store_samplers, &mut self.addr_rng)
                    };
                    MicroOp {
                        class,
                        src1,
                        src2,
                        line,
                        code_line,
                        site: 0,
                        taken: false,
                    }
                }
                OpClass::Branch => {
                    let k = self.next_site;
                    self.next_site = (self.next_site + 1) % self.sites.len();
                    let taken = self.sites[k].next(&mut self.branch_rng);
                    MicroOp {
                        class,
                        src1,
                        src2,
                        line: 0,
                        code_line,
                        site: spec.site_base + k as u32,
                        taken,
                    }
                }
                _ => MicroOp {
                    class,
                    src1,
                    src2,
                    line: 0,
                    code_line,
                    site: 0,
                    taken: false,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Region;

    fn mem_block() -> BlockSpec {
        BlockSpec::new(10_000, 42)
            .loads(0.3)
            .stores(0.1)
            .branches(0.1)
            .addr(AddressPattern::stream(Region::new(0, 512)), 1.0)
    }

    #[test]
    fn expansion_is_deterministic() {
        let b = mem_block();
        assert_eq!(b.expand(), b.expand());
    }

    #[test]
    fn expansion_has_exact_count() {
        let b = mem_block();
        assert_eq!(b.expand().len(), 10_000);
    }

    #[test]
    fn chunked_expansion_is_boundary_invariant() {
        // A realistic mix (deps, branches, stores, load chain) so every
        // piece of expander state crosses chunk boundaries.
        let b = BlockSpec::new(10_000, 42)
            .loads(0.3)
            .stores(0.1)
            .branches(0.1)
            .deps(0.4, 6.0)
            .deps2(0.2)
            .load_chain(0.3)
            .code_footprint(7)
            .addr(AddressPattern::stream(Region::new(0, 512)), 0.7)
            .addr(AddressPattern::random(Region::new(512, 512)), 0.3);
        let whole = b.expand();
        for chunk in [1usize, 3, 64, 377, 1024, 9_999, 20_000] {
            let mut e = b.expander();
            let mut out = Vec::new();
            loop {
                let got = e.expand_chunk(&mut out, chunk);
                assert!(got <= chunk);
                if got == 0 {
                    break;
                }
            }
            assert_eq!(e.remaining(), 0);
            assert_eq!(out, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn mix_fractions_are_respected() {
        let ops = mem_block().expand();
        let loads = ops.iter().filter(|o| o.class == OpClass::Load).count() as f64;
        let stores = ops.iter().filter(|o| o.class == OpClass::Store).count() as f64;
        let branches = ops.iter().filter(|o| o.class == OpClass::Branch).count() as f64;
        let n = ops.len() as f64;
        assert!((loads / n - 0.3).abs() < 0.02, "load frac {}", loads / n);
        assert!((stores / n - 0.1).abs() < 0.02);
        assert!((branches / n - 0.1).abs() < 0.02);
    }

    #[test]
    fn memory_ops_have_addresses_in_region() {
        let ops = mem_block().expand();
        for o in ops.iter().filter(|o| o.is_mem()) {
            assert!(o.line < 512, "address {} outside region", o.line);
        }
    }

    #[test]
    fn dependence_distances_present() {
        let ops = mem_block().expand();
        let with_dep = ops.iter().filter(|o| o.src1 > 0).count() as f64;
        let frac = with_dep / ops.len() as f64;
        // p_dep default 0.4, plus load-chain none.
        assert!((frac - 0.4).abs() < 0.03, "dep frac {frac}");
    }

    #[test]
    fn load_chain_serializes_loads() {
        let b = BlockSpec::new(20_000, 7)
            .loads(0.5)
            .load_chain(1.0)
            .deps(0.0, 3.0)
            .addr(AddressPattern::random(Region::new(0, 4096)), 1.0);
        let ops = b.expand();
        let mut prev_load: Option<usize> = None;
        let mut chained = 0;
        let mut loads = 0;
        for (i, o) in ops.iter().enumerate() {
            if o.class == OpClass::Load {
                loads += 1;
                if let Some(p) = prev_load {
                    if o.src1 as usize == i - p {
                        chained += 1;
                    }
                }
                prev_load = Some(i);
            }
        }
        // Every load after the first chains to its predecessor.
        assert!(chained >= loads - 1 - 1, "chained {chained} of {loads}");
    }

    #[test]
    fn code_lines_wrap_footprint() {
        let b = BlockSpec::new(1000, 3).code_footprint(4);
        for o in b.expand() {
            assert!(o.code_line < 4);
        }
    }

    #[test]
    fn site_base_offsets_sites() {
        let mut b = mem_block().sites(3);
        b.site_base = 100;
        let ops = b.expand();
        let sites: std::collections::BTreeSet<u32> = ops
            .iter()
            .filter(|o| o.class == OpClass::Branch)
            .map(|o| o.site)
            .collect();
        assert_eq!(sites, [100u32, 101, 102].into_iter().collect());
    }

    #[test]
    fn store_addr_separates_write_region() {
        let read = Region::new(0, 100);
        let write = Region::new(1000, 100);
        let b = BlockSpec::new(5000, 9)
            .loads(0.3)
            .stores(0.2)
            .addr(AddressPattern::stream(read), 1.0)
            .store_addr(AddressPattern::stream(write), 1.0);
        for o in b.expand() {
            match o.class {
                OpClass::Load => assert!(o.line < 100),
                OpClass::Store => assert!(o.line >= 1000 && o.line < 1100),
                _ => {}
            }
        }
    }

    #[test]
    fn expand_into_appends() {
        let b = BlockSpec::new(10, 1);
        let mut v = b.expand();
        b.expand_into(&mut v);
        assert_eq!(v.len(), 20);
        assert_eq!(&v[..10], &v[10..]);
    }

    #[test]
    fn weighted_patterns_split_accesses() {
        let a = Region::new(0, 100);
        let c = Region::new(10_000, 100);
        let b = BlockSpec::new(40_000, 5)
            .loads(0.5)
            .addr(AddressPattern::random(a), 3.0)
            .addr(AddressPattern::random(c), 1.0);
        let ops = b.expand();
        let in_a = ops.iter().filter(|o| o.is_mem() && o.line < 100).count() as f64;
        let in_c = ops
            .iter()
            .filter(|o| o.is_mem() && o.line >= 10_000)
            .count() as f64;
        let frac = in_a / (in_a + in_c);
        assert!((frac - 0.75).abs() < 0.03, "region split {frac}");
    }
}
