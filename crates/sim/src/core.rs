//! Instruction-grain out-of-order core timing model.
//!
//! The model tracks, per dynamic micro-op: its dispatch cycle (bounded by
//! front-end width, front-end stalls after mispredictions and I-cache
//! misses, and ROB availability), its ready time (register dependences via a
//! completion ring buffer), its execution start (functional-unit port
//! contention, MSHR availability for loads) and its completion. Retirement
//! is in order; dispatch stalls when the ROB is full, so a long-latency load
//! at the ROB head naturally blocks the window while independent misses
//! underneath it overlap — the mechanism behind memory-level parallelism.
//!
//! This is the same modeling altitude as the "instruction-window centric"
//! core models validated in Carlson et al. (TACO 2014), which the paper uses
//! as its golden reference.
//!
//! # Profile-driven dispatch
//!
//! The catalog-wide self-profile (`rppm sim-profile`, committed under
//! `results/`) shows ~55% of dynamic ops are compute (IntAlu/Mul/Div,
//! FpAdd/Mul/Div) and the dominant dynamic op pairs are compute→compute.
//! [`CoreModel::run_ops`] exploits both: compute ops take a table-driven
//! fast path ahead of the memory/branch match, and a compute op followed by
//! a same-code-line compute op is *fused* into one dispatch action that
//! skips the front-end re-check (provably a no-op for the second member —
//! see the inline proof). The retirement bookkeeping (ROB) runs on a flat
//! ring buffer instead of a `VecDeque`. None of this changes any arithmetic:
//! every micro-op sees the exact f64 operation sequence of the naive
//! dispatch in [`crate::reference`], which differential tests pin
//! bit-identical.

use crate::bpred::TournamentPredictor;
use crate::mem::{MemorySystem, ServiceLevel};
use rppm_trace::{CpiStack, MachineConfig, MicroOp, OpClass};

/// Completion-ring size of the naive reference core: large enough for the
/// maximum register dependence distance, which is bounded by `u16::MAX`.
///
/// The optimized [`CoreModel`] sizes its ring at `rob_size + 1` rounded up
/// to a power of two instead (a few KB that stay L1-resident, against 512 KB
/// per thread here). That is bit-identical because a dependence on an op
/// more than `rob_size` back can never raise the ready time: by then the
/// producer has been popped from the ROB (S3 pops exactly when the window is
/// full, i.e. on every dispatch once `op_index >= rob_size`), and the pop
/// already advanced `cycle` to at least its retire time — which is `>=` its
/// completion time — so `ready.max(completion)` is a no-op. Distances that
/// the small ring cannot index are therefore skipped outright; the
/// differential suite pins the equivalence against this reference.
pub(crate) const RING: usize = 1 << 16;

/// Number of compute (non-memory, non-branch) op classes; their dense
/// [`OpClass::index`] values are `0..NUM_COMPUTE_CLASSES`.
pub(crate) const NUM_COMPUTE_CLASSES: usize = 6;

/// Per-class execution latency for the compute fast path, as f64 (must
/// equal `OpClass::latency() as f64`; checked by a unit test).
const COMPUTE_LAT: [f64; NUM_COMPUTE_CLASSES] = [1.0, 3.0, 18.0, 3.0, 4.0, 15.0];
/// Per-class issue-port pool for the compute fast path (mirrors
/// [`OpClass::port_pool`]).
const COMPUTE_POOL: [usize; NUM_COMPUTE_CLASSES] = [0, 1, 1, 2, 2, 2];
/// Per-class pipelining for the compute fast path (mirrors
/// [`OpClass::pipelined`]; divides are unpipelined).
const COMPUTE_PIPELINED: [bool; NUM_COMPUTE_CLASSES] = [true, true, false, true, true, false];

/// Stall-attribution component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    Base,
    Branch,
    ICache,
    MemL2,
    MemL3,
    MemDram,
}

pub(crate) fn attribute(stalls: &mut CpiStack, cause: Cause, delta: f64) {
    match cause {
        Cause::Base => stalls.base += delta,
        Cause::Branch => stalls.branch += delta,
        Cause::ICache => stalls.icache += delta,
        Cause::MemL2 => stalls.mem_l2 += delta,
        Cause::MemL3 => stalls.mem_l3 += delta,
        Cause::MemDram => stalls.mem_dram += delta,
    }
}

/// Per-thread execution counters reported by the core model.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounters {
    /// Micro-ops executed.
    pub ops: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Loads serviced by DRAM.
    pub dram_loads: u64,
}

/// Out-of-order core timing state for one thread.
#[derive(Debug)]
pub struct CoreModel {
    // Configuration scalars.
    width: u32,
    rob_size: usize,
    frontend_depth: f64,
    mshrs: usize,
    ports: [u8; rppm_trace::op::NUM_PORT_POOLS],

    // Timing state.
    cycle: f64,
    dispatched: u32,
    fe_stall_until: f64,
    fe_cause: Cause,
    /// Completion-time ring of the last `ring_mask + 1` ops (see the note on
    /// [`RING`] for why `rob_size + 1` entries suffice bit-identically).
    completions: Vec<f64>,
    ring_mask: usize,
    op_index: u64,
    /// Retirement window as a flat ring: `rob[rob_head..rob_head+rob_len]`
    /// (mod `rob_size`) are the in-flight `(retire_time, cause)` entries in
    /// dispatch order. Capacity is exactly `rob_size`, so "full" is
    /// `rob_len == rob_size`.
    rob: Vec<(f64, Cause)>,
    rob_head: usize,
    rob_len: usize,
    last_retire: f64,
    fu_free: [[f64; 8]; rppm_trace::op::NUM_PORT_POOLS],
    /// Ring of the last `mshrs` miss completion times (program order).
    mshr: Vec<f64>,
    miss_index: u64,
    last_code_line: u64,

    predictor: TournamentPredictor,

    // Accounting.
    stalls: CpiStack,
    overhead: f64,
    counters: CoreCounters,
    /// Superinstruction pairs retired in a single dispatch action.
    fused: u64,
}

impl CoreModel {
    /// Creates a core in its reset state, with the thread's clock at
    /// `start_time`.
    pub fn new(config: &MachineConfig, start_time: f64) -> Self {
        let mut ports = [1u8; rppm_trace::op::NUM_PORT_POOLS];
        for class in OpClass::ALL {
            ports[class.port_pool()] = config.ports_for(class).clamp(1, 8) as u8;
        }
        let ring = (config.rob_size as usize + 1).next_power_of_two().min(RING);
        CoreModel {
            width: config.dispatch_width,
            rob_size: config.rob_size as usize,
            frontend_depth: config.frontend_depth as f64,
            mshrs: config.mshrs as usize,
            ports,
            cycle: start_time,
            dispatched: 0,
            fe_stall_until: 0.0,
            fe_cause: Cause::Branch,
            completions: vec![0.0; ring],
            ring_mask: ring - 1,
            op_index: 0,
            rob: vec![(0.0, Cause::Base); config.rob_size as usize],
            rob_head: 0,
            rob_len: 0,
            last_retire: start_time,
            fu_free: [[0.0; 8]; rppm_trace::op::NUM_PORT_POOLS],
            mshr: vec![0.0; config.mshrs as usize],
            miss_index: 0,
            last_code_line: u64::MAX,
            predictor: TournamentPredictor::new(&config.bpred),
            stalls: CpiStack::default(),
            overhead: 0.0,
            counters: CoreCounters::default(),
            fused: 0,
        }
    }

    /// Current thread-local time (dispatch clock) in cycles.
    pub fn time(&self) -> f64 {
        self.cycle
    }

    /// Time at which every in-flight op will have retired.
    pub fn drain_time(&self) -> f64 {
        self.cycle.max(self.last_retire)
    }

    /// Sets the thread's initial clock (thread creation), without charging
    /// any component.
    pub fn set_start_time(&mut self, t: f64) {
        self.cycle = t;
        self.last_retire = t;
    }

    /// Moves the clock forward to `t` (synchronization resume), charging the
    /// jump to the sync component.
    pub fn resume_at(&mut self, t: f64) {
        if t > self.cycle {
            self.stalls.sync += t - self.cycle;
            self.cycle = t;
            self.dispatched = 0;
        }
    }

    /// Charges `cycles` of synchronization-library overhead and advances the
    /// clock past them. Overhead is *executed* time (the thread is active),
    /// but the paper accounts it to the sync component.
    pub fn charge_sync_overhead(&mut self, cycles: f64) {
        self.stalls.sync += cycles;
        self.overhead += cycles;
        self.cycle += cycles;
        self.dispatched = 0;
    }

    /// Total synchronization-library overhead charged (a subset of the sync
    /// component during which the thread was active, not blocked).
    pub fn sync_overhead_charged(&self) -> f64 {
        self.overhead
    }

    /// Instruction fetch and front-end stalls: charge an I-cache refill when
    /// execution enters a new code line (S1), then apply any pending
    /// front-end stall — misprediction redirect or I-cache refill (S2).
    #[inline(always)]
    fn fetch(&mut self, op: &MicroOp, mem: &mut MemorySystem, core_id: usize) {
        if op.code_line != self.last_code_line {
            self.last_code_line = op.code_line;
            let stall = mem.icache_access(core_id, op.code_line);
            if stall > 0.0 {
                let until = self.cycle + stall;
                if until > self.fe_stall_until {
                    self.fe_stall_until = until;
                    self.fe_cause = Cause::ICache;
                }
            }
        }
        if self.fe_stall_until > self.cycle {
            attribute(
                &mut self.stalls,
                self.fe_cause,
                self.fe_stall_until - self.cycle,
            );
            self.cycle = self.fe_stall_until;
            self.dispatched = 0;
        }
    }

    /// Window entry: ROB availability (S3), dispatch-width throttle (S4) and
    /// register readiness (S5). Returns the op's ready time.
    #[inline(always)]
    fn dispatch_ready(&mut self, op: &MicroOp) -> f64 {
        if self.rob_len == self.rob_size {
            let (retire, cause) = self.rob[self.rob_head];
            self.rob_head += 1;
            if self.rob_head == self.rob_size {
                self.rob_head = 0;
            }
            self.rob_len -= 1;
            if retire > self.cycle {
                attribute(&mut self.stalls, cause, retire - self.cycle);
                self.cycle = retire;
                self.dispatched = 0;
            }
        }

        if self.dispatched >= self.width {
            self.cycle += 1.0;
            self.dispatched = 0;
        }
        let dispatch_time = self.cycle;
        self.dispatched += 1;

        // Distances beyond `ring_mask` (>= rob_size + 1) are provably
        // no-ops — the producer retired before the S3 pop above and `cycle`
        // already covers its completion (see the note on [`RING`]).
        let mut ready = dispatch_time;
        let d1 = op.src1 as usize;
        if d1 != 0 && d1 <= self.ring_mask && (d1 as u64) <= self.op_index {
            let idx = ((self.op_index as usize).wrapping_sub(d1)) & self.ring_mask;
            ready = ready.max(self.completions[idx]);
        }
        let d2 = op.src2 as usize;
        if d2 != 0 && d2 <= self.ring_mask && (d2 as u64) <= self.op_index {
            let idx = ((self.op_index as usize).wrapping_sub(d2)) & self.ring_mask;
            ready = ready.max(self.completions[idx]);
        }
        ready
    }

    /// Least-loaded issue port in `pool` (S6).
    #[inline(always)]
    fn pick_port(&self, pool: usize) -> usize {
        let nports = self.ports[pool] as usize;
        let fu = &self.fu_free[pool];
        let mut port = 0;
        for p in 1..nports {
            if fu[p] < fu[port] {
                port = p;
            }
        }
        port
    }

    /// Retirement bookkeeping shared by every class (S8–S9).
    #[inline(always)]
    fn retire(&mut self, complete: f64, cause: Cause) {
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        let mut tail = self.rob_head + self.rob_len;
        if tail >= self.rob_size {
            tail -= self.rob_size;
        }
        self.rob[tail] = (retire, cause);
        self.rob_len += 1;
        self.completions[(self.op_index as usize) & self.ring_mask] = complete;
        self.op_index += 1;
    }

    /// Hot path: a compute op (class index < [`NUM_COMPUTE_CLASSES`]) with
    /// its latency/pool/pipelining taken from the const tables. Touches
    /// neither the data memory system nor the predictor.
    #[inline(always)]
    fn exec_compute(&mut self, op: &MicroOp, c: usize) {
        self.counters.ops += 1;
        let ready = self.dispatch_ready(op);
        let pool = COMPUTE_POOL[c];
        let port = self.pick_port(pool);
        let fu = &mut self.fu_free[pool];
        let issue = ready.max(fu[port]);
        let complete = issue + COMPUTE_LAT[c];
        fu[port] = if COMPUTE_PIPELINED[c] {
            issue + 1.0
        } else {
            complete
        };
        self.retire(complete, Cause::Base);
    }

    /// Cold path: loads, stores and branches (plus a general fallback for
    /// compute classes so [`CoreModel::process`] stays total).
    fn exec_other(&mut self, op: &MicroOp, mem: &mut MemorySystem, core_id: usize) {
        self.counters.ops += 1;
        let ready = self.dispatch_ready(op);
        let class = op.class;
        let pool = class.port_pool();
        let port = self.pick_port(pool);
        let issue = ready.max(self.fu_free[pool][port]);
        let mut start = issue;

        let (complete, cause) = match class {
            OpClass::Load => {
                self.counters.loads += 1;
                // MSHR limit: with `mshrs` miss registers allocated in
                // program order, miss k cannot start before miss k−mshrs
                // completed (a k-server queue). The wait happens in the load
                // queue — it does NOT hold the issue port (real LSUs issue
                // around a full miss queue).
                if self.miss_index >= self.mshrs as u64 {
                    let gate = self.mshr[(self.miss_index as usize) % self.mshrs];
                    start = start.max(gate);
                }
                let (lat, level) = mem.access(core_id, op.line, false);
                let complete = start + lat;
                let cause = match level {
                    ServiceLevel::L1 => Cause::Base,
                    ServiceLevel::L2 => Cause::MemL2,
                    ServiceLevel::L3 | ServiceLevel::Remote => Cause::MemL3,
                    ServiceLevel::Dram => {
                        self.counters.dram_loads += 1;
                        self.mshr[(self.miss_index as usize) % self.mshrs] = complete;
                        self.miss_index += 1;
                        Cause::MemDram
                    }
                };
                (complete, cause)
            }
            OpClass::Store => {
                self.counters.stores += 1;
                // Stores retire through the store buffer; coherence state is
                // updated now, latency is hidden.
                let _ = mem.access(core_id, op.line, true);
                (start + 1.0, Cause::Base)
            }
            OpClass::Branch => {
                self.counters.branches += 1;
                let miss = self.predictor.predict_and_update(op.site, op.taken);
                let complete = start + class.latency() as f64;
                if miss {
                    self.counters.mispredicts += 1;
                    // Redirect: front-end refills after the branch resolves.
                    let until = complete + self.frontend_depth;
                    if until > self.fe_stall_until {
                        self.fe_stall_until = until;
                        self.fe_cause = Cause::Branch;
                    }
                }
                (complete, Cause::Base)
            }
            _ => (start + class.latency() as f64, Cause::Base),
        };

        self.fu_free[pool][port] = if class.pipelined() {
            issue + 1.0
        } else {
            complete
        };
        self.retire(complete, cause);
    }

    /// Processes one micro-op, advancing the thread's timing state.
    pub fn process(&mut self, op: &MicroOp, mem: &mut MemorySystem, core_id: usize) {
        self.fetch(op, mem, core_id);
        let c = op.class.index();
        if c < NUM_COMPUTE_CLASSES {
            self.exec_compute(op, c);
        } else {
            self.exec_other(op, mem, core_id);
        }
    }

    /// Processes a prefix of `ops`, stopping after the first op that pushes
    /// the clock past `limit`. Returns `(ops_used, over_limit)` — exactly
    /// the contract of a per-op [`CoreModel::process`] loop with a
    /// `time() > limit` check after each op, but dispatched hot-first and
    /// with superinstruction fusion of compute pairs.
    ///
    /// Fusion soundness: the second member of a fused pair skips
    /// `CoreModel::fetch`. That is a provable no-op there — (a) its
    /// code line equals the first member's (the fusion condition), which the
    /// first member just stored in `last_code_line`, so the I-cache check
    /// would not fire; and (b) `fe_stall_until <= cycle` holds after the
    /// first member's fetch (which jumped the clock past any pending stall)
    /// because a compute op never raises `fe_stall_until` and the clock only
    /// moves forward. Timing is therefore bit-identical to the naive loop.
    pub fn run_ops(
        &mut self,
        ops: &[MicroOp],
        mem: &mut MemorySystem,
        core_id: usize,
        limit: f64,
    ) -> (usize, bool) {
        let n = ops.len();
        let mut i = 0;
        while i < n {
            let op = &ops[i];
            let c = op.class.index();
            i += 1;
            if c < NUM_COMPUTE_CLASSES {
                self.fetch(op, mem, core_id);
                self.exec_compute(op, c);
                if self.cycle > limit {
                    return (i, true);
                }
                // Superinstruction: fuse a same-code-line compute successor
                // into this dispatch action, skipping its front-end re-check
                // (see the soundness note above). The quantum check between
                // the members already happened, so the fused pair never
                // overshoots the scheduling contract.
                if i < n {
                    let op2 = &ops[i];
                    let c2 = op2.class.index();
                    if c2 < NUM_COMPUTE_CLASSES && op2.code_line == op.code_line {
                        i += 1;
                        self.fused += 1;
                        self.exec_compute(op2, c2);
                        if self.cycle > limit {
                            return (i, true);
                        }
                    }
                }
            } else {
                self.fetch(op, mem, core_id);
                self.exec_other(op, mem, core_id);
                if self.cycle > limit {
                    return (i, true);
                }
            }
        }
        (n, false)
    }

    /// Finishes the thread: drains the ROB and returns the final time.
    pub fn finish(&mut self) -> f64 {
        let t = self.drain_time();
        self.cycle = t;
        t
    }

    /// Stall attribution accumulated so far. The `base` field is *not* yet
    /// populated (it is the residual, computed by the engine as active time
    /// minus attributed stalls).
    pub fn stalls(&self) -> &CpiStack {
        &self.stalls
    }

    /// Execution counters.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Dispatch statistics: `(dispatch_actions, fused_pairs)`. A fused
    /// superinstruction pair retires two ops in one dispatch action, so
    /// `dispatch_actions = ops - fused_pairs`.
    pub fn dispatch_stats(&self) -> (u64, u64) {
        (self.counters.ops - self.fused, self.fused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::{BlockSpec, DesignPoint};

    fn run_block(spec: BlockSpec, config: &rppm_trace::MachineConfig) -> (CoreModel, MemorySystem) {
        let mut mem = MemorySystem::new(config);
        let mut core = CoreModel::new(config, 0.0);
        for op in spec.expand() {
            core.process(&op, &mut mem, 0);
        }
        core.finish();
        (core, mem)
    }

    #[test]
    fn fast_path_tables_match_opclass() {
        for c in 0..NUM_COMPUTE_CLASSES {
            let class = OpClass::ALL[c];
            assert!(!class.is_mem() && class != OpClass::Branch);
            assert_eq!(COMPUTE_LAT[c], class.latency() as f64, "{class}");
            assert_eq!(COMPUTE_POOL[c], class.port_pool(), "{class}");
            assert_eq!(COMPUTE_PIPELINED[c], class.pipelined(), "{class}");
        }
        // Everything past the compute prefix is memory or branch.
        for class in &OpClass::ALL[NUM_COMPUTE_CLASSES..] {
            assert!(class.is_mem() || *class == OpClass::Branch);
        }
    }

    #[test]
    fn run_ops_matches_per_op_process() {
        let cfg = DesignPoint::Base.config();
        let spec = BlockSpec::new(20_000, 11)
            .loads(0.25)
            .stores(0.1)
            .branches(0.1)
            .deps(0.3, 4.0);
        let ops: Vec<_> = spec.expand();

        let mut mem_a = MemorySystem::new(&cfg);
        let mut a = CoreModel::new(&cfg, 0.0);
        for op in &ops {
            a.process(op, &mut mem_a, 0);
        }

        let mut mem_b = MemorySystem::new(&cfg);
        let mut b = CoreModel::new(&cfg, 0.0);
        let (used, over) = b.run_ops(&ops, &mut mem_b, 0, f64::INFINITY);
        assert_eq!(used, ops.len());
        assert!(!over);

        assert_eq!(a.time().to_bits(), b.time().to_bits());
        assert_eq!(a.drain_time().to_bits(), b.drain_time().to_bits());
        assert_eq!(a.counters().mispredicts, b.counters().mispredicts);
        assert_eq!(a.stalls().mem_dram.to_bits(), b.stalls().mem_dram.to_bits());
        let (dispatches, fused) = b.dispatch_stats();
        assert!(fused > 0, "compute-heavy block must fuse pairs");
        assert_eq!(dispatches + fused, b.counters().ops);
    }

    #[test]
    fn run_ops_respects_limit_per_op() {
        let cfg = DesignPoint::Base.config();
        let ops: Vec<_> = BlockSpec::new(5_000, 3).deps(0.3, 4.0).expand();
        // Replay with a limit: the batched loop must stop exactly where the
        // naive per-op loop stops.
        let mut mem_a = MemorySystem::new(&cfg);
        let mut a = CoreModel::new(&cfg, 0.0);
        let limit = 200.0;
        let mut naive_used = 0;
        for op in &ops {
            a.process(op, &mut mem_a, 0);
            naive_used += 1;
            if a.time() > limit {
                break;
            }
        }
        let mut mem_b = MemorySystem::new(&cfg);
        let mut b = CoreModel::new(&cfg, 0.0);
        let (used, over) = b.run_ops(&ops, &mut mem_b, 0, limit);
        assert_eq!(used, naive_used);
        assert!(over);
        assert_eq!(a.time().to_bits(), b.time().to_bits());
    }

    #[test]
    fn ideal_ilp_reaches_dispatch_width() {
        let cfg = DesignPoint::Base.config();
        // Independent integer ops, no memory, no branches.
        let spec = BlockSpec::new(100_000, 1).deps(0.0, 1.0).deps2(0.0);
        let (core, _) = run_block(spec, &cfg);
        let ipc = core.counters().ops as f64 / core.drain_time();
        assert!(
            (ipc - cfg.dispatch_width as f64).abs() < 0.2,
            "ipc {ipc} vs width {}",
            cfg.dispatch_width
        );
    }

    #[test]
    fn serial_chain_runs_at_one_over_latency() {
        let cfg = DesignPoint::Base.config();
        // Every op depends on the previous one: IPC ~ 1 (IntAlu latency 1).
        let spec = BlockSpec::new(50_000, 2).deps(1.0, 1.0).deps2(0.0);
        let (core, _) = run_block(spec, &cfg);
        let ipc = core.counters().ops as f64 / core.drain_time();
        assert!(ipc < 1.25, "chain ipc {ipc}");
    }

    #[test]
    fn fu_contention_limits_throughput() {
        let cfg = DesignPoint::Base.config(); // 2 FP pipes at width 4
        let spec = BlockSpec::new(50_000, 3)
            .fp(1.0, 0.0)
            .deps(0.0, 1.0)
            .deps2(0.0);
        let (core, _) = run_block(spec, &cfg);
        let ipc = core.counters().ops as f64 / core.drain_time();
        assert!(ipc < 2.3, "fp-bound ipc {ipc} must respect 2 FP ports");
    }

    #[test]
    fn dram_misses_dominate_streaming() {
        let cfg = DesignPoint::Base.config();
        let region = rppm_trace::Region::new(0, 4 << 20); // far beyond LLC
        let spec = BlockSpec::new(100_000, 4)
            .loads(0.3)
            .addr(rppm_trace::AddressPattern::stream(region), 1.0);
        let (core, _) = run_block(spec, &cfg);
        assert!(core.counters().dram_loads > 1000);
        assert!(core.stalls().mem_dram > 0.0);
        let cpi = core.drain_time() / core.counters().ops as f64;
        assert!(cpi > 0.5, "memory-bound cpi {cpi}");
    }

    #[test]
    fn mlp_overlaps_independent_misses() {
        let cfg = DesignPoint::Base.config();
        let region = rppm_trace::Region::new(0, 4 << 20);
        // Independent streaming loads: misses overlap.
        let indep = BlockSpec::new(50_000, 5)
            .loads(0.3)
            .deps(0.0, 1.0)
            .addr(rppm_trace::AddressPattern::stream(region), 1.0);
        // Pointer-chasing loads: serialized misses.
        let chained = BlockSpec::new(50_000, 5)
            .loads(0.3)
            .deps(0.0, 1.0)
            .load_chain(1.0)
            .addr(rppm_trace::AddressPattern::stream(region), 1.0);
        let (c1, _) = run_block(indep, &cfg);
        let (c2, _) = run_block(chained, &cfg);
        let t1 = c1.drain_time();
        let t2 = c2.drain_time();
        assert!(
            t2 > t1 * 2.0,
            "chained ({t2}) should be much slower than independent ({t1})"
        );
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let cfg = DesignPoint::Base.config();
        let predictable = BlockSpec::new(50_000, 6)
            .branches(0.2)
            .branch_pattern(rppm_trace::BranchPattern::loop_every(64));
        let random = BlockSpec::new(50_000, 6)
            .branches(0.2)
            .branch_pattern(rppm_trace::BranchPattern::bernoulli(0.5));
        let (c1, _) = run_block(predictable, &cfg);
        let (c2, _) = run_block(random, &cfg);
        assert!(c2.counters().mispredicts > 10 * c1.counters().mispredicts.max(1));
        assert!(c2.drain_time() > c1.drain_time() * 1.3);
        assert!(c2.stalls().branch > c1.stalls().branch);
    }

    #[test]
    fn icache_misses_from_large_code_footprint() {
        let cfg = DesignPoint::Base.config();
        // 32 KB L1I = 512 lines; a 4096-line loop body thrashes it.
        let big_code = BlockSpec::new(200_000, 7).code_footprint(4096);
        let (core, mem) = run_block(big_code, &cfg);
        assert!(mem.stats(0).l1i_misses > 1000);
        assert!(core.stalls().icache > 0.0);
    }

    #[test]
    fn small_rob_hurts_mlp() {
        let small = DesignPoint::Smallest.config(); // ROB 32
        let big = DesignPoint::Biggest.config(); // ROB 288
        let region = rppm_trace::Region::new(0, 4 << 20);
        let mk = || {
            BlockSpec::new(50_000, 8)
                .loads(0.2)
                .deps(0.2, 8.0)
                .addr(rppm_trace::AddressPattern::stream(region), 1.0)
        };
        let (c_small, _) = run_block(mk(), &small);
        let (c_big, _) = run_block(mk(), &big);
        // Same DRAM miss count, but the small window overlaps fewer misses:
        // higher stall per miss.
        let per_miss_small = c_small.stalls().mem_dram / c_small.counters().dram_loads as f64;
        let per_miss_big = c_big.stalls().mem_dram / c_big.counters().dram_loads.max(1) as f64;
        assert!(
            per_miss_small > per_miss_big,
            "small {per_miss_small} vs big {per_miss_big}"
        );
    }

    #[test]
    fn resume_and_sync_accounting() {
        let cfg = DesignPoint::Base.config();
        let mut core = CoreModel::new(&cfg, 0.0);
        core.resume_at(1000.0);
        assert_eq!(core.time(), 1000.0);
        assert_eq!(core.stalls().sync, 1000.0);
        core.charge_sync_overhead(40.0);
        assert_eq!(core.time(), 1040.0);
        assert_eq!(core.stalls().sync, 1040.0);
        // Resuming to the past is a no-op.
        core.resume_at(10.0);
        assert_eq!(core.time(), 1040.0);
    }
}
