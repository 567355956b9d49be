//! Naive reference dispatch: the pre-PGO core model, kept verbatim.
//!
//! The optimized core model (`CoreModel`) reorders its dispatch
//! hot-first, fuses compute pairs into superinstructions and runs the ROB on
//! a ring buffer. None of that may change a single bit of timing — and the
//! way to *prove* that continuously is to keep the original, obviously
//! correct implementation alive: a `VecDeque` ROB and a straight nine-way
//! match dispatched one op at a time, exactly as the simulator shipped
//! before the self-profiling pass.
//!
//! [`SimEngine::Reference`](crate::SimEngine::Reference) selects this core
//! in [`simulate_with`](crate::simulate_with) and
//! [`simulate_profiled`](crate::simulate_profiled); everything else — the
//! engine loop, the expansion cursor feeding it, the shared
//! synchronization core, the memory system — is the one the optimized
//! core runs under. The differential proptest suite
//! (`tests/sim_equivalence.rs`) and a `bench_guard` ratio pin the optimized
//! path bit-identical and measurably faster. The committed "before" profile
//! artifact under `results/` is collected through this core (no fusion:
//! one dispatch per op).

use crate::core::{attribute, Cause, CoreCounters, RING};
use crate::engine::CoreTiming;
use crate::mem::{MemorySystem, ServiceLevel};
use rppm_trace::{CpiStack, MachineConfig, MicroOp, OpClass};
use std::collections::VecDeque;

/// The original out-of-order core timing model: per-op nine-way match
/// dispatch over a `VecDeque` ROB. Field-for-field the pre-optimization
/// `CoreModel`.
#[derive(Debug)]
pub(crate) struct ReferenceCore {
    width: u32,
    rob_size: usize,
    frontend_depth: f64,
    mshrs: usize,
    ports: [u8; rppm_trace::op::NUM_PORT_POOLS],

    cycle: f64,
    dispatched: u32,
    fe_stall_until: f64,
    fe_cause: Cause,
    completions: Vec<f64>,
    op_index: u64,
    rob: VecDeque<(f64, Cause)>,
    last_retire: f64,
    fu_free: [[f64; 8]; rppm_trace::op::NUM_PORT_POOLS],
    mshr: Vec<f64>,
    miss_index: u64,
    last_code_line: u64,

    predictor: crate::bpred::TournamentPredictor,

    stalls: CpiStack,
    overhead: f64,
    counters: CoreCounters,
}

impl ReferenceCore {
    fn drain_time(&self) -> f64 {
        self.cycle.max(self.last_retire)
    }

    /// Processes one micro-op — the original monolithic dispatch.
    fn process(&mut self, op: &MicroOp, mem: &mut MemorySystem, core_id: usize) {
        self.counters.ops += 1;

        // Instruction fetch: charge a front-end stall on an I-cache miss
        // whenever execution enters a new code line.
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

        // Front-end stall (misprediction redirect or I-cache refill).
        if self.fe_stall_until > self.cycle {
            attribute(
                &mut self.stalls,
                self.fe_cause,
                self.fe_stall_until - self.cycle,
            );
            self.cycle = self.fe_stall_until;
            self.dispatched = 0;
        }

        // ROB availability: dispatch stalls until the head retires.
        if self.rob.len() >= self.rob_size {
            let (retire, cause) = self.rob.pop_front().expect("rob nonempty");
            if retire > self.cycle {
                attribute(&mut self.stalls, cause, retire - self.cycle);
                self.cycle = retire;
                self.dispatched = 0;
            }
        }

        // Dispatch-width throttle.
        if self.dispatched >= self.width {
            self.cycle += 1.0;
            self.dispatched = 0;
        }
        let dispatch_time = self.cycle;
        self.dispatched += 1;

        // Register readiness.
        let mut ready = dispatch_time;
        if op.src1 != 0 && (op.src1 as u64) <= self.op_index {
            let idx = ((self.op_index - op.src1 as u64) as usize) & (RING - 1);
            ready = ready.max(self.completions[idx]);
        }
        if op.src2 != 0 && (op.src2 as u64) <= self.op_index {
            let idx = ((self.op_index - op.src2 as u64) as usize) & (RING - 1);
            ready = ready.max(self.completions[idx]);
        }

        // Functional-unit port.
        let class = op.class;
        let pool = class.port_pool();
        let nports = self.ports[pool] as usize;
        let fu = &mut self.fu_free[pool];
        let mut port = 0;
        for p in 1..nports {
            if fu[p] < fu[port] {
                port = p;
            }
        }
        let issue = ready.max(fu[port]);
        let mut start = issue;

        let (complete, cause) = match class {
            OpClass::Load => {
                self.counters.loads += 1;
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
                let _ = mem.access(core_id, op.line, true);
                (start + 1.0, Cause::Base)
            }
            OpClass::Branch => {
                self.counters.branches += 1;
                let miss = self.predictor.predict_and_update(op.site, op.taken);
                let complete = start + class.latency() as f64;
                if miss {
                    self.counters.mispredicts += 1;
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

        fu[port] = if class.pipelined() {
            issue + 1.0
        } else {
            complete
        };

        // In-order retirement.
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob.push_back((retire, cause));

        self.completions[(self.op_index as usize) & (RING - 1)] = complete;
        self.op_index += 1;
    }
}

impl CoreTiming for ReferenceCore {
    fn new(config: &MachineConfig, start_time: f64) -> Self {
        let mut ports = [1u8; rppm_trace::op::NUM_PORT_POOLS];
        for class in OpClass::ALL {
            ports[class.port_pool()] = config.ports_for(class).clamp(1, 8) as u8;
        }
        ReferenceCore {
            width: config.dispatch_width,
            rob_size: config.rob_size as usize,
            frontend_depth: config.frontend_depth as f64,
            mshrs: config.mshrs as usize,
            ports,
            cycle: start_time,
            dispatched: 0,
            fe_stall_until: 0.0,
            fe_cause: Cause::Branch,
            completions: vec![0.0; RING],
            op_index: 0,
            rob: VecDeque::with_capacity(config.rob_size as usize + 1),
            last_retire: start_time,
            fu_free: [[0.0; 8]; rppm_trace::op::NUM_PORT_POOLS],
            mshr: vec![0.0; config.mshrs as usize],
            miss_index: 0,
            last_code_line: u64::MAX,
            predictor: crate::bpred::TournamentPredictor::new(&config.bpred),
            stalls: CpiStack::default(),
            overhead: 0.0,
            counters: CoreCounters::default(),
        }
    }

    fn time(&self) -> f64 {
        self.cycle
    }

    fn set_start_time(&mut self, t: f64) {
        self.cycle = t;
        self.last_retire = t;
    }

    fn resume_at(&mut self, t: f64) {
        if t > self.cycle {
            self.stalls.sync += t - self.cycle;
            self.cycle = t;
            self.dispatched = 0;
        }
    }

    fn charge_sync_overhead(&mut self, cycles: f64) {
        self.stalls.sync += cycles;
        self.overhead += cycles;
        self.cycle += cycles;
        self.dispatched = 0;
    }

    fn sync_overhead_charged(&self) -> f64 {
        self.overhead
    }

    fn finish(&mut self) -> f64 {
        let t = self.drain_time();
        self.cycle = t;
        t
    }

    fn stalls(&self) -> &CpiStack {
        &self.stalls
    }

    fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    fn dispatch_stats(&self) -> (u64, u64) {
        // Naive dispatch: one action per op, nothing fused.
        (self.counters.ops, 0)
    }

    fn run_ops(
        &mut self,
        ops: &[MicroOp],
        mem: &mut MemorySystem,
        core_id: usize,
        limit: f64,
    ) -> (usize, bool) {
        // The original engine inner loop: one op at a time, quantum check
        // after each.
        let mut used = 0;
        for op in ops {
            self.process(op, mem, core_id);
            used += 1;
            if self.cycle > limit {
                return (used, true);
            }
        }
        (used, false)
    }
}

#[cfg(test)]
mod tests {
    use crate::{simulate, simulate_profiled, simulate_with, NoProbe, SimEngine, SimResult};
    use rppm_trace::{
        AddressPattern, BlockSpec, DesignPoint, MachineConfig, Program, ProgramBuilder,
    };

    fn simulate_reference(program: &Program, config: &MachineConfig) -> SimResult {
        simulate_with(program, config, SimEngine::Reference, &mut NoProbe)
    }

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new("refcheck", 2);
        let bar = b.alloc_barrier();
        let reg = b.alloc_region(1 << 16);
        b.spawn_workers();
        for t in 0..2u32 {
            b.thread(t)
                .block(
                    BlockSpec::new(30_000, t as u64 + 13)
                        .loads(0.3)
                        .stores(0.1)
                        .branches(0.08)
                        .deps(0.3, 4.0)
                        .addr(AddressPattern::stream(reg), 1.0),
                )
                .barrier(bar);
        }
        b.join_workers();
        b.build()
    }

    #[test]
    fn reference_matches_optimized_bit_for_bit() {
        let p = sample_program();
        let cfg = DesignPoint::Base.config();
        let (a, a_profile) = simulate_profiled(&p, &cfg, SimEngine::Fused);
        let (b, b_profile) = simulate_profiled(&p, &cfg, SimEngine::Reference);
        assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
        assert_eq!(a.threads.len(), b.threads.len());
        for (x, y) in a.threads.iter().zip(b.threads.iter()) {
            assert_eq!(x.start.to_bits(), y.start.to_bits());
            assert_eq!(x.finish.to_bits(), y.finish.to_bits());
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.mispredicts, y.mispredicts);
            assert_eq!(x.dram_loads, y.dram_loads);
            assert_eq!(x.cpi.total().to_bits(), y.cpi.total().to_bits());
        }
        assert_eq!(a_profile.sync, b_profile.sync);
        assert_eq!(a.intervals, b.intervals);
    }

    #[test]
    fn long_dependence_distances_match_reference() {
        // Dependence distances far beyond the ROB size: the optimized core's
        // small completion ring skips these reads outright (they are provable
        // no-ops — see core::RING), while the reference's 64K ring actually
        // performs them. The timing must still agree to the bit, across ROB
        // sizes.
        let mut b = ProgramBuilder::new("longdeps", 2);
        b.spawn_workers();
        b.thread(1u32).block(
            BlockSpec::new(40_000, 99)
                .deps(1.0, 700.0)
                .deps2(0.5)
                .fp(0.2, 0.2),
        );
        b.join_workers();
        let p = b.build();
        for dp in [
            DesignPoint::Smallest,
            DesignPoint::Base,
            DesignPoint::Biggest,
        ] {
            let cfg = dp.config();
            let a = simulate(&p, &cfg);
            let r = simulate_reference(&p, &cfg);
            assert_eq!(a.total_cycles.to_bits(), r.total_cycles.to_bits(), "{dp:?}");
        }
    }

    #[test]
    fn reference_profile_has_no_fusion() {
        let p = sample_program();
        let cfg = DesignPoint::Base.config();
        let (_, before) = simulate_profiled(&p, &cfg, SimEngine::Reference);
        let (_, after) = simulate_profiled(&p, &cfg, SimEngine::Fused);
        assert_eq!(before.fused_pairs, 0);
        assert_eq!(before.dispatches, before.total_ops());
        // Identical executed-op mix, fewer dispatch actions after fusion.
        assert_eq!(before.op_freq, after.op_freq);
        assert_eq!(before.pairs, after.pairs);
        assert!(after.dispatches < before.dispatches);
    }
}
