//! `validate-sim`: the paper's Figure 4 validation flow, which is also
//! what `rppm import` does after predicting.
//!
//! Each operation simulates one (program, design point) pair with
//! `sim::simulate` and compares it with the prediction made in set-up
//! from the profile collected there. The pairs are the catalog × the five
//! Table IV points, shuffled per pass, so working sets fall on both sides
//! of the modelled cache sizes. Modelled caches start empty in every
//! simulation.

use crate::inputs;
use crate::measure::{Finish, Run, Workload};
use crate::spans::{Spans, Summary};
use rppm::core::abs_pct_error;
use rppm::trace::{DesignPoint, MachineConfig, Program};
use rppm::Session;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed stream of this workload's operation order.
const STREAM: u64 = 3;

/// One operation: simulate program `program` at design point `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the program list.
    pub program: usize,
    /// Index into the Table IV points.
    pub point: usize,
}

struct Input {
    program: Arc<Program>,
    /// Predicted cycles per design point, from set-up.
    predicted: Vec<f64>,
    /// Set-up profile time, seconds.
    profile_secs: f64,
}

/// Workload state.
pub struct ValidateSim {
    seed: u64,
    inputs: Vec<Input>,
    configs: Vec<MachineConfig>,
    /// Simulated cycles (bits) of each pair's first simulation.
    first: BTreeMap<(usize, usize), u64>,
    /// `sim.cycles_digest` of each complete pass.
    digests: Vec<u64>,
    pass_digest: u64,
    pass_done: usize,
    /// Traced base-point simulation time and count, for
    /// `validate-sim.profile_over_simulate`.
    base_sim: (f64, usize),
}

/// The programs of a run: the whole catalog.
pub fn programs() -> Vec<&'static str> {
    rppm::workloads::all().iter().map(|b| b.name).collect()
}

/// `pred_err_pct` of a run, as validate-sim measures it in its first pass:
/// the mean absolute error, in percent, of RPPM against the simulator over
/// the run's catalog × the five Table IV points. The other workloads call
/// this after their measured phase, so a model change shows on each.
///
/// # Errors
///
/// A generated program fails validation.
pub fn catalog_error(seed: u64) -> Result<f64, String> {
    let session = Session::builder().jobs(1).build();
    let configs: Vec<MachineConfig> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
    let mut total = 0.0;
    let mut pairs = 0;
    for (i, name) in programs().into_iter().enumerate() {
        let program = inputs::build(name, &inputs::params(seed, i as u64));
        let profile = session
            .program(program)
            .map_err(|e| e.to_string())?
            .profile();
        for (prediction, config) in profile.predict_sweep(&configs).iter().zip(&configs) {
            total += abs_pct_error(
                prediction.total_cycles,
                profile.simulate(config).total_cycles,
            );
            pairs += 1;
        }
    }
    Ok(100.0 * total / pairs as f64)
}

fn base_index() -> usize {
    DesignPoint::ALL
        .iter()
        .position(|d| *d == DesignPoint::Base)
        .expect("Base is a Table IV point")
}

impl ValidateSim {
    /// `sim.cycles_digest` of every complete pass so far.
    pub fn digests(&self) -> &[u64] {
        &self.digests
    }

    /// Mean absolute prediction error over one complete pass, in percent.
    pub fn pred_err_pct(&self) -> Option<f64> {
        let pairs = self.inputs.len() * self.configs.len();
        if self.first.len() < pairs {
            return None;
        }
        let total: f64 = self
            .first
            .iter()
            .map(|(&(p, d), &bits)| {
                abs_pct_error(self.inputs[p].predicted[d], f64::from_bits(bits))
            })
            .sum();
        Some(100.0 * total / pairs as f64)
    }
}

impl Workload for ValidateSim {
    type Op = Op;

    fn setup(run: &Run, spans: &mut Spans) -> Result<Self, String> {
        let session = Session::builder().jobs(1).build();
        let configs: Vec<MachineConfig> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
        let mut inputs = Vec::new();
        for (i, name) in programs().into_iter().enumerate() {
            let params = inputs::params(run.seed, i as u64);
            let program = spans.span("workloads.build", |_| inputs::build(name, &params));
            let workload = spans
                .span("trace.adopt", |_| session.program(program))
                .map_err(|e| e.to_string())?;
            let started = Instant::now();
            let profile = spans.span("profiler.profile", |_| workload.profile());
            let profile_secs = started.elapsed().as_secs_f64();
            let predicted = spans.span("core.predict_sweep", |_| {
                profile
                    .predict_sweep(&configs)
                    .iter()
                    .map(|p| p.total_cycles)
                    .collect()
            });
            inputs.push(Input {
                program: Arc::clone(profile.program()),
                predicted,
                profile_secs,
            });
        }
        Ok(ValidateSim {
            seed: run.seed,
            inputs,
            configs,
            first: BTreeMap::new(),
            digests: Vec::new(),
            pass_digest: 0,
            pass_done: 0,
            base_sim: (0.0, 0),
        })
    }

    fn round(&mut self, round: usize) -> Vec<Op> {
        let all: Vec<Op> = (0..self.inputs.len())
            .flat_map(|program| (0..self.configs.len()).map(move |point| Op { program, point }))
            .collect();
        inputs::shuffled(&all, self.seed, STREAM, round)
    }

    fn class(&self, op: &Op) -> usize {
        op.program * self.configs.len() + op.point
    }

    fn run(&mut self, op: &Op, spans: &mut Spans) -> Result<f64, String> {
        let input = &self.inputs[op.program];
        let started = Instant::now();
        let result = spans.span("sim.simulate", |_| {
            rppm::sim::simulate(&input.program, &self.configs[op.point])
        });
        if spans.enabled() && op.point == base_index() {
            self.base_sim.0 += started.elapsed().as_secs_f64();
            self.base_sim.1 += 1;
        }
        let ops = input.program.total_ops();
        spans.count("sim.micro_ops", ops as f64);
        let cycles = result.total_cycles;
        self.pass_digest = self.pass_digest.wrapping_add(cycles.round() as u64);
        self.pass_done += 1;
        let closed = self.pass_done == self.inputs.len() * self.configs.len();
        if closed {
            self.digests.push(self.pass_digest);
            self.pass_digest = 0;
            self.pass_done = 0;
        }
        let first = *self
            .first
            .entry((op.program, op.point))
            .or_insert(cycles.to_bits());
        if first != cycles.to_bits() {
            return Err(format!(
                "{} at {}: {cycles} cycles, {} in the first pass",
                input.program.name,
                self.configs[op.point].name,
                f64::from_bits(first)
            ));
        }
        if !(cycles.is_finite() && cycles > 0.0) {
            return Err(format!("{}: simulated {cycles} cycles", input.program.name));
        }
        // The operation that closes a pass also checks the pass's digest.
        if closed && self.digests.last() != self.digests.first() {
            return Err(format!(
                "sim.cycles_digest differs between passes: {:?}",
                self.digests
            ));
        }
        Ok(ops as f64)
    }

    fn finish(&mut self, traced: &Summary, out: &mut Finish) -> Result<(), String> {
        out.pred_err_pct = Some(
            self.pred_err_pct()
                .ok_or("no complete pass was simulated")?,
        );

        let sim_secs = traced.secs("sim.simulate");
        let micro_ops = traced.count("sim.micro_ops");
        let l = &mut out.layers;
        l.set_with_base(
            "sim.simulate_ms",
            1e3 * traced.mean("sim.simulate"),
            "ms",
            format!("{} simulations", traced.calls("sim.simulate")),
        );
        l.set_with_base(
            "sim.ns_per_op",
            1e9 * sim_secs / micro_ops.max(1.0),
            "ns",
            format!("{sim_secs:.3} s / {micro_ops} simulated micro-ops"),
        );
        l.set_with_base(
            "sim.cycles_digest",
            self.digests.first().copied().unwrap_or(0) as f64,
            "cycles",
            format!(
                "sum of rounded simulated cycles per pass, {} passes",
                self.digests.len()
            ),
        );
        let profile_secs: f64 = self.inputs.iter().map(|i| i.profile_secs).sum();
        let (base_secs, base_runs) = self.base_sim;
        if base_runs > 0 {
            let simulate_secs = base_secs * self.inputs.len() as f64 / base_runs as f64;
            l.set_with_base(
                "validate-sim.profile_over_simulate",
                profile_secs / simulate_secs,
                "ratio",
                format!(
                    "{:.1} ms set-up profiling / {:.1} ms simulating at base, {} programs",
                    profile_secs * 1e3,
                    simulate_secs * 1e3,
                    self.inputs.len()
                ),
            );
        }
        Ok(())
    }
}
