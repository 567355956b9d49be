//! `profile-predict`: the trace → profile → predict half of `rppm import`.
//!
//! Each operation opens one trace file in a fresh [`Session`], profiles
//! it, predicts the five Table IV design points and renders the sweep
//! document. The inputs are the whole catalog, each program written in
//! the three containers users hold: JSON, `RPT1`, and `RPT1` with a
//! recorded micro-op stream (`rppm convert --ops`).

use crate::inputs;
use crate::measure::{Finish, Run, Workload};
use crate::spans::{Spans, Summary};
use rppm::docs::sweep_doc;
use rppm::trace::{DesignPoint, MachineConfig};
use rppm::Session;
use std::path::PathBuf;

/// Seed stream of this workload's operation order.
const STREAM: u64 = 1;

/// A trace container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Container {
    /// JSON interchange.
    Json,
    /// `RPT1` binary.
    Rpt1,
    /// `RPT1` with a recorded micro-op stream.
    Ops,
}

impl Container {
    const ALL: [Container; 3] = [Container::Json, Container::Rpt1, Container::Ops];

    fn file_name(self, program: &str) -> String {
        match self {
            Container::Json => format!("{program}.json"),
            Container::Rpt1 => format!("{program}.rpt"),
            Container::Ops => format!("{program}.ops.rpt"),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Container::Json => "trace.read.json",
            Container::Rpt1 => "trace.read.rpt1",
            Container::Ops => "trace.read.ops",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Container::Json => "trace.read_ms.json",
            Container::Rpt1 => "trace.read_ms.rpt1",
            Container::Ops => "trace.read_ms.ops",
        }
    }
}

/// One operation: import, profile and predict one program's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the program list.
    pub program: usize,
    /// Which of its files.
    pub container: Container,
}

struct Input {
    name: String,
    ops: u64,
    /// The first operation's sweep document and predicted cycles (bits);
    /// every later operation on this program must reproduce them.
    reference: Option<(String, Vec<u64>)>,
}

/// Workload state.
pub struct ProfilePredict {
    seed: u64,
    dir: PathBuf,
    inputs: Vec<Input>,
    configs: Vec<MachineConfig>,
}

/// The programs of a run: the whole catalog.
pub fn programs() -> Vec<&'static str> {
    rppm::workloads::all().iter().map(|b| b.name).collect()
}

impl Workload for ProfilePredict {
    type Op = Op;

    fn setup(run: &Run, spans: &mut Spans) -> Result<Self, String> {
        let dir = run.dir.join("traces");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut inputs = Vec::new();
        for (i, name) in programs().into_iter().enumerate() {
            let params = inputs::params(run.seed, i as u64);
            let program = spans.span("workloads.build", |_| inputs::build(name, &params));
            spans.span("trace.write", |_| -> Result<(), String> {
                let path = |c: Container| dir.join(c.file_name(name));
                rppm::trace::write_program(&program, path(Container::Json))
                    .and_then(|()| {
                        rppm::trace::write_program_binary(&program, path(Container::Rpt1))
                    })
                    .and_then(|()| rppm::trace::write_program_ops(&program, path(Container::Ops)))
                    .map_err(|e| format!("writing {name}: {e}"))
            })?;
            inputs.push(Input {
                name: name.to_string(),
                ops: program.total_ops(),
                reference: None,
            });
        }
        Ok(ProfilePredict {
            seed: run.seed,
            dir,
            inputs,
            configs: DesignPoint::ALL.iter().map(|d| d.config()).collect(),
        })
    }

    fn round(&mut self, round: usize) -> Vec<Op> {
        let all: Vec<Op> = (0..self.inputs.len())
            .flat_map(|program| Container::ALL.map(|container| Op { program, container }))
            .collect();
        inputs::shuffled(&all, self.seed, STREAM, round)
    }

    fn class(&self, op: &Op) -> usize {
        op.program * Container::ALL.len() + op.container as usize
    }

    fn run(&mut self, op: &Op, spans: &mut Spans) -> Result<f64, String> {
        let input = &mut self.inputs[op.program];
        let path = self.dir.join(op.container.file_name(&input.name));
        let session = Session::builder().jobs(1).build();
        let workload = spans
            .span(op.container.span(), |_| session.import(&path))
            .map_err(|e| e.to_string())?;
        let profile = spans.span("profiler.profile", |_| workload.profile());
        spans.count("profiler.micro_ops", input.ops as f64);
        let predictions = spans.span("core.predict_sweep", |_| {
            profile.predict_sweep(&self.configs)
        });
        spans.count("core.points", predictions.len() as f64);
        let cycles: Vec<u64> = predictions
            .iter()
            .map(|p| p.total_cycles.to_bits())
            .collect();
        let labelled: Vec<_> = DesignPoint::ALL
            .iter()
            .map(|d| d.to_string())
            .zip(predictions)
            .collect();
        let doc = spans
            .span("docs.sweep_doc", |_| {
                serde_json::to_string(&sweep_doc(workload.name(), &labelled))
            })
            .map_err(|e| e.to_string())?;
        match &input.reference {
            None => input.reference = Some((doc, cycles)),
            Some((want_doc, want_cycles)) => {
                if *want_cycles != cycles || *want_doc != doc {
                    return Err(format!(
                        "{} from {:?} predicts differently from its first import",
                        input.name, op.container
                    ));
                }
            }
        }
        Ok(input.ops as f64)
    }

    fn finish(&mut self, traced: &Summary, out: &mut Finish) -> Result<(), String> {
        out.pred_err_pct = Some(crate::validate_sim::catalog_error(self.seed)?);

        let l = &mut out.layers;
        let read_secs: f64 = Container::ALL.iter().map(|c| traced.secs(c.span())).sum();
        let read_calls: usize = Container::ALL.iter().map(|c| traced.calls(c.span())).sum();
        l.set_with_base(
            "trace.read_ms",
            1e3 * read_secs / read_calls.max(1) as f64,
            "ms",
            format!("{read_calls} Session::import calls, all containers"),
        );
        for c in Container::ALL {
            l.set_with_base(
                c.metric(),
                1e3 * traced.mean(c.span()),
                "ms",
                format!("{} imports", traced.calls(c.span())),
            );
        }
        let profile_secs = traced.secs("profiler.profile");
        let micro_ops = traced.count("profiler.micro_ops");
        l.set_with_base(
            "profiler.profile_ms",
            1e3 * traced.mean("profiler.profile"),
            "ms",
            format!("{} profiles", traced.calls("profiler.profile")),
        );
        l.set_with_base(
            "profiler.ns_per_op",
            1e9 * profile_secs / micro_ops.max(1.0),
            "ns",
            format!("{profile_secs:.3} s / {micro_ops} micro-ops"),
        );
        let points = traced.count("core.points");
        l.set_with_base(
            "core.predict_us",
            1e6 * traced.secs("core.predict_sweep") / points.max(1.0),
            "us",
            format!("{points} design points predicted"),
        );
        l.set_with_base(
            "docs.json_us",
            1e6 * traced.mean("docs.sweep_doc"),
            "us",
            format!("{} sweep documents", traced.calls("docs.sweep_doc")),
        );
        Ok(())
    }
}
