//! The measurement loop shared by every workload: repeated set-up, timed
//! rounds of operations, and the end-to-end and per-layer metrics they
//! yield.
//!
//! A run sets up several times, each from scratch, and keeps the last
//! state; `setup_s` is the median of those set-up times. It then
//! runs complete rounds (every operation of the workload once, in a
//! seeded order) until `--seconds` have passed, so every run measures the
//! same mix. Each operation is timed on its own; `work_per_s` charges
//! every operation the median time of its class (operations of one class
//! do identical work), so a slow spell on a shared host moves a few
//! samples and not the result, and every end-to-end time is scaled by
//! the run's [`Reference`] to the nominal host speed, so a slow host
//! moves it much less. The traced run alternates untraced and
//! traced rounds in one process: per-layer numbers come from the traced
//! rounds, and the two kinds of round give the tracing overhead.

use crate::reference::Reference;
use crate::report::Metrics;
use crate::spans::{Spans, Summary, LAYERS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Set-ups continue past [`SETUP_REPS`] until they have taken this long in
/// total, so that short set-ups are timed often enough for a steady
/// median...
const SETUP_SECS: f64 = 2.0;

/// ...but never more than this many times.
const MAX_SETUP_REPS: usize = 41;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Minimum length of the measured phase (complete rounds are run until
    /// it has passed; 0 runs one round, two when traced).
    pub seconds: f64,
    /// Record spans (alternate rounds) and print per-layer metrics.
    pub trace: bool,
    /// Directory for generated files, inside the working tree.
    pub dir: PathBuf,
}

/// A benchmark workload: one user flow driven through the public API.
pub trait Workload: Sized {
    /// One timed operation.
    type Op: Clone + std::fmt::Debug + PartialEq;

    /// Builds everything the operations need (programs, files, profiles,
    /// a server). Deterministic in-process work only.
    fn setup(run: &Run, spans: &mut Spans) -> Result<Self, String>;

    /// Plans round `round`: its operations, in the order they run, and
    /// any inputs they need. Planning is not timed.
    fn round(&mut self, round: usize) -> Vec<Self::Op>;

    /// The class of `op`: operations of one class do the same work.
    fn class(&self, op: &Self::Op) -> usize;

    /// Runs one operation and checks its output: `Ok(work done)`, or
    /// `Err` describing the failed check.
    fn run(&mut self, op: &Self::Op, spans: &mut Spans) -> Result<f64, String>;

    /// After the measured phase: the accuracy metric and workload-specific
    /// per-layer metrics. `traced` summarizes the spans of the traced
    /// rounds.
    fn finish(&mut self, traced: &Summary, out: &mut Finish) -> Result<(), String>;
}

/// What [`Workload::finish`] reports.
#[derive(Debug, Default)]
pub struct Finish {
    /// `pred_err_pct`: mean absolute error of the workload's predictions
    /// against the simulator over its fixed pair set, in percent.
    pub pred_err_pct: Option<f64>,
    /// Per-layer metrics (printed by the traced run).
    pub layers: Metrics,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: usize,
    secs: f64,
    work: f64,
    traced: bool,
}

/// Everything a run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Metrics,
    /// Every recorded span, for writing out.
    pub spans: Spans,
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail latency: the 99th percentile (the sample at rank
/// `ceil(0.99 n)`). Runs of 1,000 operations or more have at least ten
/// samples beyond it; runs of fewer than 100 report their maximum.
///
/// The stricter "highest percentile with ten samples beyond it" is not
/// used: on a shared host, preemption stalls of 3 to 80 ms land on a few
/// dozen of serve-mixed's ~50,000 operations per run, so that statistic
/// measures the host's stalls rather than the program.
pub fn tail(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (0.99 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Work per second if every operation took its class's median time.
fn rate(samples: &[Sample]) -> f64 {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s.secs);
    }
    let medians: BTreeMap<usize, f64> = by_class
        .into_iter()
        .map(|(c, secs)| (c, median(&secs)))
        .collect();
    let work: f64 = samples.iter().map(|s| s.work).sum();
    let secs: f64 = samples.iter().map(|s| medians[&s.class]).sum();
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up, measures and checks workload `W`.
///
/// # Errors
///
/// A set-up failure or a failure in the checks' own machinery.
pub fn drive<W: Workload>(run: &Run) -> Result<Outcome, String> {
    let mut reference = Reference::default();
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut state = None;
    while setup_secs.len() < SETUP_REPS
        || (setup_secs.iter().sum::<f64>() < SETUP_SECS && setup_secs.len() < MAX_SETUP_REPS)
    {
        // Tear the previous set-up down before timing the next one.
        drop(state.take());
        reference.sample();
        let mut spans = Spans::new(run.trace);
        let started = Instant::now();
        let workload = W::setup(run, &mut spans)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        state = Some((workload, spans));
    }
    let setup_host = reference.end_phase();
    let (mut workload, mut spans) = state.expect("SETUP_REPS > 0");
    let setup_split = spans.since(0);
    let last_setup = *setup_secs.last().expect("SETUP_REPS > 0");
    let mark = spans.mark();

    let mut samples: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut traced_wall = 0.0;
    let min_rounds = if run.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut round = 0;
    while round < min_rounds || started.elapsed().as_secs_f64() < run.seconds {
        let traced = run.trace && round % 2 == 1;
        spans.set_enabled(traced);
        // Planning a round generates inputs; it is neither timed nor traced.
        let ops = workload.round(round);
        let round_started = Instant::now();
        for op in ops {
            spans.next_op();
            let class = workload.class(&op);
            let t = Instant::now();
            let result = workload.run(&op, &mut spans);
            let secs = t.elapsed().as_secs_f64();
            let ticked = reference.tick();
            if traced {
                traced_wall -= ticked;
            }
            attempted += 1;
            match result {
                Ok(work) => samples.push(Sample {
                    class,
                    secs,
                    work,
                    traced,
                }),
                Err(e) => failures.push(format!("round {round} {op:?}: {e}")),
            }
        }
        if traced {
            traced_wall += round_started.elapsed().as_secs_f64();
        }
        round += 1;
    }
    let peak_rss = peak_rss_mb();
    let run_host = reference.end_phase();
    spans.set_enabled(false);

    let traced_summary = spans.since(mark);
    let mut finish = Finish::default();
    workload.finish(&traced_summary, &mut finish)?;
    drop(workload);

    let untraced: Vec<Sample> = samples.iter().filter(|s| !s.traced).copied().collect();
    let latencies: Vec<f64> = untraced.iter().map(|s| s.secs).collect();
    let (setup, work_rate, p50, tail_secs) = (
        median(&setup_secs),
        rate(&untraced),
        median(&latencies),
        tail(&latencies),
    );
    // End-to-end times are scaled to the nominal host speed, each by the
    // kernel timed in its own phase.
    let slowdown = run_host.slowdown();
    eprintln!(
        "host: reference kernel {:.4} ms in set-up ({} samples), {:.4} ms measuring ({} samples); \
         unscaled: setup_s {setup:.6}, work_per_s {work_rate:.4}, p50_ms {:.6}, tail_ms {:.6}",
        setup_host.secs * 1e3,
        setup_host.samples,
        run_host.secs * 1e3,
        run_host.samples,
        p50 * 1e3,
        tail_secs * 1e3
    );
    let mut end_to_end = Metrics::default();
    end_to_end.set("setup_s", setup / setup_host.slowdown(), "s");
    end_to_end.set("work_per_s", work_rate * slowdown, "1/s");
    end_to_end.set("p50_ms", p50 / slowdown * 1e3, "ms");
    end_to_end.set("tail_ms", tail_secs / slowdown * 1e3, "ms");
    end_to_end.set("peak_rss_mb", peak_rss, "MB");
    let pred_err = finish
        .pred_err_pct
        .ok_or("the workload computed no pred_err_pct")?;
    end_to_end.set("pred_err_pct", pred_err, "%");

    let mut per_layer = finish.layers;
    if run.trace {
        let traced: Vec<Sample> = samples.iter().filter(|s| s.traced).copied().collect();
        let (plain, with_spans) = (rate(&untraced), rate(&traced));
        per_layer.set_with_base(
            "unattributed_pct",
            100.0 * (traced_wall - traced_summary.covered()) / traced_wall,
            "%",
            format!(
                "{:.3} s of {:.3} s in traced rounds outside any span",
                traced_wall - traced_summary.covered(),
                traced_wall
            ),
        );
        per_layer.set_with_base(
            "trace_overhead_pct",
            100.0 * (1.0 - with_spans / plain),
            "%",
            format!("work/s {with_spans:.4} traced vs {plain:.4} untraced, same process"),
        );
        for layer in LAYERS {
            per_layer.set_with_base(
                &format!("self_pct.{layer}"),
                100.0 * traced_summary.self_secs(layer) / traced_wall,
                "%",
                format!(
                    "{:.3} s self time of {traced_wall:.3} s in traced rounds",
                    traced_summary.self_secs(layer)
                ),
            );
            per_layer.set(
                &format!("setup.{layer}_ms"),
                setup_split.self_secs(layer) * 1e3,
                "ms",
            );
        }
        per_layer.set_with_base(
            "host.reference_ms",
            run_host.secs * 1e3,
            "ms",
            format!(
                "median of {} samples measuring ({:.4} ms in set-up); times are divided by {slowdown:.3}",
                run_host.samples,
                setup_host.secs * 1e3
            ),
        );
        per_layer.set_with_base(
            "setup.unattributed_ms",
            (last_setup - setup_split.covered()) * 1e3,
            "ms",
            format!(
                "of a {:.1} ms set-up ({} set-ups, median {:.1} ms)",
                last_setup * 1e3,
                setup_secs.len(),
                median(&setup_secs) * 1e3
            ),
        );
    }

    Ok(Outcome {
        attempted,
        failures,
        end_to_end,
        per_layer,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_99th_percentile() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), 1980.0);
        assert_eq!(tail(&v[..15]), 15.0);
        assert_eq!(median(&v[..100]), 50.5);
    }

    #[test]
    fn rate_charges_class_medians() {
        let s = |class, secs| Sample {
            class,
            secs,
            work: 10.0,
            traced: false,
        };
        // One outlier in class 0 does not move the rate.
        let samples = [s(0, 1.0), s(0, 1.0), s(0, 9.0), s(1, 2.0)];
        assert_eq!(rate(&samples), 40.0 / 5.0);
    }
}
