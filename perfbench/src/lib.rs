//! End-to-end and per-layer benchmark of the RPPM user flows.
//!
//! Three workloads, each driven only through the public API (`rppm::Session`,
//! `rppm::core`, `rppm::sim`, `rppm::docs` and `rppm_serve` over a
//! loopback socket):
//!
//! * [`profile_predict`] — trace file → profile → predict (`rppm import`);
//! * [`validate_sim`] — simulation against prediction (Figure 4);
//! * [`serve_mixed`] — the prediction service under a mixed closed loop.
//!
//! [`measure`] runs a workload and computes its metrics, [`reference`]
//! times the host-speed kernel that the end-to-end times are scaled by,
//! [`spans`] records the traced run, and [`report`] names the metrics and
//! prints the result.
//! See `README.md` beside this crate for how the workloads were chosen.

#![warn(missing_docs)]

pub mod inputs;
pub mod measure;
pub mod profile_predict;
pub mod reference;
pub mod report;
pub mod serve_mixed;
pub mod spans;
pub mod validate_sim;

use measure::{drive, Outcome, Run};

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name, or a set-up or measurement failure.
pub fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "profile-predict" => drive::<profile_predict::ProfilePredict>(run),
        "validate-sim" => drive::<validate_sim::ValidateSim>(run),
        "serve-mixed" => drive::<serve_mixed::ServeMixed>(run),
        _ => Err(format!(
            "unknown workload `{name}` (expected one of {})",
            report::WORKLOADS.join(", ")
        )),
    }
}
