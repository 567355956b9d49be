//! The Table V case study: use RPPM to prune a design space, then simulate
//! only the surviving candidates.
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use rppm::core::{evaluate_choice, TABLE_V_BOUNDS};
use rppm::prelude::*;

fn main() -> Result<(), rppm::Error> {
    let session = Session::builder().build();
    let profile = session.workload("cfd")?.scale(0.15).seed(3).profile();

    let configs: Vec<_> = DesignPoint::ALL.iter().map(|dp| dp.config()).collect();

    // Predict every design point from the single profile (fast, fanned
    // out over the session's worker threads)...
    let predicted: Vec<f64> = profile
        .predict_sweep(&configs)
        .iter()
        .map(|p| p.total_seconds)
        .collect();
    // ...and simulate them all for ground truth (slow; in a real DSE you
    // would only simulate the model's candidate set).
    let simulated: Vec<f64> = profile
        .simulate_sweep(&configs)
        .iter()
        .map(|s| s.total_seconds)
        .collect();
    assert_eq!(session.profiles_collected(), 1, "one profile drove it all");

    println!(
        "{:<10} {:>14} {:>14}",
        "design", "predicted (ms)", "simulated (ms)"
    );
    for (k, dp) in DesignPoint::ALL.iter().enumerate() {
        println!(
            "{:<10} {:>14.4} {:>14.4}",
            dp.to_string(),
            predicted[k] * 1e3,
            simulated[k] * 1e3
        );
    }

    for bound in TABLE_V_BOUNDS {
        let choice = evaluate_choice(&predicted, &simulated, bound)
            .expect("predicted and simulated cover the same five design points");
        println!(
            "bound {:>3.0}%: candidates {:?} -> chose '{}', deficiency {:.2}%",
            bound * 100.0,
            choice
                .candidates
                .iter()
                .map(|&i| DesignPoint::ALL[i].to_string())
                .collect::<Vec<_>>(),
            DesignPoint::ALL[choice.chosen],
            choice.deficiency * 100.0
        );
    }
    Ok(())
}
