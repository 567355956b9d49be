//! Machine-readable JSON documents shared by the `rppm` CLI and the
//! `rppm serve` HTTP service.
//!
//! Both front-ends emit the *same* documents — `rppm dse --json` and the
//! service's `/dse` endpoint are byte-identical for identical inputs, and
//! likewise for the prediction sweep twins. Keeping the builders here (the
//! only crate both depend on) is what makes that a structural guarantee
//! instead of a convention. The DSE candidate ladder is built here too
//! ([`dse_bounds_ladder`]), from the one Table V ladder
//! [`rppm_core::TABLE_V_BOUNDS`] that the `table5` and `dse` reports
//! also read.

use rppm_core::{ConfigSpace, DseBest, DsePoint, DseSweep, Prediction, TABLE_V_BOUNDS};
use rppm_trace::MachineConfig;
use serde_json::Value;

/// One-line human description of a machine configuration, as printed by
/// `rppm dse` (e.g. `4w/192rob @2.00GHz l1=32K l2=512K l3=8M mshr=16
/// bp=8K`).
pub fn describe_config(c: &MachineConfig) -> String {
    format!(
        "{}w/{}rob @{:.2}GHz l1={}K l2={}K l3={}M mshr={} bp={}K",
        c.dispatch_width,
        c.rob_size,
        c.freq_ghz,
        c.l1d.size_bytes >> 10,
        c.l2.size_bytes >> 10,
        c.l3.size_bytes >> 20,
        c.mshrs,
        c.bpred.size_bytes >> 10
    )
}

/// The bound ladder reported by DSE sweeps: the paper's Table V rungs
/// ([`TABLE_V_BOUNDS`]), with `bound` merged in when it is not already a
/// rung. Both `rppm dse` and the service's `/dse` endpoint build their
/// ladder here, so their candidate tables agree rung for rung.
pub fn dse_bounds_ladder(bound: f64) -> Vec<f64> {
    let mut bounds = TABLE_V_BOUNDS.to_vec();
    if !bounds.iter().any(|b| (b - bound).abs() < 1e-15) {
        bounds.push(bound);
        bounds.sort_by(f64::total_cmp);
    }
    bounds
}

/// JSON object for one evaluated design point.
pub fn dse_point_doc(space: &ConfigSpace, p: &DsePoint) -> Value {
    Value::Object(vec![
        ("index".into(), Value::U64(p.index as u64)),
        (
            "config".into(),
            Value::String(describe_config(&space.config(p.index))),
        ),
        ("seconds".into(), Value::F64(p.seconds)),
        ("area".into(), Value::F64(p.area)),
        ("power".into(), Value::F64(p.power)),
    ])
}

/// The `rppm dse --json` document for a full sweep ([`rppm_core::sweep`]).
pub fn dse_sweep_doc(workload: &str, space: &ConfigSpace, out: &DseSweep) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::String(workload.to_string())),
        ("points".into(), Value::U64(out.points as u64)),
        ("feasible".into(), Value::U64(out.feasible as u64)),
        ("best".into(), dse_point_doc(space, &out.best)),
        (
            "frontier".into(),
            Value::Array(
                out.frontier
                    .iter()
                    .map(|p| dse_point_doc(space, p))
                    .collect(),
            ),
        ),
        (
            "candidates".into(),
            Value::Array(
                out.candidates
                    .iter()
                    .map(|&(b, n)| {
                        Value::Object(vec![
                            ("bound".into(), Value::F64(b)),
                            ("count".into(), Value::U64(n as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `rppm dse --best-only --json` document ([`rppm_core::find_best`]).
pub fn dse_best_doc(workload: &str, space: &ConfigSpace, out: &DseBest) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::String(workload.to_string())),
        ("points".into(), Value::U64(out.points as u64)),
        ("feasible".into(), Value::U64(out.feasible as u64)),
        ("pruned".into(), Value::U64(out.pruned as u64)),
        ("bound".into(), Value::F64(out.bound)),
        ("candidates".into(), Value::U64(out.candidates as u64)),
        ("best".into(), dse_point_doc(space, &out.best)),
    ])
}

/// JSON object for one prediction (Equation 1 + Algorithm 2 output).
pub fn prediction_doc(p: &Prediction) -> Value {
    Value::Object(vec![
        ("program".into(), Value::String(p.program.clone())),
        ("config".into(), Value::String(p.config.clone())),
        ("total_cycles".into(), Value::F64(p.total_cycles)),
        ("total_seconds".into(), Value::F64(p.total_seconds)),
        ("threads".into(), Value::U64(p.threads.len() as u64)),
    ])
}

/// Design-point sweep document: one [`prediction_doc`] per labelled
/// configuration, in input order.
pub fn sweep_doc(workload: &str, predictions: &[(String, Prediction)]) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::String(workload.to_string())),
        (
            "sweep".into(),
            Value::Array(
                predictions
                    .iter()
                    .map(|(label, p)| {
                        let mut doc = match prediction_doc(p) {
                            Value::Object(fields) => fields,
                            _ => unreachable!("prediction_doc builds an object"),
                        };
                        doc.insert(0, ("design".into(), Value::String(label.clone())));
                        Value::Object(doc)
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::DesignPoint;

    #[test]
    fn describe_config_matches_expected_shape() {
        let d = describe_config(&DesignPoint::Base.config());
        assert!(
            d.contains("GHz") && d.contains("l1=") && d.contains("bp="),
            "{d}"
        );
    }

    #[test]
    fn sweep_doc_orders_and_labels() {
        let session = crate::Session::builder().jobs(1).build();
        let profile = session
            .workload("nn")
            .expect("catalog")
            .scale(0.02)
            .seed(1)
            .profile();
        let preds: Vec<(String, Prediction)> = DesignPoint::ALL
            .iter()
            .map(|d| (d.to_string(), profile.predict(&d.config())))
            .collect();
        let doc = serde_json::to_string(&sweep_doc("nn", &preds)).unwrap();
        assert!(doc.starts_with("{\"workload\":\"nn\",\"sweep\":[{\"design\":\"smallest\""));
        assert!(doc.contains("\"total_cycles\""));
    }
}
