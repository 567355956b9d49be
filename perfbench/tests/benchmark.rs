//! The benchmark's own checks: seeded determinism, seed sensitivity, and
//! agreement between the printed names and `BENCHMARK.json`. Every test
//! runs a workload's real inputs for one or two rounds, so run them with
//! `--release`.

use rppm_perfbench::measure::{Finish, Run, Workload};
use rppm_perfbench::profile_predict::ProfilePredict;
use rppm_perfbench::report::{END_TO_END, PER_LAYER, WORKLOADS};
use rppm_perfbench::serve_mixed::ServeMixed;
use rppm_perfbench::spans::Spans;
use rppm_perfbench::validate_sim::{catalog_error, ValidateSim};
use serde_json::Value;
use std::path::PathBuf;

/// Sets up `W`, runs `rounds` rounds and finishes, returning the workload,
/// every operation in the order it ran, and the finish report.
fn exercise<W: Workload>(tag: &str, seed: u64, rounds: usize) -> (W, Vec<W::Op>, Finish) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{seed}"));
    let run = Run {
        seed,
        seconds: 0.0,
        trace: false,
        dir,
    };
    let mut spans = Spans::new(false);
    let mut workload = W::setup(&run, &mut spans).expect("set-up");
    let mut sequence = Vec::new();
    for round in 0..rounds {
        for op in workload.round(round) {
            workload
                .run(&op, &mut spans)
                .expect("operation passes its checks");
            sequence.push(op);
        }
    }
    let mut finish = Finish::default();
    workload
        .finish(&spans.since(0), &mut finish)
        .expect("finish");
    (workload, sequence, finish)
}

#[test]
fn profile_predict_repeats_under_a_seed() {
    let (_, a, fa) = exercise::<ProfilePredict>("pp-a", 5, 2);
    let (_, b, fb) = exercise::<ProfilePredict>("pp-b", 5, 2);
    let (_, c, _) = exercise::<ProfilePredict>("pp-c", 6, 1);
    assert_eq!(a, b);
    assert_ne!(
        a[..c.len()],
        c[..],
        "another seed orders the operations differently"
    );
    assert_eq!(fa.pred_err_pct, fb.pred_err_pct);
}

#[test]
fn validate_sim_digest_and_error_repeat_under_a_seed() {
    let (wa, a, fa) = exercise::<ValidateSim>("vs-a", 5, 2);
    let (wb, b, fb) = exercise::<ValidateSim>("vs-b", 5, 2);
    let (wc, c, fc) = exercise::<ValidateSim>("vs-c", 6, 1);
    assert_eq!(a, b);
    assert_eq!(wa.digests().len(), 2, "two complete passes");
    assert_eq!(
        wa.digests()[0],
        wa.digests()[1],
        "the digest repeats pass to pass"
    );
    assert_eq!(wa.digests(), wb.digests());
    assert_eq!(fa.pred_err_pct, fb.pred_err_pct);
    // Another seed generates other programs.
    assert_ne!(a[..c.len()], c[..]);
    assert_ne!(wa.digests()[0], wc.digests()[0]);
    assert_ne!(fa.pred_err_pct, fc.pred_err_pct);
    // The other workloads' accuracy check is this workload's first pass.
    assert_eq!(fa.pred_err_pct, Some(catalog_error(5).expect("catalog")));
}

#[test]
fn serve_mixed_counts_repeat_under_a_seed() {
    // Four rounds upload twelve programs, more than the eight upload slots.
    let (wa, a, _) = exercise::<ServeMixed>("serve-a", 5, 4);
    let (wb, b, _) = exercise::<ServeMixed>("serve-b", 5, 4);
    let (_, c, _) = exercise::<ServeMixed>("serve-c", 6, 1);
    assert_eq!(a, b);
    assert_ne!(a[..c.len()], c[..]);
    assert_eq!(wa.hits, wb.hits);
    assert_eq!(wa.colds, 12, "each round uploads three programs");
    let (sa, sb) = (
        wa.stats_after.expect("stats"),
        wb.stats_after.expect("stats"),
    );
    assert_eq!(sa.evictions, sb.evictions);
    assert!(sa.evictions > 0, "uploads evict older uploads");
    assert_eq!(sa.jobs_failed, 0);
}

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    let entries = doc.as_object().expect("BENCHMARK.json is an object");
    Value::get(entries, key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let m = m.as_object().expect("entries are objects");
            let field = |k| {
                Value::get(m, k)
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
}
