//! Parallel experiment execution must be a pure speedup: the rendered
//! report text and its JSON twin are byte-identical whether a plan runs on
//! one worker thread or many.

use rppm::Session;
use rppm_bench::reports;
use rppm_bench::RunCtx;

const SCALE: f64 = 0.02;

fn render_all(jobs: usize) -> Vec<(&'static str, String, String)> {
    let session = Session::builder().jobs(jobs).build();
    let ctx = RunCtx::new(&session);
    [
        reports::table3(SCALE, &ctx),
        reports::fig4(SCALE, &ctx),
        reports::fig5(SCALE, Some("cfd"), &ctx),
        reports::fig6(SCALE, &ctx),
        reports::table5(SCALE, &ctx),
    ]
    .into_iter()
    .map(|r| {
        let json = serde_json::to_string(&r.json).expect("serializes");
        (r.name, r.text, json)
    })
    .collect()
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let sequential = render_all(1);
    let parallel = render_all(4);
    for ((name, seq_text, seq_json), (_, par_text, par_json)) in
        sequential.into_iter().zip(parallel)
    {
        assert_eq!(seq_text, par_text, "{name}: text differs with --jobs 4");
        assert_eq!(seq_json, par_json, "{name}: JSON differs with --jobs 4");
    }
}
