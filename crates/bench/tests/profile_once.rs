//! The "profile once" contract: one `profile()` call per distinct
//! (workload, params) pair, no matter how many configurations, reports, or
//! worker threads consume the profile — counted by the session that did
//! the work.

use rppm::trace::DesignPoint;
use rppm::workloads::{by_name, Params};
use rppm::Session;
use rppm_bench::{ExperimentPlan, RunCtx};

#[test]
fn each_workload_is_profiled_exactly_once() {
    let params = Params {
        scale: 0.02,
        seed: 1,
    };
    let benches: Vec<_> = ["backprop", "nn", "pathfinder"]
        .into_iter()
        .map(|n| by_name(n).expect("known"))
        .collect();
    let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();

    let session = Session::new();
    let ctx = RunCtx::new(&session);

    // 3 workloads × 5 configs, 4 worker threads.
    let runs = ExperimentPlan::cross(ctx.handles(benches.clone(), params), configs.clone()).run(4);
    assert_eq!(runs.len(), 3);
    assert!(runs.iter().all(|r| r.cells.len() == 5));
    assert_eq!(
        session.profiles_collected(),
        3,
        "one profile() per workload despite 15 cells"
    );

    // A second plan in the same session (as run_all's reports do) must not
    // re-profile anything...
    let again = ExperimentPlan::single_config(
        ctx.handles(benches.clone(), params),
        DesignPoint::Base.config(),
    )
    .run(2);
    assert_eq!(again.len(), 3);
    assert_eq!(session.profiles_collected(), 3, "cache hit across plans");

    // ...while a different scale is a different workload job.
    let other = Params {
        scale: 0.03,
        seed: 1,
    };
    ExperimentPlan::cross(ctx.handles([benches[0]], other), Vec::new()).run(1);
    assert_eq!(session.profiles_collected(), 4);
    assert_eq!(session.cache().len(), 4);

    // Imported traces obey the same contract: a trace that round-trips
    // through the interchange format is profiled exactly once across all
    // design points and across plans...
    let text = rppm::trace::export_program(&by_name("lud").expect("known").build(&params))
        .expect("exports");
    let import = || {
        session
            .program(rppm::trace::import_program(&text).expect("imports"))
            .expect("valid")
    };
    let imported = import();
    let runs = ExperimentPlan::cross(vec![imported.clone()], configs).run(4);
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].cells.len(), 5);
    assert_eq!(
        session.profiles_collected(),
        5,
        "one profile() for the imported trace despite 5 cells"
    );
    ExperimentPlan::single_config(vec![imported], DesignPoint::Base.config()).run(2);
    assert_eq!(session.profiles_collected(), 5, "cache hit across plans");

    // ...and the cache keys on trace *content*, not scale or seed: a second
    // import of the same file under a different scale and seed shares the
    // first one's profile.
    let reimported = import().scale(other.scale).seed(other.seed);
    ExperimentPlan::cross(vec![reimported], Vec::new()).run(1);
    assert_eq!(session.profiles_collected(), 5, "content-keyed cache hit");
    assert_eq!(session.cache().len(), 5);
}
