//! The "profile once" contract: one `profile()` call per distinct
//! (workload, params) pair, no matter how many configurations, reports, or
//! worker threads consume the profile — counted by the cache that did the
//! work.

use rppm_bench::{ExperimentPlan, ImportedTrace, ProfileCache, RunCtx};
use rppm_trace::DesignPoint;
use rppm_workloads::{by_name, Params};

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

    let cache = ProfileCache::new();

    // 3 workloads × 5 configs, 4 worker threads.
    let runs = ExperimentPlan::cross(benches.clone(), params, configs.clone()).run(&cache, 4);
    assert_eq!(runs.len(), 3);
    assert!(runs.iter().all(|r| r.cells.len() == 5));
    assert_eq!(
        cache.profiles_collected(),
        3,
        "one profile() per workload despite 15 cells"
    );

    // A second plan over the same cache (as run_all's reports do) must not
    // re-profile anything...
    let ctx = RunCtx::new(&cache, 2);
    let again = ExperimentPlan::single_config(benches.clone(), params, DesignPoint::Base.config())
        .run(ctx.cache, ctx.jobs);
    assert_eq!(again.len(), 3);
    assert_eq!(cache.profiles_collected(), 3, "cache hit across plans");

    // ...while a different scale is a different workload job.
    let other = Params {
        scale: 0.03,
        seed: 1,
    };
    ExperimentPlan::cross([benches[0]], other, Vec::new()).run(&cache, 1);
    assert_eq!(cache.profiles_collected(), 4);
    assert_eq!(cache.len(), 4);

    // Imported traces obey the same contract: a trace that round-trips
    // through the interchange format is profiled exactly once across all
    // design points and across plans...
    let text = rppm_trace::export_program(&by_name("lud").expect("known").build(&params))
        .expect("exports");
    let imported = ImportedTrace::new(rppm_trace::import_program(&text).expect("imports"));
    let runs = ExperimentPlan::cross([imported.clone()], params, configs).run(&cache, 4);
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].cells.len(), 5);
    assert_eq!(
        cache.profiles_collected(),
        5,
        "one profile() for the imported trace despite 5 cells"
    );
    ExperimentPlan::single_config([imported.clone()], params, DesignPoint::Base.config())
        .run(&cache, 2);
    assert_eq!(cache.profiles_collected(), 5, "cache hit across plans");

    // ...and the cache keys on trace *content*, not Params: re-running the
    // same import under different Params must not re-profile, while a
    // second import of the same file shares the first one's profile.
    let reimported = ImportedTrace::new(rppm_trace::import_program(&text).expect("imports"));
    ExperimentPlan::cross([reimported], other, Vec::new()).run(&cache, 1);
    assert_eq!(cache.profiles_collected(), 5, "content-keyed cache hit");
    assert_eq!(cache.len(), 5);
}
