//! The experiment engine as a client of the `rppm::Session` API.

use rppm::trace::DesignPoint;
use rppm::workloads::Params;
use rppm::Session;
use rppm_bench::{ExperimentPlan, RunCtx};

/// A session shares its cache with the bench experiment engine: a report
/// run and a library caller amortize the same profiles.
#[test]
fn session_cache_is_shared_with_experiment_plans() {
    let session = Session::builder().jobs(2).build();
    let params = Params {
        scale: 0.02,
        seed: 1,
    };
    session
        .workload("nn")
        .expect("catalog")
        .scale(params.scale)
        .seed(params.seed)
        .profile();
    let calls_before = session.cache().profiles_collected();

    let bench = rppm::workloads::by_name("nn").expect("catalog");
    let handles = RunCtx::new(&session).handles([bench], params);
    let plan = ExperimentPlan::single_config(handles, DesignPoint::Base.config());
    let runs = plan.run(session.jobs());
    assert_eq!(runs.len(), 1);
    assert_eq!(
        session.cache().profiles_collected(),
        calls_before,
        "the plan reused the session's cached profile"
    );
    assert_eq!(session.profiles_collected(), 1);
}
