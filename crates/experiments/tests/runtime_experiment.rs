//! The §IV-B15 `runtime` experiment runs end to end. It switches the
//! global `ht_obs` mode and resets the registry while it times, so it
//! lives in a test binary of its own, where no other test records.

use ht_experiments::context::Context;
use ht_experiments::run_experiment;

#[test]
fn runtime_experiment_times_the_decision_helpers() {
    let res = run_experiment("runtime", &Context::default());
    assert!(res.is_ok(), "{res:?}");
}
