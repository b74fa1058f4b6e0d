//! Cross-crate integration: the full Fig. 6b pipeline.
//!
//! Exercises every layer at once: plant thermodynamics → ModBus gateway →
//! RT-Link slots → EVM capsules on controller nodes → health assessment →
//! arbitration → mode changes → plant recovery.

use evm::core::runtime::{Engine, Scenario};
use evm::prelude::*;

#[test]
fn fig6b_reproduces_paper_timeline_and_shape() {
    let result = Engine::new(Scenario::fig6b()).run();

    // Timeline: T1 = 300, T2 = 600 (+ one control-plane slot), T3 = 800.
    let t1 = result.event_time("inject").expect("fault injected");
    let t2 = result
        .event_time("Ctrl-B -> Active")
        .expect("backup activated");
    let t3 = result
        .event_time("Ctrl-A -> Dormant")
        .expect("primary dormant");
    assert_eq!(t1, SimTime::from_secs(300));
    assert!(t2 >= SimTime::from_secs(600) && t2 < SimTime::from_secs(601));
    assert!(t3 >= SimTime::from_secs(800) && t3 < SimTime::from_secs(801));

    // Series shape: stable → collapse → recovery.
    let level = result.series("LTS.LiquidPct");
    let pre = level.window(SimTime::from_secs(60), SimTime::from_secs(300));
    assert!(pre.stats().unwrap().min > 40.0, "stable before the fault");
    let valve = result.series("LTSLiqValve.OpeningPct");
    let fault_valve = valve
        .value_at(SimTime::from_secs(450))
        .expect("valve sampled");
    assert!(
        (fault_valve - 75.0).abs() < 1.0,
        "the paper's stuck-at-75% is visible at the valve: {fault_valve}"
    );
    let collapse = level.window(SimTime::from_secs(500), SimTime::from_secs(600));
    assert!(collapse.stats().unwrap().max < 20.0, "level collapsed");
    let recovery = level.window(SimTime::from_secs(950), SimTime::from_secs(1000));
    assert!(
        recovery.stats().unwrap().mean > 20.0,
        "level recovering after failover"
    );

    // Mode series for the two controllers traverse the Fig. 6 sequence.
    let a = result.series("Mode.Ctrl-A");
    let b = result.series("Mode.Ctrl-B");
    assert_eq!(a.value_at(SimTime::from_secs(100)), Some(0.0), "A Active");
    assert_eq!(b.value_at(SimTime::from_secs(100)), Some(1.0), "B Backup");
    assert_eq!(a.value_at(SimTime::from_secs(700)), Some(1.0), "A Backup");
    assert_eq!(b.value_at(SimTime::from_secs(700)), Some(0.0), "B Active");
    assert_eq!(a.value_at(SimTime::from_secs(900)), Some(2.0), "A Dormant");
}

#[test]
fn no_fault_means_no_failover() {
    let mut scenario = Scenario::baseline();
    scenario.duration = SimDuration::from_secs(400);
    let result = Engine::new(scenario).run();
    assert!(result.event_time("confirmed deviation").is_none());
    assert!(result.event_time("Ctrl-B -> Active").is_none());
    let level = result.series("LTS.LiquidPct");
    assert!((level.last_value().unwrap() - 50.0).abs() < 3.0);
}

#[test]
fn runs_are_deterministic_per_seed_and_differ_across_seeds() {
    let a = Engine::new(Scenario::fig6b()).run();
    let b = Engine::new(Scenario::fig6b()).run();
    assert_eq!(a.trace.render(), b.trace.render());
    assert_eq!(a.e2e_latencies, b.e2e_latencies);

    // With lossy links, the seed decides which frames drop: different
    // seeds must produce observably different runs, same seed identical.
    let lossy = |seed: u64| {
        use evm::plant::ActuatorFault;
        let s = Scenario::builder()
            .seed(seed)
            .fault_at(SimTime::from_secs(100), ActuatorFault::paper_fault())
            .reconfig_epoch(SimDuration::ZERO)
            .extra_loss(0.25)
            .duration(SimDuration::from_secs(250))
            .build();
        Engine::new(s).run()
    };
    let c1 = lossy(1);
    let c1_again = lossy(1);
    let c2 = lossy(2);
    assert_eq!(c1.trace.render(), c1_again.trace.render());
    assert!(
        c1.e2e_latencies.len() != c2.e2e_latencies.len() || c1.trace.render() != c2.trace.render(),
        "different seeds must diverge under loss"
    );
}

#[test]
fn stale_alert_after_commit_starts_no_second_failover() {
    // Once the head commits n2 -> n3 it no longer commands n2 Active, so
    // alerts still in flight from the switchover window are dropped: the
    // head's commanded view filters them, and no second failover follows.
    let result = Engine::new(Scenario::fig6b()).run();
    let commits: Vec<(SimTime, &str)> = result
        .trace
        .entries()
        .iter()
        .filter(|e| e.message.starts_with("head commits failover"))
        .map(|e| (e.at, e.message.as_str()))
        .collect();
    assert_eq!(
        commits,
        [(SimTime::from_secs(600), "head commits failover n2 -> n3")]
    );
}
