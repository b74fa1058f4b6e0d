//! Runtime engine tests (ported from the pre-refactor engine's unit
//! tests): QoS, schedule shape, the Fig. 6b failover machinery, energy
//! accounting and the fail-safe/migration paths — all through the public
//! topology-generic API.

use evm_core::bytecode::{
    compile_control_law, control_law_gas_budget, Capability, Capsule, CapsuleId, ControlLawSpec,
    N_VARS,
};
use std::sync::Arc;

use evm_core::runtime::{
    check_setup, nodes, Engine, FlowKind, Reconfigurator, Scenario, ScenarioBuilder, TopologyError,
};
use evm_core::{CapsuleImage, RunResult};
use evm_sim::{SimDuration, SimTime};

fn short(scenario: Scenario, secs: u64) -> RunResult {
    let mut s = scenario;
    s.duration = SimDuration::from_secs(secs);
    Engine::new(s).run()
}

#[test]
fn baseline_holds_level_and_meets_deadlines() {
    let r = short(Scenario::baseline(), 120);
    let level = r.series("LTS.LiquidPct");
    let last = level.last_value().unwrap();
    assert!((last - 50.0).abs() < 5.0, "level {last}");
    assert!(r.actuations > 200, "actuations {}", r.actuations);
    // Objective 5: latency <= 1/3 of the 250 ms cycle.
    assert!(
        r.deadline_hit_ratio() > 0.99,
        "hit ratio {}",
        r.deadline_hit_ratio()
    );
    let p99 = r.e2e_quantile(0.99).unwrap();
    assert!(p99 <= SimDuration::from_micros(83_333), "p99 latency {p99}");
}

#[test]
fn schedule_is_pipeline_ordered() {
    let e = Engine::new(Scenario::baseline());
    let roles = e.roles().clone();
    let slot = |owner, kind| e.slot_serving(owner, kind).expect("flow scheduled");
    let gw_s1 = slot(roles.gateway, FlowKind::HilDownlink { vc: 0, tag: 0 });
    let s1_bcast = slot(roles.sensors[0], FlowKind::SensorPublish { vc: 0, tag: 0 });
    let a_out = slot(roles.controllers[0], FlowKind::ControlPublish { vc: 0 });
    let b_out = slot(roles.controllers[1], FlowKind::ControlPublish { vc: 0 });
    let act_fwd = slot(roles.actuators[0], FlowKind::ActuateForward { vc: 0 });
    let head_bcast = slot(roles.head.unwrap(), FlowKind::ControlPlane { vc: 0 });
    assert!(gw_s1 < s1_bcast);
    assert!(s1_bcast < a_out);
    assert!(a_out < b_out);
    assert!(b_out < act_fwd);
    assert!(act_fwd < head_bcast);
    assert!(e.schedule().is_interference_free(e.topology()));
    // The resolved Fig. 5 roles are the documented well-known ids.
    assert_eq!(roles.gateway, nodes::GW);
    assert_eq!(roles.primary(), nodes::CTRL_A);
    assert_eq!(roles.head, Some(nodes::HEAD));
}

/// With two transfer slots per VC the primary serves the same
/// `Transfer` flow in two slots. `slot_serving` must name the lowest of
/// them, which the slot-ordered flow table lists first.
#[test]
fn slot_serving_returns_the_lowest_matching_slot() {
    let scenario = ScenarioBuilder::star().transfer_slots(2).build();
    let kind = FlowKind::Transfer { vc: 0 };
    let probe = Engine::new(scenario.clone());
    let primary = probe.roles().primary();
    let epoch = Reconfigurator::compute(
        0,
        probe.topology(),
        &[],
        probe.vc_map(),
        &scenario.rtlink,
        scenario.serial_schedule,
        scenario.transfer_slots,
    )
    .expect("the setup epoch computes");
    let reserved: Vec<usize> = epoch
        .flow_kinds
        .iter()
        .filter(|f| f.owner == primary && f.kind == kind)
        .map(|f| f.slot)
        .collect();
    assert_eq!(reserved.len(), 2, "two transfer slots reserved");
    let lowest = reserved.iter().copied().min();
    assert_eq!(probe.slot_serving(primary, kind), lowest);
    assert_ne!(lowest, reserved.iter().copied().max());
}

/// A zero timing knob is a typed setup error naming the knob, caught
/// before setup divides by it (`sample_every`), a timeout is built from
/// it (`rtlink.slot_duration`, `heartbeat_cycles`) or the first plant
/// step runs with it (`plant_dt`).
#[test]
fn zero_timing_knobs_are_typed_setup_errors() {
    for knob in [
        "sample_every",
        "rtlink.slot_duration",
        "heartbeat_cycles",
        "plant_dt",
    ] {
        let mut scenario = Scenario::fig5();
        match knob {
            "sample_every" => scenario.sample_every = SimDuration::ZERO,
            "rtlink.slot_duration" => scenario.rtlink.slot_duration = SimDuration::ZERO,
            "heartbeat_cycles" => scenario.heartbeat_cycles = 0,
            _ => scenario.plant_dt = SimDuration::ZERO,
        }
        match Engine::try_new(scenario) {
            Ok(_) => panic!("`{knob}` = 0 was accepted"),
            Err(e) => {
                assert_eq!(e, TopologyError::ZeroTiming(knob));
                assert_eq!(
                    e.to_string(),
                    format!("timing knob `{knob}` must be positive")
                );
            }
        }
    }
}

#[test]
fn fig6b_failover_sequence() {
    let r = Engine::new(Scenario::fig6b()).run();
    // Detection happens quickly after the 300 s injection...
    let detected = r.event_time("confirmed deviation").expect("detected");
    assert!(detected >= SimTime::from_secs(300));
    assert!(
        detected < SimTime::from_secs(310),
        "detection was slow: {detected}"
    );
    // ...but the head commits at the next 300 s epoch: T2 = 600 s.
    let promoted = r.event_time("Ctrl-B -> Active").expect("promoted");
    assert!(
        promoted >= SimTime::from_secs(600) && promoted < SimTime::from_secs(602),
        "T2 was {promoted}"
    );
    // T3 = 800 s: Ctrl-A Dormant.
    let dormant = r.event_time("Ctrl-A -> Dormant").expect("dormant");
    assert!(
        dormant >= SimTime::from_secs(800) && dormant < SimTime::from_secs(802),
        "T3 was {dormant}"
    );
    // Level collapses under the fault, then recovers after failover.
    let level = r.series("LTS.LiquidPct");
    let during = level.window(SimTime::from_secs(550), SimTime::from_secs(600));
    assert!(during.stats().unwrap().max < 20.0, "level must collapse");
    let late = level.window(SimTime::from_secs(900), SimTime::from_secs(1000));
    let recovering = late.stats().unwrap().mean;
    assert!(
        recovering > during.stats().unwrap().mean + 5.0,
        "level must recover: {recovering}"
    );
}

#[test]
fn fast_reconfig_recovers_sooner() {
    let slow = Engine::new(Scenario::fig6b()).run();
    let fast = Engine::new(Scenario::fig6b_fast()).run();
    let t_slow = slow.event_time("Ctrl-B -> Active").unwrap();
    let t_fast = fast.event_time("Ctrl-B -> Active").unwrap();
    assert!(
        t_fast < t_slow - SimDuration::from_secs(250),
        "fast {t_fast} vs slow {t_slow}"
    );
    // Lower control cost with fast failover.
    let cost = |r: &RunResult| {
        r.control_cost(
            "LTS.LiquidPct",
            50.0,
            SimTime::from_secs(300),
            SimTime::from_secs(1000),
        )
    };
    assert!(cost(&fast) < cost(&slow));
}

#[test]
fn determinism_same_seed_same_trace() {
    let a = Engine::new(Scenario::fig6b()).run();
    let b = Engine::new(Scenario::fig6b()).run();
    assert_eq!(a.trace.render(), b.trace.render());
    assert_eq!(
        a.series("LTS.LiquidPct").samples(),
        b.series("LTS.LiquidPct").samples()
    );
}

#[test]
fn crash_failover_via_heartbeat() {
    let scenario = Scenario::builder()
        .crash_primary_at(SimTime::from_secs(100))
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(300))
        .build();
    let r = Engine::new(scenario).run();
    assert!(r.event_time("heartbeat timeout").is_some());
    let promoted = r.event_time("Ctrl-B -> Active").expect("failover");
    assert!(
        promoted < SimTime::from_secs(110),
        "crash failover took until {promoted}"
    );
    // After failover the loop keeps running.
    let level = r.series("LTS.LiquidPct");
    let last = level.last_value().unwrap();
    assert!((last - 50.0).abs() < 10.0, "level {last}");
}

#[test]
fn energy_accounting_is_plausible() {
    let r = short(Scenario::baseline(), 300);
    let e = |label: &str| r.node_energy.get(label).expect("metered");
    for label in ["GW", "S1", "Ctrl-A", "Ctrl-B", "A1", "S2", "Head"] {
        let ne = e(label);
        assert!(
            ne.avg_current_ma > 0.05 && ne.avg_current_ma < 5.0,
            "{label}: {:.3} mA",
            ne.avg_current_ma
        );
        assert!(ne.radio_duty < 0.10, "{label}: duty {:.3}", ne.radio_duty);
        assert!(
            ne.lifetime_years > 0.05,
            "{label}: {:.2} y",
            ne.lifetime_years
        );
    }
    // The gateway owns two uplink slots and receives actuations: it
    // must work the radio at least as hard as the idle spare sensor.
    assert!(e("GW").radio_duty >= e("S2").radio_duty);
}

/// Design property the broadcast-PV architecture buys: because every
/// replica computes on the *same published sample*, measurement noise
/// cannot diverge primary and backup — so it can never cause a false
/// failover, no matter how large.
#[test]
fn sensor_noise_cannot_cause_false_failover() {
    let scenario = Scenario::builder()
        .sensor_noise(5.0) // same magnitude as the detection threshold
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(300))
        .build();
    let r = Engine::new(scenario).run();
    assert!(r.event_time("confirmed deviation").is_none());
    assert!(r.event_time("Ctrl-B -> Active").is_none());
    // The loop still regulates (the 2nd-order filter earns its keep).
    let level = r.series("LTS.LiquidPct");
    assert!((level.last_value().unwrap() - 50.0).abs() < 6.0);
}

#[test]
fn double_fault_engages_fail_safe() {
    use evm_plant::ActuatorFault;
    let scenario = Scenario::builder()
        .fault_at(SimTime::from_secs(100), ActuatorFault::paper_fault())
        .backup_fault_at(SimTime::from_secs(200), ActuatorFault::StuckOutput(90.0))
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(400))
        .build();
    let r = Engine::new(scenario).run();
    // First failover: B takes over.
    let first = r.event_time("Ctrl-B -> Active").expect("first failover");
    assert!(first < SimTime::from_secs(102));
    // Second fault: A is already suspected, so no viable master.
    let fs = r.event_time("fail-safe").expect("fail-safe engaged");
    assert!(fs > SimTime::from_secs(200) && fs < SimTime::from_secs(205));
    // The valve lands at the fail-safe position and stays there.
    let valve = r.series("LTSLiqValve.OpeningPct");
    let late = valve.value_at(SimTime::from_secs(300)).unwrap();
    assert!(late < 1.0, "valve fail-closed, got {late}");
    // And the faulty backup was demoted to Indicator mode.
    let b_mode = r.series("Mode.Ctrl-B");
    assert_eq!(b_mode.value_at(SimTime::from_secs(300)), Some(3.0));
}

/// The cold Fig. 6b scenario the cold-standby tests share: a paper
/// fault on Ctrl-A at 100 s, an immediate head decision, and one
/// transfer slot per cycle for the capsule shipment.
fn cold_standby() -> ScenarioBuilder {
    Scenario::builder()
        .fault_at(
            SimTime::from_secs(100),
            evm_plant::ActuatorFault::paper_fault(),
        )
        .reconfig_epoch(SimDuration::ZERO)
        .cold_backup()
        .transfer_slots(1)
        .duration(SimDuration::from_secs(400))
}

#[test]
fn cold_backup_requires_migration() {
    let scenario = cold_standby().build();
    // The image the primary ships: the VC's compiled law, one version
    // past boot, with the interpreter's whole variable file.
    let law = ControlLawSpec::from_loop(scenario.vc_loop(0));
    let program = compile_control_law(&law);
    let gas = control_law_gas_budget(&program);
    let image = CapsuleImage {
        capsule: Capsule::new(
            CapsuleId(0),
            2,
            program,
            gas,
            vec![Capability::ControllerRole, Capability::DataPlane],
        ),
        vars: vec![0.0; N_VARS],
        advertised_digest: 0,
        pad_bytes: scenario.capsule_pad_bytes,
    };
    let e = Engine::new(scenario);
    let roles = e.roles().clone();
    let r = e.run();

    assert_eq!(r.migrations.len(), 1, "one shipment promotes the backup");
    let m = &r.migrations[0];
    assert_eq!(m.vc, 0);
    assert_eq!(m.from, roles.controllers[0], "shipped by Ctrl-A");
    assert_eq!(m.to, roles.controllers[1], "to the cold Ctrl-B");
    assert_eq!(m.image_bytes, image.size_bytes());
    assert_eq!(m.frames, image.frames());
    let activated = r
        .event_time("attested and activated")
        .expect("the shipment activates on Ctrl-B");
    let committed = r
        .event_time("head commits failover")
        .expect("the head commits the promotion");
    assert!(committed >= activated, "no commit before activation");
    let promoted = r.event_time("Ctrl-B -> Active").expect("promotion");
    assert!(promoted >= activated);
}

#[test]
fn cold_backup_without_transfer_lane_is_a_typed_error() {
    assert_eq!(
        cold_standby().transfer_slots(0).try_build().err(),
        Some(TopologyError::ColdStandbyWithoutTransferLane)
    );
    let mut scenario = cold_standby().build();
    scenario.transfer_slots = 0;
    match Engine::try_new(scenario) {
        Err(TopologyError::ColdStandbyWithoutTransferLane) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a cold backup needs a transfer lane to receive the task"),
    }
}

#[test]
fn duplicate_labels_are_a_typed_setup_error() {
    // Per-node energy and the `Mode.<label>` series are keyed by label:
    // two nodes sharing one would be silently merged in the results.
    let mut scenario = Scenario::fig6b();
    for n in &mut scenario.topology.nodes {
        if n.label == "Ctrl-B" {
            n.label = "Ctrl-A".into();
        }
    }
    match Engine::try_new(scenario) {
        Err(TopologyError::DuplicateLabel(label)) => assert_eq!(label, "Ctrl-A"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a duplicate label must not set up"),
    }
}

#[test]
#[should_panic(expected = "tag Nope.Level was not sampled")]
fn an_unsampled_tag_panics_by_name() {
    let r = short(Scenario::baseline(), 5);
    assert!(r.series.get("Nope.Level").is_none());
    let _ = r.series("Nope.Level");
}

/// A cell on a shared deployment gets the result its cold twin gets, and
/// its result shares the deployment's label table instead of copying it.
#[test]
fn a_shared_cell_matches_its_cold_twin() {
    let mut s = ScenarioBuilder::star()
        .vcs(2)
        .duration(SimDuration::from_secs(20))
        .build();
    s.seed = 3;
    let deployment = check_setup(&s).expect("sets up");
    let shared = |seed| {
        let mut cell = s.clone();
        cell.seed = seed;
        cell.attach_deployment(Arc::clone(&deployment));
        Engine::try_new(cell).expect("cell sets up").run()
    };
    let (a, b) = (shared(3), shared(4));
    let cold = Engine::new(s.clone()).run();
    assert_eq!(a.series, cold.series);
    assert_eq!(a.node_energy, cold.node_energy);
    assert_eq!(a, cold);
    assert_eq!(a.node_energy.get("nope"), None);
    assert!(a.node_energy.get("Ctrl-A").is_some());
    assert!(
        std::ptr::eq(a.node_energy.labels(), b.node_energy.labels()),
        "cells on one deployment share its labels"
    );
    assert!(!std::ptr::eq(
        a.node_energy.labels(),
        cold.node_energy.labels()
    ));
}
