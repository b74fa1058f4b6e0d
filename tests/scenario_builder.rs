//! Cross-crate integration: the `ScenarioBuilder` topology DSL.
//!
//! The refactored runtime's core claim: the same engine runs topologies
//! the paper's testbed never had — here a wide star with an extra
//! controller replica converges through *two* failovers, the degenerate
//! three-node loop still regulates, and `Scenario::fig5()` stays
//! deterministic under the new engine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use evm::core::runtime::{check_setup, Engine, Layout, Scenario, ScenarioBuilder, TopologyError};
use evm::netsim::{LinkBlackout, NodeId, Position};
use evm::plant::ActuatorFault;
use evm::prelude::*;
use evm::sim::SimRng;

/// A 2-sensor / 3-controller / 1-head star: after the primary faults, the
/// head promotes Ctrl-B; after Ctrl-B faults too, the third replica takes
/// over instead of falling back to fail-safe — capacity the Fig. 5
/// testbed does not have.
#[test]
fn wide_star_survives_two_controller_faults() {
    let scenario = ScenarioBuilder::star()
        .sensors(2)
        .controllers(3)
        .head(true)
        .fault_at(SimTime::from_secs(100), ActuatorFault::paper_fault())
        .backup_fault_at(SimTime::from_secs(250), ActuatorFault::StuckOutput(90.0))
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(500))
        .build();
    let result = Engine::new(scenario).run();

    let first = result
        .event_time("Ctrl-B -> Active")
        .expect("first failover");
    assert!(first < SimTime::from_secs(105), "first failover at {first}");
    let second = result
        .event_time("Ctrl-C -> Active")
        .expect("second failover");
    assert!(
        second > SimTime::from_secs(250) && second < SimTime::from_secs(260),
        "second failover at {second}"
    );
    // Three replicas means no fail-safe was needed.
    assert!(result.event_time("fail-safe").is_none());
    // And the loop converges back to the setpoint under Ctrl-C.
    let level = result.series("LTS.LiquidPct");
    let late = level.window(SimTime::from_secs(400), SimTime::from_secs(500));
    let mean = late.stats().unwrap().mean;
    assert!((mean - 50.0).abs() < 15.0, "level recovering, mean {mean}");

    // All three controller mode series exist and show the handoffs.
    assert_eq!(
        result
            .series("Mode.Ctrl-A")
            .value_at(SimTime::from_secs(400)),
        Some(2.0),
        "A dormant" // demoted 200 s after the first failover
    );
    assert_eq!(
        result
            .series("Mode.Ctrl-C")
            .value_at(SimTime::from_secs(400)),
        Some(0.0),
        "C active"
    );
}

/// The degenerate three-node Virtual Component (gateway + sensor +
/// controller, actuation through the gateway, no head) still closes the
/// loop and holds the level.
#[test]
fn minimal_three_node_loop_regulates() {
    let scenario = ScenarioBuilder::minimal()
        .duration(SimDuration::from_secs(300))
        .build();
    assert_eq!(scenario.topology.nodes.len(), 3);
    let result = Engine::new(scenario).run();
    assert!(result.actuations > 500, "actuations {}", result.actuations);
    assert!(result.deadline_hit_ratio() > 0.99);
    let level = result.series("LTS.LiquidPct");
    let last = level.last_value().unwrap();
    assert!((last - 50.0).abs() < 5.0, "level {last}");
    // No failover machinery exists — and none fired.
    assert!(result.event_time("head").is_none());
}

/// `Scenario::fig5()` under the new engine: the same seed produces the
/// same `RunResult`, and a different seed diverges under loss.
#[test]
fn fig5_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut s = Scenario::fig5();
        s.seed = seed;
        s.extra_loss = 0.2;
        s.fault = Some((SimTime::from_secs(100), ActuatorFault::paper_fault()));
        s.reconfig_epoch = SimDuration::ZERO;
        s.duration = SimDuration::from_secs(250);
        Engine::new(s).run()
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a.trace.render(), b.trace.render());
    assert_eq!(a.e2e_latencies, b.e2e_latencies);
    assert_eq!(a.deadline_misses, b.deadline_misses);
    assert_eq!(a.actuations, b.actuations);
    assert_eq!(
        a.series("LTS.LiquidPct").samples(),
        b.series("LTS.LiquidPct").samples()
    );
    for (label, energy) in a.node_energy.iter() {
        assert_eq!(
            Some(energy),
            b.node_energy.get(label),
            "{label} energy differs"
        );
    }
    let c = run(10);
    assert!(
        a.trace.render() != c.trace.render() || a.e2e_latencies != c.e2e_latencies,
        "different seeds must diverge under loss"
    );
}

/// The DSL's extra sensors appear as monitoring flows without disturbing
/// the control pipeline.
#[test]
fn extra_sensors_schedule_and_run() {
    let scenario = ScenarioBuilder::star()
        .sensors(4)
        .controllers(2)
        .head(true)
        .duration(SimDuration::from_secs(120))
        .build();
    assert_eq!(scenario.topology.nodes.len(), 9);
    let result = Engine::new(scenario).run();
    assert!(result.deadline_hit_ratio() > 0.99);
    let level = result.series("LTS.LiquidPct");
    assert!((level.last_value().unwrap() - 50.0).abs() < 5.0);
}

/// A builder that runs for two simulated seconds.
fn short() -> ScenarioBuilder {
    ScenarioBuilder::star().duration(SimDuration::from_secs(2))
}

/// A valid two-second scenario with one field edited by hand, for the
/// rules no builder setter reaches.
fn edited(edit: fn(&mut Scenario)) -> Result<Scenario, TopologyError> {
    let mut s = short().build();
    edit(&mut s);
    Ok(s)
}

fn knob(knob: &'static str, rule: &'static str) -> TopologyError {
    TopologyError::InvalidKnob { knob, rule }
}

fn shape(layout: Layout, vcs: usize, rule: &'static str) -> TopologyError {
    TopologyError::InvalidShape { layout, vcs, rule }
}

fn register(rule: &'static str) -> TopologyError {
    TopologyError::LoopRegister { vc: 0, rule }
}

/// One row per scenario rule: each invalid value comes back as its own
/// typed error, from `try_build` when the builder can see the rule and
/// from `check_setup` otherwise — never as a panic.
#[test]
fn every_scenario_rule_is_its_own_typed_error() {
    type Row = (
        &'static str,
        fn() -> Result<Scenario, TopologyError>,
        TopologyError,
    );
    let star = Layout::Star;
    let rows: Vec<Row> = vec![
        // Knobs.
        (
            "plant_dt",
            || edited(|s| s.plant_dt = SimDuration::ZERO),
            TopologyError::ZeroTiming("plant_dt"),
        ),
        (
            "sample_every",
            || edited(|s| s.sample_every = SimDuration::ZERO),
            TopologyError::ZeroTiming("sample_every"),
        ),
        (
            "slot_duration",
            || edited(|s| s.rtlink.slot_duration = SimDuration::ZERO),
            TopologyError::ZeroTiming("rtlink.slot_duration"),
        ),
        (
            "heartbeat_cycles",
            || edited(|s| s.heartbeat_cycles = 0),
            TopologyError::ZeroTiming("heartbeat_cycles"),
        ),
        (
            "slots_per_cycle",
            || short().slots_per_cycle(1).try_build(),
            knob(
                "rtlink.slots_per_cycle",
                "needs the sync slot plus a data slot",
            ),
        ),
        (
            "extra_loss",
            || short().extra_loss(1.5).try_build(),
            knob("extra_loss", "out of [0, 1]"),
        ),
        (
            "sensor_noise",
            || short().sensor_noise(-0.1).try_build(),
            knob("sensor_noise_std", "must be finite and non-negative"),
        ),
        (
            "detect_threshold",
            || short().detection(f64::NAN, 3).try_build(),
            knob("detect_threshold", "must be non-negative"),
        ),
        (
            "detect_consecutive",
            || short().detection(5.0, 0).try_build(),
            knob("detect_consecutive", "must be at least 1"),
        ),
        (
            "cold standby lane",
            || short().cold_backup().try_build(),
            TopologyError::ColdStandbyWithoutTransferLane,
        ),
        (
            "crash target",
            || {
                short()
                    .vcs(2)
                    .crash_vc_primary_at(2, SimTime::from_secs(1))
                    .try_build()
            },
            TopologyError::CrashOnUnhostedVc {
                vc: 2,
                at: SimTime::from_secs(1),
                hosted: 2,
            },
        ),
        (
            "crashed node",
            || {
                short()
                    .crash_node_at(NodeId(99), SimTime::from_secs(1))
                    .try_build()
            },
            TopologyError::FaultOnMissingNode {
                node: NodeId(99),
                at: SimTime::from_secs(1),
            },
        ),
        (
            "blacked-out node",
            || {
                edited(|s| {
                    s.fault_plan.add_blackout(LinkBlackout::new(
                        NodeId(1),
                        NodeId(77),
                        SimTime::from_millis(500),
                        SimTime::from_secs(1),
                    ));
                })
            },
            TopologyError::FaultOnMissingNode {
                node: NodeId(77),
                at: SimTime::from_millis(500),
            },
        ),
        // Layouts.
        (
            "vc count",
            || short().vcs(9).try_build(),
            shape(star, 9, "vc count out of range"),
        ),
        (
            "single-VC line",
            || short().line(2).vcs(2).try_build(),
            shape(Layout::Line { hops: 2 }, 2, "line layouts host a single VC"),
        ),
        (
            "single-VC grid",
            || short().grid(3, 3).vcs(2).try_build(),
            shape(
                Layout::Grid { w: 3, h: 3 },
                2,
                "grid layouts host a single VC",
            ),
        ),
        (
            "ring radius",
            || short().radius_m(f64::NAN).try_build(),
            shape(star, 1, "the ring radius must be finite"),
        ),
        (
            "backup relays",
            || short().backup_relays(1).try_build(),
            shape(star, 1, "backup relays need a line or clustered layout"),
        ),
        (
            "hops",
            || short().line(0).try_build(),
            shape(Layout::Line { hops: 0 }, 1, "a line needs at least one hop"),
        ),
        (
            "lattice",
            || short().grid(2, 2).try_build(),
            shape(
                Layout::Grid { w: 2, h: 2 },
                1,
                "the lattice cannot seat every role",
            ),
        ),
        // The spec and the loop registers.
        (
            "node position",
            || edited(|s| s.topology.nodes[2].position = Position::new(0.0, f64::INFINITY)),
            TopologyError::NonFinitePosition(NodeId(2)),
        ),
        // Two repeated ids (2 at index 3, 1 at index 5): the first repeat
        // in spec order is reported, not the smallest id.
        (
            "node ids",
            || {
                edited(|s| {
                    s.topology.nodes[3].id = NodeId(2);
                    s.topology.nodes[5].id = NodeId(1);
                })
            },
            TopologyError::DuplicateNodeId(NodeId(2)),
        ),
        // Two repeated labels ("S1" at index 4, "Ctrl-A" at index 5):
        // the first repeat in spec order, not the first in sort order.
        (
            "labels",
            || {
                edited(|s| {
                    s.topology.nodes[4].label = "S1".into();
                    s.topology.nodes[5].label = "Ctrl-A".into();
                })
            },
            TopologyError::DuplicateLabel("S1".into()),
        ),
        (
            "focus sensor",
            || short().sensors(0).try_build(),
            TopologyError::MissingFocusSensor(0),
        ),
        (
            "controller",
            || short().controllers(0).try_build(),
            TopologyError::MissingController(0),
        ),
        (
            "actuators",
            || short().actuators(2).try_build(),
            TopologyError::MultipleActuators(0),
        ),
        (
            "focus register",
            || edited(|s| s.topology.nodes[1].register = Some(30002)),
            register("the focus sensor must read the loop's PV register"),
        ),
        (
            "PV register",
            || edited(|s| s.focus_loop.pv_tag = "Nowhere.Level".into()),
            register("the loop's PV tag has no plant input register"),
        ),
        (
            "OP register",
            || edited(|s| s.focus_loop.op_tag = "Nowhere.Valve".into()),
            register("the loop's OP tag has no plant holding register"),
        ),
        // Series names: two VCs hosting loops of one name would keep two
        // `Err.<loop>` traces of one name, and a sampled tag spelled like
        // a trace would collide with it.
        (
            "loop names",
            || {
                let mut s = short().vcs(2).build();
                s.extra_vc_loops[0].name = s.focus_loop.name.clone();
                Ok(s)
            },
            TopologyError::DuplicateSeriesName("Err.LC-LTS".into()),
        ),
        (
            "sampled mode tag",
            || edited(|s| s.sampled_tags.push("Mode.Ctrl-B".into())),
            TopologyError::DuplicateSeriesName("Mode.Ctrl-B".into()),
        ),
        (
            "sampled error tag",
            || {
                let mut s = short().vcs(2).build();
                let tag = format!("Err.{}", s.extra_vc_loops[0].name);
                s.sampled_tags.push(tag);
                Ok(s)
            },
            TopologyError::DuplicateSeriesName("Err.LC-InletSep".into()),
        ),
    ];
    for (i, (name, make, want)) in rows.iter().enumerate() {
        let got = make().and_then(|s| check_setup(&s).map(|_| s));
        assert_eq!(got.err().as_ref(), Some(want), "{name}");
        for (other, _, theirs) in &rows[..i] {
            assert_ne!(want, theirs, "{name} and {other} share an error");
        }
    }
}

/// Every builder-made layout names each of its series once, so the
/// setup check passes it: fleets suffix their loop names (`LC-LTS#1`, …)
/// past the first eight VCs, so no two VCs share an `Err.<loop>` trace.
#[test]
fn builder_scenarios_name_every_series_once() {
    let roomy = || short().slots_per_cycle(96);
    let builders = [
        short(),
        roomy().vcs(8),
        roomy().line(3),
        roomy().grid(3, 3),
        roomy().clustered(3),
        roomy().line(2).backup_relays(1),
        short().fleet(8),
        short().fleet(300),
    ];
    for b in builders {
        let s = b.build();
        check_setup(&s).unwrap_or_else(|e| panic!("{} VCs: {e}", s.n_vcs()));
    }
    let mut s = short().fleet(64).build();
    s.duration = s.rtlink.cycle_duration();
    let r = Engine::new(s).run();
    let errs = r
        .series
        .iter()
        .filter(|t| t.name().starts_with("Err."))
        .count();
    assert_eq!(errs, 64, "one error trace per VC");
    assert!(r.series.get("Err.LC-LTS#1").is_some());
}

/// A draw from `lo..=hi`.
fn draw(rng: &mut SimRng, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo + 1)
}

/// A draw from `lo..=hi`, but one time in eight from `bad` instead.
fn mostly(rng: &mut SimRng, lo: usize, hi: usize, bad: (usize, usize)) -> usize {
    if rng.chance(0.125) {
        draw(rng, bad.0, bad.1)
    } else {
        draw(rng, lo, hi)
    }
}

/// A float knob from `lo..hi` (which may reach past its rule), or one
/// time in ten NaN or infinite.
fn float_knob(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    match rng.index(20) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => rng.range(lo, hi),
    }
}

/// One random builder over the knob ranges, invalid values included:
/// VC counts 0–10, role counts 0–3, every layout at degenerate sizes,
/// 0–40 slots per cycle, out-of-range and NaN loss, noise and detection,
/// and crashes on VCs 0–9.
fn random_builder(rng: &mut SimRng) -> ScenarioBuilder {
    let mut b = short()
        .seed(rng.index(1 << 16) as u64)
        .sensors(mostly(rng, 1, 3, (0, 0)))
        .controllers(mostly(rng, 1, 3, (0, 0)))
        .actuators(mostly(rng, 0, 1, (2, 3)))
        .head(rng.chance(0.5));
    b = match rng.index(4) {
        0 => b.vcs(mostly(rng, 1, 3, (0, 10))),
        1 => b.line(mostly(rng, 1, 3, (0, 0))),
        2 => b.grid(draw(rng, 0, 5), draw(rng, 0, 5)),
        _ => b.clustered(mostly(rng, 1, 3, (0, 10))),
    };
    if rng.chance(0.1) {
        b = b.vcs(draw(rng, 0, 3));
    }
    if rng.chance(0.1) {
        b = b.backup_relays(1);
    }
    if rng.chance(0.3) {
        b = b.slots_per_cycle(draw(rng, 0, 40));
    }
    if rng.chance(0.3) {
        b = b.extra_loss(float_knob(rng, -0.5, 1.5));
    }
    if rng.chance(0.2) {
        b = b.sensor_noise(float_knob(rng, -1.0, 2.0));
    }
    if rng.chance(0.2) {
        b = b.detection(float_knob(rng, -2.0, 8.0), draw(rng, 0, 4) as u32);
    }
    for _ in 0..draw(rng, 0, 2) {
        let at = SimTime::ZERO + SimDuration::from_millis(draw(rng, 0, 2000) as u64);
        b = b.crash_vc_primary_at(mostly(rng, 0, 2, (3, 9)) as u16, at);
    }
    b
}

/// A seeded fuzz over the builder's knob ranges: no scenario, however
/// malformed, panics on the way through `try_build`, engine setup and a
/// two-second run; and engine setup rejects exactly what `check_setup`
/// rejects, with the same error.
#[test]
fn builder_fuzz_never_panics() {
    const CASES: usize = 1000;
    let mut rng = SimRng::seed_from(0xF022);
    let (mut panics, mut built, mut ran) = (0, 0, 0);
    for case in 0..CASES {
        let b = random_builder(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let s = b.try_build().ok()?;
            let checked = check_setup(&s).err();
            let engine = Engine::try_new(s);
            let setup = engine.as_ref().err().cloned();
            if let Ok(mut engine) = engine {
                engine.run_until(SimTime::from_secs(2));
            }
            Some((checked, setup))
        }));
        match outcome {
            Err(_) => panics += 1,
            Ok(None) => {}
            Ok(Some((checked, setup))) => {
                built += 1;
                ran += usize::from(setup.is_none());
                assert_eq!(
                    checked, setup,
                    "case {case}: check_setup and setup disagree"
                );
            }
        }
    }
    assert_eq!(panics, 0, "{panics} of {CASES} cases panicked");
    // The fuzz reaches every stage: rejected builds, rejected setups and
    // runs.
    assert!(built > CASES / 4 && built < CASES, "{built} built");
    assert!(ran > CASES / 10 && ran < built, "{ran} of {built} ran");
}
