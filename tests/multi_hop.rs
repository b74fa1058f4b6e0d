//! Cross-crate integration: multi-hop topologies (line / grid /
//! clustered) closing control loops over relay flows.
//!
//! The multi-hop runtime's core claims, pinned here:
//!
//! 1. flow routing over a 2-hop line and a 2×3 grid is **byte-stable**
//!    (golden physical flow lists, including forwarding jobs),
//! 2. the `sensor—relay—gateway—controller—actuator` line regulates the
//!    plant with zero steady-state error, and fails over through its
//!    relay hops when the primary misbehaves,
//! 3. losing the relay starves the loop but is **not** mistaken for a
//!    controller fault (no spurious failover, no fail-safe),
//! 4. a clustered 2-VC deployment's spatially-reused schedule is strictly
//!    shorter than its serialized equivalent while producing
//!    byte-identical plant traces,
//! 5. the sweep pipeline stays thread-count-independent over the
//!    `over_topology` axis.

use evm::core::runtime::{
    route_flows, synth_flows, Engine, FlowKind, Layout, RelayJob, Scenario, ScenarioBuilder,
    TopologySpec,
};
use evm::netsim::{Channel, ChannelConfig, NodeId};
use evm::plant::ActuatorFault;
use evm::prelude::*;
use evm::sim::SimRng;
use evm::sweep::{available_threads, run_cells, StarShape, SweepGrid, SweepReport};

type FlowTuple = (u16, u16, Vec<u16>, FlowKind, Option<usize>);

fn routed_tuples(spec: &TopologySpec) -> (Vec<FlowTuple>, Vec<(u16, Vec<RelayJob>)>) {
    let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(1));
    let (topo, map) = spec
        .clone()
        .try_into_resolved(&mut ch)
        .expect("spec resolves");
    let routed = route_flows(&topo, &synth_flows(&map)).expect("routable");
    let flows = routed
        .flows
        .iter()
        .map(|(f, k)| {
            (
                f.src.raw(),
                f.dst.raw(),
                f.extra_listeners.iter().map(|n| n.raw()).collect(),
                *k,
                f.after,
            )
        })
        .collect();
    let jobs = routed
        .jobs
        .into_iter()
        .map(|(id, js)| (id.raw(), js))
        .collect();
    (flows, jobs)
}

fn job(upstream: u16, origin: u16, kind: FlowKind) -> RelayJob {
    RelayJob {
        upstream: NodeId(upstream),
        origin: NodeId(origin),
        kind,
    }
}

/// Golden routed flow list for the 2-hop line
/// (`S1—R1—GW—Ctrl-A—A1`, ids GW=0, S1=1, Ctrl-A=2, A1=3, R1=4): the
/// four logical flows expand into exactly eight physical hops, strictly
/// after-chained, with forwarding jobs on R1 (both directions), the
/// gateway (publish toward the pod) and Ctrl-A (actuation forward back).
#[test]
fn golden_routed_flows_for_the_two_hop_line() {
    let spec = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(1)
        .head(false)
        .build()
        .topology;
    let (flows, jobs) = routed_tuples(&spec);
    let dl = FlowKind::HilDownlink { vc: 0, tag: 0 };
    let pb = FlowKind::SensorPublish { vc: 0, tag: 0 };
    let out = FlowKind::ControlPublish { vc: 0 };
    let fwd = FlowKind::ActuateForward { vc: 0 };
    let relay = |job: u8| FlowKind::Relay { vc: 0, job };
    let expected: Vec<FlowTuple> = vec![
        // HIL downlink: GW -> R1 -> S1.
        (0, 4, vec![], dl, None),
        (4, 1, vec![], relay(0), Some(0)),
        // PV publish: S1 -> R1 -> GW -> Ctrl-A.
        (1, 4, vec![], pb, Some(1)),
        (4, 0, vec![], relay(1), Some(2)),
        (0, 2, vec![], relay(0), Some(3)),
        // Controller output: one hop to the actuator.
        (2, 3, vec![], out, Some(4)),
        // Actuation forward: A1 -> Ctrl-A -> GW.
        (3, 2, vec![], fwd, Some(5)),
        (2, 0, vec![], relay(0), Some(6)),
    ];
    assert_eq!(flows, expected);
    assert_eq!(
        jobs,
        vec![
            (0, vec![job(4, 1, pb)]),
            (2, vec![job(3, 3, fwd)]),
            (4, vec![job(0, 0, dl), job(1, 1, pb)]),
        ]
    );
}

/// Golden routed flow list for the 2×3 grid (ids GW=0, S1=1, Ctrl-A=2,
/// Ctrl-B=3, A1=4, R1=5; gateway and sensor in opposite corners).
/// Routes run through whatever node is closest — here the role nodes
/// themselves forward (the dedicated relay R1 sits off the chosen
/// shortest paths), and Ctrl-B, unreachable from Ctrl-A in one hop,
/// receives the primary's output through a forwarding hop on A1: the
/// multicast-chain extension that keeps deviation detection alive on
/// sparse topologies.
#[test]
fn golden_routed_flows_for_the_two_by_three_grid() {
    let spec = ScenarioBuilder::star()
        .grid(2, 3)
        .sensors(1)
        .head(false)
        .build()
        .topology;
    let (flows, jobs) = routed_tuples(&spec);
    let dl = FlowKind::HilDownlink { vc: 0, tag: 0 };
    let pb = FlowKind::SensorPublish { vc: 0, tag: 0 };
    let out = FlowKind::ControlPublish { vc: 0 };
    let fwd = FlowKind::ActuateForward { vc: 0 };
    let relay = |job: u8| FlowKind::Relay { vc: 0, job };
    let expected: Vec<FlowTuple> = vec![
        // HIL downlink: GW -> Ctrl-A -> A1 -> S1.
        (0, 2, vec![], dl, None),
        (2, 4, vec![], relay(0), Some(0)),
        (4, 1, vec![], relay(0), Some(1)),
        // PV publish: S1 -> A1 -> Ctrl-A, the backup attached to the
        // A1 hop (it can hear A1 but not S1).
        (1, 4, vec![], pb, Some(2)),
        (4, 2, vec![3], relay(1), Some(3)),
        // Primary output: to the actuator, then forwarded on to Ctrl-B.
        (2, 4, vec![], out, Some(4)),
        (4, 3, vec![], relay(2), Some(5)),
        // Backup output: one hop to the actuator.
        (3, 4, vec![], out, Some(6)),
        // Actuation forward: A1 -> Ctrl-A -> GW.
        (4, 2, vec![], fwd, Some(7)),
        (2, 0, vec![], relay(1), Some(8)),
    ];
    assert_eq!(flows, expected);
    assert_eq!(
        jobs,
        vec![
            (2, vec![job(0, 0, dl), job(4, 4, fwd)]),
            (4, vec![job(2, 0, dl), job(1, 1, pb), job(2, 2, out)]),
        ]
    );
}

fn line_scenario() -> ScenarioBuilder {
    ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
}

/// The acceptance chain: a 2-hop line
/// (sensor—relay—gateway—controller—actuator) closes the LTS loop
/// through store-and-forward hops and holds the setpoint with zero
/// steady-state error, full actuation rate and no deadline misses.
#[test]
fn two_hop_line_regulates_with_zero_steady_state_error() {
    let s = line_scenario()
        .duration(SimDuration::from_secs(600))
        .build();
    let engine = Engine::new(s);
    // The multi-hop is real: sensor and gateway are out of radio range.
    assert!(!engine.topology().are_neighbors(NodeId(0), NodeId(1)));
    assert_eq!(engine.topology().hops(NodeId(0), NodeId(1)), Some(2));
    assert!(engine.schedule().is_interference_free(engine.topology()));
    assert!(engine.schedule().max_slot().unwrap() < 25);

    let r = engine.run();
    assert_eq!(r.actuations, 2400, "one actuation per 250 ms cycle");
    assert_eq!(r.deadline_misses, 0);
    let err = r.series("Err.LC-LTS").last_value().unwrap();
    assert_eq!(err, 0.0, "steady-state error must be exactly zero");
    let pv = r.series("LTS.LiquidPct").last_value().unwrap();
    assert_eq!(pv, 50.0);
}

/// The paper's controller fault on the line's primary: deviation
/// detection, the head's alert plane and the reconfiguration broadcast
/// all work across relayed flows, and the plant recovers to its
/// setpoint under the promoted backup.
#[test]
fn line_failover_crosses_relay_hops() {
    let s = line_scenario()
        .fault_at(SimTime::from_secs(60), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(400))
        .build();
    let r = Engine::new(s).run();
    let detected = r.event_time("confirmed deviation").expect("detection");
    let promoted = r.event_time("Ctrl-B -> Active").expect("failover");
    assert!(
        detected > SimTime::from_secs(60) && detected < SimTime::from_secs(61),
        "deviation confirmed at {detected}"
    );
    assert!(
        promoted < SimTime::from_secs(61),
        "failover committed at {promoted}"
    );
    // The promoted backup regulates the plant back to the setpoint.
    let pv = r.series("LTS.LiquidPct").last_value().unwrap();
    assert!((pv - 50.0).abs() < 0.2, "recovered PV {pv}");
    assert!(r.event_time("fail-safe").is_none());
}

/// Relay loss starves the loop without spurious failover: the PV stream
/// dies with R1, actuations freeze at the pre-crash count, but the
/// starved primary's keepalives keep the heartbeat monitors quiet — a
/// dead relay must not be diagnosed as a controller fault.
#[test]
fn relay_loss_starves_the_loop_without_spurious_failover() {
    // R1 is the last node of the line spec (GW, S1, Ctrl-A, Ctrl-B, A1,
    // Head, R1).
    let crash = line_scenario()
        .crash_node_at(NodeId(6), SimTime::from_secs(10))
        .duration(SimDuration::from_secs(300))
        .build();
    assert_eq!(crash.topology.nodes[6].label, "R1");
    let r = Engine::new(crash).run();
    let baseline = Engine::new(
        line_scenario()
            .duration(SimDuration::from_secs(300))
            .build(),
    )
    .run();

    // 4 actuations per second until the crash, then silence.
    assert_eq!(r.actuations, 40, "actuations freeze with the relay");
    assert_eq!(baseline.actuations, 1200);
    // ...but no failover machinery fires: keepalives still flow.
    let trace = r.trace.render();
    assert!(!trace.contains("-> Active"), "no spurious promotion");
    assert!(!trace.contains("heartbeat timeout"));
    assert!(!trace.contains("fail-safe"));
}

/// The recovering twin of the starvation pin above: same crash, but the
/// topology carries a backup relay chain and the scenario opts into
/// `ReroutePolicy::Heartbeat`. The dead forwarder is detected by missed
/// relay heartbeats, routes re-run over the survivors, and delivery
/// resumes within a bounded number of cycles — while the static policy
/// on the *same* redundant topology still starves, isolating the reroute
/// policy as the only variable.
#[test]
fn relay_loss_recovers_under_heartbeat_reroute_policy() {
    use evm::core::runtime::ReroutePolicy;
    // R1 = node 6, RB1 = node 7 with one backup chain.
    let build = |policy: ReroutePolicy| {
        line_scenario()
            .backup_relays(1)
            .reroute(policy)
            .crash_node_at(NodeId(6), SimTime::from_secs(10))
            .duration(SimDuration::from_secs(300))
            .build()
    };
    let s = build(ReroutePolicy::Heartbeat);
    assert_eq!(s.topology.nodes[6].label, "R1");
    assert_eq!(s.topology.nodes[7].label, "RB1");
    let cycle = s.rtlink.cycle_duration();
    let bound = cycle * (s.heartbeat_cycles + 5);

    let rerouted = Engine::new(s).run();
    let starved = Engine::new(build(ReroutePolicy::Static)).run();

    // Static on the redundant topology: frozen at the pre-crash count.
    assert_eq!(starved.actuations, 40);
    assert_eq!(starved.epochs, 0);
    // Heartbeat: detection + one recomputed epoch, bounded recovery.
    assert_eq!(rerouted.epochs, 1);
    let down = rerouted.event_time("R1 missed heartbeats").expect("detect");
    assert!(
        down.saturating_since(SimTime::from_secs(10)) <= bound,
        "detection at {down}"
    );
    let reroute = rerouted.reroute_latency.expect("delivery resumed");
    assert!(reroute <= cycle * 3, "recovery {reroute} after detection");
    // The loop re-regulates through RB1 for the rest of the horizon.
    assert!(rerouted.actuations > 1000, "{}", rerouted.actuations);
    let err = rerouted.series("Err.LC-LTS").last_value().unwrap();
    assert!(err.abs() < 0.2, "steady-state error {err}");
    // Still no spurious failover: a dead relay is a routing problem, not
    // a controller fault.
    let trace = rerouted.trace.render();
    assert!(!trace.contains("-> Active"), "no spurious promotion");
    assert!(!trace.contains("fail-safe"));
}

fn clustered_scenario(serial: bool) -> Scenario {
    let mut s = ScenarioBuilder::star()
        .clustered(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .slots_per_cycle(33)
        .serial_schedule(serial)
        .duration(SimDuration::from_secs(300))
        .build();
    // One plant step per RT-Link cycle: intra-cycle slot positions are
    // invisible to the plant, which is what makes the reused and
    // serialized schedules byte-comparable.
    s.plant_dt = s.rtlink.cycle_duration();
    s
}

/// The spatial-reuse acceptance pin: a clustered 2-VC deployment's
/// schedule reuses intra-cluster slots across clusters (strictly fewer
/// slots than the serialized equivalent) while both runs produce
/// byte-identical plant traces — slot packing changes the radio
/// timetable, never the physics.
#[test]
fn clustered_spatial_reuse_beats_serialized_with_identical_plant_traces() {
    let reuse = Engine::new(clustered_scenario(false));
    let serial = Engine::new(clustered_scenario(true));
    let reuse_slots = reuse.schedule().max_slot().unwrap();
    let serial_slots = serial.schedule().max_slot().unwrap();
    assert!(reuse.schedule().is_interference_free(reuse.topology()));
    assert!(
        reuse_slots < serial_slots,
        "spatial reuse must shorten the cycle: {reuse_slots} !< {serial_slots}"
    );
    // Pinned: 26 physical flows serialize to 26 slots; reuse packs the
    // two clusters' chains into 16.
    assert_eq!(serial_slots, 26);
    assert_eq!(reuse_slots, 16);

    let r_reuse = reuse.run();
    let r_serial = serial.run();
    for tag in [
        "LTS.LiquidPct",
        "InletSep.LevelPct",
        "Err.LC-LTS",
        "Err.LC-InletSep",
    ] {
        assert_eq!(
            r_reuse.series(tag).samples(),
            r_serial.series(tag).samples(),
            "{tag} must be byte-identical across schedule placements"
        );
    }
    assert_eq!(r_reuse.actuations, r_serial.actuations);
    // Both hosted loops actually regulate over their 3-hop relay chains.
    for vs in &r_reuse.vc_stats {
        assert!(vs.actuations > 400, "{} starved", vs.loop_name);
    }
}

/// Failover still works three hops out: crash a clustered VC's primary
/// and the head's reconfiguration (relayed along the cluster chain where
/// needed) promotes the backup.
#[test]
fn clustered_failover_crosses_the_relay_chain() {
    let s = ScenarioBuilder::star()
        .clustered(1)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .slots_per_cycle(33)
        .crash_vc_primary_at(0, SimTime::from_secs(60))
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(200))
        .build();
    let r = Engine::new(s).run();
    let promoted = r.event_time("Ctrl-B -> Active").expect("failover");
    assert!(
        promoted > SimTime::from_secs(60) && promoted < SimTime::from_secs(70),
        "failover at {promoted}"
    );
    let pv = r.series("LTS.LiquidPct").last_value().unwrap();
    assert!((pv - 50.0).abs() < 0.5, "PV after failover {pv}");
}

/// `tests/sweep_determinism.rs`-style cross-thread byte identity over
/// the `over_topology` axis: expansion, execution, aggregation and every
/// rendered report (including the topology CSV) are identical at 1 and
/// N threads.
#[test]
fn over_topology_sweep_is_byte_identical_across_thread_counts() {
    let template = Scenario::builder()
        .fault_at(SimTime::from_secs(8), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(30))
        .build();
    let grid = SweepGrid::new(template)
        .over_topology(&[
            Layout::Star,
            Layout::Line { hops: 2 },
            Layout::Grid { w: 2, h: 3 },
            Layout::Clustered,
        ])
        .over_stars(&[StarShape {
            sensors: 1,
            controllers: 2,
            actuators: 1,
            head: true,
        }])
        .seeds_per_cell(2)
        .base_seed(77);
    let cells = grid.expand();
    assert_eq!(cells.len(), 8);
    // Multi-hop cells really are multi-hop (relay kinds scheduled).
    assert!(cells[2]
        .scenario
        .topology
        .nodes
        .iter()
        .any(|n| n.label == "R1"));

    let n = available_threads().max(4);
    let serial = run_cells(&cells, 1);
    let parallel = run_cells(&cells, n);
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "cell {i} differs between 1 and {n} threads");
    }
    let report_1 = SweepReport::build(&cells, &serial);
    let report_n = SweepReport::build(&cells, &parallel);
    assert_eq!(report_1.to_csv(), report_n.to_csv());
    assert_eq!(report_1.cells_csv(), report_n.cells_csv());
    assert_eq!(report_1.vcs_csv(), report_n.vcs_csv());
    assert_eq!(report_1.topology_csv(), report_n.topology_csv());
    assert_eq!(report_1.to_markdown(), report_n.to_markdown());
    // One topology row per config point, labeled by layout family.
    let topo_csv = report_1.topology_csv();
    assert_eq!(topo_csv.lines().count(), 1 + 4);
    assert!(topo_csv.contains(",star,"));
    assert!(topo_csv.contains(",line2,"));
    assert!(topo_csv.contains(",grid2x3,"));
    assert!(topo_csv.contains(",clustered,"));
}
