//! Cross-crate integration: the epoch-based reconfiguration plane.
//!
//! Pins the tentpole claims of the runtime reconfiguration refactor:
//!
//! 1. **Epoch atomicity** — reconfigurations commit only at RT-Link cycle
//!    boundaries (a mid-cycle request waits for the boundary), so no
//!    cycle ever mixes two epochs' timetables.
//! 2. **No-op identity** — a forced reconfiguration when nothing died
//!    recomputes the identical program: plant series, QoS counters and
//!    energy accounting are byte-identical to the static run.
//! 3. **Dead-forwarder recovery** — under `ReroutePolicy::Heartbeat`, a
//!    crashed relay is detected by heartbeat silence, routes re-run over
//!    the surviving topology (through the backup chain) and end-to-end
//!    delivery resumes within a bounded number of cycles.
//! 4. **Head re-election** — a crashed head is replaced by a surviving
//!    backup (deterministic election), and the rehydrated control plane
//!    completes a subsequent deviation failover.

use evm::core::runtime::{Engine, ReroutePolicy, Scenario, ScenarioBuilder};
use evm::netsim::{ChannelConfig, GilbertElliott, NodeId};
use evm::plant::ActuatorFault;
use evm::prelude::*;

/// The 2-hop line with one redundant relay chain. Node ids: GW=0, S1=1,
/// Ctrl-A=2, Ctrl-B=3, A1=4, Head=5, R1=6, RB1=7.
fn line_with_backup() -> ScenarioBuilder {
    ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .backup_relays(1)
}

const R1: NodeId = NodeId(6);

/// A forced reconfiguration with nothing down is a *no-op*: the
/// recomputed epoch reproduces the setup-time program exactly, so the
/// swapped run is indistinguishable from the static run in every
/// physical observable — series, actuations, latencies, energy — and
/// differs only in its trace, which records the epoch commit.
///
/// Checked over three channels: the default ideal one; an unshadowed
/// bursty one, whose budgeted deliveries draw from per-link
/// Gilbert–Elliott state that the epoch's plan rebuild must neither
/// reset nor reorder; and the shadowed industrial preset, whose links
/// sample through the lazy unbudgeted path.
#[test]
fn noop_reconfiguration_is_byte_identical_to_the_static_run() {
    let bursty = ChannelConfig {
        burst: GilbertElliott::new(0.05, 0.2, 0.0, 0.8),
        ..ChannelConfig::default()
    };
    let mut ideal_actuations = None;
    for (name, channel) in [
        ("ideal", ChannelConfig::default()),
        ("bursty", bursty),
        ("industrial", ChannelConfig::industrial()),
    ] {
        let base = line_with_backup().duration(SimDuration::from_secs(120));
        let with_channel = |b: ScenarioBuilder| {
            let mut s = b.build();
            s.channel = channel.clone();
            s
        };
        let plain = Engine::new(with_channel(base.clone())).run();
        // Mid-cycle request: 40.1 s is inside a 250 ms cycle.
        let forced = Engine::new(with_channel(
            base.force_reconfig_at(SimTime::from_secs_f64(40.1)),
        ))
        .run();

        assert_eq!(forced.epochs, 1, "{name}: the forced epoch committed");
        assert_eq!(plain.epochs, 0, "{name}");
        assert_eq!(
            forced.series, plain.series,
            "{name}: plant series identical"
        );
        assert_eq!(forced.actuations, plain.actuations, "{name}");
        assert_eq!(forced.deadline_misses, plain.deadline_misses, "{name}");
        assert_eq!(forced.e2e_latencies, plain.e2e_latencies, "{name}");
        assert_eq!(forced.node_energy, plain.node_energy, "{name}");
        assert_eq!(forced.vc_stats, plain.vc_stats, "{name}");
        assert_eq!(
            forced.reroute_latency, None,
            "{name}: nothing was marked down"
        );
        // A lossy channel must actually have lost frames, or its burst
        // state was never exercised: fewer loop closures than ideal.
        match ideal_actuations {
            None => ideal_actuations = Some(plain.actuations),
            Some(ideal) => assert!(
                plain.actuations < ideal,
                "{name}: the channel must lose frames ({} vs {ideal} actuations)",
                plain.actuations
            ),
        }
    }
}

/// Epoch swaps never tear a cycle: the commit of a mid-cycle request
/// lands exactly on the next cycle boundary.
#[test]
fn epoch_commits_land_on_cycle_boundaries() {
    let s = line_with_backup()
        .force_reconfig_at(SimTime::from_secs_f64(40.1))
        .duration(SimDuration::from_secs(60))
        .build();
    let cycle = s.rtlink.cycle_duration();
    let r = Engine::new(s).run();
    let staged = r.event_time("epoch 1 staged").expect("staged");
    let committed = r.event_time("epoch 1 committed").expect("committed");
    assert_eq!(
        committed.floor_to(cycle),
        committed,
        "commit at {committed} is not a cycle boundary"
    );
    assert!(committed > staged, "staging precedes the commit");
    assert!(
        committed.saturating_since(staged) <= cycle,
        "the swap waits at most one cycle"
    );
}

/// The heartbeat policy itself is physically neutral while nothing dies:
/// keepalive frames change radio occupancy, never the plant.
#[test]
fn heartbeat_policy_without_failures_leaves_the_physics_unchanged() {
    let base = line_with_backup().duration(SimDuration::from_secs(120));
    let statics = Engine::new(base.clone().build()).run();
    let heartbeat = Engine::new(base.reroute(ReroutePolicy::Heartbeat).build()).run();
    assert_eq!(heartbeat.series, statics.series);
    assert_eq!(heartbeat.actuations, statics.actuations);
    assert_eq!(heartbeat.epochs, 0, "nothing died: no reconfiguration");
}

/// The acceptance chain for trigger (1): kill the only primary-path
/// relay; heartbeat silence marks it down, the epoch recomputes over the
/// surviving topology and the loop resumes through the backup chain —
/// within a bounded number of cycles — then re-regulates to setpoint.
#[test]
fn dead_forwarder_is_rerouted_around_and_the_loop_recovers() {
    let crash_at = SimTime::from_secs(30);
    let s = line_with_backup()
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(R1, crash_at)
        .duration(SimDuration::from_secs(300))
        .build();
    assert_eq!(s.topology.nodes[6].label, "R1");
    assert_eq!(s.topology.nodes[7].label, "RB1");
    let cycle = s.rtlink.cycle_duration();
    let heartbeat_cycles = s.heartbeat_cycles;
    let r = Engine::new(s).run();

    // Detection, recompute, commit — all traced.
    let down = r.event_time("R1 missed heartbeats").expect("detection");
    let committed = r.event_time("epoch 1 committed").expect("commit");
    assert_eq!(r.epochs, 1);
    // Bounded reroute latency: silence threshold plus detection jitter
    // (the silence check runs once per cycle) plus the boundary swap.
    let bound = cycle * (heartbeat_cycles + 3);
    assert!(
        down.saturating_since(crash_at) <= bound,
        "detected {} after the crash",
        down.saturating_since(crash_at)
    );
    assert!(committed.saturating_since(down) <= cycle * 2);
    let reroute = r.reroute_latency.expect("delivery resumed");
    assert!(
        reroute <= cycle * 3,
        "first delivery {reroute} after detection"
    );

    // The loop actually recovers: deliveries resume (well beyond the
    // starved count) and the PV re-regulates to setpoint.
    assert!(
        r.actuations > 1000,
        "only {} actuations: loop did not resume",
        r.actuations
    );
    let err = r.series("Err.LC-LTS").last_value().unwrap();
    assert!(err.abs() < 0.2, "steady-state error {err} after reroute");
    // And the recovery is a reroute, not a spurious failover.
    assert!(r.event_time("-> Active").is_none(), "no promotion");
    assert!(r.event_time("fail-safe").is_none());
}

/// The same crash under the static default starves forever — the paired
/// twin isolating the policy as the only variable.
#[test]
fn dead_forwarder_under_static_policy_starves_forever() {
    let s = line_with_backup()
        .crash_node_at(R1, SimTime::from_secs(30))
        .duration(SimDuration::from_secs(300))
        .build();
    let r = Engine::new(s).run();
    assert_eq!(r.epochs, 0);
    assert_eq!(r.actuations, 120, "4 Hz until the crash, then silence");
}

/// Trigger (2): kill the head. Heartbeat silence re-elects the lowest-id
/// surviving backup, rehydrates the control plane on it, and a
/// *subsequent* deviation fault on the primary still completes the full
/// detect → arbitrate → commit failover through the new head.
#[test]
fn head_crash_reelects_and_subsequent_deviation_failover_completes() {
    // Three replicas so a backup remains after one becomes head:
    // GW=0, S1=1, Ctrl-A=2, Ctrl-B=3, Ctrl-C=4, A1=5, Head=6, R1=7, RB1=8.
    let s = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(NodeId(6), SimTime::from_secs(30))
        .fault_at(SimTime::from_secs(120), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(300))
        .build();
    assert_eq!(s.topology.nodes[6].label, "Head");
    let r = Engine::new(s).run();

    // Re-election: the dead head is detected and Ctrl-B (lowest-id
    // surviving backup) takes over the control plane.
    let down = r.event_time("Head missed heartbeats").expect("detection");
    assert!(down > SimTime::from_secs(30) && down < SimTime::from_secs(40));
    let reelected = r
        .event_time("head Head lost; Ctrl-B re-elected head")
        .expect("re-election");
    assert!(reelected < SimTime::from_secs(40));
    assert!(
        r.epochs >= 1,
        "control-plane flows re-routed to the new head"
    );

    // The rehydrated control plane still runs the paper's failover: the
    // stuck primary is detected by deviation and Ctrl-C promotes.
    let detected = r.event_time("confirmed deviation").expect("detection");
    assert!(detected > SimTime::from_secs(120));
    let promoted = r.event_time("Ctrl-C -> Active").expect("failover");
    assert!(
        promoted > SimTime::from_secs(120) && promoted < SimTime::from_secs(125),
        "failover at {promoted}"
    );
    assert!(r.event_time("fail-safe").is_none());
    // The promoted replica re-regulates the plant.
    let pv = r.series("LTS.LiquidPct").last_value().unwrap();
    assert!((pv - 50.0).abs() < 0.5, "recovered PV {pv}");
}

/// Killing the head under the static default leaves the control plane
/// dead: the later primary fault is detected by the backups but no head
/// exists to arbitrate, so no failover ever commits.
#[test]
fn head_crash_under_static_policy_kills_the_control_plane() {
    let s = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .crash_node_at(NodeId(6), SimTime::from_secs(30))
        .fault_at(SimTime::from_secs(120), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(300))
        .build();
    let r = Engine::new(s).run();
    assert_eq!(r.epochs, 0);
    assert!(r.event_time("re-elected head").is_none());
    assert!(r.event_time("-> Active").is_none(), "no one can promote");
}

/// The no-op swap preserves in-flight forwarder state via job migration,
/// and repeated forced reconfigurations stay no-ops: epoch counts add up
/// while the physics never notices.
#[test]
fn repeated_noop_swaps_compose() {
    let base = line_with_backup().duration(SimDuration::from_secs(90));
    let plain = Engine::new(base.clone().build()).run();
    let swapped = Engine::new(
        base.force_reconfig_at(SimTime::from_secs(20))
            .force_reconfig_at(SimTime::from_secs(40))
            .force_reconfig_at(SimTime::from_secs_f64(60.07))
            .build(),
    )
    .run();
    assert_eq!(swapped.epochs, 3);
    assert_eq!(swapped.series, plain.series);
    assert_eq!(swapped.actuations, plain.actuations);
    assert_eq!(swapped.vc_stats, plain.vc_stats);
}

/// A backup that died *before* ever gaining forwarding jobs (so it never
/// transmitted and never stamped the liveness ledger) must still be
/// detectable once an epoch presses it into service: the commit-time
/// stamp starts its silence clock, the dead stand-in is marked down a
/// heartbeat-timeout later, and the next recompute falls through to the
/// second backup chain.
#[test]
fn dead_standby_forwarder_is_detected_after_gaining_jobs() {
    // Two backup chains: GW=0, S1=1, Ctrl-A=2, Ctrl-B=3, A1=4, Head=5,
    // R1=6, RB1=7, RB2.1=8. RB1 dies idle; R1 dies in service.
    let s = line_with_backup()
        .backup_relays(2)
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(NodeId(7), SimTime::from_secs(5))
        .crash_node_at(R1, SimTime::from_secs(30))
        .duration(SimDuration::from_secs(300))
        .build();
    assert_eq!(s.topology.nodes[7].label, "RB1");
    assert_eq!(s.topology.nodes[8].label, "RB2.1");
    let r = Engine::new(s).run();

    // Epoch 1 reroutes onto the (already dead) RB1; the commit-time
    // stamp makes its silence observable, epoch 2 reaches RB2.1.
    let r1_down = r.event_time("R1 missed heartbeats").expect("R1 detected");
    let rb1_down = r
        .event_time("RB1 missed heartbeats")
        .expect("idle-dead stand-in detected once in service");
    assert!(rb1_down > r1_down);
    assert_eq!(r.epochs, 2);
    assert!(r.event_time("epoch 2 committed").is_some());
    // The loop ultimately recovers over the second chain.
    assert!(r.actuations > 900, "{} actuations", r.actuations);
    let err = r.series("Err.LC-LTS").last_value().unwrap();
    assert!(err.abs() < 0.2, "steady-state error {err}");
}

/// Forwarding is a *capability*, and so is being watched: a role node
/// lending a hop (the 3×3 grid's actuator forwards the HIL downlink and
/// the PV publish) is detected by the same heartbeat silence as a
/// dedicated relay, and the recompute survives the dead node being a
/// flow endpoint — its own flows are pruned/retargeted while the
/// through-traffic re-routes over the lattice.
#[test]
fn role_node_forwarders_are_watched_and_routed_around() {
    // Ids: GW=0, S1=1, Ctrl-A=2, A1=3, Head=4, R1..R4=5..8. A1 sits on
    // the downlink and publish chains (routes prefer the low-id role
    // pod), so killing it severs the loop AND removes its endpoints.
    let build = |policy: ReroutePolicy| {
        ScenarioBuilder::star()
            .grid(3, 3)
            .sensors(1)
            .controllers(1)
            .actuators(1)
            .head(true)
            .slots_per_cycle(33)
            .reroute(policy)
            .crash_node_at(NodeId(3), SimTime::from_secs(30))
            .duration(SimDuration::from_secs(120))
            .build()
    };
    let s = build(ReroutePolicy::Heartbeat);
    assert_eq!(s.topology.nodes[3].label, "A1");
    let r = Engine::new(s).run();

    // Detected like any forwarder, and the epoch commits — the pruning
    // keeps the survivor flow set routable (no "reroute failed").
    let down = r.event_time("A1 missed heartbeats").expect("detection");
    assert!(down > SimTime::from_secs(30) && down < SimTime::from_secs(40));
    assert_eq!(r.epochs, 1);
    assert!(r.event_time("reroute failed").is_none());
    assert!(r.event_time("epoch 1 committed").is_some());
    // The actuation endpoint itself died, so delivery stays frozen at
    // the crash count — the reroute heals the *through* traffic, not
    // the dead node's own duties.
    assert_eq!(
        r.actuations,
        Engine::new(build(ReroutePolicy::Static)).run().actuations
    );
    assert!(r.event_time("fail-safe").is_none());
}

/// Scenario-level invariants of the new knobs.
#[test]
fn reroute_defaults_keep_static_behavior() {
    let s = Scenario::baseline();
    assert_eq!(s.reroute, ReroutePolicy::Static);
    assert!(s.force_reconfig.is_empty());
    assert_eq!(ReroutePolicy::Static.label(), "static");
    assert_eq!(ReroutePolicy::Heartbeat.label(), "heartbeat");
}
