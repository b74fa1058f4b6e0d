//! Cross-crate integration: live capsule migration over the
//! reconfiguration plane.
//!
//! Pins the tentpole claims of the migration PR:
//!
//! 1. **Attested arrival** — a head re-election under
//!    `ReroutePolicy::Heartbeat` ships the primary's capsule image over
//!    scheduled transfer slots; the new host attests the digest, checks
//!    version monotonicity and capabilities, and resumes the interpreter
//!    from the transferred variable state.
//! 2. **Retransmission** — a corrupted chunk is dropped unacked by the
//!    receiver and retransmitted by the stop-and-wait sender; the
//!    migration still completes, with `frames_sent > frames`.
//! 3. **Tamper rejection** — a capsule whose gas budget was inflated
//!    after digest computation is rejected at attestation and never
//!    activates.
//! 4. **Default-off** — with `transfer_slots = 0` (the default) nothing
//!    migrates and every physical observable is byte-identical to the
//!    pre-migration engine.
//! 5. **Cold standby rides the same lane** — promoting a cold backup
//!    ships the capsule over the same transfer slots, so a tampered
//!    image or a spent retry budget leaves the backup unpromoted, and a
//!    shipment whose source dies fails the VC safe.
//! 6. **One shipment per VC** — simultaneous head kills in different
//!    VCs each migrate over their own VC's lane.

use evm::core::runtime::{Engine, ReroutePolicy, Scenario, ScenarioBuilder};
use evm::core::{ControllerMode, EvmError};
use evm::netsim::{NodeCrash, NodeId};
use evm::plant::ActuatorFault;
use evm::prelude::*;

/// Head-kill scenario: GW=0, S1=1, Ctrl-A=2, Ctrl-B=3, Ctrl-C=4, A1=5,
/// Head=6, R1=7, RB1=8. Killing the head under Heartbeat re-elects
/// Ctrl-B, which triggers the capsule transfer Ctrl-A -> Ctrl-B.
fn head_kill() -> ScenarioBuilder {
    ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(NodeId(6), SimTime::from_secs(30))
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(120))
}

#[test]
fn head_reelection_migrates_the_capsule_and_attests_on_arrival() {
    let s = head_kill().transfer_slots(2).build();
    assert_eq!(s.topology.nodes[6].label, "Head");
    let r = Engine::new(s).run();

    // The re-election happened and triggered exactly one migration.
    r.event_time("re-elected head").expect("re-election");
    let started = r.event_time("transfer started").expect("transfer starts");
    let activated = r
        .event_time("attested and activated")
        .expect("attested arrival");
    assert!(activated > started);
    assert_eq!(r.migrations.len(), 1, "exactly one migration record");

    let m = &r.migrations[0];
    assert_eq!(m.vc, 0);
    assert_eq!(m.from, NodeId(2), "shipped from the primary (Ctrl-A)");
    assert_eq!(m.to, NodeId(3), "to the re-elected head (Ctrl-B)");
    assert!(m.image_bytes > 0);
    assert!(m.frames >= 1);
    assert_eq!(
        m.frames_sent, m.frames,
        "lossless default: no retransmissions"
    );
    assert_eq!(m.retries, 0);
    assert!(m.latency > SimDuration::ZERO);
    // Stop-and-wait over n transfer slots per cycle: each frame takes at
    // most one cycle, so latency is bounded by frames x cycle.
    let cycle = Scenario::baseline().rtlink.cycle_duration();
    assert!(
        m.latency <= cycle * m.frames as u64,
        "latency {} exceeds {} frames x cycle",
        m.latency,
        m.frames
    );
}

#[test]
fn corrupted_chunk_is_retransmitted_and_migration_still_completes() {
    let s = head_kill()
        .transfer_slots(2)
        .corrupt_transfer_chunk(1)
        .build();
    let r = Engine::new(s).run();

    r.event_time("corrupted in flight")
        .expect("corruption traced");
    r.event_time("attested and activated")
        .expect("migration completes despite the corrupted chunk");
    assert_eq!(r.migrations.len(), 1);
    let m = &r.migrations[0];
    assert!(
        m.frames_sent > m.frames,
        "the dropped chunk was retransmitted ({} sent, {} needed)",
        m.frames_sent,
        m.frames
    );
    assert!(m.retries >= 1);
}

#[test]
fn tampered_gas_budget_is_rejected_at_attestation() {
    let s = head_kill().transfer_slots(2).tamper_gas_budget().build();
    let r = Engine::new(s).run();

    r.event_time("transfer started").expect("transfer starts");
    r.event_time("rejected capsule")
        .expect("attestation rejects");
    assert!(
        r.event_time("attested and activated").is_none(),
        "a tampered capsule must never activate"
    );
    assert!(r.migrations.is_empty(), "no migration record on rejection");
}

#[test]
fn migrated_state_continuity_preserves_regulation() {
    // The capsule arrives with the primary's integrator snapshot; the
    // loop keeps regulating to setpoint after the transfer.
    let s = head_kill()
        .transfer_slots(2)
        .duration(SimDuration::from_secs(300))
        .build();
    let r = Engine::new(s).run();
    r.event_time("attested and activated").expect("migration");
    let pv = r.series("LTS.LiquidPct").last_value().unwrap();
    assert!((pv - 50.0).abs() < 0.5, "PV {pv} regulated after migration");
}

#[test]
fn default_transfer_budget_disables_migration_entirely() {
    // Same head-kill, default transfer_slots = 0: the re-election still
    // happens but no capsule ships, and the run is byte-identical to the
    // engine without the migration plane.
    let r = Engine::new(head_kill().build()).run();
    r.event_time("re-elected head").expect("re-election");
    assert!(r.event_time("transfer started").is_none());
    assert!(r.migrations.is_empty());
}

#[test]
fn transfer_slots_off_is_byte_identical_under_failures() {
    // transfer_slots only *adds* slots after the pipeline; with the lane
    // enabled but no failure, nothing ships and physics are unchanged.
    let base = ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(2)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .reroute(ReroutePolicy::Heartbeat)
        .duration(SimDuration::from_secs(120));
    let plain = Engine::new(base.clone().build()).run();
    let laned = Engine::new(base.transfer_slots(2).build()).run();
    assert_eq!(laned.series, plain.series);
    assert_eq!(laned.actuations, plain.actuations);
    assert!(laned.migrations.is_empty());
}

#[test]
fn scenario_defaults_keep_migration_off() {
    let s = Scenario::baseline();
    assert_eq!(s.transfer_slots, 0);
    assert_eq!(s.capsule_pad_bytes, 0);
    assert_eq!(s.migration_max_retries, 8);
    assert_eq!(s.corrupt_transfer_chunk, None);
    assert!(!s.tamper_gas_budget);
}

/// Cold-standby Fig. 6b: a paper fault on Ctrl-A at 100 s; the backups
/// hold no task, so promoting Ctrl-B ships the capsule over the single
/// transfer slot first.
fn cold_standby() -> ScenarioBuilder {
    Scenario::builder()
        .fault_at(SimTime::from_secs(100), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .cold_backup()
        .transfer_slots(1)
        .duration(SimDuration::from_secs(400))
}

/// Whether `Mode.<label>` ever read Active during the run.
fn ever_active(r: &evm::core::RunResult, label: &str) -> bool {
    r.series(&format!("Mode.{label}"))
        .samples()
        .iter()
        .any(|&(_, mode)| mode == ControllerMode::Active.as_f64())
}

/// The control for the cold-standby safety tests below: unsabotaged,
/// the shipment lands and Ctrl-B takes over.
#[test]
fn cold_standby_promotes_over_the_transfer_lane() {
    let r = Engine::new(cold_standby().build()).run();
    assert_eq!(r.migrations.len(), 1);
    r.event_time("head commits failover").expect("promotion");
    assert!(ever_active(&r, "Ctrl-B"));
}

#[test]
fn cold_standby_tampered_capsule_never_promotes() {
    let r = Engine::new(cold_standby().tamper_gas_budget().build()).run();
    r.event_time("transfer started")
        .expect("the shipment starts");
    r.event_time("rejected capsule")
        .expect("attestation rejects the tampered image");
    assert!(
        r.event_time("head commits failover").is_none(),
        "a rejected capsule must not promote the cold backup"
    );
    assert!(!ever_active(&r, "Ctrl-B"));
    assert!(r.migrations.is_empty());
}

#[test]
fn cold_standby_zero_retry_budget_abandons_the_shipment() {
    // With no retransmission budget, the corrupted first chunk ends the
    // shipment: every frame is still outstanding and no retry was sent.
    let s = cold_standby()
        .migration_max_retries(0)
        .corrupt_transfer_chunk(0)
        .build();
    let r = Engine::new(s).run();
    let trace = r.trace.render();
    assert!(
        trace.contains("(493 B, 5 frames) Ctrl-A -> Ctrl-B: transfer started"),
        "the cold Fig. 6b image splits into five frames"
    );
    let timeout = EvmError::MigrationTimeout {
        frames_remaining: 5,
        retries: 0,
    };
    assert!(
        trace.contains(&format!("abandoned: {timeout}")),
        "the abandoned shipment reports {timeout}"
    );
    assert!(
        r.event_time("head commits failover").is_none(),
        "an abandoned shipment must not promote the cold backup"
    );
    assert!(!ever_active(&r, "Ctrl-B"));
    assert!(r.migrations.is_empty());
}

#[test]
fn cold_standby_dead_receiver_spends_the_retry_budget_then_fails_safe() {
    // Ctrl-B (n3) crashes after taking the first fragment, so the second
    // is sent once plus three retransmissions and the shipment times
    // out reporting exactly those three. The head's decision is then
    // released, and the next alert finds no live replica to promote.
    let s = cold_standby()
        .migration_max_retries(3)
        .crash_node_at(NodeId(3), SimTime::from_millis(100_600))
        .build();
    let r = Engine::new(s).run();
    let timeout = EvmError::MigrationTimeout {
        frames_remaining: 4,
        retries: 3,
    };
    let abandoned = r
        .event_time(&format!("Ctrl-A -> Ctrl-B abandoned: {timeout}"))
        .expect("the shipment times out after its retry budget");
    let fail_safe = r
        .event_time("engaging fail-safe")
        .expect("the next alert re-arbitrates and fails safe");
    assert!(abandoned < fail_safe);
    assert!(r.event_time("head commits failover").is_none());
    assert!(r.migrations.is_empty());
}

#[test]
fn cold_standby_source_crash_mid_shipment_fails_safe() {
    // The shipment starts at about 100.54 s and needs five cycles; Ctrl-A
    // (n2), which owns the lane, crashes before the second fragment.
    // Its slots go silent, so the shipment is abandoned at the next
    // cycle boundary and the VC fails safe instead of hanging.
    let s = cold_standby()
        .crash_node_at(NodeId(2), SimTime::from_millis(100_800))
        .build();
    let r = Engine::new(s).run();
    let started = r
        .event_time("transfer started")
        .expect("the shipment starts");
    let dropped = r
        .event_time("abandoned: Ctrl-A is down")
        .expect("a shipment without its source is abandoned");
    let fail_safe = r
        .event_time("engaging fail-safe")
        .expect("the VC fails safe");
    assert!(started < dropped && dropped <= fail_safe);
    assert!(r.event_time("head commits failover").is_none());
    assert!(!ever_active(&r, "Ctrl-B"));
    assert!(r.migrations.is_empty());
}

#[test]
fn simultaneous_head_kills_in_two_vcs_both_migrate() {
    // The `vc_failover_sweep` star: 8 VCs, one transfer slot each. Both
    // heads die at the same instant, so both VCs re-elect in the same
    // heartbeat scan and ship over their own lanes at once.
    let base = || {
        ScenarioBuilder::star()
            .vcs(8)
            .sensors(1)
            .controllers(3)
            .actuators(1)
            .head(true)
            .slots_per_cycle(96)
            .reroute(ReroutePolicy::Heartbeat)
            .transfer_slots(1)
            .capsule_pad_bytes(1024)
            .duration(SimDuration::from_secs(120))
            .build()
    };
    let probe = Engine::new(base());
    let heads = [1, 5].map(|vc| probe.vc_map().vc(vc).head.expect("every VC has a head"));
    let mut s = base();
    for &head in &heads {
        s.fault_plan
            .add_crash(NodeCrash::permanent(head, SimTime::from_secs(60)));
    }
    let r = Engine::new(s).run();
    let mut vcs: Vec<_> = r.migrations.iter().map(|m| m.vc).collect();
    vcs.sort_unstable();
    assert_eq!(vcs, [1, 5], "each killed head's VC migrates its capsule");
    assert!(r.event_time("transfer lane busy").is_none());
}
