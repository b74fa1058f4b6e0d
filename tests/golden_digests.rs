//! Golden digests: the pinned reference for every production path.
//!
//! Each golden scenario is run once and reduced to two FNV-1a-64
//! digests: one over a canonical encoding of the whole
//! [`RunResult`] (series and node energy sorted by name, floats as raw
//! bits, times as nanoseconds) and one over the rendered trace. The
//! constants below are the byte-determinism contract of the engine and
//! the capsule VM: a performance change must leave every one of them
//! untouched. A behavior change that moves one is a re-pin, and a re-pin
//! must be a deliberate, reviewed diff of this file.
//!
//! The sweep goldens pin the grid layer the same way: seven short grids
//! that together use every `SweepGrid` axis, each reduced to a digest of
//! its expanded cells (id, seed, key and run digest) and a digest of the
//! six rendered report views. Every grid's cells run twice, on the
//! deployments `SweepGrid::expand` shares between them and on cold ones
//! each engine builds itself, and both must give the same digests; the
//! sharing tests at the end pin which cells share a deployment. Engine
//! clones are pinned too: a clone taken mid-run finishes with its
//! original's digests.

use std::sync::Arc;

use evm::core::runtime::{
    Engine, Layout, MemoStats, ReroutePolicy, Role, Scenario, ScenarioBuilder,
};
use evm::core::{MigrationRecord, NodeEnergy, RunMeta, RunResult, VcRunStats};
use evm::netsim::{ChannelConfig, Position};
use evm::netsim::{NodeCrash, NodeId};
use evm::plant::ActuatorFault;
use evm::prelude::*;
use evm::sim::derive_seed;
use evm::sweep::{available_threads, run_cells, StarShape, SweepCell, SweepGrid, SweepReport};

/// Incremental FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros() * 1_000);
    }

    fn span(&mut self, d: SimDuration) {
        self.u64(d.as_micros() * 1_000);
    }
}

/// FNV-1a-64 of the canonical encoding of `r`. Destructured field by
/// field, so a new `RunResult` field fails to compile here until it is
/// folded into the digest.
fn result_digest(r: &RunResult) -> u64 {
    let RunResult {
        meta,
        series,
        trace,
        e2e_latencies,
        deadline_misses,
        actuations,
        node_energy,
        vc_stats,
        epochs,
        reroute_latency,
        migrations,
    } = r;
    let mut h = Fnv::new();
    let RunMeta {
        seed,
        duration,
        nodes,
        controllers,
        vcs,
    } = meta;
    h.u64(*seed);
    h.span(*duration);
    h.len(*nodes);
    h.len(*controllers);
    h.len(*vcs);
    let mut sorted: Vec<&TimeSeries> = series.iter().collect();
    sorted.sort_by(|a, b| a.name().cmp(b.name()));
    h.len(sorted.len());
    for s in sorted {
        h.str(s.name());
        let samples = s.samples();
        h.len(samples.len());
        for &(t, v) in samples {
            h.time(t);
            h.f64(v);
        }
    }
    h.len(trace.len());
    for e in trace.entries() {
        h.time(e.at);
        h.str(e.category);
        h.str(&e.message);
    }
    h.len(e2e_latencies.len());
    for &d in e2e_latencies {
        h.span(d);
    }
    h.len(*deadline_misses);
    h.len(*actuations);
    let nodes = node_energy.by_label();
    h.len(nodes.len());
    for (label, energy) in nodes {
        let NodeEnergy {
            avg_current_ma,
            radio_duty,
            lifetime_years,
        } = &energy;
        h.str(label);
        h.f64(*avg_current_ma);
        h.f64(*radio_duty);
        h.f64(*lifetime_years);
    }
    h.len(vc_stats.len());
    for s in vc_stats {
        let VcRunStats {
            loop_name,
            actuations,
            deadline_misses,
            e2e_latencies,
        } = s;
        h.str(loop_name);
        h.len(*actuations);
        h.len(*deadline_misses);
        h.len(e2e_latencies.len());
        for &d in e2e_latencies {
            h.span(d);
        }
    }
    h.u64(*epochs);
    match reroute_latency {
        None => h.u64(0),
        Some(d) => {
            h.u64(1);
            h.span(*d);
        }
    }
    h.len(migrations.len());
    for m in migrations {
        let MigrationRecord {
            vc,
            from,
            to,
            image_bytes,
            frames,
            frames_sent,
            retries,
            latency,
        } = m;
        h.u64(u64::from(*vc));
        h.u64(u64::from(from.raw()));
        h.u64(u64::from(to.raw()));
        h.len(*image_bytes);
        h.len(*frames);
        h.len(*frames_sent);
        h.len(*retries);
        h.span(*latency);
    }
    h.0
}

/// FNV-1a-64 of the rendered trace text.
fn trace_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(r.trace.render().as_bytes());
    h.0
}

/// The two pinned digests of one golden scenario.
struct Golden {
    result: u64,
    trace: u64,
}

/// Runs `make()`'s scenario and asserts the run reproduces `pinned`;
/// returns the run for scenario-specific checks.
fn check(name: &str, make: impl Fn() -> Scenario, pinned: &Golden) -> RunResult {
    let r = Engine::new(make()).run();
    assert_pinned(name, &r, pinned);
    r
}

/// Asserts that `r` reproduces `pinned`.
fn assert_pinned(name: &str, r: &RunResult, pinned: &Golden) {
    assert!(r.actuations > 20, "{name}: run must exercise the loop");
    let (result, trace) = (result_digest(r), trace_digest(r));
    assert!(
        result == pinned.result && trace == pinned.trace,
        "{name}: digests moved: result {result:#018x} (pinned {:#018x}), \
         trace {trace:#018x} (pinned {:#018x})",
        pinned.result,
        pinned.trace
    );
}

/// The first dedicated relay that carries forwarding jobs in the
/// engine's own epoch-0 routes: the only kind of victim whose crash
/// forces a heartbeat reroute.
fn loaded_relay(s: &Scenario) -> NodeId {
    let carriers = Engine::new(s.clone()).forwarding_nodes();
    s.topology
        .nodes
        .iter()
        .find(|n| matches!(n.role, Role::Relay(_)) && carriers.contains(&n.id))
        .map(|n| n.id)
        .expect("a dedicated relay carries jobs")
}

/// Fig. 5: the paper's single-hop testbed, fault-free, 90 s. The run
/// logs no trace line, so its trace digest is that of the empty text.
#[test]
fn fig5_digest() {
    check(
        "fig5",
        || {
            let mut s = Scenario::baseline();
            s.duration = SimDuration::from_secs(90);
            s
        },
        &Golden {
            result: 0x8025_0f1e_7c8b_cdc7,
            trace: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// Fig. 6b: the paper's 1000 s failover timeline.
const FIG6B: Golden = Golden {
    result: 0xf145_d5db_93b1_0eb4,
    trace: 0xc1eb_c90e_6ed7_8d60,
};

#[test]
fn fig6b_digest() {
    check("fig6b", Scenario::fig6b, &FIG6B);
}

/// Multi-hop line: relay flows spanning two hops, serial schedule.
#[test]
fn line_digest() {
    check(
        "line",
        || {
            ScenarioBuilder::star()
                .line(2)
                .sensors(1)
                .controllers(2)
                .actuators(1)
                .head(true)
                .duration(SimDuration::from_secs(60))
                .build()
        },
        &Golden {
            result: 0x05e8_4972_7dee_3277,
            trace: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// 3x3 grid: lattice routing where the controller itself forwards.
#[test]
fn grid_digest() {
    check(
        "grid",
        || {
            ScenarioBuilder::star()
                .grid(3, 3)
                .sensors(1)
                .controllers(1)
                .actuators(1)
                .head(true)
                .slots_per_cycle(33)
                .duration(SimDuration::from_secs(60))
                .build()
        },
        &Golden {
            result: 0xd8d4_07e5_a8ba_6bd9,
            trace: 0xcbf2_9ce4_8422_2325,
        },
    );
}

/// Heartbeat reroute: a loaded forwarder dies at 30 s, the heartbeat
/// scan marks it down, and an epoch swap re-routes around it.
#[test]
fn heartbeat_reroute_digest() {
    let base = || {
        ScenarioBuilder::star()
            .reroute(ReroutePolicy::Heartbeat)
            .line(2)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .backup_relays(1)
            .duration(SimDuration::from_secs(90))
            .build()
    };
    let victim = loaded_relay(&base());
    let r = check(
        "heartbeat_reroute",
        || {
            let mut s = base();
            s.fault_plan
                .add_crash(NodeCrash::permanent(victim, SimTime::from_secs(30)));
            s
        },
        &Golden {
            result: 0x4902_42e4_fb96_10e2,
            trace: 0xf940_c613_4d32_7ad5,
        },
    );
    assert!(r.epochs > 0, "the forwarder kill must commit a new epoch");
}

/// Head-kill live migration: the head crashes at 10 s and re-election
/// ships the padded capsule over two transfer slots, chunk by chunk.
fn head_kill_migration() -> Scenario {
    ScenarioBuilder::star()
        .reroute(ReroutePolicy::Heartbeat)
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .transfer_slots(2)
        .capsule_pad_bytes(512)
        .crash_node_at(NodeId(6), SimTime::from_secs(10))
        .duration(SimDuration::from_secs(90))
        .build()
}

const HEAD_KILL_MIGRATION: Golden = Golden {
    result: 0xa757_9a10_4c7e_3d4f,
    trace: 0x65df_9346_9c20_ca37,
};

#[test]
fn head_kill_migration_digest() {
    let r = check(
        "head_kill_migration",
        head_kill_migration,
        &HEAD_KILL_MIGRATION,
    );
    assert_eq!(r.migrations.len(), 1, "the head kill must migrate live");
}

/// Two VCs sharing one gateway, VC 1's primary controller crashing at
/// 30 s.
#[test]
fn two_vc_crash_digest() {
    check(
        "two_vc_crash",
        || {
            ScenarioBuilder::star()
                .vcs(2)
                .crash_vc_primary_at(1, SimTime::from_secs(30))
                .duration(SimDuration::from_secs(90))
                .build()
        },
        &Golden {
            result: 0x070a_8417_8d17_9b1b,
            trace: 0xc1ee_f123_a1b6_4a7d,
        },
    );
}

/// The `vc_failover_sweep` benchmark cell: an 8-VC star on a 96-slot
/// cycle under heartbeat rerouting, one transfer slot per VC and a
/// 1 KiB capsule pad. VC 1's head dies at 60 s, VC 3's primary at
/// 110 s and VC 5's head at 160 s, so the run recomputes the schedule
/// at setup and after each head kill.
fn vc_failover_cell() -> Scenario {
    let mut s = ScenarioBuilder::star()
        .vcs(8)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .slots_per_cycle(96)
        .reroute(ReroutePolicy::Heartbeat)
        .transfer_slots(1)
        .capsule_pad_bytes(1024)
        .duration(SimDuration::from_secs(300))
        .crash_vc_primary_at(3, SimTime::from_secs(110))
        .build();
    let probe = Engine::new(s.clone());
    let head = |vc| probe.vc_map().vc(vc).head.expect("every VC has a head");
    for (node, at) in [(head(1), 60), (head(5), 160)] {
        s.fault_plan
            .add_crash(NodeCrash::permanent(node, SimTime::from_secs(at)));
    }
    s
}

const VC_FAILOVER_CELL: Golden = Golden {
    result: 0x60e0_1b11_23fb_d67d,
    trace: 0x2e51_09f1_7533_0013,
};

#[test]
fn vc_failover_cell_digest() {
    let r = check("vc_failover_cell", vc_failover_cell, &VC_FAILOVER_CELL);
    for vc in [1, 5] {
        assert!(
            r.migrations.iter().any(|m| m.vc == vc),
            "the head kill of VC {vc} must migrate live"
        );
    }
}

/// A wide star: 70 controller replicas on a 200-slot cycle, so the
/// focus PV publish has more than 64 listeners and its deliveries do
/// not fit one 64-bit listener mask. The paper fault at 20 s fails over
/// with immediate reconfiguration.
#[test]
fn wide_star_digest() {
    let r = check(
        "wide_star",
        || {
            ScenarioBuilder::star()
                .slots_per_cycle(200)
                .controllers(70)
                .head(true)
                .fault_at(SimTime::from_secs(20), ActuatorFault::paper_fault())
                .reconfig_epoch(SimDuration::ZERO)
                .duration(SimDuration::from_secs(60))
                .build()
        },
        &Golden {
            result: 0x035a_9ca4_bc2c_fb3e,
            trace: 0x9998_293d_9f0d_fa9b,
        },
    );
    assert!(
        r.trace.render().contains("head commits failover"),
        "the fault must fail over"
    );
}

/// Fig. 6b under cold standby: the backup holds no task, so before the
/// failover commits, Ctrl-A ships the capsule to Ctrl-B over one
/// transfer slot per cycle, where it is attested and admitted.
#[test]
fn cold_standby_fig6b_digest() {
    let r = check(
        "cold_standby_fig6b",
        || {
            ScenarioBuilder::star()
                .fault_at(SimTime::from_secs(300), ActuatorFault::paper_fault())
                .cold_backup()
                .transfer_slots(1)
                .build()
        },
        &Golden {
            result: 0x8e36_d023_39a6_c5e7,
            trace: 0xca71_34fd_c66a_6b0d,
        },
    );
    let moved: Vec<_> = r.migrations.iter().map(|m| (m.vc, m.from, m.to)).collect();
    assert_eq!(
        moved,
        [(0, NodeId(2), NodeId(3))],
        "the cold backup must receive the task by migration"
    );
}

/// A 256-VC fleet through the fleet generator and its serial
/// schedule, for 4 RT-Link cycles: the deployment shape of the
/// `fleet_dense` benchmark at a size a debug build runs quickly.
#[test]
fn fleet_digest() {
    let r = check(
        "fleet",
        || {
            let mut s = ScenarioBuilder::star()
                .fleet(256)
                .seed(derive_seed(1, 0))
                .build();
            s.duration = s.rtlink.cycle_duration() * 4;
            s
        },
        &Golden {
            result: 0x0366_b870_7b56_1bbc,
            trace: 0xcbf2_9ce4_8422_2325,
        },
    );
    assert_eq!(r.vc_stats.len(), 256, "every fleet VC is hosted");
}

/// The two pinned digests of one sweep grid.
struct SweepGolden {
    cells: u64,
    report: u64,
}

/// `cells` with their deployments detached: each engine checks and
/// builds its own.
fn cold(cells: &[SweepCell]) -> Vec<SweepCell> {
    let mut cold = cells.to_vec();
    for c in &mut cold {
        assert!(
            c.scenario.detach_deployment().is_some(),
            "expand attaches a deployment to cell {}",
            c.id
        );
    }
    cold
}

/// Asserts that `shared` and `cold` give the same runs, cell for cell.
fn assert_same_runs(name: &str, shared: &[RunResult], cold: &[RunResult]) {
    assert_eq!(shared.len(), cold.len());
    for (k, (a, b)) in shared.iter().zip(cold).enumerate() {
        assert!(
            result_digest(a) == result_digest(b) && trace_digest(a) == trace_digest(b),
            "{name}: cell {k} on its shared deployment differs from a cold build"
        );
    }
}

/// Expands and runs `grid`, and asserts the cell list and the rendered
/// report reproduce `pinned`, and that the cells give the same runs
/// built cold.
fn check_sweep(name: &str, grid: &SweepGrid, pinned: &SweepGolden) {
    let cells = grid.expand();
    let threads = available_threads().min(4);
    let results = run_cells(&cells, threads);
    assert_same_runs(name, &results, &run_cells(&cold(&cells), threads));
    let mut h = Fnv::new();
    h.len(cells.len());
    for (c, r) in cells.iter().zip(&results) {
        h.len(c.id);
        h.u64(c.scenario.seed);
        h.str(&c.config.key());
        h.u64(result_digest(r));
    }
    let cells_digest = h.0;
    let report = SweepReport::build(&cells, &results);
    let mut h = Fnv::new();
    for view in [
        report.to_csv(),
        report.cells_csv(),
        report.vcs_csv(),
        report.topology_csv(),
        report.reconfig_csv(),
        report.to_markdown(),
    ] {
        h.str(&view);
    }
    let report_digest = h.0;
    assert!(
        cells_digest == pinned.cells && report_digest == pinned.report,
        "{name}: sweep digests moved: cells {cells_digest:#018x} (pinned {:#018x}), \
         report {report_digest:#018x} (pinned {:#018x})",
        pinned.cells,
        pinned.report
    );
}

/// The 60 s Fig. 6b-style failover template of the smoke grids.
fn smoke_template() -> Scenario {
    Scenario::builder()
        .duration(SimDuration::from_secs(60))
        .fault_at(SimTime::from_secs(15), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .build()
}

/// The redundant 2-hop line of the reconfiguration smoke grids, with
/// `controllers` replicas and node `victim` crashing at `crash_s`.
fn line_template(controllers: usize, victim: u16, crash_s: u64) -> ScenarioBuilder {
    ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(controllers)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .crash_node_at(NodeId(victim), SimTime::from_secs(crash_s))
        .duration(SimDuration::from_secs(60))
}

/// VC count × extra loss.
#[test]
fn sweep_vcs_loss_digest() {
    check_sweep(
        "vcs_loss",
        &SweepGrid::new(smoke_template())
            .over_vcs(&[1, 2])
            .over_loss(&[0.0, 0.2])
            .seeds_per_cell(2),
        &SweepGolden {
            cells: 0x7a3a_4e2c_cd87_969e,
            report: 0x621c_d0d2_626f_9504,
        },
    );
}

/// The smoke template on its own: every axis at its default value.
#[test]
fn sweep_template_digest() {
    check_sweep(
        "template",
        &SweepGrid::new(smoke_template()).seeds_per_cell(2),
        &SweepGolden {
            cells: 0x6539_6072_33c0_5250,
            report: 0xf1a7_11f5_89a2_78c5,
        },
    );
}

/// Every layout family at one role shape.
#[test]
fn sweep_topology_digest() {
    check_sweep(
        "topology",
        &SweepGrid::new(smoke_template())
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
            .seeds_per_cell(2),
        &SweepGolden {
            cells: 0x9d26_d058_d9bd_ebc5,
            report: 0x326c_665c_46ee_4fca,
        },
    );
}

/// Forwarder kill (R1) under both reroute policies.
#[test]
fn sweep_fwdkill_digest() {
    check_sweep(
        "fwdkill",
        &SweepGrid::new(line_template(2, 6, 15).build())
            .over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat])
            .seeds_per_cell(2),
        &SweepGolden {
            cells: 0x8441_e605_a522_b40f,
            report: 0xd359_0072_5736_7968,
        },
    );
}

/// Head kill, then a primary fault, under both reroute policies.
#[test]
fn sweep_headkill_digest() {
    check_sweep(
        "headkill",
        &SweepGrid::new(
            line_template(3, 6, 10)
                .fault_at(SimTime::from_secs(30), ActuatorFault::paper_fault())
                .reconfig_epoch(SimDuration::ZERO)
                .build(),
        )
        .over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat])
        .seeds_per_cell(2),
        &SweepGolden {
            cells: 0x7578_25ed_4d89_2e2a,
            report: 0xd9a4_79e4_2a0b_6b59,
        },
    );
}

/// Live migration over capsule size × transfer-slot budget.
#[test]
fn sweep_migration_digest() {
    check_sweep(
        "migration",
        &SweepGrid::new(
            line_template(3, 6, 10)
                .reroute(ReroutePolicy::Heartbeat)
                .reconfig_epoch(SimDuration::ZERO)
                .build(),
        )
        .over_capsule_size(&[0, 512])
        .over_transfer_slots(&[1, 2])
        .seeds_per_cell(2),
        &SweepGolden {
            cells: 0x594b_af2b_8d49_8581,
            report: 0x45f2_037a_9f4f_97b5,
        },
    );
}

/// Star role counts × extra loss × detection parameters, on an explicit
/// base seed.
#[test]
fn sweep_star_detection_digest() {
    check_sweep(
        "star_detection",
        &SweepGrid::new(smoke_template())
            .over_stars(&[StarShape::fig5(), StarShape::with_controllers(3)])
            .over_loss(&[0.1])
            .over_detection(&[(5.0, 3), (3.0, 4)])
            .seeds_per_cell(2)
            .base_seed(7),
        &SweepGolden {
            cells: 0xe81d_6d19_8483_0f50,
            report: 0xe6f1_e600_5cb7_1b4f,
        },
    );
}

/// Clones of an engine taken mid-run finish with the original's pinned
/// digests: Fig. 6b before the fault, at it and at the failover commit,
/// and the head-kill migration halfway through its shipment.
#[test]
fn clones_finish_like_their_originals() {
    let finish = |name: &str, original: Engine, pinned: &Golden| {
        let clone = original.clone();
        assert!(Arc::ptr_eq(clone.deployment(), original.deployment()));
        assert_pinned(&format!("{name} clone"), &clone.run(), pinned);
        assert_pinned(&format!("{name} original"), &original.run(), pinned);
    };
    for at in [150, 300, 600] {
        let mut engine = Engine::new(Scenario::fig6b());
        engine.run_until(SimTime::from_secs(at));
        finish(&format!("fig6b at {at} s"), engine, &FIG6B);
    }
    // Halfway between the shipment's start and its activation.
    let r = Engine::new(head_kill_migration()).run();
    let started = r
        .trace
        .entries()
        .iter()
        .find(|e| e.message.contains("transfer started"))
        .expect("the head kill starts a shipment")
        .at;
    let mid = started + r.migrations[0].latency / 2;
    assert!(mid > started, "the shipment spans more than one instant");
    let mut engine = Engine::new(head_kill_migration());
    engine.run_until(mid);
    finish("head kill mid-shipment", engine, &HEAD_KILL_MIGRATION);
}

/// A VC's replicas share each capsule run they would repeat: on Fig. 6b,
/// three of every four runs of the one memo entry adopt the previous
/// run (Ctrl-A, Ctrl-B and the head's monitor compute on the same PV),
/// and the run keeps its pinned digests. The failover cell's VCs host
/// four replicas each, and share most runs through its kills and crash.
#[test]
fn replicas_share_capsule_runs() {
    let shares = |name: &str, s: Scenario, pinned: &Golden, expect: MemoStats| {
        let end = SimTime::ZERO + s.duration;
        let mut engine = Engine::new(s);
        engine.run_until(end);
        assert_eq!(engine.memo_stats(), expect, "{name}");
        assert_pinned(name, &engine.finalize(), pinned);
    };
    shares(
        "fig6b",
        Scenario::fig6b(),
        &FIG6B,
        MemoStats {
            entries: 1,
            runs: 11_201,
            shared: 8_400,
        },
    );
    shares(
        "vc_failover_cell",
        vc_failover_cell(),
        &VC_FAILOVER_CELL,
        MemoStats {
            entries: 8,
            runs: 9_418,
            shared: 7_756,
        },
    );
}

/// The distinct deployments (by pointer) among `cells`, in first-use
/// order.
fn distinct_deployments(cells: &[SweepCell]) -> usize {
    let mut seen: Vec<&Arc<_>> = Vec::new();
    for c in cells {
        let d = c.scenario.deployment().expect("expand attaches one");
        if !seen.iter().any(|s| Arc::ptr_eq(s, d)) {
            seen.push(d);
        }
    }
    seen.len()
}

/// Cells that differ only in seed and loss share one deployment: the
/// `vc_failover_sweep` batch builds one for its 8 cells, and a star-shape
/// axis builds one per shape.
#[test]
fn cells_of_one_key_share_one_deployment() {
    let failover = SweepGrid::new(vc_failover_cell())
        .over_loss(&[0.0, 0.02])
        .seeds_per_cell(4)
        .expand();
    assert_eq!(failover.len(), 8);
    assert_eq!(distinct_deployments(&failover), 1);
    let shapes = SweepGrid::new(smoke_template())
        .over_stars(&[StarShape::fig5(), StarShape::with_controllers(3)])
        .over_loss(&[0.0, 0.1])
        .seeds_per_cell(2)
        .expand();
    assert_eq!(distinct_deployments(&shapes), 2);
    for half in shapes.chunks(4) {
        assert_eq!(distinct_deployments(half), 1, "one shape, one deployment");
    }
}

/// A shadowed channel derives its topology from the seeded channel
/// stream, so its cells share nothing across seeds, and still run as
/// they would cold.
#[test]
fn shadowed_cells_share_nothing_across_seeds() {
    let mut template = smoke_template();
    template.channel = ChannelConfig::industrial();
    let cells = SweepGrid::new(template).seeds_per_cell(3).expand();
    assert_eq!(distinct_deployments(&cells), 3);
    let threads = available_threads().min(4);
    assert_same_runs(
        "shadowed",
        &run_cells(&cells, threads),
        &run_cells(&cold(&cells), threads),
    );
}

/// A cell edited after expansion no longer fits its deployment: the
/// engine builds a fresh one and runs as the edited cell would cold.
#[test]
fn cells_edited_after_expansion_rebuild() {
    let cells = SweepGrid::new(smoke_template()).seeds_per_cell(2).expand();
    let lane: fn(&mut Scenario) = |s| s.transfer_slots = 2;
    let moved: fn(&mut Scenario) = |s| {
        let p = s.topology.nodes[1].position;
        s.topology.nodes[1].position = Position::new(p.x + 1.0, p.y);
    };
    for (name, edit) in [("transfer_slots", lane), ("node position", moved)] {
        let mut edited = cells[1].scenario.clone();
        edit(&mut edited);
        let engine = Engine::new(edited.clone());
        let attached = edited.deployment().expect("expand attaches one");
        assert!(
            !Arc::ptr_eq(engine.deployment(), attached),
            "{name}: the edited cell must not run on the stale deployment"
        );
        edited.detach_deployment();
        assert_same_runs(name, &[engine.run()], &[Engine::new(edited).run()]);
    }
}

/// A cell that shares an earlier cell's deployment still passes its own
/// per-run checks: the first bad cell fails expansion with its id.
#[test]
#[should_panic(expected = "sweep cell 2: scenario knob extra_loss out of [0, 1]")]
fn a_bad_cell_sharing_a_deployment_fails_expansion() {
    let _ = SweepGrid::new(smoke_template())
        .over_loss(&[0.0, 1.5])
        .seeds_per_cell(2)
        .expand();
}
