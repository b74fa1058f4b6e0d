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
//! six rendered report views.

use evm::core::runtime::{Engine, Layout, ReroutePolicy, Role, Scenario, ScenarioBuilder};
use evm::core::{MigrationRecord, NodeEnergy, RunMeta, RunResult, VcRunStats};
use evm::netsim::{NodeCrash, NodeId};
use evm::plant::ActuatorFault;
use evm::prelude::*;
use evm::sweep::{available_threads, run_cells, StarShape, SweepGrid, SweepReport};

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
    let mut names: Vec<&String> = series.keys().collect();
    names.sort();
    h.len(names.len());
    for name in names {
        h.str(name);
        let samples = series[name].samples();
        h.len(samples.len());
        for &(t, v) in samples {
            h.time(t);
            h.f64(v);
        }
    }
    h.len(trace.len());
    for e in trace.entries() {
        h.time(e.at);
        h.str(&e.category);
        h.str(&e.message);
    }
    h.len(e2e_latencies.len());
    for &d in e2e_latencies {
        h.span(d);
    }
    h.len(*deadline_misses);
    h.len(*actuations);
    let mut labels: Vec<&String> = node_energy.keys().collect();
    labels.sort();
    h.len(labels.len());
    for label in labels {
        let NodeEnergy {
            avg_current_ma,
            radio_duty,
            lifetime_years,
        } = &node_energy[label];
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
    assert!(r.actuations > 20, "{name}: run must exercise the loop");
    let (result, trace) = (result_digest(&r), trace_digest(&r));
    assert!(
        result == pinned.result && trace == pinned.trace,
        "{name}: digests moved: result {result:#018x} (pinned {:#018x}), \
         trace {trace:#018x} (pinned {:#018x})",
        pinned.result,
        pinned.trace
    );
    r
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
#[test]
fn fig6b_digest() {
    check(
        "fig6b",
        Scenario::fig6b,
        &Golden {
            result: 0xf145_d5db_93b1_0eb4,
            trace: 0xc1eb_c90e_6ed7_8d60,
        },
    );
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
#[test]
fn head_kill_migration_digest() {
    let r = check(
        "head_kill_migration",
        || {
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
        },
        &Golden {
            result: 0xa757_9a10_4c7e_3d4f,
            trace: 0x65df_9346_9c20_ca37,
        },
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
#[test]
fn vc_failover_cell_digest() {
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
            .duration(SimDuration::from_secs(300))
            .crash_vc_primary_at(3, SimTime::from_secs(110))
            .build()
    };
    let probe = Engine::new(base());
    let head = |vc| probe.vc_map().vc(vc).head.expect("every VC has a head");
    let kills = [(head(1), 60), (head(5), 160)];
    let r = check(
        "vc_failover_cell",
        || {
            let mut s = base();
            for &(node, at) in &kills {
                s.fault_plan
                    .add_crash(NodeCrash::permanent(node, SimTime::from_secs(at)));
            }
            s
        },
        &Golden {
            result: 0x60e0_1b11_23fb_d67d,
            trace: 0x2e51_09f1_7533_0013,
        },
    );
    for vc in [1, 5] {
        assert!(
            r.migrations.iter().any(|m| m.vc == vc),
            "the head kill of VC {vc} must migrate live"
        );
    }
}

/// The two pinned digests of one sweep grid.
struct SweepGolden {
    cells: u64,
    report: u64,
}

/// Expands and runs `grid`, and asserts the cell list and the rendered
/// report reproduce `pinned`.
fn check_sweep(name: &str, grid: &SweepGrid, pinned: &SweepGolden) {
    let cells = grid.expand();
    let results = run_cells(&cells, available_threads().min(4));
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
