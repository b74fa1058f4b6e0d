//! The paper's quantified claims, one test per figure or claim.
//!
//! Every number here is simulated and deterministic, so each test
//! computes its table once, writes it as a CSV under
//! `target/paper_results/` for plotting, and asserts the claim on it.
//! Numbers the paper quotes are pinned at the precision they are
//! reported with.
//!
//! | Claim | Test | CSV |
//! |-------|------|-----|
//! | Fig. 4 operating point, LTS valve at 11.48 % | `fig4_steady_state` | `fig4_steady_state.csv` |
//! | Fig. 5 / objective 5: cycle ≤ 250 ms, latency ≤ cycle/3 | `fig5_hil_latency` | `fig5_hil_latency.csv`, `fig5_node_energy.csv` |
//! | Fig. 6b: T1/T2/T3 = 300/600/800 s and the level's shape | `fig6b_failover` | `fig6b_series.csv` |
//! | Fig. 6b ablation: fast epoch < cold migration < paper epoch | `failover_ablation` | `failover_ablation.csv` |
//! | §2.1: RT-Link outlives B-MAC and S-MAC at every duty cycle | `mac_lifetime_duty` | `mac_lifetime_duty.csv` |
//! | §2.1: … and at every event rate | `mac_event_rate` | `mac_event_rate.csv` |
//! | §2.1: sub-150 µs sync jitter | `sync_jitter` | `sync_jitter.csv` |
//! | §3.1.1 op 1: migration latency scales with size × slot budget | `migration_latency` | `migration_latency.csv` |
//! | §3.1.1 op 3: admission tests are safe and ordered | `schedulability_sweep` | `schedulability_sweep.csv` |
//! | §3.1.1 op 7: annealing tracks the exact assignment optimum | `bqp_optimizer` | — |
//! | §1: the assembly-line retool keeps every deadline | `mode_change` | `mode_change.csv` |
//! | §4.2 obj. 2–3: capacity expansion and replication | `capacity_expansion` | `capacity_expansion.csv` |
//! | §4.2 obj. 4: failover survives link loss, never falsely | `loss_sweep` | `loss_sweep.csv` |
//! | Many VCs share one cycle, failover latency flat | `multi_vc_scaling` | `multi_vc_scaling.csv`, `multi_vc_scaling_vcs.csv` |
//! | Every layout family fails over within seconds | `topology_diversity` | `topology_diversity.csv`, `topology_diversity_reuse.csv` |
//! | A dead forwarder is rerouted within a few cycles | `reconfig_latency` | `reconfig_latency.csv` |
//! | Builder topologies close the loop on the sweep path | `scenario_diversity` | — |
//! | Dense and sparse fleets actuate every VC | `fleet_scaling` | — |
//!
//! Speed is not measured here: `perfbench/` owns every wall-clock number.

use std::fs;
use std::path::Path;

use evm::core::runtime::{Engine, Layout, ReroutePolicy, Role, Scenario, ScenarioBuilder};
use evm::core::synthesis::{NodeRes, SynthesisProblem, TaskReq};
use evm::core::{RunResult, VcId, VcRunStats};
use evm::mac::timesync::{sample_pairwise_error, SyncConfig, TimeSync};
use evm::mac::{BMac, DutyCycledMac, RtLink, SMac, Workload};
use evm::netsim::{Battery, NodeCrash, NodeId};
use evm::plant::{standard_loops, ActuatorFault, GasPlant, LocalController, Plant};
use evm::rtos::{
    assign_rate_monotonic, hyperbolic_test, liu_layland_bound, response_time_analysis, Executor,
    Kernel, TaskImage, TaskSet, TaskSpec,
};
use evm::sim::{derive_seed, merged_csv, SimDuration, SimRng, SimTime};
use evm::sweep::{available_threads, run_cells, run_indexed, StarShape, SweepGrid, SweepReport};

/// Writes one result CSV under `target/paper_results/`.
fn write_result(name: &str, content: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/paper_results");
    fs::create_dir_all(&dir).expect("create results dir");
    fs::write(dir.join(name), content).expect("write result file");
}

/// E1, Fig. 4: the gas plant's steady-state stream table under the eight
/// standard loops after 30 simulated minutes.
#[test]
fn fig4_steady_state() {
    let mut plant = GasPlant::default();
    let mut loops: Vec<LocalController> = standard_loops()
        .into_iter()
        .map(LocalController::new)
        .collect();
    let dt = 0.25;
    let mut t = 0.0;
    for _ in 0..(1800.0 / dt) as usize {
        for c in &mut loops {
            let _ = c.poll(&mut plant, t);
        }
        plant.step(dt);
        t += dt;
    }

    let get = |tag: &str| plant.read_tag(tag).unwrap_or(f64::NAN);
    let cfg = plant.config();
    let feed = cfg.feed_kmolh;
    let chilled = get("Chiller.OutletTempK");
    let rows = [
        ("RawFeed", feed, cfg.feed_t_k, cfg.feed_p_kpa),
        (
            "SepLiq",
            get("SepLiq.MolarFlow"),
            cfg.feed_t_k,
            cfg.feed_p_kpa,
        ),
        (
            "ChillerOut",
            feed - get("SepLiq.MolarFlow"),
            chilled,
            cfg.lts_p_kpa,
        ),
        (
            "SalesGas",
            get("SalesGas.MolarFlow"),
            get("SalesGas.TempK"),
            cfg.lts_p_kpa,
        ),
        ("LTSLiq", get("LTSLiq.MolarFlow"), chilled, cfg.lts_p_kpa),
        (
            "TowerFeed",
            get("TowerFeed.MolarFlow"),
            chilled,
            cfg.column_p_kpa,
        ),
        (
            "Bottoms",
            get("Bottoms.MolarFlow"),
            360.0,
            get("Column.PressureKPa"),
        ),
        (
            "Distillate",
            get("Distillate.MolarFlow"),
            310.0,
            get("Column.PressureKPa"),
        ),
    ];
    let mut csv = String::from("stream,kmol_h,t_k,p_kpa\n");
    for (name, flow, tk, pk) in rows {
        csv.push_str(&format!("{name},{flow:.3},{tk:.2},{pk:.1}\n"));
    }
    let level = get("LTS.LiquidPct");
    let valve = get("LTSLiqValve.OpeningPct");
    csv.push_str(&format!(
        "#lts_level,{level:.3}\n#lts_valve_pct,{valve:.3}\n#bottoms_c3,{:.5}\n",
        get("Column.BottomsC3Frac")
    ));
    write_result("fig4_steady_state.csv", &csv);

    assert!((level - 50.0).abs() < 3.0, "LTS level regulated: {level}");
    assert_eq!(format!("{valve:.2}"), "11.48", "the paper's LTS valve");
    assert!(
        (get("TowerFeed.MolarFlow") - get("SepLiq.MolarFlow") - get("LTSLiq.MolarFlow")).abs()
            < 1.0,
        "mixer balance"
    );
}

/// E4, Fig. 5 and objective 5: on the 7-node testbed over 5 minutes the
/// control cycle is at most 1/4 s and the sensor→actuator latency at
/// most a third of it.
#[test]
fn fig5_hil_latency() {
    let scenario = Scenario::builder()
        .duration(SimDuration::from_secs(300))
        .build();
    let cycle = scenario.rtlink.cycle_duration();
    let result = Engine::new(scenario).run();
    let quantile = |q: f64| result.e2e_quantile(q).expect("latencies recorded");

    let mut csv = String::from("quantile,latency_us\n");
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        csv.push_str(&format!("{q},{}\n", quantile(q).as_micros()));
    }
    write_result("fig5_hil_latency.csv", &csv);

    // Per-node radio energy over the run (the testbed's energy budget).
    let mut ecsv = String::from("node,radio_duty,avg_ma,lifetime_years\n");
    for (name, e) in result.node_energy.by_label() {
        ecsv.push_str(&format!(
            "{name},{:.5},{:.5},{:.3}\n",
            e.radio_duty, e.avg_current_ma, e.lifetime_years
        ));
    }
    write_result("fig5_node_energy.csv", &ecsv);

    assert!(cycle <= SimDuration::from_millis(250), "objective 5: cycle");
    assert!(
        quantile(0.99) <= cycle / 3,
        "objective 5: latency <= 1/3 cycle"
    );
    assert_eq!(quantile(0.5), SimDuration::from_micros(31_292), "p50");
}

/// E2/E3, Fig. 6b: the primary's output sticks at 75 % at T1 = 300 s, the
/// backup takes over at the 600 s epoch (T2) and the primary goes
/// dormant at T3 = 800 s; the LTS level drops, collapses and recovers.
#[test]
fn fig6b_failover() {
    let result = Engine::new(Scenario::fig6b()).run();
    let tags = [
        "LTS.LiquidPct",
        "SepLiq.MolarFlow",
        "LTSLiq.MolarFlow",
        "TowerFeed.MolarFlow",
    ];
    let series: Vec<_> = tags.iter().map(|t| result.series(t)).collect();
    write_result("fig6b_series.csv", &merged_csv(&series));

    let at = |needle: &str| {
        let t = result.event_time(needle).expect(needle);
        format!("{:.3}", t.as_secs_f64())
    };
    assert_eq!(at("inject"), "300.000", "T1");
    assert_eq!(at("Ctrl-B -> Active"), "600.061", "T2");
    assert_eq!(at("Ctrl-A -> Dormant"), "800.061", "T3");

    let level = result.series("LTS.LiquidPct");
    let stats = |from: u64, to: u64| {
        let w = level.window(SimTime::from_secs(from), SimTime::from_secs(to));
        w.stats().expect("sampled")
    };
    let collapse = stats(500, 600);
    assert!(stats(100, 300).mean > 45.0, "stable before the fault");
    assert!(collapse.max < 20.0, "rapid drop after T1");
    assert!(
        stats(900, 1000).mean > collapse.mean + 5.0,
        "slow recovery after T2"
    );
}

/// Seconds the LTS level spends below `threshold`.
fn outage_below(r: &RunResult, threshold: f64) -> f64 {
    let s = r.series("LTS.LiquidPct");
    let mut secs = 0.0;
    for pair in s.samples().windows(2) {
        if pair[0].1 < threshold {
            secs += (pair[1].0 - pair[0].0).as_secs_f64();
        }
    }
    secs
}

/// E3: three variants of the Fig. 6b run isolate the design choices. The
/// paper-scripted run waits for the 300 s epoch; a warm backup with an
/// immediate epoch is detection-limited; a cold backup must first
/// receive and attest the capsule over one transfer slot per cycle.
#[test]
fn failover_ablation() {
    let variants = [
        ("paper-scripted", Scenario::fig6b()),
        ("fast-epoch", Scenario::fig6b_fast()),
        (
            "cold-migration",
            Scenario::builder()
                .fault_at(SimTime::from_secs(300), ActuatorFault::paper_fault())
                .reconfig_epoch(SimDuration::ZERO)
                .cold_backup()
                .transfer_slots(1)
                .build(),
        ),
    ];
    let runs = run_indexed(&variants, available_threads(), |_, (_, scenario)| {
        Engine::new(scenario.clone()).run()
    });
    let mut csv = String::from("variant,switch_s,outage_s,ise\n");
    let mut rows = Vec::new();
    for ((name, _), r) in variants.iter().zip(&runs) {
        let switch = r
            .event_time("Ctrl-B -> Active")
            .map_or(f64::NAN, |t| t.as_secs_f64());
        let outage = outage_below(r, 25.0);
        let ise = r.control_cost(
            "LTS.LiquidPct",
            50.0,
            SimTime::from_secs(300),
            SimTime::from_secs(1000),
        );
        csv.push_str(&format!("{name},{switch:.2},{outage:.1},{ise:.1}\n"));
        rows.push((switch, ise));
    }
    write_result("failover_ablation.csv", &csv);

    let [paper, fast, cold] = [rows[0], rows[1], rows[2]];
    assert!(fast.0 < paper.0, "fast epoch switches earlier");
    assert!(fast.1 < paper.1, "fast epoch costs less");
    assert!(
        cold.0 >= fast.0,
        "migration adds latency over a warm replica"
    );
}

/// E5, §2.1: "RT-Link outperforms … B-MAC and … S-MAC across all duty
/// cycles", with "an effective battery lifetime of 1.8 years with a 5 %
/// duty cycle". The ordering is the claim; the absolute years depend on
/// battery assumptions, and this model reads 2.21 y at 5 % duty against
/// the paper's ~1.8 y.
#[test]
fn mac_lifetime_duty() {
    let wl = Workload::periodic(2.0, 16, 6);
    let battery = Battery::two_aa();
    let protocols: [&dyn DutyCycledMac; 3] =
        [&RtLink::default(), &BMac::default(), &SMac::default()];
    let mut csv = String::from("duty_pct,rtlink_years,bmac_years,smac_years\n");
    for duty_pct in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
        let d = duty_pct / 100.0;
        let [rt, bm, sm] = protocols.map(|p| p.metrics(d, &wl, &battery).lifetime_years);
        csv.push_str(&format!("{duty_pct},{rt:.4},{bm:.4},{sm:.4}\n"));
        assert!(rt > bm && rt > sm, "RT-Link must win at {duty_pct} % duty");
    }
    write_result("mac_lifetime_duty.csv", &csv);

    let at5 = RtLink::default()
        .metrics(0.05, &wl, &battery)
        .lifetime_years;
    assert!(at5 > 1.0 && at5 < 4.0, "5 % operating point {at5} y");
    assert_eq!(format!("{at5:.2}"), "2.21", "lifetime at 5 % duty");
}

/// E6, §2.1: the RT-Link lifetime lead holds "across all … event rates"
/// at 5 % duty; B-MAC's preamble cost grows with traffic and S-MAC pays
/// idle listening regardless.
#[test]
fn mac_event_rate() {
    let battery = Battery::two_aa();
    let (rt, bm, sm) = (RtLink::default(), BMac::default(), SMac::default());
    let mut csv = String::from(
        "rate_per_min,rtlink_years,bmac_years,smac_years,rt_lat_ms,bm_lat_ms,sm_lat_ms\n",
    );
    for rate in [0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0] {
        let wl = Workload::periodic(rate, 32, 6);
        let d = 0.05;
        let life = [
            rt.metrics(d, &wl, &battery).lifetime_years,
            bm.metrics(d, &wl, &battery).lifetime_years,
            sm.metrics(d, &wl, &battery).lifetime_years,
        ];
        let lat = [
            rt.delivery_latency(d, &wl).as_secs_f64() * 1e3,
            bm.delivery_latency(d, &wl).as_secs_f64() * 1e3,
            sm.delivery_latency(d, &wl).as_secs_f64() * 1e3,
        ];
        csv.push_str(&format!(
            "{rate},{:.4},{:.4},{:.4},{:.2},{:.2},{:.2}\n",
            life[0], life[1], life[2], lat[0], lat[1], lat[2]
        ));
        assert!(
            life[0] > life[1] && life[0] > life[2],
            "RT-Link must win at {rate} events/min"
        );
    }
    write_result("mac_event_rate.csv", &csv);
}

/// E7, §2.1: the AM-carrier sync model keeps the pairwise slot
/// misalignment of two nodes below 150 µs over 100 000 resync cycles.
#[test]
fn sync_jitter() {
    let mut rng = SimRng::seed_from(20_090_601);
    let cfg = SyncConfig::default();
    let mut a = TimeSync::new(cfg.clone(), &mut rng);
    let mut b = TimeSync::new(cfg.clone(), &mut rng);
    let n = 100_000;
    let mut errors: Vec<f64> = Vec::with_capacity(n);
    let mut t = SimTime::ZERO;
    for _ in 0..n {
        a.resync(t, &mut rng);
        b.resync(t, &mut rng);
        errors.push(sample_pairwise_error(&a, &b, a.resync_interval(), &mut rng));
        t += cfg.resync_interval;
    }
    errors.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let q = |p: f64| errors[((errors.len() - 1) as f64 * p) as usize];

    let mut csv = String::from("quantile,error_us\n");
    for p in [0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
        csv.push_str(&format!("{p},{:.2}\n", q(p)));
    }
    write_result("sync_jitter.csv", &csv);

    assert!(q(1.0) < 150.0, "sub-150us claim");
    assert_eq!(format!("{:.1}", q(1.0)), "109.6", "worst pairwise error");
}

/// Head-kill scenario with the migration lane enabled: killing the head
/// re-elects a backup controller, which triggers the capsule transfer.
fn migration_scenario(pad_bytes: usize, slots: usize) -> Scenario {
    ScenarioBuilder::star()
        .line(2)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .backup_relays(1)
        .reroute(ReroutePolicy::Heartbeat)
        .crash_node_at(NodeId(6), SimTime::from_secs(10))
        .reconfig_epoch(SimDuration::ZERO)
        .duration(SimDuration::from_secs(60))
        .capsule_pad_bytes(pad_bytes)
        .transfer_slots(slots)
        .build()
}

/// E8, §3.1.1 op 1: a head re-election ships the primary's capsule over
/// the scheduled transfer slots; the measured latency grows with the
/// image size and shrinks as the lane widens.
#[test]
fn migration_latency() {
    let pads = [0usize, 256, 1024, 4096];
    let budgets = [1usize, 2, 4];
    let mut csv = String::from("pad_bytes,image_bytes,frames,slots,frames_sent,latency_s\n");
    // latencies[pad index][budget index]
    let mut latencies = vec![vec![0.0f64; budgets.len()]; pads.len()];
    for (pi, &pad) in pads.iter().enumerate() {
        for (bi, &slots) in budgets.iter().enumerate() {
            let r = Engine::new(migration_scenario(pad, slots)).run();
            assert_eq!(r.migrations.len(), 1, "head-kill must migrate exactly once");
            let m = &r.migrations[0];
            let lat = m.latency.as_secs_f64();
            latencies[pi][bi] = lat;
            csv.push_str(&format!(
                "{pad},{},{},{slots},{},{lat:.3}\n",
                m.image_bytes, m.frames, m.frames_sent
            ));
        }
    }
    write_result("migration_latency.csv", &csv);

    for bi in 0..budgets.len() {
        for pi in 1..pads.len() {
            assert!(
                latencies[pi][bi] >= latencies[pi - 1][bi],
                "latency not monotone in image size at x{}: {:?}",
                budgets[bi],
                latencies
            );
        }
    }
    let heavy = pads.len() - 1;
    for bi in 1..budgets.len() {
        assert!(
            latencies[heavy][bi] <= latencies[heavy][bi - 1],
            "latency not monotone in slot budget: {:?}",
            latencies[heavy]
        );
    }
    // Size × bandwidth, not a constant failover overhead.
    assert!(latencies[heavy][0] > latencies[0][0] * 2.0);
}

/// Random task set with `n` tasks scaled to total utilization `u`
/// (UUniFast).
fn random_set(rng: &mut SimRng, n: usize, u: f64) -> TaskSet {
    let mut sum_u = u;
    let mut utils = Vec::with_capacity(n);
    for i in 1..n {
        let next = sum_u * rng.uniform().powf(1.0 / (n - i) as f64);
        utils.push(sum_u - next);
        sum_u = next;
    }
    utils.push(sum_u);
    let mut set = TaskSet::new();
    for (i, ui) in utils.iter().enumerate() {
        let period_ms = [10u64, 20, 40, 50, 100, 200][rng.index(6)];
        let period = SimDuration::from_millis(period_ms);
        let wcet =
            SimDuration::from_micros(((period.as_micros() as f64 * ui).round() as u64).max(1));
        if wcet > period {
            continue;
        }
        set.push(TaskSpec::new(format!("t{i}"), wcet, period));
    }
    assign_rate_monotonic(&mut set);
    set
}

/// E9, §3.1.1 op 3: on 500 random 6-task sets per utilization point, the
/// Liu–Layland and hyperbolic bounds never accept what exact
/// response-time analysis rejects, and hyperbolic dominates Liu–Layland.
/// Each point draws from its own derived RNG stream.
#[test]
fn schedulability_sweep() {
    const TRIALS: usize = 500;
    let points: Vec<f64> = (5..=10).map(|u10| f64::from(u10) / 10.0).collect();
    let accepted = run_indexed(&points, available_threads(), |idx, &u| {
        let mut rng = SimRng::seed_from(derive_seed(9, idx as u64));
        let mut acc = [0usize; 3];
        for _ in 0..TRIALS {
            let set = random_set(&mut rng, 6, u);
            acc[0] += usize::from(liu_layland_bound(set.len()) >= set.total_utilization());
            acc[1] += usize::from(hyperbolic_test(&set).schedulable);
            acc[2] += usize::from(response_time_analysis(&set).schedulable);
        }
        acc
    });
    let mut csv = String::from("utilization,ll_accept,hyp_accept,rta_accept\n");
    for (u, acc) in points.iter().zip(&accepted) {
        let r = |k: usize| acc[k] as f64 / TRIALS as f64;
        csv.push_str(&format!("{u},{},{},{}\n", r(0), r(1), r(2)));
        assert!(acc[0] <= acc[2] && acc[1] <= acc[2], "bounds must be safe");
        assert!(acc[0] <= acc[1], "hyperbolic dominates LL");
    }
    write_result("schedulability_sweep.csv", &csv);
}

/// A random task→node mapping instance on a line of nodes.
fn random_problem(rng: &mut SimRng, n_tasks: usize, n_nodes: usize) -> SynthesisProblem {
    let tasks = (0..n_tasks)
        .map(|i| TaskReq {
            name: format!("t{i}"),
            cpu_util: rng.range(0.05, 0.3),
            slots: 1,
            sensor_node: Some(rng.index(n_nodes)),
            actuator_node: Some(rng.index(n_nodes)),
        })
        .collect();
    let nodes = (0..n_nodes)
        .map(|i| NodeRes {
            id: NodeId(i as u16),
            cpu_capacity: 0.8,
            slot_capacity: 8,
        })
        .collect();
    let hops = (0..n_nodes)
        .map(|i| (0..n_nodes).map(|j| (i as f64 - j as f64).abs()).collect())
        .collect();
    SynthesisProblem {
        tasks,
        nodes,
        hops,
        w_comm: 1.0,
        w_balance: 0.5,
    }
}

/// E10, §3.1.1 op 7: on 30 random instances per size, simulated
/// annealing on the BQP encoding stays within 10 % of the exhaustive
/// optimum and at least matches greedy.
#[test]
fn bqp_optimizer() {
    let mut rng = SimRng::seed_from(10);
    let instances = 30;
    for (n_tasks, n_nodes) in [(4, 3), (6, 4), (8, 4)] {
        let mut greedy_ratio = 0.0;
        let mut sa_ratio = 0.0;
        for _ in 0..instances {
            let p = random_problem(&mut rng, n_tasks, n_nodes);
            let exact = p.cost(&p.solve_exhaustive());
            let greedy = p.cost(&p.solve_greedy());
            let sa = p.cost(&p.solve_anneal(&mut rng, 4_000));
            assert!(
                greedy >= exact - 1e-9 && sa >= exact - 1e-9,
                "exact is a lower bound"
            );
            greedy_ratio += greedy / exact;
            sa_ratio += sa / exact;
        }
        let k = f64::from(instances);
        let (greedy_ratio, sa_ratio) = (greedy_ratio / k, sa_ratio / k);
        assert!(
            sa_ratio <= greedy_ratio + 0.02,
            "{n_tasks}x{n_nodes}: SA {sa_ratio} vs greedy {greedy_ratio}"
        );
        assert!(sa_ratio < 1.10, "{n_tasks}x{n_nodes}: SA/opt {sa_ratio}");
    }
}

/// E11, §1 "Adaptive Resource Re-appropriation": a station kernel hosting
/// the Camry tasks admits the Prius tasks of the 3:2 interleave through
/// the schedulability gate with zero deadline misses; an overloaded
/// retool is refused and leaves the running mode untouched.
#[test]
fn mode_change() {
    let ms = SimDuration::from_millis;
    let admit = |k: &mut Kernel, name: &str, wcet: u64, period: u64| {
        k.admit(
            TaskSpec::new(name, ms(wcet), ms(period)),
            TaskImage::typical_control_task(),
            None,
        )
    };
    let mut station = Kernel::new("station-7");
    admit(&mut station, "camry-weld", 30, 100).expect("camry weld");
    admit(&mut station, "camry-bolt", 20, 200).expect("camry bolt");
    admit(&mut station, "prius-battery", 40, 250).expect("prius battery fits");
    admit(&mut station, "prius-inverter", 25, 500).expect("prius inverter fits");

    let set = station.active_set();
    let log = Executor::new(SimTime::from_secs(4)).run(&set);
    assert_eq!(log.misses.len(), 0, "no unit may miss across the retool");

    let err = admit(&mut station, "prius-paint", 90, 200);
    assert!(err.is_err(), "overload must be refused");
    assert_eq!(station.active_set(), set, "refusal is a no-op");

    write_result(
        "mode_change.csv",
        &format!(
            "mode,utilization,schedulable,misses\ncamry_only,0.35,1,0\ninterleaved,{:.3},1,0\n",
            station.utilization()
        ),
    );
}

/// E12, §4.2 objectives 2–3: a fixed 8-task load spreads as the
/// controller pool grows (max per-node utilization never rises), and
/// sampled loop availability under replication matches `1 − p^k`.
#[test]
fn capacity_expansion() {
    let tasks: Vec<TaskReq> = (0..8)
        .map(|i| TaskReq {
            name: format!("loop{i}"),
            cpu_util: 0.18,
            slots: 1,
            sensor_node: None,
            actuator_node: None,
        })
        .collect();
    let pool_sizes: Vec<usize> = (2..=6).collect();
    let points = run_indexed(&pool_sizes, available_threads(), |i, &n_nodes| {
        let mut rng = SimRng::seed_from(derive_seed(12, i as u64));
        let p = SynthesisProblem {
            tasks: tasks.clone(),
            nodes: (0..n_nodes)
                .map(|i| NodeRes {
                    id: NodeId(i as u16),
                    cpu_capacity: 0.8,
                    slot_capacity: 8,
                })
                .collect(),
            hops: vec![vec![1.0; n_nodes]; n_nodes],
            w_comm: 0.0,
            w_balance: 1.0,
        };
        let a = p.solve_anneal(&mut rng, 6_000);
        let mut per_node = vec![0.0f64; n_nodes];
        for (t, &n) in a.task_to_node.iter().enumerate() {
            per_node[n] += p.tasks[t].cpu_util;
        }
        let max_util = per_node.iter().copied().fold(0.0, f64::max);
        (max_util, p.is_feasible(&a))
    });
    let mut csv = String::from("controllers,max_util,feasible\n");
    let mut prev_max = f64::INFINITY;
    for (n_nodes, &(max_util, feasible)) in pool_sizes.iter().zip(&points) {
        csv.push_str(&format!("{n_nodes},{max_util:.3},{}\n", u8::from(feasible)));
        assert!(
            max_util <= prev_max + 1e-9,
            "more nodes must not raise the max"
        );
        prev_max = max_util;
    }

    csv.push_str("replicas,avail_p05,avail_p10,avail_p20,sampled_p10\n");
    let degrees: Vec<u32> = (1..=4).collect();
    let sampled = run_indexed(&degrees, available_threads(), |i, &k| {
        let mut rng = SimRng::seed_from(derive_seed(13, i as u64));
        let trials = 100_000;
        let up = (0..trials)
            .filter(|_| (0..k).any(|_| !rng.chance(0.10)))
            .count();
        up as f64 / f64::from(trials)
    });
    for (&k, &sampled) in degrees.iter().zip(&sampled) {
        let analytic = |p: f64| 1.0 - p.powi(k as i32);
        csv.push_str(&format!(
            "{k},{:.5},{:.5},{:.5},{sampled:.5}\n",
            analytic(0.05),
            analytic(0.10),
            analytic(0.20),
        ));
        assert!((sampled - analytic(0.10)).abs() < 0.01, "sampling agrees");
    }
    write_result("capacity_expansion.csv", &csv);
}

/// E14, §4.2 objective 4: with the fault at 100 s and an immediate epoch,
/// four seeds per extra-loss point up to 40 % all detect the fault,
/// never before it happens, and always fail over; loss delays detection
/// but does not speed it up.
#[test]
fn loss_sweep() {
    let template = Scenario::builder()
        .seed(14)
        .duration(SimDuration::from_secs(600))
        .fault_at(SimTime::from_secs(100), ActuatorFault::paper_fault())
        .reconfig_epoch(SimDuration::ZERO)
        .build();
    let cells = SweepGrid::new(template)
        .over_loss(&[0.0, 0.1, 0.2, 0.4])
        .seeds_per_cell(4)
        .expand();
    let report = SweepReport::build(&cells, &run_cells(&cells, available_threads()));
    write_result("loss_sweep.csv", &report.to_csv());

    for (config, stats) in &report.cells {
        let (loss, seed) = (config.loss, config.seed);
        let detect = stats.detect_s.expect("every replicate detects");
        assert!(detect >= 100.0, "loss {loss} seed {seed}: false positive");
        let failover = stats.failover_s.expect("every replicate commits");
        assert!(failover >= 0.0, "loss {loss} seed {seed}: early commit");
        assert!(!stats.fail_safe, "a backup always survives");
    }
    let mut prev_detect = 0.0;
    for r in &report.rows {
        assert_eq!(r.detected_runs, r.runs, "loss must not defeat detection");
        assert_eq!(r.fail_safe_runs, 0, "a backup always survives");
        assert!(
            r.detect_mean_s >= prev_detect - 2.0,
            "loss should not speed detection up"
        );
        prev_detect = r.detect_mean_s;
    }
}

/// Time of the first trace entry that is exactly `message`. A substring
/// search would also match the `Vk.`-prefixed lines of other VCs.
fn first_exact(r: &RunResult, message: &str) -> f64 {
    r.trace
        .entries()
        .iter()
        .find(|e| e.message == message)
        .unwrap_or_else(|| panic!("no `{message}` line"))
        .at
        .as_secs_f64()
}

/// E15: 1–4 VCs share one RT-Link cycle, VC 0's primary crashes at 30 s;
/// every hosted loop keeps its deadlines and regulates, and VC 0's
/// failover latency stays flat as the pool grows.
#[test]
fn multi_vc_scaling() {
    const CRASH_S: u64 = 30;
    // 1 sensor + 2 controllers + 1 actuator + head per VC: six flows per
    // chain, so four VCs exactly fill the default 24 data slots.
    let scenario = |vcs: usize| {
        ScenarioBuilder::star()
            .vcs(vcs)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .crash_vc_primary_at(0, SimTime::from_secs(CRASH_S))
            .reconfig_epoch(SimDuration::ZERO)
            .duration(SimDuration::from_secs(120))
            .build()
    };
    let pool: Vec<usize> = (1..=4).collect();
    let outcomes = run_indexed(&pool, available_threads(), |_, &vcs| {
        let engine = Engine::new(scenario(vcs));
        let cycle_slots = engine.schedule().max_slot().expect("scheduled") + 1;
        (cycle_slots, engine.run())
    });

    let mut csv = String::from("vcs,nodes,cycle_slots,failover_s,min_hit_ratio,max_rel_err\n");
    let mut vc_csv = String::from("vcs,vc,loop,actuations,hit_ratio,ise\n");
    let mut failovers = Vec::new();
    for (&vcs, (cycle_slots, r)) in pool.iter().zip(&outcomes) {
        let failover = first_exact(r, "Ctrl-B -> Active") - CRASH_S as f64;
        let min_hit = r
            .vc_stats
            .iter()
            .map(VcRunStats::deadline_hit_ratio)
            .fold(1.0, f64::min);
        // Worst late regulation error across VCs, relative to each loop's
        // setpoint scale, after the failover settles.
        let spec = scenario(vcs);
        let max_err = (0..vcs)
            .map(|k| {
                let name = &r.vc_stats[k].loop_name;
                let scale = spec.vc_loop(k as VcId).setpoint.abs().max(1.0);
                r.series(&format!("Err.{name}"))
                    .window(SimTime::from_secs(100), SimTime::from_secs(120))
                    .stats()
                    .map_or(f64::NAN, |s| s.max.abs().max(s.min.abs()) / scale)
            })
            .fold(0.0, f64::max);
        csv.push_str(&format!(
            "{vcs},{},{cycle_slots},{failover:.3},{min_hit:.4},{max_err:.4}\n",
            r.meta.nodes
        ));
        for (k, vs) in r.vc_stats.iter().enumerate() {
            vc_csv.push_str(&format!(
                "{vcs},{k},{},{},{:.4},{:.2}\n",
                vs.loop_name,
                vs.actuations,
                vs.deadline_hit_ratio(),
                r.series(&format!("Err.{}", vs.loop_name))
                    .window(SimTime::from_secs(CRASH_S), SimTime::from_secs(120))
                    .integral_squared_error(0.0),
            ));
        }

        // The actuation floor keeps the hit ratio from holding vacuously.
        assert!(min_hit > 0.99, "vcs={vcs}: hit ratio {min_hit}");
        for vs in &r.vc_stats {
            assert!(
                vs.actuations > 150,
                "vcs={vcs}: {} starved ({} actuations)",
                vs.loop_name,
                vs.actuations
            );
        }
        assert!(max_err < 0.05, "vcs={vcs}: late relative err {max_err}");
        failovers.push(failover);
    }
    write_result("multi_vc_scaling.csv", &csv);
    write_result("multi_vc_scaling_vcs.csv", &vc_csv);

    // VC 0's heartbeat window dominates, so latency stays within one
    // cycle of the single-VC case.
    for (vcs, &fo) in pool.iter().zip(&failovers) {
        assert!(
            (fo - failovers[0]).abs() < 0.5,
            "vcs={vcs}: failover latency drifted {} -> {fo}",
            failovers[0]
        );
    }
}

/// E16: the same 8-node budget in all four layout families (star, 2-hop
/// line, 2×4 grid, 3-hop cluster) closes the loop and fails over within
/// seconds of a misbehaving primary, whatever the hop count; and the
/// clustered 2-VC schedule with spatial reuse is strictly shorter than
/// its serialized twin.
#[test]
fn topology_diversity() {
    const FAULT_S: u64 = 30;
    let scenario = |layout: Layout| {
        let b = ScenarioBuilder::star()
            .fault_at(SimTime::from_secs(FAULT_S), ActuatorFault::paper_fault())
            .reconfig_epoch(SimDuration::ZERO)
            .duration(SimDuration::from_secs(120));
        let b = match layout {
            // GW + 3 sensors + 2 controllers + actuator + head.
            Layout::Star => b.sensors(3),
            // GW + 2 sensors + 2 controllers + actuator + head + 1 relay.
            Layout::Line { hops } => b.line(hops).sensors(2),
            // 8 cells: 6 roles + 2 relays.
            Layout::Grid { w, h } => b.grid(w, h).sensors(1),
            // GW + 5 cluster members + 2 chain relays.
            Layout::Clustered => b.clustered(1).sensors(1),
        };
        b.controllers(2).actuators(1).head(true).build()
    };
    let layouts = [
        Layout::Star,
        Layout::Line { hops: 2 },
        Layout::Grid { w: 2, h: 4 },
        Layout::Clustered,
    ];
    let outcomes = run_indexed(&layouts, available_threads(), |_, &layout| {
        let engine = Engine::new(scenario(layout));
        let cycle_slots = engine.schedule().max_slot().expect("scheduled") + 1;
        (cycle_slots, engine.run())
    });

    let mut csv = String::from("topology,nodes,cycle_slots,failover_s,hit_ratio,late_abs_err\n");
    for (&layout, (cycle_slots, r)) in layouts.iter().zip(&outcomes) {
        let label = layout.label();
        let failover = first_exact(r, "Ctrl-B -> Active") - FAULT_S as f64;
        let hit = r.deadline_hit_ratio();
        let late_err = r
            .series("Err.LC-LTS")
            .window(SimTime::from_secs(100), SimTime::from_secs(120))
            .stats()
            .map_or(f64::NAN, |s| s.max.abs().max(s.min.abs()));
        csv.push_str(&format!(
            "{label},{},{cycle_slots},{failover:.3},{hit:.4},{late_err:.4}\n",
            r.meta.nodes,
        ));

        assert_eq!(r.meta.nodes, 8, "{label}: node budget");
        // The actuation floor keeps the hit ratio from holding vacuously.
        assert!(hit > 0.99, "{label}: hit ratio {hit}");
        assert!(r.actuations > 400, "{label}: {} actuations", r.actuations);
        assert!(late_err < 1.0, "{label}: late error {late_err}");
        // Detection-dominated (a few deviating cycles), not hop-dominated.
        assert!(
            failover > 0.0 && failover < 5.0,
            "{label}: failover latency {failover}"
        );
    }
    write_result("topology_diversity.csv", &csv);

    let cycle = |serial: bool| {
        let s = ScenarioBuilder::star()
            .clustered(2)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .slots_per_cycle(33)
            .serial_schedule(serial)
            .duration(SimDuration::from_secs(1))
            .build();
        Engine::new(s).schedule().max_slot().expect("scheduled")
    };
    let (reused, serialized) = (cycle(false), cycle(true));
    write_result(
        "topology_diversity_reuse.csv",
        &format!("schedule,slots\nreused,{reused}\nserialized,{serialized}\n"),
    );
    assert!(
        reused < serialized,
        "spatial reuse must shorten the clustered cycle"
    );
}

/// E17: across the multi-hop families (2-hop line with a backup chain,
/// 3×3 grid, 3-hop cluster with a backup chain) a crashed relay that
/// carries forwarding jobs is marked down within the heartbeat bound,
/// the recomputed epoch commits within two cycles and delivery resumes
/// within four. On the chains the static twin starves; the grid's
/// controller consumes the PV en route, so there the reroute must only
/// never hurt delivery.
#[test]
fn reconfig_latency() {
    const CRASH_S: u64 = 30;
    let scenario = |layout: Layout| {
        let b = ScenarioBuilder::star()
            .reroute(ReroutePolicy::Heartbeat)
            .duration(SimDuration::from_secs(120));
        match layout {
            Layout::Line { hops } => b
                .line(hops)
                .sensors(1)
                .controllers(2)
                .actuators(1)
                .head(true)
                .backup_relays(1)
                .build(),
            // 9 cells: 5 roles + 3 relays + the far-corner sensor; the
            // lattice's own redundancy replaces a backup chain.
            Layout::Grid { w, h } => b
                .grid(w, h)
                .sensors(1)
                .controllers(1)
                .actuators(1)
                .head(true)
                .slots_per_cycle(33)
                .build(),
            Layout::Clustered => b
                .clustered(1)
                .sensors(1)
                .controllers(2)
                .actuators(1)
                .head(true)
                .backup_relays(1)
                .slots_per_cycle(33)
                .build(),
            Layout::Star => unreachable!("single-hop stars have no forwarders"),
        }
    };
    let layouts = [
        Layout::Line { hops: 2 },
        Layout::Grid { w: 3, h: 3 },
        Layout::Clustered,
    ];
    let outcomes = run_indexed(&layouts, available_threads(), |_, &layout| {
        let mut s = scenario(layout);
        // The victim is the first dedicated relay on the engine's own
        // epoch-0 routes: a relay off those routes would be a no-op kill.
        let carriers = Engine::new(s.clone()).forwarding_nodes();
        let victim = s
            .topology
            .nodes
            .iter()
            .find(|n| matches!(n.role, Role::Relay(_)) && carriers.contains(&n.id))
            .expect("a dedicated relay carries jobs");
        let label = victim.label.clone();
        s.fault_plan
            .add_crash(NodeCrash::permanent(victim.id, SimTime::from_secs(CRASH_S)));
        let mut frozen = s.clone();
        frozen.reroute = ReroutePolicy::Static;
        (label, Engine::new(s).run(), Engine::new(frozen).run())
    });

    let mut csv = String::from(
        "topology,victim,detect_cycles,commit_cycles,recover_cycles,actuations,static_actuations\n",
    );
    for (&layout, (victim, r, frozen)) in layouts.iter().zip(&outcomes) {
        let label = layout.label();
        let s = scenario(layout);
        let cyc = |d: SimDuration| d.as_secs_f64() / s.rtlink.cycle_duration().as_secs_f64();
        let down = r.event_time("missed heartbeats").expect("detection");
        let committed = r.event_time("epoch 1 committed").expect("commit");
        let detect = cyc(down.saturating_since(SimTime::from_secs(CRASH_S)));
        let commit = cyc(committed.saturating_since(down));
        let recover = cyc(r.reroute_latency.expect("delivery resumed"));
        csv.push_str(&format!(
            "{label},{victim},{detect:.2},{commit:.2},{recover:.2},{},{}\n",
            r.actuations, frozen.actuations,
        ));

        assert_eq!(r.epochs, 1, "{label}: one recomputed epoch");
        assert_eq!(frozen.epochs, 0);
        let hb = s.heartbeat_cycles as f64;
        assert!(detect <= hb + 3.0, "{label}: detect {detect} cycles");
        assert!(commit <= 2.0, "{label}: commit {commit} cycles");
        assert!(recover <= 4.0, "{label}: recovery {recover} cycles");
        if matches!(layout, Layout::Grid { .. }) {
            assert!(
                r.actuations >= frozen.actuations,
                "{label}: rerouted {} vs frozen {}",
                r.actuations,
                frozen.actuations
            );
        } else {
            assert!(
                r.actuations > 2 * frozen.actuations,
                "{label}: rerouted {} vs frozen {}",
                r.actuations,
                frozen.actuations
            );
        }
        let err = r.series("Err.LC-LTS").last_value().expect("sampled");
        assert!(err.abs() < 0.5, "{label}: late error {err}");
    }
    write_result("reconfig_latency.csv", &csv);
}

/// Builder-made stars from the degenerate 3-node loop to a wide 11-node
/// star, run as one sweep-grid star axis over 120 s: every topology
/// closes its loop every cycle and meets its deadlines.
#[test]
fn scenario_diversity() {
    let mut template = Scenario::baseline();
    template.duration = SimDuration::from_secs(120);
    let shapes = [
        StarShape {
            sensors: 1,
            controllers: 1,
            actuators: 0,
            head: false,
        },
        StarShape::fig5(),
        StarShape {
            sensors: 4,
            controllers: 4,
            actuators: 1,
            head: true,
        },
    ];
    let cells = SweepGrid::new(template).over_stars(&shapes).expand();
    let results = run_cells(&cells, available_threads());
    for (cell, r) in cells.iter().zip(&results) {
        let nodes = cell.scenario.topology.nodes.len();
        // 120 s at a 250 ms cycle is 480 cycles; the floor keeps the hit
        // ratio from holding vacuously for a loop that never closed.
        assert!(r.actuations >= 470, "{nodes} nodes: {}", r.actuations);
        let hit = r.deadline_hit_ratio();
        assert!(hit > 0.99, "{nodes} nodes: deadline ratio {hit}");
    }
    assert_eq!(
        SweepReport::build(&cells, &results).rows.len(),
        shapes.len()
    );
}

/// E18: the serial fleet deployment actuates every VC, both on its
/// default 8× slot headroom (dense) and stretched to a 1024× headroom
/// (sparse, about 0.1 % duty), where idle air dominates the cycle.
#[test]
fn fleet_scaling() {
    let n = 64;
    let mut dense = Scenario::builder().fleet(n).build();
    dense.duration = dense.rtlink.cycle_duration() * 2;
    let mut sparse = Scenario::builder().fleet(n).build();
    sparse.rtlink.slots_per_cycle = 1024 * (3 * n + 1);
    let cycle = sparse.rtlink.cycle_duration();
    sparse.sample_every = cycle / 4;
    // The plant is unconditionally stable: integrate it at cycle/64 so
    // its cost does not grow with the stretched cycle.
    sparse.plant_dt = sparse.plant_dt.max(cycle / 64);
    sparse.duration = cycle * 2;
    for (kind, s) in [("dense", dense), ("sparse", sparse)] {
        let r = Engine::new(s).run();
        assert_eq!(r.vc_stats.len(), n, "{kind}: one stats row per VC");
        let idle = r.vc_stats.iter().position(|v| v.actuations == 0);
        assert_eq!(idle, None, "{kind}: a VC never actuated");
    }
}
