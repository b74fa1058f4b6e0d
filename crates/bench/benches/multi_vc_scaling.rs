//! E15 — multi-VC scaling: loops hosted vs. cycle length vs. failover
//! latency.
//!
//! The runtime counterpart of the `capacity_expansion` optimizer bench
//! (§4.2 objectives 2–3): instead of *planning* a bigger controller pool,
//! the engine actually *hosts* 1–4 Virtual Components on one shared
//! RT-Link cycle, crashes VC 0's primary mid-run, and reports per pool
//! size:
//!
//! * the schedule's effective cycle length (highest slot used),
//! * VC 0's crash-to-promotion failover latency,
//! * every VC's actuation count, deadline hit ratio and regulation cost.
//!
//! Asserted: the shared cycle closes every hosted loop (all VCs meet
//! deadlines and regulate), and VC 0's failover latency stays flat as
//! the pool grows — hosting more loops does not slow the fault plane.

use std::time::Instant;

use evm_bench::{banner, f, row, write_result};
use evm_core::bytecode::Tier;
use evm_core::runtime::{Engine, Scenario, ScenarioBuilder};
use evm_sim::{SimDuration, SimTime};
use evm_sweep::{available_threads, run_indexed};

const CRASH_S: u64 = 30;

fn scenario(vcs: usize) -> Scenario {
    // 1 sensor + 2 controllers + 1 actuator + head per VC: six flows per
    // chain, so four VCs exactly fill the default 24 data slots.
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
}

fn main() {
    banner(
        "E15",
        "multi-VC scaling: loops hosted vs cycle length vs failover latency",
    );
    let pool: Vec<usize> = (1..=4).collect();
    // One engine per pool size on the sweep executor; the cycle length is
    // read off the schedule before the run.
    let outcomes = run_indexed(&pool, available_threads(), |_, &vcs| {
        let engine = Engine::new(scenario(vcs));
        let cycle_slots = engine.schedule().max_slot().expect("scheduled") + 1;
        (cycle_slots, engine.run())
    });

    println!(
        "{}",
        row(&[
            "vcs".into(),
            "nodes".into(),
            "cycle slots".into(),
            "failover [s]".into(),
            "min hit ratio".into(),
            "max rel err".into(),
        ])
    );
    let mut csv = String::from("vcs,nodes,cycle_slots,failover_s,min_hit_ratio,max_rel_err\n");
    let mut vc_csv = String::from("vcs,vc,loop,actuations,hit_ratio,ise\n");
    let mut failovers = Vec::new();
    for (&vcs, (cycle_slots, r)) in pool.iter().zip(&outcomes) {
        // Anchor the needle to VC 0: "Ctrl-B -> Active" is a substring of
        // the Vk.-prefixed promotions, so substring search alone could
        // pick up another VC's failover.
        let promoted = r
            .trace
            .entries()
            .iter()
            .find(|e| e.message == "Ctrl-B -> Active")
            .expect("VC 0 must fail over")
            .at
            .as_secs_f64();
        let failover = promoted - CRASH_S as f64;
        let min_hit = r
            .vc_stats
            .iter()
            .map(evm_core::VcRunStats::deadline_hit_ratio)
            .fold(1.0, f64::min);
        // Worst late regulation error across VCs, relative to each loop's
        // setpoint scale (after the failover settles).
        let spec = scenario(vcs);
        let max_err = (0..vcs)
            .map(|k| {
                let name = &r.vc_stats[k].loop_name;
                let scale = spec.vc_loop(k as evm_core::VcId).setpoint.abs().max(1.0);
                r.series(&format!("Err.{name}"))
                    .window(SimTime::from_secs(100), SimTime::from_secs(120))
                    .stats()
                    .map_or(f64::NAN, |s| s.max.abs().max(s.min.abs()) / scale)
            })
            .fold(0.0, f64::max);
        println!(
            "{}",
            row(&[
                format!("{vcs}"),
                format!("{}", r.meta.nodes),
                format!("{cycle_slots}"),
                f(failover),
                f(min_hit),
                f(max_err),
            ])
        );
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

        // Every hosted loop closes within the shared cycle.
        assert!(min_hit > 0.99, "vcs={vcs}: hit ratio {min_hit}");
        for vs in &r.vc_stats {
            assert!(
                vs.actuations > 150,
                "vcs={vcs}: {} starved ({} actuations)",
                vs.loop_name,
                vs.actuations
            );
        }
        // Every VC settles back within 5 % of its setpoint.
        assert!(max_err < 0.05, "vcs={vcs}: late relative err {max_err}");
        failovers.push(failover);
    }
    write_result("multi_vc_scaling.csv", &csv);
    write_result("multi_vc_scaling_vcs.csv", &vc_csv);

    // The fault plane does not slow down as the pool grows: VC 0's
    // heartbeat window dominates, so latency stays within one cycle of
    // the single-VC case.
    let base = failovers[0];
    for (vcs, &fo) in pool.iter().zip(&failovers) {
        assert!(
            (fo - base).abs() < 0.5,
            "vcs={vcs}: failover latency drifted {base} -> {fo}"
        );
    }

    // End-to-end tier comparison: the full 4-VC engine run on each
    // execution tier. The runs must be *identical* — same RunResult bit
    // for bit — and the compiled tier only changes wall-clock time.
    println!();
    println!(
        "{}",
        row(&["tier".into(), "engine run [ms]".into(), "speedup".into()])
    );
    let mut tier_csv = String::from("tier,engine_run_ms,speedup_vs_interp\n");
    let mut oracle = None;
    let mut interp_ms = 0.0;
    for tier in Tier::ALL {
        let s = scenario(4);
        let start = Instant::now();
        let r = Engine::new(Scenario { tier, ..s }).run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match &oracle {
            None => {
                interp_ms = ms;
                oracle = Some(r);
            }
            Some(o) => assert!(
                r == *o,
                "tier {} diverged from the interpreter end-to-end",
                tier.label()
            ),
        }
        let speedup = interp_ms / ms;
        println!(
            "{}",
            row(&[tier.label().into(), f(ms), format!("{speedup:.2}x")])
        );
        tier_csv.push_str(&format!("{},{ms:.2},{speedup:.3}\n", tier.label()));
    }
    write_result("multi_vc_scaling_tiers.csv", &tier_csv);

    println!("\nOK: 1-4 VCs close every loop on one cycle; VC 0 failover latency flat; tiers byte-identical end-to-end");
}
