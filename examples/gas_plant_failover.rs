//! Domain example: exploring failover policies on the gas plant.
//!
//! ```text
//! cargo run --release --example gas_plant_failover
//! ```
//!
//! Runs the Fig. 6b fault under three Virtual-Component policies — the
//! paper's scripted 300 s supervisory epoch, immediate (detection-limited)
//! reconfiguration, and a cold standby whose backup first receives the
//! capsule over one transfer slot per cycle — and compares how much
//! process damage each allows. This is the experiment a plant engineer
//! would run to pick a reconfiguration policy.

use evm::core::runtime::{Engine, Scenario};
use evm::plant::ActuatorFault;
use evm::prelude::*;

fn main() {
    let horizon = SimDuration::from_secs(1000);
    let fault_at = SimTime::from_secs(300);

    let policies: Vec<(&str, Scenario)> = vec![
        ("paper-epoch-300s", Scenario::fig6b()),
        ("immediate", Scenario::fig6b_fast()),
        (
            "cold-standby",
            Scenario::builder()
                .fault_at(fault_at, ActuatorFault::paper_fault())
                .reconfig_epoch(SimDuration::ZERO)
                .cold_backup()
                .transfer_slots(1)
                .duration(horizon)
                .build(),
        ),
    ];

    println!(
        "{:<20} {:>12} {:>14} {:>16}",
        "policy", "switch [s]", "min level [%]", "ISE after fault"
    );
    for (name, scenario) in policies {
        let result = Engine::new(scenario).run();
        let switch = result
            .event_time("Ctrl-B -> Active")
            .map_or(f64::NAN, |t| t.as_secs_f64());
        let level = result.series("LTS.LiquidPct");
        let after = level.window(fault_at, SimTime::ZERO + horizon);
        let min_level = after.stats().expect("samples").min;
        let ise = result.control_cost("LTS.LiquidPct", 50.0, fault_at, SimTime::ZERO + horizon);
        println!("{name:<20} {switch:>12.2} {min_level:>14.2} {ise:>16.0}");
    }

    println!(
        "\nreading: the supervisory epoch dominates recovery; a warm replica \
         turns failover into a one-cycle mode switch, while cold standby adds \
         the measured capsule shipment over the transfer slots (image frames, \
         acks and retransmissions, then attestation and admission)."
    );
}
