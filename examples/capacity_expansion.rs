//! Domain example: on-line capacity expansion (§4.2 objective 2).
//!
//! ```text
//! cargo run --release --example capacity_expansion
//! ```
//!
//! A Virtual Component runs eight control loops. Controllers are added to
//! the pool one at a time; after each join (gated by attestation +
//! admission), the BQP synthesis optimizer re-distributes the loops — the
//! paper's "on-line capacity expansion where more controllers can be
//! added to share the load". Two controllers cannot host the load; from
//! three on every pool is feasible and the mean per-node utilization
//! falls with each join (0.45 at three, 0.23 at six). The maximum does
//! not fall: it stays at 0.51 from three to six controllers, because the
//! communication term keeps the loops on the two nodes next to their
//! sensors and actuators rather than spreading them for balance.

use evm::core::synthesis::{NodeRes, SynthesisProblem, TaskReq};
use evm::netsim::NodeId;
use evm::sim::SimRng;

fn main() {
    let mut rng = SimRng::seed_from(2009);

    // The loops' sensors and actuators sit by the first two controllers,
    // which every pool below contains (indices must stay below the pool
    // size).
    let loops: Vec<TaskReq> = (0..8)
        .map(|i| TaskReq {
            name: format!("loop-{i}"),
            cpu_util: 0.17,
            slots: 1,
            sensor_node: Some(i % 2),
            actuator_node: Some((i + 1) % 2),
        })
        .collect();

    println!(
        "{:<13} {:>10} {:>12} {:>10}",
        "pool", "max util", "mean util", "feasible"
    );
    for pool in 2..=6usize {
        let problem = SynthesisProblem {
            tasks: loops.clone(),
            nodes: (0..pool)
                .map(|i| NodeRes {
                    id: NodeId(10 + i as u16),
                    cpu_capacity: 0.6,
                    slot_capacity: 8,
                })
                .collect(),
            hops: (0..pool)
                .map(|i| (0..pool).map(|j| (i as f64 - j as f64).abs()).collect())
                .collect(),
            w_comm: 0.3,
            w_balance: 1.0,
        };
        let assignment = problem.solve_anneal(&mut rng, 8_000);
        let mut util = vec![0.0f64; pool];
        for (t, &n) in assignment.task_to_node.iter().enumerate() {
            util[n] += problem.tasks[t].cpu_util;
        }
        let max = util.iter().cloned().fold(0.0, f64::max);
        let mean = util.iter().sum::<f64>() / pool as f64;
        println!(
            "{:<13} {max:>10.2} {mean:>12.2} {:>10}",
            format!("{pool} controllers"),
            problem.is_feasible(&assignment)
        );
    }

    println!(
        "\nreading: two controllers of 0.6 capacity cannot host 1.36 total \
         utilization; from three onward every pool is feasible and the \
         mean utilization falls with every join, while the maximum stays \
         at 0.51 — the communication term keeps the busiest node next to \
         the loops' sensors and actuators."
    );
}
