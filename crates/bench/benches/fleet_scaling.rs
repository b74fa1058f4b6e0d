//! E18 — fleet scaling: one engine process hosting 1 → 10 000 Virtual
//! Components.
//!
//! The fleet deployment ([`ScenarioBuilder::fleet`]) puts `n` VCs on a
//! serial RT-Link schedule with 8× slot headroom, and this bench times
//! whole engine runs at each fleet size, reporting simulated slots per
//! wall-clock second. A second row family stretches the same fleet to a
//! 1024× headroom (≈ 0.1 % duty cycle — low-power TDMA territory), where
//! idle slots dominate and the slot cursor's batch-skip pays in full.
//!
//! Asserted: every fleet actuates, and the 10k-VC run completes.
//!
//! Writes `fleet_scaling.csv` and `fleet_scaling.json`. Pass `--smoke`
//! for the CI-sized run (1 / 100 / 1000 VCs, same files).
//!
//! [`ScenarioBuilder::fleet`]: evm_core::runtime::ScenarioBuilder::fleet

use std::time::Instant;

use evm_bench::{banner, f, row, write_result};
use evm_core::runtime::{Engine, Scenario};
use evm_core::RunResult;

/// Fleet scenario sized for benching: enough cycles for a stable
/// measurement at small `n`, two cycles at 10k (≈ 480k slots).
fn scenario(n: usize) -> Scenario {
    let mut s = Scenario::builder().fleet(n).build();
    let spc = s.rtlink.slots_per_cycle as u64;
    let cycles = (200_000 / spc).clamp(2, 100);
    s.duration = s.rtlink.cycle_duration() * cycles;
    s
}

/// The ultra-sparse variant: the same fleet, stretched to a 1024×
/// slot-count headroom (≈ 0.1 % duty cycle — low-power TDMA territory,
/// where a node transmits for milliseconds and sleeps for minutes).
/// The serial schedule packs the same occupied slots at the front of
/// the cycle; everything added is idle air the cursor never visits.
fn sparse_scenario(n: usize) -> Scenario {
    let mut s = Scenario::builder().fleet(n).build();
    s.rtlink.slots_per_cycle = 1024 * (3 * n + 1);
    let cycle = s.rtlink.cycle_duration();
    s.sample_every = cycle / 4;
    // Engine throughput is the quantity under test, not plant fidelity:
    // integrate the (unconditionally stable) plant at cycle/64 so the
    // physics cost stays constant as the cycle stretches.
    s.plant_dt = s.plant_dt.max(cycle / 64);
    s.duration = cycle * 2;
    s
}

/// Runs a pre-built scenario `reps` times, returning the best wall
/// time, the slot count and one result. Engine construction stays
/// outside the timed region — setup cost is not what this bench
/// measures — and best-of-`reps` suppresses first-run jitter (cold
/// caches, frequency ramp).
fn timed(s: Scenario, reps: usize) -> (f64, u64, RunResult) {
    let slots = s.duration / s.rtlink.slot_duration;
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let engine = Engine::new(s.clone());
        let start = Instant::now();
        let r = engine.run();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, slots, result.expect("at least one reps"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E18",
        if smoke {
            "fleet scaling: slots/sec, 1 -> 1k VCs (smoke)"
        } else {
            "fleet scaling: slots/sec, 1 -> 10k VCs"
        },
    );
    let sizes: &[usize] = if smoke {
        &[1, 100, 1_000]
    } else {
        &[1, 10, 100, 1_000, 10_000]
    };

    println!(
        "{}",
        row(&[
            "vcs".into(),
            "nodes".into(),
            "slots".into(),
            "wall [s]".into(),
            "slots/s".into(),
        ])
    );
    let mut csv = String::from("schedule,vcs,nodes,slots,wall_s,slots_per_s\n");
    let mut json_rows = Vec::new();
    let mut run_row = |kind: &str, n: usize, reps: usize, s: Scenario| {
        let (wall, slots, r) = timed(s, reps);
        assert!(r.actuations > 0, "{kind} fleet of {n} must actuate");
        let rate = slots as f64 / wall;
        println!(
            "{}",
            row(&[
                format!("{kind}/{n}"),
                format!("{}", r.meta.nodes),
                format!("{slots}"),
                f(wall),
                f(rate),
            ])
        );
        csv.push_str(&format!(
            "{kind},{n},{},{slots},{wall:.4},{rate:.1}\n",
            r.meta.nodes
        ));
        json_rows.push((kind.to_string(), n, r.meta.nodes, slots, wall, rate));
    };

    // Dense rows: the default fleet shape (8× headroom) at every size.
    for &n in sizes {
        run_row("dense", n, 1, scenario(n));
    }

    // Sparse rows: the 1024× headroom shape, where idle air dominates
    // and the cursor's batch-skip is the whole game. The dense rows
    // share their wall time between slot advancement and per-cycle node
    // work, which no skipping can avoid.
    for &n in &[100usize, 1_000] {
        run_row("sparse", n, 3, sparse_scenario(n));
    }

    write_result("fleet_scaling.csv", &csv);
    let mut out = String::from("{\n  \"bench\": \"fleet_scaling\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"rows\": [\n"));
    for (i, (kind, n, nodes, slots, wall, rate)) in json_rows.iter().enumerate() {
        let comma = if i + 1 == json_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"schedule\": \"{kind}\", \"vcs\": {n}, \"nodes\": {nodes}, \
             \"slots\": {slots}, \"wall_s\": {wall:.4}, \
             \"slots_per_s\": {rate:.1}}}{comma}\n",
        ));
    }
    out.push_str("  ]\n}\n");
    write_result("fleet_scaling.json", &out);
}
