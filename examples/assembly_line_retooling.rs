//! Domain example: the paper's assembly-line motivation (§1).
//!
//! ```text
//! cargo run --release --example assembly_line_retooling
//! ```
//!
//! "With re-programmable WSAC, the assembly line stations can adapt to a
//! schedule where every 3 Camrys are interleaved with 2 Prius' with
//! synchronized changes in operation modes." Each station is a nano-RK
//! kernel; the retool is a gated task-set change, and the fixed-priority
//! executor proves no Camry operation misses its deadline through the
//! switch.

use evm::rtos::{
    assign_rate_monotonic, response_time_analysis, Executor, Kernel, TaskImage, TaskSpec,
};
use evm::sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn station(name: &str) -> Kernel {
    let mut k = Kernel::new(name);
    k.admit(
        TaskSpec::new("camry-weld", ms(30), ms(100)),
        TaskImage::typical_control_task(),
        None,
    )
    .expect("base mode fits");
    k.admit(
        TaskSpec::new("camry-inspect", ms(10), ms(200)),
        TaskImage::typical_control_task(),
        None,
    )
    .expect("base mode fits");
    k
}

fn main() {
    let mut stations: Vec<Kernel> = (1..=3).map(|i| station(&format!("station-{i}"))).collect();

    println!("camry-only mode:");
    for s in &stations {
        println!(
            "  {:<10} util {:.2}  schedulable: {}",
            s.name(),
            s.utilization(),
            s.verdict().schedulable
        );
    }

    // The retool: interleave Prius operations at every station, gated by
    // each kernel's schedulability test.
    println!("\nretooling to 3 Camry : 2 Prius...");
    for s in &mut stations {
        s.admit(
            TaskSpec::new("prius-battery", ms(40), ms(250)),
            TaskImage::typical_control_task(),
            None,
        )
        .expect("retool must pass the gate");
    }
    for s in &stations {
        println!(
            "  {:<10} util {:.2}  schedulable: {}",
            s.name(),
            s.utilization(),
            s.verdict().schedulable
        );
    }

    // Prove the mixed mode holds its deadlines over 2 s of line time.
    let set = stations[0].active_set();
    let log = Executor::new(SimTime::from_secs(2)).run(&set);
    println!(
        "\nsimulated mixed mode on {}: {} completions, {} deadline misses",
        stations[0].name(),
        (0..set.len()).map(|t| log.completions(t)).sum::<usize>(),
        log.misses.len()
    );
    assert!(log.misses.is_empty());

    // And show the gate refusing an unsafe retool. The mixed set would
    // stay under full utilization, so no utilization test refuses it:
    // the kernel's exact response-time analysis does, because under
    // rate-monotonic priorities prius-paint preempts prius-battery past
    // its deadline.
    let paint = TaskSpec::new("prius-paint", ms(60), ms(150));
    let mut trial = stations[0].active_set();
    trial.push(paint.clone());
    assign_rate_monotonic(&mut trial);
    let verdict = response_time_analysis(&trial);
    let late: Vec<&str> = trial
        .tasks()
        .iter()
        .zip(&verdict.response_times)
        .filter(|(_, r)| r.is_none())
        .map(|(t, _)| t.name.as_str())
        .collect();
    let err = stations[0].admit(paint, TaskImage::typical_control_task(), None);
    println!(
        "\nunsafe retool (+prius-paint 60 ms / 150 ms: util {:.2} < 1, but {} would miss its deadline) refused: {}",
        trial.total_utilization(),
        late.join(", "),
        err.expect_err("response-time analysis must refuse prius-paint")
    );
    println!(
        "running mode untouched: util {:.2}",
        stations[0].utilization()
    );
}
