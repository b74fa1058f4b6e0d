//! E13 — interpreter microbenchmarks.
//!
//! Measures the EVM's execution machinery: raw dispatch throughput on
//! the countdown loop, the compiled PID capsule against the native
//! controller, and capsule encode/decode (the migration serialization
//! path). Self-timed with a warmup pass and median-of-runs reporting,
//! like the other figure benches.
//!
//! Writes `vm_dispatch.csv` plus a machine-readable `vm_dispatch.json`
//! with every row's ns/iter. Pass `--smoke` for a fast CI run with
//! reduced iteration counts — same rows, same files.

use std::hint::black_box;
use std::time::Instant;

use evm_bench::{banner, f, row, write_result};
use evm_core::bytecode::{
    compile_control_law, control_law_gas_budget, ControlLawSpec, NullEnv, Op, Program, Vm,
};
use evm_plant::{lts_level_loop, LocalController};

/// Times `iters` calls of `op` and returns nanoseconds per call, taking the
/// median of `runs` timed repetitions after one warmup run.
fn time_ns_per_iter(iters: u32, runs: usize, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    for r in 0..=runs {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = start.elapsed();
        if r > 0 {
            samples.push(elapsed.as_nanos() as f64 / f64::from(iters));
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn arith_loop_program(iters: u32) -> Program {
    // var0 = iters; while (var0) { var0 -= 1 }
    Program::new(vec![
        Op::Push(f64::from(iters)),
        Op::Store(0),
        Op::Load(0),
        Op::Jz(6),
        Op::Load(0),
        Op::Push(1.0),
        Op::Sub,
        Op::Store(0),
        Op::Jmp(-6),
        Op::Load(0),
        Op::Halt,
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E13",
        if smoke {
            "interpreter microbenchmarks (smoke)"
        } else {
            "interpreter microbenchmarks"
        },
    );
    // Smoke mode shrinks the timed work ~50x but keeps every row and
    // both output files, so CI exercises the full reporting path.
    let scale = if smoke { 50 } else { 1 };
    let runs = if smoke { 3 } else { 7 };

    let mut rows = vec![row(&[
        "bench".into(),
        "ns/iter".into(),
        "ops/iter".into(),
        "ns/op".into(),
    ])];
    let mut csv = String::from("bench,ns_per_iter,ops_per_iter,ns_per_op\n");
    let mut json = Vec::new();
    let mut record = |name: &str, ns: f64, ops: f64| {
        rows.push(row(&[name.into(), f(ns), f(ops), f(ns / ops)]));
        csv.push_str(&format!("{name},{ns:.3},{ops},{:.3}\n", ns / ops));
        json.push((name.to_string(), ns));
    };

    // Raw dispatch: ~5k executed ops per run of the countdown loop.
    let program = arith_loop_program(1_000);
    let mut vm = Vm::new(1_000_000);
    let mut env = NullEnv::default();
    let ns = time_ns_per_iter(500 / scale, runs, || {
        let r = vm.run(black_box(&program), &mut env).unwrap();
        black_box(r);
    });
    record("vm_dispatch_5k_ops", ns, 5_000.0);

    // Compiled PID capsule vs the native controller.
    let spec = ControlLawSpec::from_loop(&lts_level_loop());
    let pid = compile_control_law(&spec);
    let mut vm = Vm::new(control_law_gas_budget(&pid));
    let mut env = NullEnv {
        sensor_value: 48.7,
        ..NullEnv::default()
    };
    let ns = time_ns_per_iter(10_000 / scale, runs, || {
        env.writes.clear();
        env.emissions.clear();
        let r = vm.run(black_box(&pid), &mut env).unwrap();
        black_box(r);
    });
    record("pid_capsule", ns, pid.len() as f64);

    let mut native = LocalController::new(lts_level_loop());
    let ns = time_ns_per_iter(100_000 / scale, runs, || {
        black_box(native.compute(black_box(48.7), 0.25));
    });
    record("pid_native", ns, 1.0);

    // Capsule encode/decode: the migration serialization path.
    let bytes = pid.encode();
    let ns = time_ns_per_iter(100_000 / scale, runs, || {
        black_box(black_box(&pid).encode());
    });
    record("capsule_encode", ns, 1.0);
    let ns = time_ns_per_iter(100_000 / scale, runs, || {
        black_box(Program::decode(black_box(&bytes)).unwrap());
    });
    record("capsule_decode", ns, 1.0);

    for r in &rows {
        println!("  {r}");
    }
    write_result("vm_dispatch.csv", &csv);

    // Machine-readable results: every row's ns/iter.
    let mut out = String::from("{\n  \"bench\": \"vm_dispatch\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"rows\": {{\n"));
    for (i, (name, ns)) in json.iter().enumerate() {
        let comma = if i + 1 == json.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{name}\": {{\"ns_per_iter\": {ns:.3}}}{comma}\n"
        ));
    }
    out.push_str("  }\n}\n");
    write_result("vm_dispatch.json", &out);
}
