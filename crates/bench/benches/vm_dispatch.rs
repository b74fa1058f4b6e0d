//! E13 — interpreter microbenchmarks, per execution tier.
//!
//! Measures the EVM's execution machinery across the two capsule tiers
//! (stack interpreter / compiled closure chain): raw dispatch
//! throughput on the countdown loop, the compiled
//! PID capsule against the native controller, capsule I/O through the
//! inline-caching ModBus environment, and capsule encode/decode (the
//! migration serialization path). Self-timed with a warmup pass and
//! median-of-runs reporting, like the other figure benches.
//!
//! Writes `vm_dispatch.csv` plus a machine-readable `vm_dispatch.json`
//! carrying the tier speedups the paper claims (compiled vs interp on
//! the arith loop and the PID capsule). Pass `--smoke` for a fast CI
//! run with reduced iteration counts — same rows, same files.

use std::hint::black_box;
use std::time::Instant;

use evm_bench::{banner, f, row, write_result};
use evm_core::bytecode::{
    compile_control_law, control_law_gas_budget, ControlLawSpec, ModbusBatchEnv, ModbusCachedEnv,
    NullEnv, Op, Program, Tier, Vm,
};
use evm_plant::{lts_level_loop, GasPlant, LocalController, PlantConfig, RegisterMap};

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

/// Row name suffix per tier: the interp rows keep their historical
/// bare names so existing tooling keeps parsing them.
fn tier_suffix(tier: Tier) -> &'static str {
    match tier {
        Tier::Interp => "",
        Tier::Compiled => "_compiled",
    }
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

    // Raw dispatch: ~5k executed ops per run of the countdown loop, at
    // each tier. The compiled tier runs the loop as a single closure.
    let program = arith_loop_program(1_000);
    for tier in Tier::ALL {
        let mut vm = Vm::with_tier(1_000_000, tier);
        let mut env = NullEnv::default();
        let ns = time_ns_per_iter(500 / scale, runs, || {
            let r = vm.run(black_box(&program), &mut env).unwrap();
            black_box(r);
        });
        record(
            &format!("vm_dispatch_5k_ops{}", tier_suffix(tier)),
            ns,
            5_000.0,
        );
    }

    // Compiled PID capsule vs the native controller, at each tier.
    let spec = ControlLawSpec::from_loop(&lts_level_loop());
    let pid = compile_control_law(&spec);
    for tier in Tier::ALL {
        let mut vm = Vm::with_tier(control_law_gas_budget(&pid), tier);
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
        record(
            &format!("pid_capsule{}", tier_suffix(tier)),
            ns,
            pid.len() as f64,
        );
    }

    let mut native = LocalController::new(lts_level_loop());
    let ns = time_ns_per_iter(100_000 / scale, runs, || {
        black_box(native.compute(black_box(48.7), 0.25));
    });
    record("pid_native", ns, 1.0);

    // Capsule I/O through the inline-caching ModBus environment: the
    // full sensor-read/actuate/emit path against the gas plant's
    // register map, on the compiled tier. The tag→register scan is
    // memoized per port, so steady state is pure register traffic.
    let mut plant = GasPlant::new(PlantConfig::default());
    let regmap = RegisterMap::gas_plant_standard();
    let mut env = ModbusCachedEnv::new(
        &mut plant,
        &regmap,
        &["LTS.LiquidPct"],
        &["LTSLiqValve.Cmd"],
    );
    let mut vm = Vm::with_tier(control_law_gas_budget(&pid), Tier::Compiled);
    let ns = time_ns_per_iter(10_000 / scale, runs, || {
        env.emissions.clear();
        let r = vm.run(black_box(&pid), &mut env).unwrap();
        black_box(r);
    });
    record("pid_capsule_modbus_compiled", ns, pid.len() as f64);
    println!(
        "  (modbus inline cache: {} slow-path lookups)",
        env.lookups()
    );

    // Batched ModBus environment: ports resolved to bound registers at
    // construction, inputs polled in one pass per run, writes through
    // the bound holdings — zero address lookups in steady state.
    let mut plant = GasPlant::new(PlantConfig::default());
    let mut env = ModbusBatchEnv::new(
        &mut plant,
        &regmap,
        &["LTS.LiquidPct"],
        &["LTSLiqValve.Cmd"],
    );
    let mut vm = Vm::with_tier(control_law_gas_budget(&pid), Tier::Compiled);
    let ns = time_ns_per_iter(10_000 / scale, runs, || {
        env.begin_run();
        env.emissions.clear();
        let r = vm.run(black_box(&pid), &mut env).unwrap();
        black_box(r);
    });
    record("pid_capsule_modbus_batched", ns, pid.len() as f64);

    // Capsule encode/decode: the migration serialization path
    // (tier-independent — programs migrate as stack bytecode).
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

    // Machine-readable results: every row's ns/iter plus the headline
    // tier speedups (interp ns / tier ns on the same workload).
    let ns_of = |name: &str| {
        json.iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .expect("row recorded")
    };
    let speedup = |base: &str, tiered: &str| ns_of(base) / ns_of(tiered);
    let mut out = String::from("{\n  \"bench\": \"vm_dispatch\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"rows\": {{\n"));
    for (i, (name, ns)) in json.iter().enumerate() {
        let comma = if i + 1 == json.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{name}\": {{\"ns_per_iter\": {ns:.3}}}{comma}\n"
        ));
    }
    out.push_str("  },\n  \"speedups\": {\n");
    out.push_str(&format!(
        "    \"arith_compiled_vs_interp\": {:.3},\n",
        speedup("vm_dispatch_5k_ops", "vm_dispatch_5k_ops_compiled")
    ));
    out.push_str(&format!(
        "    \"pid_compiled_vs_interp\": {:.3},\n",
        speedup("pid_capsule", "pid_capsule_compiled")
    ));
    out.push_str(&format!(
        "    \"modbus_batched_vs_cached\": {:.3}\n",
        speedup("pid_capsule_modbus_compiled", "pid_capsule_modbus_batched")
    ));
    out.push_str("  }\n}\n");
    write_result("vm_dispatch.json", &out);
}
