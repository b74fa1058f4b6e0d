//! Differential property suite for tiered capsule execution.
//!
//! The stack interpreter ([`Tier::Interp`]) is the semantic reference;
//! the compiled tier is an optimization that must be **bit identical**
//! to it in every observable: run result (value or typed trap), gas
//! consumed, the variable file, and every actuator write and emission —
//! under any gas limit, including budgets that starve a program
//! mid-loop. This suite drives hundreds of seeded random programs
//! (well-formed or not), the real compiled control laws, and a full
//! Fig. 5 engine run through both tiers and asserts exact agreement,
//! comparing floats by bit pattern so NaN payloads and signed zeros
//! cannot hide a divergence.

use evm_core::bytecode::{
    compile_control_law, compiles, control_law_gas_budget, ControlLawSpec, NullEnv, N_VARS,
};
use evm_core::runtime::Engine;
use evm_core::{Op, Program, Scenario, Tier, Vm, VmError};
use evm_plant::lts_level_loop;
use evm_sim::{SimDuration, SimRng};

/// Everything a capsule run can observe, floats as raw bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    result: Result<u64, VmError>,
    gas_used: u64,
    vars: [u64; N_VARS],
    writes: Vec<(u8, u64)>,
    emissions: Vec<(u8, u64)>,
}

/// Runs `program` on a fresh VM at `tier` and captures every observable.
fn observe(program: &Program, tier: Tier, gas_limit: u64, exts: &[(u8, Program)]) -> Outcome {
    let mut vm = Vm::with_tier(gas_limit, tier);
    for (n, body) in exts {
        vm.register_extension(*n, body.clone());
    }
    let mut env = NullEnv {
        sensor_value: 1.5,
        now_s: 42.25,
        ..NullEnv::default()
    };
    let result = vm.run(program, &mut env).map(f64::to_bits);
    Outcome {
        result,
        gas_used: vm.gas_used(),
        vars: vm.snapshot_vars().map(f64::to_bits),
        writes: env.writes.iter().map(|&(p, v)| (p, v.to_bits())).collect(),
        emissions: env
            .emissions
            .iter()
            .map(|&(c, v)| (c, v.to_bits()))
            .collect(),
    }
}

/// Asserts the compiled tier agrees with the interpreter on every
/// observable, for each gas limit.
fn assert_tiers_agree(program: &Program, gas_limits: &[u64], exts: &[(u8, Program)]) {
    for &gas in gas_limits {
        let interp = observe(program, Tier::Interp, gas, exts);
        let compiled = observe(program, Tier::Compiled, gas, exts);
        assert_eq!(
            compiled,
            interp,
            "compiled tier diverged from the interpreter at gas limit {gas} \
             on program {:?}",
            program.ops()
        );
    }
}

/// Draws one random (not necessarily well-formed) instruction —
/// deliberately including out-of-range variables, wild jump offsets,
/// unknown extensions and deep calls, so trap behavior is covered.
fn random_op(rng: &mut SimRng) -> Op {
    match rng.index(32) {
        0 => Op::Push(rng.range(-100.0, 100.0)),
        1 => Op::Dup,
        2 => Op::Drop,
        3 => Op::Swap,
        4 => Op::Over,
        5 => Op::Rot,
        6 => Op::Add,
        7 => Op::Sub,
        8 => Op::Mul,
        9 => Op::Div,
        10 => Op::Neg,
        11 => Op::Abs,
        12 => Op::Min,
        13 => Op::Max,
        14 => Op::Gt,
        15 => Op::Lt,
        16 => Op::Eq,
        17 => Op::Not,
        18 => Op::Load(rng.index(256) as u8),
        19 => Op::Store(rng.index(256) as u8),
        20 => Op::Jmp(rng.int_range(-20, 19) as i16),
        21 => Op::Jz(rng.int_range(-20, 19) as i16),
        22 => Op::Call(rng.index(32) as u16),
        23 => Op::Ret,
        24 => Op::Halt,
        25 => Op::ReadSensor(rng.index(256) as u8),
        26 => Op::WriteActuator(rng.index(256) as u8),
        27 => Op::Emit(rng.index(256) as u8),
        28 => Op::ReadClock,
        29 => Op::ReadBattery,
        30 => Op::ReadRole,
        _ => Op::Ext(rng.index(256) as u8),
    }
}

/// A random straight-line instruction: no control flow, in-range
/// variables. Programs built from these always lower to the register IR
/// (a single basic block), so they exercise the compiled tier's
/// optimizer rather than its fallback.
fn random_straightline_op(rng: &mut SimRng) -> Op {
    match rng.index(22) {
        0..=2 => Op::Push(rng.range(-8.0, 8.0)),
        3 => Op::Dup,
        4 => Op::Drop,
        5 => Op::Swap,
        6 => Op::Over,
        7 => Op::Rot,
        8 => Op::Add,
        9 => Op::Sub,
        10 => Op::Mul,
        11 => Op::Div,
        12 => Op::Neg,
        13 => Op::Abs,
        14 => Op::Min,
        15 => Op::Max,
        16 => Op::Gt,
        17 => Op::Not,
        18 => Op::Load(rng.index(N_VARS) as u8),
        19 => Op::Store(rng.index(N_VARS) as u8),
        20 => Op::ReadSensor(rng.index(4) as u8),
        _ => Op::Emit(rng.index(4) as u8),
    }
}

/// ~600 fully random programs (including malformed ones, wild jumps,
/// unknown extensions and recursive calls) agree across both tiers
/// under four gas budgets, from starvation to comfortable.
#[test]
fn random_programs_agree_across_tiers() {
    let mut rng = SimRng::seed_from(0x7137_D1FF);
    let exts = [
        (0u8, Program::new(vec![Op::Dup, Op::Mul, Op::Ret])),
        (7u8, Program::new(vec![Op::Push(1.0), Op::Add])),
        (255u8, Program::new(vec![Op::Call(0)])),
    ];
    for _ in 0..600 {
        let len = rng.index(64);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
        let program = Program::new(ops);
        assert_tiers_agree(&program, &[1, 7, 64, 256], &exts);
    }
}

/// Straight-line random programs always lower to the register IR and
/// still agree bit-for-bit — this is the corpus that stresses the
/// compiled tier's constant folding, alias propagation, dead-store
/// elimination and peephole fusion.
#[test]
fn straightline_programs_compile_and_agree() {
    let mut rng = SimRng::seed_from(0xC0DE_CAFE);
    for _ in 0..500 {
        let len = rng.index(48);
        let mut ops: Vec<Op> = (0..len).map(|_| random_straightline_op(&mut rng)).collect();
        ops.push(Op::Halt);
        let program = Program::new(ops);
        assert!(
            compiles(&program),
            "straight-line program must lower: {:?}",
            program.ops()
        );
        assert_tiers_agree(&program, &[1, 7, 64, 256], &[]);
    }
}

/// A counted decrement loop (the spin-accelerator showcase) agrees at
/// every gas limit that could interrupt it — before the loop, mid-trip
/// and after completion. This pins the metered fallback: the compiled
/// tier must trap with the same error, the same gas and the same
/// variable file as the interpreter stepping op by op.
#[test]
fn decrement_loop_agrees_at_every_starvation_point() {
    // var0 = 10; while (var0 != 0) { var0 -= 1 } ; halt
    let ops = vec![
        Op::Push(10.0),
        Op::Store(0),
        Op::Load(0),
        Op::Jz(6),
        Op::Load(0),
        Op::Push(1.0),
        Op::Sub,
        Op::Store(0),
        Op::Jmp(-6),
        Op::Halt,
    ];
    let program = Program::new(ops);
    assert!(compiles(&program));
    let every_limit: Vec<u64> = (1..=80).collect();
    assert_tiers_agree(&program, &every_limit, &[]);
}

/// The real compiled control law produces bit-identical outputs and
/// integrator state across tiers over a long, varied PV trajectory with
/// **persistent** VM state (the variable file survives invocations, as
/// it does on a controller node).
#[test]
fn pid_control_law_is_bit_identical_across_tiers() {
    let spec = ControlLawSpec::from_loop(&lts_level_loop());
    let program = compile_control_law(&spec);
    assert!(
        compiles(&program),
        "the builder's control law must lower to the register IR"
    );
    let budget = control_law_gas_budget(&program);
    let mut vms: Vec<Vm> = Tier::ALL
        .iter()
        .map(|&t| Vm::with_tier(budget, t))
        .collect();
    let dt = spec.period_s;
    for k in 0..2_000u32 {
        let t = f64::from(k) * dt;
        let pv = 50.0 + 9.0 * (t / 90.0).sin() + 0.4 * (t * 2.3).sin();
        let mut outs = Vec::new();
        for vm in &mut vms {
            let mut env = NullEnv {
                sensor_value: pv,
                ..NullEnv::default()
            };
            let out = vm.run(&program, &mut env).expect("control law runs");
            outs.push((out.to_bits(), env.writes, env.emissions));
        }
        assert_eq!(outs[0], outs[1], "compiled diverged at step {k}");
        assert_eq!(
            vms[1].snapshot_vars().map(f64::to_bits),
            vms[0].snapshot_vars().map(f64::to_bits)
        );
    }
}

/// `control_law_gas_budget` is tier-independent: the compiled tier
/// charges exactly the interpreter's gas, so a budget admitted by the
/// schedulability gate admits the capsule on either tier — and starving
/// either tier below its per-invocation cost traps identically.
#[test]
fn gas_budget_is_tier_independent() {
    let spec = ControlLawSpec::from_loop(&lts_level_loop());
    let program = compile_control_law(&spec);
    let budget = control_law_gas_budget(&program);
    let mut per_tier_gas = Vec::new();
    for &tier in &Tier::ALL {
        let mut vm = Vm::with_tier(budget, tier);
        let mut env = NullEnv {
            sensor_value: 48.0,
            ..NullEnv::default()
        };
        vm.run(&program, &mut env).expect("within budget");
        let first = vm.gas_used();
        vm.run(&program, &mut env).expect("within budget");
        per_tier_gas.push((first, vm.gas_used()));
    }
    assert_eq!(per_tier_gas[0], per_tier_gas[1], "compiled gas differs");
    // The documented budget actually covers both the init and steady
    // paths, on every tier.
    assert!(per_tier_gas[0].0 <= budget && per_tier_gas[0].1 <= budget);
    // A starved budget traps identically everywhere.
    let starved = per_tier_gas[0].0 - 1;
    assert_tiers_agree(&program, &[starved], &[]);
}

/// Runtime extension words (the dictionary): boundary indices, runtime
/// replacement, and the compiled tier's interpreter fallback for
/// extension calls all agree with the interpreter.
#[test]
fn extension_dictionary_agrees_across_tiers() {
    let square = Program::new(vec![Op::Dup, Op::Mul, Op::Ret]);
    let cube = Program::new(vec![Op::Dup, Op::Dup, Op::Mul, Op::Mul, Op::Ret]);
    for ext_n in [0u8, 1, 254, 255] {
        let p = Program::new(vec![Op::Push(3.0), Op::Ext(ext_n), Op::Halt]);
        assert_tiers_agree(&p, &[2, 64], &[(ext_n, square.clone())]);
        // Replacement: the last registration wins, on every tier.
        for &tier in &Tier::ALL {
            let mut vm = Vm::with_tier(64, tier);
            vm.register_extension(ext_n, square.clone());
            let old = vm.register_extension(ext_n, cube.clone());
            assert_eq!(old, Some(square.clone()));
            let mut env = NullEnv::default();
            assert_eq!(vm.run(&p, &mut env), Ok(27.0), "tier {tier}");
        }
    }
}

/// The end-to-end guarantee: a full Fig. 5 engine run — scheduler,
/// channel, plant, detectors, every capsule invocation on every
/// controller replica — is **byte-identical** across tiers. The entire
/// [`evm_core::RunResult`] (series, traces, QoS metrics, energy) is
/// compared structurally.
#[test]
fn fig5_run_is_byte_identical_across_tiers() {
    let run_at = |tier: Tier| {
        let mut s = Scenario::baseline();
        s.duration = SimDuration::from_secs(90);
        s.tier = tier;
        Engine::new(s).run()
    };
    let interp = run_at(Tier::Interp);
    assert!(interp.actuations > 100, "run must exercise the capsules");
    let compiled = run_at(Tier::Compiled);
    assert!(compiled == interp, "compiled tier changed the Fig. 5 run");
}
