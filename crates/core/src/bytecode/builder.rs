//! Control-law → bytecode compiler.
//!
//! Takes the same loop definition the wired plant uses
//! ([`evm_plant::ControlLoopSpec`]-shaped data) and emits an EVM capsule
//! program computing **exactly** the same arithmetic: second-order filter,
//! then PI with clamping anti-windup. Equivalence against the native
//! implementation is asserted by tests — the paper's premise is that the
//! *same* control law runs on whichever physical node currently hosts the
//! task.

use evm_plant::PidParams;

use super::isa::{Op, Program};

/// Everything needed to compile one control loop into bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlLawSpec {
    /// PID tuning (only P and I act; derivative is not used by the plant's
    /// loops).
    pub pid: PidParams,
    /// Second-order filter per-stage time constant, seconds.
    pub filter_tau_s: f64,
    /// Setpoint in PV units.
    pub setpoint: f64,
    /// Control period, seconds (baked into the integral step).
    pub period_s: f64,
    /// Integrator preload for bumpless start.
    pub preload: f64,
}

impl ControlLawSpec {
    /// Builds the spec from a plant loop definition.
    #[must_use]
    pub fn from_loop(spec: &evm_plant::ControlLoopSpec) -> Self {
        ControlLawSpec {
            pid: spec.pid,
            filter_tau_s: spec.filter_tau_s,
            setpoint: spec.setpoint,
            period_s: spec.period_s,
            preload: spec.nominal_output,
        }
    }
}

/// Variable map used by compiled control capsules (documented so migration
/// tooling and tests can interpret snapshots):
///
/// | var | meaning |
/// |-----|------------------------|
/// | 0   | initialized flag       |
/// | 1   | filter stage 1         |
/// | 2   | filter stage 2         |
/// | 3   | PID integrator         |
/// | 28  | last output            |
/// | 29  | proportional term      |
/// | 30  | error                  |
/// | 31  | raw PV                 |
pub const VAR_INTEGRATOR: usize = 3;

/// Reads the integrator state out of a compiled control capsule's VM —
/// what a warm-state handoff inspects before migration.
#[must_use]
pub fn integrator_of(vm: &crate::bytecode::Vm) -> f64 {
    vm.var(VAR_INTEGRATOR)
}

/// Compiles the control law to a capsule program.
///
/// Sensor port 0 is the PV; actuator port 0 receives the output; the
/// output is also emitted on data channel 0 (the health-assessment
/// publication backups observe).
///
/// The instructions are emitted directly, with the two jump offsets
/// resolved from the emitted positions. Variables follow the table on
/// [`VAR_INTEGRATOR`].
#[must_use]
pub fn compile_control_law(spec: &ControlLawSpec) -> Program {
    let dt = spec.period_s;
    let alpha = if spec.filter_tau_s > 0.0 {
        dt / (spec.filter_tau_s + dt)
    } else {
        1.0
    };
    let ki_step = if spec.pid.ti_s > 0.0 {
        spec.pid.kp * dt / spec.pid.ti_s
    } else {
        0.0
    };
    let sign = if spec.pid.reverse { -1.0 } else { 1.0 };
    let preload = spec.preload.clamp(spec.pid.out_min, spec.pid.out_max);
    let (omin, omax) = (spec.pid.out_min, spec.pid.out_max);

    // Raw PV; the first run (flag 0 unset) takes the init path.
    let mut ops = vec![Op::ReadSensor(0), Op::Store(31), Op::Load(0)];
    let branch = ops.len();
    ops.extend([Op::Jz(0), Op::Jmp(0)]); // targets patched below
    let init = ops.len();
    // Init: both filter stages start at the PV, the integrator at the
    // (clamped) preload.
    #[rustfmt::skip]
    ops.extend([
        Op::Load(31), Op::Store(1),
        Op::Load(31), Op::Store(2),
        Op::Push(1.0), Op::Store(0),
        Op::Push(preload), Op::Store(3),
    ]);
    let filter = ops.len();
    ops[branch] = Op::Jz(jump_offset(branch, init));
    ops[branch + 1] = Op::Jmp(jump_offset(branch + 1, filter));
    #[rustfmt::skip]
    ops.extend([
        // s1 += alpha * (pv - s1)
        Op::Load(31), Op::Load(1), Op::Sub, Op::Push(alpha), Op::Mul,
        Op::Load(1), Op::Add, Op::Store(1),
        // s2 += alpha * (s1 - s2)
        Op::Load(1), Op::Load(2), Op::Sub, Op::Push(alpha), Op::Mul,
        Op::Load(2), Op::Add, Op::Store(2),
        // error = sign * (s2 - sp)
        Op::Load(2), Op::Push(spec.setpoint), Op::Sub, Op::Push(sign), Op::Mul,
        Op::Store(30),
        // p = kp * error
        Op::Load(30), Op::Push(spec.pid.kp), Op::Mul, Op::Store(29),
        // integral += ki_step * error
        Op::Load(3), Op::Load(30), Op::Push(ki_step), Op::Mul, Op::Add,
        Op::Store(3),
        // clamp integral to [out_min - p, out_max - p]
        Op::Load(3), Op::Push(omin), Op::Load(29), Op::Sub, Op::Max,
        Op::Push(omax), Op::Load(29), Op::Sub, Op::Min, Op::Store(3),
        // out = clamp(p + integral, out_min, out_max)
        Op::Load(29), Op::Load(3), Op::Add, Op::Push(omin), Op::Max,
        Op::Push(omax), Op::Min, Op::Store(28),
        // actuate, publish, return
        Op::Load(28), Op::WriteActuator(0),
        Op::Load(28), Op::Emit(0),
        Op::Load(28), Op::Halt,
    ]);
    Program::new(ops)
}

/// The relative offset of a jump at `from` to the instruction at `to`.
fn jump_offset(from: usize, to: usize) -> i16 {
    i16::try_from(to as i64 - from as i64).expect("control-law jumps are short")
}

/// A conservative per-invocation gas budget for a compiled control law.
///
/// Gas is defined on the stack bytecode: 1 unit per fetched op. The
/// budget covers both the first (init) run and every later run.
#[must_use]
pub fn control_law_gas_budget(program: &Program) -> u64 {
    // Straight-line code: every instruction executes at most once, plus
    // slack for the init path.
    program.len() as u64 + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{NullEnv, Vm, VmError};
    use evm_plant::{lts_level_loop, LocalController};

    fn lts_spec() -> ControlLawSpec {
        ControlLawSpec::from_loop(&lts_level_loop())
    }

    /// The core promise: capsule output == native controller output, for a
    /// long, varied PV trajectory.
    #[test]
    fn capsule_matches_native_controller() {
        let spec = lts_spec();
        let program = compile_control_law(&spec);
        let mut vm = Vm::new(control_law_gas_budget(&program));
        let mut native = LocalController::new(lts_level_loop());

        let dt = spec.period_s;
        for k in 0..5_000 {
            // A PV trajectory with drift, steps and ripple.
            let t = k as f64 * dt;
            let pv = 50.0
                + 10.0 * (t / 120.0).sin()
                + if t > 300.0 { -20.0 } else { 0.0 }
                + 0.3 * (t * 2.1).sin();
            let mut env = NullEnv {
                sensor_value: pv,
                ..NullEnv::default()
            };
            let vm_out = vm.run(&program, &mut env).unwrap();
            let native_out = native.compute(pv, dt);
            assert!(
                (vm_out - native_out).abs() < 1e-9,
                "step {k}: vm {vm_out} native {native_out}"
            );
            assert_eq!(env.writes.len(), 1, "one actuator write per cycle");
            assert_eq!(env.emissions.len(), 1, "one health emission per cycle");
        }
    }

    #[test]
    fn first_invocation_is_bumpless() {
        let spec = lts_spec();
        let program = compile_control_law(&spec);
        let mut vm = Vm::new(control_law_gas_budget(&program));
        let mut env = NullEnv {
            sensor_value: spec.setpoint, // at setpoint
            ..NullEnv::default()
        };
        let out = vm.run(&program, &mut env).unwrap();
        assert!(
            (out - spec.preload).abs() < 1e-9,
            "bumpless start: {out} vs {}",
            spec.preload
        );
    }

    #[test]
    fn integrator_state_is_migratable() {
        // Run one VM for a while, snapshot its vars, restore into a fresh
        // VM, and check the two produce identical future outputs — this is
        // exactly what task migration does with the TCB data section.
        let spec = lts_spec();
        let program = compile_control_law(&spec);
        let mut vm_a = Vm::new(control_law_gas_budget(&program));
        for k in 0..500 {
            let mut env = NullEnv {
                sensor_value: 50.0 + (k as f64 * 0.1).sin() * 5.0,
                ..NullEnv::default()
            };
            vm_a.run(&program, &mut env).unwrap();
        }
        let snapshot = vm_a.snapshot_vars();
        let mut vm_b = Vm::new(control_law_gas_budget(&program));
        vm_b.restore_vars(snapshot);
        for k in 0..200 {
            let pv = 48.0 + (k as f64 * 0.3).cos() * 3.0;
            let mut env_a = NullEnv {
                sensor_value: pv,
                ..NullEnv::default()
            };
            let mut env_b = env_a.clone();
            let a = vm_a.run(&program, &mut env_a).unwrap();
            let b = vm_b.run(&program, &mut env_b).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "step {k}");
        }
    }

    #[test]
    fn gas_budget_suffices() {
        let spec = lts_spec();
        let program = compile_control_law(&spec);
        let budget = control_law_gas_budget(&program);
        let mut vm = Vm::new(budget);
        let mut env = NullEnv {
            sensor_value: 42.0,
            ..NullEnv::default()
        };
        // Both the init run and the steady-state run fit the budget.
        vm.run(&program, &mut env).unwrap();
        let first = vm.gas_used();
        vm.run(&program, &mut env).unwrap();
        let steady = vm.gas_used();
        assert!(
            first <= budget && steady <= budget,
            "{first} / {steady} > {budget}"
        );
        // And the budget is not absurdly loose.
        assert!(first * 3 > budget);
        // One unit short of the init run's cost traps.
        let mut starved = Vm::new(first - 1);
        assert_eq!(starved.run(&program, &mut env), Err(VmError::OutOfGas));
        assert_eq!(starved.gas_used(), first - 1);
    }

    /// FNV-1a-64 of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every standard loop's compiled law, pinned: the FNV-1a-64 digest
    /// of its wire encoding (which carries each `push` literal's raw
    /// bits), its length and its gas budget. A compiler rewrite must
    /// leave all three unchanged.
    #[test]
    fn standard_laws_compile_to_pinned_programs() {
        const PINS: [(&str, u64, usize, u64); 8] = [
            ("LC-InletSep", 0x1615_e5a2_e44d_6fa2, 205, 85),
            ("TC-Chiller", 0x81f8_a330_2c59_8666, 205, 85),
            ("LC-LTS", 0x9d63_f835_1d54_709f, 205, 85),
            ("FC-SalesGas", 0x9da3_dedf_7df6_a7cb, 205, 85),
            ("PC-Column", 0x3dd4_d0c3_9e2b_d47a, 205, 85),
            ("LC-Sump", 0xa5d5_83d1_92b3_f5b6, 205, 85),
            ("LC-RefluxDrum", 0xa5d5_83d1_92b3_f5b6, 205, 85),
            ("TC-Tray", 0x1368_e755_b36b_8fe4, 205, 85),
        ];
        let loops = evm_plant::standard_loops();
        assert_eq!(loops.len(), PINS.len());
        for (spec, &(name, digest, len, gas)) in loops.iter().zip(&PINS) {
            assert_eq!(spec.name, name);
            let program = compile_control_law(&ControlLawSpec::from_loop(spec));
            let bytes = program.encode();
            assert_eq!(fnv1a(&bytes), digest, "{name}: encoding moved");
            assert_eq!(bytes.len(), len, "{name}: encoded length moved");
            assert_eq!(control_law_gas_budget(&program), gas, "{name}: gas moved");
        }
    }

    #[test]
    fn reverse_acting_law_flips_sign() {
        let mut spec = lts_spec();
        spec.pid.reverse = true;
        spec.pid.ti_s = 0.0; // pure P for a clean check
        spec.preload = 0.0;
        spec.pid.out_min = -100.0;
        let program = compile_control_law(&spec);
        let mut vm = Vm::new(control_law_gas_budget(&program));
        let mut env = NullEnv {
            sensor_value: spec.setpoint + 10.0,
            ..NullEnv::default()
        };
        let out = vm.run(&program, &mut env).unwrap();
        assert!(out < 0.0, "reverse acting must push down: {out}");
    }
}
