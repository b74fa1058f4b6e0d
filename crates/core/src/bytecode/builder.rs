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

use super::asm::assemble;
use super::isa::Program;

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
/// # Panics
///
/// Panics if the generated assembly fails to assemble (a builder bug, not
/// an input error).
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

    let src = format!(
        r"
        ; compiled control law: 2nd-order filter + PI (anti-windup clamp)
            rdsens 0
            store 31        ; raw pv
            load 0
            jz do_init
            jmp filter
        do_init:
            load 31
            store 1         ; s1 = pv
            load 31
            store 2         ; s2 = pv
            push 1
            store 0         ; initialized
            push {preload:?}
            store 3         ; integrator preload
        filter:
            ; s1 += alpha * (pv - s1)
            load 31
            load 1
            sub
            push {alpha:?}
            mul
            load 1
            add
            store 1
            ; s2 += alpha * (s1 - s2)
            load 1
            load 2
            sub
            push {alpha:?}
            mul
            load 2
            add
            store 2
            ; error = sign * (s2 - sp)
            load 2
            push {sp:?}
            sub
            push {sign:?}
            mul
            store 30
            ; p = kp * error
            load 30
            push {kp:?}
            mul
            store 29
            ; integral += ki_step * error
            load 3
            load 30
            push {ki_step:?}
            mul
            add
            store 3
            ; clamp integral to [out_min - p, out_max - p]
            load 3
            push {omin:?}
            load 29
            sub
            max
            push {omax:?}
            load 29
            sub
            min
            store 3
            ; out = clamp(p + integral, out_min, out_max)
            load 29
            load 3
            add
            push {omin:?}
            max
            push {omax:?}
            min
            store 28
            load 28
            wract 0
            load 28
            emit 0
            load 28
            halt
        ",
        preload = preload,
        alpha = alpha,
        sp = spec.setpoint,
        sign = sign,
        kp = spec.pid.kp,
        ki_step = ki_step,
        omin = spec.pid.out_min,
        omax = spec.pid.out_max,
    );
    assemble(&src).expect("builder emits valid assembly")
}

/// A conservative per-invocation gas budget for a compiled control law.
///
/// The budget is **tier-independent**: gas is defined on the stack
/// bytecode (1 unit per fetched op), and the compiled tier preserves
/// that accounting exactly — compiled blocks charge their source ops'
/// gas even when dead code was eliminated. A budget that admits the
/// capsule on [`Tier::Interp`](crate::bytecode::Tier) therefore admits
/// it, with identical `gas_used`, on every tier (enforced by
/// `tests/tier_differential.rs::gas_budget_is_tier_independent`).
#[must_use]
pub fn control_law_gas_budget(program: &Program) -> u64 {
    // Straight-line code: every instruction executes at most once, plus
    // slack for the init path.
    program.len() as u64 + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{NullEnv, Vm};
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
        let mut vm = Vm::new(control_law_gas_budget(&program));
        let mut env = NullEnv {
            sensor_value: 42.0,
            ..NullEnv::default()
        };
        vm.run(&program, &mut env).unwrap();
        assert!(vm.gas_used() <= control_law_gas_budget(&program));
        // And the budget is not absurdly loose.
        assert!(vm.gas_used() * 3 > control_law_gas_budget(&program));
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
