//! Cross-crate integration: the mobile-code pipeline.
//!
//! compile → package → attest → admit → execute, across `evm-plant`
//! (loop definition), `evm-core` (capsule machinery) and `evm-rtos`
//! (admission gate).

use evm::core::attest::{attest_capsule, capsule_digest, AttestationKey};
use evm::core::bytecode::{
    compile_control_law, control_law_gas_budget, Capability, Capsule, CapsuleId, ControlLawSpec,
    NullEnv, Vm,
};
use evm::core::migration::admit;
use evm::netsim::NodeId;
use evm::plant::{lts_level_loop, LocalController};
use evm::rtos::Kernel;
use evm::sim::SimDuration;

const KEY: AttestationKey = AttestationKey(0x2009_0601);
const PERIOD: SimDuration = SimDuration::from_millis(250);

/// What a controller node wired to sensor port 0 and actuator port 0
/// provides.
const CONTROLLER_CAPS: [Capability; 4] = [
    Capability::SensorPort(0),
    Capability::ActuatorPort(0),
    Capability::ControllerRole,
    Capability::DataPlane,
];

fn focus_capsule() -> Capsule {
    let law = ControlLawSpec::from_loop(&lts_level_loop());
    let program = compile_control_law(&law);
    let gas = control_law_gas_budget(&program);
    Capsule::new(
        CapsuleId(1),
        1,
        program,
        gas,
        vec![
            Capability::SensorPort(0),
            Capability::ActuatorPort(0),
            Capability::ControllerRole,
        ],
    )
}

#[test]
fn full_pipeline_compile_attest_admit_execute() {
    let capsule = focus_capsule();
    let digest = capsule_digest(&capsule, KEY);

    // Attestation gate.
    assert!(attest_capsule(&capsule, digest, KEY).passed());

    // Admission onto a controller node.
    let mut kernel = Kernel::new("ctrl-b");
    admit(
        &capsule,
        digest,
        KEY,
        NodeId(3),
        &CONTROLLER_CAPS,
        None,
        &mut kernel,
        PERIOD,
    )
    .expect("admission passes");
    assert_eq!(kernel.tcbs().len(), 1);
    assert!(kernel.verdict().schedulable);

    // Execution matches the wired controller on a step trajectory.
    let mut vm = Vm::new(capsule.gas_budget);
    let mut native = LocalController::new(lts_level_loop());
    for k in 0..1000 {
        let pv = 50.0 + if k > 500 { -8.0 } else { 0.0 };
        let mut env = NullEnv {
            sensor_value: pv,
            ..NullEnv::default()
        };
        let vm_out = vm.run(&capsule.program, &mut env).expect("runs");
        let native_out = native.compute(pv, 0.25);
        assert!((vm_out - native_out).abs() < 1e-9, "step {k}");
    }
}

#[test]
fn tampered_capsule_is_rejected_end_to_end() {
    let capsule = focus_capsule();
    let digest = capsule_digest(&capsule, KEY);
    let tampered = capsule.corrupted(10, 2).expect("still decodes");

    let mut kernel = Kernel::new("mallory");
    let err = admit(
        &tampered,
        digest,
        KEY,
        NodeId(9),
        &CONTROLLER_CAPS,
        None,
        &mut kernel,
        PERIOD,
    )
    .expect_err("tampered code must not be admitted");
    assert!(matches!(err, evm::core::EvmError::AttestationFailed { .. }));
    assert!(kernel.tcbs().is_empty());
}

#[test]
fn admission_gate_enforces_capacity_across_capsules() {
    // A node can host only so many 250 ms control capsules; the gate must
    // start refusing exactly when RTA says so, and the kernel state must
    // be unchanged on refusal.
    let mut kernel = Kernel::new("ctrl-x");
    kernel
        .admit(
            evm::rtos::TaskSpec::new(
                "hog",
                SimDuration::from_millis(200),
                SimDuration::from_millis(250),
            ),
            evm::rtos::TaskImage::typical_control_task(),
            None,
        )
        .expect("hog fits alone");

    let mut capsule = focus_capsule();
    capsule.gas_budget = 60_000; // 60 ms at 1 us/instruction
    let digest = capsule_digest(&capsule, KEY);
    let err = admit(
        &capsule,
        digest,
        KEY,
        NodeId(4),
        &CONTROLLER_CAPS,
        None,
        &mut kernel,
        PERIOD,
    )
    .expect_err("over capacity");
    assert!(matches!(err, evm::core::EvmError::AdmissionRefused { .. }));
    assert_eq!(kernel.tcbs().len(), 1);
}
