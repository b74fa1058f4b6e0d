//! The FORTH-like EVM interpreter.
//!
//! Like Maté, the EVM runs a small stack machine inside the RTOS; unlike
//! Maté, the instruction set is (a) extensible at runtime and (b) aimed at
//! node-to-node control: instructions exist for publishing values into the
//! Virtual Component's data plane, reading role/battery state, and
//! triggering task operations. Execution is **gas-metered**: a capsule
//! declares its worst-case instruction count, the kernel converts that to
//! WCET for the schedulability gate, and the interpreter enforces it.
//!
//! There is one execution path: the stack interpreter behind
//! [`Vm::run`]. Replicas of one law may share a run through a
//! [`RunMemo`], which adopts a recorded run bit for bit instead of
//! repeating it.

mod asm;
mod builder;
mod capsule;
mod interp;
mod isa;
mod memo;

pub use asm::{assemble, disassemble, AsmError};
pub use builder::{
    compile_control_law, control_law_gas_budget, integrator_of, ControlLawSpec, VAR_INTEGRATOR,
};
pub use capsule::{Capability, Capsule, CapsuleId};
pub use interp::{NullEnv, Tier, Vm, VmEnv, VmError, MAX_STACK, N_VARS};
pub use isa::{Op, Program, ProgramInputs};
pub use memo::{ReplicaInput, ReplicaRun, RunMemo};
