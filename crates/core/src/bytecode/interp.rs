//! The stack-machine interpreter: the one way a capsule runs.
//!
//! [`Vm::run`] executes the stack program directly, gas-metered one unit
//! per fetched instruction, and dispatches `ext` words through the VM's
//! runtime extension table.

use std::fmt;

use super::isa::{Op, Program};

/// Maximum data-stack depth (mirrors the 8-bit platform's tight RAM).
pub const MAX_STACK: usize = 32;
/// Number of task-local variables.
pub const N_VARS: usize = 32;
/// Maximum call depth.
const MAX_CALLS: usize = 8;

/// The execution engine a [`Vm`] uses: the interpreter is the only one.
///
/// Kept as a one-variant enum only for the benchmark harness, which
/// still passes `Scenario::tier` to [`Vm::with_tier`]; it goes away
/// together with that call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The stack interpreter in this module.
    #[default]
    Interp,
}

/// Runtime faults the interpreter traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Pop from an empty stack.
    StackUnderflow,
    /// Push onto a full stack.
    StackOverflow,
    /// Jump, call or fall-through outside the executing code. Only an
    /// extension body may run off its end: that acts as `ret`.
    PcOutOfRange,
    /// Division by zero.
    DivideByZero,
    /// Variable index ≥ [`N_VARS`].
    BadVariable,
    /// Gas budget exhausted before `halt`.
    OutOfGas,
    /// `ext` with no registered word.
    UnknownExtension,
    /// Call stack exhausted.
    CallDepthExceeded,
    /// Environment refused a port access.
    PortFault,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmError::StackUnderflow => "stack underflow",
            VmError::StackOverflow => "stack overflow",
            VmError::PcOutOfRange => "pc out of range",
            VmError::DivideByZero => "divide by zero",
            VmError::BadVariable => "bad variable index",
            VmError::OutOfGas => "out of gas",
            VmError::UnknownExtension => "unknown extension word",
            VmError::CallDepthExceeded => "call depth exceeded",
            VmError::PortFault => "port fault",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VmError {}

/// The node environment a capsule executes against.
///
/// The engine implements this for real nodes; [`NullEnv`] serves tests.
pub trait VmEnv {
    /// Reads sensor input `port`.
    ///
    /// # Errors
    ///
    /// Implementations return `Err(VmError::PortFault)` for unbound ports.
    fn read_sensor(&mut self, port: u8) -> Result<f64, VmError>;

    /// Writes actuator output `port`.
    ///
    /// # Errors
    ///
    /// Implementations return `Err(VmError::PortFault)` for unbound ports.
    fn write_actuator(&mut self, port: u8, value: f64) -> Result<(), VmError>;

    /// Publishes `value` on Virtual-Component data channel `ch`.
    fn emit(&mut self, ch: u8, value: f64);

    /// Node clock, seconds.
    fn clock_s(&self) -> f64;

    /// Remaining battery fraction.
    fn battery_fraction(&self) -> f64 {
        1.0
    }

    /// The node's controller mode as a small integer (see
    /// [`crate::roles::ControllerMode::as_f64`]).
    fn role_code(&self) -> f64 {
        0.0
    }
}

/// A test/bench environment: one sensor value on every port, actuator
/// writes and emissions recorded.
#[derive(Debug, Clone, Default)]
pub struct NullEnv {
    /// Value served on every sensor port.
    pub sensor_value: f64,
    /// Recorded `(port, value)` actuator writes.
    pub writes: Vec<(u8, f64)>,
    /// Recorded `(channel, value)` emissions.
    pub emissions: Vec<(u8, f64)>,
    /// Clock returned to the program.
    pub now_s: f64,
}

impl VmEnv for NullEnv {
    fn read_sensor(&mut self, _port: u8) -> Result<f64, VmError> {
        Ok(self.sensor_value)
    }
    fn write_actuator(&mut self, port: u8, value: f64) -> Result<(), VmError> {
        self.writes.push((port, value));
        Ok(())
    }
    fn emit(&mut self, ch: u8, value: f64) {
        self.emissions.push((ch, value));
    }
    fn clock_s(&self) -> f64 {
        self.now_s
    }
}

/// The persistent virtual machine for one task: variables survive across
/// invocations (that is where PID integrators live), and the extension
/// dictionary can grow at runtime.
#[derive(Debug, Clone)]
pub struct Vm {
    vars: [f64; N_VARS],
    /// The extension-word dispatch table, indexed by word: grown on the
    /// first registration to just past the highest word, so a VM that
    /// never registers one (every runtime replica) carries no table. A
    /// word past the end is unregistered, like an empty slot.
    extensions: Vec<Option<Program>>,
    gas_limit: u64,
    gas_used_last: u64,
}

impl Vm {
    /// Creates a VM with the given per-invocation gas budget.
    ///
    /// # Panics
    ///
    /// Panics if `gas_limit` is zero.
    #[must_use]
    pub fn new(gas_limit: u64) -> Self {
        assert!(gas_limit > 0, "gas limit must be positive");
        Vm {
            vars: [0.0; N_VARS],
            extensions: Vec::new(),
            gas_limit,
            gas_used_last: 0,
        }
    }

    /// Same as [`Vm::new`]. Kept only for the benchmark harness, which
    /// still passes `Scenario::tier`; it goes away with that call site.
    ///
    /// # Panics
    ///
    /// Panics if `gas_limit` is zero.
    #[must_use]
    pub fn with_tier(gas_limit: u64, _tier: Tier) -> Self {
        Self::new(gas_limit)
    }

    /// Registers (or replaces) extension word `n` — the runtime ISA
    /// extension mechanism. Returns the previous definition, if any.
    pub fn register_extension(&mut self, n: u8, body: Program) -> Option<Program> {
        let n = n as usize;
        if self.extensions.len() <= n {
            self.extensions.resize(n + 1, None);
        }
        self.extensions[n].replace(body)
    }

    /// Gas consumed by the last invocation.
    #[must_use]
    pub fn gas_used(&self) -> u64 {
        self.gas_used_last
    }

    /// The per-invocation gas budget.
    #[must_use]
    pub fn gas_limit(&self) -> u64 {
        self.gas_limit
    }

    /// Reads a task-local variable (for state migration).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N_VARS`.
    #[must_use]
    pub fn var(&self, idx: usize) -> f64 {
        self.vars[idx]
    }

    /// Snapshot of all variables (migrated with the TCB).
    #[must_use]
    pub fn snapshot_vars(&self) -> [f64; N_VARS] {
        self.vars
    }

    /// Restores variables from a migrated snapshot.
    pub fn restore_vars(&mut self, vars: [f64; N_VARS]) {
        self.vars = vars;
    }

    /// The task-local variables.
    pub(super) fn vars(&self) -> &[f64; N_VARS] {
        &self.vars
    }

    /// `true` if an extension word was ever registered.
    pub(super) fn has_extensions(&self) -> bool {
        !self.extensions.is_empty()
    }

    /// Takes over the outcome of a recorded run: the variables it left
    /// and the gas it used.
    pub(super) fn adopt(&mut self, vars: &[f64; N_VARS], gas_used: u64) {
        self.vars = *vars;
        self.gas_used_last = gas_used;
    }

    /// Executes `program` from instruction 0 until `halt`.
    ///
    /// Returns the top of stack at halt (or 0.0 for an empty stack) — by
    /// convention the capsule's "result".
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; stores executed before the fault remain visible in
    /// the task-local variables (as on the real machine).
    pub fn run(&mut self, program: &Program, env: &mut dyn VmEnv) -> Result<f64, VmError> {
        let mut gas = 0u64;
        let result = exec(
            program,
            &self.extensions,
            &mut self.vars,
            self.gas_limit,
            &mut gas,
            env,
        );
        self.gas_used_last = gas;
        result
    }
}

#[allow(clippy::too_many_lines)]
fn exec(
    program: &Program,
    extensions: &[Option<Program>],
    vars: &mut [f64; N_VARS],
    gas_limit: u64,
    gas_out: &mut u64,
    env: &mut dyn VmEnv,
) -> Result<f64, VmError> {
    // The data stack lives in this frame, `sp` cells high: a run never
    // allocates, whatever the VM ran before.
    let mut stack = [0.0f64; MAX_STACK];
    let mut sp = 0usize;
    // The executing code (the main program or an extension word's body)
    // and the return stack of (code, pc) pairs, a fixed array so that
    // `call` and `ext` never allocate.
    let mut ops: &[Op] = program.ops();
    let mut calls: [(&[Op], usize); MAX_CALLS] = [(&[], 0); MAX_CALLS];
    let mut depth = 0usize;
    // The call depth at which the run left the main program for an
    // extension body; `None` while the main program executes. Code
    // reached from an extension body is extension code, so returning to
    // this depth is returning to the main program.
    let mut ext_base: Option<usize> = None;
    let mut gas: u64 = 0;
    let mut pc = 0usize;

    // Every exit reports the gas used so far, exactly once.
    macro_rules! exit {
        ($r:expr) => {{
            *gas_out = gas;
            return $r;
        }};
    }
    macro_rules! trap {
        ($e:expr) => {
            exit!(Err($e))
        };
    }
    macro_rules! top {
        () => {
            if sp == 0 {
                0.0
            } else {
                stack[sp - 1]
            }
        };
    }
    macro_rules! pop {
        () => {{
            if sp == 0 {
                trap!(VmError::StackUnderflow);
            }
            sp -= 1;
            stack[sp]
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            if sp >= MAX_STACK {
                trap!(VmError::StackOverflow);
            }
            stack[sp] = v;
            sp += 1;
        }};
    }
    macro_rules! binop {
        (|$a:ident, $b:ident| $v:expr) => {{
            let $b = pop!();
            let $a = pop!();
            push!($v);
        }};
    }
    macro_rules! save_frame {
        () => {{
            if depth >= MAX_CALLS {
                trap!(VmError::CallDepthExceeded);
            }
            calls[depth] = (ops, pc);
            depth += 1;
        }};
    }
    macro_rules! restore_frame {
        () => {{
            depth -= 1;
            (ops, pc) = calls[depth];
            if ext_base == Some(depth) {
                ext_base = None;
            }
        }};
    }
    macro_rules! jump {
        ($off:expr) => {
            match jump_target(pc, $off) {
                Some(target) => pc = target,
                None => trap!(VmError::PcOutOfRange),
            }
        };
    }

    loop {
        if gas >= gas_limit {
            trap!(VmError::OutOfGas);
        }
        let Some(&op) = ops.get(pc) else {
            // Falling off an extension body behaves like ret; falling off
            // the main program traps, at any call depth.
            if ext_base.is_some() {
                restore_frame!();
                continue;
            }
            trap!(VmError::PcOutOfRange);
        };
        gas += 1;
        pc += 1;
        match op {
            Op::Push(v) => push!(v),
            Op::Dup => {
                if sp == 0 {
                    trap!(VmError::StackUnderflow);
                }
                push!(stack[sp - 1]);
            }
            Op::Drop => {
                let _ = pop!();
            }
            Op::Swap => {
                if sp < 2 {
                    trap!(VmError::StackUnderflow);
                }
                stack.swap(sp - 1, sp - 2);
            }
            Op::Over => {
                if sp < 2 {
                    trap!(VmError::StackUnderflow);
                }
                push!(stack[sp - 2]);
            }
            Op::Rot => {
                if sp < 3 {
                    trap!(VmError::StackUnderflow);
                }
                stack[sp - 3..sp].rotate_left(1);
            }
            Op::Add => binop!(|a, b| a + b),
            Op::Sub => binop!(|a, b| a - b),
            Op::Mul => binop!(|a, b| a * b),
            Op::Div => {
                let b = pop!();
                let a = pop!();
                if b == 0.0 {
                    trap!(VmError::DivideByZero);
                }
                push!(a / b);
            }
            Op::Neg => {
                let a = pop!();
                push!(-a);
            }
            Op::Abs => {
                let a = pop!();
                push!(a.abs());
            }
            Op::Min => binop!(|a, b| a.min(b)),
            Op::Max => binop!(|a, b| a.max(b)),
            Op::Gt => binop!(|a, b| if a > b { 1.0 } else { 0.0 }),
            Op::Lt => binop!(|a, b| if a < b { 1.0 } else { 0.0 }),
            Op::Ge => binop!(|a, b| if a >= b { 1.0 } else { 0.0 }),
            Op::Le => binop!(|a, b| if a <= b { 1.0 } else { 0.0 }),
            Op::Eq => binop!(|a, b| if a == b { 1.0 } else { 0.0 }),
            Op::Not => {
                let a = pop!();
                push!(if a == 0.0 { 1.0 } else { 0.0 });
            }
            Op::Load(n) => {
                let Some(&v) = vars.get(n as usize) else {
                    trap!(VmError::BadVariable);
                };
                push!(v);
            }
            Op::Store(n) => {
                if n as usize >= N_VARS {
                    trap!(VmError::BadVariable);
                }
                vars[n as usize] = pop!();
            }
            Op::Jmp(off) => jump!(off),
            Op::Jz(off) => {
                if pop!() == 0.0 {
                    jump!(off);
                }
            }
            Op::Call(addr) => {
                if addr as usize >= ops.len() {
                    trap!(VmError::PcOutOfRange);
                }
                save_frame!();
                pc = addr as usize;
            }
            Op::Ret => {
                if depth == 0 {
                    exit!(Ok(top!()));
                }
                restore_frame!();
            }
            Op::Halt => exit!(Ok(top!())),
            Op::ReadSensor(p) => match env.read_sensor(p) {
                Ok(v) => push!(v),
                Err(e) => trap!(e),
            },
            Op::WriteActuator(p) => {
                let v = pop!();
                if let Err(e) = env.write_actuator(p, v) {
                    trap!(e);
                }
            }
            Op::Emit(ch) => {
                let v = pop!();
                env.emit(ch, v);
            }
            Op::ReadClock => push!(env.clock_s()),
            Op::ReadBattery => push!(env.battery_fraction()),
            Op::ReadRole => push!(env.role_code()),
            Op::Ext(n) => {
                save_frame!();
                let Some(Some(body)) = extensions.get(n as usize) else {
                    trap!(VmError::UnknownExtension);
                };
                ext_base.get_or_insert(depth - 1);
                ops = body.ops();
                pc = 0;
            }
            Op::Nop => {}
        }
    }
}

/// The target of a relative jump fetched just before `pc_after_fetch`;
/// `None` below address 0 (a target past the end traps at the next
/// fetch).
fn jump_target(pc_after_fetch: usize, off: i16) -> Option<usize> {
    let target = pc_after_fetch as i64 - 1 + off as i64;
    usize::try_from(target).ok()
}

/// Random programs for the interpreter's property tests (and the run
/// memo's).
#[cfg(test)]
pub(crate) mod random {
    use super::Op;
    use evm_sim::SimRng;

    /// Draws one random (not necessarily well-formed) instruction.
    fn random_op(rng: &mut SimRng) -> Op {
        match rng.index(30) {
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
            _ => Op::Ext(rng.index(256) as u8),
        }
    }

    /// A random program of fewer than `max_len` instructions.
    pub(crate) fn random_ops(rng: &mut SimRng, max_len: usize) -> Vec<Op> {
        let len = rng.index(max_len);
        (0..len).map(|_| random_op(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ops(ops: Vec<Op>) -> Result<f64, VmError> {
        let mut vm = Vm::new(10_000);
        let mut env = NullEnv::default();
        vm.run(&Program::new(ops), &mut env)
    }

    #[test]
    fn arithmetic_works() {
        assert_eq!(
            run_ops(vec![Op::Push(2.0), Op::Push(3.0), Op::Add, Op::Halt]),
            Ok(5.0)
        );
        assert_eq!(
            run_ops(vec![Op::Push(2.0), Op::Push(3.0), Op::Sub, Op::Halt]),
            Ok(-1.0)
        );
        assert_eq!(
            run_ops(vec![Op::Push(6.0), Op::Push(3.0), Op::Div, Op::Halt]),
            Ok(2.0)
        );
        assert_eq!(run_ops(vec![Op::Push(-4.0), Op::Abs, Op::Halt]), Ok(4.0));
        assert_eq!(
            run_ops(vec![Op::Push(1.0), Op::Push(9.0), Op::Max, Op::Halt]),
            Ok(9.0)
        );
    }

    #[test]
    fn stack_manipulation() {
        assert_eq!(
            run_ops(vec![Op::Push(1.0), Op::Push(2.0), Op::Swap, Op::Halt]),
            Ok(1.0)
        );
        assert_eq!(
            run_ops(vec![Op::Push(1.0), Op::Push(2.0), Op::Over, Op::Halt]),
            Ok(1.0)
        );
        assert_eq!(
            // 1 2 3 rot -> 2 3 1
            run_ops(vec![
                Op::Push(1.0),
                Op::Push(2.0),
                Op::Push(3.0),
                Op::Rot,
                Op::Halt
            ]),
            Ok(1.0)
        );
    }

    #[test]
    fn comparison_and_branching() {
        // if (5 > 3) result = 10 else result = 20
        let ops = vec![
            Op::Push(5.0),
            Op::Push(3.0),
            Op::Gt,
            Op::Jz(3),      // to the else branch
            Op::Push(10.0), // then
            Op::Jmp(2),
            Op::Push(20.0), // else
            Op::Halt,
        ];
        assert_eq!(run_ops(ops), Ok(10.0));
    }

    #[test]
    fn loop_with_counter() {
        // var0 = 5; while (var0 != 0) { var0 -= 1 }; result = var0
        let ops = vec![
            Op::Push(5.0),
            Op::Store(0),
            // loop:
            Op::Load(0),
            Op::Jz(6), // exit
            Op::Load(0),
            Op::Push(1.0),
            Op::Sub,
            Op::Store(0),
            Op::Jmp(-6), // back to loop
            // exit:
            Op::Load(0),
            Op::Halt,
        ];
        assert_eq!(run_ops(ops), Ok(0.0));
    }

    #[test]
    fn vars_persist_across_invocations() {
        let mut vm = Vm::new(1000);
        let mut env = NullEnv::default();
        let inc = Program::new(vec![
            Op::Load(7),
            Op::Push(1.0),
            Op::Add,
            Op::Store(7),
            Op::Load(7),
            Op::Halt,
        ]);
        assert_eq!(vm.run(&inc, &mut env), Ok(1.0));
        assert_eq!(vm.run(&inc, &mut env), Ok(2.0));
        assert_eq!(vm.var(7), 2.0);
    }

    #[test]
    fn io_and_emit() {
        let mut vm = Vm::new(1000);
        let mut env = NullEnv {
            sensor_value: 42.0,
            ..NullEnv::default()
        };
        let p = Program::new(vec![
            Op::ReadSensor(0),
            Op::Push(2.0),
            Op::Mul,
            Op::Dup,
            Op::WriteActuator(1),
            Op::Emit(0),
            Op::Halt,
        ]);
        // After emit pops, the stack is empty: result 0.0.
        assert_eq!(vm.run(&p, &mut env), Ok(0.0));
        assert_eq!(env.writes, vec![(1, 84.0)]);
        assert_eq!(env.emissions, vec![(0, 84.0)]);
    }

    #[test]
    fn gas_metering_stops_infinite_loops() {
        let mut vm = Vm::new(100);
        let mut env = NullEnv::default();
        let p = Program::new(vec![Op::Jmp(0)]);
        assert_eq!(vm.run(&p, &mut env), Err(VmError::OutOfGas));
        assert_eq!(vm.gas_used(), 100);
    }

    #[test]
    fn traps_are_reported() {
        assert_eq!(run_ops(vec![Op::Add]), Err(VmError::StackUnderflow));
        assert_eq!(
            run_ops(vec![Op::Push(1.0), Op::Push(0.0), Op::Div]),
            Err(VmError::DivideByZero)
        );
        assert_eq!(run_ops(vec![Op::Load(200)]), Err(VmError::BadVariable));
        assert_eq!(run_ops(vec![Op::Push(1.0)]), Err(VmError::PcOutOfRange));
        // A call outside the code, and a jump past the end inside a
        // called subroutine, trap rather than return.
        assert_eq!(
            run_ops(vec![Op::Call(100), Op::Push(7.0), Op::Halt]),
            Err(VmError::PcOutOfRange)
        );
        assert_eq!(
            run_ops(vec![Op::Call(3), Op::Push(7.0), Op::Halt, Op::Jmp(5)]),
            Err(VmError::PcOutOfRange)
        );
        assert_eq!(
            run_ops(vec![Op::Ext(9), Op::Halt]),
            Err(VmError::UnknownExtension)
        );
        let overflow: Vec<Op> = (0..40).map(|i| Op::Push(i as f64)).collect();
        assert_eq!(run_ops(overflow), Err(VmError::StackOverflow));
    }

    #[test]
    fn call_and_ret() {
        // main: call square(3); halt   square: dup mul ret  (at addr 4)
        let ops = vec![
            Op::Push(3.0),
            Op::Call(4),
            Op::Halt,
            Op::Nop,
            Op::Dup, // addr 4
            Op::Mul,
            Op::Ret,
        ];
        assert_eq!(run_ops(ops), Ok(9.0));
    }

    #[test]
    fn runtime_extension_words() {
        let mut vm = Vm::new(1000);
        let mut env = NullEnv::default();
        // Define word 1 = "square" at runtime.
        let square = Program::new(vec![Op::Dup, Op::Mul, Op::Ret]);
        assert!(vm.register_extension(1, square.clone()).is_none());
        let p = Program::new(vec![Op::Push(7.0), Op::Ext(1), Op::Halt]);
        assert_eq!(vm.run(&p, &mut env), Ok(49.0));
        // A word past the table grown so far is unknown, like an empty slot.
        let past = Program::new(vec![Op::Push(3.0), Op::Ext(200), Op::Halt]);
        assert_eq!(vm.run(&past, &mut env), Err(VmError::UnknownExtension));
        // The last word fits.
        vm.register_extension(255, Program::new(vec![Op::Push(2.0), Op::Add, Op::Ret]));
        let last = Program::new(vec![Op::Push(3.0), Op::Ext(255), Op::Ext(1), Op::Halt]);
        assert_eq!(vm.run(&last, &mut env), Ok(25.0));
        // Words 0 and 254 dispatch too.
        for n in [0, 254] {
            vm.register_extension(n, square.clone());
            let p = Program::new(vec![Op::Push(3.0), Op::Ext(n), Op::Halt]);
            assert_eq!(vm.run(&p, &mut env), Ok(9.0), "word {n}");
        }
        // Redefining replaces the behavior and hands back the old body.
        let old = vm.register_extension(1, Program::new(vec![Op::Push(0.0), Op::Add, Op::Ret]));
        assert_eq!(old, Some(square));
        assert_eq!(vm.run(&p, &mut env), Ok(7.0));
        // A clone keeps the dictionary.
        assert_eq!(vm.clone().run(&last, &mut env), Ok(5.0));
    }

    #[test]
    fn extension_without_ret_falls_through() {
        let mut vm = Vm::new(1000);
        let mut env = NullEnv::default();
        vm.register_extension(2, Program::new(vec![Op::Push(5.0)]));
        let p = Program::new(vec![Op::Ext(2), Op::Halt]);
        assert_eq!(vm.run(&p, &mut env), Ok(5.0));
    }

    #[test]
    fn only_an_extension_body_runs_off_its_end() {
        let mut vm = Vm::new(1000);
        let mut env = NullEnv::default();
        // Inside an extension body, running off the end returns, also
        // from a subroutine the body called.
        vm.register_extension(4, Program::new(vec![Op::Call(2), Op::Ret, Op::Push(5.0)]));
        let p = Program::new(vec![Op::Ext(4), Op::Push(1.0), Op::Add, Op::Halt]);
        assert_eq!(vm.run(&p, &mut env), Ok(6.0));
        // Back in the main program after the word returned, running off
        // the end traps again.
        let p = Program::new(vec![Op::Ext(4), Op::Push(1.0), Op::Add]);
        assert_eq!(vm.run(&p, &mut env), Err(VmError::PcOutOfRange));
        // A call target is checked against the executing code: a body
        // that calls past its own end traps.
        vm.register_extension(3, Program::new(vec![Op::Call(5), Op::Ret]));
        let p = Program::new(vec![
            Op::Ext(3),
            Op::Nop,
            Op::Nop,
            Op::Nop,
            Op::Nop,
            Op::Halt,
        ]);
        assert_eq!(vm.run(&p, &mut env), Err(VmError::PcOutOfRange));
    }

    #[test]
    fn call_depth_limited() {
        // Recursive call with no exit.
        let ops = vec![Op::Call(0)];
        assert_eq!(run_ops(ops), Err(VmError::CallDepthExceeded));
    }

    mod fuzz {
        use super::super::random::random_ops;
        use super::*;
        use evm_sim::SimRng;

        /// The interpreter is total: any byte-valid program either halts
        /// with a value or traps with a typed error — it never panics, and
        /// it never exceeds its gas budget.
        #[test]
        fn interpreter_is_total_on_random_programs() {
            let mut rng = SimRng::seed_from(0xF022);
            for _ in 0..512 {
                let mut vm = Vm::new(256);
                let mut env = NullEnv {
                    sensor_value: 1.5,
                    ..NullEnv::default()
                };
                let program = Program::new(random_ops(&mut rng, 64));
                let _ = vm.run(&program, &mut env);
                assert!(vm.gas_used() <= 256);
            }
        }

        /// Encode/decode is the identity on arbitrary programs, so a
        /// migrated capsule executes identically on the target node.
        #[test]
        fn migration_preserves_execution_of_random_programs() {
            let mut rng = SimRng::seed_from(0xF023);
            for _ in 0..512 {
                let program = Program::new(random_ops(&mut rng, 48));
                let decoded = Program::decode(&program.encode()).expect("roundtrip");
                let mut vm_a = Vm::new(200);
                let mut vm_b = Vm::new(200);
                let mut env_a = NullEnv {
                    sensor_value: 2.5,
                    ..NullEnv::default()
                };
                let mut env_b = env_a.clone();
                let ra = vm_a.run(&program, &mut env_a);
                let rb = vm_b.run(&decoded, &mut env_b);
                assert_eq!(ra, rb);
                assert_eq!(env_a.writes, env_b.writes);
                assert_eq!(vm_a.snapshot_vars(), vm_b.snapshot_vars());
            }
        }
    }

    #[test]
    fn clock_battery_role() {
        let mut vm = Vm::new(100);
        let mut env = NullEnv {
            now_s: 12.5,
            ..NullEnv::default()
        };
        let p = Program::new(vec![Op::ReadClock, Op::Halt]);
        assert_eq!(vm.run(&p, &mut env), Ok(12.5));
        let p = Program::new(vec![Op::ReadBattery, Op::Halt]);
        assert_eq!(vm.run(&p, &mut env), Ok(1.0));
        let p = Program::new(vec![Op::ReadRole, Op::Halt]);
        assert_eq!(vm.run(&p, &mut env), Ok(0.0));
    }
}
