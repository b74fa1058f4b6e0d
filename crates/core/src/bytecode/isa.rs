//! Instruction set and byte encoding.

use std::fmt;
use std::sync::Arc;

/// One EVM instruction.
///
/// Cells are `f64`: the paper's controllers compute real-valued control
/// laws, and carrying the arithmetic in floating point keeps the capsule
/// bit-identical to the reference implementation (the fixed-point variant
/// an 8-bit AVR would use differs only in scaling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // --- stack ---------------------------------------------------------
    /// Push a literal.
    Push(f64),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Swap the top two cells.
    Swap,
    /// Copy the second cell to the top.
    Over,
    /// Rotate the top three cells (3rd to top).
    Rot,

    // --- arithmetic ----------------------------------------------------
    /// `a b -- a+b`
    Add,
    /// `a b -- a-b`
    Sub,
    /// `a b -- a*b`
    Mul,
    /// `a b -- a/b` (division by zero is a trap).
    Div,
    /// `a -- -a`
    Neg,
    /// `a -- |a|`
    Abs,
    /// `a b -- min(a,b)`
    Min,
    /// `a b -- max(a,b)`
    Max,

    // --- comparison (1.0 = true, 0.0 = false) --------------------------
    /// `a b -- (a>b)`
    Gt,
    /// `a b -- (a<b)`
    Lt,
    /// `a b -- (a>=b)`
    Ge,
    /// `a b -- (a<=b)`
    Le,
    /// `a b -- (a==b)`
    Eq,
    /// `a -- !a` (0.0 -> 1.0, else 0.0)
    Not,

    // --- task-local memory ----------------------------------------------
    /// Push variable `n`.
    Load(u8),
    /// Pop into variable `n`.
    Store(u8),

    // --- control flow ----------------------------------------------------
    /// Unconditional relative jump (operand added to pc after fetch).
    Jmp(i16),
    /// Pop; jump if zero.
    Jz(i16),
    /// Call absolute address (pushes return address).
    Call(u16),
    /// Return from call.
    Ret,
    /// Stop execution successfully.
    Halt,

    // --- node and component I/O -----------------------------------------
    /// Push the value of sensor input `port`.
    ReadSensor(u8),
    /// Pop and write to actuator output `port`.
    WriteActuator(u8),
    /// Pop and publish on Virtual-Component data channel `ch` (how
    /// primaries expose outputs to passive observers).
    Emit(u8),
    /// Push the node clock, seconds.
    ReadClock,
    /// Push remaining battery fraction.
    ReadBattery,
    /// Push the node's controller mode as a small integer.
    ReadRole,

    // --- extensibility ----------------------------------------------------
    /// Invoke runtime-registered word `n` (the EVM's "instruction set is
    /// extensible at runtime", §3.1).
    Ext(u8),
    /// No operation.
    Nop,
}

/// What a program reads from its node environment besides its
/// task-local variables: the inputs a run of it can depend on. Computed
/// by [`Program::inputs`] from the instructions alone, so once per law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramInputs {
    /// The program reads a sensor port (`ReadSensor`).
    pub sensor: bool,
    /// The program reads the node clock (`ReadClock`).
    pub clock: bool,
    /// The program reads the node's controller mode (`ReadRole`).
    pub role: bool,
    /// The program reads the battery (`ReadBattery`).
    pub battery: bool,
    /// The program invokes extension words (`Ext`), whose bodies belong
    /// to the VM, not the program, and may read anything.
    pub ext: bool,
}

/// A sequence of instructions plus its byte encoding.
///
/// The instructions live behind an [`Arc`], so a clone is a reference
/// count bump, not a copy: every replica of one control law (and its
/// capsule) points at the same instruction list, across threads too.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Arc<[Op]>,
}

impl Default for Program {
    fn default() -> Self {
        Program::new(Vec::new())
    }
}

impl Program {
    /// Creates a program from instructions.
    #[must_use]
    pub fn new(ops: Vec<Op>) -> Self {
        Program { ops: ops.into() }
    }

    /// The instructions.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// `true` if `other` shares this program's instruction list: a clone
    /// of it, or of a clone. Programs built apart are never the same
    /// code, even when their instructions are equal.
    #[must_use]
    pub fn same_code(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.ops, &other.ops)
    }

    /// The environment inputs the instructions read.
    #[must_use]
    pub fn inputs(&self) -> ProgramInputs {
        let mut inputs = ProgramInputs::default();
        for op in self.ops.iter() {
            match op {
                Op::ReadSensor(_) => inputs.sensor = true,
                Op::ReadClock => inputs.clock = true,
                Op::ReadRole => inputs.role = true,
                Op::ReadBattery => inputs.battery = true,
                Op::Ext(_) => inputs.ext = true,
                _ => {}
            }
        }
        inputs
    }

    /// Serializes to the wire format (what migration actually moves).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for op in self.ops.iter() {
            encode_op(op, &mut out);
        }
        out
    }

    /// Wire-format length in bytes, without building the encoding.
    /// Callers that only need the size (image sizing, per-chunk length
    /// math in the transfer hot loop) must not pay an allocation per
    /// query.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.ops.iter().map(encoded_op_len).sum()
    }

    /// Parses the wire format back into a program.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed instruction.
    pub fn decode(bytes: &[u8]) -> Result<Program, String> {
        let mut ops = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            let (op, used) = decode_op(&bytes[i..]).map_err(|e| format!("at byte {i}: {e}"))?;
            ops.push(op);
            i += used;
        }
        Ok(Program::new(ops))
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Push(v) => write!(f, "push {v}"),
            Op::Dup => write!(f, "dup"),
            Op::Drop => write!(f, "drop"),
            Op::Swap => write!(f, "swap"),
            Op::Over => write!(f, "over"),
            Op::Rot => write!(f, "rot"),
            Op::Add => write!(f, "add"),
            Op::Sub => write!(f, "sub"),
            Op::Mul => write!(f, "mul"),
            Op::Div => write!(f, "div"),
            Op::Neg => write!(f, "neg"),
            Op::Abs => write!(f, "abs"),
            Op::Min => write!(f, "min"),
            Op::Max => write!(f, "max"),
            Op::Gt => write!(f, "gt"),
            Op::Lt => write!(f, "lt"),
            Op::Ge => write!(f, "ge"),
            Op::Le => write!(f, "le"),
            Op::Eq => write!(f, "eq"),
            Op::Not => write!(f, "not"),
            Op::Load(n) => write!(f, "load {n}"),
            Op::Store(n) => write!(f, "store {n}"),
            Op::Jmp(o) => write!(f, "jmp {o}"),
            Op::Jz(o) => write!(f, "jz {o}"),
            Op::Call(a) => write!(f, "call {a}"),
            Op::Ret => write!(f, "ret"),
            Op::Halt => write!(f, "halt"),
            Op::ReadSensor(p) => write!(f, "rdsens {p}"),
            Op::WriteActuator(p) => write!(f, "wract {p}"),
            Op::Emit(c) => write!(f, "emit {c}"),
            Op::ReadClock => write!(f, "rdclk"),
            Op::ReadBattery => write!(f, "rdbat"),
            Op::ReadRole => write!(f, "rdrole"),
            Op::Ext(n) => write!(f, "ext {n}"),
            Op::Nop => write!(f, "nop"),
        }
    }
}

fn encode_op(op: &Op, out: &mut Vec<u8>) {
    match *op {
        Op::Push(v) => {
            out.push(0x01);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Op::Dup => out.push(0x02),
        Op::Drop => out.push(0x03),
        Op::Swap => out.push(0x04),
        Op::Over => out.push(0x05),
        Op::Rot => out.push(0x06),
        Op::Add => out.push(0x10),
        Op::Sub => out.push(0x11),
        Op::Mul => out.push(0x12),
        Op::Div => out.push(0x13),
        Op::Neg => out.push(0x14),
        Op::Abs => out.push(0x15),
        Op::Min => out.push(0x16),
        Op::Max => out.push(0x17),
        Op::Gt => out.push(0x20),
        Op::Lt => out.push(0x21),
        Op::Ge => out.push(0x22),
        Op::Le => out.push(0x23),
        Op::Eq => out.push(0x24),
        Op::Not => out.push(0x25),
        Op::Load(n) => {
            out.push(0x30);
            out.push(n);
        }
        Op::Store(n) => {
            out.push(0x31);
            out.push(n);
        }
        Op::Jmp(o) => {
            out.push(0x40);
            out.extend_from_slice(&o.to_le_bytes());
        }
        Op::Jz(o) => {
            out.push(0x41);
            out.extend_from_slice(&o.to_le_bytes());
        }
        Op::Call(a) => {
            out.push(0x42);
            out.extend_from_slice(&a.to_le_bytes());
        }
        Op::Ret => out.push(0x43),
        Op::Halt => out.push(0x44),
        Op::ReadSensor(p) => {
            out.push(0x50);
            out.push(p);
        }
        Op::WriteActuator(p) => {
            out.push(0x51);
            out.push(p);
        }
        Op::Emit(c) => {
            out.push(0x52);
            out.push(c);
        }
        Op::ReadClock => out.push(0x53),
        Op::ReadBattery => out.push(0x54),
        Op::ReadRole => out.push(0x55),
        Op::Ext(n) => {
            out.push(0x60);
            out.push(n);
        }
        Op::Nop => out.push(0x00),
    }
}

/// Encoded size of one instruction: opcode byte plus its operand, if
/// any. Must stay in lockstep with [`encode_op`] — pinned by the
/// `encoded_len_matches_encoding` test below.
fn encoded_op_len(op: &Op) -> usize {
    match *op {
        Op::Push(_) => 9,
        Op::Jmp(_) | Op::Jz(_) | Op::Call(_) => 3,
        Op::Load(_)
        | Op::Store(_)
        | Op::ReadSensor(_)
        | Op::WriteActuator(_)
        | Op::Emit(_)
        | Op::Ext(_) => 2,
        _ => 1,
    }
}

fn decode_op(bytes: &[u8]) -> Result<(Op, usize), String> {
    let opcode = *bytes.first().ok_or("empty input")?;
    let need = |n: usize| -> Result<&[u8], String> {
        bytes
            .get(1..1 + n)
            .ok_or_else(|| format!("truncated operand for opcode {opcode:#x}"))
    };
    let op = match opcode {
        0x00 => (Op::Nop, 1),
        0x01 => {
            let b = need(8)?;
            (
                Op::Push(f64::from_le_bytes(b.try_into().expect("8 bytes"))),
                9,
            )
        }
        0x02 => (Op::Dup, 1),
        0x03 => (Op::Drop, 1),
        0x04 => (Op::Swap, 1),
        0x05 => (Op::Over, 1),
        0x06 => (Op::Rot, 1),
        0x10 => (Op::Add, 1),
        0x11 => (Op::Sub, 1),
        0x12 => (Op::Mul, 1),
        0x13 => (Op::Div, 1),
        0x14 => (Op::Neg, 1),
        0x15 => (Op::Abs, 1),
        0x16 => (Op::Min, 1),
        0x17 => (Op::Max, 1),
        0x20 => (Op::Gt, 1),
        0x21 => (Op::Lt, 1),
        0x22 => (Op::Ge, 1),
        0x23 => (Op::Le, 1),
        0x24 => (Op::Eq, 1),
        0x25 => (Op::Not, 1),
        0x30 => (Op::Load(need(1)?[0]), 2),
        0x31 => (Op::Store(need(1)?[0]), 2),
        0x40 => {
            let b = need(2)?;
            (
                Op::Jmp(i16::from_le_bytes(b.try_into().expect("2 bytes"))),
                3,
            )
        }
        0x41 => {
            let b = need(2)?;
            (
                Op::Jz(i16::from_le_bytes(b.try_into().expect("2 bytes"))),
                3,
            )
        }
        0x42 => {
            let b = need(2)?;
            (
                Op::Call(u16::from_le_bytes(b.try_into().expect("2 bytes"))),
                3,
            )
        }
        0x43 => (Op::Ret, 1),
        0x44 => (Op::Halt, 1),
        0x50 => (Op::ReadSensor(need(1)?[0]), 2),
        0x51 => (Op::WriteActuator(need(1)?[0]), 2),
        0x52 => (Op::Emit(need(1)?[0]), 2),
        0x53 => (Op::ReadClock, 1),
        0x54 => (Op::ReadBattery, 1),
        0x55 => (Op::ReadRole, 1),
        0x60 => (Op::Ext(need(1)?[0]), 2),
        other => return Err(format!("unknown opcode {other:#x}")),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Push(11.48),
            Op::Dup,
            Op::Load(3),
            Op::Add,
            Op::Store(3),
            Op::Jz(-4),
            Op::Call(12),
            Op::ReadSensor(0),
            Op::WriteActuator(1),
            Op::Emit(2),
            Op::Ext(7),
            Op::Halt,
        ]
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let p = Program::new(sample_ops());
        assert_eq!(p.encoded_len(), p.encode().len());
        for op in p.ops() {
            let mut bytes = Vec::new();
            encode_op(op, &mut bytes);
            assert_eq!(encoded_op_len(op), bytes.len(), "op {op}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Program::new(sample_ops());
        let bytes = p.encode();
        let q = Program::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Program::decode(&[0xFF]).is_err());
        // Truncated push.
        assert!(Program::decode(&[0x01, 1, 2, 3]).is_err());
    }

    #[test]
    fn display_is_assembly_like() {
        assert_eq!(Op::Push(2.0).to_string(), "push 2");
        assert_eq!(Op::ReadSensor(0).to_string(), "rdsens 0");
        assert_eq!(Op::Jz(-4).to_string(), "jz -4");
    }

    #[test]
    fn roundtrip_random_programs() {
        use evm_sim::SimRng;
        let mut rng = SimRng::seed_from(0x15A);
        for _ in 0..256 {
            let n = rng.index(50);
            let mut ops = Vec::new();
            for i in 0..n {
                ops.push(Op::Push(rng.range(-1e6, 1e6)));
                ops.push(match i % 5 {
                    0 => Op::Add,
                    1 => Op::Store((i % 32) as u8),
                    2 => Op::Jmp(i as i16 - 25),
                    3 => Op::Ext(i as u8),
                    _ => Op::Halt,
                });
            }
            let p = Program::new(ops);
            assert_eq!(Program::decode(&p.encode()).unwrap(), p);
        }
    }
}
