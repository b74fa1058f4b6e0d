//! Tier 2: the register-based internal IR.
//!
//! [`lower`] translates a stack [`Program`] into basic blocks over a
//! virtual register file, eliminating data-stack traffic: register `i`
//! mirrors stack slot `i` at block entry (slots `0..MAX_STACK`), and
//! temporaries live from [`TEMP_BASE`] up. Stack shuffles (`dup`,
//! `swap`, `over`, `rot`, `drop`) become pure renames of the abstract
//! stack — they still cost one gas ([`Step::Gas`]) but move no data.
//!
//! The lowering is deliberately faithful, 1:1 and unoptimized: every
//! source op becomes exactly one [`Step`] (or the block [`Term`]), each
//! worth one gas, so the compiled tier's step-at-a-time path can meter
//! gas exactly like the oracle interpreter; all optimization happens at
//! closure-emission time in [`super::compile`]. Statically certain
//! traps (bad variable, stack under/overflow, negative jump target)
//! become [`Term::Trap`] with the oracle's exact error-ordering and gas
//! charge.
//!
//! Programs the IR cannot express bail out (`lower` returns `None`) and
//! run on the stack interpreter instead: anything with `call`/`ext`
//! (dynamic frames) or with inconsistent stack depths at a join point.

use super::interp::{VmError, MAX_STACK, N_VARS};
use super::isa::{Op, Program};

/// A virtual register index.
pub(crate) type Reg = u16;

/// First register index used for in-block temporaries; indices below
/// mirror stack slots at block boundaries.
pub(crate) const TEMP_BASE: usize = MAX_STACK;

/// Binary-operator selector of the pure, non-trapping binary stack ops.
/// `Div` is deliberately absent: it can trap, so it lowers to its own
/// [`Step::Div`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinSel {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    Gt,
    Lt,
    Ge,
    Le,
    Eq,
}

impl BinSel {
    /// The selector for a pure, non-trapping binary stack op.
    pub(crate) fn of(op: Op) -> Option<BinSel> {
        match op {
            Op::Add => Some(BinSel::Add),
            Op::Sub => Some(BinSel::Sub),
            Op::Mul => Some(BinSel::Mul),
            Op::Min => Some(BinSel::Min),
            Op::Max => Some(BinSel::Max),
            Op::Gt => Some(BinSel::Gt),
            Op::Lt => Some(BinSel::Lt),
            Op::Ge => Some(BinSel::Ge),
            Op::Le => Some(BinSel::Le),
            Op::Eq => Some(BinSel::Eq),
            _ => None,
        }
    }

    /// Applies the operator exactly as the stack interpreter does.
    #[inline]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinSel::Add => a + b,
            BinSel::Sub => a - b,
            BinSel::Mul => a * b,
            BinSel::Min => a.min(b),
            BinSel::Max => a.max(b),
            BinSel::Gt => f64::from(a > b),
            BinSel::Lt => f64::from(a < b),
            BinSel::Ge => f64::from(a >= b),
            BinSel::Le => f64::from(a <= b),
            BinSel::Eq => f64::from(a == b),
        }
    }

    /// The operator as a bare function pointer (for closure capture).
    pub(crate) fn func(self) -> fn(f64, f64) -> f64 {
        match self {
            BinSel::Add => |a, b| a + b,
            BinSel::Sub => |a, b| a - b,
            BinSel::Mul => |a, b| a * b,
            BinSel::Min => f64::min,
            BinSel::Max => f64::max,
            BinSel::Gt => |a, b| f64::from(a > b),
            BinSel::Lt => |a, b| f64::from(a < b),
            BinSel::Ge => |a, b| f64::from(a >= b),
            BinSel::Le => |a, b| f64::from(a <= b),
            BinSel::Eq => |a, b| f64::from(a == b),
        }
    }
}

/// Unary-operator selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnSel {
    Neg,
    Abs,
    Not,
}

impl UnSel {
    /// Applies the operator exactly as the oracle interpreter does.
    #[inline]
    pub(crate) fn apply(self, a: f64) -> f64 {
        match self {
            UnSel::Neg => -a,
            UnSel::Abs => a.abs(),
            UnSel::Not => f64::from(a == 0.0),
        }
    }
}

/// One lowered instruction. Every step costs exactly one gas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// `dst = k` (a `push`).
    Const { dst: Reg, k: f64 },
    /// `dst = a ⊙ b` for a pure binary op.
    Bin {
        sel: BinSel,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = a / b`, trapping on `b == 0.0`.
    Div { dst: Reg, a: Reg, b: Reg },
    /// `dst = ⊙a` for a pure unary op.
    Un { sel: UnSel, dst: Reg, a: Reg },
    /// `dst = vars[var]`.
    LoadVar { dst: Reg, var: u8 },
    /// `vars[var] = src`.
    StoreVar { var: u8, src: Reg },
    /// `dst = env.read_sensor(port)?`.
    ReadSensor { dst: Reg, port: u8 },
    /// `env.write_actuator(port, src)?`.
    WriteActuator { port: u8, src: Reg },
    /// `env.emit(ch, src)`.
    Emit { ch: u8, src: Reg },
    /// `dst = env.clock_s()`.
    ReadClock { dst: Reg },
    /// `dst = env.battery_fraction()`.
    ReadBattery { dst: Reg },
    /// `dst = env.role_code()`.
    ReadRole { dst: Reg },
    /// A pure stack shuffle or `nop`: charges gas, moves no data.
    Gas,
}

/// How a [`Term::Trap`] interacts with the gas meter, mirroring the
/// oracle's check/charge order at the faulting op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrapMode {
    /// An op-level trap: gas is checked (`OutOfGas` wins), then charged,
    /// then the error is raised.
    Op,
    /// A fetch failure (falling off the end): gas is checked but not
    /// charged.
    Fetch,
    /// Immediate: the branching op already checked and charged.
    Now,
}

/// Block terminator. `Goto { charge: true }` and `Jz` cost one gas
/// (they are a `jmp`/`jz`); a fall-through `Goto` is free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Term {
    /// Unconditional transfer.
    Goto { block: usize, charge: bool },
    /// `jz`: branch to `z` when `cond == 0.0`, else `nz`.
    Jz { cond: Reg, z: usize, nz: usize },
    /// `halt`/top-level `ret`: result is the top of stack, if any.
    Halt { result: Option<Reg> },
    /// A statically known trap.
    Trap { err: VmError, mode: TrapMode },
}

/// One basic block. On entry, the abstract stack's values sit in
/// registers `0..depth` (canonical slots); the predecessor's exit
/// moves put them there.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Block {
    /// The 1:1 lowered steps.
    pub steps: Vec<Step>,
    /// Sequentialized (cycle-free) copies materializing the abstract
    /// stack into canonical slots for the successor. Zero gas. The
    /// runner must read `Jz`'s `cond` *before* applying these — a move
    /// may overwrite the register `cond` aliases.
    pub exit_moves: Vec<(Reg, Reg)>,
    /// The terminator.
    pub term: Term,
}

/// A lowered program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegProgram {
    /// Basic blocks; entry is block 0, the last two are the off-end and
    /// negative-target trap sinks.
    pub blocks: Vec<Block>,
    /// Register-file size (slots + temporaries + the move scratch).
    pub n_regs: usize,
}

fn trap_block(err: VmError, mode: TrapMode) -> Block {
    Block {
        steps: Vec::new(),
        exit_moves: Vec::new(),
        term: Term::Trap { err, mode },
    }
}

/// Orders a parallel copy (all dsts distinct) into sequential moves,
/// breaking cycles through `scratch`. Returns the move list and whether
/// the scratch register was used.
fn sequentialize(mut pending: Vec<(Reg, Reg)>, scratch: Reg) -> (Vec<(Reg, Reg)>, bool) {
    let mut out = Vec::with_capacity(pending.len());
    let mut used_scratch = false;
    while !pending.is_empty() {
        let free = (0..pending.len()).find(|&i| {
            let d = pending[i].0;
            pending
                .iter()
                .enumerate()
                .all(|(j, &(_, s))| j == i || s != d)
        });
        if let Some(i) = free {
            out.push(pending.swap_remove(i));
        } else {
            // Every pending dst is still read: a cycle. Save one dst,
            // redirect its readers to the scratch, and emit it.
            used_scratch = true;
            let (d, s) = pending.swap_remove(0);
            out.push((scratch, d));
            out.push((d, s));
            for m in &mut pending {
                if m.1 == d {
                    m.1 = scratch;
                }
            }
        }
    }
    (out, used_scratch)
}

/// Lowers a stack program to the register IR; `None` means the program
/// is out of scope (dynamic frames or depth-inconsistent joins) and
/// must run on a lower tier.
#[allow(clippy::too_many_lines)]
pub(crate) fn lower(program: &Program) -> Option<RegProgram> {
    let ops = program.ops();
    let len = ops.len();
    if ops.iter().any(|op| matches!(op, Op::Call(_) | Op::Ext(_))) {
        return None;
    }
    if len == 0 {
        // Immediate fetch failure at pc 0.
        return Some(RegProgram {
            blocks: vec![trap_block(VmError::PcOutOfRange, TrapMode::Fetch)],
            n_regs: TEMP_BASE,
        });
    }

    // Leaders: op 0, every non-negative jump target (clamped to the
    // off-end sink), and the op after any branch or halt.
    let mut leader = vec![false; len + 1];
    leader[0] = true;
    leader[len] = true;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Jmp(off) | Op::Jz(off) => {
                let t = i as i64 + i64::from(off);
                if t >= 0 {
                    let t = usize::try_from(t).expect("non-negative");
                    leader[t.min(len)] = true;
                }
                leader[i + 1] = true;
            }
            Op::Halt | Op::Ret => leader[i + 1] = true,
            _ => {}
        }
    }
    let starts: Vec<usize> = (0..len).filter(|&i| leader[i]).collect();
    let nb = starts.len();
    let sink_fetch = nb; // falling off the end: gas check, no charge
    let sink_now = nb + 1; // negative jz target: already charged
    let mut block_of = vec![0usize; len + 1];
    for (b, &s) in starts.iter().enumerate() {
        let e = starts.get(b + 1).copied().unwrap_or(len);
        for slot in &mut block_of[s..e] {
            *slot = b;
        }
    }
    block_of[len] = sink_fetch;

    let mut blocks: Vec<Option<Block>> = vec![None; nb];
    let mut entry_depths: Vec<Option<usize>> = vec![None; nb];
    entry_depths[0] = Some(0);
    let mut work = vec![0usize];
    let mut n_regs = TEMP_BASE + 1;

    while let Some(b) = work.pop() {
        if blocks[b].is_some() {
            continue;
        }
        let depth = entry_depths[b].expect("scheduled with a depth");
        let start = starts[b];
        let end = starts.get(b + 1).copied().unwrap_or(len);

        // Abstract stack: which register holds each stack position.
        // Shuffles rename; values are written once per block.
        let mut refs: Vec<Reg> = (0..depth).map(|i| i as Reg).collect();
        let mut next_temp = TEMP_BASE as Reg;
        let mut steps: Vec<Step> = Vec::with_capacity(end - start);
        let mut term: Option<Term> = None;

        macro_rules! trap {
            ($err:expr) => {{
                term = Some(Term::Trap {
                    err: $err,
                    mode: TrapMode::Op,
                });
                break;
            }};
        }
        macro_rules! temp {
            () => {{
                let t = next_temp;
                next_temp += 1;
                t
            }};
        }

        for i in start..end {
            let op = ops[i];
            match op {
                Op::Push(k) => {
                    if refs.len() >= MAX_STACK {
                        trap!(VmError::StackOverflow);
                    }
                    let dst = temp!();
                    steps.push(Step::Const { dst, k });
                    refs.push(dst);
                }
                Op::Dup => {
                    let Some(&top) = refs.last() else {
                        trap!(VmError::StackUnderflow);
                    };
                    if refs.len() >= MAX_STACK {
                        trap!(VmError::StackOverflow);
                    }
                    refs.push(top);
                    steps.push(Step::Gas);
                }
                Op::Drop => {
                    if refs.pop().is_none() {
                        trap!(VmError::StackUnderflow);
                    }
                    steps.push(Step::Gas);
                }
                Op::Swap => {
                    let n = refs.len();
                    if n < 2 {
                        trap!(VmError::StackUnderflow);
                    }
                    refs.swap(n - 1, n - 2);
                    steps.push(Step::Gas);
                }
                Op::Over => {
                    let n = refs.len();
                    if n < 2 {
                        trap!(VmError::StackUnderflow);
                    }
                    if n >= MAX_STACK {
                        trap!(VmError::StackOverflow);
                    }
                    refs.push(refs[n - 2]);
                    steps.push(Step::Gas);
                }
                Op::Rot => {
                    let n = refs.len();
                    if n < 3 {
                        trap!(VmError::StackUnderflow);
                    }
                    refs[n - 3..].rotate_left(1);
                    steps.push(Step::Gas);
                }
                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::Min
                | Op::Max
                | Op::Gt
                | Op::Lt
                | Op::Ge
                | Op::Le
                | Op::Eq => {
                    if refs.len() < 2 {
                        trap!(VmError::StackUnderflow);
                    }
                    let rb = refs.pop().expect("checked");
                    let ra = refs.pop().expect("checked");
                    let dst = temp!();
                    steps.push(Step::Bin {
                        sel: BinSel::of(op).expect("binary op"),
                        dst,
                        a: ra,
                        b: rb,
                    });
                    refs.push(dst);
                }
                Op::Div => {
                    if refs.len() < 2 {
                        trap!(VmError::StackUnderflow);
                    }
                    let rb = refs.pop().expect("checked");
                    let ra = refs.pop().expect("checked");
                    let dst = temp!();
                    steps.push(Step::Div { dst, a: ra, b: rb });
                    refs.push(dst);
                }
                Op::Neg | Op::Abs | Op::Not => {
                    let Some(a) = refs.pop() else {
                        trap!(VmError::StackUnderflow);
                    };
                    let sel = match op {
                        Op::Neg => UnSel::Neg,
                        Op::Abs => UnSel::Abs,
                        _ => UnSel::Not,
                    };
                    let dst = temp!();
                    steps.push(Step::Un { sel, dst, a });
                    refs.push(dst);
                }
                Op::Load(v) => {
                    if v as usize >= N_VARS {
                        trap!(VmError::BadVariable);
                    }
                    if refs.len() >= MAX_STACK {
                        trap!(VmError::StackOverflow);
                    }
                    let dst = temp!();
                    steps.push(Step::LoadVar { dst, var: v });
                    refs.push(dst);
                }
                Op::Store(v) => {
                    if v as usize >= N_VARS {
                        trap!(VmError::BadVariable);
                    }
                    let Some(src) = refs.pop() else {
                        trap!(VmError::StackUnderflow);
                    };
                    steps.push(Step::StoreVar { var: v, src });
                }
                Op::Jmp(off) => {
                    let t = i as i64 + i64::from(off);
                    term = Some(if t < 0 {
                        Term::Trap {
                            err: VmError::PcOutOfRange,
                            mode: TrapMode::Op,
                        }
                    } else {
                        let t = usize::try_from(t).expect("non-negative");
                        Term::Goto {
                            block: block_of[t.min(len)],
                            charge: true,
                        }
                    });
                    break;
                }
                Op::Jz(off) => {
                    let Some(cond) = refs.pop() else {
                        trap!(VmError::StackUnderflow);
                    };
                    let t = i as i64 + i64::from(off);
                    let z = if t < 0 {
                        sink_now
                    } else {
                        let t = usize::try_from(t).expect("non-negative");
                        block_of[t.min(len)]
                    };
                    term = Some(Term::Jz {
                        cond,
                        z,
                        nz: block_of[i + 1],
                    });
                    break;
                }
                Op::Ret | Op::Halt => {
                    // With no dynamic frames `ret` is a halt.
                    term = Some(Term::Halt {
                        result: refs.last().copied(),
                    });
                    break;
                }
                Op::ReadSensor(p) => {
                    if refs.len() >= MAX_STACK {
                        trap!(VmError::StackOverflow);
                    }
                    let dst = temp!();
                    steps.push(Step::ReadSensor { dst, port: p });
                    refs.push(dst);
                }
                Op::WriteActuator(p) => {
                    let Some(src) = refs.pop() else {
                        trap!(VmError::StackUnderflow);
                    };
                    steps.push(Step::WriteActuator { port: p, src });
                }
                Op::Emit(ch) => {
                    let Some(src) = refs.pop() else {
                        trap!(VmError::StackUnderflow);
                    };
                    steps.push(Step::Emit { ch, src });
                }
                Op::ReadClock | Op::ReadBattery | Op::ReadRole => {
                    if refs.len() >= MAX_STACK {
                        trap!(VmError::StackOverflow);
                    }
                    let dst = temp!();
                    steps.push(match op {
                        Op::ReadClock => Step::ReadClock { dst },
                        Op::ReadBattery => Step::ReadBattery { dst },
                        _ => Step::ReadRole { dst },
                    });
                    refs.push(dst);
                }
                Op::Nop => steps.push(Step::Gas),
                Op::Call(_) | Op::Ext(_) => unreachable!("rejected above"),
            }
        }

        let term = term.unwrap_or(Term::Goto {
            block: block_of[end],
            charge: false,
        });

        // Propagate the exit depth to real successors; a depth mismatch
        // at a join means the IR's fixed-slot convention cannot hold.
        let exit_depth = refs.len();
        let mut succs: Vec<usize> = Vec::new();
        match term {
            Term::Goto { block, .. } => succs.push(block),
            Term::Jz { z, nz, .. } => {
                succs.push(z);
                succs.push(nz);
            }
            Term::Halt { .. } | Term::Trap { .. } => {}
        }
        for s in succs {
            if s >= nb {
                continue; // trap sinks carry no stack
            }
            match entry_depths[s] {
                None => {
                    entry_depths[s] = Some(exit_depth);
                    work.push(s);
                }
                Some(d) if d == exit_depth => {}
                Some(_) => return None,
            }
        }

        // Materialize the abstract stack into canonical slots for the
        // successor (skipped for halts/traps: nothing reads it).
        let exit_moves = if matches!(term, Term::Goto { .. } | Term::Jz { .. }) {
            let parallel: Vec<(Reg, Reg)> = refs
                .iter()
                .enumerate()
                .filter(|&(slot, &r)| r != slot as Reg)
                .map(|(slot, &r)| (slot as Reg, r))
                .collect();
            let (seq, used_scratch) = sequentialize(parallel, next_temp);
            if used_scratch {
                next_temp += 1;
            }
            seq
        } else {
            Vec::new()
        };

        n_regs = n_regs.max(next_temp as usize);
        blocks[b] = Some(Block {
            steps,
            exit_moves,
            term,
        });
    }

    let mut blocks: Vec<Block> = blocks
        .into_iter()
        .map(|b| {
            // Unreached blocks are dead; an inert trap keeps indices stable.
            b.unwrap_or_else(|| trap_block(VmError::PcOutOfRange, TrapMode::Fetch))
        })
        .collect();
    blocks.push(trap_block(VmError::PcOutOfRange, TrapMode::Fetch));
    blocks.push(trap_block(VmError::PcOutOfRange, TrapMode::Now));

    Some(RegProgram { blocks, n_regs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_lowers_to_one_block() {
        let p = Program::new(vec![Op::Push(2.0), Op::Push(3.0), Op::Add, Op::Halt]);
        let ir = lower(&p).expect("lowers");
        // One real block + two sinks.
        assert_eq!(ir.blocks.len(), 3);
        assert_eq!(ir.blocks[0].steps.len(), 3);
        assert!(matches!(ir.blocks[0].term, Term::Halt { result: Some(_) }));
    }

    #[test]
    fn call_and_ext_bail_out() {
        assert!(lower(&Program::new(vec![Op::Call(0)])).is_none());
        assert!(lower(&Program::new(vec![Op::Ext(1), Op::Halt])).is_none());
    }

    #[test]
    fn depth_mismatch_at_join_bails_out() {
        // jz 2 ·  push 1 · halt — the fall-through path reaches `halt`
        // at depth 0 via the jz edge... construct a real mismatch:
        //   0: push 0      (depth 1)
        //   1: jz +2       (branches to 3 at depth 0)
        //   2: push 1      (depth 1, falls through to 3)
        //   3: halt        (reached at depths 0 and 1)
        let p = Program::new(vec![Op::Push(0.0), Op::Jz(2), Op::Push(1.0), Op::Halt]);
        assert!(lower(&p).is_none());
    }

    #[test]
    fn loop_lowers_with_consistent_depths() {
        let p = Program::new(vec![
            Op::Push(5.0),
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
        ]);
        assert!(lower(&p).is_some());
    }

    #[test]
    fn static_traps_preserve_error_kind() {
        let ir = lower(&Program::new(vec![Op::Load(200)])).expect("lowers");
        assert!(matches!(
            ir.blocks[0].term,
            Term::Trap {
                err: VmError::BadVariable,
                mode: TrapMode::Op
            }
        ));
    }

    #[test]
    fn sequentialize_breaks_swap_cycle() {
        // Parallel {0←1, 1←0} needs the scratch.
        let (seq, used) = sequentialize(vec![(0, 1), (1, 0)], 99);
        assert!(used);
        // Simulate on a tiny file.
        let mut regs = [10.0, 20.0, 0.0];
        let slot = |r: Reg| if r == 99 { 2 } else { r as usize };
        for (d, s) in seq {
            regs[slot(d)] = regs[slot(s)];
        }
        assert_eq!(regs[0], 20.0);
        assert_eq!(regs[1], 10.0);
    }
}
