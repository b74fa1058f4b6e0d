//! Tier 3: the compiled closure-chain fast path.
//!
//! [`compile`] lowers a stack [`Program`] through the register IR
//! ([`super::regir`]) and emits, per basic block, a chain of boxed Rust
//! closures executed back-to-back without a dispatch loop. Emission
//! optimizes within each block — constant folding, load/store
//! forwarding through a per-variable alias map, dead-code elimination,
//! and peepholes that merge an arithmetic op with the store that
//! consumes it into one closure — so the canonical decrement-loop body
//! collapses to a single `vars[v] = vars[v] - k` call.
//!
//! Gas identity with the oracle is kept by a block-granular bargain:
//! the closure chain runs only when the *whole block* (steps + its
//! terminator) is affordable, in which case no per-op gas check can
//! fire and the optimized execution is observationally exact; otherwise
//! the runner falls back to the unoptimized 1:1 [`Step`] list with the
//! oracle's per-op check/charge sequence, reproducing mid-block
//! `OutOfGas` to the gas unit. Dynamic traps (`div` by zero, port
//! faults) carry their in-block gas offset so a fast-path fault reports
//! the same `gas_used` as the oracle.
//!
//! This module also provides [`ModbusCachedEnv`], a [`VmEnv`] over a
//! plant's ModBus register map that inline-caches the tag→register
//! lookups, so steady-state capsule I/O costs one table read instead of
//! a tag scan.

use std::fmt;

use evm_plant::{read_bound, write_bound, BoundRegister, Plant, RegisterMap};

use super::interp::{VmEnv, VmError, N_VARS};
use super::isa::Program;
use super::regir::{self, BinSel, Reg, Step, Term, TrapMode, UnSel};

/// An operand resolved at compile time: a register, a task variable
/// read in place, or a folded constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Opr {
    /// Read a virtual register.
    Reg(Reg),
    /// Read `vars[v]` directly (forwarded load).
    Var(u8),
    /// A compile-time constant.
    Const(f64),
}

#[inline]
fn rd(o: Opr, regs: &[f64], vars: &[f64; N_VARS]) -> f64 {
    match o {
        Opr::Reg(r) => regs[r as usize],
        Opr::Var(v) => vars[v as usize],
        Opr::Const(k) => k,
    }
}

/// One compiled step: mutates registers/variables/environment, or
/// reports a trap with its gas offset inside the block (source step
/// index + 1, i.e. how much gas the oracle would have charged by the
/// time it faults there).
type StepFn = Box<
    dyn Fn(&mut [f64], &mut [f64; N_VARS], &mut dyn VmEnv) -> Result<(), (VmError, u64)>
        + Send
        + Sync,
>;

/// Block terminator with compile-time-resolved operands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CTerm {
    Goto { block: usize, charge: bool },
    Jz { cond: Opr, z: usize, nz: usize },
    Halt { result: Option<Opr> },
    Trap { err: VmError, mode: TrapMode },
}

/// A compiled basic block: the optimized closure chain for the fast
/// path and the unoptimized 1:1 steps for the gas-metered path.
struct CBlock {
    /// Raw steps (one gas each) for the metered path.
    steps: Vec<Step>,
    /// The optimized closure chain.
    fast: Vec<StepFn>,
    /// Resolved exit moves (`slot = operand`), applied after the steps
    /// on either path — but after reading `Jz`'s `cond`.
    moves: Vec<(Reg, Opr)>,
    /// Gas charged by the steps (`steps.len()`).
    step_gas: u64,
    /// `step_gas` + the terminator's charge: the affordability bound
    /// that gates the fast path.
    block_gas: u64,
    term: CTerm,
    /// Counted-loop accelerator, present iff this block heads a
    /// self-loop whose body is pure variable arithmetic (see [`Spin`]).
    spin: Option<Spin>,
}

/// The batched counted-loop fast path: when block `h` ends in
/// `Jz { cond: vars[c], nz: b }` with nothing else to do (no surviving
/// closures, no exit moves) and block `b` is pure variable arithmetic
/// that jumps straight back to `h`, the runner executes whole loop
/// rounds in a native loop — one gas add and one condition read per
/// round instead of two block traversals. Exact by the same bargain as
/// the per-block fast path: a round runs only while *fully* affordable
/// (`round_gas` = the oracle's gas for one trip around the loop), so no
/// mid-round check could fire, and the final partial round falls back
/// to the ordinary per-block machinery.
struct Spin {
    /// Oracle gas for one full trip: head block + body block.
    round_gas: u64,
    /// `vars` index the loop continues on (non-zero ⇒ another round).
    cond: usize,
    body: SpinBody,
}

/// The loop body, pre-specialized for the hot shapes.
enum SpinBody {
    /// `vars[d] = vars[a] ⊙ k` — the canonical decrement loop. Keeps
    /// the selector (not a function pointer) so the runner can inline
    /// the hot add/sub cases into a tight native loop.
    BinVK {
        sel: BinSel,
        d: usize,
        a: usize,
        k: f64,
    },
    /// `vars[d] = f(vars[a], vars[b])`.
    BinVV {
        f: fn(f64, f64) -> f64,
        d: usize,
        a: usize,
        b: usize,
    },
    /// Any other pure-variable step list.
    Steps(Vec<VarStep>),
}

/// One var-pure step of a general spin body.
enum VarStep {
    Set {
        d: usize,
        s: VOpr,
    },
    Bin {
        f: fn(f64, f64) -> f64,
        d: usize,
        a: VOpr,
        b: VOpr,
    },
    Un {
        sel: UnSel,
        d: usize,
        a: VOpr,
    },
}

/// A spin operand: a variable or a constant (registers would carry
/// state across blocks, which spin bodies are forbidden to do).
#[derive(Clone, Copy)]
enum VOpr {
    V(usize),
    K(f64),
}

#[inline]
fn vrd(o: VOpr, vars: &[f64; N_VARS]) -> f64 {
    match o {
        VOpr::V(v) => vars[v],
        VOpr::K(k) => k,
    }
}

/// A program compiled to closure chains.
pub(crate) struct CompiledProgram {
    blocks: Vec<CBlock>,
    n_regs: usize,
}

impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("blocks", &self.blocks.len())
            .field("n_regs", &self.n_regs)
            .finish()
    }
}

/// Whether `program` lowers to the register IR and closure chain, i.e.
/// runs natively on [`super::Tier::Compiled`] instead of falling back
/// to the stack interpreter.
#[must_use]
pub fn compiles(program: &Program) -> bool {
    regir::lower(program).is_some()
}

/// Compiles `program`; `None` means the IR lowering bailed out.
pub(crate) fn compile(program: &Program) -> Option<CompiledProgram> {
    let ir = regir::lower(program)?;
    let compiled: Vec<(CBlock, Vec<RStep>)> = ir.blocks.iter().map(compile_block).collect();
    let spins: Vec<Option<Spin>> = (0..compiled.len())
        .map(|h| detect_spin(h, &compiled))
        .collect();
    let mut blocks: Vec<CBlock> = compiled.into_iter().map(|(b, _)| b).collect();
    for (block, spin) in blocks.iter_mut().zip(spins) {
        block.spin = spin;
    }
    Some(CompiledProgram {
        blocks,
        n_regs: ir.n_regs,
    })
}

/// Checks whether block `h` heads a spinnable self-loop (see [`Spin`]).
fn detect_spin(h: usize, blocks: &[(CBlock, Vec<RStep>)]) -> Option<Spin> {
    let (head, _) = &blocks[h];
    let CTerm::Jz {
        cond: Opr::Var(c),
        nz,
        ..
    } = head.term
    else {
        return None;
    };
    // The head must do nothing observable besides the branch: no
    // surviving closures (so no stores, env calls or traps) and no
    // exit moves (so no register state crosses the edge).
    if nz == h || !head.fast.is_empty() || !head.moves.is_empty() {
        return None;
    }
    let (body, body_merged) = blocks.get(nz)?;
    let CTerm::Goto { block: back, .. } = body.term else {
        return None;
    };
    if back != h || !body.moves.is_empty() {
        return None;
    }
    Some(Spin {
        round_gas: head.block_gas + body.block_gas,
        cond: c as usize,
        body: spin_body(body_merged)?,
    })
}

/// Builds the spin body iff every surviving step is pure variable
/// arithmetic: writes go to `vars`, operands are variables or
/// constants, and nothing can trap (`Div` and environment calls
/// survive DCE, so their absence from the merged list proves the raw
/// block is trap-free too).
fn spin_body(merged: &[RStep]) -> Option<SpinBody> {
    let vopr = |o: Opr| match o {
        Opr::Var(v) => Some(VOpr::V(v as usize)),
        Opr::Const(k) => Some(VOpr::K(k)),
        Opr::Reg(_) => None,
    };
    if let [RStep {
        kind:
            RKind::Bin {
                sel,
                dst: Dst::Var(d),
                a,
                b,
            },
        ..
    }] = merged
    {
        match (a, b) {
            (Opr::Var(a), Opr::Const(k)) => {
                return Some(SpinBody::BinVK {
                    sel: *sel,
                    d: *d as usize,
                    a: *a as usize,
                    k: *k,
                })
            }
            (Opr::Var(a), Opr::Var(b)) => {
                return Some(SpinBody::BinVV {
                    f: sel.func(),
                    d: *d as usize,
                    a: *a as usize,
                    b: *b as usize,
                })
            }
            _ => {}
        }
    }
    let mut steps = Vec::with_capacity(merged.len());
    for r in merged {
        steps.push(match r.kind {
            RKind::Set {
                dst: Dst::Var(d),
                src,
            } => VarStep::Set {
                d: d as usize,
                s: vopr(src)?,
            },
            RKind::Bin {
                sel,
                dst: Dst::Var(d),
                a,
                b,
            } => VarStep::Bin {
                f: sel.func(),
                d: d as usize,
                a: vopr(a)?,
                b: vopr(b)?,
            },
            RKind::Un {
                sel,
                dst: Dst::Var(d),
                a,
            } => VarStep::Un {
                sel,
                d: d as usize,
                a: vopr(a)?,
            },
            _ => return None,
        });
    }
    Some(SpinBody::Steps(steps))
}

/// Where a resolved step lands its result.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dst {
    Reg(Reg),
    Var(u8),
}

/// A resolved, optimizable step retaining its source index for gas
/// offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RStep {
    src_idx: usize,
    kind: RKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RKind {
    Set {
        dst: Dst,
        src: Opr,
    },
    Bin {
        sel: BinSel,
        dst: Dst,
        a: Opr,
        b: Opr,
    },
    Un {
        sel: UnSel,
        dst: Dst,
        a: Opr,
    },
    Div {
        dst: Dst,
        a: Opr,
        b: Opr,
    },
    ReadSensor {
        dst: Dst,
        port: u8,
    },
    WriteActuator {
        port: u8,
        src: Opr,
    },
    Emit {
        ch: u8,
        src: Opr,
    },
    ReadClock {
        dst: Dst,
    },
    ReadBattery {
        dst: Dst,
    },
    ReadRole {
        dst: Dst,
    },
}

impl RKind {
    fn dst_reg(self) -> Option<Reg> {
        let dst = match self {
            RKind::Set { dst, .. }
            | RKind::Bin { dst, .. }
            | RKind::Un { dst, .. }
            | RKind::Div { dst, .. }
            | RKind::ReadSensor { dst, .. }
            | RKind::ReadClock { dst }
            | RKind::ReadBattery { dst }
            | RKind::ReadRole { dst } => dst,
            RKind::WriteActuator { .. } | RKind::Emit { .. } => return None,
        };
        match dst {
            Dst::Reg(r) => Some(r),
            Dst::Var(_) => None,
        }
    }

    /// Steps that must survive DCE regardless of register liveness:
    /// variable stores, environment effects, and trapping ops.
    fn has_effect(self) -> bool {
        match self {
            RKind::Set { dst, .. } | RKind::Bin { dst, .. } | RKind::Un { dst, .. } => {
                matches!(dst, Dst::Var(_))
            }
            RKind::Div { .. }
            | RKind::ReadSensor { .. }
            | RKind::WriteActuator { .. }
            | RKind::Emit { .. }
            | RKind::ReadClock { .. }
            | RKind::ReadBattery { .. }
            | RKind::ReadRole { .. } => true,
        }
    }

    fn operands(self) -> [Option<Opr>; 2] {
        match self {
            RKind::Set { src, .. } | RKind::WriteActuator { src, .. } | RKind::Emit { src, .. } => {
                [Some(src), None]
            }
            RKind::Bin { a, b, .. } | RKind::Div { a, b, .. } => [Some(a), Some(b)],
            RKind::Un { a, .. } => [Some(a), None],
            RKind::ReadSensor { .. }
            | RKind::ReadClock { .. }
            | RKind::ReadBattery { .. }
            | RKind::ReadRole { .. } => [None, None],
        }
    }
}

/// Abstract value of a register during the forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AVal {
    /// Nothing known: the register's own runtime value.
    Plain,
    /// A folded constant (the defining step was elided).
    Const(f64),
    /// A load of `vars[v]` not yet invalidated by a store to `v`.
    VarAlias(u8),
    /// Same value as another (write-once) register.
    RegAlias(Reg),
}

#[allow(clippy::too_many_lines)]
fn compile_block(block: &regir::Block) -> (CBlock, Vec<RStep>) {
    // ---- forward pass: resolve operands, fold constants, forward
    // variable loads/stores through an alias map ----
    let mut aval: Vec<AVal> = Vec::new();
    let set = |aval: &mut Vec<AVal>, r: Reg, v: AVal| {
        let i = r as usize;
        if aval.len() <= i {
            aval.resize(i + 1, AVal::Plain);
        }
        aval[i] = v;
    };
    let resolve = |aval: &Vec<AVal>, r: Reg| -> Opr {
        match aval.get(r as usize).copied().unwrap_or(AVal::Plain) {
            AVal::Plain => Opr::Reg(r),
            AVal::Const(k) => Opr::Const(k),
            AVal::VarAlias(v) => Opr::Var(v),
            AVal::RegAlias(r2) => Opr::Reg(r2),
        }
    };
    let mut var_known: [Option<Opr>; N_VARS] = [None; N_VARS];
    let mut rsteps: Vec<RStep> = Vec::with_capacity(block.steps.len());

    for (idx, &step) in block.steps.iter().enumerate() {
        let mut push = |kind: RKind| rsteps.push(RStep { src_idx: idx, kind });
        match step {
            Step::Const { dst, k } => set(&mut aval, dst, AVal::Const(k)),
            Step::Bin { sel, dst, a, b } => {
                let (ra, rb) = (resolve(&aval, a), resolve(&aval, b));
                if let (Opr::Const(x), Opr::Const(y)) = (ra, rb) {
                    set(&mut aval, dst, AVal::Const(sel.apply(x, y)));
                } else {
                    push(RKind::Bin {
                        sel,
                        dst: Dst::Reg(dst),
                        a: ra,
                        b: rb,
                    });
                    set(&mut aval, dst, AVal::Plain);
                }
            }
            Step::Un { sel, dst, a } => {
                let ra = resolve(&aval, a);
                if let Opr::Const(x) = ra {
                    set(&mut aval, dst, AVal::Const(sel.apply(x)));
                } else {
                    push(RKind::Un {
                        sel,
                        dst: Dst::Reg(dst),
                        a: ra,
                    });
                    set(&mut aval, dst, AVal::Plain);
                }
            }
            Step::Div { dst, a, b } => {
                // Never folded: `b == 0.0` must trap at runtime.
                push(RKind::Div {
                    dst: Dst::Reg(dst),
                    a: resolve(&aval, a),
                    b: resolve(&aval, b),
                });
                set(&mut aval, dst, AVal::Plain);
            }
            Step::LoadVar { dst, var } => match var_known[var as usize] {
                Some(Opr::Const(k)) => set(&mut aval, dst, AVal::Const(k)),
                Some(Opr::Reg(r)) => set(&mut aval, dst, AVal::RegAlias(r)),
                _ => {
                    set(&mut aval, dst, AVal::VarAlias(var));
                    push(RKind::Set {
                        dst: Dst::Reg(dst),
                        src: Opr::Var(var),
                    });
                }
            },
            Step::StoreVar { var, src } => {
                let o = resolve(&aval, src);
                push(RKind::Set {
                    dst: Dst::Var(var),
                    src: o,
                });
                // Registers aliasing the old value now stand on their
                // own (their defining load stays live if they are used).
                for a in &mut aval {
                    if *a == AVal::VarAlias(var) {
                        *a = AVal::Plain;
                    }
                }
                // Remember the stored value for later loads; a `Var`
                // operand would go stale, so pin it to the register.
                var_known[var as usize] = Some(match o {
                    Opr::Var(_) => Opr::Reg(src),
                    other => other,
                });
            }
            Step::ReadSensor { dst, port } => {
                push(RKind::ReadSensor {
                    dst: Dst::Reg(dst),
                    port,
                });
                set(&mut aval, dst, AVal::Plain);
            }
            Step::WriteActuator { port, src } => push(RKind::WriteActuator {
                port,
                src: resolve(&aval, src),
            }),
            Step::Emit { ch, src } => push(RKind::Emit {
                ch,
                src: resolve(&aval, src),
            }),
            Step::ReadClock { dst } => {
                push(RKind::ReadClock { dst: Dst::Reg(dst) });
                set(&mut aval, dst, AVal::Plain);
            }
            Step::ReadBattery { dst } => {
                push(RKind::ReadBattery { dst: Dst::Reg(dst) });
                set(&mut aval, dst, AVal::Plain);
            }
            Step::ReadRole { dst } => {
                push(RKind::ReadRole { dst: Dst::Reg(dst) });
                set(&mut aval, dst, AVal::Plain);
            }
            Step::Gas => {}
        }
    }

    // ---- resolve the terminator and the exit moves ----
    let term = match block.term {
        Term::Goto { block, charge } => CTerm::Goto { block, charge },
        Term::Jz { cond, z, nz } => CTerm::Jz {
            cond: resolve(&aval, cond),
            z,
            nz,
        },
        Term::Halt { result } => CTerm::Halt {
            result: result.map(|r| resolve(&aval, r)),
        },
        Term::Trap { err, mode } => CTerm::Trap { err, mode },
    };
    // The sequentialized moves may chain through earlier move targets
    // (scratch or slots); only sources untouched so far may resolve.
    let mut moves: Vec<(Reg, Opr)> = Vec::with_capacity(block.exit_moves.len());
    let mut written: Vec<Reg> = Vec::new();
    for &(d, s) in &block.exit_moves {
        let src = if written.contains(&s) {
            Opr::Reg(s)
        } else {
            resolve(&aval, s)
        };
        moves.push((d, src));
        written.push(d);
    }

    // ---- backward DCE over the resolved steps ----
    let mut live: Vec<Reg> = Vec::new();
    let mark = |live: &mut Vec<Reg>, o: Opr| {
        if let Opr::Reg(r) = o {
            if !live.contains(&r) {
                live.push(r);
            }
        }
    };
    match term {
        CTerm::Jz { cond, .. } => mark(&mut live, cond),
        CTerm::Halt {
            result: Some(o), ..
        } => mark(&mut live, o),
        _ => {}
    }
    for &(_, src) in &moves {
        mark(&mut live, src);
    }
    let mut kept: Vec<RStep> = Vec::with_capacity(rsteps.len());
    for r in rsteps.iter().rev() {
        let needed = r.kind.has_effect() || r.kind.dst_reg().is_some_and(|d| live.contains(&d));
        if needed {
            if let Some(d) = r.kind.dst_reg() {
                live.retain(|&x| x != d);
            }
            for o in r.kind.operands().into_iter().flatten() {
                mark(&mut live, o);
            }
            kept.push(*r);
        }
    }
    kept.reverse();

    // ---- peephole: merge an op with the adjacent store consuming it ----
    let mut uses: Vec<u32> = Vec::new();
    let count = |uses: &mut Vec<u32>, o: Opr| {
        if let Opr::Reg(r) = o {
            let i = r as usize;
            if uses.len() <= i {
                uses.resize(i + 1, 0);
            }
            uses[i] += 1;
        }
    };
    for r in &kept {
        for o in r.kind.operands().into_iter().flatten() {
            count(&mut uses, o);
        }
    }
    match term {
        CTerm::Jz { cond, .. } => count(&mut uses, cond),
        CTerm::Halt {
            result: Some(o), ..
        } => count(&mut uses, o),
        _ => {}
    }
    for &(_, src) in &moves {
        count(&mut uses, src);
    }
    let mut merged: Vec<RStep> = Vec::with_capacity(kept.len());
    let mut i = 0;
    while i < kept.len() {
        let cur = kept[i];
        if let Some(r) = cur.kind.dst_reg() {
            if let Some(next) = kept.get(i + 1) {
                if let RKind::Set {
                    dst: Dst::Var(v),
                    src: Opr::Reg(s),
                } = next.kind
                {
                    if s == r && uses.get(r as usize).copied().unwrap_or(0) == 1 {
                        let kind = match cur.kind {
                            RKind::Bin { sel, a, b, .. } => RKind::Bin {
                                sel,
                                dst: Dst::Var(v),
                                a,
                                b,
                            },
                            RKind::Un { sel, a, .. } => RKind::Un {
                                sel,
                                dst: Dst::Var(v),
                                a,
                            },
                            RKind::Div { a, b, .. } => RKind::Div {
                                dst: Dst::Var(v),
                                a,
                                b,
                            },
                            RKind::Set { src, .. } => RKind::Set {
                                dst: Dst::Var(v),
                                src,
                            },
                            RKind::ReadSensor { port, .. } => RKind::ReadSensor {
                                dst: Dst::Var(v),
                                port,
                            },
                            RKind::ReadClock { .. } => RKind::ReadClock { dst: Dst::Var(v) },
                            RKind::ReadBattery { .. } => RKind::ReadBattery { dst: Dst::Var(v) },
                            RKind::ReadRole { .. } => RKind::ReadRole { dst: Dst::Var(v) },
                            other => other,
                        };
                        if kind != cur.kind {
                            merged.push(RStep {
                                src_idx: cur.src_idx,
                                kind,
                            });
                            i += 2;
                            continue;
                        }
                    }
                }
            }
        }
        merged.push(cur);
        i += 1;
    }

    let fast = merged.iter().map(emit).collect();
    let step_gas = block.steps.len() as u64;
    let term_gas = match term {
        CTerm::Goto { charge: true, .. }
        | CTerm::Jz { .. }
        | CTerm::Halt { .. }
        | CTerm::Trap {
            mode: TrapMode::Op, ..
        } => 1,
        _ => 0,
    };
    let cblock = CBlock {
        steps: block.steps.clone(),
        fast,
        moves,
        step_gas,
        block_gas: step_gas + term_gas,
        term,
        spin: None,
    };
    (cblock, merged)
}

/// Emits one closure for a resolved step. The hot shapes (`vars[v] =
/// vars[a] ⊙ k` and friends) get fully captured specializations; the
/// rest read operands through [`rd`].
fn emit(r: &RStep) -> StepFn {
    let off = r.src_idx as u64 + 1;
    match r.kind {
        RKind::Set { dst, src } => match dst {
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, vars, _| {
                    regs[d] = rd(src, regs, vars);
                    Ok(())
                })
            }
            Dst::Var(v) => {
                let v = v as usize;
                Box::new(move |regs, vars, _| {
                    vars[v] = rd(src, regs, vars);
                    Ok(())
                })
            }
        },
        RKind::Bin { sel, dst, a, b } => {
            let f = sel.func();
            match (dst, a, b) {
                (Dst::Var(d), Opr::Var(av), Opr::Const(k)) => {
                    let (d, av) = (d as usize, av as usize);
                    Box::new(move |_, vars, _| {
                        vars[d] = f(vars[av], k);
                        Ok(())
                    })
                }
                (Dst::Var(d), Opr::Var(av), Opr::Var(bv)) => {
                    let (d, av, bv) = (d as usize, av as usize, bv as usize);
                    Box::new(move |_, vars, _| {
                        vars[d] = f(vars[av], vars[bv]);
                        Ok(())
                    })
                }
                (Dst::Var(d), a, b) => {
                    let d = d as usize;
                    Box::new(move |regs, vars, _| {
                        vars[d] = f(rd(a, regs, vars), rd(b, regs, vars));
                        Ok(())
                    })
                }
                (Dst::Reg(d), a, b) => {
                    let d = d as usize;
                    Box::new(move |regs, vars, _| {
                        regs[d] = f(rd(a, regs, vars), rd(b, regs, vars));
                        Ok(())
                    })
                }
            }
        }
        RKind::Un { sel, dst, a } => match dst {
            Dst::Var(d) => {
                let d = d as usize;
                Box::new(move |regs, vars, _| {
                    vars[d] = sel.apply(rd(a, regs, vars));
                    Ok(())
                })
            }
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, vars, _| {
                    regs[d] = sel.apply(rd(a, regs, vars));
                    Ok(())
                })
            }
        },
        RKind::Div { dst, a, b } => match dst {
            Dst::Var(d) => {
                let d = d as usize;
                Box::new(move |regs, vars, _| {
                    let bv = rd(b, regs, vars);
                    if bv == 0.0 {
                        return Err((VmError::DivideByZero, off));
                    }
                    vars[d] = rd(a, regs, vars) / bv;
                    Ok(())
                })
            }
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, vars, _| {
                    let bv = rd(b, regs, vars);
                    if bv == 0.0 {
                        return Err((VmError::DivideByZero, off));
                    }
                    regs[d] = rd(a, regs, vars) / bv;
                    Ok(())
                })
            }
        },
        RKind::ReadSensor { dst, port } => match dst {
            Dst::Var(d) => {
                let d = d as usize;
                Box::new(move |_, vars, env| {
                    vars[d] = env.read_sensor(port).map_err(|e| (e, off))?;
                    Ok(())
                })
            }
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, _, env| {
                    regs[d] = env.read_sensor(port).map_err(|e| (e, off))?;
                    Ok(())
                })
            }
        },
        RKind::WriteActuator { port, src } => Box::new(move |regs, vars, env| {
            env.write_actuator(port, rd(src, regs, vars))
                .map_err(|e| (e, off))
        }),
        RKind::Emit { ch, src } => Box::new(move |regs, vars, env| {
            env.emit(ch, rd(src, regs, vars));
            Ok(())
        }),
        RKind::ReadClock { dst } => match dst {
            Dst::Var(d) => {
                let d = d as usize;
                Box::new(move |_, vars, env| {
                    vars[d] = env.clock_s();
                    Ok(())
                })
            }
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, _, env| {
                    regs[d] = env.clock_s();
                    Ok(())
                })
            }
        },
        RKind::ReadBattery { dst } => match dst {
            Dst::Var(d) => {
                let d = d as usize;
                Box::new(move |_, vars, env| {
                    vars[d] = env.battery_fraction();
                    Ok(())
                })
            }
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, _, env| {
                    regs[d] = env.battery_fraction();
                    Ok(())
                })
            }
        },
        RKind::ReadRole { dst } => match dst {
            Dst::Var(d) => {
                let d = d as usize;
                Box::new(move |_, vars, env| {
                    vars[d] = env.role_code();
                    Ok(())
                })
            }
            Dst::Reg(d) => {
                let d = d as usize;
                Box::new(move |regs, _, env| {
                    regs[d] = env.role_code();
                    Ok(())
                })
            }
        },
    }
}

/// Executes one raw step on the metered path (gas already charged).
fn exec_step(
    s: Step,
    regs: &mut [f64],
    vars: &mut [f64; N_VARS],
    env: &mut dyn VmEnv,
) -> Result<(), VmError> {
    match s {
        Step::Const { dst, k } => regs[dst as usize] = k,
        Step::Bin { sel, dst, a, b } => {
            regs[dst as usize] = sel.apply(regs[a as usize], regs[b as usize]);
        }
        Step::Div { dst, a, b } => {
            let bv = regs[b as usize];
            if bv == 0.0 {
                return Err(VmError::DivideByZero);
            }
            regs[dst as usize] = regs[a as usize] / bv;
        }
        Step::Un { sel, dst, a } => regs[dst as usize] = sel.apply(regs[a as usize]),
        Step::LoadVar { dst, var } => regs[dst as usize] = vars[var as usize],
        Step::StoreVar { var, src } => vars[var as usize] = regs[src as usize],
        Step::ReadSensor { dst, port } => regs[dst as usize] = env.read_sensor(port)?,
        Step::WriteActuator { port, src } => env.write_actuator(port, regs[src as usize])?,
        Step::Emit { ch, src } => env.emit(ch, regs[src as usize]),
        Step::ReadClock { dst } => regs[dst as usize] = env.clock_s(),
        Step::ReadBattery { dst } => regs[dst as usize] = env.battery_fraction(),
        Step::ReadRole { dst } => regs[dst as usize] = env.role_code(),
        Step::Gas => {}
    }
    Ok(())
}

/// Runs a compiled program with oracle-identical observable behavior.
/// `scratch` is the reused register file (grown as needed).
pub(crate) fn run(
    prog: &CompiledProgram,
    scratch: &mut Vec<f64>,
    vars: &mut [f64; N_VARS],
    gas_limit: u64,
    gas_out: &mut u64,
    env: &mut dyn VmEnv,
) -> Result<f64, VmError> {
    if scratch.len() < prog.n_regs {
        scratch.resize(prog.n_regs, 0.0);
    }
    let regs: &mut [f64] = scratch;
    let mut gas: u64 = 0;
    let mut b = 0usize;
    loop {
        let blk = &prog.blocks[b];
        if let Some(spin) = &blk.spin {
            // Batched loop rounds: `rounds` bounds the iteration count
            // by affordability up front, so the hot loop is one
            // condition read and one body step per round.
            let rounds = (gas_limit - gas) / spin.round_gas;
            let c = spin.cond;
            let mut n = 0u64;
            match &spin.body {
                SpinBody::BinVK { sel, d, a, k } => {
                    let (sel, d, a, k) = (*sel, *d, *a, *k);
                    // Inline the hot selectors: a decrement loop's
                    // whole round becomes sub + compare, which the
                    // compiler keeps in registers.
                    match sel {
                        // Canonical countdown (`v op= k; while v`): the
                        // accumulator stays in a register across rounds,
                        // so each round is one FP op plus a compare.
                        BinSel::Sub if d == a && d == c => {
                            let mut v = vars[d];
                            while n < rounds && v != 0.0 {
                                v -= k;
                                n += 1;
                            }
                            vars[d] = v;
                        }
                        BinSel::Add if d == a && d == c => {
                            let mut v = vars[d];
                            while n < rounds && v != 0.0 {
                                v += k;
                                n += 1;
                            }
                            vars[d] = v;
                        }
                        BinSel::Sub => {
                            while n < rounds && vars[c] != 0.0 {
                                vars[d] = vars[a] - k;
                                n += 1;
                            }
                        }
                        BinSel::Add => {
                            while n < rounds && vars[c] != 0.0 {
                                vars[d] = vars[a] + k;
                                n += 1;
                            }
                        }
                        _ => {
                            let f = sel.func();
                            while n < rounds && vars[c] != 0.0 {
                                vars[d] = f(vars[a], k);
                                n += 1;
                            }
                        }
                    }
                }
                SpinBody::BinVV { f, d, a, b } => {
                    let (f, d, a, b) = (*f, *d, *a, *b);
                    while n < rounds && vars[c] != 0.0 {
                        vars[d] = f(vars[a], vars[b]);
                        n += 1;
                    }
                }
                SpinBody::Steps(steps) => {
                    while n < rounds && vars[c] != 0.0 {
                        for s in steps {
                            match *s {
                                VarStep::Set { d, s } => vars[d] = vrd(s, vars),
                                VarStep::Bin { f, d, a, b } => {
                                    vars[d] = f(vrd(a, vars), vrd(b, vars));
                                }
                                VarStep::Un { sel, d, a } => vars[d] = sel.apply(vrd(a, vars)),
                            }
                        }
                        n += 1;
                    }
                }
            }
            gas += n * spin.round_gas;
            // Fall through to the ordinary machinery for the exit (or
            // the final, only partially affordable round).
        }
        if gas_limit - gas >= blk.block_gas {
            // Fast path: the whole block is affordable, so no per-op
            // gas check can fire and the optimized chain is exact.
            for f in &blk.fast {
                if let Err((e, dg)) = f(regs, vars, env) {
                    *gas_out = gas + dg;
                    return Err(e);
                }
            }
            gas += blk.step_gas;
        } else {
            // Metered path: unoptimized 1:1 steps with the oracle's
            // per-op check/charge sequence.
            for &s in &blk.steps {
                if gas >= gas_limit {
                    *gas_out = gas;
                    return Err(VmError::OutOfGas);
                }
                gas += 1;
                if let Err(e) = exec_step(s, regs, vars, env) {
                    *gas_out = gas;
                    return Err(e);
                }
            }
        }
        match blk.term {
            CTerm::Goto { block, charge } => {
                if charge {
                    if gas >= gas_limit {
                        *gas_out = gas;
                        return Err(VmError::OutOfGas);
                    }
                    gas += 1;
                }
                for &(d, o) in &blk.moves {
                    regs[d as usize] = rd(o, regs, vars);
                }
                b = block;
            }
            CTerm::Jz { cond, z, nz } => {
                if gas >= gas_limit {
                    *gas_out = gas;
                    return Err(VmError::OutOfGas);
                }
                gas += 1;
                // Read the condition before the moves: a move may
                // overwrite the slot the condition aliases.
                let c = rd(cond, regs, vars);
                for &(d, o) in &blk.moves {
                    regs[d as usize] = rd(o, regs, vars);
                }
                b = if c == 0.0 { z } else { nz };
            }
            CTerm::Halt { result } => {
                if gas >= gas_limit {
                    *gas_out = gas;
                    return Err(VmError::OutOfGas);
                }
                gas += 1;
                *gas_out = gas;
                return Ok(result.map_or(0.0, |o| rd(o, regs, vars)));
            }
            CTerm::Trap { err, mode } => {
                match mode {
                    TrapMode::Op => {
                        if gas >= gas_limit {
                            *gas_out = gas;
                            return Err(VmError::OutOfGas);
                        }
                        gas += 1;
                    }
                    TrapMode::Fetch => {
                        if gas >= gas_limit {
                            *gas_out = gas;
                            return Err(VmError::OutOfGas);
                        }
                    }
                    TrapMode::Now => {}
                }
                *gas_out = gas;
                return Err(err);
            }
        }
    }
}

/// A [`VmEnv`] over a plant's ModBus register map with **inline
/// caching** of the tag→register lookups: the first access on a port
/// resolves the tag through the map's linear scan and memoizes the
/// register address, so steady-state capsule I/O costs one scaled
/// register transaction.
pub struct ModbusCachedEnv<'a> {
    plant: &'a mut dyn Plant,
    regmap: &'a RegisterMap,
    sensor_tags: Vec<String>,
    actuator_tags: Vec<String>,
    sensor_cache: Vec<Option<u16>>,
    actuator_cache: Vec<Option<u16>>,
    lookups: usize,
    /// Clock served to the program, seconds.
    pub now_s: f64,
    /// Emissions recorded for the caller, `(channel, value)`.
    pub emissions: Vec<(u8, f64)>,
}

impl<'a> ModbusCachedEnv<'a> {
    /// Binds sensor port `i` to `sensor_tags[i]` (an input register
    /// tag) and actuator port `i` to `actuator_tags[i]` (a holding
    /// register tag).
    pub fn new(
        plant: &'a mut dyn Plant,
        regmap: &'a RegisterMap,
        sensor_tags: &[&str],
        actuator_tags: &[&str],
    ) -> Self {
        ModbusCachedEnv {
            plant,
            regmap,
            sensor_tags: sensor_tags.iter().map(ToString::to_string).collect(),
            actuator_tags: actuator_tags.iter().map(ToString::to_string).collect(),
            sensor_cache: vec![None; sensor_tags.len()],
            actuator_cache: vec![None; actuator_tags.len()],
            lookups: 0,
            now_s: 0.0,
            emissions: Vec::new(),
        }
    }

    /// Slow-path tag resolutions performed so far — with the inline
    /// cache this stays at one per bound port, however many runs.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.lookups
    }
}

impl VmEnv for ModbusCachedEnv<'_> {
    fn read_sensor(&mut self, port: u8) -> Result<f64, VmError> {
        let i = port as usize;
        let slot = self.sensor_cache.get_mut(i).ok_or(VmError::PortFault)?;
        let addr = match *slot {
            Some(addr) => addr,
            None => {
                self.lookups += 1;
                let addr = self
                    .regmap
                    .input_register_of(&self.sensor_tags[i])
                    .ok_or(VmError::PortFault)?;
                *slot = Some(addr);
                addr
            }
        };
        self.regmap
            .read_scaled(&*self.plant, addr)
            .map_err(|_| VmError::PortFault)
    }

    fn write_actuator(&mut self, port: u8, value: f64) -> Result<(), VmError> {
        let i = port as usize;
        let slot = self.actuator_cache.get_mut(i).ok_or(VmError::PortFault)?;
        let addr = match *slot {
            Some(addr) => addr,
            None => {
                self.lookups += 1;
                let addr = self
                    .regmap
                    .holding_register_of(&self.actuator_tags[i])
                    .ok_or(VmError::PortFault)?;
                *slot = Some(addr);
                addr
            }
        };
        self.regmap
            .write_scaled(&mut *self.plant, addr, value)
            .map_err(|_| VmError::PortFault)
    }

    fn emit(&mut self, ch: u8, value: f64) {
        self.emissions.push((ch, value));
    }

    fn clock_s(&self) -> f64 {
        self.now_s
    }
}

/// A [`VmEnv`] that **batches** ModBus traffic: every port is resolved
/// to a [`BoundRegister`] once at construction, and the first sensor
/// read of a capsule run prefetches *all* bound input registers in one
/// pass — the software image of a ModBus read-multiple transaction —
/// serving subsequent reads from the local buffer. Writes go straight
/// through the bound holding registers, so steady state performs zero
/// address lookups: one batched poll plus direct writes per run.
///
/// Call [`ModbusBatchEnv::begin_run`] before each capsule invocation to
/// invalidate the previous run's poll (plant state moves between runs).
pub struct ModbusBatchEnv<'a> {
    plant: &'a mut dyn Plant,
    sensors: Vec<Option<BoundRegister>>,
    actuators: Vec<Option<BoundRegister>>,
    batch: Vec<f64>,
    fresh: bool,
    /// Clock served to the program, seconds.
    pub now_s: f64,
    /// Emissions recorded for the caller, `(channel, value)`.
    pub emissions: Vec<(u8, f64)>,
}

impl<'a> ModbusBatchEnv<'a> {
    /// Binds sensor port `i` to `sensor_tags[i]` (an input register
    /// tag) and actuator port `i` to `actuator_tags[i]` (a holding
    /// register tag), resolving every binding now. Unresolvable tags
    /// leave the port unbound and fault on first access.
    pub fn new(
        plant: &'a mut dyn Plant,
        regmap: &RegisterMap,
        sensor_tags: &[&str],
        actuator_tags: &[&str],
    ) -> Self {
        let sensors: Vec<_> = sensor_tags
            .iter()
            .map(|t| regmap.input_register_of(t).and_then(|a| regmap.bind(a)))
            .collect();
        let actuators = actuator_tags
            .iter()
            .map(|t| regmap.holding_register_of(t).and_then(|a| regmap.bind(a)))
            .collect();
        let batch = vec![0.0; sensors.len()];
        ModbusBatchEnv {
            plant,
            sensors,
            actuators,
            batch,
            fresh: false,
            now_s: 0.0,
            emissions: Vec::new(),
        }
    }

    /// Invalidates the previous run's input poll; the next sensor read
    /// re-polls the whole bound set.
    pub fn begin_run(&mut self) {
        self.fresh = false;
    }
}

impl VmEnv for ModbusBatchEnv<'_> {
    fn read_sensor(&mut self, port: u8) -> Result<f64, VmError> {
        if !self.fresh {
            // One batched poll covering every bound input register.
            for (i, reg) in self.sensors.iter().enumerate() {
                if let Some(reg) = reg {
                    self.batch[i] =
                        read_bound(&*self.plant, reg).map_err(|_| VmError::PortFault)?;
                }
            }
            self.fresh = true;
        }
        let i = port as usize;
        match self.sensors.get(i) {
            Some(Some(_)) => Ok(self.batch[i]),
            _ => Err(VmError::PortFault),
        }
    }

    fn write_actuator(&mut self, port: u8, value: f64) -> Result<(), VmError> {
        let reg = self
            .actuators
            .get(port as usize)
            .and_then(Option::as_ref)
            .ok_or(VmError::PortFault)?;
        write_bound(&mut *self.plant, reg, value).map_err(|_| VmError::PortFault)
    }

    fn emit(&mut self, ch: u8, value: f64) {
        self.emissions.push((ch, value));
    }

    fn clock_s(&self) -> f64 {
        self.now_s
    }
}

#[cfg(test)]
mod tests {
    use super::super::interp::NullEnv;
    use super::super::isa::Op;
    use super::*;

    fn run_compiled(ops: Vec<Op>, gas_limit: u64) -> (Result<f64, VmError>, u64, [f64; N_VARS]) {
        let p = Program::new(ops);
        let c = compile(&p).expect("compiles");
        let mut scratch = Vec::new();
        let mut vars = [0.0; N_VARS];
        let mut gas = 0;
        let mut env = NullEnv::default();
        let r = run(&c, &mut scratch, &mut vars, gas_limit, &mut gas, &mut env);
        (r, gas, vars)
    }

    #[test]
    fn decrement_loop_matches_oracle() {
        let ops = vec![
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
        ];
        let (r, gas, vars) = run_compiled(ops.clone(), 10_000);
        assert_eq!(r, Ok(0.0));
        assert_eq!(vars[0], 0.0);
        let mut vm = super::super::interp::Vm::new(10_000);
        let mut env = NullEnv::default();
        assert_eq!(vm.run(&Program::new(ops), &mut env), Ok(0.0));
        assert_eq!(vm.gas_used(), gas);
    }

    #[test]
    fn loop_body_collapses_to_one_closure() {
        // The decrement-loop body block (load·push·sub·store) must
        // merge into a single vars[0] = vars[0] - 1.0 closure.
        let ops = vec![
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
        ];
        let c = compile(&Program::new(ops)).expect("compiles");
        let min_fast = c.blocks.iter().map(|b| b.fast.len()).min().unwrap();
        assert_eq!(min_fast, 0); // the `load 0 · jz` header needs none
        let body = c
            .blocks
            .iter()
            .find(|b| matches!(b.term, CTerm::Goto { charge: true, .. }))
            .expect("loop body");
        assert_eq!(body.fast.len(), 1);
    }

    #[test]
    fn mid_loop_out_of_gas_is_exact() {
        let ops = vec![
            Op::Push(1000.0),
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
        ];
        for limit in [1, 2, 3, 7, 50, 63, 64, 65, 100] {
            let (r, gas, vars) = run_compiled(ops.clone(), limit);
            let mut vm = super::super::interp::Vm::new(limit);
            let mut env = NullEnv::default();
            let expect = vm.run(&Program::new(ops.clone()), &mut env);
            assert_eq!(r, expect, "limit {limit}");
            assert_eq!(gas, vm.gas_used(), "limit {limit}");
            assert_eq!(vars, vm.snapshot_vars(), "limit {limit}");
        }
    }

    #[test]
    fn modbus_cached_env_resolves_each_port_once() {
        use evm_plant::{GasPlant, PlantConfig};
        let mut plant = GasPlant::new(PlantConfig::default());
        let regmap = RegisterMap::gas_plant_standard();
        let mut env = ModbusCachedEnv::new(
            &mut plant,
            &regmap,
            &["LTS.LiquidPct"],
            &["LTSLiqValve.Cmd"],
        );
        for _ in 0..50 {
            env.read_sensor(0).expect("bound sensor port");
            env.write_actuator(0, 1.0).expect("bound actuator port");
        }
        assert_eq!(env.lookups(), 2);
    }
}
