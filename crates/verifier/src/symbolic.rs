//! Pass 4 — symbolic equivalence (rules `E01`–`E07`).
//!
//! A symbolic evaluator runs the source Alpha superblock and the emitted
//! I-ISA fragment side by side over symbolic initial registers and
//! memory, then proves the two produce identical machines:
//!
//! * `E01` — at every exit, each architected register holds the same
//!   symbolic expression on both sides;
//! * `E02` — exit conditions (branch condition source, indirect target)
//!   are the same expressions;
//! * `E03` — the fragments expose the same exits, in the same order,
//!   with the same static targets;
//! * `E04` — identical memory effect logs (loads and stores: width,
//!   address, stored value, interleaving);
//! * `E05` — identical output-port effects;
//! * `E06` — at every potentially-trapping instruction, the recoverable
//!   precise state equals the Alpha state at that point;
//! * `E07` — the pre-install fragment contains an already-resolved
//!   branch (nothing to prove against; install-time patching is pass 3's
//!   domain).
//!
//! Both walks share normalizing smart constructors (constant folding,
//! `x + 0` / `x | 0` identities), so a correct translation yields
//! structurally identical trees even where the emitter simplified.

use std::fmt;
use std::rc::Rc;

use crate::Violation;
use alpha_isa::{IdMap, Inst, MemOp, Operand, OperateOp, PalFunc, Reg};
use ildp_core::{CollectedFlow, SbEnd, Superblock, TranslatedCode, Translator};
use ildp_isa::{ASrc, CondKind, IInst, MemWidth};

/// A symbolic 64-bit value.
enum Expr {
    /// Initial (live-in) value of an architected register.
    Init(u8),
    /// An accumulator read before any write (only reachable through a
    /// miscompiled fragment; never equal to anything the Alpha side has).
    Undef(u8),
    /// A known constant.
    Const(u64),
    /// An ALU operation.
    Op(OperateOp, Rc<Expr>, Rc<Expr>),
    /// A raw (undecomposed) conditional move, as the engine's defensive
    /// `Op` path computes it.
    CmovRaw(OperateOp, Rc<Expr>, Rc<Expr>, Rc<Expr>),
    /// The decomposed conditional-move select.
    Select {
        lbs: bool,
        test: Rc<Expr>,
        value: Rc<Expr>,
        old: Rc<Expr>,
    },
    /// The `serial`-th memory load of the block.
    Load {
        serial: u32,
        width: MemWidth,
        addr: Rc<Expr>,
    },
    /// Jump-target alignment mask (`x & !3`).
    AndNot3(Rc<Expr>),
}

/// Expression values form a DAG: register-file snapshots and loop-carried
/// values share subtrees through their `Rc`s, and on a merged (unrolled)
/// region block the *tree* unfolding of that DAG is exponentially larger
/// than the DAG itself. Anything that recurses structurally — equality,
/// printing — must therefore either memoize on node identity or bound its
/// depth; a derived `PartialEq`/`Debug` would not terminate in practice.
impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_depth(f, 0)
    }
}

/// Print depth past which [`Expr`]'s `Debug` elides subtrees with `…`.
const DEBUG_DEPTH: usize = 8;

impl Expr {
    fn fmt_depth(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        if depth > DEBUG_DEPTH {
            return write!(f, "…");
        }
        let sub = |f: &mut fmt::Formatter<'_>, e: &Expr| e.fmt_depth(f, depth + 1);
        match self {
            Expr::Init(r) => write!(f, "Init({r})"),
            Expr::Undef(a) => write!(f, "Undef({a})"),
            Expr::Const(v) => write!(f, "Const({v:#x})"),
            Expr::Op(op, a, b) => {
                write!(f, "Op({op:?}, ")?;
                sub(f, a)?;
                write!(f, ", ")?;
                sub(f, b)?;
                write!(f, ")")
            }
            Expr::CmovRaw(op, a, b, old) => {
                write!(f, "CmovRaw({op:?}, ")?;
                sub(f, a)?;
                write!(f, ", ")?;
                sub(f, b)?;
                write!(f, ", ")?;
                sub(f, old)?;
                write!(f, ")")
            }
            Expr::Select {
                lbs,
                test,
                value,
                old,
            } => {
                write!(f, "Select {{ lbs: {lbs}, test: ")?;
                sub(f, test)?;
                write!(f, ", value: ")?;
                sub(f, value)?;
                write!(f, ", old: ")?;
                sub(f, old)?;
                write!(f, " }}")
            }
            Expr::Load {
                serial,
                width,
                addr,
            } => {
                write!(f, "Load {{ serial: {serial}, width: {width:?}, addr: ")?;
                sub(f, addr)?;
                write!(f, " }}")
            }
            Expr::AndNot3(e) => {
                write!(f, "AndNot3(")?;
                sub(f, e)?;
                write!(f, ")")
            }
        }
    }
}

/// Structural equality over the expression DAG, memoized on the `Rc`
/// address pair so every pair of DAG nodes is compared at most once. The
/// memo must not outlive the expressions it keys (addresses would go
/// stale); [`check`] scopes one to a single fragment comparison.
fn expr_eq(a: &Rc<Expr>, b: &Rc<Expr>, memo: &mut IdMap<(usize, usize), bool>) -> bool {
    if Rc::ptr_eq(a, b) {
        return true;
    }
    let key = (Rc::as_ptr(a) as usize, Rc::as_ptr(b) as usize);
    if let Some(&hit) = memo.get(&key) {
        return hit;
    }
    let eq = match (&**a, &**b) {
        (Expr::Init(x), Expr::Init(y)) => x == y,
        (Expr::Undef(x), Expr::Undef(y)) => x == y,
        (Expr::Const(x), Expr::Const(y)) => x == y,
        (Expr::Op(xo, xa, xb), Expr::Op(yo, ya, yb)) => {
            xo == yo && expr_eq(xa, ya, memo) && expr_eq(xb, yb, memo)
        }
        (Expr::CmovRaw(xo, x1, x2, x3), Expr::CmovRaw(yo, y1, y2, y3)) => {
            xo == yo && expr_eq(x1, y1, memo) && expr_eq(x2, y2, memo) && expr_eq(x3, y3, memo)
        }
        (
            Expr::Select {
                lbs: xl,
                test: xt,
                value: xv,
                old: xo,
            },
            Expr::Select {
                lbs: yl,
                test: yt,
                value: yv,
                old: yo,
            },
        ) => xl == yl && expr_eq(xt, yt, memo) && expr_eq(xv, yv, memo) && expr_eq(xo, yo, memo),
        (
            Expr::Load {
                serial: xs,
                width: xw,
                addr: xa,
            },
            Expr::Load {
                serial: ys,
                width: yw,
                addr: ya,
            },
        ) => xs == ys && xw == yw && expr_eq(xa, ya, memo),
        (Expr::AndNot3(x), Expr::AndNot3(y)) => expr_eq(x, y, memo),
        _ => false,
    };
    memo.insert(key, eq);
    eq
}

fn cnst(v: u64) -> Rc<Expr> {
    Rc::new(Expr::Const(v))
}

/// Normalizing ALU constructor shared by both walks.
fn op_expr(op: OperateOp, a: Rc<Expr>, b: Rc<Expr>) -> Rc<Expr> {
    if !op.is_cmov() {
        if let (Expr::Const(x), Expr::Const(y)) = (&*a, &*b) {
            return cnst(op.eval(*x, *y));
        }
        match op {
            OperateOp::Addq if matches!(*b, Expr::Const(0)) => return a,
            OperateOp::Bis if matches!(*b, Expr::Const(0)) => return a,
            OperateOp::Bis if matches!(*a, Expr::Const(0)) => return b,
            _ => {}
        }
    }
    Rc::new(Expr::Op(op, a, b))
}

/// `base + imm` with the immediate already widened to 64 bits.
fn add_imm(base: Rc<Expr>, imm: u64) -> Rc<Expr> {
    op_expr(OperateOp::Addq, base, cnst(imm))
}

fn and_not3(e: Rc<Expr>) -> Rc<Expr> {
    if let Expr::Const(v) = &*e {
        return cnst(v & !3);
    }
    Rc::new(Expr::AndNot3(e))
}

fn width_of(op: MemOp) -> MemWidth {
    match op {
        MemOp::Ldbu | MemOp::Stb => MemWidth::U8,
        MemOp::Ldwu | MemOp::Stw => MemWidth::U16,
        MemOp::Ldl | MemOp::Stl => MemWidth::I32,
        MemOp::Ldq | MemOp::Stq => MemWidth::U64,
        MemOp::Lda | MemOp::Ldah => unreachable!("address arithmetic is not memory"),
    }
}

/// Independent restatement of the cmov decomposition the front end uses:
/// `(test_op, test_imm, low-bit-set polarity)`.
fn cmov_split(op: OperateOp) -> (OperateOp, i16, bool) {
    use OperateOp::*;
    match op {
        Cmoveq => (Cmpeq, 0, true),
        Cmovne => (Cmpeq, 0, false),
        Cmovlt => (Cmplt, 0, true),
        Cmovge => (Cmplt, 0, false),
        Cmovle => (Cmple, 0, true),
        Cmovgt => (Cmple, 0, false),
        Cmovlbs => (And, 1, true),
        Cmovlbc => (And, 1, false),
        other => panic!("not a cmov: {other:?}"),
    }
}

/// How a walk left the block at one exit point.
#[derive(Debug)]
enum ExitKind {
    /// Conditional side exit to a static target.
    Cond {
        cond: CondKind,
        src: Rc<Expr>,
        target: u64,
    },
    /// Unconditional exit to a static target.
    Always { target: u64 },
    /// Register-indirect exit.
    Indirect { target: Rc<Expr> },
    /// Architected halt.
    Halt,
}

#[derive(Debug)]
struct Exit {
    /// Emitted-instruction index on the I side (0 for the Alpha side).
    at: usize,
    kind: ExitKind,
    regs: Vec<Rc<Expr>>,
    stores_before: usize,
    loads_before: usize,
    outs_before: usize,
}

struct StoreRec {
    at: usize,
    width: MemWidth,
    addr: Rc<Expr>,
    value: Rc<Expr>,
}

struct LoadRec {
    at: usize,
    width: MemWidth,
    addr: Rc<Expr>,
    stores_before: usize,
}

struct PeiRec {
    at: usize,
    regs: Vec<Rc<Expr>>,
}

/// Everything observable a walk produced.
#[derive(Default)]
struct Effects {
    exits: Vec<Exit>,
    stores: Vec<StoreRec>,
    loads: Vec<LoadRec>,
    outs: Vec<(usize, Rc<Expr>)>,
    peis: Vec<PeiRec>,
}

impl Effects {
    fn exit(&mut self, at: usize, kind: ExitKind, regs: &[Rc<Expr>]) {
        self.exits.push(Exit {
            at,
            kind,
            regs: regs.to_vec(),
            stores_before: self.stores.len(),
            loads_before: self.loads.len(),
            outs_before: self.outs.len(),
        });
    }
}

fn init_regs() -> Vec<Rc<Expr>> {
    (0..32u8)
        .map(|r| {
            if r == 31 {
                cnst(0)
            } else {
                Rc::new(Expr::Init(r))
            }
        })
        .collect()
}

fn read(regs: &[Rc<Expr>], r: Reg) -> Rc<Expr> {
    regs[r.number() as usize].clone()
}

fn write(regs: &mut [Rc<Expr>], r: Reg, e: Rc<Expr>) {
    if r.number() != 31 {
        regs[r.number() as usize] = e;
    }
}

/// Symbolically executes the source superblock along its collected path.
fn walk_alpha(sb: &Superblock) -> Effects {
    let mut fx = Effects::default();
    let mut regs = init_regs();

    for (idx, si) in sb.insts.iter().enumerate() {
        let va = si.vaddr;
        let last = idx + 1 == sb.insts.len();
        match si.inst {
            Inst::Mem { op, ra, rb, disp } => match op {
                MemOp::Lda => {
                    let e = add_imm(read(&regs, rb), disp as i64 as u64);
                    write(&mut regs, ra, e);
                }
                MemOp::Ldah => {
                    let e = add_imm(read(&regs, rb), ((disp as i64) << 16) as u64);
                    write(&mut regs, ra, e);
                }
                _ => {
                    fx.peis.push(PeiRec {
                        at: 0,
                        regs: regs.clone(),
                    });
                    let addr = add_imm(read(&regs, rb), disp as i64 as u64);
                    let width = width_of(op);
                    if op.is_load() {
                        let serial = fx.loads.len() as u32;
                        fx.loads.push(LoadRec {
                            at: 0,
                            width,
                            addr: addr.clone(),
                            stores_before: fx.stores.len(),
                        });
                        write(
                            &mut regs,
                            ra,
                            Rc::new(Expr::Load {
                                serial,
                                width,
                                addr,
                            }),
                        );
                    } else {
                        fx.stores.push(StoreRec {
                            at: 0,
                            width,
                            addr,
                            value: read(&regs, ra),
                        });
                    }
                }
            },
            Inst::Operate { op, ra, rb, rc } => {
                let b = match rb {
                    Operand::Reg(r) => read(&regs, r),
                    Operand::Lit(v) => cnst(v as u64),
                };
                if op.is_cmov() {
                    // Mirror the front end's test/select decomposition so
                    // expressions match the fragment structurally.
                    let (test_op, test_imm, lbs) = cmov_split(op);
                    let test = op_expr(test_op, read(&regs, ra), cnst(test_imm as i64 as u64));
                    let sel = Rc::new(Expr::Select {
                        lbs,
                        test,
                        value: b,
                        old: read(&regs, rc),
                    });
                    write(&mut regs, rc, sel);
                } else {
                    let e = op_expr(op, read(&regs, ra), b);
                    write(&mut regs, rc, e);
                }
            }
            Inst::Branch { op, ra, .. } => match si.flow {
                CollectedFlow::Direct { links, .. } => {
                    if links {
                        write(&mut regs, ra, cnst(va + 4));
                    }
                }
                CollectedFlow::CondNotTaken { taken_target } => {
                    fx.exit(
                        0,
                        ExitKind::Cond {
                            cond: CondKind::from_branch_op(op),
                            src: read(&regs, ra),
                            target: taken_target,
                        },
                        &regs,
                    );
                }
                CollectedFlow::CondTaken {
                    taken_target,
                    fallthrough,
                } => {
                    let ending = last && matches!(sb.end, SbEnd::BackwardTakenBranch { .. });
                    if ending {
                        fx.exit(
                            0,
                            ExitKind::Cond {
                                cond: CondKind::from_branch_op(op),
                                src: read(&regs, ra),
                                target: taken_target,
                            },
                            &regs,
                        );
                        fx.exit(
                            0,
                            ExitKind::Always {
                                target: fallthrough,
                            },
                            &regs,
                        );
                    } else {
                        fx.exit(
                            0,
                            ExitKind::Cond {
                                cond: CondKind::from_branch_op(op.inverse()),
                                src: read(&regs, ra),
                                target: fallthrough,
                            },
                            &regs,
                        );
                    }
                }
                CollectedFlow::Sequential | CollectedFlow::Indirect { .. } => {}
            },
            Inst::Jump { ra, rb, .. } => {
                // Target is read before the link write (`jsr ra,(ra)`).
                let target = and_not3(read(&regs, rb));
                write(&mut regs, ra, cnst(va + 4));
                fx.exit(0, ExitKind::Indirect { target }, &regs);
            }
            Inst::CallPal { func } => match func {
                PalFunc::Halt => fx.exit(0, ExitKind::Halt, &regs),
                PalFunc::GenTrap => fx.peis.push(PeiRec {
                    at: 0,
                    regs: regs.clone(),
                }),
                PalFunc::PutChar => {
                    let e = read(&regs, Reg::A0);
                    fx.outs.push((0, e));
                }
                PalFunc::Other(_) => {}
            },
            // Traps before retiring; never collected into a superblock.
            Inst::Unimplemented { .. } => {}
        }
    }
    match sb.end {
        SbEnd::Cycle { next } | SbEnd::MaxSize { next } => {
            fx.exit(0, ExitKind::Always { target: next }, &regs);
        }
        _ => {}
    }
    fx
}

/// Symbolically executes the emitted fragment, mirroring the engine's
/// concrete semantics expression-for-expression. Returns `None` when the
/// code is not a pre-install fragment (`E07`).
fn walk_fragment(code: &TranslatedCode, out: &mut Vec<Violation>) -> Option<Effects> {
    let mut fx = Effects::default();
    let mut regs = init_regs();
    let mut accs: Vec<Rc<Expr>> = (0..16u8).map(|a| Rc::new(Expr::Undef(a))).collect();

    let insts = &code.insts;
    let mut k = 0usize;
    while k < insts.len() {
        // Resolve an operand against the instruction's named accumulator.
        macro_rules! v {
            ($src:expr, $acc:expr) => {
                match $src {
                    ASrc::Acc => accs[$acc.index()].clone(),
                    ASrc::Gpr(r) => read(&regs, r),
                    ASrc::Imm(v) => cnst(v as i64 as u64),
                }
            };
        }
        let mut pei_check = |k: usize, regs: &[Rc<Expr>], accs: &[Rc<Expr>]| {
            let mut recovered = regs.to_vec();
            if let Some(entries) = code.recovery.get(&(k as u32)) {
                for e in entries {
                    recovered[e.reg.number() as usize] = accs[e.acc.index()].clone();
                }
            }
            fx.peis.push(PeiRec {
                at: k,
                regs: recovered,
            });
        };

        match insts[k] {
            IInst::SetVpcBase { .. } | IInst::PushDualRas { .. } => {}
            IInst::LoadEmbeddedTarget { acc, vaddr } => {
                // The software-prediction group collapses to one
                // architectural indirect exit.
                let group_rhs = match insts.get(k + 1) {
                    Some(&IInst::Op {
                        op: OperateOp::Cmpeq,
                        acc: a,
                        lhs: ASrc::Acc,
                        rhs,
                        dst: None,
                    }) if a == acc
                        && matches!(
                            insts.get(k + 2),
                            Some(&IInst::CallTranslatorIfCond {
                                cond: CondKind::Ne,
                                acc: a2,
                                src: ASrc::Acc,
                                vtarget,
                            }) if a2 == acc && vtarget == vaddr
                        )
                        && matches!(
                            insts.get(k + 3),
                            Some(&IInst::Dispatch { src, .. }) if src == rhs
                        ) =>
                    {
                        Some(rhs)
                    }
                    _ => None,
                };
                if let Some(rhs) = group_rhs {
                    let target = and_not3(v!(rhs, acc));
                    fx.exit(k, ExitKind::Indirect { target }, &regs);
                    k += 4;
                    continue;
                }
                accs[acc.index()] = cnst(vaddr);
            }
            IInst::Op {
                op,
                acc,
                lhs,
                rhs,
                dst,
            } => {
                let a = v!(lhs, acc);
                let b = v!(rhs, acc);
                let result = if op.is_cmov() {
                    Rc::new(Expr::CmovRaw(op, a, b, accs[acc.index()].clone()))
                } else {
                    op_expr(op, a, b)
                };
                accs[acc.index()] = result.clone();
                if let Some(d) = dst {
                    write(&mut regs, d, result);
                }
            }
            IInst::AddHigh { acc, src, imm, dst } => {
                let result = add_imm(v!(src, acc), ((imm as i64) << 16) as u64);
                accs[acc.index()] = result.clone();
                if let Some(d) = dst {
                    write(&mut regs, d, result);
                }
            }
            IInst::Load {
                width,
                acc,
                addr,
                disp,
                dst,
            } => {
                pei_check(k, &regs, &accs);
                let a = add_imm(v!(addr, acc), disp as i64 as u64);
                let serial = fx.loads.len() as u32;
                fx.loads.push(LoadRec {
                    at: k,
                    width,
                    addr: a.clone(),
                    stores_before: fx.stores.len(),
                });
                let result = Rc::new(Expr::Load {
                    serial,
                    width,
                    addr: a,
                });
                accs[acc.index()] = result.clone();
                if let Some(d) = dst {
                    write(&mut regs, d, result);
                }
            }
            IInst::Store {
                width,
                acc,
                addr,
                disp,
                value,
            } => {
                pei_check(k, &regs, &accs);
                let a = add_imm(v!(addr, acc), disp as i64 as u64);
                let value = v!(value, acc);
                fx.stores.push(StoreRec {
                    at: k,
                    width,
                    addr: a,
                    value,
                });
            }
            IInst::CmovSelect {
                lbs,
                acc,
                value,
                old,
                dst,
            } => {
                let sel = Rc::new(Expr::Select {
                    lbs,
                    test: accs[acc.index()].clone(),
                    value: v!(value, acc),
                    old: read(&regs, old),
                });
                accs[acc.index()] = sel.clone();
                if let Some(d) = dst {
                    write(&mut regs, d, sel);
                }
            }
            IInst::CopyToGpr { acc, dst } => {
                let e = accs[acc.index()].clone();
                write(&mut regs, dst, e);
            }
            IInst::CopyFromGpr { acc, src } => accs[acc.index()] = read(&regs, src),
            IInst::SaveVReturn { dst, vaddr } => write(&mut regs, dst, cnst(vaddr)),
            IInst::IndirectJump { acc, addr, .. } => {
                let target = and_not3(v!(addr, acc));
                fx.exit(k, ExitKind::Indirect { target }, &regs);
                // The dispatch fallback re-states the same exit.
                if matches!(insts.get(k + 1), Some(&IInst::Dispatch { src, .. }) if src == addr) {
                    k += 2;
                    continue;
                }
            }
            IInst::Dispatch { acc, src } => {
                let target = and_not3(v!(src, acc));
                fx.exit(k, ExitKind::Indirect { target }, &regs);
            }
            IInst::CallTranslatorIfCond {
                cond,
                acc,
                src,
                vtarget,
            } => {
                let src = v!(src, acc);
                fx.exit(
                    k,
                    ExitKind::Cond {
                        cond,
                        src,
                        target: vtarget,
                    },
                    &regs,
                );
            }
            IInst::CallTranslator { vtarget } => {
                fx.exit(k, ExitKind::Always { target: vtarget }, &regs);
            }
            IInst::CondBranch { .. } | IInst::Branch { .. } => {
                out.push(Violation::new(
                    "E07",
                    code.vstart,
                    Some(k),
                    "only unresolved (patchable) exits in pre-install code".to_string(),
                    format!("{:?}", insts[k]),
                ));
                return None;
            }
            IInst::GenTrap => pei_check(k, &regs, &accs),
            IInst::PutChar { acc, src } => {
                let e = v!(src, acc);
                fx.outs.push((k, e));
            }
            IInst::Halt => fx.exit(k, ExitKind::Halt, &regs),
        }
        k += 1;
    }
    Some(fx)
}

fn describe(kind: &ExitKind) -> String {
    match kind {
        ExitKind::Cond { cond, target, .. } => format!("cond {cond:?} -> {target:#x}"),
        ExitKind::Always { target } => format!("always -> {target:#x}"),
        ExitKind::Indirect { .. } => "indirect".to_string(),
        ExitKind::Halt => "halt".to_string(),
    }
}

pub(crate) fn check(
    sb: &Superblock,
    code: &TranslatedCode,
    _tr: &Translator,
    out: &mut Vec<Violation>,
) {
    let vstart = code.vstart;
    let alpha = walk_alpha(sb);
    let Some(frag) = walk_fragment(code, out) else {
        return;
    };
    // One equality memo spans every comparison below: `alpha` and `frag`
    // keep all compared expressions alive, so the node addresses it keys
    // stay valid for the whole pass.
    let memo = &mut IdMap::default();

    // E03 — exit skeleton.
    if alpha.exits.len() != frag.exits.len() {
        out.push(Violation::new(
            "E03",
            vstart,
            None,
            format!("{} exits (source block)", alpha.exits.len()),
            format!("{} exits", frag.exits.len()),
        ));
    }
    for (a, f) in alpha.exits.iter().zip(&frag.exits) {
        let kinds_match = match (&a.kind, &f.kind) {
            (
                ExitKind::Cond {
                    cond: ca,
                    target: ta,
                    ..
                },
                ExitKind::Cond {
                    cond: cf,
                    target: tf,
                    ..
                },
            ) => ca == cf && ta == tf,
            (ExitKind::Always { target: ta }, ExitKind::Always { target: tf }) => ta == tf,
            (ExitKind::Indirect { .. }, ExitKind::Indirect { .. }) => true,
            (ExitKind::Halt, ExitKind::Halt) => true,
            _ => false,
        };
        if !kinds_match {
            out.push(Violation::new(
                "E03",
                vstart,
                Some(f.at),
                describe(&a.kind),
                describe(&f.kind),
            ));
            continue;
        }
        // E02 — exit-condition expressions.
        match (&a.kind, &f.kind) {
            (ExitKind::Cond { src: sa, .. }, ExitKind::Cond { src: sf, .. })
                if !expr_eq(sa, sf, memo) =>
            {
                out.push(Violation::new(
                    "E02",
                    vstart,
                    Some(f.at),
                    format!("condition source {sa:?}"),
                    format!("{sf:?}"),
                ));
            }
            (ExitKind::Indirect { target: ta }, ExitKind::Indirect { target: tf })
                if !expr_eq(ta, tf, memo) =>
            {
                out.push(Violation::new(
                    "E02",
                    vstart,
                    Some(f.at),
                    format!("indirect target {ta:?}"),
                    format!("{tf:?}"),
                ));
            }
            _ => {}
        }
        // E01 — architected registers at the exit.
        for r in 0..32 {
            if !expr_eq(&a.regs[r], &f.regs[r], memo) {
                out.push(Violation::new(
                    "E01",
                    vstart,
                    Some(f.at),
                    format!("r{r} = {:?} at exit {}", a.regs[r], describe(&a.kind)),
                    format!("{:?}", f.regs[r]),
                ));
            }
        }
        // E04/E05 — effect interleaving at the exit.
        if (a.stores_before, a.loads_before) != (f.stores_before, f.loads_before) {
            out.push(Violation::new(
                "E04",
                vstart,
                Some(f.at),
                format!(
                    "{} stores / {} loads before exit {}",
                    a.stores_before,
                    a.loads_before,
                    describe(&a.kind)
                ),
                format!("{} stores / {} loads", f.stores_before, f.loads_before),
            ));
        }
        if a.outs_before != f.outs_before {
            out.push(Violation::new(
                "E05",
                vstart,
                Some(f.at),
                format!(
                    "{} outputs before exit {}",
                    a.outs_before,
                    describe(&a.kind)
                ),
                format!("{} outputs", f.outs_before),
            ));
        }
    }

    // E04 — memory effect logs.
    if alpha.stores.len() != frag.stores.len() {
        out.push(Violation::new(
            "E04",
            vstart,
            None,
            format!("{} stores", alpha.stores.len()),
            format!("{} stores", frag.stores.len()),
        ));
    }
    for (a, f) in alpha.stores.iter().zip(&frag.stores) {
        if a.width != f.width
            || !expr_eq(&a.addr, &f.addr, memo)
            || !expr_eq(&a.value, &f.value, memo)
        {
            out.push(Violation::new(
                "E04",
                vstart,
                Some(f.at),
                format!("store {:?} {:?} <- {:?}", a.width, a.addr, a.value),
                format!("store {:?} {:?} <- {:?}", f.width, f.addr, f.value),
            ));
        }
    }
    if alpha.loads.len() != frag.loads.len() {
        out.push(Violation::new(
            "E04",
            vstart,
            None,
            format!("{} loads", alpha.loads.len()),
            format!("{} loads", frag.loads.len()),
        ));
    }
    for (a, f) in alpha.loads.iter().zip(&frag.loads) {
        if a.width != f.width
            || !expr_eq(&a.addr, &f.addr, memo)
            || a.stores_before != f.stores_before
        {
            out.push(Violation::new(
                "E04",
                vstart,
                Some(f.at),
                format!(
                    "load {:?} {:?} after {} stores",
                    a.width, a.addr, a.stores_before
                ),
                format!(
                    "load {:?} {:?} after {} stores",
                    f.width, f.addr, f.stores_before
                ),
            ));
        }
    }

    // E05 — output log.
    if alpha.outs.len() != frag.outs.len() {
        out.push(Violation::new(
            "E05",
            vstart,
            None,
            format!("{} outputs", alpha.outs.len()),
            format!("{} outputs", frag.outs.len()),
        ));
    }
    for ((_, a), (at, f)) in alpha.outs.iter().zip(&frag.outs) {
        if !expr_eq(a, f, memo) {
            out.push(Violation::new(
                "E05",
                vstart,
                Some(*at),
                format!("output {a:?}"),
                format!("{f:?}"),
            ));
        }
    }

    // E06 — precise state at every potentially-trapping instruction.
    if alpha.peis.len() != frag.peis.len() {
        out.push(Violation::new(
            "E06",
            vstart,
            None,
            format!("{} trap points", alpha.peis.len()),
            format!("{} trap points", frag.peis.len()),
        ));
    }
    for (a, f) in alpha.peis.iter().zip(&frag.peis) {
        for r in 0..32 {
            if !expr_eq(&a.regs[r], &f.regs[r], memo) {
                out.push(Violation::new(
                    "E06",
                    vstart,
                    Some(f.at),
                    format!("recoverable r{r} = {:?} at trap point", a.regs[r]),
                    format!("{:?}", f.regs[r]),
                ));
            }
        }
    }
}
