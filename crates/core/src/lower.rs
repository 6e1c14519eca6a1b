//! The engine's executable form of installed fragments.
//!
//! [`Engine::run`](crate::Engine::run) does not interpret [`IInst`]s. At
//! install, every fragment's instructions are lowered 1:1 into [`Op`]s
//! with everything static resolved once per fragment instead of once per
//! executed instruction: operand sources become [`Src`]s with immediates
//! widened, `R31` reads fold to `Imm(0)` and `R31` writes vanish, the
//! common ALU ops get variants of their own, and each transfer carries
//! its direct link. Indexing stays 1:1, so `meta`, the trace templates,
//! the retirement prefix sums and the recovery tables still apply.
//!
//! `IInst` and the link table stay the source of truth. The ops are a
//! pure function of both ([`lower`]), recomputed by the translation cache
//! whenever either changes: at install, at every patch, un-patch and
//! dual-RAS resolution, and after
//! [`TranslationCache::edit_fragment`](crate::TranslationCache::edit_fragment).

use crate::fragment::FragmentId;
use alpha_isa::{JumpKind, OperateOp, Reg};
use ildp_isa::{ASrc, Acc, CondKind, IInst, ITarget, MemWidth};

/// A resolved value source. A `Gpr` never names `R31`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Src {
    /// The op's accumulator.
    Acc,
    /// A GPR other than `R31`.
    Gpr(Reg),
    /// An immediate, sign-extended from the instruction's field.
    Imm(i32),
}

impl Src {
    fn lower(src: ASrc) -> Src {
        match src {
            ASrc::Acc => Src::Acc,
            ASrc::Gpr(r) => Src::gpr(r),
            ASrc::Imm(v) => Src::Imm(i32::from(v)),
        }
    }

    /// A GPR read: `R31` reads zero.
    fn gpr(r: Reg) -> Src {
        if r.is_zero() {
            Src::Imm(0)
        } else {
            Src::Gpr(r)
        }
    }
}

/// A GPR write: writes to `R31` are discarded.
fn dst(r: Option<Reg>) -> Option<Reg> {
    r.filter(|r| !r.is_zero())
}

/// The operands of an ALU op: `acc (, dst) <- f(lhs, rhs)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Alu {
    pub(crate) acc: Acc,
    pub(crate) lhs: Src,
    pub(crate) rhs: Src,
    pub(crate) dst: Option<Reg>,
}

/// A structural fault an op raises when it executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fault {
    /// A branch with no direct link ([`VmError::UnlinkedTransfer`]).
    ///
    /// [`VmError::UnlinkedTransfer`]: crate::VmError::UnlinkedTransfer
    UnlinkedTransfer,
    /// A dual-RAS push whose I-side target is still local
    /// ([`VmError::UnresolvedDualRas`]).
    ///
    /// [`VmError::UnresolvedDualRas`]: crate::VmError::UnresolvedDualRas
    UnresolvedDualRas,
}

/// One lowered instruction. Field names follow the [`IInst`] variant each
/// op comes from; a `dst` of `None` writes no GPR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// No effect: `set-vpc-base`, and copies or saves into `R31`.
    Nop,
    /// `addq`, and `add-high` with its immediate shifted into `rhs`.
    Addq(Alu),
    Subq(Alu),
    /// Every other non-cmov ALU op.
    Alu(OperateOp, Alu),
    /// A cmov in `Op` form: `rhs` if `lhs` passes the test, else the
    /// accumulator's current value.
    Cmov(OperateOp, Alu),
    CmovSelect {
        acc: Acc,
        lbs: bool,
        value: Src,
        old: Src,
        dst: Option<Reg>,
    },
    Load {
        acc: Acc,
        width: MemWidth,
        addr: Src,
        disp: i16,
        dst: Option<Reg>,
    },
    Store {
        acc: Acc,
        width: MemWidth,
        addr: Src,
        disp: i16,
        value: Src,
    },
    CopyToGpr {
        acc: Acc,
        dst: Reg,
    },
    CopyFromGpr {
        acc: Acc,
        src: Reg,
    },
    /// `load-embedded-target`, and a copy from `R31`.
    SetAcc {
        acc: Acc,
        value: u64,
    },
    /// `save-V-return`.
    SetGpr {
        dst: Reg,
        value: u64,
    },
    /// A conditional branch and its direct link.
    CondBranch {
        acc: Acc,
        cond: CondKind,
        src: Src,
        link: FragmentId,
    },
    /// A conditional branch with no direct link: faults when taken.
    CondBranchUnlinked {
        acc: Acc,
        cond: CondKind,
        src: Src,
    },
    /// An unconditional branch and its direct link.
    Branch {
        link: FragmentId,
    },
    /// A return through the dual-address RAS.
    Ret {
        acc: Acc,
        addr: Src,
    },
    /// A dual-RAS push whose I-side target is no fragment entry.
    PushRas {
        vret: u64,
        iret: u64,
    },
    /// A dual-RAS push and the fragment its I-side target enters.
    PushRasLinked {
        vret: u64,
        iret: u64,
        link: FragmentId,
    },
    /// `call-translator-if-condition-is-met`.
    ExitIf {
        acc: Acc,
        cond: CondKind,
        src: Src,
        vtarget: u64,
    },
    /// `call-translator`.
    Exit {
        vtarget: u64,
    },
    Dispatch {
        acc: Acc,
        src: Src,
    },
    GenTrap,
    PutChar {
        acc: Acc,
        src: Src,
    },
    Halt,
    /// Raises a structural fault.
    Fault(Fault),
}

// The lowered form must stay smaller than the 32-byte `IInst` it replaces.
const _: () = assert!(std::mem::size_of::<Op>() == 24);

/// Lowers one instruction together with its direct link.
pub(crate) fn lower(inst: &IInst, link: Option<FragmentId>) -> Op {
    match *inst {
        IInst::Op {
            op,
            acc,
            lhs,
            rhs,
            dst: d,
        } => {
            let alu = Alu {
                acc,
                lhs: Src::lower(lhs),
                rhs: Src::lower(rhs),
                dst: dst(d),
            };
            match op {
                OperateOp::Addq => Op::Addq(alu),
                OperateOp::Subq => Op::Subq(alu),
                op if op.is_cmov() => Op::Cmov(op, alu),
                op => Op::Alu(op, alu),
            }
        }
        IInst::AddHigh {
            acc,
            src,
            imm,
            dst: d,
        } => Op::Addq(Alu {
            acc,
            lhs: Src::lower(src),
            rhs: Src::Imm(i32::from(imm) << 16),
            dst: dst(d),
        }),
        IInst::CmovSelect {
            acc,
            lbs,
            value,
            old,
            dst: d,
        } => Op::CmovSelect {
            acc,
            lbs,
            value: Src::lower(value),
            old: Src::gpr(old),
            dst: dst(d),
        },
        IInst::Load {
            acc,
            width,
            addr,
            disp,
            dst: d,
        } => Op::Load {
            acc,
            width,
            addr: Src::lower(addr),
            disp,
            dst: dst(d),
        },
        IInst::Store {
            acc,
            width,
            addr,
            disp,
            value,
        } => Op::Store {
            acc,
            width,
            addr: Src::lower(addr),
            disp,
            value: Src::lower(value),
        },
        IInst::CopyToGpr { dst, .. } if dst.is_zero() => Op::Nop,
        IInst::CopyToGpr { acc, dst } => Op::CopyToGpr { acc, dst },
        IInst::CopyFromGpr { acc, src } if src.is_zero() => Op::SetAcc { acc, value: 0 },
        IInst::CopyFromGpr { acc, src } => Op::CopyFromGpr { acc, src },
        IInst::CondBranch { acc, cond, src, .. } => {
            let src = Src::lower(src);
            match link {
                Some(link) => Op::CondBranch {
                    acc,
                    cond,
                    src,
                    link,
                },
                None => Op::CondBranchUnlinked { acc, cond, src },
            }
        }
        IInst::Branch { .. } => match link {
            Some(link) => Op::Branch { link },
            None => Op::Fault(Fault::UnlinkedTransfer),
        },
        IInst::IndirectJump { acc, kind, addr } => {
            debug_assert_eq!(kind, JumpKind::Ret, "only returns reach the engine");
            Op::Ret {
                acc,
                addr: Src::lower(addr),
            }
        }
        IInst::SetVpcBase { .. } => Op::Nop,
        IInst::LoadEmbeddedTarget { acc, vaddr } => Op::SetAcc { acc, value: vaddr },
        IInst::SaveVReturn { dst, .. } if dst.is_zero() => Op::Nop,
        IInst::SaveVReturn { dst, vaddr } => Op::SetGpr { dst, value: vaddr },
        IInst::PushDualRas { vret, iret } => match (iret, link) {
            (ITarget::Local(_), _) => Op::Fault(Fault::UnresolvedDualRas),
            (ITarget::Addr(iret), None) => Op::PushRas { vret, iret },
            (ITarget::Addr(iret), Some(link)) => Op::PushRasLinked { vret, iret, link },
        },
        IInst::CallTranslatorIfCond {
            acc,
            cond,
            src,
            vtarget,
        } => Op::ExitIf {
            acc,
            cond,
            src: Src::lower(src),
            vtarget,
        },
        IInst::CallTranslator { vtarget } => Op::Exit { vtarget },
        IInst::Dispatch { acc, src } => Op::Dispatch {
            acc,
            src: Src::lower(src),
        },
        IInst::GenTrap => Op::GenTrap,
        IInst::PutChar { acc, src } => Op::PutChar {
            acc,
            src: Src::lower(src),
        },
        IInst::Halt => Op::Halt,
    }
}

/// Lowers a whole fragment (`insts` and `links` run in parallel).
pub(crate) fn lower_all(insts: &[IInst], links: &[Option<FragmentId>]) -> Vec<Op> {
    debug_assert_eq!(insts.len(), links.len(), "links must parallel code");
    insts
        .iter()
        .zip(links)
        .map(|(inst, &link)| lower(inst, link))
        .collect()
}
