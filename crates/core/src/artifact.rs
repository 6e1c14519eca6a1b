//! The shared warm-start translation cache (fragment artifact store).
//!
//! At fleet scale the translation tax is paid once per VM instance even
//! when thousands of instances run identical code. This module makes a
//! translated-and-verified fragment a *portable artifact*: keyed by the
//! digest of the exact guest bytes and collected path it was formed from
//! plus the digest of the [`Translator`] configuration that produced it,
//! serialized through the PR 4 [`wire`](crate::wire) layer, and held in
//! an in-process `Arc`-shared [`FragmentStore`] (optionally persisted to
//! disk). A second VM that heats the same region looks the key up and
//! installs the pre-verified fragment without re-translating or
//! re-verifying.
//!
//! Coherence: a shared entry is only ever *used* after the consuming VM
//! re-collects the region and recomputes the key from its **own** guest
//! memory — self-modified code or a different dynamic path produces a
//! different digest and simply misses. On top of that, SMC invalidation
//! and degradation-ladder demotion remove the victim's key from the
//! store ([`FragmentStore::remove`]), so a fragment known-bad on one VM
//! stops being served to new ones. Removed keys are tombstoned so a
//! later [`FragmentStore::save`] merge cannot resurrect them from disk.
//!
//! # Durability and the failure envelope
//!
//! The on-disk form is built to be *rejected into a cache miss*, never
//! installed and never a crash, no matter what happened to the file:
//!
//! * **Per-artifact seals.** Every entry is independently enveloped
//!   (magic, version, checksum trailer) *and embeds its own
//!   [`ArtifactKey`]*, binding payload to index slot. A flipped bit
//!   costs one artifact (quarantined at first lookup); a key↔payload
//!   swap — even one that re-seals the container — fails the embedded
//!   key check. The whole-store seal still covers the container for
//!   fast-path integrity.
//! * **Atomic durability.** [`FragmentStore::save`] writes a sibling
//!   temp file, fsyncs it, renames it over the target, and fsyncs the
//!   directory — a writer crashing at any instant leaves either the old
//!   store or the new one visible, never a torn hybrid.
//! * **Multi-process access.** Save and load serialize on an advisory
//!   file lock (a sibling `.lock` file); `save` first merges the
//!   current disk content under the lock (last-writer-wins per key,
//!   tombstones win over disk) so concurrent writers union rather than
//!   clobber.
//! * **Lazy per-key validation.** [`FragmentStore::open`] only walks
//!   the container framing; entry content is validated at
//!   [`FragmentStore::get`] time, where a bad artifact is quarantined
//!   (dropped + tombstoned) and served as a miss. Unknown
//!   `STORE_VERSION` or a missing file opens as a clean empty store;
//!   a damaged whole-store seal degrades to per-entry salvage.
//!
//! The `storelint` harness (crates/bench) drives this envelope with
//! seeded fault injection — bit flips, truncation, version skew,
//! key↔payload swaps, torn writes, concurrent writers — and gates on
//! zero undetected corruptions.

use crate::classify::CategoryCounts;
use crate::classify::UsageCat;
use crate::error::SnapshotError;
use crate::fragment::{IMeta, RecoveryEntry};
use crate::superblock::{CollectedFlow, SbEnd, Superblock};
use crate::translate::{ChainPolicy, TranslatedCode, Translator};
use crate::wire::{self, Cursor};
use alpha_isa::hash::checksum;
use alpha_isa::{IdMap, IdSet, JumpKind, OperateOp, Program, Reg};
use ildp_isa::{ASrc, Acc, CondKind, IInst, ITarget, IsaForm, MemWidth};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic number of a serialized fragment artifact (`"ILPF"`).
pub const ARTIFACT_MAGIC: u32 = 0x4650_4C49;

/// Current fragment-artifact format version. Version 3 seals with
/// `alpha_isa::hash::checksum` and keys by its digests; the payload is
/// version 2's, which embeds the [`ArtifactKey`] in the sealed payload,
/// binding each entry to its index slot. Older artifacts are rejected as
/// version skew.
pub const ARTIFACT_VERSION: u32 = 3;

/// Magic number of a serialized fragment store (`"ILPW"`).
pub const STORE_MAGIC: u32 = 0x5750_4C49;

/// Current fragment-store format version. Version 3 containers hold
/// version-3 artifacts (see [`ARTIFACT_VERSION`]) under a checksum seal;
/// an unknown version opens as a clean empty store rather than an error.
pub const STORE_VERSION: u32 = 3;

/// Identity of a reusable translation: what was translated (the guest
/// bytes and dynamic path of the collected superblock) and how (the
/// translator configuration). Two VMs computing equal keys would produce
/// byte-identical translations, so the artifact of one is valid for the
/// other.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// Checksum digest of the collected superblock: entry address, each
    /// instruction's V-address and raw code word, its collected control
    /// flow, and the ending condition.
    pub code_digest: u64,
    /// Checksum digest of the [`Translator`] configuration (ISA form,
    /// chaining policy, accumulator count, memory fusion).
    pub config_digest: u64,
}

/// Digest of a collected superblock's guest-code span and dynamic path.
///
/// The raw code words are read back from `program` (collection already
/// fetched them, so they are in range for any collectable block); the
/// collected flow is folded in because the same static code region can
/// be collected along different dynamic paths, which translate
/// differently.
pub fn superblock_digest(program: &Program, sb: &Superblock) -> u64 {
    let mut buf = Vec::with_capacity(16 + sb.len() * 24);
    wire::put_u64(&mut buf, sb.start);
    let code = program.code();
    let base = program.code_base();
    for inst in &sb.insts {
        wire::put_u64(&mut buf, inst.vaddr);
        let idx = inst.vaddr.wrapping_sub(base) / 4;
        let raw = code.get(idx as usize).copied().unwrap_or(0);
        wire::put_u32(&mut buf, raw);
        match inst.flow {
            CollectedFlow::Sequential => wire::put_u8(&mut buf, 0),
            CollectedFlow::CondNotTaken { taken_target } => {
                wire::put_u8(&mut buf, 1);
                wire::put_u64(&mut buf, taken_target);
            }
            CollectedFlow::CondTaken {
                taken_target,
                fallthrough,
            } => {
                wire::put_u8(&mut buf, 2);
                wire::put_u64(&mut buf, taken_target);
                wire::put_u64(&mut buf, fallthrough);
            }
            CollectedFlow::Direct { target, links } => {
                wire::put_u8(&mut buf, 3);
                wire::put_u64(&mut buf, target);
                wire::put_u8(&mut buf, links as u8);
            }
            CollectedFlow::Indirect { kind, target } => {
                wire::put_u8(&mut buf, 4);
                wire::put_u8(&mut buf, kind.code() as u8);
                wire::put_u64(&mut buf, target);
            }
        }
    }
    match sb.end {
        SbEnd::IndirectJump => wire::put_u8(&mut buf, 0),
        SbEnd::BackwardTakenBranch {
            target,
            fallthrough,
        } => {
            wire::put_u8(&mut buf, 1);
            wire::put_u64(&mut buf, target);
            wire::put_u64(&mut buf, fallthrough);
        }
        SbEnd::Cycle { next } => {
            wire::put_u8(&mut buf, 2);
            wire::put_u64(&mut buf, next);
        }
        SbEnd::MaxSize { next } => {
            wire::put_u8(&mut buf, 3);
            wire::put_u64(&mut buf, next);
        }
        SbEnd::Halt => wire::put_u8(&mut buf, 4),
    }
    checksum(&buf)
}

/// Digest of a translator configuration.
pub fn translator_digest(t: &Translator) -> u64 {
    let chain = match t.chain {
        ChainPolicy::NoPred => 0u8,
        ChainPolicy::SwPred => 1,
        ChainPolicy::SwPredDualRas => 2,
    };
    let buf = [
        match t.form {
            IsaForm::Basic => 0u8,
            IsaForm::Modified => 1,
        },
        chain,
        t.acc_count as u8,
        t.fuse_memory as u8,
    ];
    checksum(&buf)
}

/// The store key for translating `sb` under `translator` within
/// `program`.
pub fn artifact_key(program: &Program, sb: &Superblock, translator: &Translator) -> ArtifactKey {
    ArtifactKey {
        code_digest: superblock_digest(program, sb),
        config_digest: translator_digest(translator),
    }
}

/// A translated-and-verified fragment in portable form: everything
/// [`TranslationCache::install`](crate::TranslationCache::install) needs,
/// plus the static translation statistics the installing VM merges into
/// its own [`VmStats`](crate::VmStats). The analysis trace is
/// deliberately absent — artifacts are normally installed pre-verified.
/// A VM that does not extend that trust to disk-loaded artifacts can set
/// [`VmConfig::store_validator`](crate::VmConfig::store_validator) to
/// re-run the trace-free verifier families on
/// [`to_translated_code`](FragmentArtifact::to_translated_code) before
/// install.
#[derive(Clone, PartialEq, Debug)]
pub struct FragmentArtifact {
    /// Entry V-address.
    pub vstart: u64,
    /// The I-ISA form the fragment was emitted for.
    pub form: IsaForm,
    /// Source superblock length in V-ISA instructions.
    pub src_inst_count: u32,
    /// The emitted instructions.
    pub insts: Vec<IInst>,
    /// Parallel metadata.
    pub meta: Vec<IMeta>,
    /// Precise-trap recovery tables (basic form).
    pub recovery: IdMap<u32, Vec<RecoveryEntry>>,
    /// Copy instructions emitted.
    pub copies: u32,
    /// Strands formed.
    pub strands: u32,
    /// Strands prematurely terminated.
    pub terminations: u32,
    /// Static category counts of produced values.
    pub categories: CategoryCounts,
    /// Static category counts under oracle boundaries.
    pub oracle_categories: CategoryCounts,
}

impl FragmentArtifact {
    /// Packages a fresh translation for the store (dropping its analysis
    /// trace).
    pub fn from_translation(code: TranslatedCode, form: IsaForm) -> FragmentArtifact {
        FragmentArtifact {
            vstart: code.vstart,
            form,
            src_inst_count: code.src_inst_count,
            insts: code.insts,
            meta: code.meta,
            recovery: code.recovery,
            copies: code.stats.copies,
            strands: code.stats.strands,
            terminations: code.stats.terminations,
            categories: code.stats.categories,
            oracle_categories: code.stats.oracle_categories,
        }
    }

    /// Serializes into the enveloped wire format. The artifact embeds
    /// `key` — the index slot it is stored under — inside its own seal,
    /// so a store whose payloads were swapped or remapped on disk fails
    /// the key check at decode even though each payload is internally
    /// consistent.
    pub fn to_bytes(&self, key: ArtifactKey) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u64(&mut p, key.code_digest);
        wire::put_u64(&mut p, key.config_digest);
        wire::put_u64(&mut p, self.vstart);
        wire::put_u8(&mut p, matches!(self.form, IsaForm::Modified) as u8);
        wire::put_u32(&mut p, self.src_inst_count);
        wire::put_u32(&mut p, self.insts.len() as u32);
        for inst in &self.insts {
            put_iinst(&mut p, inst);
        }
        wire::put_u32(&mut p, self.meta.len() as u32);
        for m in &self.meta {
            wire::put_u64(&mut p, m.vaddr);
            wire::put_u16(&mut p, m.vcount);
            match m.category {
                Some(cat) => wire::put_u8(&mut p, 1 + cat as u8),
                None => wire::put_u8(&mut p, 0),
            }
            wire::put_u8(&mut p, m.is_chain as u8);
        }
        let mut slots: Vec<u32> = self.recovery.keys().copied().collect();
        slots.sort_unstable();
        wire::put_u32(&mut p, slots.len() as u32);
        for slot in slots {
            wire::put_u32(&mut p, slot);
            let entries = &self.recovery[&slot];
            wire::put_u32(&mut p, entries.len() as u32);
            for e in entries {
                wire::put_u8(&mut p, e.reg.number());
                wire::put_u8(&mut p, e.acc.number());
            }
        }
        wire::put_u32(&mut p, self.copies);
        wire::put_u32(&mut p, self.strands);
        wire::put_u32(&mut p, self.terminations);
        for v in self.categories.0 {
            wire::put_u64(&mut p, v);
        }
        for v in self.oracle_categories.0 {
            wire::put_u64(&mut p, v);
        }
        wire::seal(ARTIFACT_MAGIC, ARTIFACT_VERSION, &p)
    }

    /// Deserializes an artifact written by
    /// [`to_bytes`](FragmentArtifact::to_bytes), returning the embedded
    /// [`ArtifactKey`] alongside it. Callers holding the index key the
    /// entry was filed under must compare it against the embedded one
    /// (see [`SnapshotError::KeyMismatch`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<(ArtifactKey, FragmentArtifact), SnapshotError> {
        let payload = wire::open(ARTIFACT_MAGIC, ARTIFACT_VERSION, bytes)?;
        let mut c = Cursor::new(payload);
        let embedded = ArtifactKey {
            code_digest: c.take_u64()?,
            config_digest: c.take_u64()?,
        };
        let vstart = c.take_u64()?;
        let form = if c.take_u8()? == 0 {
            IsaForm::Basic
        } else {
            IsaForm::Modified
        };
        let src_inst_count = c.take_u32()?;
        let n = c.take_u32()? as usize;
        let mut insts = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            insts.push(take_iinst(&mut c)?);
        }
        let n = c.take_u32()? as usize;
        let mut meta = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vaddr = c.take_u64()?;
            let vcount = c.take_u16()?;
            let category = match c.take_u8()? {
                0 => None,
                i => Some(*UsageCat::ALL.get(i as usize - 1).ok_or(bad_tag(i))?),
            };
            let is_chain = c.take_u8()? != 0;
            meta.push(IMeta {
                vaddr,
                vcount,
                category,
                is_chain,
            });
        }
        let n = c.take_u32()? as usize;
        let mut recovery = IdMap::default();
        for _ in 0..n {
            let slot = c.take_u32()?;
            let m = c.take_u32()? as usize;
            let mut entries = Vec::with_capacity(m.min(64));
            for _ in 0..m {
                let reg = take_reg(&mut c)?;
                let acc = take_acc(&mut c)?;
                entries.push(RecoveryEntry { reg, acc });
            }
            recovery.insert(slot, entries);
        }
        let copies = c.take_u32()?;
        let strands = c.take_u32()?;
        let terminations = c.take_u32()?;
        let mut categories = CategoryCounts::default();
        for v in categories.0.iter_mut() {
            *v = c.take_u64()?;
        }
        let mut oracle_categories = CategoryCounts::default();
        for v in oracle_categories.0.iter_mut() {
            *v = c.take_u64()?;
        }
        c.finish()?;
        Ok((
            embedded,
            FragmentArtifact {
                vstart,
                form,
                src_inst_count,
                insts,
                meta,
                recovery,
                copies,
                strands,
                terminations,
                categories,
                oracle_categories,
            },
        ))
    }

    /// Rehydrates the artifact into a [`TranslatedCode`] so trace-free
    /// verifier passes can audit a disk-loaded fragment before install.
    /// The analysis trace is not persisted, so `trace` is empty —
    /// trace-consuming passes (precise-state, accumulator-discipline)
    /// cannot run on the result, only the static chaining and symbolic
    /// re-execution families can.
    pub fn to_translated_code(&self) -> TranslatedCode {
        TranslatedCode {
            vstart: self.vstart,
            insts: self.insts.clone(),
            meta: self.meta.clone(),
            recovery: self.recovery.clone(),
            src_inst_count: self.src_inst_count,
            stats: crate::translate::TranslateStats {
                copies: self.copies,
                chain_insts: 0,
                strands: self.strands,
                terminations: self.terminations,
                categories: self.categories,
                oracle_categories: self.oracle_categories,
            },
            trace: Default::default(),
        }
    }
}

fn bad_tag(tag: u8) -> SnapshotError {
    // An out-of-range tag means the artifact came from a newer build.
    SnapshotError::BadVersion {
        version: tag as u32,
    }
}

fn put_asrc(p: &mut Vec<u8>, s: &ASrc) {
    match *s {
        ASrc::Acc => wire::put_u8(p, 0),
        ASrc::Gpr(r) => {
            wire::put_u8(p, 1);
            wire::put_u8(p, r.number());
        }
        ASrc::Imm(v) => {
            wire::put_u8(p, 2);
            wire::put_u16(p, v as u16);
        }
    }
}

fn take_asrc(c: &mut Cursor<'_>) -> Result<ASrc, SnapshotError> {
    Ok(match c.take_u8()? {
        0 => ASrc::Acc,
        1 => ASrc::Gpr(take_reg(c)?),
        2 => ASrc::Imm(c.take_u16()? as i16),
        tag => return Err(bad_tag(tag)),
    })
}

fn take_reg(c: &mut Cursor<'_>) -> Result<Reg, SnapshotError> {
    let n = c.take_u8()?;
    if n >= 32 {
        return Err(bad_tag(n));
    }
    Ok(Reg::new(n))
}

fn take_acc(c: &mut Cursor<'_>) -> Result<Acc, SnapshotError> {
    let n = c.take_u8()?;
    if n as usize >= Acc::MAX_ACCUMULATORS {
        return Err(bad_tag(n));
    }
    Ok(Acc::new(n))
}

fn put_opt_reg(p: &mut Vec<u8>, r: &Option<Reg>) {
    match r {
        Some(r) => {
            wire::put_u8(p, 1);
            wire::put_u8(p, r.number());
        }
        None => wire::put_u8(p, 0),
    }
}

fn take_opt_reg(c: &mut Cursor<'_>) -> Result<Option<Reg>, SnapshotError> {
    Ok(match c.take_u8()? {
        0 => None,
        _ => Some(take_reg(c)?),
    })
}

fn put_itarget(p: &mut Vec<u8>, t: &ITarget) {
    match *t {
        ITarget::Local(i) => {
            wire::put_u8(p, 0);
            wire::put_u32(p, i);
        }
        ITarget::Addr(a) => {
            wire::put_u8(p, 1);
            wire::put_u64(p, a);
        }
    }
}

fn take_itarget(c: &mut Cursor<'_>) -> Result<ITarget, SnapshotError> {
    Ok(match c.take_u8()? {
        0 => ITarget::Local(c.take_u32()?),
        1 => ITarget::Addr(c.take_u64()?),
        tag => return Err(bad_tag(tag)),
    })
}

/// Every `OperateOp`, in declaration order (the wire encoding is the
/// index into this table).
const OPERATE_OPS: [OperateOp; 42] = [
    OperateOp::Addl,
    OperateOp::Addq,
    OperateOp::Subl,
    OperateOp::Subq,
    OperateOp::S4addl,
    OperateOp::S4addq,
    OperateOp::S8addq,
    OperateOp::S4subq,
    OperateOp::S8subq,
    OperateOp::Cmpeq,
    OperateOp::Cmplt,
    OperateOp::Cmple,
    OperateOp::Cmpult,
    OperateOp::Cmpule,
    OperateOp::And,
    OperateOp::Bic,
    OperateOp::Bis,
    OperateOp::Ornot,
    OperateOp::Xor,
    OperateOp::Eqv,
    OperateOp::Cmoveq,
    OperateOp::Cmovne,
    OperateOp::Cmovlt,
    OperateOp::Cmovge,
    OperateOp::Cmovle,
    OperateOp::Cmovgt,
    OperateOp::Cmovlbs,
    OperateOp::Cmovlbc,
    OperateOp::Sll,
    OperateOp::Srl,
    OperateOp::Sra,
    OperateOp::Extbl,
    OperateOp::Extwl,
    OperateOp::Extll,
    OperateOp::Extql,
    OperateOp::Insbl,
    OperateOp::Mskbl,
    OperateOp::Zapnot,
    OperateOp::Zap,
    OperateOp::Mull,
    OperateOp::Mulq,
    OperateOp::Umulh,
];

const MEM_WIDTHS: [MemWidth; 4] = [MemWidth::U8, MemWidth::U16, MemWidth::I32, MemWidth::U64];

const COND_KINDS: [CondKind; 8] = [
    CondKind::Eq,
    CondKind::Ne,
    CondKind::Lt,
    CondKind::Le,
    CondKind::Gt,
    CondKind::Ge,
    CondKind::Lbc,
    CondKind::Lbs,
];

fn enum_index<T: PartialEq>(table: &[T], v: &T) -> u8 {
    table
        .iter()
        .position(|t| t == v)
        .expect("value present in its own enum table") as u8
}

fn take_indexed<T: Copy>(c: &mut Cursor<'_>, table: &[T]) -> Result<T, SnapshotError> {
    let i = c.take_u8()?;
    table.get(i as usize).copied().ok_or(bad_tag(i))
}

fn put_iinst(p: &mut Vec<u8>, inst: &IInst) {
    match *inst {
        IInst::Op {
            op,
            acc,
            lhs,
            rhs,
            dst,
        } => {
            wire::put_u8(p, 0);
            wire::put_u8(p, enum_index(&OPERATE_OPS, &op));
            wire::put_u8(p, acc.number());
            put_asrc(p, &lhs);
            put_asrc(p, &rhs);
            put_opt_reg(p, &dst);
        }
        IInst::Load {
            width,
            acc,
            addr,
            disp,
            dst,
        } => {
            wire::put_u8(p, 1);
            wire::put_u8(p, enum_index(&MEM_WIDTHS, &width));
            wire::put_u8(p, acc.number());
            put_asrc(p, &addr);
            wire::put_u16(p, disp as u16);
            put_opt_reg(p, &dst);
        }
        IInst::Store {
            width,
            acc,
            addr,
            disp,
            value,
        } => {
            wire::put_u8(p, 2);
            wire::put_u8(p, enum_index(&MEM_WIDTHS, &width));
            wire::put_u8(p, acc.number());
            put_asrc(p, &addr);
            wire::put_u16(p, disp as u16);
            put_asrc(p, &value);
        }
        IInst::AddHigh { acc, src, imm, dst } => {
            wire::put_u8(p, 3);
            wire::put_u8(p, acc.number());
            put_asrc(p, &src);
            wire::put_u16(p, imm as u16);
            put_opt_reg(p, &dst);
        }
        IInst::CmovSelect {
            lbs,
            acc,
            value,
            old,
            dst,
        } => {
            wire::put_u8(p, 4);
            wire::put_u8(p, lbs as u8);
            wire::put_u8(p, acc.number());
            put_asrc(p, &value);
            wire::put_u8(p, old.number());
            put_opt_reg(p, &dst);
        }
        IInst::Dispatch { acc, src } => {
            wire::put_u8(p, 5);
            wire::put_u8(p, acc.number());
            put_asrc(p, &src);
        }
        IInst::CopyToGpr { acc, dst } => {
            wire::put_u8(p, 6);
            wire::put_u8(p, acc.number());
            wire::put_u8(p, dst.number());
        }
        IInst::CopyFromGpr { acc, src } => {
            wire::put_u8(p, 7);
            wire::put_u8(p, acc.number());
            wire::put_u8(p, src.number());
        }
        IInst::CondBranch {
            cond,
            acc,
            src,
            target,
        } => {
            wire::put_u8(p, 8);
            wire::put_u8(p, enum_index(&COND_KINDS, &cond));
            wire::put_u8(p, acc.number());
            put_asrc(p, &src);
            put_itarget(p, &target);
        }
        IInst::Branch { target } => {
            wire::put_u8(p, 9);
            put_itarget(p, &target);
        }
        IInst::IndirectJump { kind, acc, addr } => {
            wire::put_u8(p, 10);
            wire::put_u8(p, kind.code() as u8);
            wire::put_u8(p, acc.number());
            put_asrc(p, &addr);
        }
        IInst::SetVpcBase { vaddr } => {
            wire::put_u8(p, 11);
            wire::put_u64(p, vaddr);
        }
        IInst::LoadEmbeddedTarget { acc, vaddr } => {
            wire::put_u8(p, 12);
            wire::put_u8(p, acc.number());
            wire::put_u64(p, vaddr);
        }
        IInst::SaveVReturn { dst, vaddr } => {
            wire::put_u8(p, 13);
            wire::put_u8(p, dst.number());
            wire::put_u64(p, vaddr);
        }
        IInst::PushDualRas { vret, iret } => {
            wire::put_u8(p, 14);
            wire::put_u64(p, vret);
            put_itarget(p, &iret);
        }
        IInst::CallTranslatorIfCond {
            cond,
            acc,
            src,
            vtarget,
        } => {
            wire::put_u8(p, 15);
            wire::put_u8(p, enum_index(&COND_KINDS, &cond));
            wire::put_u8(p, acc.number());
            put_asrc(p, &src);
            wire::put_u64(p, vtarget);
        }
        IInst::CallTranslator { vtarget } => {
            wire::put_u8(p, 16);
            wire::put_u64(p, vtarget);
        }
        IInst::GenTrap => wire::put_u8(p, 17),
        IInst::PutChar { acc, src } => {
            wire::put_u8(p, 18);
            wire::put_u8(p, acc.number());
            put_asrc(p, &src);
        }
        IInst::Halt => wire::put_u8(p, 19),
    }
}

fn take_iinst(c: &mut Cursor<'_>) -> Result<IInst, SnapshotError> {
    Ok(match c.take_u8()? {
        0 => IInst::Op {
            op: take_indexed(c, &OPERATE_OPS)?,
            acc: take_acc(c)?,
            lhs: take_asrc(c)?,
            rhs: take_asrc(c)?,
            dst: take_opt_reg(c)?,
        },
        1 => IInst::Load {
            width: take_indexed(c, &MEM_WIDTHS)?,
            acc: take_acc(c)?,
            addr: take_asrc(c)?,
            disp: c.take_u16()? as i16,
            dst: take_opt_reg(c)?,
        },
        2 => IInst::Store {
            width: take_indexed(c, &MEM_WIDTHS)?,
            acc: take_acc(c)?,
            addr: take_asrc(c)?,
            disp: c.take_u16()? as i16,
            value: take_asrc(c)?,
        },
        3 => IInst::AddHigh {
            acc: take_acc(c)?,
            src: take_asrc(c)?,
            imm: c.take_u16()? as i16,
            dst: take_opt_reg(c)?,
        },
        4 => IInst::CmovSelect {
            lbs: c.take_u8()? != 0,
            acc: take_acc(c)?,
            value: take_asrc(c)?,
            old: take_reg(c)?,
            dst: take_opt_reg(c)?,
        },
        5 => IInst::Dispatch {
            acc: take_acc(c)?,
            src: take_asrc(c)?,
        },
        6 => IInst::CopyToGpr {
            acc: take_acc(c)?,
            dst: take_reg(c)?,
        },
        7 => IInst::CopyFromGpr {
            acc: take_acc(c)?,
            src: take_reg(c)?,
        },
        8 => IInst::CondBranch {
            cond: take_indexed(c, &COND_KINDS)?,
            acc: take_acc(c)?,
            src: take_asrc(c)?,
            target: take_itarget(c)?,
        },
        9 => IInst::Branch {
            target: take_itarget(c)?,
        },
        10 => IInst::IndirectJump {
            kind: JumpKind::from_code(c.take_u8()? as u32),
            acc: take_acc(c)?,
            addr: take_asrc(c)?,
        },
        11 => IInst::SetVpcBase {
            vaddr: c.take_u64()?,
        },
        12 => IInst::LoadEmbeddedTarget {
            acc: take_acc(c)?,
            vaddr: c.take_u64()?,
        },
        13 => IInst::SaveVReturn {
            dst: take_reg(c)?,
            vaddr: c.take_u64()?,
        },
        14 => IInst::PushDualRas {
            vret: c.take_u64()?,
            iret: take_itarget(c)?,
        },
        15 => IInst::CallTranslatorIfCond {
            cond: take_indexed(c, &COND_KINDS)?,
            acc: take_acc(c)?,
            src: take_asrc(c)?,
            vtarget: c.take_u64()?,
        },
        16 => IInst::CallTranslator {
            vtarget: c.take_u64()?,
        },
        17 => IInst::GenTrap,
        18 => IInst::PutChar {
            acc: take_acc(c)?,
            src: take_asrc(c)?,
        },
        19 => IInst::Halt,
        tag => return Err(bad_tag(tag)),
    })
}

/// Aggregate counters of a [`FragmentStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Lookups that found a reusable artifact.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Artifacts newly stored (duplicates not counted).
    pub stores: u64,
    /// Entries removed by coherence invalidation.
    pub invalidations: u64,
    /// Entries dropped at lookup because their content failed validation
    /// (broken seal, undecodable payload, or embedded-key mismatch).
    pub quarantined: u64,
    /// Entries (or whole containers) rejected while opening a persisted
    /// store — unreadable framing that never made it into the store.
    pub load_rejects: u64,
}

/// Outcome of one keyed [`FragmentStore::lookup`].
#[derive(Clone, PartialEq, Debug)]
pub enum StoreLookup {
    /// A validated artifact was found under the key (boxed — artifacts
    /// are hundreds of bytes and the other arms are small).
    Hit(Box<FragmentArtifact>),
    /// No entry under the key.
    Miss,
    /// An entry existed but failed validation; it has been removed and
    /// tombstoned, and the lookup is served as a miss. The error says
    /// how the artifact was bad.
    Quarantined(SnapshotError),
}

/// What [`FragmentStore::open`] found on disk. The open itself is
/// infallible — every failure mode degrades to fewer (or zero) loaded
/// entries — so the report is how callers observe damage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreLoadReport {
    /// Entries whose framing was readable and that were admitted (their
    /// content is validated lazily at lookup).
    pub loaded: usize,
    /// Entries (or the whole container) whose framing was unreadable and
    /// that were dropped.
    pub rejected: usize,
    /// Whether the whole-store seal verified. When `false`, the loaded
    /// entries came from per-entry salvage and every one of them will be
    /// seal-checked at first lookup.
    pub seal_intact: bool,
    /// The container carried an unknown [`STORE_VERSION`]; the store
    /// opened empty.
    pub version_skew: bool,
    /// No file existed at the path; the store opened empty.
    pub missing: bool,
    /// The container envelope itself was unusable (wrong magic or
    /// truncated below envelope size); the store opened empty.
    pub error: Option<SnapshotError>,
}

/// The keyed entry map plus the tombstone set that keeps removals alive
/// across [`FragmentStore::save`] merges.
#[derive(Debug, Default)]
struct StoreContent {
    entries: IdMap<ArtifactKey, Arc<Vec<u8>>>,
    tombstones: IdSet<ArtifactKey>,
}

/// An `Arc`-shared, thread-safe store of serialized fragment artifacts.
/// VMs share one by each taking a clone of the same `Arc` through
/// [`Vm::attach_store`](crate::Vm::attach_store).
///
/// Entries are kept in wire form (`Arc<Vec<u8>>`): producers pay one
/// serialization, consumers one deserialization, and the checksum
/// envelope travels with the artifact even in-process.
#[derive(Debug, Default)]
pub struct FragmentStore {
    content: Mutex<StoreContent>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    invalidations: AtomicU64,
    quarantined: AtomicU64,
    load_rejects: AtomicU64,
}

impl FragmentStore {
    /// Creates an empty store.
    pub fn new() -> FragmentStore {
        FragmentStore::default()
    }

    fn content(&self) -> std::sync::MutexGuard<'_, StoreContent> {
        // The store sits on every VM's warm-start lookup path: a panic
        // while some thread held the lock must not cascade into every
        // sharing VM. Entries are only mutated under the lock through
        // total operations (insert/remove), so recovered state is
        // consistent; the worst case is a lost in-progress publish.
        match self.content.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.content.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Drops the entry under `key` after failed validation: removed,
    /// tombstoned (so a save merge cannot re-admit it from disk), and
    /// counted.
    fn quarantine(&self, key: &ArtifactKey) {
        let mut content = self.content();
        content.entries.remove(key);
        content.tombstones.insert(*key);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up, decodes, and validates the artifact under `key`. A
    /// stored artifact that fails validation — broken seal, version
    /// skew, undecodable payload, or an embedded key different from the
    /// one it was filed under — is quarantined and reported; callers
    /// treat that as a miss and fall back to the translate/verify path.
    pub fn lookup(&self, key: &ArtifactKey) -> StoreLookup {
        let bytes = { self.content().entries.get(key).cloned() };
        let Some(bytes) = bytes else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return StoreLookup::Miss;
        };
        match FragmentArtifact::from_bytes(&bytes) {
            Ok((embedded, art)) if embedded == *key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                StoreLookup::Hit(Box::new(art))
            }
            Ok((embedded, _)) => {
                self.quarantine(key);
                StoreLookup::Quarantined(SnapshotError::KeyMismatch {
                    index: [key.code_digest, key.config_digest],
                    embedded: [embedded.code_digest, embedded.config_digest],
                })
            }
            Err(e) => {
                self.quarantine(key);
                StoreLookup::Quarantined(e)
            }
        }
    }

    /// [`lookup`](FragmentStore::lookup) collapsed to an option: both a
    /// miss and a quarantine come back as `None`.
    pub fn get(&self, key: &ArtifactKey) -> Option<FragmentArtifact> {
        match self.lookup(key) {
            StoreLookup::Hit(art) => Some(*art),
            StoreLookup::Miss | StoreLookup::Quarantined(_) => None,
        }
    }

    /// Serializes and stores `artifact` under `key`, clearing any
    /// tombstone (a fresh publication supersedes an old removal).
    /// Returns whether the entry is new (an equal key already present is
    /// left in place — the digests make collisions mean "same
    /// translation").
    pub fn put(&self, key: ArtifactKey, artifact: &FragmentArtifact) -> bool {
        let mut content = self.content();
        content.tombstones.remove(&key);
        if content.entries.contains_key(&key) {
            return false;
        }
        content
            .entries
            .insert(key, Arc::new(artifact.to_bytes(key)));
        self.stores.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Coherence invalidation: removes the entry under `key` (SMC or a
    /// ladder demotion proved the fragment bad on some VM) and tombstones
    /// it so a later [`save`](FragmentStore::save) merge cannot
    /// resurrect it from disk. Returns whether an entry was removed.
    pub fn remove(&self, key: &ArtifactKey) -> bool {
        let removed = {
            let mut content = self.content();
            content.tombstones.insert(*key);
            content.entries.remove(key).is_some()
        };
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.content().entries.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter values.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            load_rejects: self.load_rejects.load(Ordering::Relaxed),
        }
    }

    /// Every entry in wire form, sorted by key — the raw material for
    /// fault-injection harnesses and persistence tests.
    pub fn raw_entries(&self) -> Vec<(ArtifactKey, Arc<Vec<u8>>)> {
        let content = self.content();
        let mut out: Vec<(ArtifactKey, Arc<Vec<u8>>)> = content
            .entries
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        out.sort_unstable_by_key(|(k, _)| (k.code_digest, k.config_digest));
        out
    }

    /// Force-validates every resident entry (normally validation is lazy,
    /// per lookup), quarantining the bad ones. Returns
    /// `(valid, quarantined)` counts. Hit/miss counters are not touched.
    pub fn validate_all(&self) -> (usize, usize) {
        let keys: Vec<ArtifactKey> = { self.content().entries.keys().copied().collect() };
        let (mut ok, mut bad) = (0, 0);
        for key in keys {
            let bytes = { self.content().entries.get(&key).cloned() };
            let Some(bytes) = bytes else { continue };
            match FragmentArtifact::from_bytes(&bytes) {
                Ok((embedded, _)) if embedded == key => ok += 1,
                Ok(_) | Err(_) => {
                    self.quarantine(&key);
                    bad += 1;
                }
            }
        }
        (ok, bad)
    }

    fn encode_entries(entries: &IdMap<ArtifactKey, Arc<Vec<u8>>>) -> Vec<u8> {
        let mut keys: Vec<&ArtifactKey> = entries.keys().collect();
        keys.sort_unstable_by_key(|k| (k.code_digest, k.config_digest));
        let mut p = Vec::new();
        wire::put_u32(&mut p, keys.len() as u32);
        for key in keys {
            wire::put_u64(&mut p, key.code_digest);
            wire::put_u64(&mut p, key.config_digest);
            wire::put_bytes(&mut p, &entries[key]);
        }
        wire::seal(STORE_MAGIC, STORE_VERSION, &p)
    }

    /// Serializes the whole store (counters and tombstones excluded —
    /// they are run state, not cache content).
    pub fn to_bytes(&self) -> Vec<u8> {
        FragmentStore::encode_entries(&self.content().entries)
    }

    /// Strictly deserializes a store written by
    /// [`to_bytes`](FragmentStore::to_bytes): every contained artifact is
    /// decoded eagerly and checked against its index key, so *any*
    /// corruption is rejected at load time rather than at first use.
    /// The resilient counterpart is
    /// [`open_bytes`](FragmentStore::open_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<FragmentStore, SnapshotError> {
        let payload = wire::open(STORE_MAGIC, STORE_VERSION, bytes)?;
        let mut c = Cursor::new(payload);
        let n = c.take_u32()? as usize;
        let store = FragmentStore::new();
        {
            let mut content = store.content();
            for _ in 0..n {
                let key = ArtifactKey {
                    code_digest: c.take_u64()?,
                    config_digest: c.take_u64()?,
                };
                let bytes = c.take_bytes()?.to_vec();
                let (embedded, _) = FragmentArtifact::from_bytes(&bytes)?;
                if embedded != key {
                    return Err(SnapshotError::KeyMismatch {
                        index: [key.code_digest, key.config_digest],
                        embedded: [embedded.code_digest, embedded.config_digest],
                    });
                }
                content.entries.insert(key, Arc::new(bytes));
            }
        }
        c.finish()?;
        Ok(store)
    }

    /// Resiliently opens a serialized store: never fails, instead
    /// degrading damage to fewer loaded entries. Only the container
    /// framing is walked here — entry *content* is validated lazily at
    /// [`lookup`](FragmentStore::lookup), where bad artifacts are
    /// quarantined into misses. An unknown container version or an
    /// unusable envelope opens as a clean empty store; a broken
    /// whole-store seal degrades to per-entry salvage.
    pub fn open_bytes(bytes: &[u8]) -> (FragmentStore, StoreLoadReport) {
        let store = FragmentStore::new();
        let mut report = StoreLoadReport::default();
        let (version, payload, seal_ok) = match wire::open_lenient(STORE_MAGIC, bytes) {
            Ok(v) => v,
            Err(e) => {
                report.error = Some(e);
                report.rejected = 1;
                store.load_rejects.fetch_add(1, Ordering::Relaxed);
                return (store, report);
            }
        };
        report.seal_intact = seal_ok;
        if version != STORE_VERSION {
            report.version_skew = true;
            return (store, report);
        }
        let mut c = Cursor::new(payload);
        let declared = match c.take_u32() {
            Ok(n) => n as usize,
            Err(_) => {
                report.rejected = 1;
                store.load_rejects.fetch_add(1, Ordering::Relaxed);
                return (store, report);
            }
        };
        {
            let mut content = store.content();
            for _ in 0..declared {
                let entry = (|| -> Result<(ArtifactKey, Vec<u8>), SnapshotError> {
                    let key = ArtifactKey {
                        code_digest: c.take_u64()?,
                        config_digest: c.take_u64()?,
                    };
                    Ok((key, c.take_bytes()?.to_vec()))
                })();
                match entry {
                    Ok((key, bytes)) => {
                        content.entries.insert(key, Arc::new(bytes));
                        report.loaded += 1;
                    }
                    Err(_) => {
                        // Framing is lost from here on: a corrupted length
                        // field makes the remainder of the container
                        // unreadable. Keep what was already salvaged.
                        report.rejected += 1;
                        break;
                    }
                }
            }
        }
        store
            .load_rejects
            .fetch_add(report.rejected as u64, Ordering::Relaxed);
        (store, report)
    }

    /// Resiliently opens the store at `path` (see
    /// [`open_bytes`](FragmentStore::open_bytes)); a missing file opens
    /// as a clean empty store with [`StoreLoadReport::missing`] set.
    /// Takes the shared side of the store's advisory lock while reading.
    pub fn open(path: &Path) -> (FragmentStore, StoreLoadReport) {
        // Lock failure is not fatal: the atomic rename in `save` already
        // guarantees a reader sees a complete old or new file.
        let _lock = StoreLock::shared(path);
        match fs::read(path) {
            Ok(bytes) => FragmentStore::open_bytes(&bytes),
            Err(_) => (
                FragmentStore::new(),
                StoreLoadReport {
                    missing: true,
                    ..StoreLoadReport::default()
                },
            ),
        }
    }

    /// Persists the store to `path`, crash-safely and cooperatively:
    ///
    /// 1. takes the exclusive side of the sibling `.lock` advisory lock;
    /// 2. re-reads the file and merges it under the lock — this store's
    ///    entries win per key (last writer wins), disk-only entries are
    ///    kept unless tombstoned here — so concurrent writers union
    ///    rather than clobber;
    /// 3. writes a sibling temp file, fsyncs it, renames it over `path`,
    ///    and best-effort fsyncs the parent directory, so a writer
    ///    crashing at any instant leaves either the old or the new store
    ///    visible, never a torn hybrid.
    ///
    /// Returns the number of entries in the written file. The in-memory
    /// store is not modified.
    pub fn save(&self, path: &Path) -> io::Result<usize> {
        let _lock = StoreLock::exclusive(path)?;
        let disk = match fs::read(path) {
            Ok(bytes) => Some(FragmentStore::open_bytes(&bytes).0),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let (bytes, written) = {
            let content = self.content();
            let mut merged = content.entries.clone();
            if let Some(disk) = disk {
                let disk_content = disk.content();
                for (key, entry) in disk_content.entries.iter() {
                    if !content.tombstones.contains(key) {
                        merged.entry(*key).or_insert_with(|| Arc::clone(entry));
                    }
                }
            }
            (FragmentStore::encode_entries(&merged), merged.len())
        };
        let tmp = sibling_path(path, &format!(".tmp.{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                // Directory fsync is best-effort: not all filesystems
                // support opening a directory for sync.
                let _ = File::open(parent).and_then(|d| d.sync_all());
            }
        }
        Ok(written)
    }

    /// Strictly loads a store persisted by [`save`](FragmentStore::save):
    /// any corruption — including a partially-written or empty file — is
    /// a clean [`InvalidData`](io::ErrorKind::InvalidData) error, never a
    /// panic. The resilient counterpart is
    /// [`open`](FragmentStore::open).
    pub fn load(path: &Path) -> io::Result<FragmentStore> {
        let _lock = StoreLock::shared(path);
        let bytes = fs::read(path)?;
        FragmentStore::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// `path`'s file name with `suffix` appended, in the same directory (so
/// the `save` rename never crosses a filesystem boundary).
fn sibling_path(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("store"));
    name.push(suffix);
    path.with_file_name(name)
}

/// A held advisory lock on a store's sibling `<name>.lock` file.
/// Dropping the guard closes the file, which releases the lock.
#[derive(Debug)]
struct StoreLock {
    _file: File,
}

impl StoreLock {
    fn open(path: &Path) -> io::Result<File> {
        fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(sibling_path(path, ".lock"))
    }

    /// Exclusive (writer) side, blocking until granted.
    fn exclusive(path: &Path) -> io::Result<StoreLock> {
        let file = StoreLock::open(path)?;
        file.lock()?;
        Ok(StoreLock { _file: file })
    }

    /// Shared (reader) side, blocking until granted.
    fn shared(path: &Path) -> io::Result<StoreLock> {
        let file = StoreLock::open(path)?;
        file.lock_shared()?;
        Ok(StoreLock { _file: file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{collect_superblock, ProfileConfig};
    use alpha_isa::{Assembler, Reg as AReg};

    fn sample_artifact() -> FragmentArtifact {
        let a = Acc::new(1);
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1_0000 },
            IInst::Op {
                op: OperateOp::Subq,
                acc: a,
                lhs: ASrc::Gpr(AReg::A0),
                rhs: ASrc::Imm(-1),
                dst: Some(AReg::A0),
            },
            IInst::Load {
                width: MemWidth::U64,
                acc: Acc::new(0),
                addr: ASrc::Acc,
                disp: 8,
                dst: None,
            },
            IInst::Store {
                width: MemWidth::I32,
                acc: Acc::new(0),
                addr: ASrc::Acc,
                disp: 0,
                value: ASrc::Gpr(AReg::V0),
            },
            IInst::AddHigh {
                acc: a,
                src: ASrc::Gpr(AReg::GP),
                imm: -3,
                dst: None,
            },
            IInst::CmovSelect {
                lbs: true,
                acc: a,
                value: ASrc::Imm(7),
                old: AReg::V0,
                dst: Some(AReg::V0),
            },
            IInst::Dispatch {
                acc: a,
                src: ASrc::Acc,
            },
            IInst::CopyToGpr {
                acc: a,
                dst: AReg::new(1),
            },
            IInst::CopyFromGpr {
                acc: a,
                src: AReg::new(1),
            },
            IInst::CondBranch {
                cond: CondKind::Ne,
                acc: a,
                src: ASrc::Acc,
                target: ITarget::Local(1),
            },
            IInst::Branch {
                target: ITarget::Addr(0xbeef),
            },
            IInst::IndirectJump {
                kind: JumpKind::Ret,
                acc: a,
                addr: ASrc::Acc,
            },
            IInst::LoadEmbeddedTarget {
                acc: a,
                vaddr: 0x2_0000,
            },
            IInst::SaveVReturn {
                dst: AReg::RA,
                vaddr: 0x1_0008,
            },
            IInst::PushDualRas {
                vret: 0x1_000c,
                iret: ITarget::Local(3),
            },
            IInst::CallTranslatorIfCond {
                cond: CondKind::Lbs,
                acc: a,
                src: ASrc::Acc,
                vtarget: 0x1_0040,
            },
            IInst::CallTranslator { vtarget: 0x1_0080 },
            IInst::GenTrap,
            IInst::PutChar {
                acc: a,
                src: ASrc::Imm(65),
            },
            IInst::Halt,
        ];
        let meta: Vec<IMeta> = insts
            .iter()
            .enumerate()
            .map(|(i, _)| IMeta {
                vaddr: 0x1_0000 + 4 * i as u64,
                vcount: i as u16,
                category: UsageCat::ALL.get(i % 9).copied(),
                is_chain: i % 3 == 0,
            })
            .collect();
        let mut recovery = IdMap::default();
        recovery.insert(
            2,
            vec![RecoveryEntry {
                reg: AReg::A0,
                acc: Acc::new(1),
            }],
        );
        let mut categories = CategoryCounts::default();
        categories.0[2] = 5;
        FragmentArtifact {
            vstart: 0x1_0000,
            form: IsaForm::Modified,
            src_inst_count: 12,
            insts,
            meta,
            recovery,
            copies: 3,
            strands: 4,
            terminations: 1,
            categories,
            oracle_categories: CategoryCounts::default(),
        }
    }

    fn sample_key() -> ArtifactKey {
        ArtifactKey {
            code_digest: 0xfeed_beef,
            config_digest: 0xdead_cafe,
        }
    }

    #[test]
    fn artifact_roundtrip_covers_every_instruction() {
        let art = sample_artifact();
        let (key, back) = FragmentArtifact::from_bytes(&art.to_bytes(sample_key())).unwrap();
        assert_eq!(back, art);
        assert_eq!(key, sample_key());
    }

    #[test]
    fn artifact_corruption_is_detected() {
        let mut bytes = sample_artifact().to_bytes(sample_key());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert!(FragmentArtifact::from_bytes(&bytes).is_err());
    }

    #[test]
    fn artifact_trailing_bytes_are_refused() {
        let bytes = sample_artifact().to_bytes(sample_key());
        let payload = wire::open(ARTIFACT_MAGIC, ARTIFACT_VERSION, &bytes).unwrap();
        let mut longer = payload.to_vec();
        longer.push(0);
        let resealed = wire::seal(ARTIFACT_MAGIC, ARTIFACT_VERSION, &longer);
        assert_eq!(
            FragmentArtifact::from_bytes(&resealed),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn store_trailing_bytes_are_refused() {
        let store = FragmentStore::new();
        store.put(sample_key(), &sample_artifact());
        let bytes = store.to_bytes();
        let payload = wire::open(STORE_MAGIC, STORE_VERSION, &bytes).unwrap();
        let mut longer = payload.to_vec();
        longer.push(0);
        let resealed = wire::seal(STORE_MAGIC, STORE_VERSION, &longer);
        assert!(matches!(
            FragmentStore::from_bytes(&resealed),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn store_counts_hits_misses_and_coherence() {
        let art = sample_artifact();
        let key = ArtifactKey {
            code_digest: 1,
            config_digest: 2,
        };
        let store = FragmentStore::new();
        assert!(store.get(&key).is_none());
        assert!(store.put(key, &art));
        assert!(!store.put(key, &art), "duplicate put is not a new store");
        assert_eq!(store.get(&key).unwrap(), art);
        assert!(store.remove(&key));
        assert!(!store.remove(&key));
        assert!(store.get(&key).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.invalidations), (1, 2, 1, 1));
    }

    #[test]
    fn store_wire_roundtrip() {
        let art = sample_artifact();
        let store = FragmentStore::new();
        store.put(
            ArtifactKey {
                code_digest: 10,
                config_digest: 20,
            },
            &art,
        );
        let back = FragmentStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(
            back.get(&ArtifactKey {
                code_digest: 10,
                config_digest: 20,
            })
            .unwrap(),
            art
        );
    }

    /// Two distinct keys for the swap/quarantine tests.
    fn two_keys() -> (ArtifactKey, ArtifactKey) {
        (
            ArtifactKey {
                code_digest: 10,
                config_digest: 20,
            },
            ArtifactKey {
                code_digest: 30,
                config_digest: 40,
            },
        )
    }

    #[test]
    fn embedded_key_defeats_payload_swap() {
        let art = sample_artifact();
        let (ka, kb) = two_keys();
        let store = FragmentStore::new();
        store.put(ka, &art);
        store.put(kb, &art);
        // Re-frame the container with the two payloads swapped — each
        // payload is internally consistent and the container seal is
        // regenerated, so only the embedded keys can catch it.
        let entries = store.raw_entries();
        let mut p = Vec::new();
        wire::put_u32(&mut p, 2);
        for (i, (key, _)) in entries.iter().enumerate() {
            wire::put_u64(&mut p, key.code_digest);
            wire::put_u64(&mut p, key.config_digest);
            wire::put_bytes(&mut p, &entries[1 - i].1);
        }
        let swapped = wire::seal(STORE_MAGIC, STORE_VERSION, &p);
        assert!(matches!(
            FragmentStore::from_bytes(&swapped),
            Err(SnapshotError::KeyMismatch { .. })
        ));
        let (opened, report) = FragmentStore::open_bytes(&swapped);
        assert_eq!((report.loaded, report.rejected), (2, 0));
        assert!(report.seal_intact);
        assert!(matches!(
            opened.lookup(&ka),
            StoreLookup::Quarantined(SnapshotError::KeyMismatch { .. })
        ));
        assert!(matches!(
            opened.lookup(&kb),
            StoreLookup::Quarantined(SnapshotError::KeyMismatch { .. })
        ));
        assert!(opened.is_empty(), "quarantined entries are dropped");
        let s = opened.stats();
        assert_eq!((s.quarantined, s.hits), (2, 0));
    }

    #[test]
    fn broken_container_seal_degrades_to_per_entry_salvage() {
        let art = sample_artifact();
        let (ka, kb) = two_keys();
        let store = FragmentStore::new();
        store.put(ka, &art);
        store.put(kb, &art);
        let mut bytes = store.to_bytes();
        // Flip one bit inside entry A's sealed payload: the container
        // seal and entry A's seal both break; entry B must survive.
        let a_bytes = store.raw_entries()[0].1.clone();
        let pos = bytes
            .windows(a_bytes.len())
            .position(|w| w == a_bytes.as_slice())
            .expect("entry bytes present in container");
        bytes[pos + a_bytes.len() / 2] ^= 0x10;
        let (opened, report) = FragmentStore::open_bytes(&bytes);
        assert!(!report.seal_intact);
        assert_eq!((report.loaded, report.rejected), (2, 0));
        assert!(matches!(opened.lookup(&ka), StoreLookup::Quarantined(_)));
        assert_eq!(opened.lookup(&kb), StoreLookup::Hit(Box::new(art)));
        let s = opened.stats();
        assert_eq!((s.hits, s.quarantined), (1, 1));
    }

    #[test]
    fn unknown_store_version_opens_empty() {
        let bytes = wire::seal(STORE_MAGIC, STORE_VERSION + 7, &[0, 0, 0, 0]);
        assert!(matches!(
            FragmentStore::from_bytes(&bytes),
            Err(SnapshotError::BadVersion { .. })
        ));
        let (opened, report) = FragmentStore::open_bytes(&bytes);
        assert!(opened.is_empty());
        assert!(report.version_skew);
        assert_eq!(report.error, None);
    }

    #[test]
    fn unusable_container_opens_empty_with_error() {
        let (opened, report) = FragmentStore::open_bytes(b"not a store");
        assert!(opened.is_empty());
        assert!(matches!(report.error, Some(SnapshotError::Truncated)));
        assert_eq!(opened.stats().load_rejects, 1);
    }

    #[test]
    fn validate_all_quarantines_without_touching_hit_counters() {
        let art = sample_artifact();
        let (ka, kb) = two_keys();
        let store = FragmentStore::new();
        store.put(ka, &art);
        store.put(kb, &art);
        // Corrupt entry A in place.
        {
            let mut content = store.content();
            let bad = Arc::new(vec![0xffu8; 4]);
            content.entries.insert(ka, bad);
        }
        assert_eq!(store.validate_all(), (1, 1));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.quarantined), (0, 0, 1));
        assert_eq!(store.len(), 1);
        // The quarantined key is tombstoned: a save merge must not
        // resurrect it, but a fresh put clears the tombstone.
        assert!(store.content().tombstones.contains(&ka));
        store.put(ka, &art);
        assert!(!store.content().tombstones.contains(&ka));
    }

    #[test]
    fn keys_separate_configs_and_paths() {
        let mut asm = Assembler::new(0x1_0000);
        asm.lda_imm(AReg::A0, 9);
        let top_pc = asm.current_pc();
        let top = asm.here("top");
        asm.subq_imm(AReg::A0, 1, AReg::A0);
        asm.bne(AReg::A0, top);
        asm.halt();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        cpu.pc = top_pc;
        cpu.write(AReg::A0, 9);
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &ProfileConfig::default())
            .expect("collection");
        let t1 = Translator::default();
        let t2 = Translator {
            form: IsaForm::Basic,
            ..t1
        };
        let k1 = artifact_key(&program, &sb, &t1);
        let k2 = artifact_key(&program, &sb, &t2);
        assert_eq!(k1.code_digest, k2.code_digest);
        assert_ne!(k1.config_digest, k2.config_digest);
        // The digest is a function of the collected path, so re-collecting
        // the same path reproduces it.
        let (mut cpu2, mut mem2) = program.load();
        cpu2.pc = top_pc;
        cpu2.write(AReg::A0, 9);
        let sb2 = collect_superblock(&mut cpu2, &mut mem2, &program, &ProfileConfig::default())
            .expect("collection");
        assert_eq!(artifact_key(&program, &sb2, &t1), k1);
    }
}
