//! The code-straightening-only DBT (paper §4.1, third simulator).
//!
//! Converts an Alpha binary to a *code-straightened version of Alpha* and
//! runs it on the conventional superscalar model. This isolates the
//! effects of code straightening and fragment chaining from the
//! accumulator-ISA effects: same superblock formation, same chaining
//! policies (`no_pred`, `sw_pred.no_ras`, `sw_pred.ras`), but the
//! instructions stay Alpha — memory operations keep their displacement
//! addressing and there are no accumulators or state copies.
//!
//! Figures 4 (mispredictions per 1,000 instructions), 5 (relative
//! instruction count) and 6 (straightening/RAS IPC) are measured on this
//! system.

use crate::fragment::{emit_dispatch, DISPATCH_COST_INSTS, DISPATCH_IADDR};
use crate::profile::{interp_step, Candidates, InterpEvent, ProfileConfig};
use crate::superblock::{CollectedFlow, SbEnd, Superblock};
use crate::translate::ChainPolicy;
use crate::vm::VmExit;
use alpha_isa::{
    step, AlignPolicy, BranchOp, Control, CpuState, IdMap, Inst, JumpKind, Memory, Program, Reg,
};
use ildp_uarch::{DynInst, InstClass};

/// Scratch register names used by the chaining code in trace records
/// (outside the architected 0..32 space).
const SCRATCH_EMBED: u8 = 100;
const SCRATCH_CMP: u8 = 101;

/// One slot of a straightened fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SInst {
    /// An ordinary (non-control) Alpha instruction, executed natively.
    Alpha(Inst),
    /// Conditional fragment exit; patched to a direct branch when the
    /// target is translated (`resolved`).
    ExitIf {
        op: BranchOp,
        ra: Reg,
        vtarget: u64,
        resolved: Option<u64>,
    },
    /// Unconditional fragment exit (patchable).
    Exit {
        vtarget: u64,
        resolved: Option<u64>,
    },
    /// Writes the V-ISA return address (replaces a linking `BR`/`BSR`).
    SaveVReturn {
        dst: Reg,
        vaddr: u64,
    },
    /// Pushes a (V, I) pair onto the dual-address RAS.
    PushDualRas {
        vret: u64,
        iret: Option<u64>,
    },
    /// Dual-RAS-checked return through `rb`; falls through on mismatch.
    Return {
        rb: Reg,
    },
    /// Software jump prediction (paper: 3 instructions).
    LoadEmbedded {
        vaddr: u64,
    },
    CmpEmbedded {
        rb: Reg,
    },
    BranchIfMatch {
        vtarget: u64,
        resolved: Option<u64>,
    },
    /// Transfer to the shared dispatch code, target register `rb`.
    Dispatch {
        rb: Reg,
    },
}

#[derive(Clone, Copy, Debug)]
struct SMeta {
    vcount: u16,
    is_chain: bool,
}

#[derive(Clone, Debug)]
struct SFragment {
    #[allow(dead_code)] // kept for debugging dumps
    vstart: u64,
    istart: u64,
    insts: Vec<SInst>,
    meta: Vec<SMeta>,
    entries: u64,
}

/// Statistics of a straightened-code run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StraightenStats {
    /// Instructions interpreted (cold code).
    pub interpreted: u64,
    /// Instructions executed in straightened fragments (incl. chaining).
    pub executed: u64,
    /// Chaining-overhead instructions executed.
    pub chain_executed: u64,
    /// V-ISA instructions retired by straightened code.
    pub v_insts: u64,
    /// Fragments formed.
    pub fragments: u64,
    /// Dual-RAS architectural hits/misses.
    pub ras_hits: u64,
    /// Dual-RAS architectural misses.
    pub ras_misses: u64,
    /// Dispatch executions.
    pub dispatches: u64,
}

impl StraightenStats {
    /// Executed instructions per retired V-ISA instruction — the paper's
    /// Figure 5 metric.
    pub fn relative_instruction_count(&self) -> f64 {
        if self.v_insts == 0 {
            0.0
        } else {
            self.executed as f64 / self.v_insts as f64
        }
    }
}

/// The code-straightening-only virtual machine.
///
/// # Examples
///
/// ```
/// use alpha_isa::{Assembler, Reg};
/// use ildp_core::{ChainPolicy, NullSink, ProfileConfig, StraightenedVm, VmExit};
///
/// let mut asm = Assembler::new(0x1_0000);
/// asm.lda_imm(Reg::A0, 500);
/// let top = asm.here("top");
/// asm.subq_imm(Reg::A0, 1, Reg::A0);
/// asm.bne(Reg::A0, top);
/// asm.halt();
/// let program = asm.finish()?;
///
/// let mut vm = StraightenedVm::new(
///     ChainPolicy::SwPredDualRas,
///     ProfileConfig::default(),
///     &program,
/// );
/// let exit = vm.run(100_000, &mut NullSink);
/// assert_eq!(exit, VmExit::Halted);
/// assert!(vm.stats().fragments > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StraightenedVm<'p> {
    chain: ChainPolicy,
    profile: ProfileConfig,
    program: &'p Program,
    /// Predecoded code segment driving the interpreter's fetches.
    decoded: alpha_isa::DecodeCache,
    cpu: CpuState,
    mem: Memory,
    candidates: Candidates,
    fragments: Vec<SFragment>,
    by_vstart: IdMap<u64, usize>,
    by_istart: IdMap<u64, usize>,
    pending: IdMap<u64, Vec<(usize, usize)>>,
    next_iaddr: u64,
    ras: Vec<(u64, u64)>,
    ras_top: usize,
    ras_live: usize,
    /// Runtime state of the software-prediction compare (scratch regs).
    embed: u64,
    cmp: u64,
    /// Console bytes in emission order.
    pub output: Vec<u8>,
    stats: StraightenStats,
}

impl<'p> StraightenedVm<'p> {
    /// Creates the VM with the program loaded.
    pub fn new(
        chain: ChainPolicy,
        profile: ProfileConfig,
        program: &'p Program,
    ) -> StraightenedVm<'p> {
        let (cpu, mem) = program.load();
        StraightenedVm {
            chain,
            profile,
            decoded: alpha_isa::DecodeCache::new(program),
            program,
            cpu,
            mem,
            candidates: Candidates::new(),
            fragments: Vec::new(),
            by_vstart: IdMap::default(),
            by_istart: IdMap::default(),
            pending: IdMap::default(),
            next_iaddr: crate::fragment::CODE_CACHE_BASE,
            ras: vec![(0, 0); 8],
            ras_top: 0,
            ras_live: 0,
            embed: 0,
            cmp: 0,
            output: Vec::new(),
            stats: StraightenStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &StraightenStats {
        &self.stats
    }

    /// The architected CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    fn ras_push(&mut self, v: u64, i: u64) {
        self.ras_top = (self.ras_top + 1) % self.ras.len();
        self.ras[self.ras_top] = (v, i);
        self.ras_live = (self.ras_live + 1).min(self.ras.len());
    }

    fn ras_pop(&mut self) -> Option<(u64, u64)> {
        if self.ras_live == 0 {
            return None;
        }
        let pair = self.ras[self.ras_top];
        self.ras_top = (self.ras_top + self.ras.len() - 1) % self.ras.len();
        self.ras_live -= 1;
        Some(pair)
    }

    // ---- translation ----

    fn straighten(&self, sb: &Superblock) -> (Vec<SInst>, Vec<SMeta>) {
        let mut insts = Vec::with_capacity(sb.insts.len() + 8);
        let mut meta: Vec<SMeta> = Vec::new();
        let mut credited = 0u32;
        let push = |insts: &mut Vec<SInst>, meta: &mut Vec<SMeta>, i: SInst, m: SMeta| {
            insts.push(i);
            meta.push(m);
        };
        for (k, si) in sb.insts.iter().enumerate() {
            let credit = |credited: &mut u32| -> u16 {
                let through = k as u32 + 1;
                let c = through.saturating_sub(*credited);
                *credited = through;
                c as u16
            };
            let is_last = k == sb.insts.len() - 1;
            match si.flow {
                CollectedFlow::Sequential => {
                    let c = credit(&mut credited);
                    push(
                        &mut insts,
                        &mut meta,
                        SInst::Alpha(si.inst),
                        SMeta {
                            vcount: c,
                            is_chain: false,
                        },
                    );
                }
                CollectedFlow::Direct { links, .. } => {
                    if links {
                        let Inst::Branch { ra, .. } = si.inst else {
                            unreachable!("linking direct flow from a branch")
                        };
                        let c = credit(&mut credited);
                        push(
                            &mut insts,
                            &mut meta,
                            SInst::SaveVReturn {
                                dst: ra,
                                vaddr: si.vaddr + 4,
                            },
                            SMeta {
                                vcount: c,
                                is_chain: false,
                            },
                        );
                        if self.chain.uses_dual_ras() {
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::PushDualRas {
                                    vret: si.vaddr + 4,
                                    iret: None,
                                },
                                SMeta {
                                    vcount: 0,
                                    is_chain: true,
                                },
                            );
                        }
                    }
                    // Non-linking direct branches are removed outright.
                }
                CollectedFlow::CondNotTaken { taken_target } => {
                    let Inst::Branch { op, ra, .. } = si.inst else {
                        unreachable!("conditional flow from a branch")
                    };
                    let c = credit(&mut credited);
                    push(
                        &mut insts,
                        &mut meta,
                        SInst::ExitIf {
                            op,
                            ra,
                            vtarget: taken_target,
                            resolved: None,
                        },
                        SMeta {
                            vcount: c,
                            is_chain: false,
                        },
                    );
                }
                CollectedFlow::CondTaken {
                    taken_target,
                    fallthrough,
                } => {
                    let Inst::Branch { op, ra, .. } = si.inst else {
                        unreachable!("conditional flow from a branch")
                    };
                    let c = credit(&mut credited);
                    if is_last && matches!(sb.end, SbEnd::BackwardTakenBranch { .. }) {
                        push(
                            &mut insts,
                            &mut meta,
                            SInst::ExitIf {
                                op,
                                ra,
                                vtarget: taken_target,
                                resolved: None,
                            },
                            SMeta {
                                vcount: c,
                                is_chain: false,
                            },
                        );
                        push(
                            &mut insts,
                            &mut meta,
                            SInst::Exit {
                                vtarget: fallthrough,
                                resolved: None,
                            },
                            SMeta {
                                vcount: 0,
                                is_chain: true,
                            },
                        );
                    } else {
                        push(
                            &mut insts,
                            &mut meta,
                            SInst::ExitIf {
                                op: op.inverse(),
                                ra,
                                vtarget: fallthrough,
                                resolved: None,
                            },
                            SMeta {
                                vcount: c,
                                is_chain: false,
                            },
                        );
                    }
                }
                CollectedFlow::Indirect { kind, target } => {
                    let Inst::Jump { ra, rb, .. } = si.inst else {
                        unreachable!("indirect flow from a jump")
                    };
                    assert!(
                        ra.is_zero() || ra != rb,
                        "straightened chaining does not support a linking \
                         jump through its own link register"
                    );
                    if !ra.is_zero() {
                        push(
                            &mut insts,
                            &mut meta,
                            SInst::SaveVReturn {
                                dst: ra,
                                vaddr: si.vaddr + 4,
                            },
                            SMeta {
                                vcount: 0,
                                is_chain: false,
                            },
                        );
                        if self.chain.uses_dual_ras() {
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::PushDualRas {
                                    vret: si.vaddr + 4,
                                    iret: None,
                                },
                                SMeta {
                                    vcount: 0,
                                    is_chain: true,
                                },
                            );
                        }
                    }
                    let c = credit(&mut credited);
                    match (kind, self.chain) {
                        (JumpKind::Ret, ChainPolicy::SwPredDualRas) => {
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::Return { rb },
                                SMeta {
                                    vcount: c,
                                    is_chain: false,
                                },
                            );
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::Dispatch { rb },
                                SMeta {
                                    vcount: 0,
                                    is_chain: true,
                                },
                            );
                        }
                        (_, ChainPolicy::NoPred) => {
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::Dispatch { rb },
                                SMeta {
                                    vcount: c,
                                    is_chain: false,
                                },
                            );
                        }
                        _ => {
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::LoadEmbedded { vaddr: target },
                                SMeta {
                                    vcount: c,
                                    is_chain: true,
                                },
                            );
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::CmpEmbedded { rb },
                                SMeta {
                                    vcount: 0,
                                    is_chain: true,
                                },
                            );
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::BranchIfMatch {
                                    vtarget: target,
                                    resolved: None,
                                },
                                SMeta {
                                    vcount: 0,
                                    is_chain: true,
                                },
                            );
                            push(
                                &mut insts,
                                &mut meta,
                                SInst::Dispatch { rb },
                                SMeta {
                                    vcount: 0,
                                    is_chain: true,
                                },
                            );
                        }
                    }
                }
            }
        }
        match sb.end {
            SbEnd::Cycle { next } | SbEnd::MaxSize { next } => {
                insts.push(SInst::Exit {
                    vtarget: next,
                    resolved: None,
                });
                meta.push(SMeta {
                    vcount: 0,
                    is_chain: true,
                });
            }
            _ => {}
        }
        (insts, meta)
    }

    fn install(&mut self, sb: &Superblock) {
        let (insts, meta) = self.straighten(sb);
        let idx = self.fragments.len();
        let istart = self.next_iaddr;
        self.next_iaddr += (insts.len() as u64) * 4 + 16;
        self.fragments.push(SFragment {
            vstart: sb.start,
            istart,
            insts,
            meta,
            entries: 0,
        });
        self.by_vstart.insert(sb.start, idx);
        self.by_istart.insert(istart, idx);
        self.stats.fragments += 1;
        // Resolve this fragment's exits, then patch earlier fragments.
        for i in 0..self.fragments[idx].insts.len() {
            let vt = match self.fragments[idx].insts[i] {
                SInst::ExitIf {
                    vtarget,
                    resolved: None,
                    ..
                }
                | SInst::Exit {
                    vtarget,
                    resolved: None,
                }
                | SInst::BranchIfMatch {
                    vtarget,
                    resolved: None,
                } => Some(vtarget),
                SInst::PushDualRas { vret, iret: None } => Some(vret),
                _ => None,
            };
            if let Some(vt) = vt {
                match self.by_vstart.get(&vt).copied() {
                    Some(t) => {
                        let ti = self.fragments[t].istart;
                        patch_slot(&mut self.fragments[idx].insts[i], ti);
                    }
                    None => self.pending.entry(vt).or_default().push((idx, i)),
                }
            }
        }
        if let Some(sites) = self.pending.remove(&sb.start) {
            for (f, i) in sites {
                patch_slot(&mut self.fragments[f].insts[i], istart);
            }
        }
    }

    // ---- execution ----

    fn run_dispatch<S: crate::engine::TraceSink>(
        &mut self,
        vtarget: u64,
        sink: &mut S,
    ) -> Option<usize> {
        self.stats.dispatches += 1;
        let target = self.by_vstart.get(&vtarget).copied();
        let ti = target.map(|t| self.fragments[t].istart);
        self.stats.executed += DISPATCH_COST_INSTS as u64;
        self.stats.chain_executed += DISPATCH_COST_INSTS as u64;
        emit_dispatch(vtarget, ti, sink);
        target
    }

    /// Executes straightened fragments from `entry` until an exit.
    fn execute<S: crate::engine::TraceSink>(
        &mut self,
        entry: usize,
        sink: &mut S,
        budget: u64,
    ) -> ExecExit {
        let mut fi = entry;
        let mut idx = 0usize;
        self.fragments[fi].entries += 1;
        loop {
            if self.stats.v_insts + self.stats.interpreted >= budget {
                return ExecExit::Budget;
            }
            debug_assert!(idx < self.fragments[fi].insts.len());
            let inst = self.fragments[fi].insts[idx];
            let m = self.fragments[fi].meta[idx];
            let pc = self.fragments[fi].istart + (idx as u64) * 4;
            let next_pc = pc + 4;
            self.stats.executed += 1;
            self.stats.v_insts += m.vcount as u64;
            if m.is_chain {
                self.stats.chain_executed += 1;
            }

            let mut d = DynInst::alu(pc, 4);
            d.next_pc = next_pc;
            d.vcount = m.vcount;

            let mut goto: Option<u64> = None;
            let mut exit: Option<ExecExit> = None;

            match inst {
                SInst::Alpha(a) => {
                    // Non-control Alpha instruction: native semantics.
                    let saved_pc = self.cpu.pc;
                    self.cpu.pc = 0x100; // PC-independent by construction
                    match step(&mut self.cpu, &mut self.mem, a, AlignPolicy::Enforce) {
                        Ok(out) => {
                            if let Some(b) = out.output {
                                self.output.push(b);
                            }
                            d.class = match a {
                                Inst::Operate { op, .. } if op.is_multiply() => InstClass::IntMul,
                                Inst::Mem { op, .. } if op.is_load() => InstClass::Load,
                                Inst::Mem { op, .. } if op.is_store() => InstClass::Store,
                                _ => InstClass::IntAlu,
                            };
                            let mut srcs = [None; 3];
                            for (k, r) in a.sources().iter().enumerate() {
                                srcs[k] = Some(r.number());
                            }
                            d.srcs = srcs;
                            d.dst = a.dest().map(|r| r.number());
                            d.mem_addr = out.mem.map(|ma| ma.addr);
                            if out.control == Control::Halt {
                                exit = Some(ExecExit::Halted);
                            }
                        }
                        Err(trap) => {
                            self.cpu.pc = saved_pc;
                            exit = Some(ExecExit::Trapped {
                                vaddr: 0, // straightened system: address via side table
                                trap,
                            });
                        }
                    }
                    self.cpu.pc = saved_pc;
                }
                SInst::ExitIf {
                    op,
                    ra,
                    vtarget,
                    resolved,
                } => {
                    d.class = InstClass::CondBranch;
                    d.srcs[0] = Some(ra.number());
                    let taken = op.taken(self.cpu.read(ra));
                    d.taken = taken;
                    if taken {
                        match resolved {
                            Some(ti) => {
                                d.next_pc = ti;
                                goto = Some(ti);
                            }
                            None => {
                                d.next_pc = DISPATCH_IADDR;
                                exit = Some(ExecExit::NotTranslated { vtarget });
                            }
                        }
                    }
                }
                SInst::Exit { vtarget, resolved } => {
                    d.class = InstClass::Branch;
                    d.taken = true;
                    match resolved {
                        Some(ti) => {
                            d.next_pc = ti;
                            goto = Some(ti);
                        }
                        None => {
                            d.next_pc = DISPATCH_IADDR;
                            exit = Some(ExecExit::NotTranslated { vtarget });
                        }
                    }
                }
                SInst::SaveVReturn { dst, vaddr } => {
                    self.cpu.write(dst, vaddr);
                    d.dst = Some(dst.number());
                }
                SInst::PushDualRas { vret, iret } => {
                    d.class = InstClass::DualRasPush;
                    let i = iret.unwrap_or(DISPATCH_IADDR);
                    d.ras_pair = Some((vret, i));
                    self.ras_push(vret, i);
                }
                SInst::Return { rb } => {
                    d.class = InstClass::Return;
                    d.srcs[0] = Some(rb.number());
                    let actual = self.cpu.read(rb) & !3;
                    d.v_target = actual;
                    match self.ras_pop() {
                        Some((v, i)) if v == actual => {
                            self.stats.ras_hits += 1;
                            d.taken = true;
                            d.next_pc = i;
                            if i == DISPATCH_IADDR {
                                sink.retire(&d);
                                match self.run_dispatch(actual, sink) {
                                    Some(t) => {
                                        fi = t;
                                        idx = 0;
                                        self.fragments[fi].entries += 1;
                                        continue;
                                    }
                                    None => return ExecExit::NotTranslated { vtarget: actual },
                                }
                            }
                            goto = Some(i);
                        }
                        _ => {
                            self.stats.ras_misses += 1;
                            d.taken = false;
                        }
                    }
                }
                SInst::LoadEmbedded { vaddr } => {
                    self.embed = vaddr;
                    d.dst = Some(SCRATCH_EMBED);
                }
                SInst::CmpEmbedded { rb } => {
                    self.cmp = (self.embed == (self.cpu.read(rb) & !3)) as u64;
                    d.srcs = [Some(SCRATCH_EMBED), Some(rb.number()), None];
                    d.dst = Some(SCRATCH_CMP);
                }
                SInst::BranchIfMatch { vtarget, resolved } => {
                    d.class = InstClass::CondBranch;
                    d.srcs[0] = Some(SCRATCH_CMP);
                    let taken = self.cmp != 0;
                    d.taken = taken;
                    if taken {
                        match resolved {
                            Some(ti) => {
                                d.next_pc = ti;
                                goto = Some(ti);
                            }
                            None => {
                                d.next_pc = DISPATCH_IADDR;
                                exit = Some(ExecExit::NotTranslated { vtarget });
                            }
                        }
                    }
                }
                SInst::Dispatch { rb } => {
                    d.class = InstClass::Branch;
                    d.taken = true;
                    d.next_pc = DISPATCH_IADDR;
                    d.srcs[0] = Some(rb.number());
                    let v = self.cpu.read(rb) & !3;
                    sink.retire(&d);
                    match self.run_dispatch(v, sink) {
                        Some(t) => {
                            fi = t;
                            idx = 0;
                            self.fragments[fi].entries += 1;
                            continue;
                        }
                        None => return ExecExit::NotTranslated { vtarget: v },
                    }
                }
            }

            sink.retire(&d);
            if let Some(e) = exit {
                return e;
            }
            match goto {
                None => idx += 1,
                Some(a) => {
                    let t = self.by_istart[&a];
                    fi = t;
                    idx = 0;
                    self.fragments[fi].entries += 1;
                }
            }
        }
    }

    /// Runs until halt, trap, or `budget` V-ISA instructions, streaming
    /// the straightened-code trace into `sink`.
    pub fn run<S: crate::engine::TraceSink>(&mut self, budget: u64, sink: &mut S) -> VmExit {
        loop {
            if self.stats.interpreted + self.stats.v_insts >= budget {
                return VmExit::Budget;
            }
            if let Some(&fi) = self.by_vstart.get(&self.cpu.pc) {
                match self.execute(fi, sink, budget) {
                    ExecExit::NotTranslated { vtarget } => {
                        self.cpu.pc = vtarget;
                        if self.candidates.bump(vtarget, self.profile.threshold) {
                            self.translate_here();
                        }
                    }
                    ExecExit::Halted => return VmExit::Halted,
                    ExecExit::Budget => return VmExit::Budget,
                    ExecExit::Trapped { vaddr, trap } => {
                        return VmExit::Trapped {
                            vaddr,
                            trap,
                            state: Box::new(self.cpu.registers()),
                        }
                    }
                }
                continue;
            }
            match interp_step(
                &mut self.cpu,
                &mut self.mem,
                &self.decoded,
                &mut self.candidates,
                &self.profile,
                &mut self.stats.interpreted,
                &mut self.output,
                None,
            ) {
                InterpEvent::Continue => {}
                InterpEvent::Halted => return VmExit::Halted,
                InterpEvent::Hot { .. } => {
                    self.translate_here();
                }
                InterpEvent::Trapped { vaddr, trap } => {
                    return VmExit::Trapped {
                        vaddr,
                        trap,
                        state: Box::new(self.cpu.registers()),
                    }
                }
                // The straightened VM keeps no invalidatable cache, so the
                // SMC check is disabled above; unreachable.
                InterpEvent::SmcStore { .. } => {}
            }
        }
    }

    fn translate_here(&mut self) {
        if self.by_vstart.contains_key(&self.cpu.pc) {
            return;
        }
        let mut collected_output = Vec::new();
        let result = crate::profile::collect_superblock_with_output(
            &mut self.cpu,
            &mut self.mem,
            self.program,
            &self.profile,
            &mut collected_output,
        );
        self.output.append(&mut collected_output);
        if let Ok(sb) = result {
            if !sb.is_empty() {
                // A collection that ran into the guest's halt leaves the
                // PC pinned on it; ordinary interpretation re-raises and
                // counts it, so don't count it here too.
                self.stats.interpreted += match sb.end {
                    crate::SbEnd::Halt => sb.len() as u64 - 1,
                    _ => sb.len() as u64,
                };
                self.install(&sb);
            }
        }
    }
}

fn patch_slot(slot: &mut SInst, istart: u64) {
    match slot {
        SInst::ExitIf { resolved, .. }
        | SInst::Exit { resolved, .. }
        | SInst::BranchIfMatch { resolved, .. } => *resolved = Some(istart),
        SInst::PushDualRas { iret, .. } => *iret = Some(istart),
        other => panic!("patching non-patchable slot {other:?}"),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ExecExit {
    NotTranslated { vtarget: u64 },
    Halted,
    Budget,
    Trapped { vaddr: u64, trap: alpha_isa::Trap },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullSink;
    use alpha_isa::{run_to_halt, Assembler};

    fn call_loop_program() -> Program {
        // A loop that calls a tiny function indirectly and returns —
        // exercises chaining, RAS and dispatch.
        let mut asm = Assembler::new(0x1_0000);
        let func = asm.label("func");
        asm.lda_imm(Reg::A0, 300);
        asm.clr(Reg::V0);
        let top = asm.here("top");
        asm.bsr(func);
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.halt();
        asm.bind(func);
        asm.addq(Reg::V0, Reg::A0, Reg::V0);
        asm.ret();
        asm.finish().unwrap()
    }

    fn check_policy(chain: ChainPolicy) {
        let program = call_loop_program();
        let (mut rcpu, mut rmem) = program.load();
        run_to_halt(
            &mut rcpu,
            &mut rmem,
            &program,
            AlignPolicy::Enforce,
            100_000,
        )
        .unwrap();

        let mut vm = StraightenedVm::new(chain, ProfileConfig::default(), &program);
        let exit = vm.run(100_000, &mut NullSink);
        assert_eq!(exit, VmExit::Halted, "{chain:?}");
        assert_eq!(
            vm.cpu().registers(),
            rcpu.registers(),
            "straightened execution must preserve state ({chain:?})"
        );
        assert!(vm.stats().fragments > 0);
        assert!(
            vm.stats().v_insts > 500,
            "{chain:?}: {}",
            vm.stats().v_insts
        );
    }

    #[test]
    fn no_pred_preserves_state() {
        check_policy(ChainPolicy::NoPred);
    }

    #[test]
    fn sw_pred_preserves_state() {
        check_policy(ChainPolicy::SwPred);
    }

    #[test]
    fn dual_ras_preserves_state() {
        check_policy(ChainPolicy::SwPredDualRas);
    }

    #[test]
    fn dual_ras_reduces_executed_instructions() {
        let program = call_loop_program();
        let run = |chain| {
            let mut vm = StraightenedVm::new(chain, ProfileConfig::default(), &program);
            vm.run(1_000_000, &mut NullSink);
            *vm.stats()
        };
        let no_pred = run(ChainPolicy::NoPred);
        let sw = run(ChainPolicy::SwPred);
        let ras = run(ChainPolicy::SwPredDualRas);
        // no_pred executes the 20-instruction dispatch per return; software
        // prediction avoids most; the dual RAS avoids the compare sequence
        // too (Fig. 5's ordering).
        assert!(
            no_pred.relative_instruction_count() > sw.relative_instruction_count(),
            "no_pred {} vs sw_pred {}",
            no_pred.relative_instruction_count(),
            sw.relative_instruction_count()
        );
        assert!(
            sw.relative_instruction_count() > ras.relative_instruction_count(),
            "sw_pred {} vs dual-ras {}",
            sw.relative_instruction_count(),
            ras.relative_instruction_count()
        );
        assert!(ras.ras_hits > 200, "RAS must predict the returns");
    }

    #[test]
    fn straightening_removes_unconditional_branches() {
        // A loop body split by an unconditional branch: straightened code
        // should execute fewer instructions than the original.
        let mut asm = Assembler::new(0x2_0000);
        asm.lda_imm(Reg::A0, 500);
        let top = asm.here("top");
        let over = asm.label("over");
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.br(over);
        // (dead gap)
        asm.addq_imm(Reg::V0, 7, Reg::V0);
        asm.bind(over);
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.halt();
        let program = asm.finish().unwrap();

        let (mut rcpu, mut rmem) = program.load();
        let rstats = run_to_halt(
            &mut rcpu,
            &mut rmem,
            &program,
            AlignPolicy::Enforce,
            100_000,
        )
        .unwrap();

        let mut vm = StraightenedVm::new(
            ChainPolicy::SwPredDualRas,
            ProfileConfig::default(),
            &program,
        );
        vm.run(100_000, &mut NullSink);
        assert_eq!(vm.cpu().registers(), rcpu.registers());
        // Straightened hot code drops the BR: fewer executed instructions
        // per iteration (4 vs 5, minus cold-start noise).
        let hot_ratio = vm.stats().executed as f64 / vm.stats().v_insts as f64;
        assert!(
            hot_ratio < 1.05,
            "straightened loop should not expand: {hot_ratio} \
             (executed {} / v {})",
            vm.stats().executed,
            vm.stats().v_insts
        );
        let _ = rstats;
    }
}
