//! Interpretation, profiling and MRET superblock collection (paper §3.1).
//!
//! The DBT system starts by interpreting the V-ISA program, counting
//! executions of *trace start candidates*:
//!
//! * targets of register-indirect jumps (`JMP`/`JSR`/`RET`),
//! * targets of backward conditional branches,
//! * exit targets of existing fragments.
//!
//! When a candidate's counter reaches the threshold (paper: 50), the
//! interpreted path is followed to form a superblock — the
//! Most-Recently-Executed-Tail heuristic of Dynamo. Collection ends at a
//! register-indirect jump or trap, a backward taken conditional branch, a
//! revisited address (cycle), or the maximum size (paper: 200).

use crate::fragment::TranslationCache;
use crate::superblock::{CollectedFlow, SbEnd, SbInst, Superblock};
use alpha_isa::{
    step, AlignPolicy, BranchOp, Control, CpuState, DecodeCache, IdMap, IdSet, Inst, Memory,
    Program, Trap,
};

/// Profiling configuration (paper §4.1: threshold 50, maximum superblock
/// size 200).
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Executions of a start candidate before a superblock is formed.
    pub threshold: u32,
    /// Maximum superblock length in V-ISA instructions.
    pub max_superblock: usize,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            threshold: 50,
            max_superblock: 200,
        }
    }
}

/// Counters for superblock start candidates (the paper uses an unlimited
/// number of counters; so do we).
#[derive(Clone, Debug, Default)]
pub struct Candidates {
    counters: IdMap<u64, u32>,
}

impl Candidates {
    /// Creates an empty counter table.
    pub fn new() -> Candidates {
        Candidates::default()
    }

    /// Bumps the counter for `vaddr`; returns `true` when it reaches
    /// `threshold` (the address is now hot). The counter saturates: a
    /// loop left to the interpreter can take 2^32 back-edges, and a
    /// wrapped counter would report it hot a second time.
    pub fn bump(&mut self, vaddr: u64, threshold: u32) -> bool {
        let c = self.counters.entry(vaddr).or_insert(0);
        let next = c.saturating_add(1);
        let fired = next == threshold && next != *c;
        *c = next;
        fired
    }

    /// Whether `vaddr` has already crossed `threshold`.
    pub fn is_hot(&self, vaddr: u64, threshold: u32) -> bool {
        self.counters.get(&vaddr).is_some_and(|c| *c >= threshold)
    }

    /// Forgets the counter for `vaddr`. [`bump`](Candidates::bump) fires
    /// exactly once, at the threshold — so after a fragment is invalidated
    /// (evicted, or killed by a self-modifying store) its start address
    /// must be reset or it could never re-heat and re-translate.
    pub fn reset(&mut self, vaddr: u64) {
        self.counters.remove(&vaddr);
    }

    /// Iterates `(address, count)` over every counter, in unspecified
    /// order (snapshot capture sorts).
    pub fn counters(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counters.iter().map(|(&a, &c)| (a, c))
    }

    /// Sets the counter for `vaddr` (snapshot restore); a count of 0
    /// clears it. [`bump`](Candidates::bump) fires only when a counter
    /// *reaches* the threshold exactly, so restore clamps counts to one
    /// below it — a counter restored at or past the threshold would never
    /// fire again.
    pub fn set(&mut self, vaddr: u64, count: u32) {
        if count == 0 {
            self.counters.remove(&vaddr);
        } else {
            self.counters.insert(vaddr, count);
        }
    }

    /// Number of distinct candidate addresses seen.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no candidates have been seen.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// The result of one interpretation step inside the VM loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterpEvent {
    /// Ordinary instruction executed; continue interpreting.
    Continue,
    /// The program halted.
    Halted,
    /// A candidate address just became hot; the VM should collect a
    /// superblock starting there (the PC is already at it).
    Hot {
        /// The hot start address.
        vaddr: u64,
    },
    /// A trap was raised (delivered precisely by the interpreter).
    Trapped {
        /// Faulting V-address.
        vaddr: u64,
        /// The condition.
        trap: Trap,
    },
    /// The executed instruction stored into a guest page holding
    /// translated source code. The store **has** completed (interpretation
    /// is always architecturally current); the VM must invalidate the
    /// affected fragments before any of them runs again.
    SmcStore {
        /// Guest address written.
        addr: u64,
        /// Width of the store in bytes.
        len: u64,
    },
}

/// Interprets a single instruction, updating candidate counters for the
/// *next* PC when the executed instruction makes it a candidate.
///
/// Fetches through the predecoded [`DecodeCache`] (one decode per static
/// instruction for the whole run, not one per step).
///
/// `stats` counts interpreted instructions (for the translation-overhead
/// model).
///
/// When `smc` is a translation cache, stores into pages holding
/// translated source code are reported as [`InterpEvent::SmcStore`] so
/// the VM can invalidate before the stale fragments run again; `None`
/// disables the check (no cache to protect).
#[allow(clippy::too_many_arguments)]
pub fn interp_step(
    cpu: &mut CpuState,
    mem: &mut Memory,
    decoded: &DecodeCache,
    candidates: &mut Candidates,
    config: &ProfileConfig,
    interpreted: &mut u64,
    output: &mut Vec<u8>,
    smc: Option<&TranslationCache>,
) -> InterpEvent {
    let pc = cpu.pc;
    let inst = match decoded.fetch(pc) {
        Ok(i) => i,
        Err(trap) => return InterpEvent::Trapped { vaddr: pc, trap },
    };
    let outcome = match step(cpu, mem, inst, AlignPolicy::Enforce) {
        Ok(o) => o,
        Err(trap) => return InterpEvent::Trapped { vaddr: pc, trap },
    };
    if let Some(b) = outcome.output {
        output.push(b);
    }
    // NOPs are excluded from the retire count in *every* mode — superblock
    // collection drops them and translated code never emits them — so
    // counting them here would make `Vm::v_instructions` depend on how
    // much of the run happened to execute translated. Keeping the count
    // NOP-free in the interpreter too makes it a pure function of the
    // architected position, which snapshot/replay lockstep relies on.
    if !inst.is_nop() {
        *interpreted += 1;
    }
    if let (Some(cache), Some(acc)) = (smc, outcome.mem) {
        // Stores never transfer control on Alpha, so reporting the SMC hit
        // instead of the (Sequential) control outcome loses nothing.
        if acc.is_store && cache.smc_hit(acc.addr, acc.bytes as u64) {
            return InterpEvent::SmcStore {
                addr: acc.addr,
                len: acc.bytes as u64,
            };
        }
    }
    match outcome.control {
        Control::Halt => InterpEvent::Halted,
        Control::Indirect { target, .. } => {
            if candidates.bump(target, config.threshold) {
                InterpEvent::Hot { vaddr: target }
            } else {
                InterpEvent::Continue
            }
        }
        Control::Taken { target } => {
            // Backward conditional branches make their targets candidates.
            if matches!(inst, Inst::Branch { op, .. }
                if !matches!(op, BranchOp::Br | BranchOp::Bsr))
                && target <= pc
                && candidates.bump(target, config.threshold)
            {
                InterpEvent::Hot { vaddr: target }
            } else {
                InterpEvent::Continue
            }
        }
        _ => InterpEvent::Continue,
    }
}

/// Follows the interpreted path from the current PC, executing and
/// recording instructions until a superblock ending condition (paper
/// §3.1). NOP instructions are executed but not recorded.
///
/// # Errors
///
/// Returns the trap if one is raised mid-collection (the partial
/// superblock is abandoned, matching the paper's "trap instructions end
/// fragments" rule — the VM falls back to interpretation).
pub fn collect_superblock(
    cpu: &mut CpuState,
    mem: &mut Memory,
    program: &Program,
    config: &ProfileConfig,
) -> Result<Superblock, (u64, Trap)> {
    collect_superblock_with_output(cpu, mem, program, config, &mut Vec::new())
}

/// [`collect_superblock`], additionally appending console bytes produced
/// while the collection executes the path.
pub fn collect_superblock_with_output(
    cpu: &mut CpuState,
    mem: &mut Memory,
    program: &Program,
    config: &ProfileConfig,
    output: &mut Vec<u8>,
) -> Result<Superblock, (u64, Trap)> {
    let start = cpu.pc;
    let mut insts: Vec<SbInst> = Vec::new();
    let mut seen: IdSet<u64> = IdSet::default();
    loop {
        let pc = cpu.pc;
        if seen.contains(&pc) {
            return Ok(Superblock {
                start,
                insts,
                end: SbEnd::Cycle { next: pc },
            });
        }
        if insts.len() >= config.max_superblock {
            return Ok(Superblock {
                start,
                insts,
                end: SbEnd::MaxSize { next: pc },
            });
        }
        let inst = program.fetch(pc).map_err(|t| (pc, t))?;
        let outcome = step(cpu, mem, inst, AlignPolicy::Enforce).map_err(|t| (pc, t))?;
        if let Some(b) = outcome.output {
            output.push(b);
        }
        if inst.is_nop() {
            continue; // removed by translation (paper §4.4)
        }
        seen.insert(pc);
        let seq = pc.wrapping_add(4);
        let (flow, end) = match outcome.control {
            Control::Halt => (CollectedFlow::Sequential, Some(SbEnd::Halt)),
            Control::Indirect { kind, target } => (
                CollectedFlow::Indirect { kind, target },
                Some(SbEnd::IndirectJump),
            ),
            Control::Taken { target } => match inst {
                Inst::Branch { op, ra, .. } => {
                    if op.is_unconditional() {
                        let links = !ra.is_zero();
                        (CollectedFlow::Direct { target, links }, None)
                    } else if target <= pc {
                        (
                            CollectedFlow::CondTaken {
                                taken_target: target,
                                fallthrough: seq,
                            },
                            Some(SbEnd::BackwardTakenBranch {
                                target,
                                fallthrough: seq,
                            }),
                        )
                    } else {
                        (
                            CollectedFlow::CondTaken {
                                taken_target: target,
                                fallthrough: seq,
                            },
                            None,
                        )
                    }
                }
                _ => unreachable!("only branches produce Taken"),
            },
            Control::NotTaken => {
                let target = match inst {
                    Inst::Branch { disp, .. } => seq.wrapping_add(((disp as i64) << 2) as u64),
                    _ => unreachable!("only branches produce NotTaken"),
                };
                (
                    CollectedFlow::CondNotTaken {
                        taken_target: target,
                    },
                    None,
                )
            }
            Control::Sequential => (CollectedFlow::Sequential, None),
        };
        insts.push(SbInst {
            vaddr: pc,
            inst,
            flow,
        });
        if let Some(end) = end {
            return Ok(Superblock { start, insts, end });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_isa::{Assembler, Reg};

    fn countdown_program() -> Program {
        let mut asm = Assembler::new(0x1000);
        asm.lda_imm(Reg::A0, 100);
        let top = asm.here("top");
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.addq(Reg::A0, Reg::A0, Reg::V0);
        asm.bne(Reg::A0, top);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn saturated_counter_neither_panics_nor_fires() {
        let mut cands = Candidates::new();
        cands.set(0x1000, u32::MAX);
        for _ in 0..100 {
            assert!(!cands.bump(0x1000, 50));
            assert!(!cands.bump(0x1000, u32::MAX));
        }
        assert!(cands.is_hot(0x1000, 50));
    }

    #[test]
    fn backward_branch_target_becomes_hot() {
        let program = countdown_program();
        let decoded = DecodeCache::new(&program);
        let (mut cpu, mut mem) = program.load();
        let mut cands = Candidates::new();
        let config = ProfileConfig {
            threshold: 10,
            ..ProfileConfig::default()
        };
        let mut interp = 0u64;
        let mut hot = None;
        for _ in 0..1000 {
            match interp_step(
                &mut cpu,
                &mut mem,
                &decoded,
                &mut cands,
                &config,
                &mut interp,
                &mut Vec::new(),
                None,
            ) {
                InterpEvent::Hot { vaddr } => {
                    hot = Some(vaddr);
                    break;
                }
                InterpEvent::Halted => break,
                InterpEvent::Continue => {}
                e => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(hot, Some(0x1004), "loop top becomes hot");
        // PC is at the hot address, ready for collection.
        assert_eq!(cpu.pc, 0x1004);
        assert!(interp > 10);
    }

    #[test]
    fn collection_ends_at_backward_taken_branch() {
        let program = countdown_program();
        let decoded = DecodeCache::new(&program);
        let (mut cpu, mut mem) = program.load();
        // Enter the loop first.
        let config = ProfileConfig::default();
        let mut c = Candidates::new();
        let mut n = 0;
        interp_step(
            &mut cpu,
            &mut mem,
            &decoded,
            &mut c,
            &config,
            &mut n,
            &mut Vec::new(),
            None,
        );
        assert_eq!(cpu.pc, 0x1004);
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &config).unwrap();
        assert_eq!(sb.start, 0x1004);
        assert_eq!(sb.len(), 3);
        assert!(matches!(
            sb.end,
            SbEnd::BackwardTakenBranch { target: 0x1004, .. }
        ));
        // Collection executed one loop iteration.
        assert_eq!(cpu.pc, 0x1004);
    }

    #[test]
    fn collection_detects_cycles_without_branch_end() {
        // A loop closed by an unconditional BR (followed through), so the
        // cycle rule ends collection.
        let mut asm = Assembler::new(0x2000);
        let top = asm.here("top");
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.br(top);
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let config = ProfileConfig::default();
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &config).unwrap();
        assert!(matches!(sb.end, SbEnd::Cycle { next: 0x2000 }));
        // The BR is recorded as a followed direct branch.
        assert!(matches!(
            sb.insts.last().unwrap().flow,
            CollectedFlow::Direct { links: false, .. }
        ));
    }

    #[test]
    fn collection_respects_max_size() {
        let mut asm = Assembler::new(0x3000);
        for _ in 0..50 {
            asm.addq_imm(Reg::V0, 1, Reg::V0);
        }
        asm.halt();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let config = ProfileConfig {
            max_superblock: 10,
            ..ProfileConfig::default()
        };
        let sb = collect_superblock(&mut cpu, &mut mem, &program, &config).unwrap();
        assert_eq!(sb.len(), 10);
        assert!(matches!(sb.end, SbEnd::MaxSize { next: 0x3028 }));
    }

    #[test]
    fn nops_are_executed_but_not_recorded() {
        let mut asm = Assembler::new(0x4000);
        asm.nop();
        asm.nop();
        asm.addq_imm(Reg::V0, 1, Reg::V0);
        asm.halt();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let sb =
            collect_superblock(&mut cpu, &mut mem, &program, &ProfileConfig::default()).unwrap();
        assert_eq!(sb.len(), 2); // addq + halt
        assert_eq!(sb.insts[0].vaddr, 0x4008);
    }

    #[test]
    fn collection_reports_traps() {
        let mut asm = Assembler::new(0x5000);
        asm.lda_imm(Reg::A0, 42);
        asm.gentrap();
        let program = asm.finish().unwrap();
        let (mut cpu, mut mem) = program.load();
        let err = collect_superblock(&mut cpu, &mut mem, &program, &ProfileConfig::default())
            .unwrap_err();
        assert_eq!(err.0, 0x5004);
        assert_eq!(err.1, Trap::GenTrap { code: 42 });
    }

    #[test]
    fn candidate_counters() {
        let mut c = Candidates::new();
        assert!(c.is_empty());
        for i in 1..50 {
            assert!(!c.bump(0x100, 50), "not hot at {i}");
        }
        assert!(c.bump(0x100, 50));
        assert!(c.is_hot(0x100, 50));
        assert!(!c.bump(0x100, 50), "hot fires exactly once");
        assert_eq!(c.len(), 1);
    }
}
