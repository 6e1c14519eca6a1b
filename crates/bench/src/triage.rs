//! Automatic divergence triage: from a failing recorded run to a
//! minimized, deterministic `.repro` bundle.
//!
//! Given a program, a recorded nondeterministic envelope
//! ([`ReplayLog`] — run budgets, injection schedule, and standing
//! [`Sabotage`] miscompile rules), the engine:
//!
//! 1. **monitors** — replays the envelope while taking periodic
//!    checkpoints ([`Snapshot`]) at fragment boundaries, then compares
//!    the final architected state against an instruction-accurate
//!    reference interpreter ([`RefInterp`]);
//! 2. **bisects** — on divergence, binary-searches the checkpoints for
//!    the last one whose architected state still matches the reference
//!    (divergence is assumed persistent: corrupted architected state does
//!    not self-correct, which holds for translator miscompiles);
//! 3. **localizes** — restores a fresh VM from that last-good checkpoint
//!    and runs boundary-by-boundary in lockstep with a reference started
//!    *from the same checkpoint* (valid precisely because the checkpoint
//!    was verified good), reporting the first divergent fragment
//!    execution and the register/memory diff at its exit boundary.
//!
//! The result is packaged as a [`ReproBundle`] — program slice, entry
//! checkpoint, trimmed envelope, and expected divergence — whose
//! [`replay`](ReproBundle::replay) re-runs the identical localization
//! procedure, so the reported divergence reproduces bit-identically from
//! the bundle alone.
//!
//! Count-anchored lockstep relies on [`Vm::v_instructions`] being a pure
//! function of the architected position: architectural NOPs are excluded
//! from the count in every execution mode (interpreted, collected, and
//! translated), so the reference can advance to exactly the VM's count
//! and compare state, no matter how much of either timeline ran
//! translated.

use crate::chaos::{apply_event, audit_and_heal, cell_config, ChaosReport};
use alpha_isa::{step, AlignPolicy, Control, CpuState, DecodeCache, Memory, Program};
use ildp_core::wire::Cursor;
use ildp_core::{
    wire, ChainPolicy, NullSink, ReplayEvent, ReplayLog, Sabotage, Snapshot, SnapshotError, Vm,
    VmConfig, VmExit,
};
use ildp_isa::{ASrc, IInst, IsaForm};
use std::collections::HashSet;
use std::fmt;

/// Magic number of the `.repro` bundle wire format (`"ILPB"`).
pub const REPRO_MAGIC: u32 = 0x4250_4C49;

/// Current `.repro` bundle format version. Version 3 nests version-6
/// snapshots and version-7 (inputs-only) replay logs; older bundles are
/// refused with [`SnapshotError::BadVersion`].
pub const REPRO_VERSION: u32 = 3;

/// An instruction-accurate reference interpreter that can start either
/// from program entry or from a verified-good checkpoint, and advance to
/// an exact retired-instruction count for lockstep comparison.
pub struct RefInterp {
    decoded: DecodeCache,
    cpu: CpuState,
    mem: Memory,
    output: Vec<u8>,
    v: u64,
    halted: bool,
}

impl RefInterp {
    /// A reference positioned at program entry.
    pub fn from_start(program: &Program) -> RefInterp {
        let (cpu, mem) = program.load();
        RefInterp {
            decoded: DecodeCache::new(program),
            cpu,
            mem,
            output: Vec::new(),
            v: 0,
            halted: false,
        }
    }

    /// A reference positioned at a checkpoint. Only sound when the
    /// checkpoint's architected state is known to match the reference
    /// timeline — the triage engine guarantees this by bisecting to the
    /// last checkpoint it verified against a from-start reference.
    pub fn from_snapshot(program: &Program, snap: &Snapshot) -> RefInterp {
        RefInterp {
            decoded: DecodeCache::new(program),
            cpu: CpuState::with_registers(snap.pc, &snap.regs),
            mem: snap.to_memory(),
            output: snap.output.clone(),
            v: snap.v_insts,
            halted: false,
        }
    }

    /// Steps until exactly `target` instructions have retired (or the
    /// program halts first — check [`halted`](RefInterp::halted)).
    pub fn advance_to(&mut self, target: u64) -> Result<(), String> {
        while self.v < target && !self.halted {
            let pc = self.cpu.pc;
            let inst = self
                .decoded
                .fetch(pc)
                .map_err(|t| format!("reference fetch trap at {pc:#x}: {t}"))?;
            let outcome = step(&mut self.cpu, &mut self.mem, inst, AlignPolicy::Enforce)
                .map_err(|t| format!("reference trap at {pc:#x}: {t}"))?;
            // Mirror `Vm::v_instructions`: architectural NOPs retire but
            // never count, in any execution mode.
            if !inst.is_nop() {
                self.v += 1;
            }
            if let Some(b) = outcome.output {
                self.output.push(b);
            }
            if outcome.control == Control::Halt {
                self.halted = true;
            }
        }
        Ok(())
    }

    /// Instructions retired so far.
    pub fn v(&self) -> u64 {
        self.v
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current architected register file.
    pub fn regs(&self) -> [u64; 32] {
        self.cpu.registers()
    }

    /// Current architected pc.
    pub fn pc(&self) -> u64 {
        self.cpu.pc
    }

    /// Order-independent digest of current memory contents.
    pub fn mem_digest(&self) -> u64 {
        self.mem.content_digest()
    }

    /// Console output so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }
}

/// XORs `rule.imm_xor` into the first immediate operand at or after
/// `rule.slot` (wrapping) of a fragment's code — the modelled translator
/// miscompile. Structurally the fragment stays valid (C01–C07 still
/// pass); semantically it is wrong. Returns whether an immediate was
/// found.
fn sabotage_insts(insts: &mut [IInst], rule: &Sabotage) -> bool {
    let n = insts.len();
    if n == 0 {
        return false;
    }
    for k in 0..n {
        let i = (rule.slot as usize + k) % n;
        match &mut insts[i] {
            IInst::Op {
                rhs: ASrc::Imm(imm),
                ..
            }
            | IInst::AddHigh { imm, .. } => {
                *imm = (*imm as u16 ^ rule.imm_xor) as i16;
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Paces a run as a series of `Run` budget pauses `pace` retired
/// V-instructions apart, ending at `budget`. A standing sabotage rule
/// lands at the first pause after its victim fragment installs, so
/// pacing the envelope this finely makes the landing time a property of
/// the *log* (and therefore of any bundle trimmed from it) rather than
/// of whatever checkpoint interval a triage run happens to choose.
pub fn paced_run_events(budget: u64, pace: u64) -> Vec<ReplayEvent> {
    let pace = pace.max(1);
    let mut events: Vec<ReplayEvent> = (1..=budget / pace)
        .map(|k| ReplayEvent::Run { budget: k * pace })
        .collect();
    if !budget.is_multiple_of(pace) || events.is_empty() {
        events.push(ReplayEvent::Run { budget });
    }
    events
}

/// Drives a VM through a recorded envelope: applies standing sabotage
/// rules at every pause (the first pause after a matching fragment
/// installs corrupts it, tracked per cache slot so retranslations are
/// re-corrupted), and applies the logged injection events once the run
/// has reached their recorded anchor.
pub struct LogDriver<'a, 'p> {
    /// The driven VM.
    pub vm: Vm<'p>,
    log: &'a ReplayLog,
    pos: usize,
    corrupted: HashSet<u32>,
    report: ChaosReport,
}

impl<'a, 'p> LogDriver<'a, 'p> {
    /// Wraps a VM (fresh or restored) for log-driven execution.
    pub fn new(vm: Vm<'p>, log: &'a ReplayLog) -> LogDriver<'a, 'p> {
        let mut d = LogDriver {
            vm,
            log,
            pos: 0,
            corrupted: HashSet::new(),
            report: ChaosReport::default(),
        };
        d.apply_sabotage();
        d
    }

    /// Injection tally accumulated while draining events.
    pub fn report(&self) -> ChaosReport {
        self.report
    }

    fn apply_sabotage(&mut self) {
        for rule in &self.log.sabotage {
            let Some(id) = self.vm.cache().lookup(rule.vstart) else {
                continue;
            };
            if self.corrupted.contains(&id.0) {
                continue;
            }
            let landed = self
                .vm
                .cache_mut()
                .edit_fragment(id, |insts, _| sabotage_insts(insts, rule));
            if landed {
                self.corrupted.insert(id.0);
            }
        }
    }

    /// Applies every event whose governing `Run` anchor the VM has
    /// reached. In the recorded timeline events fired at the pause ending
    /// `Run {{ budget }}`, i.e. at the first boundary with
    /// `v_insts >= budget`; replay applies them at the first *pause* past
    /// that point, which is the same boundary when the caller paces runs
    /// by the same budgets, and a deterministic refinement when stepping
    /// boundary-by-boundary.
    fn drain_events(&mut self) {
        while let Some(&ReplayEvent::Run { budget }) = self.log.events.get(self.pos) {
            if budget > self.vm.v_instructions() {
                break;
            }
            self.pos += 1;
            while let Some(ev) = self.log.events.get(self.pos) {
                match ev {
                    ReplayEvent::Run { .. } => break,
                    ReplayEvent::AuditHeal => {
                        let flagged = audit_and_heal(&mut self.vm, &mut self.report);
                        // Healed slots may be retranslated later; let the
                        // standing rules re-corrupt the new slot.
                        self.corrupted.retain(|id| !flagged.contains(id));
                    }
                    other => {
                        apply_event(&mut self.vm, other, &mut self.report);
                    }
                }
                self.pos += 1;
            }
        }
    }

    /// Runs to the first fragment boundary at or past `target`, then
    /// applies sabotage rules and any newly-anchored events.
    pub fn run_to(&mut self, target: u64) -> VmExit {
        let exit = self.vm.run(target, &mut NullSink);
        self.apply_sabotage();
        self.drain_events();
        exit
    }

    /// Advances exactly one fragment boundary.
    pub fn step(&mut self) -> VmExit {
        let v = self.vm.v_instructions();
        self.run_to(v + 1)
    }

    /// Replays the envelope's own run schedule to completion, pausing
    /// additionally every `interval` retired instructions to take a
    /// checkpoint. Returns the checkpoints (the first is the pre-run
    /// state) and the final exit.
    pub fn run_monitored(&mut self, interval: u64) -> (Vec<Snapshot>, VmExit) {
        let interval = interval.max(1);
        let mut cps = vec![self.vm.snapshot()];
        let mut next_cp = self.vm.v_instructions() + interval;
        let mut exit = VmExit::Budget;
        let budgets: Vec<u64> = self
            .log
            .events
            .iter()
            .filter_map(|ev| match ev {
                ReplayEvent::Run { budget } => Some(*budget),
                _ => None,
            })
            .collect();
        for budget in budgets {
            loop {
                let v = self.vm.v_instructions();
                if v >= budget {
                    break;
                }
                while next_cp <= v {
                    next_cp += interval;
                }
                exit = self.run_to(budget.min(next_cp));
                if exit != VmExit::Budget {
                    return (cps, exit);
                }
                if self.vm.v_instructions() >= next_cp {
                    cps.push(self.vm.snapshot());
                }
            }
        }
        (cps, exit)
    }
}

/// One architected register mismatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegDiff {
    /// Register index (0–31).
    pub index: u8,
    /// The reference interpreter's value.
    pub expected: u64,
    /// The VM's value.
    pub actual: u64,
}

/// The first observed divergence between the VM and the reference, at a
/// fragment boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Retired-instruction count of the divergent boundary.
    pub v_insts: u64,
    /// V-address the divergent fragment execution entered at (the
    /// architected pc at the last matching boundary).
    pub entry_vstart: u64,
    /// Whether a translated fragment was installed at that entry when it
    /// executed (`false` means the step was interpreted — an injected
    /// fault corrupted architected state some other way).
    pub entry_translated: bool,
    /// Reference pc at the boundary (meaningful when `pc_compared`).
    pub pc_expected: u64,
    /// VM pc at the boundary.
    pub pc_actual: u64,
    /// Whether pc participated in the comparison (only at mid-run
    /// boundaries; halt pc conventions differ between engines).
    pub pc_compared: bool,
    /// Mismatched registers, ascending by index.
    pub regs: Vec<RegDiff>,
    /// Reference memory digest at the boundary.
    pub mem_expected: u64,
    /// VM memory digest at the boundary.
    pub mem_actual: u64,
    /// Whether console output diverged.
    pub output_diverged: bool,
    /// Whether the VM stopped abnormally (trap/fault) at this boundary.
    pub abnormal_exit: bool,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "first divergence at v_insts {} (fragment entered at {:#x}, {})",
            self.v_insts,
            self.entry_vstart,
            if self.entry_translated {
                "translated"
            } else {
                "interpreted"
            }
        )?;
        if self.abnormal_exit {
            writeln!(f, "  vm stopped abnormally (trap or structural fault)")?;
        }
        if self.pc_compared && self.pc_expected != self.pc_actual {
            writeln!(
                f,
                "  pc: expected {:#x}, got {:#x}",
                self.pc_expected, self.pc_actual
            )?;
        }
        for d in &self.regs {
            writeln!(
                f,
                "  r{}: expected {:#x}, got {:#x}",
                d.index, d.expected, d.actual
            )?;
        }
        if self.mem_expected != self.mem_actual {
            writeln!(
                f,
                "  memory digest: expected {:#x}, got {:#x}",
                self.mem_expected, self.mem_actual
            )?;
        }
        if self.output_diverged {
            writeln!(f, "  console output diverged")?;
        }
        Ok(())
    }
}

/// Compares the VM's architected state against the reference at a common
/// retired count. `compare_pc` is set only at mid-run boundaries.
fn state_diff(
    vm: &Vm<'_>,
    reference: &RefInterp,
    compare_pc: bool,
) -> Option<(Vec<RegDiff>, bool, bool)> {
    let vr = vm.cpu().registers();
    let rr = reference.regs();
    let regs: Vec<RegDiff> = (0..32)
        .filter(|&i| vr[i] != rr[i])
        .map(|i| RegDiff {
            index: i as u8,
            expected: rr[i],
            actual: vr[i],
        })
        .collect();
    let mem = vm.memory().content_digest() != reference.mem_digest();
    let out = vm.output() != reference.output();
    let pc = compare_pc && vm.cpu().pc != reference.pc();
    if regs.is_empty() && !mem && !out && !pc {
        None
    } else {
        Some((regs, mem, out))
    }
}

fn divergence_at(
    vm: &Vm<'_>,
    reference: &RefInterp,
    entry_vstart: u64,
    entry_translated: bool,
    compare_pc: bool,
    abnormal: bool,
    diff: (Vec<RegDiff>, bool, bool),
) -> Divergence {
    let (regs, _, out) = diff;
    Divergence {
        v_insts: vm.v_instructions(),
        entry_vstart,
        entry_translated,
        pc_expected: reference.pc(),
        pc_actual: vm.cpu().pc,
        pc_compared: compare_pc,
        regs,
        mem_expected: reference.mem_digest(),
        mem_actual: vm.memory().content_digest(),
        output_diverged: out,
        abnormal_exit: abnormal,
    }
}

/// Restores a VM from a verified-good checkpoint and single-steps
/// fragment boundaries in lockstep with a reference started from the
/// same checkpoint, until the first divergent boundary (or `max_v`
/// retired instructions). Returns `None` if the timelines agree to a
/// clean common halt.
pub fn localize(
    program: &Program,
    config: VmConfig,
    snap: &Snapshot,
    log: &ReplayLog,
    max_v: u64,
) -> Result<Option<Divergence>, String> {
    let vm = Vm::restore(config, program, snap).map_err(|e| format!("restore failed: {e}"))?;
    let mut driver = LogDriver::new(vm, log);
    let mut reference = RefInterp::from_snapshot(program, snap);
    loop {
        let v0 = driver.vm.v_instructions();
        if v0 >= max_v {
            return Err(format!(
                "localization exceeded {max_v} instructions without reproducing the divergence"
            ));
        }
        let entry = driver.vm.cpu().pc;
        let translated = driver.vm.cache().lookup(entry).is_some();
        let exit = driver.step();
        let v1 = driver.vm.v_instructions();
        reference.advance_to(v1)?;
        let abnormal = matches!(exit, VmExit::Trapped { .. } | VmExit::Fault { .. });
        // The reference halting short of the VM's count is itself a
        // divergence (the VM ran past the architected halt).
        if reference.v() < v1 {
            let diff =
                state_diff(&driver.vm, &reference, false).unwrap_or((Vec::new(), false, false));
            return Ok(Some(divergence_at(
                &driver.vm, &reference, entry, translated, false, abnormal, diff,
            )));
        }
        let compare_pc = exit == VmExit::Budget;
        if let Some(diff) = state_diff(&driver.vm, &reference, compare_pc) {
            return Ok(Some(divergence_at(
                &driver.vm, &reference, entry, translated, compare_pc, abnormal, diff,
            )));
        }
        if abnormal {
            // Architected state agrees but the VM cannot continue while
            // the reference can: report the stop itself.
            return Ok(Some(divergence_at(
                &driver.vm,
                &reference,
                entry,
                translated,
                false,
                true,
                (Vec::new(), false, false),
            )));
        }
        if exit == VmExit::Halted {
            return Ok(if reference.halted() {
                None
            } else {
                // VM halted early: count agreement was checked above, so
                // the reference must be able to continue — divergent.
                Some(divergence_at(
                    &driver.vm,
                    &reference,
                    entry,
                    translated,
                    false,
                    false,
                    (Vec::new(), false, false),
                ))
            });
        }
    }
}

/// A triage verdict: the localized first divergence plus the bundle that
/// reproduces it.
pub struct TriageResult {
    /// The first divergent fragment execution, localized from the last
    /// good checkpoint.
    pub divergence: Divergence,
    /// Self-contained reproduction artifact.
    pub bundle: ReproBundle,
}

/// Monitors a log-driven run, and on divergence from the reference
/// bisects checkpoints and localizes the first divergent fragment
/// execution. Returns `None` when the run matches the reference
/// end-to-end. `workload` is a provenance label stored in the bundle.
pub fn triage_run(
    program: &Program,
    form: IsaForm,
    chain: ChainPolicy,
    log: &ReplayLog,
    interval: u64,
    workload: &str,
) -> Result<Option<TriageResult>, String> {
    // Phase A: monitored run with periodic checkpoints.
    let vm = Vm::new(cell_config(form, chain), program);
    let mut driver = LogDriver::new(vm, log);
    let (cps, exit) = driver.run_monitored(interval);
    let v_final = driver.vm.v_instructions();
    let mut reference = RefInterp::from_start(program);
    reference.advance_to(v_final)?;
    let abnormal = matches!(exit, VmExit::Trapped { .. } | VmExit::Fault { .. });
    let clean = !abnormal
        && reference.v() == v_final
        && state_diff(&driver.vm, &reference, exit == VmExit::Budget).is_none()
        && (exit != VmExit::Halted || reference.halted());
    if clean {
        return Ok(None);
    }
    // Phase B: bisect the checkpoints for the last one whose architected
    // state matches a from-start reference. Assumes divergence persists
    // once present (miscompiled state does not self-correct), which makes
    // "checkpoint diverged" monotone over the run.
    let diverged = |snap: &Snapshot| -> Result<bool, String> {
        let mut r = RefInterp::from_start(program);
        r.advance_to(snap.v_insts)?;
        Ok(r.v() < snap.v_insts
            || r.regs() != snap.regs
            || r.pc() != snap.pc
            || r.mem_digest() != snap.mem_digest()
            || r.output() != snap.output.as_slice())
    };
    // cps[0] is the pre-run state and always good; partition in (0, n).
    let (mut good, mut bad) = (0usize, cps.len());
    while bad - good > 1 {
        let mid = good + (bad - good) / 2;
        if diverged(&cps[mid])? {
            bad = mid;
        } else {
            good = mid;
        }
    }
    let mut entry = cps[good].clone();
    // The wall-clock diagnostics in VmStats are not part of the
    // deterministic envelope; zero them so identical failures produce
    // byte-identical bundles.
    entry.stats.clear_wall_clock();
    let entry = &entry;
    // Phase C: lockstep localization from the last good checkpoint. The
    // trimmed log keeps the standing sabotage rules and every event not
    // yet reflected in the checkpoint.
    let trimmed = log.trimmed_to(entry.v_insts);
    let max_v = v_final.max(entry.v_insts) * 2 + 10_000;
    let config = cell_config(form, chain);
    let Some(divergence) = localize(program, config, entry, &trimmed, max_v)? else {
        return Err(
            "final state diverged but lockstep from the last good checkpoint found no \
             divergent boundary"
                .to_string(),
        );
    };
    let bundle = ReproBundle {
        form,
        chain,
        workload: workload.to_string(),
        code_base: program.code_base(),
        entry_pc: program.entry(),
        initial_sp: program.initial_sp(),
        code: program.code().to_vec(),
        snapshot: entry.clone(),
        log: trimmed,
        expected: divergence.clone(),
    };
    Ok(Some(TriageResult { divergence, bundle }))
}

/// A self-contained reproduction artifact: the program slice (code only —
/// the entry checkpoint carries all initialized memory), the last-good
/// checkpoint, the trimmed envelope, and the divergence the consumer must
/// reproduce.
#[derive(Clone, PartialEq, Debug)]
pub struct ReproBundle {
    /// I-ISA form of the failing cell.
    pub form: IsaForm,
    /// Chain policy of the failing cell.
    pub chain: ChainPolicy,
    /// Workload name, for provenance only.
    pub workload: String,
    /// V-address the code slice loads at.
    pub code_base: u64,
    /// Program entry pc.
    pub entry_pc: u64,
    /// Initial stack pointer.
    pub initial_sp: u64,
    /// The code words.
    pub code: Vec<u32>,
    /// The last-good checkpoint localization starts from.
    pub snapshot: Snapshot,
    /// Envelope trimmed to the checkpoint (sabotage rules kept).
    pub log: ReplayLog,
    /// The divergence a replay must reproduce exactly.
    pub expected: Divergence,
}

impl ReproBundle {
    /// Reconstructs the program slice. Data segments are deliberately
    /// absent ([`ildp_core::program_digest`] excludes them): the
    /// checkpoint's dirty pages carry every byte that matters.
    pub fn program(&self) -> Program {
        Program::new(self.code_base, self.code.clone())
            .with_entry(self.entry_pc)
            .with_initial_sp(self.initial_sp)
    }

    /// The cell configuration the bundle replays under.
    pub fn config(&self) -> VmConfig {
        cell_config(self.form, self.chain)
    }

    /// Re-runs the localization procedure the bundle was produced by and
    /// returns the divergence it finds, which must equal
    /// [`expected`](ReproBundle::expected) — the procedure is
    /// deterministic, so a mismatch means the build under test behaves
    /// differently from the one that produced the bundle.
    pub fn replay(&self) -> Result<Option<Divergence>, String> {
        let program = self.program();
        let max_v = self.expected.v_insts.max(self.snapshot.v_insts) * 2 + 10_000;
        localize(&program, self.config(), &self.snapshot, &self.log, max_v)
    }

    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u8(&mut p, matches!(self.form, IsaForm::Modified) as u8);
        wire::put_u8(
            &mut p,
            match self.chain {
                ChainPolicy::NoPred => 0,
                ChainPolicy::SwPred => 1,
                ChainPolicy::SwPredDualRas => 2,
            },
        );
        wire::put_bytes(&mut p, self.workload.as_bytes());
        wire::put_u64(&mut p, self.code_base);
        wire::put_u64(&mut p, self.entry_pc);
        wire::put_u64(&mut p, self.initial_sp);
        wire::put_u32(&mut p, self.code.len() as u32);
        for &w in &self.code {
            wire::put_u32(&mut p, w);
        }
        wire::put_bytes(&mut p, &self.snapshot.to_bytes());
        wire::put_bytes(&mut p, &self.log.to_bytes());
        put_divergence(&mut p, &self.expected);
        wire::seal(REPRO_MAGIC, REPRO_VERSION, &p)
    }

    /// Deserializes an artifact written by [`to_bytes`](ReproBundle::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ReproBundle, SnapshotError> {
        let payload = wire::open(REPRO_MAGIC, REPRO_VERSION, bytes)?;
        let mut c = Cursor::new(payload);
        let form = if c.take_u8()? != 0 {
            IsaForm::Modified
        } else {
            IsaForm::Basic
        };
        let chain = match c.take_u8()? {
            0 => ChainPolicy::NoPred,
            1 => ChainPolicy::SwPred,
            2 => ChainPolicy::SwPredDualRas,
            v => return Err(SnapshotError::BadVersion { version: v as u32 }),
        };
        let workload = String::from_utf8_lossy(c.take_bytes()?).into_owned();
        let code_base = c.take_u64()?;
        let entry_pc = c.take_u64()?;
        let initial_sp = c.take_u64()?;
        let n = c.take_u32()? as usize;
        let mut code = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            code.push(c.take_u32()?);
        }
        let snapshot = Snapshot::from_bytes(c.take_bytes()?)?;
        let log = ReplayLog::from_bytes(c.take_bytes()?)?;
        let expected = take_divergence(&mut c)?;
        c.finish()?;
        Ok(ReproBundle {
            form,
            chain,
            workload,
            code_base,
            entry_pc,
            initial_sp,
            code,
            snapshot,
            log,
            expected,
        })
    }
}

fn put_divergence(p: &mut Vec<u8>, d: &Divergence) {
    wire::put_u64(p, d.v_insts);
    wire::put_u64(p, d.entry_vstart);
    wire::put_u8(p, d.entry_translated as u8);
    wire::put_u64(p, d.pc_expected);
    wire::put_u64(p, d.pc_actual);
    wire::put_u8(p, d.pc_compared as u8);
    wire::put_u32(p, d.regs.len() as u32);
    for r in &d.regs {
        wire::put_u8(p, r.index);
        wire::put_u64(p, r.expected);
        wire::put_u64(p, r.actual);
    }
    wire::put_u64(p, d.mem_expected);
    wire::put_u64(p, d.mem_actual);
    wire::put_u8(p, d.output_diverged as u8);
    wire::put_u8(p, d.abnormal_exit as u8);
}

fn take_divergence(c: &mut Cursor<'_>) -> Result<Divergence, SnapshotError> {
    let v_insts = c.take_u64()?;
    let entry_vstart = c.take_u64()?;
    let entry_translated = c.take_u8()? != 0;
    let pc_expected = c.take_u64()?;
    let pc_actual = c.take_u64()?;
    let pc_compared = c.take_u8()? != 0;
    let n = c.take_u32()? as usize;
    let mut regs = Vec::with_capacity(n.min(32));
    for _ in 0..n {
        regs.push(RegDiff {
            index: c.take_u8()?,
            expected: c.take_u64()?,
            actual: c.take_u64()?,
        });
    }
    Ok(Divergence {
        v_insts,
        entry_vstart,
        entry_translated,
        pc_expected,
        pc_actual,
        pc_compared,
        regs,
        mem_expected: c.take_u64()?,
        mem_actual: c.take_u64()?,
        output_diverged: c.take_u8()? != 0,
        abnormal_exit: c.take_u8()? != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReproBundle {
        ReproBundle {
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            workload: "gzip".into(),
            code_base: 0x1_0000,
            entry_pc: 0x1_0000,
            initial_sp: 0x8_0000,
            code: vec![0x47ff_041f, 0x0000_0000],
            snapshot: Snapshot {
                program_digest: 0xC0DE,
                v_insts: 40,
                pc: 0x1_0004,
                regs: [0; 32],
                pages: vec![(0x10, vec![7; 16])],
                output: Vec::new(),
                candidates: Vec::new(),
                translated: Vec::new(),
                demotion: Vec::new(),
                smc_counts: Vec::new(),
                stats: Default::default(),
            },
            log: ReplayLog {
                seed: 3,
                sabotage: Vec::new(),
                events: vec![ReplayEvent::Run { budget: 100 }],
            },
            expected: Divergence {
                v_insts: 60,
                entry_vstart: 0x1_0000,
                entry_translated: true,
                pc_expected: 0x1_0004,
                pc_actual: 0x1_0004,
                pc_compared: true,
                regs: vec![RegDiff {
                    index: 1,
                    expected: 2,
                    actual: 3,
                }],
                mem_expected: 5,
                mem_actual: 5,
                output_diverged: false,
                abnormal_exit: false,
            },
        }
    }

    #[test]
    fn older_bundle_versions_are_refused() {
        let bytes = sample().to_bytes();
        let payload = wire::open(REPRO_MAGIC, REPRO_VERSION, &bytes).unwrap();
        for version in 1..REPRO_VERSION {
            let old = wire::seal(REPRO_MAGIC, version, payload);
            assert_eq!(
                ReproBundle::from_bytes(&old),
                Err(SnapshotError::BadVersion { version })
            );
        }
    }

    #[test]
    fn bundle_trailing_bytes_are_refused() {
        let bytes = sample().to_bytes();
        let payload = wire::open(REPRO_MAGIC, REPRO_VERSION, &bytes).unwrap();
        let mut longer = payload.to_vec();
        longer.push(0);
        let resealed = wire::seal(REPRO_MAGIC, REPRO_VERSION, &longer);
        assert_eq!(
            ReproBundle::from_bytes(&resealed),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }
}
