//! The translated-code execution engine.
//!
//! Stands in for the ILDP hardware's functional execution of I-ISA
//! fragments: it executes installed fragments against the architected
//! state, streams one [`DynInst`] record per retired instruction into a
//! [`TraceSink`] (the timing models), performs the runtime halves of
//! fragment chaining — the architectural dual-address RAS, the shared
//! dispatch code (modelled at its paper cost of 20 instructions), and
//! `call-translator` exits back to the VM — and delivers **precise traps**
//! by merging accumulator-resident architected values from the fragment's
//! recovery tables (paper §2.2).

use crate::classify::{CategoryCounts, UsageCat};
use crate::error::VmError;
use crate::fragment::{
    FragmentId, RetireSums, TranslationCache, DISPATCH_COST_INSTS, DISPATCH_IADDR,
};
use crate::lower::{Alu, Fault, Op, Src};
use alpha_isa::{AlignPolicy, CpuState, Memory, Reg, Trap};
use ildp_isa::{Acc, IInst, ITarget, MemWidth};
use ildp_uarch::{DynInst, InstClass};

/// Consumes the retired-instruction stream.
///
/// The engine's run loop is monomorphized over the sink, so a sink that
/// declares [`TRACING`](TraceSink::TRACING) `false` compiles the whole
/// record-construction path out of the loop — functional runs pay nothing
/// for the tracing machinery.
pub trait TraceSink {
    /// Whether this sink consumes records. When `false` the engine skips
    /// building [`DynInst`]s entirely and never calls
    /// [`retire`](TraceSink::retire); trace output is unaffected for any
    /// sink that leaves this `true`.
    const TRACING: bool = true;

    /// Receives one retired instruction.
    fn retire(&mut self, inst: &DynInst);
}

/// A sink that discards the trace (functional-only runs).
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    const TRACING: bool = false;

    fn retire(&mut self, _inst: &DynInst) {}
}

impl<T: ildp_uarch::TimingModel> TraceSink for T {
    fn retire(&mut self, inst: &DynInst) {
        ildp_uarch::TimingModel::retire(self, inst);
    }
}

/// Why the engine returned to the VM.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FragExit {
    /// Control reached a V-address with no translated fragment (a
    /// `call-translator` exit or a dispatch miss).
    NotTranslated {
        /// The continuation V-address.
        vtarget: u64,
    },
    /// The program halted.
    Halt,
    /// The engine's V-ISA instruction budget was exhausted mid-run.
    Budget,
    /// A precise trap: the faulting V-address, the condition, and the
    /// fully recovered architected register state.
    Trap {
        /// Faulting V-ISA instruction address.
        vaddr: u64,
        /// The trap condition.
        trap: Trap,
        /// Recovered architected registers (r0..r31).
        state: Box<[u64; 32]>,
    },
    /// A guest store was about to write a page holding translated source
    /// code (self-modifying code). The store has **not** executed; the VM
    /// invalidates the affected fragments and re-runs the store
    /// interpretively from `vaddr` with the recovered precise state —
    /// exactly the precise-trap discipline, reused for invalidation.
    SmcStore {
        /// Guest address the store targets.
        addr: u64,
        /// Width of the store in bytes.
        len: u64,
        /// V-address of the store instruction (the resume point).
        vaddr: u64,
        /// Recovered architected registers (r0..r31) before the store.
        state: Box<[u64; 32]>,
    },
    /// The per-dispatch fuel budget ([`EngineConfig::fuel`]) ran out. The
    /// engine preempts only at fragment boundaries, where the GPR file is
    /// architecturally complete, so the VM resumes interpretively at
    /// `vtarget` with no recovery merge.
    Preempted {
        /// Entry V-address of the fragment that was about to run.
        vtarget: u64,
    },
    /// A structural invariant failed at runtime — a corrupted or stale
    /// fragment reached execution. The VM surfaces this as
    /// [`VmExit::Fault`](crate::VmExit::Fault).
    Fault {
        /// What failed.
        error: VmError,
    },
    /// A fragment's entry count just reached the region-promotion
    /// trigger ([`EngineConfig::region_trigger`]). Surfaced *before* the
    /// hot entry executes, at a fragment boundary where the GPR file is
    /// architecturally complete, so the VM can re-form a region around
    /// the fragment and resume at `vtarget` with no recovery merge.
    RegionHot {
        /// Entry V-address of the hot fragment.
        vtarget: u64,
    },
}

/// Execution statistics accumulated by the engine (the dynamic side of
/// Table 2 and Figure 7).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Total I-ISA instructions executed (including dispatch expansion).
    pub executed: u64,
    /// Chaining-overhead instructions executed (including dispatch).
    pub chain_executed: u64,
    /// Copy instructions executed.
    pub copies_executed: u64,
    /// V-ISA instructions retired by translated code.
    pub v_insts: u64,
    /// Dynamic usage-category counts (Figure 7), array-backed and shared
    /// with the static side via [`CategoryCounts`].
    pub categories: CategoryCounts,
    /// Shared-dispatch executions.
    pub dispatches: u64,
    /// Architectural dual-RAS predictions that matched.
    pub ras_hits: u64,
    /// Architectural dual-RAS mismatches (fell through to dispatch).
    pub ras_misses: u64,
    /// Fragment entries.
    pub fragment_entries: u64,
    /// Entries into re-formed region fragments (a subset of
    /// `fragment_entries`).
    pub region_entries: u64,
}

impl EngineStats {
    /// Dynamic count for one usage category.
    pub fn category(&self, cat: UsageCat) -> u64 {
        self.categories.category(cat)
    }

    /// Total classified values retired (the Figure 7 denominator).
    pub fn categories_total(&self) -> u64 {
        self.categories.total()
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Instructions charged per shared-dispatch execution (paper: 20).
    pub dispatch_cost: u32,
    /// Architectural dual-RAS depth.
    pub ras_depth: usize,
    /// Alignment policy for translated memory accesses.
    pub align: AlignPolicy,
    /// Watchdog fuel: the maximum V-ISA instructions one [`Engine::run`]
    /// dispatch may retire before being preempted at the next fragment
    /// boundary ([`FragExit::Preempted`]); the VM then demotes the
    /// dispatch's entry region. `None` disables the watchdog.
    pub fuel: Option<u64>,
    /// Fragment-entry count at which the engine surfaces
    /// [`FragExit::RegionHot`] so the VM can re-form a region around the
    /// hot fragment. The trigger compares with `==`, so it fires at most
    /// once per fragment: a promotion that fails (rejected, banned, or
    /// unmergeable) pushes the count past the trigger on re-entry and
    /// never re-fires. Region fragments themselves never re-trigger.
    /// `None` disables region promotion.
    pub region_trigger: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            dispatch_cost: DISPATCH_COST_INSTS,
            ras_depth: 8,
            align: AlignPolicy::Enforce,
            fuel: None,
            region_trigger: Some(4096),
        }
    }
}

/// Base address of the dispatch code's hash-table probes (for D-cache
/// behavior of the dispatch loads).
const DISPATCH_TABLE_BASE: u64 = 0xE000_0000;

/// One architectural dual-RAS entry: the architected (V, I) return-address
/// pair, plus a fast-path annotation — the fragment the I-address enters,
/// stamped with the cache epoch it was captured in. The link is followed
/// directly on a RAS hit when the epoch still matches; a stale or absent
/// link falls back to dispatch, exactly as the architected pair alone
/// would.
#[derive(Clone, Copy, Default, Debug)]
struct RasEntry {
    v: u64,
    i: u64,
    link: Option<FragmentId>,
    epoch: u64,
}

/// Retirement bookkeeping for the fragment [`Engine::run`] is executing.
///
/// Inside a fragment `idx` only moves forward, so the instructions a pass
/// executes are exactly `start..end` and their statistics are one
/// difference of the fragment's [`retire_prefix`] table. A pass ends at
/// every self-transfer and at every exit from the fragment.
///
/// [`retire_prefix`]: crate::Fragment::retire_prefix
struct Pass {
    /// Index the current pass began at: 0 on entry, the resume index
    /// after a self-transfer.
    start: usize,
    /// Self-transfer entries not yet added to the fragment's counter.
    entries: u64,
}

impl Pass {
    /// Charges the pass `start..end` to `stats`.
    #[inline]
    fn charge(&self, stats: &mut EngineStats, prefix: &[RetireSums], end: usize) {
        let (from, to) = (&prefix[self.start], &prefix[end]);
        stats.executed += (end - self.start) as u64;
        stats.v_insts += u64::from(to.vcount - from.vcount);
        stats.chain_executed += u64::from(to.chain - from.chain);
        stats.copies_executed += u64::from(to.copies - from.copies);
        for k in 0..UsageCat::COUNT {
            stats.categories.0[k] += u64::from(to.categories[k] - from.categories[k]);
        }
    }

    /// Leaves the fragment: charges the last pass, which ends before
    /// index `end`, and books the batched self-transfer entries.
    #[inline]
    fn finish(
        self,
        stats: &mut EngineStats,
        cache: &mut TranslationCache,
        fid: FragmentId,
        end: usize,
    ) {
        let f = cache.fragment_mut(fid);
        f.entries += self.entries;
        self.charge(stats, &f.retire_prefix, end);
    }
}

/// The fragment execution engine. See the module documentation.
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    accs: [u64; Acc::MAX_ACCUMULATORS],
    ras: Vec<RasEntry>,
    ras_top: usize,
    ras_live: usize,
    /// Bytes written by `putchar`.
    pub output: Vec<u8>,
    /// Accumulated statistics.
    pub stats: EngineStats,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.ras_depth` is zero: the dual-address RAS needs
    /// at least one entry.
    pub fn new(config: EngineConfig) -> Engine {
        assert!(config.ras_depth > 0, "dual-RAS depth must be positive");
        Engine {
            config,
            accs: [0; Acc::MAX_ACCUMULATORS],
            ras: vec![RasEntry::default(); config.ras_depth],
            ras_top: 0,
            ras_live: 0,
            output: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    fn ras_push(&mut self, entry: RasEntry) {
        self.ras_top = (self.ras_top + 1) % self.ras.len();
        self.ras[self.ras_top] = entry;
        self.ras_live = (self.ras_live + 1).min(self.ras.len());
    }

    fn ras_pop(&mut self) -> Option<RasEntry> {
        if self.ras_live == 0 {
            return None;
        }
        let entry = self.ras[self.ras_top];
        self.ras_top = (self.ras_top + self.ras.len() - 1) % self.ras.len();
        self.ras_live -= 1;
        Some(entry)
    }

    /// Reads a lowered source operand of an op on accumulator `acc`.
    #[inline(always)]
    fn src(&self, src: Src, acc: Acc, cpu: &CpuState) -> u64 {
        match src {
            Src::Acc => self.accs[acc.index()],
            Src::Gpr(r) => cpu.read_live(r),
            Src::Imm(v) => v as i64 as u64,
        }
    }

    /// Reads an ALU op's two operands.
    #[inline(always)]
    fn operands(&self, a: Alu, cpu: &CpuState) -> (u64, u64) {
        (self.src(a.lhs, a.acc, cpu), self.src(a.rhs, a.acc, cpu))
    }

    /// Writes an op's result to its accumulator and, in the modified
    /// form, to its destination GPR.
    #[inline(always)]
    fn set(&mut self, acc: Acc, dst: Option<Reg>, value: u64, cpu: &mut CpuState) {
        self.accs[acc.index()] = value;
        if let Some(r) = dst {
            cpu.write_live(r, value);
        }
    }

    /// Recovers the full architected register state at a PEI (paper §2.2):
    /// the GPR file merged with accumulator-resident values.
    fn recover_state(
        &self,
        cache: &TranslationCache,
        fid: FragmentId,
        idx: u32,
        cpu: &CpuState,
    ) -> Box<[u64; 32]> {
        let mut state = Box::new(cpu.registers());
        if let Some(entries) = cache.fragment(fid).recovery.get(&idx) {
            for e in entries {
                state[e.reg.number() as usize] = self.accs[e.acc.index()];
            }
        }
        state
    }

    /// Models one pass through the shared dispatch code (paper: 20
    /// instructions, ending in the indirect jump that `no_pred` chaining
    /// stresses): charges its instruction cost to the statistics and, for
    /// tracing sinks, streams the dispatch sequence's retire records —
    /// `target_iaddr` is the I-address the final indirect jump lands on
    /// (`None` models a miss, which re-enters the dispatch address). The
    /// caller decides where control actually continues.
    fn run_dispatch<S: TraceSink>(
        &mut self,
        vtarget: u64,
        target_iaddr: Option<u64>,
        sink: &mut S,
    ) {
        self.stats.dispatches += 1;
        let n = self.config.dispatch_cost.max(2);
        self.stats.executed += n as u64;
        self.stats.chain_executed += n as u64;
        if !S::TRACING {
            return;
        }
        // A short dependence chain: hash the V-PC, probe the translation
        // table (two loads), compare, then jump indirect.
        let hash = vtarget.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48;
        let probe = DISPATCH_TABLE_BASE + (hash & 0xfff) * 16;
        for k in 0..n {
            let pc = DISPATCH_IADDR + (k as u64) * 4;
            let mut d = DynInst::alu(pc, 4);
            d.vcount = 0;
            // Thread a dependence chain through scratch register names
            // 200.. so the dispatch has realistic ILP (~4-deep chain).
            let scratch = 200 + (k % 4) as u8;
            d.dst = Some(scratch);
            if k > 0 {
                d.srcs[0] = Some(200 + ((k - 1) % 4) as u8);
            }
            if k == 2 || k == 3 {
                d.class = InstClass::Load;
                d.mem_addr = Some(probe + (k as u64 - 2) * 8);
            }
            if k == n - 1 {
                d.class = InstClass::IndirectJump;
                d.dst = None;
                d.next_pc = target_iaddr.unwrap_or(DISPATCH_IADDR);
                d.taken = true;
            }
            sink.retire(&d);
        }
    }

    /// Executes translated code starting at `entry` until the program
    /// halts, traps, or reaches an untranslated continuation.
    ///
    /// `cpu` is the architected GPR file (`cpu.pc` is not used while in
    /// translated code — the implementation PC sequences fragments, as in
    /// the paper's §2.2).
    ///
    /// Monomorphized over the sink: with a non-tracing sink
    /// ([`NullSink`]), record construction compiles out entirely.
    pub fn run<S: TraceSink>(
        &mut self,
        cache: &mut TranslationCache,
        entry: FragmentId,
        cpu: &mut CpuState,
        mem: &mut Memory,
        budget_v: u64,
        sink: &mut S,
    ) -> FragExit {
        let mut fid = entry;
        // Watchdog: preempt at the next fragment boundary once this many
        // V-instructions have retired in this dispatch.
        let fuel_limit = self.config.fuel.map(|f| self.stats.v_insts + f.max(1));
        // Every transfer of control *between* fragments converges on the
        // top of this loop: it books fragment entries and re-borrows the
        // new fragment's instruction / metadata / link / template slices
        // once, so the per-instruction loop below indexes flat slices
        // instead of re-resolving the fragment through the cache on every
        // iteration. Self-transfers (the hot shape after region
        // re-formation) take a fast path at the bottom of the inner loop
        // that restarts at index 0 with the slices already in hand.
        'fragment: loop {
            // A stale direct path into an invalidated slot is a contained
            // fault, not a panic: the unlink paths should make this
            // unreachable, but a resilient engine verifies.
            let vstart = match cache.try_fragment_mut(fid) {
                None => {
                    return FragExit::Fault {
                        error: VmError::DeadFragment { fragment: fid.0 },
                    }
                }
                Some(f) => f.vstart,
            };
            // Budget and fuel are checked only at fragment boundaries,
            // where the GPR file is architecturally complete and the
            // V-PC is the fragment entry — both exits leave the VM
            // resumable. Every inter-fragment transfer converges on this
            // loop top and `idx` below only moves forward, so the
            // overshoot is bounded by one fragment.
            if self.stats.v_insts >= budget_v {
                cpu.pc = vstart;
                return FragExit::Budget;
            }
            if let Some(limit) = fuel_limit {
                if self.stats.v_insts >= limit {
                    return FragExit::Preempted { vtarget: vstart };
                }
            }
            let (base_entries, is_region) = {
                let f = cache.fragment_mut(fid);
                f.entries += 1;
                f.referenced = true;
                (f.entries, f.is_region)
            };
            if is_region {
                self.stats.region_entries += 1;
            } else if self.config.region_trigger == Some(base_entries) {
                // The hot entry is counted but has not executed: the VM
                // re-forms the region and resumes at the boundary. A
                // failed promotion re-enters past the trigger, so this
                // fires at most once per fragment.
                return FragExit::RegionHot { vtarget: vstart };
            }
            self.stats.fragment_entries += 1;
            let frag = cache.fragment(fid);
            // The engine runs the fragment's lowered ops; `insts` is read
            // only to patch trace records. Reslicing the parallel arrays to
            // the op count lets the loop below index them without further
            // bounds checks once `ops.get(idx)` has succeeded.
            let ops = frag.ops.as_slice();
            let insts = &frag.insts.as_slice()[..ops.len()];
            let metas = &frag.meta.as_slice()[..ops.len()];
            let templates = &frag.templates.as_slice()[..ops.len()];
            let prefix = &frag.retire_prefix.as_slice()[..=ops.len()];
            // Self-transfers (a fragment branching back to its own head,
            // the shape every re-formed loop region resolves to) restart
            // the instruction loop below without re-entering `'fragment`;
            // their entries are batched in `pass` and flushed into the
            // fragment's counter at every exit from the loop.
            let mut pass = Pass {
                start: 0,
                entries: 0,
            };
            // Resume index for self-transfers: past the leading
            // `set-vpc-base` (always emitted first), which only re-asserts
            // the base address a self-loop already has.
            let loop_entry = usize::from(matches!(insts.first(), Some(IInst::SetVpcBase { .. })));
            let mut idx: usize = 0;
            loop {
                let Some(&op) = ops.get(idx) else {
                    // Ran off the fragment's end without a block terminal —
                    // only reachable through corruption.
                    pass.finish(&mut self.stats, cache, fid, idx);
                    return FragExit::Fault {
                        error: VmError::FragmentOverrun { fragment: fid.0 },
                    };
                };

                // The install-time template carries every static record field;
                // only dynamic outcomes (taken, mem_addr, v_target, the taken
                // next_pc) are patched below.
                let mut d = if S::TRACING {
                    templates[idx]
                } else {
                    DynInst::alu(0, 0)
                };

                // Retires the op and falls through to the next one.
                macro_rules! next {
                    () => {{
                        if S::TRACING {
                            sink.retire(&d);
                        }
                        idx += 1;
                        continue;
                    }};
                }
                // Retires the op and leaves the engine with `exit`.
                macro_rules! leave {
                    ($exit:expr) => {{
                        let exit = $exit;
                        if S::TRACING {
                            sink.retire(&d);
                        }
                        pass.finish(&mut self.stats, cache, fid, idx + 1);
                        return exit;
                    }};
                }
                // Retires the op, then runs the shared dispatch code for
                // V-address `v` and continues at its fragment, if any.
                macro_rules! dispatch {
                    ($v:expr) => {{
                        let v = $v;
                        if S::TRACING {
                            sink.retire(&d);
                        }
                        pass.finish(&mut self.stats, cache, fid, idx + 1);
                        let target = cache.lookup(v);
                        let ti = target.map(|t| cache.fragment(t).istart);
                        self.run_dispatch(v, ti, sink);
                        match target {
                            Some(t) => {
                                fid = t;
                                continue 'fragment;
                            }
                            None => return FragExit::NotTranslated { vtarget: v },
                        }
                    }};
                }

                // Every arm either falls through (`next!`), leaves the
                // engine, or yields the fragment a taken transfer enters.
                let target = match op {
                    Op::Nop => next!(),
                    Op::Addq(a) => {
                        let (lhs, rhs) = self.operands(a, cpu);
                        self.set(a.acc, a.dst, lhs.wrapping_add(rhs), cpu);
                        next!()
                    }
                    Op::Subq(a) => {
                        let (lhs, rhs) = self.operands(a, cpu);
                        self.set(a.acc, a.dst, lhs.wrapping_sub(rhs), cpu);
                        next!()
                    }
                    Op::Alu(op, a) => {
                        let (lhs, rhs) = self.operands(a, cpu);
                        self.set(a.acc, a.dst, op.eval(lhs, rhs), cpu);
                        next!()
                    }
                    Op::Cmov(op, a) => {
                        // Defensive: cmov ops in Op form select against the
                        // current accumulator value.
                        let (lhs, rhs) = self.operands(a, cpu);
                        let keep = self.accs[a.acc.index()];
                        let result = if op.cmov_taken(lhs) { rhs } else { keep };
                        self.set(a.acc, a.dst, result, cpu);
                        next!()
                    }
                    Op::CmovSelect {
                        acc,
                        lbs,
                        value,
                        old,
                        dst,
                    } => {
                        let taken = (self.accs[acc.index()] & 1 == 1) == lbs;
                        let result = self.src(if taken { value } else { old }, acc, cpu);
                        self.set(acc, dst, result, cpu);
                        next!()
                    }
                    Op::Load {
                        acc,
                        width,
                        addr,
                        disp,
                        dst,
                    } => {
                        let a = self.src(addr, acc, cpu).wrapping_add(disp as i64 as u64);
                        if let Err(trap) = check_align(a, width, self.config.align) {
                            leave!(FragExit::Trap {
                                vaddr: metas[idx].vaddr,
                                trap,
                                state: self.recover_state(cache, fid, idx as u32, cpu),
                            })
                        }
                        if S::TRACING {
                            d.mem_addr = Some(a);
                        }
                        let v = match width {
                            MemWidth::U8 => mem.read_u8(a) as u64,
                            MemWidth::U16 => mem.read_u16(a) as u64,
                            MemWidth::I32 => mem.read_u32(a) as i32 as i64 as u64,
                            MemWidth::U64 => mem.read_u64(a),
                        };
                        self.set(acc, dst, v, cpu);
                        next!()
                    }
                    Op::Store {
                        acc,
                        width,
                        addr,
                        disp,
                        value,
                    } => {
                        let a = self.src(addr, acc, cpu).wrapping_add(disp as i64 as u64);
                        if let Err(trap) = check_align(a, width, self.config.align) {
                            leave!(FragExit::Trap {
                                vaddr: metas[idx].vaddr,
                                trap,
                                state: self.recover_state(cache, fid, idx as u32, cpu),
                            })
                        }
                        let len = width.bytes() as u64;
                        if cache.smc_hit(a, len) {
                            // Self-modifying code: surface the store
                            // *before* it executes, with precise state (the
                            // store's recovery table), and leave it
                            // unretired: the pass ends before it, and the VM
                            // re-runs it interpretively after invalidating
                            // the affected fragments.
                            let exit = FragExit::SmcStore {
                                addr: a,
                                len,
                                vaddr: metas[idx].vaddr,
                                state: self.recover_state(cache, fid, idx as u32, cpu),
                            };
                            pass.finish(&mut self.stats, cache, fid, idx);
                            return exit;
                        }
                        if S::TRACING {
                            d.mem_addr = Some(a);
                        }
                        let v = self.src(value, acc, cpu);
                        match width {
                            MemWidth::U8 => mem.write_u8(a, v as u8),
                            MemWidth::U16 => mem.write_u16(a, v as u16),
                            MemWidth::I32 => mem.write_u32(a, v as u32),
                            MemWidth::U64 => mem.write_u64(a, v),
                        }
                        next!()
                    }
                    Op::CopyToGpr { acc, dst } => {
                        cpu.write_live(dst, self.accs[acc.index()]);
                        next!()
                    }
                    Op::CopyFromGpr { acc, src } => {
                        self.accs[acc.index()] = cpu.read_live(src);
                        next!()
                    }
                    Op::SetAcc { acc, value } => {
                        self.accs[acc.index()] = value;
                        next!()
                    }
                    Op::SetGpr { dst, value } => {
                        cpu.write_live(dst, value);
                        next!()
                    }
                    Op::CondBranch {
                        acc,
                        cond,
                        src,
                        link,
                    } => {
                        if !cond.eval(self.src(src, acc, cpu)) {
                            next!()
                        }
                        if S::TRACING {
                            d.taken = true;
                            if let IInst::CondBranch {
                                target: ITarget::Addr(a),
                                ..
                            } = insts[idx]
                            {
                                d.next_pc = a;
                            }
                        }
                        link
                    }
                    Op::CondBranchUnlinked { acc, cond, src } => {
                        if !cond.eval(self.src(src, acc, cpu)) {
                            next!()
                        }
                        // Every resolved branch keeps its direct link in
                        // lockstep with the instruction word; a missing link
                        // means the target fragment vanished without this
                        // site being un-patched.
                        leave!(fault_exit(Fault::UnlinkedTransfer, fid, idx))
                    }
                    // class, taken and next_pc are static — already in the
                    // template.
                    Op::Branch { link } => link,
                    Op::Ret { acc, addr } => {
                        let actual_v = self.src(addr, acc, cpu) & !3u64;
                        if S::TRACING {
                            d.v_target = actual_v;
                        }
                        match self.ras_pop() {
                            Some(e) if e.v == actual_v => {
                                self.stats.ras_hits += 1;
                                if S::TRACING {
                                    d.taken = true;
                                    d.next_pc = e.i;
                                }
                                // The direct link is valid only within the
                                // epoch it was captured in: a stale link (the
                                // cache was flushed since the push) and an
                                // unresolved push (no link) both go through
                                // dispatch, architecturally correct either way.
                                match e.link.filter(|_| e.epoch == cache.epoch()) {
                                    Some(t) => t,
                                    None => dispatch!(actual_v),
                                }
                            }
                            _ => {
                                // Mismatch: fall through to the dispatch
                                // instruction that follows the return (the
                                // template's taken stays false).
                                self.stats.ras_misses += 1;
                                next!()
                            }
                        }
                    }
                    // class and ras_pair are static — in the template.
                    Op::PushRas { vret, iret } => {
                        self.ras_push(RasEntry {
                            v: vret,
                            i: iret,
                            link: None,
                            epoch: cache.epoch(),
                        });
                        next!()
                    }
                    Op::PushRasLinked { vret, iret, link } => {
                        self.ras_push(RasEntry {
                            v: vret,
                            i: iret,
                            link: Some(link),
                            epoch: cache.epoch(),
                        });
                        next!()
                    }
                    Op::ExitIf {
                        acc,
                        cond,
                        src,
                        vtarget,
                    } => {
                        if !cond.eval(self.src(src, acc, cpu)) {
                            next!()
                        }
                        if S::TRACING {
                            d.taken = true;
                            d.next_pc = DISPATCH_IADDR;
                        }
                        leave!(FragExit::NotTranslated { vtarget })
                    }
                    // class, taken and next_pc are static — in the template.
                    Op::Exit { vtarget } => leave!(FragExit::NotTranslated { vtarget }),
                    Op::Dispatch { acc, src } => dispatch!(self.src(src, acc, cpu) & !3u64),
                    Op::GenTrap => {
                        let state = self.recover_state(cache, fid, idx as u32, cpu);
                        leave!(FragExit::Trap {
                            vaddr: metas[idx].vaddr,
                            trap: Trap::GenTrap {
                                code: state[Reg::A0.number() as usize],
                            },
                            state,
                        })
                    }
                    Op::PutChar { acc, src } => {
                        let b = self.src(src, acc, cpu) as u8;
                        self.output.push(b);
                        next!()
                    }
                    Op::Halt => leave!(FragExit::Halt),
                    Op::Fault(fault) => leave!(fault_exit(fault, fid, idx)),
                };

                // A taken transfer to `target`.
                if S::TRACING {
                    sink.retire(&d);
                }
                if target != fid {
                    pass.finish(&mut self.stats, cache, fid, idx + 1);
                    fid = target;
                    continue 'fragment;
                }
                // Self-transfer fast path: the target is the fragment
                // already resident in the loop's slices, so restart at index
                // 0 without re-borrowing it — keeping the boundary checks
                // and the entry accounting the loop top would have
                // performed. The GPR file is architecturally complete here
                // (every fragment entry assumes it), so budget, fuel, and
                // region-hot exits stay resumable (their empty last pass
                // charges nothing).
                pass.charge(&mut self.stats, prefix, idx + 1);
                pass.start = loop_entry;
                if self.stats.v_insts >= budget_v {
                    pass.finish(&mut self.stats, cache, fid, loop_entry);
                    cpu.pc = vstart;
                    return FragExit::Budget;
                }
                if let Some(limit) = fuel_limit {
                    if self.stats.v_insts >= limit {
                        pass.finish(&mut self.stats, cache, fid, loop_entry);
                        return FragExit::Preempted { vtarget: vstart };
                    }
                }
                pass.entries += 1;
                if is_region {
                    self.stats.region_entries += 1;
                } else if self.config.region_trigger == Some(base_entries + pass.entries) {
                    pass.finish(&mut self.stats, cache, fid, loop_entry);
                    return FragExit::RegionHot { vtarget: vstart };
                }
                self.stats.fragment_entries += 1;
                // The leading `set-vpc-base` is a no-op on a self-transfer —
                // the base it would set is already in force — so resume past
                // it.
                idx = loop_entry;
            }
        }
    }

    /// Severs every engine-side fast path into an invalidated fragment:
    /// dual-RAS entries whose direct link names it lose the link and fall
    /// back to dispatch on a hit. The architected (V, I) pair is kept —
    /// the stale I-address simply misses the lookup map, exactly as after
    /// a flush.
    pub fn unlink_fragment(&mut self, id: FragmentId) {
        for e in &mut self.ras {
            if e.link == Some(id) {
                e.link = None;
            }
        }
    }
}

/// The exit for a structural fault raised by the op at `idx`.
fn fault_exit(fault: Fault, fid: FragmentId, idx: usize) -> FragExit {
    let (fragment, index) = (fid.0, idx as u32);
    FragExit::Fault {
        error: match fault {
            Fault::UnlinkedTransfer => VmError::UnlinkedTransfer { fragment, index },
            Fault::UnresolvedDualRas => VmError::UnresolvedDualRas { fragment, index },
        },
    }
}

fn check_align(addr: u64, width: MemWidth, policy: AlignPolicy) -> Result<(), Trap> {
    let bytes = width.bytes();
    if policy == AlignPolicy::Enforce && bytes > 1 && !addr.is_multiple_of(bytes as u64) {
        return Err(Trap::UnalignedAccess {
            addr,
            required: bytes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::IMeta;
    use alpha_isa::{IdMap, JumpKind, OperateOp};
    use ildp_isa::{ASrc, CondKind, IsaForm};

    /// A sink that records every retired instruction.
    #[derive(Default)]
    struct Recorder(Vec<DynInst>);

    impl TraceSink for Recorder {
        fn retire(&mut self, inst: &DynInst) {
            self.0.push(*inst);
        }
    }

    fn meta(vaddr: u64, vcount: u16) -> IMeta {
        IMeta {
            vaddr,
            vcount,
            category: None,
            is_chain: false,
        }
    }

    fn install_simple(cache: &mut TranslationCache, vstart: u64, insts: Vec<IInst>) -> FragmentId {
        let m: Vec<IMeta> = insts.iter().map(|_| meta(vstart, 1)).collect();
        let n = insts.len() as u32;
        cache.install(vstart, IsaForm::Modified, insts, m, n, IdMap::default())
    }

    #[test]
    fn dispatch_expands_to_configured_cost() {
        let mut cache = TranslationCache::new();
        // Fragment A dispatches to V-address 0x2000; fragment B is there.
        install_simple(
            &mut cache,
            0x2000,
            vec![IInst::SetVpcBase { vaddr: 0x2000 }, IInst::Halt],
        );
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(0),
                    lhs: ASrc::Imm(0x2000),
                    rhs: ASrc::Imm(0),
                    dst: Some(Reg::new(5)),
                },
                IInst::Dispatch {
                    acc: Acc::new(0),
                    src: ASrc::Gpr(Reg::new(5)),
                },
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let mut rec = Recorder::default();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut rec);
        assert_eq!(exit, FragExit::Halt);
        assert_eq!(engine.stats.dispatches, 1);
        // The dispatch expansion contributes exactly DISPATCH_COST_INSTS
        // records at the shared dispatch PC range.
        let dispatch_records = rec
            .0
            .iter()
            .filter(|d| d.pc >= DISPATCH_IADDR && d.pc < DISPATCH_IADDR + 0x1000)
            .count();
        assert_eq!(dispatch_records, DISPATCH_COST_INSTS as usize);
        // Its final record is the shared indirect jump, landing on B.
        let last = rec
            .0
            .iter()
            .rev()
            .find(|d| d.pc >= DISPATCH_IADDR && d.pc < DISPATCH_IADDR + 0x1000)
            .unwrap();
        assert_eq!(last.class, InstClass::IndirectJump);
    }

    #[test]
    fn dispatch_to_untranslated_returns_vtarget() {
        let mut cache = TranslationCache::new();
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(0),
                    lhs: ASrc::Imm(0x44),
                    rhs: ASrc::Imm(0),
                    dst: Some(Reg::new(5)),
                },
                IInst::Dispatch {
                    acc: Acc::new(0),
                    src: ASrc::Gpr(Reg::new(5)),
                },
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut NullSink);
        assert_eq!(exit, FragExit::NotTranslated { vtarget: 0x44 });
    }

    #[test]
    fn architectural_ras_round_trip() {
        let entry = |v, i| RasEntry {
            v,
            i,
            link: None,
            epoch: 0,
        };
        let mut engine = Engine::new(EngineConfig::default());
        engine.ras_push(entry(0x10, 0x100));
        engine.ras_push(entry(0x20, 0x200));
        let top = engine.ras_pop().unwrap();
        assert_eq!((top.v, top.i), (0x20, 0x200));
        let next = engine.ras_pop().unwrap();
        assert_eq!((next.v, next.i), (0x10, 0x100));
        assert!(engine.ras_pop().is_none());
    }

    #[test]
    fn putchar_collects_output() {
        let mut cache = TranslationCache::new();
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::Op {
                    op: OperateOp::Addq,
                    acc: Acc::new(1),
                    lhs: ASrc::Imm(b'h' as i16),
                    rhs: ASrc::Imm(0),
                    dst: None,
                },
                IInst::PutChar {
                    acc: Acc::new(1),
                    src: ASrc::Acc,
                },
                IInst::Halt,
            ],
        );
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        engine.run(&mut cache, a, &mut cpu, &mut mem, u64::MAX, &mut NullSink);
        assert_eq!(engine.output, b"h");
    }

    #[test]
    fn budget_stops_infinite_fragment_loops() {
        let mut cache = TranslationCache::new();
        // A fragment that branches back to itself forever.
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslator { vtarget: 0x1000 }, // self-patch on install
        ];
        let m: Vec<IMeta> = vec![meta(0x1000, 1), meta(0x1000, 3)];
        let a = cache.install(0x1000, IsaForm::Modified, insts, m, 2, IdMap::default());
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let exit = engine.run(&mut cache, a, &mut cpu, &mut mem, 500, &mut NullSink);
        assert_eq!(exit, FragExit::Budget);
        // The budget is checked after every pass, so it overshoots by less
        // than one pass of the fragment (4 V-instructions; a self-transfer
        // pass skips the leading `set-vpc-base` and retires 3).
        let one_pass = u64::from(cache.fragment(a).retire_prefix[2].vcount);
        assert_eq!(one_pass, 4);
        assert!(
            (500..500 + one_pass).contains(&engine.stats.v_insts),
            "v_insts {} overshoots the budget by a pass or more",
            engine.stats.v_insts
        );
    }

    /// Metadata varied by index: vcounts of 0–2, chain instructions, every
    /// usage category and unclassified instructions all occur, so a charge
    /// off by one index or one field shows in the totals.
    fn rich_meta(vstart: u64, k: usize) -> IMeta {
        IMeta {
            vaddr: vstart + 4 * k as u64,
            vcount: [1, 0, 2][k % 3],
            category: (k % 4 != 3).then(|| UsageCat::ALL[k % UsageCat::COUNT]),
            is_chain: k % 5 == 4,
        }
    }

    fn install_rich(cache: &mut TranslationCache, vstart: u64, insts: Vec<IInst>) -> FragmentId {
        let m = (0..insts.len()).map(|k| rich_meta(vstart, k)).collect();
        let n = insts.len() as u32;
        cache.install(vstart, IsaForm::Modified, insts, m, n, IdMap::default())
    }

    fn op(acc: u8, lhs: ASrc, imm: i16, dst: Option<u8>) -> IInst {
        IInst::Op {
            op: OperateOp::Addq,
            acc: Acc::new(acc),
            lhs,
            rhs: ASrc::Imm(imm),
            dst: dst.map(Reg::new),
        }
    }

    /// Straight-line work: ALU ops and both copy directions.
    fn work() -> Vec<IInst> {
        vec![
            op(1, ASrc::Gpr(Reg::new(2)), 5, None),
            IInst::CopyToGpr {
                acc: Acc::new(1),
                dst: Reg::new(2),
            },
            IInst::CopyFromGpr {
                acc: Acc::new(2),
                src: Reg::new(2),
            },
            op(2, ASrc::Acc, -1, Some(3)),
        ]
    }

    /// A fragment at `vstart` whose body increments `r1` and branches back
    /// to itself while `r1 < until`, then falls through into `tail`.
    fn looped(vstart: u64, until: i16, tail: Vec<IInst>) -> Vec<IInst> {
        let mut insts = vec![
            IInst::SetVpcBase { vaddr: vstart },
            op(0, ASrc::Gpr(Reg::new(1)), 1, Some(1)),
        ];
        insts.extend(work());
        insts.push(op(0, ASrc::Gpr(Reg::new(1)), -until, None));
        // Patched into a self-branch on install.
        insts.push(IInst::CallTranslatorIfCond {
            cond: CondKind::Lt,
            acc: Acc::new(0),
            src: ASrc::Acc,
            vtarget: vstart,
        });
        insts.extend(tail);
        insts
    }

    /// A fragment at `vstart` that branches back to itself forever.
    fn endless(vstart: u64) -> Vec<IInst> {
        let mut insts = vec![IInst::SetVpcBase { vaddr: vstart }];
        insts.extend(work());
        insts.push(IInst::CallTranslator { vtarget: vstart });
        insts
    }

    fn then_halt(mut insts: Vec<IInst>) -> Vec<IInst> {
        insts.push(IInst::Halt);
        insts
    }

    /// A fragment at `vstart` that does some work and halts.
    fn leaf(vstart: u64) -> Vec<IInst> {
        let mut insts = vec![IInst::SetVpcBase { vaddr: vstart }];
        insts.extend(work());
        then_halt(insts)
    }

    /// Independent oracle for the pass-charged statistics: recounts them
    /// from the retired-record stream, mapping every record's PC back
    /// through the fragments' `iaddrs` to its metadata and instruction
    /// (shared-dispatch records are all chaining overhead).
    fn assert_charges_match_records(engine: &Engine, cache: &TranslationCache, rec: &Recorder) {
        let mut want = EngineStats::default();
        for d in &rec.0 {
            want.executed += 1;
            if (DISPATCH_IADDR..DISPATCH_IADDR + 0x1000).contains(&d.pc) {
                want.chain_executed += 1;
                continue;
            }
            let (f, k) = cache
                .fragments()
                .find_map(|f| f.iaddrs.iter().position(|&a| a == d.pc).map(|k| (f, k)))
                .unwrap_or_else(|| panic!("record pc {:#x} is no installed instruction", d.pc));
            let m = f.meta[k];
            want.v_insts += u64::from(m.vcount);
            want.chain_executed += u64::from(m.is_chain);
            if matches!(
                f.insts[k],
                IInst::CopyToGpr { .. } | IInst::CopyFromGpr { .. }
            ) {
                want.copies_executed += 1;
            }
            if let Some(cat) = m.category {
                want.categories.bump(cat);
            }
        }
        let got = &engine.stats;
        assert_eq!(got.executed, rec.0.len() as u64, "executed == records");
        let record_v: u64 = rec.0.iter().map(|d| u64::from(d.vcount)).sum();
        assert_eq!(got.v_insts, record_v, "v_insts == sum of record vcounts");
        assert_eq!(got.v_insts, want.v_insts, "v_insts");
        assert_eq!(got.chain_executed, want.chain_executed, "chain");
        assert_eq!(got.copies_executed, want.copies_executed, "copies");
        assert_eq!(got.categories, want.categories, "categories");
        // Every scenario retires copies, chain instructions and
        // classified values, so none of the comparisons is vacuous.
        assert!(want.copies_executed > 0 && want.chain_executed > 0);
        assert!(want.categories.total() > 0);
    }

    struct Run {
        engine: Engine,
        cpu: CpuState,
        mem: Memory,
        rec: Recorder,
    }

    impl Run {
        fn new(config: EngineConfig) -> Run {
            Run {
                engine: Engine::new(config),
                cpu: CpuState::new(0),
                mem: Memory::new(),
                rec: Recorder::default(),
            }
        }

        fn go(&mut self, cache: &mut TranslationCache, entry: FragmentId, budget: u64) -> FragExit {
            let exit = self.engine.run(
                cache,
                entry,
                &mut self.cpu,
                &mut self.mem,
                budget,
                &mut self.rec,
            );
            assert_charges_match_records(&self.engine, cache, &self.rec);
            exit
        }
    }

    #[test]
    fn pass_charge_on_mid_fragment_trap() {
        let mut cache = TranslationCache::new();
        let mut tail = work();
        tail.push(IInst::Load {
            acc: Acc::new(3),
            width: MemWidth::U64,
            addr: ASrc::Imm(0x101),
            disp: 0,
            dst: None,
        });
        tail.extend(work());
        let trap_idx = 8 + 4;
        let f = install_rich(&mut cache, 0x1000, then_halt(looped(0x1000, 3, tail)));
        let mut run = Run::new(EngineConfig::default());
        match run.go(&mut cache, f, u64::MAX) {
            FragExit::Trap { vaddr, .. } => assert_eq!(vaddr, 0x1000 + 4 * trap_idx),
            other => panic!("expected a trap, got {other:?}"),
        }
        assert_eq!(run.cpu.read(Reg::new(1)), 3);
    }

    #[test]
    fn pass_charge_on_smc_store_rollback() {
        let mut cache = TranslationCache::new();
        let mut tail = work();
        // Writes the fragment's own source page.
        tail.push(IInst::Store {
            acc: Acc::new(3),
            width: MemWidth::U64,
            addr: ASrc::Imm(0x1008),
            disp: 0,
            value: ASrc::Gpr(Reg::new(1)),
        });
        tail.extend(work());
        let f = install_rich(&mut cache, 0x1000, then_halt(looped(0x1000, 3, tail)));
        let mut run = Run::new(EngineConfig::default());
        let exit = run.go(&mut cache, f, u64::MAX);
        assert!(
            matches!(exit, FragExit::SmcStore { addr: 0x1008, .. }),
            "{exit:?}"
        );
        assert_eq!(run.mem.read_u64(0x1008), 0, "the store did not execute");
    }

    #[test]
    fn pass_charge_on_dispatch_and_direct_goto() {
        let mut cache = TranslationCache::new();
        install_rich(&mut cache, 0x2000, leaf(0x2000));
        // E runs 4 passes, then branches directly (a patched
        // call-translator) to F; F continues the shared counter for 2 more
        // passes, then dispatches to G.
        let f = install_rich(
            &mut cache,
            0x1000,
            looped(
                0x1000,
                6,
                vec![
                    op(0, ASrc::Imm(0x2000), 0, Some(5)),
                    IInst::Dispatch {
                        acc: Acc::new(0),
                        src: ASrc::Gpr(Reg::new(5)),
                    },
                ],
            ),
        );
        let e = install_rich(
            &mut cache,
            0x3000,
            looped(0x3000, 4, vec![IInst::CallTranslator { vtarget: 0x1000 }]),
        );
        assert_eq!(cache.fragment(e).links.last(), Some(&Some(f)));
        let mut run = Run::new(EngineConfig::default());
        assert_eq!(run.go(&mut cache, e, u64::MAX), FragExit::Halt);
        assert_eq!(run.engine.stats.dispatches, 1);
        assert_eq!(run.engine.stats.fragment_entries, 4 + 2 + 1);
    }

    #[test]
    fn pass_charge_on_ras_hits_with_live_and_stale_links() {
        for stale in [true, false] {
            let mut cache = TranslationCache::new();
            install_rich(&mut cache, 0x3000, leaf(0x3000));
            // A pushes the (0x3000, R) return pair, then leaves for the
            // untranslated 0x5000.
            let push = IInst::PushDualRas {
                vret: 0x3000,
                iret: ITarget::Addr(DISPATCH_IADDR),
            };
            let a = install_rich(
                &mut cache,
                0x1000,
                looped(
                    0x1000,
                    2,
                    vec![push, IInst::CallTranslator { vtarget: 0x5000 }],
                ),
            );
            let mut run = Run::new(EngineConfig::default());
            let exit = run.go(&mut cache, a, u64::MAX);
            assert_eq!(exit, FragExit::NotTranslated { vtarget: 0x5000 });
            if stale {
                cache.force_epoch_bump();
            }
            // C returns to 0x3000: a RAS hit that follows the live link
            // directly, or falls back to dispatch once the link is stale.
            let mut ret = vec![IInst::SetVpcBase { vaddr: 0x5000 }];
            ret.extend(work());
            ret.extend([
                op(0, ASrc::Imm(0x3000), 0, None),
                IInst::IndirectJump {
                    kind: JumpKind::Ret,
                    acc: Acc::new(0),
                    addr: ASrc::Acc,
                },
                IInst::Dispatch {
                    acc: Acc::new(0),
                    src: ASrc::Acc,
                },
            ]);
            let c = install_rich(&mut cache, 0x5000, ret);
            assert_eq!(run.go(&mut cache, c, u64::MAX), FragExit::Halt);
            assert_eq!(run.engine.stats.ras_hits, 1);
            assert_eq!(run.engine.stats.dispatches, u64::from(stale));
        }
    }

    #[test]
    fn pass_charge_on_self_transfer_budget_exit() {
        let mut cache = TranslationCache::new();
        let f = install_rich(&mut cache, 0x1000, endless(0x1000));
        let mut run = Run::new(EngineConfig::default());
        assert_eq!(run.go(&mut cache, f, 100), FragExit::Budget);
        assert_eq!(run.cpu.pc, 0x1000);
        assert_eq!(cache.fragment(f).entries, run.engine.stats.fragment_entries);
    }

    #[test]
    fn pass_charge_on_fuel_preemption() {
        let mut cache = TranslationCache::new();
        let f = install_rich(&mut cache, 0x1000, endless(0x1000));
        let mut run = Run::new(EngineConfig {
            fuel: Some(50),
            ..EngineConfig::default()
        });
        let exit = run.go(&mut cache, f, u64::MAX);
        assert_eq!(exit, FragExit::Preempted { vtarget: 0x1000 });
        assert!(run.engine.stats.v_insts >= 50);
    }

    #[test]
    fn pass_charge_on_region_hot_self_transfer() {
        let mut cache = TranslationCache::new();
        let f = install_rich(&mut cache, 0x1000, endless(0x1000));
        let mut run = Run::new(EngineConfig {
            region_trigger: Some(5),
            ..EngineConfig::default()
        });
        let exit = run.go(&mut cache, f, u64::MAX);
        assert_eq!(exit, FragExit::RegionHot { vtarget: 0x1000 });
        // The hot (fifth) entry is booked but has not executed.
        assert_eq!(cache.fragment(f).entries, 5);
        assert_eq!(run.engine.stats.fragment_entries, 4);
    }

    #[test]
    fn pass_charge_on_fragment_overrun() {
        let mut cache = TranslationCache::new();
        let f = install_rich(&mut cache, 0x1000, looped(0x1000, 2, work()));
        let mut run = Run::new(EngineConfig::default());
        let exit = run.go(&mut cache, f, u64::MAX);
        assert_eq!(
            exit,
            FragExit::Fault {
                error: VmError::FragmentOverrun { fragment: f.0 }
            }
        );
    }

    #[test]
    #[should_panic(expected = "dual-RAS depth must be positive")]
    fn zero_ras_depth_rejected() {
        Engine::new(EngineConfig {
            ras_depth: 0,
            ..EngineConfig::default()
        });
    }

    /// Every slot that can name a GPR names `R31` once: reads see zero,
    /// writes are dropped (the raw register file's `R31` slot stays zero,
    /// which `CpuState`'s equality sees), and the op array carries the
    /// folded forms.
    #[test]
    fn r31_folds_to_zero_reads_and_dropped_writes() {
        let zero = Reg::ZERO;
        let a = Acc::new;
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            // acc0 <- r31 + 5, written to r31.
            IInst::Op {
                op: OperateOp::Addq,
                acc: a(0),
                lhs: ASrc::Gpr(zero),
                rhs: ASrc::Imm(5),
                dst: Some(zero),
            },
            IInst::CopyToGpr {
                acc: a(0),
                dst: zero,
            },
            // r3 <- 9 - r31.
            IInst::Op {
                op: OperateOp::Subq,
                acc: a(1),
                lhs: ASrc::Imm(9),
                rhs: ASrc::Gpr(zero),
                dst: Some(Reg::new(3)),
            },
            // acc2 <- r31, copied out to r4.
            IInst::CopyFromGpr {
                acc: a(2),
                src: zero,
            },
            IInst::CopyToGpr {
                acc: a(2),
                dst: Reg::new(4),
            },
            // acc2's low bit is clear, so r5 <- old value of r31.
            IInst::CmovSelect {
                acc: a(2),
                lbs: true,
                value: ASrc::Imm(7),
                old: zero,
                dst: Some(Reg::new(5)),
            },
            IInst::SaveVReturn {
                dst: zero,
                vaddr: 0x4444,
            },
            // mem[r31 + 0x100] <- 0x77, loaded back into r31 and acc3.
            IInst::Store {
                acc: a(3),
                width: MemWidth::U64,
                addr: ASrc::Gpr(zero),
                disp: 0x100,
                value: ASrc::Imm(0x77),
            },
            IInst::Load {
                acc: a(3),
                width: MemWidth::U64,
                addr: ASrc::Imm(0x100),
                disp: 0,
                dst: Some(zero),
            },
            IInst::CopyToGpr {
                acc: a(3),
                dst: Reg::new(6),
            },
            IInst::Halt,
        ];
        let mut cache = TranslationCache::new();
        let f = install_rich(&mut cache, 0x1000, insts);
        let ops = &cache.fragment(f).ops;
        assert_eq!(
            ops[1],
            Op::Addq(Alu {
                acc: a(0),
                lhs: Src::Imm(0),
                rhs: Src::Imm(5),
                dst: None
            })
        );
        assert_eq!(ops[2], Op::Nop);
        assert_eq!(
            ops[4],
            Op::SetAcc {
                acc: a(2),
                value: 0
            }
        );
        assert_eq!(ops[7], Op::Nop);
        assert!(matches!(
            ops[6],
            Op::CmovSelect {
                old: Src::Imm(0),
                ..
            }
        ));
        assert!(matches!(
            ops[8],
            Op::Store {
                addr: Src::Imm(0),
                ..
            }
        ));
        assert!(matches!(ops[9], Op::Load { dst: None, .. }));

        let mut run = Run::new(EngineConfig::default());
        for r in [3, 4, 5, 6] {
            run.cpu.write(Reg::new(r), 0xdead);
        }
        assert_eq!(run.go(&mut cache, f, u64::MAX), FragExit::Halt);
        let regs = run.cpu.registers();
        assert_eq!(&regs[3..=6], &[9, 0, 0, 0x77]);
        assert_eq!(run.mem.read_u64(0x100), 0x77);
        assert_eq!(run.engine.accs[0], 5);
        assert_eq!(run.cpu, CpuState::with_registers(run.cpu.pc, &regs));
    }

    /// A at 0x1000 sets r1 = r2 + 5 and acc0 = 1, then exits towards B
    /// at 0x2000 twice: conditionally on `cond` (slot 3), then always
    /// (slot 4). B halts. Both exits are linked to B on install.
    fn linked_pair(cond: CondKind) -> (TranslationCache, FragmentId) {
        let mut cache = TranslationCache::new();
        install_simple(
            &mut cache,
            0x2000,
            vec![IInst::SetVpcBase { vaddr: 0x2000 }, IInst::Halt],
        );
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::SetVpcBase { vaddr: 0x1000 },
                op(1, ASrc::Gpr(Reg::new(2)), 5, Some(1)),
                op(0, ASrc::Imm(1), 0, None),
                IInst::CallTranslatorIfCond {
                    cond,
                    acc: Acc::new(0),
                    src: ASrc::Acc,
                    vtarget: 0x2000,
                },
                IInst::CallTranslator { vtarget: 0x2000 },
            ],
        );
        let f = cache.fragment(a);
        assert!(matches!(f.insts[3], IInst::CondBranch { .. }));
        assert!(matches!(f.insts[4], IInst::Branch { .. }));
        (cache, a)
    }

    fn run_null(cache: &mut TranslationCache, entry: FragmentId) -> (FragExit, CpuState) {
        let mut engine = Engine::new(EngineConfig::default());
        let mut cpu = CpuState::new(0);
        let exit = engine.run(
            cache,
            entry,
            &mut cpu,
            &mut Memory::new(),
            u64::MAX,
            &mut NullSink,
        );
        (exit, cpu)
    }

    fn unlinked(a: FragmentId, index: u32) -> FragExit {
        FragExit::Fault {
            error: VmError::UnlinkedTransfer {
                fragment: a.0,
                index,
            },
        }
    }

    #[test]
    fn edited_away_link_faults_when_taken() {
        // The taken conditional branch, then the unconditional one (the
        // conditional, not taken, falls through to it).
        for (cond, slot) in [(CondKind::Ne, 3), (CondKind::Eq, 4)] {
            let (mut cache, a) = linked_pair(cond);
            assert_eq!(run_null(&mut cache, a).0, FragExit::Halt);
            cache.edit_fragment(a, |_, links| links[slot] = None);
            assert_eq!(run_null(&mut cache, a).0, unlinked(a, slot as u32));
        }
        // An unlinked conditional branch that is not taken is harmless.
        let (mut cache, a) = linked_pair(CondKind::Eq);
        cache.edit_fragment(a, |_, links| links[3] = None);
        assert_eq!(run_null(&mut cache, a).0, FragExit::Halt);
    }

    #[test]
    fn edited_poisoned_link_faults_dead_fragment() {
        let (mut cache, a) = linked_pair(CondKind::Ne);
        let bogus = FragmentId(u32::MAX - 1);
        cache.edit_fragment(a, |_, links| links[3] = Some(bogus));
        let exit = run_null(&mut cache, a).0;
        assert_eq!(
            exit,
            FragExit::Fault {
                error: VmError::DeadFragment { fragment: bogus.0 }
            }
        );
    }

    #[test]
    fn edited_unresolved_push_faults() {
        let mut cache = TranslationCache::new();
        install_simple(
            &mut cache,
            0x2000,
            vec![IInst::SetVpcBase { vaddr: 0x2000 }, IInst::Halt],
        );
        let a = install_simple(
            &mut cache,
            0x1000,
            vec![
                IInst::SetVpcBase { vaddr: 0x1000 },
                IInst::PushDualRas {
                    vret: 0x2000,
                    iret: ITarget::Addr(DISPATCH_IADDR),
                },
                IInst::Halt,
            ],
        );
        assert_eq!(run_null(&mut cache, a).0, FragExit::Halt);
        cache.edit_fragment(a, |insts, _| {
            insts[1] = IInst::PushDualRas {
                vret: 0x2000,
                iret: ITarget::Local(0),
            };
        });
        let exit = run_null(&mut cache, a).0;
        assert_eq!(
            exit,
            FragExit::Fault {
                error: VmError::UnresolvedDualRas {
                    fragment: a.0,
                    index: 1
                }
            }
        );
    }

    #[test]
    fn edited_immediate_changes_the_retired_result() {
        let (mut cache, a) = linked_pair(CondKind::Ne);
        let (exit, cpu) = run_null(&mut cache, a);
        assert_eq!((exit, cpu.read(Reg::new(1))), (FragExit::Halt, 5));
        cache.edit_fragment(a, |insts, _| {
            if let IInst::Op {
                rhs: ASrc::Imm(imm),
                ..
            } = &mut insts[1]
            {
                *imm ^= 3;
            }
        });
        let (exit, cpu) = run_null(&mut cache, a);
        assert_eq!((exit, cpu.read(Reg::new(1))), (FragExit::Halt, 6));
    }
}
