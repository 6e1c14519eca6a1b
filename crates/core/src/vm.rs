//! The co-designed virtual machine run loop (paper §4.1).
//!
//! Orchestrates the three modes: **interpret** (with candidate profiling),
//! **translate** (superblock collection → strand translation → fragment
//! installation and patching), and **execute** (the [`Engine`] running
//! translated code, streaming the retired-instruction trace into a timing
//! model). Matches the paper's simulation methodology: detailed timing is
//! collected for translated (and chained) code only, and the overall
//! performance metric is V-ISA instructions per cycle over that trace.

use crate::artifact::{artifact_key, ArtifactKey, FragmentArtifact, FragmentStore, StoreLookup};
use crate::cost::CostModel;
use crate::engine::{Engine, EngineConfig, FragExit, TraceSink};
use crate::error::{SnapshotError, VmError};
use crate::fragment::{FragmentId, TranslationCache};
use crate::profile::{
    collect_superblock_with_output, interp_step, Candidates, InterpEvent, ProfileConfig,
};
use crate::snapshot::{program_digest, Snapshot};
use crate::stats::VmStats;
use crate::translate::{ChainPolicy, TranslatedCode, Translator};
use alpha_isa::{CpuState, DecodeCache, IdMap, IdSet, Memory, Program, Trap};
use ildp_uarch::{DynInst, InstClass};
use std::sync::Arc;
use std::time::Instant;

/// Dynamo-style phase-change flushing (paper §4.1, after Dynamo): when
/// fragment formation accelerates abruptly — the signature of a program
/// phase change — the whole translation cache is flushed so the new
/// phase's code gets freshly formed fragments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlushPolicy {
    /// Window length, in V-ISA instructions executed.
    pub window: u64,
    /// Fragments created within one window that trigger a flush.
    pub max_new_fragments: u32,
}

impl Default for FlushPolicy {
    fn default() -> FlushPolicy {
        FlushPolicy {
            window: 200_000,
            max_new_fragments: 64,
        }
    }
}

/// One translation, presented to an [`InstallValidator`] before it is
/// installed in the translation cache.
#[derive(Debug)]
pub struct InstallReview<'a> {
    /// The collected source superblock.
    pub sb: &'a crate::Superblock,
    /// The emitted translation (code, metadata, recovery tables, and the
    /// analysis trace behind them).
    pub code: &'a crate::TranslatedCode,
    /// The translator configuration that produced it.
    pub translator: &'a Translator,
}

/// Install-time translation validation hook.
///
/// A plain function pointer (not a closure) so [`VmConfig`] stays `Copy`;
/// `Err` carries a human-readable diagnostic. The `ildp-verifier` crate
/// provides implementations running its static-analysis passes.
pub type InstallValidator = fn(&InstallReview<'_>) -> Result<(), String>;

/// What the VM does when the install validator rejects a translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OnViolation {
    /// Panic with the diagnostic — a rejected translation is a translator
    /// bug, and tests want to fail loudly.
    #[default]
    Panic,
    /// Refuse the installation and keep interpreting that code
    /// (`reject-on-violation` mode): the fragment never enters the cache,
    /// and [`VmStats::verify_rejected`] counts the refusal.
    Reject,
}

/// VM configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmConfig {
    /// Translator settings (ISA form, chaining policy, accumulators).
    pub translator: Translator,
    /// Profiling thresholds.
    pub profile: ProfileConfig,
    /// Engine settings.
    pub engine: EngineConfig,
    /// Translation-overhead cost model.
    pub cost: CostModel,
    /// Optional phase-change cache flushing (off by default, matching the
    /// paper's evaluated configuration).
    pub flush: Option<FlushPolicy>,
    /// Optional install-time translation validator.
    pub validator: Option<InstallValidator>,
    /// Response to validator rejections.
    pub on_violation: OnViolation,
    /// Optional translation-cache code budget in bytes: installing past it
    /// clock-evicts cold fragments ([`VmStats::evictions`]). `None` keeps
    /// the unbounded cache the paper assumes.
    pub cache_budget: Option<u64>,
    /// Optional re-verification of warm-start artifacts before install:
    /// when set, every fragment taken from the shared [`FragmentStore`]
    /// is rehydrated and run through this validator first (the
    /// `ildp-verifier` crate's `artifact_validator` runs the trace-free
    /// pass families). A refused artifact is removed from the store,
    /// counted in [`VmStats::store_quarantined`], and the VM falls back
    /// to translating fresh — the policy for stores whose provenance is
    /// not trusted, e.g. loaded from disk.
    pub store_validator: Option<InstallValidator>,
}

/// Degradation-ladder depth: how many demotions a region takes before it
/// is blacklisted to interpret-only. Level 0 translates with the
/// configured translator, level 1 without the optional optimizations.
const MAX_DEMOTIONS: u8 = 2;

/// Source-instruction budget for a re-formed region: the promotion walk
/// ([`EngineConfig::region_trigger`]) stops collecting constituent
/// superblocks once the merged region would exceed this many V-ISA
/// instructions. The first block is always taken.
pub const REGION_BUDGET: usize = 256;

/// Why a VM run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmExit {
    /// The guest program halted.
    Halted,
    /// A precise trap was delivered.
    Trapped {
        /// Faulting V-address.
        vaddr: u64,
        /// The condition.
        trap: Trap,
        /// Recovered architected register state.
        state: Box<[u64; 32]>,
    },
    /// The instruction budget was exhausted.
    Budget,
    /// A structural runtime invariant failed (a corrupted or stale
    /// fragment reached execution). The VM is stopped; the architected
    /// state is the last consistent fragment-boundary state.
    Fault {
        /// What failed.
        error: VmError,
    },
}

impl VmStats {
    /// Dynamic I-ISA instructions per retired V-ISA instruction
    /// (Table 2: "relative number of dynamic instructions"; paper
    /// averages: basic 1.60, modified 1.36).
    pub fn dynamic_expansion(&self) -> f64 {
        if self.engine.v_insts == 0 {
            0.0
        } else {
            self.engine.executed as f64 / self.engine.v_insts as f64
        }
    }

    /// Percentage of executed instructions that are copies (Table 2;
    /// paper averages: basic 17.7%, modified 3.1%).
    pub fn copy_pct(&self) -> f64 {
        if self.engine.executed == 0 {
            0.0
        } else {
            self.engine.copies_executed as f64 * 100.0 / self.engine.executed as f64
        }
    }

    /// Translated static code bytes relative to the source code bytes
    /// (Table 2: "relative number of static instruction bytes"; paper
    /// averages: basic 1.17, modified 1.07).
    pub fn static_code_ratio(&self) -> f64 {
        if self.translated_src_insts == 0 {
            0.0
        } else {
            self.translated_code_bytes as f64 / (4.0 * self.translated_src_insts as f64)
        }
    }

    /// DBT instructions per translated source instruction (§4.2; paper
    /// average ≈ 1,125).
    pub fn overhead_per_translated_inst(&self) -> f64 {
        if self.translated_src_insts == 0 {
            0.0
        } else {
            self.translation_overhead as f64 / self.translated_src_insts as f64
        }
    }

    /// Fraction of retired V-ISA instructions that ran interpreted — the
    /// degradation metric: 0 is fully translated, 1 is interpret-only
    /// (everything evicted, invalidated or blacklisted).
    ///
    /// The instructions interpreted before the first fragment install
    /// ([`VmStats::warmup_interpreted`]) are excluded: every run pays
    /// that cold-start cost regardless of cache health, and counting it
    /// inflated the ratio badly for short workloads. A run that never
    /// installs anything has no steady state and reports 1.0 as before.
    pub fn interp_fallback_ratio(&self) -> f64 {
        let steady = self.interpreted.saturating_sub(self.warmup_interpreted);
        let total = steady + self.engine.v_insts;
        if total == 0 {
            0.0
        } else {
            steady as f64 / total as f64
        }
    }

    /// Guest-visible translation stall time, in seconds.
    pub fn translate_stall_seconds(&self) -> f64 {
        self.translate_stall_nanos as f64 / 1e9
    }

    /// Total translation + verification wall time, in seconds.
    pub fn translate_wall_seconds(&self) -> f64 {
        self.translate_wall_nanos as f64 / 1e9
    }
}

/// One region re-formation decision ([`EngineConfig::region_trigger`]):
/// a VM output, derived deterministically from the program and its
/// stimuli, so a re-run makes the same decisions at the same counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionDecision {
    /// Entry V-address of the region head.
    pub head: u64,
    /// Retired-instruction count at the decision.
    pub at_v_insts: u64,
    /// `true` when the merged region was installed; `false` when it was
    /// dropped (unprofitable, or refused by the verifier) and the head
    /// banned from re-promotion.
    pub promoted: bool,
}

/// The co-designed VM. See the module documentation.
///
/// # Examples
///
/// ```
/// use alpha_isa::{Assembler, Reg};
/// use ildp_core::{NullSink, Vm, VmConfig, VmExit};
///
/// let mut asm = Assembler::new(0x1_0000);
/// asm.lda_imm(Reg::A0, 200);
/// let top = asm.here("top");
/// asm.subq_imm(Reg::A0, 1, Reg::A0);
/// asm.bne(Reg::A0, top);
/// asm.halt();
/// let program = asm.finish()?;
///
/// let mut vm = Vm::new(VmConfig::default(), &program);
/// let exit = vm.run(10_000, &mut NullSink);
/// assert_eq!(exit, VmExit::Halted);
/// assert!(vm.stats().fragments > 0, "the loop must get translated");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Vm<'p> {
    config: VmConfig,
    program: &'p Program,
    /// Predecoded code segment driving the interpreter's fetches.
    decoded: DecodeCache,
    cpu: CpuState,
    mem: Memory,
    candidates: Candidates,
    cache: TranslationCache,
    engine: Engine,
    stats: VmStats,
    /// V-inst timestamps of recent fragment creations (flush policy).
    /// Meaningful only within `window_epoch`.
    recent_fragments: Vec<u64>,
    /// The cache epoch `recent_fragments` belongs to: an epoch bump from
    /// any source resets the flush window.
    window_epoch: u64,
    /// Degradation-ladder level per region entry V-address.
    demotion: IdMap<u64, u8>,
    /// SMC invalidations per region entry V-address (repeat offenders are
    /// demoted).
    smc_counts: IdMap<u64, u32>,
    /// Console bytes in emission order (interpreted + translated).
    output: Vec<u8>,
    /// Cache-derived stats carried over a snapshot restore:
    /// `finish_overheads` recomputes `translated_code_bytes`, `evictions`
    /// and `unlinked_sites` from the (fresh, empty) cache, so the totals
    /// accumulated before the restore are added back as baselines.
    base_code_bytes: u64,
    base_evictions: u64,
    base_unlinked: u64,
    /// Region promote/drop decisions this run made, in order.
    region_events: Vec<RegionDecision>,
    /// The shared warm-start fragment store, when attached.
    store: Option<Arc<FragmentStore>>,
    /// Store keys of fragments this VM installed, so SMC invalidation and
    /// demotion also evict the shared copy.
    store_keys: IdMap<u64, ArtifactKey>,
    /// The source superblock behind each installed fragment, keyed by
    /// entry V-address and refreshed on every install — the raw material
    /// the region re-formation walk merges. Regions themselves are not
    /// recorded (they are never re-merged).
    region_src: IdMap<u64, crate::Superblock>,
    /// Region heads whose re-formation the verifier refused: banned from
    /// re-promotion so a rejected merge is attempted exactly once.
    region_banned: IdSet<u64>,
}

/// Translates `sb` and runs the optional validator over the result.
/// Returns the translation, the verdict, and `(wall_nanos,
/// verify_nanos)` — total time and the validator's share of it.
fn translate_job(
    sb: &crate::Superblock,
    translator: &Translator,
    validator: Option<InstallValidator>,
) -> (TranslatedCode, Result<(), String>, u64, u64) {
    let t0 = Instant::now();
    let code = translator.translate(sb);
    let v0 = Instant::now();
    let verdict = match validator {
        Some(validate) => validate(&InstallReview {
            sb,
            code: &code,
            translator,
        }),
        None => Ok(()),
    };
    let verify_nanos = v0.elapsed().as_nanos() as u64;
    (code, verdict, t0.elapsed().as_nanos() as u64, verify_nanos)
}

impl<'p> Vm<'p> {
    /// Creates a VM with the program loaded and the PC at its entry.
    pub fn new(config: VmConfig, program: &'p Program) -> Vm<'p> {
        let (cpu, mem) = program.load();
        Vm {
            config,
            program,
            decoded: DecodeCache::new(program),
            cpu,
            mem,
            candidates: Candidates::new(),
            cache: TranslationCache::new(),
            engine: Engine::new(config.engine),
            stats: VmStats::default(),
            recent_fragments: Vec::new(),
            window_epoch: 0,
            demotion: IdMap::default(),
            smc_counts: IdMap::default(),
            output: Vec::new(),
            base_code_bytes: 0,
            base_evictions: 0,
            base_unlinked: 0,
            region_events: Vec::new(),
            store: None,
            store_keys: IdMap::default(),
            region_src: IdMap::default(),
            region_banned: IdSet::default(),
        }
    }

    /// Captures the complete resumable state as a [`Snapshot`].
    ///
    /// Must be taken at a fragment boundary — i.e. while [`run`](Vm::run)
    /// is not executing (any return from `run` is one): there the GPR
    /// file is architecturally complete, every accumulator is dead, and
    /// the dual-RAS is predictor-only state (misses fall back to
    /// dispatch), so none of the engine internals need capturing. The
    /// translation cache is deliberately omitted — a restored VM starts
    /// cold and retranslates on demand; the entry addresses of live
    /// fragments are recorded as re-heat hints instead.
    pub fn snapshot(&self) -> Snapshot {
        let mut pages: Vec<(u64, Vec<u8>)> = self
            .mem
            .pages()
            .filter(|(_, bytes)| bytes.iter().any(|&b| b != 0))
            .map(|(n, bytes)| (n, bytes.to_vec()))
            .collect();
        pages.sort_unstable_by_key(|&(n, _)| n);
        let mut candidates: Vec<(u64, u32)> = self.candidates.counters().collect();
        candidates.sort_unstable();
        let mut translated: Vec<u64> = self.cache.fragments().map(|f| f.vstart).collect();
        translated.sort_unstable();
        let mut demotion: Vec<(u64, u8)> = self.demotion.iter().map(|(&a, &l)| (a, l)).collect();
        demotion.sort_unstable();
        let mut smc_counts: Vec<(u64, u32)> =
            self.smc_counts.iter().map(|(&a, &c)| (a, c)).collect();
        smc_counts.sort_unstable();
        // Brought current, so a snapshot taken between `run` calls is
        // self-consistent even if the caller poked at the cache.
        let stats = self.current_stats();
        Snapshot {
            program_digest: program_digest(self.program),
            v_insts: self.v_instructions(),
            pc: self.cpu.pc,
            regs: self.cpu.registers(),
            pages,
            output: self.output.clone(),
            candidates,
            translated,
            demotion,
            smc_counts,
            stats,
        }
    }

    /// Reconstructs a VM from a snapshot, onto a fresh (cold) translation
    /// cache. The program must be the one the snapshot was taken from
    /// (checked by digest). Continuing the restored VM retires the exact
    /// same architected instruction stream as the uninterrupted run;
    /// statistics continue cumulatively from the snapshot, so ratios like
    /// [`VmStats::interp_fallback_ratio`] remain correct across the
    /// resume.
    pub fn restore(
        config: VmConfig,
        program: &'p Program,
        snap: &Snapshot,
    ) -> Result<Vm<'p>, SnapshotError> {
        let expected = program_digest(program);
        if snap.program_digest != expected {
            return Err(SnapshotError::ProgramMismatch {
                expected,
                actual: snap.program_digest,
            });
        }
        let mut vm = Vm::new(config, program);
        vm.cpu = CpuState::with_registers(snap.pc, &snap.regs);
        vm.mem = snap.to_memory();
        // `bump` fires exactly once, when a counter *reaches* the
        // threshold — so every restored counter is clamped one below it.
        // Regions that were translated at snapshot time are primed to
        // re-heat on their next execution; everything else keeps its
        // progress (capped so over-threshold counters from translated or
        // blacklisted regions can fire again rather than sticking).
        let reheat = config.profile.threshold.saturating_sub(1);
        for &(vaddr, count) in &snap.candidates {
            vm.candidates.set(vaddr, count.min(reheat));
        }
        for &vstart in &snap.translated {
            vm.candidates.set(vstart, reheat);
        }
        vm.demotion = snap.demotion.iter().copied().collect();
        vm.smc_counts = snap.smc_counts.iter().copied().collect();
        vm.output = snap.output.clone();
        vm.stats = snap.stats.clone();
        vm.engine.stats = snap.stats.engine.clone();
        vm.base_code_bytes = snap.stats.translated_code_bytes;
        vm.base_evictions = snap.stats.evictions;
        vm.base_unlinked = snap.stats.unlinked_sites;
        Ok(vm)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// The translation cache (inspection).
    pub fn cache(&self) -> &TranslationCache {
        &self.cache
    }

    /// Mutable access to the translation cache, for fault-injection
    /// harnesses and external cache management. Invalidation should go
    /// through [`invalidate_fragment`](Vm::invalidate_fragment) /
    /// [`notify_code_write`](Vm::notify_code_write), which also maintain
    /// the engine-side links and profile counters.
    pub fn cache_mut(&mut self) -> &mut TranslationCache {
        &mut self.cache
    }

    /// The architected CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// The guest memory (inspection, e.g. differential testing).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Console output produced so far (interpreted + translated), in
    /// emission order.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Total V-ISA instructions executed so far (interpreted or
    /// translated), excluding architectural NOPs — every execution mode
    /// elides them from the count, so this is a pure function of the
    /// architected position regardless of what was translated when.
    /// Snapshot/replay lockstep is count-anchored on exactly this value.
    pub fn v_instructions(&self) -> u64 {
        self.stats.interpreted + self.engine.stats.v_insts
    }

    /// The translator / profiler pair for one degradation level. Level 0
    /// is the configured pair; demoted regions lose the optional
    /// optimizations — predictive chaining (sw-pred, dual-RAS) and memory
    /// fusion — and translate shorter superblocks, the leaner tier the
    /// ladder retries before blacklisting.
    fn translation_tier(&self, level: u8) -> (Translator, ProfileConfig) {
        if level == 0 {
            (self.config.translator, self.config.profile)
        } else {
            (
                Translator {
                    chain: ChainPolicy::NoPred,
                    fuse_memory: false,
                    ..self.config.translator
                },
                ProfileConfig {
                    max_superblock: self.config.profile.max_superblock.min(32),
                    ..self.config.profile
                },
            )
        }
    }

    /// Descends one degradation-ladder level for the region at `vstart`
    /// and resets its profile counter so it can re-heat into the leaner
    /// tier (or, at the bottom, stay interpreted).
    fn demote(&mut self, vstart: u64) {
        let level = self.demotion.entry(vstart).or_insert(0);
        if *level >= MAX_DEMOTIONS {
            return;
        }
        *level += 1;
        self.stats.demotions += 1;
        if *level >= MAX_DEMOTIONS {
            self.stats.blacklisted += 1;
        }
        self.candidates.reset(vstart);
        // A demoted region's published translation came from a tier we no
        // longer trust for it; other VMs must not warm-start from it.
        self.invalidate_store_key(vstart);
    }

    /// Evicts the shared-store copy of this VM's fragment at `vstart`, if
    /// it published one — keeps the warm-start store coherent with SMC
    /// invalidation and ladder demotion.
    fn invalidate_store_key(&mut self, vstart: u64) {
        if let Some(key) = self.store_keys.remove(&vstart) {
            if let Some(store) = &self.store {
                store.remove(&key);
            }
        }
    }

    /// Precisely invalidates one fragment: the cache slot and every
    /// incoming direct link (cache side), the dual-RAS links (engine
    /// side), and the region's profile counter so it can re-heat. Returns
    /// the fragment's entry V-address, or `None` if the id was already
    /// dead.
    pub fn invalidate_fragment(&mut self, id: FragmentId) -> Option<u64> {
        let vstart = self.cache.invalidate(id)?;
        self.engine.unlink_fragment(id);
        self.candidates.reset(vstart);
        self.invalidate_store_key(vstart);
        Some(vstart)
    }

    /// Notifies the VM that guest memory in `[addr, addr + len)` was
    /// written: every fragment whose source code shares a page with the
    /// range is invalidated (self-modifying-code response), and regions
    /// invalidated repeatedly are demoted down the ladder. The engine and
    /// interpreter SMC detection paths both land here; it is public so an
    /// embedder can report external code writes (DMA, another core).
    pub fn notify_code_write(&mut self, addr: u64, len: u64) {
        for id in self.cache.fragments_on_write(addr, len) {
            if let Some(vstart) = self.invalidate_fragment(id) {
                self.stats.smc_invalidations += 1;
                let n = {
                    let n = self.smc_counts.entry(vstart).or_insert(0);
                    *n += 1;
                    *n
                };
                if n >= 2 {
                    self.demote(vstart);
                }
            }
        }
    }

    fn translate_at(&mut self, vaddr: u64) -> bool {
        debug_assert_eq!(self.cpu.pc, vaddr);
        if self.cache.lookup(vaddr).is_some() {
            return true;
        }
        let level = self.demotion.get(&vaddr).copied().unwrap_or(0);
        if level >= MAX_DEMOTIONS {
            // Bottom of the ladder: this region stays interpreted.
            return false;
        }
        let (translator, profile) = self.translation_tier(level);
        match collect_superblock_with_output(
            &mut self.cpu,
            &mut self.mem,
            self.program,
            &profile,
            &mut self.output,
        ) {
            Ok(sb) if !sb.is_empty() => {
                // Collection executed the path once: count it as
                // interpreted work (the paper's collection runs during
                // interpretation). A block that ran into the guest's halt
                // is special: the halt stays at the PC and re-raises
                // through ordinary interpretation (which counts it and
                // ends the run), so counting it here too would retire it
                // twice.
                self.stats.interpreted += match sb.end {
                    crate::SbEnd::Halt => sb.len() as u64 - 1,
                    _ => sb.len() as u64,
                };
                // Warm start: if another VM already published this exact
                // translation, install it without translating at all. An
                // artifact the store quarantines (or the optional
                // re-verification refuses) degrades to a miss and the
                // normal translate/verify path below.
                let mut key = None;
                if let Some(store) = self.store.clone() {
                    let k = artifact_key(self.program, &sb, &translator);
                    key = Some(k);
                    match store.lookup(&k) {
                        StoreLookup::Hit(art) => {
                            if self.reverify_artifact(&art, &sb, &translator) {
                                self.stats.warm_hits += 1;
                                self.region_src.insert(vaddr, sb);
                                self.store_keys.insert(art.vstart, k);
                                self.install_fragment(*art);
                                return true;
                            }
                            store.remove(&k);
                            self.stats.store_quarantined += 1;
                            self.stats.warm_misses += 1;
                        }
                        StoreLookup::Miss => self.stats.warm_misses += 1,
                        StoreLookup::Quarantined(_) => {
                            self.stats.store_quarantined += 1;
                            self.stats.warm_misses += 1;
                        }
                    }
                }
                // Translate and verify on the execution thread — the
                // guest stalls for all of it (paper §4.2).
                let (code, verdict, wall, verify_nanos) =
                    translate_job(&sb, &translator, self.config.validator);
                self.stats.translate_wall_nanos += wall;
                self.stats.translate_stall_nanos += wall;
                if self.config.validator.is_some() {
                    // Verifier time is accounted separately from the
                    // paper's translation-overhead model: it is a
                    // debugging aid, not part of the modeled DBT cost.
                    self.stats.verify_nanos += verify_nanos;
                    self.stats.fragments_verified += 1;
                }
                if let Err(msg) = verdict {
                    match self.config.on_violation {
                        OnViolation::Panic => panic!(
                            "translation validator rejected fragment at \
                             {:#x}: {msg}",
                            code.vstart
                        ),
                        OnViolation::Reject => {
                            self.stats.verify_rejected += 1;
                            // Ladder: retry without the optional
                            // optimizations, then blacklist.
                            self.demote(code.vstart);
                            return false;
                        }
                    }
                }
                self.region_src.insert(vaddr, sb);
                self.install_translation(code, translator, key);
                true
            }
            Ok(_) => false,
            Err((pc, _trap)) => {
                // Trap during collection: abandon the superblock; the trap
                // will be re-raised by ordinary interpretation.
                self.cpu.pc = pc;
                false
            }
        }
    }

    /// Installs a translation produced by this VM: charges its modelled
    /// translation overhead, publishes it to the shared store when one is
    /// attached, and installs it ([`Vm::install_fragment`]).
    fn install_translation(
        &mut self,
        code: TranslatedCode,
        translator: Translator,
        key: Option<ArtifactKey>,
    ) -> FragmentId {
        self.stats.translation_overhead += self
            .config
            .cost
            .fragment_cost(code.src_inst_count as u64, code.insts.len() as u64);
        let artifact = FragmentArtifact::from_translation(code, translator.form);
        if let (Some(store), Some(key)) = (self.store.clone(), key) {
            if store.put(key, &artifact) {
                self.stats.warm_stores += 1;
            }
            self.store_keys.insert(artifact.vstart, key);
        }
        self.install_fragment(artifact)
    }

    /// Installs a fragment — a fresh translation or a pre-translated,
    /// pre-verified one taken from the shared store — in the cache:
    /// merges its static code statistics (a warm start charges no
    /// `translation_overhead`, but Table 2 ratios stay meaningful), closes
    /// the warm-up window, and enforces the cache budget. Returns the
    /// installed fragment's id (the just-installed fragment is protected
    /// from the budget's clock eviction, so the id is live).
    fn install_fragment(&mut self, a: FragmentArtifact) -> FragmentId {
        self.maybe_flush();
        self.stats.fragments += 1;
        self.stats.translated_src_insts += a.src_inst_count as u64;
        self.stats.emitted_insts += a.insts.len() as u64;
        self.stats.static_copies += a.copies as u64;
        self.stats.strands += a.strands as u64;
        self.stats.terminations += a.terminations as u64;
        self.stats.static_categories.merge(&a.categories);
        self.stats.oracle_categories.merge(&a.oracle_categories);
        if self.stats.warmup_interpreted == 0 {
            self.stats.warmup_interpreted = self.stats.interpreted;
        }
        let id = self.cache.install(
            a.vstart,
            a.form,
            a.insts,
            a.meta,
            a.src_inst_count,
            a.recovery,
        );
        self.enforce_cache_budget(id);
        id
    }

    /// Applies the optional [`VmConfig::store_validator`] policy to a
    /// warm-start artifact: rehydrates it and runs the configured
    /// trace-free verifier. `true` means install may proceed.
    fn reverify_artifact(
        &self,
        artifact: &FragmentArtifact,
        sb: &crate::Superblock,
        translator: &Translator,
    ) -> bool {
        let Some(validate) = self.config.store_validator else {
            return true;
        };
        let code = artifact.to_translated_code();
        validate(&InstallReview {
            sb,
            code: &code,
            translator,
        })
        .is_ok()
    }

    fn enforce_cache_budget(&mut self, just_installed: FragmentId) {
        if let Some(budget) = self.config.cache_budget {
            for (fid, vstart) in self.cache.enforce_budget(budget, just_installed) {
                self.engine.unlink_fragment(fid);
                self.candidates.reset(vstart);
                self.invalidate_store_key(vstart);
            }
        }
    }

    /// Profile-guided region re-formation, the [`FragExit::RegionHot`]
    /// response: walks the installed chain from the hot head along the
    /// seams its source superblocks followed at collection time, merges
    /// the constituent superblocks into one region superblock
    /// ([`crate::merge_region`]), re-runs the full translate/verify
    /// pipeline — straightening, strand formation, E-family symbolic
    /// equivalence — across the merged region, and, when the verifier
    /// admits it, replaces the constituents with one region fragment
    /// installed at the head. Cross-fragment seams inside the region
    /// disappear: the merged block re-strands across them, so what was
    /// per-iteration fragment-entry bookkeeping and copy-out/copy-in
    /// traffic becomes intra-region accumulator flow. Every failure mode
    /// degrades to the status quo — the constituent fragments keep
    /// running exactly as before — and a verifier refusal bans the head
    /// so a rejected merge is attempted once.
    ///
    /// Promotion is derived purely from deterministic state (the cache,
    /// the retained superblocks, the demotion ladder), so a re-run makes
    /// the same [`RegionDecision`]s at the same counts; the replay
    /// harness compares them.
    fn promote_region(&mut self, head: u64) {
        if self.region_banned.contains(&head) || self.demotion.get(&head).copied().unwrap_or(0) != 0
        {
            return;
        }
        let budget = REGION_BUDGET;
        let mut blocks: Vec<crate::Superblock> = Vec::new();
        let mut members: Vec<u64> = Vec::new();
        let mut total = 0usize;
        let mut cur = head;
        let mut closed = false;
        // Only plain, live, level-0 fragments with retained source
        // superblocks merge; anything else ends the walk. (A warm
        // store install retains its collection-time superblock too,
        // so warm-started fragments participate.)
        while let Some(id) = self.cache.lookup(cur) {
            if self.cache.fragment(id).is_region
                || members.contains(&cur)
                || self.demotion.get(&cur).copied().unwrap_or(0) != 0
            {
                break;
            }
            let Some(sb) = self.region_src.get(&cur).cloned() else {
                break;
            };
            if !blocks.is_empty() && total + sb.len() > budget {
                break;
            }
            total += sb.len();
            members.push(cur);
            // Follow the seam the collector followed: the taken back-edge
            // of an ending branch, or the recorded continuation. A block
            // with no unique continuation ends the region.
            let next = match sb.end {
                crate::SbEnd::BackwardTakenBranch { target, .. } => Some(target),
                crate::SbEnd::Cycle { next } | crate::SbEnd::MaxSize { next } => Some(next),
                crate::SbEnd::IndirectJump | crate::SbEnd::Halt => None,
            };
            blocks.push(sb);
            match next {
                Some(n) if n != head => cur = n,
                // Closed loop back to the region head: the merged
                // region's final seam resolves to a self-transfer.
                Some(_) => {
                    closed = true;
                    break;
                }
                None => break,
            }
        }
        if closed && total > 0 {
            // The walk closed a loop: unroll the cycle to fill the region
            // budget (capped — past a handful of copies the per-entry
            // overhead is already amortized away and the merged block only
            // bloats translation and verification). Each unrolled seam is
            // an iteration boundary the re-strander flows accumulators
            // across, so even a single self-looping block — the degenerate
            // hot chain — sheds its per-iteration head copy-ins.
            let factor = (budget / total).clamp(1, 2);
            let cycle = blocks.len();
            for k in 0..cycle * (factor - 1) {
                blocks.push(blocks[k % cycle].clone());
            }
        }
        if blocks.len() < 2 {
            // A single block merges nothing (its self-loop is already a
            // direct link); leave it be. The trigger never re-fires.
            return;
        }
        let merged = crate::superblock::merge_region(&blocks);
        let (translator, _) = self.translation_tier(0);
        // Translate WITHOUT the validator first: the profitability gate
        // below only needs the emitted code, and an unprofitable region
        // must not charge the guest for symbolic verification of a body
        // it will never run (on a short-loop workload the wasted verify
        // pass alone is a measurable fraction of the whole run).
        let (code, _, wall, _) = translate_job(&merged, &translator, None);
        // Re-formation runs inline on the execution thread: the guest
        // stalls for it, exactly like a synchronous translation.
        self.stats.translate_wall_nanos += wall;
        self.stats.translate_stall_nanos += wall;
        let at_v_insts = self.v_instructions();
        // Profitability gate. Each pass over the region covers
        // `blocks.len() / members.len()` iterations of the constituent
        // cycle (the unroll replication; 1 for an open chain), so the
        // emitted-instruction saving per pass is
        // `replication * orig_sum - region_len`.
        //
        // For a merged chain (replication 1) any positive saving is a
        // win: the constituent bodies already executed back-to-back
        // every iteration, so the merged body adds no footprint.
        //
        // An unrolled self-loop is different: the body *grows* by
        // `region_len - orig_sum` instructions, and a bigger working
        // set carries a real per-iteration locality cost. When the
        // loop's carried values fit the accumulator file, re-stranding
        // erases the seam copy-ins and the saving dwarfs that cost;
        // when they do not (more live globals than accumulators), every
        // unrolled seam re-emits its copies and the saving is a couple
        // of chain instructions against a doubled body — measurably
        // slower. Require the saving to cover the growth at an 8:1
        // margin, which cleanly separates the two shapes. A dropped
        // region leaves the constituents running untouched and records
        // the drop.
        let replication = (blocks.len() / members.len()) as i64;
        let orig_sum: i64 = members
            .iter()
            .filter_map(|&v| self.cache.lookup(v))
            .map(|id| self.cache.fragment(id).insts.len() as i64)
            .sum();
        let region_len = code.insts.len() as i64;
        let saved = replication * orig_sum - region_len;
        let profitable = if replication > 1 {
            saved * 8 >= region_len - orig_sum
        } else {
            saved > 0
        };
        if !profitable {
            self.region_banned.insert(head);
            self.region_events.push(RegionDecision {
                head,
                at_v_insts,
                promoted: false,
            });
            return;
        }
        // Profitable: now pay for the full verify gate.
        let verdict = match self.config.validator {
            Some(validate) => {
                let v0 = Instant::now();
                let verdict = validate(&InstallReview {
                    sb: &merged,
                    code: &code,
                    translator: &translator,
                });
                self.stats.verify_nanos += v0.elapsed().as_nanos() as u64;
                self.stats.fragments_verified += 1;
                self.stats.regions_verified += 1;
                verdict
            }
            None => Ok(()),
        };
        if let Err(msg) = verdict {
            match self.config.on_violation {
                OnViolation::Panic => {
                    panic!("translation validator rejected region at {head:#x}: {msg}")
                }
                OnViolation::Reject => {
                    // Refused merge: ban the head and leave the
                    // constituent fragments running untouched.
                    self.stats.verify_rejected += 1;
                    self.region_banned.insert(head);
                    self.region_events.push(RegionDecision {
                        head,
                        at_v_insts,
                        promoted: false,
                    });
                    return;
                }
            }
        }
        // Admitted: retire the constituents (precise invalidation keeps
        // incoming links and the engine RAS coherent), then install the
        // merged region at the head. Regions are not published to the
        // shared store — their shape is profile-dependent — and the
        // constituents' published artifacts stay PUT: promotion does not
        // change the guest code, so unlike the SMC path the artifacts
        // remain valid for other VMs warm-starting the same program.
        for &v in &members {
            if let Some(id) = self.cache.lookup(v) {
                self.cache.invalidate(id);
                self.engine.unlink_fragment(id);
                self.candidates.reset(v);
            }
        }
        let id = self.install_translation(code, translator, None);
        self.cache.mark_region(id);
        self.stats.regions_formed += 1;
        self.stats.seam_pairs_eliminated += blocks.len() as u64 - 1;
        self.region_events.push(RegionDecision {
            head,
            at_v_insts,
            promoted: true,
        });
    }

    /// The region decisions made so far, in order.
    pub fn region_events(&self) -> &[RegionDecision] {
        &self.region_events
    }

    /// Attaches a shared warm-start fragment store — the one way VMs share
    /// translations: hand the same `Arc` to every VM that should reuse
    /// them. Must be called before the run starts translating.
    pub fn attach_store(&mut self, store: Arc<FragmentStore>) {
        // Damage observed while the store was opened from disk becomes
        // visible on this VM's stats: it bounds how much warm start the
        // run can possibly get.
        self.stats.store_load_rejects = store.stats().load_rejects;
        self.store = Some(store);
    }

    /// Runs until halt, trap, or `budget` V-ISA instructions.
    ///
    /// Monomorphized over the sink (see [`TraceSink::TRACING`]): running
    /// with [`crate::NullSink`] compiles the trace machinery out of the
    /// engine's hot loop.
    pub fn run<S: TraceSink>(&mut self, budget: u64, sink: &mut S) -> VmExit {
        loop {
            if self.v_instructions() >= budget {
                self.finish_overheads();
                return VmExit::Budget;
            }
            // Execute translated code when the current PC has a fragment.
            if let Some(fid) = self.cache.lookup(self.cpu.pc) {
                let entry_vstart = self.cpu.pc;
                let engine_budget = budget.saturating_sub(self.stats.interpreted);
                let engine_exit = self.engine.run(
                    &mut self.cache,
                    fid,
                    &mut self.cpu,
                    &mut self.mem,
                    engine_budget,
                    sink,
                );
                self.output.append(&mut self.engine.output);
                match engine_exit {
                    FragExit::NotTranslated { vtarget } => {
                        self.cpu.pc = vtarget;
                        // Fragment exit targets are superblock start
                        // candidates (paper §3.1).
                        if self.candidates.bump(vtarget, self.config.profile.threshold) {
                            self.translate_at(vtarget);
                        }
                    }
                    FragExit::Halt => {
                        self.finish_overheads();
                        return VmExit::Halted;
                    }
                    FragExit::Budget => {
                        self.finish_overheads();
                        return VmExit::Budget;
                    }
                    FragExit::Trap { vaddr, trap, state } => {
                        self.finish_overheads();
                        return VmExit::Trapped { vaddr, trap, state };
                    }
                    FragExit::SmcStore {
                        addr,
                        len,
                        vaddr,
                        state,
                    } => {
                        // The engine stopped *before* the store with
                        // recovered precise state; re-raise from the
                        // store's V-address so the write executes
                        // interpretively against the freshly-invalidated
                        // cache (no livelock: invalidation unwatches the
                        // page).
                        self.cpu.set_registers(&state);
                        self.cpu.pc = vaddr;
                        self.notify_code_write(addr, len);
                    }
                    FragExit::Preempted { vtarget } => {
                        // The fragment chain exceeded its fuel budget
                        // without yielding to the dispatcher: demote the
                        // entry region and drop its fragment so the next
                        // heat-up takes the leaner tier.
                        self.cpu.pc = vtarget;
                        self.stats.fuel_preemptions += 1;
                        self.demote(entry_vstart);
                        if let Some(id) = self.cache.lookup(entry_vstart) {
                            self.invalidate_fragment(id);
                        }
                    }
                    FragExit::Fault { error } => {
                        self.finish_overheads();
                        return VmExit::Fault { error };
                    }
                    FragExit::RegionHot { vtarget } => {
                        // The trigger fires at a fragment boundary with
                        // complete architected state: re-form the region
                        // (or decline — every failure mode leaves the
                        // constituents untouched) and resume at the same
                        // address either way.
                        self.cpu.pc = vtarget;
                        self.promote_region(vtarget);
                    }
                }
                continue;
            }
            // Otherwise interpret one instruction.
            match interp_step(
                &mut self.cpu,
                &mut self.mem,
                &self.decoded,
                &mut self.candidates,
                &self.config.profile,
                &mut self.stats.interpreted,
                &mut self.output,
                Some(&self.cache),
            ) {
                InterpEvent::Continue => {}
                InterpEvent::Halted => {
                    self.finish_overheads();
                    return VmExit::Halted;
                }
                InterpEvent::Hot { vaddr } => {
                    self.translate_at(vaddr);
                }
                InterpEvent::Trapped { vaddr, trap } => {
                    self.finish_overheads();
                    return VmExit::Trapped {
                        vaddr,
                        trap,
                        state: Box::new(self.cpu.registers()),
                    };
                }
                InterpEvent::SmcStore { addr, len } => {
                    // The interpreted store has already completed and
                    // architected state is current; just invalidate the
                    // touched fragments.
                    self.notify_code_write(addr, len);
                }
            }
        }
    }

    /// Dynamo-style phase detection: flush when fragment creation spikes.
    fn maybe_flush(&mut self) {
        let Some(policy) = self.config.flush else {
            return;
        };
        // The window counters describe one cache epoch. If the epoch
        // moved underneath us (our own flush below, or an external
        // `cache_mut().flush()`), stale timestamps from before the flush
        // would re-trigger immediately and double-flush back-to-back
        // phase changes — reset the window atomically with the epoch.
        if self.window_epoch != self.cache.epoch() {
            self.window_epoch = self.cache.epoch();
            self.recent_fragments.clear();
        }
        let now = self.v_instructions();
        self.recent_fragments.push(now);
        let cutoff = now.saturating_sub(policy.window);
        self.recent_fragments.retain(|&t| t >= cutoff);
        if self.recent_fragments.len() as u32 > policy.max_new_fragments {
            self.cache.flush();
            self.stats.cache_flushes += 1;
            self.window_epoch = self.cache.epoch();
            self.recent_fragments.clear();
        }
    }

    fn finish_overheads(&mut self) {
        self.stats = self.current_stats();
    }

    /// The accumulated statistics with the derived counters brought
    /// current: the interpretation overhead, the cache-derived totals and
    /// the engine's block.
    fn current_stats(&self) -> VmStats {
        let mut stats = self.stats.clone();
        stats.interpretation_overhead = stats.interpreted * self.config.cost.interp_cost_per_inst();
        // The `base_*` offsets are nonzero only on a snapshot-restored
        // VM, whose cache restarted from cold: they carry the totals
        // accumulated before the restore.
        stats.translated_code_bytes = self.base_code_bytes + self.cache.total_code_bytes();
        stats.evictions = self.base_evictions + self.cache.evictions();
        stats.unlinked_sites = self.base_unlinked + self.cache.unpatches();
        stats.engine = self.engine.stats.clone();
        stats
    }
}

/// Interprets `program` directly, emitting the **original-program** trace
/// (the paper's "original" superscalar configuration and the native-Alpha
/// bars of Figures 4, 6 and 8).
///
/// Returns the exit condition and the number of instructions traced.
pub fn trace_original<S: TraceSink>(program: &Program, budget: u64, sink: &mut S) -> (VmExit, u64) {
    use alpha_isa::{step, AlignPolicy, BranchOp, Control, Inst};
    let decoded = DecodeCache::new(program);
    let (mut cpu, mut mem) = program.load();
    let mut count = 0u64;
    loop {
        if count >= budget {
            return (VmExit::Budget, count);
        }
        let pc = cpu.pc;
        let inst = match decoded.fetch(pc) {
            Ok(i) => i,
            Err(trap) => {
                return (
                    VmExit::Trapped {
                        vaddr: pc,
                        trap,
                        state: Box::new(cpu.registers()),
                    },
                    count,
                )
            }
        };
        let before_regs = cpu.clone();
        let outcome = match step(&mut cpu, &mut mem, inst, AlignPolicy::Enforce) {
            Ok(o) => o,
            Err(trap) => {
                return (
                    VmExit::Trapped {
                        vaddr: pc,
                        trap,
                        state: Box::new(cpu.registers()),
                    },
                    count,
                )
            }
        };
        count += 1;
        let mut d = DynInst::alu(pc, 4);
        d.next_pc = outcome.next_pc;
        d.class = match inst {
            Inst::Operate { op, .. } if op.is_multiply() => InstClass::IntMul,
            Inst::Operate { .. } => InstClass::IntAlu,
            Inst::Mem { op, .. } if op.is_load() => InstClass::Load,
            Inst::Mem { op, .. } if op.is_store() => InstClass::Store,
            Inst::Mem { .. } => InstClass::IntAlu,
            Inst::Branch {
                op: BranchOp::Bsr, ..
            } => InstClass::Call,
            Inst::Branch {
                op: BranchOp::Br, ..
            } => InstClass::Branch,
            Inst::Branch { .. } => InstClass::CondBranch,
            Inst::Jump { kind, .. } => match kind {
                alpha_isa::JumpKind::Ret => InstClass::Return,
                alpha_isa::JumpKind::Jsr => InstClass::IndirectCall,
                _ => InstClass::IndirectJump,
            },
            Inst::CallPal { .. } => InstClass::IntAlu,
            // Traps at `step` above; never retires into the trace.
            Inst::Unimplemented { .. } => unreachable!("unimplemented instructions trap"),
        };
        let mut srcs = [None; 3];
        for (k, r) in inst.sources().iter().enumerate() {
            srcs[k] = Some(r.number());
        }
        d.srcs = srcs;
        d.dst = inst.dest().map(|r| r.number());
        d.mem_addr = outcome.mem.map(|m| m.addr);
        d.taken = outcome.control.is_taken();
        if let Control::Indirect { target, .. } = outcome.control {
            d.v_target = target;
        }
        let _ = before_regs;
        sink.retire(&d);
        if outcome.control == Control::Halt {
            return (VmExit::Halted, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullSink;
    use crate::translate::ChainPolicy;
    use alpha_isa::{run_to_halt, AlignPolicy, Assembler, Reg};
    use ildp_isa::IsaForm;

    fn loop_program(iters: i16) -> Program {
        let mut asm = Assembler::new(0x1_0000);
        let buf = asm.zero_block(4096);
        asm.li32(Reg::A1, buf as u32);
        asm.lda_imm(Reg::A0, iters);
        asm.clr(Reg::V0);
        let top = asm.here("top");
        asm.addq(Reg::V0, Reg::A0, Reg::V0);
        asm.and_imm(Reg::A0, 0x3f, Reg::new(3));
        asm.s8addq(Reg::new(3), Reg::A1, Reg::new(3));
        asm.stq(Reg::V0, 0, Reg::new(3));
        asm.ldq(Reg::new(4), 0, Reg::new(3));
        asm.addq(Reg::V0, Reg::new(4), Reg::V0);
        asm.subq_imm(Reg::A0, 1, Reg::A0);
        asm.bne(Reg::A0, top);
        asm.halt();
        asm.finish().unwrap()
    }

    fn final_state_matches(form: IsaForm, chain: ChainPolicy) {
        let program = loop_program(500);
        // Reference: pure interpretation.
        let (mut rcpu, mut rmem) = program.load();
        run_to_halt(
            &mut rcpu,
            &mut rmem,
            &program,
            AlignPolicy::Enforce,
            100_000,
        )
        .unwrap();

        let config = VmConfig {
            translator: Translator {
                form,
                chain,
                acc_count: 4,
                fuse_memory: false,
            },
            ..VmConfig::default()
        };
        let mut vm = Vm::new(config, &program);
        let exit = vm.run(100_000, &mut NullSink);
        assert_eq!(exit, VmExit::Halted);
        assert!(
            vm.stats().fragments > 0,
            "hot loop must have been translated ({form:?}, {chain:?})"
        );
        assert!(
            vm.stats().engine.v_insts > 1_000,
            "most iterations must run translated ({form:?}, {chain:?}): {}",
            vm.stats().engine.v_insts
        );
        assert_eq!(
            vm.cpu().registers(),
            rcpu.registers(),
            "translated execution must preserve architected state \
             ({form:?}, {chain:?})"
        );
    }

    #[test]
    fn modified_form_preserves_architecture() {
        final_state_matches(IsaForm::Modified, ChainPolicy::SwPredDualRas);
    }

    #[test]
    fn basic_form_preserves_architecture() {
        final_state_matches(IsaForm::Basic, ChainPolicy::SwPredDualRas);
    }

    #[test]
    fn no_pred_chaining_preserves_architecture() {
        final_state_matches(IsaForm::Modified, ChainPolicy::NoPred);
    }

    #[test]
    fn sw_pred_chaining_preserves_architecture() {
        final_state_matches(IsaForm::Basic, ChainPolicy::SwPred);
    }

    #[test]
    fn basic_executes_more_instructions_than_modified() {
        let program = loop_program(2000);
        let run = |form| {
            let config = VmConfig {
                translator: Translator {
                    form,
                    ..Translator::default()
                },
                ..VmConfig::default()
            };
            let mut vm = Vm::new(config, &program);
            vm.run(1_000_000, &mut NullSink);
            vm.stats().clone()
        };
        let basic = run(IsaForm::Basic);
        let modified = run(IsaForm::Modified);
        assert!(
            basic.dynamic_expansion() > modified.dynamic_expansion(),
            "basic {} vs modified {}",
            basic.dynamic_expansion(),
            modified.dynamic_expansion()
        );
        assert!(basic.copy_pct() > modified.copy_pct());
        assert!(basic.dynamic_expansion() > 1.0);
    }

    #[test]
    fn overhead_model_reports_per_inst_cost() {
        let program = loop_program(500);
        let mut vm = Vm::new(VmConfig::default(), &program);
        vm.run(100_000, &mut NullSink);
        let per = vm.stats().overhead_per_translated_inst();
        assert!(
            (500.0..2500.0).contains(&per),
            "per-instruction DBT cost {per} out of plausible range"
        );
    }

    #[test]
    fn trace_original_halts_and_counts() {
        let program = loop_program(100);
        let (exit, n) = trace_original(&program, 1_000_000, &mut NullSink);
        assert_eq!(exit, VmExit::Halted);
        assert!(n > 800);
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let program = loop_program(500);
        // Uninterrupted run.
        let mut vm1 = Vm::new(VmConfig::default(), &program);
        assert_eq!(vm1.run(100_000, &mut NullSink), VmExit::Halted);
        // Interrupted at a mid-run boundary, snapshotted, restored cold.
        let mut vm2 = Vm::new(VmConfig::default(), &program);
        let mid = vm1.v_instructions() / 2;
        assert_eq!(vm2.run(mid, &mut NullSink), VmExit::Budget);
        let snap = vm2.snapshot();
        assert!(!snap.translated.is_empty(), "hot loop must be captured");
        let mut vm3 = Vm::restore(VmConfig::default(), &program, &snap).unwrap();
        assert_eq!(vm3.v_instructions(), snap.v_insts);
        assert_eq!(vm3.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(vm3.cpu().registers(), vm1.cpu().registers());
        assert_eq!(vm3.memory().content_digest(), vm1.memory().content_digest());
        assert_eq!(vm3.v_instructions(), vm1.v_instructions());
        // Stats continue cumulatively: the resumed run retranslates the
        // loop, so fragment counts only grow past the snapshot's.
        assert!(vm3.stats().fragments > snap.stats.fragments);
        assert!(vm3.stats().translated_code_bytes > snap.stats.translated_code_bytes);
        // Restoring onto a different program is refused.
        let other = loop_program(501);
        assert!(matches!(
            Vm::restore(VmConfig::default(), &other, &snap),
            Err(SnapshotError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn budget_exhaustion() {
        let program = loop_program(10_000);
        let mut vm = Vm::new(VmConfig::default(), &program);
        let exit = vm.run(5_000, &mut NullSink);
        assert_eq!(exit, VmExit::Budget);
    }

    #[test]
    fn warm_start_reuses_published_fragments() {
        let program = loop_program(800);
        let store = Arc::new(FragmentStore::new());
        let mut cold = Vm::new(VmConfig::default(), &program);
        cold.attach_store(Arc::clone(&store));
        assert_eq!(cold.run(100_000, &mut NullSink), VmExit::Halted);
        assert!(cold.stats().warm_stores > 0, "cold VM must publish");
        assert_eq!(cold.stats().warm_hits, 0);

        let mut warm = Vm::new(VmConfig::default(), &program);
        warm.attach_store(Arc::clone(&store));
        assert_eq!(warm.run(100_000, &mut NullSink), VmExit::Halted);
        assert_eq!(warm.cpu().registers(), cold.cpu().registers());
        assert_eq!(warm.v_instructions(), cold.v_instructions());
        assert!(warm.stats().fragments > 0);
        assert_eq!(
            warm.stats().warm_hits,
            warm.stats().fragments,
            "every warm fragment must come from the store"
        );
        assert_eq!(warm.stats().warm_misses, 0);
        assert_eq!(
            warm.stats().translation_overhead,
            0,
            "warm start must not pay translation overhead"
        );
    }
}
