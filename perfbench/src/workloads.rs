//! The four workloads: their inputs, set-up, and one op (one program run
//! to halt on a fresh `Vm`, checked against a pure-interpreter reference).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use alpha_isa::{run_to_halt, step, AlignPolicy, Control, DecodeCache, Program};
use ildp_core::{FragmentStore, NullSink, StoreLookup, Translator, Vm, VmConfig, VmExit, VmStats};
use ildp_isa::IsaForm;
use ildp_uarch::{IldpConfig, IldpModel, TimingModel, TimingStats};

use crate::gen;
use crate::layers::{self, now_ns, record, set_current, span_id, BufferedModel, Span, VERIFIER};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Steady,
    Footprint,
    Warm,
    Timed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Steady, Kind::Footprint, Kind::Warm, Kind::Timed];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Footprint => "footprint",
            Kind::Warm => "warm",
            Kind::Timed => "timed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Guest instructions each `steady` program is scaled to: long enough
/// that translation is a small share of an op.
const STEADY_INSTS: u64 = 3_000_000;
/// Guest instructions each `timed` program is scaled to.
const TIMED_INSTS: u64 = 300_000;
/// SPEC stand-ins run under the timing model: a loop kernel, a jump-table
/// switch, pointer chasing, and indirect calls.
const TIMED_PROGRAMS: [&str; 4] = ["gzip", "gcc", "mcf", "vortex"];
/// Pretranslation passes per program before giving up on a full store.
const PRETRANSLATE_PASSES: usize = 8;

/// The architected end state of a pure-interpreter run.
#[derive(Clone, Debug)]
pub struct Reference {
    pub regs: [u64; 32],
    pub mem_digest: u64,
    pub output: Vec<u8>,
    /// Retired instructions, NOPs excluded as the VM counts them.
    pub insts: u64,
}

/// Interprets `program` to halt, stepping `alpha_isa` directly.
pub fn reference(program: &Program, budget: u64) -> Result<Reference, String> {
    let decoded = DecodeCache::new(program);
    let (mut cpu, mut mem) = program.load();
    let mut output = Vec::new();
    let mut insts = 0u64;
    for _ in 0..budget {
        let pc = cpu.pc;
        let inst = decoded
            .fetch(pc)
            .map_err(|t| format!("reference fetch trap at {pc:#x}: {t}"))?;
        let outcome = step(&mut cpu, &mut mem, inst, AlignPolicy::Enforce)
            .map_err(|t| format!("reference trap at {pc:#x}: {t}"))?;
        insts += !inst.is_nop() as u64;
        output.extend(outcome.output);
        if outcome.control == Control::Halt {
            return Ok(Reference {
                regs: cpu.registers(),
                mem_digest: mem.content_digest(),
                output,
                insts,
            });
        }
    }
    Err(format!("reference exhausted {budget} instructions"))
}

/// What a VM run ended with.
#[derive(Debug)]
pub struct Observed {
    exit: VmExit,
    regs: [u64; 32],
    mem_digest: u64,
    output: Vec<u8>,
    insts: u64,
}

impl Observed {
    fn of(vm: &Vm<'_>, exit: VmExit) -> Observed {
        Observed {
            exit,
            regs: vm.cpu().registers(),
            mem_digest: vm.memory().content_digest(),
            output: vm.output().to_vec(),
            insts: vm.v_instructions(),
        }
    }

    /// Compares the end state with the reference.
    pub fn check(&self, want: &Reference) -> Result<(), String> {
        if self.exit != VmExit::Halted {
            return Err(format!("exit {:?}", self.exit));
        }
        if self.regs != want.regs {
            return Err("GPR file differs".into());
        }
        if self.mem_digest != want.mem_digest {
            return Err("memory digest differs".into());
        }
        if self.output != want.output {
            return Err("console output differs".into());
        }
        if self.insts != want.insts {
            return Err(format!(
                "retired {} of {} instructions",
                self.insts, want.insts
            ));
        }
        Ok(())
    }
}

/// The measured configuration: the VM's defaults (background translation
/// included) with every installed translation verified.
pub fn vm_config(form: IsaForm) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            ..Translator::default()
        },
        validator: Some(layers::validator),
        ..VmConfig::default()
    }
}

/// Runs `program` on a fresh VM in the measured configuration.
#[cfg(test)]
pub fn run_vm(program: &Program, form: IsaForm, budget: u64) -> Observed {
    let mut vm = Vm::new(vm_config(form), program);
    let exit = vm.run(budget, &mut NullSink);
    Observed::of(&vm, exit)
}

/// Creates a VM in the measured configuration, which starts the
/// process-wide translation pool.
pub fn start_pool() {
    let mut asm = alpha_isa::Assembler::new(0x1_0000);
    asm.halt();
    let program = asm.finish().expect("a lone halt assembles");
    drop(Vm::new(vm_config(IsaForm::Modified), &program));
}

/// One program of a workload, with its reference end state.
pub struct Case {
    pub label: String,
    pub program: Program,
    pub form: IsaForm,
    pub reference: Reference,
}

impl Case {
    fn new(label: String, program: Program, form: IsaForm) -> Result<Case, String> {
        let reference = reference(&program, u64::MAX).map_err(|e| format!("{label}: {e}"))?;
        Ok(Case {
            label,
            program,
            form,
            reference,
        })
    }

    fn budget(&self) -> u64 {
        self.reference.insts * 2 + 1_000
    }
}

/// The on-disk store the `warm` ops open.
pub struct StoreFile {
    pub path: PathBuf,
    pub bytes: u64,
    pub entries: u64,
    pub pretranslate_s: f64,
    pub save_s: f64,
}

pub struct Setup {
    pub cases: Vec<Case>,
    pub store: Option<StoreFile>,
}

/// Builds a workload's inputs from `seed`: programs, reference runs and,
/// for `warm`, the pretranslated store saved at `store_path`.
pub fn setup(kind: Kind, seed: u64, store_path: &Path) -> Result<Setup, String> {
    let cases = match kind {
        Kind::Steady => spec_cases(&spec_workloads::NAMES, STEADY_INSTS, &[IsaForm::Modified])?,
        Kind::Timed => spec_cases(
            &TIMED_PROGRAMS,
            TIMED_INSTS,
            &[IsaForm::Basic, IsaForm::Modified],
        )?,
        Kind::Footprint | Kind::Warm => gen::programs(seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Case::new(format!("gen{i}"), p, IsaForm::Modified))
            .collect::<Result<_, _>>()?,
    };
    let store = match kind {
        Kind::Warm => Some(pretranslate(&cases, store_path)?),
        _ => None,
    };
    Ok(Setup { cases, store })
}

/// The named SPEC stand-ins, each scaled to about `target` instructions.
fn spec_cases(names: &[&str], target: u64, forms: &[IsaForm]) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for name in names {
        let unit = spec_workloads::by_name(name, 1).ok_or(format!("no workload {name}"))?;
        let unit_insts = reference(&unit.program, unit.budget)?.insts;
        let scale = (target / unit_insts.max(1)).clamp(1, 1_000) as u32;
        let w = spec_workloads::by_name(name, scale).ok_or(format!("no workload {name}"))?;
        for &form in forms {
            let label = format!("{name}:{}", form_name(form));
            cases.push(Case::new(label, w.program.clone(), form)?);
        }
    }
    Ok(cases)
}

fn form_name(form: IsaForm) -> &'static str {
    match form {
        IsaForm::Basic => "basic",
        IsaForm::Modified => "modified",
    }
}

/// Runs every case against one store until a run misses nothing (or the
/// pass limit), then saves the store to `path`.
fn pretranslate(cases: &[Case], path: &Path) -> Result<StoreFile, String> {
    let store = Arc::new(FragmentStore::new());
    let t0 = Instant::now();
    for case in cases {
        for pass in 1..=PRETRANSLATE_PASSES {
            let mut vm = Vm::new(vm_config(case.form), &case.program);
            vm.attach_store(Arc::clone(&store));
            let exit = vm.run(case.budget(), &mut NullSink);
            Observed::of(&vm, exit)
                .check(&case.reference)
                .map_err(|e| format!("pretranslating {}: {e}", case.label))?;
            if vm.stats().warm_misses == 0 {
                break;
            }
            if pass == PRETRANSLATE_PASSES {
                eprintln!(
                    "perfbench: {}: store incomplete after {pass} passes",
                    case.label
                );
            }
        }
    }
    let pretranslate_s = t0.elapsed().as_secs_f64();
    // `save` merges with an existing file; start from none.
    let _ = std::fs::remove_file(path);
    let t1 = Instant::now();
    store
        .save(path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    let save_s = t1.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok(StoreFile {
        path: path.to_path_buf(),
        bytes,
        entries: store.len() as u64,
        pretranslate_s,
        save_s,
    })
}

/// The outcome and measurements of one op.
pub struct Op {
    pub wall_ns: u64,
    /// The calibration kernel's time right before the op, on the VM
    /// thread's CPU and on the pool's CPUs.
    pub calib_ns: u64,
    pub pool_calib_ns: u64,
    pub open_ns: u64,
    pub new_ns: u64,
    pub run_ns: u64,
    pub stats: VmStats,
    pub timing: Option<TimingStats>,
    pub model_ns: u64,
    pub records: u64,
    pub mem_records: u64,
    pub verdict: Result<(), String>,
}

/// Runs one op. Traced ops record spans and feed the timing model through
/// the buffering sink.
pub fn run_op(case: &Case, kind: Kind, store: Option<&StoreFile>, op_id: u64, traced: bool) -> Op {
    let violations_before = VERIFIER
        .violations
        .load(std::sync::atomic::Ordering::Relaxed);
    let op_span = span_id();
    let t_op = now_ns();
    let opened = store.map(|s| Arc::new(FragmentStore::open(&s.path).0));
    let t_new = now_ns();
    let mut vm = Vm::new(vm_config(case.form), &case.program);
    let t_new_end = now_ns();
    if let Some(s) = opened {
        vm.attach_store(s);
    }
    let mut model = (kind == Kind::Timed).then(|| IldpModel::new(IldpConfig::default()));
    let run_span = span_id();
    set_current(op_id, run_span);
    let t_run = now_ns();
    let (mut model_ns, mut records, mut mem_records) = (0, 0, 0);
    let exit = match model.as_mut() {
        Some(m) if traced => {
            let mut sink = BufferedModel::new(m);
            let exit = vm.run(case.budget(), &mut sink);
            sink.flush();
            (model_ns, records, mem_records) = (sink.model_ns, sink.records, sink.mem_records);
            exit
        }
        Some(m) => vm.run(case.budget(), m),
        None => vm.run(case.budget(), &mut NullSink),
    };
    let t_end = now_ns();
    let timing = model.as_mut().map(|m| m.finish());
    set_current(0, 0);
    if traced {
        let span = |id, name, start_ns, end_ns, parent| {
            record(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                op: op_id,
            })
        };
        span(op_span, "op", t_op, t_end, 0);
        if store.is_some() {
            span(span_id(), "store.open", t_op, t_new, op_span);
        }
        span(span_id(), "vm.new", t_new, t_new_end, op_span);
        span(run_span, "vm.run", t_run, t_end, op_span);
    }
    let violations = VERIFIER
        .violations
        .load(std::sync::atomic::Ordering::Relaxed)
        - violations_before;
    let verdict = Observed::of(&vm, exit)
        .check(&case.reference)
        .and_then(|()| match violations {
            0 => Ok(()),
            n => Err(format!("{n} verifier violations")),
        })
        .map_err(|e| format!("{}: {e}", case.label));
    Op {
        wall_ns: t_end - t_op,
        calib_ns: 0,
        pool_calib_ns: 0,
        open_ns: t_new - t_op,
        new_ns: t_new_end - t_new,
        run_ns: t_end - t_run,
        stats: vm.stats().clone(),
        timing,
        model_ns,
        records,
        mem_records,
        verdict,
    }
}

/// Wall nanoseconds of an interpret-only run: the profiling threshold is
/// never reached, so the VM's interpreter tier retires everything.
pub fn interpret_only_ns(case: &Case) -> u64 {
    let mut config = vm_config(case.form);
    config.profile.threshold = u32::MAX;
    let mut vm = Vm::new(config, &case.program);
    let t0 = now_ns();
    let exit = vm.run(case.budget(), &mut NullSink);
    let t1 = now_ns();
    assert_eq!(exit, VmExit::Halted, "{}: interpret-only run", case.label);
    record(Span {
        id: span_id(),
        name: "alpha.interp_only",
        start_ns: t0,
        end_ns: t1,
        parent: 0,
        op: 0,
    });
    t1 - t0
}

/// Wall nanoseconds of `alpha_isa::run_to_halt` on the program.
pub fn run_to_halt_ns(case: &Case) -> u64 {
    let (mut cpu, mut mem) = case.program.load();
    let t0 = now_ns();
    let result = run_to_halt(
        &mut cpu,
        &mut mem,
        &case.program,
        AlignPolicy::Enforce,
        u64::MAX,
    );
    let t1 = now_ns();
    result.unwrap_or_else(|e| panic!("{}: reference run: {e}", case.label));
    record(Span {
        id: span_id(),
        name: "alpha.run_to_halt",
        start_ns: t0,
        end_ns: t1,
        parent: 0,
        op: 0,
    });
    t1 - t0
}

/// Wall nanoseconds of `Vm::run` without a timing model.
pub fn functional_run_ns(case: &Case) -> u64 {
    let mut vm = Vm::new(vm_config(case.form), &case.program);
    let t0 = now_ns();
    let exit = vm.run(case.budget(), &mut NullSink);
    let t1 = now_ns();
    assert_eq!(exit, VmExit::Halted, "{}: functional run", case.label);
    record(Span {
        id: span_id(),
        name: "vm.run_functional",
        start_ns: t0,
        end_ns: t1,
        parent: 0,
        op: 0,
    });
    t1 - t0
}

/// Wall nanoseconds per `FragmentStore::lookup` hit, over every entry of
/// the saved store: the read path a warm op takes once per installed
/// fragment.
pub fn store_lookup_ns(store: &StoreFile) -> f64 {
    let (opened, _) = FragmentStore::open(&store.path);
    let keys: Vec<_> = opened.raw_entries().into_iter().map(|(k, _)| k).collect();
    let t0 = now_ns();
    let hits = keys
        .iter()
        .filter(|k| matches!(opened.lookup(k), StoreLookup::Hit(_)))
        .count();
    let t1 = now_ns();
    record(Span {
        id: span_id(),
        name: "store.lookup_all",
        start_ns: t0,
        end_ns: t1,
        parent: 0,
        op: 0,
    });
    (t1 - t0) as f64 / hits.max(1) as f64
}
