//! Differential test for the monomorphized engine loop: a traced run
//! (a recording sink with `TRACING = true`) and an untraced run
//! ([`NullSink`], which compiles the record-construction path out) must
//! be observationally identical — same exit, same final architected
//! registers, same console output, and the same [`EngineStats`] to the
//! last counter. This pins the invariant that tracing is a pure
//! observer: compiling it out changes nothing but wall-clock time.

use ildp_core::{ChainPolicy, EngineStats, NullSink, TraceSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use ildp_uarch::DynInst;
use spec_workloads::suite;

/// A tracing sink that counts records and folds every field into an FNV
/// hash, so divergence anywhere in the stream is caught without holding
/// the whole trace in memory.
#[derive(Default)]
struct HashingSink {
    records: u64,
    fnv: u64,
}

impl HashingSink {
    fn mix(&mut self, v: u64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        self.fnv = (self.fnv ^ v).wrapping_mul(FNV_PRIME);
    }
}

impl TraceSink for HashingSink {
    fn retire(&mut self, d: &DynInst) {
        self.records += 1;
        self.mix(d.pc);
        self.mix(d.next_pc);
        self.mix(format!("{d:?}").len() as u64);
    }
}

fn config(form: IsaForm) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        ..VmConfig::default()
    }
}

fn run_traced(
    w: &spec_workloads::Workload,
    form: IsaForm,
) -> (VmExit, [u64; 32], Vec<u8>, EngineStats, u64) {
    let mut vm = Vm::new(config(form), &w.program);
    let mut sink = HashingSink::default();
    let exit = vm.run(w.budget * 2, &mut sink);
    assert!(
        sink.records > 0,
        "{}: traced run retired no records",
        w.name
    );
    (
        exit,
        vm.cpu().registers(),
        vm.output().to_vec(),
        vm.stats().engine.clone(),
        sink.records,
    )
}

fn run_untraced(
    w: &spec_workloads::Workload,
    form: IsaForm,
) -> (VmExit, [u64; 32], Vec<u8>, EngineStats) {
    let mut vm = Vm::new(config(form), &w.program);
    let exit = vm.run(w.budget * 2, &mut NullSink);
    (
        exit,
        vm.cpu().registers(),
        vm.output().to_vec(),
        vm.stats().engine.clone(),
    )
}

#[test]
fn traced_and_untraced_runs_are_observationally_identical() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for w in suite(3) {
            let (t_exit, t_regs, t_out, t_stats, records) = run_traced(&w, form);
            let (u_exit, u_regs, u_out, u_stats) = run_untraced(&w, form);
            assert_eq!(t_exit, u_exit, "{}/{form:?}: exit diverged", w.name);
            assert_eq!(
                t_regs, u_regs,
                "{}/{form:?}: final registers diverged",
                w.name
            );
            assert_eq!(t_out, u_out, "{}/{form:?}: console output diverged", w.name);
            assert_eq!(
                t_stats, u_stats,
                "{}/{form:?}: engine stats diverged",
                w.name
            );
            // The traced run must retire at least one record per executed
            // engine instruction (dispatch expansion adds more).
            assert!(
                records >= t_stats.executed,
                "{}/{form:?}: {records} records < {} executed",
                w.name,
                t_stats.executed
            );
        }
    }
}

#[test]
fn tracing_is_deterministic() {
    let w = spec_workloads::by_name("gzip", 3).unwrap();
    let mut hashes = Vec::new();
    for _ in 0..2 {
        let mut vm = Vm::new(config(IsaForm::Modified), &w.program);
        let mut sink = HashingSink::default();
        vm.run(w.budget * 2, &mut sink);
        hashes.push((sink.records, sink.fnv));
    }
    assert_eq!(
        hashes[0], hashes[1],
        "trace stream varied across identical runs"
    );
}
