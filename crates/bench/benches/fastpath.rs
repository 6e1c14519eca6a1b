//! Benchmarks of the engine fast path: install-time fragment linking
//! versus hash-table lookup for intra-cache control transfers, and the
//! monomorphized run loop with tracing compiled out versus a tracing
//! sink.
//!
//! See DESIGN.md "Execution fast path"; end-to-end numbers on the
//! workload suite come from the `perfbench` benchmark.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ildp_core::{ChainPolicy, NullSink, TraceSink, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;
use ildp_uarch::DynInst;
use spec_workloads::by_name;

fn vm_config() -> VmConfig {
    VmConfig {
        translator: Translator {
            form: IsaForm::Modified,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        ..VmConfig::default()
    }
}

/// A minimal tracing sink: keeps `TRACING = true` so the engine builds
/// and retires a full record per instruction, but does bounded work per
/// record so the benchmark isolates the record-construction cost.
#[derive(Default)]
struct CountSink(u64);

impl TraceSink for CountSink {
    fn retire(&mut self, d: &DynInst) {
        self.0 = self.0.wrapping_add(d.pc);
    }
}

/// Intra-cache control transfers: after install-time linking, taken
/// branches and dual-RAS returns follow a direct `FragmentId` instead of
/// hashing the target I-address. `follow_link` is the per-transfer cost
/// the engine pays now; `lookup_iaddr` is what the same transfer paid
/// when it went through the hash table.
fn bench_transfer_resolution(c: &mut Criterion) {
    // Populate a cache by running a branchy workload to steady state.
    let w = by_name("gcc", 5).unwrap();
    let mut vm = Vm::new(vm_config(), &w.program);
    vm.run(w.budget * 2, &mut NullSink);
    let cache = vm.cache();
    let frags: Vec<(u64, ildp_core::FragmentId)> =
        cache.fragments().map(|f| (f.istart, f.id)).collect();
    assert!(frags.len() > 4, "workload must translate several fragments");

    let mut group = c.benchmark_group("transfer");
    group.throughput(Throughput::Elements(1));
    let mut k = 0usize;
    group.bench_function("lookup_iaddr", |b| {
        b.iter(|| {
            k = (k + 1) % frags.len();
            std::hint::black_box(cache.lookup_iaddr(frags[k].0))
        })
    });
    let mut j = 0usize;
    group.bench_function("follow_link", |b| {
        b.iter(|| {
            j = (j + 1) % frags.len();
            // The engine's linked path: the FragmentId is already in the
            // instruction's link slot; the transfer is one index.
            std::hint::black_box(cache.fragment(frags[j].1).istart)
        })
    });
    group.finish();
}

/// End-to-end engine throughput, traced versus untraced, on a loop-heavy
/// workload. The untraced run uses [`NullSink`] (`TRACING = false`), so
/// the monomorphized loop compiles the whole record-construction path
/// out; the traced run pays for template copy plus dynamic patching.
fn bench_traced_vs_untraced(c: &mut Criterion) {
    let w = by_name("gzip", 3).unwrap();
    let v_insts = {
        let mut vm = Vm::new(vm_config(), &w.program);
        vm.run(w.budget * 2, &mut NullSink);
        vm.stats().engine.v_insts + vm.stats().interpreted
    };

    let mut group = c.benchmark_group("engine_run");
    group.sample_size(10);
    group.throughput(Throughput::Elements(v_insts));
    group.bench_function("untraced_nullsink", |b| {
        b.iter(|| {
            let mut vm = Vm::new(vm_config(), &w.program);
            std::hint::black_box(vm.run(w.budget * 2, &mut NullSink))
        })
    });
    group.bench_function("traced_countsink", |b| {
        b.iter(|| {
            let mut vm = Vm::new(vm_config(), &w.program);
            let mut sink = CountSink::default();
            let exit = vm.run(w.budget * 2, &mut sink);
            std::hint::black_box((exit, sink.0))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transfer_resolution, bench_traced_vs_untraced);
criterion_main!(benches);
