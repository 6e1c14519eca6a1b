//! Microbenchmarks of the simulation substrate: predictors, caches, the
//! Alpha interpreter step, the timing models' retire paths, and the
//! checksum every sealed file and content digest runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ildp_uarch::{
    Btb, Cache, CacheConfig, DualAddressRas, DynInst, Gshare, IldpConfig, IldpModel,
    SuperscalarConfig, SuperscalarModel, TimingModel,
};

fn bench_predictors(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictors");
    group.throughput(Throughput::Elements(1));
    group.bench_function("gshare_predict_update", |b| {
        let mut p = Gshare::new(16 * 1024, 12);
        let mut pc = 0x1000u64;
        b.iter(|| {
            let taken = pc & 4 == 0;
            let pred = p.predict(pc);
            p.update(pc, taken);
            pc = pc.wrapping_add(4);
            std::hint::black_box(pred)
        })
    });
    group.bench_function("btb_predict_update", |b| {
        let mut btb = Btb::new(512, 4);
        let mut pc = 0x1000u64;
        b.iter(|| {
            let pred = btb.predict(pc);
            btb.update(pc, pc ^ 0x40);
            pc = pc.wrapping_add(4) & 0xffff;
            std::hint::black_box(pred)
        })
    });
    group.bench_function("dual_ras_push_pop", |b| {
        let mut ras = DualAddressRas::new(8);
        let mut i = 0u64;
        b.iter(|| {
            ras.push(i, i ^ 0xf000);
            i += 1;
            std::hint::black_box(ras.pop())
        })
    });
    group.finish();
}

fn bench_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("caches");
    group.throughput(Throughput::Elements(1));
    group.bench_function("dcache_32k_hit", |b| {
        let mut cache = Cache::new(CacheConfig::dcache_32k());
        cache.access(0x1000);
        b.iter(|| std::hint::black_box(cache.access(0x1000)))
    });
    group.bench_function("dcache_32k_streaming_miss", |b| {
        let mut cache = Cache::new(CacheConfig::dcache_32k());
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64;
            std::hint::black_box(cache.access(addr))
        })
    });
    group.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    use alpha_isa::{run_to_halt, AlignPolicy, Assembler, Reg};
    let mut asm = Assembler::new(0x1000);
    asm.lda_imm(Reg::A0, 10_000);
    let top = asm.here("top");
    asm.addq(Reg::V0, Reg::A0, Reg::V0);
    asm.xor_imm(Reg::V0, 0x5a, Reg::V0);
    asm.subq_imm(Reg::A0, 1, Reg::A0);
    asm.bne(Reg::A0, top);
    asm.halt();
    let program = asm.finish().unwrap();
    let mut group = c.benchmark_group("interpreter");
    group.throughput(Throughput::Elements(40_002));
    group.bench_function("alpha_interp_40k_insts", |b| {
        b.iter(|| {
            let (mut cpu, mut mem) = program.load();
            run_to_halt(&mut cpu, &mut mem, &program, AlignPolicy::Enforce, 100_000).unwrap()
        })
    });
    group.finish();
}

fn trace_block() -> Vec<DynInst> {
    (0..10_000u64)
        .map(|i| {
            let mut d = DynInst::alu(0x1000 + (i % 64) * 4, 4);
            d.srcs[0] = Some((i % 8) as u8);
            d.dst = Some(((i + 1) % 8) as u8);
            d.acc = Some((i % 4) as u8);
            d.acc_read = i % 5 != 0;
            d.acc_write = true;
            if i % 7 == 0 {
                d.class = ildp_uarch::InstClass::Load;
                d.mem_addr = Some(0x10_0000 + (i * 64) % 32768);
            }
            d
        })
        .collect()
}

fn bench_timing_models(c: &mut Criterion) {
    let trace = trace_block();
    let mut group = c.benchmark_group("timing_models");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("superscalar_retire_10k", |b| {
        b.iter(|| {
            let mut m = SuperscalarModel::new(SuperscalarConfig::default());
            for d in &trace {
                m.retire(d);
            }
            m.finish()
        })
    });
    group.bench_function("ildp_retire_10k", |b| {
        b.iter(|| {
            let mut m = IldpModel::new(IldpConfig::default());
            for d in &trace {
                m.retire(d);
            }
            m.finish()
        })
    });
    group.finish();
}

/// The seal and digest checksum over a 3 MB buffer, about the size of the
/// `warm` workload's pretranslated store.
fn bench_checksum(c: &mut Criterion) {
    let buf: Vec<u8> = (0..3u32 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
        .collect();
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("checksum_3mb", |b| {
        b.iter(|| alpha_isa::hash::checksum(std::hint::black_box(&buf)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_predictors,
    bench_caches,
    bench_interpreter,
    bench_timing_models,
    bench_checksum
);
criterion_main!(benches);
