//! Seeded generator of the `footprint` and `warm` programs: many distinct
//! straight-line loops, each run just past the VM's profiling threshold,
//! so interpretation, translation and verification dominate and the
//! translation cache holds hundreds of fragments per op.

use alpha_isa::{Assembler, Program, Reg};
use spec_workloads::XorShift;

/// Programs generated per seed (one op runs one of them).
pub const PROGRAMS: usize = 8;
/// Distinct hot loops per program.
pub const LOOPS: usize = 200;
/// Loop-body length range in instructions, before the three
/// loop-control instructions.
const BODY_OPS: (u64, u64) = (40, 60);
/// Iteration range. Every loop crosses the profiling threshold
/// (`ProfileConfig::default().threshold`, 50) and stays far below the
/// region trigger (`EngineConfig::default().region_trigger`, 4096).
pub const ITERS: (u64, u64) = (60, 120);
/// Iterations of the closing drain loop: past the point where the VM, on
/// the loop re-heating, waits for its background translation. Requests
/// are served in order, so every earlier translation lands before halt.
const DRAIN_ITERS: i16 = 300;
/// Quadwords in the data buffer every loop walks.
const BUF_QUADS: usize = 256;

/// Registers the loop bodies compute in (`t0`–`t7`).
const WORK: [Reg; 8] = [
    Reg::new(1),
    Reg::new(2),
    Reg::new(3),
    Reg::new(4),
    Reg::new(5),
    Reg::new(6),
    Reg::new(7),
    Reg::new(8),
];
/// Data pointer and loop counter.
const PTR: Reg = Reg::new(10);
const COUNT: Reg = Reg::new(11);

/// The `PROGRAMS` programs of one seed. The same seed always gives the
/// same programs.
pub fn programs(seed: u64) -> Vec<Program> {
    (0..PROGRAMS as u64)
        .map(|i| program(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i + 1)))
        .collect()
}

fn pick(rng: &mut XorShift, (lo, hi): (u64, u64)) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

fn program(seed: u64) -> Program {
    let mut rng = XorShift::new(seed);
    let mut asm = Assembler::new(0x1_0000);
    let buf = asm.data_block(rng.bytes(BUF_QUADS * 8));
    for r in WORK {
        asm.li32(r, rng.next_u64() as u32);
    }
    asm.clr(Reg::V0);
    for k in 0..LOOPS {
        // The pointer starts at most 64 quads in and advances one quad per
        // iteration; displacements reach 31 quads: all inside the buffer.
        asm.li32(PTR, buf as u32 + 8 * (rng.next_u64() % 64) as u32);
        asm.lda_imm(COUNT, pick(&mut rng, ITERS) as i16);
        let top = asm.here(format!("loop{k}"));
        for _ in 0..pick(&mut rng, BODY_OPS) {
            body_op(&mut asm, &mut rng);
        }
        asm.addq_imm(PTR, 8, PTR);
        asm.subq_imm(COUNT, 1, COUNT);
        asm.bne(COUNT, top);
        asm.addq(Reg::V0, WORK[k % WORK.len()], Reg::V0);
    }
    // A per-program literal keeps the drain loop's code distinct, so it is
    // never served by another program's store entry without waiting.
    asm.lda_imm(COUNT, DRAIN_ITERS);
    let drain = asm.here("drain");
    asm.xor_imm(Reg::V0, rng.next_u64() as u8, Reg::V0);
    asm.addq(Reg::V0, COUNT, Reg::V0);
    asm.subq_imm(COUNT, 1, COUNT);
    asm.bne(COUNT, drain);
    // The checksum goes to the console, so output is compared too.
    for byte in 0..8u8 {
        asm.srl_imm(Reg::V0, 8 * byte, Reg::A0);
        asm.putchar();
    }
    asm.halt();
    asm.finish().expect("generated programs bind every label")
}

fn body_op(asm: &mut Assembler, rng: &mut XorShift) {
    let mut reg = || WORK[(rng.next_u64() % WORK.len() as u64) as usize];
    let (a, b, d) = (reg(), reg(), reg());
    let lit = rng.next_u64() as u8;
    let disp = 8 * (rng.next_u64() % 32) as i16;
    match rng.next_u64() % 16 {
        0 => asm.addq(a, b, d),
        1 => asm.subq(a, b, d),
        2 => asm.xor(a, b, d),
        3 => asm.and(a, b, d),
        4 => asm.bis(a, b, d),
        5 => asm.s4addq(a, b, d),
        6 => asm.cmpult(a, b, d),
        7 => asm.addq_imm(a, lit, d),
        8 => asm.xor_imm(a, lit, d),
        9 => asm.sll_imm(a, 1 + lit % 7, d),
        10 => asm.srl_imm(a, 1 + lit % 7, d),
        11 | 12 => asm.ldq(d, disp, PTR),
        13 => asm.stq(a, disp, PTR),
        14 => asm.cmoveq(a, b, d),
        _ => asm.mulq(a, b, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::VERIFIER;
    use crate::workloads::{reference, run_vm};
    use ildp_isa::IsaForm;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn same_seed_gives_same_programs() {
        let (a, b) = (programs(7), programs(7));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.code(), y.code());
            assert_eq!(x.data_segments(), y.data_segments());
        }
        assert_ne!(programs(8)[0].code(), a[0].code());
    }

    #[test]
    fn programs_halt_and_the_vm_reaches_the_reference_state() {
        for seed in [1, 2] {
            for program in programs(seed).iter().take(2) {
                let want = reference(program, u64::MAX).expect("reference halts");
                let min = (LOOPS as u64) * ITERS.0 * BODY_OPS.0;
                assert!(want.insts > min, "{} instructions", want.insts);
                let violations = VERIFIER.violations.load(Relaxed);
                let got = run_vm(program, IsaForm::Modified, want.insts * 2);
                assert_eq!(got.check(&want), Ok(()), "seed {seed}");
                assert_eq!(VERIFIER.violations.load(Relaxed), violations);
            }
        }
    }
}
