//! Inspect a translation the way the paper's Figure 2 does: print an
//! Alpha superblock side by side with its basic-ISA and modified-ISA
//! translations, including the strand (accumulator) structure, copies and
//! chaining code.
//!
//! ```sh
//! cargo run --release --example inspect_translation
//! ```

use alpha_isa::{disassemble, Assembler, Reg};
use ildp_core::{
    collect_superblock, ChainPolicy, ProfileConfig, Superblock, TranslatedCode, Translator,
};
use ildp_isa::IsaForm;

/// Builds the paper's Figure 2 example: the gzip CRC inner loop.
fn figure2_superblock() -> Superblock {
    let mut asm = Assembler::new(0x1_0000);
    let table = asm.zero_block(256 * 8);
    let buf = asm.data_block(vec![7u8; 64]);
    asm.li32(Reg::new(0), table as u32);
    asm.li32(Reg::A0, buf as u32);
    asm.lda_imm(Reg::A1, 64);
    asm.clr(Reg::new(1));
    let l1 = asm.here("L1");
    asm.ldbu(Reg::new(3), 0, Reg::A0);
    asm.subl_imm(Reg::A1, 1, Reg::A1);
    asm.lda(Reg::A0, 1, Reg::A0);
    asm.xor(Reg::new(1), Reg::new(3), Reg::new(3));
    asm.srl_imm(Reg::new(1), 8, Reg::new(1));
    asm.and_imm(Reg::new(3), 0xff, Reg::new(3));
    asm.s8addq(Reg::new(3), Reg::new(0), Reg::new(3));
    asm.ldq(Reg::new(3), 0, Reg::new(3));
    asm.xor(Reg::new(3), Reg::new(1), Reg::new(1));
    asm.bne(Reg::A1, l1);
    asm.halt();
    let program = asm.finish().expect("figure 2 assembles");

    // Execute to the loop top, then collect the hot path.
    let (mut cpu, mut mem) = program.load();
    let config = ProfileConfig::default();
    let loop_top = program
        .symbols()
        .find(|(_, n)| *n == "L1")
        .map(|(a, _)| a)
        .unwrap();
    while cpu.pc != loop_top {
        let inst = program.fetch(cpu.pc).unwrap();
        alpha_isa::step(&mut cpu, &mut mem, inst, alpha_isa::AlignPolicy::Enforce).unwrap();
    }
    collect_superblock(&mut cpu, &mut mem, &program, &config).expect("collection succeeds")
}

fn print_translation(title: &str, out: &TranslatedCode) {
    println!("--- {title} ---");
    for (inst, meta) in out.insts.iter().zip(&out.meta) {
        let tag = if meta.is_chain {
            "chain"
        } else if inst.is_copy() {
            "copy "
        } else {
            "     "
        };
        println!("  [{tag}] {inst}");
    }
    println!(
        "  ({} instructions, {} copies, {} chaining, {} strands)\n",
        out.insts.len(),
        out.stats.copies,
        out.stats.chain_insts,
        out.stats.strands
    );
}

fn main() {
    let sb = figure2_superblock();
    println!("=== Alpha superblock (paper Figure 2a) ===");
    for si in &sb.insts {
        println!("  {:#x}: {}", si.vaddr, disassemble(si.vaddr, si.inst));
    }
    println!();

    let basic = Translator {
        form: IsaForm::Basic,
        chain: ChainPolicy::SwPredDualRas,
        acc_count: 4,
        fuse_memory: false,
    }
    .translate(&sb);
    print_translation("basic I-ISA (paper Figure 2c)", &basic);

    let modified = Translator {
        form: IsaForm::Modified,
        chain: ChainPolicy::SwPredDualRas,
        acc_count: 4,
        fuse_memory: false,
    }
    .translate(&sb);
    print_translation("modified I-ISA (paper Figure 2d)", &modified);
}
