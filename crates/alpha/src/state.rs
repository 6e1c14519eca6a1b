//! Architected Alpha CPU state.

use crate::Reg;
use std::fmt;

/// The architected integer state of an Alpha processor: 31 writable 64-bit
/// registers plus the program counter. `R31` reads as zero.
///
/// # Examples
///
/// ```
/// use alpha_isa::{CpuState, Reg};
/// let mut cpu = CpuState::new(0x1_0000);
/// cpu.write(Reg::V0, 42);
/// assert_eq!(cpu.read(Reg::V0), 42);
/// cpu.write(Reg::ZERO, 99);
/// assert_eq!(cpu.read(Reg::ZERO), 0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CpuState {
    regs: [u64; 32],
    /// The architected program counter.
    pub pc: u64,
}

impl CpuState {
    /// Creates a state with all registers zero and the given entry PC.
    pub fn new(entry_pc: u64) -> CpuState {
        CpuState {
            regs: [0; 32],
            pc: entry_pc,
        }
    }

    /// Creates a state with the given PC and register file (the `R31`
    /// slot forced to zero) — the snapshot-restore constructor.
    pub fn with_registers(pc: u64, regs: &[u64; 32]) -> CpuState {
        let mut cpu = CpuState::new(pc);
        cpu.set_registers(regs);
        cpu
    }

    /// Reads a register (`R31` reads zero).
    #[inline]
    pub fn read(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.number() as usize]
        }
    }

    /// Writes a register (writes to `R31` are discarded).
    #[inline]
    pub fn write(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Reads a register the caller knows is not `R31` (translated code
    /// folds `R31` away when it is installed), skipping the zero test.
    #[inline]
    pub fn read_live(&self, r: Reg) -> u64 {
        debug_assert!(!r.is_zero(), "read_live of R31");
        self.regs[usize::from(r.number() & 31)]
    }

    /// Writes a register the caller knows is not `R31`, skipping the zero
    /// test (see [`read_live`](CpuState::read_live)).
    #[inline]
    pub fn write_live(&mut self, r: Reg, value: u64) {
        debug_assert!(!r.is_zero(), "write_live of R31");
        self.regs[usize::from(r.number() & 31)] = value;
    }

    /// Snapshot of all 32 register values (`R31` reported as zero).
    pub fn registers(&self) -> [u64; 32] {
        let mut out = self.regs;
        out[31] = 0;
        out
    }

    /// Restores all 32 register values from a snapshot (the `R31` slot is
    /// forced to zero). Used to reinstate recovered precise state.
    pub fn set_registers(&mut self, regs: &[u64; 32]) {
        self.regs = *regs;
        self.regs[31] = 0;
    }
}

impl fmt::Debug for CpuState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CpuState {{ pc: {:#x}", self.pc)?;
        for r in Reg::all() {
            let v = self.read(r);
            if v != 0 {
                writeln!(f, "  {:>4} = {v:#x}", r.conventional_name())?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut cpu = CpuState::new(0);
        cpu.write(Reg::ZERO, 1234);
        assert_eq!(cpu.read(Reg::ZERO), 0);
        assert_eq!(cpu.registers()[31], 0);
    }

    #[test]
    fn registers_snapshot_reflects_writes() {
        let mut cpu = CpuState::new(0x40);
        cpu.write(Reg::new(7), 7);
        let snap = cpu.registers();
        assert_eq!(snap[7], 7);
        assert_eq!(cpu.pc, 0x40);
    }

    #[test]
    fn debug_output_nonempty() {
        let cpu = CpuState::new(0);
        assert!(!format!("{cpu:?}").is_empty());
    }
}
