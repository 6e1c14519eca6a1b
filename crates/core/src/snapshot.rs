//! Versioned, checksummed whole-VM snapshots.
//!
//! A [`Snapshot`] captures everything a fresh [`Vm`](crate::Vm) needs to
//! continue a run bit-identically: architected CPU state, resident guest
//! memory pages, console output, the profile/hotness counters, the
//! degradation-ladder and SMC-offender maps, and the cumulative
//! [`VmStats`]. It deliberately does **not** capture the translation
//! cache or any engine-internal state: snapshots are taken only at
//! fragment boundaries, where the paper's precise-state argument (§2.2)
//! guarantees the GPR file is architecturally complete and every
//! accumulator is dead, so a restored VM starts with a cold cache and
//! retranslates on demand. The entry V-addresses of fragments live at
//! snapshot time ride along as *hints*: restore primes their profile
//! counters one bump below the threshold so the hot regions re-translate
//! promptly instead of re-heating from zero.
//!
//! The wire format is the common [`wire`] envelope (magic, version,
//! checksum trailer); a program digest guards against restoring onto the
//! wrong guest.

use crate::classify::CategoryCounts;
use crate::error::SnapshotError;
use crate::stats::VmStats;
use crate::wire::{self, Cursor};
use alpha_isa::hash::checksum;
use alpha_isa::{Memory, Program};

/// Magic number of the snapshot wire format (`"ILPS"`).
pub const SNAPSHOT_MAGIC: u32 = 0x5350_4C49;

/// Current snapshot format version. Version 6 seals with
/// `alpha_isa::hash::checksum` (and its program digest uses it); the
/// payload layout is version 5's, which serializes every [`VmStats`]
/// counter in counter-table order. Versions 1–5 are refused with
/// [`SnapshotError::BadVersion`], as are future versions.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Identity digest of a guest program: the checksum of the code base,
/// entry PC, initial SP and every code word. Data segments are excluded on
/// purpose — a snapshot carries the whole memory image, so a `.repro`
/// bundle can slice a program down to its code without changing its
/// identity.
pub fn program_digest(program: &Program) -> u64 {
    let mut buf = Vec::with_capacity(program.code().len() * 4 + 24);
    wire::put_u64(&mut buf, program.code_base());
    wire::put_u64(&mut buf, program.entry());
    wire::put_u64(&mut buf, program.initial_sp());
    for &w in program.code() {
        wire::put_u32(&mut buf, w);
    }
    checksum(&buf)
}

/// Complete resumable VM state at a fragment boundary. Create one with
/// [`Vm::snapshot`](crate::Vm::snapshot), persist it with
/// [`to_bytes`](Snapshot::to_bytes), and resume with
/// [`Vm::restore`](crate::Vm::restore).
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// Digest of the guest program this snapshot belongs to
    /// ([`program_digest`]); restore refuses a mismatch.
    pub program_digest: u64,
    /// Total V-ISA instructions retired when the snapshot was taken.
    pub v_insts: u64,
    /// Architected program counter.
    pub pc: u64,
    /// Architected GPR file (`R31` zero).
    pub regs: [u64; 32],
    /// Resident guest-memory pages as `(page_number, contents)`, sorted
    /// by page number; all-zero pages are omitted (they read identically
    /// whether resident or not).
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Console output emitted so far, in emission order.
    pub output: Vec<u8>,
    /// Profile counters as `(candidate V-address, count)`, sorted.
    pub candidates: Vec<(u64, u32)>,
    /// Entry V-addresses of fragments live at snapshot time, sorted —
    /// restore hints that prime these regions for prompt retranslation.
    pub translated: Vec<u64>,
    /// Degradation-ladder levels as `(region V-address, level)`, sorted.
    pub demotion: Vec<(u64, u8)>,
    /// SMC invalidations per region as `(region V-address, count)`,
    /// sorted.
    pub smc_counts: Vec<(u64, u32)>,
    /// Cumulative run statistics at the boundary; restore continues them
    /// instead of resetting to zero, so ratios like
    /// [`interp_fallback_ratio`](VmStats::interp_fallback_ratio) stay
    /// correct across a resume.
    pub stats: VmStats,
}

impl Snapshot {
    /// Rebuilds a [`Memory`] from the captured pages.
    pub fn to_memory(&self) -> Memory {
        let mut mem = Memory::new();
        for (page_no, bytes) in &self.pages {
            mem.set_page(*page_no, bytes);
        }
        mem
    }

    /// Content digest of the captured memory image (comparable with
    /// [`Memory::content_digest`]).
    pub fn mem_digest(&self) -> u64 {
        self.to_memory().content_digest()
    }

    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u64(&mut p, self.program_digest);
        wire::put_u64(&mut p, self.v_insts);
        wire::put_u64(&mut p, self.pc);
        for &r in &self.regs {
            wire::put_u64(&mut p, r);
        }
        wire::put_u32(&mut p, self.pages.len() as u32);
        for (page_no, bytes) in &self.pages {
            wire::put_u64(&mut p, *page_no);
            wire::put_bytes(&mut p, bytes);
        }
        wire::put_bytes(&mut p, &self.output);
        wire::put_u32(&mut p, self.candidates.len() as u32);
        for &(vaddr, count) in &self.candidates {
            wire::put_u64(&mut p, vaddr);
            wire::put_u32(&mut p, count);
        }
        wire::put_u32(&mut p, self.translated.len() as u32);
        for &vstart in &self.translated {
            wire::put_u64(&mut p, vstart);
        }
        wire::put_u32(&mut p, self.demotion.len() as u32);
        for &(vstart, level) in &self.demotion {
            wire::put_u64(&mut p, vstart);
            wire::put_u8(&mut p, level);
        }
        wire::put_u32(&mut p, self.smc_counts.len() as u32);
        for &(vstart, count) in &self.smc_counts {
            wire::put_u64(&mut p, vstart);
            wire::put_u32(&mut p, count);
        }
        put_stats(&mut p, &self.stats);
        wire::seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &p)
    }

    /// Deserializes an artifact written by [`to_bytes`](Snapshot::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let payload = wire::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        let mut c = Cursor::new(payload);
        let program_digest = c.take_u64()?;
        let v_insts = c.take_u64()?;
        let pc = c.take_u64()?;
        let mut regs = [0u64; 32];
        for r in &mut regs {
            *r = c.take_u64()?;
        }
        let n_pages = c.take_u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages.min(1 << 16));
        for _ in 0..n_pages {
            let page_no = c.take_u64()?;
            let bytes = c.take_bytes()?.to_vec();
            pages.push((page_no, bytes));
        }
        let output = c.take_bytes()?.to_vec();
        let n = c.take_u32()? as usize;
        let mut candidates = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vaddr = c.take_u64()?;
            let count = c.take_u32()?;
            candidates.push((vaddr, count));
        }
        let n = c.take_u32()? as usize;
        let mut translated = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            translated.push(c.take_u64()?);
        }
        let n = c.take_u32()? as usize;
        let mut demotion = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vstart = c.take_u64()?;
            let level = c.take_u8()?;
            demotion.push((vstart, level));
        }
        let n = c.take_u32()? as usize;
        let mut smc_counts = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let vstart = c.take_u64()?;
            let count = c.take_u32()?;
            smc_counts.push((vstart, count));
        }
        let stats = take_stats(&mut c)?;
        c.finish()?;
        Ok(Snapshot {
            program_digest,
            v_insts,
            pc,
            regs,
            pages,
            output,
            candidates,
            translated,
            demotion,
            smc_counts,
            stats,
        })
    }
}

fn put_categories(p: &mut Vec<u8>, c: &CategoryCounts) {
    for &v in &c.0 {
        wire::put_u64(p, v);
    }
}

fn take_categories(c: &mut Cursor<'_>) -> Result<CategoryCounts, SnapshotError> {
    let mut out = CategoryCounts::default();
    for v in &mut out.0 {
        *v = c.take_u64()?;
    }
    Ok(out)
}

/// Serializes a [`VmStats`]: every scalar counter in counter-table order
/// (`VmStats`'s, then the engine's), then the three category tables.
pub(crate) fn put_stats(p: &mut Vec<u8>, s: &VmStats) {
    for (_, _, v) in s.counters() {
        wire::put_u64(p, v);
    }
    put_categories(p, &s.engine.categories);
    put_categories(p, &s.static_categories);
    put_categories(p, &s.oracle_categories);
}

/// Deserializes a [`VmStats`] written by [`put_stats`].
pub(crate) fn take_stats(c: &mut Cursor<'_>) -> Result<VmStats, SnapshotError> {
    let mut s = VmStats::default();
    for (_, _, v) in s.counters_mut() {
        *v = c.take_u64()?;
    }
    s.engine.categories = take_categories(c)?;
    s.static_categories = take_categories(c)?;
    s.oracle_categories = take_categories(c)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::distinct_stats;

    fn sample() -> Snapshot {
        Snapshot {
            program_digest: 0xDEAD_BEEF,
            v_insts: 579,
            pc: 0x1_0040,
            regs: std::array::from_fn(|i| i as u64 * 3),
            pages: vec![(0x10, vec![1, 2, 3]), (0x20, vec![0xff; 4096])],
            output: b"hi".to_vec(),
            candidates: vec![(0x1_0000, 9), (0x1_0040, 2)],
            translated: vec![0x1_0040],
            demotion: vec![(0x1_0080, 1)],
            smc_counts: vec![(0x1_0080, 2)],
            stats: distinct_stats(),
        }
    }

    #[test]
    fn every_stats_counter_roundtrips() {
        let snap = sample();
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.stats, distinct_stats());
    }

    /// The stats block of a version-6 snapshot, pinned: reordering the
    /// counter table (or the category tables) changes the wire and must
    /// come with a `SNAPSHOT_VERSION` bump and a new pin.
    #[test]
    fn stats_block_encoding_is_pinned() {
        let mut p = Vec::new();
        put_stats(&mut p, &distinct_stats());
        assert_eq!(SNAPSHOT_VERSION, 6);
        assert_eq!(p.len(), 512);
        assert_eq!(checksum(&p), 0xcd12_ed8e_7634_1082);
    }

    #[test]
    fn wire_roundtrip_is_identity() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn corruption_is_detected() {
        let snap = sample();
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let snap = sample();
        let mut bytes = snap.to_bytes();
        // Rewrite the version field and re-seal so only the version check
        // can fail.
        bytes[4] = 0x7f;
        let body_len = bytes.len() - 8;
        let seal = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&seal.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadVersion { version: 0x7f })
        );
    }

    #[test]
    fn older_versions_are_refused() {
        let current = sample().to_bytes();
        let payload = wire::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &current).unwrap();
        for version in 1..SNAPSHOT_VERSION {
            let old = wire::seal(SNAPSHOT_MAGIC, version, payload);
            assert_eq!(
                Snapshot::from_bytes(&old),
                Err(SnapshotError::BadVersion { version })
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let current = sample().to_bytes();
        let payload = wire::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &current).unwrap();
        let mut longer = payload.to_vec();
        longer.push(0);
        let resealed = wire::seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &longer);
        assert_eq!(
            Snapshot::from_bytes(&resealed),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn memory_digest_matches_rebuilt_memory() {
        let snap = sample();
        let mem = snap.to_memory();
        assert_eq!(mem.read_u8(0x10 << 12), 1);
        assert_eq!(snap.mem_digest(), mem.content_digest());
    }

    #[test]
    fn program_digest_ignores_data_segments() {
        use alpha_isa::Assembler;
        let mut asm = Assembler::new(0x1_0000);
        asm.halt();
        let program = asm.finish().unwrap();
        let sliced = Program::new(program.code_base(), program.code().to_vec())
            .with_entry(program.entry())
            .with_initial_sp(program.initial_sp());
        assert_eq!(program_digest(&program), program_digest(&sliced));
        let other = Program::new(program.code_base() + 8, program.code().to_vec());
        assert_ne!(program_digest(&program), program_digest(&other));
    }
}
