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
//! FNV-1a checksum trailer); a program digest guards against restoring
//! onto the wrong guest.

use crate::classify::CategoryCounts;
use crate::engine::EngineStats;
use crate::error::SnapshotError;
use crate::vm::VmStats;
use crate::wire::{self, Cursor};
use alpha_isa::{Memory, Program};

/// Magic number of the snapshot wire format (`"ILPS"`).
pub const SNAPSHOT_MAGIC: u32 = 0x5350_4C49;

/// Current snapshot format version. Version 5 serializes every
/// [`VmStats`] counter in declaration order — it dropped the background
/// translation-pool counters and added `store_quarantined`,
/// `store_load_rejects` and `regions_verified`, which earlier versions
/// silently reset on restore. Versions 1–4 are refused with
/// [`SnapshotError::BadVersion`], as are future versions.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Identity digest of a guest program: FNV-1a over the code base, entry
/// PC, initial SP and every code word. Data segments are excluded on
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
    wire::fnv1a(&buf)
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
        let (version, payload) = wire::open(SNAPSHOT_MAGIC, bytes)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { version });
        }
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

/// Serializes a [`VmStats`]: every counter in declaration order, then the
/// engine block and the category tables. The destructuring is exhaustive,
/// so a counter added to `VmStats` or `EngineStats` without wire support
/// fails to compile here.
pub(crate) fn put_stats(p: &mut Vec<u8>, s: &VmStats) {
    let VmStats {
        interpreted,
        fragments,
        translated_src_insts,
        emitted_insts,
        static_copies,
        strands,
        terminations,
        translated_code_bytes,
        translation_overhead,
        interpretation_overhead,
        cache_flushes,
        fragments_verified,
        verify_nanos,
        verify_rejected,
        evictions,
        smc_invalidations,
        demotions,
        blacklisted,
        fuel_preemptions,
        unlinked_sites,
        warmup_interpreted,
        translate_stall_nanos,
        translate_wall_nanos,
        warm_hits,
        warm_misses,
        warm_stores,
        store_quarantined,
        store_load_rejects,
        regions_formed,
        seam_pairs_eliminated,
        regions_verified,
        engine,
        static_categories,
        oracle_categories,
    } = s;
    let EngineStats {
        executed,
        chain_executed,
        copies_executed,
        v_insts,
        categories,
        dispatches,
        ras_hits,
        ras_misses,
        fragment_entries,
        region_entries,
    } = engine;
    for &v in [
        interpreted,
        fragments,
        translated_src_insts,
        emitted_insts,
        static_copies,
        strands,
        terminations,
        translated_code_bytes,
        translation_overhead,
        interpretation_overhead,
        cache_flushes,
        fragments_verified,
        verify_nanos,
        verify_rejected,
        evictions,
        smc_invalidations,
        demotions,
        blacklisted,
        fuel_preemptions,
        unlinked_sites,
        warmup_interpreted,
        translate_stall_nanos,
        translate_wall_nanos,
        warm_hits,
        warm_misses,
        warm_stores,
        store_quarantined,
        store_load_rejects,
        regions_formed,
        seam_pairs_eliminated,
        regions_verified,
        executed,
        chain_executed,
        copies_executed,
        v_insts,
        dispatches,
        ras_hits,
        ras_misses,
        fragment_entries,
        region_entries,
    ] {
        wire::put_u64(p, v);
    }
    put_categories(p, categories);
    put_categories(p, static_categories);
    put_categories(p, oracle_categories);
}

/// Deserializes a [`VmStats`] written by [`put_stats`]. Struct-literal
/// fields evaluate in the order written, which is the wire order.
pub(crate) fn take_stats(c: &mut Cursor<'_>) -> Result<VmStats, SnapshotError> {
    let mut s = VmStats {
        interpreted: c.take_u64()?,
        fragments: c.take_u64()?,
        translated_src_insts: c.take_u64()?,
        emitted_insts: c.take_u64()?,
        static_copies: c.take_u64()?,
        strands: c.take_u64()?,
        terminations: c.take_u64()?,
        translated_code_bytes: c.take_u64()?,
        translation_overhead: c.take_u64()?,
        interpretation_overhead: c.take_u64()?,
        cache_flushes: c.take_u64()?,
        fragments_verified: c.take_u64()?,
        verify_nanos: c.take_u64()?,
        verify_rejected: c.take_u64()?,
        evictions: c.take_u64()?,
        smc_invalidations: c.take_u64()?,
        demotions: c.take_u64()?,
        blacklisted: c.take_u64()?,
        fuel_preemptions: c.take_u64()?,
        unlinked_sites: c.take_u64()?,
        warmup_interpreted: c.take_u64()?,
        translate_stall_nanos: c.take_u64()?,
        translate_wall_nanos: c.take_u64()?,
        warm_hits: c.take_u64()?,
        warm_misses: c.take_u64()?,
        warm_stores: c.take_u64()?,
        store_quarantined: c.take_u64()?,
        store_load_rejects: c.take_u64()?,
        regions_formed: c.take_u64()?,
        seam_pairs_eliminated: c.take_u64()?,
        regions_verified: c.take_u64()?,
        engine: EngineStats {
            executed: c.take_u64()?,
            chain_executed: c.take_u64()?,
            copies_executed: c.take_u64()?,
            v_insts: c.take_u64()?,
            categories: CategoryCounts::default(),
            dispatches: c.take_u64()?,
            ras_hits: c.take_u64()?,
            ras_misses: c.take_u64()?,
            fragment_entries: c.take_u64()?,
            region_entries: c.take_u64()?,
        },
        static_categories: CategoryCounts::default(),
        oracle_categories: CategoryCounts::default(),
    };
    s.engine.categories = take_categories(c)?;
    s.static_categories = take_categories(c)?;
    s.oracle_categories = take_categories(c)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter set, each to a distinct non-zero value. The literal
    /// is exhaustive (no `..Default::default()`): a counter added later
    /// must be listed here, and then fails the round-trip test unless the
    /// wire format carries it.
    fn distinct_stats() -> VmStats {
        let cats = |base: u64| CategoryCounts(std::array::from_fn(|i| base + i as u64));
        VmStats {
            interpreted: 1,
            fragments: 2,
            translated_src_insts: 3,
            emitted_insts: 4,
            static_copies: 5,
            strands: 6,
            terminations: 7,
            translated_code_bytes: 8,
            translation_overhead: 9,
            interpretation_overhead: 10,
            cache_flushes: 11,
            fragments_verified: 12,
            verify_nanos: 13,
            verify_rejected: 14,
            evictions: 15,
            smc_invalidations: 16,
            demotions: 17,
            blacklisted: 18,
            fuel_preemptions: 19,
            unlinked_sites: 20,
            warmup_interpreted: 21,
            translate_stall_nanos: 22,
            translate_wall_nanos: 23,
            warm_hits: 24,
            warm_misses: 25,
            warm_stores: 26,
            store_quarantined: 27,
            store_load_rejects: 28,
            regions_formed: 29,
            seam_pairs_eliminated: 30,
            regions_verified: 31,
            engine: EngineStats {
                executed: 32,
                chain_executed: 33,
                copies_executed: 34,
                v_insts: 35,
                categories: cats(100),
                dispatches: 36,
                ras_hits: 37,
                ras_misses: 38,
                fragment_entries: 39,
                region_entries: 40,
            },
            static_categories: cats(200),
            oracle_categories: cats(300),
        }
    }

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
        let checksum = wire::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadVersion { version: 0x7f })
        );
    }

    #[test]
    fn version_4_snapshot_is_refused() {
        let v5 = sample().to_bytes();
        let (_, payload) = wire::open(SNAPSHOT_MAGIC, &v5).unwrap();
        let v4 = wire::seal(SNAPSHOT_MAGIC, 4, payload);
        assert_eq!(
            Snapshot::from_bytes(&v4),
            Err(SnapshotError::BadVersion { version: 4 })
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
