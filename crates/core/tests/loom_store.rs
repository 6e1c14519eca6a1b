//! Loom model-checking of the one cross-thread surface: the
//! [`FragmentStore`] publish/lookup/remove protocol shared by concurrent
//! VMs.
//!
//! Gated behind the `loom` feature so the ordinary test run never pays
//! for it:
//!
//! ```text
//! cargo test -p ildp-core --features loom --test loom_store --release
//! ```
//!
//! The vendored `loom` is a std-backed stress stand-in (the build is
//! offline): `loom::model` re-runs each body many times under real OS
//! scheduling rather than exhaustively enumerating interleavings.
//! Substituting crates-io loom in the workspace manifest upgrades this
//! test to exhaustive exploration unchanged; a ThreadSanitizer run
//! (documented in the verify skill) is the independent dynamic check.

#![cfg(feature = "loom")]

use alpha_isa::{Inst, Operand, OperateOp, Reg};
use ildp_core::{
    ArtifactKey, CollectedFlow, FragmentArtifact, FragmentStore, SbEnd, SbInst, Superblock,
    Translator,
};
use loom::sync::Arc;
use loom::thread;

/// A one-instruction region (two live-in GPR sources, so both forms emit
/// real copy traffic) at `base`.
fn tiny_superblock(base: u64) -> Superblock {
    Superblock {
        start: base,
        insts: vec![SbInst {
            vaddr: base,
            inst: Inst::Operate {
                op: OperateOp::Addq,
                ra: Reg::new(1),
                rb: Operand::Reg(Reg::new(2)),
                rc: Reg::new(3),
            },
            flow: CollectedFlow::Sequential,
        }],
        end: SbEnd::Cycle { next: base + 4 },
    }
}

/// Concurrent publishers racing the same key: exactly one `put` wins,
/// racing lookups observe either a miss or the complete artifact (never
/// a torn one), and one coherence `remove` empties the entry again.
#[test]
fn store_publish_lookup_remove_is_atomic() {
    let code = Translator::default().translate(&tiny_superblock(0x2_0000));
    let artifact = FragmentArtifact::from_translation(code, Translator::default().form);
    loom::model(move || {
        let store = Arc::new(FragmentStore::new());
        let key = ArtifactKey {
            code_digest: 0x1234,
            config_digest: 0x5678,
        };
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                let artifact = artifact.clone();
                thread::spawn(move || store.put(key, &artifact))
            })
            .collect();
        let reader = {
            let store = Arc::clone(&store);
            let artifact = artifact.clone();
            thread::spawn(move || {
                // Concurrent with the puts: a miss or the whole artifact.
                if let Some(got) = store.get(&key) {
                    assert_eq!(got, artifact);
                }
            })
        };
        let wins: Vec<bool> = publishers.into_iter().map(|h| h.join().unwrap()).collect();
        reader.join().unwrap();
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one racing publisher must win"
        );
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().stores, 1);
        assert_eq!(store.get(&key).as_ref(), Some(&artifact));

        let removers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                thread::spawn(move || store.remove(&key))
            })
            .collect();
        let removed: Vec<bool> = removers.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            removed.iter().filter(|&&r| r).count(),
            1,
            "exactly one racing invalidation must observe the entry"
        );
        assert!(store.is_empty());
        assert_eq!(store.get(&key), None);
        assert_eq!(store.stats().invalidations, 1);
    });
}
