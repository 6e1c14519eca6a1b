//! Durability contract of the persistent fragment store: atomic saves,
//! clean failures on partial/empty files, tombstoned removals that
//! survive the save→load merge, and concurrent writers that union
//! rather than clobber.

use ildp_bench::store::{pretranslate_cell, run_cell_against_store};
use ildp_core::{
    ChainPolicy, FragmentArtifact, FragmentStore, NullSink, Translator, Vm, VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use spec_workloads::suite;
use std::path::PathBuf;
use std::sync::Arc;

/// A per-test scratch directory (tests run in parallel).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ildp-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A small populated store: one pretranslated cell.
fn small_store() -> Arc<FragmentStore> {
    let store = Arc::new(FragmentStore::new());
    let w = &suite(1)[0];
    pretranslate_cell(&store, w, IsaForm::Modified, ChainPolicy::SwPredDualRas)
        .expect("pretranslation");
    assert!(store.len() >= 2, "cell translated too few fragments");
    store
}

#[test]
fn save_load_roundtrip_is_byte_faithful() {
    let dir = scratch("roundtrip");
    let path = dir.join("store.bin");
    let store = small_store();
    let written = store.save(&path).expect("save");
    assert_eq!(written, store.len());

    let loaded = FragmentStore::load(&path).expect("strict load");
    assert_eq!(loaded.len(), store.len());
    let (ok, bad) = loaded.validate_all();
    assert_eq!((ok, bad), (store.len(), 0));
    for ((ka, a), (kb, b)) in store.raw_entries().iter().zip(loaded.raw_entries().iter()) {
        assert_eq!(ka, kb);
        assert_eq!(a, b, "entry bytes changed across save/load");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_partial_files_error_cleanly() {
    let dir = scratch("partial");
    let store = small_store();
    let full = store.to_bytes();

    for (name, bytes) in [
        ("empty.bin", &full[..0]),
        ("header-only.bin", &full[..8.min(full.len())]),
        ("half.bin", &full[..full.len() / 2]),
        ("all-but-one.bin", &full[..full.len() - 1]),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        // Strict load: a clean InvalidData error, never a panic.
        let err = FragmentStore::load(&path).expect_err(name);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
        // Resilient open: degrades, reports the damage, never panics.
        let (salvaged, report) = FragmentStore::open(&path);
        assert!(
            !report.seal_intact || report.error.is_some(),
            "{name}: truncation must break the seal or fail the envelope"
        );
        assert!(salvaged.len() <= store.len());
        let (_, bad) = salvaged.validate_all();
        assert_eq!(bad, 0, "{name}: salvaged entries must validate");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_is_atomic_and_leaves_no_temp_files() {
    let dir = scratch("atomic");
    let path = dir.join("store.bin");
    let store = small_store();
    store.save(&path).expect("first save");
    store.save(&path).expect("save over existing");

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|n| !n.contains(".tmp.")),
        "temp files left behind: {names:?}"
    );
    assert!(names.contains(&"store.bin".to_string()));
    FragmentStore::load(&path).expect("file is complete after overwrite");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removals_survive_save_load_merge() {
    let dir = scratch("tombstone");
    let path = dir.join("store.bin");
    let store = small_store();
    let total = store.len();
    store.save(&path).expect("seed the file");

    // Evict one entry; the disk file still holds it. A later save merges
    // with the disk state — the tombstone must keep the eviction.
    let victim = store.raw_entries()[0].0;
    assert!(store.remove(&victim));
    let written = store.save(&path).expect("save after removal");
    assert_eq!(written, total - 1, "merge resurrected the removed entry");

    let loaded = FragmentStore::load(&path).expect("strict load");
    assert_eq!(loaded.len(), total - 1);
    assert!(
        loaded.get(&victim).is_none(),
        "removed artifact came back from disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_saves_union_under_the_advisory_lock() {
    let dir = scratch("race");
    let path = dir.join("store.bin");
    let full = small_store();
    let entries = full.raw_entries();

    // Two stores holding disjoint halves of the same artifact set.
    let a = FragmentStore::new();
    let b = FragmentStore::new();
    for (i, (key, bytes)) in entries.iter().enumerate() {
        let (_, art) = FragmentArtifact::from_bytes(bytes).expect("baseline artifact");
        if i % 2 == 0 {
            a.put(*key, &art);
        } else {
            b.put(*key, &art);
        }
    }
    let (ra, rb) = std::thread::scope(|s| {
        let ha = s.spawn(|| a.save(&path));
        let hb = s.spawn(|| b.save(&path));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    ra.expect("writer a");
    rb.expect("writer b");

    let merged = FragmentStore::load(&path).expect("strict load");
    assert_eq!(
        merged.len(),
        entries.len(),
        "racing writers clobbered instead of merging"
    );
    let (ok, bad) = merged.validate_all();
    assert_eq!((ok, bad), (entries.len(), 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saved_store_boots_a_cold_vm_without_retranslation() {
    let dir = scratch("boot");
    let path = dir.join("store.bin");
    let w = &suite(1)[0];
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let store = Arc::new(FragmentStore::new());
    pretranslate_cell(&store, w, form, chain).expect("pretranslation");
    store.save(&path).expect("save");

    // A brand-new store object from the file — the moral equivalent of a
    // fresh process — must serve every fragment, re-verified.
    let (cold, report) = FragmentStore::open(&path);
    assert!(report.seal_intact && report.rejected == 0 && report.error.is_none());
    let cold = Arc::new(cold);
    let out = run_cell_against_store(w, form, chain, &cold, true).expect("warm differential");
    assert!(out.warm_hits > 0);
    assert_eq!(out.warm_misses, 0);
    assert_eq!(out.store_quarantined, 0);
    assert_eq!(out.fragments_verified, 0);
    let _ = std::fs::remove_dir_all(&dir);
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

/// A VM warm-started from a shared store — and the cold VM that filled
/// it — must reach the exact final architected state of a store-less
/// VM: all 32 GPRs, memory contents, console output and retired
/// V-instruction count.
#[test]
fn warm_start_is_architecturally_invisible() {
    for w in suite(1) {
        let form = IsaForm::Modified;
        let what = format!("{} warm start", w.name);
        let budget = w.budget * 2;

        let mut reference = Vm::new(config(form), &w.program);
        assert_eq!(reference.run(budget, &mut NullSink), VmExit::Halted);

        let store = Arc::new(FragmentStore::new());
        let mut cold = Vm::new(config(form), &w.program);
        cold.attach_store(Arc::clone(&store));
        assert_eq!(cold.run(budget, &mut NullSink), VmExit::Halted);

        let mut warm = Vm::new(config(form), &w.program);
        warm.attach_store(Arc::clone(&store));
        assert_eq!(warm.run(budget, &mut NullSink), VmExit::Halted);
        assert!(
            warm.stats().warm_hits > 0 || cold.stats().warm_stores == 0,
            "{what}: store populated but never hit"
        );
        for (vm, label) in [(&cold, "cold"), (&warm, "warm")] {
            assert_eq!(
                vm.cpu().registers(),
                reference.cpu().registers(),
                "{what}: {label} GPRs diverged"
            );
            assert_eq!(
                vm.memory().content_digest(),
                reference.memory().content_digest(),
                "{what}: {label} memory diverged"
            );
            assert_eq!(
                vm.output(),
                reference.output(),
                "{what}: {label} output diverged"
            );
            assert_eq!(
                vm.v_instructions(),
                reference.v_instructions(),
                "{what}: {label} retired count diverged"
            );
        }
    }
}
