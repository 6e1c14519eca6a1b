//! Wire-format robustness of the persistent fragment store: roundtrip
//! fidelity under arbitrary cells, and an exhaustive single-byte-flip
//! sweep over a serialized image. Every mutation must load equal or be
//! rejected (error or per-entry quarantine) — never panic, never
//! silently install an artifact whose bytes differ from what was saved.

use ildp_core::{
    ChainPolicy, FragmentArtifact, FragmentStore, NullSink, Translator, Vm, VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use proptest::prelude::*;
use spec_workloads::{by_name, NAMES};
use std::collections::HashMap;
use std::sync::Arc;

/// Pretranslates one (workload × form × chain) cell into a fresh store.
fn populate(widx: usize, form: IsaForm, chain: ChainPolicy) -> Arc<FragmentStore> {
    let w = by_name(NAMES[widx % NAMES.len()], 1).unwrap();
    let config = VmConfig {
        translator: Translator {
            form,
            chain,
            ..Translator::default()
        },
        ..VmConfig::default()
    };
    let store = Arc::new(FragmentStore::new());
    let mut vm = Vm::new(config, &w.program);
    vm.attach_store(Arc::clone(&store));
    let exit = vm.run(w.budget * 2, &mut NullSink);
    assert!(matches!(exit, VmExit::Halted | VmExit::Budget));
    store
}

/// Checks the only acceptable outcomes of loading `image` whose baseline
/// content is `baseline`: every entry that survives the resilient open
/// plus force-validation is byte-identical to the baseline artifact
/// under the same key.
fn assert_degrades_safely(image: &[u8], baseline: &HashMap<[u64; 2], Vec<u8>>) {
    let (store, _report) = FragmentStore::open_bytes(image);
    store.validate_all();
    for (key, bytes) in store.raw_entries() {
        let k = [key.code_digest, key.config_digest];
        match baseline.get(&k) {
            Some(b) => assert_eq!(
                b.as_slice(),
                bytes.as_slice(),
                "survivor under {k:x?} differs from the saved artifact"
            ),
            None => panic!("survivor under {k:x?} never existed in the baseline"),
        }
    }
}

fn baseline_map(store: &FragmentStore) -> HashMap<[u64; 2], Vec<u8>> {
    store
        .raw_entries()
        .into_iter()
        .map(|(k, b)| ([k.code_digest, k.config_digest], b.as_ref().clone()))
        .collect()
}

#[test]
fn exhaustive_single_byte_flip_sweep() {
    let store = populate(0, IsaForm::Modified, ChainPolicy::SwPredDualRas);
    assert!(store.len() >= 2, "cell translated too few fragments");
    let image = store.to_bytes();
    let baseline = baseline_map(&store);

    for at in 0..image.len() {
        let mut mutated = image.clone();
        mutated[at] ^= 0xff;
        // The strict loader covers every byte with the container seal:
        // any single-byte change must be an error, never a different
        // store.
        assert!(
            FragmentStore::from_bytes(&mutated).is_err(),
            "strict load accepted a flip at byte {at}"
        );
        // The resilient loader may salvage entries the flip missed, but
        // whatever survives must be byte-identical to what was saved.
        assert_degrades_safely(&mutated, &baseline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn store_roundtrip_is_byte_faithful(
        widx in 0usize..NAMES.len(),
        modified in any::<bool>(),
        chain_idx in 0usize..3,
    ) {
        let form = if modified { IsaForm::Modified } else { IsaForm::Basic };
        let chain =
            [ChainPolicy::NoPred, ChainPolicy::SwPred, ChainPolicy::SwPredDualRas][chain_idx];
        let store = populate(widx, form, chain);
        let image = store.to_bytes();

        let reloaded = FragmentStore::from_bytes(&image).unwrap();
        prop_assert_eq!(reloaded.len(), store.len());
        // Container re-encode is deterministic and byte-identical.
        prop_assert_eq!(reloaded.to_bytes(), image);
        // Every artifact decodes and re-encodes to the exact entry bytes.
        for (key, bytes) in store.raw_entries() {
            let (embedded, art) = FragmentArtifact::from_bytes(&bytes).unwrap();
            prop_assert_eq!(embedded, key);
            prop_assert_eq!(art.to_bytes(key), *bytes);
        }
        let (ok, bad) = reloaded.validate_all();
        prop_assert_eq!((ok, bad), (store.len(), 0));
    }

    #[test]
    fn random_corruption_never_installs_differing_code(
        widx in 0usize..NAMES.len(),
        modified in any::<bool>(),
        chain_idx in 0usize..3,
        seed in any::<u64>(),
        burst in 1usize..6,
        truncate in any::<bool>(),
    ) {
        let form = if modified { IsaForm::Modified } else { IsaForm::Basic };
        let chain =
            [ChainPolicy::NoPred, ChainPolicy::SwPred, ChainPolicy::SwPredDualRas][chain_idx];
        let store = populate(widx, form, chain);
        let image = store.to_bytes();
        let baseline = baseline_map(&store);

        // A deterministic burst of byte corruptions (and optionally a
        // truncation) derived from the seed.
        let mut mutated = image.clone();
        let mut x = seed | 1;
        for _ in 0..burst {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let at = (x % mutated.len() as u64) as usize;
            let mask = (x >> 32) as u8 | 1;
            mutated[at] ^= mask;
        }
        if truncate {
            let keep = (x % image.len() as u64) as usize;
            mutated.truncate(keep);
        }
        if mutated != image {
            prop_assert!(FragmentStore::from_bytes(&mutated).is_err());
        }
        assert_degrades_safely(&mutated, &baseline);
    }
}
