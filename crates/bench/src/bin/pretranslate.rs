//! `pretranslate` — offline ahead-of-time translation into the
//! persistent fragment store.
//!
//! Walks every (workload × ISA form × chain policy) cell of the suite
//! with a cold, synchronous, fully-verified VM and publishes every
//! translated fragment into one digest-keyed
//! [`FragmentStore`](ildp_core::FragmentStore), then saves it atomically
//! (temp file + fsync + rename under the store's advisory lock). A
//! freshly exec'd VM pointed at the saved file boots with zero JIT
//! warmup: every region it heats is served from disk, optionally
//! re-verified by the E01–E07 symbolic checker before install
//! (`VmConfig::store_validator`).
//!
//! The store is keyed by (superblock code digest × translator config
//! digest), so a stale store is merely cold, never wrong — and `storelint`
//! proves a *corrupted* store degrades to a cache miss too.
//!
//! Usage: `cargo run --release -p ildp-bench --bin pretranslate -- \
//!   [--out <path>] [--check]`
//! (`ILDP_SCALE` scales the workloads, default 10. Default output path
//! `BENCH_store.bin`. With `--check`, after saving, the store is
//! re-loaded strictly, every artifact force-validated, and one warm cell
//! is run against it as a smoke differential.)

use ildp_bench::harness_scale;
use ildp_bench::store::{pretranslate_suite, run_cell_against_store};
use ildp_core::{ChainPolicy, FragmentStore};
use ildp_isa::IsaForm;
use spec_workloads::suite;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("BENCH_store.bin");
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => match args.get(i + 1) {
                Some(p) => {
                    out = PathBuf::from(p);
                    i += 2;
                }
                None => {
                    eprintln!("pretranslate: --out needs a path");
                    std::process::exit(2);
                }
            },
            "--check" => {
                check = true;
                i += 1;
            }
            other => {
                eprintln!("pretranslate: unknown argument {other:?}");
                eprintln!("usage: pretranslate [--out <path>] [--check]");
                std::process::exit(2);
            }
        }
    }

    let scale = harness_scale();
    let (store, report) = match pretranslate_suite(scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pretranslate: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "pretranslate: scale {scale}, {} cells, {} fragments translated+verified, \
         {} distinct artifacts",
        report.cells, report.fragments, report.entries
    );

    let written = match store.save(&out) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("pretranslate: saving {}: {e}", out.display());
            std::process::exit(1);
        }
    };
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "pretranslate: wrote {written} artifacts ({bytes} bytes) to {}",
        out.display()
    );

    if check {
        // Strict reload: the file we just wrote must parse eagerly and
        // every artifact must pass its seal + embedded-key validation.
        let reloaded = match FragmentStore::load(&out) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pretranslate: strict reload failed: {e}");
                std::process::exit(1);
            }
        };
        let (ok, bad) = reloaded.validate_all();
        if bad != 0 || ok != reloaded.len() {
            eprintln!("pretranslate: reload validation: {ok} ok, {bad} bad");
            std::process::exit(1);
        }
        let reloaded = Arc::new(reloaded);
        let w = &suite(scale)[0];
        match run_cell_against_store(
            w,
            IsaForm::Modified,
            ChainPolicy::SwPredDualRas,
            &reloaded,
            true,
        ) {
            Ok(outcome) if outcome.warm_misses == 0 && outcome.store_quarantined == 0 => {
                println!(
                    "pretranslate: check ok — reload validated {ok} artifacts, warm smoke \
                     run took {} fragments from the store with zero retranslation",
                    outcome.warm_hits
                );
            }
            Ok(outcome) => {
                eprintln!(
                    "pretranslate: warm smoke run retranslated: {} hits, {} misses, \
                     {} quarantined",
                    outcome.warm_hits, outcome.warm_misses, outcome.store_quarantined
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("pretranslate: warm smoke run diverged: {e}");
                std::process::exit(1);
            }
        }
    }
}
