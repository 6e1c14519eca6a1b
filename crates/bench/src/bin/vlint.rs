//! `vlint` — translation-validation lint over the full workload suite.
//!
//! Runs every workload under every (chain policy × ISA form)
//! configuration with the verifier's collecting validator installed, so
//! every translated fragment is checked by all four static passes at
//! install time; after each run the installed (patched, linked)
//! fragments are audited again against the cache. Prints a per-cell
//! summary and exits non-zero if any fragment violates any rule; on
//! failure it also emits the shared lint JSON schema (see
//! `ildp_bench::lint`) naming each violating cell as
//! `workload:form:chain`, which `--repro <cell>` re-runs alone.
//!
//! Usage: `cargo run --release -p ildp-bench --bin vlint`
//! (`ILDP_SCALE` scales the workloads, default 10.)

use ildp_bench::harness_scale;
use ildp_bench::lint::{cell_spec, parse_cell_spec, LintReport, ALL_CHAINS, ALL_FORMS};
use ildp_core::{ChainPolicy, NullSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use ildp_verifier::{take_report, verify_installed, Violation};
use spec_workloads::{suite, Workload};

/// Runs one cell and returns (fragments verified, violations).
fn run_cell(workload: &Workload, form: IsaForm, chain: ChainPolicy) -> (u64, Vec<Violation>) {
    let config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        validator: Some(ildp_verifier::collecting_validator),
        ..VmConfig::default()
    };
    let mut vm = Vm::new(config, &workload.program);
    let exit = vm.run(workload.budget * 2, &mut NullSink);
    if let VmExit::Trapped { vaddr, trap, .. } = exit {
        panic!("{}: unexpected trap at {vaddr:#x}: {trap}", workload.name);
    }
    let mut violations: Vec<Violation> = take_report();
    let cache = vm.cache();
    for frag in cache.fragments() {
        violations.extend(verify_installed(cache, frag));
    }
    (vm.stats().fragments_verified, violations)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = harness_scale();
    let mut report = LintReport::new("vlint");
    if let Some(pos) = args.iter().position(|a| a == "--repro") {
        let Some(spec) = args.get(pos + 1) else {
            eprintln!("vlint: --repro needs workload:form:chain");
            std::process::exit(2);
        };
        let (workload, form, chain) = match parse_cell_spec(spec, scale) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("vlint: {e}");
                std::process::exit(2);
            }
        };
        println!("vlint: re-running cell {spec}");
        let (fragments, violations) = run_cell(&workload, form, chain);
        println!(
            "{fragments} fragments verified, {} violations",
            violations.len()
        );
        for v in &violations {
            println!("    {v}");
        }
        if !violations.is_empty() {
            report.fail(
                spec.clone(),
                violations.iter().map(|v| v.to_string()).collect(),
            );
        }
        report.finish_or_exit();
        return;
    }
    if !args.is_empty() {
        eprintln!("vlint: unknown arguments {args:?}");
        eprintln!("usage: vlint [--repro workload:form:chain]");
        std::process::exit(2);
    }

    let suite = suite(scale);
    let mut total_fragments = 0u64;
    let mut total_violations = 0usize;

    for w in &suite {
        for &form in &ALL_FORMS {
            for &chain in &ALL_CHAINS {
                let (fragments, violations) = run_cell(w, form, chain);
                total_fragments += fragments;
                total_violations += violations.len();
                println!(
                    "{:<10} {:>8} {:<14} {:>4} fragments  {:>3} violations",
                    w.name,
                    format!("{form:?}").to_lowercase(),
                    chain.label(),
                    fragments,
                    violations.len(),
                );
                for v in &violations {
                    println!("    {v}");
                }
                if !violations.is_empty() {
                    report.fail(
                        cell_spec(w.name, form, chain),
                        violations.iter().map(|v| v.to_string()).collect(),
                    );
                }
            }
        }
    }

    println!(
        "\nvlint: {total_fragments} fragment translations checked, \
         {total_violations} violations"
    );
    report.extra("fragments_verified", total_fragments);
    report.finish_or_exit();
}
