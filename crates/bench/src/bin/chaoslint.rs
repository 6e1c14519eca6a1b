//! `chaoslint` — fault-injection sweep over the full workload suite.
//!
//! Runs every workload under every (chain policy × ISA form)
//! configuration with a capacity-bounded, fuel-limited VM while the
//! [`ildp_bench::chaos`] harness deterministically corrupts the
//! translation cache at chunk boundaries: severed and misdirected direct
//! links, poisoned branch targets, corrupted entry shapes, cache-epoch
//! flips, and external stores into translated source pages. Every
//! structural corruption must be flagged by the C01–C07 installed-fragment
//! audit and healed by precise invalidation, and every run must halt with
//! the architected state of a pure interpreter.
//!
//! Every cell is recorded: a failure prints the exact cell spec
//! (`workload:form:chain:seed`) and a structured JSON failure report, and
//! `--repro <spec>` re-runs precisely that cell (with record→replay
//! verification). `--seed <n>` runs the whole sweep with that single seed
//! per cell instead of the default schedule. A failing spec feeds
//! straight into `triage --chaos <spec>`.
//!
//! Usage: `cargo run --release -p ildp-bench --bin chaoslint`
//! (`ILDP_SCALE` scales the workloads, default 10; `ILDP_CHAOS_SEEDS`
//! seeds per cell, default 1.)

use ildp_bench::chaos::{chaos_cell_recorded, chaos_replay, CellSpec, ChaosReport};
use ildp_bench::harness_scale;
use ildp_bench::lint::LintReport;
use ildp_core::ChainPolicy;
use ildp_isa::IsaForm;
use spec_workloads::suite;

/// A failed cell: the spec that reproduces it and what went wrong.
struct Failure {
    cell: CellSpec,
    error: String,
}

fn emit_failure_report(failures: &[Failure], total: &ChaosReport) {
    let mut report = LintReport::new("chaoslint");
    report
        .extra("injections", total.injections)
        .extra("undetected", total.undetected);
    for f in failures {
        report.fail(f.cell.to_string(), vec![f.error.clone()]);
    }
    println!("chaoslint: FAILURE REPORT");
    println!("{}", report.to_json());
    for f in failures {
        println!("rerun: chaoslint --repro {}", f.cell);
        println!("triage: triage --chaos {} -o fail.repro", f.cell);
    }
}

/// Re-runs exactly one recorded cell, then verifies the recorded envelope
/// replays to the identical tally.
fn run_repro(spec: &CellSpec) -> i32 {
    let w = spec.workload(harness_scale());
    println!("chaoslint: re-running cell {spec}");
    let (res, log) = chaos_cell_recorded(&w, spec.form, spec.chain, spec.seed);
    let report = match res {
        Ok(r) => r,
        Err(e) => {
            emit_failure_report(
                &[Failure {
                    cell: spec.clone(),
                    error: e,
                }],
                &ChaosReport::default(),
            );
            return 1;
        }
    };
    println!(
        "cell passed: {} injections, {} healed, {} undetected",
        report.injections, report.healed, report.undetected
    );
    match chaos_replay(&w, spec.form, spec.chain, &log) {
        Ok(replayed) if replayed == report => {
            println!("record/replay verified: replayed tally identical");
            0
        }
        Ok(_) => {
            println!("chaoslint: replayed tally DIFFERS from recorded run");
            1
        }
        Err(e) => {
            println!("chaoslint: replay failed where recording passed: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed_override: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repro" => {
                let spec = args.get(i + 1).map(|s| CellSpec::parse(s));
                match spec {
                    Some(Ok(spec)) => std::process::exit(run_repro(&spec)),
                    Some(Err(e)) => {
                        eprintln!("chaoslint: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("chaoslint: --repro needs workload:form:chain:seed");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    Some(s) => seed_override = Some(s),
                    None => {
                        eprintln!("chaoslint: --seed needs a number");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("chaoslint: unknown argument {other:?}");
                eprintln!("usage: chaoslint [--seed <n>] [--repro workload:form:chain:seed]");
                std::process::exit(2);
            }
        }
    }

    let scale = harness_scale();
    let seeds: u64 = std::env::var("ILDP_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let suite = suite(scale);
    let chains = [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ];
    let forms = [IsaForm::Basic, IsaForm::Modified];

    let mut total = ChaosReport::default();
    let mut failures = Vec::new();
    let mut cell_index = 0u64;
    for w in &suite {
        for &form in &forms {
            for &chain in &chains {
                let mut cell_total = ChaosReport::default();
                for s in 0..seeds {
                    cell_index += 1;
                    let seed = seed_override.unwrap_or(cell_index * 1000 + s);
                    let spec = CellSpec {
                        workload: w.name.to_string(),
                        form,
                        chain,
                        seed,
                    };
                    match chaos_cell_recorded(w, form, chain, seed).0 {
                        Ok(report) => cell_total.merge(&report),
                        Err(error) => failures.push(Failure { cell: spec, error }),
                    }
                }
                total.merge(&cell_total);
                println!(
                    "{:<10} {:>8} {:<14} {:>4} injected  {:>3} healed  {:>2} undetected",
                    w.name,
                    format!("{form:?}").to_lowercase(),
                    chain.label(),
                    cell_total.injections,
                    cell_total.healed,
                    cell_total.undetected,
                );
            }
        }
    }

    println!(
        "\nchaoslint: {} injections ({} link-clear, {} link-poison, \
         {} target-poison, {} vpc, {} epoch-flip, {} code-write), \
         {} fragments healed, {} undetected, \
         {} divergences",
        total.injections,
        total.link_clears,
        total.link_poisons,
        total.target_poisons,
        total.vpc_corruptions,
        total.epoch_flips,
        total.code_writes,
        total.healed,
        total.undetected,
        failures.len(),
    );
    if !failures.is_empty() || total.undetected > 0 {
        emit_failure_report(&failures, &total);
        std::process::exit(1);
    }
    if total.injections < 500 {
        println!(
            "chaoslint: only {} injections (< 500); raise ILDP_CHAOS_SEEDS",
            total.injections
        );
        std::process::exit(1);
    }
}
