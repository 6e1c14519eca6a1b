//! `flowlint` — whole-cache dataflow lint over the full workload suite.
//!
//! Two phases:
//!
//! 1. **Clean matrix**: every workload under every (ISA form × chain
//!    policy) runs with the collecting flow validator installed (rules
//!    F01–F04 on each fresh translation); after the run the installed
//!    cache is audited as a whole (`flow::check_cache`: F03/F04/F05 over
//!    patched fragments + the worklist liveness solver) and a bounded
//!    sample of the retired-instruction trace is cross-checked against
//!    the static summaries (`flow::check_dynamic`: F06). Must be
//!    violation-free, and prints the per-cell seam opportunity report
//!    (dead/redundant cross-fragment communication).
//! 2. **Seeded detection**: every F01–F06 seeded miscompile from the
//!    shared corpus (`ildp_bench::miscompile`) must be detected by the
//!    rule that owns it.
//!
//! Exits non-zero with the shared lint JSON schema on any violation or
//! undetected seed. `--repro workload:form:chain` re-runs one matrix
//! cell alone.
//!
//! Usage: `cargo run --release -p ildp-bench --bin flowlint`
//! (`ILDP_SCALE` scales the workloads, default 10.)

use ildp_bench::harness_scale;
use ildp_bench::lint::{cell_spec, parse_cell_spec, LintReport, ALL_CHAINS, ALL_FORMS};
use ildp_bench::miscompile::{flow_cache_seeds, flow_translation_seeds};
use ildp_core::{ChainPolicy, TraceSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use ildp_uarch::DynInst;
use ildp_verifier::{flow, take_report, FlowReport, Violation};
use spec_workloads::{suite, Workload};

/// Records the first `cap` retired instructions for the F06 cross-check.
struct SampleSink {
    buf: Vec<DynInst>,
    cap: usize,
}

impl TraceSink for SampleSink {
    fn retire(&mut self, inst: &DynInst) {
        if self.buf.len() < self.cap {
            self.buf.push(*inst);
        }
    }
}

/// Retired-trace sample size per cell for the dynamic cross-check.
const TRACE_SAMPLE: usize = 200_000;

/// Runs one matrix cell; returns (violations, seam report).
fn run_cell(
    workload: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
) -> (Vec<Violation>, FlowReport) {
    let config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        validator: Some(ildp_verifier::collecting_flow_validator),
        ..VmConfig::default()
    };
    let mut vm = Vm::new(config, &workload.program);
    let mut sink = SampleSink {
        buf: Vec::new(),
        cap: TRACE_SAMPLE,
    };
    let exit = vm.run(workload.budget * 2, &mut sink);
    if let VmExit::Trapped { vaddr, trap, .. } = exit {
        panic!("{}: unexpected trap at {vaddr:#x}: {trap}", workload.name);
    }
    let mut violations = take_report();
    let cache = vm.cache();
    let (cache_violations, seam) = flow::check_cache(cache, Some(chain));
    violations.extend(cache_violations);
    violations.extend(flow::check_dynamic(cache, &sink.buf));
    (violations, seam)
}

fn print_cell(spec: &str, violations: &[Violation], seam: &FlowReport) {
    println!(
        "{spec:<40} {:>4} fragments {:>4} edges  dead {:>3} redundant {:>3}  {:>3} violations",
        seam.fragments,
        seam.resolved_edges,
        seam.dead_copy_outs,
        seam.redundant_seam_pairs,
        violations.len(),
    );
    for v in violations {
        println!("    {v}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = harness_scale();
    let mut report = LintReport::new("flowlint");

    if let Some(pos) = args.iter().position(|a| a == "--repro") {
        let Some(spec) = args.get(pos + 1) else {
            eprintln!("flowlint: --repro needs workload:form:chain");
            std::process::exit(2);
        };
        let (workload, form, chain) = match parse_cell_spec(spec, scale) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("flowlint: {e}");
                std::process::exit(2);
            }
        };
        println!("flowlint: re-running cell {spec}");
        let (violations, seam) = run_cell(&workload, form, chain);
        print_cell(spec, &violations, &seam);
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
        eprintln!("flowlint: unknown arguments {args:?}");
        eprintln!("usage: flowlint [--repro workload:form:chain]");
        std::process::exit(2);
    }

    // Phase 1: the clean matrix.
    let suite = suite(scale);
    let mut total = FlowReport::default();
    for w in &suite {
        for &form in &ALL_FORMS {
            for &chain in &ALL_CHAINS {
                let spec = cell_spec(w.name, form, chain);
                let (violations, seam) = run_cell(w, form, chain);
                total.merge(&seam);
                print_cell(&spec, &violations, &seam);
                if !violations.is_empty() {
                    report.fail(spec, violations.iter().map(|v| v.to_string()).collect());
                }
            }
        }
    }

    // Phase 2: seeded-miscompile detection, one failure entry per
    // undetected seed.
    let mut seeds = 0u64;
    let mut undetected = 0u64;
    for seed in flow_translation_seeds() {
        seeds += 1;
        let (sb, code, _tr) = seed.build();
        let mut vs = Vec::new();
        flow::check_translation(&sb, &code, &mut vs);
        let caught = vs.iter().any(|v| v.rule == seed.rule);
        println!(
            "seed {:<55} [{}] {}",
            seed.name,
            seed.rule,
            if caught { "detected" } else { "UNDETECTED" }
        );
        if !caught {
            undetected += 1;
            report.fail(
                format!("seed:{}:{}", seed.rule, seed.name),
                vec![format!(
                    "seeded {} miscompile not detected; rules that fired: {:?}",
                    seed.rule,
                    vs.iter().map(|v| v.rule).collect::<Vec<_>>()
                )],
            );
        }
    }
    for seed in flow_cache_seeds() {
        seeds += 1;
        let vs = (seed.run)();
        let caught = vs.iter().any(|v| v.rule == seed.rule);
        println!(
            "seed {:<55} [{}] {}",
            seed.name,
            seed.rule,
            if caught { "detected" } else { "UNDETECTED" }
        );
        if !caught {
            undetected += 1;
            report.fail(
                format!("seed:{}:{}", seed.rule, seed.name),
                vec![format!(
                    "seeded {} miscompile not detected; rules that fired: {:?}",
                    seed.rule,
                    vs.iter().map(|v| v.rule).collect::<Vec<_>>()
                )],
            );
        }
    }

    println!(
        "\nflowlint: {} fragments, {} resolved edges, {} boundary exits; \
         {} copy-ins, {} copy-outs, {} dead copy-outs, {} redundant seam pairs; \
         {seeds} seeds, {undetected} undetected",
        total.fragments,
        total.resolved_edges,
        total.boundary_exits,
        total.copy_ins,
        total.copy_outs,
        total.dead_copy_outs,
        total.redundant_seam_pairs,
    );
    report
        .extra("fragments", total.fragments)
        .extra("resolved_edges", total.resolved_edges)
        .extra("dead_copy_outs", total.dead_copy_outs)
        .extra("redundant_seam_pairs", total.redundant_seam_pairs)
        .extra("seeds", seeds)
        .extra("undetected", undetected);
    report.finish_or_exit();
    println!("flowlint: clean");
}
