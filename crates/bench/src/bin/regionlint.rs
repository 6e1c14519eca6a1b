//! `regionlint` — profile-guided region re-formation lint.
//!
//! Two phases:
//!
//! 1. **Differential matrix**: every workload under every (ISA form ×
//!    chain policy) runs twice — once with region re-formation forced on
//!    (a low promotion trigger so merging happens even at lint scale)
//!    and the full install gate collecting violations, and once on a
//!    pure interpreter oracle. The two runs must agree on exit kind,
//!    final architected registers, console output, and memory contents;
//!    the collecting validator must stay silent; and the installed cache
//!    must pass the whole-cache dataflow audit. The matrix as a whole
//!    must actually form regions (a run where no promotion fires tests
//!    nothing and fails loudly).
//! 2. **Seeded detection**: every region-specific seeded miscompile
//!    (`ildp_bench::miscompile::region_seeds` — poisoned interior seam
//!    exits, rebound backedges, wrong seam copies, dropped recovery
//!    inside an unrolled iteration, truncated tails) must be detected by
//!    the install gate (`verify_translation`), zero undetected.
//!
//! Exits non-zero with the shared lint JSON schema on any divergence,
//! violation, missing coverage, or undetected seed. `--repro
//! workload:form:chain` re-runs one matrix cell alone.
//!
//! Usage: `cargo run --release -p ildp-bench --bin regionlint`
//! (`ILDP_SCALE` scales the workloads, default 10.)

use ildp_bench::harness_scale;
use ildp_bench::lint::{cell_spec, parse_cell_spec, LintReport, ALL_CHAINS, ALL_FORMS};
use ildp_bench::miscompile::region_seeds;
use ildp_core::{ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig};
use ildp_isa::IsaForm;
use ildp_verifier::{flow, take_report, verify_translation};
use spec_workloads::{suite, Workload};

/// Promotion trigger for the lint matrix: low enough that every loop
/// the suite keeps warm crosses it at lint scale, so region formation
/// is actually exercised.
const LINT_TRIGGER: u64 = 64;

/// One cell's observable outcome plus region/verification accounting.
struct CellResult {
    diverged: Vec<String>,
    violations: Vec<String>,
    regions_formed: u64,
    region_entries: u64,
    seams_eliminated: u64,
    regions_verified: u64,
}

/// Runs one matrix cell: region-enabled VM vs interpreter oracle.
fn run_cell(workload: &Workload, form: IsaForm, chain: ChainPolicy) -> CellResult {
    let mut config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        validator: Some(ildp_verifier::collecting_full_validator),
        ..VmConfig::default()
    };
    config.engine.region_trigger = Some(LINT_TRIGGER);
    let mut vm = Vm::new(config, &workload.program);
    let exit = vm.run(workload.budget * 2, &mut NullSink);
    let mut violations: Vec<String> = take_report().iter().map(|v| v.to_string()).collect();
    let (cache_violations, _seam) = flow::check_cache(vm.cache(), Some(chain));
    violations.extend(cache_violations.iter().map(|v| v.to_string()));

    // Interpreter oracle: never form superblocks, never translate.
    let oracle_config = VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count: 4,
            fuse_memory: false,
        },
        profile: ProfileConfig {
            threshold: u32::MAX,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    };
    let mut oracle = Vm::new(oracle_config, &workload.program);
    let oracle_exit = oracle.run(workload.budget * 2, &mut NullSink);

    let mut diverged = Vec::new();
    if std::mem::discriminant(&exit) != std::mem::discriminant(&oracle_exit) {
        diverged.push(format!("exit {exit:?} vs oracle {oracle_exit:?}"));
    }
    if vm.cpu().registers() != oracle.cpu().registers() {
        for (r, (a, b)) in vm
            .cpu()
            .registers()
            .iter()
            .zip(oracle.cpu().registers().iter())
            .enumerate()
        {
            if a != b {
                diverged.push(format!("r{r}: {a:#x} vs oracle {b:#x}"));
            }
        }
    }
    if vm.output() != oracle.output() {
        diverged.push(format!(
            "console output diverged ({} vs oracle {} bytes)",
            vm.output().len(),
            oracle.output().len()
        ));
    }
    if vm.memory().content_digest() != oracle.memory().content_digest() {
        diverged.push("memory contents diverged".to_string());
    }
    let stats = vm.stats();
    CellResult {
        diverged,
        violations,
        regions_formed: stats.regions_formed,
        region_entries: stats.engine.region_entries,
        seams_eliminated: stats.seam_pairs_eliminated,
        regions_verified: stats.regions_verified,
    }
}

fn print_cell(spec: &str, r: &CellResult) {
    println!(
        "{spec:<40} {:>3} regions {:>9} entries {:>4} seams erased  {:>3} diverged {:>3} violations",
        r.regions_formed,
        r.region_entries,
        r.seams_eliminated,
        r.diverged.len(),
        r.violations.len(),
    );
    for d in &r.diverged {
        println!("    diverged: {d}");
    }
    for v in &r.violations {
        println!("    {v}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = harness_scale();
    let mut report = LintReport::new("regionlint");

    if let Some(pos) = args.iter().position(|a| a == "--repro") {
        let Some(spec) = args.get(pos + 1) else {
            eprintln!("regionlint: --repro needs workload:form:chain");
            std::process::exit(2);
        };
        let (workload, form, chain) = match parse_cell_spec(spec, scale) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("regionlint: {e}");
                std::process::exit(2);
            }
        };
        println!("regionlint: re-running cell {spec}");
        let r = run_cell(&workload, form, chain);
        print_cell(spec, &r);
        if !r.diverged.is_empty() || !r.violations.is_empty() {
            let mut details = r.diverged;
            details.extend(r.violations);
            report.fail(spec.clone(), details);
        }
        report.finish_or_exit();
        return;
    }
    if !args.is_empty() {
        eprintln!("regionlint: unknown arguments {args:?}");
        eprintln!("usage: regionlint [--repro workload:form:chain]");
        std::process::exit(2);
    }

    // Phase 1: the differential matrix.
    let suite = suite(scale);
    let mut regions_formed = 0u64;
    let mut region_entries = 0u64;
    let mut seams_eliminated = 0u64;
    let mut regions_verified = 0u64;
    for w in &suite {
        for &form in &ALL_FORMS {
            for &chain in &ALL_CHAINS {
                let spec = cell_spec(w.name, form, chain);
                let r = run_cell(w, form, chain);
                print_cell(&spec, &r);
                regions_formed += r.regions_formed;
                region_entries += r.region_entries;
                seams_eliminated += r.seams_eliminated;
                regions_verified += r.regions_verified;
                if !r.diverged.is_empty() || !r.violations.is_empty() {
                    let mut details = r.diverged;
                    details.extend(r.violations);
                    report.fail(spec, details);
                }
            }
        }
    }
    if regions_formed == 0 {
        report.fail(
            "coverage",
            vec![format!(
                "no regions formed anywhere in the matrix at scale {scale} \
                 (trigger {LINT_TRIGGER}) — region re-formation was not exercised"
            )],
        );
    }

    // Phase 2: region-specific seeded-miscompile detection.
    let mut seeds = 0u64;
    let mut undetected = 0u64;
    for seed in region_seeds() {
        seeds += 1;
        let (sb, code, tr) = seed.build();
        let vs = verify_translation(&sb, &code, &tr);
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
                    "seeded region miscompile not detected; rules that fired: {:?}",
                    vs.iter().map(|v| v.rule).collect::<Vec<_>>()
                )],
            );
        }
    }

    println!(
        "\nregionlint: {regions_formed} regions formed, {region_entries} region entries, \
         {seams_eliminated} seam pairs eliminated, {regions_verified} regions verified; \
         {seeds} seeds, {undetected} undetected"
    );
    report
        .extra("regions_formed", regions_formed)
        .extra("region_entries", region_entries)
        .extra("seam_pairs_eliminated", seams_eliminated)
        .extra("regions_verified", regions_verified)
        .extra("seeds", seeds)
        .extra("undetected", undetected);
    report.finish_or_exit();
    println!("regionlint: clean");
}
