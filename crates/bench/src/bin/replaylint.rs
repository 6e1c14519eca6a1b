//! `replaylint` — snapshot/restore and record/replay conformance lint.
//!
//! Four gates, over the full workload suite:
//!
//! 1. **snapshot roundtrip** — every workload × both ISA forms runs to a
//!    mid-run fragment boundary, snapshots (through the wire format), and
//!    restores onto a fresh VM; the resumed run must reach the exact
//!    final architected state (registers, memory digest, console output,
//!    retired count) of an uninterrupted run, with statistics continuing
//!    cumulatively across the seam.
//! 2. **record→replay equality** — one recorded chaos cell per workload
//!    must replay from its envelope to the identical tally.
//! 3. **region re-run** — every workload × both ISA forms runs with
//!    region re-formation forced hot (a low promotion trigger); a fresh
//!    VM re-running the program must reproduce the identical architected
//!    state (registers, memory digest, console output, retired count)
//!    *and* the identical sequence of region decisions
//!    ([`Vm::region_events`]). The matrix as a whole must make at least
//!    one region decision (a run where no promotion fires gates nothing
//!    and fails loudly).
//! 4. **triage bundle roundtrip** — a seeded miscompile must triage to a
//!    `.repro` bundle that survives its wire format and replays to the
//!    identical divergence.
//!
//! Exits non-zero with a structured JSON failure report on any violation.
//!
//! Usage: `cargo run --release -p ildp-bench --bin replaylint`
//! (`ILDP_SCALE` scales the workloads, default 10.)

use ildp_bench::chaos::{cell_config, chaos_cell_recorded, chaos_replay, interp_reference};
use ildp_bench::harness_scale;
use ildp_bench::lint::{form_name, LintReport};
use ildp_bench::triage::{paced_run_events, triage_run, ReproBundle};
use ildp_core::{ChainPolicy, NullSink, ReplayLog, Sabotage, Snapshot, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use spec_workloads::{suite, Workload};

/// Runs `w` to a mid-run boundary, snapshots through the wire format,
/// restores, and requires the resumed run to finish exactly like an
/// uninterrupted one.
fn snapshot_roundtrip(w: &Workload, form: IsaForm) -> Result<(), String> {
    let cell = format!("{}:{}", w.name, form_name(form));
    let config = VmConfig {
        translator: ildp_core::Translator {
            form,
            ..ildp_core::Translator::default()
        },
        ..VmConfig::default()
    };
    let budget = w.budget * 2;
    let reference = interp_reference(&w.program, budget).map_err(|e| format!("{cell}: {e}"))?;

    // The uninterrupted baseline.
    let mut whole = Vm::new(config, &w.program);
    let whole_exit = whole.run(budget, &mut NullSink);
    if whole_exit != VmExit::Halted {
        return Err(format!("{cell}: baseline run exited {whole_exit:?}"));
    }

    // Pause at (roughly) the midpoint, snapshot, wire-roundtrip, restore.
    let mut vm = Vm::new(config, &w.program);
    let exit = vm.run((reference.insts / 2).max(1), &mut NullSink);
    if exit != VmExit::Budget {
        return Err(format!("{cell}: reached {exit:?} before the midpoint"));
    }
    let snap = vm.snapshot();
    let snap = Snapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("{cell}: snapshot wire roundtrip: {e}"))?;
    let mut resumed =
        Vm::restore(config, &w.program, &snap).map_err(|e| format!("{cell}: restore: {e}"))?;
    let exit = resumed.run(budget, &mut NullSink);
    if exit != VmExit::Halted {
        return Err(format!("{cell}: resumed run exited {exit:?}"));
    }

    if resumed.cpu().registers() != whole.cpu().registers() {
        return Err(format!("{cell}: resumed GPR file diverged"));
    }
    if resumed.memory().content_digest() != whole.memory().content_digest() {
        return Err(format!("{cell}: resumed memory diverged"));
    }
    if resumed.output() != whole.output() {
        return Err(format!("{cell}: resumed console output diverged"));
    }
    if resumed.v_instructions() != whole.v_instructions() {
        return Err(format!(
            "{cell}: resumed retired {} instructions, uninterrupted {}",
            resumed.v_instructions(),
            whole.v_instructions()
        ));
    }
    // Statistics must continue cumulatively across the seam: the resumed
    // run's interpret/execute split covers the whole timeline, so the
    // fallback ratio stays meaningful after restore.
    let s = resumed.stats();
    let total = s.interpreted + s.engine.executed;
    if total < resumed.v_instructions() {
        return Err(format!(
            "{cell}: stats lost continuity across restore \
             (interpreted {} + executed {} < {} retired)",
            s.interpreted,
            s.engine.executed,
            resumed.v_instructions()
        ));
    }
    let ratio = s.interp_fallback_ratio();
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("{cell}: fallback ratio {ratio} out of range"));
    }
    Ok(())
}

/// One recorded chaos cell must replay to the identical tally.
fn record_replay(w: &Workload, seed: u64) -> Result<(), String> {
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let cell = format!("{}:{}:{}:{}", w.name, form_name(form), chain.label(), seed);
    let (res, log) = chaos_cell_recorded(w, form, chain, seed);
    let report = res.map_err(|e| format!("{cell}: recorded run failed: {e}"))?;
    let replayed = chaos_replay(w, form, chain, &log)
        .map_err(|e| format!("{cell}: replay failed where recording passed: {e}"))?;
    if replayed != report {
        return Err(format!("{cell}: replayed tally differs from recorded run"));
    }
    Ok(())
}

/// A fresh VM re-running a program with region re-formation forced hot
/// must reach the bit-identical architected state and make the same
/// region decisions at the same counts. Returns the number of decisions
/// so the caller can gate matrix-wide coverage.
fn region_replay(w: &Workload, form: IsaForm) -> Result<u64, String> {
    let cell = format!("{}:{}:region", w.name, form_name(form));
    let mut config = VmConfig {
        translator: ildp_core::Translator {
            form,
            ..ildp_core::Translator::default()
        },
        ..VmConfig::default()
    };
    // Low promotion trigger so region re-formation actually fires at
    // lint scale (the production default waits for thousands of entries).
    config.engine.region_trigger = Some(64);
    let budget = w.budget * 2;
    let mut recorded = Vm::new(config, &w.program);
    let exit = recorded.run(budget, &mut NullSink);
    if exit != VmExit::Halted {
        return Err(format!("{cell}: recorded run exited {exit:?}"));
    }
    // Region promotion re-fires from the same deterministic entry counts
    // and must make the identical decisions.
    let mut replayed = Vm::new(config, &w.program);
    let exit = replayed.run(budget, &mut NullSink);
    if exit != VmExit::Halted {
        return Err(format!("{cell}: replay exited {exit:?}"));
    }
    if replayed.cpu().registers() != recorded.cpu().registers() {
        return Err(format!("{cell}: replayed GPR file diverged"));
    }
    if replayed.memory().content_digest() != recorded.memory().content_digest() {
        return Err(format!("{cell}: replayed memory diverged"));
    }
    if replayed.output() != recorded.output() {
        return Err(format!("{cell}: replayed console output diverged"));
    }
    if replayed.v_instructions() != recorded.v_instructions() {
        return Err(format!(
            "{cell}: replayed retired {} instructions, recorded {}",
            replayed.v_instructions(),
            recorded.v_instructions()
        ));
    }
    if replayed.region_events() != recorded.region_events() {
        return Err(format!(
            "{cell}: replayed region decisions differ from the recording"
        ));
    }
    Ok(recorded.region_events().len() as u64)
}

/// A seeded miscompile must produce a bundle that replays to the exact
/// bundled divergence.
fn triage_bundle_roundtrip(w: &Workload) -> Result<(), String> {
    let (form, chain) = (IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let budget = w.budget * 2;
    let mut vm = Vm::new(cell_config(form, chain), &w.program);
    vm.run(budget, &mut NullSink);
    let mut vstarts: Vec<u64> = vm.cache().fragments().map(|f| f.vstart).collect();
    vstarts.sort_unstable();
    let interval = (w.budget / 128).max(100);
    for vs in vstarts {
        let log = ReplayLog {
            seed: 0,
            sabotage: vec![Sabotage {
                vstart: vs,
                slot: 0,
                imm_xor: 1,
            }],
            events: paced_run_events(budget, 500),
        };
        let Some(result) = triage_run(&w.program, form, chain, &log, interval, w.name)
            .map_err(|e| format!("{}: triage: {e}", w.name))?
        else {
            continue; // dead immediate; try the next fragment
        };
        let bundle = ReproBundle::from_bytes(&result.bundle.to_bytes())
            .map_err(|e| format!("{}: bundle wire roundtrip: {e}", w.name))?;
        if bundle != result.bundle {
            return Err(format!("{}: bundle changed across wire roundtrip", w.name));
        }
        let replayed = bundle
            .replay()
            .map_err(|e| format!("{}: bundle replay: {e}", w.name))?
            .ok_or_else(|| format!("{}: bundle replay found no divergence", w.name))?;
        if replayed != bundle.expected {
            return Err(format!(
                "{}: bundle replay diverged from the bundled expectation",
                w.name
            ));
        }
        return Ok(());
    }
    Err(format!(
        "{}: no sabotage candidate produced a divergence",
        w.name
    ))
}

fn main() {
    let scale = harness_scale();
    let suite = suite(scale);
    let mut report = LintReport::new("replaylint");
    let mut checks = 0u64;

    for w in &suite {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            checks += 1;
            match snapshot_roundtrip(w, form) {
                Ok(()) => println!(
                    "{:<10} {:>8} snapshot roundtrip ok",
                    w.name,
                    form_name(form)
                ),
                Err(e) => {
                    println!("FAIL {e}");
                    report.fail(format!("{}:{}:snapshot", w.name, form_name(form)), vec![e]);
                }
            }
        }
        checks += 1;
        match record_replay(w, 4242) {
            Ok(()) => println!("{:<10} record/replay ok", w.name),
            Err(e) => {
                println!("FAIL {e}");
                report.fail(format!("{}:record_replay", w.name), vec![e]);
            }
        }
    }
    // Region re-run: every workload × both forms, with matrix-wide
    // coverage (at least one region decision somewhere).
    let mut region_events = 0u64;
    for w in &suite {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            checks += 1;
            match region_replay(w, form) {
                Ok(n) => {
                    region_events += n;
                    println!(
                        "{:<10} {:>8} region re-run ok ({n} region events)",
                        w.name,
                        form_name(form)
                    );
                }
                Err(e) => {
                    println!("FAIL {e}");
                    report.fail(format!("{}:{}:region", w.name, form_name(form)), vec![e]);
                }
            }
        }
    }
    checks += 1;
    if region_events == 0 {
        let e = "no region decision made anywhere in the matrix \
                 — the region-event gate exercised nothing"
            .to_string();
        println!("FAIL {e}");
        report.fail("region:coverage", vec![e]);
    } else {
        println!("region event coverage ok ({region_events} events)");
    }
    // One triage bundle roundtrip (gzip): the full failing-run → bisect →
    // localize → bundle → replay pipeline.
    checks += 1;
    match triage_bundle_roundtrip(&suite[0]) {
        Ok(()) => println!("{:<10} triage bundle roundtrip ok", suite[0].name),
        Err(e) => {
            println!("FAIL {e}");
            report.fail(format!("{}:triage_bundle", suite[0].name), vec![e]);
        }
    }

    println!(
        "\nreplaylint: {checks} checks, {} failures",
        report.failures.len()
    );
    report.extra("checks", checks);
    report.extra("region_events", region_events);
    report.finish_or_exit();
}
