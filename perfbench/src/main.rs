//! `perfbench` — the repository's benchmark of the co-designed VM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady|footprint|warm|timed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One load thread runs ops back to back (a closed loop with one client):
//! each op runs one program of the workload to halt on a fresh `Vm` in
//! the default configuration, with every installed translation verified,
//! and checks the end state against a pure-interpreter reference. Ops go
//! in rounds: each round runs every program of the workload once, in an
//! order drawn from the seed. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it measures half the time
//! untraced and half traced, reports the per-layer metrics per round, and
//! writes the spans to `perfbench/out/`. The last line of standard output
//! is one JSON object; the exit code is non-zero if any op failed.

mod calib;
mod gen;
mod layers;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use spec_workloads::XorShift;

use layers::{now_ns, VERIFIER};
use workloads::{Case, Kind, Op, Setup};

/// Set-ups per run; `setup_s` is their median, each scaled to the
/// reference host speed.
const SETUP_REPS: usize = 3;
/// Ops a measurement runs at least, so the p90 has ten samples beyond it.
const MIN_OPS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Report {
    kind: Kind,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <steady|footprint|warm|timed|all> --seed <n> \
             --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let kinds = match args.workload.as_str() {
        "all" => Kind::ALL.to_vec(),
        name => match Kind::parse(name) {
            Some(k) => vec![k],
            None => {
                eprintln!("perfbench: unknown workload {name:?}");
                std::process::exit(2);
            }
        },
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    // A first VM starts the translation pool, whose threads are then
    // pinned away from the VM thread.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    workloads::start_pool();
    let pinning = format!("nproc {nproc}, {}", layers::pin_threads());
    let mut reports = Vec::new();
    for kind in kinds {
        match run_workload(kind, &args, &out_dir, &pinning) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", kind.name());
                std::process::exit(1);
            }
        }
    }
    let single = reports.len() == 1;
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    let mut json = String::new();
    for r in &reports {
        for m in &r.metrics {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", r.kind.name(), m.name)
            };
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if json.is_empty() { "" } else { ", " },
                json_num(m.value),
                m.unit
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Ops measured over one phase of a run.
#[derive(Default)]
struct Phase {
    ops: Vec<Op>,
    rounds: usize,
    cpu_s: f64,
    vm_thread_cpu_s: f64,
    verifier_calls: u64,
    verifier_src_insts: u64,
    verifier_violations: u64,
    verifier_ns: u64,
    stage_ns: [u64; 4],
}

impl Phase {
    fn insts(&self) -> u64 {
        self.sum(|o| o.stats.interpreted + o.stats.engine.v_insts)
    }

    fn op_ns(&self) -> u64 {
        self.sum(|o| o.wall_ns)
    }

    /// Op latencies in milliseconds, scaled to the reference host speed.
    /// Each op's calibration weighs the VM thread's CPU and the pool's
    /// CPUs by their shares of the phase's CPU time.
    fn adjusted_op_ms(&self) -> Vec<f64> {
        let pool_share = ratio(self.cpu_s - self.vm_thread_cpu_s, self.cpu_s).clamp(0.0, 1.0);
        let calib: Vec<u64> = self
            .ops
            .iter()
            .map(|o| {
                let (vm, pool) = (o.calib_ns as f64, o.pool_calib_ns as f64);
                (vm + (pool - vm) * pool_share) as u64
            })
            .collect();
        self.ops
            .iter()
            .zip(calib::factors(&calib))
            .map(|(o, f)| o.wall_ns as f64 * f / 1e6)
            .collect()
    }

    fn sum(&self, f: impl Fn(&Op) -> u64) -> u64 {
        self.ops.iter().map(f).sum()
    }

    /// A total over the phase, per round.
    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds as f64
    }
}

fn verifier_snapshot() -> [u64; 8] {
    let v = &VERIFIER;
    [
        v.calls.load(Relaxed),
        v.src_insts.load(Relaxed),
        v.violations.load(Relaxed),
        v.ns.load(Relaxed),
        v.stage_ns[0].load(Relaxed),
        v.stage_ns[1].load(Relaxed),
        v.stage_ns[2].load(Relaxed),
        v.stage_ns[3].load(Relaxed),
    ]
}

/// The op loop of one run.
struct Runner<'a> {
    setup: &'a Setup,
    kind: Kind,
    rng: XorShift,
    next_op: u64,
}

impl Runner<'_> {
    /// Runs one round (every program once, in a seeded order) and adds it
    /// to `phase`.
    fn round(&mut self, traced: bool, phase: &mut Phase) {
        layers::set_tracing(traced);
        let before = verifier_snapshot();
        let (cpu0, vm0) = (layers::process_cpu_s(), layers::thread_cpu_s());
        for i in round_order(self.setup.cases.len(), &mut self.rng) {
            self.next_op += 1;
            let (calib_ns, pool_calib_ns) = calib::kernel_pair_ns();
            let mut op = workloads::run_op(
                &self.setup.cases[i],
                self.kind,
                self.setup.store.as_ref(),
                self.next_op,
                traced,
            );
            if let Err(e) = &op.verdict {
                eprintln!("perfbench: op {} failed: {e}", self.next_op);
            }
            (op.calib_ns, op.pool_calib_ns) = (calib_ns, pool_calib_ns);
            phase.ops.push(op);
        }
        phase.cpu_s += layers::process_cpu_s() - cpu0;
        phase.vm_thread_cpu_s += layers::thread_cpu_s() - vm0;
        layers::set_tracing(false);
        let after = verifier_snapshot();
        let d = |k: usize| after[k] - before[k];
        phase.rounds += 1;
        phase.verifier_calls += d(0);
        phase.verifier_src_insts += d(1);
        phase.verifier_violations += d(2);
        phase.verifier_ns += d(3);
        for k in 0..4 {
            phase.stage_ns[k] += d(4 + k);
        }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn round_order(n: usize, rng: &mut XorShift) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run_workload(kind: Kind, args: &Args, out_dir: &Path, pinning: &str) -> Result<Report, String> {
    let store_path = out_dir.join(format!("store-{}-{}.bin", kind.name(), std::process::id()));
    let result = measure_workload(kind, args, out_dir, &store_path, pinning);
    let _ = std::fs::remove_file(&store_path);
    result
}

fn measure_workload(
    kind: Kind,
    args: &Args,
    out_dir: &Path,
    store_path: &Path,
    pinning: &str,
) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut pretranslate_s = Vec::new();
    let mut save_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let mut calib_ns: Vec<u64> = (0..3).map(|_| calib::kernel_ns()).collect();
        let t0 = Instant::now();
        let s = workloads::setup(kind, args.seed, store_path)?;
        let elapsed = t0.elapsed().as_secs_f64();
        calib_ns.extend((0..3).map(|_| calib::kernel_ns()));
        setup_s.push(elapsed * calib::factor(&calib_ns));
        if let Some(store) = &s.store {
            pretranslate_s.push(store.pretranslate_s);
            save_s.push(store.save_s);
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let mut runner = Runner {
        setup: &setup,
        kind,
        rng: XorShift::new(args.seed ^ 0x5eed_0000 ^ kind as u64),
        next_op: 0,
    };

    // One untimed round starts the translation pool and faults memory in.
    let mut warmup = Phase::default();
    runner.round(false, &mut warmup);
    let pool_threads = layers::other_threads();
    println!(
        "perfbench {} seed {} | host: {pinning}, cpu {:?}, {}, pool threads {}",
        kind.name(),
        args.seed,
        layers::cpu_model(),
        env!("PERFBENCH_RUSTC"),
        pool_threads,
    );
    println!(
        "  {} programs per round: {}",
        setup.cases.len(),
        setup
            .cases
            .iter()
            .map(|c| format!("{} ({} insts)", c.label, c.reference.insts))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Whole rounds until the time is up and the p90 has its samples. A
    // traced run alternates untraced and traced rounds, so both see the
    // same host conditions.
    let start = Instant::now();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    while start.elapsed().as_secs_f64() < args.seconds
        || untraced.ops.len() < MIN_OPS
        || (args.trace && traced.ops.len() < MIN_OPS)
    {
        runner.round(false, &mut untraced);
        if args.trace {
            runner.round(true, &mut traced);
        }
    }
    let metrics = if args.trace {
        let metrics = layer_metrics(kind, &setup, &untraced, &traced, &pretranslate_s, &save_s);
        write_spans(out_dir, kind, args, pinning, pool_threads)?;
        metrics
    } else {
        end_to_end(&untraced, median(&setup_s))
    };
    let phases = [warmup, untraced, traced];
    let attempted = phases.iter().map(|p| p.ops.len()).sum();
    let failed = phases
        .iter()
        .map(|p| p.ops.iter().filter(|o| o.verdict.is_err()).count())
        .sum();
    println!(
        "  ops: {attempted} attempted, {failed} failed (fail_ratio {})",
        ratio(failed as f64, attempted as f64)
    );
    for m in &metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        kind,
        attempted,
        failed,
        metrics,
    })
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics. Times are scaled to the reference host speed
/// (see `calib`); the unscaled figures are printed alongside.
fn end_to_end(p: &Phase, setup_s: f64) -> Vec<Metric> {
    let insts = p.insts() as f64;
    let raw_ms: Vec<f64> = p.ops.iter().map(|o| o.wall_ns as f64 / 1e6).collect();
    let adj_ms = p.adjusted_op_ms();
    let scale = ratio(adj_ms.iter().sum(), raw_ms.iter().sum());
    let executed = p.sum(|o| o.stats.engine.executed) as f64;
    let v_insts = p.sum(|o| o.stats.engine.v_insts) as f64;
    let code_bytes = p.sum(|o| o.stats.translated_code_bytes) as f64;
    let src_insts = p.sum(|o| o.stats.translated_src_insts) as f64;
    let mips = |ms: &[f64]| ratio(insts / 1e3, ms.iter().sum());
    println!(
        "  end-to-end over {} ops in {} rounds (p90 has {} samples beyond it)",
        p.ops.len(),
        p.rounds,
        p.ops.len() - (0.9 * p.ops.len() as f64).ceil() as usize
    );
    println!(
        "  unscaled: guest_mips {:.3} M/s, cpu_ns_per_inst {:.3} ns, op_ms_p50 {:.3} ms, \
         op_ms_p90 {:.3} ms; host speed scale {scale:.3}",
        mips(&raw_ms),
        ratio(p.cpu_s * 1e9, insts),
        quantile(&raw_ms, 0.5),
        quantile(&raw_ms, 0.9),
    );
    vec![
        metric("guest_mips", mips(&adj_ms), "M/s"),
        metric("cpu_ns_per_inst", ratio(p.cpu_s * scale * 1e9, insts), "ns"),
        metric("op_ms_p50", quantile(&adj_ms, 0.5), "ms"),
        metric("op_ms_p90", quantile(&adj_ms, 0.9), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", layers::peak_rss_mb(), "MiB"),
        metric("dyn_expansion", ratio(executed, v_insts), "ratio"),
        metric(
            "code_bytes_ratio",
            ratio(code_bytes, 4.0 * src_insts),
            "ratio",
        ),
    ]
}

/// Per-layer metrics. Counts and `_s` times are per round (one op per
/// program of the workload); other times are per op or per unit.
fn layer_metrics(
    kind: Kind,
    setup: &Setup,
    untraced: &Phase,
    t: &Phase,
    pretranslate_s: &[f64],
    save_s: &[f64],
) -> Vec<Metric> {
    let cases: &[Case] = &setup.cases;
    let ref_insts: u64 = cases.iter().map(|c| c.reference.insts).sum();
    let interp_only_ns: u64 = cases.iter().map(workloads::interpret_only_ns).sum();
    let run_to_halt_ns: u64 = cases.iter().map(workloads::run_to_halt_ns).sum();
    let functional_round_ns: u64 = match kind {
        Kind::Timed => cases.iter().map(workloads::functional_run_ns).sum(),
        _ => 0,
    };
    let per_round = |total: u64| t.per_round(total as f64);
    let secs = |ns: u64| t.per_round(ns as f64 / 1e9);
    let s = |f: fn(&Op) -> u64| t.sum(f);

    let tier_ns = ratio(interp_only_ns as f64, ref_insts as f64);
    let ref_ns = ratio(run_to_halt_ns as f64, ref_insts as f64);
    let interp = s(|o| o.stats.interpreted);
    let v_insts = s(|o| o.stats.engine.v_insts);
    let interp_s = per_round(interp) * tier_ns / 1e9;
    let run_s = secs(s(|o| o.run_ns));
    let stall_s = secs(s(|o| o.stats.translate_stall_nanos));
    let model_s = secs(s(|o| o.model_ns));
    let record_s = match kind {
        Kind::Timed => (run_s - model_s - functional_round_ns as f64 / 1e9).max(0.0),
        _ => 0.0,
    };
    let warm_hits = s(|o| o.stats.warm_hits);
    let store = setup.store.as_ref();
    let lookup_s = store.map_or(0.0, |st| {
        per_round(warm_hits) * workloads::store_lookup_ns(st) / 1e9
    });
    let engine_s = (run_s - interp_s - stall_s - lookup_s - model_s - record_s).max(0.0);
    let executed = s(|o| o.stats.engine.executed);
    let entries = s(|o| o.stats.engine.fragment_entries);
    let ras = s(|o| o.stats.engine.ras_hits);
    let ras_all = ras + s(|o| o.stats.engine.ras_misses);
    let lookups = warm_hits + s(|o| o.stats.warm_misses);
    let engine_rate = ratio(per_round(v_insts), engine_s);
    let records = s(|o| o.records);
    let timing = |f: fn(&ildp_uarch::TimingStats) -> u64| -> u64 {
        t.ops.iter().filter_map(|o| o.timing.as_ref()).map(f).sum()
    };
    let open_s = secs(s(|o| o.open_ns));
    let op_s = secs(t.op_ns());
    let adjusted_s = |p: &Phase| p.per_round(p.adjusted_op_ms().iter().sum::<f64>() / 1e3);

    let m = vec![
        metric(
            "vm.new_ms",
            ratio(s(|o| o.new_ns) as f64 / 1e6, t.ops.len() as f64),
            "ms",
        ),
        metric("vm.run_s", run_s, "s"),
        metric("alpha.interp_insts", per_round(interp), "count"),
        metric(
            "alpha.interp_share",
            ratio(interp as f64, (interp + v_insts) as f64),
            "ratio",
        ),
        metric("alpha.tier_ns_per_inst", tier_ns, "ns"),
        metric("alpha.ref_ns_per_inst", ref_ns, "ns"),
        metric("alpha.interp_s", interp_s, "s"),
        metric(
            "translate.fragments",
            per_round(s(|o| o.stats.fragments - o.stats.warm_hits)),
            "count",
        ),
        metric(
            "translate.src_insts",
            per_round(s(|o| o.stats.translated_src_insts)),
            "count",
        ),
        metric(
            "translate.emitted_insts",
            per_round(s(|o| o.stats.emitted_insts)),
            "count",
        ),
        metric(
            "translate.s",
            secs(s(|o| {
                o.stats
                    .translate_wall_nanos
                    .saturating_sub(o.stats.verify_nanos)
            })),
            "s",
        ),
        metric("translate.stall_s", stall_s, "s"),
        metric("translate.decompose_s", secs(t.stage_ns[0]), "s"),
        metric("translate.analyze_s", secs(t.stage_ns[1]), "s"),
        metric("translate.plan_s", secs(t.stage_ns[2]), "s"),
        metric(
            "translate.emit_s",
            secs(t.stage_ns[3].saturating_sub(t.stage_ns[0] + t.stage_ns[1] + t.stage_ns[2])),
            "s",
        ),
        metric("verifier.calls", per_round(t.verifier_calls), "count"),
        metric("verifier.s", secs(t.verifier_ns), "s"),
        metric(
            "verifier.us_per_src_inst",
            ratio(t.verifier_ns as f64 / 1e3, t.verifier_src_insts as f64),
            "us",
        ),
        metric(
            "verifier.violations",
            per_round(t.verifier_violations),
            "count",
        ),
        metric("engine.executed", per_round(executed), "count"),
        metric("engine.v_insts", per_round(v_insts), "count"),
        metric("engine.fragment_entries", per_round(entries), "count"),
        metric(
            "engine.v_insts_per_entry",
            ratio(v_insts as f64, entries as f64),
            "ratio",
        ),
        metric(
            "engine.dispatches",
            per_round(s(|o| o.stats.engine.dispatches)),
            "count",
        ),
        metric(
            "engine.ras_hit_ratio",
            ratio(ras as f64, ras_all as f64),
            "ratio",
        ),
        metric(
            "engine.chain_share",
            ratio(s(|o| o.stats.engine.chain_executed) as f64, executed as f64),
            "ratio",
        ),
        metric(
            "engine.copy_share",
            ratio(
                s(|o| o.stats.engine.copies_executed) as f64,
                executed as f64,
            ),
            "ratio",
        ),
        metric("engine.s", engine_s, "s"),
        metric(
            "engine.ns_per_executed",
            ratio(engine_s * 1e9, per_round(executed)),
            "ns",
        ),
        metric("engine.vs_ref_interp", engine_rate * ref_ns / 1e9, "ratio"),
        metric(
            "region.formed",
            per_round(s(|o| o.stats.regions_formed)),
            "count",
        ),
        metric(
            "region.entry_share",
            ratio(s(|o| o.stats.engine.region_entries) as f64, entries as f64),
            "ratio",
        ),
        metric(
            "region.verified",
            per_round(s(|o| o.stats.regions_verified)),
            "count",
        ),
        metric(
            "region.seams_eliminated",
            per_round(s(|o| o.stats.seam_pairs_eliminated)),
            "count",
        ),
        metric("store.open_s", open_s, "s"),
        metric("store.lookup_s", lookup_s, "s"),
        metric("store.bytes", store.map_or(0.0, |s| s.bytes as f64), "B"),
        metric(
            "store.entries",
            store.map_or(0.0, |s| s.entries as f64),
            "count",
        ),
        metric(
            "store.hit_ratio",
            ratio(warm_hits as f64, lookups as f64),
            "ratio",
        ),
        metric(
            "store.quarantined",
            per_round(s(|o| o.stats.store_quarantined)),
            "count",
        ),
        metric("store.pretranslate_s", median(pretranslate_s), "s"),
        metric("store.save_s", median(save_s), "s"),
        metric(
            "pool.offthread_cpu_s",
            t.per_round((t.cpu_s - t.vm_thread_cpu_s).max(0.0)),
            "s",
        ),
        metric("uarch.model_s", model_s, "s"),
        metric("uarch.record_s", record_s, "s"),
        metric("uarch.records", per_round(records), "count"),
        metric(
            "uarch.ns_per_record",
            ratio(model_s * 1e9, per_round(records)),
            "ns",
        ),
        metric("uarch.cycles", per_round(timing(|x| x.cycles)), "count"),
        metric(
            "uarch.v_ipc",
            ratio(
                timing(|x| x.v_instructions) as f64,
                timing(|x| x.cycles) as f64,
            ),
            "ratio",
        ),
        metric(
            "uarch.cond_mispredict_ratio",
            ratio(
                timing(|x| x.cond_mispredicts) as f64,
                timing(|x| x.cond_branches) as f64,
            ),
            "ratio",
        ),
        metric(
            "uarch.dcache_miss_ratio",
            ratio(
                timing(|x| x.dcache_misses) as f64,
                s(|o| o.mem_records) as f64,
            ),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(adjusted_s(t), adjusted_s(untraced)),
            "ratio",
        ),
    ];

    // Where the traced op time went, by layer group, against the
    // workload's predicted dominant layer.
    let new_s = secs(s(|o| o.new_ns));
    let split = [
        ("store", open_s + lookup_s),
        ("vm.new", new_s),
        ("alpha", interp_s),
        ("translate+verifier", stall_s),
        ("engine", engine_s),
        ("uarch", model_s + record_s),
    ];
    let line: Vec<String> = split
        .iter()
        .map(|(n, v)| format!("{n} {:.1}%", 100.0 * ratio(*v, op_s)))
        .collect();
    println!(
        "  split of traced op time (engine is the residual of vm.run): {}",
        line.join(", ")
    );
    println!(
        "  off the VM thread, per round: verifier {:.4} s, translation {:.4} s",
        secs(t.verifier_ns),
        secs(s(|o| o.stats.translate_wall_nanos)) - secs(t.verifier_ns)
    );
    let predicted: &[&str] = match kind {
        Kind::Steady => &["engine"],
        Kind::Footprint => &["alpha", "translate+verifier"],
        Kind::Warm => &["store"],
        Kind::Timed => &["uarch"],
    };
    let group: f64 = split
        .iter()
        .filter(|(n, _)| predicted.contains(n))
        .map(|(_, v)| v)
        .sum();
    let confirmed = split
        .iter()
        .all(|(n, v)| predicted.contains(n) || *v <= group);
    println!(
        "  predicted dominant layer {} ({:.1}%): {}",
        predicted.join("+"),
        100.0 * ratio(group, op_s),
        if confirmed { "confirmed" } else { "refuted" }
    );
    if kind != Kind::Warm {
        println!("  store.*: not exercised (only warm opens a store)");
    }
    if kind != Kind::Timed {
        println!("  uarch.*: not exercised (only timed runs the timing model)");
    }
    m
}

fn write_spans(
    out_dir: &Path,
    kind: Kind,
    args: &Args,
    pinning: &str,
    pool_threads: usize,
) -> Result<(), String> {
    let spans = layers::take_spans();
    let path: PathBuf = out_dir.join(format!("spans-{}-seed{}.json", kind.name(), args.seed));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {{\"threads\": \"{pinning}\", \
         \"cpu\": \"{}\", \"rustc\": \"{}\", \"pool_threads\": {pool_threads}}}, \
         \"clock_ns\": {}, \"spans\": [",
        kind.name(),
        args.seed,
        layers::cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        now_ns(),
    );
    for (i, sp) in spans.iter().enumerate() {
        let _ = writeln!(
            s,
            "{}{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
            if i == 0 { "" } else { "," },
            sp.id,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.parent,
            sp.op
        );
    }
    s.push_str("]}\n");
    std::fs::write(&path, s).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  {} spans written to {}", spans.len(), path.display());
    Ok(())
}
