//! Instrumentation at the benchmark's calls into the VM's layers: the
//! install validator wrapper, the span recorder, the buffering timing
//! sink, and the `/proc` readers.
//!
//! The validator is a plain function pointer and may run on a pool worker
//! thread, so its counters and the span list are process-wide.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ildp_core::{analyze, decompose_with, plan, InstallReview, TraceSink};
use ildp_isa::IsaForm;
use ildp_uarch::{DynInst, IldpModel, TimingModel};

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One traced interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The op the span belongs to, 0 outside ops.
    pub op: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// The op being run and its `vm.run` span: the parent of spans recorded
/// from inside the VM (validator calls, timing-model flushes).
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static CURRENT_RUN: AtomicU64 = AtomicU64::new(0);

/// Turns span recording and the stage re-timing on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Relaxed)
}

/// Reserves a span id, so children can name their parent before the
/// parent span is closed.
pub fn span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Relaxed)
}

/// Records a finished span.
pub fn record(span: Span) {
    SPANS.lock().expect("span list poisoned").push(span);
}

/// Records a span under the current `vm.run` span.
fn record_in_run(name: &'static str, start_ns: u64, end_ns: u64) {
    record(Span {
        id: span_id(),
        name,
        start_ns,
        end_ns,
        parent: CURRENT_RUN.load(Relaxed),
        op: CURRENT_OP.load(Relaxed),
    });
}

pub fn set_current(op: u64, run_span: u64) {
    CURRENT_OP.store(op, Relaxed);
    CURRENT_RUN.store(run_span, Relaxed);
}

pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}

/// Counters kept by [`validator`]. All counts are process-wide totals.
pub struct VerifierCounters {
    pub calls: AtomicU64,
    pub src_insts: AtomicU64,
    pub violations: AtomicU64,
    /// Wall time inside the inner validator (traced runs only).
    pub ns: AtomicU64,
    /// Re-timed translation stages (traced runs only): decompose,
    /// analyze, plan, and the whole `Translator::translate`.
    pub stage_ns: [AtomicU64; 4],
}

pub static VERIFIER: VerifierCounters = VerifierCounters {
    calls: AtomicU64::new(0),
    src_insts: AtomicU64::new(0),
    violations: AtomicU64::new(0),
    ns: AtomicU64::new(0),
    stage_ns: [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ],
};

/// The install validator every measured VM uses: runs
/// `ildp_verifier::collecting_validator` and drains the violations it
/// files. `collecting_validator` files them per thread, and this runs on
/// whichever thread translated, so draining here is what makes every
/// violation visible process-wide.
pub fn validator(review: &InstallReview<'_>) -> Result<(), String> {
    let traced = tracing();
    let t0 = now_ns();
    let verdict = ildp_verifier::collecting_validator(review);
    let t1 = now_ns();
    let violations = ildp_verifier::take_report();
    VERIFIER.calls.fetch_add(1, Relaxed);
    VERIFIER
        .src_insts
        .fetch_add(review.sb.len() as u64, Relaxed);
    VERIFIER
        .violations
        .fetch_add(violations.len() as u64, Relaxed);
    if let Some(v) = violations.first() {
        eprintln!("perfbench: verifier violation: {v}");
    }
    if traced {
        VERIFIER.ns.fetch_add(t1 - t0, Relaxed);
        record_in_run("verifier", t0, t1);
        retime_stages(review);
    }
    verdict
}

/// Translates the reviewed superblock again, timing each stage.
fn retime_stages(review: &InstallReview<'_>) {
    let tr = review.translator;
    let t0 = now_ns();
    let nodes = std::hint::black_box(decompose_with(review.sb, tr.fuse_memory));
    let t1 = now_ns();
    let df = std::hint::black_box(analyze(&nodes));
    let t2 = now_ns();
    std::hint::black_box(plan(&nodes, &df, tr.acc_count, tr.form == IsaForm::Basic));
    let t3 = now_ns();
    std::hint::black_box(tr.translate(review.sb));
    let t4 = now_ns();
    let names = [
        "translate.decompose",
        "translate.analyze",
        "translate.plan",
        "translate.translate",
    ];
    let bounds = [(t0, t1), (t1, t2), (t2, t3), (t3, t4)];
    for (k, (name, (a, b))) in names.iter().zip(bounds).enumerate() {
        VERIFIER.stage_ns[k].fetch_add(b - a, Relaxed);
        record_in_run(name, a, b);
    }
}

/// Records handed to the timing model per flush.
const BATCH: usize = 8192;

/// A trace sink that buffers retired records and feeds them to the ILDP
/// model in batches, timing each batch: the model's share of a timed run
/// without a clock read per record.
pub struct BufferedModel<'m> {
    model: &'m mut IldpModel,
    buf: Vec<DynInst>,
    pub model_ns: u64,
    pub records: u64,
    pub mem_records: u64,
}

impl<'m> BufferedModel<'m> {
    pub fn new(model: &'m mut IldpModel) -> BufferedModel<'m> {
        BufferedModel {
            model,
            buf: Vec::with_capacity(BATCH),
            model_ns: 0,
            records: 0,
            mem_records: 0,
        }
    }

    /// Feeds the buffered records to the model.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let t0 = now_ns();
        for d in &self.buf {
            TimingModel::retire(self.model, d);
        }
        let t1 = now_ns();
        self.model_ns += t1 - t0;
        record_in_run("uarch.flush", t0, t1);
        self.buf.clear();
    }
}

impl TraceSink for BufferedModel<'_> {
    fn retire(&mut self, inst: &DynInst) {
        self.records += 1;
        self.mem_records += inst.mem_addr.is_some() as u64;
        self.buf.push(*inst);
        if self.buf.len() == BATCH {
            self.flush();
        }
    }
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from a `/proc/.../stat` file. Tick
/// resolution (10 ms): read only around whole runs.
fn stat_cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // The command name may hold spaces; the fields after it are fixed.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the file: 11 and 12 after
    // the command name.
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU seconds of the whole process, every thread included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads in this process besides the calling one.
pub fn other_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count().saturating_sub(1))
}

pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `pid` 0 is the caller.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend((lo..=hi).filter(|&c| c < 1024));
        }
    }
    cpus
}

/// The CPUs [`pin_threads`] gave the translation pool.
static POOL_CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// Moves the calling thread onto the pool's CPUs; false if there are none.
pub fn pin_to_pool_cpus() -> bool {
    POOL_CPUS.get().is_some_and(|cpus| pin(0, cpus))
}

/// Restricts thread `tid` (0: the caller) to `cpus`.
fn pin(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is an initialised buffer of exactly the size passed,
    // which the call only reads, and every CPU index set in it is below
    // 1024 (`allowed_cpus` filters the rest out).
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread (the VM thread) to one allowed CPU and every
/// other thread of the process (the translation pool) to the rest.
///
/// Left to the scheduler, a pool worker woken by the VM thread is often
/// placed on the VM thread's own CPU and stays there, time-sharing one
/// CPU while the other idles; whether that happens changes from run to
/// run and moved op latency by up to half. Returns what was done.
pub fn pin_threads() -> String {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return "threads not pinned (one CPU)".to_string();
    }
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let me = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse::<i32>().ok());
    let others: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<i32>().ok())
                .filter(|&tid| Some(tid) != me)
                .collect()
        })
        .unwrap_or_default();
    // The VM thread takes the CPU that runs the calibration kernel
    // fastest right now.
    let speed = |cpu: usize| {
        pin(0, &[cpu]);
        (0..5).map(|_| crate::calib::kernel_ns()).min()
    };
    let vm_cpu = cpus
        .iter()
        .copied()
        .min_by_key(|&c| speed(c))
        .unwrap_or(cpus[0]);
    let rest: Vec<usize> = cpus.iter().copied().filter(|&c| c != vm_cpu).collect();
    let _ = POOL_CPUS.set(rest.clone());
    let vm = pin(0, &[vm_cpu]);
    let pinned = others.iter().filter(|&&tid| pin(tid, &rest)).count();
    format!(
        "VM thread on cpu {vm_cpu}{}, {pinned} of {} other threads on cpus {rest:?}",
        if vm { "" } else { " (pinning failed)" },
        others.len(),
    )
}
