//! Host-speed calibration.
//!
//! On a shared host the speed of each CPU changes for seconds at a time
//! (other tenants contend for the core), by up to 1.6x for
//! interpreter-like code. The benchmark runs a fixed kernel of its own
//! right before every op and around every set-up, and scales each
//! measured time by `REF_NS / kernel time`: the time the work would take
//! on a host where the kernel takes `REF_NS`. Ops are calibrated on both
//! the VM thread's CPU and the pool's, weighted by where the run's CPU
//! time went. The kernel is a small bytecode interpreter, so it slows
//! down with the host the way the VM's interpreter and engine do, and it
//! shares no code with the system under test, so no change to the system
//! moves it.

use std::sync::OnceLock;

use crate::layers::now_ns;

/// Kernel time, in nanoseconds, the adjusted times are scaled to (the
/// kernel's time on an uncontended core of the reference host: a 2-vCPU
/// Intel Xeon VM).
pub const REF_NS: f64 = 300_000.0;
/// Interpreted kernel instructions per calibration.
const STEPS: usize = 100_000;
/// Calibrations on each side of a sample that its scale factor takes the
/// median of: host-speed phases last seconds, ops tens of milliseconds.
const WINDOW: usize = 4;

/// A fixed random program of `[opcode, a, b, literal]` instructions.
fn program() -> &'static [[u8; 4]] {
    static PROGRAM: OnceLock<Vec<[u8; 4]>> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let b = x.to_le_bytes();
                [b[0] % 10, b[1] % 8, b[2] % 8, b[3]]
            })
            .collect()
    })
}

fn interpret(steps: usize) -> u64 {
    let prog = program();
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut m = [0u64; 256];
    let mut pc = 0;
    for _ in 0..steps {
        let [op, a, b, c] = prog[pc];
        let (a, b) = (a as usize, b as usize);
        pc += 1;
        match op {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_sub(r[b] | 1),
            2 => r[a] ^= r[b].rotate_left(c as u32 & 63),
            3 => r[a] = r[a].wrapping_mul(r[b] | 1),
            4 => r[a] = m[(r[b] as usize ^ c as usize) & 255],
            5 => m[(r[b] as usize ^ c as usize) & 255] = r[a],
            6 if r[a] & 1 == 0 => pc += 1,
            7 if r[a] < r[b] => pc += 2,
            8 => r[a] = r[b] >> (c & 31),
            9 => r[a] |= r[b] & c as u64,
            _ => {}
        }
        if pc >= prog.len() {
            pc = 0;
        }
    }
    r.iter().fold(0, |acc, v| acc ^ v)
}

/// Wall nanoseconds of one kernel run on the calling thread.
pub fn kernel_ns() -> u64 {
    let t0 = now_ns();
    std::hint::black_box(interpret(std::hint::black_box(STEPS)));
    now_ns() - t0
}

/// Kernel times on the calling (VM) thread's CPU and, run at the same
/// time from a helper thread, on the translation pool's CPUs (the VM
/// thread's CPU again when the pool has none of its own).
pub fn kernel_pair_ns() -> (u64, u64) {
    std::thread::scope(|scope| {
        let pool = scope.spawn(|| crate::layers::pin_to_pool_cpus().then(kernel_ns));
        let vm = kernel_ns();
        let pool = pool.join().expect("calibration thread panicked");
        (vm, pool.unwrap_or(vm))
    })
}

/// Scale factors `REF_NS / kernel time` for a sequence of calibrations
/// taken in order, each against the median of its window.
pub fn factors(calib_ns: &[u64]) -> Vec<f64> {
    (0..calib_ns.len())
        .map(|i| factor(&calib_ns[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(calib_ns.len())]))
        .collect()
}

/// The scale factor `REF_NS / kernel time` for work measured between the
/// calibrations `samples`, against their median.
pub fn factor(samples: &[u64]) -> f64 {
    let mut w = samples.to_vec();
    w.sort_unstable();
    REF_NS / w.get(w.len() / 2).copied().unwrap_or(1).max(1) as f64
}
