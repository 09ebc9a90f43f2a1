//! A fixed compute kernel that gauges how fast the host runs right now.
//!
//! On a shared virtual machine the same code runs 20–30 % slower for
//! minutes at a time, and process CPU time slows with it, so neither wall
//! nor CPU time of a single set-up is comparable across runs. The
//! yardstick is a dependent chain of `ln`/`sqrt`/`exp` that shares no code
//! with the program, timed right before and right after the work it
//! scales: a figure divided by the yardstick's slowdown is that figure on
//! a host where the yardstick takes [`REF_S`]. A change to the program
//! cannot move the yardstick, so it moves the scaled figure in full.
//!
//! The two vCPUs of such a machine also differ from each other at the
//! same moment by 10–30 %, so the yardstick runs on as many threads as
//! the work it scales, and single-threaded work is pinned with it to one
//! CPU ([`Pin`]).

use std::time::Instant;

/// Yardstick time of the reference host the scaled figures are quoted
/// for, s.
pub const REF_S: f64 = 0.1;
const ITERS: usize = 8_000_000;

/// Runs the kernel once on each of `threads` threads at once; returns
/// the time of one run at their mean speed, s.
pub fn measure(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("yardstick thread"))
            .collect()
    });
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

fn kernel() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1.5f64);
    let mut acc = 0.0;
    for i in 0..ITERS {
        x = (x.ln() * 0.5 + (x * 0.999).sqrt()).exp() * 0.3 + 0.7 + (i & 7) as f64 * 1e-9;
        acc += x;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Times consecutive pieces of work, each between two yardstick runs;
/// the run after one piece is the run before the next.
pub struct Gauge {
    threads: usize,
    last: f64,
}

impl Gauge {
    /// A gauge for work on `threads` threads.
    pub fn new(threads: usize) -> Gauge {
        Gauge {
            threads,
            last: measure(threads),
        }
    }

    /// Runs `work`; returns its result, its wall time and that time scaled
    /// to the reference host, s.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let out = work();
        let wall = t.elapsed().as_secs_f64();
        let after = measure(self.threads);
        let scaled = wall * REF_S / (0.5 * (self.last + after));
        self.last = after;
        (out, wall, scaled)
    }
}

/// Pins the calling thread, and the threads it spawns, to the CPU it runs
/// on until dropped; a no-op where the affinity calls are missing or fail.
pub struct Pin {
    old: Option<[u64; 16]>,
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::ffi::c_int;
    extern "C" {
        pub fn sched_getcpu() -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
}

impl Pin {
    pub fn current_cpu() -> Pin {
        #[cfg(target_os = "linux")]
        {
            let mut old = [0u64; 16];
            let size = std::mem::size_of_val(&old);
            // SAFETY: pid 0 names the calling thread; `old` and `mask` are
            // valid buffers of `size` bytes that outlive the calls.
            unsafe {
                let cpu = affinity::sched_getcpu();
                if !(0..1024).contains(&cpu)
                    || affinity::sched_getaffinity(0, size, old.as_mut_ptr()) != 0
                {
                    return Pin { old: None };
                }
                let mut mask = [0u64; 16];
                mask[cpu as usize / 64] = 1 << (cpu as usize % 64);
                if affinity::sched_setaffinity(0, size, mask.as_ptr()) != 0 {
                    return Pin { old: None };
                }
            }
            Pin { old: Some(old) }
        }
        #[cfg(not(target_os = "linux"))]
        Pin { old: None }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(old) = &self.old {
            // SAFETY: as in `current_cpu`; `old` is the mask read there.
            unsafe {
                affinity::sched_setaffinity(0, std::mem::size_of_val(old), old.as_ptr());
            }
        }
    }
}
