//! Process resource readings: CPU time through `getrusage(2)` (declared
//! by hand against the libc std links) and peak RSS from procfs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time consumed by every thread of this process.
pub fn cpu_time() -> Duration {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a properly sized, writable `struct rusage`;
    // RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&u.utime) + us(&u.stime))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `SCHED_IDLE` spinners, one per CPU, kept running for the whole run.
///
/// A vCPU with nothing to run halts, and waking it costs a hypervisor
/// round trip whose latency follows the host's load; on a 2-vCPU guest
/// that wake-up latency swamps a keep-alive round trip of tens of
/// microseconds. Idle-class spinners keep the vCPUs out of the halt path
/// and yield at once to any normal thread. Their CPU time is tracked so
/// it can be taken out of the process's CPU readings.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    /// Per-spinner CPU time so far, in microseconds.
    used: Arc<Vec<AtomicU64>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    pub fn start(n: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let used: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let handles = (0..n)
            .map(|i| {
                let (stop, used) = (Arc::clone(&stop), Arc::clone(&used));
                std::thread::spawn(move || {
                    // SAFETY: plain syscall wrapper on the calling thread;
                    // SCHED_IDLE is 5 and takes priority 0.
                    unsafe { sched_setscheduler(0, 5, &SchedParam { priority: 0 }) };
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..1024 {
                            std::hint::spin_loop();
                        }
                        used[i].store(thread_cpu_us(), Ordering::Relaxed);
                    }
                    used[i].store(thread_cpu_us(), Ordering::Relaxed);
                })
            })
            .collect();
        Spinners { stop, used, handles }
    }

    /// CPU time the spinners have used so far.
    pub fn cpu(&self) -> Duration {
        Duration::from_micros(self.used.iter().map(|u| u.load(Ordering::Relaxed)).sum())
    }

    /// Stops the spinners and waits for them to end.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn thread_cpu_us() -> u64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: as in `cpu_time`; RUSAGE_THREAD is 1.
    unsafe { getrusage(1, &mut u) };
    (u.utime.sec * 1_000_000 + u.utime.usec + u.stime.sec * 1_000_000 + u.stime.usec) as u64
}
