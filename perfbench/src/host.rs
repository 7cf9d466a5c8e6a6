//! Host-noise readout: CPU steal, run-queue wait and involuntary context
//! switches over one run, so a disturbed run can be told apart from a slow
//! program.

use crate::stats::Metrics;

/// Counters read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    steal_jiffies: u64,
    total_jiffies: u64,
    runq_wait_ns: u64,
    nivcsw: u64,
}

impl HostSample {
    pub fn now() -> Self {
        let (steal_jiffies, total_jiffies) = cpu_jiffies();
        Self {
            steal_jiffies,
            total_jiffies,
            runq_wait_ns: runq_wait_ns(),
            nivcsw: involuntary_switches(),
        }
    }

    /// `host.*` metrics for the interval from `self` to now.
    pub fn put_since(&self, m: &mut Metrics) {
        let end = Self::now();
        let total = end.total_jiffies.saturating_sub(self.total_jiffies).max(1);
        let steal = end.steal_jiffies.saturating_sub(self.steal_jiffies);
        m.put("host.steal_pct", steal as f64 * 100.0 / total as f64, "%");
        m.put(
            "host.runq_wait_ms",
            end.runq_wait_ns.saturating_sub(self.runq_wait_ns) as f64 * 1e-6,
            "ms",
        );
        m.put(
            "host.nivcsw",
            end.nivcsw.saturating_sub(self.nivcsw) as f64,
            "count",
        );
        m.put("host.threads", rayon::current_num_threads() as f64, "count");
    }
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = text.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Run-queue wait (`/proc/<tid>/schedstat` field 2) summed over the
/// process's live threads: the client thread and any server or pipeline
/// workers still running. Threads that already exited are not counted.
fn runq_wait_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Involuntary context switches of the whole process, exited threads
/// included (`getrusage(RUSAGE_SELF)`).
#[cfg(target_os = "linux")]
fn involuntary_switches() -> u64 {
    // Linux `struct rusage`: two `struct timeval`s, then fourteen `long`s
    // of which `ru_nivcsw` is the last.
    #[repr(C)]
    struct RUsage {
        times: [libc_long; 4],
        counts: [libc_long; 14],
    }
    #[allow(non_camel_case_types)]
    type libc_long = std::os::raw::c_long;
    extern "C" {
        fn getrusage(who: std::os::raw::c_int, usage: *mut RUsage) -> std::os::raw::c_int;
    }
    let mut usage = RUsage {
        times: [0; 4],
        counts: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage` on Linux (timeval = two longs), and RUSAGE_SELF (0)
    // is a valid `who`; getrusage writes only within that struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.counts[13].max(0) as u64
    } else {
        0
    }
}

#[cfg(not(target_os = "linux"))]
fn involuntary_switches() -> u64 {
    0
}
/// CPUs this process may run on (`sched_getaffinity`), in ascending order.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable 128-byte buffer, the size of the
    // kernel's `cpu_set_t` that we pass as `cpusetsize`; pid 0 names the
    // calling thread. The kernel writes at most `cpusetsize` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and the threads it spawns from now on)
/// to `cpus`. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live 128-byte `cpu_set_t` image and
    // `cpusetsize` is its size; pid 0 names the calling thread. The
    // kernel only reads the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn set_affinity(_cpus: &[usize]) -> bool {
    false
}
