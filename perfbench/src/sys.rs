//! Process accounting (CPU time, peak RSS), host facts, and order
//! statistics.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;
const SC_CLK_TCK: c_int = 2;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// A CPU affinity mask as the kernel takes it (glibc's 1024-CPU
/// `cpu_set_t`).
#[derive(Clone, Copy)]
struct CpuMask([u64; 16]);

impl CpuMask {
    fn one(cpu: usize) -> CpuMask {
        let mut m = CpuMask([0; 16]);
        m.0[cpu / 64] |= 1 << (cpu % 64);
        m
    }

    fn last(&self) -> Option<usize> {
        (0..16 * 64)
            .rev()
            .find(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
    }
}

/// Affinity of thread `tid` (0: the calling thread).
fn affinity(tid: c_int) -> Result<CpuMask, String> {
    let mut m = CpuMask([0; 16]);
    // SAFETY: the kernel writes at most `size_of_val(&m.0)` bytes into
    // the live array.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&m.0), m.0.as_mut_ptr()) };
    if rc == 0 {
        Ok(m)
    } else {
        Err(format!("sched_getaffinity({tid}) failed"))
    }
}

/// Set the affinity of thread `tid` (0: the calling thread).
fn set_affinity(tid: c_int, m: &CpuMask) -> Result<(), String> {
    // SAFETY: the kernel only reads `size_of_val(&m.0)` bytes of the
    // live array.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&m.0), m.0.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({tid}) failed"))
    }
}

/// Start the program's `default_pool` with one worker, pinned to the
/// last CPU this thread may run on, and return that CPU. The calling
/// thread gets its full mask back, so set-up (and its `rustc` builds)
/// may still use every CPU. Must run before anything else touches
/// `default_pool`, which sizes itself from the affinity of the thread
/// that first asks for it.
pub fn one_worker_pool() -> Result<usize, String> {
    let full = affinity(0)?;
    let cpu = full.last().ok_or("empty CPU affinity mask")?;
    set_affinity(0, &CpuMask::one(cpu))?;
    let size = perforad_exec::default_pool().size();
    set_affinity(0, &full)?;
    if size == 1 {
        Ok(cpu)
    } else {
        Err(format!("default_pool started with {size} workers, not 1"))
    }
}

/// Pin every thread of this process to `cpu`. A thread that ends while
/// this runs is skipped.
pub fn pin_self(cpu: usize) -> Result<(), String> {
    let dir = "/proc/self/task";
    let tasks = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for t in tasks {
        let name = t.map_err(|e| format!("{dir}: {e}"))?.file_name();
        let tid: c_int = name
            .to_string_lossy()
            .parse()
            .map_err(|_| format!("{dir}: bad thread id {name:?}"))?;
        if let Err(e) = set_affinity(tid, &CpuMask::one(cpu)) {
            if std::path::Path::new(&format!("{dir}/{tid}")).exists() {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// User + system CPU seconds of this process, all threads.
pub fn cpu_seconds_self() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
    // layout, and RUSAGE_SELF is a valid `who`; getrusage writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// User + system CPU seconds of another process, from `/proc/<pid>/stat`
/// (the same counters `getrusage` reads, at clock-tick resolution).
pub fn cpu_seconds_of(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the man page, utime 14, stime 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf takes any int name and only returns a value.
    let tck = unsafe { sysconf(SC_CLK_TCK) };
    (tck > 0).then(|| (utime + stime) / tck as f64)
}

/// A `/proc/<pid>/status` memory field (`"VmHWM"`, `"VmRSS"`) in MiB;
/// `pid` is `"self"` for this process.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time the hypervisor ran other guests on this machine's CPUs (the
/// `steal` column of `/proc/stat`), in seconds since boot.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    // SAFETY: sysconf takes any int name and only returns a value.
    let tck = unsafe { sysconf(SC_CLK_TCK) };
    (tck > 0).then(|| steal / tck as f64)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size of the last-level (L3) cache as the kernel reports it.
pub fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// The highest whole percentile (or 99.9) with at least ten samples
/// strictly beyond it, by nearest rank: `(percentile, value)`. With ten
/// samples or fewer no percentile qualifies and the maximum is returned
/// as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let candidates = std::iter::once(99.9).chain((0..=99).rev().map(f64::from));
    for p in candidates {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100.0, v[n - 1])
}

/// Wall-clock nanoseconds since the Unix epoch (for run ids only).
pub fn nanos_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}
