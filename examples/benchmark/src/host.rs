//! The host clock's process-level sources: `/proc/self` readers and the
//! one-CPU pin.

use std::fs;

/// Pin the process (and every thread it later spawns) to the CPU it is
/// running on. `simcore::Engine` runs exactly one rank thread at a time,
/// so one CPU loses no parallelism — but left unpinned, every baton
/// hand-off is a cross-core futex wake whose cost depends on whether the
/// other cores happen to be idle: on the 2-core sandbox the multi-rank
/// workloads' host time is bimodal, 3-4x apart. Returns the CPU, or
/// `None` where the call is unavailable (the run then continues unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads scheduler
    // state; a negative return is handled below.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is exactly its size; pid 0 names the calling thread, whose
    // mask later threads inherit.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// `VmHWM` of this process in MiB: its peak resident set so far.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(user, sys)` CPU ticks of this process, all threads included.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}
