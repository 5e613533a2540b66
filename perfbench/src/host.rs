//! What the harness reads about its own process and host: CPU time, peak
//! resident memory, processor count and hypervisor steal; and the one
//! processor it runs on. Linux only.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per processor, 1024 processors.
type CpuSet = [u64; 16];

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first processor it is allowed to run on, and returns that
/// processor. Call it before any other thread starts.
///
/// With every thread of the process on one processor, freeing memory or
/// ending a thread never waits for another virtual processor to answer a
/// TLB-flush interrupt while the hypervisor has it descheduled; that wait
/// is counted as CPU time, and on a host with steal it inflated the CPU
/// time of the `small` workload's joins by 15–30 %.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64).find(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // names a processor the thread was already allowed on.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, exited ones
/// included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this harness runs on), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host-wide CPU ticks from `/proc/stat`: `(total, steal)`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so only the first eight add up.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Share of host CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> Option<f64> {
    let total = after.0.checked_sub(before.0)?;
    let steal = after.1.checked_sub(before.1)?;
    (total > 0).then(|| steal as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn procfs_readings_parse() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let (total, steal) = cpu_ticks().expect("/proc/stat");
        assert!(total >= steal);
        assert_eq!(steal_share((100, 10), (300, 60)), Some(0.25));
        assert_eq!(steal_share((100, 10), (100, 10)), None);
    }
}
