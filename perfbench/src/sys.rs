//! Process-level readings from `/proc`: CPU time, peak resident set size
//! and the host's usable core count. Standard library only.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux always reports them in `USER_HZ`, which is 100
/// on every architecture it exports to userspace.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of this process (all threads, live and exited),
/// in seconds, from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; every field after the
    // closing parenthesis is space-separated, starting with field 3.
    let tail = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i - 3]
            .parse::<u64>()
            .expect("utime/stime are integers") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM`.
fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").expect("/proc/self/status reports VmHWM") as f64 / 1024.0
}

/// The number of CPUs this process may run on, from `Cpus_allowed_list`
/// in `/proc/self/status` (what `nproc` prints); falls back to
/// `available_parallelism`.
pub fn nproc() -> usize {
    let listed = fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        let list = s
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let mut n = 0;
        for part in list.trim().split(',') {
            n += match part.split_once('-') {
                Some((a, b)) => b.parse::<usize>().ok()?.checked_sub(a.parse().ok()?)? + 1,
                None => part.parse::<usize>().map(|_| 1).ok()?,
            };
        }
        Some(n)
    });
    listed
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
