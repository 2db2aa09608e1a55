//! Process accounting (CPU time, peak RSS) and scratch-directory hygiene.

use std::path::Path;
use std::time::Duration;

/// `struct timeval` on 64-bit Unix.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Unix: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time consumed so far by every thread of this
/// process (the four replicas and the client library alike).
pub fn process_cpu() -> Duration {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable, correctly sized and aligned
    // `struct rusage` for the 64-bit Unix targets this benchmark builds
    // on (the compile-time assertion below pins the size); getrusage
    // writes only inside it and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let of = |t: TimeVal| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    of(usage.utime) + of(usage.stime)
}

const _: () = assert!(std::mem::size_of::<RUsage>() == 144);

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Claims `out/<name>.pid` for this process. Refuses when the file names
/// a live benchmark process: a child left over from an earlier run would
/// still hold its loopback ports, its WAL files and a share of the CPU.
pub fn claim_pid_file(out: &Path, name: &str) -> Result<std::path::PathBuf, String> {
    let path = out.join(format!("{name}.pid"));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(pid) = text.trim().parse::<u32>() {
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            let alive = String::from_utf8_lossy(&cmdline).contains("rdb-benchmark");
            if alive && pid != std::process::id() {
                return Err(format!(
                    "benchmark process {pid} from an earlier run is still alive \
                     (named by {}); stop it first",
                    path.display()
                ));
            }
        }
    }
    std::fs::write(&path, std::process::id().to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// `git rev-parse HEAD`, or `unknown` outside a repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
