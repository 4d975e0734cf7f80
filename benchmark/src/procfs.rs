//! `/proc` readers: CPU time and peak RSS of the harness and its
//! `swr-shard` children, and the recorded environment block.

use shearwarp::telemetry::Json;
use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux ABI this harness runs on.
const TICK_MS: f64 = 10.0;

const WORKER_COMM: &str = "swr-shard";

/// The fields of `/proc/<pid>/stat` after the parenthesised comm.
fn stat_fields(pid: u32) -> Option<(String, Vec<String>)> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_string();
    let rest = text[close + 1..]
        .split_whitespace()
        .map(String::from)
        .collect();
    Some((comm, rest))
}

/// `(ppid, own ticks, reaped-children ticks)` of a process.
fn stat_cpu(pid: u32) -> Option<(String, u32, u64, u64)> {
    let (comm, f) = stat_fields(pid)?;
    // After the comm: state(0) ppid(1) ... utime(11) stime(12) cutime(13)
    // cstime(14).
    let n = |i: usize| f.get(i)?.parse::<u64>().ok();
    Some((comm, n(1)? as u32, n(11)? + n(12)?, n(13)? + n(14)?))
}

/// Live `swr-shard` processes whose parent is this process.
pub fn shard_children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            matches!(stat_cpu(pid), Some((comm, ppid, _, _)) if ppid == me && comm == WORKER_COMM)
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// CPU milliseconds consumed so far by this process, its reaped children,
/// and the given live children.
pub fn cpu_ms(children: &[u32]) -> f64 {
    let own = stat_cpu(std::process::id()).map_or(0, |(_, _, own, reaped)| own + reaped);
    let kids: u64 = children
        .iter()
        .filter_map(|&pid| stat_cpu(pid))
        .map(|(_, _, own, reaped)| own + reaped)
        .sum();
    (own + kids) as f64 * TICK_MS
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process plus the given live children, in MiB.
pub fn peak_rss_mib(children: &[u32]) -> f64 {
    let total: u64 = std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .filter_map(vm_hwm_kib)
        .sum();
    total as f64 / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment block recorded with every run.
pub fn environment(threads: usize) -> Json {
    let unknown = || "unknown".to_string();
    let n = nproc();
    Json::obj()
        .with("nproc", Json::U64(n as u64))
        .with("threads", Json::U64(threads as u64))
        .with("oversubscribed", Json::Bool(n < threads))
        .with(
            "cpu_model",
            Json::Str(first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        )
        .with(
            "kernel",
            Json::Str(
                fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        )
        .with(
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        )
        .with(
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        )
        .with(
            "simd_kernel",
            Json::Str(shearwarp::render::dispatched_kernel().name().into()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_stat_parses_and_cpu_time_is_monotone() {
        let (comm, ppid, _, _) = stat_cpu(std::process::id()).expect("own stat");
        assert!(!comm.is_empty() && ppid > 0);
        let a = cpu_ms(&[]);
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        assert!(cpu_ms(&[]) >= a + 20.0, "a 50 ms spin shows in the ticks");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib(&[]) > 1.0);
    }
}
