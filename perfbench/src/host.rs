//! Host provenance for every result row, and the `/proc` readings the
//! benchmark takes (steal time over the run and per measuring window,
//! resident set).

use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Jiffy counters of the aggregate `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now (zeros where `/proc/stat` is unavailable).
    pub fn now() -> CpuTimes {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so sum the first eight.
        CpuTimes {
            total: v.iter().take(8).sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole from this machine.
    pub fn steal_share_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resident set of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Hands freed heap pages back to the kernel and resets the peak resident
/// set to the current one, so that a later peak counts only memory touched
/// after this call. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap memory to
        // the kernel; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// How often [`StealMonitor`] reads `/proc/stat`.
const STEAL_EVERY: Duration = Duration::from_millis(25);

/// A background thread that reads `/proc/stat` every [`STEAL_EVERY`], so
/// that the steal share of any stretch of the run can be looked up after
/// it.
pub struct StealMonitor {
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<Vec<(f64, CpuTimes)>>,
}

impl StealMonitor {
    /// Starts sampling; times are seconds since `epoch`.
    pub fn start(epoch: Instant) -> StealMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::spawn(move || {
            let mut log = Vec::new();
            loop {
                log.push((epoch.elapsed().as_secs_f64(), CpuTimes::now()));
                if flag.load(Ordering::Relaxed) {
                    return log;
                }
                thread::sleep(STEAL_EVERY);
            }
        });
        StealMonitor { stop, thread }
    }

    /// Stops the thread, waits for it, and returns what it read.
    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        StealLog(self.thread.join().expect("steal monitor panicked"))
    }
}

/// Timed `/proc/stat` readings of a run.
pub struct StealLog(Vec<(f64, CpuTimes)>);

impl StealLog {
    /// Steal share over the shortest sampled stretch that covers
    /// `[t0_s, t1_s]` (seconds since the monitor's epoch).
    pub fn share(&self, t0_s: f64, t1_s: f64) -> f64 {
        let v = &self.0;
        if v.len() < 2 {
            return 0.0;
        }
        let i = v.partition_point(|s| s.0 <= t0_s).saturating_sub(1);
        let j = v.partition_point(|s| s.0 < t1_s).clamp(i + 1, v.len() - 1);
        v[i].1.steal_share_until(&v[j].1)
    }
}

/// What a reader needs to know about the machine and build that produced
/// a result row.
pub struct Provenance {
    pub cpu: String,
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Provenance {
    /// Collects provenance; `root` is the repository checkout.
    pub fn collect(root: &Path) -> Provenance {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            cpu,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            rustc: command_line("rustc", &["--version"], root),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"], root),
        }
    }

    /// One JSON object (all values strings or numbers) for the result row.
    pub fn json(&self, workload: &str, seed: u64, steal_share: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"cpu\": {}, \"nproc\": {}, \
             \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}, \"steal_share\": {steal_share:.5}}}",
            json_str(&self.cpu),
            self.nproc,
            json_str(&self.kernel),
            json_str(&self.rustc),
            json_str(&self.git_rev),
        )
    }
}

/// First line of a command's standard output, or `"unknown"` when it
/// cannot run or fails (a checkout that is not a git repository has no
/// revision).
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Minimal JSON string literal (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
