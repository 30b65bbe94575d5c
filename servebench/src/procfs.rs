//! Thread CPU and run-queue time, process CPU time and peak memory, read
//! from Linux `/proc`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Thread-name prefixes of the daemon's thread groups.
const SERVER_GROUPS: [&str; 3] = ["serve-worker", "serve-accept", "serve-maint"];

/// Nanoseconds a thread spent on a CPU and waiting on a run queue
/// (`/proc/.../schedstat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub runq_ns: u64,
}

impl Sched {
    fn read(path: &Path) -> Option<Sched> {
        let text = fs::read_to_string(path).ok()?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        Some(Sched {
            cpu_ns: fields.next()?.ok()?,
            runq_ns: fields.next()?.ok()?,
        })
    }

    fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }
}

/// The calling thread's counters since it started.
pub fn this_thread() -> Sched {
    Sched::read(Path::new("/proc/thread-self/schedstat")).unwrap_or_default()
}

/// The `schedstat` files of the live threads whose name starts with
/// `prefix`.
pub fn threads_named(prefix: &str) -> Vec<PathBuf> {
    fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|entry| {
            fs::read_to_string(entry.path().join("comm"))
                .is_ok_and(|name| name.trim().starts_with(prefix))
        })
        .map(|entry| entry.path().join("schedstat"))
        .collect()
}

/// CPU nanoseconds the threads behind `schedstat` files have used so far.
pub fn cpu_ns(schedstat: &[PathBuf]) -> u64 {
    schedstat
        .iter()
        .filter_map(|path| Sched::read(path))
        .map(|s| s.cpu_ns)
        .sum()
}

/// Every live thread's counters (by thread id, with its name) and the CPU
/// time of the whole process, at one moment.
#[derive(Debug, Default)]
pub struct Sample {
    threads: BTreeMap<u64, (String, Sched)>,
    process_cpu_s: f64,
}

impl Sample {
    pub fn take() -> Sample {
        let mut threads = BTreeMap::new();
        for entry in fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let dir = entry.path();
            let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if let Some(sched) = Sched::read(&dir.join("schedstat")) {
                threads.insert(tid, (name.trim().to_owned(), sched));
            }
        }
        Sample {
            threads,
            process_cpu_s: process_cpu_clock_s(),
        }
    }
}

/// CPU and run-queue seconds per thread group between two samples.
#[derive(Debug, Default)]
pub struct Groups {
    cpu_s: BTreeMap<&'static str, f64>,
    runq_s: BTreeMap<&'static str, f64>,
    /// Process CPU seen in no group: the matcher's short-lived fan-out
    /// threads, which exit between the samples, and the main thread, which
    /// only waits.
    pub helpers_cpu_s: f64,
}

impl Groups {
    fn add(&mut self, group: &'static str, s: Sched) {
        *self.cpu_s.entry(group).or_default() += s.cpu_ns as f64 / 1e9;
        *self.runq_s.entry(group).or_default() += s.runq_ns as f64 / 1e9;
    }

    /// CPU seconds of one group.
    pub fn cpu(&self, group: &str) -> f64 {
        self.cpu_s.get(group).copied().unwrap_or(0.0)
    }

    /// Run-queue seconds of one group.
    pub fn runq(&self, group: &str) -> f64 {
        self.runq_s.get(group).copied().unwrap_or(0.0)
    }
}

/// Groups the daemon's threads by name prefix (a thread born after `start`
/// counts from zero) and adds the client threads' own counters as
/// `bench-client`.
pub fn groups(start: &Sample, end: &Sample, clients: &[Sched]) -> Groups {
    let mut groups = Groups::default();
    for (tid, (name, now)) in &end.threads {
        if let Some(group) = SERVER_GROUPS.into_iter().find(|g| name.starts_with(*g)) {
            let before = start.threads.get(tid).map(|(_, s)| *s).unwrap_or_default();
            groups.add(group, now.since(before));
        }
    }
    for client in clients {
        groups.add("bench-client", *client);
    }
    let seen: f64 = groups.cpu_s.values().sum();
    groups.helpers_cpu_s = (end.process_cpu_s - start.process_cpu_s - seen).max(0.0);
    groups
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// CPU seconds every thread the process ever ran has used, to the
/// nanosecond. The kernel leaves out time the hypervisor gave another
/// guest, so on a shared host this clock is steadier than the wall clock.
pub fn process_cpu_clock_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel defines.
    if unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Starts `VmHWM` again from the current resident set size, so that the
/// next repetition's peak is its own.
pub fn reset_peak_rss() {
    // Best effort: a kernel without this file keeps the process-wide peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
