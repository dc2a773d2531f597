//! Readers for `/proc/<pid>`: processor time, peak memory, thread and
//! context-switch counts of the system under test, taken from outside it.

use std::fs;

fn proc_path(pid: u32, file: &str) -> String {
    format!("/proc/{pid}/{file}")
}

/// Time the process's live threads have spent on a processor so far, in
/// milliseconds, from `/proc/<pid>/task/*/schedstat` (nanosecond counters;
/// `utime`/`stime` tick only every 10 ms). Threads that already ended are
/// not counted, so take both samples of a difference while the same threads
/// live.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let mut nanos = 0u64;
    for task in fs::read_dir(proc_path(pid, "task")).ok()? {
        // A thread may end between the listing and the read.
        if let Ok(schedstat) = fs::read_to_string(task.ok()?.path().join("schedstat")) {
            nanos += schedstat
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())?;
        }
    }
    Some(nanos as f64 / 1e6)
}

fn status_field_kib(pid: u32, field: &str) -> Option<f64> {
    let status = fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    status_field_kib(pid, "VmHWM:").map(|kib| kib / 1024.0)
}

/// Live threads and their summed voluntary + involuntary context switches.
/// Threads that already ended are not counted, so take both samples of a
/// difference while the same threads live.
pub fn threads_and_switches(pid: u32) -> Option<(u64, u64)> {
    let mut threads = 0u64;
    let mut switches = 0u64;
    for task in fs::read_dir(proc_path(pid, "task")).ok()? {
        let status = match fs::read_to_string(task.ok()?.path().join("status")) {
            Ok(status) => status,
            // The thread ended between the listing and the read.
            Err(_) => continue,
        };
        threads += 1;
        for line in status.lines() {
            if line.starts_with("voluntary_ctxt_switches:")
                || line.starts_with("nonvoluntary_ctxt_switches:")
            {
                switches += line
                    .split_ascii_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    Some((threads, switches))
}
