//! Run context recorded with every result (not metrics): the machine
//! fingerprint, and a calibration loop that makes drift of the machine
//! itself between two sets of runs visible.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

/// `nproc`, CPU model, kernel, `rustc -V` and the source revision.
pub fn fingerprint() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), cpu),
        ("kernel".to_string(), kernel),
        ("rustc".to_string(), rustc),
        ("git_rev".to_string(), git_rev()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` in a plain source tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median milliseconds of a fixed arithmetic loop that calls no program
/// code: if it moves between two sets of runs, the machine moved.
pub fn calibrate_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            let mut acc = 0.0f64;
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
