//! What the benchmark reads from `/proc`: this process's CPU time and
//! peak resident set, and the host's identity. Parsing is separated
//! from reading so it can be tested on fixed text.

use crate::json::Json;
use std::fs;
use std::process::Command;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed
/// at 100 by the Linux ABI on every architecture Rust targets.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib / 1024.0)
}

/// First `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("parse /proc/self/stat")
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_mib(&status).expect("parse VmHWM in /proc/self/status")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything a reader needs to judge whether two result files are
/// comparable. `git`/`rustc` are asked at run time and read "unknown"
/// where they are missing (an exported checkout has no `.git`).
pub fn host_fingerprint() -> Json {
    let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
    Json::obj([
        ("available_parallelism", Json::Num(nproc() as f64)),
        (
            "cpu_model",
            Json::str(parse_cpu_model(&read("/proc/cpuinfo")).unwrap_or_else(|| "unknown".into())),
        ),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease").trim())),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        (
            "git_commit",
            Json::str(tool_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_survive_hostile_command_names() {
        let stat = "4242 (my prog) 1 2) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parens"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(200.0));
        assert_eq!(parse_peak_rss_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn cpu_model_is_first_model_name() {
        let info =
            "processor\t: 0\nmodel name\t: Fast CPU @ 3GHz\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Fast CPU @ 3GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
