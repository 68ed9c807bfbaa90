//! What the benchmark reads from the host: process CPU time and peak
//! resident memory from `/proc`, and the facts recorded beside every result.

use std::process::Command;

/// Linux reports `/proc/<pid>/stat` times in clock ticks of 1/100 s on every
/// architecture Rust targets (`USER_HZ`), whatever the kernel's own `HZ`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads, live or joined) this process has
/// used so far. Resolution is one clock tick, so measure over a whole phase.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("/proc/self/stat: no utime and stime")?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_status_peak_rss_mb(&status).ok_or("/proc/self/status: no VmHWM line".into())
}

/// The facts a reader needs to compare two result sets.
#[derive(Clone, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    pub threads: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub profile: &'static str,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads the traced pass's parallel probes are given:
/// `min(nproc, 2)`. Every timed op runs on one thread.
pub fn threads() -> usize {
    nproc().min(2)
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// The checked-out commit, read from `.git` under the working directory
/// without running git; a benchmark checkout is not a repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = first_line(&head);
    match head.strip_prefix("ref: ") {
        Some(r) => first_line(&std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default()),
        None => head,
    }
}

impl HostInfo {
    pub fn detect() -> Self {
        let nproc = nproc();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_default();
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
            .unwrap_or_default();
        let or_unknown = |s: String| if s.is_empty() { "unknown".into() } else { s };
        Self {
            nproc,
            threads: threads(),
            cpu_model: or_unknown(cpu_model),
            rustc: or_unknown(rustc),
            commit: or_unknown(commit()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn render(&self) -> String {
        format!(
            "host.threads={} host.nproc={} host.cpu=\"{}\" host.rustc=\"{}\" host.commit={} host.profile={}",
            self.threads, self.nproc, self.cpu_model, self.rustc, self.commit, self.profile
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_the_command_name() {
        let stat = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 19 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(750));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm_in_mb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_files_parse_on_this_host() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(process_cpu_seconds().unwrap() >= 0.0);
    }
}
