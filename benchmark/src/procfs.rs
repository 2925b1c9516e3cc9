//! What the kernel says about this process, read from `/proc` (no libc).
//!
//! The parsers take text so the unit tests can feed them canned input;
//! the `self_*` readers return zeros where `/proc` is missing, and the
//! caller reports that as a failed `peak_rss_bytes` rather than a zero.

/// The fields of `/proc/<pid>/status` (or of one task's status) the
/// benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Status {
    /// `VmHWM`: peak resident set, in bytes.
    pub vm_hwm_bytes: u64,
    /// `Threads`: live threads of the process.
    pub threads: u64,
    pub voluntary_ctxt_switches: u64,
    pub nonvoluntary_ctxt_switches: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let first = rest.split_whitespace().next().unwrap_or("");
        let Ok(n) = first.parse::<u64>() else {
            continue;
        };
        match key {
            "VmHWM" => s.vm_hwm_bytes = n * 1024,
            "Threads" => s.threads = n,
            "voluntary_ctxt_switches" => s.voluntary_ctxt_switches = n,
            "nonvoluntary_ctxt_switches" => s.nonvoluntary_ctxt_switches = n,
            _ => {}
        }
    }
    s
}

/// Clock ticks per second of `utime`/`stime`. `sysconf(_SC_CLK_TCK)`
/// needs libc; Linux has fixed the user-visible value at 100 on every
/// architecture this can run on.
const CLK_TCK: f64 = 100.0;

/// User and system CPU seconds from `/proc/<pid>/stat`. The command
/// name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(text: &str) -> Option<(f64, f64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / CLK_TCK, stime / CLK_TCK))
}

/// The one-minute load average from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

pub fn self_status() -> Status {
    std::fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t))
        .unwrap_or_default()
}

pub fn self_cpu() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat_cpu(&t))
        .unwrap_or((0.0, 0.0))
}

pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| parse_loadavg(&t))
        .unwrap_or(0.0)
}

/// Context switches summed over the live threads of this process
/// (`/proc/self/status` counts the main thread only). Threads that
/// have exited are gone from the sum, so read it while the pool lives.
pub fn task_ctxt_switches() -> (u64, u64) {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let mut total = (0, 0);
    for entry in dir.flatten() {
        if let Ok(text) = std::fs::read_to_string(entry.path().join("status")) {
            let s = parse_status(&text);
            total.0 += s.voluntary_ctxt_switches;
            total.1 += s.nonvoluntary_ctxt_switches;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tsnet-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  219700 kB\nVmSize:\t  154164 kB\nVmHWM:\t   12345 kB\nVmRSS:\t    9000 kB\n\
        Threads:\t3\nSigQ:\t0/63421\n\
        voluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n";

    #[test]
    fn status_fields() {
        assert_eq!(
            parse_status(STATUS),
            Status {
                vm_hwm_bytes: 12345 * 1024,
                threads: 3,
                voluntary_ctxt_switches: 1234,
                nonvoluntary_ctxt_switches: 56,
            }
        );
        assert_eq!(parse_status("garbage\nVmHWM: lots kB\n"), Status::default());
    }

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (snet) bench) x) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1530 270 0 0 20 0 3 0 100 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((15.3, 2.7)));
        assert_eq!(parse_stat_cpu("no paren here"), None);
        assert_eq!(parse_stat_cpu("1 (x) R 1 2"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg("0.42 0.26 0.32 2/85 366\n"), Some(0.42));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn reads_this_process() {
        // Linux only, like the rest of the benchmark.
        let s = self_status();
        assert!(s.vm_hwm_bytes > 0 && s.threads >= 1);
        assert!(loadavg1() >= 0.0);
    }
}
