//! Process self-measurement from `/proc/self`: resident-set high-water
//! mark and its reset, CPU time, faults and context switches.
//!
//! Linux only. Every reader returns `None` when the file or field is
//! missing, so the caller decides whether that is fatal.

use std::fs;

/// Kernel clock ticks per second of the `/proc/self/stat` CPU fields
/// (`USER_HZ`), fixed at 100 on every Linux ABI this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// A numeric field of `/proc/self/status`.
pub fn status_count(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field)
}

/// Parses `Field:   1234 kB` (or a bare count) out of a status document.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_count("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Resets the resident-set high-water mark to the current RSS by writing
/// `5` to `/proc/self/clear_refs`. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the allocator's free heap memory to the kernel, so that memory
/// freed by one phase no longer counts as resident in the next. A no-op
/// outside glibc.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free memory; it takes
        // the allocator's own lock and leaves live allocations untouched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// CPU time and fault counters of this process from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcStat {
    /// User plus system CPU seconds of all threads, live and exited.
    pub cpu_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Reads [`ProcStat`] for this process.
pub fn proc_stat() -> Option<ProcStat> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state): minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(ProcStat {
        cpu_s: (field(14)? + field(15)?) as f64 / TICKS_PER_SECOND,
        minor_faults: field(10)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn status_fields_parse_by_exact_name() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(40960));
        assert_eq!(
            parse_status_kb(STATUS, "nonvoluntary_ctxt_switches"),
            Some(7)
        );
        // A prefix of another field's name is not that field.
        assert_eq!(parse_status_kb(STATUS, "ctxt_switches"), None);
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
    }

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (perf bench) (x) R 1 4242 4242 0 -1 4194560 1234 0 5 0 250 30 0 0 20 0 1 0 99 1000 200";
        let parsed = parse_stat(stat).expect("well-formed stat line");
        assert_eq!(parsed.minor_faults, 1234);
        assert!((parsed.cpu_s - 2.8).abs() < 1e-12);
        assert_eq!(parse_stat("truncated (x) R 1"), None);
    }

    #[test]
    fn live_proc_files_are_readable() {
        assert!(peak_rss_mb().expect("VmHWM present") > 0.0);
        assert!(status_count("nonvoluntary_ctxt_switches").is_some());
        assert!(proc_stat().expect("stat present").minor_faults > 0);
    }

    #[test]
    fn clear_refs_lowers_the_high_water_mark() {
        // Touch 64 MiB, free it, and check the reset brings VmHWM back
        // below the peak that allocation set.
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let raised = peak_rss_mb().expect("VmHWM present");
        drop(block);
        assert!(reset_peak_rss(), "clear_refs must accept a reset");
        let lowered = peak_rss_mb().expect("VmHWM present");
        assert!(
            lowered + 32.0 < raised,
            "reset left VmHWM at {lowered} MiB after a {raised} MiB peak"
        );
    }
}
