//! What the benchmark reads about the machine and its own process.

use std::fs;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(user, system)` CPU seconds this process has used so far.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the numeric fields follow its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux this runs on.
    Some((utime / 100.0, stime / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_on_linux() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
            let (user, sys) = cpu_seconds().expect("stat parses");
            assert!(user >= 0.0 && sys >= 0.0);
        }
    }
}
