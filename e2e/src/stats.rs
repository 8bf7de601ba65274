//! Order statistics for the report, and the two `/proc` readers the
//! end-to-end metrics need (process CPU time, peak resident set).

/// Median of `samples` (mean of the two middle values for an even count).
/// Empty input has no median; callers treat that as a failed run.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// The tail by the rule "highest percentile with at least ten samples
/// beyond it": `(percentile, value)`. With fewer than twenty samples no
/// percentile above the median qualifies, and the median is returned as
/// percentile 50.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 * TAIL_SUPPORT {
        return median(samples).map(|m| (50.0, m));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = n - TAIL_SUPPORT - 1;
    let percentile = 100.0 * (n - TAIL_SUPPORT) as f64 / n as f64;
    Some((percentile, sorted[index]))
}

/// Medians of `blocks` equal consecutive slices of `samples` (the last
/// block takes the remainder). Fewer samples than blocks yields one block
/// per sample.
pub fn block_medians(samples: &[f64], blocks: usize) -> Vec<f64> {
    if samples.is_empty() || blocks == 0 {
        return Vec::new();
    }
    let blocks = blocks.min(samples.len());
    let size = samples.len() / blocks;
    (0..blocks)
        .filter_map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * size
            };
            median(&samples[b * size..end])
        })
        .collect()
}

/// `(max − min) / median` of the block medians, in percent: how far the
/// run drifted within itself.
pub fn spread_pct(block_medians: &[f64]) -> f64 {
    let Some(mid) = median(block_medians) else {
        return 0.0;
    };
    let max = block_medians.iter().copied().fold(f64::MIN, f64::max);
    let min = block_medians.iter().copied().fold(f64::MAX, f64::min);
    if mid > 0.0 {
        100.0 * (max - min) / mid
    } else {
        0.0
    }
}

/// First quartile, median, third quartile by the "exclusive" method —
/// what Python's `statistics.quantiles(values, n=4)` returns, so the
/// spreads this program reports are the ones the driver computes.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    Some((at(1), at(2), at(3)))
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux has reported
/// `USER_HZ` = 100 on every architecture since 2.6; `sysconf` is not
/// reachable without libc bindings.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name may itself contain spaces and parentheses, so fields are
/// counted from the **last** `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_ascii_whitespace().skip(1);
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_stat_cpu_seconds(&stat).ok_or_else(|| "cannot parse /proc/self/stat".to_string())
}

/// Peak resident set of this process in MiB.
pub fn process_hwm_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_status_hwm_mib(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples 1..=1000: ten lie beyond the 990th → p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 100 samples: p90. Order of the input must not matter.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 20 samples: exactly p50 qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // Too few for any tail: the median, labelled as such.
        assert_eq!(tail(&[5.0, 1.0, 3.0]), Some((50.0, 3.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn blocks_and_spread() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(block_medians(&v, 5), vec![0.5, 2.5, 4.5, 6.5, 8.5]);
        // Remainder goes to the last block.
        assert_eq!(block_medians(&v[..7], 3), vec![0.5, 2.5, 5.0]);
        assert_eq!(block_medians(&v[..2], 5).len(), 2);
        assert!(block_medians(&[], 5).is_empty());
        assert_eq!(spread_pct(&[10.0, 10.0, 10.0]), 0.0);
        assert_eq!(spread_pct(&[9.0, 10.0, 11.0]), 20.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (e2e) R) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 50 0 0 20 0 7 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("no parens here"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn hwm_parsing() {
        let status = "Name:\te2e\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_hwm_mib("Name:\te2e\n"), None);
        assert_eq!(parse_status_hwm_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
        assert!(process_hwm_mib().unwrap() > 0.0);
    }
}
