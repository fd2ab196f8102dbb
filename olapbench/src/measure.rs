//! Summary statistics and process-level counters.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (0 < p < 1) of `values` by nearest rank. Refuses a
/// percentile with fewer than [`MIN_BEYOND`] samples above its rank: a
/// tail read from a handful of samples is noise.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if values.is_empty() || !(0.0..1.0).contains(&p) {
        return Err(format!(
            "p{} of {} samples is undefined",
            p * 100.0,
            values.len()
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    let beyond = sorted.len() - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has {beyond} samples beyond it (needs {MIN_BEYOND})",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User + system CPU seconds of this process, all threads, exited ones
/// included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may contain spaces; fields restart after its ')'.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so field n sits at index n - 3.
    let ticks = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat field {n} unreadable"))
    };
    // Linux reports these in USER_HZ, which is 100 on every ABI.
    Ok((ticks(14)? + ticks(15)?) / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert!(percentile(&v, 0.95).is_err());
        assert!(percentile(&v[..99], 0.9).is_err());
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
