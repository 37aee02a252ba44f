//! Process probes, the determinism digest, the percentile helper and the
//! one-line JSON report.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`: Linux's `USER_HZ`, 100 on every architecture that
/// exposes it to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, every thread
/// included, exited ones too (`utime` + `stime` of `/proc/self/stat`), at
/// the 10 ms resolution of a clock tick.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is unreadable or malformed.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name is in parentheses and may hold spaces; the fields
    // after it start at the third, `state`, so `utime` and `stime` (the
    // 14th and 15th) are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / USER_HZ),
        _ => Err(format!("malformed /proc/self/stat: {stat}")),
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// FNV-1a over 64-bit words: the determinism digest of a run's results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds the eight bytes of `word` into the digest.
    pub fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bit pattern of `x`.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 3] = [0.999, 0.99, 0.9];

/// The highest candidate percentile that leaves at least ten of `count`
/// samples strictly beyond it, or `None` when even p90 does not.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| {
        // Samples beyond the nearest-rank p-quantile.
        let rank = (p * count as f64).ceil() as usize;
        count.saturating_sub(rank) >= 10
    })
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (any order, non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// What a run reports: trials attempted and failed, why they failed, the
/// metrics, and (untraced) the determinism digest.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Failed trials as (pass, point, trial): a pass is one session's
    /// batch, or one pass of the traced run over a grid, and a point is
    /// an index into that batch.
    failed: BTreeSet<(usize, usize, usize)>,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but not reported in the JSON
    /// line: the untraced run's unscaled times and host slowness.
    pub raw: Vec<Metric>,
    pub digest: Option<String>,
}

impl Report {
    /// Marks `trials` of point `point` of pass `pass` failed and keeps the
    /// first few reasons. A trial that fails several checks counts once.
    pub fn fail(
        &mut self,
        (pass, point): (usize, usize),
        trials: impl IntoIterator<Item = usize>,
        why: String,
    ) {
        self.failed
            .extend(trials.into_iter().map(|trial| (pass, point, trial)));
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Trials that failed at least one check.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named metric of the report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The report's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn report_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value is not JSON; the checks fail such a run.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_000_000), Some(0.999));
        for count in [100usize, 1_000, 5_432, 10_000, 123_456] {
            let p = tail_percentile(count).expect("count >= 100");
            let rank = (p * count as f64).ceil() as usize;
            assert!(count - rank >= 10, "{count}: p{p} leaves {}", count - rank);
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn report_is_one_json_line_with_every_digit() {
        let line = report_json(
            true,
            3,
            0,
            &[
                Metric::new("a", 1.0 / 3.0, "s"),
                Metric::new("b", 2.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}, \
             \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_trial_that_fails_twice_counts_once() {
        let mut r = Report::default();
        r.fail((0, 3), 0..2, "point-level check".into());
        r.fail((0, 3), [1], "trial 1 failed".into());
        r.fail((1, 3), [1], "same trial of another pass".into());
        assert_eq!(r.failed(), 3);
        assert_eq!(r.problems.len(), 3);
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(process_cpu_seconds().expect("cpu") >= 0.0);
        assert!(peak_rss_mib().expect("rss") > 0.0);
    }
}
