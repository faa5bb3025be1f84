//! Percentiles, the sample-count rule, and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the smallest
/// sample with at least `p`% of all samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile is reported only from runs that leave at least this
/// many samples beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Whether `n` samples support reporting percentile `p`.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= TAIL_SAMPLES
}

/// Metric names use letters, digits, `_`, `.` and `-`, start with a
/// letter or digit, and are at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of a run that passed every check: one JSON object
/// with exactly the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest decimal that round-trips: all digits.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "cluster_sim.ns_per_task",
            "round_ms_p50",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "x\"", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            3,
            &[Metric {
                name: "latency_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(matches!(v, serde_json::Value::Object(ref o) if o.len() == 4));
    }
}
