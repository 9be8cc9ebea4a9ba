//! Order statistics for timing samples.

use crate::json::Json;

/// Percentile by linear interpolation between closest ranks (`p` in
/// 0..=1). `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The tail percentiles a report may quote, ascending.
const TAILS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it in a sample of `n` — a tail quoted from fewer is one outlier's
/// opinion. `None` below 20 samples (not even the median qualifies).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// First quartile, median, third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the rule the driver applies to a set of runs. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values);
    let m = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// What a report says about one timing: sample count, median,
/// quartiles, p90, the highest supported tail and the maximum.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        Some(Summary {
            n: s.len(),
            p25: percentile(&s, 0.25),
            p50: percentile(&s, 0.5),
            p75: percentile(&s, 0.75),
            p90: percentile(&s, 0.9),
            tail: highest_supported_tail(s.len()).map(|p| (p, percentile(&s, p))),
            max: s[s.len() - 1],
        })
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("n", Json::Num(self.n as f64)),
            ("p25", Json::Num(self.p25)),
            ("p50", Json::Num(self.p50)),
            ("p75", Json::Num(self.p75)),
            ("p90", Json::Num(self.p90)),
            ("max", Json::Num(self.max)),
        ];
        if let Some((p, v)) = self.tail {
            fields.push(("tail_percentile", Json::Num(p * 100.0)));
            fields.push(("tail_value", Json::Num(v)));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(20), Some(0.5));
        assert_eq!(highest_supported_tail(99), Some(0.5));
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[2.0; 100]).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (100, 2.0, Some((0.9, 2.0))));
    }
}
