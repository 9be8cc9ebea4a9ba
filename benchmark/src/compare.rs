//! `compare A.json B.json`: one row per (end-to-end metric, workload)
//! with both medians and quartiles, the bound, and a verdict. Every
//! ratio is printed next to the base it is a share of.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// Run-to-run spread is wider than the bound: the runs cannot say.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the metric's values over a set's runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Side {
    pub fn of(values: &[f64]) -> Option<Side> {
        match values {
            [] => None,
            [v] => Some(Side { q1: *v, median: *v, q3: *v, n: 1 }),
            _ => {
                let [q1, median, q3] = quartiles(values);
                Some(Side { q1, median, q3, n: values.len() })
            }
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// By what share of A's median B is worse (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The rule: B is *worse* when its median is worse than A's by more
/// than the bound and by more than the spread; the pair is
/// *unresolved* when the spread of either side exceeds the bound (the
/// runs cannot tell a regression of that size from noise); B is
/// *better* when it improves by more than the spread; otherwise it is
/// *within bound*.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let delta = worsening(a.median, b.median, better);
    let spread = a.spread().max(b.spread());
    if delta > bound && delta > spread {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if -delta > spread && delta < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .ok_or_else(|| format!("result file has no values for {workload}/{metric}"))
}

pub fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let side = |doc: &Json| {
                Side::of(&values_of(doc, workload, m.name)?)
                    .ok_or_else(|| format!("no runs of {workload}/{}", m.name))
            };
            let (sa, sb) = (side(a)?, side(b)?);
            out.push(Row {
                workload,
                metric: m.name,
                unit: m.unit,
                bound: m.bound,
                verdict: verdict(&sa, &sb, m.better, m.bound),
                a: sa,
                b: sb,
            });
        }
    }
    Ok(out)
}

pub fn render(rows: &[Row]) -> String {
    let mut s = format!(
        "{:<16} {:<15} {:>38} {:>38} {:>22} {:>7}  {}\n",
        "workload",
        "metric",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "B vs A",
        "bound",
        "verdict"
    );
    for r in rows {
        let side = |x: &Side| format!("{:.4} [{:.4}, {:.4}] ({})", x.median, x.q1, x.q3, x.n);
        let change = format!(
            "{:+.2}% of {:.4} {}",
            (r.b.median - r.a.median) / r.a.median * 100.0,
            r.a.median,
            r.unit
        );
        s.push_str(&format!(
            "{:<16} {:<15} {:>38} {:>38} {:>22} {:>6.1}%  {}{}\n",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            change,
            r.bound * 100.0,
            r.verdict.as_str(),
            if r.verdict == Verdict::Unresolved {
                format!(" (spread {:.1}% of median)", r.a.spread().max(r.b.spread()) * 100.0)
            } else {
                String::new()
            },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side { q1: median * 0.995, median, q3: median * 1.005, n: 5 }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let v = |a: &Side, b: &Side| verdict(a, b, Better::Lower, 0.05);
        assert_eq!(v(&tight(100.0), &tight(104.0)), Verdict::WithinBound);
        assert_eq!(v(&tight(100.0), &tight(106.0)), Verdict::Worse);
        assert_eq!(v(&tight(100.0), &tight(97.0)), Verdict::Better);
        assert_eq!(v(&tight(100.0), &tight(99.7)), Verdict::WithinBound);
        // Throughput: lower is worse.
        assert_eq!(verdict(&tight(100.0), &tight(90.0), Better::Higher, 0.05), Verdict::Worse);
        assert_eq!(verdict(&tight(100.0), &tight(110.0), Better::Higher, 0.05), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_regression_clears_it() {
        let noisy = |median: f64| Side { q1: median * 0.96, median, q3: median * 1.04, n: 5 };
        // Spread 8% > bound 5%: a 6% worsening cannot be told from noise…
        assert_eq!(verdict(&noisy(100.0), &tight(106.0), Better::Lower, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&noisy(100.0), &tight(100.0), Better::Lower, 0.05), Verdict::Unresolved);
        // …but a 20% one can.
        assert_eq!(verdict(&noisy(100.0), &tight(120.0), Better::Lower, 0.05), Verdict::Worse);
    }

    #[test]
    fn sides_use_the_drivers_quartiles() {
        let s = Side::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!(Side::of(&[3.0]).unwrap(), Side { q1: 3.0, median: 3.0, q3: 3.0, n: 1 });
        assert!(Side::of(&[]).is_none());
    }

    #[test]
    fn rows_cover_every_metric_of_every_workload() {
        let set = |scale: f64| {
            Json::obj([(
                "workloads",
                Json::obj(WORKLOADS.iter().map(|w| {
                    let metrics = END_TO_END.iter().map(|m| {
                        let vals = [0.99, 1.0, 1.01].iter().map(|v| Json::Num(v * scale)).collect();
                        (m.name, Json::obj([("values", Json::Arr(vals))]))
                    });
                    (*w, Json::obj([("end_to_end", Json::obj(metrics))]))
                })),
            )])
        };
        let same = rows(&set(1.0), &set(1.0)).unwrap();
        assert_eq!(same.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(same.iter().all(|r| r.verdict == Verdict::WithinBound));
        let slower = rows(&set(1.0), &set(2.0)).unwrap();
        let worse = slower.iter().filter(|r| r.verdict == Verdict::Worse).count();
        // Everything "lower is better" doubled; throughput doubled too (better).
        assert_eq!(worse, WORKLOADS.len() * (END_TO_END.len() - 1));
        assert!(render(&slower).contains("WORSE"));
        assert!(rows(&Json::obj([("workloads", Json::Null)]), &set(1.0)).is_err());
    }
}
