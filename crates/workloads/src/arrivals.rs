//! Job arrival processes.
//!
//! The paper's Fig. 7/8 workloads arrive as "a large number of subsequent
//! jobs ... as in time series"; production traces (the paper cites
//! studies where over 30% of jobs repeat) are streams of job
//! submissions, not batches. This module generates deterministic
//! Poisson arrival
//! timelines over an application mix, for the streaming ablation.

use crate::cost::AppKind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How much input a tenant's jobs read — storms mix latency-sensitive
/// small-job tenants with an antagonist scanning a large cold set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Latency-sensitive: a handful of blocks, p99 is the deliverable.
    Small,
    /// Batch-shaped: the bulk of a production mix.
    Medium,
    /// Antagonist scan: reads a large cold dataset end to end, the
    /// cache-interference worst case quotas exist to contain.
    Scan,
}

/// One submitted job in a stream.
#[derive(Clone, Debug, PartialEq)]
pub struct JobArrival {
    /// Submission time, seconds from stream start.
    pub at: f64,
    pub app: AppKind,
    /// Which dataset the job reads (index into the tenant's datasets —
    /// small indices repeat more, giving the production-trace skew).
    pub dataset: usize,
    /// Index of the submitting tenant (0 for single-tenant streams).
    pub tenant: usize,
    /// The tenant's weighted-fair share, stamped on every job so
    /// admission policies need no side lookup.
    pub weight: u32,
    /// The tenant's job-size class.
    pub size: SizeClass,
}

/// Arrival-process parameters.
#[derive(Clone, Debug)]
pub struct ArrivalConfig {
    /// Mean jobs per second (Poisson rate λ).
    pub rate: f64,
    /// Application mix with relative weights.
    pub mix: Vec<(AppKind, f64)>,
    /// Distinct datasets; dataset popularity is Zipf(1).
    pub datasets: usize,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            rate: 0.02, // one job every ~50 s
            mix: vec![
                (AppKind::Grep, 3.0),
                (AppKind::WordCount, 2.0),
                (AppKind::InvertedIndex, 1.0),
            ],
            datasets: 6,
        }
    }
}

/// Generate the first `n` arrivals of the stream, deterministic in
/// `seed`. Single-tenant: every job carries tenant 0, weight 1 and the
/// `Medium` size class.
pub fn arrivals(cfg: &ArrivalConfig, n: usize, seed: u64) -> Vec<JobArrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    assert!(cfg.rate > 0.0);
    assert!(!cfg.mix.is_empty());
    assert!(cfg.datasets > 0);
    let total_weight: f64 = cfg.mix.iter().map(|(_, w)| w).sum();
    // Zipf(1) CDF over datasets.
    let mut zipf = Vec::with_capacity(cfg.datasets);
    let mut acc = 0.0;
    for k in 1..=cfg.datasets {
        acc += 1.0 / k as f64;
        zipf.push(acc);
    }
    for z in &mut zipf {
        *z /= acc;
    }

    let mut out = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        // Exponential inter-arrival gap.
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / cfg.rate;
        // Weighted app choice.
        let mut pick: f64 = rng.random::<f64>() * total_weight;
        let mut app = cfg.mix[0].0;
        for (a, w) in &cfg.mix {
            if pick < *w {
                app = *a;
                break;
            }
            pick -= w;
        }
        // Zipf dataset choice.
        let u: f64 = rng.random();
        let dataset = zipf.partition_point(|&c| c < u).min(cfg.datasets - 1);
        out.push(JobArrival { at: t, app, dataset, tenant: 0, weight: 1, size: SizeClass::Medium });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_time_ordered() {
        let cfg = ArrivalConfig::default();
        let a = arrivals(&cfg, 100, 7);
        let b = arrivals(&cfg, 100, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        assert_ne!(a, arrivals(&cfg, 100, 8));
    }

    #[test]
    fn mean_gap_tracks_rate() {
        let cfg = ArrivalConfig { rate: 0.1, ..Default::default() };
        let a = arrivals(&cfg, 2000, 3);
        let mean_gap = a.last().unwrap().at / 2000.0;
        assert!((mean_gap - 10.0).abs() < 1.0, "mean gap {mean_gap}");
    }

    #[test]
    fn dataset_popularity_is_skewed() {
        let cfg = ArrivalConfig { datasets: 8, ..Default::default() };
        let a = arrivals(&cfg, 4000, 5);
        let mut counts = vec![0usize; 8];
        for j in &a {
            counts[j.dataset] += 1;
        }
        assert!(counts[0] > 3 * counts[7], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn single_tenant_defaults_stamped() {
        let a = arrivals(&ArrivalConfig::default(), 10, 3);
        assert!(a.iter().all(|j| j.tenant == 0 && j.weight == 1));
        assert!(a.iter().all(|j| j.size == SizeClass::Medium));
    }

    #[test]
    fn mix_weights_respected() {
        let cfg = ArrivalConfig {
            mix: vec![(AppKind::Grep, 9.0), (AppKind::Sort, 1.0)],
            ..Default::default()
        };
        let a = arrivals(&cfg, 3000, 2);
        let greps = a.iter().filter(|j| j.app == AppKind::Grep).count();
        let ratio = greps as f64 / 3000.0;
        assert!((ratio - 0.9).abs() < 0.05, "grep fraction {ratio}");
    }
}
