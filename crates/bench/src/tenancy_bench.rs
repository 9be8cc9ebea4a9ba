//! Multi-tenant job-server measurement: the PR's p50/p99/p999 latency
//! story.
//!
//! Two sweeps, shared by the `tenancy_bench` binary that
//! `scripts/tier1.sh` uses to snapshot `results/BENCH_tenancy.json`:
//!
//! * **Storm** — a deterministic multi-tenant arrival storm
//!   ([`eclipse_workloads::tenant_arrivals`]) of word-count jobs over
//!   per-tenant datasets, executed two ways on an 8-node cluster: one
//!   scoped `run_job` at a time in arrival order (`serial`), and
//!   through the persistent [`JobServer`] pool with weighted-fair
//!   admission (`pool`). Per-job sojourn latency (storm start →
//!   completion) lands in a [`LatencyHist`], bucketed by the
//!   submitting tenant's size class; the pool must beat serial on both
//!   records/sec and small-job p99, because fair admission stops small
//!   jobs from queueing behind antagonist scans and the persistent
//!   workers amortize per-job thread spawn. Every pool output is
//!   asserted byte-identical to its serial reference.
//!
//! * **Quota** — a victim tenant's warm working set attacked by a
//!   cache-flooding scan, measured solo, with quotas off, and with the
//!   antagonist capped ([`LiveCluster::set_tenant_quota`]); quota-on
//!   must keep the victim's hit ratio and p99 within 20% of its solo
//!   baseline.

use eclipse_apps::WordCount;
use eclipse_core::{
    JobServer, JobServerConfig, LiveCluster, LiveConfig, PoolJobSpec, ReusePolicy, SchedulerKind,
};
use eclipse_util::LatencyHist;
use eclipse_workloads::{tenant_arrivals, ArrivalConfig, SizeClass, TenantSpec};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cluster size for the storm sweep (matches the throughput bench's
/// headline point so the snapshots compare like for like).
pub const NODES: usize = 8;
const REDUCERS: usize = 2;
/// In-flight jobs under the pool: enough to overlap a small job with a
/// scan without oversubscribing the host.
const CONCURRENCY: usize = 2;

/// Latency quantiles in milliseconds, extracted from a [`LatencyHist`]
/// of nanosecond observations.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub max_ms: f64,
}

impl LatencySummary {
    fn of(h: &LatencyHist) -> LatencySummary {
        let ms = |v: u64| v as f64 / 1e6;
        LatencySummary {
            count: h.count(),
            p50_ms: ms(h.quantile(0.5)),
            p99_ms: ms(h.quantile(0.99)),
            p999_ms: ms(h.quantile(0.999)),
            max_ms: ms(h.max()),
        }
    }
}

/// One execution mode's side of the storm comparison.
#[derive(Clone, Copy, Debug)]
pub struct StormPoint {
    /// `"serial"` (one-shot jobs, arrival order) or `"pool"`
    /// (persistent workers, weighted-fair admission).
    pub mode: &'static str,
    pub jobs: usize,
    /// Wall-clock for the whole storm.
    pub secs: f64,
    /// Input records mapped per second across the storm.
    pub records_per_sec: f64,
    /// Sojourn latency of the latency-sensitive (small) tenants' jobs.
    pub small: LatencySummary,
    /// Sojourn latency over every job in the storm.
    pub all: LatencySummary,
}

/// One quota scenario's victim-side measurement.
#[derive(Clone, Copy, Debug)]
pub struct QuotaPoint {
    /// `"solo"`, `"quota_off"` or `"quota_on"`.
    pub mode: &'static str,
    /// Victim warm-run cache hit ratio, aggregated over the measured
    /// iterations.
    pub victim_hit_ratio: f64,
    /// Victim warm-run latency.
    pub victim: LatencySummary,
    /// Bytes resident under the antagonist's tenant after the sweep.
    pub scan_cache_bytes: u64,
}

/// The storm's tenant mix: two latency-sensitive small tenants with
/// high weight, one medium batch tenant, one low-weight antagonist
/// whose jobs scan the largest dataset.
fn tenant_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(0.6, 16, SizeClass::Small),
        TenantSpec::new(0.6, 16, SizeClass::Small),
        TenantSpec::new(0.3, 8, SizeClass::Medium),
        TenantSpec::new(0.15, 1, SizeClass::Scan),
    ]
}

fn dataset_bytes(size: SizeClass, quick: bool) -> usize {
    let scale = if quick { 1 } else { 4 };
    match size {
        SizeClass::Small => 8 * 1024 * scale,
        SizeClass::Medium => 32 * 1024 * scale,
        SizeClass::Scan => 128 * 1024 * scale,
    }
}

fn storm_cluster() -> LiveCluster {
    LiveCluster::new(LiveConfig::small().with_nodes(NODES).with_block_size(4 * 1024))
}

/// Upload one dataset per tenant (owned by that tenant's user) and
/// return per-tenant `(user, input, records)`.
fn upload_mix(
    c: &LiveCluster,
    tenants: &[TenantSpec],
    quick: bool,
) -> Vec<(String, String, u64)> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (text, records) = crate::live_bench::corpus(dataset_bytes(spec.size, quick));
            let user = format!("tenant{i}");
            let input = format!("in-{user}");
            c.upload(&input, &user, &text);
            (user, input, records)
        })
        .collect()
}

/// Run the storm serially and through the pool; panics if any pool
/// output diverges from its serial reference.
pub fn storm_sweep(quick: bool) -> Vec<StormPoint> {
    let tenants = tenant_mix();
    let jobs = if quick { 36 } else { 100 };
    let storm = tenant_arrivals(&ArrivalConfig::default(), &tenants, jobs, 42);
    let total_records: u64 = {
        // Records mapped = each arrival reads its tenant's whole dataset.
        let per_tenant: Vec<u64> = tenants
            .iter()
            .map(|s| crate::live_bench::corpus(dataset_bytes(s.size, quick)).1)
            .collect();
        storm.iter().map(|a| per_tenant[a.tenant]).sum()
    };

    // Serial: one-shot jobs, one at a time in arrival order.
    let (serial_point, reference) = {
        let c = storm_cluster();
        let files = upload_mix(&c, &tenants, quick);
        let mut small = LatencyHist::new();
        let mut all = LatencyHist::new();
        let mut reference: Vec<Option<Vec<(String, String)>>> = vec![None; tenants.len()];
        let t0 = Instant::now();
        for a in &storm {
            let (user, input, _) = &files[a.tenant];
            let (out, _) = c.run_job(&WordCount, input, user, REDUCERS, ReusePolicy::default());
            let sojourn = t0.elapsed().as_nanos() as u64;
            all.record(sojourn);
            if a.size == SizeClass::Small {
                small.record(sojourn);
            }
            reference[a.tenant].get_or_insert(out);
        }
        let secs = t0.elapsed().as_secs_f64();
        (
            StormPoint {
                mode: "serial",
                jobs,
                secs,
                records_per_sec: total_records as f64 / secs,
                small: LatencySummary::of(&small),
                all: LatencySummary::of(&all),
            },
            reference,
        )
    };

    // Pool: persistent workers, weighted-fair admission, CONCURRENCY
    // jobs in flight. One waiter thread per job records its completion.
    let pool_point = {
        let c = Arc::new(storm_cluster());
        let files = upload_mix(&c, &tenants, quick);
        let server = JobServer::new(
            c.clone(),
            JobServerConfig {
                concurrency: CONCURRENCY,
                policy: eclipse_core::AdmissionPolicy::WeightedFair,
                ..Default::default()
            },
        );
        let hists = Mutex::new((LatencyHist::new(), LatencyHist::new()));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for a in &storm {
                let (user, input, _) = &files[a.tenant];
                let handle = server.submit(PoolJobSpec {
                    app: Arc::new(WordCount),
                    inputs: vec![input.clone()],
                    user: user.clone(),
                    reducers: REDUCERS,
                    reuse: ReusePolicy::default(),
                    weight: a.weight,
                });
                let expect = reference[a.tenant].as_ref().expect("serial ran every tenant");
                let hists = &hists;
                let size = a.size;
                s.spawn(move || {
                    let (out, _) = handle.wait().expect("storm has no faults");
                    let sojourn = t0.elapsed().as_nanos() as u64;
                    assert_eq!(&out, expect, "pool output diverged from serial");
                    let mut h = hists.lock().expect("hist lock");
                    h.1.record(sojourn);
                    if size == SizeClass::Small {
                        h.0.record(sojourn);
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        server.shutdown();
        let (small, all) = &*hists.lock().expect("hist lock");
        StormPoint {
            mode: "pool",
            jobs,
            secs,
            records_per_sec: total_records as f64 / secs,
            small: LatencySummary::of(small),
            all: LatencySummary::of(all),
        }
    };

    vec![serial_point, pool_point]
}

/// Delay scheduling keeps warm-run placement purely data-local on an
/// idle cluster, so victim hit ratios measure cache residency rather
/// than LAF fairness-counter drift from the antagonist's task surge.
fn quota_cluster() -> LiveCluster {
    let mut cfg = LiveConfig::small()
        .with_nodes(NODES)
        .with_block_size(2 * 1024)
        .with_cache_shards(1)
        .with_scheduler(SchedulerKind::Delay(Default::default()));
    cfg.cache_per_node = 64 * 1024;
    LiveCluster::new(cfg)
}

/// Measure the victim's warm-run hit ratio and latency: solo, under an
/// uncapped antagonist, and with the antagonist quota'd.
pub fn quota_sweep(quick: bool) -> Vec<QuotaPoint> {
    let iters = if quick { 5 } else { 10 };
    let (victim_text, _) = crate::live_bench::corpus(24 * 1024);
    let (scan_text, _) = crate::live_bench::corpus(512 * 1024);

    let run = |mode: &'static str, antagonist: bool, quota: Option<u64>| {
        let c = quota_cluster();
        c.upload("in-victim", "victim", &victim_text);
        if antagonist {
            c.upload("in-scan", "scan", &scan_text);
        }
        if let Some(bytes_per_node) = quota {
            c.set_tenant_quota("scan", bytes_per_node);
        }
        // Warm the victim's working set once, unmeasured.
        c.run_job(&WordCount, "in-victim", "victim", REDUCERS, ReusePolicy::default());
        let mut lat = LatencyHist::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for _ in 0..iters {
            if antagonist {
                c.run_job(&WordCount, "in-scan", "scan", REDUCERS, ReusePolicy::default());
            }
            let t = Instant::now();
            let (_, s) =
                c.run_job(&WordCount, "in-victim", "victim", REDUCERS, ReusePolicy::default());
            lat.record(t.elapsed().as_nanos() as u64);
            hits += s.cache_hits;
            misses += s.cache_misses;
        }
        QuotaPoint {
            mode,
            victim_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            victim: LatencySummary::of(&lat),
            scan_cache_bytes: c.tenant_cache_used("scan"),
        }
    };

    vec![
        run("solo", false, None),
        run("quota_off", true, None),
        run("quota_on", true, Some(16 * 1024)),
    ]
}
