//! Multi-tenant job server: output identity, crash-under-storm, and
//! cache-quota isolation.
//!
//! Concurrency is invisible in the results: J jobs admitted through
//! the persistent [`JobServer`] pool produce byte-identical output to
//! the same jobs run one at a time as one-shot jobs, across schedulers
//! and transports. The crash tests pin the recovery story when no
//! single job owns the fault — for a storm of one-shot jobs and for a
//! storm of server jobs — and the quota test pins the isolation story: an antagonist scan must not
//! be able to evict a victim tenant's warm working set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use eclipse_apps::WordCount;
use eclipse_core::{
    DstEvent, DstObserver, JobServer, JobServerConfig, LiveCluster, LiveConfig, PoolJobSpec,
    ReusePolicy, SchedulerKind, TransportKind,
};

/// Deterministic per-tenant corpus: a shared skewed vocabulary plus a
/// tenant-tagged unique token per line, so every job's output is
/// distinguishable from every other's.
fn corpus(tag: &str, lines: usize) -> String {
    let vocab = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"];
    let mut out = String::new();
    let mut state = 0x9e3779b97f4a7c15u64 ^ tag.len() as u64;
    for b in tag.bytes() {
        state = state.wrapping_mul(31).wrapping_add(b as u64);
    }
    for line in 0..lines {
        for _ in 0..6 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.push_str(vocab[(state >> 59) as usize % vocab.len()]);
            out.push(' ');
        }
        out.push_str(&format!("{tag}{line:04}\n"));
    }
    out
}

fn render(out: &[(String, String)]) -> String {
    let mut s = String::new();
    for (k, v) in out {
        s.push_str(k);
        s.push('\t');
        s.push_str(v);
        s.push('\n');
    }
    s
}

fn tenancy_config(sched: SchedulerKind, transport: TransportKind) -> LiveConfig {
    LiveConfig::small()
        .with_nodes(4)
        .with_block_size(512)
        .with_scheduler(sched)
        .with_transport(transport)
}

/// Upload each tenant's dataset under its own user (per-file
/// permissions: a tenant can only open what it owns).
fn upload_tenants(c: &LiveCluster, data: &[(String, String)]) {
    for (user, text) in data {
        c.upload(&format!("in-{user}"), user, text.as_bytes());
    }
}

/// J∈{2,4} jobs through the pool, across {laf,delay} × {memory,tcp}:
/// every job's output is byte-identical to the same job run serially as
/// a one-shot job on an identically-configured fresh cluster.
#[test]
fn pool_concurrent_matches_serial_matrix() {
    for transport in [TransportKind::Memory, TransportKind::Tcp] {
        for sched in [
            SchedulerKind::Laf(Default::default()),
            SchedulerKind::Delay(Default::default()),
        ] {
            for jobs in [2usize, 4] {
                let data: Vec<(String, String)> = (0..jobs)
                    .map(|j| (format!("t{j}"), corpus(&format!("t{j}-"), 120 + 40 * j)))
                    .collect();

                // Serial reference: one-shot jobs, one at a time.
                let serial = LiveCluster::new(tenancy_config(sched.clone(), transport));
                upload_tenants(&serial, &data);
                let reference: Vec<String> = data
                    .iter()
                    .map(|(user, _)| {
                        let (out, _) = serial.run_job(
                            &WordCount,
                            &format!("in-{user}"),
                            user,
                            3,
                            ReusePolicy::default(),
                        );
                        render(&out)
                    })
                    .collect();

                // Pool run: all J jobs admitted at once, J drivers.
                let pooled = Arc::new(LiveCluster::new(tenancy_config(sched.clone(), transport)));
                upload_tenants(&pooled, &data);
                let server = JobServer::new(
                    pooled.clone(),
                    JobServerConfig { concurrency: jobs, ..Default::default() },
                );
                let handles: Vec<_> = data
                    .iter()
                    .map(|(user, _)| {
                        server.submit(PoolJobSpec {
                            app: Arc::new(WordCount),
                            inputs: vec![format!("in-{user}")],
                            user: user.clone(),
                            reducers: 3,
                            reuse: ReusePolicy::default(),
                            weight: 1,
                        })
                    })
                    .collect();
                for (j, h) in handles.into_iter().enumerate() {
                    let (out, stats) = h.wait().unwrap_or_else(|e| {
                        panic!("job {j} failed under {sched:?}/{transport:?}: {e:?}")
                    });
                    assert_eq!(
                        render(&out),
                        reference[j],
                        "job {j} diverged from serial: J={jobs}, {sched:?}, {transport:?}"
                    );
                    assert!(stats.map_tasks > 0 && stats.reduce_tasks == 3);
                    assert_eq!(
                        (stats.attempts, stats.retries),
                        (stats.map_tasks, 0),
                        "fault-free server job {j}: one attempt per task, none repeated"
                    );
                }
                server.shutdown();
                assert_eq!(pooled.active_jobs(), 0, "registry must drain after shutdown");
            }
        }
    }
}

/// Crash one node while several one-shot jobs are in flight. No single
/// job owns the fault (`crash_node` picks an arbitrary live run to
/// carry recovery), yet with replication 2 every job must still commit
/// byte-identical output.
#[test]
fn crash_mid_storm_all_jobs_recover() {
    let jobs = 3usize;
    let data: Vec<(String, String)> =
        (0..jobs).map(|j| (format!("t{j}"), corpus(&format!("t{j}-"), 900))).collect();

    let reference: Vec<String> = {
        let calm = LiveCluster::new(LiveConfig::small().with_block_size(512));
        upload_tenants(&calm, &data);
        data.iter()
            .map(|(user, _)| {
                let (out, _) = calm.run_job(
                    &WordCount,
                    &format!("in-{user}"),
                    user,
                    3,
                    ReusePolicy::default(),
                );
                render(&out)
            })
            .collect()
    };

    let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(512)));
    upload_tenants(&c, &data);
    let victim = c.ring().node_ids()[2];
    std::thread::scope(|s| {
        let workers: Vec<_> = data
            .iter()
            .map(|(user, _)| {
                let c = c.clone();
                s.spawn(move || {
                    c.try_run_job(&WordCount, &format!("in-{user}"), user, 3, ReusePolicy::default())
                })
            })
            .collect();
        // Land the crash mid-storm: wait for at least one registered
        // run, but crash regardless once the grace period lapses (the
        // between-jobs degradation to `fail_node` is also legal).
        let t0 = Instant::now();
        while c.active_jobs() == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_micros(200));
        }
        c.crash_node(victim).expect("one crash is within the fault model");
        for (j, w) in workers.into_iter().enumerate() {
            let (out, stats) = w
                .join()
                .expect("job thread must not panic")
                .unwrap_or_else(|e| panic!("job {j} did not survive the crash: {e:?}"));
            assert_eq!(render(&out), reference[j], "job {j} output corrupted by crash");
            assert!(stats.map_tasks > 0);
        }
    });
    assert!(!c.ring().contains(victim), "victim must be out of the ring");
    assert_eq!(c.active_jobs(), 0);
}

/// Parks the first run to begin at its `JobStart` until the test has
/// crashed a node: the crash provably lands while a run is registered
/// (so one ledger is charged), from its own thread, with the other
/// driver and the pool workers still mapping.
struct HoldFirstRun {
    armed: AtomicBool,
    rendezvous: Barrier,
}

impl DstObserver for HoldFirstRun {
    fn on_event(&self, ev: DstEvent) {
        if matches!(ev, DstEvent::JobStart { .. }) && self.armed.swap(false, Ordering::AcqRel) {
            self.rendezvous.wait(); // a run is registered and held
            self.rendezvous.wait(); // the crash has been handled
        }
    }
}

/// Crash one node while a storm of jobs is in flight on the job
/// server. A pool worker whose identity is poisoned re-homes, the
/// victim's re-queued claims are drained by the run's own driver, and
/// every job — including one submitted after the crash — commits
/// output byte-identical to a calm run. The victim is once a node a
/// pool worker maps under and once a node none does.
#[test]
fn pool_jobs_survive_crash_mid_storm() {
    let jobs = 12usize;
    let data: Vec<(String, String)> =
        (0..jobs).map(|j| (format!("t{j}"), corpus(&format!("t{j}-"), 400))).collect();
    let spec = |user: &str| PoolJobSpec {
        app: Arc::new(WordCount),
        inputs: vec![format!("in-{user}")],
        user: user.to_string(),
        reducers: 3,
        reuse: ReusePolicy::default(),
        weight: 1,
    };
    let reference: Vec<String> = {
        let calm = LiveCluster::new(LiveConfig::small().with_block_size(512));
        upload_tenants(&calm, &data);
        data.iter()
            .map(|(user, _)| {
                let input = format!("in-{user}");
                render(&calm.run_job(&WordCount, &input, user, 3, ReusePolicy::default()).0)
            })
            .collect()
    };

    for victim_ix in [0usize, 5] {
        let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(512)));
        upload_tenants(&c, &data);
        let victim = c.ring().node_ids()[victim_ix];
        let hold = Arc::new(HoldFirstRun { armed: true.into(), rendezvous: Barrier::new(2) });
        c.set_observer(Some(hold.clone()));
        let server = JobServer::new(c.clone(), JobServerConfig::default());
        let handles: Vec<_> = data.iter().map(|(user, _)| server.submit(spec(user))).collect();
        // One run is held at its start; give the other driver a moment
        // to get its job mid-map, then crash from this thread.
        hold.rendezvous.wait();
        let t0 = Instant::now();
        while c.active_jobs() < 2 && t0.elapsed() < Duration::from_millis(50) {
            std::thread::yield_now();
        }
        assert!(c.active_jobs() > 0);
        c.crash_node(victim).expect("one crash is within the fault model");
        hold.rendezvous.wait();
        c.set_observer(None);
        let mut failed_nodes = 0;
        for (j, h) in handles.into_iter().enumerate() {
            let (out, stats) = h
                .wait()
                .unwrap_or_else(|e| panic!("victim {victim_ix}: job {j} did not survive: {e:?}"));
            assert_eq!(render(&out), reference[j], "victim {victim_ix}: job {j} output corrupted");
            failed_nodes += stats.failed_nodes;
        }
        assert_eq!(failed_nodes, 1, "exactly one job's ledger carries the crash");
        assert!(!c.ring().contains(victim), "victim must be out of the ring");
        // The server keeps working on the repaired ring.
        let (out, stats) = server.submit(spec("t0")).wait().expect("job after the crash");
        assert_eq!(render(&out), reference[0]);
        assert_eq!(stats.failed_nodes, 0);
        assert_eq!(stats.tasks_per_node[victim.index()], 0, "dead node got tasks");
        server.shutdown();
        assert_eq!(c.active_jobs(), 0);
    }
}

/// Warm-run cache hit ratio for one user.
fn warm_ratio(c: &LiveCluster, user: &str) -> f64 {
    let (_, s) = c.run_job(&WordCount, &format!("in-{user}"), user, 2, ReusePolicy::default());
    s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64
}

/// Quota isolation: an antagonist scanning a dataset much larger than
/// the cache evicts the victim's warm set when quotas are off, and
/// cannot when its tenant is capped — the victim's hit ratio under
/// attack must not drop below its solo baseline.
#[test]
fn quota_confines_antagonist_scan() {
    // Delay scheduling so placement is purely data-local on an idle
    // cluster: warm-run hit ratios then measure cache residency alone,
    // not LAF fairness-counter drift from the antagonist's task surge.
    let small_cache = || {
        let mut cfg = LiveConfig::small()
            .with_nodes(4)
            .with_block_size(512)
            .with_cache_shards(1)
            .with_scheduler(SchedulerKind::Delay(Default::default()));
        cfg.cache_per_node = 64 * 1024;
        cfg
    };
    let victim_text = corpus("vic-", 400); // ~18 KB, fits the cache
    let scan_text = corpus("scan", 24_000); // ~1.1 MB, floods it

    // Solo baseline: the victim alone, cold then warm.
    let solo = LiveCluster::new(small_cache());
    solo.upload("in-victim", "victim", victim_text.as_bytes());
    warm_ratio(&solo, "victim");
    let baseline = warm_ratio(&solo, "victim");
    assert!(baseline > 0.9, "solo warm run should hit the cache: {baseline}");

    // Quotas off: the scan evicts the victim's warm set (this is the
    // interference the quota exists to prevent — without it the test
    // below would be vacuous).
    let open = LiveCluster::new(small_cache());
    open.upload("in-victim", "victim", victim_text.as_bytes());
    open.upload("in-scan", "scan", scan_text.as_bytes());
    warm_ratio(&open, "victim");
    warm_ratio(&open, "scan");
    let evicted = warm_ratio(&open, "victim");
    assert!(
        evicted < baseline * 0.5,
        "without quotas the scan should flush the victim: {evicted} vs {baseline}"
    );

    // Quota on: cap the antagonist tenant well under the cache budget.
    let fair = LiveCluster::new(small_cache());
    fair.upload("in-victim", "victim", victim_text.as_bytes());
    fair.upload("in-scan", "scan", scan_text.as_bytes());
    fair.set_tenant_quota("scan", 24 * 1024);
    warm_ratio(&fair, "victim");
    warm_ratio(&fair, "scan");
    let defended = warm_ratio(&fair, "victim");
    assert!(
        defended >= baseline - 1e-9,
        "quota failed to protect the victim: {defended} vs solo {baseline}"
    );
    assert!(
        fair.tenant_cache_used("scan") <= 4 * 24 * 1024,
        "scan tenant exceeded its per-node quota in aggregate"
    );
}
