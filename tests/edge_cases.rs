//! Edge cases and degenerate configurations: tiny clusters, empty
//! inputs, single blocks, extreme reducer counts, and zero-capacity
//! caches must all behave sensibly rather than panic or hang.

use eclipse_apps::WordCount;
use eclipse_core::{
    EclipseConfig, EclipseSim, JobSpec, LiveCluster, LiveConfig, ReusePolicy, SchedulerKind,
};
use eclipse_sched::{DelayConfig, LafConfig};
use eclipse_util::{GB, MB};
use eclipse_workloads::AppKind;

fn sim(nodes: usize) -> EclipseSim {
    EclipseSim::new(
        EclipseConfig::paper_defaults(SchedulerKind::Laf(LafConfig::default()))
            .with_nodes(nodes),
    )
}

#[test]
fn empty_file_job_completes_instantly_enough() {
    let mut s = sim(4);
    s.upload("empty", 0);
    let r = s.run_job(&JobSpec::batch(AppKind::Grep, "empty"));
    assert_eq!(r.map_tasks, 0);
    assert!(r.read_bytes.is_empty());
    // Reducers still run (zero-byte shares) but the job ends promptly.
    assert!(r.elapsed < 5.0, "empty job took {}", r.elapsed);
}

#[test]
fn single_node_cluster_runs_everything_locally() {
    let mut s = sim(1);
    s.upload("d", GB);
    let r = s.run_job(&JobSpec::batch(AppKind::WordCount, "d").with_reducers(4));
    assert_eq!(r.map_tasks, 8);
    assert_eq!(r.tasks_per_node, vec![8]);
    assert_eq!(r.read_bytes.get("remote_disk").copied().unwrap_or(0), 0);
}

#[test]
fn two_node_cluster_survives_one_failure() {
    let mut s = sim(2);
    s.upload("d", GB);
    let victim = s.ring().node_ids()[1];
    s.fail_node(victim);
    let r = s.run_job(&JobSpec::batch(AppKind::Grep, "d"));
    assert_eq!(r.map_tasks, 8);
    assert_eq!(r.tasks_per_node[victim.index()], 0);
}

#[test]
fn more_reducers_than_cluster_slots() {
    let mut s = sim(2); // 16 reduce slots total
    s.upload("d", GB);
    let r = s.run_job(&JobSpec::batch(AppKind::Sort, "d").with_reducers(100));
    assert_eq!(r.reduce_tasks, 100);
    assert!(r.elapsed > 0.0);
}

#[test]
fn one_reducer_funnels_everything() {
    let mut s = sim(8);
    s.upload("d", GB);
    let r = s.run_job(&JobSpec::batch(AppKind::Sort, "d").with_reducers(1));
    assert_eq!(r.reduce_tasks, 1);
    assert_eq!(r.shuffle_bytes, GB);
}

#[test]
fn iterative_with_one_iteration_equals_batch() {
    let mut a = sim(6);
    a.upload("d", 2 * GB);
    let batch = a.run_job(&JobSpec::batch(AppKind::KMeans, "d"));
    let mut b = sim(6);
    b.upload("d", 2 * GB);
    let single_iter = b.run_job(&JobSpec::iterative(AppKind::KMeans, "d", 1));
    // One iteration via the iterative driver = the plain batch path; the
    // only difference is the reuse policy (oCache on), which is idle on
    // round one.
    assert_eq!(batch.map_tasks, single_iter.map_tasks);
    assert!((batch.elapsed - single_iter.elapsed).abs() / batch.elapsed < 0.05);
}

#[test]
fn live_cluster_empty_and_tiny_inputs() {
    let c = LiveCluster::new(LiveConfig::small());
    c.upload("empty", "u", b"");
    let (out, stats) = c.run_job(&WordCount, "empty", "u", 2, ReusePolicy::default());
    assert!(out.is_empty());
    assert_eq!(stats.map_tasks, 0);

    c.upload("one-word", "u", b"solo");
    let (out, stats) = c.run_job(&WordCount, "one-word", "u", 2, ReusePolicy::default());
    assert_eq!(out, vec![("solo".to_string(), "1".to_string())]);
    assert_eq!(stats.map_tasks, 1);
}

#[test]
fn live_two_node_minimum() {
    let c = LiveCluster::new(LiveConfig::small().with_nodes(2).with_block_size(128));
    let data = "tiny cluster still works\n".repeat(40);
    c.upload("d", "u", data.as_bytes());
    let (out, _) = c.run_job(&WordCount, "d", "u", 1, ReusePolicy::default());
    assert!(!out.is_empty());
}

#[test]
fn zero_cache_delay_scheduler_combination() {
    let mut s = EclipseSim::new(
        EclipseConfig::paper_defaults(SchedulerKind::Delay(DelayConfig::default()))
            .with_nodes(4)
            .with_cache(0),
    );
    s.upload("d", GB);
    let a = s.run_job(&JobSpec::batch(AppKind::Grep, "d"));
    let b = s.run_job(&JobSpec::batch(AppKind::Grep, "d"));
    assert_eq!(a.cache_hits + b.cache_hits, 0, "nothing can be cached");
    assert_eq!(b.read_bytes.values().sum::<u64>(), GB);
}

#[test]
fn tiny_blocks_many_tasks() {
    let s = EclipseSim::new(
        EclipseConfig::paper_defaults(SchedulerKind::Laf(LafConfig::default())).with_nodes(4),
    );
    // Shrink blocks: 1 MB blocks over 64 MB = 64 tasks on 4 nodes.
    let mut cfg = EclipseConfig::paper_defaults(SchedulerKind::Laf(LafConfig::default()))
        .with_nodes(4);
    cfg.block_size = MB;
    let mut s2 = EclipseSim::new(cfg);
    s2.upload("d", 64 * MB);
    let r = s2.run_job(&JobSpec::batch(AppKind::Grep, "d"));
    assert_eq!(r.map_tasks, 64);
    let _ = s.now();
}

#[test]
fn trace_with_single_key_and_single_entry() {
    use eclipse_workloads::CostModel;
    let mut s = sim(4);
    let key = eclipse_util::HashKey::of_name("only");
    let r = s.run_trace(&[key], 8 * MB, &CostModel::eclipse(AppKind::Grep));
    assert_eq!(r.map_tasks, 1);
    let r2 = s.run_trace(&[], 8 * MB, &CostModel::eclipse(AppKind::Grep));
    assert_eq!(r2.map_tasks, 0);
    assert_eq!(r2.elapsed, 0.0);
}

#[test]
fn concurrent_batch_of_one_equals_solo() {
    let mut a = sim(6);
    a.upload("d", 2 * GB);
    let solo = a.run_job(&JobSpec::batch(AppKind::WordCount, "d"));
    let mut b = sim(6);
    b.upload("d", 2 * GB);
    let batch = b.run_concurrent(&[JobSpec::batch(AppKind::WordCount, "d")]);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].map_tasks, solo.map_tasks);
}

/// A request that cannot run is a typed error from every front door —
/// never a panic, and never a dead driver thread that leaves
/// `JobHandle::wait` blocked forever.
#[test]
fn invalid_requests_are_errors_not_panics_or_hangs() {
    use eclipse_core::{JobError, JobServer, JobServerConfig, PoolJobSpec, StreamSpec};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let c = Arc::new(LiveCluster::new(LiveConfig::small()));
    c.upload("in", "u", b"a b c\n");
    let invalid = |r: Result<_, JobError>| matches!(r, Err(JobError::InvalidRequest(_)));

    assert!(invalid(c.try_run_job(&WordCount, "in", "u", 0, ReusePolicy::default())));
    assert!(invalid(
        c.try_run_job_inputs_partitioned(&WordCount, &[], "u", 2, ReusePolicy::default())
            .map(|(parts, stats)| (parts.concat(), stats))
    ));

    let server = Arc::new(JobServer::new(c.clone(), JobServerConfig::default()));
    let spec = |inputs: Vec<String>, reducers| PoolJobSpec {
        app: Arc::new(WordCount),
        inputs,
        user: "u".to_string(),
        reducers,
        reuse: ReusePolicy::default(),
        weight: 1,
    };
    // Wait on a side thread so a hang fails the test instead of
    // stalling it.
    let (tx, rx) = mpsc::channel();
    let waiter = {
        let server = server.clone();
        std::thread::spawn(move || {
            for bad in [spec(Vec::new(), 2), spec(vec!["in".to_string()], 0)] {
                tx.send(server.submit(bad).wait()).expect("test is listening");
            }
            // The drivers survived both: a good job still completes.
            tx.send(server.submit(spec(vec!["in".to_string()], 2)).wait()).expect("listening");
        })
    };
    let next = || rx.recv_timeout(Duration::from_secs(20)).expect("job server hung");
    assert!(invalid(next()), "empty inputs");
    assert!(invalid(next()), "zero reducers");
    assert_eq!(next().expect("valid job").0.len(), 3);
    waiter.join().expect("waiter");

    let stream = server.open_stream(StreamSpec {
        app: Arc::new(WordCount),
        name: "s".to_string(),
        user: "u".to_string(),
        reducers: 0,
    });
    assert!(matches!(stream.commit_epoch(b"a b\n"), Err(JobError::InvalidRequest(_))));
}
