//! Edge cases and degenerate configurations: tiny clusters, empty
//! inputs, single blocks, extreme reducer counts, and zero-capacity
//! caches must all behave sensibly rather than panic or hang.

use eclipse_apps::WordCount;
use eclipse_core::net::merge_sorted_pairs;
use eclipse_core::{
    EclipseConfig, EclipseSim, JobSpec, LiveCluster, LiveConfig, MapReduce, ReusePolicy,
    SchedulerKind, TransportKind,
};
use std::borrow::Cow;
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

/// A zero spill threshold is an invalid request, caught before the run
/// registers: the one-shot job returns the error and leaves no run
/// behind, and a server job's handle is fulfilled with it while the
/// server's driver lives on.
#[test]
fn zero_shuffle_batch_bytes_is_invalid_request() {
    use eclipse_core::{JobError, JobServer, JobServerConfig, PoolJobSpec, StreamSpec};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let c = Arc::new(LiveCluster::new(LiveConfig::small().with_shuffle_batch_bytes(0)));
    c.upload("in", "u", b"a b c\n");
    fn invalid<T>(r: Result<T, JobError>) -> bool {
        matches!(r, Err(JobError::InvalidRequest(_)))
    }

    assert!(invalid(c.try_run_job(&WordCount, "in", "u", 2, ReusePolicy::default())));
    assert_eq!(c.active_jobs(), 0, "the refused one-shot run is registered");

    let server =
        JobServer::new(c.clone(), JobServerConfig { concurrency: 1, ..JobServerConfig::default() });
    let spec = || PoolJobSpec {
        app: Arc::new(WordCount),
        inputs: vec!["in".to_string()],
        user: "u".to_string(),
        reducers: 2,
        reuse: ReusePolicy::default(),
        weight: 1,
    };
    // Twice through the server's only driver: the first refusal must
    // leave it alive to refuse the second.
    for round in 0..2 {
        let handle = server.submit(spec());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.wait());
        });
        let r = rx.recv_timeout(Duration::from_secs(20)).expect("job server hung");
        assert!(invalid(r), "server job, round {round}");
        assert_eq!(c.active_jobs(), 0, "the refused server run is registered");
    }

    let stream = server.open_stream(StreamSpec {
        app: Arc::new(WordCount),
        name: "s".to_string(),
        user: "u".to_string(),
        reducers: 2,
    });
    assert!(invalid(stream.commit_epoch(b"a b\n")), "epoch wave");
}

/// [`WordCount`] whose `reduce` panics on the key `"b"`.
struct PanicOnB;

impl MapReduce for PanicOnB {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        WordCount.map(block, emit);
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        assert_ne!(key, "b", "reduce refuses this key");
        WordCount.reduce(key, values, emit);
    }
}

/// A panicking `reduce` is a typed error from both thread suppliers:
/// the run leaves the registry, a server job's handle is fulfilled
/// instead of blocking forever, and the server keeps its drivers. One
/// to four reducers move the panicking partition between the fold lane
/// on the calling thread and a spawned one.
#[test]
fn reduce_panic_is_an_error_not_a_hang_or_a_leak() {
    use eclipse_core::{JobError, JobHandle, JobServer, JobServerConfig, PoolJobSpec};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let c = Arc::new(LiveCluster::new(LiveConfig::small()));
    c.upload("in", "u", b"a b c\n");
    let failed = |r: Result<_, JobError>| matches!(r, Err(JobError::ReduceFailed { .. }));

    for reducers in 1..=4 {
        let r = c.try_run_job(&PanicOnB, "in", "u", reducers, ReusePolicy::default());
        assert!(failed(r), "one-shot job, {reducers} reducers");
        assert_eq!(c.active_jobs(), 0, "the failed run is still registered ({reducers} reducers)");
    }

    let server =
        JobServer::new(c.clone(), JobServerConfig { concurrency: 1, ..JobServerConfig::default() });
    let spec = |app: Arc<dyn MapReduce>, reducers| PoolJobSpec {
        app,
        inputs: vec!["in".to_string()],
        user: "u".to_string(),
        reducers,
        reuse: ReusePolicy::default(),
        weight: 1,
    };
    // Wait on a side thread so a hang fails the test instead of
    // stalling it.
    let wait = |h: JobHandle| {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(h.wait());
        });
        rx.recv_timeout(Duration::from_secs(20)).expect("job server hung")
    };
    for reducers in 1..=4 {
        let r = wait(server.submit(spec(Arc::new(PanicOnB), reducers)));
        assert!(failed(r), "a server job's reduce panic must fail the job ({reducers} reducers)");
        assert_eq!(c.active_jobs(), 0, "a server run leaked ({reducers} reducers)");
        // The server's only driver survived: a good job still completes.
        let good = wait(server.submit(spec(Arc::new(WordCount), reducers)));
        assert_eq!(good.expect("valid job").0.len(), 3);
    }
}

/// A panicking `reduce` inside an epoch fold is a typed error that
/// leaves the stream intact: still readable at its previous epoch, able
/// to commit again, and closable (and droppable) without a panic.
#[test]
fn epoch_reduce_panic_keeps_the_stream_usable() {
    use eclipse_core::{JobError, JobServer, JobServerConfig, StreamSpec};
    use std::sync::Arc;

    let pairs = |snap: &eclipse_core::EpochSnapshot| {
        merge_sorted_pairs(snap.iter().map(|p| p.iter().cloned().collect()))
    };
    let counts = |kv: &[(&str, &str)]| -> Vec<(String, String)> {
        kv.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    };
    let c = Arc::new(LiveCluster::new(LiveConfig::small()));
    let server = JobServer::new(c.clone(), JobServerConfig::default());
    let stream = server.open_stream(StreamSpec {
        app: Arc::new(PanicOnB),
        name: "panicky".to_string(),
        user: "u".to_string(),
        reducers: 2,
    });
    stream.commit_epoch(b"a c\n").expect("epoch 1");
    assert!(matches!(stream.commit_epoch(b"a b\n"), Err(JobError::ReduceFailed { .. })));
    assert_eq!(stream.published(), 1, "a failed fold must not publish");
    let snap = stream.snapshot(1).expect("epoch 1 still readable");
    assert_eq!(pairs(&snap), counts(&[("a", "1"), ("c", "1")]));
    // The failed delta left no trace in the state: the retry folds
    // onto epoch 1, not onto a half-applied epoch 2.
    let rep = stream.commit_epoch(b"a c c\n").expect("the stream commits again");
    assert_eq!(rep.epoch, 2);
    assert_eq!(pairs(&rep.snapshot), counts(&[("a", "2"), ("c", "3")]));
    stream.close();
    drop(stream);
    assert_eq!(c.active_jobs(), 0, "the failed wave is still registered");
}

/// [`WordCount`] with a custom partitioner that answers `reducers`,
/// one past the last partition; counts its `map` calls.
struct PartitionPastEnd {
    maps: std::sync::atomic::AtomicU64,
}

impl MapReduce for PartitionPastEnd {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        self.maps.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        WordCount.map(block, emit);
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.reduce(key, values, emit);
    }
    fn partition(&self, _key: &str, partitions: usize) -> Option<usize> {
        Some(partitions)
    }
}

/// A partition index out of range is the application's fault, not the
/// attempt's: the job fails at once as an invalid request, without
/// burning its retry budget, in a batch job and in an epoch wave alike.
#[test]
fn out_of_range_partition_is_invalid_request() {
    use eclipse_core::{JobError, JobServer, JobServerConfig, StreamSpec};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    let c = Arc::new(LiveCluster::new(LiveConfig::small()));
    c.upload("in", "u", b"a b c\n");
    let app = Arc::new(PartitionPastEnd { maps: Default::default() });
    let got = c.try_run_job(app.as_ref(), "in", "u", 2, ReusePolicy::default());
    assert!(matches!(got, Err(JobError::InvalidRequest(_))), "{:?}", got.map(|(o, _)| o));
    assert_eq!(app.maps.load(Ordering::Relaxed), 1, "the one task was retried");
    assert_eq!(c.active_jobs(), 0, "the failed run is still registered");

    let server = JobServer::new(c.clone(), JobServerConfig::default());
    let stream = server.open_stream(StreamSpec {
        app: app.clone(),
        name: "past-end".to_string(),
        user: "u".to_string(),
        reducers: 2,
    });
    assert!(matches!(stream.commit_epoch(b"a b\n"), Err(JobError::InvalidRequest(_))));
    assert_eq!(stream.published(), 0);
    stream.close();
}

/// A combiner that breaks the contract by emitting two values per key.
struct CombineTwice;

impl MapReduce for CombineTwice {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        WordCount.map(block, emit);
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.reduce(key, values, emit);
    }
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.combine(key, values, emit);
        emit(key.to_string(), "0".to_string());
    }
    fn has_combiner(&self) -> bool {
        true
    }
}

/// A combiner emitting two values for a key fails the job with an
/// error; it never returns output, right or wrong.
#[test]
fn combine_emitting_two_values_fails_the_job() {
    let c = LiveCluster::new(LiveConfig::small());
    c.upload("in", "u", b"a b a\n");
    let got = c.try_run_job(&CombineTwice, "in", "u", 2, ReusePolicy::default());
    assert!(got.is_err(), "returned output {:?}", got.map(|(o, _)| o));
    assert_eq!(c.active_jobs(), 0, "the failed run is still registered");
}

/// A word count whose `combine` panics unless every value after the
/// first is a mapped `"1"`: the map side never trips it, but a reduce
/// partition folding two spills' partial counts does.
struct CombinePanicsOnPartials;

impl MapReduce for CombinePanicsOnPartials {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        WordCount.map(block, emit);
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.reduce(key, values, emit);
    }
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        assert!(values[1..].iter().all(|v| v == "1"), "combine refuses partial counts");
        WordCount.combine(key, values, emit);
    }
    fn has_combiner(&self) -> bool {
        true
    }
}

/// A `combine` that panics only on reduce-side input — a partition
/// folding several spills' partial counts — fails the job with
/// [`JobError::ReduceFailed`] and leaves no run registered, one-shot
/// and through the job server alike.
#[test]
fn reduce_side_combine_panic_is_a_reduce_failure() {
    use eclipse_core::{JobError, JobServer, JobServerConfig, PoolJobSpec};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    // Four 4-byte blocks, each mapping "a" twice: the map side folds
    // "1" into "1", and "a"'s partition receives four runs of "2".
    let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(4)));
    c.upload("in", "u", "a a\n".repeat(4).as_bytes());
    let failed = |r: Result<_, JobError>| matches!(r, Err(JobError::ReduceFailed { .. }));
    let app = Arc::new(CombinePanicsOnPartials);
    for reducers in [1, 3] {
        let r = c.try_run_job(app.as_ref(), "in", "u", reducers, ReusePolicy::default());
        assert!(failed(r), "one-shot job, {reducers} reducers");
        assert_eq!(c.active_jobs(), 0, "the failed run is still registered ({reducers} reducers)");
    }
    let server = JobServer::new(c.clone(), JobServerConfig::default());
    for reducers in [1, 3] {
        let handle = server.submit(PoolJobSpec {
            app: app.clone(),
            inputs: vec!["in".to_string()],
            user: "u".to_string(),
            reducers,
            reuse: ReusePolicy::default(),
            weight: 1,
        });
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.wait());
        });
        let r = rx.recv_timeout(Duration::from_secs(20)).expect("job server hung");
        assert!(failed(r), "server job, {reducers} reducers");
        assert_eq!(c.active_jobs(), 0, "a server run leaked ({reducers} reducers)");
    }
}

/// `key<TAB>value` lines, emitted as borrowed slices; a line without a
/// tab emits nothing. `reduce` joins a key's values with `|` in arrival
/// order, so an empty value still shows.
struct TabPairs;

impl MapReduce for TabPairs {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        self.map_into(0, block, &mut |k, v| emit(k.into_owned(), v.into_owned()));
    }
    fn map_into(&self, _: usize, block: &[u8], emit: &mut dyn FnMut(Cow<'_, str>, Cow<'_, str>)) {
        for line in String::from_utf8_lossy(block).lines() {
            if let Some((k, v)) = line.split_once('\t') {
                emit(Cow::Borrowed(k), Cow::Borrowed(v));
            }
        }
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        emit(key.to_string(), values.join("|"));
    }
}

/// The record shapes front coding and the run merge have edges at —
/// empty keys, empty values, a key that is a strict prefix of another,
/// neighbouring keys whose shared byte prefix ends inside a code point
/// (`é` = c3 a9, `ê` = c3 aa), and a block that emits nothing — give
/// the same bytes over memory and TCP, equal to the hand-written
/// expectation.
#[test]
fn sorted_run_edge_records_identical_over_memory_and_tcp() {
    const BLOCK: usize = 64;
    let blocks: [&[&str]; 4] = [
        &["\tempty-key", "a\t", "ab\tx", "a\ty"],
        &["é\t1", "ê\t2", "éé\t3", "\t"],
        &[],
        &["ab\tz", "abc\t", "a\tw"],
    ];
    let mut data = String::new();
    for lines in blocks {
        let mut block: String = lines.iter().map(|l| format!("{l}\n")).collect();
        // Pad with a tab-free line so every block is exactly BLOCK bytes.
        block.push_str(&"#".repeat(BLOCK - block.len() - 1));
        block.push('\n');
        assert_eq!(block.len(), BLOCK);
        data.push_str(&block);
    }
    let want: Vec<(String, String)> = [
        ("", "empty-key|"),
        ("a", "|y|w"),
        ("ab", "x|z"),
        ("abc", ""),
        ("é", "1"),
        ("éé", "3"),
        ("ê", "2"),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    for transport in [TransportKind::Memory, TransportKind::Tcp] {
        for nodes in [1usize, 3] {
            for reducers in [1usize, 4] {
                let c = LiveCluster::new(
                    LiveConfig::small()
                        .with_nodes(nodes)
                        .with_block_size(BLOCK as u64)
                        .with_transport(transport),
                );
                c.upload("edges", "u", data.as_bytes());
                let (out, stats) = c.run_job(&TabPairs, "edges", "u", reducers, ReusePolicy::default());
                assert_eq!(stats.map_tasks, 4);
                assert_eq!(out, want, "{transport:?}, {nodes} nodes, {reducers} reducers");
            }
        }
    }
}
