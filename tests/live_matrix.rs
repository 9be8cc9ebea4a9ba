//! Output-identity matrix for the live executor.
//!
//! The PR 1 data-plane rewrite (sharded cache locks, work-stealing map
//! workers, allocation-light shuffle with a fast partition hash, capped
//! reducer threads) must be invisible in the job output: for a fixed
//! corpus and block size, `run_job` returns byte-identical results no
//! matter which scheduler places the tasks, how many virtual nodes the
//! ring has, how many reduce partitions exist, or whether the app
//! declares a combiner — ported to the borrowed emit and a binary
//! accumulator, or reaching them through the trait's default adapters.
//!
//! The apps without a combiner (inverted index, grep) ride the sorted
//! record runs from the spill arena to `reduce_into`; their cells must
//! equal a plain single-threaded oracle, and an order-sensitive app
//! pins the guarantee that a key's values reach `reduce` in input
//! order. Those three apps also run through a `JobServer`, whose driver
//! folds every partition on its own thread.

use eclipse_apps::{Grep, InvertedIndex, WordCount};
use eclipse_core::{
    JobServer, JobServerConfig, LiveCluster, LiveConfig, LiveStats, MapReduce, PoolJobSpec,
    ReusePolicy, SchedulerKind,
};
use eclipse_integration_tests::{
    doc_corpus, grep_oracle, input_order_map, oracle, postings_map, postings_reduce, InputOrder,
    WordCountNoCombiner,
};
use std::sync::Arc;

/// Word count whose combiner reaches the executor only through the
/// `MapReduce` default adapters: it overrides neither `map_into` nor
/// the `combine_*` accumulator methods, so every record is emitted
/// owned, every accumulator is a value's text and every fold goes
/// through `combine` on a pair.
struct WordCountAdapted;

impl MapReduce for WordCountAdapted {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        for w in String::from_utf8_lossy(block).split_whitespace() {
            emit(w.to_string(), "1".to_string());
        }
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        let total: u64 = values.iter().map(|v| v.parse::<u64>().unwrap_or(1)).sum();
        emit(key.to_string(), total.to_string());
    }
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        self.reduce(key, values, emit);
    }
    fn has_combiner(&self) -> bool {
        true
    }
}

/// Deterministic skewed corpus: a small vocabulary with heavy repetition
/// (so combining matters) plus a unique token per line (so every
/// partition sees singletons too).
fn corpus() -> String {
    let vocab = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"];
    let mut out = String::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    for line in 0..400 {
        for _ in 0..6 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let w = vocab[(state >> 59) as usize % vocab.len()];
            out.push_str(w);
            out.push(' ');
        }
        out.push_str(&format!("tok{line:04}\n"));
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

fn cluster(sched: SchedulerKind, nodes: usize, data: &str) -> LiveCluster {
    let c = LiveCluster::new(
        LiveConfig::small().with_nodes(nodes).with_block_size(512).with_scheduler(sched),
    );
    c.upload("input", "matrix", data.as_bytes());
    c
}

fn rendered((out, stats): (Vec<(String, String)>, LiveStats)) -> String {
    // Work stealing must never change the per-assignment accounting.
    let assigned: u64 = stats.tasks_per_node.iter().sum();
    assert_eq!(assigned, stats.map_tasks, "accounting is by assigned node");
    render(&out)
}

fn run(app: &dyn MapReduce, sched: SchedulerKind, nodes: usize, reducers: usize, data: &str) -> String {
    let c = cluster(sched, nodes, data);
    rendered(c.run_job(app, "input", "matrix", reducers, ReusePolicy::default()))
}

/// [`run`] as a job submitted to a `JobServer` on the same cluster shape.
fn serve(
    app: Arc<dyn MapReduce>,
    sched: SchedulerKind,
    nodes: usize,
    reducers: usize,
    data: &str,
) -> String {
    let server = JobServer::new(Arc::new(cluster(sched, nodes, data)), JobServerConfig::default());
    let spec = PoolJobSpec {
        app,
        inputs: vec!["input".to_string()],
        user: "matrix".to_string(),
        reducers,
        reuse: ReusePolicy::default(),
        weight: 1,
    };
    rendered(server.submit(spec).wait().expect("server job"))
}

#[test]
fn output_identical_across_schedulers_nodes_and_combiner() {
    let data = corpus();
    let reference = run(
        &WordCount,
        SchedulerKind::Laf(Default::default()),
        1,
        2,
        &data,
    );
    assert!(!reference.is_empty());
    // Sanity: the unique tokens all survived into the reference output.
    assert!(reference.contains("tok0000\t1"));
    assert!(reference.contains("tok0399\t1"));

    for sched in [
        SchedulerKind::Laf(Default::default()),
        SchedulerKind::Delay(Default::default()),
    ] {
        for nodes in [1usize, 3, 8] {
            for reducers in [2usize, 5] {
                let with = run(&WordCount, sched.clone(), nodes, reducers, &data);
                assert_eq!(
                    with, reference,
                    "combiner on, {sched:?}, {nodes} nodes, {reducers} reducers"
                );
                let without = run(&WordCountNoCombiner, sched.clone(), nodes, reducers, &data);
                assert_eq!(
                    without, reference,
                    "combiner off, {sched:?}, {nodes} nodes, {reducers} reducers"
                );
                let adapted = run(&WordCountAdapted, sched.clone(), nodes, reducers, &data);
                assert_eq!(
                    adapted, reference,
                    "adapter-only combiner, {sched:?}, {nodes} nodes, {reducers} reducers"
                );
            }
        }
    }
}

#[test]
fn warm_rerun_is_identical() {
    // Cache hits on the second run must not leak into the output.
    let data = corpus();
    let c = LiveCluster::new(LiveConfig::small().with_block_size(512));
    c.upload("input", "matrix", data.as_bytes());
    let (cold, s1) = c.run_job(&WordCount, "input", "matrix", 3, ReusePolicy::default());
    let (warm, s2) = c.run_job(&WordCount, "input", "matrix", 3, ReusePolicy::default());
    assert_eq!(render(&cold), render(&warm));
    assert!(s2.cache_hits > s1.cache_hits, "second run should hit the input cache");
}

/// Inverted index, grep and the order-sensitive app: every cell equals
/// the in-order oracle, byte for byte.
#[test]
fn non_combiner_apps_match_the_in_order_oracle() {
    let docs = doc_corpus(400);
    let grep_data = doc_corpus(150).repeat(2);
    let postings = render(&oracle(docs.as_bytes(), 512, postings_map, postings_reduce));
    let greps = render(&grep_oracle(grep_data.as_bytes(), 512, "fox"));
    let ordered = render(&oracle(docs.as_bytes(), 512, input_order_map, |vs| vs.join(",")));
    assert!(postings.contains("w0399\td0399\n"));
    assert!(greps.lines().any(|l| l.ends_with("\t2")), "duplicated lines count twice");
    for sched in [
        SchedulerKind::Laf(Default::default()),
        SchedulerKind::Delay(Default::default()),
    ] {
        for nodes in [1usize, 3, 8] {
            for reducers in [2usize, 5] {
                let cell = format!("{sched:?}, {nodes} nodes, {reducers} reducers");
                let got = run(&InvertedIndex, sched.clone(), nodes, reducers, &docs);
                assert_eq!(got, postings, "inverted index, {cell}");
                let got = run(&Grep::new("fox"), sched.clone(), nodes, reducers, &grep_data);
                assert_eq!(got, greps, "grep, {cell}");
                let got = run(&InputOrder, sched.clone(), nodes, reducers, &docs);
                assert_eq!(got, ordered, "input order, {cell}");
                let got = serve(Arc::new(InvertedIndex), sched.clone(), nodes, reducers, &docs);
                assert_eq!(got, postings, "inverted index, server, {cell}");
                let grep = Arc::new(Grep::new("fox"));
                let got = serve(grep, sched.clone(), nodes, reducers, &grep_data);
                assert_eq!(got, greps, "grep, server, {cell}");
                let got = serve(Arc::new(InputOrder), sched.clone(), nodes, reducers, &docs);
                assert_eq!(got, ordered, "input order, server, {cell}");
            }
        }
    }
}

/// Many spills per block: a small shuffle batch makes every task ship
/// several runs per partition, so the merge's tie order across one
/// task's spills (by sequence number) is exercised, not just across
/// tasks.
#[test]
fn input_order_holds_across_many_spills_per_task() {
    let docs = doc_corpus(400);
    let ordered = render(&oracle(docs.as_bytes(), 4096, input_order_map, |vs| vs.join(",")));
    for nodes in [1usize, 4] {
        let c = LiveCluster::new(
            LiveConfig::small()
                .with_nodes(nodes)
                .with_block_size(4096)
                .with_shuffle_batch_bytes(64),
        );
        c.upload("input", "matrix", docs.as_bytes());
        let (out, stats) = c.run_job(&InputOrder, "input", "matrix", 3, ReusePolicy::default());
        assert!(stats.spills > 3 * stats.map_tasks, "only {} spills", stats.spills);
        assert_eq!(render(&out), ordered, "{nodes} nodes");
    }
}
