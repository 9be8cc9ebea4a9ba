//! Transport-identity matrix: the live executor over real loopback TCP
//! must be byte-identical to the deterministic in-memory backend.
//!
//! This is the same scheduler × ring-size × reducer × combiner grid as
//! `live_matrix.rs`, run twice per cell — once over [`MemTransport`]
//! (the oracle: every frame still passes through the real codec) and
//! once over [`TcpTransport`] on 127.0.0.1 with its connection pool,
//! correlation ids, timeouts, and retries in the loop. Any divergence
//! means the wire protocol, not the executor, changed the answer.
//!
//! The apps without a combiner (inverted index, grep, and an
//! order-sensitive app whose `reduce` joins values in arrival order)
//! ship every record as a sorted byte run; over both backends their
//! cells must equal a plain single-threaded in-order oracle.

use eclipse_apps::{Grep, InvertedIndex, WordCount};
use eclipse_core::{LiveCluster, LiveConfig, MapReduce, ReusePolicy, SchedulerKind, TransportKind};
use eclipse_integration_tests::{
    doc_corpus, grep_oracle, input_order_map, oracle, postings_map, postings_reduce, InputOrder,
    WordCountNoCombiner,
};

/// Deterministic corpus, smaller than live_matrix's (each TCP cell pays
/// real connection setup): heavy repetition plus per-line unique tokens.
fn corpus() -> String {
    let vocab = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"];
    let mut out = String::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    for line in 0..150 {
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

fn run(
    app: &dyn MapReduce,
    transport: TransportKind,
    sched: SchedulerKind,
    nodes: usize,
    reducers: usize,
    data: &str,
) -> String {
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(nodes)
            .with_block_size(512)
            .with_scheduler(sched)
            .with_transport(transport),
    );
    c.upload("input", "netmatrix", data.as_bytes());
    let (out, stats) = c.run_job(app, "input", "netmatrix", reducers, ReusePolicy::default());
    // The transport plane must actually carry the job, whatever backend.
    assert!(stats.rpcs >= stats.map_tasks, "placement alone implies one RPC per map task");
    assert!(stats.bytes_sent > 0, "no frames crossed the transport");
    assert_eq!(stats.timeouts, 0, "clean loopback run must not time out");
    render(&out)
}

#[test]
fn tcp_loopback_identical_to_memory_across_grid() {
    let data = corpus();
    let reference = run(
        &WordCount,
        TransportKind::Memory,
        SchedulerKind::Laf(Default::default()),
        1,
        2,
        &data,
    );
    assert!(!reference.is_empty());
    assert!(reference.contains("tok0000\t1"));
    assert!(reference.contains("tok0149\t1"));

    for sched in [
        SchedulerKind::Laf(Default::default()),
        SchedulerKind::Delay(Default::default()),
    ] {
        for nodes in [1usize, 3, 8] {
            for reducers in [2usize, 5] {
                for transport in [TransportKind::Memory, TransportKind::Tcp] {
                    let with =
                        run(&WordCount, transport, sched.clone(), nodes, reducers, &data);
                    assert_eq!(
                        with, reference,
                        "combiner on, {transport:?}, {sched:?}, {nodes} nodes, {reducers} reducers"
                    );
                }
                // The combiner-off cell ships the most shuffle records;
                // one TCP run per grid point keeps the suite fast.
                let without = run(
                    &WordCountNoCombiner,
                    TransportKind::Tcp,
                    sched.clone(),
                    nodes,
                    reducers,
                    &data,
                );
                assert_eq!(
                    without, reference,
                    "combiner off, Tcp, {sched:?}, {nodes} nodes, {reducers} reducers"
                );
            }
        }
    }
}

/// Inverted index, grep and the order-sensitive app over memory and
/// loopback TCP: every cell equals the in-order oracle.
#[test]
fn non_combiner_apps_match_the_oracle_over_both_transports() {
    let docs = doc_corpus(150);
    let grep_data = doc_corpus(60).repeat(2);
    let postings = render(&oracle(docs.as_bytes(), 512, postings_map, postings_reduce));
    let greps = render(&grep_oracle(grep_data.as_bytes(), 512, "fox"));
    let ordered = render(&oracle(docs.as_bytes(), 512, input_order_map, |vs| vs.join(",")));
    for sched in [
        SchedulerKind::Laf(Default::default()),
        SchedulerKind::Delay(Default::default()),
    ] {
        for nodes in [1usize, 3, 8] {
            for reducers in [2usize, 5] {
                for transport in [TransportKind::Memory, TransportKind::Tcp] {
                    let cell = format!("{transport:?}, {sched:?}, {nodes} nodes, {reducers} reducers");
                    let got = run(&InvertedIndex, transport, sched.clone(), nodes, reducers, &docs);
                    assert_eq!(got, postings, "inverted index, {cell}");
                    let grep = Grep::new("fox");
                    let got = run(&grep, transport, sched.clone(), nodes, reducers, &grep_data);
                    assert_eq!(got, greps, "grep, {cell}");
                    let got = run(&InputOrder, transport, sched.clone(), nodes, reducers, &docs);
                    assert_eq!(got, ordered, "input order, {cell}");
                }
            }
        }
    }
}

/// The headline acceptance cell on its own, so a grid failure elsewhere
/// doesn't mask it: 8 nodes, loopback TCP, both schedulers.
#[test]
fn eight_node_tcp_wordcount_matches_memory() {
    let data = corpus();
    for sched in [
        SchedulerKind::Laf(Default::default()),
        SchedulerKind::Delay(Default::default()),
    ] {
        let mem = run(&WordCount, TransportKind::Memory, sched.clone(), 8, 3, &data);
        let tcp = run(&WordCount, TransportKind::Tcp, sched.clone(), 8, 3, &data);
        assert_eq!(tcp, mem, "{sched:?}: TCP diverged from the in-memory oracle");
    }
}

/// Warm reruns stay identical over TCP too — cache RPCs (CacheGet /
/// CachePut) must not corrupt payloads in flight.
#[test]
fn warm_rerun_identical_over_tcp() {
    let data = corpus();
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(4)
            .with_block_size(512)
            .with_transport(TransportKind::Tcp),
    );
    c.upload("input", "netmatrix", data.as_bytes());
    let (cold, s1) = c.run_job(&WordCount, "input", "netmatrix", 3, ReusePolicy::default());
    let (warm, s2) = c.run_job(&WordCount, "input", "netmatrix", 3, ReusePolicy::default());
    assert_eq!(render(&cold), render(&warm));
    assert!(s2.cache_hits > s1.cache_hits, "second run should hit the input cache");
}
