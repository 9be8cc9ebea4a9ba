//! Output-identity matrix for the live executor.
//!
//! The PR 1 data-plane rewrite (sharded cache locks, work-stealing map
//! workers, allocation-light shuffle with a fast partition hash, capped
//! reducer threads) must be invisible in the job output: for a fixed
//! corpus and block size, `run_job` returns byte-identical results no
//! matter which scheduler places the tasks, how many virtual nodes the
//! ring has, how many reduce partitions exist, or whether the app
//! declares a combiner.

use eclipse_apps::WordCount;
use eclipse_core::{LiveCluster, LiveConfig, MapReduce, ReusePolicy, SchedulerKind};
use eclipse_integration_tests::WordCountNoCombiner;

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

fn run(app: &dyn MapReduce, sched: SchedulerKind, nodes: usize, reducers: usize, data: &str) -> String {
    let c = LiveCluster::new(
        LiveConfig::small().with_nodes(nodes).with_block_size(512).with_scheduler(sched),
    );
    c.upload("input", "matrix", data.as_bytes());
    let (out, stats) = c.run_job(app, "input", "matrix", reducers, ReusePolicy::default());
    // Work stealing must never change the per-assignment accounting.
    let assigned: u64 = stats.tasks_per_node.iter().sum();
    assert_eq!(assigned, stats.map_tasks, "accounting is by assigned node");
    render(&out)
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
