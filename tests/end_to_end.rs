//! End-to-end correctness: the live EclipseMR stack must produce the
//! same answers as straightforward reference implementations, for every
//! application, under both schedulers, and across node failures.

use eclipse_apps::{run_kmeans, run_logreg, run_pagerank, Grep, InvertedIndex, WordCount};
use eclipse_core::{LiveCluster, LiveConfig, ReusePolicy, SchedulerKind};
use eclipse_workloads::{labeled_points, points_to_csv, ClusterGen, TextGen, WebGraph};
use std::collections::HashMap;

fn text_cluster(kind: SchedulerKind, text: &str) -> LiveCluster {
    let c = LiveCluster::new(
        LiveConfig::small().with_block_size(1024).with_scheduler(kind),
    );
    c.upload("input", "it", text.as_bytes());
    c
}

/// Reference word count over the exact block decomposition the cluster
/// sees (block boundaries may split words, so count block-wise).
fn reference_wordcount(data: &[u8], block: usize) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for chunk in data.chunks(block) {
        for w in String::from_utf8_lossy(chunk).split_whitespace() {
            *counts.entry(w.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn wordcount_matches_reference_under_both_schedulers() {
    let text = TextGen::new(200, 1.0, 6).generate(3, 64 * 1024);
    let reference = reference_wordcount(text.as_bytes(), 1024);
    for kind in [
        SchedulerKind::Laf(Default::default()),
        SchedulerKind::Delay(Default::default()),
    ] {
        let c = text_cluster(kind, &text);
        let (out, stats) = c.run_job(&WordCount, "input", "it", 4, ReusePolicy::default());
        assert_eq!(out.len(), reference.len());
        for (w, count) in &out {
            assert_eq!(
                count.parse::<u64>().unwrap(),
                reference[w],
                "count mismatch for {w:?}"
            );
        }
        assert_eq!(stats.map_tasks as usize, text.len().div_ceil(1024));
    }
}

#[test]
fn grep_agrees_with_reference_blockwise() {
    let text = TextGen::new(100, 1.0, 4).generate(9, 32 * 1024);
    let c = text_cluster(SchedulerKind::Laf(Default::default()), &text);
    let (out, _) = c.run_job(&Grep::new("w00000"), "input", "it", 3, ReusePolicy::default());
    // Every returned line contains the pattern, and the match count per
    // block-wise reference agrees.
    let reference: usize = text
        .as_bytes()
        .chunks(1024)
        .map(|b| {
            String::from_utf8_lossy(b)
                .lines()
                .filter(|l| l.contains("w00000"))
                .count()
        })
        .sum();
    let total: u64 = out.iter().map(|(_, v)| v.parse::<u64>().unwrap()).sum();
    assert_eq!(total as usize, reference);
    assert!(out.iter().all(|(k, _)| k.contains("w00000")));
}

#[test]
fn inverted_index_round_trips() {
    let mut data = String::new();
    for d in 0..50 {
        data.push_str(&format!("doc{d:03}\tterm{} shared term{}\n", d % 7, (d + 1) % 7));
    }
    let c = LiveCluster::new(LiveConfig::small().with_block_size(256));
    c.upload("docs", "it", data.as_bytes());
    let (out, _) = c.run_job(&InvertedIndex, "docs", "it", 4, ReusePolicy::default());
    let shared = out.iter().find(|(k, _)| k == "shared").expect("'shared' indexed");
    // Lines are 28 bytes; 256-byte blocks may split ~1 in 9 lines, so
    // most doc ids must appear.
    let docs: Vec<&str> = shared.1.split(',').collect();
    assert!(docs.len() >= 45, "only {} docs indexed", docs.len());
    // Posting lists are sorted and unique.
    let mut sorted = docs.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted, docs);
}

#[test]
fn kmeans_pagerank_logreg_converge_end_to_end() {
    // k-means.
    let gen = ClusterGen::new(3, 0.4, 21);
    let pts = gen.generate(600, 4);
    let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
    c.upload("pts", "it", points_to_csv(&pts).as_bytes());
    let km = run_kmeans(&c, "pts", "it", gen.centers.clone(), 4, 4);
    assert!(km.movement.last().unwrap() < &0.5, "{:?}", km.movement);

    // page rank.
    let g = WebGraph::generate(150, 3, 6);
    let c2 = LiveCluster::new(LiveConfig::small().with_block_size(1024));
    c2.upload("edges", "it", g.to_edge_lines().as_bytes());
    let pr = run_pagerank(&c2, "edges", "it", 150, 4, 3);
    let mass: f64 = pr.ranks.values().sum();
    assert!((mass - 1.0).abs() < 0.05, "mass {mass}");

    // logistic regression.
    let examples = labeled_points(800, 0.0, 13);
    let c3 = LiveCluster::new(LiveConfig::small().with_block_size(8192));
    c3.upload("train", "it", eclipse_apps::examples_to_csv(&examples).as_bytes());
    let lr = run_logreg(&c3, "train", "it", 1.0, 8, 3);
    let acc = eclipse_apps::accuracy(&lr.weights, &examples);
    assert!(acc > 0.9, "accuracy {acc}");
}

#[test]
fn results_survive_cascading_failures() {
    let text = TextGen::new(150, 1.0, 6).generate(5, 48 * 1024);
    let c = LiveCluster::new(
        LiveConfig::small().with_nodes(10).with_block_size(2048),
    );
    c.upload("input", "it", text.as_bytes());
    let (baseline, _) = c.run_job(&WordCount, "input", "it", 4, ReusePolicy::default());
    for _ in 0..3 {
        let victim = c.ring().node_ids()[0];
        c.crash_node(victim).expect("survivors hold every replica");
        let (after, stats) = c.run_job(&WordCount, "input", "it", 4, ReusePolicy::default());
        assert_eq!(baseline, after, "output changed after failing {victim}");
        assert_eq!(stats.tasks_per_node[victim.index()], 0);
    }
    assert_eq!(c.ring().len(), 7);
}

#[test]
fn permission_checks_enforced_end_to_end() {
    let c = LiveCluster::new(LiveConfig::small());
    c.upload("secret", "alice", b"classified");
    // The metadata owner rejects the wrong user — surfaced as a panic
    // from the job driver (open fails).
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_job(&WordCount, "secret", "mallory", 1, ReusePolicy::default())
    }));
    assert!(result.is_err(), "mallory read alice's file");
}
