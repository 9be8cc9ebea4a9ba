//! Fault tolerance end-to-end: kill a live node mid-workload, let the
//! DHT file system re-replicate from the predecessor/successor copies,
//! and show that results are bit-identical afterwards (paper §II-A).
//!
//! ```text
//! cargo run -p eclipse-examples --bin fault_tolerance
//! ```

use eclipse_apps::{Grep, WordCount};
use eclipse_core::{LiveCluster, LiveConfig, ReusePolicy};
use eclipse_workloads::TextGen;

fn main() {
    let cluster = LiveCluster::new(LiveConfig::small().with_nodes(10));
    let text = TextGen::new(300, 1.0, 8).generate(5, 128 * 1024);
    cluster.upload("logs.txt", "ops", text.as_bytes());

    let (before, _) =
        cluster.run_job(&WordCount, "logs.txt", "ops", 4, ReusePolicy::default());
    println!("baseline: {} distinct words", before.len());

    // Kill three nodes, one at a time. Each failure triggers take-over:
    // surviving replicas re-copy the lost blocks to restore the
    // replication factor, and the schedulers re-cut their ranges.
    for round in 0..3 {
        let victim = cluster.ring().node_ids()[1];
        let report = cluster.crash_node(victim).expect("replication factor holds");
        println!(
            "\nround {}: killed {}, re-replicated {} blocks, ring now has {} nodes",
            round + 1,
            victim,
            report.recovered_blocks,
            cluster.ring().len()
        );

        let (after, stats) =
            cluster.run_job(&WordCount, "logs.txt", "ops", 4, ReusePolicy::default());
        assert_eq!(before, after, "results must survive the failure");
        assert_eq!(stats.tasks_per_node[victim.index()], 0);
        println!(
            "  word count identical; {} map tasks ran on {} survivors",
            stats.map_tasks,
            cluster.ring().len()
        );
    }

    // A different application over the degraded cluster still works.
    let (hits, _) = cluster.run_job(
        &Grep::new("w0001"),
        "logs.txt",
        "ops",
        2,
        ReusePolicy::default(),
    );
    println!("\ngrep over the degraded cluster: {} matching lines", hits.len());
    println!("survived 3 of 10 nodes failing — replication factor 2 held.");
}
