//! SQL-ish workloads over EclipseMR: a distributed TeraSort (sampled
//! range partitioning — ORDER BY) followed by a reduce-side equi-join
//! (JOIN), with the second join riding the iCache the first one warmed —
//! the "sub-expression commonality across multiple queries" story from
//! the paper's introduction.
//!
//! ```text
//! cargo run -p eclipse-examples --bin sql_like
//! ```

use eclipse_apps::{run_equijoin, run_terasort, EquiJoin};
use eclipse_core::net::merge_sorted_pairs;
use eclipse_core::{LiveCluster, LiveConfig, ReusePolicy};

fn main() {
    let cluster = LiveCluster::new(LiveConfig::small().with_block_size(2048));

    // -- ORDER BY: sort 3 000 random order ids -------------------------
    let mut orders = String::new();
    for i in 0..3000u64 {
        orders.push_str(&format!("{:08}\n", (i * 48271) % 10_000_000));
    }
    cluster.upload("order-ids", "analyst", orders.as_bytes());
    let sorted = run_terasort(&cluster, "order-ids", "analyst", 6, 10);
    println!(
        "ORDER BY: {} records range-partitioned into {:?} — globally sorted: {}",
        sorted.records.len(),
        sorted.partition_sizes,
        sorted.records.windows(2).all(|w| w[0] <= w[1]),
    );

    // -- JOIN: customers ⋈ orders ---------------------------------------
    let customers: String =
        (0..200).map(|c| format!("c{c:04}\tCustomer {c}\n")).collect();
    let fact: String = (0..1200)
        .map(|o| format!("c{:04}\torder-{o}\n", o % 250)) // 50 dangling keys
        .collect();
    cluster.upload("customers", "analyst", customers.as_bytes());
    cluster.upload("orders", "analyst", fact.as_bytes());

    let joined = run_equijoin(&cluster, "customers", "orders", "analyst", 4);
    println!(
        "\nJOIN customers⋈orders: {} matched rows (orders for unknown customers dropped)",
        joined.len()
    );
    for (k, row) in joined.iter().take(3) {
        println!("  {k}: {row}");
    }

    // -- Same join again: the tables are hot in iCache now --------------
    let (parts, stats) = cluster
        .try_run_job_inputs_partitioned(
            &EquiJoin,
            &["customers", "orders"],
            "analyst",
            4,
            ReusePolicy::default(),
        )
        .expect("join job failed");
    let again = merge_sorted_pairs(parts);
    assert_eq!(again, joined);
    println!(
        "\nrepeat JOIN: identical result, {} of {} block reads served from iCache",
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses
    );
}
