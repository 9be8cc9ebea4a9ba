//! Randomized end-to-end properties of the live executor: for arbitrary
//! data, the distributed results must equal single-machine references.

use eclipse_apps::{run_equijoin, run_terasort, EquiJoin, WordCount};
use eclipse_core::{FaultPlan, LiveCluster, LiveConfig, ReusePolicy};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Word count over several files as one multi-input job, flattened to
/// sorted rows.
fn count_words(c: &LiveCluster, inputs: &[&str]) -> Vec<(String, String)> {
    let (parts, _) = c
        .try_run_job_inputs_partitioned(&WordCount, inputs, "p", 2, ReusePolicy::default())
        .expect("multi-input job failed");
    let mut rows: Vec<(String, String)> = parts.into_iter().flatten().collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Distributed word count equals the block-wise reference count for
    /// arbitrary word streams.
    #[test]
    fn wordcount_equals_reference(
        words in prop::collection::vec("[a-d]{1,3}", 10..300),
        block_pow in 7u32..10,
    ) {
        let data = words.join(" ") + "\n";
        let block = 1usize << block_pow;
        let c = LiveCluster::new(LiveConfig::small().with_block_size(block as u64));
        c.upload("in", "p", data.as_bytes());
        let (out, _) = c.run_job(&WordCount, "in", "p", 3, ReusePolicy::default());
        let mut reference: HashMap<String, u64> = HashMap::new();
        for chunk in data.as_bytes().chunks(block) {
            for w in String::from_utf8_lossy(chunk).split_whitespace() {
                *reference.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(out.len(), reference.len());
        for (w, count) in &out {
            prop_assert_eq!(count.parse::<u64>().unwrap(), reference[w]);
        }
    }

    /// TeraSort produces globally sorted output for arbitrary records.
    #[test]
    fn terasort_sorts_anything(
        nums in prop::collection::vec(0u32..1_000_000, 20..400),
        reducers in 1usize..6,
    ) {
        let data: String = nums.iter().map(|n| format!("{n:07}\n")).collect();
        let c = LiveCluster::new(LiveConfig::small().with_block_size(2048));
        c.upload("in", "p", data.as_bytes());
        let result = run_terasort(&c, "in", "p", reducers, 5);
        prop_assert!(result.records.windows(2).all(|w| w[0] <= w[1]));
        // Line-aligned blocks (8-byte records, 2048-byte blocks): nothing
        // may be lost or invented.
        prop_assert_eq!(result.records.len(), nums.len());
        let mut expected: Vec<String> = nums.iter().map(|n| format!("{n:07}")).collect();
        expected.sort();
        prop_assert_eq!(result.records, expected);
    }

    /// The distributed equi-join equals the nested-loop reference.
    #[test]
    fn join_equals_reference(
        left in prop::collection::vec((0u8..20, "[a-z]{1,4}"), 1..60),
        right in prop::collection::vec((0u8..20, "[a-z]{1,4}"), 1..60),
    ) {
        let render = |rows: &[(u8, String)]| -> String {
            rows.iter().map(|(k, v)| format!("k{k:02}\t{v}\n")).collect()
        };
        let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
        c.upload("l", "p", render(&left).as_bytes());
        c.upload("r", "p", render(&right).as_bytes());
        let got: BTreeSet<(String, String)> =
            run_equijoin(&c, "l", "r", "p", 3).into_iter().collect();
        let mut expected = BTreeSet::new();
        for (lk, lv) in &left {
            for (rk, rv) in &right {
                if lk == rk {
                    expected.insert((format!("k{lk:02}"), format!("{lv}\t{rv}")));
                }
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// Results are identical regardless of reducer count (the partition
    /// layout is an implementation detail, never a correctness factor).
    #[test]
    fn reducer_count_is_transparent(
        words in prop::collection::vec("[a-c]{1,2}", 10..120),
        r1 in 1usize..5,
        r2 in 5usize..9,
    ) {
        let data = words.join(" ") + "\n";
        let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
        c.upload("in", "p", data.as_bytes());
        let (a, _) = c.run_job(&WordCount, "in", "p", r1, ReusePolicy::default());
        let (b, _) = c.run_job(&WordCount, "in", "p", r2, ReusePolicy::default());
        prop_assert_eq!(a, b);
    }

    /// Between-jobs recovery: for random upload sets and any single
    /// victim, `fail_node` re-replicates exactly the blocks the victim
    /// held, and every block stays readable through the replica chain
    /// (the re-run output is byte-identical).
    #[test]
    fn single_crash_recovers_every_block(
        words in prop::collection::vec("[a-e]{1,4}", 20..200),
        victim_ix in 0usize..8,
        files in 1usize..4,
    ) {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(512));
        let data = words.join(" ") + "\n";
        let names: Vec<String> = (0..files).map(|i| format!("f{i}")).collect();
        for n in &names {
            c.upload(n, "p", data.as_bytes());
        }
        let inputs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let before = count_words(&c, &inputs);
        let victim = c.ring().node_ids()[victim_ix % c.ring().len()];
        let held = c.store().blocks_on(victim).len() as u64;
        let report = c.fail_node(victim).expect("one crash is within the fault model");
        prop_assert_eq!(report.recovered_blocks, held);
        let after = count_words(&c, &inputs);
        prop_assert_eq!(after, before);
    }

    /// Mid-job recovery: a crash while the job is running re-replicates
    /// the victim's holdings (surfaced in `LiveStats`) and the job's
    /// output is byte-identical to the fault-free run.
    #[test]
    fn mid_job_crash_recovers_victims_blocks(
        words in prop::collection::vec("[a-e]{1,4}", 40..250),
        victim_ix in 0usize..8,
        after_maps in 1u64..6,
    ) {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(512));
        let data = words.join(" ") + "\n";
        c.upload("in", "p", data.as_bytes());
        let (before, base_stats) = c.run_job(&WordCount, "in", "p", 2, ReusePolicy::default());
        let victim = c.ring().node_ids()[victim_ix % c.ring().len()];
        let held = c.store().blocks_on(victim).len() as u64;
        // Clamp the trigger into the job's actual map count so the
        // crash always fires (tiny random inputs may have few blocks).
        let trigger = 1 + (after_maps - 1) % base_stats.map_tasks.max(1);
        c.inject_faults(FaultPlan::new().crash_after_maps(victim, trigger));
        let (after, stats) = c
            .try_run_job(&WordCount, "in", "p", 2, ReusePolicy::default())
            .expect("one crash is within the fault model");
        prop_assert_eq!(after, before);
        prop_assert_eq!(stats.failed_nodes, 1);
        prop_assert_eq!(stats.recovered_blocks, held);
        prop_assert!(!c.ring().contains(victim));
    }

    /// Speculation under a random straggler: output equals the
    /// fault-free run, and attempt accounting stays exact — every
    /// attempt is a task's primary, a failure-driven retry, or a
    /// backup, so `speculative_wins + retries ≤ attempts - map_tasks`.
    #[test]
    fn speculation_accounting_holds(
        words in prop::collection::vec("[a-e]{1,4}", 60..300),
        straggler_ix in 0usize..8,
        slow_micros in 500u64..4_000,
    ) {
        use eclipse_core::SpeculationConfig;
        let data = words.join(" ") + "\n";
        let plain = LiveCluster::new(LiveConfig::small().with_block_size(512));
        plain.upload("in", "p", data.as_bytes());
        let (before, _) = plain.run_job(&WordCount, "in", "p", 2, ReusePolicy::default());
        let c = LiveCluster::new(
            LiveConfig::small()
                .with_block_size(512)
                .with_map_slots(8)
                .with_speculation(SpeculationConfig {
                    slowdown: 2.0,
                    min_completed: 3,
                    poll_micros: 200,
                }),
        );
        c.upload("in", "p", data.as_bytes());
        let straggler = c.ring().node_ids()[straggler_ix % c.ring().len()];
        c.inject_faults(FaultPlan::new().slow_node(straggler, slow_micros));
        let (after, stats) = c
            .try_run_job(&WordCount, "in", "p", 2, ReusePolicy::default())
            .expect("a straggler is never fatal");
        prop_assert_eq!(after, before);
        prop_assert!(stats.speculative_wins <= stats.speculative_attempts);
        prop_assert!(
            stats.speculative_wins + stats.retries <= stats.attempts - stats.map_tasks,
            "wins={} retries={} attempts={} map_tasks={}",
            stats.speculative_wins, stats.retries, stats.attempts, stats.map_tasks
        );
    }

    /// Elastic membership: for any schedule of one join and one
    /// graceful leave at random map milestones (in either order),
    /// output equals the fault-free run and the ring invariants hold —
    /// every block keeps at least `min(replicas + 1, nodes)` physical
    /// copies, the cache ranges partition the key space exactly (every
    /// probe key has exactly one home, and that home is a live
    /// member), and the attempt ledger stays exact with drained claims
    /// counted as retries or outraced on the commit board.
    #[test]
    fn elastic_schedules_hold_ring_invariants(
        words in prop::collection::vec("[a-e]{1,4}", 40..250),
        join_at in 1u64..6,
        leaver_ix in 0usize..8,
        leave_at in 1u64..6,
    ) {
        use eclipse_util::HashKey;
        let data = words.join(" ") + "\n";
        let c = LiveCluster::new(LiveConfig::small().with_block_size(512));
        c.upload("in", "p", data.as_bytes());
        let (before, base) = c.run_job(&WordCount, "in", "p", 2, ReusePolicy::default());
        let n0 = c.ring().len();
        let leaver = c.ring().node_ids()[leaver_ix % n0];
        // Clamp both triggers into the job's actual map count so they
        // always fire (tiny random inputs may have few blocks).
        let maps = base.map_tasks.max(1);
        c.inject_faults(
            FaultPlan::new()
                .join_at_maps(1 + (join_at - 1) % maps)
                .leave_at_maps(leaver, 1 + (leave_at - 1) % maps),
        );
        let (after, stats) = c
            .try_run_job(&WordCount, "in", "p", 2, ReusePolicy::default())
            .expect("a join and a graceful leave are within the fault model");
        prop_assert_eq!(after, before);
        prop_assert_eq!(stats.joins, 1);
        prop_assert_eq!(stats.leaves, 1);
        prop_assert_eq!(stats.failed_nodes, 0, "elastic events are not crashes");
        prop_assert_eq!(c.ring().len(), n0, "one in, one out");
        prop_assert!(!c.ring().contains(leaver));
        prop_assert_eq!(
            stats.attempts,
            stats.map_tasks + stats.retries + stats.speculative_attempts,
            "attempt ledger broke: {:?}", stats
        );
        // Replica floor: every block anyone still holds has at least
        // min(replicas + 1, nodes) physical copies after the handoffs.
        let ring = c.ring();
        let mut copies = HashMap::new();
        for n in ring.node_ids() {
            for b in c.store().blocks_on(n) {
                *copies.entry(b).or_insert(0usize) += 1;
            }
        }
        let floor = 3usize.min(ring.len());
        prop_assert!(!copies.is_empty(), "the reshaped cluster holds no blocks");
        for (b, k) in &copies {
            prop_assert!(*k >= floor, "block {:?} has {} copies, floor {}", b, k, floor);
        }
        // Cache ranges partition the key space exactly, and every home
        // is a live member.
        let ranges = c.cache_ranges();
        for (n, _) in &ranges {
            prop_assert!(ring.contains(*n), "range homed on departed node {:?}", n);
        }
        for i in 0..200u64 {
            let k = HashKey::of_name(&format!("probe-{i}"));
            let homes = ranges.iter().filter(|(_, r)| r.contains(k)).count();
            prop_assert_eq!(homes, 1, "probe key {} has {} homes", i, homes);
        }
    }

    /// A multi-input job over the same file twice doubles every count —
    /// multi-input bookkeeping must not drop or duplicate blocks.
    #[test]
    fn multi_input_counts_add(words in prop::collection::vec("[a-c]{1,2}", 5..80)) {
        let data = words.join(" ") + "\n";
        let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
        c.upload("x", "p", data.as_bytes());
        c.upload("y", "p", data.as_bytes());
        let (single, _) = c.run_job(&WordCount, "x", "p", 2, ReusePolicy::default());
        let double = count_words(&c, &["x", "y"]);
        prop_assert_eq!(single.len(), double.len());
        for ((w1, c1), (w2, c2)) in single.iter().zip(&double) {
            prop_assert_eq!(w1, w2);
            prop_assert_eq!(c1.parse::<u64>().unwrap() * 2, c2.parse::<u64>().unwrap());
        }
        // EquiJoin's single-input fallback treats everything as left side.
        let (solo, _) = c.run_job(&EquiJoin, "x", "p", 2, ReusePolicy::default());
        prop_assert!(solo.is_empty(), "no right side, no matches");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DST `calm` schedules — randomized sub-budget drops, seeded link
    /// delays, slow nodes, and injected task failures over randomized
    /// workloads — never change a byte of output, and every
    /// [`LiveStats`] accounting invariant holds (`attempts =
    /// map_tasks + retries + speculative_attempts`, per-node counts
    /// summing to `map_tasks`, no phantom recovery without a crash).
    /// The oracle inside `run_seed` checks all of it; a calm verdict
    /// other than `Match` is a real bug in the executor or harness.
    #[test]
    fn calm_schedules_hold_livestats_invariants(seed in 0u64..10_000) {
        use eclipse_core::dst::{run_seed, DstPreset, Verdict};
        let r = run_seed(seed, DstPreset::Calm);
        prop_assert!(
            matches!(r.verdict, Verdict::Match),
            "calm seed {} (workload {:?}, schedule {:?}) ended {:?}",
            seed, r.workload, r.schedule, r.verdict
        );
        prop_assert!(r.oracle_checks > 1, "stats invariants were never checked");
    }
}
