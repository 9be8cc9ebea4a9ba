//! Deterministic chaos suite: kill every node at every job phase and
//! prove the output never changes.
//!
//! Everything here is reproducible by construction: the input text is a
//! fixed function of nothing, the crash points are expressed in the
//! job's own progress units (map commits, shuffle batches, reduce
//! start), and [`FaultPlan`] consumes them deterministically. A failure
//! in this suite replays identically on every run.

use eclipse_apps::WordCount;
use eclipse_core::net::{NetError, Rpc, RpcKind, Transport};
use eclipse_core::{
    FaultPlan, JobError, LiveCluster, LiveConfig, ReusePolicy, SchedulerKind, SpeculationConfig,
    TransportKind,
};
use eclipse_dhtfs::FsError;
use std::time::{Duration, Instant};

const NODES: usize = 6;
const REDUCERS: usize = 3;
const USER: &str = "chaos";

/// Fixed input: ~20 KB of text, ~40 blocks at 512 bytes.
fn seeded_text() -> String {
    "alpha beta gamma delta epsilon zeta\n".repeat(600)
}

fn sched_of(name: &str) -> SchedulerKind {
    match name {
        "laf" => SchedulerKind::Laf(Default::default()),
        "delay" => SchedulerKind::Delay(Default::default()),
        other => panic!("unknown scheduler {other}"),
    }
}

fn cluster(sched: &str) -> LiveCluster {
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(NODES)
            .with_block_size(512)
            .with_scheduler(sched_of(sched)),
    );
    c.upload("input", USER, seeded_text().as_bytes());
    c
}

fn baseline(sched: &str) -> Vec<(String, String)> {
    cluster(sched)
        .run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .0
}

/// The straggler watch every speculation test runs with.
fn speculation() -> SpeculationConfig {
    SpeculationConfig { slowdown: 2.0, min_completed: 3, poll_micros: 200 }
}

/// The acceptance-criteria matrix: for every (victim, phase, scheduler)
/// combination, one crash mid-job still yields output byte-identical to
/// the fault-free run, the victim leaves the ring, and recovery is
/// visible in the stats.
#[test]
fn crash_matrix_every_victim_every_phase() {
    for sched in ["laf", "delay"] {
        let expect = baseline(sched);
        for vi in 0..NODES {
            for phase in ["map", "shuffle", "reduce"] {
                let c = cluster(sched);
                let victim = c.ring().node_ids()[vi];
                let plan = match phase {
                    // Thresholds vary by victim index (still fixed per
                    // combination) so the crash lands at different
                    // points in the map stream across the matrix.
                    "map" => FaultPlan::new().crash_after_maps(victim, 1 + (vi as u64 % 5)),
                    "shuffle" => {
                        FaultPlan::new().crash_after_spills(victim, 1 + (vi as u64 % 3))
                    }
                    "reduce" => FaultPlan::new().crash_in_reduce(victim),
                    _ => unreachable!(),
                };
                c.inject_faults(plan);
                let (out, stats) = c
                    .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
                    .unwrap_or_else(|e| {
                        panic!("[{sched}] victim {vi} phase {phase}: job failed: {e}")
                    });
                assert_eq!(
                    out, expect,
                    "[{sched}] victim {vi} phase {phase}: output diverged"
                );
                assert_eq!(
                    stats.failed_nodes, 1,
                    "[{sched}] victim {vi} phase {phase}: crash not recorded"
                );
                assert!(
                    !c.ring().contains(victim),
                    "[{sched}] victim {vi} phase {phase}: victim still in ring"
                );
                assert!(
                    stats.recovered_blocks > 0,
                    "[{sched}] victim {vi} phase {phase}: nothing re-replicated"
                );
                assert!(
                    stats.stabilize_rounds > 0,
                    "[{sched}] victim {vi} phase {phase}: ring never re-stabilized"
                );
            }
        }
    }
}

/// A crash that destroys every copy of a block must end in
/// `JobError::DataLoss` — never a wrong or partial result, never a
/// hang. With zero extra replicas each block has exactly one copy, so
/// any data-holding victim qualifies.
#[test]
fn total_replica_loss_is_terminal_not_wrong() {
    let c = LiveCluster::new(
        LiveConfig::small().with_nodes(4).with_block_size(512).with_replicas(0),
    );
    c.upload("input", USER, seeded_text().as_bytes());
    let victim = c
        .ring()
        .node_ids()
        .into_iter()
        .find(|&n| !c.store().blocks_on(n).is_empty())
        .expect("some node holds blocks");
    c.inject_faults(FaultPlan::new().crash_after_maps(victim, 1));
    let err = c
        .try_run_job(&WordCount, "input", USER, 2, ReusePolicy::default())
        .expect_err("single-copy data cannot survive its holder");
    assert!(matches!(err, JobError::DataLoss(_)), "unexpected error: {err:?}");
}

/// Regression for the double-failure path in `fail_node`: when the
/// designated source replica is itself gone, recovery must return
/// `FsError::DataLoss` instead of panicking (it used to `assert!`).
#[test]
fn double_failure_returns_recovery_error() {
    let c = LiveCluster::new(LiveConfig::small().with_nodes(NODES).with_block_size(512));
    c.upload("input", USER, seeded_text().as_bytes());
    let victim = c
        .ring()
        .node_ids()
        .into_iter()
        .find(|&n| !c.store().blocks_on(n).is_empty())
        .expect("some node holds blocks");
    // Destroy every OTHER shard behind the metadata layer's back — the
    // "simultaneous" second failure. Every source the recovery plan
    // picks for the victim's blocks is now gone.
    for n in c.ring().node_ids() {
        if n != victim {
            c.store().wipe_node(n);
        }
    }
    let err = c.fail_node(victim).expect_err("sources are gone");
    assert!(matches!(err, FsError::DataLoss(_)), "unexpected error: {err:?}");
}

/// An injected straggler slows the job down but never changes output or
/// fails a node.
#[test]
fn slow_node_changes_nothing_but_time() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let straggler = c.ring().node_ids()[2];
    c.inject_faults(FaultPlan::new().slow_node(straggler, 50));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a slow node is not a failure");
    assert_eq!(out, expect);
    assert_eq!(stats.failed_nodes, 0);
    assert!(c.ring().contains(straggler));
}

/// The speculation matrix: a hard straggler under every (scheduler,
/// transport) combination, speculation off vs on. Output must be
/// byte-identical to the fault-free baseline in every cell — backups
/// race primaries on the commit board and the loser's cancellation
/// must never suppress a committed attempt's sends (a violation shows
/// up here as missing or doubled counts).
#[test]
fn speculation_matrix_slow_node_byte_identical() {
    for sched in ["laf", "delay"] {
        let expect = baseline(sched);
        for transport in [TransportKind::Memory, TransportKind::Tcp] {
            for speculate in [false, true] {
                let mut cfg = LiveConfig::small()
                    .with_nodes(NODES)
                    .with_block_size(512)
                    // One worker thread per node even on single-core CI
                    // hosts, so the straggler really claims map tasks.
                    .with_map_slots(NODES)
                    .with_scheduler(sched_of(sched))
                    .with_transport(transport);
                if speculate {
                    cfg = cfg.with_speculation(speculation());
                }
                let c = LiveCluster::new(cfg);
                c.upload("input", USER, seeded_text().as_bytes());
                let straggler = c.ring().node_ids()[REDUCERS];
                c.inject_faults(FaultPlan::new().slow_node(straggler, 3_000));
                let (out, stats) = c
                    .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
                    .expect("a slow node is not a failure");
                assert_eq!(
                    out, expect,
                    "output diverged: sched={sched} transport={transport:?} spec={speculate}"
                );
                assert_eq!(stats.failed_nodes, 0, "straggler must not be expelled");
                assert!(c.ring().contains(straggler));
                if !speculate {
                    assert_eq!(stats.speculative_attempts, 0);
                    assert_eq!(stats.cancelled_attempts, 0);
                    // One thread per node: the others run dry first and
                    // steal the straggler's queue at its tail.
                    assert!(stats.steals > 0, "sched={sched} transport={transport:?}: {stats:?}");
                }
                // Attempt accounting: every attempt is a primary, a
                // retry, or a backup; wins can't exceed backups.
                assert!(stats.speculative_wins <= stats.speculative_attempts);
                assert!(
                    stats.speculative_wins + stats.retries
                        <= stats.attempts - stats.map_tasks,
                    "sched={sched} transport={transport:?} spec={speculate}: {stats:?}"
                );
            }
        }
    }
}

/// Replicated map-out under a straggler *and* speculation at once: the
/// two tentpole modes compose without changing output.
#[test]
fn replicated_map_out_composes_with_speculation() {
    let expect = baseline("laf");
    for r in [2usize, 3] {
        let c = LiveCluster::new(
            LiveConfig::small()
                .with_nodes(NODES)
                .with_block_size(512)
                .with_map_slots(NODES)
                .with_map_replication(r)
                .with_speculation(speculation()),
        );
        c.upload("input", USER, seeded_text().as_bytes());
        let straggler = c.ring().node_ids()[REDUCERS];
        c.inject_faults(FaultPlan::new().slow_node(straggler, 2_000));
        let (out, stats) = c
            .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
            .expect("replication + speculation is fault-free");
        assert_eq!(out, expect, "r={r} diverged under straggler + speculation");
        assert!(stats.local_shuffle_records > 0, "r={r} produced no local shuffle");
    }
}

/// An 8-node cluster with a worker thread per node (so a straggling
/// node really claims map tasks) and `r`-replicated map-out.
fn eight_node_cluster(r: usize) -> LiveConfig {
    LiveConfig::small()
        .with_nodes(8)
        .with_block_size(512)
        .with_transport(TransportKind::Memory)
        .with_map_slots(8)
        .with_map_replication(r)
}

/// What speculation is for: under one hard straggler (50 ms per map)
/// some backup attempt commits before the straggler's own. The
/// straggler homes no reducer — slowing a home would delay every
/// mapper's shuffle instead of one node's maps. Counts only, never
/// wall time.
#[test]
fn speculative_backup_beats_a_hard_straggler() {
    let expect = baseline("laf");
    let c = LiveCluster::new(eight_node_cluster(1).with_speculation(speculation()));
    c.upload("input", USER, seeded_text().as_bytes());
    let straggler = c.ring().node_ids()[REDUCERS];
    c.inject_faults(FaultPlan::new().slow_node(straggler, 50_000));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a slow node is not a failure");
    assert_eq!(out, expect, "speculation under a hard straggler diverged the output");
    assert_eq!(stats.failed_nodes, 0, "a straggler is not a crash");
    assert!(stats.speculative_wins >= 1, "no backup beat the straggler: {stats:?}");
}

/// What replicated map-out is for: with each block mapped at the `r`
/// reducer homes nearest its key, fewer shuffle bytes cross the wire
/// at every step r = 1 → 2 → 3. Measured on a warm second job, so the
/// one-time replica placement is not in the count; first sends only,
/// so a retransmission cannot blur it.
#[test]
fn replicated_map_out_cuts_remote_shuffle_bytes() {
    let expect = baseline("laf");
    let mut first_send = Vec::new();
    for r in [1usize, 2, 3] {
        let c = LiveCluster::new(eight_node_cluster(r));
        c.upload("input", USER, seeded_text().as_bytes());
        let job = || {
            c.try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
                .expect("replicated map-out is fault-free")
        };
        job();
        let before = c.transport().stats();
        let (out, _) = job();
        let wire = c.transport().stats().since(before);
        assert_eq!(out, expect, "r={r} diverged");
        let (_, bytes) = wire.kind(RpcKind::ShuffleBatch);
        first_send.push(bytes - wire.kind_retrans(RpcKind::ShuffleBatch));
    }
    assert!(
        first_send[0] > first_send[1] && first_send[1] > first_send[2],
        "remote shuffle first-send bytes at r = 1, 2, 3: {first_send:?}"
    );
}

/// Faults and a crash composed in one plan: task 0's first attempts
/// die, then a node crashes mid-map — retries and crash recovery must
/// compose without double-counting.
#[test]
fn composed_faults_still_byte_identical() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let victim = c.ring().node_ids()[3];
    c.inject_faults(
        FaultPlan::new().fail_task(0, 2).crash_after_maps(victim, 4),
    );
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("retries + one crash are within the fault model");
    assert_eq!(out, expect, "composed faults diverged the output");
    assert_eq!(stats.failed_nodes, 1);
    assert!(stats.retries >= 2, "injected task faults were not retried");
    assert_eq!(stats.attempts, stats.map_tasks + stats.retries);
}

/// Two successive crashes in one job (replication factor 2 tolerates
/// them when they are not simultaneous: the first recovery restores
/// the factor before the second crash fires).
#[test]
fn two_staggered_crashes_survive() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let ids = c.ring().node_ids();
    let (a, b) = (ids[1], ids[4]);
    c.inject_faults(
        FaultPlan::new().crash_after_maps(a, 2).crash_after_maps(b, 10),
    );
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("staggered crashes are within the fault model");
    assert_eq!(out, expect);
    assert_eq!(stats.failed_nodes, 2);
    assert_eq!(c.ring().len(), NODES - 2);
}

// ---- network faults (PR 3: injected at the transport layer) ---------
//
// These compose with the crash chaos above but attack a different
// layer: the frames themselves. The in-memory backend's fault API cuts
// links, drops frames, and delays delivery underneath an unmodified
// executor — the job must absorb all of it without changing a byte of
// output.

/// A one-way partition between the executing worker and a shuffle home:
/// batches shipped into the cut time out, the partition re-homes to the
/// sender, and the faulted attempt retries — output identical.
#[test]
fn one_way_partition_rehomes_shuffle_without_changing_output() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let ids = c.ring().node_ids();
    // Map threads execute under ids[0]'s identity (capped at hardware
    // parallelism, stealing covers the rest); reducer partitions are
    // homed round-robin from ids[0], so ids[1] hosts partition 1 and
    // this cut eats real shuffle traffic.
    let net = c.mem_net().expect("default transport is the mem backend");
    net.cut_one_way(ids[0], ids[1]);
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a one-way partition is not fatal");
    assert_eq!(out, expect, "partition changed the output");
    assert!(stats.timeouts > 0, "the cut link never timed anything out");
    assert!(stats.rpc_retries > 0, "timeouts must have been retried");
    assert_eq!(stats.failed_nodes, 0, "a network cut is not a node crash");
    assert_eq!(c.ring().len(), NODES, "no node may be expelled for a cut link");
}

/// Dropped shuffle frames are retried transparently and never
/// double-counted: the per-attempt sequence numbers plus the commit
/// board keep exactly one copy of every record.
#[test]
fn dropped_shuffle_batches_are_retried_not_double_counted() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let net = c.mem_net().expect("default transport is the mem backend");
    net.drop_rpcs(RpcKind::ShuffleBatch, 2);
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("dropped frames are absorbed by retry");
    assert_eq!(out, expect, "a retried batch was lost or double-counted");
    assert!(stats.timeouts >= 2, "both drop tokens should cost a timeout");
    assert!(stats.rpc_retries >= 2, "dropped frames must be resent");
}

/// The windowed one-way lane under frame loss *and* reordering: with a
/// tiny spill-coalescing target every map task ships a stream of
/// sequence numbers, and a dropped batch is only retransmitted at
/// flush time — after every later batch of the attempt has already
/// landed. The receiver's reorder-tolerant dedup must deliver the
/// straggler exactly once, out of order, without double-counting any
/// record.
#[test]
fn dropped_windowed_batch_lands_out_of_order_exactly_once() {
    let expect = baseline("laf");
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(NODES)
            .with_block_size(512)
            // Spill every ~128 bytes: each task ships several windowed
            // batches, so a retransmission necessarily arrives behind
            // higher sequence numbers.
            .with_shuffle_batch_bytes(128),
    );
    c.upload("input", USER, seeded_text().as_bytes());
    let net = c.mem_net().expect("default transport is the mem backend");
    net.drop_rpcs(RpcKind::ShuffleBatch, 3);
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("dropped windowed batches are absorbed by flush-time retry");
    assert_eq!(out, expect, "a reordered retransmission was lost or double-counted");
    assert!(stats.timeouts >= 3, "each drop token should cost a timeout");
    assert!(stats.rpc_retries >= 3, "dropped windowed batches must be resent");
    assert_eq!(stats.failed_nodes, 0, "frame loss is not a node crash");
}

/// A dropped `ReplicaSync` frame during crash recovery: the retry loop
/// re-issues it and recovery still completes with full output.
#[test]
fn rpc_timeout_during_rereplication_is_absorbed() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let victim = c.ring().node_ids()[2];
    c.inject_faults(FaultPlan::new().crash_after_maps(victim, 2));
    let net = c.mem_net().expect("default transport is the mem backend");
    net.drop_rpcs(RpcKind::ReplicaSync, 1);
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("one lost recovery frame is within the retry budget");
    assert_eq!(out, expect, "recovery under frame loss diverged the output");
    assert_eq!(stats.failed_nodes, 1);
    assert!(stats.recovered_blocks > 0, "re-replication never happened");
    assert!(stats.timeouts >= 1, "the dropped ReplicaSync should time out once");
    assert!(stats.rpc_retries >= 1, "the dropped ReplicaSync was not retried");
}

/// Regression (PR 3 tentpole fix): `fail_node` must poison the victim's
/// transport endpoint so peers blocked on in-flight RPCs get a
/// connection error immediately — before this fix they waited out the
/// full delivery delay (or, over TCP, indefinitely).
#[test]
fn fail_node_poisons_in_flight_rpcs() {
    let c = LiveCluster::new(LiveConfig::small().with_nodes(4).with_block_size(512));
    c.upload("input", USER, seeded_text().as_bytes());
    let ids = c.ring().node_ids();
    let (caller, victim) = (ids[0], ids[2]);
    let block = c.store().blocks_on(victim)[0];
    let net = c.mem_net().expect("default transport is the mem backend").clone();
    // Hold the victim-bound frame in flight far longer than the test
    // is willing to wait: only endpoint poisoning can unblock it.
    net.delay_link(caller, victim, Duration::from_secs(30));
    let started = Instant::now();
    let blocked = std::thread::spawn({
        let net = net.clone();
        move || net.call(caller, victim, Rpc::GetBlock { block })
    });
    // Let the call reach its in-flight wait, then kill the node.
    std::thread::sleep(Duration::from_millis(50));
    let report = c.fail_node(victim).expect("replicas survive on 3 nodes");
    assert!(report.recovered_blocks > 0, "the victim held data");
    let err = blocked.join().unwrap().expect_err("poisoned endpoint must error");
    assert_eq!(err, NetError::ConnectionClosed { to: victim });
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "blocked RPC waited out the delay instead of failing fast"
    );
    assert!(!net.endpoint_open(victim), "endpoint must stay closed after fail_node");
    assert!(!c.ring().contains(victim));
}

// --- DST-promoted composed scenarios -----------------------------------
//
// These three regressions pin composed failure modes the DST harness
// (eclipse_core::dst) is built to explore: each stages its network
// fault at a point on the job's *logical clock* via a ChaosObserver,
// exactly as a sampled schedule would, and demands byte-identical
// output. A failing DST seed that shrinks to one of these shapes
// belongs here as the next named entry.

/// Crash-during-stabilize: a node dies mid-map and the very first
/// stabilization probes of the recovery path are eaten by drop tokens
/// armed at the same progress point. Probes consume drop/cut tokens
/// like any frame (a dropped probe reads as transient unreachability),
/// so stabilization must simply run more rounds — never expel a
/// survivor, never lose a block, never change a byte.
#[test]
fn crash_during_stabilize_with_dropped_probes() {
    use eclipse_core::dst::{ChaosObserver, NetOp, Point};
    use std::sync::Arc;
    let expect = baseline("laf");
    let c = cluster("laf");
    let victim = c.ring().node_ids()[2];
    let net = c.mem_net().expect("default transport is the mem backend").clone();
    // Armed at the crash trigger's own milestone: the observer fires
    // before the crash hook at the same map count, so the probes that
    // stabilize the post-crash ring find the tokens already installed.
    let obs = Arc::new(ChaosObserver::new(
        net,
        vec![(Point::Maps(2), NetOp::DropKind { kind: RpcKind::Heartbeat, n: 2 })],
    ));
    c.set_observer(Some(obs.clone()));
    c.inject_faults(FaultPlan::new().crash_after_maps(victim, 2));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("dropped probes during stabilization are absorbed");
    c.set_observer(None);
    assert_eq!(out, expect, "crash + dropped probes diverged the output");
    assert_eq!(obs.fired(), 1, "the armed drop never fired");
    assert_eq!(stats.failed_nodes, 1, "exactly the scheduled victim fails");
    assert!(stats.stabilize_rounds >= 1, "recovery never re-stabilized the ring");
    assert!(stats.recovered_blocks > 0, "the victim's blocks were not re-replicated");
    assert!(!c.ring().contains(victim));
    assert_eq!(c.ring().len(), NODES - 1, "a survivor was expelled over lost probes");
}

/// Partition-while-speculative-backup-races: a straggler provokes a
/// backup attempt, then a one-way cut severs the straggler's shuffle
/// path to a reducer home while original and backup race the commit
/// board. Whichever attempt wins — and whichever route its batches
/// take after the re-home — the reducer-side (task, attempt) dedup
/// must keep exactly one copy of every record.
#[test]
fn partition_while_speculative_backup_races() {
    use eclipse_core::dst::{ChaosObserver, NetOp, Point};
    use std::sync::Arc;
    let expect = baseline("laf");
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(NODES)
            .with_block_size(512)
            .with_map_slots(NODES)
            .with_scheduler(sched_of("laf"))
            .with_speculation(speculation()),
    );
    c.upload("input", USER, seeded_text().as_bytes());
    let ids = c.ring().node_ids();
    let straggler = ids[REDUCERS];
    let net = c.mem_net().expect("default transport is the mem backend").clone();
    // Cut the straggler's path to partition 1's home once a few
    // batches are out (the monitor needs committed tasks before it
    // speculates), heal it a few batches later.
    let obs = Arc::new(ChaosObserver::new(
        net,
        vec![
            (Point::Spills(2), NetOp::Cut { from: straggler, to: ids[1] }),
            (Point::Spills(8), NetOp::Heal { from: straggler, to: ids[1] }),
        ],
    ));
    c.set_observer(Some(obs.clone()));
    c.inject_faults(FaultPlan::new().slow_node(straggler, 3_000));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a partitioned straggler with a racing backup is not fatal");
    c.set_observer(None);
    assert_eq!(out, expect, "speculative race under partition diverged the output");
    assert!(obs.fired() >= 1, "the armed cut never fired");
    assert_eq!(stats.failed_nodes, 0, "neither straggler nor cut is a crash");
    assert!(c.ring().contains(straggler), "the straggler must not be expelled");
    assert!(
        stats.speculative_wins + stats.retries <= stats.attempts - stats.map_tasks,
        "attempt accounting broke under the race: {stats:?}"
    );
}

/// Drop-on-retransmitted-window-slot: drop tokens armed mid-stream eat
/// windowed shuffle frames *after* earlier slots of the same attempt
/// have shipped and acked — so the losses land on slots whose
/// retransmissions arrive behind higher sequence numbers, and a token
/// can eat a flush-time retransmission itself. The window must keep
/// re-flushing until every slot acks, and the reorder-tolerant dedup
/// must deliver each exactly once.
#[test]
fn midstream_drop_hits_retransmitted_window_slot() {
    use eclipse_core::dst::{ChaosObserver, NetOp, Point};
    use std::sync::Arc;
    let expect = baseline("laf");
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(NODES)
            .with_block_size(512)
            .with_scheduler(sched_of("laf"))
            // Spill every ~128 bytes so each attempt ships a stream of
            // window slots and mid-stream loss forces reordered
            // retransmissions.
            .with_shuffle_batch_bytes(128),
    );
    c.upload("input", USER, seeded_text().as_bytes());
    let net = c.mem_net().expect("default transport is the mem backend").clone();
    let obs = Arc::new(ChaosObserver::new(
        net.clone(),
        vec![(Point::Spills(3), NetOp::DropKind { kind: RpcKind::ShuffleBatch, n: 2 })],
    ));
    c.set_observer(Some(obs.clone()));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("mid-stream window loss is absorbed by flush retries");
    c.set_observer(None);
    assert_eq!(out, expect, "a retransmitted slot was lost or double-counted");
    assert_eq!(obs.fired(), 1, "the armed drop never fired");
    assert!(stats.timeouts >= 2, "both drop tokens should cost a timeout");
    assert!(stats.rpc_retries >= 2, "dropped slots must be retransmitted");
    assert!(
        net.stats().kind_retrans(RpcKind::ShuffleBatch) > 0,
        "no shuffle bytes were ever retransmitted"
    );
    assert_eq!(stats.failed_nodes, 0, "frame loss is not a node crash");
}

// --- elastic membership (PR 8: runtime join and graceful leave) --------
//
// Shrunk DST schedules promoted to named regressions: each pins a
// composed elastic failure mode the sampler explores — a join or a
// graceful leave on the job's logical clock, racing the crash, network
// and speculation machinery above. The oracle is always the same:
// byte-identical output.

/// Join racing a crash of its successor: the joiner splits the range of
/// the node that hands its blocks over, and one map later that very
/// node dies. Crash recovery must already count the joiner as a
/// first-class replica holder — and the join's pulled copies must
/// survive the donor's death.
#[test]
fn join_races_crash_of_its_successor() {
    use eclipse_util::HashKey;
    let expect = baseline("laf");
    let c = cluster("laf");
    // A scheduled join generates the name "join-0"; its ring position
    // is the hash of that name, so the successor whose range it splits
    // is known before the job starts.
    let ring = c.ring();
    let successor = ring.owner_of(HashKey::of_name("join-0")).unwrap().id;
    c.inject_faults(FaultPlan::new().join_at_maps(2).crash_after_maps(successor, 4));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a join racing its successor's crash is within the fault model");
    assert_eq!(out, expect, "join + successor crash diverged the output");
    assert_eq!(stats.joins, 1, "the scheduled join never fired");
    assert_eq!(stats.failed_nodes, 1, "the scheduled crash never fired");
    assert!(stats.recovered_blocks > 0, "the dead successor held nothing");
    assert_eq!(c.ring().len(), NODES, "one in, one out");
    assert!(!c.ring().contains(successor));
    assert_eq!(
        stats.attempts,
        stats.map_tasks + stats.retries + stats.speculative_attempts,
        "attempt ledger broke under join + crash: {stats:?}"
    );
}

/// Graceful leave while the leaver is a slowed straggler with a
/// speculative backup racing its claimed task: the leave drains the
/// uncommitted claim back to the scheduler, and whichever attempt wins
/// the commit board — the drained retry, the backup, or the leaver's
/// own parked pre-poison batches — the reducer dedup keeps exactly one
/// copy of every record.
#[test]
fn leave_while_speculative_backup_of_drained_task_runs() {
    let expect = baseline("laf");
    let c = LiveCluster::new(
        LiveConfig::small()
            .with_nodes(NODES)
            .with_block_size(512)
            .with_map_slots(NODES)
            .with_scheduler(sched_of("laf"))
            .with_speculation(speculation()),
    );
    c.upload("input", USER, seeded_text().as_bytes());
    let straggler = c.ring().node_ids()[REDUCERS];
    c.inject_faults(
        FaultPlan::new().slow_node(straggler, 3_000).leave_at_maps(straggler, 4),
    );
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a graceful leave of a straggler is never fatal");
    assert_eq!(out, expect, "leave + speculative race diverged the output");
    assert_eq!(stats.leaves, 1, "the scheduled leave never fired");
    assert_eq!(stats.failed_nodes, 0, "a graceful leave is not a crash");
    assert!(!c.ring().contains(straggler), "the leaver stayed in the ring");
    // The race has two legal outcomes: the leaver still held its
    // uncommitted claim (drained back to the scheduler), or a
    // speculative backup already won it on the commit board before the
    // leave fired. Either way somebody must have contested the claim.
    assert!(
        stats.drained_tasks >= 1 || stats.speculative_attempts >= 1,
        "neither a drained claim nor a racing backup materialized: {stats:?}"
    );
    assert!(stats.speculative_wins <= stats.speculative_attempts);
    assert_eq!(
        stats.attempts,
        stats.map_tasks + stats.retries + stats.speculative_attempts,
        "attempt ledger broke under leave + speculation: {stats:?}"
    );
}

/// Join under a one-way partition from the joiner to its block donor:
/// every handoff pull the joiner issues into the cut dies. The pulls
/// are benign by design — a block that cannot be pulled keeps its
/// pre-join holders and stays readable — so the join completes, nobody
/// is expelled, and output is unchanged.
#[test]
fn join_under_one_way_partition_to_joiner() {
    use eclipse_ring::NodeId;
    use eclipse_util::HashKey;
    let expect = baseline("laf");
    let c = cluster("laf");
    let ring = c.ring();
    let donor = ring.owner_of(HashKey::of_name("join-0")).unwrap().id;
    // Node ids are dense, so the joiner's id — and therefore the cut —
    // can be armed before its endpoint even exists.
    let joiner = NodeId(NODES as u32);
    let net = c.mem_net().expect("default transport is the mem backend");
    net.cut_one_way(joiner, donor);
    c.inject_faults(FaultPlan::new().join_at_maps(2));
    let (out, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("a partitioned handoff pull is benign, not fatal");
    assert_eq!(out, expect, "join under partition diverged the output");
    assert_eq!(stats.joins, 1, "the scheduled join never fired");
    assert_eq!(stats.failed_nodes, 0, "a dead handoff pull is not a crash");
    assert_eq!(c.ring().len(), NODES + 1, "the joiner must still be admitted");
    assert!(c.ring().contains(joiner));
    assert_eq!(
        stats.attempts,
        stats.map_tasks + stats.retries + stats.speculative_attempts,
        "attempt ledger broke under join + partition: {stats:?}"
    );
}

/// Regression for a deadlock the 1,000-seed chaos sweep found (seed
/// 5001): with two joins scheduled, the first joiner's latent worker
/// lane popped its node id via `match rt.joined.lock().pop()` — and the
/// match-scrutinee guard kept the `joined` mutex locked across the
/// joiner's *entire* worker loop. If that lane then committed the map
/// that triggered join #2, `admit_and_handoff`'s `joined.push` blocked
/// on the mutex its own thread held, hanging the job forever (the
/// second latent lane and the reducers parked behind it). The latent
/// lane is gone since — a joiner takes map attempts from the next run
/// on — so the test now pins that two joins scheduled in one run both
/// fire and the output holds. The hang was interleaving-dependent (~40%
/// of runs), so loop a few times.
#[test]
fn two_joins_second_may_fire_from_first_joiners_lane() {
    let expect = baseline("laf");
    for round in 0..5 {
        let c = cluster("laf");
        c.inject_faults(FaultPlan::new().join_at_maps(2).join_at_maps(4));
        let (out, stats) = c
            .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
            .unwrap_or_else(|e| panic!("round {round}: double join failed: {e}"));
        assert_eq!(out, expect, "round {round}: double join diverged the output");
        assert_eq!(stats.joins, 2, "round {round}: a scheduled join never fired");
        assert_eq!(stats.failed_nodes, 0);
        assert_eq!(c.ring().len(), NODES + 2, "round {round}: both joiners admitted");
        assert_eq!(
            stats.attempts,
            stats.map_tasks + stats.retries + stats.speculative_attempts,
            "round {round}: attempt ledger broke under double join: {stats:?}"
        );
    }
}

/// The elastic acceptance matrix: one join and one graceful leave
/// mid-job, across both schedulers and both transports. Output must be
/// byte-identical to the fault-free baseline in every cell, and the
/// handoff must move blocks but never more than every stored copy of
/// the input.
#[test]
fn elastic_matrix_join_and_leave_byte_identical() {
    let input = seeded_text();
    for sched in ["laf", "delay"] {
        let expect = baseline(sched);
        for transport in [TransportKind::Memory, TransportKind::Tcp] {
            let cfg = LiveConfig::small()
                .with_nodes(NODES)
                .with_block_size(512)
                .with_scheduler(sched_of(sched))
                .with_transport(transport);
            let stored = (cfg.replicas as u64 + 1) * input.len() as u64;
            let c = LiveCluster::new(cfg);
            c.upload("input", USER, input.as_bytes());
            let leaver = c.ring().node_ids()[2];
            c.inject_faults(FaultPlan::new().join_at_maps(2).leave_at_maps(leaver, 5));
            let (out, stats) = c
                .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
                .unwrap_or_else(|e| {
                    panic!("[{sched}/{transport:?}] elastic job failed: {e}")
                });
            assert_eq!(out, expect, "[{sched}/{transport:?}] output diverged");
            assert_eq!(stats.joins, 1, "[{sched}/{transport:?}] join never fired");
            assert_eq!(stats.leaves, 1, "[{sched}/{transport:?}] leave never fired");
            assert_eq!(stats.failed_nodes, 0, "[{sched}/{transport:?}] phantom crash");
            assert_eq!(c.ring().len(), NODES, "[{sched}/{transport:?}] one in, one out");
            assert!(!c.ring().contains(leaver));
            assert!(stats.handoff_blocks > 0, "[{sched}/{transport:?}] nothing handed off");
            assert!(
                stats.handoff_bytes <= stored,
                "[{sched}/{transport:?}] handoff {} B > (replicas + 1) × input = {stored} B",
                stats.handoff_bytes
            );
        }
    }
}

/// Regression for stale placement snapshots (the latent bug this PR
/// fixes): shuffle homes and cache ranges used to be captured once at
/// job start, so a membership change mid-job left partitions homed on
/// departed nodes and fetches aimed past the joiner. After a mid-job
/// join + leave, a follow-up job must route nothing to the departed
/// node and its output must still match.
#[test]
fn placement_is_epoch_aware_after_elastic_events() {
    let expect = baseline("laf");
    let c = cluster("laf");
    let leaver = c.ring().node_ids()[1];
    let epoch0 = c.epoch();
    c.inject_faults(FaultPlan::new().join_at_maps(2).leave_at_maps(leaver, 5));
    let (out, _) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("join + leave are within the fault model");
    assert_eq!(out, expect);
    assert_eq!(c.epoch(), epoch0 + 2, "join and leave must each bump the epoch");
    // Cache ranges must have re-homed: no range may still belong to the
    // departed node.
    assert!(
        c.cache_ranges().iter().all(|(n, _)| *n != leaver),
        "a cache range is still homed on the departed node"
    );
    // A second, fault-free job on the reshaped cluster: byte-identical
    // output, and not a single task lands on the departed node.
    let (again, stats) = c
        .try_run_job(&WordCount, "input", USER, REDUCERS, ReusePolicy::default())
        .expect("the reshaped cluster is healthy");
    assert_eq!(again, expect, "the reshaped cluster diverged the output");
    assert_eq!(
        stats.tasks_per_node[leaver.index()],
        0,
        "a task was scheduled on the departed node"
    );
}
