//! Deterministic simulation testing (DST) for the live executor.
//!
//! One `u64` seed drives everything: a workload sampler (app, input,
//! cluster shape, scheduler, cache shards, map slots, speculation,
//! replication), and a fault-schedule sampler that composes the
//! existing chaos machinery — [`FaultPlan`] crash/slow/fail-task and
//! elastic join/leave hooks
//! plus the [`MemTransport`] partition/delay/drop API — at points keyed
//! off the job's *own progress* (maps committed, shuffle batches sent)
//! rather than wall time. The same seed therefore replays the same
//! workload, the same fault schedule, and the same injection points on
//! any host; thread interleavings are not bit-identical across runs,
//! but the oracle must hold for *every* interleaving, so a seed that
//! fails is a seed that keeps failing.
//!
//! The oracle per run:
//!
//! 1. **Output**: byte-identical to a fault-free run of the same
//!    workload on the in-memory transport, *or* a typed terminal error
//!    from the allowed set — [`JobError::TaskFailed`] /
//!    [`JobError::DataLoss`] only when the sampled schedule plausibly
//!    exhausted a retry budget or destroyed every replica (see
//!    [`allowed_errors`]). A wrong result, a panic, or an error outside
//!    the allowed set is always a failure.
//! 2. **Accounting**: the [`LiveStats`] invariants
//!    (`attempts = map_tasks + retries + speculative_attempts`,
//!    per-node task counts summing to `map_tasks`, no phantom recovery
//!    on crash-free schedules, …) checked by [`check_stats`].
//! 3. **Membership**: after every crash, join and leave, whatever its
//!    outcome, the membership epoch moved and the published ring, the
//!    DHT FS ring, the scheduler's and the cache's ranges agree (see
//!    [`ChaosObserver`]).
//!
//! On failure the harness *shrinks*: it bisects the fault schedule to
//! a minimal failing subset ([`shrink_schedule`]) and prints a
//! one-line, copy-pastable repro ([`repro_line`]) that replays the
//! exact seed under `cargo test`.
//!
//! Fault rates come from [`FaultConfig`] presets ([`DstPreset`]):
//! `calm` schedules are benign by construction (no crashes, no
//! partitions, every injected failure under the retry budget) and must
//! always produce byte-identical output; `moderate` and `chaos` may
//! legitimately end in an allowed typed error. **Maintainer rule:**
//! when a new fault point is added to the executor or the transport,
//! the same commit must wire it into the samplers here and give every
//! preset an explicit rate for it (zero is a decision, not a default).

use crate::epoch::{EpochDriver, StreamSpec};
use crate::job::{JobError, ReusePolicy};
use crate::live::{
    DstEvent, DstObserver, FaultPlan, LiveCluster, LiveConfig, LiveStats, MapReduce,
    SpeculationConfig,
};
use crate::sim_exec::SchedulerKind;
use eclipse_dhtfs::FsError;
use eclipse_net::{merge_sorted_pairs, MemTransport, RpcKind};
use eclipse_ring::NodeId;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Owner string for DST uploads.
pub const DST_USER: &str = "dst";
const INPUT: &str = "input";

/// Byte width of one line of epoch-mode input ("wNN wNN wNN wNN\n").
/// Every sampled block size (256/512/1024) is a multiple, so block
/// boundaries land on line boundaries in every delta layout.
const ALIGNED_LINE: usize = 16;

/// Transmissions the transport pays for per call (or windowed flush)
/// before surfacing a typed failure: `RetryPolicy::default().max_attempts`.
/// Drop schedules that stay strictly below this on every link and kind
/// are benign — the retry layer absorbs them.
const NET_BUDGET: u32 = 4;

/// Attempts the executor grants one map task before
/// [`JobError::TaskFailed`] (mirrors `live::MAX_ATTEMPTS`).
const TASK_BUDGET: u32 = 4;

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

/// Named fault-rate presets, in increasing order of violence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DstPreset {
    /// Benign by construction: timing pressure only (delays, slow
    /// nodes, sub-budget drops, sub-budget injected task failures).
    /// Every calm run must end byte-identical — a typed error under
    /// `calm` is a bug.
    Calm,
    /// One crash slot, partitions (usually healed), heavier drops.
    Moderate,
    /// Two crash slots, partitions that may never heal, drop bursts
    /// past the retry budget.
    Chaos,
}

impl DstPreset {
    pub fn config(self) -> FaultConfig {
        match self {
            DstPreset::Calm => FaultConfig::calm(),
            DstPreset::Moderate => FaultConfig::moderate(),
            DstPreset::Chaos => FaultConfig::chaos(),
        }
    }
}

impl fmt::Display for DstPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DstPreset::Calm => "calm",
            DstPreset::Moderate => "moderate",
            DstPreset::Chaos => "chaos",
        };
        f.write_str(s)
    }
}

impl FromStr for DstPreset {
    type Err = String;
    fn from_str(s: &str) -> Result<DstPreset, String> {
        match s {
            "calm" => Ok(DstPreset::Calm),
            "moderate" => Ok(DstPreset::Moderate),
            "chaos" => Ok(DstPreset::Chaos),
            other => Err(format!("unknown DST preset {other:?} (calm|moderate|chaos)")),
        }
    }
}

/// Per-fault-point rates consumed by [`sample_schedule`]. Every fault
/// point the harness knows about has an explicit knob here, and every
/// preset sets every knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Max crash ops per schedule (distinct victims).
    pub crash_slots: u32,
    /// Probability of one injected-task-failure op.
    pub fail_task_p: f64,
    /// Max injected failures for that task.
    pub fail_times_max: u32,
    /// Probability of one slow-node op.
    pub slow_p: f64,
    /// Max per-attempt delay for the slow node, microseconds.
    pub slow_micros_max: u64,
    /// Max network ops (cut/delay/drop) per schedule.
    pub net_ops_max: u32,
    // Relative weights choosing which network op each slot becomes.
    pub cut_weight: u32,
    pub delay_weight: u32,
    pub drop_link_weight: u32,
    pub drop_kind_weight: u32,
    /// Probability a cut gets a matching heal later in the schedule.
    pub heal_p: f64,
    /// Max drop tokens per drop op.
    pub drop_n_max: u32,
    /// Cap on the *total* tokens any one link or RPC kind may
    /// accumulate across the schedule. Calm pins this below the
    /// transport's retry budget (`RetryPolicy::default().max_attempts`)
    /// so drops can never exhaust a retry loop.
    pub tokens_per_target_max: u32,
    /// Max mid-job node joins per schedule (elastic membership).
    pub join_slots_max: u32,
    /// Max mid-job graceful leaves per schedule. Leavers are drawn
    /// from the same availability pool as crash victims, so a leaver
    /// is never also scheduled to crash and at least two original
    /// members always survive. A leave voids at most one in-flight
    /// attempt per task, so calm keeps
    /// `fail_times_max + leave_slots_max < TASK_BUDGET` to stay benign
    /// by construction.
    pub leave_slots_max: u32,
    /// Max concurrent jobs per seed (≥ 1). The primary job carries the
    /// fault schedule and the chaos observer; siblings run the same
    /// workload concurrently through the multi-job registry, and every
    /// job's output and attempt ledger is checked independently — a
    /// shuffle-dedup bleed or a recovery walk that misses a live run
    /// shows up as a sibling divergence.
    pub concurrent_jobs_max: u32,
    /// Probability an epoch-mode seed crashes a node at an epoch
    /// barrier — between the wave's last map commit and the snapshot
    /// publish, the exact window where the fold and the materialized
    /// oCache state are in flight. Calm pins this to zero.
    pub epoch_crash_p: f64,
    /// Probability of one graceful leave fired at an epoch barrier.
    pub epoch_leave_p: f64,
    /// Probability of one RPC-kind drop burst armed at an epoch
    /// barrier (hits the publish `CachePut`s or the next wave's reads
    /// and shuffle). Calm pins this to zero.
    pub epoch_drop_p: f64,
}

impl FaultConfig {
    pub fn calm() -> FaultConfig {
        FaultConfig {
            crash_slots: 0,
            fail_task_p: 0.5,
            fail_times_max: TASK_BUDGET - 2,
            slow_p: 0.5,
            slow_micros_max: 3_000,
            net_ops_max: 2,
            cut_weight: 0,
            delay_weight: 3,
            drop_link_weight: 2,
            drop_kind_weight: 1,
            heal_p: 1.0,
            drop_n_max: 2,
            tokens_per_target_max: NET_BUDGET - 1,
            // fail_times_max (2) + leave_slots_max (1) < TASK_BUDGET:
            // a leave-voided attempt stacked on every injected failure
            // still leaves one attempt of budget, so calm stays benign.
            join_slots_max: 1,
            leave_slots_max: 1,
            concurrent_jobs_max: 2,
            // Zero is a decision: calm epoch runs exercise timing
            // pressure only, so every calm epoch seed must publish
            // byte-identical snapshots.
            epoch_crash_p: 0.0,
            epoch_leave_p: 0.0,
            epoch_drop_p: 0.0,
        }
    }

    pub fn moderate() -> FaultConfig {
        FaultConfig {
            crash_slots: 1,
            fail_task_p: 0.6,
            fail_times_max: TASK_BUDGET - 1,
            slow_p: 0.6,
            slow_micros_max: 5_000,
            net_ops_max: 3,
            cut_weight: 2,
            delay_weight: 2,
            drop_link_weight: 2,
            drop_kind_weight: 2,
            heal_p: 0.7,
            drop_n_max: 4,
            tokens_per_target_max: u32::MAX,
            join_slots_max: 1,
            leave_slots_max: 1,
            concurrent_jobs_max: 2,
            epoch_crash_p: 0.3,
            epoch_leave_p: 0.3,
            epoch_drop_p: 0.5,
        }
    }

    pub fn chaos() -> FaultConfig {
        FaultConfig {
            crash_slots: 2,
            fail_task_p: 0.7,
            fail_times_max: TASK_BUDGET + 2,
            slow_p: 0.7,
            slow_micros_max: 8_000,
            net_ops_max: 5,
            cut_weight: 3,
            delay_weight: 2,
            drop_link_weight: 3,
            drop_kind_weight: 3,
            heal_p: 0.5,
            drop_n_max: 6,
            tokens_per_target_max: u32::MAX,
            join_slots_max: 2,
            leave_slots_max: 2,
            concurrent_jobs_max: 3,
            epoch_crash_p: 0.5,
            epoch_leave_p: 0.5,
            epoch_drop_p: 0.7,
        }
    }
}

// ---------------------------------------------------------------------------
// Workload sampling
// ---------------------------------------------------------------------------

/// The two DST applications. Both reduce with order-insensitive
/// aggregates, so output is a pure function of the multiset of shuffled
/// records — exactly what the byte-identical oracle needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DstApp {
    /// Classic word count; `combiner` exercises the map-side combine
    /// path (partial sums re-summed at the reducer).
    WordCount { combiner: bool },
    /// Groups words by their first two characters and emits
    /// `count|max` per group — a no-combiner app whose reduce output
    /// still can't depend on value arrival order.
    KeySum,
}

impl MapReduce for DstApp {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        let text = String::from_utf8_lossy(block);
        for w in text.split_whitespace() {
            match self {
                DstApp::WordCount { .. } => emit(w.to_string(), "1".to_string()),
                DstApp::KeySum => emit(w.chars().take(2).collect(), w.to_string()),
            }
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        match self {
            DstApp::WordCount { .. } => {
                let total: u64 = values.iter().map(|v| v.parse::<u64>().unwrap_or(0)).sum();
                emit(key.to_string(), total.to_string());
            }
            DstApp::KeySum => {
                let max = values.iter().max().cloned().unwrap_or_default();
                emit(key.to_string(), format!("{}|{max}", values.len()));
            }
        }
    }

    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        match self {
            DstApp::WordCount { .. } => self.reduce(key, values, emit),
            DstApp::KeySum => {
                for v in values {
                    emit(key.to_string(), v.clone());
                }
            }
        }
    }

    fn has_combiner(&self) -> bool {
        matches!(self, DstApp::WordCount { combiner: true })
    }
}

/// Everything the seed decides about the job itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DstWorkload {
    pub seed: u64,
    pub app: DstApp,
    pub lines: usize,
    pub vocab: u64,
    pub nodes: usize,
    pub reducers: usize,
    pub laf: bool,
    pub block_size: u64,
    pub cache_shards: usize,
    pub map_slots: usize,
    pub speculation: bool,
    pub replication: usize,
    /// Epochs this seed runs: 1 = the classic one-shot batch flow;
    /// ≥ 2 = a standing job ([`crate::EpochDriver`]) that folds the
    /// input as that many barrier-aligned deltas and is judged against
    /// a one-shot batch over the concatenation.
    pub epochs: u32,
}

impl DstWorkload {
    /// Sample a workload from the seed. Pure: same seed, same workload.
    pub fn sample(seed: u64) -> DstWorkload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE1C1_05E0_0000_0001);
        let app = if rng.random_bool(0.5) {
            DstApp::WordCount { combiner: rng.random_bool(0.5) }
        } else {
            DstApp::KeySum
        };
        let nodes = rng.random_range(4..9usize);
        let speculation = rng.random_bool(0.25);
        let replication = if rng.random_bool(0.25) { 2 } else { 1 };
        // Speculation and replicated map-out both need a worker thread
        // per node on low-core hosts (see DESIGN.md §8h).
        let map_slots =
            if speculation || replication > 1 { nodes } else { rng.random_range(1..3usize) };
        // Sampled off its own stream so adding the continuous-job mode
        // left every existing seed's workload and schedule untouched.
        let mut erng = StdRng::seed_from_u64(seed ^ 0xE70C_4B12_0000_0004);
        let epochs = if erng.random_bool(0.3) { erng.random_range(2..=4u32) } else { 1 };
        DstWorkload {
            seed,
            app,
            lines: rng.random_range(60..321usize),
            vocab: rng.random_range(8..31u64),
            nodes,
            reducers: rng.random_range(1..6usize),
            laf: rng.random_bool(0.5),
            block_size: [256, 512, 1024][rng.random_range(0..3usize)],
            cache_shards: 1usize << rng.random_range(0..4u32),
            map_slots,
            speculation,
            replication,
            epochs,
        }
    }

    /// Deterministic input text for this workload.
    pub fn input(&self) -> String {
        self.text(0xD511_0000_0000_0002, |rng| rng.random_range(3..9usize))
    }

    /// Fixed-width-line input for epoch-mode seeds: every line is
    /// exactly 16 bytes (four 3-char words), and every
    /// sampled block size is a multiple of it. Block boundaries
    /// therefore never split a word — neither in the per-epoch delta
    /// files nor in the concatenated oracle file, whose boundaries
    /// fall at different input offsets. Without this alignment the
    /// epoch-vs-batch comparison would diverge on word halves, not on
    /// executor bugs.
    pub fn aligned_input(&self) -> String {
        self.text(0xA119_0000_0000_0005, |_| 4)
    }

    /// `lines` lines of `wNN` words drawn from the seed's `salt`
    /// stream, each line `words` long.
    fn text(&self, salt: u64, words: impl Fn(&mut StdRng) -> usize) -> String {
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt);
        let mut s = String::new();
        for _ in 0..self.lines {
            for i in 0..words(&mut rng) {
                if i > 0 {
                    s.push(' ');
                }
                let w = rng.random_range(0..self.vocab);
                s.push_str(&format!("w{w:02}"));
            }
            s.push('\n');
        }
        s
    }

    /// Split [`aligned_input`](Self::aligned_input) into `epochs`
    /// contiguous line-aligned deltas (the last takes the remainder).
    /// Concatenating them reproduces the aligned input byte for byte.
    pub fn epoch_deltas(&self) -> Vec<String> {
        let input = self.aligned_input();
        let epochs = self.epochs.max(1) as usize;
        let per = (self.lines / epochs).max(1) * ALIGNED_LINE;
        let mut out = Vec::with_capacity(epochs);
        let mut at = 0usize;
        for e in 0..epochs {
            let end = if e + 1 == epochs { input.len() } else { (at + per).min(input.len()) };
            out.push(input[at..end].to_string());
            at = end;
        }
        out
    }

    /// The cluster configuration this workload runs under.
    pub fn config(&self) -> LiveConfig {
        let sched = if self.laf {
            SchedulerKind::Laf(Default::default())
        } else {
            SchedulerKind::Delay(Default::default())
        };
        let mut c = LiveConfig::small()
            .with_nodes(self.nodes)
            .with_block_size(self.block_size)
            .with_cache_shards(self.cache_shards)
            .with_map_slots(self.map_slots)
            .with_scheduler(sched);
        if self.speculation {
            c = c.with_speculation(SpeculationConfig::default());
        }
        if self.replication > 1 {
            c = c.with_map_replication(self.replication);
        }
        c
    }
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

/// A point on the job's logical clock (see [`DstEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// After this many map commits.
    Maps(u64),
    /// After this many shuffle batches sent.
    Spills(u64),
    /// At this epoch's barrier — between the wave's last map commit
    /// and the snapshot publish ([`DstEvent::EpochBarrier`]). Only
    /// standing jobs reach these points.
    Epochs(u32),
}

/// One sampled fault. Crash/fail/slow ops compile into a [`FaultPlan`];
/// network ops are armed on a [`ChaosObserver`] and fire when the
/// executor's progress events reach their [`Point`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DstFault {
    CrashAtMaps { node: NodeId, maps: u64 },
    CrashAtSpills { node: NodeId, spills: u64 },
    CrashInReduce { node: NodeId },
    FailTask { task: usize, times: u32 },
    SlowNode { node: NodeId, micros: u64 },
    CutLink { from: NodeId, to: NodeId, at: Point, heal_at: Option<Point> },
    DelayLink { from: NodeId, to: NodeId, at: Point, salt: u64 },
    DropOnLink { from: NodeId, to: NodeId, at: Point, n: u32 },
    /// Drop the next `n` RPCs of `kind` from `at` on. At an epoch
    /// barrier the burst lands on the publish `CachePut`s and the next
    /// wave's reads, uploads, and shuffle.
    DropKind { kind: RpcKind, at: Point, n: u32 },
    /// Admit a fresh node once `at` map tasks have committed.
    JoinAtMaps { at: u64 },
    /// Gracefully retire `node` once `at` map tasks have committed.
    LeaveAtMaps { node: NodeId, at: u64 },
    /// Crash `node` at epoch `epoch`'s barrier — after the wave's maps
    /// committed, before the snapshot publish. Epoch-mode seeds only.
    CrashAtEpoch { node: NodeId, epoch: u32 },
    /// Gracefully retire `node` at epoch `epoch`'s barrier.
    LeaveAtEpoch { node: NodeId, epoch: u32 },
}

/// Every RPC kind a drop burst can target. The first
/// [`STREAM_KINDS`] are those a standing job exercises: delta uploads,
/// cached block reads, the shuffle plane, the materialized-snapshot
/// publish, and crash-recovery re-replication.
const KINDS: [RpcKind; 10] = [
    RpcKind::GetBlock,
    RpcKind::PutBlock,
    RpcKind::ReplicaSync,
    RpcKind::CacheGet,
    RpcKind::CachePut,
    RpcKind::ShuffleBatch,
    RpcKind::Heartbeat,
    RpcKind::TaskAssign,
    RpcKind::RangeHandoff,
    RpcKind::BlockPull,
];
const STREAM_KINDS: usize = 6;

fn sample_link(rng: &mut StdRng, nodes: &[NodeId]) -> (NodeId, NodeId) {
    let i = rng.random_range(0..nodes.len());
    let mut j = rng.random_range(0..nodes.len() - 1);
    if j >= i {
        j += 1;
    }
    (nodes[i], nodes[j])
}

/// Sample a fault schedule against a workload whose fault-free run
/// committed `maps` map tasks and sent `spills` shuffle batches (the
/// ranges the progress-keyed injection points are drawn from). Pure in
/// `rng`: same RNG state, same schedule.
pub fn sample_schedule(
    rng: &mut StdRng,
    cfg: &FaultConfig,
    nodes: &[NodeId],
    maps: u64,
    spills: u64,
) -> Vec<DstFault> {
    let (maps, spills) = (maps.max(1), spills.max(1));
    let mut out = Vec::new();

    // Crashes: distinct victims, random phase each.
    let slots = rng.random_range(0..=cfg.crash_slots);
    let mut avail: Vec<NodeId> = nodes.to_vec();
    for _ in 0..slots {
        if avail.len() <= 2 {
            // Never schedule a crash that leaves fewer than two
            // survivors; total-annihilation runs test nothing.
            break;
        }
        let node = avail.swap_remove(rng.random_range(0..avail.len()));
        out.push(match rng.random_range(0..3u32) {
            0 => DstFault::CrashAtMaps { node, maps: rng.random_range(1..=maps) },
            1 => DstFault::CrashAtSpills { node, spills: rng.random_range(1..=spills) },
            _ => DstFault::CrashInReduce { node },
        });
    }

    // Elastic membership: joins only add capacity, so they need no
    // survivor guard. Leavers come from the same availability pool as
    // crash victims — a leaver is never also a crash victim, and at
    // least two original members survive every schedule. Both are
    // armed on the map-commit logical clock and clamped to [1, maps]
    // so every scheduled event actually fires on a successful run.
    let joins = rng.random_range(0..=cfg.join_slots_max);
    for _ in 0..joins {
        out.push(DstFault::JoinAtMaps { at: rng.random_range(1..=maps) });
    }
    let leaves = rng.random_range(0..=cfg.leave_slots_max);
    for _ in 0..leaves {
        if avail.len() <= 2 {
            break;
        }
        let node = avail.swap_remove(rng.random_range(0..avail.len()));
        out.push(DstFault::LeaveAtMaps { node, at: rng.random_range(1..=maps) });
    }

    if rng.random_bool(cfg.fail_task_p) {
        out.push(DstFault::FailTask {
            task: rng.random_range(0..maps) as usize,
            times: rng.random_range(1..=cfg.fail_times_max),
        });
    }
    if rng.random_bool(cfg.slow_p) {
        out.push(DstFault::SlowNode {
            node: nodes[rng.random_range(0..nodes.len())],
            micros: rng.random_range(500..=cfg.slow_micros_max),
        });
    }

    sample_net_ops(rng, cfg, nodes, cfg.drop_kind_weight, &mut out, |rng| {
        if rng.random_bool(0.5) {
            Point::Maps(rng.random_range(1..=maps))
        } else {
            Point::Spills(rng.random_range(1..=spills))
        }
    });
    out
}

/// Sample a fault schedule for an epoch-mode seed: barrier-point node
/// crashes, graceful leaves, and drop bursts (the new fault points),
/// plus in-wave network ops keyed off the map-commit clock. Executor
/// fault-plan ops (`CrashAtMaps`, `FailTask`, …) are deliberately
/// absent — an injected plan is drained whole by the first wave to
/// begin, so the sampler could not aim them at an epoch.
/// `wave_maps` is the smallest wave's map count, so every sampled
/// in-wave point actually fires.
pub fn sample_epoch_schedule(
    rng: &mut StdRng,
    cfg: &FaultConfig,
    nodes: &[NodeId],
    epochs: u32,
    wave_maps: u64,
) -> Vec<DstFault> {
    let epochs = epochs.max(1);
    let wave_maps = wave_maps.max(1);
    let mut out = Vec::new();

    // Barrier-point membership faults: distinct victims, and never
    // below two survivors (nodes ≥ 4, at most one crash + one leave).
    let mut avail: Vec<NodeId> = nodes.to_vec();
    if rng.random_bool(cfg.epoch_crash_p) && avail.len() > 2 {
        let node = avail.swap_remove(rng.random_range(0..avail.len()));
        out.push(DstFault::CrashAtEpoch { node, epoch: rng.random_range(1..=epochs) });
    }
    if rng.random_bool(cfg.epoch_leave_p) && avail.len() > 2 {
        let node = avail.swap_remove(rng.random_range(0..avail.len()));
        out.push(DstFault::LeaveAtEpoch { node, epoch: rng.random_range(1..=epochs) });
    }
    if rng.random_bool(cfg.epoch_drop_p) {
        out.push(DstFault::DropKind {
            kind: KINDS[rng.random_range(0..STREAM_KINDS)],
            at: Point::Epochs(rng.random_range(1..=epochs)),
            n: rng.random_range(1..=cfg.drop_n_max.max(1)),
        });
    }

    // In-wave network pressure on the map-commit clock; per-kind drop
    // bursts come only at barriers (above).
    sample_net_ops(rng, cfg, nodes, 0, &mut out, |rng| {
        Point::Maps(rng.random_range(1..=wave_maps))
    });
    out
}

/// Draw up to `cfg.net_ops_max` network ops into `out`, each at a point
/// `point` draws, with drops budgeted per target so calm stays under
/// the retry budget on every link and kind. `kind_weight` weighs
/// per-kind drop bursts against cuts, delays and per-link drops.
fn sample_net_ops(
    rng: &mut StdRng,
    cfg: &FaultConfig,
    nodes: &[NodeId],
    kind_weight: u32,
    out: &mut Vec<DstFault>,
    point: impl Fn(&mut StdRng) -> Point,
) {
    let mut link_tokens: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    let mut kind_tokens: HashMap<RpcKind, u32> = HashMap::new();
    // A burst's size, within what its target has left of the budget.
    let burst = |rng: &mut StdRng, used: &mut u32| {
        let budget = cfg.tokens_per_target_max.saturating_sub(*used).min(cfg.drop_n_max);
        (budget > 0).then(|| {
            let n = rng.random_range(1..=budget);
            *used += n;
            n
        })
    };
    let total_w = cfg.cut_weight + cfg.delay_weight + cfg.drop_link_weight + kind_weight;
    let ops = rng.random_range(0..=cfg.net_ops_max);
    for salt in 0..ops {
        if total_w == 0 {
            break;
        }
        let at = point(rng);
        let (from, to) = sample_link(rng, nodes);
        let w = rng.random_range(0..total_w);
        if w < cfg.cut_weight {
            let heal_at = if rng.random_bool(cfg.heal_p) {
                Some(match at {
                    Point::Maps(m) => Point::Maps(m + rng.random_range(1..4u64)),
                    Point::Spills(s) => Point::Spills(s + rng.random_range(1..4u64)),
                    // `point` never draws epoch points.
                    p => p,
                })
            } else {
                None
            };
            out.push(DstFault::CutLink { from, to, at, heal_at });
        } else if w < cfg.cut_weight + cfg.delay_weight {
            out.push(DstFault::DelayLink { from, to, at, salt: u64::from(salt) + 1 });
        } else if w < cfg.cut_weight + cfg.delay_weight + cfg.drop_link_weight {
            let Some(n) = burst(rng, link_tokens.entry((from, to)).or_default()) else { continue };
            out.push(DstFault::DropOnLink { from, to, at, n });
        } else {
            let kind = KINDS[rng.random_range(0..KINDS.len())];
            let Some(n) = burst(rng, kind_tokens.entry(kind).or_default()) else { continue };
            out.push(DstFault::DropKind { kind, at, n });
        }
    }
}

// ---------------------------------------------------------------------------
// Progress-keyed network fault injection
// ---------------------------------------------------------------------------

/// A transport fault a [`ChaosObserver`] can fire at a [`Point`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOp {
    Cut { from: NodeId, to: NodeId },
    Heal { from: NodeId, to: NodeId },
    Delay { from: NodeId, to: NodeId, salt: u64 },
    DropLink { from: NodeId, to: NodeId, n: u32 },
    DropKind { kind: RpcKind, n: u32 },
}

/// A fault a [`ChaosObserver`] can fire at a [`Point`]: a transport
/// op, or — for epoch-mode runs that hold a cluster handle — a
/// node-level membership fault at an epoch barrier.
#[derive(Clone, Debug)]
pub enum ChaosOp {
    Net(NetOp),
    /// Crash the node via [`LiveCluster::crash_node`].
    Crash { node: NodeId },
    /// Gracefully retire the node via [`LiveCluster::leave_node`].
    Leave { node: NodeId },
}

/// A [`DstObserver`] that arms [`MemTransport`] faults (and, given a
/// cluster handle, node-level barrier faults) and fires each one the
/// first time the executor's logical clock reaches its [`Point`].
/// Counts fired actions for the `faults_injected` total. Also usable
/// directly from tests to stage a hand-written progress-keyed net
/// fault (see `tests/chaos.rs`).
///
/// Given a cluster handle it also checks the **membership invariant**
/// after every crash, join and leave, whatever its outcome: the
/// membership epoch moved, the published ring equals the DHT FS ring,
/// the cache ranges equal the scheduler's and tile the key space, and
/// no range names a node outside the ring. The first violation is kept for
/// the oracle ([`membership_violation`](Self::membership_violation)).
pub struct ChaosObserver {
    net: Arc<MemTransport>,
    /// Needed for node-level ops and the membership invariant; tests
    /// that stage a transport fault by hand leave it empty.
    cluster: Option<Arc<LiveCluster>>,
    pending: Mutex<Vec<(Point, ChaosOp)>>,
    fired: AtomicU64,
    membership: Mutex<MembershipLog>,
}

/// What the membership invariant has seen so far.
#[derive(Default)]
struct MembershipLog {
    /// The membership epoch after the last change checked.
    epoch: u64,
    /// The last change event checked, with its epoch: a change
    /// accounted to several runs reports the same event to each.
    last: Option<(DstEvent, u64)>,
    checks: u64,
    violation: Option<String>,
}

impl ChaosObserver {
    pub fn new(net: Arc<MemTransport>, armed: Vec<(Point, NetOp)>) -> ChaosObserver {
        let armed = armed.into_iter().map(|(at, op)| (at, ChaosOp::Net(op))).collect();
        ChaosObserver::armed(net, None, armed)
    }

    /// Observer holding the cluster: barrier points can crash or retire
    /// nodes, not just disturb the transport, and every membership
    /// change is checked against the membership invariant. The caller
    /// breaks the observer↔cluster cycle with
    /// `cluster.set_observer(None)` once its runs are registered or
    /// done.
    pub fn with_cluster(
        net: Arc<MemTransport>,
        cluster: Arc<LiveCluster>,
        armed: Vec<(Point, ChaosOp)>,
    ) -> ChaosObserver {
        ChaosObserver::armed(net, Some(cluster), armed)
    }

    fn armed(
        net: Arc<MemTransport>,
        cluster: Option<Arc<LiveCluster>>,
        armed: Vec<(Point, ChaosOp)>,
    ) -> ChaosObserver {
        let epoch = cluster.as_ref().map_or(0, |c| c.epoch());
        ChaosObserver {
            net,
            cluster,
            pending: Mutex::new(armed),
            fired: AtomicU64::new(0),
            membership: Mutex::new(MembershipLog { epoch, ..MembershipLog::default() }),
        }
    }

    /// How many armed ops have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// The first membership-invariant violation seen, if any.
    pub fn membership_violation(&self) -> Option<String> {
        self.membership.lock().violation.clone()
    }

    /// How many membership changes the invariant checked.
    pub fn membership_checks(&self) -> u64 {
        self.membership.lock().checks
    }

    /// Check the membership invariant after `change`. `moved` says
    /// whether the membership epoch must have moved past the last one
    /// checked: a change the cluster refused (a departed victim, an
    /// unknown leaver) publishes nothing.
    fn check_membership(&self, c: &LiveCluster, change: &dyn fmt::Debug, moved: bool) {
        let epoch = c.epoch();
        let mut log = self.membership.lock();
        log.checks += 1;
        let fault = if moved && epoch <= log.epoch {
            Some(format!("the membership epoch stayed at {epoch}"))
        } else {
            c.membership_fault()
        };
        log.epoch = log.epoch.max(epoch);
        if let Some(f) = fault {
            log.violation.get_or_insert(format!("after {change:?}: {f}"));
        }
    }

    fn apply(&self, act: ChaosOp) {
        match act {
            ChaosOp::Net(NetOp::Cut { from, to }) => self.net.cut_one_way(from, to),
            ChaosOp::Net(NetOp::Heal { from, to }) => self.net.heal_link(from, to),
            ChaosOp::Net(NetOp::Delay { from, to, salt }) => {
                self.net.delay_link_seeded(from, to, salt);
            }
            ChaosOp::Net(NetOp::DropLink { from, to, n }) => {
                self.net.drop_next_on_link(from, to, n)
            }
            ChaosOp::Net(NetOp::DropKind { kind, n }) => self.net.drop_rpcs(kind, n),
            // Node-level barrier faults are best-effort by design: a
            // recovery error here surfaces through the job's own typed
            // result, which is what the oracle judges. The membership
            // invariant holds after either outcome, and the epoch moves
            // unless the call was refused; a change made while a run
            // is live was already checked through its event.
            ChaosOp::Crash { node } | ChaosOp::Leave { node } => {
                if let Some(c) = &self.cluster {
                    let before = c.epoch();
                    let res = match act {
                        ChaosOp::Crash { .. } => c.crash_node(node),
                        _ => c.leave_node(node),
                    };
                    let refused = matches!(res, Err(FsError::Ring(_)));
                    let seen = self.membership.lock().epoch > before;
                    self.check_membership(c, &act, !refused && !seen);
                }
            }
        }
    }
}

impl DstObserver for ChaosObserver {
    fn on_event(&self, ev: DstEvent) {
        if let (
            Some(c),
            DstEvent::NodeCrashed { .. } | DstEvent::NodeJoined { .. } | DstEvent::NodeLeft { .. },
        ) = (&self.cluster, ev)
        {
            let epoch = c.epoch();
            let repeat = self.membership.lock().last == Some((ev, epoch));
            if !repeat {
                self.check_membership(c, &ev, true);
                self.membership.lock().last = Some((ev, epoch));
            }
            return;
        }
        let mut due = Vec::new();
        {
            let mut pending = self.pending.lock();
            pending.retain(|(at, act)| {
                let fire = match (ev, *at) {
                    (DstEvent::MapCommitted { done }, Point::Maps(m)) => m <= done,
                    (DstEvent::SpillSent { sent }, Point::Spills(s)) => s <= sent,
                    (DstEvent::EpochBarrier { epoch }, Point::Epochs(e)) => e <= epoch,
                    _ => false,
                };
                if fire {
                    due.push(act.clone());
                }
                !fire
            });
        }
        for act in due {
            self.apply(act);
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Which typed terminal errors a schedule could legitimately cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allowed {
    pub task_failed: bool,
    pub data_loss: bool,
}

/// Decide, from the schedule alone, which typed errors are excusable.
/// The predicate is deliberately conservative in the *strict*
/// direction: a schedule with no crash, no cut, and every drop burst
/// under the retry budget allows nothing — those runs must be
/// byte-identical, full stop.
pub fn allowed_errors(schedule: &[DstFault]) -> Allowed {
    let mut fail_times = 0u32;
    let mut fail_task = false;
    let mut cuts = false;
    let mut any_drop = false;
    let mut leaves = 0u32;
    let mut link_tokens: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    let mut kind_tokens: HashMap<RpcKind, u32> = HashMap::new();
    for f in schedule {
        match *f {
            // Counted by `crash_victims` below.
            DstFault::CrashAtMaps { .. }
            | DstFault::CrashAtSpills { .. }
            | DstFault::CrashInReduce { .. }
            | DstFault::CrashAtEpoch { .. } => {}
            DstFault::FailTask { times, .. } => {
                fail_task = true;
                fail_times = fail_times.max(times);
            }
            DstFault::SlowNode { .. } | DstFault::DelayLink { .. } => {}
            DstFault::CutLink { .. } => cuts = true,
            DstFault::DropOnLink { from, to, n, .. } => {
                any_drop = true;
                *link_tokens.entry((from, to)).or_insert(0) += n;
            }
            // A barrier drop burst spends kind tokens exactly like a
            // mid-job one.
            DstFault::DropKind { kind, n, .. } => {
                any_drop = true;
                *kind_tokens.entry(kind).or_insert(0) += n;
            }
            // A join adds capacity and excuses nothing. A leave alone
            // excuses nothing either — its handoff falls back through
            // every surviving replica — but each leave (mid-job or at a
            // barrier) can void one in-flight attempt per task,
            // charging the retry budget, so it counts toward the
            // exhaustion arithmetic below.
            DstFault::JoinAtMaps { .. } => {}
            DstFault::LeaveAtMaps { .. } | DstFault::LeaveAtEpoch { .. } => leaves += 1,
        }
    }
    // Budget arithmetic: injected failures plus one possible
    // leave-void per leave may exhaust MAX_ATTEMPTS.
    let kill_task = fail_times > 0 && fail_times + leaves >= TASK_BUDGET;
    let heavy_drops = link_tokens.values().any(|&n| n >= NET_BUDGET)
        || kind_tokens.values().any(|&n| n >= NET_BUDGET);
    // A barrier crash is a crash: one alone still excuses nothing,
    // since barrier recovery must converge before the next wave.
    let crashes = crash_victims(schedule).len();
    Allowed {
        // A task dies for good when its attempt budget is exhausted:
        // directly (times ≥ budget), by retries burning against a
        // partition or a heavy drop burst, or by crash-voided attempts
        // stacking on injected failures.
        task_failed: kill_task
            || cuts
            || heavy_drops
            || crashes >= 2
            || (fail_task && crashes >= 1),
        // Replicas only vanish when multiple holders die, or when a
        // partition/drop burst makes a live holder unreachable through
        // the whole retry budget during recovery.
        data_loss: crashes >= 2 || cuts || heavy_drops || (crashes >= 1 && any_drop),
    }
}

/// The distinct nodes a schedule crashes, in any phase.
fn crash_victims(schedule: &[DstFault]) -> Vec<NodeId> {
    let mut victims = Vec::new();
    for f in schedule {
        if let DstFault::CrashAtMaps { node, .. }
        | DstFault::CrashAtSpills { node, .. }
        | DstFault::CrashInReduce { node }
        | DstFault::CrashAtEpoch { node, .. } = *f
        {
            if !victims.contains(&node) {
                victims.push(node);
            }
        }
    }
    victims
}

/// Per-job attempt-ledger invariants — the subset of [`check_stats`]
/// that holds for *every* job in a run, including siblings sharing the
/// cluster with the fault-carrying primary. Each job has its own
/// commit board and counters, so a cross-job dedup bleed (one job's
/// shuffle batches settled against another's ledger) breaks these.
pub fn check_job_ledger(stats: &LiveStats, checks: &mut u64) -> Result<(), String> {
    macro_rules! inv {
        ($cond:expr, $($msg:tt)*) => {{
            *checks += 1;
            if !$cond {
                return Err(format!($($msg)*));
            }
        }};
    }

    inv!(
        stats.attempts == stats.map_tasks + stats.retries + stats.speculative_attempts,
        "attempts {} != map_tasks {} + retries {} + speculative {}",
        stats.attempts,
        stats.map_tasks,
        stats.retries,
        stats.speculative_attempts
    );
    inv!(
        stats.speculative_wins <= stats.speculative_attempts,
        "speculative_wins {} > speculative_attempts {}",
        stats.speculative_wins,
        stats.speculative_attempts
    );
    inv!(
        stats.speculative_wins + stats.retries <= stats.attempts - stats.map_tasks,
        "wins {} + retries {} exceed surplus attempts {}",
        stats.speculative_wins,
        stats.retries,
        stats.attempts - stats.map_tasks
    );
    inv!(
        stats.tasks_per_node.iter().sum::<u64>() == stats.map_tasks,
        "tasks_per_node sums to {} != map_tasks {}",
        stats.tasks_per_node.iter().sum::<u64>(),
        stats.map_tasks
    );
    Ok(())
}

/// Check the [`LiveStats`] accounting invariants for a successful run.
/// Increments `checks` once per invariant evaluated; returns the first
/// violation.
pub fn check_stats(
    stats: &LiveStats,
    w: &DstWorkload,
    schedule: &[DstFault],
    checks: &mut u64,
) -> Result<(), String> {
    macro_rules! inv {
        ($cond:expr, $($msg:tt)*) => {{
            *checks += 1;
            if !$cond {
                return Err(format!($($msg)*));
            }
        }};
    }

    check_job_ledger(stats, checks)?;
    let planned_joins =
        schedule.iter().filter(|f| matches!(f, DstFault::JoinAtMaps { .. })).count() as u64;
    let planned_leaves =
        schedule.iter().filter(|f| matches!(f, DstFault::LeaveAtMaps { .. })).count() as u64;
    inv!(
        stats.tasks_per_node.len() == w.nodes + planned_joins as usize,
        "tasks_per_node has {} entries for {} nodes + {} joins",
        stats.tasks_per_node.len(),
        w.nodes,
        planned_joins
    );
    // Every map-commit count is reached on a successful run, so every
    // scheduled elastic event fired exactly once (leavers are never
    // crash victims, so no leave degenerates into a no-op).
    inv!(
        stats.joins == planned_joins,
        "joins {} != scheduled {}",
        stats.joins,
        planned_joins
    );
    inv!(
        stats.leaves == planned_leaves,
        "leaves {} != scheduled {}",
        stats.leaves,
        planned_leaves
    );
    if planned_leaves == 0 {
        inv!(
            stats.drained_tasks == 0,
            "drained {} tasks with no scheduled leave",
            stats.drained_tasks
        );
    }
    if planned_joins == 0 && planned_leaves == 0 {
        inv!(
            stats.handoff_blocks == 0 && stats.handoff_bytes == 0,
            "phantom handoff without elastic events: blocks={} bytes={}",
            stats.handoff_blocks,
            stats.handoff_bytes
        );
    }
    if w.replication == 1 {
        inv!(
            stats.cache_hits + stats.cache_misses >= stats.map_tasks,
            "cache lookups {} < map_tasks {} (every commit reads its block)",
            stats.cache_hits + stats.cache_misses,
            stats.map_tasks
        );
    }

    let crash_victims = crash_victims(schedule);
    let map_crashes =
        schedule.iter().filter(|f| matches!(f, DstFault::CrashAtMaps { .. })).count() as u64;
    if crash_victims.is_empty() {
        // Crash recovery counters stay crash-only: a graceful leave
        // re-homes blocks through the handoff counters, never these.
        inv!(
            stats.failed_nodes == 0 && stats.recovered_blocks == 0,
            "phantom recovery on a crash-free schedule: failed={} recovered={}",
            stats.failed_nodes,
            stats.recovered_blocks
        );
    } else {
        inv!(
            stats.failed_nodes <= crash_victims.len() as u64,
            "failed_nodes {} exceeds scheduled victims {}",
            stats.failed_nodes,
            crash_victims.len()
        );
        // A map-phase crash trigger always fires on a successful run
        // (every map commit count is reached), so recovery must have
        // handled at least those victims.
        inv!(
            stats.failed_nodes >= map_crashes,
            "failed_nodes {} < {} scheduled map-phase crashes",
            stats.failed_nodes,
            map_crashes
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Running, shrinking, reporting
// ---------------------------------------------------------------------------

/// Outcome of one schedule execution, before shrinking: a match
/// (`Ok(None)`), an allowed terminal error (`Ok(Some(_))`), or an
/// oracle violation's reason.
type Outcome = Result<Option<JobError>, String>;

/// A terminal error's kind, as sweeps tally allowed errors.
fn error_kind(e: &JobError) -> &'static str {
    match e {
        JobError::Open(_) => "open",
        JobError::DataLoss(_) => "data_loss",
        JobError::TaskFailed { .. } => "task_failed",
        JobError::ReduceFailed { .. } => "reduce_failed",
        JobError::Cancelled => "cancelled",
        JobError::InvalidRequest(_) => "invalid_request",
    }
}

/// Final verdict of a seeded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Output byte-identical to the fault-free run, invariants hold.
    Match,
    /// A typed terminal error the schedule legitimately allows: its
    /// kind (`task_failed`, `data_loss`) and message.
    AllowedError { kind: &'static str, reason: String },
    /// Oracle violation: wrong output, bad accounting, or a
    /// disallowed error. Carries the shrunk schedule and a repro line.
    Fail { reason: String, minimal: Vec<DstFault>, repro: String },
}

impl Verdict {
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail { .. })
    }
}

/// Everything one seeded run produced.
#[derive(Clone, Debug)]
pub struct DstReport {
    pub seed: u64,
    pub preset: DstPreset,
    pub workload: DstWorkload,
    pub schedule: Vec<DstFault>,
    pub verdict: Verdict,
    pub faults_injected: u64,
    pub oracle_checks: u64,
    /// Jobs run concurrently on the cluster this seed (1 = the
    /// primary alone), sampled from the preset's
    /// `concurrent_jobs_max`.
    pub concurrent_jobs: u32,
}

impl DstReport {
    pub fn passed(&self) -> bool {
        !self.verdict.is_fail()
    }
}

/// The one-line replay command printed on failure.
pub fn repro_line(seed: u64, preset: DstPreset) -> String {
    format!(
        "DST_SEED={seed} DST_PRESET={preset} cargo test -p eclipse-integration-tests \
         --test dst replay_env_seed -- --nocapture"
    )
}

/// What a seed runs besides its workload and schedule.
enum Case {
    /// A one-shot batch over `input`, run by `jobs` concurrent jobs.
    Batch { input: String, jobs: u32 },
    /// A standing job that commits each delta as one epoch.
    Stream { deltas: Vec<String> },
}

/// One batch job's output and stats, or its terminal error.
type JobResult = Result<(Vec<(String, String)>, LiveStats), JobError>;

/// What driving a case under injection leaves to judge.
enum Driven<'a> {
    /// The primary job's result, then each sibling's, over an input of
    /// `blocks` blocks.
    Jobs { blocks: u64, primary: JobResult, siblings: Vec<JobResult> },
    /// The stream over `deltas` and how its commits ended (see
    /// [`commit_each`]).
    Stream { deltas: &'a [String], driver: EpochDriver, ended: Outcome },
}

/// Compile a schedule: executor-side ops into the [`FaultPlan`] the
/// next run drains, everything else into [`ChaosObserver`] actions at
/// the [`Point`] they fire.
fn arm(schedule: &[DstFault]) -> (FaultPlan, Vec<(Point, ChaosOp)>) {
    let mut plan = FaultPlan::new();
    let mut armed = Vec::new();
    for f in schedule {
        match *f {
            DstFault::CrashAtMaps { node, maps } => plan = plan.crash_after_maps(node, maps),
            DstFault::CrashAtSpills { node, spills } => {
                plan = plan.crash_after_spills(node, spills)
            }
            DstFault::CrashInReduce { node } => plan = plan.crash_in_reduce(node),
            DstFault::FailTask { task, times } => plan = plan.fail_task(task, times),
            DstFault::SlowNode { node, micros } => plan = plan.slow_node(node, micros),
            DstFault::JoinAtMaps { at } => plan = plan.join_at_maps(at),
            DstFault::LeaveAtMaps { node, at } => plan = plan.leave_at_maps(node, at),
            DstFault::CutLink { from, to, at, heal_at } => {
                armed.push((at, ChaosOp::Net(NetOp::Cut { from, to })));
                if let Some(h) = heal_at {
                    armed.push((h, ChaosOp::Net(NetOp::Heal { from, to })));
                }
            }
            DstFault::DelayLink { from, to, at, salt } => {
                armed.push((at, ChaosOp::Net(NetOp::Delay { from, to, salt })));
            }
            DstFault::DropOnLink { from, to, at, n } => {
                armed.push((at, ChaosOp::Net(NetOp::DropLink { from, to, n })));
            }
            DstFault::DropKind { kind, at, n } => {
                armed.push((at, ChaosOp::Net(NetOp::DropKind { kind, n })));
            }
            DstFault::CrashAtEpoch { node, epoch } => {
                armed.push((Point::Epochs(epoch), ChaosOp::Crash { node }));
            }
            DstFault::LeaveAtEpoch { node, epoch } => {
                armed.push((Point::Epochs(epoch), ChaosOp::Leave { node }));
            }
        }
    }
    (plan, armed)
}

/// Whether `allowed` excuses the terminal error `e`.
fn excused(allowed: &Allowed, e: &JobError) -> bool {
    match e {
        JobError::TaskFailed { .. } => allowed.task_failed,
        JobError::DataLoss(_) => allowed.data_loss,
        JobError::Open(_)
        | JobError::Cancelled
        | JobError::InvalidRequest(_)
        | JobError::ReduceFailed { .. } => false,
    }
}

/// Execute `schedule` against the seed's case on a fresh cluster and
/// judge it. Arm the schedule and install the chaos observer, drive
/// the batch jobs or the stream, remove the observer and heal the
/// transport, check the membership invariant, then hold the case to
/// its own oracle. Returns the outcome, the faults injected (planned
/// plus fired) and the oracle checks made.
fn run_schedule(
    w: &DstWorkload,
    case: &Case,
    schedule: &[DstFault],
    expect: &[(String, String)],
) -> (Outcome, u64, u64) {
    let c = Arc::new(LiveCluster::new(w.config()));
    if let Case::Batch { input, .. } = case {
        c.upload(INPUT, DST_USER, input.as_bytes());
    }
    let net = c.mem_net().expect("DST drives the in-memory transport").clone();
    net.seed_faults(w.seed);
    let (plan, armed) = arm(schedule);
    let planned = plan.len() as u64;
    c.inject_faults(plan);
    let obs = Arc::new(ChaosObserver::with_cluster(net.clone(), Arc::clone(&c), armed));
    c.set_observer(Some(obs.clone() as Arc<dyn DstObserver>));

    let mut checks = 0u64;
    let driven = match case {
        Case::Batch { input, jobs } => {
            let (primary, siblings) = run_jobs(&c, w, *jobs);
            let blocks = (input.len() as u64).div_ceil(w.block_size);
            Driven::Jobs { blocks, primary, siblings }
        }
        Case::Stream { deltas } => commit_stream(&c, w, deltas, &mut checks),
    };
    // Break the observer↔cluster cycle and stop injecting before the
    // oracle reads back through the healed transport.
    c.set_observer(None);
    net.heal_all();

    let injected = planned + obs.fired();
    checks += obs.membership_checks();
    if let Some(v) = obs.membership_violation() {
        return (Err(format!("membership invariant violated {v}")), injected, checks);
    }
    let judge = Judge { w, schedule, expect, allowed: allowed_errors(schedule) };
    let outcome = match driven {
        Driven::Jobs { blocks, primary, siblings } => {
            judge.jobs(blocks, primary, siblings, &mut checks)
        }
        Driven::Stream { deltas, driver, ended } => {
            judge.stream(deltas, driver, ended, &mut checks)
        }
    };
    (outcome, injected, checks)
}

/// Run the batch case: the primary job drains the fault plan and
/// carries the chaos observer; sibling jobs start only after the
/// primary has registered (or already finished), so faults and
/// progress-keyed injection points bind to the primary
/// deterministically. Siblings share the cluster — cache, transport,
/// recovery walks — and are judged by the same output oracle and their
/// own attempt ledgers.
fn run_jobs(c: &LiveCluster, w: &DstWorkload, jobs: u32) -> (JobResult, Vec<JobResult>) {
    let run = || c.try_run_job(&w.app, INPUT, DST_USER, w.reducers, ReusePolicy::default());
    let primary_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let primary = s.spawn(|| {
            let r = run();
            primary_done.store(true, Ordering::Release);
            r
        });
        while c.active_jobs() == 0 && !primary_done.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        // From here on new runs see no observer: the logical clock
        // driving injection points is the primary's alone.
        c.set_observer(None);
        let sibs: Vec<_> = (1..jobs).map(|_| s.spawn(run)).collect();
        let siblings = sibs.into_iter().map(|h| h.join().expect("sibling job panicked")).collect();
        (primary.join().expect("primary job panicked"), siblings)
    })
}

/// Run the stream case: open a standing job and commit every delta as
/// one epoch.
fn commit_stream<'a>(
    c: &Arc<LiveCluster>,
    w: &DstWorkload,
    deltas: &'a [String],
    checks: &mut u64,
) -> Driven<'a> {
    let driver = EpochDriver::new(
        Arc::clone(c),
        StreamSpec {
            app: Arc::new(w.app),
            name: "dst-stream".to_string(),
            user: DST_USER.to_string(),
            reducers: w.reducers,
        },
    );
    let ended = commit_each(&driver, deltas, checks);
    Driven::Stream { deltas, driver, ended }
}

/// Commit each delta as one epoch until one fails: `Ok(Some(e))` when
/// `e` stopped the stream, `Err` when a commit did not publish its own
/// epoch or balance its wave's attempt ledger.
fn commit_each(driver: &EpochDriver, deltas: &[String], checks: &mut u64) -> Outcome {
    for (i, delta) in deltas.iter().enumerate() {
        let rep = match driver.commit_epoch(delta.as_bytes()) {
            Ok(rep) => rep,
            Err(e) => return Ok(Some(e)),
        };
        *checks += 1;
        if rep.epoch != i as u32 + 1 || driver.published() != rep.epoch {
            return Err(format!(
                "commit {} published board at {} (read-your-epoch broken)",
                i + 1,
                driver.published()
            ));
        }
        check_job_ledger(&rep.stats, checks)
            .map_err(|e| format!("epoch {} wave ledger violated: {e}", rep.epoch))?;
    }
    Ok(None)
}

/// The oracle an executed schedule is held to: the fault-free output
/// and the typed errors the schedule excuses.
struct Judge<'a> {
    w: &'a DstWorkload,
    schedule: &'a [DstFault],
    expect: &'a [(String, String)],
    allowed: Allowed,
}

impl Judge<'_> {
    /// Judge the batch case: the primary's output bytes and stats
    /// invariants, then every sibling, whose failure outranks a primary
    /// match or allowed error.
    fn jobs(
        &self,
        blocks: u64,
        primary: JobResult,
        siblings: Vec<JobResult>,
        checks: &mut u64,
    ) -> Outcome {
        *checks += 1;
        let stop = match primary {
            Ok((out, stats)) => {
                self.same_output(&out)?;
                check_stats(&stats, self.w, self.schedule, checks)
                    .map_err(|e| format!("stats invariant violated: {e}"))?;
                None
            }
            Err(e) if excused(&self.allowed, &e) => Some(e),
            Err(e) => return Err(format!("disallowed terminal error: {e}")),
        };
        // With replication 1 every block commits exactly one map task.
        // Replicated map-out adds up to r−1 extra placements per block,
        // but drops any whose partition mask comes up empty (the count
        // depends on ring geometry at the sibling's start), so the
        // bleed check is a band: below it a task vanished into another
        // job's ledger, above it another job's commits leaked into
        // this one.
        let maps = blocks..=blocks * self.w.replication as u64;
        for (i, r) in siblings.into_iter().enumerate() {
            self.sibling(r, &maps, checks).map_err(|why| format!("concurrent job {i} {why}"))?;
        }
        Ok(stop)
    }

    /// A job's output against the fault-free bytes.
    fn same_output(&self, out: &[(String, String)]) -> Result<(), String> {
        if out == self.expect {
            return Ok(());
        }
        Err(format!("output diverged: {} rows vs {} expected", out.len(), self.expect.len()))
    }

    /// Judge one sibling job: the same expected bytes (the workload is
    /// identical and output is placement-independent), the same
    /// allowed errors (crashes and partitions hit every live job), its
    /// own attempt ledger, and a committed-map count within `maps`.
    fn sibling(
        &self,
        r: JobResult,
        maps: &std::ops::RangeInclusive<u64>,
        checks: &mut u64,
    ) -> Result<(), String> {
        *checks += 1;
        let (out, stats) = match r {
            Ok(r) => r,
            Err(e) if excused(&self.allowed, &e) => return Ok(()),
            Err(e) => return Err(format!("disallowed terminal error: {e}")),
        };
        self.same_output(&out)?;
        *checks += 1;
        if !maps.contains(&stats.map_tasks) {
            return Err(format!(
                "committed {} maps for {} blocks at r={} (cross-job dedup bleed?)",
                stats.map_tasks,
                maps.start(),
                self.w.replication
            ));
        }
        check_job_ledger(&stats, checks).map_err(|e| format!("ledger violated: {e}"))
    }

    /// Judge the stream case. The oracle is layered: every committed
    /// wave's ledger balanced and the publish board advanced once per
    /// commit (checked while committing), a terminal error comes from
    /// the allowed set, and whatever epoch ends up published reads
    /// back byte-identical to a fault-free batch over exactly the
    /// deltas folded so far, even when a later epoch died to an
    /// excused fault (the readable-at-previous-epoch contract).
    fn stream(
        &self,
        deltas: &[String],
        driver: EpochDriver,
        ended: Outcome,
        checks: &mut u64,
    ) -> Outcome {
        let stop = ended?;
        if let Some(e) = &stop {
            *checks += 1;
            if !excused(&self.allowed, e) {
                let at = driver.published() + 1;
                return Err(format!("disallowed terminal error at epoch {at}: {e}"));
            }
        }
        let k = driver.published();
        *checks += 1;
        if stop.is_none() && k as usize != deltas.len() {
            return Err(format!(
                "every epoch committed but the board stopped at {k} of {}",
                deltas.len()
            ));
        }
        if k > 0 {
            let snap = driver.snapshot(k).ok_or_else(|| format!("published epoch {k} unreadable"))?;
            let flat = merge_sorted_pairs(snap.iter().map(|p| p.iter().cloned().collect()));
            let partial;
            let want = if k as usize == deltas.len() {
                self.expect
            } else {
                let (res, _) = oracle(self.w, &deltas[..k as usize].concat());
                partial = res.map_err(|e| format!("fault-free partial oracle failed: {e}"))?.0;
                &partial
            };
            *checks += 1;
            if flat != want {
                return Err(format!(
                    "materialized epoch {k} diverged: {} rows vs {} expected",
                    flat.len(),
                    want.len()
                ));
            }
        }
        driver.close();
        Ok(stop)
    }
}

/// The fault-free reference: a one-shot batch of `w` over `input` on a
/// fresh cluster, with its stats and node ids (what a schedule is
/// drawn against). A stream is judged against the batch over its
/// concatenated deltas — only those folded so far, when an excused
/// fault stopped it early.
fn oracle(w: &DstWorkload, input: &str) -> (JobResult, Vec<NodeId>) {
    let c = LiveCluster::new(w.config());
    c.upload(INPUT, DST_USER, input.as_bytes());
    let res = c.try_run_job(&w.app, INPUT, DST_USER, w.reducers, ReusePolicy::default());
    (res, c.ring().node_ids())
}

/// Shrink a failing schedule to a (locally) minimal failing subset:
/// bisect to the shortest failing prefix, then greedily drop single
/// faults. `fails` re-executes a candidate and reports whether it
/// still violates the oracle. If the shrunk candidate stops failing on
/// the confirmation run (interleaving noise), the full schedule is
/// returned instead — a repro must repro.
pub fn shrink_schedule(
    schedule: &[DstFault],
    fails: &mut dyn FnMut(&[DstFault]) -> bool,
) -> Vec<DstFault> {
    if schedule.is_empty() {
        return Vec::new();
    }
    // Invariant: schedule[..hi] fails (the caller just watched the
    // whole schedule fail), schedule[..lo] does not.
    let (mut lo, mut hi) = (0usize, schedule.len());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fails(&schedule[..mid]) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let mut cur: Vec<DstFault> = schedule[..hi].to_vec();
    let mut i = 0;
    while i < cur.len() && cur.len() > 1 {
        let mut cand = cur.clone();
        cand.remove(i);
        if fails(&cand) {
            cur = cand;
        } else {
            i += 1;
        }
    }
    if fails(&cur) {
        cur
    } else {
        schedule.to_vec()
    }
}

/// The RNG stream a seed's fault schedule is drawn from.
fn schedule_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xFA17_5C8E_D01E_55ED)
}

/// How many jobs a batch seed runs at once, drawn off its own RNG
/// stream so adding the knob left every existing seed's schedule
/// untouched.
fn concurrent_jobs(seed: u64, cfg: &FaultConfig) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0C0_4A0B_5000_0003);
    rng.random_range(1..=cfg.concurrent_jobs_max.max(1))
}

/// Run one seed end to end: sample the workload, take the fault-free
/// oracle run, sample a schedule at `preset` rates, execute it, check
/// the oracle, and shrink + print a repro on failure. An epoch-mode
/// seed's input arrives as `w.epochs` deltas through a standing job,
/// its schedule comes from [`sample_epoch_schedule`], and it reports
/// `concurrent_jobs = 1`: the stream itself is the standing tenant.
pub fn run_seed(seed: u64, preset: DstPreset) -> DstReport {
    let w = DstWorkload::sample(seed);
    let cfg = preset.config();
    let case = if w.epochs > 1 {
        Case::Stream { deltas: w.epoch_deltas() }
    } else {
        Case::Batch { input: w.input(), jobs: concurrent_jobs(seed, &cfg) }
    };
    let input: Cow<'_, str> = match &case {
        Case::Batch { input, .. } => input.into(),
        Case::Stream { deltas } => deltas.concat().into(),
    };
    let (res, nodes) = oracle(&w, &input);
    let (expect, base) =
        res.unwrap_or_else(|e| panic!("DST seed {seed}: fault-free oracle run failed: {e}"));
    let mut rng = schedule_rng(seed);
    let schedule = match &case {
        Case::Batch { .. } => sample_schedule(&mut rng, &cfg, &nodes, base.map_tasks, base.spills),
        // The smallest wave bounds the in-wave injection range, so
        // every sampled map-clock point fires in every epoch that
        // reaches it.
        Case::Stream { deltas } => {
            let wave_maps =
                deltas.iter().map(|d| (d.len() as u64).div_ceil(w.block_size)).min().unwrap_or(1);
            sample_epoch_schedule(&mut rng, &cfg, &nodes, w.epochs, wave_maps)
        }
    };

    let (outcome, faults_injected, oracle_checks) = run_schedule(&w, &case, &schedule, &expect);
    let verdict = match outcome {
        Ok(None) => Verdict::Match,
        Ok(Some(e)) => Verdict::AllowedError { kind: error_kind(&e), reason: e.to_string() },
        Err(reason) => {
            let minimal = shrink_schedule(&schedule, &mut |cand| {
                run_schedule(&w, &case, cand, &expect).0.is_err()
            });
            let repro = repro_line(seed, preset);
            eprintln!(
                "DST FAILURE seed={seed} preset={preset} (epochs={}): {reason}\n  \
                 minimal schedule ({} of {} faults): {minimal:?}\n  replay: {repro}",
                w.epochs,
                minimal.len(),
                schedule.len(),
            );
            Verdict::Fail { reason, minimal, repro }
        }
    };
    let concurrent_jobs = match case {
        Case::Batch { jobs, .. } => jobs,
        Case::Stream { .. } => 1,
    };
    DstReport {
        seed,
        preset,
        workload: w,
        schedule,
        verdict,
        faults_injected,
        oracle_checks,
        concurrent_jobs,
    }
}

/// Aggregate results of a seed sweep (what the smoke step and
/// `dst_bench` report).
#[derive(Clone, Debug, Default)]
pub struct DstSweep {
    pub runs: u64,
    pub matches: u64,
    pub faults_injected: u64,
    pub oracle_checks: u64,
    /// `(seed, kind, reason)` for every run that ended in an allowed
    /// error, so a sweep shows which seeds took an excuse and why.
    pub allowed: Vec<(u64, &'static str, String)>,
    /// `(seed, reason)` for every oracle violation; the repro line is
    /// reconstructible via [`repro_line`].
    pub failures: Vec<(u64, String)>,
}

impl DstSweep {
    /// Count one seed's report.
    pub fn record(&mut self, r: DstReport) {
        self.runs += 1;
        self.faults_injected += r.faults_injected;
        self.oracle_checks += r.oracle_checks;
        match r.verdict {
            Verdict::Match => self.matches += 1,
            Verdict::AllowedError { kind, reason } => self.allowed.push((r.seed, kind, reason)),
            Verdict::Fail { reason, .. } => self.failures.push((r.seed, reason)),
        }
    }

    /// The allowed errors tallied by kind, in kind order:
    /// `data_loss=1 task_failed=3`, or `none`.
    pub fn allowed_by_kind(&self) -> String {
        let mut kinds = std::collections::BTreeMap::new();
        for (_, kind, _) in &self.allowed {
            *kinds.entry(*kind).or_insert(0u64) += 1;
        }
        if kinds.is_empty() {
            return "none".to_string();
        }
        kinds.iter().map(|(k, n)| format!("{k}={n}")).collect::<Vec<_>>().join(" ")
    }
}

/// Run `runs` consecutive seeds starting at `seed0`, handing the
/// running aggregate to `on_seed` after each one (progress output).
pub fn sweep(
    seed0: u64,
    runs: u64,
    preset: DstPreset,
    mut on_seed: impl FnMut(&DstSweep),
) -> DstSweep {
    let mut agg = DstSweep::default();
    for seed in seed0..seed0 + runs {
        agg.record(run_seed(seed, preset));
        on_seed(&agg);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parse_roundtrip() {
        for p in [DstPreset::Calm, DstPreset::Moderate, DstPreset::Chaos] {
            assert_eq!(p.to_string().parse::<DstPreset>().unwrap(), p);
        }
        assert!("mild".parse::<DstPreset>().is_err());
    }

    #[test]
    fn workload_and_input_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = DstWorkload::sample(seed);
            let b = DstWorkload::sample(seed);
            assert_eq!(a, b);
            assert_eq!(a.input(), b.input());
        }
        // Different seeds actually move the sampler.
        let shapes: Vec<DstWorkload> = (0..16).map(DstWorkload::sample).collect();
        assert!(shapes.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn schedule_sampling_is_deterministic() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let cfg = FaultConfig::chaos();
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(
            sample_schedule(&mut a, &cfg, &nodes, 40, 120),
            sample_schedule(&mut b, &cfg, &nodes, 40, 120)
        );
    }

    /// Every draw a seed makes before any job runs — the workload, both
    /// schedule samplers over fixed cluster shapes, the concurrency —
    /// hashed over seeds 1–1000 of every preset. A sampler change that
    /// moves an existing seed changes this digest; new draws belong on
    /// their own RNG stream, so existing seeds stay untouched.
    #[test]
    fn seed_draws_are_stable() {
        // FNV-1a over the draws' `Debug` text: stable across toolchains.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |text: String| {
            for b in text.bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        for p in [DstPreset::Calm, DstPreset::Moderate, DstPreset::Chaos] {
            let cfg = p.config();
            for seed in 1..=1000u64 {
                eat(format!("{seed} {p} {:?}", DstWorkload::sample(seed)));
                for f in sample_schedule(&mut schedule_rng(seed), &cfg, &nodes, 24, 60) {
                    eat(format!("{f:?}"));
                }
                for f in sample_epoch_schedule(&mut schedule_rng(seed), &cfg, &nodes, 3, 5) {
                    eat(format!("{f:?}"));
                }
                eat(concurrent_jobs(seed, &cfg).to_string());
            }
        }
        assert_eq!(h, 0x267b_ea1d_7c88_e5e8, "seed draws moved: {h:#018x}");
    }

    #[test]
    fn calm_schedules_are_benign_by_construction() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let cfg = FaultConfig::calm();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schedule = sample_schedule(&mut rng, &cfg, &nodes, 30, 90);
            let allowed = allowed_errors(&schedule);
            assert!(
                !allowed.task_failed && !allowed.data_loss,
                "calm seed {seed} sampled a non-benign schedule: {schedule:?}"
            );
        }
    }

    #[test]
    fn allowed_errors_classifies_schedules() {
        let n = NodeId(1);
        let m = NodeId(2);
        // Benign: one delay, a sub-budget drop, a sub-budget fail.
        let benign = vec![
            DstFault::DelayLink { from: n, to: m, at: Point::Maps(1), salt: 1 },
            DstFault::DropOnLink { from: n, to: m, at: Point::Maps(2), n: 3 },
            DstFault::FailTask { task: 0, times: 2 },
        ];
        assert_eq!(allowed_errors(&benign), Allowed { task_failed: false, data_loss: false });
        // A cut allows both.
        let cut =
            vec![DstFault::CutLink { from: n, to: m, at: Point::Maps(1), heal_at: None }];
        assert_eq!(allowed_errors(&cut), Allowed { task_failed: true, data_loss: true });
        // Budget-exhausting fail kills the task but loses no data.
        let kill = vec![DstFault::FailTask { task: 0, times: TASK_BUDGET }];
        assert_eq!(allowed_errors(&kill), Allowed { task_failed: true, data_loss: false });
        // Two drop bursts on the same link sum past the retry budget.
        let heavy = vec![
            DstFault::DropOnLink { from: n, to: m, at: Point::Maps(1), n: 2 },
            DstFault::DropOnLink { from: n, to: m, at: Point::Maps(2), n: 2 },
        ];
        assert_eq!(allowed_errors(&heavy), Allowed { task_failed: true, data_loss: true });
        // One crash alone: recovery must succeed, no excuses.
        let one = vec![DstFault::CrashAtMaps { node: n, maps: 1 }];
        assert_eq!(allowed_errors(&one), Allowed { task_failed: false, data_loss: false });
    }

    #[test]
    fn shrink_isolates_the_culprit() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let schedule: Vec<DstFault> = (0..6)
            .map(|i| DstFault::SlowNode { node: nodes[i % 4], micros: 1000 + i as u64 })
            .collect();
        let culprit = schedule[4];
        let mut runs = 0;
        let minimal = shrink_schedule(&schedule, &mut |cand| {
            runs += 1;
            cand.contains(&culprit)
        });
        assert_eq!(minimal, vec![culprit]);
        assert!(runs < 20, "shrink took {runs} runs for 6 faults");
    }

    #[test]
    fn shrink_falls_back_to_full_schedule_when_flaky() {
        let schedule = vec![
            DstFault::FailTask { task: 0, times: 1 },
            DstFault::FailTask { task: 1, times: 1 },
        ];
        // A predicate that never re-fails: the confirmation run must
        // reject the shrunk candidate and hand back the real schedule.
        let minimal = shrink_schedule(&schedule, &mut |_| false);
        assert_eq!(minimal, schedule);
    }

    #[test]
    fn calm_seed_matches_baseline() {
        let r = run_seed(1, DstPreset::Calm);
        assert_eq!(r.verdict, Verdict::Match, "calm seed 1 must be byte-identical");
        assert!(r.oracle_checks > 1);
    }

    #[test]
    fn concurrent_jobs_sampled_and_checked() {
        // Find a calm seed that samples ≥ 2 concurrent jobs: the
        // siblings must also be byte-identical under a benign schedule.
        let seed = (1u64..64)
            .find(|&s| {
                DstWorkload::sample(s).epochs == 1 && concurrent_jobs(s, &FaultConfig::calm()) >= 2
            })
            .expect("some batch seed under 64 samples 2 jobs");
        let r = run_seed(seed, DstPreset::Calm);
        assert!(r.concurrent_jobs >= 2);
        assert_eq!(r.verdict, Verdict::Match, "calm concurrent seed {seed} must match");
        // Redundant sibling checks were actually evaluated.
        assert!(r.oracle_checks > 6, "only {} checks", r.oracle_checks);
        // Sampling is pure in the seed.
        assert_eq!(run_seed(seed, DstPreset::Calm).concurrent_jobs, r.concurrent_jobs);
    }

    #[test]
    fn every_preset_bounds_concurrency() {
        for p in [DstPreset::Calm, DstPreset::Moderate, DstPreset::Chaos] {
            let c = p.config();
            assert!(
                (1..=3).contains(&c.concurrent_jobs_max),
                "{p}: concurrent_jobs_max {} out of range",
                c.concurrent_jobs_max
            );
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let a = run_seed(5, DstPreset::Moderate);
        let b = run_seed(5, DstPreset::Moderate);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.verdict, b.verdict);
    }

    /// First seed (deterministically) sampling an epoch-mode workload.
    fn epoch_seed() -> u64 {
        (0u64..256)
            .find(|&s| DstWorkload::sample(s).epochs > 1)
            .expect("some seed under 256 samples an epoch-mode workload")
    }

    #[test]
    fn every_preset_sets_epoch_rates_and_calm_pins_zero() {
        for p in [DstPreset::Calm, DstPreset::Moderate, DstPreset::Chaos] {
            let c = p.config();
            for r in [c.epoch_crash_p, c.epoch_leave_p, c.epoch_drop_p] {
                assert!((0.0..=1.0).contains(&r), "{p}: epoch rate {r} out of range");
            }
        }
        let calm = FaultConfig::calm();
        assert_eq!(
            (calm.epoch_crash_p, calm.epoch_leave_p, calm.epoch_drop_p),
            (0.0, 0.0, 0.0),
            "calm epoch-boundary rates are explicit zeros"
        );
        assert!(FaultConfig::moderate().epoch_crash_p > 0.0);
        assert!(FaultConfig::chaos().epoch_drop_p > 0.0);
    }

    #[test]
    fn calm_epoch_schedules_are_benign_by_construction() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let cfg = FaultConfig::calm();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schedule = sample_epoch_schedule(&mut rng, &cfg, &nodes, 4, 10);
            let allowed = allowed_errors(&schedule);
            assert!(
                !allowed.task_failed && !allowed.data_loss,
                "calm epoch seed {seed} sampled a non-benign schedule: {schedule:?}"
            );
            assert!(
                !schedule.iter().any(|f| matches!(
                    f,
                    DstFault::CrashAtEpoch { .. }
                        | DstFault::LeaveAtEpoch { .. }
                        | DstFault::DropKind { at: Point::Epochs(_), .. }
                )),
                "calm sampled a barrier fault despite its zero rates: {schedule:?}"
            );
        }
    }

    #[test]
    fn chaos_epoch_schedules_reach_every_barrier_fault_point() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let cfg = FaultConfig::chaos();
        let (mut crash, mut leave, mut drop) = (false, false, false);
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for f in sample_epoch_schedule(&mut rng, &cfg, &nodes, 4, 10) {
                match f {
                    DstFault::CrashAtEpoch { .. } => crash = true,
                    DstFault::LeaveAtEpoch { .. } => leave = true,
                    DstFault::DropKind { at: Point::Epochs(_), .. } => drop = true,
                    _ => {}
                }
            }
        }
        assert!(crash && leave && drop, "chaos sampler missed a barrier fault point");
    }

    #[test]
    fn epoch_deltas_are_line_aligned_and_lossless() {
        let seed = epoch_seed();
        let w = DstWorkload::sample(seed);
        let deltas = w.epoch_deltas();
        assert_eq!(deltas.len(), w.epochs as usize);
        for d in &deltas {
            assert!(!d.is_empty());
            assert_eq!(d.len() % ALIGNED_LINE, 0, "delta not line-aligned");
        }
        assert_eq!(deltas.concat(), w.aligned_input());
        assert_eq!(w.block_size as usize % ALIGNED_LINE, 0);
    }

    #[test]
    fn calm_epoch_seed_matches_one_shot_batch() {
        let seed = epoch_seed();
        let r = run_seed(seed, DstPreset::Calm);
        assert!(r.workload.epochs > 1);
        assert_eq!(
            r.verdict,
            Verdict::Match,
            "calm epoch seed {seed} must publish byte-identical snapshots"
        );
        assert!(r.oracle_checks > r.workload.epochs as u64, "per-wave checks ran");
    }

    #[test]
    fn epoch_seed_same_outcome_under_chaos() {
        let seed = epoch_seed();
        let a = run_seed(seed, DstPreset::Chaos);
        let b = run_seed(seed, DstPreset::Chaos);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn allowed_errors_classifies_epoch_schedules() {
        let n = NodeId(1);
        // One barrier crash alone: recovery must converge, no excuses.
        let one = vec![DstFault::CrashAtEpoch { node: n, epoch: 2 }];
        assert_eq!(allowed_errors(&one), Allowed { task_failed: false, data_loss: false });
        // A barrier drop burst at the retry budget exhausts like any
        // other kind burst.
        let burst = vec![DstFault::DropKind {
            kind: RpcKind::ShuffleBatch,
            at: Point::Epochs(1),
            n: NET_BUDGET,
        }];
        assert_eq!(allowed_errors(&burst), Allowed { task_failed: true, data_loss: true });
        // Crash + any drop can starve recovery of a replica.
        let combo = vec![
            DstFault::CrashAtEpoch { node: n, epoch: 1 },
            DstFault::DropKind { kind: RpcKind::ReplicaSync, at: Point::Epochs(1), n: 1 },
        ];
        assert!(allowed_errors(&combo).data_loss);
        // A barrier leave alone excuses nothing.
        let leave = vec![DstFault::LeaveAtEpoch { node: n, epoch: 3 }];
        assert_eq!(allowed_errors(&leave), Allowed { task_failed: false, data_loss: false });
    }
}
