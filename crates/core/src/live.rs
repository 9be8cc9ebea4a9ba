//! The live executor: real MapReduce over real data, in-process.
//!
//! Virtual nodes are threads; block payloads live in
//! [`eclipse_dhtfs::BlockStore`]. Placement, caching and shuffling run
//! through exactly the same control-plane code as the simulator — this
//! is the executable proof that the EclipseMR design computes correct
//! results, and it powers the examples and the integration tests.
//!
//! # Execution model: one run, one map attempt, one fold
//!
//! Every execution — a one-shot [`LiveCluster::run_job`], a job
//! admitted by [`crate::server::JobServer`], one epoch wave of a
//! [`crate::epoch::EpochDriver`] stream — is the same three things:
//!
//! - A **`Run`** (`live/run.rs`) is everything about one execution that
//!   is not a thread: the validated request, its frozen placement
//!   (`live/place.rs`: LAF/delay, or replicated map-out) as per-node
//!   queues with atomic cursors, the attempt ledger and commit board,
//!   the fault schedule, the reduce-partition channels, and the
//!   counters that become [`LiveStats`]. It is registered cluster-wide
//!   from begin to retire, so crash/join/leave recovery
//!   (`live/membership.rs`) walks every run alike.
//! - A **`MapWorker`** (`live/worker.rs`) is one thread's state on one
//!   run — home node, spill buffer, one parked unsettled attempt — and
//!   the only implementation of a map attempt: claim, read (iCache
//!   first), map, combine, ship over the windowed lane, settle, commit,
//!   re-home when its home crashes, drain retries and backups.
//! - The **partition fold** dedups shuffle runs against the commit
//!   board, k-way merges the winners into key groups and reduces each;
//!   an epoch wave folds the same merged groups into its stream's
//!   materialized state instead.
//!
//! Threads are *supplied* to that code in one shape: every thread runs
//! one loop, `MapWorker::work` — the thread that began the run stays
//! until it is done while helpers work beside it — and that thread then
//! seals and folds the run. A one-shot job borrows its application
//! (`&dyn MapReduce`), which a persistent thread cannot hold, so its
//! helpers and extra fold lanes are scoped threads for its own
//! lifetime. A job server or stream driver is helped by the server's
//! pool workers and folds on its own thread, because per-job thread
//! spawning is most of a small job's fixed cost (0.12 ms one-shot
//! against 0.04 ms through the server in a traced `benchmark/` run on
//! 2 cores).
//!
//! # Transport plane (see DESIGN.md §8e)
//!
//! Every inter-node interaction travels as a framed RPC over a
//! pluggable [`Transport`]: block reads/writes (`GetBlock`/`PutBlock`),
//! re-replication (`ReplicaSync`), cross-node cache traffic
//! (`CacheGet`/`CachePut`), shuffle delivery (`ShuffleBatch`),
//! progress reports (`Heartbeat`) and task placement
//! (`TaskAssign`). [`TransportKind::Memory`] (the default) keeps runs
//! deterministic and exposes fault injection — partitions, drops,
//! delays — while still pushing every frame through the real wire
//! codec; [`TransportKind::Tcp`] runs the same protocol over loopback
//! TCP sockets. Node-local operations (a node reading its own store
//! shard or cache shard) stay direct function calls; only cross-node
//! traffic pays for the wire.
//!
//! # Data-plane concurrency (see DESIGN.md, "Live data plane")
//!
//! The hot path is engineered so node threads almost never contend:
//!
//! - **Sharded cache locks.** [`DistributedCache`] locks per node shard,
//!   so iCache traffic from different nodes proceeds in parallel; the
//!   executor holds no cluster-wide cache lock at all.
//! - **Concurrent reads.** File metadata sits behind a `RwLock` (reads
//!   during a job never block each other) and [`BlockStore`] is already
//!   a reader-parallel payload store.
//! - **Locality first, stealing at the tail.** Map assignments are
//!   frozen per node at placement time and claimed via atomic cursors.
//!   A thread runs a task *as its assigned node* while no other attempt
//!   of the run is in flight there, so its block is a local cache read;
//!   only once every free queue is drained does it steal from a busy
//!   owner, as its own home node. Cache accounting always uses the
//!   *assigned* node, so stealing changes wall-clock and transport
//!   traffic, never hit ratios or cache placement.
//! - **Sorted record runs end to end.** One
//!   [`SpillBuffer`](crate::SpillBuffer) per worker serves all its
//!   blocks and decides every spill by emitted bytes. An app without a
//!   combiner appends each borrowed pair from [`MapReduce::map_into`]
//!   to its partition's byte arena (one buffer plus an offset table, no
//!   allocation per record); a spill sorts the offsets by key, stably,
//!   and appends them to one [`RecordRun`](eclipse_net::RecordRun)'s
//!   key and value columns.
//!   A combiner app ([`MapReduce::has_combiner`]) keeps one
//!   open-addressing table per partition instead: each pair's key is
//!   hashed once, the hash's top bits pick the partition and its low
//!   bits the slot, and a key's bytes and its accumulator sit in the
//!   partition's arena. The first occurrence in a spill starts the
//!   accumulator ([`MapReduce::combine_first`]), each later one folds
//!   into it in place ([`MapReduce::combine_into`]), and the spill sorts
//!   the keys the same way and writes each accumulator out once
//!   ([`MapReduce::combine_finish`]). A run for a reducer on the same
//!   node travels as it is; one for another node is encoded into a
//!   `ShuffleBatch` frame (its key groups, front-coded, then its value
//!   lengths and value column) and decoded back into columns on
//!   receipt, in one walk of the frame body that also validates it.
//!   Reducers keep each winning run until fold time. A combiner app's
//!   partition with several runs folds them through one combining
//!   table, as a spill is folded, and hands [`MapReduce::reduce_into`]
//!   one finished value per key; any other partition k-way merges its
//!   runs, handing `reduce_into` each key's values in input order.

//! # Mid-job fault tolerance (see DESIGN.md, "Mid-job recovery")
//!
//! A node may crash while a job is running — injected deterministically
//! through [`FaultPlan`] — and the job still completes with output
//! byte-identical to the fault-free run:
//!
//! - **Attempt ledger.** Every map task has an attempt counter, a claim
//!   slot and a commit slot. An attempt *commits* (one CAS) only after
//!   shipping its complete output; reducers accept a batch only if its
//!   `(task, attempt)` matches the committed attempt, so re-executed
//!   maps never double-count.
//! - **Crash semantics.** At the crash instant the victim's store shard
//!   and cache shard are wiped and every not-yet-delivered send from it
//!   is suppressed; an attempt with a suppressed send can never commit.
//! - **Recovery flow.** The crash handler knows its victim:
//!   re-replication along the predecessor/successor chain → publish of
//!   the repaired ring with its scheduler and cache ranges → re-queue of
//!   the victim's unfinished tasks. Reads fall
//!   back through surviving replicas; only when *every* copy of a block
//!   is gone does the job end with [`JobError::DataLoss`] — never a
//!   wrong or partial result, never a hang.
//!
//! # Membership (paper §II's resource manager)
//!
//! `live/membership.rs` plays the role the paper gives its resource
//! manager — server join, leave and failure recovery — for every run
//! alike. [`DhtFs`] is the authority on membership; each change ends in
//! one step that publishes the ring it produced as the cluster's
//! snapshot, bumps the membership epoch ([`LiveCluster::epoch`]) and
//! re-derives scheduler and cache placement.
#![deny(clippy::too_many_lines)]

use crate::job::{JobError, ReusePolicy};
use crate::sim_exec::SchedulerKind;
use bytes::Bytes;
use eclipse_cache::{CacheKey, DistributedCache, OutputTag};
use eclipse_dhtfs::{BlockId, BlockStore, DhtFs, DhtFsConfig};
use eclipse_net::{
    merge_sorted_pairs, MemTransport, Rpc, RpcReply, SendTicket, TcpTransport, Transport, CLIENT,
};
use eclipse_ring::{NodeId, Ring};
use eclipse_sched::{DelayScheduler, LafScheduler};
use eclipse_util::KeyRange;
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod membership;
mod place;
mod router;
mod run;
mod worker;

pub use run::PartitionedOutput;
pub(crate) use run::{PartitionRuns, Run};
pub(crate) use worker::MapWorker;
use worker::Buffers;

use router::{bind_endpoint, ShuffleRouter, MAX_JOB_SLOTS};

/// The host's hardware parallelism, read once: the standard library
/// re-reads cgroup limits on every call, which is most of a small
/// job's fixed cost if paid per run.
pub(crate) fn hardware_threads() -> usize {
    static PAR: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PAR.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Bounded retry budget per map task; exceeding it is a terminal
/// [`JobError::TaskFailed`].
const MAX_ATTEMPTS: u32 = 4;
/// Slice size for cancellable straggler sleeps. A fixed slice keeps
/// the cancellation-check cadence a function of the injected delay
/// alone — the same `slow_node(micros)` performs the same number of
/// slices (and token checks) on any host, so a DST seed replays the
/// same straggler behaviour on 1-core and 8-core machines.
const SLOW_SLICE_MICROS: u64 = 200;
/// A straggler serves RPCs late at `micros / SLOW_SERVE_DIV` (fan-in
/// from many callers would otherwise multiply the full delay).
const SLOW_SERVE_DIV: u64 = 8;
/// A straggler ships shuffle batches late at `micros / SLOW_SEND_DIV`.
const SLOW_SEND_DIV: u64 = 4;
/// Base of the exponential re-execution backoff (micros, doubling per
/// attempt): deterministic in the attempt number, never in wall time.
const RETRY_BACKOFF_BASE_MICROS: u64 = 100;

/// A MapReduce application for the live executor.
///
/// # Which methods to implement
///
/// An application needs only [`map`](Self::map) and
/// [`reduce`](Self::reduce). The executor itself calls only the
/// lower-level methods below, whose defaults adapt the owned-`String`
/// surface:
///
/// - [`map_into`](Self::map_into) emits borrowed keys and values, and
///   is told which input file a block came from. Its default ignores
///   the file and wraps `map`, moving each owned pair. Override it when
///   the mapper can hand out slices of its input: the executor copies
///   each pair's bytes into its partition's spill arena (with a
///   combiner, a key's bytes only the first time a spill sees it),
///   never into a `String`. A multi-input job's mapper (a reduce-side
///   join) overrides it to tag records by their input.
/// - [`combine_first`](Self::combine_first),
///   [`combine_into`](Self::combine_into) and
///   [`combine_finish`](Self::combine_finish) fold a key's values into
///   an accumulator of the app's own bytes: the first value starts it,
///   each further value folds in where the accumulator sits (an
///   [`Accumulator`] handle), and the finished value is written out
///   once, when the key ships or reduces. Their defaults keep the
///   accumulator as the value's text and call
///   [`combine`](Self::combine) on each pair. Override all three
///   together when the fold has a cheaper binary form, as `WordCount`'s
///   `u64` count does.
/// - [`reduce_into`](Self::reduce_into) reduces one key over borrowed
///   values, in a slice the executor reuses from key to key. Its
///   default copies the values into a `Vec<String>` and calls
///   `reduce`. Override it to reduce without those copies.
///
/// An app that is fast end to end overrides `map_into` and
/// `reduce_into` (plus the three `combine_*` methods when it has a
/// combiner), and keeps `map` and `reduce` as one-line adapters over
/// them.
///
/// # Value order
///
/// The shuffle carries sorted runs and each reduce partition merges
/// them stably, so a key's values reach `reduce_into` in **input
/// order**: by input block (file order, then block order), and within a
/// block in the order the mapper emitted them. This holds whatever the
/// scheduler, node count, transport or thread timing. With a combiner,
/// `reduce_into` gets **one value per key**: the reduce partition folds
/// every spill's partial aggregate through the same `combine_*`
/// methods, in that order, and hands `reduce_into` the finished value.
///
/// # The combiner contract
///
/// An app with a combiner overrides [`combine`](Self::combine) and
/// returns `true` from [`has_combiner`](Self::has_combiner). `combine`
/// must be an associative, commutative fold whose output `reduce`
/// accepts like any mapped value, and it must emit **exactly one**
/// value, under the key it was given. `reduce` must not tell the
/// folded value from the values folded: **`reduce(k, [combine(k, vs)])`
/// must equal `reduce(k, vs)`** for every key and value list. The map
/// side folds each key's values within one spill, in emit order:
/// `combine_first` on the first, `combine_into` on each further one,
/// and `combine_finish` once when the spill ships. A key seen once per
/// spill therefore ships as `combine_finish(combine_first(v))`, which
/// the defaults make `v` itself. A reduce partition that receives more
/// than one spill folds their partial aggregates the same way and calls
/// `reduce_into` once per key, on the finished value; an epoch stream
/// folds each key's state across epochs through the same three
/// methods. Both rely on the equation above. The default
/// `combine_into` panics when `combine` emits zero values, two or more,
/// or a different key; the executor turns that panic into a job error,
/// never into wrong output.
pub trait MapReduce: Send + Sync {
    /// Emit intermediate (key, value) pairs for one input block.
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String));
    /// Fold all values of one intermediate key into output pairs.
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String));
    /// Optional map-side combiner (see the combiner contract above):
    /// shrinks shuffle volume for associative reductions, word count's
    /// classic optimization. The default is a pass-through, which the
    /// executor never calls unless [`has_combiner`](Self::has_combiner)
    /// says so.
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        for v in values {
            emit(key.to_string(), v.clone());
        }
    }

    /// Whether [`combine`](Self::combine) actually reduces data. Apps
    /// that override `combine` must also override this to return `true`;
    /// when `false` (the default) the executor ships mapped records
    /// untouched — the pass-through default `combine` would only have
    /// copied them.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Start `key`'s accumulator from its first value. `acc` is empty on
    /// entry. The default stores the value's bytes.
    fn combine_first(&self, _key: &str, value: &str, acc: &mut Vec<u8>) {
        acc.extend_from_slice(value.as_bytes());
    }

    /// Fold `value` into `acc`, the accumulator of `key` so far, where
    /// it sits: a fold that keeps the accumulator's length rewrites it
    /// through [`Accumulator::get_mut`], one that changes the length
    /// stores the new bytes with [`Accumulator::set`]. On the map side
    /// and in a reduce partition the accumulator lives in the table's
    /// byte arena, so a same-length fold copies nothing. The default
    /// runs [`combine`](Self::combine) on the pair `[acc, value]` and
    /// sets `acc` to its one output value.
    ///
    /// # Panics
    ///
    /// The default panics when `combine` breaks the combiner contract:
    /// zero or several values, or one under another key.
    fn combine_into(&self, key: &str, acc: &mut Accumulator<'_>, value: &str) {
        let partial = std::str::from_utf8(acc.get())
            .expect("the default accumulator holds a value's UTF-8 bytes");
        let pair = [partial.to_owned(), value.to_owned()];
        let mut folded: Option<String> = None;
        let mut emitted = 0usize;
        self.combine(key, &pair, &mut |k, v| {
            assert_eq!(k, key, "combine must emit under the key it was given");
            emitted += 1;
            folded = Some(v);
        });
        match folded {
            Some(v) if emitted == 1 => acc.set(v.as_bytes()),
            _ => panic!(
                "combine must emit exactly one value per key, emitted {emitted} for {key:?}"
            ),
        }
    }

    /// Append the value `acc` stands for to `out`: what ships for `key`
    /// and what `reduce` receives. The default appends the text the
    /// default accumulator holds.
    fn combine_finish(&self, _key: &str, acc: &[u8], out: &mut String) {
        out.push_str(
            std::str::from_utf8(acc).expect("the default accumulator holds a value's UTF-8 bytes"),
        );
    }

    /// Reduce one key over borrowed values (in input order, see the
    /// trait docs). This is the only reduce entry point the executor
    /// calls. The default copies `values` into a `Vec<String>` and
    /// calls [`reduce`](Self::reduce).
    fn reduce_into(&self, key: &str, values: &[&str], emit: &mut dyn FnMut(String, String)) {
        let owned: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.reduce(key, &owned, emit);
    }

    /// Map one block of input file `source` (its index among a
    /// multi-input job's inputs, so a join's mapper can tag records by
    /// side), emitting borrowed or owned pairs. This is the only map
    /// entry point the executor calls. The default ignores `source` and
    /// forwards [`map`](Self::map)'s owned pairs as [`Cow::Owned`],
    /// which moves them without a copy.
    fn map_into(
        &self,
        _source: usize,
        block: &[u8],
        emit: &mut dyn FnMut(Cow<'_, str>, Cow<'_, str>),
    ) {
        self.map(block, &mut |k, v| emit(Cow::Owned(k), Cow::Owned(v)));
    }

    /// Optional custom partitioner. `None` (the default) partitions by
    /// the key's ring hash — EclipseMR's native scheme, which lets
    /// reducers be placed by consistent hashing. Return `Some(p)` with
    /// `p < partitions` to override (e.g. TeraSort's sampled range
    /// partitioning, which makes partition order = global sort order).
    fn partition(&self, _key: &str, _partitions: usize) -> Option<usize> {
        None
    }
}

/// A key's combining accumulator where it lives, handed to
/// [`MapReduce::combine_into`]: in a combining table's byte arena,
/// right after the key's bytes, or in a plain `Vec<u8>`
/// ([`Accumulator::of`]).
///
/// [`get_mut`](Self::get_mut) rewrites the bytes at their length;
/// [`set`](Self::set) replaces them with bytes of any length. A set
/// that fits the room the arena reserved, or that lands on the
/// buffer's last accumulator, stays where it is; a longer one moves the
/// key and its accumulator to the buffer's end, with room to double.
pub struct Accumulator<'a> {
    /// The buffer: the key's `key_len` bytes end at `at`, the
    /// accumulator is `buf[at..at + len]`, and `room` bytes from `at`
    /// are reserved for it.
    buf: &'a mut Vec<u8>,
    at: usize,
    len: usize,
    room: usize,
    key_len: usize,
}

impl<'a> Accumulator<'a> {
    /// The accumulator that is all of `buf`: a set resizes `buf`.
    pub fn of(buf: &'a mut Vec<u8>) -> Accumulator<'a> {
        let len = buf.len();
        Accumulator { buf, at: 0, len, room: len, key_len: 0 }
    }

    /// The accumulator's bytes.
    #[inline]
    pub fn get(&self) -> &[u8] {
        &self.buf[self.at..self.at + self.len]
    }

    /// The accumulator's bytes, to rewrite in place at their length.
    #[inline]
    pub fn get_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.at..self.at + self.len]
    }

    /// Replace the accumulator's bytes with `bytes`, of any length.
    pub fn set(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        if self.at + self.room == self.buf.len() {
            // The buffer's last accumulator grows or shrinks in place.
            self.buf.truncate(self.at);
            self.buf.extend_from_slice(bytes);
            self.room = n;
        } else if n <= self.room {
            self.buf[self.at..self.at + n].copy_from_slice(bytes);
        } else {
            let room = n.max(2 * self.room);
            let start = self.buf.len();
            self.buf.extend_from_within(self.at - self.key_len..self.at);
            self.buf.extend_from_slice(bytes);
            self.buf.resize(start + self.key_len + room, 0);
            self.at = start + self.key_len;
            self.room = room;
        }
        self.len = n;
    }
}

/// Which [`Transport`] backend carries the cluster's RPCs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Deterministic in-memory links with injectable faults (the
    /// default). Every frame still round-trips the real wire codec.
    #[default]
    Memory,
    /// Real loopback TCP sockets: framing, connection pooling,
    /// correlation ids, timeouts and retries, end to end.
    Tcp,
}

/// Speculative re-execution tuning (straggler mitigation). Enabled via
/// [`LiveConfig::with_speculation`]: attempts report progress through
/// heartbeats, and an idle map worker requests a backup attempt on the
/// least-loaded node when an attempt falls far behind the running
/// median task duration. Correctness is free — the commit-board CAS
/// picks whichever attempt finishes first and reducer dedup drops the
/// loser; the loser is additionally *cancelled* at its next spill
/// boundary so it stops burning the straggling node.
#[derive(Clone, Copy, Debug)]
pub struct SpeculationConfig {
    /// Launch a backup once an attempt's elapsed time exceeds
    /// `slowdown × median` of committed task durations.
    pub slowdown: f64,
    /// Don't speculate before this many tasks have committed (the
    /// median needs mass before it means anything).
    pub min_completed: u64,
    /// Minimum spacing of straggler-watch passes, in microseconds.
    pub poll_micros: u64,
}

impl Default for SpeculationConfig {
    fn default() -> SpeculationConfig {
        SpeculationConfig { slowdown: 3.0, min_completed: 3, poll_micros: 500 }
    }
}

/// Live cluster configuration.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    pub nodes: usize,
    pub cache_per_node: u64,
    pub replicas: usize,
    pub block_size: u64,
    pub scheduler: SchedulerKind,
    pub transport: TransportKind,
    /// Spill-coalescing target: a map task buffers each reduce
    /// partition's records until this many bytes accumulate, so the
    /// windowed shuffle lane carries few large batches instead of many
    /// tiny ones. Must be positive: a job on a cluster configured
    /// with 0 fails with [`JobError::InvalidRequest`].
    pub shuffle_batch_bytes: u64,
    /// Map-slot oversubscription: worker threads per unit of hardware
    /// parallelism (the paper's nodes run several task slots each).
    /// With an in-memory data plane 1 is right — extra threads only
    /// add context switching — but over a real wire a worker blocked
    /// on a round-trip costs no CPU, so extra slots hide that latency
    /// behind other workers' map compute. Thread count stays capped at
    /// the virtual-node count.
    pub map_slots: usize,
    /// Lock shards inside each node's cache (see
    /// `eclipse_cache::sharded`). More shards let a node's map slots
    /// and its RPC service thread hit the cache concurrently; each
    /// shard gets `cache_per_node / cache_shards` of the byte budget.
    /// The simulator pins 1 (exact paper-figure reproduction); the live
    /// executor defaults to 8.
    pub cache_shards: usize,
    /// Speculative re-execution of straggling map attempts (off by
    /// default — zero overhead when `None`: no progress heartbeats, no
    /// straggler watch).
    pub speculation: Option<SpeculationConfig>,
    /// Replicated map-out factor r (default 1 = off). With r ≥ 2 every
    /// map task's input block is placed on r nodes chosen among the
    /// reduce partitions' home nodes (nearest on the ring to the block's
    /// key), the map runs at all r placements, and each placement emits
    /// only the partitions *closest to it on the ring* — so roughly
    /// (r-1)/r of shuffle traffic becomes node-local delivery instead
    /// of remote `ShuffleBatch` frames (the coded-MapReduce tradeoff:
    /// r× map compute for r× less shuffle).
    pub map_replication: usize,
}

impl LiveConfig {
    /// Small defaults suited to tests and examples: 8 virtual nodes,
    /// 64 KB blocks, 16 MB cache each, LAF scheduling, in-memory
    /// transport.
    pub fn small() -> LiveConfig {
        LiveConfig {
            nodes: 8,
            cache_per_node: 16 * 1024 * 1024,
            replicas: 2,
            block_size: 64 * 1024,
            scheduler: SchedulerKind::Laf(Default::default()),
            transport: TransportKind::Memory,
            shuffle_batch_bytes: 256 * 1024,
            map_slots: 1,
            cache_shards: 8,
            speculation: None,
            map_replication: 1,
        }
    }

    pub fn with_nodes(mut self, nodes: usize) -> LiveConfig {
        self.nodes = nodes;
        self
    }

    pub fn with_block_size(mut self, bytes: u64) -> LiveConfig {
        self.block_size = bytes;
        self
    }

    pub fn with_cache_per_node(mut self, bytes: u64) -> LiveConfig {
        self.cache_per_node = bytes;
        self
    }

    pub fn with_replicas(mut self, replicas: usize) -> LiveConfig {
        self.replicas = replicas;
        self
    }

    pub fn with_scheduler(mut self, s: SchedulerKind) -> LiveConfig {
        self.scheduler = s;
        self
    }

    pub fn with_transport(mut self, t: TransportKind) -> LiveConfig {
        self.transport = t;
        self
    }

    pub fn with_shuffle_batch_bytes(mut self, bytes: u64) -> LiveConfig {
        self.shuffle_batch_bytes = bytes;
        self
    }

    pub fn with_map_slots(mut self, slots: usize) -> LiveConfig {
        self.map_slots = slots;
        self
    }

    pub fn with_cache_shards(mut self, shards: usize) -> LiveConfig {
        self.cache_shards = shards;
        self
    }

    /// Enable speculative re-execution of straggling map attempts.
    pub fn with_speculation(mut self, s: SpeculationConfig) -> LiveConfig {
        self.speculation = Some(s);
        self
    }

    /// Set the replicated map-out factor (1 = off).
    pub fn with_map_replication(mut self, r: usize) -> LiveConfig {
        self.map_replication = r.max(1);
        self
    }
}

enum LiveSched {
    Laf(LafScheduler),
    Delay(DelayScheduler),
}

/// Per-job execution statistics from the live path.
#[derive(Clone, Debug, Default)]
pub struct LiveStats {
    pub map_tasks: u64,
    pub reduce_tasks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub remote_reads: u64,
    pub spills: u64,
    /// Map attempts run as a node other than the task's assigned one:
    /// tail steals from a busy owner, stand-ins for a crashed owner,
    /// and speculative backups. `tasks_per_node` still counts by
    /// assignment.
    pub steals: u64,
    pub tasks_per_node: Vec<u64>,
    /// Map attempts started (≥ `map_tasks`; the surplus is fault
    /// re-execution).
    pub attempts: u64,
    /// Attempts that were re-executions (attempt number > 0).
    pub retries: u64,
    /// Nodes that crashed while this job was running.
    pub failed_nodes: u64,
    /// Block copies re-replicated from survivors during mid-job
    /// recovery.
    pub recovered_blocks: u64,
    /// Wall-clock nanoseconds spent inside mid-job membership changes:
    /// crash recovery (re-replication + ring publish + re-queue), joins
    /// and leaves (block and cache handoff).
    pub recovery_nanos: u64,
    /// Bytes pushed onto the transport (frames, both directions the
    /// sender pays for) during this job.
    pub bytes_sent: u64,
    /// RPC attempts issued during this job (retries included).
    pub rpcs: u64,
    /// RPC attempts that were retries after a timeout.
    pub rpc_retries: u64,
    /// RPC attempts that timed out (lost frames, partitions, silence).
    pub timeouts: u64,
    /// Backup attempts launched by the speculation monitor.
    pub speculative_attempts: u64,
    /// Backup attempts that won their task's commit race.
    pub speculative_wins: u64,
    /// Attempts stopped early by the per-attempt cancellation token
    /// (another attempt of the same task had already committed).
    pub cancelled_attempts: u64,
    /// Shuffle records delivered node-locally (no `ShuffleBatch` frame
    /// on the wire) — the replicated map-out's dividend.
    pub local_shuffle_records: u64,
    /// Nodes that joined the ring while this job was running.
    pub joins: u64,
    /// Nodes that left the ring gracefully while this job was running.
    pub leaves: u64,
    /// Block replicas moved by elastic handoff: a joiner pulling its
    /// arc, or a leaver's copies pushed to their new ideal holders.
    pub handoff_blocks: u64,
    /// Payload bytes moved by elastic handoff.
    pub handoff_bytes: u64,
    /// Claimed-but-uncommitted tasks a graceful leaver handed back to
    /// the scheduler (their re-executions count as `retries`).
    pub drained_tasks: u64,
}

/// What a mid-job (or between-jobs) node recovery accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Block copies re-created from surviving replicas.
    pub recovered_blocks: u64,
    /// Payload bytes copied during re-replication.
    pub recovered_bytes: u64,
}

/// One scheduled fault. Private: built via [`FaultPlan`]'s methods.
#[derive(Clone, Debug)]
enum FaultOp {
    /// Crash `node` once `maps` map tasks have committed cluster-wide.
    CrashAfterMaps { node: NodeId, maps: u64 },
    /// Crash `node` once `spills` shuffle batches have been sent —
    /// i.e. mid-shuffle, while map output is in flight.
    CrashAfterSpills { node: NodeId, spills: u64 },
    /// Crash `node` during the reduce phase (after all maps committed).
    CrashInReduce { node: NodeId },
    /// Make the first `times` attempts of map task `task` die before
    /// producing output (an injected task panic).
    FailTask { task: usize, times: u32 },
    /// Delay every attempt executed by `node` (a straggler).
    SlowNode { node: NodeId, micros: u64 },
    /// Admit a fresh node once `maps` map tasks have committed: full
    /// elastic join — ring publish, replica pull, cache-range handoff,
    /// and a parked worker thread waking under the new identity.
    JoinAtMaps { maps: u64 },
    /// Gracefully remove `node` once `maps` map tasks have committed:
    /// its queued tasks drain back to the scheduler and its data is
    /// pushed to successors before the endpoint closes.
    LeaveAtMaps { node: NodeId, maps: u64 },
}

/// A deterministic fault-injection schedule for one job run.
///
/// Build a plan, hand it to [`LiveCluster::inject_faults`], and the
/// next run to begin — a one-shot job, a server job or an epoch wave —
/// executes it: crashes fire at exact points in
/// the job's own progress (blocks mapped, shuffle batches sent, reduce
/// start), so a given (plan, input, scheduler) triple replays the same
/// failure every time — the foundation of the chaos suite.
///
/// ```
/// # use eclipse_core::{FaultPlan, LiveCluster, LiveConfig};
/// let cluster = LiveCluster::new(LiveConfig::small());
/// let victim = cluster.ring().node_ids()[1];
/// cluster.inject_faults(FaultPlan::new().crash_after_maps(victim, 3));
/// // The next job loses `victim` after its 3rd map task commits — and
/// // still returns output identical to a fault-free run.
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    ops: Vec<FaultOp>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Crash `node` once `maps` map tasks have committed.
    pub fn crash_after_maps(mut self, node: NodeId, maps: u64) -> FaultPlan {
        self.ops.push(FaultOp::CrashAfterMaps { node, maps });
        self
    }

    /// Crash `node` once `spills` shuffle batches are in flight.
    pub fn crash_after_spills(mut self, node: NodeId, spills: u64) -> FaultPlan {
        self.ops.push(FaultOp::CrashAfterSpills { node, spills });
        self
    }

    /// Crash `node` during the reduce phase.
    pub fn crash_in_reduce(mut self, node: NodeId) -> FaultPlan {
        self.ops.push(FaultOp::CrashInReduce { node });
        self
    }

    /// Kill the first `times` attempts of map task `task`.
    pub fn fail_task(mut self, task: usize, times: u32) -> FaultPlan {
        self.ops.push(FaultOp::FailTask { task, times });
        self
    }

    /// Delay every attempt run by `node` by `micros` microseconds.
    pub fn slow_node(mut self, node: NodeId, micros: u64) -> FaultPlan {
        self.ops.push(FaultOp::SlowNode { node, micros });
        self
    }

    /// Admit a fresh node once `maps` map tasks have committed.
    pub fn join_at_maps(mut self, maps: u64) -> FaultPlan {
        self.ops.push(FaultOp::JoinAtMaps { maps });
        self
    }

    /// Gracefully remove `node` once `maps` map tasks have committed.
    pub fn leave_at_maps(mut self, node: NodeId, maps: u64) -> FaultPlan {
        self.ops.push(FaultOp::LeaveAtMaps { node, maps });
        self
    }

    /// Number of scheduled operations (diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A progress milestone the live executor reports to a registered
/// [`DstObserver`]. These are the executor's *logical clock*: counts of
/// committed maps and sent shuffle batches, not wall time — so a fault
/// keyed off an event fires at the same point in the job's own progress
/// on any host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DstEvent {
    /// The run is placed and armed; `tasks` map tasks are queued.
    JobStart { tasks: usize },
    /// A map attempt just committed; `done` tasks are committed
    /// cluster-wide (1-based, monotonic).
    MapCommitted { done: u64 },
    /// A shuffle batch was just sent (or delivered locally); `sent`
    /// batches are out cluster-wide (1-based, monotonic).
    SpillSent { sent: u64 },
    /// `node` finished crashing: re-replication is over, the ring
    /// without it is published and its tasks are re-queued. Fired
    /// whether or not every block survived; a lost block has aborted
    /// the run first.
    NodeCrashed { node: NodeId },
    /// `node` joined the ring mid-run: the ring with it is published,
    /// it pulled its cache range and block replicas, and it is
    /// accepting work.
    NodeJoined { node: NodeId },
    /// `node` left the ring gracefully: its queued tasks drained back
    /// to the scheduler and its data was handed off before departure.
    NodeLeft { node: NodeId },
    /// The run finished (success or error); transport fault state
    /// installed by the observer should be torn down.
    JobEnd,
    /// A standing job's epoch wave passed its barrier (every delta map
    /// committed and drained) but has **not yet published**: the window
    /// where a crash, leave or partition hits the materialized-state
    /// fold itself. Fired by the epoch driver between barrier and
    /// publish so DST can aim faults at exactly that edge.
    EpochBarrier { epoch: u32 },
}

/// Observer hook for deterministic simulation testing: the DST harness
/// registers one via [`LiveCluster::set_observer`] to inject transport
/// faults (partitions, drops, delays) at exact points of job progress —
/// the same progress-keyed determinism [`FaultPlan`] crashes already
/// have, extended to the full `MemTransport` chaos API.
///
/// Callbacks run inline on executor threads (mappers, reducers, the
/// crash handler), so implementations must be cheap and must not call
/// back into the running job. A membership event arrives under the
/// cluster's recovery gate, after the change is published: reading
/// the cluster's membership there sees it whole.
pub trait DstObserver: Send + Sync {
    fn on_event(&self, ev: DstEvent);
}


/// A live EclipseMR deployment.
pub struct LiveCluster {
    cfg: LiveConfig,
    /// The membership snapshot placement reads. [`DhtFs`] owns the ring;
    /// only `publish_membership` (`live/membership.rs`) writes this copy,
    /// so hot-path readers never wait behind an upload holding `fs`.
    ring: RwLock<Ring>,
    /// The membership epoch: bumped by `publish_membership`, once per
    /// join, leave or crash, after the ring snapshot is written. The
    /// bump's release pairs with the acquire in [`epoch`](Self::epoch),
    /// so a reader that sees epoch `e` reads a ring at least as new.
    epoch: AtomicU64,
    /// Metadata only; reads (open / block_holders) share the lock.
    fs: RwLock<DhtFs>,
    store: Arc<BlockStore>,
    /// Internally sharded: per-node locks, no cluster-wide mutex.
    cache: Arc<DistributedCache>,
    /// The cache clock's origin: every cache call passes the seconds
    /// since the cluster was built, so oCache TTLs expire in wall time.
    born: Instant,
    /// The RPC fabric every inter-node interaction travels.
    net: Arc<dyn Transport>,
    /// The concrete in-memory backend when configured — the chaos API
    /// (partitions, drops, delays) hangs off the concrete type.
    mem_net: Option<Arc<MemTransport>>,
    /// Shuffle/control receiving side, shared by all endpoints.
    router: Arc<ShuffleRouter>,
    sched: Mutex<LiveSched>,
    /// Faults scheduled for the next job run (drained at job start).
    faults: Mutex<Vec<FaultOp>>,
    /// Per-node RPC serving delay in micros, consulted by every bound
    /// endpoint. Populated from `SlowNode` faults for the duration of a
    /// job so a straggler also serves block reads and shuffle late.
    slow_serving: Arc<RwLock<HashMap<u32, u64>>>,
    /// DST progress observer (see [`DstObserver`]); cloned into each
    /// [`Run`] when it begins.
    observer: RwLock<Option<Arc<dyn DstObserver>>>,
    /// Every in-flight run, keyed by jid, so crash/join/
    /// leave recovery can walk *all* live jobs and the public
    /// [`join_node`](Self::join_node) / [`leave_node`](Self::leave_node)
    /// entry points can drain their queues while jobs are running.
    active: Mutex<HashMap<u32, Arc<Run>>>,
    /// Monotonic jid source; wraps into [`MAX_JOB_SLOTS`] slots.
    next_jid: AtomicU32,
    /// Serializes recovery (crash, join, leave) cluster-wide: ring and
    /// placement mutations must not interleave across concurrent jobs.
    recovery_gate: Mutex<()>,
    /// Tenant directory: user string → cache-quota tenant id. Ids are
    /// handed out from 1 (0 = untagged/no-quota traffic) and never
    /// reused.
    tenants: Mutex<HashMap<String, u16>>,
    /// Map workers' spill buffers and reduce folds' combining tables,
    /// kept cleared between uses (see [`worker::FreeList`]).
    buffers: Buffers,
}

impl LiveCluster {
    pub fn new(cfg: LiveConfig) -> LiveCluster {
        let ring = Ring::with_servers_evenly_spaced(cfg.nodes, "live");
        let fs = DhtFs::new(
            ring.clone(),
            DhtFsConfig { block_size: cfg.block_size, replicas: cfg.replicas },
        );
        let store = Arc::new(BlockStore::new());
        let cache =
            Arc::new(DistributedCache::with_shards(&ring, cfg.cache_per_node, cfg.cache_shards));
        let born = Instant::now();
        let router = Arc::new(ShuffleRouter::new());
        let (net, mem_net): (Arc<dyn Transport>, Option<Arc<MemTransport>>) = match cfg.transport {
            TransportKind::Memory => {
                let m = Arc::new(MemTransport::new());
                (Arc::clone(&m) as Arc<dyn Transport>, Some(m))
            }
            TransportKind::Tcp => (Arc::new(TcpTransport::new()), None),
        };
        let slow_serving: Arc<RwLock<HashMap<u32, u64>>> = Arc::new(RwLock::new(HashMap::new()));
        for n in ring.node_ids() {
            bind_endpoint(
                &net,
                n,
                Arc::clone(&store),
                Arc::clone(&cache),
                born,
                Arc::clone(&router),
                Arc::clone(&slow_serving),
            );
        }
        // The driver endpoint: map attempts report their progress here
        // (promille of input consumed) so the speculation monitor can
        // spot stragglers without a scheduler round-trip.
        let progress_router = Arc::clone(&router);
        net.bind(
            CLIENT,
            Arc::new(move |rpc| {
                if let Rpc::Heartbeat { task, progress, .. } = rpc {
                    if task != u32::MAX {
                        progress_router.note_progress(task, progress);
                    }
                }
                RpcReply::Ack
            }),
        );
        let sched = match &cfg.scheduler {
            SchedulerKind::Laf(c) => LiveSched::Laf(LafScheduler::new(&ring, *c)),
            SchedulerKind::Delay(c) => LiveSched::Delay(DelayScheduler::new(&ring, *c)),
        };
        LiveCluster {
            buffers: Buffers::new(cfg.shuffle_batch_bytes),
            cfg,
            ring: RwLock::new(ring),
            epoch: AtomicU64::new(0),
            fs: RwLock::new(fs),
            store,
            cache,
            born,
            net,
            mem_net,
            router,
            sched: Mutex::new(sched),
            faults: Mutex::new(Vec::new()),
            slow_serving,
            observer: RwLock::new(None),
            active: Mutex::new(HashMap::new()),
            next_jid: AtomicU32::new(0),
            recovery_gate: Mutex::new(()),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Number of jobs currently executing on this cluster.
    pub fn active_jobs(&self) -> usize {
        self.active.lock().len()
    }

    /// Snapshot of the live run ledgers (crash/join/leave walk these).
    fn live_runs(&self) -> Vec<Arc<Run>> {
        self.active.lock().values().cloned().collect()
    }

    /// The cache-quota tenant id for `user`, allocating one on first
    /// sight. Id 0 is reserved for untagged traffic, so 65,535 users
    /// can hold one; after that a new user is refused with
    /// [`JobError::InvalidRequest`] rather than handed an id in use.
    pub fn tenant_of(&self, user: &str) -> Result<u16, JobError> {
        let mut dir = self.tenants.lock();
        if let Some(&t) = dir.get(user) {
            return Ok(t);
        }
        let t = u16::try_from(dir.len() + 1)
            .map_err(|_| JobError::InvalidRequest("every cache-quota tenant id is taken"))?;
        dir.insert(user.to_string(), t);
        Ok(t)
    }

    /// Cap `user`'s cache footprint at `bytes_per_node` on every node
    /// (applied to joiners too). See `DistributedCache::set_tenant_quota`.
    pub fn set_tenant_quota(&self, user: &str, bytes_per_node: u64) -> Result<(), JobError> {
        let t = self.tenant_of(user)?;
        self.cache.set_tenant_quota(t, bytes_per_node);
        Ok(())
    }

    /// Bytes currently cached under `user`'s tenant across all nodes
    /// (0 for a user that never got a tenant id).
    pub fn tenant_cache_used(&self, user: &str) -> u64 {
        let t = self.tenants.lock().get(user).copied();
        t.map_or(0, |t| self.cache.tenant_used(t))
    }

    /// A snapshot of the current ring membership.
    pub fn ring(&self) -> Ring {
        self.ring.read().clone()
    }

    /// The membership epoch: bumped once per join, leave or crash.
    /// Placement consumers compare epochs to detect stale snapshots.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// The live cache hash-key ranges (test/diagnostic access — the
    /// property suite checks they partition the key space exactly after
    /// any elastic membership schedule).
    pub fn cache_ranges(&self) -> Vec<(NodeId, KeyRange)> {
        self.cache.ranges()
    }

    /// The block payload store (test/diagnostic access — e.g. the
    /// property suite pins `recovered_blocks` to a victim's holdings).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The transport fabric (reachability probes, cumulative counters).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.net
    }

    /// The in-memory transport's chaos/fault-injection API, when the
    /// cluster was built with [`TransportKind::Memory`].
    pub fn mem_net(&self) -> Option<&Arc<MemTransport>> {
        self.mem_net.as_ref()
    }

    /// True while any node's send window is saturated: every slot
    /// toward some destination is occupied by an unacknowledged frame.
    /// The job server consults this at admission so a stalled shuffle
    /// plane pushes back on `submit` instead of queueing more work
    /// behind a wall of timed-out sends.
    pub fn shuffle_backpressure(&self) -> bool {
        self.ring.read().node_ids().iter().any(|&n| self.net.window_saturated(n))
    }

    /// Notify the registered DST observer directly (cluster-scope
    /// events that do not belong to one run's ledger, e.g. epoch
    /// barriers of a standing stream).
    pub(crate) fn observe(&self, ev: DstEvent) {
        if let Some(o) = &*self.observer.read() {
            o.on_event(ev);
        }
    }

    /// Schedule faults for the next run to begin. Multiple calls
    /// accumulate; that run drains the whole schedule.
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.faults.lock().extend(plan.ops);
    }

    /// Register (or clear) the DST progress observer. Unlike
    /// [`inject_faults`](Self::inject_faults) the observer persists
    /// across runs until cleared — the DST harness owns its lifetime.
    pub fn set_observer(&self, obs: Option<Arc<dyn DstObserver>>) {
        *self.observer.write() = obs;
    }

    /// Upload real data: partition into blocks, push every replica's
    /// payload to its holder as a `PutBlock` RPC from the driver.
    pub fn upload(&self, name: &str, owner: &str, data: &[u8]) {
        if let Err(e) = self.try_upload(name, owner, data) {
            panic!("upload {name:?} failed: {e}");
        }
    }

    /// Fallible twin of [`upload`](Self::upload): maps a metadata
    /// rejection through [`JobError::Open`] and a replica placement
    /// that cannot reach any holder to [`JobError::DataLoss`]. The
    /// epoch driver ingests every delta through this path — a fault
    /// burst during ingestion must surface as a typed error on that
    /// epoch, not tear the stream down.
    pub fn try_upload(&self, name: &str, owner: &str, data: &[u8]) -> Result<(), JobError> {
        let mut fs = self.fs.write();
        let meta = fs.upload(name, owner, data.len() as u64).map_err(JobError::from)?.clone();
        for b in &meta.blocks {
            let lo = (b.id.index * meta.block_size) as usize;
            let hi = (lo + b.size as usize).min(data.len());
            let payload = Bytes::copy_from_slice(&data[lo..hi]);
            let mut placed = 0usize;
            for &holder in fs.block_holders(b.id).expect("just uploaded") {
                let put = Rpc::PutBlock { block: b.id, data: payload.clone() };
                if matches!(self.net.call(CLIENT, holder, put), Ok(RpcReply::Ack)) {
                    placed += 1;
                }
            }
            if placed == 0 {
                return Err(JobError::DataLoss(b.id));
            }
        }
        Ok(())
    }

    /// Fetch a block payload as `reader`: local shard first, then fall
    /// back through every registered replica via `GetBlock` RPCs. A
    /// holder that cannot answer (missing copy, closed endpoint,
    /// timeout) just moves the read to the next replica; only when *no*
    /// copy is reachable anywhere does this return
    /// [`JobError::DataLoss`].
    fn fetch_block(&self, id: BlockId, reader: NodeId) -> Result<Bytes, JobError> {
        if let Some(d) = self.store.get(reader, id) {
            return Ok(d);
        }
        let holders = {
            let fs = self.fs.read();
            fs.block_holders(id).map_err(JobError::from)?.to_vec()
        };
        for h in holders {
            if h == reader {
                continue; // the local miss above already covered it
            }
            if let Ok(RpcReply::Block(Some(d))) =
                self.net.call(reader, h, Rpc::GetBlock { block: id })
            {
                return Ok(d);
            }
        }
        Err(JobError::DataLoss(id))
    }

    /// The cache clock: seconds since the cluster was built.
    fn cache_now(&self) -> f64 {
        self.born.elapsed().as_secs_f64()
    }

    /// iCache lookup on `owner`'s shard: direct when the reading node
    /// *is* the owner, a `CacheGet` RPC otherwise. Transport failures
    /// read as a miss — the cache is an optimization, never a source of
    /// truth.
    fn cache_lookup(&self, me: NodeId, owner: NodeId, key: &CacheKey) -> Option<Bytes> {
        if me == owner {
            return self.cache.with_node(owner, |c| c.get_payload(key, self.cache_now()));
        }
        match self.net.call(me, owner, Rpc::CacheGet { key: key.clone() }) {
            Ok(RpcReply::CacheValue(v)) => v,
            _ => None,
        }
    }

    /// iCache insert on `owner`'s shard. Cross-node inserts ride the
    /// windowed one-way lane — the worker keeps mapping instead of
    /// waiting out a round-trip for an optimization — and hand back a
    /// ticket the caller must flush (best-effort: failures are dropped
    /// for the same reason as in [`cache_lookup`](Self::cache_lookup)).
    fn cache_insert(
        &self,
        me: NodeId,
        owner: NodeId,
        key: CacheKey,
        data: Bytes,
        tenant: u16,
    ) -> Option<SendTicket> {
        if me == owner {
            let now = self.cache_now();
            self.cache.with_node(owner, |c| c.put_payload(key, data, now, None, tenant, false));
            return None;
        }
        self.net
            .send(me, owner, Rpc::CachePut { key, data, ttl: None, tenant, pin: false })
            .ok()
    }

    /// Run a MapReduce job over `input`, returning the reduced output as
    /// sorted (key, value) pairs plus execution stats. Panics on a
    /// terminal [`JobError`]; use [`try_run_job`](Self::try_run_job) to
    /// handle data loss gracefully.
    pub fn run_job(
        &self,
        app: &dyn MapReduce,
        input: &str,
        user: &str,
        reducers: usize,
        reuse: ReusePolicy,
    ) -> (Vec<(String, String)>, LiveStats) {
        self.try_run_job(app, input, user, reducers, reuse)
            .unwrap_or_else(|e| panic!("job failed: {e}"))
    }

    /// Fallible twin of [`run_job`](Self::run_job).
    pub fn try_run_job(
        &self,
        app: &dyn MapReduce,
        input: &str,
        user: &str,
        reducers: usize,
        reuse: ReusePolicy,
    ) -> Result<(Vec<(String, String)>, LiveStats), JobError> {
        let (parts, stats) =
            self.try_run_job_inputs_partitioned(app, &[input], user, reducers, reuse)?;
        Ok((merge_sorted_pairs(parts), stats))
    }

    /// The general one-shot job: fallible, over several input files at
    /// once, output kept per reduce partition. Every input's blocks are
    /// mapped (with their source index passed to
    /// [`MapReduce::map_into`], for reduce-side joins) into one
    /// shared shuffle, and a single reduce phase sees the co-grouped
    /// records of all inputs. Partitions come back in partition order,
    /// each internally key-sorted — with a range partitioner,
    /// concatenating them yields globally sorted output without a final
    /// merge.
    pub fn try_run_job_inputs_partitioned(
        &self,
        app: &dyn MapReduce,
        inputs: &[&str],
        user: &str,
        reducers: usize,
        reuse: ReusePolicy,
    ) -> Result<PartitionedOutput, JobError> {
        let run = Run::begin(self, inputs, user, reducers, reuse, None)?;
        std::thread::scope(|scope| {
            for wi in 1..run.threads {
                let run = &*run;
                scope.spawn(move || MapWorker::at(self, run, app, wi).work(true));
            }
            MapWorker::at(self, &run, app, 0).work(true);
        });
        run.finish(self, app, hardware_threads())
    }


    /// Store an application-tagged object in oCache (e.g. iteration
    /// output). Placed on the tag's home server under the current cache
    /// ranges; travels as a `CachePut` RPC.
    pub fn ocache_put(&self, app: &str, tag: &str, data: Bytes, ttl: Option<f64>) {
        let otag = OutputTag::new(app, tag);
        let home = self.cache.home_of(otag.hash_key());
        let put = Rpc::CachePut { key: CacheKey::Output(otag), data, ttl, tenant: 0, pin: false };
        let _ = self.net.call(CLIENT, home, put);
    }

    /// [`ocache_put`](Self::ocache_put) for **pinned, tenant-tagged**
    /// state — the epoch driver's materialized results. Pinned entries
    /// are never LRU-evicted (but stay quota-accounted and explicitly
    /// replaceable); returns false when the home rejected the insert
    /// (quota exhausted by other pins) or was unreachable, so the
    /// caller can fall back to its driver-side copy.
    pub fn ocache_put_pinned(
        &self,
        app: &str,
        tag: &str,
        data: Bytes,
        ttl: Option<f64>,
        tenant: u16,
    ) -> bool {
        let otag = OutputTag::new(app, tag);
        let home = self.cache.home_of(otag.hash_key());
        let put = Rpc::CachePut { key: CacheKey::Output(otag), data, ttl, tenant, pin: true };
        matches!(self.net.call(CLIENT, home, put), Ok(RpcReply::Ack))
    }

    /// Release a pinned oCache entry back to normal LRU lifetime
    /// (stream close). Local operation against the tag's current home
    /// shard; a re-homed entry simply ages out wherever it is.
    pub fn ocache_unpin(&self, app: &str, tag: &str) {
        let otag = OutputTag::new(app, tag);
        let home = self.cache.home_of(otag.hash_key());
        self.cache.with_node(home, |c| c.unpin(&CacheKey::Output(otag)));
    }

    /// Fetch a tagged object from oCache (a `CacheGet` RPC to the tag's
    /// home server).
    pub fn ocache_get(&self, app: &str, tag: &str) -> Option<Bytes> {
        let otag = OutputTag::new(app, tag);
        let home = self.cache.home_of(otag.hash_key());
        match self.net.call(CLIENT, home, Rpc::CacheGet { key: CacheKey::Output(otag) }) {
            Ok(RpcReply::CacheValue(v)) => v,
            _ => None,
        }
    }

    /// Global cache hit ratio so far.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Claim a job slot. Epoch streams hold one for their lifetime,
    /// drawn from the same modulo window one-shot jobs use, so a
    /// stream and a batch job never collide on a jid.
    pub(crate) fn reserve_jid(&self) -> u32 {
        self.next_jid.fetch_add(1, Ordering::Relaxed) % MAX_JOB_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::WordCount;

    fn text_cluster(data: &str) -> LiveCluster {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(256));
        c.upload("input", "tester", data.as_bytes());
        c
    }

    #[test]
    fn word_count_correct() {
        // Build text whose counts we know; keep words on whole-block
        // boundaries irrelevant by separating with newlines only.
        let data = "apple banana apple\ncherry banana apple\n".repeat(64);
        let c = text_cluster(&data);
        let (out, stats) =
            c.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
        let get = |w: &str| -> u64 {
            out.iter().find(|(k, _)| k == w).map(|(_, v)| v.parse().unwrap()).unwrap_or(0)
        };
        // Block splitting can cut words at block boundaries; with 256-byte
        // blocks and 38-byte lines, lines may straddle blocks. Totals can
        // therefore deviate slightly — assert the dominant counts.
        assert!(get("apple") >= 180 && get("apple") <= 192, "apple={}", get("apple"));
        assert!(get("banana") >= 120 && get("banana") <= 128);
        assert!(get("cherry") >= 60 && get("cherry") <= 64);
        assert_eq!(stats.map_tasks, (data.len() as u64).div_ceil(256));
        assert_eq!(stats.reduce_tasks, 4);
        assert_eq!(
            stats.tasks_per_node.iter().sum::<u64>(),
            stats.map_tasks,
            "every task placed exactly once"
        );
        assert_eq!(stats.attempts, stats.map_tasks, "fault-free run: one attempt each");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failed_nodes, 0);
        // The data plane travelled the transport: at least one RPC per
        // task (TaskAssign), cleanly, with no retries.
        assert!(stats.rpcs >= stats.map_tasks, "rpcs={}", stats.rpcs);
        assert!(stats.bytes_sent > 0);
        assert_eq!(stats.timeouts, 0, "fault-free run must not time out");
        assert_eq!(stats.rpc_retries, 0);
    }

    #[test]
    fn word_count_identical_over_tcp() {
        let data = "apple banana apple\ncherry banana apple\n".repeat(64);
        let mem = text_cluster(&data);
        let tcp = LiveCluster::new(
            LiveConfig::small()
                .with_block_size(256)
                .with_transport(TransportKind::Tcp),
        );
        tcp.upload("input", "tester", data.as_bytes());
        let (out_mem, _) =
            mem.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
        let (out_tcp, stats) =
            tcp.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
        assert_eq!(out_mem, out_tcp, "TCP transport must not change results");
        assert!(stats.rpcs > 0);
        assert!(stats.bytes_sent > 0, "frames crossed real sockets");
    }

    #[test]
    fn second_run_hits_cache() {
        let data = "x y z\n".repeat(512);
        let c = text_cluster(&data);
        let (_, s1) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        assert_eq!(s1.cache_hits, 0);
        let (_, s2) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        assert!(s2.cache_hits > 0, "second run should hit iCache");
        assert!(s2.cache_hits + s2.cache_misses == s2.map_tasks);
    }

    #[test]
    fn results_identical_across_schedulers() {
        let data = "dog cat bird fish\n".repeat(200);
        let laf = LiveCluster::new(LiveConfig::small().with_block_size(512));
        laf.upload("input", "t", data.as_bytes());
        let delay = LiveCluster::new(
            LiveConfig::small()
                .with_block_size(512)
                .with_scheduler(SchedulerKind::Delay(Default::default())),
        );
        delay.upload("input", "t", data.as_bytes());
        let (out_laf, _) = laf.run_job(&WordCount, "input", "t", 3, ReusePolicy::default());
        let (out_delay, _) = delay.run_job(&WordCount, "input", "t", 3, ReusePolicy::default());
        assert_eq!(out_laf, out_delay, "scheduling must not change results");
    }

    #[test]
    fn node_failure_preserves_results() {
        let data = "alpha beta gamma\n".repeat(300);
        let c = text_cluster(&data);
        let (before, _) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        let victim = c.ring().node_ids()[2];
        let held = c.store().blocks_on(victim).len() as u64;
        let report = c.crash_node(victim).expect("survivors hold every replica");
        assert_eq!(report.recovered_blocks, held, "every held block re-replicated");
        let (after, stats) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        assert_eq!(before, after, "failure must not lose data");
        assert_eq!(stats.tasks_per_node[victim.index()], 0, "dead node got tasks");
    }

    /// Re-replication falls back through every surviving holder: with
    /// the planned source cut off from the new home, another survivor
    /// serves the copy and the crash recovers.
    #[test]
    fn crash_recovers_through_another_holder_when_the_first_source_is_cut() {
        let c = LiveCluster::new(LiveConfig::small().with_nodes(6).with_block_size(256));
        c.upload("input", "tester", "alpha beta gamma delta\n".repeat(60).as_bytes());
        let (before, _) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        let victim = c.ring().node_ids()[1];
        let held = c.store().blocks_on(victim).len() as u64;
        assert!(held > 0, "the victim holds blocks");
        let plan = c.fs.read().clone().fail_node(victim).expect("victim is a member");
        let copy = plan.copies[0];
        let net = c.mem_net().expect("memory transport");
        net.cut_one_way(copy.from, copy.to);
        net.cut_one_way(copy.to, copy.from);
        let report = c.crash_node(victim).expect("another survivor serves the copy");
        assert_eq!(report.recovered_blocks, plan.copies.len() as u64);
        assert!(report.recovered_blocks >= held);
        assert!(c.store().get(copy.to, copy.block).is_some(), "the new home got its copy");
        net.heal_all();
        let (after, _) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        assert_eq!(before, after, "recovery lost data");
    }

    /// A crash that loses data still publishes the new membership: the
    /// error names a lost block, the ring drops the victim and the
    /// epoch moves.
    #[test]
    fn crash_that_loses_data_still_publishes_membership() {
        let (c, victim) = single_copy_cluster();
        let held = c.store().blocks_on(victim);
        let epoch = c.epoch();
        match c.crash_node(victim) {
            Err(eclipse_dhtfs::FsError::DataLoss(b)) => {
                assert!(held.contains(&b), "{b:?} not on the victim")
            }
            other => panic!("expected DataLoss, got {other:?}"),
        }
        assert!(!c.ring().contains(victim), "the published ring still names the victim");
        assert!(c.epoch() > epoch, "the membership epoch did not move");
        assert!(c.cache_ranges().iter().all(|(n, _)| *n != victim));
    }

    /// A four-node cluster that keeps one copy of each block, holding
    /// `input`, and a node holding some of it.
    fn single_copy_cluster() -> (LiveCluster, NodeId) {
        let c = LiveCluster::new(
            LiveConfig::small().with_nodes(4).with_block_size(256).with_replicas(0),
        );
        c.upload("input", "tester", "alpha beta gamma delta\n".repeat(60).as_bytes());
        let holder = c
            .ring()
            .node_ids()
            .into_iter()
            .find(|&n| !c.store().blocks_on(n).is_empty())
            .expect("some node holds blocks");
        (c, holder)
    }

    /// After data was lost: a job over `input` fails with `DataLoss`
    /// rather than panicking, and a fresh file uploads and runs.
    fn jobs_run_after_a_loss(c: &LiveCluster) {
        match c.try_run_job(&WordCount, "input", "tester", 2, ReusePolicy::default()) {
            Err(JobError::DataLoss(_)) => {}
            other => panic!("expected DataLoss, got {:?}", other.map(|(out, _)| out.len())),
        }
        c.upload("fresh", "tester", "one two two\n".repeat(40).as_bytes());
        let (out, _) = c.run_job(&WordCount, "fresh", "tester", 2, ReusePolicy::default());
        assert_eq!(out, [("one".to_string(), "40".to_string()), ("two".into(), "80".into())]);
    }

    /// A block a crash lost keeps no holder. A later joiner whose arc
    /// covers it plans no pull for it, and jobs still run.
    #[test]
    fn a_join_after_a_crash_that_lost_data_skips_the_lost_block() {
        let (c, victim) = single_copy_cluster();
        let lost = match c.crash_node(victim) {
            Err(eclipse_dhtfs::FsError::DataLoss(b)) => b,
            other => panic!("expected DataLoss, got {other:?}"),
        };
        let meta = c.fs.read().stat("input").expect("uploaded").clone();
        let key = meta.blocks.iter().find(|b| b.id == lost).expect("a block of input").key;
        // A joiner name whose ring position makes it the lost block's
        // owner, so the block is in the joiner's arc.
        let probe = NodeId(u32::MAX);
        let name = (0..)
            .map(|i| format!("joiner-{i}"))
            .find(|name| {
                let mut fs = c.fs.read().clone();
                fs.join(eclipse_ring::ServerInfo::from_name(probe, name.as_str())).is_ok()
                    && fs.ring().owner_of(key).map(|s| s.id) == Ok(probe)
            })
            .expect("some name lands on the block");
        let joiner = c.join_node(&name);
        assert_eq!(c.ring().owner_of(key).map(|s| s.id), Ok(joiner));
        assert!(c.fs.read().block_holders(lost).expect("still listed").is_empty());
        jobs_run_after_a_loss(&c);
    }

    /// A graceful leave whose handoff reaches no new home still
    /// completes the departure: the error names a lost block, the ring
    /// drops the leaver, and later joins and jobs work.
    #[test]
    fn a_leave_that_loses_data_still_departs() {
        let (c, leaver) = single_copy_cluster();
        let held = c.store().blocks_on(leaver);
        let net = c.mem_net().expect("memory transport");
        for other in c.ring().node_ids().into_iter().filter(|&n| n != leaver) {
            net.cut_one_way(other, leaver);
            net.cut_one_way(leaver, other);
        }
        let epoch = c.epoch();
        match c.leave_node(leaver) {
            Err(eclipse_dhtfs::FsError::DataLoss(b)) => {
                assert!(held.contains(&b), "{b:?} was not on the leaver")
            }
            other => panic!("expected DataLoss, got {other:?}"),
        }
        net.heal_all();
        assert!(!c.ring().contains(leaver), "the published ring still names the leaver");
        assert!(c.epoch() > epoch, "the membership epoch did not move");
        assert!(c.store().blocks_on(leaver).is_empty(), "the leaver kept its store");
        c.join_node("after-leave");
        jobs_run_after_a_loss(&c);
    }

    #[test]
    fn crash_during_map_preserves_results() {
        let data = "alpha beta gamma delta\n".repeat(400);
        let c = text_cluster(&data);
        let (baseline, _) = c.run_job(&WordCount, "input", "tester", 3, ReusePolicy::default());
        let victim = c.ring().node_ids()[1];
        c.inject_faults(FaultPlan::new().crash_after_maps(victim, 2));
        let (out, stats) = c
            .try_run_job(&WordCount, "input", "tester", 3, ReusePolicy::default())
            .expect("job survives a single crash");
        assert_eq!(out, baseline, "mid-map crash must not change output");
        assert_eq!(stats.failed_nodes, 1);
        assert!(!c.ring().contains(victim), "victim evicted from the ring");
    }

    #[test]
    fn injected_task_faults_are_retried() {
        let data = "red green blue\n".repeat(200);
        let c = text_cluster(&data);
        let (baseline, _) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        // First two attempts of task 0 die; the third succeeds.
        c.inject_faults(FaultPlan::new().fail_task(0, 2));
        let (out, stats) = c
            .try_run_job(&WordCount, "input", "tester", 2, ReusePolicy::default())
            .expect("retries absorb the injected faults");
        assert_eq!(out, baseline);
        assert!(stats.retries >= 2, "retries={}", stats.retries);
        assert_eq!(stats.attempts, stats.map_tasks + stats.retries);
    }

    #[test]
    fn retry_budget_exhaustion_is_terminal() {
        let data = "solo\n".repeat(64);
        let c = text_cluster(&data);
        // More injected failures than MAX_ATTEMPTS: the task can never
        // succeed and the job must fail cleanly (not hang).
        c.inject_faults(FaultPlan::new().fail_task(0, MAX_ATTEMPTS + 4));
        let err = c
            .try_run_job(&WordCount, "input", "tester", 2, ReusePolicy::default())
            .expect_err("budget exhaustion is terminal");
        assert!(
            matches!(err, JobError::TaskFailed { task: 0, .. }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn joined_node_participates() {
        let data = "p q r s\n".repeat(400);
        let c = LiveCluster::new(LiveConfig::small().with_nodes(4).with_block_size(256));
        c.upload("before", "t", data.as_bytes());
        let (out1, _) = c.run_job(&WordCount, "before", "t", 2, ReusePolicy::default());
        let newbie = c.join_node("latecomer");
        assert_eq!(c.ring().len(), 5);
        // Old data still fully readable.
        let (out2, _) = c.run_job(&WordCount, "before", "t", 2, ReusePolicy::default());
        assert_eq!(out1, out2);
        // New uploads place blocks on the joiner.
        c.upload("after", "t", data.as_bytes());
        let (out3, stats) = c.run_job(&WordCount, "after", "t", 2, ReusePolicy::default());
        assert_eq!(out3.len(), out1.len());
        assert!(
            stats.tasks_per_node[newbie.index()] > 0,
            "joiner ran nothing: {:?}",
            stats.tasks_per_node
        );
    }

    #[test]
    fn mid_job_join_preserves_results() {
        let data = "up down strange charm top bottom\n".repeat(400);
        let c = text_cluster(&data);
        let (baseline, _) = c.run_job(&WordCount, "input", "tester", 3, ReusePolicy::default());
        let c2 = text_cluster(&data);
        let n0 = c2.ring().len();
        let e0 = c2.epoch();
        c2.inject_faults(FaultPlan::new().join_at_maps(3));
        let (out, stats) = c2
            .try_run_job(&WordCount, "input", "tester", 3, ReusePolicy::default())
            .expect("a join must never fail a job");
        assert_eq!(out, baseline, "mid-job join must not change output");
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.leaves, 0);
        assert_eq!(stats.drained_tasks, 0);
        assert_eq!(c2.ring().len(), n0 + 1, "joiner is a member afterwards");
        assert!(c2.epoch() > e0, "membership epoch advanced");
        assert_eq!(
            stats.tasks_per_node.len(),
            n0 + 1,
            "per-node counts cover the final membership"
        );
        assert!(
            stats.handoff_blocks > 0,
            "joiner pulled the replicas its range made it responsible for"
        );
        assert_eq!(
            stats.attempts,
            stats.map_tasks + stats.retries + stats.speculative_attempts,
            "attempt ledger stays exact across a join"
        );
    }

    #[test]
    fn mid_job_graceful_leave_preserves_results() {
        let data = "one two three four five six\n".repeat(400);
        let c = text_cluster(&data);
        let (baseline, _) = c.run_job(&WordCount, "input", "tester", 3, ReusePolicy::default());
        let c2 = text_cluster(&data);
        let leaver = c2.ring().node_ids()[2];
        let e0 = c2.epoch();
        c2.inject_faults(FaultPlan::new().leave_at_maps(leaver, 2));
        let (out, stats) = c2
            .try_run_job(&WordCount, "input", "tester", 3, ReusePolicy::default())
            .expect("a graceful leave must not fail a healthy job");
        assert_eq!(out, baseline, "graceful leave must not change output");
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.joins, 0);
        assert_eq!(stats.failed_nodes, 0, "a leave is not a crash");
        assert!(!c2.ring().contains(leaver), "leaver deregistered");
        assert!(c2.epoch() > e0, "membership epoch advanced");
        assert_eq!(
            stats.attempts,
            stats.map_tasks + stats.retries + stats.speculative_attempts,
            "drained re-executions are ordinary retries"
        );
        // The departed node serves nothing in a follow-up run.
        let (again, s2) = c2.run_job(&WordCount, "input", "tester", 3, ReusePolicy::default());
        assert_eq!(again, baseline);
        assert_eq!(s2.tasks_per_node[leaver.index()], 0);
    }

    #[test]
    fn leave_between_jobs_moves_replicas() {
        let data = "alpha beta gamma delta\n".repeat(300);
        let c = text_cluster(&data);
        let (before, _) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        let leaver = c.ring().node_ids()[1];
        c.leave_node(leaver).expect("peers absorb the handoff");
        assert!(!c.ring().contains(leaver));
        let (after, stats) = c.run_job(&WordCount, "input", "tester", 2, ReusePolicy::default());
        assert_eq!(before, after, "leave must not lose data");
        assert_eq!(stats.tasks_per_node[leaver.index()], 0, "departed node got tasks");
    }

    #[test]
    fn leave_guards_reject_unknown_and_last_node() {
        let c = LiveCluster::new(LiveConfig::small().with_nodes(2));
        let ids = c.ring().node_ids();
        assert!(c.leave_node(NodeId(99)).is_err(), "unknown node");
        c.leave_node(ids[0]).expect("one of two can leave");
        assert!(c.leave_node(ids[1]).is_err(), "the last node cannot leave");
        assert_eq!(c.ring().len(), 1);
    }

    #[test]
    fn membership_epoch_counts_every_change() {
        let c = text_cluster(&"red green blue\n".repeat(200));
        let mut e = c.epoch();
        let mut bumped = |c: &LiveCluster, what: &str| {
            e += 1;
            assert_eq!(c.epoch(), e, "{what} must bump the epoch exactly once");
        };
        let joiner = c.join_node("epoch-joiner");
        bumped(&c, "join_node");
        c.leave_node(joiner).expect("peers absorb the handoff");
        bumped(&c, "leave_node");
        assert_eq!(c.active_jobs(), 0);
        c.crash_node(c.ring().node_ids()[1]).expect("survivors hold every replica");
        bumped(&c, "between-jobs crash_node");
        assert!(c.leave_node(NodeId(99)).is_err());
        assert_eq!(c.epoch(), e, "a rejected leave changes nothing");
    }

    #[test]
    fn speculation_preserves_results_under_straggler() {
        let data = "ant bee cow doe elk fox\n".repeat(400);
        let c = text_cluster(&data);
        let (baseline, _) = c.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
        let spec = LiveCluster::new(
            LiveConfig::small()
                .with_block_size(256)
                // One worker thread per node regardless of host cores, so
                // the straggler actually claims (and straggles on) tasks.
                .with_map_slots(8)
                .with_speculation(SpeculationConfig {
                    slowdown: 2.0,
                    min_completed: 3,
                    poll_micros: 200,
                }),
        );
        spec.upload("input", "tester", data.as_bytes());
        // Slow a non-home node hard enough that backups fire.
        let victim = spec.ring().node_ids()[5];
        spec.inject_faults(FaultPlan::new().slow_node(victim, 5_000));
        let (out, stats) = spec
            .try_run_job(&WordCount, "input", "tester", 4, ReusePolicy::default())
            .expect("speculation must not fail a healthy job");
        assert_eq!(out, baseline, "backups must not change output");
        assert!(
            stats.speculative_wins <= stats.speculative_attempts,
            "wins={} attempts={}",
            stats.speculative_wins,
            stats.speculative_attempts
        );
        // Every attempt is the primary, a retry, or a backup.
        assert!(
            stats.speculative_wins + stats.retries <= stats.attempts - stats.map_tasks,
            "wins={} retries={} attempts={} tasks={}",
            stats.speculative_wins,
            stats.retries,
            stats.attempts,
            stats.map_tasks
        );
    }

    #[test]
    fn speculation_noop_without_stragglers() {
        let data = "red green blue\n".repeat(300);
        let c = text_cluster(&data);
        let (baseline, _) = c.run_job(&WordCount, "input", "tester", 3, ReusePolicy::default());
        let spec = LiveCluster::new(
            LiveConfig::small()
                .with_block_size(256)
                .with_map_slots(8)
                .with_speculation(SpeculationConfig::default()),
        );
        spec.upload("input", "tester", data.as_bytes());
        let (out, stats) =
            spec.run_job(&WordCount, "input", "tester", 3, ReusePolicy::default());
        assert_eq!(out, baseline);
        assert_eq!(stats.retries, 0);
        assert!(
            stats.speculative_wins + stats.retries <= stats.attempts - stats.map_tasks,
            "attempt accounting broke: {stats:?}"
        );
    }

    #[test]
    fn replicated_map_out_preserves_results() {
        let data = "kiwi lime mango nectarine\n".repeat(400);
        let c = text_cluster(&data);
        let (baseline, base_stats) =
            c.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
        for r in [2usize, 3] {
            let repl = LiveCluster::new(
                LiveConfig::small()
                    .with_block_size(256)
                    .with_map_slots(8)
                    .with_map_replication(r),
            );
            repl.upload("input", "tester", data.as_bytes());
            let (out, stats) =
                repl.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
            assert_eq!(out, baseline, "r={r} must not change output");
            assert!(
                stats.map_tasks > base_stats.map_tasks,
                "r={r} should split blocks into sub-tasks: {} vs {}",
                stats.map_tasks,
                base_stats.map_tasks
            );
            assert!(
                stats.local_shuffle_records > 0,
                "r={r} should deliver some shuffle locally"
            );
        }
    }

    #[test]
    fn ocache_roundtrip() {
        let c = LiveCluster::new(LiveConfig::small());
        c.ocache_put("kmeans", "iter0", Bytes::from_static(b"centroids"), None);
        assert_eq!(c.ocache_get("kmeans", "iter0").unwrap(), Bytes::from_static(b"centroids"));
        assert!(c.ocache_get("kmeans", "iter1").is_none());
    }

    #[test]
    fn ocache_ttl_expires() {
        let c = LiveCluster::new(LiveConfig::small());
        c.ocache_put("app", "temp", Bytes::from_static(b"d"), Some(-1.0));
        // TTL in the past: the entry is dead on arrival.
        assert!(c.ocache_get("app", "temp").is_none());
    }

    #[test]
    fn ocache_ttl_expires_in_wall_time() {
        let c = LiveCluster::new(LiveConfig::small());
        c.ocache_put("app", "short", Bytes::from_static(b"d"), Some(0.05));
        c.ocache_put("app", "long", Bytes::from_static(b"d"), Some(3600.0));
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(c.ocache_get("app", "short").is_none(), "a 50 ms TTL outlived 100 ms");
        assert!(c.ocache_get("app", "long").is_some());
    }
}
