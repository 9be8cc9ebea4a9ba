//! One job run: the request, its frozen placement, the attempt ledger,
//! the fault schedule, the partition fold and the statistics — see the
//! parent module's "Execution model".
//!
//! [`Run::begin`] validates the request, places its blocks, registers
//! the run cluster-wide and installs its shuffle route; the run's
//! threads come from outside. Every run — one-shot job, server job or
//! epoch wave — is mapped by [`MapWorker::work`] on the thread that
//! began it, with helpers running the same loop alongside, then sealed
//! and folded by [`Run::finish`] or [`Run::finish_with`]. Every run
//! ends in [`Run::retire`].
//!
//! A batch partition's fold mirrors the map side's two buffers
//! (`Buffered::{Records, Combined}` in `worker.rs`): a combiner app's
//! partition with more than one run folds every partial aggregate
//! through a combining table and reduces each key once; any other
//! partition k-way merges its runs into key groups (`reduce_runs`).
//! Epoch waves always take the merged groups.
#![deny(clippy::too_many_lines)]

use super::place::MapTask;
use super::router::{TaskBatch, JOB_SHIFT, TID_MASK};
use super::worker::{shuffle_hash, FreeList, Table};
use super::{
    hardware_threads, DstEvent, DstObserver, FaultOp, LiveCluster, LiveSched, LiveStats, MapReduce,
    SpeculationConfig, SLOW_SERVE_DIV,
};
use crate::job::{JobError, ReusePolicy};
use eclipse_net::{merge_groups, NetSnapshot};
use eclipse_ring::NodeId;
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commit-board sentinel: no attempt of this task has committed yet.
pub(super) const UNCOMMITTED: u32 = u32::MAX;
/// Claim-slot sentinel: no worker has claimed this task yet.
const NO_CLAIM: u32 = u32::MAX;

/// Per-reducer output partitions paired with the run's [`LiveStats`]:
/// what the partitioned entry point yields.
pub type PartitionedOutput = (Vec<Vec<(String, String)>>, LiveStats);

/// One reduce partition's shuffle input after dedup: the committed
/// attempts' runs, ordered by `(task, seq)` — input order. Each run is
/// held as columns, however it arrived, so every fold slices keys and
/// values out of them.
pub(crate) struct PartitionRuns(Vec<TaskBatch>);

impl PartitionRuns {
    /// Map-side records across the runs.
    pub(crate) fn records(&self) -> u64 {
        self.0.iter().map(|b| b.run.len() as u64).sum()
    }

    /// K-way merge the runs by their key groups: `group(key, values)`
    /// once per distinct key, in key order, with the key's values in
    /// input order (ties between runs go to the lower `(task, seq)`).
    pub(crate) fn for_each_group<'a>(&'a self, group: impl FnMut(&str, &[&'a str])) {
        merge_groups(self.0.iter().map(|b| &b.run), group);
    }
}

/// Event counters of one run; [`Run::stats`] turns them into
/// [`LiveStats`] fields of the same names.
#[derive(Default)]
pub(super) struct Tally {
    pub(super) hits: AtomicU64,
    pub(super) misses: AtomicU64,
    pub(super) remote: AtomicU64,
    pub(super) spills: AtomicU64,
    pub(super) steals: AtomicU64,
    pub(super) attempts: AtomicU64,
    pub(super) retries: AtomicU64,
    pub(super) failed_nodes: AtomicU64,
    pub(super) recovered_blocks: AtomicU64,
    pub(super) recovery_nanos: AtomicU64,
    pub(super) speculative_attempts: AtomicU64,
    pub(super) speculative_wins: AtomicU64,
    pub(super) cancelled_attempts: AtomicU64,
    pub(super) local_shuffle_records: AtomicU64,
    pub(super) joins: AtomicU64,
    pub(super) leaves: AtomicU64,
    pub(super) handoff_blocks: AtomicU64,
    pub(super) handoff_bytes: AtomicU64,
    pub(super) drained_tasks: AtomicU64,
}

/// One run's shared state. Registered (`Arc`) in the cluster's run
/// registry from [`Run::begin`] to [`Run::retire`]; worker and reducer
/// threads share it by reference.
pub(crate) struct Run {
    /// Job slot this run occupies: wire task ids are
    /// `(jid << JOB_SHIFT) | tid`.
    pub(super) jid: u32,
    /// Shuffle epoch this run ships under (0 for a one-shot job). A
    /// standing job reuses one jid across waves; the tag lets the
    /// router ack-drop late batches from an already-committed epoch.
    pub(super) epoch: u32,
    /// Cache-quota tenant the job's inserts are accounted to
    /// (0 = untagged).
    pub(super) tenant: u16,
    pub(super) inputs: Vec<String>,
    pub(super) reducers: usize,
    pub(super) reuse: ReusePolicy,
    pub(super) tasks: Vec<MapTask>,
    /// Ring members at run start, ring order: worker homes, drain order
    /// and re-homing all walk this.
    pub(super) workers: Vec<NodeId>,
    /// Frozen per-node work queues (indexed by node index) plus one
    /// atomic cursor each: workers claim with `fetch_add`, so every
    /// task's first attempt starts exactly once no matter who executes
    /// it; re-execution flows through `retry` instead.
    pub(super) queues: Vec<Vec<usize>>,
    pub(super) cursors: Vec<AtomicUsize>,
    /// Replicated map-out pins sub-tasks to their placement: stealing
    /// one onto another node would turn its carefully co-located
    /// shuffle remote again. Only a crashed owner's queue runs
    /// elsewhere.
    pub(super) pinned: bool,
    /// Sizes a one-shot job's scoped helpers, `threads - 1` of them
    /// beside the inline driver: the machine's parallelism times
    /// `map_slots`, never more than the node count. A server or epoch
    /// run takes its helpers from the pool instead.
    pub(super) threads: usize,
    /// Reduce-partition receivers, taken by whoever folds.
    receivers: Mutex<Vec<Receiver<TaskBatch>>>,
    /// Transport counters at begin: traffic is attributed by delta.
    net_before: NetSnapshot,
    /// Nodes whose RPC serving this run slowed (`SlowNode` faults).
    slow_nodes: Vec<u32>,
    /// Commit board: `commits[t]` is the winning attempt number, or
    /// [`UNCOMMITTED`]. Written once per task by CAS.
    pub(super) commits: Vec<AtomicU32>,
    /// Next attempt number to hand out per task.
    pub(super) next_attempt: Vec<AtomicU32>,
    /// Index of the node each task's latest non-speculative attempt
    /// runs as — the crash handler re-queues the victim's claims.
    pub(super) claims: Vec<AtomicU32>,
    /// Count of committed tasks (fast all-done check).
    pub(super) committed: AtomicUsize,
    /// Tasks needing re-execution after a crash / fault / panic.
    pub(super) retry: Mutex<Vec<usize>>,
    /// First terminal error wins.
    error: Mutex<Option<JobError>>,
    aborted: AtomicBool,
    /// Crash flags, indexed by node index. A poisoned node's worker
    /// re-homes; its sends are suppressed ("the crash loses in-flight
    /// messages").
    pub(super) poisoned: Vec<AtomicBool>,
    /// Committed map count (drives `CrashAfterMaps` triggers).
    pub(super) maps_done: AtomicU64,
    /// Shuffle batches sent (drives `CrashAfterSpills` triggers).
    pub(super) spills_sent: AtomicU64,
    /// Remaining fault schedule; crash ops are consumed when they fire.
    ops: Mutex<Vec<FaultOp>>,
    /// Faults were scheduled at begin — when false, the hot path never
    /// touches `ops`.
    pub(super) armed: bool,
    /// DST progress observer for this run (cloned from the cluster at
    /// begin so the hot path never takes the cluster's lock).
    obs: Option<Arc<dyn DstObserver>>,
    /// Non-speculative failures per task. Only these count against the
    /// retry budget — a lost backup must not push a healthy task over
    /// `MAX_ATTEMPTS`.
    pub(super) failures: Vec<AtomicU32>,
    /// Running map attempts per node index: the load signal for backup
    /// placement, and a busy owner's mark in the frozen-queue drain.
    pub(super) running: Vec<AtomicU32>,
    /// Backup launch requests: `(task, node to run it as)`. Idle
    /// workers drain this.
    spec: Mutex<Vec<(usize, NodeId)>>,
    /// At most one backup per task, ever.
    spec_launched: Vec<AtomicBool>,
    /// Committed map attempt durations in nanos — the straggler
    /// watch's median baseline. Only populated when speculation is on.
    pub(super) durations: Mutex<Vec<u64>>,
    /// When the straggler watch last ran (one idle worker at a time).
    watched: Mutex<Instant>,
    pub(super) tally: Tally,
}

fn atomics<A>(n: usize, new: impl Fn() -> A) -> Vec<A> {
    (0..n).map(|_| new()).collect()
}

impl Run {
    /// Validate a request, place it and arm it: open the inputs, run
    /// placement and the `TaskAssign` round, drain the cluster's
    /// pending fault schedule into the ledger, register the run, and
    /// install its shuffle route. `standing` is an epoch stream's
    /// `(jid, epoch)`; a one-shot job draws a fresh jid and ships under
    /// epoch 0. Every run that begins must [`retire`](Self::retire).
    pub(crate) fn begin(
        cluster: &LiveCluster,
        inputs: &[&str],
        user: &str,
        reducers: usize,
        reuse: ReusePolicy,
        standing: Option<(u32, u32)>,
    ) -> Result<Arc<Run>, JobError> {
        if reducers == 0 {
            return Err(JobError::InvalidRequest("a job needs at least one reducer"));
        }
        if cluster.cfg.shuffle_batch_bytes == 0 {
            return Err(JobError::InvalidRequest("shuffle_batch_bytes must be positive"));
        }
        if inputs.is_empty() {
            return Err(JobError::InvalidRequest("a job needs at least one input file"));
        }
        let tenant = cluster.tenant_of(user)?;
        let metas = {
            let fs = cluster.fs.read();
            let open = |input: &&str| fs.open(input, user).cloned().map_err(JobError::from);
            inputs.iter().map(open).collect::<Result<Vec<_>, _>>()?
        };
        let net_before = cluster.net.stats();
        // Placement reads the ring and the scheduler; a membership
        // change must not land between that read and registration, or
        // the new run would neither see the repaired ring nor be
        // poisoned by the recovery walk.
        let gate = cluster.recovery_gate.lock();
        // Worker identities and reducer homes are fixed at run start;
        // replicated map-out needs both *before* placement so a block's
        // replica holders can be drawn from the reducer-home nodes.
        let workers: Vec<NodeId> = cluster.ring.read().node_ids();
        let homes: Vec<NodeId> = (0..reducers).map(|p| workers[p % workers.len()]).collect();
        let tasks = cluster.place(&metas, &workers, &homes);
        if tasks.len() > TID_MASK as usize {
            return Err(JobError::InvalidRequest("too many map tasks for one job"));
        }
        let (jid, epoch) = standing.unwrap_or_else(|| (cluster.reserve_jid(), 0));
        let queues = cluster.assign_tasks(jid, &tasks);

        let ops = std::mem::take(&mut *cluster.faults.lock());
        // Per-node ledgers cover the nodes this run's elastic joins
        // will add, so a joiner's index is in range.
        let planned_joins =
            ops.iter().filter(|op| matches!(op, FaultOp::JoinAtMaps { .. })).count();
        let (n, slots) = (tasks.len(), queues.len() + planned_joins);
        let mut receivers = Vec::with_capacity(reducers);
        let senders = (0..reducers)
            .map(|_| {
                let (tx, rx) = unbounded();
                receivers.push(rx);
                tx
            })
            .collect();
        let run = Arc::new(Run {
            jid,
            epoch,
            tenant,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            reducers,
            reuse,
            pinned: cluster.cfg.map_replication.min(workers.len()) > 1,
            threads: workers.len().min(hardware_threads() * cluster.cfg.map_slots.max(1)),
            cursors: atomics(queues.len(), || AtomicUsize::new(0)),
            queues,
            workers,
            tasks,
            receivers: Mutex::new(receivers),
            net_before,
            slow_nodes: cluster.slow_serving_for(&ops),
            commits: atomics(n, || AtomicU32::new(UNCOMMITTED)),
            next_attempt: atomics(n, || AtomicU32::new(0)),
            claims: atomics(n, || AtomicU32::new(NO_CLAIM)),
            committed: AtomicUsize::new(0),
            retry: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            poisoned: atomics(slots, || AtomicBool::new(false)),
            maps_done: AtomicU64::new(0),
            spills_sent: AtomicU64::new(0),
            armed: !ops.is_empty(),
            ops: Mutex::new(ops),
            obs: cluster.observer.read().clone(),
            failures: atomics(n, || AtomicU32::new(0)),
            running: atomics(slots, || AtomicU32::new(0)),
            spec: Mutex::new(Vec::new()),
            spec_launched: atomics(n, || AtomicBool::new(false)),
            durations: Mutex::new(Vec::new()),
            watched: Mutex::new(Instant::now()),
            tally: Tally::default(),
        });
        cluster.active.lock().insert(jid, Arc::clone(&run));
        // Shuffle plane: partition `p`'s reducer "lives on" a home node
        // and batches are addressed there as `ShuffleBatch` RPCs; the
        // receiving handler feeds the partition channel. The router
        // holds the only senders, so `end_job` hangs the channels up.
        cluster.router.begin_epoch(jid, senders, homes, epoch);
        drop(gate);
        run.notify(DstEvent::JobStart { tasks: n });
        Ok(run)
    }

    /// The map phase is over: the inline driver saw the barrier. Tear
    /// down the shuffle plane (dropping the router's senders) so the
    /// folds see end-of-stream; straggler RPC deliveries after this
    /// point are refused rather than leaking into a later job.
    fn seal(&self, cluster: &LiveCluster) {
        // Tasks still uncommitted with nothing aborted: every worker
        // died mid-job — fail loudly instead of folding partial output.
        if !self.done() {
            let lost = self.commits.iter().position(|c| c.load(Ordering::Acquire) == UNCOMMITTED);
            self.abort(JobError::DataLoss(self.tasks[lost.unwrap_or(0)].bid));
        }
        cluster.router.end_job(self.jid);
    }

    fn take_receivers(&self) -> Vec<Receiver<TaskBatch>> {
        std::mem::take(&mut *self.receivers.lock())
    }

    /// One partition's shuffle input, deduplicated against the commit
    /// board. Runs after the [`seal`](Self::seal): the channel is hung
    /// up and the board is final, so only the winners' runs are kept.
    fn collect(&self, cluster: &LiveCluster, rx: &Receiver<TaskBatch>) -> PartitionRuns {
        let won = |b: &TaskBatch| {
            self.commits[(b.task & TID_MASK) as usize].load(Ordering::Acquire) == b.attempt
        };
        let mut runs: Vec<TaskBatch> = rx.iter().filter(won).collect();
        // Reduce-phase crash: all maps have committed by now, so
        // recovery re-replicates and heals the ring but has nothing to
        // re-queue.
        if self.armed {
            while let Some(victim) = self.due_in_reduce() {
                cluster.crash_node_mid_job(victim, self);
            }
        }
        // Input order: block by block, each block's spills in order.
        runs.sort_unstable_by_key(|b| (b.task, b.seq));
        PartitionRuns(runs)
    }

    /// The partition fold of a batch job, for every partition of one
    /// lane in turn: collect, then merge and reduce. A panicking `reduce`
    /// aborts the run with [`JobError::ReduceFailed`] instead of
    /// unwinding the folding thread, so the run still retires.
    fn fold_lane(
        &self,
        cluster: &LiveCluster,
        app: &dyn MapReduce,
        lane: Vec<(usize, Receiver<TaskBatch>)>,
    ) -> Vec<(usize, Vec<(String, String)>)> {
        lane.into_iter()
            .map(|(p, rx)| {
                let runs = self.collect(cluster, &rx);
                if self.is_aborted() {
                    return (p, Vec::new());
                }
                let tables = &cluster.buffers.tables;
                let reduce = std::panic::AssertUnwindSafe(|| reduce_runs(app, &runs, tables));
                let out = std::panic::catch_unwind(reduce).unwrap_or_else(|_| {
                    self.abort(JobError::ReduceFailed { partition: p });
                    Vec::new()
                });
                (p, out)
            })
            .collect()
    }

    /// Close a run whose map phase is over and fold its partitions on
    /// `lanes` threads, never more than one per partition: partition
    /// `p` goes to lane `p % lanes`, lane 0 folds on the calling thread
    /// and the rest on scoped ones. A one-shot job staffs one lane per
    /// hardware thread; a server driver folds on its own thread alone,
    /// since spawning per job is most of a small job's fixed cost.
    pub(crate) fn finish(
        &self,
        cluster: &LiveCluster,
        app: &dyn MapReduce,
        lanes: usize,
    ) -> Result<PartitionedOutput, JobError> {
        self.seal(cluster);
        let mut work: Vec<Vec<(usize, Receiver<TaskBatch>)>> =
            (0..lanes.clamp(1, self.reducers)).map(|_| Vec::new()).collect();
        let width = work.len();
        for (p, rx) in self.take_receivers().into_iter().enumerate() {
            work[p % width].push((p, rx));
        }
        let folded = std::thread::scope(|scope| {
            let mut work = work.into_iter();
            let inline = work.next().expect("at least one lane");
            let spawned: Vec<_> =
                work.map(|lane| scope.spawn(move || self.fold_lane(cluster, app, lane))).collect();
            let mut folded = self.fold_lane(cluster, app, inline);
            for lane in spawned {
                folded.extend(lane.join().expect("reducer lane panicked"));
            }
            folded
        });
        let mut parts = vec![Vec::new(); self.reducers];
        for (p, out) in folded {
            parts[p] = out;
        }
        Ok((parts, self.retire(cluster)?))
    }

    /// [`finish`](Self::finish) with the caller's fold in place of the
    /// reduce: an epoch wave hands each partition's delta runs to
    /// `fold(p, runs)`, whose [`PartitionRuns::for_each_group`] yields
    /// the merged, key-sorted groups — in partition order and one
    /// partition at a time. An aborted run folds nothing and returns
    /// its error.
    pub(crate) fn finish_with(
        &self,
        cluster: &LiveCluster,
        mut fold: impl FnMut(usize, &PartitionRuns),
    ) -> Result<LiveStats, JobError> {
        self.seal(cluster);
        for (p, rx) in self.take_receivers().iter().enumerate() {
            let runs = self.collect(cluster, rx);
            if !self.is_aborted() {
                fold(p, &runs);
            }
        }
        self.retire(cluster)
    }

    /// Deregister the run — crash recovery and external join/leave
    /// calls stop walking it — and yield its statistics, or the
    /// terminal error that aborted it.
    pub(super) fn retire(&self, cluster: &LiveCluster) -> Result<LiveStats, JobError> {
        // Under the recovery gate: a membership change that is walking
        // this run finishes (and lands its counters) before the run
        // leaves the registry.
        {
            let _gate = cluster.recovery_gate.lock();
            cluster.active.lock().remove(&self.jid);
        }
        // A straggler's serving delay ends with the run it was injected
        // into. Remove only this run's entries — concurrent jobs may
        // have their own stragglers in flight.
        if !self.slow_nodes.is_empty() {
            let mut slow = cluster.slow_serving.write();
            for n in &self.slow_nodes {
                slow.remove(n);
            }
        }
        self.notify(DstEvent::JobEnd);
        if self.is_aborted() {
            let e = self.error.lock().take();
            return Err(e.unwrap_or(JobError::TaskFailed { task: 0, attempts: 0 }));
        }
        Ok(self.stats(cluster))
    }

    /// The run's ledger as [`LiveStats`].
    fn stats(&self, cluster: &LiveCluster) -> LiveStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let t = &self.tally;
        // Mid-job joiners appear as (zero-assignment) columns so the
        // per-node task counts always cover the final membership.
        let mut tasks_per_node = vec![0u64; cluster.cache.num_nodes()];
        for task in &self.tasks {
            tasks_per_node[task.node.index()] += 1;
        }
        // With concurrent jobs the transport delta overlaps other jobs'
        // traffic — an upper bound, not an exact attribution.
        let net = cluster.net.stats().since(self.net_before);
        LiveStats {
            map_tasks: self.tasks.len() as u64,
            reduce_tasks: self.reducers as u64,
            cache_hits: get(&t.hits),
            cache_misses: get(&t.misses),
            remote_reads: get(&t.remote),
            spills: get(&t.spills),
            steals: get(&t.steals),
            tasks_per_node,
            attempts: get(&t.attempts),
            retries: get(&t.retries),
            failed_nodes: get(&t.failed_nodes),
            recovered_blocks: get(&t.recovered_blocks),
            recovery_nanos: get(&t.recovery_nanos),
            bytes_sent: net.bytes_sent,
            rpcs: net.rpcs,
            rpc_retries: net.rpc_retries,
            timeouts: net.timeouts,
            speculative_attempts: get(&t.speculative_attempts),
            speculative_wins: get(&t.speculative_wins),
            cancelled_attempts: get(&t.cancelled_attempts),
            local_shuffle_records: get(&t.local_shuffle_records),
            joins: get(&t.joins),
            leaves: get(&t.leaves),
            handoff_blocks: get(&t.handoff_blocks),
            handoff_bytes: get(&t.handoff_bytes),
            drained_tasks: get(&t.drained_tasks),
        }
    }

    /// The wire id of task `tid`.
    pub(super) fn gtid(&self, tid: usize) -> u32 {
        (self.jid << JOB_SHIFT) | tid as u32
    }

    /// All map tasks committed, or the run aborted.
    pub(crate) fn done(&self) -> bool {
        self.is_aborted() || self.committed.load(Ordering::Acquire) == self.tasks.len()
    }

    /// Is there a first attempt a worker could claim now? A pinned
    /// run's busy owner keeps its queue to itself.
    pub(crate) fn claimable(&self) -> bool {
        self.workers.iter().any(|&w| {
            let q = w.index();
            self.cursors[q].load(Ordering::Relaxed) < self.queues[q].len()
                && (!self.pinned || self.node_down(w) || !self.busy(w))
        })
    }

    /// Does `node` have an attempt of this run in flight?
    pub(super) fn busy(&self, node: NodeId) -> bool {
        self.running.get(node.index()).is_some_and(|r| r.load(Ordering::Acquire) > 0)
    }

    /// Straggler watch, run by whichever worker is idle: request one
    /// backup attempt for any task whose age exceeds `slowdown` times
    /// the running median of committed attempt durations. The backup is
    /// *requested* here (pushed to `spec`); an idle worker executes it,
    /// so placement load is real.
    pub(super) fn watch_stragglers(&self, cluster: &LiveCluster, spec: SpeculationConfig) {
        {
            let Some(mut last) = self.watched.try_lock() else { return };
            if last.elapsed() < Duration::from_micros(spec.poll_micros) {
                return;
            }
            *last = Instant::now();
        }
        let median = {
            let d = self.durations.lock();
            if d.len() < spec.min_completed as usize {
                return;
            }
            let mut v = d.clone();
            v.sort_unstable();
            v[v.len() / 2]
        };
        // A floor keeps µs-scale medians from flagging scheduling
        // jitter as stragglers.
        let threshold = Duration::from_nanos((median as f64 * spec.slowdown) as u64 + 200_000);
        for (task, started, _progress) in cluster.router.progress_entries(self.jid) {
            let tid = task as usize;
            if tid >= self.tasks.len()
                || self.commits[tid].load(Ordering::Acquire) != UNCOMMITTED
                || started.elapsed() < threshold
                || self.spec_launched[tid].swap(true, Ordering::AcqRel)
            {
                continue;
            }
            // Place the backup on the least-loaded live node other than
            // the straggling claimant.
            let avoid = NodeId(self.claims[tid].load(Ordering::Acquire));
            let live = |n: &NodeId| !self.node_down(*n);
            let down: Vec<NodeId> = self.workers.iter().copied().filter(|n| !live(n)).collect();
            let load = |n: NodeId| {
                self.running.get(n.index()).map_or(u64::MAX, |r| r.load(Ordering::Acquire) as u64)
            };
            let choice = match &mut *cluster.sched.lock() {
                LiveSched::Laf(laf) => laf.backup_for(self.tasks[tid].key, avoid, &down, load),
                LiveSched::Delay(_) => self
                    .workers
                    .iter()
                    .copied()
                    .filter(|n| *n != avoid && live(n))
                    .min_by_key(|&n| (load(n), n.0)),
            };
            match choice {
                Some(node) => self.spec.lock().push((tid, node)),
                // Nowhere to run it; allow a later retry.
                None => self.spec_launched[tid].store(false, Ordering::Release),
            }
        }
    }

    /// Pop the oldest backup request with the node the watch placed
    /// it on. Requests whose task already committed are dropped.
    pub(super) fn pop_spec(&self) -> Option<(usize, NodeId)> {
        let mut q = self.spec.lock();
        q.retain(|&(tid, _)| self.commits[tid].load(Ordering::Acquire) == UNCOMMITTED);
        (!q.is_empty()).then(|| q.remove(0))
    }

    /// Record a terminal error (first one wins) and stop the job.
    pub(super) fn abort(&self, e: JobError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.aborted.store(true, Ordering::Release);
    }

    pub(super) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    pub(super) fn node_down(&self, n: NodeId) -> bool {
        self.poisoned.get(n.index()).is_some_and(|p| p.load(Ordering::Acquire))
    }

    /// Re-queue every uncommitted task `node`'s workers claimed (the
    /// node crashed or is leaving); returns how many.
    pub(super) fn requeue_claims_of(&self, node: NodeId) -> u64 {
        let mut n = 0;
        for tid in 0..self.commits.len() {
            if self.commits[tid].load(Ordering::Acquire) == UNCOMMITTED
                && self.claims[tid].load(Ordering::Acquire) == node.index() as u32
            {
                self.retry.lock().push(tid);
                n += 1;
            }
        }
        n
    }

    /// Report a progress milestone to the DST observer, if one is set.
    pub(super) fn notify(&self, ev: DstEvent) {
        if let Some(o) = &self.obs {
            o.on_event(ev);
        }
    }

    /// Remove and return the first due crash op matching `pred`.
    fn take_crash(&self, pred: impl Fn(&FaultOp) -> bool) -> Option<NodeId> {
        let mut ops = self.ops.lock();
        let i = ops.iter().position(pred)?;
        match ops.remove(i) {
            FaultOp::CrashAfterMaps { node, .. }
            | FaultOp::CrashAfterSpills { node, .. }
            | FaultOp::CrashInReduce { node } => Some(node),
            _ => None,
        }
    }

    pub(super) fn due_after_maps(&self, done: u64) -> Option<NodeId> {
        self.take_crash(|op| matches!(op, FaultOp::CrashAfterMaps { maps, .. } if done >= *maps))
    }

    pub(super) fn due_after_spills(&self, sent: u64) -> Option<NodeId> {
        self.take_crash(
            |op| matches!(op, FaultOp::CrashAfterSpills { spills, .. } if sent >= *spills),
        )
    }

    fn due_in_reduce(&self) -> Option<NodeId> {
        self.take_crash(|op| matches!(op, FaultOp::CrashInReduce { .. }))
    }

    /// Pop one due elastic join (armed on the committed-maps clock).
    pub(super) fn due_join(&self, done: u64) -> bool {
        let mut ops = self.ops.lock();
        let due = |op: &FaultOp| matches!(op, FaultOp::JoinAtMaps { maps } if done >= *maps);
        ops.iter().position(due).map(|i| ops.remove(i)).is_some()
    }

    /// Pop one due graceful leave (armed on the committed-maps clock).
    pub(super) fn due_leave(&self, done: u64) -> Option<NodeId> {
        let mut ops = self.ops.lock();
        let i = ops
            .iter()
            .position(|op| matches!(op, FaultOp::LeaveAtMaps { maps, .. } if done >= *maps))?;
        match ops.remove(i) {
            FaultOp::LeaveAtMaps { node, .. } => Some(node),
            _ => unreachable!("position matched LeaveAtMaps"),
        }
    }

    /// Straggler delay for attempts executed by `node` (0 = none).
    pub(super) fn slow_micros(&self, node: NodeId) -> u64 {
        self.ops
            .lock()
            .iter()
            .find_map(|op| match op {
                FaultOp::SlowNode { node: n, micros } if *n == node => Some(*micros),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Does an injected fault kill this `(task, attempt)`?
    pub(super) fn injected_failure(&self, task: usize, attempt: u32) -> bool {
        self.ops.lock().iter().any(
            |op| matches!(op, FaultOp::FailTask { task: t, times } if *t == task && attempt < *times),
        )
    }
}

impl LiveCluster {
    /// A straggler is slow end to end, not just at map compute: for
    /// the duration of its run its RPC *serving* (block reads, shuffle
    /// ingest) is delayed too, at a fraction of the map delay so
    /// request fan-in doesn't multiply it unboundedly. Returns the
    /// nodes slowed, for the run to release when it retires; when
    /// concurrent jobs schedule `SlowNode` on the same node, last
    /// writer wins for the overlap.
    fn slow_serving_for(&self, ops: &[FaultOp]) -> Vec<u32> {
        let mut slow = self.slow_serving.write();
        let mut mine = Vec::new();
        for op in ops {
            if let FaultOp::SlowNode { node, micros } = op {
                slow.insert(node.0, micros / SLOW_SERVE_DIV);
                mine.push(node.0);
            }
        }
        mine
    }
}

/// Reduce one partition's runs, key by key: the output shape of every
/// batch job, key-sorted.
///
/// A combiner app's partition with more than one run folds every
/// shipped partial aggregate, in input order, through a combining
/// [`Table`] — the one its map side spills from — hashing each run's
/// key group once, and calls `reduce_into` once per key, on the
/// finished value; the combiner contract makes that equal to reducing
/// the partials themselves. Any other partition (no combiner, or one
/// run, whose keys are already distinct) k-way merges its runs' key
/// groups, comparing cached 8-byte key prefixes first
/// ([`merge_groups`]). The output is sized for one pair per key when
/// the key count is known: the table's keys, or a single run's groups.
///
/// The table comes from, and goes back to, `tables`; a `reduce` that
/// panics drops it instead.
fn reduce_runs(
    app: &dyn MapReduce,
    runs: &PartitionRuns,
    tables: &FreeList<Table>,
) -> Vec<(String, String)> {
    if app.has_combiner() && runs.0.len() > 1 {
        let mut table = tables.take_one();
        for batch in &runs.0 {
            for (k, values) in batch.run.groups() {
                let hash = shuffle_hash(k.as_bytes());
                for v in values {
                    table.fold(app, hash, k, v);
                }
            }
        }
        let mut out = Vec::with_capacity(table.len());
        table.drain_with(app, |k, v| app.reduce_into(k, &[v], &mut |ok, ov| out.push((ok, ov))));
        tables.give([table]);
        return out;
    }
    let keys = match &runs.0[..] {
        [one] => one.run.groups().len(),
        _ => 0,
    };
    let mut out = Vec::with_capacity(keys);
    runs.for_each_group(|k, vs| app.reduce_into(k, vs, &mut |ok, ov| out.push((ok, ov))));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dst::DstApp;
    use crate::testkit::{CountWords, Sum};
    use eclipse_net::RecordRun;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The empty key, a key and its NUL-extended twin (equal in their
    /// zero-padded prefix), and two keys whose shared byte prefix ends
    /// inside a code point (`é` = c3 a9, `ê` = c3 aa).
    const KEYS: [&str; 5] = ["", "a", "a\0", "é", "ê"];

    /// One partition of combined runs in input order: each run holds
    /// each of its keys once, as a combining map side ships it.
    fn partition(runs: &[Vec<(usize, u64)>]) -> PartitionRuns {
        let batch = |(task, run): (usize, &Vec<(usize, u64)>)| {
            let pairs: BTreeMap<&str, String> =
                run.iter().map(|&(k, n)| (KEYS[k], n.to_string())).collect();
            let pairs: Vec<(&str, String)> = pairs.into_iter().collect();
            TaskBatch { task: task as u32, attempt: 0, seq: 0, run: RecordRun::from_pairs(&pairs) }
        };
        PartitionRuns(runs.iter().enumerate().map(batch).collect())
    }

    /// The k-way merge's output: every key's values, then `reduce_into`.
    fn merged(app: &dyn MapReduce, runs: &PartitionRuns) -> Vec<(String, String)> {
        let mut out = Vec::new();
        runs.for_each_group(|k, vs| app.reduce_into(k, vs, &mut |ok, ov| out.push((ok, ov))));
        out
    }

    /// A partial count: small, or past what 32 bits hold.
    fn count() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..100, u64::from(u32::MAX)..3 * u64::from(u32::MAX)]
    }

    /// Per-record cost of a word count's two combining folds on a
    /// `wc_warm`-shaped corpus: 12 MiB drawn from 2,000 words, cut into
    /// 262,080-byte blocks, in 8 partitions. The map side folds each
    /// block's words into its partitions' tables and spills every table
    /// once per block (the spill is not timed); each partition then
    /// reduces one combined run per block. Prints the best of five
    /// passes, the map-side fold in ns per word and the reduce-side
    /// fold (`reduce_runs`) in ns per shipped record:
    ///
    /// ```text
    /// cargo test --release -p eclipse-core --lib combine_path_timing -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "a timing, not a check: run by hand in release"]
    fn combine_path_timing() {
        use eclipse_net::RunBuilder;
        use eclipse_workloads::TextGen;
        use std::time::Instant;
        const PARTS: usize = 8;
        const BLOCK: usize = 262_080;
        let text = TextGen::new(2_000, 1.0, 10).generate(42, 12 << 20);
        let blocks: Vec<Vec<(usize, u64, &str)>> = text
            .as_bytes()
            .chunks(BLOCK)
            .map(|block| {
                let block = std::str::from_utf8(block).expect("an ASCII corpus");
                let part = |h: u64| ((h as u128 * PARTS as u128) >> 64) as usize;
                block
                    .split_whitespace()
                    .map(|w| {
                        let h = shuffle_hash(w.as_bytes());
                        (part(h), h, w)
                    })
                    .collect()
            })
            .collect();
        let words: usize = blocks.iter().map(Vec::len).sum();
        let (mut best, mut records) = ([f64::MAX; 2], 0);
        let free = FreeList::new(u64::MAX);
        for _ in 0..5 {
            let mut tables: Vec<Table> = (0..PARTS).map(|_| Table::default()).collect();
            let mut runs: Vec<Vec<TaskBatch>> = (0..PARTS).map(|_| Vec::new()).collect();
            let mut fold = 0.0;
            for (task, block) in blocks.iter().enumerate() {
                let t = Instant::now();
                for &(p, h, w) in block {
                    tables[p].fold(&CountWords, h, w, "1");
                }
                fold += t.elapsed().as_nanos() as f64;
                for (table, part) in tables.iter_mut().zip(&mut runs) {
                    let mut run = RunBuilder::default();
                    table.drain_with(&CountWords, |k, v| run.push(k, v));
                    part.push(TaskBatch { task: task as u32, attempt: 0, seq: 0, run: run.finish() });
                }
            }
            let parts: Vec<PartitionRuns> = runs.into_iter().map(PartitionRuns).collect();
            records = parts.iter().map(PartitionRuns::records).sum();
            let t = Instant::now();
            let keys: usize = parts.iter().map(|p| reduce_runs(&CountWords, p, &free).len()).sum();
            let reduce = t.elapsed().as_nanos() as f64;
            assert!(keys <= 2_000, "{keys} distinct words from a 2,000-word vocabulary");
            best[0] = best[0].min(fold / words as f64);
            best[1] = best[1].min(reduce / records as f64);
        }
        println!(
            "combine path, {} blocks: map-side fold {:.1} ns/word over {words} words, \
             reduce-side fold {:.1} ns/record over {records} shipped records",
            blocks.len(),
            best[0],
            best[1]
        );
    }

    /// A `storm_pool`-shaped small job's per-job cost: 70 KiB of word
    /// count over a 50,000-word vocabulary, in one 262,080-byte block as
    /// the benchmark cuts it, 8 reducers. Runs the job
    /// through a `JobServer` 300 times and prints its p50 wall time;
    /// then replays its phases in process on the same blocks, 300
    /// times, and prints each phase's p50 in ns per output key: map
    /// (each block's words folded into its partitions' tables, taken
    /// from a free list), drain (every table spilled as a run), fold
    /// (`reduce_runs` over each partition's runs) and output (the
    /// partitions merged into one sorted list):
    ///
    /// ```text
    /// cargo test --release -p eclipse-core --lib small_job_timing -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "a timing, not a check: run by hand in release"]
    fn small_job_timing() {
        use crate::live::LiveConfig;
        use crate::server::{JobServer, JobServerConfig, PoolJobSpec};
        use eclipse_net::{merge_sorted_pairs, RunBuilder};
        use eclipse_workloads::TextGen;
        const PARTS: usize = 8;
        const JOBS: usize = 300;
        let text = TextGen::new(50_000, 1.0, 10).generate(42, 70 * 1024);
        let cluster = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(262_080)));
        cluster.upload("small", "timing", text.as_bytes());
        let server = JobServer::new(Arc::clone(&cluster), JobServerConfig::default());
        let spec = PoolJobSpec {
            app: Arc::new(CountWords),
            inputs: vec!["small".to_string()],
            user: "timing".to_string(),
            reducers: PARTS,
            reuse: ReusePolicy::default(),
            weight: 1,
        };
        let p50 = |mut ns: Vec<f64>| {
            ns.sort_by(f64::total_cmp);
            ns[ns.len() / 2]
        };
        let since = |t: Instant| t.elapsed().as_nanos() as f64;
        let wall = p50((0..JOBS)
            .map(|_| {
                let t = Instant::now();
                server.submit(spec.clone()).wait().expect("the small job runs");
                since(t)
            })
            .collect());
        server.shutdown();
        let blocks: Vec<&str> = text
            .as_bytes()
            .chunks(cluster.cfg.block_size as usize)
            .map(|b| std::str::from_utf8(b).expect("an ASCII corpus"))
            .collect();
        let part = |h: u64| ((h as u128 * PARTS as u128) >> 64) as usize;
        let free = FreeList::<Table>::new(u64::MAX);
        let mut phases: [Vec<f64>; 4] = Default::default();
        let mut keys = 0;
        for _ in 0..JOBS {
            let (mut map, mut drain) = (0.0, 0.0);
            let mut runs: Vec<Vec<TaskBatch>> = (0..PARTS).map(|_| Vec::new()).collect();
            for (task, block) in blocks.iter().enumerate() {
                let t = Instant::now();
                let mut tables = free.take(PARTS);
                CountWords.map_into(0, block.as_bytes(), &mut |k, v| {
                    let h = shuffle_hash(k.as_bytes());
                    tables[part(h)].fold(&CountWords, h, &k, &v);
                });
                map += since(t);
                let t = Instant::now();
                for (table, runs) in tables.iter_mut().zip(&mut runs) {
                    let mut run = RunBuilder::with_capacity(table.len(), 0);
                    table.drain_with(&CountWords, |k, v| run.push(k, v));
                    runs.push(TaskBatch { task: task as u32, attempt: 0, seq: 0, run: run.finish() });
                }
                free.give(tables);
                drain += since(t);
            }
            let parts: Vec<PartitionRuns> = runs.into_iter().map(PartitionRuns).collect();
            let t = Instant::now();
            let out: Vec<Vec<(String, String)>> =
                parts.iter().map(|p| reduce_runs(&CountWords, p, &free)).collect();
            let fold = since(t);
            // The merged output is freed after its timing, as a job
            // hands it to its caller.
            let t = Instant::now();
            let merged = merge_sorted_pairs(out);
            let output = since(t);
            keys = merged.len();
            for (phase, ns) in phases.iter_mut().zip([map, drain, fold, output]) {
                phase.push(ns);
            }
        }
        let [map, drain, fold, output] = phases.map(|ns| p50(ns) / keys as f64);
        println!(
            "small job, {} blocks, {keys} keys: server p50 {:.3} ms; phases p50 per key: \
             map {map:.1} ns, drain {drain:.1} ns, fold {fold:.1} ns, output {output:.1} ns",
            blocks.len(),
            wall / 1e6,
        );
    }

    proptest! {
        /// The combining fold of a partition — every run's partials
        /// folded through one table, one `reduce_into` per key — gives
        /// the k-way merge's output exactly, for a binary in-place
        /// accumulator, the default text adapters and the DST word
        /// count, over zero to six runs. The three apps fold through
        /// one table in turn, as folds share the cluster's free list.
        #[test]
        fn combining_fold_equals_merge_then_reduce(
            runs in prop::collection::vec(
                prop::collection::vec((0..KEYS.len(), count()), 0..8),
                0..=6,
            ),
        ) {
            let runs = partition(&runs);
            let apps: [&dyn MapReduce; 3] =
                [&CountWords, &Sum, &DstApp::WordCount { combiner: true }];
            let tables = FreeList::new(u64::MAX);
            for app in apps {
                prop_assert_eq!(reduce_runs(app, &runs, &tables), merged(app, &runs));
            }
        }
    }
}
