//! The receiving half of the shuffle and control planes: per-job
//! routes, exactly-once dedup, the speculation progress board, and the
//! RPC endpoint every node binds.
#![deny(clippy::too_many_lines)]

use eclipse_cache::DistributedCache;
use eclipse_dhtfs::BlockStore;
use eclipse_net::{Rpc, RpcReply, Transport};
use eclipse_ring::NodeId;
use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits of a wire task id reserved for the per-job task index; the
/// bits above carry the job slot. A *global* task id (gtid) is
/// `(jid << JOB_SHIFT) | tid`, letting shuffle batches, heartbeats and
/// assignments from concurrent jobs share one transport without
/// colliding.
pub(super) const JOB_SHIFT: u32 = 20;
/// Mask extracting the per-job task index from a gtid.
pub(super) const TID_MASK: u32 = (1 << JOB_SHIFT) - 1;
/// Job slots: jids are assigned modulo this, keeping every gtid
/// strictly below `u32::MAX` (the heartbeat liveness sentinel) while
/// leaving a full 2048-job window before a slot is reused — and slot
/// reuse is safe anyway because `begin_epoch` prunes the slot's gtid
/// space.
pub(super) const MAX_JOB_SLOTS: u32 = 1 << (31 - JOB_SHIFT);

/// One shuffle batch: the complete output of `(task, attempt)` for one
/// reduce partition. Reducers use the pair for exactly-once dedup.
pub(super) struct TaskBatch {
    pub(super) task: u32,
    pub(super) attempt: u32,
    pub(super) records: Vec<(String, String)>,
}

/// Reorder-tolerant duplicate detector for one map attempt's shuffle
/// sequence numbers. Sequence numbers below `next` are all delivered;
/// out-of-order arrivals park in `ahead` until the gap below them
/// fills, keeping the set small (bounded by the sender's ack window)
/// instead of remembering every seq ever seen.
#[derive(Debug, Default)]
struct SeqTracker {
    next: u32,
    ahead: HashSet<u32>,
}

impl SeqTracker {
    /// True if `seq` is new (caller must deliver it), false for a
    /// duplicate in any arrival order.
    fn admit(&mut self, seq: u32) -> bool {
        if seq < self.next || !self.ahead.insert(seq) {
            return false;
        }
        while self.ahead.remove(&self.next) {
            self.next += 1;
        }
        true
    }
}

/// One live job's routing state: where its reduce partitions ingest
/// and which node each partition's shuffle batches are addressed to.
struct JobRoute {
    /// Reduce-partition channels.
    sinks: Vec<Sender<TaskBatch>>,
    /// Home node per reduce partition. Re-homed when the home becomes
    /// unreachable.
    homes: Vec<NodeId>,
    /// Execution epoch this route ingests (0 for batch jobs). A
    /// standing job re-installs its route each epoch; batches tagged
    /// with any other epoch are acknowledged and dropped — their wave
    /// is over (commit happens-after acknowledged delivery, so a stale
    /// epoch's batch is either already folded or its wave aborted).
    epoch: u32,
}

/// The receiving half of the shuffle and control planes, shared by every
/// node's RPC handler. Multi-job: every wire task id is a *global* task
/// id `(jid << JOB_SHIFT) | tid`, so batches, dedup trackers, progress
/// entries and assignments from concurrent jobs never collide.
/// `begin_epoch` installs a job's partition channels and homes under its
/// jid; `end_job` tears them down so stragglers are dropped instead of
/// delivered into a later job reusing the slot.
pub(super) struct ShuffleRouter {
    /// Routing state per live job, keyed by jid.
    jobs: RwLock<HashMap<u32, JobRoute>>,
    /// Transport-level dedup, one tracker per `(gtid, attempt)`.
    /// At-least-once retry can re-deliver a batch whose *response* was
    /// lost, and the windowed one-way lane can deliver retransmissions
    /// out of order; neither a duplicate nor a reordered duplicate may
    /// reach a reducer twice.
    seen: Mutex<HashMap<(u32, u32), SeqTracker>>,
    /// Tasks (gtids) whose commit has settled, with the winning attempt.
    /// Bounds dedup memory: once a task settles, every loser's `seen`
    /// tracker is pruned and late loser batches are acknowledged without
    /// ever creating one — only the winner's tracker survives (late
    /// retransmissions of acked frames must still dedup).
    settled: Mutex<HashMap<u32, u32>>,
    /// Speculation progress board: gtid → (first heard, latest promille
    /// 0..=1000), fed by `Heartbeat` frames addressed to the driver.
    progress: Mutex<HashMap<u32, (Instant, u32)>>,
    /// Control plane: global task ids assigned per node via `TaskAssign`.
    assigned: Mutex<HashMap<u32, Vec<u32>>>,
}

impl ShuffleRouter {
    pub(super) fn new() -> ShuffleRouter {
        ShuffleRouter {
            jobs: RwLock::new(HashMap::new()),
            seen: Mutex::new(HashMap::new()),
            settled: Mutex::new(HashMap::new()),
            progress: Mutex::new(HashMap::new()),
            assigned: Mutex::new(HashMap::new()),
        }
    }

    /// Drop every gtid-keyed entry belonging to `jid` — called on both
    /// begin (slot reuse after [`MAX_JOB_SLOTS`] jobs must not inherit
    /// a predecessor's dedup state) and end (free the memory).
    fn prune_job(&self, jid: u32) {
        self.seen.lock().retain(|&(t, _), _| t >> JOB_SHIFT != jid);
        self.settled.lock().retain(|&t, _| t >> JOB_SHIFT != jid);
        self.progress.lock().retain(|&t, _| t >> JOB_SHIFT != jid);
        for q in self.assigned.lock().values_mut() {
            q.retain(|&t| t >> JOB_SHIFT != jid);
        }
    }

    /// Install (or re-install) `jid`'s route for one execution epoch
    /// (0 for a one-shot job). Pruning the jid's dedup state here is
    /// what lets per-epoch task ids restart at 0: epoch N+1's `(gtid, attempt)`
    /// trackers never collide with epoch N's, because N's were dropped
    /// at this barrier and N's late batches are epoch-gated before they
    /// can recreate one.
    pub(super) fn begin_epoch(
        &self,
        jid: u32,
        sinks: Vec<Sender<TaskBatch>>,
        homes: Vec<NodeId>,
        epoch: u32,
    ) {
        self.prune_job(jid);
        self.jobs.write().insert(jid, JobRoute { sinks, homes, epoch });
    }

    pub(super) fn end_job(&self, jid: u32) {
        self.jobs.write().remove(&jid);
        self.prune_job(jid);
    }

    pub(super) fn home_of(&self, jid: u32, partition: usize) -> NodeId {
        self.jobs.read()[&jid].homes[partition]
    }

    pub(super) fn set_home(&self, jid: u32, partition: usize, node: NodeId) {
        if let Some(route) = self.jobs.write().get_mut(&jid) {
            route.homes[partition] = node;
        }
    }

    /// Proactively re-home every partition of every live job addressed
    /// at `victim` onto `to` (the victim's ring successor). Crash and
    /// graceful-leave recovery both call this so post-event spills go
    /// straight to the current owner instead of discovering the stale
    /// home through a failed send (which burns an attempt's worth of
    /// retry budget).
    pub(super) fn rehome_from(&self, victim: NodeId, to: NodeId) {
        let mut jobs = self.jobs.write();
        for route in jobs.values_mut() {
            for h in route.homes.iter_mut() {
                if *h == victim {
                    *h = to;
                }
            }
        }
    }

    /// Feed one batch into its partition channel. Duplicates are
    /// acknowledged without re-delivery; `false` means the batch's job
    /// is not accepting shuffle output (teardown or a stale slot).
    pub(super) fn deliver(
        &self,
        task: u32,
        attempt: u32,
        seq: u32,
        epoch: u32,
        partition: u32,
        records: Vec<(String, String)>,
    ) -> bool {
        let jobs = self.jobs.read();
        let Some(route) = jobs.get(&(task >> JOB_SHIFT)) else { return false };
        // The epoch gate comes BEFORE dedup admission: a stale-epoch
        // retransmission must not seed a fresh `seen` tracker that
        // would then falsely dedup the current epoch's identically
        // numbered batches (per-epoch task ids restart at 0).
        if route.epoch != epoch {
            return true; // ack-drop: that wave already committed or aborted
        }
        if let Some(&winner) = self.settled.lock().get(&task) {
            if winner != attempt {
                // A losing attempt of a settled task: acknowledge and
                // drop without creating a tracker (dedup memory stays
                // bounded by settled-task pruning).
                return true;
            }
        }
        if !self.seen.lock().entry((task, attempt)).or_default().admit(seq) {
            return true; // duplicate of a batch that already landed
        }
        let Some(tx) = route.sinks.get(partition as usize) else { return false };
        tx.send(TaskBatch { task, attempt, records }).is_ok()
    }

    /// The task's commit settled with `attempt` winning: prune every
    /// loser's dedup tracker and remember the winner so late loser
    /// deliveries are ack-dropped trackerless.
    pub(super) fn settle_task(&self, task: u32, attempt: u32) {
        self.settled.lock().insert(task, attempt);
        self.seen.lock().retain(|&(t, a), _| t != task || a == attempt);
    }

    /// Record heartbeat-carried map progress (speculation input).
    pub(super) fn note_progress(&self, task: u32, progress: u32) {
        let mut board = self.progress.lock();
        let e = board.entry(task).or_insert_with(|| (Instant::now(), progress));
        e.1 = e.1.max(progress);
    }

    /// Snapshot of one job's progress board for its speculation
    /// monitor, with local task ids.
    pub(super) fn progress_entries(&self, jid: u32) -> Vec<(u32, Instant, u32)> {
        self.progress
            .lock()
            .iter()
            .filter(|(&t, _)| t >> JOB_SHIFT == jid)
            .map(|(&t, &(at, p))| (t & TID_MASK, at, p))
            .collect()
    }

    pub(super) fn assign(&self, node: NodeId, gtid: u32) {
        self.assigned.lock().entry(node.0).or_default().push(gtid);
    }

    /// Drain one job's entries from the per-node assignment inboxes
    /// into placement-order queues of local task ids. Other jobs'
    /// assignments stay parked.
    pub(super) fn take_assignments(&self, jid: u32, nodes: usize) -> Vec<Vec<usize>> {
        let mut inbox = self.assigned.lock();
        (0..nodes)
            .map(|n| {
                let Some(q) = inbox.get_mut(&(n as u32)) else { return Vec::new() };
                let mut mine = Vec::new();
                q.retain(|&gtid| {
                    if gtid >> JOB_SHIFT == jid {
                        mine.push((gtid & TID_MASK) as usize);
                        false
                    } else {
                        true
                    }
                });
                mine
            })
            .collect()
    }
}

/// Bind `node`'s RPC endpoint: the serving side of every data-plane,
/// cache, shuffle and control message addressed to it.
pub(super) fn bind_endpoint(
    net: &Arc<dyn Transport>,
    node: NodeId,
    store: Arc<BlockStore>,
    cache: Arc<DistributedCache>,
    router: Arc<ShuffleRouter>,
    slow_serving: Arc<RwLock<HashMap<u32, u64>>>,
) {
    // The handler keeps a Weak transport: `ReplicaSync` relays a
    // `PutBlock` onward, and a strong Arc here would cycle
    // (transport → handler → transport) and leak the TCP threads.
    let weak = Arc::downgrade(net);
    net.bind(
        node,
        Arc::new(move |rpc| {
            // An injected straggler is slow end to end: its RPC *serving*
            // is delayed too, not just its map compute (a real slow host
            // answers block reads and accepts shuffle batches late).
            let delay = slow_serving.read().get(&node.0).copied().unwrap_or(0);
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
            match rpc {
            Rpc::GetBlock { block } => RpcReply::Block(store.get(node, block)),
            Rpc::PutBlock { block, data } => {
                store.put(node, block, data);
                RpcReply::Ack
            }
            Rpc::ReplicaSync { block, to } => {
                // Relay this node's replica to the re-replication
                // target; `Missing` reports a destroyed source copy.
                let Some(data) = store.get(node, block) else {
                    return RpcReply::Missing;
                };
                let Some(net) = weak.upgrade() else {
                    return RpcReply::Error("transport shut down".into());
                };
                let bytes = data.len() as u64;
                match net.call(node, to, Rpc::PutBlock { block, data }) {
                    Ok(RpcReply::Ack) => RpcReply::Synced { bytes },
                    Ok(r) => RpcReply::Error(format!("unexpected reply {r:?}")),
                    Err(e) => RpcReply::Error(e.to_string()),
                }
            }
            Rpc::CacheGet { key } => {
                RpcReply::CacheValue(cache.with_node(node, |c| c.get_payload(&key, 0.0)))
            }
            Rpc::CachePut { key, data, ttl, tenant, pin } => {
                cache.with_node(node, |c| {
                    if pin {
                        c.put_payload_pinned(key, data, 0.0, ttl, tenant)
                    } else {
                        c.put_payload_tenant(key, data, 0.0, ttl, tenant)
                    }
                });
                RpcReply::Ack
            }
            Rpc::ShuffleBatch { task, attempt, seq, epoch, partition, records } => {
                if router.deliver(task, attempt, seq, epoch, partition, records) {
                    RpcReply::Ack
                } else {
                    RpcReply::Error("no job accepting shuffle output".into())
                }
            }
            Rpc::Heartbeat { .. } => RpcReply::Ack,
            Rpc::TaskAssign { task, .. } => {
                router.assign(node, task);
                RpcReply::Ack
            }
            Rpc::RangeHandoff { key, data } => {
                // A re-homed cache entry arriving from its previous
                // owner (elastic join or leave). Adopt it into this
                // node's shard; a lost handoff is only a future miss,
                // so there is no further handshake.
                cache.with_node(node, |c| c.put_payload(key, data, 0.0, None));
                RpcReply::Ack
            }
            Rpc::BlockPull { block, from } => {
                // Elastic handoff: this node is the block's new ideal
                // holder and pulls the payload from `from`. The same
                // relay shape as `ReplicaSync`, but pull-driven — the
                // new holder drives its own catch-up.
                if let Some(data) = store.get(node, block) {
                    return RpcReply::Synced { bytes: data.len() as u64 };
                }
                let Some(net) = weak.upgrade() else {
                    return RpcReply::Error("transport shut down".into());
                };
                match net.call(node, from, Rpc::GetBlock { block }) {
                    Ok(RpcReply::Block(Some(data))) => {
                        let bytes = data.len() as u64;
                        store.put(node, block, data);
                        RpcReply::Synced { bytes }
                    }
                    Ok(RpcReply::Block(None)) => RpcReply::Missing,
                    Ok(r) => RpcReply::Error(format!("unexpected reply {r:?}")),
                    Err(e) => RpcReply::Error(e.to_string()),
                }
            }
            }
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn settle_prunes_dedup_trackers() {
        let router = ShuffleRouter::new();
        let (tx, _rx) = unbounded();
        router.begin_epoch(0, vec![tx], vec![NodeId(0)], 0);
        let rec = |s: &str| vec![(s.to_string(), "1".to_string())];
        // Two racing attempts of task 7 deliver batches.
        assert!(router.deliver(7, 0, 0, 0, 0, rec("a")));
        assert!(router.deliver(7, 1, 0, 0, 0, rec("b")));
        assert_eq!(router.seen.lock().len(), 2);
        // Attempt 1 wins: the loser's tracker is pruned immediately...
        router.settle_task(7, 1);
        assert_eq!(router.seen.lock().len(), 1);
        assert!(router.seen.lock().contains_key(&(7, 1)));
        // ...and a late batch from the loser is ack-dropped without
        // growing the tracker map back.
        assert!(router.deliver(7, 0, 1, 0, 0, rec("c")));
        assert_eq!(router.seen.lock().len(), 1);
        // The winner's own retransmits still dedup normally.
        assert!(router.deliver(7, 1, 0, 0, 0, rec("b")));
        router.end_job(0);
    }

    mod epoch_dedup_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Epoch-tagged shuffle dedup never double-folds a delta:
            /// for every epoch, an arbitrary interleaving of the
            /// epoch's batches, their retransmits, and straggler
            /// batches from earlier (already-committed) epochs must
            /// leave the reducer sink holding exactly one copy of each
            /// current-epoch batch and nothing stale — per-epoch task
            /// ids restart at 0, so a stale batch admitted into the
            /// dedup tracker would silently eat a current one.
            #[test]
            fn epoch_tagged_dedup_never_double_folds_under_retransmit(
                epochs in 1u32..=3,
                tasks in 1u32..=3,
                seqs in 1u32..=3,
                dup_sel in proptest::collection::vec((0u32..3, 0u32..3), 0..24),
                stale_sel in proptest::collection::vec((1u32..=2, 0u32..3, 0u32..3), 0..16),
                shuffle_seed in any::<u64>(),
            ) {
                let router = ShuffleRouter::new();
                for e in 1..=epochs {
                    let (tx, rx) = unbounded();
                    router.begin_epoch(0, vec![tx], vec![NodeId(0)], e);
                    // (epoch, tid, seq): every current pair once, plus
                    // retransmits, plus stale-epoch stragglers.
                    let mut sends: Vec<(u32, u32, u32)> = Vec::new();
                    for tid in 0..tasks {
                        for s in 0..seqs {
                            sends.push((e, tid, s));
                        }
                    }
                    for &(tid, s) in &dup_sel {
                        sends.push((e, tid % tasks, s % seqs));
                    }
                    for &(back, tid, s) in &stale_sel {
                        if e > back {
                            sends.push((e - back, tid % tasks, s % seqs));
                        }
                    }
                    // Fisher–Yates off a proptest-chosen LCG stream.
                    let mut st = shuffle_seed | 1;
                    for i in (1..sends.len()).rev() {
                        st = st
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let j = (st >> 33) as usize % (i + 1);
                        sends.swap(i, j);
                    }
                    for (se, tid, s) in sends {
                        // The record carries its *origin* epoch, so a
                        // stale batch that leaked through would be
                        // visible in the drained values.
                        let rec = vec![(format!("k{tid}-{s}"), se.to_string())];
                        // Everything acks: dup and stale are dropped,
                        // never bounced back for retry.
                        prop_assert!(router.deliver(tid, 0, s, se, 0, rec));
                    }
                    let mut got: Vec<(String, String)> = Vec::new();
                    while let Ok(b) = rx.try_recv() {
                        got.extend(b.records);
                    }
                    prop_assert_eq!(
                        got.len() as u32,
                        tasks * seqs,
                        "epoch {} double-folded or lost a batch",
                        e
                    );
                    prop_assert!(
                        got.iter().all(|(_, v)| *v == e.to_string()),
                        "a stale-epoch record leaked into epoch {}",
                        e
                    );
                    let mut keys: Vec<&String> = got.iter().map(|(k, _)| k).collect();
                    keys.sort();
                    keys.dedup();
                    prop_assert_eq!(keys.len() as u32, tasks * seqs);
                }
                router.end_job(0);
            }
        }
    }
}
