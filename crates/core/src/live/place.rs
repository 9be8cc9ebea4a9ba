//! Placement: which node maps which block, and the control-plane round
//! that tells the nodes. One `place()` serves every kind of run — the
//! production scheduler (LAF or delay), or replicated map-out when
//! `map_replication > 1`.
#![deny(clippy::too_many_lines)]

use super::router::JOB_SHIFT;
use super::{LiveCluster, LiveSched};
use eclipse_dhtfs::{BlockId, BlockInfo, FileMetadata};
use eclipse_net::{Rpc, RpcReply, SendTicket, CLIENT};
use eclipse_ring::{NodeId, Ring};
use eclipse_util::HashKey;
use std::sync::Arc;

/// One entry in a run's task ledger: a block to map at a chosen
/// node, optionally restricted to a subset of reduce partitions.
/// Replicated map-out (`map_replication > 1`) splits a block's
/// partitions across its replica holders so each reducer's share is
/// produced by the holder nearest its home on the ring.
pub(super) struct MapTask {
    /// Index into the job's input list (reduce-side joins tag records).
    pub(super) source: usize,
    pub(super) bid: BlockId,
    /// The block's ring key — backup placement routes by it.
    pub(super) key: HashKey,
    /// Where the attempt runs (and which cache shard it charges).
    pub(super) node: NodeId,
    /// `Some(mask)`: emit only partitions with `mask[p]`. `None`: all.
    pub(super) parts: Option<Arc<Vec<bool>>>,
}

impl LiveCluster {
    /// Place every block of `metas`. With `map_replication == 1` each
    /// block goes through the production scheduler. With r > 1 the
    /// scheduler is bypassed: each block is replicated onto r nodes
    /// chosen from the reducer-home set (nearest to the block's key on
    /// the ring) and mapped at all of them, each placement emitting
    /// only the partitions whose home is nearest to it — the shuffle
    /// becomes mostly node-local at the cost of r-fold map work.
    pub(super) fn place(
        &self,
        metas: &[FileMetadata],
        workers: &[NodeId],
        homes: &[NodeId],
    ) -> Vec<MapTask> {
        let blocks = metas
            .iter()
            .enumerate()
            .flat_map(|(source, meta)| meta.blocks.iter().map(move |b| (source, b)));
        let repl = self.cfg.map_replication.clamp(1, workers.len());
        if repl > 1 {
            let ring = self.ring.read().clone();
            return blocks
                .flat_map(|(source, b)| self.place_replicated(&ring, source, b, repl, workers, homes))
                .collect();
        }
        let mut sched = self.sched.lock();
        let mut inflight = vec![0u64; self.cache.num_nodes()];
        let tasks = blocks
            .map(|(source, b)| {
                let load = |n: NodeId| inflight[n.index()] as f64;
                let node = match &mut *sched {
                    LiveSched::Laf(laf) => laf.assign_balanced(b.key, 0.0, load),
                    LiveSched::Delay(d) => d.decide(b.key, 0.0, load).node(),
                };
                inflight[node.index()] += 1;
                MapTask { source, bid: b.id, key: b.key, node, parts: None }
            })
            .collect();
        // Install the (possibly re-partitioned) ranges once per job,
        // not once per block — the map phase addresses shards by node
        // id; ranges only matter for future home_of lookups.
        if let LiveSched::Laf(laf) = &*sched {
            self.cache.set_ranges(laf.ranges().to_vec());
        }
        tasks
    }

    /// Replicated map-out for one block: r placements, a partition mask
    /// each, and the extra replicas materialized.
    fn place_replicated(
        &self,
        ring: &Ring,
        source: usize,
        b: &BlockInfo,
        repl: usize,
        workers: &[NodeId],
        homes: &[NodeId],
    ) -> Vec<MapTask> {
        let pos = |n: NodeId| ring.key_of(n).map(|k| k.0).unwrap_or(0);
        // r placements: distinct reducer-home nodes nearest to the
        // block key (clockwise), padded from the remaining workers when
        // homes are fewer than r.
        let dist = |n: NodeId| b.key.0.wrapping_sub(pos(n));
        let mut cand: Vec<NodeId> = Vec::new();
        for &h in homes {
            if !cand.contains(&h) {
                cand.push(h);
            }
        }
        cand.sort_by_key(|&n| (dist(n), n.0));
        let mut placements: Vec<NodeId> = cand.into_iter().take(repl).collect();
        if placements.len() < repl {
            let mut rest: Vec<NodeId> =
                workers.iter().copied().filter(|n| !placements.contains(n)).collect();
            rest.sort_by_key(|&n| (dist(n), n.0));
            placements.extend(rest.into_iter().take(repl - placements.len()));
        }
        // Nearest-holder rule: each partition is produced by the
        // placement closest behind its reducer's home on the ring
        // (distance 0 ⇒ same node ⇒ local shuffle). The masks partition
        // the reducer set, so each (block, partition) is emitted by
        // exactly one placement and the output stays byte-identical.
        let mut masks: Vec<Vec<bool>> = vec![vec![false; homes.len()]; placements.len()];
        for (p, &home) in homes.iter().enumerate() {
            let hk = pos(home);
            let pi = placements
                .iter()
                .enumerate()
                .min_by_key(|&(_, &n)| (hk.wrapping_sub(pos(n)), n.0))
                .map(|(i, _)| i)
                .expect("repl >= 1 placements");
            masks[pi][p] = true;
        }
        // Materialize the extra replicas: relay from an existing holder
        // (`ReplicaSync`), then record the new holder in FS metadata so
        // reads and future recovery see it. A failed relay is skipped —
        // the map attempt falls back to a remote fetch.
        let holders: Vec<NodeId> =
            self.fs.read().block_holders(b.id).map(|h| h.to_vec()).unwrap_or_default();
        for &node in &placements {
            if holders.contains(&node) || self.store.holds(node, b.id) {
                continue;
            }
            let Some(&src) = holders.first() else { break };
            let sync = Rpc::ReplicaSync { block: b.id, to: node };
            if let Ok(RpcReply::Synced { .. }) = self.net.call(CLIENT, src, sync) {
                let _ = self.fs.write().add_replica(b.id, node);
            }
        }
        placements
            .into_iter()
            .zip(masks)
            // A placement no partition routed to maps nothing.
            .filter(|(_, mask)| mask.iter().any(|&m| m))
            .map(|(node, mask)| MapTask {
                source,
                bid: b.id,
                key: b.key,
                node,
                parts: Some(Arc::new(mask)),
            })
            .collect()
    }

    /// Control plane: hand each placement to its node through the
    /// windowed one-way lane — the whole assignment stream is in flight
    /// at once instead of paying one driver round-trip per task — and
    /// read back the per-node queues of local task ids.
    /// Per-destination FIFO keeps every node's queue in placement
    /// order, the determinism the frozen-queue cursors rely on. An
    /// unreachable assignee still gets its queue entry (the queue is
    /// driver state; only the notification travelled).
    pub(super) fn assign_tasks(&self, jid: u32, tasks: &[MapTask]) -> Vec<Vec<usize>> {
        let gtid = |tid: usize| (jid << JOB_SHIFT) | tid as u32;
        let mut assigns: Vec<(SendTicket, NodeId, usize)> = Vec::new();
        for (tid, t) in tasks.iter().enumerate() {
            match self.net.send(CLIENT, t.node, Rpc::TaskAssign { task: gtid(tid), block: t.bid }) {
                Ok(ticket) => assigns.push((ticket, t.node, tid)),
                Err(_) => self.router.assign(t.node, gtid(tid)),
            }
        }
        for (ticket, node, tid) in assigns {
            if self.net.flush(&[ticket]).is_err() {
                self.router.assign(node, gtid(tid));
            }
        }
        self.router.take_assignments(jid, self.cache.num_nodes())
    }
}
