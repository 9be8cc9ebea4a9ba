//! Membership changes while jobs may be running: crash recovery,
//! elastic join and graceful leave — the paper's §II resource-manager
//! role ("server join, leave, failure recovery"). Every flow is
//! serialized through the cluster's recovery gate, walks *all* live
//! [`Run`]s, and ends in the one membership write,
//! [`publish_membership`](LiveCluster::publish_membership).
#![deny(clippy::too_many_lines)]

use super::run::Run;
use super::router::bind_endpoint;
use super::{DstEvent, LiveCluster, LiveSched, RecoveryReport};
use eclipse_dhtfs::{FsError, RecoveryCopy};
use eclipse_net::{Rpc, RpcReply, SendTicket, CLIENT};
use eclipse_ring::{NodeId, Ring, RingError, ServerInfo};
use eclipse_util::KeyRange;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How [`LiveCluster::copy_block`] moves a block: a crash has a
/// surviving holder push it ([`Rpc::ReplicaSync`]); a leave has the new
/// home pull it ([`Rpc::BlockPull`]).
#[derive(Clone, Copy)]
enum Transfer {
    Push,
    Pull,
}

impl LiveCluster {
    /// Crash `victim` while jobs are running: the full re-replication →
    /// ring-publish → re-queue flow, serialized so concurrent
    /// triggers handle one crash at a time. `rt` is the run
    /// whose fault schedule (or membership call) triggered the crash —
    /// recovery counters and the DST event land on it — but the crash
    /// itself hits *every* live run: each is poisoned and has its
    /// victim-claimed tasks re-queued.
    pub(super) fn crash_node_mid_job(&self, victim: NodeId, rt: &Run) {
        let _gate = self.recovery_gate.lock();
        // A recovery error has already aborted `rt`.
        let _ = self.crash_gated(victim, Some(rt));
    }

    /// [`crash_node_mid_job`](Self::crash_node_mid_job) and
    /// [`crash_node`](Self::crash_node) proper; the caller holds the
    /// recovery gate. `rt`, if any, is the run charged with the
    /// recovery.
    fn crash_gated(&self, victim: NodeId, rt: Option<&Run>) -> Result<RecoveryReport, FsError> {
        // Already crashed or departed (the published ring no longer
        // holds it): nothing to do.
        if !self.ring.read().contains(victim) {
            return Err(RingError::UnknownNode(victim).into());
        }
        // Poison the victim on every run it may work for: their workers
        // must stop shipping under its identity from this instant. A
        // run that began before the victim joined has no slot for it,
        // and nothing of it to poison.
        let runs = self.live_runs();
        for run in runs.iter().map(|r| r.as_ref()).chain(rt) {
            if let Some(p) = run.poisoned.get(victim.index()) {
                p.store(true, Ordering::Release);
            }
        }
        // The victim's ring key, captured before repair removes it:
        // after recovery the key's owner is the successor that inherited
        // the range, which is where re-homed shuffle partitions go.
        let vkey = self.ring.read().key_of(victim).ok();
        let t0 = Instant::now();
        // The crash instant. The endpoint closes first: every in-flight
        // RPC *to* the victim is woken with a connection error now —
        // never left hanging, never answered from a half-wiped store —
        // and from here on every send from the victim is suppressed
        // (see `ship`). Then its payloads and cache shard die.
        self.net.close_endpoint(victim);
        self.store.wipe_node(victim);
        self.cache.invalidate_node(victim);
        // Re-replication from survivors + scheduler/ring rebuild. The
        // new ring is published whether or not every block survived.
        let recovered = self.recover_node(victim);
        if let (Some(rt), Ok(report)) = (rt, &recovered) {
            rt.tally.failed_nodes.fetch_add(1, Ordering::Relaxed);
            rt.tally.recovered_blocks.fetch_add(report.recovered_blocks, Ordering::Relaxed);
        }
        // Re-home the victim's shuffle partitions at the ring successor
        // that inherited its range — epoch-aware placement: fetches
        // after this event go to the current nearest holder, not the
        // job-start snapshot.
        if let Some(key) = vkey {
            if let Ok(heir) = self.ring.read().owner_of(key).map(|s| s.id) {
                self.router.rehome_from(victim, heir);
            }
        }
        // Re-queue the victim's claimed-but-uncommitted tasks on every
        // live run; each run's own voided attempts also self-requeue
        // (duplicates are safe: the ledger commits each task once,
        // reducers dedup by attempt).
        for run in &runs {
            run.requeue_claims_of(victim);
        }
        let Some(rt) = rt else { return recovered };
        if !runs.iter().any(|r| std::ptr::eq(r.as_ref(), rt)) {
            rt.requeue_claims_of(victim);
        }
        rt.tally.recovery_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Err(e) = &recovered {
            rt.abort(e.clone().into());
        }
        rt.notify(DstEvent::NodeCrashed { node: victim });
        recovered
    }

    /// Metadata + payload recovery of a crash: re-replicate the victim's
    /// blocks from survivors and rebuild ring-derived state. Every copy
    /// is tried, and the new membership is published, even when a block
    /// is lost; the error then names a lost block.
    fn recover_node(&self, node: NodeId) -> Result<RecoveryReport, FsError> {
        let plan = self.fs.write().fail_node(node)?;
        let mut report = RecoveryReport::default();
        let mut lost = plan.lost.first().copied();
        for copy in &plan.copies {
            match self.copy_block(copy, Transfer::Push) {
                Some(bytes) => {
                    report.recovered_blocks += 1;
                    report.recovered_bytes += bytes;
                }
                None => {
                    lost.get_or_insert(copy.block);
                }
            }
        }
        self.publish_membership();
        // Cache entries on the failed node die with it.
        self.cache.invalidate_node(node);
        match lost {
            Some(block) => Err(FsError::DataLoss(block)),
            None => Ok(report),
        }
    }

    /// Copy `copy.block` to `copy.to`, shared by crash recovery and
    /// graceful leave: from the plan's source first, then from every
    /// other holder the DHT FS lists (owner first), until one delivers.
    /// The transport's bounded retry absorbs dropped frames on each
    /// try; `Missing` or an unreachable source moves on to the next.
    /// Returns the bytes copied, or `None` when no source could; the
    /// new home then stops being listed as a holder.
    fn copy_block(&self, copy: &RecoveryCopy, how: Transfer) -> Option<u64> {
        let mut sources = vec![copy.from];
        if let Ok(holders) = self.fs.read().block_holders(copy.block) {
            sources.extend(holders.iter().copied().filter(|&h| h != copy.to && h != copy.from));
        }
        let copied = sources.into_iter().find_map(|src| {
            let reply = match how {
                Transfer::Push => {
                    let sync = Rpc::ReplicaSync { block: copy.block, to: copy.to };
                    self.net.call(CLIENT, src, sync)
                }
                Transfer::Pull => {
                    let pull = Rpc::BlockPull { block: copy.block, from: src };
                    self.net.call(CLIENT, copy.to, pull)
                }
            };
            match reply {
                Ok(RpcReply::Synced { bytes }) => Some(bytes),
                _ => None,
            }
        });
        if copied.is_none() {
            let _ = self.fs.write().remove_replica(copy.block, copy.to);
        }
        copied
    }

    /// The one membership write, shared by crash recovery, elastic join
    /// and graceful leave: publish the ring [`DhtFs`](eclipse_dhtfs::DhtFs)
    /// now holds as the cluster's snapshot, bump the membership epoch,
    /// and re-derive every piece of placement state from the new ring —
    /// scheduler membership (counters survive: the scheduler is the same,
    /// only the membership moved under it) and the distributed cache's
    /// hash-key ranges. Returns the published ring.
    fn publish_membership(&self) -> Ring {
        let ring = self.fs.read().ring().clone();
        *self.ring.write() = ring.clone();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        match &mut *self.sched.lock() {
            LiveSched::Laf(laf) => {
                laf.set_nodes(&ring);
                self.cache.set_ranges(laf.ranges().to_vec());
            }
            LiveSched::Delay(d) => {
                d.set_nodes(&ring);
                self.cache.set_ranges(d.ranges().to_vec());
            }
        }
        ring
    }

    /// What is wrong with the membership every change publishes, if
    /// anything: the published ring must equal the DHT FS ring, the
    /// cache ranges must equal the scheduler's, and those ranges must
    /// tile the key space and name only members of the published ring.
    /// The DST oracle checks it after every crash, join and leave.
    pub(crate) fn membership_fault(&self) -> Option<String> {
        let ring = self.ring();
        if !ring.members().eq(self.fs.read().ring().members()) {
            return Some("the published ring differs from the DHT FS ring".to_string());
        }
        let ranges = {
            let sched = self.sched.lock();
            let sched_ranges = match &*sched {
                LiveSched::Laf(laf) => laf.ranges(),
                LiveSched::Delay(d) => d.ranges(),
            };
            let ranges = self.cache.ranges();
            if ranges != sched_ranges {
                return Some("the cache ranges differ from the scheduler's".to_string());
            }
            ranges
        };
        if let Some((n, _)) = ranges.iter().find(|(n, _)| !ring.contains(*n)) {
            return Some(format!("a range names {n:?}, which is not in the ring"));
        }
        if !tiles(&ranges) {
            return Some(format!("the ranges do not tile the key space: {ranges:?}"));
        }
        None
    }

    /// Admit a new virtual node: a fresh ring position, cache shard and
    /// (empty) store shard. The joiner enters the published ring,
    /// pulls the block replicas its new range makes it responsible for
    /// from their current holders ([`Rpc::BlockPull`]), and inherits
    /// stranded cache entries ([`Rpc::RangeHandoff`]). Works while a
    /// job is running: in-flight scheduling immediately includes the
    /// joiner. Returns its id.
    pub fn join_node(&self, name: &str) -> NodeId {
        self.admit_and_handoff(name, None)
    }

    /// Retire a node gracefully: drain its queued-but-uncommitted
    /// tasks back to the scheduler, push its cache range and block
    /// replicas to ring successors, then deregister it. The dual of
    /// [`join_node`](Self::join_node); shares crash-recovery machinery
    /// (commit-board CAS, attempt ledger) so committed work on the
    /// leaver stands. Works while a job is running.
    pub fn leave_node(&self, node: NodeId) -> Result<RecoveryReport, FsError> {
        self.graceful_leave(node, None)
    }

    /// The join flow proper, serialized with crash recovery through the
    /// cluster's recovery gate. `trigger` is the run whose fault
    /// schedule requested the join; `None` (the public entry point)
    /// accounts the join to every live run instead. The joiner serves
    /// reads and handoffs at once and takes map attempts from the next
    /// run on.
    pub(super) fn admit_and_handoff(&self, name: &str, trigger: Option<&Run>) -> NodeId {
        let _gate = self.recovery_gate.lock();
        let runs = self.live_runs();
        let tally: Vec<&Run> = match trigger {
            Some(r) => vec![r],
            None => runs.iter().map(|r| r.as_ref()).collect(),
        };
        let t0 = Instant::now();
        let id = self.cache.add_node(self.cfg.cache_per_node);
        // The joiner opens its endpoint before anything is routed to it.
        bind_endpoint(
            &self.net,
            id,
            Arc::clone(&self.store),
            Arc::clone(&self.cache),
            self.born,
            Arc::clone(&self.router),
            Arc::clone(&self.slow_serving),
        );
        let plan = {
            let mut fs = self.fs.write();
            let mut info = ServerInfo::from_name(id, name);
            let mut salt = 0u32;
            while fs.ring().members().any(|s| s.key == info.key) {
                salt += 1;
                info = ServerInfo::from_name(id, format!("{name}+{salt}"));
            }
            fs.join(info).expect("fresh node id");
            fs.join_plan(id).expect("joiner is a member")
        };
        self.publish_membership();
        // Pull the replicas the joiner's range made it responsible for
        // from their current holders. A pull that cannot complete (a
        // partitioned holder, an injected drop burst) is benign: the
        // block keeps its pre-join holders and stays readable.
        for copy in plan {
            let pull = Rpc::BlockPull { block: copy.block, from: copy.from };
            if let Ok(RpcReply::Synced { bytes }) = self.net.call(CLIENT, id, pull) {
                let _ = self.fs.write().add_replica(copy.block, id);
                for r in &tally {
                    r.tally.handoff_blocks.fetch_add(1, Ordering::Relaxed);
                    r.tally.handoff_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
        }
        self.handoff_stranded_cache();
        for r in &tally {
            r.tally.joins.fetch_add(1, Ordering::Relaxed);
            r.tally.recovery_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r.notify(DstEvent::NodeJoined { node: id });
        }
        id
    }

    /// The graceful-leave flow proper (see
    /// [`leave_node`](Self::leave_node)). Unlike a crash the leaver
    /// cooperates: its endpoint stays open to serve handoff pulls, its
    /// committed map output stands, and only its *uncommitted* claims
    /// are drained back to the scheduler.
    pub(super) fn graceful_leave(
        &self,
        leaver: NodeId,
        trigger: Option<&Run>,
    ) -> Result<RecoveryReport, FsError> {
        let _gate = self.recovery_gate.lock();
        {
            let ring = self.ring.read();
            if !ring.contains(leaver) {
                return Err(FsError::Ring(RingError::UnknownNode(leaver)));
            }
            if ring.len() <= 1 {
                return Err(FsError::Ring(RingError::EmptyRing));
            }
        }
        let runs = self.live_runs();
        // Already poisoned on some run means a crash got there first —
        // nothing left to leave gracefully. Checked before any run is
        // touched, so a refused leave changes nothing.
        if runs.iter().any(|run| run.node_down(leaver)) {
            return Err(FsError::Ring(RingError::UnknownNode(leaver)));
        }
        let t0 = Instant::now();
        // The runs this leave is accounted to: the triggering run when
        // it came from a fault schedule, every live run when it came
        // through the public entry point.
        let tally: Vec<&Run> = match trigger {
            Some(r) => vec![r],
            None => runs.iter().map(|r| r.as_ref()).collect(),
        };
        for run in &runs {
            // Stop the leaver taking new work on every live run it may
            // work for. A run that began before the leaver joined has
            // no slot for it: the leaver never worked for that run.
            let Some(p) = run.poisoned.get(leaver.index()) else {
                continue;
            };
            p.store(true, Ordering::Release);
            // Drain its queued-but-uncommitted claims back to the
            // scheduler; the re-executions count as retries in the
            // attempt ledger, deduped by (task, attempt) as usual.
            let drained = run.requeue_claims_of(leaver);
            run.tally.drained_tasks.fetch_add(drained, Ordering::Relaxed);
        }
        let vkey = self.ring.read().key_of(leaver).ok();
        let plan = self.fs.write().leave_node(leaver)?;
        // Push the leaver's blocks to their new homes. The leaver is
        // still online and serves pulls; if its link is disturbed the
        // pull falls back through the block's other registered holders
        // (mirroring `fetch_block`). Only when *no* copy is reachable
        // anywhere has the handoff genuinely lost the block; the leave
        // still completes, since the DHT FS has already dropped the
        // leaver, and the error names that block.
        let mut report = RecoveryReport::default();
        let mut lost = None;
        for copy in &plan {
            let Some(b) = self.copy_block(copy, Transfer::Pull) else {
                lost.get_or_insert(copy.block);
                continue;
            };
            report.recovered_blocks += 1;
            report.recovered_bytes += b;
            for r in &tally {
                r.tally.handoff_blocks.fetch_add(1, Ordering::Relaxed);
                r.tally.handoff_bytes.fetch_add(b, Ordering::Relaxed);
            }
        }
        let new_ring = self.publish_membership();
        // Cache range handoff: entries the shrunk range map left
        // stranded migrate to their new homes, then whatever remains on
        // the leaver dies with it.
        self.handoff_stranded_cache();
        self.cache.invalidate_node(leaver);
        // Re-home the leaver's shuffle partitions at its successor so
        // post-leave fetches go to the current nearest holder.
        if let Some(key) = vkey {
            if let Ok(heir) = new_ring.owner_of(key).map(|s| s.id) {
                self.router.rehome_from(leaver, heir);
            }
        }
        // Only now does the leaver actually go away.
        self.store.wipe_node(leaver);
        self.net.close_endpoint(leaver);
        for r in &tally {
            r.tally.leaves.fetch_add(1, Ordering::Relaxed);
            r.tally.recovery_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r.notify(DstEvent::NodeLeft { node: leaver });
        }
        match lost {
            Some(block) => Err(FsError::DataLoss(block)),
            None => Ok(report),
        }
    }

    /// Migrate cache entries stranded by a range-map change to their
    /// current homes as one-way [`Rpc::RangeHandoff`] sends over the
    /// windowed lane. Best-effort: the cache is an optimization, a
    /// dropped handoff only costs a future miss.
    fn handoff_stranded_cache(&self) {
        let mut tickets: Vec<SendTicket> = Vec::new();
        for i in 0..self.cache.num_nodes() {
            let node = NodeId(i as u32);
            for (key, data, home) in self.cache.drain_for_handoff(node) {
                if let Ok(t) = self.net.send(node, home, Rpc::RangeHandoff { key, data }) {
                    tickets.push(t);
                }
            }
        }
        let _ = self.net.flush(&tickets);
    }

    /// Crash a node *now*, whether or not jobs are in flight: close its
    /// endpoint, wipe its payloads and cache shard, re-replicate its
    /// blocks from survivors, and rebuild ring-derived state. Every
    /// live run is poisoned for the victim and has the victim's claimed
    /// tasks re-queued; recovery counters land on an arbitrary live
    /// run. Jobs submitted afterwards run on the surviving nodes and
    /// still produce complete results. Returns what recovery
    /// accomplished, or [`FsError::DataLoss`] naming a block no
    /// surviving holder could restore (a live run charged with the
    /// recovery then aborts with it) — callers decide whether that is
    /// fatal. The new membership is published either way. A victim
    /// that is not a member is refused with [`FsError::Ring`].
    pub fn crash_node(&self, victim: NodeId) -> Result<RecoveryReport, FsError> {
        // No run begins or retires under the gate, so the run charged
        // stays registered — and its ledger open — for the whole
        // recovery.
        let _gate = self.recovery_gate.lock();
        let runs = self.live_runs();
        self.crash_gated(victim, runs.first().map(|r| r.as_ref()))
    }
}

/// Whether `ranges` cover every key exactly once: their lengths sum to
/// the whole key space and each non-empty range ends where the next one
/// in clockwise order starts.
fn tiles(ranges: &[(NodeId, KeyRange)]) -> bool {
    let mut arcs: Vec<KeyRange> = ranges.iter().map(|&(_, r)| r).filter(|r| !r.is_empty()).collect();
    arcs.sort_by_key(|r| r.start());
    let whole = arcs.iter().map(KeyRange::len).sum::<u128>() == 1u128 << 64;
    whole && (0..arcs.len()).all(|i| arcs[i].end() == arcs[(i + 1) % arcs.len()].start())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::HashKey;

    #[test]
    fn ranges_tile_only_as_one_gapless_lap() {
        let r = |a: u64, b: u64| KeyRange::new(HashKey(a), HashKey(b));
        let n = |i: u32| NodeId(i);
        let wrapping = [(n(0), r(10, 20)), (n(1), r(20, u64::MAX - 5)), (n(2), r(u64::MAX - 5, 10))];
        assert!(tiles(&wrapping));
        assert!(tiles(&[(n(0), KeyRange::full(HashKey(7)))]));
        assert!(tiles(&[(n(0), r(10, 20)), (n(1), r(20, 10)), (n(2), r(15, 15))]), "empty range");
        assert!(!tiles(&[(n(0), r(10, 20)), (n(1), r(21, 10))]), "a gap");
        assert!(!tiles(&[(n(0), r(10, 20)), (n(1), r(15, 10))]), "an overlap");
        assert!(!tiles(&[(n(0), r(10, 20)), (n(1), r(20, 10)), (n(2), r(10, 20))]), "a second lap");
    }

    #[test]
    fn every_membership_change_leaves_no_fault() {
        let c = LiveCluster::new(super::super::LiveConfig::small());
        c.upload("in", "u", b"a b c\n");
        assert_eq!(c.membership_fault(), None);
        let joined = c.join_node("extra");
        assert_eq!(c.membership_fault(), None, "after a join");
        c.leave_node(joined).expect("a graceful leave");
        assert_eq!(c.membership_fault(), None, "after a leave");
        c.crash_node(NodeId(0)).expect("a crash the replicas survive");
        assert_eq!(c.membership_fault(), None, "after a crash");
        assert_eq!(c.epoch(), 3);
    }
}
