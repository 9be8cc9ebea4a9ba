//! Membership changes while jobs may be running: crash recovery,
//! elastic join and graceful leave. Every flow is serialized through
//! the cluster's recovery gate and walks *all* live [`Run`]s.
#![deny(clippy::too_many_lines)]

use super::run::Run;
use super::router::bind_endpoint;
use super::{DstEvent, LiveCluster, LiveSched, RecoveryReport, HEARTBEAT_TIMEOUT_SECS};
use eclipse_dhtfs::FsError;
use eclipse_net::{Rpc, RpcReply, SendTicket, CLIENT};
use eclipse_ring::{ChordNet, MembershipEvent, NodeId, Ring, RingError, ServerInfo};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl LiveCluster {
    /// Crash `victim` while jobs are running: the full detection →
    /// ring-repair → re-replication → re-queue flow, serialized so
    /// concurrent triggers handle one crash at a time. `rt` is the run
    /// whose fault schedule (or membership call) triggered the crash —
    /// recovery counters and the DST event land on it — but the crash
    /// itself hits *every* live run: each is poisoned and has its
    /// victim-claimed tasks re-queued.
    pub(super) fn crash_node_mid_job(&self, victim: NodeId, rt: &Run) {
        let _gate = self.recovery_gate.lock();
        self.crash_gated(victim, rt);
    }

    /// [`crash_node_mid_job`](Self::crash_node_mid_job) proper; the
    /// caller holds the recovery gate.
    fn crash_gated(&self, victim: NodeId, rt: &Run) {
        let vi = victim.index();
        // Already crashed (or joined after the job started): no-op.
        if vi >= rt.poisoned.len() || rt.poisoned[vi].swap(true, Ordering::AcqRel) {
            return;
        }
        // Poison the victim on every other live run too: their workers
        // must stop shipping under its identity from this instant.
        let runs = self.live_runs();
        for other in runs.iter().filter(|r| !std::ptr::eq(r.as_ref(), rt)) {
            if let Some(p) = other.poisoned.get(vi) {
                p.store(true, Ordering::Release);
            }
        }
        if !self.ring.read().contains(victim) {
            return;
        }
        // The victim's ring key, captured before repair removes it:
        // after recovery the key's owner is the successor that inherited
        // the range, which is where re-homed shuffle partitions go.
        let vkey = self.ring.read().key_of(victim).ok();
        let t0 = Instant::now();
        // The crash instant: payloads, cache shard and network endpoint
        // die; from here on every send from the victim is suppressed
        // (see `ship`), and every in-flight RPC *to* the victim is
        // woken with a connection error instead of hanging until
        // heartbeat expiry.
        self.store.wipe_node(victim);
        self.cache.invalidate_node(victim);
        self.net.close_endpoint(victim);
        // Detection: advance the logical clock past the heartbeat
        // timeout and ping every member over the transport; live nodes
        // ack and beat, the victim's closed endpoint cannot.
        {
            let mut mon = self.monitor.lock();
            let step = HEARTBEAT_TIMEOUT_SECS + 1;
            let clock = self.clock.fetch_add(step, Ordering::AcqRel) + step;
            let now = clock as f64;
            for n in self.ring.read().node_ids() {
                let beat = !rt
                    .poisoned
                    .get(n.index())
                    .is_some_and(|p| p.load(Ordering::Acquire))
                    && matches!(
                        self.net.call(
                            CLIENT,
                            n,
                            Rpc::Heartbeat { from: CLIENT, clock, task: u32::MAX, progress: 0 },
                        ),
                        Ok(RpcReply::Ack)
                    );
                if beat {
                    mon.heartbeat(n, now);
                }
            }
            let dead = mon.expired(now);
            debug_assert!(dead.contains(&victim), "victim must be detected");
        }
        // Ring repair, mirrored through protocol-level Chord
        // stabilization: successors/predecessors re-converge around the
        // hole exactly as the paper's stabilization procedure would.
        // Every pointer a node follows is first probed over the
        // transport, so the dead endpoint (and any partitioned peer) is
        // routed around rather than adopted.
        {
            let mut chord = ChordNet::converged_from(self.ring.read().members().cloned());
            chord.fail(victim);
            let max = 4 * chord.len() + 8;
            if let Some(rounds) = chord
                .stabilize_until_converged_probed(max, &mut |a, b| self.net.probe(a, b))
            {
                rt.tally.stabilize_rounds.fetch_add(rounds as u64, Ordering::Relaxed);
            }
        }
        // Re-replication from survivors + scheduler/ring rebuild.
        match self.recover_node(victim) {
            Ok(report) => {
                rt.tally.failed_nodes.fetch_add(1, Ordering::Relaxed);
                rt.tally.recovered_blocks.fetch_add(report.recovered_blocks, Ordering::Relaxed);
                // Re-home the victim's shuffle partitions at the ring
                // successor that inherited its range — epoch-aware
                // placement: fetches after this event go to the current
                // nearest holder, not the job-start snapshot.
                if let Some(key) = vkey {
                    if let Ok(heir) = self.ring.read().owner_of(key).map(|s| s.id) {
                        self.router.rehome_from(victim, heir);
                    }
                }
                let _ = self.view.lock().apply(MembershipEvent::Fail(victim));
            }
            Err(e) => {
                rt.tally
                    .recovery_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                rt.abort(e.into());
                return;
            }
        }
        // Re-queue the victim's claimed-but-uncommitted tasks on every
        // live run; each run's own voided attempts also self-requeue
        // (duplicates are safe: the ledger commits each task once,
        // reducers dedup by attempt).
        for run in &runs {
            run.requeue_claims_of(victim);
        }
        if !runs.iter().any(|r| std::ptr::eq(r.as_ref(), rt)) {
            rt.requeue_claims_of(victim);
        }
        rt.tally.recovery_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rt.notify(DstEvent::NodeCrashed { node: victim });
    }

    /// Metadata + payload recovery shared by the mid-job path and the
    /// public [`fail_node`](Self::fail_node): re-replicate the victim's
    /// blocks from survivors and rebuild ring-derived state.
    fn recover_node(&self, node: NodeId) -> Result<RecoveryReport, FsError> {
        let plan = {
            let mut fs = self.fs.write();
            fs.fail_node(node)?
        };
        let mut report = RecoveryReport::default();
        for copy in plan {
            // Drive re-replication over the transport: the surviving
            // holder relays its replica to the new home (`ReplicaSync`
            // → nested `PutBlock`). The transport's bounded retry
            // absorbs dropped frames; `Missing` — or an unreachable
            // source — means the double failure destroyed every copy.
            let sync = Rpc::ReplicaSync { block: copy.block, to: copy.to };
            match self.net.call(CLIENT, copy.from, sync) {
                Ok(RpcReply::Synced { bytes }) => {
                    report.recovered_blocks += 1;
                    report.recovered_bytes += bytes;
                }
                _ => return Err(FsError::DataLoss(copy.block)),
            }
        }
        let new_ring = self.fs.read().ring().clone();
        *self.ring.write() = new_ring.clone();
        self.rebuild_placement(&new_ring);
        // Cache entries on the failed node die with it.
        self.cache.invalidate_node(node);
        Ok(report)
    }

    /// Re-derive every piece of placement state from a changed ring:
    /// scheduler membership (counters survive — the scheduler is the
    /// same, only the membership moved under it) and the distributed
    /// cache's hash-key ranges. Shared by crash recovery, elastic join
    /// and graceful leave.
    fn rebuild_placement(&self, ring: &Ring) {
        let mut sched = self.sched.lock();
        match &mut *sched {
            LiveSched::Laf(laf) => {
                laf.set_nodes(ring);
                self.cache.set_ranges(laf.ranges().to_vec());
            }
            LiveSched::Delay(d) => {
                d.set_nodes(ring);
                self.cache.set_ranges(d.ranges().to_vec());
            }
        }
    }

    /// Admit a new virtual node: a fresh ring position, cache shard and
    /// (empty) store shard. The joiner walks the Chord stabilize flow,
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
    /// accounts the join to every live run instead, and every live
    /// run's latent joiner lanes get the new identity.
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
            Arc::clone(&self.router),
            Arc::clone(&self.slow_serving),
        );
        let old_members: Vec<ServerInfo> = self.ring.read().members().cloned().collect();
        let (info, plan, new_ring) = {
            let mut fs = self.fs.write();
            let mut info = ServerInfo::from_name(id, name);
            let mut salt = 0u32;
            while fs.ring().members().any(|s| s.key == info.key) {
                salt += 1;
                info = ServerInfo::from_name(id, format!("{name}+{salt}"));
            }
            fs.join(info.clone()).expect("fresh node id");
            let plan = fs.join_plan(id).expect("joiner is a member");
            (info, plan, fs.ring().clone())
        };
        *self.ring.write() = new_ring.clone();
        // Protocol-level admission: the joiner learns its successor and
        // the ring re-converges around it, every adopted pointer probed
        // over the transport first.
        {
            let mut chord = ChordNet::converged_from(old_members.iter().cloned());
            chord.join(info.clone(), old_members[0].id);
            let max = 4 * chord.len() + 8;
            if let Some(rounds) =
                chord.stabilize_until_converged_probed(max, &mut |a, b| self.net.probe(a, b))
            {
                for r in &tally {
                    r.tally.stabilize_rounds.fetch_add(rounds as u64, Ordering::Relaxed);
                }
            }
        }
        self.monitor.lock().heartbeat(id, self.clock.load(Ordering::Acquire) as f64);
        self.rebuild_placement(&new_ring);
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
        let _ = self.view.lock().apply(MembershipEvent::Join(info));
        for r in &tally {
            r.tally.joins.fetch_add(1, Ordering::Relaxed);
            r.tally.recovery_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // Hand the new node to a latent worker thread so in-flight
            // tasks can land on it.
            r.joined.lock().push(id);
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
        let t0 = Instant::now();
        let vi = leaver.index();
        let runs = self.live_runs();
        // The runs this leave is accounted to: the triggering run when
        // it came from a fault schedule, every live run when it came
        // through the public entry point.
        let tally: Vec<&Run> = match trigger {
            Some(r) => vec![r],
            None => runs.iter().map(|r| r.as_ref()).collect(),
        };
        for run in &runs {
            // Stop the leaver taking new work on every live run.
            // Already poisoned means a crash got there first — nothing
            // left to leave gracefully.
            if run.poisoned.get(vi).is_none_or(|p| p.swap(true, Ordering::AcqRel)) {
                return Err(FsError::Ring(RingError::UnknownNode(leaver)));
            }
            // Drain its queued-but-uncommitted claims back to the
            // scheduler; the re-executions count as retries in the
            // attempt ledger, deduped by (task, attempt) as usual.
            let drained = run.requeue_claims_of(leaver);
            run.tally.drained_tasks.fetch_add(drained, Ordering::Relaxed);
        }
        let vkey = self.ring.read().key_of(leaver).ok();
        let old_members: Vec<ServerInfo> = self.ring.read().members().cloned().collect();
        let plan = self.fs.write().leave_node(leaver)?;
        // Push the leaver's blocks to their new homes. The leaver is
        // still online and serves pulls; if its link is disturbed the
        // pull falls back through the block's other registered holders
        // (mirroring `fetch_block`). Only when *no* copy is reachable
        // anywhere has the handoff genuinely lost the block.
        let mut report = RecoveryReport::default();
        for copy in &plan {
            let mut sources = vec![copy.from];
            if let Ok(holders) = self.fs.read().block_holders(copy.block) {
                sources.extend(holders.iter().copied().filter(|&h| h != copy.to));
            }
            let mut bytes = None;
            for src in sources {
                let pull = Rpc::BlockPull { block: copy.block, from: src };
                if let Ok(RpcReply::Synced { bytes: b }) = self.net.call(CLIENT, copy.to, pull)
                {
                    bytes = Some(b);
                    break;
                }
            }
            match bytes {
                Some(b) => {
                    report.recovered_blocks += 1;
                    report.recovered_bytes += b;
                    for r in &tally {
                        r.tally.handoff_blocks.fetch_add(1, Ordering::Relaxed);
                        r.tally.handoff_bytes.fetch_add(b, Ordering::Relaxed);
                    }
                }
                None => return Err(FsError::DataLoss(copy.block)),
            }
        }
        let new_ring = self.fs.read().ring().clone();
        *self.ring.write() = new_ring.clone();
        self.rebuild_placement(&new_ring);
        // Cache range handoff: entries the shrunk range map left
        // stranded migrate to their new homes, then whatever remains on
        // the leaver dies with it.
        self.handoff_stranded_cache();
        self.cache.invalidate_node(leaver);
        self.monitor.lock().forget(leaver);
        // Protocol-level departure: the ring re-converges around the
        // hole, pointers probed over the transport.
        {
            let mut chord = ChordNet::converged_from(old_members.iter().cloned());
            chord.fail(leaver);
            let max = 4 * chord.len() + 8;
            if let Some(rounds) =
                chord.stabilize_until_converged_probed(max, &mut |a, b| self.net.probe(a, b))
            {
                for r in &tally {
                    r.tally.stabilize_rounds.fetch_add(rounds as u64, Ordering::Relaxed);
                }
            }
        }
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
        let _ = self.view.lock().apply(MembershipEvent::Leave(leaver));
        for r in &tally {
            r.tally.leaves.fetch_add(1, Ordering::Relaxed);
            r.tally.recovery_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r.notify(DstEvent::NodeLeft { node: leaver });
        }
        Ok(report)
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

    /// Crash a node between jobs: wipe its payloads, re-replicate from
    /// survivors, and rebuild ring-derived state. Jobs submitted
    /// afterwards run on the surviving nodes and still produce complete
    /// results. Returns what recovery accomplished, or the error when a
    /// second simultaneous failure already destroyed a source replica —
    /// callers decide whether that is fatal.
    pub fn fail_node(&self, node: NodeId) -> Result<RecoveryReport, FsError> {
        self.monitor.lock().forget(node);
        // Poison the endpoint first: a peer blocked on an RPC to the
        // dying node is woken with a connection error now — never left
        // hanging, never answered from a half-wiped store.
        self.net.close_endpoint(node);
        self.store.wipe_node(node);
        self.cache.invalidate_node(node);
        self.recover_node(node)
    }

    /// Crash a node *now*, whether or not jobs are in flight. With live
    /// jobs this runs the full mid-job flow (poison every run, repair
    /// the ring, re-queue the victim's claims on every run — recovery
    /// counters land on an arbitrary live run); between jobs it
    /// degrades to [`fail_node`](Self::fail_node). The entry point for
    /// crash-under-storm tests, where no single job owns the fault.
    pub fn crash_node(&self, victim: NodeId) -> Result<(), FsError> {
        // No run begins or retires under the gate, so the run charged
        // stays registered — and its ledger open — for the whole
        // recovery.
        let _gate = self.recovery_gate.lock();
        match self.live_runs().first() {
            Some(rt) => {
                self.crash_gated(victim, rt);
                Ok(())
            }
            None => self.fail_node(victim).map(|_| ()),
        }
    }
}
