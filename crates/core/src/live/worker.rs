//! The map worker: the only implementation of a map attempt.
//!
//! A [`MapWorker`] is one thread's working state on one [`Run`]: a home
//! node, a spill buffer with one byte arena per partition (one
//! combining table for a combiner app), and at most one
//! shipped-but-unsettled attempt. Every thread a run gets — the one
//! that began it, a one-shot job's scoped helpers, a job server's pool
//! workers — runs the one loop, [`MapWorker::work`]. Identity is per
//! attempt: a first attempt runs as its assigned node while that node
//! is free, and as the worker's home when it steals from a busy owner
//! or stands in for a crashed one; a retry runs as the home and a
//! backup as the node the straggler watch placed it on. Below the loop
//! everything is shared: claim, read, map, combine, ship over the
//! windowed lane, settle, commit, re-home after a crash.
#![deny(clippy::too_many_lines)]

use super::run::{Run, UNCOMMITTED};
use super::{
    DstEvent, LiveCluster, MapReduce, MAX_ATTEMPTS, RETRY_BACKOFF_BASE_MICROS, SLOW_SEND_DIV,
    SLOW_SLICE_MICROS,
};
use crate::job::JobError;
use crate::shuffle::SpillBuffer;
use bytes::Bytes;
use eclipse_cache::CacheKey;
use eclipse_dhtfs::FsError;
use eclipse_net::{RecordRun, Rpc, RunBuilder, SendTicket, CLIENT};
use eclipse_ring::NodeId;
use eclipse_util::HashKey;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How one map attempt ended.
enum Attempt {
    /// Complete output shipped; eligible to commit.
    Shipped,
    /// The attempt's node crashed mid-attempt: at least one send was
    /// suppressed, so the attempt must not commit.
    Voided,
    /// An injected task fault, or a shuffle batch the transport lost,
    /// consumed the attempt: bounded re-execution.
    Faulted,
    /// A *different* attempt of the same task committed while this one
    /// ran: the per-attempt cancellation token (checked at spill
    /// boundaries) stopped it early. Safe by construction — the token
    /// only fires after another attempt's complete output committed, so
    /// cancellation can never suppress a committed send.
    Cancelled,
}

/// One attempt's shipping state: which `(task, attempt)` the batches
/// are tagged with, the node it runs as, what went wrong so far, and
/// the still-in-flight windowed send tickets the deferred settle step
/// must redeem.
struct Shipping {
    tid: usize,
    attempt: u32,
    /// The node this attempt runs as: its reads, sends, heartbeats and
    /// injected slowness are that node's.
    node: NodeId,
    /// Sequence number within this attempt, for at-least-once dedup at
    /// the receiver.
    seq: u32,
    /// Bytes emitted so far over the input size: the coarse progress
    /// estimate heartbeats carry to the straggler watch.
    emitted: u64,
    total: u64,
    /// "A crash loses in-flight messages": once the attempt's node is
    /// poisoned, nothing it ships may reach a reducer.
    voided: bool,
    /// The cancellation token fired at a spill boundary.
    cancelled: bool,
    /// A batch lost by the transport (partition, exhausted retries)
    /// also fails the attempt: it re-executes and its uncommitted
    /// output is dropped by reducer dedup — retried, not double-counted.
    shipfail: bool,
    /// Windowed cross-node batches in flight, with the partition each
    /// one carries (re-homed on loss). Every ticket is flushed before
    /// the commit decision so commit still happens-after delivery.
    shuffle: Vec<(SendTicket, usize)>,
    /// Best-effort windowed cache inserts in flight (outcome ignored —
    /// the cache is an optimization).
    cache: Vec<SendTicket>,
}

impl Shipping {
    fn new(tid: usize, attempt: u32, node: NodeId) -> Shipping {
        Shipping {
            tid,
            attempt,
            node,
            seq: 0,
            emitted: 0,
            total: 1,
            voided: false,
            cancelled: false,
            shipfail: false,
            shuffle: Vec::new(),
            cache: Vec::new(),
        }
    }

    fn ended(&self) -> Attempt {
        if self.cancelled {
            Attempt::Cancelled
        } else if self.voided {
            Attempt::Voided
        } else if self.shipfail {
            Attempt::Faulted
        } else {
            Attempt::Shipped
        }
    }
}

/// A shipped attempt whose windowed batches are still in flight: the
/// worker holds it across the *next* attempt's map work (acks overlap
/// with compute) and settles it — flush, then the commit CAS — before
/// anything that needs the task committed. The happens-before edge is
/// untouched: commit still strictly follows acknowledged delivery.
struct PendingCommit {
    tid: usize,
    attempt: u32,
    /// The node the attempt ran as: its crash voids the attempt, and a
    /// lost batch re-homes the partition there.
    node: NodeId,
    shuffle: Vec<(SendTicket, usize)>,
    cache: Vec<SendTicket>,
    /// This attempt was a speculative backup (its commit is a
    /// `speculative_wins`; its loss is not requeued).
    speculative: bool,
    /// When the attempt started — a winning commit feeds the running
    /// median the straggler watch compares against.
    started: Instant,
}

/// One thread's map-side state on one run. Threads are execution
/// resources, not nodes: with fewer cores than nodes one thread runs
/// many nodes' tasks, each attempt as the node [`work`](Self::work)
/// picks for it. The worker's `home` is the node it runs retries and
/// steals as; it re-homes to a survivor when that node crashes (a
/// thread's exit would strand the whole job).
pub(crate) struct MapWorker<'a> {
    cluster: &'a LiveCluster,
    run: &'a Run,
    app: &'a dyn MapReduce,
    /// Position in the run's ring-ordered worker list: the drain and
    /// re-homing start here.
    wi: usize,
    home: NodeId,
    /// One spill buffer per worker, emptied at the end of every task
    /// so each batch carries exactly one `(task, attempt)` tag. It
    /// decides every spill by emitted bytes and holds no records;
    /// `out` does.
    buffer: SpillBuffer<()>,
    /// The map output buffered since each partition's last spill.
    out: Buffered,
    /// The one parked (shipped, unsettled) attempt.
    pending: Option<PendingCommit>,
}

impl<'a> MapWorker<'a> {
    /// A worker at ring position `wi` (modulo the run's membership),
    /// homed on that member.
    pub(crate) fn at(
        cluster: &'a LiveCluster,
        run: &'a Run,
        app: &'a dyn MapReduce,
        wi: usize,
    ) -> MapWorker<'a> {
        let wi = wi % run.workers.len();
        let buffer = SpillBuffer::new(run.reducers, cluster.cfg.shuffle_batch_bytes);
        let out = if app.has_combiner() {
            Buffered::Combined((0..run.reducers).map(|_| Table::default()).collect())
        } else {
            Buffered::Records((0..run.reducers).map(|_| Arena::default()).collect())
        };
        MapWorker { cluster, run, app, wi, home: run.workers[wi], buffer, out, pending: None }
    }

    /// The map loop of every thread a run gets: drain the frozen queues
    /// — a pass that takes only free or crashed owners' tasks, then one
    /// that also steals — then the re-execution and backup queues, until
    /// every task has committed. `stay` keeps the worker on the run
    /// until then, so backups and pinned queues still find a thread, and
    /// a run completes with no other thread at all; a pool helper
    /// (`!stay`) leaves at its first idle moment, parked attempt
    /// settled.
    pub(crate) fn work(&mut self, stay: bool) {
        let run = self.run;
        while !run.done() && self.rehome() {
            if self.drain(false) || self.drain(true) {
                continue;
            }
            let next = run.retry.lock().pop();
            if let Some(tid) = next {
                self.run_attempt(tid, self.home, false);
                continue;
            }
            // Out of work: look for stragglers, run a requested backup,
            // else settle our parked attempt before idling — the
            // all-committed exit above (ours and every other worker's)
            // waits on it.
            if let Some(spec) = self.cluster.cfg.speculation {
                run.watch_stragglers(self.cluster, spec);
            }
            if let Some((tid, node)) = run.pop_spec() {
                self.run_attempt(tid, node, true);
            } else if let Some(p) = self.pending.take() {
                self.settle(p);
            } else if !stay {
                return;
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        // Abort/rehome exits can leave a parked attempt; settle it so
        // its window slots are redeemed.
        if let Some(p) = self.pending.take() {
            self.settle(p);
        }
    }

    /// One pass over the frozen queues in ring order from `wi`; true if
    /// it claimed anything. A task runs as its assigned node while that
    /// node has no attempt of this run in flight, and as `home` when its
    /// node is down. With `steal` a busy owner's task runs as `home`
    /// too — the paper's trade of locality for balance, made only at a
    /// busy queue's tail — except under replicated map-out, whose
    /// placements stay pinned to their co-located shuffle.
    fn drain(&mut self, steal: bool) -> bool {
        let run = self.run;
        let n = run.workers.len();
        let mut claimed = false;
        for step in 0..n {
            let owner = run.workers[(self.wi + step) % n];
            while !run.is_aborted() && self.rehome() {
                let node = if run.node_down(owner) {
                    self.home
                } else if !run.busy(owner) {
                    owner
                } else if steal && !run.pinned {
                    self.home
                } else {
                    break;
                };
                let i = run.cursors[owner.index()].fetch_add(1, Ordering::Relaxed);
                let Some(&tid) = run.queues[owner.index()].get(i) else { break };
                claimed = true;
                self.run_attempt(tid, node, false);
            }
        }
        claimed
    }

    /// If this worker's home crashed, re-home to the next surviving
    /// node in ring order. False only when every node is dead.
    fn rehome(&mut self) -> bool {
        let run = self.run;
        if !run.node_down(self.home) {
            return true;
        }
        let n = run.workers.len();
        match (0..n).map(|s| run.workers[(self.wi + s) % n]).find(|&w| !run.node_down(w)) {
            Some(w) => {
                self.home = w;
                true
            }
            None => false,
        }
    }

    /// Per-attempt cancellation token: fires only once *another*
    /// attempt of the same task has committed — so cancellation can
    /// never suppress a committed attempt's sends.
    fn cancelled_now(&self, tid: usize, attempt: u32) -> bool {
        let c = self.run.commits[tid].load(Ordering::Acquire);
        c != UNCOMMITTED && c != attempt
    }

    /// Sleep in slices, checking the token, so a straggling attempt
    /// stops burning its node soon after losing the commit race.
    /// Returns true when cancelled.
    fn cancellable_sleep(&self, tid: usize, attempt: u32, micros: u64) -> bool {
        let mut left = micros;
        while left > 0 {
            if self.cancelled_now(tid, attempt) {
                return true;
            }
            let step = left.min(SLOW_SLICE_MICROS);
            std::thread::sleep(Duration::from_micros(step));
            left -= step;
        }
        self.cancelled_now(tid, attempt)
    }

    /// Tell the driver endpoint how far `att` has got (speculation
    /// only): the straggler watch reads the board these feed.
    fn heartbeat(&self, att: &Shipping, progress: u32) {
        if self.cluster.cfg.speculation.is_some() {
            let task = self.run.gtid(att.tid);
            let beat = Rpc::Heartbeat { from: att.node, clock: 0, task, progress };
            let _ = self.cluster.net.call(att.node, CLIENT, beat);
        }
    }

    /// Read task `tid`'s block: the assigned node's iCache shard first,
    /// then the store with replica fallback. All cache and locality
    /// accounting uses the ASSIGNED node: stats and cache placement are
    /// identical whichever node the attempt runs as. When that node is
    /// dead its cache shard died with it, so the read goes straight to
    /// the replica chain.
    fn read_block(&self, tid: usize, att: &mut Shipping) -> Result<Bytes, JobError> {
        let (cluster, run, me) = (self.cluster, self.run, att.node);
        let t = &run.tasks[tid];
        let (bid, owner) = (t.bid, t.node);
        let tally = &run.tally;
        if run.node_down(owner) {
            tally.misses.fetch_add(1, Ordering::Relaxed);
            tally.remote.fetch_add(1, Ordering::Relaxed);
            return cluster.fetch_block(bid, me);
        }
        // Cross-node cache traffic (a stolen task probing its assigned
        // node's shard) rides `CacheGet`/`CachePut`; same-node access
        // stays direct.
        let key = CacheKey::Input(HashKey::of_block(&run.inputs[t.source], bid.index));
        if let Some(p) = cluster.cache_lookup(me, owner, &key) {
            tally.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        tally.misses.fetch_add(1, Ordering::Relaxed);
        if !cluster.store.holds(owner, bid) {
            tally.remote.fetch_add(1, Ordering::Relaxed);
        }
        let p = cluster.fetch_block(bid, owner)?;
        if run.reuse.cache_input && !run.node_down(owner) {
            att.cache.extend(cluster.cache_insert(me, owner, key, p.clone(), run.tenant));
        }
        Ok(p)
    }

    /// Execute one attempt as `node`: read the block, map it, ship
    /// every spill. Windowed sends stay in flight at return — the
    /// caller settles them via [`PendingCommit`].
    fn exec(&mut self, tid: usize, attempt: u32, node: NodeId) -> Result<Shipping, JobError> {
        let (run, app) = (self.run, self.app);
        let t = &run.tasks[tid];
        let mut att = Shipping::new(tid, attempt, node);
        // Announce the attempt to the progress board BEFORE any
        // injected straggle: the watch's first-heard timestamp must
        // cover the whole slow period, or stragglers look young.
        self.heartbeat(&att, 0);
        if run.armed {
            let delay = run.slow_micros(node);
            if delay > 0 && self.cancellable_sleep(tid, attempt, delay) {
                att.cancelled = true;
                return Ok(att);
            }
            if run.injected_failure(tid, attempt) {
                att.shipfail = true;
                return Ok(att);
            }
        }
        if t.node != node {
            run.tally.steals.fetch_add(1, Ordering::Relaxed);
        }
        let payload = self.read_block(tid, &mut att)?;
        att.total = payload.len().max(1) as u64;
        let parts = t.parts.as_deref();
        let mut out_of_range = false;
        // Map + proactive spill. The buffer and arenas are empty at
        // entry and drained before return, so a batch never mixes tasks
        // or attempts.
        app.map_into(t.source, &payload, &mut |k, v| {
            if out_of_range {
                return;
            }
            let bytes = (k.len() + v.len()) as u64;
            att.emitted += bytes;
            // One hash per pair: its top bits pick the partition, its
            // low bits a combining table's slot.
            let hash = shuffle_hash(k.as_bytes());
            let p = match app.partition(&k, run.reducers) {
                Some(p) if p >= run.reducers => {
                    out_of_range = true;
                    return;
                }
                Some(p) => p,
                None => self.buffer.partition_of(HashKey(hash)),
            };
            // Replicated map-out: this placement only produces its
            // mask's partitions; sibling placements cover the rest.
            if parts.is_some_and(|mask| !mask[p]) {
                return;
            }
            self.out.add(app, p, hash, &k, &v);
            if self.buffer.push_to(p, bytes, None).is_some() {
                let spill = self.out.take(app, p);
                self.ship(&mut att, p, spill);
            }
        });
        if out_of_range {
            // The app, not the attempt, is at fault: re-executing would
            // only fail the same way.
            redeem(self.cluster, &att.shuffle, &att.cache);
            return Err(JobError::InvalidRequest("MapReduce::partition returned p >= reducers"));
        }
        // Task end: every partition holding output spills, including
        // one whose pairs were all empty (zero bytes buffered).
        self.buffer.reset();
        for p in 0..run.reducers {
            let spill = self.out.take(app, p);
            self.ship(&mut att, p, spill);
        }
        // Batch boundary: put every coalesced frame (shuffle + cache)
        // on the wire now, so the acks travel while the *next* attempt
        // maps and the deferred settle finds them done.
        self.cluster.net.nudge();
        Ok(att)
    }

    /// Drop everything buffered for an attempt that will not ship.
    fn discard(&mut self) {
        self.buffer.reset();
        self.out.clear();
    }

    /// Push one spill's run to reduce partition `partition`'s home: a
    /// windowed one-way `ShuffleRun` when the home is another live
    /// node, a direct delivery when it is this node (or dead, in which
    /// case the partition re-homes here first). Both carry the same
    /// run.
    fn ship(&mut self, att: &mut Shipping, partition: usize, records: RecordRun) {
        let (cluster, run, me) = (self.cluster, self.run, att.node);
        let (tid, attempt) = (att.tid, att.attempt);
        if records.is_empty() {
            return;
        }
        // Spill boundary = cancellation point: a losing attempt stops
        // shipping as soon as the winner has committed (its sends so
        // far are dropped by reducer dedup).
        if self.cancelled_now(tid, attempt) {
            att.cancelled = true;
            return;
        }
        if run.node_down(me) {
            att.voided = true;
            return;
        }
        // A straggler is also slow *sending*: a fraction of the map
        // delay per batch, sliced so cancellation still lands.
        if run.armed {
            let d = run.slow_micros(me);
            if d > 0 && self.cancellable_sleep(tid, attempt, d / SLOW_SEND_DIV) {
                att.cancelled = true;
                return;
            }
        }
        self.heartbeat(att, ((att.emitted * 1000) / att.total).min(1000) as u32);
        let seq = att.seq;
        att.seq += 1;
        let home = cluster.router.home_of(run.jid, partition);
        if home != me && !run.node_down(home) {
            // The worker keeps mapping while the batch and its ack are
            // in flight; it blocks only when `home`'s ack window is
            // full.
            let batch = Rpc::ShuffleRun {
                task: run.gtid(tid),
                attempt,
                seq,
                epoch: run.epoch,
                partition: partition as u32,
                run: records,
            };
            match cluster.net.send(me, home, batch) {
                Ok(ticket) => att.shuffle.push((ticket, partition)),
                Err(_) => {
                    // The batch is gone with the frame. Re-home the
                    // partition so the re-execution ships locally
                    // instead of burning its whole attempt budget on
                    // the same cut link.
                    cluster.router.set_home(run.jid, partition, me);
                    att.shipfail = true;
                    return;
                }
            }
        } else {
            if home != me {
                cluster.router.set_home(run.jid, partition, me);
            }
            let n = records.len() as u64;
            let p = partition as u32;
            if !cluster.router.deliver(run.gtid(tid), attempt, seq, run.epoch, p, records) {
                // Job teardown: losing the spill is fine then.
                return;
            }
            run.tally.local_shuffle_records.fetch_add(n, Ordering::Relaxed);
        }
        run.tally.spills.fetch_add(1, Ordering::Relaxed);
        let sent = run.spills_sent.fetch_add(1, Ordering::AcqRel) + 1;
        // Observer first: a transport fault scheduled at this spill
        // count is installed before a crash at the same count starts
        // recovering through it.
        run.notify(DstEvent::SpillSent { sent });
        if run.armed {
            // Drain *every* due crash, not just the first: two ops
            // scheduled at the same batch count must both fire here —
            // the counter passes each value exactly once (found by DST
            // seed 545).
            while let Some(victim) = run.due_after_spills(sent) {
                cluster.crash_node_mid_job(victim, run);
            }
        }
    }

    /// Settle a deferred attempt: redeem every window slot, then decide
    /// its commit. An attempt may only commit once every cross-node
    /// batch is acknowledged, so the send→commit happens-before edge is
    /// the same as with blocking round-trips — the flush has merely
    /// been riding alongside the *next* attempt's map work. Tickets are
    /// flushed even on the failure paths: each holds a window slot
    /// until redeemed.
    fn settle(&self, p: PendingCommit) {
        let (cluster, run, me) = (self.cluster, self.run, p.node);
        let mut lost = false;
        for (ticket, partition) in &p.shuffle {
            if cluster.net.flush(std::slice::from_ref(ticket)).is_err() {
                // Same recovery as a synchronous ship failure: re-home,
                // re-execute, dedup drops the losing attempt.
                cluster.router.set_home(run.jid, *partition, me);
                lost = true;
            }
        }
        let _ = cluster.net.flush(&p.cache);
        // A crash since shipping voids the attempt (mirrors the
        // mid-ship voided flag); the re-execution's batches win via
        // dedup. A lost *backup* is simply dropped — the primary is
        // still running, and a backup must never burn the task's retry
        // budget.
        if lost || run.node_down(me) {
            if !p.speculative {
                self.requeue_failed(p.tid);
            }
            return;
        }
        // Commit: all sends of this attempt happened-before this CAS,
        // so any reducer that sees the committed attempt will receive
        // its batches.
        let cas = run.commits[p.tid].compare_exchange(
            UNCOMMITTED,
            p.attempt,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if cas.is_err() {
            return;
        }
        run.committed.fetch_add(1, Ordering::AcqRel);
        // The race is decided: prune the dedup trackers of every losing
        // attempt and ack-drop their late batches from now on (bounded
        // dedup memory).
        cluster.router.settle_task(run.gtid(p.tid), p.attempt);
        if cluster.cfg.speculation.is_some() {
            run.durations.lock().push(p.started.elapsed().as_nanos() as u64);
        }
        if p.speculative {
            run.tally.speculative_wins.fetch_add(1, Ordering::Relaxed);
        }
        let done = run.maps_done.fetch_add(1, Ordering::AcqRel) + 1;
        // Observer before crash triggers (see the spill-side note).
        run.notify(DstEvent::MapCommitted { done });
        if run.armed {
            self.fire_due_faults(done);
        }
    }

    /// Fire every fault the committed-maps clock just made due. Drain
    /// every due crash (see the spill-side note): a second op at the
    /// same commit count would otherwise never fire when this is the
    /// last map commit. Elastic events fire on the same logical clock,
    /// crashes first so a join/leave due at the same commit count sees
    /// the repaired ring.
    fn fire_due_faults(&self, done: u64) {
        let (cluster, run) = (self.cluster, self.run);
        while let Some(victim) = run.due_after_maps(done) {
            cluster.crash_node_mid_job(victim, run);
        }
        while run.due_join(done) {
            let seq = run.tally.joins.load(Ordering::Relaxed);
            cluster.admit_and_handoff(&format!("join-{seq}"), Some(run));
        }
        while let Some(n) = run.due_leave(done) {
            // A leaver that already crashed (or left) is a no-op; only
            // a handoff that lost the sole replica is terminal.
            if let Err(FsError::DataLoss(b)) = cluster.graceful_leave(n, Some(run)) {
                run.abort(JobError::DataLoss(b));
            }
        }
    }

    /// Charge a non-speculative failure to `tid` and queue its
    /// re-execution.
    fn requeue_failed(&self, tid: usize) {
        self.run.failures[tid].fetch_add(1, Ordering::AcqRel);
        self.run.retry.lock().push(tid);
    }

    /// Claim and execute one attempt of `tid` as `node`. A shipped
    /// attempt is parked in `pending` — its acks ride alongside the
    /// next attempt's map work — and the previously parked attempt is
    /// settled here, after a whole attempt's worth of overlap.
    fn run_attempt(&mut self, tid: usize, node: NodeId, speculative: bool) {
        let run = self.run;
        if run.commits[tid].load(Ordering::Acquire) != UNCOMMITTED {
            return; // an earlier attempt already won
        }
        if run.node_down(node) {
            // The node crashed between choosing and executing; hand the
            // task back (the loop re-homes before the next pop). A
            // backup is just dropped — its primary is still in flight.
            if !speculative {
                run.retry.lock().push(tid);
            }
            return;
        }
        // Retry budget: only *failed* non-speculative attempts count.
        // Attempt numbers alone can't gate — a backup inflates them
        // without a single failure.
        if !speculative && run.failures[tid].load(Ordering::Acquire) >= MAX_ATTEMPTS {
            let attempts = run.next_attempt[tid].load(Ordering::Acquire);
            run.abort(JobError::TaskFailed { task: tid, attempts });
            return;
        }
        let attempt = run.next_attempt[tid].fetch_add(1, Ordering::AcqRel);
        if attempt > 0 && !speculative {
            run.tally.retries.fetch_add(1, Ordering::Relaxed);
            // Exponential backoff before re-execution: deterministic in
            // the attempt number, never in wall time.
            std::thread::sleep(Duration::from_micros(RETRY_BACKOFF_BASE_MICROS << attempt.min(6)));
        }
        run.tally.attempts.fetch_add(1, Ordering::Relaxed);
        if speculative {
            run.tally.speculative_attempts.fetch_add(1, Ordering::Relaxed);
        } else {
            // The claim drives crash re-queueing and straggler
            // avoidance; a backup must not overwrite the primary's.
            run.claims[tid].store(node.index() as u32, Ordering::Release);
        }
        let started = Instant::now();
        let running = run.running.get(node.index());
        if let Some(r) = running {
            r.fetch_add(1, Ordering::AcqRel);
        }
        let exec = std::panic::AssertUnwindSafe(|| self.exec(tid, attempt, node));
        let outcome = std::panic::catch_unwind(exec);
        if let Some(r) = running {
            r.fetch_sub(1, Ordering::AcqRel);
        }
        let att = match outcome {
            Ok(Ok(att)) => att,
            // A backup failing to read its block is not terminal — the
            // primary (or a real retry) still owns the task.
            Ok(Err(e)) => {
                self.discard();
                if !speculative {
                    run.abort(e);
                }
                return;
            }
            // A panic inside map/combine: bounded retry. Any in-flight
            // tickets died with the unwind; their window slots expire.
            Err(_) => {
                self.discard();
                if !speculative {
                    self.requeue_failed(tid);
                }
                return;
            }
        };
        let ended = att.ended();
        let Shipping { shuffle, cache, .. } = att;
        if let Attempt::Shipped = ended {
            // Park this attempt; settle the one whose acks just had a
            // whole map attempt to arrive.
            let parked =
                PendingCommit { tid, attempt, node, shuffle, cache, speculative, started };
            if let Some(prev) = self.pending.replace(parked) {
                self.settle(prev);
            }
            return;
        }
        // Not committing: redeem the window slots — outcomes are
        // irrelevant, reducer dedup drops the partial output.
        redeem(self.cluster, &shuffle, &cache);
        self.discard();
        match ended {
            // Another attempt committed while this one mapped: no
            // retry, no failure charged.
            Attempt::Cancelled => {
                run.tally.cancelled_attempts.fetch_add(1, Ordering::Relaxed);
            }
            // Our own crash voided the attempt, or an injected fault /
            // lost batch consumed it; survivors re-execute.
            _ if !speculative => self.requeue_failed(tid),
            _ => {}
        }
    }
}

/// Partition hash for intermediate keys, executor-internal: FNV-1a with
/// a murmur3 finalizer.
///
/// The ring hash ([`HashKey::of_name`]) is engineered for placement
/// quality and costs far too much to run once per mapped record — it
/// dominated the map phase's profile. Reduce partitions are plain
/// channel indices in the live executor, so all the shuffle needs is a
/// fast, deterministic, well-mixed 64-bit hash. Its top bits feed
/// `SpillBuffer::partition_of`'s multiply-shift and its low bits pick a
/// combining table's slot, so both ends must avalanche. (A plain
/// multiply hash such as `FxHasher` leaves the low bits of a short key
/// to its first few bytes, and the tables' probes collide.) No random
/// state: a replayed seed hashes the same. Unkeyed, so crafted keys
/// could collide, but a table never outgrows one spill's bytes.
#[inline]
fn shuffle_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^ (h >> 33)
}

/// A worker's map output buffered since each partition's last spill.
enum Buffered {
    /// An app without a combiner: one byte arena per partition.
    Records(Vec<Arena>),
    /// A combiner app: one combining table per partition (the in-mapper
    /// combiner).
    Combined(Vec<Table>),
}

impl Buffered {
    /// Buffer one emitted pair, whose key hashes to `hash`, for
    /// partition `p`.
    #[inline]
    fn add(&mut self, app: &dyn MapReduce, p: usize, hash: u64, k: &str, v: &str) {
        match self {
            Buffered::Records(arenas) => {
                arenas[p].push(k.as_bytes(), v.as_bytes());
            }
            Buffered::Combined(tables) => tables[p].fold(app, hash, k, v),
        }
    }

    /// Partition `p`'s buffered output as a key-sorted run, leaving the
    /// partition empty (its allocations kept for the next spill).
    fn take(&mut self, app: &dyn MapReduce, p: usize) -> RecordRun {
        match self {
            Buffered::Records(arenas) => arenas[p].drain(),
            Buffered::Combined(tables) => tables[p].drain(app),
        }
    }

    fn clear(&mut self) {
        match self {
            Buffered::Records(arenas) => arenas.iter_mut().for_each(Arena::clear),
            Buffered::Combined(tables) => tables.iter_mut().for_each(Table::clear),
        }
    }
}

/// An arena offset or length as stored in an [`Entry`]. The arena's end
/// is checked through here after every append, so every offset sum
/// below it fits too.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a spill arena stays below 4 GiB")
}

/// One partition's emitted pairs since its last spill: every key and
/// value byte back to back in one buffer, plus one entry per pair.
/// Appending a pair copies its bytes and allocates nothing per record.
#[derive(Default)]
struct Arena {
    bytes: Vec<u8>,
    entries: Vec<Entry>,
}

/// Where one pair sits in its arena: the key at `start`, its value right
/// after it. `prefix` holds the key's first eight bytes big-endian
/// (zero-padded), so most comparisons in the spill sort never touch the
/// arena.
#[derive(Clone, Copy)]
struct Entry {
    prefix: u64,
    start: u32,
    key_len: u32,
    value_len: u32,
}

impl Arena {
    /// Append one pair; returns its entry's index.
    #[inline]
    fn push(&mut self, key: &[u8], value: &[u8]) -> usize {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
        self.bytes.extend_from_slice(value);
        narrow(self.bytes.len());
        let mut prefix = [0u8; 8];
        let n = key.len().min(8);
        prefix[..n].copy_from_slice(&key[..n]);
        self.entries.push(Entry {
            prefix: u64::from_be_bytes(prefix),
            start: start as u32,
            key_len: key.len() as u32,
            value_len: value.len() as u32,
        });
        self.entries.len() - 1
    }

    #[inline]
    fn key(&self, e: Entry) -> &[u8] {
        &self.bytes[e.start as usize..(e.start + e.key_len) as usize]
    }

    /// Sort the entries by key — stably: equal keys keep emit order,
    /// which the arena offsets record — and hand each pair to `emit` in
    /// that order, leaving the arena empty.
    fn drain_sorted(&mut self, mut emit: impl FnMut(&[u8], &[u8])) {
        let bytes = &self.bytes;
        let key = |e: &Entry| &bytes[e.start as usize..(e.start + e.key_len) as usize];
        self.entries.sort_unstable_by(|a, b| {
            a.prefix.cmp(&b.prefix).then_with(|| key(a).cmp(key(b))).then(a.start.cmp(&b.start))
        });
        for e in &self.entries {
            let value_at = (e.start + e.key_len) as usize;
            emit(key(e), &bytes[value_at..value_at + e.value_len as usize]);
        }
        self.clear();
    }

    /// The arena's pairs as one key-sorted run.
    fn drain(&mut self) -> RecordRun {
        let mut run = RunBuilder::with_capacity(self.bytes.len() + 3 * self.entries.len());
        self.drain_sorted(|k, v| run.push(k, v));
        run.finish()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.entries.clear();
    }
}

/// A combiner app's output for one partition since its last spill: one
/// arena entry per distinct key — the key's bytes, then its accumulator
/// (the app's own bytes, see [`MapReduce::combine_first`]) — found by
/// linear probing on the key's shuffle hash. A key new to the spill is
/// one arena append; a repeated one folds in place. A spill sorts the
/// entries as an app without a combiner's arena does and writes each
/// accumulator out once, through [`MapReduce::combine_finish`].
#[derive(Default)]
struct Table {
    arena: Arena,
    /// The probe index over `arena.entries`: a power of two long, at
    /// most half full.
    slots: Vec<Slot>,
    /// Scratch the app's accumulator methods work on.
    acc: Vec<u8>,
}

/// One slot of a [`Table`]'s index.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The key's shuffle hash: a probe compares it before any key byte,
    /// and growth re-places the slot by it.
    hash: u64,
    /// The arena entry plus one; 0 marks an empty slot.
    entry: u32,
    /// Arena bytes reserved after the key for its accumulator. A fold
    /// that fits stays in place; a longer one moves the pair to the
    /// arena's end with room to double.
    room: u32,
}

/// A table's index starts at this many slots.
const MIN_SLOTS: usize = 16;

impl Table {
    /// Fold one emitted pair whose key hashes to `hash`.
    #[inline]
    fn fold(&mut self, app: &dyn MapReduce, hash: u64, key: &str, value: &str) {
        if 2 * (self.arena.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.entry == 0 {
                self.acc.clear();
                app.combine_first(key, value, &mut self.acc);
                let entry = self.arena.push(key.as_bytes(), &self.acc);
                let room = self.acc.len() as u32;
                self.slots[i] = Slot { hash, entry: narrow(entry + 1), room };
                return;
            }
            let ix = slot.entry as usize - 1;
            if slot.hash == hash && self.arena.key(self.arena.entries[ix]) == key.as_bytes() {
                self.fold_at(app, i, key, value);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Fold `value` into the accumulator of the key in slot `i`.
    #[inline]
    fn fold_at(&mut self, app: &dyn MapReduce, i: usize, key: &str, value: &str) {
        let slot = self.slots[i];
        let ix = slot.entry as usize - 1;
        let e = self.arena.entries[ix];
        let at = (e.start + e.key_len) as usize;
        let acc = &mut self.acc;
        acc.clear();
        acc.extend_from_slice(&self.arena.bytes[at..at + e.value_len as usize]);
        app.combine_into(key, acc, value);
        let len = acc.len();
        if len <= slot.room as usize {
            self.arena.bytes[at..at + len].copy_from_slice(acc);
        } else {
            let bytes = &mut self.arena.bytes;
            let room = len.max(2 * slot.room as usize);
            let start = bytes.len();
            bytes.extend_from_slice(key.as_bytes());
            bytes.extend_from_slice(acc);
            bytes.resize(start + key.len() + room, 0);
            narrow(bytes.len());
            self.arena.entries[ix].start = start as u32;
            self.slots[i].room = room as u32;
        }
        self.arena.entries[ix].value_len = len as u32;
    }

    /// Double the index (or start it) and re-place every slot by its
    /// hash.
    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        for slot in old.into_iter().filter(|s| s.entry != 0) {
            let mut i = slot.hash as usize & (len - 1);
            while self.slots[i].entry != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = slot;
        }
    }

    /// The table as a key-sorted run, one record per key, leaving it
    /// empty (its allocations kept for the next spill).
    fn drain(&mut self, app: &dyn MapReduce) -> RecordRun {
        let arena = &mut self.arena;
        let mut run = RunBuilder::with_capacity(arena.bytes.len() + 3 * arena.entries.len());
        let mut finished = String::new();
        arena.drain_sorted(|key, acc| {
            let key = std::str::from_utf8(key).expect("a table's keys are copied from a str");
            finished.clear();
            app.combine_finish(key, acc, &mut finished);
            run.push(key.as_bytes(), finished.as_bytes());
        });
        self.slots.fill(Slot::default());
        run.finish()
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.slots.fill(Slot::default());
    }
}

/// Redeem the window slots of an attempt that will not commit, whatever
/// the outcome — reducer dedup drops its partial output.
fn redeem(cluster: &LiveCluster, shuffle: &[(SendTicket, usize)], cache: &[SendTicket]) {
    for (ticket, _) in shuffle {
        let _ = cluster.net.flush(std::slice::from_ref(ticket));
    }
    let _ = cluster.net.flush(cache);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Signed decimal sum through the default accumulator adapters: the
    /// accumulator is the value's text, so a fold can grow it
    /// (`"9"` + `"1"` = `"10"`) or shrink it (`"100"` + `"-99"` = `"1"`).
    struct Sum;

    impl MapReduce for Sum {
        fn map(&self, _block: &[u8], _emit: &mut dyn FnMut(String, String)) {}
        fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
            let total: i64 = values.iter().map(|v| v.parse::<i64>().expect("a decimal")).sum();
            emit(key.to_string(), total.to_string());
        }
        fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
            self.reduce(key, values, emit);
        }
        fn has_combiner(&self) -> bool {
            true
        }
    }

    /// Fold `pairs` into `table`, each key under `hash(key)`, and return
    /// what a `BTreeMap` model that folds each key's values with
    /// `combine` pairwise says the next spill must hold.
    fn fold_all(table: &mut Table, pairs: &[(&str, &str)], hash: impl Fn(&str) -> u64) -> Model {
        let mut model = BTreeMap::new();
        for &(k, v) in pairs {
            table.fold(&Sum, hash(k), k, v);
            let folded = match model.remove(k) {
                None => v.to_string(),
                Some(partial) => {
                    let mut out = Vec::new();
                    Sum.combine(k, &[partial, v.to_string()], &mut |_, v| out.push(v));
                    out.pop().expect("one value")
                }
            };
            model.insert(k.to_string(), folded);
        }
        model
    }

    type Model = BTreeMap<String, String>;

    /// Drain `table` and check the run against `model`, and that the
    /// table is left empty.
    fn spill_matches(table: &mut Table, model: Model) {
        let want: Vec<(String, String)> = model.into_iter().collect();
        assert_eq!(table.drain(&Sum).to_pairs(), want);
        assert!(table.arena.bytes.is_empty() && table.arena.entries.is_empty());
        assert!(table.slots.iter().all(|s| s.entry == 0));
    }

    fn hashed(k: &str) -> u64 {
        shuffle_hash(k.as_bytes())
    }

    /// The hash is FNV-1a with a murmur3 finalizer, bit for bit: the
    /// partition every key lands in is unchanged.
    #[test]
    fn shuffle_hash_is_pinned() {
        assert_eq!(shuffle_hash(b""), 0xefd01f60ba992926);
        assert_eq!(shuffle_hash(b"the"), 0xcb3ff435b889fb31);
        assert_eq!(shuffle_hash("abcdefgh\u{e9}".as_bytes()), 0xacdf4cbc45d485ee);
    }

    #[test]
    fn table_with_every_key_colliding() {
        let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
        let values = ["1", "2", "3"];
        let pairs: Vec<(&str, &str)> =
            values.iter().flat_map(|v| keys.iter().map(move |k| (k.as_str(), *v))).collect();
        let mut table = Table::default();
        let model = fold_all(&mut table, &pairs, |_| 42);
        assert_eq!(table.arena.entries.len(), 100);
        spill_matches(&mut table, model);
    }

    #[test]
    fn table_grows_across_several_doublings() {
        let keys: Vec<String> = (0..1000).map(|i| format!("w{}", i * 7919)).collect();
        let pairs: Vec<(&str, &str)> =
            keys.iter().chain(keys.iter().step_by(3)).map(|k| (k.as_str(), "1")).collect();
        let mut table = Table::default();
        let model = fold_all(&mut table, &pairs, hashed);
        assert_eq!(table.slots.len(), 2048, "16 slots doubled seven times");
        spill_matches(&mut table, model);
    }

    #[test]
    fn default_accumulators_grow_and_shrink() {
        let pairs = [
            ("a", "9"),
            ("b", "100"),
            ("a", "1"),
            ("b", "-99"),
            ("c", "5"),
            ("a", "90"),
            ("a", "900"),
            ("b", "99998"),
            ("a", "-999"),
            ("c", "-5"),
            ("a", "123456789"),
            ("b", "-99999"),
        ];
        let mut table = Table::default();
        let model = fold_all(&mut table, &pairs[..3], hashed);
        assert_eq!(model["a"], "10");
        spill_matches(&mut table, model);
        let model = fold_all(&mut table, &pairs, hashed);
        assert_eq!((model["a"].as_str(), model["b"].as_str()), ("123456790", "0"));
        spill_matches(&mut table, model);
    }

    #[test]
    fn table_keeps_the_empty_key() {
        let pairs = [("", "1"), ("x", "1"), ("", "2"), ("", "")];
        let mut table = Table::default();
        let model = fold_all(&mut table, &pairs[..3], hashed);
        assert_eq!(model[""], "3");
        spill_matches(&mut table, model);
        // An empty value starts an empty accumulator, shipped as is.
        let model = fold_all(&mut table, &pairs[3..], hashed);
        assert_eq!(model[""], "");
        spill_matches(&mut table, model);
    }

    #[test]
    fn keys_sharing_their_first_eight_bytes_sort_by_the_rest() {
        let keys = ["abcdefgh", "abcdefghi", "abcdefgh\u{e9}", "abcdefgg", "abcdefghh", "abcdefg"];
        let pairs: Vec<(&str, &str)> =
            keys.iter().chain(keys.iter().rev()).map(|k| (*k, "2")).collect();
        let mut table = Table::default();
        let model = fold_all(&mut table, &pairs, hashed);
        spill_matches(&mut table, model);
    }

    #[test]
    fn a_drained_or_cleared_table_spills_again() {
        let first = [("x", "1"), ("y", "2"), ("x", "3")];
        let second = [("y", "5"), ("z", "1"), ("y", "-1"), ("x", "7")];
        let mut table = Table::default();
        let model = fold_all(&mut table, &first, hashed);
        spill_matches(&mut table, model);
        let model = fold_all(&mut table, &second, hashed);
        spill_matches(&mut table, model);
        // A discarded attempt clears instead of draining.
        fold_all(&mut table, &first, hashed);
        table.clear();
        let model = fold_all(&mut table, &second, hashed);
        spill_matches(&mut table, model);
    }
}
