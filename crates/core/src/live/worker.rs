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
    Accumulator, DstEvent, LiveCluster, MapReduce, MAX_ATTEMPTS, RETRY_BACKOFF_BASE_MICROS,
    SLOW_SEND_DIV, SLOW_SLICE_MICROS,
};
use crate::job::JobError;
use crate::shuffle::SpillBuffer;
use bytes::Bytes;
use eclipse_cache::CacheKey;
use eclipse_dhtfs::FsError;
use eclipse_net::{key_prefix, RecordRun, Rpc, RunBuilder, SendTicket, CLIENT};
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

/// Partition hash for intermediate keys, executor-internal: the key's
/// length, then its 8-byte words, each folded in with a rotate, an xor
/// and a multiply, and a murmur3 finalizer. The words are big-endian
/// and the last is zero-padded: each is read as [`key_prefix`] reads a
/// key, with fixed-size loads, so a key costs one multiply per eight
/// bytes rather than one per byte.
///
/// The ring hash ([`HashKey::of_name`]) is engineered for placement
/// quality and costs far too much to run once per mapped record — it
/// dominated the map phase's profile. Reduce partitions are plain
/// channel indices in the live executor, so all the shuffle needs is a
/// fast, deterministic, well-mixed 64-bit hash. Its top bits feed
/// `SpillBuffer::partition_of`'s multiply-shift and its low bits pick a
/// combining table's slot, so both ends must avalanche: the finalizer
/// sees to that. (A plain multiply hash such as `FxHasher` leaves the
/// low bits of a short key to its first few bytes, and the tables'
/// probes collide.) Keys of one length that fit a word never collide:
/// each step is a bijection of the word. No random state: a replayed
/// seed hashes the same. Unkeyed, so crafted keys could collide, but a
/// table never outgrows one spill's bytes.
#[inline]
pub(super) fn shuffle_hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325 ^ key.len() as u64;
    let mut rest = key;
    loop {
        h = (h.rotate_left(23) ^ key_prefix(rest)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        match rest.get(8..) {
            Some(tail) if !tail.is_empty() => rest = tail,
            _ => break,
        }
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
#[derive(Clone, Copy, Default)]
struct Entry {
    prefix: u64,
    start: u32,
    key_len: u32,
    value_len: u32,
}

impl Entry {
    /// Where the entry's key and value sit in its arena's bytes.
    #[inline]
    fn spans(&self) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (start, value_at) = (self.start as usize, (self.start + self.key_len) as usize);
        (start..value_at, value_at..value_at + self.value_len as usize)
    }
}

impl Arena {
    /// Append one pair; returns its entry's index.
    #[inline]
    fn push(&mut self, key: &[u8], value: &[u8]) -> usize {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
        self.bytes.extend_from_slice(value);
        narrow(self.bytes.len());
        self.entries.push(Entry {
            prefix: key_prefix(key),
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
    ///
    /// A large spill radix-sorts the prefixes, then orders each run of
    /// equal prefixes, which is usually sorted already. Equal prefixes
    /// with a key of at most eight bytes need no key bytes: that key is
    /// then a prefix of the other (its zero padding matches the other's
    /// bytes), so the shorter one sorts first and equal lengths mean
    /// equal keys. Only two longer keys compare their bytes past the
    /// prefix.
    fn drain_sorted(&mut self, mut emit: impl FnMut(&[u8], &[u8])) {
        self.sort();
        for e in &self.entries {
            let (key, value) = e.spans();
            emit(&self.bytes[key], &self.bytes[value]);
        }
        self.clear();
    }

    fn sort(&mut self) {
        if self.entries.len() < RADIX_MIN {
            sort_by_comparison(&self.bytes, &mut self.entries);
        } else {
            sort_by_radix(&self.bytes, &mut self.entries);
        }
    }

    /// The arena's pairs as one key-sorted run, leaving the arena empty.
    /// Every pair was pushed from `&str`s, so the arena's bytes are
    /// UTF-8 as a whole: one check here makes every key and value a
    /// slice of them.
    fn drain(&mut self) -> RecordRun {
        self.sort();
        let text = std::str::from_utf8(&self.bytes).expect("a record arena holds the strs pushed");
        let mut run = RunBuilder::with_capacity(self.entries.len(), self.bytes.len());
        for group in self.entries.chunk_by(|a, b| same_key(&self.bytes, a, b)) {
            let (key, value) = group[0].spans();
            run.push(&text[key], &text[value]);
            for e in &group[1..] {
                run.push_repeat(&text[e.spans().1]);
            }
        }
        self.clear();
        run.finish()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.entries.clear();
    }
}


/// The order of two entries of `bytes` with equal prefixes: by key,
/// then emit order (`start`).
#[inline]
fn within_prefix(bytes: &[u8], a: &Entry, b: &Entry) -> std::cmp::Ordering {
    let tail = |e: &Entry| &bytes[e.start as usize + 8..(e.start + e.key_len) as usize];
    if a.key_len.min(b.key_len) <= 8 {
        a.key_len.cmp(&b.key_len)
    } else {
        tail(a).cmp(tail(b))
    }
    .then(a.start.cmp(&b.start))
}

/// Do entries `a` and `b` of `bytes` hold the same key? Equal prefixes
/// and lengths settle it for a key of at most eight bytes.
#[inline]
fn same_key(bytes: &[u8], a: &Entry, b: &Entry) -> bool {
    let tail = |e: &Entry| &bytes[e.start as usize + 8..(e.start + e.key_len) as usize];
    a.prefix == b.prefix && a.key_len == b.key_len && (a.key_len <= 8 || tail(a) == tail(b))
}

/// Sort `entries` of `bytes` by key, then emit order, comparing
/// prefixes first.
fn sort_by_comparison(bytes: &[u8], entries: &mut [Entry]) {
    entries.sort_unstable_by(|a, b| {
        a.prefix.cmp(&b.prefix).then_with(|| within_prefix(bytes, a, b))
    });
}

/// [`sort_by_comparison`]'s order: radix-sort the prefixes, then order
/// each run of equal prefixes, which is usually sorted already.
fn sort_by_radix(bytes: &[u8], entries: &mut Vec<Entry>) {
    radix_sort_by_prefix(entries);
    for run in entries.chunk_by_mut(|a, b| a.prefix == b.prefix) {
        if !run.is_sorted_by(|a, b| within_prefix(bytes, a, b).is_le()) {
            run.sort_unstable_by(|a, b| within_prefix(bytes, a, b));
        }
    }
}

/// Spills of fewer entries sort by comparison alone; from this many on,
/// a radix sort of the prefixes costs less. Measured by
/// `spill_sort_timing` (2-CPU host, five runs): comparison was cheaper
/// at every size up to 384 entries, including a word count's ~250-key
/// combined spill, the two split at 512, and radix was cheaper at 768
/// and above (25–34 against 52–77 ns per entry at ~4,000).
const RADIX_MIN: usize = 768;

/// Stable LSD radix sort of `entries` by prefix, one byte per pass. A
/// pass whose byte is the same in every entry is skipped: short keys
/// leave their low bytes zero, and text shares its first letters.
fn radix_sort_by_prefix(entries: &mut Vec<Entry>) {
    let n = entries.len();
    let mut counts = [[0usize; 256]; 8];
    for e in entries.iter() {
        for (d, c) in counts.iter_mut().enumerate() {
            c[(e.prefix >> (8 * d)) as u8 as usize] += 1;
        }
    }
    let mut spare = vec![Entry::default(); n];
    for (d, c) in counts.iter_mut().enumerate() {
        if c.contains(&n) {
            continue;
        }
        let mut sum = 0;
        for count in c.iter_mut() {
            sum += std::mem::replace(count, sum);
        }
        for e in entries.iter() {
            let slot = &mut c[(e.prefix >> (8 * d)) as u8 as usize];
            spare[*slot] = *e;
            *slot += 1;
        }
        std::mem::swap(entries, &mut spare);
    }
}

/// One partition's combined values: one arena entry per distinct key —
/// the key's bytes, then its accumulator (the app's own bytes, see
/// [`MapReduce::combine_first`]) — found by linear probing on the key's
/// shuffle hash. A key new to the table is one arena append; a repeated
/// one folds into its accumulator where it sits
/// ([`MapReduce::combine_into`] through an [`Accumulator`]). A drain
/// sorts the entries as an app without a combiner's arena does and
/// finishes each accumulator once, through
/// [`MapReduce::combine_finish`].
///
/// A combiner app's map worker keeps one per partition between spills
/// (the in-mapper combiner); a reduce partition that receives several
/// runs folds them through one (see `run.rs`).
#[derive(Default)]
pub(super) struct Table {
    arena: Arena,
    /// The probe index over `arena.entries`: a power of two long, at
    /// most half full.
    slots: Vec<Slot>,
    /// Scratch [`MapReduce::combine_first`] starts a new key's
    /// accumulator in.
    acc: Vec<u8>,
}

/// One slot of a [`Table`]'s index.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The key's shuffle hash: a probe compares it before the entry's
    /// prefix and length, and growth re-places the slot by it.
    hash: u64,
    /// The arena entry plus one; 0 marks an empty slot.
    entry: u32,
    /// Arena bytes reserved after the key for its accumulator (see
    /// [`Accumulator::set`]).
    room: u32,
}

/// A table's index starts at this many slots.
const MIN_SLOTS: usize = 16;

impl Table {
    /// Fold one pair whose key hashes to `hash`.
    #[inline]
    pub(super) fn fold(&mut self, app: &dyn MapReduce, hash: u64, key: &str, value: &str) {
        if 2 * (self.arena.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let prefix = key_prefix(key.as_bytes());
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
            if slot.hash == hash && self.holds(slot, key.as_bytes(), prefix) {
                self.fold_at(app, i, key, value);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `slot`'s entry holds `key`, whose prefix is `prefix`. The
    /// stored prefix and length decide a key of at most eight bytes;
    /// only a longer one compares the bytes past its prefix.
    #[inline]
    fn holds(&self, slot: Slot, key: &[u8], prefix: u64) -> bool {
        let e = self.arena.entries[slot.entry as usize - 1];
        e.prefix == prefix
            && e.key_len as usize == key.len()
            && (key.len() <= 8 || self.arena.key(e)[8..] == key[8..])
    }

    /// Fold `value` into the accumulator of the key in slot `i`, where
    /// it sits in the arena.
    #[inline]
    fn fold_at(&mut self, app: &dyn MapReduce, i: usize, key: &str, value: &str) {
        let slot = &mut self.slots[i];
        let e = &mut self.arena.entries[slot.entry as usize - 1];
        let key_len = e.key_len as usize;
        let mut acc = Accumulator {
            buf: &mut self.arena.bytes,
            at: e.start as usize + key_len,
            len: e.value_len as usize,
            room: slot.room as usize,
            key_len,
        };
        app.combine_into(key, &mut acc, value);
        let Accumulator { at, len, room, .. } = acc;
        narrow(self.arena.bytes.len());
        e.start = (at - key_len) as u32;
        e.value_len = len as u32;
        slot.room = room as u32;
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

    /// Hand `f` each key with its finished value, in key order, leaving
    /// the table empty (its allocations kept for the next fold).
    pub(super) fn drain_with(&mut self, app: &dyn MapReduce, mut f: impl FnMut(&str, &str)) {
        let mut finished = String::new();
        self.arena.drain_sorted(|key, acc| {
            let key = std::str::from_utf8(key).expect("a table's keys are copied from a str");
            finished.clear();
            app.combine_finish(key, acc, &mut finished);
            f(key, &finished);
        });
        self.slots.fill(Slot::default());
    }

    /// The table as a key-sorted run, one record per key.
    fn drain(&mut self, app: &dyn MapReduce) -> RecordRun {
        let arena = &self.arena;
        let mut run = RunBuilder::with_capacity(arena.entries.len(), arena.bytes.len());
        self.drain_with(app, |key, value| run.push(key, value));
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
    use crate::testkit::Sum;
    use std::collections::BTreeMap;

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

    /// The hash, bit for bit, on an empty key, a short one, one word
    /// and a word plus a tail: the partition every key lands in only
    /// moves when this test is re-pinned.
    #[test]
    fn shuffle_hash_is_pinned() {
        let got = [b"".as_slice(), b"the", b"abcdefgh", "abcdefgh\u{e9}".as_bytes()].map(shuffle_hash);
        let want = [0xc39ba6ce0c13aa3f, 0x185a6083098c25c3, 0x8536c45df943700e, 0xcd09d1ae7327e089];
        assert_eq!(got, want, "{got:x?}");
    }

    /// The benchmark corpora's `w%05d` vocabularies, 2,000 and 50,000
    /// words, spread evenly over 8 partitions (each within four standard
    /// deviations of a uniform draw), and a combining table of either
    /// keeps its probe runs short: the mean distance of a key from its
    /// home slot is under one slot, and the longest run under 48.
    #[test]
    fn word_vocabularies_spread_evenly_and_probe_short() {
        for words in [2_000usize, 50_000] {
            let vocab: Vec<String> = (0..words).map(|i| format!("w{i:05}")).collect();
            let mut parts = [0usize; 8];
            for w in &vocab {
                parts[((hashed(w) as u128 * 8) >> 64) as usize] += 1;
            }
            let mean = words as f64 / 8.0;
            let bound = 4.0 * (mean * 7.0 / 8.0).sqrt();
            for n in parts {
                assert!((n as f64 - mean).abs() < bound, "{words} words: {parts:?}");
            }
            let mut table = Table::default();
            for w in &vocab {
                table.fold(&Sum, hashed(w), w, "1");
            }
            let mask = table.slots.len() - 1;
            let distances: Vec<usize> = (0..table.slots.len())
                .filter(|&i| table.slots[i].entry != 0)
                .map(|i| i.wrapping_sub(table.slots[i].hash as usize) & mask)
                .collect();
            assert_eq!(distances.len(), words);
            let mean = distances.iter().sum::<usize>() as f64 / words as f64;
            let longest = distances.iter().max().copied().unwrap_or(0);
            assert!(mean < 1.0 && longest < 48, "{words} words: mean {mean}, longest {longest}");
        }
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

    /// Inside one spill, an accumulator that outgrows its room while
    /// another key follows it in the arena moves to the arena's end with
    /// room to double; once a key follows it there too, a shorter value
    /// and then one that fits its room again rewrite it where it sits.
    #[test]
    fn an_accumulator_outgrows_its_room_then_shrinks_in_place() {
        let mut table = Table::default();
        let at = |t: &Table, k: &str| {
            let e = t.arena.entries.iter().find(|e| t.arena.key(**e) == k.as_bytes()).copied();
            let e = e.expect("a key in the table");
            (e.start, e.value_len)
        };
        let mut model = fold_all(&mut table, &[("a", "9"), ("b", "1")], hashed);
        let (first, _) = at(&table, "a");
        model.extend(fold_all(&mut table, &[("a", "1")], hashed));
        let (moved, len) = at(&table, "a");
        assert!(moved > first, "\"10\" outgrew the one byte \"9\" left it");
        assert_eq!(len, 2);
        fold_all(&mut table, &[("c", "1")], hashed);
        let end = table.arena.bytes.len();
        for (v, want, len) in [("-5", "5", 1), ("5", "10", 2)] {
            fold_all(&mut table, &[("a", v)], hashed);
            assert_eq!(at(&table, "a"), (moved, len), "folding {v} moved the accumulator");
            assert_eq!(table.arena.bytes.len(), end, "folding {v} appended to the arena");
            model.insert("a".to_string(), want.to_string());
        }
        model.insert("c".to_string(), "1".to_string());
        spill_matches(&mut table, model);
    }

    /// An accumulator over a whole `Vec` is the `Vec`: a set of any
    /// length resizes it.
    #[test]
    fn a_vec_accumulator_resizes_with_every_set() {
        let mut buf = b"12".to_vec();
        let mut acc = Accumulator::of(&mut buf);
        acc.get_mut()[0] = b'3';
        assert_eq!(acc.get(), b"32");
        acc.set(b"12345");
        assert_eq!(acc.get(), b"12345");
        acc.set(b"");
        assert_eq!(acc.get(), b"");
        acc.set(b"7");
        assert_eq!(buf, b"7");
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

    /// Keys the eight-byte prefix cannot tell apart — trailing NULs
    /// look like its zero padding, 8- and 9-byte keys share it — leave
    /// the spill in byte order, with equal keys in emit order. Checked
    /// below and above [`RADIX_MIN`], so through both sorts.
    #[test]
    fn keys_equal_in_their_padded_prefix_sort_by_length_then_emit_order() {
        let short = ["a\0", "a", "a\0\0", "", "a\0", "a", "b"];
        let long =
            ["abcdefgh\0", "abcdefgh", "abcdefghij", "abcdefgh", "abcdefgh\u{e9}", "abcdefghi"];
        let keys = [&short[..], &long[..]].concat();
        for copies in [1, RADIX_MIN / keys.len() + 1] {
            let n = keys.len() * copies;
            // Emit order: a fixed permutation of the copies (7 is
            // coprime to every `n` here).
            let emitted: Vec<(&str, String)> =
                (0..n).map(|i| (keys[i * 7 % n % keys.len()], i.to_string())).collect();
            let mut arena = Arena::default();
            for (k, v) in &emitted {
                arena.push(k.as_bytes(), v.as_bytes());
            }
            let mut got = Vec::new();
            arena.drain_sorted(|k, v| {
                got.push((k.to_vec(), String::from_utf8(v.to_vec()).unwrap()))
            });
            let mut want: Vec<(Vec<u8>, String)> =
                emitted.iter().map(|(k, v)| (k.as_bytes().to_vec(), v.clone())).collect();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(got, want, "{n} entries");
            assert!(arena.bytes.is_empty() && arena.entries.is_empty());
            // A spill into a run groups exactly the equal keys.
            for (k, v) in &emitted {
                arena.push(k.as_bytes(), v.as_bytes());
            }
            let want: Vec<(String, String)> =
                want.into_iter().map(|(k, v)| (String::from_utf8(k).unwrap(), v)).collect();
            assert_eq!(arena.drain(), eclipse_net::RecordRun::from_pairs(&want), "{n} entries");
        }
    }

    /// Per-record cost of each stage of the shuffle's record path for an
    /// app without a combiner: inverted-index pairs (word, doc id) from a
    /// Zipf corpus (50,000 words, 10 per line), in 8 partitions and
    /// 262,080-byte blocks as the executor cuts them. Each block spills
    /// every partition once into a run's columns (the arena pushes
    /// before it are not timed); each run is encoded into a frame body
    /// and decoded back, as a run bound for another node is; each
    /// partition merges one run per block. Prints the best of five
    /// passes, in ns per record, then the run section's bytes per record
    /// for these runs and for a word count's combined runs (a 2,000-word
    /// vocabulary, each block's distinct words with their counts per
    /// partition), so a change of wire size shows without a traced
    /// benchmark run:
    ///
    /// ```text
    /// cargo test --release -p eclipse-core --lib record_path_timing -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "a timing, not a check: run by hand in release"]
    fn record_path_timing() {
        use eclipse_net::wire::Writer;
        use eclipse_net::{merge_groups, RecordRun};
        use std::time::Instant;
        const PARTS: usize = 8;
        let text = eclipse_workloads::TextGen::new(50_000, 1.0, 10).generate_documents(42, 4 << 20);
        let blocks: Vec<&[u8]> = text.as_bytes().chunks(262_080).collect();
        let mut pairs = Vec::new();
        for block in &blocks {
            let mut block_pairs = Vec::new();
            for line in std::str::from_utf8(block).expect("ASCII corpus").lines() {
                let Some((doc, words)) = line.split_once('\t') else { continue };
                for w in words.split_whitespace() {
                    let h = shuffle_hash(w.as_bytes());
                    let p = ((h as u128 * PARTS as u128) >> 64) as usize;
                    block_pairs.push((p, w, doc));
                }
            }
            pairs.push(block_pairs);
        }
        let records: usize = pairs.iter().map(Vec::len).sum();
        let per = |t: Instant| t.elapsed().as_nanos() as f64 / records as f64;
        let mut best = [f64::MAX; 4];
        let mut wire_bytes = 0;
        for _ in 0..5 {
            let mut arenas: Vec<Arena> = (0..PARTS).map(|_| Arena::default()).collect();
            let mut spill = 0.0;
            let mut runs: Vec<Vec<RecordRun>> = vec![Vec::new(); PARTS];
            for block_pairs in &pairs {
                for &(p, k, v) in block_pairs {
                    arenas[p].push(k.as_bytes(), v.as_bytes());
                }
                let t = Instant::now();
                for (p, arena) in arenas.iter_mut().enumerate() {
                    runs[p].push(arena.drain());
                }
                spill += per(t);
            }
            let t = Instant::now();
            let bodies: Vec<Vec<u8>> = runs
                .iter()
                .flatten()
                .map(|r| {
                    let mut body = Vec::new();
                    r.encode(&mut Writer::new(&mut body));
                    body
                })
                .collect();
            let encode = per(t);
            wire_bytes = bodies.iter().map(Vec::len).sum::<usize>();
            let t = Instant::now();
            let decoded: Vec<RecordRun> = bodies
                .into_iter()
                .map(|body| RecordRun::from_body(body, 0).expect("a built run decodes"))
                .collect();
            let decode = per(t);
            assert_eq!(decoded.iter().map(RecordRun::len).sum::<usize>(), records);
            let t = Instant::now();
            let mut values = 0;
            for part in &runs {
                merge_groups(part, |_, vs| values += vs.len());
            }
            let merge = per(t);
            assert_eq!(values, records);
            for (b, v) in best.iter_mut().zip([spill, encode, decode, merge]) {
                *b = b.min(v);
            }
        }
        println!(
            "record path, ns/record over {records} records: spill into columns {:.1}, \
             encode {:.1}, from_body {:.1}, merge_groups {:.1}",
            best[0], best[1], best[2], best[3]
        );
        let (counted, counted_bytes) = combined_wire_bytes(PARTS);
        println!(
            "wire bytes/record: inverted index {:.2}, combined word count {:.2} \
             ({counted} records)",
            wire_bytes as f64 / records as f64,
            counted_bytes as f64 / counted as f64
        );
    }

    /// A word count's combined runs, encoded: each 262,080-byte block of
    /// a 2,000-word Zipf corpus (4 MiB) as one run per partition of its
    /// distinct words with their counts. Returns `(records, bytes)`.
    fn combined_wire_bytes(parts: usize) -> (usize, usize) {
        use eclipse_net::wire::Writer;
        use eclipse_net::RunBuilder;
        use std::collections::BTreeMap;
        let text = eclipse_workloads::TextGen::new(2_000, 1.0, 10).generate(42, 4 << 20);
        let (mut records, mut bytes) = (0, 0);
        for block in text.as_bytes().chunks(262_080) {
            let mut counts: Vec<BTreeMap<&str, u64>> = vec![BTreeMap::new(); parts];
            for w in std::str::from_utf8(block).expect("ASCII corpus").split_whitespace() {
                let p = ((shuffle_hash(w.as_bytes()) as u128 * parts as u128) >> 64) as usize;
                *counts[p].entry(w).or_default() += 1;
            }
            for part in counts {
                let mut b = RunBuilder::default();
                for (w, n) in part {
                    b.push(w, &n.to_string());
                }
                let run = b.finish();
                let mut body = Vec::new();
                run.encode(&mut Writer::new(&mut body));
                (records, bytes) = (records + run.len(), bytes + body.len());
            }
        }
        (records, bytes)
    }

    /// The spill sort alone, radix against comparison, at the spill
    /// sizes the benchmark's workloads produce from 262,080-byte blocks
    /// in 8 partitions: a word count's combined spill holds each
    /// distinct word of its partition once (a 2,000-word vocabulary:
    /// about 250 entries), an inverted index's spill every (word, doc)
    /// pair of its partition (about 4,000, mostly repeated keys).
    /// Prefixes of the inverted-index spills fill the sizes between.
    /// Prints ns per entry, best of five:
    ///
    /// ```text
    /// cargo test --release -p eclipse-core --lib spill_sort_timing -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "a timing, not a check: run by hand in release"]
    fn spill_sort_timing() {
        use eclipse_workloads::TextGen;
        use std::time::Instant;
        const PARTS: usize = 8;
        const BLOCK: usize = 262_080;
        let part = |w: &str| ((shuffle_hash(w.as_bytes()) as u128 * PARTS as u128) >> 64) as usize;
        let spills = || (0..PARTS).map(|_| Arena::default()).collect::<Vec<_>>();
        let mut combined = spills();
        let mut seen = std::collections::HashSet::new();
        for w in TextGen::new(2_000, 1.0, 10).generate(42, BLOCK).split_whitespace() {
            if seen.insert(w) {
                combined[part(w)].push(w.as_bytes(), b"1");
            }
        }
        let mut pairs = spills();
        for line in TextGen::new(50_000, 1.0, 10).generate_documents(42, BLOCK).lines() {
            let Some((doc, words)) = line.split_once('\t') else { continue };
            for w in words.split_whitespace() {
                pairs[part(w)].push(w.as_bytes(), doc.as_bytes());
            }
        }
        let cut = |n: usize| -> Vec<Arena> {
            pairs
                .iter()
                .map(|a| Arena { bytes: a.bytes.clone(), entries: a.entries[..n].to_vec() })
                .collect()
        };
        let mean = |s: &[Arena]| s.iter().map(|a| a.entries.len()).sum::<usize>() / s.len();
        let mut cases = vec![(format!("word count, {} distinct keys", mean(&combined)), combined)];
        for n in [16, 64, 128, 256, 384, 512, 768, 1024, 2048] {
            cases.push((format!("inverted index, first {n} pairs"), cut(n)));
        }
        cases.push((format!("inverted index, {} pairs", mean(&pairs)), pairs));
        for (label, case) in &cases {
            let total: usize = case.iter().map(|a| a.entries.len()).sum();
            let reps = (2_000_000 / total).max(1);
            let mut work = Vec::new();
            let mut best = [f64::MAX; 2];
            for _ in 0..5 {
                for (b, radix) in best.iter_mut().zip([false, true]) {
                    let t = Instant::now();
                    for _ in 0..reps {
                        for a in case {
                            work.clear();
                            work.extend_from_slice(&a.entries);
                            if radix {
                                sort_by_radix(&a.bytes, &mut work);
                            } else {
                                sort_by_comparison(&a.bytes, &mut work);
                            }
                            std::hint::black_box(&work);
                        }
                    }
                    *b = b.min(t.elapsed().as_nanos() as f64 / (reps * total) as f64);
                }
            }
            println!(
                "spill sort, {label}: comparison {:.1} ns/entry, radix {:.1} ns/entry",
                best[0], best[1]
            );
        }
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
