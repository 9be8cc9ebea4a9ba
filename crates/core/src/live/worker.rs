//! The map worker: the only implementation of a map attempt.
//!
//! A [`MapWorker`] is one thread's working state on one [`Run`]: a
//! node identity, a spill buffer, a combine scratch, and at most one
//! shipped-but-unsettled attempt. Whoever owns the thread — a scoped
//! one-shot worker, a persistent pool worker helping out, or a job
//! server driver mapping inline — calls [`MapWorker::work`] or
//! [`MapWorker::work_all`]; everything below those two is shared:
//! claim, read, map, combine, ship over the windowed lane, settle,
//! commit, re-home after a crash, drain retries and backups.
#![deny(clippy::too_many_lines)]

use super::run::{Run, UNCOMMITTED};
use super::{
    DstEvent, LiveCluster, MapReduce, MAX_ATTEMPTS, RETRY_BACKOFF_BASE_MICROS, SLOW_SEND_DIV,
    SLOW_SLICE_MICROS,
};
use crate::job::JobError;
use crate::shuffle::{Spill, SpillBuffer};
use bytes::Bytes;
use eclipse_cache::CacheKey;
use eclipse_dhtfs::FsError;
use eclipse_net::{Rpc, SendTicket, CLIENT};
use eclipse_ring::NodeId;
use eclipse_util::HashKey;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How one map attempt ended.
enum Attempt {
    /// Complete output shipped; eligible to commit.
    Shipped,
    /// The worker's node crashed mid-attempt: at least one send was
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
/// are tagged with, what went wrong so far, and the still-in-flight
/// windowed send tickets the deferred settle step must redeem.
struct Shipping {
    tid: usize,
    attempt: u32,
    /// Sequence number within this attempt, for at-least-once dedup at
    /// the receiver.
    seq: u32,
    /// Bytes emitted so far over the input size: the coarse progress
    /// estimate heartbeats carry to the straggler watch.
    emitted: u64,
    total: u64,
    /// "A crash loses in-flight messages": once this worker's node is
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
    fn new(tid: usize, attempt: u32) -> Shipping {
        Shipping {
            tid,
            attempt,
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
/// resources, not nodes: a worker starts under one virtual node's
/// identity but re-homes to a survivor when that node crashes (with
/// fewer cores than nodes a single thread already serves many virtual
/// nodes, so its exit would strand the whole job).
pub(crate) struct MapWorker<'a> {
    cluster: &'a LiveCluster,
    run: &'a Run,
    app: &'a dyn MapReduce,
    /// Position in the run's ring-ordered worker list: steal order and
    /// re-homing start here.
    wi: usize,
    me: NodeId,
    /// One spill buffer and one combine scratch per worker; the buffer
    /// is flushed at the end of every task so each batch carries
    /// exactly one `(task, attempt)` tag.
    buffer: SpillBuffer<(String, String)>,
    scratch: Vec<String>,
    /// The one parked (shipped, unsettled) attempt.
    pending: Option<PendingCommit>,
}

impl<'a> MapWorker<'a> {
    pub(crate) fn new(
        cluster: &'a LiveCluster,
        run: &'a Run,
        app: &'a dyn MapReduce,
        wi: usize,
        me: NodeId,
    ) -> MapWorker<'a> {
        let buffer = SpillBuffer::new(run.reducers, cluster.cfg.shuffle_batch_bytes);
        MapWorker { cluster, run, app, wi, me, buffer, scratch: Vec::new(), pending: None }
    }

    /// A worker at ring position `wi` (modulo the run's membership),
    /// under that member's identity.
    pub(crate) fn at(
        cluster: &'a LiveCluster,
        run: &'a Run,
        app: &'a dyn MapReduce,
        wi: usize,
    ) -> MapWorker<'a> {
        let wi = wi % run.workers.len();
        MapWorker::new(cluster, run, app, wi, run.workers[wi])
    }

    /// One thread's contribution among several: drain the frozen
    /// queues (own first, then steal), then the re-execution queues.
    /// `stay` keeps the worker on the run until it is done; a helper
    /// (`!stay`) leaves at its first idle moment, parked attempt
    /// settled.
    pub(crate) fn work(&mut self, stay: bool) {
        self.drain_queues(self.run.steal_span());
        self.drain_retries(stay);
    }

    /// The inline supplier: one thread plays every node's worker in
    /// turn — each task runs under its assigned identity, so cache and
    /// shuffle locality are exact — then stays until the run is done.
    /// This also guarantees an admitted job completes with no helper
    /// at all.
    pub(crate) fn work_all(&mut self) {
        for wi in 0..self.run.workers.len() {
            (self.wi, self.me) = (wi, self.run.workers[wi]);
            self.drain_queues(1);
        }
        self.drain_retries(true);
    }

    /// Frozen queues: `span` of them starting at the own one, ring
    /// order.
    fn drain_queues(&mut self, span: usize) {
        let run = self.run;
        for step in 0..span {
            let owner = run.workers[(self.wi + step) % run.workers.len()].index();
            loop {
                if run.is_aborted() || !self.rehome() {
                    return;
                }
                let i = run.cursors[owner].fetch_add(1, Ordering::Relaxed);
                let Some(&tid) = run.queues[owner].get(i) else { break };
                self.run_attempt(tid, false);
            }
        }
    }

    /// Crash/fault re-executions and requested backups, until every
    /// task has committed (or, for a helper, until idle).
    fn drain_retries(&mut self, stay: bool) {
        let run = self.run;
        let mut idle_rounds = 0u32;
        while !run.done() && self.rehome() {
            let next = run.retry.lock().pop();
            if let Some(tid) = next {
                idle_rounds = 0;
                self.run_attempt(tid, false);
                continue;
            }
            // Out of work: look for stragglers, run a requested backup,
            // else settle our parked attempt before idling — the
            // all-committed exit above (ours and every other worker's)
            // waits on it.
            if let Some(spec) = self.cluster.cfg.speculation {
                run.watch_stragglers(self.cluster, spec);
            }
            if let Some(tid) = run.pop_spec(self.me.index()) {
                idle_rounds = 0;
                self.run_attempt(tid, true);
            } else if let Some(p) = self.pending.take() {
                self.settle(p);
            } else if !stay {
                return;
            } else {
                idle_rounds += 1;
                match self.steal_pinned(idle_rounds) {
                    Some(tid) => {
                        idle_rounds = 0;
                        self.run_attempt(tid, false);
                    }
                    None => std::thread::sleep(Duration::from_micros(100)),
                }
            }
        }
        // Abort/rehome exits can leave a parked attempt; settle it so
        // its window slots are redeemed.
        if let Some(p) = self.pending.take() {
            self.settle(p);
        }
    }

    /// Pinned mode's work-conserving fallback: after a grace period of
    /// idleness, steal leftover pinned sub-tasks — losing their shuffle
    /// locality beats stalling the job. A queue whose owner has a live
    /// thread will drain on its own, so it is only stolen from once the
    /// owner has straggled well past the grace; orphaned queues (owner
    /// position beyond the staffed identities) have no one else coming.
    fn steal_pinned(&self, idle_rounds: u32) -> Option<usize> {
        let run = self.run;
        if !run.pinned || idle_rounds <= 20 {
            return None;
        }
        let n = run.workers.len();
        (0..n).map(|step| (self.wi + step) % n).find_map(|oix| {
            if oix < run.threads && idle_rounds <= 200 {
                return None;
            }
            let owner = run.workers[oix].index();
            let i = run.cursors[owner].fetch_add(1, Ordering::Relaxed);
            run.queues[owner].get(i).copied()
        })
    }

    /// If this worker's node crashed, adopt the identity of the next
    /// surviving node in ring order. False only when every node is
    /// dead.
    fn rehome(&mut self) -> bool {
        let run = self.run;
        if !run.node_down(self.me) {
            return true;
        }
        let n = run.workers.len();
        match (0..n).map(|s| run.workers[(self.wi + s) % n]).find(|&w| !run.node_down(w)) {
            Some(w) => {
                self.me = w;
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

    /// Tell the driver endpoint how far `tid` has got (speculation
    /// only): the straggler watch reads the board these feed.
    fn heartbeat(&self, tid: usize, progress: u32) {
        if self.cluster.cfg.speculation.is_some() {
            let beat =
                Rpc::Heartbeat { from: self.me, clock: 0, task: self.run.gtid(tid), progress };
            let _ = self.cluster.net.call(self.me, CLIENT, beat);
        }
    }

    /// Read task `tid`'s block: the assigned node's iCache shard first,
    /// then the store with replica fallback. All cache and locality
    /// accounting uses the ASSIGNED node: stats and cache placement are
    /// identical with or without stealing. When that node is dead its
    /// cache shard died with it, so the read goes straight to the
    /// replica chain.
    fn read_block(&self, tid: usize, att: &mut Shipping) -> Result<Bytes, JobError> {
        let (cluster, run, me) = (self.cluster, self.run, self.me);
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

    /// Execute one attempt: read the block, map it, ship every spill.
    /// Windowed sends stay in flight at return — the caller settles
    /// them via [`PendingCommit`].
    fn exec(&mut self, tid: usize, attempt: u32) -> Result<Shipping, JobError> {
        let (run, app) = (self.run, self.app);
        let t = &run.tasks[tid];
        let mut att = Shipping::new(tid, attempt);
        // Announce the attempt to the progress board BEFORE any
        // injected straggle: the watch's first-heard timestamp must
        // cover the whole slow period, or stragglers look young.
        self.heartbeat(tid, 0);
        if run.armed {
            let delay = run.slow_micros(self.me);
            if delay > 0 && self.cancellable_sleep(tid, attempt, delay) {
                att.cancelled = true;
                return Ok(att);
            }
            if run.injected_failure(tid, attempt) {
                att.shipfail = true;
                return Ok(att);
            }
        }
        if t.node != self.me {
            run.tally.steals.fetch_add(1, Ordering::Relaxed);
        }
        let payload = self.read_block(tid, &mut att)?;
        att.total = payload.len().max(1) as u64;
        let parts = t.parts.as_deref();
        // Map + proactive spill. The buffer is empty at entry and
        // drained before return, so a batch never mixes tasks or
        // attempts.
        app.map_tagged(t.source, &payload, &mut |k, v| {
            let bytes = (k.len() + v.len()) as u64;
            att.emitted += bytes;
            let p = app
                .partition(&k, run.reducers)
                .unwrap_or_else(|| self.buffer.partition_of(shuffle_hash(&k)));
            // Replicated map-out: this placement only produces its
            // mask's partitions; sibling placements cover the rest.
            if parts.is_some_and(|mask| !mask[p]) {
                return;
            }
            if let Some(spill) = self.buffer.push_to(p, bytes, Some((k, v))) {
                self.ship(&mut att, spill);
            }
        });
        for spill in self.buffer.flush() {
            self.ship(&mut att, spill);
        }
        // Batch boundary: put every coalesced frame (shuffle + cache)
        // on the wire now, so the acks travel while the *next* attempt
        // maps and the deferred settle finds them done.
        self.cluster.net.nudge();
        Ok(att)
    }

    /// Combine one spill and push it to its reduce partition's home:
    /// a windowed one-way `ShuffleBatch` when the home is another live
    /// node, a direct delivery when it is this node (or dead, in which
    /// case the partition re-homes here first).
    fn ship(&mut self, att: &mut Shipping, spill: Spill<(String, String)>) {
        let (cluster, run, me) = (self.cluster, self.run, self.me);
        let (tid, attempt, partition) = (att.tid, att.attempt, spill.partition);
        if spill.records.is_empty() {
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
        self.heartbeat(tid, ((att.emitted * 1000) / att.total).min(1000) as u32);
        let records = if self.app.has_combiner() {
            combine_sorted_runs(self.app, spill.records, &mut self.scratch)
        } else {
            // No combiner: ship records untouched.
            spill.records
        };
        let seq = att.seq;
        att.seq += 1;
        let home = cluster.router.home_of(run.jid, partition);
        if home != me && !run.node_down(home) {
            // The worker keeps mapping while the batch and its ack are
            // in flight; it blocks only when `home`'s ack window is
            // full.
            let batch = Rpc::ShuffleBatch {
                task: run.gtid(tid),
                attempt,
                seq,
                epoch: run.epoch,
                partition: partition as u32,
                records,
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
        let (cluster, run, me) = (self.cluster, self.run, self.me);
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

    /// Claim and execute one attempt of `tid`. A shipped attempt is
    /// parked in `pending` — its acks ride alongside the next attempt's
    /// map work — and the previously parked attempt is settled here,
    /// after a whole attempt's worth of overlap.
    fn run_attempt(&mut self, tid: usize, speculative: bool) {
        let (run, me) = (self.run, self.me);
        if run.commits[tid].load(Ordering::Acquire) != UNCOMMITTED {
            return; // an earlier attempt already won
        }
        if run.node_down(me) {
            // Our node crashed between claiming and executing; hand the
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
            run.claims[tid].store(me.index() as u32, Ordering::Release);
        }
        let started = Instant::now();
        let running = run.running.get(me.index());
        if let Some(r) = running {
            r.fetch_add(1, Ordering::AcqRel);
        }
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.exec(tid, attempt)));
        if let Some(r) = running {
            r.fetch_sub(1, Ordering::AcqRel);
        }
        let att = match outcome {
            Ok(Ok(att)) => att,
            // A backup failing to read its block is not terminal — the
            // primary (or a real retry) still owns the task.
            Ok(Err(e)) => {
                self.buffer.reset();
                if !speculative {
                    run.abort(e);
                }
                return;
            }
            // A panic inside map/combine: bounded retry. Any in-flight
            // tickets died with the unwind; their window slots expire.
            Err(_) => {
                self.buffer.reset();
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
            let parked = PendingCommit { tid, attempt, shuffle, cache, speculative, started };
            if let Some(prev) = self.pending.replace(parked) {
                self.settle(prev);
            }
            return;
        }
        // Not committing: redeem the window slots — outcomes are
        // irrelevant, reducer dedup drops the partial output.
        for (ticket, _) in &shuffle {
            let _ = self.cluster.net.flush(std::slice::from_ref(ticket));
        }
        let _ = self.cluster.net.flush(&cache);
        self.buffer.reset();
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

/// Partition hash for intermediate keys, executor-internal.
///
/// The ring hash ([`HashKey::of_name`]) is engineered for placement
/// quality and costs far too much to run once per mapped record — it
/// dominated the map phase's profile. Reduce partitions are plain
/// channel indices in the live executor, so all the shuffle needs is a
/// fast, deterministic, well-mixed 64-bit hash: FNV-1a with a murmur3
/// finalizer (the top bits feed `SpillBuffer::partition_of`'s
/// multiply-shift, so they must avalanche).
#[inline]
fn shuffle_hash(key: &str) -> HashKey {
    let mut h = 0xcbf29ce484222325u64;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^= h >> 33;
    HashKey(h)
}

/// Combine one spill by sorting its records in place and folding each
/// equal-key run through the application's combiner — no map nodes, no
/// per-key `Vec`s; `scratch` is the single reusable values buffer.
fn combine_sorted_runs(
    app: &dyn MapReduce,
    mut records: Vec<(String, String)>,
    scratch: &mut Vec<String>,
) -> Vec<(String, String)> {
    records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(records.len() / 2 + 1);
    let mut iter = records.into_iter().peekable();
    while let Some((key, first)) = iter.next() {
        scratch.clear();
        scratch.push(first);
        while iter.peek().is_some_and(|(k, _)| *k == key) {
            scratch.push(iter.next().expect("peeked").1);
        }
        app.combine(&key, scratch, &mut |ck, cv| out.push((ck, cv)));
    }
    out
}
