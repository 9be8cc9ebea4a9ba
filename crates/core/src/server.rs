//! Multi-tenant job server: admission, persistent threads, and
//! nothing else — execution is the live executor's own.
//!
//! A one-shot [`LiveCluster::run_job`] spawns scoped threads for the
//! job's lifetime — fine for one long job, pure overhead for a storm
//! of small ones (0.368 ms fixed cost per job against 0.064 ms here).
//! [`JobServer`] supplies threads that persist instead: a small set of
//! driver threads, each owning one admitted job end to end, and a pool
//! of map workers that help whichever jobs are in flight. Both run the
//! same [`Run`] / [`MapWorker`] code a one-shot job runs — a driver
//! begins the run, posts it on the board, maps it inline to its
//! barrier while pool workers attach and steal, then folds and retires
//! it — so a server job has the same attempt ledger, windowed shuffle,
//! crash re-homing, retry draining, speculation and replicated map-out,
//! and is walked by crash/join/leave recovery like any other run.
//!
//! Admission is bounded and tenant-aware: [`JobServer::submit`] blocks
//! while the queue is full (backpressure), [`JobServer::try_submit`]
//! refuses instead, and [`AdmissionPolicy::WeightedFair`] dispatches by
//! per-tenant virtual time so a storm from one tenant cannot starve
//! another (the same decision shape as the simulator's fair scheduler,
//! applied to jobs instead of blocks).
#![deny(clippy::too_many_lines)]

use crate::epoch::{EpochDriver, EpochReport, EpochSnapshot, StreamSpec};
use crate::job::{JobError, ReusePolicy};
use crate::live::{hardware_threads, LiveCluster, LiveStats, MapReduce, MapWorker, Run};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How queued jobs are dispatched to the driver threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Strict arrival order.
    Fifo,
    /// Per-tenant weighted virtual time: each dispatch charges the
    /// job's tenant `1 / weight`, and the tenant with the smallest
    /// virtual time goes next (FIFO within a tenant). A tenant
    /// submitting twice the weight gets twice the dispatch share; a
    /// flood from one tenant cannot starve the rest.
    WeightedFair,
}

/// Sizing and policy knobs for [`JobServer`].
#[derive(Clone, Copy, Debug)]
pub struct JobServerConfig {
    /// Bounded admission queue: `submit` blocks (and `try_submit`
    /// refuses) once this many jobs are queued undispatched.
    pub queue_depth: usize,
    /// Driver threads — the maximum number of jobs in flight at once.
    pub concurrency: usize,
    /// Pool map-worker threads; `0` sizes to the host's parallelism.
    pub workers: usize,
    pub policy: AdmissionPolicy,
}

impl Default for JobServerConfig {
    fn default() -> JobServerConfig {
        JobServerConfig {
            queue_depth: 32,
            concurrency: 2,
            workers: 0,
            policy: AdmissionPolicy::Fifo,
        }
    }
}

/// One job submission: what to run, over what, and as whom. The `user`
/// doubles as the cache-quota tenant and the weighted-fair identity.
#[derive(Clone)]
pub struct PoolJobSpec {
    pub app: Arc<dyn MapReduce>,
    pub inputs: Vec<String>,
    pub user: String,
    pub reducers: usize,
    pub reuse: ReusePolicy,
    /// Weighted-fair share (0 is treated as 1). Ignored under FIFO.
    pub weight: u32,
}

/// What a finished job yields: key-sorted output pairs plus stats.
pub type JobResult = Result<(Vec<(String, String)>, LiveStats), JobError>;

/// A submitted job's completion slot.
struct HandleInner {
    slot: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl HandleInner {
    fn fulfill(&self, res: JobResult) {
        let mut slot = self.slot.lock().expect("handle lock");
        if slot.is_none() {
            *slot = Some(res);
        }
        self.cv.notify_all();
    }
}

/// Await a submitted job. Dropping the handle does not cancel the job.
pub struct JobHandle {
    inner: Arc<HandleInner>,
}

impl JobHandle {
    /// Block until the job completes; yields its key-sorted output and
    /// stats, or the terminal error.
    pub fn wait(self) -> JobResult {
        let mut slot = self.inner.slot.lock().expect("handle lock");
        while slot.is_none() {
            slot = self.inner.cv.wait(slot).expect("handle lock");
        }
        slot.take().expect("slot filled")
    }
}

/// A queued, undispatched job.
struct Pending {
    spec: PoolJobSpec,
    handle: Arc<HandleInner>,
    seq: u64,
}

/// Admission state under one lock: the bounded queue plus the
/// weighted-fair virtual clocks.
struct AdmitState {
    pending: VecDeque<Pending>,
    /// Per-tenant virtual time (weighted-fair only). A tenant's first
    /// job starts at the current minimum so newcomers neither starve
    /// nor lap the field.
    vt: HashMap<String, f64>,
    next_seq: u64,
}

/// Dispatch one job per `policy`. FIFO within a tenant is preserved in
/// both modes.
fn pick(q: &mut AdmitState, policy: AdmissionPolicy) -> Option<Pending> {
    if q.pending.is_empty() {
        return None;
    }
    let at = match policy {
        AdmissionPolicy::Fifo => 0,
        AdmissionPolicy::WeightedFair => {
            let floor = q.vt.values().copied().fold(f64::INFINITY, f64::min);
            let floor = if floor.is_finite() { floor } else { 0.0 };
            for p in &q.pending {
                q.vt.entry(p.spec.user.clone()).or_insert(floor);
            }
            // The earliest-queued job of the lowest-virtual-time tenant.
            let (at, winner) = q
                .pending
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let (va, vb) = (q.vt[&a.spec.user], q.vt[&b.spec.user]);
                    va.total_cmp(&vb).then(a.seq.cmp(&b.seq))
                })
                .expect("pending non-empty");
            let charge = 1.0 / f64::from(winner.spec.weight.max(1));
            *q.vt.get_mut(&winner.spec.user).expect("seeded above") += charge;
            at
        }
    };
    q.pending.remove(at)
}

/// A begun run open for help, with the app its attempts call.
type Lease = (Arc<Run>, Arc<dyn MapReduce>);

struct Shared {
    cluster: Arc<LiveCluster>,
    cfg: JobServerConfig,
    admit: Mutex<AdmitState>,
    /// Signals both directions on the admission queue: drivers wait for
    /// work, submitters wait for space.
    admit_cv: Condvar,
    /// Runs currently mapping: their drivers post them here, pool
    /// workers pick any with a first attempt left to claim.
    board: Mutex<Vec<Lease>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// The persistent multi-tenant job server. Construction spawns the
/// driver and worker threads once; [`Drop`] (or
/// [`shutdown`](Self::shutdown)) stops them, cancelling still-queued
/// jobs.
pub struct JobServer {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl JobServer {
    pub fn new(cluster: Arc<LiveCluster>, cfg: JobServerConfig) -> JobServer {
        let workers = if cfg.workers == 0 { hardware_threads() } else { cfg.workers };
        let shared = Arc::new(Shared {
            cluster,
            cfg,
            admit: Mutex::new(AdmitState {
                pending: VecDeque::new(),
                vt: HashMap::new(),
                next_seq: 0,
            }),
            admit_cv: Condvar::new(),
            board: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(cfg.concurrency + workers);
        for _ in 0..cfg.concurrency {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || driver_loop(&s)));
        }
        for wi in 0..workers {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&s, wi)));
        }
        JobServer { shared, threads: Mutex::new(threads) }
    }

    /// Queue a job, blocking while the admission queue is full — the
    /// caller *is* the backpressure. A saturated shuffle send window
    /// anywhere in the cluster blocks admission too: once some
    /// destination has a full wall of unacknowledged sends, queueing
    /// more jobs only deepens the pile-up, so the stall is surfaced
    /// here, at `submit`, instead of inside the workers. Returns a
    /// handle to await.
    pub fn submit(&self, spec: PoolJobSpec) -> JobHandle {
        let mut q = self.shared.admit.lock().expect("admit lock");
        while !self.shared.shutdown.load(Ordering::Acquire)
            && (q.pending.len() >= self.shared.cfg.queue_depth
                || self.shared.cluster.shuffle_backpressure())
        {
            // Timed wait: queue space is notified, but a send window
            // draining (ack arrives, link heals) is not — re-check.
            let (nq, _) = self
                .shared
                .admit_cv
                .wait_timeout(q, Duration::from_millis(1))
                .expect("admit lock");
            q = nq;
        }
        self.enqueue(&mut q, spec)
    }

    /// Non-blocking twin of [`submit`](Self::submit): when the queue is
    /// full the spec is handed back so the caller can shed or retry.
    pub fn try_submit(&self, spec: PoolJobSpec) -> Result<JobHandle, PoolJobSpec> {
        let mut q = self.shared.admit.lock().expect("admit lock");
        if q.pending.len() >= self.shared.cfg.queue_depth {
            return Err(spec);
        }
        Ok(self.enqueue(&mut q, spec))
    }

    fn enqueue(&self, q: &mut AdmitState, spec: PoolJobSpec) -> JobHandle {
        let handle =
            Arc::new(HandleInner { slot: Mutex::new(None), cv: Condvar::new() });
        let seq = q.next_seq;
        q.next_seq += 1;
        q.pending.push_back(Pending { spec, handle: Arc::clone(&handle), seq });
        self.shared.admit_cv.notify_all();
        JobHandle { inner: handle }
    }

    /// Jobs queued but not yet dispatched (diagnostic).
    pub fn queued(&self) -> usize {
        self.shared.admit.lock().expect("admit lock").pending.len()
    }

    /// Open a continuous job: a standing stream whose epochs execute on
    /// this server's shared worker pool, coexisting with batch jobs at
    /// the work-queue level. The returned handle commits deltas and
    /// reads published snapshots; see [`EpochDriver`] for the
    /// consistency contract.
    pub fn open_stream(&self, spec: StreamSpec) -> StreamHandle {
        StreamHandle {
            driver: Arc::new(EpochDriver::new(Arc::clone(&self.shared.cluster), spec)),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop the server: in-flight jobs complete, still-queued jobs are
    /// fulfilled with [`JobError::Cancelled`], and every thread is
    /// joined. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut q = self.shared.admit.lock().expect("admit lock");
            for p in q.pending.drain(..) {
                p.handle.fulfill(Err(JobError::Cancelled));
            }
        }
        self.shared.admit_cv.notify_all();
        self.shared.work_cv.notify_all();
        for t in self.threads.lock().expect("threads lock").drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A continuous job opened on a [`JobServer`]: the server-pool face of
/// one [`EpochDriver`]. Each epoch wave is leased exactly like a batch
/// job — posted on the board for the pool workers, mapped inline by
/// the committing caller. Dropping the handle closes the stream.
pub struct StreamHandle {
    driver: Arc<EpochDriver>,
    shared: Arc<Shared>,
}

impl StreamHandle {
    /// Ingest one delta and commit it as the stream's next epoch on
    /// the server's worker pool. Serialized per stream; concurrent
    /// batch jobs keep flowing while this blocks.
    pub fn commit_epoch(&self, delta: &[u8]) -> Result<EpochReport, JobError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(JobError::Cancelled);
        }
        let s = &*self.shared;
        self.driver.commit_epoch_via(delta, &|wave| lease(s, wave, &self.driver.app))
    }

    /// The newest published epoch (0 before the first commit).
    pub fn published(&self) -> u32 {
        self.driver.published()
    }

    /// Read a published epoch's materialized result; see
    /// [`EpochDriver::snapshot`].
    pub fn snapshot(&self, epoch: u32) -> Option<EpochSnapshot> {
        self.driver.snapshot(epoch)
    }

    /// Close the stream: refuse further commits and release the
    /// materialized cache pins.
    pub fn close(&self) {
        self.driver.close();
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        self.driver.close();
    }
}

/// A driver owns one admitted job end to end: begin, lease, fold,
/// fulfill.
fn driver_loop(s: &Shared) {
    loop {
        let p = {
            let mut q = s.admit.lock().expect("admit lock");
            loop {
                if s.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(p) = pick(&mut q, s.cfg.policy) {
                    break p;
                }
                q = s.admit_cv.wait(q).expect("admit lock");
            }
        };
        // Space freed: wake any submitter blocked on the full queue.
        s.admit_cv.notify_all();
        let PoolJobSpec { app, inputs, user, reducers, reuse, .. } = &p.spec;
        let inputs: Vec<&str> = inputs.iter().map(|s| s.as_str()).collect();
        let res = Run::begin(&s.cluster, &inputs, user, *reducers, *reuse, None)
            .and_then(|run| {
                lease(s, &run, app);
                run.finish(&s.cluster, &**app)
            })
            .map(|(parts, stats)| {
                let mut out: Vec<(String, String)> = parts.into_iter().flatten().collect();
                out.sort();
                (out, stats)
            });
        p.handle.fulfill(res);
    }
}

/// Lease one begun run to the pool and map it to its barrier: post it
/// on the board for the pool workers, and play every node's worker on
/// the calling thread too — work-conserving, each task under its
/// assigned identity, and a guarantee that an admitted job completes
/// (and drains its own retry and backup queues) even if every pool
/// worker is busy or has already exited on shutdown. Shared by the
/// batch driver loop and the epoch streams.
fn lease(s: &Shared, run: &Arc<Run>, app: &Arc<dyn MapReduce>) {
    s.board.lock().expect("board lock").push((Arc::clone(run), Arc::clone(app)));
    s.work_cv.notify_all();
    MapWorker::at(&s.cluster, run, &**app, 0).work_all();
    s.board.lock().expect("board lock").retain(|(r, _)| !Arc::ptr_eq(r, run));
}

/// Pool map worker `wi`: attach to any posted run with unclaimed work,
/// help until idle, detach. Its identity on a run is that run's
/// `wi`-th ring member — membership as of the run's start, so a worker
/// never maps under a node that crashed before the job began, and
/// re-homes like any other worker when one crashes under it.
fn worker_loop(s: &Shared, wi: usize) {
    loop {
        let (run, app) = {
            let mut board = s.board.lock().expect("board lock");
            loop {
                if s.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(lease) = board.iter().find(|(run, _)| run.claimable(wi)) {
                    break lease.clone();
                }
                board = s.work_cv.wait(board).expect("board lock");
            }
        };
        // `work(false)` settles the worker's parked attempt before it
        // returns: the run's barrier never waits on a sleeping worker.
        MapWorker::at(&s.cluster, &run, &*app, wi).work(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveConfig;
    use crate::testkit::WordCount;

    fn cluster_with(data: &str, files: &[&str]) -> Arc<LiveCluster> {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(256));
        for f in files {
            c.upload(f, "tester", data.as_bytes());
        }
        Arc::new(c)
    }

    fn spec(input: &str, user: &str, weight: u32) -> PoolJobSpec {
        PoolJobSpec {
            app: Arc::new(WordCount),
            inputs: vec![input.to_string()],
            user: user.to_string(),
            reducers: 4,
            reuse: ReusePolicy::default(),
            weight,
        }
    }

    #[test]
    fn pool_output_matches_one_shot_job() {
        let data = "apple banana apple\ncherry banana apple\n".repeat(64);
        let c = cluster_with(&data, &["input"]);
        let (baseline, _) =
            c.run_job(&WordCount, "input", "tester", 4, ReusePolicy::default());
        let server = JobServer::new(Arc::clone(&c), JobServerConfig::default());
        let (out, stats) = server.submit(spec("input", "tester", 1)).wait().expect("pool job");
        assert_eq!(out, baseline, "a server job must match a one-shot job");
        assert!(stats.map_tasks > 0);
        assert_eq!(stats.attempts, stats.map_tasks, "fault-free: one attempt per task");
    }

    #[test]
    fn concurrent_jobs_all_correct() {
        let data = "red green blue green\n".repeat(128);
        let c = cluster_with(&data, &["a", "b", "c", "d"]);
        let (baseline, _) = c.run_job(&WordCount, "a", "tester", 4, ReusePolicy::default());
        let server = JobServer::new(
            Arc::clone(&c),
            JobServerConfig { concurrency: 3, ..JobServerConfig::default() },
        );
        let handles: Vec<JobHandle> = ["a", "b", "c", "d"]
            .iter()
            .map(|f| server.submit(spec(f, "tester", 1)))
            .collect();
        for h in handles {
            let (out, _) = h.wait().expect("job");
            assert_eq!(out, baseline, "every concurrent job folds the same data");
        }
    }

    #[test]
    fn try_submit_saturates_and_shutdown_cancels() {
        let data = "x y z\n".repeat(16);
        // No drivers: the queue can only fill.
        let c = cluster_with(&data, &["input"]);
        let server = JobServer::new(
            Arc::clone(&c),
            JobServerConfig { queue_depth: 2, concurrency: 0, ..JobServerConfig::default() },
        );
        let h1 = server.try_submit(spec("input", "a", 1)).ok().expect("first fits");
        let _h2 = server.try_submit(spec("input", "b", 1)).ok().expect("second fits");
        assert!(server.try_submit(spec("input", "c", 1)).is_err(), "queue full");
        assert_eq!(server.queued(), 2);
        server.shutdown();
        assert!(matches!(h1.wait(), Err(JobError::Cancelled)));
    }

    #[test]
    fn weighted_fair_dispatch_order() {
        let mk = |user: &str, weight: u32, seq: u64| Pending {
            spec: spec("input", user, weight),
            handle: Arc::new(HandleInner { slot: Mutex::new(None), cv: Condvar::new() }),
            seq,
        };
        let mut q = AdmitState {
            pending: VecDeque::new(),
            vt: HashMap::new(),
            next_seq: 0,
        };
        // Tenant `a` floods 4 jobs at weight 1; tenant `b` queues 2 at
        // weight 2 behind them.
        for i in 0..4 {
            q.pending.push_back(mk("a", 1, i));
        }
        q.pending.push_back(mk("b", 2, 4));
        q.pending.push_back(mk("b", 2, 5));
        let order: Vec<String> = std::iter::from_fn(|| {
            pick(&mut q, AdmissionPolicy::WeightedFair).map(|p| p.spec.user)
        })
        .collect();
        // b's half-price dispatches interleave ahead of a's flood
        // instead of queueing behind it.
        assert_eq!(order, ["a", "b", "b", "a", "a", "a"], "order: {order:?}");
        // FIFO would have drained a's flood first.
        let mut q2 = AdmitState {
            pending: VecDeque::new(),
            vt: HashMap::new(),
            next_seq: 0,
        };
        for i in 0..4 {
            q2.pending.push_back(mk("a", 1, i));
        }
        q2.pending.push_back(mk("b", 2, 4));
        let fifo: Vec<String> = std::iter::from_fn(|| {
            pick(&mut q2, AdmissionPolicy::Fifo).map(|p| p.spec.user)
        })
        .collect();
        assert_eq!(fifo, ["a", "a", "a", "a", "b"]);
    }

    #[test]
    fn stream_epochs_coexist_with_batch_jobs() {
        // 19-byte lines + a block size that is a multiple keep block
        // boundaries word-aligned in both the per-epoch delta files
        // and the concatenated oracle file.
        let data = "apple banana apple\n".repeat(64);
        let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(19 * 8)));
        c.upload("batchin", "tester", data.as_bytes());
        let (baseline, _) =
            c.run_job(&WordCount, "batchin", "tester", 4, ReusePolicy::default());
        let server = JobServer::new(
            Arc::clone(&c),
            JobServerConfig { concurrency: 2, ..JobServerConfig::default() },
        );
        let stream = server.open_stream(StreamSpec {
            app: Arc::new(WordCount),
            name: "s".to_string(),
            user: "tester".to_string(),
            reducers: 4,
        });
        let deltas =
            ["apple banana apple\n".repeat(16), "cherry banana pear\n".repeat(24)];
        let mut concat = String::new();
        for (i, delta) in deltas.iter().enumerate() {
            concat.push_str(delta);
            // A batch job in flight while the epoch commits: both ride
            // the same worker pool and both must stay correct.
            let h = server.submit(spec("batchin", "tester", 1));
            let rep = stream.commit_epoch(delta.as_bytes()).expect("epoch commits");
            assert_eq!(rep.epoch as usize, i + 1);
            let (out, _) = h.wait().expect("batch job");
            assert_eq!(out, baseline, "batch output drifted beside a stream");
        }
        c.upload("oracle", "tester", concat.as_bytes());
        let (oracle, _) = c
            .try_run_job_inputs_partitioned(&WordCount, &["oracle"], "tester", 4, ReusePolicy::default())
            .expect("oracle batch");
        let snap = stream.snapshot(2).expect("published epoch readable");
        assert_eq!(*snap, oracle, "materialized result != one-shot batch");
        stream.close();
    }

    #[test]
    fn submit_blocks_while_shuffle_window_saturated() {
        use eclipse_net::{Rpc, Transport};
        let data = "q r s\n".repeat(64);
        let c = cluster_with(&data, &["input"]);
        let mem = Arc::clone(c.mem_net().expect("memory transport"));
        let ids = c.ring().node_ids();
        let (a, b) = (ids[0], ids[1]);
        // Saturate a→b: a full ack window of sends whose frames the cut
        // link ate, none yet redeemed.
        mem.cut_one_way(a, b);
        let batch = || Rpc::ShuffleBatch {
            task: u32::MAX,
            attempt: 0,
            seq: 0,
            epoch: 0,
            partition: 0,
            records: Vec::new(),
        };
        let tickets: Vec<_> = (0..eclipse_net::RetryPolicy::default().ack_window)
            .map(|_| mem.send(a, b, batch()).expect("send queues under a cut"))
            .collect();
        assert!(c.shuffle_backpressure(), "window toward b is saturated");
        let server = Arc::new(JobServer::new(Arc::clone(&c), JobServerConfig::default()));
        let admitted = Arc::new(AtomicBool::new(false));
        let t = {
            let (server, admitted) = (Arc::clone(&server), Arc::clone(&admitted));
            std::thread::spawn(move || {
                let h = server.submit(spec("input", "tester", 1));
                admitted.store(true, Ordering::Release);
                h.wait()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !admitted.load(Ordering::Acquire),
            "submit must block while the shuffle plane is saturated"
        );
        // Heal and redeem: the window drains, admission resumes, the
        // job completes.
        mem.heal_all();
        let _ = mem.flush(&tickets);
        t.join().expect("submitter thread").expect("job completes after release");
    }

    #[test]
    fn submit_blocks_until_space_then_completes() {
        let data = "m n o p\n".repeat(64);
        let c = cluster_with(&data, &["input"]);
        let server = Arc::new(JobServer::new(
            Arc::clone(&c),
            JobServerConfig { queue_depth: 1, concurrency: 1, ..JobServerConfig::default() },
        ));
        // A burst far deeper than the queue: every submit eventually
        // lands (blocking backpressure), every handle completes.
        let handles: Vec<JobHandle> =
            (0..6).map(|_| server.submit(spec("input", "tester", 1))).collect();
        for h in handles {
            h.wait().expect("job completes");
        }
    }
}
