//! The simulator-driven EclipseMR executor.
//!
//! Drives the production control-plane crates — ring, DHT FS, distributed
//! cache, LAF/delay schedulers, proactive shuffle — against the
//! discrete-event cluster substrate. Every *decision* (who runs what,
//! where data is read, what gets cached) is made by the same code the
//! live executor uses; the simulator only answers "when does it finish",
//! which is what lets this reproduce the paper's 40-node / 250 GB
//! experiments on one machine.
//!
//! The map phase exists once. Every driver — [`EclipseSim::run_job`]'s
//! rounds (with shuffle, speculation and iteration state),
//! [`EclipseSim::run_trace`] (trace keys) and
//! [`EclipseSim::run_concurrent`] (per-job round-robin and reduce) —
//! seeds a pull queue, lets freed servers pull from it (Algorithm 1),
//! reads each task's input through iCache → page cache → DHT FS
//! replica, and reserves its map slot through the same four functions.
//! Membership changes re-derive scheduler and cache ranges in one place.

use crate::job::{JobReport, JobSpec, ReadSource};
use crate::timeline::{TaskEvent, TaskKind, Timeline};
use eclipse_cache::{CacheKey, DistributedCache, LruCache, OutputTag};
use eclipse_dhtfs::{DhtFs, DhtFsConfig};
use eclipse_ring::{NodeId, Ring};
use eclipse_sched::{DelayConfig, DelayScheduler, LafConfig, LafScheduler};
use eclipse_sim::{ClusterConfig, SimCluster, SimTime};
use eclipse_util::{HashKey, KeyRange, GB};
use eclipse_workloads::CostModel;
use std::collections::VecDeque;

/// Which scheduling policy the executor runs.
#[derive(Clone, Debug)]
pub enum SchedulerKind {
    Laf(LafConfig),
    Delay(DelayConfig),
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct EclipseConfig {
    pub cluster: ClusterConfig,
    pub scheduler: SchedulerKind,
    /// Distributed in-memory cache bytes per server.
    pub cache_per_node: u64,
    /// Modeled OS page-cache bytes per server. The paper's Fig. 6(b)
    /// finding — oCache does not beat the page cache for iteration
    /// outputs — emerges from this.
    pub page_cache_per_node: u64,
    /// DHT FS replication beyond the primary (2 in the paper).
    pub replicas: usize,
    /// Enable the §II-E misplaced-cache migration pass after every LAF
    /// re-partition (disabled in the paper's experiments).
    pub migration: bool,
    pub block_size: u64,
    /// Per-node CPU speed factors (padded with 1.0) — a heterogeneous /
    /// straggler cluster. Empty = homogeneous, the paper's testbed.
    pub node_speeds: Vec<f64>,
    /// Record-level reduce skew: Zipf exponent over reduce partitions
    /// (0 = uniform, the default; ~0.8 models word count's Zipf word
    /// frequencies — the paper's §I record-level skew).
    pub reduce_skew: f64,
    /// Hadoop-style speculative execution: when a map task lands on a
    /// below-nominal-speed node while a faster node has an idle slot, a
    /// backup copy runs there and the earlier finisher wins. Off by
    /// default (EclipseMR proper relies on LAF instead; the paper cites
    /// speculative scheduling as the rival approach to skew).
    pub speculation: bool,
}

impl EclipseConfig {
    /// The paper's testbed: 40 nodes, 1 GB cache/server, 128 MB blocks,
    /// two replicas, migration off.
    pub fn paper_defaults(scheduler: SchedulerKind) -> EclipseConfig {
        EclipseConfig {
            cluster: ClusterConfig::paper_testbed(),
            scheduler,
            cache_per_node: GB,
            // The OS page cache is shared with shuffle spills, iteration
            // outputs and every other write on the node; under a running
            // MapReduce workload its effective residency for *input*
            // blocks is small — and the paper's protocol empties it
            // between jobs anyway.
            page_cache_per_node: 2 * GB,
            replicas: 2,
            migration: false,
            block_size: eclipse_util::DEFAULT_BLOCK_SIZE,
            node_speeds: Vec::new(),
            speculation: false,
            reduce_skew: 0.0,
        }
    }

    /// Make some nodes slow: a heterogeneous cluster for the straggler
    /// ablation.
    pub fn with_node_speeds(mut self, speeds: Vec<f64>) -> EclipseConfig {
        self.node_speeds = speeds;
        self
    }

    pub fn with_speculation(mut self, on: bool) -> EclipseConfig {
        self.speculation = on;
        self
    }

    pub fn with_reduce_skew(mut self, zipf_exponent: f64) -> EclipseConfig {
        self.reduce_skew = zipf_exponent;
        self
    }

    pub fn with_nodes(mut self, nodes: usize) -> EclipseConfig {
        self.cluster.nodes = nodes;
        self
    }

    pub fn with_cache(mut self, bytes_per_node: u64) -> EclipseConfig {
        self.cache_per_node = bytes_per_node;
        self
    }
}

enum Sched {
    Laf(LafScheduler),
    Delay(DelayScheduler),
}

/// Simulated EclipseMR deployment.
pub struct EclipseSim {
    cfg: EclipseConfig,
    ring: Ring,
    cluster: SimCluster,
    fs: DhtFs,
    cache: DistributedCache,
    sched: Sched,
    /// Per-node OS page cache of recently written/read disk data.
    page_cache: Vec<LruCache<HashKey>>,
    /// Nodes still in the ring (failed nodes keep their index but never
    /// pull tasks again).
    alive: Vec<bool>,
    /// Recorded task events when enabled via [`record_timeline`].
    timeline: Option<Timeline>,
    /// Current submission clock.
    clock: f64,
}

/// The server whose range covers `key`: the bucket a pending task waits
/// in.
fn bucket_of(ranges: &[(NodeId, KeyRange)], key: HashKey) -> usize {
    ranges
        .iter()
        .find(|(_, r)| r.contains(key))
        .map(|(n, _)| n.index())
        .expect("ranges tile the ring")
}

/// Pending tasks bucketed by the server whose range currently covers
/// them, in global submission order. Servers *pull*: the earliest-free
/// server takes the oldest task in its own bucket, or steals the oldest
/// stealable pending task cluster-wide when its bucket is empty.
struct PullQueue<T> {
    buckets: Vec<VecDeque<(u64, T)>>,
    /// Last time each bucket's own server launched one of its tasks
    /// (Spark's delay timer resets on every local launch).
    last_local: Vec<f64>,
    /// Per server: no pull before this time (the delay scheduler
    /// declined its offers until a bucket timer expires).
    blocked: Vec<f64>,
    /// Submission time: no server pulls earlier.
    floor: f64,
    /// The ring key of a task's input (its bucket and LAF access).
    key_of: fn(&T) -> HashKey,
    len: usize,
}

impl<T> PullQueue<T> {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Oldest task in `bucket` (locality pull) at time `t`.
    fn pop_local(&mut self, bucket: usize, t: f64) -> Option<(u64, T)> {
        let item = self.buckets[bucket].pop_front()?;
        self.len -= 1;
        self.last_local[bucket] = t;
        Some(item)
    }

    /// Oldest task among buckets whose delay timer has expired at `t`:
    /// a bucket is stealable only if its own server has not launched a
    /// local task within the last `wait` seconds. A hot bucket that keeps
    /// launching locally never yields its tasks — Spark's launch-reset
    /// pathology, the reason delay scheduling keeps its cache hits but
    /// loses the load balance (the 2.86× slowdown of §III-C). LAF passes `wait = -∞`: every bucket is
    /// stealable, so a slot never idles.
    fn pop_oldest(&mut self, t: f64, wait: f64) -> Option<(u64, T)> {
        let bucket = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| t - self.last_local[*i] >= wait)
            .filter_map(|(i, b)| b.front().map(|(seq, _)| (*seq, i)))
            .min()
            .map(|(_, i)| i)?;
        let item = self.buckets[bucket].pop_front()?;
        self.len -= 1;
        Some(item)
    }

    /// Earliest time any nonempty bucket's delay timer expires.
    fn earliest_expiry(&self, wait: f64) -> Option<f64> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| self.last_local[i] + wait)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Re-assign every pending task to its bucket under `ranges` (after
    /// a LAF re-partition), preserving global order within buckets.
    fn rebucket(&mut self, ranges: &[(NodeId, KeyRange)]) {
        let mut all: Vec<(u64, T)> =
            self.buckets.iter_mut().flat_map(|b| b.drain(..)).collect();
        all.sort_by_key(|(seq, _)| *seq);
        for (seq, item) in all {
            self.buckets[bucket_of(ranges, (self.key_of)(&item))].push_back((seq, item));
        }
    }
}

/// One pull decision: the task the freed server `exec` takes, the time
/// it pulled, and the time its map slot frees.
struct Pulled<T> {
    exec: NodeId,
    item: T,
    not_before: f64,
    slot_start: f64,
}

impl EclipseSim {
    pub fn new(cfg: EclipseConfig) -> EclipseSim {
        let ring = Ring::with_servers_evenly_spaced(cfg.cluster.nodes, "worker");
        let cluster = SimCluster::with_speeds(cfg.cluster, &cfg.node_speeds);
        let fs = DhtFs::new(
            ring.clone(),
            DhtFsConfig { block_size: cfg.block_size, replicas: cfg.replicas },
        );
        let cache = DistributedCache::new(&ring, cfg.cache_per_node);
        let sched = match &cfg.scheduler {
            SchedulerKind::Laf(c) => Sched::Laf(LafScheduler::new(&ring, *c)),
            SchedulerKind::Delay(c) => Sched::Delay(DelayScheduler::new(&ring, *c)),
        };
        let page_cache =
            (0..cfg.cluster.nodes).map(|_| LruCache::new(cfg.page_cache_per_node)).collect();
        let alive = vec![true; cfg.cluster.nodes];
        EclipseSim {
            cfg,
            ring,
            cluster,
            fs,
            cache,
            sched,
            page_cache,
            alive,
            timeline: None,
            clock: 0.0,
        }
    }

    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    pub fn fs(&self) -> &DhtFs {
        &self.fs
    }

    pub fn cache(&self) -> &DistributedCache {
        &self.cache
    }

    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Start (or restart) recording per-task events.
    pub fn record_timeline(&mut self) {
        self.timeline = Some(Timeline::default());
    }

    /// The recorded timeline, if recording was enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    fn log_task(&mut self, kind: TaskKind, node: u32, start: f64, end: f64, source: Option<&'static str>) {
        if let Some(t) = self.timeline.as_mut() {
            t.push(TaskEvent { kind, node, start, end, source });
        }
    }

    /// Advance the submission clock to at least `t` (job arrivals in a
    /// stream: the next job may not be submitted before its arrival
    /// time, but a backlogged cluster keeps its later clock).
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Upload an input file to the DHT file system (charged as free —
    /// the paper's experiments pre-load inputs).
    pub fn upload(&mut self, name: &str, bytes: u64) {
        self.fs.upload(name, "hibench", bytes).expect("upload");
    }

    /// Empty the distributed in-memory caches and the page caches — the
    /// paper's cold-cache protocol before each run.
    pub fn drop_caches(&mut self) {
        self.cache.clear_all();
        for pc in &mut self.page_cache {
            pc.clear();
        }
    }

    /// Empty only the OS page caches — the paper's per-job protocol
    /// (the distributed in-memory cache is the system under test and
    /// stays warm across jobs in the Fig. 7/8 sweeps).
    pub fn drop_page_caches(&mut self) {
        for pc in &mut self.page_cache {
            pc.clear();
        }
    }

    /// Hit ratio of the distributed cache since construction.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Tasks-per-slot standard deviation across all map slots (§III-C).
    pub fn tasks_per_slot_stdev(&self) -> f64 {
        let counts: Vec<f64> = self
            .cluster
            .map_tasks_per_slot()
            .iter()
            .map(|&c| c as f64)
            .collect();
        eclipse_util::stats::stdev(&counts)
    }

    fn node_count(&self) -> usize {
        self.cfg.cluster.nodes
    }

    /// The scheduler's current range table: which server's bucket each
    /// ring key falls in.
    fn owner_ranges(&self) -> &[(NodeId, KeyRange)] {
        match &self.sched {
            Sched::Laf(laf) => laf.ranges(),
            Sched::Delay(delay) => delay.ranges(),
        }
    }

    /// A pull queue over `items` in submission order, bucketed by the
    /// current range owner of each item's key; servers pull from
    /// `submit` on.
    fn seed_queue<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        submit: f64,
        key_of: fn(&T) -> HashKey,
    ) -> PullQueue<T> {
        let (nodes, ranges) = (self.node_count(), self.owner_ranges());
        let mut queue = PullQueue {
            buckets: (0..nodes).map(|_| VecDeque::new()).collect(),
            last_local: vec![0.0; nodes],
            blocked: vec![submit; nodes],
            floor: submit,
            key_of,
            len: 0,
        };
        for (seq, item) in items.into_iter().enumerate() {
            queue.buckets[bucket_of(ranges, key_of(&item))].push_back((seq as u64, item));
            queue.len += 1;
        }
        queue
    }

    /// The earliest-free node and its free time (the next pull event),
    /// skipping nodes blocked by the delay scheduler until their timer.
    fn next_puller(&self, floor: f64, blocked: &[f64]) -> (usize, f64) {
        self.cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.alive[*i])
            .map(|(i, n)| {
                let free = n.map_slots.next_free(SimTime(floor)).secs().max(blocked[i]);
                // Ties (several nodes with a free slot at the same time)
                // go to the node with the most idle slots: resource
                // offers rotate over the cluster instead of letting node
                // 0 drain its whole slot pool first — which would steal
                // the other nodes' local tasks on small jobs.
                let idle = n.map_slots.idle_slots(SimTime(free));
                (i, free, idle)
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1).unwrap().then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0))
            })
            .map(|(i, free, _)| (i, free))
            .expect("at least one alive node")
    }

    /// A full-speed node with an idle map slot at `t`, if any (the
    /// speculation target).
    fn idle_fast_node(&self, t: f64) -> Option<usize> {
        self.cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                self.alive[*i]
                    && self.cluster.speed_of(*i) >= 1.0
                    && n.map_slots.idle_slots(SimTime(t)) > 0
            })
            .max_by_key(|(i, n)| (n.map_slots.idle_slots(SimTime(t)), usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// The one pull loop every driver runs (Algorithm 1): the
    /// earliest-free server takes the oldest task of its own bucket, or
    /// steals the oldest stealable one. Under LAF every pending task is
    /// stealable and every pull is recorded, so a re-partition re-buckets
    /// the queue and moves the cache ranges. Under delay scheduling a
    /// server finding nothing stealable idles until the earliest bucket
    /// timer expires, and the next server is asked. `None` once the
    /// queue is drained.
    fn next_task<T>(&mut self, queue: &mut PullQueue<T>) -> Option<Pulled<T>> {
        while !queue.is_empty() {
            let (node, t) = self.next_puller(queue.floor, &queue.blocked);
            let wait = match &self.sched {
                Sched::Laf(_) => f64::NEG_INFINITY,
                Sched::Delay(delay) => delay.config().effective_wait(),
            };
            let Some((_, item)) = queue.pop_local(node, t).or_else(|| queue.pop_oldest(t, wait))
            else {
                let until = queue.earliest_expiry(wait).unwrap_or(t);
                queue.blocked[node] = until.max(t + 1e-3);
                continue;
            };
            if let Sched::Laf(laf) = &mut self.sched {
                let before = laf.repartitions();
                laf.assign((queue.key_of)(&item));
                if laf.repartitions() != before {
                    self.cache.set_ranges(laf.ranges().to_vec());
                    if self.cfg.migration {
                        self.cache.migrate_misplaced(t);
                    }
                    queue.rebucket(laf.ranges());
                }
            }
            let slot_start = self.cluster.nodes[node].map_slots.next_free(SimTime(t)).secs();
            return Some(Pulled { exec: NodeId(node as u32), item, not_before: t, slot_start });
        }
        None
    }

    /// Acquire one map task's input object (`key`, `size` bytes) at `at`
    /// on `exec`; returns (completion time, source). Consults, in order:
    /// the distributed in-memory cache on the executing server, its OS
    /// page cache, then the DHT file system copy among `holders` (its own
    /// if it holds one). A disk read populates the page cache and, when
    /// `cache_input` is set, iCache; so does a page-cache hit.
    fn read_input(
        &mut self,
        exec: NodeId,
        (key, size): (HashKey, u64),
        holders: &[NodeId],
        at: f64,
        cache_input: bool,
        report: &mut JobReport,
    ) -> (f64, ReadSource) {
        let (ckey, node, at_t) = (CacheKey::Input(key), exec.index(), SimTime(at));
        report.cache_lookups += 1;
        let source = if self.cache.with_node(exec, |c| c.get(&ckey, at).is_some()) {
            report.cache_hits += 1;
            ReadSource::LocalCache
        } else if self.page_cache[node].get(&key, at).is_some() {
            ReadSource::PageCache
        } else if holders.contains(&exec) {
            ReadSource::LocalDisk
        } else {
            ReadSource::RemoteDisk
        };
        report.record_read(source, size);
        let done = match source {
            ReadSource::LocalCache | ReadSource::PageCache => {
                self.cluster.mem_read(at_t, node, size)
            }
            ReadSource::LocalDisk => self.cluster.disk_read(at_t, node, size),
            _ => {
                // Read the replica whose disk frees earliest — the reader
                // holds a copy itself whenever the cache range has not
                // drifted past the predecessor/successor arcs (§II-E's
                // misalignment discussion).
                let free = |n: NodeId| self.cluster.nodes[n.index()].disk.available_at(at_t).secs();
                let holder = holders
                    .iter()
                    .copied()
                    .min_by(|&a, &b| free(a).partial_cmp(&free(b)).unwrap().then(a.cmp(&b)))
                    .expect("replicated");
                self.cluster.remote_disk_read(at_t, holder.index(), node, size)
            }
        }
        .secs();
        if matches!(source, ReadSource::LocalDisk | ReadSource::RemoteDisk) {
            self.page_cache[node].put(key, size, at, None);
        }
        if cache_input && source != ReadSource::LocalCache {
            self.cache.with_node(exec, |c| c.put(ckey, size, at, None));
        }
        (done, source)
    }

    /// Reserve the map slot `task` pulled: its input I/O (finished at
    /// `io_done`, read from `source`) plus `cpu_secs` of nominal map
    /// CPU, scaled by the executing node's speed, and record it on the
    /// timeline. Returns the slot's (start, end).
    fn run_map<T>(
        &mut self,
        task: &Pulled<T>,
        (io_done, source): (f64, ReadSource),
        cpu_secs: f64,
    ) -> (SimTime, SimTime) {
        let node = task.exec.index();
        let cpu = self.cluster.cpu_time(node, cpu_secs);
        let dur = (io_done - task.slot_start).max(0.0) + cpu;
        let (start, end) = self.cluster.nodes[node].map_slots.run(SimTime(task.not_before), dur);
        debug_assert!((start.secs() - task.slot_start).abs() < 1e-6);
        self.log_task(TaskKind::Map, task.exec.0, start.secs(), end.secs(), Some(source.label()));
        (start, end)
    }

    /// Ring node that hosts reduce partition `r` of `total` (reducers run
    /// where the intermediate hash keys land in the DHT FS, §II-C).
    fn reducer_node(&self, r: usize, total: usize) -> NodeId {
        let key = HashKey::from_unit((r as f64 + 0.5) / total as f64);
        self.ring.owner_of(key).expect("ring non-empty").id
    }

    /// Run one MapReduce round; returns the report. `extra_input_per_map`
    /// models iteration state read by every map task (e.g. previous page
    /// rank ranks); `iter_tag` labels oCache entries for this round.
    fn run_round(
        &mut self,
        spec: &JobSpec,
        cost: &CostModel,
        submit: f64,
        extra_input_per_map: u64,
        prev_iter_tag: Option<&str>,
        iter_tag: Option<&str>,
    ) -> JobReport {
        let mut report =
            JobReport { tasks_per_node: vec![0; self.node_count()], ..JobReport::default() };
        let meta = self.fs.open(&spec.input, &spec.user).expect("input uploaded").clone();
        let reducers = spec.reducers.max(1);

        // ---- Map phase --------------------------------------------------
        // Placement is interleaved with execution: the scheduler sees the
        // cluster's true slot horizons for every decision, exactly as the
        // live system does when servers pull tasks as slots free.
        let mut map_phase_end = submit;
        let mut reducer_ready = vec![submit; reducers];
        let reducer_nodes: Vec<NodeId> =
            (0..reducers).map(|r| self.reducer_node(r, reducers)).collect();
        let mut shuffle_bytes_total = 0u64;

        let mut queue = self.seed_queue(meta.blocks.iter().copied(), submit, |b| b.key);
        while let Some(task) = self.next_task(&mut queue) {
            let (exec, block, slot_start) = (task.exec, task.item, task.slot_start);
            report.tasks_per_node[exec.index()] += 1;
            report.map_tasks += 1;
            let holders = self.fs.block_holders(block.id).expect("block exists").to_vec();
            let (mut io_done, source) = self.read_input(
                exec,
                (block.key, block.size),
                &holders,
                slot_start,
                spec.reuse.cache_input,
                &mut report,
            );
            // Iteration-state read (previous round's output share).
            if extra_input_per_map > 0 {
                io_done = io_done.max(self.read_iter_state(
                    exec,
                    extra_input_per_map,
                    slot_start,
                    spec,
                    prev_iter_tag,
                    &mut report,
                ));
            }
            let (start, mut end) =
                self.run_map(&task, (io_done, source), cost.map_cpu_secs(block.size));
            // Speculative execution: back up a straggling copy on an
            // idle full-speed node; the earlier finisher wins.
            if self.cfg.speculation && self.cluster.speed_of(exec.index()) < 1.0 {
                if let Some(backup) = self.idle_fast_node(slot_start) {
                    let b_cpu = self.cluster.cpu_time(backup, cost.map_cpu_secs(block.size));
                    // The backup reads remotely from a replica (never
                    // cached there) — charge a conservative remote read.
                    let b_io = self.cluster.disk_latency(backup, block.size)
                        + self.cluster.net_latency(exec.index(), backup, block.size);
                    let (_, b_end) = self.cluster.nodes[backup]
                        .map_slots
                        .run(SimTime(slot_start), b_io + b_cpu);
                    if b_end.secs() < end.secs() {
                        end = b_end;
                    }
                }
            }
            map_phase_end = map_phase_end.max(end.secs());

            // ---- Proactive shuffle (overlapped with the map) ------------
            let im = cost.intermediate_bytes(block.size);
            if im > 0 {
                let share = im / reducers as u64;
                for (r, &dest) in reducer_nodes.iter().enumerate() {
                    let bytes = if r == 0 { im - share * (reducers as u64 - 1) } else { share };
                    if bytes == 0 {
                        continue;
                    }
                    shuffle_bytes_total += bytes;
                    // Push begins while the map runs (spill pipeline): the
                    // network reservation starts at the map's start.
                    let net_done =
                        self.cluster.network.transfer(start, exec.index(), dest.index(), bytes);
                    // Intermediate results persist in the reducer-side DHT
                    // FS (and hence its page cache). Latency-only: these
                    // writes happen chronologically between other nodes'
                    // reservations, so pushing the disk horizon here would
                    // corrupt the FIFO model.
                    let disk_done = net_done.secs() + self.cluster.disk_latency(dest.index(), bytes);
                    let ready = end.secs().max(disk_done);
                    reducer_ready[r] = reducer_ready[r].max(ready);
                }
            } else {
                for ready in reducer_ready.iter_mut() {
                    *ready = ready.max(end.secs());
                }
            }
        }
        report.map_elapsed = map_phase_end - submit;
        report.shuffle_bytes = shuffle_bytes_total;

        // ---- Reduce phase -----------------------------------------------
        let total_im: u64 = cost.intermediate_bytes(meta.size);
        let iter_out_total = cost.iter_output_bytes(meta.size);
        let shares = CostModel::reducer_shares(total_im, reducers, self.cfg.reduce_skew);
        let mut job_end = map_phase_end;
        for (r, &node) in reducer_nodes.iter().enumerate() {
            report.reduce_tasks += 1;
            let bytes = shares[r];
            // Freshly spilled data is in the reducer's page cache.
            let read_done = if bytes > 0 {
                self.cluster.mem_read(SimTime(reducer_ready[r]), node.index(), bytes).secs()
            } else {
                reducer_ready[r]
            };
            let cpu = self.cluster.cpu_time(node.index(), cost.reduce_cpu_secs(bytes));
            let dur = (read_done - reducer_ready[r]).max(0.0) + cpu;
            let (red_start, end) =
                self.cluster.nodes[node.index()].reduce_slots.run(SimTime(reducer_ready[r]), dur);
            self.log_task(TaskKind::Reduce, node.0, red_start.secs(), end.secs(), None);
            // Output write: final job output or iteration output.
            let out_bytes = if iter_out_total > 0 && spec.iterations > 1 {
                iter_out_total / reducers as u64
            } else {
                cost.output_bytes(bytes)
            };
            let mut end_t = end.secs();
            if out_bytes > 0 {
                let wrote =
                    self.cluster.disk_read(SimTime(end.secs()), node.index(), out_bytes).secs();
                // Writes land in the page cache (the Fig. 6(b) effect) and
                // optionally in oCache under this iteration's tag.
                let out_key = HashKey::of_name(&format!("{}/iterout/{r}", spec.input));
                self.page_cache[node.index()].put(out_key, out_bytes, end.secs(), None);
                if spec.reuse.cache_outputs {
                    if let Some(tag) = iter_tag {
                        let okey = CacheKey::Output(OutputTag::new(
                            spec.app.name(),
                            format!("{tag}/{r}"),
                        ));
                        self.cache.with_node(node, |c| {
                            c.put(okey, out_bytes, end.secs(), spec.reuse.ocache_ttl)
                        });
                    }
                }
                end_t = end_t.max(wrote);
            }
            job_end = job_end.max(end_t);
        }

        report.elapsed = job_end - submit;
        report
    }

    /// Read this map task's share of the previous iteration's output:
    /// oCache first (if the application cached it), then the page cache
    /// (it was just written through the DHT FS), then disk.
    fn read_iter_state(
        &mut self,
        exec: NodeId,
        bytes: u64,
        at: f64,
        spec: &JobSpec,
        prev_iter_tag: Option<&str>,
        report: &mut JobReport,
    ) -> f64 {
        if spec.reuse.cache_outputs {
            if let Some(tag) = prev_iter_tag {
                // Iteration-output shares are tagged per reducer and live
                // on the reducer's node; a map task resolves its share's
                // home by hash key — no central directory (§II-B).
                let reducers = spec.reducers.max(1);
                let r = exec.index() % reducers;
                let home = self.reducer_node(r, reducers);
                let okey =
                    CacheKey::Output(OutputTag::new(spec.app.name(), format!("{tag}/{r}")));
                report.cache_lookups += 1;
                if self.cache.with_node(home, |c| c.get(&okey, at).is_some()) {
                    // Iteration state is consumed in fine-grained shares
                    // interleaved with the map work; charge it at memory
                    // speed without a bulk transfer (each task's slice is
                    // small and pipelined — modeling it as a full remote
                    // copy per task would double-count the shuffle that
                    // already moved the data).
                    report.cache_hits += 1;
                    report.record_read(ReadSource::LocalCache, bytes);
                    return self.cluster.mem_read(SimTime(at), exec.index(), bytes).secs();
                }
            }
        }
        let state_key = HashKey::of_name(&format!("{}/iterstate/{}", spec.input, exec.0));
        if self.page_cache[exec.index()].get(&state_key, at).is_some() {
            report.record_read(ReadSource::PageCache, bytes);
            return self.cluster.mem_read(SimTime(at), exec.index(), bytes).secs();
        }
        report.record_read(ReadSource::LocalDisk, bytes);
        let done = self.cluster.disk_read(SimTime(at), exec.index(), bytes).secs();
        self.page_cache[exec.index()].put(state_key, bytes, at, None);
        done
    }

    /// Run a (possibly iterative) job to completion. Advances the clock.
    pub fn run_job(&mut self, spec: &JobSpec) -> JobReport {
        let cost = CostModel::eclipse(spec.app);
        self.run_job_with_cost(spec, &cost)
    }

    /// Run with an explicit cost model (baselines reuse this executor
    /// with JVM-calibrated models).
    pub fn run_job_with_cost(&mut self, spec: &JobSpec, cost: &CostModel) -> JobReport {
        let submit = self.clock;
        if spec.iterations <= 1 {
            let report = self.run_round(spec, cost, submit, 0, None, None);
            self.clock = submit + report.elapsed;
            return report;
        }
        // Iterative driver: each round reads the input and the previous
        // round's output, and writes this round's output.
        let meta_size = self.fs.stat(&spec.input).expect("input uploaded").size;
        let blocks = eclipse_util::num_blocks(meta_size, self.cfg.block_size).max(1);
        let iter_out = cost.iter_output_bytes(meta_size);
        let mut combined = JobReport::default();
        let mut at = submit;
        for iter in 0..spec.iterations {
            let prev_tag = (iter > 0).then(|| format!("iter{}", iter - 1));
            let tag = format!("iter{iter}");
            let extra = if iter > 0 { iter_out / blocks } else { 0 };
            let r = self.run_round(spec, cost, at, extra, prev_tag.as_deref(), Some(&tag));
            // Iteration k's output supersedes iteration k-1's: invalidate
            // the stale tags so they stop evicting useful input blocks
            // (the application-controlled invalidation of §II-C).
            if spec.reuse.cache_outputs && iter > 0 {
                let reducers = spec.reducers.max(1);
                for rr in 0..reducers {
                    let okey = CacheKey::Output(OutputTag::new(
                        spec.app.name(),
                        format!("iter{}/{rr}", iter - 1),
                    ));
                    let home = self.reducer_node(rr, reducers);
                    self.cache.with_node(home, |c| c.invalidate(&okey));
                }
            }
            at += r.elapsed;
            combined.absorb(r);
        }
        combined.elapsed = at - submit;
        self.clock = at;
        combined
    }

    /// Run a raw access trace: each entry is one map task that reads a
    /// block-sized object at the given ring key (the Fig. 7 skewed-grep
    /// harness, where tasks repeatedly access a non-uniform key
    /// population). Objects live in the DHT FS at their key's owner (and
    /// its replicas) and are cached in iCache on access.
    pub fn run_trace(
        &mut self,
        keys: &[HashKey],
        bytes_per_access: u64,
        cost: &CostModel,
    ) -> JobReport {
        let submit = self.clock;
        let mut report =
            JobReport { tasks_per_node: vec![0; self.node_count()], ..JobReport::default() };
        let mut end_max = submit;
        let mut queue = self.seed_queue(keys.iter().copied(), submit, |k| *k);
        while let Some(task) = self.next_task(&mut queue) {
            let (exec, key) = (task.exec, task.item);
            report.tasks_per_node[exec.index()] += 1;
            report.map_tasks += 1;
            let holders = self.ring.replica_set(key, self.cfg.replicas).expect("ring");
            let read = self.read_input(
                exec,
                (key, bytes_per_access),
                &holders,
                task.slot_start,
                true,
                &mut report,
            );
            let (_, end) = self.run_map(&task, read, cost.map_cpu_secs(bytes_per_access));
            end_max = end_max.max(end.secs());
        }
        report.map_elapsed = end_max - submit;
        report.elapsed = end_max - submit;
        self.clock = end_max;
        report
    }

    /// Run several jobs concurrently: all submitted at the same instant,
    /// competing for slots, disks and the network (Fig. 8's setup).
    /// Returns one report per job, order-matched to `specs`.
    pub fn run_concurrent(&mut self, specs: &[JobSpec]) -> Vec<JobReport> {
        // One merged pull loop over every job's map tasks (iterative jobs
        // contribute one pass per iteration), interleaved round-robin in
        // submission order. Approximation vs. the sequential driver:
        // iteration barriers inside a job are relaxed — pass k+1's tasks
        // are eligible while pass k drains. The contention picture (slots,
        // disks, caches shared by seven jobs) is what Fig. 8 measures.
        let submit = self.clock;
        let n_jobs = specs.len();
        let mut reports: Vec<JobReport> = specs
            .iter()
            .map(|_| JobReport { tasks_per_node: vec![0; self.node_count()], ..Default::default() })
            .collect();
        let costs: Vec<CostModel> = specs.iter().map(|s| CostModel::eclipse(s.app)).collect();
        let metas: Vec<_> = specs
            .iter()
            .map(|s| self.fs.open(&s.input, &s.user).expect("input uploaded").clone())
            .collect();

        // Round-robin merge of every job's passes of map tasks: each
        // job's k-th task (pass-major, block-minor) before any (k+1)-th.
        let per_job: Vec<usize> = specs
            .iter()
            .zip(&metas)
            .map(|(s, m)| s.iterations.max(1) as usize * m.blocks.len())
            .collect();
        let mut tasks = Vec::new();
        for k in 0..per_job.iter().copied().max().unwrap_or(0) {
            for (j, m) in metas.iter().enumerate() {
                if k < per_job[j] {
                    tasks.push((j, m.blocks[k % m.blocks.len()]));
                }
            }
        }

        // ---- Merged map phase -------------------------------------------
        let mut map_end = vec![submit; n_jobs];
        let mut queue = self.seed_queue(tasks, submit, |(_, b)| b.key);
        while let Some(task) = self.next_task(&mut queue) {
            let (exec, (j, block)) = (task.exec, task.item);
            reports[j].tasks_per_node[exec.index()] += 1;
            reports[j].map_tasks += 1;
            let holders = self.fs.block_holders(block.id).expect("block exists").to_vec();
            let read = self.read_input(
                exec,
                (block.key, block.size),
                &holders,
                task.slot_start,
                specs[j].reuse.cache_input,
                &mut reports[j],
            );
            let (_, end) = self.run_map(&task, read, costs[j].map_cpu_secs(block.size));
            map_end[j] = map_end[j].max(end.secs());
        }

        // ---- Per-job reduce phases --------------------------------------
        for (j, spec) in specs.iter().enumerate() {
            let reducers = spec.reducers.max(1);
            let passes = spec.iterations.max(1) as u64;
            let total_im = costs[j].intermediate_bytes(metas[j].size) * passes;
            reports[j].shuffle_bytes = total_im;
            let mut job_end = map_end[j];
            for r in 0..reducers {
                reports[j].reduce_tasks += 1;
                let node = self.reducer_node(r, reducers);
                let share = total_im / reducers as u64;
                // Shuffle push happened during the maps (proactive);
                // charge the reducer-side arrival as a latency from the
                // map end plus the pipeline residue.
                let ready = map_end[j];
                let read_done = if share > 0 {
                    self.cluster.mem_read(SimTime(ready), node.index(), share).secs()
                } else {
                    ready
                };
                let cpu = self.cluster.cpu_time(node.index(), costs[j].reduce_cpu_secs(share));
                let dur = (read_done - ready).max(0.0) + cpu;
                let (red_start, end) =
                    self.cluster.nodes[node.index()].reduce_slots.run(SimTime(ready), dur);
                self.log_task(TaskKind::Reduce, node.0, red_start.secs(), end.secs(), None);
                let out = costs[j].output_bytes(share);
                let mut end_t = end.secs();
                if out > 0 {
                    end_t += self.cluster.disk_latency(node.index(), out);
                }
                job_end = job_end.max(end_t);
            }
            reports[j].map_elapsed = map_end[j] - submit;
            reports[j].elapsed = job_end - submit;
        }
        self.clock = submit + reports.iter().map(|r| r.elapsed).fold(0.0, f64::max);
        reports
    }

    /// Admit a new server: fresh hardware in the simulator, a new ring
    /// position in the DHT FS (existing blocks stay put), a new cache
    /// shard, and re-cut scheduler and cache ranges. Returns the node id.
    pub fn join_node(&mut self, name: &str) -> NodeId {
        let idx = self.cluster.add_node();
        let id = NodeId(idx as u32);
        self.alive.push(true);
        self.page_cache.push(LruCache::new(self.cfg.page_cache_per_node));
        self.cache.add_node(self.cfg.cache_per_node);
        // Ring position by name hash — joiners cannot preserve even
        // spacing, and don't need to: consistent hashing moves only the
        // joiner's new arc.
        let mut info = eclipse_ring::ServerInfo::from_name(id, name);
        let mut salt = 0u32;
        while self.fs.ring().members().any(|s| s.key == info.key) {
            salt += 1;
            info = eclipse_ring::ServerInfo::from_name(id, format!("{name}+{salt}"));
        }
        self.fs.join(info).expect("fresh node id");
        self.cfg.cluster.nodes += 1;
        self.publish_membership();
        id
    }

    /// Kill a node: removes it from the ring, re-replicates its blocks
    /// (charging recovery traffic), and re-cuts the scheduler and cache
    /// ranges. Returns the simulated seconds the recovery copies took.
    pub fn fail_node(&mut self, node: NodeId) -> f64 {
        let plan = self.fs.fail_node(node).expect("node is a member");
        assert!(plan.lost.is_empty(), "the simulator models no data loss: {:?}", plan.lost);
        let start = self.clock;
        let mut done = start;
        for copy in &plan.copies {
            let read = self.cluster.disk_read(SimTime(start), copy.from.index(), copy.bytes);
            let moved =
                self.cluster.network.transfer(read, copy.from.index(), copy.to.index(), copy.bytes);
            let wrote = self.cluster.disk_read(SimTime(moved.secs()), copy.to.index(), copy.bytes);
            done = done.max(wrote.secs());
        }
        self.alive[node.index()] = false;
        self.publish_membership();
        self.clock = done;
        done - start
    }

    /// Re-derive everything that follows ring membership from the ring
    /// the DHT FS now holds: the scheduler's ranges and the cache's range
    /// table. The simulator's counterpart of the live executor's
    /// `publish_membership`, shared by join and failure.
    fn publish_membership(&mut self) {
        self.ring = self.fs.ring().clone();
        match &mut self.sched {
            Sched::Laf(laf) => laf.set_nodes(&self.ring),
            Sched::Delay(delay) => delay.set_nodes(&self.ring),
        }
        self.cache.set_ranges(self.owner_ranges().to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::MB;
    use eclipse_workloads::AppKind;

    fn sim(scheduler: SchedulerKind, nodes: usize) -> EclipseSim {
        EclipseSim::new(EclipseConfig::paper_defaults(scheduler).with_nodes(nodes))
    }

    fn laf() -> SchedulerKind {
        SchedulerKind::Laf(LafConfig::default())
    }

    fn delay() -> SchedulerKind {
        SchedulerKind::Delay(DelayConfig::default())
    }

    #[test]
    fn grep_runs_and_reports() {
        let mut s = sim(laf(), 8);
        s.upload("text", 4 * GB);
        let r = s.run_job(&JobSpec::batch(AppKind::Grep, "text"));
        assert_eq!(r.map_tasks, 32, "4 GB / 128 MB blocks");
        assert!(r.elapsed > 0.0);
        assert!(r.map_elapsed <= r.elapsed);
        let total_read: u64 = r.read_bytes.values().sum();
        assert_eq!(total_read, 4 * GB);
        assert_eq!(r.tasks_per_node.iter().sum::<u64>(), 32);
    }

    #[test]
    fn second_identical_job_hits_cache_and_speeds_up() {
        let mut s = sim(laf(), 8);
        s.upload("text", 2 * GB); // 16 blocks; 8 GB of cache cluster-wide
        let cold = s.run_job(&JobSpec::batch(AppKind::WordCount, "text"));
        let warm = s.run_job(&JobSpec::batch(AppKind::WordCount, "text"));
        assert_eq!(cold.cache_hits, 0);
        assert!(warm.cache_hits > 0, "second run must reuse iCache");
        assert!(warm.hit_ratio() > 0.8, "hit ratio {}", warm.hit_ratio());
        assert!(warm.elapsed <= cold.elapsed, "warm {} cold {}", warm.elapsed, cold.elapsed);
        assert!(warm.read_bytes.get("local_cache").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn laf_balances_better_than_delay_on_skew() {
        // A hot-spot trace: delay's static ranges overload the hot arc's
        // owner while LAF re-cuts ranges (and work-conserving pulls
        // spread the backlog).
        use eclipse_workloads::{AppKind, CostModel, KeyDist, KeySampler};
        let cost = CostModel::eclipse(AppKind::Grep);
        let mut stdevs = Vec::new();
        for kind in [laf(), delay()] {
            let mut s = EclipseSim::new(EclipseConfig::paper_defaults(kind).with_nodes(10));
            let mut sampler =
                KeySampler::new(KeyDist::Hotspot { center: 0.35, stddev: 0.02 }, 9);
            for _ in 0..8 {
                let trace = sampler.sample_n(300);
                s.run_trace(&trace, 8 * MB, &cost);
            }
            stdevs.push(s.tasks_per_slot_stdev());
        }
        assert!(
            stdevs[0] < stdevs[1],
            "laf stdev {} delay stdev {}",
            stdevs[0],
            stdevs[1]
        );
    }

    #[test]
    fn iterative_job_reports_per_iteration() {
        let mut s = sim(laf(), 8);
        s.upload("points", 2 * GB);
        let r = s.run_job(&JobSpec::iterative(AppKind::KMeans, "points", 5).with_reducers(8));
        assert_eq!(r.iteration_times.len(), 5);
        assert!(r.elapsed > 0.0);
        // Later iterations benefit from iCache (2 GB fits in 8 GB total).
        let first = r.iteration_times[0];
        let later = r.iteration_times[2];
        assert!(later < first, "iter3 {later} vs iter1 {first}");
        assert!((r.iteration_times.iter().sum::<f64>() - r.elapsed).abs() < 1e-6);
    }

    #[test]
    fn sort_shuffles_everything() {
        let mut s = sim(laf(), 4);
        s.upload("data", GB);
        let r = s.run_job(&JobSpec::batch(AppKind::Sort, "data").with_reducers(16));
        assert_eq!(r.shuffle_bytes, GB);
        let g = {
            let mut s2 = sim(laf(), 4);
            s2.upload("data", GB);
            s2.run_job(&JobSpec::batch(AppKind::Grep, "data").with_reducers(16))
        };
        assert!(g.shuffle_bytes < GB / 100);
    }

    #[test]
    fn concurrent_jobs_contend() {
        let mut s = sim(laf(), 4);
        s.upload("a", GB);
        s.upload("b", GB);
        let solo = {
            let mut s2 = sim(laf(), 4);
            s2.upload("a", GB);
            s2.run_job(&JobSpec::batch(AppKind::WordCount, "a")).elapsed
        };
        let reports = s.run_concurrent(&[
            JobSpec::batch(AppKind::WordCount, "a"),
            JobSpec::batch(AppKind::WordCount, "b"),
        ]);
        assert_eq!(reports.len(), 2);
        // Two jobs through the same slots: at least one must take longer
        // than the job running alone.
        let slowest = reports.iter().map(|r| r.elapsed).fold(0.0, f64::max);
        assert!(slowest > solo, "slowest {slowest} vs solo {solo}");
    }

    #[test]
    fn failure_recovery_charges_time_and_shrinks_ring() {
        let mut s = sim(laf(), 8);
        s.upload("data", 4 * GB);
        let victim = s.ring().node_ids()[3];
        let recovery = s.fail_node(victim);
        assert!(recovery > 0.0, "copies take time");
        assert_eq!(s.ring().len(), 7);
        // Jobs still run after the failure.
        let r = s.run_job(&JobSpec::batch(AppKind::Grep, "data"));
        assert_eq!(r.map_tasks, 32);
        assert!(r.tasks_per_node[victim.index()] == 0, "dead node got tasks");
    }

    #[test]
    fn failed_node_leaves_the_cache_range_table() {
        for kind in [laf(), delay()] {
            let mut s = sim(kind, 6);
            s.upload("data", 2 * GB);
            let victim = s.ring().node_ids()[2];
            s.fail_node(victim);
            let owns = |s: &EclipseSim| s.cache().ranges().iter().any(|(n, _)| *n == victim);
            assert!(!owns(&s), "the dead node still owns a cache range");
            s.run_job(&JobSpec::batch(AppKind::Grep, "data"));
            assert!(!owns(&s), "the dead node owns a cache range after a job");
        }
    }

    #[test]
    fn joined_node_receives_tasks() {
        let mut s = sim(laf(), 6);
        s.upload("data", 4 * GB);
        s.run_job(&JobSpec::batch(AppKind::Grep, "data"));
        let newbie = s.join_node("late-arrival");
        assert_eq!(s.ring().len(), 7);
        let r = s.run_job(&JobSpec::batch(AppKind::Grep, "data"));
        assert_eq!(r.read_bytes.values().sum::<u64>(), 4 * GB);
        assert!(
            r.tasks_per_node[newbie.index()] > 0,
            "joiner idle: {:?}",
            r.tasks_per_node
        );
        // New uploads place blocks on the joiner too.
        s.upload("fresh", 8 * GB);
        let holds_fresh = s
            .fs()
            .stat("fresh")
            .unwrap()
            .blocks
            .iter()
            .any(|b| s.fs().block_holders(b.id).unwrap().contains(&newbie));
        assert!(holds_fresh, "joiner owns no new blocks");
    }

    #[test]
    fn join_then_fail_round_trip() {
        let mut s = sim(laf(), 5);
        s.upload("data", 2 * GB);
        let newbie = s.join_node("n5");
        s.upload("after-join", 2 * GB);
        let recovery = s.fail_node(newbie);
        assert!(recovery >= 0.0);
        assert_eq!(s.ring().len(), 5);
        let r = s.run_job(&JobSpec::batch(AppKind::Grep, "after-join"));
        assert_eq!(r.read_bytes.values().sum::<u64>(), 2 * GB);
        assert_eq!(r.tasks_per_node[newbie.index()], 0);
    }

    #[test]
    fn zero_cache_still_works() {
        let mut s = EclipseSim::new(
            EclipseConfig::paper_defaults(laf()).with_nodes(4).with_cache(0),
        );
        s.upload("x", GB);
        let a = s.run_job(&JobSpec::batch(AppKind::Grep, "x"));
        let b = s.run_job(&JobSpec::batch(AppKind::Grep, "x"));
        assert_eq!(a.cache_hits + b.cache_hits, 0);
        assert!(b.elapsed > 0.0);
    }

    #[test]
    fn timeline_records_every_task() {
        let mut s = sim(laf(), 6);
        s.upload("data", 2 * GB);
        s.record_timeline();
        let r = s.run_job(&JobSpec::batch(AppKind::WordCount, "data").with_reducers(8));
        let t = s.timeline().expect("recording enabled");
        use crate::timeline::TaskKind;
        let maps = t.events.iter().filter(|e| e.kind == TaskKind::Map).count();
        let reduces = t.events.iter().filter(|e| e.kind == TaskKind::Reduce).count();
        assert_eq!(maps as u64, r.map_tasks);
        assert_eq!(reduces as u64, r.reduce_tasks);
        // Every span lies within the job window and is well-formed.
        for e in &t.events {
            assert!(e.end >= e.start);
            assert!(e.end <= r.elapsed + 1e-6, "task past job end");
        }
        // Map events carry read sources; cold run = disk.
        assert!(t
            .events
            .iter()
            .filter(|e| e.kind == TaskKind::Map)
            .all(|e| e.source.is_some()));
        // The utilization profile peaks above one busy task.
        let peak = t.utilization_profile(1.0).iter().map(|(_, b)| *b).max().unwrap();
        assert!(peak >= 2, "peak busy {peak}");
    }

    /// The trace and concurrent drivers record their tasks too: as many
    /// map and reduce events as their reports count.
    #[test]
    fn timeline_records_trace_and_concurrent_tasks() {
        use crate::timeline::TaskKind;
        use eclipse_workloads::{CostModel, KeyDist, KeySampler};
        let count = |s: &EclipseSim, kind: TaskKind| {
            let t = s.timeline().expect("recording enabled");
            t.events.iter().filter(|e| e.kind == kind).count() as u64
        };
        let mut s = sim(laf(), 6);
        s.record_timeline();
        let trace = KeySampler::new(KeyDist::Uniform, 3).sample_n(40);
        let r = s.run_trace(&trace, 8 * MB, &CostModel::eclipse(AppKind::Grep));
        assert_eq!((r.map_tasks, count(&s, TaskKind::Map)), (40, 40));
        assert_eq!(count(&s, TaskKind::Reduce), 0);

        let mut s = sim(laf(), 6);
        s.upload("data", GB);
        s.record_timeline();
        let reports = s.run_concurrent(&[JobSpec::batch(AppKind::WordCount, "data")]);
        assert_eq!(count(&s, TaskKind::Map), reports[0].map_tasks);
        assert_eq!(count(&s, TaskKind::Reduce), reports[0].reduce_tasks);
        assert!(reports[0].reduce_tasks > 0);
    }

    #[test]
    fn small_file_single_block() {
        let mut s = sim(laf(), 4);
        s.upload("tiny", 5 * MB);
        let r = s.run_job(&JobSpec::batch(AppKind::Grep, "tiny"));
        assert_eq!(r.map_tasks, 1);
    }
}
