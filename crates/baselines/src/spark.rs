//! Spark 1.x comparison model (the paper's §III-E/§III-F baseline).
//!
//! Mechanisms modeled, each one the paper names when explaining a
//! result:
//!
//! * **RDD construction on the first iteration** — "Spark runs the first
//!   iteration of the iterative applications much slower than subsequent
//!   iterations because it constructs RDDs" (§III-F).
//! * **In-memory RDD partitions** — subsequent iterations read cached
//!   partitions at memory speed and skip the input re-read; iteration
//!   outputs stay in memory (no DHT-FS write), which is why Spark wins
//!   subsequent page rank iterations.
//! * **Delay scheduling** — a task waits up to 5 s for the node holding
//!   its cached partition.
//! * **Central driver / cache manager** — every task launch is a round
//!   trip through one serial resource.
//! * **Sort-based shuffle through local disk** — Spark 1.x writes
//!   shuffle files to disk and fetches after the map side completes;
//!   "Spark is known to perform worse than Hadoop for sort" (§III-E).
//! * **Final-output write** — "Spark runs page rank slower than
//!   EclipseMR in the last iteration because Spark writes its final
//!   outputs to disk storage" (§III-F).
//! * **JVM compute rates** — [`CostModel::jvm`].

use eclipse_core::{JobReport, JobSpec, ReadSource};
use eclipse_dhtfs::{HdfsFs, HdfsPlacement};
use eclipse_sim::{ClusterConfig, SerialResource, SimCluster, SimTime};
use eclipse_util::HashKey;
use eclipse_workloads::CostModel;

/// Spark model configuration.
#[derive(Clone, Copy, Debug)]
pub struct SparkConfig {
    pub cluster: ClusterConfig,
    /// Per-job executor/driver startup seconds.
    pub job_overhead: f64,
    /// Per-task launch overhead seconds (driver round trip + deserialize).
    pub task_overhead: f64,
    /// Delay-scheduling wait for a cached partition's node, seconds.
    pub locality_wait: f64,
    /// Extra CPU multiplier on the RDD-building first pass.
    pub rdd_build_factor: f64,
    /// RDD storage bytes per executor (per node).
    pub rdd_memory_per_node: u64,
    pub replicas: usize,
    pub block_size: u64,
}

impl SparkConfig {
    pub fn paper_defaults() -> SparkConfig {
        SparkConfig {
            cluster: ClusterConfig::paper_testbed(),
            job_overhead: 4.0,
            task_overhead: 0.3,
            locality_wait: 5.0,
            rdd_build_factor: 1.6,
            rdd_memory_per_node: 8 * eclipse_util::GB,
            replicas: 2,
            block_size: eclipse_util::DEFAULT_BLOCK_SIZE,
        }
    }

    pub fn with_nodes(mut self, nodes: usize) -> SparkConfig {
        self.cluster.nodes = nodes;
        self
    }
}

/// Simulated Spark deployment.
pub struct SparkSim {
    cfg: SparkConfig,
    cluster: SimCluster,
    hdfs: HdfsFs,
    /// Driver (task launch + central cache-manager metadata).
    driver: SerialResource,
    /// Per-node RDD block store (metered LRU).
    rdd_store: Vec<eclipse_cache::LruCache<HashKey>>,
    /// Which node cached which partition (central cache manager's map).
    partition_home: std::collections::HashMap<HashKey, usize>,
    clock: f64,
}

impl SparkSim {
    pub fn new(cfg: SparkConfig) -> SparkSim {
        SparkSim {
            cfg,
            cluster: SimCluster::new(cfg.cluster),
            hdfs: HdfsFs::new(cfg.cluster.nodes, cfg.replicas),
            driver: SerialResource::new(1.0, 0.002),
            rdd_store: (0..cfg.cluster.nodes)
                .map(|_| eclipse_cache::LruCache::new(cfg.rdd_memory_per_node))
                .collect(),
            partition_home: std::collections::HashMap::new(),
            clock: 0.0,
        }
    }

    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The underlying simulated cluster (diagnostics).
    pub fn cluster(&self) -> &eclipse_sim::SimCluster {
        &self.cluster
    }

    pub fn upload(&mut self, name: &str, bytes: u64) {
        self.hdfs.upload(name, "hibench", bytes, self.cfg.block_size, HdfsPlacement::RoundRobin);
    }

    /// One MapReduce-equivalent Spark stage pair (map stage + reduce
    /// stage). `iter` is the iteration index; `last` marks the final
    /// iteration (output write).
    fn run_round(
        &mut self,
        spec: &JobSpec,
        cost: &CostModel,
        submit: f64,
        iter: u32,
        last: bool,
    ) -> JobReport {
        let mut report = JobReport::default();
        let nodes = self.cfg.cluster.nodes;
        report.tasks_per_node = vec![0; nodes];
        let meta = self.hdfs.open(&spec.input).expect("input uploaded").clone();
        let reducers = spec.reducers.max(1);
        let t0 = submit + if iter == 0 { self.cfg.job_overhead } else { 0.0 };

        // ---- Map stage ----------------------------------------------------
        let mut map_phase_end = t0;
        let mut map_outputs: Vec<(usize, u64, f64)> = Vec::with_capacity(meta.blocks.len());
        for block in &meta.blocks {
            // Driver launches the task (central bottleneck).
            let launched = self.driver.reserve(SimTime(t0), 0).secs();
            report.map_tasks += 1;
            // Preferred node: cached partition holder, else an HDFS
            // replica holder.
            let cached_at = self.partition_home.get(&block.key).copied();
            let holders = self.hdfs.block_locations_cached(block.id).expect("registered").to_vec();
            let preferred =
                cached_at.unwrap_or_else(|| holders.first().map(|n| n.index()).unwrap_or(0));
            let frees: Vec<f64> = (0..nodes)
                .map(|n| self.cluster.nodes[n].map_slots.next_free(SimTime(launched)).secs())
                .collect();
            // Delay scheduling: wait up to locality_wait for the
            // preferred node, then take the earliest-free node.
            let (exec, effective_start) = if frees[preferred] - launched
                <= self.cfg.locality_wait
            {
                // Free now, or free soon enough that delay scheduling
                // waits for the preferred (cache-local) node.
                (preferred, launched)
            } else {
                let fallback = (0..nodes)
                    .min_by(|&a, &b| frees[a].partial_cmp(&frees[b]).unwrap().then(a.cmp(&b)))
                    .unwrap();
                (fallback, launched + self.cfg.locality_wait)
            };
            report.tasks_per_node[exec] += 1;

            let slot_start =
                self.cluster.nodes[exec].map_slots.next_free(SimTime(effective_start)).secs();
            // Data acquisition.
            report.cache_lookups += 1;
            let (io_done, cpu_mult) = if cached_at == Some(exec)
                && self.rdd_store[exec].get(&block.key, slot_start).is_some()
            {
                report.cache_hits += 1;
                report.record_read(ReadSource::LocalCache, block.size);
                (self.cluster.mem_read(SimTime(slot_start), exec, block.size).secs(), 1.0)
            } else if let Some(home) = cached_at.filter(|&h| {
                h != exec && self.rdd_store[h].contains(&block.key, slot_start)
            }) {
                // Remote cached partition fetch.
                report.cache_hits += 1;
                report.record_read(ReadSource::RemoteCache, block.size);
                self.rdd_store[home].get(&block.key, slot_start);
                (
                    self.cluster.remote_mem_read(SimTime(slot_start), home, exec, block.size).secs(),
                    1.0,
                )
            } else {
                // Cold: read from HDFS and build the RDD partition.
                let src = if holders.iter().any(|h| h.index() == exec) {
                    report.record_read(ReadSource::LocalDisk, block.size);
                    self.cluster.disk_read(SimTime(slot_start), exec, block.size).secs()
                } else {
                    report.record_read(ReadSource::RemoteDisk, block.size);
                    self.cluster
                        .remote_disk_read(SimTime(slot_start), holders[0].index(), exec, block.size)
                        .secs()
                };
                if spec.reuse.cache_input {
                    self.rdd_store[exec].put(block.key, block.size, slot_start, None);
                    self.partition_home.insert(block.key, exec);
                }
                (src, self.cfg.rdd_build_factor)
            };
            let cpu = self.cfg.task_overhead + cost.map_cpu_secs(block.size) * cpu_mult;
            let dur = (io_done - slot_start).max(0.0) + cpu;
            let (_, end) =
                self.cluster.nodes[exec].map_slots.run(SimTime(effective_start), dur);
            map_phase_end = map_phase_end.max(end.secs());

            // Sort-based shuffle: map output written to local disk
            // (latency-only; see the Hadoop model for why no FIFO
            // reservation).
            let im = cost.intermediate_bytes(block.size);
            if im > 0 {
                let wrote = end.secs() + self.cluster.disk_latency(exec, im);
                map_outputs.push((exec, im, wrote));
            } else {
                map_outputs.push((exec, 0, end.secs()));
            }
        }
        report.map_elapsed = map_phase_end - submit;

        // ---- Shuffle fetch + reduce stage ----------------------------------
        let mut shuffle_total = 0u64;
        let total_im = cost.intermediate_bytes(meta.size);
        let mut job_end = map_phase_end;
        for r in 0..reducers {
            report.reduce_tasks += 1;
            let dest = r % nodes;
            let mut ready = map_phase_end;
            for &(src, im, out_done) in &map_outputs {
                let share = im / reducers as u64;
                if share == 0 {
                    continue;
                }
                shuffle_total += share;
                let start = out_done.max(map_phase_end);
                let read = self.cluster.disk_read(SimTime(start), src, share);
                let arrived = self.cluster.network.transfer(read, src, dest, share);
                ready = ready.max(arrived.secs());
            }
            let share = total_im / reducers as u64;
            let cpu = self.cfg.task_overhead + cost.reduce_cpu_secs(share);
            let (_, end) = self.cluster.nodes[dest].reduce_slots.run(SimTime(ready), cpu);
            let mut end_t = end.secs();
            // Iteration outputs stay in executor memory; only the final
            // round writes to stable storage. Latency-only: reducer
            // writes interleave chronologically with other reducers'
            // fetches on the same disks.
            if last {
                let out = cost
                    .output_bytes(share)
                    .max(cost.iter_output_bytes(meta.size) / reducers as u64);
                if out > 0 {
                    end_t += self.cluster.disk_latency(dest, out);
                }
            }
            job_end = job_end.max(end_t);
        }
        report.shuffle_bytes = shuffle_total;
        report.elapsed = job_end - submit;
        report
    }

    /// Run a (possibly iterative) job.
    pub fn run_job(&mut self, spec: &JobSpec) -> JobReport {
        let cost = CostModel::jvm(spec.app);
        let submit = self.clock;
        let iters = spec.iterations.max(1);
        if iters == 1 {
            let r = self.run_round(spec, &cost, submit, 0, true);
            self.clock = submit + r.elapsed;
            return r;
        }
        let mut combined = JobReport::default();
        let mut at = submit;
        for iter in 0..iters {
            let r = self.run_round(spec, &cost, at, iter, iter + 1 == iters);
            at += r.elapsed;
            combined.absorb(r);
        }
        combined.elapsed = at - submit;
        self.clock = at;
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::GB;
    use eclipse_workloads::AppKind;

    fn spark(nodes: usize) -> SparkSim {
        SparkSim::new(SparkConfig::paper_defaults().with_nodes(nodes))
    }

    #[test]
    fn first_iteration_slower_than_subsequent() {
        let mut s = spark(8);
        s.upload("pts", 4 * GB);
        let r = s.run_job(&JobSpec::iterative(AppKind::KMeans, "pts", 5));
        assert_eq!(r.iteration_times.len(), 5);
        let first = r.iteration_times[0];
        let mid = r.iteration_times[2];
        assert!(
            mid < first * 0.8,
            "RDD build must make iter0 slow: first {first} mid {mid}"
        );
    }

    #[test]
    fn rdd_cache_hits_on_later_iterations() {
        let mut s = spark(8);
        s.upload("pts", 2 * GB);
        let r = s.run_job(&JobSpec::iterative(AppKind::KMeans, "pts", 3));
        assert!(r.cache_hits > 0);
        // 16 blocks × 2 warm iterations — all from RDD cache.
        assert_eq!(r.cache_hits, 32);
    }

    #[test]
    fn last_pagerank_iteration_pays_output_write() {
        let mut s = spark(8);
        s.upload("graph", 2 * GB);
        let r = s.run_job(&JobSpec::iterative(AppKind::PageRank, "graph", 5).with_reducers(16));
        let mid = r.iteration_times[2];
        let last = *r.iteration_times.last().unwrap();
        assert!(last > mid, "final write: mid {mid} last {last}");
    }

    #[test]
    fn delay_scheduling_prefers_cached_partition_homes() {
        let mut s = spark(8);
        s.upload("pts", 2 * GB);
        let spec = JobSpec::iterative(AppKind::KMeans, "pts", 3);
        let r = s.run_job(&spec);
        // After iteration 1 caches the partitions, tasks re-land where
        // their partitions live: local cache hits, no remote fetches.
        assert_eq!(
            r.read_bytes.get("remote_cache").copied().unwrap_or(0),
            0,
            "{:?}",
            r.read_bytes
        );
        assert!(r.read_bytes.get("local_cache").copied().unwrap_or(0) >= 2 * 2 * GB);
    }

    #[test]
    fn driver_serializes_task_launches() {
        // The central driver is a queue: a huge task count stretches the
        // launch ramp measurably.
        let mut small = spark(8);
        small.upload("d", 2 * GB);
        let t_small = small.run_job(&JobSpec::batch(AppKind::Grep, "d")).elapsed;
        let mut big = spark(8);
        big.upload("d", 64 * GB);
        let t_big = big.run_job(&JobSpec::batch(AppKind::Grep, "d")).elapsed;
        assert!(t_big > t_small, "more tasks, more driver work: {t_big} vs {t_small}");
    }

    #[test]
    fn rdd_memory_pressure_evicts() {
        // RDD store smaller than the dataset: later iterations cannot be
        // fully cached, so cold reads persist.
        let mut cfg = SparkConfig::paper_defaults().with_nodes(4);
        cfg.rdd_memory_per_node = eclipse_util::GB / 2; // 2 GB total
        let mut s = SparkSim::new(cfg);
        s.upload("pts", 8 * GB);
        let r = s.run_job(&JobSpec::iterative(AppKind::KMeans, "pts", 3));
        let disk_reads = r.read_bytes.get("local_disk").copied().unwrap_or(0)
            + r.read_bytes.get("remote_disk").copied().unwrap_or(0);
        assert!(
            disk_reads > 8 * GB,
            "evictions force re-reads beyond the first pass: {:?}",
            r.read_bytes
        );
    }

    #[test]
    fn batch_job_runs() {
        let mut s = spark(4);
        s.upload("text", GB);
        let r = s.run_job(&JobSpec::batch(AppKind::Grep, "text"));
        assert_eq!(r.map_tasks, 8);
        assert!(r.elapsed > 0.0);
    }

    #[test]
    fn iterative_report_sums_map_time() {
        let mut s = spark(4);
        s.upload("pts", GB);
        let r = s.run_job(&JobSpec::iterative(AppKind::KMeans, "pts", 3));
        assert!(r.map_elapsed > 0.0, "map time lost in the merge");
        assert!(r.map_elapsed <= r.elapsed, "map {} of {}", r.map_elapsed, r.elapsed);
    }
}
