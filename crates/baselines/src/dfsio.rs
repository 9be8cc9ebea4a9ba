//! DFSIO-style read benchmark over both file systems — the workload
//! behind Fig. 5.
//!
//! Fig. 5(a) reports `total bytes / map task execution time`: pure local
//! disk read latency, excluding "the overhead of NameNode directory
//! lookup and job scheduling" — both file systems look alike.
//! Fig. 5(b) reports `total bytes / job execution time`: the DHT FS has
//! "negligible overhead in decentralized directory lookup and job
//! scheduling, \[while\] Hadoop suffers from various overheads including
//! NameNode lookup, container initialization, and job scheduling."

use eclipse_dhtfs::{DhtFs, DhtFsConfig, HdfsFs, HdfsPlacement};
use eclipse_ring::Ring;
use eclipse_sim::{ClusterConfig, SerialResource, SimCluster, SimTime};
use eclipse_util::MB;

/// Combined master-path service time per Hadoop task: NameNode lookup +
/// ResourceManager container allocation + JobTracker-style bookkeeping.
/// Every task of every concurrent job funnels through this one queue —
/// the scalability cliff §III-A observes.
pub const HDFS_MASTER_OP_SECS: f64 = 0.05;

/// NameNode service-time amplification per additional concurrent job.
/// The FSNamesystem global lock and GC pressure make per-op latency grow
/// with offered load rather than stay constant; this convexity is what
/// makes HDFS throughput "degrade at a much faster rate" (§III-A) than
/// a decentralized lookup path, whose cost stays zero at any load.
pub const HDFS_MASTER_CONTENTION: f64 = 0.3;

/// Node-manager heartbeat interval: YARN allocates roughly one container
/// per node per heartbeat, so a wave of tasks destined for one node
/// starts staggered rather than simultaneously.
pub const NM_HEARTBEAT_SECS: f64 = 1.0;

/// Result of one DFSIO run.
#[derive(Clone, Copy, Debug)]
pub struct DfsioResult {
    /// Fig. 5(a): bytes / summed map-task read time, MB/s.
    pub per_task_throughput: f64,
    /// Fig. 5(b): per-job bytes / whole-batch wall time, MB/s — the
    /// figure the paper plots; under concurrency this is the average
    /// throughput each job experienced.
    pub per_job_throughput: f64,
}

/// DFSIO over the DHT file system on `nodes` servers reading
/// `total_bytes`. `concurrent_jobs` models the multi-job scalability
/// probe the paper mentions (§III-A's "multiple concurrent DFSIO jobs").
pub fn dfsio_dht(nodes: usize, total_bytes: u64, concurrent_jobs: usize) -> DfsioResult {
    let ring = Ring::with_servers_evenly_spaced(nodes, "dfsio");
    let mut fs = DhtFs::new(ring, DhtFsConfig::default());
    let mut cluster = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(nodes));
    let block = fs.config().block_size;

    let mut task_time_sum = 0.0;
    let mut job_end: f64 = 0.0;
    let mut bytes_done = 0u64;
    for j in 0..concurrent_jobs.max(1) {
        let name = format!("dfsio-{j}");
        let meta = fs.upload(&name, "bench", total_bytes).expect("upload").clone();
        for b in &meta.blocks {
            // Decentralized lookup: the reader resolves holders from its
            // own finger table — no shared queue, negligible cost. Reads
            // go to the least-loaded replica (owner, predecessor or
            // successor all hold the block, §II-A).
            let exec = fs
                .block_holders(b.id)
                .expect("placed")
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    // Reads are disk-bound: balance on disk backlog.
                    let fa = cluster.nodes[a.index()].disk.available_at(SimTime(0.0)).secs();
                    let fb = cluster.nodes[b.index()].disk.available_at(SimTime(0.0)).secs();
                    fa.partial_cmp(&fb).unwrap().then(a.cmp(&b))
                })
                .expect("replicated");
            let start = cluster.nodes[exec.index()]
                .map_slots
                .next_free(SimTime(0.0))
                .secs();
            let done = cluster.disk_read(SimTime(start), exec.index(), b.size).secs();
            let dur = done - start;
            cluster.nodes[exec.index()].map_slots.run(SimTime(0.0), dur);
            // Fig. 5(a) measures the read service time itself ("the read
            // latency of local disks"), not same-node queueing.
            task_time_sum += cluster.disk_latency(exec.index(), b.size);
            job_end = job_end.max(done);
            bytes_done += b.size;
        }
        let _ = block;
    }
    throughput(bytes_done, task_time_sum, job_end, nodes, concurrent_jobs.max(1))
}

/// DFSIO over HDFS: identical disks, but every block read queues a
/// NameNode RPC and pays per-task container/scheduling overhead.
pub fn dfsio_hdfs(
    nodes: usize,
    total_bytes: u64,
    concurrent_jobs: usize,
    container_overhead: f64,
) -> DfsioResult {
    let mut fs = HdfsFs::new(nodes, 2);
    let mut cluster = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(nodes));
    let jobs_f = concurrent_jobs.max(1) as f64;
    let op_secs = HDFS_MASTER_OP_SECS * (1.0 + HDFS_MASTER_CONTENTION * (jobs_f - 1.0));
    let mut master = SerialResource::new(1.0, op_secs);
    let block = eclipse_util::DEFAULT_BLOCK_SIZE;

    let mut task_time_sum = 0.0;
    let mut job_end: f64 = 0.0;
    let mut bytes_done = 0u64;
    for j in 0..concurrent_jobs.max(1) {
        let name = format!("dfsio-{j}");
        let meta = fs
            .upload(&name, "bench", total_bytes, block, HdfsPlacement::RoundRobin)
            .clone();
        let mut allocated = vec![0u64; nodes];
        for b in &meta.blocks {
            // Centralized path: NameNode lookup + container allocation,
            // all jobs queueing on the same master.
            let looked_up = master.reserve(SimTime(0.0), 0).secs();
            let exec = fs.block_locations(b.id).expect("placed")[0];
            // Containers arrive one per node-manager heartbeat.
            let paced = looked_up + allocated[exec.index()] as f64 * NM_HEARTBEAT_SECS;
            allocated[exec.index()] += 1;
            let start = cluster.nodes[exec.index()]
                .map_slots
                .next_free(SimTime(looked_up))
                .secs()
                .max(paced);
            // Container startup precedes the read (charged to the job,
            // not to the raw read). The read itself:
            let read_start = start + container_overhead;
            let done = cluster.disk_read(SimTime(read_start), exec.index(), b.size).secs();
            cluster.nodes[exec.index()].map_slots.run(SimTime(looked_up), done - start);
            // Fig. 5(a): pure read service time, overheads excluded.
            task_time_sum += cluster.disk_latency(exec.index(), b.size);
            job_end = job_end.max(done);
            bytes_done += b.size;
        }
    }
    throughput(bytes_done, task_time_sum, job_end, nodes, concurrent_jobs.max(1))
}

fn throughput(bytes: u64, task_time_sum: f64, job_end: f64, nodes: usize, jobs: usize) -> DfsioResult {
    // Fig. 5(a): per-disk stream bandwidth (bytes over summed task read
    // time) scaled by the cluster's parallel disks = aggregate bandwidth
    // while maps run.
    let per_task = if task_time_sum > 0.0 {
        bytes as f64 / task_time_sum * nodes as f64
    } else {
        0.0
    };
    // Fig. 5(b): per-job bandwidth over the whole batch wall time.
    let per_job = if job_end > 0.0 { bytes as f64 / jobs as f64 / job_end } else { 0.0 };
    DfsioResult {
        per_task_throughput: per_task / MB as f64,
        per_job_throughput: per_job / MB as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::GB;

    #[test]
    fn per_task_throughput_similar_between_filesystems() {
        // Fig. 5(a): "HDFS and DHT file system show similar IO
        // throughput" when only raw reads are measured.
        let dht = dfsio_dht(14, 14 * GB, 1);
        let hdfs = dfsio_hdfs(14, 14 * GB, 1, 7.0);
        let ratio = dht.per_task_throughput / hdfs.per_task_throughput;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn per_job_throughput_favors_dht() {
        // Fig. 5(b): overheads included, the DHT FS wins clearly.
        let dht = dfsio_dht(14, 14 * GB, 1);
        let hdfs = dfsio_hdfs(14, 14 * GB, 1, 7.0);
        assert!(
            dht.per_job_throughput > 1.4 * hdfs.per_job_throughput,
            "dht {} hdfs {}",
            dht.per_job_throughput,
            hdfs.per_job_throughput
        );
    }

    #[test]
    fn throughput_scales_with_nodes() {
        let small = dfsio_dht(6, 6 * GB, 1);
        let large = dfsio_dht(38, 38 * GB, 1);
        assert!(large.per_job_throughput > 2.0 * small.per_job_throughput);
    }

    #[test]
    fn hdfs_degrades_faster_under_concurrency() {
        // §III-A: with concurrent DFSIO jobs "the IO throughput of HDFS
        // degrades at a much faster rate than the DHT file system."
        let dht1 = dfsio_dht(38, 14 * GB, 1);
        let dht8 = dfsio_dht(38, 14 * GB, 8);
        let hdfs1 = dfsio_hdfs(38, 14 * GB, 1, 7.0);
        let hdfs8 = dfsio_hdfs(38, 14 * GB, 8, 7.0);
        // The DHT FS's advantage must widen with concurrency: the master
        // path saturates while decentralized lookups stay free.
        let advantage1 = dht1.per_job_throughput / hdfs1.per_job_throughput;
        let advantage8 = dht8.per_job_throughput / hdfs8.per_job_throughput;
        assert!(
            advantage8 > advantage1,
            "advantage at 8 jobs {advantage8} vs 1 job {advantage1}"
        );
    }
}
