//! The simulated cluster: per-node disks, memory channels and task slots
//! plus the shared network fabric, calibrated to the paper's testbed
//! (40 nodes, dual quad-core Xeon E5506, 20 GB RAM, one 7200 rpm HDD for
//! the DHT FS / HDFS, 8 map + 8 reduce slots per node).

use crate::network::{Network, NetworkConfig};
use crate::resource::{SerialResource, SlotPool};
use crate::time::SimTime;
use eclipse_util::MB;

/// Calibration constants for one node.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// HDD sequential throughput, bytes/s (7200 rpm ≈ 100 MB/s).
    pub disk_bw: f64,
    /// Per-request disk positioning cost, seconds (~8 ms).
    pub disk_seek: f64,
    /// Memory bandwidth for cache reads, bytes/s (~4 GB/s effective).
    pub mem_bw: f64,
    /// Map task slots (8 in the paper).
    pub map_slots: usize,
    /// Reduce task slots (8 in the paper).
    pub reduce_slots: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            disk_bw: 100.0 * MB as f64,
            disk_seek: 0.008,
            mem_bw: 4096.0 * MB as f64,
            map_slots: 8,
            reduce_slots: 8,
        }
    }
}

/// One simulated server.
#[derive(Clone, Debug)]
pub struct SimNode {
    pub disk: SerialResource,
    pub memory: SerialResource,
    pub map_slots: SlotPool,
    pub reduce_slots: SlotPool,
}

impl SimNode {
    pub fn new(cfg: NodeConfig) -> SimNode {
        SimNode {
            disk: SerialResource::new(cfg.disk_bw, cfg.disk_seek),
            memory: SerialResource::new(cfg.mem_bw, 0.0),
            map_slots: SlotPool::new(cfg.map_slots),
            reduce_slots: SlotPool::new(cfg.reduce_slots),
        }
    }
}

/// Whole-cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    pub nodes: usize,
    pub node: NodeConfig,
    pub network: NetworkConfig,
}

impl ClusterConfig {
    /// The paper's 40-node testbed.
    pub fn paper_testbed() -> ClusterConfig {
        ClusterConfig { nodes: 40, node: NodeConfig::default(), network: NetworkConfig::default() }
    }

    /// A testbed with a different node count but the same hardware
    /// (used by the Fig. 5 node-count sweep: 6..38 nodes).
    pub fn paper_testbed_with_nodes(nodes: usize) -> ClusterConfig {
        ClusterConfig { nodes, ..Self::paper_testbed() }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

/// The simulated cluster state.
#[derive(Clone, Debug)]
pub struct SimCluster {
    cfg: ClusterConfig,
    pub nodes: Vec<SimNode>,
    pub network: Network,
    /// Per-node CPU speed multiplier (1.0 = nominal; 0.5 = half speed).
    /// Heterogeneous clusters are the straggler setting the MapReduce
    /// skew literature targets.
    speed: Vec<f64>,
}

impl SimCluster {
    pub fn new(cfg: ClusterConfig) -> SimCluster {
        Self::with_speeds(cfg, &[])
    }

    /// Build with explicit per-node CPU speed factors (padded with 1.0).
    pub fn with_speeds(cfg: ClusterConfig, speeds: &[f64]) -> SimCluster {
        assert!(cfg.nodes > 0);
        let mut speed: Vec<f64> = speeds.to_vec();
        speed.resize(cfg.nodes, 1.0);
        assert!(speed.iter().all(|&s| s > 0.0), "speed factors must be positive");
        SimCluster {
            cfg,
            nodes: (0..cfg.nodes).map(|_| SimNode::new(cfg.node)).collect(),
            network: Network::new(cfg.nodes, cfg.network),
            speed,
        }
    }

    /// CPU speed factor of `node`.
    pub fn speed_of(&self, node: usize) -> f64 {
        self.speed[node]
    }

    /// Seconds of wall time `cpu_secs` of nominal CPU work takes on
    /// `node`.
    pub fn cpu_time(&self, node: usize, cpu_secs: f64) -> f64 {
        cpu_secs / self.speed[node]
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Admit a new node with the cluster's standard hardware; returns
    /// its index.
    pub fn add_node(&mut self) -> usize {
        self.nodes.push(SimNode::new(self.cfg.node));
        self.speed.push(1.0);
        let id = self.network.add_node();
        debug_assert_eq!(id + 1, self.nodes.len());
        id
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.map_slots.slots()).sum()
    }

    /// Read `bytes` from `node`'s local disk starting at `now`.
    pub fn disk_read(&mut self, now: SimTime, node: usize, bytes: u64) -> SimTime {
        self.nodes[node].disk.reserve(now, bytes)
    }

    /// Read `bytes` from `node`'s in-memory cache starting at `now`.
    pub fn mem_read(&mut self, now: SimTime, node: usize, bytes: u64) -> SimTime {
        self.nodes[node].memory.reserve(now, bytes)
    }

    /// Move `bytes` from `from`'s disk to `to`'s memory: a remote block
    /// fetch. Disk read then network transfer, pipelined (the slower of
    /// the two stages dominates; we serialize them which matches HDFS-
    /// style block fetches closely enough at 128 MB granularity).
    pub fn remote_disk_read(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        let after_disk = self.nodes[from].disk.reserve(now, bytes);
        self.network.transfer(after_disk, from, to, bytes)
    }

    /// Move `bytes` from `from`'s memory to `to`'s memory: a remote cache
    /// hit (EclipseMR reads remote cached data directly, §III-F).
    pub fn remote_mem_read(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        let after_mem = self.nodes[from].memory.reserve(now, bytes);
        self.network.transfer(after_mem, from, to, bytes)
    }

    /// Latency of a disk transfer without reserving the device. Use for
    /// small asynchronous writes that happen chronologically *between*
    /// already-reserved operations — reserving them out of order would
    /// corrupt the FIFO horizon model.
    pub fn disk_latency(&self, _node: usize, bytes: u64) -> f64 {
        self.cfg.node.disk_seek + bytes as f64 / self.cfg.node.disk_bw
    }

    /// Latency of a network transfer without reserving the path.
    pub fn net_latency(&self, from: usize, to: usize, bytes: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        self.cfg.network.latency + bytes as f64 / self.cfg.network.nic_bw
    }

    /// Largest completion horizon across all node resources — the
    /// simulation makespan.
    pub fn makespan(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for n in &self.nodes {
            t = t.max(n.map_slots.makespan()).max(n.reduce_slots.makespan());
        }
        t
    }

    /// Tasks-per-slot counts over every map slot in the cluster (the
    /// paper's §III-C load-balance metric).
    pub fn map_tasks_per_slot(&self) -> Vec<u64> {
        self.nodes.iter().flat_map(|n| n.map_slots.tasks_per_slot().iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let c = SimCluster::new(ClusterConfig::paper_testbed());
        assert_eq!(c.len(), 40);
        assert_eq!(c.total_map_slots(), 320);
        assert_eq!(c.network.racks(), 2);
    }

    #[test]
    fn disk_read_rate() {
        let mut c = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(2));
        // 100 MB at 100 MB/s + 8 ms seek ≈ 1.008 s.
        let t = c.disk_read(SimTime(0.0), 0, 100 * MB);
        assert!((t.secs() - 1.008).abs() < 1e-9, "{t}");
    }

    #[test]
    fn mem_faster_than_disk() {
        let mut c = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(2));
        let td = c.disk_read(SimTime(0.0), 0, 128 * MB);
        let tm = c.mem_read(SimTime(0.0), 1, 128 * MB);
        assert!(tm.secs() < td.secs() / 10.0);
    }

    #[test]
    fn remote_read_crosses_network() {
        let mut c = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(4));
        let local = c.disk_read(SimTime(0.0), 0, 128 * MB).secs();
        let mut c2 = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(4));
        let remote = c2.remote_disk_read(SimTime(0.0), 0, 1, 128 * MB).secs();
        // Remote read = disk + network, strictly slower than local.
        assert!(remote > local);
        // Roughly disk (1.29s) + net (1.09s).
        assert!(remote > 2.0 && remote < 3.0, "remote {remote}");
    }

    #[test]
    fn remote_mem_read_beats_remote_disk() {
        let mut a = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(4));
        let mem = a.remote_mem_read(SimTime(0.0), 0, 1, 128 * MB).secs();
        let mut b = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(4));
        let disk = b.remote_disk_read(SimTime(0.0), 0, 1, 128 * MB).secs();
        assert!(mem < disk);
    }

    #[test]
    fn heterogeneous_speeds() {
        let c = SimCluster::with_speeds(
            ClusterConfig::paper_testbed_with_nodes(3),
            &[1.0, 0.5],
        );
        assert_eq!(c.speed_of(0), 1.0);
        assert_eq!(c.speed_of(1), 0.5);
        assert_eq!(c.speed_of(2), 1.0, "padded to nominal");
        assert_eq!(c.cpu_time(0, 10.0), 10.0);
        assert_eq!(c.cpu_time(1, 10.0), 20.0, "half-speed node takes twice as long");
    }

    #[test]
    fn makespan_tracks_slots() {
        let mut c = SimCluster::new(ClusterConfig::paper_testbed_with_nodes(2));
        assert_eq!(c.makespan().secs(), 0.0);
        c.nodes[1].map_slots.run(SimTime(0.0), 42.0);
        assert_eq!(c.makespan().secs(), 42.0);
    }
}
