//! HDFS control-plane model — the comparison file system for Fig. 5.
//!
//! Differences from the DHT FS that the paper's evaluation exercises:
//!
//! * **Central NameNode.** Every open and every block-location lookup is
//!   a round trip to one server whose service capacity is finite; under
//!   concurrent jobs it saturates ("the IO throughput of HDFS degrades at
//!   a much faster rate than the DHT file system", §III-A).
//! * **Writer-local placement.** The first replica of each block lands on
//!   the writing client's node (classic HDFS policy), the remaining
//!   replicas on other nodes — this is exactly the input-block skew
//!   source the paper attributes to Hadoop (§I, §II-E).

use crate::meta::{BlockId, FileMetadata};
use eclipse_ring::NodeId;
use std::collections::HashMap;

/// Where HDFS places block primaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HdfsPlacement {
    /// All primaries on the writer's node (default HDFS behaviour for a
    /// single uploading client; produces block-level skew).
    WriterLocal(NodeId),
    /// Primaries rotate over the nodes (a well-balanced ingest, e.g.
    /// distcp from many clients).
    RoundRobin,
}

/// NameNode cost constants.
#[derive(Clone, Copy, Debug)]
pub struct NameNodeConfig {
    /// Service time per metadata operation, seconds. The NameNode is a
    /// serial resource: concurrent lookups queue.
    pub op_service_time: f64,
}

impl Default for NameNodeConfig {
    fn default() -> Self {
        NameNodeConfig { op_service_time: 0.002 }
    }
}

/// HDFS control plane.
#[derive(Clone, Debug)]
pub struct HdfsFs {
    nodes: usize,
    replicas: usize,
    files: HashMap<String, FileMetadata>,
    locations: HashMap<BlockId, Vec<NodeId>>,
    /// Count of NameNode metadata operations (lookup load).
    namenode_ops: u64,
    rr_cursor: usize,
}

impl HdfsFs {
    pub fn new(nodes: usize, replicas: usize) -> HdfsFs {
        assert!(nodes > 0);
        HdfsFs {
            nodes,
            replicas,
            files: HashMap::new(),
            locations: HashMap::new(),
            namenode_ops: 0,
            rr_cursor: 0,
        }
    }

    pub fn namenode_ops(&self) -> u64 {
        self.namenode_ops
    }

    /// Upload a file under the given placement policy.
    pub fn upload(
        &mut self,
        name: &str,
        owner: &str,
        size: u64,
        block_size: u64,
        placement: HdfsPlacement,
    ) -> &FileMetadata {
        assert!(!self.files.contains_key(name), "file exists: {name}");
        let meta = FileMetadata::partition(name, owner, size, block_size);
        self.namenode_ops += 1 + meta.blocks.len() as u64; // create + addBlock per block
        for b in &meta.blocks {
            let primary = match placement {
                HdfsPlacement::WriterLocal(w) => w,
                HdfsPlacement::RoundRobin => {
                    let p = NodeId((self.rr_cursor % self.nodes) as u32);
                    self.rr_cursor += 1;
                    p
                }
            };
            let mut holders = vec![primary];
            // Remaining replicas: deterministic spread derived from the
            // block key (stand-in for HDFS's random rack-aware choice).
            let mut probe = b.key.0;
            while holders.len() < (self.replicas + 1).min(self.nodes) {
                probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let cand = NodeId((probe % self.nodes as u64) as u32);
                if !holders.contains(&cand) {
                    holders.push(cand);
                }
            }
            self.locations.insert(b.id, holders);
        }
        self.files.insert(name.to_string(), meta);
        &self.files[name]
    }

    /// Metadata lookup — one NameNode round trip.
    pub fn open(&mut self, name: &str) -> Option<&FileMetadata> {
        self.namenode_ops += 1;
        self.files.get(name)
    }

    /// Block locations — one NameNode round trip per call (getBlockLocations).
    pub fn block_locations(&mut self, id: BlockId) -> Option<&[NodeId]> {
        self.namenode_ops += 1;
        self.locations.get(&id).map(|v| v.as_slice())
    }

    /// Locations without charging a NameNode op (already-cached client
    /// handles).
    pub fn block_locations_cached(&self, id: BlockId) -> Option<&[NodeId]> {
        self.locations.get(&id).map(|v| v.as_slice())
    }

    /// Per-node primary-block counts — the skew the paper's LAF fix
    /// targets.
    pub fn primary_blocks_per_node(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.nodes];
        for holders in self.locations.values() {
            counts[holders[0].index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::{GB, MB};

    #[test]
    fn writer_local_placement_skews_primaries() {
        let mut fs = HdfsFs::new(8, 2);
        fs.upload("f", "u", GB, 128 * MB, HdfsPlacement::WriterLocal(NodeId(3)));
        let counts = fs.primary_blocks_per_node();
        assert_eq!(counts[3], 8, "all primaries on the writer");
        assert_eq!(counts.iter().sum::<u64>(), 8);
    }

    #[test]
    fn round_robin_placement_balances_primaries() {
        let mut fs = HdfsFs::new(8, 2);
        fs.upload("f", "u", GB, 128 * MB, HdfsPlacement::RoundRobin);
        let counts = fs.primary_blocks_per_node();
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn replica_sets_distinct() {
        let mut fs = HdfsFs::new(10, 2);
        let meta = fs.upload("f", "u", 2 * GB, 128 * MB, HdfsPlacement::RoundRobin).clone();
        for b in &meta.blocks {
            let locs = fs.block_locations_cached(b.id).unwrap();
            assert_eq!(locs.len(), 3);
            let mut uniq = locs.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
    }

    #[test]
    fn namenode_ops_accumulate() {
        let mut fs = HdfsFs::new(4, 2);
        let before = fs.namenode_ops();
        let meta = fs.upload("f", "u", 256 * MB, 128 * MB, HdfsPlacement::RoundRobin).clone();
        assert_eq!(fs.namenode_ops(), before + 3, "create + 2 addBlock");
        fs.open("f");
        fs.block_locations(meta.blocks[0].id);
        assert_eq!(fs.namenode_ops(), before + 5);
        // Cached lookups are free.
        fs.block_locations_cached(meta.blocks[0].id);
        assert_eq!(fs.namenode_ops(), before + 5);
    }

    #[test]
    fn replicas_clamped_to_cluster() {
        let mut fs = HdfsFs::new(2, 2);
        let meta = fs.upload("f", "u", 128 * MB, 128 * MB, HdfsPlacement::RoundRobin).clone();
        assert_eq!(fs.block_locations_cached(meta.blocks[0].id).unwrap().len(), 2);
    }
}
