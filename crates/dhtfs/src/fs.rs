//! The decentralized DHT file system: placement, metadata service,
//! replication and failure recovery.
//!
//! This is the *control plane* — pure placement state driven by both the
//! live executor and the simulator. Actual block payloads for the live
//! executor live in [`crate::store::BlockStore`].

use crate::meta::{BlockId, FileMetadata};
use eclipse_ring::{NodeId, Ring, RingError};
use eclipse_util::HashKey;
use std::collections::{BTreeMap, HashMap};

/// Errors surfaced by the DHT file system.
#[derive(Clone, Debug, PartialEq)]
pub enum FsError {
    Ring(RingError),
    FileExists(String),
    FileNotFound(String),
    /// Permission check failed at the metadata owner.
    PermissionDenied { file: String, user: String },
    BlockNotFound(BlockId),
    /// All replicas of a block were lost (owner + predecessor + successor
    /// failed together — beyond the paper's fault model).
    DataLoss(BlockId),
}

impl From<RingError> for FsError {
    fn from(e: RingError) -> Self {
        FsError::Ring(e)
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Ring(e) => write!(f, "ring error: {e}"),
            FsError::FileExists(n) => write!(f, "file already exists: {n}"),
            FsError::FileNotFound(n) => write!(f, "file not found: {n}"),
            FsError::PermissionDenied { file, user } => {
                write!(f, "user {user} may not access {file}")
            }
            FsError::BlockNotFound(b) => write!(f, "block not found: {b:?}"),
            FsError::DataLoss(b) => write!(f, "all replicas lost for block {b:?}"),
        }
    }
}

impl std::error::Error for FsError {}

/// A single re-replication step in a recovery plan: copy `bytes` of block
/// `block` from `from` to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryCopy {
    pub block: BlockId,
    pub bytes: u64,
    pub from: NodeId,
    pub to: NodeId,
}

/// What a node failure leaves to do: the copies that restore every
/// surviving block's replication, and the blocks whose every holder
/// failed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailurePlan {
    pub copies: Vec<RecoveryCopy>,
    /// Blocks with no copy left anywhere, in block order.
    pub lost: Vec<BlockId>,
}

/// Configuration for the DHT FS.
#[derive(Clone, Copy, Debug)]
pub struct DhtFsConfig {
    pub block_size: u64,
    /// Extra replicas per block/metadata beyond the owner (2 in the
    /// paper: predecessor and successor).
    pub replicas: usize,
}

impl Default for DhtFsConfig {
    fn default() -> Self {
        DhtFsConfig { block_size: eclipse_util::DEFAULT_BLOCK_SIZE, replicas: 2 }
    }
}

/// The DHT file system control plane.
///
/// ```
/// use eclipse_dhtfs::{DhtFs, DhtFsConfig};
/// use eclipse_ring::Ring;
/// use eclipse_util::MB;
///
/// let ring = Ring::with_servers_evenly_spaced(6, "srv");
/// let mut fs = DhtFs::new(ring, DhtFsConfig { block_size: 64 * MB, replicas: 2 });
/// let meta = fs.upload("dataset.bin", "alice", 256 * MB).unwrap();
/// assert_eq!(meta.num_blocks(), 4);
/// // Permission checks happen at the decentralized metadata owner.
/// assert!(fs.open("dataset.bin", "alice").is_ok());
/// assert!(fs.open("dataset.bin", "mallory").is_err());
/// ```
#[derive(Clone, Debug)]
pub struct DhtFs {
    cfg: DhtFsConfig,
    ring: Ring,
    /// File name -> metadata. Decentralized in the real system; here we
    /// additionally record *where* each record lives so the metadata
    /// lookup cost can be charged to the right server.
    files: HashMap<String, FileMetadata>,
    meta_home: HashMap<String, NodeId>,
    /// Block -> current replica holders, owner first.
    replicas: BTreeMap<BlockId, Vec<NodeId>>,
    /// Block sizes for recovery accounting.
    block_sizes: BTreeMap<BlockId, u64>,
    /// Per-node stored bytes (primary + replica).
    node_bytes: HashMap<NodeId, u64>,
}

impl DhtFs {
    pub fn new(ring: Ring, cfg: DhtFsConfig) -> DhtFs {
        DhtFs {
            cfg,
            ring,
            files: HashMap::new(),
            meta_home: HashMap::new(),
            replicas: BTreeMap::new(),
            block_sizes: BTreeMap::new(),
            node_bytes: HashMap::new(),
        }
    }

    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    pub fn config(&self) -> &DhtFsConfig {
        &self.cfg
    }

    /// The server whose DHT range covers the file-name hash — where the
    /// metadata record lives and permission checks happen.
    pub fn metadata_owner(&self, name: &str) -> Result<NodeId, FsError> {
        Ok(self.ring.owner_of(HashKey::of_name(name))?.id)
    }

    /// Upload a file: partition into blocks, store metadata at its owner,
    /// place each block at its key's owner plus replicas.
    pub fn upload(&mut self, name: &str, owner: &str, size: u64) -> Result<&FileMetadata, FsError> {
        if self.files.contains_key(name) {
            return Err(FsError::FileExists(name.to_string()));
        }
        let meta = FileMetadata::partition(name, owner, size, self.cfg.block_size);
        let home = self.ring.owner_of(meta.key)?.id;
        for b in &meta.blocks {
            let holders = self.ring.replica_set(b.key, self.cfg.replicas)?;
            for &h in &holders {
                *self.node_bytes.entry(h).or_insert(0) += b.size;
            }
            self.replicas.insert(b.id, holders);
            self.block_sizes.insert(b.id, b.size);
        }
        self.meta_home.insert(name.to_string(), home);
        self.files.insert(name.to_string(), meta);
        Ok(&self.files[name])
    }

    /// Open a file as `user`: permission check at the metadata owner,
    /// returning the metadata. Matches the paper's step ①/② in Fig. 2.
    pub fn open(&self, name: &str, user: &str) -> Result<&FileMetadata, FsError> {
        let meta = self.files.get(name).ok_or_else(|| FsError::FileNotFound(name.to_string()))?;
        if meta.owner != user {
            return Err(FsError::PermissionDenied {
                file: name.to_string(),
                user: user.to_string(),
            });
        }
        Ok(meta)
    }

    /// Metadata without a permission check (internal lookups).
    pub fn stat(&self, name: &str) -> Result<&FileMetadata, FsError> {
        self.files.get(name).ok_or_else(|| FsError::FileNotFound(name.to_string()))
    }

    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Where the metadata record physically lives.
    pub fn metadata_home(&self, name: &str) -> Result<NodeId, FsError> {
        self.meta_home.get(name).copied().ok_or_else(|| FsError::FileNotFound(name.to_string()))
    }

    /// Current replica holders of a block, primary first.
    pub fn block_holders(&self, id: BlockId) -> Result<&[NodeId], FsError> {
        self.replicas.get(&id).map(|v| v.as_slice()).ok_or(FsError::BlockNotFound(id))
    }

    /// The closest replica of `id` to `reader`: the reader itself if it
    /// holds one, else the primary. A block a failure left with no
    /// holder is [`FsError::DataLoss`].
    pub fn nearest_replica(&self, id: BlockId, reader: NodeId) -> Result<NodeId, FsError> {
        let holders = self.block_holders(id)?;
        if holders.contains(&reader) {
            return Ok(reader);
        }
        holders.first().copied().ok_or(FsError::DataLoss(id))
    }

    /// Record that `node` now holds a copy of `id` (the caller performed
    /// the actual byte transfer). Used by replicated map-out to widen a
    /// block's holder set beyond the configured replica count; `fail_node`
    /// handles the extra holders like any other replica. No-op when the
    /// node already holds the block.
    pub fn add_replica(&mut self, id: BlockId, node: NodeId) -> Result<(), FsError> {
        let bytes = self.block_sizes.get(&id).copied().ok_or(FsError::BlockNotFound(id))?;
        let holders = self.replicas.get_mut(&id).ok_or(FsError::BlockNotFound(id))?;
        if !holders.contains(&node) {
            holders.push(node);
            *self.node_bytes.entry(node).or_insert(0) += bytes;
        }
        Ok(())
    }

    /// Record that `node` does not hold a copy of `id` after all: a
    /// planned copy to it never landed. No-op when it is not a holder.
    pub fn remove_replica(&mut self, id: BlockId, node: NodeId) -> Result<(), FsError> {
        let bytes = self.block_sizes.get(&id).copied().ok_or(FsError::BlockNotFound(id))?;
        let holders = self.replicas.get_mut(&id).ok_or(FsError::BlockNotFound(id))?;
        if let Some(pos) = holders.iter().position(|&h| h == node) {
            holders.remove(pos);
            if let Some(b) = self.node_bytes.get_mut(&node) {
                *b = b.saturating_sub(bytes);
            }
        }
        Ok(())
    }

    /// Bytes stored on `node` (primaries plus replicas).
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.node_bytes.get(&node).copied().unwrap_or(0)
    }

    /// Per-node byte counts for all members (skew measurement).
    pub fn bytes_per_node(&self) -> Vec<(NodeId, u64)> {
        self.ring.node_ids().into_iter().map(|id| (id, self.bytes_on(id))).collect()
    }

    /// Admit a joining server. Existing blocks stay where they are —
    /// consistent hashing means only the joiner's new arc changes owner,
    /// and reads keep following the recorded holder sets — while new
    /// uploads and recovery plans immediately use the larger ring.
    pub fn join(&mut self, info: eclipse_ring::ServerInfo) -> Result<(), FsError> {
        self.ring.insert(info)?;
        Ok(())
    }

    /// The ring key of a stored block, recomputed from its file's
    /// metadata.
    fn block_key(&self, id: BlockId) -> HashKey {
        let meta = self
            .files
            .values()
            .find(|m| m.key == id.file)
            .expect("block belongs to a known file");
        meta.blocks[id.index as usize].key
    }

    /// Plan the block pulls a joining server owes under the grown ring:
    /// every block whose ideal replica set now includes `joiner` gets a
    /// copy from its current primary holder. Metadata records whose key
    /// the joiner now owns move to it immediately (they are control
    /// plane only). The replica table is *not* touched — the caller
    /// performs each transfer and records the successes with
    /// [`add_replica`](Self::add_replica), so a failed pull leaves the
    /// old holders authoritative and costs nothing but a future remote
    /// read. Holder sets that exceed the ideal are left alone; extra
    /// replicas are harmless and age out through later failures. A
    /// block with no holder left (lost to a failure or a failed copy)
    /// has no source and gets no pull.
    pub fn join_plan(&mut self, joiner: NodeId) -> Result<Vec<RecoveryCopy>, FsError> {
        if !self.ring.contains(joiner) {
            return Err(FsError::Ring(eclipse_ring::RingError::UnknownNode(joiner)));
        }
        let mut plan = Vec::new();
        for (&id, holders) in &self.replicas {
            let Some(&from) = holders.first() else { continue };
            if holders.contains(&joiner) {
                continue;
            }
            let ideal = self.ring.replica_set(self.block_key(id), self.cfg.replicas)?;
            if ideal.contains(&joiner) {
                let bytes = self.block_sizes[&id];
                plan.push(RecoveryCopy { block: id, bytes, from, to: joiner });
            }
        }
        let names: Vec<String> = self
            .meta_home
            .iter()
            .filter(|(name, &home)| {
                home != joiner
                    && self.ring.owner_of(self.files[name.as_str()].key).map(|o| o.id)
                        == Ok(joiner)
            })
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            self.meta_home.insert(name, joiner);
        }
        Ok(plan)
    }

    /// Remove a gracefully leaving node and compute the handoff plan —
    /// the dual of [`fail_node`](Self::fail_node), except the leaver is
    /// still alive and serving, so every copy is sourced *from the
    /// leaver itself* and a block whose only holder was the leaver is a
    /// handoff, not a loss. The control-plane state is updated
    /// immediately; the caller performs the transfers before letting
    /// the leaver deregister.
    pub fn leave_node(&mut self, leaving: NodeId) -> Result<Vec<RecoveryCopy>, FsError> {
        self.ring.remove(leaving)?;
        self.node_bytes.remove(&leaving);
        let mut plan = Vec::new();
        let block_ids: Vec<BlockId> = self.replicas.keys().copied().collect();
        for id in block_ids {
            let key = self.block_key(id);
            let holders = self.replicas.get_mut(&id).expect("key just listed");
            let Some(pos) = holders.iter().position(|&h| h == leaving) else {
                continue;
            };
            holders.remove(pos);
            let bytes = self.block_sizes[&id];
            let ideal = self.ring.replica_set(key, self.cfg.replicas)?;
            let missing: Vec<NodeId> =
                ideal.iter().copied().filter(|n| !holders.contains(n)).collect();
            for target in missing {
                let holders = self.replicas.get_mut(&id).expect("key just listed");
                holders.push(target);
                *self.node_bytes.entry(target).or_insert(0) += bytes;
                plan.push(RecoveryCopy { block: id, bytes, from: leaving, to: target });
            }
            if self.replicas[&id].is_empty() {
                // Cannot happen: an empty ideal set means an empty ring,
                // which `Ring::remove` of the last member already rejects.
                return Err(FsError::DataLoss(id));
            }
        }
        let names: Vec<String> = self
            .meta_home
            .iter()
            .filter(|(_, &home)| home == leaving)
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            let key = self.files[&name].key;
            let new_home = self.ring.owner_of(key)?.id;
            self.meta_home.insert(name, new_home);
        }
        Ok(plan)
    }

    /// Remove a failed node and compute the re-replication plan: every
    /// block that lost a replica gets a copy from a surviving holder to
    /// the take-over server (the failed server's successor — or
    /// predecessor if the successor already holds one). Metadata homes on
    /// the failed server also move to the new owner of their key.
    ///
    /// A block the failed node held alone has no source left: it is
    /// listed in [`FailurePlan::lost`] (keeping no holder) and planning
    /// goes on, so the rest of the state is repaired either way. The
    /// control-plane state is updated immediately; callers charge the
    /// copy costs to the simulator or perform the actual copies in the
    /// live executor.
    pub fn fail_node(&mut self, failed: NodeId) -> Result<FailurePlan, FsError> {
        self.ring.remove(failed)?;
        self.node_bytes.remove(&failed);
        let mut plan = FailurePlan::default();
        let block_ids: Vec<BlockId> = self.replicas.keys().copied().collect();
        for id in block_ids {
            let holders = self.replicas.get_mut(&id).expect("key just listed");
            let Some(pos) = holders.iter().position(|&h| h == failed) else {
                continue;
            };
            holders.remove(pos);
            if holders.is_empty() {
                plan.lost.push(id);
                continue;
            }
            let bytes = self.block_sizes[&id];
            // Recompute the ideal replica set under the new membership and
            // restore any missing holder.
            let ideal = self.ring.replica_set(self.block_key(id), self.cfg.replicas)?;
            let holders = self.replicas.get_mut(&id).expect("key just listed");
            let missing: Vec<NodeId> =
                ideal.iter().copied().filter(|n| !holders.contains(n)).collect();
            for target in missing {
                let source = holders[0];
                holders.push(target);
                *self.node_bytes.entry(target).or_insert(0) += bytes;
                plan.copies.push(RecoveryCopy { block: id, bytes, from: source, to: target });
            }
        }
        // Metadata homes: move records owned by the failed node.
        let names: Vec<String> = self
            .meta_home
            .iter()
            .filter(|(_, &home)| home == failed)
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            let key = self.files[&name].key;
            let new_home = self.ring.owner_of(key)?.id;
            self.meta_home.insert(name, new_home);
        }
        Ok(plan)
    }

    /// Total number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.replicas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::{GB, MB};

    fn fs_n(n: usize) -> DhtFs {
        DhtFs::new(Ring::with_servers(n, "srv"), DhtFsConfig { block_size: 128 * MB, replicas: 2 })
    }

    #[test]
    fn upload_places_blocks_with_replicas() {
        let mut fs = fs_n(8);
        let meta = fs.upload("data.txt", "alice", GB).unwrap();
        assert_eq!(meta.num_blocks(), 8);
        let ids: Vec<BlockId> = meta.blocks.iter().map(|b| b.id).collect();
        for id in ids {
            let holders = fs.block_holders(id).unwrap();
            assert_eq!(holders.len(), 3, "owner + 2 replicas");
            let mut uniq = holders.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
        assert_eq!(fs.num_blocks(), 8);
    }

    #[test]
    fn upload_duplicate_fails() {
        let mut fs = fs_n(4);
        fs.upload("f", "u", MB).unwrap();
        assert!(matches!(fs.upload("f", "u", MB), Err(FsError::FileExists(_))));
    }

    #[test]
    fn permission_checked_at_open() {
        let mut fs = fs_n(4);
        fs.upload("private", "alice", MB).unwrap();
        assert!(fs.open("private", "alice").is_ok());
        assert!(matches!(
            fs.open("private", "mallory"),
            Err(FsError::PermissionDenied { .. })
        ));
        assert!(matches!(fs.open("missing", "alice"), Err(FsError::FileNotFound(_))));
    }

    #[test]
    fn blocks_spread_across_nodes() {
        let mut fs = fs_n(16);
        fs.upload("big", "u", 16 * GB).unwrap(); // 128 blocks
        let counts = fs.bytes_per_node();
        let holders_with_data = counts.iter().filter(|(_, b)| *b > 0).count();
        // With 128 blocks × 3 replicas over 16 nodes, every node holds data.
        assert_eq!(holders_with_data, 16);
        let total: u64 = counts.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 3 * 16 * GB);
    }

    #[test]
    fn nearest_replica_prefers_local() {
        let mut fs = fs_n(8);
        let meta = fs.upload("f", "u", 256 * MB).unwrap();
        let id = meta.blocks[0].id;
        let holders = fs.block_holders(id).unwrap().to_vec();
        assert_eq!(fs.nearest_replica(id, holders[1]).unwrap(), holders[1]);
        assert_eq!(fs.nearest_replica(id, holders[2]).unwrap(), holders[2]);
        // A non-holder reads from the primary.
        let outsider = fs.ring().node_ids().into_iter().find(|n| !holders.contains(n)).unwrap();
        assert_eq!(fs.nearest_replica(id, outsider).unwrap(), holders[0]);
    }

    #[test]
    fn failure_recovery_restores_replication() {
        let mut fs = fs_n(8);
        let meta = fs.upload("f", "u", 2 * GB).unwrap();
        let ids: Vec<BlockId> = meta.blocks.iter().map(|b| b.id).collect();
        // Fail a node that holds at least one replica.
        let victim = fs.block_holders(ids[0]).unwrap()[0];
        let plan = fs.fail_node(victim).unwrap();
        assert!(plan.lost.is_empty());
        let plan = plan.copies;
        assert!(!plan.is_empty(), "victim held replicas, so recovery must copy");
        for id in ids {
            let holders = fs.block_holders(id).unwrap();
            assert_eq!(holders.len(), 3, "replication restored for {id:?}");
            assert!(!holders.contains(&victim));
        }
        // Copies never originate from or target the failed node.
        for c in &plan {
            assert_ne!(c.from, victim);
            assert_ne!(c.to, victim);
            assert!(c.bytes > 0);
        }
    }

    /// Losing a block's only copy does not stop the plan: every lost
    /// block is listed, and the rest of the state is repaired.
    #[test]
    fn failure_plan_lists_every_lost_block_and_repairs_the_rest() {
        let mut fs = DhtFs::new(
            Ring::with_servers(6, "srv"),
            DhtFsConfig { block_size: 128 * MB, replicas: 0 },
        );
        let meta = fs.upload("f", "u", 4 * GB).unwrap().clone();
        let victim = fs.block_holders(meta.blocks[0].id).unwrap()[0];
        let held: Vec<BlockId> = meta
            .blocks
            .iter()
            .map(|b| b.id)
            .filter(|&id| fs.block_holders(id).unwrap() == [victim])
            .collect();
        assert!(held.len() > 1, "the victim owns several single-copy blocks");
        let home = fs.metadata_home("f").unwrap();
        let plan = fs.fail_node(victim).unwrap();
        assert_eq!(plan.lost, held);
        assert!(plan.copies.is_empty(), "single copies leave nothing to copy from");
        assert!(!fs.ring().contains(victim));
        for b in &meta.blocks {
            assert!(!fs.block_holders(b.id).unwrap().contains(&victim));
        }
        if home == victim {
            assert_ne!(fs.metadata_home("f").unwrap(), victim, "metadata home moved");
        }
    }

    /// A block a failure left with no holder has no source: a joiner
    /// whose arc covers it plans no pull for it, and a read of it is
    /// `DataLoss`.
    #[test]
    fn a_lost_block_gets_no_pull_and_reads_as_data_loss() {
        let mut fs = DhtFs::new(
            Ring::with_servers(6, "srv"),
            DhtFsConfig { block_size: 128 * MB, replicas: 0 },
        );
        let meta = fs.upload("f", "u", 4 * GB).unwrap().clone();
        let victim = fs.block_holders(meta.blocks[0].id).unwrap()[0];
        let lost = fs.fail_node(victim).unwrap().lost;
        let block = meta.blocks.iter().find(|b| b.id == lost[0]).expect("a listed block");
        let joiner = NodeId(100);
        fs.join(eclipse_ring::ServerInfo::at_key(joiner, "srv-joiner", block.key)).unwrap();
        let plan = fs.join_plan(joiner).unwrap();
        assert!(plan.iter().all(|c| !lost.contains(&c.block)), "pulled a lost block");
        assert_eq!(fs.nearest_replica(block.id, joiner), Err(FsError::DataLoss(block.id)));
    }

    #[test]
    fn metadata_home_moves_on_failure() {
        let mut fs = fs_n(8);
        fs.upload("f1", "u", MB).unwrap();
        let home = fs.metadata_home("f1").unwrap();
        fs.fail_node(home).unwrap();
        let new_home = fs.metadata_home("f1").unwrap();
        assert_ne!(new_home, home);
        assert!(fs.ring().contains(new_home));
    }

    #[test]
    fn join_plan_pulls_only_the_joiners_arc() {
        let mut fs = fs_n(6);
        let meta = fs.upload("f", "u", 4 * GB).unwrap();
        let ids: Vec<BlockId> = meta.blocks.iter().map(|b| b.id).collect();
        let joiner = NodeId(100);
        fs.join(eclipse_ring::ServerInfo::from_name(joiner, "srv-joiner")).unwrap();
        let plan = fs.join_plan(joiner).unwrap();
        // Every planned pull targets the joiner, sources a live holder,
        // and the block's new ideal set really includes the joiner.
        for c in &plan {
            assert_eq!(c.to, joiner);
            assert!(fs.block_holders(c.block).unwrap().contains(&c.from));
            assert!(c.bytes > 0);
        }
        // The plan is not applied until the caller records transfers.
        for id in &ids {
            assert!(!fs.block_holders(*id).unwrap().contains(&joiner));
        }
        for c in &plan {
            fs.add_replica(c.block, joiner).unwrap();
            assert!(fs.block_holders(c.block).unwrap().contains(&joiner));
        }
        // A second plan is now empty: the joiner owes nothing.
        assert!(fs.join_plan(joiner).unwrap().is_empty());
    }

    #[test]
    fn leave_node_hands_off_from_the_leaver() {
        let mut fs = fs_n(8);
        let meta = fs.upload("f", "u", 2 * GB).unwrap();
        let ids: Vec<BlockId> = meta.blocks.iter().map(|b| b.id).collect();
        let leaver = fs.block_holders(ids[0]).unwrap()[0];
        let plan = fs.leave_node(leaver).unwrap();
        assert!(!plan.is_empty(), "the leaver held replicas");
        for c in &plan {
            assert_eq!(c.from, leaver, "graceful handoff sources from the leaver");
            assert_ne!(c.to, leaver);
        }
        for id in ids {
            let holders = fs.block_holders(id).unwrap();
            assert_eq!(holders.len(), 3, "replication restored for {id:?}");
            assert!(!holders.contains(&leaver));
        }
        assert!(!fs.ring().contains(leaver));
        assert_eq!(fs.bytes_on(leaver), 0);
    }

    #[test]
    fn leave_of_sole_holder_is_a_handoff_not_a_loss() {
        // replicas = 0: every block has exactly one holder. A graceful
        // leave must still succeed, sourcing from the leaver.
        let mut fs = DhtFs::new(
            Ring::with_servers(4, "s"),
            DhtFsConfig { block_size: MB, replicas: 0 },
        );
        let meta = fs.upload("f", "u", 8 * MB).unwrap();
        let ids: Vec<BlockId> = meta.blocks.iter().map(|b| b.id).collect();
        let leaver = fs.block_holders(ids[0]).unwrap()[0];
        let plan = fs.leave_node(leaver).unwrap();
        assert!(plan.iter().all(|c| c.from == leaver));
        for id in ids {
            let holders = fs.block_holders(id).unwrap();
            assert!(!holders.is_empty(), "no block may be orphaned by a leave");
            assert!(!holders.contains(&leaver));
        }
    }

    #[test]
    fn metadata_home_moves_on_leave_and_join() {
        let mut fs = fs_n(8);
        fs.upload("f1", "u", MB).unwrap();
        let home = fs.metadata_home("f1").unwrap();
        fs.leave_node(home).unwrap();
        let new_home = fs.metadata_home("f1").unwrap();
        assert_ne!(new_home, home);
        assert!(fs.ring().contains(new_home));
    }

    #[test]
    fn metadata_owner_matches_ring() {
        let fs = fs_n(6);
        let owner = fs.metadata_owner("anyfile").unwrap();
        assert_eq!(owner, fs.ring().owner_of(HashKey::of_name("anyfile")).unwrap().id);
    }

    #[test]
    fn replicas_clamped_on_tiny_ring() {
        let mut fs = DhtFs::new(
            Ring::with_servers(2, "s"),
            DhtFsConfig { block_size: MB, replicas: 2 },
        );
        let meta = fs.upload("f", "u", 2 * MB).unwrap();
        let id = meta.blocks[0].id;
        assert_eq!(fs.block_holders(id).unwrap().len(), 2, "only 2 nodes exist");
    }
}
