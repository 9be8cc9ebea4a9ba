//! The cluster-wide cache layer (the paper's outer ring): per-node caches
//! addressed through a *range table* that the scheduler owns and adjusts.
//!
//! The scheduler's hash key ranges decide which server caches which keys;
//! they start aligned with the DHT file system and drift as the LAF
//! algorithm re-partitions (§II-B: "the hash key ranges of the
//! distributed in-memory cache layer can be misaligned with the hash key
//! ranges of the DHT file system"). When ranges move, entries may be
//! *misplaced*; [`DistributedCache::migrate_misplaced`] implements the
//! optional neighbor-migration pass (§II-E, disabled by default as in the
//! paper's experiments).
//!
//! # Locking
//!
//! Each node's cache is a [`ShardedNodeCache`]: N independently locked
//! shards partitioned by key hash, behind one `Arc` per node. The range
//! table sits behind a read-mostly `RwLock`. Every method takes `&self`;
//! a cache operation locks exactly one shard of one node for its
//! duration, so the live executor's node threads — and concurrent
//! requests *within* a node — proceed without serializing on a
//! cluster-wide or even node-wide lock. Methods never hold two shard
//! locks at once (migration moves entries in two steps), so there is no
//! lock-ordering hazard.
//!
//! The simulator builds with `shards_per_node = 1`, which reproduces the
//! unsharded cache's eviction sequence exactly (see [`crate::sharded`]).

use crate::entry::CacheKey;
use crate::lru::CacheStats;
use crate::sharded::ShardedNodeCache;
use eclipse_ring::{NodeId, Ring};
use eclipse_util::{HashKey, KeyRange};
use parking_lot::RwLock;
use std::sync::Arc;

/// Cluster-wide cache: one [`ShardedNodeCache`] per server plus the
/// shared range table.
#[derive(Debug)]
pub struct DistributedCache {
    nodes: RwLock<Vec<Arc<ShardedNodeCache>>>,
    /// (node, cache hash-key range), clockwise order. Tiles the ring.
    ranges: RwLock<Vec<(NodeId, KeyRange)>>,
    /// Shard count applied to every node cache (joiners included).
    shards_per_node: usize,
    /// Per-tenant per-node byte budgets, replayed onto joiners so a
    /// quota set before a membership change still binds the new node.
    tenant_quotas: RwLock<Vec<(u16, u64)>>,
}

impl Clone for DistributedCache {
    fn clone(&self) -> DistributedCache {
        let nodes = self.nodes.read().iter().map(|n| Arc::new((**n).clone())).collect();
        DistributedCache {
            nodes: RwLock::new(nodes),
            ranges: RwLock::new(self.ranges.read().clone()),
            shards_per_node: self.shards_per_node,
            tenant_quotas: RwLock::new(self.tenant_quotas.read().clone()),
        }
    }
}

impl DistributedCache {
    /// Build with `capacity_per_node` bytes per server and ranges aligned
    /// with the file-system ring (the initial state, and the permanent
    /// state under delay scheduling). One shard per node: the exact
    /// configuration the paper's simulator figures are generated with.
    pub fn new(ring: &Ring, capacity_per_node: u64) -> DistributedCache {
        DistributedCache::with_shards(ring, capacity_per_node, 1)
    }

    /// Build with `shards_per_node` lock shards inside every node cache
    /// (the live executor's configuration; see [`crate::sharded`]).
    pub fn with_shards(
        ring: &Ring,
        capacity_per_node: u64,
        shards_per_node: usize,
    ) -> DistributedCache {
        let nodes = (0..ring.len())
            .map(|_| Arc::new(ShardedNodeCache::new(capacity_per_node, shards_per_node)))
            .collect();
        DistributedCache {
            nodes: RwLock::new(nodes),
            ranges: RwLock::new(ring.ranges()),
            shards_per_node,
            tenant_quotas: RwLock::new(Vec::new()),
        }
    }

    /// Give `tenant` a per-node byte budget on every current node's
    /// cache — and on every future joiner's. Within a node the budget
    /// splits over shards exactly as the capacity does.
    pub fn set_tenant_quota(&self, tenant: u16, bytes_per_node: u64) {
        {
            let mut quotas = self.tenant_quotas.write();
            quotas.retain(|(t, _)| *t != tenant);
            quotas.push((tenant, bytes_per_node));
        }
        for node in self.nodes.read().iter() {
            node.set_tenant_quota(tenant, bytes_per_node);
        }
    }

    /// Resident bytes attributed to `tenant`, summed over all nodes.
    pub fn tenant_used(&self, tenant: u16) -> u64 {
        self.nodes.read().iter().map(|n| n.tenant_used(tenant)).sum()
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.read().len()
    }

    /// Snapshot of the current range table.
    pub fn ranges(&self) -> Vec<(NodeId, KeyRange)> {
        self.ranges.read().clone()
    }

    /// Admit a new server's cache. The caller must assign node ids
    /// densely (the new node's id must equal the previous node count) and
    /// follow up with [`set_ranges`](Self::set_ranges) so the ring
    /// includes the joiner.
    pub fn add_node(&self, capacity: u64) -> NodeId {
        let mut nodes = self.nodes.write();
        let id = NodeId(nodes.len() as u32);
        let cache = ShardedNodeCache::new(capacity, self.shards_per_node);
        for &(tenant, bytes) in self.tenant_quotas.read().iter() {
            cache.set_tenant_quota(tenant, bytes);
        }
        nodes.push(Arc::new(cache));
        id
    }

    /// Install a new range table (the LAF scheduler calls this after each
    /// re-partition). Must tile the ring over the same node set.
    pub fn set_ranges(&self, ranges: Vec<(NodeId, KeyRange)>) {
        assert!(!ranges.is_empty());
        *self.ranges.write() = ranges;
    }

    /// The server whose cache range covers `key`.
    pub fn home_of(&self, key: HashKey) -> NodeId {
        self.ranges
            .read()
            .iter()
            .find(|(_, r)| r.contains(key))
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("range table does not cover {key}"))
    }

    /// A node's cache. The `Arc` is cloned out so the caller holds no
    /// lock on the node list while working — every operation on the
    /// returned cache locks only the shard it touches.
    pub fn node(&self, id: NodeId) -> Arc<ShardedNodeCache> {
        Arc::clone(&self.nodes.read()[id.index()])
    }

    /// Run `f` against one node's cache. Locking happens per operation
    /// inside the [`ShardedNodeCache`], one shard at a time.
    pub fn with_node<R>(&self, id: NodeId, f: impl FnOnce(&ShardedNodeCache) -> R) -> R {
        f(&self.node(id))
    }

    /// Look up `key` on its home server.
    pub fn get_at_home(&self, key: &CacheKey, now: f64) -> Option<(NodeId, u64)> {
        let home = self.home_of(key.hash_key());
        self.with_node(home, |c| c.get(key, now)).map(|b| (home, b))
    }

    /// Insert at the home server.
    pub fn put_at_home(&self, key: CacheKey, bytes: u64, now: f64, ttl: Option<f64>) -> NodeId {
        let home = self.home_of(key.hash_key());
        self.with_node(home, |c| c.put(key, bytes, now, ttl));
        home
    }

    /// Aggregate statistics over all nodes.
    pub fn total_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for node in self.nodes.read().iter() {
            agg.merge(&node.stats());
        }
        agg
    }

    /// Global hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.total_stats().hit_ratio()
    }

    /// Drop every entry cached on one server — the crash path: a failed
    /// node's iCache/oCache contents die with it, and the survivors must
    /// treat its keys as cold until re-read. Returns how many entries
    /// were invalidated (recovery telemetry).
    pub fn invalidate_node(&self, id: NodeId) -> usize {
        self.with_node(id, |c| {
            let dropped = c.keys().len();
            c.clear();
            dropped
        })
    }

    /// Empty every node's cache (the paper empties caches before each
    /// cold-cache run).
    pub fn clear_all(&self) {
        for node in self.nodes.read().iter() {
            node.clear();
        }
    }

    /// Migrate entries stranded by a range change to the neighbor that
    /// now owns them (§II-E's optional data-migration pass). Only
    /// immediate clockwise/counter-clockwise neighbors in the range table
    /// are checked, as in the paper. Returns (entries moved, bytes moved)
    /// so the caller can charge network cost.
    pub fn migrate_misplaced(&self, now: f64) -> (usize, u64) {
        let mut moved = 0usize;
        let mut moved_bytes = 0u64;
        let ranges = self.ranges();
        let n = ranges.len();
        for pos in 0..n {
            let (holder, range) = ranges[pos];
            let neighbors = [ranges[(pos + 1) % n].0, ranges[(pos + n - 1) % n].0];
            let misplaced: Vec<CacheKey> = self.with_node(holder, |c| {
                c.keys().into_iter().filter(|k| !range.contains(k.hash_key())).collect()
            });
            for key in misplaced {
                let target = self.home_of(key.hash_key());
                // Only neighbor moves, per the paper's option.
                if !neighbors.contains(&target) || target == holder {
                    continue;
                }
                // Two independent shard locks, taken one at a time.
                if let Some(bytes) = self.with_node(holder, |c| c.invalidate(&key)) {
                    self.with_node(target, |c| c.put(key, bytes, now, None));
                    moved += 1;
                    moved_bytes += bytes;
                }
            }
        }
        (moved, moved_bytes)
    }

    /// Drain entries stranded on `node` by a membership-driven range
    /// change: remove every resident entry whose home under the freshly
    /// installed range table is another node, and return the
    /// payload-carrying ones with their new home so the caller can ship
    /// them across the transport (the elastic `RangeHandoff` path).
    /// Metered, payload-less entries are removed and dropped — they are
    /// hints, re-creatable by a future miss. Unlike
    /// [`migrate_misplaced`](Self::migrate_misplaced) the move is not
    /// restricted to ring neighbors and never touches the target cache;
    /// delivery happens over the wire.
    pub fn drain_for_handoff(&self, node: NodeId) -> Vec<(CacheKey, bytes::Bytes, NodeId)> {
        let stranded: Vec<(CacheKey, NodeId)> = {
            let ranges = self.ranges.read();
            self.with_node(node, |c| {
                c.keys()
                    .into_iter()
                    .filter_map(|k| {
                        let home = ranges
                            .iter()
                            .find(|(_, r)| r.contains(k.hash_key()))
                            .map(|(n, _)| *n)?;
                        (home != node).then_some((k, home))
                    })
                    .collect()
            })
        };
        let mut out = Vec::new();
        for (key, home) in stranded {
            if let Some(payload) = self.with_node(node, |c| c.take_payload(&key)) {
                out.push((key, payload, home));
            }
        }
        out
    }

    /// Count entries resident on servers whose current range does not
    /// cover them (misplacement measurement, §II-E).
    pub fn misplaced_entries(&self) -> usize {
        self.ranges()
            .iter()
            .map(|(node, range)| {
                self.with_node(*node, |c| {
                    c.keys().into_iter().filter(|k| !range.contains(k.hash_key())).count()
                })
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_util::MB;

    fn cache_n(n: usize, cap: u64) -> (Ring, DistributedCache) {
        let ring = Ring::with_servers(n, "c");
        let cache = DistributedCache::new(&ring, cap);
        (ring, cache)
    }

    #[test]
    fn initial_ranges_align_with_ring() {
        let (ring, cache) = cache_n(6, MB);
        for probe in 0..100u64 {
            let k = HashKey::of_name(&format!("p{probe}"));
            assert_eq!(cache.home_of(k), ring.owner_of(k).unwrap().id);
        }
    }

    #[test]
    fn put_get_at_home() {
        let (_, cache) = cache_n(4, MB);
        let key = CacheKey::Input(HashKey::of_name("block-0"));
        let home = cache.put_at_home(key.clone(), 1000, 0.0, None);
        let (hit_node, bytes) = cache.get_at_home(&key, 1.0).unwrap();
        assert_eq!(hit_node, home);
        assert_eq!(bytes, 1000);
    }

    #[test]
    fn range_change_redirects_lookups() {
        let (_, cache) = cache_n(2, MB);
        let key = CacheKey::Input(HashKey(42));
        let old_home = cache.put_at_home(key.clone(), 10, 0.0, None);
        // Flip the two nodes' ranges.
        let flipped: Vec<(NodeId, KeyRange)> = {
            let r = cache.ranges();
            vec![(r[1].0, r[0].1), (r[0].0, r[1].1)]
        };
        cache.set_ranges(flipped);
        let new_home = cache.home_of(HashKey(42));
        assert_ne!(new_home, old_home);
        // Lookup now misses: the entry is stranded on the old home.
        assert!(cache.get_at_home(&key, 1.0).is_none());
        assert_eq!(cache.misplaced_entries(), 1);
    }

    #[test]
    fn migration_rescues_misplaced_entries() {
        let (_, cache) = cache_n(2, MB);
        let key = CacheKey::Input(HashKey(42));
        cache.put_at_home(key.clone(), 10, 0.0, None);
        let r = cache.ranges();
        cache.set_ranges(vec![(r[1].0, r[0].1), (r[0].0, r[1].1)]);
        let (moved, bytes) = cache.migrate_misplaced(1.0);
        assert_eq!(moved, 1);
        assert_eq!(bytes, 10);
        assert_eq!(cache.misplaced_entries(), 0);
        assert!(cache.get_at_home(&key, 2.0).is_some());
    }

    #[test]
    fn drain_for_handoff_extracts_stranded_payloads() {
        let (_, cache) = cache_n(2, MB);
        let key = CacheKey::Input(HashKey(42));
        let old_home = cache.put_at_home(key.clone(), 10, 0.0, None);
        cache.with_node(old_home, |c| {
            c.take_payload(&key);
            c.put_payload(key.clone(), bytes::Bytes::from_static(b"payload"), 0.0, None, 0, false)
        });
        let r = cache.ranges();
        cache.set_ranges(vec![(r[1].0, r[0].1), (r[0].0, r[1].1)]);
        let new_home = cache.home_of(HashKey(42));
        let drained = cache.drain_for_handoff(old_home);
        assert_eq!(drained.len(), 1);
        let (k, payload, target) = &drained[0];
        assert_eq!(k, &key);
        assert_eq!(payload.as_ref(), b"payload");
        assert_eq!(*target, new_home);
        // The entry left the old home; metered entries are gone too.
        assert_eq!(cache.misplaced_entries(), 0);
        assert!(cache.drain_for_handoff(old_home).is_empty(), "idempotent");
    }

    #[test]
    fn aggregate_stats() {
        let (_, cache) = cache_n(3, MB);
        let k1 = CacheKey::Input(HashKey::of_name("a"));
        let k2 = CacheKey::Input(HashKey::of_name("b"));
        cache.put_at_home(k1.clone(), 5, 0.0, None);
        cache.get_at_home(&k1, 1.0);
        cache.get_at_home(&k2, 1.0);
        let s = cache.total_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidate_node_drops_only_that_shard() {
        let (_, cache) = cache_n(3, MB);
        cache.with_node(NodeId(0), |c| c.put(CacheKey::Input(HashKey(1)), 5, 0.0, None));
        cache.with_node(NodeId(0), |c| c.put(CacheKey::Input(HashKey(2)), 5, 0.0, None));
        cache.with_node(NodeId(1), |c| c.put(CacheKey::Input(HashKey(3)), 5, 0.0, None));
        assert_eq!(cache.invalidate_node(NodeId(0)), 2);
        assert_eq!(cache.node(NodeId(0)).used(), 0, "crashed shard emptied");
        assert!(cache.with_node(NodeId(1), |c| c.contains(&CacheKey::Input(HashKey(3)), 1.0)));
        assert_eq!(cache.invalidate_node(NodeId(0)), 0, "idempotent");
    }

    #[test]
    fn clear_all_empties() {
        let (_, cache) = cache_n(3, MB);
        cache.put_at_home(CacheKey::Input(HashKey(1)), 5, 0.0, None);
        cache.clear_all();
        assert!((0..3).all(|i| cache.node(NodeId(i)).used() == 0));
    }

    #[test]
    fn hot_key_replication_via_full_range_collapse() {
        // When the LAF scheduler collapses everyone's range onto a hot
        // key's neighborhood, each server can cache its own copy — the
        // paper's extreme single-hot-key case. Emulate: all ranges empty
        // except one per node probe; we simply verify per-node caches are
        // independent stores.
        let (_, cache) = cache_n(4, MB);
        let key = CacheKey::Input(HashKey(7));
        for i in 0..4u32 {
            cache.with_node(NodeId(i), |c| c.put(key.clone(), 100, 0.0, None));
        }
        for i in 0..4u32 {
            assert!(cache.with_node(NodeId(i), |c| c.contains(&key, 1.0)));
        }
    }

    #[test]
    fn node_caches_lock_independently() {
        // Hold one node's cache mid-operation (simulated by cloning its
        // Arc and locking the shard owning a probe key via a long-lived
        // reference) while other nodes' caches stay fully usable — the
        // property the live executor's parallel map phase depends on.
        let (_, cache) = cache_n(4, MB);
        let node0 = cache.node(NodeId(0));
        // Keep node 0 busy: an outstanding Arc does not block anyone.
        node0.put(CacheKey::Input(HashKey(99)), 8, 0.0, None);
        for i in 1..4u32 {
            let key = CacheKey::Input(HashKey(i as u64));
            cache.with_node(NodeId(i), |c| c.put(key.clone(), 8, 0.0, None));
            assert!(cache.with_node(NodeId(i), |c| c.contains(&key, 0.5)));
        }
        assert!(node0.contains(&CacheKey::Input(HashKey(99)), 0.5));
    }

    #[test]
    fn sharded_nodes_preserve_distcache_semantics() {
        // The live configuration: several lock shards per node. Homing,
        // stats aggregation, and invalidation must be unaffected.
        let ring = Ring::with_servers(4, "c");
        let cache = DistributedCache::with_shards(&ring, MB, 8);
        let mut homes = std::collections::HashSet::new();
        for i in 0..200u64 {
            let key = CacheKey::Input(HashKey::of_name(&format!("blk{i}")));
            homes.insert(cache.put_at_home(key.clone(), 100, 0.0, None));
            assert!(cache.get_at_home(&key, 1.0).is_some());
        }
        assert!(homes.len() > 1, "keys spread over nodes");
        let s = cache.total_stats();
        assert_eq!(s.hits, 200);
        assert_eq!(s.insertions, 200);
        // Eight shards per node: the last shard exists and sees traffic.
        assert!((0..4).any(|i| !cache.node(NodeId(i)).shard_keys(7).is_empty()));
        let dropped: usize =
            (0..4).map(|i| cache.invalidate_node(NodeId(i))).sum();
        assert_eq!(dropped, 200);
        assert!((0..4).all(|i| cache.node(NodeId(i)).used() == 0));
    }

    #[test]
    fn concurrent_shard_traffic() {
        use std::sync::Arc as StdArc;
        let (_, cache) = cache_n(8, MB);
        let cache = StdArc::new(cache);
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let c = StdArc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = CacheKey::Input(HashKey(t as u64 * 10_000 + i));
                    c.with_node(NodeId(t), |n| n.put(key.clone(), 16, i as f64, None));
                    assert!(c.with_node(NodeId(t), |n| n.get(&key, i as f64).is_some()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.total_stats().hits, 8 * 500);
    }
}
