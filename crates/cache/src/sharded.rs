//! Intra-node cache sharding.
//!
//! One worker server's cache, split N ways by key hash so concurrent
//! lookups from the server's map slots and its RPC service thread
//! contend on a shard lock instead of one per-node mutex. Each shard is
//! a full [`NodeCache`] with its own byte budget; the budgets sum
//! exactly to the node's configured capacity, and a key always maps to
//! the same shard (multiply-shift on the 64-bit ring key), so the
//! union of shards behaves like one cache partitioned by key.
//!
//! With `shards = 1` the wrapper is a single [`NodeCache`] behind one
//! mutex and reproduces the unsharded cache's hit/miss/eviction
//! sequence *exactly* — the simulator pins this configuration so the
//! paper figures stay bit-for-bit reproducible. The live executor
//! defaults to more shards (see `LiveConfig::cache_shards`), trading
//! per-shard LRU horizon for lock independence, as real cache servers
//! (e.g. memcached's slab arenas) do.

use crate::entry::CacheKey;
use crate::lru::CacheStats;
use crate::node_cache::NodeCache;
use bytes::Bytes;
use parking_lot::Mutex;

/// One server's cache, sharded N ways by key hash. All methods take
/// `&self` and lock exactly one shard for the duration of the call.
#[derive(Debug)]
pub struct ShardedNodeCache {
    shards: Vec<Mutex<NodeCache>>,
}

impl Clone for ShardedNodeCache {
    fn clone(&self) -> ShardedNodeCache {
        ShardedNodeCache {
            shards: self.shards.iter().map(|s| Mutex::new(s.lock().clone())).collect(),
        }
    }
}

impl ShardedNodeCache {
    /// A node cache of `capacity` total bytes split over `shards`
    /// shards. Budgets are `capacity / shards`, with the remainder
    /// spread one byte each over the low shards so they sum exactly to
    /// `capacity`.
    pub fn new(capacity: u64, shards: usize) -> ShardedNodeCache {
        assert!(shards >= 1, "a node cache needs at least one shard");
        let n = shards as u64;
        let shards = (0..n)
            .map(|i| {
                let budget = capacity / n + u64::from(i < capacity % n);
                Mutex::new(NodeCache::new(budget))
            })
            .collect();
        ShardedNodeCache { shards }
    }

    /// The shard owning `key`: multiply-shift maps the 64-bit ring key
    /// uniformly onto `0..shards` without division.
    #[inline]
    fn shard_of(&self, key: &CacheKey) -> &Mutex<NodeCache> {
        let i = ((key.hash_key().0 as u128 * self.shards.len() as u128) >> 64) as usize;
        &self.shards[i]
    }

    /// Total byte budget (sum over shards).
    pub fn capacity(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Total bytes resident (sum over shards).
    pub fn used(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used()).sum()
    }

    /// Look up an entry; returns its byte size on a hit.
    pub fn get(&self, key: &CacheKey, now: f64) -> Option<u64> {
        self.shard_of(key).lock().get(key, now)
    }

    /// Look up and return the real payload (live executor path).
    pub fn get_payload(&self, key: &CacheKey, now: f64) -> Option<Bytes> {
        self.shard_of(key).lock().get_payload(key, now)
    }

    /// Cache a metered entry (simulator path).
    pub fn put(&self, key: CacheKey, bytes: u64, now: f64, ttl: Option<f64>) -> bool {
        self.shard_of(&key).lock().put(key, bytes, now, ttl)
    }

    /// Cache a real payload (live executor path).
    pub fn put_payload(&self, key: CacheKey, data: Bytes, now: f64, ttl: Option<f64>) -> bool {
        self.shard_of(&key).lock().put_payload(key, data, now, ttl)
    }

    /// Cache a real payload attributed to `tenant` (quota accounting).
    pub fn put_payload_tenant(
        &self,
        key: CacheKey,
        data: Bytes,
        now: f64,
        ttl: Option<f64>,
        tenant: u16,
    ) -> bool {
        self.shard_of(&key).lock().put_payload_tenant(key, data, now, ttl, tenant)
    }

    /// Cache a **pinned** payload: materialized epoch state that LRU
    /// pressure never evicts (see [`NodeCache::put_payload_pinned`]).
    pub fn put_payload_pinned(
        &self,
        key: CacheKey,
        data: Bytes,
        now: f64,
        ttl: Option<f64>,
        tenant: u16,
    ) -> bool {
        self.shard_of(&key).lock().put_payload_pinned(key, data, now, ttl, tenant)
    }

    /// Return a pinned entry to normal LRU lifetime.
    pub fn unpin(&self, key: &CacheKey) -> bool {
        self.shard_of(key).lock().unpin(key)
    }

    /// Resident bytes held by pinned entries (sum over shards).
    pub fn pinned_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().pinned_bytes()).sum()
    }

    /// Give `tenant` a byte budget within this node's cache, split over
    /// shards the same way the capacity is (quota/shards, remainder one
    /// byte each to the low shards). Keys hash uniformly over shards,
    /// so a tenant's traffic sees its budget in aggregate.
    pub fn set_tenant_quota(&self, tenant: u16, bytes: u64) {
        let n = self.shards.len() as u64;
        for (i, s) in self.shards.iter().enumerate() {
            let budget = bytes / n + u64::from((i as u64) < bytes % n);
            s.lock().set_tenant_quota(tenant, budget);
        }
    }

    /// Resident bytes attributed to `tenant` (sum over shards).
    pub fn tenant_used(&self, tenant: u16) -> u64 {
        self.shards.iter().map(|s| s.lock().tenant_used(tenant)).sum()
    }

    pub fn contains(&self, key: &CacheKey, now: f64) -> bool {
        self.shard_of(key).lock().contains(key, now)
    }

    pub fn invalidate(&self, key: &CacheKey) -> Option<u64> {
        self.shard_of(key).lock().invalidate(key)
    }

    /// Remove `key`, returning its payload when one is resident
    /// (elastic handoff path; no statistics recorded).
    pub fn take_payload(&self, key: &CacheKey) -> Option<Bytes> {
        self.shard_of(key).lock().take_payload(key)
    }

    /// Evict everything (cold-cache experiment setup).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Resident keys across all shards, no particular order.
    pub fn keys(&self) -> Vec<CacheKey> {
        let mut all = Vec::new();
        for s in &self.shards {
            all.extend(s.lock().keys());
        }
        all
    }

    /// Resident keys of one shard (invariant tests).
    pub fn shard_keys(&self, shard: usize) -> Vec<CacheKey> {
        self.shards[shard].lock().keys()
    }

    /// One shard's combined LRU statistics (invariant tests).
    pub fn shard_stats(&self, shard: usize) -> CacheStats {
        self.shards[shard].lock().stats()
    }

    /// iCache statistics, aggregated over shards.
    pub fn input_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for s in &self.shards {
            agg.merge(&s.lock().input_stats());
        }
        agg
    }

    /// oCache statistics, aggregated over shards.
    pub fn output_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for s in &self.shards {
            agg.merge(&s.lock().output_stats());
        }
        agg
    }

    /// Combined LRU statistics, aggregated over shards.
    pub fn stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for s in &self.shards {
            agg.merge(&s.lock().stats());
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::OutputTag;
    use eclipse_util::HashKey;

    fn ik(v: u64) -> CacheKey {
        CacheKey::Input(HashKey(v))
    }

    #[test]
    fn budgets_sum_to_capacity() {
        for shards in 1..=9 {
            let c = ShardedNodeCache::new(1_000_003, shards);
            assert_eq!(c.capacity(), 1_000_003, "shards={shards}");
        }
    }

    #[test]
    fn single_shard_matches_node_cache_sequence() {
        // shards=1 must reproduce NodeCache exactly: same hits, misses,
        // evictions, same victims.
        let sharded = ShardedNodeCache::new(100, 1);
        let mut plain = NodeCache::new(100);
        for i in 0..200u64 {
            let key = ik(i.wrapping_mul(0x9E3779B97F4A7C15));
            let t = i as f64;
            assert_eq!(sharded.put(key.clone(), 7, t, None), plain.put(key.clone(), 7, t, None));
            let probe = ik((i / 2).wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(sharded.get(&probe, t), plain.get(&probe, t));
        }
        assert_eq!(sharded.stats(), plain.stats());
        assert_eq!(sharded.used(), plain.used());
    }

    #[test]
    fn keys_partition_across_shards() {
        let c = ShardedNodeCache::new(1 << 20, 4);
        for i in 0..500u64 {
            c.put(ik(i.wrapping_mul(0x9E3779B97F4A7C15)), 16, 0.0, None);
        }
        let per_shard: Vec<_> = (0..4).map(|s| c.shard_keys(s)).collect();
        let total: usize = per_shard.iter().map(|k| k.len()).sum();
        assert_eq!(total, c.keys().len());
        // No key in two shards; every key findable through the facade.
        for (s, keys) in per_shard.iter().enumerate() {
            for k in keys {
                for (o, other) in per_shard.iter().enumerate() {
                    if o != s {
                        assert!(!other.contains(k), "key in shards {s} and {o}");
                    }
                }
                assert!(c.contains(k, 1.0));
            }
        }
        // Each shard saw some of the uniformly-hashed traffic.
        assert!(per_shard.iter().all(|k| !k.is_empty()));
    }

    #[test]
    fn shard_stats_sum_to_whole() {
        let c = ShardedNodeCache::new(1 << 16, 8);
        for i in 0..300u64 {
            let key = ik(i.wrapping_mul(0x9E3779B97F4A7C15));
            c.put(key.clone(), 64, i as f64, None);
            c.get(&key, i as f64);
            c.get(&ik(i.wrapping_mul(31) + 1), i as f64);
        }
        let mut summed = CacheStats::default();
        for s in 0..8 {
            summed.merge(&c.shard_stats(s));
        }
        assert_eq!(summed, c.stats());
    }

    #[test]
    fn payloads_and_tags_work_through_shards() {
        let c = ShardedNodeCache::new(1 << 20, 4);
        let key = CacheKey::Output(OutputTag::new("app", "iter1"));
        assert!(c.put_payload(key.clone(), Bytes::from_static(b"data"), 0.0, Some(5.0)));
        assert_eq!(c.get_payload(&key, 1.0).unwrap(), Bytes::from_static(b"data"));
        assert_eq!(c.get_payload(&key, 6.0), None, "TTL applies");
        assert_eq!(c.output_stats().hits, 1);
        assert_eq!(c.output_stats().misses, 1);
    }

    #[test]
    fn clear_and_invalidate() {
        let c = ShardedNodeCache::new(1 << 20, 3);
        for i in 0..50u64 {
            c.put(ik(i.wrapping_mul(0x9E3779B97F4A7C15)), 8, 0.0, None);
        }
        let victim = ik(0);
        c.put(victim.clone(), 8, 0.0, None);
        assert_eq!(c.invalidate(&victim), Some(8));
        assert_eq!(c.invalidate(&victim), None);
        c.clear();
        assert_eq!(c.used(), 0);
        assert!(c.keys().is_empty());
    }
}
