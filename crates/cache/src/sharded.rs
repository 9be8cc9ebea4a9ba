//! One worker server's cache, sharded by key hash.
//!
//! The server's byte budget is shared by the iCache (input blocks) and
//! the oCache (tagged outputs) and split N ways by key hash, so
//! concurrent lookups from the server's map slots and its RPC service
//! thread contend on a shard lock instead of one per-node mutex. Each
//! shard is a full [`LruCache`] with its own byte budget; the budgets
//! sum exactly to the node's configured capacity, and a key always maps
//! to the same shard (multiply-shift on the 64-bit ring key), so the
//! union of shards behaves like one cache partitioned by key.
//!
//! Live-executor payloads live *inside* the LRU slots
//! (`LruCache<CacheKey, Bytes>`), so a payload hit is a single hash
//! lookup and eviction frees the bytes with the index entry. The
//! simulator stores metered entries only ([`put`](ShardedNodeCache::put)).
//!
//! With `shards = 1` the wrapper is a single [`LruCache`] behind one
//! mutex and reproduces the bare LRU's hit/miss/eviction sequence
//! *exactly* — the simulator pins this configuration so the paper
//! figures stay bit-for-bit reproducible. The live executor defaults to
//! more shards (see `LiveConfig::cache_shards`), trading per-shard LRU
//! horizon for lock independence, as real cache servers (e.g.
//! memcached's slab arenas) do.

use crate::entry::CacheKey;
use crate::lru::{CacheStats, LruCache};
use bytes::Bytes;
use parking_lot::Mutex;

/// One server's cache, sharded N ways by key hash. All methods take
/// `&self` and lock exactly one shard for the duration of the call.
#[derive(Debug)]
pub struct ShardedNodeCache {
    shards: Vec<Mutex<LruCache<CacheKey, Bytes>>>,
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
                Mutex::new(LruCache::new(budget))
            })
            .collect();
        ShardedNodeCache { shards }
    }

    /// The shard owning `key`: multiply-shift maps the 64-bit ring key
    /// uniformly onto `0..shards` without division.
    #[inline]
    fn shard_of(&self, key: &CacheKey) -> &Mutex<LruCache<CacheKey, Bytes>> {
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

    /// Look up and return the real payload (live executor path). One
    /// lookup serves the index and the payload; a metered-only entry
    /// counts as a hit but yields no bytes.
    pub fn get_payload(&self, key: &CacheKey, now: f64) -> Option<Bytes> {
        self.shard_of(key).lock().get_value(key, now).and_then(|(_, v)| v.cloned())
    }

    /// Cache a metered entry (simulator path).
    pub fn put(&self, key: CacheKey, bytes: u64, now: f64, ttl: Option<f64>) -> bool {
        self.shard_of(&key).lock().put(key, bytes, now, ttl)
    }

    /// Cache a real payload attributed to `tenant` (live executor path),
    /// pinned when `pinned` is set. See [`LruCache::insert`] for the
    /// quota and pin semantics.
    pub fn put_payload(
        &self,
        key: CacheKey,
        data: Bytes,
        now: f64,
        ttl: Option<f64>,
        tenant: u16,
        pinned: bool,
    ) -> bool {
        let bytes = data.len() as u64;
        self.shard_of(&key).lock().insert(key, Some(data), bytes, now, ttl, tenant, pinned)
    }

    /// Return a pinned entry to normal LRU lifetime.
    pub fn unpin(&self, key: &CacheKey) -> bool {
        self.shard_of(key).lock().unpin(key)
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
    /// (elastic handoff path). No hit or miss is recorded — a handoff
    /// is bookkeeping, not a lookup. Metered entries are removed and
    /// yield `None`.
    pub fn take_payload(&self, key: &CacheKey) -> Option<Bytes> {
        self.shard_of(key).lock().take(key).and_then(|(_, v)| v)
    }

    /// Evict everything (cold-cache experiment setup). Statistics
    /// survive.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Resident keys across all shards, no particular order.
    pub fn keys(&self) -> Vec<CacheKey> {
        let mut all = Vec::new();
        for s in &self.shards {
            all.extend(s.lock().keys().cloned());
        }
        all
    }

    /// Resident keys of one shard (invariant tests).
    pub fn shard_keys(&self, shard: usize) -> Vec<CacheKey> {
        self.shards[shard].lock().keys().cloned().collect()
    }

    /// One shard's LRU statistics (invariant tests).
    pub fn shard_stats(&self, shard: usize) -> CacheStats {
        self.shards[shard].lock().stats()
    }

    /// LRU statistics, aggregated over shards.
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
    fn ok_(tag: &str) -> CacheKey {
        CacheKey::Output(OutputTag::new("app", tag))
    }

    /// The simulator's shard count and the live executor's.
    const SHARDS: [usize; 2] = [1, 8];

    /// A cache whose every shard holds `per_shard` bytes.
    fn cache(per_shard: u64, shards: usize) -> ShardedNodeCache {
        ShardedNodeCache::new(per_shard * shards as u64, shards)
    }

    #[test]
    fn budgets_sum_to_capacity() {
        for shards in 1..=9 {
            let c = ShardedNodeCache::new(1_000_003, shards);
            assert_eq!(c.capacity(), 1_000_003, "shards={shards}");
        }
    }

    #[test]
    fn partitions_share_capacity() {
        for shards in SHARDS {
            let c = cache(100, shards);
            // An input key on the tag's ring position shares its shard.
            let tag = ok_("t");
            let input = CacheKey::Input(tag.hash_key());
            assert!(c.put(input.clone(), 60, 0.0, None));
            assert!(c.put(tag.clone(), 60, 1.0, None)); // must evict the input entry
            assert!(!c.contains(&input, 1.0), "shards={shards}");
            assert!(c.contains(&tag, 1.0));
            assert!(c.used() <= c.capacity());
        }
    }

    #[test]
    fn payload_roundtrip() {
        for shards in SHARDS {
            let c = cache(100, shards);
            assert!(c.put_payload(ok_("r"), Bytes::from_static(b"result"), 0.0, None, 0, false));
            assert_eq!(c.get_payload(&ok_("r"), 1.0).unwrap(), Bytes::from_static(b"result"));
            assert_eq!(c.get_payload(&ok_("zzz"), 1.0), None);
        }
    }

    #[test]
    fn payload_dropped_with_eviction() {
        for shards in SHARDS {
            let c = cache(10, shards);
            // Neighbouring ring keys share a shard.
            c.put_payload(ik(1), Bytes::from(vec![0u8; 10]), 0.0, None, 0, false);
            c.put_payload(ik(2), Bytes::from(vec![0u8; 10]), 1.0, None, 0, false); // evicts 1
            assert_eq!(c.get_payload(&ik(1), 2.0), None, "shards={shards}");
            assert!(c.get_payload(&ik(2), 2.0).is_some());
        }
    }

    #[test]
    fn metered_entry_hits_index_without_payload() {
        for shards in SHARDS {
            let c = cache(100, shards);
            c.put(ik(7), 10, 0.0, None);
            // Index hit (counts in stats) but no payload bytes to return.
            assert_eq!(c.get_payload(&ik(7), 1.0), None);
            assert_eq!(c.stats().hits, 1);
            assert_eq!(c.stats().misses, 0);
        }
    }

    #[test]
    fn payload_stats_match_metered_stats() {
        for shards in SHARDS {
            let c = cache(100, shards);
            c.put_payload(ok_("r"), Bytes::from_static(b"xyz"), 0.0, None, 0, false);
            c.get_payload(&ok_("r"), 1.0);
            c.get_payload(&ok_("nope"), 1.0);
            let s = c.stats();
            assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1), "shards={shards}");
        }
    }

    #[test]
    fn ttl_applies_to_outputs() {
        for shards in SHARDS {
            let c = cache(100, shards);
            c.put(ok_("temp"), 5, 0.0, Some(10.0));
            assert!(c.get(&ok_("temp"), 9.0).is_some());
            assert!(c.get(&ok_("temp"), 11.0).is_none());
        }
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        for shards in SHARDS {
            let c = cache(100, shards);
            c.put(ik(1), 10, 0.0, None);
            c.get(&ik(1), 0.0);
            c.clear();
            assert!(!c.contains(&ik(1), 0.0));
            assert_eq!(c.stats().hits, 1, "stats survive clears");
            assert_eq!(c.used(), 0);
        }
    }

    #[test]
    fn single_shard_matches_node_cache_sequence() {
        // shards=1 must reproduce a bare node LRU exactly: same hits,
        // misses, evictions, same victims.
        let sharded = ShardedNodeCache::new(100, 1);
        let mut plain: LruCache<CacheKey, Bytes> = LruCache::new(100);
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
        assert!(c.put_payload(key.clone(), Bytes::from_static(b"data"), 0.0, Some(5.0), 0, false));
        assert_eq!(c.get_payload(&key, 1.0).unwrap(), Bytes::from_static(b"data"));
        assert_eq!(c.get_payload(&key, 6.0), None, "TTL applies");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
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
