//! Model-based property tests: the production [`LruCache`] must behave
//! byte-for-byte like a naive reference implementation under arbitrary
//! operation sequences — same hit/miss verdicts, same eviction victims,
//! same `used()`, same `CacheStats` — and the distributed layer must
//! never lose or duplicate entries during migration. The intra-node
//! shard wrapper is checked for its partition invariants, and with one
//! shard it must be indistinguishable from a bare node [`LruCache`].

use bytes::Bytes;
use eclipse_cache::{CacheKey, CacheStats, DistributedCache, LruCache, OutputTag, ShardedNodeCache};
use eclipse_ring::Ring;
use eclipse_util::HashKey;
use proptest::prelude::*;

/// A deliberately simple reference LRU: O(n) everything, obviously
/// correct. Tracks the same statistics the production cache reports.
struct RefLru {
    capacity: u64,
    /// (key, bytes, expires), most-recently-used LAST.
    entries: Vec<(u32, u64, Option<f64>)>,
    stats: CacheStats,
}

impl RefLru {
    fn new(capacity: u64) -> RefLru {
        RefLru { capacity, entries: Vec::new(), stats: CacheStats::default() }
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Resident keys, sorted (the production cache's iteration order is
    /// arbitrary; sorting both sides pins the exact resident *set*, and
    /// therefore the exact eviction victims).
    fn sorted_keys(&self) -> Vec<u32> {
        let mut ks: Vec<u32> = self.entries.iter().map(|e| e.0).collect();
        ks.sort_unstable();
        ks
    }

    fn get(&mut self, key: u32, now: f64) -> Option<u64> {
        let Some(idx) = self.entries.iter().position(|e| e.0 == key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.entries[idx].2.is_some_and(|e| now >= e) {
            self.entries.remove(idx);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        let e = self.entries.remove(idx);
        let bytes = e.1;
        self.entries.push(e);
        self.stats.hits += 1;
        Some(bytes)
    }

    fn contains(&self, key: u32, now: f64) -> bool {
        self.entries
            .iter()
            .any(|e| e.0 == key && !e.2.is_some_and(|x| now >= x))
    }

    fn put(&mut self, key: u32, bytes: u64, now: f64, ttl: Option<f64>) -> bool {
        if bytes > self.capacity {
            self.stats.rejected += 1;
            return false;
        }
        if let Some(idx) = self.entries.iter().position(|e| e.0 == key) {
            self.entries.remove(idx);
        }
        while self.used() + bytes > self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
        self.entries.push((key, bytes, ttl.map(|t| now + t)));
        self.stats.insertions += 1;
        true
    }

    fn invalidate(&mut self, key: u32) -> Option<u64> {
        let idx = self.entries.iter().position(|e| e.0 == key)?;
        Some(self.entries.remove(idx).1)
    }
}

/// One randomized cache operation.
#[derive(Clone, Debug)]
enum Op {
    Get(u32),
    Put(u32, u64, Option<u16>),
    Invalidate(u32),
    Contains(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..20).prop_map(Op::Get),
        (0u32..20, 1u64..60, prop::option::of(1u16..50))
            .prop_map(|(k, b, t)| Op::Put(k, b, t)),
        (0u32..20).prop_map(Op::Invalidate),
        (0u32..20).prop_map(Op::Contains),
    ]
}

proptest! {
    /// The production LRU and the reference agree on every observable
    /// result of every operation, at monotone timestamps: hit/miss
    /// verdicts, eviction victims (via the resident key set), `used()`,
    /// and the full `CacheStats` block.
    #[test]
    fn lru_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..200),
        capacity in 1u64..200,
    ) {
        let mut real: LruCache<u32> = LruCache::new(capacity);
        let mut model = RefLru::new(capacity);
        for (i, op) in ops.iter().enumerate() {
            let now = i as f64;
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(real.get(k, now), model.get(*k, now), "get {} at {}", k, i);
                }
                Op::Put(k, b, ttl) => {
                    let ttl = ttl.map(|t| t as f64);
                    prop_assert_eq!(
                        real.put(*k, *b, now, ttl),
                        model.put(*k, *b, now, ttl),
                        "put {} at {}", k, i
                    );
                }
                Op::Invalidate(k) => {
                    prop_assert_eq!(real.invalidate(k), model.invalidate(*k), "inv {} at {}", k, i);
                }
                Op::Contains(k) => {
                    prop_assert_eq!(real.contains(k, now), model.contains(*k, now),
                        "contains {} at {}", k, i);
                }
            }
            prop_assert_eq!(real.used(), model.used(), "used mismatch after op {}", i);
            prop_assert!(real.used() <= capacity);
            prop_assert_eq!(real.stats(), model.stats, "stats mismatch after op {}", i);
            let mut real_keys: Vec<u32> = real.keys().copied().collect();
            real_keys.sort_unstable();
            prop_assert_eq!(real_keys, model.sorted_keys(), "resident set after op {}", i);
            prop_assert_eq!(real.len(), model.entries.len());
        }
    }

    /// With one shard, [`ShardedNodeCache`] is indistinguishable from a
    /// bare `LruCache<CacheKey, Bytes>` (one server's whole cache, no
    /// shard lock) under arbitrary operation sequences — the
    /// guarantee that lets the simulator pin `shards = 1` and keep the
    /// paper figures bit-for-bit stable.
    #[test]
    fn single_shard_equals_node_cache(
        ops in prop::collection::vec(op_strategy(), 1..200),
        capacity in 1u64..4000,
    ) {
        let sharded = ShardedNodeCache::new(capacity, 1);
        let mut plain: LruCache<CacheKey, Bytes> = LruCache::new(capacity);
        // Spread the small key universe over the hash space so shard
        // selection (a no-op at 1 shard) sees realistic keys.
        let key = |k: u32| CacheKey::Input(HashKey((k as u64).wrapping_mul(0x9E3779B97F4A7C15)));
        for (i, op) in ops.iter().enumerate() {
            let now = i as f64;
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(sharded.get(&key(*k), now), plain.get(&key(*k), now));
                }
                Op::Put(k, b, ttl) => {
                    let ttl = ttl.map(|t| t as f64);
                    prop_assert_eq!(
                        sharded.put(key(*k), *b, now, ttl),
                        plain.put(key(*k), *b, now, ttl)
                    );
                }
                Op::Invalidate(k) => {
                    prop_assert_eq!(sharded.invalidate(&key(*k)), plain.invalidate(&key(*k)));
                }
                Op::Contains(k) => {
                    prop_assert_eq!(sharded.contains(&key(*k), now), plain.contains(&key(*k), now));
                }
            }
            prop_assert_eq!(sharded.used(), plain.used());
        }
        prop_assert_eq!(sharded.stats(), plain.stats());
        let mut keys = sharded.keys();
        keys.sort();
        let mut plain_keys: Vec<CacheKey> = plain.keys().cloned().collect();
        plain_keys.sort();
        prop_assert_eq!(keys, plain_keys, "same resident set, so same victims");
    }

    /// Sharded-node invariants at any shard count: per-shard statistics
    /// sum to the whole, no key is resident in two shards, the shards'
    /// key sets union to the facade's, and budgets sum to the capacity.
    #[test]
    fn shard_partition_invariants(
        ops in prop::collection::vec(op_strategy(), 1..200),
        capacity in 1u64..4000,
        shards in 1usize..9,
    ) {
        let cache = ShardedNodeCache::new(capacity, shards);
        let key = |k: u32| CacheKey::Input(HashKey((k as u64).wrapping_mul(0x9E3779B97F4A7C15)));
        for (i, op) in ops.iter().enumerate() {
            let now = i as f64;
            match op {
                Op::Get(k) => { cache.get(&key(*k), now); }
                Op::Put(k, b, ttl) => { cache.put(key(*k), *b, now, ttl.map(|t| t as f64)); }
                Op::Invalidate(k) => { cache.invalidate(&key(*k)); }
                Op::Contains(k) => { cache.contains(&key(*k), now); }
            }
        }
        prop_assert_eq!(cache.capacity(), capacity, "budgets sum to capacity");
        let mut summed = CacheStats::default();
        let mut all_keys: Vec<CacheKey> = Vec::new();
        for s in 0..shards {
            summed.merge(&cache.shard_stats(s));
            let keys = cache.shard_keys(s);
            for k in &keys {
                prop_assert!(!all_keys.contains(k), "key {:?} resident in two shards", k);
            }
            all_keys.extend(keys);
        }
        prop_assert_eq!(summed, cache.stats(), "per-shard stats sum to the whole");
        let mut facade = cache.keys();
        facade.sort();
        all_keys.sort();
        prop_assert_eq!(all_keys, facade, "shard key sets union to the facade");
    }

    /// Migration conserves entries: nothing is lost, nothing duplicated,
    /// and afterwards no rescued entry is misplaced with respect to the
    /// new table (entries whose new home is not a neighbor stay put, as
    /// the paper's neighbor-only option dictates).
    #[test]
    fn migration_conserves_entries(
        keys in prop::collection::vec(any::<u64>(), 1..60),
        rotate in 1usize..5,
    ) {
        let ring = Ring::with_servers_evenly_spaced(8, "m");
        let cache = DistributedCache::new(&ring, 1 << 20);
        for (i, &k) in keys.iter().enumerate() {
            cache.put_at_home(CacheKey::Input(HashKey(k)), 100, i as f64, None);
        }
        let resident_before: usize =
            (0..8).map(|i| cache.with_node(eclipse_ring::NodeId(i), |c| c.keys().len())).sum();

        // Rotate the range table by `rotate` positions: every entry's
        // home moves to the rotate-th neighbor.
        let old = cache.ranges().to_vec();
        let rotated: Vec<_> = (0..old.len())
            .map(|i| (old[(i + rotate) % old.len()].0, old[i].1))
            .collect();
        cache.set_ranges(rotated);

        let (moved, bytes) = cache.migrate_misplaced(100.0);
        prop_assert_eq!(bytes, moved as u64 * 100);
        let resident_after: usize =
            (0..8).map(|i| cache.with_node(eclipse_ring::NodeId(i), |c| c.keys().len())).sum();
        prop_assert_eq!(resident_before, resident_after, "entries lost or duplicated");
        if rotate == 1 {
            // Single-step rotation: every misplaced entry has a neighbor
            // home, so migration clears all misplacement.
            prop_assert_eq!(cache.misplaced_entries(), 0);
        }
    }

    /// oCache tags with TTLs expire exactly like input entries.
    #[test]
    fn tagged_entries_respect_ttl(
        tags in prop::collection::vec("[a-z]{1,6}", 1..30),
        ttl in 1.0f64..50.0,
    ) {
        let ring = Ring::with_servers_evenly_spaced(4, "m");
        let cache = DistributedCache::new(&ring, 1 << 20);
        for t in &tags {
            cache.put_at_home(
                CacheKey::Output(OutputTag::new("app", t.clone())),
                10,
                0.0,
                Some(ttl),
            );
        }
        for t in &tags {
            let key = CacheKey::Output(OutputTag::new("app", t.clone()));
            prop_assert!(cache.get_at_home(&key, ttl - 0.01).is_some());
        }
        for t in &tags {
            let key = CacheKey::Output(OutputTag::new("app", t.clone()));
            prop_assert!(cache.get_at_home(&key, ttl + 0.01).is_none());
        }
    }
}
