//! Byte-budgeted LRU cache with optional TTL expiry.
//!
//! The paper: "each worker server caches only a certain number of
//! recently accessed data objects using the LRU cache replacement policy"
//! (§II-E); oCache entries "are invalidated by time-to-live (TTL) which
//! can be set by applications" (§II-C).
//!
//! # Layout (see DESIGN.md §8g)
//!
//! Entries live in a **slab arena** (`Vec<Slot>`) threaded by an
//! **intrusive doubly-linked recency list**: `head` is the most
//! recently used slot, `tail` the eviction victim. A `HashMap` keyed by
//! `K` maps to arena indices. Every operation is O(1):
//!
//! * **hit** — one hash lookup plus a pointer relink; no allocation, no
//!   key clone (the old design re-keyed a `BTreeMap` recency index on
//!   every touch, cloning the key each time);
//! * **insert** — one arena write plus one index insert (one key clone,
//!   at insert only); eviction pops `tail` directly instead of walking
//!   an ordered map;
//! * **evict/invalidate/expire-on-get** — unlink + free-list push.
//!
//! Freed slots are recycled through a free list, so a cache that has
//! reached steady state allocates nothing at all. Entries may carry an
//! in-slot value `V` (the live executor stores real payloads there —
//! see [`crate::ShardedNodeCache`]); the simulator meters sizes only and uses
//! the default `V = ()`.
//!
//! TTL stays lazy exactly as before: a `get` of an expired entry drops
//! it and counts an expiration plus a miss; [`LruCache::expire`] bulk-
//! drops on demand.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Arena index sentinel: no slot.
const NIL: u32 = u32::MAX;

/// Deterministic FxHash-style multiply hasher for the index map. Cache
/// keys are either 64-bit ring positions or tags that pre-hash to one
/// (see [`crate::OutputTag`]), so a single multiply mixes them as well
/// as SipHash at a fraction of the cost — and the simulator stays
/// reproducible because the hasher has no random state.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// One arena slot: entry metadata, the in-slot value, and the intrusive
/// recency links.
#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    /// In-slot payload; `None` for metered-only entries and free slots.
    value: Option<V>,
    bytes: u64,
    /// Absolute expiry time in seconds; `None` = never.
    expires: Option<f64>,
    /// Owning tenant (0 = the default/untagged tenant). Only consulted
    /// when the cache has a [`TenantLedger`].
    tenant: u16,
    /// Pinned entries are never chosen as eviction victims (materialized
    /// epoch state). Explicit invalidation and TTL expiry still apply.
    pinned: bool,
    /// More recently used neighbor (toward `head`).
    prev: u32,
    /// Less recently used neighbor (toward `tail`).
    next: u32,
}

/// Per-tenant byte accounting and quotas (multi-tenant mode). Allocated
/// lazily on the first [`LruCache::set_tenant_quota`] call so a cache
/// that never configures quotas takes the exact legacy code path —
/// same branches, same eviction order, bit-identical statistics.
#[derive(Clone, Debug, Default)]
struct TenantLedger {
    /// Resident bytes per tenant (entries appear on first insert).
    used: FxHashMap<u16, u64>,
    /// Byte budget per tenant; absent = unlimited (accounted only).
    quota: FxHashMap<u16, u64>,
}

/// Statistics kept by an [`LruCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub expirations: u64,
    pub rejected: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups (0 when no lookups occurred).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another stats block into this one (shard aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.expirations += other.expirations;
        self.rejected += other.rejected;
    }
}

/// A byte-capacity LRU cache. Keys are opaque; every entry has a
/// metered size, and may additionally carry an in-slot value `V` (the
/// live executor's payloads), so one lookup serves both the simulator
/// and the live path.
///
/// ```
/// use eclipse_cache::LruCache;
///
/// let mut cache: LruCache<&str> = LruCache::new(100);
/// cache.put("block-a", 60, 0.0, None);
/// cache.put("block-b", 60, 1.0, None); // evicts block-a (LRU, over budget)
/// assert!(cache.get(&"block-a", 2.0).is_none());
/// assert_eq!(cache.get(&"block-b", 2.0), Some(60));
/// assert!(cache.used() <= cache.capacity());
/// ```
#[derive(Clone, Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V = ()> {
    capacity: u64,
    used: u64,
    slots: Vec<Slot<K, V>>,
    /// Recycled arena indices.
    free: Vec<u32>,
    index: FxHashMap<K, u32>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot — the eviction victim (`NIL` when empty).
    tail: u32,
    stats: CacheStats,
    /// Resident bytes held by pinned entries.
    pinned_bytes: u64,
    /// Per-tenant accounting; `None` until the first quota is set.
    tenants: Option<Box<TenantLedger>>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` bytes. A zero-capacity cache is
    /// legal and rejects every insertion (the paper's "cache size 0"
    /// sweep point in Fig. 7).
    pub fn new(capacity: u64) -> LruCache<K, V> {
        LruCache {
            capacity,
            used: 0,
            slots: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            pinned_bytes: 0,
            tenants: None,
        }
    }

    /// Give `tenant` a byte budget within this cache. The ledger is
    /// created on the first call; until then tenant tags on inserts are
    /// carried but ignored, keeping the legacy eviction order exactly.
    /// The quota applies from the next insert — entries already over
    /// budget age out through normal LRU pressure.
    pub fn set_tenant_quota(&mut self, tenant: u16, bytes: u64) {
        let ledger = self.tenants.get_or_insert_with(Default::default);
        ledger.quota.insert(tenant, bytes);
        // Back-fill usage for entries inserted before the ledger existed.
        let mut used: FxHashMap<u16, u64> = FxHashMap::default();
        let mut i = self.head;
        while i != NIL {
            let s = &self.slots[i as usize];
            *used.entry(s.tenant).or_default() += s.bytes;
            i = s.next;
        }
        ledger.used = used;
    }

    /// Resident bytes attributed to `tenant` (0 without a ledger).
    pub fn tenant_used(&self, tenant: u16) -> u64 {
        self.tenants.as_ref().and_then(|l| l.used.get(&tenant).copied()).unwrap_or(0)
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.used
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Detach slot `i` from the recency list.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Link slot `i` in as the most recently used entry.
    #[inline]
    fn push_front(&mut self, i: u32) {
        let old = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old;
        }
        if old != NIL {
            self.slots[old as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Move slot `i` to the front (a recency touch) — O(1), no
    /// allocation, no key clone.
    #[inline]
    fn touch(&mut self, i: u32) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }

    /// Remove slot `i` entirely: unlink, drop the in-slot value, free
    /// the arena slot and the index entry. Returns (bytes, value).
    fn detach(&mut self, i: u32) -> (u64, Option<V>) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let bytes = slot.bytes;
        let tenant = slot.tenant;
        let value = slot.value.take();
        if slot.pinned {
            self.pinned_bytes -= bytes;
        }
        self.used -= bytes;
        self.index.remove(&slot.key);
        self.free.push(i);
        if let Some(ledger) = self.tenants.as_mut() {
            if let Some(u) = ledger.used.get_mut(&tenant) {
                *u = u.saturating_sub(bytes);
            }
        }
        (bytes, value)
    }

    /// Core lookup: on a hit returns the slot index after the recency
    /// touch; handles lazy TTL expiry and all statistics.
    #[inline]
    fn lookup(&mut self, key: &K, now: f64) -> Option<u32> {
        let Some(&i) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.slots[i as usize].expires.is_some_and(|e| now >= e) {
            self.detach(i);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.touch(i);
        self.stats.hits += 1;
        Some(i)
    }

    /// Look up `key` at time `now`. A TTL-expired entry counts as a miss
    /// and is dropped. Hits refresh recency. Returns the entry size on a
    /// hit.
    pub fn get(&mut self, key: &K, now: f64) -> Option<u64> {
        let i = self.lookup(key, now)?;
        Some(self.slots[i as usize].bytes)
    }

    /// Like [`get`](Self::get), but also hands out the in-slot value on
    /// a hit (`None` for a metered-only entry). One lookup serves index
    /// and payload — the live executor's hot path.
    pub fn get_value(&mut self, key: &K, now: f64) -> Option<(u64, Option<&V>)> {
        let i = self.lookup(key, now)?;
        let slot = &self.slots[i as usize];
        Some((slot.bytes, slot.value.as_ref()))
    }

    /// Peek without affecting recency or statistics.
    pub fn contains(&self, key: &K, now: f64) -> bool {
        self.index
            .get(key)
            .is_some_and(|&i| !self.slots[i as usize].expires.is_some_and(|e| now >= e))
    }

    /// Clear the pin on `key`, returning it to normal LRU lifetime.
    /// Returns false when the key is not resident.
    pub fn unpin(&mut self, key: &K) -> bool {
        let Some(&i) = self.index.get(key) else {
            return false;
        };
        let slot = &mut self.slots[i as usize];
        if slot.pinned {
            slot.pinned = false;
            self.pinned_bytes -= slot.bytes;
        }
        true
    }

    /// Resident bytes currently held by pinned entries.
    pub fn pinned_bytes(&self) -> u64 {
        self.pinned_bytes
    }

    /// Roll back a slot whose index entry was claimed but that cannot
    /// be linked in because eviction found only pinned victims.
    fn reject_claimed(&mut self, i: u32) -> bool {
        self.slots[i as usize].value = None;
        self.index.remove(&self.slots[i as usize].key);
        self.free.push(i);
        self.stats.rejected += 1;
        false
    }

    /// Insert `key` of `bytes` size with an in-slot value (`None` for a
    /// metered-only entry), evicting LRU entries to fit. `ttl` is
    /// seconds from `now` (`None` = no expiry). An object larger than
    /// the whole capacity is rejected (returns false). Re-inserting an
    /// existing key replaces its size, TTL, value, tenant and pin and
    /// refreshes recency.
    ///
    /// `tenant` attributes the entry for quota accounting. With a quota
    /// configured for the tenant, entries of *that tenant* are evicted
    /// from the LRU tail first until the tenant fits its budget, so one
    /// tenant's insert pressure cannot evict another's warm entries; an
    /// object larger than the tenant budget is rejected. Without a
    /// ledger (no [`set_tenant_quota`](Self::set_tenant_quota) call
    /// ever) the tenant is carried but ignored.
    ///
    /// A `pinned` entry is materialized epoch state that LRU pressure
    /// must never evict. It still counts against the tenant's quota and
    /// the global capacity; when the unpinned remainder can't absorb an
    /// insert (everything else resident is pinned) the insert is
    /// rejected rather than evicting a pin. Explicit invalidation,
    /// [`take`](Self::take), TTL expiry, and re-insertion of the same
    /// key all still remove a pinned entry — a pin guards against
    /// *capacity pressure*, not against its owner.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        key: K,
        value: Option<V>,
        bytes: u64,
        now: f64,
        ttl: Option<f64>,
        tenant: u16,
        pinned: bool,
    ) -> bool {
        if bytes > self.capacity {
            self.stats.rejected += 1;
            return false;
        }
        if let Some(ledger) = self.tenants.as_ref() {
            if let Some(&quota) = ledger.quota.get(&tenant) {
                if bytes > quota {
                    self.stats.rejected += 1;
                    return false;
                }
            }
        }
        // Allocate the new slot first and claim the index entry in ONE
        // hash operation: `insert` both looks up any previous slot for
        // this key and installs the new mapping. The new slot is not
        // linked into the recency list yet, so the eviction loop below
        // can never pick it as a victim.
        let expires = ttl.map(|t| now + t);
        let i = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                slot.key = key.clone();
                slot.value = value;
                slot.bytes = bytes;
                slot.expires = expires;
                slot.tenant = tenant;
                slot.pinned = pinned;
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    bytes,
                    expires,
                    tenant,
                    pinned,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        if let Some(old) = self.index.insert(key, i) {
            // Re-insert of a resident key: drop the old slot (its index
            // entry was just overwritten). Matches the old semantics of
            // removing the existing entry before the eviction pass, so
            // its bytes are reclaimed before victims are chosen.
            self.unlink(old);
            let slot = &mut self.slots[old as usize];
            slot.value = None;
            let (old_bytes, old_tenant) = (slot.bytes, slot.tenant);
            if slot.pinned {
                self.pinned_bytes -= old_bytes;
            }
            self.used -= old_bytes;
            self.free.push(old);
            if let Some(ledger) = self.tenants.as_mut() {
                if let Some(u) = ledger.used.get_mut(&old_tenant) {
                    *u = u.saturating_sub(old_bytes);
                }
            }
        }
        if let Some(ledger) = self.tenants.as_ref() {
            if let Some(&quota) = ledger.quota.get(&tenant) {
                // Tenant over budget: evict *its own* LRU entries first,
                // scanning from the global tail. Other tenants' entries
                // are skipped — their warmth is protected.
                let mut victim = self.tail;
                while self.tenant_used(tenant) + bytes > quota && victim != NIL {
                    let s = &self.slots[victim as usize];
                    let prev = s.prev;
                    if s.tenant == tenant && !s.pinned {
                        self.detach(victim);
                        self.stats.evictions += 1;
                    }
                    victim = prev;
                }
                if self.tenant_used(tenant) + bytes > quota {
                    // Only the tenant's pinned entries remain and they
                    // hold the whole quota: a pin never gets evicted to
                    // make room, so the insert loses.
                    return self.reject_claimed(i);
                }
            }
        }
        // Evict least-recently-used entries — walk from the tail,
        // skipping pinned slots. Without pins this detaches exactly the
        // successive tails, the legacy eviction order.
        let mut victim = self.tail;
        while self.used + bytes > self.capacity {
            if victim == NIL {
                // Every remaining resident byte is pinned.
                return self.reject_claimed(i);
            }
            let s = &self.slots[victim as usize];
            let prev = s.prev;
            if !s.pinned {
                self.detach(victim);
                self.stats.evictions += 1;
            }
            victim = prev;
        }
        self.push_front(i);
        self.used += bytes;
        if pinned {
            self.pinned_bytes += bytes;
        }
        self.stats.insertions += 1;
        if let Some(ledger) = self.tenants.as_mut() {
            *ledger.used.entry(tenant).or_default() += bytes;
        }
        true
    }

    /// Insert a metered-only, untagged, unpinned entry — the simulator
    /// path. See [`insert`](Self::insert) for semantics.
    pub fn put(&mut self, key: K, bytes: u64, now: f64, ttl: Option<f64>) -> bool {
        self.insert(key, None, bytes, now, ttl, 0, false)
    }

    /// Remove `key` explicitly; returns its size if present (expired or
    /// not — explicit invalidation ignores TTL).
    pub fn invalidate(&mut self, key: &K) -> Option<u64> {
        let &i = self.index.get(key)?;
        Some(self.detach(i).0)
    }

    /// Remove `key` and return its (size, in-slot value) without
    /// touching recency or statistics — the elastic handoff path
    /// extracts entries wholesale to re-home them on another node.
    pub fn take(&mut self, key: &K) -> Option<(u64, Option<V>)> {
        let &i = self.index.get(key)?;
        Some(self.detach(i))
    }

    /// Drop every expired entry at time `now`; returns the count.
    pub fn expire(&mut self, now: f64) -> usize {
        // Walk the recency list (order is irrelevant for correctness;
        // the list visits exactly the live slots).
        let mut dead = Vec::new();
        let mut i = self.head;
        while i != NIL {
            let s = &self.slots[i as usize];
            if s.expires.is_some_and(|e| now >= e) {
                dead.push(i);
            }
            i = s.next;
        }
        for &i in &dead {
            self.detach(i);
            self.stats.expirations += 1;
        }
        dead.len()
    }

    /// Iterate over resident keys (no particular order).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.index.keys()
    }

    /// Drop everything (used when emptying caches between experiments,
    /// as the paper does before each run).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
        self.pinned_bytes = 0;
        if let Some(ledger) = self.tenants.as_mut() {
            ledger.used.clear(); // quotas survive; usage resets with the contents
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_recency() {
        let mut c: LruCache<&str> = LruCache::new(100);
        assert!(c.put("a", 40, 0.0, None));
        assert!(c.put("b", 40, 0.0, None));
        assert_eq!(c.get(&"a", 1.0), Some(40)); // a is now most recent
        assert!(c.put("c", 40, 2.0, None)); // evicts b (LRU)
        assert!(c.contains(&"a", 2.0));
        assert!(!c.contains(&"b", 2.0));
        assert!(c.contains(&"c", 2.0));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c: LruCache<u32> = LruCache::new(100);
        for i in 0..50u32 {
            c.put(i, 30, i as f64, None);
            assert!(c.used() <= 100, "used {} after insert {}", c.used(), i);
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn oversized_object_rejected() {
        let mut c: LruCache<&str> = LruCache::new(10);
        assert!(!c.put("big", 11, 0.0, None));
        assert_eq!(c.stats().rejected, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c: LruCache<u32> = LruCache::new(0);
        assert!(!c.put(1, 1, 0.0, None));
        assert_eq!(c.get(&1, 0.0), None);
    }

    #[test]
    fn ttl_expiry_on_get() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.put("x", 10, 0.0, Some(5.0));
        assert_eq!(c.get(&"x", 4.9), Some(10));
        assert_eq!(c.get(&"x", 5.0), None);
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn ttl_bulk_expire() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.put("a", 10, 0.0, Some(1.0));
        c.put("b", 10, 0.0, Some(2.0));
        c.put("c", 10, 0.0, None);
        assert_eq!(c.expire(1.5), 1);
        assert_eq!(c.expire(10.0), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(&"c", 100.0));
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.put("k", 60, 0.0, None);
        c.put("k", 20, 1.0, None);
        assert_eq!(c.used(), 20);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.put("a", 25, 0.0, None);
        assert_eq!(c.invalidate(&"a"), Some(25));
        assert_eq!(c.invalidate(&"a"), None);
        c.put("b", 25, 0.0, None);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn hit_ratio() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.put("a", 10, 0.0, None);
        c.get(&"a", 0.0);
        c.get(&"a", 0.0);
        c.get(&"z", 0.0);
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        let empty: LruCache<u8> = LruCache::new(10);
        assert_eq!(empty.stats().hit_ratio(), 0.0);
    }

    #[test]
    fn eviction_order_is_lru_not_fifo() {
        let mut c: LruCache<&str> = LruCache::new(30);
        c.put("a", 10, 0.0, None);
        c.put("b", 10, 1.0, None);
        c.put("c", 10, 2.0, None);
        c.get(&"a", 3.0); // refresh a — b is now oldest
        c.put("d", 10, 4.0, None);
        assert!(c.contains(&"a", 5.0));
        assert!(!c.contains(&"b", 5.0));
    }

    #[test]
    fn in_slot_values_roundtrip() {
        let mut c: LruCache<&str, String> = LruCache::new(100);
        assert!(c.insert("k", Some("payload".to_string()), 10, 0.0, None, 0, false));
        let (bytes, v) = c.get_value(&"k", 1.0).unwrap();
        assert_eq!(bytes, 10);
        assert_eq!(v.unwrap(), "payload");
        // Metered-only entries have no value but still hit.
        assert!(c.put("m", 5, 2.0, None));
        let (bytes, v) = c.get_value(&"m", 3.0).unwrap();
        assert_eq!((bytes, v), (5, None));
    }

    #[test]
    fn value_dropped_on_eviction_and_reinsert() {
        let mut c: LruCache<&str, String> = LruCache::new(10);
        c.insert("a", Some("va".into()), 10, 0.0, None, 0, false);
        c.insert("b", Some("vb".into()), 10, 1.0, None, 0, false); // evicts a
        assert!(c.get_value(&"a", 2.0).is_none());
        // A metered re-insert of b replaces (drops) the in-slot value.
        c.put("b", 10, 3.0, None);
        assert_eq!(c.get_value(&"b", 4.0).unwrap().1, None);
    }

    #[test]
    fn tenant_quota_protects_other_tenants() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.set_tenant_quota(2, 30);
        // Tenant 1 (no quota) warms 60 bytes.
        for k in 0..6u32 {
            c.insert(k, None, 10, k as f64, None, 1, false);
        }
        // Tenant 2 scans 10 entries of 10 bytes: its quota forces its
        // own entries out, never tenant 1's.
        for k in 100..110u32 {
            c.insert(k, None, 10, k as f64, None, 2, false);
        }
        assert_eq!(c.tenant_used(1), 60, "tenant 1 untouched by the scan");
        assert_eq!(c.tenant_used(2), 30, "tenant 2 held to its quota");
        for k in 0..6u32 {
            assert!(c.contains(&k, 200.0), "tenant 1 key {k} evicted by scan");
        }
        // The scan's survivors are its most recent 3 entries.
        for k in 107..110u32 {
            assert!(c.contains(&k, 200.0));
        }
        assert!(!c.contains(&100, 200.0));
    }

    #[test]
    fn tenant_oversized_object_rejected() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.set_tenant_quota(5, 20);
        assert!(!c.insert("big", None, 21, 0.0, None, 5, false));
        assert_eq!(c.stats().rejected, 1);
        assert!(c.insert("ok", None, 20, 0.0, None, 5, false));
    }

    #[test]
    fn tenant_accounting_tracks_detach_paths() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.set_tenant_quota(1, 100);
        c.insert("a", None, 10, 0.0, Some(5.0), 1, false);
        c.insert("b", None, 10, 0.0, None, 1, false);
        assert_eq!(c.tenant_used(1), 20);
        // Re-insert with a new size replaces the accounting.
        c.insert("b", None, 30, 1.0, None, 1, false);
        assert_eq!(c.tenant_used(1), 40);
        // TTL expiry and invalidation both release tenant bytes.
        assert_eq!(c.get(&"a", 6.0), None);
        assert_eq!(c.tenant_used(1), 30);
        c.invalidate(&"b");
        assert_eq!(c.tenant_used(1), 0);
        // Clear resets usage but keeps the quota enforceable.
        c.insert("c", None, 10, 7.0, None, 1, false);
        c.clear();
        assert_eq!(c.tenant_used(1), 0);
        assert!(!c.insert("big", None, 101, 8.0, None, 1, false), "capacity still applies");
    }

    #[test]
    fn quota_set_late_backfills_existing_usage() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.insert(1, None, 40, 0.0, None, 3, false);
        c.insert(2, None, 20, 0.0, None, 4, false);
        c.set_tenant_quota(3, 50);
        assert_eq!(c.tenant_used(3), 40);
        assert_eq!(c.tenant_used(4), 20);
        // Next tenant-3 insert that would exceed 50 evicts tenant 3's
        // own LRU entry.
        c.insert(5, None, 20, 1.0, None, 3, false);
        assert!(!c.contains(&1, 2.0));
        assert!(c.contains(&2, 2.0), "tenant 4 unaffected");
        assert_eq!(c.tenant_used(3), 20);
    }

    #[test]
    fn no_ledger_means_legacy_eviction_order() {
        // Tenant tags without any quota configured: behavior (victims,
        // stats) is identical to the untagged cache.
        let mut tagged: LruCache<u32> = LruCache::new(50);
        let mut plain: LruCache<u32> = LruCache::new(50);
        for i in 0..40u32 {
            let t = (i % 3) as u16;
            assert_eq!(
                tagged.insert(i % 11, None, 7, i as f64, None, t, false),
                plain.put(i % 11, 7, i as f64, None)
            );
            assert_eq!(tagged.get(&(i % 5), i as f64), plain.get(&(i % 5), i as f64));
        }
        assert_eq!(tagged.stats(), plain.stats());
        assert_eq!(tagged.used(), plain.used());
        let mut a: Vec<u32> = tagged.keys().copied().collect();
        let mut b: Vec<u32> = plain.keys().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn pinned_entries_survive_lru_pressure() {
        let mut c: LruCache<u32> = LruCache::new(30);
        assert!(c.insert(0, None, 10, 0.0, None, 0, true));
        assert_eq!(c.pinned_bytes(), 10);
        // A scan of 10 unpinned entries churns past the pin.
        for k in 1..11u32 {
            c.put(k, 10, k as f64, None);
        }
        assert!(c.contains(&0, 20.0), "pinned entry evicted by scan");
        assert!(c.used() <= 30);
        // Unpin returns it to normal lifetime: the next pressure wave
        // can take it.
        assert!(c.unpin(&0));
        assert_eq!(c.pinned_bytes(), 0);
        for k in 20..24u32 {
            c.put(k, 10, 100.0 + k as f64, None);
        }
        assert!(!c.contains(&0, 200.0));
        assert!(!c.unpin(&99), "unpin of absent key is false");
    }

    #[test]
    fn all_pinned_rejects_instead_of_evicting() {
        let mut c: LruCache<u32> = LruCache::new(20);
        assert!(c.insert(1, None, 10, 0.0, None, 0, true));
        assert!(c.insert(2, None, 10, 0.0, None, 0, true));
        // Nothing evictable remains: the insert must lose, not the pins.
        assert!(!c.put(3, 10, 1.0, None));
        assert_eq!(c.stats().rejected, 1);
        assert!(c.contains(&1, 2.0) && c.contains(&2, 2.0));
        assert_eq!(c.used(), 20);
        // Re-inserting a pinned key replaces it (the owner writes a
        // newer epoch) — that is not capacity pressure.
        assert!(c.insert(1, None, 10, 3.0, None, 0, true));
        assert_eq!(c.used(), 20);
        assert_eq!(c.pinned_bytes(), 20);
        assert!(c.contains(&1, 4.0) && c.contains(&2, 4.0));
    }

    #[test]
    fn pinned_respects_tenant_quota() {
        let mut c: LruCache<u32> = LruCache::new(100);
        c.set_tenant_quota(7, 30);
        assert!(c.insert(1, None, 20, 0.0, None, 7, true));
        // Second pin would push tenant 7 past its quota and the first
        // pin can't be evicted to make room: reject, quota holds.
        assert!(!c.insert(2, None, 20, 1.0, None, 7, true));
        assert_eq!(c.tenant_used(7), 20);
        assert!(c.contains(&1, 2.0));
        // An unpinned sibling entry *can* be displaced by a pin.
        assert!(c.insert(3, None, 10, 2.0, None, 7, false));
        assert!(c.insert(4, None, 10, 3.0, None, 7, true));
        assert_eq!(c.tenant_used(7), 30);
    }

    #[test]
    fn pinned_entries_still_expire_and_invalidate() {
        let mut c: LruCache<&str> = LruCache::new(100);
        c.insert("ttl", None, 10, 0.0, Some(5.0), 0, true);
        assert_eq!(c.get(&"ttl", 6.0), None, "TTL still applies to pins");
        assert_eq!(c.pinned_bytes(), 0);
        c.insert("inv", None, 10, 0.0, None, 0, true);
        assert_eq!(c.invalidate(&"inv"), Some(10));
        assert_eq!(c.pinned_bytes(), 0);
    }

    #[test]
    fn slots_recycled_through_free_list() {
        let mut c: LruCache<u32> = LruCache::new(3);
        for round in 0..10u64 {
            for k in 0..3u32 {
                c.put(k, 1, round as f64, None);
            }
        }
        // 3 resident + arena never grew past the working set.
        assert_eq!(c.len(), 3);
        assert!(c.slots.len() <= 4, "arena grew to {}", c.slots.len());
    }
}
