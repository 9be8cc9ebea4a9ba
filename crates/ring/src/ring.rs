//! The consistent-hash ring: sorted membership, ownership ranges,
//! predecessor/successor queries, and minimal-disruption join/leave.
//!
//! Ownership convention follows the paper's Fig. 1: the server positioned
//! at ring key `h` owns the half-open arc `[h, next_server_key)`. The
//! owner of an arbitrary key `k` is therefore the server with the greatest
//! ring position `<= k` (wrapping) — `predecessor-or-equal`.

use crate::node::{NodeId, ServerInfo};
use eclipse_util::{HashKey, KeyRange};
use std::collections::BTreeMap;

/// Error type for ring mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingError {
    /// Two servers may not share one ring coordinate.
    DuplicateKey(HashKey),
    /// A node id was inserted twice.
    DuplicateNode(NodeId),
    /// The node is not a member.
    UnknownNode(NodeId),
    /// Operation requires a non-empty ring.
    EmptyRing,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::DuplicateKey(k) => write!(f, "ring position {k} already occupied"),
            RingError::DuplicateNode(n) => write!(f, "node {n} already a member"),
            RingError::UnknownNode(n) => write!(f, "node {n} is not a member"),
            RingError::EmptyRing => write!(f, "ring is empty"),
        }
    }
}

impl std::error::Error for RingError {}

/// Sorted ring membership.
///
/// ```
/// use eclipse_ring::Ring;
/// use eclipse_util::HashKey;
///
/// let ring = Ring::with_servers_evenly_spaced(4, "node");
/// let key = HashKey::of_name("some-file");
/// let owner = ring.owner_of(key).unwrap().id;
/// // The owner plus its successor and predecessor hold the replicas.
/// let replicas = ring.replica_set(key, 2).unwrap();
/// assert_eq!(replicas.len(), 3);
/// assert_eq!(replicas[0], owner);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ring {
    /// Ring position -> server. BTreeMap keeps clockwise order.
    by_key: BTreeMap<HashKey, ServerInfo>,
    /// Node id -> ring position, for O(log n) reverse lookups.
    by_node: BTreeMap<NodeId, HashKey>,
}

impl Ring {
    pub fn new() -> Ring {
        Ring::default()
    }

    /// Build a ring of `n` servers named `prefix-<i>`, positions hashed
    /// from the names. Node ids are `0..n`.
    pub fn with_servers(n: usize, prefix: &str) -> Ring {
        let mut ring = Ring::new();
        for i in 0..n {
            let mut name = format!("{prefix}-{i}");
            let mut info = ServerInfo::from_name(NodeId(i as u32), name.clone());
            // Astronomically unlikely, but keep the invariant airtight:
            // re-salt on a position collision.
            let mut salt = 0u32;
            while ring.by_key.contains_key(&info.key) {
                salt += 1;
                name = format!("{prefix}-{i}+{salt}");
                info = ServerInfo::from_name(NodeId(i as u32), name.clone());
            }
            ring.insert(info).expect("fresh node id and key");
        }
        ring
    }

    /// Build a ring of `n` servers at evenly spaced positions
    /// (server `i` at `i * 2^64 / n`) — how small stationary clusters
    /// assign DHT ids in practice (the paper's Fig. 1 shows roughly
    /// equidistant server keys). Even spacing makes block placement
    /// balanced and keeps the LAF scheduler's equal-probability ranges
    /// aligned with the file-system arcs under uniform access.
    pub fn with_servers_evenly_spaced(n: usize, prefix: &str) -> Ring {
        assert!(n > 0);
        let mut ring = Ring::new();
        for i in 0..n {
            let key = HashKey((((i as u128) << 64) / n as u128) as u64);
            ring.insert(ServerInfo::at_key(NodeId(i as u32), format!("{prefix}-{i}"), key))
                .expect("fresh node id and key");
        }
        ring
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.by_node.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Add a server. Fails on duplicate node id or ring position.
    pub fn insert(&mut self, info: ServerInfo) -> Result<(), RingError> {
        if self.by_node.contains_key(&info.id) {
            return Err(RingError::DuplicateNode(info.id));
        }
        if self.by_key.contains_key(&info.key) {
            return Err(RingError::DuplicateKey(info.key));
        }
        self.by_node.insert(info.id, info.key);
        self.by_key.insert(info.key, info);
        Ok(())
    }

    /// Remove a server (leave or failure). Returns its info.
    pub fn remove(&mut self, id: NodeId) -> Result<ServerInfo, RingError> {
        let key = self.by_node.remove(&id).ok_or(RingError::UnknownNode(id))?;
        Ok(self.by_key.remove(&key).expect("maps kept in sync"))
    }

    /// Ring position of a member.
    pub fn key_of(&self, id: NodeId) -> Result<HashKey, RingError> {
        self.by_node.get(&id).copied().ok_or(RingError::UnknownNode(id))
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.by_node.contains_key(&id)
    }

    /// Servers in clockwise (ascending key) order.
    pub fn members(&self) -> impl Iterator<Item = &ServerInfo> {
        self.by_key.values()
    }

    /// Node ids in clockwise (ascending key) order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.by_key.values().map(|s| s.id).collect()
    }

    /// The server owning `key`: greatest ring position `<= key`, wrapping
    /// to the last server if `key` precedes every position.
    pub fn owner_of(&self, key: HashKey) -> Result<&ServerInfo, RingError> {
        if self.by_key.is_empty() {
            return Err(RingError::EmptyRing);
        }
        let found = self
            .by_key
            .range(..=key)
            .next_back()
            .or_else(|| self.by_key.iter().next_back())
            .map(|(_, v)| v)
            .expect("non-empty ring");
        Ok(found)
    }

    /// The server at the first position clockwise after `key` (wraps).
    fn next_after(&self, key: HashKey) -> &ServerInfo {
        use std::ops::Bound::{Excluded, Unbounded};
        self.by_key
            .range((Excluded(key), Unbounded))
            .next()
            .or_else(|| self.by_key.iter().next())
            .map(|(_, v)| v)
            .expect("non-empty ring")
    }

    /// The server at the first position counter-clockwise before `key`
    /// (wraps).
    fn prev_before(&self, key: HashKey) -> &ServerInfo {
        self.by_key
            .range(..key)
            .next_back()
            .or_else(|| self.by_key.iter().next_back())
            .map(|(_, v)| v)
            .expect("non-empty ring")
    }

    /// Clockwise successor of the member `id` (wraps; the single member
    /// of a 1-ring is its own successor).
    pub fn successor(&self, id: NodeId) -> Result<&ServerInfo, RingError> {
        Ok(self.next_after(self.key_of(id)?))
    }

    /// Counter-clockwise predecessor of the member `id` (wraps).
    pub fn predecessor(&self, id: NodeId) -> Result<&ServerInfo, RingError> {
        Ok(self.prev_before(self.key_of(id)?))
    }

    /// The arc owned by member `id`: `[own_key, successor_key)`, or the
    /// full ring for a single member.
    pub fn range_of(&self, id: NodeId) -> Result<KeyRange, RingError> {
        let key = self.key_of(id)?;
        let succ = self.successor(id)?;
        if succ.key == key {
            Ok(KeyRange::full(key))
        } else {
            Ok(KeyRange::new(key, succ.key))
        }
    }

    /// All ownership arcs in clockwise position order; tiles the ring.
    pub fn ranges(&self) -> Vec<(NodeId, KeyRange)> {
        let positions: Vec<(&HashKey, NodeId)> =
            self.by_key.iter().map(|(k, s)| (k, s.id)).collect();
        let n = positions.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![(positions[0].1, KeyRange::full(*positions[0].0))];
        }
        (0..n)
            .map(|i| {
                let (lo, id) = positions[i];
                let (hi, _) = positions[(i + 1) % n];
                (id, KeyRange::new(*lo, *hi))
            })
            .collect()
    }

    /// Replica set for `key`: the owner followed by `replicas` distinct
    /// further servers, alternating successor/predecessor as in the paper
    /// ("replicating the file metadata as well as file blocks in
    /// predecessors and successors", §II-A). With `replicas = 2` this is
    /// {owner, successor, predecessor}. Returns fewer entries when the
    /// ring is smaller than the requested set.
    pub fn replica_set(&self, key: HashKey, replicas: usize) -> Result<Vec<NodeId>, RingError> {
        let owner = self.owner_of(key)?;
        let want = (replicas + 1).min(self.len());
        let mut out = vec![owner.id];
        // Alternate one step clockwise, one counter-clockwise. The two
        // walks cannot meet before `want <= len` servers are collected,
        // so every entry is distinct.
        let (mut succ, mut pred) = (owner.key, owner.key);
        while out.len() < want {
            let next = self.next_after(succ);
            succ = next.key;
            out.push(next.id);
            if out.len() < want {
                let prev = self.prev_before(pred);
                pred = prev.key;
                out.push(prev.id);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 ring: six servers at keys 5, 15, 26, 39, 47, 57
    /// (scaled up to the u64 space by multiplying with 2^58 so arithmetic
    /// stays interesting; plain small values work too).
    fn paper_ring() -> Ring {
        let mut r = Ring::new();
        for (i, k) in [5u64, 15, 26, 39, 47, 57].iter().enumerate() {
            r.insert(ServerInfo::at_key(NodeId(i as u32), format!("s{i}"), HashKey(*k)))
                .unwrap();
        }
        r
    }

    #[test]
    fn owner_matches_paper_figure() {
        let r = paper_ring();
        // Fig. 1 inner ring: B=[5,15) owns key 11; file key 38 owned by
        // the server at 26; key 56 owned by the server at 47; key 6 owned
        // by the server at 5; key 3 wraps to the server at 57.
        assert_eq!(r.owner_of(HashKey(11)).unwrap().key, HashKey(5));
        assert_eq!(r.owner_of(HashKey(38)).unwrap().key, HashKey(26));
        assert_eq!(r.owner_of(HashKey(56)).unwrap().key, HashKey(47));
        assert_eq!(r.owner_of(HashKey(6)).unwrap().key, HashKey(5));
        assert_eq!(r.owner_of(HashKey(3)).unwrap().key, HashKey(57));
        assert_eq!(r.owner_of(HashKey(5)).unwrap().key, HashKey(5));
    }

    #[test]
    fn ranges_tile_the_ring() {
        let r = paper_ring();
        let ranges = r.ranges();
        assert_eq!(ranges.len(), 6);
        let total: u128 = ranges.iter().map(|(_, kr)| kr.len()).sum();
        assert_eq!(total, 1u128 << 64);
        // Every probe key owned exactly once.
        for k in [0u64, 5, 14, 15, 38, 46, 47, 56, 57, u64::MAX] {
            let owners = ranges.iter().filter(|(_, kr)| kr.contains(HashKey(k))).count();
            assert_eq!(owners, 1, "key {k}");
        }
    }

    #[test]
    fn successor_predecessor_wrap() {
        let r = paper_ring();
        let last = r.owner_of(HashKey(57)).unwrap().id;
        let first = r.owner_of(HashKey(5)).unwrap().id;
        assert_eq!(r.successor(last).unwrap().id, first);
        assert_eq!(r.predecessor(first).unwrap().id, last);
    }

    #[test]
    fn single_member_owns_everything() {
        let mut r = Ring::new();
        r.insert(ServerInfo::at_key(NodeId(0), "solo", HashKey(100))).unwrap();
        assert!(r.range_of(NodeId(0)).unwrap().is_full());
        assert_eq!(r.owner_of(HashKey(0)).unwrap().id, NodeId(0));
        assert_eq!(r.successor(NodeId(0)).unwrap().id, NodeId(0));
        assert_eq!(r.predecessor(NodeId(0)).unwrap().id, NodeId(0));
    }

    #[test]
    fn join_moves_minimal_keys() {
        let mut r = paper_ring();
        // Keys owned before the join.
        let owned_before: Vec<(u64, NodeId)> =
            (0..64).map(|k| (k, r.owner_of(HashKey(k)).unwrap().id)).collect();
        r.insert(ServerInfo::at_key(NodeId(6), "new", HashKey(30))).unwrap();
        for (k, old_owner) in owned_before {
            let new_owner = r.owner_of(HashKey(k)).unwrap().id;
            if (30..39).contains(&k) {
                assert_eq!(new_owner, NodeId(6), "key {k} must move to the joiner");
            } else {
                assert_eq!(new_owner, old_owner, "key {k} must not move");
            }
        }
    }

    #[test]
    fn leave_transfers_to_successor() {
        let mut r = paper_ring();
        let victim = r.owner_of(HashKey(26)).unwrap().id;
        r.remove(victim).unwrap();
        // Keys in [26, 39) now belong to the predecessor at 15 (owner =
        // predecessor-or-equal convention shifts them counter-clockwise).
        assert_eq!(r.owner_of(HashKey(30)).unwrap().key, HashKey(15));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn replica_set_is_owner_succ_pred() {
        let r = paper_ring();
        let set = r.replica_set(HashKey(40), 2).unwrap();
        // Owner of 40 is the server at 39; successor at 47; predecessor at 26.
        let key_of = |id: NodeId| r.key_of(id).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(key_of(set[0]), HashKey(39));
        assert_eq!(key_of(set[1]), HashKey(47));
        assert_eq!(key_of(set[2]), HashKey(26));
    }

    #[test]
    fn replica_set_clamped_by_ring_size() {
        let mut r = Ring::new();
        r.insert(ServerInfo::at_key(NodeId(0), "a", HashKey(10))).unwrap();
        r.insert(ServerInfo::at_key(NodeId(1), "b", HashKey(20))).unwrap();
        let set = r.replica_set(HashKey(12), 4).unwrap();
        assert_eq!(set.len(), 2);
        // Asking for more replicas than servers yields every server once.
        let r = paper_ring();
        for k in [0u64, 11, 38, 56, 60] {
            let mut set = r.replica_set(HashKey(k), 9).unwrap();
            set.sort();
            set.dedup();
            assert_eq!(set.len(), 6, "key {k}");
        }
    }

    #[test]
    fn errors() {
        let mut r = Ring::new();
        assert_eq!(r.owner_of(HashKey(1)).unwrap_err(), RingError::EmptyRing);
        r.insert(ServerInfo::at_key(NodeId(0), "a", HashKey(10))).unwrap();
        assert_eq!(
            r.insert(ServerInfo::at_key(NodeId(0), "b", HashKey(11))).unwrap_err(),
            RingError::DuplicateNode(NodeId(0))
        );
        assert_eq!(
            r.insert(ServerInfo::at_key(NodeId(1), "c", HashKey(10))).unwrap_err(),
            RingError::DuplicateKey(HashKey(10))
        );
        assert_eq!(r.remove(NodeId(9)).unwrap_err(), RingError::UnknownNode(NodeId(9)));
    }

    #[test]
    fn with_servers_builds_n() {
        let r = Ring::with_servers(40, "node");
        assert_eq!(r.len(), 40);
        let ids = r.node_ids();
        assert_eq!(ids.len(), 40);
    }
}
