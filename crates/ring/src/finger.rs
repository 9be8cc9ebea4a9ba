//! Chord finger tables and DHT routing.
//!
//! The paper (§II-A) keeps a *complete* routing table on every server —
//! `m` chosen so that `2^m - 1 > S` and, for clusters below a couple of
//! thousand servers, `m = S` enabling **one-hop routing** (citing Gupta's
//! one-hop lookups). We implement both regimes:
//!
//! * [`RoutingMode::OneHop`] — the table holds every member; lookups
//!   resolve in a single hop (zero forwarding).
//! * [`RoutingMode::Chord`] — classic Chord fingers `succ(n + 2^i)`;
//!   lookups forward through the closest preceding finger in
//!   `O(log S)` hops. Used by the finger-routing ablation bench.

use crate::node::NodeId;
use crate::ring::{Ring, RingError};
use eclipse_util::HashKey;

/// Which routing table layout a server keeps.
///
/// The paper (§II-A): "each server manages its own routing table, called
/// finger table, containing m peer servers' information. m can be
/// determined by system administrators but it should be chosen so that
/// 2^m − 1 > S … we set m to the total number of servers to enable the
/// one hop DHT routing. When m is smaller, file IO requests can be
/// redirected and the IO performance can be degraded."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Complete membership on each node: every lookup is one hop (the
    /// paper's deployment choice, m = S).
    OneHop,
    /// Logarithmic finger table: lookups may forward.
    Chord,
    /// A subsampled finger table of `m` entries (the administrator's
    /// size knob): strides are spread over the full 64-bit span, always
    /// including the immediate successor so lookups stay correct. Fewer
    /// fingers ⇒ coarser strides ⇒ more redirections — the paper's
    /// "when m is smaller, file IO requests can be redirected and the IO
    /// performance can be degraded".
    Partial(u32),
}

/// A single server's routing table.
#[derive(Clone, Debug)]
pub struct FingerTable {
    /// Owner of this table.
    pub node: NodeId,
    /// Ring position of the owner.
    pub key: HashKey,
    mode: RoutingMode,
    /// For `Chord`: (finger target key, resolved node, node's ring key)
    /// for i in 0..64. For `OneHop`: the full membership sorted by key.
    entries: Vec<(HashKey, NodeId)>,
}

impl FingerTable {
    /// Build the table for `node` from the current ring membership.
    pub fn build(ring: &Ring, node: NodeId, mode: RoutingMode) -> Result<FingerTable, RingError> {
        let key = ring.key_of(node)?;
        let entries = match mode {
            RoutingMode::OneHop => {
                ring.members().map(|s| (s.key, s.id)).collect()
            }
            RoutingMode::Chord | RoutingMode::Partial(_) => {
                // Finger indices: all 64 for Chord; for Partial(m), m
                // indices evenly subsampled with index 0 (the successor)
                // always present.
                let indices: Vec<u32> = match mode {
                    RoutingMode::Partial(m) => {
                        assert!((1..=64).contains(&m), "m out of range");
                        (0..m).map(|j| j * 64 / m).collect()
                    }
                    _ => (0..64).collect(),
                };
                let mut v = Vec::with_capacity(indices.len());
                for i in indices {
                    let target = key.finger(i);
                    // Chord finger = successor(target): first node at or
                    // after the target. Our owner_of is predecessor-or-
                    // equal, so the finger is owner's successor unless the
                    // owner sits exactly on the target.
                    let owner = ring.owner_of(target)?;
                    let finger = if owner.key == target {
                        owner
                    } else {
                        ring.successor(owner.id)?
                    };
                    v.push((finger.key, finger.id));
                }
                v
            }
        };
        Ok(FingerTable { node, key, mode, entries })
    }

    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Number of stored entries (m in the paper's terms).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Next hop toward the owner of `key`, or `None` if this node can
    /// resolve the key itself (one-hop mode resolves everything locally).
    ///
    /// For Chord mode this is the *closest preceding finger*: the finger
    /// whose key is the latest strictly between this node and the target.
    pub fn next_hop(&self, key: HashKey, ring: &Ring) -> Result<Option<NodeId>, RingError> {
        let owner = ring.owner_of(key)?.id;
        if owner == self.node {
            return Ok(None);
        }
        match self.mode {
            RoutingMode::OneHop => Ok(Some(owner)),
            RoutingMode::Chord | RoutingMode::Partial(_) => {
                // Greatest finger key in the open arc (self.key, key).
                let span = self.key.distance_to(key);
                let mut best: Option<(u64, NodeId)> = None;
                for &(fk, fid) in &self.entries {
                    if fid == self.node {
                        continue;
                    }
                    let d = self.key.distance_to(fk);
                    if d > 0 && d < span {
                        match best {
                            Some((bd, _)) if bd >= d => {}
                            _ => best = Some((d, fid)),
                        }
                    }
                }
                // No finger precedes the target: the direct successor is
                // the owner.
                Ok(Some(best.map(|(_, id)| id).unwrap_or(owner)))
            }
        }
    }
}

/// Routing fabric: one finger table per member, plus lookup-path tracing
/// for the routing ablation.
#[derive(Clone, Debug)]
pub struct Router {
    tables: Vec<FingerTable>,
    mode: RoutingMode,
}

impl Router {
    /// Build tables for every current member.
    pub fn build(ring: &Ring, mode: RoutingMode) -> Result<Router, RingError> {
        let mut tables = Vec::with_capacity(ring.len());
        for s in ring.members() {
            tables.push(FingerTable::build(ring, s.id, mode)?);
        }
        Ok(Router { tables, mode })
    }

    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    fn table_of(&self, node: NodeId) -> Option<&FingerTable> {
        self.tables.iter().find(|t| t.node == node)
    }

    /// Resolve `key` starting at `from`; returns the hop path **excluding**
    /// the starting node and **ending at the owner**. One-hop mode yields
    /// at most one element.
    pub fn route(&self, ring: &Ring, from: NodeId, key: HashKey) -> Result<Vec<NodeId>, RingError> {
        let mut path = Vec::new();
        let mut at = from;
        // Bound iterations defensively: Chord terminates in O(log n);
        // sparse partial tables may walk successor chains.
        for _ in 0..(64 + 2 * ring.len()) {
            let table = self.table_of(at).ok_or(RingError::UnknownNode(at))?;
            match table.next_hop(key, ring)? {
                None => return Ok(path),
                Some(next) => {
                    path.push(next);
                    at = next;
                    if ring.owner_of(key)?.id == next {
                        return Ok(path);
                    }
                }
            }
        }
        unreachable!("routing failed to converge — finger tables inconsistent");
    }

    /// Number of forwarding hops for a lookup (0 = local hit).
    pub fn hops(&self, ring: &Ring, from: NodeId, key: HashKey) -> Result<usize, RingError> {
        Ok(self.route(ring, from, key)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ServerInfo;

    fn ring_n(n: usize) -> Ring {
        Ring::with_servers(n, "srv")
    }

    #[test]
    fn one_hop_resolves_in_at_most_one_hop() {
        let ring = ring_n(16);
        let router = Router::build(&ring, RoutingMode::OneHop).unwrap();
        let ids = ring.node_ids();
        for probe in 0..200u64 {
            let key = HashKey::of_name(&format!("probe-{probe}"));
            let from = ids[probe as usize % ids.len()];
            let hops = router.hops(&ring, from, key).unwrap();
            assert!(hops <= 1, "one-hop exceeded: {hops}");
            // Path must end at the true owner (or be empty if local).
            let path = router.route(&ring, from, key).unwrap();
            let owner = ring.owner_of(key).unwrap().id;
            match path.last() {
                Some(&last) => assert_eq!(last, owner),
                None => assert_eq!(from, owner),
            }
        }
    }

    #[test]
    fn chord_routing_reaches_owner_in_log_hops() {
        let ring = ring_n(64);
        let router = Router::build(&ring, RoutingMode::Chord).unwrap();
        let ids = ring.node_ids();
        let mut max_hops = 0;
        for probe in 0..300u64 {
            let key = HashKey::of_name(&format!("k{probe}"));
            let from = ids[(probe as usize * 7) % ids.len()];
            let path = router.route(&ring, from, key).unwrap();
            let owner = ring.owner_of(key).unwrap().id;
            match path.last() {
                Some(&last) => assert_eq!(last, owner, "probe {probe}"),
                None => assert_eq!(from, owner, "probe {probe}"),
            }
            max_hops = max_hops.max(path.len());
        }
        // Chord bound: O(log2 64) = 6, allow slack.
        assert!(max_hops <= 10, "chord hops too high: {max_hops}");
        assert!(max_hops >= 2, "chord should need forwarding on 64 nodes");
    }

    #[test]
    fn chord_finger_targets_are_successors() {
        let mut ring = Ring::new();
        for (i, k) in [10u64, 100, 1000, 10000].iter().enumerate() {
            ring.insert(ServerInfo::at_key(NodeId(i as u32), format!("s{i}"), HashKey(*k)))
                .unwrap();
        }
        let t = FingerTable::build(&ring, NodeId(0), RoutingMode::Chord).unwrap();
        assert_eq!(t.len(), 64);
        // finger(0) targets key 11 -> successor is the node at 100.
        assert_eq!(t.entries[0].1, NodeId(1));
        // A huge finger (2^63) wraps: target 10 + 2^63, successor wraps to
        // the first node (key 10).
        assert_eq!(t.entries[63].1, NodeId(0));
    }

    #[test]
    fn one_hop_table_holds_full_membership() {
        let ring = ring_n(24);
        let t = FingerTable::build(&ring, ring.node_ids()[0], RoutingMode::OneHop).unwrap();
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn partial_tables_route_correctly_but_slower() {
        let ring = ring_n(48);
        let full = Router::build(&ring, RoutingMode::Chord).unwrap();
        // 2^6 - 1 = 63 > 48: the smallest legal m for this cluster.
        let partial = Router::build(&ring, RoutingMode::Partial(6)).unwrap();
        let tiny = Router::build(&ring, RoutingMode::Partial(3)).unwrap();
        let ids = ring.node_ids();
        let mut hops = [0usize; 3];
        for probe in 0..200u64 {
            let key = HashKey::of_name(&format!("p{probe}"));
            let from = ids[(probe as usize * 11) % ids.len()];
            let owner = ring.owner_of(key).unwrap().id;
            for (h, router) in hops.iter_mut().zip([&full, &partial, &tiny]) {
                let path = router.route(&ring, from, key).unwrap();
                match path.last() {
                    Some(&last) => assert_eq!(last, owner),
                    None => assert_eq!(from, owner),
                }
                *h += path.len();
            }
        }
        // Fewer fingers ⇒ more redirections (the paper's m trade-off).
        assert!(hops[0] <= hops[1], "full {} partial {}", hops[0], hops[1]);
        assert!(hops[1] < hops[2], "partial {} tiny {}", hops[1], hops[2]);
    }

    #[test]
    fn local_key_needs_no_hop() {
        let ring = ring_n(8);
        let router = Router::build(&ring, RoutingMode::Chord).unwrap();
        for s in ring.members() {
            // Probe the node's own ring position: always local.
            let path = router.route(&ring, s.id, s.key).unwrap();
            assert!(path.is_empty());
        }
    }
}
