//! Node identities.

use eclipse_util::HashKey;
use serde::{Deserialize, Serialize};

/// Dense numeric identifier of a cluster server. These are assigned at
/// join time (the next free index) and used as indices throughout the
/// workspace (slot tables, disk models, cache shards).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A server's identity on the ring: its id, human-readable name, and the
/// ring coordinate derived from the name (SHA-1, like file keys).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerInfo {
    pub id: NodeId,
    pub name: String,
    pub key: HashKey,
}

impl ServerInfo {
    /// A server whose ring position is the hash of its name — the normal
    /// production path.
    pub fn from_name(id: NodeId, name: impl Into<String>) -> ServerInfo {
        let name = name.into();
        let key = HashKey::of_name(&name);
        ServerInfo { id, name, key }
    }

    /// A server pinned to an explicit ring position — used by tests and by
    /// figures that reproduce the paper's worked examples (keys 5, 15, 26,
    /// 39, 47, 57 in Fig. 1).
    pub fn at_key(id: NodeId, name: impl Into<String>, key: HashKey) -> ServerInfo {
        ServerInfo { id, name: name.into(), key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_determines_key() {
        let a = ServerInfo::from_name(NodeId(0), "server-A");
        let b = ServerInfo::from_name(NodeId(1), "server-A");
        assert_eq!(a.key, b.key);
        let c = ServerInfo::from_name(NodeId(2), "server-C");
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn pinned_key_is_respected() {
        let s = ServerInfo::at_key(NodeId(9), "x", HashKey(42));
        assert_eq!(s.key, HashKey(42));
        assert_eq!(s.id.index(), 9);
    }
}
