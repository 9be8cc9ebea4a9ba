//! Cache entry identities.
//!
//! EclipseMR's distributed in-memory cache has two partitions (§II-B):
//!
//! * **iCache** — input file blocks, cached *implicitly* when a map task
//!   reads them. Keyed by the block.
//! * **oCache** — intermediate results and iteration outputs, cached
//!   *explicitly* by applications and "tagged with their metadata
//!   (application ID, user-assigned ID for cached data)".
//!
//! Both kinds are located on the ring by a hash key, so the scheduler's
//! range table can find them without a central directory.

use eclipse_util::HashKey;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Tag identifying an explicitly cached object in oCache.
///
/// The ring key is computed once at construction and memoized, so
/// [`hash_key`](OutputTag::hash_key) on the cache hot path is a field
/// read instead of a buffer build plus a SHA-1 pass. Fields are private
/// to keep the memo consistent — construct via [`OutputTag::new`].
#[derive(Clone, Debug)]
pub struct OutputTag {
    /// Application identifier (e.g. "pagerank").
    app: String,
    /// User-assigned identifier for the cached object (e.g.
    /// "iter3/part-00012").
    tag: String,
    /// Memoized ring key of (`app`, `tag`).
    key: HashKey,
}

impl OutputTag {
    pub fn new(app: impl Into<String>, tag: impl Into<String>) -> OutputTag {
        let app = app.into();
        let tag = tag.into();
        let mut buf = Vec::with_capacity(app.len() + tag.len() + 1);
        buf.extend_from_slice(app.as_bytes());
        buf.push(0);
        buf.extend_from_slice(tag.as_bytes());
        let key = HashKey::of_bytes(&buf);
        OutputTag { app, tag, key }
    }

    /// Application identifier.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// User-assigned identifier for the cached object.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Ring key of the tagged object: hash of `app` and `tag` together
    /// (memoized at construction).
    #[inline]
    pub fn hash_key(&self) -> HashKey {
        self.key
    }
}

impl PartialEq for OutputTag {
    fn eq(&self, other: &OutputTag) -> bool {
        // The memoized key is a cheap prefilter; equal tags always have
        // equal keys, so compare it first and fall back to the strings
        // only on a key match (collisions are possible in principle).
        self.key == other.key && self.app == other.app && self.tag == other.tag
    }
}

impl Eq for OutputTag {}

impl Hash for OutputTag {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hashing only the memoized 64-bit key is sound (a == b implies
        // key_a == key_b) and keeps index-map lookups to one u64 mix
        // instead of re-hashing both strings.
        self.key.0.hash(state);
    }
}

impl PartialOrd for OutputTag {
    fn partial_cmp(&self, other: &OutputTag) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OutputTag {
    fn cmp(&self, other: &OutputTag) -> Ordering {
        // Order by the visible identity, as the old derived Ord did.
        (&self.app, &self.tag).cmp(&(&other.app, &other.tag))
    }
}

/// Identity of any cached object.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CacheKey {
    /// iCache: an input block, identified by its placement hash key.
    /// (We key by the ring hash key rather than `BlockId` so cache and
    /// scheduler agree byte-for-byte on placement.)
    Input(HashKey),
    /// oCache: a tagged intermediate result or iteration output.
    Output(OutputTag),
}

impl CacheKey {
    /// The ring position used to locate this entry.
    #[inline]
    pub fn hash_key(&self) -> HashKey {
        match self {
            CacheKey::Input(k) => *k,
            CacheKey::Output(t) => t.hash_key(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_tag_key_depends_on_both_parts() {
        let a = OutputTag::new("pagerank", "iter1").hash_key();
        let b = OutputTag::new("pagerank", "iter2").hash_key();
        let c = OutputTag::new("kmeans", "iter1").hash_key();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, OutputTag::new("pagerank", "iter1").hash_key());
    }

    #[test]
    fn tag_separator_prevents_ambiguity() {
        // ("ab", "c") must differ from ("a", "bc").
        let x = OutputTag::new("ab", "c").hash_key();
        let y = OutputTag::new("a", "bc").hash_key();
        assert_ne!(x, y);
    }

    #[test]
    fn memoized_key_matches_fresh_hash() {
        let t = OutputTag::new("pagerank", "iter3/part-00012");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"pagerank");
        buf.push(0);
        buf.extend_from_slice(b"iter3/part-00012");
        assert_eq!(t.hash_key(), HashKey::of_bytes(&buf));
        // Clones carry the memo.
        assert_eq!(t.clone().hash_key(), t.hash_key());
    }

    #[test]
    fn equality_and_order_follow_visible_identity() {
        let a = OutputTag::new("app", "x");
        let b = OutputTag::new("app", "x");
        let c = OutputTag::new("app", "y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
        assert_eq!(a.app(), "app");
        assert_eq!(a.tag(), "x");
    }

    #[test]
    fn cache_key_kinds() {
        let i = CacheKey::Input(HashKey(5));
        let o = CacheKey::Output(OutputTag::new("a", "b"));
        assert_eq!(i.hash_key(), HashKey(5));
        assert_eq!(o.hash_key(), OutputTag::new("a", "b").hash_key());
        assert_ne!(i, CacheKey::Input(o.hash_key()));
    }
}
