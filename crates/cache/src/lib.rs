//! # eclipse-cache
//!
//! EclipseMR's distributed in-memory cache (the paper's outer ring):
//! one LRU cache per server whose byte budget is shared by the implicit
//! input-block entries (iCache) and the explicit tagged outputs
//! (oCache, TTL-invalidated), addressed cluster-wide by a
//! scheduler-owned hash-key range table. Includes the optional
//! misplaced-entry migration pass from §II-E.
//!
//! Three layers: [`DistributedCache`] holds the range table and one
//! [`ShardedNodeCache`] per server; that splits the server's budget
//! over key-hashed shards, each a [`LruCache`] behind its own lock.

pub mod distcache;
pub mod entry;
pub mod lru;
pub mod sharded;

pub use distcache::DistributedCache;
pub use entry::{CacheKey, OutputTag};
pub use lru::{CacheStats, LruCache};
pub use sharded::ShardedNodeCache;
