//! # eclipse-util
//!
//! Foundation crate for the EclipseMR reproduction: the SHA-1 hash used by
//! both consistent-hash rings, 64-bit ring coordinates and wrapping key
//! ranges, the histogram/KDE/CDF machinery behind the LAF scheduler, and
//! small statistics and byte-size helpers.
//!
//! Everything here is pure and deterministic; no I/O, no threads.

pub mod hist;
pub mod key;
pub mod sha1;
pub mod size;
pub mod stats;

pub use hist::{Cdf, KeyHistogram};
pub use key::{HashKey, KeyRange};
pub use sha1::{sha1, Digest, Sha1};
pub use size::{fmt_bytes, num_blocks, DEFAULT_BLOCK_SIZE, GB, KB, MB, TB};
pub use stats::OnlineStats;
