//! # eclipse-ring
//!
//! The consistent-hash ring substrate shared by EclipseMR's two ring
//! layers (the DHT file system and the distributed in-memory cache):
//! sorted membership (one position per server) with ownership arcs,
//! replica placement, and Chord finger tables with both one-hop and
//! logarithmic routing. Membership *changes* — join, leave, crash
//! recovery, the paper's §II resource-manager role — are driven by the
//! live executor (`eclipse_core`'s `live/membership.rs`), which
//! publishes the DHT file system's ring as the one routing table; this
//! crate only holds the ring it publishes.

pub mod finger;
pub mod node;
pub mod ring;

pub use finger::{FingerTable, Router, RoutingMode};
pub use node::{NodeId, ServerInfo};
pub use ring::{Ring, RingError};
