//! # eclipse-ring
//!
//! The consistent-hash ring substrate shared by EclipseMR's two ring
//! layers (the DHT file system and the distributed in-memory cache):
//! sorted membership (one position per server) with ownership arcs,
//! replica placement, Chord finger tables with both one-hop and
//! logarithmic routing, and the Chord stabilization protocol. Membership
//! *changes* — join, leave, crash recovery, the paper's §II resource-manager
//! role — are driven by the live executor (`eclipse_core`'s
//! `live/membership.rs`); this crate only holds the ring they publish.

pub mod finger;
pub mod node;
pub mod ring;
pub mod stabilize;

pub use finger::{FingerTable, Router, RoutingMode};
pub use node::{NodeId, ServerInfo};
pub use ring::{Ring, RingError};
pub use stabilize::{ChordNet, SUCCESSOR_LIST_LEN};
