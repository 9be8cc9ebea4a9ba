//! # eclipse-dhtfs
//!
//! EclipseMR's decentralized DHT file system (the paper's inner ring):
//! files are partitioned into fixed-size blocks placed by consistent
//! hashing, metadata records live on the server owning the file-name
//! hash, and everything is replicated on the ring predecessor and
//! successor. Includes the HDFS control-plane model used as the Fig. 5
//! comparison baseline and an in-memory payload store for the live
//! executor.

pub mod fs;
pub mod hdfs;
pub mod intermediate;
pub mod meta;
pub mod store;

pub use fs::{DhtFs, DhtFsConfig, FailurePlan, FsError, RecoveryCopy};
pub use intermediate::{IntermediateConfig, IntermediateStore, SegmentId};
pub use hdfs::{HdfsFs, HdfsPlacement, NameNodeConfig};
pub use meta::{BlockId, BlockInfo, FileMetadata};
pub use store::BlockStore;
