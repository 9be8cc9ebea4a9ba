//! # eclipse-core
//!
//! The EclipseMR MapReduce engine: job/task model, proactive shuffle,
//! the simulator-driven executor that reproduces the paper's cluster
//! experiments, and a live multithreaded executor that runs real
//! map/reduce functions over real data with the same placement logic.

pub mod dst;
pub mod epoch;
pub mod job;
pub mod live;
pub mod server;
pub mod shuffle;
pub mod sim_exec;
pub mod timeline;

pub use dst::{
    ChaosObserver, DstFault, DstPreset, DstReport, DstSweep, DstWorkload, FaultConfig, NetOp,
    Point, Verdict,
};
pub use epoch::{EpochDriver, EpochReport, EpochSnapshot, SnapshotPartition, StreamSpec};
pub use job::{JobError, JobId, JobReport, JobSpec, ReadSource, ReusePolicy};
pub use live::{
    Accumulator, DstEvent, DstObserver, FaultPlan, LiveCluster, LiveConfig, LiveStats, MapReduce,
    RecoveryReport, SpeculationConfig, TransportKind,
};
/// The transport plane (re-exported so downstream crates reach the
/// chaos API and stats types without a direct dependency).
pub use eclipse_net as net;
pub use server::{
    AdmissionPolicy, JobHandle, JobServer, JobServerConfig, PoolJobSpec, StreamHandle,
};
pub use shuffle::{Spill, SpillBuffer};
pub use timeline::{TaskEvent, TaskKind, Timeline};
pub use sim_exec::{EclipseConfig, EclipseSim, SchedulerKind};

#[cfg(test)]
pub(crate) mod testkit;
