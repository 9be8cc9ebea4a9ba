//! Jobs, tasks and execution reports.

use eclipse_dhtfs::{BlockId, FsError};
use eclipse_workloads::AppKind;
use serde::Serialize;
use std::collections::BTreeMap;

/// Terminal job failures from the live executor's fault-tolerant path.
///
/// Transient failures (a node crash mid-job, an injected task panic) are
/// retried against surviving replicas and never surface here; a
/// `JobError` means the job cannot produce a correct result at all.
#[derive(Debug, PartialEq)]
pub enum JobError {
    /// An input file could not be opened (missing or permission denied).
    Open(FsError),
    /// Every replica of an input block is gone — more simultaneous
    /// failures than the predecessor/successor replication tolerates
    /// (beyond the paper's fault model). Partial output is never
    /// returned in this case.
    DataLoss(BlockId),
    /// One task kept failing after the bounded retry budget.
    TaskFailed { task: usize, attempts: u32 },
    /// The job server shut down before this queued job was started.
    Cancelled,
    /// The request itself cannot run (no reducers, no inputs, more map
    /// tasks than a job slot can number). Nothing was executed.
    InvalidRequest(&'static str),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Open(e) => write!(f, "cannot open input: {e}"),
            JobError::DataLoss(b) => write!(f, "all replicas lost for input block {b:?}"),
            JobError::TaskFailed { task, attempts } => {
                write!(f, "task {task} failed after {attempts} attempts")
            }
            JobError::Cancelled => write!(f, "job server shut down before the job started"),
            JobError::InvalidRequest(why) => write!(f, "invalid job request: {why}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<FsError> for JobError {
    /// A filesystem `DataLoss` maps onto the job-level one; everything
    /// else (unknown block, ring trouble) also terminates the job.
    fn from(e: FsError) -> JobError {
        match e {
            FsError::DataLoss(b) => JobError::DataLoss(b),
            other => JobError::Open(other),
        }
    }
}

/// Job identifier (assigned by the scheduler at submission).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// What a job may cache and reuse (paper §II-B/§II-C: "applications can
/// choose to tag and store intermediate results from map tasks or job
/// outputs for future reuse").
#[derive(Clone, Copy, Debug)]
pub struct ReusePolicy {
    /// Cache input blocks in iCache on read.
    pub cache_input: bool,
    /// Cache iteration outputs / intermediate results in oCache.
    pub cache_outputs: bool,
    /// TTL for oCache entries, seconds (`None` = no expiry).
    pub ocache_ttl: Option<f64>,
}

impl Default for ReusePolicy {
    fn default() -> Self {
        ReusePolicy { cache_input: true, cache_outputs: false, ocache_ttl: None }
    }
}

impl ReusePolicy {
    /// Everything cached — the iterative-application configuration.
    pub fn full() -> ReusePolicy {
        ReusePolicy { cache_input: true, cache_outputs: true, ocache_ttl: None }
    }

    /// Nothing cached (cold baseline).
    pub fn none() -> ReusePolicy {
        ReusePolicy { cache_input: false, cache_outputs: false, ocache_ttl: None }
    }
}

/// A MapReduce job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub app: AppKind,
    /// Input file in the DHT file system.
    pub input: String,
    /// Submitting user (permission subject).
    pub user: String,
    /// Number of reduce partitions.
    pub reducers: usize,
    /// MapReduce rounds (1 = batch; >1 = iterative driver).
    pub iterations: u32,
    pub reuse: ReusePolicy,
    /// Proactive-shuffle spill buffer bytes (32 MB in the paper).
    pub spill_buffer: u64,
}

impl JobSpec {
    /// A batch job with paper-default knobs.
    pub fn batch(app: AppKind, input: impl Into<String>) -> JobSpec {
        JobSpec {
            app,
            input: input.into(),
            user: "hibench".to_string(),
            reducers: 64,
            iterations: 1,
            reuse: ReusePolicy::default(),
            spill_buffer: eclipse_util::DEFAULT_SPILL_BUFFER,
        }
    }

    /// An iterative job with oCache reuse enabled.
    pub fn iterative(app: AppKind, input: impl Into<String>, iterations: u32) -> JobSpec {
        JobSpec {
            iterations,
            reuse: ReusePolicy::full(),
            ..Self::batch(app, input)
        }
    }

    pub fn with_reducers(mut self, reducers: usize) -> JobSpec {
        self.reducers = reducers;
        self
    }

    pub fn with_reuse(mut self, reuse: ReusePolicy) -> JobSpec {
        self.reuse = reuse;
        self
    }

    pub fn with_user(mut self, user: impl Into<String>) -> JobSpec {
        self.user = user.into();
        self
    }

    pub fn with_spill_buffer(mut self, bytes: u64) -> JobSpec {
        self.spill_buffer = bytes;
        self
    }
}

/// Where a map task's input bytes came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// iCache/oCache hit on the executing server.
    LocalCache,
    /// Cache hit on a remote server (read over the network).
    RemoteCache,
    /// OS page cache on the executing server (recently written data).
    PageCache,
    /// Executing server's own disk.
    LocalDisk,
    /// Remote server's disk over the network.
    RemoteDisk,
}

/// Outcome of one job (or one iteration of an iterative job).
/// Serializable so harnesses can archive raw results alongside CSVs.
#[derive(Clone, Debug, Default, Serialize)]
pub struct JobReport {
    /// Wall-clock seconds from submission to the last reduce completion.
    pub elapsed: f64,
    /// Seconds until the last map task finished.
    pub map_elapsed: f64,
    pub map_tasks: u64,
    pub reduce_tasks: u64,
    /// Input bytes by source.
    pub read_bytes: BTreeMap<&'static str, u64>,
    /// Cache hits / lookups for input blocks.
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Map tasks per node index (load-balance metric).
    pub tasks_per_node: Vec<u64>,
    /// Total bytes shuffled map→reduce.
    pub shuffle_bytes: u64,
    /// Per-iteration elapsed seconds (iterative jobs; length = iterations).
    pub iteration_times: Vec<f64>,
}

impl JobReport {
    pub fn record_read(&mut self, source: ReadSource, bytes: u64) {
        let k = match source {
            ReadSource::LocalCache => "local_cache",
            ReadSource::RemoteCache => "remote_cache",
            ReadSource::PageCache => "page_cache",
            ReadSource::LocalDisk => "local_disk",
            ReadSource::RemoteDisk => "remote_disk",
        };
        *self.read_bytes.entry(k).or_insert(0) += bytes;
    }

    /// Input-block cache hit ratio observed by this job.
    pub fn hit_ratio(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Standard deviation of map tasks per node.
    pub fn task_stdev(&self) -> f64 {
        let loads: Vec<f64> = self.tasks_per_node.iter().map(|&c| c as f64).collect();
        eclipse_util::stats::stdev(&loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let b = JobSpec::batch(AppKind::Grep, "data");
        assert_eq!(b.iterations, 1);
        assert!(b.reuse.cache_input && !b.reuse.cache_outputs);
        let it = JobSpec::iterative(AppKind::KMeans, "pts", 5).with_reducers(8);
        assert_eq!(it.iterations, 5);
        assert_eq!(it.reducers, 8);
        assert!(it.reuse.cache_outputs);
        let none = JobSpec::batch(AppKind::Sort, "x").with_reuse(ReusePolicy::none());
        assert!(!none.reuse.cache_input);
    }

    #[test]
    fn report_accounting() {
        let mut r = JobReport::default();
        r.record_read(ReadSource::LocalDisk, 100);
        r.record_read(ReadSource::LocalDisk, 50);
        r.record_read(ReadSource::LocalCache, 10);
        assert_eq!(r.read_bytes["local_disk"], 150);
        assert_eq!(r.read_bytes["local_cache"], 10);
        r.cache_hits = 3;
        r.cache_lookups = 4;
        assert!((r.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(JobReport::default().hit_ratio(), 0.0);
    }

    #[test]
    fn job_error_from_fs_error() {
        use eclipse_util::HashKey;
        let b = BlockId { file: HashKey(1), index: 0 };
        assert_eq!(JobError::from(FsError::DataLoss(b)), JobError::DataLoss(b));
        assert!(matches!(
            JobError::from(FsError::FileNotFound("x".into())),
            JobError::Open(FsError::FileNotFound(_))
        ));
        let msg = format!("{}", JobError::TaskFailed { task: 3, attempts: 4 });
        assert!(msg.contains("task 3"));
    }

    #[test]
    fn task_stdev() {
        let r = JobReport { tasks_per_node: vec![4, 4, 4, 4], ..Default::default() };
        assert_eq!(r.task_stdev(), 0.0);
        let r2 = JobReport { tasks_per_node: vec![0, 8], ..Default::default() };
        assert_eq!(r2.task_stdev(), 4.0);
    }
}
