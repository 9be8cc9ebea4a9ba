//! Incremental epoch execution: continuous jobs that fold deltas into
//! a materialized result instead of re-running the batch.
//!
//! A batch job answers one question once. A *standing* job answers it
//! continuously while input keeps arriving: the [`EpochDriver`] ingests
//! each newly arrived delta as one barrier-aligned **epoch** — maps
//! only the delta's blocks, ships them through the ordinary shuffle
//! plane under an epoch tag (so a straggler batch from a committed
//! epoch is ack-dropped, never double-folded), then folds the drained
//! grouped records into the stream's materialized state and publishes
//! a fresh snapshot. Committing a small delta therefore costs work
//! proportional to the *delta*, not to everything that ever arrived —
//! the whole point versus re-running the batch per arrival.
//!
//! Consistency contract (read-your-epoch): [`EpochDriver::commit_epoch`]
//! returns only after the epoch's snapshot is published, and
//! [`EpochDriver::snapshot`] for any `epoch <= published()` serves
//! exactly that epoch's result — from the pinned oCache copy when it
//! still carries the requested epoch, else from the short in-memory
//! retention window. The publish step is a single atomic
//! compare-exchange on the published-epoch board; a reader never
//! observes a half-folded epoch.
//!
//! Fault surface: the window between the wave's barrier (every delta
//! map committed and drained) and the publish CAS is where a crash or
//! partition hits the fold itself. The driver announces that edge via
//! [`DstEvent::EpochBarrier`] so the DST harness can aim faults at
//! exactly that point; a failed epoch surfaces as a typed [`JobError`]
//! and leaves the stream readable at its previous epoch.
#![deny(clippy::too_many_lines)]

use crate::job::{JobError, ReusePolicy};
use crate::live::{
    reduce_grouped, DstEvent, Grouped, LiveCluster, LiveStats, MapReduce, MapWorker, Run,
};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many recent epochs' reduced snapshots stay resident in driver
/// memory. The oCache copy always carries the *latest* epoch; the
/// retention window is what keeps `snapshot(published - 1)` answerable
/// while a reader races a commit.
const RETAINED_SNAPSHOTS: usize = 2;

/// What a continuous job runs: the app, its identity, and its shape.
/// The `user` doubles as the cache-quota tenant for the materialized
/// state, exactly like a batch submission.
#[derive(Clone)]
pub struct StreamSpec {
    pub app: Arc<dyn MapReduce>,
    /// Stream name: epoch deltas are ingested as DHT FS files derived
    /// from it, and the materialized partitions live in oCache under
    /// the `epoch:{name}` namespace.
    pub name: String,
    pub user: String,
    pub reducers: usize,
}

/// One published epoch's reduced output, per partition (partition
/// order, each internally key-sorted). Cheap to hand out: readers
/// share the driver's copy.
pub type EpochSnapshot = Arc<Vec<Vec<(String, String)>>>;

/// What one committed epoch reports back.
pub struct EpochReport {
    /// The epoch just published (1-based).
    pub epoch: u32,
    /// Map-side records folded into the materialized state this epoch.
    pub records_folded: u64,
    /// Whether every materialized partition reached its pinned oCache
    /// home. `false` means the publish fell back to driver memory only
    /// (e.g. a partition's home was unreachable) — the snapshot is
    /// still served, from retention.
    pub cached: bool,
    /// The wave's executor statistics (delta-sized, not stream-sized).
    pub stats: LiveStats,
    /// The published snapshot itself.
    pub snapshot: EpochSnapshot,
}

/// Commit-side state, under one lock: epochs of a stream are strictly
/// serialized (barrier-aligned), and the grouped multiset is the fold
/// accumulator.
struct EpochState {
    /// Next epoch to commit (1-based; 0 means nothing published).
    next_epoch: u32,
    /// Monotonic ingest counter: a failed epoch may be retried, so the
    /// delta file name must be unique per *attempt*, not per epoch.
    ingests: u64,
    /// The materialized grouped multiset, per partition: every value
    /// every committed epoch ever shuffled, keyed exactly as a one-shot
    /// batch over the concatenated input would key it.
    parts: Vec<Grouped>,
    closed: bool,
}

/// The continuous-job driver: owns one standing job slot on the
/// cluster and turns arriving deltas into published epochs. Fronted by
/// [`crate::server::JobServer::open_stream`] in production; usable
/// directly (self-executing waves) in tests and benches.
pub struct EpochDriver {
    cluster: Arc<LiveCluster>,
    pub(crate) app: Arc<dyn MapReduce>,
    name: String,
    user: String,
    tenant: u16,
    reducers: usize,
    /// The standing jid: one slot for the stream's whole lifetime,
    /// reused by every epoch wave (disambiguated by the epoch tag).
    jid: u32,
    /// The published-epoch board: readers order against the single
    /// release-CAS here, never against the commit lock.
    published: AtomicU64,
    state: Mutex<EpochState>,
    /// Recent epochs' reduced snapshots, separate from the commit lock
    /// so readers are never blocked behind an in-flight epoch.
    retained: Mutex<VecDeque<(u32, EpochSnapshot)>>,
}

impl EpochDriver {
    /// Open a stream: reserves the standing job slot and the tenant
    /// identity. No cluster work happens until the first commit.
    pub fn new(cluster: Arc<LiveCluster>, spec: StreamSpec) -> EpochDriver {
        let tenant = cluster.tenant_of(&spec.user);
        let jid = cluster.reserve_jid();
        EpochDriver {
            cluster,
            app: spec.app,
            name: spec.name,
            user: spec.user,
            tenant,
            reducers: spec.reducers,
            jid,
            published: AtomicU64::new(0),
            state: Mutex::new(EpochState {
                next_epoch: 1,
                ingests: 0,
                parts: Vec::new(),
                closed: false,
            }),
            retained: Mutex::new(VecDeque::new()),
        }
    }

    /// Ingest one delta and commit it as the next epoch, mapping the
    /// wave inline on the calling thread. The pool-backed path
    /// ([`crate::server::StreamHandle::commit_epoch`]) additionally
    /// lets the server's workers help.
    pub fn commit_epoch(&self, delta: &[u8]) -> Result<EpochReport, JobError> {
        let cluster = &*self.cluster;
        self.commit_epoch_via(delta, &|wave| MapWorker::at(cluster, wave, &*self.app, 0).work_all())
    }

    /// Commit one epoch, delegating the wave's map phase to `exec`.
    /// The callback must return only once the run is
    /// [done](Run::done) — every task committed, or aborted; the
    /// driver then drains the barrier, folds, and publishes.
    pub(crate) fn commit_epoch_via(
        &self,
        delta: &[u8],
        exec: &dyn Fn(&Arc<Run>),
    ) -> Result<EpochReport, JobError> {
        let mut st = self.state.lock().expect("epoch state");
        if st.closed {
            return Err(JobError::Cancelled);
        }
        let epoch = st.next_epoch;
        st.ingests += 1;
        // Unique per ingest *attempt*: a failed epoch can be retried
        // without colliding with its own partial upload.
        let file = format!("{}.e{}i{}", self.name, epoch, st.ingests);
        self.cluster.try_upload(&file, &self.user, delta)?;
        // Map only the delta's blocks, on the stream's standing jid:
        // per-epoch task ids restart at 0, and the epoch tag lets the
        // shuffle plane ack-drop any straggler from a previous wave.
        let wave = Run::begin(
            &self.cluster,
            &[&file],
            &self.user,
            self.reducers,
            ReusePolicy::default(),
            Some((self.jid, epoch)),
        )?;
        exec(&wave);
        debug_assert!(wave.done(), "wave executor returned before the barrier");
        // Barrier reached, not yet published: the epoch-boundary fault
        // point. DST aims crashes/partitions here.
        self.cluster.observe(DstEvent::EpochBarrier { epoch });
        let (delta_parts, stats) = wave.finish_grouped(&self.cluster)?;
        if st.parts.is_empty() {
            st.parts = vec![Grouped::new(); self.reducers];
        }
        let mut records_folded = 0u64;
        for (p, grouped) in delta_parts.into_iter().enumerate() {
            for (k, mut vs) in grouped {
                records_folded += vs.len() as u64;
                st.parts[p].entry(k).or_default().append(&mut vs);
            }
        }
        let snapshot: EpochSnapshot =
            Arc::new(st.parts.iter().map(|g| reduce_grouped(&*self.app, g)).collect());
        let cached = self.publish_ocache(epoch, &snapshot);
        {
            let mut ret = self.retained.lock().expect("retained");
            ret.push_back((epoch, Arc::clone(&snapshot)));
            while ret.len() > RETAINED_SNAPSHOTS {
                ret.pop_front();
            }
        }
        // The commit lock already serializes epochs; the CAS is what
        // *publishes* — a reader that observes `epoch` is guaranteed
        // the retention/oCache writes above happened-before it.
        let prev = u64::from(epoch) - 1;
        self.published
            .compare_exchange(prev, u64::from(epoch), Ordering::AcqRel, Ordering::Acquire)
            .expect("epochs are serialized; the board can only hold epoch-1 here");
        st.next_epoch += 1;
        Ok(EpochReport { epoch, records_folded, cached, stats, snapshot })
    }

    /// The newest published epoch (0 before the first commit).
    pub fn published(&self) -> u32 {
        self.published.load(Ordering::Acquire) as u32
    }

    /// Read a published epoch's materialized result. Read-your-epoch:
    /// any `epoch` up to [`published`](Self::published) that is still
    /// within reach — the latest epoch always (pinned oCache copy,
    /// with the in-memory retention window as fallback), earlier
    /// epochs while retained. Unpublished or aged-out epochs yield
    /// `None`.
    pub fn snapshot(&self, epoch: u32) -> Option<EpochSnapshot> {
        if epoch == 0 || u64::from(epoch) > self.published.load(Ordering::Acquire) {
            return None;
        }
        if let Some(s) = {
            let ret = self.retained.lock().expect("retained");
            ret.iter().find(|(e, _)| *e == epoch).map(|(_, s)| Arc::clone(s))
        } {
            return Some(s);
        }
        // Retention aged it out: the oCache copy serves iff it still
        // carries the requested epoch (stable tags hold the latest).
        let mut parts = Vec::with_capacity(self.reducers);
        for p in 0..self.reducers {
            let data = self.cluster.ocache_get(&self.ocache_app(), &part_tag(p))?;
            let (e, records) = decode_partition(&data)?;
            if e != epoch {
                return None;
            }
            parts.push(records);
        }
        Some(Arc::new(parts))
    }

    /// Close the stream: further commits are refused and the
    /// materialized oCache entries are released back to ordinary LRU
    /// lifetime (they age out; a reopened stream republishes).
    pub fn close(&self) {
        let mut st = self.state.lock().expect("epoch state");
        if st.closed {
            return;
        }
        st.closed = true;
        drop(st);
        for p in 0..self.reducers {
            self.cluster.ocache_unpin(&self.ocache_app(), &part_tag(p));
        }
    }

    /// oCache namespace of this stream's materialized partitions.
    fn ocache_app(&self) -> String {
        format!("epoch:{}", self.name)
    }

    /// Publish every partition's reduced records to its pinned,
    /// tenant-tagged oCache home under the stream's stable tags.
    /// Best-effort per partition: an unreachable home degrades that
    /// partition to retention-only service, it does not fail the epoch.
    fn publish_ocache(&self, epoch: u32, snap: &EpochSnapshot) -> bool {
        let app = self.ocache_app();
        let mut all = true;
        for (p, records) in snap.iter().enumerate() {
            let data = encode_partition(epoch, records);
            if !self.cluster.ocache_put_pinned(&app, &part_tag(p), data, None, self.tenant) {
                all = false;
            }
        }
        all
    }
}

/// Stable per-partition oCache tag: the same tag every epoch, so the
/// pinned footprint is one entry per partition, not one per epoch.
fn part_tag(p: usize) -> String {
    format!("materialized/p{p}")
}

/// Wire shape of one materialized partition in oCache: `u32` epoch,
/// `u32` record count, then length-prefixed key/value pairs. The
/// embedded epoch is what lets a reader detect that the stable tag has
/// moved on past the epoch it asked for.
fn encode_partition(epoch: u32, records: &[(String, String)]) -> Bytes {
    let mut buf = Vec::with_capacity(16 + records.len() * 16);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for (k, v) in records {
        buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
        buf.extend_from_slice(k.as_bytes());
        buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        buf.extend_from_slice(v.as_bytes());
    }
    Bytes::from(buf)
}

/// Inverse of [`encode_partition`]. `None` on any truncation or
/// malformed length — a corrupt cache entry must read as a miss, not
/// a panic.
fn decode_partition(data: &[u8]) -> Option<(u32, Vec<(String, String)>)> {
    fn take_u32(data: &[u8], at: &mut usize) -> Option<u32> {
        let b = data.get(*at..*at + 4)?;
        *at += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }
    fn take_str(data: &[u8], at: &mut usize) -> Option<String> {
        let len = take_u32(data, at)? as usize;
        let b = data.get(*at..*at + len)?;
        *at += len;
        String::from_utf8(b.to_vec()).ok()
    }
    let at = &mut 0usize;
    let epoch = take_u32(data, at)?;
    let count = take_u32(data, at)? as usize;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let k = take_str(data, at)?;
        let v = take_str(data, at)?;
        records.push((k, v));
    }
    Some((epoch, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveConfig;
    use crate::testkit::WordCount;

    fn driver_on(c: &Arc<LiveCluster>, name: &str, reducers: usize) -> EpochDriver {
        EpochDriver::new(
            Arc::clone(c),
            StreamSpec {
                app: Arc::new(WordCount),
                name: name.to_string(),
                user: "tester".to_string(),
                reducers,
            },
        )
    }

    /// The correctness anchor: N epochs folded incrementally must be
    /// byte-identical to one batch over the concatenated input.
    #[test]
    fn folded_epochs_match_one_shot_batch() {
        // Every line is 19 bytes and the block size is a multiple of
        // it, so block boundaries never split a word — in the
        // per-epoch delta files *and* in the concatenated oracle file
        // (whose block boundaries fall at different input offsets).
        let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(19 * 8)));
        let d = driver_on(&c, "stream", 4);
        let deltas = [
            "apple banana apple\n".repeat(40),
            "cherry banana pear\n".repeat(60),
            "apple date elder f\n".repeat(30),
        ];
        let mut concat = String::new();
        for (i, delta) in deltas.iter().enumerate() {
            concat.push_str(delta);
            let rep = d.commit_epoch(delta.as_bytes()).expect("epoch commits");
            assert_eq!(rep.epoch, i as u32 + 1);
            assert_eq!(d.published(), rep.epoch);
        }
        c.upload("oracle", "tester", concat.as_bytes());
        let (oracle, _) = c
            .try_run_job_inputs_partitioned(&WordCount, &["oracle"], "tester", 4, ReusePolicy::default())
            .expect("oracle batch");
        let snap = d.snapshot(3).expect("published epoch readable");
        assert_eq!(*snap, oracle, "materialized result != one-shot batch");
        d.close();
    }

    #[test]
    fn read_your_epoch_and_retention_window() {
        let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(256)));
        let d = driver_on(&c, "ry", 2);
        assert!(d.snapshot(0).is_none(), "epoch 0 is never published");
        assert!(d.snapshot(1).is_none(), "unpublished epoch unreadable");
        for e in 1..=4u32 {
            let delta = format!("w{e} w{e} x\n").repeat(20);
            d.commit_epoch(delta.as_bytes()).expect("commit");
            assert!(d.snapshot(e).is_some(), "read-your-epoch at {e}");
        }
        // Inside the retention window both recent epochs serve; the
        // first epoch has aged out of retention *and* the stable
        // oCache tags have moved past it.
        assert!(d.snapshot(4).is_some());
        assert!(d.snapshot(3).is_some());
        assert!(d.snapshot(1).is_none(), "aged-out epoch reads as a miss");
        assert!(d.snapshot(5).is_none(), "future epoch unreadable");
        d.close();
        assert!(
            matches!(d.commit_epoch(b"late\n"), Err(JobError::Cancelled)),
            "commits after close are refused"
        );
    }

    #[test]
    fn snapshot_survives_ocache_eviction_via_retention() {
        // Tiny cache: the pinned publish may be rejected outright
        // (quota/capacity), so the snapshot must come from retention.
        let c = Arc::new(LiveCluster::new(
            LiveConfig::small().with_block_size(256).with_cache_per_node(512),
        ));
        let d = driver_on(&c, "tiny", 2);
        let delta = "alpha beta gamma delta epsilon zeta\n".repeat(50);
        let rep = d.commit_epoch(delta.as_bytes()).expect("commit");
        let snap = d.snapshot(rep.epoch).expect("retention serves despite cache pressure");
        assert!(!snap.iter().all(|p| p.is_empty()));
        d.close();
    }

    #[test]
    fn partition_codec_roundtrips_and_rejects_garbage() {
        let records = vec![
            ("alpha".to_string(), "1".to_string()),
            ("beta".to_string(), "22".to_string()),
            (String::new(), String::new()),
        ];
        let data = encode_partition(7, &records);
        let (e, back) = decode_partition(&data).expect("roundtrip");
        assert_eq!(e, 7);
        assert_eq!(back, records);
        assert!(decode_partition(&data[..data.len() - 1]).is_none(), "truncation");
        assert!(decode_partition(&[1, 2, 3]).is_none(), "short header");
        assert!(decode_partition(&[]).is_none());
    }
}
