//! Incremental epoch execution: continuous jobs that fold deltas into
//! a materialized result instead of re-running the batch.
//!
//! A batch job answers one question once. A *standing* job answers it
//! continuously while input keeps arriving: the [`EpochDriver`] ingests
//! each newly arrived delta as one barrier-aligned **epoch** — maps
//! only the delta's blocks, ships them through the ordinary shuffle
//! plane under an epoch tag (so a straggler batch from a committed
//! epoch is ack-dropped, never double-folded), then folds the drained
//! runs' merged key groups into the stream's materialized state and publishes
//! a fresh snapshot.
//!
//! State shape: per partition, a key-sorted run of entries — a key,
//! its values, and the output records `reduce` made of them. For an
//! app with a combiner ([`MapReduce::has_combiner`]) every fold folds
//! a key's new values into its one state value through the accumulator
//! the map side combines with: [`MapReduce::combine_first`] starts it
//! from the state value, [`MapReduce::combine_into`] folds each delta
//! value in and [`MapReduce::combine_finish`] writes the new state
//! value. Each key holds one folded value and the state is O(keys), not
//! O(records ever seen) — the in-node combiner of Lee et al., held
//! across epochs instead of across map tasks. Other apps keep each
//! key's value multiset.
//!
//! Cost per commit: the delta wave (map and shuffle of the delta's
//! blocks only), then per partition a k-way merge of the delta's sorted
//! runs, one `combine_into` per delta value, one `combine_finish` and
//! one `reduce_into` per distinct delta key, and a merge of keys new to
//! the stream into the run. Untouched keys are never re-sorted or
//! re-reduced. Publishing is the O(keys) part: the snapshot is
//! assembled from the per-key outputs, whose records are `Arc`-shared
//! between the state, the retention window and readers (a pointer copy
//! per record, never a string clone), and every partition is
//! re-encoded into its pinned oCache copy.
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
//! exactly that point. The touched keys' new entries are computed
//! beside the state, with the combiner and `reduce` under
//! `catch_unwind`, and swapped in only once every partition folded: a failed epoch
//! surfaces as a typed [`JobError`] (a panicking app as
//! [`JobError::ReduceFailed`]) and leaves the stream readable at, and
//! committing from, its previous epoch.
#![deny(clippy::too_many_lines)]

use crate::job::{JobError, ReusePolicy};
use crate::live::{
    Accumulator, DstEvent, LiveCluster, LiveStats, MapReduce, MapWorker, PartitionRuns, Run,
};
use bytes::Bytes;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// One reduced output record, shared by the stream's state, its
/// retained snapshots and every reader.
type Record = Arc<(String, String)>;

/// One published partition: its key-sorted output records. Iterating
/// a `&SnapshotPartition` yields `&(String, String)`.
#[derive(Debug)]
pub struct SnapshotPartition(Vec<Record>);

impl SnapshotPartition {
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &(String, String)> {
        self.into_iter()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn record_pair(r: &Record) -> &(String, String) {
    r
}

impl<'a> IntoIterator for &'a SnapshotPartition {
    type Item = &'a (String, String);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, Record>, fn(&Record) -> &(String, String)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(record_pair)
    }
}

/// Compares records, so a snapshot can be checked against a batch
/// job's partitioned output directly.
impl PartialEq<Vec<(String, String)>> for SnapshotPartition {
    fn eq(&self, other: &Vec<(String, String)>) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

/// One published epoch's reduced output, per partition (partition
/// order, each internally key-sorted). Cheap to hand out: readers
/// share the driver's copy.
pub type EpochSnapshot = Arc<Vec<SnapshotPartition>>;

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

/// One key of a partition's materialized state.
struct KeyState {
    key: String,
    /// With a combiner, the finished value every value so far folded
    /// into (one partial count for a counting app); otherwise every value
    /// every committed epoch shuffled for the key.
    values: Vec<String>,
    /// What `reduce` made of `values`.
    outputs: Vec<Record>,
}

/// One partition's fold of one epoch, computed beside the state it
/// reads: the touched keys' new entries in key order, each with the
/// index of the entry it replaces (`None` for a key new to the stream).
type Fold = Vec<(Option<usize>, KeyState)>;

/// Commit-side state, under one lock: epochs of a stream are strictly
/// serialized (barrier-aligned).
struct EpochState {
    /// Next epoch to commit (1-based; 0 means nothing published).
    next_epoch: u32,
    /// Monotonic ingest counter: a failed epoch may be retried, so the
    /// delta file name must be unique per *attempt*, not per epoch.
    ingests: u64,
    /// The materialized state, per partition: entries sorted by key,
    /// together covering every key a one-shot batch over the
    /// concatenated input would reduce.
    parts: Vec<Vec<KeyState>>,
    closed: bool,
}

/// The continuous-job driver: owns one standing job slot on the
/// cluster and turns arriving deltas into published epochs. Fronted by
/// [`crate::server::JobServer::open_stream`] in production; usable
/// directly (self-executing waves) in tests.
pub struct EpochDriver {
    cluster: Arc<LiveCluster>,
    pub(crate) app: Arc<dyn MapReduce>,
    name: String,
    user: String,
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
    /// Open a stream: reserves the standing job slot. No cluster work
    /// happens until the first commit, which also resolves the user's
    /// cache-quota tenant (and fails if every tenant id is taken).
    pub fn new(cluster: Arc<LiveCluster>, spec: StreamSpec) -> EpochDriver {
        let jid = cluster.reserve_jid();
        EpochDriver {
            cluster,
            app: spec.app,
            name: spec.name,
            user: spec.user,
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
        self.commit_epoch_via(delta, &|wave| MapWorker::at(cluster, wave, &*self.app, 0).work(true))
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
        // Application code runs under this lock only inside
        // `catch_unwind`, so only an executor bug can poison it.
        let mut st = self
            .state
            .lock()
            .map_err(|_| JobError::InvalidRequest("stream state poisoned by an executor panic"))?;
        if st.closed {
            return Err(JobError::Cancelled);
        }
        let tenant = self.cluster.tenant_of(&self.user)?;
        let epoch = st.next_epoch;
        st.ingests += 1;
        // Unique per ingest *attempt*: a failed epoch can be retried
        // without colliding with its own partial upload.
        let file = format!("{}.e{}i{}", self.name, epoch, st.ingests);
        self.cluster.try_upload(&file, &self.user, delta)?;
        if st.parts.is_empty() {
            st.parts.resize_with(self.reducers, Vec::new);
        }
        let (folds, records_folded, stats) = self.fold_wave(&file, epoch, &st.parts, exec)?;
        // Every partition folded: swap the folds in. No application
        // code runs from here to the publish, so nothing can fail
        // between the state advancing and the board following it.
        for (run, fold) in st.parts.iter_mut().zip(folds) {
            apply(run, fold);
        }
        let snapshot: EpochSnapshot = Arc::new(st.parts.iter().map(|r| assemble(r)).collect());
        let cached = self.publish_ocache(epoch, &snapshot, tenant);
        let aged: Vec<_> = {
            let mut ret = self.retained();
            ret.push_back((epoch, Arc::clone(&snapshot)));
            let excess = ret.len().saturating_sub(RETAINED_SNAPSHOTS);
            ret.drain(..excess).collect()
        };
        // The commit lock already serializes epochs; the CAS is what
        // *publishes* — a reader that observes `epoch` is guaranteed
        // the retention/oCache writes above happened-before it.
        let prev = u64::from(epoch) - 1;
        self.published
            .compare_exchange(prev, u64::from(epoch), Ordering::AcqRel, Ordering::Acquire)
            .expect("epochs are serialized; the board can only hold epoch-1 here");
        st.next_epoch += 1;
        drop(st);
        // Outside both locks: freeing an aged-out snapshot's replaced
        // records blocks neither readers nor the next commit's start.
        drop(aged);
        Ok(EpochReport { epoch, records_folded, cached, stats, snapshot })
    }

    /// Map the delta `file` as epoch `epoch`'s wave, then fold each
    /// drained partition against `parts`, one partition at a time.
    /// Nothing is mutated: the folds come back, in partition order,
    /// with the count of map-side records they fold.
    fn fold_wave(
        &self,
        file: &str,
        epoch: u32,
        parts: &[Vec<KeyState>],
        exec: &dyn Fn(&Arc<Run>),
    ) -> Result<(Vec<Fold>, u64, LiveStats), JobError> {
        // Map only the delta's blocks, on the stream's standing jid:
        // per-epoch task ids restart at 0, and the epoch tag lets the
        // shuffle plane ack-drop any straggler from a previous wave.
        // Each delta is mapped exactly once, so caching its blocks
        // would only cost iCache sends and memory.
        let wave = Run::begin(
            &self.cluster,
            &[file],
            &self.user,
            self.reducers,
            ReusePolicy::none(),
            Some((self.jid, epoch)),
        )?;
        exec(&wave);
        debug_assert!(wave.done(), "wave executor returned before the barrier");
        // Barrier reached, not yet published: the epoch-boundary fault
        // point. DST aims crashes/partitions here.
        self.cluster.observe(DstEvent::EpochBarrier { epoch });
        let app = &*self.app;
        let mut folds = Vec::with_capacity(self.reducers);
        let mut records = 0u64;
        let mut failed = None;
        let stats = wave.finish_with(&self.cluster, |p, runs| {
            if failed.is_some() {
                return;
            }
            records += runs.records();
            match catch_unwind(AssertUnwindSafe(|| fold_partition(app, &parts[p], runs))) {
                Ok(fold) => folds.push(fold),
                Err(_) => failed = Some(JobError::ReduceFailed { partition: p }),
            }
        })?;
        match failed {
            Some(e) => Err(e),
            None => Ok((folds, records, stats)),
        }
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
            let ret = self.retained();
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
        // Sound even on a poisoned lock: closing touches only the flag,
        // which no commit writes. And closing must not panic: it runs
        // in `StreamHandle`'s drop.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return;
        }
        st.closed = true;
        drop(st);
        for p in 0..self.reducers {
            self.cluster.ocache_unpin(&self.ocache_app(), &part_tag(p));
        }
    }

    /// The retention window. Only `VecDeque` pushes, drains and lookups
    /// run under its lock, none of which can panic, so even a poisoned
    /// guard holds a consistent window.
    fn retained(&self) -> MutexGuard<'_, VecDeque<(u32, EpochSnapshot)>> {
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// oCache namespace of this stream's materialized partitions.
    fn ocache_app(&self) -> String {
        format!("epoch:{}", self.name)
    }

    /// Publish every partition's reduced records to its pinned,
    /// tenant-tagged oCache home under the stream's stable tags.
    /// Best-effort per partition: an unreachable home degrades that
    /// partition to retention-only service, it does not fail the epoch.
    fn publish_ocache(&self, epoch: u32, snap: &EpochSnapshot, tenant: u16) -> bool {
        let app = self.ocache_app();
        let mut all = true;
        for (p, records) in snap.iter().enumerate() {
            let data = encode_partition(epoch, records.iter());
            if !self.cluster.ocache_put_pinned(&app, &part_tag(p), data, None, tenant) {
                all = false;
            }
        }
        all
    }
}

/// Fold one partition's delta runs against its state `run`: for each
/// distinct delta key, in the key order the merge yields, the key's
/// values so far plus the delta's (in input order) — folded through
/// the `combine_*` accumulator for a combiner app — and what
/// `reduce_into` makes of them. Reads `run` without changing it, so a panicking app leaves
/// the state as it was.
fn fold_partition(app: &dyn MapReduce, run: &[KeyState], delta: &PartitionRuns) -> Fold {
    let combiner = app.has_combiner();
    let mut from = 0;
    let mut fold = Fold::new();
    let mut all: Vec<&str> = Vec::new();
    let mut acc: Vec<u8> = Vec::new();
    delta.for_each_group(|key, fresh| {
        from = seek(run, from, key);
        let at = run.get(from).filter(|s| s.key == key).map(|_| from);
        let old = at.map_or(&[][..], |i| run[i].values.as_slice());
        let mut outputs = Vec::new();
        let mut emit = |k, v| outputs.push(Arc::new((k, v)));
        let values = if combiner {
            // The key's one state value (or its first delta value)
            // starts the accumulator every other value folds into.
            let (first, rest) = match old.first() {
                Some(v) => (v.as_str(), fresh),
                None => (fresh[0], &fresh[1..]),
            };
            acc.clear();
            app.combine_first(key, first, &mut acc);
            let mut handle = Accumulator::of(&mut acc);
            for v in rest {
                app.combine_into(key, &mut handle, v);
            }
            let mut state = String::new();
            app.combine_finish(key, &acc, &mut state);
            app.reduce_into(key, &[&state], &mut emit);
            vec![state]
        } else {
            all.clear();
            all.extend(old.iter().map(String::as_str));
            all.extend_from_slice(fresh);
            app.reduce_into(key, &all, &mut emit);
            all.iter().map(|v| v.to_string()).collect()
        };
        fold.push((at, KeyState { key: key.to_string(), values, outputs }));
    });
    fold
}

/// The first index at or after `from` whose key is not below `key`.
/// Gallops from `from`, then binary-searches the bracket it found, so
/// a lookup costs the log of the distance skipped, not of the run:
/// consecutive delta keys land close together in a large run.
fn seek(run: &[KeyState], from: usize, key: &str) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step < run.len() && run[lo + step].key.as_str() < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(run.len());
    lo + run[lo..hi].partition_point(|s| s.key.as_str() < key)
}

/// Swap one partition's fold into its state: replaced entries in
/// place, keys new to the stream merged in key order. Runs no
/// application code, so it cannot fail half-way.
fn apply(run: &mut Vec<KeyState>, fold: Fold) {
    let mut added = Vec::new();
    for (at, entry) in fold {
        match at {
            Some(i) => {
                // The run keeps its own key string, so a long-lived
                // run's keys stay where the first fold allocated them.
                run[i].values = entry.values;
                run[i].outputs = entry.outputs;
            }
            None => added.push(entry),
        }
    }
    if added.is_empty() {
        return;
    }
    let old = std::mem::take(run);
    run.reserve(old.len() + added.len());
    let mut old = old.into_iter().peekable();
    for entry in added {
        while let Some(o) = old.next_if(|o| o.key < entry.key) {
            run.push(o);
        }
        run.push(entry);
    }
    run.extend(old);
}

/// A partition's published records: every key's outputs in key order,
/// shared with the state rather than copied.
fn assemble(run: &[KeyState]) -> SnapshotPartition {
    let mut records = Vec::with_capacity(run.len());
    for s in run {
        records.extend(s.outputs.iter().cloned());
    }
    SnapshotPartition(records)
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
fn encode_partition<'a>(
    epoch: u32,
    records: impl ExactSizeIterator<Item = &'a (String, String)>,
) -> Bytes {
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
fn decode_partition(data: &[u8]) -> Option<(u32, SnapshotPartition)> {
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
        records.push(Arc::new((k, v)));
    }
    Some((epoch, SnapshotPartition(records)))
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

    fn flat(snap: &EpochSnapshot) -> Vec<(String, String)> {
        eclipse_net::merge_sorted_pairs(snap.iter().map(|p| p.iter().cloned().collect()))
    }

    /// Word count that counts its own `reduce` calls; `combiner` picks
    /// the folded path or the multiset path.
    struct CountingWordCount {
        combiner: bool,
        reduces: AtomicU64,
    }

    impl CountingWordCount {
        fn new(combiner: bool) -> Arc<CountingWordCount> {
            Arc::new(CountingWordCount { combiner, reduces: AtomicU64::new(0) })
        }

        fn sum(key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
            let total: u64 = values.iter().map(|v| v.parse::<u64>().unwrap_or(0)).sum();
            emit(key.to_string(), total.to_string());
        }
    }

    impl MapReduce for CountingWordCount {
        fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
            WordCount.map(block, emit);
        }
        fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
            self.reduces.fetch_add(1, Ordering::Relaxed);
            Self::sum(key, values, emit);
        }
        fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
            Self::sum(key, values, emit);
        }
        fn has_combiner(&self) -> bool {
            self.combiner
        }
    }

    fn counting_driver(c: &Arc<LiveCluster>, app: &Arc<CountingWordCount>) -> EpochDriver {
        EpochDriver::new(
            Arc::clone(c),
            StreamSpec {
                app: Arc::clone(app) as Arc<dyn MapReduce>,
                name: format!("counting-{}", app.combiner),
                user: "tester".to_string(),
                reducers: 3,
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

    /// A commit reduces exactly the keys its delta touched — on both
    /// the folded (combiner) and the multiset path — and the result
    /// still covers every key the stream has seen.
    #[test]
    fn reduce_runs_once_per_distinct_delta_key() {
        let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(256)));
        for combiner in [false, true] {
            let app = CountingWordCount::new(combiner);
            let d = counting_driver(&c, &app);
            // Distinct keys per delta: 4, 2, 1.
            let deltas = [("a b c d\n", 4), ("a e\n", 2), ("b b b\n", 1)];
            for (line, distinct) in deltas {
                let before = app.reduces.load(Ordering::Relaxed);
                d.commit_epoch(line.repeat(10).as_bytes()).expect("commit");
                let reduced = app.reduces.load(Ordering::Relaxed) - before;
                assert_eq!(reduced, distinct, "combiner={combiner}: reduces for {line:?}");
            }
            let want: Vec<(String, String)> =
                [("a", 20), ("b", 40), ("c", 10), ("d", 10), ("e", 10)]
                    .iter()
                    .map(|(k, n)| (k.to_string(), n.to_string()))
                    .collect();
            assert_eq!(flat(&d.snapshot(3).expect("published")), want, "combiner={combiner}");
            d.close();
        }
    }

    /// A combiner stream's state is O(keys): after 50 epochs every key
    /// holds exactly one folded value, however often it recurred.
    #[test]
    fn combiner_stream_holds_one_value_per_key() {
        let c = Arc::new(LiveCluster::new(LiveConfig::small().with_block_size(256)));
        let app = CountingWordCount::new(true);
        let d = counting_driver(&c, &app);
        for e in 0..50u32 {
            let delta = format!("w{} shared\n", e % 7).repeat(8);
            d.commit_epoch(delta.as_bytes()).expect("commit");
        }
        let st = d.state.lock().expect("state");
        let keys: usize = st.parts.iter().map(Vec::len).sum();
        assert_eq!(keys, 8, "w0..w6 and shared");
        for s in st.parts.iter().flatten() {
            assert_eq!(s.values.len(), 1, "key {:?} holds {:?}", s.key, s.values);
        }
        drop(st);
        let shared = flat(&d.snapshot(50).expect("published"))
            .into_iter()
            .find(|(k, _)| k == "shared")
            .expect("shared key");
        assert_eq!(shared.1, (50 * 8).to_string());
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
        let data = encode_partition(7, records.iter());
        let (e, back) = decode_partition(&data).expect("roundtrip");
        assert_eq!(e, 7);
        assert_eq!(back, records);
        assert!(decode_partition(&data[..data.len() - 1]).is_none(), "truncation");
        assert!(decode_partition(&[1, 2, 3]).is_none(), "short header");
        assert!(decode_partition(&[]).is_none());
    }
}
