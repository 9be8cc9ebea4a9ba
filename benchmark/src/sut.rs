//! The adapter to the system under test. **Every** call into the
//! repo's crates is in this file — cluster build, upload, running and
//! submitting jobs, committing epochs, reading counters, and the
//! per-layer probes — each wrapped in the harness span that times it.
//! Workload and metric code never names a `run_job*` variant, so an
//! API change in the executor (ROADMAP item 2's `JobRequest`) is a
//! one-file benchmark change.

use crate::oracle::{Pairs, Task};
use crate::stats::median;
use crate::trace::Tr;
use bytes::Bytes;
use eclipse_apps::{Grep, InvertedIndex, WordCount};
use eclipse_core::{
    EpochSnapshot, JobServer, JobServerConfig, LiveCluster, LiveConfig, LiveStats, MapReduce,
    PoolJobSpec, ReusePolicy, SpillBuffer, StreamHandle, StreamSpec, TransportKind,
};
use eclipse_dhtfs::FileMetadata;
use eclipse_net::{wire, Rpc, RpcKind};
use eclipse_sched::{LafConfig, LafScheduler};
use eclipse_util::HashKey;
use eclipse_workloads::TextGen;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual nodes in every cluster the benchmark builds. With two
/// hardware threads this says nothing about node scaling.
pub const NODES: usize = 8;

/// iCache/oCache bytes per node: four times the default, so a node's
/// eight 8 MiB shards hold every block of the largest input that
/// hashes to them and a warm workload never evicts.
const CACHE_PER_NODE: u64 = 64 * 1024 * 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    Memory,
    Tcp,
}

/// Whether a batch job may use iCache/oCache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reuse {
    Cached,
    Bypass,
}

// ---------------------------------------------------------------- inputs

/// Zipf(1.0) text, ten 6-character words per line.
pub struct Corpus {
    gen: TextGen,
}

impl Corpus {
    pub fn new(vocab: usize) -> Corpus {
        Corpus { gen: TextGen::new(vocab, 1.0, 10) }
    }

    /// Plain text: fixed 70-byte lines.
    pub fn text(&self, seed: u64, bytes: usize) -> String {
        self.gen.generate(seed, bytes)
    }

    /// `doc_id<TAB>text` documents: fixed 80-byte lines.
    pub fn documents(&self, seed: u64, bytes: usize) -> String {
        self.gen.generate_documents(seed, bytes)
    }

    /// The `rank`-th most frequent word.
    pub fn word(&self, rank: usize) -> &str {
        &self.gen.vocab()[rank]
    }
}

fn app_of(task: &Task) -> Arc<dyn MapReduce> {
    match task {
        Task::WordCount => Arc::new(WordCount),
        Task::InvertedIndex => Arc::new(InvertedIndex),
        Task::Grep(p) => Arc::new(Grep::new(p.clone())),
    }
}

// -------------------------------------------------------------- counters

/// Counters the public API returns with every job, summed over ops.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub jobs: u64,
    pub map_tasks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub remote_reads: u64,
    pub spills: u64,
    pub steals: u64,
    pub bytes_sent: u64,
    pub rpcs: u64,
    pub rpc_retries: u64,
    pub timeouts: u64,
    /// Σ over jobs of (max ÷ mean of `tasks_per_node`).
    pub imbalance_sum: f64,
    /// Epoch commits only.
    pub records_folded: u64,
    pub cached_commits: u64,
}

impl Counters {
    fn of(stats: &LiveStats) -> Counters {
        let per_node = &stats.tasks_per_node;
        let total: u64 = per_node.iter().sum();
        let imbalance = if total == 0 {
            1.0
        } else {
            let mean = total as f64 / per_node.len() as f64;
            per_node.iter().copied().max().unwrap_or(0) as f64 / mean
        };
        Counters {
            jobs: 1,
            map_tasks: stats.map_tasks,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            remote_reads: stats.remote_reads,
            spills: stats.spills,
            steals: stats.steals,
            bytes_sent: stats.bytes_sent,
            rpcs: stats.rpcs,
            rpc_retries: stats.rpc_retries,
            timeouts: stats.timeouts,
            imbalance_sum: imbalance,
            records_folded: 0,
            cached_commits: 0,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.jobs += o.jobs;
        self.map_tasks += o.map_tasks;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.remote_reads += o.remote_reads;
        self.spills += o.spills;
        self.steals += o.steals;
        self.bytes_sent += o.bytes_sent;
        self.rpcs += o.rpcs;
        self.rpc_retries += o.rpc_retries;
        self.timeouts += o.timeouts;
        self.imbalance_sum += o.imbalance_sum;
        self.records_folded += o.records_folded;
        self.cached_commits += o.cached_commits;
    }
}

/// What one job returned: its output (or why there is none) and its
/// counters (zero on failure).
pub struct Outcome {
    pub output: Result<Pairs, String>,
    pub counters: Counters,
}

/// Run `f`, turning a panic inside the system into an `Err`: a failed
/// op is a counted failure, not the end of the benchmark.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

fn outcome(res: Result<(Pairs, LiveStats), String>) -> Outcome {
    match res {
        Ok((pairs, stats)) => Outcome { output: Ok(pairs), counters: Counters::of(&stats) },
        Err(e) => Outcome { output: Err(e), counters: Counters::default() },
    }
}

// --------------------------------------------------------------- cluster

pub struct Sut {
    cluster: Arc<LiveCluster>,
    server: Option<JobServer>,
    block_size: u64,
}

impl Sut {
    /// An 8-virtual-node cluster (LAF, 2 replicas, 64 MiB cache per
    /// node), with a default-configured job server when asked.
    pub fn build(net: Net, block_size: u64, with_server: bool, tr: Tr) -> Sut {
        tr.span("sut.build", |_| {
            let cfg = LiveConfig::small()
                .with_nodes(NODES)
                .with_cache_per_node(CACHE_PER_NODE)
                .with_block_size(block_size)
                .with_transport(match net {
                    Net::Memory => TransportKind::Memory,
                    Net::Tcp => TransportKind::Tcp,
                });
            let cluster = Arc::new(LiveCluster::new(cfg));
            let server = with_server
                .then(|| JobServer::new(Arc::clone(&cluster), JobServerConfig::default()));
            Sut { cluster, server, block_size }
        })
    }

    pub fn upload(&self, name: &str, user: &str, data: &[u8], tr: Tr) -> Result<(), String> {
        tr.span("sut.upload", |_| {
            guarded(|| self.cluster.try_upload(name, user, data).map_err(|e| e.to_string()))
        })
    }

    /// One batch job on the scoped executor, start to sorted output.
    pub fn run_batch(
        &self,
        task: &Task,
        input: &str,
        user: &str,
        reducers: usize,
        reuse: Reuse,
        tr: Tr,
    ) -> Outcome {
        let app = app_of(task);
        let reuse = match reuse {
            Reuse::Cached => ReusePolicy::default(),
            Reuse::Bypass => ReusePolicy::none(),
        };
        tr.span("sut.run_batch", |_| {
            outcome(guarded(|| {
                self.cluster
                    .try_run_job(&*app, input, user, reducers, reuse)
                    .map_err(|e| e.to_string())
            }))
        })
    }

    /// One job through the job server: submit, then wait for it.
    pub fn submit_wait(
        &self,
        task: &Task,
        input: &str,
        user: &str,
        reducers: usize,
        tr: Tr,
    ) -> Outcome {
        let server = self.server.as_ref().expect("cluster was built without a job server");
        let spec = PoolJobSpec {
            app: app_of(task),
            inputs: vec![input.to_string()],
            user: user.to_string(),
            reducers,
            reuse: ReusePolicy::default(),
            weight: 1,
        };
        tr.span("sut.submit_wait", |tr| {
            outcome(guarded(|| {
                let handle = tr.span("sut.submit", |_| server.submit(spec));
                tr.span("sut.wait", |_| handle.wait()).map_err(|e| e.to_string())
            }))
        })
    }

    /// A standing word-count stream on the job server's pool.
    pub fn open_stream(&self, name: &str, user: &str, reducers: usize) -> Stream {
        let server = self.server.as_ref().expect("cluster was built without a job server");
        Stream {
            handle: server.open_stream(StreamSpec {
                app: app_of(&Task::WordCount),
                name: name.to_string(),
                user: user.to_string(),
                reducers,
            }),
        }
    }

    /// Cumulative first-send bytes on the shuffle plane (request
    /// frames of kind `ShuffleBatch`, retransmissions excluded).
    /// Subtract two readings to attribute a phase.
    pub fn shuffle_plane_bytes(&self) -> u64 {
        let s = self.cluster.transport().stats();
        s.kind(RpcKind::ShuffleBatch).1 - s.kind_retrans(RpcKind::ShuffleBatch)
    }
}

// ---------------------------------------------------------------- stream

pub struct Stream {
    handle: StreamHandle,
}

/// One published epoch's materialised result, shared with the stream.
pub struct Snapshot(EpochSnapshot);

impl Snapshot {
    /// Flatten the partitions into sorted pairs — O(state), so callers
    /// do it on the epochs they check, not on every commit.
    pub fn to_pairs(&self) -> Pairs {
        let mut out: Pairs = self.0.iter().flatten().cloned().collect();
        out.sort();
        out
    }
}

pub struct Commit {
    pub snapshot: Snapshot,
    pub counters: Counters,
}

impl Stream {
    /// Ingest `delta` and commit it as the next epoch.
    pub fn commit(&self, delta: &[u8], tr: Tr) -> Result<Commit, String> {
        tr.span("sut.commit_epoch", |_| {
            guarded(|| {
                let rep = self.handle.commit_epoch(delta).map_err(|e| e.to_string())?;
                let mut counters = Counters::of(&rep.stats);
                counters.records_folded = rep.records_folded;
                counters.cached_commits = u64::from(rep.cached);
                Ok(Commit { snapshot: Snapshot(rep.snapshot), counters })
            })
        })
    }

    /// Read back the newest published epoch, as a reader would.
    pub fn latest(&self) -> Option<Snapshot> {
        self.handle.snapshot(self.handle.published()).map(Snapshot)
    }
}

// ---------------------------------------------------------------- probes
//
// A probe times direct, single-threaded calls into one layer's public
// functions, over the workload's own blocks and records. Each returns
// the median over its call batches.

/// Run `batch` (which returns how many units it processed) until
/// `budget` is spent, at least `min_batches` times, inside one span
/// for the whole loop; median ns per unit over the batches.
fn probe_loop(
    tr: Tr,
    name: &'static str,
    budget: Duration,
    min_batches: usize,
    mut batch: impl FnMut() -> u64,
) -> f64 {
    tr.span(name, |_| {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < min_batches || started.elapsed() < budget {
            let t = Instant::now();
            let units = batch();
            samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
            if samples.len() >= 10_000 {
                break;
            }
        }
        median(&samples)
    })
}

/// Per-record costs of one application over one input, plus the
/// counts needed to scale them to a whole job.
#[derive(Clone, Debug, Default)]
pub struct AppProbe {
    /// Input lines mapped.
    pub lines: u64,
    /// Records the map function emitted, and their key+value bytes.
    pub emitted: u64,
    pub emitted_bytes: u64,
    /// Records left after the combiner (what the shuffle carries).
    pub shuffled: u64,
    /// Distinct keys the reduce function saw.
    pub keys: u64,
    pub blocks: u64,
    pub map_ns_per_line: f64,
    pub spill_push_ns_per_emit: f64,
    /// `None` when the application has no combiner.
    pub combine_ns_per_emit: Option<f64>,
    pub encode_ns_per_shuffled: f64,
    pub decode_ns_per_shuffled: f64,
    pub reduce_ns_per_key: f64,
}

impl AppProbe {
    /// CPU nanoseconds the probed steps predict for one whole job.
    pub fn attributed_ns(&self, block_get_ns: f64) -> f64 {
        self.lines as f64 * self.map_ns_per_line
            + self.emitted as f64
                * (self.spill_push_ns_per_emit + self.combine_ns_per_emit.unwrap_or(0.0))
            + self.shuffled as f64 * (self.encode_ns_per_shuffled + self.decode_ns_per_shuffled)
            + self.keys as f64 * self.reduce_ns_per_key
            + self.blocks as f64 * block_get_ns
    }
}

/// Harness-side partition hash (FNV-1a + a finaliser). The executor's
/// own hash is private; the probe only needs records spread over the
/// partitions the way any well-mixed hash spreads them.
fn spread(key: &str) -> HashKey {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h ^= h >> 32;
    HashKey(h.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl Sut {
    /// Walk `text` block by block through the same public steps a job
    /// takes — `map`, `SpillBuffer::push_to`, `combine`, `ShuffleBatch`
    /// encode and decode, `reduce` — timing each on its own.
    pub fn probe_app(&self, task: &Task, text: &str, reducers: usize, tr: Tr) -> AppProbe {
        let app = app_of(task);
        let batch_bytes = LiveConfig::small().shuffle_batch_bytes;
        let mut p = AppProbe::default();
        let (mut map_ns, mut push_ns, mut comb_ns, mut enc_ns, mut dec_ns) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut shuffled: Vec<(String, String)> = Vec::new();
        let mut frame = Vec::new();

        for block in text.as_bytes().chunks(self.block_size as usize) {
            let lines = block.iter().filter(|&&b| b == b'\n').count() as u64;
            p.blocks += 1;
            p.lines += lines;

            let mut records: Vec<(String, String)> = Vec::new();
            let t = Instant::now();
            tr.span("probe.apps.map", |_| app.map(block, &mut |k, v| records.push((k, v))));
            map_ns.push(t.elapsed().as_nanos() as f64 / lines.max(1) as f64);
            let emitted = records.len() as u64;
            p.emitted += emitted;
            p.emitted_bytes += records.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();

            let mut buffer: SpillBuffer<(String, String)> = SpillBuffer::new(reducers, batch_bytes);
            let parts: Vec<usize> =
                records.iter().map(|(k, _)| buffer.partition_of(spread(k))).collect();
            let mut spills = Vec::new();
            let t = Instant::now();
            tr.span("probe.core.spill_push", |_| {
                for ((k, v), part) in records.into_iter().zip(parts) {
                    let bytes = (k.len() + v.len()) as u64;
                    spills.extend(buffer.push_to(part, bytes, Some((k, v))));
                }
                spills.extend(buffer.flush());
            });
            push_ns.push(t.elapsed().as_nanos() as f64 / emitted.max(1) as f64);

            for (seq, spill) in spills.into_iter().enumerate() {
                let partition = spill.partition as u32;
                let records = if app.has_combiner() {
                    // Grouping is the executor's private business; the
                    // probe groups untimed and times `combine` alone.
                    let before = spill.records.len() as u64;
                    let groups = group_sorted(spill.records);
                    let mut out = Vec::new();
                    let t = Instant::now();
                    tr.span("probe.apps.combine", |_| {
                        for (k, vs) in &groups {
                            app.combine(k, vs, &mut |ck, cv| out.push((ck, cv)));
                        }
                    });
                    comb_ns.push(t.elapsed().as_nanos() as f64 / before.max(1) as f64);
                    out
                } else {
                    spill.records
                };
                let n = records.len().max(1) as f64;
                let rpc = Rpc::ShuffleBatch {
                    task: 0,
                    attempt: 0,
                    seq: seq as u32,
                    epoch: 0,
                    partition,
                    records,
                };
                let t = Instant::now();
                tr.span("probe.net.encode", |_| rpc.encode_into(seq as u64, &mut frame));
                enc_ns.push(t.elapsed().as_nanos() as f64 / n);
                let t = Instant::now();
                let back = tr.span("probe.net.decode", |_| {
                    wire::decode_frame(&frame).map(|f| Rpc::decode(&f))
                });
                dec_ns.push(t.elapsed().as_nanos() as f64 / n);
                match back {
                    Ok(Ok(Rpc::ShuffleBatch { records, .. })) => shuffled.extend(records),
                    other => panic!("shuffle batch did not round-trip: {other:?}"),
                }
            }
        }

        p.shuffled = shuffled.len() as u64;
        let groups = group_sorted(shuffled);
        p.keys = groups.len() as u64;
        let mut reduced = 0u64;
        let t = Instant::now();
        tr.span("probe.apps.reduce", |_| {
            for (k, vs) in &groups {
                app.reduce(k, vs, &mut |_, _| reduced += 1);
            }
        });
        p.reduce_ns_per_key = t.elapsed().as_nanos() as f64 / p.keys.max(1) as f64;
        std::hint::black_box(reduced);

        p.map_ns_per_line = median(&map_ns);
        p.spill_push_ns_per_emit = median(&push_ns);
        p.combine_ns_per_emit = (!comb_ns.is_empty()).then(|| median(&comb_ns));
        p.encode_ns_per_shuffled = median(&enc_ns);
        p.decode_ns_per_shuffled = median(&dec_ns);
        p
    }

    /// Median wall time of a one-line, one-reducer word count on the
    /// scoped executor: the fixed cost every batch job pays. ms.
    pub fn probe_job_fixed_ms(&self, reducers: usize, budget: Duration, tr: Tr) -> f64 {
        self.upload("probe/tiny", "probe", b"w00000 w00001 w00002\n", tr).expect("tiny upload");
        probe_loop(tr, "probe.core.job_fixed", budget, 5, || {
            let out = self.run_batch(
                &Task::WordCount,
                "probe/tiny",
                "probe",
                reducers,
                Reuse::Cached,
                tr.off(),
            );
            assert_eq!(out.output.map(|p| p.len()), Ok(3), "tiny job output");
            1
        }) / 1e6
    }

    /// The same tiny job through `submit` + `wait` on a job server
    /// (the workload's own, or one started for the probe). ms.
    pub fn probe_server_job_fixed_ms(&self, reducers: usize, budget: Duration, tr: Tr) -> f64 {
        let own;
        let sut = if self.server.is_some() {
            self
        } else {
            own = Sut {
                cluster: Arc::clone(&self.cluster),
                server: Some(JobServer::new(Arc::clone(&self.cluster), JobServerConfig::default())),
                block_size: self.block_size,
            };
            &own
        };
        probe_loop(tr, "probe.server.job_fixed", budget, 5, || {
            let out = sut.submit_wait(&Task::WordCount, "probe/tiny", "probe", reducers, tr.off());
            assert_eq!(out.output.map(|p| p.len()), Ok(3), "tiny pool job output");
            1
        }) / 1e6
    }

    /// One `CacheGet` round trip from the client to a tag's home (the
    /// tag is absent, so nothing but the call is timed). µs.
    pub fn probe_call_rtt_us(&self, budget: Duration, tr: Tr) -> f64 {
        let mut i = 0u64;
        let tags: Vec<String> = (0..64).map(|t| format!("absent-{t}")).collect();
        probe_loop(tr, "probe.net.call_rtt", budget, 50, || {
            i += 1;
            let got = self.cluster.ocache_get("probe", &tags[(i % 64) as usize]);
            assert!(got.is_none());
            1
        }) / 1e3
    }

    /// `ocache_put` then `ocache_get` of a `bytes`-sized payload. µs.
    pub fn probe_ocache_us(&self, bytes: usize, budget: Duration, tr: Tr) -> (f64, f64) {
        let payload = Bytes::from(vec![0x5au8; bytes]);
        let tags: Vec<String> = (0..8).map(|t| format!("part-{t}")).collect();
        let mut i = 0usize;
        let put = probe_loop(tr, "probe.cache.ocache_put", budget / 2, 20, || {
            i += 1;
            self.cluster.ocache_put("probe", &tags[i % 8], payload.clone(), None);
            1
        });
        let mut lost = 0u64;
        let get = probe_loop(tr, "probe.cache.ocache_get", budget / 2, 20, || {
            i += 1;
            let got = self.cluster.ocache_get("probe", &tags[i % 8]);
            lost += u64::from(got.map(|b| b.len()) != Some(bytes));
            1
        });
        if lost > 0 {
            // A hot cache may evict a probe payload; a miss is still
            // one round trip, but the reader should know.
            eprintln!("note: {lost} oCache probe reads missed ({bytes} B payload)");
        }
        (put / 1e3, get / 1e3)
    }

    /// `upload` of `data` under fresh names (each call is one `PutBlock`
    /// per replica per block). MiB/s.
    pub fn probe_upload_mib_per_s(&self, data: &[u8], budget: Duration, tr: Tr) -> f64 {
        let mut i = 0u64;
        let ns_per_byte = probe_loop(tr, "probe.dhtfs.upload", budget, 3, || {
            i += 1;
            let name = format!("probe/upload-{i}");
            self.upload(&name, "probe", data, tr.off()).expect("probe upload");
            data.len() as u64
        });
        1e9 / ns_per_byte / (1024.0 * 1024.0)
    }

    /// `BlockStore::get` of every block of `file` at a node holding it. ns.
    pub fn probe_block_get_ns(&self, file: &str, size: u64, budget: Duration, tr: Tr) -> f64 {
        let meta = FileMetadata::partition(file, "", size, self.block_size);
        let store = self.cluster.store();
        let nodes = self.cluster.ring().node_ids();
        let held: Vec<_> = meta
            .blocks
            .iter()
            .map(|b| {
                let holder = nodes.iter().copied().find(|&n| store.holds(n, b.id));
                (
                    holder
                        .unwrap_or_else(|| panic!("no node holds block {} of {file}", b.id.index)),
                    b.id,
                )
            })
            .collect();
        probe_loop(tr, "probe.dhtfs.block_get", budget, 5, || {
            for &(node, id) in &held {
                std::hint::black_box(store.get(node, id));
            }
            held.len() as u64
        })
    }

    /// `LafScheduler::assign`, ring owner lookup and `HashKey::of_name`
    /// over the block keys of `file`. ns each.
    pub fn probe_placement_ns(&self, file: &str, size: u64, budget: Duration, tr: Tr) -> [f64; 3] {
        let meta = FileMetadata::partition(file, "", size, self.block_size);
        let keys: Vec<HashKey> = meta.blocks.iter().map(|b| b.key).collect();
        let names: Vec<String> = (0..keys.len()).map(|i| format!("{file}#{i}")).collect();
        let ring = self.cluster.ring();
        let mut laf = LafScheduler::new(&ring, LafConfig::default());
        let assign = probe_loop(tr, "probe.sched.laf_assign", budget / 3, 5, || {
            for &k in &keys {
                std::hint::black_box(laf.assign(k));
            }
            keys.len() as u64
        });
        let lookup = probe_loop(tr, "probe.ring.lookup", budget / 3, 5, || {
            for &k in &keys {
                std::hint::black_box(ring.owner_of(k).expect("ring has members").id);
            }
            keys.len() as u64
        });
        let hash = probe_loop(tr, "probe.util.hashkey", budget / 3, 5, || {
            for n in &names {
                std::hint::black_box(HashKey::of_name(n));
            }
            names.len() as u64
        });
        [assign, lookup, hash]
    }
}

impl Stream {
    /// `snapshot(published)` as a reader calls it. µs.
    pub fn probe_snapshot_get_us(&self, budget: Duration, tr: Tr) -> f64 {
        probe_loop(tr, "probe.epoch.snapshot_get", budget, 20, || {
            assert!(self.latest().is_some(), "published epoch must be readable");
            1
        }) / 1e3
    }
}

/// Sort records by key and collect each key's values.
fn group_sorted(mut records: Vec<(String, String)>) -> Vec<(String, Vec<String>)> {
    records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(String, Vec<String>)> = Vec::new();
    for (k, v) in records {
        match groups.last_mut() {
            Some((last, vs)) if *last == k => vs.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}
