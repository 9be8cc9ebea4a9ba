//! The four workloads. Each builds its inputs from the seed, brings a
//! cluster to a warm steady state (set-up), and then answers one
//! question repeatedly: "run client `c`'s `i`-th op and tell me what
//! happened". All calls into the system go through [`crate::sut`].
//!
//! Inputs have fixed-width lines (70 B text, 80 B documents) and block
//! sizes that are multiples of both, so no record straddles a block
//! and the plain references in [`crate::oracle`] are exact.

use crate::oracle::{self, Pairs, Task};
use crate::sut::{Corpus, Counters, Net, Reuse, Stream, Sut};
use crate::trace::Tr;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// 3,744 text lines or 3,276 documents per block.
const BLOCK: u64 = 262_080;
/// 936 text lines per block: a 1,200-line delta spans two blocks.
const EPOCH_BLOCK: u64 = 65_520;
/// Reduce partitions of every job the workloads (and the probes) run.
pub const REDUCERS: usize = 8;
const MIB: usize = 1024 * 1024;

/// Which latency population an op belongs to. Only `Sampled` ops feed
/// `op_p50_ms`/`op_p90_ms`; the others are load: `Medium` jobs, and
/// `Bulk` ones (a storm scan, an epoch stream's base fold).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Sampled,
    Medium,
    Bulk,
}

/// How an op ended. A `Wrong` op completed — its time and records
/// count — but both `Wrong` and `Failed` ops are failed ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Returned `Ok` and matched the reference.
    Correct,
    /// Returned `Ok` with an output that differs from the reference.
    Wrong,
    /// Returned `Err` or panicked.
    Failed,
}

impl Status {
    fn of_check(matches: bool) -> Status {
        if matches {
            Status::Correct
        } else {
            Status::Wrong
        }
    }
}

pub struct Op {
    pub class: Class,
    pub status: Status,
    /// Seconds inside the system (the check is not timed).
    pub secs: f64,
    /// Map-input records (lines) the op processed.
    pub records: u64,
    pub counters: Counters,
}

/// One job class of a workload, for the per-record probes and for
/// scaling their costs to whole jobs.
pub struct ProbeJob<'a> {
    pub class: Class,
    pub task: Task,
    pub text: &'a str,
    /// Keys `reduce` runs over per op beyond those of `text` itself
    /// (the epoch stream re-reduces its whole state every commit).
    pub extra_reduce_keys: u64,
}

pub trait Workload: Sync {
    fn sut(&self) -> &Sut;
    /// Closed-loop client threads.
    fn clients(&self) -> usize {
        1
    }
    /// Compute the references (not part of set-up: it is the
    /// harness's work, not the system's). Returns the records the
    /// plain reference processed, for the single-thread baseline.
    fn prepare(&mut self, corrupt: bool) -> u64;
    fn op(&self, client: usize, i: u64, tr: Tr) -> Op;
    /// End-of-run check; `false` is one more failed op.
    fn finish(&self) -> bool {
        true
    }
    fn probe_jobs(&self) -> Vec<ProbeJob<'_>>;
    /// The uploaded file (name, bytes) the block/placement probes walk.
    fn main_file(&self) -> (String, u64);
    /// Time a reader's `snapshot(published)`; `None` where there is no
    /// stream.
    fn snapshot_probe_us(&self, _budget: Duration, _tr: Tr) -> Option<f64> {
        None
    }
    /// The input an upload probe pushes into the DHT FS.
    fn upload_sample(&self) -> &str;
}

pub fn setup(name: &str, seed: u64, tr: Tr) -> Box<dyn Workload> {
    match name {
        "wc_warm" => Box::new(Batch::wc_warm(seed, tr)),
        "invidx_tcp_cold" => Box::new(Batch::invidx_tcp_cold(seed, tr)),
        "storm_pool" => Box::new(Storm::setup(seed, tr)),
        "epoch_ingest" => Box::new(Epoch::setup(seed, tr)),
        other => panic!("unknown workload {other:?}"),
    }
}

fn upload(sut: &Sut, name: &str, user: &str, text: &str, tr: Tr) {
    sut.upload(name, user, text.as_bytes(), tr).unwrap_or_else(|e| panic!("upload {name}: {e}"));
}

fn check(output: Result<Pairs, String>, want: &Pairs) -> Status {
    match output {
        Ok(got) => Status::of_check(got == *want),
        Err(e) => {
            eprintln!("op failed: {e}");
            Status::Failed
        }
    }
}

// ------------------------------------------------- wc_warm, invidx_tcp_cold

/// One file, one application, one client, the scoped executor.
struct Batch {
    sut: Sut,
    task: Task,
    file: &'static str,
    text: String,
    reuse: Reuse,
    records: u64,
    expected: Pairs,
}

impl Batch {
    /// Word count with a combiner over 12 MiB drawn from 2,000 words;
    /// in-memory transport; every block read is an iCache hit.
    fn wc_warm(seed: u64, tr: Tr) -> Batch {
        let text = Corpus::new(2_000).text(seed, 12 * MIB);
        Batch::start(Task::WordCount, "wc/in", text, Net::Memory, Reuse::Cached, tr)
    }

    /// Inverted index (no combiner) over 6 MiB of documents drawn from
    /// 50,000 words; loopback TCP; caches bypassed.
    fn invidx_tcp_cold(seed: u64, tr: Tr) -> Batch {
        let text = Corpus::new(50_000).documents(seed, 6 * MIB);
        Batch::start(Task::InvertedIndex, "invidx/in", text, Net::Tcp, Reuse::Bypass, tr)
    }

    fn start(
        task: Task,
        file: &'static str,
        text: String,
        net: Net,
        reuse: Reuse,
        tr: Tr,
    ) -> Batch {
        let sut = Sut::build(net, BLOCK, false, tr);
        upload(&sut, file, "bench", &text, tr);
        let b = Batch { sut, task, file, text, reuse, records: 0, expected: Vec::new() };
        // Two warm-up jobs: the first fills the iCache (or opens the
        // TCP connections), the second runs in the state being measured.
        for _ in 0..2 {
            let out = b.sut.run_batch(&b.task, b.file, "bench", REDUCERS, b.reuse, tr);
            out.output.unwrap_or_else(|e| panic!("warm-up job failed: {e}"));
        }
        b
    }
}

impl Workload for Batch {
    fn sut(&self) -> &Sut {
        &self.sut
    }

    fn prepare(&mut self, corrupt: bool) -> u64 {
        self.records = oracle::record_count(&self.text);
        self.expected = oracle::reference(&self.task, &self.text);
        if corrupt {
            oracle::corrupt(&mut self.expected);
        }
        self.records
    }

    fn op(&self, _client: usize, _i: u64, tr: Tr) -> Op {
        let t = Instant::now();
        let out = self.sut.run_batch(&self.task, self.file, "bench", REDUCERS, self.reuse, tr);
        let secs = t.elapsed().as_secs_f64();
        let status = tr.span("harness.check", |_| check(out.output, &self.expected));
        Op { class: Class::Sampled, status, secs, records: self.records, counters: out.counters }
    }

    fn probe_jobs(&self) -> Vec<ProbeJob<'_>> {
        vec![ProbeJob {
            class: Class::Sampled,
            task: self.task.clone(),
            text: &self.text,
            extra_reduce_keys: 0,
        }]
    }

    fn main_file(&self) -> (String, u64) {
        (self.file.to_string(), self.text.len() as u64)
    }

    fn upload_sample(&self) -> &str {
        &self.text
    }
}

// --------------------------------------------------------------- storm_pool

/// SplitMix64: the harness's own generator for job-mix draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One round of a storm client: 12 small, 2 medium, 1 scan. With fewer
/// small jobs per scan (the issue proposed 3:2:1) half of them overlap
/// the other tenant's scan in its map phase and half do not, the
/// latency distribution splits into two equal modes, and the median
/// hops between them from run to run (10% inter-quartile spread over
/// ten seeds). At 12:2:1 about two thirds of the small jobs run in the
/// fast mode: the median sits inside it and p90 inside the slow one.
const ROUND: [(Class, usize); 3] = [(Class::Sampled, 12), (Class::Medium, 2), (Class::Bulk, 1)];
const ROUND_LEN: usize = 15;

/// Client `c`'s `i`-th job class: every round is a seeded shuffle of
/// [`ROUND`], so the mix holds exactly over any whole number of rounds.
pub fn storm_class(seed: u64, client: usize, i: u64) -> Class {
    let mut round = [Class::Sampled; ROUND_LEN];
    let mut at = 0;
    for (class, n) in ROUND {
        round[at..at + n].fill(class);
        at += n;
    }
    let n = ROUND_LEN as u64;
    let mut state =
        seed ^ (client as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93) ^ ((i / n) << 20);
    for k in (1..ROUND_LEN).rev() {
        round.swap(k, (splitmix(&mut state) % (k as u64 + 1)) as usize);
    }
    round[(i % n) as usize]
}

struct StormJob {
    class: Class,
    task: Task,
    file: String,
    text: String,
    records: u64,
    expected: Pairs,
}

/// Two tenants, each a closed-loop client submitting a 12:2:1 mix of
/// small word counts (70 KiB), medium greps (1 MiB) and inverted-index
/// scans (2 MiB) over its own files to one shared job server.
struct Storm {
    sut: Sut,
    seed: u64,
    /// `jobs[tenant]` = [small, medium, scan].
    jobs: Vec<[StormJob; 3]>,
}

const TENANTS: usize = 2;

impl Storm {
    fn setup(seed: u64, tr: Tr) -> Storm {
        let corpus = Corpus::new(50_000);
        let sut = Sut::build(Net::Memory, BLOCK, true, tr);
        let pattern = corpus.word(16).to_string();
        let jobs: Vec<[StormJob; 3]> = (0..TENANTS)
            .map(|t| {
                let s = seed.wrapping_mul(31).wrapping_add(t as u64 * 3);
                let job = |class, task, kind: &str, text: String| StormJob {
                    class,
                    task,
                    file: format!("t{t}/{kind}"),
                    text,
                    records: 0,
                    expected: Vec::new(),
                };
                [
                    job(Class::Sampled, Task::WordCount, "small", corpus.text(s, 70 * 1024)),
                    job(
                        Class::Medium,
                        Task::Grep(pattern.clone()),
                        "medium",
                        corpus.text(s + 1, MIB),
                    ),
                    job(Class::Bulk, Task::InvertedIndex, "scan", corpus.documents(s + 2, 2 * MIB)),
                ]
            })
            .collect();
        for (t, tenant) in jobs.iter().enumerate() {
            for j in tenant {
                upload(&sut, &j.file, &format!("t{t}"), &j.text, tr);
            }
        }
        let storm = Storm { sut, seed, jobs };
        for (t, tenant) in storm.jobs.iter().enumerate() {
            for j in tenant {
                let out = storm.sut.submit_wait(&j.task, &j.file, &format!("t{t}"), REDUCERS, tr);
                out.output.unwrap_or_else(|e| panic!("warm-up job {} failed: {e}", j.file));
            }
        }
        storm
    }
}

impl Workload for Storm {
    fn sut(&self) -> &Sut {
        &self.sut
    }

    fn clients(&self) -> usize {
        TENANTS
    }

    fn prepare(&mut self, corrupt: bool) -> u64 {
        let mut records = 0;
        for j in self.jobs.iter_mut().flatten() {
            j.records = oracle::record_count(&j.text);
            j.expected = oracle::reference(&j.task, &j.text);
            if corrupt {
                oracle::corrupt(&mut j.expected);
            }
            records += j.records;
        }
        records
    }

    fn op(&self, client: usize, i: u64, tr: Tr) -> Op {
        let class = storm_class(self.seed, client, i);
        let j = self.jobs[client].iter().find(|j| j.class == class).expect("three classes");
        let t = Instant::now();
        let out = self.sut.submit_wait(&j.task, &j.file, &format!("t{client}"), REDUCERS, tr);
        let secs = t.elapsed().as_secs_f64();
        let status = tr.span("harness.check", |_| check(out.output, &j.expected));
        Op { class, status, secs, records: j.records, counters: out.counters }
    }

    fn probe_jobs(&self) -> Vec<ProbeJob<'_>> {
        self.jobs[0]
            .iter()
            .map(|j| ProbeJob {
                class: j.class,
                task: j.task.clone(),
                text: &j.text,
                extra_reduce_keys: 0,
            })
            .collect()
    }

    fn main_file(&self) -> (String, u64) {
        let scan = &self.jobs[0][2];
        (scan.file.clone(), scan.text.len() as u64)
    }

    fn upload_sample(&self) -> &str {
        &self.jobs[0][2].text
    }
}

// ------------------------------------------------------------- epoch_ingest

/// Distinct deltas generated up front and cycled through; word count
/// only adds, so re-ingesting a delta is as good as a fresh one.
const DELTA_POOL: usize = 50;
/// 1,200 lines: 1% of the 8 MiB base.
const DELTA_BYTES: usize = 84_000;
/// Commits a stream takes before the client retires it and opens a
/// fresh one over the same base. A commit re-reduces the stream's
/// whole state, so latency climbs with every epoch (36 → 90 ms over
/// 300); on one endless stream the median of a timed run is wherever
/// the run happened to stop on that ramp (58.5–63.5 ms over ten
/// seeds). Bounded streams make the work of commit *k* the same in
/// every cycle, on every commit of the repository.
const EPOCHS_PER_STREAM: u64 = 100;
/// Every how many commits the published snapshot is checked against
/// the reference (flattening a snapshot is O(state)).
const CHECK_EVERY: u64 = 50;

/// The stream in service and the reference for what it has ingested.
struct Standing {
    stream: Stream,
    generation: u64,
    /// Word count over base + every delta committed to this stream.
    totals: HashMap<String, u64>,
}

/// A standing word-count stream: 8 MiB folded as epoch 1, then one 1%
/// delta per op — upload, delta wave, fold, re-materialise, publish.
/// After [`EPOCHS_PER_STREAM`] commits the next op (not sampled) opens
/// a new stream and folds the base again.
struct Epoch {
    // Declared before `sut`: the stream must close before its server.
    standing: Mutex<Standing>,
    sut: Sut,
    base: String,
    base_counts: HashMap<String, u64>,
    deltas: Vec<String>,
    delta_counts: Vec<Vec<(String, u64)>>,
    corrupt: bool,
}

impl Epoch {
    fn setup(seed: u64, tr: Tr) -> Epoch {
        let corpus = Corpus::new(50_000);
        let base = corpus.text(seed, 8 * MIB);
        let deltas: Vec<String> = (0..DELTA_POOL)
            .map(|j| corpus.text(seed ^ ((j as u64 + 1) << 32), DELTA_BYTES))
            .collect();
        let sut = Sut::build(Net::Memory, EPOCH_BLOCK, true, tr);
        let (stream, _) =
            Epoch::open(&sut, 0, &base, tr).unwrap_or_else(|e| panic!("base epoch failed: {e}"));
        Epoch {
            standing: Mutex::new(Standing { stream, generation: 0, totals: HashMap::new() }),
            sut,
            base,
            base_counts: HashMap::new(),
            deltas,
            delta_counts: Vec::new(),
            corrupt: false,
        }
    }

    fn stream_name(generation: u64) -> String {
        format!("epoch/stream-{generation}")
    }

    /// Open generation `generation` of the stream and ingest the base
    /// through it, as epoch 1.
    fn open(sut: &Sut, generation: u64, base: &str, tr: Tr) -> Result<(Stream, Counters), String> {
        let stream = sut.open_stream(&Epoch::stream_name(generation), "bench", REDUCERS);
        let commit = stream.commit(base.as_bytes(), tr)?;
        Ok((stream, commit.counters))
    }

    fn snapshot_matches(&self, got: Pairs, totals: &HashMap<String, u64>) -> bool {
        let mut want = oracle::counts_to_pairs(totals);
        if self.corrupt {
            oracle::corrupt(&mut want);
        }
        got == want
    }

    /// Retire the stream in service and stand up the next generation.
    fn reopen(&self, tr: Tr) -> Op {
        let mut standing = self.standing.lock().expect("stream lock");
        let generation = standing.generation + 1;
        let t = Instant::now();
        let opened = Epoch::open(&self.sut, generation, &self.base, tr);
        let secs = t.elapsed().as_secs_f64();
        let (status, counters) = match opened {
            Ok((stream, counters)) => {
                *standing = Standing { stream, generation, totals: self.base_counts.clone() };
                (Status::Correct, counters)
            }
            Err(e) => {
                eprintln!("re-opening the stream failed: {e}");
                (Status::Failed, Counters::default())
            }
        };
        Op { class: Class::Bulk, status, secs, records: oracle::record_count(&self.base), counters }
    }
}

impl Workload for Epoch {
    fn sut(&self) -> &Sut {
        &self.sut
    }

    fn prepare(&mut self, corrupt: bool) -> u64 {
        self.corrupt = corrupt;
        oracle::add_counts(&mut self.base_counts, &oracle::word_counts(&self.base));
        self.standing.get_mut().expect("stream lock").totals = self.base_counts.clone();
        self.delta_counts = self
            .deltas
            .iter()
            .map(|d| oracle::word_counts(d).into_iter().map(|(w, n)| (w.to_string(), n)).collect())
            .collect();
        oracle::record_count(&self.base)
            + self.deltas.iter().map(|d| oracle::record_count(d)).sum::<u64>()
    }

    fn op(&self, _client: usize, i: u64, tr: Tr) -> Op {
        // A cycle is EPOCHS_PER_STREAM commits, then one re-open.
        let at = i % (EPOCHS_PER_STREAM + 1);
        if at == EPOCHS_PER_STREAM {
            return self.reopen(tr);
        }
        let slot = (at % DELTA_POOL as u64) as usize;
        let delta = &self.deltas[slot];
        let mut standing = self.standing.lock().expect("stream lock");
        let t = Instant::now();
        let res = standing.stream.commit(delta.as_bytes(), tr);
        let secs = t.elapsed().as_secs_f64();
        let (status, counters) = match res {
            Ok(commit) => {
                for (w, n) in &self.delta_counts[slot] {
                    match standing.totals.get_mut(w) {
                        Some(total) => *total += n,
                        None => {
                            standing.totals.insert(w.clone(), *n);
                        }
                    }
                }
                let matches = at % CHECK_EVERY != CHECK_EVERY - 1
                    || tr.span("harness.check", |_| {
                        self.snapshot_matches(commit.snapshot.to_pairs(), &standing.totals)
                    });
                (Status::of_check(matches), commit.counters)
            }
            Err(e) => {
                eprintln!("commit failed: {e}");
                (Status::Failed, Counters::default())
            }
        };
        Op { class: Class::Sampled, status, secs, records: oracle::record_count(delta), counters }
    }

    /// The final published snapshot, read back the way a reader would.
    fn finish(&self) -> bool {
        let standing = self.standing.lock().expect("stream lock");
        standing
            .stream
            .latest()
            .is_some_and(|s| self.snapshot_matches(s.to_pairs(), &standing.totals))
    }

    fn probe_jobs(&self) -> Vec<ProbeJob<'_>> {
        vec![ProbeJob {
            class: Class::Sampled,
            task: Task::WordCount,
            text: &self.deltas[0],
            extra_reduce_keys: self.standing.lock().expect("stream lock").totals.len() as u64,
        }]
    }

    fn main_file(&self) -> (String, u64) {
        // The first generation's base epoch, as the stream names its ingests.
        (format!("{}.e1i1", Epoch::stream_name(0)), self.base.len() as u64)
    }

    fn snapshot_probe_us(&self, budget: Duration, tr: Tr) -> Option<f64> {
        Some(self.standing.lock().expect("stream lock").stream.probe_snapshot_get_us(budget, tr))
    }

    /// What the stream uploads per commit: one delta.
    fn upload_sample(&self) -> &str {
        &self.deltas[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_mix_holds_per_round_and_is_seeded() {
        assert_eq!(ROUND.iter().map(|(_, n)| n).sum::<usize>(), ROUND_LEN);
        for client in 0..TENANTS {
            for round in 0..20u64 {
                let classes: Vec<Class> = (0..ROUND_LEN as u64)
                    .map(|k| storm_class(42, client, round * ROUND_LEN as u64 + k))
                    .collect();
                for (class, n) in ROUND {
                    assert_eq!(classes.iter().filter(|&&c| c == class).count(), n);
                }
            }
        }
        let seq = |seed, client| (0..150).map(|i| storm_class(seed, client, i)).collect::<Vec<_>>();
        assert_eq!(seq(42, 0), seq(42, 0));
        assert_ne!(seq(42, 0), seq(43, 0));
        assert_ne!(seq(42, 0), seq(42, 1));
    }

    #[test]
    fn block_sizes_hold_whole_lines() {
        for line in [70, 80] {
            assert_eq!(BLOCK % line, 0);
        }
        assert_eq!(EPOCH_BLOCK % 70, 0);
        assert_eq!(DELTA_BYTES % 70, 0);
    }
}
