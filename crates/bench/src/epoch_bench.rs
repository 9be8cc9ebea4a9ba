//! Incremental-epoch measurement: the PR's continuous-job perf story.
//!
//! One sweep, shared by the `epoch_bench` binary that
//! `scripts/tier1.sh` uses to snapshot `results/BENCH_epoch.json`:
//! an 8-node cluster carries a standing word-count stream
//! ([`eclipse_core::EpochDriver`]). A bulk base corpus is folded as
//! epoch 1 (unmeasured setup), then a train of small deltas — each
//! ~1% of the base — arrives one per epoch. Every delta is committed
//! two ways:
//!
//! * **epoch** — [`EpochDriver::commit_epoch`] folds just the delta
//!   into the materialized result (map the delta's blocks, ship them
//!   through the shuffle plane, fold, publish). Per-commit wall-clock
//!   lands in a latency histogram (p50/p99).
//! * **rerun** — the no-incremental baseline: a one-shot batch job
//!   over *everything that has arrived so far*, which is what a system
//!   without materialized epochs must do per arrival.
//!
//! The headline is the speedup (mean rerun wall / mean epoch wall):
//! committing a 1% delta must cost a small fraction of re-running the
//! batch. The sweep also asserts the correctness anchor — after every
//! delta the materialized snapshot is byte-identical to a one-shot
//! batch over the concatenated input — so the number can never come
//! from a stream that quietly diverged.
//!
//! All input uses fixed-width lines with a block size that is a
//! multiple, so block boundaries never split a word in the per-epoch
//! deltas or in the concatenated baseline files (whose boundaries fall
//! at different offsets).

use eclipse_apps::WordCount;
use eclipse_core::{EpochDriver, LiveCluster, LiveConfig, ReusePolicy, StreamSpec};
use eclipse_util::LatencyHist;
use std::sync::Arc;
use std::time::Instant;

/// Cluster size — the acceptance point, matching the other benches.
pub const NODES: usize = 8;
const REDUCERS: usize = 4;
/// Byte width of one corpus line ("wNN wNN wNN wNN\n"); the block size
/// below is a multiple.
const LINE: usize = 16;
const WORDS_PER_LINE: u64 = 4;
const BLOCK: u64 = 4096;

/// What the sweep measured.
#[derive(Clone, Copy, Debug)]
pub struct EpochBenchReport {
    pub nodes: usize,
    /// Map-side records in the base corpus folded as epoch 1.
    pub base_records: u64,
    /// Records per delta (~1% of the base).
    pub delta_records: u64,
    /// Delta size as a fraction of the base corpus.
    pub delta_pct: f64,
    /// Measured delta epochs (excluding the epoch-1 bulk load).
    pub epochs: usize,
    pub epoch_p50_ms: f64,
    pub epoch_p99_ms: f64,
    pub epoch_mean_ms: f64,
    /// Delta records folded per second of epoch-commit wall-clock.
    pub epoch_records_per_sec: f64,
    /// Mean wall-clock of the full-batch re-run a delta arrival costs
    /// without incremental epochs.
    pub rerun_mean_ms: f64,
    pub rerun_records_per_sec: f64,
    /// rerun_mean_ms / epoch_mean_ms — the headline.
    pub speedup: f64,
    /// Every post-delta snapshot was byte-identical to its one-shot
    /// batch oracle (the sweep also asserts this).
    pub identical: bool,
}

/// Deterministic fixed-width corpus: `lines` lines of four 3-char
/// words drawn from a 100-word vocabulary, salted so deltas don't
/// repeat the base verbatim.
fn aligned_corpus(lines: usize, salt: u64) -> String {
    let mut s = String::with_capacity(lines * LINE);
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..lines {
        for i in 0..WORDS_PER_LINE {
            if i > 0 {
                s.push(' ');
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(&format!("w{:02}", (x >> 33) % 100));
        }
        s.push('\n');
    }
    s
}

fn cluster() -> Arc<LiveCluster> {
    Arc::new(LiveCluster::new(LiveConfig::small().with_nodes(NODES).with_block_size(BLOCK)))
}

/// Run the incremental-vs-rerun comparison and return the report.
/// Panics if any snapshot diverges from its batch oracle — a speedup
/// measured on wrong results is not a speedup.
pub fn epoch_sweep(quick: bool) -> EpochBenchReport {
    let base_lines = if quick { 16_384 } else { 65_536 };
    let delta_lines = (base_lines / 100).max(16);
    let deltas = if quick { 6 } else { 10 };

    let base = aligned_corpus(base_lines, 0);
    let delta_texts: Vec<String> =
        (1..=deltas).map(|i| aligned_corpus(delta_lines, i as u64)).collect();

    // Standing stream: fold the base as epoch 1 (setup, unmeasured),
    // then time each delta commit.
    let stream_cluster = cluster();
    let driver = EpochDriver::new(
        Arc::clone(&stream_cluster),
        StreamSpec {
            app: Arc::new(WordCount),
            name: "epoch-bench".to_string(),
            user: "bench".to_string(),
            reducers: REDUCERS,
        },
    );
    driver.commit_epoch(base.as_bytes()).expect("base epoch commits");

    // Baseline cluster: per arrival, upload everything-so-far and run
    // one batch job — the cost of answering the query without
    // materialized epochs. (Same cluster across re-runs, so the
    // baseline keeps its warm-cache best case.)
    let rerun_cluster = cluster();

    let mut epoch_hist = LatencyHist::new();
    let mut epoch_total = 0.0f64;
    let mut rerun_total = 0.0f64;
    let mut concat = base.clone();
    let mut identical = true;
    for (i, delta) in delta_texts.iter().enumerate() {
        concat.push_str(delta);

        let t = Instant::now();
        let rep = driver.commit_epoch(delta.as_bytes()).expect("delta epoch commits");
        let secs = t.elapsed().as_secs_f64();
        epoch_hist.record(t.elapsed().as_nanos() as u64);
        epoch_total += secs;

        let file = format!("rerun-{i}");
        rerun_cluster.upload(&file, "bench", concat.as_bytes());
        let t = Instant::now();
        let (oracle, _) = rerun_cluster
            .try_run_job_inputs_partitioned(
                &WordCount,
                &[&file],
                "bench",
                REDUCERS,
                ReusePolicy::default(),
            )
            .expect("batch re-run");
        rerun_total += t.elapsed().as_secs_f64();

        let snap = driver.snapshot(rep.epoch).expect("published epoch readable");
        let same = *snap == oracle;
        identical &= same;
        assert!(same, "epoch {} snapshot diverged from the batch oracle", rep.epoch);
    }
    driver.close();

    let base_records = base_lines as u64 * WORDS_PER_LINE;
    let delta_records = delta_lines as u64 * WORDS_PER_LINE;
    let epoch_mean = epoch_total / deltas as f64;
    let rerun_mean = rerun_total / deltas as f64;
    EpochBenchReport {
        nodes: NODES,
        base_records,
        delta_records,
        delta_pct: delta_lines as f64 / base_lines as f64,
        epochs: deltas,
        epoch_p50_ms: epoch_hist.quantile(0.5) as f64 / 1e6,
        epoch_p99_ms: epoch_hist.quantile(0.99) as f64 / 1e6,
        epoch_mean_ms: epoch_mean * 1e3,
        epoch_records_per_sec: delta_records as f64 * deltas as f64 / epoch_total,
        rerun_mean_ms: rerun_mean * 1e3,
        rerun_records_per_sec: delta_records as f64 * deltas as f64 / rerun_total,
        speedup: rerun_mean / epoch_mean,
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_lines_are_fixed_width_and_block_aligned() {
        let c = aligned_corpus(64, 7);
        assert_eq!(c.len(), 64 * LINE);
        for l in c.lines() {
            assert_eq!(l.len(), LINE - 1);
        }
        assert_eq!(BLOCK as usize % LINE, 0);
        // Salted corpora differ (deltas aren't the base replayed).
        assert_ne!(aligned_corpus(64, 1), aligned_corpus(64, 2));
    }
}
