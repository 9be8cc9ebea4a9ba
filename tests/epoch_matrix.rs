//! Epoch determinism matrix: incremental epochs vs the one-shot batch.
//!
//! The continuous-job contract is that *how* the input arrived is
//! invisible in the result — N epochs folded incrementally produce a
//! materialized snapshot byte-identical to one batch job over the
//! concatenation of every delta, for every scheduler, transport, and
//! epoch count. Deltas use fixed-width lines with a block size that is
//! a multiple, so block boundaries never split a word in either the
//! per-epoch files or the concatenated oracle file.

use eclipse_core::{
    EpochDriver, LiveCluster, LiveConfig, ReusePolicy, SchedulerKind, StreamSpec, TransportKind,
};
use eclipse_integration_tests::WordCountNoCombiner as WordCount;
use std::sync::Arc;

/// Line length every delta is built from; the block size is a multiple.
const LINE: usize = 19;

/// Deterministic delta for epoch `e`: 19-byte lines, vocabulary
/// overlapping across epochs (so folds actually merge) plus an
/// epoch-unique token (so every epoch visibly lands).
fn delta(e: usize) -> String {
    let shared = ["apple banana cherry", "banana cherry dates", "cherry dates elders"];
    let mut out = String::new();
    for i in 0..24 {
        let line = if i % 3 == 0 {
            // 19 visible bytes: two 9-char epoch-stamped tokens.
            format!("epoch{e:04} epoch{e:04}\n")
        } else {
            format!("{}\n", shared[(e + i) % shared.len()])
        };
        debug_assert_eq!(line.len(), LINE + 1, "{line:?}");
        out.push_str(&line);
    }
    out
}

fn run_matrix_cell(sched: SchedulerKind, transport: TransportKind, epochs: usize) {
    let cfg = LiveConfig::small()
        .with_block_size((LINE as u64 + 1) * 4)
        .with_scheduler(sched)
        .with_transport(transport);
    let c = Arc::new(LiveCluster::new(cfg));
    let d = EpochDriver::new(
        Arc::clone(&c),
        StreamSpec {
            app: Arc::new(WordCount),
            name: format!("stream-{epochs}"),
            user: "tester".to_string(),
            reducers: 4,
        },
    );
    let mut concat = String::new();
    for e in 1..=epochs {
        let delta = delta(e);
        concat.push_str(&delta);
        let rep = d.commit_epoch(delta.as_bytes()).expect("epoch commits");
        assert_eq!(rep.epoch as usize, e);
        assert_eq!(d.published() as usize, e, "read-your-epoch after commit");
    }
    c.upload("oracle", "tester", concat.as_bytes());
    let (oracle, _) = c
        .try_run_job_inputs_partitioned(&WordCount, &["oracle"], "tester", 4, ReusePolicy::default())
        .expect("oracle batch");
    let snap = d.snapshot(epochs as u32).expect("published epoch readable");
    assert_eq!(
        *snap, oracle,
        "epochs={epochs}: materialized snapshot != one-shot batch oracle"
    );
    d.close();
}

#[test]
fn epochs_match_batch_laf_memory() {
    for epochs in [1usize, 4, 16] {
        run_matrix_cell(SchedulerKind::Laf(Default::default()), TransportKind::Memory, epochs);
    }
}

#[test]
fn epochs_match_batch_delay_memory() {
    for epochs in [1usize, 4, 16] {
        run_matrix_cell(SchedulerKind::Delay(Default::default()), TransportKind::Memory, epochs);
    }
}

#[test]
fn epochs_match_batch_laf_tcp() {
    for epochs in [1usize, 4, 16] {
        run_matrix_cell(SchedulerKind::Laf(Default::default()), TransportKind::Tcp, epochs);
    }
}

#[test]
fn epochs_match_batch_delay_tcp() {
    for epochs in [1usize, 4, 16] {
        run_matrix_cell(SchedulerKind::Delay(Default::default()), TransportKind::Tcp, epochs);
    }
}
