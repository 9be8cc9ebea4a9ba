//! Epoch determinism matrix: incremental epochs vs the one-shot batch.
//!
//! The continuous-job contract is that *how* the input arrived is
//! invisible in the result — N epochs folded incrementally produce a
//! materialized snapshot byte-identical to one batch job over the
//! concatenation of every delta, for every scheduler, transport,
//! epoch count and app. The apps cover each shape of the fold: word
//! count with a combiner (each key holds one folded value), without
//! one (each key holds its value multiset), and the inverted index (a
//! reduce that dedups and joins its values into a posting list).
//! Deltas use fixed-width lines with a block size that is a multiple,
//! so block boundaries never split a word in either the per-epoch
//! files or the concatenated oracle file.

use eclipse_apps::{InvertedIndex, WordCount};
use eclipse_core::{
    EpochDriver, LiveCluster, LiveConfig, MapReduce, ReusePolicy, SchedulerKind, StreamSpec,
    TransportKind,
};
use eclipse_integration_tests::WordCountNoCombiner;
use std::sync::Arc;

/// Line length every delta is built from; the block size is a multiple.
const LINE: usize = 19;

/// Deterministic delta for epoch `e`: 19-byte `doc<TAB>text` lines
/// (the inverted index's input shape; word count counts the doc ids
/// as words). Vocabulary and doc ids overlap across epochs, so folds
/// actually merge, plus an epoch-unique token so every epoch visibly
/// lands.
fn delta(e: usize) -> String {
    let shared = ["apple bananas", "banana cherry", "cherry elders"];
    let mut out = String::new();
    for i in 0..24 {
        let doc = format!("d{:04}", (e * 7 + i) % 40);
        let text = if i % 3 == 0 {
            format!("ep{e:04} ep{e:04}")
        } else {
            shared[(e + i) % shared.len()].to_string()
        };
        let line = format!("{doc}\t{text}\n");
        debug_assert_eq!(line.len(), LINE + 1, "{line:?}");
        out.push_str(&line);
    }
    out
}

fn run_matrix_cell(
    app: Arc<dyn MapReduce>,
    sched: SchedulerKind,
    transport: TransportKind,
    epochs: usize,
) {
    let cfg = LiveConfig::small()
        .with_block_size((LINE as u64 + 1) * 4)
        .with_scheduler(sched)
        .with_transport(transport);
    let c = Arc::new(LiveCluster::new(cfg));
    let d = EpochDriver::new(
        Arc::clone(&c),
        StreamSpec {
            app: Arc::clone(&app),
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
        .try_run_job_inputs_partitioned(&*app, &["oracle"], "tester", 4, ReusePolicy::default())
        .expect("oracle batch");
    let snap = d.snapshot(epochs as u32).expect("published epoch readable");
    assert_eq!(
        *snap, oracle,
        "epochs={epochs}: materialized snapshot != one-shot batch oracle"
    );
    d.close();
}

fn run_matrix(sched: SchedulerKind, transport: TransportKind) {
    let apps: [Arc<dyn MapReduce>; 3] =
        [Arc::new(WordCount), Arc::new(WordCountNoCombiner), Arc::new(InvertedIndex)];
    for app in apps {
        for epochs in [1usize, 4, 16] {
            run_matrix_cell(Arc::clone(&app), sched.clone(), transport, epochs);
        }
    }
}

#[test]
fn epochs_match_batch_laf_memory() {
    run_matrix(SchedulerKind::Laf(Default::default()), TransportKind::Memory);
}

#[test]
fn epochs_match_batch_delay_memory() {
    run_matrix(SchedulerKind::Delay(Default::default()), TransportKind::Memory);
}

#[test]
fn epochs_match_batch_laf_tcp() {
    run_matrix(SchedulerKind::Laf(Default::default()), TransportKind::Tcp);
}

#[test]
fn epochs_match_batch_delay_tcp() {
    run_matrix(SchedulerKind::Delay(Default::default()), TransportKind::Tcp);
}
