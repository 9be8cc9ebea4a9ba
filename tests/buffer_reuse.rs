//! Pooled-buffer hygiene: a cluster hands its map workers' spill
//! buffers and its reduce folds' combining tables back to a free list
//! between jobs, so one job's buffers start the next. A sequence of
//! jobs on one long-lived cluster must give, job by job, exactly the
//! bytes the same job gives on a fresh cluster (fresh buffers), over
//! the in-memory and the loopback TCP transports. The sequence
//! alternates combiner and non-combiner apps, runs 1, 8 and 13
//! reducers, follows a 50,000-word-vocabulary job with a 3-word one,
//! and includes a map attempt that panics mid-block with its buffers
//! half full.

use eclipse_apps::{InvertedIndex, WordCount};
use eclipse_core::{LiveCluster, LiveConfig, MapReduce, ReusePolicy, TransportKind};
use eclipse_integration_tests::{doc_corpus, WordCountNoCombiner};
use eclipse_workloads::TextGen;
use std::sync::atomic::{AtomicBool, Ordering};

/// Word count through the default text adapters whose first map
/// attempt panics after 200 words, leaving its tables half filled; the
/// retry runs clean.
struct PanicOnce {
    armed: AtomicBool,
}

impl MapReduce for PanicOnce {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        let mut words = 0;
        WordCount.map(block, &mut |k, v| {
            words += 1;
            if words == 200 && self.armed.swap(false, Ordering::AcqRel) {
                panic!("injected map panic mid-block");
            }
            emit(k, v);
        });
    }
    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.reduce(key, values, emit);
    }
    fn combine(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        WordCount.combine(key, values, emit);
    }
    fn has_combiner(&self) -> bool {
        true
    }
}

const FILES: [&str; 3] = ["big", "tiny", "docs"];

fn cluster(transport: TransportKind, texts: &[String; 3]) -> LiveCluster {
    let c = LiveCluster::new(LiveConfig::small().with_transport(transport));
    for (name, text) in FILES.iter().zip(texts) {
        c.upload(name, "hygiene", text.as_bytes());
    }
    c
}

#[test]
fn reused_buffers_give_fresh_buffers_bytes() {
    let texts = [
        TextGen::new(50_000, 1.0, 10).generate(7, 160 * 1024),
        "alpha beta alpha\n".to_string(),
        doc_corpus(400),
    ];
    let panicky = PanicOnce { armed: AtomicBool::new(true) };
    // (app, the app a fresh cluster runs for the expected bytes, file,
    // reducers).
    let jobs: [(&dyn MapReduce, &dyn MapReduce, &str, usize); 10] = [
        (&WordCount, &WordCount, "big", 8),
        (&WordCount, &WordCount, "tiny", 8),
        (&InvertedIndex, &InvertedIndex, "docs", 13),
        (&WordCount, &WordCount, "big", 13),
        (&WordCountNoCombiner, &WordCountNoCombiner, "big", 1),
        (&panicky, &WordCount, "big", 8),
        (&WordCount, &WordCount, "tiny", 1),
        (&InvertedIndex, &InvertedIndex, "docs", 1),
        (&WordCount, &WordCount, "docs", 1),
        (&WordCountNoCombiner, &WordCountNoCombiner, "tiny", 13),
    ];
    for transport in [TransportKind::Memory, TransportKind::Tcp] {
        panicky.armed.store(true, Ordering::Release);
        let reused = cluster(transport, &texts);
        for (i, &(app, twin, file, reducers)) in jobs.iter().enumerate() {
            let run = |c: &LiveCluster, app: &dyn MapReduce| {
                c.try_run_job(app, file, "hygiene", reducers, ReusePolicy::default())
                    .unwrap_or_else(|e| panic!("{transport:?} job {i} ({file}): {e}"))
            };
            let (got, stats) = run(&reused, app);
            let (want, _) = run(&cluster(transport, &texts), twin);
            assert!(!want.is_empty(), "job {i} produced nothing");
            assert_eq!(got, want, "{transport:?} job {i} ({file}, {reducers} reducers)");
            if std::ptr::addr_eq(app, &panicky) {
                assert!(stats.retries >= 1, "the injected panic fired and was retried");
            }
        }
        assert!(!panicky.armed.load(Ordering::Acquire), "{transport:?}: the map panic fired");
    }
}
