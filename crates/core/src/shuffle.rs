//! Proactive shuffling (paper §II-D).
//!
//! Hadoop stores intermediate results on the mapper's local disk and lets
//! reducers pull after the map phase. EclipseMR instead pushes: "each map
//! task stores the intermediate results in a memory buffer for each hash
//! key range. When the size of this buffer reaches a certain threshold
//! specified by the application, EclipseMR spills the buffered results to
//! the DHT file system so that they can be accessed by reducers" — while
//! the map task is still running.

use eclipse_util::HashKey;

/// One emitted spill: `bytes` of partition `partition` ready to push to
/// the reducer side.
#[derive(Clone, Debug, PartialEq)]
pub struct Spill<P> {
    pub partition: usize,
    pub bytes: u64,
    /// Buffered payload records (empty for metered/simulated shuffles).
    pub records: Vec<P>,
}

/// A map task's per-partition spill buffers.
///
/// Generic over the record payload `P`. The live executor and the
/// simulator buffer nothing here (`P = ()`) and only meter bytes: the
/// executor's records wait in its per-partition spill arenas.
#[derive(Clone, Debug)]
pub struct SpillBuffer<P> {
    threshold: u64,
    partitions: usize,
    buffered_bytes: Vec<u64>,
    buffered_records: Vec<Vec<P>>,
    spilled_bytes: u64,
    spills: u64,
}

impl<P> SpillBuffer<P> {
    /// `partitions` reducer partitions, spilling each partition when it
    /// buffers `threshold` bytes (32 MB in the paper's experiments).
    pub fn new(partitions: usize, threshold: u64) -> SpillBuffer<P> {
        assert!(partitions > 0, "need at least one reduce partition");
        assert!(threshold > 0, "spill threshold must be positive");
        SpillBuffer {
            threshold,
            partitions,
            buffered_bytes: vec![0; partitions],
            buffered_records: (0..partitions).map(|_| Vec::new()).collect(),
            spilled_bytes: 0,
            spills: 0,
        }
    }

    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Partition index for an intermediate key: reducers own equal
    /// slices of the ring, so the hash key picks the partition directly —
    /// this is what lets EclipseMR place reducers before maps finish.
    pub fn partition_of(&self, key: HashKey) -> usize {
        ((key.0 as u128 * self.partitions as u128) >> 64) as usize
    }

    /// Buffer `bytes` (and optionally a record) for `key`'s partition;
    /// returns a [`Spill`] if that partition crossed the threshold.
    pub fn push(&mut self, key: HashKey, bytes: u64, record: Option<P>) -> Option<Spill<P>> {
        let p = self.partition_of(key);
        self.push_to(p, bytes, record)
    }

    /// Buffer into an explicit partition — used by applications with a
    /// custom partitioner (e.g. TeraSort's sampled range partitioning).
    pub fn push_to(&mut self, p: usize, bytes: u64, record: Option<P>) -> Option<Spill<P>> {
        assert!(p < self.partitions, "partition {p} out of range");
        self.buffered_bytes[p] += bytes;
        if let Some(r) = record {
            self.buffered_records[p].push(r);
        }
        if self.buffered_bytes[p] >= self.threshold {
            Some(self.spill(p))
        } else {
            None
        }
    }

    fn spill(&mut self, p: usize) -> Spill<P> {
        let bytes = std::mem::take(&mut self.buffered_bytes[p]);
        let records = std::mem::take(&mut self.buffered_records[p]);
        self.spilled_bytes += bytes;
        self.spills += 1;
        Spill { partition: p, bytes, records }
    }

    /// Discard everything currently buffered while keeping the record
    /// vectors' allocations and the cumulative spill telemetry — one
    /// buffer can serve a whole stream of map tasks without reallocating
    /// per task. (To *emit* the remainder instead, use
    /// [`flush`](Self::flush).)
    pub fn reset(&mut self) {
        for b in &mut self.buffered_bytes {
            *b = 0;
        }
        for r in &mut self.buffered_records {
            r.clear();
        }
    }

    /// Flush every non-empty partition (map task end).
    pub fn flush(&mut self) -> Vec<Spill<P>> {
        let mut out = Vec::new();
        for p in 0..self.partitions {
            if self.buffered_bytes[p] > 0 || !self.buffered_records[p].is_empty() {
                out.push(self.spill(p));
            }
        }
        out
    }

    /// Total bytes spilled so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Number of spill events so far.
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Bytes currently buffered (unspilled).
    pub fn buffered(&self) -> u64 {
        self.buffered_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_at_threshold() {
        let mut b: SpillBuffer<()> = SpillBuffer::new(4, 100);
        let key = HashKey::from_unit(0.1); // partition 0
        assert!(b.push(key, 60, None).is_none());
        let spill = b.push(key, 60, None).expect("crossed threshold");
        assert_eq!(spill.partition, 0);
        assert_eq!(spill.bytes, 120);
        assert_eq!(b.buffered(), 0);
        assert_eq!(b.spilled_bytes(), 120);
        assert_eq!(b.spill_count(), 1);
    }

    #[test]
    fn partitions_are_independent() {
        let mut b: SpillBuffer<()> = SpillBuffer::new(2, 100);
        b.push(HashKey::from_unit(0.1), 90, None); // partition 0
        b.push(HashKey::from_unit(0.9), 90, None); // partition 1
        assert_eq!(b.buffered(), 180);
        let spill = b.push(HashKey::from_unit(0.1), 20, None).unwrap();
        assert_eq!(spill.partition, 0);
        assert_eq!(b.buffered(), 90, "partition 1 untouched");
    }

    #[test]
    fn partition_of_covers_all() {
        let b: SpillBuffer<()> = SpillBuffer::new(7, 100);
        let mut seen = vec![false; 7];
        for i in 0..1000u64 {
            let p = b.partition_of(HashKey::of_name(&format!("k{i}")));
            assert!(p < 7);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        // Boundary keys.
        assert_eq!(b.partition_of(HashKey(0)), 0);
        assert_eq!(b.partition_of(HashKey(u64::MAX)), 6);
    }

    #[test]
    fn flush_emits_remainders() {
        let mut b: SpillBuffer<u32> = SpillBuffer::new(3, 1000);
        b.push(HashKey::from_unit(0.1), 10, Some(1));
        b.push(HashKey::from_unit(0.5), 20, Some(2));
        let spills = b.flush();
        assert_eq!(spills.len(), 2);
        let total: u64 = spills.iter().map(|s| s.bytes).sum();
        assert_eq!(total, 30);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn records_travel_with_spills() {
        let mut b: SpillBuffer<&str> = SpillBuffer::new(1, 10);
        b.push(HashKey(0), 5, Some("a"));
        let spill = b.push(HashKey(1), 6, Some("b")).unwrap();
        assert_eq!(spill.records, vec!["a", "b"]);
    }

    #[test]
    fn reset_reuses_buffer_across_tasks() {
        let mut b: SpillBuffer<u32> = SpillBuffer::new(2, 1000);
        b.push(HashKey::from_unit(0.1), 600, Some(1));
        b.push(HashKey::from_unit(0.9), 700, Some(2));
        assert_eq!(b.buffered(), 1300);
        b.reset();
        assert_eq!(b.buffered(), 0, "reset drops buffered bytes");
        assert!(b.flush().is_empty(), "reset drops buffered records");
        // Telemetry survives a reset; the buffer is immediately reusable.
        b.push(HashKey::from_unit(0.1), 1200, Some(3)).expect("spills again");
        assert_eq!(b.spill_count(), 1);
        assert_eq!(b.spilled_bytes(), 1200);
    }

    #[test]
    fn paper_spill_sizing() {
        // 128 MB of sort intermediate data with 32 MB buffers over 64
        // partitions: each partition buffers 2 MB, nothing spills until
        // flush — matching the paper's description that spills are
        // per-range 32 MB chunks only when a range accumulates enough.
        let mut b: SpillBuffer<()> = SpillBuffer::new(64, 32 * 1024 * 1024);
        for i in 0..1024u64 {
            let key = HashKey::of_name(&format!("rec{i}"));
            b.push(key, 128 * 1024, None);
        }
        assert_eq!(b.spilled_bytes() + b.buffered(), 128 * 1024 * 1024);
    }
}
