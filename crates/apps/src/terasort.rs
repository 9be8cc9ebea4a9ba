//! TeraSort-style distributed sort: a sampling pass picks range
//! boundaries, then the sort job range-partitions records so that
//! partition order **is** global sort order — no final merge needed.
//!
//! This is the classic refinement of the paper's `sort` benchmark; the
//! engine hook it exercises (`MapReduce::partition`) is the same one any
//! range-partitioned application would use.

use eclipse_core::{LiveCluster, MapReduce, ReusePolicy};

/// Sampling round: every `rate`-th record is emitted under one key, and
/// the reducer picks `parts - 1` evenly spaced quantile boundaries.
struct SampleKeys {
    rate: usize,
    parts: usize,
}

impl MapReduce for SampleKeys {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        for (i, line) in String::from_utf8_lossy(block).lines().enumerate() {
            if i % self.rate == 0 && !line.is_empty() {
                emit("sample".to_string(), line.to_string());
            }
        }
    }

    fn reduce(&self, _key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        let mut sample: Vec<&String> = values.iter().collect();
        sample.sort();
        for b in 1..self.parts {
            let idx = b * sample.len() / self.parts;
            if idx < sample.len() {
                emit(format!("{b:04}"), sample[idx].clone());
            }
        }
    }
}

/// The sort round: identity map, range partitioner from the sampled
/// boundaries.
struct RangeSort {
    /// `parts - 1` ascending boundaries; partition = # boundaries ≤ key.
    boundaries: Vec<String>,
}

impl MapReduce for RangeSort {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        for line in String::from_utf8_lossy(block).lines() {
            if !line.is_empty() {
                emit(line.to_string(), String::new());
            }
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        for _ in values {
            emit(key.to_string(), String::new());
        }
    }

    fn partition(&self, key: &str, partitions: usize) -> Option<usize> {
        let p = self.boundaries.partition_point(|b| b.as_str() <= key);
        Some(p.min(partitions - 1))
    }
}

/// Result of a TeraSort run.
#[derive(Clone, Debug)]
pub struct TeraSortResult {
    /// Records in global sorted order (partition concatenation — no
    /// final merge was performed).
    pub records: Vec<String>,
    /// Records per partition (the balance the sampler achieved).
    pub partition_sizes: Vec<usize>,
}

/// Sort the newline-separated records of `input` with `reducers`-way
/// range partitioning, sampling every `sample_rate`-th record.
pub fn run_terasort(
    cluster: &LiveCluster,
    input: &str,
    user: &str,
    reducers: usize,
    sample_rate: usize,
) -> TeraSortResult {
    assert!(reducers > 0);
    // Phase 1: sample the key distribution.
    let sampler = SampleKeys { rate: sample_rate.max(1), parts: reducers };
    let (sample_out, _) = cluster.run_job(&sampler, input, user, 1, ReusePolicy::default());
    let mut boundaries: Vec<(String, String)> = sample_out;
    boundaries.sort();
    let boundaries: Vec<String> = boundaries.into_iter().map(|(_, v)| v).collect();

    // Phase 2: range-partitioned sort. Partition p's reducer output is
    // already key-sorted; concatenation is the global order.
    let sorter = RangeSort { boundaries };
    let (parts, _) = cluster
        .try_run_job_inputs_partitioned(&sorter, &[input], user, reducers, ReusePolicy::default())
        .expect("sort job failed");
    let partition_sizes: Vec<usize> =
        parts.iter().map(|p| p.iter().map(|(_, _)| 1).sum()).collect();
    let records: Vec<String> =
        parts.into_iter().flatten().map(|(k, _)| k).collect();
    TeraSortResult { records, partition_sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_core::LiveConfig;
    use rand::{RngExt, SeedableRng};

    fn random_records(n: usize, seed: u64) -> String {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = String::new();
        for _ in 0..n {
            s.push_str(&format!("{:010}\n", rng.random_range(0u64..10_000_000)));
        }
        s
    }

    #[test]
    fn concatenated_partitions_are_globally_sorted() {
        let data = random_records(2000, 5);
        let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
        c.upload("records", "t", data.as_bytes());
        let result = run_terasort(&c, "records", "t", 6, 10);
        // Global order without any final merge.
        assert!(
            result.records.windows(2).all(|w| w[0] <= w[1]),
            "concatenation not sorted"
        );
        // Nothing lost beyond block-boundary splits.
        assert!(result.records.len() >= 1990, "{} records", result.records.len());
    }

    #[test]
    fn sampling_balances_partitions() {
        let data = random_records(3000, 9);
        let c = LiveCluster::new(LiveConfig::small().with_block_size(8192));
        c.upload("records", "t", data.as_bytes());
        let result = run_terasort(&c, "records", "t", 5, 7);
        let total: usize = result.partition_sizes.iter().sum();
        let mean = total / 5;
        for (i, &size) in result.partition_sizes.iter().enumerate() {
            assert!(
                size > mean / 3 && size < mean * 3,
                "partition {i} holds {size} of {total}"
            );
        }
    }

    #[test]
    fn handles_skewed_keys() {
        // Heavy duplication: half the records share one key.
        let mut data = String::new();
        for i in 0..1000 {
            if i % 2 == 0 {
                data.push_str("5000000000\n");
            } else {
                data.push_str(&format!("{:010}\n", i * 977));
            }
        }
        let c = LiveCluster::new(LiveConfig::small().with_block_size(4096));
        c.upload("records", "t", data.as_bytes());
        let result = run_terasort(&c, "records", "t", 4, 5);
        assert!(result.records.windows(2).all(|w| w[0] <= w[1]));
        let dups = result.records.iter().filter(|r| *r == "5000000000").count();
        assert!(dups >= 495, "duplicates lost: {dups}");
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let data = random_records(200, 1);
        let c = LiveCluster::new(LiveConfig::small().with_block_size(8192));
        c.upload("records", "t", data.as_bytes());
        let result = run_terasort(&c, "records", "t", 1, 3);
        assert!(result.records.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(result.partition_sizes.len(), 1);
    }
}
