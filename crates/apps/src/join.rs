//! Reduce-side equi-join — the classic two-input MapReduce pattern, and
//! the kind of "sub-expression commonality across multiple queries" the
//! paper's introduction motivates caching for: joining the same tables
//! repeatedly reuses their cached blocks.
//!
//! Inputs are tab-separated `key\tvalue` tables; the mapper tags each
//! record with its side, the reducer cross-products matching keys.

use eclipse_core::{LiveCluster, LiveStats, MapReduce, ReusePolicy};

/// Two-table equi-join.
pub struct EquiJoin;

impl MapReduce for EquiJoin {
    fn map(&self, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        // Single-input fallback: treat everything as the left side.
        self.map_tagged(0, block, emit);
    }

    fn map_tagged(&self, source: usize, block: &[u8], emit: &mut dyn FnMut(String, String)) {
        let side = if source == 0 { 'L' } else { 'R' };
        for line in String::from_utf8_lossy(block).lines() {
            if let Some((k, v)) = line.split_once('\t') {
                emit(k.to_string(), format!("{side}:{v}"));
            }
        }
    }

    fn reduce(&self, key: &str, values: &[String], emit: &mut dyn FnMut(String, String)) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for v in values {
            match v.split_once(':') {
                Some(("L", val)) => left.push(val),
                Some(("R", val)) => right.push(val),
                _ => {}
            }
        }
        for l in &left {
            for r in &right {
                emit(key.to_string(), format!("{l}\t{r}"));
            }
        }
    }
}

/// Join two uploaded tables on their first column; returns
/// `(key, "left_value\tright_value")` rows for every matching pair.
pub fn run_equijoin(
    cluster: &LiveCluster,
    left: &str,
    right: &str,
    user: &str,
    reducers: usize,
) -> Vec<(String, String)> {
    join_tables(cluster, &[left, right], user, reducers).0
}

/// The join as one multi-input job: both tables mapped into one
/// shuffle, the per-partition output flattened into sorted rows.
fn join_tables(
    cluster: &LiveCluster,
    tables: &[&str],
    user: &str,
    reducers: usize,
) -> (Vec<(String, String)>, LiveStats) {
    let (parts, stats) = cluster
        .try_run_job_inputs_partitioned(&EquiJoin, tables, user, reducers, ReusePolicy::default())
        .expect("join job failed");
    let mut rows: Vec<(String, String)> = parts.into_iter().flatten().collect();
    rows.sort();
    (rows, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_core::LiveConfig;
    use std::collections::BTreeSet;

    fn table(rows: &[(&str, &str)]) -> String {
        rows.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect()
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let left: Vec<(String, String)> =
            (0..120).map(|i| (format!("k{:03}", i % 40), format!("l{i}"))).collect();
        let right: Vec<(String, String)> =
            (0..80).map(|i| (format!("k{:03}", i % 50), format!("r{i}"))).collect();
        let left_rows: Vec<(&str, &str)> =
            left.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let right_rows: Vec<(&str, &str)> =
            right.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();

        let c = LiveCluster::new(LiveConfig::small().with_block_size(8192));
        c.upload("left", "t", table(&left_rows).as_bytes());
        c.upload("right", "t", table(&right_rows).as_bytes());
        let joined = run_equijoin(&c, "left", "right", "t", 4);

        // Reference nested-loop join.
        let mut expected = BTreeSet::new();
        for (lk, lv) in &left {
            for (rk, rv) in &right {
                if lk == rk {
                    expected.insert((lk.clone(), format!("{lv}\t{rv}")));
                }
            }
        }
        let got: BTreeSet<(String, String)> = joined.into_iter().collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn disjoint_keys_join_empty() {
        let c = LiveCluster::new(LiveConfig::small().with_block_size(8192));
        c.upload("left", "t", table(&[("a", "1"), ("b", "2")]).as_bytes());
        c.upload("right", "t", table(&[("x", "9"), ("y", "8")]).as_bytes());
        assert!(run_equijoin(&c, "left", "right", "t", 2).is_empty());
    }

    #[test]
    fn repeat_join_hits_cached_tables() {
        let rows: Vec<(String, String)> =
            (0..200).map(|i| (format!("k{i}"), format!("v{i}"))).collect();
        let row_refs: Vec<(&str, &str)> =
            rows.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let c = LiveCluster::new(LiveConfig::small().with_block_size(512));
        c.upload("dim", "t", table(&row_refs).as_bytes());
        c.upload("fact", "t", table(&row_refs).as_bytes());
        let (first, s1) = join_tables(&c, &["dim", "fact"], "t", 3);
        let (second, s2) = join_tables(&c, &["dim", "fact"], "t", 3);
        assert_eq!(first, second);
        assert_eq!(s1.cache_hits, 0);
        assert!(
            s2.cache_hits > s2.cache_misses,
            "repeat join should ride the iCache: {} hits {} misses",
            s2.cache_hits,
            s2.cache_misses
        );
    }
}
