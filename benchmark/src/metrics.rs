//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! carries the same table for the driver; a test below keeps the two
//! in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression. End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

pub const WORKLOADS: [&str; 4] = ["wc_warm", "invidx_tcp_cold", "storm_pool", "epoch_ingest"];

/// What a user of the system sees. Bounds were frozen from measured
/// A/A spread (see README "Bounds"): each is at least 2.2 times the
/// widest inter-quartile spread seen on any workload in three sets of
/// ten seeds, and at least 4 times the widest shift between the medians
/// of two such sets of the same build.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("records_per_s", "records/s", Better::Higher, 0.20),
    e2e("op_p50_ms", "ms", Better::Lower, 0.20),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_s_per_mrec", "s/Mrec", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// One number per layer boundary; no bounds — they explain, they do
/// not gate. A metric that does not apply to a workload reads 0 there
/// (the README table says which).
pub const PER_LAYER: [MetricDef; 38] = [
    layer("apps.map_ns_per_record", "ns", Lower),
    layer("apps.map_out_bytes_per_record", "B", Lower),
    layer("apps.combine_ns_per_record", "ns", Lower),
    layer("apps.reduce_ns_per_key", "ns", Lower),
    layer("core.spill_push_ns_per_record", "ns", Lower),
    layer("core.spills_per_op", "count", Lower),
    layer("core.job_fixed_ms", "ms", Lower),
    layer("core.cpu_utilisation", "ratio", Higher),
    layer("core.unattributed_share", "ratio", Lower),
    layer("server.job_fixed_ms", "ms", Lower),
    layer("server.jobs_per_s", "1/s", Higher),
    layer("server.small_p99_ms", "ms", Lower),
    layer("server.scan_p50_ms", "ms", Lower),
    layer("epoch.records_folded_per_op", "count", Lower),
    layer("epoch.cached_ratio", "ratio", Higher),
    layer("epoch.drift_ratio", "ratio", Lower),
    layer("epoch.snapshot_get_us", "us", Lower),
    layer("net.encode_ns_per_record", "ns", Lower),
    layer("net.decode_ns_per_record", "ns", Lower),
    layer("net.call_rtt_us", "us", Lower),
    layer("net.bytes_sent_per_record", "B", Lower),
    layer("net.shuffle_bytes_per_record", "B", Lower),
    layer("net.rpcs_per_op", "count", Lower),
    layer("net.rpc_retries_per_op", "count", Lower),
    layer("net.timeouts_per_op", "count", Lower),
    layer("dhtfs.upload_mb_per_s", "MiB/s", Higher),
    layer("dhtfs.block_get_ns", "ns", Lower),
    layer("dhtfs.remote_reads_per_op", "count", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.ocache_put_us", "us", Lower),
    layer("cache.ocache_get_us", "us", Lower),
    layer("sched.laf_assign_ns", "ns", Lower),
    layer("sched.task_imbalance", "ratio", Lower),
    layer("sched.steals_per_op", "count", Lower),
    layer("ring.lookup_ns", "ns", Lower),
    layer("util.hashkey_ns", "ns", Lower),
    layer("baseline.single_thread_records_per_s", "records/s", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` lives one level above this package. It is
    /// absent when the package is checked on its own; then there is
    /// nothing to compare.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (got, want) in listed.iter().zip(table) {
                let field = |f: &str| got.get(f).and_then(Json::as_str).map(str::to_string);
                assert_eq!(field("name").as_deref(), Some(want.name));
                assert_eq!(field("unit").as_deref(), Some(want.unit), "{}", want.name);
                assert_eq!(field("better").as_deref(), Some(want.better.as_str()), "{}", want.name);
                if key == "end_to_end" {
                    assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
                }
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{} [{}]", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS {
            assert!(ok_name(w) && seen.insert(w));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
    }
}
