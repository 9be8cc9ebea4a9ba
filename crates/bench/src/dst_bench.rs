//! Seed-sweep reporting for the DST harness (`eclipse_core::dst`).
//!
//! The `dst_bench` binary runs a contiguous range of seeds through
//! [`sweep`](eclipse_core::dst::sweep) at a chosen preset (full
//! randomized sweeps: `dst_bench --runs 1000 --preset chaos`; the
//! smoke steps in `scripts/tier1.sh` write their summaries to the
//! untracked `target/dst_smoke.json` and `target/dst_chaos_smoke.json`)
//! and renders the result here. Every run is oracle-checked; a failure
//! is carried in the summary together with its replayable seed line
//! rather than panicking the sweep, so one bad seed still leaves a
//! complete report behind.

use eclipse_core::dst::{repro_line, DstPreset, DstSweep};

/// One sweep's result: the aggregate counters plus wall-clock.
#[derive(Clone, Debug)]
pub struct SweepResult {
    pub preset: DstPreset,
    pub seed0: u64,
    pub sweep: DstSweep,
    pub secs: f64,
}

/// Render a sweep as the JSON summary `dst_bench --out` writes: the
/// counters, then every allowed error and every failure with its seed
/// and replay line.
pub fn to_json(r: &SweepResult) -> String {
    let s = &r.sweep;
    let mut json = String::from("{\n  \"bench\": \"dst_sweep\",\n");
    json.push_str(&format!(
        "  \"preset\": \"{}\",\n  \"seed0\": {},\n  \"runs\": {},\n  \"matches\": {},\n  \
         \"allowed_errors\": {},\n  \"faults_injected\": {},\n  \"oracle_checks\": {},\n  \
         \"secs\": {:.3},\n",
        r.preset,
        r.seed0,
        s.runs,
        s.matches,
        s.allowed.len(),
        s.faults_injected,
        s.oracle_checks,
        r.secs
    ));
    let allowed: Vec<(u64, String)> = s
        .allowed
        .iter()
        .map(|(seed, kind, reason)| {
            (*seed, format!("\"seed\": {seed}, \"kind\": \"{kind}\", \"reason\": {reason:?}"))
        })
        .collect();
    push_list(&mut json, "allowed", r.preset, &allowed, ",");
    let failures: Vec<(u64, String)> = s
        .failures
        .iter()
        .map(|(seed, reason)| (*seed, format!("\"seed\": {seed}, \"reason\": {reason:?}")))
        .collect();
    push_list(&mut json, "failures", r.preset, &failures, "");
    json.push_str("}\n");
    json
}

/// Append `"name": [...]`: one object per `(seed, fields)`, each
/// with the seed's replay line, then `after`.
fn push_list(json: &mut String, name: &str, preset: DstPreset, items: &[(u64, String)], after: &str) {
    json.push_str(&format!("  \"{name}\": [\n"));
    for (i, (seed, fields)) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{{fields}, \"replay\": {:?}}}{comma}\n",
            repro_line(*seed, preset)
        ));
    }
    json.push_str(&format!("  ]{after}\n"));
}
