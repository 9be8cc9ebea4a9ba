//! Seed-sweep driver for the DST harness (`eclipse_core::dst`).
//!
//! Runs a contiguous range of seeds through [`run_seed`] at a chosen
//! preset and aggregates the results. Shared by the `dst_bench` binary
//! (full randomized sweeps: `dst_bench --runs 1000 --preset chaos`)
//! and the bounded smoke step in `scripts/tier1.sh` (fixed seed list,
//! `moderate` preset, summary to the untracked `target/dst_smoke.json`). Every run
//! is oracle-checked; a failure is carried in the summary together
//! with its replayable seed line rather than panicking the sweep, so
//! one bad seed still leaves a complete report behind.

use eclipse_core::dst::{repro_line, run_seed, DstPreset, DstSweep, Verdict};
use std::time::Instant;

/// One sweep's result: the aggregate counters plus wall-clock.
#[derive(Clone, Debug)]
pub struct SweepResult {
    pub preset: DstPreset,
    pub seed0: u64,
    pub sweep: DstSweep,
    pub secs: f64,
}

/// Run `runs` consecutive seeds starting at `seed0`, printing progress
/// every `chunk` seeds (0 disables progress output).
pub fn sweep_range(seed0: u64, runs: u64, preset: DstPreset, chunk: u64) -> SweepResult {
    let t = Instant::now();
    let mut agg = DstSweep::default();
    for seed in seed0..seed0 + runs {
        let r = run_seed(seed, preset);
        agg.runs += 1;
        agg.faults_injected += r.faults_injected;
        agg.oracle_checks += r.oracle_checks;
        match r.verdict {
            Verdict::Match => agg.matches += 1,
            Verdict::AllowedError(_) => agg.allowed_errors += 1,
            Verdict::Fail { reason, .. } => agg.failures.push((r.seed, reason)),
        }
        if chunk > 0 && agg.runs % chunk == 0 {
            eprintln!(
                "dst[{preset}] {}/{runs} seeds, {} match, {} allowed, {} FAIL, {} faults, {} checks",
                agg.runs, agg.matches, agg.allowed_errors, agg.failures.len(),
                agg.faults_injected, agg.oracle_checks
            );
        }
    }
    SweepResult { preset, seed0, sweep: agg, secs: t.elapsed().as_secs_f64() }
}

/// Render a sweep as the JSON summary `dst_bench --out` writes.
pub fn to_json(r: &SweepResult) -> String {
    let s = &r.sweep;
    let mut json = String::from("{\n  \"bench\": \"dst_sweep\",\n");
    json.push_str(&format!(
        "  \"preset\": \"{}\",\n  \"seed0\": {},\n  \"runs\": {},\n  \"matches\": {},\n  \
         \"allowed_errors\": {},\n  \"faults_injected\": {},\n  \"oracle_checks\": {},\n  \
         \"secs\": {:.3},\n  \"failures\": [\n",
        r.preset, r.seed0, s.runs, s.matches, s.allowed_errors, s.faults_injected,
        s.oracle_checks, r.secs
    ));
    for (i, (seed, reason)) in s.failures.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"seed\": {seed}, \"reason\": {:?}, \"replay\": {:?}}}{}\n",
            reason,
            repro_line(*seed, r.preset),
            if i + 1 < s.failures.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}
