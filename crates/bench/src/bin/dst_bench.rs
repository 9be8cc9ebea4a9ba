//! Randomized DST seed sweeps: `dst_bench [--runs N] [--seed0 S]
//! [--preset calm|moderate|chaos] [--out PATH]`.
//!
//! Each seed samples a workload and a fault schedule, runs the job
//! under fault injection, and checks the oracle (byte-identical output
//! or a typed allowed error, plus `LiveStats` invariants). Failures
//! print a one-line replayable repro; they and the seeds that ended in
//! an allowed error, with its kind, are recorded with their replay
//! lines in the JSON summary (default `target/dst_sweep.json`), and the
//! progress and summary lines tally the allowed errors by kind.
//! `scripts/tier1.sh` runs 1,000 seeds of each of the moderate and
//! chaos presets (`--runs 1000 --seed0 1`); the acceptance sweep is
//! `dst_bench --runs 1000 --preset chaos`.

use eclipse_bench::dst_bench::{to_json, SweepResult};
use eclipse_core::dst::{repro_line, sweep, DstPreset};
use std::time::Instant;

fn main() {
    let mut runs: u64 = 50;
    let mut seed0: u64 = 1;
    let mut preset = DstPreset::Moderate;
    let mut out = String::from("target/dst_sweep.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => runs = args.next().expect("--runs needs N").parse().expect("N"),
            "--seed0" => seed0 = args.next().expect("--seed0 needs S").parse().expect("S"),
            "--preset" => {
                preset = args.next().expect("--preset needs a name").parse().unwrap()
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown arg {other:?} (expected --runs N / --seed0 S / --preset P / --out PATH)"
            ),
        }
    }

    let t = Instant::now();
    let chunk = (runs / 10).max(10);
    let sweep = sweep(seed0, runs, preset, |agg| {
        if agg.runs % chunk == 0 {
            eprintln!(
                "dst[{preset}] {}/{runs} seeds, {} match, {} allowed ({}), {} FAIL, {} faults, \
                 {} checks",
                agg.runs,
                agg.matches,
                agg.allowed.len(),
                agg.allowed_by_kind(),
                agg.failures.len(),
                agg.faults_injected,
                agg.oracle_checks
            );
        }
    });
    let r = SweepResult { preset, seed0, sweep, secs: t.elapsed().as_secs_f64() };
    let json = to_json(&r);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, &json).expect("write the sweep summary");

    let s = &r.sweep;
    println!(
        "preset={preset} seeds={seed0}..{} runs={} matches={} allowed_errors={} ({}) \
         faults_injected={} oracle_checks={} secs={:.2}",
        seed0 + runs - 1,
        s.runs,
        s.matches,
        s.allowed.len(),
        s.allowed_by_kind(),
        s.faults_injected,
        s.oracle_checks,
        r.secs
    );
    for (seed, reason) in &s.failures {
        println!("FAIL seed={seed}: {reason}\n  replay: {}", repro_line(*seed, preset));
    }
    println!("wrote {out}");
    if !s.failures.is_empty() {
        std::process::exit(1);
    }
}
