//! DST smoke tests: fixed seed lists through the seeded chaos harness.
//!
//! The full randomized sweep lives behind `dst_bench --runs N`; what
//! runs here is small and fixed so `cargo test` stays fast and
//! deterministic. `replay_env_seed` is the repro entry point printed
//! by a failing sweep:
//!
//! ```text
//! DST_SEED=1234 DST_PRESET=chaos cargo test -p eclipse-integration-tests \
//!     --test dst replay_env_seed -- --nocapture
//! ```

use eclipse_core::dst::{run_seed, sweep, DstPreset, Verdict};

/// Calm schedules are benign by construction, so every calm seed must
/// end byte-identical — an allowed error here is a harness bug, a
/// failed oracle an executor bug.
#[test]
fn calm_fixed_seeds_are_byte_identical() {
    for seed in [0u64, 3, 7, 11, 19, 23] {
        let r = run_seed(seed, DstPreset::Calm);
        assert_eq!(
            r.verdict,
            Verdict::Match,
            "calm seed {seed} diverged (schedule {:?})",
            r.schedule
        );
    }
}

/// A bounded moderate sweep over a fixed seed range: crashes,
/// partitions, and drop bursts compose with randomized workloads, and
/// every run satisfies the oracle.
#[test]
fn moderate_fixed_seed_sweep_passes_oracle() {
    let s = sweep(1, 25, DstPreset::Moderate, |_| {});
    assert_eq!(s.runs, 25);
    assert!(
        s.failures.is_empty(),
        "moderate sweep failed seeds: {:?}",
        s.failures
    );
    assert!(s.faults_injected > 0, "the sweep never injected a fault");
    assert!(s.oracle_checks >= s.runs, "every run checks the oracle at least once");
}

/// A few chaos-preset seeds, including ones that end in allowed typed
/// errors — the error must come from the allowed set, never a wrong
/// result.
#[test]
fn chaos_fixed_seeds_pass_oracle() {
    for seed in [2u64, 5, 13, 17] {
        let r = run_seed(seed, DstPreset::Chaos);
        assert!(
            r.passed(),
            "chaos seed {seed} violated the oracle: {:?}",
            r.verdict
        );
    }
}

/// Replay entry point for repro lines printed by failing sweeps. A
/// no-op unless `DST_SEED` is set; `DST_PRESET` defaults to `chaos`.
#[test]
fn replay_env_seed() {
    let seed: u64 = match std::env::var("DST_SEED") {
        Ok(s) => s.parse().expect("DST_SEED must be a u64"),
        Err(_) => return,
    };
    let preset: DstPreset = std::env::var("DST_PRESET")
        .unwrap_or_else(|_| "chaos".into())
        .parse()
        .expect("DST_PRESET must be calm|moderate|chaos");
    let r = run_seed(seed, preset);
    println!(
        "seed={seed} preset={preset}\n  workload: {:?}\n  schedule: {:?}\n  \
         faults_injected={} oracle_checks={}\n  verdict: {:?}",
        r.workload, r.schedule, r.faults_injected, r.oracle_checks, r.verdict
    );
    assert!(r.passed(), "seed {seed} preset {preset} fails: {:?}", r.verdict);
}
