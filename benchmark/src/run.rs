//! One run of one workload in this process: set-up (repeated, median
//! reported), a closed-loop measured phase of `--seconds`, the oracle
//! on every op, and — on a traced run — spans around every call into
//! the system plus the per-layer probes.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{median, percentile, sorted, Summary};
use crate::sut::{AppProbe, Counters};
use crate::trace::{chrome_trace, self_time_by_name, Tr, Tracer};
use crate::workloads::{self, Class, Op, Status, Workload, REDUCERS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A twentieth of the run length and a single set-up: same code
    /// paths, oracle on, not for quoting numbers.
    pub smoke: bool,
    /// Flip one byte of every reference: the run must then fail.
    pub corrupt_reference: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer
    /// metric (traced run), in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Sample counts, quartiles, op counts: what the result file keeps
    /// beyond the contract line.
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's last line of standard output.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| {
                    (m.name, Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]))
                })),
            ),
        ])
    }
}

/// How many times set-up is repeated so `setup_s` is a median.
const SETUPS: usize = 5;
/// Share of a traced run's `--seconds` spent in the op loop; the rest
/// is the probes' budget.
const TRACED_LOOP_SHARE: f64 = 0.6;

/// Where run by-products (traces, result files) go: under the
/// package, in a directory the root `.gitignore` names.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results").join("out")
}

struct Phase {
    ops: Vec<(Op, bool)>,
    wall_s: f64,
    cpu_s: f64,
    shuffle_bytes: u64,
}

/// Closed loop: every client issues its next op when the previous one
/// returns, until the deadline. On a traced run odd ops record spans
/// and even ops do not, so both populations see the same state (an
/// epoch stream's grows with every commit) and comparing them gives
/// the overhead of tracing.
fn measure(w: &dyn Workload, seconds: f64, traced: bool, tr: Tr) -> Phase {
    let shuffle_before = w.sut().shuffle_plane_bytes();
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let ops: Vec<(Op, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients())
            .map(|client| {
                let root = tr.for_client(client);
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let on = traced && i % 2 == 1;
                        let op_id = (client as u64) << 32 | i;
                        let op = root.for_op(op_id, on).span("op", |tr| w.op(client, i, tr));
                        ops.push((op, on));
                        i += 1;
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    Phase {
        ops,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_seconds() - cpu_before,
        shuffle_bytes: w.sut().shuffle_plane_bytes() - shuffle_before,
    }
}

fn ms_of(ops: &[(Op, bool)], keep: impl Fn(&Op, bool) -> bool) -> Vec<f64> {
    ops.iter()
        .filter(|(op, on)| op.status != Status::Failed && keep(op, *on))
        .map(|(op, _)| op.secs * 1e3)
        .collect()
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let tr = tracer.handle(args.trace, 0);
    let seconds = if args.smoke { (args.seconds / 20.0).max(0.5) } else { args.seconds };
    let setups = if args.smoke || args.trace { 1 } else { SETUPS };

    // Set-up: input generation, cluster build, upload, warm-up —
    // everything before the first timed op.
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let w = tr.span("setup", |tr| workloads::setup(&args.workload, args.seed, tr));
        setup_s.push(t.elapsed().as_secs_f64());
        w
    };
    let mut w = timed_setup();

    let t = Instant::now();
    let reference_records = tr.span("harness.reference", |_| w.prepare(args.corrupt_reference));
    let reference_s = t.elapsed().as_secs_f64();

    let loop_s = if args.trace { seconds * TRACED_LOOP_SHARE } else { seconds };
    let phase = tr.span("measure", |tr| measure(&*w, loop_s, args.trace, tr));
    let finished_ok = w.finish();
    let peak_rss_mib = procfs::peak_rss_mib();

    // The end-of-run check counts as one more op.
    let attempted = phase.ops.len() as u64 + 1;
    let failed = phase.ops.iter().filter(|(op, _)| op.status != Status::Correct).count() as u64
        + u64::from(!finished_ok);
    let op_ms = ms_of(&phase.ops, |op, _| op.class == Class::Sampled);
    let Some(op_summary) = Summary::of(&op_ms) else {
        return Err(format!("no sampled op of {} completed in {loop_s} s", args.workload));
    };
    let records: u64 = phase
        .ops
        .iter()
        .filter(|(op, _)| op.status != Status::Failed)
        .map(|(op, _)| op.records)
        .sum();

    let mut detail = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(args.trace)),
        ("ops", Json::Num(phase.ops.len() as f64)),
        ("sampled_ops", Json::Num(op_ms.len() as f64)),
        ("records", Json::Num(records as f64)),
        ("measured_wall_s", Json::Num(phase.wall_s)),
        ("measured_cpu_s", Json::Num(phase.cpu_s)),
        ("op_ms", op_summary.to_json()),
    ];

    let values: Vec<(&str, f64)> = if args.trace {
        for (key, on) in [("op_ms_traced", true), ("op_ms_untraced", false)] {
            let ms = ms_of(&phase.ops, |op, o| op.class == Class::Sampled && o == on);
            detail.push((key, Summary::of(&ms).map_or(Json::Null, |s| s.to_json())));
        }
        let layers = per_layer(&*w, &phase, seconds, reference_records, reference_s, tr);
        write_trace(&tracer, &args.workload, &mut detail);
        layers
    } else {
        // Set-up again, from scratch, so `setup_s` is a median. After the
        // measurement, not before it: repeated set-ups leave the heap in
        // a state that varies from run to run and would blur peak RSS.
        drop(w);
        for _ in 1..setups {
            drop(timed_setup());
        }
        let mrec = records as f64 / 1e6;
        vec![
            ("records_per_s", records as f64 / phase.wall_s),
            ("op_p50_ms", op_summary.p50),
            ("op_p90_ms", op_summary.p90),
            ("cpu_s_per_mrec", phase.cpu_s / mrec),
            ("peak_rss_mb", peak_rss_mib),
            ("setup_s", median(&setup_s)),
        ]
    };
    detail.push(("setup_s_samples", Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect())));
    let table: &'static [MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(values.len(), table.len(), "one value per metric");
    let metrics = table
        .iter()
        .map(|m| {
            let (_, v) = values.iter().find(|(n, _)| *n == m.name).expect("every metric computed");
            (m, *v)
        })
        .collect();
    Ok(RunResult { attempted, failed, metrics, detail: Json::obj(detail) })
}

/// Write the spans as a Chrome trace and summarise self time per span
/// name. A trace that cannot be written is reported, not fatal: the
/// numbers do not depend on the file.
fn write_trace(tracer: &Tracer, workload: &str, detail: &mut Vec<(&'static str, Json)>) {
    let spans = tracer.spans();
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, chrome_trace(&spans, workload).to_string()));
    match written {
        Ok(()) => detail.push(("trace_file", Json::str(path.display().to_string()))),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    detail.push(("spans", Json::Num(spans.len() as f64)));
    detail.push((
        "self_time_us",
        Json::obj(self_time_by_name(&spans).into_iter().map(|(name, us, n)| {
            (name, Json::obj([("total", Json::Num(us)), ("spans", Json::Num(n as f64))]))
        })),
    ));
}

/// How much a stream's commits slow down as its state grows: within
/// each stretch of sampled ops between two bulk ops (one stream's
/// life), the median of the last 30 ÷ the median of the first 30;
/// median over the stretches long enough to have both.
fn stream_drift(ops: &[(Op, bool)]) -> f64 {
    let ratios: Vec<f64> = ops
        .split(|(op, _)| op.class == Class::Bulk)
        .map(|life| ms_of(life, |op, _| op.class == Class::Sampled))
        .filter(|ms| ms.len() >= 60)
        .map(|ms| median(&ms[ms.len() - 30..]) / median(&ms[..30]))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    }
}

/// Every per-layer metric, by name. Counters come from
/// all ops of the traced phase; probes run afterwards, single-threaded,
/// on the same cluster.
fn per_layer(
    w: &dyn Workload,
    phase: &Phase,
    seconds: f64,
    reference_records: u64,
    reference_s: f64,
    tr: Tr,
) -> Vec<(&'static str, f64)> {
    let ok_ops =
        || phase.ops.iter().filter(|(op, _)| op.status != Status::Failed).map(|(op, _)| op);
    let mut c = Counters::default();
    ok_ops().for_each(|op| c.add(&op.counters));
    let jobs = c.jobs.max(1) as f64;
    let records: u64 = ok_ops().map(|op| op.records).sum();
    let per_record = |x: u64| x as f64 / records.max(1) as f64;
    let jobs_of = |class: Class| ok_ops().filter(|op| op.class == class).count() as f64;

    // --- probes ---------------------------------------------------
    let budget = Duration::from_secs_f64((seconds * (1.0 - TRACED_LOOP_SHARE) / 10.0).min(0.5));
    let sut = w.sut();
    let tr = tr.for_op(u64::MAX, true);
    let (file, size) = w.main_file();
    let block_get_ns =
        tr.span("probes.dhtfs", |tr| sut.probe_block_get_ns(&file, size, budget, tr));
    let app_probes: Vec<(Class, AppProbe, u64)> = tr.span("probes.apps", |tr| {
        w.probe_jobs()
            .into_iter()
            .map(|j| (j.class, sut.probe_app(&j.task, j.text, REDUCERS, tr), j.extra_reduce_keys))
            .collect()
    });
    // Weighted over the job classes by how often each ran and how many
    // units of that step one of its jobs has.
    let weighted = |value: &dyn Fn(&AppProbe) -> Option<f64>, units: &dyn Fn(&AppProbe) -> u64| {
        let (mut num, mut den) = (0.0, 0.0);
        for (class, p, _) in &app_probes {
            if let Some(v) = value(p) {
                let weight = jobs_of(*class) * units(p) as f64;
                num += v * weight;
                den += weight;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    };
    let attributed_ns: f64 = app_probes
        .iter()
        .map(|(class, p, extra_keys)| {
            jobs_of(*class)
                * (p.attributed_ns(block_get_ns) + *extra_keys as f64 * p.reduce_ns_per_key)
        })
        .sum();
    let (job_fixed_ms, server_job_fixed_ms, call_rtt_us) = tr.span("probes.fixed", |tr| {
        (
            sut.probe_job_fixed_ms(REDUCERS, budget, tr),
            sut.probe_server_job_fixed_ms(REDUCERS, budget, tr),
            sut.probe_call_rtt_us(budget, tr),
        )
    });
    let output_bytes: u64 =
        app_probes.iter().map(|(_, p, _)| p.emitted_bytes.min(8 << 20)).max().unwrap_or(0);
    let partition_bytes = (output_bytes / REDUCERS as u64).clamp(1024, 256 * 1024) as usize;
    let (ocache_put_us, ocache_get_us) =
        tr.span("probes.cache", |tr| sut.probe_ocache_us(partition_bytes, budget, tr));
    let [laf_assign_ns, ring_lookup_ns, hashkey_ns] =
        tr.span("probes.placement", |tr| sut.probe_placement_ns(&file, size, budget, tr));
    let upload_mib_per_s = tr.span("probes.upload", |tr| {
        sut.probe_upload_mib_per_s(w.upload_sample().as_bytes(), budget, tr)
    });
    let snapshot_get_us = tr.span("probes.epoch", |tr| w.snapshot_probe_us(budget, tr));
    let is_epoch = snapshot_get_us.is_some();

    // --- from the traced phase --------------------------------------
    // Overhead of tracing: odd ops were traced, even ops were not. The
    // lower quartiles are compared, not the medians: storm_pool's
    // latency is bimodal (a small job does or does not meet the other
    // tenant's scan) and its median hops between the modes from run to
    // run, while instrumentation cost shows in the uncontended mode.
    let lower_quartile = |on: bool| {
        let ms = sorted(&ms_of(&phase.ops, |op, o| op.class == Class::Sampled && o == on));
        (!ms.is_empty()).then(|| percentile(&ms, 0.25))
    };
    let overhead = match (lower_quartile(true), lower_quartile(false)) {
        (Some(traced), Some(untraced)) => traced / untraced,
        _ => 0.0,
    };
    let multi_tenant = w.clients() > 1;
    let class_ms = |class: Class| ms_of(&phase.ops, |op, _| op.class == class);
    let (small_p99, scan_p50) = if multi_tenant {
        let scan = class_ms(Class::Bulk);
        (
            percentile(&sorted(&class_ms(Class::Sampled)), 0.99),
            if scan.is_empty() { 0.0 } else { median(&scan) },
        )
    } else {
        (0.0, 0.0)
    };
    let drift = if is_epoch { stream_drift(&phase.ops) } else { 0.0 };
    // Delta commits only: a stream's base fold is not "an epoch".
    let mut commits = Counters::default();
    ok_ops().filter(|op| op.class == Class::Sampled).for_each(|op| commits.add(&op.counters));
    let n_commits = commits.jobs.max(1) as f64;
    let lookups = c.cache_hits + c.cache_misses;

    vec![
        ("apps.map_ns_per_record", weighted(&|p| Some(p.map_ns_per_line), &|p| p.lines)),
        (
            "apps.map_out_bytes_per_record",
            weighted(&|p| Some(p.emitted_bytes as f64 / p.lines.max(1) as f64), &|p| p.lines),
        ),
        ("apps.combine_ns_per_record", weighted(&|p| p.combine_ns_per_emit, &|p| p.emitted)),
        ("apps.reduce_ns_per_key", weighted(&|p| Some(p.reduce_ns_per_key), &|p| p.keys)),
        (
            "core.spill_push_ns_per_record",
            weighted(&|p| Some(p.spill_push_ns_per_emit), &|p| p.emitted),
        ),
        ("core.spills_per_op", c.spills as f64 / jobs),
        ("core.job_fixed_ms", job_fixed_ms),
        ("core.cpu_utilisation", phase.cpu_s / (phase.wall_s * procfs::nproc() as f64)),
        ("core.unattributed_share", 1.0 - attributed_ns / (phase.cpu_s * 1e9)),
        ("server.job_fixed_ms", server_job_fixed_ms),
        ("server.jobs_per_s", if multi_tenant { jobs / phase.wall_s } else { 0.0 }),
        ("server.small_p99_ms", small_p99),
        ("server.scan_p50_ms", scan_p50),
        (
            "epoch.records_folded_per_op",
            if is_epoch { commits.records_folded as f64 / n_commits } else { 0.0 },
        ),
        (
            "epoch.cached_ratio",
            if is_epoch { commits.cached_commits as f64 / n_commits } else { 0.0 },
        ),
        ("epoch.drift_ratio", drift),
        ("epoch.snapshot_get_us", snapshot_get_us.unwrap_or(0.0)),
        (
            "net.encode_ns_per_record",
            weighted(&|p| Some(p.encode_ns_per_shuffled), &|p| p.shuffled),
        ),
        (
            "net.decode_ns_per_record",
            weighted(&|p| Some(p.decode_ns_per_shuffled), &|p| p.shuffled),
        ),
        ("net.call_rtt_us", call_rtt_us),
        ("net.bytes_sent_per_record", per_record(c.bytes_sent)),
        ("net.shuffle_bytes_per_record", per_record(phase.shuffle_bytes)),
        ("net.rpcs_per_op", c.rpcs as f64 / jobs),
        ("net.rpc_retries_per_op", c.rpc_retries as f64 / jobs),
        ("net.timeouts_per_op", c.timeouts as f64 / jobs),
        ("dhtfs.upload_mb_per_s", upload_mib_per_s),
        ("dhtfs.block_get_ns", block_get_ns),
        ("dhtfs.remote_reads_per_op", c.remote_reads as f64 / jobs),
        ("cache.hit_ratio", if lookups == 0 { 0.0 } else { c.cache_hits as f64 / lookups as f64 }),
        ("cache.ocache_put_us", ocache_put_us),
        ("cache.ocache_get_us", ocache_get_us),
        ("sched.laf_assign_ns", laf_assign_ns),
        ("sched.task_imbalance", c.imbalance_sum / jobs),
        ("sched.steals_per_op", c.steals as f64 / jobs),
        ("ring.lookup_ns", ring_lookup_ns),
        ("util.hashkey_ns", hashkey_ns),
        ("baseline.single_thread_records_per_s", reference_records as f64 / reference_s),
        ("trace.overhead_ratio", overhead),
    ]
}
