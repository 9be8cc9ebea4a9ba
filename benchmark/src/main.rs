//! The one benchmark of this repository. See `benchmark/README.md`.
//!
//! ```text
//! eclipse-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! eclipse-benchmark run [--reps R] [--sets K] [--smoke] [--out F]   every workload, fresh processes
//! eclipse-benchmark compare A.json B.json                           verdict per (metric, workload)
//! ```

mod compare;
mod json;
mod metrics;
mod oracle;
mod procfs;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use compare::Verdict;
use json::Json;
use metrics::{END_TO_END, WORKLOADS};
use run::RunArgs;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// Defaults of the `run` subcommand; `BENCHMARK.json` tells the driver
/// the same run length.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_REPS: u64 = 5;
const DETAIL_PREFIX: &str = "detail: ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run_all(&f)),
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        _ => Flags::parse(&args).and_then(|f| run_one(&f)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    corrupt_reference: bool,
    reps: Option<u64>,
    sets: Option<u64>,
    out: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
                v.parse().map_err(|_| format!("{flag}: cannot read {v:?} as a number"))
            }
            match flag.as_str() {
                "--workload" => f.workload = Some(value()?.clone()),
                "--seed" => f.seed = Some(num(flag, value()?)?),
                "--seconds" => f.seconds = Some(num(flag, value()?)?),
                "--trace" => f.trace = num::<u8>(flag, value()?)? != 0,
                "--reps" => f.reps = Some(num(flag, value()?)?),
                "--sets" => f.sets = Some(num(flag, value()?)?),
                "--out" => f.out = Some(value()?.clone()),
                "--smoke" => f.smoke = true,
                "--corrupt-reference" => f.corrupt_reference = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if f.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        Ok(f)
    }
}

/// Driver mode: one workload in this process. Prints a `detail:` line
/// and then, last, the contract's JSON object. Exits 1 when any op
/// failed or any output differed from its reference.
fn run_one(f: &Flags) -> Result<ExitCode, String> {
    let workload = f.workload.clone().ok_or("--workload is required (or use `run` / `compare`)")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; known: {WORKLOADS:?}"));
    }
    let result = run::run(&RunArgs {
        workload,
        seed: f.seed.unwrap_or(DEFAULT_SEED),
        seconds: f.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: f.trace,
        smoke: f.smoke,
        corrupt_reference: f.corrupt_reference,
    })?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{DETAIL_PREFIX}{}", result.detail).map_err(|e| e.to_string())?;
    writeln!(out, "{}", result.contract_line()).map_err(|e| e.to_string())?;
    Ok(if result.correct() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// What one child run printed.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
    detail: Json,
}

/// Run one workload in a fresh process (so peak RSS is the
/// workload's own) and read back its two result lines.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    f: &Flags,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if f.smoke {
        cmd.arg("--smoke");
    }
    if f.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let out = cmd.output().map_err(|e| format!("cannot start child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines
        .next()
        .ok_or_else(|| format!("{workload}: child printed nothing ({})", out.status))?;
    let line = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| Json::parse(d).ok())
        .unwrap_or(Json::Null);
    let num =
        |k: &str| line.get(k).and_then(Json::as_f64).ok_or_else(|| format!("no {k} in result"));
    let metrics = line
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics in result")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Child {
        correct: line.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        detail,
    })
}

/// One full set: `reps` untraced runs (seeds `seed..seed+reps`) and one
/// traced run of every workload. Returns the result document and
/// whether every output was correct.
fn run_set(f: &Flags, set: u64) -> Result<(Json, bool), String> {
    let seed = f.seed.unwrap_or(DEFAULT_SEED);
    let seconds = f.seconds.unwrap_or(DEFAULT_SECONDS);
    let reps = f.reps.unwrap_or(if f.smoke { 1 } else { DEFAULT_REPS }).max(1);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut runs = Vec::new();
        for rep in 0..reps {
            eprintln!("set {set}: {workload} run {}/{reps} (seed {})", rep + 1, seed + rep);
            let child = spawn_run(workload, seed + rep, seconds, false, f)?;
            all_correct &= child.correct;
            attempted += child.attempted;
            failed += child.failed;
            for (m, vals) in END_TO_END.iter().zip(&mut values) {
                let v = child.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v);
                vals.push(v.ok_or_else(|| format!("{workload}: run printed no {}", m.name))?);
            }
            runs.push(child.detail);
        }
        eprintln!("set {set}: {workload} traced run");
        let traced = spawn_run(workload, seed, seconds, true, f)?;
        all_correct &= traced.correct;

        let end_to_end = END_TO_END.iter().zip(&values).map(|(m, vals)| {
            let side = compare::Side::of(vals).expect("reps >= 1");
            println!(
                "{workload:<16} {:<15} {:>14.4} {:<9} q1 {:.4}  q3 {:.4}  n {}  spread {:.2}% (bound {:.0}%)",
                m.name,
                side.median,
                m.unit,
                side.q1,
                side.q3,
                side.n,
                side.spread() * 100.0,
                m.bound * 100.0
            );
            let fields = [
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
                ("median", Json::Num(side.median)),
                ("q1", Json::Num(side.q1)),
                ("q3", Json::Num(side.q3)),
                ("values", Json::Arr(vals.iter().map(|v| Json::Num(*v)).collect())),
            ];
            (m.name, Json::obj(fields))
        });
        let end_to_end = Json::obj(end_to_end.collect::<Vec<_>>());
        let failed_ops_ratio = failed / attempted.max(1.0);
        println!(
            "{workload:<16} {:<15} {failed_ops_ratio:>14.4} {:<9} ({failed} of {attempted} ops failed)",
            "failed_ops_ratio", "ratio"
        );
        let per_layer = Json::obj(traced.metrics.iter().map(|(name, v)| {
            let unit = metrics::PER_LAYER.iter().find(|m| m.name == name).map_or("", |m| m.unit);
            println!("{workload:<16}   {name:<38} {v:>16.4} {unit}");
            (name.clone(), Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit))]))
        }));
        workloads.push((
            workload,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_ops_ratio", Json::Num(failed_ops_ratio)),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("runs", Json::Arr(runs)),
                ("traced_run", traced.detail),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("host", procfs::host_fingerprint()),
        ("unix_time", Json::Num(unix_time() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("reps", Json::Num(reps as f64)),
        ("smoke", Json::Bool(f.smoke)),
        ("workloads", Json::obj(workloads)),
    ]);
    Ok((doc, all_correct))
}

fn unix_time() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// One line per set in the append-only trajectory: when, what commit,
/// and every end-to-end median.
fn trajectory_line(doc: &Json) -> Json {
    let medians =
        doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]).iter().map(|(w, body)| {
            let e2e = body.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]);
            let fields = e2e
                .iter()
                .map(|(m, v)| (m.clone(), v.get("median").cloned().unwrap_or(Json::Null)));
            (w.clone(), Json::obj(fields.collect::<Vec<_>>()))
        });
    let keep = |k: &str| (k.to_string(), doc.get(k).cloned().unwrap_or(Json::Null));
    let mut fields = vec![
        keep("unix_time"),
        keep("host"),
        keep("seed"),
        keep("seconds"),
        keep("reps"),
        keep("smoke"),
    ];
    fields.push(("medians".to_string(), Json::obj(medians.collect::<Vec<_>>())));
    Json::Obj(fields)
}

/// `run`: every workload, each run in a fresh process. Writes one
/// result file per set and appends to the trajectory; with `--sets 2`
/// the two sets of the same build go through `compare` (the A/A check).
fn run_all(f: &Flags) -> Result<ExitCode, String> {
    let sets = f.sets.unwrap_or(1).max(1);
    let dir = run::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut docs = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        let (doc, correct) = run_set(f, set)?;
        all_correct &= correct;
        let path = match (&f.out, sets) {
            (Some(out), 1) => std::path::PathBuf::from(out),
            (Some(out), _) => std::path::PathBuf::from(format!("{out}.set{set}")),
            (None, _) => dir.join(format!("run-{}-set{set}.json", unix_time())),
        };
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("trajectory.jsonl"))
            .map_err(|e| e.to_string())?;
        writeln!(log, "{}", trajectory_line(&doc)).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
        docs.push(doc);
    }
    let mut code = if all_correct { ExitCode::SUCCESS } else { ExitCode::from(1) };
    for pair in docs.windows(2) {
        let rows = compare::rows(&pair[0], &pair[1])?;
        print!("{}", compare::render(&rows));
        // Two sets of one build must agree: unresolved fails too.
        if rows.iter().any(|r| matches!(r.verdict, Verdict::Worse | Verdict::Unresolved)) {
            code = ExitCode::from(1);
        }
    }
    Ok(code)
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (da, db) = (load(a)?, load(b)?);
    for (name, doc) in [("A", &da), ("B", &db)] {
        println!("{name}: host {}", doc.get("host").unwrap_or(&Json::Null));
    }
    let rows = compare::rows(&da, &db)?;
    print!("{}", compare::render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{worse} worse, {unresolved} unresolved, {} rows", rows.len());
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
