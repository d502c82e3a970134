//! The repository benchmark: end-to-end and per-layer performance of the
//! voltage-stacked GPU reproduction, with correctness checks.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
//! perfbench smoke
//! perfbench compare BASELINE.jsonl CANDIDATE.jsonl
//! ```
//!
//! Run it from the repository root (it reads `crates/`, `goldens/` and
//! `BENCHMARK.json` there), usually as
//! `cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- ...`.
//!
//! Workloads (see `BENCHMARK.json`): `sweep_golden`, `dse_grid`,
//! `serve_mixed`. With `--trace 0` a run measures the end-to-end metrics;
//! with `--trace 1` it makes one untraced and one traced operation and
//! reports the per-layer table, writing one Perfetto trace under
//! `target/perfbench/traces/`. Every run checks its outputs, prints a
//! detail record (host fingerprint, timings as median / tail / count,
//! exact counts, failures) and, as its last stdout line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Records also append to
//! `target/perfbench/results.jsonl`.
//!
//! `smoke` runs every workload at tiny size in both modes and checks that
//! each metric `BENCHMARK.json` names is emitted with its unit.
//! `compare` prints per-metric median changes between two record files and
//! refuses (exit 3) when their host fingerprints differ.

mod dse_grid;
mod harness;
mod layers;
mod serve_mixed;
mod sweep_golden;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode};

use vs_bench::obs;
use vs_telemetry::json::{self, Json};
use vs_telemetry::{chrome_trace_json, TraceEvent};

use harness::{
    code_digest, comparable_host, guard_counts, host_fingerprint, peak_rss_mb, Ctx, Outcome, Size,
};
use layers::Layers;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sweep_golden", "dse_grid", "serve_mixed"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--size full|tiny]\n\
         \x20      perfbench smoke\n\
         \x20      perfbench compare BASELINE.jsonl CANDIDATE.jsonl",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// Parsed `--flag value` pairs.
fn flags(args: &[String]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage()
        };
        let Some(value) = it.next() else { usage() };
        if map.insert(name.to_string(), value.clone()).is_some() {
            fail(&format!("--{name} given twice"));
        }
    }
    map
}

fn parse_size(text: Option<&String>) -> Size {
    match text.map(String::as_str) {
        None | Some("full") => Size::Full,
        Some("tiny") => Size::Tiny,
        Some(other) => fail(&format!("unknown --size {other:?} (full|tiny)")),
    }
}

fn main() -> ExitCode {
    obs::set_progress(obs::ProgressMode::Off);
    // Pin the executor tracer's epoch at process start.
    let _ = obs::tracer();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root =
        std::env::current_dir().unwrap_or_else(|e| fail(&format!("no working directory: {e}")));
    if !root.join("crates").is_dir() || !root.join("goldens").is_dir() {
        fail("run from the repository root: crates/ and goldens/ are missing here");
    }
    match args.first().map(String::as_str) {
        Some("smoke") => smoke(&root),
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => usage(),
        },
        Some("build-snapshot") => {
            let f = flags(&args[1..]);
            let dir = f.get("dir").unwrap_or_else(|| usage());
            match serve_mixed::build_snapshot(Path::new(dir), parse_size(f.get("size"))) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&format!("snapshot: {e}")),
            }
        }
        _ => run(&root, &flags(&args)),
    }
}

fn run(root: &Path, f: &BTreeMap<String, String>) -> ExitCode {
    let workload = f.get("workload").cloned().unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        fail(&format!("unknown workload {workload:?}"));
    }
    let num = |name: &str| -> u64 {
        f.get(name)
            .unwrap_or_else(|| usage())
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{name} must be a whole number")))
    };
    let (seed, seconds) = (num("seed"), num("seconds"));
    let trace = match f.get("trace").map(String::as_str) {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    let size = parse_size(f.get("size"));
    let code =
        code_digest(root).unwrap_or_else(|e| fail(&format!("cannot read the source tree: {e}")));
    let work = root.join("target").join("perfbench");
    let scratch = work.join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        root: root.to_path_buf(),
        work,
        scratch,
        seed,
        seconds,
        trace,
        size,
        code,
    };
    if let Err(e) = harness::fresh_dir(&ctx.scratch) {
        fail(&format!("cannot create {}: {e}", ctx.scratch.display()));
    }

    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let detail = match workload.as_str() {
        "sweep_golden" => sweep_golden::run(&ctx, &mut out, &mut layers),
        "dse_grid" => dse_grid::run(&ctx, &mut out, &mut layers),
        _ => serve_mixed::run(&ctx, &mut out, &mut layers),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let detail = match detail {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {workload} could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    guard_counts(&ctx, &workload, &mut out);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let metrics: Vec<(String, f64, &str)> = if trace {
        layers
            .rows()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    } else {
        harness::END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = out
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |m| m.1);
                (name.to_string(), v, *unit)
            })
            .collect()
    };
    if !trace {
        for (name, v, _) in &metrics {
            let (name, v) = (name.clone(), *v);
            out.check(v.is_finite() && v > 0.0, || {
                format!("end-to-end metric {name} = {v}")
            });
        }
    }

    let record = Json::obj([
        ("record", Json::from("perfbench/1")),
        ("workload", Json::from(workload.as_str())),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(trace)),
        ("size", Json::from(size.name())),
        ("host", host_fingerprint(root)),
        ("code", Json::from(ctx.code.as_str())),
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "error_rate",
            Json::from(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(
                out.failures
                    .iter()
                    .map(|s| Json::from(s.as_str()))
                    .collect(),
            ),
        ),
        (
            "timings",
            Json::obj(
                out.timings
                    .iter()
                    .map(|(k, (unit, s))| (k.clone(), s.to_json(unit))),
            ),
        ),
        (
            "counts",
            Json::obj(out.counts.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
                )
            })),
        ),
        ("detail", detail),
    ])
    .to_string_compact();
    println!("{record}");
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.work.join("results.jsonl"))
    {
        let _ = writeln!(file, "{record}");
    }
    let result = Json::obj([
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}

/// Writes the traced operation's events — the executor's spans and the
/// benchmark's own — as one Perfetto trace.
pub fn write_trace(ctx: &Ctx, workload: &str, events: &[TraceEvent]) {
    let dir = ctx.work.join("traces");
    let path = dir.join(format!("{workload}-seed{}.trace.json", ctx.seed));
    let text = chrome_trace_json(events, Some(&obs::metrics_snapshot()));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| vs_telemetry::write_atomic(&path, text.as_bytes()))
    {
        Ok(()) => eprintln!(
            "[perfbench] trace -> {} (load at ui.perfetto.dev)",
            path.display()
        ),
        Err(e) => eprintln!("[perfbench] cannot write {}: {e}", path.display()),
    }
}

/// Reads `BENCHMARK.json`'s metric lists: (end_to_end, per_layer), each a
/// list of (name, unit), plus the workload names.
#[allow(clippy::type_complexity)]
fn benchmark_spec(
    root: &Path,
) -> Result<(Vec<(String, String)>, Vec<(String, String)>, Vec<String>), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                name.map(|n| (n.to_string(), unit.to_string()))
                    .ok_or(format!("a {key} entry has no name"))
            })
            .collect()
    };
    let workloads = list("workloads")?.into_iter().map(|(n, _)| n).collect();
    Ok((list("end_to_end")?, list("per_layer")?, workloads))
}

/// Runs every workload at tiny size, untraced and traced, as a child
/// process, and checks the result line against `BENCHMARK.json`.
fn smoke(root: &Path) -> ExitCode {
    let (e2e, per_layer, workloads) = benchmark_spec(root).unwrap_or_else(|e| fail(&e));
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no executable path: {e}")));
    let mut problems = Vec::new();
    for w in &workloads {
        for (trace, want) in [("0", &e2e), ("1", &per_layer)] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "42",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--size",
                    "tiny",
                ])
                .current_dir(root)
                .output()
                .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", exe.display())));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let tag = format!("{w} --trace {trace}");
            let Some(last) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
                problems.push(format!("{tag}: no result line (exit {})", out.status));
                continue;
            };
            if last.get("correct").and_then(Json::as_bool) != Some(true) {
                problems.push(format!("{tag}: correct is not true"));
            }
            let Some(Json::Obj(metrics)) = last.get("metrics") else {
                problems.push(format!("{tag}: no metrics object"));
                continue;
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, m)| {
                    (
                        n.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            for m in want.iter() {
                if !got.contains(m) {
                    problems.push(format!("{tag}: metric {} [{}] not emitted", m.0, m.1));
                }
            }
            for m in &got {
                if !want.contains(m) {
                    problems.push(format!(
                        "{tag}: emitted {} [{}] is not in BENCHMARK.json",
                        m.0, m.1
                    ));
                }
            }
            eprintln!("[smoke] {tag}: {} metric(s) checked", got.len());
        }
    }
    if let Err(e) = check_predictions(root, &e2e, &per_layer, &workloads) {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("[smoke] FAIL {p}");
    }
    if problems.is_empty() {
        eprintln!("[smoke] ok: every named metric is emitted with its unit");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `perfbench/predictions.json` must map every per-layer metric to the
/// `workload:metric` pairs it is predicted to move (and, where stated, to
/// leave unmoved), naming only workloads and end-to-end metrics that exist.
fn check_predictions(
    root: &Path,
    e2e: &[(String, String)],
    per_layer: &[(String, String)],
    workloads: &[String],
) -> Result<(), String> {
    let path = root.join("perfbench").join("predictions.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let map = json::parse(&text).map_err(|e| format!("predictions.json: {e}"))?;
    for (name, _) in per_layer {
        let entry = map
            .get(name)
            .ok_or(format!("predictions.json has no entry for {name}"))?;
        let moves = entry
            .get("moves")
            .and_then(Json::as_arr)
            .ok_or(format!("predictions.json has no moves list for {name}"))?;
        let unmoved = entry.get("unmoved").and_then(Json::as_arr).unwrap_or(&[]);
        for m in moves.iter().chain(unmoved) {
            let target = m.as_str().unwrap_or("");
            let ok = target.split_once(':').is_some_and(|(w, metric)| {
                workloads.iter().any(|x| x == w) && e2e.iter().any(|(n, _)| n == metric)
            });
            if !ok {
                return Err(format!("predictions.json: {name} moves unknown {target:?}"));
            }
        }
    }
    Ok(())
}

/// Loads untraced full-size records from a results file, by workload.
fn load_records(path: &Path) -> BTreeMap<String, Vec<Json>> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let mut by: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(rec) = json::parse(line) else { continue };
        if rec.get("record").and_then(Json::as_str) != Some("perfbench/1")
            || rec.get("trace").and_then(Json::as_bool) != Some(false)
            || rec.get("size").and_then(Json::as_str) != Some("full")
        {
            continue;
        }
        let w = rec
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        by.entry(w).or_default().push(rec);
    }
    by
}

/// Per-metric median change, candidate against baseline, refusing records
/// from different hosts.
fn compare(base: &Path, cand: &Path) -> ExitCode {
    let (a, b) = (load_records(base), load_records(cand));
    let hosts = |recs: &BTreeMap<String, Vec<Json>>| -> Vec<String> {
        let mut h: Vec<String> = recs
            .values()
            .flatten()
            .map(|r| comparable_host(r.get("host").unwrap_or(&Json::Null)))
            .collect();
        h.sort();
        h.dedup();
        h
    };
    let (ha, hb) = (hosts(&a), hosts(&b));
    if ha.len() != 1 || ha != hb {
        println!("not comparable: host fingerprints differ ({ha:?} vs {hb:?})");
        return ExitCode::from(3);
    }
    let median = |recs: &[Json], metric: &str| -> Option<f64> {
        let vals: Vec<f64> = recs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect();
        (!vals.is_empty()).then(|| harness::Samples(vals).median())
    };
    for (w, recs) in &a {
        let Some(other) = b.get(w) else { continue };
        for (metric, unit) in harness::END_TO_END {
            if let (Some(x), Some(y)) = (median(recs, metric), median(other, metric)) {
                println!(
                    "{w:13} {metric:17} {x:>14.6} -> {y:>14.6} {unit:4} ({:+.1}%, n={}/{})",
                    100.0 * (y - x) / x,
                    recs.len(),
                    other.len()
                );
            }
        }
    }
    ExitCode::SUCCESS
}
