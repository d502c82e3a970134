//! The design-space-exploration driver: thousands of configurations
//! with each distinct circuit simulation run once, and a Pareto-frontier
//! artifact.
//!
//! ```text
//! dse [--grid tiny|full|paper] [--space SPEC] [--jobs N] [--out DIR]
//!     [--resume DIR] [--profile env|golden|tiny] [--seed N]
//!     [--deterministic] [--trace] [--progress plain|json|off]
//!     [--diff GOLDEN] [--tolerances FILE]
//! ```
//!
//! Enumerates an axis space (`--grid full` is the built-in 1728-point
//! exploration; `--space "stack=4x4|8x2,area=0.1|0.2,latency=60"` builds a
//! custom one in the shared sweep grammar, unmentioned axes staying at the
//! paper point), evaluates every unique configuration, running each
//! distinct circuit simulation once for all the points that share it,
//! writes `dse_frontier.jsonl` into `--out`
//! (default `target/dse`), prints the frontier, and checks the executable
//! frontier claims — notably that the paper's 4×4 / 0.2× cross-layer
//! design point is non-dominated.
//!
//! Crash safety matches `sweep`: each completed point lands atomically in
//! a `points/` cache and is journaled with a checksum; `--resume DIR`
//! replays verified metrics and recomputes only missing or damaged points,
//! converging to the same bytes an undisturbed run produces.
//! `--deterministic` writes the wall-time-free artifact goldens are
//! blessed in. `--diff GOLDEN` compares the artifact against a blessed one
//! through the tolerance engine.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success — frontier claims and diffs passed |
//! | 1 | a frontier claim or golden diff failed |
//! | 2 | environment/usage error |
//! | 3 | internal error (panic; structured JSONL on stderr) |

use std::path::PathBuf;
use std::process::ExitCode;

use vs_bench::cli::{ArgSpec, CommandSpec};
use vs_bench::dse::{
    check_frontier_claims, pending_points, plan, run_dse, DseOptions, DseResult, FRONTIER_FILE,
};
use vs_bench::space::AxisSpace;
use vs_bench::{journal, RunSettings};
use vs_telemetry::{diff_artifacts, RunArtifact, ToleranceSpec};

const SPEC: CommandSpec = CommandSpec {
    prog: "dse",
    about: "Design-space exploration: evaluate a config grid and emit the Pareto frontier",
    common: &["--jobs", "--out", "--resume", "--trace", "--progress"],
    extras: &[
        ArgSpec { name: "--grid", value: Some("tiny|full|paper"), help: "built-in axis grid (default tiny; full = 1728 points)" },
        ArgSpec { name: "--space", value: Some("SPEC"), help: "custom axis space, e.g. stack=4x4|8x2,area=0.1|0.2" },
        ArgSpec { name: "--profile", value: Some("env|golden|tiny"), help: "run-settings profile (default env)" },
        ArgSpec { name: "--seed", value: Some("N"), help: "override the workload seed" },
        ArgSpec { name: "--deterministic", value: None, help: "wall-time-free artifact, no journal (golden mode)" },
        ArgSpec { name: "--diff", value: Some("GOLDEN"), help: "diff the artifact against a blessed one" },
        ArgSpec { name: "--tolerances", value: Some("FILE"), help: "per-metric tolerance spec for --diff" },
    ],
    positionals: &[],
};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    vs_bench::install_panic_hook("dse");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = SPEC.parse_or_exit(&args);
    parsed.common.apply_observability();

    let mut settings = match parsed.extra("--profile").unwrap_or("env") {
        "env" => RunSettings::try_from_env().unwrap_or_else(|e| fail(&e.to_string())),
        "golden" => RunSettings::golden_profile(),
        "tiny" => RunSettings::tiny_profile(),
        other => fail(&format!("unknown profile {other:?} (env|golden|tiny)")),
    };
    if let Some(seed) = parsed.extra("--seed") {
        settings.seed = seed.parse().unwrap_or_else(|_| fail("--seed must be an integer"));
    }

    let space = match (parsed.extra("--grid"), parsed.extra("--space")) {
        (Some(_), Some(_)) => fail("--grid and --space are mutually exclusive"),
        (None, None) | (Some("tiny"), None) => AxisSpace::tiny_grid(),
        (Some("full"), None) => AxisSpace::full_grid(),
        (Some("paper"), None) => AxisSpace::default(),
        (Some(other), None) => fail(&format!("unknown grid {other:?} (tiny|full|paper)")),
        (None, Some(spec)) => spec
            .parse::<AxisSpace>()
            .unwrap_or_else(|e| fail(&e.to_string())),
    };
    if space.is_empty() {
        fail("the axis space is empty");
    }

    let deterministic = parsed.has("--deterministic");
    let mut out = parsed
        .common
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/dse"));
    let mut preloaded = Default::default();
    if let Some(dir) = &parsed.common.resume {
        // Resume targets the journaled directory itself.
        out = dir.clone();
        let state = journal::load_dse_resume(dir)
            .unwrap_or_else(|e| fail(&format!("cannot read journal in {}: {e}", dir.display())));
        eprintln!(
            "[dse] resume: {} point(s) verified, {} damaged, {} journal line(s) skipped",
            state.verified.len(),
            state.damaged,
            state.skipped_lines,
        );
        preloaded = state.verified;
    }

    let opts = DseOptions {
        jobs: parsed.common.jobs,
        settings,
        space,
        // Golden (deterministic) trees carry no journal.
        journal_dir: (!deterministic).then(|| out.clone()),
        preloaded,
    };
    let tasks = plan(&pending_points(&opts), &settings);
    let worst_case_runs: usize = tasks.iter().map(|t| t.worst_cases.len()).sum();
    let result = run_dse(&opts);
    let path = result
        .write_to(&out, deterministic)
        .unwrap_or_else(|e| fail(&format!("cannot write dse to {}: {e}", out.display())));
    if parsed.common.trace {
        let text = vs_telemetry::chrome_trace_json(
            &vs_bench::obs::drain_trace(),
            Some(&vs_bench::obs::metrics_snapshot()),
        );
        let trace_path = out.join(vs_bench::report::TRACE_FILE);
        match vs_telemetry::write_atomic(&trace_path, text.as_bytes()) {
            Ok(()) => eprintln!("[dse] trace -> {}", trace_path.display()),
            Err(e) => eprintln!("[dse] cannot write trace {}: {e}", trace_path.display()),
        }
    }
    eprintln!(
        "[dse] {} points, {} PDE runs, {} worst-case runs; {} unique of {} enumerated \
         point(s) ({} computed, {} replayed) in {:.1}s on {} worker(s) -> {}",
        result.evaluated,
        tasks.len(),
        worst_case_runs,
        result.rows.len(),
        result.enumerated,
        result.evaluated,
        result.replayed,
        result.total_wall_s,
        result.jobs,
        path.display(),
    );

    print_frontier(&result);
    let mut ok = true;
    println!("frontier claims:");
    for claim in check_frontier_claims(&result.rows) {
        println!(
            "  {} {:28} {}",
            if claim.pass { "PASS" } else { "FAIL" },
            claim.name,
            claim.detail
        );
        ok &= claim.pass;
    }

    if let Some(golden) = parsed.extra("--diff") {
        ok &= diff_against(golden, &result, parsed.extra("--tolerances"), deterministic);
    }
    if ok {
        eprintln!("[dse] exit 0: success — frontier claims and diffs passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("[dse] exit 1: a frontier claim or golden diff failed");
        ExitCode::FAILURE
    }
}

fn print_frontier(result: &DseResult) {
    let rows: Vec<Vec<String>> = result
        .frontier()
        .map(|(point, row)| {
            vec![
                point.to_string(),
                format!("{:.4}", row.pde),
                format!("{:.2}", row.area_mult),
                format!("{:.3}", row.worst_v),
            ]
        })
        .collect();
    vs_bench::print_table(
        &format!("Pareto frontier ({} of {} points)", rows.len(), result.rows.len()),
        &["point", "PDE", "area", "worst V"],
        &rows,
    );
}

fn diff_against(
    golden: &str,
    result: &DseResult,
    tolerances: Option<&str>,
    deterministic: bool,
) -> bool {
    let golden_path = std::path::Path::new(golden);
    let path = if golden_path.is_dir() { golden_path.join(FRONTIER_FILE) } else { golden_path.to_path_buf() };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let golden_artifact = RunArtifact::parse_jsonl(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", path.display())));
    let spec = match tolerances {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| fail(&format!("cannot read tolerance file {p}: {e}")));
            ToleranceSpec::from_json_str(&text)
                .unwrap_or_else(|e| fail(&format!("bad tolerance file {p}: {e}")))
        }
        None => ToleranceSpec::exact(),
    };
    let report = diff_artifacts(&golden_artifact, &result.artifact(deterministic), &spec);
    if report.is_pass() {
        println!("golden diff: PASS ({} metrics within tolerance)", report.compared());
        true
    } else {
        println!("golden diff: FAIL");
        print!("{report}");
        false
    }
}
