//! Tier-1: the dse driver's determinism matrix, crash recovery and run
//! sharing. A 64-point grid produces bit-identical frontier artifacts
//! whatever the worker count, and `--resume` after an injected torn write
//! (plus a tampered point cache) recomputes exactly the lost points and
//! converges to the undisturbed bytes. The plan's run counts are pinned,
//! and every row of a shared-run exploration equals `evaluate_point` of
//! its point bit for bit.
//!
//! The determinism and resume phases stay one `#[test]` on purpose: the
//! chaos plan is process-wide and the harness runs a binary's `#[test]`
//! functions concurrently — splitting those phases up would race the
//! global state. The other tests journal nothing, so no chaos plan can
//! reach them.

use std::path::PathBuf;

use vs_bench::chaos::{clear_chaos_plan, install_chaos_plan, ChaosPlan};
use vs_bench::dse::{evaluate_point, plan, run_dse, DseOptions};
use vs_bench::journal::{load_dse_resume, point_cache_rel};
use vs_bench::space::{AxisSpace, ConfigPoint};
use vs_circuit::SolverWorkspace;
use vs_bench::RunSettings;

/// Small enough for debug-mode CI: every point runs at the step clamps.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 20_000,
        seed: 42,
    }
}

/// 4 areas x 4 latencies x 2 families x 2 thresholds = 64 points.
fn grid() -> AxisSpace {
    "area=0.1|0.2|0.4|1.72,latency=30|60|90|120,pds=cross|circuit,vth=0.88|0.9"
        .parse()
        .expect("grid spec")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-dse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dse_artifacts_are_schedule_invariant_and_resume_converges() {
    assert_eq!(grid().len(), 64);

    // Phase 1 — undisturbed reference: one worker.
    clear_chaos_plan();
    let reference = run_dse(&DseOptions {
        jobs: 1,
        settings: micro(),
        space: grid(),
        ..DseOptions::default()
    });
    assert_eq!(reference.enumerated, 64);
    assert_eq!(reference.rows.len(), 64, "all 64 points are SuiteKey-unique");
    assert_eq!(reference.evaluated, 64);
    assert!(reference.rows.iter().any(|r| r.on_frontier));
    let ref_bytes = reference.artifact(true).to_jsonl();

    // Phase 2 — determinism matrix: more workers reorder the schedule but
    // never the bytes.
    for jobs in [2, 4, 8] {
        let run = run_dse(&DseOptions {
            jobs,
            settings: micro(),
            space: grid(),
            ..DseOptions::default()
        });
        assert_eq!(run.artifact(true).to_jsonl(), ref_bytes, "artifact drifted at jobs={jobs}");
    }

    // Phase 3 — a journaled run with one point-cache write torn mid-byte
    // (simulated SIGKILL between cache write and journal append).
    let dir = tmp("resume");
    let settings = micro();
    let points = grid().points();
    let torn_key = points[17].suite_key(&settings);
    install_chaos_plan(ChaosPlan {
        seed: 7,
        tasks: vec![],
        torn_writes: vec![format!("{}.json", torn_key.cache_dir())],
    });
    let chaos_run = run_dse(&DseOptions {
        jobs: 2,
        settings,
        space: grid(),
        journal_dir: Some(dir.clone()),
        ..DseOptions::default()
    });
    clear_chaos_plan();
    assert_eq!(chaos_run.artifact(true).to_jsonl(), ref_bytes);

    // Tamper a second, successfully journaled cache: its checksum must
    // flag it damaged on replay.
    let tampered_key = points[3].suite_key(&settings);
    assert_ne!(torn_key.to_hex(), tampered_key.to_hex());
    let tampered_path = dir.join(point_cache_rel(&tampered_key));
    let mut bytes = std::fs::read(&tampered_path).expect("tampered cache exists");
    bytes[0] ^= 0x01;
    std::fs::write(&tampered_path, &bytes).unwrap();

    // The torn point was never journaled (write-then-journal order), so it
    // is missing rather than damaged; the tampered point is damaged.
    let state = load_dse_resume(&dir).expect("journal replays");
    assert_eq!(state.damaged, 1, "exactly the tampered cache is damaged");
    assert_eq!(state.skipped_lines, 0);
    assert_eq!(state.verified.len(), 62);
    assert!(!state.verified.contains_key(&torn_key.to_hex()));
    assert!(!state.verified.contains_key(&tampered_key.to_hex()));

    // Phase 4 — resume: exactly the two lost points recompute, and the
    // artifact converges to the undisturbed bytes.
    let resumed = run_dse(&DseOptions {
        jobs: 2,
        settings,
        space: grid(),
        journal_dir: Some(dir.clone()),
        preloaded: state.verified,
    });
    assert_eq!(resumed.replayed, 62);
    assert_eq!(resumed.evaluated, 2, "only the torn and tampered points rerun");
    assert_eq!(resumed.artifact(true).to_jsonl(), ref_bytes);

    // The healed journal now verifies everything.
    let healed = load_dse_resume(&dir).expect("journal replays");
    assert_eq!(healed.verified.len(), 64);
    assert_eq!(healed.damaged, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// (PDE runs, worst-case runs) the plan of `space` makes.
fn plan_counts(space: &AxisSpace) -> (usize, usize) {
    let tasks = plan(&space.points(), &micro());
    let worst_case_runs = tasks.iter().map(|t| t.worst_cases.len()).sum();
    let planned: usize = tasks.iter().map(|t| t.points.len()).sum();
    assert_eq!(planned, space.len(), "every point lands in exactly one task");
    (tasks.len(), worst_case_runs)
}

#[test]
fn plan_runs_each_distinct_circuit_simulation_once() {
    // Full grid: cross PDE runs vary by stack x area x latency x detector
    // (3*6*4*2 = 144), circuit ones by stack x area (18); worst-case runs
    // add vth x weights to the cross family (144*2*3 = 864) and nothing to
    // the circuit family (18).
    assert_eq!(plan_counts(&AxisSpace::full_grid()), (162, 882));
    // The 64-point grid: cross 4 areas x 4 latencies (+ 2 vths for the
    // worst case), circuit 4 areas.
    assert_eq!(plan_counts(&grid()), (20, 36));
    assert_eq!(plan_counts(&AxisSpace::default()), (1, 1));
}

#[test]
fn shared_runs_reproduce_evaluate_point_bit_for_bit() {
    // Every axis a key could mistake for dead, two values each.
    let space: AxisSpace = "stack=2x8|4x4,area=0.1|0.4,pds=cross|circuit,vth=0.88|0.9,\
                            latency=30|90,weights=1:0:0|0.6:0:0.4,detector=oddd|cpm"
        .parse()
        .expect("grid spec");
    assert_eq!(space.len(), 128);
    let settings = micro();
    let result = run_dse(&DseOptions {
        jobs: 2,
        settings,
        space,
        ..DseOptions::default()
    });
    assert_eq!(result.rows.len(), 128);
    let mut ws = SolverWorkspace::new();
    for (point, row) in result.points.iter().zip(&result.rows) {
        let (metrics, back) = evaluate_point(point, &settings, ws);
        ws = back;
        let bits = |pde: f64, worst: f64, fin: f64| [pde.to_bits(), worst.to_bits(), fin.to_bits()];
        assert_eq!(
            bits(row.pde, row.worst_v, row.final_v),
            bits(metrics.pde, metrics.worst_v, metrics.final_v),
            "row of {point} differs from evaluate_point"
        );
        assert_eq!(row.point.parse::<ConfigPoint>().as_ref(), Ok(point));
    }
}
