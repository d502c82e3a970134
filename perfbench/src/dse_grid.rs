//! `dse_grid`: `run_dse` over the 1728-point full grid (2x8, 4x4 and 8x2
//! stacks, both PDS families) at the golden profile on two workers,
//! journaling each point as the `dse` binary does by default.
//!
//! Every point is unique, so the suite memo saves nothing; each point
//! builds two `PdsRig`s and runs circuit plus controller only, with no GPU
//! work. One operation is a cold exploration (run + frontier artifact)
//! followed by warm ones: `dse --resume` on the finished directory, whose
//! set-up — `journal::load_dse_resume`, the checksum-verified replay of
//! every point record — is the workload's `setup_s`.
//! Correctness: the frontier claims, the frontier diffed against
//! `goldens/dse_frontier.jsonl` at seed 42, byte-identical rows between
//! the cold and warm run, and a replay of both halves of one point per
//! geometry that checks the rig-step model `sim_cycles_per_s` counts.

use std::io;
use std::path::Path;

use vs_bench::dse::{
    check_frontier_claims, control_overhead_w, evaluate_point, mark_frontier, run_dse, DseOptions,
    DseResult, PointMetrics,
};
use vs_bench::space::{AxisSpace, ConfigPoint, PdsFamily};
use vs_bench::{journal, obs, RunSettings};
use vs_circuit::SolverWorkspace;
use vs_control::{ControllerConfig, VoltageController};
use vs_core::{run_worst_case_in, PdsRig, StackGeometry, WorstCaseConfig};
use vs_telemetry::json::Json;
use vs_telemetry::{
    checksum_hex, diff_artifacts, fnv1a_64, DsePointRow, RunArtifact, ToleranceSpec,
};

use crate::harness::{
    cpu_seconds, dir_bytes, fresh_dir, settle_writes, span, Ctx, Lap, Outcome, Samples, Size,
    Stopwatch,
};
use crate::layers::{self, Layers};

/// Worker threads.
const JOBS: usize = 2;

/// Measurement budget per operation, seconds: any `--seconds` below 54
/// buys one cold + warm exploration (about 40 s on the two-core reference
/// host).
const NOMINAL_OP_S: f64 = 36.0;

/// Warm resumes (and so set-up samples) per operation: enough to span
/// about ten seconds, since the host's speed changes within seconds.
const WARM_REPS: usize = 75;

/// Points sampled for the direct per-layer timings in the traced run.
const SAMPLED_POINTS: usize = 48;

/// The simulated clock, and the nominal per-SM load at `workload=1`: the
/// constants `vs_bench::dse` evaluates points with. The rig-step model
/// below mirrors that evaluation and is cross-checked on every run.
const CLOCK_HZ: f64 = 700e6;
const P_SM_NOMINAL_W: f64 = 8.0;

/// Rig steps one point simulates: the uniform-load PDE run plus the
/// worst-case gating run (the step counts `evaluate_point` derives from
/// the cycle cap).
fn steps_per_point(settings: &RunSettings) -> (u64, u64) {
    let pde = (settings.max_cycles / 40).clamp(512, 8192);
    let droop = (settings.max_cycles / 40).clamp(1024, 3500);
    (pde, droop)
}

fn settings(ctx: &Ctx) -> RunSettings {
    let mut s = match ctx.size {
        Size::Full => RunSettings::golden_profile(),
        Size::Tiny => RunSettings::tiny_profile(),
    };
    s.seed = ctx.seed;
    s
}

fn space(ctx: &Ctx) -> AxisSpace {
    match ctx.size {
        Size::Full => AxisSpace::full_grid(),
        Size::Tiny => AxisSpace::tiny_grid(),
    }
}

fn rows_digest(rows: &[DsePointRow]) -> u64 {
    let mut text = String::new();
    for r in rows {
        text.push_str(&format!(
            "{}|{:016x}|{:016x}|{:016x}|{}\n",
            r.point,
            r.pde.to_bits(),
            r.worst_v.to_bits(),
            r.final_v.to_bits(),
            r.on_frontier
        ));
    }
    fnv1a_64(text.as_bytes())
}

/// The blessed frontier and tolerances.
struct Golden {
    artifact: RunArtifact,
    spec: ToleranceSpec,
}

fn load_golden(root: &Path) -> io::Result<Golden> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let dir = root.join("goldens");
    let artifact =
        RunArtifact::parse_jsonl(&std::fs::read_to_string(dir.join("dse_frontier.jsonl"))?)
            .map_err(|e| bad(format!("goldens/dse_frontier.jsonl: {e}")))?;
    let spec = ToleranceSpec::from_json_str(&std::fs::read_to_string(dir.join("tolerances.json"))?)
        .map_err(|e| bad(format!("goldens/tolerances.json: {e}")))?;
    Ok(Golden { artifact, spec })
}

/// The golden frontier was blessed on the 12-point tiny grid. Every tiny
/// point is also a full-grid point and point metrics are pure in (point,
/// settings), so the tiny grid's rows are cut out of the full result, the
/// frontier is marked among them, and that artifact is diffed.
fn golden_diff(result: &DseResult, golden: &Golden) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for p in AxisSpace::tiny_grid().points() {
        let name = p.to_string();
        let row = result
            .rows
            .iter()
            .find(|r| r.point == name)
            .ok_or_else(|| format!("tiny-grid point {name} missing from the full grid"))?;
        rows.push(row.clone());
        points.push(p);
    }
    mark_frontier(&mut rows);
    let n = rows.len();
    let sub = DseResult {
        rows,
        points,
        enumerated: n,
        evaluated: n,
        replayed: 0,
        jobs: result.jobs,
        settings: result.settings,
        total_wall_s: 0.0,
    };
    Ok(diff_artifacts(&golden.artifact, &sub.artifact(true), &golden.spec).is_pass())
}

/// What one cold + warm operation measured.
struct Op {
    cold: DseResult,
    cold_lap: Lap,
    /// Median net seconds of the warm resumes.
    warm_s: f64,
    cpu_s: f64,
    replay_s: f64,
    bytes: u64,
}

fn dse_once(ctx: &Ctx, dir: &Path, golden: &Golden, out: &mut Outcome) -> io::Result<Op> {
    let settings = settings(ctx);
    let opts = DseOptions {
        jobs: JOBS,
        settings,
        space: space(ctx),
        journal_dir: Some(dir.to_path_buf()),
        ..DseOptions::default()
    };
    let (cpu0, watch) = (cpu_seconds(), Stopwatch::start());
    let ((cold, written), _) = span("run_dse", &[], || {
        let result = run_dse(&opts);
        let written = result.write_to(dir, false);
        (result, written)
    });
    let cold_lap = watch.lap();
    let cpu_s = cpu_seconds() - cpu0;
    written?;
    let bytes = dir_bytes(dir);

    // Warm: `dse --resume` on the finished directory, once the cold run's
    // writes have settled, a few times (it is short) so that the reported
    // warm time and the set-up inside it are medians. Each resume is
    // checked as it lands.
    settle_writes();
    let digest = rows_digest(&cold.rows);
    let n = cold.rows.len() as u64;
    let (mut warm_s, mut replay_s) = (Samples::default(), Samples::default());
    for _ in 0..WARM_REPS {
        let watch = Stopwatch::start();
        let (resumed, _) = span("resume_dse", &[], || {
            let (state, replay_s) = span("load_resume", &[], || journal::load_dse_resume(dir));
            let state = state?;
            let warm = run_dse(&DseOptions {
                preloaded: state.verified,
                ..opts.clone()
            });
            warm.write_to(dir, false)?;
            Ok::<_, io::Error>((warm, replay_s))
        });
        let lap = watch.lap();
        let (warm, secs_replay) = resumed?;
        out.sample("setup_s", "s", secs_replay);
        warm_s.push(lap.net);
        out.sample("warm_ms.raw", "ms", lap.wall * 1e3);
        replay_s.push(secs_replay);
        out.check(rows_digest(&warm.rows) == digest, || {
            "the resumed dse rows differ from the cold run's".to_string()
        });
        out.check(warm.replayed as u64 == n && warm.evaluated == 0, || {
            format!(
                "the resumed dse replayed {} and recomputed {} points",
                warm.replayed, warm.evaluated
            )
        });
    }
    let (warm_s, replay_s) = (warm_s.median(), replay_s.median());

    out.check(cold.evaluated as u64 == n, || {
        format!("dse evaluated {} of {n} points", cold.evaluated)
    });
    if ctx.size == Size::Full {
        for claim in check_frontier_claims(&cold.rows) {
            out.check(claim.pass, || {
                format!("frontier claim {}: {}", claim.name, claim.detail)
            });
        }
    }
    if ctx.goldens_apply() {
        let (verdict, _) = span(
            "diff_artifacts",
            &[("against", "goldens".to_string())],
            || golden_diff(&cold, golden),
        );
        out.check(verdict == Ok(true), || {
            format!("dse frontier golden diff: {verdict:?}")
        });
    }
    out.count("rows_digest", digest);
    out.count("dse.points_evaluated", cold.evaluated as u64);
    Ok(Op {
        cold,
        cold_lap,
        warm_s,
        cpu_s,
        replay_s,
        bytes,
    })
}

/// Re-runs the uniform-load PDE half of `point` through the public rig
/// API, returning (steps taken, PDE, wall seconds in `step`). Matching the
/// row bit for bit proves the rig-step count behind `sim_cycles_per_s`.
fn pde_replica(
    point: &ConfigPoint,
    settings: &RunSettings,
    ws: SolverWorkspace,
) -> (u64, f64, f64, SolverWorkspace) {
    let (steps, _) = steps_per_point(settings);
    let n_sms = point.stack.n_sms() as usize;
    let mut rig = PdsRig::with_params_in(
        point.pds.kind(point.area),
        &point.stack.pdn_params(),
        1.0 / CLOCK_HZ,
        control_overhead_w(point),
        ws,
    );
    let loads = vec![P_SM_NOMINAL_W * point.workload; n_sms];
    let zeros = vec![0.0; n_sms];
    let mut taken = 0;
    let t0 = std::time::Instant::now();
    for _ in 0..steps {
        if rig.step(&loads, &zeros, &zeros).is_err() {
            break;
        }
        taken += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    let pde = rig.ledger().pde();
    (taken, pde, secs, rig.into_workspace())
}

/// Re-runs the worst-case gating half of `point` as `evaluate_point`
/// configures it, returning (steps taken, worst voltage, final voltage).
/// The run records one voltage sample per rig step.
fn droop_replica(
    point: &ConfigPoint,
    settings: &RunSettings,
    ws: SolverWorkspace,
) -> (u64, f64, f64, SolverWorkspace) {
    let (_, steps) = steps_per_point(settings);
    let duration_s = steps as f64 / CLOCK_HZ;
    let (worst, ws) = run_worst_case_in(
        &WorstCaseConfig {
            area_mult: point.area,
            geometry: point.stack,
            cross_layer: point.pds == PdsFamily::Cross,
            latency_cycles: point.latency,
            weights: point.weights,
            v_threshold: point.vth,
            detector: point.detector,
            p_sm_w: P_SM_NOMINAL_W * point.workload,
            gate_at_s: 0.4 * duration_s,
            duration_s,
            ..WorstCaseConfig::default()
        },
        ws,
    );
    (
        worst.trace.len() as u64,
        worst.worst_voltage,
        worst.final_voltage,
        ws,
    )
}

/// One sampled point per stack geometry, in grid order.
fn per_geometry(points: &[ConfigPoint]) -> Vec<&ConfigPoint> {
    let mut seen: Vec<StackGeometry> = Vec::new();
    points
        .iter()
        .filter(|p| {
            let new = !seen.contains(&p.stack);
            if new {
                seen.push(p.stack);
            }
            new
        })
        .collect()
}

/// Cross-checks the rig-step model on one point per geometry: both
/// halves, replayed through the public API, must take the modelled number
/// of steps and reproduce the point's row bit for bit.
fn check_step_model(ctx: &Ctx, result: &DseResult, out: &mut Outcome) {
    let settings = settings(ctx);
    let (steps, droop_steps) = steps_per_point(&settings);
    let mut ws = SolverWorkspace::new();
    for p in per_geometry(&result.points) {
        let row = result.rows.iter().find(|r| r.point == p.to_string());
        let (taken, pde, _, back) = pde_replica(p, &settings, ws);
        out.check(taken == steps && row.is_some_and(|r| r.pde.to_bits() == pde.to_bits()), || {
            format!("rig-step model disagrees with dse at {p}: {taken} of {steps} steps, PDE {pde} vs {:?}", row.map(|r| r.pde))
        });
        let (taken, worst_v, final_v, back) = droop_replica(p, &settings, back);
        ws = back;
        let same = row.is_some_and(|r| {
            r.worst_v.to_bits() == worst_v.to_bits() && r.final_v.to_bits() == final_v.to_bits()
        });
        out.check(taken == droop_steps && same, || {
            format!("rig-step model disagrees with dse's worst-case run at {p}: {taken} of {droop_steps} steps, worst {worst_v} vs {:?}", row.map(|r| r.worst_v))
        });
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome, layers: &mut Layers) -> io::Result<Json> {
    let settings = settings(ctx);
    let (pde_steps, droop_steps) = steps_per_point(&settings);
    let dir = ctx.scratch.join("dse");
    let mut ops: Vec<Op> = Vec::new();
    let mut detail = Vec::new();
    let golden = load_golden(&ctx.root)?;
    for k in 0..ctx.ops(NOMINAL_OP_S) {
        let traced = ctx.trace && k == 1;
        fresh_dir(&dir)?;
        obs::reset_observability_for_tests();
        settle_writes();
        obs::set_tracing(traced);
        let op = dse_once(ctx, &dir, &golden, out);
        obs::set_tracing(false);
        let op = op?;
        if k == 0 {
            check_step_model(ctx, &op.cold, out);
        }
        let cycles = op.cold.rows.len() as u64 * (pde_steps + droop_steps);
        out.count("rig_steps", cycles);
        if !traced {
            out.lap("wall_s", "s", 1.0, op.cold_lap);
            out.sample("warm_ms", "ms", op.warm_s * 1e3);
            out.sample("sim_cycles_per_s", "1/s", cycles as f64 / op.cold_lap.net);
            out.sample(
                "busy_fraction",
                "ratio",
                op.cpu_s / (JOBS as f64 * op.cold_lap.net),
            );
        }
        if traced {
            let mut events = obs::drain_trace();
            obs::set_tracing(true);
            let measured = traced_layers(ctx, &dir, &op, &ops[0], out, layers, &mut detail);
            obs::set_tracing(false);
            events.extend(obs::drain_trace());
            measured?;
            crate::write_trace(ctx, "dse_grid", &events);
        }
        ops.push(op);
    }
    out.metric("setup_s", out.samples("setup_s").median(), "s");
    out.metric("wall_s", out.samples("wall_s").median(), "s");
    out.metric("warm_p50_ms", out.samples("warm_ms").median(), "ms");
    out.metric(
        "sim_cycles_per_s",
        out.samples("sim_cycles_per_s").median(),
        "1/s",
    );
    detail.push(("jobs".to_string(), Json::from(JOBS as u64)));
    detail.push((
        "rig_steps_per_point".to_string(),
        Json::from(pde_steps + droop_steps),
    ));
    Ok(Json::Obj(detail))
}

fn traced_layers(
    ctx: &Ctx,
    dir: &Path,
    op: &Op,
    untraced: &Op,
    out: &mut Outcome,
    layers: &mut Layers,
    detail: &mut Vec<(String, Json)>,
) -> io::Result<()> {
    let settings = settings(ctx);
    layers.set("trace_overhead", op.cold_lap.net / untraced.cold_lap.net);
    layers.set("dse.points_evaluated", op.cold.evaluated as f64);
    layers.set(
        "dse.busy_fraction",
        untraced.cpu_s / (JOBS as f64 * untraced.cold_lap.net),
    );
    let mut rows = op.cold.rows.clone();
    let ((), secs) = span("mark_frontier", &[], || mark_frontier(&mut rows));
    layers.set("dse.frontier_ms", secs * 1e3);
    layers.set("journal.bytes_written", op.bytes as f64);
    layers.set("journal.replay_ms", op.replay_s * 1e3);

    // Diff cost, and proof that tracing changed no row.
    let (pass, secs) = span(
        "diff_artifacts",
        &[("against", "untraced".to_string())],
        || {
            diff_artifacts(
                &untraced.cold.artifact(true),
                &op.cold.artifact(true),
                &ToleranceSpec::exact(),
            )
            .is_pass()
        },
    );
    out.check(pass, || {
        "tracing changed the dse frontier artifact".to_string()
    });
    layers.set("vs-telemetry.diff_ms", secs * 1e3);

    // Direct timings on points sampled evenly through the grid.
    let stride = (op.cold.points.len() / SAMPLED_POINTS).max(1);
    let sample: Vec<&ConfigPoint> = op.cold.points.iter().step_by(stride).collect();
    let scratch = ctx.scratch.join("dse-journal");
    std::fs::create_dir_all(&scratch)?;
    let (mut point_ms, mut record_us, mut read_us) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut ws = SolverWorkspace::new();
    for p in &sample {
        let name = p.to_string();
        let ((metrics, back), secs) = span("evaluate_point", &[("point", name.clone())], || {
            evaluate_point(p, &settings, ws)
        });
        ws = back;
        point_ms.push(secs * 1e3);
        let row = op.cold.rows.iter().find(|r| r.point == name);
        out.check(row.is_some_and(|r| same_metrics(r, &metrics)), || {
            format!("evaluate_point({name}) differs from its run_dse row")
        });
        let key = p.suite_key(&settings);
        let (written, secs) = span("record_point", &[], || {
            journal::record_point(&scratch, &key, &name, &metrics)
        });
        written?;
        record_us.push(secs * 1e6);
        let ((), secs) = span("verified_read", &[], || {
            if let Ok(bytes) = std::fs::read(dir.join(journal::point_cache_rel(&key))) {
                std::hint::black_box(checksum_hex(&bytes));
            }
        });
        read_us.push(secs * 1e6);
    }
    layers.set("dse.point_ms_p50", point_ms.median());
    layers.set("dse.point_ms_max", point_ms.max());
    layers.set("journal.record_us", record_us.median());
    layers.set("journal.verified_read_us", read_us.median());

    // Per geometry: rig builds, unknowns, step cost, and (on the
    // cross-layer point) the controller update.
    for p in per_geometry(&op.cold.points) {
        let kind = p.pds.kind(p.area);
        layers::set_rig_layers(layers, kind, p.stack);
        let ((taken, _, secs, back), _) =
            span("rig_steps", &[("stack", p.stack.to_string())], || {
                pde_replica(p, &settings, ws)
            });
        ws = back;
        if taken > 0 {
            layers.set(
                &format!("vs-circuit.step_ns.{}", p.stack),
                secs * 1e9 / taken as f64,
            );
        }
    }
    let cross = op
        .cold
        .points
        .iter()
        .find(|p| p.stack == StackGeometry::PAPER && p.pds == PdsFamily::Cross);
    if let Some(p) = cross {
        let (ns, _) = span("controller_updates", &[], || controller_update_ns(p, ws));
        layers.set("vs-control.update_ns", ns);
    }
    detail.push((
        "sampled_points".to_string(),
        Json::from(sample.len() as u64),
    ));
    Ok(())
}

fn same_metrics(row: &DsePointRow, m: &PointMetrics) -> bool {
    row.pde.to_bits() == m.pde.to_bits()
        && row.worst_v.to_bits() == m.worst_v.to_bits()
        && row.final_v.to_bits() == m.final_v.to_bits()
}

/// Mean wall nanoseconds of `VoltageController::update` on the rig
/// voltages of a cross-layer point, configured as the worst-case run
/// configures it.
fn controller_update_ns(point: &ConfigPoint, ws: SolverWorkspace) -> f64 {
    let n_sms = point.stack.n_sms() as usize;
    let mut rig = PdsRig::with_params_in(
        point.pds.kind(point.area),
        &point.stack.pdn_params(),
        1.0 / CLOCK_HZ,
        0.08,
        ws,
    );
    let mut ctrl = VoltageController::new(ControllerConfig {
        v_threshold: point.vth,
        weights: point.weights,
        latency_cycles: point.latency,
        detector: point.detector,
        ..ControllerConfig::default()
    });
    let loads = vec![P_SM_NOMINAL_W * point.workload; n_sms];
    let zeros = vec![0.0; n_sms];
    let mut voltages = Vec::with_capacity(n_sms);
    let (mut total, mut calls) = (0.0, 0u32);
    for _ in 0..2000 {
        if rig.step(&loads, &zeros, &zeros).is_err() {
            break;
        }
        rig.sm_voltages_into(&mut voltages);
        let t0 = std::time::Instant::now();
        std::hint::black_box(ctrl.update(&voltages));
        total += t0.elapsed().as_secs_f64();
        calls += 1;
    }
    if calls == 0 {
        0.0
    } else {
        total * 1e9 / f64::from(calls)
    }
}
