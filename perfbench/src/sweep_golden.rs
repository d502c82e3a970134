//! `sweep_golden`: the full 20-experiment catalogue at the golden profile,
//! two workers, journaling into the output directory as `sweep run --out`
//! does by default — what a user regenerating the paper waits on.
//!
//! One operation is a cold sweep (`run_sweep` + writing the artifacts),
//! followed by a warm one: `sweep run --resume` on the finished directory,
//! which replays every scenario from the journal. The set-up is that
//! resume's restart cost, `journal::load_resume` of the finished directory
//! (checksum-verified replay of every scenario record), repeated so that
//! `setup_s` is a median. Correctness: no failed
//! experiment or quarantined task, the 13 headline claims, the golden diff
//! under `goldens/tolerances.json` at seed 42, byte-identical artifacts
//! between the cold and the warm sweep, and exact counts that repeat.

use std::io;
use std::path::Path;

use vs_bench::claims::check_claims;
use vs_bench::sweep::{run_sweep, SweepOptions, SweepResult};
use vs_bench::{journal, obs, pds_configs, shard, ExperimentId, RunSettings};
use vs_core::{PowerManagement, StackGeometry};
use vs_telemetry::json::Json;
use vs_telemetry::{checksum_hex, diff_artifacts, fnv1a_64, RunArtifact, ToleranceSpec};

use crate::harness::{
    dir_bytes, fresh_dir, settle_writes, setup, span, Ctx, Lap, Outcome, Samples, Size, Stopwatch,
};
use crate::layers::{self, Layers, Replay};

/// Set-up (`journal::load_resume`) repetitions before and again after each
/// warm sweep. The host's speed changes within seconds, so the samples of
/// one run are taken at four moments, not in one burst.
const SETUP_REPS: usize = 15;

/// Worker threads: `sweep run --jobs 2`, one per core of the two-core
/// reference host.
const JOBS: usize = 2;

/// Measurement budget per operation, seconds: `--seconds 20` buys two
/// cold + warm sweeps (each about 16 s on the two-core reference host).
const NOMINAL_OP_S: f64 = 10.0;

/// The blessed reference: golden artifacts and the tolerance spec.
struct Goldens {
    artifacts: Vec<(ExperimentId, RunArtifact)>,
    spec: ToleranceSpec,
}

fn load_goldens(root: &Path) -> io::Result<Goldens> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let dir = root.join("goldens");
    let spec = ToleranceSpec::from_json_str(&std::fs::read_to_string(dir.join("tolerances.json"))?)
        .map_err(|e| bad(format!("goldens/tolerances.json: {e}")))?;
    let mut artifacts = Vec::new();
    for id in ExperimentId::ALL {
        let text = std::fs::read_to_string(dir.join(format!("{}.jsonl", id.name())))?;
        let artifact = RunArtifact::parse_jsonl(&text)
            .map_err(|e| bad(format!("golden {}: {e}", id.name())))?;
        artifacts.push((id, artifact));
    }
    Ok(Goldens { artifacts, spec })
}

/// FNV digest of every artifact's deterministic bytes, in canonical order.
fn artifacts_digest(result: &SweepResult) -> u64 {
    let mut text = String::new();
    for run in &result.runs {
        text.push_str(run.id.name());
        text.push('\n');
        text.push_str(&run.output.artifact.to_jsonl());
    }
    fnv1a_64(text.as_bytes())
}

/// The experiments a run sweeps: the whole catalogue, or at smoke size a
/// handful that still share suites (fig8 and table3 request the same four).
fn only(ctx: &Ctx) -> Option<Vec<ExperimentId>> {
    (ctx.size == Size::Tiny).then(|| {
        vec![
            ExperimentId::Table1,
            ExperimentId::Fig5,
            ExperimentId::Fig8,
            ExperimentId::Fig9,
            ExperimentId::Table3,
        ]
    })
}

fn settings(ctx: &Ctx) -> RunSettings {
    let mut s = match ctx.size {
        Size::Full => RunSettings::golden_profile(),
        Size::Tiny => RunSettings::tiny_profile(),
    };
    s.seed = ctx.seed;
    s
}

/// What one cold + warm operation measured.
struct Op {
    cold: SweepResult,
    cold_lap: Lap,
    warm_lap: Lap,
    cycles: u64,
    /// Journal replay time inside the warm sweep, seconds.
    replay_s: f64,
    /// Bytes the cold sweep left in its output directory.
    bytes: u64,
}

fn sweep_once(
    dir: &Path,
    settings: RunSettings,
    only: Option<Vec<ExperimentId>>,
    out: &mut Outcome,
) -> io::Result<Op> {
    let opts = SweepOptions {
        jobs: JOBS,
        only,
        settings,
        journal_dir: Some(dir.to_path_buf()),
        ..SweepOptions::default()
    };
    let watch = Stopwatch::start();
    let ((cold, written), _) = span("run_sweep", &[], || {
        let result = run_sweep(&opts);
        let written = result.write_to(dir);
        (result, written)
    });
    let cold_lap = watch.lap();
    written?;
    let bytes = dir_bytes(dir);

    // Set-up of the warm sweep, once the cold sweep's writes have settled:
    // the journal replay `sweep run --resume` performs before its first
    // scenario, timed on its own.
    settle_writes();
    let load = || journal::load_resume(dir);
    setup(out, SETUP_REPS, "load_resume", load)?;

    // Warm: `sweep run --resume` on the finished directory.
    shard::reset_suite_memo_for_tests();
    let watch = Stopwatch::start();
    let (resumed, _) = span("resume_sweep", &[], || {
        let (state, replay_s) = span("load_resume", &[], || journal::load_resume(dir));
        let state = state?;
        let reports: Vec<(u64, u64)> = state
            .preloaded
            .values()
            .flatten()
            .map(|(_, r)| (r.cycles, r.instructions))
            .collect();
        shard::install_preloaded_suites(state.preloaded);
        let result = run_sweep(&opts);
        result.write_to(dir)?;
        Ok::<_, io::Error>((result, replay_s, reports))
    });
    let warm_lap = watch.lap();
    let (warm, replay_s, reports) = resumed?;
    setup(out, SETUP_REPS, "load_resume", load)?;

    let failed: Vec<&str> = cold
        .runs
        .iter()
        .filter(|r| r.error.is_some())
        .map(|r| r.id.name())
        .collect();
    out.check(failed.is_empty(), || {
        format!("sweep experiments failed: {failed:?}")
    });
    out.check(cold.quarantined.is_empty(), || {
        format!(
            "sweep quarantined {} scenario task(s)",
            cold.quarantined.len()
        )
    });
    let digest = artifacts_digest(&cold);
    out.check(artifacts_digest(&warm) == digest, || {
        "the resumed sweep's artifacts differ from the cold sweep's".to_string()
    });
    out.check(warm.stats.scenario_tasks == 0, || {
        format!(
            "the resumed sweep recomputed {} scenario task(s)",
            warm.stats.scenario_tasks
        )
    });
    out.check(reports.len() as u64 == cold.stats.scenario_tasks, || {
        format!(
            "the journal verified {} scenario reports, the sweep ran {} tasks",
            reports.len(),
            cold.stats.scenario_tasks
        )
    });
    let cycles: u64 = reports.iter().map(|r| r.0).sum();
    out.count("artifact_digest", digest);
    out.count("shard.tasks", cold.stats.scenario_tasks);
    out.count("vs-gpu.sim_cycles", cycles);
    out.count("vs-gpu.sim_instructions", reports.iter().map(|r| r.1).sum());
    Ok(Op {
        cold,
        cold_lap,
        warm_lap,
        cycles,
        replay_s,
        bytes,
    })
}

/// Checks claims and (at seed 42) the golden diff of one cold sweep.
/// Returns the diff's wall seconds when it ran.
fn check_outputs(
    ctx: &Ctx,
    goldens: &Goldens,
    result: &SweepResult,
    out: &mut Outcome,
) -> Option<f64> {
    if ctx.size == Size::Full {
        let artifacts: Vec<(ExperimentId, &RunArtifact)> = result
            .runs
            .iter()
            .map(|r| (r.id, &r.output.artifact))
            .collect();
        for c in check_claims(&artifacts) {
            out.check(c.pass, || {
                format!("headline claim {} = {:?}", c.claim.name, c.value)
            });
        }
    }
    if !ctx.goldens_apply() {
        return None;
    }
    let (fails, secs) = span(
        "diff_artifacts",
        &[("against", "goldens".to_string())],
        || diff_all(&goldens.artifacts, result, &goldens.spec),
    );
    for (name, pass) in fails {
        out.check(pass, || format!("golden diff failed for {name}"));
    }
    Some(secs)
}

/// Diffs every artifact of `result` against `reference` (canonical order).
fn diff_all(
    reference: &[(ExperimentId, RunArtifact)],
    result: &SweepResult,
    spec: &ToleranceSpec,
) -> Vec<(&'static str, bool)> {
    result
        .runs
        .iter()
        .map(|run| {
            let pass = reference
                .iter()
                .find(|(id, _)| *id == run.id)
                .is_some_and(|(_, g)| diff_artifacts(g, &run.output.artifact, spec).is_pass());
            (run.id.name(), pass)
        })
        .collect()
}

/// Runs the workload: untraced operations for the end-to-end metrics, or
/// one untraced and one traced operation for the per-layer table.
pub fn run(ctx: &Ctx, out: &mut Outcome, layers: &mut Layers) -> io::Result<Json> {
    let settings = settings(ctx);
    let dir = ctx.scratch.join("sweep");
    let mut detail = Vec::new();
    let mut ops = Vec::new();
    let goldens = load_goldens(&ctx.root)?;
    for k in 0..ctx.ops(NOMINAL_OP_S) {
        let traced = ctx.trace && k == 1;
        fresh_dir(&dir)?;
        shard::reset_suite_memo_for_tests();
        obs::reset_observability_for_tests();
        settle_writes();
        obs::set_tracing(traced);
        let op = sweep_once(&dir, settings, only(ctx), out);
        obs::set_tracing(false);
        let op = op?;
        let diff_s = check_outputs(ctx, &goldens, &op.cold, out);
        if !traced {
            out.lap("wall_s", "s", 1.0, op.cold_lap);
            out.lap("warm_ms", "ms", 1e3, op.warm_lap);
            out.sample(
                "sim_cycles_per_s",
                "1/s",
                op.cycles as f64 / op.cold_lap.net,
            );
            if let Some(s) = diff_s {
                out.sample("diff_ms", "ms", s * 1e3);
            }
        }
        if traced {
            let mut events = obs::drain_trace();
            // The census clears the tracer, so it runs before the spans
            // of the layer measurements start recording.
            let (census, census_s) = span("memo_census", &[], || memo_census(settings));
            detail.push(("census_s".to_string(), Json::from(census_s)));
            obs::set_tracing(true);
            let measured = traced_layers(
                settings,
                &dir,
                &op,
                &ops,
                &events,
                census,
                out,
                layers,
                &mut detail,
            );
            obs::set_tracing(false);
            events.extend(obs::drain_trace());
            measured?;
            crate::write_trace(ctx, "sweep_golden", &events);
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
    Ok(Json::Obj(detail))
}

/// The per-layer table from the traced operation (`op`), with the
/// untraced one (`ops[0]`) as the overhead reference.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    settings: RunSettings,
    dir: &Path,
    op: &Op,
    ops: &[Op],
    events: &[vs_telemetry::TraceEvent],
    census: Option<u64>,
    out: &mut Outcome,
    layers: &mut Layers,
    detail: &mut Vec<(String, Json)>,
) -> io::Result<()> {
    let untraced = &ops[0];
    layers.set("trace_overhead", op.cold_lap.net / untraced.cold_lap.net);
    let window = layers::bench_window(events, "run_sweep").unwrap_or((0, 0));
    let exec = layers::executor_stats(events, JOBS, window, &["experiment", "task"]);
    layers::set_executor_layers(layers, &exec);
    layers.set(
        "vs-gpu.sim_cycles",
        out.counts.get("vs-gpu.sim_cycles").copied().unwrap_or(0) as f64,
    );
    layers.set(
        "vs-gpu.sim_instructions",
        out.counts
            .get("vs-gpu.sim_instructions")
            .copied()
            .unwrap_or(0) as f64,
    );
    let stats = op.cold.stats;
    layers.set("vs-circuit.dc_cache_base_runs", stats.scenario_tasks as f64);
    if stats.scenario_tasks > 0 {
        layers.set(
            "vs-circuit.dc_cache_hit_ratio",
            stats.dc_cache_hits as f64 / stats.scenario_tasks as f64,
        );
    }
    let suites = exec.suites;
    if let Some(requests) = census {
        if requests > 0 {
            layers.set(
                "shard.memo_hit_ratio",
                requests.saturating_sub(suites) as f64 / requests as f64,
            );
        }
        detail.push(("suite_requests".to_string(), Json::from(requests)));
    }
    detail.push(("suites_computed".to_string(), Json::from(suites)));

    // Journal: bytes, replay, and checksum-verified reads of the artifacts.
    layers.set("journal.bytes_written", op.bytes as f64);
    layers.set("journal.replay_ms", op.replay_s * 1e3);
    let mut reads = Samples::default();
    for run in &op.cold.runs {
        let path = dir.join(format!("{}.jsonl", run.id.name()));
        let ((), secs) = span("verified_read", &[], || {
            if let Ok(bytes) = std::fs::read(&path) {
                std::hint::black_box(checksum_hex(&bytes));
            }
        });
        reads.push(secs * 1e6);
    }
    layers.set("journal.verified_read_us", reads.median());

    // Diff cost: the traced artifacts against the untraced ones, which
    // also proves tracing changed no artifact.
    let reference: Vec<(ExperimentId, RunArtifact)> = untraced
        .cold
        .runs
        .iter()
        .map(|r| (r.id, r.output.artifact.clone()))
        .collect();
    let (diffs, secs) = span(
        "diff_artifacts",
        &[("against", "untraced".to_string())],
        || diff_all(&reference, &op.cold, &ToleranceSpec::exact()),
    );
    for (name, pass) in diffs {
        out.check(pass, || format!("tracing changed the {name} artifact"));
    }
    layers.set("vs-telemetry.diff_ms", secs * 1e3);

    // Stage costs from outside: replay the four base suites (the table3 /
    // fig8 configurations, all part of the sweep) through the profiler.
    let state = journal::load_resume(dir)?;
    let mut replay = Replay::default();
    for pds in pds_configs() {
        let cfg = settings.config(pds);
        let pm = PowerManagement::default();
        let key = shard::SuiteKey::new(&cfg, &pm);
        let own = state.preloaded.get(&key);
        out.check(own.is_some(), || {
            format!("the {} suite is not among the sweep's runs", pds.label())
        });
        for (id, report) in own.into_iter().flatten() {
            replay.run(&cfg, &pm, *id, Some(report));
        }
    }
    for m in &replay.mismatches {
        out.check(false, || m.clone());
    }
    replay.set_layers(layers);
    detail.push(("replay".to_string(), replay.breakdown()));
    layers::set_rig_layers(
        layers,
        vs_core::PdsKind::ConventionalVrm,
        StackGeometry::PAPER,
    );
    layers::set_rig_layers(
        layers,
        vs_core::PdsKind::VsCrossLayer { area_mult: 0.2 },
        StackGeometry::PAPER,
    );
    Ok(())
}

/// How many suite requests the experiments make when each runs alone:
/// with the memo cleared before every experiment, each distinct suite an
/// experiment asks for is enqueued once. The sweep's memo answers the
/// requests beyond the suites it actually computed. Runs at a profile cut
/// to a few hundred cycles — the suite structure does not depend on run
/// length. `None` if an experiment fails at that length.
fn memo_census(settings: RunSettings) -> Option<u64> {
    let census = RunSettings {
        workload_scale: 0.005,
        max_cycles: 400,
        seed: settings.seed,
    };
    obs::set_tracing(true);
    let mut requests = 0;
    let mut ok = true;
    for id in ExperimentId::ALL {
        shard::reset_suite_memo_for_tests();
        obs::reset_observability_for_tests();
        ok &= shard::isolated(|| id.run(&census)).is_ok();
        requests += obs::drain_trace()
            .iter()
            .filter(|e| e.name == "suite_enqueue")
            .count() as u64;
    }
    obs::set_tracing(false);
    shard::reset_suite_memo_for_tests();
    ok.then_some(requests)
}
