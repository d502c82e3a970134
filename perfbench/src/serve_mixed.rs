//! `serve_mixed`: one in-process `Server` driven through
//! `Server::handle_line` — the entry point the stdio and TCP framers both
//! call — by a closed loop of two clients.
//!
//! Each round opens a fresh copy of a pre-filled store snapshot (built once
//! per code digest by a child process, untimed), so every round starts
//! from the same store; `Server::open`, the restart cost a user pays, is
//! the set-up. A round then has two timed phases:
//!
//! - the mixed phase: a seeded stream of `point` and `experiment`
//!   requests with Zipf-skewed popularity. Snapshot items answer warm by
//!   checksum-verified reads; each client also first-requests a few items
//!   of its own that are not stored yet, which run cold and write the
//!   store beside the reads; and both clients request the same cold point
//!   at a barrier, so the second joins the computation already in flight.
//!   Its cold co-simulation gives `sim_cycles_per_s`.
//! - the warm phase: a longer Zipf stream over everything now stored, with
//!   no co-simulation at all — the store, journal and JSON path, whose
//!   wall time is the workload's `wall_s`.
//!
//! The traffic mix is an assumption, not a measurement (no request log of
//! the server exists): Zipf popularity with exponent 1.1 is the usual
//! model of cache traffic, and the cold share follows the stated purpose
//! of the workload, that most requests do no co-simulation.
//!
//! Which request answers `cached` and which `running` is fixed by the
//! stream, not by timing, so the hit count is exact given the seed.
//! Correctness: every response follows accepted → cached|running → done
//! with the expected provenance, no `degraded` event, every `done` line
//! for an item byte-identical across clients, rounds and runs, and the
//! round runs exactly one suite per distinct cold point — so the duplicate
//! must have joined.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use vs_bench::serve::{ServeOptions, Server};
use vs_bench::space::ConfigPoint;
use vs_bench::{journal, obs, shard, ExperimentId, RunSettings};
use vs_core::{PdsKind, PowerManagement, StackGeometry};
use vs_telemetry::json::{self, Json};
use vs_telemetry::{checksum_hex, fnv1a_64, RequestEvent};

use crate::harness::{
    copy_dir, dir_bytes, fresh_dir, settle_writes, setup, span, Ctx, Lap, Outcome, Rng, Samples,
    Size, Stopwatch,
};
use crate::layers::{self, Layers, Replay};

/// Concurrent clients.
const CLIENTS: usize = 2;

/// Measurement budget per round, seconds: `--seconds 20` buys seven rounds
/// (each about 3.5 s of requests plus the opens on the two-core reference
/// host). The host's speed changes within seconds, so the per-run medians
/// need rounds spread over the whole run.
const NOMINAL_ROUND_S: f64 = 3.0;

/// `Server::open` repetitions per round (each replays the snapshot's
/// journal; the last one serves the round).
const OPEN_REPS: usize = 8;

/// Zipf exponent of item popularity.
const ZIPF_S: f64 = 1.1;

/// Share of warm requests that name a point; the rest name an experiment.
/// Fixed, so that the seed picks items but never the mix of kinds (a
/// warm point and a warm experiment differ in cost).
const POINT_SHARE: f64 = 0.6;

/// The shape of one round's stream.
struct Shape {
    /// Mixed-phase requests per client.
    requests: usize,
    /// Warm-phase requests per client.
    warm_requests: usize,
    /// Snapshot points (warm in every round).
    warm_points: usize,
    /// Snapshot experiments.
    warm_experiments: &'static [ExperimentId],
    /// Private cold points per client.
    cold_points: usize,
    /// Private cold experiments per client (drawn from `COLD_EXPERIMENTS`).
    cold_experiments: usize,
    /// Cold points both clients request at a barrier.
    shared_points: usize,
}

/// Cheap analytic experiments that may run cold.
const COLD_EXPERIMENTS: [ExperimentId; 4] = [
    ExperimentId::Fig3,
    ExperimentId::Fig9,
    ExperimentId::AblationDetector,
    ExperimentId::AblationIntegration,
];

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            requests: 200,
            warm_requests: 12_000,
            warm_points: 8,
            warm_experiments: &[
                ExperimentId::Table1,
                ExperimentId::Table2,
                ExperimentId::Fig5,
                ExperimentId::Fig8,
                ExperimentId::Fig14,
            ],
            cold_points: 2,
            cold_experiments: 1,
            shared_points: 1,
        },
        Size::Tiny => Shape {
            requests: 20,
            warm_requests: 40,
            warm_points: 2,
            warm_experiments: &[ExperimentId::Table1, ExperimentId::Table2],
            cold_points: 1,
            cold_experiments: 1,
            shared_points: 1,
        },
    }
}

fn settings(size: Size) -> RunSettings {
    match size {
        Size::Full => RunSettings::golden_profile(),
        Size::Tiny => RunSettings::tiny_profile(),
    }
}

/// The point universe: cross-layer 4x4 configurations, which cost about
/// the same to compute whichever is drawn.
fn universe() -> Vec<ConfigPoint> {
    let spec = "stack=4x4,area=0.1|0.2|0.4|0.8|1.2|1.72,pds=cross,vth=0.88|0.9,\
                latency=30|60|90|120,weights=1:0:0|0.6:0:0.4|0.4:0.2:0.4";
    spec.parse::<vs_bench::space::AxisSpace>()
        .expect("the serve point universe parses")
        .points()
}

/// One item a request can name.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    Point(usize, String),
    Experiment(ExperimentId),
}

impl Item {
    fn id(&self) -> String {
        match self {
            Item::Point(i, _) => format!("p{i}"),
            Item::Experiment(e) => format!("e-{}", e.name()),
        }
    }

    fn line(&self) -> String {
        match self {
            Item::Point(_, p) => Json::obj([
                ("id", Json::from(self.id())),
                ("kind", Json::from("point")),
                ("point", Json::from(p.as_str())),
            ]),
            Item::Experiment(e) => Json::obj([
                ("id", Json::from(self.id())),
                ("kind", Json::from("experiment")),
                ("experiment", Json::from(e.name())),
            ]),
        }
        .to_string_compact()
    }

    fn is_point(&self) -> bool {
        matches!(self, Item::Point(..))
    }
}

/// The items the snapshot holds: fixed, independent of the seed.
fn snapshot_items(shape: &Shape) -> Vec<Item> {
    let points = universe();
    let mut order: Vec<usize> = (0..points.len()).collect();
    Rng::new(0, "serve-snapshot").shuffle(&mut order);
    let mut items: Vec<Item> = order[..shape.warm_points]
        .iter()
        .map(|&i| Item::Point(i, points[i].to_string()))
        .collect();
    items.extend(shape.warm_experiments.iter().map(|&e| Item::Experiment(e)));
    items
}

/// One step of a client's stream.
#[derive(Debug, Clone)]
struct Step {
    item: Item,
    /// Whether the response must say `cached` (else `running`).
    warm: bool,
    /// Whether both clients meet at a barrier before this request.
    barrier: bool,
}

/// One client's requests: the mixed phase, then the warm phase.
#[derive(Debug, Clone)]
struct Plan {
    mixed: Vec<Step>,
    warm: Vec<Step>,
}

/// Draws from `ranked` (most popular first) with Zipf-skewed weights.
fn zipf<'a>(rng: &mut Rng, ranked: &[&'a Item]) -> &'a Item {
    let weights: Vec<f64> = (0..ranked.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let mut x = rng.unit() * weights.iter().sum::<f64>();
    for (r, w) in weights.iter().enumerate() {
        if x < *w {
            return ranked[r];
        }
        x -= w;
    }
    ranked[ranked.len() - 1]
}

/// Draws a warm request: its kind with fixed odds, then an item of that
/// kind from `ranked` (most popular first) with Zipf-skewed weights.
fn draw<'a>(rng: &mut Rng, ranked: &[&'a Item]) -> &'a Item {
    let want_point = rng.unit() < POINT_SHARE;
    let of_kind: Vec<&'a Item> = ranked
        .iter()
        .copied()
        .filter(|i| i.is_point() == want_point)
        .collect();
    zipf(rng, if of_kind.is_empty() { ranked } else { &of_kind })
}

/// The seeded plans, one per client.
fn streams(seed: u64, shape: &Shape) -> Vec<Plan> {
    let points = universe();
    let warm = snapshot_items(shape);
    let stored: Vec<usize> = warm
        .iter()
        .filter_map(|i| match i {
            Item::Point(k, _) => Some(*k),
            Item::Experiment(_) => None,
        })
        .collect();
    let mut pool: Vec<usize> = (0..points.len()).filter(|k| !stored.contains(k)).collect();
    let mut alloc = Rng::new(seed, "serve-cold");
    alloc.shuffle(&mut pool);
    let mut exps = COLD_EXPERIMENTS.to_vec();
    alloc.shuffle(&mut exps);
    let point = |k: usize| Item::Point(k, points[k].to_string());
    let shared: Vec<Item> = pool[CLIENTS * shape.cold_points..][..shape.shared_points]
        .iter()
        .map(|&k| point(k))
        .collect();
    // Everything stored once the mixed phase is over.
    let mut stored_after: Vec<Item> = warm.clone();
    stored_after.extend(
        pool[..CLIENTS * shape.cold_points + shape.shared_points]
            .iter()
            .map(|&k| point(k)),
    );
    stored_after.extend(
        exps[..CLIENTS * shape.cold_experiments]
            .iter()
            .map(|&e| Item::Experiment(e)),
    );

    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed, &format!("serve-client-{c}"));
            // Cold first requests in the same order of kinds for every
            // client and seed — points and experiments alternating, the
            // shared points at fixed event indices — so that the seed picks
            // which items run cold but never how much cold work overlaps.
            let mut points_c = pool[c * shape.cold_points..][..shape.cold_points]
                .iter()
                .map(|&k| point(k));
            let mut exps_c = exps[c * shape.cold_experiments..][..shape.cold_experiments]
                .iter()
                .map(|&e| Item::Experiment(e));
            let mut events: Vec<(Item, bool)> = Vec::new();
            loop {
                let (p, e) = (points_c.next(), exps_c.next());
                if p.is_none() && e.is_none() {
                    break;
                }
                events.extend(p.into_iter().chain(e).map(|i| (i, false)));
            }
            for (j, item) in shared.iter().enumerate() {
                let at = ((j + 1) * events.len()) / (shared.len() + 1);
                events.insert(at.min(events.len()), (item.clone(), true));
            }
            let k = events.len();
            let slots: Vec<usize> = (0..k)
                .map(|j| ((2 * j + 1) * shape.requests) / (2 * k))
                .collect();

            // Popularity: a seeded ranking of every item this client can
            // name; each warm draw picks among the items already visible.
            let mut ranked: Vec<Item> = warm.clone();
            ranked.extend(events.iter().map(|(i, _)| i.clone()));
            rng.shuffle(&mut ranked);
            let mut visible: Vec<Item> = warm.clone();
            let mut steps = Vec::with_capacity(shape.requests);
            let mut next_event = 0;
            for slot in 0..shape.requests {
                if next_event < k && slots[next_event] == slot {
                    let (item, barrier) = events[next_event].clone();
                    next_event += 1;
                    visible.push(item.clone());
                    steps.push(Step {
                        item,
                        warm: false,
                        barrier,
                    });
                    continue;
                }
                let candidates: Vec<&Item> =
                    ranked.iter().filter(|i| visible.contains(i)).collect();
                steps.push(Step {
                    item: draw(&mut rng, &candidates).clone(),
                    warm: true,
                    barrier: false,
                });
            }

            let mut rng = Rng::new(seed, &format!("serve-warm-{c}"));
            let mut ranked: Vec<&Item> = stored_after.iter().collect();
            rng.shuffle(&mut ranked);
            let warm_steps = (0..shape.warm_requests)
                .map(|_| Step {
                    item: draw(&mut rng, &ranked).clone(),
                    warm: true,
                    barrier: false,
                })
                .collect();
            Plan {
                mixed: steps,
                warm: warm_steps,
            }
        })
        .collect()
}

/// Scenario tasks a round must run: one suite per distinct cold point
/// (the cold experiments are analytic). A duplicate that failed to join
/// the computation in flight would add a suite.
fn expected_tasks(plans: &[Plan], size: Size) -> u64 {
    let settings = settings(size);
    let mut keys = Vec::new();
    for step in plans.iter().flat_map(|p| &p.mixed) {
        if let (Item::Point(_, text), false) = (&step.item, step.warm) {
            let key = text
                .parse::<ConfigPoint>()
                .expect("stream points parse")
                .suite_key(&settings);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys.len() as u64 * vs_core::ScenarioId::ALL.len() as u64
}

/// One answered request.
#[derive(Debug)]
struct Answer {
    point: bool,
    warm: bool,
    secs: f64,
    /// What was wrong with the response; empty when it was correct.
    problems: Vec<String>,
}

/// The snapshot store for this code digest and size, built by a child
/// process on first use (so neither its time nor its memory counts).
fn snapshot(ctx: &Ctx) -> io::Result<PathBuf> {
    let dir = ctx
        .work
        .join("serve-snapshot")
        .join(format!("{}-{}", ctx.code, ctx.size.name()));
    let store = dir.join("store");
    if dir.join("ready").is_file() {
        return Ok(store);
    }
    let tmp = ctx
        .work
        .join("serve-snapshot")
        .join(format!("tmp-{}", std::process::id()));
    fresh_dir(&tmp)?;
    eprintln!(
        "[perfbench] building the serve snapshot for code {} (untimed)",
        ctx.code
    );
    let status = Command::new(std::env::current_exe()?)
        .args(["build-snapshot", "--dir"])
        .arg(tmp.join("store"))
        .args(["--size", ctx.size.name()])
        .current_dir(&ctx.root)
        .status()?;
    if !status.success() {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(io::Error::other(format!("snapshot build failed: {status}")));
    }
    std::fs::write(tmp.join("ready"), b"ok\n")?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir)?;
    Ok(store)
}

/// The child-process half of [`snapshot`]: fills `store` with every
/// snapshot item, two clients at a time.
pub fn build_snapshot(store: &Path, size: Size) -> io::Result<()> {
    obs::set_progress(obs::ProgressMode::Off);
    let server = Server::open(&ServeOptions {
        store: store.to_path_buf(),
        settings: settings(size),
    })?;
    let items = snapshot_items(&shape(size));
    let failed = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, items, failed) = (&server, &items, &failed);
            scope.spawn(move || {
                for item in items.iter().skip(c).step_by(CLIENTS) {
                    let mut buf = Vec::new();
                    let ok = server.handle_line(&item.line(), &mut buf).is_ok()
                        && String::from_utf8_lossy(&buf)
                            .lines()
                            .last()
                            .is_some_and(|l| l.contains("\"done\""));
                    if !ok {
                        failed.lock().expect("failure list").push(item.id());
                    }
                }
            });
        }
    });
    let failed = failed.into_inner().expect("failure list");
    if failed.is_empty() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "snapshot items failed: {failed:?}"
        )))
    }
}

/// Sends one request and checks its response stream.
fn ask(server: &Server, step: &Step, done_lines: &Mutex<HashMap<String, String>>) -> Answer {
    let mut buf = Vec::new();
    let line = step.item.line();
    let t0 = Instant::now();
    let (sent, _) = span("Server::handle_line", &[("req", step.item.id())], || {
        server.handle_line(&line, &mut buf)
    });
    let secs = t0.elapsed().as_secs_f64();
    let id = step.item.id();
    let mut problems = Vec::new();
    let text = String::from_utf8_lossy(&buf).into_owned();
    let lines: Vec<&str> = text.lines().collect();
    let stages: Vec<String> = lines
        .iter()
        .map(|l| {
            json::parse(l)
                .ok()
                .as_ref()
                .and_then(RequestEvent::from_json)
                .map_or_else(|| "?".to_string(), |e| e.stage)
        })
        .collect();
    let want = if step.warm { "cached" } else { "running" };
    if sent.is_err() || stages != ["accepted", want, "done"] {
        problems.push(format!(
            "{id}: expected accepted/{want}/done, got {stages:?}"
        ));
    }
    if let Some(done) = lines
        .last()
        .filter(|_| stages.last().is_some_and(|s| s == "done"))
    {
        let mut seen = done_lines.lock().expect("done-line map");
        match seen.get(&id) {
            Some(first) if first != done => {
                problems.push(format!("{id}: done line differs from the first answer"))
            }
            Some(_) => {}
            None => {
                seen.insert(id.clone(), (*done).to_string());
            }
        }
    }
    Answer {
        point: step.item.is_point(),
        warm: step.warm,
        secs,
        problems,
    }
}

/// What one round measured.
struct Round {
    /// The mixed phase.
    lap: Lap,
    /// The warm phase.
    warm_lap: Lap,
    /// Answers of both phases.
    answers: Vec<Answer>,
    /// How many of them the warm phase gave.
    warm_answers: usize,
    tasks: u64,
    dc_hits: u64,
    cold_cycles: u64,
    cold_instructions: u64,
    bytes: u64,
    dir: PathBuf,
}

/// Runs one phase: each client sends its stream in a closed loop.
fn phase(
    server: &Server,
    streams: &[&[Step]],
    name: &str,
    done_lines: &Mutex<HashMap<String, String>>,
) -> (Vec<Answer>, Lap) {
    let barrier = Barrier::new(CLIENTS);
    let watch = Stopwatch::start();
    let results: Vec<Vec<Answer>> = span(name, &[], || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut answers = Vec::with_capacity(stream.len());
                        for step in stream.iter() {
                            if step.barrier {
                                barrier.wait();
                            }
                            answers.push(ask(server, step, done_lines));
                        }
                        answers
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client panicked"))
                .collect()
        })
    })
    .0;
    (results.into_iter().flatten().collect(), watch.lap())
}

#[allow(clippy::too_many_arguments)]
fn round(
    ctx: &Ctx,
    k: usize,
    snapshot_store: &Path,
    base: (u64, u64, u64),
    plans: &[Plan],
    expected_tasks: u64,
    done_lines: &Mutex<HashMap<String, String>>,
    out: &mut Outcome,
) -> io::Result<Round> {
    let dir = ctx.scratch.join(format!("serve-round-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(snapshot_store, &dir)?;
    settle_writes();
    shard::reset_suite_memo_for_tests();
    let opts = ServeOptions {
        store: dir.clone(),
        settings: settings(ctx.size),
    };
    let server = setup(out, OPEN_REPS, "Server::open", || Server::open(&opts))?;
    out.check(server.store_report.damaged == 0, || {
        format!(
            "the snapshot copy had {} damaged entries",
            server.store_report.damaged
        )
    });
    let before = shard::shard_stats();
    let mixed: Vec<&[Step]> = plans.iter().map(|p| p.mixed.as_slice()).collect();
    let (mut answers, lap) = phase(&server, &mixed, "serve_mixed_phase", done_lines);
    let after = shard::shard_stats();
    let tasks = after.scenario_tasks - before.scenario_tasks;
    out.check(tasks == expected_tasks, || {
        format!("the mixed phase ran {tasks} scenario tasks, one suite per distinct cold point is {expected_tasks}: a duplicate did not join")
    });
    settle_writes();
    let warm: Vec<&[Step]> = plans.iter().map(|p| p.warm.as_slice()).collect();
    let (warm_answers, warm_lap) = phase(&server, &warm, "serve_warm_phase", done_lines);
    let warm_tasks = shard::shard_stats().scenario_tasks - after.scenario_tasks;
    out.check(warm_tasks == 0, || {
        format!("the warm phase ran {warm_tasks} scenario tasks")
    });
    let warm_n = warm_answers.len();
    answers.extend(warm_answers);
    for a in &answers {
        out.check(a.problems.is_empty(), || a.problems.join("; "));
    }
    // Cold work: what the round added to the store's journal.
    let state = journal::load_resume(server.root())?;
    let (cycles, instructions) = state
        .preloaded
        .values()
        .flatten()
        .fold((0u64, 0u64), |(c, i), (_, r)| {
            (c + r.cycles, i + r.instructions)
        });
    let bytes = dir_bytes(&dir).saturating_sub(base.2);
    drop(server);
    Ok(Round {
        lap,
        warm_lap,
        answers,
        warm_answers: warm_n,
        tasks,
        dc_hits: after.dc_cache_hits - before.dc_cache_hits,
        cold_cycles: cycles - base.0,
        cold_instructions: instructions - base.1,
        bytes,
        dir,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome, layers: &mut Layers) -> io::Result<Json> {
    let snapshot_store = snapshot(ctx)?;
    let shape = shape(ctx.size);
    let plans = streams(ctx.seed, &shape);
    let expected_tasks = expected_tasks(&plans, ctx.size);
    // The snapshot's own journaled work, subtracted from every round.
    let fingerprint = vs_bench::serve::code_fingerprint();
    let snap_state = journal::load_resume(&snapshot_store.join(&fingerprint))?;
    let base = snap_state
        .preloaded
        .values()
        .flatten()
        .fold((0u64, 0u64), |(c, i), (_, r)| {
            (c + r.cycles, i + r.instructions)
        });
    let base = (base.0, base.1, dir_bytes(&snapshot_store));
    let done_lines = Mutex::new(HashMap::new());
    // Only the first round is kept: it is the traced run's untraced
    // reference, and later rounds' answers would only swell the peak RSS.
    let mut first: Option<Round> = None;
    let rounds_n = ctx.ops(NOMINAL_ROUND_S);
    for k in 0..rounds_n {
        let traced = ctx.trace && k == 1;
        obs::reset_observability_for_tests();
        obs::set_tracing(traced);
        let r = round(
            ctx,
            k,
            &snapshot_store,
            base,
            &plans,
            expected_tasks,
            &done_lines,
            out,
        );
        obs::set_tracing(false);
        let r = r?;
        let hits = r.answers.iter().filter(|a| a.warm).count() as u64;
        out.count("serve.requests", r.answers.len() as u64);
        out.count("serve.hits", hits);
        out.count("shard.tasks", r.tasks);
        out.count("vs-gpu.sim_cycles", r.cold_cycles);
        out.count("vs-gpu.sim_instructions", r.cold_instructions);
        if !traced {
            out.lap("wall_s", "s", 1.0, r.warm_lap);
            out.lap("mixed_s", "s", 1.0, r.lap);
            out.sample("sim_cycles_per_s", "1/s", r.cold_cycles as f64 / r.lap.net);
            for a in &r.answers {
                let (name, x) = match (a.warm, a.point) {
                    (true, _) => ("warm_ms", a.secs * 1e3),
                    (false, true) => ("cold_point_ms", a.secs * 1e3),
                    (false, false) => ("cold_experiment_ms", a.secs * 1e3),
                };
                out.sample(name, "ms", x);
            }
        }
        if traced {
            let mut events = obs::drain_trace();
            obs::set_tracing(true);
            let measured = traced_layers(
                ctx,
                &snapshot_store,
                &r,
                first.as_ref().expect("the untraced round runs first"),
                &events,
                layers,
            );
            obs::set_tracing(false);
            events.extend(obs::drain_trace());
            measured?;
            crate::write_trace(ctx, "serve_mixed", &events);
        }
        let _ = std::fs::remove_dir_all(&r.dir);
        first.get_or_insert(r);
    }
    let digest = {
        let map = done_lines.lock().expect("done-line map");
        let mut lines: Vec<&String> = map.values().collect();
        lines.sort();
        fnv1a_64(
            lines
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("\n")
                .as_bytes(),
        )
    };
    out.count("done_digest", digest);
    out.metric("setup_s", out.samples("setup_s").median(), "s");
    out.metric("wall_s", out.samples("wall_s").median(), "s");
    out.metric("warm_p50_ms", out.samples("warm_ms").median(), "ms");
    out.metric(
        "sim_cycles_per_s",
        out.samples("sim_cycles_per_s").median(),
        "1/s",
    );
    let requests = first.as_ref().map_or(0, |r| r.answers.len()) as u64;
    let warm_requests = first.as_ref().map_or(0, |r| r.warm_answers) as f64;
    let detail = vec![
        ("clients".to_string(), Json::from(CLIENTS as u64)),
        ("rounds".to_string(), Json::from(rounds_n as u64)),
        ("requests_per_round".to_string(), Json::from(requests)),
        (
            "warm_phase_req_per_s".to_string(),
            Json::from(warm_requests / out.samples("wall_s").median().max(1e-9)),
        ),
    ];
    Ok(Json::obj(detail))
}

/// Nearest-rank percentile of `s` (0 when empty).
fn percentile(s: &Samples, p: f64) -> f64 {
    let mut v = s.0.clone();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn traced_layers(
    ctx: &Ctx,
    snapshot_store: &Path,
    traced: &Round,
    untraced: &Round,
    events: &[vs_telemetry::TraceEvent],
    layers: &mut Layers,
) -> io::Result<()> {
    layers.set(
        "trace_overhead",
        traced.warm_lap.net / untraced.warm_lap.net,
    );
    // Request figures from the untraced round.
    let pick = |warm: bool, point: Option<bool>| -> Samples {
        Samples(
            untraced
                .answers
                .iter()
                .filter(|a| a.warm == warm && point.is_none_or(|p| a.point == p))
                .map(|a| a.secs)
                .collect(),
        )
    };
    // Hit ratios and joins describe the mixed phase: the warm phase hits
    // by construction.
    let mixed = &untraced.answers[..untraced.answers.len() - untraced.warm_answers];
    let n = mixed.len() as f64;
    let hits = mixed.iter().filter(|a| a.warm).count() as f64;
    layers.set("serve.requests", n);
    layers.set("serve.hit_ratio", hits / n.max(1.0));
    layers.set("serve.warm_point_us", pick(true, Some(true)).median() * 1e6);
    layers.set(
        "serve.warm_experiment_us",
        pick(true, Some(false)).median() * 1e6,
    );
    layers.set(
        "serve.warm_p99_ms",
        percentile(&pick(true, None), 99.0) * 1e3,
    );
    layers.set(
        "serve.cold_point_ms",
        pick(false, Some(true)).median() * 1e3,
    );
    layers.set(
        "serve.req_per_s",
        untraced.warm_answers as f64 / untraced.warm_lap.net,
    );
    let cold_points = mixed.iter().filter(|a| !a.warm && a.point).count() as u64;
    let suites = untraced.tasks / vs_core::ScenarioId::ALL.len() as u64;
    layers.set("serve.joins", cold_points.saturating_sub(suites) as f64);
    let point_requests = mixed.iter().filter(|a| a.point).count() as f64;
    if point_requests > 0.0 {
        layers.set(
            "shard.memo_hit_ratio",
            (point_requests - suites as f64) / point_requests,
        );
    }
    layers.set("vs-gpu.sim_cycles", untraced.cold_cycles as f64);
    layers.set("vs-gpu.sim_instructions", untraced.cold_instructions as f64);
    layers.set("vs-circuit.dc_cache_base_runs", traced.tasks as f64);
    if traced.tasks > 0 {
        layers.set(
            "vs-circuit.dc_cache_hit_ratio",
            traced.dc_hits as f64 / traced.tasks as f64,
        );
    }

    let window = layers::bench_window(events, "serve_mixed_phase").unwrap_or((0, 0));
    let exec = layers::executor_stats(events, CLIENTS, window, &["Server::handle_line"]);
    layers::set_executor_layers(layers, &exec);

    // Journal: what the round wrote, a replay of the snapshot, and
    // checksum-verified reads of the stored experiments.
    layers.set("journal.bytes_written", traced.bytes as f64);
    let root = snapshot_store.join(vs_bench::serve::code_fingerprint());
    let (state, secs) = span("load_resume", &[], || journal::load_resume(&root));
    state?;
    layers.set("journal.replay_ms", secs * 1e3);
    let mut reads = Samples::default();
    if let Ok(entries) = std::fs::read_dir(root.join("experiments")) {
        for entry in entries.flatten() {
            let ((), secs) = span("verified_read", &[], || {
                if let Ok(bytes) = std::fs::read(entry.path()) {
                    std::hint::black_box(checksum_hex(&bytes));
                }
            });
            reads.push(secs * 1e6);
        }
    }
    layers.set("journal.verified_read_us", reads.median());

    // Stage costs: replay one cold point's suite from the round's journal.
    let shape = shape(ctx.size);
    let stream = &streams(ctx.seed, &shape)[0].mixed;
    let cold = stream.iter().find_map(|s| match &s.item {
        Item::Point(_, p) if !s.warm => p.parse::<ConfigPoint>().ok(),
        _ => None,
    });
    if let Some(point) = cold {
        let settings = settings(ctx.size);
        let cfg = point.apply(&settings.config(point.pds.kind(point.area)));
        let pm = PowerManagement::default();
        let mut replay = Replay::default();
        for id in vs_core::ScenarioId::ALL {
            replay.run(&cfg, &pm, id, None);
        }
        replay.set_layers(layers);
    }
    layers::set_rig_layers(
        layers,
        PdsKind::VsCrossLayer { area_mult: 0.2 },
        StackGeometry::PAPER,
    );
    Ok(())
}
