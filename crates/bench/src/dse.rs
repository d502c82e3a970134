//! The design-space-exploration driver: evaluates an [`AxisSpace`]'s cross
//! product — thousands of [`ConfigPoint`]s — running each distinct circuit
//! simulation once, and distills the results into a Pareto-frontier
//! artifact.
//!
//! Each point is defined by two short circuit-level runs on a recycled
//! [`SolverWorkspace`] ([`evaluate_point`]):
//!
//! 1. a **uniform steady-load run** of the point's [`vs_core::PdsRig`] for
//!    power-delivery efficiency (PDE), with the cross-layer family charged
//!    its control overhead (detector power per SM plus a loop power that
//!    scales inversely with the control latency — a faster loop costs more
//!    to run), and
//! 2. the **worst-case layer-gating scenario**
//!    ([`vs_core::run_worst_case_in`]) for the minimum loaded-SM voltage
//!    after the event — the droop the guardband must cover.
//!
//! The frontier is computed over the three objectives the paper trades
//! against each other: **maximize PDE, minimize CR-IVR area, maximize the
//! worst-case voltage**. A point is on the frontier iff no other evaluated
//! point is at least as good in all three and strictly better in one
//! (strict Pareto dominance; exact ties do not dominate each other).
//!
//! Scheduling follows the inputs each half reads, not the points: a
//! point's PDE run reads only its PDS kind, stack, overhead watts, per-SM
//! load and step count ([`PdeRun`]), and a circuit-only worst-case run
//! reads no controller axis ([`WorstCaseConfig::canonical`]). [`plan`]
//! turns the pending points into one [`DseTask`] per distinct PDE run,
//! with the worst-case runs of its points deduplicated by
//! [`WorstCaseConfig::run_key`]; workers claim tasks off one atomic
//! cursor. Keys compare every input exactly, so each row is bit-identical
//! to [`evaluate_point`] of its point. Identity and memoization of points
//! route through [`SuiteKey`]: duplicate points evaluate once, and
//! completed points are journaled ([`crate::journal::record_point`]) so
//! `dse --resume` replays verified metrics instead of recomputing them.
//! Artifacts are bit-identical whatever the worker count or resume
//! history.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vs_circuit::SolverWorkspace;
use vs_core::{run_worst_case_in, PdsKind, PdsRig, StackGeometry, WorstCaseConfig};
use vs_telemetry::{
    labeled, DsePointRow, Event, Registry, RunArtifact, RunManifest, StageSample, SCHEMA_VERSION,
};

use crate::journal;
use crate::obs;
use crate::shard::SuiteKey;
use crate::space::{AxisSpace, ConfigPoint, PdsFamily};
use crate::sweep::effective_jobs;
use crate::RunSettings;

/// The frontier artifact's file name inside a dse output directory.
pub const FRONTIER_FILE: &str = "dse_frontier.jsonl";

/// GPU clock the point evaluations step at (matches the co-simulation).
const CLOCK_HZ: f64 = 700e6;

/// Nominal per-SM load at `workload=1`, watts (the worst-case scenario's
/// steady load).
const P_SM_NOMINAL_W: f64 = 8.0;

/// Cross-layer loop power at the paper's T=60 latency, watts; a faster
/// loop costs proportionally more ([`control_overhead_w`]).
const LOOP_POWER_AT_T60_W: f64 = 0.08;

/// Quiescent/control power of one per-layer charge-recycling IVR domain,
/// watts. Every layer of the stack hosts its own regulation domain in
/// both families, so taller stacks pay more standing loss — the term that
/// balances the taller stack's milder single-layer gating transient and
/// keeps stack height a genuine trade-off instead of a free win.
const IVR_QUIESCENT_PER_LAYER_W: f64 = 0.15;

/// The measured objectives of one evaluated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Power-delivery efficiency under uniform steady load.
    pub pde: f64,
    /// Worst loaded-SM voltage after the gating event, volts.
    pub worst_v: f64,
    /// Loaded-SM voltage at the end of the worst-case run, volts.
    pub final_v: f64,
}

/// What to explore and how.
#[derive(Debug, Clone, Default)]
pub struct DseOptions {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Settings the evaluations run under (the cycle cap scales both run
    /// lengths; the seed travels in the manifest and the [`SuiteKey`]s).
    pub settings: RunSettings,
    /// The design space to enumerate.
    pub space: AxisSpace,
    /// Where to journal completed points for `--resume`; `None` disables
    /// journaling (deterministic/golden runs).
    pub journal_dir: Option<PathBuf>,
    /// Verified metrics replayed from a journal, keyed by
    /// [`SuiteKey::to_hex`] (see [`crate::journal::load_dse_resume`]).
    pub preloaded: HashMap<String, PointMetrics>,
}

/// A completed exploration.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// One row per *unique* configuration, in enumeration order, with
    /// `on_frontier` set.
    pub rows: Vec<DsePointRow>,
    /// The parsed points, parallel to `rows`.
    pub points: Vec<ConfigPoint>,
    /// Points the space enumerated (before [`SuiteKey`] dedup).
    pub enumerated: usize,
    /// Points evaluated in this run (not replayed from a journal).
    pub evaluated: usize,
    /// Points whose metrics replayed from the resume journal.
    pub replayed: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// The settings everything ran under.
    pub settings: RunSettings,
    /// Total wall time, seconds (observational; excluded from
    /// deterministic artifacts).
    pub total_wall_s: f64,
}

/// Overhead power charged to a point's PDE run, watts. Both families pay
/// the per-layer CR-IVR quiescent loss (each layer is its own regulation
/// domain); the cross-layer family additionally pays the detector's
/// per-SM sensing power plus the loop power, scaled by how much faster
/// than T=60 the loop runs.
pub fn control_overhead_w(point: &ConfigPoint) -> f64 {
    let ivr = IVR_QUIESCENT_PER_LAYER_W * point.stack.n_layers as f64;
    match point.pds {
        PdsFamily::Cross => {
            ivr + point.detector.power_w() * point.stack.n_sms() as f64
                + LOOP_POWER_AT_T60_W * 60.0 / point.latency as f64
        }
        PdsFamily::Circuit => ivr,
    }
}

/// Strict Pareto dominance on (PDE ↑, area ↓, worst-case voltage ↑):
/// `a` dominates `b` iff `a` is at least as good in every objective and
/// strictly better in at least one.
pub fn dominates(a: &DsePointRow, b: &DsePointRow) -> bool {
    a.pde >= b.pde
        && a.area_mult <= b.area_mult
        && a.worst_v >= b.worst_v
        && (a.pde > b.pde || a.area_mult < b.area_mult || a.worst_v > b.worst_v)
}

/// Marks each row's frontier membership in place (O(n²) over unique
/// points; the full 1728-point grid is ~3M comparisons of three floats).
pub fn mark_frontier(rows: &mut [DsePointRow]) {
    for i in 0..rows.len() {
        rows[i].on_frontier = !(0..rows.len()).any(|j| j != i && dominates(&rows[j], &rows[i]));
    }
}

/// The inputs of one uniform-load PDE run: everything the first half of
/// [`evaluate_point`] reads. Points that agree on all of them share the
/// run: `vth` and the weights never reach it, and a circuit-only point's
/// controller axes add no overhead power.
#[derive(Debug, Clone, Copy)]
pub struct PdeRun {
    /// PDS kind (family and CR-IVR area).
    pub kind: PdsKind,
    /// Stack geometry.
    pub stack: StackGeometry,
    /// Overhead power charged to the run ([`control_overhead_w`]), watts.
    pub overhead_w: f64,
    /// Uniform per-SM load, watts.
    pub p_sm_w: f64,
    /// Rig steps.
    pub steps: u64,
}

impl PdeRun {
    /// The PDE run of `point` under `settings`. Run length scales with the
    /// settings' cycle cap so profiles shorten dse runs the same way they
    /// shorten suite runs.
    pub fn of(point: &ConfigPoint, settings: &RunSettings) -> PdeRun {
        PdeRun {
            kind: point.pds.kind(point.area),
            stack: point.stack,
            overhead_w: control_overhead_w(point),
            p_sm_w: P_SM_NOMINAL_W * point.workload,
            steps: (settings.max_cycles / 40).clamp(512, 8192),
        }
    }

    /// The run's identity: every input, `f64`s by bit pattern.
    pub fn key(&self) -> Vec<u64> {
        let PdeRun { kind, stack, overhead_w, p_sm_w, steps } = *self;
        let mut key = Vec::with_capacity(7);
        kind.stable_key_into(&mut key);
        stack.stable_key_into(&mut key);
        key.extend([overhead_w.to_bits(), p_sm_w.to_bits(), steps]);
        key
    }

    /// Runs it on a recycled workspace and returns the PDE.
    pub fn run(&self, workspace: SolverWorkspace) -> (f64, SolverWorkspace) {
        let n_sms = self.stack.n_sms() as usize;
        let mut rig = PdsRig::with_params_in(
            self.kind,
            &self.stack.pdn_params(),
            1.0 / CLOCK_HZ,
            self.overhead_w,
            workspace,
        );
        let loads = vec![self.p_sm_w; n_sms];
        let zeros = vec![0.0; n_sms];
        for _ in 0..self.steps {
            // A solver give-up leaves the rig at its last accepted state;
            // the ledger then reflects the truncated run — still a pure
            // function of the inputs, so determinism holds.
            if rig.step(&loads, &zeros, &zeros).is_err() {
                break;
            }
        }
        (rig.ledger().pde(), rig.into_workspace())
    }
}

/// The worst-case gating run of `point`: one layer gates 40% into a run
/// whose length scales with the settings' cycle cap.
fn worst_case_config(point: &ConfigPoint, settings: &RunSettings) -> WorstCaseConfig {
    let droop_steps = (settings.max_cycles / 40).clamp(1024, 3500);
    let duration_s = droop_steps as f64 * (1.0 / CLOCK_HZ);
    WorstCaseConfig {
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
    }
}

/// Evaluates one point on recycled workspaces: the uniform-load PDE run
/// (objective 1), then the worst-case gating run for the droop the
/// guardband must cover (objective 3). Pure in (`point`, `settings`) — the
/// workspaces only save allocations, never change results. This is the
/// reference definition of a point; [`run_dse`] shares runs between points
/// but produces the same bits.
pub fn evaluate_point(
    point: &ConfigPoint,
    settings: &RunSettings,
    workspace: SolverWorkspace,
) -> (PointMetrics, SolverWorkspace) {
    let (pde, workspace) = PdeRun::of(point, settings).run(workspace);
    let (worst, workspace) = run_worst_case_in(&worst_case_config(point, settings), workspace);
    (
        PointMetrics {
            pde,
            worst_v: worst.worst_voltage,
            final_v: worst.final_voltage,
        },
        workspace,
    )
}

/// One unit of dse work: a distinct PDE run, and the distinct worst-case
/// runs of the points that share it.
#[derive(Debug, Clone)]
pub struct DseTask {
    /// The shared PDE run.
    pub pde: PdeRun,
    /// Distinct worst-case runs, in first-appearance order.
    pub worst_cases: Vec<WorstCaseConfig>,
    /// The task's points as `(index into the planned points, index into
    /// worst_cases)`, in input order.
    pub points: Vec<(usize, usize)>,
}

/// Plans `points` into one [`DseTask`] per distinct [`PdeRun`], in
/// first-appearance order; within a task, points whose worst-case runs
/// share a [`WorstCaseConfig::run_key`] share the run. Every point's
/// worst-case inputs determine its PDE run's, so deduplicating within a
/// task misses no sharing.
pub fn plan(points: &[ConfigPoint], settings: &RunSettings) -> Vec<DseTask> {
    let mut task_of: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut runs_of: Vec<HashMap<Vec<u64>, usize>> = Vec::new();
    let mut tasks: Vec<DseTask> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let pde = PdeRun::of(point, settings);
        let t = *task_of.entry(pde.key()).or_insert_with(|| {
            tasks.push(DseTask { pde, worst_cases: Vec::new(), points: Vec::new() });
            runs_of.push(HashMap::new());
            tasks.len() - 1
        });
        let task = &mut tasks[t];
        let worst = worst_case_config(point, settings);
        let w = *runs_of[t].entry(worst.run_key()).or_insert_with(|| {
            task.worst_cases.push(worst);
            task.worst_cases.len() - 1
        });
        task.points.push((i, w));
    }
    tasks
}

/// The distinct points of `space` in enumeration order with their keys:
/// the first occurrence per [`SuiteKey`] wins the canonical slot.
fn unique_points(space: &AxisSpace, settings: &RunSettings) -> Vec<(ConfigPoint, SuiteKey)> {
    let mut seen: HashSet<SuiteKey> = HashSet::new();
    space
        .points()
        .into_iter()
        .map(|point| (point, point.suite_key(settings)))
        .filter(|(_, key)| seen.insert(key.clone()))
        .collect()
}

/// The points [`run_dse`] computes for `opts` rather than replays from
/// its journal, in enumeration order. [`plan`] of these is the work the
/// run does.
pub fn pending_points(opts: &DseOptions) -> Vec<ConfigPoint> {
    unique_points(&opts.space, &opts.settings)
        .into_iter()
        .filter(|(_, key)| !opts.preloaded.contains_key(&key.to_hex()))
        .map(|(point, _)| point)
        .collect()
}

/// Runs the exploration: enumerate, dedup by [`SuiteKey`], [`plan`] the
/// pending points into tasks, run the tasks over the worker pool, journal
/// each point as its task completes, and mark the Pareto frontier.
pub fn run_dse(opts: &DseOptions) -> DseResult {
    let started = Instant::now();
    let enumerated = opts.space.len();
    let unique = unique_points(&opts.space, &opts.settings);

    // Install journal replays; everything else is pending work.
    let mut slots: Vec<Option<PointMetrics>> = unique
        .iter()
        .map(|(_, key)| opts.preloaded.get(&key.to_hex()).copied())
        .collect();
    let pending: Vec<usize> = (0..unique.len()).filter(|&i| slots[i].is_none()).collect();
    let evaluated = pending.len();
    let replayed = unique.len() - evaluated;
    let pending_points: Vec<ConfigPoint> = pending.iter().map(|&i| unique[i].0).collect();
    let tasks = plan(&pending_points, &opts.settings);

    let jobs = effective_jobs(opts.jobs);
    let next_task = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let results: Mutex<&mut Vec<Option<PointMetrics>>> = Mutex::new(&mut slots);
    let progress_every = (evaluated / 20).max(1);

    // Runs one task's PDE run and distinct worst-case runs, then fills,
    // journals and reports every point of the task.
    let run_task = |task: &DseTask, workspace: SolverWorkspace| -> SolverWorkspace {
        let span = obs::tracer().begin();
        let (pde, mut workspace) = task.pde.run(workspace);
        let mut voltages = Vec::with_capacity(task.worst_cases.len());
        for cfg in &task.worst_cases {
            let (worst, back) = run_worst_case_in(cfg, workspace);
            workspace = back;
            voltages.push((worst.worst_voltage, worst.final_voltage));
        }
        obs::metric_inc("dse.pde_runs", 1);
        obs::metric_inc("dse.worst_case_runs", task.worst_cases.len() as u64);
        for &(j, w) in &task.points {
            let i = pending[j];
            let (point, key) = &unique[i];
            let (worst_v, final_v) = voltages[w];
            let metrics = PointMetrics { pde, worst_v, final_v };
            if let Some(dir) = &opts.journal_dir {
                // Best-effort, like scenario journaling: a lost record
                // costs a recompute on resume, never the run.
                let _ = journal::record_point(dir, key, &point.to_string(), &metrics);
            }
            results.lock().expect("dse result slots poisoned")[i] = Some(metrics);
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(progress_every) || n == evaluated {
                obs::progress(
                    "dse",
                    "points",
                    &[("done", n.to_string()), ("total", evaluated.to_string())],
                    || format!("[dse] {n}/{evaluated} points"),
                );
            }
        }
        if span.is_some() {
            obs::tracer().end_span(
                obs::worker_track(),
                "dse",
                "dse_task",
                span,
                &[
                    ("stack", task.pde.stack.to_string()),
                    ("points", task.points.len().to_string()),
                    ("worst_case_runs", task.worst_cases.len().to_string()),
                ],
            );
        }
        workspace
    };

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut workspace = SolverWorkspace::default();
                while let Some(task) = tasks.get(next_task.fetch_add(1, Ordering::Relaxed)) {
                    workspace = run_task(task, workspace);
                }
            });
        }
    });

    let mut rows: Vec<DsePointRow> = unique
        .iter()
        .zip(slots.iter())
        .map(|((point, _), metrics)| {
            let m = metrics.expect("every dse point slot filled");
            DsePointRow {
                point: point.to_string(),
                pde: m.pde,
                area_mult: point.area,
                worst_v: m.worst_v,
                final_v: m.final_v,
                on_frontier: false,
            }
        })
        .collect();
    mark_frontier(&mut rows);

    DseResult {
        points: unique.into_iter().map(|(p, _)| p).collect(),
        rows,
        enumerated,
        evaluated,
        replayed,
        jobs,
        settings: opts.settings,
        total_wall_s: started.elapsed().as_secs_f64(),
    }
}

impl DseResult {
    /// Frontier members as `(point, row)` pairs, enumeration order.
    pub fn frontier(&self) -> impl Iterator<Item = (&ConfigPoint, &DsePointRow)> {
        self.points
            .iter()
            .zip(self.rows.iter())
            .filter(|(_, row)| row.on_frontier)
    }

    /// Builds the frontier artifact: a manifest pinning the settings, one
    /// `dse_point` event per unique configuration, and a metrics snapshot
    /// with the population gauges plus per-frontier-member labeled
    /// objectives (so the golden diff's tolerance engine covers frontier
    /// identity and values). With `deterministic` false, a wall-time stage
    /// sample is appended — tagged so every comparison excludes it.
    pub fn artifact(&self, deterministic: bool) -> RunArtifact {
        let mut events = vec![Event::Manifest(RunManifest {
            schema_version: SCHEMA_VERSION,
            benchmark: "dse".to_string(),
            pds: "frontier".to_string(),
            seed: self.settings.seed,
            workload_scale: self.settings.workload_scale,
            max_cycles: self.settings.max_cycles,
            sample_stride: 1,
            crate_versions: vec![
                ("vs-bench".to_string(), env!("CARGO_PKG_VERSION").to_string()),
                ("vs-telemetry".to_string(), vs_telemetry::crate_version().to_string()),
            ],
        })];
        events.extend(self.rows.iter().cloned().map(Event::DsePoint));

        let mut registry = Registry::new();
        registry.set_gauge("dse.points_enumerated", self.enumerated as f64);
        registry.set_gauge("dse.points_unique", self.rows.len() as f64);
        registry.set_gauge(
            "dse.frontier_size",
            self.rows.iter().filter(|r| r.on_frontier).count() as f64,
        );
        for (point, row) in self.frontier() {
            let owned = point.labels();
            let labels: Vec<(&str, &str)> =
                owned.iter().map(|(k, v)| (*k, v.as_str())).collect();
            registry.set_gauge(&labeled("dse.pde", &labels), row.pde);
            registry.set_gauge(&labeled("dse.worst_v", &labels), row.worst_v);
        }
        events.push(Event::Metrics(registry.snapshot()));
        if !deterministic {
            events.push(Event::Stages(vec![StageSample {
                stage: "dse".to_string(),
                total_s: self.total_wall_s,
                count: self.rows.len() as u64,
            }]));
        }
        RunArtifact { events }
    }

    /// Writes the frontier artifact into `dir` as [`FRONTIER_FILE`]
    /// (atomic tmp + rename, honouring a scheduled chaos tear by name) and,
    /// when journaling, records its checksum for resume verification.
    /// Deterministic mode writes the wall-time-free form and never
    /// journals — the golden-blessing contract.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path, deterministic: bool) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let bytes = self.artifact(deterministic).to_jsonl().into_bytes();
        let path = dir.join(FRONTIER_FILE);
        let torn = if let Some(cut) = crate::chaos::torn_write(FRONTIER_FILE, bytes.len()) {
            std::fs::write(&path, &bytes[..cut])?;
            true
        } else {
            vs_telemetry::write_atomic(&path, &bytes)?;
            false
        };
        if !deterministic && !torn {
            journal::record_experiment(dir, "dse_frontier", FRONTIER_FILE, &bytes)?;
        }
        Ok(path)
    }
}

/// One frontier claim's outcome (the dse analogue of
/// [`crate::claims::ClaimResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierClaim {
    /// The claim's name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The executable frontier claims, checked against an artifact's
/// `dse_point` rows:
///
/// * `frontier_nonempty` — a non-trivial exploration has at least one
///   non-dominated point;
/// * `paper_point_on_frontier` — the paper's headline cell (4×4 stack,
///   0.2× CR-IVR, cross-layer control) contains a frontier member: no
///   other configuration dominates the cross-layer design point the paper
///   builds its case on.
pub fn check_frontier_claims(rows: &[DsePointRow]) -> Vec<FrontierClaim> {
    let frontier = rows.iter().filter(|r| r.on_frontier).count();
    let paper_cell: Vec<&DsePointRow> = rows
        .iter()
        .filter(|r| {
            r.point.parse::<ConfigPoint>().is_ok_and(|p| {
                p.stack == StackGeometry::PAPER && p.area == 0.2 && p.pds == PdsFamily::Cross
            })
        })
        .collect();
    let on = paper_cell.iter().filter(|r| r.on_frontier).count();
    vec![
        FrontierClaim {
            name: "frontier_nonempty",
            pass: frontier > 0,
            detail: format!("{frontier} of {} points non-dominated", rows.len()),
        },
        FrontierClaim {
            name: "paper_point_on_frontier",
            // Vacuously failing when the space omits the paper cell keeps
            // the claim honest: the check only passes on evidence.
            pass: on > 0,
            detail: format!(
                "{on} of {} stack=4x4,area=0.2,pds=cross point(s) on the frontier",
                paper_cell.len()
            ),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(point: &str, pde: f64, area: f64, worst_v: f64) -> DsePointRow {
        DsePointRow {
            point: point.to_string(),
            pde,
            area_mult: area,
            worst_v,
            final_v: worst_v,
            on_frontier: false,
        }
    }

    #[test]
    fn dominance_is_strict_and_ties_coexist() {
        let better = row("a", 0.9, 0.2, 0.95);
        let worse = row("b", 0.8, 0.4, 0.90);
        let tie = row("c", 0.9, 0.2, 0.95);
        let mixed = row("d", 0.95, 0.4, 0.90);
        assert!(dominates(&better, &worse));
        assert!(!dominates(&worse, &better));
        assert!(!dominates(&better, &tie) && !dominates(&tie, &better));
        assert!(!dominates(&better, &mixed) && !dominates(&mixed, &better));

        let mut rows = vec![better, worse, tie, mixed];
        mark_frontier(&mut rows);
        let on: Vec<&str> = rows
            .iter()
            .filter(|r| r.on_frontier)
            .map(|r| r.point.as_str())
            .collect();
        assert_eq!(on, vec!["a", "c", "d"], "ties and trade-offs survive; dominated points fall");
    }

    #[test]
    fn frontier_claims_read_the_rows() {
        let paper = "stack=4x4,area=0.2,pds=cross";
        let mut rows = vec![row(paper, 0.9, 0.2, 0.95), row("area=1.72,pds=circuit", 0.92, 1.72, 0.9)];
        mark_frontier(&mut rows);
        let claims = check_frontier_claims(&rows);
        assert!(claims.iter().all(|c| c.pass), "{claims:?}");

        // Dominate the paper cell: the claim must fail with evidence.
        rows.push(row("stack=4x4,area=0.1,pds=circuit", 0.95, 0.1, 0.99));
        mark_frontier(&mut rows);
        let claims = check_frontier_claims(&rows);
        let paper_claim = claims.iter().find(|c| c.name == "paper_point_on_frontier").unwrap();
        assert!(!paper_claim.pass);
        assert!(paper_claim.detail.contains("0 of 1"));
    }

    #[test]
    fn control_overhead_charges_layers_and_the_cross_control_plane() {
        let cross = ConfigPoint::paper();
        let circuit = ConfigPoint { pds: PdsFamily::Circuit, ..cross };
        // Both families pay the per-layer IVR quiescent loss; only the
        // cross-layer family pays for the detector and loop on top.
        let ivr4 = control_overhead_w(&circuit);
        assert!(ivr4 > 0.0);
        let base = control_overhead_w(&cross);
        assert!(base > ivr4);
        // Taller stacks pay more standing loss in either family.
        let tall = ConfigPoint {
            stack: vs_core::StackGeometry::new(8, 2),
            ..circuit
        };
        assert!(control_overhead_w(&tall) > ivr4);
        // A faster loop costs more; a slower one less.
        let fast = ConfigPoint { latency: 30, ..cross };
        let slow = ConfigPoint { latency: 120, ..cross };
        assert!(control_overhead_w(&fast) > base);
        assert!(control_overhead_w(&slow) < base);
    }
}
