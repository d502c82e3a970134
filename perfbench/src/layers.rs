//! Per-layer measurement for the traced run: the per-layer metric table,
//! the executor-trace analysis, co-simulation replays through the stage
//! profiler, and direct timing of rig construction.
//!
//! Nothing here instruments the program. Layer numbers come from the
//! tracing the program already carries (the executor tracer, shard
//! counters, the `CosimPool` counters, the `StageProfiler` behind
//! `Cosim::builder(..).telemetry(..)`) and from timing public calls.

use std::collections::BTreeMap;
use std::time::Instant;

use vs_circuit::{Element, Netlist, SolverWorkspace};
use vs_core::{
    Cosim, CosimConfig, CosimReport, FaultPlan, PdsKind, PdsRig, PowerManagement, ScenarioId,
    StackGeometry, SupervisorConfig,
};
use vs_pds::{AreaModel, CrIvrConfig, SingleLayerPdn, StackedPdn};
use vs_telemetry::{Telemetry, TraceEvent, TracePhase};

use crate::harness::{span, Samples};

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; a layer a workload does not exercise reads 0.
/// `BENCHMARK.json` lists the same names; `--smoke` checks it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vs-gpu.tick_ns", "ns"),
    ("vs-gpu.sim_cycles", "count"),
    ("vs-gpu.sim_instructions", "count"),
    ("vs-power.sm_power_ns", "ns"),
    ("vs-hypervisor.remap_ns", "ns"),
    ("vs-circuit.step_ns.flat", "ns"),
    ("vs-circuit.step_ns.2x8", "ns"),
    ("vs-circuit.step_ns.4x4", "ns"),
    ("vs-circuit.step_ns.8x2", "ns"),
    ("vs-circuit.recovery_retries", "count"),
    ("vs-circuit.recovery_base_steps", "count"),
    ("vs-circuit.dc_cache_hit_ratio", "ratio"),
    ("vs-circuit.dc_cache_base_runs", "count"),
    ("vs-pds.rig_build_us.flat", "us"),
    ("vs-pds.rig_build_us.2x8", "us"),
    ("vs-pds.rig_build_us.4x4", "us"),
    ("vs-pds.rig_build_us.8x2", "us"),
    ("vs-pds.rig_unknowns.flat", "count"),
    ("vs-pds.rig_unknowns.2x8", "count"),
    ("vs-pds.rig_unknowns.4x4", "count"),
    ("vs-pds.rig_unknowns.8x2", "count"),
    ("vs-control.update_ns", "ns"),
    ("core.run_ms_p50", "ms"),
    ("core.run_ms_max", "ms"),
    ("core.self_ns", "ns"),
    ("shard.tasks", "count"),
    ("shard.memo_hit_ratio", "ratio"),
    ("shard.steals", "count"),
    ("shard.task_overhead_us", "us"),
    ("shard.queue_wait_ms", "ms"),
    ("shard.busy_fraction", "ratio"),
    ("shard.tail_idle_s", "s"),
    ("shard.retries", "count"),
    ("shard.quarantines", "count"),
    ("dse.points_evaluated", "count"),
    ("dse.point_ms_p50", "ms"),
    ("dse.point_ms_max", "ms"),
    ("dse.busy_fraction", "ratio"),
    ("dse.frontier_ms", "ms"),
    ("journal.record_us", "us"),
    ("journal.bytes_written", "bytes"),
    ("journal.replay_ms", "ms"),
    ("journal.verified_read_us", "us"),
    ("serve.requests", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.warm_point_us", "us"),
    ("serve.warm_experiment_us", "us"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.cold_point_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.joins", "count"),
    ("vs-telemetry.diff_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// The per-layer values of one traced run, every name preset to 0.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] — a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    /// The value of one metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in [`PER_LAYER`] order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, self.get(n), *u))
            .collect()
    }
}

/// The label a rig's circuit metrics are reported under: the stack
/// geometry for stacked rigs, `flat` for single-layer ones.
pub fn geometry_label(kind: PdsKind, geometry: StackGeometry) -> String {
    if kind.is_stacked() {
        geometry.to_string()
    } else {
        "flat".to_string()
    }
}

fn span_of(e: &TraceEvent) -> Option<(u64, u64)> {
    match e.phase {
        TracePhase::Complete { start_ns, dur_ns } => Some((start_ns, start_ns + dur_ns)),
        TracePhase::Instant { .. } => None,
    }
}

/// Executor figures read back from the program's own trace of one
/// operation (see [`executor_stats`]).
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Scenario tasks that ran (`task` spans).
    pub tasks: u64,
    /// Tasks claimed by a thread other than the suite's requester.
    pub steals: u64,
    /// Retry backoffs.
    pub retries: u64,
    /// Quarantined tasks.
    pub quarantines: u64,
    /// Suites the operation enqueued (computed rather than found in the
    /// memo).
    pub suites: u64,
    /// Per task: task wall minus the co-simulation attempts inside it, µs.
    pub task_overhead_us: Samples,
    /// Per task: claim time minus its suite's enqueue time, ms.
    pub queue_wait_ms: Samples,
    /// Per successful attempt (one co-simulation run), ms.
    pub run_ms: Samples,
    /// Per journal append of a scenario report, µs.
    pub record_us: Samples,
    /// Task time over (threads × window).
    pub busy_fraction: f64,
    /// Summed idle time of the working threads between their last piece
    /// of work and the end of the window, seconds.
    pub tail_idle_s: f64,
}

/// Analyses the executor trace of one operation that ran on `threads`
/// threads inside the window `(start_ns, end_ns)` (the benchmark's span
/// around the operation); events outside the window are ignored.
/// `activity` names the spans that count as a thread doing work for the
/// tail measurement.
pub fn executor_stats(
    events: &[TraceEvent],
    threads: usize,
    window: (u64, u64),
    activity: &[&str],
) -> ExecStats {
    let mut s = ExecStats::default();
    let (w0, w1) = window;
    let events: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| match e.phase {
            TracePhase::Complete { start_ns, dur_ns } => start_ns >= w0 && start_ns + dur_ns <= w1,
            TracePhase::Instant { at_ns } => (w0..=w1).contains(&at_ns),
        })
        .collect();
    let mut enqueued: BTreeMap<String, u64> = BTreeMap::new();
    for e in &events {
        if let (TracePhase::Instant { at_ns }, "suite_enqueue") = (e.phase, e.name.as_str()) {
            if let Some(suite) = e.arg("suite") {
                enqueued.entry(suite.to_string()).or_insert(at_ns);
            }
            s.suites += 1;
        }
        if e.name == "quarantine" {
            s.quarantines += 1;
        }
    }
    let attempts: Vec<&TraceEvent> = events
        .iter()
        .copied()
        .filter(|e| e.cat == "executor" && e.name == "attempt")
        .collect();
    let mut busy_ns = 0u64;
    let mut last_active: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        let Some((start, end)) = span_of(e) else {
            continue;
        };
        if activity.contains(&e.name.as_str()) {
            let slot = last_active.entry(e.track).or_insert(0);
            *slot = (*slot).max(end);
        }
        match (e.cat.as_str(), e.name.as_str()) {
            ("executor", "task") => {
                s.tasks += 1;
                busy_ns += end - start;
                if e.arg("via") == Some("steal") {
                    s.steals += 1;
                }
                let inner: u64 = attempts
                    .iter()
                    .filter(|a| a.track == e.track)
                    .filter_map(|a| span_of(a))
                    .filter(|(a0, a1)| *a0 >= start && *a1 <= end)
                    .map(|(a0, a1)| a1 - a0)
                    .sum();
                s.task_overhead_us
                    .push((end - start).saturating_sub(inner) as f64 / 1e3);
                if let Some(at) = e.arg("suite").and_then(|k| enqueued.get(k)) {
                    s.queue_wait_ms.push(start.saturating_sub(*at) as f64 / 1e6);
                }
            }
            ("executor", "attempt") if e.arg("outcome") == Some("ok") => {
                s.run_ms.push((end - start) as f64 / 1e6);
            }
            ("executor", "backoff") => s.retries += 1,
            ("journal", "journal_write") => s.record_us.push((end - start) as f64 / 1e3),
            _ => {}
        }
    }
    let width = w1.saturating_sub(w0).max(1) as f64;
    s.busy_fraction = busy_ns as f64 / (threads.max(1) as f64 * width);
    s.tail_idle_s = last_active
        .values()
        .map(|&end| w1.saturating_sub(end) as f64 / 1e9)
        .sum();
    s
}

/// The window of the first benchmark span named `name` in `events`.
pub fn bench_window(events: &[TraceEvent], name: &str) -> Option<(u64, u64)> {
    events
        .iter()
        .filter(|e| e.cat == "bench" && e.name == name)
        .find_map(span_of)
}

/// Copies the executor figures into the per-layer table.
pub fn set_executor_layers(layers: &mut Layers, s: &ExecStats) {
    layers.set("shard.tasks", s.tasks as f64);
    layers.set("shard.steals", s.steals as f64);
    layers.set("shard.retries", s.retries as f64);
    layers.set("shard.quarantines", s.quarantines as f64);
    layers.set("shard.task_overhead_us", s.task_overhead_us.median());
    layers.set("shard.queue_wait_ms", s.queue_wait_ms.median());
    layers.set("shard.busy_fraction", s.busy_fraction);
    layers.set("shard.tail_idle_s", s.tail_idle_s);
    layers.set("core.run_ms_p50", s.run_ms.median());
    layers.set("core.run_ms_max", s.run_ms.max());
    layers.set("journal.record_us", s.record_us.median());
}

/// Co-simulation stage totals accumulated over replayed runs.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per stage name: (total seconds, calls), circuit split by geometry.
    stages: BTreeMap<String, (f64, u64)>,
    /// Wall seconds of the replayed runs, measured around each run.
    wall_s: f64,
    /// Cycles the replayed runs simulated.
    cycles: u64,
    /// Solver recovery retries over the replayed runs.
    retries: u64,
    /// Replayed runs whose report differed from the workload's own.
    pub mismatches: Vec<String>,
    /// Runs replayed.
    pub runs: u64,
}

impl Replay {
    /// Replays one scenario of the workload with the stage profiler on.
    /// When `expect` (the workload's own report of this run) is given, the
    /// replay must reproduce its cycle and instruction counts.
    pub fn run(
        &mut self,
        cfg: &CosimConfig,
        pm: &PowerManagement,
        id: ScenarioId,
        expect: Option<&CosimReport>,
    ) {
        let profile = id.profile();
        let (run, wall) = span("replay", &[("scenario", id.name().to_string())], || {
            Cosim::builder(cfg, &profile)
                .power_management(pm.clone())
                .telemetry(Telemetry::enabled())
                .build()
                .run_supervised(&SupervisorConfig::default(), &FaultPlan::none())
        });
        if let Some(want) = expect {
            if want.cycles != run.report.cycles || want.instructions != run.report.instructions {
                self.mismatches.push(format!(
                    "replay of {id} under {} simulated {}/{} cycles/instructions, the workload {}/{}",
                    cfg.pds.label(),
                    run.report.cycles,
                    run.report.instructions,
                    want.cycles,
                    want.instructions
                ));
            }
        }
        let geom = geometry_label(cfg.pds, cfg.geometry);
        if let Some(stages) = run.telemetry.as_ref().and_then(|a| a.stages()) {
            for s in stages {
                let key = if s.stage == "circuit_solve" {
                    format!("circuit_solve.{geom}")
                } else {
                    s.stage.clone()
                };
                let slot = self.stages.entry(key).or_insert((0.0, 0));
                slot.0 += s.total_s;
                slot.1 += s.count;
            }
        }
        self.wall_s += wall;
        self.cycles += run.report.cycles;
        self.retries += u64::from(run.recovery.retries);
        self.runs += 1;
    }

    fn ns_per_call(&self, key: &str) -> f64 {
        match self.stages.get(key) {
            Some(&(total, calls)) if calls > 0 => total * 1e9 / calls as f64,
            _ => 0.0,
        }
    }

    /// Copies the stage costs into the per-layer table. Self time: the
    /// replay wall time the five stages do not account for, per cycle, so
    /// that the stages plus `core.self_ns` add up to the replays' wall.
    pub fn set_layers(&self, layers: &mut Layers) {
        layers.set("vs-gpu.tick_ns", self.ns_per_call("gpu_step"));
        layers.set("vs-power.sm_power_ns", self.ns_per_call("power_model"));
        layers.set(
            "vs-hypervisor.remap_ns",
            self.ns_per_call("hypervisor_remap"),
        );
        layers.set(
            "vs-control.update_ns",
            self.ns_per_call("controller_update"),
        );
        for geom in ["flat", "2x8", "4x4", "8x2"] {
            let key = format!("circuit_solve.{geom}");
            if self.stages.contains_key(&key) {
                layers.set(
                    &format!("vs-circuit.step_ns.{geom}"),
                    self.ns_per_call(&key),
                );
            }
        }
        let staged: f64 = self.stages.values().map(|(t, _)| t).sum();
        if self.cycles > 0 {
            layers.set(
                "core.self_ns",
                (self.wall_s - staged).max(0.0) * 1e9 / self.cycles as f64,
            );
        }
        layers.set("vs-circuit.recovery_retries", self.retries as f64);
        layers.set("vs-circuit.recovery_base_steps", self.cycles as f64);
    }

    /// The detail-record breakdown: seconds and calls per stage, plus the
    /// unattributed remainder and the replays' wall time.
    pub fn breakdown(&self) -> vs_telemetry::json::Json {
        use vs_telemetry::json::Json;
        let staged: f64 = self.stages.values().map(|(t, _)| t).sum();
        let mut pairs: Vec<(String, Json)> = self
            .stages
            .iter()
            .map(|(k, (t, c))| {
                (
                    k.clone(),
                    Json::obj([("total_s", Json::from(*t)), ("calls", Json::from(*c))]),
                )
            })
            .collect();
        pairs.push((
            "remainder_s".to_string(),
            Json::from((self.wall_s - staged).max(0.0)),
        ));
        pairs.push(("wall_s".to_string(), Json::from(self.wall_s)));
        pairs.push(("runs".to_string(), Json::from(self.runs)));
        pairs.push(("cycles".to_string(), Json::from(self.cycles)));
        Json::Obj(pairs)
    }
}

/// MNA unknowns of the rig `kind` builds at `geometry`: non-ground nodes
/// plus one branch current per voltage source and inductor.
pub fn rig_unknowns(kind: PdsKind, geometry: StackGeometry) -> usize {
    let params = geometry.pdn_params();
    let count = |net: &Netlist| {
        let branches = net
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }))
            .count();
        net.n_nodes() - 1 + branches
    };
    match kind {
        PdsKind::ConventionalVrm | PdsKind::SingleLayerIvr => {
            count(&SingleLayerPdn::build(&params, params.v_sm).netlist)
        }
        PdsKind::VsCircuitOnly { area_mult } | PdsKind::VsCrossLayer { area_mult } => {
            let area = AreaModel::default();
            let crivr = CrIvrConfig::sized_by_gpu_area(area_mult, &area);
            count(&StackedPdn::build(&params, Some((&crivr, &area))).netlist)
        }
    }
}

/// Times `PdsRig::with_params_in` for `kind` at `geometry`, recycling the
/// workspace between builds as the dse workers and the pooled
/// co-simulation do. Returns the per-build samples in µs.
pub fn time_rig_builds(kind: PdsKind, geometry: StackGeometry, reps: usize) -> Samples {
    let dt = 1.0 / 700e6;
    let params = geometry.pdn_params();
    let mut ws = SolverWorkspace::new();
    let mut samples = Samples::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let rig = PdsRig::with_params_in(kind, &params, dt, 0.08, ws);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        ws = rig.into_workspace();
    }
    samples
}

/// Records rig build time and unknowns for `kind` at `geometry`.
pub fn set_rig_layers(layers: &mut Layers, kind: PdsKind, geometry: StackGeometry) {
    let geom = geometry_label(kind, geometry);
    let (samples, _) = span("rig_builds", &[("rig", geom.clone())], || {
        time_rig_builds(kind, geometry, 50)
    });
    layers.set(&format!("vs-pds.rig_build_us.{geom}"), samples.median());
    layers.set(
        &format!("vs-pds.rig_unknowns.{geom}"),
        rig_unknowns(kind, geometry) as f64,
    );
}
