//! Scenario-level suite sharding: the crash-safe two-level work queue
//! behind the parallel sweep.
//!
//! The PR-4 sweep scheduled at *experiment* granularity: a worker that
//! requested a suite already being computed by another worker parked on a
//! `OnceLock` until all twelve scenarios finished, and a sweep of few
//! experiments could not use more workers than experiments. This module
//! replaces that memo with a two-level queue:
//!
//! * **Level 1 (experiments)** stays in [`crate::sweep::run_sweep`]: workers
//!   pop experiment indices off an atomic counter.
//! * **Level 2 (scenarios)** lives here: a memoized suite is a job whose
//!   twelve [`ScenarioId`] runs are individually claimable tasks.
//!   Every requester *joins the computation* — it claims and runs unclaimed
//!   scenarios instead of idling — and workers with nothing else to do can
//!   [`steal_scenario_task`] from any in-flight suite.
//!
//! Each worker thread owns a long-lived [`CosimPool`] shard (a thread-local),
//! so solver buffers and the DC operating-point cache are reused across every
//! scenario the thread runs, whichever suite the task came from.
//!
//! # Crash safety (PR 6)
//!
//! Every claimed task runs inside an **isolation boundary**
//! (`run_isolated`, built on [`isolated`]): panics are caught, the
//! thread's pool shard is rebuilt (a panic can unwind through a
//! half-stepped solver, so the shard is never trusted afterwards — the
//! `UnwindSafe` audit behind the `AssertUnwindSafe`), and the attempt is
//! retried with seeded jittered backoff under an optional watchdog
//! [`CycleBudget`] deadline. A task that exhausts its attempts is
//! **quarantined** ([`QuarantineRecord`], drained by the sweep via
//! [`drain_quarantined`]): its suite completes *degraded* — missing that
//! scenario's report — instead of aborting the process. Completed scenarios
//! are appended to the sweep's resume journal (see [`crate::journal`]), and
//! a resumed sweep prefills verified reports through
//! [`install_preloaded_suites`] so only damaged or missing work recomputes.
//!
//! Determinism contract: a suite's reports are assembled in
//! [`ScenarioId::ALL`] order from per-scenario slots, and workspace reuse
//! never changes results (see `vs_core::CosimPool`), so the memoized value —
//! and every artifact derived from it — is bit-identical whatever the worker
//! count, claim order, or stealing pattern. Only stderr progress lines and
//! the observational [`ShardStats`] counters vary.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vs_core::{
    CosimConfig, CosimError, CosimPool, CosimReport, CycleBudget, PowerManagement, ScenarioId,
};
use vs_telemetry::{fnv1a_64, labeled};

use crate::chaos::{self, ChaosMode};
use crate::obs;

/// Tasks per suite: one per catalogue scenario.
const N_TASKS: usize = ScenarioId::ALL.len();

/// Stable identity of a memoized suite: the [`CosimConfig`] and
/// [`PowerManagement`] key words (see their `stable_key_into` methods).
/// Unlike the historical `format!("{cfg:?}|{pm:?}")` key, this cannot
/// collide or split when `Debug` formatting changes, and adding a config
/// field without extending the key is a compile error at the leaf type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SuiteKey(Vec<u64>);

impl SuiteKey {
    /// Builds the key for a suite of `cfg` under `pm`.
    pub fn new(cfg: &CosimConfig, pm: &PowerManagement) -> Self {
        let mut words = Vec::with_capacity(32);
        cfg.stable_key_into(&mut words);
        pm.stable_key_into(&mut words);
        SuiteKey(words)
    }

    /// The raw key words.
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// Serializes the key losslessly as dot-joined 16-digit hex words.
    /// Many words are `f64::to_bits` images above 2^53, so they must never
    /// travel through a JSON number — this string form is what the resume
    /// journal and the degraded manifest section carry.
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(self.0.len() * 17);
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&format!("{w:016x}"));
        }
        out
    }

    /// Parses a [`SuiteKey::to_hex`] string; `None` on any malformed word.
    pub fn from_hex(text: &str) -> Option<SuiteKey> {
        if text.is_empty() {
            return None;
        }
        let mut words = Vec::new();
        for part in text.split('.') {
            words.push(u64::from_str_radix(part, 16).ok()?);
        }
        Some(SuiteKey(words))
    }

    /// A short filesystem-safe digest of the key, used as the per-suite
    /// cache directory name (the full key travels inside the cached files).
    pub fn cache_dir(&self) -> String {
        format!("{:016x}", fnv1a_64(self.to_hex().as_bytes()))
    }
}

/// Retry / watchdog policy for isolated scenario tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Attempts per task before quarantine (min 1).
    pub max_attempts: u32,
    /// Base backoff before the first retry, milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Per-attempt wall-clock deadline, checked cooperatively inside the
    /// run loop via [`CycleBudget::wall_clock`]; `None` = no watchdog.
    pub task_deadline: Option<Duration>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
            backoff_seed: 0,
            task_deadline: None,
        }
    }
}

/// A task that exhausted its retry budget: the full per-attempt error
/// chain, named by suite and scenario in the degraded manifest section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The suite the task belonged to.
    pub suite: SuiteKey,
    /// The scenario that kept failing.
    pub scenario: ScenarioId,
    /// Attempts spent.
    pub attempts: u32,
    /// One error string per attempt (error chains flattened with `": "`).
    pub errors: Vec<String>,
}

/// Outcome of `run_isolated` when every attempt failed.
struct TaskFailure {
    attempts: u32,
    errors: Vec<String>,
}

/// Outcome of `run_isolated` when an attempt succeeded: the report plus
/// the execution metadata the journal's v2 records and the trace carry.
/// Wall times are observational — they never enter artifact bytes.
struct TaskSuccess {
    report: CosimReport,
    /// Attempts spent, including the successful one.
    attempts: u32,
    /// Wall seconds per attempt, oldest first.
    attempt_wall_s: Vec<f64>,
}

/// One scenario slot of a suite job.
enum Slot {
    Empty,
    Ready(Box<CosimReport>),
    /// Quarantined: the suite assembles without this scenario (degraded).
    Failed,
}

/// Mutable half of a [`SuiteJob`]: per-scenario result slots plus the
/// assembled value once all twelve are in.
struct JobState {
    slots: Vec<Slot>,
    filled: usize,
    done: Option<Arc<Vec<CosimReport>>>,
    /// Set when a task panicked *outside* the isolation boundary: waiters
    /// must panic too instead of blocking forever on a suite that can no
    /// longer complete.
    poisoned: bool,
}

impl JobState {
    /// Assembles the suite once every slot is decided: reports in
    /// [`ScenarioId::ALL`] order, quarantined slots skipped (degraded).
    fn assemble_if_complete(&mut self) -> bool {
        if self.filled < N_TASKS || self.done.is_some() {
            return false;
        }
        let reports: Vec<CosimReport> = self
            .slots
            .iter_mut()
            .filter_map(|s| match std::mem::replace(s, Slot::Failed) {
                Slot::Ready(r) => Some(*r),
                Slot::Empty | Slot::Failed => None,
            })
            .collect();
        self.done = Some(Arc::new(reports));
        true
    }
}

/// One memoized suite computation with individually claimable scenario
/// tasks.
struct SuiteJob {
    key: SuiteKey,
    cfg: CosimConfig,
    pm: PowerManagement,
    /// Claim counter over [`ScenarioId::ALL`]; `fetch_add` hands each task
    /// to exactly one worker.
    next: AtomicUsize,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl SuiteJob {
    fn new(key: SuiteKey, cfg: CosimConfig, pm: PowerManagement) -> Self {
        // Prefill slots from the resume preload: journal-verified reports
        // short-circuit their tasks entirely (counted as replays).
        let mut slots: Vec<Slot> = (0..N_TASKS).map(|_| Slot::Empty).collect();
        let mut filled = 0;
        {
            let preloaded = registry().preloaded.lock().expect("preload map poisoned");
            if let Some(entries) = preloaded.get(&key) {
                for (id, report) in entries {
                    let i = ScenarioId::ALL
                        .iter()
                        .position(|s| s == id)
                        .expect("catalogue scenario");
                    if matches!(slots[i], Slot::Empty) {
                        slots[i] = Slot::Ready(Box::new(report.clone()));
                        filled += 1;
                        registry().replayed.fetch_add(1, Ordering::Relaxed);
                        if obs::tracing_enabled() {
                            obs::metric_inc("executor.replays", 1);
                            obs::tracer().instant(
                                obs::worker_track(),
                                "journal",
                                "replay",
                                &[
                                    ("suite", key.cache_dir()),
                                    ("scenario", id.name().to_string()),
                                ],
                            );
                        }
                    }
                }
            }
        }
        let mut state = JobState {
            slots,
            filled,
            done: None,
            poisoned: false,
        };
        state.assemble_if_complete();
        SuiteJob {
            key,
            cfg,
            pm,
            next: AtomicUsize::new(0),
            state: Mutex::new(state),
            cv: Condvar::new(),
        }
    }

    /// True while unclaimed scenario tasks remain (a claim may still lose
    /// the race; [`SuiteJob::run_one_task`] is the authority).
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < N_TASKS
    }

    /// Claims and runs one scenario task on the calling thread's pool.
    /// Returns `false` when every task was already claimed. `via` labels
    /// the claim in the trace: `"claim"` from the suite's own requester,
    /// `"steal"` from an idle worker.
    fn run_one_task(&self, via: &'static str) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= N_TASKS {
            return false;
        }
        update_queue_depth_gauge();
        // A preloaded (journal-replayed) slot consumes its claim without
        // running anything; likewise once the suite assembled (which
        // empties the slots), nothing is left to compute.
        let pending = {
            let st = self.state.lock().expect("suite job state poisoned");
            st.done.is_none() && matches!(st.slots[i], Slot::Empty)
        };
        if pending {
            self.run_task(i, ScenarioId::ALL[i], via);
        }
        true
    }

    /// Runs one already-claimed scenario task through the isolated
    /// (retry/quarantine) executor and decides its slot.
    fn run_task(&self, i: usize, id: ScenarioId, via: &'static str) {
        obs::progress(
            "task",
            "run",
            &[
                ("scenario", id.name().to_string()),
                ("pds", self.cfg.pds.label().to_string()),
                ("via", via.to_string()),
            ],
            || format!("  running {} under {} ...", id, self.cfg.pds.label()),
        );
        let exec = executor_config();
        let track = obs::worker_track();
        let task_span = obs::tracer().begin();
        // The isolation boundary lives in `run_isolated`; this outer guard
        // only catches the *unexpected* (a panic in the scheduler itself,
        // or one escaping the boundary), which still poisons the job so
        // waiters fail loudly instead of hanging.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_isolated(&self.key, &self.cfg, &self.pm, id, &exec)
        }));
        let end_task = |outcome: &'static str, attempts: u32| {
            if task_span.is_some() {
                obs::tracer().end_span(
                    track,
                    "executor",
                    "task",
                    task_span,
                    &[
                        ("suite", self.key.cache_dir()),
                        ("scenario", id.name().to_string()),
                        ("pds", self.cfg.pds.label().to_string()),
                        ("via", via.to_string()),
                        ("outcome", outcome.to_string()),
                        ("attempts", attempts.to_string()),
                    ],
                );
            }
        };
        match outcome {
            Ok(Ok(success)) => {
                end_task("ok", success.attempts);
                if obs::tracing_enabled() {
                    obs::metric_inc("executor.tasks_ok", 1);
                    obs::metric_observe_wall(
                        &labeled("executor.task_wall_s", &[("scenario", id.name())]),
                        success.attempt_wall_s.iter().sum(),
                    );
                }
                record_to_journal(&self.key, id, &success);
                self.fill_slot(i, Slot::Ready(Box::new(success.report)));
            }
            Ok(Err(failure)) => {
                end_task("quarantined", failure.attempts);
                obs::metric_inc("executor.quarantines", 1);
                obs::tracer().instant(
                    track,
                    "executor",
                    "quarantine",
                    &[
                        ("suite", self.key.cache_dir()),
                        ("scenario", id.name().to_string()),
                        ("attempts", failure.attempts.to_string()),
                    ],
                );
                obs::progress(
                    "task",
                    "quarantine",
                    &[
                        ("scenario", id.name().to_string()),
                        ("pds", self.cfg.pds.label().to_string()),
                        ("attempts", failure.attempts.to_string()),
                    ],
                    || {
                        format!(
                            "  quarantining {} under {} after {} attempt(s)",
                            id,
                            self.cfg.pds.label(),
                            failure.attempts
                        )
                    },
                );
                registry()
                    .quarantined
                    .lock()
                    .expect("quarantine list poisoned")
                    .push(QuarantineRecord {
                        suite: self.key.clone(),
                        scenario: id,
                        attempts: failure.attempts,
                        errors: failure.errors,
                    });
                self.fill_slot(i, Slot::Failed);
            }
            Err(payload) => {
                {
                    let mut st = self.state.lock().expect("suite job state poisoned");
                    st.poisoned = true;
                }
                self.cv.notify_all();
                resume_unwind(payload)
            }
        }
    }

    fn fill_slot(&self, i: usize, slot: Slot) {
        let mut st = self.state.lock().expect("suite job state poisoned");
        st.slots[i] = slot;
        st.filled += 1;
        if st.assemble_if_complete() {
            drop(st);
            self.cv.notify_all();
        }
    }

    /// Blocks until the suite is assembled, helping other in-flight suites
    /// while waiting (this thread's claimable work here is already gone).
    /// A degraded suite (quarantined tasks) returns with those reports
    /// missing; consult [`drain_quarantined`] for what was lost.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked outside the isolation boundary while
    /// running one of this suite's tasks.
    fn wait(&self) -> Arc<Vec<CosimReport>> {
        loop {
            {
                let st = self.state.lock().expect("suite job state poisoned");
                assert!(
                    !st.poisoned,
                    "a worker panicked while running this suite; see its report above"
                );
                if let Some(done) = &st.done {
                    return done.clone();
                }
            }
            // Steal a scenario from some other suite rather than idling; if
            // nothing is stealable, park briefly on the condvar (timed, so
            // newly created jobs become stealable without a notification).
            if !steal_scenario_task() {
                let st = self.state.lock().expect("suite job state poisoned");
                if st.done.is_none() && !st.poisoned {
                    let _ = self
                        .cv
                        .wait_timeout(st, Duration::from_millis(1))
                        .expect("suite job state poisoned");
                }
            }
        }
    }
}

/// The process-wide shard registry: the suite memo, the in-flight list
/// stealers scan, the crash-safety state (executor policy, journal sink,
/// resume preload, quarantine list), and the observational counters.
struct Registry {
    memo: Mutex<HashMap<SuiteKey, Arc<SuiteJob>>>,
    in_flight: Mutex<Vec<Arc<SuiteJob>>>,
    scenario_tasks: AtomicU64,
    steals: AtomicU64,
    dc_cache_hits: AtomicU64,
    replayed: AtomicU64,
    retries: AtomicU64,
    executor: Mutex<ExecutorConfig>,
    journal_dir: Mutex<Option<PathBuf>>,
    preloaded: Mutex<HashMap<SuiteKey, Vec<(ScenarioId, CosimReport)>>>,
    quarantined: Mutex<Vec<QuarantineRecord>>,
}

/// Recomputes the executor queue-depth gauge: unclaimed scenario tasks
/// across every in-flight suite. Gated on tracing (it takes the in-flight
/// lock, which claims should not pay for when nobody is watching).
fn update_queue_depth_gauge() {
    if !obs::tracing_enabled() {
        return;
    }
    let depth: usize = registry()
        .in_flight
        .lock()
        .expect("in-flight suite list poisoned")
        .iter()
        .map(|j| N_TASKS.saturating_sub(j.next.load(Ordering::Relaxed)))
        .sum();
    obs::metric_gauge("executor.queue_depth", depth as f64);
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        memo: Mutex::new(HashMap::new()),
        in_flight: Mutex::new(Vec::new()),
        scenario_tasks: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        dc_cache_hits: AtomicU64::new(0),
        replayed: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        executor: Mutex::new(ExecutorConfig::default()),
        journal_dir: Mutex::new(None),
        preloaded: Mutex::new(HashMap::new()),
        quarantined: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// This thread's long-lived solver-workspace shard. Sweep worker threads
    /// keep it for their whole lifetime, so every scenario after a thread's
    /// first reuses the solver buffers (and, on a netlist-fingerprint match,
    /// the DC operating point).
    static WORKER_POOL: RefCell<CosimPool> = RefCell::new(CosimPool::new());

    /// Whether this thread is currently inside an isolation boundary (a
    /// `catch_unwind` that converts the panic into a structured task
    /// error). The process panic hook consults this to tell a *handled*
    /// panic from one that will take the process down.
    static ISOLATION_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling thread's [`CosimPool`] shard, folding the
/// pool's DC-cache-hit delta into the global [`ShardStats`].
pub fn with_worker_pool<R>(f: impl FnOnce(&mut CosimPool) -> R) -> R {
    WORKER_POOL.with(|cell| {
        let mut pool = cell.borrow_mut();
        let hits_before = pool.dc_cache_hits();
        let out = f(&mut pool);
        let reg = registry();
        reg.scenario_tasks.fetch_add(1, Ordering::Relaxed);
        reg.dc_cache_hits
            .fetch_add(pool.dc_cache_hits() - hits_before, Ordering::Relaxed);
        out
    })
}

/// Replaces the calling thread's pool shard with a fresh one. Called after
/// a panic unwound through the shard: the `RefCell` guard drops cleanly
/// during unwind, but the pool may have lost its workspace mid-run, so it
/// is rebuilt rather than trusted (the "poisoned shard" rule).
pub(crate) fn rebuild_worker_pool() {
    WORKER_POOL.with(|cell| *cell.borrow_mut() = CosimPool::new());
}

/// Whether the calling thread is inside an isolation boundary (see
/// [`isolated`]); the binaries' panic hooks use this to let handled panics
/// pass instead of exiting the process.
pub fn isolation_active() -> bool {
    ISOLATION_ACTIVE.with(Cell::get)
}

/// Renders a caught panic payload (the `&str` / `String` carried by
/// virtually every panic) for error chains.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` inside an isolation boundary: panics are caught and returned
/// as their message instead of unwinding further. The boundary flag is
/// visible to the process panic hook via [`isolation_active`].
pub fn isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    ISOLATION_ACTIVE.with(|c| c.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    ISOLATION_ACTIVE.with(|c| c.set(false));
    out.map_err(|p| panic_message(p.as_ref()))
}

/// Flattens an error and its source chain into one string.
fn error_chain(e: &dyn std::error::Error) -> String {
    let mut out = e.to_string();
    let mut src = e.source();
    while let Some(s) = src {
        out.push_str(": ");
        out.push_str(&s.to_string());
        src = s.source();
    }
    out
}

/// Deterministic jittered backoff for retry `attempt` (1-based): an
/// exponential delay in `[exp/2, exp]` where `exp = base * 2^(attempt-1)`
/// capped, jittered by a seeded hash of (seed, task tag, attempt) so
/// colliding retries decorrelate reproducibly — no wall-clock or RNG state
/// enters the schedule.
pub(crate) fn retry_backoff(exec: &ExecutorConfig, tag: &str, attempt: u32) -> Duration {
    let exp = exec
        .backoff_base_ms
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
        .min(exec.backoff_cap_ms)
        .max(1);
    let text = format!("backoff:{}:{tag}:{attempt}", exec.backoff_seed);
    let h = fnv1a_64(text.as_bytes());
    let half = exp / 2;
    Duration::from_millis(half + h % (exp - half + 1))
}

/// Runs one scenario task under the full isolation policy: per-attempt
/// `catch_unwind`, watchdog budget, chaos injection, pool-shard rebuild on
/// panic, and seeded backoff between attempts. Returns the report (with
/// attempt-count and wall-time metadata), or the complete per-attempt
/// error history once attempts are exhausted.
///
/// Each attempt is traced as a span whose `outcome` arg classifies how it
/// ended: `ok`, `deadline` ([`CosimError::DeadlineExceeded`]), `error`
/// (any other solver/run error), or `panic`. Backoff sleeps and pool-shard
/// rebuilds get their own spans so a Perfetto timeline shows where a
/// retried task's wall clock actually went.
fn run_isolated(
    key: &SuiteKey,
    cfg: &CosimConfig,
    pm: &PowerManagement,
    id: ScenarioId,
    exec: &ExecutorConfig,
) -> Result<TaskSuccess, TaskFailure> {
    let attempts = exec.max_attempts.max(1);
    let tag = format!("{}:{}", key.to_hex(), id.name());
    let track = obs::worker_track();
    let mut errors = Vec::new();
    let mut walls = Vec::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            registry().retries.fetch_add(1, Ordering::Relaxed);
            obs::metric_inc("executor.retries", 1);
            let backoff_span = obs::tracer().begin();
            std::thread::sleep(retry_backoff(exec, &tag, attempt));
            obs::tracer().end_span(
                track,
                "executor",
                "backoff",
                backoff_span,
                &[
                    ("scenario", id.name().to_string()),
                    ("attempt", attempt.to_string()),
                ],
            );
        }
        let chaos = chaos::chaos_for(id, attempt);
        let budget = match chaos {
            Some(ChaosMode::Stall { at_cycle }) => CycleBudget::tripping_at(at_cycle),
            _ => exec
                .task_deadline
                .map_or_else(CycleBudget::unlimited, CycleBudget::wall_clock),
        };
        let attempt_span = obs::tracer().begin();
        // Measured unconditionally: one `Instant` pair per multi-second
        // solve is free, and it keeps journal v2 metadata (and therefore
        // `report` on resumed runs) independent of whether tracing was on.
        let started = Instant::now();
        let outcome = isolated(|| {
            if matches!(chaos, Some(ChaosMode::Panic)) {
                panic!("chaos: injected panic for {id} (attempt {attempt})");
            }
            with_worker_pool(|pool| pool.try_run_scenario_with_pm(cfg, id, pm.clone(), budget))
        });
        walls.push(started.elapsed().as_secs_f64());
        let end_attempt = |outcome: &str| {
            if attempt_span.is_some() {
                obs::tracer().end_span(
                    track,
                    "executor",
                    "attempt",
                    attempt_span,
                    &[
                        ("suite", key.cache_dir()),
                        ("scenario", id.name().to_string()),
                        ("attempt", attempt.to_string()),
                        ("outcome", outcome.to_string()),
                    ],
                );
            }
        };
        match outcome {
            Ok(Ok(report)) => {
                end_attempt("ok");
                return Ok(TaskSuccess {
                    report,
                    attempts: attempt + 1,
                    attempt_wall_s: walls,
                });
            }
            Ok(Err(e)) => {
                let deadline = matches!(e, CosimError::DeadlineExceeded { .. });
                end_attempt(if deadline { "deadline" } else { "error" });
                if deadline {
                    obs::metric_inc("executor.deadline_trips", 1);
                }
                errors.push(format!("attempt {attempt}: {}", error_chain(&e)));
            }
            Err(msg) => {
                end_attempt("panic");
                obs::metric_inc("executor.task_panics", 1);
                errors.push(format!("attempt {attempt}: panic: {msg}"));
                let rebuild_span = obs::tracer().begin();
                rebuild_worker_pool();
                obs::metric_inc("executor.pool_rebuilds", 1);
                obs::tracer().end_span(
                    track,
                    "executor",
                    "pool_rebuild",
                    rebuild_span,
                    &[("scenario", id.name().to_string())],
                );
            }
        }
    }
    Err(TaskFailure { attempts, errors })
}

/// Appends a finished scenario to the resume journal, when a sink is
/// installed. Journaling is best-effort: a failed write costs a recompute
/// on resume, never the sweep.
fn record_to_journal(key: &SuiteKey, id: ScenarioId, success: &TaskSuccess) {
    let Some(dir) = journal_dir() else { return };
    let span = obs::tracer().begin();
    let result = crate::journal::record_scenario(
        &dir,
        key,
        id,
        &success.report,
        success.attempts,
        &success.attempt_wall_s,
    );
    obs::tracer().end_span(
        obs::worker_track(),
        "journal",
        "journal_write",
        span,
        &[("scenario", id.name().to_string())],
    );
    if let Err(e) = result {
        eprintln!("  warning: journaling {id}: {e} (resume will recompute it)");
    }
}

/// Installs the retry / watchdog policy isolated tasks run under.
pub fn set_executor_config(config: ExecutorConfig) {
    *registry().executor.lock().expect("executor config poisoned") = config;
}

/// The currently installed [`ExecutorConfig`].
pub fn executor_config() -> ExecutorConfig {
    *registry().executor.lock().expect("executor config poisoned")
}

/// Points the completion journal at `dir` (`None` disables journaling).
pub fn set_journal_dir(dir: Option<PathBuf>) {
    *registry().journal_dir.lock().expect("journal sink poisoned") = dir;
}

/// Where the completion journal is being written, if anywhere.
pub fn journal_dir() -> Option<PathBuf> {
    registry()
        .journal_dir
        .lock()
        .expect("journal sink poisoned")
        .clone()
}

/// Installs journal-verified reports for replay: suites created afterwards
/// prefill matching scenario slots instead of recomputing them. Replaces
/// any previous preload (`sweep --resume` calls this once, up front).
pub fn install_preloaded_suites(map: HashMap<SuiteKey, Vec<(ScenarioId, CosimReport)>>) {
    *registry().preloaded.lock().expect("preload map poisoned") = map;
}

/// Whether `key`'s suite would resolve without running a single scenario
/// task: its memoized job has already assembled, or the installed resume
/// preload covers the full scenario catalogue (a fresh job would be born
/// complete from journal replay). The serve layer consults this to answer
/// `cached` instead of `running` *before* joining the suite; it is advisory
/// — [`run_suite_sharded`] remains the authority on what actually runs.
pub fn suite_is_warm(key: &SuiteKey) -> bool {
    let reg = registry();
    if let Some(job) = reg.memo.lock().expect("suite memo poisoned").get(key) {
        if job.state.lock().expect("suite job state poisoned").done.is_some() {
            return true;
        }
    }
    let preloaded = reg.preloaded.lock().expect("preload map poisoned");
    preloaded.get(key).is_some_and(|entries| {
        let mut have = [false; N_TASKS];
        for (id, _) in entries {
            if let Some(i) = ScenarioId::ALL.iter().position(|s| s == id) {
                have[i] = true;
            }
        }
        have.iter().all(|&b| b)
    })
}

/// Takes the quarantine records accumulated since the last drain (the
/// sweep drains once per run, so records never leak across sweeps).
pub fn drain_quarantined() -> Vec<QuarantineRecord> {
    std::mem::take(
        &mut *registry()
            .quarantined
            .lock()
            .expect("quarantine list poisoned"),
    )
}

/// Observational counters for the scenario-level scheduler (never part of
/// any artifact: they depend on scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Scenario runs served by worker-pool shards.
    pub scenario_tasks: u64,
    /// Tasks claimed by a worker other than the suite's requester.
    pub steals: u64,
    /// Scenario runs whose DC operating point came from a shard's cache.
    pub dc_cache_hits: u64,
    /// Scenario tasks replayed from the resume journal instead of run.
    pub replayed: u64,
    /// Retry attempts spent by the isolated executor.
    pub retries: u64,
}

/// A snapshot of the global [`ShardStats`].
pub fn shard_stats() -> ShardStats {
    let reg = registry();
    ShardStats {
        scenario_tasks: reg.scenario_tasks.load(Ordering::Relaxed),
        steals: reg.steals.load(Ordering::Relaxed),
        dc_cache_hits: reg.dc_cache_hits.load(Ordering::Relaxed),
        replayed: reg.replayed.load(Ordering::Relaxed),
        retries: reg.retries.load(Ordering::Relaxed),
    }
}

/// Claims and runs one scenario task from any in-flight suite. Returns
/// `true` if a task was run. This is what idle sweep workers spin on once
/// the experiment queue drains.
pub fn steal_scenario_task() -> bool {
    let job = {
        let mut in_flight = registry()
            .in_flight
            .lock()
            .expect("in-flight suite list poisoned");
        // Suites with every task claimed can never be stolen from again.
        in_flight.retain(|j| j.has_unclaimed());
        in_flight.first().cloned()
    };
    match job {
        Some(job) if job.run_one_task("steal") => {
            registry().steals.fetch_add(1, Ordering::Relaxed);
            obs::metric_inc("executor.steals", 1);
            true
        }
        _ => false,
    }
}

/// Runs (or joins) the memoized suite of `cfg` under `pm`: all twelve
/// scenarios, reports in [`ScenarioId::ALL`] order. Concurrent requesters
/// share one computation, each claiming and running unclaimed scenarios.
/// A quarantined scenario leaves its report out (degraded suite); see
/// [`drain_quarantined`].
///
/// # Panics
///
/// Panics only if a worker panicked *outside* the isolation boundary —
/// solver failures, deadline trips, and in-task panics all flow into the
/// retry/quarantine machinery instead.
pub fn run_suite_sharded(cfg: &CosimConfig, pm: &PowerManagement) -> Arc<Vec<CosimReport>> {
    let key = SuiteKey::new(cfg, pm);
    let job = {
        let mut memo = registry().memo.lock().expect("suite memo poisoned");
        match memo.get(&key) {
            Some(job) => job.clone(),
            None => {
                let job = Arc::new(SuiteJob::new(key.clone(), cfg.clone(), pm.clone()));
                memo.insert(key.clone(), job.clone());
                registry()
                    .in_flight
                    .lock()
                    .expect("in-flight suite list poisoned")
                    .push(job.clone());
                if obs::tracing_enabled() {
                    obs::metric_inc("executor.suites_enqueued", 1);
                    obs::tracer().instant(
                        obs::worker_track(),
                        "executor",
                        "suite_enqueue",
                        &[
                            ("suite", key.cache_dir()),
                            ("pds", cfg.pds.label().to_string()),
                        ],
                    );
                    update_queue_depth_gauge();
                }
                job
            }
        }
    };
    // Join the computation: claim tasks until none remain, then help
    // elsewhere until the last claimed task lands.
    while job.run_one_task("claim") {}
    job.wait()
}

/// Clears the suite memo, in-flight list, counters, quarantine list,
/// resume preload, journal sink, and executor policy. Tests that compare
/// sweeps across worker counts call this between runs so every sweep
/// recomputes its suites. Must not be called while a sweep is running.
#[doc(hidden)]
pub fn reset_suite_memo_for_tests() {
    let reg = registry();
    reg.memo.lock().expect("suite memo poisoned").clear();
    reg.in_flight
        .lock()
        .expect("in-flight suite list poisoned")
        .clear();
    reg.scenario_tasks.store(0, Ordering::Relaxed);
    reg.steals.store(0, Ordering::Relaxed);
    reg.dc_cache_hits.store(0, Ordering::Relaxed);
    reg.replayed.store(0, Ordering::Relaxed);
    reg.retries.store(0, Ordering::Relaxed);
    *reg.executor.lock().expect("executor config poisoned") = ExecutorConfig::default();
    *reg.journal_dir.lock().expect("journal sink poisoned") = None;
    reg.preloaded.lock().expect("preload map poisoned").clear();
    reg.quarantined
        .lock()
        .expect("quarantine list poisoned")
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_core::PdsKind;

    fn cfg(seed: u64) -> CosimConfig {
        CosimConfig {
            seed,
            ..CosimConfig::default()
        }
    }

    #[test]
    fn suite_keys_distinguish_configs_and_pm() {
        let pm = PowerManagement::default();
        let a = SuiteKey::new(&cfg(1), &pm);
        let b = SuiteKey::new(&cfg(2), &pm);
        assert_ne!(a, b);
        assert_eq!(a, SuiteKey::new(&cfg(1), &pm));

        // The historical Debug-string key could only be as strong as Debug
        // formatting; the word key must separate any one-field difference,
        // including inside PowerManagement.
        let pm_hv = PowerManagement {
            use_hypervisor: true,
            ..PowerManagement::default()
        };
        assert_ne!(SuiteKey::new(&cfg(1), &pm), SuiteKey::new(&cfg(1), &pm_hv));
        let close = CosimConfig {
            pds: PdsKind::VsCrossLayer { area_mult: 0.2 + 1e-12 },
            ..cfg(1)
        };
        assert_ne!(SuiteKey::new(&cfg(1), &pm), SuiteKey::new(&close, &pm));
    }

    #[test]
    fn suite_key_is_hashable_map_key() {
        let mut map = HashMap::new();
        map.insert(SuiteKey::new(&cfg(1), &PowerManagement::default()), 1);
        map.insert(SuiteKey::new(&cfg(2), &PowerManagement::default()), 2);
        assert_eq!(
            map[&SuiteKey::new(&cfg(1), &PowerManagement::default())],
            1
        );
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn suite_key_hex_roundtrip_is_lossless() {
        let key = SuiteKey::new(&cfg(42), &PowerManagement::default());
        let hex = key.to_hex();
        assert_eq!(SuiteKey::from_hex(&hex), Some(key.clone()));
        // Every word is fixed-width hex — no JSON number ever touches the
        // f64-bit words, which exceed 2^53.
        assert!(hex.split('.').all(|w| w.len() == 16));
        assert_eq!(key.cache_dir().len(), 16);
        assert_eq!(SuiteKey::from_hex(""), None);
        assert_eq!(SuiteKey::from_hex("xyz"), None);
    }

    #[test]
    fn steal_with_no_in_flight_suites_is_a_noop() {
        // Whatever other tests left behind, a fully-claimed or empty
        // registry must return false rather than block or panic.
        while steal_scenario_task() {}
        assert!(!steal_scenario_task());
    }

    #[test]
    fn isolated_converts_panics_to_messages() {
        assert_eq!(isolated(|| 7), Ok(7));
        assert!(!isolation_active());
        let err = isolated(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(err, "boom 1");
        assert!(!isolation_active(), "flag must clear after a caught panic");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let exec = ExecutorConfig::default();
        let a = retry_backoff(&exec, "suite:bfs", 1);
        assert_eq!(a, retry_backoff(&exec, "suite:bfs", 1));
        // Exponential envelope: attempt k waits within [exp/2, exp] where
        // exp = base * 2^(k-1), capped.
        for attempt in 1..6 {
            let exp = (exec.backoff_base_ms << (attempt - 1)).min(exec.backoff_cap_ms);
            let d = retry_backoff(&exec, "suite:bfs", attempt).as_millis() as u64;
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d}ms vs {exp}ms");
        }
        // Different tasks jitter apart (with these constants).
        let b = retry_backoff(&exec, "suite:hotspot", 1);
        let c = retry_backoff(&exec, "suite:heartwall", 1);
        assert!(a != b || a != c, "jitter should decorrelate tasks");
    }
}
