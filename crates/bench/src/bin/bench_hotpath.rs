//! Hot-path micro-benchmark: throughput and allocation pressure of the
//! batched co-simulation loop.
//!
//! Warms a [`vs_core::CosimPool`] with one run, then measures a window of
//! back-to-back pooled runs of the heartwall scenario under the cross-layer
//! PDS at 0.2x CR-IVR area — the configuration the sweep spends most of its
//! time in — under a counting global allocator. Reports:
//!
//! * `cycles_per_sec` — co-simulated GPU cycles per wall-clock second,
//! * `allocs_per_cycle` — heap allocations per cycle over whole runs
//!   (construction included; the steady-state transient step itself is
//!   allocation-free, enforced by `vs-circuit`'s `zero_alloc` tests),
//! * pool statistics (`runs`, `dc_cache_hits`).
//!
//! It also measures **batched lane scaling**: the per-lane cost of one
//! circuit solve when a [`vs_circuit::BatchedTransient`] advances N
//! parameter-variant copies of the stacked netlist in lockstep
//! (N = 1/2/4/8). The lanes share one LU factorization per shared step, so
//! per-lane cost must fall monotonically with N — the binary asserts it.
//!
//! Usage: `cargo run --release -p vs-bench --bin bench_hotpath [-- --json
//! <path>] [-- --record-lane-scaling <artifact>]` (`-` means stdout; default
//! prints a human summary only). `--record-lane-scaling` rewrites the
//! `"lane_scaling_record"` line inside the given committed artifact
//! (BENCH_hotpath.json) in place — tier-2 CI uses it to keep the record
//! fresh. `VS_BENCH_SCALE` / `VS_BENCH_MAX_CYCLES` rescale the runs as for
//! the figure binaries. The committed `BENCH_hotpath.json` pairs this
//! binary's output with the pre-optimization baseline (see EXPERIMENTS.md,
//! "bench_hotpath").

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use vs_bench::BenchEnv;
use vs_circuit::{BatchedTransient, Integration, RecoveryPolicy, Transient};
use vs_core::{CosimPool, PdsKind, ScenarioId};
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Counting per thread keeps
    /// other threads' allocations (the test harness runs tests in
    /// parallel) out of a measuring window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` skips the count
/// instead of panicking during thread-local teardown.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Where the JSON record should go, if anywhere: `--json <path>`; `-` means
/// stdout.
fn json_sink() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(args.next().unwrap_or_else(|| "-".to_string()));
        }
    }
    None
}

/// Where the lane-scaling row should be recorded, if anywhere:
/// `--record-lane-scaling <artifact>`.
fn record_sink() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--record-lane-scaling" {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("error: --record-lane-scaling needs a path");
                std::process::exit(2);
            }));
        }
    }
    None
}

/// Measured pooled runs after a warm-up run primes the workspace.
const MEASURED_RUNS: u64 = 3;

/// Lane counts the scaling record covers (the last one includes a partial
/// amortization regime: eight lanes share one factorization).
const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shared warm-up steps before each timed window (first steps touch
/// capacity; scratch buffers size themselves lazily).
const LANE_WARMUP_STEPS: usize = 64;
/// Shared steps per timed window.
const LANE_MEASURED_STEPS: usize = 2_000;
/// Timed windows per lane count; the best is reported so scheduler noise
/// cannot produce a spurious non-monotonic row.
const LANE_TRIALS: usize = 3;

/// One parameter-variant lane: the cross-layer 0.2x stacked netlist the
/// sweep spends most of its time in, with per-lane SM load currents. Loads
/// live on controlled current sources (RHS-only), so every lane keeps the
/// bit-identical stamp matrix that lets the batch share one LU
/// factorization — the same grouping the sharded sweep's scenario lanes hit.
fn build_lane(lane: usize) -> Transient {
    let params = PdnParams::default();
    let am = AreaModel::default();
    let crivr = CrIvrConfig::cross_layer_default(&am);
    let pdn = StackedPdn::build(&params, Some((&crivr, &am)));
    let (v0, g2) = pdn.balanced_initial_state();
    let mut sim = Transient::with_initial_state(
        &pdn.netlist,
        1.0 / 700e6,
        Integration::Trapezoidal,
        &v0,
        &g2,
    )
    .expect("stacked netlist must build");
    for layer in 0..4 {
        for col in 0..4 {
            let sm = layer * 4 + col;
            sim.set_control(pdn.sm_load[layer][col], 6.0 + 0.4 * lane as f64 + 0.1 * sm as f64);
        }
    }
    sim
}

/// Per-lane wall cost (ns) of one batched circuit solve at each lane count.
/// Dev hosts here have `available_parallelism = 1`, so this measures the
/// structural win only: amortizing the shared factorization and SoA
/// substitution bookkeeping over N lanes on one core.
fn measure_lane_scaling() -> Vec<(usize, f64)> {
    let policy = RecoveryPolicy::default();
    let mut best = [f64::INFINITY; LANE_COUNTS.len()];
    // Trials interleave across lane counts so a slow stretch on a shared
    // host degrades every N alike instead of biasing one row.
    for _ in 0..LANE_TRIALS {
        for (slot, &n) in LANE_COUNTS.iter().enumerate() {
            let mut batch = BatchedTransient::new((0..n).map(build_lane).collect());
            for _ in 0..LANE_WARMUP_STEPS {
                batch.step_all(&policy);
            }
            let t0 = Instant::now();
            for _ in 0..LANE_MEASURED_STEPS {
                batch.step_all(&policy);
            }
            let per_lane = t0.elapsed().as_nanos() as f64 / (LANE_MEASURED_STEPS * n) as f64;
            best[slot] = best[slot].min(per_lane);
            let stats = batch.stats();
            assert_eq!(
                stats.mask_exits, 0,
                "lane-scaling loads must stay on the fast path: {stats:?}"
            );
            if n >= 2 {
                assert!(
                    stats.shared_factor_groups > 0,
                    "parameter-variant lanes no longer share factors: {stats:?}"
                );
            }
        }
    }
    LANE_COUNTS.iter().copied().zip(best).collect()
}

/// The committed-artifact row for the lane-scaling measurement, one line.
fn lane_scaling_row(scaling: &[(usize, f64)]) -> String {
    let cells: Vec<String> = scaling
        .iter()
        .map(|(n, ns)| format!("\"n{n}\":{ns:.1}"))
        .collect();
    format!(
        concat!(
            "{{\"schema\":\"lane-scaling-v1\",\"netlist\":\"stacked cross0.2\",",
            "\"kernel\":\"BatchedTransient::step_all\",\"measured_steps\":{},",
            "\"trials\":{},\"per_lane_circuit_solve_ns\":{{{}}}}}"
        ),
        LANE_MEASURED_STEPS,
        LANE_TRIALS,
        cells.join(","),
    )
}

/// Rewrites the `"lane_scaling_record"` line of the committed artifact in
/// place, preserving indentation and the trailing comma. Tier-2 CI runs this
/// so the committed row always matches the current tree.
fn record_lane_scaling(path: &str, row: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut out = String::with_capacity(text.len());
    let mut patched = false;
    for line in text.lines() {
        if line.trim_start().starts_with("\"lane_scaling_record\":") {
            let indent = &line[..line.len() - line.trim_start().len()];
            let comma = if line.trim_end().ends_with(',') { "," } else { "" };
            out.push_str(indent);
            out.push_str("\"lane_scaling_record\": ");
            out.push_str(row);
            out.push_str(comma);
            patched = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(patched, "{path} has no \"lane_scaling_record\" line to update");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("recorded lane-scaling row into {path}");
}

fn main() {
    let env = BenchEnv::from_env_or_exit();
    let settings = env.settings;
    let id = ScenarioId::Heartwall;
    let cfg = settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 });

    let mut pool = CosimPool::new();
    eprintln!("  warming pool with one {id} run ...");
    let warm = pool.run_scenario(&cfg, id);
    assert!(warm.completed, "warm-up run must complete");

    eprintln!("  measuring {MEASURED_RUNS} pooled runs ...");
    let allocs_before = allocs();
    let t0 = Instant::now();
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    for _ in 0..MEASURED_RUNS {
        let report = pool.run_scenario(&cfg, id);
        cycles += report.cycles;
        instructions += report.instructions;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let window_allocs = allocs() - allocs_before;

    let cycles_per_sec = cycles as f64 / wall_s;
    let allocs_per_cycle = window_allocs as f64 / cycles as f64;

    println!("\n== bench_hotpath: {id} under cross-layer 0.2x ==");
    println!("runs            : {MEASURED_RUNS} (after 1 warm-up)");
    println!("cycles          : {cycles}");
    println!("instructions    : {instructions}");
    println!("wall_s          : {wall_s:.3}");
    println!("cycles_per_sec  : {cycles_per_sec:.0}");
    println!("allocs_per_cycle: {allocs_per_cycle:.4} (whole runs, construction included)");
    println!(
        "pool            : {} runs, {} DC-cache hits",
        pool.runs(),
        pool.dc_cache_hits()
    );

    eprintln!("  measuring batched lane scaling (N = 1/2/4/8) ...");
    let scaling = measure_lane_scaling();
    println!("\n== lane scaling: batched SoA circuit solve, per-lane ns ==");
    for (n, ns) in &scaling {
        println!("lanes={n}: {ns:>8.1} ns per lane-solve");
    }
    for pair in scaling.windows(2) {
        let ((n_lo, ns_lo), (n_hi, ns_hi)) = (pair[0], pair[1]);
        assert!(
            ns_hi < ns_lo,
            "per-lane circuit solve must get cheaper with more lanes: \
             N={n_hi} costs {ns_hi:.1} ns but N={n_lo} costs {ns_lo:.1} ns"
        );
    }

    let record = format!(
        concat!(
            "{{\"schema\":\"bench-hotpath-v1\",\"scenario\":\"{}\",\"pds\":\"cross0.2\",",
            "\"workload_scale\":{},\"max_cycles\":{},\"seed\":{},",
            "\"measured_runs\":{},\"cycles\":{},\"instructions\":{},\"wall_s\":{:.3},",
            "\"cycles_per_sec\":{:.0},\"allocs_per_cycle\":{:.4},",
            "\"pool_runs\":{},\"dc_cache_hits\":{}}}\n"
        ),
        id,
        settings.workload_scale,
        settings.max_cycles,
        settings.seed,
        MEASURED_RUNS,
        cycles,
        instructions,
        wall_s,
        cycles_per_sec,
        allocs_per_cycle,
        pool.runs(),
        pool.dc_cache_hits(),
    );
    if let Some(sink) = json_sink() {
        if sink == "-" {
            print!("{record}");
        } else {
            std::fs::write(&sink, &record).unwrap_or_else(|e| panic!("writing {sink}: {e}"));
            eprintln!("wrote hot-path record to {sink}");
        }
    }
    if let Some(artifact) = record_sink() {
        record_lane_scaling(&artifact, &lane_scaling_row(&scaling));
    }
}
