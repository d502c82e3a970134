//! Hot-path micro-benchmark: throughput and allocation pressure of the
//! pooled co-simulation loop.
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
//! Usage: `cargo run --release -p vs-bench --bin bench_hotpath [-- --json
//! <path>]` (`-` means stdout; default prints a human summary only).
//! `VS_BENCH_SCALE` / `VS_BENCH_MAX_CYCLES` rescale the runs as for the
//! figure binaries. The committed `BENCH_hotpath.json` pairs this
//! binary's output with the pre-optimization baseline (see EXPERIMENTS.md,
//! "bench_hotpath").

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use vs_bench::BenchEnv;
use vs_core::{CosimPool, PdsKind, ScenarioId};

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

/// Measured pooled runs after a warm-up run primes the workspace.
const MEASURED_RUNS: u64 = 3;

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
}
