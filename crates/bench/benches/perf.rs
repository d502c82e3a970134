//! Performance benchmarks for the simulation kernels: the per-cycle costs
//! that determine how long the figure regeneration runs take.
//!
//! This is a self-contained harness (`harness = false`): the offline build
//! environment has no criterion, so we time each kernel directly with
//! `std::time::Instant`, report ns/iter, and calibrate iteration counts from
//! a short warm-up. Run with `cargo bench -p vs-bench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use vs_circuit::{AcAnalysis, Integration, Transient};
use vs_control::{ControllerConfig, VoltageController};
use vs_core::{PdsKind, PdsRig};
use vs_gpu::{benchmark, build_kernel, Gpu, GpuConfig, SchedulerKind};
use vs_bench::obs;
use vs_num::{eigenvalues, expm, LuFactors, Matrix};
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
use vs_telemetry::{Stage, Telemetry};

/// Counting wrapper over the system allocator, so the scalar hot-path guard
/// below can assert a zero allocation delta (the same acceptance bar as the
/// `vs-circuit` `zero_alloc` tests, applied one layer up at the rig).
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

/// Times `f` and prints a criterion-style `name ... ns/iter` line.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up and calibrate so each measurement takes ~0.2 s.
    let t0 = Instant::now();
    let mut warmup_iters = 0u64;
    while t0.elapsed().as_millis() < 50 {
        f();
        warmup_iters += 1;
    }
    let per_iter = t0.elapsed().as_nanos() as u64 / warmup_iters.max(1);
    let iters = (200_000_000 / per_iter.max(1)).clamp(10, 10_000_000);

    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>12.1} ns/iter  ({iters} iters)");
}

fn bench_circuit() {
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
    .unwrap();
    for layer in 0..4 {
        for col in 0..4 {
            sim.set_control(pdn.sm_load[layer][col], 8.0);
        }
    }
    bench("stacked_pdn_transient_step", || {
        sim.step().unwrap();
        black_box(sim.voltage(pdn.die_top));
    });

    let ac = AcAnalysis::new(&pdn.netlist).unwrap();
    bench("stacked_pdn_ac_solve", || {
        black_box(
            ac.impedance(black_box(70e6), pdn.sm_top[1][0], pdn.sm_bottom[1][0])
                .unwrap(),
        );
    });
}

fn bench_numerics() {
    let n = 8;
    let mut a = Matrix::zeros(n, n);
    let mut seed = 0x12345u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    };
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = next();
        }
    }
    bench("expm_8x8", || {
        black_box(expm(&a));
    });
    bench("eigenvalues_8x8", || {
        black_box(eigenvalues(&a));
    });

    let m = 48;
    let mut big = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            big[(i, j)] = next();
        }
        big[(i, i)] += 10.0;
    }
    let lu = LuFactors::factor(&big).unwrap();
    let rhs = vec![1.0; m];
    bench("lu_solve_48", || {
        black_box(lu.solve(&rhs));
    });
}

fn bench_gpu() {
    let cfg = GpuConfig::default();
    let kernel = build_kernel(&benchmark("heartwall").unwrap(), &cfg, 1);
    let mut gpu = Gpu::new(&cfg, &kernel, SchedulerKind::Gto);
    bench("gpu_tick_16_sms", || {
        black_box(gpu.tick());
    });
}

fn bench_controller() {
    let mut ctrl = VoltageController::new(ControllerConfig::default());
    let mut voltages = vec![1.0; 16];
    voltages[5] = 0.85;
    bench("controller_update", || {
        black_box(ctrl.update(black_box(&voltages)));
    });
}

fn bench_rig() {
    let mut rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let p = vec![8.0; 16];
    let z = vec![0.0; 16];
    bench("pds_rig_step", || {
        rig.step(black_box(&p), &z, &z).expect("bench step");
    });
}

/// Guard: with batching disabled (the default), the scalar rig hot path must
/// stay allocation-free per cycle. `PdsRig::step` is now the composition
/// `stage_loads` → `step_with_recovery` → `finish_step` — the seams the
/// batched SoA driver hooks into — and splitting it must not have introduced
/// per-cycle heap traffic. Same bar as the `vs-circuit` `zero_alloc` tests:
/// warm the rig, then a window of steady-state steps must leave the counting
/// allocator untouched.
fn bench_scalar_alloc_guard() {
    let mut rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let p = vec![8.0; 16];
    let z = vec![0.0; 16];
    for _ in 0..64 {
        rig.step(&p, &z, &z).expect("warm-up step");
    }
    let before = allocs();
    for _ in 0..1_000 {
        rig.step(black_box(&p), &z, &z).expect("guarded step");
    }
    let delta = allocs() - before;
    println!("scalar_rig_step alloc guard: {delta} allocations over 1000 cycles (limit 0)");
    assert_eq!(
        delta, 0,
        "batching-disabled scalar rig.step allocated {delta} times over 1000 cycles: \
         the stage_loads/step/finish_step split is no longer allocation-free"
    );
}

/// Guard: the disabled-telemetry instrumentation points threaded through the
/// co-simulation hot loop must stay branch-cheap. Each cosim cycle pays five
/// span start/stop pairs plus a couple of `is_enabled` checks; against a
/// multi-microsecond cycle (see `pds_rig_step` above) the whole bundle must
/// be noise. We time one cycle's worth of disabled instrumentation directly
/// and fail the bench if it exceeds `MAX_DISABLED_NS` — far below 2% of a
/// cycle, and loose enough not to flake on a busy machine.
fn bench_telemetry_overhead() {
    const MAX_DISABLED_NS: f64 = 250.0;
    let mut t = Telemetry::disabled();
    let mut measured = f64::INFINITY;
    bench("telemetry_disabled_per_cycle", || {
        for stage in Stage::ALL {
            let span = t.stages.start();
            black_box(&mut t).stages.stop(stage, span);
        }
        black_box(t.is_enabled());
        black_box(t.is_enabled());
    });
    // Re-measure outside `bench` (which only prints) for the assertion;
    // take the best of a few trials so scheduler noise cannot fail us.
    for _ in 0..5 {
        let iters = 100_000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            for stage in Stage::ALL {
                let span = t.stages.start();
                black_box(&mut t).stages.stop(stage, span);
            }
            black_box(t.is_enabled());
            black_box(t.is_enabled());
        }
        measured = measured.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    println!("telemetry_disabled_per_cycle guard: best {measured:.1} ns (limit {MAX_DISABLED_NS} ns)");
    assert!(
        measured < MAX_DISABLED_NS,
        "disabled telemetry costs {measured:.1} ns per simulated cycle \
         (limit {MAX_DISABLED_NS} ns): the disabled path is no longer a branch"
    );
}

/// Guard: the executor tracing instrumentation in the task lifecycle must
/// be free when tracing is off. With the tracer disabled, every probe a
/// scenario task passes — the span-begin check, the gated executor metric
/// calls, the queue-depth gate — reduces to one relaxed atomic load each.
/// Same shape as the telemetry guard above: print via `bench`, assert on
/// the best of five direct trials.
fn bench_trace_overhead() {
    const MAX_DISABLED_NS: f64 = 250.0;
    obs::set_tracing(false);
    let task_probes = || {
        // One task's worth of disabled instrumentation: task + attempt
        // span begins, the ok-counter, the labeled wall histogram, and
        // the queue-depth gauge.
        black_box(obs::tracer().begin());
        black_box(obs::tracer().begin());
        obs::metric_inc("executor.tasks_ok", 1);
        obs::metric_observe_wall("executor.task_wall_s{scenario=bfs}", 0.5);
        obs::metric_gauge("executor.queue_depth", 0.0);
        black_box(obs::tracing_enabled());
    };
    bench("executor_tracing_disabled", task_probes);
    let mut measured = f64::INFINITY;
    for _ in 0..5 {
        let iters = 100_000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            task_probes();
        }
        measured = measured.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    println!("executor_tracing_disabled guard: best {measured:.1} ns (limit {MAX_DISABLED_NS} ns)");
    assert!(
        measured < MAX_DISABLED_NS,
        "disabled executor tracing costs {measured:.1} ns per task \
         (limit {MAX_DISABLED_NS} ns): the disabled path is no longer a branch"
    );
}

fn main() {
    // `cargo bench` forwards a `--bench` flag; `cargo test --benches` runs
    // this binary with `--test` style flags. Only time things when actually
    // benchmarking so the test suite stays fast.
    let arg_test = std::env::args().any(|a| a == "--test");
    if arg_test {
        println!("perf: skipped under --test");
        return;
    }
    bench_circuit();
    bench_numerics();
    bench_gpu();
    bench_controller();
    bench_rig();
    bench_scalar_alloc_guard();
    bench_telemetry_overhead();
    bench_trace_overhead();
}
