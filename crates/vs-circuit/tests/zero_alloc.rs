//! Steady-state transient stepping must perform **zero heap allocations per
//! cycle** — the acceptance bar for the batched co-simulation hot path. A
//! counting global allocator wraps the system allocator; after warm-up, a
//! window of `step()` / `step_with_recovery()` calls must leave the test
//! thread's allocation counter untouched. The counter is per thread, so
//! tests running in parallel never see each other's allocations.
//!
//! The netlist below is a miniature of the stacked power-delivery system the
//! co-simulation drives: a stacked source, per-layer decap + load current
//! sources (externally controlled), a charge-recycler ladder, an inductive
//! supply path, and a switch — every element kind the hot path stamps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vs_circuit::{Integration, Netlist, RecoveryPolicy, SolverWorkspace, Transient, Waveform};

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

/// A two-layer stacked PDN in miniature, with externally controlled loads.
fn stacked_netlist() -> (Netlist, Vec<vs_circuit::ControlId>, vs_circuit::NodeId) {
    let mut net = Netlist::new();
    let top = net.node("top");
    let mid = net.node("mid");
    let sup = net.node("sup");
    net.voltage_source(sup, Netlist::GROUND, 2.0);
    net.inductor(sup, top, 1e-9);
    net.resistor(sup, top, 0.05);
    net.capacitor(top, mid, 1e-6);
    net.capacitor(mid, Netlist::GROUND, 1e-6);
    net.charge_recycler(top, mid, Netlist::GROUND, 5.0);
    net.switch(top, mid, 1e6, 1e9, false);
    net.current_source(
        top,
        mid,
        Waveform::Sine { offset: 0.4, amplitude: 0.1, freq_hz: 5e6, phase_rad: 0.0 },
    );
    let mut controls = Vec::new();
    let (_, c0) = net.controlled_current_source(top, mid);
    let (_, c1) = net.controlled_current_source(mid, Netlist::GROUND);
    controls.push(c0);
    controls.push(c1);
    (net, controls, top)
}

#[test]
fn steady_state_stepping_is_allocation_free() {
    let (net, controls, _) = stacked_netlist();
    let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    // Warm-up: first steps may lazily touch capacity.
    for i in 0..64 {
        let x = 0.3 + 0.05 * f64::from(i % 7);
        sim.set_control(controls[0], x);
        sim.set_control(controls[1], 0.5 - 0.04 * f64::from(i % 5));
        sim.step().unwrap();
    }
    let before = allocs();
    for i in 0..1_000 {
        let x = 0.3 + 0.05 * f64::from(i % 7);
        sim.set_control(controls[0], x);
        sim.set_control(controls[1], 0.5 - 0.04 * f64::from(i % 5));
        sim.step().unwrap();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state step() allocated {} times over 1000 cycles",
        after - before
    );
}

#[test]
fn recovery_wrapper_success_path_is_allocation_free() {
    let (net, controls, _) = stacked_netlist();
    let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    let policy = RecoveryPolicy::default();
    for _ in 0..64 {
        sim.set_control(controls[0], 0.4);
        sim.set_control(controls[1], 0.4);
        sim.step_with_recovery(&policy).unwrap();
    }
    let before = allocs();
    for _ in 0..1_000 {
        sim.step_with_recovery(&policy).unwrap();
    }
    assert_eq!(allocs() - before, 0, "recovery success path allocated");
}

#[test]
fn workspace_round_trip_reuses_buffers_and_dc_cache() {
    let (net, controls, top) = stacked_netlist();
    // First run warms the workspace (and populates the DC cache).
    let mut sim = Transient::new_in(&net, 1e-9, Integration::Trapezoidal, SolverWorkspace::new())
        .unwrap();
    sim.set_control(controls[0], 0.4);
    sim.run(16).unwrap();
    let v_first = sim.voltage(top);
    let ws = sim.into_workspace();
    assert_eq!(ws.dc_cache_hits(), 0);
    assert_eq!(ws.runs(), 1);

    // Second run through the same workspace: DC comes from cache, results
    // are bit-identical to a fresh solver.
    let mut reused = Transient::new_in(&net, 1e-9, Integration::Trapezoidal, ws).unwrap();
    let mut fresh = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    reused.set_control(controls[0], 0.4);
    fresh.set_control(controls[0], 0.4);
    reused.run(16).unwrap();
    fresh.run(16).unwrap();
    assert_eq!(reused.voltage(top), v_first);
    assert_eq!(reused.voltage(top), fresh.voltage(top));
    assert_eq!(reused.energy().resistive_loss_j, fresh.energy().resistive_loss_j);
    let ws = reused.into_workspace();
    assert_eq!(ws.dc_cache_hits(), 1);
    assert_eq!(ws.runs(), 2);
}
