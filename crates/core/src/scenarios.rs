//! Synthetic worst-case imbalance scenario (paper Figs. 9 and 10).
//!
//! All SMs run a steady, balanced load; at the 3 µs mark every SM in one
//! stack layer is power-gated, creating the maximum sustained inter-layer
//! current imbalance the impedance analysis identified as the binding
//! reliability case. The circuit-only design must absorb it entirely in the
//! CR-IVR; the cross-layer design lets the voltage-smoothing loop throttle
//! the loaded layers and ballast the gated one, surviving with a fraction of
//! the regulator area.

use std::fmt;
use std::str::FromStr;

use vs_circuit::Trace;
use vs_control::{ActuatorWeights, ControllerConfig, DetectorKind, VoltageController};
use vs_gpu::WorkloadProfile;

use vs_circuit::SolverWorkspace;

use crate::config::{PdsKind, StackGeometry};
use crate::rig::PdsRig;

/// Typed identifier for the twelve benchmark scenarios of the paper's
/// evaluation (six Rodinia 2.0, six CUDA SDK), in presentation order.
///
/// This replaces the stringly-typed benchmark-name plumbing: experiments
/// pass a `ScenarioId` to [`crate::run_scenario`], and CLIs parse user
/// input with [`FromStr`] / print it with [`fmt::Display`] (both use the
/// historical lowercase names, so existing command lines keep working).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioId {
    /// Back-propagation (Rodinia): dense FFMA layers, barriers, the most
    /// SM-imbalanced profile.
    Backprop,
    /// Breadth-first search (Rodinia): pointer chasing, heavy divergence.
    Bfs,
    /// Heart-wall tracking (Rodinia): compute-dense, the paper's headline
    /// benchmark.
    Heartwall,
    /// HotSpot thermal simulation (Rodinia): stencil with shared-memory
    /// tiling.
    Hotspot,
    /// PathFinder dynamic programming (Rodinia).
    Pathfinder,
    /// SRAD speckle-reducing anisotropic diffusion (Rodinia).
    Srad,
    /// Black-Scholes option pricing (CUDA SDK): SFU-heavy streaming.
    Blackscholes,
    /// Scalar product (CUDA SDK): bandwidth-bound reduction.
    Scalarprod,
    /// Bitonic sorting network (CUDA SDK): barrier-synchronized phases.
    Sortingnet,
    /// Face detection (CUDA SDK sample workload).
    Simpleface,
    /// Fast Walsh transform (CUDA SDK).
    Fastwalsh,
    /// Atomic-intrinsics microbenchmark (CUDA SDK).
    Simpleatomic,
}

impl ScenarioId {
    /// All scenarios in the paper's presentation order (the order
    /// [`vs_gpu::all_benchmarks`] returns).
    pub const ALL: [ScenarioId; 12] = [
        ScenarioId::Backprop,
        ScenarioId::Bfs,
        ScenarioId::Heartwall,
        ScenarioId::Hotspot,
        ScenarioId::Pathfinder,
        ScenarioId::Srad,
        ScenarioId::Blackscholes,
        ScenarioId::Scalarprod,
        ScenarioId::Sortingnet,
        ScenarioId::Simpleface,
        ScenarioId::Fastwalsh,
        ScenarioId::Simpleatomic,
    ];

    /// The scenario's canonical (lowercase) benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioId::Backprop => "backprop",
            ScenarioId::Bfs => "bfs",
            ScenarioId::Heartwall => "heartwall",
            ScenarioId::Hotspot => "hotspot",
            ScenarioId::Pathfinder => "pathfinder",
            ScenarioId::Srad => "srad",
            ScenarioId::Blackscholes => "blackscholes",
            ScenarioId::Scalarprod => "scalarprod",
            ScenarioId::Sortingnet => "sortingnet",
            ScenarioId::Simpleface => "simpleface",
            ScenarioId::Fastwalsh => "fastwalsh",
            ScenarioId::Simpleatomic => "simpleatomic",
        }
    }

    /// The workload profile backing this scenario.
    ///
    /// # Panics
    ///
    /// Never in practice: the catalogue is defined by
    /// [`vs_gpu::all_benchmarks`] and covered by tests.
    pub fn profile(self) -> WorkloadProfile {
        vs_gpu::benchmark(self.name()).expect("scenario catalogue matches vs-gpu benchmarks")
    }
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for a benchmark name outside the scenario catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The rejected name.
    pub name: String,
}

impl fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark {:?}; expected one of: ", self.name)?;
        for (i, id) in ScenarioId::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(id.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownScenario {}

impl FromStr for ScenarioId {
    type Err = UnknownScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioId::ALL
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| UnknownScenario {
                name: s.to_string(),
            })
    }
}

/// Worst-case scenario parameters.
#[derive(Debug, Clone)]
pub struct WorstCaseConfig {
    /// CR-IVR area as a multiple of the GPU die.
    pub area_mult: f64,
    /// Stack geometry (series layers × columns).
    pub geometry: StackGeometry,
    /// Use the cross-layer controller (false = circuit-only).
    pub cross_layer: bool,
    /// Control-loop latency, cycles.
    pub latency_cycles: u32,
    /// Actuator weights for the controller.
    pub weights: ActuatorWeights,
    /// Controller trigger threshold, volts.
    pub v_threshold: f64,
    /// Voltage detector option (Table II) for the controller front end.
    pub detector: DetectorKind,
    /// Steady per-SM power before the event, watts.
    pub p_sm_w: f64,
    /// Share of SM power the controller cannot remove (leakage + clock
    /// tree), watts.
    pub p_floor_w: f64,
    /// Event time, seconds (the paper gates at 3 µs).
    pub gate_at_s: f64,
    /// Total simulated span, seconds.
    pub duration_s: f64,
    /// Which layer is gated.
    pub gated_layer: usize,
}

impl Default for WorstCaseConfig {
    fn default() -> Self {
        WorstCaseConfig {
            area_mult: 0.2,
            geometry: StackGeometry::PAPER,
            cross_layer: true,
            latency_cycles: 60,
            weights: ActuatorWeights::new(0.6, 0.0, 0.4),
            v_threshold: 0.9,
            detector: DetectorKind::Oddd,
            p_sm_w: 8.0,
            p_floor_w: 2.5,
            gate_at_s: 3e-6,
            duration_s: 5e-6,
            gated_layer: 0,
        }
    }
}

impl WorstCaseConfig {
    /// This config with every input [`run_worst_case_in`] does not read
    /// reset to its default. A circuit-only run (`cross_layer == false`)
    /// builds no controller, so its latency, weights, threshold, detector
    /// and uncontrollable-power floor are dead inputs. The run itself
    /// starts from this form, so configs with equal canonical forms give
    /// bit-identical results by construction.
    #[must_use]
    pub fn canonical(&self) -> WorstCaseConfig {
        if self.cross_layer {
            return self.clone();
        }
        let defaults = WorstCaseConfig::default();
        WorstCaseConfig {
            latency_cycles: defaults.latency_cycles,
            weights: defaults.weights,
            v_threshold: defaults.v_threshold,
            detector: defaults.detector,
            p_floor_w: defaults.p_floor_w,
            ..self.clone()
        }
    }

    /// The identity of the run this config describes: every field of
    /// [`WorstCaseConfig::canonical`], `f64`s by bit pattern (exact, never a
    /// tolerance). Two configs share a key iff their runs read identical
    /// inputs. The exhaustive destructuring makes adding a field without
    /// extending the key a compile error.
    #[must_use]
    pub fn run_key(&self) -> Vec<u64> {
        let WorstCaseConfig {
            area_mult,
            geometry,
            cross_layer,
            latency_cycles,
            weights,
            v_threshold,
            detector,
            p_sm_w,
            p_floor_w,
            gate_at_s,
            duration_s,
            gated_layer,
        } = self.canonical();
        let mut key = vec![area_mult.to_bits()];
        geometry.stable_key_into(&mut key);
        key.extend([u64::from(cross_layer), u64::from(latency_cycles)]);
        weights.stable_key_into(&mut key);
        key.push(v_threshold.to_bits());
        detector.stable_key_into(&mut key);
        key.extend([
            p_sm_w.to_bits(),
            p_floor_w.to_bits(),
            gate_at_s.to_bits(),
            duration_s.to_bits(),
            gated_layer as u64,
        ]);
        key
    }
}

/// Outcome of a worst-case run.
#[derive(Debug, Clone)]
pub struct WorstCaseResult {
    /// Minimum loaded-SM voltage over time (the Fig. 9 waveform).
    pub trace: Trace,
    /// Worst voltage reached after the gating event, volts.
    pub worst_voltage: f64,
    /// Voltage at the end of the run (post-recovery), volts.
    pub final_voltage: f64,
}

/// Runs the worst-case imbalance scenario.
///
/// # Panics
///
/// Panics if `gated_layer` is out of range for the configured stack.
pub fn run_worst_case(cfg: &WorstCaseConfig) -> WorstCaseResult {
    run_worst_case_in(cfg, SolverWorkspace::new()).0
}

/// [`run_worst_case`] on a reusable [`SolverWorkspace`], returning the
/// workspace when the run finishes so callers sweeping many configurations
/// (the `dse` driver) skip the solver's warm-up allocations on every run
/// after the first. Reuse never changes results.
///
/// # Panics
///
/// Panics if `gated_layer` is out of range for the configured stack.
pub fn run_worst_case_in(
    cfg: &WorstCaseConfig,
    workspace: SolverWorkspace,
) -> (WorstCaseResult, SolverWorkspace) {
    let cfg = &cfg.canonical();
    let clock_hz = 700e6;
    let dt = 1.0 / clock_hz;
    let pds = if cfg.cross_layer {
        PdsKind::VsCrossLayer {
            area_mult: cfg.area_mult,
        }
    } else {
        PdsKind::VsCircuitOnly {
            area_mult: cfg.area_mult,
        }
    };
    let mut rig = PdsRig::with_params_in(pds, &cfg.geometry.pdn_params(), dt, 0.08, workspace);
    let (n_layers, n_columns) = rig.topology();
    assert!(cfg.gated_layer < n_layers);
    let n_sms = rig.n_sms();

    let controller_cfg = ControllerConfig {
        v_threshold: cfg.v_threshold,
        weights: cfg.weights,
        latency_cycles: cfg.latency_cycles,
        detector: cfg.detector,
        ..ControllerConfig::default()
    };
    let mut controller = cfg
        .cross_layer
        .then(|| VoltageController::new(controller_cfg.clone()));

    let total_cycles = (cfg.duration_s / dt).round() as u64;
    let gate_cycle = (cfg.gate_at_s / dt).round() as u64;
    let mut trace = Trace::new("min loaded SM voltage");
    let mut worst_after_event = f64::INFINITY;
    let mut sm_watts = vec![cfg.p_sm_w; n_sms];
    let mut dcc_watts = vec![0.0; n_sms];
    let mut fake_watts = vec![0.0; n_sms];
    // Retention power of a fully gated SM.
    let p_gated = 0.075;
    let p_dynamic = (cfg.p_sm_w - cfg.p_floor_w).max(0.0);
    let e_fake_w_per_rate = 4.5e-9 * clock_hz; // one fake SP op per cycle

    for cycle in 0..total_cycles {
        let gated = cycle >= gate_cycle;
        let commands = controller.as_ref().map(|c| c.active_commands().to_vec());
        for layer in 0..n_layers {
            for col in 0..n_columns {
                let sm = layer * n_columns + col;
                if gated && layer == cfg.gated_layer {
                    sm_watts[sm] = p_gated;
                    fake_watts[sm] = 0.0;
                    // The gated SM cannot execute fake instructions, but its
                    // DCC DAC still works.
                    dcc_watts[sm] = commands
                        .as_ref()
                        .map_or(0.0, |c| c[sm].dcc_power_w);
                    continue;
                }
                match &commands {
                    Some(c) => {
                        let width_frac = c[sm].issue_width / 2.0;
                        let fake = c[sm].fake_rate * e_fake_w_per_rate;
                        sm_watts[sm] = cfg.p_floor_w + p_dynamic * width_frac + fake;
                        fake_watts[sm] = fake;
                        dcc_watts[sm] = c[sm].dcc_power_w;
                    }
                    None => {
                        sm_watts[sm] = cfg.p_sm_w;
                        fake_watts[sm] = 0.0;
                        dcc_watts[sm] = 0.0;
                    }
                }
            }
        }
        rig.step(&sm_watts, &dcc_watts, &fake_watts)
            .expect("worst-case scenario steps cleanly");
        let voltages = rig.sm_voltages();
        if let Some(ctrl) = controller.as_mut() {
            ctrl.update(&voltages);
        }
        // Track the minimum voltage among SMs that are still running.
        let mut v_min = f64::INFINITY;
        for layer in 0..n_layers {
            if gated && layer == cfg.gated_layer {
                continue;
            }
            for col in 0..n_columns {
                v_min = v_min.min(voltages[layer * n_columns + col]);
            }
        }
        trace.push(rig.time(), v_min);
        if gated {
            worst_after_event = worst_after_event.min(v_min);
        }
    }

    let result = WorstCaseResult {
        final_voltage: trace.last().unwrap_or(0.0),
        trace,
        worst_voltage: worst_after_event,
    };
    (result, rig.into_workspace())
}

/// Fig. 10 sweep point: worst-case voltage for an (area, latency) pair.
pub fn worst_voltage_for(area_mult: f64, latency_cycles: u32, cross_layer: bool) -> f64 {
    run_worst_case(&WorstCaseConfig {
        area_mult,
        latency_cycles,
        cross_layer,
        ..WorstCaseConfig::default()
    })
    .worst_voltage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_catalogue_matches_vs_gpu_benchmarks() {
        let names: Vec<String> = vs_gpu::all_benchmarks().into_iter().map(|b| b.name).collect();
        assert_eq!(names.len(), ScenarioId::ALL.len());
        for (id, name) in ScenarioId::ALL.iter().zip(&names) {
            assert_eq!(id.name(), name, "catalogue order drifted");
            assert_eq!(id.profile().name, *name);
        }
    }

    #[test]
    fn scenario_round_trips_through_strings() {
        for id in ScenarioId::ALL {
            assert_eq!(id.to_string().parse::<ScenarioId>(), Ok(id));
        }
        let err = "warpspeed".parse::<ScenarioId>().unwrap_err();
        assert_eq!(err.name, "warpspeed");
        let msg = err.to_string();
        assert!(msg.contains("warpspeed") && msg.contains("backprop"), "{msg}");
    }

    #[test]
    fn circuit_only_needs_large_area() {
        // Fig. 9: with ~2x GPU area the circuit-only design holds 0.8 V;
        // with 0.2x it collapses.
        let big = run_worst_case(&WorstCaseConfig {
            area_mult: 2.0,
            cross_layer: false,
            duration_s: 4.5e-6,
            ..WorstCaseConfig::default()
        });
        let small = run_worst_case(&WorstCaseConfig {
            area_mult: 0.2,
            cross_layer: false,
            duration_s: 4.5e-6,
            ..WorstCaseConfig::default()
        });
        assert!(big.worst_voltage > 0.78, "2x area held {}", big.worst_voltage);
        assert!(
            small.worst_voltage < 0.55,
            "0.2x circuit-only should collapse, held {}",
            small.worst_voltage
        );
    }

    #[test]
    fn cross_layer_survives_with_small_area() {
        let r = run_worst_case(&WorstCaseConfig {
            area_mult: 0.2,
            cross_layer: true,
            ..WorstCaseConfig::default()
        });
        assert!(
            r.worst_voltage > 0.7,
            "cross-layer at 0.2x must hold the guardband region, got {}",
            r.worst_voltage
        );
        // And recover close to nominal by the end of the run.
        assert!(r.final_voltage > 0.78, "final {}", r.final_voltage);
    }

    #[test]
    fn longer_latency_hurts_worst_case() {
        let fast = worst_voltage_for(0.2, 60, true);
        let slow = worst_voltage_for(0.2, 140, true);
        assert!(fast >= slow - 1e-9, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn more_area_never_hurts() {
        let small = worst_voltage_for(0.4, 80, true);
        let large = worst_voltage_for(1.0, 80, true);
        assert!(large >= small - 0.02, "{small} -> {large}");
    }

    #[test]
    fn no_event_before_gate_time() {
        let r = run_worst_case(&WorstCaseConfig {
            duration_s: 2e-6, // ends before the 3 us event
            gate_at_s: 3e-6,
            ..WorstCaseConfig::default()
        });
        // Balanced the whole time: voltage near nominal throughout.
        assert!(r.trace.min() > 0.95, "pre-event min {}", r.trace.min());
        assert!(r.worst_voltage.is_infinite());
    }
}
