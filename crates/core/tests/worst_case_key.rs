//! The run-identity contract behind the `dse` driver's shared worst-case
//! runs: [`WorstCaseConfig::run_key`] names exactly the inputs
//! [`run_worst_case`] reads. Circuit-only configs that differ only in
//! controller fields must give bit-identical results and share a key;
//! cross-layer configs that differ in any controller field must not.

use vs_control::{ActuatorWeights, DetectorKind};
use vs_core::{run_worst_case, WorstCaseConfig, WorstCaseResult};

/// A short gating run: the event lands 40% in, well before the end.
fn short(cross_layer: bool) -> WorstCaseConfig {
    WorstCaseConfig {
        cross_layer,
        gate_at_s: 0.6e-6,
        duration_s: 1.5e-6,
        ..WorstCaseConfig::default()
    }
}

/// Every number a result carries, as bit patterns.
fn bits(r: &WorstCaseResult) -> Vec<u64> {
    let mut out = vec![r.worst_voltage.to_bits(), r.final_voltage.to_bits()];
    out.extend(r.trace.times().iter().map(|t| t.to_bits()));
    out.extend(r.trace.values().iter().map(|v| v.to_bits()));
    out
}

#[test]
fn circuit_only_runs_ignore_controller_fields() {
    let a = short(false);
    let b = WorstCaseConfig {
        latency_cycles: 120,
        weights: ActuatorWeights::DIWS_ONLY,
        v_threshold: 0.88,
        detector: DetectorKind::Cpm,
        ..short(false)
    };
    assert_eq!(a.run_key(), b.run_key(), "dead controller fields split the key");
    let (ra, rb) = (run_worst_case(&a), run_worst_case(&b));
    assert!(ra.worst_voltage.is_finite(), "the gating event happened");
    assert_eq!(bits(&ra), bits(&rb));

    // A field the circuit-only run does read still splits the key.
    let bigger = WorstCaseConfig { area_mult: 0.4, ..short(false) };
    assert_ne!(a.run_key(), bigger.run_key());
}

#[test]
fn cross_layer_runs_keep_every_controller_field() {
    let base = short(true);
    assert_eq!(base.run_key(), base.canonical().run_key());
    let variants = [
        WorstCaseConfig { v_threshold: 0.88, ..short(true) },
        WorstCaseConfig { latency_cycles: 120, ..short(true) },
        WorstCaseConfig { weights: ActuatorWeights::DIWS_ONLY, ..short(true) },
        WorstCaseConfig { detector: DetectorKind::Cpm, ..short(true) },
        short(false),
    ];
    for variant in &variants {
        assert_ne!(base.run_key(), variant.run_key(), "{variant:?} shares the key of {base:?}");
    }
}
