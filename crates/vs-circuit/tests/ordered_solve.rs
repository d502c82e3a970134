//! The fill-reducing ordering must not change what the transient engine
//! computes. Each rig the co-simulation drives (flat, and stacked 2×8, 4×4
//! and 8×2) is stepped by the production [`Transient`] and, alongside it, by
//! a small reference engine in this file: the same trapezoidal companion
//! models stamped in natural MNA order and solved by plain dense Gaussian
//! elimination with partial pivoting. Over 10k steps with per-SM load steps,
//! recyclers retuned to 0 S and back, and one NaN-control recovery (a
//! dt-halving refactor and back), every node voltage must agree to 1e-9 V.

use vs_circuit::{
    ControlId, Element, ElementId, Integration, Netlist, NodeId, RecoveryPolicy, Transient,
};
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, SingleLayerPdn, StackedPdn};

const DT: f64 = 1.0 / 700e6;
const STEPS: usize = 10_000;
const RECYCLERS_OFF_AT: usize = 3_000;
const RECYCLERS_ON_AT: usize = 5_000;
const NAN_AT: usize = 7_000;
const TOL_V: f64 = 1e-9;

/// Natural-order dense LU with partial pivoting (`P*A = L*U`).
struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl DenseLu {
    fn factor(n: usize, mut lu: Vec<f64>) -> Self {
        let mut pivots = Vec::with_capacity(n);
        for col in 0..n {
            let best = (col..n)
                .max_by(|&r, &s| lu[r * n + col].abs().total_cmp(&lu[s * n + col].abs()))
                .unwrap();
            assert!(
                lu[best * n + col].abs() > 1e-300,
                "reference matrix is singular"
            );
            pivots.push(best);
            for c in 0..n {
                lu.swap(col * n + c, best * n + c);
            }
            for row in col + 1..n {
                let factor = lu[row * n + col] / lu[col * n + col];
                lu[row * n + col] = factor;
                for c in col + 1..n {
                    lu[row * n + c] -= factor * lu[col * n + c];
                }
            }
        }
        DenseLu { n, lu, pivots }
    }

    fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        for (col, &p) in self.pivots.iter().enumerate() {
            b.swap(col, p);
        }
        for i in 0..n {
            for j in 0..i {
                b[i] -= self.lu[i * n + j] * b[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                b[i] -= self.lu[i * n + j] * b[j];
            }
            b[i] /= self.lu[i * n + i];
        }
    }
}

/// Trapezoidal transient reference over a copy of the netlist's elements,
/// stamped in natural MNA order: node `k` is unknown `k - 1`, then one
/// branch current per voltage source and inductor in element order.
struct Reference {
    elements: Vec<Element>,
    dt: f64,
    time: f64,
    n_vars: usize,
    /// Element index -> branch-current unknown (voltage sources, inductors).
    branch_row: Vec<Option<usize>>,
    /// Per element: (v_prev, i_prev) for capacitors and inductors.
    state: Vec<(f64, f64)>,
    controls: Vec<f64>,
    x: Vec<f64>,
    lu: DenseLu,
}

fn var(n: NodeId) -> Option<usize> {
    n.index().checked_sub(1)
}

impl Reference {
    fn new(net: &Netlist, v0: &[f64], g2: &[f64]) -> Self {
        let elements = net.elements().to_vec();
        let mut branch_row = vec![None; elements.len()];
        let mut next = net.n_nodes() - 1;
        for (idx, e) in elements.iter().enumerate() {
            if matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }) {
                branch_row[idx] = Some(next);
                next += 1;
            }
        }
        let mut x = v0[1..].to_vec();
        x.extend_from_slice(g2);
        let mut state = vec![(0.0, 0.0); elements.len()];
        for (idx, e) in elements.iter().enumerate() {
            let dv = |a: NodeId, b: NodeId| v0[a.index()] - v0[b.index()];
            match *e {
                Element::Capacitor { a, b, .. } => state[idx] = (dv(a, b), 0.0),
                Element::Inductor { a, b, .. } => {
                    state[idx] = (dv(a, b), x[branch_row[idx].unwrap()]);
                }
                _ => {}
            }
        }
        let mut r = Reference {
            elements,
            dt: DT,
            time: 0.0,
            n_vars: next,
            branch_row,
            state,
            controls: vec![0.0; net.n_controls()],
            x,
            lu: DenseLu {
                n: 0,
                lu: Vec::new(),
                pivots: Vec::new(),
            },
        };
        r.refactor();
        r
    }

    fn refactor(&mut self) {
        let n = self.n_vars;
        let mut a = vec![0.0; n * n];
        let mut add = |r: Option<usize>, c: Option<usize>, v: f64| {
            if let (Some(r), Some(c)) = (r, c) {
                a[r * n + c] += v;
            }
        };
        for (idx, e) in self.elements.iter().enumerate() {
            let mut conductance = |p: NodeId, q: NodeId, g: f64| {
                add(var(p), var(p), g);
                add(var(q), var(q), g);
                add(var(p), var(q), -g);
                add(var(q), var(p), -g);
            };
            match *e {
                Element::Resistor { a, b, ohms } => conductance(a, b, 1.0 / ohms),
                Element::Switch {
                    a,
                    b,
                    r_on,
                    r_off,
                    closed,
                } => {
                    conductance(a, b, 1.0 / if closed { r_on } else { r_off });
                }
                Element::Capacitor { a, b, farads } => conductance(a, b, 2.0 * farads / self.dt),
                Element::Inductor { a: p, b: q, .. }
                | Element::VoltageSource { pos: p, neg: q, .. } => {
                    let k = self.branch_row[idx];
                    add(k, var(p), 1.0);
                    add(var(p), k, 1.0);
                    add(k, var(q), -1.0);
                    add(var(q), k, -1.0);
                    if let Element::Inductor { henries, .. } = *e {
                        add(k, k, -2.0 * henries / self.dt);
                    }
                }
                Element::ChargeRecycler {
                    top,
                    mid,
                    bottom,
                    siemens: g,
                } => {
                    let w = [(top, 1.0), (mid, -2.0), (bottom, 1.0)];
                    for (r, wr) in w {
                        for (c, wc) in w {
                            add(var(r), var(c), wr * wc * g);
                        }
                    }
                }
                Element::CurrentSource { .. } => {}
            }
        }
        self.lu = DenseLu::factor(n, a);
    }

    fn v(&self, node: NodeId) -> f64 {
        var(node).map_or(0.0, |i| self.x[i])
    }

    fn step(&mut self) {
        let t_new = self.time + self.dt;
        let mut rhs = vec![0.0; self.n_vars];
        for (idx, e) in self.elements.iter().enumerate() {
            let (v_prev, i_prev) = self.state[idx];
            let mut inject = |p: NodeId, q: NodeId, i: f64| {
                if let Some(p) = var(p) {
                    rhs[p] += i;
                }
                if let Some(q) = var(q) {
                    rhs[q] -= i;
                }
            };
            match *e {
                Element::Capacitor { a, b, farads } => {
                    inject(a, b, 2.0 * farads / self.dt * v_prev + i_prev);
                }
                Element::CurrentSource { a, b, waveform } => {
                    inject(a, b, -waveform.value_at(t_new, &self.controls));
                }
                Element::Inductor { henries, .. } => {
                    rhs[self.branch_row[idx].unwrap()] = -2.0 * henries / self.dt * i_prev - v_prev;
                }
                Element::VoltageSource { volts, .. } => {
                    rhs[self.branch_row[idx].unwrap()] = volts;
                }
                _ => {}
            }
        }
        self.lu.solve(&mut rhs);
        self.x = rhs;
        self.time = t_new;
        for (idx, e) in self.elements.iter().enumerate() {
            let (v_prev, i_prev) = self.state[idx];
            match *e {
                Element::Capacitor { a, b, farads } => {
                    let v = self.v(a) - self.v(b);
                    self.state[idx] = (v, 2.0 * farads / self.dt * (v - v_prev) - i_prev);
                }
                Element::Inductor { a, b, .. } => {
                    let i = self.x[self.branch_row[idx].unwrap()];
                    self.state[idx] = (self.v(a) - self.v(b), i);
                }
                _ => {}
            }
        }
    }

    fn set_recycler(&mut self, id: ElementId, g: f64) {
        match &mut self.elements[id.index()] {
            Element::ChargeRecycler { siemens, .. } => *siemens = g,
            other => panic!("not a recycler: {other:?}"),
        }
        self.refactor();
    }

    /// Stored entries of the natural-order `L` and `U`, counted like
    /// [`vs_circuit::LuFactors::nnz`].
    fn nnz(&self) -> usize {
        self.lu.lu.iter().filter(|v| **v != 0.0).count()
    }
}

/// A rig under test: its netlist, initial state, per-SM load controls and
/// recycler elements (empty for the flat rig).
struct Rig {
    net: Netlist,
    v0: Vec<f64>,
    g2: Vec<f64>,
    loads: Vec<ControlId>,
    recyclers: Vec<ElementId>,
}

impl Rig {
    fn stacked(layers: usize, columns: usize) -> Rig {
        let am = AreaModel::default();
        let crivr = CrIvrConfig::cross_layer_default(&am);
        let params = PdnParams::with_geometry(layers, columns);
        let pdn = StackedPdn::build(&params, Some((&crivr, &am)));
        let (v0, g2) = pdn.balanced_initial_state();
        Rig {
            loads: pdn.sm_load.iter().flatten().copied().collect(),
            recyclers: pdn.recyclers.clone(),
            net: pdn.netlist,
            v0,
            g2,
        }
    }

    /// The single-layer rig from a flat start: the supply ramps up through
    /// the package inductance while the loads step.
    fn flat() -> Rig {
        let params = PdnParams::default();
        let pdn = SingleLayerPdn::build(&params, params.v_sm);
        let branches = pdn
            .netlist
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }))
            .count();
        Rig {
            v0: vec![0.0; pdn.netlist.n_nodes()],
            g2: vec![0.0; branches],
            loads: pdn.sm_load.clone(),
            recyclers: Vec::new(),
            net: pdn.netlist,
        }
    }

    fn transient(&self) -> Transient {
        Transient::with_initial_state(&self.net, DT, Integration::Trapezoidal, &self.v0, &self.g2)
            .unwrap()
    }
}

/// Every non-ground node once, in index order.
fn nodes_of(net: &Netlist) -> Vec<NodeId> {
    let mut nodes = vec![None; net.n_nodes()];
    for e in net.elements() {
        let (a, b) = e.terminals();
        nodes[a.index()] = Some(a);
        nodes[b.index()] = Some(b);
        if let Element::ChargeRecycler { mid, .. } = *e {
            nodes[mid.index()] = Some(mid);
        }
    }
    nodes
        .into_iter()
        .skip(1)
        .map(|n| n.expect("every node is a terminal"))
        .collect()
}

fn assert_matches_natural_order(rig: &Rig) {
    let mut sim = rig.transient();
    let mut reference = Reference::new(&rig.net, &rig.v0, &rig.g2);
    let nominal: Vec<f64> = rig
        .recyclers
        .iter()
        .map(|&id| sim.recycler_conductance(id).unwrap())
        .collect();
    let policy = RecoveryPolicy::default();
    let nodes = nodes_of(&rig.net);
    for step in 0..STEPS {
        if step == RECYCLERS_OFF_AT || step == RECYCLERS_ON_AT {
            for (&id, &g) in rig.recyclers.iter().zip(&nominal) {
                let g = if step == RECYCLERS_OFF_AT { 0.0 } else { g };
                sim.set_recycler_conductance(id, g).unwrap();
                reference.set_recycler(id, g);
            }
        }
        // Each SM toggles between a light and a heavy load on its own period.
        for (sm, &c) in rig.loads.iter().enumerate() {
            let amps = if (step / (200 + 37 * sm)) % 2 == 1 {
                9.0
            } else {
                4.0
            };
            sim.set_control(c, amps);
            reference.controls[c.index()] = amps;
        }
        if step == NAN_AT {
            // The rejected step is retried once at dt/2 with the NaN
            // sanitized to 0 A, then the solver refactors back to dt.
            sim.set_control(rig.loads[0], f64::NAN);
            let report = sim.step_with_recovery(&policy).unwrap();
            assert_eq!(
                (report.retries, report.halvings, report.sanitized_controls),
                (1, 1, 1)
            );
            reference.controls[rig.loads[0].index()] = 0.0;
            reference.dt = DT / 2.0;
            reference.refactor();
            reference.step();
            reference.step();
            reference.dt = DT;
            reference.refactor();
        } else {
            let report = sim.step_with_recovery(&policy).unwrap();
            assert!(!report.recovered(), "step {step} needed recovery");
            reference.step();
        }
        for &n in &nodes {
            let (got, want) = (sim.voltage(n), reference.v(n));
            assert!(
                (got - want).abs() <= TOL_V,
                "step {step}, node {}: ordered {got} vs natural {want}",
                n.index()
            );
        }
    }
}

#[test]
fn flat_rig_matches_natural_order() {
    assert_matches_natural_order(&Rig::flat());
}

#[test]
fn stacked_2x8_rig_matches_natural_order() {
    assert_matches_natural_order(&Rig::stacked(2, 8));
}

#[test]
fn stacked_4x4_rig_matches_natural_order() {
    assert_matches_natural_order(&Rig::stacked(4, 4));
}

#[test]
fn stacked_8x2_rig_matches_natural_order() {
    assert_matches_natural_order(&Rig::stacked(8, 2));
}

/// Fill guard: a silent fall-back to natural order would store ~1.9k
/// entries on the 4×4 rig.
#[test]
fn stacked_4x4_rig_factors_stay_sparse() {
    let rig = Rig::stacked(4, 4);
    let nnz = rig.transient().factors().nnz();
    let natural = Reference::new(&rig.net, &rig.v0, &rig.g2).nnz();
    assert!(
        nnz <= 300,
        "ordered L+U stores {nnz} entries (natural order: {natural})"
    );
}
