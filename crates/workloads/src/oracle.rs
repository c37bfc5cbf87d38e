//! Generator oracle: [`random_path_workload`] and
//! [`stochastic_workload`] against reference generators built from
//! the code they replaced. The references draw Zipf values with a loop
//! that recomputes the normalizer and every term with `powf` on each
//! draw, route the line by `bfs_path` and walk by `random_simple_path`
//! (both allocate their state per call), and build each request from an
//! owned path. Over thousands of seeded specs, both sides must give
//! identical instances (edge ids and cost bits) and leave their RNGs in
//! the same state, and one routing scratch, reused across every graph
//! drawn, must walk as `random_simple_path` does on each of them.

use crate::admission::{random_path_workload, PathWorkloadSpec, Topology};
use crate::cost::CostModel;
use crate::stochastic::{
    poisson, stochastic_workload, Phase, StochasticSpec, StochasticSummary, TrafficModel,
};
use acmr_core::{AdmissionInstance, Request};
use acmr_graph::routing::{self, RouteScratch};
use acmr_graph::{CapGraph, NodeId, Path};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// The per-draw cost sampler: Zipf recomputes its normalizer and terms.
fn reference_cost<R: Rng>(model: &CostModel, rng: &mut R) -> f64 {
    match *model {
        CostModel::Unit => 1.0,
        CostModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        CostModel::Zipf { n_values, s } => {
            let n = n_values.max(1);
            let norm: f64 = (1..=n).map(|v| 1.0 / (v as f64).powf(s)).sum();
            let mut u = rng.gen_range(0.0..1.0) * norm;
            for v in 1..=n {
                u -= 1.0 / (v as f64).powf(s);
                if u <= 0.0 {
                    return v as f64;
                }
            }
            n as f64
        }
        CostModel::Bimodal { lo, hi, p_hi } => {
            if rng.gen_bool(p_hi) {
                hi
            } else {
                lo
            }
        }
    }
}

/// The per-draw truncated Zipf on `{1, …, max}`.
fn reference_zipf_trunc<R: Rng>(alpha: f64, max: u32, rng: &mut R) -> u32 {
    let n = max.max(1);
    if n == 1 {
        return 1;
    }
    let norm: f64 = (1..=n).map(|v| 1.0 / (v as f64).powf(alpha)).sum();
    let mut u = rng.gen_range(0.0..1.0) * norm;
    for v in 1..=n {
        u -= 1.0 / (v as f64).powf(alpha);
        if u <= 0.0 {
            return v;
        }
    }
    n
}

/// A request built from an owned path.
fn reference_from_path(path: &Path, cost: f64) -> Request {
    Request::new(path.edge_set(), cost)
}

fn reference_path_workload<R: Rng>(
    spec: &PathWorkloadSpec,
    rng: &mut R,
) -> (CapGraph, AdmissionInstance) {
    let g = spec.topology.build(spec.capacity, rng);
    let mut inst = AdmissionInstance::from_graph(&g);
    let capacity_mass: f64 = g.capacities().iter().map(|&c| c as f64).sum();
    let target = spec.overload * capacity_mass;
    let mut demand = 0.0f64;
    let mut failures = 0u32;
    while demand < target && failures < 10_000 {
        let path = match spec.topology {
            Topology::Line { .. } => {
                let (a, b) = routing::random_node_pair(&g, rng);
                let (src, dst) = if a < b { (a, b) } else { (b, a) };
                let dst = NodeId(dst.0.min(src.0 + spec.max_hops));
                routing::bfs_path(&g, src, dst)
            }
            _ => {
                let src = NodeId(rng.gen_range(0..g.num_nodes() as u32));
                routing::random_simple_path(&g, src, spec.max_hops as usize, rng)
            }
        };
        let Some(path) = path else {
            failures += 1;
            continue;
        };
        demand += path.len() as f64;
        let cost = reference_cost(&spec.costs, rng);
        inst.push(reference_from_path(&path, cost));
    }
    (g, inst)
}

fn reference_sample_path<R: Rng>(
    topology: Topology,
    g: &CapGraph,
    max_hops: u32,
    width_alpha: f64,
    rng: &mut R,
) -> Option<Path> {
    match topology {
        Topology::Line { .. } => {
            let n = g.num_nodes() as u32;
            let hops = reference_zipf_trunc(width_alpha, max_hops.min(n - 1), rng);
            let src = rng.gen_range(0..n - hops);
            routing::bfs_path(g, NodeId(src), NodeId(src + hops))
        }
        _ => {
            let src = NodeId(rng.gen_range(0..g.num_nodes() as u32));
            routing::random_simple_path(g, src, max_hops as usize, rng)
        }
    }
}

fn reference_stochastic_workload<R: Rng>(
    spec: &StochasticSpec,
    rng: &mut R,
) -> (CapGraph, AdmissionInstance, StochasticSummary) {
    spec.model.validate();
    let g = spec.topology.build(spec.capacity, rng);
    let mut inst = AdmissionInstance::from_graph(&g);
    let mut summary = StochasticSummary::default();
    let mean_mult = spec.model.mean_multiplier();
    let mut phase = 0usize;
    for t in 0..spec.duration {
        let lambda = spec.arrival_rate * spec.model.multiplier(t, phase) / mean_mult;
        let sessions = poisson(lambda, rng);
        summary.sessions_per_slot.push(sessions);
        summary.phase_per_slot.push(phase);
        for _ in 0..sessions {
            let size = reference_zipf_trunc(spec.session_alpha, spec.session_max, rng);
            let mut path = None;
            for _ in 0..8 {
                path =
                    reference_sample_path(spec.topology, &g, spec.max_hops, spec.width_alpha, rng);
                if path.is_some() {
                    break;
                }
            }
            let Some(path) = path else { continue };
            for _ in 0..size {
                let cost = reference_cost(&spec.costs, rng);
                inst.push(reference_from_path(&path, cost));
            }
        }
        phase = spec.model.step(phase, rng);
    }
    summary.requests = inst.requests.len();
    (g, inst, summary)
}

/// Panics unless the two instances hold the same edges, capacities,
/// footprints and cost bits, in the same order.
fn assert_same_instance(label: &str, got: &AdmissionInstance, want: &AdmissionInstance) {
    assert_eq!(got.capacities, want.capacities, "{label}: capacities");
    assert_eq!(
        got.requests.len(),
        want.requests.len(),
        "{label}: request count"
    );
    for (i, (a, b)) in got.requests.iter().zip(&want.requests).enumerate() {
        assert_eq!(
            a.footprint.as_slice(),
            b.footprint.as_slice(),
            "{label}: footprint of request {i}"
        );
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "{label}: cost of request {i}"
        );
    }
}

const ZIPF_SIZES: [u32; 5] = [0, 1, 4, 32, 64];
const ZIPF_EXPONENTS: [f64; 3] = [0.0, 1.0, 1.1];

fn pick_topology(r: &mut StdRng) -> Topology {
    match r.gen_range(0..4u32) {
        0 => Topology::Line {
            m: r.gen_range(1..40),
        },
        1 => Topology::Tree {
            levels: r.gen_range(2..6),
        },
        2 => Topology::Grid {
            rows: r.gen_range(1..5),
            cols: r.gen_range(2..6),
        },
        // Sparse graphs too: walks there stop at a visited node early.
        _ => Topology::Gnp {
            n: r.gen_range(2..24),
            p: [0.0, 0.02, 0.05, 0.15, 0.3][r.gen_range(0..5usize)],
        },
    }
}

fn pick_costs(r: &mut StdRng) -> CostModel {
    match r.gen_range(0..6u32) {
        0 => CostModel::Unit,
        1 => {
            let lo = r.gen_range(1.0..3.0);
            CostModel::Uniform {
                lo,
                hi: lo + r.gen_range(0.0..5.0),
            }
        }
        2 => CostModel::Bimodal {
            lo: 1.0,
            hi: 10.0,
            p_hi: r.gen_range(0.0..0.5),
        },
        _ => CostModel::Zipf {
            n_values: ZIPF_SIZES[r.gen_range(0..ZIPF_SIZES.len())],
            s: ZIPF_EXPONENTS[r.gen_range(0..ZIPF_EXPONENTS.len())],
        },
    }
}

fn pick_model(r: &mut StdRng) -> TrafficModel {
    match r.gen_range(0..4u32) {
        0 => TrafficModel::Iid,
        1 => {
            if r.gen_bool(0.5) {
                TrafficModel::mmpp_default()
            } else {
                TrafficModel::Mmpp {
                    phases: (0..r.gen_range(1..4))
                        .map(|_| Phase {
                            rate: r.gen_range(0.2..4.0),
                            stay: r.gen_range(0.0..0.95),
                        })
                        .collect(),
                }
            }
        }
        2 => TrafficModel::Diurnal {
            period: r.gen_range(2..24),
            amplitude: r.gen_range(0.0..0.9),
        },
        _ => {
            let period = r.gen_range(2..12);
            TrafficModel::Flash {
                period,
                width: r.gen_range(1..period),
                boost: r.gen_range(1.5..6.0),
            }
        }
    }
}

fn topology_name(t: &Topology) -> &'static str {
    match t {
        Topology::Line { .. } => "line",
        Topology::Tree { .. } => "tree",
        Topology::Grid { .. } => "grid",
        Topology::Gnp { .. } => "gnp",
    }
}

fn cost_name(c: &CostModel) -> String {
    match c {
        CostModel::Unit => "unit".into(),
        CostModel::Uniform { .. } => "uniform".into(),
        CostModel::Bimodal { .. } => "bimodal".into(),
        CostModel::Zipf { n_values, s } => format!("zipf n={n_values} s={s}"),
    }
}

/// A walk on a `G(n, p)` graph that stopped before `max_hops`: every
/// out-neighbour of its last node was already on it.
fn gnp_walk_stopped_early(t: &Topology, inst: &AdmissionInstance, max_hops: u32) -> bool {
    matches!(t, Topology::Gnp { .. })
        && inst
            .requests
            .iter()
            .any(|r| r.footprint.len() < max_hops as usize)
}

/// The regimes every run of the oracle must have hit.
fn required_regimes() -> BTreeSet<String> {
    let mut want = BTreeSet::new();
    for gen in ["path", "stochastic"] {
        for t in ["line", "tree", "grid", "gnp"] {
            want.insert(format!("{gen} {t}"));
        }
        for c in ["unit", "uniform", "bimodal"] {
            want.insert(format!("{gen} cost {c}"));
        }
        for n in ZIPF_SIZES {
            for s in ZIPF_EXPONENTS {
                want.insert(format!("{gen} cost zipf n={n} s={s}"));
            }
        }
        for h in 1..=8 {
            want.insert(format!("{gen} max_hops={h}"));
        }
        want.insert(format!("{gen} gnp walk stopped early"));
    }
    for m in ["iid", "mmpp", "diurnal", "flash"] {
        want.insert(format!("stochastic model {m}"));
    }
    for k in [1, 8] {
        want.insert(format!("stochastic session_max={k}"));
        want.insert(format!("stochastic line width_max={k}"));
    }
    want
}

/// Specs drawn per generator.
const SPECS: u64 = 1_100;

#[test]
fn generator_oracle_matches_the_per_draw_reference() {
    let mut seen = BTreeSet::new();
    let mut scratch = RouteScratch::new();
    for i in 0..SPECS {
        let mut pick = StdRng::seed_from_u64(0x6e4e_0000 + i);
        let spec = PathWorkloadSpec {
            topology: pick_topology(&mut pick),
            capacity: pick.gen_range(1..5),
            overload: pick.gen_range(0.3..3.0),
            costs: pick_costs(&mut pick),
            max_hops: pick.gen_range(1..9),
        };
        let seed = pick.next_u64();
        let (mut r_new, mut r_ref) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (g, got) = random_path_workload(&spec, &mut r_new);
        let (g_ref, want) = reference_path_workload(&spec, &mut r_ref);
        let label = format!("path spec {i}: {spec:?}");
        assert_eq!(g.num_nodes(), g_ref.num_nodes(), "{label}: graph");
        assert_same_instance(&label, &got, &want);
        assert_eq!(r_new.next_u64(), r_ref.next_u64(), "{label}: RNG state");
        // The scratch walk on this graph too, beyond the walks the
        // generator took, on a scratch last used on other graphs.
        let n = g.num_nodes() as u32;
        for _ in 0..8 {
            let a = NodeId(pick.gen_range(0..n));
            let mut r_new = StdRng::seed_from_u64(pick.next_u64());
            let mut r_ref = r_new.clone();
            let hops = pick.gen_range(1..10);
            assert_eq!(
                scratch
                    .random_walk(&g, a, hops, &mut r_new)
                    .map(|edges| Path::new(edges.to_vec())),
                routing::random_simple_path(&g, a, hops, &mut r_ref),
                "{label}: walk from {a}"
            );
            assert_eq!(r_new.next_u64(), r_ref.next_u64(), "{label}: walk draws");
        }
        seen.insert(format!("path {}", topology_name(&spec.topology)));
        seen.insert(format!("path cost {}", cost_name(&spec.costs)));
        seen.insert(format!("path max_hops={}", spec.max_hops));
        if gnp_walk_stopped_early(&spec.topology, &want, spec.max_hops) {
            seen.insert("path gnp walk stopped early".into());
        }
    }
    for i in 0..SPECS {
        let mut pick = StdRng::seed_from_u64(0x5704_0000 + i);
        let spec = StochasticSpec {
            topology: pick_topology(&mut pick),
            capacity: pick.gen_range(1..5),
            model: pick_model(&mut pick),
            arrival_rate: pick.gen_range(0.5..6.0),
            duration: pick.gen_range(1..40),
            costs: pick_costs(&mut pick),
            max_hops: pick.gen_range(1..9),
            session_alpha: [0.0, 1.2, 2.5][pick.gen_range(0..3usize)],
            session_max: [1, 1, 2, 3, 8, 8][pick.gen_range(0..6usize)],
            width_alpha: [0.0, 1.3, 2.0][pick.gen_range(0..3usize)],
        };
        let seed = pick.next_u64();
        let (mut r_new, mut r_ref) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (g, got, got_summary) = stochastic_workload(&spec, &mut r_new);
        let (g_ref, want, want_summary) = reference_stochastic_workload(&spec, &mut r_ref);
        let label = format!("stochastic spec {i}: {spec:?}");
        assert_eq!(g.num_nodes(), g_ref.num_nodes(), "{label}: graph");
        assert_same_instance(&label, &got, &want);
        assert_eq!(
            got_summary.sessions_per_slot, want_summary.sessions_per_slot,
            "{label}: sessions"
        );
        assert_eq!(
            got_summary.phase_per_slot, want_summary.phase_per_slot,
            "{label}: phases"
        );
        assert_eq!(got_summary.requests, want_summary.requests, "{label}");
        assert_eq!(r_new.next_u64(), r_ref.next_u64(), "{label}: RNG state");
        let model = match spec.model {
            TrafficModel::Iid => "iid",
            TrafficModel::Mmpp { .. } => "mmpp",
            TrafficModel::Diurnal { .. } => "diurnal",
            TrafficModel::Flash { .. } => "flash",
        };
        seen.insert(format!("stochastic {}", topology_name(&spec.topology)));
        seen.insert(format!("stochastic cost {}", cost_name(&spec.costs)));
        seen.insert(format!("stochastic max_hops={}", spec.max_hops));
        seen.insert(format!("stochastic model {model}"));
        seen.insert(format!("stochastic session_max={}", spec.session_max));
        if let Topology::Line { m } = spec.topology {
            seen.insert(format!(
                "stochastic line width_max={}",
                spec.max_hops.min(m)
            ));
        }
        if gnp_walk_stopped_early(&spec.topology, &want, spec.max_hops) {
            seen.insert("stochastic gnp walk stopped early".into());
        }
    }
    let missing: Vec<_> = required_regimes().difference(&seen).cloned().collect();
    assert!(missing.is_empty(), "regimes never drawn: {missing:?}");
}
