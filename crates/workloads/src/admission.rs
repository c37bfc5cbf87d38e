//! Random path workloads on standard topologies.
//!
//! The knob that matters for every experiment is the **overload
//! factor** `ρ`: the generator draws enough random-path requests that
//! the expected per-edge demand is about `ρ·c_e`. At `ρ ≤ 1` OPT
//! rejects (almost) nothing — the paper's motivating regime where an
//! algorithm must not reject either; at `ρ > 1` rejections are forced
//! and the competitive machinery engages.

use crate::cost::CostModel;
use acmr_core::{AdmissionInstance, Request};
use acmr_graph::routing::{self, RouteScratch};
use acmr_graph::{generators, CapGraph, EdgeSet, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Topology families for admission workloads.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Directed line with `m` edges (requests = intervals).
    Line {
        /// Number of edges.
        m: u32,
    },
    /// Balanced binary tree with the given number of levels
    /// (bidirectional edges).
    Tree {
        /// Tree levels (≥ 2).
        levels: u32,
    },
    /// `rows × cols` bidirectional grid.
    Grid {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
    },
    /// Erdős–Rényi `G(n, p)` plus a Hamiltonian backbone.
    Gnp {
        /// Node count.
        n: u32,
        /// Edge probability.
        p: f64,
    },
}

impl Topology {
    /// Materialize the graph with uniform capacity `cap`.
    pub fn build<R: Rng>(&self, cap: u32, rng: &mut R) -> CapGraph {
        match *self {
            Topology::Line { m } => generators::line_with_edges(m, cap),
            Topology::Tree { levels } => generators::balanced_binary_tree(levels, cap),
            Topology::Grid { rows, cols } => generators::grid(rows, cols, cap),
            Topology::Gnp { n, p } => generators::erdos_renyi(n, p, cap, rng),
        }
    }
}

/// Specification of a random path workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PathWorkloadSpec {
    /// Topology family.
    pub topology: Topology,
    /// Uniform edge capacity.
    pub capacity: u32,
    /// Target overload factor `ρ` (expected demand / capacity).
    pub overload: f64,
    /// Cost distribution.
    pub costs: CostModel,
    /// Maximum hops per request path.
    pub max_hops: u32,
}

impl PathWorkloadSpec {
    /// A compact default: line topology, unit costs, 2× overload.
    pub fn line_default(m: u32, capacity: u32) -> Self {
        PathWorkloadSpec {
            topology: Topology::Line { m },
            capacity,
            overload: 2.0,
            costs: CostModel::Unit,
            max_hops: 8,
        }
    }
}

/// Generate `(graph, instance)` for a spec.
///
/// Requests are sampled as random simple paths (intervals between
/// random node pairs on the line, self-avoiding walks elsewhere) until
/// total edge demand reaches `ρ · Σ_e c_e`. The cost sampler and the
/// walks' routing scratch are built once per call.
pub fn random_path_workload<R: Rng>(
    spec: &PathWorkloadSpec,
    rng: &mut R,
) -> (CapGraph, AdmissionInstance) {
    let g = spec.topology.build(spec.capacity, rng);
    let mut inst = AdmissionInstance::from_graph(&g);
    let capacity_mass: f64 = g.capacities().iter().map(|&c| c as f64).sum();
    let target = spec.overload * capacity_mass;
    let mut demand = 0.0f64;
    let mut failures = 0u32;
    let costs = spec.costs.sampler();
    let mut scratch = RouteScratch::new();
    while demand < target && failures < 10_000 {
        let footprint = match spec.topology {
            Topology::Line { .. } => {
                let (a, b) = routing::random_node_pair(&g, rng);
                let (src, dst) = if a < b { (a, b) } else { (b, a) };
                // Clip interval length to max_hops.
                let dst = NodeId(dst.0.min(src.0 + spec.max_hops));
                (src != dst).then(|| EdgeSet::from_sorted_iter(generators::line_path(src, dst)))
            }
            _ => {
                let src = NodeId(rng.gen_range(0..g.num_nodes() as u32));
                scratch
                    .random_walk(&g, src, spec.max_hops as usize, rng)
                    .map(EdgeSet::from_slice)
            }
        };
        let Some(footprint) = footprint else {
            failures += 1;
            continue;
        };
        // A simple path repeats no edge: its footprint has one edge per hop.
        demand += footprint.len() as f64;
        let cost = costs.sample(rng);
        inst.push(Request::new(footprint, cost));
    }
    (g, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_workload_hits_overload_target() {
        let spec = PathWorkloadSpec::line_default(32, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let (g, inst) = random_path_workload(&spec, &mut rng);
        assert_eq!(g.num_edges(), 32);
        let demand: f64 = inst.requests.iter().map(|r| r.footprint.len() as f64).sum();
        let capacity_mass = 32.0 * 4.0;
        assert!(demand >= 2.0 * capacity_mass, "demand {demand}");
        assert!(demand <= 2.0 * capacity_mass + spec.max_hops as f64);
    }

    #[test]
    fn all_footprints_are_valid_paths() {
        for topo in [
            Topology::Line { m: 16 },
            Topology::Tree { levels: 4 },
            Topology::Grid { rows: 3, cols: 4 },
            Topology::Gnp { n: 20, p: 0.2 },
        ] {
            let spec = PathWorkloadSpec {
                topology: topo,
                capacity: 2,
                overload: 1.5,
                costs: CostModel::Unit,
                max_hops: 5,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let (g, inst) = random_path_workload(&spec, &mut rng);
            assert!(!inst.requests.is_empty());
            for r in &inst.requests {
                assert!(!r.footprint.is_empty());
                assert!(r.footprint.len() <= 5);
                for e in r.footprint.iter() {
                    assert!(e.index() < g.num_edges());
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = PathWorkloadSpec::line_default(16, 2);
        let a = random_path_workload(&spec, &mut StdRng::seed_from_u64(3)).1;
        let b = random_path_workload(&spec, &mut StdRng::seed_from_u64(3)).1;
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn weighted_costs_applied() {
        let spec = PathWorkloadSpec {
            costs: CostModel::Uniform { lo: 2.0, hi: 9.0 },
            ..PathWorkloadSpec::line_default(16, 2)
        };
        let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(4));
        assert!(inst.requests.iter().all(|r| (2.0..=9.0).contains(&r.cost)));
        assert!(!inst.is_unweighted());
    }

    #[test]
    fn low_overload_is_underloaded() {
        let spec = PathWorkloadSpec {
            overload: 0.5,
            ..PathWorkloadSpec::line_default(24, 4)
        };
        let (_, inst) = random_path_workload(&spec, &mut StdRng::seed_from_u64(5));
        // Max excess can still be positive locally, but total demand is
        // half of capacity mass.
        let demand: f64 = inst.requests.iter().map(|r| r.footprint.len() as f64).sum();
        assert!(demand <= 0.5 * 24.0 * 4.0 + 9.0);
    }
}
