//! Requests and admission-control instances.

use acmr_graph::{CapGraph, EdgeSet};
use serde::{Deserialize, Serialize};

/// Dense request identifier: index into the arrival order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RequestId(pub u32);

impl RequestId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One communication request: its edge footprint and its rejection cost
/// `p_i > 0`.
///
/// Per the paper's concluding remark the algorithms treat the request
/// as an arbitrary edge subset; a routed path enters as its
/// [`Path::edge_set`](acmr_graph::Path::edge_set).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The set of edges the request occupies while accepted.
    pub footprint: EdgeSet,
    /// Cost paid by the algorithm iff the request is rejected
    /// (immediately or by preemption).
    pub cost: f64,
}

impl Request {
    /// A request with the given footprint and cost.
    pub fn new(footprint: EdgeSet, cost: f64) -> Self {
        assert!(
            cost > 0.0 && cost.is_finite(),
            "request cost must be positive and finite"
        );
        Request { footprint, cost }
    }

    /// A unit-cost request (the paper's unweighted case).
    pub fn unit(footprint: EdgeSet) -> Self {
        Request {
            footprint,
            cost: 1.0,
        }
    }
}

/// A complete offline view of an instance: capacities plus the arrival
/// sequence. Online algorithms only ever see one request at a time; the
/// instance exists so the harness can compute offline optima and replay
/// runs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AdmissionInstance {
    /// Edge capacities, indexed by `EdgeId` (dense).
    pub capacities: Vec<u32>,
    /// Requests in arrival order; `RequestId(i)` is `requests[i]`.
    pub requests: Vec<Request>,
}

impl AdmissionInstance {
    /// Empty instance over the edges of `g`.
    pub fn from_graph(g: &CapGraph) -> Self {
        AdmissionInstance {
            capacities: g.capacities(),
            requests: Vec::new(),
        }
    }

    /// Empty instance over raw capacities (used by the §4 reduction).
    pub fn from_capacities(capacities: Vec<u32>) -> Self {
        AdmissionInstance {
            capacities,
            requests: Vec::new(),
        }
    }

    /// Number of edges `m`.
    pub fn num_edges(&self) -> usize {
        self.capacities.len()
    }

    /// The paper's `c = max_e c_e`.
    pub fn max_capacity(&self) -> u32 {
        self.capacities.iter().copied().max().unwrap_or(0)
    }

    /// Append a request, returning its id.
    pub fn push(&mut self, r: Request) -> RequestId {
        let id = RequestId(self.requests.len() as u32);
        self.requests.push(r);
        id
    }

    /// True iff all costs are exactly 1 (the paper's unweighted case).
    pub fn is_unweighted(&self) -> bool {
        self.requests.iter().all(|r| r.cost == 1.0)
    }

    /// Total cost of all requests.
    pub fn total_cost(&self) -> f64 {
        self.requests.iter().map(|r| r.cost).sum()
    }

    /// Number of requests whose footprint contains edge `e` —
    /// the paper's `|REQ_e|` at the end of the sequence.
    pub fn requests_on_edge(&self, e: acmr_graph::EdgeId) -> usize {
        self.requests
            .iter()
            .filter(|r| r.footprint.contains(e))
            .count()
    }

    /// Maximum final excess `Q = max_e (|REQ_e| − c_e)`, clamped at 0.
    /// Theorem 4's proof notes OPT must reject at least `Q` requests.
    pub fn max_excess(&self) -> u32 {
        let mut load = vec![0u32; self.capacities.len()];
        for r in &self.requests {
            for e in r.footprint.iter() {
                load[e.index()] += 1;
            }
        }
        load.iter()
            .zip(&self.capacities)
            .map(|(&l, &c)| l.saturating_sub(c))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_graph::EdgeId;

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut inst = AdmissionInstance::from_capacities(vec![1, 1]);
        let a = inst.push(Request::unit(fp(&[0])));
        let b = inst.push(Request::unit(fp(&[1])));
        assert_eq!(a, RequestId(0));
        assert_eq!(b, RequestId(1));
        assert_eq!(inst.requests.len(), 2);
    }

    #[test]
    fn unweighted_detection() {
        let mut inst = AdmissionInstance::from_capacities(vec![1]);
        inst.push(Request::unit(fp(&[0])));
        assert!(inst.is_unweighted());
        inst.push(Request::new(fp(&[0]), 2.5));
        assert!(!inst.is_unweighted());
        assert_eq!(inst.total_cost(), 3.5);
    }

    #[test]
    fn excess_computation() {
        let mut inst = AdmissionInstance::from_capacities(vec![1, 3]);
        for _ in 0..4 {
            inst.push(Request::unit(fp(&[0, 1])));
        }
        // edge0: 4 - 1 = 3; edge1: 4 - 3 = 1.
        assert_eq!(inst.max_excess(), 3);
        assert_eq!(inst.requests_on_edge(EdgeId(0)), 4);
    }

    #[test]
    #[should_panic(expected = "cost must be positive")]
    fn zero_cost_rejected() {
        Request::new(fp(&[0]), 0.0);
    }

    #[test]
    fn instance_from_graph() {
        let g = acmr_graph::generators::line(4, 5);
        let inst = AdmissionInstance::from_graph(&g);
        assert_eq!(inst.num_edges(), 3);
        assert_eq!(inst.max_capacity(), 5);
    }
}
