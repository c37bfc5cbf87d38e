//! # acmr-graph
//!
//! Capacitated directed multigraph substrate for the admission-control
//! experiments of Alon, Azar & Gutner, *"Admission Control to Minimize
//! Rejections and Online Set Cover with Repetitions"* (SPAA 2005).
//!
//! The paper's model is a directed graph `G = (V, E)` with an integer
//! capacity `c_e > 0` on every edge; communication requests are simple
//! paths (the paper's concluding remark notes the algorithms only ever
//! treat a request as an arbitrary *subset of edges*, and this crate
//! supports both views).
//!
//! Provided here:
//!
//! * [`CapGraph`] — the capacitated multigraph with adjacency indexing.
//! * [`Path`] / [`EdgeSet`] — request footprints, with simple-path
//!   validation.
//! * [`load::LoadTracker`] — exact per-edge load accounting used by the
//!   harness to *audit* that online algorithms never violate capacities.
//! * [`live::LiveSet`] — the live requests of a run over their own
//!   tracker, with each edge's occupancy ordered by cost: the victim
//!   index every preempting algorithm searches.
//! * [`generators`] — the standard graph families used by the
//!   experiment suite (line, ring, star, balanced tree, grid, complete,
//!   Erdős–Rényi `G(n,p)`).
//! * [`routing`] — BFS/Dijkstra shortest paths and seeded random simple
//!   path sampling; workload generators walk over one reusable
//!   [`routing::RouteScratch`] per trace.
//!
//! All randomness is taken through caller-supplied [`rand::Rng`]
//! instances so that every experiment is reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edgeset;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod live;
pub mod load;
pub mod path;
pub mod routing;

pub use edgeset::EdgeSet;
pub use graph::{CapGraph, EdgeInfo};
pub use ids::{EdgeId, NodeId};
pub use live::LiveSet;
pub use load::LoadTracker;
pub use path::Path;
