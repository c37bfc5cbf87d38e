//! Shortest paths and random simple-path sampling.
//!
//! Requests need concrete paths: [`bfs_path`] gives
//! the fewest-hop route (requests "arrive together with the path it
//! should be routed on"), and [`random_simple_path`] performs a seeded
//! self-avoiding walk for diverse footprints.
//!
//! A generator holds one [`RouteScratch`] for all the walks of a
//! trace: per-node visit marks stamped with a walk epoch, the walk's
//! candidate hops and its path buffer. A walk of a few hops then costs
//! a few hops of work, not a clear of every node's state and three
//! allocations: a new walk only advances the epoch, and the marks are
//! zeroed once in 2^32 walks, when it wraps.
//! [`RouteScratch::random_walk`] takes the same RNG draws in the same
//! order as [`random_simple_path`], so a walk is the same whichever way
//! it is asked. The two free functions allocate their state per call:
//! no generator calls them (a line route is its edge interval,
//! [`generators::line_path`](crate::generators::line_path)), and for a
//! single walk a fresh scratch costs more than a visited array.

use crate::graph::CapGraph;
use crate::ids::{EdgeId, NodeId};
use crate::path::Path;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Reusable working memory for random self-avoiding walks.
///
/// It grows to the largest graph it has walked on and can be reused
/// across graphs of any size. Each walk returns its route as a slice
/// of the internal path buffer, valid until the next walk.
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    /// `marks[v] == epoch` iff node `v` is on the current walk.
    marks: Vec<u32>,
    /// The current walk's stamp; 0 is never a live stamp.
    epoch: u32,
    /// The walk's unvisited next hops from its current node.
    candidates: Vec<EdgeId>,
    /// The route the last walk returned.
    path: Vec<EdgeId>,
}

impl RouteScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Start a walk over `n` nodes: every node reads unvisited.
    fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A stale mark could equal a recycled stamp: clear them all.
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Random self-avoiding walk from `src` of up to `max_hops` hops:
    /// the walk [`random_simple_path`] returns, from the same draws.
    pub fn random_walk<R: Rng>(
        &mut self,
        g: &CapGraph,
        src: NodeId,
        max_hops: usize,
        rng: &mut R,
    ) -> Option<&[EdgeId]> {
        assert!(max_hops >= 1, "a path needs at least one hop");
        self.begin(g.num_nodes());
        let epoch = self.epoch;
        self.marks[src.index()] = epoch;
        self.path.clear();
        let mut cur = src;
        for _ in 0..max_hops {
            self.candidates.clear();
            self.candidates.extend(
                g.out_edges(cur)
                    .iter()
                    .copied()
                    .filter(|&e| self.marks[g.edge(e).to.index()] != epoch),
            );
            let Some(&e) = self.candidates.choose(rng) else {
                break;
            };
            self.path.push(e);
            cur = g.edge(e).to;
            self.marks[cur.index()] = epoch;
        }
        if self.path.is_empty() {
            None
        } else {
            Some(&self.path)
        }
    }
}

/// Fewest-hop path from `src` to `dst` via BFS, or `None` if `dst` is
/// unreachable. Deterministic: ties are broken by edge-id order.
pub fn bfs_path(g: &CapGraph, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst {
        return None; // a request must traverse at least one edge
    }
    let n = g.num_nodes();
    // parent_edge[v] = edge used to first reach v.
    let mut parent_edge = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    visited[src.index()] = true;
    let mut queue = VecDeque::with_capacity(n);
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &e in g.out_edges(v) {
            let w = g.edge(e).to;
            if !visited[w.index()] {
                visited[w.index()] = true;
                parent_edge[w.index()] = e.0;
                if w == dst {
                    queue.clear();
                    break;
                }
                queue.push_back(w);
            }
        }
    }
    if !visited[dst.index()] {
        return None;
    }
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let e = crate::ids::EdgeId(parent_edge[cur.index()]);
        edges.push(e);
        cur = g.edge(e).from;
    }
    edges.reverse();
    Some(Path::new(edges))
}

/// Hop distances from `src` to every node (`u32::MAX` = unreachable).
pub fn bfs_distances(g: &CapGraph, src: NodeId) -> Vec<u32> {
    let n = g.num_nodes();
    let mut dist = vec![u32::MAX; n];
    dist[src.index()] = 0;
    let mut queue = VecDeque::with_capacity(n);
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for &e in g.out_edges(v) {
            let w = g.edge(e).to;
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Random self-avoiding walk from `src` of up to `max_hops` hops.
///
/// At each step a random outgoing edge to an unvisited node is taken;
/// the walk stops early when stuck. Returns `None` only if not even one
/// hop was possible. The result is always a valid simple path.
pub fn random_simple_path<R: Rng>(
    g: &CapGraph,
    src: NodeId,
    max_hops: usize,
    rng: &mut R,
) -> Option<Path> {
    assert!(max_hops >= 1, "a path needs at least one hop");
    let mut visited = vec![false; g.num_nodes()];
    visited[src.index()] = true;
    let mut cur = src;
    let mut edges = Vec::with_capacity(max_hops.min(16));
    let mut candidates = Vec::new();
    for _ in 0..max_hops {
        candidates.clear();
        candidates.extend(
            g.out_edges(cur)
                .iter()
                .copied()
                .filter(|&e| !visited[g.edge(e).to.index()]),
        );
        let Some(&e) = candidates.choose(rng) else {
            break;
        };
        edges.push(e);
        cur = g.edge(e).to;
        visited[cur.index()] = true;
    }
    if edges.is_empty() {
        None
    } else {
        Some(Path::new(edges))
    }
}

/// Sample a uniformly random ordered node pair `(src, dst)`, `src ≠ dst`.
pub fn random_node_pair<R: Rng>(g: &CapGraph, rng: &mut R) -> (NodeId, NodeId) {
    let n = g.num_nodes() as u32;
    assert!(n >= 2, "need at least 2 nodes");
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    (NodeId(a), NodeId(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn bfs_on_line_is_the_line() {
        let g = generators::line(6, 1);
        let p = bfs_path(&g, NodeId(1), NodeId(4)).unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.source(&g), Some(NodeId(1)));
        assert_eq!(p.target(&g), Some(NodeId(4)));
    }

    #[test]
    fn bfs_unreachable_on_line_backwards() {
        let g = generators::line(4, 1);
        assert!(bfs_path(&g, NodeId(3), NodeId(0)).is_none());
    }

    #[test]
    fn bfs_same_node_is_none() {
        let g = generators::line(4, 1);
        assert!(bfs_path(&g, NodeId(2), NodeId(2)).is_none());
    }

    #[test]
    fn bfs_shortest_via_grid() {
        let g = generators::grid(3, 3, 1);
        // Corner to corner on a 3x3 grid: 4 hops.
        let p = bfs_path(&g, NodeId(0), NodeId(8)).unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn distances_on_ring() {
        let g = generators::ring(5, 1);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_paths_are_simple_and_seeded() {
        let g = generators::grid(4, 4, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            if let Some(p) = random_simple_path(&g, NodeId(0), 6, &mut rng) {
                assert!(p.validate(&g).is_ok());
                assert!(p.len() <= 6);
            }
        }
        // Determinism.
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let p1 = random_simple_path(&g, NodeId(5), 8, &mut r1);
        let p2 = random_simple_path(&g, NodeId(5), 8, &mut r2);
        assert_eq!(p1, p2);
    }

    /// Every walk a reused scratch takes equals the walk
    /// `random_simple_path` takes over its own visited array, from the
    /// same draws.
    fn assert_scratch_matches_fresh(s: &mut RouteScratch, g: &CapGraph, seed: u64) {
        for a in (0..g.num_nodes() as u32).map(NodeId) {
            for hops in 1..=6 {
                let mut r1 = StdRng::seed_from_u64(seed ^ (u64::from(a.0) << 8) ^ hops as u64);
                let mut r2 = r1.clone();
                let reused = s
                    .random_walk(g, a, hops, &mut r1)
                    .map(|edges| Path::new(edges.to_vec()));
                let fresh = random_simple_path(g, a, hops, &mut r2);
                assert_eq!(reused, fresh, "walk from {a}, {hops} hops");
                assert_eq!(r1.next_u64(), r2.next_u64(), "walk from {a}: draws differ");
                // Only the walk's own nodes read visited: the first hop
                // is taken whenever `a` has an out-edge.
                assert_eq!(fresh.is_some(), !g.out_edges(a).is_empty(), "walk from {a}");
                if let Some(p) = fresh {
                    assert!(p.validate(g).is_ok() && p.len() <= hops);
                }
            }
        }
    }

    #[test]
    fn one_scratch_serves_graphs_of_every_node_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let graphs = [
            generators::grid(4, 4, 1),
            generators::line(3, 1),
            generators::erdos_renyi(40, 0.03, 1, &mut rng),
            generators::balanced_binary_tree(5, 1),
            generators::line(6, 1),
            generators::erdos_renyi(5, 0.0, 1, &mut rng),
        ];
        let mut s = RouteScratch::new();
        for (i, g) in graphs.iter().enumerate() {
            assert_scratch_matches_fresh(&mut s, g, i as u64);
        }
        // Back to the largest graph after the smaller ones.
        assert_scratch_matches_fresh(&mut s, &graphs[2], 99);
    }

    #[test]
    fn scratch_walk_with_no_hop_draws_nothing() {
        // Node 3 is the line's sink: a walk from it has no hop to take,
        // returns nothing and leaves the RNG untouched, and the next walk
        // on the same scratch still sees every node unvisited.
        let g = generators::line(4, 1);
        let mut s = RouteScratch::new();
        let mut r1 = StdRng::seed_from_u64(8);
        let mut r2 = r1.clone();
        assert!(s.random_walk(&g, NodeId(3), 4, &mut r1).is_none());
        assert_eq!(r1.next_u64(), r2.next_u64());
        let walk = s.random_walk(&g, NodeId(1), 4, &mut r1);
        assert_eq!(walk, Some(&[EdgeId(1), EdgeId(2)][..]));
    }

    #[test]
    fn epoch_wrap_clears_stale_marks() {
        // Every node marked with stamp 1, long ago: the next walk wraps
        // the epoch from u32::MAX, and stamp 1 comes round again.
        let g = generators::grid(3, 4, 1);
        let mut s = RouteScratch {
            marks: vec![1; g.num_nodes()],
            epoch: u32::MAX,
            ..RouteScratch::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert!(
            s.random_walk(&g, NodeId(0), 3, &mut rng).is_some(),
            "stale marks read as visited after the wrap"
        );
        assert_eq!(s.epoch, 1);
        assert_scratch_matches_fresh(&mut s, &g, 5);
    }

    #[test]
    fn random_pair_distinct() {
        let g = generators::line(3, 1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let (a, b) = random_node_pair(&g, &mut rng);
            assert_ne!(a, b);
        }
    }
}
