//! Standard graph families used by the experiment suite.
//!
//! Topologies mirror those in the admission-control literature the
//! paper cites: the **line** (Adler–Azar), **trees** (Awerbuch et al.),
//! and **general graphs** (Awerbuch–Azar–Plotkin). All generators take
//! explicit capacities and, where random, a caller-supplied RNG for
//! reproducibility.

use crate::graph::CapGraph;
use crate::ids::{EdgeId, NodeId};
use rand::Rng;

/// Directed line `0 → 1 → … → n-1` with `n-1` edges of capacity `cap`.
///
/// The classic call-control topology: requests are intervals.
pub fn line(n: u32, cap: u32) -> CapGraph {
    assert!(n >= 2, "line needs at least 2 nodes");
    let mut b = CapGraph::builder(n);
    for i in 0..n - 1 {
        b.add_edge(NodeId(i), NodeId(i + 1), cap);
    }
    b.build()
}

/// Directed ring `0 → 1 → … → n-1 → 0` with `n` edges of capacity `cap`.
pub fn ring(n: u32, cap: u32) -> CapGraph {
    assert!(n >= 2, "ring needs at least 2 nodes");
    let mut b = CapGraph::builder(n);
    for i in 0..n {
        b.add_edge(NodeId(i), NodeId((i + 1) % n), cap);
    }
    b.build()
}

/// Star with a hub (node 0) and `leaves` leaves; bidirectional spokes of
/// capacity `cap` (`2·leaves` edges). Models a single switch.
pub fn star(leaves: u32, cap: u32) -> CapGraph {
    assert!(leaves >= 1, "star needs at least 1 leaf");
    let mut b = CapGraph::builder(leaves + 1);
    for i in 1..=leaves {
        b.add_bidirectional(NodeId(0), NodeId(i), cap);
    }
    b.build()
}

/// Complete balanced binary tree with `levels` levels (`2^levels − 1`
/// nodes), bidirectional edges of capacity `cap`. Node 0 is the root.
pub fn balanced_binary_tree(levels: u32, cap: u32) -> CapGraph {
    assert!((1..=24).contains(&levels), "levels must be in 1..=24");
    let n: u32 = (1 << levels) - 1;
    let mut b = CapGraph::builder(n);
    for v in 1..n {
        let parent = (v - 1) / 2;
        b.add_bidirectional(NodeId(parent), NodeId(v), cap);
    }
    b.build()
}

/// `rows × cols` grid, bidirectional horizontal and vertical edges of
/// capacity `cap`. Models a mesh/NoC-style fabric.
pub fn grid(rows: u32, cols: u32, cap: u32) -> CapGraph {
    assert!(rows >= 1 && cols >= 1, "grid must be non-empty");
    let id = |r: u32, c: u32| NodeId(r * cols + c);
    let mut b = CapGraph::builder(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_bidirectional(id(r, c), id(r, c + 1), cap);
            }
            if r + 1 < rows {
                b.add_bidirectional(id(r, c), id(r + 1, c), cap);
            }
        }
    }
    b.build()
}

/// Complete directed graph on `n` nodes (`n(n−1)` edges) of capacity
/// `cap`.
pub fn complete(n: u32, cap: u32) -> CapGraph {
    assert!(n >= 2, "complete graph needs at least 2 nodes");
    let mut b = CapGraph::builder(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.add_edge(NodeId(i), NodeId(j), cap);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: each ordered pair `(i, j)`, `i ≠ j`, gets an
/// edge independently with probability `p`, capacity `cap`.
///
/// To keep workloads routable the generator additionally threads a
/// directed Hamiltonian backbone `0 → 1 → … → n−1 → 0` (so the graph is
/// strongly connected); this mirrors how evaluation topologies are
/// usually built for routing papers.
pub fn erdos_renyi<R: Rng>(n: u32, p: f64, cap: u32, rng: &mut R) -> CapGraph {
    assert!(n >= 2, "G(n,p) needs at least 2 nodes");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = CapGraph::builder(n);
    for i in 0..n {
        b.add_edge(NodeId(i), NodeId((i + 1) % n), cap);
    }
    for i in 0..n {
        for j in 0..n {
            // Skip self-loops and backbone duplicates.
            if i == j || (i + 1) % n == j {
                continue;
            }
            if rng.gen_bool(p) {
                b.add_edge(NodeId(i), NodeId(j), cap);
            }
        }
    }
    b.build()
}

/// The route from node `src` to node `dst` in [`line`](fn@line): edge `i` joins
/// node `i` to node `i + 1`, so the one path, the one
/// [`bfs_path`](crate::routing::bfs_path) finds, is the interval
/// `src..dst` of edge ids (empty unless `src < dst`).
pub fn line_path(src: NodeId, dst: NodeId) -> impl ExactSizeIterator<Item = EdgeId> {
    (src.0..dst.0).map(EdgeId)
}

/// A line graph whose edge count is exactly `m` (so `m+1` nodes); the
/// experiment sweeps parameterize directly on `m = |E|`.
pub fn line_with_edges(m: u32, cap: u32) -> CapGraph {
    line(m + 1, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_path_is_the_bfs_route() {
        let g = line_with_edges(9, 1);
        for a in 0..10 {
            for b in 0..10 {
                let route = crate::routing::bfs_path(&g, NodeId(a), NodeId(b));
                let interval: Vec<EdgeId> = line_path(NodeId(a), NodeId(b)).collect();
                assert_eq!(route.map_or(vec![], |p| p.edges().to_vec()), interval);
            }
        }
    }

    #[test]
    fn line_counts() {
        let g = line(5, 3);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_capacity(), 3);
        // Every interior node has out-degree 1; the last has 0.
        assert_eq!(g.out_degree(NodeId(4)), 0);
    }

    #[test]
    fn ring_counts() {
        let g = ring(6, 1);
        assert_eq!(g.num_edges(), 6);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 1);
        }
    }

    #[test]
    fn star_counts() {
        let g = star(4, 2);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.out_degree(NodeId(0)), 4);
        assert_eq!(g.out_degree(NodeId(1)), 1);
    }

    #[test]
    fn tree_counts() {
        let g = balanced_binary_tree(3, 1);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 12); // 6 undirected edges, both directions
    }

    #[test]
    fn grid_counts() {
        let g = grid(2, 3, 1);
        assert_eq!(g.num_nodes(), 6);
        // Undirected edges: horizontal 2*2=4, vertical 3 → 7; doubled = 14.
        assert_eq!(g.num_edges(), 14);
    }

    #[test]
    fn complete_counts() {
        let g = complete(4, 2);
        assert_eq!(g.num_edges(), 12);
    }

    #[test]
    fn gnp_has_backbone_and_is_reproducible() {
        let mut rng = StdRng::seed_from_u64(42);
        let g1 = erdos_renyi(10, 0.3, 2, &mut rng);
        let mut rng = StdRng::seed_from_u64(42);
        let g2 = erdos_renyi(10, 0.3, 2, &mut rng);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert!(g1.num_edges() >= 10); // backbone always present
        for v in g1.nodes() {
            assert!(g1.out_degree(v) >= 1);
        }
    }

    #[test]
    fn gnp_density_scales_with_p() {
        let mut rng = StdRng::seed_from_u64(7);
        let sparse = erdos_renyi(30, 0.05, 1, &mut rng);
        let dense = erdos_renyi(30, 0.8, 1, &mut rng);
        assert!(dense.num_edges() > sparse.num_edges());
    }

    #[test]
    fn line_with_edges_matches_m() {
        let g = line_with_edges(17, 2);
        assert_eq!(g.num_edges(), 17);
    }
}
