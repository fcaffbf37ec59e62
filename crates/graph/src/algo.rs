//! Supporting graph algorithms: triangle counting and connected components.
//!
//! Triangle counting matters to this reproduction because the first
//! expansion level of the breadth-first clique search *is* the triangle
//! set: with no pruning, `level_entries[1]` equals the triangle count
//! exactly (each triangle appears once under the orientation). The
//! integration tests use this as a cross-check between two very different
//! code paths.

use crate::Csr;
use gmc_dpp::{Executor, Launch};

/// Counts triangles with the oriented-wedge method on the virtual GPU: one
/// virtual thread per vertex walks the ordered pairs of its
/// higher-(degree, index) neighbors and tests the closing edge, so each
/// triangle is counted exactly once (at its minimum vertex).
pub fn triangle_count(exec: &Executor, graph: &Csr) -> u64 {
    let n = graph.num_vertices();
    let per_vertex: Vec<usize> = exec.map(Launch::new("triangle_count", n), |v| {
        let v = v as u32;
        let higher: Vec<u32> = graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| (graph.degree(u), u) > (graph.degree(v), v))
            .collect();
        let mut count = 0usize;
        for (i, &a) in higher.iter().enumerate() {
            for &b in &higher[i + 1..] {
                if graph.has_edge(a, b) {
                    count += 1;
                }
            }
        }
        count
    });
    gmc_dpp::reduce(exec, &per_vertex) as u64
}

/// Global clustering coefficient: `3 × triangles / wedges` (0 when the
/// graph has no wedge).
pub fn global_clustering(exec: &Executor, graph: &Csr) -> f64 {
    let n = graph.num_vertices();
    let wedges: Vec<usize> = exec.map(Launch::new("wedge_count", n), |v| {
        let d = graph.degree(v as u32);
        d * d.saturating_sub(1) / 2
    });
    let wedge_total = gmc_dpp::reduce(exec, &wedges);
    if wedge_total == 0 {
        return 0.0;
    }
    3.0 * triangle_count(exec, graph) as f64 / wedge_total as f64
}

/// Connected components via BFS sweeps. Returns `(component_id_per_vertex,
/// component_count)`; ids are assigned in discovery order from vertex 0.
pub fn connected_components(graph: &Csr) -> (Vec<u32>, usize) {
    let n = graph.num_vertices();
    let mut component = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if component[start] != u32::MAX {
            continue;
        }
        component[start] = count;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(v) {
                if component[u as usize] == u32::MAX {
                    component[u as usize] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (component, count as usize)
}

/// Size of the largest connected component (0 for the empty graph).
pub fn largest_component_size(graph: &Csr) -> usize {
    let (component, count) = connected_components(graph);
    let mut sizes = vec![0usize; count];
    for &c in &component {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn brute_force_triangles(graph: &Csr) -> u64 {
        let n = graph.num_vertices() as u32;
        let mut count = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                if !graph.has_edge(a, b) {
                    continue;
                }
                for c in (b + 1)..n {
                    if graph.has_edge(a, c) && graph.has_edge(b, c) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn triangles_on_known_graphs() {
        let exec = Executor::new(2);
        assert_eq!(triangle_count(&exec, &generators::complete(5)), 10); // C(5,3)
        assert_eq!(triangle_count(&exec, &Csr::empty(4)), 0);
        let path = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(triangle_count(&exec, &path), 0);
        let triangle = Csr::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&exec, &triangle), 1);
    }

    #[test]
    fn triangles_match_brute_force_on_random_graphs() {
        let exec = Executor::new(3);
        for seed in 0..6 {
            let g = generators::gnp(60, 0.2, seed);
            assert_eq!(
                triangle_count(&exec, &g),
                brute_force_triangles(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn clustering_coefficient_extremes() {
        let exec = Executor::new(2);
        // Complete graph: every wedge closes.
        let c = global_clustering(&exec, &generators::complete(6));
        assert!((c - 1.0).abs() < 1e-12);
        // Star: no wedge closes.
        let star = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(global_clustering(&exec, &star), 0.0);
        // No wedges at all.
        assert_eq!(global_clustering(&exec, &Csr::empty(3)), 0.0);
    }

    #[test]
    fn components_on_structured_graphs() {
        // Two triangles and an isolated vertex.
        let g = Csr::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let (component, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(component[0], component[1]);
        assert_eq!(component[0], component[2]);
        assert_eq!(component[3], component[4]);
        assert_ne!(component[0], component[3]);
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn components_edge_cases() {
        assert_eq!(connected_components(&Csr::empty(0)).1, 0);
        assert_eq!(connected_components(&Csr::empty(4)).1, 4);
        assert_eq!(largest_component_size(&Csr::empty(0)), 0);
        let connected = generators::road_mesh(10, 10, 1.0, 0.0, 1);
        assert_eq!(connected_components(&connected).1, 1);
        assert_eq!(largest_component_size(&connected), 100);
    }
}
