//! The single-run greedy heuristic (paper §IV-A1).

use gmc_dpp::{Device, Launch};
use gmc_graph::Csr;

/// One greedy pass: repeatedly take the highest-threshold candidate, add it
/// to the clique-in-progress, and filter the remaining candidates to its
/// neighbors with a parallel select. The filtered list shrinks to empty in
/// exactly `|clique|` iterations.
///
/// `thresholds[v]` is the ordering key for vertex `v` (degree or core
/// number); ties break toward the lower vertex id. Returns the witness
/// clique in pick order.
pub fn single_run(device: &Device, graph: &Csr, thresholds: &[u32]) -> Vec<u32> {
    let exec = device.exec();
    let n = graph.num_vertices();
    assert_eq!(thresholds.len(), n, "one threshold per vertex");
    if n == 0 {
        return Vec::new();
    }

    // Sort all vertices by descending threshold. The radix sort is stable,
    // so equal thresholds keep ascending-id order.
    let keys: Vec<u32> = exec.map(Launch::new("heuristic_sort_keys", n), |v| !thresholds[v]);
    let ids: Vec<u32> = exec.map(Launch::new("heuristic_iota", n), |v| v as u32);
    let (_, mut candidates) = gmc_dpp::sort_pairs_u32(exec, &keys, &ids);

    let mut clique = Vec::new();
    while let Some((&v, rest)) = candidates.split_first() {
        clique.push(v);
        candidates = gmc_dpp::select_if(exec, rest, |_, u| graph.has_edge(u, v));
    }
    clique
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    #[test]
    fn finds_triangle() {
        let device = Device::unlimited();
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let clique = single_run(&device, &g, &g.degrees());
        // Starts at vertex 2 (degree 3) and grows the triangle.
        assert_eq!(clique.len(), 3);
        assert!(g.is_clique(&clique));
    }

    #[test]
    fn result_is_always_a_maximal_clique() {
        let device = Device::unlimited();
        for seed in 0..10 {
            let g = generators::gnp(150, 0.08, seed);
            let clique = single_run(&device, &g, &g.degrees());
            assert!(g.is_clique(&clique), "seed {seed}");
            // Maximality: no vertex extends the clique.
            for v in 0..g.num_vertices() as u32 {
                if clique.contains(&v) {
                    continue;
                }
                let extends = clique.iter().all(|&c| g.has_edge(v, c));
                assert!(
                    !extends,
                    "seed {seed}: vertex {v} extends the greedy clique"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let device = Device::unlimited();
        assert!(single_run(&device, &Csr::empty(0), &[]).is_empty());
        let one = Csr::empty(1);
        assert_eq!(single_run(&device, &one, &[0]), vec![0]);
    }

    #[test]
    fn respects_threshold_ordering() {
        let device = Device::unlimited();
        // Two disjoint triangles; thresholds force a start in the second.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut thresholds = vec![0u32; 6];
        thresholds[4] = 10;
        let clique = single_run(&device, &g, &thresholds);
        assert!(clique.contains(&4));
        assert_eq!(clique.len(), 3);
    }

    #[test]
    #[should_panic(expected = "one threshold per vertex")]
    fn wrong_threshold_length_panics() {
        let device = Device::unlimited();
        let g = Csr::empty(3);
        single_run(&device, &g, &[1, 2]);
    }
}
