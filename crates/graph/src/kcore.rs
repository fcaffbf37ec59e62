//! k-core decomposition and degeneracy ordering.
//!
//! The paper optionally computes vertex core numbers in preprocessing (via
//! the Gunrock k-core app) and uses them as tighter per-vertex upper bounds:
//! a vertex with core number `c` belongs to no clique larger than `c + 1`
//! (§II-B2). Two implementations are provided:
//!
//! * [`core_numbers`] — the classic sequential Batagelj–Zaveršnik bucket
//!   peel, `O(|V| + |E|)`.
//! * [`core_numbers_parallel`] — an iterative data-parallel peel on the
//!   `gmc-dpp` executor, mirroring the GPU implementation the paper calls;
//!   each round removes every vertex whose remaining degree is at most the
//!   current `k` with one launch per kernel.
//!
//! Both return identical values (core numbers are unique), which the tests
//! verify.

use crate::Csr;
use gmc_dpp::{Executor, Launch};
use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential Batagelj–Zaveršnik core decomposition.
///
/// ```
/// use gmc_graph::{kcore, Csr};
/// // Triangle plus a pendant vertex: the triangle is a 2-core.
/// let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// assert_eq!(kcore::core_numbers(&g), vec![2, 2, 2, 1]);
/// ```
pub fn core_numbers(graph: &Csr) -> Vec<u32> {
    bz_peel(graph).0
}

/// Bucket peel returning `(core_numbers, removal_order)`. The removal order
/// is a valid degeneracy order: every vertex has at most `degeneracy`
/// neighbors later in the order.
fn bz_peel(graph: &Csr) -> (Vec<u32>, Vec<u32>) {
    let n = graph.num_vertices();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut degree: Vec<usize> = (0..n as u32).map(|v| graph.degree(v)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin[d + 1] += 1;
    }
    for d in 0..=max_degree {
        bin[d + 1] += bin[d];
    }
    let mut pos = vec![0usize; n]; // position of vertex in `vert`
    let mut vert = vec![0u32; n]; // vertices in degree order
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            pos[v] = cursor[degree[v]];
            vert[pos[v]] = v as u32;
            cursor[degree[v]] += 1;
        }
    }

    let mut core = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    for i in 0..n {
        let v = vert[i] as usize;
        order.push(v as u32);
        core[v] = degree[v] as u32;
        for &u in graph.neighbors(v as u32) {
            let u = u as usize;
            if degree[u] > degree[v] {
                // Move u one bucket down: swap with the first vertex of its
                // current bucket, shrink the bucket.
                let du = degree[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw] as usize;
                if u != w {
                    pos[u] = pw;
                    pos[w] = pu;
                    vert[pu] = w as u32;
                    vert[pw] = u as u32;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    (core, order)
}

/// Data-parallel iterative peel on the virtual GPU.
///
/// Round structure mirrors the GPU app: a select kernel finds the frontier
/// (alive vertices with remaining degree ≤ k), a scatter kernel retires the
/// frontier and atomically decrements neighbor degrees, repeating until the
/// frontier is empty, then k advances.
pub fn core_numbers_parallel(exec: &Executor, graph: &Csr) -> Vec<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let degree: Vec<AtomicU32> = (0..n as u32)
        .map(|v| AtomicU32::new(graph.degree(v) as u32))
        .collect();
    let core: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    const ALIVE: u32 = u32::MAX;
    let state: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(ALIVE)).collect();

    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut k = 0u32;
    while !alive.is_empty() {
        loop {
            // Frontier: alive vertices whose remaining degree is ≤ k.
            let frontier = gmc_dpp::select_if(exec, &alive, |_, v| {
                degree[v as usize].load(Ordering::Relaxed) <= k
            });
            if frontier.is_empty() {
                break;
            }
            exec.run(Launch::new("kcore_peel", frontier.len()), |i| {
                let v = frontier[i] as usize;
                core[v].store(k, Ordering::Relaxed);
                state[v].store(k, Ordering::Relaxed);
            });
            exec.run(Launch::new("kcore_decrement", frontier.len()), |i| {
                let v = frontier[i];
                for &u in graph.neighbors(v) {
                    if state[u as usize].load(Ordering::Relaxed) == ALIVE {
                        degree[u as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
            alive = gmc_dpp::select_if(exec, &alive, |_, v| {
                state[v as usize].load(Ordering::Relaxed) == ALIVE
            });
        }
        k += 1;
    }
    core.into_iter().map(AtomicU32::into_inner).collect()
}

/// Degeneracy order: the order in which the sequential peel removes
/// vertices (smallest-remaining-degree first). Useful as a root ordering for
/// the DFS baseline. Returns `(order, degeneracy)` where `degeneracy` is the
/// largest core number.
pub fn degeneracy_order(graph: &Csr) -> (Vec<u32>, u32) {
    let (core, order) = bz_peel(graph);
    let degeneracy = core.iter().copied().max().unwrap_or(0);
    (order, degeneracy)
}

/// The largest `k` such that the graph has a non-empty k-core.
pub fn degeneracy(graph: &Csr) -> u32 {
    core_numbers(graph).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        Csr::from_edges(n, &edges)
    }

    fn complete_graph(n: usize) -> Csr {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn path_has_core_one() {
        let g = path_graph(10);
        let core = core_numbers(&g);
        assert!(core.iter().all(|&c| c == 1));
    }

    #[test]
    fn complete_graph_core() {
        let g = complete_graph(6);
        assert!(core_numbers(&g).iter().all(|&c| c == 5));
        assert_eq!(degeneracy(&g), 5);
    }

    #[test]
    fn clique_with_pendant() {
        // K4 on {0..3} plus pendant 4 attached to 0.
        let mut edges = vec![(0u32, 4u32)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        let g = Csr::from_edges(5, &edges);
        let core = core_numbers(&g);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(core[4], 1);
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = Csr::from_edges(4, &[(0, 1)]);
        let core = core_numbers(&g);
        assert_eq!(core, vec![1, 1, 0, 0]);
    }

    #[test]
    fn parallel_matches_sequential_on_structured_graphs() {
        let exec = Executor::new(4);
        for g in [
            path_graph(50),
            complete_graph(8),
            Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]),
            Csr::empty(5),
        ] {
            assert_eq!(core_numbers_parallel(&exec, &g), core_numbers(&g));
        }
    }

    #[test]
    fn parallel_matches_sequential_on_random_graph() {
        let mut rng = gmc_dpp::Rng::seed_from_u64(42);
        let n = 300;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(0.03) {
                    edges.push((u, v));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let exec = Executor::new(4);
        assert_eq!(core_numbers_parallel(&exec, &g), core_numbers(&g));
    }

    #[test]
    fn degeneracy_order_is_valid_peel() {
        // In a degeneracy order, each vertex has at most `degeneracy`
        // neighbors appearing later in the order.
        let g = complete_graph(5);
        let (order, d) = degeneracy_order(&g);
        assert_eq!(d, 4);
        let position: Vec<usize> = {
            let mut p = vec![0; g.num_vertices()];
            for (i, &v) in order.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for &v in &order {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| position[u as usize] > position[v as usize])
                .count();
            assert!(later as u32 <= d);
        }
    }

    #[test]
    fn max_clique_bounded_by_degeneracy_plus_one() {
        // ω ≤ degeneracy + 1 is the bound the paper uses for pruning.
        let g = complete_graph(7);
        assert!(7 <= degeneracy(&g) + 1);
    }
}
