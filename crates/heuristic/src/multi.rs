//! The multi-run greedy heuristic (paper §IV-A2, Algorithm 1).
//!
//! `h` instances of the greedy heuristic run simultaneously, one per seed
//! vertex, as segments of a single data-parallel computation:
//!
//! 1. Seed segments with each seed's neighborhood (`SETUPNEIGHBORTHRESHOLDS`).
//! 2. Each iteration: a segmented arg-max picks the best candidate per
//!    segment, a per-segment kernel flags candidates connected to the pick
//!    (`CHECKCONNECTIONS`), a stable select compacts survivors, and empty
//!    segments are removed with a second select plus an offset-rebuilding
//!    scan.
//! 3. Iterate until every segment is empty; the best clique across all runs
//!    is the bound (the paper tracks only the iteration count — the size —
//!    whereas we also track the witness vertices per segment).

use gmc_dpp::{Device, DeviceOom, Launch, SharedSlice};
use gmc_graph::Csr;

/// Runs `h` parallel greedy instances seeded by the `h` highest-threshold
/// vertices. Returns the largest witness clique found across all instances
/// (ties broken toward the better-seeded instance).
pub fn multi_run(
    device: &Device,
    graph: &Csr,
    thresholds: &[u32],
    h: usize,
) -> Result<Vec<u32>, DeviceOom> {
    let exec = device.exec();
    let n = graph.num_vertices();
    assert_eq!(thresholds.len(), n, "one threshold per vertex");
    if n == 0 {
        return Ok(Vec::new());
    }
    let h = h.clamp(1, n);

    // Seeds: the h vertices with the highest thresholds (stable sort keeps
    // ascending-id order within ties).
    let keys: Vec<u32> = exec.map(Launch::new("heuristic_sort_keys", n), |v| !thresholds[v]);
    let ids: Vec<u32> = exec.map(Launch::new("heuristic_iota", n), |v| v as u32);
    let (_, sorted) = gmc_dpp::sort_pairs_u32(exec, &keys, &ids);
    let seeds = &sorted[..h];

    // GETNEIGHBORCOUNTS + scan: segment layout.
    let counts: Vec<usize> = exec.map(Launch::new("heuristic_seed_degrees", h), |s| {
        graph.degree(seeds[s])
    });
    let (mut offsets, total) = gmc_dpp::exclusive_scan(exec, &counts);
    offsets.push(total);

    // The neighbor and threshold arrays live in device memory for the whole
    // run; later iterations only shrink, so charging the initial footprint
    // covers the peak.
    let _charge = device
        .memory()
        .try_charge(total * 2 * std::mem::size_of::<u32>())?;

    // SETUPNEIGHBORTHRESHOLDS: one virtual thread per seed fills its segment.
    let mut neighbors = vec![0u32; total];
    let mut nbr_thresholds = vec![0u32; total];
    {
        let neighbors_shared = SharedSlice::new(&mut neighbors);
        let thresholds_shared = SharedSlice::new(&mut nbr_thresholds);
        // Segment lengths are the seeds' degrees — exactly the skew a
        // degree-sorted seed list maximises.
        let degree_cost = |s: usize| counts[s] as u64;
        let launch = Launch::new("heuristic_neighbor_thresholds", h).weighted(&degree_cost);
        exec.run(launch, |s| {
            for (offset, &u) in graph.neighbors(seeds[s]).iter().enumerate() {
                // SAFETY: segments are disjoint spans of the output arrays.
                unsafe {
                    neighbors_shared.write(offsets[s] + offset, u);
                    thresholds_shared.write(offsets[s] + offset, thresholds[u as usize]);
                }
            }
        });
    }

    // Per-instance cliques-in-progress, indexed by seed position. A
    // segment's clique keeps growing until the segment dies; the final
    // answer is the longest.
    let mut cliques: Vec<Vec<u32>> = seeds.iter().map(|&s| vec![s]).collect();
    // seg_owner[s] = which instance current segment s belongs to.
    let (mut offsets, survivors) = gmc_dpp::remove_empty_segments(exec, &offsets);
    let mut seg_owner: Vec<usize> = survivors;
    // Compact the value arrays to match (initially empty segments hold no
    // values, so the arrays are unchanged; this keeps the invariant simple).

    while offsets.len() > 1 {
        let num_segments = offsets.len() - 1;

        // Segmented arg-max over candidate thresholds.
        let arg = gmc_dpp::segmented_argmax_by_key(exec, neighbors.len(), &offsets, |i| {
            nbr_thresholds[i]
        });
        let chosen: Vec<u32> = exec.map(Launch::new("heuristic_pick_argmax", num_segments), |s| {
            neighbors[arg[s].expect("segments are non-empty")]
        });
        for s in 0..num_segments {
            cliques[seg_owner[s]].push(chosen[s]);
        }

        // CHECKCONNECTIONS: one virtual thread per segment flags candidates
        // adjacent to the segment's pick. The pick itself is never adjacent
        // to itself, so it drops out automatically.
        let mut flags = vec![false; neighbors.len()];
        {
            let flags_shared = SharedSlice::new(&mut flags);
            let segment_cost = |s: usize| (offsets[s + 1] - offsets[s]) as u64;
            let launch =
                Launch::new("heuristic_check_connections", num_segments).weighted(&segment_cost);
            exec.run(launch, |s| {
                let v = chosen[s];
                for (i, &u) in neighbors[offsets[s]..offsets[s + 1]].iter().enumerate() {
                    // SAFETY: segments are disjoint spans.
                    unsafe { flags_shared.write(offsets[s] + i, graph.has_edge(u, v)) };
                }
            });
        }

        // Per-segment survivor counts, then stable compaction of both value
        // arrays (stability keeps segments contiguous).
        let launch = Launch::new("heuristic_survivor_counts", num_segments);
        let counts: Vec<usize> = exec.map(launch, |s| {
            flags[offsets[s]..offsets[s + 1]]
                .iter()
                .filter(|&&f| f)
                .count()
        });
        neighbors = gmc_dpp::select_flagged(exec, &neighbors, &flags);
        nbr_thresholds = gmc_dpp::select_flagged(exec, &nbr_thresholds, &flags);

        // Rebuild offsets and drop dead segments.
        let (mut new_offsets, total) = gmc_dpp::exclusive_scan(exec, &counts);
        new_offsets.push(total);
        let (compacted_offsets, survivors) = gmc_dpp::remove_empty_segments(exec, &new_offsets);
        seg_owner = survivors.iter().map(|&s| seg_owner[s]).collect();
        offsets = compacted_offsets;
    }

    let best = cliques.into_iter().max_by_key(Vec::len).unwrap_or_default();
    debug_assert!(graph.is_clique(&best));
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_run;
    use gmc_graph::generators;

    #[test]
    fn finds_planted_clique_from_any_seed() {
        let device = Device::unlimited();
        let base = generators::gnp(120, 0.05, 1);
        let (g, members) = generators::plant_clique(&base, 9, 2);
        let clique = multi_run(&device, &g, &g.degrees(), g.num_vertices()).unwrap();
        assert!(clique.len() >= members.len());
        assert!(g.is_clique(&clique));
    }

    #[test]
    fn h_one_equals_single_run() {
        let device = Device::unlimited();
        for seed in 0..5 {
            let g = generators::gnp(100, 0.1, seed);
            let degrees = g.degrees();
            let single = single_run(&device, &g, &degrees);
            let multi = multi_run(&device, &g, &degrees, 1).unwrap();
            assert_eq!(single, multi, "seed {seed}");
        }
    }

    #[test]
    fn dominates_single_run_on_random_graphs() {
        let device = Device::unlimited();
        for seed in 0..8 {
            let g = generators::gnp(150, 0.15, seed);
            let degrees = g.degrees();
            let single = single_run(&device, &g, &degrees).len();
            let multi = multi_run(&device, &g, &degrees, g.num_vertices())
                .unwrap()
                .len();
            assert!(multi >= single, "seed {seed}: {multi} < {single}");
        }
    }

    #[test]
    fn respects_memory_budget() {
        // A budget too small for the neighbor arrays must fail, not panic.
        let device = Device::with_memory_budget(16);
        let g = generators::complete(20);
        let err = multi_run(&device, &g, &g.degrees(), 20).unwrap_err();
        assert!(err.capacity == 16);
        // And the failed run must not leak charges.
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn disconnected_components_all_reached() {
        let device = Device::unlimited();
        // Triangle {0,1,2} and K4 {3,4,5,6}, disconnected.
        let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        for u in 3..7u32 {
            for v in (u + 1)..7 {
                edges.push((u, v));
            }
        }
        let g = Csr::from_edges(7, &edges);
        let clique = multi_run(&device, &g, &g.degrees(), g.num_vertices()).unwrap();
        assert_eq!(clique.len(), 4);
        assert!(clique.iter().all(|&v| v >= 3));
    }

    #[test]
    fn deterministic() {
        let device_a = Device::new(1, usize::MAX);
        let device_b = Device::new(6, usize::MAX);
        let g = generators::gnp(200, 0.1, 9);
        let a = multi_run(&device_a, &g, &g.degrees(), 200).unwrap();
        let b = multi_run(&device_b, &g, &g.degrees(), 200).unwrap();
        assert_eq!(a, b, "worker count must not change the result");
    }

    #[test]
    fn isolated_seed_yields_singleton() {
        let device = Device::unlimited();
        let g = Csr::empty(3);
        let clique = multi_run(&device, &g, &g.degrees(), 3).unwrap();
        assert_eq!(clique.len(), 1);
    }
}
