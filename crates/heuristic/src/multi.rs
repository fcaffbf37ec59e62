//! The multi-run greedy heuristic (paper §IV-A2, Algorithm 1).
//!
//! `h` instances of the greedy heuristic run simultaneously, one per seed
//! vertex, as segments of a single data-parallel computation:
//!
//! 1. Seed segments with each seed's neighborhood (`SETUPNEIGHBORTHRESHOLDS`),
//!    so every segment starts as a sorted CSR row.
//! 2. Each round: a segmented arg-max picks the best candidate per segment.
//!    One kernel per segment (`CHECKCONNECTIONS`) intersects the segment
//!    with its pick's sorted CSR row, flagging the candidates adjacent to
//!    the pick and counting them. A stable select compacts survivors, which
//!    keeps every segment sorted, and empty segments are removed with a
//!    second select plus an offset-rebuilding scan.
//! 3. Iterate until every segment is empty. The paper tracks only the
//!    round count (the clique size); each round here also keeps its picks
//!    and the map from its segments to the previous round's, so the
//!    winner's witness is read back along those maps at the end.

use gmc_dpp::{Device, DeviceOom, Launch, SharedSlice};
use gmc_graph::Csr;

/// A pick's CSR row this many times longer than the segment is galloped
/// through rather than merged.
const GALLOP_RATIO: usize = 8;

/// Runs `h` parallel greedy instances seeded by the `h` highest-threshold
/// vertices. Returns the largest witness clique found across all instances.
/// Ties go to the *last* of the longest runs in seed order, i.e. the
/// worst-seeded one.
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
    // run; the charge covers their initial footprint, 8 bytes per entry,
    // and nothing else, so it is not the peak. Each `select_flagged` output
    // is built while its input is still alive, and neither `flags` (one
    // byte per entry) nor the per-segment arrays are charged: the entry
    // arrays alone reach 13 bytes per entry in the first round, about 1.6×
    // the charge.
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

    // `parent[s]` is the previous round's index of current segment s; for
    // the first round it is the seed position. Each round keeps its picks
    // and its parent map, which is all the winner's witness needs.
    let (mut offsets, mut parent) = gmc_dpp::remove_empty_segments(exec, &offsets);
    let mut rounds: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
    // Sized for the first round; later rounds only shrink.
    let mut flags = vec![false; total];

    while offsets.len() > 1 {
        let num_segments = offsets.len() - 1;

        // Segmented arg-max over candidate thresholds.
        let arg = gmc_dpp::segmented_argmax_by_key(exec, neighbors.len(), &offsets, |i| {
            nbr_thresholds[i]
        });
        let chosen: Vec<u32> = exec.map(Launch::new("heuristic_pick_argmax", num_segments), |s| {
            neighbors[arg[s].expect("segments are non-empty")]
        });

        // CHECKCONNECTIONS: one virtual thread per segment intersects the
        // segment with its pick's CSR row, flagging and counting survivors.
        // The pick is not in its own row, so it drops out.
        let flags = &mut flags[..neighbors.len()];
        let mut counts = vec![0usize; num_segments];
        {
            let flags_shared = SharedSlice::new(flags);
            let counts_shared = SharedSlice::new(&mut counts);
            let segment_cost = |s: usize| (offsets[s + 1] - offsets[s]) as u64;
            let launch =
                Launch::new("heuristic_check_connections", num_segments).weighted(&segment_cost);
            exec.run(launch, |s| {
                let (start, end) = (offsets[s], offsets[s + 1]);
                let row = graph.neighbors(chosen[s]);
                let survivors = intersect(&neighbors[start..end], row, |i, adjacent| {
                    // SAFETY: segments are disjoint spans.
                    unsafe { flags_shared.write(start + i, adjacent) }
                });
                // SAFETY: one write per segment index.
                unsafe { counts_shared.write(s, survivors) };
            });
        }

        // Stable compaction of both value arrays (stability keeps segments
        // contiguous and sorted).
        neighbors = gmc_dpp::select_flagged(exec, &neighbors, flags);
        nbr_thresholds = gmc_dpp::select_flagged(exec, &nbr_thresholds, flags);

        // Rebuild offsets and drop dead segments.
        let (mut new_offsets, total) = gmc_dpp::exclusive_scan(exec, &counts);
        new_offsets.push(total);
        let (compacted_offsets, survivors) = gmc_dpp::remove_empty_segments(exec, &new_offsets);
        rounds.push((chosen, std::mem::replace(&mut parent, survivors)));
        offsets = compacted_offsets;
    }

    // The runs alive in the final round are the longest, in seed order, so
    // the winner is its last segment (seed position h − 1 if no round ran).
    let mut witness = Vec::with_capacity(rounds.len() + 1);
    let mut position = rounds.last().map_or(h, |(picks, _)| picks.len()) - 1;
    for (picks, parent) in rounds.iter().rev() {
        witness.push(picks[position]);
        position = parent[position];
    }
    witness.push(seeds[position]);
    witness.reverse();
    Ok(witness)
}

/// Reports, for each candidate of the sorted `segment`, whether it is in
/// the sorted `row`, and returns how many are. A two-pointer merge walks
/// both lists; when the row is more than [`GALLOP_RATIO`] times longer,
/// each candidate gallops through the rest of the row instead.
fn intersect(segment: &[u32], row: &[u32], mut flag: impl FnMut(usize, bool)) -> usize {
    let gallop = row.len() > GALLOP_RATIO * segment.len();
    let mut j = 0;
    let mut found = 0;
    for (i, &u) in segment.iter().enumerate() {
        if gallop {
            j += lower_bound_galloping(&row[j..], u);
        } else {
            while j < row.len() && row[j] < u {
                j += 1;
            }
        }
        let adjacent = j < row.len() && row[j] == u;
        found += adjacent as usize;
        flag(i, adjacent);
    }
    found
}

/// The index of the first element of sorted `row` not below `target`:
/// doubling steps bracket it, then a binary search finds it.
fn lower_bound_galloping(row: &[u32], target: u32) -> usize {
    let mut bound = 1;
    while bound < row.len() && row[bound] < target {
        bound *= 2;
    }
    let low = bound / 2;
    low + row[low..bound.min(row.len())].partition_point(|&x| x < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_run;
    use gmc_graph::{generators, kcore};

    /// Algorithm 1 one seed at a time: seeds in stable descending-threshold
    /// order, each run growing from its seed's sorted row by taking the
    /// first max-threshold candidate and keeping the candidates adjacent to
    /// it. The last of the longest runs wins.
    fn sequential_multi_run(graph: &Csr, thresholds: &[u32], h: usize) -> Vec<u32> {
        let mut seeds: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        seeds.sort_by_key(|&v| std::cmp::Reverse(thresholds[v as usize]));
        let mut best = Vec::new();
        for &seed in seeds.iter().take(h.max(1)) {
            let mut run = vec![seed];
            let mut candidates = graph.neighbors(seed).to_vec();
            while let Some(pick) = candidates.iter().copied().reduce(|top, u| {
                if thresholds[u as usize] > thresholds[top as usize] {
                    u
                } else {
                    top
                }
            }) {
                run.push(pick);
                candidates.retain(|&u| graph.has_edge(u, pick));
            }
            if run.len() >= best.len() {
                best = run;
            }
        }
        best
    }

    #[test]
    fn witness_equals_sequential_reference() {
        let mut graphs: Vec<Csr> = [(90, 0.04), (70, 0.15), (50, 0.4), (40, 0.8)]
            .into_iter()
            .flat_map(|(n, p)| (0..3).map(move |seed| generators::gnp(n, p, seed)))
            .collect();
        graphs.push(generators::plant_clique(&generators::gnp(150, 0.05, 3), 11, 4).0);
        graphs.push(Csr::empty(4));
        for (id, graph) in graphs.iter().enumerate() {
            let n = graph.num_vertices();
            let cores = kcore::core_numbers(graph);
            let core_keys = crate::core_degree_keys(Device::unlimited().exec(), graph, &cores);
            for keys in [graph.degrees(), core_keys] {
                for h in [1, 7, n / 3 + 1, n] {
                    let expected = sequential_multi_run(graph, &keys, h);
                    for workers in [1, 4] {
                        let device = Device::new(workers, usize::MAX);
                        let witness = multi_run(&device, graph, &keys, h).unwrap();
                        assert_eq!(witness, expected, "graph {id}, h {h}, {workers} workers");
                    }
                }
            }
        }
    }

    #[test]
    fn intersection_flags_row_members_on_merge_and_gallop_paths() {
        let row: Vec<u32> = (0..200).map(|x| 3 * x + 1).collect();
        let segments: [Vec<u32>; 4] = [
            (0..40).map(|x| 5 * x).collect(),      // merge: row ≤ 8× segment
            (0..10).map(|x| 67 * x + 1).collect(), // gallop, past the row's end
            vec![1, 2, 598, 1000],
            Vec::new(),
        ];
        for segment in &segments {
            let mut flags = vec![None; segment.len()];
            let found = intersect(segment, &row, |i, adjacent| flags[i] = Some(adjacent));
            let expected: Vec<_> = segment
                .iter()
                .map(|u| Some(row.binary_search(u).is_ok()))
                .collect();
            assert_eq!(flags, expected, "{segment:?}");
            assert_eq!(found, expected.iter().filter(|&&f| f == Some(true)).count());
        }
    }

    #[test]
    fn ties_go_to_the_last_of_the_longest_runs() {
        // Two disjoint triangles: every run has length 3, so the worst-
        // seeded run wins even when vertex 0 is the best-seeded by far.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let device = Device::unlimited();
        let mut keys = g.degrees();
        assert_eq!(multi_run(&device, &g, &keys, 6).unwrap(), [5, 3, 4]);
        keys[0] = 9;
        assert_eq!(multi_run(&device, &g, &keys, 6).unwrap(), [5, 3, 4]);
    }

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
