//! The multi-run greedy heuristic (paper §IV-A2, Algorithm 1).
//!
//! `h` instances of the greedy heuristic run simultaneously, one per seed
//! vertex, as segments of a single data-parallel computation. Segments
//! follow vertex-id order, not seed order:
//!
//! 1. A stable sort by descending threshold ranks the vertices; the `h`
//!    best-ranked are the seeds. Round 0's segments are the CSR rows
//!    themselves, one per vertex, read in place, so nothing is copied
//!    (this replaces the paper's `SETUPNEIGHBORTHRESHOLDS`). A row whose
//!    vertex is not a seed is not a run.
//! 2. Each round, one kernel per segment (`CHECKCONNECTIONS` with the
//!    segmented arg-max folded in) picks the segment's first
//!    highest-threshold candidate, intersects the segment with the pick's
//!    sorted CSR row, flags the candidates adjacent to the pick and counts
//!    them. Empty segments are removed with a select over those counts
//!    plus an offset-building scan, whose total sizes the next round, and
//!    a stable select compacts the survivors, which keeps every segment
//!    sorted.
//! 3. Iterate until no candidate survives; the kernel also reports whether
//!    any segment kept one, so the last round stops before the removal.
//!    The paper tracks only the round count (the clique size); each round
//!    here also keeps its picks and the map from its segments to the
//!    previous round's. The runs alive in the final round are the longest;
//!    the winner is the one whose seed ranks last, found by following
//!    those maps back to round 0, and its witness is read back along them.

use gmc_dpp::{Device, DeviceOom, Executor, Launch, SharedSlice};
use gmc_graph::Csr;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};

/// A pick's CSR row this many times longer than the segment is galloped
/// through rather than merged.
const GALLOP_RATIO: usize = 8;

/// The pick of a segment that is not a run: a non-seed or empty row of
/// round 0.
const NO_PICK: u32 = u32::MAX;

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

    // Seed ranks: a stable sort by descending threshold (ascending id within
    // ties), scattered to `rank[v]`, v's seed position. The seeds are the
    // vertices ranked below h.
    let keys: Vec<u32> = exec.map(Launch::new("heuristic_sort_keys", n), |v| !thresholds[v]);
    let ids: Vec<u32> = exec.map(Launch::new("heuristic_iota", n), |v| v as u32);
    let (_, sorted) = gmc_dpp::sort_pairs_u32(exec, &keys, &ids);
    let mut rank = vec![0u32; n];
    {
        let rank_shared = SharedSlice::new(&mut rank);
        exec.run(Launch::new("heuristic_seed_ranks", n), |position| {
            // SAFETY: `sorted` is a permutation, so each vertex is written
            // once.
            unsafe { rank_shared.write(sorted[position] as usize, position as u32) };
        });
    }

    // Device memory: the flags, one byte per CSR entry, live for the whole
    // run, and each round's compacted entry array, 4 bytes per entry, from
    // when it is built until the next round's replaces it, so a round's
    // input and output overlap in the charge as they do in memory. Round 0
    // reads the CSR in place; the CSR is not charged, as it is not for the
    // solver's edge oracle, and neither are the per-segment arrays.
    let total = graph.neighbor_array().len();
    let _flags_charge = device.memory().try_charge(total)?;
    let mut flags = vec![false; total];
    let mut entries = Cow::Borrowed(graph.neighbor_array());
    let mut offsets = Cow::Borrowed(graph.offsets());
    let mut _entries_charge = None;

    // `picks[r][s]` is round r's pick in its segment s, and `parents[r]`
    // maps round r + 1's segments to round r's. Round 0's segment index is
    // the vertex, so following the maps back from any segment ends at its
    // run's seed.
    let mut picks: Vec<Vec<u32>> = Vec::new();
    let mut parents: Vec<Vec<usize>> = Vec::new();
    loop {
        let first_round = picks.is_empty();
        let (round_picks, counts, any_survivor) = check_connections(
            exec,
            graph,
            thresholds,
            &offsets,
            &entries,
            &mut flags[..entries.len()],
            |s| !first_round || (rank[s] as usize) < h,
        );
        picks.push(round_picks);
        if !any_survivor {
            break;
        }
        // Drop the dead segments; the survivor counts are the next round's
        // segment lengths.
        let (next_offsets, parent, survivors) = gmc_dpp::remove_empty_segments(exec, &counts);

        // Stable compaction (stability keeps segments contiguous and
        // sorted).
        let charge = device
            .memory()
            .try_charge(survivors * std::mem::size_of::<u32>())?;
        entries = Cow::Owned(gmc_dpp::select_flagged(
            exec,
            &entries,
            &flags[..entries.len()],
        ));
        // The previous round's array is gone, and so is its charge.
        _entries_charge = Some(charge);
        offsets = Cow::Owned(next_offsets);
        parents.push(parent);
    }

    // The runs alive in the final round are the longest, and the winner is
    // the one whose seed ranks last. Ranks are distinct, so the maximum is
    // unique. When no seed has a neighbour, every run is its seed alone and
    // the last seed wins.
    let last_picks = picks.last().expect("round 0 always runs");
    let launch = Launch::new("heuristic_winner_ranks", last_picks.len());
    let seed_ranks: Vec<Option<(u32, usize)>> = exec.map(launch, |s| {
        let seed = parents.iter().rev().fold(s, |s, parent| parent[s]);
        (last_picks[s] != NO_PICK).then_some((rank[seed], s))
    });
    let Some((_, winner)) = gmc_dpp::reduce_by(exec, &seed_ranks, None, std::cmp::max) else {
        return Ok(vec![sorted[h - 1]]);
    };

    let mut witness = Vec::with_capacity(picks.len() + 1);
    let mut position = winner;
    for (round_picks, parent) in picks[1..].iter().zip(&parents).rev() {
        witness.push(round_picks[position]);
        position = parent[position];
    }
    witness.push(picks[0][position]);
    witness.push(position as u32);
    witness.reverse();
    Ok(witness)
}

/// `CHECKCONNECTIONS` with the pick folded in: one virtual thread per
/// segment picks the segment's first highest-threshold candidate,
/// intersects the segment with the pick's sorted CSR row, flags the
/// candidates adjacent to the pick and counts them. The pick is not in its
/// own row, so it drops out. A segment that is empty or not a run (`runs`
/// is false) makes no pick ([`NO_PICK`]) and leaves its flags as they
/// are: only round 0 has such segments, and its flags start cleared.
/// Returns the picks and the survivor counts, per segment, and whether any
/// segment kept a survivor, so the last round stops before the removal.
fn check_connections(
    exec: &Executor,
    graph: &Csr,
    thresholds: &[u32],
    offsets: &[usize],
    entries: &[u32],
    flags: &mut [bool],
    runs: impl Fn(usize) -> bool + Sync,
) -> (Vec<u32>, Vec<usize>, bool) {
    let num_segments = offsets.len() - 1;
    let mut picks = vec![NO_PICK; num_segments];
    let mut counts = vec![0usize; num_segments];
    let any_survivor = AtomicBool::new(false);
    {
        let flags_shared = SharedSlice::new(flags);
        let picks_shared = SharedSlice::new(&mut picks);
        let counts_shared = SharedSlice::new(&mut counts);
        let launch = Launch::new("heuristic_check_connections", num_segments);
        exec.run(launch, |s| {
            let (start, end) = (offsets[s], offsets[s + 1]);
            let segment = &entries[start..end];
            let Some(pick) = runs(s).then(|| first_max(segment, thresholds)).flatten() else {
                return;
            };
            let survivors = intersect(segment, graph.neighbors(pick), |i, adjacent| {
                // SAFETY: segments are disjoint spans.
                unsafe { flags_shared.write(start + i, adjacent) }
            });
            // Tested before it is set, so the segments of a round do not
            // all write the flag's cache line. Relaxed suffices: it is read
            // after the launch's closing barrier and publishes nothing else.
            if survivors > 0 && !any_survivor.load(Ordering::Relaxed) {
                any_survivor.store(true, Ordering::Relaxed);
            }
            // SAFETY: one write per segment index.
            unsafe {
                picks_shared.write(s, pick);
                counts_shared.write(s, survivors);
            }
        });
    }
    (picks, counts, any_survivor.into_inner())
}

/// The first candidate of `segment` with the highest threshold, or `None`
/// when the segment is empty.
fn first_max(segment: &[u32], thresholds: &[u32]) -> Option<u32> {
    let (&first, rest) = segment.split_first()?;
    let mut pick = (first, thresholds[first as usize]);
    for &u in rest {
        let threshold = thresholds[u as usize];
        if threshold > pick.1 {
            pick = (u, threshold);
        }
    }
    Some(pick.0)
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
    use gmc_dpp::Rng;
    use gmc_graph::{generators, kcore};

    /// Algorithm 1 one seed at a time: seeds in stable descending-threshold
    /// order, each run growing from its seed's sorted row by taking the
    /// first max-threshold candidate and keeping the candidates adjacent to
    /// it. The last of the longest runs wins. Also returns, per round, how
    /// many candidates survive it across all runs.
    fn sequential_multi_run(graph: &Csr, thresholds: &[u32], h: usize) -> (Vec<u32>, Vec<usize>) {
        let mut seeds: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        seeds.sort_by_key(|&v| std::cmp::Reverse(thresholds[v as usize]));
        let mut best = Vec::new();
        let mut survivors = Vec::new();
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
                let round = run.len() - 1;
                run.push(pick);
                candidates.retain(|&u| graph.has_edge(u, pick));
                if survivors.len() == round {
                    survivors.push(0);
                }
                survivors[round] += candidates.len();
            }
            if run.len() >= best.len() {
                best = run;
            }
        }
        (best, survivors)
    }

    /// `graph` with its vertices spread over half as many ids again, every
    /// third id left isolated.
    fn spread_with_isolated(graph: &Csr) -> Csr {
        let spread = |v: u32| v + v / 2;
        let edges: Vec<(u32, u32)> = (0..graph.num_vertices() as u32)
            .flat_map(|v| graph.neighbors(v).iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| v < u)
            .map(|(v, u)| (spread(v), spread(u)))
            .collect();
        Csr::from_edges(spread(graph.num_vertices() as u32) as usize, &edges)
    }

    #[test]
    fn witness_equals_sequential_reference() {
        let mut graphs: Vec<Csr> = [(90, 0.04), (70, 0.15), (50, 0.4), (40, 0.8)]
            .into_iter()
            .flat_map(|(n, p)| (0..3).map(move |seed| generators::gnp(n, p, seed)))
            .collect();
        graphs.push(generators::plant_clique(&generators::gnp(150, 0.05, 3), 11, 4).0);
        graphs.push(Csr::empty(4));
        // A perfect matching with its pairs scattered through the ids: round
        // 0 is the last round.
        let matching: Vec<(u32, u32)> = (0..20).map(|i| (i, 39 - i)).collect();
        graphs.push(Csr::from_edges(40, &matching));
        // Isolated vertices between the rows that have edges.
        for seed in 0..2 {
            graphs.push(spread_with_isolated(&generators::gnp(60, 0.12, seed)));
        }
        // Smoke-tier graphs of the benchmark's families.
        for name in [
            "soc-sphere-03",
            "road-grid-02",
            "ca-papers-04",
            "web-crawl-05",
            "socfb-campus-06",
        ] {
            let spec = gmc_corpus::by_name(gmc_corpus::Tier::Smoke, name).expect(name);
            graphs.push(spec.load());
        }

        // Launches of every size on the pool.
        let pooled = Device::new(4, usize::MAX);
        pooled.exec().set_sequential_grid_limit(0);
        let inline = Device::new(1, usize::MAX);
        let mut rng = Rng::seed_from_u64(7);
        for (id, graph) in graphs.iter().enumerate() {
            let n = graph.num_vertices();
            let degrees = graph.degrees();
            let cores = kcore::core_numbers(graph);
            let core_keys = crate::core_degree_keys(inline.exec(), graph, &cores);
            let tied_keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
            let isolated_first: Vec<u32> = degrees
                .iter()
                .map(|&d| if d == 0 { u32::MAX } else { d })
                .collect();
            let isolated = degrees.iter().filter(|&&d| d == 0).count();
            let key_sets = [
                ("degree", degrees.clone()),
                ("core", core_keys),
                ("tied", tied_keys),
                ("isolated-first", isolated_first),
            ];
            for (key_name, keys) in &key_sets {
                let mut seed_counts = vec![1, 7, n / 3 + 1, n];
                if isolated > 0 && isolated < n {
                    // Every seed isolated while other rows have edges: no
                    // round makes a pick.
                    seed_counts.push(isolated);
                }
                for h in seed_counts {
                    let (expected, _) = sequential_multi_run(graph, keys, h);
                    let context = format!("graph {id}, {key_name} keys, h {h}");
                    assert_eq!(
                        multi_run(&inline, graph, keys, h).unwrap(),
                        expected,
                        "{context}, inline"
                    );
                    let witness = multi_run(&pooled, graph, keys, h).unwrap();
                    assert_eq!(witness, expected, "{context}, pooled");
                }
            }
        }
    }

    #[test]
    fn charge_follows_the_entry_arrays_and_is_exact() {
        // The flags (one byte per CSR entry) stay charged for the whole run;
        // each compacted entry array (4 bytes per entry) overlaps the next
        // round's while that one is built.
        let graph = generators::plant_clique(&generators::gnp(160, 0.12, 5), 9, 2).0;
        let keys = graph.degrees();
        let n = graph.num_vertices();
        let (expected, survivors) = sequential_multi_run(&graph, &keys, n);
        assert!(survivors.len() >= 3, "{} rounds", survivors.len());
        let overlap = std::iter::once(&0)
            .chain(&survivors)
            .zip(&survivors)
            .map(|(input, output)| input + output)
            .max()
            .unwrap();

        let unlimited = Device::unlimited();
        assert_eq!(multi_run(&unlimited, &graph, &keys, n).unwrap(), expected);
        let peak = unlimited.memory().peak();
        assert_eq!(peak, graph.num_directed_edges() + 4 * overlap);
        assert_eq!(unlimited.memory().live(), 0);

        let exact = Device::with_memory_budget(peak);
        assert_eq!(multi_run(&exact, &graph, &keys, n).unwrap(), expected);
        let short = Device::with_memory_budget(peak - 1);
        let err = multi_run(&short, &graph, &keys, n).unwrap_err();
        assert_eq!(err.capacity, peak - 1);
        assert_eq!(short.memory().live(), 0);
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
        // A budget too small for the flags must fail, not panic.
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
