//! Setup phase: orientation, pre-pruning and 2-clique list formation
//! (paper §IV-C).
//!
//! From each undirected edge exactly one directed arc is kept so that every
//! clique is enumerated once: the arc whose source compares lower under the
//! *(degree, index)* order. Orienting by degree (rather than index) makes
//! low-degree vertices the sources, which shortens the average sublist and
//! lets the `|sublist| < ω̄ − 1` cut remove more of them.
//!
//! Pre-pruning drops every vertex whose degree (or core number) + 1 is below
//! the heuristic lower bound `ω̄` — such a vertex cannot belong to any clique
//! of size ≥ ω̄, and since `ω̄ ≤ ω`, removing it everywhere is lossless for
//! enumeration.

use crate::config::{CandidateOrder, OrientationRule, SublistBound};
use gmc_dpp::{Executor, Launch, SharedSlice};
use gmc_graph::Csr;
use std::mem::MaybeUninit;

/// Counters from the setup phase, reported in [`SolveStats`].
///
/// [`SolveStats`]: crate::SolveStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetupStats {
    /// Oriented edges before any pruning (= `|E|`).
    pub total_oriented_edges: usize,
    /// 2-clique entries that survive pruning.
    pub initial_entries: usize,
    /// Vertices removed by the degree/core-number bound.
    pub pruned_vertices: usize,
    /// Non-empty sublists removed for being shorter than `ω̄ − 1`.
    pub pruned_sublists: usize,
    /// The first BFS level's walk bound: `Σ len·(len − 1)/2` over the
    /// surviving sublists. Exactly the probes the unfused level-0 count
    /// walk makes; the fused, bound-directed walk makes at most this many.
    /// The core-bitmap gate prices the bitmap against it.
    pub first_level_walk: u64,
}

/// The packed 2-clique node: parallel `vertex_id` (candidates) and
/// `sublist_id` (source vertices) arrays, plus setup counters.
pub(crate) struct SetupOutput {
    pub vertex_id: Vec<u32>,
    pub sublist_id: Vec<u32>,
    /// Per-vertex survival mask from core pruning: every id in `vertex_id`
    /// / `sublist_id` has `keep == true`, so a persistent core bitmap built
    /// over the survivors covers the whole search.
    pub keep: Vec<bool>,
    pub stats: SetupStats,
}

/// Sublists up to this length sort their keys in a stack buffer during
/// emission; longer ones allocate.
const INLINE_SUBLIST: usize = 64;

/// `u`'s *(degree, index)* sort key packed into one integer, `degree` in
/// the high half: integer order is the lexicographic order of the pairs,
/// and the low half is `u` itself.
#[inline]
fn sort_key(graph: &Csr, u: u32) -> u64 {
    (graph.degree(u) as u64) << 32 | u64::from(u)
}

/// Whether `u` follows `v` in the orientation order (a strict total order,
/// so every clique has a unique monotone vertex sequence).
#[inline]
pub(crate) fn oriented_after(graph: &Csr, rule: OrientationRule, v: u32, u: u32) -> bool {
    match rule {
        OrientationRule::Degree => (graph.degree(u), u) > (graph.degree(v), v),
        OrientationRule::Index => u > v,
    }
}

/// Builds the 2-clique list (paper §IV-C): count per-vertex oriented
/// out-neighbors, prune, scan for offsets, then emit each surviving sublist
/// with one virtual thread per source.
pub(crate) fn build_two_clique_list(
    exec: &Executor,
    graph: &Csr,
    lower_bound: u32,
    prune_thresholds: &[u32],
    rule: OrientationRule,
    order: CandidateOrder,
    bound: SublistBound,
) -> SetupOutput {
    let n = graph.num_vertices();
    assert_eq!(
        prune_thresholds.len(),
        n,
        "one pruning threshold per vertex"
    );

    // Vertex pre-pruning: a vertex with upper bound `threshold + 1 < ω̄`
    // cannot appear in any clique we are looking for.
    let keep: Vec<bool> = exec.map(Launch::new("setup_prune_vertices", n), |v| {
        prune_thresholds[v] + 1 >= lower_bound
    });
    let pruned_vertices = n - keep.iter().filter(|&&k| k).count();

    // Step 1: per-vertex oriented out-neighbor counts among kept vertices.
    let raw_counts: Vec<usize> = exec.map(Launch::new("setup_count_sublists", n), |v| {
        if !keep[v] {
            return 0;
        }
        let v = v as u32;
        graph
            .neighbors(v)
            .iter()
            .filter(|&&u| keep[u as usize] && oriented_after(graph, rule, v, u))
            .count()
    });

    // Step 2: sublist pruning. A clique of size ≥ ω̄ whose minimum vertex
    // (in orientation order) is `v` needs at least ω̄ − 1 oriented
    // out-neighbors of `v` — and, under the tighter colouring bound, at
    // least ω̄ − 1 colours among them (§II-B3).
    let required = (lower_bound.saturating_sub(1) as usize).max(1);
    let counts: Vec<usize> = exec.map(Launch::new("setup_prune_sublists", n), |v| {
        if raw_counts[v] < required {
            return 0;
        }
        if bound == SublistBound::Coloring && required > 1 {
            let candidates: Vec<u32> = graph
                .neighbors(v as u32)
                .iter()
                .copied()
                .filter(|&u| keep[u as usize] && oriented_after(graph, rule, v as u32, u))
                .collect();
            if greedy_color_count(graph, &candidates) < required {
                return 0;
            }
        }
        raw_counts[v]
    });
    let pruned_sublists = (0..n)
        .filter(|&v| raw_counts[v] > 0 && counts[v] == 0)
        .count();
    // Each entry of a length-`len` sublist walks the entries after it.
    let first_level_walk = counts
        .iter()
        .map(|&len| (len * len.saturating_sub(1) / 2) as u64)
        .sum();

    // Step 3: scan for sublist start offsets and total size.
    let (offsets, total) = gmc_dpp::exclusive_scan(exec, &counts);

    // Step 4: one virtual thread per surviving sublist emits its candidates
    // in the configured order. Each kept oriented neighbour is collected as
    // its packed sort key, so ordering them is one integer sort with no
    // lookups in the comparator.
    let mut vertex_id = vec![0u32; total];
    let mut sublist_id = vec![0u32; total];
    {
        let vertex_shared = SharedSlice::new(&mut vertex_id);
        let sublist_shared = SharedSlice::new(&mut sublist_id);
        exec.run(Launch::new("setup_emit_sublists", n), |v| {
            let len = counts[v];
            if len == 0 {
                return;
            }
            let src = v as u32;
            let src_key = sort_key(graph, src);
            // Write-before-read slots: only the keys written are read back.
            let mut inline = [MaybeUninit::<u64>::uninit(); INLINE_SUBLIST];
            let mut heap = Vec::new();
            let slots = if len <= INLINE_SUBLIST {
                &mut inline[..len]
            } else {
                heap.reserve_exact(len);
                &mut heap.spare_capacity_mut()[..len]
            };
            let mut kept = 0;
            for &u in graph.neighbors(src) {
                if !keep[u as usize] {
                    continue;
                }
                // `oriented_after`, with both degrees already in the keys.
                let key = sort_key(graph, u);
                let after = match rule {
                    OrientationRule::Degree => key > src_key,
                    OrientationRule::Index => u > src,
                };
                if after {
                    slots[kept].write(key);
                    kept += 1;
                }
            }
            debug_assert_eq!(kept, len, "emission disagrees with the sublist count");
            // SAFETY: the loop wrote `slots[..kept]`, and `MaybeUninit<u64>`
            // has the layout of `u64`.
            let keys = unsafe { &mut *(std::ptr::from_mut(&mut slots[..kept]) as *mut [u64]) };
            match order {
                CandidateOrder::Index => {} // adjacency lists are id-sorted
                CandidateOrder::DegreeAscending => keys.sort_unstable(),
            }
            let base = offsets[v];
            for (i, &key) in keys.iter().enumerate() {
                // SAFETY: sublists occupy disjoint output spans.
                unsafe {
                    vertex_shared.write(base + i, key as u32);
                    sublist_shared.write(base + i, src);
                }
            }
        });
    }

    SetupOutput {
        vertex_id,
        sublist_id,
        keep,
        stats: SetupStats {
            total_oriented_edges: graph.num_edges(),
            initial_entries: total,
            pruned_vertices,
            pruned_sublists,
            first_level_walk,
        },
    }
}

/// Number of colours a greedy pass assigns to `candidates` (an upper bound
/// on the largest clique among them).
fn greedy_color_count(graph: &Csr, candidates: &[u32]) -> usize {
    let mut classes: Vec<Vec<u32>> = Vec::new();
    for &v in candidates {
        let mut placed = false;
        for class in classes.iter_mut() {
            if class.iter().all(|&u| !graph.has_edge(u, v)) {
                class.push(v);
                placed = true;
                break;
            }
        }
        if !placed {
            classes.push(vec![v]);
        }
    }
    classes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    fn setup(graph: &Csr, lower: u32, order: CandidateOrder) -> SetupOutput {
        let exec = Executor::new(2);
        build_two_clique_list(
            &exec,
            graph,
            lower,
            &graph.degrees(),
            OrientationRule::Degree,
            order,
            SublistBound::Length,
        )
    }

    #[test]
    fn no_pruning_keeps_every_edge_once() {
        let g = generators::gnp(100, 0.1, 3);
        let out = setup(&g, 0, CandidateOrder::Index);
        assert_eq!(out.stats.initial_entries, g.num_edges());
        assert_eq!(out.stats.total_oriented_edges, g.num_edges());
        assert_eq!(out.stats.pruned_vertices, 0);
        // Every entry is a valid oriented edge.
        for (i, &u) in out.vertex_id.iter().enumerate() {
            let src = out.sublist_id[i];
            assert!(g.has_edge(src, u));
            assert!(oriented_after(&g, OrientationRule::Degree, src, u));
        }
    }

    /// The 2-clique list built the plain way, one sublist at a time:
    /// filter with [`oriented_after`], prune, then sort by
    /// `(graph.degree(u), u)`.
    fn naive_two_clique_list(
        graph: &Csr,
        lower: u32,
        thresholds: &[u32],
        rule: OrientationRule,
        order: CandidateOrder,
        bound: SublistBound,
    ) -> SetupOutput {
        let n = graph.num_vertices();
        let keep: Vec<bool> = (0..n).map(|v| thresholds[v] + 1 >= lower).collect();
        let required = (lower.saturating_sub(1) as usize).max(1);
        let (mut vertex_id, mut sublist_id) = (Vec::new(), Vec::new());
        let (mut pruned_sublists, mut first_level_walk) = (0, 0);
        for v in (0..n as u32).filter(|&v| keep[v as usize]) {
            let mut list: Vec<u32> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| keep[u as usize] && oriented_after(graph, rule, v, u))
                .collect();
            if list.is_empty() {
                continue;
            }
            if list.len() < required
                || (bound == SublistBound::Coloring
                    && required > 1
                    && greedy_color_count(graph, &list) < required)
            {
                pruned_sublists += 1;
                continue;
            }
            if order == CandidateOrder::DegreeAscending {
                list.sort_by_key(|&u| (graph.degree(u), u));
            }
            first_level_walk += (list.len() * (list.len() - 1) / 2) as u64;
            sublist_id.extend(std::iter::repeat_n(v, list.len()));
            vertex_id.extend(list);
        }
        SetupOutput {
            stats: SetupStats {
                total_oriented_edges: graph.num_edges(),
                initial_entries: vertex_id.len(),
                pruned_vertices: keep.iter().filter(|&&k| !k).count(),
                pruned_sublists,
                first_level_walk,
            },
            vertex_id,
            sublist_id,
            keep,
        }
    }

    #[test]
    fn emission_matches_the_naive_reference() {
        // Vertices 0..=70 form a 71-clique inside sparse G(n,p) noise, so
        // the lowest-ranked members' sublists are longer than the
        // emission's inline buffer (asserted below).
        let noise = generators::gnp(150, 0.05, 7);
        let mut hub: Vec<(u32, u32)> = (0..150u32)
            .flat_map(|u| noise.neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        for u in 0..=70u32 {
            hub.extend(((u + 1)..=70).map(|v| (u, v)));
        }
        let mut graphs = vec![("hub", Csr::from_edges(150, &hub))];
        graphs.extend((0..3).map(|seed| ("gnp", generators::gnp(90, 0.15, seed))));
        let exec = Executor::new(2);
        for (name, g) in &graphs {
            let cores = gmc_graph::kcore::core_numbers(g);
            let degrees = g.degrees();
            for rule in [OrientationRule::Degree, OrientationRule::Index] {
                for order in [CandidateOrder::Index, CandidateOrder::DegreeAscending] {
                    for (pruning, lower, thresholds, bound) in [
                        ("none", 0, &degrees, SublistBound::Length),
                        ("core", 9, &cores, SublistBound::Length),
                        ("coloring", 5, &degrees, SublistBound::Coloring),
                    ] {
                        let tag = format!("{name} {rule:?} {order:?} {pruning}");
                        let got =
                            build_two_clique_list(&exec, g, lower, thresholds, rule, order, bound);
                        let want = naive_two_clique_list(g, lower, thresholds, rule, order, bound);
                        // Every case keeps work and, past "none", prunes some.
                        assert!(!want.vertex_id.is_empty(), "{tag}: nothing survived");
                        assert_eq!(pruning == "none", want.stats.pruned_sublists == 0, "{tag}");
                        if *name == "hub" {
                            let longest = want.sublist_id.chunk_by(|a, b| a == b).map(<[u32]>::len);
                            assert!(longest.max() > Some(INLINE_SUBLIST), "{tag}");
                        }
                        assert_eq!(got.vertex_id, want.vertex_id, "{tag}");
                        assert_eq!(got.sublist_id, want.sublist_id, "{tag}");
                        assert_eq!(got.keep, want.keep, "{tag}");
                        assert_eq!(got.stats, want.stats, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn first_level_walk_is_the_unfused_level_zero_count_walk() {
        use gmc_cliquelist::CliqueLevel;
        use gmc_dpp::Device;
        for (lower, seed) in [(0, 11), (3, 12), (5, 13)] {
            let g = generators::gnp(80, 0.2, seed);
            let out = setup(&g, lower, CandidateOrder::DegreeAscending);
            // Σ l(l − 1)/2 over the emitted sublists, each one run of equal
            // sublist ids.
            let mut want = 0u64;
            for run in out.sublist_id.chunk_by(|a, b| a == b) {
                let l = run.len() as u64;
                want += l * (l - 1) / 2;
            }
            assert!(want > 0, "lower {lower}: nothing survived");
            assert_eq!(out.stats.first_level_walk, want, "lower {lower}");
            // Against an unreachable target the unfused level 0 prunes every
            // entry, so its count walk is the expansion's only probe.
            let device = Device::unlimited();
            let level0 = CliqueLevel::from_vecs(device.memory(), out.vertex_id, out.sublist_id)
                .expect("unlimited device");
            let mut arena = crate::arena::LevelArena::new();
            let outcome =
                crate::bfs::expand(&device, &g, level0, u32::MAX, false, false, &mut arena)
                    .expect("unlimited device");
            assert_eq!(outcome.level_entries.len(), 1, "lower {lower}");
            assert_eq!(outcome.probes, want, "lower {lower}");
        }
    }

    #[test]
    fn orientation_is_a_partition() {
        // Each undirected edge appears exactly once across all sublists.
        let g = generators::gnp(80, 0.15, 7);
        let out = setup(&g, 0, CandidateOrder::Index);
        let mut seen = std::collections::HashSet::new();
        for (i, &u) in out.vertex_id.iter().enumerate() {
            let src = out.sublist_id[i];
            let key = ((src.min(u) as u64) << 32) | src.max(u) as u64;
            assert!(seen.insert(key), "edge ({src},{u}) duplicated");
        }
        assert_eq!(seen.len(), g.num_edges());
    }

    #[test]
    fn vertex_pruning_removes_low_degree() {
        // Star: hub degree 5, leaves degree 1; ω̄ = 3 prunes all leaves.
        let g = Csr::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let out = setup(&g, 3, CandidateOrder::Index);
        assert_eq!(out.stats.pruned_vertices, 5);
        assert_eq!(out.stats.initial_entries, 0);
    }

    #[test]
    fn sublist_pruning_respects_required_length() {
        // Triangle + pendant edge. ω̄ = 3 requires sublists of length ≥ 2.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let out = setup(&g, 3, CandidateOrder::Index);
        // Vertex 3 (degree 1) is pruned; among {0,1,2}, only the triangle's
        // minimum vertex keeps a length-2 sublist.
        assert_eq!(out.stats.initial_entries, 2);
        let src = out.sublist_id[0];
        assert_eq!(out.sublist_id[1], src);
    }

    #[test]
    fn witness_sublist_always_survives() {
        // The pruning bound must never cut the heuristic's own clique.
        for seed in 0..5 {
            let base = generators::gnp(60, 0.1, seed);
            let (g, members) = generators::plant_clique(&base, 6, seed + 100);
            let out = setup(&g, 6, CandidateOrder::DegreeAscending);
            // The planted clique's minimum (by orientation) vertex must head
            // a sublist containing the other five members.
            let min = *members.iter().min_by_key(|&&v| (g.degree(v), v)).unwrap();
            let in_sublist: Vec<u32> = out
                .sublist_id
                .iter()
                .zip(&out.vertex_id)
                .filter(|(&s, _)| s == min)
                .map(|(_, &u)| u)
                .collect();
            for &m in &members {
                if m != min {
                    assert!(in_sublist.contains(&m), "seed {seed}: {m} missing");
                }
            }
        }
    }

    #[test]
    fn degree_ascending_orders_candidates() {
        let g = Csr::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
            ],
        );
        let out = setup(&g, 0, CandidateOrder::DegreeAscending);
        // Within each sublist, degrees are non-decreasing.
        let mut i = 0;
        while i < out.vertex_id.len() {
            let mut j = i + 1;
            while j < out.vertex_id.len() && out.sublist_id[j] == out.sublist_id[i] {
                let (du, dv) = (g.degree(out.vertex_id[j - 1]), g.degree(out.vertex_id[j]));
                assert!(
                    (du, out.vertex_id[j - 1]) <= (dv, out.vertex_id[j]),
                    "sublist not degree-sorted"
                );
                j += 1;
            }
            i = j;
        }
    }

    #[test]
    fn coloring_bound_prunes_bipartite_sublists() {
        // K_{2,6} plus a planted triangle elsewhere: the two left vertices
        // have 6 candidates each, but those candidates are an independent
        // set (1 colour), so with ω̄ = 3 the colouring bound removes the
        // sublists the length bound keeps.
        let mut edges = vec![(8u32, 9u32), (9, 10), (8, 10)]; // triangle
        for left in 0..2u32 {
            for right in 2..8u32 {
                edges.push((left, right));
            }
        }
        let g = Csr::from_edges(11, &edges);
        let exec = Executor::new(2);
        let build = |bound: SublistBound| {
            build_two_clique_list(
                &exec,
                &g,
                3,
                &g.degrees(),
                OrientationRule::Degree,
                CandidateOrder::Index,
                bound,
            )
        };
        let by_length = build(SublistBound::Length);
        let by_coloring = build(SublistBound::Coloring);
        assert!(
            by_coloring.stats.initial_entries < by_length.stats.initial_entries,
            "coloring {} !< length {}",
            by_coloring.stats.initial_entries,
            by_length.stats.initial_entries
        );
        // The triangle's sublist must survive both bounds.
        assert!(by_coloring.stats.initial_entries >= 2);
    }

    #[test]
    fn core_thresholds_prune_tighter_than_degree() {
        // A 4-clique with a long tail: tail vertices have degree 2 but core
        // number 1, so core-based pruning with ω̄ = 3 removes them while
        // degree-based pruning keeps them.
        let mut edges = vec![(3u32, 4u32), (4, 5), (5, 6), (6, 7)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        let g = Csr::from_edges(8, &edges);
        let exec = Executor::new(2);
        let by_degree = build_two_clique_list(
            &exec,
            &g,
            3,
            &g.degrees(),
            OrientationRule::Degree,
            CandidateOrder::Index,
            SublistBound::Length,
        );
        let cores = gmc_graph::kcore::core_numbers(&g);
        let by_core = build_two_clique_list(
            &exec,
            &g,
            3,
            &cores,
            OrientationRule::Degree,
            CandidateOrder::Index,
            SublistBound::Length,
        );
        assert!(by_core.stats.pruned_vertices > by_degree.stats.pruned_vertices);
        assert!(by_core.stats.initial_entries <= by_degree.stats.initial_entries);
    }
}
