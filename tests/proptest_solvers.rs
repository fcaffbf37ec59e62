//! Property-based cross-checks of the full solver stack on arbitrary small
//! graphs, on the in-tree seeded harness (`gmc_dpp::prop`). Failures
//! shrink the edge list and replay via `GMC_PROP_SEED`.

use gmc_dpp::prop::{self, gens, shrinks, Config};
use gmc_dpp::{prop_assert, prop_assert_eq, Rng};
use gpu_max_clique::graph::{kcore, Csr};
use gpu_max_clique::heuristic::HeuristicKind;
use gpu_max_clique::mce::{MaxCliqueSolver, WindowConfig, WindowOrdering};
use gpu_max_clique::pmc::{ParallelBranchBound, ReferenceEnumerator};
use gpu_max_clique::prelude::{Device, Executor};

/// An arbitrary graph case: vertex count plus G(n, 0.25) edge list. Kept
/// as raw parts so shrinking can drop edges while the vertex set stays
/// valid.
type GraphCase = (usize, Vec<(u32, u32)>);

fn arb_graph(rng: &mut Rng, max_n: usize) -> GraphCase {
    let n = rng.gen_range(2usize..=max_n);
    (n, gens::edges_gnp(rng, n, 0.25))
}

fn shrink_graph(case: &GraphCase) -> Vec<GraphCase> {
    shrinks::edges(&case.1)
        .into_iter()
        .map(|edges| (case.0, edges))
        .collect()
}

fn csr(case: &GraphCase) -> Csr {
    Csr::from_edges(case.0, &case.1)
}

/// The original proptest suite ran 48 cases per property; keep that scale
/// (still overridable through `GMC_PROP_CASES`).
fn config() -> Config {
    config_with(48)
}

/// Like [`config`], for properties whose cases are individually expensive
/// (e.g. near-complete spill-boundary graphs).
fn config_with(cases: u32) -> Config {
    let mut config = Config::default();
    if std::env::var("GMC_PROP_CASES").is_err() {
        config.cases = cases;
    }
    config
}

#[test]
fn bfs_enumeration_equals_oracle() {
    prop::check_with(
        config(),
        "bfs_enumeration_equals_oracle",
        |rng| arb_graph(rng, 20),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let (omega, cliques) = ReferenceEnumerator::enumerate(&graph);
            let result = MaxCliqueSolver::new(Device::unlimited())
                .solve(&graph)
                .unwrap();
            prop_assert_eq!(result.clique_number, omega);
            prop_assert_eq!(result.cliques, cliques);
            Ok(())
        },
    );
}

#[test]
fn every_heuristic_is_a_sound_lower_bound() {
    prop::check_with(
        config(),
        "every_heuristic_is_a_sound_lower_bound",
        |rng| arb_graph(rng, 18),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let omega = ReferenceEnumerator::clique_number(&graph);
            let device = Device::unlimited();
            for kind in HeuristicKind::all() {
                let h =
                    gpu_max_clique::heuristic::run_heuristic(&device, &graph, kind, None).unwrap();
                prop_assert!(h.lower_bound() <= omega);
                prop_assert!(graph.is_clique(&h.clique));
            }
            Ok(())
        },
    );
}

#[test]
fn windowed_enumeration_equals_oracle() {
    prop::check_with(
        config(),
        "windowed_enumeration_equals_oracle",
        |rng| {
            let ordering = gens::one_of(
                rng,
                &[
                    WindowOrdering::Index,
                    WindowOrdering::DegreeAscending,
                    WindowOrdering::DegreeDescending,
                    WindowOrdering::Random(9),
                ],
            );
            (arb_graph(rng, 16), rng.gen_range(1usize..32), ordering)
        },
        |(case, size, ordering)| {
            shrink_graph(case)
                .into_iter()
                .map(|c| (c, *size, *ordering))
                .collect()
        },
        |(case, size, ordering)| {
            let graph = csr(case);
            let (omega, cliques) = ReferenceEnumerator::enumerate(&graph);
            let result = MaxCliqueSolver::new(Device::unlimited())
                .windowed(WindowConfig {
                    size: *size,
                    ordering: *ordering,
                    enumerate_all: true,
                    ..WindowConfig::default()
                })
                .solve(&graph)
                .unwrap();
            prop_assert_eq!(result.clique_number, omega);
            prop_assert_eq!(result.cliques, cliques);
            Ok(())
        },
    );
}

#[test]
fn windowed_find_one_is_maximum() {
    prop::check_with(
        config(),
        "windowed_find_one_is_maximum",
        |rng| (arb_graph(rng, 16), rng.gen_range(1usize..16)),
        |(case, size)| shrink_graph(case).into_iter().map(|c| (c, *size)).collect(),
        |(case, size)| {
            let graph = csr(case);
            let (omega, cliques) = ReferenceEnumerator::enumerate(&graph);
            let result = MaxCliqueSolver::new(Device::unlimited())
                .windowed(WindowConfig::with_size(*size))
                .solve(&graph)
                .unwrap();
            prop_assert_eq!(result.clique_number, omega);
            if omega >= 2 {
                prop_assert_eq!(result.cliques.len(), 1);
                prop_assert!(cliques.contains(&result.cliques[0]));
            }
            Ok(())
        },
    );
}

#[test]
fn parallel_and_recursive_windows_equal_oracle() {
    prop::check_with(
        config(),
        "parallel_and_recursive_windows_equal_oracle",
        |rng| {
            (
                arb_graph(rng, 14),
                rng.gen_range(1usize..12),
                rng.gen_range(1usize..4),
                rng.gen_range(1usize..6),
            )
        },
        |(case, size, workers, depth)| {
            shrink_graph(case)
                .into_iter()
                .map(|c| (c, *size, *workers, *depth))
                .collect()
        },
        |(case, size, workers, depth)| {
            let graph = csr(case);
            let (omega, cliques) = ReferenceEnumerator::enumerate(&graph);
            let result = MaxCliqueSolver::new(Device::new(2, usize::MAX))
                .windowed(WindowConfig {
                    size: *size,
                    enumerate_all: true,
                    max_depth: *depth,
                    parallel_windows: *workers,
                    ..WindowConfig::default()
                })
                .solve(&graph)
                .unwrap();
            prop_assert_eq!(result.clique_number, omega);
            prop_assert_eq!(result.cliques, cliques);
            Ok(())
        },
    );
}

#[test]
fn pmc_finds_the_clique_number() {
    prop::check_with(
        config(),
        "pmc_finds_the_clique_number",
        |rng| arb_graph(rng, 20),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let omega = ReferenceEnumerator::clique_number(&graph);
            let result = ParallelBranchBound::new(2).solve(&graph);
            prop_assert_eq!(result.clique_number, omega);
            prop_assert!(graph.is_clique(&result.clique));
            Ok(())
        },
    );
}

#[test]
fn clique_number_bounded_by_degeneracy() {
    prop::check_with(
        config(),
        "clique_number_bounded_by_degeneracy",
        |rng| arb_graph(rng, 20),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let omega = ReferenceEnumerator::clique_number(&graph);
            if graph.num_edges() > 0 {
                let degeneracy = kcore::degeneracy(&graph);
                prop_assert!(omega <= degeneracy + 1);
            }
            Ok(())
        },
    );
}

#[test]
fn parallel_kcore_equals_sequential() {
    prop::check_with(
        config(),
        "parallel_kcore_equals_sequential",
        |rng| arb_graph(rng, 24),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let exec = Executor::new(3);
            prop_assert_eq!(
                kcore::core_numbers_parallel(&exec, &graph),
                kcore::core_numbers(&graph)
            );
            Ok(())
        },
    );
}

#[test]
fn enumerated_cliques_are_valid_distinct_and_maximal() {
    prop::check_with(
        config(),
        "enumerated_cliques_are_valid_distinct_and_maximal",
        |rng| arb_graph(rng, 18),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let result = MaxCliqueSolver::new(Device::unlimited())
                .solve(&graph)
                .unwrap();
            let omega = result.clique_number as usize;
            for clique in &result.cliques {
                prop_assert_eq!(clique.len(), omega);
                prop_assert!(graph.is_clique(clique));
                // Sorted ascending within each clique.
                prop_assert!(clique.windows(2).all(|w| w[0] < w[1]));
            }
            // Pairwise distinct (the list is sorted, so adjacent equality
            // suffices).
            prop_assert!(result.cliques.windows(2).all(|w| w[0] != w[1]));
            Ok(())
        },
    );
}

#[test]
fn early_exit_never_changes_the_answer() {
    prop::check_with(
        config(),
        "early_exit_never_changes_the_answer",
        |rng| arb_graph(rng, 18),
        shrink_graph,
        |case| {
            let graph = csr(case);
            let with = MaxCliqueSolver::new(Device::unlimited())
                .early_exit(true)
                .solve(&graph)
                .unwrap();
            let without = MaxCliqueSolver::new(Device::unlimited())
                .early_exit(false)
                .solve(&graph)
                .unwrap();
            prop_assert_eq!(with.clique_number, without.clique_number);
            prop_assert_eq!(with.cliques, without.cliques);
            Ok(())
        },
    );
}

#[test]
fn oom_never_returns_a_wrong_answer() {
    prop::check_with(
        config(),
        "oom_never_returns_a_wrong_answer",
        |rng| (arb_graph(rng, 16), rng.gen_range(64usize..4096)),
        |(case, budget)| {
            let mut out: Vec<(GraphCase, usize)> = shrink_graph(case)
                .into_iter()
                .map(|c| (c, *budget))
                .collect();
            out.extend(
                shrinks::usize_toward(64)(budget)
                    .into_iter()
                    .map(|b| (case.clone(), b)),
            );
            out
        },
        |(case, budget)| {
            let graph = csr(case);
            let device = Device::with_memory_budget(*budget);
            // OOM is acceptable; a wrong answer is not.
            if let Ok(result) = MaxCliqueSolver::new(device).solve(&graph) {
                let omega = ReferenceEnumerator::clique_number(&graph);
                prop_assert_eq!(result.clique_number, omega);
            }
            Ok(())
        },
    );
}

#[test]
fn fused_pipeline_is_indistinguishable_from_unfused() {
    // The fused record-and-replay expansion must reproduce the unfused
    // baseline bit for bit — same cliques, same level shapes, same early
    // exits — across random graphs, worker counts and edge oracles, while
    // never making more oracle queries.
    use gpu_max_clique::mce::EdgeIndexKind;
    prop::check_with(
        config(),
        "fused_pipeline_is_indistinguishable_from_unfused",
        |rng| arb_graph(rng, 20),
        shrink_graph,
        |case| {
            let graph = csr(case);
            for workers in [1usize, 2, 8] {
                for oracle in [EdgeIndexKind::BinarySearch, EdgeIndexKind::Bitset] {
                    let solve = |fused: bool| {
                        MaxCliqueSolver::new(Device::new(workers, usize::MAX))
                            .edge_index(oracle)
                            .fused(fused)
                            .solve(&graph)
                            .unwrap()
                    };
                    let (f, u) = (solve(true), solve(false));
                    prop_assert_eq!(f.clique_number, u.clique_number);
                    prop_assert_eq!(&f.cliques, &u.cliques);
                    prop_assert_eq!(&f.stats.level_entries, &u.stats.level_entries);
                    prop_assert_eq!(f.stats.early_exit, u.stats.early_exit);
                    prop_assert!(f.stats.oracle_queries <= u.stats.oracle_queries);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn local_bitmap_path_is_indistinguishable_from_scalar() {
    // The core-bitmap probe path must be a pure strength reduction: same
    // cliques, same level shapes, same early exits as the scalar fused walk
    // and the unfused baseline, for every edge oracle and worker count. Its
    // accounting must reconcile exactly — every scalar probe is either
    // performed or reported as a core-bitmap word test, never dropped.
    use gpu_max_clique::mce::{EdgeIndexKind, LocalBitsMode, LocalBitsStats};
    prop::check_with(
        config(),
        "local_bitmap_path_is_indistinguishable_from_scalar",
        |rng| arb_graph(rng, 16),
        shrink_graph,
        |case| {
            let graph = csr(case);
            for workers in [1usize, 2, 8] {
                for kind in [
                    EdgeIndexKind::BinarySearch,
                    EdgeIndexKind::Bitset,
                    EdgeIndexKind::Hash,
                    EdgeIndexKind::Auto,
                ] {
                    let solve = |fused: bool, local: LocalBitsMode| {
                        MaxCliqueSolver::new(Device::new(workers, usize::MAX))
                            .edge_index(kind)
                            .fused(fused)
                            .local_bits(local)
                            .solve(&graph)
                            .unwrap()
                    };
                    let off = solve(true, LocalBitsMode::Off);
                    let unfused = solve(false, LocalBitsMode::Off);
                    prop_assert_eq!(&off.cliques, &unfused.cliques);
                    prop_assert_eq!(&off.stats.level_entries, &unfused.stats.level_entries);
                    prop_assert_eq!(off.stats.local_bits, LocalBitsStats::default());
                    for local in [LocalBitsMode::On, LocalBitsMode::Auto] {
                        let on = solve(true, local);
                        prop_assert_eq!(on.clique_number, off.clique_number);
                        prop_assert_eq!(&on.cliques, &off.cliques);
                        prop_assert_eq!(&on.stats.level_entries, &off.stats.level_entries);
                        prop_assert_eq!(on.stats.early_exit, off.stats.early_exit);
                        prop_assert_eq!(
                            on.stats.oracle_queries + on.stats.local_bits.probes_avoided,
                            off.stats.oracle_queries
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn local_bitmaps_cross_the_inline_spill_boundary() {
    // Near-complete cores of 62–70 vertices produce sublists whose tails
    // straddle the 64-bit inline mask: below it the core-bitmap walk fills
    // the inline word only, above it the spill words too. Both sides must
    // stay bit-identical to the scalar walk; the fringe vertices vary the
    // sublist lengths around the core.
    use gpu_max_clique::mce::{EdgeIndexKind, LocalBitsMode};
    prop::check_with(
        config_with(8),
        "local_bitmaps_cross_the_inline_spill_boundary",
        |rng| {
            let core = rng.gen_range(62usize..=70);
            let fringe = rng.gen_range(0usize..=4);
            let mut edges = Vec::new();
            for a in 0..core as u32 {
                for b in (a + 1)..core as u32 {
                    edges.push((a, b));
                }
            }
            for f in 0..fringe {
                let v = (core + f) as u32;
                for u in 0..core as u32 {
                    if rng.gen_range(0usize..3) == 0 {
                        edges.push((u, v));
                    }
                }
            }
            (core + fringe, edges)
        },
        // A near-complete edge list has no useful smaller shape; replay the
        // failing seed via GMC_PROP_SEED instead of shrinking ~2400 edges.
        |_case| Vec::new(),
        |case| {
            let graph = csr(case);
            for workers in [1usize, 8] {
                for kind in [EdgeIndexKind::BinarySearch, EdgeIndexKind::Bitset] {
                    let solve = |local: LocalBitsMode| {
                        MaxCliqueSolver::new(Device::new(workers, usize::MAX))
                            .edge_index(kind)
                            .fused(true)
                            .local_bits(local)
                            .solve(&graph)
                            .unwrap()
                    };
                    let off = solve(LocalBitsMode::Off);
                    for local in [LocalBitsMode::On, LocalBitsMode::Auto] {
                        let on = solve(local);
                        prop_assert_eq!(on.clique_number, off.clique_number);
                        prop_assert_eq!(&on.cliques, &off.cliques);
                        prop_assert_eq!(&on.stats.level_entries, &off.stats.level_entries);
                        prop_assert_eq!(
                            on.stats.oracle_queries + on.stats.local_bits.probes_avoided,
                            off.stats.oracle_queries
                        );
                        // Both modes build the core bitmap on this roomy
                        // device, so every probe is a word test.
                        prop_assert!(on.stats.local_bits.persistent_bytes > 0);
                        prop_assert!(on.stats.local_bits.persistent_probes > 0);
                        prop_assert_eq!(on.stats.oracle_queries, 0);
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn persistent_tier_is_indistinguishable_across_oracles_workers_and_windows() {
    // The core bitmap and the scalar walk must be bit-for-bit
    // interchangeable — same cliques, same level shapes, same early exits —
    // across edge oracles, worker counts, and the windowed and unwindowed
    // drivers, with exact probe reconciliation throughout. An armed fault
    // plan rides along on one worker count: injected OOM or launch faults
    // during the one-time bitmap build must degrade to the scalar walk (or
    // recover by retry), never abort or change output.
    use gpu_max_clique::mce::{EdgeIndexKind, LocalBitsMode};
    use gpu_max_clique::prelude::FaultPlan;
    prop::check_with(
        config_with(12),
        "persistent_tier_is_indistinguishable_across_oracles_workers_and_windows",
        |rng| arb_graph(rng, 16),
        shrink_graph,
        |case| {
            let graph = csr(case);
            for workers in [1usize, 2, 8] {
                for kind in [
                    EdgeIndexKind::BinarySearch,
                    EdgeIndexKind::Bitset,
                    EdgeIndexKind::Hash,
                ] {
                    for windowed in [false, true] {
                        let solve = |local: LocalBitsMode, faults: Option<FaultPlan>| {
                            let mut solver = MaxCliqueSolver::new(Device::new(workers, usize::MAX))
                                .edge_index(kind)
                                .fused(true)
                                .local_bits(local)
                                .faults(faults);
                            if windowed {
                                solver = solver.windowed(WindowConfig {
                                    size: 8,
                                    enumerate_all: true,
                                    ..WindowConfig::default()
                                });
                            }
                            solver.solve(&graph).unwrap()
                        };
                        let off = solve(LocalBitsMode::Off, None);
                        let on = solve(LocalBitsMode::On, None);
                        prop_assert_eq!(on.clique_number, off.clique_number);
                        prop_assert_eq!(&on.cliques, &off.cliques);
                        prop_assert_eq!(&on.stats.level_entries, &off.stats.level_entries);
                        prop_assert_eq!(on.stats.early_exit, off.stats.early_exit);
                        prop_assert_eq!(
                            on.stats.oracle_queries + on.stats.local_bits.probes_avoided,
                            off.stats.oracle_queries
                        );
                        // Nothing is rebuilt per level, and every avoided
                        // probe came from the core bitmap.
                        prop_assert_eq!(on.stats.local_bits.rows_built, 0);
                        prop_assert_eq!(
                            on.stats.local_bits.persistent_probes,
                            on.stats.local_bits.probes_avoided
                        );
                        // Tiny graphs can resolve before any window runs
                        // (no window stats block); when windows did run,
                        // the solve-level block must mirror theirs.
                        if let Some(w) = on.stats.window.as_ref() {
                            prop_assert_eq!(on.stats.local_bits, w.local_bits);
                        }
                        if workers == 2 {
                            let plan: FaultPlan = "seed=5,alloc=0.02,launch=0.02,retries=64"
                                .parse()
                                .expect("plan parses");
                            let faulted = solve(LocalBitsMode::On, Some(plan));
                            prop_assert_eq!(&faulted.cliques, &off.cliques);
                            prop_assert_eq!(
                                faulted.stats.oracle_queries
                                    + faulted.stats.local_bits.probes_avoided,
                                off.stats.oracle_queries
                            );
                            let f = faulted.stats.faults;
                            prop_assert_eq!(f.recovered(), f.injected());
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn auto_threshold_edge_keeps_modes_equivalent() {
    // Wheels of 29–36 rim vertices under *index* orientation (so the hub at
    // vertex 0 sources one long sublist), solved on either side of `Auto`'s
    // core-bitmap gate: with a roomy budget Auto builds the core bitmap
    // exactly as forced `On` does; where it does not fit, Auto must *be*
    // the scalar walk — the same oracle queries and all-zero bitmap
    // counters. Every mode returns identical results with exact probe
    // reconciliation. The rim cycle keeps the whole wheel in its own
    // 3-core, so setup's core-number pruning cannot strip any hub member.
    use gpu_max_clique::mce::{LocalBitsMode, LocalBitsStats, OrientationRule};
    // Isolated padding vertices are pruned by setup, so they change nothing
    // about the search — but they inflate the core bitmap's renumber-table
    // footprint (4 bytes per original vertex) past the quarter-budget gate
    // of a 64 KiB device, forcing Auto onto the scalar walk there while a
    // roomy device builds the core bitmap for the very same graph.
    const PAD: usize = 5000;
    prop::check_with(
        config_with(16),
        "auto_threshold_edge_keeps_modes_equivalent",
        |rng| {
            let m = rng.gen_range(29usize..=36);
            let mut edges: Vec<(u32, u32)> = (1..=m as u32).map(|v| (0, v)).collect();
            for v in 1..m as u32 {
                edges.push((v, v + 1));
            }
            edges.push((1, m as u32));
            (m + 1 + PAD, edges)
        },
        |_case| Vec::new(),
        |case| {
            let graph = csr(case);
            let solve = |local: LocalBitsMode, capacity: usize| {
                MaxCliqueSolver::new(Device::new(2, capacity))
                    .orientation(OrientationRule::Index)
                    .fused(true)
                    .local_bits(local)
                    .solve(&graph)
                    .unwrap()
            };
            let off = solve(LocalBitsMode::Off, usize::MAX);
            let on = solve(LocalBitsMode::On, usize::MAX);
            let auto_roomy = solve(LocalBitsMode::Auto, usize::MAX);
            let auto_gated = solve(LocalBitsMode::Auto, 64 * 1024);
            for run in [&on, &auto_roomy, &auto_gated] {
                prop_assert_eq!(run.clique_number, off.clique_number);
                prop_assert_eq!(&run.cliques, &off.cliques);
                prop_assert_eq!(&run.stats.level_entries, &off.stats.level_entries);
                prop_assert_eq!(
                    run.stats.oracle_queries + run.stats.local_bits.probes_avoided,
                    off.stats.oracle_queries
                );
            }
            // Roomy budget: Auto builds the core bitmap, exactly as On does.
            prop_assert!(auto_roomy.stats.local_bits.persistent_probes > 0);
            prop_assert_eq!(auto_roomy.stats.local_bits, on.stats.local_bits);
            prop_assert_eq!(auto_roomy.stats.oracle_queries, on.stats.oracle_queries);
            // Gated budget: the core bitmap does not fit, and Auto is the
            // scalar walk exactly.
            prop_assert_eq!(auto_gated.stats.oracle_queries, off.stats.oracle_queries);
            prop_assert_eq!(auto_gated.stats.local_bits, LocalBitsStats::default());
            Ok(())
        },
    );
}
