//! Determinism guarantees: identical results run-to-run, across worker
//! counts, and label-invariance under vertex permutation.

use gpu_max_clique::corpus::{corpus, Tier};
use gpu_max_clique::dpp::{LaunchStats, DEFAULT_SEQUENTIAL_GRID_LIMIT};
use gpu_max_clique::graph::generators;
use gpu_max_clique::heuristic::HeuristicKind;
use gpu_max_clique::mce::{MaxCliqueSolver, WindowConfig};
use gpu_max_clique::prelude::{Device, FaultPlan};

/// The default sequential-grid limit and limit 0. The latter sends every
/// launch — even the smallest level of a small graph — to the worker pool
/// instead of running most of them inline.
const SEQ_LIMITS: [usize; 2] = [DEFAULT_SEQUENTIAL_GRID_LIMIT, 0];

/// A device with `workers` workers, unlimited memory and the given
/// sequential-grid limit.
fn device(workers: usize, seq_limit: usize) -> Device {
    let device = Device::new(workers, usize::MAX);
    device.exec().set_sequential_grid_limit(seq_limit);
    device
}

#[test]
fn repeated_solves_are_identical() {
    let graph = generators::gnp(120, 0.12, 1);
    let solver = MaxCliqueSolver::new(Device::unlimited());
    let first = solver.solve(&graph).unwrap();
    for _ in 0..3 {
        let again = solver.solve(&graph).unwrap();
        assert_eq!(again.clique_number, first.clique_number);
        assert_eq!(again.cliques, first.cliques);
        assert_eq!(again.stats.lower_bound, first.stats.lower_bound);
        assert_eq!(again.stats.level_entries, first.stats.level_entries);
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let graph = generators::barabasi_albert(400, 5, 2);
    let reference = MaxCliqueSolver::new(Device::new(1, usize::MAX))
        .solve(&graph)
        .unwrap();
    for workers in [2, 3, 8] {
        let result = MaxCliqueSolver::new(Device::new(workers, usize::MAX))
            .solve(&graph)
            .unwrap();
        assert_eq!(result.cliques, reference.cliques, "workers {workers}");
        assert_eq!(
            result.stats.level_entries, reference.stats.level_entries,
            "workers {workers}: level shape changed"
        );
        assert_eq!(
            result.stats.peak_device_bytes, reference.stats.peak_device_bytes,
            "workers {workers}: memory accounting changed"
        );
    }
}

#[test]
fn windowed_solves_are_deterministic() {
    let graph = generators::gnp(100, 0.18, 3);
    let solve = |workers: usize| {
        MaxCliqueSolver::new(Device::new(workers, usize::MAX))
            .windowed(WindowConfig::with_size(16))
            .solve(&graph)
            .unwrap()
    };
    let a = solve(1);
    let b = solve(4);
    assert_eq!(a.cliques, b.cliques);
    assert_eq!(
        a.stats.window.unwrap().peak_window_bytes,
        b.stats.window.unwrap().peak_window_bytes
    );
}

#[test]
fn corpus_datasets_are_reproducible() {
    // Same spec → byte-identical graph → identical solve, across processes
    // and runs (the corpus is the experiment harness's ground truth).
    for spec in corpus(Tier::Smoke).into_iter().step_by(7) {
        let a = spec.load();
        let b = spec.load();
        assert_eq!(a, b, "{}", spec.name);
        let ra = MaxCliqueSolver::new(Device::unlimited()).solve(&a).unwrap();
        let rb = MaxCliqueSolver::new(Device::unlimited()).solve(&b).unwrap();
        assert_eq!(ra.cliques, rb.cliques, "{}", spec.name);
    }
}

#[test]
fn permutation_invariance_of_clique_number() {
    for spec in corpus(Tier::Smoke).into_iter().step_by(9) {
        let graph = spec.load();
        let base = MaxCliqueSolver::new(Device::unlimited())
            .solve(&graph)
            .unwrap();
        for seed in [11, 22] {
            let (shuffled, _) = graph.randomize_vertex_ids(seed);
            let result = MaxCliqueSolver::new(Device::unlimited())
                .solve(&shuffled)
                .unwrap();
            assert_eq!(
                result.clique_number, base.clique_number,
                "{} seed {seed}",
                spec.name
            );
            assert_eq!(
                result.multiplicity(),
                base.multiplicity(),
                "{} seed {seed}",
                spec.name
            );
        }
    }
}

#[test]
fn heuristics_are_deterministic_across_workers() {
    let graph = generators::holme_kim(500, 5, 0.6, 4);
    for kind in HeuristicKind::all() {
        let a = gpu_max_clique::heuristic::run_heuristic(
            &Device::new(1, usize::MAX),
            &graph,
            kind,
            None,
        )
        .unwrap();
        let b = gpu_max_clique::heuristic::run_heuristic(
            &Device::new(6, usize::MAX),
            &graph,
            kind,
            None,
        )
        .unwrap();
        assert_eq!(a.clique, b.clique, "{kind}");
    }
}

#[test]
fn sequential_limits_do_not_change_results_across_worker_counts() {
    // Every sequential-limit × worker-count × pipeline combination must
    // produce bit-identical cliques and identical deterministic counters.
    let graph = generators::barabasi_albert(350, 6, 7);
    for fused in [false, true] {
        let reference = MaxCliqueSolver::new(Device::new(1, usize::MAX))
            .fused(fused)
            .solve(&graph)
            .unwrap();
        // Launch counters are structural only at a fixed sequential limit:
        // a pooled scan records launches the inline one does not, and at
        // limit 0 the scan of a per-chunk array has one virtual thread per
        // worker. So every multi-worker lane launches each kernel as often
        // as the first one at its own limit, and at the default limit (or
        // on one worker) matches the one-worker reference exactly.
        let per_kernel_launches = |stats: &LaunchStats| -> Vec<(&'static str, u64)> {
            let rows = stats.per_kernel.iter();
            rows.map(|(name, kernel)| (*name, kernel.launches))
                .collect()
        };
        let mut pooled_launches = std::collections::HashMap::new();
        for seq_limit in SEQ_LIMITS {
            for workers in [1, 2, 8] {
                let result = MaxCliqueSolver::new(device(workers, seq_limit))
                    .fused(fused)
                    .solve(&graph)
                    .unwrap();
                let ctx = format!("seq-limit {seq_limit} workers {workers} fused {fused}");
                assert_eq!(result.cliques, reference.cliques, "{ctx}");
                assert_eq!(
                    result.stats.oracle_queries, reference.stats.oracle_queries,
                    "{ctx}: oracle query count changed"
                );
                assert_eq!(
                    result.stats.local_bits, reference.stats.local_bits,
                    "{ctx}: core-bitmap counters changed"
                );
                if workers > 1 {
                    let launches = per_kernel_launches(&result.stats.launches);
                    let first = pooled_launches
                        .entry(seq_limit)
                        .or_insert_with(|| launches.clone());
                    assert_eq!(&launches, first, "{ctx}: launch counts changed");
                }
                if seq_limit == DEFAULT_SEQUENTIAL_GRID_LIMIT || workers == 1 {
                    assert_eq!(
                        result.stats.launches, reference.stats.launches,
                        "{ctx}: launch counters changed"
                    );
                }
            }
        }
    }
}

#[test]
fn sequential_limits_preserve_fault_step_semantics() {
    // Fault rolls are keyed by a per-launch step counter; neither the
    // worker count nor the sequential limit may add or remove a fallible
    // launch, so an armed plan injects the *exact* same fault sequence on
    // every device — and the recovered output stays bit-identical to the
    // fault-free reference.
    let graph = generators::gnp(250, 0.25, 11);
    let plan: FaultPlan = "seed=7,alloc=0.05,launch=0.02,retries=256"
        .parse()
        .expect("plan parses");
    let clean = MaxCliqueSolver::new(Device::unlimited())
        .solve(&graph)
        .unwrap();
    let reference = MaxCliqueSolver::new(Device::new(1, usize::MAX))
        .faults(Some(plan))
        .solve(&graph)
        .unwrap();
    assert_eq!(reference.cliques, clean.cliques);
    assert!(
        reference.stats.faults.injected() > 0,
        "plan injected nothing — the test proves nothing"
    );
    for seq_limit in SEQ_LIMITS {
        for workers in [1, 2, 8] {
            let result = MaxCliqueSolver::new(device(workers, seq_limit))
                .faults(Some(plan))
                .solve(&graph)
                .unwrap();
            let ctx = format!("seq-limit {seq_limit} workers {workers}");
            assert_eq!(result.cliques, clean.cliques, "{ctx}");
            let f = result.stats.faults;
            assert_eq!(f, reference.stats.faults, "{ctx}: fault counters changed");
            assert_eq!(f.recovered(), f.injected(), "{ctx}: {f:?}");
        }
    }
}

#[test]
fn solver_reports_pool_stats_per_solve() {
    // Dense enough that the level grids clear the sequential-inline limit,
    // so launches reach the worker pool.
    let graph = generators::gnp(400, 0.2, 3);
    let solver = MaxCliqueSolver::new(Device::new(4, usize::MAX));
    let first = solver.solve(&graph).unwrap().stats.sched;
    assert!(first.pool_launches > 0, "{first:?}");
    assert!(first.imbalance() >= 1.0, "{first:?}");
    // A second solve on the same device reports only its own launches.
    let second = solver.solve(&graph).unwrap().stats.sched;
    assert_eq!(second.pool_launches, first.pool_launches);
}

#[test]
fn launch_stats_are_deterministic() {
    // The number of virtual-GPU launches is a structural property of the
    // algorithm, not of the machine.
    let graph = generators::gnp(150, 0.1, 5);
    let run = |workers: usize| {
        MaxCliqueSolver::new(Device::new(workers, usize::MAX))
            .solve(&graph)
            .unwrap()
            .stats
            .launches
    };
    assert_eq!(run(1), run(5));
}
