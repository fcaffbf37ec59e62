//! Determinism guarantees: identical results run-to-run, across worker
//! counts, and label-invariance under vertex permutation.

use gpu_max_clique::corpus::{corpus, Tier};
use gpu_max_clique::dpp::DEFAULT_SEQUENTIAL_GRID_LIMIT;
use gpu_max_clique::graph::generators;
use gpu_max_clique::heuristic::HeuristicKind;
use gpu_max_clique::mce::{MaxCliqueSolver, WindowConfig};
use gpu_max_clique::prelude::{Device, FaultPlan, Schedule};

/// Every launch schedule, each at the default sequential-grid limit and at
/// limit 0. The latter sends every launch — even the smallest level of a
/// small graph — to the worker pool, so `Auto` claims cost-cut morsels on
/// every weighted launch instead of running most of them inline.
fn all_schedules() -> [(Schedule, usize); 4] {
    [
        (Schedule::Static, DEFAULT_SEQUENTIAL_GRID_LIMIT),
        (Schedule::Static, 0),
        (Schedule::Auto, DEFAULT_SEQUENTIAL_GRID_LIMIT),
        (Schedule::Auto, 0),
    ]
}

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
fn schedules_do_not_change_results_across_worker_counts() {
    // `Auto` reassigns morsels to workers at runtime, but the decomposition
    // itself is worker-count independent, so every schedule × worker-count
    // × pipeline combination must produce bit-identical cliques and
    // identical deterministic counters.
    let graph = generators::barabasi_albert(350, 6, 7);
    for fused in [false, true] {
        let reference = MaxCliqueSolver::new(Device::new(1, usize::MAX))
            .fused(fused)
            .schedule(Schedule::Static)
            .solve(&graph)
            .unwrap();
        // Launch counts are structural only at a fixed sequential limit: a
        // pooled scan records launches the inline one does not. So every
        // lane matches the static lane at its own limit and worker count
        // (`all_schedules` lists static first), and at the default limit
        // also the one-worker reference.
        let mut static_launches = std::collections::HashMap::new();
        for (schedule, seq_limit) in all_schedules() {
            for workers in [1, 2, 8] {
                let result = MaxCliqueSolver::new(device(workers, seq_limit))
                    .fused(fused)
                    .schedule(schedule)
                    .solve(&graph)
                    .unwrap();
                let ctx = format!(
                    "schedule {schedule} seq-limit {seq_limit} workers {workers} fused {fused}"
                );
                assert_eq!(result.cliques, reference.cliques, "{ctx}");
                assert_eq!(
                    result.stats.oracle_queries, reference.stats.oracle_queries,
                    "{ctx}: oracle query count changed"
                );
                assert_eq!(
                    result.stats.local_bits, reference.stats.local_bits,
                    "{ctx}: core-bitmap counters changed"
                );
                let static_lane = static_launches
                    .entry((seq_limit, workers))
                    .or_insert_with(|| result.stats.launches.clone());
                assert_eq!(
                    &result.stats.launches, static_lane,
                    "{ctx}: launch counters changed"
                );
                if seq_limit == DEFAULT_SEQUENTIAL_GRID_LIMIT {
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
fn schedules_preserve_fault_step_semantics() {
    // Fault rolls are keyed by a per-launch step counter; a schedule must
    // neither add nor remove launches, so an armed plan injects the *exact*
    // same fault sequence under every schedule and worker count — and the
    // recovered output stays bit-identical to the fault-free reference.
    let graph = generators::gnp(250, 0.25, 11);
    let plan: FaultPlan = "seed=7,alloc=0.05,launch=0.02,retries=256"
        .parse()
        .expect("plan parses");
    let clean = MaxCliqueSolver::new(Device::unlimited())
        .solve(&graph)
        .unwrap();
    let reference = MaxCliqueSolver::new(Device::new(1, usize::MAX))
        .schedule(Schedule::Static)
        .faults(Some(plan))
        .solve(&graph)
        .unwrap();
    assert_eq!(reference.cliques, clean.cliques);
    assert!(
        reference.stats.faults.injected() > 0,
        "plan injected nothing — the test proves nothing"
    );
    for (schedule, seq_limit) in all_schedules() {
        for workers in [1, 2, 8] {
            let result = MaxCliqueSolver::new(device(workers, seq_limit))
                .schedule(schedule)
                .faults(Some(plan))
                .solve(&graph)
                .unwrap();
            let ctx = format!("schedule {schedule} seq-limit {seq_limit} workers {workers}");
            assert_eq!(result.cliques, clean.cliques, "{ctx}");
            let f = result.stats.faults;
            assert_eq!(f, reference.stats.faults, "{ctx}: fault counters changed");
            assert_eq!(f.recovered(), f.injected(), "{ctx}: {f:?}");
        }
    }
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
