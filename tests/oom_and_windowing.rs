//! Device-memory behaviour: OOM surfaces as an error (never a wrong
//! answer), windowing reduces peak memory and rescues OOM instances, and
//! accounting never leaks.

use gpu_max_clique::graph::generators;
use gpu_max_clique::heuristic::HeuristicKind;
use gpu_max_clique::mce::{MaxCliqueSolver, SolveError, WindowConfig};
use gpu_max_clique::pmc::ReferenceEnumerator;
use gpu_max_clique::prelude::Device;

#[test]
fn oom_error_carries_accounting_details() {
    let graph = generators::gnp(150, 0.3, 1);
    let device = Device::with_memory_budget(4096);
    let err = MaxCliqueSolver::new(device.clone())
        .heuristic(HeuristicKind::None)
        .solve(&graph)
        .unwrap_err();
    let SolveError::DeviceOom(oom) = err else {
        panic!("expected DeviceOom, got {err:?}");
    };
    assert_eq!(oom.capacity, 4096);
    assert!(oom.requested > 0);
    // Nothing leaks after the failed run.
    assert_eq!(device.memory().live(), 0);
}

#[test]
fn failed_runs_leave_no_live_memory_at_any_budget() {
    let graph = generators::gnp(120, 0.25, 2);
    for budget in [64, 1024, 16 * 1024, 256 * 1024] {
        let device = Device::with_memory_budget(budget);
        let _ = MaxCliqueSolver::new(device.clone())
            .heuristic(HeuristicKind::None)
            .solve(&graph);
        assert_eq!(device.memory().live(), 0, "budget {budget} leaked");
    }
}

#[test]
fn better_heuristics_rescue_oom_instances() {
    // Find a budget where the unpruned search OOMs but the multi-run
    // degree-pruned search fits — the paper's Table I mechanism. A union of
    // many mid-size cliques with one larger planted clique is the shape
    // where an accurate bound prunes away almost the entire search: every
    // mid-size clique's subtree dies at the sublist-length cut.
    let base = generators::collaboration(300, 120, 8, 12, 1.5, 3);
    let (graph, _) = generators::plant_clique(&base, 18, 33);
    let reference = MaxCliqueSolver::new(Device::unlimited())
        .solve(&graph)
        .unwrap();

    let mut demonstrated = false;
    for budget_kb in [16, 32, 64, 128, 256, 512, 1024] {
        let device = Device::with_memory_budget(budget_kb * 1024);
        let none = MaxCliqueSolver::new(device.clone())
            .heuristic(HeuristicKind::None)
            .solve(&graph);
        let multi = MaxCliqueSolver::new(device)
            .heuristic(HeuristicKind::MultiDegree)
            .solve(&graph);
        if none.is_err() {
            if let Ok(result) = multi {
                assert_eq!(result.clique_number, reference.clique_number);
                assert_eq!(result.cliques, reference.cliques);
                demonstrated = true;
                break;
            }
        }
    }
    assert!(demonstrated, "no budget separated the heuristics");
}

#[test]
fn windowing_rescues_oom_and_stays_correct() {
    let graph = generators::gnp(200, 0.15, 4);
    let (omega, cliques) = ReferenceEnumerator::enumerate(&graph);

    let mut demonstrated = false;
    for budget_kb in [1, 2, 4, 8, 16, 32, 64] {
        let device = Device::with_memory_budget(budget_kb * 1024);
        let full = MaxCliqueSolver::new(device.clone())
            .heuristic(HeuristicKind::None)
            .solve(&graph);
        if full.is_ok() {
            continue;
        }
        // Full BFS is OOM at this budget; a small-window find-one run must
        // fit and agree.
        let windowed = MaxCliqueSolver::new(device)
            .heuristic(HeuristicKind::None)
            .windowed(WindowConfig::with_size(32))
            .solve(&graph);
        if let Ok(result) = windowed {
            assert_eq!(result.clique_number, omega);
            assert!(cliques.contains(&result.cliques[0]));
            demonstrated = true;
            break;
        }
    }
    assert!(demonstrated, "windowing never rescued an OOM budget");
}

#[test]
fn smaller_windows_use_less_peak_memory() {
    let graph = generators::gnp(200, 0.2, 5);
    let mut previous_peak = usize::MAX;
    for size in [usize::MAX / 2, 4096, 256, 16] {
        let device = Device::unlimited();
        let result = MaxCliqueSolver::new(device)
            .heuristic(HeuristicKind::MultiDegree)
            .windowed(WindowConfig::with_size(size))
            .solve(&graph)
            .unwrap();
        let peak = result.stats.window.unwrap().peak_window_bytes;
        assert!(
            peak <= previous_peak,
            "window {size}: peak {peak} exceeds larger window's {previous_peak}"
        );
        previous_peak = peak;
    }
}

#[test]
fn windowed_peak_is_below_full_bfs_peak() {
    let graph = generators::gnp(250, 0.15, 6);
    let full = MaxCliqueSolver::new(Device::unlimited())
        .solve(&graph)
        .unwrap();
    let windowed = MaxCliqueSolver::new(Device::unlimited())
        .windowed(WindowConfig::with_size(64))
        .solve(&graph)
        .unwrap();
    let windowed_peak = windowed.stats.window.unwrap().peak_window_bytes;
    assert!(
        windowed_peak < full.stats.peak_device_bytes,
        "windowed {windowed_peak} vs full {}",
        full.stats.peak_device_bytes
    );
    assert_eq!(windowed.clique_number, full.clique_number);
}

#[test]
fn bound_improvements_happen_across_windows() {
    // With no heuristic, the incumbent starts empty and must improve at
    // least once while windows are processed.
    let graph = generators::gnp(120, 0.15, 7);
    let result = MaxCliqueSolver::new(Device::unlimited())
        .heuristic(HeuristicKind::None)
        .windowed(WindowConfig::with_size(16))
        .solve(&graph)
        .unwrap();
    let stats = result.stats.window.unwrap();
    assert!(stats.bound_improvements >= 1);
    assert!(stats.num_windows > 1);
}

#[test]
fn peak_memory_statistic_reflects_level_growth() {
    // On a complete graph the clique list peaks at the widest binomial
    // level; the recorded peak must be at least that volume.
    let graph = generators::complete(16);
    let result = MaxCliqueSolver::new(Device::unlimited())
        .heuristic(HeuristicKind::None)
        .early_exit(false)
        .solve(&graph)
        .unwrap();
    let widest = result.stats.level_entries.iter().max().copied().unwrap();
    assert!(result.stats.peak_device_bytes >= widest * 8);
}

#[test]
fn heuristic_phase_oom_is_reported() {
    // A budget so small that even the heuristic's per-entry flags fail.
    let graph = generators::gnp(200, 0.2, 8);
    let device = Device::with_memory_budget(128);
    let result = MaxCliqueSolver::new(device)
        .heuristic(HeuristicKind::MultiDegree)
        .solve(&graph);
    assert!(matches!(result, Err(SolveError::DeviceOom(_))));
}

// ---------------------------------------------------------------------------
// Fault injection: the recovery ladder must never change answers.
// ---------------------------------------------------------------------------

use gmc_dpp::prop::{self, gens, shrinks, Config};
use gmc_dpp::{prop_assert_eq, Rng};
use gpu_max_clique::graph::Csr;
use gpu_max_clique::mce::{LocalBitsMode, SolverConfig};
use gpu_max_clique::prelude::FaultPlan;

/// A fault-injection case: a G(28, 0.25) edge list plus the fault-plan
/// seed. Shrinking drops edges; the fault seed is replayed unchanged so the
/// injected fault sequence stays the one that failed.
type FaultCase = (Vec<(u32, u32)>, u64);

fn arb_fault_case(rng: &mut Rng) -> FaultCase {
    (gens::edges_gnp(rng, 28, 0.25), rng.next_u64())
}

fn fault_prop_config(cases: u32) -> Config {
    let mut config = Config {
        cases,
        seed: 0xFA17_CA5E,
        max_shrink_steps: 64,
    };
    if let Ok(v) = std::env::var("GMC_PROP_CASES") {
        if let Ok(n) = v.parse() {
            config.cases = n;
        }
    }
    config
}

/// Gentle rates with a deep retry cap: faults fire on most cases, yet the
/// chance of blowing through 32 whole-expansion retries is negligible. The
/// roll sequence depends only on the plan seed and launch order — launches
/// are bulk-synchronous and sequential — so outcomes are worker-count
/// independent and every failure replays exactly.
fn gentle_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        alloc_rate: 0.02,
        launch_rate: 0.02,
        max_retries: 32,
    }
}

#[test]
fn prop_faulted_solves_match_fault_free_across_workers_and_oracles() {
    prop::check_with(
        fault_prop_config(10),
        "faulted_solves_match_fault_free",
        arb_fault_case,
        shrinks::pair(shrinks::edges, shrinks::none),
        |case| {
            let (edges, fault_seed) = case;
            let graph = Csr::from_edges(28, edges);
            // Both probe sources: the CSR walk and the core bitmap.
            for local_bits in [LocalBitsMode::Off, LocalBitsMode::On] {
                for workers in [1usize, 2, 8] {
                    let baseline_config = SolverConfig {
                        faults: None, // never inherit GMC_FAULTS
                        local_bits,
                        ..SolverConfig::default()
                    };
                    let baseline = MaxCliqueSolver::with_config(
                        Device::new(workers, usize::MAX),
                        baseline_config.clone(),
                    )
                    .solve(&graph)
                    .map_err(|e| format!("fault-free solve failed: {e}"))?;

                    let mut faulted_config = baseline_config;
                    faulted_config.faults = Some(gentle_plan(*fault_seed));
                    let device = Device::new(workers, usize::MAX);
                    let faulted = MaxCliqueSolver::with_config(device.clone(), faulted_config)
                        .solve(&graph)
                        .map_err(|e| {
                            format!("faulted solve failed ({local_bits}, workers {workers}): {e}")
                        })?;

                    prop_assert_eq!(faulted.clique_number, baseline.clique_number);
                    prop_assert_eq!(&faulted.cliques, &baseline.cliques);
                    prop_assert_eq!(faulted.complete_enumeration, baseline.complete_enumeration);
                    let f = faulted.stats.faults;
                    prop_assert_eq!(f.recovered(), f.injected());
                    prop_assert_eq!(device.memory().live(), 0);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn prop_faulted_windowed_solves_match_fault_free() {
    // Same property through the windowed path: rung 2 of the recovery
    // ladder (per-window retry, then shrink at a sublist boundary) must
    // also be answer-preserving. Tiny windows force many of them.
    prop::check_with(
        fault_prop_config(8),
        "faulted_windowed_solves_match_fault_free",
        arb_fault_case,
        shrinks::pair(shrinks::edges, shrinks::none),
        |case| {
            let (edges, fault_seed) = case;
            let graph = Csr::from_edges(28, edges);
            let baseline_config = SolverConfig {
                faults: None, // never inherit GMC_FAULTS
                window: Some(WindowConfig {
                    enumerate_all: true,
                    ..WindowConfig::with_size(8)
                }),
                ..SolverConfig::default()
            };
            let baseline =
                MaxCliqueSolver::with_config(Device::new(2, usize::MAX), baseline_config.clone())
                    .solve(&graph)
                    .map_err(|e| format!("fault-free windowed solve failed: {e}"))?;

            let mut faulted_config = baseline_config;
            faulted_config.faults = Some(gentle_plan(*fault_seed));
            let device = Device::new(2, usize::MAX);
            let faulted = MaxCliqueSolver::with_config(device.clone(), faulted_config)
                .solve(&graph)
                .map_err(|e| format!("faulted windowed solve failed: {e}"))?;

            prop_assert_eq!(faulted.clique_number, baseline.clique_number);
            prop_assert_eq!(&faulted.cliques, &baseline.cliques);
            let f = faulted.stats.faults;
            prop_assert_eq!(f.recovered(), f.injected());
            prop_assert_eq!(device.memory().live(), 0);
            Ok(())
        },
    );
}

#[test]
fn exhausting_the_fault_retry_cap_is_a_typed_error_not_a_panic() {
    // With alloc_rate = 1.0 every expansion attempt faults on its first
    // charge, so the solver burns max_retries + 1 attempts and must
    // surface the typed error — leaving no live memory behind.
    let graph = generators::gnp(60, 0.3, 9);
    let device = Device::unlimited();
    let config = SolverConfig {
        faults: Some(FaultPlan {
            seed: 1,
            alloc_rate: 1.0,
            launch_rate: 0.0,
            max_retries: 2,
        }),
        ..SolverConfig::default()
    };
    let err = MaxCliqueSolver::with_config(device.clone(), config)
        .solve(&graph)
        .unwrap_err();
    let SolveError::FaultRetriesExhausted { attempts } = err else {
        panic!("expected FaultRetriesExhausted, got {err:?}");
    };
    assert_eq!(attempts, 3);
    assert_eq!(device.memory().live(), 0);
}

#[test]
fn exhausting_launch_fault_retries_is_also_typed() {
    let graph = generators::gnp(60, 0.3, 10);
    let device = Device::unlimited();
    let config = SolverConfig {
        faults: Some(FaultPlan {
            seed: 2,
            alloc_rate: 0.0,
            launch_rate: 1.0,
            max_retries: 1,
        }),
        ..SolverConfig::default()
    };
    let err = MaxCliqueSolver::with_config(device.clone(), config)
        .solve(&graph)
        .unwrap_err();
    assert!(
        matches!(err, SolveError::FaultRetriesExhausted { attempts: 2 }),
        "expected FaultRetriesExhausted with 2 attempts, got {err:?}"
    );
    assert_eq!(device.memory().live(), 0);
}
