//! Chaos suite: solves under deterministic fault injection must produce
//! bit-identical clique output to fault-free runs, recover every injected
//! fault exactly once, and leave no live device memory behind.
//!
//! The CI `chaos-matrix` job runs this suite across a seed × fault-mix
//! matrix by exporting `GMC_FAULTS`; when the variable is unset (local
//! runs) a built-in trio of plans covering alloc-only, launch-only and
//! mixed faults is exercised instead. Either way the suite fails if no
//! fault was ever injected — a chaos run that injects nothing proves
//! nothing.

use gpu_max_clique::corpus::{corpus, Tier};
use gpu_max_clique::dpp::{CancelToken, DeviceError};
use gpu_max_clique::graph::{generators, CoreBitmap};
use gpu_max_clique::mce::{LocalBitsMode, MaxCliqueSolver, SolveError, SolverConfig, WindowConfig};
use gpu_max_clique::prelude::{Device, FaultPlan};

/// Plans used when `GMC_FAULTS` is unset. Rates are chosen so the smoke
/// datasets inject plenty of faults while staying far inside the retry
/// budget; the roll sequence is a pure function of (seed, step), so each
/// plan replays identically on every run and worker count.
const DEFAULT_PLANS: &[&str] = &[
    "seed=1,alloc=0.03,retries=64",
    "seed=2,launch=0.03,retries=64",
    "seed=3,alloc=0.02,launch=0.02,retries=64",
];

fn plans() -> Vec<FaultPlan> {
    match FaultPlan::from_env() {
        Some(plan) => vec![plan],
        None => DEFAULT_PLANS
            .iter()
            .map(|s| s.parse().expect("built-in plan parses"))
            .collect(),
    }
}

/// Every third smoke dataset: enough shape diversity to hit all three
/// recovery rungs while keeping the matrixed CI job fast.
fn chaos_datasets() -> impl Iterator<Item = gpu_max_clique::corpus::DatasetSpec> {
    corpus(Tier::Smoke).into_iter().step_by(3)
}

fn fault_free(mut config: SolverConfig) -> SolverConfig {
    config.faults = None; // never inherit GMC_FAULTS into the baseline
    config
}

#[test]
fn faulted_full_bfs_solves_are_bit_identical_to_fault_free() {
    let mut total_injected = 0u64;
    for plan in plans() {
        assert!(plan.is_active(), "chaos plan {plan} injects nothing");
        for spec in chaos_datasets() {
            let graph = spec.load();
            let baseline_config = fault_free(SolverConfig::default());
            let baseline =
                MaxCliqueSolver::with_config(Device::unlimited(), baseline_config.clone())
                    .solve(&graph)
                    .expect("fault-free solve succeeds");

            // Full BFS recovers a launch fault only by restarting the whole
            // expansion (rung 3), so the sustainable per-roll rate scales
            // inversely with the rolls per attempt — which spans orders of
            // magnitude across datasets. Probe with rates too small to ever
            // fire: `steps` then counts exactly the roll sites one clean
            // expansion passes, and capping the plan's rates at ~1.5
            // expected faults per attempt keeps retry convergence certain
            // while the seed and alloc/launch mix still vary per matrix
            // cell.
            let mut probe_config = baseline_config.clone();
            probe_config.faults = Some(FaultPlan {
                seed: plan.seed,
                alloc_rate: if plan.alloc_rate > 0.0 { 1e-12 } else { 0.0 },
                launch_rate: if plan.launch_rate > 0.0 { 1e-12 } else { 0.0 },
                max_retries: 8,
            });
            let probe = MaxCliqueSolver::with_config(Device::unlimited(), probe_config)
                .solve(&graph)
                .expect("probe solve succeeds");
            let rolls = probe.stats.faults.steps.max(1) as f64;
            let scaled = FaultPlan {
                seed: plan.seed,
                alloc_rate: plan.alloc_rate.min(1.5 / rolls),
                launch_rate: plan.launch_rate.min(1.5 / rolls),
                max_retries: plan.max_retries.max(64),
            };

            let mut config = baseline_config;
            config.faults = Some(scaled);
            let device = Device::unlimited();
            let faulted = MaxCliqueSolver::with_config(device.clone(), config)
                .solve(&graph)
                .unwrap_or_else(|e| {
                    panic!("{}: faulted solve failed under {plan}: {e}", spec.name)
                });

            assert_eq!(
                faulted.clique_number, baseline.clique_number,
                "{}: clique number diverged under {plan}",
                spec.name
            );
            assert_eq!(
                faulted.cliques, baseline.cliques,
                "{}: clique set diverged under {plan}",
                spec.name
            );
            assert_eq!(
                faulted.complete_enumeration, baseline.complete_enumeration,
                "{}",
                spec.name
            );

            let f = faulted.stats.faults;
            assert_eq!(
                f.recovered(),
                f.injected(),
                "{}: recovery count must match injected count exactly: {f:?}",
                spec.name
            );
            assert_eq!(device.memory().live(), 0, "{}: leaked memory", spec.name);
            total_injected += f.injected();
        }
    }
    assert!(
        total_injected > 0,
        "chaos suite injected zero faults — the matrix is not testing recovery"
    );
}

#[test]
fn faulted_windowed_solves_are_bit_identical_to_fault_free() {
    // The windowed path exercises rung 2 of the ladder: per-window retry
    // with arena release, then shrinking the window at a sublist boundary.
    let mut total_injected = 0u64;
    let mut total_window_recoveries = 0usize;
    for plan in plans() {
        for spec in chaos_datasets() {
            let graph = spec.load();
            let mut baseline_config = fault_free(SolverConfig::default());
            baseline_config.window = Some(WindowConfig {
                enumerate_all: true,
                ..WindowConfig::with_size(256)
            });
            let baseline =
                MaxCliqueSolver::with_config(Device::unlimited(), baseline_config.clone())
                    .solve(&graph)
                    .expect("fault-free windowed solve succeeds");

            let mut config = baseline_config;
            config.faults = Some(plan);
            let device = Device::unlimited();
            let faulted = MaxCliqueSolver::with_config(device.clone(), config)
                .solve(&graph)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: faulted windowed solve failed under {plan}: {e}",
                        spec.name
                    )
                });

            assert_eq!(
                faulted.clique_number, baseline.clique_number,
                "{}: windowed clique number diverged under {plan}",
                spec.name
            );
            assert_eq!(
                faulted.cliques, baseline.cliques,
                "{}: windowed clique set diverged under {plan}",
                spec.name
            );

            let f = faulted.stats.faults;
            assert_eq!(f.recovered(), f.injected(), "{}: {f:?}", spec.name);
            assert_eq!(device.memory().live(), 0, "{}: leaked memory", spec.name);
            total_injected += f.injected();
            if let Some(w) = &faulted.stats.window {
                total_window_recoveries += w.fault_retries + w.fault_shrinks;
            }
        }
    }
    assert!(
        total_injected > 0,
        "windowed chaos run injected zero faults"
    );
    // At least some faults must have been absorbed inside the window loop
    // (rung 2), not just by whole-expansion restarts (rung 3).
    assert!(
        total_window_recoveries > 0,
        "no fault was ever recovered at the window level"
    );
}

#[test]
fn fault_stats_are_reported_per_plan() {
    // A dense-ish plan on one dataset: the stats block must show nonzero
    // injection and exact recovery, proving the counters are plumbed
    // through `SolveStats` and not just internally consistent.
    let spec = chaos_datasets().next().expect("smoke corpus is non-empty");
    let graph = spec.load();
    let mut config = fault_free(SolverConfig::default());
    config.faults = Some(
        "seed=7,alloc=0.05,launch=0.05,retries=128"
            .parse()
            .expect("plan parses"),
    );
    let result = MaxCliqueSolver::with_config(Device::unlimited(), config)
        .solve(&graph)
        .expect("faulted solve succeeds");
    let f = result.stats.faults;
    assert!(f.injected() > 0, "no faults injected at 5% rates: {f:?}");
    assert_eq!(f.recovered(), f.injected(), "{f:?}");
}

#[test]
fn injected_oom_during_persistent_bitmap_build_degrades_to_scalar() {
    // Rung zero of the ladder: an injected alloc fault while charging or
    // building the solve-lifetime core bitmap must drop that solve to the
    // scalar walk — same cliques, no abort, no retry storm — and the
    // fallback must be book-kept as a recovery so the exact-recovery
    // invariant still holds. The roll sequence is a pure function of
    // (seed, step), so sweeping seeds deterministically lands some runs
    // on the bitmap charge roll and leaves others clean.
    let base = generators::gnp(150, 0.2, 11);
    let mut config = fault_free(SolverConfig::default());
    config.local_bits = LocalBitsMode::On;
    let baseline = MaxCliqueSolver::with_config(Device::unlimited(), config.clone())
        .solve(&base)
        .expect("fault-free core-bitmap solve succeeds");
    assert!(
        baseline.stats.local_bits.persistent_bytes > 0,
        "baseline must actually hold a core bitmap"
    );

    let mut bitmap_faults = 0u64;
    let mut finished_scalar = 0u32;
    for seed in 1..=20 {
        let mut faulted_config = config.clone();
        faulted_config.faults = Some(FaultPlan {
            seed,
            alloc_rate: 0.15,
            launch_rate: 0.0,
            max_retries: 512,
        });
        let device = Device::unlimited();
        let faulted = MaxCliqueSolver::with_config(device.clone(), faulted_config)
            .solve(&base)
            .unwrap_or_else(|e| panic!("seed {seed}: bitmap fault must degrade, not abort: {e}"));
        assert_eq!(faulted.cliques, baseline.cliques, "seed {seed}");
        assert_eq!(faulted.clique_number, baseline.clique_number, "seed {seed}");
        let f = faulted.stats.faults;
        assert_eq!(f.recovered(), f.injected(), "seed {seed}: {f:?}");
        assert_eq!(device.memory().live(), 0, "seed {seed}: leaked memory");
        bitmap_faults += f.bitmap_fallbacks;
        // A run whose *final* attempt degraded finishes the whole solve on
        // the scalar walk: the stats show no resident bitmap bytes.
        if f.bitmap_fallbacks > 0 && faulted.stats.local_bits.persistent_bytes == 0 {
            finished_scalar += 1;
        }
    }
    assert!(
        bitmap_faults > 0,
        "no seed ever faulted the core bitmap build — rates too low to test rung zero"
    );
    assert!(
        finished_scalar > 0,
        "no solve ever finished on the scalar walk after a bitmap fault"
    );
}

#[test]
fn cancellation_mid_bitmap_build_releases_every_charge() {
    // Device level, mirroring the solver's charge-then-build flow: the
    // footprint is charged first, then the build launches observe the
    // token. Cancellation mid-build must surface `Cancelled` (never the
    // degrade path) and dropping the guard must return memory to zero.
    let graph = generators::gnp(80, 0.2, 21);
    let device = Device::new(2, 64 << 20);
    let keep = vec![true; graph.num_vertices()];
    let footprint = CoreBitmap::footprint_for(graph.num_vertices(), graph.num_vertices());
    let guard = device
        .memory()
        .try_charge(footprint)
        .expect("bitmap footprint fits the partition");
    let token = CancelToken::new();
    device.set_cancel_token(Some(token.clone()));
    token.cancel();
    match CoreBitmap::try_build(device.exec(), &graph, &keep) {
        Err(DeviceError::Cancelled(_)) => {}
        Err(other) => panic!("cancelled build must surface Cancelled, got: {other}"),
        Ok(_) => panic!("cancelled build must not succeed"),
    }
    drop(guard);
    assert_eq!(
        device.memory().live(),
        0,
        "cancelled bitmap build left device memory charged"
    );

    // Solver level: a deadline that has already passed cancels the solve
    // wherever the next check lands — before, during, or after the bitmap
    // build — and every byte (bitmap included) must be released.
    device.set_cancel_token(Some(CancelToken::with_deadline(std::time::Instant::now())));
    let mut config = fault_free(SolverConfig::default());
    config.local_bits = LocalBitsMode::On;
    match MaxCliqueSolver::with_config(device.clone(), config.clone()).solve(&graph) {
        Err(SolveError::Cancelled(_)) => {}
        Err(other) => panic!("expired deadline must surface Cancelled, got: {other}"),
        Ok(_) => panic!("a deadline in the past must cancel the solve"),
    }
    assert_eq!(
        device.memory().live(),
        0,
        "cancelled core-bitmap solve left device memory charged"
    );

    // And with the token cleared the same device solves normally, holding
    // (then releasing) a real core bitmap.
    device.set_cancel_token(None);
    let done = MaxCliqueSolver::with_config(device.clone(), config)
        .solve(&graph)
        .expect("solve succeeds once the token is cleared");
    assert!(done.stats.local_bits.persistent_bytes > 0);
    assert_eq!(device.memory().live(), 0);
}
