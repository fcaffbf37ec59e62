//! Integration suite for the solve service: fingerprint soundness, cache
//! hit≡miss bit-identity, cancellation hygiene, backpressure under
//! saturation, and the admission verdicts end to end.

use gmc_dpp::{CancelToken, Device, DeviceMemory, Executor, FaultPlan, Tracer};
use gmc_graph::generators;
use gmc_heuristic::HeuristicKind;
use gmc_mce::{
    CandidateOrder, LocalBitsMode, MaxCliqueSolver, OrientationRule, SolveError, SolverConfig,
    SublistBound, WindowConfig, WindowOrdering,
};
use gmc_serve::{
    config_fingerprint, loadgen, LoadConfig, ServeConfig, ServeError, SolveJob, SolveService,
};
use std::sync::Arc;
use std::time::Instant;

/// A config with every environment-sensitive knob pinned, so fingerprint
/// comparisons do not depend on `GMC_*` variables set by CI ablation jobs.
fn pinned_config() -> SolverConfig {
    SolverConfig {
        local_bits: LocalBitsMode::Auto,
        faults: None,
        ..SolverConfig::default()
    }
}

/// A named knob mutation for the fingerprint property tests.
type Mutation<'a> = (&'a str, Box<dyn Fn(&mut SolverConfig)>);

#[test]
fn fingerprint_flips_on_every_result_affecting_knob() {
    let base = pinned_config();
    let base_fp = config_fingerprint(&base);

    // One mutation per result-affecting knob; each must change the key.
    let mutations: Vec<Mutation> = vec![
        ("heuristic", Box::new(|c| c.heuristic = HeuristicKind::None)),
        ("heuristic_seeds", Box::new(|c| c.heuristic_seeds = Some(4))),
        (
            "orientation",
            Box::new(|c| c.orientation = OrientationRule::Index),
        ),
        (
            "candidate_order",
            Box::new(|c| c.candidate_order = CandidateOrder::Index),
        ),
        (
            "sublist_bound",
            Box::new(|c| c.sublist_bound = SublistBound::Coloring),
        ),
        ("polish_witness", Box::new(|c| c.polish_witness = true)),
        (
            "window presence",
            Box::new(|c| c.window = Some(WindowConfig::default())),
        ),
        ("early_exit", Box::new(|c| c.early_exit = false)),
        ("fused", Box::new(|c| c.fused = false)),
        ("local_bits", Box::new(|c| c.local_bits = LocalBitsMode::On)),
    ];
    for (name, mutate) in &mutations {
        let mut config = pinned_config();
        mutate(&mut config);
        assert_ne!(
            config_fingerprint(&config),
            base_fp,
            "mutating `{name}` must change the config fingerprint"
        );
    }

    // Every window field is part of the key once a window is present.
    let windowed = |f: &dyn Fn(&mut WindowConfig)| {
        let mut config = pinned_config();
        let mut w = WindowConfig::default();
        f(&mut w);
        config.window = Some(w);
        config_fingerprint(&config)
    };
    let window_base = windowed(&|_| {});
    assert_ne!(windowed(&|w| w.size = 1024), window_base, "window.size");
    assert_ne!(
        windowed(&|w| w.ordering = WindowOrdering::DegreeDescending),
        window_base,
        "window.ordering"
    );
    assert_ne!(
        windowed(&|w| w.enumerate_all = true),
        window_base,
        "window.enumerate_all"
    );
    assert_ne!(
        windowed(&|w| w.max_depth = 3),
        window_base,
        "window.max_depth"
    );

    // Result-invariant knobs must NOT change the key: a job solved under a
    // different fault plan or tracer hits the same cache entry.
    let mut config = pinned_config();
    config.faults = Some(FaultPlan {
        seed: 7,
        alloc_rate: 0.05,
        launch_rate: 0.05,
        max_retries: 8,
    });
    assert_eq!(config_fingerprint(&config), base_fp, "faults are excluded");
    let mut config = pinned_config();
    config.trace = Tracer::disabled();
    assert_eq!(config_fingerprint(&config), base_fp, "trace is excluded");
}

#[test]
fn served_results_are_bit_identical_for_hits_and_misses() {
    let service = SolveService::start(ServeConfig::default().pool(2).queue_depth(8));
    let load = LoadConfig {
        unique: 4,
        repeats: 8,
        deadline_jobs: 2,
        vertices: 100,
        edge_probability: 0.15,
        seed: 7,
    };
    let report = loadgen::run(&service, &load);
    assert!(report.bit_identical, "hits and misses must match solve()");
    assert_eq!(report.cache_hits, 8, "every replay draw is a hit");
    assert_eq!(report.cache_misses, 4 + 2, "uniques + sentinels all miss");
    assert_eq!(report.cancellations, 2, "every sentinel cancels");
    assert!(report.hit_rate() >= 0.4, "hit rate {}", report.hit_rate());

    let stats = service.shutdown();
    assert_eq!(stats.submitted, report.total_jobs);
    assert_eq!(stats.completed, report.total_jobs);
    assert_eq!(stats.cache_hits, report.cache_hits);
    assert_eq!(stats.cache_misses, report.cache_misses);
    assert_eq!(stats.cancellations, 2);
    assert_eq!(stats.queue_wait.count(), report.total_jobs);
    assert!(stats.launches > 0, "misses went through the executor");
}

#[test]
fn deadline_cancellation_releases_memory_and_does_not_poison_the_device() {
    // Direct device-level hygiene check: a windowed solve cancelled at a
    // window boundary must leave zero live device bytes and a reusable
    // executor behind.
    let graph = generators::gnp(150, 0.2, 11);
    let mut config = pinned_config();
    config.window = Some(WindowConfig::with_size(256).recursive(2));
    config.window.as_mut().unwrap().enumerate_all = true;

    let device = Device::from_parts(Executor::new(2), DeviceMemory::new(64 << 20));
    device.set_cancel_token(Some(CancelToken::with_deadline(Instant::now())));
    let err = MaxCliqueSolver::with_config(device.clone(), config.clone())
        .solve(&graph)
        .expect_err("a past-deadline solve must cancel");
    match err {
        SolveError::Cancelled(cancelled) => assert!(cancelled.deadline_exceeded),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(
        device.memory().live(),
        0,
        "cancellation must release every device charge"
    );

    // Same device, token removed: the next solve must succeed and match a
    // fresh device bit for bit — cancellation left no poisoned state.
    device.set_cancel_token(None);
    let after = MaxCliqueSolver::with_config(device.clone(), config.clone())
        .solve(&graph)
        .expect("the slot must be reusable after a cancellation");
    let reference = MaxCliqueSolver::with_config(Device::unlimited(), config)
        .solve(&graph)
        .unwrap();
    assert_eq!(after.clique_number, reference.clique_number);
    assert_eq!(after.cliques, reference.cliques);
    assert_eq!(device.memory().live(), 0);
}

#[test]
fn cancelled_job_does_not_poison_the_slot_for_the_next_job() {
    // Pool of one: the sentinel and the follow-up job share one executor
    // slot, so a leak or stale token would corrupt the second solve.
    let service = SolveService::start(ServeConfig::default().pool(1).queue_depth(4));
    let graph = Arc::new(generators::gnp(120, 0.15, 3));

    let sentinel = service
        .submit(
            SolveJob::new(Arc::clone(&graph))
                .config(pinned_config())
                .deadline(Instant::now()),
        )
        .unwrap();
    match sentinel.wait() {
        Err(ServeError::Solve(SolveError::Cancelled(c))) => assert!(c.deadline_exceeded),
        other => panic!("expected cancellation, got {other:?}"),
    }

    let follow_up = service
        .submit(SolveJob::new(Arc::clone(&graph)).config(pinned_config()))
        .unwrap();
    let served = follow_up.wait().expect("slot must survive a cancellation");
    assert!(!served.cache_hit, "the cancelled job must not have cached");
    let reference = MaxCliqueSolver::with_config(Device::unlimited(), pinned_config())
        .solve(&graph)
        .unwrap();
    assert_eq!(served.solve.clique_number, reference.clique_number);
    assert_eq!(served.solve.cliques, reference.cliques);

    let stats = service.shutdown();
    assert_eq!(stats.cancellations, 1);
    assert_eq!(stats.completed, 2);
}

#[test]
fn backpressure_at_four_times_saturation_completes_without_deadlock() {
    let service = Arc::new(SolveService::start(
        ServeConfig::default().pool(2).queue_depth(4),
    ));
    // 4× the queue depth beyond what the pool drains instantly: blocking
    // submits must stall and resume rather than drop or deadlock.
    let jobs = 4 * 4 + 4;
    let graphs: Vec<_> = (0..4)
        .map(|i| Arc::new(generators::gnp(80, 0.15, 100 + i)))
        .collect();
    let producer = {
        let service = Arc::clone(&service);
        let graphs = graphs.clone();
        std::thread::spawn(move || {
            (0..jobs)
                .map(|i| {
                    service
                        .submit(
                            SolveJob::new(Arc::clone(&graphs[i % graphs.len()]))
                                .config(pinned_config())
                                .priority((i % 3) as u8),
                        )
                        .expect("blocking submit must not fail while open")
                })
                .collect::<Vec<_>>()
        })
    };
    let handles = producer.join().unwrap();
    assert_eq!(handles.len(), jobs);
    for handle in handles {
        handle.wait().expect("every accepted job completes");
    }
    let stats = Arc::try_unwrap(service)
        .ok()
        .expect("all clones dropped")
        .shutdown();
    assert_eq!(stats.submitted, jobs as u64);
    assert_eq!(stats.completed, jobs as u64);
    // 4 unique keys over 20 jobs: at least the 16 repeats can hit, though
    // racing misses on the same key may lower it; the floor is the point.
    assert!(stats.cache_hits + stats.cache_misses == jobs as u64);
}

#[test]
fn admission_rejects_and_down_windows_through_the_service() {
    let graph = Arc::new(generators::gnp(200, 0.3, 5));
    let floor = gmc_serve::two_clique_bytes(&graph);

    // Partition below even a windowed working set: typed rejection, and
    // the slot served it without ever charging device memory.
    let service = SolveService::start(ServeConfig::default().pool(1).device_bytes(4096));
    let handle = service
        .submit(SolveJob::new(Arc::clone(&graph)).config(pinned_config()))
        .unwrap();
    match handle.wait() {
        Err(ServeError::Rejected {
            estimated_bytes,
            partition_bytes,
        }) => {
            assert!(estimated_bytes > partition_bytes);
            assert_eq!(partition_bytes, 4096);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejections, 1);

    // Partition that fits a window but not the full solve: the job is
    // down-windowed and still bit-identical to the unconstrained solve.
    let service = SolveService::start(
        ServeConfig::default()
            .pool(1)
            .device_bytes(floor * 4 + (64 << 10)),
    );
    let handle = service
        .submit(SolveJob::new(Arc::clone(&graph)).config(pinned_config()))
        .unwrap();
    let served = handle.wait().expect("down-windowed solve must succeed");
    assert!(
        served.down_windowed,
        "admission must have rewritten the job"
    );
    let reference = MaxCliqueSolver::with_config(Device::unlimited(), pinned_config())
        .solve(&graph)
        .unwrap();
    assert_eq!(served.solve.clique_number, reference.clique_number);
    assert_eq!(served.solve.cliques, reference.cliques);
    assert!(served.solve.complete_enumeration);

    // A repeat of the same job hits the cache under the *submitted*
    // fingerprint even though it ran windowed.
    let repeat = service
        .submit(SolveJob::new(Arc::clone(&graph)).config(pinned_config()))
        .unwrap();
    let served = repeat.wait().unwrap();
    assert!(served.cache_hit);
    let stats = service.shutdown();
    assert_eq!(stats.down_windows, 1);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn persistent_bitmap_oversize_is_demoted_not_rejected_through_the_service() {
    let graph = Arc::new(generators::gnp(200, 0.3, 5));
    let mut config = pinned_config();
    config.local_bits = LocalBitsMode::On;

    // Size the partition so the full solve fits but the core bitmap's
    // pre-charge pushes past it: admission must demote the job to the
    // scalar walk instead of rejecting.
    let degeneracy = gmc_graph::kcore::degeneracy(&graph);
    let full = gmc_serve::full_solve_estimate(&graph, degeneracy);
    let bitmap = gmc_serve::core_bitmap_bytes(&graph, &config, usize::MAX - 1);
    assert!(bitmap > 0, "forced-on jobs always charge the bitmap");

    let service = SolveService::start(
        ServeConfig::default()
            .pool(1)
            .device_bytes(full + bitmap / 2),
    );
    let handle = service
        .submit(SolveJob::new(Arc::clone(&graph)).config(config.clone()))
        .unwrap();
    let served = handle.wait().expect("demoted solve must succeed");
    assert!(!served.down_windowed, "demotion is not a window rewrite");

    // The scalar walk is bit-identical to an unconstrained forced-on
    // solve.
    let reference = MaxCliqueSolver::with_config(Device::unlimited(), config)
        .solve(&graph)
        .unwrap();
    assert_eq!(served.solve.clique_number, reference.clique_number);
    assert_eq!(served.solve.cliques, reference.cliques);

    let stats = service.shutdown();
    assert_eq!(stats.bitmap_demotions, 1);
    assert_eq!(stats.rejections, 0);
    assert_eq!(stats.down_windows, 0);
}
