//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. Orientation by degree vs. index (§IV-C: degree orientation shortens
//!    sublists and improves the length cut).
//! 2. Candidate ordering within sublists: index vs. ascending degree
//!    (§IV-C final step: degree ordering moves missing-edge lookups earlier).
//! 3. Window source ordering: index / ascending / descending degree /
//!    random (§V-C1: descending costs the most memory; ascending ≈ random).
//! 4. Early exit on/off (Algorithm 2 line 36).
//! 5. Multi-run heuristic seed count h.
//! 6. Sublist bound: length (the paper's) vs greedy colouring (§II-B3's
//!    tighter alternative).
//! 7. Fused vs unfused expansion pipeline (record-and-replay bitmasks,
//!    bound-directed count walk, single-pass scan, arena scratch — vs the
//!    paper-literal count → scan → re-walk baseline).
//! 8. Core bitmap off / auto / on: the solve-lifetime adjacency bitmap's
//!    probe savings on the fused pipeline. This is also the comparison of
//!    edge-membership structures (§III-3): a solve probes the core bitmap
//!    or, with it off, the CSR by binary search.
//!
//! A representative cross-category slice of the corpus keeps the runtime
//! manageable.

use gmc_bench::impl_to_json;
use gmc_bench::{load_corpus, print_table, run_solver, save_json, BenchEnv, RunOutcome};
use gmc_heuristic::HeuristicKind;
use gmc_mce::{
    CandidateOrder, LocalBitsMode, OrientationRule, SolverConfig, SublistBound, WindowConfig,
    WindowOrdering,
};

struct AblationRecord {
    orientation: Vec<OrientationRow>,
    candidate_order: Vec<TimingRow>,
    window_ordering: Vec<WindowOrderRow>,
    early_exit: Vec<TimingRow>,
    fused_pipeline: Vec<FusedRow>,
    local_bits: Vec<LocalBitsRow>,
}

impl_to_json!(AblationRecord {
    orientation,
    candidate_order,
    window_ordering,
    early_exit,
    fused_pipeline,
    local_bits
});

struct LocalBitsRow {
    dataset: String,
    mode: String,
    ms: Option<f64>,
    queries: Option<u64>,
    probes_avoided: Option<u64>,
}

impl_to_json!(LocalBitsRow {
    dataset,
    mode,
    ms,
    queries,
    probes_avoided
});

struct FusedRow {
    dataset: String,
    fused_ms: Option<f64>,
    unfused_ms: Option<f64>,
    fused_queries: Option<u64>,
    unfused_queries: Option<u64>,
}

impl_to_json!(FusedRow {
    dataset,
    fused_ms,
    unfused_ms,
    fused_queries,
    unfused_queries
});

struct OrientationRow {
    dataset: String,
    degree_entries: usize,
    index_entries: usize,
    degree_ms: Option<f64>,
    index_ms: Option<f64>,
}

impl_to_json!(OrientationRow {
    dataset,
    degree_entries,
    index_entries,
    degree_ms,
    index_ms
});

struct TimingRow {
    dataset: String,
    variant_a: String,
    a_ms: Option<f64>,
    variant_b: String,
    b_ms: Option<f64>,
}

impl_to_json!(TimingRow {
    dataset,
    variant_a,
    a_ms,
    variant_b,
    b_ms
});

struct WindowOrderRow {
    dataset: String,
    ordering: String,
    peak_window_bytes: Option<usize>,
    ms: Option<f64>,
}

impl_to_json!(WindowOrderRow {
    dataset,
    ordering,
    peak_window_bytes,
    ms
});

fn main() {
    let env = BenchEnv::from_env();
    env.banner("Ablations: orientation, candidate order, window ordering, early exit");
    let all = load_corpus(&env);
    // Every 5th dataset gives a 12-dataset slice covering all categories.
    let slice: Vec<_> = all.into_iter().step_by(5).collect();

    // 1. Orientation rule.
    let mut orientation_rows = Vec::new();
    for d in &slice {
        let run = |rule: OrientationRule| {
            let device = env.device();
            let cfg = SolverConfig {
                heuristic: HeuristicKind::MultiDegree,
                orientation: rule,
                ..SolverConfig::default()
            };
            let (lb, setup) =
                gmc_mce::preview_setup(&env.unlimited_device(), &d.graph, &cfg).expect("preview");
            let _ = lb;
            let ms = match run_solver(&device, &d.graph, cfg).expect("runs") {
                RunOutcome::Solved(r) => Some(r.total_ms),
                RunOutcome::Oom => None,
            };
            (setup.initial_entries, ms)
        };
        let (degree_entries, degree_ms) = run(OrientationRule::Degree);
        let (index_entries, index_ms) = run(OrientationRule::Index);
        orientation_rows.push(OrientationRow {
            dataset: d.name().to_string(),
            degree_entries,
            index_entries,
            degree_ms,
            index_ms,
        });
    }
    println!("\n-- Orientation: degree vs index (surviving 2-clique entries) --");
    print_table(
        &[
            "Dataset",
            "Degree entries",
            "Index entries",
            "Degree ms",
            "Index ms",
        ],
        &orientation_rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.degree_entries.to_string(),
                    r.index_entries.to_string(),
                    fmt_ms(r.degree_ms),
                    fmt_ms(r.index_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // 2. Candidate ordering.
    let mut candidate_rows = Vec::new();
    for d in &slice {
        let time_with = |order: CandidateOrder| {
            let device = env.device();
            match run_solver(
                &device,
                &d.graph,
                SolverConfig {
                    heuristic: HeuristicKind::MultiDegree,
                    candidate_order: order,
                    ..SolverConfig::default()
                },
            )
            .expect("runs")
            {
                RunOutcome::Solved(r) => Some(r.total_ms),
                RunOutcome::Oom => None,
            }
        };
        candidate_rows.push(TimingRow {
            dataset: d.name().to_string(),
            variant_a: "degree-ascending".into(),
            a_ms: time_with(CandidateOrder::DegreeAscending),
            variant_b: "index".into(),
            b_ms: time_with(CandidateOrder::Index),
        });
    }
    println!("\n-- Candidate ordering within sublists --");
    print_timing(&candidate_rows);

    // 3. Window source ordering: memory is the paper's metric here.
    let mut window_rows = Vec::new();
    for d in &slice {
        for (name, ordering) in [
            ("index", WindowOrdering::Index),
            ("asc-degree", WindowOrdering::DegreeAscending),
            ("desc-degree", WindowOrdering::DegreeDescending),
            ("random", WindowOrdering::Random(7)),
        ] {
            let device = env.device();
            let outcome = run_solver(
                &device,
                &d.graph,
                SolverConfig {
                    heuristic: HeuristicKind::MultiDegree,
                    window: Some(WindowConfig {
                        size: 1024,
                        ordering,
                        enumerate_all: false,
                        ..WindowConfig::default()
                    }),
                    ..SolverConfig::default()
                },
            )
            .expect("runs");
            let (peak, ms) = match outcome {
                RunOutcome::Solved(r) => (Some(r.peak_bytes), Some(r.total_ms)),
                RunOutcome::Oom => (None, None),
            };
            window_rows.push(WindowOrderRow {
                dataset: d.name().to_string(),
                ordering: name.to_string(),
                peak_window_bytes: peak,
                ms,
            });
        }
    }
    println!("\n-- Window source ordering (peak bytes; paper: descending uses most) --");
    print_table(
        &["Dataset", "Ordering", "Peak bytes", "ms"],
        &window_rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.ordering.clone(),
                    r.peak_window_bytes.map_or("OOM".into(), |b| b.to_string()),
                    fmt_ms(r.ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // 4. Early exit.
    let mut early_rows = Vec::new();
    for d in &slice {
        let time_with = |enabled: bool| {
            let device = env.device();
            match run_solver(
                &device,
                &d.graph,
                SolverConfig {
                    heuristic: HeuristicKind::MultiDegree,
                    early_exit: enabled,
                    ..SolverConfig::default()
                },
            )
            .expect("runs")
            {
                RunOutcome::Solved(r) => Some(r.total_ms),
                RunOutcome::Oom => None,
            }
        };
        early_rows.push(TimingRow {
            dataset: d.name().to_string(),
            variant_a: "early-exit".into(),
            a_ms: time_with(true),
            variant_b: "run-to-empty".into(),
            b_ms: time_with(false),
        });
    }
    println!("\n-- Early exit (Algorithm 2 line 36) --");
    print_timing(&early_rows);

    // 5. Multi-run seed count h (the paper fixes h = |V|; this sweep shows
    // the accuracy/cost curve that choice sits on).
    let mut seed_rows: Vec<Vec<String>> = Vec::new();
    for d in slice.iter().step_by(3) {
        let n = d.graph.num_vertices();
        for h in [1usize, 16, 256, n] {
            let device = env.unlimited_device();
            let result = gmc_heuristic::run_heuristic(
                &device,
                &d.graph,
                HeuristicKind::MultiDegree,
                Some(h),
            )
            .expect("unlimited device");
            seed_rows.push(vec![
                d.name().to_string(),
                if h == n {
                    format!("{h} (=|V|)")
                } else {
                    h.to_string()
                },
                result.lower_bound().to_string(),
                format!("{:.2}", result.total_time.as_secs_f64() * 1e3),
            ]);
        }
    }
    println!("\n-- Multi-run heuristic seed count h (paper fixes h = |V|) --");
    print_table(&["Dataset", "h", "ω̄", "ms"], &seed_rows);

    // 6. Sublist bound: length vs colouring (pruned entries and time).
    let mut bound_rows: Vec<Vec<String>> = Vec::new();
    for d in slice.iter().step_by(2) {
        for (name, bound) in [
            ("length", SublistBound::Length),
            ("coloring", SublistBound::Coloring),
        ] {
            let cfg = SolverConfig {
                heuristic: HeuristicKind::MultiDegree,
                sublist_bound: bound,
                ..SolverConfig::default()
            };
            let (_, setup) =
                gmc_mce::preview_setup(&env.unlimited_device(), &d.graph, &cfg).expect("preview");
            let device = env.device();
            let ms = match run_solver(&device, &d.graph, cfg).expect("runs") {
                RunOutcome::Solved(r) => Some(r.total_ms),
                RunOutcome::Oom => None,
            };
            bound_rows.push(vec![
                d.name().to_string(),
                name.to_string(),
                setup.initial_entries.to_string(),
                fmt_ms(ms),
            ]);
        }
    }
    println!("\n-- Sublist bound: length vs greedy colouring (§II-B3) --");
    print_table(&["Dataset", "Bound", "Entries kept", "ms"], &bound_rows);

    // 7. Fused vs unfused expansion pipeline: wall time plus the query
    // counter that proves where the win comes from.
    let mut fused_rows = Vec::new();
    for d in &slice {
        let run = |fused: bool| {
            let device = env.device();
            match run_solver(
                &device,
                &d.graph,
                SolverConfig {
                    heuristic: HeuristicKind::MultiDegree,
                    fused,
                    ..SolverConfig::default()
                },
            )
            .expect("runs")
            {
                RunOutcome::Solved(r) => (Some(r.total_ms), Some(r.oracle_queries)),
                RunOutcome::Oom => (None, None),
            }
        };
        let (fused_ms, fused_queries) = run(true);
        let (unfused_ms, unfused_queries) = run(false);
        fused_rows.push(FusedRow {
            dataset: d.name().to_string(),
            fused_ms,
            unfused_ms,
            fused_queries,
            unfused_queries,
        });
    }
    println!("\n-- Expansion pipeline: fused (record/replay + bound-directed walk) vs unfused --");
    print_table(
        &[
            "Dataset",
            "Fused ms",
            "Unfused ms",
            "Fused queries",
            "Unfused queries",
        ],
        &fused_rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    fmt_ms(r.fused_ms),
                    fmt_ms(r.unfused_ms),
                    r.fused_queries.map_or("OOM".into(), |q| q.to_string()),
                    r.unfused_queries.map_or("OOM".into(), |q| q.to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // 8. Core bitmap: probe savings on the fused pipeline (DESIGN.md
    // §III-3).
    let mut local_bits_rows = Vec::new();
    for d in &slice {
        for (name, mode) in [
            ("off", LocalBitsMode::Off),
            ("auto", LocalBitsMode::Auto),
            ("on", LocalBitsMode::On),
        ] {
            let device = env.device();
            let outcome = run_solver(
                &device,
                &d.graph,
                SolverConfig {
                    heuristic: HeuristicKind::MultiDegree,
                    fused: true,
                    local_bits: mode,
                    ..SolverConfig::default()
                },
            )
            .expect("runs");
            let (ms, queries, probes_avoided) = match outcome {
                RunOutcome::Solved(r) => (
                    Some(r.total_ms),
                    Some(r.oracle_queries),
                    Some(r.bitmap_probes_avoided),
                ),
                RunOutcome::Oom => (None, None, None),
            };
            local_bits_rows.push(LocalBitsRow {
                dataset: d.name().to_string(),
                mode: name.to_string(),
                ms,
                queries,
                probes_avoided,
            });
        }
    }
    println!("\n-- Core bitmap: off / auto / on --");
    print_table(
        &["Dataset", "Mode", "ms", "Queries", "Avoided"],
        &local_bits_rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.mode.clone(),
                    fmt_ms(r.ms),
                    r.queries.map_or("OOM".into(), |q| q.to_string()),
                    r.probes_avoided.map_or("OOM".into(), |q| q.to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    save_json(
        &env,
        "ablations",
        &AblationRecord {
            orientation: orientation_rows,
            candidate_order: candidate_rows,
            window_ordering: window_rows,
            early_exit: early_rows,
            fused_pipeline: fused_rows,
            local_bits: local_bits_rows,
        },
    );
}

fn fmt_ms(ms: Option<f64>) -> String {
    ms.map_or("OOM".into(), |m| format!("{m:.1}"))
}

fn print_timing(rows: &[TimingRow]) {
    print_table(
        &["Dataset", "A", "A ms", "B", "B ms"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.variant_a.clone(),
                    fmt_ms(r.a_ms),
                    r.variant_b.clone(),
                    fmt_ms(r.b_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
