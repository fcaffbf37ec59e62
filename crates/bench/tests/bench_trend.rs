//! Counter-shape trend gate over the committed bench records.
//!
//! Re-parses `BENCH_fused.json`, `BENCH_corebits.json`,
//! `BENCH_schedule.json` and `BENCH_serve.json` with the in-tree
//! `gmc_bench::json` parser and re-runs the probe/query/decomposition
//! counter measurements. The gate fails when a current counter
//! *regresses* past a tolerance against its committed value —
//! deterministic counters, not wall-clock, so the gate is stable on any
//! CI machine. Run by the `bench-trend` CI step.

use gmc_bench::json::{self, Json};
use gmc_corpus::{by_name, Tier};
use gmc_dpp::{Device, Executor, Launch, Schedule};
use gmc_mce::{LocalBitsMode, MaxCliqueSolver};

/// A counter may regress by at most 10% against its committed value.
/// Improvements (fewer queries, fewer launches) always pass.
const TOLERANCE: f64 = 1.10;

/// Spot-checked datasets: the same per-category representatives the timed
/// micro benches use, so a regression here mirrors a regression there.
const CHECKED: &[&str] = &[
    "road-grid-02",
    "ca-papers-03",
    "socfb-campus-04",
    "web-crawl-03",
];

fn committed(name: &str) -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("reading committed {name}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("parsing committed {name}: {e}"))
}

fn row<'a>(doc: &'a Json, dataset: &str) -> &'a Json {
    doc.as_array()
        .expect("record is an array of rows")
        .iter()
        .find(|row| row["dataset"].as_str() == Some(dataset))
        .unwrap_or_else(|| panic!("dataset {dataset} missing from committed record"))
}

fn load(dataset: &str) -> gmc_graph::Csr {
    by_name(Tier::Smoke, dataset)
        .unwrap_or_else(|| panic!("dataset {dataset}"))
        .load()
}

/// `current` may beat `expected` freely but not regress past tolerance.
fn check_counter(dataset: &str, counter: &str, current: u64, expected: u64) -> Result<(), String> {
    if (current as f64) <= (expected as f64) * TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "{dataset}: {counter} regressed {current} vs committed {expected} (tolerance {:.0}%)",
            (TOLERANCE - 1.0) * 100.0
        ))
    }
}

#[test]
fn fused_query_and_launch_counters_have_not_regressed() {
    let doc = committed("BENCH_fused.json");
    let mut failures = Vec::new();
    for dataset in CHECKED {
        let expected = row(&doc, dataset);
        let graph = load(dataset);
        // One worker, as the record was taken: once a scan leaves the
        // inline path its launch count depends on the worker count.
        let fused = MaxCliqueSolver::new(Device::new(1, usize::MAX))
            .fused(true)
            .solve(&graph)
            .expect("unlimited device");
        for (counter, current, key) in [
            (
                "fused oracle queries",
                fused.stats.oracle_queries,
                "fused_queries",
            ),
            (
                "fused launches",
                fused.stats.launches.launches,
                "fused_launches",
            ),
        ] {
            let committed_value = expected[key]
                .as_u64()
                .unwrap_or_else(|| panic!("{dataset}: {key} is not an integer"));
            if let Err(e) = check_counter(dataset, counter, current, committed_value) {
                failures.push(e);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "bench trend gate failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn schedule_decomposition_counters_match_the_committed_record() {
    // `Auto`'s morsel decomposition is a pure function of the grid size —
    // worker-count independent by design. Re-run the bench's grid at a
    // *different* worker count than the committed record and require the
    // morsel count to match exactly.
    let doc = committed("BENCH_schedule.json");
    let grid = 8192usize; // micro_schedule's GRID
    let cost = |i: usize| if i < grid / 8 { 63u64 } else { 1 };
    let exec = Executor::new(4);
    exec.set_schedule(Schedule::Auto);
    let before = exec.schedule_stats();
    exec.run(Launch::new("schedule_grid", grid).weighted(&cost), |i| {
        std::hint::black_box(i);
    });
    let delta = exec.schedule_stats().since(&before);
    let expected = doc
        .as_array()
        .expect("array")
        .iter()
        .find(|r| {
            r["grid"].as_str() == Some("skewed_front") && r["schedule"].as_str() == Some("auto")
        })
        .expect("auto missing from committed record")["morsels"]
        .as_u64()
        .expect("morsels is an integer");
    assert_eq!(
        delta.morsels, expected,
        "auto: morsel decomposition changed (committed at a different worker count — \
         the decomposition must not depend on workers)"
    );
    assert_eq!(delta.dynamic_launches, 1);
}

#[test]
fn committed_schedule_record_is_internally_consistent() {
    // Every grid × schedule cell is present, wall clocks are positive, and
    // the committed speedup field re-derives from the static row's wall.
    let doc = committed("BENCH_schedule.json");
    let rows = doc.as_array().expect("array");
    for grid in ["skewed_front", "powerlaw", "uniform"] {
        let cell = |schedule: &str| {
            rows.iter()
                .find(|r| {
                    r["grid"].as_str() == Some(grid) && r["schedule"].as_str() == Some(schedule)
                })
                .unwrap_or_else(|| panic!("{grid}/{schedule} missing"))
        };
        let static_ms = cell("static")["wall_ms"].as_f64().expect("wall_ms");
        assert!(static_ms > 0.0, "{grid}: static wall must be positive");
        let workers = cell("static")["workers"].as_u64().expect("workers");
        assert_eq!(
            cell("static")["morsels"].as_u64().expect("morsels"),
            workers,
            "{grid}: static chunking is one chunk per worker"
        );
        for schedule in ["static", "auto"] {
            let row = cell(schedule);
            let wall = row["wall_ms"].as_f64().expect("wall_ms");
            let speedup = row["speedup_vs_static"].as_f64().expect("speedup");
            assert!(wall > 0.0, "{grid}/{schedule}");
            assert!(
                (speedup - static_ms / wall).abs() < 1e-6,
                "{grid}/{schedule}: committed speedup {speedup} != derived {}",
                static_ms / wall
            );
            assert!(row["morsels"].as_u64().expect("morsels") >= 1);
            assert!(
                row["max_worker_morsels"].as_u64().expect("max")
                    <= row["morsels"].as_u64().unwrap(),
                "{grid}/{schedule}: one worker cannot claim more morsels than exist"
            );
        }
    }
}

#[test]
fn committed_records_are_internally_consistent() {
    // Shape check on the full committed fused record: every row parses,
    // the derived percentages match their inputs, and the fused pipeline
    // never issues more queries than the unfused baseline it replaced.
    let fused = committed("BENCH_fused.json");
    for row in fused.as_array().expect("array") {
        let f = row["fused_queries"].as_f64().expect("fused_queries");
        let u = row["unfused_queries"].as_f64().expect("unfused_queries");
        let pct = row["query_reduction_pct"].as_f64().expect("pct");
        let derived = if u == 0.0 { 0.0 } else { 100.0 * (1.0 - f / u) };
        assert!(
            (pct - derived).abs() < 1e-6,
            "{}: committed reduction {pct} != derived {derived}",
            row["dataset"].as_str().unwrap_or("?")
        );
        assert!(f <= u, "fused pipeline must not add queries");
    }
}

#[test]
fn committed_core_bits_record_is_internally_consistent() {
    // The core bitmap's exact accounting: every scalar probe is either
    // performed or answered by the core bitmap, the committed elimination
    // percentage re-derives from its inputs, and nothing was rebuilt after
    // the one-time build. The socfb aggregate must clear the ≥95% bar the
    // perf gate enforces.
    let doc = committed("BENCH_corebits.json");
    let (mut socfb_per, mut socfb_scalar) = (0u64, 0u64);
    for row in doc.as_array().expect("array") {
        let name = row["dataset"].as_str().unwrap_or("?");
        let scalar = row["scalar_queries"].as_u64().expect("scalar_queries");
        let per_q = row["persistent_queries"]
            .as_u64()
            .expect("persistent_queries");
        let per_probes = row["persistent_probes"]
            .as_u64()
            .expect("persistent_probes");
        assert_eq!(
            per_q + per_probes,
            scalar,
            "{name}: persistent_queries + persistent_probes must equal scalar_queries"
        );
        assert_eq!(
            row["rebuilds"].as_u64().expect("rebuilds"),
            0,
            "{name}: the core bitmap must never rebuild per-level rows"
        );
        let pct = row["elimination_pct"].as_f64().expect("elimination_pct");
        let derived = if scalar == 0 {
            100.0
        } else {
            100.0 * (1.0 - per_q as f64 / scalar as f64)
        };
        assert!(
            (pct - derived).abs() < 1e-6,
            "{name}: committed elimination {pct} != derived {derived}"
        );
        if row["category"].as_str() == Some("socfb") {
            socfb_per += per_q;
            socfb_scalar += scalar;
        }
    }
    assert!(socfb_scalar > 0, "socfb rows must be present");
    assert!(
        socfb_per * 20 <= socfb_scalar,
        "socfb probe elimination fell below 95%: {socfb_per} of {socfb_scalar} remain"
    );
}

#[test]
fn persistent_probe_counters_have_not_regressed() {
    let doc = committed("BENCH_corebits.json");
    let mut failures = Vec::new();
    for dataset in CHECKED {
        let expected = row(&doc, dataset);
        let graph = load(dataset);
        let per = MaxCliqueSolver::new(Device::unlimited())
            .fused(true)
            .local_bits(LocalBitsMode::On)
            .solve(&graph)
            .expect("unlimited device");
        assert_eq!(
            per.stats.local_bits.rows_built, 0,
            "{dataset}: the core bitmap rebuilt per-level rows"
        );
        let committed_value = expected["persistent_queries"]
            .as_u64()
            .unwrap_or_else(|| panic!("{dataset}: persistent_queries is not an integer"));
        if let Err(e) = check_counter(
            dataset,
            "persistent oracle queries",
            per.stats.oracle_queries,
            committed_value,
        ) {
            failures.push(e);
        }
        // The bitmap must keep answering the walk: at least 90% of the
        // committed probe count.
        let committed_probes = expected["persistent_probes"]
            .as_u64()
            .expect("persistent_probes");
        let current_probes = per.stats.local_bits.persistent_probes;
        if (current_probes as f64) < (committed_probes as f64) / TOLERANCE {
            failures.push(format!(
                "{dataset}: persistent_probes fell to {current_probes} vs committed {committed_probes}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "bench trend gate failed:\n{}",
        failures.join("\n")
    );
}

/// Workload constants mirrored from `benches/serve_load.rs` — the
/// committed `BENCH_serve.json` was produced with exactly these.
mod serve_workload {
    pub const DATASETS: &[&str] = &[
        "road-grid-02",
        "ca-papers-03",
        "socfb-campus-04",
        "web-crawl-03",
    ];
    pub const REPEATS: usize = 8;
    pub const DEADLINE_JOBS: usize = 2;
    pub const SEED: u64 = 2024;
}

#[test]
fn committed_serve_record_is_internally_consistent() {
    let doc = committed("BENCH_serve.json");
    let total = doc["total_jobs"].as_u64().expect("total_jobs");
    let uniques = doc["unique_jobs"].as_u64().expect("unique_jobs");
    let repeats = doc["repeat_jobs"].as_u64().expect("repeat_jobs");
    let deadlines = doc["deadline_jobs"].as_u64().expect("deadline_jobs");
    let hits = doc["cache_hits"].as_u64().expect("cache_hits");
    let misses = doc["cache_misses"].as_u64().expect("cache_misses");
    let hit_rate = doc["hit_rate"].as_f64().expect("hit_rate");

    assert_eq!(uniques + repeats + deadlines, total);
    assert_eq!(hits + misses, total, "every job is a hit or a miss");
    assert_eq!(hits, repeats, "every replay draw hits the populated cache");
    assert_eq!(
        misses,
        uniques + deadlines,
        "uniques and sentinels all miss"
    );
    let derived = hits as f64 / (hits + misses) as f64;
    assert!(
        (hit_rate - derived).abs() < 1e-6,
        "committed hit_rate {hit_rate} != derived {derived}"
    );
    assert!(
        hit_rate >= 0.4,
        "the ≥50%-repeat workload must sustain a hit rate ≥ 0.4, got {hit_rate}"
    );
    assert_eq!(
        doc["cancellations"].as_u64().expect("cancellations"),
        deadlines,
        "every past-deadline sentinel cancels"
    );
    assert_eq!(
        doc["bit_identical"].as_bool(),
        Some(true),
        "served results matched the standalone solve when recorded"
    );
    assert!(doc["launches"].as_u64().expect("launches") > 0);
    assert!(doc["wall_ms"].as_f64().expect("wall_ms") > 0.0);
}

#[test]
fn serve_counters_match_the_committed_record_at_a_different_pool_size() {
    // The deterministic counters are a pure function of the workload, not
    // of service sizing: re-run the committed workload on a *single-slot*
    // pool (the committed record used two) and require exact equality.
    use gmc_serve::{loadgen, ServeConfig, SolveService};
    use std::sync::Arc;

    let doc = committed("BENCH_serve.json");
    let uniques: Vec<_> = serve_workload::DATASETS
        .iter()
        .map(|name| Arc::new(load(name)))
        .collect();
    let sentinels: Vec<_> = (0..serve_workload::DEADLINE_JOBS)
        .map(|i| {
            Arc::new(gmc_graph::generators::gnp(
                150,
                0.12,
                serve_workload::SEED + i as u64,
            ))
        })
        .collect();
    let service = SolveService::start(ServeConfig::default().pool(1).queue_depth(4));
    let report = loadgen::run_with_graphs(
        &service,
        &uniques,
        &sentinels,
        serve_workload::REPEATS,
        serve_workload::SEED,
    );
    let stats = service.shutdown();

    assert!(report.bit_identical, "served results must match solve()");
    for (counter, current) in [
        ("total_jobs", report.total_jobs),
        ("cache_hits", report.cache_hits),
        ("cache_misses", report.cache_misses),
        ("cancellations", report.cancellations),
        ("launches", stats.launches),
        ("oracle_queries", stats.oracle_queries),
    ] {
        let expected = doc[counter]
            .as_u64()
            .unwrap_or_else(|| panic!("{counter} is not an integer"));
        assert_eq!(
            current, expected,
            "{counter}: pool-size-independent counter diverged from the committed record"
        );
    }
}
