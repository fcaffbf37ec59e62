//! Fused vs unfused expansion pipeline — the headline perf ablation.
//!
//! The fused pipeline makes the count kernel record a per-entry adjacency
//! bitmask that the output kernel replays, so each level walks the edge
//! oracle once instead of twice, scans in a single pass, and recycles its
//! scratch through the level arena. The unfused baseline is the
//! paper-literal count → scan → re-walk pipeline
//! (`SolverConfig { fused: false, .. }`).
//!
//! Two modes:
//!
//! * Default: harness timings (`expand/fused/<dataset>` vs
//!   `expand/unfused/<dataset>`) on representative smoke datasets, followed
//!   by an oracle-query sweep over the whole smoke corpus. The sweep is
//!   saved as a JSON record (`fused_expand.json`).
//! * `GMC_PERF_GATE=1`: CI gate. Noise-hardened paired timings (see
//!   [`paired_min_ms`]) make the process exit non-zero if the fused
//!   pipeline is more than 5% slower than the unfused baseline on any gate
//!   instance, or if it saves less than 40% of oracle queries across the
//!   smoke corpus.

use std::process::ExitCode;
use std::time::Instant;

use gmc_bench::harness::Harness;
use gmc_bench::{impl_to_json, print_table, save_json, BenchEnv};
use gmc_corpus::{corpus, Tier};
use gmc_dpp::Device;
use gmc_graph::Csr;
use gmc_mce::MaxCliqueSolver;

/// Timing datasets: one per corpus category plus a dense generator graph
/// with several expansion levels (matching `micro_solver`'s selection).
const TIMED: &[&str] = &[
    "road-grid-02",
    "ca-papers-03",
    "socfb-campus-04",
    "web-crawl-03",
];

fn dataset(name: &str) -> Csr {
    gmc_corpus::by_name(Tier::Smoke, name)
        .unwrap_or_else(|| panic!("dataset {name}"))
        .load()
}

fn solver(fused: bool) -> MaxCliqueSolver {
    MaxCliqueSolver::new(Device::unlimited()).fused(fused)
}

struct FusedRow {
    dataset: String,
    fused_queries: u64,
    unfused_queries: u64,
    query_reduction_pct: f64,
    fused_launches: u64,
    unfused_launches: u64,
}

impl_to_json!(FusedRow {
    dataset,
    fused_queries,
    unfused_queries,
    query_reduction_pct,
    fused_launches,
    unfused_launches
});

/// One solve per configuration over the whole smoke corpus: oracle queries
/// and launch counts are deterministic, so no repetition is needed.
fn query_sweep() -> Vec<FusedRow> {
    corpus(Tier::Smoke)
        .iter()
        .map(|spec| {
            let graph = spec.load();
            let f = solver(true).solve(&graph).expect("unlimited device");
            let u = solver(false).solve(&graph).expect("unlimited device");
            assert_eq!(f.clique_number, u.clique_number, "{}", spec.name);
            let reduction = if u.stats.oracle_queries == 0 {
                0.0
            } else {
                100.0 * (1.0 - f.stats.oracle_queries as f64 / u.stats.oracle_queries as f64)
            };
            FusedRow {
                dataset: spec.name.to_string(),
                fused_queries: f.stats.oracle_queries,
                unfused_queries: u.stats.oracle_queries,
                query_reduction_pct: reduction,
                fused_launches: f.stats.launches.launches,
                unfused_launches: u.stats.launches.launches,
            }
        })
        .collect()
}

fn print_sweep(rows: &[FusedRow]) {
    println!("\n-- Oracle queries per solve: fused records+replays, unfused re-walks --");
    print_table(
        &[
            "Dataset",
            "Fused queries",
            "Unfused queries",
            "Saved %",
            "Fused launches",
            "Unfused launches",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.fused_queries.to_string(),
                    r.unfused_queries.to_string(),
                    format!("{:.1}", r.query_reduction_pct),
                    r.fused_launches.to_string(),
                    r.unfused_launches.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn bench() {
    let mut harness = Harness::from_args();
    let mut group = harness.group("expand");
    for name in TIMED {
        let graph = dataset(name);
        for fused in [true, false] {
            let label = if fused { "fused" } else { "unfused" };
            group.bench(&format!("{label}/{name}"), |b| {
                let s = solver(fused);
                b.iter(|| s.solve(&graph).unwrap());
            });
        }
    }
    // A denser instance exercising multiple expansion levels, where the
    // count/output redundancy dominates.
    let dense = gmc_graph::generators::gnp(400, 0.15, 99);
    for fused in [true, false] {
        let label = if fused { "fused" } else { "unfused" };
        group.bench(&format!("{label}/gnp_400_dense"), |b| {
            let s = solver(fused);
            b.iter(|| s.solve(&dense).unwrap());
        });
    }
    group.finish();

    let rows = query_sweep();
    print_sweep(&rows);
    save_json(&BenchEnv::from_env(), "fused_expand", rows.as_slice());
    harness.finish();
}

/// Paired per-iteration milliseconds `(fused, unfused)`, noise-hardened
/// four ways: each side's solver (and so its worker pool) is built once
/// before timing, so no sample times thread spawns and joins; iterations
/// are batched so every sample spans at least ~20 ms of wall time
/// (sub-millisecond solves would otherwise be pure scheduler noise); the
/// two pipelines' batches are interleaved, with the first side alternating
/// per sample, so both sides see the same warmup state and load drift; and
/// the *minimum* over `samples` batches per side is reported — the most
/// repeatable statistic for a deterministic workload.
fn paired_min_ms(samples: usize, graph: &Csr) -> (f64, f64) {
    let sides = [solver(true), solver(false)];
    let run = |side: usize| {
        sides[side].solve(graph).unwrap();
    };
    let start = Instant::now();
    run(0);
    run(1); // warmup both sides + calibration probe
    let per_iter = (start.elapsed().as_secs_f64() / 2.0).max(1e-9);
    let iters = ((0.020 / per_iter).ceil() as usize).clamp(1, 100_000);
    // One untimed full-batch round per side so the timed rounds start from
    // an identically warm pool/cache state on both sides.
    for _ in 0..iters {
        run(0);
        run(1);
    }
    let mut best = [f64::INFINITY; 2];
    for sample in 0..samples.max(1) {
        for side in [sample % 2, 1 - sample % 2] {
            let start = Instant::now();
            for _ in 0..iters {
                run(side);
            }
            best[side] = best[side].min(start.elapsed().as_secs_f64() * 1e3 / iters as f64);
        }
    }
    (best[0], best[1])
}

fn gate() -> ExitCode {
    let samples: usize = std::env::var("GMC_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let mut failed = false;

    println!("-- Perf gate: fused must not be >5% slower than unfused --");
    let mut graphs: Vec<(String, Csr)> =
        TIMED.iter().map(|n| (n.to_string(), dataset(n))).collect();
    graphs.push((
        "gnp_400_dense".into(),
        gmc_graph::generators::gnp(400, 0.15, 99),
    ));
    for (name, graph) in &graphs {
        let (fused_ms, unfused_ms) = paired_min_ms(samples, graph);
        let ok = fused_ms <= unfused_ms * 1.05;
        println!(
            "{name:<24} fused {fused_ms:>8.3} ms  unfused {unfused_ms:>8.3} ms  {}",
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    }

    let rows = query_sweep();
    print_sweep(&rows);
    let (f_total, u_total) = rows.iter().fold((0u64, 0u64), |(f, u), r| {
        (f + r.fused_queries, u + r.unfused_queries)
    });
    let saved = 100.0 * (1.0 - f_total as f64 / u_total as f64);
    let queries_ok = f_total * 10 <= u_total * 6;
    println!(
        "\nsmoke-corpus oracle queries: fused {f_total}, unfused {u_total} ({saved:.1}% saved, \
         gate ≥40%) {}",
        if queries_ok { "ok" } else { "FAIL" }
    );
    failed |= !queries_ok;

    if failed {
        eprintln!("perf gate FAILED");
        ExitCode::FAILURE
    } else {
        println!("perf gate passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    if std::env::var("GMC_PERF_GATE").as_deref() == Ok("1") {
        gate()
    } else {
        bench();
        ExitCode::SUCCESS
    }
}
