//! Micro-benchmarks for the virtual-GPU primitives — the operations the
//! paper's kernels are composed of. Runs on the in-tree harness
//! (`gmc_bench::harness`): warmup, calibrated iteration counts,
//! median-of-k ns/op.
//!
//! `GMC_PERF_GATE=1` runs the overhead gates instead: a paired
//! traced-vs-untraced scan timing plus measurements of the disabled
//! fast-path costs, failing the process if disabled tracing costs more
//! than a few percent of a scan (see [`tracing_gate`]) or if the disabled
//! fault-injection check costs more than 1% (see [`fault_gate`]).

use gmc_bench::harness::Harness;
use gmc_dpp::Executor;
use gmc_graph::generators;
use gmc_trace::TraceSession;
use std::process::ExitCode;
use std::time::Instant;

fn pseudo_random(n: usize, seed: u32) -> Vec<u32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state
        })
        .collect()
}

fn bench_scan(h: &mut Harness) {
    let exec = Executor::with_default_parallelism();
    let mut group = h.group("scan");
    for n in [10_000usize, 1_000_000] {
        let input: Vec<usize> = (0..n).map(|i| i % 13).collect();
        group.throughput_elements(n as u64);
        group.bench(&format!("exclusive/{n}"), |b| {
            b.iter(|| gmc_dpp::exclusive_scan(&exec, &input));
        });
    }
    group.finish();
}

fn bench_select(h: &mut Harness) {
    let exec = Executor::with_default_parallelism();
    let mut group = h.group("select");
    for n in [10_000usize, 1_000_000] {
        let input = pseudo_random(n, 3);
        group.throughput_elements(n as u64);
        group.bench(&format!("half/{n}"), |b| {
            b.iter(|| gmc_dpp::select_if(&exec, &input, |_, v| v & 1 == 0));
        });
    }
    group.finish();
}

fn bench_sort(h: &mut Harness) {
    let exec = Executor::with_default_parallelism();
    let mut group = h.group("radix_sort");
    for n in [10_000usize, 1_000_000] {
        let keys = pseudo_random(n, 5);
        let values: Vec<u32> = (0..n as u32).collect();
        group.throughput_elements(n as u64);
        group.bench(&format!("pairs/{n}"), |b| {
            b.iter(|| gmc_dpp::sort_pairs_u32(&exec, &keys, &values));
        });
        // Degree-like keys (small range) hit the constant-digit fast path.
        let degree_keys: Vec<u32> = keys.iter().map(|k| k % 256).collect();
        group.bench(&format!("degree_keys/{n}"), |b| {
            b.iter(|| gmc_dpp::sort_u32(&exec, &degree_keys));
        });
    }
    group.finish();
}

fn bench_edge_lookup(h: &mut Harness) {
    // The solver's hot operation: binary-search edge membership (Algorithm 2
    // lines 5 & 19).
    let graph = generators::barabasi_albert(50_000, 8, 11);
    let queries = pseudo_random(100_000, 13);
    let n = graph.num_vertices() as u32;
    h.bench("has_edge/100k_lookups_ba_graph", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for pair in queries.chunks_exact(2) {
                if graph.has_edge(pair[0] % n, pair[1] % n) {
                    hits += 1;
                }
            }
            hits
        });
    });
}

fn bench_kcore(h: &mut Harness) {
    let exec = Executor::with_default_parallelism();
    let graph = generators::barabasi_albert(20_000, 6, 17);
    let mut group = h.group("kcore");
    group.bench("sequential_bz", |b| {
        b.iter(|| gmc_graph::kcore::core_numbers(&graph));
    });
    group.bench("data_parallel_peel", |b| {
        b.iter(|| gmc_graph::kcore::core_numbers_parallel(&exec, &graph));
    });
    group.finish();
}

fn bench_rle(h: &mut Harness) {
    let exec = Executor::with_default_parallelism();
    // Sublist-like input: runs of varying length.
    let values: Vec<u32> = (0..1_000_000).map(|i| (i / 37) as u32).collect();
    h.bench("run_length_encode/1m_values", |b| {
        b.iter(|| gmc_dpp::run_length_encode(&exec, &values));
    });
}

fn bench_histogram(h: &mut Harness) {
    let exec = Executor::with_default_parallelism();
    let data: Vec<u32> = pseudo_random(1_000_000, 19)
        .iter()
        .map(|v| v % 1000)
        .collect();
    h.bench("histogram/1m_values_1k_bins", |b| {
        b.iter(|| gmc_dpp::histogram_u32(&exec, &data, 1000));
    });
}

fn bench_tracing(h: &mut Harness) {
    let n = 10_000usize;
    let input: Vec<usize> = (0..n).map(|i| i % 13).collect();
    let mut group = h.group("tracing");
    group.throughput_elements(n as u64);
    group.bench("scan_untraced/10000", |b| {
        let exec = Executor::with_default_parallelism();
        b.iter(|| gmc_dpp::exclusive_scan(&exec, &input));
    });
    group.bench("scan_traced/10000", |b| {
        // Recording into a live session; the ring overflows during a long
        // bench, which only bumps the dropped counter — record cost stays.
        let session = TraceSession::new();
        let exec = Executor::with_default_parallelism();
        exec.set_tracer(session.tracer());
        b.iter(|| gmc_dpp::exclusive_scan(&exec, &input));
    });
    group.finish();
}

/// Worker count for the gate: at least two, so the scan takes the pooled
/// launch path (and therefore the per-launch tracing check) even on a
/// single-core machine, where the inline path would record no launches.
fn gate_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2)
}

/// Paired per-iteration nanoseconds `(untraced, traced)` for the 10k scan.
/// Batches are interleaved and the minimum over `samples` batches per side
/// is reported, the most repeatable statistic for a deterministic workload.
fn paired_scan_ns(samples: usize, input: &[usize]) -> (f64, f64) {
    let untraced = Executor::new(gate_workers());
    let session = TraceSession::new();
    let traced = Executor::new(gate_workers());
    traced.set_tracer(session.tracer());

    let start = Instant::now();
    gmc_dpp::exclusive_scan(&untraced, input);
    gmc_dpp::exclusive_scan(&traced, input);
    let per_iter = (start.elapsed().as_secs_f64() / 2.0).max(1e-9);
    let iters = ((0.020 / per_iter).ceil() as usize).clamp(1, 1_000_000);
    for _ in 0..2 * iters {
        gmc_dpp::exclusive_scan(&untraced, input); // warm pool and caches
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..samples.max(1) {
        for (slot, exec) in [(0, &untraced), (1, &traced)] {
            let start = Instant::now();
            for _ in 0..iters {
                gmc_dpp::exclusive_scan(exec, input);
            }
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }
    (best[0], best[1])
}

/// CI gate: disabled tracing must stay in the noise. Two checks:
///
/// 1. The disabled fast path (one relaxed atomic load + branch per launch,
///    measured directly) must account for under 3% of an untraced 10k scan.
/// 2. The untraced scan must not be slower than the recording scan beyond
///    noise — a broken enabled-check would show up here.
fn tracing_gate() -> bool {
    let samples: usize = gmc_trace::env::parse_or("GMC_BENCH_SAMPLES", 5);
    let n = 10_000usize;
    let input: Vec<usize> = (0..n).map(|i| i % 13).collect();
    let mut failed = false;

    println!("-- Tracing overhead gate: 10k exclusive scan --");
    let (untraced_ns, traced_ns) = paired_scan_ns(samples, &input);
    println!(
        "scan untraced {untraced_ns:>9.1} ns  traced {traced_ns:>9.1} ns  \
         (recording overhead {:+.1}%)",
        100.0 * (traced_ns - untraced_ns) / untraced_ns
    );
    let order_ok = untraced_ns <= traced_ns * 1.05;
    if !order_ok {
        eprintln!("FAIL: disabled tracing measured slower than recording");
    }
    failed |= !order_ok;

    // Launches per scan are deterministic; the disabled per-launch cost is
    // the executor's cached-flag check, measured in isolation.
    let exec = Executor::new(gate_workers());
    let before = exec.stats();
    gmc_dpp::exclusive_scan(&exec, &input);
    let launches = exec.stats().since(&before).launches;
    let check_iters = 10_000_000u64;
    let start = Instant::now();
    for _ in 0..check_iters {
        std::hint::black_box(exec.tracer().is_enabled());
    }
    let check_ns = start.elapsed().as_secs_f64() * 1e9 / check_iters as f64;
    let overhead_pct = 100.0 * (launches as f64 * check_ns) / untraced_ns;
    println!(
        "disabled fast path: {check_ns:.2} ns/launch × {launches} launches \
         = {overhead_pct:.3}% of the scan (gate < 3%)"
    );
    let budget_ok = overhead_pct < 3.0;
    if !budget_ok {
        eprintln!("FAIL: disabled-tracing overhead exceeds the budget");
    }
    failed |= !budget_ok;

    if failed {
        eprintln!("tracing gate FAILED");
    } else {
        println!("tracing gate passed");
    }
    !failed
}

/// CI gate: with no fault plan armed, the fault-injection hooks must stay
/// in the noise. Mirrors [`tracing_gate`]: the disabled path is one cached
/// relaxed load + branch per fallible launch (`Executor::fault_armed`) and
/// per memory charge, measured in isolation and required to account for
/// under 1% of a pooled 10k scan.
fn fault_gate() -> bool {
    let samples: usize = gmc_trace::env::parse_or("GMC_BENCH_SAMPLES", 5);
    let n = 10_000usize;
    let input: Vec<usize> = (0..n).map(|i| i % 13).collect();
    let mut failed = false;

    println!("\n-- Fault-injection overhead gate: 10k exclusive scan --");
    let (scan_ns, _) = paired_scan_ns(samples, &input);

    let exec = Executor::new(gate_workers());
    let before = exec.stats();
    gmc_dpp::try_exclusive_scan(&exec, &input).expect("no injector armed");
    let launches = exec.stats().since(&before).launches;
    let check_iters = 10_000_000u64;
    let start = Instant::now();
    for _ in 0..check_iters {
        std::hint::black_box(exec.fault_armed());
    }
    let check_ns = start.elapsed().as_secs_f64() * 1e9 / check_iters as f64;
    let overhead_pct = 100.0 * (launches as f64 * check_ns) / scan_ns;
    println!(
        "disabled fault path: {check_ns:.2} ns/launch × {launches} launches \
         = {overhead_pct:.3}% of the scan (gate < 1%)"
    );
    let budget_ok = overhead_pct < 1.0;
    if !budget_ok {
        eprintln!("FAIL: disabled fault-injection overhead exceeds the budget");
    }
    failed |= !budget_ok;

    if failed {
        eprintln!("fault gate FAILED");
    } else {
        println!("fault gate passed");
    }
    !failed
}

fn main() -> ExitCode {
    if std::env::var("GMC_PERF_GATE").as_deref() == Ok("1") {
        let tracing_ok = tracing_gate();
        let faults_ok = fault_gate();
        return if tracing_ok && faults_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut harness = Harness::from_args();
    bench_scan(&mut harness);
    bench_select(&mut harness);
    bench_sort(&mut harness);
    bench_edge_lookup(&mut harness);
    bench_kcore(&mut harness);
    bench_rle(&mut harness);
    bench_histogram(&mut harness);
    bench_tracing(&mut harness);
    harness.finish();
    ExitCode::SUCCESS
}
