//! Per-layer measurements taken from outside the solver: the heuristic /
//! setup / expansion split of one solve, primitive and oracle-probe
//! calibration, and per-span self time from the benchmark's own trace.

use crate::stats::{mean, ratio, Metrics};
use gmc_dpp::{exclusive_scan, select_if, sort_pairs_u32, Device, Executor, Rng, Tracer};
use gmc_graph::{BitMatrix, Csr, EdgeOracle};
use gmc_heuristic::run_heuristic;
use gmc_mce::{preview_setup, MaxCliqueSolver, SolveError, SolveResult, SolverConfig};
use gmc_trace::Timeline;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIB: f64 = (1 << 20) as f64;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One solve split into its phases by three public calls: `run_heuristic`,
/// `preview_setup` (heuristic + setup) and `MaxCliqueSolver::solve`.
pub struct LayerSample {
    pub heuristic_ms: f64,
    pub setup_ms: f64,
    pub solve_ms: f64,
    pub result: SolveResult,
}

impl LayerSample {
    pub fn expansion_ms(&self) -> f64 {
        (self.solve_ms - self.heuristic_ms - self.setup_ms).max(0.0)
    }
}

/// Runs the three calls on `graph`, each inside a span of job `id`.
pub fn probe_layers(
    device: &Device,
    graph: &Csr,
    config: &SolverConfig,
    tracer: &Tracer,
    id: i64,
) -> Result<LayerSample, SolveError> {
    let start = Instant::now();
    {
        let _span = tracer.span_with("heuristic", &[("id", id)]);
        black_box(run_heuristic(
            device,
            graph,
            config.heuristic,
            config.heuristic_seeds,
        )?);
    }
    let heuristic_ms = ms(start.elapsed());
    let start = Instant::now();
    {
        let _span = tracer.span_with("mce.preview_setup", &[("id", id)]);
        black_box(preview_setup(device, graph, config)?);
    }
    let preview_ms = ms(start.elapsed());
    let start = Instant::now();
    let result = {
        let _span = tracer.span_with("mce.solve", &[("id", id)]);
        MaxCliqueSolver::with_config(device.clone(), config.clone()).solve(graph)?
    };
    Ok(LayerSample {
        heuristic_ms,
        setup_ms: (preview_ms - heuristic_ms).max(0.0),
        solve_ms: ms(start.elapsed()),
        result,
    })
}

/// Aggregates layer samples into the heuristic / setup / bfs / dpp / mem
/// metrics. `launch_overhead` is the simulated per-launch latency the
/// solves paid.
pub fn layer_metrics(samples: &[LayerSample], launch_overhead: Duration) -> Metrics {
    let each = |f: &dyn Fn(&LayerSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let entries = |s: &LayerSample| s.result.stats.level_entries.iter().sum::<usize>() as f64;
    let sum = |f: &dyn Fn(&LayerSample) -> f64| -> f64 { samples.iter().map(f).sum() };
    let mut m = Metrics::default();
    m.set("heuristic.ms", mean(&each(&|s| s.heuristic_ms)), "ms");
    m.set(
        "heuristic.bound_gap",
        mean(&each(&|s| {
            f64::from(s.result.clique_number) - f64::from(s.result.stats.lower_bound)
        })),
        "count",
    );
    m.set("setup.ms", mean(&each(&|s| s.setup_ms)), "ms");
    m.set(
        "setup.pruned_frac",
        mean(&each(&|s| s.result.stats.pruning_fraction())),
        "frac",
    );
    m.set("expansion.ms", mean(&each(&|s| s.expansion_ms())), "ms");
    m.set(
        "bfs.levels",
        mean(&each(&|s| s.result.stats.level_entries.len() as f64)),
        "count",
    );
    m.set("bfs.entries", mean(&each(&entries)), "count");
    m.set(
        "bfs.ns_per_entry",
        ratio(sum(&|s| s.expansion_ms() * 1e6), sum(&entries)),
        "ns",
    );
    let bits = |f: fn(&gmc_mce::LocalBitsStats) -> u64| {
        mean(&each(&|s| f(&s.result.stats.local_bits) as f64))
    };
    m.set(
        "bfs.scalar_probes",
        mean(&each(&|s| s.result.stats.oracle_queries as f64)),
        "count",
    );
    m.set("bfs.bitmap_probes", bits(|b| b.persistent_probes), "count");
    m.set("bfs.rows_built", bits(|b| b.rows_built), "count");
    m.set("bfs.probes_avoided", bits(|b| b.probes_avoided), "count");
    m.set(
        "bfs.cliques_out",
        mean(&each(&|s| s.result.multiplicity() as f64)),
        "count",
    );
    let launches = sum(&|s| s.result.stats.launches.launches as f64);
    m.set(
        "dpp.launches",
        ratio(launches, samples.len() as f64),
        "count",
    );
    m.set(
        "dpp.launch_overhead_share",
        ratio(
            launches * launch_overhead.as_secs_f64() * 1e3,
            sum(&|s| s.solve_ms),
        ),
        "frac",
    );
    m.set(
        "dpp.sched_imbalance",
        ratio(
            sum(&|s| s.result.stats.sched.makespan_ns as f64),
            sum(&|s| s.result.stats.sched.mean_chunk_ns as f64),
        ),
        "ratio",
    );
    m.set(
        "mem.heuristic_peak_mib",
        mean(&each(&|s| s.result.stats.heuristic_peak_bytes as f64)) / MIB,
        "MiB",
    );
    m.set(
        "mem.clique_peak_mib",
        mean(&each(&|s| s.result.stats.peak_device_bytes as f64)) / MIB,
        "MiB",
    );
    m.set(
        "mem.core_bitmap_mib",
        bits(|b| b.persistent_bytes) / MIB,
        "MiB",
    );
    m
}

/// The solve's device-memory peak across both phases, in MiB.
pub fn peak_mib(result: &SolveResult) -> f64 {
    result
        .stats
        .heuristic_peak_bytes
        .max(result.stats.peak_device_bytes) as f64
        / MIB
}

const CALIBRATION_ELEMS: usize = 1 << 20;

fn ns_per_elem(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / CALIBRATION_ELEMS as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Host calibration: ns per element of scan, pair sort and select at 2^20
/// elements on an executor with `workers` threads and no launch overhead.
pub fn calibrate(workers: usize, tracer: &Tracer) -> Metrics {
    let _span = tracer.span("dpp.calibrate");
    let exec = Executor::new(workers);
    let mut rng = Rng::seed_from_u64(0x5eed);
    let keys: Vec<u32> = (0..CALIBRATION_ELEMS)
        .map(|_| rng.next_u64() as u32)
        .collect();
    let values: Vec<u32> = (0..CALIBRATION_ELEMS as u32).collect();
    let counts: Vec<usize> = keys.iter().map(|&k| (k & 7) as usize).collect();
    let mut m = Metrics::default();
    m.set(
        "dpp.scan_ns_per_elem",
        ns_per_elem(7, || {
            black_box(exclusive_scan(&exec, black_box(&counts)));
        }),
        "ns",
    );
    m.set(
        "dpp.sort_pairs_ns_per_elem",
        ns_per_elem(5, || {
            black_box(sort_pairs_u32(&exec, black_box(&keys), &values));
        }),
        "ns",
    );
    m.set(
        "dpp.select_ns_per_elem",
        ns_per_elem(7, || {
            black_box(select_if(&exec, black_box(&keys), |_, k| k & 3 == 0));
        }),
        "ns",
    );
    m
}

const PROBE_PAIRS: usize = 1 << 20;

/// ns per `EdgeOracle::connected` call on the CSR (binary search) and on a
/// dense `BitMatrix`, over one seeded pair set: half existing edges, half
/// uniform vertex pairs.
pub fn oracle_probes(graph: &Csr, workers: usize, tracer: &Tracer) -> Metrics {
    let _span = tracer.span("graph.probe");
    let n = graph.num_vertices() as u64;
    let mut rng = Rng::seed_from_u64(0x0_7ac1e);
    let pairs: Vec<(u32, u32)> = (0..PROBE_PAIRS)
        .map(|i| {
            let u = (rng.next_u64() % n) as u32;
            let neighbors = graph.neighbors(u);
            if i % 2 == 0 && !neighbors.is_empty() {
                (
                    u,
                    neighbors[(rng.next_u64() % neighbors.len() as u64) as usize],
                )
            } else {
                (u, (rng.next_u64() % n) as u32)
            }
        })
        .collect();
    let bits = BitMatrix::build(&Executor::new(workers), graph);
    let time = |oracle: &dyn EdgeOracle| {
        let mut times: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let hits = pairs
                    .iter()
                    .filter(|&&(u, v)| oracle.connected(black_box(u), v))
                    .count();
                black_box(hits);
                start.elapsed().as_nanos() as f64 / PROBE_PAIRS as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[1]
    };
    let mut m = Metrics::default();
    m.set("graph.csr_probe_ns", time(graph), "ns");
    m.set("graph.bitmap_probe_ns", time(&bits), "ns");
    m
}

/// Span names whose self time is reported as `self_ms.<name>`.
pub const TRACED_SPANS: &[&str] = &[
    "corpus.load",
    "job",
    "heuristic",
    "mce.preview_setup",
    "mce.solve",
    "verify",
    "lane.baseline",
    "lane.bits_off",
    "pmc.solve",
    "serve.submit",
    "serve.fingerprint",
    "serve.admit",
    "mce.window_replay",
    "dpp.calibrate",
    "graph.probe",
];

/// Self time per span name — the span's duration minus the part its child
/// spans cover — summed over the timeline, in ms.
pub fn self_time_metrics(timeline: &Timeline) -> Metrics {
    let mut child_ns = vec![0u64; timeline.spans.len()];
    for span in &timeline.spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.dur_ns;
        }
    }
    let mut m = Metrics::default();
    for name in TRACED_SPANS {
        let total: u64 = timeline
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(span, _)| span.name == *name)
            .map(|(span, child)| span.dur_ns.saturating_sub(*child))
            .sum();
        m.set(format!("self_ms.{name}"), total as f64 / 1e6, "ms");
    }
    m
}
