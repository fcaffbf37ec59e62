//! End-to-end and per-layer benchmark of the breadth-first maximum-clique
//! solver (`gmc-mce`), its serve layer (`gmc-serve`) and the PMC baseline.
//!
//! ```text
//! gmc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--tier smoke|small|full] [--budget-kib <n>] [--out-dir <dir>]
//! gmc-perfbench --make-reference > perfbench/reference.tsv
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it describes the
//! host. A wrong answer exits with code 2 and prints no result. Every
//! timing is raw wall-clock.
//!
//! `BENCHMARK.json` lists the batch workloads, whose figures are steady
//! enough on a 2-core host to gate changes on. On them one job is one
//! closed-loop solve, so `job_latency_ms_p50` equals `solve_ms_p50` and
//! `jobs_per_s` is the solve rate. `serve-open` runs the same way but is
//! not listed: its sub-millisecond cache-hit latencies and the
//! relabelling-dependent windowed solves behind its latency tail spread by
//! 15-30% between runs there. The serve and window layers are also measured
//! by the traced run of `sparse-wide`, which serves that workload's graphs.

mod batch;
mod layers;
mod serve;
mod stats;
mod workload;

use gmc_corpus::Tier;
use gmc_graph::Csr;
use stats::Metrics;
use std::path::PathBuf;
use std::time::Duration;
use workload::{parse_tier, tier_name, Workload};

/// End-to-end metrics and units, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("edges_per_s", "1/s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("peak_device_mib", "MiB"),
    ("success_frac", "frac"),
    ("job_latency_ms_p50", "ms"),
    ("job_latency_ms_p99", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics and units, printed with `--trace 1`. A metric a
/// workload does not exercise (the serve and window layers outside
/// sparse-wide and serve-open, the reference lanes outside socfb-dense and
/// collab-ties) reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.load_ms", "ms"),
    ("heuristic.ms", "ms"),
    ("heuristic.bound_gap", "count"),
    ("setup.ms", "ms"),
    ("setup.pruned_frac", "frac"),
    ("expansion.ms", "ms"),
    ("bfs.levels", "count"),
    ("bfs.entries", "count"),
    ("bfs.ns_per_entry", "ns"),
    ("bfs.scalar_probes", "count"),
    ("bfs.bitmap_probes", "count"),
    ("bfs.rows_built", "count"),
    ("bfs.probes_avoided", "count"),
    ("bfs.cliques_out", "count"),
    ("graph.csr_probe_ns", "ns"),
    ("graph.bitmap_probe_ns", "ns"),
    ("dpp.launches", "count"),
    ("dpp.launch_overhead_share", "frac"),
    ("dpp.sched_imbalance", "ratio"),
    ("dpp.scan_ns_per_elem", "ns"),
    ("dpp.sort_pairs_ns_per_elem", "ns"),
    ("dpp.select_ns_per_elem", "ns"),
    ("mem.heuristic_peak_mib", "MiB"),
    ("mem.clique_peak_mib", "MiB"),
    ("mem.core_bitmap_mib", "MiB"),
    ("window.solve_ms", "ms"),
    ("window.count", "count"),
    ("window.peak_mib", "MiB"),
    ("window.splits", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.solve_ms_mean", "ms"),
    ("serve.hit_frac", "frac"),
    ("serve.fingerprint_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.down_windows", "count"),
    ("serve.rejections", "count"),
    ("serve.down_window_failures", "count"),
    ("serve.generator_lag_ms_p99", "ms"),
    ("serve.open_loop_valid", "bool"),
    ("lane.baseline.solve_ms", "ms"),
    ("lane.bits_off.solve_ms", "ms"),
    ("lane.pmc.solve_ms", "ms"),
    ("lane.pmc.speedup", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("self_ms.corpus.load", "ms"),
    ("self_ms.job", "ms"),
    ("self_ms.heuristic", "ms"),
    ("self_ms.mce.preview_setup", "ms"),
    ("self_ms.mce.solve", "ms"),
    ("self_ms.verify", "ms"),
    ("self_ms.lane.baseline", "ms"),
    ("self_ms.lane.bits_off", "ms"),
    ("self_ms.pmc.solve", "ms"),
    ("self_ms.serve.submit", "ms"),
    ("self_ms.serve.fingerprint", "ms"),
    ("self_ms.serve.admit", "ms"),
    ("self_ms.mce.window_replay", "ms"),
    ("self_ms.dpp.calibrate", "ms"),
    ("self_ms.graph.probe", "ms"),
];

/// Virtual-GPU workers (and PMC threads): the record host's core count.
const WORKERS: usize = 2;
/// Simulated per-launch latency of the batch devices (the `BenchEnv`
/// default); serve slot executors keep their built-in zero.
const LAUNCH_OVERHEAD: Duration = Duration::from_micros(3);
/// Largest graph (in vertices) the oracle-probe calibration builds a dense
/// `BitMatrix` for.
pub const PROBE_MAX_VERTICES: usize = 12_000;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tier: Tier,
    pub workers: usize,
    pub launch_overhead: Duration,
    /// Device budget of the batch workloads.
    pub budget_bytes: usize,
    /// Total device budget of a `SolveService`, split across its slots: the
    /// batch budget when a batch workload's traced run serves its graphs.
    pub budget_bytes_serve: usize,
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn parse_args() -> Result<Option<Options>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--make-reference") {
        return Ok(None);
    }
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload_name = required("--workload")?;
    let workload = Workload::parse(workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name}"))?;
    let number = |flag: &str, raw: &str| -> Result<f64, String> {
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} expects a non-negative number, got {raw}"))
    };
    let seed = required("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number("--seconds", required("--seconds")?)?;
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let tier = match value("--tier") {
        Some(name) => parse_tier(name).ok_or_else(|| format!("unknown tier {name}"))?,
        None => workload.default_tier(),
    };
    let budget_override = value("--budget-kib")
        .map(|raw| number("--budget-kib", raw).map(|kib| kib as usize * 1024))
        .transpose()?;
    let tier_budget_mib = match tier {
        Tier::Smoke => 1,
        Tier::Small => 3,
        Tier::Full => 24,
    };
    let out_dir = value("--out-dir").map_or_else(
        || {
            std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
                .join("perfbench")
        },
        PathBuf::from,
    );
    Ok(Some(Options {
        workload,
        seed,
        seconds,
        trace,
        tier,
        workers: WORKERS,
        launch_overhead: LAUNCH_OVERHEAD,
        budget_bytes: budget_override.unwrap_or(tier_budget_mib << 20),
        budget_bytes_serve: budget_override.unwrap_or(match workload {
            Workload::ServeOpen => serve::DEVICE_BYTES,
            _ => tier_budget_mib << 20,
        }),
        out_dir,
    }))
}

/// The graph the oracle-probe calibration uses: the one with the most
/// edges among those small enough for a dense bitmap.
pub fn probe_graph<'a>(graphs: impl Iterator<Item = &'a Csr>) -> &'a Csr {
    graphs
        .filter(|g| g.num_vertices() <= PROBE_MAX_VERTICES)
        .max_by_key(|g| g.num_edges())
        .expect("every workload has a graph small enough for the probe bitmap")
}

/// Writes the traced run's spans as Chrome-trace JSON into `out_dir`.
pub fn write_trace(opts: &Options, timeline: &gmc_trace::Timeline) {
    let path = opts.out_dir.join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, timeline.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Orders `metrics` as `names` lists them, filling absent per-layer ones
/// with 0; rejects a name or unit the list does not have.
fn finalize(
    metrics: Metrics,
    names: &[(&str, &'static str)],
    zero_fill: bool,
) -> Result<Metrics, String> {
    for (name, _, unit) in metrics.entries() {
        match names.iter().find(|(n, _)| n == name) {
            Some((_, u)) if u == unit => {}
            _ => return Err(format!("metric {name} ({unit}) is not in the metric list")),
        }
    }
    let mut out = Metrics::default();
    for &(name, unit) in names {
        let present = metrics.entries().iter().any(|(n, _, _)| n == name);
        if !present && !zero_fill {
            return Err(format!("metric {name} was not measured"));
        }
        out.set(name, metrics.get(name), unit);
    }
    Ok(out)
}

fn host_line(opts: &Options, calibration: &Metrics) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut line = format!(
        "{{\"host\": {{\"available_parallelism\": {parallelism}, \"workers\": {}, \
         \"launch_overhead_us\": {}, \"batch_budget_mib\": {:?}, \"serve_budget_mib\": {:?}, \
         \"tier\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}",
        opts.workers,
        opts.launch_overhead.as_micros(),
        opts.budget_bytes as f64 / (1 << 20) as f64,
        opts.budget_bytes_serve as f64 / (1 << 20) as f64,
        tier_name(opts.tier),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
    );
    for (name, value, _) in calibration.entries() {
        line.push_str(&format!(", \"{name}\": {value:?}"));
    }
    line.push_str("}}");
    line
}

fn run(opts: &Options) -> Result<String, String> {
    let outcome = match opts.workload {
        Workload::ServeOpen => serve::run(opts)?,
        _ => batch::run(opts)?,
    };
    let calibration_names = [
        "dpp.scan_ns_per_elem",
        "dpp.sort_pairs_ns_per_elem",
        "dpp.select_ns_per_elem",
    ];
    let (calibration, metrics) = if opts.trace {
        let mut calibration = Metrics::default();
        for name in calibration_names {
            calibration.set(name, outcome.metrics.get(name), "ns");
        }
        (calibration, finalize(outcome.metrics, PER_LAYER, true)?)
    } else {
        (
            layers::calibrate(opts.workers, &gmc_dpp::Tracer::disabled()),
            finalize(outcome.metrics, END_TO_END, false)?,
        )
    };
    println!("{}", host_line(opts, &calibration));
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    ))
}

fn main() {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            workload::print_reference_table();
            return;
        }
        Err(e) => {
            eprintln!("gmc-perfbench: {e}");
            std::process::exit(64);
        }
    };
    match run(&opts) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("gmc-perfbench: FAILED: {e}");
            std::process::exit(2);
        }
    }
}
