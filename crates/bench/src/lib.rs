//! # gmc-bench: the experiment harness
//!
//! One bench target per table/figure of the paper's evaluation (run with
//! `cargo bench -p gmc-bench --bench <name>`), plus in-tree
//! micro-benchmarks. Every target prints the paper-style rows/series to
//! stdout and writes a JSON record under `target/experiments/`.
//!
//! Environment knobs:
//!
//! * `GMC_TIER` — `smoke` | `small` (default) | `full`: corpus scale.
//! * `GMC_BUDGET_MB` — device-memory budget in MiB (tier-calibrated
//!   default: 1/3/24 for smoke/small/full). The paper's A100 had 40 GB
//!   against graphs of up to 106M edges; the defaults keep the same
//!   *pressure* against this corpus' scale so the OOM phenomenology of
//!   Table I reproduces.
//! * `GMC_WORKERS` — virtual-GPU worker threads (default: all cores).
//! * `GMC_PMC_THREADS` — CPU baseline threads (default: all cores).
//! * `GMC_LAUNCH_OVERHEAD_US` — simulated per-kernel-launch latency in µs
//!   (default 3), modelling the fixed cost every CUDA launch pays.
//! * `GMC_REPEATS` — timing repetitions per configuration (default 1; the
//!   paper reports the average of 5 runs).

#![warn(missing_docs)]

pub mod harness;
pub mod json;
pub mod report;

use gmc_corpus::{corpus, DatasetSpec, Tier};
use gmc_dpp::Device;
use gmc_graph::Csr;
use gmc_mce::{MaxCliqueSolver, SolveError, SolveResult, SolverConfig};
use json::{Json, ToJson};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Harness configuration resolved from the environment.
pub struct BenchEnv {
    /// Corpus tier.
    pub tier: Tier,
    /// Device-memory budget in bytes.
    pub budget_bytes: usize,
    /// Virtual-GPU workers.
    pub workers: usize,
    /// CPU baseline threads.
    pub pmc_threads: usize,
    /// Simulated per-kernel-launch overhead for the virtual GPU.
    pub launch_overhead: Duration,
    /// Timing repetitions per configuration (averaged).
    pub repeats: usize,
    /// Where JSON records are written.
    pub out_dir: PathBuf,
}

impl BenchEnv {
    /// Reads the `GMC_*` environment variables.
    pub fn from_env() -> Self {
        let tier = match std::env::var("GMC_TIER").as_deref() {
            Ok("smoke") => Tier::Smoke,
            Ok("full") => Tier::Full,
            Ok("small") | Err(_) => Tier::Small,
            Ok(other) => panic!("unknown GMC_TIER `{other}` (smoke|small|full)"),
        };
        // Default budget scales with the corpus tier so the memory pressure
        // the paper's A100 felt against 10k–106M-edge graphs carries over.
        // Calibrated so Table I's OOM gradient matches the paper's shape at
        // each tier (see EXPERIMENTS.md).
        let default_budget_mb = match tier {
            Tier::Smoke => 1,
            Tier::Small => 3,
            Tier::Full => 24,
        };
        // All numeric knobs go through the shared helper so a typo fails
        // loudly instead of silently falling back to the default.
        let budget_mb: usize = gmc_trace::env::parse_or("GMC_BUDGET_MB", default_budget_mb);
        let launch_overhead_us: u64 = gmc_trace::env::parse_or("GMC_LAUNCH_OVERHEAD_US", 3);
        let default_threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        let workers = gmc_trace::env::parse_or("GMC_WORKERS", default_threads);
        let pmc_threads = gmc_trace::env::parse_or("GMC_PMC_THREADS", default_threads);
        let repeats = gmc_trace::env::parse("GMC_REPEATS").map_or(1, |r: usize| r.max(1));
        Self {
            tier,
            budget_bytes: budget_mb * 1024 * 1024,
            workers,
            pmc_threads,
            launch_overhead: Duration::from_micros(launch_overhead_us),
            repeats,
            out_dir: default_out_dir(),
        }
    }

    /// Runs a configuration [`BenchEnv::repeats`] times on fresh budgeted
    /// devices and averages the timing fields (the paper reports 5-run
    /// averages). Structural fields (ω, memory, launches) come from the
    /// final run; any OOM makes the whole outcome OOM.
    pub fn run_averaged(&self, graph: &Csr, config: &SolverConfig) -> RunOutcome {
        let mut total_ms_sum = 0.0;
        let mut heuristic_ms_sum = 0.0;
        let mut last: Option<SolvedRecord> = None;
        for _ in 0..self.repeats {
            let device = self.device();
            match run_solver(&device, graph, config.clone()).expect("solver runs") {
                RunOutcome::Solved(rec) => {
                    total_ms_sum += rec.total_ms;
                    heuristic_ms_sum += rec.heuristic_ms;
                    last = Some(rec);
                }
                RunOutcome::Oom => return RunOutcome::Oom,
            }
        }
        let mut rec = last.expect("repeats >= 1");
        rec.total_ms = total_ms_sum / self.repeats as f64;
        rec.heuristic_ms = heuristic_ms_sum / self.repeats as f64;
        rec.throughput_eps = if rec.total_ms > 0.0 {
            graph.num_edges() as f64 / (rec.total_ms / 1e3)
        } else {
            0.0
        };
        RunOutcome::Solved(rec)
    }

    /// A fresh budgeted device (budget + workers + launch overhead from the
    /// environment).
    pub fn device(&self) -> Device {
        let device = Device::new(self.workers, self.budget_bytes);
        device.exec().set_launch_overhead(self.launch_overhead);
        device
    }

    /// A fresh device with no memory limit (for reference runs); same
    /// simulated launch overhead as [`BenchEnv::device`].
    pub fn unlimited_device(&self) -> Device {
        let device = Device::new(self.workers, usize::MAX);
        device.exec().set_launch_overhead(self.launch_overhead);
        device
    }

    /// Human-readable banner for experiment output.
    pub fn banner(&self, experiment: &str) {
        println!("== {experiment} ==");
        println!(
            "tier={:?} budget={} MiB workers={} pmc_threads={} launch_overhead={:?} repeats={}",
            self.tier,
            self.budget_bytes / (1024 * 1024),
            self.workers,
            self.pmc_threads,
            self.launch_overhead,
            self.repeats
        );
    }
}

/// A loaded dataset with its summary metadata.
pub struct LoadedDataset {
    /// Corpus spec this was built from.
    pub spec: DatasetSpec,
    /// The graph, index-randomised.
    pub graph: Csr,
}

impl LoadedDataset {
    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Mean degree.
    pub fn avg_degree(&self) -> f64 {
        self.graph.avg_degree()
    }
}

/// Loads the whole corpus at the environment's tier.
pub fn load_corpus(env: &BenchEnv) -> Vec<LoadedDataset> {
    corpus(env.tier)
        .into_iter()
        .map(|spec| {
            let graph = spec.load();
            LoadedDataset { spec, graph }
        })
        .collect()
}

/// Resolves `target/experiments` against the workspace root. Bench
/// executables run with the *package* directory as cwd, so a bare relative
/// path would scatter records under `crates/bench/`.
fn default_out_dir() -> PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        // crates/bench → workspace root is two levels up.
        let workspace = PathBuf::from(manifest).join("../..");
        if workspace.join("Cargo.toml").exists() {
            return workspace.join("target/experiments");
        }
    }
    PathBuf::from("target/experiments")
}

/// Outcome of one solver run on one dataset.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run completed.
    Solved(SolvedRecord),
    /// The run exceeded the device-memory budget.
    Oom,
}

impl RunOutcome {
    /// The solved record, when present.
    pub fn solved(&self) -> Option<&SolvedRecord> {
        match self {
            RunOutcome::Solved(r) => Some(r),
            RunOutcome::Oom => None,
        }
    }

    /// Whether the run hit the memory budget.
    pub fn is_oom(&self) -> bool {
        matches!(self, RunOutcome::Oom)
    }
}

impl ToJson for RunOutcome {
    /// Internally tagged, matching the previous serde shape:
    /// `{"status":"solved", ...record fields}` / `{"status":"oom"}`.
    fn to_json(&self) -> Json {
        match self {
            RunOutcome::Solved(rec) => {
                let mut fields = vec![("status".to_string(), Json::Str("solved".into()))];
                if let Json::Obj(rest) = rec.to_json() {
                    fields.extend(rest);
                }
                Json::Obj(fields)
            }
            RunOutcome::Oom => Json::object([("status", Json::Str("oom".into()))]),
        }
    }
}

/// Measurements from a completed solve.
#[derive(Debug, Clone)]
pub struct SolvedRecord {
    /// Clique number found.
    pub omega: u32,
    /// Number of maximum cliques (1 in find-one mode).
    pub multiplicity: usize,
    /// Heuristic lower bound ω̄.
    pub lower_bound: u32,
    /// End-to-end solve time in milliseconds (includes heuristic + setup,
    /// as the paper reports).
    pub total_ms: f64,
    /// Heuristic phase time in milliseconds.
    pub heuristic_ms: f64,
    /// Device-memory peak in bytes.
    pub peak_bytes: usize,
    /// Fraction of 2-clique entries pruned at setup.
    pub pruning_fraction: f64,
    /// Throughput in edges per second (paper Figs. 2–3).
    pub throughput_eps: f64,
    /// Virtual-GPU kernel launches the solve issued. On real hardware every
    /// launch has a fixed cost, so this is the cost proxy for strategies
    /// (like small windows) that multiply launch counts.
    pub launches: u64,
    /// Edge-oracle membership queries the expansion kernels issued — the
    /// adjacency-walk cost the fused pipeline exists to cut.
    pub oracle_queries: u64,
    /// Edge-oracle probes the core bitmap made unnecessary —
    /// `oracle_queries + bitmap_probes_avoided` equals the scalar walk's
    /// query count exactly.
    pub bitmap_probes_avoided: u64,
}

impl_to_json!(SolvedRecord {
    omega,
    multiplicity,
    lower_bound,
    total_ms,
    heuristic_ms,
    peak_bytes,
    pruning_fraction,
    throughput_eps,
    launches,
    oracle_queries,
    bitmap_probes_avoided,
});

/// Runs the solver on a graph, mapping OOM to [`RunOutcome::Oom`].
pub fn run_solver(
    device: &Device,
    graph: &Csr,
    config: SolverConfig,
) -> Result<RunOutcome, SolveError> {
    let solver = MaxCliqueSolver::with_config(device.clone(), config);
    match solver.solve(graph) {
        Ok(result) => Ok(RunOutcome::Solved(record_of(graph, &result))),
        Err(SolveError::DeviceOom(_)) => Ok(RunOutcome::Oom),
        Err(err @ SolveError::FaultRetriesExhausted { .. }) => Err(err),
        // The harness never installs a cancel token; surface it if one
        // leaks in from a misconfigured device.
        Err(err @ SolveError::Cancelled(_)) => Err(err),
    }
}

/// Converts a [`SolveResult`] into the harness record.
pub fn record_of(graph: &Csr, result: &SolveResult) -> SolvedRecord {
    let total = result.stats.total_time;
    SolvedRecord {
        omega: result.clique_number,
        multiplicity: result.multiplicity(),
        lower_bound: result.stats.lower_bound,
        total_ms: millis(total),
        heuristic_ms: millis(result.stats.heuristic_time),
        peak_bytes: result.stats.peak_device_bytes,
        pruning_fraction: result.stats.pruning_fraction(),
        throughput_eps: if total.is_zero() {
            0.0
        } else {
            graph.num_edges() as f64 / total.as_secs_f64()
        },
        launches: result.stats.launches.launches,
        oracle_queries: result.stats.oracle_queries,
        bitmap_probes_avoided: result.stats.local_bits.probes_avoided,
    }
}

/// Duration → fractional milliseconds.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times a closure, returning its result and elapsed duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Geometric mean of positive values; 0 when empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a fixed-width ASCII table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Writes `value` as pretty JSON to `target/experiments/<name>.json`.
pub fn save_json<T: ToJson + ?Sized>(env: &BenchEnv, name: &str, value: &T) {
    if let Err(e) = std::fs::create_dir_all(&env.out_dir) {
        eprintln!("warning: cannot create {}: {e}", env.out_dir.display());
        return;
    }
    let path = env.out_dir.join(format!("{name}.json"));
    let json = value.to_json().to_string_pretty();
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("(json record: {})", path.display());
    }
}

/// Computes the true clique number via the DFS baseline (no memory limit),
/// used to score heuristic accuracy on datasets where the BFS solver OOMs.
pub fn true_omega(env: &BenchEnv, graph: &Csr) -> u32 {
    gmc_pmc::ParallelBranchBound::new(env.pmc_threads)
        .solve(graph)
        .clique_number
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn env_defaults() {
        // Only check the pure parsing defaults (no env mutation in tests).
        let env = BenchEnv::from_env();
        assert!(env.budget_bytes > 0);
        assert!(env.workers >= 1);
    }

    #[test]
    fn run_solver_maps_oom() {
        let g = gmc_graph::generators::gnp(200, 0.3, 1);
        let device = Device::new(2, 1024);
        let outcome = run_solver(
            &device,
            &g,
            SolverConfig {
                heuristic: gmc_heuristic::HeuristicKind::None,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert!(outcome.is_oom());
    }

    #[test]
    fn run_solver_produces_record() {
        let g = gmc_graph::generators::gnp(100, 0.1, 2);
        let device = Device::unlimited();
        let outcome = run_solver(&device, &g, SolverConfig::default()).unwrap();
        let rec = outcome.solved().expect("should solve");
        assert!(rec.omega >= 2);
        assert!(rec.throughput_eps > 0.0);
        assert!(rec.total_ms > 0.0);
    }
}
