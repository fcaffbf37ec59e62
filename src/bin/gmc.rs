//! `gmc` — command-line front end for the maximum clique toolkit.
//!
//! ```text
//! gmc solve <graph-file> [options]   enumerate maximum cliques
//! gmc info <graph-file>              print graph statistics
//! gmc generate <family> [options]    write a synthetic graph to a file
//! gmc serve [options]                drive the batched solve service
//! gmc verify [options]               differential + metamorphic fuzzing
//! ```
//!
//! Run `gmc help` for the full option list. Graph files may be MatrixMarket
//! (`.mtx`), DIMACS clique instances (`.clq`/`.col`/`.dimacs`) or
//! whitespace edge lists (any other extension); `generate --out` picks the
//! written format by the same extensions.

use gpu_max_clique::graph::{generators, io, kcore, Csr};
use gpu_max_clique::heuristic::HeuristicKind;
use gpu_max_clique::mce::{
    MaxCliqueSolver, SolveError, SolverConfig, WindowConfig, WindowOrdering,
};
use gpu_max_clique::prelude::{Device, FaultPlan};
use std::io::Write;
use std::process::ExitCode;

const HELP: &str = "\
gmc — breadth-first maximum clique enumeration (GPU-paper reproduction)

USAGE:
    gmc solve <file> [options]
    gmc info <file>
    gmc generate <family> --out <file> [--param key=value ...]
    gmc serve [options]
    gmc verify [options]
    gmc help

SOLVE OPTIONS:
    --heuristic <none|single-degree|single-core|multi-degree|multi-core>
                         lower-bound heuristic (default multi-degree)
    --budget-mb <N>      device memory budget in MiB (default unlimited)
    --workers <N>        virtual-GPU worker threads (default all cores)
    --window <N>         windowed search with nominal window size N
    --window-order <index|asc|desc|random>   sublist order for windows
    --enumerate-windows  enumerate all maximum cliques in windowed mode
    --recursive <D>      recursive windowing up to depth D
    --no-early-exit      disable the early-exit optimisation
    --faults <spec>      inject deterministic device faults and exercise the
                         recovery ladder; spec like seed=1,alloc=0.05,launch=0.02,retries=8
                         (also readable from the GMC_FAULTS env var)
    --randomize <SEED>   shuffle vertex ids before solving
    --max-print <N>      print at most N cliques (default 10)
    --verify             independently re-check every reported clique
    --json               machine-readable output

SERVE OPTIONS (deterministic closed-loop load generator):
    --pool <N>           executor slots (default GMC_SERVE_POOL or 2)
    --queue <N>          bounded queue depth (default GMC_SERVE_QUEUE or 16)
    --cache-mb <N>       result-cache budget (default GMC_SERVE_CACHE_MB or 64)
    --budget-mb <N>      device budget split across the pool (default unlimited)
    --jobs <N>           unique jobs in the populate phase (default 6)
    --repeats <N>        seeded repeat jobs, all cache hits (default 10)
    --deadline-jobs <N>  past-deadline sentinel jobs, all cancelled (default 2)
    --vertices <N>       vertices per generated G(n,p) graph (default 120)
    --seed <S>           master workload seed (default 42)
    --json               machine-readable output

VERIFY OPTIONS (differential + metamorphic fuzzing harness):
    --seed <S>           master seed (default GMC_VERIFY_SEED or built-in)
    --budget-ms <N>      fuzzing wall-clock budget (default GMC_VERIFY_BUDGET_MS
                         or 10000; 0 = no time limit, needs --max-cases)
    --max-cases <N>      stop after N generated cases
    --max-failures <N>   stop after N distinct shrunk failures (default 8)
    --regressions <dir>  regression corpus directory (default tests/regressions);
                         replayed first on every run, new failures persisted here
    --replay-only        replay the regression corpus, skip fuzzing
    --no-persist         do not write newly found failures to the corpus
    --sabotage <drop-ties|under-report>
                         deliberately corrupt the BFS lanes (self-test: the
                         harness must catch and shrink the \"bug\")
    --json               machine-readable output

GENERATE FAMILIES (with --param defaults):
    gnp        n=1000 p=0.01 seed=1
    ba         n=1000 m=3 seed=1
    road       rows=100 cols=100 seed=1
    geometric  n=1000 radius=0.05 seed=1
    collab     authors=1000 papers=500 max=10 seed=1
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`; see `gmc help`");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: positional arguments plus `--key [value]` pairs.
struct Options {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that never take a value.
const BOOLEAN_FLAGS: &[&str] = &[
    "enumerate-windows",
    "no-early-exit",
    "json",
    "verify",
    "replay-only",
    "no-persist",
];

/// The flags each subcommand accepts, as listed in `gmc help`.
const SOLVE_FLAGS: &[&str] = &[
    "heuristic",
    "budget-mb",
    "workers",
    "window",
    "window-order",
    "enumerate-windows",
    "recursive",
    "no-early-exit",
    "faults",
    "randomize",
    "max-print",
    "verify",
    "json",
];
const INFO_FLAGS: &[&str] = &[];
const GENERATE_FLAGS: &[&str] = &["out", "param"];
const SERVE_FLAGS: &[&str] = &[
    "pool",
    "queue",
    "cache-mb",
    "budget-mb",
    "jobs",
    "repeats",
    "deadline-jobs",
    "vertices",
    "seed",
    "json",
];
const VERIFY_FLAGS: &[&str] = &[
    "seed",
    "budget-ms",
    "max-cases",
    "max-failures",
    "regressions",
    "replay-only",
    "no-persist",
    "sabotage",
    "json",
];

impl Options {
    /// Parses the arguments of `gmc <command>`, rejecting any flag not in
    /// `accepted`.
    fn parse(args: &[String], command: &str, accepted: &[&str]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(format!(
                        "unknown option `--{name}` for `gmc {command}`; see `gmc help`"
                    ));
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    flags.push((name.to_string(), Some(value.clone())));
                    i += 1;
                }
            } else {
                positional.push(args[i].clone());
            }
            i += 1;
        }
        Ok(Self { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
        }
    }
}

fn load_graph(path: &str) -> Result<Csr, String> {
    let result = if path.ends_with(".mtx") {
        io::load_matrix_market(path)
    } else if path.ends_with(".clq") || path.ends_with(".col") || path.ends_with(".dimacs") {
        io::load_dimacs(path)
    } else {
        io::load_edge_list(path)
    };
    result.map_err(|e| format!("cannot load {path}: {e}"))
}

fn fail(message: String) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

fn cmd_solve(args: &[String]) -> ExitCode {
    let opts = match Options::parse(args, "solve", SOLVE_FLAGS) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let Some(path) = opts.positional.first() else {
        return fail("solve: missing graph file".into());
    };
    let mut graph = match load_graph(path) {
        Ok(g) => g,
        Err(e) => return fail(e),
    };
    match opts.get_parsed::<u64>("randomize") {
        Ok(Some(seed)) => graph = graph.randomize_vertex_ids(seed).0,
        Ok(None) => {}
        Err(e) => return fail(e),
    }

    let mut config = SolverConfig::default();
    if let Some(h) = opts.get("heuristic") {
        config.heuristic = match h {
            "none" => HeuristicKind::None,
            "single-degree" => HeuristicKind::SingleDegree,
            "single-core" => HeuristicKind::SingleCore,
            "multi-degree" => HeuristicKind::MultiDegree,
            "multi-core" => HeuristicKind::MultiCore,
            other => return fail(format!("unknown heuristic `{other}`")),
        };
    }
    config.early_exit = !opts.has("no-early-exit");
    match opts.get_parsed::<FaultPlan>("faults") {
        Ok(Some(plan)) => config.faults = Some(plan),
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<usize>("window") {
        Ok(Some(size)) => {
            let mut window = WindowConfig::with_size(size);
            window.enumerate_all = opts.has("enumerate-windows");
            if let Some(order) = opts.get("window-order") {
                window.ordering = match order {
                    "index" => WindowOrdering::Index,
                    "asc" => WindowOrdering::DegreeAscending,
                    "desc" => WindowOrdering::DegreeDescending,
                    "random" => WindowOrdering::Random(0xC0FFEE),
                    other => return fail(format!("unknown window order `{other}`")),
                };
            }
            match opts.get_parsed::<usize>("recursive") {
                Ok(Some(depth)) => window.max_depth = depth.max(1),
                Ok(None) => {}
                Err(e) => return fail(e),
            }
            config.window = Some(window);
        }
        Ok(None) => {
            // Window flags mean nothing to the full search: refuse them
            // rather than silently ignore them.
            if let Some(flag) = ["recursive", "enumerate-windows", "window-order"]
                .into_iter()
                .find(|&flag| opts.has(flag))
            {
                return fail(format!("--{flag} requires --window"));
            }
        }
        Err(e) => return fail(e),
    }

    let workers = match opts.get_parsed::<usize>("workers") {
        Ok(w) => w.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }),
        Err(e) => return fail(e),
    };
    let budget = match opts.get_parsed::<usize>("budget-mb") {
        Ok(Some(mb)) => mb * 1024 * 1024,
        Ok(None) => usize::MAX,
        Err(e) => return fail(e),
    };
    let device = Device::new(workers, budget);

    // GMC_TRACE=<path> records every launch/phase span and writes a
    // Chrome-trace JSON file; render it with `gmc-report trace <path>`.
    let env_trace = gpu_max_clique::trace::EnvTrace::from_env();
    if let Some(t) = &env_trace {
        config.trace = t.tracer();
    }

    let solver = MaxCliqueSolver::with_config(device, config);
    let solve_result = solver.solve(&graph);
    if let Some(t) = env_trace {
        match t.finish() {
            Ok((path, timeline)) => eprintln!(
                "trace: wrote {} spans to {}; render with `gmc-report trace {}`",
                timeline.spans.len(),
                path.display(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write GMC_TRACE file: {e}"),
        }
    }
    let result = match solve_result {
        Ok(r) => r,
        Err(SolveError::DeviceOom(oom)) => {
            eprintln!(
                "out of device memory: {oom}\nhint: try --window 1024 (optionally --recursive 4), \
                 a stronger --heuristic, or a larger --budget-mb"
            );
            return ExitCode::FAILURE;
        }
        Err(SolveError::FaultRetriesExhausted { attempts }) => {
            eprintln!(
                "injected faults exhausted the retry cap after {attempts} attempts\n\
                 hint: lower the --faults rates or raise retries= in the spec"
            );
            return ExitCode::FAILURE;
        }
        Err(SolveError::Cancelled(cancelled)) => {
            eprintln!("solve cancelled: {cancelled}");
            return ExitCode::FAILURE;
        }
    };

    if opts.has("verify") {
        if let Err(e) = gpu_max_clique::mce::verify_result(&graph, &result) {
            eprintln!("verification FAILED: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("verification passed: every reported clique checked against the graph");
    }

    let max_print = match opts.get_parsed::<usize>("max-print") {
        Ok(n) => n.unwrap_or(10),
        Err(e) => return fail(e),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if opts.has("json") {
        let cliques_json: Vec<String> = result
            .cliques
            .iter()
            .take(max_print)
            .map(|c| {
                format!(
                    "[{}]",
                    c.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"clique_number\":{},\"multiplicity\":{},\"complete\":{},\"lower_bound\":{},\
             \"total_ms\":{:.3},\"peak_bytes\":{},\"faults_injected\":{},\
             \"faults_recovered\":{},\"cliques\":[{}]}}",
            result.clique_number,
            result.multiplicity(),
            result.complete_enumeration,
            result.stats.lower_bound,
            result.stats.total_time.as_secs_f64() * 1e3,
            result.stats.peak_device_bytes,
            result.stats.faults.injected(),
            result.stats.faults.recovered(),
            cliques_json.join(",")
        );
    } else {
        let _ = writeln!(
            out,
            "graph: {} vertices, {} edges, avg degree {:.2}",
            graph.num_vertices(),
            graph.num_edges(),
            graph.avg_degree()
        );
        let _ = writeln!(
            out,
            "clique number ω = {} ({}, {} clique(s))",
            result.clique_number,
            if result.complete_enumeration {
                "complete enumeration"
            } else {
                "single witness"
            },
            result.multiplicity()
        );
        for clique in result.cliques.iter().take(max_print) {
            let _ = writeln!(out, "  {clique:?}");
        }
        if result.multiplicity() > max_print {
            let _ = writeln!(out, "  ... and {} more", result.multiplicity() - max_print);
        }
        let s = &result.stats;
        let _ = writeln!(
            out,
            "heuristic {} → ω̄ = {} in {:.1} ms; setup pruned {:.0}% of 2-cliques;\n\
             total {:.1} ms; peak candidate memory {:.1} KiB; {} virtual-GPU launches",
            s.heuristic_kind,
            s.lower_bound,
            s.heuristic_time.as_secs_f64() * 1e3,
            100.0 * s.pruning_fraction(),
            s.total_time.as_secs_f64() * 1e3,
            s.peak_device_bytes as f64 / 1024.0,
            s.launches.launches
        );
        if let Some(w) = s.window {
            let _ = writeln!(
                out,
                "windowed: {} windows (nominal {}), {} bound improvements, \
                 {} splits, {} recursions",
                w.num_windows,
                w.nominal_size,
                w.bound_improvements,
                w.window_splits,
                w.sublist_recursions
            );
        }
        if s.faults.injected() > 0 {
            let f = &s.faults;
            let _ = writeln!(
                out,
                "faults: {} injected ({} alloc, {} launch), {} recovered, \
                 {} bitmap fallbacks, {} window shrinks",
                f.injected(),
                f.injected_allocs,
                f.injected_launches,
                f.recovered(),
                f.bitmap_fallbacks,
                f.window_shrinks
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_info(args: &[String]) -> ExitCode {
    let opts = match Options::parse(args, "info", INFO_FLAGS) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let Some(path) = opts.positional.first() else {
        return fail("info: missing graph file".into());
    };
    let graph = match load_graph(path) {
        Ok(g) => g,
        Err(e) => return fail(e),
    };
    let (_, degeneracy) = kcore::degeneracy_order(&graph);
    let exec = gpu_max_clique::prelude::Executor::with_default_parallelism();
    let (_, components) = gpu_max_clique::graph::algo::connected_components(&graph);
    let triangles = gpu_max_clique::graph::algo::triangle_count(&exec, &graph);
    println!("file:         {path}");
    println!("vertices:     {}", graph.num_vertices());
    println!("edges:        {}", graph.num_edges());
    println!("avg degree:   {:.2}", graph.avg_degree());
    println!("max degree:   {}", graph.max_degree());
    println!("components:   {components}");
    println!("triangles:    {triangles}");
    println!(
        "clustering:   {:.4}",
        gpu_max_clique::graph::algo::global_clustering(&exec, &graph)
    );
    println!("degeneracy:   {degeneracy} (ω ≤ {})", degeneracy + 1);
    println!(
        "Turán bound:  ω ≥ {}",
        gpu_max_clique::graph::bounds::turan_lower_bound(&graph)
    );
    ExitCode::SUCCESS
}

fn cmd_generate(args: &[String]) -> ExitCode {
    let opts = match Options::parse(args, "generate", GENERATE_FLAGS) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let Some(family) = opts.positional.first() else {
        return fail("generate: missing family (gnp|ba|road|geometric|collab)".into());
    };
    let Some(out_path) = opts.get("out") else {
        return fail("generate: missing --out <file>".into());
    };

    // Collect key=value params.
    let mut params = std::collections::BTreeMap::new();
    for (name, value) in &opts.flags {
        if name == "param" {
            let raw = value.as_deref().unwrap_or_default();
            let Some((k, v)) = raw.split_once('=') else {
                return fail(format!("--param expects key=value, got `{raw}`"));
            };
            params.insert(k.to_string(), v.to_string());
        }
    }
    let get_usize = |key: &str, default: usize| -> Result<usize, String> {
        params
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("param {key}: bad value `{v}`"))
            })
            .unwrap_or(Ok(default))
    };
    let get_f64 = |key: &str, default: f64| -> Result<f64, String> {
        params
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("param {key}: bad value `{v}`"))
            })
            .unwrap_or(Ok(default))
    };

    let graph = match family.as_str() {
        "gnp" => {
            let (n, p, seed) = match (
                get_usize("n", 1000),
                get_f64("p", 0.01),
                get_usize("seed", 1),
            ) {
                (Ok(n), Ok(p), Ok(s)) => (n, p, s as u64),
                (Err(e), _, _) | (_, _, Err(e)) => return fail(e),
                (_, Err(e), _) => return fail(e),
            };
            generators::gnp(n, p, seed)
        }
        "ba" => {
            let (n, m, seed) = match (
                get_usize("n", 1000),
                get_usize("m", 3),
                get_usize("seed", 1),
            ) {
                (Ok(n), Ok(m), Ok(s)) => (n, m, s as u64),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return fail(e),
            };
            generators::barabasi_albert(n, m, seed)
        }
        "road" => {
            let (rows, cols, seed) = match (
                get_usize("rows", 100),
                get_usize("cols", 100),
                get_usize("seed", 1),
            ) {
                (Ok(r), Ok(c), Ok(s)) => (r, c, s as u64),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return fail(e),
            };
            generators::road_mesh(rows, cols, 0.93, 0.04, seed)
        }
        "geometric" => {
            let (n, radius, seed) = match (
                get_usize("n", 1000),
                get_f64("radius", 0.05),
                get_usize("seed", 1),
            ) {
                (Ok(n), Ok(r), Ok(s)) => (n, r, s as u64),
                (Err(e), _, _) | (_, _, Err(e)) => return fail(e),
                (_, Err(e), _) => return fail(e),
            };
            generators::random_geometric(n, radius, seed)
        }
        "collab" => {
            let (authors, papers, max, seed) = match (
                get_usize("authors", 1000),
                get_usize("papers", 500),
                get_usize("max", 10),
                get_usize("seed", 1),
            ) {
                (Ok(a), Ok(p), Ok(m), Ok(s)) => (a, p, m, s as u64),
                (Err(e), _, _, _) | (_, Err(e), _, _) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
                    return fail(e)
                }
            };
            generators::collaboration(authors, papers, 3.min(max), max, 1.9, seed)
        }
        other => return fail(format!("unknown family `{other}`")),
    };

    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => return fail(format!("cannot create {out_path}: {e}")),
    };
    let mut writer = std::io::BufWriter::new(file);
    let write_result = if out_path.ends_with(".mtx") {
        io::write_matrix_market(&graph, &mut writer)
    } else if out_path.ends_with(".clq") || out_path.ends_with(".dimacs") {
        io::write_dimacs(&graph, &mut writer)
    } else {
        io::write_edge_list(&graph, &mut writer)
    };
    if let Err(e) = write_result.and_then(|()| writer.flush()) {
        return fail(format!("cannot write {out_path}: {e}"));
    }
    println!(
        "wrote {}: {} vertices, {} edges",
        out_path,
        graph.num_vertices(),
        graph.num_edges()
    );
    ExitCode::SUCCESS
}

fn cmd_verify(args: &[String]) -> ExitCode {
    use gpu_max_clique::verify::{self, Sabotage, VerifyConfig};

    let opts = match Options::parse(args, "verify", VERIFY_FLAGS) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };

    // Environment knobs (GMC_VERIFY_SEED / GMC_VERIFY_BUDGET_MS) are the
    // baseline; explicit flags override them.
    let mut config = VerifyConfig::from_env();
    match opts.get_parsed::<u64>("seed") {
        Ok(Some(seed)) => config.seed = seed,
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<u64>("budget-ms") {
        Ok(Some(ms)) => config.budget = std::time::Duration::from_millis(ms),
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<u64>("max-cases") {
        Ok(cap) => config.max_cases = cap.or(config.max_cases),
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<usize>("max-failures") {
        Ok(Some(cap)) => config.max_failures = cap.max(1),
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<Sabotage>("sabotage") {
        Ok(mode) => config.sabotage = mode,
        Err(e) => return fail(format!("{e} (expected drop-ties or under-report)")),
    }
    config.replay_only = opts.has("replay-only");
    config.persist_failures = !opts.has("no-persist");
    config.regressions_dir = Some(
        opts.get("regressions")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("tests/regressions")),
    );
    if config.budget.is_zero() && config.max_cases.is_none() && !config.replay_only {
        return fail("verify: --budget-ms 0 needs --max-cases (or --replay-only)".into());
    }

    let report = verify::run(&config);

    if opts.has("json") {
        let failures_json: Vec<String> = report
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"check\":{:?},\"category\":{:?},\"case_seed\":{},\"vertices\":{},\
                     \"edges\":{},\"shrink_steps\":{},\"detail\":{:?}}}",
                    f.check,
                    f.category,
                    f.case_seed,
                    f.graph.n,
                    f.graph.num_edges(),
                    f.shrink_steps,
                    f.detail
                )
            })
            .collect();
        println!(
            "{{\"seed\":{},\"cases\":{},\"replayed\":{},\"solves\":{},\
             \"differential_checks\":{},\"metamorphic_checks\":{},\"elapsed_ms\":{:.1},\
             \"clean\":{},\"failures\":[{}]}}",
            config.seed,
            report.cases,
            report.replayed,
            report.solves,
            report.differential_checks,
            report.metamorphic_checks,
            report.elapsed.as_secs_f64() * 1e3,
            report.is_clean(),
            failures_json.join(",")
        );
    } else {
        println!(
            "verify: seed {}, {} regression case(s) replayed, {} case(s) generated \
             in {:.1} s",
            config.seed,
            report.replayed,
            report.cases,
            report.elapsed.as_secs_f64()
        );
        println!(
            "checked {} differential lane(s) and {} metamorphic relation(s) \
             across {} solver run(s)",
            report.differential_checks, report.metamorphic_checks, report.solves
        );
        if report.is_clean() {
            println!("clean: zero lane disagreements, zero metamorphic violations");
        } else {
            for f in &report.failures {
                println!();
                println!("FAILED: {}", f.check);
                println!(
                    "  category {}, case seed {}, shrunk to {} vertices / {} edges \
                     in {} step(s)",
                    f.category,
                    f.case_seed,
                    f.graph.n,
                    f.graph.num_edges(),
                    f.shrink_steps
                );
                println!("  {}", f.detail);
                match &f.persisted {
                    Some(path) => println!("  reproducer: {}", path.display()),
                    None => {
                        for line in verify::corpus::render_graph(&f.graph).lines() {
                            println!("    {line}");
                        }
                    }
                }
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    use gpu_max_clique::serve::{loadgen, LoadConfig, ServeConfig, SolveService};

    let opts = match Options::parse(args, "serve", SERVE_FLAGS) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };

    // Environment knobs (GMC_SERVE_POOL / _QUEUE / _CACHE_MB) are the
    // baseline; explicit flags override them.
    let mut config = ServeConfig::from_env();
    match opts.get_parsed::<usize>("pool") {
        Ok(Some(pool)) => config = config.pool(pool),
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<usize>("queue") {
        Ok(Some(depth)) => config = config.queue_depth(depth),
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<usize>("cache-mb") {
        Ok(Some(mb)) => config = config.cache_bytes(mb << 20),
        Ok(None) => {}
        Err(e) => return fail(e),
    }
    match opts.get_parsed::<usize>("budget-mb") {
        Ok(Some(mb)) => config = config.device_bytes(mb << 20),
        Ok(None) => {}
        Err(e) => return fail(e),
    }

    let mut load = LoadConfig::default();
    let parse = |name: &str, slot: &mut usize| -> Result<(), String> {
        if let Some(v) = opts.get_parsed::<usize>(name)? {
            *slot = v;
        }
        Ok(())
    };
    if let Err(e) = parse("jobs", &mut load.unique)
        .and_then(|()| parse("repeats", &mut load.repeats))
        .and_then(|()| parse("deadline-jobs", &mut load.deadline_jobs))
        .and_then(|()| parse("vertices", &mut load.vertices))
    {
        return fail(e);
    }
    match opts.get_parsed::<u64>("seed") {
        Ok(Some(seed)) => load.seed = seed,
        Ok(None) => {}
        Err(e) => return fail(e),
    }

    let service = SolveService::start(config);
    let started = std::time::Instant::now();
    let report = loadgen::run(&service, &load);
    let wall = started.elapsed();
    let stats = service.shutdown();

    if !report.bit_identical {
        eprintln!("FAILED: a served result diverged from the standalone solve");
        return ExitCode::FAILURE;
    }

    if opts.has("json") {
        println!(
            "{{\"total_jobs\":{},\"unique_jobs\":{},\"repeat_jobs\":{},\"deadline_jobs\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"hit_rate\":{:.4},\"cancellations\":{},\
             \"bit_identical\":{},\"launches\":{},\"oracle_queries\":{},\
             \"queue_wait_p50_ns\":{},\"queue_wait_p99_ns\":{},\"throughput_jobs_per_s\":{:.2}}}",
            report.total_jobs,
            report.unique_jobs,
            report.repeat_jobs,
            report.deadline_jobs,
            report.cache_hits,
            report.cache_misses,
            report.hit_rate(),
            report.cancellations,
            report.bit_identical,
            stats.launches,
            stats.oracle_queries,
            stats.queue_wait_ns(0.5),
            stats.queue_wait_ns(0.99),
            stats.throughput(wall),
        );
    } else {
        println!(
            "served {} jobs in {:.1} ms ({:.1} jobs/s): {} hits / {} misses \
             (hit rate {:.0}%), {} cancelled at deadline",
            report.total_jobs,
            wall.as_secs_f64() * 1e3,
            stats.throughput(wall),
            report.cache_hits,
            report.cache_misses,
            100.0 * report.hit_rate(),
            report.cancellations,
        );
        println!(
            "every served result matched the standalone solve bit for bit \
             (clique numbers: {:?})",
            report.clique_numbers
        );
        println!(
            "queue wait p50 {:.1} µs, p99 {:.1} µs; {} launches, {} oracle queries; \
             cache holds {} entries / {:.1} KiB",
            stats.queue_wait_ns(0.5) as f64 / 1e3,
            stats.queue_wait_ns(0.99) as f64 / 1e3,
            stats.launches,
            stats.oracle_queries,
            stats.cache_entries,
            stats.cache_bytes as f64 / 1024.0,
        );
    }
    ExitCode::SUCCESS
}
