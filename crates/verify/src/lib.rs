//! # gmc-verify: differential + metamorphic fuzzing for the clique solvers
//!
//! The workspace's central correctness claim is that every solver variant —
//! breadth-first expansion under any combination of fused/unfused pipeline,
//! local-bits mode, launch schedule, windowing mode and worker count, the
//! PMC-style depth-first baseline, and the sequential reference oracle —
//! computes the *same* maximum cliques. The hand-written property tests in
//! `tests/` spot-check pairs of configurations; this crate turns the claim
//! into standing tooling:
//!
//! * **Generation** ([`gen`]) — seeded adversarial graphs: planted cliques,
//!   near-regular cores (Moon–Moser multipartite), wheels, disjoint unions,
//!   complements, and corpus-category mutants, all driven by
//!   [`gmc_dpp::Rng`].
//! * **Differential lanes** ([`lanes`]) — each case runs through a seeded
//!   selection of BFS configurations plus `gmc_pmc` and the
//!   [`ReferenceEnumerator`](gmc_pmc::ReferenceEnumerator) oracle, asserting
//!   identical clique numbers, identical clique *sets* for enumerating
//!   lanes, and the exact counter invariants (fault-free `oracle_queries +
//!   probes_avoided == scalar_queries`, `recovered == injected`,
//!   `live() == 0` after cancellation).
//! * **Metamorphic relations** ([`checks`]) — vertex-relabeling invariance,
//!   planted k-clique ⇒ ω ≥ k, disjoint union ⇒ ω = max, edge deletion ⇒
//!   ω non-increasing, universal vertex ⇒ ω + 1, and capacity / fault-plan
//!   changes that don't OOM ⇒ bit-identical output.
//! * **Shrinking** ([`shrink`]) — failures are greedily minimised by
//!   dropping vertices and edges while the disagreement still reproduces.
//! * **Regression corpus** ([`corpus`]) — shrunk counterexamples persist as
//!   replayable graph files under `tests/regressions/`; every run replays
//!   the corpus *first*, so a once-found bug can never silently return.
//!
//! The harness is exposed as `gmc verify --seed S --budget-ms N` on the CLI
//! and as the `verify-smoke` CI job. A deliberately broken solver can be
//! simulated with the test-only [`Sabotage`] hook, which the integration
//! suite uses to prove the harness catches and shrinks real disagreements.

#![warn(missing_docs)]

pub mod checks;
pub mod corpus;
pub mod gen;
pub mod lanes;
pub mod shrink;

pub use checks::Check;
pub use lanes::{LaneSpec, WindowSpec};

use gmc_dpp::Rng;
use gmc_graph::Csr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A case graph in plain edge-list form — the representation every stage
/// (generation, checking, shrinking, persistence) agrees on. Edges are
/// undirected `(u, v)` pairs with `u < v`, deduplicated and sorted, so two
/// structurally equal cases compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CaseGraph {
    /// Number of vertices (vertex ids are `0..n`).
    pub n: usize,
    /// Undirected edges, canonicalised: `u < v`, sorted, deduplicated.
    pub edges: Vec<(u32, u32)>,
}

impl CaseGraph {
    /// A case over `n` vertices with the given edges, canonicalised
    /// (self-loops dropped, endpoints ordered, duplicates removed).
    pub fn new(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(u, v)| u != v && (u as usize) < n && (v as usize) < n)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Self { n, edges }
    }

    /// Rebuilds the case from a CSR graph.
    pub fn from_csr(graph: &Csr) -> Self {
        let mut edges = Vec::with_capacity(graph.num_edges());
        for u in 0..graph.num_vertices() as u32 {
            for &v in graph.neighbors(u) {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        Self::new(graph.num_vertices(), edges)
    }

    /// Materialises the CSR the solvers consume.
    pub fn to_csr(&self) -> Csr {
        Csr::from_edges(self.n, &self.edges)
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// A deliberate, test-only corruption of every BFS lane's output — the
/// "broken solver mutation" hook. The harness must catch each mode as a
/// lane disagreement and shrink it to a tiny reproducer; nothing in the
/// production solve path ever consults this. `None` everywhere outside the
/// harness's own tests and the CLI's explicitly-requested self-test mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Drop all tie cliques from enumeration results, keeping only the
    /// lexicographically first — breaks complete enumeration whenever the
    /// maximum clique is not unique (minimal reproducer: two vertices, no
    /// edges — two tied 1-cliques).
    DropTies,
    /// Under-report the clique number by one (and truncate every witness)
    /// whenever ω ≥ 3 — breaks the clique number itself (minimal
    /// reproducer: a triangle).
    UnderReport,
}

impl std::str::FromStr for Sabotage {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "drop-ties" => Ok(Sabotage::DropTies),
            "under-report" => Ok(Sabotage::UnderReport),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for Sabotage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Sabotage::DropTies => "drop-ties",
            Sabotage::UnderReport => "under-report",
        })
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Master seed: the whole run — graphs, lane selection, auxiliary
    /// randomness — is a pure function of it.
    pub seed: u64,
    /// Wall-clock budget for the generation loop (replay of the regression
    /// corpus always runs to completion first and does not count against
    /// it). [`Duration::ZERO`] disables the time limit; `max_cases` then
    /// bounds the run.
    pub budget: Duration,
    /// Hard cap on generated cases (`None` = budget-bounded only).
    pub max_cases: Option<u64>,
    /// Stop after collecting this many distinct failures.
    pub max_failures: usize,
    /// Regression corpus directory. When set, every `*.case` file in it is
    /// replayed before generation, and new shrunk failures are persisted
    /// into it (unless `persist_failures` is off).
    pub regressions_dir: Option<PathBuf>,
    /// Write newly found (shrunk) failures into `regressions_dir`.
    pub persist_failures: bool,
    /// Skip generation entirely: replay the regression corpus and stop.
    pub replay_only: bool,
    /// Test-only broken-solver hook (see [`Sabotage`]).
    pub sabotage: Option<Sabotage>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            seed: 0xD1FF_F52E,
            budget: Duration::from_millis(10_000),
            max_cases: None,
            max_failures: 8,
            regressions_dir: None,
            persist_failures: true,
            replay_only: false,
            sabotage: None,
        }
    }
}

impl VerifyConfig {
    /// Defaults overridden by `GMC_VERIFY_SEED` and `GMC_VERIFY_BUDGET_MS`
    /// (fail-loud parsing via [`gmc_trace::env`]).
    pub fn from_env() -> Self {
        let mut config = Self::default();
        config.seed = gmc_trace::env::parse_or("GMC_VERIFY_SEED", config.seed);
        let budget_ms: u64 =
            gmc_trace::env::parse_or("GMC_VERIFY_BUDGET_MS", config.budget.as_millis() as u64);
        config.budget = Duration::from_millis(budget_ms);
        config
    }
}

/// One caught (and shrunk) disagreement.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The check that failed, e.g. `differential: bfs[unfused,on,static,w2]
    /// vs oracle`.
    pub check: String,
    /// Generator category (or `regression`/`replay` provenance).
    pub category: String,
    /// Case seed the failing graph was generated from (0 for replays).
    pub case_seed: u64,
    /// The minimised counterexample.
    pub graph: CaseGraph,
    /// Accepted shrink steps between the original and minimal graph.
    pub shrink_steps: u32,
    /// The failing assertion's message on the minimal graph.
    pub detail: String,
    /// Where the reproducer was persisted, when it was.
    pub persisted: Option<PathBuf>,
}

/// Aggregate outcome of one harness run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Generated cases executed.
    pub cases: u64,
    /// Regression-corpus cases replayed before generation.
    pub replayed: u64,
    /// Differential lane comparisons performed (each compares one solver
    /// lane against the freshly computed oracle).
    pub differential_checks: u64,
    /// Metamorphic relations checked.
    pub metamorphic_checks: u64,
    /// Total solver invocations (all lanes, twins, metamorphic re-solves).
    pub solves: u64,
    /// Disagreements found, shrunk and recorded.
    pub failures: Vec<Failure>,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

impl VerifyReport {
    /// `true` when no lane disagreement or metamorphic violation was found.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Shared mutable tallies threaded through every check evaluation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Differential lane comparisons performed.
    pub differential: u64,
    /// Metamorphic relations checked.
    pub metamorphic: u64,
    /// Solver invocations made.
    pub solves: u64,
}

/// Runs the harness: replay the regression corpus, then generate and check
/// seeded adversarial cases until the budget, case cap or failure cap is
/// reached.
pub fn run(config: &VerifyConfig) -> VerifyReport {
    let start = Instant::now();
    let mut report = VerifyReport::default();
    let mut tally = Tally::default();

    // Phase 1: replay the persistent regression corpus first — a previously
    // shrunk counterexample must stay fixed before any new fuzzing counts.
    if let Some(dir) = &config.regressions_dir {
        for (path, graph) in corpus::load_all(dir) {
            report.replayed += 1;
            let category = format!("replay:{}", path.file_name().unwrap().to_string_lossy());
            run_case_battery(
                config,
                &mut report,
                &mut tally,
                graph,
                0,
                &category,
                // Replays are already minimal; re-shrinking is cheap and
                // keeps the reported reproducer tight if the corpus file
                // was edited by hand.
                true,
            );
            if report.failures.len() >= config.max_failures {
                break;
            }
        }
    }

    // Phase 2: budgeted generation loop.
    let deadline = (!config.budget.is_zero()).then(|| start + config.budget);
    if !config.replay_only {
        let mut case_index = 0u64;
        loop {
            if report.failures.len() >= config.max_failures {
                break;
            }
            if let Some(cap) = config.max_cases {
                if case_index >= cap {
                    break;
                }
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    break;
                }
            } else if config.max_cases.is_none() {
                // No budget and no cap would loop forever; refuse.
                break;
            }
            let case_seed = config
                .seed
                .wrapping_add(case_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = Rng::seed_from_u64(case_seed);
            let (graph, category) = gen::sample(&mut rng);
            run_case_battery(
                config,
                &mut report,
                &mut tally,
                graph,
                case_seed,
                category,
                false,
            );
            report.cases += 1;
            case_index += 1;
        }
    }

    report.differential_checks = tally.differential;
    report.metamorphic_checks = tally.metamorphic;
    report.solves = tally.solves;
    report.elapsed = start.elapsed();
    report
}

/// Runs the full check battery for one graph; failing checks are shrunk,
/// recorded and (optionally) persisted.
#[allow(clippy::too_many_arguments)] // internal plumbing, not API
fn run_case_battery(
    config: &VerifyConfig,
    report: &mut VerifyReport,
    tally: &mut Tally,
    graph: CaseGraph,
    case_seed: u64,
    category: &str,
    replay: bool,
) {
    let mut rng = Rng::seed_from_u64(case_seed ^ 0xC0DE_C0DE);
    let battery = checks::battery(&mut rng, replay);
    for check in battery {
        let outcome = checks::eval(&check, &graph, config.sabotage, tally);
        let Err(detail) = outcome else { continue };
        // Shrink while this exact check still fails. Each probe re-runs
        // solver lanes, so bound the work by steps and wall clock.
        let shrink_deadline = Instant::now() + Duration::from_secs(10);
        let (minimal, steps) = shrink::shrink_graph(
            graph.clone(),
            |candidate| {
                checks::eval(&check, candidate, config.sabotage, tally)
                    .err()
                    .map(|_| true)
                    .unwrap_or(false)
            },
            256,
            shrink_deadline,
        );
        let final_detail = checks::eval(&check, &minimal, config.sabotage, tally)
            .err()
            .unwrap_or(detail);
        let mut failure = Failure {
            check: check.name(),
            category: category.to_string(),
            case_seed,
            graph: minimal,
            shrink_steps: steps,
            detail: final_detail,
            persisted: None,
        };
        if config.persist_failures && !replay {
            if let Some(dir) = &config.regressions_dir {
                failure.persisted = corpus::save(dir, &failure).ok();
            }
        }
        report.failures.push(failure);
        if report.failures.len() >= config.max_failures {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_graph_canonicalises() {
        let g = CaseGraph::new(4, vec![(2, 1), (1, 2), (3, 3), (0, 3), (9, 1)]);
        assert_eq!(g.edges, vec![(0, 3), (1, 2)]);
        let csr = g.to_csr();
        assert_eq!(CaseGraph::from_csr(&csr), g);
    }

    #[test]
    fn sabotage_parses_and_displays() {
        use std::str::FromStr;
        for s in [Sabotage::DropTies, Sabotage::UnderReport] {
            assert_eq!(Sabotage::from_str(&s.to_string()), Ok(s));
        }
        assert!(Sabotage::from_str("fine").is_err());
    }

    #[test]
    fn zero_budget_without_case_cap_terminates() {
        let config = VerifyConfig {
            budget: Duration::ZERO,
            max_cases: None,
            ..VerifyConfig::default()
        };
        let report = run(&config);
        assert_eq!(report.cases, 0);
        assert!(report.is_clean());
    }
}
