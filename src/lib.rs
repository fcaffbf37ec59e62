//! # gpu_max_clique
//!
//! A from-scratch Rust reproduction of *Maximum Clique Enumeration on the
//! GPU* (Geil, Porumbescu, Owens; 2023): a breadth-first, data-parallel
//! maximum clique enumeration engine, its pruning heuristics, the windowed
//! search variant, a PMC-style depth-first baseline, and a virtual-GPU
//! execution substrate that models kernel launches and device-memory limits.
//!
//! This facade crate re-exports the whole toolkit. See the individual crates
//! for details:
//!
//! * [`dpp`] — virtual-GPU executor, CUB-style primitives, device memory.
//! * [`trace`] — runtime-gated tracing/profiling: per-worker event rings,
//!   Chrome-trace/Perfetto JSON, latency tables, folded stacks.
//! * [`graph`] — CSR graphs, loaders, generators, k-core decomposition.
//! * [`cliquelist`] — the paper's clique-list data structure (§IV-B).
//! * [`heuristic`] — greedy lower-bound heuristics (§IV-A, Algorithm 1).
//! * [`mce`] — the breadth-first solver and windowed search (§IV-C..E).
//! * [`pmc`] — depth-first branch-and-bound baseline and exact oracle.
//! * [`serve`] — batched solve service: executor pool, admission control,
//!   exact result cache, deadline cancellation.
//! * [`corpus`] — the synthetic 58-dataset evaluation corpus.
//! * [`verify`] — differential + metamorphic fuzzing harness with a
//!   persistent regression corpus (`gmc verify`).
//!
//! # Quickstart
//!
//! ```
//! use gpu_max_clique::prelude::*;
//!
//! // A graph with one triangle and one 4-clique.
//! let graph = Csr::from_edges(
//!     6,
//!     &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (2, 4), (2, 5)],
//! );
//! let device = Device::unlimited();
//! let result = MaxCliqueSolver::new(device)
//!     .solve(&graph)
//!     .expect("enumeration fits in memory");
//! assert_eq!(result.clique_number, 4);
//! assert_eq!(result.cliques, vec![vec![2, 3, 4, 5]]);
//! ```

#![warn(missing_docs)]

pub use gmc_cliquelist as cliquelist;
pub use gmc_corpus as corpus;
pub use gmc_dpp as dpp;
pub use gmc_graph as graph;
pub use gmc_heuristic as heuristic;
pub use gmc_mce as mce;
pub use gmc_pmc as pmc;
pub use gmc_serve as serve;
pub use gmc_trace as trace;
pub use gmc_verify as verify;

/// Commonly used items in one import.
pub mod prelude {
    pub use gmc_dpp::{Device, DeviceMemory, Executor, FaultPlan, FaultStats, Launch, Schedule};
    pub use gmc_graph::{Csr, EdgeOracle, GraphBuilder};
    pub use gmc_heuristic::HeuristicKind;
    pub use gmc_mce::{
        CandidateOrder, MaxCliqueSolver, OrientationRule, SolveError, SolveResult, SolverConfig,
        WindowConfig, WindowOrdering,
    };
    pub use gmc_pmc::{MaximalCliques, ParallelBranchBound, ReferenceEnumerator};
    pub use gmc_serve::{ServeConfig, ServeError, SolveJob, SolveService};
    pub use gmc_trace::{TraceSession, Tracer};
}
