use gmc_dpp::{FaultPlan, Schedule, Tracer};
use gmc_heuristic::HeuristicKind;

/// Which directed arc of each undirected edge survives orientation
/// (paper §IV-C). Degree orientation makes low-degree vertices the sources,
/// shortening average sublists and improving the sublist-length cut; index
/// orientation is the ablation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrientationRule {
    /// Keep the arc whose source is lower in (degree, index) order — the
    /// paper's choice.
    #[default]
    Degree,
    /// Keep the arc whose source has the lower vertex index.
    Index,
}

/// Which edge-membership structure the expansion kernels use (paper §III-3
/// compares exactly these three; the paper picks binary search for its
/// memory economy on large graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeIndexKind {
    /// Binary search on the CSR's sorted adjacency lists — `O(log d)` per
    /// lookup, no extra memory. The paper's choice.
    #[default]
    BinarySearch,
    /// Dense bitset adjacency matrix — O(1) lookups, `n²/8` bytes charged
    /// to device memory. Fast for small/dense graphs, prohibitive for
    /// large ones.
    Bitset,
    /// Open-addressing edge hash table — O(1) expected lookups, `O(|E|)`
    /// extra bytes charged to device memory (Lessley et al.'s choice).
    Hash,
    /// Bitset when `n²/8` fits comfortably (≤ 16 MiB and within a quarter
    /// of the device budget), binary search otherwise — the "choose by
    /// input size" policy of several prior solvers the paper cites.
    Auto,
}

/// The adjacency-bitmap policy of the fused count kernel.
///
/// The one bitmap is the `n_core × n_core` core-graph bitmap
/// ([`gmc_graph::CoreBitmap`]), built once right after setup pruning and
/// probed for the *entire* solve: every successor-adjacency test is a
/// single word test, with no per-level rebuilds. Without it, every tail
/// walks the bound-directed scalar record-and-replay path against the
/// [`EdgeOracle`].
///
/// Settable from the environment via `GMC_LOCAL_BITS=on|off|auto` (picked
/// up by [`SolverConfig::default`]).
///
/// [`EdgeOracle`]: gmc_graph::EdgeOracle
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalBitsMode {
    /// Always try the core bitmap. A failed charge or build (device OOM,
    /// or an injected fault) degrades the solve to the scalar walk — it
    /// never aborts it.
    On,
    /// Never build the core bitmap: every tail walks the scalar
    /// record-and-replay path (the PR 2 fused pipeline, bit for bit).
    Off,
    /// Budget-directed policy (the default): the core bitmap when its
    /// `n_core²/8 + 4·n` bytes fit comfortably (≤ 16 MiB and within a
    /// quarter of the device budget — the same gate as
    /// [`EdgeIndexKind::Auto`]), the scalar walk otherwise. Degrades like
    /// [`On`](LocalBitsMode::On) when the build fails.
    #[default]
    Auto,
}

impl std::str::FromStr for LocalBitsMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "on" | "1" | "true" => Ok(LocalBitsMode::On),
            "off" | "0" | "false" => Ok(LocalBitsMode::Off),
            "auto" => Ok(LocalBitsMode::Auto),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for LocalBitsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LocalBitsMode::On => "on",
            LocalBitsMode::Off => "off",
            LocalBitsMode::Auto => "auto",
        })
    }
}

impl LocalBitsMode {
    /// Reads `GMC_LOCAL_BITS` (`on`/`off`/`auto`), defaulting
    /// to [`Auto`] when unset and panicking loudly on a typo (fail-loud
    /// policy of `gmc_trace::env`).
    ///
    /// [`Auto`]: LocalBitsMode::Auto
    pub fn from_env() -> Self {
        gmc_trace::env::parse_or("GMC_LOCAL_BITS", LocalBitsMode::Auto)
    }
}

/// Upper bound used when pruning whole sublists at setup (paper §II-B3: the
/// straightforward bound is `|C| + |P|`; "we can find a tighter upper bound
/// using other metrics, such as vertex coloring").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SublistBound {
    /// `|C| + |P|`: a sublist survives if it has at least `ω̄ − 1`
    /// candidates — the paper's choice (cheap, computed from lengths).
    #[default]
    Length,
    /// Greedy-colouring bound: a sublist survives if its candidates need at
    /// least `ω̄ − 1` colours. Strictly tighter (a clique of size `s` needs
    /// `s` colours) at `O(L²)` extra edge checks per sublist — the
    /// preprocessing/pruning trade-off several of the paper's cited
    /// implementations pick.
    Coloring,
}

/// Ordering of candidate vertices within each sublist of the 2-clique list
/// (paper §IV-C, final preprocessing step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CandidateOrder {
    /// Adjacency-list order (ascending vertex index). With randomized vertex
    /// ids this is effectively a random order.
    Index,
    /// Ascending degree: moves missing-edge lookups earlier (pruning sooner)
    /// and routes more binary searches into short adjacency lists — the
    /// paper's recommended ordering.
    #[default]
    DegreeAscending,
}

/// Ordering of sublists (by their source vertex) before windows are cut
/// (paper §V-C tests these four).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowOrdering {
    /// Leave sublists in source-vertex index order.
    #[default]
    Index,
    /// Search the least-connected sources first.
    DegreeAscending,
    /// Search the most-connected sources first (paper: costs the most
    /// memory).
    DegreeDescending,
    /// Seeded random shuffle of sublists.
    Random(u64),
}

/// Configuration of the windowed search variant (paper §IV-E).
///
/// ```
/// use gmc_dpp::Device;
/// use gmc_graph::generators;
/// use gmc_mce::{MaxCliqueSolver, WindowConfig};
///
/// let graph = generators::complete(6);
/// let result = MaxCliqueSolver::new(Device::unlimited())
///     .windowed(WindowConfig::with_size(4).recursive(3))
///     .solve(&graph)
///     .unwrap();
/// assert_eq!(result.clique_number, 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Nominal window size in 2-clique entries; actual windows snap to
    /// sublist boundaries. The paper sweeps 1024..32768. `0` selects
    /// automatic sizing: windows grow sublist by sublist until the
    /// Moon–Moser bound on their worst-case subtree reaches a quarter of
    /// the device budget — the sizing rule of Wei et al. that the paper's
    /// windowing section builds on (§III-1).
    pub size: usize,
    /// How sublists are ordered before windows are cut.
    pub ordering: WindowOrdering,
    /// `false` (paper's mode): find one maximum clique, pruning strictly
    /// against the best size found so far. `true`: keep ties so that all
    /// maximum cliques are still enumerated, window by window.
    pub enumerate_all: bool,
    /// Recursion depth for *recursive windowing* (paper §V-C3, sketched as
    /// future work): `1` windows only the 2-clique list (the paper's
    /// implementation); larger values let a window that runs out of memory
    /// be split, and a single over-large sublist be re-windowed one search
    /// level deeper, recursively.
    pub max_depth: usize,
    /// Top-level windows processed concurrently — the paper's other §V-C3
    /// sketch ("multiple windows could be explored simultaneously by
    /// different thread blocks"). `1` (the paper's implementation) keeps the
    /// strictly sequential window loop. Larger values share the incumbent
    /// across in-flight windows; all concurrent windows charge the same
    /// device budget, trading memory back for parallel work. The clique
    /// *set* is unchanged; in find-one mode the particular witness returned
    /// may vary between runs when several maximum cliques exist.
    pub parallel_windows: usize,
}

impl WindowConfig {
    /// A find-one window configuration with default ordering.
    pub fn with_size(size: usize) -> Self {
        Self {
            size,
            ordering: WindowOrdering::default(),
            enumerate_all: false,
            max_depth: 1,
            parallel_windows: 1,
        }
    }

    /// Processes up to `count` top-level windows concurrently.
    pub fn parallel(mut self, count: usize) -> Self {
        self.parallel_windows = count.max(1);
        self
    }

    /// Enables recursive windowing down to `depth` levels.
    pub fn recursive(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Automatic window sizing from the device budget via the Moon–Moser
    /// bound (see [`WindowConfig::size`]).
    pub fn auto() -> Self {
        Self {
            size: 0,
            ..Self::default()
        }
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self::with_size(32_768)
    }
}

/// Full solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Lower-bound heuristic run before the exact search.
    pub heuristic: HeuristicKind,
    /// Seed count `h` for multi-run heuristics (`None` = all vertices).
    pub heuristic_seeds: Option<usize>,
    /// Edge orientation rule.
    pub orientation: OrientationRule,
    /// Edge-membership structure for the expansion kernels.
    pub edge_index: EdgeIndexKind,
    /// Candidate ordering within sublists.
    pub candidate_order: CandidateOrder,
    /// Sublist pruning bound at setup.
    pub sublist_bound: SublistBound,
    /// Apply (1,2)-interchange local search to the heuristic witness before
    /// the exact phase — a cheap bound improvement beyond the paper's greedy
    /// heuristics (§II-B1's preprocessing/quality ladder). Off by default to
    /// match the paper's configurations.
    pub polish_witness: bool,
    /// Windowed search; `None` runs the full breadth-first search.
    pub window: Option<WindowConfig>,
    /// Allow the search to stop as soon as the surviving candidates provably
    /// form the unique remaining maximum clique (paper Algorithm 2 line 36).
    pub early_exit: bool,
    /// Use the fused expansion pipeline: the count kernel records adjacency
    /// bitmasks the output kernel replays (instead of re-querying the edge
    /// oracle), with a single-pass scan and arena-recycled level scratch.
    /// `false` selects the paper-literal count → scan → re-walk pipeline —
    /// kept as the ablation baseline.
    pub fused: bool,
    /// Whether the fused count kernel probes the solve-lifetime core
    /// bitmap or walks the edge oracle (no effect on the unfused
    /// pipeline). See [`LocalBitsMode`].
    pub local_bits: LocalBitsMode,
    /// How the executor maps launches onto workers for the duration of the
    /// solve: the solver installs this [`Schedule`] on the device executor
    /// and restores the previous one afterwards. The clique set is
    /// bit-identical under both schedules; `Auto` only rebalances
    /// cost-weighted launches across workers. Defaults to `GMC_SCHED`
    /// (`static`/`auto`) or [`Schedule::Auto`] when unset.
    pub schedule: Schedule,
    /// Recording handle for profiling: the solver installs it on the
    /// device's executor and memory accountant for the duration of each
    /// solve, and wraps every phase, BFS level and window in spans.
    /// Disabled by default (cost: one branch per instrumented site).
    pub trace: Tracer,
    /// Deterministic fault injection: when set to an active plan, the
    /// solver arms a [`gmc_dpp::FaultInjector`] on the device for the
    /// expansion phase, making allocations and launches fail at the plan's
    /// rates; the recovery ladder (arena release → window shrink → core
    /// bitmap→scalar fallback) must then reproduce the fault-free clique
    /// set bit for bit. Defaults to `GMC_FAULTS`
    /// (`seed=S,alloc=R,launch=R,retries=N`) or `None` when unset.
    pub faults: Option<FaultPlan>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            heuristic: HeuristicKind::MultiDegree,
            heuristic_seeds: None,
            orientation: OrientationRule::Degree,
            edge_index: EdgeIndexKind::BinarySearch,
            candidate_order: CandidateOrder::DegreeAscending,
            sublist_bound: SublistBound::Length,
            polish_witness: false,
            window: None,
            early_exit: true,
            fused: true,
            local_bits: LocalBitsMode::from_env(),
            schedule: Schedule::from_env(),
            trace: Tracer::disabled(),
            faults: FaultPlan::from_env(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendations() {
        let cfg = SolverConfig::default();
        assert_eq!(cfg.heuristic, HeuristicKind::MultiDegree);
        assert_eq!(cfg.candidate_order, CandidateOrder::DegreeAscending);
        assert!(cfg.window.is_none());
        assert!(cfg.early_exit);
        assert!(cfg.fused);
        // Default Auto unless the environment overrides it (CI ablation
        // jobs may set GMC_LOCAL_BITS / GMC_SCHED; respect what they say).
        assert_eq!(cfg.local_bits, LocalBitsMode::from_env());
        assert_eq!(cfg.schedule, Schedule::from_env());
        assert!(!cfg.trace.is_enabled());
    }

    #[test]
    fn local_bits_mode_parses_and_displays() {
        use std::str::FromStr;
        for (raw, want) in [
            ("on", LocalBitsMode::On),
            ("ON", LocalBitsMode::On),
            ("1", LocalBitsMode::On),
            ("off", LocalBitsMode::Off),
            ("0", LocalBitsMode::Off),
            ("auto", LocalBitsMode::Auto),
        ] {
            assert_eq!(LocalBitsMode::from_str(raw), Ok(want), "{raw}");
            // Display round-trips through FromStr.
            assert_eq!(LocalBitsMode::from_str(&want.to_string()), Ok(want));
        }
        // The removed `persistent` spelling (now `on`) fails loudly.
        for bad in ["persistent", "PERSISTENT", "banana"] {
            assert!(LocalBitsMode::from_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn window_config_builders() {
        let w = WindowConfig::with_size(1024);
        assert_eq!(w.size, 1024);
        assert!(!w.enumerate_all);
        assert_eq!(WindowConfig::default().size, 32_768);
    }
}
