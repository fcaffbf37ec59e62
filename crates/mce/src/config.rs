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

/// The edge-membership structure a solve probes when it builds no core
/// bitmap: binary search on the CSR's sorted adjacency lists, the paper's
/// choice (§III-3).
///
/// There is no menu. A solve probes exactly one structure: the core bitmap
/// when [`SolverConfig::builds_core_bitmap`] builds one, the CSR
/// otherwise. This single-valued type and [`SolverConfig::edge_index`]
/// remain only so that callers which set them, such as the `perfbench/`
/// benchmark, keep compiling; neither has any effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeIndexKind {
    /// Binary search on the CSR's sorted adjacency lists — `O(log d)` per
    /// lookup, no extra memory.
    #[default]
    BinarySearch,
}

/// The core-bitmap policy of the fused pipeline.
///
/// The one bitmap is the `n_core × n_core` core-graph bitmap
/// ([`gmc_graph::CoreBitmap`]), built once right after setup pruning and
/// probed for the *entire* solve: every successor-adjacency test is a
/// single word test, with no per-level rebuilds. Without it, every probe is
/// a binary search on the CSR. [`SolverConfig::builds_core_bitmap`] is the
/// one place that applies this policy.
///
/// Settable from the environment via `GMC_LOCAL_BITS=on|off|auto` (picked
/// up by [`SolverConfig::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalBitsMode {
    /// Always try the core bitmap. A failed charge or build (device OOM,
    /// or an injected fault) degrades the solve to the scalar walk — it
    /// never aborts it.
    On,
    /// Never build the core bitmap: every tail walks the scalar
    /// record-and-replay path against the CSR.
    Off,
    /// Priced policy (the default): the core bitmap when the first BFS
    /// level's walk bound makes at least one probe per byte of its
    /// `n_core²/8 + 4·n` footprint, and that footprint fits comfortably —
    /// at most 16 MiB and at most a quarter of the device budget, see
    /// [`SolverConfig::builds_core_bitmap`] — the scalar walk otherwise.
    /// Degrades like [`On`](LocalBitsMode::On) when the build fails.
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

/// The largest core bitmap, in bytes, that [`LocalBitsMode::Auto`] builds.
const CORE_BITMAP_AUTO_MAX_BYTES: usize = 16 << 20;

/// The price [`LocalBitsMode::Auto`] asks of a core bitmap: first-level
/// probes per footprint byte. The build writes every byte, and each probe
/// the bitmap answers saves one CSR binary search; below one probe per
/// byte the build costs more than the probes win back (EXPERIMENTS.md has
/// the per-graph record).
const CORE_BITMAP_AUTO_MIN_PROBES_PER_BYTE: u64 = 1;

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

/// Configuration of the windowed search variant (paper §IV-E). Windows are
/// expanded one at a time, in order.
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
}

impl WindowConfig {
    /// A find-one window configuration with default ordering.
    pub fn with_size(size: usize) -> Self {
        Self {
            size,
            ordering: WindowOrdering::default(),
            enumerate_all: false,
            max_depth: 1,
        }
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
    /// Has no effect: see [`EdgeIndexKind`].
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
    /// Whether the fused pipeline probes the solve-lifetime core bitmap or
    /// the CSR (the unfused pipeline always probes the CSR). See
    /// [`LocalBitsMode`].
    pub local_bits: LocalBitsMode,
    /// Has no effect: the executor maps every pooled launch onto its
    /// workers one contiguous chunk each. This single-valued field and
    /// [`Schedule`] remain only so that callers which set them, such as the
    /// `perfbench/` benchmark, keep compiling.
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

impl SolverConfig {
    /// Whether a solve under this configuration builds a core bitmap of
    /// `footprint` bytes on a device of `capacity` bytes, when its first
    /// BFS level walks `first_level_walk` probes
    /// ([`SetupStats::first_level_walk`]): the one home of the core-bitmap
    /// policy, shared by the solver and by `gmc-serve`'s admission control.
    ///
    /// Only the fused pipeline probes a core bitmap. [`LocalBitsMode::On`]
    /// always builds it and [`LocalBitsMode::Off`] never does;
    /// [`LocalBitsMode::Auto`] builds it when both limits hold:
    ///
    /// * price: the walk makes at least one probe per footprint byte;
    /// * budget: the footprint is at most 16 MiB and at most a quarter of
    ///   `capacity`.
    ///
    /// A caller that runs before setup passes `u64::MAX` as the walk, which
    /// leaves the budget limit alone to decide. A build that then fails
    /// degrades the solve to the CSR walk.
    ///
    /// [`SetupStats::first_level_walk`]: crate::SetupStats::first_level_walk
    pub fn builds_core_bitmap(
        &self,
        footprint: usize,
        capacity: usize,
        first_level_walk: u64,
    ) -> bool {
        self.fused
            && match self.local_bits {
                LocalBitsMode::On => true,
                LocalBitsMode::Auto => {
                    first_level_walk
                        >= (footprint as u64).saturating_mul(CORE_BITMAP_AUTO_MIN_PROBES_PER_BYTE)
                        && footprint <= CORE_BITMAP_AUTO_MAX_BYTES.min(capacity / 4)
                }
                LocalBitsMode::Off => false,
            }
    }
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
            schedule: Schedule::Auto,
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
        // jobs may set GMC_LOCAL_BITS; respect what they say).
        assert_eq!(cfg.local_bits, LocalBitsMode::from_env());
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
    fn core_bitmap_gate_holds_at_each_limit_and_fails_one_byte_over() {
        let config = |local_bits: LocalBitsMode, fused: bool| SolverConfig {
            local_bits,
            fused,
            ..SolverConfig::default()
        };
        let auto = config(LocalBitsMode::Auto, true);
        // An unknown walk (`u64::MAX`, admission before setup) leaves the
        // budget limits alone to decide.
        let unknown = u64::MAX;
        // The quarter-of-capacity limit.
        assert!(auto.builds_core_bitmap(1000, 4000, unknown));
        assert!(!auto.builds_core_bitmap(1001, 4000, unknown));
        // The absolute limit, on a device too large for the quarter to bind.
        let max = CORE_BITMAP_AUTO_MAX_BYTES;
        assert!(auto.builds_core_bitmap(max, usize::MAX, unknown));
        assert!(!auto.builds_core_bitmap(max + 1, usize::MAX, unknown));
        // The price limit: one first-level probe per footprint byte, at
        // either budget limit.
        assert_eq!(CORE_BITMAP_AUTO_MIN_PROBES_PER_BYTE, 1);
        assert!(auto.builds_core_bitmap(1000, 4000, 1000));
        assert!(!auto.builds_core_bitmap(1000, 4000, 999));
        assert!(auto.builds_core_bitmap(max, usize::MAX, max as u64));
        assert!(!auto.builds_core_bitmap(max, usize::MAX, max as u64 - 1));
        // A walk that pays does not rescue a footprint over budget.
        assert!(!auto.builds_core_bitmap(1001, 4000, 1 << 40));
        // `On` ignores every limit, `Off` and the unfused pipeline never
        // build, whatever the walk.
        for walk in [0, 1, unknown] {
            assert!(config(LocalBitsMode::On, true).builds_core_bitmap(max + 1, 4000, walk));
            assert!(!config(LocalBitsMode::Off, true).builds_core_bitmap(0, usize::MAX, walk));
            assert!(!config(LocalBitsMode::On, false).builds_core_bitmap(0, usize::MAX, walk));
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
