//! # gmc-mce: breadth-first maximum clique enumeration
//!
//! The paper's primary contribution, reproduced on the `gmc-dpp` virtual
//! GPU. A solve proceeds through the same phases as the CUDA implementation
//! (§IV):
//!
//! 1. **Heuristic** — a greedy lower bound `ω̄` with witness (`gmc-heuristic`),
//!    optionally preceded by a k-core decomposition for tighter thresholds.
//! 2. **Setup** — degree orientation, vertex/sublist pre-pruning and
//!    2-clique list formation (§IV-C; counters in [`SetupStats`]).
//! 3. **Expansion** — the iterative count → scan → output loop over the
//!    clique-list levels (Algorithm 2), either over the whole 2-clique list
//!    at once or window by window (§IV-E; see [`WindowConfig`]).
//!
//! The solver *enumerates* every maximum clique (the paper's headline mode);
//! windowed find-one mode returns a single witness when memory is too tight
//! for enumeration. Every intermediate level is charged against the device
//! memory budget, so a too-small budget surfaces as
//! [`SolveError::DeviceOom`] exactly where the paper reports OOM.

#![warn(missing_docs)]

mod arena;
mod bfs;
mod config;
mod setup;
pub mod verify;
mod window;

pub use bfs::LocalBitsStats;
pub use config::{
    CandidateOrder, EdgeIndexKind, LocalBitsMode, OrientationRule, SolverConfig, SublistBound,
    WindowConfig, WindowOrdering,
};
pub use setup::SetupStats;
pub use verify::{verify_result, VerifyError};
pub use window::WindowStats;

use gmc_cliquelist::CliqueLevel;
use gmc_dpp::{
    Cancelled, Device, DeviceError, DeviceOom, FaultInjector, FaultStats, LaunchStats,
    ScheduleStats, Tracer,
};
use gmc_graph::{CoreBitmap, Csr, EdgeOracle};
use gmc_heuristic::{run_heuristic, HeuristicKind, HeuristicResult};
use std::time::{Duration, Instant};

/// Why a solve did not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The candidate cliques outgrew the device memory budget — the paper's
    /// OOM outcome. The windowed variant or a better heuristic may still
    /// solve the instance.
    DeviceOom(DeviceOom),
    /// Injected faults (see [`SolverConfig::faults`]) kept failing the
    /// expansion past the fault plan's retry cap. Only fault-injected runs
    /// can return this; it is the typed give-up the chaos suite asserts on
    /// instead of a panic.
    FaultRetriesExhausted {
        /// Expansion attempts made before giving up (`max_retries + 1`).
        attempts: u32,
    },
    /// The device's [`CancelToken`](gmc_dpp::CancelToken) was tripped (by
    /// request or deadline) and the solve unwound at the next launch
    /// boundary, releasing every device and arena charge on the way out.
    Cancelled(Cancelled),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DeviceOom(oom) => write!(f, "solve ran out of device memory: {oom}"),
            SolveError::FaultRetriesExhausted { attempts } => write!(
                f,
                "injected faults exhausted the expansion retry cap after {attempts} attempts"
            ),
            SolveError::Cancelled(cancelled) => cancelled.fmt(f),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<DeviceOom> for SolveError {
    fn from(oom: DeviceOom) -> Self {
        SolveError::DeviceOom(oom)
    }
}

impl From<Cancelled> for SolveError {
    fn from(cancelled: Cancelled) -> Self {
        SolveError::Cancelled(cancelled)
    }
}

/// Phase timings and counters for one solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Heuristic used.
    pub heuristic_kind: HeuristicKind,
    /// Lower bound `ω̄` the heuristic established.
    pub lower_bound: u32,
    /// Wall time of the heuristic phase (includes any k-core pass).
    pub heuristic_time: Duration,
    /// Portion of the heuristic phase spent on k-core decomposition.
    pub core_time: Duration,
    /// Wall time of orientation + 2-clique list formation.
    pub setup_time: Duration,
    /// Wall time of the expansion loop (all windows, when windowed).
    pub expansion_time: Duration,
    /// Total solve wall time.
    pub total_time: Duration,
    /// Device-memory high-water mark of the clique-list (candidate) storage
    /// during setup + expansion, in bytes. This is the quantity the paper's
    /// memory analysis (Table I OOM, Fig. 6) is about. Heuristic scratch is
    /// reported separately in `heuristic_peak_bytes`; both phases charge the
    /// same budget, so either can trigger OOM.
    pub peak_device_bytes: usize,
    /// Device-memory high-water mark of the heuristic phase, in bytes: for
    /// the multi-run heuristics, the per-entry flags plus the two compacted
    /// candidate arrays that overlap while a round is compacted.
    pub heuristic_peak_bytes: usize,
    /// Setup counters (orientation and pruning).
    pub setup: SetupStats,
    /// Entries per clique-list level (full mode only; windows track their
    /// own peaks instead).
    pub level_entries: Vec<usize>,
    /// Whether the provably-unique-remainder early exit fired.
    pub early_exit: bool,
    /// Exact number of edge-oracle `connected` calls the expansion phase
    /// made (count/output walks, early-exit checks, and recursive child
    /// levels when windowed). The fused pipeline roughly halves this against
    /// the unfused baseline by replaying recorded adjacency bits instead of
    /// re-walking sublists.
    pub oracle_queries: u64,
    /// Core-bitmap counters (see [`SolverConfig::local_bits`]): the exact
    /// number of scalar oracle probes the core bitmap answered with word
    /// tests instead, and the bitmap's charged bytes (all zero when it was
    /// not built).
    pub local_bits: LocalBitsStats,
    /// Virtual-GPU launch counters consumed by this solve.
    pub launches: LaunchStats,
    /// Load-balance counters consumed by this solve: how many launches took
    /// the pool, and the makespan-vs-mean imbalance of their per-worker
    /// chunks.
    pub sched: ScheduleStats,
    /// Window counters when the windowed variant ran.
    pub window: Option<WindowStats>,
    /// Exact fault-injection counters (all zero unless
    /// [`SolverConfig::faults`] armed an active plan). On a successful solve
    /// the recovery totals equal the injection totals.
    pub faults: FaultStats,
}

impl SolveStats {
    /// Fraction of 2-clique entries eliminated by setup pruning — the
    /// paper's "pruning quality" metric (Fig. 5b).
    pub fn pruning_fraction(&self) -> f64 {
        if self.setup.total_oriented_edges == 0 {
            0.0
        } else {
            1.0 - self.setup.initial_entries as f64 / self.setup.total_oriented_edges as f64
        }
    }

    /// Files an expansion's exact probe tally: as core-bitmap word tests
    /// when the solve probed a core bitmap of `core_bytes` charged bytes,
    /// as edge-oracle queries otherwise. The tally counts every walk made,
    /// including the ones a fault-retried or split window repeats, so a
    /// bitmap solve's `oracle_queries + probes_avoided` equals its scalar
    /// twin's `oracle_queries` fault-free only (see [`LocalBitsStats`]).
    fn file_probes(&mut self, probes: u64, core_bytes: Option<u64>) {
        (self.oracle_queries, self.local_bits) = match core_bytes {
            Some(persistent_bytes) => (
                0,
                LocalBitsStats {
                    rows_built: 0,
                    probes_avoided: probes,
                    persistent_probes: probes,
                    persistent_bytes,
                },
            ),
            None => (probes, LocalBitsStats::default()),
        };
    }
}

/// An expansion's result: the maximum cliques found, the clique number, and
/// whether the cliques are the complete enumeration.
type Found = (Vec<Vec<u32>>, u32, bool);

/// Result of a maximum clique solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The clique number ω(G).
    pub clique_number: u32,
    /// Maximum cliques: all of them when `complete_enumeration`, otherwise
    /// a single witness. Each clique is sorted ascending; the list is
    /// sorted lexicographically.
    pub cliques: Vec<Vec<u32>>,
    /// Whether `cliques` is the complete set of maximum cliques.
    pub complete_enumeration: bool,
    /// Phase timings and counters.
    pub stats: SolveStats,
}

impl SolveResult {
    /// Number of maximum cliques found (the multiplicity, when
    /// `complete_enumeration`).
    pub fn multiplicity(&self) -> usize {
        self.cliques.len()
    }
}

/// Breadth-first maximum clique solver bound to a [`Device`].
///
/// ```
/// use gmc_dpp::Device;
/// use gmc_graph::Csr;
/// use gmc_mce::MaxCliqueSolver;
///
/// let graph = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let result = MaxCliqueSolver::new(Device::unlimited())
///     .solve(&graph)
///     .unwrap();
/// assert_eq!(result.clique_number, 3);
/// assert_eq!(result.cliques, vec![vec![0, 1, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxCliqueSolver {
    device: Device,
    config: SolverConfig,
}

impl MaxCliqueSolver {
    /// A solver with the default configuration (multi-run degree heuristic,
    /// degree-ascending candidates, no windowing).
    pub fn new(device: Device) -> Self {
        Self {
            device,
            config: SolverConfig::default(),
        }
    }

    /// A solver with an explicit configuration.
    pub fn with_config(device: Device, config: SolverConfig) -> Self {
        Self { device, config }
    }

    /// Sets the lower-bound heuristic.
    pub fn heuristic(mut self, kind: HeuristicKind) -> Self {
        self.config.heuristic = kind;
        self
    }

    /// Caps the number of multi-run heuristic seeds.
    pub fn heuristic_seeds(mut self, h: usize) -> Self {
        self.config.heuristic_seeds = Some(h);
        self
    }

    /// Sets the edge orientation rule.
    pub fn orientation(mut self, rule: OrientationRule) -> Self {
        self.config.orientation = rule;
        self
    }

    /// Sets the candidate ordering within sublists.
    pub fn candidate_order(mut self, order: CandidateOrder) -> Self {
        self.config.candidate_order = order;
        self
    }

    /// Sets the sublist pruning bound (length vs greedy colouring).
    pub fn sublist_bound(mut self, bound: SublistBound) -> Self {
        self.config.sublist_bound = bound;
        self
    }

    /// Enables the windowed search variant.
    pub fn windowed(mut self, window: WindowConfig) -> Self {
        self.config.window = Some(window);
        self
    }

    /// Enables or disables the early-exit optimisation.
    pub fn early_exit(mut self, enabled: bool) -> Self {
        self.config.early_exit = enabled;
        self
    }

    /// Selects the expansion pipeline: fused record-and-replay (default) or
    /// the paper-literal double-walk baseline (see [`SolverConfig::fused`]).
    pub fn fused(mut self, enabled: bool) -> Self {
        self.config.fused = enabled;
        self
    }

    /// Selects whether the fused pipeline probes the core bitmap (see
    /// [`SolverConfig::local_bits`]): `On`, `Off`, or the `Auto` policy
    /// (the default, overridable via `GMC_LOCAL_BITS`).
    pub fn local_bits(mut self, mode: LocalBitsMode) -> Self {
        self.config.local_bits = mode;
        self
    }

    /// Arms (or disarms, with `None`) deterministic fault injection for the
    /// next solve (see [`SolverConfig::faults`]).
    pub fn faults(mut self, plan: Option<gmc_dpp::FaultPlan>) -> Self {
        self.config.faults = plan;
        self
    }

    /// Enables local-search polishing of the heuristic witness.
    pub fn polish_witness(mut self, enabled: bool) -> Self {
        self.config.polish_witness = enabled;
        self
    }

    /// Installs a recording tracer for the next [`MaxCliqueSolver::solve`]
    /// (see [`SolverConfig::trace`]).
    pub fn trace(mut self, tracer: Tracer) -> Self {
        self.config.trace = tracer;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The device this solver runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Solves `graph`: enumerates all maximum cliques (or finds one, in
    /// windowed find-one mode). Resets the device's peak-memory counter at
    /// the start; the reported peak covers this solve only.
    pub fn solve(&self, graph: &Csr) -> Result<SolveResult, SolveError> {
        let device = &self.device;
        // Install the configured tracer on the device for the duration of
        // this solve, so every launch and allocation lands on the timeline;
        // leave an externally installed tracer alone when ours is disabled.
        let tracing = self.config.trace.is_enabled();
        if tracing {
            device.exec().set_tracer(self.config.trace.clone());
            device.memory().set_tracer(self.config.trace.clone());
        }
        let result = self.solve_traced(graph);
        if tracing {
            device.exec().set_tracer(Tracer::disabled());
            device.memory().set_tracer(Tracer::disabled());
        }
        result
    }

    fn solve_traced(&self, graph: &Csr) -> Result<SolveResult, SolveError> {
        let device = &self.device;
        let tracer = self.config.trace.clone();
        let mut solve_span = tracer.is_enabled().then(|| {
            tracer.span_with(
                "solve",
                &[
                    ("vertices", graph.num_vertices() as i64),
                    ("edges", graph.num_edges() as i64),
                ],
            )
        });
        let start = Instant::now();
        let launch_base = device.exec().stats();
        let sched_base = device.exec().schedule_stats();
        device.memory().reset_peak();

        let mut stats = SolveStats {
            heuristic_kind: self.config.heuristic,
            ..SolveStats::default()
        };

        // Degenerate graphs (the paper's pipeline assumes at least one edge).
        if graph.num_vertices() == 0 {
            stats.total_time = start.elapsed();
            return Ok(SolveResult {
                clique_number: 0,
                cliques: Vec::new(),
                complete_enumeration: true,
                stats,
            });
        }
        if graph.num_edges() == 0 {
            // Every vertex is a maximum 1-clique.
            stats.total_time = start.elapsed();
            return Ok(SolveResult {
                clique_number: 1,
                cliques: (0..graph.num_vertices() as u32).map(|v| vec![v]).collect(),
                complete_enumeration: true,
                stats,
            });
        }

        // Phase 1: heuristic lower bound (optionally polished by local
        // search). Cancellation is polled at every phase boundary (and
        // inside the expansion's level/window loops); a tripped token
        // unwinds here with everything already released by RAII.
        device.exec().check_cancelled()?;
        let mut heuristic_span = tracer.is_enabled().then(|| tracer.span("heuristic"));
        let mut heuristic = run_heuristic(
            device,
            graph,
            self.config.heuristic,
            self.config.heuristic_seeds,
        )?;
        if self.config.polish_witness && !heuristic.clique.is_empty() {
            let polish_start = Instant::now();
            gmc_heuristic::polish_clique(graph, &mut heuristic.clique);
            heuristic.total_time += polish_start.elapsed();
        }
        if let Some(span) = heuristic_span.as_mut() {
            span.arg("lower_bound", i64::from(heuristic.lower_bound()));
        }
        drop(heuristic_span);
        stats.lower_bound = heuristic.lower_bound();
        stats.heuristic_time = heuristic.total_time;
        stats.core_time = heuristic.core_time;
        stats.heuristic_peak_bytes = device.memory().peak();
        // From here on, track the clique-list footprint separately (the
        // heuristic scratch is already released).
        device.memory().reset_peak();

        // Phase 2: setup (orientation + pruning + 2-clique list).
        device.exec().check_cancelled()?;
        let setup_start = Instant::now();
        let mut setup_span = tracer.is_enabled().then(|| tracer.span("setup"));
        let thresholds = self.pruning_thresholds(graph, &heuristic);
        let setup = setup::build_two_clique_list(
            device.exec(),
            graph,
            heuristic.lower_bound(),
            &thresholds,
            self.config.orientation,
            self.config.candidate_order,
            self.config.sublist_bound,
        );
        if let Some(span) = setup_span.as_mut() {
            span.arg("initial_entries", setup.stats.initial_entries as i64);
            span.arg("pruned_vertices", setup.stats.pruned_vertices as i64);
            span.arg("pruned_sublists", setup.stats.pruned_sublists as i64);
            span.arg("first_level_walk", setup.stats.first_level_walk as i64);
        }
        drop(setup_span);
        stats.setup = setup.stats;
        stats.setup_time = setup_start.elapsed();

        // Phase 3: expansion over the solve's one edge-membership structure
        // (see `expand_once`).
        device.exec().check_cancelled()?;
        let expansion_start = Instant::now();
        let min_target = heuristic.lower_bound().max(2);
        let mut expansion_span = tracer
            .is_enabled()
            .then(|| tracer.span_with("expansion", &[("min_target", i64::from(min_target))]));
        let (mut cliques, clique_number, complete) =
            self.run_expansion(graph, setup, &heuristic, min_target, &mut stats)?;
        if let Some(span) = expansion_span.as_mut() {
            span.arg("oracle_queries", stats.oracle_queries as i64);
            span.arg("clique_number", i64::from(clique_number));
        }
        drop(expansion_span);
        stats.expansion_time = expansion_start.elapsed();

        // Canonical ordering of the result.
        for clique in &mut cliques {
            clique.sort_unstable();
        }
        cliques.sort();
        debug_assert!(cliques.iter().all(|c| graph.is_clique(c)));

        stats.peak_device_bytes = device
            .memory()
            .peak()
            .max(stats.window.as_ref().map_or(0, |w| w.peak_window_bytes));
        stats.launches = device.exec().stats().since(&launch_base);
        stats.sched = device.exec().schedule_stats().since(&sched_base);
        stats.total_time = start.elapsed();
        if let Some(span) = solve_span.as_mut() {
            span.arg("clique_number", i64::from(clique_number));
            span.arg("cliques", cliques.len() as i64);
        }
        drop(solve_span);
        Ok(SolveResult {
            clique_number,
            cliques,
            complete_enumeration: complete,
            stats,
        })
    }

    /// The expansion phase.
    ///
    /// When [`SolverConfig::faults`] holds an active plan, the injector is
    /// armed on the device for exactly this phase (heuristic and setup run
    /// fault-free) and injected faults that escape the inner recovery
    /// rungs — core-bitmap fallback, window retry/shrink inside the sweep —
    /// are retried here from a clean slate, up to the plan's cap.
    fn run_expansion(
        &self,
        graph: &Csr,
        setup: setup::SetupOutput,
        heuristic: &HeuristicResult,
        min_target: u32,
        stats: &mut SolveStats,
    ) -> Result<Found, SolveError> {
        let device = &self.device;
        let injector = self
            .config
            .faults
            .filter(|plan| plan.is_active())
            .map(FaultInjector::new);
        let Some(injector) = injector else {
            // Fault-free: one attempt, setup arrays moved straight into the
            // first level. Launch faults cannot occur without an injector.
            return self
                .expand_once(graph, setup, heuristic, min_target, stats, None)
                .map_err(|err| match err {
                    DeviceError::Oom(oom) => SolveError::DeviceOom(oom),
                    DeviceError::Cancelled(cancelled) => SolveError::Cancelled(cancelled),
                    DeviceError::Launch(launch) => {
                        unreachable!("launch fault without an injector: {launch}")
                    }
                });
        };

        device.set_fault_injector(Some(injector.clone()));
        let tracer = device.exec().tracer();
        let max_retries = injector.plan().max_retries;
        let mut attempts = 0u32;
        let result = loop {
            attempts += 1;
            // Each attempt consumes its own copy of the setup arrays so a
            // faulted attempt leaves the originals intact for the next one.
            let attempt_setup = setup::SetupOutput {
                vertex_id: setup.vertex_id.clone(),
                sublist_id: setup.sublist_id.clone(),
                keep: setup.keep.clone(),
                stats: setup.stats,
            };
            match self.expand_once(
                graph,
                attempt_setup,
                heuristic,
                min_target,
                stats,
                Some(&injector),
            ) {
                Ok(found) => break Ok(found),
                Err(err) if err.is_injected() => {
                    if attempts > max_retries {
                        break Err(SolveError::FaultRetriesExhausted { attempts });
                    }
                    injector.note_recovery(&err);
                    if tracer.is_enabled() {
                        tracer
                            .instant("fault_expansion_retry", &[("attempt", i64::from(attempts))]);
                    }
                }
                Err(DeviceError::Oom(oom)) => break Err(SolveError::DeviceOom(oom)),
                Err(DeviceError::Cancelled(cancelled)) => {
                    break Err(SolveError::Cancelled(cancelled))
                }
                Err(DeviceError::Launch(launch)) => {
                    unreachable!("non-injected launch fault: {launch}")
                }
            }
        };
        device.set_fault_injector(None);
        stats.faults = injector.stats();
        if result.is_ok() {
            let f = stats.faults;
            assert_eq!(
                (f.alloc_recoveries, f.launch_recoveries),
                (f.injected_allocs, f.injected_launches),
                "a successful solve must recover every injected fault exactly once: {f:?}"
            );
        }
        result
    }

    /// One expansion attempt (full BFS or windowed), shared by the
    /// fault-free path and the retry loop above.
    ///
    /// The attempt probes exactly one edge-membership structure: the core
    /// bitmap when [`build_core_bitmap`](Self::build_core_bitmap) returns
    /// one, the CSR otherwise. The count and emit kernels are monomorphised
    /// over it, and the attempt's probe tally is filed against it.
    fn expand_once(
        &self,
        graph: &Csr,
        setup: setup::SetupOutput,
        heuristic: &HeuristicResult,
        min_target: u32,
        stats: &mut SolveStats,
        injector: Option<&FaultInjector>,
    ) -> Result<Found, DeviceError> {
        // Building the core bitmap here — inside the armed region, once per
        // attempt — means a fault-ladder retry releases and rebuilds it
        // from scratch like every other expansion structure, and the
        // attempt-scoped guard keeps its bytes charged for the whole
        // expansion (windowed or not).
        let core = self.build_core_bitmap(graph, &setup, injector)?;
        let (found, probes) = match &core {
            Some((bitmap, _)) => {
                self.expand_with(graph, bitmap, setup, heuristic, min_target, stats, injector)?
            }
            None => {
                self.expand_with(graph, graph, setup, heuristic, min_target, stats, injector)?
            }
        };
        stats.file_probes(probes, core.map(|(_, guard)| guard.bytes() as u64));
        Ok(found)
    }

    /// Runs the full or windowed expansion with every adjacency probe
    /// answered by `oracle`, returning what it found and the exact number
    /// of probes it made.
    #[allow(clippy::too_many_arguments)] // expand_once's arguments plus the oracle
    fn expand_with<O: EdgeOracle>(
        &self,
        graph: &Csr,
        oracle: &O,
        setup: setup::SetupOutput,
        heuristic: &HeuristicResult,
        min_target: u32,
        stats: &mut SolveStats,
        injector: Option<&FaultInjector>,
    ) -> Result<(Found, u64), DeviceError> {
        let device = &self.device;
        let Some(window_config) = &self.config.window else {
            let level0 =
                CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id)?;
            let mut arena = arena::LevelArena::new();
            let outcome = bfs::expand(
                device,
                oracle,
                level0,
                min_target,
                self.config.early_exit,
                self.config.fused,
                &mut arena,
            )?;
            stats.level_entries = outcome.level_entries;
            stats.early_exit = outcome.early_exit;
            debug_assert!(
                outcome.clique_size as u32 >= heuristic.lower_bound(),
                "exact search lost the heuristic witness"
            );
            let found = (outcome.cliques, outcome.clique_size as u32, true);
            return Ok((found, outcome.probes));
        };
        let outcome = window::windowed_search(
            device,
            graph,
            oracle,
            &setup,
            window_config,
            &heuristic.clique,
            min_target,
            self.config.early_exit,
            self.config.fused,
            injector,
        )?;
        stats.window = Some(outcome.stats);
        let found = (
            outcome.cliques,
            outcome.clique_size as u32,
            outcome.complete,
        );
        Ok((found, outcome.probes))
    }

    /// Builds the core bitmap for one expansion attempt, or returns `None`
    /// when the expansion should probe the CSR instead.
    ///
    /// Returns the built bitmap with its memory guard (bytes stay charged
    /// while the expansion runs). Whether to build is
    /// [`SolverConfig::builds_core_bitmap`]'s decision, against the
    /// device's capacity and setup's first-level walk bound, recorded as a
    /// `core_bitmap_gate` trace instant; an empty core has nothing to
    /// build.
    ///
    /// Any build failure except cancellation — genuine OOM on the charge,
    /// or an injected alloc/launch fault — degrades to the scalar walk
    /// instead of aborting the solve; cancellation unwinds as usual with
    /// the charge released.
    fn build_core_bitmap(
        &self,
        graph: &Csr,
        setup: &setup::SetupOutput,
        injector: Option<&FaultInjector>,
    ) -> Result<Option<(CoreBitmap, gmc_dpp::MemoryGuard)>, DeviceError> {
        let device = &self.device;
        let n_core = graph.num_vertices() - setup.stats.pruned_vertices;
        let footprint = CoreBitmap::footprint_for(n_core, graph.num_vertices());
        let capacity = device.memory().capacity();
        let walk = setup.stats.first_level_walk;
        let build = n_core > 0 && self.config.builds_core_bitmap(footprint, capacity, walk);
        let tracer = device.exec().tracer();
        if tracer.is_enabled() {
            let arg = |x: u64| x.min(i64::MAX as u64) as i64;
            tracer.instant(
                "core_bitmap_gate",
                &[
                    ("first_level_walk", arg(walk)),
                    ("footprint", footprint as i64),
                    ("capacity", arg(capacity as u64)),
                    ("build", i64::from(build)),
                ],
            );
        }
        if !build {
            return Ok(None);
        }
        let built = device
            .memory()
            .try_charge(footprint)
            .map_err(DeviceError::from)
            .and_then(|guard| {
                let core = CoreBitmap::try_build(device.exec(), graph, &setup.keep)?;
                Ok((core, guard))
            });
        match built {
            Ok(core) => Ok(Some(core)),
            Err(DeviceError::Cancelled(cancelled)) => Err(DeviceError::Cancelled(cancelled)),
            Err(err) => {
                // Recovery ladder, rung zero: a fault (or real OOM) while
                // building the solve-lifetime bitmap drops the whole solve
                // to the scalar walk — bit-identical output, only the probe
                // tally moves from `persistent_probes` back to oracle
                // queries.
                if err.is_injected() {
                    if let Some(injector) = injector {
                        injector.note_bitmap_fallback(&err);
                    }
                    if tracer.is_enabled() {
                        tracer
                            .instant("fault_core_bitmap_fallback", &[("bytes", footprint as i64)]);
                    }
                }
                Ok(None)
            }
        }
    }

    /// Per-vertex pruning upper-bound basis: core numbers when the heuristic
    /// computed them, vertex degrees otherwise (§II-B2).
    fn pruning_thresholds(&self, graph: &Csr, heuristic: &HeuristicResult) -> Vec<u32> {
        heuristic
            .core_numbers
            .clone()
            .unwrap_or_else(|| graph.degrees())
    }
}

/// Runs only the heuristic + setup phases and reports the pruning counters,
/// without expanding the search. Used by the experiment harness to measure
/// pruning quality (paper Fig. 5b) even on datasets whose full search would
/// exceed memory.
pub fn preview_setup(
    device: &Device,
    graph: &Csr,
    config: &SolverConfig,
) -> Result<(u32, SetupStats), SolveError> {
    let heuristic = run_heuristic(device, graph, config.heuristic, config.heuristic_seeds)?;
    let thresholds = heuristic
        .core_numbers
        .clone()
        .unwrap_or_else(|| graph.degrees());
    let setup = setup::build_two_clique_list(
        device.exec(),
        graph,
        heuristic.lower_bound(),
        &thresholds,
        config.orientation,
        config.candidate_order,
        config.sublist_bound,
    );
    Ok((heuristic.lower_bound(), setup.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    fn solver() -> MaxCliqueSolver {
        MaxCliqueSolver::new(Device::unlimited())
    }

    #[test]
    fn quickstart_example() {
        let graph = Csr::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (2, 4),
                (2, 5),
            ],
        );
        let result = solver().solve(&graph).unwrap();
        assert_eq!(result.clique_number, 4);
        assert_eq!(result.cliques, vec![vec![2, 3, 4, 5]]);
        assert!(result.complete_enumeration);
        assert_eq!(result.multiplicity(), 1);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = Csr::empty(0);
        let r = solver().solve(&empty).unwrap();
        assert_eq!(r.clique_number, 0);
        assert!(r.cliques.is_empty());

        let isolated = Csr::empty(3);
        let r = solver().solve(&isolated).unwrap();
        assert_eq!(r.clique_number, 1);
        assert_eq!(r.cliques, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn single_edge() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let r = solver().solve(&g).unwrap();
        assert_eq!(r.clique_number, 2);
        assert_eq!(r.cliques, vec![vec![0, 1]]);
    }

    #[test]
    fn all_heuristics_agree_on_result() {
        let g = generators::gnp(80, 0.15, 21);
        let baseline = solver().heuristic(HeuristicKind::None).solve(&g).unwrap();
        for kind in HeuristicKind::all() {
            let r = solver().heuristic(kind).solve(&g).unwrap();
            assert_eq!(r.clique_number, baseline.clique_number, "{kind}");
            assert_eq!(r.cliques, baseline.cliques, "{kind}");
            assert!(r.stats.lower_bound <= r.clique_number, "{kind}: ω̄ > ω");
        }
    }

    #[test]
    fn candidate_orders_agree() {
        let g = generators::gnp(70, 0.2, 23);
        let a = solver()
            .candidate_order(CandidateOrder::Index)
            .solve(&g)
            .unwrap();
        let b = solver()
            .candidate_order(CandidateOrder::DegreeAscending)
            .solve(&g)
            .unwrap();
        assert_eq!(a.cliques, b.cliques);
    }

    #[test]
    fn windowed_enumerate_matches_full() {
        let g = generators::gnp(60, 0.2, 25);
        let full = solver().solve(&g).unwrap();
        let windowed = solver()
            .windowed(WindowConfig {
                size: 8,
                ordering: WindowOrdering::DegreeAscending,
                enumerate_all: true,
                ..WindowConfig::default()
            })
            .solve(&g)
            .unwrap();
        assert_eq!(windowed.clique_number, full.clique_number);
        assert_eq!(windowed.cliques, full.cliques);
        assert!(windowed.complete_enumeration);
        assert!(windowed.stats.window.unwrap().num_windows > 1);
    }

    #[test]
    fn windowed_find_one_returns_witness() {
        let g = generators::gnp(60, 0.2, 27);
        let full = solver().solve(&g).unwrap();
        let windowed = solver()
            .windowed(WindowConfig::with_size(16))
            .solve(&g)
            .unwrap();
        assert_eq!(windowed.clique_number, full.clique_number);
        assert!(!windowed.complete_enumeration);
        assert_eq!(windowed.cliques.len(), 1);
        assert!(full.cliques.contains(&windowed.cliques[0]));
    }

    #[test]
    fn oom_is_reported_not_wrong() {
        let g = generators::gnp(100, 0.4, 29);
        let device = Device::with_memory_budget(2048);
        let result = MaxCliqueSolver::new(device)
            .heuristic(HeuristicKind::None)
            .solve(&g);
        assert!(matches!(result, Err(SolveError::DeviceOom(_))));
    }

    #[test]
    fn windowing_rescues_oom() {
        // A budget that OOMs the full BFS but fits one window at a time.
        let g = generators::gnp(120, 0.25, 31);
        let device = Device::with_memory_budget(24 * 1024);
        let full = MaxCliqueSolver::new(device.clone())
            .heuristic(HeuristicKind::None)
            .solve(&g);
        if full.is_ok() {
            // Budget calibration can drift with generator tweaks; the
            // windowed run must then agree instead.
            return;
        }
        let windowed = MaxCliqueSolver::new(device)
            .heuristic(HeuristicKind::None)
            .windowed(WindowConfig::with_size(64))
            .solve(&g)
            .expect("windowing should fit the budget");
        let reference = solver().solve(&g).unwrap();
        assert_eq!(windowed.clique_number, reference.clique_number);
    }

    #[test]
    fn stats_are_populated() {
        let g = generators::gnp(80, 0.15, 33);
        let r = solver().solve(&g).unwrap();
        let s = &r.stats;
        assert!(s.lower_bound >= 2);
        assert!(s.peak_device_bytes > 0);
        assert!(!s.level_entries.is_empty());
        // Default Auto mode resolves to the persistent core bitmap on a
        // graph this small, so the walk probes show up as avoided word
        // tests rather than oracle calls.
        assert!(s.oracle_queries + s.local_bits.probes_avoided > 0);
        assert!(s.launches.launches > 0);
        assert!(s.total_time >= s.expansion_time);
        assert_eq!(s.setup.total_oriented_edges, g.num_edges());
        assert!(s.pruning_fraction() >= 0.0 && s.pruning_fraction() <= 1.0);
    }

    #[test]
    fn polished_witness_preserves_enumeration_and_tightens_bound() {
        for seed in 0..4 {
            let base = generators::gnp(150, 0.06, 70 + seed);
            let (g, _) = gmc_graph::generators::plant_clique(&base, 9, 170 + seed);
            let plain = solver()
                .heuristic(HeuristicKind::SingleDegree)
                .solve(&g)
                .unwrap();
            let polished = solver()
                .heuristic(HeuristicKind::SingleDegree)
                .polish_witness(true)
                .solve(&g)
                .unwrap();
            assert_eq!(polished.clique_number, plain.clique_number, "seed {seed}");
            assert_eq!(polished.cliques, plain.cliques, "seed {seed}");
            assert!(
                polished.stats.lower_bound >= plain.stats.lower_bound,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn coloring_sublist_bound_preserves_enumeration() {
        for seed in 0..4 {
            let g = generators::gnp(80, 0.15, 90 + seed);
            let length = solver().solve(&g).unwrap();
            let coloring = solver()
                .sublist_bound(SublistBound::Coloring)
                .solve(&g)
                .unwrap();
            assert_eq!(coloring.clique_number, length.clique_number, "seed {seed}");
            assert_eq!(coloring.cliques, length.cliques, "seed {seed}");
            // The tighter bound never keeps more entries.
            assert!(
                coloring.stats.setup.initial_entries <= length.stats.setup.initial_entries,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fused_ablation_agrees_and_saves_queries() {
        let g = generators::gnp(90, 0.2, 41);
        let fused = solver().solve(&g).unwrap();
        let unfused = solver().fused(false).solve(&g).unwrap();
        assert_eq!(fused.clique_number, unfused.clique_number);
        assert_eq!(fused.cliques, unfused.cliques);
        assert_eq!(fused.stats.level_entries, unfused.stats.level_entries);
        // The fused pipeline replays recorded bits instead of re-walking;
        // with the default Auto mode the walk itself runs against the
        // persistent core bitmap, so its probes land in `probes_avoided`.
        let fused_probes = fused.stats.oracle_queries + fused.stats.local_bits.probes_avoided;
        assert!(fused_probes > 0);
        assert!(
            fused_probes < unfused.stats.oracle_queries,
            "fused {fused_probes} vs unfused {}",
            unfused.stats.oracle_queries
        );
        assert!(fused.stats.launches.fused_launches > 0);
        assert_eq!(unfused.stats.launches.fused_launches, 0);

        // The same ablation through the windowed search path.
        let windowed = |enabled: bool| {
            solver()
                .fused(enabled)
                .windowed(WindowConfig {
                    size: 16,
                    enumerate_all: true,
                    ..WindowConfig::default()
                })
                .solve(&g)
                .unwrap()
        };
        let (wf, wu) = (windowed(true), windowed(false));
        assert_eq!(wf.cliques, fused.cliques);
        assert_eq!(wu.cliques, fused.cliques);
        let (wfq, wuq) = (wf.stats.oracle_queries, wu.stats.oracle_queries);
        let wf_probes = wfq + wf.stats.local_bits.probes_avoided;
        assert!(
            wf_probes > 0 && wf_probes < wuq,
            "windowed fused {wf_probes} vs unfused {wuq}"
        );
    }

    #[test]
    fn local_bits_ablation_agrees_and_reconciles() {
        let g = generators::gnp(90, 0.25, 43);
        let on = solver().local_bits(LocalBitsMode::On).solve(&g).unwrap();
        let off = solver().local_bits(LocalBitsMode::Off).solve(&g).unwrap();
        assert_eq!(on.clique_number, off.clique_number);
        assert_eq!(on.cliques, off.cliques);
        assert_eq!(on.stats.level_entries, off.stats.level_entries);
        assert_eq!(off.stats.local_bits, LocalBitsStats::default());
        // One bitmap for the whole solve: zero per-level builds, every
        // scalar probe answered by a word test, exact reconciliation.
        let lb = on.stats.local_bits;
        assert_eq!(lb.rows_built, 0);
        assert!(lb.persistent_bytes > 0);
        assert_eq!(lb.persistent_probes, lb.probes_avoided);
        assert_eq!(
            on.stats.oracle_queries + lb.probes_avoided,
            off.stats.oracle_queries
        );

        // The same ablation through the windowed search path, including
        // the recursive child-level builds that would otherwise hit the
        // oracle.
        let windowed = |mode: LocalBitsMode| {
            solver()
                .local_bits(mode)
                .windowed(WindowConfig {
                    size: 16,
                    enumerate_all: true,
                    max_depth: 4,
                    ..WindowConfig::default()
                })
                .solve(&g)
                .unwrap()
        };
        let (won, woff) = (windowed(LocalBitsMode::On), windowed(LocalBitsMode::Off));
        assert_eq!(won.cliques, on.cliques);
        assert_eq!(woff.cliques, on.cliques);
        let wlb = won.stats.local_bits;
        assert_eq!(wlb.rows_built, 0);
        assert!(wlb.persistent_bytes > 0);
        assert_eq!(wlb.persistent_probes, wlb.probes_avoided);
        assert_eq!(
            won.stats.oracle_queries + wlb.probes_avoided,
            woff.stats.oracle_queries
        );
    }

    #[test]
    fn forced_on_degrades_to_the_scalar_walk_and_releases_every_budget() {
        // A wheel padded with isolated vertices: setup prunes the padding,
        // but the core bitmap's renumber table still costs 4 bytes per
        // original vertex, so on mid-size budgets the search fits while
        // the bitmap charge does not. Sweeping budgets with the bitmap
        // forced on, every solve either OOMs, degrades to exactly the
        // scalar walk, or runs on the bitmap — and no byte stays charged.
        let m = 30u32;
        let mut edges: Vec<(u32, u32)> = (1..=m).map(|v| (0, v)).collect();
        edges.extend((1..m).map(|v| (v, v + 1)));
        edges.push((1, m));
        let g = Csr::from_edges(m as usize + 1 + 5000, &edges);
        let off = solver().local_bits(LocalBitsMode::Off).solve(&g).unwrap();
        let (mut degraded, mut built) = (false, false);
        for budget_kib in [1, 2, 4, 8, 16, 32, 64, 128] {
            let device = Device::new(2, budget_kib << 10);
            let on = MaxCliqueSolver::new(device.clone())
                .local_bits(LocalBitsMode::On)
                .solve(&g);
            assert_eq!(device.memory().live(), 0, "leak at {budget_kib} KiB");
            let Ok(on) = on else { continue };
            assert_eq!(on.cliques, off.cliques, "{budget_kib} KiB");
            if on.stats.local_bits.persistent_bytes == 0 {
                degraded = true;
                assert_eq!(on.stats.local_bits, LocalBitsStats::default());
                assert_eq!(on.stats.oracle_queries, off.stats.oracle_queries);
            } else {
                built = true;
                assert_eq!(
                    on.stats.oracle_queries + on.stats.local_bits.probes_avoided,
                    off.stats.oracle_queries
                );
            }
        }
        assert!(degraded && built, "sweep must cover both outcomes");
    }

    #[test]
    fn deterministic_across_devices() {
        let g = generators::gnp(90, 0.12, 35);
        let a = MaxCliqueSolver::new(Device::new(1, usize::MAX))
            .solve(&g)
            .unwrap();
        let b = MaxCliqueSolver::new(Device::new(7, usize::MAX))
            .solve(&g)
            .unwrap();
        assert_eq!(a.clique_number, b.clique_number);
        assert_eq!(a.cliques, b.cliques);
    }

    #[test]
    fn permutation_invariance() {
        let g = generators::gnp(70, 0.18, 37);
        let base = solver().solve(&g).unwrap();
        let (shuffled, perm) = g.randomize_vertex_ids(99);
        let shuffled_result = solver().solve(&shuffled).unwrap();
        assert_eq!(shuffled_result.clique_number, base.clique_number);
        // Map the shuffled cliques back through the permutation.
        let mut mapped: Vec<Vec<u32>> = shuffled_result
            .cliques
            .iter()
            .map(|c| {
                let mut orig: Vec<u32> = c
                    .iter()
                    .map(|&v| perm.iter().position(|&p| p == v).unwrap() as u32)
                    .collect();
                orig.sort_unstable();
                orig
            })
            .collect();
        mapped.sort();
        assert_eq!(mapped, base.cliques);
    }
}
