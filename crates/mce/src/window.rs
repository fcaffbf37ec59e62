//! The windowed search variant (paper §IV-E) and its recursive extension
//! (paper §V-C3).
//!
//! When the full breadth-first candidate set cannot fit in device memory,
//! the 2-clique list is split into windows of whole sublists and each window
//! is expanded to exhaustion on its own, so only one window's subtree is
//! ever resident. The lower bound improves between windows whenever a
//! better clique is found, tightening pruning for the remainder — the one
//! bound-improvement mechanism a breadth-first search otherwise lacks.
//!
//! Two result modes:
//! * **find-one** (the paper's): prune strictly against the incumbent, so
//!   each window only reports cliques *larger* than anything seen; returns a
//!   single maximum clique.
//! * **enumerate-all** (an extension): keep ties, so the union of window
//!   results is exactly the set of maximum cliques — valid because every
//!   clique lives entirely within the window holding its minimum vertex's
//!   sublist.
//!
//! With [`WindowConfig::max_depth`] > 1, *recursive windowing* — the
//! strategy the paper sketches as future work (§V-C3) — activates: a window
//! whose subtree still exceeds the budget is split at a sublist boundary,
//! and a single sublist too large for any window is re-windowed one search
//! level deeper (its candidate pairs become the 2-clique list of an induced
//! subproblem whose results carry the committed chain as a prefix).

use crate::arena::LevelArena;
use crate::bfs::{expand, LocalBitsStats};
use crate::config::{WindowConfig, WindowOrdering};
use crate::setup::SetupOutput;
use gmc_cliquelist::CliqueLevel;
use gmc_dpp::{Device, DeviceError, FaultInjector, Launch, LaunchError, SharedSlice};
use gmc_graph::{CoreBitmap, Csr, EdgeOracle};
use std::sync::Mutex;

/// Counters from a windowed run, reported in [`SolveStats`].
///
/// [`SolveStats`]: crate::SolveStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Number of windows actually expanded (including retries after splits
    /// and windows of recursive subproblems).
    pub num_windows: usize,
    /// Configured nominal window size in entries.
    pub nominal_size: usize,
    /// Times a window improved on the incumbent clique size.
    pub bound_improvements: usize,
    /// Largest device footprint reached by any single window's subtree.
    pub peak_window_bytes: usize,
    /// OOM-driven binary splits of over-large windows (recursive mode).
    pub window_splits: usize,
    /// Times an over-large single sublist was re-windowed one level deeper
    /// (recursive mode).
    pub sublist_recursions: usize,
    /// Exact number of edge-oracle `connected` calls across all windows
    /// (expansion walks plus recursive child-level construction).
    pub oracle_queries: u64,
    /// Core-bitmap counters summed over all windows.
    pub local_bits: LocalBitsStats,
    /// Window attempts retried after an injected fault (fault injection
    /// only; real OOM goes through `window_splits`).
    pub fault_retries: usize,
    /// Windows split in half after repeated injected faults (the bounded
    /// geometric backoff of the recovery ladder).
    pub fault_shrinks: usize,
    /// OS workers the concurrent window sweep ran with (largest sweep, when
    /// the fault ladder retried); `0` when the sweep was never concurrent.
    pub sweep_workers: usize,
    /// Windows drained by the busiest sweep worker, summed over sweeps —
    /// the window-level analogue of the launch-level
    /// "morsels claimed per worker" skew signal in
    /// [`gmc_dpp::ScheduleStats`].
    pub sweep_drained_max: usize,
    /// Total sweep-worker idle time: the gap between each worker's busy
    /// span and the sweep's wall clock, summed over workers and sweeps.
    /// Large values mean a few heavy windows serialised the sweep.
    pub sweep_idle_ns: u64,
}

pub(crate) struct WindowOutcome {
    pub cliques: Vec<Vec<u32>>,
    pub clique_size: usize,
    pub stats: WindowStats,
    /// True when the result enumerates every maximum clique.
    pub complete: bool,
}

/// Shared incumbent across windows and recursion levels.
struct Incumbent {
    enumerate: bool,
    min_enum_target: u32,
    best_size: usize,
    best_clique: Vec<u32>,
    collected: Vec<Vec<u32>>,
    collected_size: usize,
    improvements: usize,
}

impl Incumbent {
    fn new(enumerate: bool, min_enum_target: u32, witness: &[u32]) -> Self {
        Self {
            enumerate,
            min_enum_target,
            best_size: witness.len(),
            best_clique: witness.to_vec(),
            collected: Vec::new(),
            collected_size: 0,
            improvements: 0,
        }
    }

    /// The clique size a window must reach for its results to matter.
    fn target(&self) -> u32 {
        if self.enumerate {
            (self.collected_size as u32)
                .max(self.min_enum_target)
                .max(2)
        } else {
            (self.best_size as u32 + 1).max(2)
        }
    }

    /// Integrates one window's result: `cliques` of `size` vertices each.
    fn offer(&mut self, cliques: Vec<Vec<u32>>, size: usize) {
        if cliques.is_empty() || size == 0 {
            return;
        }
        if self.enumerate {
            match size.cmp(&self.collected_size) {
                std::cmp::Ordering::Greater => {
                    if size > self.best_size {
                        self.improvements += 1;
                    }
                    self.collected_size = size;
                    self.collected = cliques;
                }
                std::cmp::Ordering::Equal => self.collected.extend(cliques),
                std::cmp::Ordering::Less => {}
            }
            self.best_size = self.best_size.max(self.collected_size);
        } else if size > self.best_size {
            self.improvements += 1;
            self.best_size = size;
            self.best_clique = cliques.into_iter().next().expect("non-empty");
        }
    }
}

/// Immutable context threaded through the recursion.
struct SearchCtx<'a, O: EdgeOracle + ?Sized> {
    device: &'a Device,
    oracle: &'a O,
    config: &'a WindowConfig,
    early_exit: bool,
    fused: bool,
    /// Solve-lifetime core adjacency bitmap (built once by the solver
    /// before the sweep); every window and recursive child-level build
    /// probes it instead of the edge oracle.
    persistent: Option<&'a CoreBitmap>,
    /// Armed injector (shares counters with the device's copy); `None` in
    /// fault-free runs.
    injector: Option<FaultInjector>,
    /// Per-window retry cap from the fault plan (0 when fault-free).
    max_retries: u32,
}

/// Reorders whole sublists of the 2-clique list according to `ordering`.
/// Fallible because the boundary scan is a launch the fault injector may
/// fail; no work is performed on `Err`.
pub(crate) fn reorder_sublists(
    exec: &gmc_dpp::Executor,
    graph: &Csr,
    vertex_id: &[u32],
    sublist_id: &[u32],
    ordering: WindowOrdering,
) -> Result<(Vec<u32>, Vec<u32>), LaunchError> {
    // Identify sublist ranges: runs of equal sublist_id (the GPU version is
    // a run-length-encode kernel).
    let starts = gmc_dpp::try_run_starts(exec, sublist_id)?;
    let mut ranges: Vec<(usize, usize)> = starts
        .iter()
        .enumerate()
        .map(|(r, &s)| (s, starts.get(r + 1).copied().unwrap_or(sublist_id.len())))
        .collect();
    match ordering {
        WindowOrdering::Index => {}
        WindowOrdering::DegreeAscending => {
            ranges.sort_by_key(|&(s, _)| (graph.degree(sublist_id[s]), sublist_id[s]));
        }
        WindowOrdering::DegreeDescending => {
            ranges.sort_by_key(|&(s, _)| {
                (
                    std::cmp::Reverse(graph.degree(sublist_id[s])),
                    sublist_id[s],
                )
            });
        }
        WindowOrdering::Random(seed) => {
            gmc_dpp::Rng::seed_from_u64(seed).shuffle(&mut ranges);
        }
    }
    let mut new_vertex = Vec::with_capacity(vertex_id.len());
    let mut new_sublist = Vec::with_capacity(sublist_id.len());
    for (s, e) in ranges {
        new_vertex.extend_from_slice(&vertex_id[s..e]);
        new_sublist.extend_from_slice(&sublist_id[s..e]);
    }
    Ok((new_vertex, new_sublist))
}

/// Snaps `nominal_end` to the nearest sublist boundary at or below it; if
/// that would make the window empty, extends to the end of the sublist
/// containing `start` instead (a window always advances).
fn window_end(sublist_id: &[u32], start: usize, nominal_end: usize) -> usize {
    let len = sublist_id.len();
    if nominal_end >= len {
        return len;
    }
    let mut end = nominal_end;
    while end > start && sublist_id[end - 1] == sublist_id[end] {
        end -= 1;
    }
    if end == start {
        // The sublist at `start` is longer than the window: take all of it.
        end = start + 1;
        while end < len && sublist_id[end] == sublist_id[end - 1] {
            end += 1;
        }
    }
    end
}

/// Runs the windowed search over a prepared 2-clique list.
///
/// `witness` is the heuristic clique (the initial incumbent in find-one
/// mode); `min_enum_target` is the enumeration pruning bound `max(ω̄, 2)`.
/// `injector` is the armed fault injector, if any; injected faults inside a
/// window are retried (and the window shrunk) here, while faults escaping
/// this function are the caller's outer retry loop to handle.
#[allow(clippy::too_many_arguments)] // mirrors the solve phases 1:1
pub(crate) fn windowed_search<O: EdgeOracle + ?Sized>(
    device: &Device,
    graph: &Csr,
    oracle: &O,
    setup: &SetupOutput,
    config: &WindowConfig,
    witness: &[u32],
    min_enum_target: u32,
    early_exit: bool,
    fused: bool,
    persistent: Option<&CoreBitmap>,
    injector: Option<&FaultInjector>,
) -> Result<WindowOutcome, DeviceError> {
    let tracer = device.exec().tracer();
    let mut search_span = tracer.is_enabled().then(|| {
        tracer.span_with(
            "windowed_search",
            &[
                ("entries", setup.vertex_id.len() as i64),
                ("parallel_windows", config.parallel_windows as i64),
            ],
        )
    });
    let (vertex_id, sublist_id) = reorder_sublists(
        device.exec(),
        graph,
        &setup.vertex_id,
        &setup.sublist_id,
        config.ordering,
    )?;

    let stats = WindowStats {
        nominal_size: config.size,
        ..WindowStats::default()
    };
    // In find-one mode the heuristic witness seeds the incumbent; in
    // enumerate mode the witness is *not* pre-collected (it will be re-found
    // inside its own window, avoiding duplicates).
    let incumbent = Mutex::new(Incumbent::new(
        config.enumerate_all,
        min_enum_target,
        witness,
    ));
    let stats_lock = Mutex::new(stats);
    let ctx = SearchCtx {
        device,
        oracle,
        config,
        early_exit,
        fused,
        persistent,
        injector: injector.cloned(),
        max_retries: injector.map_or(0, |inj| inj.plan().max_retries),
    };
    if config.parallel_windows <= 1 {
        // One arena serves every window of the sweep: level scratch grown by
        // the first window is recycled by all the rest.
        let mut arena = LevelArena::new();
        search_slice(
            &ctx,
            &vertex_id,
            &sublist_id,
            &[],
            0,
            &incumbent,
            &stats_lock,
            &mut arena,
        )?;
    } else {
        parallel_window_sweep(&ctx, &vertex_id, &sublist_id, &incumbent, &stats_lock)?;
    }

    let mut stats = stats_lock.into_inner().expect("stats lock poisoned");
    let incumbent = incumbent.into_inner().expect("incumbent lock poisoned");
    stats.bound_improvements = incumbent.improvements;
    if let Some(span) = search_span.as_mut() {
        span.arg("num_windows", stats.num_windows as i64);
        span.arg("bound_improvements", stats.bound_improvements as i64);
    }
    drop(search_span);
    if config.enumerate_all {
        Ok(WindowOutcome {
            clique_size: incumbent.collected_size,
            cliques: incumbent.collected,
            stats,
            complete: true,
        })
    } else {
        let cliques = if incumbent.best_clique.is_empty() {
            Vec::new()
        } else {
            vec![incumbent.best_clique]
        };
        Ok(WindowOutcome {
            clique_size: incumbent.best_size,
            cliques,
            stats,
            complete: false,
        })
    }
}

/// Window budget (in estimated subtree entries) for automatic sizing: a
/// quarter of the device capacity at 8 bytes per entry.
fn auto_budget_entries(device: &Device) -> usize {
    (device.memory().capacity() / 8 / 4).max(64)
}

/// Grows a window sublist-by-sublist while the Moon–Moser bound on its
/// worst-case subtree stays within the budget (Wei et al.'s sizing rule).
/// Always takes at least one whole sublist.
fn auto_window_end(sublist_id: &[u32], start: usize, budget_entries: usize) -> usize {
    let len = sublist_id.len();
    let mut end = start;
    let mut estimate = 0usize;
    while end < len {
        let sublist_start = end;
        let mut sublist_end = end + 1;
        while sublist_end < len && sublist_id[sublist_end] == sublist_id[sublist_start] {
            sublist_end += 1;
        }
        let bound = gmc_graph::bounds::moon_moser_bound(sublist_end - sublist_start);
        estimate = estimate.saturating_add(bound);
        if end > start && estimate > budget_entries {
            break; // this sublist goes to the next window
        }
        end = sublist_end;
        if estimate > budget_entries {
            break;
        }
    }
    end
}

/// Cuts `vertex_id`/`sublist_id` into windows and processes each.
#[allow(clippy::too_many_arguments)] // one slot per recursion invariant
fn search_slice<O: EdgeOracle + ?Sized>(
    ctx: &SearchCtx<'_, O>,
    vertex_id: &[u32],
    sublist_id: &[u32],
    prefix: &[u32],
    depth: usize,
    incumbent: &Mutex<Incumbent>,
    stats: &Mutex<WindowStats>,
    arena: &mut LevelArena,
) -> Result<(), DeviceError> {
    let mut start = 0usize;
    while start < vertex_id.len() {
        let end = if ctx.config.size == 0 {
            auto_window_end(sublist_id, start, auto_budget_entries(ctx.device))
        } else {
            window_end(sublist_id, start, start + ctx.config.size)
        };
        process_window(
            ctx,
            &vertex_id[start..end],
            &sublist_id[start..end],
            prefix,
            depth,
            incumbent,
            stats,
            arena,
        )?;
        start = end;
    }
    Ok(())
}

/// Expands one window. Injected faults are retried in place (and the window
/// halved after repeated faults — bounded geometric backoff) up to the fault
/// plan's retry cap; on real OOM, splits or recurses when recursive
/// windowing is enabled and depth remains.
#[allow(clippy::too_many_arguments)] // one slot per recursion invariant
fn process_window<O: EdgeOracle + ?Sized>(
    ctx: &SearchCtx<'_, O>,
    vertex_id: &[u32],
    sublist_id: &[u32],
    prefix: &[u32],
    depth: usize,
    incumbent: &Mutex<Incumbent>,
    stats: &Mutex<WindowStats>,
    arena: &mut LevelArena,
) -> Result<(), DeviceError> {
    if vertex_id.is_empty() {
        return Ok(());
    }
    // Window boundaries are launch boundaries: a tripped token stops the
    // sweep here before the window charges anything.
    ctx.device.exec().check_cancelled()?;
    // Entries of this window extend `prefix`, so the local pruning target
    // shrinks by the committed chain length. (Concurrent windows may read a
    // slightly stale target; staleness only weakens pruning, never
    // correctness. Fault retries reuse the attempt's target so a recovered
    // window reports exactly what the fault-free run would have.)
    let target_local = incumbent
        .lock()
        .expect("incumbent lock poisoned")
        .target()
        .saturating_sub(prefix.len() as u32)
        .max(2);
    let tracer = ctx.device.exec().tracer();
    let mut window_span = tracer.is_enabled().then(|| {
        tracer.span_with(
            "window",
            &[
                ("entries", vertex_id.len() as i64),
                ("depth", depth as i64),
                ("target", i64::from(target_local)),
            ],
        )
    });
    let mut fault_attempts = 0u32;
    let err = loop {
        let live_base = ctx.device.memory().live();
        ctx.device.memory().reset_peak();
        let attempt =
            CliqueLevel::from_vecs(ctx.device.memory(), vertex_id.to_vec(), sublist_id.to_vec())
                .map_err(DeviceError::from)
                .and_then(|level0| {
                    expand(
                        ctx.device,
                        ctx.oracle,
                        level0,
                        target_local,
                        ctx.early_exit,
                        ctx.fused,
                        ctx.persistent,
                        arena,
                    )
                });
        {
            let mut stats = stats.lock().expect("stats lock poisoned");
            stats.num_windows += 1;
            stats.peak_window_bytes = stats
                .peak_window_bytes
                .max(ctx.device.memory().peak().saturating_sub(live_base));
            if let Ok(outcome) = &attempt {
                stats.oracle_queries += outcome.oracle_queries;
                stats.local_bits.accumulate(outcome.local_bits);
            }
        }

        match attempt {
            Ok(outcome) => {
                if let Some(span) = window_span.as_mut() {
                    span.arg("found", outcome.clique_size as i64);
                }
                if outcome.clique_size > 0 {
                    let size = outcome.clique_size + prefix.len();
                    let cliques: Vec<Vec<u32>> = outcome
                        .cliques
                        .into_iter()
                        .map(|c| {
                            let mut full = prefix.to_vec();
                            full.extend(c);
                            full
                        })
                        .collect();
                    incumbent
                        .lock()
                        .expect("incumbent lock poisoned")
                        .offer(cliques, size);
                }
                return Ok(());
            }
            Err(err) => {
                let Some(injector) = ctx.injector.as_ref().filter(|_| err.is_injected()) else {
                    // Real OOM: retries after a split (or the deeper
                    // re-windowing below) nest inside this window's span.
                    if let Some(span) = window_span.as_mut() {
                        span.arg("oom", 1);
                    }
                    break err;
                };
                fault_attempts += 1;
                if fault_attempts > ctx.max_retries {
                    // Past the cap the fault is propagated, not recovered;
                    // the solver's outer loop turns it into a typed error.
                    return Err(err);
                }
                // `expand` released its arena charges on the way out; make
                // the window's footprint provably zero before retrying.
                arena.release_charges();
                injector.note_recovery(&err);
                stats.lock().expect("stats lock poisoned").fault_retries += 1;
                if tracer.is_enabled() {
                    tracer.instant(
                        "fault_window_retry",
                        &[
                            ("attempt", i64::from(fault_attempts)),
                            ("entries", vertex_id.len() as i64),
                        ],
                    );
                }
                let num_sublists = 1 + sublist_id.windows(2).filter(|w| w[0] != w[1]).count();
                if fault_attempts >= 2 && num_sublists > 1 {
                    // Repeated faults: halve the window at a sublist
                    // boundary. Each half restarts its own retry budget, and
                    // single-sublist windows can shrink no further, so the
                    // backoff is geometric and bounded.
                    injector.note_window_shrink();
                    stats.lock().expect("stats lock poisoned").fault_shrinks += 1;
                    if tracer.is_enabled() {
                        tracer.instant(
                            "fault_window_shrink",
                            &[("entries", vertex_id.len() as i64)],
                        );
                    }
                    let mid = window_end(sublist_id, 0, vertex_id.len() / 2)
                        .clamp(1, vertex_id.len() - 1);
                    drop(window_span);
                    process_window(
                        ctx,
                        &vertex_id[..mid],
                        &sublist_id[..mid],
                        prefix,
                        depth,
                        incumbent,
                        stats,
                        arena,
                    )?;
                    return process_window(
                        ctx,
                        &vertex_id[mid..],
                        &sublist_id[mid..],
                        prefix,
                        depth,
                        incumbent,
                        stats,
                        arena,
                    );
                }
            }
        }
    };

    // Cancellation propagates as-is: splitting a cancelled window would
    // only spawn halves that cancel at their own first poll.
    if matches!(err, DeviceError::Cancelled(_)) {
        return Err(err);
    }
    // The paper's windowing propagates OOM; the recursive extension keeps
    // subdividing while depth remains.
    if ctx.config.max_depth <= 1 {
        return Err(err);
    }
    let num_sublists = 1 + sublist_id.windows(2).filter(|w| w[0] != w[1]).count();
    if num_sublists > 1 {
        // Binary split at the sublist boundary nearest the middle.
        stats.lock().expect("stats lock poisoned").window_splits += 1;
        let mid = window_end(sublist_id, 0, vertex_id.len() / 2).clamp(1, vertex_id.len() - 1);
        process_window(
            ctx,
            &vertex_id[..mid],
            &sublist_id[..mid],
            prefix,
            depth,
            incumbent,
            stats,
            arena,
        )?;
        return process_window(
            ctx,
            &vertex_id[mid..],
            &sublist_id[mid..],
            prefix,
            depth,
            incumbent,
            stats,
            arena,
        );
    }
    if depth + 1 >= ctx.config.max_depth {
        return Err(err);
    }

    // A single sublist whose subtree exceeds the budget: re-window one
    // level deeper. Its candidate pairs form the 2-clique list of the
    // induced subproblem, with the source vertex joining the prefix.
    stats
        .lock()
        .expect("stats lock poisoned")
        .sublist_recursions += 1;
    let source = sublist_id[0];

    // The (prefix, source, candidate) 2-level cliques are not represented in
    // the subproblem (its cliques have ≥ 2 vertices = parent ≥ 3); offer
    // them here in case ω is exactly `|prefix| + 2`.
    {
        let mut incumbent = incumbent.lock().expect("incumbent lock poisoned");
        if (prefix.len() + 2) as u32 >= incumbent.target() {
            let pairs: Vec<Vec<u32>> = vertex_id
                .iter()
                .map(|&c| {
                    let mut clique = prefix.to_vec();
                    clique.push(source);
                    clique.push(c);
                    clique
                })
                .collect();
            incumbent.offer(pairs, prefix.len() + 2);
        }
    }

    let (child_vertex, child_sublist) = build_child_level(ctx, vertex_id)?;
    // Both child-level kernels walk every ordered candidate pair: exactly
    // len·(len−1) adjacency probes. With the core bitmap those are word
    // tests, not oracle calls, so the tally moves to the avoided columns and
    // the `queries + avoided == scalar` invariant still holds.
    {
        let pair_probes = (vertex_id.len() * (vertex_id.len() - 1)) as u64;
        let mut stats = stats.lock().expect("stats lock poisoned");
        if ctx.persistent.is_some() {
            stats.local_bits.add_word_tests(pair_probes);
        } else {
            stats.oracle_queries += pair_probes;
        }
    }
    let mut child_prefix = prefix.to_vec();
    child_prefix.push(source);
    search_slice(
        ctx,
        &child_vertex,
        &child_sublist,
        &child_prefix,
        depth + 1,
        incumbent,
        stats,
        arena,
    )
}

/// Concurrent top-level window sweep (paper §V-C3's "multiple windows ...
/// simultaneously by different thread blocks"): the windows are cut up
/// front, then `parallel_windows` OS threads drain them from a shared
/// cursor, all offering into one locked incumbent. Recursion inside any
/// window stays sequential within its thread.
fn parallel_window_sweep<O: EdgeOracle + ?Sized>(
    ctx: &SearchCtx<'_, O>,
    vertex_id: &[u32],
    sublist_id: &[u32],
    incumbent: &Mutex<Incumbent>,
    stats: &Mutex<WindowStats>,
) -> Result<(), DeviceError> {
    // Cut all top-level windows first.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    while start < vertex_id.len() {
        let end = if ctx.config.size == 0 {
            auto_window_end(sublist_id, start, auto_budget_entries(ctx.device))
        } else {
            window_end(sublist_id, start, start + ctx.config.size)
        };
        ranges.push((start, end));
        start = end;
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = ctx.config.parallel_windows.min(ranges.len()).max(1);
    let first_error: Mutex<Option<DeviceError>> = Mutex::new(None);
    // Per-worker balance slots (windows drained, busy nanoseconds): each
    // worker writes only its own pair, read after the scope joins.
    use std::sync::atomic::{AtomicU64, Ordering};
    let drained: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let busy_ns: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let sweep_start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let cursor = &cursor;
            let ranges = &ranges;
            let first_error = &first_error;
            let drained = &drained;
            let busy_ns = &busy_ns;
            scope.spawn(move || {
                let began = std::time::Instant::now();
                let mut windows_drained = 0u64;
                // Arenas are not shared across threads: each worker recycles
                // its own scratch over the windows it drains.
                let mut arena = LevelArena::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(s, e)) = ranges.get(i) else { break };
                    windows_drained += 1;
                    let outcome = process_window(
                        ctx,
                        &vertex_id[s..e],
                        &sublist_id[s..e],
                        &[],
                        0,
                        incumbent,
                        stats,
                        &mut arena,
                    );
                    if let Err(err) = outcome {
                        let mut slot = first_error.lock().expect("error lock poisoned");
                        if slot.is_none() {
                            *slot = Some(err);
                        } else if err.is_injected() {
                            // A sibling error already escapes this sweep; an
                            // injected fault absorbed here is recovered by
                            // the caller's retry of the whole sweep, so it
                            // must be tallied exactly once — now.
                            if let Some(inj) = ctx.injector.as_ref() {
                                inj.note_recovery(&err);
                            }
                        }
                        break;
                    }
                }
                drained[w].store(windows_drained, Ordering::Relaxed);
                busy_ns[w].store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });
    // Window-level imbalance: the busiest worker's drain count and the gap
    // between each worker's busy span and the sweep wall clock.
    let wall_ns = sweep_start.elapsed().as_nanos() as u64;
    let drained_max = drained
        .iter()
        .map(|d| d.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0);
    let idle_ns: u64 = busy_ns
        .iter()
        .map(|b| wall_ns.saturating_sub(b.load(Ordering::Relaxed)))
        .sum();
    {
        let mut st = stats.lock().expect("stats lock poisoned");
        st.sweep_workers = st.sweep_workers.max(workers);
        st.sweep_drained_max += drained_max as usize;
        st.sweep_idle_ns += idle_ns;
    }
    let tracer = ctx.device.exec().tracer();
    if tracer.is_enabled() {
        tracer.instant(
            "window_sweep_balance",
            &[
                ("workers", workers as i64),
                ("windows", ranges.len() as i64),
                ("drained_max", drained_max as i64),
                ("idle_ns", idle_ns as i64),
            ],
        );
        tracer.counter("window_sweep_idle_ns", idle_ns as i64);
    }
    match first_error.into_inner().expect("error lock poisoned") {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// Builds the next-level candidate arrays for one over-large sublist: an
/// entry `(c_i, c_j)` for every ordered pair of adjacent candidates. The
/// sublist's candidate order carries over, so each deeper clique still has a
/// unique monotone path.
fn build_child_level<O: EdgeOracle + ?Sized>(
    ctx: &SearchCtx<'_, O>,
    candidates: &[u32],
) -> Result<(Vec<u32>, Vec<u32>), LaunchError> {
    let exec = ctx.device.exec();
    let len = candidates.len();
    let oracle = ctx.oracle;
    // Every candidate descends from the setup list, so each survives core
    // pruning and the core bitmap (when built) covers all pairs.
    let adjacent = |a: u32, b: u32| match ctx.persistent {
        Some(core) => core.probe(a, b),
        None => oracle.connected(a, b),
    };
    let counts: Vec<usize> = exec.try_map(Launch::new("window_count_sublists", len), |i| {
        candidates[i + 1..]
            .iter()
            .filter(|&&c| adjacent(candidates[i], c))
            .count()
    })?;
    let (offsets, total) = gmc_dpp::try_exclusive_scan(exec, &counts)?;
    let mut child_vertex = vec![0u32; total];
    let mut child_sublist = vec![0u32; total];
    {
        let vertex_shared = SharedSlice::new(&mut child_vertex);
        let sublist_shared = SharedSlice::new(&mut child_sublist);
        exec.try_run(Launch::new("window_expand_sublists", len), |i| {
            let mut cursor = offsets[i];
            for &c in &candidates[i + 1..] {
                if adjacent(candidates[i], c) {
                    // SAFETY: each source writes its own disjoint span.
                    unsafe {
                        vertex_shared.write(cursor, c);
                        sublist_shared.write(cursor, candidates[i]);
                    }
                    cursor += 1;
                }
            }
        })?;
    }
    Ok((child_vertex, child_sublist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CandidateOrder;
    use crate::setup::build_two_clique_list;
    use gmc_graph::generators;

    fn prepared(graph: &Csr, lower: u32) -> SetupOutput {
        let device = Device::unlimited();
        build_two_clique_list(
            device.exec(),
            graph,
            lower,
            &graph.degrees(),
            crate::config::OrientationRule::Degree,
            CandidateOrder::DegreeAscending,
            crate::config::SublistBound::Length,
        )
    }

    fn search(
        device: &Device,
        graph: &Csr,
        setup: &SetupOutput,
        cfg: &WindowConfig,
        witness: &[u32],
        target: u32,
    ) -> Result<WindowOutcome, DeviceError> {
        windowed_search(
            device, graph, graph, setup, cfg, witness, target, false, true, None, None,
        )
    }

    /// Reference via the *unfused* pipeline, so windowed (fused) runs are
    /// cross-validated against the paper-literal baseline.
    fn reference_expand(graph: &Csr, setup: &SetupOutput) -> crate::bfs::ExpansionOutcome {
        let device = Device::unlimited();
        let level0 = CliqueLevel::from_vecs(
            device.memory(),
            setup.vertex_id.clone(),
            setup.sublist_id.clone(),
        )
        .unwrap();
        expand(
            &device,
            graph,
            level0,
            2,
            false,
            false,
            None,
            &mut LevelArena::new(),
        )
        .unwrap()
    }

    fn normalize(mut cs: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        for c in &mut cs {
            c.sort_unstable();
        }
        cs.sort();
        cs
    }

    #[test]
    fn window_end_snaps_to_boundaries() {
        let sublists = [0u32, 0, 0, 1, 1, 2];
        // Cutting inside the first run snaps left to `start`, then the whole
        // sublist is taken so the window advances.
        assert_eq!(window_end(&sublists, 0, 2), 3);
        assert_eq!(window_end(&sublists, 0, 3), 3);
        assert_eq!(window_end(&sublists, 0, 4), 3);
        assert_eq!(window_end(&sublists, 0, 5), 5);
        assert_eq!(window_end(&sublists, 3, 4), 5); // run {1,1} longer than cut
        assert_eq!(window_end(&sublists, 0, 99), 6);
    }

    #[test]
    fn oversized_sublist_is_taken_whole() {
        let sublists = [7u32, 7, 7, 7, 8];
        assert_eq!(window_end(&sublists, 0, 2), 4);
    }

    #[test]
    fn reordering_permutes_whole_sublists() {
        let g = generators::gnp(40, 0.2, 3);
        let setup = prepared(&g, 0);
        for ordering in [
            WindowOrdering::Index,
            WindowOrdering::DegreeAscending,
            WindowOrdering::DegreeDescending,
            WindowOrdering::Random(5),
        ] {
            let exec = gmc_dpp::Executor::new(2);
            let (v, s) =
                reorder_sublists(&exec, &g, &setup.vertex_id, &setup.sublist_id, ordering).unwrap();
            assert_eq!(v.len(), setup.vertex_id.len());
            // Sublists stay contiguous: each source appears in one run.
            let mut seen = std::collections::HashSet::new();
            let mut i = 0;
            while i < s.len() {
                assert!(seen.insert(s[i]), "sublist {} split", s[i]);
                let mut j = i;
                while j < s.len() && s[j] == s[i] {
                    j += 1;
                }
                i = j;
            }
        }
    }

    #[test]
    fn descending_order_puts_high_degree_first() {
        let g = generators::barabasi_albert(60, 3, 11);
        let setup = prepared(&g, 0);
        let exec = gmc_dpp::Executor::new(2);
        let (_, s) = reorder_sublists(
            &exec,
            &g,
            &setup.vertex_id,
            &setup.sublist_id,
            WindowOrdering::DegreeDescending,
        )
        .unwrap();
        if !s.is_empty() {
            assert!(g.degree(s[0]) >= g.degree(*s.last().unwrap()));
        }
    }

    #[test]
    fn find_one_returns_a_maximum_clique() {
        let device = Device::unlimited();
        let g = generators::gnp(60, 0.2, 13);
        let setup = prepared(&g, 0);
        let full = reference_expand(&g, &setup);

        let cfg = WindowConfig {
            size: 8,
            ..WindowConfig::default()
        };
        let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
        assert_eq!(out.clique_size, full.clique_size);
        assert!(g.is_clique(&out.cliques[0]));
        assert!(!out.complete);
        assert!(out.stats.num_windows > 1);
    }

    #[test]
    fn enumerate_all_matches_full_bfs_across_window_sizes() {
        let device = Device::unlimited();
        let g = generators::gnp(50, 0.25, 17);
        let setup = prepared(&g, 0);
        let full = reference_expand(&g, &setup);
        let expected = normalize(full.cliques);
        for size in [1, 4, 16, 1024] {
            let cfg = WindowConfig {
                size,
                enumerate_all: true,
                ..WindowConfig::default()
            };
            let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
            assert_eq!(out.clique_size, full.clique_size, "window size {size}");
            assert_eq!(normalize(out.cliques), expected, "window size {size}");
            assert!(out.complete);
        }
    }

    #[test]
    fn witness_survives_when_nothing_better_exists() {
        // Find-one mode with the true maximum as witness: windows find
        // nothing strictly better, so the witness is returned.
        let device = Device::unlimited();
        let g = generators::complete(5);
        let setup = prepared(&g, 5);
        let cfg = WindowConfig {
            size: 2,
            ..WindowConfig::default()
        };
        let witness = vec![0, 1, 2, 3, 4];
        let out = search(&device, &g, &setup, &cfg, &witness, 5).unwrap();
        assert_eq!(out.clique_size, 5);
        assert_eq!(out.cliques, vec![witness]);
        assert_eq!(out.stats.bound_improvements, 0);
    }

    #[test]
    fn windows_use_less_memory_than_full_bfs() {
        let device = Device::unlimited();
        let g = generators::gnp(80, 0.3, 19);
        let setup = prepared(&g, 0);

        device.memory().reset_peak();
        let full_level = CliqueLevel::from_vecs(
            device.memory(),
            setup.vertex_id.clone(),
            setup.sublist_id.clone(),
        )
        .unwrap();
        let _ = expand(
            &device,
            &g,
            full_level,
            2,
            false,
            true,
            None,
            &mut LevelArena::new(),
        )
        .unwrap();
        let full_peak = device.memory().peak();

        let cfg = WindowConfig {
            size: 16,
            ..WindowConfig::default()
        };
        let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
        assert!(
            out.stats.peak_window_bytes < full_peak,
            "windowed {} vs full {full_peak}",
            out.stats.peak_window_bytes
        );
    }

    #[test]
    fn non_recursive_mode_propagates_oom() {
        // One huge window (the whole graph) on a starved budget, depth 1.
        let g = generators::gnp(100, 0.3, 21);
        let setup = prepared(&g, 0);
        let device = Device::with_memory_budget(4 * 1024);
        let cfg = WindowConfig {
            size: usize::MAX / 2,
            ..WindowConfig::default()
        };
        assert!(search(&device, &g, &setup, &cfg, &[], 2).is_err());
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn recursive_windowing_rescues_oversized_windows() {
        let g = generators::gnp(100, 0.3, 21);
        let setup = prepared(&g, 0);
        let reference = reference_expand(&g, &setup);

        // Same starved budget, but with splitting + recursion allowed.
        let device = Device::with_memory_budget(4 * 1024);
        let cfg = WindowConfig {
            size: usize::MAX / 2,
            max_depth: 6,
            ..WindowConfig::default()
        };
        let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
        assert_eq!(out.clique_size, reference.clique_size);
        assert!(g.is_clique(&out.cliques[0]));
        assert!(out.stats.window_splits > 0, "expected OOM-driven splits");
    }

    #[test]
    fn recursive_enumeration_is_still_complete() {
        let g = generators::gnp(60, 0.3, 23);
        let setup = prepared(&g, 0);
        let expected = normalize(reference_expand(&g, &setup).cliques);
        let device = Device::with_memory_budget(3 * 1024);
        let cfg = WindowConfig {
            size: usize::MAX / 2,
            enumerate_all: true,
            max_depth: 8,
            ..WindowConfig::default()
        };
        let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
        assert!(out.complete);
        assert_eq!(normalize(out.cliques), expected);
    }

    #[test]
    fn sublist_recursion_triggers_on_giant_sublists() {
        // A K17 plus pendant fringe: the clique's minimum vertex owns a
        // 16-candidate sublist whose subtree peaks at C(16,8) ≈ 12.9k
        // entries — far over a 2 KiB budget — so the search must recurse
        // several levels deep before subtrees fit.
        let mut edges = Vec::new();
        for u in 0..17u32 {
            for v in (u + 1)..17 {
                edges.push((u, v));
            }
        }
        for p in 17..40u32 {
            edges.push((p % 17, p));
        }
        let g = Csr::from_edges(40, &edges);
        let setup = prepared(&g, 0);
        let device = Device::with_memory_budget(2 * 1024);
        let cfg = WindowConfig {
            size: 4,
            max_depth: 10,
            ..WindowConfig::default()
        };
        let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
        assert_eq!(out.clique_size, 17);
        assert!(g.is_clique(&out.cliques[0]));
        assert!(
            out.stats.sublist_recursions > 0,
            "expected deeper-level windowing: {:?}",
            out.stats
        );
    }

    #[test]
    fn auto_window_sizing_follows_moon_moser() {
        // Small budget → windows of few sublists; big budget → one window.
        let g = generators::gnp(60, 0.2, 41);
        let setup = prepared(&g, 0);
        let reference = reference_expand(&g, &setup);

        let tight = Device::new(1, 4 * 1024);
        let cfg = WindowConfig::auto();
        let out = search(&tight, &g, &setup, &cfg, &[], 2).unwrap();
        assert_eq!(out.clique_size, reference.clique_size);
        assert!(out.stats.num_windows > 1, "tight budget should cut windows");

        let roomy = Device::unlimited();
        let out = search(&roomy, &g, &setup, &cfg, &[], 2).unwrap();
        assert_eq!(out.clique_size, reference.clique_size);
        assert_eq!(out.stats.num_windows, 1, "roomy budget should not cut");
    }

    #[test]
    fn auto_window_end_takes_whole_sublists() {
        let sublists = [0u32, 0, 0, 1, 1, 2, 2, 2, 2];
        // Budget of 1 estimated entry: one sublist per window.
        assert_eq!(auto_window_end(&sublists, 0, 1), 3);
        assert_eq!(auto_window_end(&sublists, 3, 1), 5);
        assert_eq!(auto_window_end(&sublists, 5, 1), 9);
        // Large budget: everything in one window.
        assert_eq!(auto_window_end(&sublists, 0, usize::MAX), 9);
    }

    #[test]
    fn parallel_windows_enumerate_the_same_set() {
        let g = generators::gnp(60, 0.25, 51);
        let setup = prepared(&g, 0);
        let expected = normalize(reference_expand(&g, &setup).cliques);
        for workers in [2, 4] {
            let device = Device::new(2, usize::MAX);
            let cfg = WindowConfig {
                size: 8,
                enumerate_all: true,
                parallel_windows: workers,
                ..WindowConfig::default()
            };
            let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
            assert_eq!(normalize(out.cliques), expected, "workers {workers}");
            assert!(out.complete);
        }
    }

    #[test]
    fn parallel_windows_find_one_returns_a_maximum() {
        let g = generators::gnp(70, 0.2, 53);
        let setup = prepared(&g, 0);
        let reference = reference_expand(&g, &setup);
        let device = Device::new(2, usize::MAX);
        let cfg = WindowConfig {
            size: 4,
            parallel_windows: 3,
            ..WindowConfig::default()
        };
        let out = search(&device, &g, &setup, &cfg, &[], 2).unwrap();
        assert_eq!(out.clique_size, reference.clique_size);
        assert!(g.is_clique(&out.cliques[0]));
    }

    #[test]
    fn parallel_windows_propagate_oom_and_release_memory() {
        let g = generators::gnp(100, 0.3, 55);
        let setup = prepared(&g, 0);
        let device = Device::with_memory_budget(2 * 1024);
        let cfg = WindowConfig {
            size: usize::MAX / 2,
            parallel_windows: 4,
            ..WindowConfig::default()
        };
        assert!(search(&device, &g, &setup, &cfg, &[], 2).is_err());
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn recursive_enumeration_with_tiny_budget_matches_oracle_sets() {
        for seed in 30..34 {
            let g = generators::gnp(40, 0.35, seed);
            let setup = prepared(&g, 0);
            let expected = normalize(reference_expand(&g, &setup).cliques);
            let device = Device::with_memory_budget(512);
            let cfg = WindowConfig {
                size: 8,
                enumerate_all: true,
                max_depth: 12,
                ..WindowConfig::default()
            };
            match search(&device, &g, &setup, &cfg, &[], 2) {
                Ok(out) => assert_eq!(normalize(out.cliques), expected, "seed {seed}"),
                Err(_) => {
                    // Even recursion can legitimately fail on a 512-byte
                    // budget; what must never happen is a wrong answer.
                }
            }
            assert_eq!(device.memory().live(), 0, "seed {seed} leaked");
        }
    }
}
