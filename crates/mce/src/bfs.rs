//! The iterative breadth-first expansion (paper §IV-D, Algorithm 2).
//!
//! Each level launches one virtual thread per candidate entry:
//!
//! 1. **Count kernel** (`COUNTCLIQUES`): entry `i` walks the entries after
//!    it in its sublist, counting those adjacent to its own vertex (a binary
//!    search per check). If the count cannot reach the target clique size
//!    (`k + connected < target`), the count is zeroed — the branch is
//!    pruned.
//! 2. **Scan** over the counts yields the output offsets and the size of the
//!    next level.
//! 3. **Output kernel** (`OUTPUTNEWCLIQUES`): each unpruned entry emits one
//!    `(vertex, parent)` pair per adjacent candidate into its span of the
//!    next level's arrays.
//!
//! Two pipelines implement that level step:
//!
//! * **Fused** (the default, [`SolverConfig::fused`]): the count walk
//!   records each adjacency answer as a bitmask — one inline `u64` covers
//!   the first [`INLINE_BITS`] tail positions, longer tails spill whole
//!   `u64` words into a shared side buffer — and the output kernel *replays*
//!   the bits instead of re-querying the [`EdgeOracle`]. The count walk is
//!   also *bound-directed*: it stops as soon as the candidates left cannot
//!   lift the entry to the target (such an entry is pruned to zero either
//!   way, so the truncation never changes the output). Sublist tail
//!   lengths are threaded level to level (the emit kernel writes each new
//!   entry's tail), so neither kernel compares `sublist_id` values. The scan
//!   is the single-pass chunk-carry [`gmc_dpp::exclusive_scan_into`]. Three
//!   launches per level instead of four, and typically well under half the
//!   oracle queries; all scratch lives in a [`LevelArena`] recycled across
//!   levels and windows.
//! * **Unfused** (the ablation baseline): the seed pipeline verbatim — the
//!   paper-literal full count walk, an output kernel that re-walks every
//!   unpruned sublist tail (repeating the count kernel's oracle queries),
//!   fresh per-level allocations and the two-phase scan.
//!
//! The fused pipeline additionally carries a **sublist-local bitmap fast
//! path** ([`SolverConfig::local_bits`]): before each count kernel the head
//! level is segmented by sublist (boundaries fall out of the threaded
//! tails), and every sublist that is long enough — and, under `Auto`,
//! whose provable walk savings at this level's bound cover the build cost
//! — gets an m×m sublist-local adjacency bitmap. Two
//! launches build it with *zero* oracle probes: one sorts each such
//! sublist's packed member keys, one builds each row by galloping the row
//! vertex's sorted CSR neighbor list against the sorted member slice. The
//! count kernel then derives entry `i`'s tail mask directly from its row —
//! tail bit `b` is row bit `r + 1 + b` for local position `r`, so the
//! inline word and every spill word are 64-wide funnel shifts of the row,
//! the surviving count is one suffix popcount, and bound-directed pruning
//! collapses to a popcount comparison. Scalar sublists in the same level
//! walk exactly as before and the emit kernel is untouched, so the fast
//! path is bit-identical to the scalar walk, spill layout included.
//!
//! Both pipelines count their `EdgeOracle::connected` calls exactly into
//! [`ExpansionOutcome::oracle_queries`]. The unfused walks are fully
//! deterministic, so their tally is computed analytically on the host; the
//! fused count kernel records each pruned entry's truncated walk length in
//! that entry's otherwise-dead mask slot, and the host folds the tally from
//! there at zero hot-path cost. Bitmap segments make no oracle calls at
//! all; the probes the scalar walk *would* have made are reconstructed
//! from the rows by the same rule and tallied into
//! [`LocalBitsStats::probes_avoided`], so local-bits on/off query tallies
//! always reconcile exactly.
//!
//! The loop ends when a level produces no entries; every entry of the last
//! level is then a maximum clique (each entry of level `L` is a valid
//! `(L + 2)`-clique, and each clique appears exactly once because the
//! orientation makes its vertex order unique).
//!
//! [`SolverConfig::fused`]: crate::SolverConfig::fused
//! [`SolverConfig::local_bits`]: crate::SolverConfig::local_bits

use crate::arena::{LevelArena, LocalSeg};
use crate::config::LocalBitsMode;
use gmc_cliquelist::{CliqueLevel, CliqueList};
use gmc_dpp::{bits, Device, DeviceError, Launch, SharedSlice, UninitSlice};
use gmc_graph::{local_row_intersect, pack_member, CoreBitmap, Csr, EdgeOracle};

/// Result of expanding one clique list to exhaustion.
#[derive(Debug)]
pub(crate) struct ExpansionOutcome {
    /// Cliques stored at the deepest non-empty level (unsorted read-out
    /// order), or the single early-exit clique.
    pub cliques: Vec<Vec<u32>>,
    /// Size of those cliques (0 when the initial level was empty).
    pub clique_size: usize,
    /// Entry count at each level, including the initial one.
    pub level_entries: Vec<usize>,
    /// Whether the provably-unique-remainder early exit fired.
    pub early_exit: bool,
    /// Exact number of `EdgeOracle::connected` calls this expansion made
    /// (count/output walks plus early-exit checks). The fused pipeline's
    /// saving over the unfused baseline shows up here.
    pub oracle_queries: u64,
    /// Sublist-local bitmap fast-path counters (all zero when the path
    /// never fired).
    pub local_bits: LocalBitsStats,
}

/// Counters for the adjacency-bitmap fast paths (fused pipeline only):
/// the per-level sublist-local tier and the persistent core-bitmap tier.
///
/// All counters are exact, not sampled: `probes_avoided` is reconstructed
/// with the same walk-length rule the scalar tally uses (from the bitmap
/// rows per-level, or from the walk the persistent probe path actually
/// performed), so for any expansion `oracle_queries(bitmaps on) +
/// probes_avoided == oracle_queries(bitmaps off)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalBitsStats {
    /// Per-level bitmap rows built across all levels — one per member of
    /// each bitmap-covered sublist. Stays zero under the persistent tier:
    /// the core bitmap is built once, outside the level loop.
    pub rows_built: u64,
    /// Row words the count kernel scanned; each replaces up to 64 scalar
    /// oracle probes with one shift/AND/popcount.
    pub words_anded: u64,
    /// Scalar `EdgeOracle::connected` probes the bitmap paths made
    /// unnecessary (what the scalar walk would have cost on those entries).
    pub probes_avoided: u64,
    /// The subset of `probes_avoided` answered by the *persistent* core
    /// bitmap: each was a single word test instead of a scalar oracle
    /// probe, with zero per-level rebuild cost.
    pub persistent_probes: u64,
    /// Device bytes charged for the persistent core bitmap, zero when the
    /// persistent tier never fired. A capacity, not a flow: folding takes
    /// the max so window-level tallies do not double-count the one bitmap.
    pub persistent_bytes: u64,
}

impl LocalBitsStats {
    /// Folds another tally (a level's, or a window's) into this one.
    pub fn accumulate(&mut self, other: LocalBitsStats) {
        self.rows_built += other.rows_built;
        self.words_anded += other.words_anded;
        self.probes_avoided += other.probes_avoided;
        self.persistent_probes += other.persistent_probes;
        self.persistent_bytes = self.persistent_bytes.max(other.persistent_bytes);
    }
}

/// Largest head level for which the early-exit mutual-adjacency check is
/// attempted; the check costs `len²` edge lookups.
const EARLY_EXIT_CHECK_LIMIT: usize = 512;

/// Tail positions covered by the per-entry inline adjacency mask; longer
/// tails spill whole `u64` words into the arena's side buffer.
const INLINE_BITS: usize = 64;

/// Sublists shorter than this never get a local bitmap, even when forced
/// on: a single-entry sublist has no tail to intersect.
const LOCAL_BITS_FORCED_MIN: usize = 2;

/// `Auto` builds a bitmap only for sublists at least this long — below it
/// the m²-bit payoff cannot recoup the build's sort-and-merge cost.
const LOCAL_BITS_AUTO_MIN: usize = 32;

/// `Auto` cost guard: measured cost of one edge-oracle probe relative to
/// one CSR merge step of the row build (a binary-search probe is ~5 merge
/// steps on this executor). The bitmap fires only when the walk it provably
/// replaces, weighted by this ratio, covers the build's `Σ deg(member) + m²`
/// merge-and-write work — see [`min_walk_lower_bound`].
const LOCAL_BITS_PROBE_WEIGHT: usize = 5;

/// Lower bound on the scalar probes a length-`m` sublist walks at bound
/// `need`: the bound-directed walk of an entry with tail `t` stops right
/// after its `t − need + 1`-th miss, so it performs at least
/// `t − need + 1` probes when `t ≥ need` (and surviving entries walk the
/// full `t ≥ need ≥ t − need + 1` anyway); entries with `t < need` may
/// walk nothing. At `need == 0` every entry walks its full tail. Summing
/// over the sublist's tails `0..m` gives a triangular number either way.
fn min_walk_lower_bound(m: usize, need: usize) -> usize {
    let span = if need == 0 {
        m.saturating_sub(1)
    } else {
        m.saturating_sub(need)
    };
    span * (span + 1) / 2
}

/// Expands `level0` breadth-first until no further cliques exist, returning
/// the cliques of the deepest level whose size reaches `min_target`.
///
/// `min_target` is the pruning bound: branches that cannot reach a clique of
/// at least this size are cut. For full enumeration pass `ω̄` (ties kept);
/// for find-one-better pass `best + 1`. `fused` selects the pipeline and
/// `local_bits` the sublist-bitmap fast path within it (see the module
/// docs); `persistent` supplies the solve-lifetime core bitmap when the
/// persistent tier fired — the fused count kernel then answers every probe
/// from it (single word tests, tallied into
/// [`LocalBitsStats::persistent_probes`]) and skips per-level planning and
/// builds entirely; the unfused pipeline ignores it. `arena` supplies
/// recycled scratch and absorbs the retired levels' buffers on return,
/// including the error path. The graph backs the bitmap builds — all scalar
/// connectivity goes through the oracle.
///
/// Failures — genuine OOM or injected allocation/launch faults — surface as
/// [`DeviceError`] with the arena released, so the caller can retry (fault
/// recovery) or split the window (OOM). One fault is recovered *inside* the
/// loop: an injected failure while building a level's local bitmaps drops
/// that level back to the scalar walk, which is bit-identical by design.
#[allow(clippy::too_many_arguments)] // mirrors the solver's knobs 1:1
pub(crate) fn expand<O: EdgeOracle + ?Sized>(
    device: &Device,
    graph: &Csr,
    oracle: &O,
    level0: CliqueLevel,
    min_target: u32,
    early_exit_enabled: bool,
    fused: bool,
    local_bits: LocalBitsMode,
    persistent: Option<&CoreBitmap>,
    arena: &mut LevelArena,
) -> Result<ExpansionOutcome, DeviceError> {
    let mut list = CliqueList::new();
    let mut level_entries = vec![level0.len()];
    if level0.is_empty() {
        return Ok(ExpansionOutcome {
            cliques: Vec::new(),
            clique_size: 0,
            level_entries,
            early_exit: false,
            oracle_queries: 0,
            local_bits: LocalBitsStats::default(),
        });
    }
    list.push_level(level0);

    let mut queries = 0u64;
    let mut local_stats = LocalBitsStats::default();
    let grown = if fused {
        grow_fused(
            device,
            graph,
            oracle,
            &mut list,
            &mut level_entries,
            min_target,
            early_exit_enabled,
            local_bits,
            persistent,
            arena,
            &mut queries,
            &mut local_stats,
        )
    } else {
        grow_unfused(
            device,
            oracle,
            &mut list,
            &mut level_entries,
            min_target,
            early_exit_enabled,
            arena,
            &mut queries,
        )
    };
    let outcome = match grown {
        Err(err) => {
            recycle(arena, &mut list);
            arena.release_charges();
            return Err(err);
        }
        Ok(Some(clique)) => {
            // Early exit (paper Algorithm 2, line 36) fired.
            let clique_size = clique.len();
            ExpansionOutcome {
                cliques: vec![clique],
                clique_size,
                level_entries,
                early_exit: true,
                oracle_queries: queries,
                local_bits: local_stats,
            }
        }
        Ok(None) => {
            // Read out the deepest level.
            let final_idx = list.num_levels() - 1;
            let clique_size = list.clique_size_at(final_idx);
            if (clique_size as u32) < min_target {
                // Every branch died before reaching the target: nothing to
                // report (this happens in windowed mode when a window holds
                // no clique beating the incumbent).
                ExpansionOutcome {
                    cliques: Vec::new(),
                    clique_size: 0,
                    level_entries,
                    early_exit: false,
                    oracle_queries: queries,
                    local_bits: local_stats,
                }
            } else {
                ExpansionOutcome {
                    cliques: list.read_all_cliques(final_idx),
                    clique_size,
                    level_entries,
                    early_exit: false,
                    oracle_queries: queries,
                    local_bits: local_stats,
                }
            }
        }
    };
    recycle(arena, &mut list);
    arena.release_charges();
    Ok(outcome)
}

/// Pops every level back into the arena's staging freelist: the device
/// charges drop with the [`CliqueLevel`]s while the host buffers survive for
/// the next level or window.
fn recycle(arena: &mut LevelArena, list: &mut CliqueList) {
    while let Some(level) = list.pop_level() {
        let (vertex, sublist) = level.into_vecs();
        arena.retire_staging(vertex);
        arena.retire_staging(sublist);
    }
}

/// The fused level loop: record-and-replay adjacency bitmasks, threaded
/// sublist tails, single-pass scan, arena-recycled scratch, and the
/// sublist-local bitmap fast path when `local_bits` selects it. Returns the
/// early-exit clique when that check fires, `None` when the level loop
/// drains normally.
#[allow(clippy::too_many_arguments)]
fn grow_fused<O: EdgeOracle + ?Sized>(
    device: &Device,
    graph: &Csr,
    oracle: &O,
    list: &mut CliqueList,
    level_entries: &mut Vec<usize>,
    min_target: u32,
    early_exit_enabled: bool,
    local_bits: LocalBitsMode,
    persistent: Option<&CoreBitmap>,
    arena: &mut LevelArena,
    queries: &mut u64,
    local_stats: &mut LocalBitsStats,
) -> Result<Option<Vec<u32>>, DeviceError> {
    let exec = device.exec();
    let tracer = exec.tracer();
    let injector = exec.fault_injector();
    arena.set_tails_from_sublists(list.head().expect("list is non-empty").sublist_ids());
    loop {
        // Level boundaries are the launch boundaries of the pipeline:
        // cancellation observed here unwinds through `expand`'s error path,
        // which recycles the list and releases every arena charge.
        exec.check_cancelled()?;
        let head = list.head().expect("list is non-empty");
        let k = list.clique_size_at(list.num_levels() - 1); // entries are k-cliques
        let len = head.len();
        assert!(len < u32::MAX as usize, "level exceeds u32 indexing");
        let vertex_id = head.vertex_ids();
        debug_assert_eq!(arena.tails.len(), len, "tails out of sync with head");
        let mut level_span = tracer
            .is_enabled()
            .then(|| tracer.span_with("bfs_level", &[("k", k as i64), ("entries", len as i64)]));
        let queries_before = *queries;

        // Candidates an entry must still find adjacent to reach the target;
        // the count walk stops the moment that becomes impossible.
        let need = (min_target as usize).saturating_sub(k);
        // The longest tail decides whether any bitmask spills past its
        // inline word.
        let max_tail = arena.tails.iter().copied().max().unwrap_or(0);

        // Size and charge the spill buffer only when some tail overflows
        // the inline mask (its bytes are device-resident between the two
        // kernels, charged at the arena's high-water mark).
        let spill_total = if max_tail as usize > INLINE_BITS {
            let tails = &arena.tails;
            let words_dst = UninitSlice::for_vec(&mut arena.spill_words, len);
            exec.try_run(Launch::new("bfs_spill_words", len), |i| {
                let words = (tails[i] as usize).saturating_sub(INLINE_BITS).div_ceil(64);
                // SAFETY: one write per index.
                unsafe { words_dst.write(i, words) };
            })?;
            // SAFETY: the launch above wrote every index in 0..len.
            unsafe { arena.spill_words.set_len(len) };
            let total = gmc_dpp::try_exclusive_scan_into(
                exec,
                &arena.spill_words,
                &mut arena.spill_offsets,
            )?;
            arena.charge_spill(device.memory(), total * std::mem::size_of::<u64>())?;
            total
        } else {
            0
        };

        // Segment the head level by sublist and plan which sublists get a
        // local adjacency bitmap (see the module docs). An empty plan —
        // mode off, or every sublist rejected — keeps the level on the
        // plain scalar kernel with zero dispatch overhead. The persistent
        // tier answers every probe from the solve-lifetime core bitmap, so
        // per-level planning and builds are skipped outright (zero
        // rebuilds after the one up-front build).
        let local_words = if persistent.is_some() {
            0
        } else {
            plan_local_segments(graph, vertex_id, arena, local_bits, need)
        };
        let mut local_active = local_words > 0;
        if local_active {
            if let Err(err) = build_local_bitmaps(device, graph, vertex_id, arena, local_words) {
                let recoverable = err.is_injected() && injector.is_some();
                if !recoverable {
                    return Err(err);
                }
                // Recovery ladder, first rung: an injected fault in the
                // bitmap build drops this level back to the scalar walk —
                // bit-identical output by design, only the query tally
                // shifts from `probes_avoided` to real probes.
                injector
                    .as_ref()
                    .expect("recoverable implies an armed injector")
                    .note_bitmap_fallback(&err);
                if tracer.is_enabled() {
                    tracer.instant("fault_bitmap_fallback", &[("k", k as i64)]);
                }
                local_active = false;
            }
        }

        // Fused COUNTCLIQUES: the single adjacency walk records both the
        // pruned count and the raw adjacency bitmask the emit kernel will
        // replay (see `scalar_count_walk` for the walk's invariants).
        // Entries of bitmap segments skip the walk entirely and derive
        // their mask by shifting their bitmap row past their own position.
        // Spill words are assembled locally and each is stored exactly once
        // (bailing entries zero-fill the rest of their span), so the side
        // buffer needs no pre-zeroing.
        {
            let tails = &arena.tails;
            let spill_offsets = &arena.spill_offsets;
            let counts_dst = UninitSlice::for_vec(&mut arena.counts, len);
            let masks_dst = UninitSlice::for_vec(&mut arena.masks, len);
            let spill_dst = UninitSlice::for_vec(&mut arena.spill, spill_total);
            if let Some(core) = persistent {
                // Persistent tier: the identical bound-directed record walk,
                // but every adjacency answer is a single word test against
                // the core bitmap — same masks, same spill layout, same
                // truncation rule, so the output is bit-identical to the
                // scalar walk while the edge oracle is never touched.
                let tail_cost = |i: usize| u64::from(tails[i]) + 1;
                let launch = Launch::new("bfs_count_cliques_persistent", len)
                    .fused()
                    .weighted(&tail_cost);
                exec.try_run(launch, |i| {
                    let t = tails[i] as usize;
                    let spill_base = if t > INLINE_BITS { spill_offsets[i] } else { 0 };
                    scalar_count_walk(
                        core,
                        vertex_id,
                        i,
                        t,
                        need,
                        spill_base,
                        &counts_dst,
                        &masks_dst,
                        &spill_dst,
                    );
                })?;
            } else if local_active {
                let segs = &arena.segs;
                let seg_of = &arena.seg_of;
                let local_rows = &arena.local_rows;
                // Cost hint: the walk visits exactly the entry's tail.
                let tail_cost = |i: usize| u64::from(tails[i]) + 1;
                let launch = Launch::new("bfs_count_cliques_local", len)
                    .fused()
                    .weighted(&tail_cost);
                exec.try_run(launch, |i| {
                    let t = tails[i] as usize;
                    let spill_base = if t > INLINE_BITS { spill_offsets[i] } else { 0 };
                    let seg = &segs[seg_of[i] as usize];
                    if seg.bitmap {
                        let r = i - seg.start;
                        let base = seg.rows_off + r * seg.words_per_row;
                        let row = &local_rows[base..base + seg.words_per_row];
                        bitmap_count_walk(
                            row,
                            r,
                            i,
                            t,
                            need,
                            spill_base,
                            &counts_dst,
                            &masks_dst,
                            &spill_dst,
                        );
                    } else {
                        scalar_count_walk(
                            oracle,
                            vertex_id,
                            i,
                            t,
                            need,
                            spill_base,
                            &counts_dst,
                            &masks_dst,
                            &spill_dst,
                        );
                    }
                })?;
            } else {
                let tail_cost = |i: usize| u64::from(tails[i]) + 1;
                let launch = Launch::new("bfs_count_cliques_fused", len)
                    .fused()
                    .weighted(&tail_cost);
                exec.try_run(launch, |i| {
                    let t = tails[i] as usize;
                    let spill_base = if t > INLINE_BITS { spill_offsets[i] } else { 0 };
                    scalar_count_walk(
                        oracle,
                        vertex_id,
                        i,
                        t,
                        need,
                        spill_base,
                        &counts_dst,
                        &masks_dst,
                        &spill_dst,
                    );
                })?;
            }
            // SAFETY: the launch wrote every index of all three buffers
            // (spill spans tile 0..spill_total across entries with long
            // tails).
            unsafe {
                arena.counts.set_len(len);
                arena.masks.set_len(len);
                arena.spill.set_len(spill_total);
            }
        }

        // Exact query tally: a surviving entry always walked its whole tail
        // (a bailed walk implies pruning), a pruned entry recorded its
        // truncated walk length in the dead mask slot. Bitmap segments made
        // no oracle calls — the same rule reconstructs the probes the
        // scalar walk would have made, which feed the avoided counter.
        let mut level_local = LocalBitsStats::default();
        if persistent.is_some() {
            // The persistent walk probed the core bitmap exactly where the
            // scalar walk would have probed the oracle, so the same rule
            // tallies those word tests — into the avoided/persistent
            // counters, never into `queries`.
            let avoided = arena
                .counts
                .iter()
                .zip(&arena.tails)
                .zip(&arena.masks)
                .map(|((&c, &t), &m)| if c > 0 { u64::from(t) } else { m })
                .sum::<u64>();
            level_local.probes_avoided = avoided;
            level_local.persistent_probes = avoided;
            local_stats.accumulate(level_local);
        } else if local_active {
            for seg in &arena.segs {
                let would_walk = |i: usize| {
                    if arena.counts[i] > 0 {
                        u64::from(arena.tails[i])
                    } else {
                        arena.masks[i]
                    }
                };
                if seg.bitmap {
                    level_local.rows_built += seg.len as u64;
                    for i in seg.start..seg.start + seg.len {
                        let r = i - seg.start;
                        level_local.words_anded += (seg.words_per_row - (r + 1) / 64) as u64;
                        level_local.probes_avoided += would_walk(i);
                    }
                } else {
                    for i in seg.start..seg.start + seg.len {
                        *queries += would_walk(i);
                    }
                }
            }
            local_stats.accumulate(level_local);
        } else {
            *queries += arena
                .counts
                .iter()
                .zip(&arena.tails)
                .zip(&arena.masks)
                .map(|((&c, &t), &m)| if c > 0 { u64::from(t) } else { m })
                .sum::<u64>();
        }

        let total = gmc_dpp::try_exclusive_scan_into(exec, &arena.counts, &mut arena.offsets)?;
        if let Some(span) = level_span.as_mut() {
            span.arg("emitted", total as i64);
            span.arg(
                "pruned",
                arena.counts.iter().filter(|&&c| c == 0).count() as i64,
            );
            span.arg("oracle_queries", (*queries - queries_before) as i64);
            if persistent.is_some() {
                span.arg("persistent_probes", level_local.persistent_probes as i64);
            } else if local_active {
                span.arg("bitmap_rows", level_local.rows_built as i64);
                span.arg("probes_avoided", level_local.probes_avoided as i64);
            }
        }
        if total == 0 {
            return Ok(None);
        }

        // Fused OUTPUTNEWCLIQUES: replay the recorded bits — zero oracle
        // queries — and write each emitted entry's sublist tail for the
        // next level (its sublist is exactly its parent's span).
        let mut new_vertex = arena.take_staging();
        let mut new_sublist = arena.take_staging();
        {
            let tails = &arena.tails;
            let counts = &arena.counts;
            let offsets = &arena.offsets;
            let masks = &arena.masks;
            let spill = &arena.spill;
            let spill_offsets = &arena.spill_offsets;
            let vertex_dst = UninitSlice::for_vec(&mut new_vertex, total);
            let sublist_dst = UninitSlice::for_vec(&mut new_sublist, total);
            let tails_dst = UninitSlice::for_vec(&mut arena.next_tails, total);
            // Cost hint: an entry replays exactly `counts[i]` recorded bits.
            let emit_cost = |i: usize| counts[i] as u64 + 1;
            let launch = Launch::new("bfs_emit_cliques_fused", len)
                .fused()
                .weighted(&emit_cost);
            exec.try_run(launch, |i| {
                if counts[i] == 0 {
                    return;
                }
                let end = offsets[i] + counts[i];
                let mut cursor = offsets[i];
                let emit = |b: usize, cursor: usize| {
                    // SAFETY: entry i owns offsets[i]..end; the spans tile
                    // 0..total and each slot is written exactly once.
                    unsafe {
                        vertex_dst.write(cursor, vertex_id[i + 1 + b]);
                        sublist_dst.write(cursor, i as u32);
                        tails_dst.write(cursor, (end - 1 - cursor) as u32);
                    }
                };
                // Inline bits replay in ascending order, matching the
                // unfused walk byte for byte.
                let mut m = masks[i];
                while m != 0 {
                    emit(m.trailing_zeros() as usize, cursor);
                    m &= m - 1;
                    cursor += 1;
                }
                let t = tails[i] as usize;
                if t > INLINE_BITS {
                    let base = spill_offsets[i];
                    for w in 0..(t - INLINE_BITS).div_ceil(64) {
                        let mut m = spill[base + w];
                        while m != 0 {
                            emit(INLINE_BITS + w * 64 + m.trailing_zeros() as usize, cursor);
                            m &= m - 1;
                            cursor += 1;
                        }
                    }
                }
                debug_assert_eq!(cursor, end, "mask replay disagrees with count");
            })?;
            // SAFETY: counts/offsets tile 0..total, so the launch wrote
            // every slot of all three buffers.
            unsafe {
                new_vertex.set_len(total);
                new_sublist.set_len(total);
                arena.next_tails.set_len(total);
            }
        }
        std::mem::swap(&mut arena.tails, &mut arena.next_tails);

        let new_level = CliqueLevel::from_vecs(device.memory(), new_vertex, new_sublist)?;
        level_entries.push(new_level.len());
        list.push_level(new_level);

        if early_exit_enabled {
            // Under the persistent tier the mutual-adjacency check probes
            // the core bitmap too; its word tests feed the same avoided
            // tally so the on/off query invariant keeps holding exactly.
            let clique = if let Some(core) = persistent {
                let mut word_tests = 0u64;
                let clique = try_early_exit(core, list, min_target, &mut word_tests);
                local_stats.probes_avoided += word_tests;
                local_stats.persistent_probes += word_tests;
                clique
            } else {
                try_early_exit(oracle, list, min_target, queries)
            };
            if let Some(clique) = clique {
                return Ok(Some(clique));
            }
        }
    }
}

/// Segments the head level by sublist (a sublist starting at `s` has length
/// `tails[s] + 1`) and plans which sublists take the bitmap fast path:
/// every one at least [`LOCAL_BITS_FORCED_MIN`] long under
/// [`LocalBitsMode::On`], none under `Off`, and under `Auto` only sublists
/// of at least [`LOCAL_BITS_AUTO_MIN`] members where the scalar walk the
/// bitmap replaces provably outweighs the CSR build — the
/// [`min_walk_lower_bound`] at this level's `need`, weighted by
/// [`LOCAL_BITS_PROBE_WEIGHT`] and amortised over the `need` expected
/// remaining levels, must cover `Σ deg(member) + m²`. Returns
/// the total bitmap words to build; zero means the level runs the plain
/// scalar kernel.
fn plan_local_segments(
    graph: &Csr,
    vertex_id: &[u32],
    arena: &mut LevelArena,
    mode: LocalBitsMode,
    need: usize,
) -> usize {
    arena.segs.clear();
    arena.seg_of.clear();
    arena.row_seg.clear();
    if mode == LocalBitsMode::Off {
        return 0;
    }
    let len = vertex_id.len();
    let mut rows = 0usize;
    let mut words = 0usize;
    let mut start = 0usize;
    while start < len {
        let m = arena.tails[start] as usize + 1;
        let bitmap = match mode {
            LocalBitsMode::Off => unreachable!("handled above"),
            // `Persistent` reaching the per-level planner means the core
            // bitmap could not be built (degrade ladder) — behave as the
            // forced per-level tier so the solve keeps its bitmap coverage.
            LocalBitsMode::On | LocalBitsMode::Persistent => m >= LOCAL_BITS_FORCED_MIN,
            LocalBitsMode::Auto => {
                // A sublist worth covering now keeps paying off as its
                // descendants walk toward the bound, so the build cost is
                // amortised over the expected remaining levels (`need`,
                // the ω̂-derived distance to the target) instead of being
                // charged to this level alone. The degree sum only lowers
                // the budget, so reject on the O(1) `m²` term alone before
                // walking member degrees.
                let levels = need.max(1);
                let budget = LOCAL_BITS_PROBE_WEIGHT * min_walk_lower_bound(m, need) * levels;
                m >= LOCAL_BITS_AUTO_MIN && budget >= m * m && {
                    let deg: usize = vertex_id[start..start + m]
                        .iter()
                        .map(|&v| graph.degree(v))
                        .sum();
                    budget >= deg + m * m
                }
            }
        };
        let seg_idx = arena.segs.len() as u32;
        let words_per_row = m.div_ceil(64);
        arena.segs.push(LocalSeg {
            start,
            len: m,
            row0: rows,
            rows_off: words,
            words_per_row,
            bitmap,
        });
        if bitmap {
            rows += m;
            words += m * words_per_row;
            // Rows of this segment all map back to it.
            arena.row_seg.resize(rows, seg_idx);
        }
        arena.seg_of.resize(start + m, seg_idx);
        start += m;
    }
    words
}

/// Charges, sorts and builds the per-sublist local bitmaps planned by
/// [`plan_local_segments`] — with *zero* oracle probes. One launch sorts
/// each bitmap sublist's packed member keys; a second builds each row by
/// galloping the row vertex's sorted CSR neighbor list against the sorted
/// member slice ([`local_row_intersect`]).
fn build_local_bitmaps(
    device: &Device,
    graph: &Csr,
    vertex_id: &[u32],
    arena: &mut LevelArena,
    total_words: usize,
) -> Result<(), DeviceError> {
    let exec = device.exec();
    let total_rows = arena.row_seg.len();
    // Member keys and row words are device-resident between these launches
    // and the count kernel; charge both at the arena's high-water mark.
    arena.charge_local(
        device.memory(),
        (total_rows + total_words) * std::mem::size_of::<u64>(),
    )?;

    // Sort each bitmap sublist's members once. Keys pack vertex then local
    // position (`pack_member`), so rows sort by vertex for the merge and
    // still recover each match's bit position.
    {
        let segs = &arena.segs;
        let members_dst = UninitSlice::for_vec(&mut arena.members, total_rows);
        exec.try_run(Launch::new("bfs_local_sort_members", segs.len()), |s| {
            let seg = &segs[s];
            if !seg.bitmap {
                return;
            }
            let mut keys: Vec<u64> = (0..seg.len)
                .map(|p| pack_member(vertex_id[seg.start + p], p as u32))
                .collect();
            keys.sort_unstable();
            for (idx, key) in keys.into_iter().enumerate() {
                // SAFETY: bitmap segments' member spans tile 0..total_rows
                // and each slot is written exactly once.
                unsafe { members_dst.write(seg.row0 + idx, key) };
            }
        })?;
        // SAFETY: every span of 0..total_rows was written by the launch.
        unsafe { arena.members.set_len(total_rows) };
    }

    // Build the rows: thread j exclusively owns row j's word span, OR-ing
    // one bit per adjacent member. Matches arrive in member-vertex order —
    // not bit order — so the span is pre-zeroed and read-modify-written by
    // its owner.
    arena.local_rows.clear();
    arena.local_rows.resize(total_words, 0);
    {
        let segs = &arena.segs;
        let row_seg = &arena.row_seg;
        let members = &arena.members;
        let rows = SharedSlice::new(&mut arena.local_rows);
        // Cost hint: row j's merge walks its member's adjacency list
        // against the segment's members.
        let row_cost = |j: usize| {
            let seg = &segs[row_seg[j] as usize];
            (graph.degree(vertex_id[seg.start + (j - seg.row0)]) + seg.len) as u64
        };
        let launch = Launch::new("bfs_local_build_rows", total_rows).weighted(&row_cost);
        exec.try_run(launch, |j| {
            let seg = &segs[row_seg[j] as usize];
            let r = j - seg.row0;
            let base = seg.rows_off + r * seg.words_per_row;
            let mem = &members[seg.row0..seg.row0 + seg.len];
            local_row_intersect(graph.neighbors(vertex_id[seg.start + r]), mem, |pos| {
                let w = base + pos as usize / 64;
                // SAFETY: row j's words are touched by thread j alone.
                unsafe { rows.write(w, rows.read(w) | (1u64 << (pos % 64))) };
            });
        })?;
    }
    Ok(())
}

/// One entry's scalar bound-directed record walk — the body shared by the
/// plain fused count kernel and the scalar segments of the local-bitmap
/// kernel.
///
/// The walk runs only while `connected + remaining >= need`, so a hopeless
/// entry stops at the first position where pruning is already certain (an
/// entry whose whole tail is shorter than `need` makes no queries at all) —
/// the truncation is safe because such an entry is zeroed by the pruning
/// rule either way. A pruned entry's mask slot is dead (the emit kernel
/// skips it), so the walk stores the entry's actual query count there
/// instead, keeping the host-side tally exact.
#[allow(clippy::too_many_arguments)] // kernel body: mirrors the launch captures
#[inline]
fn scalar_count_walk<O: EdgeOracle + ?Sized>(
    oracle: &O,
    vertex_id: &[u32],
    i: usize,
    t: usize,
    need: usize,
    spill_base: usize,
    counts_dst: &UninitSlice<usize>,
    masks_dst: &UninitSlice<u64>,
    spill_dst: &UninitSlice<u64>,
) {
    let spill_len = t.saturating_sub(INLINE_BITS).div_ceil(64);
    let mut connected = 0usize;
    let mut inline = 0u64;
    let mut word = 0u64;
    let mut flushed = 0usize;
    let mut walked = 0usize;
    while walked < t && connected + (t - walked) >= need {
        let b = walked;
        if oracle.connected(vertex_id[i], vertex_id[i + 1 + b]) {
            connected += 1;
            if b < INLINE_BITS {
                inline |= 1u64 << b;
            } else {
                word |= 1u64 << ((b - INLINE_BITS) % 64);
            }
        }
        walked += 1;
        if b >= INLINE_BITS && (b - INLINE_BITS) % 64 == 63 {
            // SAFETY: entry i owns its spill span; each word is completed,
            // and therefore written, exactly once.
            unsafe { spill_dst.write(spill_base + flushed, word) };
            flushed += 1;
            word = 0;
        }
    }
    for w in flushed..spill_len {
        // SAFETY: the walk flushed words 0..flushed; this writes the
        // trailing partial word plus zeros for the span a bailed walk never
        // reached, exactly once each.
        unsafe { spill_dst.write(spill_base + w, if w == flushed { word } else { 0 }) };
    }
    let count = if connected < need { 0 } else { connected };
    // SAFETY: one write per index. A zero-count entry is never replayed, so
    // its mask slot carries the query tally the truncated walk made.
    unsafe {
        counts_dst.write(i, count);
        masks_dst.write(i, if count == 0 { walked as u64 } else { inline });
    }
}

/// One entry's bitmap fast-path body: entry `i` sits at local position `r`
/// of a bitmap segment, and its tail mask is the segment's row `r` shifted
/// past its own position — tail bit `b` is row bit `r + 1 + b`, so the
/// inline mask and every spill word are 64-wide funnel shifts of the row
/// and the surviving count is one suffix popcount. The row carries exactly
/// `m` member bits, so everything past the tail is already zero and the
/// stored words match the scalar walk's bit for bit. A pruned entry's dead
/// mask slot records the length the scalar bound-directed walk *would*
/// have made ([`scalar_walk_len`]), keeping the probes-avoided tally exact.
#[allow(clippy::too_many_arguments)] // kernel body: mirrors the launch captures
#[inline]
fn bitmap_count_walk(
    row: &[u64],
    r: usize,
    i: usize,
    t: usize,
    need: usize,
    spill_base: usize,
    counts_dst: &UninitSlice<usize>,
    masks_dst: &UninitSlice<u64>,
    spill_dst: &UninitSlice<u64>,
) {
    let spill_len = t.saturating_sub(INLINE_BITS).div_ceil(64);
    let connected = bits::count_ones_from(row, r + 1);
    if connected >= need && connected > 0 {
        // SAFETY: one write per index; entry i owns its spill span and
        // writes each word exactly once.
        unsafe {
            counts_dst.write(i, connected);
            masks_dst.write(i, bits::read_word_at(row, r + 1));
        }
        for w in 0..spill_len {
            let word = bits::read_word_at(row, r + 1 + INLINE_BITS + 64 * w);
            unsafe { spill_dst.write(spill_base + w, word) };
        }
    } else {
        // Pruned (or nothing to emit): dead mask slot carries the scalar
        // walk length for the probes-avoided tally; the spill span is
        // zero-filled exactly as a bailed scalar walk leaves it.
        unsafe {
            counts_dst.write(i, 0);
            masks_dst.write(i, scalar_walk_len(row, r + 1, t, need) as u64);
        }
        for w in 0..spill_len {
            unsafe { spill_dst.write(spill_base + w, 0) };
        }
    }
}

/// How many tail positions the scalar bound-directed walk of this entry
/// would probe before stopping, reconstructed from the entry's bitmap row
/// (tail bit `b` = row bit `start_bit + b`). The walk stops right after
/// the miss that makes the bound unreachable — the `(t - need + 1)`-th zero
/// bit — and never starts when even a full tail cannot reach `need`.
fn scalar_walk_len(row: &[u64], start_bit: usize, t: usize, need: usize) -> usize {
    if need > t {
        return 0;
    }
    let mut remaining = t - need + 1;
    let mut bit = 0usize;
    while bit < t {
        let span = (t - bit).min(64) as u32;
        let misses = !bits::read_word_at(row, start_bit + bit) & bits::prefix_mask(span);
        let zeros = misses.count_ones() as usize;
        if zeros >= remaining {
            // Select the `remaining`-th zero: the walk ends on it.
            let mut w = misses;
            for _ in 1..remaining {
                w &= w - 1;
            }
            return bit + w.trailing_zeros() as usize + 1;
        }
        remaining -= zeros;
        bit += span as usize;
    }
    t // fewer misses than the cutoff: the walk runs the whole tail
}

/// The unfused level loop — the seed pipeline kept verbatim as the ablation
/// baseline: the output kernel re-walks every unpruned sublist tail
/// (repeating the count kernel's oracle queries), the scan is two-phase,
/// and each level allocates fresh buffers.
#[allow(clippy::too_many_arguments)]
fn grow_unfused<O: EdgeOracle + ?Sized>(
    device: &Device,
    oracle: &O,
    list: &mut CliqueList,
    level_entries: &mut Vec<usize>,
    min_target: u32,
    early_exit_enabled: bool,
    arena: &mut LevelArena,
    queries: &mut u64,
) -> Result<Option<Vec<u32>>, DeviceError> {
    let exec = device.exec();
    let tracer = exec.tracer();
    loop {
        // Same per-level cancellation poll as the fused loop.
        exec.check_cancelled()?;
        let head = list.head().expect("list is non-empty");
        let k = list.clique_size_at(list.num_levels() - 1); // entries are k-cliques
        let len = head.len();
        assert!(len < u32::MAX as usize, "level exceeds u32 indexing");
        let vertex_id = head.vertex_ids();
        let sublist_id = head.sublist_ids();
        let mut level_span = tracer
            .is_enabled()
            .then(|| tracer.span_with("bfs_level", &[("k", k as i64), ("entries", len as i64)]));
        let queries_before = *queries;

        // Analytic query accounting: the count walk visits exactly the
        // sublist tail of every entry.
        arena.set_tails_from_sublists(sublist_id);
        *queries += arena.tails.iter().map(|&t| u64::from(t)).sum::<u64>();

        // COUNTCLIQUES: adjacent successors within the sublist, pruned
        // against the target.
        let counts: Vec<usize> = exec.try_map(Launch::new("bfs_count_cliques", len), |i| {
            let mut connected = 0usize;
            let mut j = i + 1;
            while j < len && sublist_id[j] == sublist_id[i] {
                if oracle.connected(vertex_id[i], vertex_id[j]) {
                    connected += 1;
                }
                j += 1;
            }
            if k + connected < min_target as usize {
                0
            } else {
                connected
            }
        })?;

        let (offsets, total) = gmc_dpp::try_exclusive_scan(exec, &counts)?;

        // The output kernel re-walks the full tail of every unpruned entry.
        *queries += arena
            .tails
            .iter()
            .zip(&counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&t, _)| u64::from(t))
            .sum::<u64>();

        if let Some(span) = level_span.as_mut() {
            span.arg("emitted", total as i64);
            span.arg("pruned", counts.iter().filter(|&&c| c == 0).count() as i64);
            span.arg("oracle_queries", (*queries - queries_before) as i64);
        }
        if total == 0 {
            return Ok(None);
        }

        // OUTPUTNEWCLIQUES: emit each entry's adjacent successors.
        let mut new_vertex = vec![0u32; total];
        let mut new_sublist = vec![0u32; total];
        {
            let vertex_shared = SharedSlice::new(&mut new_vertex);
            let sublist_shared = SharedSlice::new(&mut new_sublist);
            // Cost hint: an unpruned entry re-walks its whole sublist tail.
            let emit_cost = |i: usize| {
                if counts[i] == 0 {
                    1
                } else {
                    u64::from(arena.tails[i]) + 1
                }
            };
            let launch = Launch::new("bfs_output_new_cliques", len).weighted(&emit_cost);
            exec.try_run(launch, |i| {
                if counts[i] == 0 {
                    return;
                }
                let mut cursor = offsets[i];
                let mut j = i + 1;
                while j < len && sublist_id[j] == sublist_id[i] {
                    if oracle.connected(vertex_id[i], vertex_id[j]) {
                        // SAFETY: entry i owns offsets[i]..offsets[i]+counts[i].
                        unsafe {
                            vertex_shared.write(cursor, vertex_id[j]);
                            sublist_shared.write(cursor, i as u32);
                        }
                        cursor += 1;
                    }
                    j += 1;
                }
            })?;
        }

        let new_level = CliqueLevel::from_vecs(device.memory(), new_vertex, new_sublist)?;
        level_entries.push(new_level.len());
        list.push_level(new_level);

        if early_exit_enabled {
            if let Some(clique) = try_early_exit(oracle, list, min_target, queries) {
                return Ok(Some(clique));
            }
        }
    }
}

/// Checks whether the head level is a single, mutually-adjacent sublist; if
/// so, returns `chain ∪ candidates` — provably the unique maximum clique
/// still reachable. Oracle calls are tallied into `queries`.
fn try_early_exit<O: EdgeOracle + ?Sized>(
    oracle: &O,
    list: &CliqueList,
    min_target: u32,
    queries: &mut u64,
) -> Option<Vec<u32>> {
    let head = list.head()?;
    let len = head.len();
    if len == 0 || len > EARLY_EXIT_CHECK_LIMIT {
        return None;
    }
    let sublist_id = head.sublist_ids();
    if sublist_id.iter().any(|&s| s != sublist_id[0]) {
        return None; // more than one sublist survives
    }
    let candidates = head.vertex_ids();
    for (i, &u) in candidates.iter().enumerate() {
        for &v in &candidates[i + 1..] {
            *queries += 1;
            if !oracle.connected(u, v) {
                return None;
            }
        }
    }
    // Chain = the clique of the shared parent entry.
    let head_idx = list.num_levels() - 1;
    let mut clique = if head_idx == 0 {
        vec![sublist_id[0]] // level 0 packs the source vertex directly
    } else {
        list.read_clique(head_idx - 1, sublist_id[0] as usize)
    };
    clique.extend_from_slice(candidates);
    if (clique.len() as u32) < min_target {
        return None;
    }
    Some(clique)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CandidateOrder;
    use crate::setup::build_two_clique_list;
    use gmc_graph::generators;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn run_with(
        graph: &Csr,
        lower: u32,
        early_exit: bool,
        fused: bool,
        local: LocalBitsMode,
    ) -> ExpansionOutcome {
        let device = Device::unlimited();
        let setup = build_two_clique_list(
            device.exec(),
            graph,
            lower,
            &graph.degrees(),
            crate::config::OrientationRule::Degree,
            CandidateOrder::DegreeAscending,
            crate::config::SublistBound::Length,
        );
        let level0 =
            CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id).unwrap();
        let mut arena = LevelArena::new();
        expand(
            &device,
            graph,
            graph,
            level0,
            lower.max(2),
            early_exit,
            fused,
            local,
            None,
            &mut arena,
        )
        .unwrap()
    }

    fn run(graph: &Csr, lower: u32, early_exit: bool) -> ExpansionOutcome {
        run_with(graph, lower, early_exit, true, LocalBitsMode::Auto)
    }

    fn normalize(mut cliques: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        for c in &mut cliques {
            c.sort_unstable();
        }
        cliques.sort();
        cliques
    }

    /// Wraps an oracle and counts actual `connected` calls, to pin the
    /// analytic `oracle_queries` tally to reality.
    struct CountingOracle<'a> {
        inner: &'a Csr,
        calls: AtomicU64,
    }

    impl EdgeOracle for CountingOracle<'_> {
        fn connected(&self, u: u32, v: u32) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.connected(u, v)
        }

        fn footprint_bytes(&self) -> usize {
            self.inner.footprint_bytes()
        }
    }

    #[test]
    fn triangle_with_tail() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let out = run(&g, 0, false);
        assert_eq!(out.clique_size, 3);
        assert_eq!(normalize(out.cliques), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn enumerates_multiple_maximum_cliques() {
        // Two disjoint triangles.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let out = run(&g, 0, false);
        assert_eq!(out.clique_size, 3);
        assert_eq!(normalize(out.cliques), vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn complete_graph_has_one_maximum() {
        let g = generators::complete(6);
        let out = run(&g, 0, false);
        assert_eq!(out.clique_size, 6);
        assert_eq!(out.cliques.len(), 1);
        assert_eq!(normalize(out.cliques), vec![vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn overlapping_cliques_enumerated_once_each() {
        // K4 {0,1,2,3} and K4 {2,3,4,5} sharing an edge.
        let mut edges = Vec::new();
        for set in [[0u32, 1, 2, 3], [2, 3, 4, 5]] {
            for (i, &u) in set.iter().enumerate() {
                for &v in &set[i + 1..] {
                    edges.push((u, v));
                }
            }
        }
        let g = Csr::from_edges(6, &edges);
        let out = run(&g, 0, false);
        assert_eq!(out.clique_size, 4);
        assert_eq!(
            normalize(out.cliques),
            vec![vec![0, 1, 2, 3], vec![2, 3, 4, 5]]
        );
    }

    #[test]
    fn pruning_with_valid_bound_preserves_enumeration() {
        let g = generators::gnp(60, 0.2, 5);
        let unpruned = run(&g, 0, false);
        let pruned = run(&g, unpruned.clique_size as u32, false);
        assert_eq!(pruned.clique_size, unpruned.clique_size);
        assert_eq!(normalize(pruned.cliques), normalize(unpruned.cliques));
        // And pruning must not inflate the intermediate levels.
        for (a, b) in pruned.level_entries.iter().zip(&unpruned.level_entries) {
            assert!(a <= b);
        }
    }

    #[test]
    fn early_exit_finds_unique_maximum() {
        // A 5-clique planted in a sparse graph: after a couple of levels the
        // survivors collapse to one sublist.
        let base = generators::gnp(80, 0.03, 9);
        let (g, members) = generators::plant_clique(&base, 5, 10);
        let without = run(&g, 0, false);
        let with = run(&g, 0, true);
        assert_eq!(with.clique_size, without.clique_size);
        assert_eq!(normalize(with.cliques.clone()), normalize(without.cliques));
        if with.early_exit {
            assert_eq!(with.cliques.len(), 1);
            let mut c = with.cliques[0].clone();
            c.sort_unstable();
            assert_eq!(c, members);
        }
    }

    #[test]
    fn empty_level_yields_no_cliques() {
        let g = Csr::empty(4);
        let out = run(&g, 0, false);
        assert_eq!(out.clique_size, 0);
        assert!(out.cliques.is_empty());
        assert_eq!(out.oracle_queries, 0);
    }

    #[test]
    fn min_target_above_omega_returns_nothing() {
        let device = Device::unlimited();
        let g = generators::complete(4);
        let setup = build_two_clique_list(
            device.exec(),
            &g,
            0,
            &g.degrees(),
            crate::config::OrientationRule::Degree,
            CandidateOrder::Index,
            crate::config::SublistBound::Length,
        );
        let level0 =
            CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id).unwrap();
        // Ask for cliques of size ≥ 5 in a K4.
        let mut arena = LevelArena::new();
        let out = expand(
            &device,
            &g,
            &g,
            level0,
            5,
            false,
            true,
            LocalBitsMode::Auto,
            None,
            &mut arena,
        )
        .unwrap();
        assert!(out.cliques.is_empty());
        assert_eq!(out.clique_size, 0);
    }

    #[test]
    fn oom_propagates_from_level_growth() {
        // K20 with a tiny budget: level 0 fits, deeper levels cannot.
        let g = generators::complete(20);
        for fused in [true, false] {
            let device = Device::with_memory_budget(8 * 190 + 64);
            let setup = build_two_clique_list(
                device.exec(),
                &g,
                0,
                &g.degrees(),
                crate::config::OrientationRule::Degree,
                CandidateOrder::Index,
                crate::config::SublistBound::Length,
            );
            let level0 =
                CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id).unwrap();
            let mut arena = LevelArena::new();
            let err = expand(
                &device,
                &g,
                &g,
                level0,
                2,
                false,
                fused,
                LocalBitsMode::Auto,
                None,
                &mut arena,
            );
            assert!(err.is_err(), "expected OOM (fused={fused})");
            // The failed expansion must leave nothing charged — the level
            // charges and any spill charge are all released on the way out.
            assert_eq!(device.memory().live(), 0, "leak (fused={fused})");
        }
    }

    #[test]
    fn level_counts_are_monotone_then_shrink() {
        // On a complete graph, level entries follow binomial growth/decay:
        // C(n,2), 1·C(n,3)... the exact sequence is Σ over entries; just
        // check the first level matches C(n,2) and the last level is 1.
        let g = generators::complete(7);
        let out = run(&g, 0, false);
        assert_eq!(out.level_entries[0], 21);
        assert_eq!(*out.level_entries.last().unwrap(), 1);
    }

    #[test]
    fn fused_matches_unfused_exactly() {
        // The emit kernel replays bits in ascending order — the same order
        // as the unfused re-walk — so even the raw read-out must agree.
        // Every local-bits mode must be bit-identical too.
        for seed in 0..6 {
            let g = generators::gnp(50, 0.18, seed);
            for early_exit in [false, true] {
                let unfused = run_with(&g, 0, early_exit, false, LocalBitsMode::Off);
                // `Persistent` here runs without a core bitmap handle (the
                // degrade path), which must behave as forced-on bitmaps.
                for local in [
                    LocalBitsMode::Off,
                    LocalBitsMode::Auto,
                    LocalBitsMode::On,
                    LocalBitsMode::Persistent,
                ] {
                    let fused = run_with(&g, 0, early_exit, true, local);
                    let tag = format!("seed {seed} early_exit {early_exit} local {local}");
                    assert_eq!(fused.clique_size, unfused.clique_size, "{tag}");
                    assert_eq!(fused.cliques, unfused.cliques, "{tag}");
                    assert_eq!(fused.level_entries, unfused.level_entries, "{tag}");
                    assert_eq!(fused.early_exit, unfused.early_exit, "{tag}");
                }
            }
        }
    }

    #[test]
    fn local_bits_tallies_reconcile_with_scalar() {
        // Forced-on bitmaps make zero oracle calls for covered segments and
        // reconstruct the walk the scalar kernel would have made, so the
        // on/off tallies must reconcile to the probe: on + avoided == off.
        for (name, g) in [
            ("dense", generators::gnp(60, 0.4, 3)),
            ("sparse", generators::gnp(80, 0.05, 4)),
            ("complete", generators::complete(10)),
        ] {
            let on = run_with(&g, 0, false, true, LocalBitsMode::On);
            let off = run_with(&g, 0, false, true, LocalBitsMode::Off);
            assert_eq!(off.local_bits, LocalBitsStats::default(), "{name}");
            assert_eq!(
                on.oracle_queries + on.local_bits.probes_avoided,
                off.oracle_queries,
                "{name}"
            );
            assert!(on.local_bits.rows_built > 0, "{name}");
            assert!(on.local_bits.words_anded > 0, "{name}");
            assert_eq!(on.cliques, off.cliques, "{name}");
        }
    }

    fn counted(graph: &Csr, fused: bool, local: LocalBitsMode) -> (ExpansionOutcome, u64) {
        let device = Device::unlimited();
        let setup = build_two_clique_list(
            device.exec(),
            graph,
            0,
            &graph.degrees(),
            crate::config::OrientationRule::Degree,
            CandidateOrder::DegreeAscending,
            crate::config::SublistBound::Length,
        );
        let level0 =
            CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id).unwrap();
        let oracle = CountingOracle {
            inner: graph,
            calls: AtomicU64::new(0),
        };
        let mut arena = LevelArena::new();
        let out = expand(
            &device, graph, &oracle, level0, 2, false, fused, local, None, &mut arena,
        )
        .unwrap();
        (out, oracle.calls.load(Ordering::Relaxed))
    }

    #[test]
    fn persistent_bitmap_matches_scalar_and_never_rebuilds() {
        for (tag, g, early_exit) in [
            ("gnp-dense", generators::gnp(60, 0.3, 2), true),
            ("gnp-sparse", generators::gnp(90, 0.06, 5), false),
            ("complete", generators::complete(12), true),
        ] {
            let device = Device::unlimited();
            let keep = vec![true; g.num_vertices()];
            let core = CoreBitmap::try_build(device.exec(), &g, &keep).unwrap();
            let run = |persistent: Option<&CoreBitmap>, local: LocalBitsMode| {
                let setup = build_two_clique_list(
                    device.exec(),
                    &g,
                    0,
                    &g.degrees(),
                    crate::config::OrientationRule::Degree,
                    CandidateOrder::DegreeAscending,
                    crate::config::SublistBound::Length,
                );
                let level0 =
                    CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id)
                        .unwrap();
                let oracle = CountingOracle {
                    inner: &g,
                    calls: AtomicU64::new(0),
                };
                let mut arena = LevelArena::new();
                let out = expand(
                    &device, &g, &oracle, level0, 2, early_exit, true, local, persistent,
                    &mut arena,
                )
                .unwrap();
                (out, oracle.calls.load(Ordering::Relaxed))
            };
            let (off, _) = run(None, LocalBitsMode::Off);
            let (per, actual) = run(Some(&core), LocalBitsMode::Persistent);
            assert_eq!(per.cliques, off.cliques, "{tag}");
            assert_eq!(per.level_entries, off.level_entries, "{tag}");
            assert_eq!(per.early_exit, off.early_exit, "{tag}");
            // The edge oracle is never touched on the persistent path...
            assert_eq!(actual, 0, "{tag}");
            assert_eq!(per.oracle_queries, actual, "{tag}");
            // ...every probe it would have made is a tallied word test...
            assert_eq!(
                per.oracle_queries + per.local_bits.probes_avoided,
                off.oracle_queries,
                "{tag}"
            );
            assert_eq!(
                per.local_bits.persistent_probes, per.local_bits.probes_avoided,
                "{tag}"
            );
            // ...and nothing is ever rebuilt per level.
            assert_eq!(per.local_bits.rows_built, 0, "{tag}");
            assert_eq!(per.local_bits.words_anded, 0, "{tag}");
        }
    }

    #[test]
    fn persistent_bitmap_covers_spill_tails_and_pruned_vertices() {
        // A hub with 70 successors (tails cross the inline/spill seam) and
        // a pruned appendix vertex, so the core bitmap is built over a
        // strict subset of the graph.
        let mut edges: Vec<(u32, u32)> = (1..=70).map(|v| (0u32, v)).collect();
        edges.extend([(1, 2), (1, 3), (2, 3), (70, 71)]);
        let g = Csr::from_edges(72, &edges);
        let device = Device::unlimited();
        let mut keep = vec![true; 72];
        keep[71] = false; // the appendix is pruned, rows must skip it
        let core = CoreBitmap::try_build(device.exec(), &g, &keep).unwrap();
        let mut arena = LevelArena::new();
        let level0 = |device: &Device| {
            CliqueLevel::from_vecs(device.memory(), (1..=70).collect(), vec![0; 70]).unwrap()
        };
        let off = expand(
            &device,
            &g,
            &g,
            level0(&device),
            2,
            false,
            true,
            LocalBitsMode::Off,
            None,
            &mut arena,
        )
        .unwrap();
        let per = expand(
            &device,
            &g,
            &g,
            level0(&device),
            2,
            false,
            true,
            LocalBitsMode::Persistent,
            Some(&core),
            &mut arena,
        )
        .unwrap();
        assert_eq!(per.cliques, vec![vec![0, 1, 2, 3]]);
        assert_eq!(per.cliques, off.cliques);
        assert_eq!(per.level_entries, off.level_entries);
        assert_eq!(
            per.oracle_queries + per.local_bits.probes_avoided,
            off.oracle_queries
        );
        assert_eq!(per.local_bits.rows_built, 0);
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn oracle_query_counter_is_exact_and_fusion_skips_the_rewalk() {
        let g = generators::gnp(100, 0.3, 7);
        let (fused, fused_actual) = counted(&g, true, LocalBitsMode::Off);
        let (unfused, unfused_actual) = counted(&g, false, LocalBitsMode::Off);
        // The analytic tally must match the oracle's own call count.
        assert_eq!(fused.oracle_queries, fused_actual);
        assert_eq!(unfused.oracle_queries, unfused_actual);
        // On a dense graph most entries survive pruning, so the unfused
        // output kernel repeats nearly the whole count walk: fusion must
        // save at least 40% of the queries.
        assert!(
            fused.oracle_queries * 10 <= unfused.oracle_queries * 6,
            "fused {} vs unfused {}",
            fused.oracle_queries,
            unfused.oracle_queries
        );
    }

    #[test]
    fn local_bits_counter_is_exact_and_skips_covered_probes() {
        let g = generators::gnp(100, 0.3, 7);
        let (off, off_actual) = counted(&g, true, LocalBitsMode::Off);
        for local in [LocalBitsMode::Auto, LocalBitsMode::On] {
            let (on, on_actual) = counted(&g, true, local);
            // The analytic tally stays exact with bitmaps active, and the
            // avoided counter accounts for every skipped probe.
            assert_eq!(on.oracle_queries, on_actual, "{local}");
            assert_eq!(
                on.oracle_queries + on.local_bits.probes_avoided,
                off.oracle_queries,
                "{local}"
            );
            assert_eq!(on.cliques, off.cliques, "{local}");
        }
        // Forced on, every multi-entry sublist is covered: the bitmaps must
        // eliminate the bulk of the scalar probes on a dense graph (the
        // leftovers are early-exit checks and single-entry sublists).
        let (on, on_actual) = counted(&g, true, LocalBitsMode::On);
        assert!(on_actual < off_actual);
        assert!(
            on.local_bits.probes_avoided * 10 >= off.oracle_queries * 8,
            "on avoided {} of {}",
            on.local_bits.probes_avoided,
            off.oracle_queries
        );
    }

    #[test]
    fn auto_heuristic_covers_hub_sublists() {
        // A Facebook-like shape in miniature: a few 40-member sublists well
        // past the Auto threshold dominate the probe count, plus a couple
        // of short scalar sublists. Auto must cover the hubs and so avoid
        // most probes.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut vertex_id = Vec::new();
        let mut sublist_id = Vec::new();
        for hub in 0..3u32 {
            let base = 10 + hub * 40;
            for v in 0..40u32 {
                edges.push((hub, base + v));
                vertex_id.push(base + v);
                sublist_id.push(hub);
            }
            // Internal edges give each hub sublist depth to expand.
            for u in 0..6 {
                for v in (u + 1)..6 {
                    edges.push((base + u, base + v));
                }
            }
        }
        // Two short scalar sublists (a shared triangle over 3, 4, 5).
        edges.extend([(3, 4), (3, 5), (4, 5)]);
        for (s, v) in [(3u32, 4u32), (3, 5), (4, 5)] {
            vertex_id.push(v);
            sublist_id.push(s);
        }
        let g = Csr::from_edges(130, &edges);
        let run = |local: LocalBitsMode| {
            let device = Device::unlimited();
            let level0 =
                CliqueLevel::from_vecs(device.memory(), vertex_id.clone(), sublist_id.clone())
                    .unwrap();
            let oracle = CountingOracle {
                inner: &g,
                calls: AtomicU64::new(0),
            };
            let mut arena = LevelArena::new();
            let out = expand(
                &device, &g, &oracle, level0, 2, false, true, local, None, &mut arena,
            )
            .unwrap();
            (out, oracle.calls.load(Ordering::Relaxed))
        };
        let (auto, auto_actual) = run(LocalBitsMode::Auto);
        let (off, _) = run(LocalBitsMode::Off);
        assert_eq!(auto.oracle_queries, auto_actual);
        assert_eq!(auto.cliques, off.cliques);
        assert!(auto.local_bits.rows_built >= 120, "hub sublists covered");
        assert!(
            auto.local_bits.probes_avoided * 10 >= off.oracle_queries * 8,
            "auto avoided {} of {}",
            auto.local_bits.probes_avoided,
            off.oracle_queries
        );
    }

    #[test]
    fn spill_masks_cover_tails_beyond_inline_bits() {
        // A hub with 70 successors in one sublist: tails reach 69 > 64, so
        // the inline mask overflows into the spill buffer. The only deep
        // structure is the K4 {0,1,2,3}.
        let mut edges: Vec<(u32, u32)> = (1..=70).map(|v| (0u32, v)).collect();
        edges.extend([(1, 2), (1, 3), (2, 3)]);
        let g = Csr::from_edges(71, &edges);
        let device = Device::unlimited();
        let mut arena = LevelArena::new();
        let level0 = |device: &Device| {
            CliqueLevel::from_vecs(device.memory(), (1..=70).collect(), vec![0; 70]).unwrap()
        };
        let unfused = expand(
            &device,
            &g,
            &g,
            level0(&device),
            2,
            false,
            false,
            LocalBitsMode::Off,
            None,
            &mut arena,
        )
        .unwrap();
        // The 70-entry sublist crosses the inline/spill boundary for both
        // the scalar walk and the bitmap fast path (Auto and On both cover
        // it: 70 ≥ 32 and the hub members are degree-light).
        for local in [LocalBitsMode::Off, LocalBitsMode::Auto, LocalBitsMode::On] {
            let fused = expand(
                &device,
                &g,
                &g,
                level0(&device),
                2,
                false,
                true,
                local,
                None,
                &mut arena,
            )
            .unwrap();
            assert_eq!(fused.clique_size, 4, "{local}");
            assert_eq!(fused.cliques, vec![vec![0, 1, 2, 3]], "{local}");
            assert_eq!(fused.cliques, unfused.cliques, "{local}");
            assert_eq!(fused.level_entries, unfused.level_entries, "{local}");
            if local != LocalBitsMode::Off {
                assert!(fused.local_bits.rows_built >= 70, "{local}");
            }
            assert_eq!(
                device.memory().live(),
                0,
                "spill/local charges must be released ({local})"
            );
        }
    }

    #[test]
    fn local_bits_handles_word_boundary_sublists() {
        // Sublist lengths straddling every interesting boundary: the forced
        // minimum, the Auto threshold, and the 64-bit word edges (63/64/65
        // tails exercise the inline/spill seam inside the bitmap shifts).
        for n in [2usize, 31, 32, 33, 63, 64, 65, 66, 129] {
            let mut edges: Vec<(u32, u32)> = (1..=n as u32).map(|v| (0u32, v)).collect();
            // A clique among the first few successors gives depth.
            let k = n.min(5) as u32;
            for u in 1..=k {
                for v in (u + 1)..=k {
                    edges.push((u, v));
                }
            }
            let g = Csr::from_edges(n + 1, &edges);
            let device = Device::unlimited();
            let mut arena = LevelArena::new();
            let level0 = |device: &Device| {
                CliqueLevel::from_vecs(device.memory(), (1..=n as u32).collect(), vec![0; n])
                    .unwrap()
            };
            let off = expand(
                &device,
                &g,
                &g,
                level0(&device),
                2,
                false,
                true,
                LocalBitsMode::Off,
                None,
                &mut arena,
            )
            .unwrap();
            let on = expand(
                &device,
                &g,
                &g,
                level0(&device),
                2,
                false,
                true,
                LocalBitsMode::On,
                None,
                &mut arena,
            )
            .unwrap();
            assert_eq!(on.cliques, off.cliques, "n={n}");
            assert_eq!(on.level_entries, off.level_entries, "n={n}");
            assert_eq!(
                on.oracle_queries + on.local_bits.probes_avoided,
                off.oracle_queries,
                "n={n}"
            );
            assert_eq!(device.memory().live(), 0, "n={n}");
        }
    }

    #[test]
    fn local_charges_are_released_on_oom_and_success() {
        // Sweep budgets from starvation to plenty with bitmaps forced on:
        // whether the run OOMs (anywhere — level growth, spill, or the
        // local-bitmap charge) or completes, nothing may stay charged.
        let g = generators::complete(16);
        let reference = run_with(&g, 0, false, true, LocalBitsMode::Off);
        for budget in (64..6000).step_by(97) {
            let device = Device::with_memory_budget(budget);
            let setup = build_two_clique_list(
                device.exec(),
                &g,
                0,
                &g.degrees(),
                crate::config::OrientationRule::Degree,
                CandidateOrder::Index,
                crate::config::SublistBound::Length,
            );
            let Ok(level0) =
                CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id)
            else {
                continue; // level 0 itself does not fit this budget
            };
            let mut arena = LevelArena::new();
            let out = expand(
                &device,
                &g,
                &g,
                level0,
                2,
                false,
                true,
                LocalBitsMode::On,
                None,
                &mut arena,
            );
            if let Ok(out) = out {
                assert_eq!(out.cliques, reference.cliques, "budget {budget}");
            }
            assert_eq!(device.memory().live(), 0, "leak at budget {budget}");
        }
    }

    #[test]
    fn fused_pipeline_saves_launches() {
        let g = generators::gnp(60, 0.25, 11);
        let launches = |fused: bool| {
            let device = Device::new(4, usize::MAX);
            // Force chunked dispatch even for these small test levels, so
            // the scans actually launch (below the sequential grid limit
            // both scan variants take a zero-launch host path).
            device.exec().set_sequential_grid_limit(1);
            let base = device.exec().stats();
            run_on(&device, &g, fused);
            device.exec().stats().since(&base)
        };
        let fused = launches(true);
        let unfused = launches(false);
        // Count + emit run as fused launches; the single-pass scan replaces
        // the two-phase scan, dropping one launch per level.
        assert!(fused.fused_launches > 0);
        assert_eq!(unfused.fused_launches, 0);
        assert!(
            fused.launches < unfused.launches,
            "fused {} vs unfused {}",
            fused.launches,
            unfused.launches
        );
    }

    fn run_on(device: &Device, graph: &Csr, fused: bool) -> ExpansionOutcome {
        let setup = build_two_clique_list(
            device.exec(),
            graph,
            0,
            &graph.degrees(),
            crate::config::OrientationRule::Degree,
            CandidateOrder::DegreeAscending,
            crate::config::SublistBound::Length,
        );
        let level0 =
            CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id).unwrap();
        let mut arena = LevelArena::new();
        expand(
            device,
            graph,
            graph,
            level0,
            2,
            false,
            fused,
            LocalBitsMode::Auto,
            None,
            &mut arena,
        )
        .unwrap()
    }

    #[test]
    fn arena_reuse_across_expansions_is_clean() {
        // The same arena serves back-to-back expansions (as windows do):
        // results must not depend on what the previous run left behind.
        let mut arena = LevelArena::new();
        let device = Device::unlimited();
        let mut reference = Vec::new();
        for round in 0..3 {
            for seed in [13, 29] {
                let g = generators::gnp(40, 0.25, seed);
                let setup = build_two_clique_list(
                    device.exec(),
                    &g,
                    0,
                    &g.degrees(),
                    crate::config::OrientationRule::Degree,
                    CandidateOrder::DegreeAscending,
                    crate::config::SublistBound::Length,
                );
                let level0 =
                    CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id)
                        .unwrap();
                let out = expand(
                    &device,
                    &g,
                    &g,
                    level0,
                    2,
                    false,
                    true,
                    LocalBitsMode::On,
                    None,
                    &mut arena,
                )
                .unwrap();
                if round == 0 {
                    reference.push(out.cliques);
                } else {
                    assert_eq!(out.cliques, reference[(seed == 29) as usize], "seed {seed}");
                }
            }
        }
        assert_eq!(device.memory().live(), 0);
    }
}
