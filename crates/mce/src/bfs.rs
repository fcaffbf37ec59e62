//! The iterative breadth-first expansion (paper §IV-D, Algorithm 2).
//!
//! Each level launches one virtual thread per candidate entry:
//!
//! 1. **Count kernel** (`COUNTCLIQUES`): entry `i` walks the entries after
//!    it in its sublist, counting those adjacent to its own vertex (a binary
//!    search or a bitmap word test per check). If the count cannot reach
//!    the target clique size (`k + connected < target`), the count is
//!    zeroed — the branch is pruned.
//! 2. **Scan** over the counts yields the output offsets and the size of the
//!    next level.
//! 3. **Output kernel** (`OUTPUTNEWCLIQUES`): each unpruned entry emits one
//!    `(vertex, parent)` pair per adjacent candidate into its span of the
//!    next level's arrays.
//!
//! Two pipelines implement that level step:
//!
//! * **Fused** (the default, [`SolverConfig::fused`]): each entry fetches
//!   its vertex's adjacency row once ([`EdgeOracle::row`]) and tests its
//!   tail against it without branching on the answer. The walk records
//!   each answer as a bitmask — one inline `u64` covers the first
//!   [`INLINE_BITS`] tail positions, longer tails spill whole `u64` words
//!   into a shared side buffer, and the two parts run as two loops — and
//!   the output kernel *replays* the bits instead of re-querying the
//!   [`EdgeOracle`]. The count walk is also *bound-directed*: it stops as
//!   soon as the candidates left cannot lift the entry to the target (such
//!   an entry is pruned to zero either way, so the truncation never
//!   changes the output). Sublist tail lengths are threaded level to level
//!   (the emit kernel writes each new entry's tail), so neither kernel
//!   compares `sublist_id` values. The scan is the single-pass chunk-carry
//!   [`gmc_dpp::exclusive_scan_into`]. Three launches per level instead of
//!   four, and typically well under half the oracle queries; all scratch
//!   lives in a [`LevelArena`] recycled across levels and windows.
//! * **Unfused** (the ablation baseline): the seed pipeline verbatim — the
//!   paper-literal full count walk, an output kernel that re-walks every
//!   unpruned sublist tail (repeating the count kernel's oracle queries),
//!   fresh per-level allocations and the two-phase scan.
//!
//! Both pipelines probe one [`EdgeOracle`]: the structure the solve built.
//! That is the solve-lifetime core bitmap ([`SolverConfig::local_bits`]),
//! whose every answer is a single word test, or else the CSR's binary
//! search. The walks are the same either way, so the output is
//! bit-identical whichever structure answers.
//!
//! Both pipelines count their adjacency probes (`connected` calls and row
//! probes alike) exactly into [`ExpansionOutcome::probes`]. The unfused
//! walks are fully deterministic, so their tally is computed analytically
//! on the host; the fused count kernel records each pruned entry's
//! truncated walk length in that entry's otherwise-dead mask slot, and the
//! host folds the tally from there at zero hot-path cost. The solver files
//! the tally as edge-oracle queries or as core-bitmap word tests, so
//! fault-free core-bitmap on/off query tallies reconcile exactly (see
//! [`LocalBitsStats`] for why faulted ones need not).
//!
//! The loop ends when a level produces no entries; every entry of the last
//! level is then a maximum clique (each entry of level `L` is a valid
//! `(L + 2)`-clique, and each clique appears exactly once because the
//! orientation makes its vertex order unique).
//!
//! [`SolverConfig::fused`]: crate::SolverConfig::fused
//! [`SolverConfig::local_bits`]: crate::SolverConfig::local_bits

use crate::arena::LevelArena;
use gmc_cliquelist::{CliqueLevel, CliqueList};
use gmc_dpp::{Device, DeviceError, Executor, Launch, SharedSlice, UninitSlice};
use gmc_graph::EdgeOracle;

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
    /// Exact number of adjacency probes this expansion made, `connected`
    /// calls and row probes alike (count/output walks plus early-exit
    /// checks). The fused pipeline's saving over the unfused baseline shows
    /// up here.
    pub probes: u64,
}

/// Counters for the core-bitmap probe path (fused pipeline only).
///
/// All counters are exact, not sampled: `probes_avoided` is the same
/// walk-length tally the scalar walk files as oracle queries, taken from
/// the walk the core bitmap actually answered, so for any fault-free
/// expansion
/// `oracle_queries(bitmap on) + probes_avoided == oracle_queries(bitmap off)`.
/// Under an armed fault plan the tallies also count the walks that a
/// retried or split window repeats, and how many entries those are depends
/// on the recovery path, so the two sides can differ by that re-walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalBitsStats {
    /// Always zero: the core bitmap is built once, outside the level loop,
    /// and no adjacency rows are rebuilt per level. Kept so that reports
    /// and benchmarks reading it keep their shape.
    pub rows_built: u64,
    /// Scalar `EdgeOracle::connected` probes the core bitmap made
    /// unnecessary (what the scalar walk would have cost on those entries).
    pub probes_avoided: u64,
    /// Probes answered by the core bitmap, each a single word test instead
    /// of a scalar oracle probe. Always equal to `probes_avoided`.
    pub persistent_probes: u64,
    /// Device bytes charged for the core bitmap, zero when it was not
    /// built.
    pub persistent_bytes: u64,
}

/// Largest head level for which the early-exit mutual-adjacency check is
/// attempted; the check costs `len²` edge lookups.
const EARLY_EXIT_CHECK_LIMIT: usize = 512;

/// Tail positions covered by the per-entry inline adjacency mask; longer
/// tails spill whole `u64` words into the arena's side buffer.
const INLINE_BITS: usize = 64;

/// Expands `level0` breadth-first until no further cliques exist, returning
/// the cliques of the deepest level whose size reaches `min_target`.
///
/// `min_target` is the pruning bound: branches that cannot reach a clique of
/// at least this size are cut. For full enumeration pass `ω̄` (ties kept);
/// for find-one-better pass `best + 1`. `oracle` answers every adjacency
/// probe: the core bitmap or the CSR, whichever the solver built. `fused`
/// selects the pipeline. `arena` supplies recycled scratch and absorbs the
/// retired levels' buffers on return, including the error path.
///
/// Failures — genuine OOM or injected allocation/launch faults — surface as
/// [`DeviceError`] with the arena released, so the caller can retry (fault
/// recovery) or split the window (OOM).
pub(crate) fn expand<O: EdgeOracle>(
    device: &Device,
    oracle: &O,
    level0: CliqueLevel,
    min_target: u32,
    early_exit_enabled: bool,
    fused: bool,
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
            probes: 0,
        });
    }
    list.push_level(level0);

    let mut probes = 0u64;
    let grown = if fused {
        grow_fused(
            device,
            oracle,
            &mut list,
            &mut level_entries,
            min_target,
            early_exit_enabled,
            arena,
            &mut probes,
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
            &mut probes,
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
                probes,
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
                    probes,
                }
            } else {
                ExpansionOutcome {
                    cliques: list.read_all_cliques(final_idx),
                    clique_size,
                    level_entries,
                    early_exit: false,
                    probes,
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
/// sublist tails, single-pass scan and arena-recycled scratch. Returns the
/// early-exit clique when that check fires, `None` when the level loop
/// drains normally.
#[allow(clippy::too_many_arguments)]
fn grow_fused<O: EdgeOracle>(
    device: &Device,
    oracle: &O,
    list: &mut CliqueList,
    level_entries: &mut Vec<usize>,
    min_target: u32,
    early_exit_enabled: bool,
    arena: &mut LevelArena,
    probes: &mut u64,
) -> Result<Option<Vec<u32>>, DeviceError> {
    let exec = device.exec();
    let tracer = exec.tracer();
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
        let probes_before = *probes;

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

        // Fused COUNTCLIQUES: the single adjacency walk records both the
        // pruned count and the raw adjacency bitmask the emit kernel will
        // replay (see `scalar_count_walk` for the walk's invariants).
        count_level(exec, oracle, vertex_id, need, spill_total, arena)?;

        // Exact probe tally: a surviving entry always walked its whole tail
        // (a bailed walk implies pruning), a pruned entry recorded its
        // truncated walk length in the dead mask slot.
        *probes += arena
            .counts
            .iter()
            .zip(&arena.tails)
            .zip(&arena.masks)
            .map(|((&c, &t), &m)| if c > 0 { u64::from(t) } else { m })
            .sum::<u64>();

        let total = gmc_dpp::try_exclusive_scan_into(exec, &arena.counts, &mut arena.offsets)?;
        if let Some(span) = level_span.as_mut() {
            span.arg("emitted", total as i64);
            span.arg(
                "pruned",
                arena.counts.iter().filter(|&&c| c == 0).count() as i64,
            );
            span.arg("probes", (*probes - probes_before) as i64);
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
            let launch = Launch::new("bfs_emit_cliques_fused", len).fused();
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
            if let Some(clique) = try_early_exit(oracle, list, min_target, probes) {
                return Ok(Some(clique));
            }
        }
    }
}

/// Runs the fused count kernel over the head level: one bound-directed
/// record walk per entry ([`scalar_count_walk`]), which fills the arena's
/// counts, masks and `spill_total` spill words. Spill words are assembled
/// locally and each is stored exactly once (bailing entries zero-fill the
/// rest of their span), so the side buffer needs no pre-zeroing.
fn count_level<O: EdgeOracle>(
    exec: &Executor,
    oracle: &O,
    vertex_id: &[u32],
    need: usize,
    spill_total: usize,
    arena: &mut LevelArena,
) -> Result<(), DeviceError> {
    let len = vertex_id.len();
    let tails = &arena.tails;
    let spill_offsets = &arena.spill_offsets;
    let counts_dst = UninitSlice::for_vec(&mut arena.counts, len);
    let masks_dst = UninitSlice::for_vec(&mut arena.masks, len);
    let spill_dst = UninitSlice::for_vec(&mut arena.spill, spill_total);
    let launch = Launch::new("bfs_count_cliques_fused", len).fused();
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
    // SAFETY: the launch wrote every index of all three buffers (spill
    // spans tile 0..spill_total across entries with long tails).
    unsafe {
        arena.counts.set_len(len);
        arena.masks.set_len(len);
        arena.spill.set_len(spill_total);
    }
    Ok(())
}

/// One entry's bound-directed record walk — the body of the fused count
/// kernel.
///
/// The entry fetches its vertex's adjacency row once
/// ([`EdgeOracle::row`]) and tests each tail candidate against it. No step
/// branches on the answer: the hit is a 0/1 word that is added to the
/// count and shifted into the mask. The first [`INLINE_BITS`] positions
/// fill the inline mask and the rest fill one spill word at a time, as two
/// loops, so a tail that fits inline never checks the spill seam.
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
fn scalar_count_walk<O: EdgeOracle>(
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
    let probe = oracle.row(vertex_id[i]);
    let tail = &vertex_id[i + 1..i + 1 + t];
    let mut connected = 0usize;
    let mut walked = 0usize;
    let mut inline = 0u64;
    while walked < t.min(INLINE_BITS) && connected + (t - walked) >= need {
        let hit = u64::from(probe(tail[walked]));
        connected += hit as usize;
        inline |= hit << walked;
        walked += 1;
    }
    // Each spill word covers 64 positions past the inline mask. Once the
    // bound fails it stays failed, so the words a bailed walk never reached
    // are stored as zeros; every word of the span is written exactly once.
    for w in 0..t.saturating_sub(INLINE_BITS).div_ceil(64) {
        let start = INLINE_BITS + w * 64;
        let end = t.min(start + 64);
        let mut word = 0u64;
        while walked < end && connected + (t - walked) >= need {
            let hit = u64::from(probe(tail[walked]));
            connected += hit as usize;
            word |= hit << (walked - start);
            walked += 1;
        }
        // SAFETY: entry i owns its spill span, and this loop writes each
        // of its words once.
        unsafe { spill_dst.write(spill_base + w, word) };
    }
    let count = if connected < need { 0 } else { connected };
    // SAFETY: one write per index. A zero-count entry is never replayed, so
    // its mask slot carries the query tally the truncated walk made.
    unsafe {
        counts_dst.write(i, count);
        masks_dst.write(i, if count == 0 { walked as u64 } else { inline });
    }
}

/// The unfused level loop — the seed pipeline kept verbatim as the ablation
/// baseline: the output kernel re-walks every unpruned sublist tail
/// (repeating the count kernel's oracle queries), the scan is two-phase,
/// and each level allocates fresh buffers.
#[allow(clippy::too_many_arguments)]
fn grow_unfused<O: EdgeOracle>(
    device: &Device,
    oracle: &O,
    list: &mut CliqueList,
    level_entries: &mut Vec<usize>,
    min_target: u32,
    early_exit_enabled: bool,
    arena: &mut LevelArena,
    probes: &mut u64,
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
        let probes_before = *probes;

        // Analytic query accounting: the count walk visits exactly the
        // sublist tail of every entry.
        arena.set_tails_from_sublists(sublist_id);
        *probes += arena.tails.iter().map(|&t| u64::from(t)).sum::<u64>();

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
        *probes += arena
            .tails
            .iter()
            .zip(&counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&t, _)| u64::from(t))
            .sum::<u64>();

        if let Some(span) = level_span.as_mut() {
            span.arg("emitted", total as i64);
            span.arg("pruned", counts.iter().filter(|&&c| c == 0).count() as i64);
            span.arg("probes", (*probes - probes_before) as i64);
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
            let launch = Launch::new("bfs_output_new_cliques", len);
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
            if let Some(clique) = try_early_exit(oracle, list, min_target, probes) {
                return Ok(Some(clique));
            }
        }
    }
}

/// Checks whether the head level is a single, mutually-adjacent sublist; if
/// so, returns `chain ∪ candidates` — provably the unique maximum clique
/// still reachable. Oracle calls are tallied into `probes`.
fn try_early_exit<O: EdgeOracle>(
    oracle: &O,
    list: &CliqueList,
    min_target: u32,
    probes: &mut u64,
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
            *probes += 1;
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
    use gmc_graph::{generators, CoreBitmap, Csr};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Expands `graph`'s 2-clique list; `core` probes a core bitmap built
    /// over the setup survivors, as the solver does.
    fn run_with(
        graph: &Csr,
        lower: u32,
        early_exit: bool,
        fused: bool,
        core: bool,
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
        let bitmap =
            core.then(|| CoreBitmap::try_build(device.exec(), graph, &setup.keep).unwrap());
        let level0 =
            CliqueLevel::from_vecs(device.memory(), setup.vertex_id, setup.sublist_id).unwrap();
        let mut arena = LevelArena::new();
        let target = lower.max(2);
        match &bitmap {
            Some(bitmap) => expand(
                &device, bitmap, level0, target, early_exit, fused, &mut arena,
            ),
            None => expand(
                &device, graph, level0, target, early_exit, fused, &mut arena,
            ),
        }
        .unwrap()
    }

    fn run(graph: &Csr, lower: u32, early_exit: bool) -> ExpansionOutcome {
        run_with(graph, lower, early_exit, true, false)
    }

    fn normalize(mut cliques: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        for c in &mut cliques {
            c.sort_unstable();
        }
        cliques.sort();
        cliques
    }

    /// Wraps an oracle and counts actual probes, through `connected` or
    /// through the inner oracle's own row probe, to pin the analytic probe
    /// tally to reality.
    struct CountingOracle<'a, O> {
        inner: &'a O,
        calls: AtomicU64,
    }

    impl<'a, O: EdgeOracle> CountingOracle<'a, O> {
        fn new(inner: &'a O) -> Self {
            Self {
                inner,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl<O: EdgeOracle> EdgeOracle for CountingOracle<'_, O> {
        fn connected(&self, u: u32, v: u32) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.connected(u, v)
        }

        fn row(&self, u: u32) -> impl Fn(u32) -> bool + '_ {
            let probe = self.inner.row(u);
            move |v| {
                self.calls.fetch_add(1, Ordering::Relaxed);
                probe(v)
            }
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
        assert_eq!(out.probes, 0);
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
        let out = expand(&device, &g, level0, 5, false, true, &mut arena).unwrap();
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
            let err = expand(&device, &g, level0, 2, false, fused, &mut arena);
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
        // as the unfused re-walk — so even the raw read-out must agree,
        // with or without the core bitmap.
        for seed in 0..6 {
            let g = generators::gnp(50, 0.18, seed);
            for early_exit in [false, true] {
                let unfused = run_with(&g, 0, early_exit, false, false);
                for core in [false, true] {
                    let fused = run_with(&g, 0, early_exit, true, core);
                    let tag = format!("seed {seed} early_exit {early_exit} core {core}");
                    assert_eq!(fused.clique_size, unfused.clique_size, "{tag}");
                    assert_eq!(fused.cliques, unfused.cliques, "{tag}");
                    assert_eq!(fused.level_entries, unfused.level_entries, "{tag}");
                    assert_eq!(fused.early_exit, unfused.early_exit, "{tag}");
                }
            }
        }
    }

    /// One expansion of `graph`'s full 2-clique list through a
    /// call-counting wrapper around `oracle`: the outcome, the oracle's real
    /// call count, and the kernels launched.
    fn counted<O: EdgeOracle>(
        device: &Device,
        graph: &Csr,
        oracle: &O,
        early_exit: bool,
        fused: bool,
    ) -> (ExpansionOutcome, u64, gmc_dpp::LaunchStats) {
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
        let counting = CountingOracle::new(oracle);
        let base = device.exec().stats();
        let out = expand(
            device,
            &counting,
            level0,
            2,
            early_exit,
            fused,
            &mut LevelArena::new(),
        )
        .unwrap();
        let launches = device.exec().stats().since(&base);
        (out, counting.calls.load(Ordering::Relaxed), launches)
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
            let (off, off_calls, _) = counted(&device, &g, &g, early_exit, true);
            let (per, per_calls, launches) = counted(&device, &g, &core, early_exit, true);
            assert_eq!(per.cliques, off.cliques, "{tag}");
            assert_eq!(per.level_entries, off.level_entries, "{tag}");
            assert_eq!(per.early_exit, off.early_exit, "{tag}");
            // Each tally is exact for the structure that answered...
            assert_eq!(off.probes, off_calls, "{tag}");
            assert_eq!(per.probes, per_calls, "{tag}");
            // ...and the core bitmap answers exactly the probes the CSR
            // walk made, so filing them as word tests reconciles.
            assert_eq!(per.probes, off_calls, "{tag}");
            // Nothing is rebuilt per level: the expansion launches no
            // bitmap-building kernel.
            assert!(
                launches
                    .per_kernel
                    .iter()
                    .all(|(name, _)| !name.starts_with("corebits_")),
                "{tag}: {:?}",
                launches.per_kernel
            );
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
        let off = expand(&device, &g, level0(&device), 2, false, true, &mut arena).unwrap();
        let per = expand(&device, &core, level0(&device), 2, false, true, &mut arena).unwrap();
        assert_eq!(per.cliques, vec![vec![0, 1, 2, 3]]);
        assert_eq!(per.cliques, off.cliques);
        assert_eq!(per.level_entries, off.level_entries);
        assert_eq!(per.probes, off.probes);
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn oracle_query_counter_is_exact_and_fusion_skips_the_rewalk() {
        let g = generators::gnp(100, 0.3, 7);
        let device = Device::unlimited();
        let (fused, fused_actual, _) = counted(&device, &g, &g, false, true);
        let (unfused, unfused_actual, _) = counted(&device, &g, &g, false, false);
        // The analytic tally must match the oracle's own call count.
        assert_eq!(fused.probes, fused_actual);
        assert_eq!(unfused.probes, unfused_actual);
        // On a dense graph most entries survive pruning, so the unfused
        // output kernel repeats nearly the whole count walk: fusion must
        // save at least 40% of the queries.
        assert!(
            fused.probes * 10 <= unfused.probes * 6,
            "fused {} vs unfused {}",
            fused.probes,
            unfused.probes
        );
    }

    #[test]
    fn spill_masks_cover_tails_beyond_inline_bits() {
        // A hub whose `n` successors form one sublist, plus a clique that
        // joins the first successor to the last few, so the first entry's
        // adjacency bits sit at the far end of its tail. Tails straddle
        // every 64-bit word edge (63/64/65/66) and span several spill words
        // at 129 and 131, so the inline mask overflows into the spill
        // buffer and the clique's bits land in both spill words. Both fused
        // walks — CSR and core bitmap — must match the unfused re-walk
        // exactly, with the same exact probe tally.
        for n in [2usize, 63, 64, 65, 66, 70, 129, 131] {
            let k = n.min(5) as u32;
            let members: Vec<u32> = std::iter::once(1)
                .chain(n as u32 + 2 - k..=n as u32)
                .collect();
            let mut edges: Vec<(u32, u32)> = (1..=n as u32).map(|v| (0u32, v)).collect();
            for (i, &u) in members.iter().enumerate() {
                edges.extend(members[i + 1..].iter().map(|&v| (u, v)));
            }
            let g = Csr::from_edges(n + 1, &edges);
            let device = Device::unlimited();
            let core = CoreBitmap::try_build(device.exec(), &g, &vec![true; n + 1]).unwrap();
            let csr = CountingOracle::new(&g);
            let mut arena = LevelArena::new();
            let level0 = || {
                CliqueLevel::from_vecs(device.memory(), (1..=n as u32).collect(), vec![0; n])
                    .unwrap()
            };
            let unfused = expand(&device, &g, level0(), 2, false, false, &mut arena).unwrap();
            let off = expand(&device, &csr, level0(), 2, false, true, &mut arena).unwrap();
            let on = expand(&device, &core, level0(), 2, false, true, &mut arena).unwrap();
            let clique: Vec<u32> = std::iter::once(0).chain(members).collect();
            assert_eq!(unfused.cliques, vec![clique], "n={n}");
            for (tag, fused) in [("off", &off), ("core", &on)] {
                assert_eq!(fused.cliques, unfused.cliques, "n={n} {tag}");
                assert_eq!(fused.level_entries, unfused.level_entries, "n={n} {tag}");
            }
            // The core-bitmap walk's tally equals the CSR walk's real calls.
            let calls = csr.calls.load(Ordering::Relaxed);
            assert_eq!(off.probes, calls, "n={n}");
            assert_eq!(on.probes, calls, "n={n}");
            assert_eq!(device.memory().live(), 0, "spill charges leaked (n={n})");
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
        expand(device, graph, level0, 2, false, fused, &mut arena).unwrap()
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
                let out = expand(&device, &g, level0, 2, false, true, &mut arena).unwrap();
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
