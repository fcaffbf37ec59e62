//! The multi-run greedy heuristic (paper §IV-A2, Algorithm 1).
//!
//! `h` instances of the greedy heuristic run as segments of one
//! data-parallel computation, one per seed vertex. A stable sort by
//! descending threshold ranks the vertices; the `h` best-ranked are the
//! seeds. Work is spent only on runs that can still win (the paper's §II-B
//! rule: nothing that cannot reach the bound matters):
//!
//! 1. Round 0 runs every seed at once. Its segments are the CSR rows
//!    themselves, one per vertex, read in place, so nothing is copied (this
//!    replaces the paper's `SETUPNEIGHBORTHRESHOLDS`); a row whose vertex is
//!    not a seed is skipped. Its survivors are compacted into one entry
//!    array per wave.
//! 2. Wave 1, the best-ranked ⌈h/16⌉ seeds, runs to the end while wave 2's
//!    array waits. Its longest run length L₁ is the length of a real run,
//!    so it is a lower bound on the longest run of all.
//! 3. Wave 2, the other seeds, runs on. A run only ever picks from its
//!    current candidates, so a run of length ℓ with c candidates ends at
//!    most ℓ + c long: a run is dropped as soon as ℓ + c < L₁, and a
//!    dropped run ends shorter than L₁. No candidate of a kept run is ever
//!    removed, so the longest runs are computed exactly as if every seed
//!    ran to the end. Wave 2's seeds rank after wave 1's, so at equal
//!    length wave 2's winner wins.
//!
//! Each round, one `CHECKCONNECTIONS` kernel (with the segmented arg-max
//! folded in) picks each segment's first highest-threshold candidate,
//! tests every candidate for adjacency to the pick, sets a flag bit for
//! each adjacent one and counts them. Two launches compact the round: one
//! counts each chunk's surviving segments and candidates, and after the
//! host scans those per-chunk totals, one writes each surviving segment's
//! offset, the segment it continues and its flagged candidates in order,
//! which keeps every segment sorted. A wave's rounds go on until no
//! candidate survives; the kernel also reports whether any segment kept
//! one, so the last round stops before the compaction. Each round keeps its
//! picks and the map from its segments to the previous round's. The runs
//! that make a pick in a wave's last round are its longest; its winner is
//! the one whose seed ranks last, found by following those maps back to
//! round 0, and its witness is read back along them.
//!
//! Adjacency to the pick is a bit test: a pick row of at most 64 entries is
//! set into a per-worker n-bit scratch by the segment that picked it,
//! tested, then cleared. In round 0 a longer row is expanded once per
//! distinct pick, and every row that picked it is tested from the pick's
//! side: a row `v` that picked `p` lies in `N(p)`. After round 0 a longer
//! row is merged with the segment, or galloped through when it is more
//! than [`GALLOP_RATIO`] times longer. Past [`SCRATCH_ROW_BYTES`] per row
//! (n > 131,072) there is no scratch, and every row is merged or galloped.

use gmc_dpp::{Device, DeviceOom, Launch, MemoryGuard, SharedSlice, UninitSlice};
use gmc_graph::Csr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A pick's CSR row this many times longer than the segment is galloped
/// through rather than merged.
const GALLOP_RATIO: usize = 8;

/// Wave 1 holds the best-ranked ⌈h / `WAVE_ONE_SHARE`⌉ seeds.
const WAVE_ONE_SHARE: usize = 16;

/// A pick row of at most this many entries is set into the scratch by the
/// segment that picked it; a longer one is expanded from the pick's side in
/// round 0, and merged or galloped after it.
const SHORT_ROW: usize = 64;

/// The scratch is used only while a worker's row (n bits) takes at most
/// this many bytes. Bit tests beat the merge while the row stays in the L1
/// data cache beside the rows they test: on road grids, round 0 with bit
/// tests took 0.63–0.77× the merge's time with a 6 KB row (48,400
/// vertices) but 1.11–1.21× with a 45–60 KB row (359,600–482,400 vertices)
/// on a 48 KB L1.
const SCRATCH_ROW_BYTES: usize = 16 << 10;

/// The pick of a segment that is not a run: a skipped or empty row of
/// round 0.
const NO_PICK: u32 = u32::MAX;

/// Runs the membership test `$test`, which reports each candidate of a
/// segment of `$len` through `$flag(i, adjacent)` and returns how many are
/// adjacent, and writes those flags from position `$start`. A segment of at
/// most 64 candidates gathers its flags in one word first, so the writer is
/// called once, not once per candidate, and not at all when none is set.
macro_rules! flag_segment {
    ($writer:ident, $start:expr, $len:expr, |$flag:ident| $test:expr) => {{
        let (start, len) = ($start, $len);
        if len <= 64 {
            let mut word = 0u64;
            let found = {
                let $flag = |i: usize, adjacent: bool| word |= u64::from(adjacent) << i;
                $test
            };
            // A segment without a flag keeps no candidate, so nothing reads
            // its flags.
            if word != 0 {
                $writer.put(start, word, len);
            }
            found
        } else {
            let $flag = |i: usize, adjacent: bool| $writer.put(start + i, u64::from(adjacent), 1);
            $test
        }
    }};
}

/// Runs `h` parallel greedy instances seeded by the `h` highest-threshold
/// vertices. Returns the largest witness clique found across all instances.
/// Ties go to the *last* of the longest runs in seed order, i.e. the
/// worst-seeded one.
pub fn multi_run(
    device: &Device,
    graph: &Csr,
    thresholds: &[u32],
    h: usize,
) -> Result<Vec<u32>, DeviceOom> {
    let exec = device.exec();
    let n = graph.num_vertices();
    assert_eq!(thresholds.len(), n, "one threshold per vertex");
    if n == 0 {
        return Ok(Vec::new());
    }
    let h = h.clamp(1, n);

    // Seed ranks: a stable sort by descending threshold (ascending id within
    // ties), scattered to `rank[v]`, v's seed position. The seeds are the
    // vertices ranked below h.
    let keys: Vec<u32> = exec.map(Launch::new("heuristic_sort_keys", n), |v| !thresholds[v]);
    let ids: Vec<u32> = exec.map(Launch::new("heuristic_iota", n), |v| v as u32);
    let (_, sorted) = gmc_dpp::sort_pairs_u32(exec, &keys, &ids);
    let mut rank = vec![0u32; n];
    {
        let rank_shared = SharedSlice::new(&mut rank);
        exec.run(Launch::new("heuristic_seed_ranks", n), |position| {
            // SAFETY: `sorted` is a permutation, so each vertex is written
            // once.
            unsafe { rank_shared.write(sorted[position] as usize, position as u32) };
        });
    }

    // Device memory: the flags, one bit per CSR entry, live for the whole
    // run, and each compacted entry array, 4 bytes per entry, from when it
    // is built until its wave's next round replaces it, so a round's input
    // and output overlap in the charge as they do in memory. Round 0 reads
    // the CSR in place; the CSR is not charged, as it is not for the
    // solver's edge oracle, and neither are the per-segment arrays. The
    // scratch is charged for each launch that uses it, and used only while
    // it and the flags together take at most one byte per CSR entry.
    let total = graph.neighbor_array().len();
    let flag_bytes = total.div_ceil(64) * std::mem::size_of::<u64>();
    let _flags_charge = device.memory().try_charge(flag_bytes)?;
    let scratch = Scratch::new(exec.num_workers(), n, total.saturating_sub(flag_bytes));
    let heuristic = Heuristic {
        device,
        graph,
        thresholds,
        rank: &rank,
        flags: Flags::new(total),
        marks: (0..if scratch.is_some() { n } else { 0 })
            .map(|_| AtomicBool::new(false))
            .collect(),
        scratch,
    };

    // Round 0 runs every seed at once, on the CSR rows in place. Its
    // survivors are compacted into one entry array per wave.
    let (first_picks, counts, any_survivor) = heuristic.check_connections(
        graph.offsets(),
        graph.neighbor_array(),
        |v| (rank[v] as usize) < h,
        |_| true,
        true,
    )?;
    let wave_one = h.div_ceil(WAVE_ONE_SHARE);
    let starts = if any_survivor {
        let csr = (graph.offsets(), graph.neighbor_array());
        let wave = |v: usize| usize::from(rank[v] as usize >= wave_one);
        heuristic
            .compact(csr, &counts, |v| (counts[v] > 0).then(|| wave(v)))?
            .map(Some)
    } else {
        [None, None]
    };

    // Wave 1 runs to the end; wave 2 drops every run that cannot reach wave
    // 1's longest, and wins a tie.
    let mut best = (0, Vec::new());
    for (seeds, start) in [0..wave_one, wave_one..h].into_iter().zip(starts) {
        if seeds.is_empty() {
            continue;
        }
        let bound = best.0;
        let finished = match start {
            Some(start) => heuristic.finish_wave(start, bound, &first_picks)?,
            None => None,
        };
        let longest = match finished {
            Some(longest) => longest,
            // No run of the wave outlived round 0.
            None => match heuristic.round_zero_winner(&seeds, &first_picks) {
                Some(seed) => (2, vec![seed, first_picks[seed as usize]]),
                None => (1, vec![sorted[seeds.end - 1]]),
            },
        };
        if longest.0 >= bound {
            best = longest;
        }
    }
    Ok(best.1)
}

/// What every wave and round of one [`multi_run`] shares.
struct Heuristic<'a> {
    device: &'a Device,
    graph: &'a Csr,
    thresholds: &'a [u32],
    /// `rank[v]` is v's position in the seed order.
    rank: &'a [u32],
    /// One bit per entry of the current round's entry array.
    flags: Flags,
    /// `marks[p]`: in round 0, some row picked `p`, whose row is long, and
    /// waits for the pick side. Empty when there is no scratch.
    marks: Vec<AtomicBool>,
    /// `None` when a scratch row would pass [`SCRATCH_ROW_BYTES`] or the
    /// rows would not fit beside the flags.
    scratch: Option<Scratch>,
}

/// A wave's live segments after a round: their flagged candidates,
/// compacted in segment order, the segment of the previous round each one
/// continues, and the charge of the entries.
struct Segments {
    offsets: Vec<usize>,
    entries: Vec<u32>,
    parent: Vec<usize>,
    charge: MemoryGuard,
}

impl Heuristic<'_> {
    /// Drops a round's dead segments and compacts the flagged entries of
    /// the others: segment `s` goes to output `class(s)` in segment order,
    /// and `None` drops it; `counts[s]` of its entries are flagged. One
    /// launch counts each chunk's segments and entries per output, the host
    /// scans those per-chunk totals, each output's entry array is charged
    /// in turn, and one launch writes every output.
    fn compact<const K: usize>(
        &self,
        (offsets, entries): (&[usize], &[u32]),
        counts: &[usize],
        class: impl Fn(usize) -> Option<usize> + Sync,
    ) -> Result<[Segments; K], DeviceOom> {
        let exec = self.device.exec();
        let n = counts.len();
        // Per chunk and output: segments and entries, then where the chunk
        // starts writing them.
        let mut starts = vec![[(0usize, 0usize); K]; exec.num_chunks(n)];
        {
            let starts_shared = SharedSlice::new(&mut starts);
            exec.run_chunks("heuristic_compact_count", n, |chunk, range| {
                let mut sizes = [(0, 0); K];
                for s in range {
                    if let Some(c) = class(s) {
                        sizes[c] = (sizes[c].0 + 1, sizes[c].1 + counts[s]);
                    }
                }
                // SAFETY: one write per chunk id.
                unsafe { starts_shared.write(chunk, sizes) };
            });
        }
        let mut totals = [(0, 0); K];
        for chunk in &mut starts {
            for (total, start) in totals.iter_mut().zip(chunk) {
                let sizes = *start;
                *start = *total;
                *total = (total.0 + sizes.0, total.1 + sizes.1);
            }
        }
        let mut charges = Vec::with_capacity(K);
        for &(_, survivors) in &totals {
            let bytes = survivors * std::mem::size_of::<u32>();
            charges.push(self.device.memory().try_charge(bytes)?);
        }

        let mut parents = totals.map(|(segments, _)| vec![0; segments]);
        let mut next_offsets = totals.map(|(segments, survivors)| {
            let mut next = vec![survivors; segments + 1];
            next[0] = 0;
            next
        });
        let mut outputs: [Vec<u32>; K] = std::array::from_fn(|_| Vec::new());
        let slots: [UninitSlice<u32>; K] =
            std::array::from_fn(|c| UninitSlice::for_vec(&mut outputs[c], totals[c].1));
        {
            let parents_shared = parents.each_mut().map(|parent| SharedSlice::new(parent));
            let offsets_shared = next_offsets.each_mut().map(|next| SharedSlice::new(next));
            exec.run_chunks("heuristic_compact_emit", n, |chunk, range| {
                let mut cursor = starts[chunk];
                for s in range {
                    let Some(c) = class(s) else {
                        continue;
                    };
                    let (t, first) = cursor[c];
                    // SAFETY: the chunks' cursors start at their scanned
                    // totals, so every output segment index is written once.
                    unsafe {
                        parents_shared[c].write(t, s);
                        offsets_shared[c].write(t, first);
                    }
                    let mut flagged = self.flags.ones(offsets[s]..offsets[s + 1]);
                    for slot in first..first + counts[s] {
                        let i = flagged.next().expect("a kept segment flags its count");
                        // SAFETY: the segments' output spans tile the
                        // output, and each slot is written once.
                        unsafe { slots[c].write(slot, entries[i]) };
                    }
                    assert!(flagged.next().is_none(), "a kept segment flags its count");
                    cursor[c] = (t + 1, first + counts[s]);
                }
            });
        }
        let mut charges = charges.into_iter();
        Ok(std::array::from_fn(|c| {
            // SAFETY: the output spans tile `0..totals[c].1`, so every slot
            // is initialised.
            unsafe { outputs[c].set_len(totals[c].1) };
            Segments {
                offsets: std::mem::take(&mut next_offsets[c]),
                entries: std::mem::take(&mut outputs[c]),
                parent: std::mem::take(&mut parents[c]),
                charge: charges.next().expect("one charge per output"),
            }
        }))
    }

    /// Runs a wave's rounds after round 0 to the end, dropping every run
    /// that cannot reach `bound`. Returns the length of the wave's longest
    /// run and the witness of the last of them in seed order, or `None`
    /// when no run of the wave makes a pick after round 0.
    fn finish_wave(
        &self,
        start: Segments,
        bound: usize,
        first_picks: &[u32],
    ) -> Result<Option<(usize, Vec<u32>)>, DeviceOom> {
        if start.parent.is_empty() {
            return Ok(None);
        }
        let exec = self.device.exec();
        let Segments {
            mut offsets,
            mut entries,
            parent,
            mut charge,
        } = start;

        // `picks[r][s]` is round r + 1's pick in its segment s, and
        // `parents[r]` maps round r + 1's segments to round r's. Round 0's
        // segment index is the vertex, so following the maps back from any
        // segment ends at its run's seed.
        let mut picks: Vec<Vec<u32>> = Vec::new();
        let mut parents: Vec<Vec<usize>> = vec![parent];
        loop {
            // Before this round's pick a run holds its seed and `round`
            // picks, and after it one more; a run is kept only while that
            // plus its candidates reaches the bound.
            let round = picks.len() + 1;
            let (round_picks, counts, any_survivor) = self.check_connections(
                &offsets,
                &entries,
                |s| round + 1 + offsets[s + 1] - offsets[s] >= bound,
                |survivors| round + 2 + survivors >= bound,
                false,
            )?;
            picks.push(round_picks);
            if !any_survivor {
                break;
            }
            // Drop the dead segments; the survivor counts are the next
            // round's segment lengths.
            let [next] = self.compact((&offsets, &entries), &counts, |s| {
                (counts[s] > 0).then_some(0)
            })?;
            // The previous round's array is gone, and so is its charge.
            (offsets, entries, charge) = (next.offsets, next.entries, next.charge);
            parents.push(next.parent);
        }
        drop(charge);

        // The runs that made a pick in the final round are the longest, and
        // the winner is the one whose seed ranks last. Ranks are distinct,
        // so the maximum is unique. Only the first round after round 0 can
        // skip every segment.
        let last_picks = picks.last().expect("one round ran");
        let launch = Launch::new("heuristic_winner_ranks", last_picks.len());
        let seed_ranks: Vec<Option<(u32, usize)>> = exec.map(launch, |s| {
            let seed = parents.iter().rev().fold(s, |s, parent| parent[s]);
            (last_picks[s] != NO_PICK).then_some((self.rank[seed], s))
        });
        let Some((_, winner)) = gmc_dpp::reduce_by(exec, &seed_ranks, None, std::cmp::max) else {
            return Ok(None);
        };

        let mut witness = Vec::with_capacity(picks.len() + 2);
        let mut position = winner;
        for (round_picks, parent) in picks[1..].iter().zip(&parents[1..]).rev() {
            witness.push(round_picks[position]);
            position = parent[position];
        }
        witness.push(picks[0][position]);
        let seed = parents[0][position];
        witness.push(first_picks[seed]);
        witness.push(seed as u32);
        witness.reverse();
        Ok(Some((witness.len(), witness)))
    }

    /// The last-ranked seed in `seeds` whose round-0 row made a pick.
    fn round_zero_winner(&self, seeds: &Range<usize>, first_picks: &[u32]) -> Option<u32> {
        let exec = self.device.exec();
        let launch = Launch::new("heuristic_winner_ranks", first_picks.len());
        let seed_ranks: Vec<Option<(u32, u32)>> = exec.map(launch, |v| {
            let rank = self.rank[v];
            (first_picks[v] != NO_PICK && seeds.contains(&(rank as usize)))
                .then_some((rank, v as u32))
        });
        gmc_dpp::reduce_by(exec, &seed_ranks, None, std::cmp::max).map(|(_, v)| v)
    }

    /// `CHECKCONNECTIONS` with the pick folded in: each segment that is a
    /// run picks its first highest-threshold candidate, flags the
    /// candidates adjacent to the pick and counts them. The pick is not in
    /// its own row, so it drops out. A segment that is empty or not a run
    /// (`runs` is false) makes no pick ([`NO_PICK`]), and one whose count
    /// `keep` rejects is dropped with a count of 0; the flags of either are
    /// left undefined, as nothing reads them. `round_zero` says the
    /// segments are the CSR rows, indexed by vertex, which lets long pick
    /// rows be tested from the pick's side. Returns the picks and the
    /// survivor counts, per segment, and whether any kept segment has a
    /// survivor, so the last round stops before the compaction.
    fn check_connections(
        &self,
        offsets: &[usize],
        entries: &[u32],
        runs: impl Fn(usize) -> bool + Sync,
        keep: impl Fn(usize) -> bool + Sync,
        round_zero: bool,
    ) -> Result<(Vec<u32>, Vec<usize>, bool), DeviceOom> {
        let exec = self.device.exec();
        let (graph, thresholds, flags) = (self.graph, self.thresholds, &self.flags);
        let num_segments = offsets.len() - 1;
        let scratch = self.scratch.as_ref();
        let _scratch_charge = match scratch {
            Some(scratch) => Some(scratch.charge(self.device, exec.num_chunks(num_segments))?),
            None => None,
        };
        let pick_side = round_zero && scratch.is_some();

        let mut picks = vec![NO_PICK; num_segments];
        let mut counts = vec![0usize; num_segments];
        let any_survivor = AtomicBool::new(false);
        let any_marked = AtomicBool::new(false);
        let counts_shared = SharedSlice::new(&mut counts);
        let finish = |s: usize, survivors: usize| {
            if !keep(survivors) {
                return;
            }
            // SAFETY: each segment's count is written once, by the thread
            // that tested it.
            unsafe { counts_shared.write(s, survivors) };
            // Tested before it is set, so the segments of a round do not all
            // write the flag's cache line. Relaxed suffices: it is read after
            // the launch's closing barrier and publishes nothing else.
            if survivors > 0 && !any_survivor.load(Ordering::Relaxed) {
                any_survivor.store(true, Ordering::Relaxed);
            }
        };
        {
            let picks_shared = SharedSlice::new(&mut picks);
            exec.run_chunks(
                "heuristic_check_connections",
                num_segments,
                |chunk, range| {
                    let mut bits = scratch.map(|scratch| scratch.row(chunk));
                    let mut writer = flags.writer(offsets[range.start]..offsets[range.end]);
                    for s in range {
                        if !runs(s) {
                            continue;
                        }
                        let (start, end) = (offsets[s], offsets[s + 1]);
                        let segment = &entries[start..end];
                        let Some(pick) = first_max(segment, thresholds) else {
                            continue;
                        };
                        // SAFETY: one write per segment index.
                        unsafe { picks_shared.write(s, pick) };
                        let row = graph.neighbors(pick);
                        let survivors = match bits.as_deref_mut() {
                            Some(bits) if row.len() <= SHORT_ROW => {
                                set_row(bits, row);
                                let found = flag_segment!(writer, start, segment.len(), |flag| {
                                    probe_row(bits, segment, flag)
                                });
                                clear_row(bits, row);
                                found
                            }
                            _ if pick_side => {
                                // Relaxed: read after the launch's closing barrier.
                                self.marks[pick as usize].store(true, Ordering::Relaxed);
                                any_marked.store(true, Ordering::Relaxed);
                                continue;
                            }
                            _ => flag_segment!(writer, start, segment.len(), |flag| {
                                intersect(segment, row, flag)
                            }),
                        };
                        finish(s, survivors);
                    }
                },
            );
        }

        if any_marked.into_inner() {
            // The pick side: each marked vertex expands its row once, and
            // every row that picked it, which lies in that row, is tested
            // against it. Each tested row's flags are its own span.
            let scratch = scratch.expect("only rows with a scratch are marked");
            let n = graph.num_vertices();
            exec.run_chunks("heuristic_pick_side", n, |chunk, range| {
                let mut bits = scratch.row(chunk);
                for pick in range {
                    if !self.marks[pick].load(Ordering::Relaxed) {
                        continue;
                    }
                    self.marks[pick].store(false, Ordering::Relaxed);
                    let row = graph.neighbors(pick as u32);
                    set_row(&mut bits, row);
                    for &v in row {
                        let v = v as usize;
                        if picks[v] as usize != pick {
                            continue;
                        }
                        let (start, end) = (offsets[v], offsets[v + 1]);
                        let mut writer = flags.writer(start..end);
                        let segment = &entries[start..end];
                        let survivors = flag_segment!(writer, start, segment.len(), |flag| {
                            probe_row(&bits, segment, flag)
                        });
                        drop(writer);
                        finish(v, survivors);
                    }
                    clear_row(&mut bits, row);
                }
            });
        }
        Ok((picks, counts, any_survivor.into_inner()))
    }
}

/// The first candidate of `segment` with the highest threshold, or `None`
/// when the segment is empty.
fn first_max(segment: &[u32], thresholds: &[u32]) -> Option<u32> {
    let (&first, rest) = segment.split_first()?;
    let mut pick = (first, thresholds[first as usize]);
    for &u in rest {
        let threshold = thresholds[u as usize];
        if threshold > pick.1 {
            pick = (u, threshold);
        }
    }
    Some(pick.0)
}

/// Reports, for each candidate of the sorted `segment`, whether it is in
/// the sorted `row`, and returns how many are. A two-pointer merge walks
/// both lists; when the row is more than [`GALLOP_RATIO`] times longer,
/// each candidate gallops through the rest of the row instead.
fn intersect(segment: &[u32], row: &[u32], mut flag: impl FnMut(usize, bool)) -> usize {
    let gallop = row.len() > GALLOP_RATIO * segment.len();
    let mut j = 0;
    let mut found = 0;
    for (i, &u) in segment.iter().enumerate() {
        if gallop {
            j += lower_bound_galloping(&row[j..], u);
        } else {
            while j < row.len() && row[j] < u {
                j += 1;
            }
        }
        let adjacent = j < row.len() && row[j] == u;
        found += adjacent as usize;
        flag(i, adjacent);
    }
    found
}

/// The index of the first element of sorted `row` not below `target`:
/// doubling steps bracket it, then a binary search finds it.
fn lower_bound_galloping(row: &[u32], target: u32) -> usize {
    let mut bound = 1;
    while bound < row.len() && row[bound] < target {
        bound *= 2;
    }
    let low = bound / 2;
    low + row[low..bound.min(row.len())].partition_point(|&x| x < target)
}

/// Sets the members of `row` in the all-zero `bits`.
fn set_row(bits: &mut [u64], row: &[u32]) {
    for &u in row {
        bits[u as usize / 64] |= 1 << (u % 64);
    }
}

/// Clears the words `row` was set into; nothing else is set in them.
fn clear_row(bits: &mut [u64], row: &[u32]) {
    for &u in row {
        bits[u as usize / 64] = 0;
    }
}

/// [`intersect`] against the row set into `bits`: reports, for each
/// candidate of `segment`, whether its bit is set, and returns how many
/// are.
fn probe_row(bits: &[u64], segment: &[u32], mut flag: impl FnMut(usize, bool)) -> usize {
    let mut found = 0;
    for (i, &u) in segment.iter().enumerate() {
        let adjacent = bits[u as usize / 64] >> (u % 64) & 1 != 0;
        found += adjacent as usize;
        flag(i, adjacent);
    }
    found
}

/// One n-bit row per worker; each row is all zeros between uses.
/// [`gmc_dpp::Executor::run_chunks`] gives each worker one chunk, so a launch's
/// chunk id picks its row.
struct Scratch {
    rows: Vec<Mutex<Vec<u64>>>,
    row_bytes: usize,
}

impl Scratch {
    /// One row per worker, or `None` when a row takes more than
    /// [`SCRATCH_ROW_BYTES`] or the rows more than `room` bytes.
    fn new(workers: usize, n: usize, room: usize) -> Option<Self> {
        let words = n.div_ceil(64);
        let row_bytes = words * std::mem::size_of::<u64>();
        (row_bytes <= SCRATCH_ROW_BYTES && workers * row_bytes <= room).then(|| Self {
            rows: (0..workers).map(|_| Mutex::new(vec![0; words])).collect(),
            row_bytes,
        })
    }

    /// Charges the rows a launch of `chunks` chunks uses.
    fn charge(&self, device: &Device, chunks: usize) -> Result<MemoryGuard, DeviceOom> {
        device.memory().try_charge(chunks * self.row_bytes)
    }

    /// The row of `chunk`. Chunks of one launch run on distinct workers,
    /// so the lock is never contended.
    fn row(&self, chunk: usize) -> MutexGuard<'_, Vec<u64>> {
        self.rows[chunk]
            .lock()
            .expect("a worker that panics with its row ends the heuristic")
    }
}

/// One flag bit per entry of a round's entry array, packed into words.
struct Flags {
    words: Vec<AtomicU64>,
}

impl Flags {
    fn new(entries: usize) -> Self {
        Self {
            words: (0..entries.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// A writer for the flags of the entries in `span`.
    fn writer(&self, span: Range<usize>) -> FlagWriter<'_> {
        FlagWriter {
            words: &self.words,
            start: span.start,
            end: span.end,
            word: usize::MAX,
            bits: 0,
        }
    }

    /// The positions in `span` whose flag is set, ascending.
    fn ones(&self, span: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let words = if span.is_empty() {
            0..0
        } else {
            span.start / 64..(span.end - 1) / 64 + 1
        };
        words.flat_map(move |w| {
            let mut word = self.words[w].load(Ordering::Relaxed) & span_mask(&span, w);
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// The bits of word `w` whose positions lie in `span`.
fn span_mask(span: &Range<usize>, w: usize) -> u64 {
    let low = span.start.max(w * 64) - w * 64;
    let high = span.end.min(w * 64 + 64) - w * 64;
    if high - low == 64 {
        u64::MAX
    } else {
        ((1u64 << (high - low)) - 1) << low
    }
}

/// Writes flags in ascending position order within one span, a word at a
/// time. A word wholly inside the span is stored; a word the span shares
/// with another is updated only at the span's bits, with atomics, so spans
/// written at once by different workers do not race. Positions not written
/// inside a word the writer reaches read as cleared; a word it never reaches
/// keeps what an earlier round left.
struct FlagWriter<'a> {
    words: &'a [AtomicU64],
    /// The span, by value, so that the writer's state stays in registers.
    start: usize,
    end: usize,
    /// The word being filled, or `usize::MAX` before the first flag.
    word: usize,
    bits: u64,
}

impl FlagWriter<'_> {
    /// Writes the low `len` bits of `flags`, `len` at most 64, as the flags
    /// of `position..position + len`.
    fn put(&mut self, position: usize, flags: u64, len: usize) {
        let (word, shift) = (position / 64, position % 64);
        if word != self.word {
            store(self.words, self.start..self.end, self.word, self.bits);
            (self.word, self.bits) = (word, 0);
        }
        self.bits |= flags << shift;
        if shift + len > 64 {
            store(self.words, self.start..self.end, word, self.bits);
            (self.word, self.bits) = (word + 1, flags >> (64 - shift));
        }
    }
}

/// Stores `bits` as the flags of `span` in word `w` (none before the first
/// flag, `usize::MAX`).
fn store(words: &[AtomicU64], span: Range<usize>, w: usize, bits: u64) {
    if w == usize::MAX {
        return;
    }
    let mask = span_mask(&span, w);
    if mask == u64::MAX {
        words[w].store(bits, Ordering::Relaxed);
    } else {
        words[w].fetch_and(bits | !mask, Ordering::Relaxed);
        words[w].fetch_or(bits, Ordering::Relaxed);
    }
}

impl Drop for FlagWriter<'_> {
    fn drop(&mut self) {
        store(self.words, self.start..self.end, self.word, self.bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_run;
    use gmc_dpp::Rng;
    use gmc_graph::{generators, kcore};

    /// One greedy run of Algorithm 1: the clique it grows and, after each
    /// pick, how many candidates survive.
    struct Run {
        clique: Vec<u32>,
        survivors: Vec<usize>,
    }

    /// Algorithm 1 one seed at a time: seeds in stable descending-threshold
    /// order, each run growing from its seed's sorted row by taking the
    /// first max-threshold candidate and keeping the candidates adjacent to
    /// it. Returns the first `h` runs in seed order.
    fn reference_runs(graph: &Csr, thresholds: &[u32], h: usize) -> Vec<Run> {
        let mut seeds: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        seeds.sort_by_key(|&v| std::cmp::Reverse(thresholds[v as usize]));
        let grow = |seed: u32| {
            let mut run = Run {
                clique: vec![seed],
                survivors: Vec::new(),
            };
            let mut candidates = graph.neighbors(seed).to_vec();
            while let Some(pick) = candidates.iter().copied().reduce(|top, u| {
                if thresholds[u as usize] > thresholds[top as usize] {
                    u
                } else {
                    top
                }
            }) {
                run.clique.push(pick);
                candidates.retain(|&u| graph.has_edge(u, pick));
                run.survivors.push(candidates.len());
            }
            run
        };
        seeds.into_iter().take(h.max(1)).map(grow).collect()
    }

    /// The witness of [`multi_run`] by definition: the last of the longest
    /// reference runs.
    fn sequential_multi_run(graph: &Csr, thresholds: &[u32], h: usize) -> Vec<u32> {
        let runs = reference_runs(graph, thresholds, h);
        let longest = runs.iter().map(|run| run.clique.len()).max().unwrap();
        let last = runs.iter().rev().find(|run| run.clique.len() == longest);
        last.unwrap().clique.clone()
    }

    /// `graph` with its vertices spread over half as many ids again, every
    /// third id left isolated.
    fn spread_with_isolated(graph: &Csr) -> Csr {
        let spread = |v: u32| v + v / 2;
        let edges: Vec<(u32, u32)> = (0..graph.num_vertices() as u32)
            .flat_map(|v| graph.neighbors(v).iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| v < u)
            .map(|(v, u)| (spread(v), spread(u)))
            .collect();
        Csr::from_edges(spread(graph.num_vertices() as u32) as usize, &edges)
    }

    /// The complete graph on `members`.
    fn clique_edges(members: std::ops::Range<u32>) -> Vec<(u32, u32)> {
        members
            .clone()
            .flat_map(|u| (u + 1..members.end).map(move |v| (u, v)))
            .collect()
    }

    /// Runs [`multi_run`] on a one-worker device and on a pooled one whose
    /// every launch runs on the workers, and checks both witnesses against
    /// the reference.
    fn assert_witness(graph: &Csr, keys: &[u32], h: usize, context: &str) -> Vec<u32> {
        let expected = sequential_multi_run(graph, keys, h);
        let inline = Device::new(1, usize::MAX);
        let pooled = Device::new(4, usize::MAX);
        pooled.exec().set_sequential_grid_limit(0);
        for (device, name) in [(&inline, "inline"), (&pooled, "pooled")] {
            let witness = multi_run(device, graph, keys, h).unwrap();
            assert_eq!(witness, expected, "{context}, h {h}, {name}");
        }
        expected
    }

    #[test]
    fn witness_equals_sequential_reference() {
        let mut graphs: Vec<Csr> = [(90, 0.04), (70, 0.15), (50, 0.4), (40, 0.8)]
            .into_iter()
            .flat_map(|(n, p)| (0..3).map(move |seed| generators::gnp(n, p, seed)))
            .collect();
        graphs.push(generators::plant_clique(&generators::gnp(150, 0.05, 3), 11, 4).0);
        graphs.push(Csr::empty(4));
        // A perfect matching with its pairs scattered through the ids: round
        // 0 is the last round.
        let matching: Vec<(u32, u32)> = (0..20).map(|i| (i, 39 - i)).collect();
        graphs.push(Csr::from_edges(40, &matching));
        // Isolated vertices between the rows that have edges.
        for seed in 0..2 {
            graphs.push(spread_with_isolated(&generators::gnp(60, 0.12, seed)));
        }
        // Smoke-tier graphs of the benchmark's families.
        for name in [
            "soc-sphere-03",
            "road-grid-02",
            "ca-papers-04",
            "web-crawl-05",
            "socfb-campus-06",
        ] {
            let spec = gmc_corpus::by_name(gmc_corpus::Tier::Smoke, name).expect(name);
            graphs.push(spec.load());
        }

        // Launches of every size on the pool.
        let pooled = Device::new(4, usize::MAX);
        pooled.exec().set_sequential_grid_limit(0);
        let inline = Device::new(1, usize::MAX);
        let mut rng = Rng::seed_from_u64(7);
        for (id, graph) in graphs.iter().enumerate() {
            let n = graph.num_vertices();
            let degrees = graph.degrees();
            let cores = kcore::core_numbers(graph);
            let core_keys = crate::core_degree_keys(inline.exec(), graph, &cores);
            let tied_keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
            let isolated_first: Vec<u32> = degrees
                .iter()
                .map(|&d| if d == 0 { u32::MAX } else { d })
                .collect();
            let isolated = degrees.iter().filter(|&&d| d == 0).count();
            let key_sets = [
                ("degree", degrees.clone()),
                ("core", core_keys),
                ("tied", tied_keys),
                ("isolated-first", isolated_first),
            ];
            for (key_name, keys) in &key_sets {
                // 15, 16 and 17 seeds, and 32 and 33, straddle the wave seam:
                // wave 1 holds one seed, then two, then three.
                let mut seed_counts = vec![1, 7, 15, 16, 17, 32, 33, n / 3 + 1, n];
                if isolated > 0 && isolated < n {
                    // Every seed isolated while other rows have edges: no
                    // round makes a pick.
                    seed_counts.push(isolated);
                }
                for h in seed_counts {
                    let expected = sequential_multi_run(graph, keys, h);
                    let context = format!("graph {id}, {key_name} keys, h {h}");
                    assert_eq!(
                        multi_run(&inline, graph, keys, h).unwrap(),
                        expected,
                        "{context}, inline"
                    );
                    let witness = multi_run(&pooled, graph, keys, h).unwrap();
                    assert_eq!(witness, expected, "{context}, pooled");
                }
            }
        }
    }

    #[test]
    fn the_longest_run_can_start_in_wave_two() {
        // Three triangle-free stars rank first by degree and fill wave 1
        // (⌈48/16⌉ = 3 seeds), whose runs end at length 2; the K5 is found
        // from a seed of wave 2.
        let mut edges = clique_edges(40..45);
        for hub in 0..3 {
            edges.extend((0..8).map(|leaf| (hub, 3 + 8 * hub + leaf)));
        }
        let graph = Csr::from_edges(48, &edges);
        let keys = graph.degrees();
        let runs = reference_runs(&graph, &keys, 48);
        assert!(runs[..3].iter().all(|run| run.clique.len() == 2));
        for h in [48, 33, 17] {
            let witness = assert_witness(&graph, &keys, h, "stars and a K5");
            assert_eq!(witness.len(), 5);
        }
    }

    #[test]
    fn a_wave_two_run_that_ties_wave_one_wins() {
        // Two disjoint K4s. Vertex 0 alone is wave 1 (⌈16/16⌉ = 1 seed) and
        // its run has length 4; every other K4 seed ties it, and the last of
        // them in seed order, 7, wins. Each of those runs has exactly
        // ℓ + c = 4 after rounds 0 and 1, so a drop rule that also dropped
        // a run that can only tie wave 1 would lose it.
        let mut edges = clique_edges(0..4);
        edges.extend(clique_edges(4..8));
        let graph = Csr::from_edges(16, &edges);
        let mut keys = graph.degrees();
        keys[0] = 9;
        assert_eq!(assert_witness(&graph, &keys, 16, "two K4s"), [7, 4, 5, 6]);
        assert_eq!(assert_witness(&graph, &keys, 7, "two K4s"), [6, 4, 5, 7]);
    }

    #[test]
    fn a_wave_one_without_a_pick_bounds_nothing() {
        // Isolated-first keys fill wave 1 with isolated seeds: no run of
        // wave 1 makes a pick, its longest run is a lone seed, and wave 2
        // finds the clique.
        let graph = spread_with_isolated(&generators::gnp(60, 0.12, 4));
        let keys: Vec<u32> = graph
            .degrees()
            .iter()
            .map(|&d| if d == 0 { u32::MAX } else { d })
            .collect();
        let n = graph.num_vertices();
        let runs = reference_runs(&graph, &keys, n);
        assert!(runs[..n.div_ceil(16)]
            .iter()
            .all(|run| run.clique.len() == 1));
        for h in [n, 33, 17, 16, 15] {
            let witness = assert_witness(&graph, &keys, h, "isolated first");
            assert!(witness.len() >= 2 || h <= 30, "h {h}: {witness:?}");
        }
    }

    #[test]
    fn long_and_short_pick_rows_share_round_zero() {
        // Hub 0 has 80 neighbours on a path, with the chord 40-42 closing
        // the K4 {0, 40, 41, 42}. The hub picks 40, whose row of 4 is set
        // into the scratch by the hub's own segment; every path vertex picks
        // the hub, whose row is longer than a short row and is tested from
        // the hub's side. The winner, 41, is the last-ranked seed of a
        // longest run, and its run starts on the pick side.
        let mut edges: Vec<(u32, u32)> = (1..=80).map(|v| (0, v)).collect();
        edges.extend((1..80).map(|v| (v, v + 1)));
        edges.push((40, 42));
        let graph = Csr::from_edges(81, &edges);
        assert!(graph.degree(0) > SHORT_ROW && graph.degree(40) <= SHORT_ROW);
        let keys = graph.degrees();
        assert_eq!(
            assert_witness(&graph, &keys, 81, "hub and path"),
            [41, 0, 40, 42]
        );
        for h in [33, 17] {
            assert_witness(&graph, &keys, h, "hub and path");
        }
        let device = Device::new(4, usize::MAX);
        device.exec().set_sequential_grid_limit(0);
        multi_run(&device, &graph, &keys, 81).unwrap();
        assert_eq!(
            device.exec().stats().kernel("heuristic_pick_side").launches,
            1
        );
    }

    #[test]
    fn charge_follows_the_entry_arrays_and_is_exact() {
        // The flag bits (one per CSR entry) stay charged for the whole run.
        // Round 0 compacts its survivors into one entry array per wave (4
        // bytes per entry). Wave 1's rounds run while wave 2's array waits,
        // each round's array overlapping the next round's while that one is
        // built; then wave 2's rounds run. A one-worker device charges one
        // scratch row (n bits) during each CHECKCONNECTIONS launch.
        let graph = generators::plant_clique(&generators::gnp(160, 0.12, 5), 9, 2).0;
        let keys = graph.degrees();
        let n = graph.num_vertices();
        let total = graph.num_directed_edges();
        let runs = reference_runs(&graph, &keys, n);
        let (first, second) = runs.split_at(n.div_ceil(WAVE_ONE_SHARE));
        let longest = first.iter().map(|run| run.clique.len()).max().unwrap();

        // Each wave's entries after round r: the survivors of the runs kept
        // through it. Round 0 keeps every run. A run of length q + 1 with c
        // candidates (after round q − 1) is kept while q + 1 + c reaches
        // wave 1's longest.
        let entries = |wave: &[Run], bound: usize| -> Vec<usize> {
            let rounds = wave.iter().map(|run| run.survivors.len()).max().unwrap();
            let kept = |run: &Run, r: usize| {
                r == 0 || (1..=r + 1).all(|q| q + 1 + run.survivors[q - 1] >= bound)
            };
            (0..rounds)
                .map(|r| {
                    wave.iter()
                        .filter(|run| run.survivors.len() > r && kept(run, r))
                        .map(|run| run.survivors[r])
                        .sum()
                })
                .collect()
        };
        let (wave_one, wave_two) = (entries(first, 0), entries(second, longest));
        assert!(wave_one.len() >= 3, "{} rounds", wave_one.len());
        assert!(
            entries(second, 0)[1] > wave_two[1],
            "wave 2 drops runs before round 1"
        );

        let flags = total.div_ceil(64) * 8;
        let scratch = n.div_ceil(64) * 8;
        assert!(flags + scratch <= total, "the scratch is used");
        let (held, mut peak) = (wave_two[0], scratch);
        for (wave, held) in [(&wave_one, held), (&wave_two, 0)] {
            peak = peak.max(4 * (wave_one[0] + wave_two[0]));
            for round in 1.. {
                let input = wave[round - 1];
                if input == 0 {
                    break;
                }
                peak = peak.max(4 * (held + input) + scratch);
                let output = wave.get(round).copied().unwrap_or(0);
                if output > 0 {
                    peak = peak.max(4 * (held + input + output));
                }
            }
        }
        let peak = flags + peak;

        let expected = sequential_multi_run(&graph, &keys, n);
        let unlimited = Device::new(1, usize::MAX);
        assert_eq!(multi_run(&unlimited, &graph, &keys, n).unwrap(), expected);
        assert_eq!(unlimited.memory().peak(), peak);
        assert_eq!(unlimited.memory().live(), 0);

        // Byte flags and one entry array per round for every run together
        // peaked higher.
        let survivors: Vec<usize> = entries(&runs, 0);
        let overlap = std::iter::once(&0)
            .chain(&survivors)
            .zip(&survivors)
            .map(|(input, output)| input + output)
            .max()
            .unwrap();
        assert!(
            peak <= total + 4 * overlap,
            "{peak} > {}",
            total + 4 * overlap
        );

        let exact = Device::new(1, peak);
        assert_eq!(multi_run(&exact, &graph, &keys, n).unwrap(), expected);
        let short = Device::new(1, peak - 1);
        let err = multi_run(&short, &graph, &keys, n).unwrap_err();
        assert_eq!(err.capacity, peak - 1);
        assert_eq!(short.memory().live(), 0);
    }

    #[test]
    fn intersection_flags_row_members_on_merge_and_gallop_paths() {
        let row: Vec<u32> = (0..200).map(|x| 3 * x + 1).collect();
        let segments: [Vec<u32>; 4] = [
            (0..40).map(|x| 5 * x).collect(),      // merge: row ≤ 8× segment
            (0..10).map(|x| 67 * x + 1).collect(), // gallop, past the row's end
            vec![1, 2, 598, 1000],
            Vec::new(),
        ];
        for segment in &segments {
            let mut flags = vec![None; segment.len()];
            let found = intersect(segment, &row, |i, adjacent| flags[i] = Some(adjacent));
            let expected: Vec<_> = segment
                .iter()
                .map(|u| Some(row.binary_search(u).is_ok()))
                .collect();
            assert_eq!(flags, expected, "{segment:?}");
            assert_eq!(found, expected.iter().filter(|&&f| f == Some(true)).count());

            // The bit tests agree, and leave the scratch clear.
            let mut bits = vec![0u64; 1001_usize.div_ceil(64)];
            set_row(&mut bits, &row);
            let mut bit_flags = vec![None; segment.len()];
            let bit_found = probe_row(&bits, segment, |i, adjacent| bit_flags[i] = Some(adjacent));
            clear_row(&mut bits, &row);
            assert_eq!((bit_flags, bit_found), (expected, found), "{segment:?}");
            assert!(bits.iter().all(|&word| word == 0));
        }
    }

    #[test]
    fn flag_writers_of_spans_that_share_words_keep_each_others_bits() {
        // Spans that start and end inside words, one longer than 64 flags
        // with a whole unflagged word inside, written in an order that
        // interleaves them, over words left dirty by an earlier round. A
        // span without a flag writes nothing: its segment keeps no
        // candidate, so nothing reads its flags.
        let spans = [0..5, 5..70, 70..71, 71..256, 256..300];
        let flags = Flags::new(300);
        for word in &flags.words {
            word.store(u64::MAX, Ordering::Relaxed);
        }
        let flagged = |position: usize| {
            (position.is_multiple_of(3) || position % 7 == 1) && !(128..192).contains(&position)
        };
        for span in spans.iter().rev() {
            let mut writer = flags.writer(span.clone());
            let found = flag_segment!(writer, span.start, span.len(), |flag| {
                let mut flag = flag;
                span.clone()
                    .enumerate()
                    .for_each(|(i, p)| flag(i, flagged(p)));
                span.clone().filter(|&p| flagged(p)).count()
            });
            assert_eq!(found, span.clone().filter(|&p| flagged(p)).count());
        }
        for span in &spans {
            let expected: Vec<usize> = span.clone().filter(|&p| flagged(p)).collect();
            if !expected.is_empty() {
                let ones: Vec<usize> = flags.ones(span.clone()).collect();
                assert_eq!(ones, expected, "{span:?}");
            }
        }
        assert_eq!(flags.ones(10..10).count(), 0);
    }

    #[test]
    fn ties_go_to_the_last_of_the_longest_runs() {
        // Two disjoint triangles: every run has length 3, so the worst-
        // seeded run wins even when vertex 0 is the best-seeded by far.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let device = Device::unlimited();
        let mut keys = g.degrees();
        assert_eq!(multi_run(&device, &g, &keys, 6).unwrap(), [5, 3, 4]);
        keys[0] = 9;
        assert_eq!(multi_run(&device, &g, &keys, 6).unwrap(), [5, 3, 4]);
    }

    #[test]
    fn finds_planted_clique_from_any_seed() {
        let device = Device::unlimited();
        let base = generators::gnp(120, 0.05, 1);
        let (g, members) = generators::plant_clique(&base, 9, 2);
        let clique = multi_run(&device, &g, &g.degrees(), g.num_vertices()).unwrap();
        assert!(clique.len() >= members.len());
        assert!(g.is_clique(&clique));
    }

    #[test]
    fn h_one_equals_single_run() {
        let device = Device::unlimited();
        for seed in 0..5 {
            let g = generators::gnp(100, 0.1, seed);
            let degrees = g.degrees();
            let single = single_run(&device, &g, &degrees);
            let multi = multi_run(&device, &g, &degrees, 1).unwrap();
            assert_eq!(single, multi, "seed {seed}");
        }
    }

    #[test]
    fn dominates_single_run_on_random_graphs() {
        let device = Device::unlimited();
        for seed in 0..8 {
            let g = generators::gnp(150, 0.15, seed);
            let degrees = g.degrees();
            let single = single_run(&device, &g, &degrees).len();
            let multi = multi_run(&device, &g, &degrees, g.num_vertices())
                .unwrap()
                .len();
            assert!(multi >= single, "seed {seed}: {multi} < {single}");
        }
    }

    #[test]
    fn respects_memory_budget() {
        // A budget too small for the flags must fail, not panic.
        let device = Device::with_memory_budget(16);
        let g = generators::complete(20);
        let err = multi_run(&device, &g, &g.degrees(), 20).unwrap_err();
        assert!(err.capacity == 16);
        // And the failed run must not leak charges.
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn disconnected_components_all_reached() {
        let device = Device::unlimited();
        // Triangle {0,1,2} and K4 {3,4,5,6}, disconnected.
        let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        for u in 3..7u32 {
            for v in (u + 1)..7 {
                edges.push((u, v));
            }
        }
        let g = Csr::from_edges(7, &edges);
        let clique = multi_run(&device, &g, &g.degrees(), g.num_vertices()).unwrap();
        assert_eq!(clique.len(), 4);
        assert!(clique.iter().all(|&v| v >= 3));
    }

    #[test]
    fn deterministic() {
        let device_a = Device::new(1, usize::MAX);
        let device_b = Device::new(6, usize::MAX);
        let g = generators::gnp(200, 0.1, 9);
        let a = multi_run(&device_a, &g, &g.degrees(), 200).unwrap();
        let b = multi_run(&device_b, &g, &g.degrees(), 200).unwrap();
        assert_eq!(a, b, "worker count must not change the result");
    }

    #[test]
    fn isolated_seed_yields_singleton() {
        let device = Device::unlimited();
        let g = Csr::empty(3);
        let clique = multi_run(&device, &g, &g.degrees(), 3).unwrap();
        assert_eq!(clique.len(), 1);
    }
}
