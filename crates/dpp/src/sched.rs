//! Launch scheduling: how a grid of virtual threads is carved into units of
//! work and handed to the executor's OS workers.
//!
//! The paper's kernels are highly skewed per virtual thread — a count/emit
//! entry's work is proportional to its candidate-list length and vertex
//! degree — so the executor's static mapping (one contiguous chunk per
//! worker) lets a single heavy chunk serialise a whole launch.
//! [`Schedule::Auto`] therefore runs *weighted* launches (a
//! [`Launch`](crate::Launch) with per-index cost hints) morsel-driven: the
//! grid is cut into a fixed, worker-count-independent set of contiguous
//! morsels of roughly equal summed cost, and idle workers claim morsel
//! indices from a shared atomic cursor.
//!
//! Two invariants make this safe for a solver that promises bit-identical
//! output across worker counts and fault replays:
//!
//! * **Decomposition is deterministic.** Morsel boundaries are a pure
//!   function of `(n, costs)`, never of the worker count or of timing.
//!   Only the *assignment* of morsels to workers is dynamic.
//! * **Kernels write disjoint index ranges.** Every launch body in this
//!   repo writes only locations owned by its index, so executing the same
//!   index set under any morsel-to-worker assignment produces identical
//!   memory contents at the launch's closing barrier.
//!
//! Note that [`Executor::run_chunks`] is *not* scheduled: primitives built
//! on it (the two-phase and decoupled look-back scans) index their partials
//! by chunk id and — for the look-back scan — spin on predecessor chunks,
//! which requires all chunks resident on distinct workers at once. Chunked
//! launches always keep the static one-chunk-per-worker mapping.
//!
//! [`Executor::run_chunks`]: crate::Executor::run_chunks

/// Morsel size (indices) from which [`Schedule::Auto`] derives the morsel
/// count of a weighted launch. Small enough that a skewed 10k-entry grid
/// decomposes into ~10 claimable units, large enough that the shared-cursor
/// `fetch_add` amortises to noise for any kernel worth pooling.
pub const DEFAULT_MORSEL_GRAIN: usize = 1024;

/// Upper bound on morsels per launch: caps claim-cursor traffic on huge
/// grids (a 100M-entry launch still decomposes into at most this many
/// units, each ≥ 24k indices). Worker-count independent by construction.
pub const MAX_MORSELS: usize = 4096;

/// How an [`Executor`](crate::Executor) maps a launch's virtual threads
/// onto its worker pool. Selected per executor via
/// [`Executor::set_schedule`](crate::Executor::set_schedule), at
/// construction via the `GMC_SCHED` environment variable, or per solve via
/// `SolverConfig::schedule` in `gmc-mce`.
///
/// Output is bit-identical under both variants and every worker count; they
/// trade dispatch overhead against load balance on skewed grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// One contiguous chunk per worker for every launch, cost hints
    /// ignored. Zero scheduling overhead; a single heavy chunk serialises
    /// the launch. The reference the tests and perf gates compare against.
    /// `GMC_SCHED=static`.
    Static,
    /// The default policy: *weighted* launches — where the caller supplied
    /// per-entry cost hints — use cost-balanced morsel claiming, while
    /// unweighted launches keep the static mapping (no cost information
    /// means no reason to pay claim traffic). `GMC_SCHED=auto`.
    #[default]
    Auto,
}

impl Schedule {
    /// Reads `GMC_SCHED` (`static`/`auto`), defaulting to
    /// [`Auto`](Schedule::Auto) when unset and panicking loudly on any other
    /// value (fail-loud policy of [`gmc_trace::env`]).
    pub fn from_env() -> Self {
        gmc_trace::env::parse_or("GMC_SCHED", Schedule::Auto)
    }
}

impl std::str::FromStr for Schedule {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "static" => Ok(Schedule::Static),
            "auto" => Ok(Schedule::Auto),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Static => "static",
            Schedule::Auto => "auto",
        })
    }
}

/// Uniform morsel decomposition of an `n`-index grid at the requested
/// grain: returns `(effective_grain, morsel_count)`. The count is capped at
/// [`MAX_MORSELS`] (the grain grows to compensate) and the result depends
/// only on `(n, grain)` — never on the worker count.
pub(crate) fn uniform_morsels(n: usize, grain: usize) -> (usize, usize) {
    debug_assert!(n > 0);
    let grain = grain.max(1);
    let count = n.div_ceil(grain).clamp(1, MAX_MORSELS);
    let grain = n.div_ceil(count);
    (grain, n.div_ceil(grain))
}

/// Exact cost-cut rule shared by the sequential and chunk-parallel weighted
/// planners: boundary `k` (for `k` in `1..morsels`) is the smallest index
/// `i` whose *inclusive* cost prefix satisfies `prefix(i) * morsels >=
/// k * total`. Pure integer arithmetic (`u128` products), so the sequential
/// and parallel planners — and any worker count — agree bit for bit.
///
/// `emit(k, i)` is called exactly once per interior boundary, in increasing
/// `k`, by whichever pass observes the crossing.
#[inline]
pub(crate) fn emit_cost_crossings(
    morsels: usize,
    total: u128,
    prefix_before: u64,
    prefix_after: u64,
    index: usize,
    next_k: &mut usize,
    mut emit: impl FnMut(usize, usize),
) {
    debug_assert!(prefix_after >= prefix_before);
    let m = morsels as u128;
    while *next_k < morsels && u128::from(prefix_after) * m >= (*next_k as u128) * total {
        emit(*next_k, index + 1);
        *next_k += 1;
    }
}

/// First interior boundary `k` a chunk starting at exclusive prefix
/// `prefix_start` is responsible for: the smallest `k ≥ 1` with
/// `k * total > prefix_start * morsels` (crossings at or before the chunk
/// start belong to a predecessor).
#[inline]
pub(crate) fn first_crossing_k(morsels: usize, total: u128, prefix_start: u64) -> usize {
    let scaled = u128::from(prefix_start) * morsels as u128;
    ((scaled / total) as usize + 1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn schedule_parses_and_displays() {
        for (raw, want) in [
            ("static", Schedule::Static),
            ("STATIC", Schedule::Static),
            ("auto", Schedule::Auto),
        ] {
            assert_eq!(Schedule::from_str(raw), Ok(want), "{raw}");
            // Display round-trips through FromStr.
            assert_eq!(Schedule::from_str(&want.to_string()), Ok(want));
        }
        // The removed dynamic spellings fail instead of silently mapping
        // onto a surviving schedule.
        for bad in ["banana", "morsel", "morsel:64", "guided", "dynamic", ""] {
            assert!(Schedule::from_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn uniform_morsels_cover_and_cap() {
        for (n, grain) in [
            (1usize, 1usize),
            (10, 3),
            (2049, 1024),
            (1 << 20, 64),
            (7, 100),
        ] {
            let (g, count) = uniform_morsels(n, grain);
            assert!((1..=MAX_MORSELS).contains(&count), "n={n} grain={grain}");
            // Morsels tile 0..n exactly.
            assert!(g * count >= n && g * (count - 1) < n, "n={n} grain={grain}");
        }
        // Cap kicks in on huge grids with tiny grains.
        let (g, count) = uniform_morsels(100_000_000, 1);
        assert_eq!(count, MAX_MORSELS);
        assert!(g * count >= 100_000_000);
    }
}
