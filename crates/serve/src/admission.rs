//! Admission control: decide per job whether its solve can fit the
//! executor slot's memory partition before any device bytes are charged.
//!
//! The estimate reuses the repo's structural bounds: the 2-clique list
//! costs 8 bytes per oriented edge (two `u32` arrays), and the k-core
//! degeneracy `d` bounds how many further levels the breadth-first
//! expansion can populate (a clique has at most `d + 1` vertices). The
//! coarse worst-case model charges the 2-clique list once per potential
//! level. Jobs whose full-BFS estimate exceeds the partition are
//! *down-windowed* instead of rejected whenever a single auto-sized window
//! fits — with `enumerate_all` kept on, so the windowed result is
//! bit-identical to the full solve it replaces. Only jobs whose bare
//! 2-clique list cannot fit a window are rejected outright.

use gmc_graph::{kcore, CoreBitmap, Csr};
use gmc_mce::{LocalBitsMode, SolverConfig, WindowConfig};

/// Bytes per 2-clique entry: one `u32` vertex id + one `u32` sublist id.
const ENTRY_BYTES: usize = 8;

/// The auto window sizer budgets a quarter of the device capacity per
/// window (see `gmc_mce`'s windowed search), so a down-windowed job needs
/// its largest working set to fit within that fraction.
const WINDOW_FRACTION: usize = 4;

/// The admission verdict for one job against one memory partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The solve is estimated to fit as configured.
    Accept,
    /// The full breadth-first solve is estimated not to fit, but an
    /// auto-sized windowed solve does; run with this window configuration
    /// instead. `enumerate_all` is set, so the result is bit-identical to
    /// the configured full solve.
    DownWindow(WindowConfig),
    /// The solve itself fits, but adding a forced-`On` core bitmap's
    /// pre-charge would not: run with the scalar walk (`Off`) instead of
    /// rejecting. Output is bit-identical — only probe accounting changes.
    DemotePersistentBits,
    /// Even a single window cannot fit the partition; the job is refused
    /// without charging any device memory.
    Reject {
        /// Estimated bytes of the smallest viable working set.
        estimated_bytes: usize,
        /// The slot's partition capacity.
        partition_bytes: usize,
    },
}

/// Estimated bytes of the 2-clique list (the floor any solve pays).
pub fn two_clique_bytes(graph: &Csr) -> usize {
    graph.num_edges().saturating_mul(ENTRY_BYTES)
}

/// Coarse worst-case estimate for the full breadth-first solve: the
/// 2-clique list once per level the degeneracy admits.
pub fn full_solve_estimate(graph: &Csr, degeneracy: u32) -> usize {
    let levels = (degeneracy as usize).saturating_sub(1).max(1);
    two_clique_bytes(graph).saturating_mul(levels)
}

/// Bytes the core bitmap would pre-charge on this partition, or 0 when the
/// solver would not build it. Admission runs before
/// setup pruning, so the core size is bounded conservatively by the whole
/// vertex set (`n_core = n`): `n²/8` matrix bytes plus `4n` for the
/// renumber table. `Auto` mirrors the solver's own gate — the
/// footprint must fit within the smaller of 16 MiB and a quarter of the
/// partition — so admission never charges for a bitmap the solver would
/// decline to build.
pub fn core_bitmap_bytes(graph: &Csr, config: &SolverConfig, partition_bytes: usize) -> usize {
    if !config.fused {
        return 0;
    }
    let n = graph.num_vertices();
    let footprint = CoreBitmap::footprint_for(n, n);
    match config.local_bits {
        LocalBitsMode::On => footprint,
        LocalBitsMode::Auto if footprint <= (16 << 20).min(partition_bytes / 4) => footprint,
        _ => 0,
    }
}

/// Decides whether `graph` × `config` is admitted to a slot with
/// `partition_bytes` of device memory.
pub fn admit(graph: &Csr, config: &SolverConfig, partition_bytes: usize) -> Admission {
    if partition_bytes == usize::MAX {
        return Admission::Accept;
    }
    // An explicitly windowed job already sizes its working set to the
    // budget; window-level OOM handling (split/recurse) takes it from
    // there. If the core bitmap then oversizes the window budget, the
    // solver's own degrade ladder drops it to the scalar walk.
    if config.window.is_some() {
        return Admission::Accept;
    }
    let degeneracy = kcore::degeneracy(graph);
    let full = full_solve_estimate(graph, degeneracy);
    let bitmap = core_bitmap_bytes(graph, config, partition_bytes);
    if full.saturating_add(bitmap) <= partition_bytes {
        return Admission::Accept;
    }
    if bitmap > 0 && full <= partition_bytes {
        // Only the bitmap's pre-charge oversizes the partition. An `On`
        // job is demoted to the scalar walk up front so the solve never
        // risks the build-then-degrade round trip; an `Auto` job is simply
        // accepted — its runtime gate and fault ladder self-heal to the
        // scalar walk on their own.
        return match config.local_bits {
            LocalBitsMode::On => Admission::DemotePersistentBits,
            _ => Admission::Accept,
        };
    }
    let floor = two_clique_bytes(graph);
    if floor.saturating_mul(WINDOW_FRACTION) <= partition_bytes {
        // Auto window sizing against the partition, ties kept so the
        // union of window results is exactly the full enumeration, and
        // one level of recursive splitting in reserve for a window whose
        // subtree still outgrows the estimate.
        let mut window = WindowConfig::auto().recursive(2);
        window.enumerate_all = true;
        return Admission::DownWindow(window);
    }
    Admission::Reject {
        estimated_bytes: floor.saturating_mul(WINDOW_FRACTION),
        partition_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    #[test]
    fn small_graph_is_accepted_outright() {
        let graph = generators::gnp(100, 0.1, 3);
        let config = SolverConfig::default();
        assert_eq!(admit(&graph, &config, 64 << 20), Admission::Accept);
        assert_eq!(admit(&graph, &config, usize::MAX), Admission::Accept);
    }

    #[test]
    fn tight_partition_down_windows_with_enumeration_preserved() {
        let graph = generators::gnp(400, 0.3, 5);
        let config = SolverConfig::default();
        let floor = two_clique_bytes(&graph);
        let degeneracy = kcore::degeneracy(&graph);
        // Big enough for a window, too small for the full estimate.
        let partition = floor * WINDOW_FRACTION + 1024;
        assert!(full_solve_estimate(&graph, degeneracy) > partition);
        match admit(&graph, &config, partition) {
            Admission::DownWindow(w) => {
                assert!(w.enumerate_all, "down-windowing must keep enumeration");
                assert_eq!(w.size, 0, "auto-sized against the partition");
                assert!(w.max_depth > 1, "recursive split held in reserve");
            }
            other => panic!("expected DownWindow, got {other:?}"),
        }
    }

    #[test]
    fn hopeless_partition_rejects_without_charging() {
        let graph = generators::gnp(400, 0.3, 5);
        let config = SolverConfig::default();
        match admit(&graph, &config, 4096) {
            Admission::Reject {
                estimated_bytes,
                partition_bytes,
            } => {
                assert!(estimated_bytes > partition_bytes);
                assert_eq!(partition_bytes, 4096);
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn persistent_bitmap_oversize_demotes_instead_of_rejecting() {
        let graph = generators::gnp(400, 0.3, 5);
        let degeneracy = kcore::degeneracy(&graph);
        let full = full_solve_estimate(&graph, degeneracy);
        let forced = SolverConfig {
            local_bits: LocalBitsMode::On,
            ..SolverConfig::default()
        };
        let bitmap = core_bitmap_bytes(&graph, &forced, usize::MAX - 1);
        assert!(bitmap > 0, "forced-on jobs always charge the bitmap");
        // The solve fits on its own but not together with the bitmap.
        let partition = full + bitmap / 2;
        assert_eq!(
            admit(&graph, &forced, partition),
            Admission::DemotePersistentBits
        );
        // With headroom for both, the job is accepted as configured.
        assert_eq!(admit(&graph, &forced, full + bitmap), Admission::Accept);
        // A scalar-walk job never charges the bitmap.
        let off = SolverConfig {
            local_bits: LocalBitsMode::Off,
            ..SolverConfig::default()
        };
        assert_eq!(core_bitmap_bytes(&graph, &off, usize::MAX - 1), 0);
        assert_eq!(admit(&graph, &off, partition), Admission::Accept);
        // An `Auto` job on the same tight partition is accepted outright:
        // the solver's own gate and degrade ladder handle the shortfall.
        let auto = SolverConfig::default();
        assert_eq!(admit(&graph, &auto, partition), Admission::Accept);
    }

    #[test]
    fn unfused_jobs_never_charge_a_bitmap() {
        let graph = generators::gnp(400, 0.3, 5);
        let config = SolverConfig {
            fused: false,
            local_bits: LocalBitsMode::On,
            ..SolverConfig::default()
        };
        assert_eq!(core_bitmap_bytes(&graph, &config, 64 << 20), 0);
    }

    #[test]
    fn explicitly_windowed_jobs_bypass_the_estimate() {
        let graph = generators::gnp(400, 0.3, 5);
        let config = SolverConfig {
            window: Some(WindowConfig::auto()),
            ..SolverConfig::default()
        };
        assert_eq!(admit(&graph, &config, 1 << 16), Admission::Accept);
    }
}
