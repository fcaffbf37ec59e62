use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters describing how much virtual-GPU work an [`Executor`] has
/// performed. The experiment harness reads these to report kernel-launch
/// counts and total virtual-thread volume alongside wall-clock numbers.
///
/// Aggregates live in lock-free atomics; the per-kernel breakdown sits
/// behind a mutex, which is acceptable because a launch is micro-seconds of
/// work and the map is touched once per launch.
///
/// [`Executor`]: crate::Executor
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub launches: AtomicU64,
    pub virtual_threads: AtomicU64,
    pub fused_launches: AtomicU64,
    per_kernel: Mutex<BTreeMap<&'static str, KernelStats>>,
}

impl StatsCells {
    /// Records one launch of `kernel` over `virtual_threads` indices. The
    /// aggregates move before the per-kernel row, which is updated under a
    /// single lock whether or not the launch was fused.
    pub(crate) fn record(&self, kernel: &'static str, virtual_threads: usize, fused: bool) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.virtual_threads
            .fetch_add(virtual_threads as u64, Ordering::Relaxed);
        if fused {
            self.fused_launches.fetch_add(1, Ordering::Relaxed);
        }
        let mut map = self
            .per_kernel
            .lock()
            .expect("no thread panics while holding the per-kernel stats lock");
        let cell = map.entry(kernel).or_default();
        cell.launches += 1;
        cell.virtual_threads += virtual_threads as u64;
        cell.fused_launches += u64::from(fused);
    }

    pub(crate) fn snapshot(&self) -> LaunchStats {
        // Lock the map first so the per-kernel rows never sum to more than
        // the aggregate counters read after it.
        let per_kernel: Vec<(&'static str, KernelStats)> = self
            .per_kernel
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| (*name, *cell))
            .collect();
        LaunchStats {
            launches: self.launches.load(Ordering::Relaxed),
            virtual_threads: self.virtual_threads.load(Ordering::Relaxed),
            fused_launches: self.fused_launches.load(Ordering::Relaxed),
            per_kernel,
        }
    }

    pub(crate) fn reset(&self) {
        self.launches.store(0, Ordering::Relaxed);
        self.virtual_threads.store(0, Ordering::Relaxed);
        self.fused_launches.store(0, Ordering::Relaxed);
        self.per_kernel.lock().unwrap().clear();
    }
}

/// Lock-free accumulation cells behind [`ScheduleStats`]. Written once per
/// pooled launch by the launching thread (after the closing barrier), so
/// relaxed ordering suffices.
#[derive(Debug, Default)]
pub(crate) struct ScheduleCells {
    pub pool_launches: AtomicU64,
    pub makespan_ns: AtomicU64,
    pub mean_chunk_ns: AtomicU64,
}

impl ScheduleCells {
    /// Records one pooled launch's balance measurement.
    pub(crate) fn record(&self, makespan_ns: u64, mean_chunk_ns: u64) {
        self.pool_launches.fetch_add(1, Ordering::Relaxed);
        self.makespan_ns.fetch_add(makespan_ns, Ordering::Relaxed);
        self.mean_chunk_ns
            .fetch_add(mean_chunk_ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ScheduleStats {
        ScheduleStats {
            pool_launches: self.pool_launches.load(Ordering::Relaxed),
            makespan_ns: self.makespan_ns.load(Ordering::Relaxed),
            mean_chunk_ns: self.mean_chunk_ns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.pool_launches.store(0, Ordering::Relaxed);
        self.makespan_ns.store(0, Ordering::Relaxed);
        self.mean_chunk_ns.store(0, Ordering::Relaxed);
    }
}

/// Load-balance counters for an [`Executor`]'s pooled launches, snapshot
/// via [`Executor::schedule_stats`]. Every pooled launch maps one
/// contiguous chunk of its grid onto each worker.
///
/// Kept separate from [`LaunchStats`] on purpose: launch counts are a
/// *structural* property of the algorithm (identical across worker counts
/// and machines, and asserted so by the determinism suite), whereas these
/// counters measure *how* the pool executed. `pool_launches` is
/// deterministic for a fixed worker count and sequential-grid limit; the
/// timing fields are not.
///
/// [`Executor`]: crate::Executor
/// [`Executor::schedule_stats`]: crate::Executor::schedule_stats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleStats {
    /// Launches dispatched to the worker pool (grids past the sequential
    /// limit on a multi-worker executor); the rest ran inline.
    pub pool_launches: u64,
    /// Sum over pooled launches of the slowest engaged worker's busy time.
    pub makespan_ns: u64,
    /// Sum over pooled launches of the *mean* engaged-worker busy time. The
    /// ratio [`ScheduleStats::imbalance`] of makespan to this is the
    /// classic load-imbalance factor (1.0 = perfectly level).
    pub mean_chunk_ns: u64,
}

impl ScheduleStats {
    /// Counter deltas between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &ScheduleStats) -> ScheduleStats {
        ScheduleStats {
            pool_launches: self.pool_launches.saturating_sub(earlier.pool_launches),
            makespan_ns: self.makespan_ns.saturating_sub(earlier.makespan_ns),
            mean_chunk_ns: self.mean_chunk_ns.saturating_sub(earlier.mean_chunk_ns),
        }
    }

    /// Aggregate makespan-vs-mean-chunk load-imbalance factor across the
    /// recorded pooled launches: `1.0` means every worker finished
    /// together; `2.0` means the critical worker ran twice as long as the
    /// average. `0.0` when nothing was pooled.
    pub fn imbalance(&self) -> f64 {
        if self.mean_chunk_ns == 0 {
            0.0
        } else {
            self.makespan_ns as f64 / self.mean_chunk_ns as f64
        }
    }
}

/// Launch counters for one named kernel (see [`LaunchStats::per_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Launches of this kernel.
    pub launches: u64,
    /// Total virtual threads across those launches.
    pub virtual_threads: u64,
    /// How many of those launches were fused (also counted in `launches`).
    pub fused_launches: u64,
}

impl KernelStats {
    fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            launches: self.launches.saturating_sub(earlier.launches),
            virtual_threads: self.virtual_threads.saturating_sub(earlier.virtual_threads),
            fused_launches: self.fused_launches.saturating_sub(earlier.fused_launches),
        }
    }

    fn is_zero(&self) -> bool {
        *self == KernelStats::default()
    }
}

/// Snapshot of an executor's launch counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaunchStats {
    /// Number of bulk-synchronous launches (one per "kernel").
    pub launches: u64,
    /// Total virtual threads across all launches (one per element).
    pub virtual_threads: u64,
    /// Launches marked [`Launch::fused`] — kernels that fold work of
    /// several logical pipeline stages into one launch (also counted in
    /// `launches`).
    ///
    /// [`Launch::fused`]: crate::Launch::fused
    pub fused_launches: u64,
    /// Per-kernel breakdown, sorted by the [`Launch`](crate::Launch)
    /// kernel name.
    pub per_kernel: Vec<(&'static str, KernelStats)>,
}

impl LaunchStats {
    /// Counter deltas between two snapshots (`self` taken after `earlier`).
    /// Kernels whose counters did not move are omitted from the breakdown.
    pub fn since(&self, earlier: &LaunchStats) -> LaunchStats {
        let earlier_of = |name: &str| {
            earlier
                .per_kernel
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .unwrap_or_default()
        };
        let per_kernel = self
            .per_kernel
            .iter()
            .map(|(name, stats)| (*name, stats.since(&earlier_of(name))))
            .filter(|(_, delta)| !delta.is_zero())
            .collect();
        LaunchStats {
            launches: self.launches.saturating_sub(earlier.launches),
            virtual_threads: self.virtual_threads.saturating_sub(earlier.virtual_threads),
            fused_launches: self.fused_launches.saturating_sub(earlier.fused_launches),
            per_kernel,
        }
    }

    /// The counters for one kernel name (all-zero if it never launched).
    pub fn kernel(&self, name: &str) -> KernelStats {
        self.per_kernel
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_kernel_rows_sum_to_the_aggregates() {
        let cells = StatsCells::default();
        cells.record("scan", 100, false);
        cells.record("scan", 50, false);
        cells.record("expand", 200, true);
        let snap = cells.snapshot();
        assert_eq!(snap.launches, 3);
        assert_eq!(snap.virtual_threads, 350);
        assert_eq!(snap.fused_launches, 1);
        assert_eq!(snap.per_kernel.len(), 2);
        assert_eq!(snap.kernel("scan").launches, 2);
        assert_eq!(snap.kernel("scan").virtual_threads, 150);
        assert_eq!(snap.kernel("expand").fused_launches, 1);
        assert_eq!(snap.kernel("absent"), KernelStats::default());
        let total: u64 = snap.per_kernel.iter().map(|(_, s)| s.launches).sum();
        assert_eq!(total, snap.launches);
    }

    #[test]
    fn since_diffs_per_kernel_and_drops_idle_rows() {
        let cells = StatsCells::default();
        cells.record("scan", 100, false);
        cells.record("select", 10, false);
        let before = cells.snapshot();
        cells.record("scan", 25, false);
        let delta = cells.snapshot().since(&before);
        assert_eq!(delta.launches, 1);
        assert_eq!(delta.virtual_threads, 25);
        assert_eq!(
            delta.per_kernel,
            vec![(
                "scan",
                KernelStats {
                    launches: 1,
                    virtual_threads: 25,
                    fused_launches: 0,
                }
            )]
        );
    }
}
