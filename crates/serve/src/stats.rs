//! Service-level statistics: per-job `SolveStats` / `FaultStats`
//! aggregated across the executor pool, plus queue-wait percentiles from
//! merged per-worker [`LogHistogram`]s.

use gmc_trace::LogHistogram;
use std::time::Duration;

/// Snapshot of everything the service has done since it started.
#[derive(Clone, Default)]
pub struct ServeStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs fully processed (any outcome).
    pub completed: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs that went to an executor slot.
    pub cache_misses: u64,
    /// Jobs refused by admission control.
    pub rejections: u64,
    /// Jobs admission rewrote to an auto-sized windowed solve.
    pub down_windows: u64,
    /// Forced-`On` jobs admission demoted from the core bitmap to the
    /// scalar walk because only the bitmap's pre-charge oversized the
    /// partition.
    pub bitmap_demotions: u64,
    /// Jobs that ended in `SolveError::Cancelled` (deadline or explicit).
    pub cancellations: u64,
    /// Non-blocking submissions refused because the queue was full.
    pub queue_full: u64,
    /// Queue-wait distribution in nanoseconds (submit → worker pop),
    /// merged across the pool's per-worker histograms.
    pub queue_wait: LogHistogram,
    /// Executor launches summed over all served solves.
    pub launches: u64,
    /// Edge-oracle queries summed over all served solves.
    pub oracle_queries: u64,
    /// Injected faults summed over all served solves (`GMC_FAULTS` runs).
    pub faults_injected: u64,
    /// Recovered faults summed over all served solves.
    pub faults_recovered: u64,
    /// Total time workers spent inside `solve()`.
    pub solve_time: Duration,
    /// Bytes currently held by the result cache.
    pub cache_bytes: usize,
    /// Entries currently held by the result cache.
    pub cache_entries: usize,
}

impl ServeStats {
    /// Cache hit rate over completed lookups (0 when nothing completed).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Queue-wait quantile in nanoseconds (see [`LogHistogram::quantile`]).
    pub fn queue_wait_ns(&self, q: f64) -> u64 {
        self.queue_wait.quantile(q)
    }

    /// Completed jobs per second over `wall` (0 for a zero wall clock).
    pub fn throughput(&self, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

impl std::fmt::Debug for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeStats")
            .field("submitted", &self.submitted)
            .field("completed", &self.completed)
            .field("cache_hits", &self.cache_hits)
            .field("cache_misses", &self.cache_misses)
            .field("rejections", &self.rejections)
            .field("down_windows", &self.down_windows)
            .field("bitmap_demotions", &self.bitmap_demotions)
            .field("cancellations", &self.cancellations)
            .field("queue_full", &self.queue_full)
            .field("queue_wait_p50_ns", &self.queue_wait.quantile(0.5))
            .field("queue_wait_p99_ns", &self.queue_wait.quantile(0.99))
            .field("launches", &self.launches)
            .field("oracle_queries", &self.oracle_queries)
            .field("cache_entries", &self.cache_entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_throughput_handle_zero() {
        let stats = ServeStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.throughput(Duration::ZERO), 0.0);
        let stats = ServeStats {
            cache_hits: 3,
            cache_misses: 1,
            completed: 4,
            ..ServeStats::default()
        };
        assert_eq!(stats.hit_rate(), 0.75);
        assert_eq!(stats.throughput(Duration::from_secs(2)), 2.0);
    }
}
