//! The solve service: a bounded priority queue feeding a pool of executor
//! slots, each owning one [`Executor`] and one share of a partitioned
//! [`DeviceMemory`] budget.
//!
//! Job lifecycle: submit (blocking backpressure or fail-fast) → queue →
//! worker pop (queue wait recorded) → cache lookup → admission control →
//! solve with a deadline [`CancelToken`] installed → cache insert →
//! handle fulfilment. Every accepted job is fulfilled exactly once, even
//! through shutdown (the queue drains before workers exit).

use crate::admission::{admit, Admission};
use crate::cache::{CachedSolve, ResultCache};
use crate::fingerprint::{config_fingerprint, graph_fingerprint};
use crate::queue::{JobQueue, QueueError};
use crate::stats::ServeStats;
use gmc_dpp::{CancelToken, Device, DeviceMemory, Executor};
use gmc_graph::Csr;
use gmc_mce::{LocalBitsMode, MaxCliqueSolver, SolveError, SolverConfig};
use gmc_trace::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service sizing, with every knob routed through the shared fail-loud
/// environment parser (`GMC_SERVE_POOL`, `GMC_SERVE_QUEUE`,
/// `GMC_SERVE_CACHE_MB`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Executor slots in the pool; the device budget is partitioned
    /// equally between them.
    pub pool: usize,
    /// Bounded queue depth; a full queue blocks [`SolveService::submit`].
    pub queue_depth: usize,
    /// Result-cache budget in bytes (LRU eviction past it).
    pub cache_bytes: usize,
    /// OS workers per slot executor.
    pub workers_per_slot: usize,
    /// Total device-memory budget split across the pool.
    pub device_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            pool: 2,
            queue_depth: 16,
            cache_bytes: 64 << 20,
            workers_per_slot: 1,
            device_bytes: usize::MAX,
        }
    }
}

impl ServeConfig {
    /// Reads `GMC_SERVE_POOL` / `GMC_SERVE_QUEUE` / `GMC_SERVE_CACHE_MB`
    /// (fail-loud: a set-but-invalid value panics naming the variable),
    /// with the struct defaults for unset variables.
    pub fn from_env() -> Self {
        let defaults = Self::default();
        Self {
            pool: gmc_trace::env::parse_or("GMC_SERVE_POOL", defaults.pool),
            queue_depth: gmc_trace::env::parse_or("GMC_SERVE_QUEUE", defaults.queue_depth),
            cache_bytes: gmc_trace::env::parse_or::<usize>("GMC_SERVE_CACHE_MB", 64) << 20,
            ..defaults
        }
    }

    /// Sets the pool size.
    pub fn pool(mut self, slots: usize) -> Self {
        self.pool = slots.max(1);
        self
    }

    /// Sets the queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the result-cache budget in bytes.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the per-slot executor worker count.
    pub fn workers_per_slot(mut self, workers: usize) -> Self {
        self.workers_per_slot = workers.max(1);
        self
    }

    /// Sets the total device budget partitioned across the pool.
    pub fn device_bytes(mut self, bytes: usize) -> Self {
        self.device_bytes = bytes;
        self
    }
}

/// One solve request.
#[derive(Debug, Clone)]
pub struct SolveJob {
    /// The graph to solve (shared, never copied into the service).
    pub graph: Arc<Csr>,
    /// Solver configuration; `schedule`/`faults`/`trace` are honoured but
    /// excluded from the cache key (they are result-invariant).
    pub config: SolverConfig,
    /// Higher runs earlier; FIFO within a priority.
    pub priority: u8,
    /// Absolute deadline: the solve is cancelled at the next launch
    /// boundary past it, surfacing `SolveError::Cancelled`.
    pub deadline: Option<Instant>,
}

impl SolveJob {
    /// A default-priority, no-deadline job with the default configuration.
    pub fn new(graph: Arc<Csr>) -> Self {
        Self {
            graph,
            config: SolverConfig::default(),
            priority: 0,
            deadline: None,
        }
    }

    /// Replaces the solver configuration.
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A served result: the (possibly cached) solve plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServedSolve {
    /// The solve outcome, shared with the cache.
    pub solve: Arc<CachedSolve>,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Whether admission rewrote the job to an auto-sized windowed solve.
    pub down_windowed: bool,
    /// Time the job waited in the queue before a worker picked it up.
    pub queue_wait: Duration,
}

/// Why a job was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the job: even a windowed working set is
    /// estimated not to fit the slot partition.
    Rejected {
        /// Estimated bytes of the smallest viable working set.
        estimated_bytes: usize,
        /// The slot's partition capacity.
        partition_bytes: usize,
    },
    /// Non-blocking submission found the queue full.
    QueueFull,
    /// The service is shutting down; no new jobs are accepted.
    Shutdown,
    /// The solve itself failed (OOM, fault-retry exhaustion, or — for
    /// deadline/explicit cancellation — `SolveError::Cancelled`).
    Solve(SolveError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected {
                estimated_bytes,
                partition_bytes,
            } => write!(
                f,
                "admission rejected the job: estimated {estimated_bytes} B exceeds the \
                 {partition_bytes} B slot partition"
            ),
            ServeError::QueueFull => write!(f, "job queue is full"),
            ServeError::Shutdown => write!(f, "service is shutting down"),
            ServeError::Solve(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

struct HandleCell {
    outcome: Mutex<Option<Result<ServedSolve, ServeError>>>,
    done: Condvar,
}

/// Waitable handle to an accepted job; fulfilled exactly once.
pub struct JobHandle {
    cell: Arc<HandleCell>,
}

impl JobHandle {
    /// Blocks until the job completes and returns its outcome.
    pub fn wait(self) -> Result<ServedSolve, ServeError> {
        let mut outcome = self.cell.outcome.lock().expect("handle lock poisoned");
        loop {
            if let Some(result) = outcome.take() {
                return result;
            }
            outcome = self.cell.done.wait(outcome).expect("handle lock poisoned");
        }
    }

    /// Non-blocking poll; `Some` at most once.
    pub fn try_wait(&self) -> Option<Result<ServedSolve, ServeError>> {
        self.cell
            .outcome
            .lock()
            .expect("handle lock poisoned")
            .take()
    }
}

fn fulfill(cell: &HandleCell, result: Result<ServedSolve, ServeError>) {
    *cell.outcome.lock().expect("handle lock poisoned") = Some(result);
    cell.done.notify_all();
}

struct QueuedJob {
    job: SolveJob,
    submitted_at: Instant,
    cell: Arc<HandleCell>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejections: AtomicU64,
    down_windows: AtomicU64,
    bitmap_demotions: AtomicU64,
    cancellations: AtomicU64,
    queue_full: AtomicU64,
    launches: AtomicU64,
    oracle_queries: AtomicU64,
    faults_injected: AtomicU64,
    faults_recovered: AtomicU64,
    solve_ns: AtomicU64,
}

struct ServiceInner {
    queue: JobQueue<QueuedJob>,
    cache: ResultCache,
    counters: Counters,
    /// One queue-wait histogram per slot, merged on snapshot — workers
    /// never contend on a shared lock in the pop path.
    wait_hists: Vec<Mutex<LogHistogram>>,
}

/// The multi-tenant solve service. Dropping it closes the queue, drains
/// outstanding jobs and joins the pool.
pub struct SolveService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
    partition_bytes: usize,
    started_at: Instant,
}

impl SolveService {
    /// Starts the pool: `config.pool` worker threads, each owning one
    /// executor and one equal share of the device budget.
    pub fn start(config: ServeConfig) -> Self {
        let pool = config.pool.max(1);
        let partitions = DeviceMemory::new(config.device_bytes).partition(pool);
        let partition_bytes = partitions[0].capacity();
        let inner = Arc::new(ServiceInner {
            queue: JobQueue::new(config.queue_depth),
            cache: ResultCache::new(config.cache_bytes),
            counters: Counters::default(),
            wait_hists: (0..pool).map(|_| Mutex::new(LogHistogram::new())).collect(),
        });
        let workers = partitions
            .into_iter()
            .enumerate()
            .map(|(slot, memory)| {
                let inner = Arc::clone(&inner);
                let device = Device::from_parts(Executor::new(config.workers_per_slot), memory);
                std::thread::Builder::new()
                    .name(format!("gmc-serve-slot-{slot}"))
                    .spawn(move || worker_loop(&inner, slot, &device))
                    .expect("failed to spawn serve worker thread")
            })
            .collect();
        Self {
            inner,
            workers,
            partition_bytes,
            started_at: Instant::now(),
        }
    }

    /// Device bytes available to each slot.
    pub fn partition_bytes(&self) -> usize {
        self.partition_bytes
    }

    /// Executor slots in the pool.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// Time since the service started (denominator for throughput).
    pub fn uptime(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    pub fn submit(&self, job: SolveJob) -> Result<JobHandle, ServeError> {
        self.enqueue(job, true)
    }

    /// Submits a job without blocking; [`ServeError::QueueFull`] when the
    /// queue is at capacity.
    pub fn try_submit(&self, job: SolveJob) -> Result<JobHandle, ServeError> {
        self.enqueue(job, false)
    }

    fn enqueue(&self, job: SolveJob, blocking: bool) -> Result<JobHandle, ServeError> {
        let cell = Arc::new(HandleCell {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let priority = job.priority;
        let queued = QueuedJob {
            job,
            submitted_at: Instant::now(),
            cell: Arc::clone(&cell),
        };
        let result = if blocking {
            self.inner.queue.submit(priority, queued)
        } else {
            self.inner.queue.try_submit(priority, queued)
        };
        match result {
            Ok(()) => {
                self.inner
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle { cell })
            }
            Err(QueueError::Full) => {
                self.inner
                    .counters
                    .queue_full
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::QueueFull)
            }
            Err(QueueError::Closed) => Err(ServeError::Shutdown),
        }
    }

    /// Snapshot of the service counters and the merged queue-wait
    /// distribution.
    pub fn stats(&self) -> ServeStats {
        let c = &self.inner.counters;
        let mut queue_wait = LogHistogram::new();
        for hist in &self.inner.wait_hists {
            queue_wait.merge(&hist.lock().expect("histogram lock poisoned"));
        }
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            rejections: c.rejections.load(Ordering::Relaxed),
            down_windows: c.down_windows.load(Ordering::Relaxed),
            bitmap_demotions: c.bitmap_demotions.load(Ordering::Relaxed),
            cancellations: c.cancellations.load(Ordering::Relaxed),
            queue_full: c.queue_full.load(Ordering::Relaxed),
            queue_wait,
            launches: c.launches.load(Ordering::Relaxed),
            oracle_queries: c.oracle_queries.load(Ordering::Relaxed),
            faults_injected: c.faults_injected.load(Ordering::Relaxed),
            faults_recovered: c.faults_recovered.load(Ordering::Relaxed),
            solve_time: Duration::from_nanos(c.solve_ns.load(Ordering::Relaxed)),
            cache_bytes: self.inner.cache.live_bytes(),
            cache_entries: self.inner.cache.len(),
        }
    }

    /// Closes the queue, drains every outstanding job and joins the pool;
    /// returns the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("serve worker panicked");
        }
        self.stats()
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            // A panicking worker already poisoned the run; don't
            // double-panic during drop.
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &ServiceInner, slot: usize, device: &Device) {
    while let Some(queued) = inner.queue.pop() {
        let wait = queued.submitted_at.elapsed();
        inner.wait_hists[slot]
            .lock()
            .expect("histogram lock poisoned")
            .record(wait.as_nanos().min(u128::from(u64::MAX)) as u64);
        serve_one(inner, device, queued, wait);
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}

fn serve_one(inner: &ServiceInner, device: &Device, queued: QueuedJob, wait: Duration) {
    let c = &inner.counters;
    let job = &queued.job;
    let key = (
        graph_fingerprint(&job.graph),
        config_fingerprint(&job.config),
    );

    // Cache hits are exact (solves are bit-deterministic) and effectively
    // free, so they are served even past the deadline.
    if let Some(cached) = inner.cache.get(key) {
        c.cache_hits.fetch_add(1, Ordering::Relaxed);
        fulfill(
            &queued.cell,
            Ok(ServedSolve {
                solve: cached,
                cache_hit: true,
                down_windowed: false,
                queue_wait: wait,
            }),
        );
        return;
    }
    c.cache_misses.fetch_add(1, Ordering::Relaxed);

    // Admission against this slot's partition, before any bytes charge.
    let mut config = job.config.clone();
    let mut down_windowed = false;
    match admit(&job.graph, &config, device.memory().capacity()) {
        Admission::Accept => {}
        Admission::DownWindow(window) => {
            // Bit-identity is preserved (enumerate-all windows union to
            // the full enumeration), so the cache key stays the job's
            // submitted fingerprint.
            config.window = Some(window);
            down_windowed = true;
            c.down_windows.fetch_add(1, Ordering::Relaxed);
        }
        Admission::DemotePersistentBits => {
            // The solve fits but the core bitmap's pre-charge does not;
            // the scalar walk produces the identical clique set, so the
            // cache key stays the job's submitted fingerprint.
            config.local_bits = LocalBitsMode::Off;
            c.bitmap_demotions.fetch_add(1, Ordering::Relaxed);
        }
        Admission::Reject {
            estimated_bytes,
            partition_bytes,
        } => {
            c.rejections.fetch_add(1, Ordering::Relaxed);
            fulfill(
                &queued.cell,
                Err(ServeError::Rejected {
                    estimated_bytes,
                    partition_bytes,
                }),
            );
            return;
        }
    }

    // Deadline enforcement: a token on the slot's executor, polled at
    // launch boundaries. Removed before the next job either way.
    if let Some(deadline) = job.deadline {
        device.set_cancel_token(Some(CancelToken::with_deadline(deadline)));
    }
    let solver = MaxCliqueSolver::with_config(device.clone(), config);
    let solve_start = Instant::now();
    let outcome = solver.solve(&job.graph);
    c.solve_ns.fetch_add(
        solve_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        Ordering::Relaxed,
    );
    device.set_cancel_token(None);

    match outcome {
        Ok(result) => {
            c.launches
                .fetch_add(result.stats.launches.launches, Ordering::Relaxed);
            c.oracle_queries
                .fetch_add(result.stats.oracle_queries, Ordering::Relaxed);
            c.faults_injected
                .fetch_add(result.stats.faults.injected(), Ordering::Relaxed);
            c.faults_recovered
                .fetch_add(result.stats.faults.recovered(), Ordering::Relaxed);
            let cached = Arc::new(CachedSolve {
                clique_number: result.clique_number,
                cliques: result.cliques,
                complete_enumeration: result.complete_enumeration,
            });
            inner.cache.insert(key, Arc::clone(&cached));
            fulfill(
                &queued.cell,
                Ok(ServedSolve {
                    solve: cached,
                    cache_hit: false,
                    down_windowed,
                    queue_wait: wait,
                }),
            );
        }
        Err(err) => {
            if matches!(err, SolveError::Cancelled(_)) {
                c.cancellations.fetch_add(1, Ordering::Relaxed);
            }
            debug_assert_eq!(
                device.memory().live(),
                0,
                "a failed solve must release every device charge"
            );
            fulfill(&queued.cell, Err(ServeError::Solve(err)));
        }
    }
}
