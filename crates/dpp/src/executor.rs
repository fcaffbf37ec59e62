use crate::cancel::{CancelToken, Cancelled};
use crate::fault::{FaultInjector, LaunchError};
use crate::sched::{self, Schedule};
use crate::stats::{LaunchStats, ScheduleCells, ScheduleStats, StatsCells};
use gmc_trace::{SpanGuard, Tracer};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default for [`Executor::sequential_grid_limit`]: launches below this
/// element count run inline on the calling thread. Real GPU launches have a
/// fixed overhead that dwarfs tiny grids; here the analogue is condvar
/// wake-up latency, so small grids are executed sequentially. Results are
/// identical either way. The value was picked from a `micro_primitives`
/// sweep (`GMC_SEQ_GRID` ∈ {512, 1024, 2048, 4096, 8192} over the scan and
/// select groups): dispatch overhead still beats the pool below ~2k elements
/// on the benchmark machine, and larger limits start serialising grids that
/// would profit from workers.
pub const DEFAULT_SEQUENTIAL_GRID_LIMIT: usize = 2048;

/// Initial per-executor limit: the `GMC_SEQ_GRID` environment variable when
/// set, otherwise [`DEFAULT_SEQUENTIAL_GRID_LIMIT`]. An unparsable value
/// panics with a clear message (see [`gmc_trace::env`]) instead of being
/// silently ignored.
fn initial_sequential_grid_limit() -> usize {
    gmc_trace::env::parse_or("GMC_SEQ_GRID", DEFAULT_SEQUENTIAL_GRID_LIMIT)
}

/// A task dispatched to the pool: invoked once per worker with the worker's
/// index. Stored as a raw fat pointer so that borrowed captures are allowed;
/// the launcher blocks until every worker has finished, which keeps the
/// borrow alive for the full execution.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` and the launch protocol guarantees it
// outlives every use (the launching thread blocks until `pending == 0`).
unsafe impl Send for TaskPtr {}

struct PoolState {
    task: Option<TaskPtr>,
    /// Incremented per launch; workers run each generation exactly once.
    generation: u64,
    /// Workers that have not yet finished the current generation.
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    work_done: Condvar,
    panicked: AtomicBool,
}

impl PoolShared {
    /// Locks the pool state. Worker panics are caught around the task call
    /// (never while the lock is held), so poisoning can only come from a
    /// panic in the launcher's own bookkeeping — recovering the guard is
    /// safe and keeps the pool usable after a propagated kernel panic.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Per-worker balance measurement for one pooled launch: how many work
/// units (static chunks or dynamic morsels) the worker executed and how
/// long it was busy. Written only by the owning worker during a launch and
/// read by the launcher after the closing barrier, so relaxed atomics
/// suffice; slots are reset by the launcher before each pooled launch.
#[derive(Debug, Default)]
struct BalanceSlot {
    claims: AtomicU64,
    busy_ns: AtomicU64,
}

/// Grid size at which the weighted-launch boundary planner switches from a
/// single sequential pass to the chunk-parallel two-phase shape. Both
/// planners implement the same exact integer crossing rule, so the switch
/// (and the worker count) never changes the cut.
const WEIGHT_PLAN_PARALLEL_THRESHOLD: usize = 1 << 16;

/// A launch's morsel decomposition, as consumed by the dynamic claim loop.
/// The uniform fallback stays implicit (no allocation); cost-cut
/// decompositions carry explicit boundaries where `bounds[m]..bounds[m + 1]`
/// is morsel `m`.
enum Boundaries<'a> {
    Uniform { grain: usize, count: usize },
    Explicit(&'a [usize]),
}

impl Boundaries<'_> {
    #[inline]
    fn count(&self) -> usize {
        match self {
            Boundaries::Uniform { count, .. } => *count,
            Boundaries::Explicit(bounds) => bounds.len() - 1,
        }
    }

    #[inline]
    fn range(&self, m: usize, n: usize) -> Range<usize> {
        match self {
            Boundaries::Uniform { grain, .. } => {
                let start = m * grain;
                start..(start + grain).min(n)
            }
            Boundaries::Explicit(bounds) => bounds[m]..bounds[m + 1],
        }
    }
}

/// One bulk-synchronous kernel launch, as handed to [`Executor::run`] and
/// the other entry points: the kernel name (the key of its
/// [`LaunchStats::per_kernel`] row and of its trace span), the grid size
/// `n`, a fused flag, and optional per-index cost hints.
///
/// ```
/// use gmc_dpp::{Executor, Launch};
///
/// let exec = Executor::new(2);
/// let lens = [3u64, 0, 7, 1];
/// let cost = |i: usize| lens[i];
/// let launch = Launch::new("double_lens", lens.len()).weighted(&cost);
/// assert_eq!(exec.map(launch, |i| 2 * lens[i]), [6, 0, 14, 2]);
/// assert_eq!(exec.stats().kernel("double_lens").launches, 1);
/// ```
#[derive(Clone, Copy)]
pub struct Launch<'a> {
    name: &'static str,
    n: usize,
    fused: bool,
    cost: Option<&'a (dyn Fn(usize) -> u64 + Sync)>,
}

impl<'a> Launch<'a> {
    /// A launch of `n` virtual threads of kernel `name`, unfused and
    /// unweighted.
    pub fn new(name: &'static str, n: usize) -> Self {
        Self {
            name,
            n,
            fused: false,
            cost: None,
        }
    }

    /// Marks the launch as *fused* — a kernel that folds the work of
    /// several logical pipeline stages (e.g. count + emit) into one launch —
    /// so it is also counted in [`LaunchStats::fused_launches`]. Dispatch is
    /// unchanged.
    pub fn fused(self) -> Self {
        Self {
            fused: true,
            ..self
        }
    }

    /// Attaches per-index cost hints: `cost(i)` is the relative expense of
    /// virtual thread `i` (candidate-list length, CSR degree, …). It may be
    /// called more than once per index and must be cheap and pure. Under
    /// [`Schedule::Auto`] a pooled weighted launch cuts its morsels where
    /// the summed cost crosses equal fractions of the total, so one
    /// expensive stretch of indices spreads over many claimable morsels
    /// instead of serialising one worker. Results are bit-identical to the
    /// unweighted launch under every schedule and worker count.
    pub fn weighted(self, cost: &'a (dyn Fn(usize) -> u64 + Sync)) -> Self {
        Self {
            cost: Some(cost),
            ..self
        }
    }
}

struct ExecutorInner {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    num_workers: usize,
    stats: StatsCells,
    /// Whether the active [`Schedule`] is [`Schedule::Static`], a lock-free
    /// cell so the dispatch fast path is one relaxed load (see
    /// [`Executor::schedule`]).
    schedule_static: AtomicBool,
    /// Scheduling/balance counters (see [`Executor::schedule_stats`]).
    sched_stats: ScheduleCells,
    /// One balance slot per worker, reused across launches (pooled launches
    /// never overlap — `run_on_pool` asserts `pending == 0`).
    balance: Vec<BalanceSlot>,
    /// Simulated fixed cost per launch, in nanoseconds (see
    /// [`Executor::set_launch_overhead`]).
    launch_overhead_ns: std::sync::atomic::AtomicU64,
    /// Grids at or below this size run inline (see
    /// [`Executor::set_sequential_grid_limit`]).
    sequential_grid_limit: AtomicUsize,
    /// Recording handle for launch spans (see [`Executor::set_tracer`]).
    tracer: RwLock<Tracer>,
    /// Cache of "is a live tracer installed": the disabled-tracing fast
    /// path is this one relaxed load and a branch per launch.
    trace_on: AtomicBool,
    /// Armed fault injector (see [`Executor::set_fault_injector`]);
    /// `fault_on` caches whether it can fail launches so the fault-free
    /// path of [`Executor::try_run`] is one relaxed load and a branch.
    fault: RwLock<Option<FaultInjector>>,
    fault_on: AtomicBool,
    /// Installed cancellation token (see [`Executor::set_cancel_token`]);
    /// `cancel_on` caches whether one is present so the uncancellable path
    /// of [`Executor::check_cancelled`] is one relaxed load and a branch.
    cancel: RwLock<Option<CancelToken>>,
    cancel_on: AtomicBool,
}

/// Bulk-synchronous parallel executor: the reproduction's stand-in for a GPU.
///
/// Each launch models one CUDA kernel: a grid of `n` virtual threads, each
/// running the same closure on its own index, with an implicit barrier at the
/// end. Virtual threads are mapped onto a persistent pool of OS workers in
/// contiguous chunks, so output is deterministic and independent of the
/// worker count.
///
/// Cloning an `Executor` is cheap and shares the pool. The pool runs one
/// launch at a time: a pooled launch issued from a second thread while
/// another is in flight panics. Grids that run inline never touch the pool.
/// Solvers that run concurrently therefore need one executor each, as the
/// slots of a `gmc-serve` pool have.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<ExecutorInner>,
}

impl Executor {
    /// Creates an executor with `num_workers` OS worker threads (minimum 1).
    pub fn new(num_workers: usize) -> Self {
        let num_workers = num_workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                task: None,
                generation: 0,
                pending: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let workers = (0..num_workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gmc-dpp-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("failed to spawn dpp worker thread")
            })
            .collect();
        Self {
            inner: Arc::new(ExecutorInner {
                shared,
                workers,
                num_workers,
                stats: StatsCells::default(),
                schedule_static: AtomicBool::new(Schedule::from_env() == Schedule::Static),
                sched_stats: ScheduleCells::default(),
                balance: (0..num_workers).map(|_| BalanceSlot::default()).collect(),
                launch_overhead_ns: std::sync::atomic::AtomicU64::new(0),
                sequential_grid_limit: AtomicUsize::new(initial_sequential_grid_limit()),
                tracer: RwLock::new(Tracer::disabled()),
                trace_on: AtomicBool::new(false),
                fault: RwLock::new(None),
                fault_on: AtomicBool::new(false),
                cancel: RwLock::new(None),
                cancel_on: AtomicBool::new(false),
            }),
        }
    }

    /// Creates an executor sized to the machine's available parallelism.
    pub fn with_default_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        Self::new(n)
    }

    /// Number of OS worker threads backing the pool.
    pub fn num_workers(&self) -> usize {
        self.inner.num_workers
    }

    /// Snapshot of launch counters accumulated so far.
    pub fn stats(&self) -> LaunchStats {
        self.inner.stats.snapshot()
    }

    /// Resets launch counters (including [`Executor::schedule_stats`]) to
    /// zero.
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
        self.inner.sched_stats.reset();
    }

    /// Selects how pooled launches map virtual threads onto workers (see
    /// [`Schedule`]). Defaults to [`Schedule::Auto`], overridable at
    /// executor construction via the `GMC_SCHED` environment variable.
    /// Results are bit-identical under every schedule; this only tunes
    /// load balance versus dispatch overhead.
    ///
    /// Grids at or below [`Executor::sequential_grid_limit`] (and every
    /// launch on a single-worker executor) run inline regardless of the
    /// schedule — the inline check precedes the schedule load, so small
    /// grids never pay any scheduling cost.
    pub fn set_schedule(&self, schedule: Schedule) {
        self.inner
            .schedule_static
            .store(schedule == Schedule::Static, Ordering::Relaxed);
    }

    /// The active launch schedule — the one relaxed load the pooled
    /// dispatch path pays per launch.
    #[inline]
    pub fn schedule(&self) -> Schedule {
        if self.inner.schedule_static.load(Ordering::Relaxed) {
            Schedule::Static
        } else {
            Schedule::Auto
        }
    }

    /// Snapshot of scheduling and load-balance counters accumulated so far
    /// (see [`ScheduleStats`]); reset together with [`Executor::reset_stats`].
    pub fn schedule_stats(&self) -> ScheduleStats {
        self.inner.sched_stats.snapshot()
    }

    /// Installs a tracer: every subsequent launch records one span (kernel
    /// name, grid size, chunk count, inline-vs-pool path) into it. Pass
    /// [`Tracer::disabled`] to stop recording. With no (or a disabled)
    /// tracer installed, the per-launch cost is a single relaxed atomic
    /// load.
    pub fn set_tracer(&self, tracer: Tracer) {
        let on = tracer.is_enabled();
        *self.inner.tracer.write().unwrap() = tracer;
        self.inner.trace_on.store(on, Ordering::Relaxed);
    }

    /// The installed tracer (disabled when none was set). Primitives and
    /// solver phases use this to nest their own spans around launches.
    pub fn tracer(&self) -> Tracer {
        if !self.inner.trace_on.load(Ordering::Relaxed) {
            return Tracer::disabled();
        }
        self.inner.tracer.read().unwrap().clone()
    }

    /// Arms (or with `None` disarms) fault injection for the fallible
    /// launches [`Executor::try_run`] and [`Executor::try_map`]: each first
    /// rolls the injector's launch fault and returns [`LaunchError`] —
    /// without running the kernel — when it fires. The infallible entry
    /// points never consult the injector, so unplumbed call sites cannot
    /// panic while faults are armed; fault coverage is exactly the sites
    /// that call a `try_` entry point.
    pub fn set_fault_injector(&self, injector: Option<FaultInjector>) {
        let on = injector
            .as_ref()
            .is_some_and(|inj| inj.plan().launch_rate > 0.0);
        *self.inner.fault.write().unwrap() = injector;
        self.inner.fault_on.store(on, Ordering::Relaxed);
    }

    /// Whether a launch-faulting injector is armed — the exact relaxed load
    /// the `try_` entry points pay per launch when faults are disabled
    /// (probed by the `GMC_PERF_GATE=1` micro bench).
    #[inline]
    pub fn fault_armed(&self) -> bool {
        self.inner.fault_on.load(Ordering::Relaxed)
    }

    /// Installs (or with `None` removes) a cooperative cancellation token.
    /// Pipelines poll it at launch boundaries via
    /// [`Executor::check_cancelled`]; tripping the token makes the next
    /// poll fail with [`Cancelled`], which callers surface as
    /// `DeviceError::Cancelled` and unwind through the same RAII release
    /// path as device faults. With no token installed the poll is one
    /// relaxed load and a branch.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        let on = token.is_some();
        *self.inner.cancel.write().unwrap() = token;
        self.inner.cancel_on.store(on, Ordering::Relaxed);
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        if !self.inner.cancel_on.load(Ordering::Relaxed) {
            return None;
        }
        self.inner.cancel.read().unwrap().clone()
    }

    /// Polls the installed cancellation token; `Err` means the caller must
    /// stop issuing launches and unwind. Pipelines call this at level and
    /// window boundaries — the bulk-synchronous points where control
    /// returns to the host — not inside kernels, mirroring how a host
    /// process can only stop *between* GPU launches.
    #[inline]
    pub fn check_cancelled(&self) -> Result<(), Cancelled> {
        if !self.inner.cancel_on.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.poll_cancel_token()
    }

    /// Token-installed slow path, out of line so the uncancellable poll
    /// stays one relaxed load and a branch.
    #[cold]
    fn poll_cancel_token(&self) -> Result<(), Cancelled> {
        let guard = self.inner.cancel.read().unwrap();
        match guard.as_ref() {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Rolls one launch fault for `name`; `Err` means the launch must not
    /// run. The disabled path is one relaxed load and a branch. The `try_`
    /// entry points call this per launch; composite primitives (scan,
    /// select) call it once up front so a faulted call fails before mutating
    /// its output.
    #[inline]
    pub fn check_launch_fault(&self, name: &'static str) -> Result<(), LaunchError> {
        if !self.inner.fault_on.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.roll_injected_launch(name)
    }

    /// Injected-launch slow path, out of line so the fault-free `try_`
    /// launch stays one relaxed load and a branch.
    #[cold]
    fn roll_injected_launch(&self, name: &'static str) -> Result<(), LaunchError> {
        let guard = self.inner.fault.read().unwrap();
        let Some(step) = guard.as_ref().and_then(FaultInjector::roll_launch) else {
            return Ok(());
        };
        if self.inner.trace_on.load(Ordering::Relaxed) {
            let tracer = self.inner.tracer.read().unwrap();
            tracer.instant("fault_launch_injected", &[("step", step as i64)]);
        }
        Err(LaunchError { kernel: name, step })
    }

    /// Models a fixed per-launch cost (CUDA kernel launch + synchronisation
    /// latency, typically a handful of microseconds). Zero by default.
    ///
    /// Real GPU programs pay this cost once per kernel; algorithms that
    /// multiply launch counts — like the paper's windowed search, which
    /// reruns the expansion loop per window — feel it directly. The
    /// experiment harness enables this so the windowed-vs-full runtime
    /// trade-off (paper §V-C2) has its physical cause represented.
    pub fn set_launch_overhead(&self, overhead: std::time::Duration) {
        self.inner
            .launch_overhead_ns
            .store(overhead.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current simulated per-launch overhead.
    pub fn launch_overhead(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.inner.launch_overhead_ns.load(Ordering::Relaxed))
    }

    /// Sets the grid size at or below which launches run inline on the
    /// calling thread instead of being dispatched to the worker pool.
    ///
    /// Defaults to [`DEFAULT_SEQUENTIAL_GRID_LIMIT`], overridable at
    /// executor construction via the `GMC_SEQ_GRID` environment variable.
    /// Results are identical either way; this only tunes dispatch overhead.
    pub fn set_sequential_grid_limit(&self, limit: usize) {
        self.inner
            .sequential_grid_limit
            .store(limit, Ordering::Relaxed);
    }

    /// Grid size at or below which launches run inline (see
    /// [`Executor::set_sequential_grid_limit`]).
    pub fn sequential_grid_limit(&self) -> usize {
        self.inner.sequential_grid_limit.load(Ordering::Relaxed)
    }

    /// Spin-waits the configured per-launch overhead (sleep granularity is
    /// far too coarse for microsecond costs).
    fn pay_launch_overhead(&self) {
        let ns = self.inner.launch_overhead_ns.load(Ordering::Relaxed);
        if ns == 0 {
            return;
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_nanos(ns);
        while std::time::Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    /// Runs `launch`: virtual thread `i` runs `kernel(i)` for every `i` in
    /// `0..n`, and the call blocks until all of them complete (the kernel
    /// boundary barrier).
    pub fn run<F>(&self, launch: Launch<'_>, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        let _span = self.begin(&launch, || self.planned_chunks(&launch));
        self.dispatch(&launch, &kernel);
    }

    /// Fallible [`Executor::run`]: rolls the armed fault injector exactly
    /// once — before any cost planning — and returns [`LaunchError`], with
    /// the kernel not run and nothing recorded, when it fires. Production
    /// pipeline launch sites call this so injected launch faults surface as
    /// errors the solver recovers from instead of panics.
    pub fn try_run<F>(&self, launch: Launch<'_>, kernel: F) -> Result<(), LaunchError>
    where
        F: Fn(usize) + Sync,
    {
        self.check_launch_fault(launch.name)?;
        self.run(launch, kernel);
        Ok(())
    }

    /// [`Executor::run`] collecting `v[i] = kernel(i)` into a new vector of
    /// length `n`.
    pub fn map<T, F>(&self, launch: Launch<'_>, kernel: F) -> Vec<T>
    where
        T: Send + Copy + Default,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = vec![T::default(); launch.n];
        let shared = crate::SharedSlice::new(&mut out);
        self.run(launch, |i| {
            // SAFETY: each virtual thread writes exactly its own index.
            unsafe { shared.write(i, kernel(i)) };
        });
        out
    }

    /// Fallible [`Executor::map`]; see [`Executor::try_run`].
    pub fn try_map<T, F>(&self, launch: Launch<'_>, kernel: F) -> Result<Vec<T>, LaunchError>
    where
        T: Send + Copy + Default,
        F: Fn(usize) -> T + Sync,
    {
        self.check_launch_fault(launch.name)?;
        Ok(self.map(launch, kernel))
    }

    /// Partitions `0..n` into [`Executor::num_chunks`] contiguous ranges,
    /// one per worker, and runs `body(chunk_id, range)` on each, all chunks
    /// at once. Never scheduled dynamically: primitives that index per-chunk
    /// partials — and the look-back scan, whose chunks spin on their
    /// predecessors — rely on this static mapping.
    pub fn run_chunks<F>(&self, name: &'static str, n: usize, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let _span = self.begin(&Launch::new(name, n), || self.num_chunks(n));
        if n == 0 {
            return;
        }
        if self.num_chunks(n) == 1 {
            body(0, 0..n);
        } else {
            self.static_chunks(n, &body);
        }
    }

    /// The prologue every launch shares: the per-kernel stats record, the
    /// trace span (returned so it closes after the kernel), and the
    /// simulated launch overhead. The chunk count is computed lazily so the
    /// untraced path never pays for a morsel-count computation.
    fn begin(&self, launch: &Launch<'_>, chunks: impl FnOnce() -> usize) -> Option<SpanGuard> {
        self.inner.stats.record(launch.name, launch.n, launch.fused);
        let span = if self.inner.trace_on.load(Ordering::Relaxed) {
            let tracer = self
                .inner
                .tracer
                .read()
                .expect("no thread panics while holding the tracer lock");
            tracer.is_enabled().then(|| {
                let chunks = chunks();
                tracer.span_with(
                    launch.name,
                    &[
                        ("n", launch.n as i64),
                        ("chunks", chunks as i64),
                        ("inline", i64::from(chunks == 1)),
                    ],
                )
            })
        } else {
            None
        };
        self.pay_launch_overhead();
        span
    }

    /// Number of work units `launch` will be decomposed into: `1` on the
    /// inline path, the morsel count for a weighted launch under
    /// [`Schedule::Auto`], and the worker count otherwise. Trace-span
    /// metadata only.
    fn planned_chunks(&self, launch: &Launch<'_>) -> usize {
        let chunks = self.num_chunks(launch.n);
        if chunks > 1 && launch.cost.is_some() && self.schedule() == Schedule::Auto {
            sched::uniform_morsels(launch.n, sched::DEFAULT_MORSEL_GRAIN).1
        } else {
            chunks
        }
    }

    /// The one dispatcher. Grids at or below the sequential limit run inline
    /// before the schedule is even loaded, so they pay zero scheduling cost.
    /// A weighted launch under [`Schedule::Auto`] is cut into morsels of
    /// approximately equal cost — their *count* taken from the uniform
    /// decomposition at [`sched::DEFAULT_MORSEL_GRAIN`], so it stays a pure
    /// function of `n` — and claimed dynamically. Everything else takes the
    /// static mapping: [`Schedule::Static`] ignores cost hints, and `Auto`
    /// without hints has no reason to pay claim traffic.
    fn dispatch<F>(&self, launch: &Launch<'_>, kernel: &F)
    where
        F: Fn(usize) + Sync,
    {
        let n = launch.n;
        if self.num_chunks(n) == 1 {
            for i in 0..n {
                kernel(i);
            }
            return;
        }
        match launch.cost {
            Some(cost) if self.schedule() == Schedule::Auto => {
                let (grain, count) = sched::uniform_morsels(n, sched::DEFAULT_MORSEL_GRAIN);
                match self.cost_boundaries(n, count, cost) {
                    Some(bounds) => self.run_dynamic(n, Boundaries::Explicit(&bounds), kernel),
                    // All-zero costs carry no balance information: fall back
                    // to the uniform decomposition at the same grain.
                    None => self.run_dynamic(n, Boundaries::Uniform { grain, count }, kernel),
                }
            }
            _ => self.run_static(n, kernel),
        }
    }

    /// Runs `body(chunk_id, range)` on the pool over one contiguous range
    /// of `0..n` per worker and returns how many ranges were non-empty;
    /// workers whose range starts past `n` stay idle.
    fn static_chunks(&self, n: usize, body: &(dyn Fn(usize, Range<usize>) + Sync)) -> usize {
        let chunk = n.div_ceil(self.inner.num_workers);
        self.run_on_pool(&|worker_id: usize| {
            let start = worker_id * chunk;
            if start < n {
                body(worker_id, start..(start + chunk).min(n));
            }
        });
        n.div_ceil(chunk)
    }

    /// The static mapping, plus the per-worker balance measurement every
    /// pooled launch records.
    fn run_static<F>(&self, n: usize, kernel: &F)
    where
        F: Fn(usize) + Sync,
    {
        self.reset_balance();
        let chunks = self.static_chunks(n, &|worker_id, range| {
            let began = Instant::now();
            for i in range {
                kernel(i);
            }
            let slot = &self.inner.balance[worker_id];
            slot.claims.store(1, Ordering::Relaxed);
            slot.busy_ns
                .store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        self.record_balance(false, chunks);
    }

    /// Dynamic morsel claiming: workers pull morsel indices from a shared
    /// cursor until it runs past the (deterministic, worker-count
    /// independent) decomposition. Kernels write disjoint index ranges, so
    /// any claim order produces identical memory at the closing barrier.
    fn run_dynamic<F>(&self, n: usize, boundaries: Boundaries<'_>, kernel: &F)
    where
        F: Fn(usize) + Sync,
    {
        let count = boundaries.count();
        let cursor = AtomicUsize::new(0);
        self.reset_balance();
        self.run_on_pool(&|worker_id: usize| {
            let began = Instant::now();
            let mut claims = 0u64;
            loop {
                let m = cursor.fetch_add(1, Ordering::Relaxed);
                if m >= count {
                    break;
                }
                claims += 1;
                for i in boundaries.range(m, n) {
                    kernel(i);
                }
            }
            if claims > 0 {
                let slot = &self.inner.balance[worker_id];
                slot.claims.store(claims, Ordering::Relaxed);
                slot.busy_ns
                    .store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        self.record_balance(true, count);
    }

    /// Clears the per-worker balance slots before a pooled launch (launches
    /// never overlap, so the slots are safely reused).
    fn reset_balance(&self) {
        for slot in &self.inner.balance {
            slot.claims.store(0, Ordering::Relaxed);
            slot.busy_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Aggregates the balance slots of the launch that just completed into
    /// [`ScheduleStats`] and — when tracing — a `sched_balance` instant plus
    /// a `sched_imbalance_x100` counter track.
    fn record_balance(&self, dynamic: bool, morsels: usize) {
        let mut max_claims = 0u64;
        let mut makespan = 0u64;
        let mut busy_total = 0u64;
        let mut engaged = 0u64;
        for slot in &self.inner.balance {
            let claims = slot.claims.load(Ordering::Relaxed);
            if claims == 0 {
                continue;
            }
            let busy = slot.busy_ns.load(Ordering::Relaxed);
            max_claims = max_claims.max(claims);
            makespan = makespan.max(busy);
            busy_total += busy;
            engaged += 1;
        }
        let mean = busy_total.checked_div(engaged).unwrap_or(0);
        self.inner
            .sched_stats
            .record(dynamic, morsels as u64, max_claims, makespan, mean);
        if self.inner.trace_on.load(Ordering::Relaxed) {
            let tracer = self.inner.tracer.read().unwrap();
            if tracer.is_enabled() {
                tracer.instant(
                    "sched_balance",
                    &[
                        ("morsels", morsels as i64),
                        ("max_worker_morsels", max_claims as i64),
                        ("makespan_ns", makespan as i64),
                        ("mean_chunk_ns", mean as i64),
                        ("dynamic", i64::from(dynamic)),
                    ],
                );
                if let Some(imbalance) = makespan.saturating_mul(100).checked_div(mean) {
                    tracer.counter("sched_imbalance_x100", imbalance as i64);
                }
            }
        }
    }

    /// Cuts `morsels` boundaries over `0..n` at approximately equal summed
    /// cost: boundary `k` is the smallest index whose inclusive cost prefix
    /// reaches `k/morsels` of the total (exact integer rule — see
    /// [`sched::emit_cost_crossings`]). Returns `None` when the costs sum
    /// to zero. The result is a pure function of `(n, morsels, costs)`:
    /// the sequential planner and the chunk-parallel planner (used past
    /// [`WEIGHT_PLAN_PARALLEL_THRESHOLD`]) produce bit-identical cuts for
    /// every worker count.
    ///
    /// The planner passes run straight on the pool: they are internal to
    /// the launch, so they record no stats, open no spans, and never roll
    /// fault injection — `GMC_FAULTS` step counting is identical under both
    /// schedules.
    fn cost_boundaries(
        &self,
        n: usize,
        morsels: usize,
        cost: &(dyn Fn(usize) -> u64 + Sync),
    ) -> Option<Vec<usize>> {
        if morsels <= 1 {
            return None;
        }
        if n < WEIGHT_PLAN_PARALLEL_THRESHOLD {
            // Sequential planner: one summing pass, one crossing walk.
            let mut total = 0u64;
            for i in 0..n {
                total = total.saturating_add(cost(i));
            }
            if total == 0 {
                return None;
            }
            let mut bounds = vec![0usize; morsels + 1];
            bounds[morsels] = n;
            let total_wide = u128::from(total);
            let mut prefix = 0u64;
            let mut next_k = 1usize;
            for i in 0..n {
                let after = prefix.saturating_add(cost(i));
                sched::emit_cost_crossings(
                    morsels,
                    total_wide,
                    prefix,
                    after,
                    i,
                    &mut next_k,
                    |k, b| {
                        bounds[k] = b;
                    },
                );
                prefix = after;
            }
            return Some(bounds);
        }
        // Chunk-parallel planner (the executor's two-phase scan shape):
        // per-chunk partial sums, a host exclusive scan over them, then a
        // per-chunk crossing walk. Interior boundary `k` is written by
        // exactly one chunk (the one whose prefix range straddles
        // `k/morsels` of the total), so the writes are disjoint.
        let mut partials = vec![0u64; self.inner.num_workers];
        {
            let shared = crate::SharedSlice::new(&mut partials);
            self.static_chunks(n, &|chunk_id, range| {
                let mut sum = 0u64;
                for i in range {
                    sum = sum.saturating_add(cost(i));
                }
                // SAFETY: each chunk writes exactly its own slot.
                unsafe { shared.write(chunk_id, sum) };
            });
        }
        let mut chunk_prefix = partials;
        let mut total = 0u64;
        for slot in &mut chunk_prefix {
            let partial = *slot;
            *slot = total;
            total = total.saturating_add(partial);
        }
        if total == 0 {
            return None;
        }
        let mut bounds = vec![0usize; morsels + 1];
        bounds[morsels] = n;
        {
            let shared = crate::SharedSlice::new(&mut bounds);
            let total_wide = u128::from(total);
            self.static_chunks(n, &|chunk_id, range| {
                let mut prefix = chunk_prefix[chunk_id];
                let mut next_k = sched::first_crossing_k(morsels, total_wide, prefix);
                for i in range {
                    if next_k >= morsels {
                        break;
                    }
                    let after = prefix.saturating_add(cost(i));
                    sched::emit_cost_crossings(
                        morsels,
                        total_wide,
                        prefix,
                        after,
                        i,
                        &mut next_k,
                        // SAFETY: crossing `k` straddles exactly one chunk's
                        // prefix range, so each slot has a single writer.
                        |k, b| unsafe { shared.write(k, b) },
                    );
                    prefix = after;
                }
            });
        }
        Some(bounds)
    }

    /// The number of chunks [`Executor::run_chunks`] will produce for an
    /// `n`-element problem: `1` when the grid runs inline (at or below
    /// [`Executor::sequential_grid_limit`], or a single-worker executor),
    /// the worker count otherwise.
    pub fn num_chunks(&self, n: usize) -> usize {
        if n <= self.sequential_grid_limit() || self.inner.num_workers == 1 {
            1
        } else {
            self.inner.num_workers
        }
    }

    fn run_on_pool(&self, task: &(dyn Fn(usize) + Sync)) {
        let shared = &self.inner.shared;
        // SAFETY: the lifetime is erased here, but this function does not
        // return until every worker has finished running the task, so the
        // borrow outlives all uses.
        let ptr = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task)
        });
        {
            let mut st = shared.lock_state();
            // Checked in release builds too, before the state is touched: a
            // second launcher would overwrite the in-flight task, and both
            // would wait forever.
            assert_eq!(st.pending, 0, "overlapping launches are not allowed");
            st.task = Some(ptr);
            st.generation += 1;
            st.pending = self.inner.num_workers;
            shared.work_ready.notify_all();
            while st.pending > 0 {
                st = shared
                    .work_done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.task = None;
        }
        if shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("a gmc-dpp worker thread panicked during a launch");
        }
    }
}

impl Drop for ExecutorInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("num_workers", &self.inner.num_workers)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, worker_id: usize) {
    let mut last_generation = 0u64;
    loop {
        let task = {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(task) = st.task {
                    if st.generation != last_generation {
                        last_generation = st.generation;
                        break task;
                    }
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: the launcher keeps the task alive until `pending == 0`,
        // which we only signal after the call returns.
        let call = AssertUnwindSafe(|| unsafe { (*task.0)(worker_id) });
        if std::panic::catch_unwind(call).is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut st = shared.lock_state();
        st.pending -= 1;
        if st.pending == 0 {
            shared.work_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use crate::stats::KernelStats;

    fn counters(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    fn all_equal(hits: &[AtomicU64], want: u64) -> bool {
        hits.iter().all(|h| h.load(Ordering::Relaxed) == want)
    }

    /// Every way a call site can describe a launch, crossed by
    /// [`launch_table`] with both schedules and several worker counts.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Plain,
        Fused,
        /// One stretch of indices carries almost all of the cost.
        Weighted,
        FusedWeighted,
        /// All-zero costs: Auto falls back to uniform morsels.
        ZeroCost,
        /// Every cost `u64::MAX`: the planner's sums saturate.
        SaturatedCost,
        /// CSR segment lengths as costs, including empty segments.
        Segments,
        Map,
        Chunks,
    }

    impl Shape {
        const ALL: [Shape; 9] = [
            Shape::Plain,
            Shape::Fused,
            Shape::Weighted,
            Shape::FusedWeighted,
            Shape::ZeroCost,
            Shape::SaturatedCost,
            Shape::Segments,
            Shape::Map,
            Shape::Chunks,
        ];

        fn kernel(self) -> &'static str {
            match self {
                Shape::Plain => "table_plain",
                Shape::Fused => "table_fused",
                Shape::Weighted => "table_weighted",
                Shape::FusedWeighted => "table_fused_weighted",
                Shape::ZeroCost => "table_zero_cost",
                Shape::SaturatedCost => "table_saturated_cost",
                Shape::Segments => "table_segments",
                Shape::Map => "table_map",
                Shape::Chunks => "table_chunks",
            }
        }
    }

    /// Sends `launch` through the entry point `shape` stands for — the
    /// `try_` one when `fallible` — counting every virtual thread in `hits`.
    fn send(
        exec: &Executor,
        shape: Shape,
        launch: Launch<'_>,
        hits: &[AtomicU64],
        fallible: bool,
    ) -> Result<(), LaunchError> {
        let hit = |i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        let check_map = |out: Vec<u64>| {
            assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i as u64));
        };
        match (shape, fallible) {
            (Shape::Chunks, _) => {
                let chunks = exec.num_chunks(launch.n);
                exec.run_chunks(launch.name, launch.n, |chunk_id, range| {
                    assert!(chunk_id < chunks, "chunk {chunk_id} of {chunks}");
                    range.for_each(hit);
                });
                Ok(())
            }
            (Shape::Map, false) => {
                check_map(exec.map(launch, |i| {
                    hit(i);
                    3 * i as u64
                }));
                Ok(())
            }
            (Shape::Map, true) => exec
                .try_map(launch, |i| {
                    hit(i);
                    3 * i as u64
                })
                .map(check_map),
            (_, false) => {
                exec.run(launch, hit);
                Ok(())
            }
            (_, true) => exec.try_run(launch, hit),
        }
    }

    #[test]
    fn launch_table() {
        let skewed = |i: usize| if i < 500 { 10_000u64 } else { 1 };
        let zero = |_: usize| 0u64;
        let saturated = |_: usize| u64::MAX;
        // One grid per cost planner: sequential below the threshold,
        // chunk-parallel above it.
        let grids = [10_000usize, 100_000];
        assert!(grids[0] < WEIGHT_PLAN_PARALLEL_THRESHOLD);
        assert!(grids[1] >= WEIGHT_PLAN_PARALLEL_THRESHOLD);
        for n in grids {
            let mut offsets = vec![0usize; n + 1];
            for i in 0..n {
                offsets[i + 1] = offsets[i] + i % 17;
            }
            let segment = |i: usize| (offsets[i + 1] - offsets[i]) as u64;
            for workers in [1, 2, 8] {
                let exec = Executor::new(workers);
                for schedule in [Schedule::Static, Schedule::Auto] {
                    exec.set_schedule(schedule);
                    for shape in Shape::ALL {
                        let ctx = format!("{shape:?}, n {n}, {schedule}, {workers} workers");
                        let name = shape.kernel();
                        let (launch, weighted) = match shape {
                            Shape::Plain | Shape::Map | Shape::Chunks => {
                                (Launch::new(name, n), false)
                            }
                            Shape::Fused => (Launch::new(name, n).fused(), false),
                            Shape::Weighted => (Launch::new(name, n).weighted(&skewed), true),
                            Shape::FusedWeighted => {
                                (Launch::new(name, n).fused().weighted(&skewed), true)
                            }
                            Shape::ZeroCost => (Launch::new(name, n).weighted(&zero), true),
                            Shape::SaturatedCost => {
                                (Launch::new(name, n).weighted(&saturated), true)
                            }
                            Shape::Segments => (
                                Launch::new(name, offsets.len() - 1).weighted(&segment),
                                true,
                            ),
                        };
                        let fused = u64::from(launch.fused);

                        // Expected counters: one launch of `n` virtual
                        // threads on this kernel's row, and the balance
                        // record of the mapping the dispatcher picks.
                        let launch_stats = LaunchStats {
                            launches: 1,
                            virtual_threads: n as u64,
                            fused_launches: fused,
                            per_kernel: vec![(
                                name,
                                KernelStats {
                                    launches: 1,
                                    virtual_threads: n as u64,
                                    fused_launches: fused,
                                },
                            )],
                        };
                        let pooled = workers > 1 && !matches!(shape, Shape::Chunks);
                        let dynamic = pooled && weighted && schedule == Schedule::Auto;
                        let morsels = if dynamic {
                            sched::uniform_morsels(n, sched::DEFAULT_MORSEL_GRAIN).1
                        } else {
                            n.div_ceil(n.div_ceil(workers))
                        } as u64;

                        // Infallible, then unarmed `try_`: both run every
                        // index exactly once and record the same counters.
                        for fallible in [false, true] {
                            if fallible && matches!(shape, Shape::Chunks) {
                                continue;
                            }
                            let before = exec.stats();
                            let sched_before = exec.schedule_stats();
                            let hits = counters(n);
                            send(&exec, shape, launch, &hits, fallible).unwrap();
                            assert!(all_equal(&hits, 1), "{ctx}: coverage");
                            assert_eq!(exec.stats().since(&before), launch_stats, "{ctx}");
                            let s = exec.schedule_stats().since(&sched_before);
                            assert_eq!(s.pool_launches, u64::from(pooled), "{ctx}");
                            assert_eq!(s.dynamic_launches, u64::from(dynamic), "{ctx}");
                            if pooled {
                                assert_eq!(s.morsels, morsels, "{ctx}");
                                assert!(
                                    s.max_worker_morsels >= morsels.div_ceil(workers as u64),
                                    "{ctx}: {s:?}"
                                );
                                assert!(s.makespan_ns >= s.mean_chunk_ns, "{ctx}: {s:?}");
                            } else {
                                assert_eq!(s, ScheduleStats::default(), "{ctx}");
                            }
                        }

                        // Armed `try_`: fails before running, records
                        // nothing, and consumes exactly one fault step —
                        // the cost planner never rolls.
                        if matches!(shape, Shape::Chunks) {
                            continue;
                        }
                        let injector = FaultInjector::new("launch=1".parse().unwrap());
                        exec.set_fault_injector(Some(injector.clone()));
                        let before = exec.stats();
                        let sched_before = exec.schedule_stats();
                        let hits = counters(n);
                        let err = send(&exec, shape, launch, &hits, true).unwrap_err();
                        exec.set_fault_injector(None);
                        assert_eq!(err.kernel, name, "{ctx}");
                        assert!(all_equal(&hits, 0), "{ctx}: the kernel must not run");
                        assert_eq!(exec.stats().since(&before), LaunchStats::default(), "{ctx}");
                        assert_eq!(
                            exec.schedule_stats().since(&sched_before),
                            ScheduleStats::default(),
                            "{ctx}"
                        );
                        let faults = injector.stats();
                        assert_eq!(faults.injected_launches, 1, "{ctx}");
                        assert_eq!(faults.steps, 1, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_grids_run_inline() {
        let exec = Executor::new(8);
        let before = exec.stats();
        let out = exec.map(Launch::new("small", 10), |i| i as u32);
        assert_eq!(out, (0..10u32).collect::<Vec<_>>());
        let after = exec.stats();
        assert_eq!(after.since(&before).launches, 1);
        assert_eq!(after.since(&before).virtual_threads, 10);
    }

    #[test]
    fn repeated_launches_are_stable() {
        let exec = Executor::new(4);
        for round in 0..50 {
            let out = exec.map(Launch::new("repeat", 10_000), |i| (i + round) as u64);
            assert_eq!(out[0], round as u64);
            assert_eq!(out[9999], (9999 + round) as u64);
        }
    }

    #[test]
    fn executor_clone_shares_stats() {
        let exec = Executor::new(2);
        let clone = exec.clone();
        exec.run(Launch::new("shared", 10), |_| {});
        assert_eq!(clone.stats().launches, 1);
        exec.set_schedule(Schedule::Static);
        exec.run(Launch::new("shared", 100_000), |_| {});
        assert_eq!(clone.schedule_stats().pool_launches, 1);
        clone.reset_stats();
        assert_eq!(exec.stats(), LaunchStats::default());
        assert_eq!(exec.schedule_stats(), ScheduleStats::default());
    }

    #[test]
    fn launch_overhead_is_paid_per_launch() {
        let exec = Executor::new(1);
        exec.set_launch_overhead(std::time::Duration::from_micros(200));
        assert_eq!(
            exec.launch_overhead(),
            std::time::Duration::from_micros(200)
        );
        let start = std::time::Instant::now();
        for _ in 0..50 {
            exec.run(Launch::new("overhead", 1), |_| {});
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(10),
            "50 launches at 200µs each should take ≥ 10ms, took {elapsed:?}"
        );
        exec.set_launch_overhead(std::time::Duration::ZERO);
    }

    #[test]
    fn launch_boundaries_are_barriers() {
        // The kernel-boundary contract `run` guarantees: every
        // write from launch k is visible to every virtual thread of launch
        // k+1, no matter how virtual threads map onto workers. A ping-pong
        // chain of dependent launches detects any missing barrier — a
        // single stale read would corrupt all subsequent iterations.
        let n = 50_000;
        for workers in [1, 2, 4, 7] {
            let exec = Executor::new(workers);
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b = vec![0u64; n];
            for _ in 0..8 {
                let src = crate::SharedSlice::new(&mut a);
                let dst = crate::SharedSlice::new(&mut b);
                exec.run(Launch::new("ping_pong", n), |i| {
                    // Each element reads two locations written by the
                    // *previous* launch.
                    let left = unsafe { src.read(i) };
                    let right = unsafe { src.read((i + 1) % n) };
                    unsafe { dst.write(i, left.wrapping_add(right)) };
                });
                std::mem::swap(&mut a, &mut b);
            }
            // Reference: the same chain run sequentially.
            let mut ra: Vec<u64> = (0..n as u64).collect();
            let mut rb = vec![0u64; n];
            for _ in 0..8 {
                for i in 0..n {
                    rb[i] = ra[i].wrapping_add(ra[(i + 1) % n]);
                }
                std::mem::swap(&mut ra, &mut rb);
            }
            assert_eq!(a, ra, "workers {workers}: a launch boundary leaked");
        }
    }

    #[test]
    fn pool_matches_scoped_thread_execution() {
        // The pool's chunked dispatch must be observationally identical to
        // running the same contiguous chunks on plain `std::thread::scope`
        // threads — the scoped-thread semantics the executor stands in for.
        let n = 60_000;
        let exec = Executor::new(4);
        let pool_out = exec.map(Launch::new("golden", n), |i| {
            (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
        });

        let mut scoped_out = vec![0u64; n];
        let chunk = n.div_ceil(4);
        std::thread::scope(|scope| {
            for (w, slot) in scoped_out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (k, out) in slot.iter_mut().enumerate() {
                        let i = w * chunk + k;
                        *out = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    }
                });
            }
        });
        assert_eq!(pool_out, scoped_out);
    }

    #[test]
    fn sequential_grid_limit_is_tunable() {
        let exec = Executor::new(4);
        assert_eq!(exec.sequential_grid_limit(), DEFAULT_SEQUENTIAL_GRID_LIMIT);
        assert_eq!(exec.num_chunks(DEFAULT_SEQUENTIAL_GRID_LIMIT + 1), 4);
        exec.set_sequential_grid_limit(0);
        assert_eq!(exec.sequential_grid_limit(), 0);
        assert_eq!(exec.num_chunks(1), 4);
        exec.set_sequential_grid_limit(usize::MAX);
        assert_eq!(exec.num_chunks(1 << 20), 1);
        // Results stay correct at both extremes.
        for limit in [0, usize::MAX] {
            exec.set_sequential_grid_limit(limit);
            let out = exec.map(Launch::new("limit", 10_000), |i| i as u32 + 1);
            assert_eq!(out[9999], 10_000);
        }
    }

    #[test]
    fn launches_emit_spans_when_a_tracer_is_installed() {
        let session = gmc_trace::TraceSession::new();
        let exec = Executor::new(2);
        exec.set_tracer(session.tracer());
        exec.run(Launch::new("traced_kernel", 100), |_| {});
        exec.run(Launch::new("traced_kernel", 1 << 14), |_| {});
        let cost = |_: usize| 1u64;
        let weighted = Launch::new("traced_weighted", 1 << 14).weighted(&cost);
        exec.run(weighted, |_| {});
        exec.set_tracer(Tracer::disabled());
        exec.run(Launch::new("untraced_kernel", 10), |_| {});
        let timeline = session.finish();
        let spans: Vec<_> = timeline
            .spans
            .iter()
            .filter(|s| s.name == "traced_kernel")
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].args.contains(&("n", 100)));
        assert!(
            spans[0].args.contains(&("inline", 1)),
            "small grid is inline"
        );
        assert!(spans[1].args.contains(&("chunks", 2)));
        assert!(
            spans[1].args.contains(&("inline", 0)),
            "big grid uses the pool"
        );
        let weighted = timeline
            .spans
            .iter()
            .find(|s| s.name == "traced_weighted")
            .expect("weighted launch span");
        assert!(
            weighted.args.contains(&("chunks", 16)),
            "Auto cuts 16k weighted indices into 16 morsels"
        );
        assert!(
            !timeline.spans.iter().any(|s| s.name == "untraced_kernel"),
            "no spans after the tracer is removed"
        );
    }

    #[test]
    fn alloc_only_plans_do_not_arm_the_executor() {
        let exec = Executor::new(2);
        let plan: FaultPlan = "alloc=1".parse().unwrap();
        exec.set_fault_injector(Some(FaultInjector::new(plan)));
        assert!(!exec.fault_armed());
        for _ in 0..50 {
            assert!(exec.try_run(Launch::new("never_fails", 8), |_| {}).is_ok());
        }
    }

    #[test]
    fn schedule_round_trips_through_accessor() {
        let exec = Executor::new(2);
        for schedule in [Schedule::Static, Schedule::Auto] {
            exec.set_schedule(schedule);
            assert_eq!(exec.schedule(), schedule);
        }
    }

    #[test]
    fn cost_boundaries_are_identical_across_worker_counts() {
        // Both planner shapes (sequential below the threshold, chunked
        // above) and every worker count must produce the same cut: the
        // boundary rule is a pure function of `(n, morsels, costs)`.
        let cost = |i: usize| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56) + 1;
        for n in [10_000usize, WEIGHT_PLAN_PARALLEL_THRESHOLD + 12_345] {
            let morsels = 64;
            // Reference: the crossing rule evaluated naively.
            let total: u128 = (0..n).map(|i| u128::from(cost(i))).sum();
            let mut reference = vec![0usize; morsels + 1];
            reference[morsels] = n;
            let mut prefix: u128 = 0;
            let mut k = 1;
            for i in 0..n {
                prefix += u128::from(cost(i));
                while k < morsels && prefix * morsels as u128 >= k as u128 * total {
                    reference[k] = i + 1;
                    k += 1;
                }
            }
            for workers in [2, 3, 8] {
                let exec = Executor::new(workers);
                let bounds = exec.cost_boundaries(n, morsels, &cost).unwrap();
                assert_eq!(bounds, reference, "workers {workers}, n {n}");
            }
        }
    }

    #[test]
    fn auto_takes_the_inline_path_on_small_grids() {
        let exec = Executor::new(8);
        exec.set_schedule(Schedule::Auto);
        let before = exec.schedule_stats();
        let cost = |_: usize| 1u64;
        let launch = Launch::new("at_limit", DEFAULT_SEQUENTIAL_GRID_LIMIT).weighted(&cost);
        let out = exec.map(launch, |i| i as u32);
        assert_eq!(out[100], 100);
        exec.run(Launch::new("tiny", 64).weighted(&cost), |_| {});
        let delta = exec.schedule_stats().since(&before);
        assert_eq!(delta.pool_launches, 0, "small grids never touch the pool");
    }

    #[test]
    fn worker_panic_propagates() {
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run(Launch::new("boom", 100_000), |i| {
                assert!(i < 50_000, "boom");
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let out = exec.map(Launch::new("after_boom", 10_000), |i| i as u32);
        assert_eq!(out[123], 123);
    }

    #[test]
    fn overlapping_pooled_launch_panics_and_leaves_the_first_intact() {
        // Thread A's pooled launch stays in flight until its index 0 is
        // released. A launch from thread B on the same pool must panic, in
        // release builds too, instead of overwriting A's task.
        let exec = Executor::new(2);
        exec.set_sequential_grid_limit(0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                exec.map(Launch::new("held", 64), |i| {
                    if i == 0 {
                        started_tx.lock().unwrap().send(()).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                    3 * i as u32
                })
            });
            started_rx.recv().unwrap();
            let b = scope.spawn(|| exec.run(Launch::new("overlapping", 64), |_| {}));
            let panic = b.join().expect_err("the overlapping launch must panic");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("overlapping launches are not allowed"),
                "{message}"
            );
            release_tx.send(()).unwrap();
            let out = a.join().expect("the first launch completes");
            assert_eq!(out, (0..64).map(|i| 3 * i).collect::<Vec<u32>>());
        });
    }
}
