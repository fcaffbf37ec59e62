//! Deterministic fault injection for the virtual device.
//!
//! Real GPUs fail: allocations exhaust on-board RAM and kernel launches can
//! return transient errors. The solver's recovery ladder (arena release,
//! window shrink, bitmap→scalar fallback) only stays honest if those
//! failures are *exercised*, so this module provides a seeded
//! [`FaultInjector`] that makes [`DeviceMemory`](crate::DeviceMemory)
//! charges fail at a configured rate and makes the executor's fallible
//! launches ([`Executor::try_run`], [`Executor::try_map`]) return
//! [`LaunchError`] instead of running the kernel.
//!
//! [`Executor::try_run`]: crate::Executor::try_run
//! [`Executor::try_map`]: crate::Executor::try_map
//!
//! Determinism: every fault decision is a pure function of the plan's seed
//! and a shared atomic step counter (each roll consumes one step). A
//! single-threaded run replays bit-for-bit; a multi-worker run may fault at
//! different steps between runs, but the solver's recovery obligations make
//! the *output* identical either way, which is what the chaos suite pins.
//!
//! Cost when disabled: arming is a cached [`AtomicBool`](std::sync::atomic::AtomicBool) on the memory and
//! executor cells, so the fault-free path pays one relaxed load and branch
//! per allocation/launch — gated below 1% of a pooled 10k scan by the
//! `GMC_PERF_GATE=1` micro bench.

use crate::cancel::Cancelled;
use crate::memory::DeviceOom;
use crate::rng::Rng;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Mixes a roll's step number into the plan seed (SplitMix64's gamma).
const STEP_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain salt separating allocation rolls from launch rolls.
const ALLOC_SALT: u64 = 0xA110_C000_0000_0001;
/// Domain salt for launch rolls.
const LAUNCH_SALT: u64 = 0x1A41_4C00_0000_0002;

/// A seeded fault schedule: which fraction of allocations and launches
/// fail, and how many times the solver may retry before giving up.
///
/// Parsed from `GMC_FAULTS` (via the shared fail-loud env parser) with the
/// format `seed=42,alloc=0.05,launch=0.02,retries=8` — any subset of keys
/// is accepted; unknown keys and out-of-range rates are errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-roll RNG; same seed + same step = same decision.
    pub seed: u64,
    /// Probability in `[0, 1]` that a device-memory charge fails.
    pub alloc_rate: f64,
    /// Probability in `[0, 1]` that a fallible launch fails.
    pub launch_rate: f64,
    /// Retry cap for each recovery loop before the solver surfaces a typed
    /// error.
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            alloc_rate: 0.0,
            launch_rate: 0.0,
            max_retries: 8,
        }
    }
}

impl FaultPlan {
    /// Whether any fault rate is nonzero (an all-zero plan injects nothing).
    pub fn is_active(&self) -> bool {
        self.alloc_rate > 0.0 || self.launch_rate > 0.0
    }

    /// Reads the plan from `GMC_FAULTS` with the shared fail-loud parser:
    /// unset means `None`, a set-but-invalid value panics naming the
    /// variable, the value and the expected format.
    pub fn from_env() -> Option<Self> {
        gmc_trace::env::parse("GMC_FAULTS")
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault seed `{value}` is not a u64"))?;
                }
                "alloc" | "launch" => {
                    let rate: f64 = value
                        .parse()
                        .map_err(|_| format!("fault rate `{value}` is not a number"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault rate `{value}` is outside [0, 1]"));
                    }
                    if key == "alloc" {
                        plan.alloc_rate = rate;
                    } else {
                        plan.launch_rate = rate;
                    }
                }
                "retries" => {
                    plan.max_retries = value
                        .parse()
                        .map_err(|_| format!("fault retries `{value}` is not a u32"))?;
                }
                _ => {
                    return Err(format!(
                        "unknown fault key `{key}` (expected seed/alloc/launch/retries)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={},alloc={},launch={},retries={}",
            self.seed, self.alloc_rate, self.launch_rate, self.max_retries
        )
    }
}

/// Exact counters for a fault-injected run: how many faults fired and how
/// many the solver recovered from, by kind. On a successful solve the
/// recovery totals equal the injection totals — every fault was caught
/// exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Device-memory charges that were failed by injection.
    pub injected_allocs: u64,
    /// Fallible launches that were failed by injection.
    pub injected_launches: u64,
    /// Injected allocation faults the solver recovered from.
    pub alloc_recoveries: u64,
    /// Injected launch faults the solver recovered from.
    pub launch_recoveries: u64,
    /// Expansion attempts where a faulted core-bitmap charge or build fell
    /// back to the scalar walk (each is also counted in its kind's
    /// recovery total).
    pub bitmap_fallbacks: u64,
    /// Window splits forced by repeated faults (geometric backoff).
    pub window_shrinks: u64,
    /// Fault-decision steps consumed — one per charge or fallible launch
    /// rolled while the corresponding rate was nonzero. Harnesses can use
    /// a near-zero-rate probe run to measure how many roll sites a
    /// workload has and calibrate rates against it.
    pub steps: u64,
}

impl FaultStats {
    /// Total faults injected across both kinds.
    pub fn injected(&self) -> u64 {
        self.injected_allocs + self.injected_launches
    }

    /// Total faults recovered across both kinds.
    pub fn recovered(&self) -> u64 {
        self.alloc_recoveries + self.launch_recoveries
    }
}

struct FaultCells {
    plan: FaultPlan,
    step: AtomicU64,
    injected_allocs: AtomicU64,
    injected_launches: AtomicU64,
    alloc_recoveries: AtomicU64,
    launch_recoveries: AtomicU64,
    bitmap_fallbacks: AtomicU64,
    window_shrinks: AtomicU64,
}

/// The armed half of a [`FaultPlan`]: shared atomic step and recovery
/// counters. Cloning shares the counters, so the copy installed on the
/// device and the copy held by the solver tally into the same totals.
#[derive(Clone)]
pub struct FaultInjector {
    cells: Arc<FaultCells>,
}

impl FaultInjector {
    /// An injector executing `plan` from step zero.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            cells: Arc::new(FaultCells {
                plan,
                step: AtomicU64::new(0),
                injected_allocs: AtomicU64::new(0),
                injected_launches: AtomicU64::new(0),
                alloc_recoveries: AtomicU64::new(0),
                launch_recoveries: AtomicU64::new(0),
                bitmap_fallbacks: AtomicU64::new(0),
                window_shrinks: AtomicU64::new(0),
            }),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.cells.plan
    }

    fn decide(&self, rate: f64, salt: u64) -> Option<u64> {
        if rate <= 0.0 {
            return None;
        }
        let step = self.cells.step.fetch_add(1, Ordering::Relaxed);
        let mut rng = Rng::seed_from_u64(self.cells.plan.seed ^ step.wrapping_mul(STEP_MIX) ^ salt);
        rng.gen_bool(rate).then_some(step)
    }

    /// Rolls one allocation fault; `Some(step)` means the charge must fail.
    /// The injected-alloc counter is bumped at the roll site, so recovery
    /// totals can be checked against it exactly.
    pub fn roll_alloc(&self) -> Option<u64> {
        let step = self.decide(self.cells.plan.alloc_rate, ALLOC_SALT)?;
        self.cells.injected_allocs.fetch_add(1, Ordering::Relaxed);
        Some(step)
    }

    /// Rolls one launch fault; `Some(step)` means the launch must fail.
    pub fn roll_launch(&self) -> Option<u64> {
        let step = self.decide(self.cells.plan.launch_rate, LAUNCH_SALT)?;
        self.cells.injected_launches.fetch_add(1, Ordering::Relaxed);
        Some(step)
    }

    /// Records that an injected fault was caught and retried. Call exactly
    /// once per caught fault, at the catch site; propagating past the retry
    /// cap is *not* a recovery.
    pub fn note_recovery(&self, error: &DeviceError) {
        match error {
            DeviceError::Oom(_) => &self.cells.alloc_recoveries,
            DeviceError::Launch(_) => &self.cells.launch_recoveries,
            // Cancellation is never injected and never retried, so there is
            // nothing to recover from.
            DeviceError::Cancelled(_) => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records an expansion attempt that fell back from the core bitmap to
    /// the scalar walk after `error`; also counts the kind's recovery.
    pub fn note_bitmap_fallback(&self, error: &DeviceError) {
        self.cells.bitmap_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.note_recovery(error);
    }

    /// Records a window split forced by repeated faults.
    pub fn note_window_shrink(&self) {
        self.cells.window_shrinks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the injection/recovery counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected_allocs: self.cells.injected_allocs.load(Ordering::Relaxed),
            injected_launches: self.cells.injected_launches.load(Ordering::Relaxed),
            alloc_recoveries: self.cells.alloc_recoveries.load(Ordering::Relaxed),
            launch_recoveries: self.cells.launch_recoveries.load(Ordering::Relaxed),
            bitmap_fallbacks: self.cells.bitmap_fallbacks.load(Ordering::Relaxed),
            window_shrinks: self.cells.window_shrinks.load(Ordering::Relaxed),
            steps: self.cells.step.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.cells.plan)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Error returned by the executor's fallible launches when the fault
/// injector fails the launch — the reproduction's analogue of a transient
/// `cudaErrorLaunchFailure`. The kernel body has *not* run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchError {
    /// Name of the kernel whose launch was failed.
    pub kernel: &'static str,
    /// Fault-injector step at which the failure was scheduled.
    pub step: u64,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel launch `{}` failed (injected at fault step {})",
            self.kernel, self.step
        )
    }
}

impl std::error::Error for LaunchError {}

/// Any device-side failure: an allocation that did not fit (or was failed
/// by injection), a launch the injector failed, or a cooperative
/// cancellation observed at a launch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// A device-memory charge failed.
    Oom(DeviceOom),
    /// A kernel launch failed.
    Launch(LaunchError),
    /// The installed [`CancelToken`](crate::CancelToken) was tripped; the
    /// solve must unwind without retrying.
    Cancelled(Cancelled),
}

impl DeviceError {
    /// Whether this failure was produced by the fault injector (as opposed
    /// to a genuine capacity exhaustion). Injected faults are retryable;
    /// real OOM is not — retrying the same allocation against the same
    /// budget fails the same way — and cancellation must propagate, not
    /// retry.
    pub fn is_injected(&self) -> bool {
        match self {
            DeviceError::Oom(oom) => oom.injected,
            DeviceError::Launch(_) => true,
            DeviceError::Cancelled(_) => false,
        }
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Oom(oom) => oom.fmt(f),
            DeviceError::Launch(launch) => launch.fmt(f),
            DeviceError::Cancelled(cancelled) => cancelled.fmt(f),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<DeviceOom> for DeviceError {
    fn from(oom: DeviceOom) -> Self {
        DeviceError::Oom(oom)
    }
}

impl From<LaunchError> for DeviceError {
    fn from(launch: LaunchError) -> Self {
        DeviceError::Launch(launch)
    }
}

impl From<Cancelled> for DeviceError {
    fn from(cancelled: Cancelled) -> Self {
        DeviceError::Cancelled(cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_full_and_partial_specs() {
        let plan: FaultPlan = "seed=42,alloc=0.05,launch=0.02,retries=3".parse().unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.alloc_rate, 0.05);
        assert_eq!(plan.launch_rate, 0.02);
        assert_eq!(plan.max_retries, 3);

        let partial: FaultPlan = "alloc=0.1".parse().unwrap();
        assert_eq!(partial.seed, 0);
        assert_eq!(partial.alloc_rate, 0.1);
        assert_eq!(partial.launch_rate, 0.0);
        assert_eq!(partial.max_retries, 8);
        assert!(partial.is_active());
        assert!(!FaultPlan::default().is_active());
    }

    #[test]
    fn plan_display_round_trips() {
        let plan: FaultPlan = "seed=7,alloc=0.25,launch=0.5,retries=4".parse().unwrap();
        let reparsed: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn plan_rejects_bad_specs() {
        assert!("bogus=1".parse::<FaultPlan>().is_err());
        assert!("alloc=1.5".parse::<FaultPlan>().is_err());
        assert!("alloc=-0.1".parse::<FaultPlan>().is_err());
        assert!("seed".parse::<FaultPlan>().is_err());
        assert!("seed=x".parse::<FaultPlan>().is_err());
        assert!("retries=-1".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn cancelled_is_not_injected_and_not_a_recovery() {
        let plan: FaultPlan = "alloc=1".parse().unwrap();
        let inj = FaultInjector::new(plan);
        let err = DeviceError::Cancelled(Cancelled {
            deadline_exceeded: true,
        });
        assert!(!err.is_injected(), "cancellation must not be retryable");
        inj.note_recovery(&err);
        assert_eq!(inj.stats().recovered(), 0);
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn rolls_are_deterministic_in_step_order() {
        let plan: FaultPlan = "seed=11,alloc=0.3,launch=0.3".parse().unwrap();
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let fire_a: Vec<bool> = (0..200).map(|_| a.roll_alloc().is_some()).collect();
        let fire_b: Vec<bool> = (0..200).map(|_| b.roll_alloc().is_some()).collect();
        assert_eq!(fire_a, fire_b);
        assert!(fire_a.iter().any(|&f| f), "rate 0.3 fires within 200 rolls");
        assert!(!fire_a.iter().all(|&f| f), "rate 0.3 is not always-on");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_rate_never_rolls_and_consumes_no_steps() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..100 {
            assert!(inj.roll_alloc().is_none());
            assert!(inj.roll_launch().is_none());
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn recovery_notes_count_by_kind() {
        let plan: FaultPlan = "alloc=1,launch=1".parse().unwrap();
        let inj = FaultInjector::new(plan);
        let oom_step = inj.roll_alloc().unwrap();
        let launch_step = inj.roll_launch().unwrap();
        let oom = DeviceError::Oom(DeviceOom {
            requested: 64,
            live: 0,
            capacity: usize::MAX,
            injected: true,
        });
        let launch = DeviceError::Launch(LaunchError {
            kernel: "k",
            step: launch_step,
        });
        assert!(oom.is_injected());
        assert!(launch.is_injected());
        let _ = oom_step;
        inj.note_recovery(&oom);
        inj.note_bitmap_fallback(&launch);
        inj.note_window_shrink();
        let stats = inj.stats();
        assert_eq!(stats.injected_allocs, 1);
        assert_eq!(stats.injected_launches, 1);
        assert_eq!(stats.alloc_recoveries, 1);
        assert_eq!(stats.launch_recoveries, 1);
        assert_eq!(stats.bitmap_fallbacks, 1);
        assert_eq!(stats.window_shrinks, 1);
        assert_eq!(stats.injected(), 2);
        assert_eq!(stats.recovered(), 2);
    }
}
