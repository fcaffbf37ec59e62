//! # gmc-dpp: virtual-GPU data-parallel primitives
//!
//! This crate is the execution substrate for the GPU maximum clique
//! reproduction. The paper's implementation is a sequence of CUDA kernel
//! launches interleaved with calls into NVIDIA's CUB library (scan, select,
//! segmented reduce, sort). Here the same execution model is provided on the
//! CPU:
//!
//! * [`Executor`] — a bulk-synchronous parallel executor backed by a
//!   persistent worker pool. Each [`Executor::run`] of a [`Launch`]
//!   descriptor is the analogue of one kernel launch: one *virtual thread*
//!   per element, a barrier at the end, and deterministic results
//!   regardless of worker count.
//! * [`exclusive_scan`], [`reduce`], [`select_if`], [`select_indices`],
//!   [`sort_pairs_u32`], [`run_starts`] — the CUB-style primitives the
//!   paper's Algorithms 1 and 2 are built from.
//! * [`DeviceMemory`] / [`DeviceBuffer`] — a capacity-bounded accounting
//!   allocator standing in for the GPU's on-board RAM. Exhausting it yields
//!   [`DeviceOom`], which is how the reproduction models the paper's
//!   out-of-memory outcomes (Table I, Fig. 6).
//! * [`rng`] — a deterministic SplitMix64-seeded xoshiro256** generator
//!   behind every seeded graph generator, corpus dataset and shuffle in the
//!   repo (no external `rand`).
//! * [`prop`] — a seeded property-testing harness (case generation plus
//!   bounded shrinking) behind the repo's property suites (no external
//!   `proptest`).
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`] that
//!   fails device-memory charges and `try_` launches at a configured rate,
//!   so the solver's recovery paths are continuously exercised
//!   (`GMC_FAULTS`, chaos CI).
//! * [`ScheduleStats`] — how evenly each pooled launch kept the workers
//!   busy. A pooled launch maps one contiguous chunk of its grid onto each
//!   worker, the only mapping the executor has.
//!
//! Determinism: every primitive in this crate returns byte-identical output
//! for a given input regardless of how many workers the executor has; all
//! parallel reductions combine partial results in chunk order.

#![warn(missing_docs)]

mod cancel;
mod executor;
pub mod fault;
mod memory;
pub mod prop;
mod rle;
pub mod rng;
mod scan;
mod select;
mod shared;
mod sort;
mod stats;

pub use cancel::{CancelToken, Cancelled};
pub use executor::{Executor, Launch, Schedule, DEFAULT_SEQUENTIAL_GRID_LIMIT};
pub use fault::{DeviceError, FaultInjector, FaultPlan, FaultStats, LaunchError};
pub use memory::{DeviceBuffer, DeviceMemory, DeviceOom, MemoryGuard};
pub use rle::{run_starts, try_run_starts};
pub use rng::Rng;
pub use scan::{
    exclusive_scan, exclusive_scan_by, exclusive_scan_by_into, exclusive_scan_into, reduce,
    reduce_by, try_exclusive_scan, try_exclusive_scan_into,
};
pub use select::{select_if, select_if_into, select_indices, try_select_indices};
pub use shared::{SharedSlice, UninitSlice};
pub use sort::{sort_pairs_u32, sort_u32};
pub use stats::{KernelStats, LaunchStats, ScheduleStats};

// Re-exported so executor users can install tracers without naming the
// trace crate (`exec.set_tracer(...)`, `memory.set_tracer(...)`).
pub use gmc_trace::{TraceSession, Tracer};

/// Bundles an executor with a device-memory budget: the "device" everything
/// in the reproduction runs on. Cloning shares both, and the shared
/// [`Executor`] pool runs one launch at a time, so solvers that run
/// concurrently need one executor each (see [`Device::from_parts`]).
#[derive(Clone)]
pub struct Device {
    exec: Executor,
    memory: DeviceMemory,
}

impl Device {
    /// A device with `workers` parallel workers and `capacity_bytes` of
    /// accountable memory.
    pub fn new(workers: usize, capacity_bytes: usize) -> Self {
        Self {
            exec: Executor::new(workers),
            memory: DeviceMemory::new(capacity_bytes),
        }
    }

    /// A device with default parallelism and effectively unlimited memory.
    pub fn unlimited() -> Self {
        Self {
            exec: Executor::with_default_parallelism(),
            memory: DeviceMemory::unlimited(),
        }
    }

    /// A device with default parallelism and the given memory budget.
    pub fn with_memory_budget(capacity_bytes: usize) -> Self {
        Self {
            exec: Executor::with_default_parallelism(),
            memory: DeviceMemory::new(capacity_bytes),
        }
    }

    /// Assembles a device from an existing executor and memory accountant —
    /// how a service builds its pool: one executor plus one
    /// [`DeviceMemory::partition`] share per pool slot.
    pub fn from_parts(exec: Executor, memory: DeviceMemory) -> Self {
        Self { exec, memory }
    }

    /// The bulk-synchronous executor.
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// The device memory accountant.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Arms (or with `None` disarms) fault injection on both halves of the
    /// device: the memory accountant rolls allocation faults, the executor
    /// rolls launch faults, and both share the injector's step counter and
    /// recovery tallies.
    pub fn set_fault_injector(&self, injector: Option<FaultInjector>) {
        self.memory.set_fault_injector(injector.clone());
        self.exec.set_fault_injector(injector);
    }

    /// Installs (or with `None` removes) a cooperative cancellation token
    /// on the executor (see [`Executor::set_cancel_token`]). Pipelines poll
    /// it at launch boundaries; a tripped token unwinds the solve with
    /// `DeviceError::Cancelled`, releasing every charge via RAII.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        self.exec.set_cancel_token(token);
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("workers", &self.exec.num_workers())
            .field("memory_capacity", &self.memory.capacity())
            .finish()
    }
}
