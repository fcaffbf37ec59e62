//! Scheduling integration: `Auto`'s cost-cut morsel claiming must actually
//! rebalance a starved grid, and the solver must plumb `ScheduleStats`
//! through `SolveStats`.

use std::time::{Duration, Instant};

use gpu_max_clique::dpp::DEFAULT_MORSEL_GRAIN;
use gpu_max_clique::graph::generators;
use gpu_max_clique::mce::MaxCliqueSolver;
use gpu_max_clique::prelude::{Device, Executor, Launch, Schedule};

/// Busy-work proportional to `units`; opaque to the optimiser so the loop
/// is real work, not a no-op.
fn burn(units: u64) {
    for i in 0..units * 400 {
        std::hint::black_box(i);
    }
}

/// A starved grid: the first `HEAVY` items carry ~90% of the total cost and
/// all land in worker 0's static chunk, so the static schedule serialises
/// almost the whole launch while dynamic claiming spreads it.
const GRID: usize = 4096;
const HEAVY: usize = 512;

fn item_cost(i: usize) -> u64 {
    if i < HEAVY {
        63
    } else {
        1
    }
}

/// One weighted launch over the starved grid.
fn run_starved(exec: &Executor) {
    let launch = Launch::new("starved_grid", GRID).weighted(&item_cost);
    exec.run(launch, |i| burn(item_cost(i)));
}

/// Minimum wall clock over `SAMPLES` runs per side, `(static, auto)`. The
/// two sides alternate run by run, each on its own executor, so a burst of
/// host noise lands on both instead of on whichever side ran during it;
/// the minimum is the most repeatable statistic for a deterministic
/// workload on a shared machine.
fn starved_walls(workers: usize) -> (Duration, Duration) {
    const SAMPLES: usize = 7;
    let sides = [Schedule::Static, Schedule::Auto].map(|schedule| {
        let exec = Executor::new(workers);
        exec.set_schedule(schedule);
        run_starved(&exec); // warm the pool
        exec
    });
    let mut best = [Duration::MAX; 2];
    for _ in 0..SAMPLES {
        for (slot, exec) in best.iter_mut().zip(&sides) {
            let start = Instant::now();
            run_starved(exec);
            *slot = (*slot).min(start.elapsed());
        }
    }
    (best[0], best[1])
}

#[test]
fn dynamic_schedule_beats_static_on_a_starved_grid() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        // With one core the schedules timeshare identically; nothing to
        // measure. The decomposition itself is covered by the determinism
        // suite and the dpp unit tests.
        eprintln!("skipping starvation timing: single-core machine");
        return;
    }
    let workers = cores.min(4);
    let (static_wall, dynamic_wall) = starved_walls(workers);
    // Static serialises ~90% of the work on one worker; with w >= 2 workers
    // Auto's cost-cut morsels bound the wall clock near total/w, a >= 1.8x
    // gap in theory. Gate at 1.25x to stay robust against scheduler noise.
    assert!(
        dynamic_wall * 5 <= static_wall * 4,
        "auto did not rebalance the starved grid: \
         dynamic {dynamic_wall:?} vs static {static_wall:?} on {workers} workers"
    );
}

#[test]
fn weighted_launches_feed_schedule_stats() {
    let exec = Executor::new(4);
    exec.set_schedule(Schedule::Auto);
    let launch = Launch::new("starved_grid", GRID).weighted(&item_cost);
    exec.run(launch, |i| {
        std::hint::black_box(i);
    });
    let stats = exec.schedule_stats();
    assert_eq!(stats.pool_launches, 1);
    assert_eq!(stats.dynamic_launches, 1);
    assert_eq!(stats.morsels, GRID.div_ceil(DEFAULT_MORSEL_GRAIN) as u64);
    assert!(stats.max_worker_morsels >= 1);
    assert!(stats.imbalance() >= 1.0 || stats.imbalance() == 0.0);
}

#[test]
fn solver_reports_schedule_stats_per_solve() {
    // Dense enough that the level grids clear the sequential-inline limit,
    // so the schedules actually reach the worker pool.
    let graph = generators::gnp(400, 0.2, 3);

    let dynamic = MaxCliqueSolver::new(Device::new(4, usize::MAX))
        .schedule(Schedule::Auto)
        .solve(&graph)
        .unwrap();
    assert!(dynamic.stats.sched.pool_launches > 0);
    assert!(
        dynamic.stats.sched.dynamic_launches > 0,
        "the fused pipeline issues cost-weighted launches"
    );
    assert!(dynamic.stats.sched.morsels >= dynamic.stats.sched.dynamic_launches);

    let static_run = MaxCliqueSolver::new(Device::new(4, usize::MAX))
        .schedule(Schedule::Static)
        .solve(&graph)
        .unwrap();
    assert_eq!(static_run.stats.sched.dynamic_launches, 0);
    assert_eq!(static_run.cliques, dynamic.cliques);

    // The installed schedule is restored after the solve: per-solve
    // configuration must not leak into the device.
    let device = Device::new(4, usize::MAX);
    device.exec().set_schedule(Schedule::Auto);
    MaxCliqueSolver::new(device.clone())
        .schedule(Schedule::Static)
        .solve(&graph)
        .unwrap();
    assert_eq!(device.exec().schedule(), Schedule::Auto);
}
