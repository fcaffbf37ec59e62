//! Cost-aware scheduling — `Auto`'s cost-cut morsel claiming vs static
//! chunks.
//!
//! `Schedule::Static` cuts a grid into one contiguous chunk per worker; a
//! front-loaded grid then serialises most of the work on worker 0.
//! `Schedule::Auto` decomposes a weighted launch into worker-count
//! independent morsels cut at equal summed cost and claimed from a shared
//! cursor. This bench measures the difference on adversarially skewed
//! grids where the per-item cost model is exact (the kernel burns work
//! proportional to the declared cost).
//!
//! Two modes:
//!
//! * Default: harness timings (`schedule/<grid>/<schedule>`) plus a sweep
//!   over grid shape × schedule saved as `schedule.json` (wall clock,
//!   speedup over static, morsel and balance counters).
//! * `GMC_PERF_GATE=1`: CI gate. On the front-loaded grid `Auto` must beat
//!   static chunking by ≥1.3×; on the uniform grid it must stay within
//!   1.05× (claiming overhead in the noise); and with `Auto` installed,
//!   weighted launches on grids at or below the sequential-inline limit
//!   must keep the zero-overhead inline path — the added cost is gated at
//!   <1% of a pooled 10k exclusive scan.

use std::process::ExitCode;
use std::time::Instant;

use gmc_bench::{impl_to_json, print_table, save_json, BenchEnv};
use gmc_dpp::{Executor, Launch, Schedule};

/// Grid size: well past the sequential-inline limit, so every launch takes
/// the worker pool.
const GRID: usize = 8192;

/// Inline-path probe size: at or below the default sequential limit.
const INLINE_GRID: usize = 1024;

/// Spin iterations per declared cost unit (~tens of nanoseconds each).
const SPIN_PER_UNIT: u64 = 50;

/// Busy-work proportional to `units`, opaque to the optimiser.
fn burn(units: u64) {
    for i in 0..units * SPIN_PER_UNIT {
        std::hint::black_box(i);
    }
}

/// The benchmarked grid shapes, as per-item cost vectors.
///
/// * `skewed_front` — the first eighth carries ~90% of the total cost and
///   lands entirely inside worker 0's static chunk: the starvation case.
/// * `powerlaw` — zipf-like decreasing cost, the shape of degree-sorted
///   vertex grids.
/// * `uniform` — every item equal: dynamic claiming must cost nothing.
fn grids() -> Vec<(&'static str, Vec<u64>)> {
    let skewed_front = (0..GRID)
        .map(|i| if i < GRID / 8 { 63 } else { 1 })
        .collect();
    let powerlaw = (0..GRID)
        .map(|i| GRID as u64 / (i as u64 + 1) + 1)
        .collect();
    let uniform = vec![8u64; GRID];
    vec![
        ("skewed_front", skewed_front),
        ("powerlaw", powerlaw),
        ("uniform", uniform),
    ]
}

fn schedules() -> [(&'static str, Schedule); 2] {
    [("static", Schedule::Static), ("auto", Schedule::Auto)]
}

/// Worker count for timing: at least two so the pool (and the imbalance)
/// is real even on a single-core machine.
fn gate_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2)
}

fn run_weighted(exec: &Executor, costs: &[u64]) {
    let cost = |i: usize| costs[i];
    let launch = Launch::new("schedule_grid", costs.len()).weighted(&cost);
    exec.run(launch, |i| burn(costs[i]));
}

/// Minimum wall-clock milliseconds over `samples` interleaved batches, one
/// executor per schedule so pool state is comparable across sides.
fn paired_wall_ms(samples: usize, workers: usize, costs: &[u64]) -> Vec<f64> {
    let sides: Vec<Executor> = schedules()
        .iter()
        .map(|(_, schedule)| {
            let exec = Executor::new(workers);
            exec.set_schedule(*schedule);
            exec
        })
        .collect();
    for exec in &sides {
        run_weighted(exec, costs); // warm the pool and the caches
    }
    let mut best = vec![f64::INFINITY; sides.len()];
    for _ in 0..samples.max(1) {
        for (slot, exec) in sides.iter().enumerate() {
            let start = Instant::now();
            run_weighted(exec, costs);
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

struct ScheduleRow {
    grid: String,
    schedule: String,
    workers: u64,
    wall_ms: f64,
    speedup_vs_static: f64,
    morsels: u64,
    max_worker_morsels: u64,
    imbalance: f64,
}

impl_to_json!(ScheduleRow {
    grid,
    schedule,
    workers,
    wall_ms,
    speedup_vs_static,
    morsels,
    max_worker_morsels,
    imbalance
});

/// One sweep over grid shape × schedule: timings plus the deterministic
/// morsel/balance counters from `ScheduleStats`.
fn sweep(samples: usize, workers: usize) -> Vec<ScheduleRow> {
    let mut rows = Vec::new();
    for (grid_name, costs) in grids() {
        let walls = paired_wall_ms(samples, workers, &costs);
        let static_ms = walls[0];
        for ((schedule_name, schedule), wall_ms) in schedules().iter().zip(&walls) {
            let exec = Executor::new(workers);
            exec.set_schedule(*schedule);
            let before = exec.schedule_stats();
            run_weighted(&exec, &costs);
            let delta = exec.schedule_stats().since(&before);
            rows.push(ScheduleRow {
                grid: grid_name.to_string(),
                schedule: schedule_name.to_string(),
                workers: workers as u64,
                wall_ms: *wall_ms,
                speedup_vs_static: static_ms / wall_ms.max(1e-12),
                morsels: delta.morsels,
                max_worker_morsels: delta.max_worker_morsels,
                imbalance: delta.imbalance(),
            });
        }
    }
    rows
}

fn print_sweep(rows: &[ScheduleRow]) {
    println!("\n-- Wall clock and balance per grid shape × schedule --");
    print_table(
        &[
            "Grid",
            "Schedule",
            "Wall ms",
            "vs static",
            "Morsels",
            "Max/worker",
            "Imbalance",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.grid.clone(),
                    r.schedule.clone(),
                    format!("{:.3}", r.wall_ms),
                    format!("{:.2}", r.speedup_vs_static),
                    r.morsels.to_string(),
                    r.max_worker_morsels.to_string(),
                    format!("{:.2}", r.imbalance),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn bench() {
    let mut harness = gmc_bench::harness::Harness::from_args();
    let workers = gate_workers();
    let mut group = harness.group("schedule");
    for (grid_name, costs) in grids() {
        for (schedule_name, schedule) in schedules() {
            let exec = Executor::new(workers);
            exec.set_schedule(schedule);
            group.bench(&format!("{grid_name}/{schedule_name}"), |b| {
                b.iter(|| run_weighted(&exec, &costs));
            });
        }
    }
    group.finish();

    let samples: usize = gmc_trace::env::parse_or("GMC_BENCH_SAMPLES", 5);
    let rows = sweep(samples, workers);
    print_sweep(&rows);
    save_json(&BenchEnv::from_env(), "schedule", rows.as_slice());
    harness.finish();
}

/// Paired per-launch nanoseconds `(static, auto)` for an inline-sized
/// weighted launch — both sides must take the sequential path, so `Auto`
/// may not add anything measurable (no cost planning, no claiming).
fn paired_inline_ns(samples: usize) -> (f64, f64) {
    let static_exec = Executor::new(gate_workers());
    static_exec.set_schedule(Schedule::Static);
    let auto_exec = Executor::new(gate_workers());
    auto_exec.set_schedule(Schedule::Auto);
    let cost = |i: usize| (i % 7) as u64;
    let run = |exec: &Executor| {
        let launch = Launch::new("inline_probe", INLINE_GRID).weighted(&cost);
        exec.run(launch, |i| {
            std::hint::black_box(i);
        });
    };
    let start = Instant::now();
    run(&static_exec);
    run(&auto_exec);
    let per_iter = (start.elapsed().as_secs_f64() / 2.0).max(1e-9);
    let iters = ((0.020 / per_iter).ceil() as usize).clamp(1, 1_000_000);
    for _ in 0..2 * iters {
        run(&static_exec); // warmup
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..samples.max(1) {
        for (slot, exec) in [(0, &static_exec), (1, &auto_exec)] {
            let start = Instant::now();
            for _ in 0..iters {
                run(exec);
            }
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }
    (best[0], best[1])
}

/// Reference cost for the inline gate: one pooled 10k exclusive scan.
fn pooled_scan_ns(samples: usize) -> f64 {
    let exec = Executor::new(gate_workers());
    let input: Vec<usize> = (0..10_000).map(|i| i % 13).collect();
    gmc_dpp::exclusive_scan(&exec, &input);
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        for _ in 0..20 {
            gmc_dpp::exclusive_scan(&exec, &input);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / 20.0);
    }
    best
}

fn gate() -> ExitCode {
    let samples: usize = gmc_trace::env::parse_or("GMC_BENCH_SAMPLES", 5);
    let workers = gate_workers();
    let mut failed = false;

    println!("-- Perf gate: auto scheduling vs static chunks ({workers} workers) --");
    let rows = sweep(samples, workers);
    print_sweep(&rows);
    let wall = |grid: &str, schedule: &str| {
        rows.iter()
            .find(|r| r.grid == grid && r.schedule == schedule)
            .map(|r| r.wall_ms)
            .expect("sweep covers every cell")
    };

    // 1. Front-loaded grid: cost-cut claiming must actually rebalance. The
    //    static side serialises ~90% of the work, so even two workers give
    //    ~1.8×.
    //    On a single hardware thread every schedule timeshares identically
    //    and no speedup is physically possible, so the check needs ≥2 cores.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores >= 2 {
        let speedup = wall("skewed_front", "static") / wall("skewed_front", "auto");
        let skew_ok = speedup >= 1.3;
        println!(
            "\nskewed_front: auto {speedup:.2}× over static (gate ≥1.3×) {}",
            if skew_ok { "ok" } else { "FAIL" }
        );
        failed |= !skew_ok;
    } else {
        println!("\nskewed_front speedup check skipped: single-core machine");
    }

    // 2. Uniform grid: claiming overhead must stay in the noise band.
    let ratio = wall("uniform", "auto") / wall("uniform", "static");
    let uniform_ok = ratio <= 1.05;
    println!(
        "uniform: auto {ratio:.3}× static (gate ≤1.05×) {}",
        if uniform_ok { "ok" } else { "FAIL" }
    );
    failed |= !uniform_ok;

    // 3. Inline path: grids at or below the sequential limit never touch
    //    the schedule, so installing `Auto` may add at most 1% of a pooled
    //    10k scan to a weighted launch.
    let (static_ns, auto_ns) = paired_inline_ns(samples);
    let scan_ns = pooled_scan_ns(samples);
    let added_pct = 100.0 * (auto_ns - static_ns) / scan_ns;
    let inline_ok = added_pct < 1.0;
    println!(
        "inline {INLINE_GRID}-item weighted launch: static {static_ns:.0} ns, auto-installed \
         {auto_ns:.0} ns — adds {added_pct:+.3}% of a pooled 10k scan (gate <1%) {}",
        if inline_ok { "ok" } else { "FAIL" }
    );
    failed |= !inline_ok;

    if failed {
        eprintln!("schedule gate FAILED");
        ExitCode::FAILURE
    } else {
        println!("schedule gate passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    if std::env::var("GMC_PERF_GATE").as_deref() == Ok("1") {
        gate()
    } else {
        bench();
        ExitCode::SUCCESS
    }
}
