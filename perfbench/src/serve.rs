//! The `serve-open` workload: small-tier graphs sent to one `SolveService`
//! by a seeded open-loop generator, then the same job list re-sent back to
//! back as a saturation burst. A standalone replay of every distinct graph
//! with its admission verdict supplies the memory and window figures the
//! service does not expose.

use crate::layers::{self, ms, peak_mib, LayerSample};
use crate::stats::{mean, median, quantile, ratio, Metrics};
use crate::workload::{check, load, mix, reference_for, reference_table, seeded_spec, Reference};
use crate::{Options, Outcome};
use gmc_corpus::Tier;
use gmc_dpp::{Device, Rng, Tracer};
use gmc_graph::Csr;
use gmc_mce::{MaxCliqueSolver, SolveResult, SolveStats};
use gmc_serve::{
    admit, graph_fingerprint, Admission, CachedSolve, JobHandle, ServeConfig, ServeError,
    ServedSolve, SolveJob, SolveService,
};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` reports their median.
const SETUPS: usize = 3;
/// Distinct relabelled copies of each serve-open graph: every copy's first
/// send is a cache miss. A batch workload's probe sends each graph once.
const ROUNDS: u64 = 2;
/// Share of the run spent in the open-loop phase; the burst and the timed
/// replays take the rest.
const OPEN_LOOP_SHARE: f64 = 0.45;
/// Share of the run the timed replays take, in whole passes (at least one).
const REPLAY_SHARE: f64 = 0.25;
/// Times the open-loop job list is re-sent back to back in the burst.
const BURST_PASSES: usize = 3;
/// Threads blocked on job handles, so completions are timed as they happen.
const WAITERS: usize = 16;
/// Generator lag (p99) beyond which the open loop is flagged invalid.
const MAX_VALID_LAG_MS: f64 = 5.0;
const SLOTS: usize = 2;
pub const DEVICE_BYTES: usize = 8 << 20;
const QUEUE_DEPTH: usize = 256;

struct Distinct {
    graph: Arc<Csr>,
    /// Index into `Setup::names` (the underlying corpus dataset).
    dataset: usize,
}

struct Setup {
    names: Vec<String>,
    references: Vec<Reference>,
    distinct: Vec<Distinct>,
    load_ms: Vec<f64>,
}

/// Open-loop arrival rate (Poisson), jobs per second, fixed per tier so
/// every commit is offered the same load. Both were set once on the record
/// host (2 vCPUs) to rates the generator meets within [`MAX_VALID_LAG_MS`]
/// and the slots serve far below their burst throughput: serve-open (small
/// tier) and sparse-wide's serve probe (full tier, whose fingerprints cost
/// milliseconds).
fn arrival_rate(tier: Tier) -> f64 {
    match tier {
        Tier::Smoke | Tier::Small => 140.0,
        Tier::Full => 40.0,
    }
}

fn serve_config(opts: &Options) -> ServeConfig {
    ServeConfig::default()
        .pool(SLOTS)
        .workers_per_slot(1)
        .queue_depth(QUEUE_DEPTH)
        .device_bytes(opts.budget_bytes_serve)
}

fn partition_bytes(opts: &Options) -> usize {
    opts.budget_bytes_serve / SLOTS
}

fn set_up(opts: &Options, rounds: u64, tracer: &Tracer) -> Result<Setup, String> {
    let table = reference_table();
    let mut setup = Setup {
        names: Vec::new(),
        references: Vec::new(),
        distinct: Vec::new(),
        load_ms: Vec::new(),
    };
    for (dataset, name) in opts.workload.datasets().into_iter().enumerate() {
        let input = {
            let _span = tracer.span("corpus.load");
            load(&seeded_spec(opts.tier, &name, opts.seed))
        };
        setup
            .references
            .push(reference_for(&table, opts.tier, &input)?);
        setup.load_ms.push(input.load_ms);
        let graph = Arc::new(input.graph);
        let copies: Vec<Csr> = (1..rounds)
            .map(|round| {
                graph
                    .randomize_vertex_ids(mix(mix(opts.seed, round), dataset as u64))
                    .0
            })
            .collect();
        setup.distinct.push(Distinct { graph, dataset });
        for copy in copies {
            setup.distinct.push(Distinct {
                graph: Arc::new(copy),
                dataset,
            });
        }
        setup.names.push(name);
    }
    Ok(setup)
}

/// One job of the seeded list: which distinct graph, and when it is due.
#[derive(Clone, Copy)]
struct Job {
    distinct: usize,
    due: Duration,
}

/// The open-loop job list. Every distinct graph is sent once as a
/// first-seen miss, at an even spacing, in one fixed order that spreads
/// each corpus category evenly over the phase: the slow windowed solves
/// of one family never queue behind each other, under any seed. Between
/// them, repeats arrive as a seeded Poisson process at `rate`, each drawn
/// uniformly from the answered graphs already sent (a client does not
/// re-send a job that failed). A repeat is a hit once the first answer is
/// cached; one sent while the first is still being solved is a second miss,
/// because the service does not merge in-flight jobs.
fn job_list(setup: &Setup, answered: &[bool], seed: u64, seconds: f64, rate: f64) -> Vec<Job> {
    let count = setup.distinct.len();
    let category = |d: usize| {
        let name = &setup.names[setup.distinct[d].dataset];
        name[..name.rfind('-').unwrap_or(name.len())].to_string()
    };
    let mut position = vec![0.0; count];
    let mut seen: Vec<(String, Vec<usize>)> = Vec::new();
    for d in 0..count {
        let key = category(d);
        match seen.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(d),
            None => seen.push((key, vec![d])),
        }
    }
    for (_, members) in &seen {
        for (k, &d) in members.iter().enumerate() {
            position[d] = (k as f64 + 0.5) / members.len() as f64;
        }
    }
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by(|&a, &b| position[a].total_cmp(&position[b]));
    let spacing = seconds / count as f64;
    let misses: Vec<(f64, usize)> = order
        .into_iter()
        .enumerate()
        .map(|(k, distinct)| ((k as f64 + 0.5) * spacing, distinct))
        .collect();
    let mut rng = Rng::seed_from_u64(mix(seed, 0x5e7e));
    let mut jobs: Vec<Job> = Vec::new();
    let mut first_sent = misses.iter().peekable();
    let mut repeatable: Vec<usize> = Vec::new();
    let mut t = 0.0f64;
    loop {
        let uniform = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - uniform).ln() / rate;
        if t >= seconds {
            break;
        }
        while let Some(&&(at, distinct)) = first_sent.peek().filter(|m| m.0 <= t) {
            jobs.push(Job {
                distinct,
                due: Duration::from_secs_f64(at),
            });
            if answered[distinct] {
                repeatable.push(distinct);
            }
            first_sent.next();
        }
        if !repeatable.is_empty() {
            jobs.push(Job {
                distinct: repeatable[(rng.next_u64() % repeatable.len() as u64) as usize],
                due: Duration::from_secs_f64(t),
            });
        }
    }
    jobs.extend(first_sent.map(|&(at, distinct)| Job {
        distinct,
        due: Duration::from_secs_f64(at),
    }));
    jobs
}

/// What happened to one sent job.
struct Record {
    distinct: usize,
    due: Duration,
    lag_ms: f64,
    latency_ms: f64,
    queue_wait_ms: f64,
    outcome: Result<Arc<CachedSolve>, ServeError>,
}

type Sent = (usize, Duration, JobHandle);
type Done = (usize, Duration, Duration, Result<ServedSolve, ServeError>);

/// Sends `jobs` on their schedule with `try_submit` (`open_loop`), or back
/// to back with blocking `submit`. A pool of waiter threads blocks on the
/// handles, so each completion is timed when it happens; returns the
/// records and the time from the first send to the last completion.
fn drive(
    service: &SolveService,
    setup: &Setup,
    jobs: &[Job],
    open_loop: bool,
    tracer: &Tracer,
) -> (Vec<Record>, Duration) {
    let start = Instant::now();
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let sent_rx = Mutex::new(sent_rx);
    std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            let (sent_rx, done_tx) = (&sent_rx, done_tx.clone());
            scope.spawn(move || loop {
                let next = sent_rx.lock().expect("waiter lock poisoned").recv();
                let Ok((i, sent, handle)) = next else { break };
                let outcome = handle.wait();
                let _ = done_tx.send((i, sent, start.elapsed(), outcome));
            });
        }
        for (i, job) in jobs.iter().enumerate() {
            if open_loop {
                std::thread::sleep(job.due.saturating_sub(start.elapsed()));
            }
            let sent = start.elapsed();
            let solve = SolveJob::new(Arc::clone(&setup.distinct[job.distinct].graph))
                .config(crate::batch::default_config());
            let submitted = {
                let _span = tracer.span_with("serve.submit", &[("id", i as i64)]);
                if open_loop {
                    service.try_submit(solve)
                } else {
                    service.submit(solve)
                }
            };
            match submitted {
                Ok(handle) => sent_tx
                    .send((i, sent, handle))
                    .expect("waiters outlive the sender"),
                Err(err) => done_tx
                    .send((i, sent, sent, Err(err)))
                    .expect("receiver is alive"),
            }
        }
        drop(sent_tx);
        drop(done_tx);
    });
    let mut records: Vec<Option<Record>> = (0..jobs.len()).map(|_| None).collect();
    let mut last = Duration::ZERO;
    for (i, sent, done, outcome) in done_rx {
        last = last.max(done);
        let due = if open_loop { jobs[i].due } else { sent };
        let queue_wait = outcome.as_ref().map_or(Duration::ZERO, |s| s.queue_wait);
        records[i] = Some(Record {
            distinct: jobs[i].distinct,
            due: jobs[i].due,
            lag_ms: ms(sent.saturating_sub(due)),
            latency_ms: ms(done.saturating_sub(due)),
            queue_wait_ms: ms(queue_wait),
            outcome: outcome.map(|served| served.solve),
        });
    }
    (
        records
            .into_iter()
            .map(|r| r.expect("every job recorded"))
            .collect(),
        last,
    )
}

/// Checks every served answer against the reference, and every repeat of a
/// graph (hit or miss) bit for bit against its first answer.
fn verify_records(setup: &Setup, records: &[Record], tracer: &Tracer) -> Result<(), String> {
    let _span = tracer.span("verify");
    let mut first: Vec<Option<Arc<CachedSolve>>> = vec![None; setup.distinct.len()];
    for record in records {
        let Ok(solve) = &record.outcome else {
            continue;
        };
        let distinct = &setup.distinct[record.distinct];
        let name = &setup.names[distinct.dataset];
        match &first[record.distinct] {
            Some(seen) if Arc::ptr_eq(seen, solve) => {}
            Some(seen) if **seen != **solve => {
                return Err(format!(
                    "{name}: a repeated job's answer differs from the first answer"
                ));
            }
            Some(_) => {}
            None => {
                let result = SolveResult {
                    clique_number: solve.clique_number,
                    cliques: solve.cliques.clone(),
                    complete_enumeration: solve.complete_enumeration,
                    stats: SolveStats::default(),
                };
                check(
                    name,
                    &distinct.graph,
                    &setup.references[distinct.dataset],
                    &result,
                )?;
                first[record.distinct] = Some(Arc::clone(solve));
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct Replay {
    answered: Vec<bool>,
    down_windowed: Vec<bool>,
    solve_ms: Vec<f64>,
    solved_edges: f64,
    peaks_mib: Vec<f64>,
    fingerprint_ms: Vec<f64>,
    admit_ms: Vec<f64>,
    window_ms: Vec<f64>,
    window_count: Vec<f64>,
    window_peak_mib: Vec<f64>,
    window_splits: f64,
    samples: Vec<LayerSample>,
}

/// Solves every distinct graph outside the service, with the admission
/// verdict applied, on a device like one slot's (1 worker, one partition):
/// which graphs the service can answer, and the per-solve memory peaks and
/// window counters it does not expose. Traced, each solve is split into its
/// phases.
fn replay(opts: &Options, setup: &Setup, tracer: &Tracer) -> Result<Replay, String> {
    let mut out = Replay::default();
    let device = Device::new(1, partition_bytes(opts));
    for distinct in &setup.distinct {
        let graph = &distinct.graph;
        let name = &setup.names[distinct.dataset];
        let start = Instant::now();
        {
            let _span = tracer.span("serve.fingerprint");
            std::hint::black_box(graph_fingerprint(graph));
        }
        out.fingerprint_ms.push(ms(start.elapsed()));
        let mut config = crate::batch::default_config();
        let start = Instant::now();
        let verdict = {
            let _span = tracer.span("serve.admit");
            admit(graph, &config, device.memory().capacity())
        };
        out.admit_ms.push(ms(start.elapsed()));
        out.answered.push(false);
        out.down_windowed
            .push(matches!(verdict, Admission::DownWindow(_)));
        match verdict {
            Admission::Reject { .. } => continue,
            Admission::Accept => {}
            Admission::DownWindow(window) => config.window = Some(window),
            Admission::DemotePersistentBits => config.local_bits = gmc_mce::LocalBitsMode::On,
        }
        let start = Instant::now();
        let outcome = {
            let _span = tracer.span("mce.window_replay");
            if tracer.is_enabled() {
                let id = out.samples.len() as i64;
                layers::probe_layers(&device, graph, &config, tracer, id).map(|sample| {
                    let result = (sample.result.clone(), sample.solve_ms);
                    out.samples.push(sample);
                    result
                })
            } else {
                let solved =
                    MaxCliqueSolver::with_config(device.clone(), config.clone()).solve(graph);
                solved.map(|result| (result, ms(start.elapsed())))
            }
        };
        let solve_ms = outcome
            .as_ref()
            .map_or_else(|_| ms(start.elapsed()), |(_, t)| *t);
        out.solve_ms.push(solve_ms);
        out.solved_edges += graph.num_edges() as f64;
        let Ok((result, _)) = outcome else {
            continue;
        };
        check(name, graph, &setup.references[distinct.dataset], &result)?;
        *out.answered.last_mut().expect("pushed above") = true;
        out.peaks_mib.push(peak_mib(&result));
        if let Some(w) = config.window.and(result.stats.window.as_ref()) {
            out.window_ms.push(solve_ms);
            out.window_count.push(w.num_windows as f64);
            out.window_peak_mib
                .push(w.peak_window_bytes as f64 / (1 << 20) as f64);
            out.window_splits += w.window_splits as f64;
        }
    }
    Ok(out)
}

struct RunResult {
    metrics: Metrics,
    layer: Metrics,
    replay: Replay,
    attempted: u64,
    failed: u64,
}

/// One open-loop phase on a fresh service, the same job list sent back to
/// back [`BURST_PASSES`] times to the now-warm service, then a timed replay
/// of every distinct graph: the solve times the service does not expose.
fn run_once(
    opts: &Options,
    setup: &Setup,
    replayed: &Replay,
    service: SolveService,
    seconds: f64,
    tracer: &Tracer,
) -> Result<RunResult, String> {
    let jobs = job_list(
        setup,
        &replayed.answered,
        opts.seed,
        seconds * OPEN_LOOP_SHARE,
        arrival_rate(opts.tier),
    );
    let (open, _) = drive(&service, setup, &jobs, true, tracer);
    let open_stats = service.stats();
    let burst_jobs: Vec<Job> = (0..BURST_PASSES)
        .flat_map(|_| jobs.iter().copied())
        .collect();
    let (burst, burst_wall) = drive(&service, setup, &burst_jobs, false, tracer);
    drop(service.shutdown());
    verify_records(setup, &open, tracer)?;
    verify_records(setup, &burst, tracer)?;
    let mut timed = replay(opts, setup, tracer)?;
    let replay_start = Instant::now();
    while replay_start.elapsed().as_secs_f64() < seconds * REPLAY_SHARE {
        let again = replay(opts, setup, &Tracer::disabled())?;
        timed.solve_ms.extend(again.solve_ms);
        timed.solved_edges += again.solved_edges;
    }

    let failed = open
        .iter()
        .chain(&burst)
        .filter(|r| r.outcome.is_err())
        .count() as u64;
    let attempted = (open.len() + burst.len()) as u64;
    let answered = |r: &&Record| r.outcome.is_ok();
    // Latency percentiles per second of the phase, then the median over the
    // seconds: one chance pile-up of slow misses moves one second, not the
    // run's figure.
    let mut seconds_of: Vec<Vec<f64>> = Vec::new();
    for r in open.iter().filter(answered) {
        let second = r.due.as_secs() as usize;
        if seconds_of.len() <= second {
            seconds_of.resize(second + 1, Vec::new());
        }
        seconds_of[second].push(r.latency_ms);
    }
    seconds_of.retain(|s| !s.is_empty());
    let per_second = |q: f64| -> Vec<f64> { seconds_of.iter().map(|s| quantile(s, q)).collect() };
    let lags: Vec<f64> = open.iter().map(|r| r.lag_ms).collect();
    let lag_p99 = quantile(&lags, 0.99);
    let burst_answered = burst.iter().filter(answered).count() as f64;

    let mut m = Metrics::default();
    m.set(
        "edges_per_s",
        ratio(timed.solved_edges, timed.solve_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.set("solve_ms_p50", quantile(&timed.solve_ms, 0.5), "ms");
    m.set("solve_ms_p90", quantile(&timed.solve_ms, 0.9), "ms");
    m.set("peak_device_mib", mean(&replayed.peaks_mib), "MiB");
    m.set(
        "success_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "frac",
    );
    m.set("job_latency_ms_p50", median(&per_second(0.5)), "ms");
    m.set("job_latency_ms_p99", median(&per_second(0.99)), "ms");
    m.set(
        "jobs_per_s",
        ratio(burst_answered, burst_wall.as_secs_f64()),
        "1/s",
    );

    let down_window_failures = open
        .iter()
        .filter(|r| r.outcome.is_err() && replayed.down_windowed[r.distinct])
        .count();
    let waits: Vec<f64> = open
        .iter()
        .filter(answered)
        .map(|r| r.queue_wait_ms)
        .collect();
    let valid = lag_p99 <= MAX_VALID_LAG_MS;
    let mut l = Metrics::default();
    l.set("serve.queue_wait_ms_p50", quantile(&waits, 0.5), "ms");
    l.set("serve.queue_wait_ms_p99", quantile(&waits, 0.99), "ms");
    l.set(
        "serve.solve_ms_mean",
        ratio(
            ms(open_stats.solve_time),
            open_stats
                .cache_misses
                .saturating_sub(open_stats.rejections) as f64,
        ),
        "ms",
    );
    l.set("serve.hit_frac", open_stats.hit_rate(), "frac");
    l.set(
        "serve.down_windows",
        open_stats.down_windows as f64,
        "count",
    );
    l.set("serve.rejections", open_stats.rejections as f64, "count");
    l.set(
        "serve.down_window_failures",
        down_window_failures as f64,
        "count",
    );
    l.set("serve.generator_lag_ms_p99", lag_p99, "ms");
    l.set(
        "serve.open_loop_valid",
        if valid { 1.0 } else { 0.0 },
        "bool",
    );
    l.set("serve.fingerprint_ms", mean(&timed.fingerprint_ms), "ms");
    l.set("serve.admit_ms", mean(&timed.admit_ms), "ms");
    l.set("window.solve_ms", mean(&timed.window_ms), "ms");
    l.set("window.count", mean(&timed.window_count), "count");
    l.set("window.peak_mib", mean(&timed.window_peak_mib), "MiB");
    l.set("window.splits", timed.window_splits, "count");
    eprintln!(
        "serve: {} open-loop jobs ({} hits, {} failed), {} burst jobs in {:.2} s, \
         generator lag p99 {lag_p99:.3} ms{}",
        open.len(),
        open_stats.cache_hits,
        open.iter().filter(|r| r.outcome.is_err()).count(),
        burst.len(),
        burst_wall.as_secs_f64(),
        if valid {
            ""
        } else {
            " — INVALID: the generator fell behind its schedule"
        }
    );
    Ok(RunResult {
        metrics: m,
        layer: l,
        replay: timed,
        attempted,
        failed,
    })
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let session = gmc_trace::TraceSession::new();
    let tracer = if opts.trace {
        session.tracer()
    } else {
        Tracer::disabled()
    };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let start = Instant::now();
        let setup = set_up(opts, ROUNDS, &tracer)?;
        let service = SolveService::start(serve_config(opts));
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((setup, service));
    }
    let (setup, service) = prepared.expect("at least one set-up");

    // Untimed warm-up: every distinct graph solved once outside the service,
    // which also tells which graphs the service can answer.
    let replayed = replay(opts, &setup, &Tracer::disabled())?;

    if !opts.trace {
        let run = run_once(opts, &setup, &replayed, service, opts.seconds, &tracer)?;
        let mut metrics = run.metrics;
        metrics.set("setup_s", median(&setup_s), "s");
        return Ok(Outcome {
            attempted: run.attempted,
            failed: run.failed,
            metrics,
        });
    }

    // Traced run: the workload untraced and traced for the overhead; the
    // traced replay splits each solve into its phases.
    let half = opts.seconds / 2.0;
    let untraced = run_once(opts, &setup, &replayed, service, half, &Tracer::disabled())?;
    let service = SolveService::start(serve_config(opts));
    let traced = run_once(opts, &setup, &replayed, service, half, &tracer)?;
    let mut metrics = Metrics::default();
    metrics.set("corpus.load_ms", mean(&setup.load_ms), "ms");
    metrics.extend(traced.layer);
    metrics.extend(layers::layer_metrics(
        &traced.replay.samples,
        Duration::ZERO,
    ));
    metrics.extend(layers::calibrate(opts.workers, &tracer));
    metrics.extend(layers::oracle_probes(
        crate::probe_graph(setup.distinct.iter().map(|d| &*d.graph)),
        opts.workers,
        &tracer,
    ));
    metrics.set(
        "trace.overhead_frac",
        ratio(
            traced.metrics.get("job_latency_ms_p50"),
            untraced.metrics.get("job_latency_ms_p50"),
        ) - 1.0,
        "frac",
    );
    let timeline = session.finish();
    metrics.extend(layers::self_time_metrics(&timeline));
    crate::write_trace(opts, &timeline);
    Ok(Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
    })
}

/// The serve and window layers for a batch workload's traced run: its own
/// graphs sent through a service that splits the batch device budget
/// between [`SLOTS`] partitions, for a third of the run.
pub fn probe(opts: &Options, tracer: &Tracer) -> Result<Metrics, String> {
    let setup = set_up(opts, 1, &Tracer::disabled())?;
    let replayed = replay(opts, &setup, &Tracer::disabled())?;
    let service = SolveService::start(serve_config(opts));
    Ok(run_once(opts, &setup, &replayed, service, opts.seconds / 3.0, tracer)?.layer)
}
