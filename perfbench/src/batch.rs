//! The three batch workloads: one closed-loop client solving every graph
//! of the workload in turn on one budgeted 2-worker device.

use crate::layers::{self, ms, peak_mib, LayerSample};
use crate::stats::{mean, median, quantile, ratio, Metrics};
use crate::workload::{check, load, reference_for, reference_table, seeded_spec, Input, Reference};
use crate::{Options, Outcome};
use gmc_dpp::{Device, Tracer};
use gmc_mce::{EdgeIndexKind, LocalBitsMode, MaxCliqueSolver, SolverConfig};
use gmc_pmc::ParallelBranchBound;
use std::time::Instant;

/// Set-up repetitions; `setup_s` reports their median.
const SETUPS: usize = 5;

struct Setup {
    inputs: Vec<Input>,
    references: Vec<Reference>,
    device: Device,
}

fn set_up(opts: &Options, tracer: &Tracer) -> Result<Setup, String> {
    let table = reference_table();
    let mut inputs = Vec::new();
    let mut references = Vec::new();
    for name in opts.workload.datasets() {
        let input = {
            let _span = tracer.span("corpus.load");
            load(&seeded_spec(opts.tier, &name, opts.seed))
        };
        references.push(reference_for(&table, opts.tier, &input)?);
        inputs.push(input);
    }
    let device = Device::new(opts.workers, opts.budget_bytes);
    device.exec().set_launch_overhead(opts.launch_overhead);
    Ok(Setup {
        inputs,
        references,
        device,
    })
}

/// The configuration every batch solve uses: the solver defaults, with the
/// environment-overridable knobs pinned so no `GMC_*` variable leaks in.
pub fn default_config() -> SolverConfig {
    SolverConfig {
        local_bits: LocalBitsMode::Auto,
        schedule: gmc_dpp::Schedule::Auto,
        faults: None,
        ..SolverConfig::default()
    }
}

struct Attempt {
    /// The pass the attempt belongs to.
    pass: usize,
    edges: usize,
    wall_ms: f64,
    peak_mib: Option<f64>,
}

/// Solves every input once, checking each answer. Failed solves (OOM or a
/// typed error) are recorded; a wrong answer aborts the run.
fn pass(
    setup: &Setup,
    config: &SolverConfig,
    tracer: &Tracer,
    out: &mut Vec<Attempt>,
) -> Result<(), String> {
    let solver = MaxCliqueSolver::with_config(setup.device.clone(), config.clone());
    let pass = out.last().map_or(0, |a| a.pass + 1);
    for (id, (input, reference)) in setup.inputs.iter().zip(&setup.references).enumerate() {
        let _job = tracer.span_with("job", &[("id", out.len() as i64), ("graph", id as i64)]);
        let start = Instant::now();
        let outcome = {
            let _span = tracer.span("mce.solve");
            solver.solve(&input.graph)
        };
        let wall_ms = ms(start.elapsed());
        let peak = match outcome {
            Ok(result) => {
                let _span = tracer.span("verify");
                check(&input.name, &input.graph, reference, &result)?;
                Some(peak_mib(&result))
            }
            Err(_) => None,
        };
        out.push(Attempt {
            pass,
            edges: input.graph.num_edges(),
            wall_ms,
            peak_mib: peak,
        });
    }
    Ok(())
}

/// Whole passes until `seconds` have elapsed (at least one).
fn measure(setup: &Setup, seconds: f64, tracer: &Tracer) -> Result<Vec<Attempt>, String> {
    let config = default_config();
    let mut attempts = Vec::new();
    let start = Instant::now();
    while attempts.is_empty() || start.elapsed().as_secs_f64() < seconds {
        pass(setup, &config, tracer, &mut attempts)?;
    }
    Ok(attempts)
}

/// Each timing is computed per pass and reported as the median over the
/// passes, so a pass slowed by a burst of other work on the host does not
/// move it: the rates are a pass's Σ|E| (or answered jobs) over its Σ solve
/// wall-clock, the quantiles are over a pass's solves.
fn end_to_end(attempts: &[Attempt]) -> (Metrics, u64) {
    let peaks: Vec<f64> = attempts.iter().filter_map(|a| a.peak_mib).collect();
    let failed = (attempts.len() - peaks.len()) as u64;
    let passes: Vec<Vec<&Attempt>> = (0..attempts.last().map_or(0, |a| a.pass + 1))
        .map(|p| attempts.iter().filter(|a| a.pass == p).collect())
        .collect();
    let rate = |f: &dyn Fn(&Attempt) -> f64| -> f64 {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|pass| {
                let seconds = pass.iter().map(|a| a.wall_ms).sum::<f64>() / 1e3;
                ratio(pass.iter().map(|a| f(a)).sum(), seconds)
            })
            .collect();
        median(&per_pass)
    };
    let wall_quantile = |q: f64| -> f64 {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|pass| quantile(&pass.iter().map(|a| a.wall_ms).collect::<Vec<_>>(), q))
            .collect();
        median(&per_pass)
    };
    let mut m = Metrics::default();
    m.set("edges_per_s", rate(&|a| a.edges as f64), "1/s");
    m.set("solve_ms_p50", wall_quantile(0.5), "ms");
    m.set("solve_ms_p90", wall_quantile(0.9), "ms");
    m.set("peak_device_mib", mean(&peaks), "MiB");
    m.set(
        "success_frac",
        1.0 - ratio(failed as f64, attempts.len() as f64),
        "frac",
    );
    // A closed-loop client: each job is one solve, sent when the last ended,
    // so the job figures are the solve figures under their serve names.
    m.set("job_latency_ms_p50", wall_quantile(0.5), "ms");
    m.set("job_latency_ms_p99", wall_quantile(0.99), "ms");
    m.set(
        "jobs_per_s",
        rate(&|a| f64::from(u8::from(a.peak_mib.is_some()))),
        "1/s",
    );
    (m, failed)
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let session = gmc_trace::TraceSession::new();
    let tracer = if opts.trace {
        session.tracer()
    } else {
        Tracer::disabled()
    };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let start = Instant::now();
        setup = Some(set_up(opts, &tracer)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    // Warm-up pass, untimed: the first solves pay page faults and pool
    // spin-up that later ones do not.
    pass(
        &setup,
        &default_config(),
        &Tracer::disabled(),
        &mut Vec::new(),
    )?;

    if !opts.trace {
        let attempts = measure(&setup, opts.seconds, &Tracer::disabled())?;
        let (mut metrics, failed) = end_to_end(&attempts);
        metrics.set("setup_s", median(&setup_s), "s");
        return Ok(Outcome {
            attempted: attempts.len() as u64,
            failed,
            metrics,
        });
    }

    // Traced run: the same loop untraced and traced for the overhead, then
    // the per-layer split, the reference lanes and the calibrations.
    let third = opts.seconds / 3.0;
    let untraced = measure(&setup, third, &Tracer::disabled())?;
    let traced = measure(&setup, third, &tracer)?;
    let (e2e_untraced, _) = end_to_end(&untraced);
    let (e2e_traced, failed) = end_to_end(&traced);
    let config = default_config();
    let mut samples: Vec<LayerSample> = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < third {
        passes += 1;
        for (input, reference) in setup.inputs.iter().zip(&setup.references) {
            let id = samples.len() as i64;
            let _job = tracer.span_with("job", &[("id", id)]);
            if let Ok(sample) =
                layers::probe_layers(&setup.device, &input.graph, &config, &tracer, id)
            {
                let _span = tracer.span("verify");
                check(&input.name, &input.graph, reference, &sample.result)?;
                samples.push(sample);
            }
        }
    }
    let mut metrics = Metrics::default();
    metrics.set(
        "corpus.load_ms",
        mean(&setup.inputs.iter().map(|i| i.load_ms).collect::<Vec<_>>()),
        "ms",
    );
    metrics.extend(layers::layer_metrics(&samples, opts.launch_overhead));
    metrics.extend(lanes(opts, &setup, &tracer)?);
    if opts.workload.has_serve_probe() {
        metrics.extend(crate::serve::probe(opts, &tracer)?);
    }
    metrics.extend(layers::calibrate(opts.workers, &tracer));
    metrics.extend(layers::oracle_probes(
        crate::probe_graph(setup.inputs.iter().map(|i| &i.graph)),
        opts.workers,
        &tracer,
    ));
    metrics.set(
        "trace.overhead_frac",
        ratio(
            e2e_untraced.get("edges_per_s"),
            e2e_traced.get("edges_per_s"),
        ) - 1.0,
        "frac",
    );
    let timeline = session.finish();
    metrics.extend(layers::self_time_metrics(&timeline));
    crate::write_trace(opts, &timeline);
    Ok(Outcome {
        attempted: traced.len() as u64,
        failed,
        metrics,
    })
}

/// The Fig. 4 reference lanes: the paper baseline (unfused, no bitmaps,
/// binary search), the default with bitmaps off, and PMC on 2 threads,
/// one pass each beside one default pass.
fn lanes(opts: &Options, setup: &Setup, tracer: &Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    if !opts.workload.has_lanes() {
        return Ok(m);
    }
    let baseline = SolverConfig {
        fused: false,
        local_bits: LocalBitsMode::Off,
        edge_index: EdgeIndexKind::BinarySearch,
        ..default_config()
    };
    let bits_off = SolverConfig {
        local_bits: LocalBitsMode::Off,
        ..default_config()
    };
    let pmc = ParallelBranchBound::new(opts.workers);
    let (mut base_ms, mut off_ms, mut pmc_ms, mut default_ms) = (0.0, 0.0, 0.0, 0.0);
    for (input, reference) in setup.inputs.iter().zip(&setup.references) {
        for (span, config, total) in [
            ("lane.baseline", &baseline, &mut base_ms),
            ("lane.bits_off", &bits_off, &mut off_ms),
            ("mce.solve", &default_config(), &mut default_ms),
        ] {
            let start = Instant::now();
            let result = {
                let _span = tracer.span(span);
                MaxCliqueSolver::with_config(setup.device.clone(), config.clone())
                    .solve(&input.graph)
            };
            *total += ms(start.elapsed());
            let result = result.map_err(|e| format!("{}: {span} lane failed: {e}", input.name))?;
            check(&input.name, &input.graph, reference, &result)?;
        }
        let start = Instant::now();
        let found = {
            let _span = tracer.span("pmc.solve");
            pmc.solve(&input.graph)
        };
        pmc_ms += ms(start.elapsed());
        if found.clique_number != reference.omega {
            return Err(format!(
                "{}: PMC found ω = {}, reference ω = {}",
                input.name, found.clique_number, reference.omega
            ));
        }
    }
    let graphs = setup.inputs.len() as f64;
    m.set("lane.baseline.solve_ms", base_ms / graphs, "ms");
    m.set("lane.bits_off.solve_ms", off_ms / graphs, "ms");
    m.set("lane.pmc.solve_ms", pmc_ms / graphs, "ms");
    m.set("lane.pmc.speedup", ratio(pmc_ms, default_ms), "ratio");
    Ok(m)
}
