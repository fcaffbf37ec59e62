//! Tracing integration: windowed solves traced from two threads into one
//! session produce a complete timeline that is well nested per thread, and
//! a solve records its core-bitmap gate decision with the decision's inputs.

use gpu_max_clique::graph::generators;
use gpu_max_clique::prelude::*;
use std::collections::BTreeSet;

/// End of a span on its thread's clock.
fn end_ns(s: &gpu_max_clique::trace::Span) -> u64 {
    s.start_ns + s.dur_ns
}

#[test]
fn traced_windowed_solves_on_two_threads_are_well_nested_per_thread() {
    let graphs = [generators::gnp(400, 0.05, 7), generators::gnp(400, 0.05, 8)];
    let session = TraceSession::new();

    // Each thread solves on its own device: a device's launch pool runs one
    // launch at a time, so concurrent solvers need one executor each.
    std::thread::scope(|scope| {
        for graph in &graphs {
            let tracer = session.tracer();
            scope.spawn(move || {
                let config = SolverConfig {
                    window: Some(WindowConfig::with_size(32)),
                    trace: tracer,
                    ..Default::default()
                };
                let result = MaxCliqueSolver::with_config(Device::unlimited(), config)
                    .solve(graph)
                    .expect("solve fits in unlimited memory");
                assert!(result.clique_number >= 2);
            });
        }
    });

    let timeline = session.finish();
    assert_eq!(timeline.dropped, 0, "no events lost to ring overflow");
    assert_eq!(timeline.unmatched, 0, "every begin paired with an end");
    assert!(!timeline.spans.is_empty());

    // The solver phases and the per-window spans are all present.
    let names: BTreeSet<&str> = timeline.spans.iter().map(|s| s.name).collect();
    for expected in ["solve", "setup", "windowed_search", "window"] {
        assert!(
            names.contains(expected),
            "missing span `{expected}`: {names:?}"
        );
    }

    // Each solver thread records into its own ring: one top-level solve
    // span per thread.
    let tids: BTreeSet<u64> = timeline.spans.iter().map(|s| s.tid).collect();
    let solve_tids: BTreeSet<u64> = timeline
        .spans
        .iter()
        .filter(|s| s.name == "solve")
        .map(|s| s.tid)
        .collect();
    assert_eq!(solve_tids.len(), 2, "one solve span per thread: {tids:?}");

    // Per thread, spans appear in start order (ring record order).
    for &tid in &tids {
        let mut last_start = 0u64;
        for s in timeline.spans.iter().filter(|s| s.tid == tid) {
            assert!(s.start_ns >= last_start, "per-thread starts are monotonic");
            last_start = s.start_ns;
        }
    }

    // Nesting: children lie inside their parent on the same thread, exactly
    // one level deeper; top-level spans have depth 0.
    for s in &timeline.spans {
        match s.parent {
            Some(p) => {
                let parent = &timeline.spans[p];
                assert_eq!(parent.tid, s.tid, "parent on the same thread");
                assert_eq!(s.depth, parent.depth + 1);
                assert!(parent.start_ns <= s.start_ns, "child starts inside parent");
                assert!(end_ns(s) <= end_ns(parent), "child ends inside parent");
            }
            None => assert_eq!(s.depth, 0, "parentless spans are top-level"),
        }
    }
}

#[test]
fn log_histogram_quantiles_are_ordered_and_bracketed() {
    // Property: across arbitrary seeded value streams, the histogram's
    // quantile estimates are ordered (p50 ≤ p99) and bracketed by the exact
    // extremes (min ≤ p50, p99 ≤ max), count/sum/min/max are exact, and
    // merging a split stream reproduces the whole-stream histogram.
    use gpu_max_clique::dpp::prop;
    use gpu_max_clique::trace::LogHistogram;

    prop::check(
        "log_histogram_quantile_order",
        |rng| {
            // Values across many octaves: shift a full-width draw so some
            // streams are tiny counters and some span nanosecond scales.
            let len = rng.gen_range(1..200usize);
            (0..len)
                .map(|_| rng.next_u64() >> rng.gen_range(0..64u32))
                .collect::<Vec<u64>>()
        },
        prop::shrinks::vec,
        |values: &Vec<u64>| {
            if values.is_empty() {
                return Ok(()); // shrinking may empty the stream
            }
            let mut h = LogHistogram::new();
            let mut left = LogHistogram::new();
            let mut right = LogHistogram::new();
            for (i, &v) in values.iter().enumerate() {
                h.record(v);
                if i % 2 == 0 {
                    left.record(v);
                } else {
                    right.record(v);
                }
            }

            let exact_min = *values.iter().min().unwrap();
            let exact_max = *values.iter().max().unwrap();
            if h.count() != values.len() as u64 {
                return Err(format!("count {} != {}", h.count(), values.len()));
            }
            let exact_sum = values.iter().fold(0u64, |a, &v| a.saturating_add(v));
            if h.sum() != exact_sum {
                return Err(format!("sum {} != {}", h.sum(), exact_sum));
            }
            if h.min() != exact_min || h.max() != exact_max {
                return Err(format!(
                    "extremes [{}, {}] != exact [{exact_min}, {exact_max}]",
                    h.min(),
                    h.max()
                ));
            }

            let p50 = h.quantile(0.5);
            let p99 = h.quantile(0.99);
            if p50 > p99 {
                return Err(format!("p50 {p50} > p99 {p99}"));
            }
            if p50 < exact_min || p99 > exact_max {
                return Err(format!(
                    "quantiles [{p50}, {p99}] escape [{exact_min}, {exact_max}]"
                ));
            }

            // Merging the even/odd split must reproduce the whole stream.
            let mut merged = LogHistogram::new();
            merged.merge(&left);
            merged.merge(&right);
            if merged.count() != h.count() || merged.sum() != h.sum() {
                return Err("merge loses samples".into());
            }
            for q in [0.0, 0.5, 0.99, 1.0] {
                if merged.quantile(q) != h.quantile(q) {
                    return Err(format!(
                        "merge changes q={q}: {} != {}",
                        merged.quantile(q),
                        h.quantile(q)
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn untraced_solve_records_nothing_into_a_live_session() {
    // A solver whose config tracer is disabled must not touch a session
    // that exists in the same process.
    let session = TraceSession::new();
    let graph = generators::gnp(100, 0.05, 3);
    MaxCliqueSolver::new(Device::unlimited())
        .solve(&graph)
        .expect("solve fits");
    let timeline = session.finish();
    assert!(timeline.spans.is_empty());
    assert!(timeline.counters.is_empty());
    assert!(timeline.instants.is_empty());
}

#[test]
fn core_bitmap_gate_decision_is_traced_with_its_inputs() {
    // `Auto` builds the core bitmap on a dense graph, whose first-level walk
    // pays for it, and declines it on a sparse one. Each solve records its
    // decision once, with the walk bound the setup span also carries.
    use gpu_max_clique::graph::CoreBitmap;
    use gpu_max_clique::mce::LocalBitsMode;
    for (graph, built) in [
        (generators::gnp(90, 0.25, 43), true),
        (generators::gnp(2000, 0.002, 5), false),
    ] {
        let session = TraceSession::new();
        // Pinned against `GMC_LOCAL_BITS` and `GMC_FAULTS`: a faulted
        // attempt would decide again on its retry.
        let config = SolverConfig {
            local_bits: LocalBitsMode::Auto,
            faults: None,
            trace: session.tracer(),
            ..Default::default()
        };
        let result = MaxCliqueSolver::with_config(Device::unlimited(), config)
            .solve(&graph)
            .expect("solve fits");
        let timeline = session.finish();
        let stats = &result.stats;
        assert_eq!(stats.local_bits.persistent_bytes > 0, built);

        let arg = |args: &[(&str, i64)], name: &str| {
            args.iter()
                .find(|(key, _)| *key == name)
                .unwrap_or_else(|| panic!("missing argument `{name}`"))
                .1
        };
        let walk = stats.setup.first_level_walk as i64;
        let setup = timeline.spans.iter().find(|s| s.name == "setup").unwrap();
        assert_eq!(arg(&setup.args, "first_level_walk"), walk);

        let gates: Vec<_> = timeline
            .instants
            .iter()
            .filter(|i| i.name == "core_bitmap_gate")
            .collect();
        assert_eq!(gates.len(), 1, "one gate decision per solve");
        let n = graph.num_vertices();
        let footprint = CoreBitmap::footprint_for(n - stats.setup.pruned_vertices, n);
        assert_eq!(arg(&gates[0].args, "first_level_walk"), walk);
        assert_eq!(arg(&gates[0].args, "footprint"), footprint as i64);
        assert_eq!(arg(&gates[0].args, "capacity"), i64::MAX);
        assert_eq!(arg(&gates[0].args, "build"), i64::from(built));
        assert_eq!(built, walk >= footprint as i64);
    }
}
