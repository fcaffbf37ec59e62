//! Markdown report renderer for the experiment JSON records.
//!
//! Every harness target writes a machine-readable record under
//! `target/experiments/`; the `gmc-report` binary (and this module's
//! [`render_report`]) turns whatever records exist into one Markdown
//! summary — the raw material for EXPERIMENTS.md and for comparing runs
//! across environments.

use crate::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;

/// Renders a Markdown report from all recognised record files in `dir`.
/// Missing records are skipped; unparseable ones are reported inline.
pub fn render_report(dir: &Path) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Experiment report\n");
    let _ = writeln!(out, "Source: `{}`\n", dir.display());

    let mut any = false;
    for (file, renderer) in SECTIONS {
        match load(dir, file) {
            Some(Ok(value)) => {
                any = true;
                renderer(&mut out, &value);
            }
            Some(Err(e)) => {
                any = true;
                let _ = writeln!(out, "## {file}\n\n*unreadable record: {e}*\n");
            }
            None => {}
        }
    }
    if !any {
        let _ = writeln!(
            out,
            "*No records found — run `cargo bench -p gmc-bench` first.*"
        );
    }
    out
}

/// Renders the per-kernel latency table from a Chrome-trace JSON file
/// written via `GMC_TRACE` (backs the `gmc-report trace <file>` subcommand).
/// The file is re-parsed with this crate's JSON parser and the histograms
/// are rebuilt from the complete (`ph == "X"`) events' durations.
pub fn render_trace_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = json::parse(&text)?;
    let events = value["traceEvents"]
        .as_array()
        .ok_or_else(|| "trace has no `traceEvents` array".to_string())?;
    let mut by_name: std::collections::BTreeMap<String, gmc_trace::LogHistogram> =
        std::collections::BTreeMap::new();
    let mut spans = 0usize;
    for event in events {
        if event["ph"].as_str() != Some("X") {
            continue;
        }
        spans += 1;
        let name = event["name"].as_str().unwrap_or("?").to_string();
        // Chrome traces carry microseconds; the histograms hold nanoseconds.
        let dur_ns = (event["dur"].as_f64().unwrap_or(0.0) * 1000.0)
            .max(0.0)
            .round() as u64;
        by_name.entry(name).or_default().record(dur_ns);
    }
    let dropped = value["gmcDroppedEvents"].as_u64().unwrap_or(0) as usize;
    let stats: Vec<(String, gmc_trace::LogHistogram)> = by_name.into_iter().collect();
    let mut out = String::new();
    let _ = writeln!(out, "# Trace report\n");
    let _ = writeln!(out, "Source: `{}` ({spans} spans)\n", path.display());
    out.push_str(&gmc_trace::render_latency_table(&stats, dropped));
    Ok(out)
}

type SectionRenderer = fn(&mut String, &Json);

const SECTIONS: &[(&str, SectionRenderer)] = &[
    ("table1_heuristics", render_table1),
    ("table2_speedups", render_table2),
    ("fig2_fig3_throughput", render_fig23),
    ("fig4_speedup_vs_pmc", render_fig4),
    ("fig6_window_memory", render_fig6),
    ("warp_divergence", render_divergence),
    ("core_bits", render_core_bits),
    ("serve", render_serve),
];

fn load(dir: &Path, name: &str) -> Option<Result<Json, String>> {
    let path = dir.join(format!("{name}.json"));
    if !path.exists() {
        return None;
    }
    Some(
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text)),
    )
}

fn render_table1(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## Table I — heuristic comparison\n");
    let _ = writeln!(out, "| Heuristic | Mean error | Solved | OOM |");
    let _ = writeln!(out, "|---|---|---|---|");
    for row in value["rows"].as_array().into_iter().flatten() {
        let _ = writeln!(
            out,
            "| {} | {:.1}% | {}/{} | {:.1}% |",
            row["heuristic"].as_str().unwrap_or("?"),
            row["mean_error_pct"].as_f64().unwrap_or(f64::NAN),
            row["solved"].as_u64().unwrap_or(0),
            row["total"].as_u64().unwrap_or(0),
            row["oom_pct"].as_f64().unwrap_or(f64::NAN),
        );
    }
    let _ = writeln!(out);
}

fn render_table2(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## Table II — heuristic upgrade speedups (geomean)\n");
    for row in value["baselines"].as_array().into_iter().flatten() {
        let upgrades: Vec<String> = row["speedups"]
            .as_array()
            .into_iter()
            .flatten()
            .map(|pair| {
                format!(
                    "{} {:.1}×",
                    pair[0].as_str().unwrap_or("?"),
                    pair[1].as_f64().unwrap_or(f64::NAN)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "* baseline `{}` ({} datasets): {}",
            row["baseline"].as_str().unwrap_or("?"),
            row["group_size"].as_u64().unwrap_or(0),
            upgrades.join(", ")
        );
    }
    let _ = writeln!(out);
}

fn render_fig23(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## Figures 2–3 — throughput trends\n");
    let _ = writeln!(
        out,
        "* Spearman(throughput, avg degree) = {:.2} (paper: strongly negative)",
        value["spearman_tput_vs_degree_bfs"]
            .as_f64()
            .unwrap_or(f64::NAN)
    );
    let _ = writeln!(
        out,
        "* Spearman(throughput, |E|) = {:.2} (paper: positive)\n",
        value["spearman_tput_vs_edges_bfs"]
            .as_f64()
            .unwrap_or(f64::NAN)
    );
}

fn render_fig4(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## Figure 4 — speedup over PMC\n");
    for (label, key) in [
        ("overall geomean", "geomean_bfs_speedup"),
        ("windowed geomean", "geomean_windowed_speedup"),
        ("low-degree half", "geomean_low_degree_bfs_speedup"),
        ("high-degree half", "geomean_high_degree_bfs_speedup"),
    ] {
        let _ = writeln!(
            out,
            "* {label}: {:.2}×",
            value[key].as_f64().unwrap_or(f64::NAN)
        );
    }
    let _ = writeln!(out);
}

fn render_fig6(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## Figure 6 — windowed memory\n");
    for pair in value["mean_reduction_pct"].as_array().into_iter().flatten() {
        let _ = writeln!(
            out,
            "* window {}: {:.1}% mean peak-memory reduction",
            pair[0].as_u64().unwrap_or(0),
            pair[1].as_f64().unwrap_or(f64::NAN)
        );
    }
    let _ = writeln!(out);
}

fn render_divergence(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## §II-C — mean lane utilisation\n");
    let rows = value.as_array().cloned().unwrap_or_default();
    let mean = |key: &str| {
        let vals: Vec<f64> = rows.iter().filter_map(|r| r[key].as_f64()).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let _ = writeln!(
        out,
        "* breadth-first: {:.1}%",
        100.0 * mean("bfs_utilization")
    );
    let _ = writeln!(
        out,
        "* warp-parallel DFS: {:.1}%",
        100.0 * mean("warp_dfs_utilization")
    );
    let _ = writeln!(
        out,
        "* thread-parallel DFS: {:.1}%\n",
        100.0 * mean("thread_dfs_utilization")
    );
}

fn render_core_bits(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## §III-3 — persistent core-graph bitmaps\n");
    let _ = writeln!(
        out,
        "| Dataset | Scalar probes | Persistent probes | Eliminated | Rebuilds | Bitmap KiB |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for row in value.as_array().into_iter().flatten() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1}% | {} | {:.1} |",
            row["dataset"].as_str().unwrap_or("?"),
            row["scalar_queries"].as_u64().unwrap_or(0),
            row["persistent_queries"].as_u64().unwrap_or(0),
            row["elimination_pct"].as_f64().unwrap_or(f64::NAN),
            row["rebuilds"].as_u64().unwrap_or(0),
            row["persistent_bytes"].as_f64().unwrap_or(f64::NAN) / 1024.0,
        );
    }
    let _ = writeln!(out);
}

fn render_serve(out: &mut String, value: &Json) {
    let _ = writeln!(out, "## Service — batched solves through `gmc-serve`\n");
    let _ = writeln!(
        out,
        "Pool of {} slot(s), queue depth {}: {} jobs served, {} hits / {} misses \
         (hit rate {:.1}%), {} cancelled at deadline, bit-identical: {}.\n",
        value["pool"].as_u64().unwrap_or(0),
        value["queue_depth"].as_u64().unwrap_or(0),
        value["total_jobs"].as_u64().unwrap_or(0),
        value["cache_hits"].as_u64().unwrap_or(0),
        value["cache_misses"].as_u64().unwrap_or(0),
        100.0 * value["hit_rate"].as_f64().unwrap_or(f64::NAN),
        value["cancellations"].as_u64().unwrap_or(0),
        value["bit_identical"].as_bool().unwrap_or(false),
    );
    let _ = writeln!(
        out,
        "| Queue wait p50 | Queue wait p99 | Launches | Oracle queries | Throughput |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    let _ = writeln!(
        out,
        "| {:.1} µs | {:.1} µs | {} | {} | {:.0} jobs/s |",
        value["queue_wait_p50_ns"].as_f64().unwrap_or(f64::NAN) / 1e3,
        value["queue_wait_p99_ns"].as_f64().unwrap_or(f64::NAN) / 1e3,
        value["launches"].as_u64().unwrap_or(0),
        value["oracle_queries"].as_u64().unwrap_or(0),
        value["throughput_jobs_per_s"].as_f64().unwrap_or(f64::NAN),
    );
    let _ = writeln!(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gmc_report_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_directory_reports_no_records() {
        let dir = temp_dir("empty");
        let report = render_report(&dir);
        assert!(report.contains("No records found"));
    }

    #[test]
    fn renders_table1_rows() {
        let dir = temp_dir("t1");
        std::fs::write(
            dir.join("table1_heuristics.json"),
            r#"{"rows":[{"heuristic":"none","mean_error_pct":100.0,"solved":28,"total":58,"oom_pct":51.7,"geomean_solve_ms":6.0}],"per_dataset":[]}"#,
        )
        .unwrap();
        let report = render_report(&dir);
        assert!(report.contains("Table I"));
        assert!(report.contains("| none | 100.0% | 28/58 | 51.7% |"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renders_fig4_summary() {
        let dir = temp_dir("f4");
        std::fs::write(
            dir.join("fig4_speedup_vs_pmc.json"),
            r#"{"points":[],"geomean_bfs_speedup":0.78,"geomean_windowed_speedup":0.52,
               "geomean_low_degree_bfs_speedup":0.98,"geomean_high_degree_bfs_speedup":0.50}"#,
        )
        .unwrap();
        let report = render_report(&dir);
        assert!(report.contains("low-degree half: 0.98×"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renders_serve_section() {
        let dir = temp_dir("serve");
        std::fs::write(
            dir.join("serve.json"),
            r#"{"pool":2,"queue_depth":8,"total_jobs":14,"unique_jobs":4,"repeat_jobs":8,
               "deadline_jobs":2,"cache_hits":8,"cache_misses":6,"hit_rate":0.5714,
               "cancellations":2,"bit_identical":true,"launches":549,"oracle_queries":12475,
               "queue_wait_p50_ns":8960,"queue_wait_p99_ns":698468,"wall_ms":6.58,
               "throughput_jobs_per_s":2126.9}"#,
        )
        .unwrap();
        let report = render_report(&dir);
        assert!(report.contains("Service — batched solves"), "{report}");
        assert!(report.contains("8 hits / 6 misses"), "{report}");
        assert!(report.contains("hit rate 57.1%"), "{report}");
        assert!(report.contains("| 549 | 12475 |"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_are_reported_not_fatal() {
        let dir = temp_dir("bad");
        std::fs::write(dir.join("table2_speedups.json"), "not json").unwrap();
        let report = render_report(&dir);
        assert!(report.contains("unreadable record"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renders_trace_latency_table() {
        let dir = temp_dir("trace");
        let path = dir.join("trace.json");
        std::fs::write(
            &path,
            r#"{"traceEvents":[
                {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
                {"name":"scan_lookback","ph":"X","pid":1,"tid":1,"ts":0.0,"dur":12.5,"args":{}},
                {"name":"scan_lookback","ph":"X","pid":1,"tid":1,"ts":20.0,"dur":14.0,"args":{}}
            ],"displayTimeUnit":"ms","gmcDroppedEvents":0}"#,
        )
        .unwrap();
        let report = render_trace_file(&path).unwrap();
        assert!(report.contains("scan_lookback"), "{report}");
        assert!(report.contains("2 spans"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_report_rejects_non_trace_json() {
        let dir = temp_dir("trace_bad");
        let path = dir.join("not_a_trace.json");
        std::fs::write(&path, r#"{"rows":[]}"#).unwrap();
        assert!(render_trace_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renders_core_bits_rows() {
        let dir = temp_dir("cb");
        std::fs::write(
            dir.join("core_bits.json"),
            r#"[{"dataset":"socfb-campus-04","category":"socfb","scalar_queries":10000,
                 "persistent_queries":0,"persistent_probes":10000,
                 "elimination_pct":100.0,"rebuilds":0,"persistent_bytes":2048}]"#,
        )
        .unwrap();
        let report = render_report(&dir);
        assert!(report.contains("persistent core-graph bitmaps"), "{report}");
        assert!(
            report.contains("| socfb-campus-04 | 10000 | 0 | 100.0% | 0 | 2.0 |"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renders_divergence_means() {
        let dir = temp_dir("div");
        std::fs::write(
            dir.join("warp_divergence.json"),
            r#"[{"bfs_utilization":0.9,"warp_dfs_utilization":0.3,"thread_dfs_utilization":0.2},
                {"bfs_utilization":0.8,"warp_dfs_utilization":0.5,"thread_dfs_utilization":0.4}]"#,
        )
        .unwrap();
        let report = render_report(&dir);
        assert!(report.contains("breadth-first: 85.0%"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
