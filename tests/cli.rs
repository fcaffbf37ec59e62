//! End-to-end tests of the `gmc` command-line binary.

use std::process::Command;

fn gmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gmc"))
}

fn write_graph(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).expect("write temp graph");
    path
}

#[test]
fn help_lists_commands() {
    let out = gmc().arg("help").output().expect("run gmc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gmc solve"));
    assert!(text.contains("gmc generate"));
}

#[test]
fn unknown_command_fails() {
    let out = gmc().arg("frobnicate").output().expect("run gmc");
    assert!(!out.status.success());
}

#[test]
fn solve_edge_list() {
    let path = write_graph("gmc_cli_tri.edges", "0 1\n1 2\n0 2\n2 3\n");
    let out = gmc().arg("solve").arg(&path).output().expect("run gmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clique number ω = 3"), "{text}");
    assert!(text.contains("[0, 1, 2]"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn solve_mtx_with_json_output() {
    let path = write_graph(
        "gmc_cli_tri.mtx",
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n",
    );
    let out = gmc()
        .args(["solve", path.to_str().unwrap(), "--json"])
        .output()
        .expect("run gmc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"clique_number\":3"), "{text}");
    assert!(text.contains("\"complete\":true"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn solve_windowed_with_options() {
    let path = write_graph("gmc_cli_two_tri.edges", "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n");
    let out = gmc()
        .args([
            "solve",
            path.to_str().unwrap(),
            "--window",
            "2",
            "--recursive",
            "3",
            "--window-order",
            "asc",
            "--heuristic",
            "single-degree",
        ])
        .output()
        .expect("run gmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clique number ω = 3"), "{text}");
    assert!(text.contains("windowed:"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn oom_produces_hint_not_wrong_answer() {
    // A dense-ish graph with a 1 MiB... 16 KiB budget triggers the OOM path.
    let mut edges = String::new();
    for u in 0..60u32 {
        for v in (u + 1)..60 {
            if (u + v) % 2 == 0 {
                edges.push_str(&format!("{u} {v}\n"));
            }
        }
    }
    let path = write_graph("gmc_cli_dense.edges", &edges);
    let out = gmc()
        .args([
            "solve",
            path.to_str().unwrap(),
            "--heuristic",
            "none",
            "--budget-mb",
            "0",
        ])
        .output()
        .expect("run gmc");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("out of device memory"), "{err}");
    assert!(err.contains("--window"), "hint missing: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn info_reports_statistics() {
    let path = write_graph("gmc_cli_info.edges", "0 1\n1 2\n0 2\n");
    let out = gmc().arg("info").arg(&path).output().expect("run gmc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices:     3"));
    assert!(text.contains("degeneracy:   2"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn generate_then_solve_roundtrip() {
    let path = std::env::temp_dir().join("gmc_cli_generated.edges");
    let out = gmc()
        .args([
            "generate",
            "collab",
            "--out",
            path.to_str().unwrap(),
            "--param",
            "authors=200",
            "--param",
            "papers=80",
            "--param",
            "max=7",
            "--param",
            "seed=3",
        ])
        .output()
        .expect("run gmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = gmc()
        .args(["solve", path.to_str().unwrap(), "--json"])
        .output()
        .expect("run gmc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"clique_number\":"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_options_are_rejected_by_name() {
    let path = write_graph("gmc_cli_unknown.edges", "0 1\n1 2\n0 2\n");
    // Removed flags and a misspelt one must fail loudly instead of being
    // silently ignored.
    for (flag, value) in [
        ("--edge-index", "bitset"),
        ("--parallel-windows", "2"),
        ("--budjet-mb", "4"),
    ] {
        let out = gmc()
            .args(["solve", path.to_str().unwrap(), flag, value])
            .output()
            .expect("run gmc");
        assert!(!out.status.success(), "{flag} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option `{flag}`")),
            "{flag}: {err}"
        );
        assert!(err.contains("gmc help"), "{flag}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn window_flags_without_window_are_rejected() {
    let path = write_graph("gmc_cli_window_flags.edges", "0 1\n1 2\n0 2\n2 3\n");
    // Each window flag alone, and two together: without `--window` they
    // would change nothing about the full search, so they must fail.
    for flags in [
        &["--recursive", "3"][..],
        &["--enumerate-windows"][..],
        &["--window-order", "desc"][..],
        &["--enumerate-windows", "--window-order", "desc"][..],
    ] {
        let out = gmc()
            .args(["solve", path.to_str().unwrap()])
            .args(flags)
            .output()
            .expect("run gmc");
        assert!(!out.status.success(), "{flags:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("requires --window"), "{flags:?}: {err}");
        assert!(err.contains(flags[0]), "{flags:?}: {err}");
    }
    // The same flags with `--window` still solve.
    let out = gmc()
        .args(["solve", path.to_str().unwrap(), "--window", "2"])
        .args(["--enumerate-windows", "--window-order", "desc"])
        .output()
        .expect("run gmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn solve_accepts_documented_options() {
    let path = write_graph("gmc_cli_documented.edges", "0 1\n1 2\n0 2\n2 3\n");
    let out = gmc()
        .args([
            "solve",
            path.to_str().unwrap(),
            "--budget-mb",
            "4",
            "--workers",
            "2",
            "--window",
            "2",
            "--json",
        ])
        .output()
        .expect("run gmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"clique_number\":3"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = gmc()
        .args(["solve", "/no/such/file.edges"])
        .output()
        .expect("run gmc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load"));
}
