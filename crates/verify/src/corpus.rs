//! The persistent regression corpus.
//!
//! Every shrunk counterexample is written as a plain-text `.case` file —
//! `#` comment lines recording provenance (which check, which generator
//! category, which seed, what went wrong), then `n <vertices>` and one
//! `u v` edge per line. The format is deliberately hand-editable: a
//! reviewer can trim a case or write one from scratch in any editor, and
//! `git diff` shows exactly which graph changed. File names carry a
//! content hash, so re-finding the same minimal graph never duplicates a
//! file, and distinct graphs never collide on a name.
//!
//! Replays load *every* `.case` file in the directory (sorted by name, so
//! runs are reproducible) and push each graph through the full check
//! battery before any fuzzing starts: a once-found bug has to stay fixed
//! before new exploration counts for anything.

use crate::{CaseGraph, Failure};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Renders a case to the text format, with provenance comments.
pub fn render(failure: &Failure) -> String {
    let mut out = String::new();
    out.push_str(
        "# gmc-verify regression case (format: `n <vertices>`, then one `u v` per line)\n",
    );
    for (key, value) in [
        ("check", failure.check.as_str()),
        ("category", failure.category.as_str()),
        ("detail", failure.detail.as_str()),
    ] {
        // Keep comments single-line so the file stays line-oriented.
        let value = value.replace('\n', " ");
        out.push_str(&format!("# {key}: {value}\n"));
    }
    out.push_str(&format!("# seed: {}\n", failure.case_seed));
    out.push_str(&render_graph(&failure.graph));
    out
}

/// Renders just the graph body (`n` line + edge lines).
pub fn render_graph(graph: &CaseGraph) -> String {
    let mut out = format!("n {}\n", graph.n);
    for (u, v) in &graph.edges {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parses the text format back into a graph. Comments and blank lines are
/// skipped; the first data line must be `n <vertices>`.
pub fn parse(text: &str) -> Result<CaseGraph, String> {
    let mut n: Option<usize> = None;
    let mut edges = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match n {
            None => {
                let (tag, count) = (fields.next(), fields.next());
                if tag != Some("n") {
                    return Err(format!("line {}: expected `n <vertices>`", lineno + 1));
                }
                let count: usize = count
                    .ok_or_else(|| format!("line {}: missing vertex count", lineno + 1))?
                    .parse()
                    .map_err(|e| format!("line {}: bad vertex count: {e}", lineno + 1))?;
                n = Some(count);
            }
            Some(count) => {
                let parse_endpoint = |field: Option<&str>| -> Result<u32, String> {
                    let v: u32 = field
                        .ok_or_else(|| format!("line {}: expected `u v`", lineno + 1))?
                        .parse()
                        .map_err(|e| format!("line {}: bad vertex id: {e}", lineno + 1))?;
                    if v as usize >= count {
                        return Err(format!(
                            "line {}: vertex {v} out of range (n = {count})",
                            lineno + 1
                        ));
                    }
                    Ok(v)
                };
                let u = parse_endpoint(fields.next())?;
                let v = parse_endpoint(fields.next())?;
                if fields.next().is_some() {
                    return Err(format!("line {}: trailing fields", lineno + 1));
                }
                edges.push((u, v));
            }
        }
    }
    let n = n.ok_or("missing `n <vertices>` line")?;
    Ok(CaseGraph::new(n, edges))
}

/// Persists a failure into `dir`, creating it if needed. The file name is
/// derived from the check and a hash of the graph, so saving the same
/// minimal counterexample twice is idempotent. Returns the path written.
pub fn save(dir: &Path, failure: &Failure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = format!(
        "{}-{:016x}.case",
        slug(&failure.check),
        fingerprint(&failure.graph)
    );
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path)?;
    file.write_all(render(failure).as_bytes())?;
    Ok(path)
}

/// Loads every `.case` file in `dir`, sorted by file name. Missing
/// directories are an empty corpus; an unparsable file panics with its
/// path — a corrupt regression corpus should stop the run loudly, not
/// silently skip the one graph that used to catch a bug.
pub fn load_all(dir: &Path) -> Vec<(PathBuf, CaseGraph)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let graph = parse(&text)
                .unwrap_or_else(|e| panic!("corrupt regression case {}: {e}", path.display()));
            (path, graph)
        })
        .collect()
}

/// FNV-1a over the canonical graph encoding.
fn fingerprint(graph: &CaseGraph) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(graph.n as u64).to_le_bytes());
    for (u, v) in &graph.edges {
        eat(&u.to_le_bytes());
        eat(&v.to_le_bytes());
    }
    hash
}

/// A filesystem-safe slug of a check name.
fn slug(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    while out.contains("--") {
        out = out.replace("--", "-");
    }
    out.trim_matches('-').chars().take(48).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_failure(graph: CaseGraph) -> Failure {
        Failure {
            check: "differential: bfs[fused,auto,w2] vs oracle".into(),
            category: "planted".into(),
            case_seed: 42,
            graph,
            shrink_steps: 3,
            detail: "ω mismatch\nwith a newline".into(),
            persisted: None,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let graph = CaseGraph::new(5, vec![(0, 1), (1, 2), (3, 4)]);
        let failure = sample_failure(graph.clone());
        let parsed = parse(&render(&failure)).unwrap();
        assert_eq!(parsed, graph);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("0 1\n").is_err(), "edges before the n line");
        assert!(parse("n 2\n0 5\n").is_err(), "out-of-range vertex");
        assert!(parse("n 2\n0\n").is_err(), "half an edge");
        assert!(parse("n 2\n0 1 2\n").is_err(), "trailing fields");
        assert!(parse("n x\n").is_err(), "non-numeric count");
    }

    #[test]
    fn save_and_load_are_idempotent_and_sorted() {
        let dir = std::env::temp_dir().join(format!(
            "gmc-verify-corpus-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let a = sample_failure(CaseGraph::new(3, vec![(0, 1), (1, 2), (0, 2)]));
        let b = sample_failure(CaseGraph::new(2, Vec::new()));
        let pa = save(&dir, &a).unwrap();
        let pb = save(&dir, &b).unwrap();
        // Saving the same graph again hits the same file.
        assert_eq!(save(&dir, &a).unwrap(), pa);
        assert_ne!(pa, pb);
        let loaded = load_all(&dir);
        assert_eq!(loaded.len(), 2);
        let graphs: Vec<&CaseGraph> = loaded.iter().map(|(_, g)| g).collect();
        assert!(graphs.contains(&&a.graph) && graphs.contains(&&b.graph));
        // Non-.case files are ignored.
        std::fs::write(dir.join("README.md"), "docs\n").unwrap();
        assert_eq!(load_all(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        assert!(load_all(Path::new("/nonexistent/gmc-verify")).is_empty());
    }
}
