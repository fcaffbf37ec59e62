//! Workload definitions, seeded inputs and the per-dataset reference
//! answers every result is checked against.

use gmc_corpus::{by_name, DatasetSpec, Tier};
use gmc_graph::Csr;
use gmc_mce::{verify_result, SolveResult};
use gmc_pmc::{ParallelBranchBound, ReferenceEnumerator};
use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SocfbDense,
    SparseWide,
    CollabTies,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SocfbDense,
        Workload::SparseWide,
        Workload::CollabTies,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SocfbDense => "socfb-dense",
            Workload::SparseWide => "sparse-wide",
            Workload::CollabTies => "collab-ties",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus tier the workload runs at unless overridden.
    pub fn default_tier(self) -> Tier {
        match self {
            Workload::ServeOpen => Tier::Small,
            _ => Tier::Full,
        }
    }

    /// Whether the traced run measures the Fig. 4 reference lanes here.
    pub fn has_lanes(self) -> bool {
        matches!(self, Workload::SocfbDense | Workload::CollabTies)
    }

    /// Whether the traced run also serves the workload's graphs through a
    /// `SolveService`, measuring the serve and window layers. The sparse
    /// graphs are the ones whose admission verdicts span accept,
    /// down-window and reject at the batch budget.
    pub fn has_serve_probe(self) -> bool {
        self == Workload::SparseWide
    }

    /// Datasets of the workload. The Facebook and web lists keep only the
    /// graphs that solve within the 24 MiB full-tier budget; the others OOM
    /// by design, which would make the batch workloads measure failures.
    pub fn datasets(self) -> Vec<String> {
        let range = |prefix: &str, ids: &[u32]| -> Vec<String> {
            ids.iter().map(|i| format!("{prefix}-{i:02}")).collect()
        };
        match self {
            Workload::SocfbDense => range("socfb-campus", &[1, 2, 3, 4, 5, 6, 9, 10, 11]),
            Workload::SparseWide => [
                range("road-grid", &[1, 2, 3, 4, 5, 6]),
                range("tech-router", &[1, 2, 3, 4]),
                range("soc-sphere", &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            ]
            .concat(),
            Workload::CollabTies => [
                range("ca-papers", &[1, 2, 3, 4, 5, 6, 7, 8]),
                range("web-crawl", &[1, 2, 3, 5, 6, 7]),
            ]
            .concat(),
            Workload::ServeOpen => gmc_corpus::corpus(Tier::Small)
                .into_iter()
                .map(|spec| spec.name)
                .collect(),
        }
    }
}

pub fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Smoke => "smoke",
        Tier::Small => "small",
        Tier::Full => "full",
    }
}

pub fn parse_tier(name: &str) -> Option<Tier> {
    [Tier::Smoke, Tier::Small, Tier::Full]
        .into_iter()
        .find(|t| tier_name(*t) == name)
}

/// SplitMix64 finaliser: decorrelates the benchmark seed from the corpus'
/// own shuffle seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The corpus spec of `name` at `tier`, with its vertex relabelling drawn
/// from `seed`.
pub fn seeded_spec(tier: Tier, name: &str, seed: u64) -> DatasetSpec {
    let mut spec = by_name(tier, name).unwrap_or_else(|| panic!("no corpus dataset {name}"));
    spec.shuffle_seed = mix(spec.shuffle_seed, seed);
    spec
}

/// One loaded input graph.
pub struct Input {
    pub name: String,
    pub graph: Csr,
    pub load_ms: f64,
}

pub fn load(spec: &DatasetSpec) -> Input {
    let start = Instant::now();
    let graph = spec.load();
    Input {
        name: spec.name.clone(),
        graph,
        load_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// ω and the number of maximum cliques of one dataset; both are invariant
/// under vertex relabelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub vertices: usize,
    pub edges: usize,
    pub omega: u32,
    pub multiplicity: usize,
}

const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// The committed reference table, keyed by `(tier, dataset)`.
pub fn reference_table() -> HashMap<(String, String), Reference> {
    REFERENCE_TSV
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> usize {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("malformed reference line: {line}"))
            };
            (
                (f[0].to_string(), f[1].to_string()),
                Reference {
                    vertices: num(2),
                    edges: num(3),
                    omega: num(4) as u32,
                    multiplicity: num(5),
                },
            )
        })
        .collect()
}

/// Looks up the reference for `input`, failing when the table has no row
/// or the corpus no longer generates the graph the row was made from.
pub fn reference_for(
    table: &HashMap<(String, String), Reference>,
    tier: Tier,
    input: &Input,
) -> Result<Reference, String> {
    let key = (tier_name(tier).to_string(), input.name.clone());
    let reference = table.get(&key).copied().ok_or_else(|| {
        format!(
            "no reference for {} at tier {}; regenerate perfbench/reference.tsv",
            input.name,
            tier_name(tier)
        )
    })?;
    if (reference.vertices, reference.edges)
        != (input.graph.num_vertices(), input.graph.num_edges())
    {
        return Err(format!(
            "{} ({}) no longer matches its reference row; regenerate perfbench/reference.tsv",
            input.name,
            tier_name(tier)
        ));
    }
    Ok(reference)
}

/// The correctness gate for one result: a verified clique set, complete,
/// with the reference's ω and multiplicity.
pub fn check(
    name: &str,
    graph: &Csr,
    reference: &Reference,
    result: &SolveResult,
) -> Result<(), String> {
    verify_result(graph, result).map_err(|e| format!("{name}: invalid result: {e}"))?;
    if !result.complete_enumeration {
        return Err(format!("{name}: enumeration is incomplete"));
    }
    if (result.clique_number, result.multiplicity()) != (reference.omega, reference.multiplicity) {
        return Err(format!(
            "{name}: got ω = {} × {}, reference ω = {} × {}",
            result.clique_number,
            result.multiplicity(),
            reference.omega,
            reference.multiplicity
        ));
    }
    Ok(())
}

/// Exact ω and multiplicity with [`ReferenceEnumerator`], applied to each
/// vertex's forward neighbourhood (neighbours later in degree order): every
/// maximum clique is counted once, at its first vertex. The whole-graph
/// enumerator scans all vertex pairs at its root, which is too slow for the
/// 100k-vertex road meshes. ω is cross-checked against the PMC baseline.
pub fn compute_reference(graph: &Csr) -> Reference {
    let n = graph.num_vertices();
    let key = |v: u32| (graph.degree(v), v);
    let mut local_id = vec![u32::MAX; n];
    let (mut omega, mut multiplicity) = (0u32, 0usize);
    for v in 0..n as u32 {
        let forward: Vec<u32> = graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| key(u) > key(v))
            .collect();
        for (i, &u) in forward.iter().enumerate() {
            local_id[u as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for (i, &u) in forward.iter().enumerate() {
            for &w in graph.neighbors(u) {
                let j = local_id[w as usize];
                if j != u32::MAX && (j as usize) > i {
                    edges.push((i as u32, j));
                }
            }
        }
        let (sub_omega, count) = if forward.is_empty() {
            (0, 1)
        } else {
            let (w, cliques) =
                ReferenceEnumerator::enumerate(&Csr::from_edges(forward.len(), &edges));
            (w, cliques.len())
        };
        for &u in &forward {
            local_id[u as usize] = u32::MAX;
        }
        match (sub_omega + 1).cmp(&omega) {
            std::cmp::Ordering::Greater => (omega, multiplicity) = (sub_omega + 1, count),
            std::cmp::Ordering::Equal => multiplicity += count,
            std::cmp::Ordering::Less => {}
        }
    }
    let pmc = ParallelBranchBound::new(2).solve(graph).clique_number;
    assert_eq!(pmc, omega, "PMC and the reference enumerator disagree on ω");
    Reference {
        vertices: n,
        edges: graph.num_edges(),
        omega,
        multiplicity,
    }
}

/// Prints the reference table for every dataset a workload uses, at the
/// workload's tier and the smoke tier. The table is committed as
/// `perfbench/reference.tsv`.
pub fn print_reference_table() {
    println!("# tier\tdataset\tvertices\tedges\tomega\tmultiplicity");
    println!("# generated by: gmc-perfbench --make-reference (unshuffled corpus graphs)");
    for tier in [Tier::Smoke, Tier::Small, Tier::Full] {
        let mut names: Vec<String> = Workload::ALL
            .into_iter()
            .filter(|w| tier == Tier::Smoke || tier == w.default_tier())
            .flat_map(|w| w.datasets())
            .collect();
        names.sort();
        names.dedup();
        for name in names {
            let spec = by_name(tier, &name).expect("workload datasets exist in the corpus");
            let r = compute_reference(&spec.load_unshuffled());
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}",
                tier_name(tier),
                name,
                r.vertices,
                r.edges,
                r.omega,
                r.multiplicity
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    #[test]
    fn decomposed_reference_matches_the_whole_graph_enumerator() {
        for seed in 0..6 {
            let graph = generators::gnp(60, 0.25, seed);
            let (omega, cliques) = ReferenceEnumerator::enumerate(&graph);
            let r = compute_reference(&graph);
            assert_eq!(
                (r.omega, r.multiplicity),
                (omega, cliques.len()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn relabelling_depends_on_the_seed_only() {
        let a = seeded_spec(Tier::Smoke, "ca-papers-01", 7);
        let b = seeded_spec(Tier::Smoke, "ca-papers-01", 7);
        let c = seeded_spec(Tier::Smoke, "ca-papers-01", 8);
        assert_eq!(a.shuffle_seed, b.shuffle_seed);
        assert_ne!(a.shuffle_seed, c.shuffle_seed);
    }
}
