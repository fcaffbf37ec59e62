//! Micro-benchmarks for the solver phases: heuristics, setup and
//! end-to-end solves on representative corpus datasets, plus the PMC
//! baseline on the same instances. Runs on the in-tree harness.

use gmc_bench::harness::Harness;
use gmc_corpus::{by_name, Tier};
use gmc_dpp::Device;
use gmc_graph::Csr;
use gmc_heuristic::HeuristicKind;
use gmc_mce::{MaxCliqueSolver, SolverConfig, WindowConfig};
use gmc_pmc::ParallelBranchBound;

fn dataset(name: &str) -> Csr {
    by_name(Tier::Smoke, name)
        .unwrap_or_else(|| panic!("dataset {name}"))
        .load()
}

/// The four heuristics on soc-sphere-05, whose multi-run waves stop most
/// runs early, and the multi-run ones on road-grid-02, where wave 1's bound
/// stops none.
fn bench_heuristics(h: &mut Harness) {
    let device = Device::unlimited();
    let graph = dataset("soc-sphere-05");
    let mut group = h.group("heuristic");
    for kind in [
        HeuristicKind::SingleDegree,
        HeuristicKind::SingleCore,
        HeuristicKind::MultiDegree,
        HeuristicKind::MultiCore,
    ] {
        group.bench(kind.name(), |b| {
            b.iter(|| gmc_heuristic::run_heuristic(&device, &graph, kind, None).unwrap());
        });
    }
    let grid = dataset("road-grid-02");
    for kind in [HeuristicKind::MultiDegree, HeuristicKind::MultiCore] {
        group.bench(&format!("{}/road-grid-02", kind.name()), |b| {
            b.iter(|| gmc_heuristic::run_heuristic(&device, &grid, kind, None).unwrap());
        });
    }
    group.finish();
}

fn bench_setup(h: &mut Harness) {
    let device = Device::unlimited();
    let graph = dataset("socfb-campus-07");
    h.bench("setup/preview_socfb", |b| {
        b.iter(|| gmc_mce::preview_setup(&device, &graph, &SolverConfig::default()).unwrap());
    });
}

fn bench_full_solve(h: &mut Harness) {
    let mut group = h.group("solve");
    for name in [
        "road-grid-02",
        "ca-papers-03",
        "socfb-campus-04",
        "web-crawl-03",
    ] {
        let graph = dataset(name);
        group.bench(&format!("bfs/{name}"), |b| {
            let solver = MaxCliqueSolver::new(Device::unlimited());
            b.iter(|| solver.solve(&graph).unwrap());
        });
        group.bench(&format!("windowed/{name}"), |b| {
            let solver =
                MaxCliqueSolver::new(Device::unlimited()).windowed(WindowConfig::with_size(1024));
            b.iter(|| solver.solve(&graph).unwrap());
        });
        group.bench(&format!("pmc/{name}"), |b| {
            let pmc = ParallelBranchBound::with_default_parallelism();
            b.iter(|| pmc.solve(&graph));
        });
    }
    group.finish();
}

fn bench_expansion_heavy(h: &mut Harness) {
    // A denser instance exercising multiple expansion levels.
    let graph = gmc_graph::generators::gnp(400, 0.15, 99);
    h.bench("solve/gnp_400_dense", |b| {
        let solver = MaxCliqueSolver::new(Device::unlimited());
        b.iter(|| solver.solve(&graph).unwrap());
    });
}

fn main() {
    let mut harness = Harness::from_args();
    bench_heuristics(&mut harness);
    bench_setup(&mut harness);
    bench_full_solve(&mut harness);
    bench_expansion_heavy(&mut harness);
    harness.finish();
}
