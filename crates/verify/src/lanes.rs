//! Differential solver lanes.
//!
//! A *lane* is one fully pinned solver configuration — fused or unfused
//! pipeline, a local-bits mode, a worker count, optionally a window — run
//! on a fresh device. Lane configurations are built from explicit fields
//! only: [`SolverConfig::default`] reads `GMC_LOCAL_BITS` and `GMC_FAULTS`
//! from the environment, so every env-sensitive field is overwritten here
//! to keep the harness deterministic no matter what the surrounding shell
//! exports.

use crate::Sabotage;
use gmc_dpp::Rng;
use gmc_dpp::{Device, FaultPlan};
use gmc_graph::Csr;
use gmc_mce::{
    LocalBitsMode, MaxCliqueSolver, SolveError, SolveResult, SolverConfig, WindowConfig,
};
use gmc_pmc::ReferenceEnumerator;

/// Windowing choice for a lane, reduced to what differential testing needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Nominal window size in 2-clique entries (`0` = automatic sizing).
    pub size: usize,
    /// Enumerate every maximum clique window by window (`true`), or run the
    /// paper's find-one mode (`false`) — the latter only promises *a*
    /// witness, so it is compared by membership rather than set equality.
    pub enumerate_all: bool,
}

/// One pinned BFS solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpec {
    /// Fused record-and-replay pipeline vs the paper-literal baseline.
    pub fused: bool,
    /// Core-bitmap mode.
    pub local_bits: LocalBitsMode,
    /// Device worker count.
    pub workers: usize,
    /// Windowed search, or `None` for the full breadth-first search.
    pub window: Option<WindowSpec>,
}

impl LaneSpec {
    /// The reference BFS lane: fused defaults on a 2-worker device, every
    /// env-sensitive knob pinned. Run against the oracle on *every* case.
    pub fn baseline() -> Self {
        Self {
            fused: true,
            local_bits: LocalBitsMode::Auto,
            workers: 2,
            window: None,
        }
    }

    /// A human-readable lane name for failure reports, e.g.
    /// `bfs[unfused,on,w8,win256-enum]`.
    pub fn name(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(4);
        parts.push(if self.fused { "fused" } else { "unfused" }.into());
        parts.push(self.local_bits.to_string());
        parts.push(format!("w{}", self.workers));
        if let Some(w) = &self.window {
            parts.push(format!(
                "win{}{}",
                w.size,
                if w.enumerate_all { "-enum" } else { "-one" }
            ));
        }
        format!("bfs[{}]", parts.join(","))
    }

    /// Does this lane enumerate the complete maximum-clique set (so its
    /// output can be compared to the oracle by set equality)?
    pub fn enumerates(&self) -> bool {
        self.window.map(|w| w.enumerate_all).unwrap_or(true)
    }

    /// The pinned [`SolverConfig`] — every env-read field overwritten.
    pub fn config(&self) -> SolverConfig {
        let mut config = SolverConfig {
            local_bits: self.local_bits,
            faults: None,
            fused: self.fused,
            ..SolverConfig::default()
        };
        config.window = self.window.map(|w| {
            let mut wc = if w.size == 0 {
                WindowConfig::auto()
            } else {
                WindowConfig::with_size(w.size)
            };
            wc.enumerate_all = w.enumerate_all;
            wc
        });
        config
    }

    /// Runs this lane on a fresh unlimited-memory device, optionally with a
    /// fault plan armed (`faults` overrides the pinned `None`).
    pub fn solve_with(
        &self,
        graph: &Csr,
        faults: Option<FaultPlan>,
    ) -> Result<SolveResult, SolveError> {
        let device = Device::new(self.workers, usize::MAX);
        let mut config = self.config();
        config.faults = faults;
        MaxCliqueSolver::with_config(device, config).solve(graph)
    }

    /// Runs this lane fault-free.
    pub fn solve(&self, graph: &Csr) -> Result<SolveResult, SolveError> {
        self.solve_with(graph, None)
    }

    /// The same lane with the core bitmap forced off — the scalar twin
    /// whose `oracle_queries` anchor the probe-accounting invariant.
    pub fn scalar_twin(&self) -> Self {
        Self {
            local_bits: LocalBitsMode::Off,
            ..*self
        }
    }
}

/// Local-bits modes the lane sampler draws from.
const LOCAL_BITS: [LocalBitsMode; 3] = [LocalBitsMode::Off, LocalBitsMode::On, LocalBitsMode::Auto];

/// Worker counts the lane sampler draws from.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Draws `count` distinct lane variants from the full cross-product
/// (fused × local-bits × window × workers). The baseline lane
/// runs on every case regardless; these are the per-case extras, so over
/// many cases the whole cross-product gets visited.
pub fn sample_lanes(rng: &mut Rng, count: usize) -> Vec<LaneSpec> {
    let mut lanes: Vec<LaneSpec> = Vec::with_capacity(count);
    let mut guard = 0;
    while lanes.len() < count && guard < count * 20 {
        guard += 1;
        let window = match rng.gen_range(0..4u32) {
            // Flat search most of the time; small windows so multi-window
            // paths actually trigger on tens-of-vertices graphs.
            0 => Some(WindowSpec {
                size: *rng.choose(&[0usize, 8, 64, 1024]).unwrap(),
                enumerate_all: rng.gen_bool(0.7),
            }),
            _ => None,
        };
        let lane = LaneSpec {
            fused: rng.gen_bool(0.7),
            local_bits: *rng.choose(&LOCAL_BITS).unwrap(),
            workers: *rng.choose(&WORKERS).unwrap(),
            window,
        };
        // Local bits only act inside the fused pipeline; forcing them on an
        // unfused lane is a no-op — keep the lane, it still checks the
        // pipeline itself.
        if !lanes.contains(&lane) && lane != LaneSpec::baseline() {
            lanes.push(lane);
        }
    }
    lanes
}

/// Ground truth: the sequential reference enumeration (ω, canonical
/// maximum-clique set).
pub fn oracle(graph: &Csr) -> (u32, Vec<Vec<u32>>) {
    ReferenceEnumerator::enumerate(graph)
}

/// Applies the test-only broken-solver corruption to a BFS lane result (see
/// [`Sabotage`]). Production solves never pass through here with `Some`.
pub fn apply_sabotage(result: &mut SolveResult, sabotage: Option<Sabotage>) {
    match sabotage {
        Some(Sabotage::DropTies) if result.cliques.len() > 1 => {
            result.cliques.truncate(1);
        }
        Some(Sabotage::UnderReport) if result.clique_number >= 3 => {
            result.clique_number -= 1;
            for clique in &mut result.cliques {
                clique.pop();
            }
            result.cliques.dedup();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_oracle_on_a_planted_graph() {
        let mut rng = Rng::seed_from_u64(11);
        let case = crate::gen::sample_category(&mut rng, "planted");
        let graph = case.to_csr();
        let (omega, cliques) = oracle(&graph);
        let result = LaneSpec::baseline().solve(&graph).unwrap();
        assert_eq!(result.clique_number, omega);
        assert_eq!(result.cliques, cliques);
        assert!(result.complete_enumeration);
    }

    #[test]
    fn lane_names_are_distinct_and_descriptive() {
        let mut rng = Rng::seed_from_u64(5);
        let lanes = sample_lanes(&mut rng, 6);
        assert_eq!(lanes.len(), 6);
        let names: std::collections::HashSet<String> = lanes.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), lanes.len());
        for name in &names {
            assert!(name.starts_with("bfs["), "{name}");
        }
    }

    #[test]
    fn sabotage_corrupts_results() {
        let graph = gmc_graph::generators::complete_multipartite(&[2, 2]);
        let mut result = LaneSpec::baseline().solve(&graph).unwrap();
        let honest = result.cliques.len();
        assert!(honest > 1);
        apply_sabotage(&mut result, Some(Sabotage::DropTies));
        assert_eq!(result.cliques.len(), 1);

        let triangle = gmc_graph::generators::complete(3);
        let mut result = LaneSpec::baseline().solve(&triangle).unwrap();
        apply_sabotage(&mut result, Some(Sabotage::UnderReport));
        assert_eq!(result.clique_number, 2);
    }
}
