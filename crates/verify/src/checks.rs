//! The check battery: differential lanes and metamorphic relations.
//!
//! Each [`Check`] is *data* — a pure description of one assertion over one
//! graph — so that when a check fails, the shrinker can re-evaluate the
//! exact same check on every candidate subgraph. Evaluation is therefore a
//! pure function of `(check, graph)`: any randomness a check needs (a
//! relabeling permutation, a fault seed, a second union component) is
//! carried *inside* the check as a seed, fixed when the battery is drawn.

use crate::lanes::{self, LaneSpec};
use crate::{CaseGraph, Sabotage, Tally};
use gmc_dpp::{CancelToken, Device, FaultPlan, Rng};
use gmc_graph::{generators, Csr};
use gmc_mce::{LocalBitsMode, MaxCliqueSolver, SolveError, SolveResult};
use gmc_pmc::ParallelBranchBound;
use std::time::Instant;

/// One assertion over one graph. See the module docs for why checks are
/// data rather than closures.
#[derive(Debug, Clone)]
pub enum Check {
    /// A BFS lane must reproduce the oracle: identical ω, and (for
    /// enumerating lanes) the identical canonical clique set; find-one
    /// lanes must return a valid maximum-clique witness from the oracle
    /// set.
    Differential {
        /// The pinned solver configuration under test.
        lane: LaneSpec,
    },
    /// The depth-first branch-and-bound baseline must agree on ω and
    /// return a witness from the oracle set.
    Pmc,
    /// Exact probe accounting: a fused lane with bitmaps enabled and its
    /// scalar twin (same lane, `local_bits = Off`) must reconcile
    /// `oracle_queries + probes_avoided == twin.oracle_queries`. Both run
    /// fault-free, the only setting where the equality is exact.
    ProbeAccounting {
        /// The bitmap-enabled lane (fused; `local_bits != Off`).
        lane: LaneSpec,
    },
    /// Fault-plan equivalence: under two different active fault plans the
    /// baseline lane must produce bit-identical output to the fault-free
    /// solve, with `recovered == injected` on each faulted run.
    FaultEquivalence {
        /// Seed for the two derived fault plans.
        seed: u64,
    },
    /// Cancellation hygiene: a pre-expired deadline must surface
    /// [`SolveError::Cancelled`] with zero bytes still charged to the
    /// device afterwards. Skipped on edgeless graphs (the solver answers
    /// those before its first cancellation poll).
    CancelHygiene,
    /// Vertex relabeling invariance: solving a seeded random relabeling
    /// and mapping the cliques back must reproduce the original clique
    /// set exactly.
    Relabel {
        /// Permutation seed.
        seed: u64,
    },
    /// Planting a k-clique can only raise ω: the planted graph's ω must be
    /// ≥ max(k, original ω). Skipped when the graph has fewer than k
    /// vertices.
    PlantClique {
        /// Seed for the planted member choice; also fixes k.
        seed: u64,
    },
    /// Disjoint union with a second seeded component: ω must be the max of
    /// the parts and the clique set exactly the winners' union.
    Union {
        /// Seed generating the second component.
        seed: u64,
    },
    /// Deleting one edge can lower ω by at most one and never raise it.
    /// Skipped on edgeless graphs.
    DeleteEdge {
        /// Selects which edge is deleted.
        seed: u64,
    },
    /// Adding a universal vertex: ω must grow by exactly one and every
    /// maximum clique must be an original maximum clique plus the new
    /// vertex (for the empty graph: exactly the new singleton).
    UniversalVertex,
    /// Memory-budget replay: re-solving under a finite budget derived from
    /// the observed peak must be bit-identical — or OOM, which the
    /// relation explicitly permits (it promises nothing else changes
    /// *when the solve fits*).
    BudgetReplay,
}

impl Check {
    /// Stable name for failure reports and corpus files.
    pub fn name(&self) -> String {
        match self {
            Check::Differential { lane } => format!("differential: {} vs oracle", lane.name()),
            Check::Pmc => "differential: pmc vs oracle".into(),
            Check::ProbeAccounting { lane } => {
                format!("probe-accounting: {} vs scalar twin", lane.name())
            }
            Check::FaultEquivalence { seed } => format!("fault-equivalence(seed={seed})"),
            Check::CancelHygiene => "cancel-hygiene".into(),
            Check::Relabel { seed } => format!("metamorphic: relabel(seed={seed})"),
            Check::PlantClique { seed } => format!("metamorphic: plant-clique(seed={seed})"),
            Check::Union { seed } => format!("metamorphic: union(seed={seed})"),
            Check::DeleteEdge { seed } => format!("metamorphic: delete-edge(seed={seed})"),
            Check::UniversalVertex => "metamorphic: universal-vertex".into(),
            Check::BudgetReplay => "metamorphic: budget-replay".into(),
        }
    }
}

/// Draws the battery run against one case. Replayed corpus graphs get a
/// wider lane sample — they are tiny, so thoroughness is cheap there.
pub fn battery(rng: &mut Rng, replay: bool) -> Vec<Check> {
    let mut checks = vec![
        Check::Differential {
            lane: LaneSpec::baseline(),
        },
        Check::Pmc,
    ];
    let extra = if replay { 4 } else { 2 };
    for lane in lanes::sample_lanes(rng, extra) {
        checks.push(Check::Differential { lane });
    }
    // Probe accounting needs the fused pipeline (the core bitmap is a
    // fused count kernel fast path) and a mode that can build it.
    let tier = *rng
        .choose(&[LocalBitsMode::On, LocalBitsMode::Auto])
        .unwrap();
    checks.push(Check::ProbeAccounting {
        lane: LaneSpec {
            fused: true,
            local_bits: tier,
            window: None,
            ..LaneSpec::baseline()
        },
    });
    checks.push(Check::FaultEquivalence {
        seed: rng.next_u64(),
    });
    checks.push(Check::CancelHygiene);
    checks.push(Check::Relabel {
        seed: rng.next_u64(),
    });
    checks.push(Check::PlantClique {
        seed: rng.next_u64(),
    });
    checks.push(Check::Union {
        seed: rng.next_u64(),
    });
    checks.push(Check::DeleteEdge {
        seed: rng.next_u64(),
    });
    checks.push(Check::UniversalVertex);
    checks.push(Check::BudgetReplay);
    checks
}

/// Evaluates one check against one graph. `Ok(())` means the assertion
/// held (or the check did not apply to this graph); `Err` carries the
/// disagreement message. [`Sabotage`] corrupts BFS differential lanes
/// only — it simulates a broken solver, and the differential lanes are
/// where a broken solver must be caught.
pub fn eval(
    check: &Check,
    case: &CaseGraph,
    sabotage: Option<Sabotage>,
    tally: &mut Tally,
) -> Result<(), String> {
    let graph = case.to_csr();
    match check {
        Check::Differential { lane } => {
            tally.differential += 1;
            let (omega, expected) = lanes::oracle(&graph);
            tally.solves += 1;
            let mut result = lane
                .solve(&graph)
                .map_err(|e| format!("{} failed to solve: {e}", lane.name()))?;
            lanes::apply_sabotage(&mut result, sabotage);
            compare_to_oracle(lane, &graph, &result, omega, &expected)
        }
        Check::Pmc => {
            tally.differential += 1;
            let (omega, expected) = lanes::oracle(&graph);
            tally.solves += 1;
            let result = ParallelBranchBound::new(2).solve(&graph);
            if result.clique_number != omega {
                return Err(format!(
                    "pmc ω = {} but oracle ω = {omega}",
                    result.clique_number
                ));
            }
            if omega == 0 {
                return Ok(());
            }
            if result.clique.len() != omega as usize {
                return Err(format!(
                    "pmc witness has {} vertices, ω = {omega}",
                    result.clique.len()
                ));
            }
            if !expected.contains(&result.clique) {
                return Err(format!(
                    "pmc witness {:?} is not one of the oracle's maximum cliques",
                    result.clique
                ));
            }
            Ok(())
        }
        Check::ProbeAccounting { lane } => {
            tally.differential += 1;
            tally.solves += 2;
            let with_bits = lane
                .solve(&graph)
                .map_err(|e| format!("{} failed to solve: {e}", lane.name()))?;
            let twin = lane.scalar_twin();
            let scalar = twin
                .solve(&graph)
                .map_err(|e| format!("{} failed to solve: {e}", twin.name()))?;
            if with_bits.cliques != scalar.cliques {
                return Err(format!(
                    "{} and {} disagree on the clique set",
                    lane.name(),
                    twin.name()
                ));
            }
            let probed = with_bits.stats.oracle_queries + with_bits.stats.local_bits.probes_avoided;
            if probed != scalar.stats.oracle_queries {
                return Err(format!(
                    "probe accounting broken: {} made {} oracle queries and avoided {}, \
                     but its scalar twin made {}",
                    lane.name(),
                    with_bits.stats.oracle_queries,
                    with_bits.stats.local_bits.probes_avoided,
                    scalar.stats.oracle_queries
                ));
            }
            Ok(())
        }
        Check::FaultEquivalence { seed } => {
            tally.metamorphic += 1;
            tally.solves += 3;
            let lane = LaneSpec::baseline();
            let clean = lane
                .solve(&graph)
                .map_err(|e| format!("fault-free solve failed: {e}"))?;
            for plan_seed in [*seed, seed.wrapping_add(1)] {
                let plan = FaultPlan {
                    seed: plan_seed,
                    alloc_rate: 0.02,
                    launch_rate: 0.02,
                    max_retries: 64,
                };
                let faulted = lane
                    .solve_with(&graph, Some(plan))
                    .map_err(|e| format!("faulted solve (seed {plan_seed}) failed: {e}"))?;
                if faulted.clique_number != clean.clique_number || faulted.cliques != clean.cliques
                {
                    return Err(format!(
                        "fault plan seed {plan_seed} changed the output: \
                         ω {} vs {} fault-free",
                        faulted.clique_number, clean.clique_number
                    ));
                }
                let stats = faulted.stats.faults;
                if stats.recovered() != stats.injected() {
                    return Err(format!(
                        "fault plan seed {plan_seed}: injected {} faults but recovered {}",
                        stats.injected(),
                        stats.recovered()
                    ));
                }
            }
            Ok(())
        }
        Check::CancelHygiene => {
            // The solver answers empty/edgeless graphs before its first
            // cancellation poll; the probe is only meaningful with edges.
            if graph.num_edges() == 0 {
                return Ok(());
            }
            tally.differential += 1;
            tally.solves += 1;
            let device = Device::new(2, usize::MAX);
            device.set_cancel_token(Some(CancelToken::with_deadline(Instant::now())));
            let outcome =
                MaxCliqueSolver::with_config(device.clone(), LaneSpec::baseline().config())
                    .solve(&graph);
            match outcome {
                Err(SolveError::Cancelled(_)) => {}
                Ok(_) => {
                    return Err(
                        "solve under a pre-expired deadline completed instead of cancelling".into(),
                    )
                }
                Err(other) => {
                    return Err(format!(
                        "solve under a pre-expired deadline failed with {other} \
                         instead of Cancelled"
                    ))
                }
            }
            let live = device.memory().live();
            if live != 0 {
                return Err(format!(
                    "cancelled solve left {live} bytes charged to the device"
                ));
            }
            Ok(())
        }
        Check::Relabel { seed } => {
            tally.metamorphic += 1;
            tally.solves += 2;
            let lane = LaneSpec::baseline();
            let original = lane
                .solve(&graph)
                .map_err(|e| format!("solve failed: {e}"))?;
            let (relabelled, perm) = graph.randomize_vertex_ids(*seed);
            let renamed = lane
                .solve(&relabelled)
                .map_err(|e| format!("solve of relabelled graph failed: {e}"))?;
            // Map the relabelled cliques back through the inverse
            // permutation (new_id = perm[old_id]).
            let mut inverse = vec![0u32; perm.len()];
            for (old, &new) in perm.iter().enumerate() {
                inverse[new as usize] = old as u32;
            }
            let mut mapped: Vec<Vec<u32>> = renamed
                .cliques
                .iter()
                .map(|clique| {
                    let mut back: Vec<u32> = clique.iter().map(|&v| inverse[v as usize]).collect();
                    back.sort_unstable();
                    back
                })
                .collect();
            mapped.sort();
            if renamed.clique_number != original.clique_number || mapped != original.cliques {
                return Err(format!(
                    "relabeling changed the answer: ω {} with {} cliques vs \
                     ω {} with {} cliques after mapping back",
                    original.clique_number,
                    original.cliques.len(),
                    renamed.clique_number,
                    mapped.len()
                ));
            }
            Ok(())
        }
        Check::PlantClique { seed } => {
            let k = 3 + (seed % 4) as usize;
            if case.n < k {
                return Ok(());
            }
            tally.metamorphic += 1;
            tally.solves += 2;
            let lane = LaneSpec::baseline();
            let original = lane
                .solve(&graph)
                .map_err(|e| format!("solve failed: {e}"))?;
            let (planted, members) = generators::plant_clique(&graph, k, *seed);
            let grown = lane
                .solve(&planted)
                .map_err(|e| format!("solve of planted graph failed: {e}"))?;
            let floor = (k as u32).max(original.clique_number);
            if grown.clique_number < floor {
                return Err(format!(
                    "planted a {k}-clique on {members:?} but ω fell to {} \
                     (was {}, floor {floor})",
                    grown.clique_number, original.clique_number
                ));
            }
            Ok(())
        }
        Check::Union { seed } => {
            tally.metamorphic += 1;
            tally.solves += 3;
            let lane = LaneSpec::baseline();
            let mine = lane
                .solve(&graph)
                .map_err(|e| format!("solve failed: {e}"))?;
            let mut rng = Rng::seed_from_u64(*seed);
            let other_n = rng.gen_range(1..12usize);
            let other = generators::gnp(other_n, 0.5, rng.next_u64());
            let theirs = lane
                .solve(&other)
                .map_err(|e| format!("solve of union component failed: {e}"))?;
            let offset = case.n as u32;
            let mut edges = case.edges.clone();
            for (u, v) in CaseGraph::from_csr(&other).edges {
                edges.push((u + offset, v + offset));
            }
            let union = CaseGraph::new(case.n + other_n, edges).to_csr();
            let combined = lane
                .solve(&union)
                .map_err(|e| format!("solve of disjoint union failed: {e}"))?;
            let omega = mine.clique_number.max(theirs.clique_number);
            let mut expected: Vec<Vec<u32>> = Vec::new();
            if mine.clique_number == omega {
                expected.extend(mine.cliques.iter().cloned());
            }
            if theirs.clique_number == omega {
                expected.extend(
                    theirs
                        .cliques
                        .iter()
                        .map(|c| c.iter().map(|&v| v + offset).collect()),
                );
            }
            expected.sort();
            if combined.clique_number != omega || combined.cliques != expected {
                return Err(format!(
                    "disjoint union broke ω = max: parts have ω {} and {}, \
                     union reported ω {} with {} cliques (expected {})",
                    mine.clique_number,
                    theirs.clique_number,
                    combined.clique_number,
                    combined.cliques.len(),
                    expected.len()
                ));
            }
            Ok(())
        }
        Check::DeleteEdge { seed } => {
            if case.edges.is_empty() {
                return Ok(());
            }
            tally.metamorphic += 1;
            tally.solves += 2;
            let lane = LaneSpec::baseline();
            let before = lane
                .solve(&graph)
                .map_err(|e| format!("solve failed: {e}"))?;
            let mut edges = case.edges.clone();
            let dropped = edges.remove((*seed as usize) % edges.len());
            let thinner = CaseGraph::new(case.n, edges).to_csr();
            let after = lane
                .solve(&thinner)
                .map_err(|e| format!("solve after edge deletion failed: {e}"))?;
            let (b, a) = (before.clique_number, after.clique_number);
            if a > b || a + 1 < b {
                return Err(format!(
                    "deleting edge {dropped:?} moved ω from {b} to {a} \
                     (must stay or drop by exactly one)"
                ));
            }
            Ok(())
        }
        Check::UniversalVertex => {
            tally.metamorphic += 1;
            tally.solves += 2;
            let lane = LaneSpec::baseline();
            let original = lane
                .solve(&graph)
                .map_err(|e| format!("solve failed: {e}"))?;
            let hub = case.n as u32;
            let mut edges = case.edges.clone();
            edges.extend((0..hub).map(|v| (v, hub)));
            let starred = CaseGraph::new(case.n + 1, edges).to_csr();
            let grown = lane
                .solve(&starred)
                .map_err(|e| format!("solve with universal vertex failed: {e}"))?;
            let expected: Vec<Vec<u32>> = if case.n == 0 {
                // K1: the new vertex is the only (maximum) clique.
                vec![vec![0]]
            } else {
                // Every maximum clique of G + hub; order is preserved
                // because appending the largest id keeps lex order.
                original
                    .cliques
                    .iter()
                    .map(|c| {
                        let mut c = c.clone();
                        c.push(hub);
                        c
                    })
                    .collect()
            };
            if grown.clique_number != original.clique_number + 1 || grown.cliques != expected {
                return Err(format!(
                    "universal vertex: expected ω {} with {} cliques, got ω {} with {}",
                    original.clique_number + 1,
                    expected.len(),
                    grown.clique_number,
                    grown.cliques.len()
                ));
            }
            Ok(())
        }
        Check::BudgetReplay => {
            tally.metamorphic += 1;
            tally.solves += 2;
            let lane = LaneSpec::baseline();
            let roomy = lane
                .solve(&graph)
                .map_err(|e| format!("solve failed: {e}"))?;
            let peak = roomy.stats.peak_device_bytes + roomy.stats.heuristic_peak_bytes;
            let capacity = peak * 2 + (1 << 20);
            let device = Device::new(2, capacity);
            let replay = MaxCliqueSolver::with_config(device, lane.config()).solve(&graph);
            match replay {
                // The relation is conditional: a tighter budget is allowed
                // to OOM, it is not allowed to change the answer.
                Err(SolveError::DeviceOom(_)) => Ok(()),
                Err(other) => Err(format!("budget replay failed unexpectedly: {other}")),
                Ok(tight) => {
                    if tight.clique_number != roomy.clique_number || tight.cliques != roomy.cliques
                    {
                        return Err(format!(
                            "a {capacity}-byte budget changed the answer: ω {} with {} \
                             cliques vs ω {} with {} unlimited",
                            tight.clique_number,
                            tight.cliques.len(),
                            roomy.clique_number,
                            roomy.cliques.len()
                        ));
                    }
                    Ok(())
                }
            }
        }
    }
}

/// Shared comparison of one BFS lane result against the oracle.
fn compare_to_oracle(
    lane: &LaneSpec,
    graph: &Csr,
    result: &SolveResult,
    omega: u32,
    expected: &[Vec<u32>],
) -> Result<(), String> {
    if result.clique_number != omega {
        return Err(format!(
            "{} reported ω = {} but the oracle says {omega}",
            lane.name(),
            result.clique_number
        ));
    }
    if omega == 0 {
        if !result.cliques.is_empty() {
            return Err(format!(
                "{} returned cliques for the empty graph",
                lane.name()
            ));
        }
        return Ok(());
    }
    if result.complete_enumeration {
        if result.cliques != expected {
            return Err(format!(
                "{} enumerated {} maximum cliques, oracle found {}; sets differ",
                lane.name(),
                result.cliques.len(),
                expected.len()
            ));
        }
        return Ok(());
    }
    if !lane.enumerates() {
        // Find-one mode promises exactly one valid maximum-clique witness.
        let [witness] = result.cliques.as_slice() else {
            return Err(format!(
                "{} in find-one mode returned {} cliques",
                lane.name(),
                result.cliques.len()
            ));
        };
        if witness.len() != omega as usize || !graph.is_clique(witness) {
            return Err(format!(
                "{} returned an invalid witness {witness:?} for ω = {omega}",
                lane.name()
            ));
        }
        if !expected.contains(witness) {
            return Err(format!(
                "{} witness {witness:?} is not one of the oracle's maximum cliques",
                lane.name()
            ));
        }
        return Ok(());
    }
    Err(format!(
        "{} promised enumeration but flagged the result incomplete",
        lane.name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_clean(check: &Check, case: &CaseGraph) -> Result<(), String> {
        eval(check, case, None, &mut Tally::default())
    }

    #[test]
    fn battery_passes_on_seeded_cases() {
        // One case per generator category through the full battery — the
        // smoke version of what `run()` does for a budget.
        for (i, &category) in crate::gen::CATEGORIES.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(100 + i as u64);
            let case = crate::gen::sample_category(&mut rng, category);
            for check in battery(&mut rng, false) {
                if let Err(detail) = eval_clean(&check, &case) {
                    panic!("{category}: {} failed: {detail}", check.name());
                }
            }
        }
    }

    #[test]
    fn sabotage_is_caught_by_the_differential_lane() {
        let mut tally = Tally::default();
        let tie_case = CaseGraph::new(2, Vec::new());
        let baseline = Check::Differential {
            lane: LaneSpec::baseline(),
        };
        assert!(eval(&baseline, &tie_case, Some(Sabotage::DropTies), &mut tally).is_err());
        let triangle = CaseGraph::new(3, vec![(0, 1), (1, 2), (0, 2)]);
        assert!(eval(
            &baseline,
            &triangle,
            Some(Sabotage::UnderReport),
            &mut tally
        )
        .is_err());
        // And the honest solver passes the same checks.
        assert!(eval(&baseline, &tie_case, None, &mut tally).is_ok());
        assert!(eval(&baseline, &triangle, None, &mut tally).is_ok());
    }

    #[test]
    fn check_names_are_stable() {
        assert_eq!(
            Check::Differential {
                lane: LaneSpec::baseline()
            }
            .name(),
            "differential: bfs[fused,auto,w2] vs oracle"
        );
        assert_eq!(
            Check::UniversalVertex.name(),
            "metamorphic: universal-vertex"
        );
    }
}
