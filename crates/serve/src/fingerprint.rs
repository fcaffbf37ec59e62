//! Cache keys: 64-bit FNV-1a fingerprints of the graph and of the
//! result-affecting subset of the solver configuration.
//!
//! Caching solve results exactly is sound because solves are
//! bit-deterministic: the clique set is proven identical across executor
//! worker counts, launch schedules and fault injection (the PR 5/6
//! determinism suites). Those three knobs — `schedule`, `faults`, `trace` —
//! are therefore *excluded* from the config fingerprint, while every knob
//! that can change the result set (heuristic, orientation, ordering,
//! windowing, early exit, pipeline selection) is folded in. The property
//! suite in `tests/serve.rs` pins both directions.

use std::hash::{Hash, Hasher};

use gmc_graph::Csr;
use gmc_mce::SolverConfig;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, wrapped in the std [`Hasher`] trait so `#[derive(Hash)]` types
/// can be folded in directly. Deterministic across runs (unlike the
/// randomly-keyed std hash maps), which keeps fingerprints loggable and
/// comparable between service restarts.
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Fingerprint of a graph's exact CSR structure (vertex count, offsets,
/// neighbor array). Two graphs collide only if they are byte-identical up
/// to a 64-bit hash collision; the cache stores the fingerprint pair only,
/// trading that astronomically-unlikely collision for not retaining every
/// served graph.
pub fn graph_fingerprint(graph: &Csr) -> u64 {
    let mut h = Fnv1a::new();
    graph.num_vertices().hash(&mut h);
    graph.offsets().hash(&mut h);
    graph.neighbor_array().hash(&mut h);
    h.finish()
}

/// Fingerprint of the result-affecting solver knobs.
///
/// Included: heuristic kind and seed count, orientation, candidate order,
/// sublist bound, witness polish, the full window configuration, early
/// exit, fused pipeline, local-bits mode.
///
/// Excluded (proven result-invariant): `schedule`, `faults`, `trace`, and
/// `edge_index`, which has a single value.
pub fn config_fingerprint(config: &SolverConfig) -> u64 {
    let mut h = Fnv1a::new();
    config.heuristic.hash(&mut h);
    config.heuristic_seeds.hash(&mut h);
    config.orientation.hash(&mut h);
    config.candidate_order.hash(&mut h);
    config.sublist_bound.hash(&mut h);
    config.polish_witness.hash(&mut h);
    // WindowConfig does not derive Hash; fold every field in by hand so a
    // new field is a conscious decision here too.
    match &config.window {
        None => 0u8.hash(&mut h),
        Some(w) => {
            1u8.hash(&mut h);
            w.size.hash(&mut h);
            w.ordering.hash(&mut h);
            w.enumerate_all.hash(&mut h);
            w.max_depth.hash(&mut h);
        }
    }
    config.early_exit.hash(&mut h);
    config.fused.hash(&mut h);
    config.local_bits.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    #[test]
    fn graph_fingerprint_separates_structures() {
        let a = generators::gnp(64, 0.3, 7);
        let b = generators::gnp(64, 0.3, 8);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&a));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::new();
        a.write(&[1, 2]);
        b.write(&[2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
