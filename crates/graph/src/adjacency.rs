//! Alternative edge-membership structures (paper §III-3).
//!
//! The choice of graph data structure determines the speed of the set
//! intersections at the heart of the search. The paper weighs three options
//! and picks CSR + binary search for its memory economy on large graphs:
//!
//! * **Bitset adjacency matrix** — O(1) lookups via bitwise ops, but
//!   `n²/8` bytes ("very space-inefficient"); the choice of
//!   VanCompernolle et al. and several CPU solvers.
//! * **CSR with sorted adjacency + binary search** — `O(log d)` lookups at
//!   `O(|E|)` space; the paper's choice ([`Csr::has_edge`]).
//! * **Hash tables** — near-O(1) expected lookups at `O(|E|)` space with a
//!   constant-factor overhead; the choice of Lessley et al.
//!
//! All three implement [`EdgeOracle`], so the solver can be parameterised
//! over the lookup strategy and the trade-off measured (see the `ablations`
//! bench target).

use crate::Csr;
use gmc_dpp::{DeviceError, Executor, Launch, SharedSlice, UninitSlice};

/// Edge-membership oracle: the single operation the expansion kernels need.
pub trait EdgeOracle: Sync {
    /// Whether the undirected edge `{u, v}` exists.
    fn connected(&self, u: u32, v: u32) -> bool;

    /// Approximate device-memory footprint of the structure, in bytes
    /// (charged by the solver when it builds one).
    fn footprint_bytes(&self) -> usize;
}

impl EdgeOracle for Csr {
    #[inline]
    fn connected(&self, u: u32, v: u32) -> bool {
        self.has_edge(u, v)
    }

    fn footprint_bytes(&self) -> usize {
        // Offsets plus neighbor array (already resident for the CSR).
        std::mem::size_of_val(self.offsets()) + std::mem::size_of_val(self.neighbor_array())
    }
}

/// Dense bitset adjacency matrix: one bit per ordered pair.
///
/// `n²/8` bytes — quadratic, so only sensible for graphs up to a few tens
/// of thousands of vertices, but lookups are a single shift/mask.
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Builds the matrix from a CSR graph as one executor launch: a virtual
    /// thread per row streams that vertex's sorted adjacency list into
    /// packed words (each word written exactly once), so the quadratic
    /// setup cost lands on the device and in traces like every other
    /// kernel.
    pub fn build(exec: &Executor, graph: &Csr) -> Self {
        let n = graph.num_vertices();
        let words_per_row = n.div_ceil(64);
        let mut bits = Vec::new();
        {
            let dst = UninitSlice::for_vec(&mut bits, n * words_per_row);
            // Cost hint: a row streams its adjacency list plus the row's
            // zero-fill, so degree skew maps straight onto launch skew.
            let row_cost = |v: usize| (graph.degree(v as u32) + words_per_row) as u64;
            let launch = Launch::new("bitmatrix_build_rows", n).weighted(&row_cost);
            exec.run(launch, |v| {
                let row = v * words_per_row;
                let mut word = 0u64;
                let mut cur = 0usize;
                for &u in graph.neighbors(v as u32) {
                    let w = u as usize >> 6;
                    while cur < w {
                        // SAFETY: row `v` owns words `row..row + words_per_row`;
                        // the cursor visits each exactly once.
                        unsafe { dst.write(row + cur, word) };
                        word = 0;
                        cur += 1;
                    }
                    word |= 1 << (u as usize & 63);
                }
                for w in cur..words_per_row {
                    // SAFETY: completes the row — the partial word, then
                    // zeros — one write per slot.
                    unsafe { dst.write(row + w, if w == cur { word } else { 0 }) };
                }
            });
        }
        // SAFETY: the launch wrote every word of every row.
        unsafe { bits.set_len(n * words_per_row) };
        Self {
            n,
            words_per_row,
            bits,
        }
    }

    /// Device footprint of a matrix over `n` vertices, computable *before*
    /// building (so OOM can fail fast without materialising `n²/8` bytes).
    pub fn footprint_for(n: usize) -> usize {
        n * n.div_ceil(64) * std::mem::size_of::<u64>()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of common neighbors of `u` and `v` via word-wise AND +
    /// popcount — the "fastest intersections use bitwise operations" path
    /// the paper cites.
    pub fn intersection_size(&self, u: u32, v: u32) -> usize {
        let ru = u as usize * self.words_per_row;
        let rv = v as usize * self.words_per_row;
        let mut count = 0usize;
        for w in 0..self.words_per_row {
            count += (self.bits[ru + w] & self.bits[rv + w]).count_ones() as usize;
        }
        count
    }
}

impl EdgeOracle for BitMatrix {
    #[inline]
    fn connected(&self, u: u32, v: u32) -> bool {
        let row = u as usize * self.words_per_row;
        (self.bits[row + (v as usize >> 6)] >> (v as usize & 63)) & 1 == 1
    }

    fn footprint_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }
}

/// Sentinel in [`CoreBitmap`]'s renumber table for a vertex removed by the
/// setup phase's core pruning.
const PRUNED: u32 = u32::MAX;

/// A *persistent* core-graph adjacency bitmap: the dense bitset matrix of
/// the subgraph induced by the vertices that survive k-core pruning,
/// renumbered into a degeneracy-ordered dense ID space.
///
/// The GPU clique literature (Almasri et al.) materialises a binary-encoded
/// induced subgraph once after preprocessing and probes it for the rest of
/// the search. This is the same move: core pruning typically discards the
/// long sparse tail of a power-law graph, so `n_core² / 8` bytes is often
/// affordable where `n² / 8` is not, and every successor-adjacency probe
/// for the rest of the solve becomes a single word test — no per-level
/// rebuild, no [`EdgeOracle`] binary search on the hot path.
///
/// Probes take *original* vertex ids and translate through the renumber
/// table; both endpoints must have survived pruning (the solver's 2-clique
/// list only carries survivors, so this holds on the hot path by
/// construction).
pub struct CoreBitmap {
    /// `new_of_old[old_id]` — dense degeneracy-ordered id, or [`PRUNED`].
    new_of_old: Vec<u32>,
    /// `n_core × n_core` adjacency over the dense id space.
    matrix: BitMatrix,
}

impl CoreBitmap {
    /// Device footprint of a bitmap over `n_core` surviving vertices of an
    /// `n_total`-vertex graph, computable *before* building: the dense
    /// matrix plus the `u32` renumber table.
    pub fn footprint_for(n_core: usize, n_total: usize) -> usize {
        BitMatrix::footprint_for(n_core) + n_total * std::mem::size_of::<u32>()
    }

    /// Builds the bitmap for the vertices with `keep[v] == true`, as two
    /// executor launches: a renumber scatter (one virtual thread per
    /// survivor) and a weighted row build (one virtual thread per row,
    /// cost-hinted by degree). Both are `try_` launches, so injected
    /// faults and deadline cancellation surface here instead of aborting —
    /// the caller degrades to the scalar walk or unwinds its charge.
    pub fn try_build(exec: &Executor, graph: &Csr, keep: &[bool]) -> Result<Self, DeviceError> {
        assert_eq!(keep.len(), graph.num_vertices(), "keep mask length");
        exec.check_cancelled()?;
        // Degeneracy order over the full graph, filtered to the survivors:
        // the dense ID space inherits the orientation the search uses.
        let (order, _) = crate::kcore::degeneracy_order(graph);
        let old_of_new: Vec<u32> = order.into_iter().filter(|&v| keep[v as usize]).collect();
        let n_core = old_of_new.len();
        let mut new_of_old = vec![PRUNED; graph.num_vertices()];
        {
            let dst = SharedSlice::new(&mut new_of_old);
            let ids = &old_of_new;
            exec.try_run(Launch::new("corebits_renumber", n_core), |i| {
                // SAFETY: `old_of_new` entries are distinct, so each slot
                // has exactly one writer.
                unsafe { dst.write(ids[i] as usize, i as u32) };
            })?;
        }
        let words_per_row = n_core.div_ceil(64);
        let mut bits = vec![0u64; n_core * words_per_row];
        {
            let dst = SharedSlice::new(&mut bits);
            let remap = &new_of_old;
            let ids = &old_of_new;
            let row_cost = |r: usize| (graph.degree(ids[r]) + words_per_row) as u64;
            let launch = Launch::new("corebits_build_rows", n_core).weighted(&row_cost);
            exec.try_run(launch, |r| {
                let row = r * words_per_row;
                for &u in graph.neighbors(ids[r]) {
                    let c = remap[u as usize];
                    if c != PRUNED {
                        let slot = row + (c as usize >> 6);
                        // SAFETY: row `r` owns words `row..row +
                        // words_per_row`; read-modify-write by the
                        // exclusive owner is allowed by the contract.
                        unsafe { dst.write(slot, dst.read(slot) | 1 << (c & 63)) };
                    }
                }
            })?;
        }
        Ok(Self {
            new_of_old,
            matrix: BitMatrix {
                n: n_core,
                words_per_row,
                bits,
            },
        })
    }

    /// Number of vertices that survived pruning (matrix dimension).
    pub fn num_core_vertices(&self) -> usize {
        self.matrix.n
    }

    /// Whether original-id vertex `v` survived pruning (i.e. is probeable).
    pub fn covers(&self, v: u32) -> bool {
        self.new_of_old[v as usize] != PRUNED
    }

    /// The dense matrix over the renumbered id space.
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Whether original-id vertices `u` and `v` are adjacent: two table
    /// reads and one word test. Both endpoints must have survived pruning.
    #[inline]
    pub fn probe(&self, u: u32, v: u32) -> bool {
        let nu = self.new_of_old[u as usize];
        let nv = self.new_of_old[v as usize];
        debug_assert!(
            nu != PRUNED && nv != PRUNED,
            "persistent probe on a pruned vertex ({u}, {v})"
        );
        self.matrix.connected(nu, nv)
    }
}

impl EdgeOracle for CoreBitmap {
    #[inline]
    fn connected(&self, u: u32, v: u32) -> bool {
        self.probe(u, v)
    }

    fn footprint_bytes(&self) -> usize {
        self.matrix.footprint_bytes() + std::mem::size_of_val(self.new_of_old.as_slice())
    }
}

/// Open-addressing hash set of edges, keyed on the ordered pair.
///
/// A single flat table of 64-bit keys (`(min << 32) | max`), linear
/// probing, ~50% load factor. Space `O(|E|)` like the CSR, lookups O(1)
/// expected without the `log d` factor.
pub struct HashAdjacency {
    mask: usize,
    table: Vec<u64>,
}

/// Sentinel for an empty slot (no valid edge encodes to all-ones: that
/// would need two vertices equal to `u32::MAX`, which [`Csr`] cannot hold
/// as a loop-free pair).
const EMPTY: u64 = u64::MAX;

impl HashAdjacency {
    /// Device footprint of a table over `num_edges` edges, computable
    /// *before* building (so OOM can fail fast).
    pub fn footprint_for(num_edges: usize) -> usize {
        (num_edges.max(1) * 2).next_power_of_two() * std::mem::size_of::<u64>()
    }

    /// Builds the table from a CSR graph.
    pub fn build(graph: &Csr) -> Self {
        let edges = graph.num_edges();
        let capacity = Self::footprint_for(edges) / std::mem::size_of::<u64>();
        let mask = capacity - 1;
        let mut table = vec![EMPTY; capacity];
        for v in 0..graph.num_vertices() as u32 {
            for &u in graph.neighbors(v) {
                if v < u {
                    let key = Self::key(v, u);
                    let mut slot = Self::hash(key) & mask;
                    while table[slot] != EMPTY {
                        slot = (slot + 1) & mask;
                    }
                    table[slot] = key;
                }
            }
        }
        Self { mask, table }
    }

    #[inline]
    fn key(u: u32, v: u32) -> u64 {
        ((u.min(v) as u64) << 32) | u.max(v) as u64
    }

    /// Fibonacci multiplicative hash — fast and adequate for edge keys.
    #[inline]
    fn hash(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize
    }
}

impl EdgeOracle for HashAdjacency {
    #[inline]
    fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let key = Self::key(u, v);
        let mut slot = Self::hash(key) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == key {
                return true;
            }
            if entry == EMPTY {
                return false;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn footprint_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn exec() -> Executor {
        Executor::new(2)
    }

    fn oracles_agree(graph: &Csr) {
        let bits = BitMatrix::build(&exec(), graph);
        let hash = HashAdjacency::build(graph);
        let n = graph.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                let expected = graph.has_edge(u, v);
                assert_eq!(bits.connected(u, v), expected, "bitset ({u},{v})");
                assert_eq!(hash.connected(u, v), expected, "hash ({u},{v})");
            }
        }
    }

    #[test]
    fn all_oracles_agree_on_random_graphs() {
        for seed in 0..5 {
            oracles_agree(&generators::gnp(60, 0.2, seed));
        }
    }

    #[test]
    fn all_oracles_agree_on_structured_graphs() {
        oracles_agree(&generators::complete(20));
        oracles_agree(&Csr::empty(10));
        oracles_agree(&Csr::from_edges(2, &[(0, 1)]));
        oracles_agree(&generators::road_mesh(8, 8, 0.9, 0.1, 3));
    }

    #[test]
    fn bitmatrix_intersections() {
        // K4: any two vertices share the other two.
        let g = generators::complete(4);
        let bits = BitMatrix::build(&exec(), &g);
        assert_eq!(bits.intersection_size(0, 1), 2);
        // Path 0-1-2: endpoints share the middle.
        let p = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let bits = BitMatrix::build(&exec(), &p);
        assert_eq!(bits.intersection_size(0, 2), 1);
        assert_eq!(bits.intersection_size(0, 1), 0);
    }

    #[test]
    fn footprints_have_expected_shape() {
        let g = generators::gnp(256, 0.1, 7);
        let csr_bytes = g.footprint_bytes();
        let bits = BitMatrix::build(&exec(), &g).footprint_bytes();
        let hash = HashAdjacency::build(&g).footprint_bytes();
        // Bitset is n²/8 = 8 KiB regardless of density.
        assert_eq!(bits, 256 * 4 * 8);
        // Hash ~ 2|E| slots of 8 bytes, power of two.
        assert!(hash >= g.num_edges() * 16);
        assert!(csr_bytes > 0);
        // The pre-build footprint formulas match what building charges.
        assert_eq!(BitMatrix::footprint_for(g.num_vertices()), bits);
        assert_eq!(HashAdjacency::footprint_for(g.num_edges()), hash);
    }

    #[test]
    fn hash_handles_collision_chains() {
        // A star forces many keys sharing the low vertex.
        let mut edges = Vec::new();
        for v in 1..500u32 {
            edges.push((0, v));
        }
        let g = Csr::from_edges(500, &edges);
        let hash = HashAdjacency::build(&g);
        for v in 1..500u32 {
            assert!(hash.connected(0, v));
            assert!(hash.connected(v, 0));
        }
        assert!(!hash.connected(1, 2));
        assert!(!hash.connected(0, 0));
    }

    #[test]
    fn empty_graph_oracles() {
        let g = Csr::empty(4);
        let hash = HashAdjacency::build(&g);
        assert!(!hash.connected(0, 1));
        let bits = BitMatrix::build(&exec(), &g);
        assert!(!bits.connected(2, 3));
    }

    #[test]
    fn parallel_bitmatrix_is_worker_count_invariant() {
        let g = generators::gnp(130, 0.15, 9);
        let reference = BitMatrix::build(&Executor::new(1), &g);
        for workers in [2, 8] {
            let bits = BitMatrix::build(&Executor::new(workers), &g);
            assert_eq!(bits.bits, reference.bits, "workers {workers}");
        }
    }

    #[test]
    fn core_bitmap_agrees_with_graph_on_kept_pairs() {
        let g = generators::gnp(120, 0.12, 17);
        // Keep roughly two thirds of the vertices, scattered.
        let keep: Vec<bool> = (0..g.num_vertices()).map(|v| v % 3 != 1).collect();
        let core = CoreBitmap::try_build(&exec(), &g, &keep).expect("fault-free build");
        let kept: Vec<u32> = (0..g.num_vertices() as u32)
            .filter(|&v| keep[v as usize])
            .collect();
        assert_eq!(core.num_core_vertices(), kept.len());
        for &v in &kept {
            assert!(core.covers(v));
        }
        assert!(!core.covers(1));
        for &u in &kept {
            for &v in &kept {
                assert_eq!(core.probe(u, v), g.has_edge(u, v), "({u},{v})");
                assert_eq!(core.connected(u, v), g.has_edge(u, v), "({u},{v})");
            }
        }
        // Footprint formula matches what building would charge.
        assert_eq!(
            CoreBitmap::footprint_for(kept.len(), g.num_vertices()),
            core.footprint_bytes()
        );
    }

    #[test]
    fn core_bitmap_is_worker_count_invariant_and_handles_edges_to_pruned() {
        // A hub star plus a triangle; prune the hub so rows must skip
        // neighbors that map to the sentinel.
        let mut edges: Vec<(u32, u32)> = (1..40u32).map(|v| (0, v)).collect();
        edges.push((1, 2));
        edges.push((2, 3));
        edges.push((1, 3));
        let g = Csr::from_edges(40, &edges);
        let mut keep = vec![true; 40];
        keep[0] = false;
        let reference = CoreBitmap::try_build(&Executor::new(1), &g, &keep).unwrap();
        assert!(reference.probe(1, 2) && reference.probe(2, 3) && reference.probe(1, 3));
        assert!(!reference.probe(4, 5));
        for workers in [2, 8] {
            let core = CoreBitmap::try_build(&Executor::new(workers), &g, &keep).unwrap();
            assert_eq!(
                core.matrix().bits,
                reference.matrix().bits,
                "workers {workers}"
            );
            assert_eq!(core.new_of_old, reference.new_of_old, "workers {workers}");
        }
        // Empty keep mask: a zero-dimension matrix, nothing covered.
        let none = CoreBitmap::try_build(&exec(), &g, &[false; 40]).unwrap();
        assert_eq!(none.num_core_vertices(), 0);
        assert!(!none.covers(0));
    }

    #[test]
    fn core_bitmap_observes_cancellation() {
        let g = generators::gnp(30, 0.2, 3);
        let exec = exec();
        let token = gmc_dpp::CancelToken::new();
        exec.set_cancel_token(Some(token.clone()));
        token.cancel();
        let err = match CoreBitmap::try_build(&exec, &g, &[true; 30]) {
            Err(err) => err,
            Ok(_) => panic!("cancelled build must not succeed"),
        };
        assert!(matches!(err, DeviceError::Cancelled(_)));
        exec.set_cancel_token(None);
    }
}
