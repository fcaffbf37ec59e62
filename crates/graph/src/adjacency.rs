//! Edge-membership structures (paper §III-3).
//!
//! The choice of graph data structure determines the speed of the set
//! intersections at the heart of the search. The paper weighs a bitset
//! adjacency matrix (O(1) lookups at `n²/8` bytes), CSR with sorted
//! adjacency + binary search (`O(log d)` at `O(|E|)` space) and edge hash
//! tables, and builds CSR + binary search for its memory economy on large
//! graphs. A solve here likewise probes exactly one structure:
//!
//! * the [`CoreBitmap`] — the dense bitset matrix of the subgraph that
//!   survives setup pruning — when the solver builds one (see
//!   `gmc_mce::LocalBitsMode`);
//! * the [`Csr`] itself, via [`Csr::has_edge`] binary search, otherwise.
//!
//! Both implement [`EdgeOracle`], so the expansion kernels are
//! monomorphised over whichever one the solve built. [`BitMatrix`] is the
//! whole-graph matrix underneath the core bitmap.

use crate::Csr;
use gmc_dpp::{DeviceError, Executor, Launch, SharedSlice, UninitSlice};

/// Edge-membership oracle: the single operation the expansion kernels need.
pub trait EdgeOracle: Sync {
    /// Whether the undirected edge `{u, v}` exists.
    fn connected(&self, u: u32, v: u32) -> bool;

    /// `u`'s adjacency row as a probe: `row(u)(v) == connected(u, v)` for
    /// every `v`. A walk that tests many candidates against one vertex
    /// fetches the row once and pays only the per-candidate half of each
    /// probe; the default is plain [`EdgeOracle::connected`].
    ///
    /// A structure overrides it when part of a probe depends on `u` alone:
    /// [`BitMatrix`] and [`CoreBitmap`] slice `u`'s matrix row once, so each
    /// probe tests one word. [`Csr`] keeps the default, because
    /// [`Csr::has_edge`] searches whichever of the two lists is shorter, and
    /// fixing `u`'s list up front would give that up.
    ///
    /// The returned closure's type is the implementor's own, so the method
    /// carries `Self: Sized`: that keeps `EdgeOracle` usable as
    /// `&dyn EdgeOracle`, where only `connected` is callable.
    #[inline]
    fn row(&self, u: u32) -> impl Fn(u32) -> bool + '_
    where
        Self: Sized,
    {
        move |v| self.connected(u, v)
    }
}

impl EdgeOracle for Csr {
    #[inline]
    fn connected(&self, u: u32, v: u32) -> bool {
        self.has_edge(u, v)
    }
}

/// Bit `v` of a packed adjacency row.
#[inline]
fn row_bit(words: &[u64], v: u32) -> bool {
    (words[v as usize >> 6] >> (v & 63)) & 1 == 1
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

    /// Row `u`'s packed words.
    #[inline]
    fn row_words(&self, u: u32) -> &[u64] {
        let start = u as usize * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }
}

impl EdgeOracle for BitMatrix {
    #[inline]
    fn connected(&self, u: u32, v: u32) -> bool {
        row_bit(&self.bits[u as usize * self.words_per_row..], v)
    }

    #[inline]
    fn row(&self, u: u32) -> impl Fn(u32) -> bool + '_ {
        let words = self.row_words(u);
        move |v| row_bit(words, v)
    }
}

/// Sentinel in [`CoreBitmap`]'s renumber table for a vertex removed by the
/// setup phase's core pruning.
const PRUNED: u32 = u32::MAX;

/// A *persistent* core-graph adjacency bitmap: the dense bitset matrix of
/// the subgraph induced by the vertices that survive k-core pruning,
/// renumbered into a dense ID space in ascending original id.
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
    /// `new_of_old[old_id]` — the number of survivors below `old_id`, or
    /// [`PRUNED`].
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
        // Survivor `i` in ascending original id gets dense id `i`: the
        // exclusive scan of the keep mask, compacted. No probe answer
        // depends on the numbering, so it costs one pass over the mask and
        // none over the edges.
        let old_of_new: Vec<u32> = (0..keep.len() as u32)
            .filter(|&v| keep[v as usize])
            .collect();
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

    /// Translates `u` once and slices its matrix row; each probe then reads
    /// `v`'s dense id and tests one word. Both endpoints must have survived
    /// pruning, as for [`CoreBitmap::probe`].
    #[inline]
    fn row(&self, u: u32) -> impl Fn(u32) -> bool + '_ {
        let nu = self.new_of_old[u as usize];
        debug_assert!(nu != PRUNED, "persistent row of a pruned vertex {u}");
        let words = self.matrix.row_words(nu);
        let new_of_old = self.new_of_old.as_slice();
        move |v| {
            let nv = new_of_old[v as usize];
            debug_assert!(
                nv != PRUNED,
                "persistent probe on a pruned vertex ({u}, {v})"
            );
            row_bit(words, nv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn exec() -> Executor {
        Executor::new(2)
    }

    fn bitmatrix_agrees(graph: &Csr) {
        let bits = BitMatrix::build(&exec(), graph);
        let n = graph.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(bits.connected(u, v), graph.has_edge(u, v), "({u},{v})");
            }
        }
        // The pre-build footprint formula matches what building allocates.
        assert_eq!(
            BitMatrix::footprint_for(graph.num_vertices()),
            std::mem::size_of_val(bits.bits.as_slice())
        );
    }

    #[test]
    fn bitmatrix_agrees_with_csr_on_random_graphs() {
        for seed in 0..5 {
            bitmatrix_agrees(&generators::gnp(60, 0.2, seed));
        }
    }

    #[test]
    fn bitmatrix_agrees_with_csr_on_structured_graphs() {
        bitmatrix_agrees(&generators::complete(20));
        bitmatrix_agrees(&Csr::empty(10));
        bitmatrix_agrees(&Csr::from_edges(2, &[(0, 1)]));
        bitmatrix_agrees(&generators::road_mesh(8, 8, 0.9, 0.1, 3));
        // n²/8 bytes regardless of density.
        assert_eq!(BitMatrix::footprint_for(256), 256 * 4 * 8);
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
        // Survivors are numbered densely in ascending original id.
        let dense: Vec<u32> = kept.iter().map(|&v| core.new_of_old[v as usize]).collect();
        assert_eq!(dense, (0..kept.len() as u32).collect::<Vec<_>>());
        for &u in &kept {
            for &v in &kept {
                assert_eq!(core.probe(u, v), g.has_edge(u, v), "({u},{v})");
                assert_eq!(core.connected(u, v), g.has_edge(u, v), "({u},{v})");
            }
        }
        // Footprint formula matches what building allocates.
        assert_eq!(
            CoreBitmap::footprint_for(kept.len(), g.num_vertices()),
            std::mem::size_of_val(core.matrix.bits.as_slice())
                + std::mem::size_of_val(core.new_of_old.as_slice())
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

    /// `row(u)(v)` against `connected(u, v)` for every pair of `ids`.
    fn rows_agree<O: EdgeOracle>(oracle: &O, ids: &[u32], tag: &str) {
        for &u in ids {
            let probe = oracle.row(u);
            for &v in ids {
                assert_eq!(probe(v), oracle.connected(u, v), "{tag}: ({u},{v})");
            }
        }
    }

    #[test]
    fn row_probe_agrees_with_connected_on_csr_and_bitmatrix() {
        for (tag, g) in [
            ("gnp", generators::gnp(70, 0.2, 4)),
            ("complete", generators::complete(9)),
            ("empty", Csr::empty(5)),
        ] {
            let all: Vec<u32> = (0..g.num_vertices() as u32).collect();
            rows_agree(&g, &all, tag);
            rows_agree(&BitMatrix::build(&exec(), &g), &all, tag);
        }
    }

    #[test]
    fn core_bitmap_row_probe_agrees_on_every_kept_pair() {
        // Matrix rows of 63, 64, 65 and 129 columns put the last kept
        // vertex at both sides of a word edge; the scattered mask keeps the
        // graph's first and last vertices so the first and last rows and
        // columns are probed.
        for n_core in [63usize, 64, 65, 129] {
            let n = n_core * 3 / 2 + 1;
            let g = generators::gnp(n, 0.25, n_core as u64);
            let mut keep = vec![false; n];
            let mut rng = gmc_dpp::Rng::seed_from_u64(n_core as u64);
            let mut order: Vec<u32> = (1..n as u32 - 1).collect();
            rng.shuffle(&mut order);
            for &v in order[..n_core - 2].iter().chain(&[0, n as u32 - 1]) {
                keep[v as usize] = true;
            }
            let core = CoreBitmap::try_build(&exec(), &g, &keep).expect("fault-free build");
            assert_eq!(core.num_core_vertices(), n_core);
            let kept: Vec<u32> = (0..n as u32).filter(|&v| keep[v as usize]).collect();
            rows_agree(&core, &kept, &format!("n_core {n_core}"));
        }
    }

    #[test]
    fn edge_oracle_is_usable_as_a_trait_object() {
        // `row` is `Self: Sized`, so the trait stays dyn-compatible and a
        // `&dyn EdgeOracle` still answers `connected`.
        let g = generators::gnp(40, 0.3, 8);
        let bits = BitMatrix::build(&exec(), &g);
        let core = CoreBitmap::try_build(&exec(), &g, &[true; 40]).expect("fault-free build");
        let oracles: [&dyn EdgeOracle; 3] = [&g, &bits, &core];
        for oracle in oracles {
            for u in 0..40 {
                for v in 0..40 {
                    assert_eq!(oracle.connected(u, v), g.has_edge(u, v), "({u},{v})");
                }
            }
        }
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
