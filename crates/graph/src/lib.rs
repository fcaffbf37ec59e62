//! # gmc-graph: graph substrate
//!
//! Everything the maximum-clique reproduction needs from a graph library,
//! built from scratch:
//!
//! * [`Csr`] — compressed sparse row storage with *sorted* adjacency lists
//!   and binary-search [`Csr::has_edge`] lookups, the representation the
//!   paper selects for GPU-resident graphs (§III-3).
//! * [`GraphBuilder`] — edge-list ingestion with symmetrisation,
//!   deduplication and self-loop removal, matching the paper's preprocessing
//!   ("we preprocess the datasets to ensure all graphs are undirected and
//!   contain no loops", §V).
//! * [`io`] — MatrixMarket and whitespace edge-list loaders (the Network
//!   Repository's formats), standing in for the Gunrock graph loader.
//! * [`generators`] — synthetic graph families used to build the evaluation
//!   corpus (see `gmc-corpus`).
//! * [`adjacency`] — the three edge-lookup structures the paper compares
//!   (§III-3): CSR binary search, bitset adjacency matrix, and edge hash
//!   tables, behind one [`EdgeOracle`] trait.
//! * [`kcore`] — sequential (Batagelj–Zaveršnik) and data-parallel k-core
//!   decompositions plus degeneracy ordering; the parallel version runs on
//!   the `gmc-dpp` virtual GPU exactly like the Gunrock k-core app the paper
//!   calls in preprocessing.

#![warn(missing_docs)]

pub mod adjacency;
pub mod algo;
pub mod bounds;
mod builder;
mod csr;
pub mod generators;
pub mod io;
pub mod kcore;

pub use adjacency::{BitMatrix, CoreBitmap, EdgeOracle, HashAdjacency};
pub use builder::GraphBuilder;
pub use csr::Csr;
