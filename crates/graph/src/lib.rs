//! Directed labelled multigraph substrate for the `ipe` workspace.
//!
//! The schema graphs of *Incomplete Path Expressions and their Disambiguation*
//! (Ioannidis & Lashkari, SIGMOD 1994) are directed multigraphs: classes are
//! nodes and each relationship is a labelled edge, with parallel edges and
//! self-loops both legal. This crate provides that substrate, built from
//! scratch with the access patterns of the completion algorithm in mind:
//!
//! * index-based node/edge identifiers ([`NodeId`], [`EdgeId`]) so per-node
//!   search state lives in flat vectors rather than hash maps;
//! * cheap iteration over the out-edges of a node in insertion order (the
//!   paper's `children[v]`, which the engine re-sorts by label quality);
//! * the two algorithms the rest of the workspace calls: topological sort
//!   over a filtered edge subset (used for `Isa`-hierarchy validation) and
//!   bounded simple-path enumeration (used by the algebra's path solver).
//!
//! The graph is append-only: nodes and edges are never removed. Schemas are
//! built once and queried many times, so stable dense indices are worth far
//! more than removal support.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
mod paths;
mod topo;

pub use digraph::{DiGraph, Edge, EdgeId, NodeId};
pub use paths::{simple_paths, SimplePath};
pub use topo::{topo_sort_filtered, CycleError};
