//! # lcs-graph
//!
//! Graph substrate for the reproduction of *Kogan & Parter, "Low-Congestion
//! Shortcuts in Constant Diameter Graphs"* (PODC 2021): immutable CSR
//! graphs, BFS in all the flavours the shortcut constructions need,
//! diameter measurement, subgraph materialization, generators (including
//! the Elkin / Das-Sarma-style lower-bound family), and centralized
//! reference algorithms (Kruskal/Prim MST, Stoer–Wagner min cut, Dijkstra)
//! used as correctness oracles by the distributed layers.
//!
//! ## Quick example
//!
//! ```
//! use lcs_graph::{HighwayGraph, HighwayParams, exact_diameter};
//!
//! // A hard instance: 4 disjoint paths of 16 columns, diameter exactly 5.
//! let hw = HighwayGraph::new(HighwayParams {
//!     num_paths: 4,
//!     path_len: 16,
//!     diameter: 5,
//! }).unwrap();
//! assert_eq!(exact_diameter(hw.graph()), Some(5));
//! assert_eq!(hw.path_parts().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bfs;
pub mod bridges;
pub mod components;
pub mod diameter;
pub mod generators;
pub mod graph;
pub mod mincut;
pub mod mst;
pub mod sssp;
pub mod subgraph;
pub mod union_find;
pub mod weighted;

pub use bfs::{
    bfs, bfs_distances, bfs_within, eccentricity, shortest_path, BfsOptions, BfsResult, UNREACHABLE,
};
pub use bridges::{bridges, is_two_edge_connected};
pub use components::{connected_components, is_connected, is_set_connected, Components};
pub use diameter::{
    all_eccentricities, double_sweep_lower_bound, estimate_diameter, exact_diameter,
    induced_diameter, radius_and_diameter, single_bfs_upper_bound,
};
pub use generators::{
    balanced_tree, complete, cycle, gnp, gnp_connected, grid, grid_diagonals, hub_and_spoke,
    k_chordal, k_tree, path, power_law, random_regular, random_tree, star, HighwayError,
    HighwayGraph, HighwayParams,
};
pub use graph::{ArcId, EdgeId, Graph, GraphBuilder, GraphError, NodeId};
pub use mincut::{brute_force_min_cut, cut_weight, stoer_wagner, unweighted_min_cut, Cut};
pub use mst::{kruskal, mst_key, prim, verify_spanning_forest, SpanningForest};
pub use sssp::{bounded_hop_distances, dijkstra, W_UNREACHABLE};
pub use subgraph::EdgeSubgraph;
pub use union_find::UnionFind;
pub use weighted::{WeightedGraph, WeightedGraphError};
