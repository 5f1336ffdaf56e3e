//! # low-congestion-shortcuts
//!
//! A full reproduction of **Kogan & Parter, “Low-Congestion Shortcuts in
//! Constant Diameter Graphs” (PODC 2021)** as a Rust workspace:
//!
//! * [`graph`] (re-export of `lcs-graph`) — graph substrate, generators
//!   (including the Elkin / Das-Sarma-style lower-bound family), and
//!   centralized reference algorithms;
//! * [`congest`] (`lcs-congest`) — a synchronous CONGEST-model simulator
//!   with bandwidth enforcement and the distributed primitives
//!   (BFS, tree aggregation, random-delay multi-BFS), all expressed as
//!   composable [`Protocol`](congest::Protocol)s run through a
//!   [`Session`](congest::Session);
//! * [`shortcut`] (`lcs-shortcut`) — the shortcut framework: partitions,
//!   quality measurement, verification, baselines, partwise aggregation;
//! * [`core`] (`lcs-core`) — the paper's construction: centralized,
//!   fully distributed (diameter guessing included), odd-diameter
//!   reduction, shortcut trees, and dilation certification;
//! * [`apps`] (`lcs-apps`) — MST, (1+ε) min cut, SSSP, 2-ECSS;
//! * [`serve`] (`lcs-serve`) — the preprocess-once, query-many service
//!   layer: a frozen, serializable
//!   [`ShortcutIndex`](shortcut::ShortcutIndex), cheap re-weighting
//!   customization, and a concurrent deterministic query pool.
//!
//! ## Quickstart
//!
//! ```
//! use low_congestion_shortcuts::prelude::*;
//!
//! // A hard instance: disjoint paths joined by a shallow highway.
//! let hw = HighwayGraph::new(HighwayParams {
//!     num_paths: 4, path_len: 30, diameter: 4,
//! }).unwrap();
//! let g = hw.graph();
//! let parts = Partition::new(g, hw.path_parts()).unwrap();
//!
//! // Build the paper's shortcuts and check their quality.
//! let params = KpParams::new(g.n(), 4).unwrap();
//! let built = centralized_shortcuts(g, &parts, params, 7);
//! let q = measure_quality(g, &parts, &built.shortcuts, DilationMode::Exact).quality;
//! assert!((q.dilation as u64) <= params.dilation_bound());
//! assert!((q.congestion as u64) <= params.congestion_bound());
//! ```
//!
//! ## Running CONGEST protocols: `Session` + `Protocol`
//!
//! Every distributed primitive is a first-class
//! [`Protocol`](congest::Protocol) value. A [`Session`](congest::Session)
//! owns one engine instance — graph tables, the persistent worker pool,
//! cumulative statistics — and runs protocols as **sequential** phases
//! that share the engine and one round budget, with a per-phase stats
//! breakdown. Work that shares rounds shares a protocol: the part-wise
//! protocols multiplex their instances, and aggregations over one tree
//! fold a tuple in one convergecast:
//!
//! ```
//! use low_congestion_shortcuts::prelude::*;
//!
//! let g = lcs_graph::generators::grid(4, 4);
//! let mut session = Session::new(&g, SimConfig::default());
//!
//! // Phase 1: a BFS tree from node 0.
//! let bfs = session.run(Bfs::new(0)).unwrap();
//! let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
//!
//! // Phase 2: the node count and the tree's depth in one convergecast,
//! // folding the pair (1, depth) by (+, max).
//! let census: Vec<(u32, u32)> = bfs.dist.iter().map(|d| (1, d.unwrap())).collect();
//! let (res, _) = session
//!     .run(TreeAggregate::folding(pos, census, |(n1, h1), (n2, h2)| (n1 + n2, h1.max(h2)), true))
//!     .unwrap();
//! assert_eq!(res[0], Some((16, 6)));
//!
//! // One engine, two phases, cumulative + per-phase accounting.
//! assert_eq!(session.phases().len(), 2);
//! assert_eq!(
//!     session.stats().rounds,
//!     session.phases().iter().map(|p| p.rounds).sum::<u64>(),
//! );
//! ```

#![forbid(unsafe_code)]

/// The README's Rust example, compiled and run as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use lcs_apps as apps;
pub use lcs_congest as congest;
pub use lcs_core as core;
pub use lcs_graph as graph;
pub use lcs_serve as serve;
pub use lcs_shortcut as shortcut;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use lcs_apps::{
        approximate_min_cut, mst_via_shortcuts, shortcut_sssp, two_ecss, MinCutConfig, MstConfig,
        ShortcutStrategy,
    };
    pub use lcs_congest::{
        positions_from_tree, AggOp, Bfs, MultiAggregate, MultiBfs, PrefixNumber, Protocol, Session,
        SimConfig, TreeAggregate, Wake,
    };
    pub use lcs_core::{
        build_index, build_index_distributed, centralized_shortcuts, distributed_shortcuts, k_d,
        prune_to_trees, DistributedConfig, IndexBuildConfig, KpParams, SampleOracle, ShortcutTree,
    };
    pub use lcs_graph::{
        exact_diameter, kruskal, stoer_wagner, Graph, GraphBuilder, HighwayGraph, HighwayParams,
        NodeId, WeightedGraph, W_UNREACHABLE,
    };
    pub use lcs_serve::{CustomizedIndex, IndexedSession, Query, QueryResult, ServePool};
    pub use lcs_shortcut::{
        global_tree_shortcuts, measure_quality, trivial_shortcuts, verify, DilationMode, Partition,
        Quality, ShortcutIndex, ShortcutSet,
    };
}
