//! # lcs-apps
//!
//! Distributed optimization via low-congestion shortcuts — the paper's
//! §4 applications, built on the partwise-aggregation primitive:
//!
//! * [`mst`] — MST in `Õ(k_D)` rounds via Boruvka over shortcuts
//!   (Corollary 1.2), verified edge-for-edge against Kruskal;
//! * [`mincut`] — (1+ε)-approximate min cut via Karger skeletons and
//!   greedy tree packing (Corollary 1.2), verified against Stoer–Wagner;
//! * [`sssp`] — shortcut-accelerated shortest-path upper bounds
//!   (demonstrating Corollary 4.2's mechanism);
//! * [`two_ecss`](mod@two_ecss) — O(log n)-approximate weighted 2-ECSS
//!   (Corollary 4.3).
//!
//! ## Example
//!
//! ```
//! use lcs_apps::{mst_via_shortcuts, MstConfig};
//! use lcs_graph::{HighwayGraph, HighwayParams, WeightedGraph, kruskal};
//!
//! let hw = HighwayGraph::new(HighwayParams {
//!     num_paths: 3, path_len: 16, diameter: 4,
//! }).unwrap();
//! let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
//! let wg = WeightedGraph::with_random_weights(hw.graph().clone(), 100, &mut rng);
//! let out = mst_via_shortcuts(&wg, &MstConfig { diameter: Some(4), ..Default::default() }).unwrap();
//! assert_eq!(out.weight, kruskal(&wg).weight);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mincut;
pub mod mst;
pub mod sssp;
pub mod two_ecss;

pub use mincut::{
    approximate_min_cut, approximation_ratio, min_cut_search, CutSearch, MinCutConfig, MinCutError,
    MinCutOutcome,
};
pub use mst::{
    assert_matches_kruskal, boruvka, mst_via_shortcuts, BoruvkaForest, MstConfig, MstError,
    MstOutcome, PhaseCost, ShortcutStrategy,
};
pub use sssp::{bellman_ford_rounds, part_tree_depths, relax_partwise, shortcut_sssp, SsspOutcome};
pub use two_ecss::{two_ecss, verify_two_ecss, TwoEcssError, TwoEcssOutcome};
