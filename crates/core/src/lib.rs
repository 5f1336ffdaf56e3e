//! # lcs-core
//!
//! The Kogan–Parter low-congestion shortcut construction for constant
//! diameter graphs (PODC 2021), in every execution mode:
//!
//! * [`centralized`] — the §2 sampling construction (raw `H_i` sets and
//!   their BFS-tree prunings);
//! * [`distributed`] — the full CONGEST protocol on the `lcs-congest`
//!   simulator, including the unknown-diameter guess ladder;
//! * [`degrade`] — the detect-and-excise machinery shared by every
//!   fault-tolerant pipeline (here and in `lcs-apps`);
//! * [`odd`] — the §3.2 odd-diameter reduction by edge subdivision;
//! * [`shortcut_tree`] — the §3.1 analysis machinery (auxiliary layered
//!   graphs, sampled forests, (i,k) walks), made executable;
//! * [`dilation`] — empirical Lemma 3.5 / Theorem 3.1 certification;
//! * [`params`] / [`sampling`] — `k_D`, `N`, `p`, and the PRF coins
//!   shared by all modes.
//!
//! ## Quick example
//!
//! ```
//! use lcs_graph::{HighwayGraph, HighwayParams};
//! use lcs_shortcut::{measure_quality, DilationMode, Partition};
//! use lcs_core::{centralized_shortcuts, KpParams};
//!
//! let hw = HighwayGraph::new(HighwayParams {
//!     num_paths: 4, path_len: 30, diameter: 4,
//! }).unwrap();
//! let g = hw.graph();
//! let parts = Partition::new(g, hw.path_parts()).unwrap();
//! let params = KpParams::new(g.n(), 4).unwrap();
//! let out = centralized_shortcuts(g, &parts, params, 7);
//! let q = measure_quality(g, &parts, &out.shortcuts, DilationMode::Exact).quality;
//! assert!((q.dilation as u64) <= params.dilation_bound());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
#[cfg(test)]
mod builder;
pub mod centralized;
pub mod degrade;
pub mod dilation;
pub mod distributed;
pub mod index_build;
pub mod odd;
pub mod params;
pub mod sampling;
pub mod shortcut_tree;

pub use backend::KoganParter;
pub use centralized::{
    centralized_shortcuts, classify_large, prune_to_trees, CentralizedShortcuts, PrunedShortcuts,
};
pub use degrade::{detect_and_excise, DegradedOutcome, Excision};
pub use dilation::{certify_part, DilationTrace, Trichotomy};
pub use distributed::{
    distributed_shortcuts, DistributedConfig, DistributedError, DistributedOutcome, GuessReport,
};
pub use index_build::{build_index, build_index_distributed, IndexBuildConfig};
pub use odd::{odd_shortcuts_subdivision, shared_delay};
pub use params::{guess_ladder, k_d, KpParams, ParamError};
pub use sampling::SampleOracle;
pub use shortcut_tree::{ShortcutTree, ShortcutTreeError, WalkEnd, WalkMeasurement};
