//! # lcs-shortcut
//!
//! The low-congestion shortcut **framework** (Ghaffari–Haeupler, SODA
//! 2016): part collections, shortcut sets, quality (congestion/dilation)
//! measurement, independent verification, baseline constructions, and
//! the partwise-aggregation primitive that applications build on.
//!
//! The paper-specific construction for constant-diameter graphs lives in
//! `lcs-core`; this crate is construction-agnostic.
//!
//! ## Example
//!
//! ```
//! use lcs_graph::{HighwayGraph, HighwayParams};
//! use lcs_shortcut::{measure_quality, trivial_shortcuts, DilationMode, Partition};
//!
//! let hw = HighwayGraph::new(HighwayParams {
//!     num_paths: 3, path_len: 12, diameter: 4,
//! }).unwrap();
//! let partition = Partition::new(hw.graph(), hw.path_parts()).unwrap();
//! let shortcuts = trivial_shortcuts(&partition);
//! let report = measure_quality(hw.graph(), &partition, &shortcuts, DilationMode::Exact);
//! // Without shortcuts, dilation is the path length.
//! assert_eq!(report.quality.dilation, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod baseline;
pub mod builder;
pub mod index;
pub mod minor;
pub mod partition;
pub mod separator;
pub mod shortcut;
pub mod verifier;

pub use aggregation::{AggregationSetup, PartPaths, PartTree};
pub use baseline::{global_tree_shortcuts, kitamura_style_shortcuts, trivial_shortcuts};
pub use builder::{GlobalTree, KitamuraSampling, ShortcutBuilder, Trivial};
pub use index::{IndexError, IndexMeta, ShortcutIndex, INDEX_FORMAT_VERSION};
pub use minor::{capped_growth_shortcuts, CappedGrowth, GrowthCert};
pub use partition::{Partition, PartitionError};
pub use separator::{separator_shortcuts, SeparatorCert, TreeSeparator};
pub use shortcut::{measure_quality, DilationMode, Quality, QualityReport, ShortcutSet};
pub use verifier::{verify, VerifyError};
