//! # lcs-serve
//!
//! The **preprocess-once, query-many** service layer over a frozen
//! [`ShortcutIndex`](lcs_shortcut::ShortcutIndex) — the architecture
//! rust_road_router proves out for CCH, transplanted to low-congestion
//! shortcuts: split expensive *construction* (any registered
//! [`ShortcutBuilder`](lcs_shortcut::ShortcutBuilder) backend, or the
//! full distributed pipeline) from cheap *customization* (re-weighting
//! edges without re-partitioning) from *live queries* (SSSP, MST,
//! partwise aggregation, min-cut estimates), so one preprocessing run
//! amortizes across many requests.
//!
//! ## Lifecycle
//!
//! ```text
//! build      lcs_core::build_index / build_index_distributed  (seconds)
//!   ↓ Arc<ShortcutIndex>                 frozen, serializable, shared
//! customize  CustomizedIndex::with_weights                 (millis)
//!   ↓ Arc<CustomizedIndex>     per-node depth table recomputed
//! query      ServePool::serve                      (micros–millis)
//! ```
//!
//! Queries are answered by an [`IndexedSession`] pool: worker threads
//! share the customized index read-only (`Arc`), pull from a batch of
//! mixed [`Query`] kinds, and produce results (and a batch
//! fingerprint) that are **independent of the pool size** — every
//! query's randomness comes from a deterministic per-query seed, and
//! results are reassembled in submission order.
//!
//! ## Example
//!
//! ```
//! use lcs_core::{build_index, IndexBuildConfig, KoganParter};
//! use lcs_graph::{HighwayGraph, HighwayParams, WeightedGraph};
//! use lcs_serve::{Query, ServePool};
//! use lcs_shortcut::Partition;
//! use std::sync::Arc;
//!
//! let hw = HighwayGraph::new(HighwayParams {
//!     num_paths: 3, path_len: 10, diameter: 4,
//! }).unwrap();
//! let g = hw.graph().clone();
//! let p = Partition::new(&g, hw.path_parts()).unwrap();
//! let weights: Vec<u64> = (0..g.m() as u64).map(|e| e % 9 + 1).collect();
//! let wg = WeightedGraph::new(g, weights).unwrap();
//! let backend = KoganParter { diameter: Some(4), ..KoganParter::default() };
//! let index = Arc::new(build_index(&wg, &p, &backend, &IndexBuildConfig::default()));
//!
//! let pool = ServePool::new(index, 2);
//! let batch = pool.serve(&[Query::sssp(0), Query::Mst], 7);
//! assert_eq!(batch.results.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod customize;
pub mod pool;
pub mod query;

pub use customize::{CustomizeError, CustomizedIndex};
pub use pool::{per_query_seed, IndexedSession, ServePool, ServedBatch};
pub use query::{aggregate_value, min_cut_config, Query, QueryResult};
