//! Customization: re-weight the edges of a frozen index **without
//! re-partitioning** — the CCH-style middle phase. The expensive,
//! weight-independent structure (partition, shortcut sets, aggregation
//! trees) stays in the [`ShortcutIndex`], which every customization
//! borrows and none copies. Only the weight-dependent table is
//! recomputed: each node's weighted depth in its own part's tree, the
//! one flat table SSSP's tree relaxation reads, filled in one pass over
//! the part members' root paths the index holds
//! ([`ShortcutIndex::part_paths`]).
//!
//! A customization also holds its MST answer, filled by the first
//! [`Query::Mst`](crate::Query::Mst) it serves from the weighted graph
//! alone ([`lcs_apps::boruvka`]). Boruvka merges on the exact minimum
//! `(weight, edge id)`, so the answer depends only on the weights,
//! never on the query seed or the shortcuts; a customization that
//! serves no MST never computes one, and each later query clones it.

use crate::query::QueryResult;
use lcs_graph::WeightedGraph;
use lcs_shortcut::ShortcutIndex;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Customization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CustomizeError {
    /// `weights.len() != graph.m()`; no other property of a weight
    /// vector is checked.
    BadWeights(String),
}

impl fmt::Display for CustomizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CustomizeError::BadWeights(why) => write!(f, "bad weights: {why}"),
        }
    }
}

impl std::error::Error for CustomizeError {}

/// A [`ShortcutIndex`] specialized to one weight assignment: the
/// shared frozen structure plus the recomputed depth table. Immutable
/// after construction apart from its once-filled MST answer (`Sync`),
/// so any number of query workers can share one `Arc<CustomizedIndex>`.
#[derive(Debug)]
pub struct CustomizedIndex {
    index: Arc<ShortcutIndex>,
    wg: WeightedGraph,
    /// Weighted depth of every node in its own part's tree, as
    /// [`lcs_apps::part_tree_depths`] defines it.
    depths: Vec<u64>,
    /// The answer to every [`Query::Mst`](crate::Query::Mst) against
    /// these weights, filled by the first one.
    pub(crate) mst: OnceLock<QueryResult>,
}

impl CustomizedIndex {
    /// Customizes with the index's own baseline weights.
    pub fn baseline(index: Arc<ShortcutIndex>) -> Self {
        let weights = index.weights().to_vec();
        Self::with_weights(index, weights).expect("baseline weights are valid by construction")
    }

    /// Customizes with a fresh weight assignment (one weight per edge
    /// of the index graph). The partition, shortcuts, and trees are
    /// **not** rebuilt, and the MST is not computed until a query asks
    /// for it.
    ///
    /// # Errors
    ///
    /// [`CustomizeError::BadWeights`] when the weight vector's length
    /// does not match the graph's edge count.
    pub fn with_weights(
        index: Arc<ShortcutIndex>,
        weights: Vec<u64>,
    ) -> Result<Self, CustomizeError> {
        if weights.len() != index.graph().m() {
            return Err(CustomizeError::BadWeights(format!(
                "{} weights for {} edges",
                weights.len(),
                index.graph().m()
            )));
        }
        let wg = WeightedGraph::new(index.graph().clone(), weights)
            .map_err(|e| CustomizeError::BadWeights(e.to_string()))?;
        let depths = index.part_paths().depths(wg.weights());
        Ok(CustomizedIndex {
            index,
            wg,
            depths,
            mst: OnceLock::new(),
        })
    }

    /// The underlying frozen index.
    pub fn index(&self) -> &Arc<ShortcutIndex> {
        &self.index
    }

    /// The graph with the active (customized) weights.
    pub fn weighted_graph(&self) -> &WeightedGraph {
        &self.wg
    }

    /// Each node's weighted depth in its own part's tree under the
    /// active weights ([`lcs_apps::part_tree_depths`]); `W_UNREACHABLE`
    /// where no part tree spans the node.
    pub fn depths(&self) -> &[u64] {
        &self.depths
    }
}
