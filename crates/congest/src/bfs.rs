//! Distributed single-source BFS tree construction.
//!
//! The classic flood protocol: the root emits a token at round 0; each
//! node joins the tree at the round equal to its BFS distance, picks the
//! smallest-id sender among its first tokens as parent, acknowledges so
//! the parent learns its children, and forwards. Completes in
//! `ecc(root) + 2` rounds.

use crate::message::{digest_fields, Message};
use crate::node::RoundCtx;
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};

/// Messages of the BFS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BfsMsg {
    /// "I am at distance `d`; you are at most at `d + 1`."
    Token {
        /// Sender's BFS distance.
        dist: u32,
    },
    /// "You are my parent."
    Child,
}

impl Message for BfsMsg {
    fn size_words(&self) -> u32 {
        match self {
            BfsMsg::Token { .. } => 1,
            BfsMsg::Child => 1,
        }
    }

    fn corrupted(self, stream: u64) -> Self {
        // A token's distance flips (`| 1`: at least one bit); an
        // acknowledgement, which has no field, becomes a token.
        match self {
            BfsMsg::Token { dist } => BfsMsg::Token {
                dist: dist ^ ((stream as u32) | 1),
            },
            BfsMsg::Child => BfsMsg::Token {
                dist: stream as u32,
            },
        }
    }

    fn digest(&self) -> u64 {
        match *self {
            BfsMsg::Token { dist } => digest_fields(0, &[u64::from(dist)]),
            BfsMsg::Child => digest_fields(1, &[]),
        }
    }
}

/// Per-node state of the distributed BFS.
#[derive(Debug, Clone)]
pub struct BfsNode {
    is_root: bool,
    /// BFS distance once reached.
    pub dist: Option<u32>,
    /// Tree parent once reached (None for the root).
    pub parent: Option<NodeId>,
    /// Discovered children.
    pub children: Vec<NodeId>,
    fired: bool,
}

impl BfsNode {
    /// Creates the state for one node; exactly one node should be the
    /// root.
    pub fn new(is_root: bool) -> Self {
        BfsNode {
            is_root,
            dist: None,
            parent: None,
            children: Vec::new(),
            fired: false,
        }
    }
}

/// Result of the [`Bfs`] protocol.
#[derive(Debug, Clone)]
pub struct DistBfsOutcome {
    /// Per-node distance (None when unreached).
    pub dist: Vec<Option<u32>>,
    /// Per-node parent.
    pub parent: Vec<Option<NodeId>>,
    /// Per-node children (sorted).
    pub children: Vec<Vec<NodeId>>,
    /// Simulator statistics for the run.
    pub stats: crate::stats::RunStats,
}

impl DistBfsOutcome {
    /// Depth of the constructed tree (max distance).
    pub fn depth(&self) -> u32 {
        self.dist.iter().flatten().copied().max().unwrap_or(0)
    }
}

/// Single-source BFS tree construction as a composable [`Protocol`]:
/// run it through a [`Session`](crate::session::Session).
///
/// ```
/// use lcs_congest::{Bfs, Session, SimConfig};
///
/// let g = lcs_graph::generators::grid(3, 3);
/// let out = Session::new(&g, SimConfig::default()).run(Bfs::new(0)).unwrap();
/// assert_eq!(out.dist[8], Some(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfs {
    root: NodeId,
}

impl Bfs {
    /// BFS rooted at `root`.
    pub fn new(root: NodeId) -> Self {
        Bfs { root }
    }
}

impl Protocol for Bfs {
    type Msg = BfsMsg;
    type State = BfsNode;
    type Output = DistBfsOutcome;

    fn label(&self) -> &str {
        "bfs"
    }

    fn init(&mut self, graph: &Graph) -> Vec<BfsNode> {
        (0..graph.n() as u32)
            .map(|v| BfsNode::new(v == self.root))
            .collect()
    }

    fn round(&self, st: &mut BfsNode, ctx: &mut RoundCtx<'_, BfsMsg>) {
        if ctx.round() == 0 && st.is_root {
            st.dist = Some(0);
        }
        // Absorb tokens and child acks.
        let mut best: Option<(u32, NodeId)> = None;
        for &(from, ref msg) in ctx.inbox() {
            match msg {
                BfsMsg::Token { dist } => {
                    if st.dist.is_none() {
                        let cand = (*dist + 1, from);
                        if best.is_none_or(|b| cand < b) {
                            best = Some(cand);
                        }
                    }
                }
                BfsMsg::Child => st.children.push(from),
            }
        }
        if st.dist.is_none() {
            if let Some((d, p)) = best {
                st.dist = Some(d);
                st.parent = Some(p);
            }
        }
        // Fire once: ack parent, flood everyone else (indexed sends hit
        // the engine's zero-lookup arc-slot path).
        if let (Some(d), false) = (st.dist, st.fired) {
            st.fired = true;
            let parent_idx = st.parent.and_then(|p| ctx.neighbor_index(p));
            if let Some(pi) = parent_idx {
                ctx.send_nth(pi, BfsMsg::Child);
            }
            for i in 0..ctx.degree() {
                if Some(i) != parent_idx {
                    ctx.send_nth(i, BfsMsg::Token { dist: d });
                }
            }
        }
    }

    // The default halted-derived `wake` signal is exact: an unreached
    // or fired (halted) node is a no-op without mail — tokens and child
    // acks re-activate it — and only a reached-but-unfired node needs
    // the next round.
    fn halted(&self, st: &BfsNode) -> bool {
        st.fired || st.dist.is_none()
    }

    fn finish(self, _graph: &Graph, nodes: Vec<BfsNode>, stats: &RunStats) -> DistBfsOutcome {
        let mut children: Vec<Vec<NodeId>> = nodes.iter().map(|s| s.children.clone()).collect();
        for c in &mut children {
            c.sort_unstable();
        }
        DistBfsOutcome {
            dist: nodes.iter().map(|s| s.dist).collect(),
            parent: nodes.iter().map(|s| s.parent).collect(),
            children,
            stats: stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::sim::SimConfig;
    use lcs_graph::bfs_distances;

    /// All protocol tests go through the first-class `Session` API.
    fn run_bfs(g: &Graph, root: NodeId, cfg: &SimConfig) -> DistBfsOutcome {
        Session::new(g, cfg.clone()).run(Bfs::new(root)).unwrap()
    }

    #[test]
    fn bfs_tree_matches_centralized_distances() {
        let g = lcs_graph::generators::grid(4, 5);
        let out = run_bfs(&g, 7, &SimConfig::default());
        let exact = bfs_distances(&g, 7);
        for v in g.nodes() {
            assert_eq!(out.dist[v as usize], Some(exact[v as usize]), "node {v}");
        }
        assert_eq!(out.parent[7], None);
        // rounds ≈ depth + constant.
        assert!(out.stats.rounds as u32 >= out.depth());
        assert!(out.stats.rounds as u32 <= out.depth() + 3);
    }

    #[test]
    fn children_lists_are_consistent_with_parents() {
        let g = lcs_graph::generators::gnp_connected(
            40,
            0.1,
            &mut <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(11),
        );
        let out = run_bfs(&g, 0, &SimConfig::default());
        for v in g.nodes() {
            if let Some(p) = out.parent[v as usize] {
                assert!(
                    out.children[p as usize].contains(&v),
                    "parent {p} must list child {v}"
                );
            }
        }
        let total_children: usize = out.children.iter().map(|c| c.len()).sum();
        assert_eq!(total_children, g.n() - 1);
    }

    #[test]
    fn disconnected_nodes_stay_unreached() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let out = run_bfs(&g, 0, &SimConfig::default());
        assert_eq!(out.dist[2], None);
        assert_eq!(out.dist[3], None);
        assert_eq!(out.dist[1], Some(1));
    }

    #[test]
    fn parent_choice_is_min_id() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Node 3 hears from 1 and 2
        // simultaneously; must pick 1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let out = run_bfs(&g, 0, &SimConfig::default());
        assert_eq!(out.parent[3], Some(1));
    }

    #[test]
    fn message_complexity_is_linear_in_edges() {
        let g = lcs_graph::generators::complete(12);
        let out = run_bfs(&g, 0, &SimConfig::default());
        // Each edge carries at most 2 tokens + acks.
        assert!(out.stats.messages <= 3 * g.m() as u64);
    }
}
