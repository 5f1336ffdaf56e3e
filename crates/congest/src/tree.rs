//! Tree primitives on an already-constructed rooted spanning tree:
//! convergecast aggregation, broadcast, and prefix numbering of marked
//! nodes.
//!
//! All three complete in `O(depth)` rounds with one-word-ish messages —
//! these are the `O(D)`-round bookkeeping steps the paper's distributed
//! construction performs on the global BFS tree (learning `n` and the
//! 2-approximate diameter, numbering the large parts, and the final
//! global verification AND). A convergecast folds any small value, not
//! just a `u64`: the construction learns `n` and `ecc(root)` from one
//! convergecast of the pair `(1, depth)` ([`TreeAggregate::folding`]).

use crate::message::{digest_fields, Message};
use crate::node::{RoundCtx, Wake};
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};

/// Aggregation operator for convergecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

impl AggOp {
    /// Applies the operator.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a.saturating_add(b),
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }

    /// Identity element.
    pub fn identity(self) -> u64 {
        match self {
            AggOp::Sum => 0,
            AggOp::Min => u64::MAX,
            AggOp::Max => 0,
        }
    }

    /// The operator as the fold of a [`TreeAggregate`].
    fn fold(self) -> fn(u64, u64) -> u64 {
        match self {
            AggOp::Sum => u64::saturating_add,
            AggOp::Min => Ord::min,
            AggOp::Max => Ord::max,
        }
    }
}

/// The position of a node within the rooted tree, as local knowledge.
#[derive(Debug, Clone, Default)]
pub struct TreePosition {
    /// Parent in the tree (None for the root and non-tree nodes).
    pub parent: Option<NodeId>,
    /// Children in the tree.
    pub children: Vec<NodeId>,
    /// Whether this node participates (non-participants are inert).
    pub in_tree: bool,
    /// Whether this node is the root.
    pub is_root: bool,
}

/// Message for convergecast / broadcast / numbering: a tagged value, a
/// `u64` unless a [`TreeAggregate::folding`] carries another type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeMsg<V = u64> {
    /// Aggregate flowing up.
    Up(V),
    /// Value flowing down.
    Down(V),
}

impl<V: Message> Message for TreeMsg<V> {
    fn size_words(&self) -> u32 {
        // The value's words (2 for a `u64`); the tag is absorbed in the
        // constant.
        match self {
            TreeMsg::Up(v) | TreeMsg::Down(v) => v.size_words(),
        }
    }

    fn corrupted(self, stream: u64) -> Self {
        match self {
            TreeMsg::Up(v) => TreeMsg::Up(v.corrupted(stream)),
            TreeMsg::Down(v) => TreeMsg::Down(v.corrupted(stream)),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            TreeMsg::Up(v) => digest_fields(0, &[v.digest()]),
            TreeMsg::Down(v) => digest_fields(1, &[v.digest()]),
        }
    }
}

/// Convergecast: fold one value per tree node up to the root, then
/// optionally broadcast the result back down.
#[derive(Debug, Clone)]
pub struct ConvergecastNode<V = u64> {
    pos: TreePosition,
    acc: V,
    pending: usize,
    sent_up: bool,
    sent_down: bool,
    /// Neighbor indices of parent/children, resolved on the first round
    /// so every send takes the engine's zero-lookup arc-slot path.
    parent_idx: Option<usize>,
    children_idx: Vec<usize>,
    resolved: bool,
    /// The aggregate (root: after convergecast; all nodes: after
    /// broadcast when enabled).
    pub result: Option<V>,
}

impl<V> ConvergecastNode<V> {
    /// Creates the node state; `value` is this node's contribution.
    pub fn new(pos: TreePosition, value: V) -> Self {
        let pending = pos.children.len();
        ConvergecastNode {
            pos,
            acc: value,
            pending,
            sent_up: false,
            sent_down: false,
            parent_idx: None,
            children_idx: Vec::new(),
            resolved: false,
            result: None,
        }
    }
}

/// Tree convergecast (optionally with result broadcast) as a
/// composable [`Protocol`]: folds one value per node up the tree
/// described by its [`TreePosition`]s, one message per tree edge each
/// way. Its output is `(per-node results, phase stats)`, matching the
/// classic free-function shape.
///
/// Values are `u64` folded by an [`AggOp`] ([`TreeAggregate::new`]),
/// or any small [`Message`] folded by a function
/// ([`TreeAggregate::folding`]). Aggregations over the same tree run as
/// one convergecast of a tuple: folding `(1, depth)` by `(+, max)`
/// gives every node `n` and the root's eccentricity in the rounds and
/// messages of one aggregation.
#[derive(Debug, Clone)]
pub struct TreeAggregate<V = u64> {
    positions: Vec<TreePosition>,
    values: Vec<V>,
    fold: fn(V, V) -> V,
    broadcast: bool,
}

impl TreeAggregate {
    /// Aggregation of `values` (one per node) over the tree described
    /// by `positions`, with operator `op`; `broadcast` sends the root's
    /// result back down.
    pub fn new(positions: Vec<TreePosition>, values: &[u64], op: AggOp, broadcast: bool) -> Self {
        TreeAggregate::folding(positions, values.to_vec(), op.fold(), broadcast)
    }
}

impl<V> TreeAggregate<V> {
    /// Aggregation of `values` (one per node) over the tree described
    /// by `positions`, folding a child's aggregate into its parent's
    /// with `fold` (children in arrival order, so `fold` should be
    /// associative and commutative); `broadcast` sends the root's
    /// result back down.
    pub fn folding(
        positions: Vec<TreePosition>,
        values: Vec<V>,
        fold: fn(V, V) -> V,
        broadcast: bool,
    ) -> Self {
        TreeAggregate {
            positions,
            values,
            fold,
            broadcast,
        }
    }
}

impl<V: Message + Copy + Send + Sync + 'static> Protocol for TreeAggregate<V> {
    type Msg = TreeMsg<V>;
    type State = ConvergecastNode<V>;
    type Output = (Vec<Option<V>>, RunStats);

    fn label(&self) -> &str {
        "tree_aggregate"
    }

    fn init(&mut self, graph: &Graph) -> Vec<ConvergecastNode<V>> {
        assert_eq!(self.positions.len(), graph.n());
        assert_eq!(self.values.len(), graph.n());
        std::mem::take(&mut self.positions)
            .into_iter()
            .zip(self.values.iter())
            .map(|(pos, &v)| ConvergecastNode::new(pos, v))
            .collect()
    }

    fn round(&self, st: &mut ConvergecastNode<V>, ctx: &mut RoundCtx<'_, TreeMsg<V>>) {
        if !st.pos.in_tree {
            return;
        }
        if !st.resolved {
            st.resolved = true;
            (st.parent_idx, st.children_idx) = ctx.tree_indices(st.pos.parent, &st.pos.children);
        }
        for &(from, ref msg) in ctx.inbox() {
            match *msg {
                TreeMsg::Up(v) => {
                    debug_assert!(st.pos.children.contains(&from));
                    st.acc = (self.fold)(st.acc, v);
                    st.pending -= 1;
                }
                TreeMsg::Down(v) => {
                    st.result = Some(v);
                }
            }
        }
        if st.pending == 0 && !st.sent_up {
            st.sent_up = true;
            if st.pos.is_root {
                st.result = Some(st.acc);
            } else if let Some(pi) = st.parent_idx {
                ctx.send_nth(pi, TreeMsg::Up(st.acc));
            }
        }
        if self.broadcast && !st.sent_down {
            if let Some(r) = st.result {
                st.sent_down = true;
                for i in 0..st.children_idx.len() {
                    ctx.send_nth(st.children_idx[i], TreeMsg::Down(r));
                }
            }
        }
    }

    fn halted(&self, st: &ConvergecastNode<V>) -> bool {
        if !st.pos.in_tree {
            return true;
        }
        st.sent_up && (!self.broadcast || st.sent_down)
    }

    fn wake(&self, _state: &ConvergecastNode<V>) -> Wake {
        // Convergecast is purely mail-driven after round 0: a node acts
        // exactly when a child's Up (or the parent's Down) arrives, and
        // sends in the same invocation. Even a node still *waiting* for
        // children sleeps — it has nothing to do until mail comes — so
        // a deep tree's rounds cost O(frontier), not O(unfinished
        // subtree). Consequence for malformed trees (a claimed child
        // that never reports): the phase quiesces with `None` results
        // instead of spinning to the round limit, matching
        // [`MultiAggregate`](crate::MultiAggregate)'s no-result-not-a-
        // hang behavior.
        Wake::Sleep
    }

    fn finish(
        self,
        _graph: &Graph,
        nodes: Vec<ConvergecastNode<V>>,
        stats: &RunStats,
    ) -> Self::Output {
        (nodes.into_iter().map(|s| s.result).collect(), stats.clone())
    }
}

/// Prefix numbering: every *marked* node learns its rank (0-based) in a
/// global depth-first order of the tree, and the root learns the total
/// count. Used by the paper's construction to number the `N` large
/// parts in `O(D)` rounds.
#[derive(Debug, Clone)]
pub struct PrefixNumberNode {
    pos: TreePosition,
    marked: bool,
    /// Subtree mark-counts per child, filled during convergecast (in
    /// `pos.children` order).
    child_counts: Vec<u64>,
    pending: usize,
    sent_up: bool,
    sent_down: bool,
    /// Neighbor indices of parent/children, resolved on the first round.
    parent_idx: Option<usize>,
    children_idx: Vec<usize>,
    resolved: bool,
    /// This node's rank among marked nodes (only when marked).
    pub rank: Option<u64>,
    /// Total number of marked nodes (root only, after convergecast).
    pub total: Option<u64>,
    offset: Option<u64>,
}

impl PrefixNumberNode {
    /// Creates the state for one node.
    pub fn new(pos: TreePosition, marked: bool) -> Self {
        let pending = pos.children.len();
        let child_counts = vec![0; pos.children.len()];
        PrefixNumberNode {
            pos,
            marked,
            child_counts,
            pending,
            sent_up: false,
            sent_down: false,
            parent_idx: None,
            children_idx: Vec::new(),
            resolved: false,
            rank: None,
            total: None,
            offset: None,
        }
    }

    fn subtree_count(&self) -> u64 {
        self.child_counts.iter().sum::<u64>() + u64::from(self.marked)
    }
}

/// Prefix numbering of marked nodes as a composable [`Protocol`] (the
/// paper's `O(D)`-round dense ranking of the large parts). Output is
/// `(per-node ranks, total marked, phase stats)`.
#[derive(Debug, Clone)]
pub struct PrefixNumber {
    positions: Vec<TreePosition>,
    marked: Vec<bool>,
    /// Root node index, resolved in `init` for `finish`.
    root: Option<usize>,
}

impl PrefixNumber {
    /// Prefix numbering of `marked` nodes over the tree described by
    /// `positions`.
    pub fn new(positions: Vec<TreePosition>, marked: &[bool]) -> Self {
        PrefixNumber {
            positions,
            marked: marked.to_vec(),
            root: None,
        }
    }
}

impl Protocol for PrefixNumber {
    type Msg = TreeMsg;
    type State = PrefixNumberNode;
    type Output = (Vec<Option<u64>>, u64, RunStats);

    fn label(&self) -> &str {
        "prefix_number"
    }

    fn init(&mut self, graph: &Graph) -> Vec<PrefixNumberNode> {
        assert_eq!(self.positions.len(), graph.n());
        assert_eq!(self.marked.len(), graph.n());
        self.root = self.positions.iter().position(|p| p.is_root);
        std::mem::take(&mut self.positions)
            .into_iter()
            .zip(self.marked.iter())
            .map(|(pos, &m)| PrefixNumberNode::new(pos, m))
            .collect()
    }

    fn round(&self, st: &mut PrefixNumberNode, ctx: &mut RoundCtx<'_, TreeMsg>) {
        if !st.pos.in_tree {
            return;
        }
        if !st.resolved {
            st.resolved = true;
            (st.parent_idx, st.children_idx) = ctx.tree_indices(st.pos.parent, &st.pos.children);
        }
        for &(from, ref msg) in ctx.inbox() {
            match msg {
                TreeMsg::Up(v) => {
                    let idx = st
                        .pos
                        .children
                        .iter()
                        .position(|&c| c == from)
                        .expect("Up message only from children");
                    st.child_counts[idx] = *v;
                    st.pending -= 1;
                }
                TreeMsg::Down(v) => {
                    st.offset = Some(*v);
                }
            }
        }
        if st.pending == 0 && !st.sent_up {
            st.sent_up = true;
            if st.pos.is_root {
                st.total = Some(st.subtree_count());
                st.offset = Some(0);
            } else if let Some(pi) = st.parent_idx {
                ctx.send_nth(pi, TreeMsg::Up(st.subtree_count()));
            }
        }
        if st.sent_up && !st.sent_down {
            if let Some(off) = st.offset {
                st.sent_down = true;
                if st.marked {
                    st.rank = Some(off);
                }
                let mut cursor = off + u64::from(st.marked);
                for idx in 0..st.children_idx.len() {
                    ctx.send_nth(st.children_idx[idx], TreeMsg::Down(cursor));
                    cursor += st.child_counts[idx];
                }
            }
        }
    }

    fn halted(&self, st: &PrefixNumberNode) -> bool {
        !st.pos.in_tree || st.sent_down
    }

    fn wake(&self, _state: &PrefixNumberNode) -> Wake {
        // Mail-driven exactly like [`TreeAggregate`]: count convergecast
        // up, offsets broadcast down, every send triggered by an
        // arrival (or round 0); waiting nodes sleep.
        Wake::Sleep
    }

    fn finish(
        self,
        _graph: &Graph,
        nodes: Vec<PrefixNumberNode>,
        stats: &RunStats,
    ) -> Self::Output {
        let total = self.root.and_then(|r| nodes[r].total).unwrap_or(0);
        (
            nodes.into_iter().map(|s| s.rank).collect(),
            total,
            stats.clone(),
        )
    }
}

/// Builds [`TreePosition`]s from parallel parent/children arrays (such as
/// a [`crate::bfs::DistBfsOutcome`]). Nodes with no parent and no
/// children that are not the root are marked out-of-tree.
pub fn positions_from_tree(
    root: NodeId,
    parent: &[Option<NodeId>],
    children: &[Vec<NodeId>],
) -> Vec<TreePosition> {
    parent
        .iter()
        .zip(children.iter())
        .enumerate()
        .map(|(v, (&p, ch))| {
            let is_root = v as NodeId == root;
            TreePosition {
                parent: p,
                children: ch.clone(),
                in_tree: is_root || p.is_some(),
                is_root,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::session::Session;
    use crate::sim::SimConfig;
    use crate::SimError;

    fn tree_fixture(n: usize, seed: u64) -> (Graph, Vec<TreePosition>) {
        let g = lcs_graph::generators::gnp_connected(
            n,
            0.08,
            &mut <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed),
        );
        let bfs = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        (g, pos)
    }

    fn aggregate(
        g: &Graph,
        pos: Vec<TreePosition>,
        values: &[u64],
        op: AggOp,
        broadcast: bool,
    ) -> Result<(Vec<Option<u64>>, RunStats), SimError> {
        Session::new(g, SimConfig::default()).run(TreeAggregate::new(pos, values, op, broadcast))
    }

    fn number(
        g: &Graph,
        pos: Vec<TreePosition>,
        marked: &[bool],
    ) -> (Vec<Option<u64>>, u64, RunStats) {
        Session::new(g, SimConfig::default())
            .run(PrefixNumber::new(pos, marked))
            .unwrap()
    }

    #[test]
    fn sum_convergecast_counts_nodes() {
        let (g, pos) = tree_fixture(30, 5);
        let values = vec![1u64; g.n()];
        let (results, stats) = aggregate(&g, pos, &values, AggOp::Sum, false).unwrap();
        assert_eq!(results[0], Some(30));
        assert!(stats.rounds < 40);
    }

    /// One convergecast of the pair `(1, depth)`, folded by `(+, max)`,
    /// tells every node `n` and the tree's depth, at the cost of one
    /// broadcast `u64` aggregation: a `(u32, u32)` is two words too.
    #[test]
    fn folded_pair_counts_nodes_and_depth_at_one_aggregations_cost() {
        let g = lcs_graph::generators::gnp_connected(
            40,
            0.08,
            &mut <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(10),
        );
        let bfs = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let census: Vec<(u32, u32)> = bfs.dist.iter().map(|d| (1, d.unwrap())).collect();
        let (pairs, pair_stats) = Session::new(&g, SimConfig::default())
            .run(TreeAggregate::folding(
                pos.clone(),
                census,
                |(n1, h1), (n2, h2)| (n1 + n2, h1.max(h2)),
                true,
            ))
            .unwrap();
        let expected = Some((g.n() as u32, bfs.depth()));
        assert!(bfs.depth() > 1);
        assert!(pairs.iter().all(|&p| p == expected), "{pairs:?}");
        let (_, sum_stats) = aggregate(&g, pos, &vec![1; g.n()], AggOp::Sum, true).unwrap();
        assert_eq!(pair_stats, sum_stats);
    }

    #[test]
    fn min_convergecast_with_broadcast_informs_everyone() {
        let (g, pos) = tree_fixture(25, 6);
        let mut values: Vec<u64> = (0..g.n() as u64).map(|v| 100 + v).collect();
        values[17] = 3;
        let (results, _) = aggregate(&g, pos, &values, AggOp::Min, true).unwrap();
        for v in g.nodes() {
            assert_eq!(results[v as usize], Some(3), "node {v}");
        }
    }

    #[test]
    fn max_convergecast() {
        let (g, pos) = tree_fixture(20, 7);
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let (results, _) = aggregate(&g, pos, &values, AggOp::Max, false).unwrap();
        assert_eq!(results[0], Some(19));
    }

    #[test]
    fn prefix_numbering_assigns_distinct_dense_ranks() {
        let (g, pos) = tree_fixture(40, 8);
        let marked: Vec<bool> = (0..g.n()).map(|v| v % 3 == 0).collect();
        let (ranks, total, _) = number(&g, pos, &marked);
        let expected: u64 = marked.iter().filter(|&&m| m).count() as u64;
        assert_eq!(total, expected);
        let mut seen: Vec<u64> = ranks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..expected).collect::<Vec<_>>());
        for (v, r) in ranks.iter().enumerate() {
            assert_eq!(r.is_some(), marked[v]);
        }
    }

    #[test]
    fn prefix_numbering_none_marked() {
        let (g, pos) = tree_fixture(10, 9);
        let marked = vec![false; g.n()];
        let (ranks, total, _) = number(&g, pos, &marked);
        assert_eq!(total, 0);
        assert!(ranks.iter().all(|r| r.is_none()));
    }

    #[test]
    fn malformed_tree_reports_invalid_destination() {
        // Path 0-1-2; the root claims non-neighbor 2 as a child. The
        // run must fail with the same error the old send-path produced,
        // not panic.
        let g = lcs_graph::generators::path(3);
        let mk = |children| TreePosition {
            parent: None,
            children,
            in_tree: true,
            is_root: false,
        };
        let pos = vec![
            TreePosition {
                parent: None,
                children: vec![2],
                in_tree: true,
                is_root: true,
            },
            mk(vec![]),
            mk(vec![]),
        ];
        let err = aggregate(&g, pos, &[1, 1, 1], AggOp::Sum, true).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidDestination { from: 0, to: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn singleton_tree() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let pos = vec![TreePosition {
            parent: None,
            children: vec![],
            in_tree: true,
            is_root: true,
        }];
        let (results, _) = aggregate(&g, pos, &[42], AggOp::Sum, true).unwrap();
        assert_eq!(results[0], Some(42));
    }
}
