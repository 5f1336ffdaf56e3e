//! Partwise aggregation — the primitive that turns shortcuts into
//! algorithms.
//!
//! Given a partition and a shortcut set, this module builds one BFS tree
//! per part inside its augmented subgraph `G[S_i] ∪ H_i` (rooted at the
//! part leader, with `H_i` stripped to what connects `S_i` and the tree
//! cut to the subtrees that hold a member) and then aggregates one value
//! per part along all trees simultaneously. Everything the paper's
//! applications need — MST's minimum-weight outgoing edge, min-cut
//! counters, verification bits — is an instance of this primitive, and
//! its cost is exactly what the shortcut quality promises:
//!
//! * tree depth ≤ dilation,
//! * per-edge tree overlap ≤ congestion,
//! * so the scheduled execution takes `O(c + d·log n)` rounds
//!   (Theorem 2.1), which the simulator realizes with queues.
//!
//! [`AggregationSetup::accounted_rounds`] prices one sweep by
//! [`ScheduleCost`] instead, for the one step that runs no protocol
//! yet: the leader relabel after each Boruvka merge.

use crate::partition::Partition;
use crate::shortcut::{ShortcutSet, Stripper};
use lcs_congest::{
    AggOp, MultiAggOutcome, MultiAggregate, Participation, ScheduleCost, Session, SimConfig,
    SimError,
};
use lcs_graph::{EdgeId, Graph, NodeId, UNREACHABLE, W_UNREACHABLE};

/// One part's aggregation tree: the BFS tree of `G[S_i] ∪ H_i` rooted
/// at the leader, with `H_i` [stripped](ShortcutSet::stripped) and only
/// the subtrees that hold a member of `S_i` kept, so every leaf is a
/// member. It reaches each member at its hop distance from the leader,
/// which stripping leaves unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartTree {
    /// The part index this tree belongs to.
    pub part: usize,
    /// Root (= part leader).
    pub root: NodeId,
    /// `(node, parent)` pairs for every tree node (root has `None`).
    pub members: Vec<(NodeId, Option<NodeId>)>,
    /// Tree depth: the largest hop distance of a member from the root.
    pub depth: u32,
}

/// The per-part trees plus the schedule-relevant measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregationSetup {
    /// One tree per part.
    pub trees: Vec<PartTree>,
    /// Max number of part-trees crossing any single edge.
    pub tree_congestion: u32,
    /// Max tree depth.
    pub tree_depth: u32,
}

impl AggregationSetup {
    /// Builds the trees by centralized BFS inside each augmented
    /// subgraph. (The distributed construction grows the same trees with
    /// `lcs-congest::multi_bfs`; `lcs-core` exercises that path.)
    ///
    /// Each `H_i` is [stripped](ShortcutSet::stripped) first, and each
    /// BFS tree keeps only the subtrees that hold a member: nothing
    /// removed lies on a path between two members, so every member keeps
    /// its hop depth, and the tree depth and congestion can only fall.
    /// Stripping is idempotent, so a set and its stripped copy build the
    /// same trees.
    ///
    /// Each part's subgraph is laid out densely: local ids go to the
    /// part's members first, then to the endpoints of its edges in
    /// ascending edge id order; adjacency lists ascend by local id; the
    /// BFS from the leader scans them in that order, and the tree lists
    /// its nodes by local id. One set of scratch arrays serves every
    /// part.
    ///
    /// # Panics
    ///
    /// Panics if `shortcuts.num_parts() != partition.num_parts()`.
    pub fn build(graph: &Graph, partition: &Partition, shortcuts: &ShortcutSet) -> Self {
        assert_eq!(shortcuts.num_parts(), partition.num_parts());
        let mut scratch = TreeScratch::new(graph.n());
        let mut edge_load = vec![0u32; graph.m()];
        let trees: Vec<PartTree> = (0..partition.num_parts())
            .map(|i| scratch.tree(graph, partition, shortcuts.edges(i), i, &mut edge_load))
            .collect();
        AggregationSetup {
            tree_congestion: edge_load.iter().copied().max().unwrap_or(0),
            tree_depth: trees.iter().map(|t| t.depth).max().unwrap_or(0),
            trees,
        }
    }

    /// The schedule cost of one aggregation sweep over all trees.
    pub fn schedule_cost(&self) -> ScheduleCost {
        ScheduleCost {
            congestion: self.tree_congestion as u64,
            dilation: self.tree_depth as u64 + 1,
        }
    }

    /// Scheduled rounds for one aggregation sweep (convergecast; double
    /// for convergecast + broadcast) on an `n`-node network, by
    /// [`ScheduleCost::rounds_no_precompute`].
    pub fn accounted_rounds(&self, n: usize) -> u64 {
        self.schedule_cost().rounds_no_precompute(n)
    }

    /// Builds simulator participations; `value(node, part)` supplies each
    /// tree node's contribution (nodes outside `S_i` that serve in the
    /// tree should contribute the operator's identity).
    pub fn participations(
        &self,
        n: usize,
        value: &dyn Fn(NodeId, usize) -> u64,
    ) -> Vec<Vec<Participation>> {
        let mut per_node: Vec<Vec<Participation>> = vec![Vec::new(); n];
        // Child lists by node id, filled from one tree's parent links
        // and taken by its members; one set serves every tree.
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for tree in &self.trees {
            for &(v, p) in &tree.members {
                if let Some(list) = p.and_then(|p| children.get_mut(p as usize)) {
                    list.push(v);
                }
            }
            for &(v, p) in &tree.members {
                let mut ch = std::mem::take(&mut children[v as usize]);
                ch.sort_unstable();
                per_node[v as usize].push(Participation {
                    inst: tree.part as u32,
                    parent: p,
                    children: ch,
                    value: value(v, tree.part),
                });
            }
            // A parent the tree does not list keeps its list: empty it.
            for &(_, p) in &tree.members {
                if let Some(list) = p.and_then(|p| children.get_mut(p as usize)) {
                    list.clear();
                }
            }
        }
        per_node
    }

    /// Centralized reference: aggregate per part directly over the tree
    /// members (identical semantics to the distributed execution).
    pub fn aggregate_centralized(
        &self,
        op: AggOp,
        value: &dyn Fn(NodeId, usize) -> u64,
    ) -> Vec<u64> {
        self.trees
            .iter()
            .map(|t| {
                t.members
                    .iter()
                    .map(|&(v, _)| value(v, t.part))
                    .fold(op.identity(), |a, b| op.apply(a, b))
            })
            .collect()
    }

    /// Runs the aggregation as one phase of an existing [`Session`] —
    /// the composable form: a multi-phase application (e.g. Boruvka)
    /// creates one session up front and every aggregation sweep reuses
    /// its engine (pool, buffers) and accumulates into its cumulative
    /// statistics. Returns the per-part results (as seen at each part
    /// root) plus the raw outcome (per-node results when `broadcast`,
    /// queueing stats).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn aggregate_in_session(
        &self,
        session: &mut Session<'_>,
        op: AggOp,
        value: &dyn Fn(NodeId, usize) -> u64,
        broadcast: bool,
    ) -> Result<(Vec<Option<u64>>, MultiAggOutcome), SimError> {
        let parts = self.participations(session.graph().n(), value);
        let outcome = session.run(MultiAggregate::new(parts, op, broadcast))?;
        let results = self
            .trees
            .iter()
            .map(|t| outcome.result_at(t.root, t.part as u32))
            .collect();
        Ok((results, outcome))
    }

    /// One-shot convenience over [`AggregationSetup::aggregate_in_session`]:
    /// spins up a throwaway [`Session`] for a single aggregation.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn aggregate_simulated(
        &self,
        graph: &Graph,
        op: AggOp,
        value: &dyn Fn(NodeId, usize) -> u64,
        broadcast: bool,
        cfg: &SimConfig,
    ) -> Result<(Vec<Option<u64>>, MultiAggOutcome), SimError> {
        self.aggregate_in_session(&mut Session::new(graph, cfg.clone()), op, value, broadcast)
    }
}

/// Marks a node with no local id in [`TreeScratch`], and a missing
/// parent or member in [`PartPaths`].
const NONE: u32 = u32::MAX;

/// The scratch [`AggregationSetup::build`] shares across parts: the
/// `n`-entry local-id map and strip arrays, reset after each part, and
/// the local subgraph and BFS arrays, which grow to the largest part's
/// subgraph.
#[derive(Default)]
struct TreeScratch {
    /// Local id of each node in the current part's subgraph, or [`NONE`].
    local: Vec<u32>,
    stripper: Stripper,
    /// The current part's stripped `H_i`, ascending.
    kept: Vec<EdgeId>,
    /// Local id → node.
    nodes: Vec<NodeId>,
    /// Edges of `G[S_i] ∪ H_i`, ascending.
    edges: Vec<EdgeId>,
    /// Local CSR offsets, and a fill cursor per local node.
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    /// `(neighbour, edge)` arcs in edge order, then ascending by
    /// neighbour within each list.
    filled: Vec<(u32, EdgeId)>,
    sorted: Vec<(u32, EdgeId)>,
    /// BFS hop distance, parent with the edge to it, and FIFO order.
    dist: Vec<u32>,
    parent: Vec<Option<(u32, EdgeId)>>,
    queue: Vec<u32>,
    /// Whether a local node's subtree holds a member.
    bearing: Vec<bool>,
}

impl TreeScratch {
    fn new(n: usize) -> Self {
        TreeScratch {
            local: vec![NONE; n],
            stripper: Stripper::new(n),
            ..TreeScratch::default()
        }
    }

    fn local_id(&mut self, v: NodeId) -> u32 {
        if self.local[v as usize] == NONE {
            self.local[v as usize] = self.nodes.len() as u32;
            self.nodes.push(v);
        }
        self.local[v as usize]
    }

    /// Part `i`'s BFS tree in `G[S_i] ∪ H_i`, `H_i` stripped and the
    /// tree cut to its member-bearing subtrees, adding one to
    /// `edge_load` for each of its edges.
    fn tree(
        &mut self,
        graph: &Graph,
        partition: &Partition,
        shortcut_edges: &[EdgeId],
        i: usize,
        edge_load: &mut [u32],
    ) -> PartTree {
        let part = partition.part(i);
        let internal = ShortcutSet::part_internal_edges(graph, partition, i);
        self.stripper
            .strip(graph, partition, i, shortcut_edges, &mut self.kept);
        merge_ascending(&internal, &self.kept, &mut self.edges);

        self.nodes.clear();
        for &v in part {
            self.local_id(v);
        }
        for j in 0..self.edges.len() {
            let (u, w) = graph.edge_endpoints(self.edges[j]);
            self.local_id(u);
            self.local_id(w);
        }
        let k = self.nodes.len();

        // Local CSR by counting. The first fill lists each node's arcs
        // in edge order; appending every node's arcs to its neighbours'
        // lists, nodes in local-id order, then sorts each list.
        self.offsets.clear();
        self.offsets.resize(k + 1, 0);
        for &e in &self.edges {
            let (u, w) = graph.edge_endpoints(e);
            self.offsets[self.local[u as usize] as usize + 1] += 1;
            self.offsets[self.local[w as usize] as usize + 1] += 1;
        }
        for x in 0..k {
            self.offsets[x + 1] += self.offsets[x];
        }
        let arcs = self.offsets[k] as usize;
        self.filled.clear();
        self.filled.resize(arcs, (0, EdgeId(0)));
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..k]);
        for &e in &self.edges {
            let (u, w) = graph.edge_endpoints(e);
            let (lu, lw) = (self.local[u as usize], self.local[w as usize]);
            self.filled[self.cursor[lu as usize] as usize] = (lw, e);
            self.cursor[lu as usize] += 1;
            self.filled[self.cursor[lw as usize] as usize] = (lu, e);
            self.cursor[lw as usize] += 1;
        }
        self.sorted.clear();
        self.sorted.resize(arcs, (0, EdgeId(0)));
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..k]);
        for x in 0..k {
            for a in self.offsets[x] as usize..self.offsets[x + 1] as usize {
                let (y, e) = self.filled[a];
                self.sorted[self.cursor[y as usize] as usize] = (x as u32, e);
                self.cursor[y as usize] += 1;
            }
        }

        let root = partition.leader(i);
        let local_root = self.local[root as usize];
        self.dist.clear();
        self.dist.resize(k, UNREACHABLE);
        self.parent.clear();
        self.parent.resize(k, None);
        self.queue.clear();
        self.dist[local_root as usize] = 0;
        self.queue.push(local_root);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u as usize];
            for a in self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize {
                let (w, e) = self.sorted[a];
                if self.dist[w as usize] == UNREACHABLE {
                    self.dist[w as usize] = du + 1;
                    self.parent[w as usize] = Some((u, e));
                    self.queue.push(w);
                }
            }
        }

        // A node bears a member if it is one (members hold local ids
        // 0..|S_i|) or a child bears one; children come after their
        // parent in the BFS order.
        self.bearing.clear();
        self.bearing.resize(k, false);
        for &u in self.queue.iter().rev() {
            let u = u as usize;
            self.bearing[u] |= u < part.len();
            if let (true, Some((p, _))) = (self.bearing[u], self.parent[u]) {
                self.bearing[p as usize] = true;
            }
        }
        let mut members = Vec::new();
        let mut depth = 0;
        for lv in (0..k).filter(|&lv| self.bearing[lv]) {
            let parent = self.parent[lv].map(|(lp, e)| {
                edge_load[e.index()] += 1;
                self.nodes[lp as usize]
            });
            members.push((self.nodes[lv], parent));
            depth = depth.max(self.dist[lv]);
        }
        for &v in &self.nodes {
            self.local[v as usize] = NONE;
        }
        PartTree {
            part: i,
            root,
            members,
            depth,
        }
    }
}

/// Merges two strictly ascending edge lists into `out`, each edge once.
fn merge_ascending(a: &[EdgeId], b: &[EdgeId], out: &mut Vec<EdgeId>) {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]));
    out.clear();
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        let next = a[x].min(b[y]);
        x += usize::from(a[x] == next);
        y += usize::from(b[y] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
}

/// What the per-part answers read of the aggregation trees, and no
/// more: for each part, the members its tree lists, and the root paths
/// of those members as top-down steps, each parent before its children
/// and with the edge from it. It depends on the trees alone, not on
/// weights, so an index derives it once and every customization and
/// served aggregate reuses it. A tree [`AggregationSetup::build`]
/// gives is exactly these root paths, and every index, frozen or
/// loaded, holds only such trees.
///
/// A member whose path to its tree's root is broken — it is not
/// listed, an ancestor is missing or has no parent, a parent edge is
/// not in the graph, or the parents form a cycle — gets no step, and
/// reads as [`W_UNREACHABLE`] in [`PartPaths::depths`]. Only a
/// hand-built [`AggregationSetup`] (its fields are public) can hold
/// such a path; no index file can, since a loaded index builds its
/// trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartPaths {
    /// Nodes of the graph (the depth table's length).
    n: usize,
    /// `listed[listed_at[i]..listed_at[i + 1]]`: the members of part
    /// `i` that its tree lists, ascending.
    listed: Vec<NodeId>,
    listed_at: Vec<u32>,
    /// Every part's root-path steps; a step's parent comes before it.
    steps: Vec<PathStep>,
}

/// One node on a part member's root path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathStep {
    /// The node, if it is a member of the tree's part, else [`NONE`].
    member: NodeId,
    /// Index of the parent's step, or [`NONE`] at the tree's root,
    /// whose depth is 0.
    parent: u32,
    /// The edge from the parent (unused at the root).
    edge: EdgeId,
}

impl PartPaths {
    /// Derives the view from `setup`'s trees, in time linear in their
    /// sizes. Tree `i` is read as part `i`'s, as
    /// [`AggregationSetup::build`] guarantees. A hand-built `setup` may
    /// hold broken root paths, which read as unreachable (see the
    /// type's docs).
    ///
    /// # Panics
    ///
    /// Panics if `setup` has more trees than `partition` has parts, or
    /// a tree names a node `graph` lacks.
    pub fn new(graph: &Graph, partition: &Partition, setup: &AggregationSetup) -> Self {
        // `parent[v]` while one tree is read: `v`'s parent, NO_PARENT
        // if the tree lists `v` without one, NONE if it does not list
        // `v`.
        const NO_PARENT: u32 = NONE - 1;
        // `state[v]`: the step of `v`, or one of these markers.
        const UNSEEN: u32 = NONE;
        const BROKEN: u32 = NONE - 1;
        const CLIMBING: u32 = NONE - 2;
        let n = graph.n();
        let mut parent = vec![NONE; n];
        let mut state = vec![UNSEEN; n];
        let mut seen: Vec<NodeId> = Vec::new();
        let mut path: Vec<NodeId> = Vec::new();
        let mut listed = Vec::new();
        let mut listed_at = vec![0u32];
        let mut steps: Vec<PathStep> = Vec::new();
        for (i, tree) in setup.trees.iter().enumerate() {
            let in_part = |v: NodeId| partition.part_of(v) == Some(i as u32);
            for &(v, p) in &tree.members {
                parent[v as usize] = p.unwrap_or(NO_PARENT);
            }
            for &v in partition.part(i) {
                if parent[v as usize] != NONE {
                    listed.push(v);
                }
                // Climb to the root or to a node already read; a node
                // met twice on one climb closes a parent cycle.
                let mut u = v;
                let mut top = loop {
                    if u == tree.root && state[u as usize] == UNSEEN {
                        state[u as usize] = steps.len() as u32;
                        seen.push(u);
                        steps.push(PathStep {
                            member: if in_part(u) { u } else { NONE },
                            parent: NONE,
                            edge: EdgeId(0),
                        });
                    }
                    match state[u as usize] {
                        UNSEEN if parent[u as usize] < NO_PARENT => {
                            state[u as usize] = CLIMBING;
                            seen.push(u);
                            path.push(u);
                            u = parent[u as usize];
                        }
                        UNSEEN | BROKEN | CLIMBING => break None,
                        step => break Some(step),
                    }
                };
                while let Some(x) = path.pop() {
                    top = top.and_then(|above| {
                        let edge = graph.edge_between(parent[x as usize], x)?;
                        steps.push(PathStep {
                            member: if in_part(x) { x } else { NONE },
                            parent: above,
                            edge,
                        });
                        Some(steps.len() as u32 - 1)
                    });
                    state[x as usize] = top.unwrap_or(BROKEN);
                }
            }
            listed_at.push(listed.len() as u32);
            for &(v, _) in &tree.members {
                parent[v as usize] = NONE;
            }
            for v in seen.drain(..) {
                state[v as usize] = UNSEEN;
            }
        }
        PartPaths {
            n,
            listed,
            listed_at,
            steps,
        }
    }

    /// The weighted depth of every node in its own part's tree under
    /// `weights` (one per edge), in one pass over the steps:
    /// [`W_UNREACHABLE`] where no part tree spans the node, and where
    /// the sum is too heavy for `u64` (sums saturate).
    ///
    /// # Panics
    ///
    /// Panics if `weights` has no entry for a tree edge.
    pub fn depths(&self, weights: &[u64]) -> Vec<u64> {
        let mut depth = vec![W_UNREACHABLE; self.n];
        let mut at: Vec<u64> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let d = match step.parent {
                NONE => 0,
                above => at[above as usize].saturating_add(weights[step.edge.index()]),
            };
            at.push(d);
            if step.member != NONE {
                depth[step.member as usize] = d;
            }
        }
        depth
    }

    /// Folds `value(v, i)` under `op` over the members `v` of each part
    /// `i` that its tree lists. Every [`AggOp`] is commutative and
    /// associative, so this equals
    /// [`AggregationSetup::aggregate_centralized`] whenever `value` is
    /// `op`'s identity off the part, without reading the tree nodes of
    /// other parts.
    pub fn aggregate_members(&self, op: AggOp, value: impl Fn(NodeId, usize) -> u64) -> Vec<u64> {
        self.listed_at
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                self.listed[w[0] as usize..w[1] as usize]
                    .iter()
                    .fold(op.identity(), |a, &v| op.apply(a, value(v, i)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{global_tree_shortcuts, trivial_shortcuts};
    use lcs_graph::{HighwayGraph, HighwayParams};

    fn fixture() -> (lcs_graph::Graph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 12,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        (g, p)
    }

    #[test]
    fn trees_span_parts_and_depth_matches_shortcut_quality() {
        let (g, p) = fixture();
        let trivial = AggregationSetup::build(&g, &p, &trivial_shortcuts(&p));
        for t in &trivial.trees {
            let listed = |v: &NodeId| t.members.iter().any(|&(u, _)| u == *v);
            assert!(p.part(t.part).iter().all(listed), "tree {}", t.part);
        }
        // Depth of a path part from its leader (an endpoint) = len-1.
        assert_eq!(trivial.tree_depth, 11);
        assert_eq!(trivial.tree_congestion, 1);

        let tree = global_tree_shortcuts(&g, &p, 0, Some(1));
        let fast = AggregationSetup::build(&g, &p, &tree);
        // From a part leader, any node of the augmented subgraph is
        // reachable within leader->root->node <= 2D hops.
        assert!(fast.tree_depth <= 8, "depth {}", fast.tree_depth);
        assert!(
            (2..=3).contains(&fast.tree_congestion),
            "parts share global-tree edges, congestion {}",
            fast.tree_congestion
        );
    }

    #[test]
    fn centralized_and_simulated_aggregation_agree() {
        let (g, p) = fixture();
        let s = global_tree_shortcuts(&g, &p, 0, Some(1));
        let setup = AggregationSetup::build(&g, &p, &s);
        // Value: node id if in the part, identity otherwise.
        let value = |v: NodeId, part: usize| {
            if p.part_of(v) == Some(part as u32) {
                v as u64
            } else {
                AggOp::Min.identity()
            }
        };
        let central = setup.aggregate_centralized(AggOp::Min, &value);
        let (roots, outcome) = setup
            .aggregate_simulated(&g, AggOp::Min, &value, false, &SimConfig::default())
            .unwrap();
        for i in 0..p.num_parts() {
            assert_eq!(roots[i], Some(central[i]), "part {i}");
            // Min node id of path i is its first node.
            assert_eq!(central[i], *p.part(i).first().unwrap() as u64);
        }
        assert!(outcome.stats.rounds > 0);
    }

    #[test]
    fn broadcast_delivers_to_all_part_members() {
        let (g, p) = fixture();
        let s = global_tree_shortcuts(&g, &p, 0, Some(1));
        let setup = AggregationSetup::build(&g, &p, &s);
        let value = |v: NodeId, part: usize| {
            if p.part_of(v) == Some(part as u32) {
                v as u64
            } else {
                0
            }
        };
        let (_, outcome) = setup
            .aggregate_simulated(&g, AggOp::Max, &value, true, &SimConfig::default())
            .unwrap();
        for i in 0..p.num_parts() {
            let expected = *p.part(i).last().unwrap() as u64;
            for &v in p.part(i) {
                assert_eq!(
                    outcome.result_at(v, i as u32),
                    Some(expected),
                    "node {v} of part {i}"
                );
            }
        }
    }

    /// Each member gets its children ascending, whatever the member
    /// order. A member listed twice gets them at its first entry, and
    /// children of a parent the tree does not list are dropped rather
    /// than handed to that node in a later tree.
    #[test]
    fn participations_list_children_ascending_per_tree() {
        let tree = |part: usize, members: Vec<(NodeId, Option<NodeId>)>| PartTree {
            part,
            root: members[0].0,
            members,
            depth: 0,
        };
        let setup = AggregationSetup {
            trees: vec![
                tree(
                    0,
                    vec![
                        (2, None),
                        (5, Some(2)),
                        (1, Some(2)),
                        (4, Some(1)),
                        (2, Some(4)),
                    ],
                ),
                tree(1, vec![(3, None), (0, Some(3)), (6, Some(4))]),
                tree(2, vec![(4, None), (6, Some(4))]),
            ],
            tree_congestion: 1,
            tree_depth: 2,
        };
        let per_node = setup.participations(7, &|v, part| u64::from(v) * 10 + part as u64);
        let got = |v: usize| -> Vec<(u32, Option<NodeId>, Vec<NodeId>, u64)> {
            per_node[v]
                .iter()
                .map(|p| (p.inst, p.parent, p.children.clone(), p.value))
                .collect()
        };
        assert_eq!(
            got(2),
            vec![(0, None, vec![1, 5], 20), (0, Some(4), vec![], 20)]
        );
        assert_eq!(got(1), vec![(0, Some(2), vec![4], 10)]);
        assert_eq!(
            got(4),
            vec![(0, Some(1), vec![2], 40), (2, None, vec![6], 42)]
        );
        assert_eq!(got(3), vec![(1, None, vec![0], 31)]);
        assert_eq!(
            got(6),
            vec![(1, Some(4), vec![], 61), (2, Some(4), vec![], 62)]
        );
        assert!(got(5).iter().all(|p| p.2.is_empty()));
    }

    #[test]
    fn accounted_rounds_scale_with_quality() {
        let (g, p) = fixture();
        let slow = AggregationSetup::build(&g, &p, &trivial_shortcuts(&p));
        let fast = AggregationSetup::build(&g, &p, &global_tree_shortcuts(&g, &p, 0, Some(1)));
        // Better shortcuts -> cheaper aggregation, even though the
        // global tree costs congestion.
        assert!(fast.accounted_rounds(g.n()) < slow.accounted_rounds(g.n()));
    }

    #[test]
    fn part_paths_hold_the_parts_not_the_trees() {
        let (g, p) = fixture();
        let shortcuts = global_tree_shortcuts(&g, &p, 0, Some(1));
        let setup = AggregationSetup::build(&g, &p, &shortcuts);
        let paths = PartPaths::new(&g, &p, &setup);
        // Every part's shortcut spans the whole graph; its tree keeps its
        // members and their root paths, a fraction of it, which is what
        // the paths hold.
        for i in 0..p.num_parts() {
            assert_eq!(shortcuts.augmented_subgraph(&g, &p, i).n(), g.n());
        }
        let tree_nodes: usize = setup.trees.iter().map(|t| t.members.len()).sum();
        assert!(tree_nodes * 2 < p.num_parts() * g.n(), "{tree_nodes}");
        assert_eq!(paths.steps.len(), tree_nodes);
        assert_eq!(paths.listed, p.parts().concat());
        let value = |v: NodeId, part: usize| {
            if p.part_of(v) == Some(part as u32) {
                v as u64 * 7 % 11
            } else {
                0
            }
        };
        for op in [AggOp::Sum, AggOp::Max] {
            assert_eq!(
                paths.aggregate_members(op, value),
                setup.aggregate_centralized(op, &value)
            );
        }
        let weights: Vec<u64> = (1..=g.m() as u64).collect();
        let depths = paths.depths(&weights);
        for t in &setup.trees {
            let parent: std::collections::HashMap<NodeId, Option<NodeId>> =
                t.members.iter().copied().collect();
            for &v in p.part(t.part) {
                let (mut u, mut d) = (v, 0);
                while let Some(q) = parent[&u] {
                    d += weights[g.edge_between(q, u).unwrap().index()];
                    u = q;
                }
                assert_eq!(depths[v as usize], d, "node {v}");
            }
        }
    }

    #[test]
    fn part_paths_read_broken_root_paths_as_unreachable() {
        // Path 0-…-8 in one part, rooted at the unlisted 8: 7 and 6
        // hang below it, 5 is listed without a parent and 4 below it, 3
        // is not listed, 1 and 2 are each other's parent, and 0 hangs
        // off 6 over the non-edge {0, 6}.
        let g = lcs_graph::path(9);
        let p = Partition::new(&g, vec![(0..9).collect()]).unwrap();
        let setup = AggregationSetup {
            trees: vec![PartTree {
                part: 0,
                root: 8,
                members: vec![
                    (7, Some(8)),
                    (6, Some(7)),
                    (5, None),
                    (4, Some(5)),
                    (2, Some(1)),
                    (1, Some(2)),
                    (0, Some(6)),
                ],
                depth: 2,
            }],
            tree_congestion: 1,
            tree_depth: 2,
        };
        let paths = PartPaths::new(&g, &p, &setup);
        let u = W_UNREACHABLE;
        // Edge {v, v + 1} weighs v + 1.
        let weights: Vec<u64> = (1..=8).collect();
        assert_eq!(paths.depths(&weights), vec![u, u, u, u, u, u, 15, 8, 0]);
        assert_eq!(paths.listed, vec![0, 1, 2, 4, 5, 6, 7]);
        assert_eq!(paths.steps.len(), 3, "the root, 7 and 6");
    }

    #[test]
    fn part_paths_read_a_long_parent_cycle_in_linear_time() {
        // One part of 100,000 nodes whose parents run 0 → 1 → … → n-2
        // and back to 0, past the root n-1: a climb per member would
        // take n²/2 steps.
        let n = 100_000u32;
        let g = lcs_graph::path(n as usize);
        let p = Partition::new(&g, vec![(0..n).collect()]).unwrap();
        let members = (0..n - 1)
            .map(|v| (v, Some(if v + 1 < n - 1 { v + 1 } else { 0 })))
            .collect();
        let setup = AggregationSetup {
            trees: vec![PartTree {
                part: 0,
                root: n - 1,
                members,
                depth: 1,
            }],
            tree_congestion: 1,
            tree_depth: 1,
        };
        let paths = PartPaths::new(&g, &p, &setup);
        let depths = paths.depths(&vec![1; g.m()]);
        assert_eq!(depths[n as usize - 1], 0);
        assert!(depths[..n as usize - 1].iter().all(|&d| d == W_UNREACHABLE));
    }

    #[test]
    fn simulated_rounds_within_schedule_bound() {
        let (g, p) = fixture();
        let s = global_tree_shortcuts(&g, &p, 0, Some(1));
        let setup = AggregationSetup::build(&g, &p, &s);
        let value = |_: NodeId, _: usize| 1u64;
        let (_, outcome) = setup
            .aggregate_simulated(&g, AggOp::Sum, &value, false, &SimConfig::default())
            .unwrap();
        let bound = setup.schedule_cost().rounds(g.n());
        assert!(
            outcome.stats.rounds <= bound,
            "simulated {} vs bound {}",
            outcome.stats.rounds,
            bound
        );
    }
}
