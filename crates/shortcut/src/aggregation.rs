//! Partwise aggregation — the primitive that turns shortcuts into
//! algorithms.
//!
//! Given a partition and a shortcut set, this module builds one BFS tree
//! per part inside its augmented subgraph `G[S_i] ∪ H_i` (rooted at the
//! part leader) and then aggregates one value per part along all trees
//! simultaneously. Everything the paper's applications need — MST's
//! minimum-weight outgoing edge, min-cut counters, verification bits —
//! is an instance of this primitive, and its cost is exactly what the
//! shortcut quality promises:
//!
//! * tree depth ≤ dilation,
//! * per-edge tree overlap ≤ congestion,
//! * so the scheduled execution takes `O(c + d·log n)` rounds
//!   (Theorem 2.1), which the simulator realizes with queues and the
//!   accountant charges via [`ScheduleCost`].

use crate::partition::Partition;
use crate::shortcut::ShortcutSet;
use lcs_congest::{
    AggOp, MultiAggOutcome, MultiAggregate, Participation, ScheduleCost, Session, SimConfig,
    SimError,
};
use lcs_graph::{bfs, BfsOptions, Graph, NodeId, UNREACHABLE};
use std::collections::HashMap;

/// One part's aggregation tree: BFS tree of `G[S_i] ∪ H_i` rooted at
/// the leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartTree {
    /// The part index this tree belongs to.
    pub part: usize,
    /// Root (= part leader).
    pub root: NodeId,
    /// `(node, parent)` pairs for every tree node (root has `None`).
    pub members: Vec<(NodeId, Option<NodeId>)>,
    /// Tree depth.
    pub depth: u32,
    /// Whether the tree reaches every member of the part (it always
    /// does for valid partitions, since `G[S_i]` is connected).
    pub spans_part: bool,
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
    /// # Panics
    ///
    /// Panics if `shortcuts.num_parts() != partition.num_parts()`.
    pub fn build(graph: &Graph, partition: &Partition, shortcuts: &ShortcutSet) -> Self {
        assert_eq!(shortcuts.num_parts(), partition.num_parts());
        let mut trees = Vec::with_capacity(partition.num_parts());
        let mut edge_load = vec![0u32; graph.m()];
        let mut max_depth = 0u32;
        for i in 0..partition.num_parts() {
            let sub = shortcuts.augmented_subgraph(graph, partition, i);
            let root = partition.leader(i);
            let local_root = sub
                .local_of(root)
                .expect("leader is in its own augmented subgraph");
            let r = bfs(sub.local(), &[local_root], &BfsOptions::default());
            let mut members = Vec::new();
            let mut depth = 0u32;
            for lv in 0..sub.n() as u32 {
                let d = r.dist[lv as usize];
                if d == UNREACHABLE {
                    continue;
                }
                depth = depth.max(d);
                let node = sub.parent_of(lv);
                let parent = r.parent[lv as usize].map(|lp| sub.parent_of(lp));
                if let Some(p) = parent {
                    let e = graph
                        .edge_between(p, node)
                        .expect("tree edges exist in parent graph");
                    edge_load[e.index()] += 1;
                }
                members.push((node, parent));
            }
            let spans_part = partition.part(i).iter().all(|&v| {
                sub.local_of(v)
                    .is_some_and(|lv| r.dist[lv as usize] != UNREACHABLE)
            });
            max_depth = max_depth.max(depth);
            trees.push(PartTree {
                part: i,
                root,
                members,
                depth,
                spans_part,
            });
        }
        AggregationSetup {
            trees,
            tree_congestion: edge_load.iter().copied().max().unwrap_or(0),
            tree_depth: max_depth,
        }
    }

    /// The schedule cost of one aggregation sweep over all trees.
    pub fn schedule_cost(&self) -> ScheduleCost {
        ScheduleCost {
            congestion: self.tree_congestion as u64,
            dilation: self.tree_depth as u64 + 1,
        }
    }

    /// Accounted rounds for one aggregation (convergecast; double for
    /// convergecast + broadcast) on an `n`-node network.
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
        for tree in &self.trees {
            // children lists derived from parents.
            let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
            for &(v, p) in &tree.members {
                if let Some(p) = p {
                    children.entry(p).or_default().push(v);
                }
            }
            for &(v, p) in &tree.members {
                let mut ch = children.remove(&v).unwrap_or_default();
                ch.sort_unstable();
                per_node[v as usize].push(Participation {
                    inst: tree.part as u32,
                    parent: p,
                    children: ch,
                    value: value(v, tree.part),
                });
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
        assert!(trivial.trees.iter().all(|t| t.spans_part));
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
