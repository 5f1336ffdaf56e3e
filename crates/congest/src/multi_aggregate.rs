//! Multi-instance tree aggregation: convergecast (and optional broadcast)
//! over many overlapping trees at once, multiplexed through per-edge
//! FIFO queues.
//!
//! This is the **partwise aggregation** primitive of the shortcut
//! framework: once each part `S_i` has its `O(k_D log n)`-depth tree in
//! `G[S_i] ∪ H_i`, applications (MST's minimum-weight-outgoing-edge,
//! min-cut counters, verification bits) aggregate one value per part by
//! running all the convergecasts together. Congestion over shared edges
//! turns into queueing delay, exactly as in [`crate::multi_bfs`].

use crate::message::Message;
use crate::node::RoundCtx;
use crate::protocol::Protocol;
use crate::stats::RunStats;
use crate::tree::AggOp;
use lcs_graph::{Graph, NodeId};
use std::collections::{HashMap, VecDeque};

/// One node's membership in one instance tree.
#[derive(Debug, Clone)]
pub struct Participation {
    /// Instance id.
    pub inst: u32,
    /// Parent in this instance's tree (None = root of the instance).
    pub parent: Option<NodeId>,
    /// Children in this instance's tree.
    pub children: Vec<NodeId>,
    /// This node's contribution to the aggregate.
    pub value: u64,
}

/// Messages of the multi-aggregation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiAggMsg {
    /// Partial aggregate flowing up in `inst`.
    Up {
        /// Instance id.
        inst: u32,
        /// Partial aggregate.
        value: u64,
    },
    /// Final aggregate flowing down in `inst`.
    Down {
        /// Instance id.
        inst: u32,
        /// Final aggregate.
        value: u64,
    },
}

impl Message for MultiAggMsg {
    fn size_words(&self) -> u32 {
        3 // instance id (1 word) + u64 value (2 words)
    }

    fn corrupted(self, stream: u64) -> Self {
        // The value flips; the instance id stays, so a receiver never
        // indexes an instance its bundle lacks.
        match self {
            MultiAggMsg::Up { inst, value } => MultiAggMsg::Up {
                inst,
                value: value.corrupted(stream),
            },
            MultiAggMsg::Down { inst, value } => MultiAggMsg::Down {
                inst,
                value: value.corrupted(stream),
            },
        }
    }
}

#[derive(Debug)]
struct InstState {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Neighbor index of `parent`, resolved on the first round.
    parent_idx: Option<usize>,
    /// Neighbor indices of `children`, resolved on the first round.
    children_idx: Vec<usize>,
    pending: usize,
    acc: u64,
    sent_up: bool,
    sent_down: bool,
    result: Option<u64>,
}

/// Per-node state of the multi-aggregation protocol.
#[derive(Debug)]
pub struct MultiAggNode {
    op: AggOp,
    broadcast: bool,
    /// Instance states sorted by instance id (deterministic iteration,
    /// binary-searchable on message arrival).
    insts: Vec<(u32, InstState)>,
    queues: Vec<VecDeque<MultiAggMsg>>,
    /// Longest queue observed.
    pub max_queue: usize,
    initialized: bool,
}

impl MultiAggNode {
    /// Creates the node state from this node's participations.
    pub fn new(participations: Vec<Participation>, op: AggOp, broadcast: bool) -> Self {
        // BTreeMap construction: sorted by instance id, duplicate
        // participations collapse to the last one given.
        let insts: Vec<(u32, InstState)> = participations
            .into_iter()
            .map(|p| {
                let pending = p.children.len();
                (
                    p.inst,
                    InstState {
                        parent: p.parent,
                        children: p.children,
                        parent_idx: None,
                        children_idx: Vec::new(),
                        pending,
                        acc: p.value,
                        sent_up: false,
                        sent_down: false,
                        result: None,
                    },
                )
            })
            .collect::<std::collections::BTreeMap<u32, InstState>>()
            .into_iter()
            .collect();
        MultiAggNode {
            op,
            broadcast,
            insts,
            queues: Vec::new(),
            max_queue: 0,
            initialized: false,
        }
    }

    fn inst_mut(&mut self, inst: u32) -> Option<&mut InstState> {
        self.insts
            .binary_search_by_key(&inst, |&(i, _)| i)
            .ok()
            .map(|i| &mut self.insts[i].1)
    }
}

/// Result of the [`MultiAggregate`] protocol.
#[derive(Debug)]
pub struct MultiAggOutcome {
    /// `results[v]` maps instance id to the aggregate known at `v`
    /// (roots always; everyone in the instance when broadcast was on).
    pub results: Vec<HashMap<u32, Option<u64>>>,
    /// Longest queue observed.
    pub max_queue: usize,
    /// Engine statistics.
    pub stats: crate::stats::RunStats,
}

impl MultiAggOutcome {
    /// The aggregate of instance `inst` as known by node `v`.
    pub fn result_at(&self, v: NodeId, inst: u32) -> Option<u64> {
        self.results[v as usize].get(&inst).copied().flatten()
    }
}

/// Partwise aggregation over many overlapping trees as a composable
/// [`Protocol`] — the primitive the paper's applications are built on.
/// Run it through a [`Session`](crate::session::Session).
#[derive(Debug, Clone)]
pub struct MultiAggregate {
    participations: Vec<Vec<Participation>>,
    op: AggOp,
    broadcast: bool,
}

impl MultiAggregate {
    /// A bundle of per-instance convergecasts (plus broadcast when
    /// requested) described by each node's participations.
    pub fn new(participations: Vec<Vec<Participation>>, op: AggOp, broadcast: bool) -> Self {
        MultiAggregate {
            participations,
            op,
            broadcast,
        }
    }
}

impl Protocol for MultiAggregate {
    type Msg = MultiAggMsg;
    type State = MultiAggNode;
    type Output = MultiAggOutcome;

    fn label(&self) -> &str {
        "multi_aggregate"
    }

    fn init(&mut self, graph: &Graph) -> Vec<MultiAggNode> {
        assert_eq!(self.participations.len(), graph.n());
        std::mem::take(&mut self.participations)
            .into_iter()
            .map(|p| MultiAggNode::new(p, self.op, self.broadcast))
            .collect()
    }

    fn round(&self, node: &mut MultiAggNode, ctx: &mut RoundCtx<'_, MultiAggMsg>) {
        if !node.initialized {
            node.initialized = true;
            node.queues = vec![VecDeque::new(); ctx.degree()];
            for (_, st) in &mut node.insts {
                (st.parent_idx, st.children_idx) = ctx.tree_indices(st.parent, &st.children);
            }
        }
        // Absorb arrivals.
        let op = node.op;
        for &(_from, ref msg) in ctx.inbox() {
            match *msg {
                MultiAggMsg::Up { inst, value } => {
                    let st = node.inst_mut(inst).expect("Up for unknown instance");
                    st.acc = op.apply(st.acc, value);
                    st.pending = st.pending.saturating_sub(1);
                }
                MultiAggMsg::Down { inst, value } => {
                    node.inst_mut(inst)
                        .expect("Down for unknown instance")
                        .result = Some(value);
                }
            }
        }
        // Progress each instance; sorted order keeps queue contents
        // deterministic. Field-split borrows: `insts` drives, `queues`
        // and `max_queue` absorb, with no per-round clones.
        let broadcast = node.broadcast;
        let queues = &mut node.queues;
        let max_queue = &mut node.max_queue;
        for &mut (inst, ref mut st) in &mut node.insts {
            if st.pending == 0 && !st.sent_up {
                st.sent_up = true;
                match st.parent_idx {
                    None => st.result = Some(st.acc),
                    Some(pi) => {
                        let q = &mut queues[pi];
                        q.push_back(MultiAggMsg::Up {
                            inst,
                            value: st.acc,
                        });
                        *max_queue = (*max_queue).max(q.len());
                    }
                }
            }
            if broadcast && !st.sent_down {
                if let Some(r) = st.result {
                    st.sent_down = true;
                    for &ci in &st.children_idx {
                        let q = &mut queues[ci];
                        q.push_back(MultiAggMsg::Down { inst, value: r });
                        *max_queue = (*max_queue).max(q.len());
                    }
                }
            }
        }
        // Drain one message per neighbor.
        for idx in 0..node.queues.len() {
            if let Some(msg) = node.queues[idx].pop_front() {
                ctx.send_nth(idx, msg);
            }
        }
    }

    // The default halted-derived `wake` signal is exact: a node stays
    // awake exactly while queued messages remain to drain (= !halted);
    // instance progression is otherwise driven by Up/Down arrivals, so
    // on the partwise workloads most nodes are asleep most rounds —
    // the active-frontier cost model this protocol was the motivating
    // case for.
    fn halted(&self, node: &MultiAggNode) -> bool {
        node.queues.iter().all(|q| q.is_empty())
    }

    fn finish(self, _graph: &Graph, nodes: Vec<MultiAggNode>, stats: &RunStats) -> MultiAggOutcome {
        let max_queue = nodes.iter().map(|s| s.max_queue).max().unwrap_or(0);
        let results = nodes
            .into_iter()
            .map(|s| {
                s.insts
                    .into_iter()
                    .map(|(i, st)| (i, st.result))
                    .collect::<HashMap<_, _>>()
            })
            .collect();
        MultiAggOutcome {
            results,
            max_queue,
            stats: stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::session::Session;
    use crate::sim::SimConfig;

    /// All protocol tests go through the first-class `Session` API.
    fn aggregate(
        g: &Graph,
        parts: Vec<Vec<Participation>>,
        op: AggOp,
        broadcast: bool,
    ) -> MultiAggOutcome {
        Session::new(g, SimConfig::default())
            .run(MultiAggregate::new(parts, op, broadcast))
            .unwrap()
    }

    /// Builds participations for a single instance from a BFS tree.
    fn single_tree_participation(
        g: &Graph,
        root: NodeId,
        values: &[u64],
    ) -> Vec<Vec<Participation>> {
        let bfs = Session::new(g, SimConfig::default())
            .run(Bfs::new(root))
            .unwrap();
        (0..g.n())
            .map(|v| {
                if bfs.dist[v].is_none() {
                    return Vec::new();
                }
                vec![Participation {
                    inst: 0,
                    parent: bfs.parent[v],
                    children: bfs.children[v].clone(),
                    value: values[v],
                }]
            })
            .collect()
    }

    #[test]
    fn single_instance_sum_and_broadcast() {
        let g = lcs_graph::generators::grid(4, 4);
        let values: Vec<u64> = (0..16u64).collect();
        let parts = single_tree_participation(&g, 0, &values);
        let out = aggregate(&g, parts, AggOp::Sum, true);
        let expected: u64 = (0..16u64).sum();
        for v in g.nodes() {
            assert_eq!(out.result_at(v, 0), Some(expected), "node {v}");
        }
    }

    #[test]
    fn min_without_broadcast_only_root_knows() {
        let g = lcs_graph::generators::path(6);
        let values = vec![9, 4, 7, 2, 8, 6];
        let parts = single_tree_participation(&g, 0, &values);
        let out = aggregate(&g, parts, AggOp::Min, false);
        assert_eq!(out.result_at(0, 0), Some(2));
        assert_eq!(out.result_at(3, 0), None);
    }

    #[test]
    fn many_overlapping_instances() {
        // Star graph; 6 instances, each a 2-level tree rooted at a
        // distinct leaf through the hub to every other leaf.
        let g = lcs_graph::generators::star(8);
        let leaves: Vec<NodeId> = (1..8).collect();
        let mut parts: Vec<Vec<Participation>> = vec![Vec::new(); 8];
        for (i, &r) in leaves.iter().take(6).enumerate() {
            let inst = i as u32;
            // Root r -> hub 0 -> other leaves.
            parts[r as usize].push(Participation {
                inst,
                parent: None,
                children: vec![0],
                value: 100 + r as u64,
            });
            let others: Vec<NodeId> = leaves.iter().copied().filter(|&w| w != r).collect();
            parts[0].push(Participation {
                inst,
                parent: Some(r),
                children: others.clone(),
                value: 50,
            });
            for &w in &others {
                parts[w as usize].push(Participation {
                    inst,
                    parent: Some(0),
                    children: vec![],
                    value: w as u64,
                });
            }
        }
        let out = aggregate(&g, parts, AggOp::Sum, true);
        for (i, &r) in leaves.iter().take(6).enumerate() {
            let inst = i as u32;
            let others_sum: u64 = leaves
                .iter()
                .copied()
                .filter(|&w| w != r)
                .map(|w| w as u64)
                .sum();
            let expected = 100 + r as u64 + 50 + others_sum;
            assert_eq!(out.result_at(r, inst), Some(expected), "instance {inst}");
            // Broadcast reached the leaves too.
            for &w in leaves.iter().filter(|&&w| w != r) {
                assert_eq!(out.result_at(w, inst), Some(expected));
            }
        }
        assert!(out.max_queue >= 2, "hub must queue with 6 instances");
    }

    #[test]
    fn empty_participation_is_inert() {
        let g = lcs_graph::generators::path(3);
        let parts = vec![Vec::new(), Vec::new(), Vec::new()];
        let out = aggregate(&g, parts, AggOp::Sum, true);
        assert_eq!(out.stats.messages, 0);
        assert!(out.results.iter().all(|m| m.is_empty()));
    }
}
