//! Scheduled parallel BFS: many BFS instances over (possibly
//! overlapping) subgraphs of the same network, multiplexed through
//! per-edge FIFO queues with randomly delayed start rounds.
//!
//! This is the executable form of the paper's use of the random-delay
//! scheduler (Theorem 2.1 / Ghaffari'15): the `N` truncated BFS trees of
//! the shortcut construction all grow concurrently; each edge forwards
//! one queued token per direction per round, so per-edge congestion
//! translates into queueing delay rather than a model violation. Random
//! start offsets (chosen by the caller from shared randomness) spread the
//! load so that, w.h.p., queues stay short.
//!
//! Instance subgraph membership is supplied as a [`Membership`] oracle
//! evaluated at the *sending* endpoint (`may a token of instance i
//! traverse u → v?`) — exactly the local knowledge nodes have after the
//! sampling step (each node knows which of its incident edges it
//! sampled into which `H_i`). A bundle over the whole graph passes the
//! predicate that always answers yes, `Membership::func(|_, _, _| true)`.
//!
//! **Distance semantics.** Tokens are forwarded as fast as queues allow
//! (the Leighton–Maggs–Richa packet view of the schedule) and a node
//! adopts the *first* token per instance. Under contention a token that
//! travelled a longer route can win the race, so recorded distances are
//! sound *upper bounds* on the instance-subgraph BFS distances — exact
//! in the contention-free case — and the spanning/depth guarantees the
//! construction needs are preserved by its `O(k_D log n)` depth budget.
//!
//! **Outcome.** Each node's reach log leaves the run as the node wrote
//! it ([`MultiBfsOutcome`]): nothing is tabled per instance or sorted
//! after the last round. A reach entry names the arc its token arrived
//! on, so a caller reads the tree edge with [`Graph::arc_edge`] and the
//! parent with [`Graph::arc_head`], with no adjacency search. A node
//! acknowledges each token it adopts with a `Child` message, which the
//! engine delivers and counts but which changes no state: the reach
//! logs already name every parent, so [`MultiBfsOutcome::children_of`]
//! reads a node's children from its neighbors' logs. On a network
//! without faults that is exactly the set of acks the node received,
//! unless a queue cap dropped an ack, and then
//! [`MultiBfsOutcome::overflowed`] is set.

use crate::message::Message;
use crate::node::RoundCtx;
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{ArcId, Graph, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// One BFS instance of the bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiBfsInstance {
    /// Root node of this instance.
    pub root: NodeId,
    /// Round at which the root fires (the random delay).
    pub start_round: u64,
    /// Maximum BFS depth (tokens beyond this are not propagated).
    pub depth_limit: u32,
}

/// Membership predicate: may a token of instance `i` cross the arc
/// `u → v`? It is evaluated only at the sending end `u`, when `u`
/// forwards a token, so it may answer `(u, v)` and `(v, u)` differently:
/// the construction's sampled edges are each endpoint's own coin.
pub type MembershipFn = Arc<dyn Fn(NodeId, NodeId, u32) -> bool + Send + Sync>;

/// Edge-membership oracle of a multi-BFS bundle: one arc predicate,
/// evaluated at the sender (see [`MembershipFn`]).
#[derive(Clone)]
pub struct Membership(MembershipFn);

impl Membership {
    /// Wraps a predicate closure (see [`MembershipFn`]: the sender
    /// evaluates it, and it need not be symmetric).
    pub fn func(f: impl Fn(NodeId, NodeId, u32) -> bool + Send + Sync + 'static) -> Self {
        Membership(Arc::new(f))
    }

    /// May a token of instance `inst` traverse the edge `u → v`?
    #[inline]
    pub fn allows(&self, u: NodeId, v: NodeId, inst: u32) -> bool {
        (self.0)(u, v, inst)
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Membership(..)")
    }
}

/// Shared specification of a multi-BFS bundle.
#[derive(Clone)]
pub struct MultiBfsSpec {
    /// The instances; index = instance id.
    pub instances: Vec<MultiBfsInstance>,
    /// Edge membership oracle.
    pub membership: Membership,
    /// Per-neighbor queue capacity; tokens beyond it are dropped and the
    /// node records an overflow (0 = unbounded). Mirrors the paper's
    /// congestion enforcement: an overloaded guess produces incomplete
    /// trees, which the verification step then rejects.
    pub queue_cap: usize,
}

impl std::fmt::Debug for MultiBfsSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiBfsSpec")
            .field("instances", &self.instances.len())
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

/// Messages of the multi-BFS protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiBfsMsg {
    /// BFS token: "you are at distance `dist` in instance `inst`, whose
    /// root is `root`". Carrying the root id mirrors the paper, where
    /// "each edge `(u,v) ∈ H_i` learns the identity of `v_i` at the time
    /// at which the BFS token of `v_i` arrives" — receivers can relate
    /// instances to known node ids (e.g. their own part leader).
    Token {
        /// Instance id.
        inst: u32,
        /// Root node of the instance.
        root: NodeId,
        /// Receiver's distance.
        dist: u32,
    },
    /// Child acknowledgment in `inst`.
    Child {
        /// Instance id.
        inst: u32,
    },
}

impl Message for MultiBfsMsg {
    fn size_words(&self) -> u32 {
        match self {
            MultiBfsMsg::Token { .. } => 3,
            MultiBfsMsg::Child { .. } => 1,
        }
    }

    fn corrupted(self, stream: u64) -> Self {
        // As `BfsMsg`: a token's distance flips (`| 1`: at least one
        // bit) and an acknowledgement becomes a token. The instance id
        // stays, so a receiver never indexes an instance its bundle
        // lacks.
        match self {
            MultiBfsMsg::Token { inst, root, dist } => MultiBfsMsg::Token {
                inst,
                root,
                dist: dist ^ ((stream as u32) | 1),
            },
            MultiBfsMsg::Child { inst } => MultiBfsMsg::Token {
                inst,
                root: (stream >> 32) as u32,
                dist: stream as u32,
            },
        }
    }
}

/// How a node was reached in one instance: its distance and the arc
/// its token arrived on. The instance (and so its root) is the log
/// entry's key, so a reach log entry is 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reached {
    /// BFS distance in the instance subgraph (0 for the root).
    pub dist: u32,
    /// The node's own arc to the neighbor whose token it adopted, or
    /// [`Reached::ROOT`] at the instance's root.
    arc: u32,
}

impl Reached {
    /// The `arc` of a root, which adopted no token.
    const ROOT: u32 = u32::MAX;

    /// The node's arc to its tree parent, the neighbor whose token it
    /// adopted (`None` for the root). Its [`Graph::arc_edge`] is the
    /// tree edge and its [`Graph::arc_head`] the parent.
    pub fn parent_arc(&self) -> Option<ArcId> {
        (self.arc != Self::ROOT).then_some(ArcId(self.arc))
    }

    /// The tree parent in `graph`, the graph the bundle ran on (`None`
    /// for the root).
    pub fn parent(&self, graph: &Graph) -> Option<NodeId> {
        self.parent_arc().map(|a| graph.arc_head(a))
    }
}

/// Per-node state of the multi-BFS protocol.
///
/// Instance ids are dense (`0..instances.len()`), so "reached" is one
/// bit per instance — token arrival tests a bit, not a hash — and what
/// the node learns is appended to logs in arrival order.
///
/// The layout is split by temperature. The fields below are everything
/// the common per-round paths touch — token rejection reads
/// `reached_lo`, acceptance appends to `accepted`, the direct send
/// path reads `sent_lo`/`queued` — and `repr(C)` pins them into the
/// struct's first 64 bytes, so a typical active round costs one cache
/// line of node state. Queue machinery, root lists and diagnostics
/// live behind the `MultiBfsCold` box and are only dereferenced on
/// the slow paths that need them.
#[derive(Debug)]
#[repr(C)]
pub struct MultiBfsNode {
    spec: Arc<MultiBfsSpec>,
    /// Reached bits for instances `0..64` (bit `i` mirrors "instance
    /// `i` reached this node"). Token rejection — the common case
    /// under contention — tests this word, which lives in the node
    /// struct the engine already touched, instead of a per-instance
    /// heap block.
    reached_lo: u64,
    /// Neighbors `0..64` already sent to this round via the direct
    /// path (bit = neighbor index). The first message bound for an
    /// idle neighbor goes straight to the wire — it *is* the FIFO
    /// front the drain would pick — skipping the queue round-trip
    /// entirely; later same-round messages queue behind it. Reset at
    /// the end of every round.
    sent_lo: u64,
    /// Total queued messages across all neighbors.
    queued: u32,
    /// Instances rooted here whose start has not fired yet.
    pending_roots: u32,
    /// Reach log: one `(instance, how)` entry per accepted token, in
    /// acceptance order, each instance at most once (the reached bits
    /// guard every push). Append-only, so an accepted token touches
    /// the hot tail of one contiguous buffer; the reached bits answer
    /// every mid-run query, and `finish` moves the log out as it is
    /// ([`MultiBfsOutcome::reached`]).
    accepted: Vec<(u32, Reached)>,
    /// Rarely-touched state (queue machinery, roots, diagnostics).
    cold: Box<MultiBfsCold>,
}

/// The cold half of [`MultiBfsNode`]: state the hot per-round paths
/// never touch, boxed so it does not dilute the node's hot cache line.
#[derive(Debug, Default)]
struct MultiBfsCold {
    /// Per-neighbor outgoing FIFO queues (indexed in neighbor order).
    /// Allocated on first use: with the direct send path, a node whose
    /// traffic never collides skips the allocation entirely.
    queues: Vec<VecDeque<MultiBfsMsg>>,
    /// Neighbor indices with a non-empty queue (unordered). Lets the
    /// drain loop touch only neighbors with traffic instead of
    /// scanning every queue each round.
    busy: Vec<u32>,
    /// Instance ids rooted at this node.
    roots_here: Vec<u32>,
    /// Reached bits for instances `≥ 64`, one word per 64 instances
    /// (empty for bundles of at most 64 instances).
    reached_hi: Vec<u64>,
    /// Longest queue ever observed (scheduling-quality diagnostic).
    max_queue: usize,
    /// Whether any token was dropped due to `queue_cap`.
    overflowed: bool,
}

impl MultiBfsNode {
    /// Creates the state for one node; `roots_here` lists the instance
    /// ids whose root is this node.
    pub fn new(spec: Arc<MultiBfsSpec>, roots_here: Vec<u32>) -> Self {
        let k = spec.instances.len();
        let pending_roots = roots_here.len() as u32;
        MultiBfsNode {
            spec,
            reached_lo: 0,
            sent_lo: 0,
            queued: 0,
            pending_roots,
            accepted: Vec::new(),
            cold: Box::new(MultiBfsCold {
                reached_hi: vec![0; k.saturating_sub(64).div_ceil(64)],
                roots_here,
                ..MultiBfsCold::default()
            }),
        }
    }

    /// Longest per-neighbor queue ever observed at this node.
    pub fn max_queue(&self) -> usize {
        self.cold.max_queue
    }

    /// Whether this node dropped tokens due to `queue_cap`.
    pub fn overflowed(&self) -> bool {
        self.cold.overflowed
    }

    #[inline]
    fn is_reached(&self, inst: u32) -> bool {
        if inst < 64 {
            self.reached_lo >> inst & 1 != 0
        } else {
            self.cold.reached_hi[(inst as usize - 64) >> 6] >> (inst & 63) & 1 != 0
        }
    }

    #[inline]
    fn mark_reached(&mut self, inst: u32) {
        if inst < 64 {
            self.reached_lo |= 1 << inst;
        } else {
            self.cold.reached_hi[(inst as usize - 64) >> 6] |= 1 << (inst & 63);
        }
    }

    /// Whether a message to neighbor `idx` may go straight to the wire
    /// this round, and if so marks `idx` as sent: nothing was sent to
    /// it yet this round and its FIFO is empty, so the message *is* the
    /// front the drain would pick and the wire effect is identical.
    /// Only the first 64 neighbors are eligible — higher indices
    /// always queue and drain normally. `queued == 0` proves every
    /// queue is empty, so the common direct path never dereferences
    /// the cold box at all.
    ///
    /// A caller builds its message in each branch, in the
    /// [`RoundCtx::send_nth`] call or the [`Self::enqueue`] call, so a
    /// direct send stores the fields straight into the mailbox slot.
    #[inline]
    fn claim_direct(&mut self, idx: usize) -> bool {
        let direct = idx < 64
            && self.sent_lo >> idx & 1 == 0
            && (self.queued == 0 || self.cold.queues[idx].is_empty());
        if direct {
            self.sent_lo |= 1 << idx;
        }
        direct
    }

    /// Queues `msg` for neighbor `idx`, the slow path beside
    /// [`Self::claim_direct`]; `deg` is the node's degree, which sizes
    /// the queue table on the first collision.
    fn enqueue(&mut self, deg: usize, idx: usize, msg: MultiBfsMsg) {
        let cap = self.spec.queue_cap;
        let cold = &mut *self.cold;
        if cold.queues.is_empty() {
            cold.queues.resize_with(deg, VecDeque::new);
        }
        let q = &mut cold.queues[idx];
        if cap > 0 && q.len() >= cap {
            cold.overflowed = true;
            return;
        }
        if q.is_empty() {
            cold.busy.push(idx as u32);
        }
        q.push_back(msg);
        self.queued += 1;
        cold.max_queue = cold.max_queue.max(q.len());
    }

    /// Offers instance `inst`'s token, one hop past `dist`, to every
    /// neighbor but the one at index `skip` (the sender of the adopted
    /// token) whose arc the membership admits.
    fn fan_out(
        &mut self,
        ctx: &mut RoundCtx<'_, MultiBfsMsg>,
        inst: u32,
        root: NodeId,
        dist: u32,
        skip: Option<usize>,
    ) {
        if dist >= self.spec.instances[inst as usize].depth_limit {
            return;
        }
        let me = ctx.node();
        let neighbors = ctx.neighbors();
        let dist = dist + 1;
        for (idx, &w) in neighbors.iter().enumerate() {
            if Some(idx) == skip || !self.spec.membership.allows(me, w, inst) {
                continue;
            }
            if self.claim_direct(idx) {
                ctx.send_nth(idx, MultiBfsMsg::Token { inst, root, dist });
            } else {
                self.enqueue(
                    neighbors.len(),
                    idx,
                    MultiBfsMsg::Token { inst, root, dist },
                );
            }
        }
    }
}

/// Result of the [`MultiBfs`] protocol.
///
/// Each node's reach log is moved out of its state as the protocol
/// recorded it: the outcome builds no instance-indexed table and sorts
/// nothing. [`reach`](Self::reach) and [`children_of`](Self::children_of)
/// answer per-instance questions; the children are read from the reach
/// logs, since the `Child` acks the nodes exchanged record nothing.
#[derive(Debug)]
pub struct MultiBfsOutcome {
    /// Per-node reach log: `reached[v]` holds `(inst, how)` for every
    /// instance that reached `v`, in the order `v` accepted their
    /// tokens; each instance appears at most once. `how` names `v`'s
    /// arc to its parent ([`Reached::parent_arc`]), not the parent's
    /// id, and no root: instance `inst`'s root is the spec's.
    pub reached: Vec<Vec<(u32, Reached)>>,
    /// Longest per-neighbor queue observed anywhere.
    pub max_queue: usize,
    /// Whether any node dropped tokens (congestion-cap enforcement
    /// fired).
    pub overflowed: bool,
    /// Engine statistics.
    pub stats: crate::stats::RunStats,
}

impl MultiBfsOutcome {
    /// How instance `inst` reached node `v`, if it did.
    pub fn reach(&self, v: NodeId, inst: u32) -> Option<Reached> {
        self.reached[v as usize]
            .iter()
            .find(|&&(i, _)| i == inst)
            .map(|&(_, r)| r)
    }

    /// `v`'s children in instance `inst`: its neighbors in `graph`, the
    /// graph the bundle ran on, whose reach entry for `inst` names `v`
    /// as parent, in neighbor order (ascending). Each of them sent `v`
    /// a `Child` ack, so on a network without faults this is exactly
    /// the set of acks `v` received, unless a queue cap dropped an ack;
    /// [`Self::overflowed`] is then set.
    pub fn children_of(&self, graph: &Graph, v: NodeId, inst: u32) -> Vec<NodeId> {
        graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| self.reach(w, inst).and_then(|r| r.parent(graph)) == Some(v))
            .collect()
    }
}

/// A bundle of scheduled BFS instances as a composable [`Protocol`]
/// (the executable form of the paper's random-delay scheduler): run it
/// through a [`Session`](crate::session::Session).
#[derive(Debug, Clone)]
pub struct MultiBfs {
    spec: Arc<MultiBfsSpec>,
}

impl MultiBfs {
    /// A multi-BFS bundle over `spec`'s instances.
    pub fn new(spec: Arc<MultiBfsSpec>) -> Self {
        MultiBfs { spec }
    }
}

impl Protocol for MultiBfs {
    type Msg = MultiBfsMsg;
    type State = MultiBfsNode;
    type Output = MultiBfsOutcome;

    fn label(&self) -> &str {
        "multi_bfs"
    }

    fn init(&mut self, graph: &Graph) -> Vec<MultiBfsNode> {
        let mut roots_of: Vec<Vec<u32>> = vec![Vec::new(); graph.n()];
        for (i, inst) in self.spec.instances.iter().enumerate() {
            roots_of[inst.root as usize].push(i as u32);
        }
        roots_of
            .into_iter()
            .map(|r| MultiBfsNode::new(Arc::clone(&self.spec), r))
            .collect()
    }

    fn round(&self, st: &mut MultiBfsNode, ctx: &mut RoundCtx<'_, MultiBfsMsg>) {
        let me = ctx.node();
        // Root activations scheduled for this round (indexed loop: no
        // per-round allocation; skipped entirely once every local root
        // has fired).
        if st.pending_roots > 0 {
            for r in 0..st.cold.roots_here.len() {
                let inst = st.cold.roots_here[r];
                if st.spec.instances[inst as usize].start_round != ctx.round()
                    || st.is_reached(inst)
                {
                    continue;
                }
                st.pending_roots -= 1;
                st.mark_reached(inst);
                st.accepted.push((
                    inst,
                    Reached {
                        dist: 0,
                        arc: Reached::ROOT,
                    },
                ));
                st.fan_out(ctx, inst, me, 0, None);
            }
        }
        // Process arrivals (no inbox copy — the slice outlives the ctx
        // borrow, so sends can interleave with iteration). A `Child` ack
        // changes nothing: the children are read from the reach logs.
        let inbox = ctx.inbox();
        for &(from, ref msg) in inbox {
            let MultiBfsMsg::Token { inst, root, dist } = *msg else {
                continue;
            };
            // Already-reached is by far the common rejection under
            // contention: test the in-struct bit word before touching
            // the shared spec or the reach records.
            if st.is_reached(inst) || dist > st.spec.instances[inst as usize].depth_limit {
                continue;
            }
            st.mark_reached(inst);
            let from_idx = ctx.neighbor_index(from).expect("sender is a neighbor");
            st.accepted.push((
                inst,
                Reached {
                    dist,
                    arc: ctx.arc(from_idx).0,
                },
            ));
            if st.claim_direct(from_idx) {
                ctx.send_nth(from_idx, MultiBfsMsg::Child { inst });
            } else {
                st.enqueue(ctx.degree(), from_idx, MultiBfsMsg::Child { inst });
            }
            st.fan_out(ctx, inst, root, dist, Some(from_idx));
        }
        // Drain the queued leftovers: one message per neighbor per
        // round, skipping neighbors the direct path already served.
        // Only busy neighbors are visited; the busy list is unordered,
        // but each send targets a distinct arc slot and the receiver
        // gathers in its own fixed arc order, so the iteration order
        // cannot affect outcomes. `queued == 0` skips the cold box
        // entirely — the common case with the direct path in play.
        if st.queued > 0 {
            let cold = &mut *st.cold;
            let mut i = 0;
            while i < cold.busy.len() {
                let idx = cold.busy[i] as usize;
                if idx < 64 && st.sent_lo >> idx & 1 != 0 {
                    // Sent to this neighbor directly this round; its
                    // queue waits for the next one.
                    i += 1;
                    continue;
                }
                let msg = cold.queues[idx]
                    .pop_front()
                    .expect("busy list tracks non-empty queues");
                st.queued -= 1;
                ctx.send_nth(idx, msg);
                if cold.queues[idx].is_empty() {
                    cold.busy.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        st.sent_lo = 0;
    }

    // The default halted-derived `wake` signal is exact: both kinds of
    // time-driven work that must keep a node awake without mail — a
    // root instance whose random start delay has not fired yet, and
    // queued tokens still draining at one per neighbor per round — are
    // captured by `halted`; everything else (token arrival, child
    // acks) is mail-driven and sleeps.
    fn halted(&self, st: &MultiBfsNode) -> bool {
        // A root with a pending delayed start must keep the run alive
        // even when no messages are in flight yet. Both counters are
        // maintained incrementally, so this is O(1) — it runs for every
        // node after every active round.
        st.pending_roots == 0 && st.queued == 0
    }

    fn finish(self, _graph: &Graph, nodes: Vec<MultiBfsNode>, stats: &RunStats) -> MultiBfsOutcome {
        let max_queue = nodes.iter().map(|s| s.max_queue()).max().unwrap_or(0);
        let overflowed = nodes.iter().any(|s| s.overflowed());
        let reached = nodes.into_iter().map(|s| s.accepted).collect();
        MultiBfsOutcome {
            reached,
            max_queue,
            overflowed,
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

    fn full_membership() -> Membership {
        Membership::func(|_, _, _| true)
    }

    /// How many nodes instance `inst` reached.
    fn spanned(out: &MultiBfsOutcome, inst: u32) -> usize {
        out.reached
            .iter()
            .flatten()
            .filter(|&&(i, _)| i == inst)
            .count()
    }

    /// All protocol tests go through the first-class `Session` API.
    fn run_bundle(g: &Graph, spec: Arc<MultiBfsSpec>) -> MultiBfsOutcome {
        Session::new(g, SimConfig::default())
            .run(MultiBfs::new(spec))
            .unwrap()
    }

    /// One instance over the whole graph builds [`Bfs`]'s tree: both
    /// adopt the first token in inbox order, the smallest sender among
    /// the first arrivals. The parents and children match `Bfs`'s,
    /// which it records from its acks, and so do the messages and
    /// rounds.
    #[test]
    fn single_instance_matches_plain_bfs() {
        use crate::bfs::Bfs;
        use rand::SeedableRng;
        let mut cases = vec![(lcs_graph::generators::grid(5, 5), vec![0, 12, 24])];
        for seed in 0..5 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = lcs_graph::generators::gnp_connected(48, 0.12, &mut rng);
            cases.push((g, vec![0, 17, 47]));
        }
        for (g, roots) in &cases {
            for &root in roots {
                let spec = Arc::new(MultiBfsSpec {
                    instances: vec![MultiBfsInstance {
                        root,
                        start_round: 0,
                        depth_limit: 100,
                    }],
                    membership: full_membership(),
                    queue_cap: 0,
                });
                let out = run_bundle(g, spec);
                let plain = Session::new(g, SimConfig::default())
                    .run(Bfs::new(root))
                    .unwrap();
                let exact = bfs_distances(g, root);
                for v in g.nodes() {
                    let r = out.reach(v, 0).expect("the graph is connected");
                    assert_eq!(r.dist, exact[v as usize], "root {root}, node {v}");
                    assert_eq!(
                        r.parent(g),
                        plain.parent[v as usize],
                        "root {root}, node {v}"
                    );
                    assert_eq!(
                        out.children_of(g, v, 0),
                        plain.children[v as usize],
                        "root {root}, node {v}"
                    );
                }
                assert_eq!(out.stats.messages, plain.stats.messages, "root {root}");
                assert_eq!(out.stats.rounds, plain.stats.rounds, "root {root}");
                assert!(!out.overflowed);
            }
        }
    }

    #[test]
    fn depth_limit_truncates() {
        let g = lcs_graph::generators::path(12);
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![MultiBfsInstance {
                root: 0,
                start_round: 0,
                depth_limit: 4,
            }],
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        assert_eq!(out.reach(4, 0).map(|r| r.dist), Some(4));
        assert_eq!(spanned(&out, 0), 5);
        assert!(out.reach(5, 0).is_none());
    }

    #[test]
    fn disjoint_instances_do_not_interact() {
        // Two paths sharing no edges, as instances over node-partitioned
        // membership.
        let g = lcs_graph::generators::path(10);
        let membership = Membership::func(|u, v, i| {
            if i == 0 {
                u < 5 && v < 5
            } else {
                u >= 5 && v >= 5
            }
        });
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![
                MultiBfsInstance {
                    root: 0,
                    start_round: 0,
                    depth_limit: 100,
                },
                MultiBfsInstance {
                    root: 9,
                    start_round: 0,
                    depth_limit: 100,
                },
            ],
            membership,
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        assert_eq!(spanned(&out, 0), 5);
        assert_eq!(spanned(&out, 1), 5);
        assert_eq!(out.reach(4, 0).unwrap().dist, 4);
        assert_eq!(out.reach(5, 1).unwrap().dist, 4);
        assert!(out.reach(4, 1).is_none());
    }

    #[test]
    fn many_overlapping_instances_queue_but_complete() {
        // A star: every instance floods through the hub; queues must
        // serialize the tokens, one per round.
        let g = lcs_graph::generators::star(20);
        let instances: Vec<MultiBfsInstance> = (1..=10)
            .map(|i| MultiBfsInstance {
                root: i as NodeId,
                start_round: 0, // all at once: maximal contention
                depth_limit: 4,
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        for i in 0..10u32 {
            assert_eq!(spanned(&out, i), 20, "instance {i} spans");
        }
        assert!(out.max_queue >= 9, "hub must have queued");
        // Per-edge congestion: each of 10 instances crosses each edge at
        // most twice (token + child ack + fanout token).
        assert!(out.stats.max_edge_messages() <= 3 * 10);
    }

    #[test]
    fn random_delays_reduce_peak_queue() {
        let g = lcs_graph::generators::star(30);
        let mk = |delays: bool| {
            let instances: Vec<MultiBfsInstance> = (1..=15)
                .map(|i| MultiBfsInstance {
                    root: i as NodeId,
                    start_round: if delays { (i as u64 * 7) % 15 } else { 0 },
                    depth_limit: 3,
                })
                .collect();
            Arc::new(MultiBfsSpec {
                instances,
                membership: full_membership(),
                queue_cap: 0,
            })
        };
        let bunched = run_bundle(&g, mk(false));
        let spread = run_bundle(&g, mk(true));
        assert!(
            spread.max_queue < bunched.max_queue,
            "delays {} should beat bunched {}",
            spread.max_queue,
            bunched.max_queue
        );
    }

    #[test]
    fn queue_cap_drops_and_flags() {
        let g = lcs_graph::generators::star(12);
        let instances: Vec<MultiBfsInstance> = (1..=8)
            .map(|i| MultiBfsInstance {
                root: i as NodeId,
                start_round: 0,
                depth_limit: 4,
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: full_membership(),
            queue_cap: 2,
        });
        let out = run_bundle(&g, spec);
        assert!(out.overflowed);
        // Some instance failed to span.
        let spanned = (0..8u32).filter(|&i| spanned(&out, i) == 12).count();
        assert!(spanned < 8);
        // Dropped tokens and acks leave the children exactly the
        // neighbors whose reach entry names `v`.
        for v in g.nodes() {
            for inst in 0..8 {
                let named: Vec<NodeId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| out.reach(w, inst).is_some_and(|r| r.parent(&g) == Some(v)))
                    .collect();
                assert_eq!(out.children_of(&g, v, inst), named, "node {v}, inst {inst}");
            }
        }
    }

    #[test]
    fn children_acks_match_parents() {
        let g = lcs_graph::generators::grid(4, 4);
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![MultiBfsInstance {
                root: 5,
                start_round: 2,
                depth_limit: 50,
            }],
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        for v in g.nodes() {
            let r = out.reach(v, 0).expect("the whole grid is reached");
            assert_eq!(r.parent_arc().is_none(), v == 5, "only the root has none");
            if let Some(a) = r.parent_arc() {
                // The arc is `v`'s own, and names the tree edge.
                assert!(g.arc_range(v).contains(&a.index()));
                let p = r.parent(&g).unwrap();
                assert_eq!(g.edge_between(v, p), Some(g.arc_edge(a)));
                assert_eq!(out.reach(p, 0).unwrap().dist + 1, r.dist);
                assert!(out.children_of(&g, p, 0).contains(&v));
            }
        }
    }

    /// The logs hold each instance once per node, in acceptance order,
    /// and `children_of` lists, ascending, the nodes whose entry names
    /// `v` as parent: together the lists hold every non-root entry
    /// once.
    #[test]
    fn logs_hold_each_instance_once_and_children_sort() {
        let g = lcs_graph::generators::grid(6, 6);
        let instances = (0..6)
            .map(|i| MultiBfsInstance {
                root: i * 7,
                start_round: u64::from(i % 3),
                depth_limit: 6,
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        let mut unsorted = false;
        let mut listed = 0;
        for v in g.nodes() {
            let mut seen: Vec<u32> = out.reached[v as usize].iter().map(|&(i, _)| i).collect();
            unsorted |= !seen.is_sorted();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), out.reached[v as usize].len(), "node {v}");
            for inst in 0..6 {
                let c = out.children_of(&g, v, inst);
                assert!(c.is_sorted());
                listed += c.len();
                for &w in &c {
                    assert_eq!(out.reach(w, inst).unwrap().parent(&g), Some(v));
                }
            }
        }
        let non_roots = out.reached.iter().flatten();
        assert_eq!(
            listed,
            non_roots.filter(|(_, r)| r.parent_arc().is_some()).count()
        );
        assert!(unsorted, "some node accepts a later instance first");
    }
}
