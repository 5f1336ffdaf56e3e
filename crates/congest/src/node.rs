//! What one node sees of a round: the [`RoundCtx`] handed to
//! [`Protocol::round`](crate::Protocol::round), and the [`Wake`]
//! quiescence signal a node reports through
//! [`Protocol::wake`](crate::Protocol::wake).

use crate::capture::Captures;
use crate::error::SimError;
use crate::message::{Message, BANDWIDTH_WORDS};
use crate::sim::WakeCell;
use lcs_graph::{ArcId, Graph, NodeId};
use rand_chacha::ChaCha8Rng;

/// A node's scheduling request for the next round, reported by
/// [`Protocol::wake`](crate::Protocol::wake) after each executed round.
///
/// The engine is **event-driven**: a node's `round` hook runs only when
/// the node is *active* — the phase just started (round 0), mail
/// arrived this round, or the node requested [`Wake::Stay`] after its
/// previous round. A [`Wake::Sleep`] node is quiescent: it is not
/// invoked again until a message arrives (which re-activates it), so a
/// round costs `O(active nodes + delivered messages)` rather than
/// `O(n)`, and the run ends when no node stays awake and no messages
/// are in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Run this node next round even if no mail arrives (the node has
    /// pending time-driven work: queued sends, a scheduled activation,
    /// a countdown).
    Stay,
    /// Do not invoke this node again until a message arrives. Sleeping
    /// is a promise: invoking the hook with an empty inbox would have
    /// been a no-op (no state change, no sends, no RNG draws).
    Sleep,
}

/// The engine-side effects of a *wire* send: the receiver's mail flag
/// plus its activation for the next round's active set — either a
/// direct push into the sending shard's own next-active list or a
/// cross-shard wake enqueued for the destination shard to drain.
/// Capture contexts (how [`Reliable`](crate::Reliable) runs its inner
/// protocol) omit this: their sends land in per-neighbor slots and only
/// touch the wire — and thus the schedule — when the host really sends
/// them later.
pub(crate) struct WireFx<'a> {
    /// Per-node "has mail next round" flags (shared across shards; a
    /// relaxed store is enough, the round barrier orders it).
    pub(crate) mail: &'a [std::sync::atomic::AtomicBool],
    /// The sending shard's next-round active list.
    pub(crate) next_active: &'a mut Vec<u32>,
    /// Membership bitmap for `next_active`, indexed by
    /// `node - node_lo` (dedups insertions).
    pub(crate) in_set: &'a mut [bool],
    /// The sending shard's own node span.
    pub(crate) node_lo: u32,
    /// One past the sending shard's own node span.
    pub(crate) node_hi: u32,
    /// Shard start boundaries (one per shard), mapping a remote
    /// destination node to its shard.
    pub(crate) bounds: &'a [u32],
    /// This shard's row of cross-shard wake queues for the current
    /// round's parity, indexed by destination shard.
    pub(crate) wake_row: &'a [WakeCell],
}

impl WireFx<'_> {
    /// Records that `to` has mail next round and must therefore run:
    /// sets its mail flag and activates it (locally for an own-shard
    /// destination, via the parity wake queue for a remote one).
    #[inline]
    pub(crate) fn notify(&mut self, to: NodeId) {
        let flag = &self.mail[to as usize];
        if flag.load(std::sync::atomic::Ordering::Relaxed) {
            // Somebody already notified `to` this round, so a wake for
            // it is already enqueued (flags are consumed by the woken
            // node, so a set flag can only mean an earlier send of this
            // same round). Saturated senders hit this early exit on
            // every repeat target. Two shards racing on a first notify
            // may both enqueue; the drain dedups.
            return;
        }
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
        if to >= self.node_lo && to < self.node_hi {
            crate::sim::activate(self.next_active, self.in_set, self.node_lo, to);
        } else {
            let dest = self.bounds.partition_point(|&lo| lo <= to) - 1;
            // SAFETY: queue `(parity, sender, dest)` is written only by
            // the sending shard during send phases of this parity, and
            // read (drained) only by the destination shard during send
            // phases of the opposite parity; the pool's barriers order
            // the phases (see the engine module docs).
            unsafe { (*self.wake_row[dest].0.get()).push(to) };
        }
    }
}

/// The send-side of a [`RoundCtx`]: this node's outgoing arc-indexed
/// mailbox slots plus the statistics and violation sinks the engine
/// threads through. A send is a direct slot write; the parallel
/// occupancy byte *is* the one-message-per-neighbor-per-round
/// discipline. Payloads are stored flat (`MaybeUninit<M>`, no `Option`
/// discriminant), so a mailbox buffer is exactly `num_arcs *
/// size_of::<M>()` bytes and a send never rewrites a discriminant.
pub(crate) struct TxState<'a, M> {
    /// This node's payload slots in the next-round mailbox array, one
    /// per neighbor, in neighbor (arc) order. A slot holds a live `M`
    /// iff the matching `occ` byte is set.
    pub(crate) slots: &'a mut [std::mem::MaybeUninit<M>],
    /// Occupancy bytes parallel to `slots`.
    pub(crate) occ: &'a mut [bool],
    /// Sorted neighbor list, parallel to `slots`.
    pub(crate) heads: &'a [NodeId],
    /// Global arc index of `slots[0]`.
    pub(crate) arc_base: u32,
    /// Wire effects of a send (mail flag + receiver activation); `None`
    /// for capture contexts, whose sends are queued, not wired.
    pub(crate) wire: Option<WireFx<'a>>,
    /// Global indices of slots written this round (the in-flight list).
    pub(crate) dirty: &'a mut Vec<u32>,
    /// Shard-accumulated message count.
    pub(crate) messages: &'a mut u64,
    /// Shard-accumulated word count.
    pub(crate) words: &'a mut u64,
    /// This node's per-arc message counts (parallel to `slots`; folded
    /// into per-edge stats at the end of the run).
    pub(crate) per_arc: &'a mut [u32],
    /// First model violation observed this round, if any.
    pub(crate) violation: &'a mut Option<SimError>,
}

/// Per-round view and send interface for one node.
pub struct RoundCtx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    pub(crate) graph: &'a Graph,
    pub(crate) inbox: &'a [(NodeId, M)],
    pub(crate) rng: &'a mut ChaCha8Rng,
    /// The running shard's capture buffers, lent to the hosts that run
    /// inner protocols ([`Reliable`](crate::Reliable)) for the length
    /// of one hook.
    pub(crate) captures: &'a mut Captures,
    pub(crate) tx: TxState<'a, M>,
}

impl<'a, M> std::fmt::Debug for RoundCtx<'a, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundCtx")
            .field("node", &self.node)
            .field("round", &self.round)
            .field("inbox_len", &self.inbox.len())
            .finish()
    }
}

impl<'a, M: Message> RoundCtx<'a, M> {
    /// This node's id.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of nodes in the network. Knowing `n` is a standard
    /// CONGEST assumption (and the paper's algorithm re-derives it with
    /// a BFS anyway).
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.tx.heads.len()
    }

    /// Sorted neighbor list of this node.
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.tx.heads
    }

    /// Messages delivered this round, as `(sender, message)` pairs,
    /// sorted by sender id.
    #[inline]
    pub fn inbox(&self) -> &'a [(NodeId, M)] {
        self.inbox
    }

    /// Index of `w` in this node's sorted neighbor list, if adjacent.
    /// Small lists are scanned (branch-predictable), larger ones binary
    /// searched.
    #[inline]
    pub fn neighbor_index(&self, w: NodeId) -> Option<usize> {
        let heads = self.tx.heads;
        if heads.len() <= 8 {
            heads.iter().position(|&x| x == w)
        } else {
            heads.binary_search(&w).ok()
        }
    }

    /// This node's arc to its `i`-th neighbor.
    #[inline]
    pub(crate) fn arc(&self, i: usize) -> ArcId {
        debug_assert!(i < self.degree());
        ArcId((self.graph.arc_range(self.node).start + i) as u32)
    }

    /// Resolves a tree position (parent and children node ids) into
    /// neighbor indices for [`RoundCtx::send_nth`]. Tree protocols call
    /// this once on their first round and send by index thereafter.
    ///
    /// A parent or child that is not actually a neighbor (a malformed
    /// tree) records an
    /// [`InvalidDestination`](crate::SimError::InvalidDestination)
    /// violation — the run aborts with that error and every later send
    /// this round is ignored, exactly as if the node had sent to the
    /// non-neighbor directly. The returned placeholder index is never
    /// dereferenced in that case.
    pub fn tree_indices(
        &mut self,
        parent: Option<NodeId>,
        children: &[NodeId],
    ) -> (Option<usize>, Vec<usize>) {
        let mut resolve = |w: NodeId| {
            self.neighbor_index(w).unwrap_or_else(|| {
                if self.tx.violation.is_none() {
                    *self.tx.violation = Some(SimError::InvalidDestination {
                        from: self.node,
                        to: w,
                        round: self.round,
                    });
                }
                0
            })
        };
        (
            parent.map(&mut resolve),
            children.iter().map(|&c| resolve(c)).collect(),
        )
    }

    /// Queues a message to a neighbor. Model compliance (adjacency, one
    /// message per edge direction per round, bandwidth) is checked at
    /// send time; the first violation aborts the run with a
    /// [`SimError`] when the round ends.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        match self.neighbor_index(to) {
            Some(i) => self.send_nth(i, msg),
            None => {
                if self.tx.violation.is_none() {
                    *self.tx.violation = Some(SimError::InvalidDestination {
                        from: self.node,
                        to,
                        round: self.round,
                    });
                }
            }
        }
    }

    /// Zero-lookup fast path of [`RoundCtx::send`]: sends to the
    /// `i`-th neighbor (the neighbor at `self.neighbors()[i]`). Hot
    /// senders that already iterate neighbors by index should use this —
    /// delivery is a single mailbox-slot write with no adjacency lookup.
    /// It is always inlined, so a message built in the call is stored
    /// field by field into the slot, not built on the caller's stack
    /// and loaded back whole.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.degree()` (a programmer error, unlike the
    /// model violations, which are reported as [`SimError`]s).
    ///
    /// [`SimError`]: crate::SimError
    #[inline(always)]
    pub fn send_nth(&mut self, i: usize, msg: M) {
        if self.tx.violation.is_some() {
            return; // the run is already doomed; preserve the first error
        }
        let to = self.tx.heads[i];
        let words = msg.size_words();
        if words > BANDWIDTH_WORDS {
            *self.tx.violation = Some(SimError::MessageTooLarge {
                words,
                cap: BANDWIDTH_WORDS,
                round: self.round,
            });
            return;
        }
        // `slots`, `occ`, and `per_arc` are all views of this node's arc
        // range, the same length as `heads` — the successful `heads[i]`
        // index above already proved `i` in bounds for all of them.
        debug_assert_eq!(self.tx.slots.len(), self.tx.heads.len());
        debug_assert_eq!(self.tx.occ.len(), self.tx.heads.len());
        debug_assert_eq!(self.tx.per_arc.len(), self.tx.heads.len());
        // SAFETY: `i < heads.len()` (checked above) and the parallel
        // views share that length.
        unsafe {
            let occ = self.tx.occ.get_unchecked_mut(i);
            if *occ {
                *self.tx.violation = Some(SimError::ChannelOverflow {
                    from: self.node,
                    to,
                    round: self.round,
                });
                return;
            }
            *occ = true;
            self.tx.slots.get_unchecked_mut(i).write(msg);
        }
        if let Some(wire) = &mut self.tx.wire {
            wire.notify(to);
        }
        self.tx.dirty.push(self.tx.arc_base + i as u32);
        *self.tx.messages += 1;
        *self.tx.words += u64::from(words);
        // SAFETY: same length argument as above.
        unsafe {
            let c = self.tx.per_arc.get_unchecked_mut(i);
            *c = c.saturating_add(1);
        };
    }

    /// This node's private RNG (deterministically seeded from the run
    /// seed and the node id).
    #[inline]
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, RunStats, Session, SimConfig, SimError};

    /// Probes `neighbor_index` / `tree_indices` from inside a real
    /// round and records what it saw (these helpers were previously
    /// only exercised indirectly through the tree protocols).
    #[derive(Debug, Default)]
    struct Probe {
        /// `(query, answer)` pairs from `neighbor_index`.
        lookups: Vec<(NodeId, Option<usize>)>,
        /// Result of a `tree_indices` call, when configured.
        tree: Option<(Option<usize>, Vec<usize>)>,
        /// Inputs for the `tree_indices` call.
        parent: Option<NodeId>,
        children: Vec<NodeId>,
        probe_tree: bool,
    }

    /// Runs one configured [`Probe`] per node; outputs the final probes.
    struct Probes(Vec<Probe>);

    impl Protocol for Probes {
        type Msg = u32;
        type State = Probe;
        type Output = Vec<Probe>;
        fn init(&mut self, _: &Graph) -> Vec<Probe> {
            std::mem::take(&mut self.0)
        }
        fn round(&self, st: &mut Probe, ctx: &mut RoundCtx<'_, u32>) {
            if ctx.round() > 0 {
                return;
            }
            // Query every node in the graph plus one out-of-range id.
            for w in 0..ctx.n() as NodeId {
                st.lookups.push((w, ctx.neighbor_index(w)));
            }
            let ghost = ctx.n() as NodeId + 7;
            st.lookups.push((ghost, ctx.neighbor_index(ghost)));
            if st.probe_tree {
                st.tree = Some(ctx.tree_indices(st.parent, &st.children));
            }
        }
        fn halted(&self, _: &Probe) -> bool {
            true
        }
        fn finish(self, _: &Graph, states: Vec<Probe>, _: &RunStats) -> Vec<Probe> {
            states
        }
    }

    fn run_probes(g: &Graph, probes: Vec<Probe>) -> Result<Vec<Probe>, SimError> {
        Session::new(g, SimConfig::default()).run(Probes(probes))
    }

    fn probe_graph(g: &Graph, configure: impl Fn(usize, &mut Probe)) -> Vec<Probe> {
        let nodes = (0..g.n())
            .map(|v| {
                let mut p = Probe::default();
                configure(v, &mut p);
                p
            })
            .collect();
        run_probes(g, nodes).unwrap()
    }

    #[test]
    fn neighbor_index_on_leaf_root_and_nonexistent_neighbor() {
        // Path 0-1-2: node 0 and 2 are leaves, 1 is internal.
        let g = lcs_graph::generators::path(3);
        let out = probe_graph(&g, |_, _| {});
        // Leaf 0: only neighbor is 1, at index 0; itself and 2 are not
        // neighbors; out-of-range ids resolve to None, never panic.
        assert_eq!(
            out[0].lookups,
            vec![(0, None), (1, Some(0)), (2, None), (10, None)]
        );
        // Internal node 1: sorted adjacency [0, 2].
        assert_eq!(
            out[1].lookups,
            vec![(0, Some(0)), (1, None), (2, Some(1)), (10, None)]
        );
        // Leaf 2 mirrors leaf 0.
        assert_eq!(
            out[2].lookups,
            vec![(0, None), (1, Some(0)), (2, None), (10, None)]
        );
    }

    #[test]
    fn neighbor_index_is_duplicate_free_and_consistent_on_high_degree() {
        // Star hub has degree 16 > 8, exercising the binary-search arm;
        // the leaves exercise the linear-scan arm.
        let g = lcs_graph::generators::star(17);
        let out = probe_graph(&g, |_, _| {});
        let hub = &out[0];
        let hits: Vec<usize> = hub.lookups.iter().filter_map(|&(_, i)| i).collect();
        // Every neighbor resolves, indices are exactly 0..degree with
        // no duplicates (sorted adjacency), self/ghost miss.
        assert_eq!(hits, (0..16).collect::<Vec<_>>());
        assert_eq!(hub.lookups[0], (0, None), "self is not a neighbor");
        assert_eq!(hub.lookups.last().unwrap().1, None, "ghost id misses");
        for leaf in &out[1..] {
            let hits: Vec<(NodeId, usize)> = leaf
                .lookups
                .iter()
                .filter_map(|&(w, i)| i.map(|i| (w, i)))
                .collect();
            assert_eq!(hits, vec![(0, 0)], "leaves see only the hub");
        }
    }

    #[test]
    fn tree_indices_on_root_internal_and_leaf_positions() {
        // Path 0-1-2-3 as a tree rooted at 0.
        let g = lcs_graph::generators::path(4);
        let out = probe_graph(&g, |v, p| {
            p.probe_tree = true;
            p.parent = (v > 0).then(|| v as NodeId - 1);
            p.children = if v < 3 { vec![v as NodeId + 1] } else { vec![] };
        });
        // Root: no parent, child 1 at neighbor index 0.
        assert_eq!(out[0].tree, Some((None, vec![0])));
        // Internal: parent 0 at index 0, child 2 at index 1.
        assert_eq!(out[1].tree, Some((Some(0), vec![1])));
        // Leaf: parent at index 0, no children.
        assert_eq!(out[3].tree, Some((Some(0), vec![])));
    }

    #[test]
    fn tree_indices_with_no_position_is_empty() {
        let g = lcs_graph::generators::path(2);
        let out = probe_graph(&g, |_, p| p.probe_tree = true);
        assert_eq!(out[0].tree, Some((None, vec![])));
    }

    #[test]
    fn tree_indices_nonexistent_child_aborts_with_invalid_destination() {
        let g = lcs_graph::generators::path(3);
        let nodes = (0..3)
            .map(|v| Probe {
                probe_tree: v == 0,
                children: if v == 0 { vec![2] } else { vec![] }, // 2 is not adjacent to 0
                ..Probe::default()
            })
            .collect();
        let err = run_probes(&g, nodes).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidDestination {
                from: 0,
                to: 2,
                round: 0
            }
        );
    }

    #[test]
    fn tree_indices_nonexistent_parent_aborts_with_invalid_destination() {
        let g = lcs_graph::generators::path(3);
        let nodes = (0..3)
            .map(|v| Probe {
                probe_tree: v == 2,
                parent: (v == 2).then_some(0), // 0 is not adjacent to 2
                ..Probe::default()
            })
            .collect();
        let err = run_probes(&g, nodes).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidDestination {
                from: 2,
                to: 0,
                round: 0
            }
        );
    }
}
