//! [`Capture`]: how [`Reliable`](crate::Reliable) runs an inner
//! protocol's round hook inside its own round. The hook's sends land in
//! one flat `MaybeUninit` slot per neighbor with an occupancy byte (the
//! engine's mailbox layout, so the one-message-per-neighbor discipline
//! is checked at capture time) and have no wire effects: the host sends
//! them later through its own context, so mail flags and active sets
//! see exactly the wire traffic at any shard count.
//!
//! The buffers a hook runs through (inbox, payload slots, occupancy
//! bytes, dirty list, per-arc sink) are per-shard scratch, not node
//! state. Each engine shard owns one [`Captures`] pool and lends it to
//! every node it runs through a crate-private [`RoundCtx`] field; a
//! host borrows a [`Capture`] for its inner message type, runs the
//! hook, moves the payloads out with [`Capture::take`], and gives the
//! buffers back in the same round. A capture context lends the same
//! pool on, so nested hosts borrow from it too, and a node costs no
//! capture allocation however many hosted phases it runs.

use crate::message::Message;
use crate::node::{RoundCtx, TxState, Wake};
use crate::protocol::Protocol;
use lcs_graph::NodeId;
use std::any::Any;
use std::mem::MaybeUninit;

/// What one [`Capture::run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hook {
    /// The quiescence gate held the hook back.
    Skipped,
    /// The hook ran and captured a send iff `sent`.
    Ran { sent: bool },
    /// The hook broke the model: the violation is recorded in the
    /// host's context and the captured payloads are dropped.
    Violation,
}

/// One shard's free capture buffers, at most one per message type
/// unless hosts nest with the same inner type. [`Captures::lend`] hands
/// out a pooled capture of the asked type (a new one the first time),
/// and [`Captures::give_back`] returns it.
#[derive(Default)]
pub(crate) struct Captures {
    free: Vec<Box<dyn Any + Send>>,
}

impl Captures {
    /// Lends a capture for message type `M`, with an empty inbox and
    /// no payloads.
    pub(crate) fn lend<M: Send + 'static>(&mut self) -> Box<Capture<M>> {
        match self.free.iter().position(|c| c.is::<Capture<M>>()) {
            Some(i) => self
                .free
                .swap_remove(i)
                .downcast()
                .expect("the position matched the type"),
            None => Box::default(),
        }
    }

    /// Takes back a lent capture whose payloads have all left; its
    /// inbox is cleared here, so no payload outlives the round.
    pub(crate) fn give_back<M: Send + 'static>(&mut self, mut cap: Box<Capture<M>>) {
        debug_assert!(!cap.occ.contains(&true), "captured payloads left over");
        cap.inbox.clear();
        self.free.push(cap);
    }
}

/// One inner protocol's capture mailbox: its inbox view, payload
/// slots, occupancy bytes and send-path scratch, sized to the largest
/// degree it has served. Slot `i` holds a live payload iff `occ[i]` is
/// set; payloads leave through [`Capture::take`], and [`Drop`] drops
/// any still held.
pub(crate) struct Capture<M> {
    /// The inbox the next [`Capture::run`] hands to the hook; the host
    /// fills it.
    pub(crate) inbox: Vec<(NodeId, M)>,
    slots: Vec<MaybeUninit<M>>,
    occ: Vec<bool>,
    /// Neighbor indices the last run sent to, in send order.
    dirty: Vec<u32>,
    /// Per-arc counter sink (the host counts its real sends).
    per_arc: Vec<u32>,
}

impl<M> Default for Capture<M> {
    fn default() -> Self {
        Capture {
            inbox: Vec::new(),
            slots: Vec::new(),
            occ: Vec::new(),
            dirty: Vec::new(),
            per_arc: Vec::new(),
        }
    }
}

impl<M> Capture<M> {
    /// Runs `proto`'s hook at `round` against a capture context when
    /// the quiescence gate lets it: at round 0, with mail, or after a
    /// [`Wake::Stay`]. Skipping a sleeping hook is outcome-neutral by
    /// the [quiescence contract](Protocol#the-quiescence-contract). The
    /// hook draws from the host node's RNG and borrows from the host's
    /// capture pool. The host must have taken the previous run's
    /// payloads.
    #[inline]
    pub(crate) fn run<P, W>(
        &mut self,
        proto: &P,
        state: &mut P::State,
        round: u64,
        ctx: &mut RoundCtx<'_, W>,
    ) -> Hook
    where
        P: Protocol<Msg = M>,
        W: Message,
    {
        if round > 0 && self.inbox.is_empty() && proto.wake(state) == Wake::Sleep {
            return Hook::Skipped;
        }
        let degree = ctx.degree();
        if self.occ.len() < degree {
            self.slots.resize_with(degree, MaybeUninit::uninit);
            self.occ.resize(degree, false);
            self.per_arc.resize(degree, 0);
        }
        debug_assert!(!self.occ.contains(&true), "captured payloads left over");
        self.dirty.clear();
        let mut violation = None;
        let (mut messages, mut words) = (0u64, 0u64);
        proto.round(
            state,
            &mut RoundCtx {
                node: ctx.node,
                round,
                graph: ctx.graph,
                inbox: &self.inbox,
                rng: &mut *ctx.rng,
                seed: ctx.seed,
                captures: &mut *ctx.captures,
                tx: TxState {
                    slots: &mut self.slots[..degree],
                    occ: &mut self.occ[..degree],
                    heads: ctx.tx.heads,
                    arc_base: 0,
                    wire: None,
                    dirty: &mut self.dirty,
                    messages: &mut messages,
                    words: &mut words,
                    per_arc: &mut self.per_arc[..degree],
                    violation: &mut violation,
                },
            },
        );
        let Some(v) = violation else {
            return Hook::Ran { sent: messages > 0 };
        };
        for k in 0..self.dirty.len() {
            self.take(self.dirty[k] as usize);
        }
        ctx.tx.violation.get_or_insert(v);
        Hook::Violation
    }

    /// Moves out the payload captured for neighbor `i`, if any.
    pub(crate) fn take(&mut self, i: usize) -> Option<M> {
        if !std::mem::take(self.occ.get_mut(i)?) {
            return None;
        }
        // SAFETY: `occ[i]` was set, so `slots[i]` holds a live payload
        // (only a captured send sets a byte, as it writes the slot);
        // clearing the byte above makes this the one move out.
        Some(unsafe { self.slots[i].assume_init_read() })
    }
}

impl<M> Drop for Capture<M> {
    fn drop(&mut self) {
        for i in 0..self.occ.len() {
            self.take(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sim::FaultPlan;
    use crate::SimError;
    use crate::{Message, Protocol, Reliable, RoundCtx, RunStats, Session, SimConfig};
    use lcs_graph::{Graph, NodeId};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    /// Every payload instance ever made, and which are still alive.
    #[derive(Default)]
    struct Ledger {
        /// `(instances made, ids alive)`.
        live: Mutex<(u64, HashSet<u64>)>,
        /// Drops of an instance that was already dropped.
        double_drops: AtomicU64,
    }

    impl Ledger {
        /// Asserts that payloads flowed and each was dropped exactly once.
        fn assert_all_dropped_once(&self, case: &str) {
            let (made, leaked) = {
                let live = self.live.lock().expect("ledger lock poisoned");
                (live.0, live.1.len())
            };
            assert!(made > 0, "{case}: no payload was made");
            assert_eq!(leaked, 0, "{case}: payloads leaked, of {made}");
            let double = self.double_drops.load(Ordering::Relaxed);
            assert_eq!(double, 0, "{case}: dropped twice");
        }
    }

    /// A payload registered in its ledger; a clone is a new instance.
    struct Tracked {
        id: u64,
        ledger: Arc<Ledger>,
    }

    impl Tracked {
        fn new(ledger: &Arc<Ledger>) -> Self {
            let (made, alive) = &mut *ledger.live.lock().expect("ledger lock poisoned");
            *made += 1;
            alive.insert(*made);
            Tracked {
                id: *made,
                ledger: Arc::clone(ledger),
            }
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked::new(&self.ledger)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            // A drop must not panic: read through a poisoned lock.
            let mut live = self
                .ledger
                .live
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !live.1.remove(&self.id) {
                self.ledger.double_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    impl std::fmt::Debug for Tracked {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Tracked")
        }
    }

    impl Message for Tracked {
        fn size_words(&self) -> u32 {
            1
        }
    }

    /// Rounds in which every [`Burst`] node sends.
    const ROUNDS: u64 = 3;

    /// Every node sends a payload to every neighbor in each of rounds
    /// `0..ROUNDS`; `double` makes one node send twice on one link at
    /// one round, after its other sends of that round.
    struct Burst {
        double: Option<(NodeId, u64)>,
        ledger: Arc<Ledger>,
    }

    impl Burst {
        fn new(ledger: &Arc<Ledger>, double: Option<(NodeId, u64)>) -> Self {
            Burst {
                double,
                ledger: Arc::clone(ledger),
            }
        }
    }

    impl Protocol for Burst {
        type Msg = Tracked;
        /// The next round the node runs.
        type State = u64;
        type Output = ();

        fn init(&mut self, graph: &Graph) -> Vec<u64> {
            vec![0; graph.n()]
        }
        fn round(&self, next: &mut u64, ctx: &mut RoundCtx<'_, Tracked>) {
            *next = ctx.round() + 1;
            if ctx.round() >= ROUNDS {
                return;
            }
            for i in 0..ctx.degree() {
                ctx.send_nth(i, Tracked::new(&self.ledger));
            }
            if self.double == Some((ctx.node(), ctx.round())) {
                ctx.send_nth(0, Tracked::new(&self.ledger));
            }
        }
        fn halted(&self, next: &u64) -> bool {
            *next >= ROUNDS
        }
        fn finish(self, _: &Graph, _: Vec<u64>, _: &RunStats) {}
    }

    fn lossy() -> SimConfig {
        SimConfig {
            faults: Some(FaultPlan {
                drop_rate: 0.2,
                delay_rate: 0.2,
                max_delay: 2,
                fault_seed: 11,
                ..FaultPlan::default()
            }),
            ..SimConfig::default()
        }
    }

    /// Runs the protocol `make` builds over a fresh ledger, on a 3×3
    /// grid, then checks that every payload it made was dropped once.
    fn run_tracked<P: Protocol + Sync>(
        case: &str,
        cfg: SimConfig,
        make: impl FnOnce(&Arc<Ledger>) -> P,
    ) -> Result<P::Output, SimError> {
        let g = lcs_graph::generators::grid(3, 3);
        let ledger = Arc::new(Ledger::default());
        let out = Session::new(&g, cfg).run(make(&ledger));
        ledger.assert_all_dropped_once(case);
        out
    }

    fn assert_overflow<T>(case: &str, result: Result<T, SimError>) {
        match result {
            Err(SimError::ChannelOverflow { from: 4, .. }) => {}
            Err(e) => panic!("{case}: wrong error {e}"),
            Ok(_) => panic!("{case}: the double send must abort the phase"),
        }
    }

    /// Every payload a `Reliable` inner protocol sends is dropped
    /// exactly once: after a completed phase, and after a phase that a
    /// double send aborts while the round's other sends sit in the
    /// capture the shard lent.
    #[test]
    fn captured_payloads_are_dropped_exactly_once() {
        let reliable = run_tracked("reliable, completed", lossy(), |l| {
            Reliable::new(Burst::new(l, None))
        });
        assert!(reliable.is_ok());
        let reliable = run_tracked("reliable, aborted", lossy(), |l| {
            Reliable::new(Burst::new(l, Some((4, 1))))
        });
        assert_overflow("reliable, aborted", reliable);
    }
}
