//! The [`Protocol`] trait — a whole-network CONGEST protocol as a
//! first-class, composable value.
//!
//! # Why a protocol trait
//!
//! Low-congestion shortcuts exist precisely so that many part-wise
//! computations can run *concurrently* in shared CONGEST rounds
//! (Ghaffari–Haeupler SODA'16; Kogan–Parter PODC 2021). [`Protocol`]
//! is the one way to write a node program: it packages the full
//! lifecycle — building per-node states ([`Protocol::init`]), executing
//! rounds ([`Protocol::round`], with quiescence declared via
//! [`Protocol::halted`] / [`Protocol::wake`]), and extracting a typed
//! result ([`Protocol::finish`]) — and a [`Session`](crate::Session) is
//! the one way to run it. Protocols compose:
//!
//! * **sequentially** — `session.run(p1)?` then `session.run(p2)?`
//!   share one engine (worker pool, reverse-arc tables) and accumulate
//!   into one cumulative [`RunStats`] with a per-phase breakdown;
//! * **concurrently**, inside one protocol — the part-wise protocols
//!   ([`MultiBfs`](crate::MultiBfs),
//!   [`MultiAggregate`](crate::MultiAggregate)) run many instances in
//!   the same rounds through per-edge queues with random start delays,
//!   as the paper assumes, and aggregations over one tree fold a tuple
//!   in one convergecast
//!   ([`TreeAggregate::folding`](crate::TreeAggregate::folding)).
//!
//! [`Reliable`](crate::Reliable) runs an inner protocol inside its own
//! rounds through a crate-private capture mailbox: it holds the inner
//! inbox and one payload slot per neighbor, runs the inner hook only
//! when the [quiescence contract](Protocol#the-quiescence-contract)
//! asks for it (round 0, mail, or [`Wake::Stay`]), keeps its sends off
//! the wire, forwards a model violation to the host, and hands the
//! payloads back for `Reliable` to frame per link. The mailboxes are
//! per-shard scratch: the engine lends them to the node it runs for one
//! hook and takes them back, so no node state holds one.
//!
//! # Writing a protocol
//!
//! A [`Protocol`] value owns the protocol's *global* inputs (roots,
//! tree positions, instance specs); its [`Protocol::State`] holds one
//! node's local state. `round` takes `&self` — shared, immutable
//! protocol-wide data — plus `&mut State`, which is exactly the split
//! that lets the engine execute node shards on parallel workers while
//! the protocol value is shared read-only.
//!
//! ```
//! use lcs_congest::{Message, Protocol, RoundCtx, RunStats, Session, SimConfig};
//! use lcs_graph::{Graph, NodeId};
//!
//! /// Every node learns the maximum node id by gossip flooding.
//! struct MaxGossip;
//!
//! #[derive(Clone)]
//! struct MaxState {
//!     best: u32,
//!     announced: u32,
//! }
//!
//! impl Protocol for MaxGossip {
//!     type Msg = u32;
//!     type State = MaxState;
//!     type Output = Vec<u32>;
//!
//!     fn label(&self) -> &str {
//!         "max_gossip"
//!     }
//!     fn init(&mut self, graph: &Graph) -> Vec<MaxState> {
//!         (0..graph.n() as u32)
//!             .map(|v| MaxState { best: v, announced: u32::MAX })
//!             .collect()
//!     }
//!     fn round(&self, st: &mut MaxState, ctx: &mut RoundCtx<'_, u32>) {
//!         for &(_, m) in ctx.inbox() {
//!             st.best = st.best.max(m);
//!         }
//!         if st.announced != st.best {
//!             st.announced = st.best;
//!             for i in 0..ctx.degree() {
//!                 ctx.send_nth(i, st.best);
//!             }
//!         }
//!     }
//!     fn halted(&self, st: &MaxState) -> bool {
//!         st.announced == st.best
//!     }
//!     fn finish(self, _: &Graph, states: Vec<MaxState>, _: &RunStats) -> Vec<u32> {
//!         states.into_iter().map(|s| s.best).collect()
//!     }
//! }
//!
//! let g = lcs_graph::generators::path(5);
//! let mut session = Session::new(&g, SimConfig::default());
//! let maxima = session.run(MaxGossip).unwrap();
//! assert_eq!(maxima, vec![4; 5]);
//! ```

use crate::message::Message;
use crate::node::{RoundCtx, Wake};
use crate::stats::RunStats;
use lcs_graph::Graph;

/// A whole-network CONGEST protocol: per-node state construction, round
/// execution, and typed result extraction, as one composable value.
///
/// See the [module docs](self) for the design rationale and an example.
/// Run protocols through a [`Session`](crate::Session), one phase after
/// another ([`Session::run`](crate::Session::run)).
///
/// # The quiescence contract
///
/// The engine is **event-driven** (see [`Wake`]): a node's
/// [`Protocol::round`] hook runs only at round 0, on rounds where the
/// node has incoming mail, and on rounds following a [`Wake::Stay`]
/// request from [`Protocol::wake`]. A sleeping node's hook is *not*
/// polled — so a node whose `wake` answers [`Wake::Sleep`] promises
/// that invoking its hook with an empty inbox would have been a no-op
/// (no state change, no sends, no RNG draws).
///
/// ## Migrating from the `halted` scan
///
/// Older protocols only implemented [`Protocol::halted`], under an
/// engine that invoked every node every round. [`Protocol::wake`]
/// defaults to deriving the signal from `halted` (halted ⇒ sleep), so
/// such protocols keep working unchanged **iff** they already satisfied
/// the no-op promise above — which the termination rule (run ends when
/// all nodes are halted with nothing in flight) effectively required.
/// A protocol whose halted nodes still did time-driven work (e.g.
/// waiting for a specific round number without traffic) must override
/// `wake` to return [`Wake::Stay`] until that work is done; sleeping
/// would skip it.
pub trait Protocol: Sized {
    /// The message type exchanged on the wire.
    type Msg: Message + Send + Sync + 'static;
    /// One node's local state.
    type State: Send;
    /// The protocol's result, extracted by [`Protocol::finish`].
    type Output;

    /// A short label for per-phase statistics
    /// ([`RunStats::label`]); defaults to `"protocol"`.
    fn label(&self) -> &str {
        "protocol"
    }

    /// Builds the per-node states, one per node of `graph`, in node-id
    /// order. Called exactly once, before round 0.
    fn init(&mut self, graph: &Graph) -> Vec<Self::State>;

    /// Executes one synchronous round for `state`'s node. At round 0
    /// the inbox is empty; from round `r ≥ 1` the inbox holds exactly
    /// the messages sent to this node at round `r − 1`. Takes `&self`
    /// so protocol-wide data is shared read-only across the engine's
    /// worker shards. Invoked only while the node is active (see the
    /// [quiescence contract](Protocol#the-quiescence-contract)).
    fn round(&self, state: &mut Self::State, ctx: &mut RoundCtx<'_, Self::Msg>);

    /// Whether `state`'s node has (tentatively) finished. The run ends
    /// when every node is quiescent **and** no messages are in flight;
    /// a quiescent node is re-activated (and may un-halt) when messages
    /// arrive.
    fn halted(&self, state: &Self::State) -> bool;

    /// The quiescence contract: asked after each executed round whether
    /// the node must run again next round even without mail
    /// ([`Wake::Stay`]) or may sleep until a message arrives
    /// ([`Wake::Sleep`]). Defaults to deriving the signal from
    /// [`Protocol::halted`]; see the
    /// [migration notes](Protocol#migrating-from-the-halted-scan) for
    /// when an override is required.
    fn wake(&self, state: &Self::State) -> Wake {
        if self.halted(state) {
            Wake::Sleep
        } else {
            Wake::Stay
        }
    }

    /// Consumes the final per-node states into the protocol's output.
    /// `stats` is this phase's statistics (protocols that report
    /// engine costs clone what they need).
    fn finish(self, graph: &Graph, states: Vec<Self::State>, stats: &RunStats) -> Self::Output;
}
