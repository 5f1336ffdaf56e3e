//! The [`Protocol`] trait — a whole-network CONGEST protocol as a
//! first-class, composable value — and the [`Join`] combinator that
//! runs two protocols **concurrently in shared rounds**.
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
//! * **concurrently** — `session.join(p1, p2)?` runs both protocols in
//!   the *same* rounds, multiplexing the per-edge bandwidth through an
//!   internally tagged wire message ([`JoinMsg`]) with round-robin
//!   arbitration, so `k` part-wise aggregations genuinely share rounds
//!   as the paper assumes ([`Join`] nests: `join(p1, join(p2, p3))`).
//!
//! Both combinators that run a protocol inside another's rounds,
//! [`Join`] and [`Reliable`](crate::Reliable), share one capture path:
//! a crate-private capture mailbox holds the inner inbox and one
//! payload slot per neighbor, runs the inner hook only when the
//! [quiescence contract](Protocol#the-quiescence-contract) asks for it
//! (round 0, mail, or [`Wake::Stay`]), keeps its sends off the wire,
//! forwards a model violation to the host, and hands the payloads
//! back. The mailboxes are per-shard scratch: the engine lends them to
//! the node it runs for one hook and takes them back, so no node state
//! holds one. `Join` appends the payloads to its node's backlog (hook
//! at the engine round); `Reliable` frames them per link (hook at its
//! virtual round).
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

use crate::capture::Hook;
use crate::message::Message;
use crate::node::{RoundCtx, Wake};
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};

/// A whole-network CONGEST protocol: per-node state construction, round
/// execution, and typed result extraction, as one composable value.
///
/// See the [module docs](self) for the design rationale and an example.
/// Run protocols through a [`Session`](crate::Session) — sequentially
/// ([`Session::run`](crate::Session::run)) or concurrently
/// ([`Session::join`](crate::Session::join)).
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
    /// engine costs clone what they need); under [`Join`] both sides
    /// receive the statistics of the *shared* phase.
    fn finish(self, graph: &Graph, states: Vec<Self::State>, stats: &RunStats) -> Self::Output;
}

/// Tagged wire message of a [`Join`] run: which side of the join the
/// payload belongs to. The one-bit side tag is absorbed into the word
/// constant (like the variant tags of the built-in protocol messages),
/// so a joined run's bandwidth accounting matches the standalone runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinMsg<A, B> {
    /// A message of the join's first protocol.
    A(A),
    /// A message of the join's second protocol.
    B(B),
}

impl<A: Message, B: Message> Message for JoinMsg<A, B> {
    fn size_words(&self) -> u32 {
        match self {
            JoinMsg::A(m) => m.size_words(),
            JoinMsg::B(m) => m.size_words(),
        }
    }
}

/// A [`Join`] node's captured messages not yet on the wire, in capture
/// order, each with its neighbor index; a sent entry is `None` until
/// the round's drain compacts it away.
type Backlog<W> = Vec<(u32, Option<W>)>;

/// Per-node state of a [`Join`]: both sides' states and the backlog of
/// captured messages that multiplexes the shared bandwidth (see
/// [`Join`]'s docs for the mechanism).
pub struct JoinState<P1: Protocol, P2: Protocol> {
    a: P1::State,
    b: P2::State,
    backlog: Backlog<JoinMsg<P1::Msg, P2::Msg>>,
}

/// Runs one side of a [`Join`] at `ctx`'s node: its hook runs in a
/// capture the shard lends for the hook, on `inbox`, and what it sends
/// is appended to `backlog`, wrapped by `side`.
fn run_side<P: Protocol, W: Message>(
    proto: &P,
    state: &mut P::State,
    inbox: impl Iterator<Item = (NodeId, P::Msg)>,
    side: fn(P::Msg) -> W,
    backlog: &mut Backlog<W>,
    ctx: &mut RoundCtx<'_, W>,
) -> Hook {
    let mut cap = ctx.captures.lend::<P::Msg>();
    cap.inbox.extend(inbox);
    let hook = cap.run(proto, state, ctx.round(), ctx);
    cap.drain(|i, m| backlog.push((i as u32, Some(side(m)))));
    ctx.captures.give_back(cap);
    hook
}

/// Runs two protocols **concurrently in shared rounds**, multiplexing
/// the per-edge CONGEST bandwidth between them.
///
/// Each round, every node (1) splits its inbox by side tag, (2) runs
/// both sub-protocols' `round` hooks against *capture* contexts whose
/// sends are appended to the node's backlog instead of the wire, then
/// (3) sends at most one backlogged message per neighbor, tagged with
/// its side ([`JoinMsg`]). Contention for a neighbor slot is
/// arbitrated **round-robin**: even rounds send the first protocol's
/// oldest message for the neighbor, odd rounds the second's, and the
/// other side's oldest only when the preferred side has none, so
/// neither side can starve the other. Congestion between the two
/// protocols therefore turns into queueing delay — exactly the
/// random-delay-scheduler view of the paper — and the joint run
/// typically finishes in `≈ max(r1, r2)` rounds rather than `r1 + r2`.
///
/// The backlog keeps capture order, so one pass per side finds each
/// neighbor's oldest message, and a round costs O(backlog): every
/// round passes over each message still waiting, so a phase's drain
/// work grows with its total queueing delay. That stays small while
/// contention is brief (a convergecast sends once per tree edge), but
/// it is not bounded by the degree: two sides that both keep sending
/// to one neighbor every round grow its backlog by one message per
/// round, so `R` such rounds cost Θ(R²) host work, where per-neighbor
/// queues would cost Θ(R · degree). The `join_saturate` workload of
/// the `sim_throughput` bench measures that case.
///
/// The capture buffers the hooks run through are the running shard's,
/// lent for one hook; a node's only allocation of its own is its
/// backlog.
///
/// The two sides share each node's RNG stream (the first protocol
/// draws before the second within a round) and the phase's
/// [`RunStats`]; [`Protocol::finish`] of both sides receives the joint
/// statistics. `Join` itself implements [`Protocol`], so joins nest:
/// `Join::new(p1, Join::new(p2, p3))` shares rounds three ways.
///
/// Construct via [`Session::join`](crate::Session::join) (or
/// [`Join::new`] for nesting).
pub struct Join<P1: Protocol, P2: Protocol> {
    a: P1,
    b: P2,
    label: String,
}

impl<P1: Protocol, P2: Protocol> Join<P1, P2> {
    /// Composes two protocols for concurrent execution.
    pub fn new(a: P1, b: P2) -> Self {
        let label = format!("{}+{}", a.label(), b.label());
        Join { a, b, label }
    }
}

impl<P1: Protocol, P2: Protocol> Protocol for Join<P1, P2> {
    type Msg = JoinMsg<P1::Msg, P2::Msg>;
    type State = JoinState<P1, P2>;
    type Output = (P1::Output, P2::Output);

    fn label(&self) -> &str {
        &self.label
    }

    fn init(&mut self, graph: &Graph) -> Vec<Self::State> {
        let a = self.a.init(graph);
        let b = self.b.init(graph);
        assert_eq!(a.len(), b.len(), "joined protocols must agree on n");
        a.into_iter()
            .zip(b)
            .map(|(a, b)| JoinState {
                a,
                b,
                backlog: Vec::new(),
            })
            .collect()
    }

    fn round(&self, st: &mut Self::State, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let round = ctx.round();
        // 1–2. Run each side on its untagged share of the inbox, A
        //    before B (the RNG order). The capture's gate skips a
        //    quiescent side, so the join extends the engine's
        //    event-driven scheduling through itself: a sleeping side
        //    costs nothing even while the other keeps the node active.
        let inbox = ctx.inbox();
        let a = inbox.iter().filter_map(|(from, m)| match m {
            JoinMsg::A(m) => Some((*from, m.clone())),
            JoinMsg::B(_) => None,
        });
        if run_side(&self.a, &mut st.a, a, JoinMsg::A, &mut st.backlog, ctx) == Hook::Violation {
            return; // the run is aborting
        }
        let b = inbox.iter().filter_map(|(from, m)| match m {
            JoinMsg::B(m) => Some((*from, m.clone())),
            JoinMsg::A(_) => None,
        });
        if run_side(&self.b, &mut st.b, b, JoinMsg::B, &mut st.backlog, ctx) == Hook::Violation {
            return;
        }
        // 3. At most one message per neighbor: the preferred side's
        //    oldest (A on even rounds, B on odd ones), else the other
        //    side's oldest. The first pass sends the preferred side,
        //    the second fills the neighbors it left free.
        let prefer_b = round % 2 == 1;
        for pass in [Some(prefer_b), None] {
            for (i, slot) in &mut st.backlog {
                let i = *i as usize;
                let due = slot
                    .as_ref()
                    .is_some_and(|m| pass.is_none_or(|b| matches!(m, JoinMsg::B(_)) == b));
                if due && !ctx.sent_to(i) {
                    ctx.send_nth(i, slot.take().expect("checked above"));
                }
            }
        }
        st.backlog.retain(|(_, m)| m.is_some());
    }

    fn halted(&self, st: &Self::State) -> bool {
        st.backlog.is_empty() && self.a.halted(&st.a) && self.b.halted(&st.b)
    }

    fn wake(&self, st: &Self::State) -> Wake {
        // The joined node stays awake while either side does (a side
        // with time-driven work must keep running even without mail) or
        // while backlogged messages remain to send.
        if !st.backlog.is_empty()
            || self.a.wake(&st.a) == Wake::Stay
            || self.b.wake(&st.b) == Wake::Stay
        {
            Wake::Stay
        } else {
            Wake::Sleep
        }
    }

    fn finish(self, graph: &Graph, states: Vec<Self::State>, stats: &RunStats) -> Self::Output {
        let mut sa = Vec::with_capacity(states.len());
        let mut sb = Vec::with_capacity(states.len());
        for s in states {
            sa.push(s.a);
            sb.push(s.b);
        }
        (
            self.a.finish(graph, sa, stats),
            self.b.finish(graph, sb, stats),
        )
    }
}
