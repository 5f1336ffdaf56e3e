//! The [`Reliable`] combinator: runs any [`Protocol`] **unchanged** over
//! a lossy, reordering network and produces the exact fault-free output.
//!
//! # Mechanism
//!
//! `Reliable<P>` is an α-synchronizer with ARQ links. The inner protocol
//! advances in **virtual rounds**: each link carries one framed message
//! per virtual round (payload present or explicitly absent), tagged with
//! a per-link sequence number, and a node executes inner round `t` only
//! once it holds every live neighbor's frame for round `t − 1`. Frames
//! are delivered reliably by per-link cumulative acks (piggybacked on
//! data frames), an out-of-order stash, and a constant retransmission
//! clock: the oldest unacked frame of a link is resent every [`RTO`]
//! outer rounds, one round trip, with no backoff. A peer acks in the
//! round a frame arrives, so on a clean link the ack always beats the
//! clock, and a lost or forged frame costs one round trip. A delayed
//! frame or ack may be resent needlessly, which the duplicate check
//! absorbs. Retransmissions travel through the ordinary send path, so
//! they respect the CONGEST bandwidth discipline and show up in
//! [`RunStats`] — the measured overhead of reliability.
//!
//! The inner hook runs through the crate's capture path (see the
//! [`protocol`](crate::protocol) module docs) at the virtual round
//! number, behind the quiescence gate, in capture buffers the engine's
//! shard lends for the round; its sends are framed onto this node's
//! links before the buffers go back.
//!
//! Because every node executes the same inner rounds with the same
//! inboxes in the same order as a fault-free synchronous run, the inner
//! protocol's output is **byte-identical** to its fault-free output — a
//! property the tier-1 tests in this module assert against the engine's
//! [`FaultPlan`](crate::FaultPlan) for BFS and tree aggregation.
//!
//! # Termination
//!
//! A synchronizer must decide when to stop exchanging frames. Each frame
//! carries a *quiet level*: `q = 0` on any virtual round where the node
//! acted (sent an inner payload, or asked to stay awake), else
//! `1 + min(own previous q, min over neighbors' previous q)`. When
//! `q > n` the node **stops**: by induction, every node at distance `d`
//! was inactive at virtual round `t − d`, and since (re)activation
//! requires an inner payload from an active neighbor one round earlier,
//! no inner activity can ever reach a node whose quiet cone covers the
//! whole graph. [`Reliable::with_quiet_bound`] caps the levels at a
//! diameter guess instead; a guess that is too small either changes
//! nothing or aborts the run with
//! [`SimError::QuietBoundViolated`]. A stopped node still acks and retransmits until its
//! links drain, and *manufactures* empty frames on demand when a
//! not-yet-stopped neighbor's sequence numbers show it needs one more —
//! so nobody deadlocks waiting for a frame a stopped peer never
//! produced.
//!
//! # Crash-stops
//!
//! Reliable delivery cannot outlast a dead receiver: a crashed node
//! never acks, so its neighbors would retransmit forever. When the
//! attached [`FaultPlan`](crate::FaultPlan) crash-stops nodes
//! permanently, construct the combinator with [`Reliable::with_crashed`]
//! (a perfect failure detector, the standard assumption): dead links are
//! excised from the frame exchange and the inner protocol runs on the
//! surviving subgraph.
//!
//! # Integrity tags (payload corruption)
//!
//! The engine's Byzantine tier
//! ([`FaultPlan::corrupt_rate`](crate::FaultPlan::corrupt_rate)) flips
//! bits of in-flight messages.
//! Every wire frame therefore carries a deterministic 64-bit tag — one
//! splitmix64 of the frame kind and the link's `(from, to)` endpoints,
//! XORed with each header field and the payload digest
//! ([`Message::digest`]), each times its own odd constant — which the
//! receiver recomputes on arrival. Multiplying by an odd constant is a
//! bijection on 64-bit words, so a change to any one field changes the
//! tag with certainty, and one field is all an in-flight corruption
//! ([`Message::corrupted`]) changes. A mismatch means the frame was
//! forged in flight: it is ignored entirely (treated exactly like a
//! drop) and the ARQ machinery re-sends the original intact, so the
//! wrapped output stays byte-identical to the fault-free run under any
//! drop × delay × corrupt plan. This is the authenticated-channels
//! assumption, made concrete: the adversary can destroy or mutate
//! traffic but cannot forge a frame that *verifies*.
//!
//! # Transient crashes
//!
//! A transiently crashed node
//! ([`Crash::recover_at`](crate::Crash::recover_at)) keeps its state
//! but loses every frame in flight to it, and nothing special brings it
//! back. Its neighbors keep resending their oldest unacked frame every
//! [`RTO`] rounds through the outage, and the engine re-activates the
//! node when it recovers, so its own clocks fire at once. Each link
//! therefore resyncs within one timeout of the recovery, and with no
//! other faults the run ends at most [`RTO`] rounds after a fault-free
//! run started at the recovery round would.

use crate::capture::Hook;
use crate::error::SimError;
use crate::hash::splitmix64;
use crate::message::Message;
use crate::node::{RoundCtx, Wake};
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Retransmission timeout, in outer engine rounds: the oldest unacked
/// frame of a link is resent every `RTO` rounds. Two rounds are one
/// round trip (a frame sent at round `r` is acked at `r + 1`, and the
/// ack is read at `r + 2`), and no timeout is shorter without resending
/// frames whose ack is on its way.
pub const RTO: u64 = 2;

/// Domain separators keeping the two frame kinds' tag spaces disjoint.
const TAG_DATA: u64 = 0x7461_675F_6461_7461;
const TAG_ACK: u64 = 0x0074_6167_5F61_636B;
/// One odd multiplier per tag-covered field (a bijection on `u64`, so
/// the field's every change reaches the tag).
const MUL_SEQ: u64 = 0x9E37_79B9_7F4A_7C15;
const MUL_ACK: u64 = 0xBF58_476D_1CE4_E5B9;
const MUL_QUIET: u64 = 0x94D0_49BB_1331_11EB;
const MUL_PAYLOAD: u64 = 0xD6E8_FEB8_6659_FD93;
/// Folded into a data tag in place of an absent payload's digest.
const NO_PAYLOAD: u64 = 0x6E6F_6E65;

/// Mixes a link's directed endpoints into a tag chain's seed.
#[inline]
fn link_id(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// The digest a data tag covers for `payload`.
fn payload_digest<M: Message>(payload: &Option<M>) -> u64 {
    payload.as_ref().map_or(NO_PAYLOAD, Message::digest)
}

/// Integrity tag of a data frame: one splitmix64 of the frame kind and
/// the link id, XORed with every header field and the payload digest,
/// each times its own odd constant. Deterministic, so sender and
/// receiver agree exactly; an in-flight change to any one covered field
/// (including the ack — an uncovered ack could falsely advance ARQ
/// state) makes the recomputation mismatch.
#[inline]
fn frame_tag(from: NodeId, to: NodeId, seq: u64, ack: u64, quiet: u32, digest: u64) -> u64 {
    splitmix64(TAG_DATA ^ link_id(from, to))
        ^ seq.wrapping_mul(MUL_SEQ)
        ^ ack.wrapping_mul(MUL_ACK)
        ^ u64::from(quiet).wrapping_mul(MUL_QUIET)
        ^ digest.wrapping_mul(MUL_PAYLOAD)
}

/// Integrity tag of a standalone ack, built like [`frame_tag`].
#[inline]
fn ack_tag(from: NodeId, to: NodeId, ack: u64) -> u64 {
    splitmix64(TAG_ACK ^ link_id(from, to)) ^ ack.wrapping_mul(MUL_ACK)
}

/// Wire message of a [`Reliable`] run: a sequenced data frame with a
/// piggybacked cumulative ack, or a standalone ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableMsg<M> {
    /// One virtual round's frame on one link.
    Data {
        /// Virtual round this frame belongs to (per-link sequence
        /// number; frames are produced and consumed in order).
        seq: u64,
        /// Cumulative ack: the sender has received every frame of this
        /// link below `ack`.
        ack: u64,
        /// The sender's quiet level at virtual round `seq` (see the
        /// [module docs](self) on termination).
        quiet: u32,
        /// The inner message sent on this link at virtual round `seq`,
        /// if any — `None` frames are what lets the receiver distinguish
        /// "no message this round" from "message still in flight".
        payload: Option<M>,
        /// Integrity tag over the link id, every header field, and the
        /// payload digest (see the [module docs](self)); a mismatch on
        /// arrival means the frame was corrupted in flight and it is
        /// dropped.
        tag: u64,
    },
    /// Standalone cumulative ack (sent when a frame arrives but no data
    /// frame travels back the same round).
    Ack {
        /// Cumulative ack, as in [`ReliableMsg::Data`].
        ack: u64,
        /// Integrity tag over the link id and `ack`.
        tag: u64,
    },
}

impl<M: Message> ReliableMsg<M> {
    /// Whether the frame's tag matches its fields on the link
    /// `from → to`; a mismatch means it was corrupted in flight.
    fn verifies(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            ReliableMsg::Data {
                seq,
                ack,
                quiet,
                payload,
                tag,
            } => frame_tag(from, to, *seq, *ack, *quiet, payload_digest(payload)) == *tag,
            ReliableMsg::Ack { ack, tag } => ack_tag(from, to, *ack) == *tag,
        }
    }
}

impl<M: Message> Message for ReliableMsg<M> {
    fn size_words(&self) -> u32 {
        // The seq/ack/quiet/tag header is absorbed into the word count
        // (like the variant tags of the built-in protocol messages): a
        // frame costs what its payload costs, with a one-word floor for
        // empty frames and acks — so the tags change no message/word
        // statistic.
        match self {
            ReliableMsg::Data {
                payload: Some(m), ..
            } => m.size_words().max(1),
            ReliableMsg::Data { payload: None, .. } | ReliableMsg::Ack { .. } => 1,
        }
    }

    fn corrupted(self, stream: u64) -> Self {
        // Flip a tag-covered field (or the tag itself), chosen by the
        // stream — every corruption is detectable by construction, and
        // the payload case exercises the digest path through the inner
        // message's own `corrupted`. (`| 1` guarantees a real flip.)
        let flip = stream | 1;
        match self {
            ReliableMsg::Data {
                seq,
                ack,
                quiet,
                payload,
                tag,
            } => match (stream >> 1) % 4 {
                0 => ReliableMsg::Data {
                    seq: seq ^ flip,
                    ack,
                    quiet,
                    payload,
                    tag,
                },
                1 => ReliableMsg::Data {
                    seq,
                    ack: ack ^ flip,
                    quiet,
                    payload,
                    tag,
                },
                2 if payload.is_some() => ReliableMsg::Data {
                    seq,
                    ack,
                    quiet,
                    payload: payload.map(|m| m.corrupted(splitmix64(stream))),
                    tag,
                },
                _ => ReliableMsg::Data {
                    seq,
                    ack,
                    quiet,
                    payload,
                    tag: tag ^ flip,
                },
            },
            ReliableMsg::Ack { ack, tag } => {
                if stream & 2 == 0 {
                    ReliableMsg::Ack {
                        ack: ack ^ flip,
                        tag,
                    }
                } else {
                    ReliableMsg::Ack {
                        ack,
                        tag: tag ^ flip,
                    }
                }
            }
        }
    }

    fn digest(&self) -> u64 {
        match self {
            ReliableMsg::Data {
                seq,
                ack,
                quiet,
                payload,
                tag,
            } => splitmix64(
                splitmix64(*seq ^ *tag)
                    ^ splitmix64(*ack ^ u64::from(*quiet))
                    ^ payload_digest(payload),
            ),
            ReliableMsg::Ack { ack, tag } => splitmix64(*ack ^ tag.rotate_left(32)),
        }
    }
}

/// Per-link ARQ + synchronizer state (one per neighbor).
struct Link<M> {
    /// The neighbor crashed permanently (perfect failure detector):
    /// nothing is sent on or expected from this link.
    dead: bool,
    /// Unacked frames, `(payload, quiet)`, covering seqs
    /// `[acked, produced)`; the front is seq `acked`.
    frames: VecDeque<(Option<M>, u32)>,
    /// Frames below this seq are acked by the peer.
    acked: u64,
    /// Frames below this seq have been produced.
    produced: u64,
    /// Next seq to transmit for the first time
    /// (`acked <= next_tx <= produced`).
    next_tx: u64,
    /// Earliest outer round at which the front unacked frame may be
    /// retransmitted.
    timer: u64,
    /// Frames below this seq have been received from the peer
    /// (contiguously).
    recv: u64,
    /// Received, not yet consumed frames in seq order (front is the
    /// frame the next inner round will consume).
    pending_in: VecDeque<(Option<M>, u32)>,
    /// Out-of-order stash: frames received past the contiguous prefix
    /// (delays reorder the wire), sorted by seq.
    ooo: Vec<(u64, Option<M>, u32)>,
    /// A frame arrived since the last ack we sent on this link.
    ack_owed: bool,
}

impl<M: Clone> Link<M> {
    fn new(dead: bool) -> Self {
        Link {
            dead,
            frames: VecDeque::new(),
            acked: 0,
            produced: 0,
            next_tx: 0,
            timer: 0,
            recv: 0,
            pending_in: VecDeque::new(),
            ooo: Vec::new(),
            ack_owed: false,
        }
    }

    /// Applies a cumulative ack from the peer: drops acked frames and
    /// restarts the retransmission clock.
    fn advance_ack(&mut self, ack: u64, now: u64) {
        if ack > self.acked {
            for _ in 0..(ack - self.acked) {
                self.frames.pop_front();
            }
            self.acked = ack;
            self.next_tx = self.next_tx.max(ack);
            self.timer = now + RTO;
        }
    }

    /// Accepts a data frame: advances the contiguous prefix (draining
    /// the out-of-order stash), stashes frames past it, ignores
    /// duplicates. Every arrival owes the peer an ack. The payload is
    /// read from the inbox and cloned only when the frame is kept.
    fn accept(&mut self, seq: u64, payload: &Option<M>, quiet: u32) {
        self.ack_owed = true;
        match seq.cmp(&self.recv) {
            std::cmp::Ordering::Less => {} // duplicate; re-ack only
            std::cmp::Ordering::Equal => {
                self.pending_in.push_back((payload.clone(), quiet));
                self.recv += 1;
                while let Some(pos) = self.ooo.iter().position(|&(s, ..)| s == self.recv) {
                    let (_, p, q) = self.ooo.swap_remove(pos);
                    self.pending_in.push_back((p, q));
                    self.recv += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                if !self.ooo.iter().any(|&(s, ..)| s == seq) {
                    self.ooo.push((seq, payload.clone(), quiet));
                }
            }
        }
    }

    /// Whether this link still has frames to send, frames awaiting ack,
    /// or an ack to return — i.e. reasons to keep the node awake.
    fn busy(&self) -> bool {
        !self.dead && (self.acked < self.produced || self.ack_owed)
    }
}

/// Per-node state of a [`Reliable`] run: the inner protocol's state and
/// the synchronizer/ARQ machinery.
pub struct ReliableState<P: Protocol> {
    inner: P::State,
    /// This node itself is crashed (it never participates; the engine's
    /// fault layer silences it anyway).
    dead: bool,
    initialized: bool,
    /// Next virtual (inner) round to execute.
    vr: u64,
    /// Quiet level after the last executed virtual round.
    quiet: u32,
    /// The node's quiet cone covers the graph: no further inner rounds
    /// will be executed (see the module docs).
    stopped: bool,
    links: Vec<Link<P::Msg>>,
}

/// Runs protocol `P` to its exact fault-free output over a lossy,
/// reordering network (see the [module docs](self) for the mechanism and
/// its guarantees). Implements [`Protocol`], so it composes like any
/// other: run it through a [`Session`](crate::Session).
pub struct Reliable<P: Protocol> {
    inner: P,
    label: String,
    /// Permanently crashed nodes (perfect failure detector), sorted.
    crashed: Vec<NodeId>,
    /// Optional diameter upper bound capping the quiet wave (see
    /// [`Reliable::with_quiet_bound`]).
    quiet_bound: Option<u32>,
}

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner` for reliable execution under message drops and
    /// delays (no crash-stops).
    pub fn new(inner: P) -> Self {
        let label = format!("reliable({})", inner.label());
        Reliable {
            inner,
            label,
            crashed: Vec::new(),
            quiet_bound: None,
        }
    }

    /// Caps the termination quiet wave at `diameter_bound + 1` levels
    /// instead of the default `n`: once a node's quiet cone covers the
    /// (bounded) diameter, no inner activity can reach it. With the
    /// default, termination costs `Θ(n)` empty virtual rounds after the
    /// inner protocol goes quiet; a tight diameter bound reduces that
    /// to `Θ(D)`.
    ///
    /// The bound need not be true. If the inner protocol keeps the
    /// [`Wake`] contract (a [`Wake::Sleep`] node's hook, run with an
    /// empty inbox, would be a no-op), a run under **any** bound ends in
    /// one of two ways: it returns exactly the fault-free output, or it
    /// aborts with [`SimError::QuietBoundViolated`]. A stopped node is
    /// asleep, so it can only miss work through an inner payload, and
    /// every such payload is caught — when the node stops with it
    /// pending, or when it arrives later. A bound at least the diameter
    /// of the graph the inner protocol runs on (the survivors, under
    /// [`Reliable::with_crashed`]) never aborts, and a bound of `n − 1`
    /// or more is the default wave. An aborted run is billed in its
    /// [`Session`](crate::Session) like any other, so a caller that
    /// does not know the diameter can guess a small bound and double it
    /// on the error.
    #[must_use]
    pub fn with_quiet_bound(mut self, diameter_bound: u32) -> Self {
        self.quiet_bound = Some(diameter_bound);
        self
    }

    /// Wraps `inner` with a perfect failure detector for permanently
    /// crashed nodes: links to `crashed` nodes are excised from the
    /// frame exchange and the inner protocol runs on the surviving
    /// subgraph. Required whenever the attached
    /// [`FaultPlan`](crate::FaultPlan) crash-stops nodes without
    /// recovery — a dead receiver never acks, so its neighbors would
    /// otherwise retransmit until the round limit.
    pub fn with_crashed(inner: P, crashed: &[NodeId]) -> Self {
        let mut this = Self::new(inner);
        this.crashed = crashed.to_vec();
        this.crashed.sort_unstable();
        this
    }

    fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed.binary_search(&v).is_ok()
    }
}

impl<P: Protocol + Sync> Protocol for Reliable<P> {
    type Msg = ReliableMsg<P::Msg>;
    type State = ReliableState<P>;
    type Output = P::Output;

    fn label(&self) -> &str {
        &self.label
    }

    fn init(&mut self, graph: &Graph) -> Vec<Self::State> {
        self.inner
            .init(graph)
            .into_iter()
            .enumerate()
            .map(|(v, inner)| ReliableState {
                inner,
                dead: self.is_crashed(v as NodeId),
                initialized: false,
                vr: 0,
                quiet: 0,
                stopped: false,
                links: Vec::new(),
            })
            .collect()
    }

    fn round(&self, st: &mut Self::State, ctx: &mut RoundCtx<'_, Self::Msg>) {
        if st.dead {
            return; // crashed: the engine silences it; be inert anyway
        }
        let degree = ctx.degree();
        let me = ctx.node();
        let now = ctx.round();
        if !st.initialized {
            st.initialized = true;
            st.links = ctx
                .neighbors()
                .iter()
                .map(|&w| Link::new(self.is_crashed(w)))
                .collect();
        }

        // 1. Process arrivals: verify integrity tags (a mismatch means
        //    the frame was corrupted in flight — ignore it; ARQ re-sends
        //    the original), advance acks, accept frames, and — when
        //    stopped — manufacture the empty frames a still-advancing
        //    peer shows it needs (its seq `s` implies it will next need
        //    our frame `s`; the gap is at most one, since it needed our
        //    frame `s − 1` to get there). The inbox is read in place (the
        //    slice outlives the ctx borrow).
        let inbox = ctx.inbox();
        for &(from, ref msg) in inbox {
            let Some(i) = ctx.neighbor_index(from) else {
                continue; // unreachable: the engine enforces adjacency
            };
            if !msg.verifies(from, me) {
                continue; // forged in flight: treat as dropped
            }
            match *msg {
                ReliableMsg::Data {
                    seq,
                    ack,
                    quiet,
                    ref payload,
                    ..
                } => {
                    if st.stopped && payload.is_some() && seq >= st.links[i].recv {
                        // New inner data after this node's quiet-wave
                        // stop (duplicates, seq < recv, were consumed
                        // before it): the `with_quiet_bound` value
                        // underestimated the diameter, and silent wrong
                        // output is the alternative. Abort the run.
                        if ctx.tx.violation.is_none() {
                            *ctx.tx.violation = Some(SimError::QuietBoundViolated {
                                node: me,
                                round: now,
                            });
                        }
                    }
                    let link = &mut st.links[i];
                    link.advance_ack(ack, now);
                    link.accept(seq, payload, quiet);
                    if st.stopped {
                        let stop_q = st.quiet;
                        let link = &mut st.links[i];
                        while link.produced <= seq {
                            link.frames.push_back((None, stop_q));
                            link.produced += 1;
                        }
                    }
                }
                ReliableMsg::Ack { ack, .. } => st.links[i].advance_ack(ack, now),
            }
        }

        // 2. Execute at most one inner (virtual) round, once every live
        //    link has delivered the previous round's frame.
        let can_exec = !st.stopped && st.links.iter().all(|l| l.dead || l.recv >= st.vr);
        if can_exec {
            let t = st.vr;
            // Inner inbox: the frame each live link queued for this
            // round, in neighbor order — the same order the engine's
            // gather produces, so inbox-order-sensitive protocols
            // behave identically.
            let mut cap = ctx.captures.lend::<P::Msg>();
            let inbox = &mut cap.inbox;
            let mut quiet_floor = u32::MAX;
            for (i, link) in st.links.iter_mut().enumerate() {
                if link.dead || t == 0 {
                    continue;
                }
                let (payload, q) = link.pending_in.pop_front().expect("synchronizer invariant");
                quiet_floor = quiet_floor.min(q);
                if let Some(m) = payload {
                    inbox.push((ctx.neighbors()[i], m));
                }
            }
            // The inner hook lives in virtual time: it runs at round
            // `t`, behind the capture's quiescence gate.
            let active = match cap.run(&self.inner, &mut st.inner, t, ctx) {
                Hook::Violation => {
                    ctx.captures.give_back(cap);
                    return; // the run is aborting
                }
                Hook::Skipped => false,
                Hook::Ran { sent } => sent || self.inner.wake(&st.inner) == Wake::Stay,
            };
            // Quiet-level update (module docs): active resets the cone,
            // inactivity grows it by one past the slowest visible
            // neighbor.
            st.quiet = if active {
                0
            } else {
                1 + st.quiet.min(quiet_floor)
            };
            let n = ctx.n() as u32;
            let lim = self.quiet_bound.map_or(n, |b| b.saturating_add(1).min(n));
            if st.quiet > lim {
                st.quiet = lim + 1; // saturate: cone already covers the graph
                st.stopped = true;
                // Satellite check: inner payloads already received for
                // virtual rounds this node will now never execute are
                // proof the quiet bound lied (under a true bound, every
                // node in the cone was provably inactive then). Surface
                // it instead of silently losing the data.
                let leftover = st.links.iter().any(|l| {
                    l.pending_in.iter().any(|f| f.0.is_some())
                        || l.ooo.iter().any(|f| f.1.is_some())
                });
                if leftover && ctx.tx.violation.is_none() {
                    *ctx.tx.violation = Some(SimError::QuietBoundViolated {
                        node: me,
                        round: now,
                    });
                }
            }
            // Frame this round's (possibly absent) payload for every
            // live link.
            for (i, link) in st.links.iter_mut().enumerate() {
                let payload = cap.take(i);
                if !link.dead {
                    link.frames.push_back((payload, st.quiet));
                    link.produced += 1;
                }
            }
            ctx.captures.give_back(cap);
            st.vr += 1;
        }

        // 3. Transmit: per link, at most one wire message per round —
        //    a new frame first, else a due retransmission of the oldest
        //    unacked frame, else a standalone ack if one is owed.
        for i in 0..degree {
            let peer = ctx.neighbors()[i];
            let link = &mut st.links[i];
            if link.dead {
                continue;
            }
            let seq = if link.next_tx < link.produced {
                Some(link.next_tx)
            } else if link.acked < link.next_tx && now >= link.timer {
                Some(link.acked)
            } else {
                None
            };
            if let Some(seq) = seq {
                let (payload, quiet) = link.frames[(seq - link.acked) as usize].clone();
                let digest = payload_digest(&payload);
                let frame = ReliableMsg::Data {
                    seq,
                    ack: link.recv,
                    quiet,
                    payload,
                    tag: frame_tag(me, peer, seq, link.recv, quiet, digest),
                };
                link.next_tx = link.next_tx.max(seq + 1);
                link.timer = now + RTO;
                link.ack_owed = false;
                ctx.send_nth(i, frame);
            } else if link.ack_owed {
                link.ack_owed = false;
                let ack = ReliableMsg::Ack {
                    ack: link.recv,
                    tag: ack_tag(me, peer, link.recv),
                };
                ctx.send_nth(i, ack);
            }
        }
    }

    fn halted(&self, st: &Self::State) -> bool {
        st.dead || (st.stopped && st.links.iter().all(|l| !l.busy()))
    }

    fn wake(&self, st: &Self::State) -> Wake {
        if st.dead {
            return Wake::Sleep;
        }
        // Stay while any link has traffic to move (unsent or unacked
        // frames drive the retransmission clock; an owed ack must go
        // out), or while the next inner round is already executable —
        // no mail will arrive to trigger it. Otherwise sleep: the frame
        // we are waiting for will arrive as mail and re-activate us
        // (its sender retransmits until we ack).
        let busy = st.links.iter().any(Link::busy);
        let can_exec =
            st.initialized && !st.stopped && st.links.iter().all(|l| l.dead || l.recv >= st.vr);
        if busy || can_exec || !st.initialized {
            Wake::Stay
        } else {
            Wake::Sleep
        }
    }

    fn finish(self, graph: &Graph, states: Vec<Self::State>, stats: &RunStats) -> Self::Output {
        let inner_states = states.into_iter().map(|s| s.inner).collect();
        self.inner.finish(graph, inner_states, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::session::Session;
    use crate::sim::{Crash, FaultPlan, SimConfig};
    use crate::tree::{positions_from_tree, AggOp, TreeAggregate};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn gnp(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        lcs_graph::generators::gnp_connected(n, p, &mut rng)
    }

    fn lossy_cfg(shards: usize, fault_seed: u64) -> SimConfig {
        SimConfig {
            shards,
            max_rounds: 100_000,
            faults: Some(FaultPlan {
                drop_rate: 0.10,
                delay_rate: 0.10,
                max_delay: 2,
                corrupt_rate: 0.05,
                crashes: Vec::new(),
                fault_seed,
            }),
            ..SimConfig::default()
        }
    }

    /// A flood from node 0 that draws from the node RNGs: every third
    /// node draws at round 0, and every odd node draws when the flood
    /// first reaches it. Its output is each node's draws, in order.
    struct DrawingFlood;

    #[derive(Debug, Default)]
    struct Draws {
        reached: bool,
        draws: Vec<u64>,
    }

    impl Protocol for DrawingFlood {
        type Msg = ();
        type State = Draws;
        type Output = Vec<Vec<u64>>;

        fn init(&mut self, graph: &Graph) -> Vec<Draws> {
            (0..graph.n()).map(|_| Draws::default()).collect()
        }
        fn round(&self, st: &mut Draws, ctx: &mut RoundCtx<'_, ()>) {
            let v = ctx.node();
            if ctx.round() == 0 && v.is_multiple_of(3) {
                st.draws.push(rand::Rng::gen(ctx.rng()));
            }
            if st.reached || (v != 0 && ctx.inbox().is_empty()) {
                return;
            }
            st.reached = true;
            if v % 2 == 1 {
                st.draws.push(rand::Rng::gen(ctx.rng()));
            }
            for i in 0..ctx.degree() {
                ctx.send_nth(i, ());
            }
        }
        fn halted(&self, _: &Draws) -> bool {
            true
        }
        fn finish(self, _: &Graph, states: Vec<Draws>, _: &RunStats) -> Vec<Vec<u64>> {
            states.into_iter().map(|s| s.draws).collect()
        }
    }

    /// A node's RNG is seeded on its first draw of a phase: its draws
    /// are the first of `ChaCha8Rng::seed_from_u64(seed ^
    /// 0x9E37_79B9_7F4A_7C15·(v + 1))` for the phase seed, a
    /// `run_configured` override included, whichever round the node
    /// first draws in. A `Reliable` host lends its node's RNG to the
    /// hosted protocol, so under drops, delays and corruption, at any
    /// shard count, the hosted draws are the raw run's.
    #[test]
    fn node_rngs_are_seeded_on_first_draw_and_lent_to_hosted_protocols() {
        let g = gnp(40, 0.15, 0x5EED);
        let expected = |seed: u64| -> Vec<Vec<u64>> {
            (0..g.n() as u64)
                .map(|v| {
                    let stream = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(v + 1);
                    let mut rng = ChaCha8Rng::seed_from_u64(stream);
                    let draws = u64::from(v.is_multiple_of(3)) + u64::from(v % 2 == 1);
                    (0..draws).map(|_| rand::Rng::gen(&mut rng)).collect()
                })
                .collect()
        };
        let raw = Session::new(&g, SimConfig::default())
            .run(DrawingFlood)
            .unwrap();
        assert_eq!(raw, expected(SimConfig::default().seed));
        let overridden = Session::new(&g, SimConfig::default())
            .run_configured("flood", DrawingFlood, |c| c.seed = 0xD1CE)
            .unwrap();
        assert_eq!(overridden, expected(0xD1CE));
        for fault_seed in [1u64, 0xBAD_F00D] {
            for shards in [1, 4] {
                let mut session = Session::new(&g, lossy_cfg(shards, fault_seed));
                let hosted = session.run(Reliable::new(DrawingFlood)).unwrap();
                assert!(session.stats().dropped > 0 && session.stats().corrupted > 0);
                assert_eq!(hosted, raw, "fault seed {fault_seed:#x}, shards {shards}");
            }
        }
    }

    /// `Reliable<Bfs>` over a 10% drop / 10% delay-≤2 network produces
    /// the exact fault-free BFS tree, and the reliability overhead
    /// (frames, retransmissions, acks) is visible in the statistics.
    #[test]
    fn reliable_bfs_matches_fault_free_output_under_drops_and_delays() {
        let g = gnp(48, 0.12, 0xFEED);
        let clean = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        for fault_seed in [1u64, 0xBAD_F00D] {
            let cfg = lossy_cfg(1, fault_seed);
            let mut session = Session::new(&g, cfg);
            let out = session.run(Reliable::new(Bfs::new(0))).unwrap();
            assert_eq!(out.dist, clean.dist, "seed {fault_seed:#x}");
            assert_eq!(out.parent, clean.parent);
            assert_eq!(out.children, clean.children);
            // Faults really fired, and reliability paid for them.
            assert!(out.stats.dropped > 0, "no drops at seed {fault_seed:#x}");
            assert!(out.stats.delayed > 0, "no delays at seed {fault_seed:#x}");
            assert!(
                out.stats.corrupted > 0,
                "no corruptions at seed {fault_seed:#x}"
            );
            assert!(
                out.stats.messages > clean.stats.messages,
                "reliability overhead must appear in message counts"
            );
            assert!(out.stats.rounds > clean.stats.rounds);
        }
    }

    /// Same guarantee for a convergecast protocol whose nodes always
    /// sleep between messages (`TreeAggregate`): the frame layer must
    /// wake them reliably.
    #[test]
    fn reliable_tree_aggregate_matches_fault_free_output() {
        let g = lcs_graph::generators::grid(6, 5);
        let clean_bfs = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let positions = positions_from_tree(0, &clean_bfs.parent, &clean_bfs.children);
        let values: Vec<u64> = (0..g.n() as u64).map(|v| v * v + 1).collect();
        let clean = Session::new(&g, SimConfig::default())
            .run(TreeAggregate::new(
                positions.clone(),
                &values,
                AggOp::Sum,
                true,
            ))
            .unwrap();
        let mut session = Session::new(&g, lossy_cfg(1, 0xD1CE));
        let (results, stats) = session
            .run(Reliable::new(TreeAggregate::new(
                positions,
                &values,
                AggOp::Sum,
                true,
            )))
            .unwrap();
        assert_eq!(results, clean.0);
        assert!(stats.dropped > 0 && stats.delayed > 0);
        assert!(stats.messages > clean.1.messages);
    }

    /// The whole lossy run — fault fates, retransmissions, outputs,
    /// fingerprint — is bit-identical at every shard count.
    #[test]
    fn reliable_bfs_under_faults_is_shard_invariant() {
        let g = gnp(40, 0.15, 0x5EED);
        let base = Session::new(&g, lossy_cfg(1, 7))
            .run(Reliable::new(Bfs::new(0)))
            .unwrap();
        for shards in [2usize, 3, 8] {
            let out = Session::new(&g, lossy_cfg(shards, 7))
                .run(Reliable::new(Bfs::new(0)))
                .unwrap();
            assert_eq!(out.dist, base.dist, "shards={shards}");
            assert_eq!(out.parent, base.parent, "shards={shards}");
            assert_eq!(
                out.stats.fingerprint(),
                base.stats.fingerprint(),
                "shards={shards}"
            );
            assert_eq!(out.stats.dropped, base.stats.dropped);
            assert_eq!(out.stats.delayed, base.stats.delayed);
        }
    }

    /// A correct diameter bound shrinks the termination quiet wave
    /// without changing the output — and materially shortens the run.
    #[test]
    fn quiet_bound_preserves_output_and_shortens_termination() {
        let g = lcs_graph::generators::grid(8, 6);
        let clean = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let unbounded = Session::new(&g, lossy_cfg(1, 99))
            .run(Reliable::new(Bfs::new(0)))
            .unwrap();
        let bounded = Session::new(&g, lossy_cfg(1, 99))
            .run(Reliable::new(Bfs::new(0)).with_quiet_bound(7 + 5))
            .unwrap();
        assert_eq!(bounded.dist, clean.dist);
        assert_eq!(bounded.parent, clean.parent);
        assert_eq!(unbounded.dist, clean.dist);
        assert!(
            bounded.stats.rounds < unbounded.stats.rounds,
            "quiet bound must cut the O(n) termination tail ({} vs {})",
            bounded.stats.rounds,
            unbounded.stats.rounds
        );
    }

    /// With a permanently crashed node and a perfect failure detector
    /// (`with_crashed`), the inner protocol completes on the surviving
    /// subgraph: distances match a fault-free BFS on the graph with the
    /// crashed node's edges removed.
    #[test]
    fn reliable_bfs_with_crashed_node_completes_on_survivors() {
        // A 6x5 grid; crash node 17 (an interior node, not the root).
        let g = lcs_graph::generators::grid(6, 5);
        let dead: NodeId = 17;
        let cfg = SimConfig {
            max_rounds: 100_000,
            faults: Some(FaultPlan {
                drop_rate: 0.10,
                delay_rate: 0.0,
                max_delay: 1,
                corrupt_rate: 0.05,
                crashes: vec![Crash {
                    node: dead,
                    at_round: 0,
                    recover_at: None,
                }],
                fault_seed: 3,
            }),
            ..SimConfig::default()
        };
        let out = Session::new(&g, cfg)
            .run(Reliable::with_crashed(Bfs::new(0), &[dead]))
            .unwrap();
        // Reference: fault-free BFS on the graph minus the dead node.
        let surviving: Vec<(NodeId, NodeId)> = g
            .edges()
            .iter()
            .copied()
            .filter(|&(a, b)| a != dead && b != dead)
            .collect();
        let gs = lcs_graph::Graph::from_edges(g.n(), &surviving).unwrap();
        let clean = Session::new(&gs, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        for v in 0..g.n() {
            if v as NodeId == dead {
                continue;
            }
            assert_eq!(out.dist[v], clean.dist[v], "node {v}");
        }
        assert_eq!(out.stats.crashed_nodes, 1);
    }

    /// A quiet bound that underestimates the diameter used to silently
    /// lose in-flight inner messages; now the first node that observes
    /// inner data after its stop aborts the run with a typed error. No
    /// faults needed: the bound alone breaks the termination argument.
    #[test]
    fn underestimated_quiet_bound_is_detected_not_silent() {
        let g = lcs_graph::generators::path(24); // diameter 23
        let err = Session::new(&g, SimConfig::default())
            .run(Reliable::new(Bfs::new(0)).with_quiet_bound(2))
            .expect_err("a bound of 2 on a diameter-23 path must be caught");
        assert!(
            matches!(err, crate::SimError::QuietBoundViolated { .. }),
            "wrong error: {err}"
        );
        // The same run with an honest bound completes exactly.
        let clean = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let ok = Session::new(&g, SimConfig::default())
            .run(Reliable::new(Bfs::new(0)).with_quiet_bound(23))
            .unwrap();
        assert_eq!(ok.dist, clean.dist);
    }

    /// The quiet bound's contract: under ANY bound, true or not, a run
    /// returns exactly the fault-free output or aborts with
    /// `QuietBoundViolated`, and a bound of at least the diameter never
    /// aborts. Swept over every bound `0..=n` on four fixed graphs under
    /// a drop + delay + corrupt plan, for a flooding protocol (`Bfs`)
    /// and one that sleeps between messages (`TreeAggregate`).
    #[test]
    fn any_quiet_bound_gives_exact_output_or_the_typed_error() {
        let graphs = [
            lcs_graph::generators::path(14),
            lcs_graph::generators::cycle(12),
            lcs_graph::generators::grid(4, 5),
            gnp(24, 0.12, 0xB0B),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.n() as u32;
            let diameter = lcs_graph::exact_diameter(g).expect("nonempty graph");
            let clean = Session::new(g, SimConfig::default())
                .run(Bfs::new(0))
                .unwrap();
            let positions = positions_from_tree(0, &clean.parent, &clean.children);
            let values: Vec<u64> = (0..u64::from(n)).map(|v| 3 * v + 1).collect();
            let agg = || TreeAggregate::new(positions.clone(), &values, AggOp::Sum, true);
            let (clean_sum, _) = Session::new(g, SimConfig::default()).run(agg()).unwrap();
            let mut aborted = 0;
            for b in 0..=n {
                let cfg = || lossy_cfg(1, 0x0B0B + u64::from(b));
                let checked = |err: SimError| {
                    assert!(
                        matches!(err, SimError::QuietBoundViolated { .. }),
                        "graph {gi}, bound {b}: {err}"
                    );
                    assert!(b < diameter, "graph {gi}: true bound {b} aborted");
                };
                match Session::new(g, cfg()).run(Reliable::new(Bfs::new(0)).with_quiet_bound(b)) {
                    Ok(out) => {
                        assert_eq!(out.dist, clean.dist, "graph {gi}, bound {b}");
                        assert_eq!(out.parent, clean.parent, "graph {gi}, bound {b}");
                        assert_eq!(out.children, clean.children, "graph {gi}, bound {b}");
                    }
                    Err(err) => {
                        checked(err);
                        aborted += 1;
                    }
                }
                match Session::new(g, cfg()).run(Reliable::new(agg()).with_quiet_bound(b)) {
                    Ok((sum, _)) => assert_eq!(sum, clean_sum, "graph {gi}, bound {b}"),
                    Err(err) => {
                        checked(err);
                        aborted += 1;
                    }
                }
            }
            assert!(
                aborted > 0,
                "graph {gi}: no bound aborted, the sweep tests nothing"
            );
        }
    }

    /// Transient outages (state intact, in-flight mail lost) are
    /// absorbed with no rejoin protocol: the output is byte-identical to
    /// fault-free at every shard count, and since the neighbors resend
    /// their oldest unacked frame every `RTO` rounds, the run ends by the
    /// recovery round plus the fault-free Reliable run plus one timeout.
    #[test]
    fn transient_outage_costs_its_length_plus_one_timeout() {
        let g = lcs_graph::generators::grid(6, 5);
        let clean = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let unfaulted = Session::new(&g, SimConfig::default())
            .run(Reliable::new(Bfs::new(0)))
            .unwrap();
        // Two outages: one node down from phase start, one knocked out
        // mid-run; both come back at round 40.
        let recover = 40;
        let faulty_cfg = |shards| SimConfig {
            shards,
            max_rounds: 100_000,
            faults: Some(FaultPlan {
                crashes: vec![
                    Crash {
                        node: 7,
                        at_round: 0,
                        recover_at: Some(recover),
                    },
                    Crash {
                        node: 22,
                        at_round: 3,
                        recover_at: Some(recover),
                    },
                ],
                ..FaultPlan::default()
            }),
            ..SimConfig::default()
        };
        let base = Session::new(&g, faulty_cfg(1))
            .run(Reliable::new(Bfs::new(0)))
            .unwrap();
        for shards in [1usize, 2, 8] {
            let out = Session::new(&g, faulty_cfg(shards))
                .run(Reliable::new(Bfs::new(0)))
                .unwrap();
            assert_eq!(out.dist, clean.dist, "shards={shards}");
            assert_eq!(out.parent, clean.parent, "shards={shards}");
            assert_eq!(out.children, clean.children, "shards={shards}");
            assert_eq!(out.stats, base.stats, "shards={shards}");
        }
        assert!(
            base.stats.rounds <= recover + unfaulted.stats.rounds + RTO,
            "the outage cost more than its length plus one timeout \
             ({} rounds, {} without faults)",
            base.stats.rounds,
            unfaulted.stats.rounds
        );
    }

    /// The one-mix tags keep what a tag must: every branch of
    /// `ReliableMsg::corrupted` fails the check, on data frames with
    /// and without a payload and on acks, and a change to any one
    /// covered field changes the tag.
    #[test]
    fn every_corruption_fails_the_one_mix_tag() {
        use crate::bfs::BfsMsg;
        use crate::tree::TreeMsg;

        /// Corrupts `frame` on a spread of streams, asserting that each
        /// corruption changes exactly one field and fails the check,
        /// and returns the fields the corruptions changed.
        fn fields_hit<M: Message + PartialEq>(frame: &ReliableMsg<M>) -> Vec<&'static str> {
            let (from, to) = (3, 11);
            let mut hit = Vec::new();
            for k in 0..64u64 {
                let bad = frame.clone().corrupted(splitmix64(k));
                let changed: Vec<&str> = match (frame, &bad) {
                    (
                        ReliableMsg::Data {
                            seq,
                            ack,
                            quiet,
                            payload,
                            tag,
                        },
                        ReliableMsg::Data {
                            seq: s,
                            ack: a,
                            quiet: q,
                            payload: p,
                            tag: t,
                        },
                    ) => [
                        ("seq", s != seq),
                        ("ack", a != ack),
                        ("quiet", q != quiet),
                        ("payload", p != payload),
                        ("tag", t != tag),
                    ]
                    .iter()
                    .filter_map(|&(field, moved)| moved.then_some(field))
                    .collect(),
                    (ReliableMsg::Ack { ack, tag }, ReliableMsg::Ack { ack: a, tag: t }) => {
                        [("ack", a != ack), ("tag", t != tag)]
                            .iter()
                            .filter_map(|&(field, moved)| moved.then_some(field))
                            .collect()
                    }
                    _ => panic!("corruption changed the frame kind"),
                };
                assert_eq!(changed.len(), 1, "{frame:?} -> {bad:?}");
                assert!(!bad.verifies(from, to), "{frame:?} -> {bad:?} verifies");
                if !hit.contains(&changed[0]) {
                    hit.push(changed[0]);
                }
            }
            hit.sort_unstable();
            hit
        }
        fn data<M: Message>(seq: u64, ack: u64, quiet: u32, payload: Option<M>) -> ReliableMsg<M> {
            let tag = frame_tag(3, 11, seq, ack, quiet, payload_digest(&payload));
            ReliableMsg::Data {
                seq,
                ack,
                quiet,
                payload,
                tag,
            }
        }
        let with_payload = ["ack", "payload", "seq", "tag"];
        let without = ["ack", "seq", "tag"];
        for (seq, ack, quiet) in [(0, 0, 0), (5, 4, 1), (u64::MAX, 1 << 40, u32::MAX)] {
            assert_eq!(fields_hit(&data::<BfsMsg>(seq, ack, quiet, None)), without);
            for m in [
                BfsMsg::Token { dist: 0 },
                BfsMsg::Token { dist: 9 },
                BfsMsg::Child,
            ] {
                assert_eq!(fields_hit(&data(seq, ack, quiet, Some(m))), with_payload);
            }
            for m in [TreeMsg::Up(0u64), TreeMsg::Up(u64::MAX), TreeMsg::Down(77)] {
                assert_eq!(fields_hit(&data(seq, ack, quiet, Some(m))), with_payload);
            }
            let ack_frame = ReliableMsg::<BfsMsg>::Ack {
                ack,
                tag: ack_tag(3, 11, ack),
            };
            assert_eq!(fields_hit(&ack_frame), ["ack", "tag"]);
        }

        // Any one covered field, changed by any amount, moves the tag.
        let base = (7u64, 6u64, 2u32, BfsMsg::Child.digest());
        let tag =
            |(seq, ack, quiet, pd): (u64, u64, u32, u64)| frame_tag(3, 11, seq, ack, quiet, pd);
        for k in 0..64u64 {
            let d = splitmix64(k) | 1 << (k % 64);
            let (seq, ack, quiet, pd) = base;
            assert_ne!(tag((seq ^ d, ack, quiet, pd)), tag(base), "seq ^ {d:#x}");
            assert_ne!(tag((seq, ack ^ d, quiet, pd)), tag(base), "ack ^ {d:#x}");
            assert_ne!(
                tag((seq, ack, quiet ^ (d as u32 | 1), pd)),
                tag(base),
                "quiet ^ {d:#x}"
            );
            assert_ne!(tag((seq, ack, quiet, pd ^ d)), tag(base), "digest ^ {d:#x}");
            assert_ne!(ack_tag(3, 11, ack ^ d), ack_tag(3, 11, ack), "ack ^ {d:#x}");
        }
    }

    /// The full Byzantine-tier plan — drops, delays, *and* payload
    /// corruption — leaves `Reliable<Bfs>` byte-identical to fault-free
    /// at shard counts {1, 2, 8}: corrupted frames fail their integrity
    /// tags, are treated as drops, and ARQ re-sends them intact.
    #[test]
    fn reliable_bfs_is_exact_and_shard_invariant_under_corruption() {
        let g = gnp(40, 0.15, 0xC0DE);
        let clean = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let base = Session::new(&g, lossy_cfg(1, 0xFACE))
            .run(Reliable::new(Bfs::new(0)))
            .unwrap();
        assert_eq!(base.dist, clean.dist);
        assert_eq!(base.parent, clean.parent);
        assert!(base.stats.corrupted > 0, "corruption tier must fire");
        for shards in [2usize, 8] {
            let out = Session::new(&g, lossy_cfg(shards, 0xFACE))
                .run(Reliable::new(Bfs::new(0)))
                .unwrap();
            assert_eq!(out.dist, base.dist, "shards={shards}");
            assert_eq!(out.stats, base.stats, "shards={shards}");
            assert_eq!(
                out.stats.fingerprint(),
                base.stats.fingerprint(),
                "shards={shards}"
            );
        }
    }
}
