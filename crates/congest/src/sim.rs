//! The synchronous CONGEST simulator engine. It has one entry point:
//! a [`Session`](crate::Session) runs each [`Protocol`] phase through
//! the crate-internal `run_phase`, on the session's persistent
//! `EngineHost`. This module also defines the run configuration
//! ([`SimConfig`]) and the fault model ([`FaultPlan`]).
//!
//! # Mailbox layout
//!
//! Delivery is **arc-indexed**: the engine preallocates one flat
//! payload slot (`MaybeUninit<Msg>` — no `Option` discriminant, so a
//! buffer is exactly `num_arcs · size_of::<Msg>()` bytes) per directed
//! arc of the graph, in CSR order, plus one occupancy byte per arc. A
//! message sent over arc `a = (u → v)` is written into slot `a` — the
//! slot owned by the *sender's* adjacency range — so
//!
//! * delivery is a single slot write plus an occupancy-byte store,
//! * the CONGEST one-message-per-neighbor-per-round discipline is an
//!   occupancy-byte check (no stamp array, no hash set),
//! * the undirected [`EdgeId`](lcs_graph::EdgeId) for stats is
//!   `arc_edges[a]` (no `edge_between` binary search per message), and
//! * the in-flight count is the length of the per-shard dirty lists
//!   (no `O(n)` scan per round).
//!
//! A receiver `v` gathers its inbox by walking its own arc range and
//! reading slot `rev[b]` for each arc `b = (v → u)` — the
//! opposite-direction arc of the same edge, precomputed once per run.
//!
//! Two buffers alternate roles by round parity: buffer `r mod 2` is
//! read (current round's deliveries) while buffer `(r + 1) mod 2` is
//! written (next round's deliveries). The buffers never move, so the
//! persistent workers below can hold their views for the whole run. A
//! slot written in round `r` is read in round `r + 1` and wiped by its
//! owning shard at the start of round `r + 2`, just before that buffer
//! becomes the write target again; only dirty slots are ever touched.
//!
//! # Event-driven active sets
//!
//! Rounds are **event-driven**: a node's `round` hook runs only while
//! the node is *active* — the phase just started (round 0), mail
//! arrived this round, or the node's previous round requested
//! [`Wake::Stay`] (see [`crate::Wake`]; the default derives the signal
//! from `halted`, so a halted node sleeps until mail arrives). Each
//! shard keeps a sorted active list plus a membership bitmap:
//!
//! * a **stay** decision re-enqueues the node locally;
//! * a **send** marks the receiver's mail flag and enqueues a wake —
//!   directly into the local active list when the receiver is in the
//!   sending shard, or into a per-`(sender, receiver)`-shard **wake
//!   queue** otherwise, which the receiving shard drains at the start
//!   of its next round. Wake queues alternate by round parity exactly
//!   like the mailbox buffers, so the writer (sender shard) and the
//!   reader (receiver shard) never touch the same queue in the same
//!   phase.
//!
//! A round therefore costs `O(active nodes + delivered messages)` —
//! independent of `n` — and the run ends when no shard has a stay or a
//! message in flight. When the upcoming round's total work (active
//! nodes + in-flight messages) is tiny, the coordinator runs it
//! **inline** ([`Control::ContinueInline`]) instead of releasing the
//! worker barrier, so an all-but-quiescent round costs `O(1)` at every
//! shard count — thin-frontier protocols no longer pay two barrier
//! crossings per round for idle workers.
//!
//! # Persistent sharded rounds
//!
//! Nodes are split into contiguous shards ([`SimConfig::shards`]). The
//! shards are executed by a **persistent worker pool**
//! ([`crate::pool`]): one thread per shard, spawned once per engine
//! host (= per [`Session`](crate::Session)) and synchronized
//! by a reusable two-phase barrier — a *send phase* (every worker runs
//! its shard's active nodes and applies their sends) and a *deliver
//! phase* (the coordinator aggregates the shard reports, advances the
//! round, and decides termination). The host also keeps every untyped
//! per-run structure — mail flags, wake queues, per-shard cores (active
//! lists, dirty lists, per-arc counters, and the capture buffers lent
//! to [`Reliable`](crate::Reliable) hosts) —
//! across phases, and recycles the message-typed mailbox buffers
//! through a size-class slab arena, so a steady-state pipeline phase
//! allocates almost nothing.
//!
//! ## Safety protocol of the shared mailboxes
//!
//! The mailbox buffers are shared across workers through interior
//! mutability (`Slot`). Soundness rests on three invariants, enforced
//! structurally and ordered by the pool's barriers:
//!
//! 1. During a round's send phase, slot `a` of the **write** buffer is
//!    mutated only by the shard owning arc `a` (sends land in the
//!    sender's own arc range; the deferred wipe touches only the
//!    shard's own `dirty_in` list, which holds own-range arcs).
//! 2. The **read** buffer is never written during a send phase, and
//!    slot `rev[b]` is read only by the shard owning arc `b` — each
//!    slot has exactly one reader and one writer, in different phases.
//! 3. The barrier crossings between phases provide the happens-before
//!    edges that make writes of one phase visible to the next.
//!
//! The cross-shard wake queues obey the same discipline with parity in
//! place of buffer role: queue `(p, t, s)` is **written** only by shard
//! `t` during send phases of parity `p` and **drained** (read + cleared)
//! only by shard `s` during send phases of parity `1 − p`, with the
//! barriers ordering the phases. Inline rounds run every shard's step
//! on the coordinator between barrier crossings — a superset of each
//! worker's exclusive access, ordered against the workers by the next
//! barrier crossing.
//!
//! # Determinism contract
//!
//! Active lists are sorted before execution, so nodes run in ascending
//! id order — the sequential engine's order — regardless of the order
//! wakes arrived; a node's sends land in its own arc range, shard write
//! regions are disjoint, per-shard statistics are merged in shard
//! order, every per-run quantity is an order-independent integer sum,
//! and a node's RNG is seeded on its first draw from the phase seed and
//! its id alone ([`RoundCtx::rng`]). The outcome (node states, per-node
//! RNG streams, and
//! [`RunStats`], including [`RunStats::per_edge_messages`] and
//! [`RunStats::delivered_rounds`]) is therefore **bit-identical to the
//! sequential engine for any shard count**, and — for protocols obeying
//! the [`Wake`] quiescence contract — bit-identical to the
//! retired full-scan engine, which invoked every node every round.
//! Model violations abort with exactly the error the sequential engine
//! would have reported first (lowest shard, then lowest node), and with
//! statistics cut at the end of the last completed round. This
//! contract is enforced by the tier-1 differential suite
//! (`tests/shard_equivalence.rs`), tier-2 proptests, and the
//! shard-sweep determinism check in the `sim_throughput` bench.

use crate::arena::SlabArena;
use crate::capture::Captures;
use crate::error::SimError;
use crate::hash::splitmix64;
use crate::message::Message;
use crate::node::{RoundCtx, TxState, Wake, WireFx};
use crate::pool::{Control, Pool};
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{ArcId, Graph, NodeId};
use rand_chacha::ChaCha8Rng;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// One scheduled crash-stop in a [`FaultPlan`]: the node falls silent
/// from `at_round` on — its `round` hook is not invoked, it sends
/// nothing, and every message delivered to it while down is destroyed
/// (counted in [`RunStats::dropped`]). With `recover_at = Some(r)` the
/// node resumes at round `r` with its state intact but its inbox lost
/// (messages that arrived while it was down stay dropped); it is
/// re-activated at `r` even without fresh mail.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// The node that crash-stops.
    pub node: NodeId,
    /// First round the node is down.
    pub at_round: u64,
    /// Round the node comes back up (`None`: crashed for good).
    pub recover_at: Option<u64>,
}

/// A deterministic adversarial fault schedule, attached to a run via
/// [`SimConfig::faults`].
///
/// Message fates are decided by a pure hash of
/// `(fault_seed, round, arc)` — no RNG stream is consumed — so a plan's
/// outcome is **bit-identical at every shard count**, exactly like the
/// rest of the engine (module docs, determinism contract). Fates are
/// applied on the receiving side at gather time: a doomed message still
/// occupies its wire slot and still counts in `messages`/`words`/
/// per-edge traffic (the send happened; the *delivery* fails), and the
/// send path is untouched, so a run without a plan pays nothing.
///
/// * **Drop** (probability [`FaultPlan::drop_rate`]): the message is
///   destroyed; [`RunStats::dropped`] counts it.
/// * **Delay** (probability [`FaultPlan::delay_rate`], evaluated after
///   the drop check): delivery is deferred `k ∈ [1, max_delay]` extra
///   rounds through a bounded per-shard reorder buffer;
///   [`RunStats::delayed`] counts it. A delayed delivery wakes its
///   receiver (the quiescence contract holds: the run cannot end while
///   deliveries are pending), and late messages are appended after the
///   round's fresh mail in a deterministic `(decided round, sender)`
///   order — so one neighbor may deliver *two* messages in one round,
///   which is precisely the reordering a reliability layer
///   ([`Reliable`](crate::Reliable)) must survive.
/// * **Crash-stop** ([`FaultPlan::crashes`]): see [`Crash`].
/// * **Corrupt** (probability [`FaultPlan::corrupt_rate`], evaluated on
///   deliveries that survive the drop check — both on-time and delayed
///   ones): the payload is replaced by
///   [`Message::corrupted`] with a
///   flip stream drawn from the same splitmix64 fate chain, so *which
///   bits flip* is as deterministic and shard-invariant as the fate
///   itself; [`RunStats::corrupted`] counts it. The raw engine delivers
///   the lie verbatim — detecting it is the job of an integrity-tagged
///   transport ([`Reliable`](crate::Reliable)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a delivery is destroyed, in `[0, 1]`.
    pub drop_rate: f64,
    /// Probability a surviving delivery is deferred, in `[0, 1]`.
    pub delay_rate: f64,
    /// Upper bound (inclusive) on the extra rounds a delayed message
    /// waits; must be ≥ 1 when `delay_rate > 0` and `< max_rounds`.
    pub max_delay: u64,
    /// Probability a surviving delivery's payload is corrupted in
    /// flight, in `[0, 1]`.
    pub corrupt_rate: f64,
    /// Scheduled crash-stops, at most one per node.
    pub crashes: Vec<Crash>,
    /// Seed of the fate hash — independent of [`SimConfig::seed`], so
    /// the same algorithm randomness can be replayed under different
    /// fault schedules and vice versa.
    pub fault_seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 1,
            corrupt_rate: 0.0,
            crashes: Vec::new(),
            fault_seed: 0xBAD_F00D,
        }
    }
}

impl FaultPlan {
    /// A drop-only plan (the common chaos knob).
    pub fn drops(rate: f64, fault_seed: u64) -> Self {
        FaultPlan {
            drop_rate: rate,
            fault_seed,
            ..FaultPlan::default()
        }
    }

    /// Checks the plan against an `n`-node graph and a round limit;
    /// every inconsistency is a [`SimError::FaultConfig`] with an
    /// actionable message. Called eagerly by [`SimConfig::validate`] —
    /// before any round executes and before anything is allocated per
    /// crashed node id.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultConfig`] naming the offending field.
    pub fn validate(&self, n: usize, max_rounds: u64) -> Result<(), SimError> {
        let rate_ok = |r: f64| r.is_finite() && (0.0..=1.0).contains(&r);
        if !rate_ok(self.drop_rate) {
            return Err(SimError::FaultConfig {
                reason: format!(
                    "drop_rate {} is outside [0, 1]; pick a probability",
                    self.drop_rate
                ),
            });
        }
        if !rate_ok(self.delay_rate) {
            return Err(SimError::FaultConfig {
                reason: format!(
                    "delay_rate {} is outside [0, 1]; pick a probability",
                    self.delay_rate
                ),
            });
        }
        if !rate_ok(self.corrupt_rate) {
            return Err(SimError::FaultConfig {
                reason: format!(
                    "corrupt_rate {} is outside [0, 1]; pick a probability",
                    self.corrupt_rate
                ),
            });
        }
        if self.delay_rate > 0.0 && self.max_delay == 0 {
            return Err(SimError::FaultConfig {
                reason: "delay_rate > 0 with max_delay 0; a delayed message must wait \
                         at least one round — set max_delay >= 1"
                    .to_string(),
            });
        }
        if self.max_delay >= max_rounds {
            return Err(SimError::FaultConfig {
                reason: format!(
                    "max_delay {} is not below the round limit {}; a delivery could be \
                     deferred past the end of the run — lower max_delay or raise max_rounds",
                    self.max_delay, max_rounds
                ),
            });
        }
        let mut seen: Vec<NodeId> = Vec::with_capacity(self.crashes.len());
        for c in &self.crashes {
            if c.node as usize >= n {
                return Err(SimError::FaultConfig {
                    reason: format!(
                        "crash names node {} but the graph has {n} nodes (ids 0..{n}); \
                         crash an existing node",
                        c.node
                    ),
                });
            }
            if c.at_round >= max_rounds {
                return Err(SimError::FaultConfig {
                    reason: format!(
                        "crash of node {} at round {} is beyond the round budget {}; \
                         it could never fire — schedule it earlier or raise max_rounds",
                        c.node, c.at_round, max_rounds
                    ),
                });
            }
            if let Some(r) = c.recover_at {
                if r <= c.at_round {
                    return Err(SimError::FaultConfig {
                        reason: format!(
                            "node {} recovers at round {r} but crashes at round {}; \
                             recovery must be strictly later",
                            c.node, c.at_round
                        ),
                    });
                }
            }
            if seen.contains(&c.node) {
                return Err(SimError::FaultConfig {
                    reason: format!(
                        "node {} is listed twice in crashes; at most one crash per node",
                        c.node
                    ),
                });
            }
            seen.push(c.node);
        }
        Ok(())
    }
}

/// Configuration of a simulator run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Abort with [`SimError::RoundLimitExceeded`] after this many
    /// rounds without quiescence.
    pub max_rounds: u64,
    /// Master seed of a phase. A node's RNG is seeded from it and the
    /// node id on the node's first draw of the phase
    /// ([`RoundCtx::rng`]); a node that never draws seeds nothing.
    pub seed: u64,
    /// Number of contiguous node shards executed by the persistent
    /// worker pool ([`crate::pool`]), one thread per shard. `0` (the
    /// default) resolves to [`std::thread::available_parallelism`],
    /// lowered so every shard gets at least 4,096 nodes (see
    /// [`SimConfig::resolved_shards`]): large graphs use multi-core
    /// hardware out of the box, and graphs under 8,192 nodes run on one
    /// shard; `1` runs fully sequentially on the calling thread. Any
    /// value produces bit-identical outcomes (see the module docs'
    /// determinism contract), so the choice is purely about wall-clock.
    pub shards: usize,
    /// Deterministic adversarial fault schedule (`None`: a perfect
    /// network, at zero cost — the fault machinery is not even built).
    pub faults: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 1_000_000,
            seed: 0xC0FFEE,
            shards: 0,
            faults: None,
        }
    }
}

/// Minimum nodes per shard for auto-sizing (`shards = 0`): below this,
/// a shard's per-round work (~ns per active node) cannot amortize the
/// two barrier crossings a pooled round costs, so small graphs run
/// sequentially rather than paying thread overhead for nothing.
/// Explicit shard counts are honored regardless (clamped to `n` only).
const AUTO_MIN_NODES_PER_SHARD: usize = 4096;

/// When the upcoming round's total work (active nodes + in-flight
/// messages) is at most this, the coordinator executes the round inline
/// — all shard steps on its own thread — instead of releasing the
/// worker barrier. Running a handful of nodes costs well under the two
/// barrier crossings a pooled round pays, and keeping sparse rounds off
/// the barrier is what makes a quiescent network's rounds `O(1)` at
/// every shard count.
const INLINE_WORK_MAX: u64 = 64;

impl SimConfig {
    /// The effective shard count for an `n`-node run: `0` resolves to
    /// the machine's available parallelism, clamped so every shard gets
    /// at least `AUTO_MIN_NODES_PER_SHARD` (4096) nodes — tiny graphs
    /// run sequentially, where barrier crossings would dominate. Any
    /// explicit value is clamped to `[1, max(n, 1)]` (more shards than
    /// nodes would only idle).
    pub fn resolved_shards(&self, n: usize) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(n / AUTO_MIN_NODES_PER_SHARD)
                .max(1)
        } else {
            self.shards.clamp(1, n.max(1))
        }
    }

    /// Eagerly checks the configuration for an `n`-node graph — today
    /// that means the attached [`FaultPlan`], if any. Called by every
    /// [`Session`](crate::Session) phase dispatch before any round
    /// executes, so an inconsistent plan fails fast with an actionable
    /// [`SimError::FaultConfig`] instead of corrupting a run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultConfig`] describing the inconsistency.
    pub fn validate(&self, n: usize) -> Result<(), SimError> {
        if let Some(plan) = &self.faults {
            plan.validate(n, self.max_rounds)?;
        }
        Ok(())
    }
}

/// The fate hash of one delivery: a pure function of
/// `(fault_seed, round, arc)`, identical at every shard count.
#[inline(always)]
fn fate_hash(seed: u64, round: u64, arc: u64) -> u64 {
    splitmix64(
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ arc.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// Converts a probability into a threshold for a uniform 64-bit hash.
fn rate_bar(rate: f64) -> u64 {
    if rate >= 1.0 {
        u64::MAX
    } else if rate <= 0.0 {
        0
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

/// Per-shard fault machinery, built only when the run carries a
/// [`FaultPlan`]. Everything is **receiver-shard-local** — fates are
/// decided and delayed messages are parked on the shard that owns the
/// destination node — so no cross-shard synchronization is added and
/// the decisions (pure hashes) are shard-count-invariant.
struct FaultState<M> {
    drop_bar: u64,
    delay_bar: u64,
    corrupt_bar: u64,
    max_delay: u64,
    fault_seed: u64,
    /// Reorder buffer: bucket `r % ring.len()` holds the deliveries due
    /// at round `r`, as `(to, from, decided_round, payload)`.
    ring: Vec<Vec<(u32, NodeId, u64, M)>>,
    /// This round's due deliveries, sorted by `(to, decided_round,
    /// from)` and consumed front-to-back as the ascending active list
    /// reaches each receiver.
    due: std::collections::VecDeque<(u32, NodeId, u64, M)>,
    /// Total messages currently parked in `ring` (reported to the
    /// coordinator: the run must not quiesce while deliveries are
    /// pending).
    pending: u64,
    /// Crash state per own node, indexed `v - node_lo`; empty when the
    /// plan schedules no crashes in this shard's span.
    down: Vec<bool>,
    /// Crash/recovery events in this shard's span:
    /// `(round, node, is_recovery)`, sorted, consumed via `ecursor`.
    events: Vec<(u64, u32, bool)>,
    ecursor: usize,
    /// Recovery events not yet fired. Reported to the coordinator as
    /// pending work: a scheduled recovery must keep the run alive (the
    /// recovered node may resume sending), while a scheduled crash of an
    /// already-quiescent network is unobservable and must not.
    pending_recoveries: u64,
    dropped: u64,
    delayed: u64,
    corrupted: u64,
}

impl<M: Message> FaultState<M> {
    fn new(plan: &FaultPlan, node_lo: usize, node_hi: usize) -> Self {
        let delay_bar = rate_bar(plan.delay_rate);
        let buckets = if delay_bar > 0 {
            plan.max_delay as usize + 1
        } else {
            1
        };
        let mut events: Vec<(u64, u32, bool)> = Vec::new();
        for c in &plan.crashes {
            let v = c.node as usize;
            if v >= node_lo && v < node_hi {
                events.push((c.at_round, c.node, false));
                if let Some(r) = c.recover_at {
                    events.push((r, c.node, true));
                }
            }
        }
        events.sort_unstable();
        let pending_recoveries = events.iter().filter(|e| e.2).count() as u64;
        FaultState {
            drop_bar: rate_bar(plan.drop_rate),
            delay_bar,
            corrupt_bar: rate_bar(plan.corrupt_rate),
            max_delay: plan.max_delay.max(1),
            fault_seed: plan.fault_seed,
            ring: (0..buckets).map(|_| Vec::new()).collect(),
            due: std::collections::VecDeque::new(),
            pending: 0,
            down: if events.is_empty() {
                Vec::new()
            } else {
                vec![false; node_hi - node_lo]
            },
            events,
            ecursor: 0,
            pending_recoveries,
            dropped: 0,
            delayed: 0,
            corrupted: 0,
        }
    }

    /// Work the coordinator must not quiesce past: messages parked in
    /// the reorder ring plus recoveries still scheduled.
    #[inline]
    fn pending_work(&self) -> u64 {
        self.pending + self.pending_recoveries
    }

    /// Whether own node `v` is currently crashed.
    #[inline]
    fn is_down(&self, v: usize, node_lo: usize) -> bool {
        !self.down.is_empty() && self.down[v - node_lo]
    }

    /// Round-start fault processing: applies this round's crash and
    /// recovery events (a recovering node is re-activated — state
    /// intact, inbox lost), then pulls the round's due deliveries out
    /// of the reorder ring, orders them deterministically, and
    /// activates every receiver (a delayed delivery must wake its
    /// receiver). Runs before the active-list swap, so the activations
    /// land in **this** round's list.
    fn begin_round(
        &mut self,
        round: u64,
        next_active: &mut Vec<u32>,
        in_set: &mut [bool],
        node_lo: u32,
    ) {
        while let Some(&(r, node, recovery)) = self.events.get(self.ecursor) {
            if r > round {
                break;
            }
            self.ecursor += 1;
            self.down[(node - node_lo) as usize] = !recovery;
            if recovery {
                self.pending_recoveries -= 1;
                activate(next_active, in_set, node_lo, node);
            }
        }
        debug_assert!(self.due.is_empty());
        let bucket = (round % self.ring.len() as u64) as usize;
        if !self.ring[bucket].is_empty() {
            let mut due = std::mem::take(&mut self.ring[bucket]);
            self.pending -= due.len() as u64;
            due.sort_unstable_by_key(|&(to, from, decided, _)| (to, decided, from));
            for &(to, ..) in &due {
                activate(next_active, in_set, node_lo, to);
            }
            self.due = due.into();
        }
    }

    /// Applies the fate of one delivery on arc `arc` gathered at
    /// `round` by node `to`: pushes it into `inbox` (delivered, possibly
    /// corrupted), parks it in the reorder ring (delayed, possibly
    /// corrupted), or destroys it (dropped).
    ///
    /// Fate chain: `h` decides drop; `h2 = splitmix64(h)` decides delay
    /// (and seeds the delay amount); `hc = splitmix64(h2 ^ CORRUPT_SALT)`
    /// decides corruption (and seeds the flip stream). Every draw chains
    /// from the previous one unconditionally, so a plan with
    /// `corrupt_rate: 0.0` reproduces bit-for-bit the fates of a plan
    /// without the field, and corruption never perturbs drop/delay
    /// decisions. Corruption applies *before* the delay branch, so
    /// delayed deliveries carry the lie too.
    #[inline]
    fn deliver(
        &mut self,
        round: u64,
        arc: usize,
        to: u32,
        from: NodeId,
        mut msg: M,
        inbox: &mut Vec<(NodeId, M)>,
    ) {
        /// Decorrelates the corrupt draw from the delay-amount draw
        /// (both chain from `h2`).
        const CORRUPT_SALT: u64 = 0x05EE_DC0D_EBAD_CAFE;
        let h = fate_hash(self.fault_seed, round, arc as u64);
        if h < self.drop_bar {
            self.dropped += 1;
            return;
        }
        let h2 = splitmix64(h);
        if self.corrupt_bar > 0 {
            let hc = splitmix64(h2 ^ CORRUPT_SALT);
            if hc < self.corrupt_bar {
                msg = msg.corrupted(splitmix64(hc));
                self.corrupted += 1;
            }
        }
        if self.delay_bar > 0 && h2 < self.delay_bar {
            let k = 1 + splitmix64(h2) % self.max_delay;
            let bucket = ((round + k) % self.ring.len() as u64) as usize;
            self.ring[bucket].push((to, from, round, msg));
            self.pending += 1;
            self.delayed += 1;
            return;
        }
        inbox.push((from, msg));
    }

    /// Appends node `v`'s due delayed deliveries to its inbox (called
    /// after the fresh gather; the due list is sorted by receiver and
    /// the active list ascends, so consumption is a front pop).
    #[inline]
    fn take_due(&mut self, v: u32, inbox: &mut Vec<(NodeId, M)>) {
        while let Some(&(to, ..)) = self.due.front() {
            if to != v {
                break;
            }
            let (_, from, _, msg) = self.due.pop_front().unwrap();
            inbox.push((from, msg));
        }
    }

    /// Destroys node `v`'s due delayed deliveries (the receiver is
    /// down; a delayed message to a crashed node is dropped).
    #[inline]
    fn drop_due(&mut self, v: u32) {
        while let Some(&(to, ..)) = self.due.front() {
            if to != v {
                break;
            }
            self.due.pop_front();
            self.dropped += 1;
        }
    }
}

/// One arc-indexed mailbox payload slot, interior-mutable so the two
/// parity buffers can alternate read/write roles across the persistent
/// workers without re-borrowing each round. The payload is stored flat
/// (`MaybeUninit`, no `Option` discriminant); whether it is live is
/// tracked by the matching [`OccCell`] occupancy byte. See the module
/// docs for the ownership protocol that makes the `Sync` impl sound.
#[repr(transparent)]
struct Slot<M>(UnsafeCell<std::mem::MaybeUninit<M>>);

// SAFETY: slots are accessed under the engine's round protocol (module
// docs): per phase, each slot has at most one accessor — the owner of
// its arc for writes, the owner of the reverse arc for reads — and the
// pool's barriers order the phases.
unsafe impl<M: Send + Sync> Sync for Slot<M> {}

/// One arc-indexed occupancy byte, parallel to a [`Slot`]. A full byte
/// per arc rather than a bitset: a bitset word could straddle two
/// shards' arc ranges and turn the disjoint-span write protocol into a
/// data race, while bytes are distinct memory locations.
pub(crate) struct OccCell(UnsafeCell<bool>);

// SAFETY: same access protocol as the payload slot it describes.
unsafe impl Sync for OccCell {}

/// One cross-shard wake queue: destinations of messages a shard sent
/// into another shard's node span this round, drained by the owning
/// shard next round. Interior-mutable under the same parity protocol as
/// the mailbox slots (module docs).
pub(crate) struct WakeCell(pub(crate) UnsafeCell<Vec<u32>>);

// SAFETY: queue `(parity, sender, dest)` is written only by the sender
// shard in send phases of its parity and drained only by the dest shard
// in send phases of the opposite parity; barriers order the phases.
unsafe impl Sync for WakeCell {}

/// The full set of cross-shard wake queues: for each round parity, one
/// queue per `(sender shard, destination shard)` pair.
struct WakeMatrix {
    shards: usize,
    /// `bufs[parity][sender * shards + dest]`.
    bufs: [Vec<WakeCell>; 2],
}

impl WakeMatrix {
    fn new(shards: usize) -> Self {
        let mk = || {
            (0..shards * shards)
                .map(|_| WakeCell(UnsafeCell::new(Vec::new())))
                .collect()
        };
        WakeMatrix {
            shards,
            bufs: [mk(), mk()],
        }
    }

    /// Empties every queue (phase-start reset; queue capacity is kept).
    fn clear(&mut self) {
        for buf in &mut self.bufs {
            for cell in buf {
                cell.0.get_mut().clear();
            }
        }
    }
}

/// Inserts `v` into a shard's next-round active list iff absent,
/// maintaining the membership bitmap (indexed `v - node_lo`). Every
/// activation path — local wire sends ([`WireFx`]), cross-shard wake
/// drains, and [`Wake::Stay`] re-enqueues — goes through here: it is
/// the single owner of the duplicate-free invariant that the
/// full-span list regeneration in `run_shard` relies on.
#[inline]
pub(crate) fn activate(next_active: &mut Vec<u32>, in_set: &mut [bool], node_lo: u32, v: u32) {
    let off = (v - node_lo) as usize;
    if !in_set[off] {
        in_set[off] = true;
        next_active.push(v);
    }
}

/// Reborrows a shard's own contiguous arc span as plain mutable flat
/// slots (the form [`TxState`] consumes).
///
/// # Safety
///
/// The caller must hold exclusive access to every slot in `slots` for
/// the duration of the borrow — guaranteed by the engine protocol for a
/// shard's own arc span of the write buffer during its send phase.
/// Layout: `Slot<M>` is `repr(transparent)` over
/// `UnsafeCell<MaybeUninit<M>>`, which has the representation of `M`.
#[allow(clippy::mut_from_ref)]
unsafe fn own_slots_mut<M>(slots: &[Slot<M>]) -> &mut [std::mem::MaybeUninit<M>] {
    std::slice::from_raw_parts_mut(slots.as_ptr() as *mut std::mem::MaybeUninit<M>, slots.len())
}

/// Reborrows a shard's own contiguous arc span of occupancy bytes as a
/// plain mutable slice.
///
/// # Safety
///
/// Same exclusive-access requirement as [`own_slots_mut`], for the
/// matching occupancy array.
#[allow(clippy::mut_from_ref)]
unsafe fn own_occ_mut(occ: &[OccCell]) -> &mut [bool] {
    std::slice::from_raw_parts_mut(occ.as_ptr() as *mut bool, occ.len())
}

/// Requests an early cache fill of the line holding `p`. Purely a
/// performance hint — a no-op on architectures without a stable
/// prefetch intrinsic.
#[inline(always)]
fn prefetch_read<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch(
            std::ptr::from_ref(p).cast::<i8>(),
            core::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The untyped (message-independent) per-shard engine state, persisted
/// across a session's phases by the [`EngineHost`]: the shard's
/// node/arc spans, its active-set bookkeeping, its dirty-slot lists,
/// its per-arc statistics, and the capture buffers it lends to hosts.
struct ShardCore {
    node_lo: usize,
    node_hi: usize,
    arc_lo: usize,
    /// Per-arc message counts for the shard's own arc span (folded into
    /// per-edge counts once at the end of the run — a sequential store
    /// per send instead of a random per-edge access). `u32` halves the
    /// array the send path does scattered read-modify-writes into; the
    /// count saturates rather than wraps in the (days-long) runs that
    /// would pass 2³² messages on one arc, keeping the fold sound.
    per_arc: Vec<u32>,
    /// Own-span slots delivered (read) this round; wiped at the start
    /// of the next round, when their buffer becomes the write target
    /// again.
    dirty_in: Vec<u32>,
    /// Own-span slots written this round; its length is the shard's
    /// contribution to the in-flight count.
    dirty_out: Vec<u32>,
    /// Nodes executing this round, sorted ascending.
    cur_active: Vec<u32>,
    /// Nodes scheduled for the next round: stays plus own-shard mail
    /// wakes (cross-shard wakes arrive through the wake queues).
    next_active: Vec<u32>,
    /// Membership bitmap for `next_active`, indexed by
    /// `node - node_lo`.
    in_set: Vec<bool>,
    /// Capture buffers lent to every node the shard runs (type-erased,
    /// so they outlive the phase's message type).
    captures: Captures,
}

/// Builds the per-shard cores for `graph` split into `shards`
/// contiguous node ranges.
fn build_cores(graph: &Graph, shards: usize) -> Vec<ShardCore> {
    let n = graph.n();
    (0..shards)
        .map(|s| {
            let node_lo = s * n / shards;
            let node_hi = (s + 1) * n / shards;
            let arc_lo = if node_lo >= n {
                graph.num_arcs() // empty trailing shard (n = 0 only)
            } else {
                graph.arc_range(node_lo as NodeId).start
            };
            let arc_hi = if node_hi == node_lo {
                arc_lo
            } else {
                graph.arc_range((node_hi - 1) as NodeId).end
            };
            let span = node_hi - node_lo;
            ShardCore {
                node_lo,
                node_hi,
                arc_lo,
                per_arc: vec![0; arc_hi - arc_lo],
                // A shard can have at most one in-flight message per
                // owned arc; reserving that up front keeps the dirty
                // lists realloc-free for the whole run.
                dirty_in: Vec::with_capacity(arc_hi - arc_lo),
                dirty_out: Vec::with_capacity(arc_hi - arc_lo),
                cur_active: Vec::with_capacity(span),
                next_active: Vec::with_capacity(span),
                in_set: vec![false; span],
                captures: Captures::default(),
            }
        })
        .collect()
}

/// Per-phase shard state: the persistent core plus the phase's typed
/// inbox buffer, statistics accumulators, and (when the run carries a
/// [`FaultPlan`]) the receiver-side fault machinery.
struct Shard<M> {
    core: ShardCore,
    messages: u64,
    words: u64,
    inbox: Vec<(NodeId, M)>,
    faults: Option<FaultState<M>>,
    /// [`Shard::counters`] as they stood when the current round began:
    /// what a phase aborted by a model violation reports, since how
    /// much of the aborting round ran depends on the shard boundaries.
    round_start: [u64; 5],
}

impl<M> Shard<M> {
    /// `[messages, words, dropped, delayed, corrupted]` so far.
    fn counters(&self) -> [u64; 5] {
        let (dropped, delayed, corrupted) = self
            .faults
            .as_ref()
            .map_or((0, 0, 0), |fs| (fs.dropped, fs.delayed, fs.corrupted));
        [self.messages, self.words, dropped, delayed, corrupted]
    }
}

/// A pool worker's state: its shard bookkeeping plus disjoint mutable
/// views of the node-state and RNG arrays.
struct ShardWorker<'a, P: Protocol> {
    sh: Shard<P::Msg>,
    nodes: &'a mut [P::State],
    rngs: &'a mut [Option<Box<ChaCha8Rng>>],
}

/// What a shard reports to the coordinator after each send phase.
struct StepReport {
    violation: Option<SimError>,
    in_flight: u64,
    /// Nodes this shard has scheduled for the next round (stays plus
    /// own-shard mail wakes; cross-shard wakes are bounded by
    /// `in_flight`).
    next_active: u64,
    /// Fault-layer work still outstanding on this shard: messages
    /// parked in the reorder ring plus scheduled recoveries. Nonzero
    /// keeps the run from quiescing (a delayed delivery must still
    /// reach — and wake — its receiver). Always 0 without a
    /// [`FaultPlan`].
    fault_pending: u64,
}

/// The per-[`Session`](crate::Session) persistent half of the engine:
/// the worker pool (spawned once), the graph's reverse-arc table
/// (computed once), and every untyped per-run structure — mail flags,
/// cross-shard wake queues, per-shard cores — reset and reused each
/// phase. The message-typed mailbox buffers are recycled across phases
/// through a size-class [`SlabArena`].
pub(crate) struct EngineHost {
    pub(crate) pool: Pool,
    rev: Vec<u32>,
    /// Shard start boundaries (node span lower bounds, one per shard),
    /// for mapping a destination node to its shard.
    bounds: Vec<u32>,
    /// Parity mail flags (persistent; reset at phase start).
    mails: [Vec<AtomicBool>; 2],
    /// Parity mailbox occupancy bytes, one per arc (persistent —
    /// untyped, unlike the payload buffers; reset at phase start).
    occs: [Vec<OccCell>; 2],
    /// Cross-shard wake queues (persistent; reset at phase start).
    wakes: WakeMatrix,
    /// Per-shard cores (persistent; reset at phase start). Emptied when
    /// a phase panics — `reset_for_phase` rebuilds them.
    cores: Vec<ShardCore>,
    /// Recycled storage for the message-typed mailbox buffers.
    arena: SlabArena,
}

impl EngineHost {
    /// Builds a host for `graph` with an already-resolved shard count
    /// (see [`SimConfig::resolved_shards`]).
    pub(crate) fn new(graph: &Graph, shards: usize) -> Self {
        let shards = shards.clamp(1, graph.n().max(1));
        let n = graph.n();
        let mk_flags = || (0..n).map(|_| AtomicBool::new(false)).collect();
        let mk_occ = || {
            (0..graph.num_arcs())
                .map(|_| OccCell(UnsafeCell::new(false)))
                .collect()
        };
        EngineHost {
            pool: Pool::new(shards),
            rev: build_rev_arcs(graph),
            bounds: (0..shards).map(|s| (s * n / shards) as u32).collect(),
            mails: [mk_flags(), mk_flags()],
            occs: [mk_occ(), mk_occ()],
            wakes: WakeMatrix::new(shards),
            cores: build_cores(graph, shards),
            arena: SlabArena::default(),
        }
    }

    /// Restores every persistent structure to its phase-start state:
    /// mail flags and wake queues empty, per-arc counters zero, and
    /// every shard's next-round active list seeded with its full node
    /// span (round 0 runs every node — protocols initialize there).
    fn reset_for_phase(&mut self, graph: &Graph) {
        for flags in &mut self.mails {
            for f in flags.iter_mut() {
                *f.get_mut() = false;
            }
        }
        for occ in &mut self.occs {
            for c in occ.iter_mut() {
                *c.0.get_mut() = false;
            }
        }
        self.wakes.clear();
        if self.cores.len() != self.pool.workers() {
            // A panicking phase unwound with the cores in flight;
            // rebuild them.
            self.cores = build_cores(graph, self.pool.workers());
        }
        for core in &mut self.cores {
            core.per_arc.fill(0);
            core.dirty_in.clear();
            core.dirty_out.clear();
            core.cur_active.clear();
            core.in_set.fill(false);
            core.next_active.clear();
            core.next_active
                .extend(core.node_lo as u32..core.node_hi as u32);
        }
    }
}

/// `rev[a]` is the opposite-direction arc of the same undirected edge.
fn build_rev_arcs(g: &Graph) -> Vec<u32> {
    let mut first_arc_of_edge: Vec<u32> = vec![u32::MAX; g.m()];
    let mut rev = vec![0u32; g.num_arcs()];
    for a in 0..g.num_arcs() as u32 {
        let e = g.arc_edge(ArcId(a)).index();
        if first_arc_of_edge[e] == u32::MAX {
            first_arc_of_edge[e] = a;
        } else {
            let b = first_arc_of_edge[e];
            rev[a as usize] = b;
            rev[b as usize] = a;
        }
    }
    rev
}

/// Executes one send phase for one shard: wipes the slots it delivered
/// last round (deferred deliver-phase cleanup), finalizes this round's
/// active list (stays + local wakes from last round, plus cross-shard
/// wakes drained from the parity queues), then runs each active node in
/// ascending id order — gathering its inbox from `cur`, applying its
/// sends into the shard's own span of `nxt`, and re-enqueuing it when
/// it asks to stay awake. Returns `(next_active_len, first_violation)`.
#[allow(clippy::too_many_arguments)]
fn run_shard<P: Protocol + Sync>(
    graph: &Graph,
    protocol: &P,
    sh: &mut Shard<P::Msg>,
    nodes: &mut [P::State],
    rngs: &mut [Option<Box<ChaCha8Rng>>],
    seed: u64,
    cur: &[Slot<P::Msg>],
    nxt: &[Slot<P::Msg>],
    occ_cur: &[OccCell],
    occ_nxt: &[OccCell],
    mail_cur: &[AtomicBool],
    mail_nxt: &[AtomicBool],
    rev: &[u32],
    round: u64,
    me: usize,
    wakes: &WakeMatrix,
    bounds: &[u32],
) -> (u64, Option<SimError>) {
    sh.round_start = sh.counters();
    let Shard {
        core,
        messages,
        words,
        inbox,
        faults,
        ..
    } = sh;
    let node_lo = core.node_lo;
    // Deferred cleanup: the slots this shard's messages were read from
    // last round live in its own span of what is now the write buffer;
    // wipe them before any send can find a stale occupant, then rotate
    // the dirty lists so `dirty_in` names this round's inbound slots.
    // Every dirty slot is occupied (sends are the only writer and the
    // overflow check rules out duplicates), so payload drops are exact.
    for &a in &core.dirty_in {
        let a = a as usize;
        debug_assert!(a < occ_nxt.len());
        // SAFETY: own-span slots of the write buffer (invariant 1);
        // `occ_nxt[a]` was set by the send that initialized `nxt[a]`,
        // and dirty entries are own-range arc ids, so `a < num_arcs`.
        unsafe {
            *occ_nxt.get_unchecked(a).0.get() = false;
            if std::mem::needs_drop::<P::Msg>() {
                (*nxt.get_unchecked(a).0.get()).assume_init_drop();
            }
        }
    }
    core.dirty_in.clear();
    std::mem::swap(&mut core.dirty_in, &mut core.dirty_out);

    // Fault round-start: apply crash/recovery events and surface this
    // round's delayed deliveries, activating their receivers. Runs
    // before the active-list swap, so the activations join this round's
    // list.
    if let Some(fs) = faults.as_mut() {
        fs.begin_round(
            round,
            &mut core.next_active,
            &mut core.in_set,
            node_lo as u32,
        );
    }

    // Drain the wake queues other shards filled for us last round (the
    // opposite parity; our own-shard wakes went straight into
    // `next_active` at send time).
    let drain_parity = ((round + 1) % 2) as usize;
    for t in 0..wakes.shards {
        if t == me {
            continue;
        }
        // SAFETY: queue `(parity, t, me)` is drained only by shard `me`
        // in send phases of the parity opposite to its writes (module
        // docs); the barrier crossing ordered shard `t`'s last-round
        // pushes before this read.
        let queue = unsafe { &mut *wakes.bufs[drain_parity][t * wakes.shards + me].0.get() };
        for &v in queue.iter() {
            activate(&mut core.next_active, &mut core.in_set, node_lo as u32, v);
        }
        queue.clear();
    }

    // Finalize this round's active list: sorted ascending, so execution
    // order (and thus violation precedence and inbox-order effects)
    // matches the sequential engine regardless of wake arrival order.
    std::mem::swap(&mut core.cur_active, &mut core.next_active);
    core.next_active.clear();
    let span = core.node_hi - node_lo;
    if core.cur_active.len() == span {
        // Full-span round: the dedup invariant makes the list a
        // permutation of the whole span — regenerate it in order
        // instead of paying an O(span log span) sort. Round 0 needs
        // this branch: `reset_for_phase` seeds the whole span without
        // setting `in_set`, so the bitmap scan below would run nothing.
        core.in_set.fill(false);
        core.cur_active.clear();
        core.cur_active.extend(node_lo as u32..core.node_hi as u32);
    } else if core.cur_active.len() >= (span / 8).max(1) {
        // Wide (but not full) frontier: rebuilding the sorted list by
        // scanning the membership bitmap is O(span) — cheaper than the
        // O(len log len) sort once len is a noticeable fraction of the
        // span — and yields the same ascending order (the bitmap *is*
        // the set).
        core.cur_active.clear();
        for (off, flag) in core.in_set.iter_mut().enumerate() {
            if *flag {
                *flag = false;
                core.cur_active.push(node_lo as u32 + off as u32);
            }
        }
    } else {
        for &v in &core.cur_active {
            core.in_set[v as usize - node_lo] = false;
        }
        core.cur_active.sort_unstable();
    }

    let wake_row = &wakes.bufs[(round % 2) as usize][me * wakes.shards..(me + 1) * wakes.shards];
    let mut violation: Option<SimError> = None;
    for idx in 0..core.cur_active.len() {
        let v = core.cur_active[idx] as usize;
        let range = graph.arc_range(v as NodeId);
        // Hide memory latency behind the current node's work: the
        // active list names the next node long before it is needed, so
        // start pulling its state, mail flag, and arc-table lines
        // while this node runs. The sparse activity pattern makes
        // these scattered (cache-cold) accesses; without the hint each
        // one stalls the round loop front-to-back.
        if let Some(&nv) = core.cur_active.get(idx + 1) {
            let nv = nv as usize;
            let nrange = graph.arc_range(nv as NodeId);
            prefetch_read(&nodes[nv - node_lo]);
            prefetch_read(&mail_cur[nv]);
            if nrange.start < nrange.end {
                prefetch_read(&rev[nrange.start]);
                prefetch_read(&occ_cur[nrange.start]);
            }
        }
        inbox.clear();
        // The mail flag gates the arc-range walk: only nodes somebody
        // actually addressed gather an inbox. (Relaxed is enough — the
        // flag was set before the previous round's barrier crossing,
        // which is a happens-before edge.)
        let had_mail = mail_cur[v].load(Ordering::Relaxed);
        if had_mail {
            mail_cur[v].store(false, Ordering::Relaxed);
        }
        if let Some(fs) = faults.as_mut() {
            if fs.is_down(v, node_lo) {
                // Crashed receiver: every inbound message (fresh or
                // delayed) is destroyed, and the node's hook never runs
                // — it is silent until (and unless) its recovery event
                // re-activates it.
                if had_mail {
                    let rev_span = &rev[range.clone()];
                    for &ra in rev_span {
                        // SAFETY: same read-side access as the gather
                        // below.
                        if unsafe { *occ_cur.get_unchecked(ra as usize).0.get() } {
                            fs.dropped += 1;
                        }
                    }
                }
                fs.drop_due(v as u32);
                continue;
            }
            if had_mail {
                let heads = graph.neighbors(v as NodeId);
                let rev_span = &rev[range.clone()];
                for (&h, &ra) in heads.iter().zip(rev_span) {
                    let ra = ra as usize;
                    // SAFETY: as in the fault-free gather below.
                    unsafe {
                        if *occ_cur.get_unchecked(ra).0.get() {
                            let m = (*cur.get_unchecked(ra).0.get()).assume_init_ref().clone();
                            fs.deliver(round, ra, v as u32, h, m, inbox);
                        }
                    }
                }
            }
            fs.take_due(v as u32, inbox);
        } else if had_mail {
            // Walk the node's reverse arcs alongside its neighbor list
            // (both parallel to the arc range — no per-arc bounds
            // checks or `arc_head` lookups).
            let heads = graph.neighbors(v as NodeId);
            let rev_span = &rev[range.clone()];
            inbox.extend(heads.iter().zip(rev_span).filter_map(|(&h, &ra)| {
                let ra = ra as usize;
                // SAFETY: read buffer, slot `rev[b]` is read only by
                // the owner of arc `b` (invariant 2); `ra < num_arcs`
                // by the reverse-arc table's construction; the
                // occupancy byte guards slot initialization.
                unsafe {
                    if *occ_cur.get_unchecked(ra).0.get() {
                        let m = (*cur.get_unchecked(ra).0.get()).assume_init_ref().clone();
                        Some((h, m))
                    } else {
                        None
                    }
                }
            }));
        }
        {
            // SAFETY: this shard's own arc span of the write buffer
            // (invariant 1); the borrow ends with `ctx`.
            let own = unsafe { own_slots_mut(&nxt[range.start..range.end]) };
            // SAFETY: the occupancy bytes of that span, as above.
            let occ = unsafe { own_occ_mut(&occ_nxt[range.start..range.end]) };
            let mut ctx = RoundCtx {
                node: v as NodeId,
                round,
                graph,
                inbox,
                rng: &mut rngs[v - node_lo],
                seed,
                captures: &mut core.captures,
                tx: TxState {
                    slots: own,
                    occ,
                    heads: graph.neighbors(v as NodeId),
                    arc_base: range.start as u32,
                    wire: Some(WireFx {
                        mail: mail_nxt,
                        next_active: &mut core.next_active,
                        in_set: &mut core.in_set,
                        node_lo: node_lo as u32,
                        node_hi: core.node_hi as u32,
                        bounds,
                        wake_row,
                    }),
                    dirty: &mut core.dirty_out,
                    messages,
                    words,
                    per_arc: &mut core.per_arc[range.start - core.arc_lo..range.end - core.arc_lo],
                    violation: &mut violation,
                },
            };
            protocol.round(&mut nodes[v - node_lo], &mut ctx);
        }
        if violation.is_some() {
            return (core.next_active.len() as u64, violation);
        }
        if let Wake::Stay = protocol.wake(&nodes[v - node_lo]) {
            activate(
                &mut core.next_active,
                &mut core.in_set,
                node_lo as u32,
                v as u32,
            );
        }
    }
    (core.next_active.len() as u64, violation)
}

/// One engine phase: runs `protocol` over `nodes` (one state per node)
/// to quiescence — no node awake and no messages in flight — on the
/// host's persistent pool. [`Session`](crate::Session) calls this once
/// per phase; `cfg.shards` is ignored here, since the host's pool was
/// sized when it was built.
///
/// Rounds are fully synchronous: messages sent at round `r` are
/// delivered at round `r + 1`. The engine enforces the CONGEST
/// discipline — a node may send at most one message per neighbor per
/// round, each at most [`BANDWIDTH_WORDS`](crate::BANDWIDTH_WORDS)
/// words, and only to adjacent nodes — and schedules event-driven (see
/// the module docs and [`crate::Wake`]). The outcome (node states,
/// per-node RNG streams, and [`RunStats`]) is bit-identical at every
/// shard count.
///
/// Returns the final node states together with the statistics of the
/// rounds that ran.
///
/// # Errors
///
/// The states are replaced by a [`SimError`] on any CONGEST-model
/// violation or when `cfg.max_rounds` is exceeded; the statistics are
/// still returned. After a violation, `rounds` counts the aborting
/// round and every other counter stops at the end of the round before
/// it, so the figures are the same at every shard count.
///
/// # Panics
///
/// Panics if `nodes.len() != graph.n()`. A panic inside a node's
/// `round` — on any shard — propagates to the caller after the pool
/// shuts down (it never deadlocks the barrier).
pub(crate) fn run_phase<P: Protocol + Sync>(
    graph: &Graph,
    host: &mut EngineHost,
    protocol: &P,
    mut nodes: Vec<P::State>,
    cfg: &SimConfig,
) -> (Result<Vec<P::State>, SimError>, RunStats) {
    assert_eq!(
        nodes.len(),
        graph.n(),
        "need exactly one algorithm instance per node"
    );
    let n = graph.n();
    host.reset_for_phase(graph);
    let mut stats = RunStats::new(graph);

    // Per-node RNG slots, each seeded on the node's first draw
    // (`RoundCtx::rng`).
    let mut node_rngs: Vec<Option<Box<ChaCha8Rng>>> = vec![None; n];

    let num_arcs = graph.num_arcs();
    // Parity mailbox buffers (recycled through the host's size-class
    // arena) and mail flags: buffer `r % 2` is read in round `r`,
    // buffer `(r + 1) % 2` written. The payloads are `MaybeUninit`, so
    // adopting a recycled slab is a length bump — no per-slot
    // initialization; liveness is tracked by the host's occupancy
    // bytes, which `reset_for_phase` cleared.
    let bufs: [Vec<Slot<P::Msg>>; 2] = [0, 1].map(|_| {
        let mut buf: Vec<Slot<P::Msg>> = host.arena.take(num_arcs);
        // SAFETY: the arena guarantees `capacity >= num_arcs`, and a
        // `Slot` wraps `MaybeUninit`, for which any contents are valid.
        unsafe { buf.set_len(num_arcs) };
        buf
    });

    let EngineHost {
        pool,
        rev,
        bounds,
        mails,
        occs,
        wakes,
        cores,
        arena,
    } = host;
    let shard_count = pool.workers();

    // Worker states: each owns its shard bookkeeping plus disjoint
    // mutable slices of the node and RNG arrays. The cores move out of
    // the host for the duration of the phase and return at the end.
    let mut workers: Vec<ShardWorker<'_, P>> = Vec::with_capacity(shard_count);
    {
        let mut nodes_rest: &mut [P::State] = &mut nodes;
        let mut rngs_rest: &mut [Option<Box<ChaCha8Rng>>] = &mut node_rngs;
        for core in std::mem::take(cores) {
            let span = core.node_hi - core.node_lo;
            let (node_chunk, rest) = nodes_rest.split_at_mut(span);
            nodes_rest = rest;
            let (rng_chunk, rest) = rngs_rest.split_at_mut(span);
            rngs_rest = rest;
            let faults = cfg
                .faults
                .as_ref()
                .map(|plan| FaultState::new(plan, core.node_lo, core.node_hi));
            workers.push(ShardWorker {
                sh: Shard {
                    core,
                    messages: 0,
                    words: 0,
                    inbox: Vec::new(),
                    faults,
                    round_start: [0; 5],
                },
                nodes: node_chunk,
                rngs: rng_chunk,
            });
        }
    }

    let bufs_ref = &bufs;
    let mails_ref: &[Vec<AtomicBool>; 2] = mails;
    let occs_ref: &[Vec<OccCell>; 2] = occs;
    let wakes_ref: &WakeMatrix = wakes;
    let bounds_ref: &[u32] = bounds;
    let rev_ref: &[u32] = rev;
    let step = move |w: usize, st: &mut ShardWorker<'_, P>, round: u64| -> StepReport {
        let parity = (round % 2) as usize;
        let (next_active, violation) = run_shard(
            graph,
            protocol,
            &mut st.sh,
            st.nodes,
            st.rngs,
            cfg.seed,
            &bufs_ref[parity],
            &bufs_ref[1 - parity],
            &occs_ref[parity],
            &occs_ref[1 - parity],
            &mails_ref[parity],
            &mails_ref[1 - parity],
            rev_ref,
            round,
            w,
            wakes_ref,
            bounds_ref,
        );
        StepReport {
            violation,
            in_flight: st.sh.core.dirty_out.len() as u64,
            next_active,
            fault_pending: st.sh.faults.as_ref().map_or(0, FaultState::pending_work),
        }
    };

    let mut prev_in_flight = 0u64;
    let stats_ref = &mut stats;
    let control = move |round: u64,
                        results: std::vec::Drain<'_, std::thread::Result<StepReport>>|
          -> Control<Result<(), SimError>> {
        stats_ref.rounds = round + 1;
        if prev_in_flight > 0 {
            stats_ref.delivered_rounds += 1;
        }
        // Aggregate in shard order — which is node order, so the first
        // abnormal event encountered below (a model violation or a
        // protocol panic) is exactly the one the sequential engine
        // would have hit first: a violation in a lower shard outranks a
        // panic in a higher one, and vice versa.
        let mut next_active = 0u64;
        let mut in_flight = 0u64;
        let mut fault_pending = 0u64;
        for result in results {
            match result {
                Ok(report) => {
                    if let Some(e) = report.violation {
                        return Control::Stop(Err(e));
                    }
                    next_active += report.next_active;
                    in_flight += report.in_flight;
                    fault_pending += report.fault_pending;
                }
                Err(payload) => return Control::Abort(payload),
            }
        }
        prev_in_flight = in_flight;
        if in_flight == 0 && next_active == 0 && fault_pending == 0 {
            // Quiescence: no node awake, nothing on the wire, nothing
            // parked in a fault-layer reorder ring, no recovery still
            // scheduled.
            Control::Stop(Ok(()))
        } else if next_active + in_flight + fault_pending <= INLINE_WORK_MAX {
            // A near-quiescent round: run it on the coordinator instead
            // of paying the barrier for idle workers.
            Control::ContinueInline
        } else {
            Control::Continue
        }
    };

    let (workers, outcome) = pool.run_rounds(workers, cfg.max_rounds, step, control);
    // Flat slots carry no discriminant, so payloads still parked in the
    // mailboxes when the run stops (quiescence leaves last-delivered
    // slots, a violation or round limit leaves in-flight ones) must be
    // dropped here for non-trivial message types. At any stop point the
    // occupied slots are exactly the union of every shard's `dirty_in`
    // (slots read in the final round `R`, in buffer `R % 2`) and
    // `dirty_out` (slots written in round `R`, in buffer `(R+1) % 2`).
    // A panicking phase unwinds past this and leaks payloads, which is
    // sound. POD messages skip the walk entirely.
    if std::mem::needs_drop::<P::Msg>() && stats.rounds > 0 {
        let last = stats.rounds - 1;
        let buf_in = &bufs[(last % 2) as usize];
        let buf_out = &bufs[((last + 1) % 2) as usize];
        for w in &workers {
            for &a in &w.sh.core.dirty_in {
                // SAFETY: the pool has stopped; this thread has
                // exclusive access, and every dirty slot is occupied
                // (wipe protocol).
                unsafe { (*buf_in[a as usize].0.get()).assume_init_drop() };
            }
            for &a in &w.sh.core.dirty_out {
                // SAFETY: as for `dirty_in` above.
                unsafe { (*buf_out[a as usize].0.get()).assume_init_drop() };
            }
        }
    }
    // A violation stops the run part-way through its last round, at a
    // point that depends on where the shard boundaries fall, so an
    // aborted run's counters stop at the end of the last completed
    // round (its `rounds` still count the aborting one).
    let aborted = matches!(outcome, Some(Err(_)));
    for mut w in workers {
        let [messages, words, dropped, delayed, corrupted] = if aborted {
            let core = &mut w.sh.core;
            for &a in &core.dirty_out {
                core.per_arc[a as usize - core.arc_lo] -= 1;
            }
            w.sh.round_start
        } else {
            w.sh.counters()
        };
        stats.messages += messages;
        stats.words += words;
        stats.dropped += dropped;
        stats.delayed += delayed;
        stats.corrupted += corrupted;
        for (j, &x) in w.sh.core.per_arc.iter().enumerate() {
            if x > 0 {
                let e = graph.arc_edge(ArcId((w.sh.core.arc_lo + j) as u32));
                stats.per_edge_messages[e.index()] += u64::from(x);
            }
        }
        cores.push(w.sh.core);
    }
    if let Some(plan) = &cfg.faults {
        // Crashes are per-node events decided by the plan, not the
        // shards: count the distinct nodes whose crash round fell
        // inside the run (validation rules out duplicate nodes).
        stats.crashed_nodes = plan
            .crashes
            .iter()
            .filter(|c| c.at_round < stats.rounds)
            .count() as u64;
    }
    let [b0, b1] = bufs;
    arena.put(b0);
    arena.put(b1);
    let outcome = match outcome {
        Some(Ok(())) => Ok(nodes),
        Some(Err(e)) => Err(e),
        None => Err(SimError::RoundLimitExceeded {
            limit: cfg.max_rounds,
        }),
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use rand::Rng;

    /// Runs `protocol` in a fresh session: its output plus the phase's
    /// statistics.
    fn run<P: Protocol + Sync>(
        graph: &Graph,
        protocol: P,
        cfg: &SimConfig,
    ) -> Result<(P::Output, RunStats), SimError> {
        let mut session = Session::new(graph, cfg.clone());
        let out = session.run(protocol)?;
        Ok((out, session.stats().clone()))
    }

    /// Flood: node 0 starts; everyone forwards one token to each
    /// neighbor exactly once.
    struct Flood;

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct FloodNode {
        seen: bool,
        fired: bool,
        heard_at: Option<u64>,
    }

    impl Protocol for Flood {
        type Msg = u32;
        type State = FloodNode;
        type Output = Vec<FloodNode>;
        fn init(&mut self, graph: &Graph) -> Vec<FloodNode> {
            vec![FloodNode::default(); graph.n()]
        }
        fn round(&self, st: &mut FloodNode, ctx: &mut RoundCtx<'_, u32>) {
            if ctx.round() == 0 && ctx.node() == 0 {
                st.seen = true;
                st.heard_at = Some(0);
            }
            if !st.seen && !ctx.inbox().is_empty() {
                st.seen = true;
                st.heard_at = Some(ctx.round());
            }
            if st.seen && !st.fired {
                st.fired = true;
                for i in 0..ctx.degree() {
                    ctx.send_nth(i, 1);
                }
            }
        }
        fn halted(&self, st: &FloodNode) -> bool {
            st.fired || !st.seen
        }
        fn finish(self, _: &Graph, states: Vec<FloodNode>, _: &RunStats) -> Vec<FloodNode> {
            states
        }
    }

    #[test]
    fn flood_reaches_everyone_in_ecc_rounds() {
        let g = lcs_graph::generators::path(6);
        let (nodes, stats) = run(&g, Flood, &SimConfig::default()).unwrap();
        for (v, node) in nodes.iter().enumerate() {
            assert_eq!(node.heard_at, Some(v as u64), "node {v}");
        }
        // 2 messages per internal edge (both directions), path has 5 edges.
        assert_eq!(stats.messages, 10);
        assert_eq!(stats.max_edge_messages(), 2);
        // Tokens travel forward in rounds 1..=5 and the end node's own
        // flood arrives back at round 6.
        assert_eq!(stats.delivered_rounds, 6);
    }

    /// Tier-1 determinism smoke: pooled sharded runs are bit-identical
    /// to the sequential engine on a path and a clique.
    #[test]
    fn sharded_runs_bit_identical_on_path_and_clique() {
        for g in [
            lcs_graph::generators::path(23),
            lcs_graph::generators::complete(17),
        ] {
            let base = run(&g, Flood, &SimConfig::default()).unwrap();
            for shards in [2, 4, 7, 64] {
                let cfg = SimConfig {
                    shards,
                    ..SimConfig::default()
                };
                assert_eq!(run(&g, Flood, &cfg).unwrap(), base, "shards={shards}");
            }
        }
    }

    /// Per-edge stat folding under the pool: on a path split across
    /// shards, every shard-boundary edge's two arcs live in *different*
    /// shards, and the fold must still count the edge exactly once per
    /// message — with exact totals, not merely shard-count-invariant
    /// ones.
    #[test]
    fn per_edge_folding_counts_shard_boundary_arcs_exactly_once() {
        let g = lcs_graph::generators::path(8);
        for shards in [1usize, 2, 4, 8] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let (_, stats) = run(&g, Flood, &cfg).unwrap();
            // Flood crosses every edge exactly once in each direction.
            assert_eq!(stats.per_edge_messages, vec![2u64; 7], "shards={shards}");
            assert_eq!(stats.messages, 14, "shards={shards}");
            assert_eq!(stats.words, 14, "shards={shards}");
            // Forward wave rounds 1..=7, plus node 7's own flood echo at
            // round 8.
            assert_eq!(stats.delivered_rounds, 8, "shards={shards}");
        }
    }

    /// Pure mail-driven relay with an invocation log: the event-driven
    /// scheduler must invoke a node ONLY at round 0 and on rounds with
    /// incoming mail — never in between.
    /// The state is the log of rounds the node's hook ran.
    struct Relay;

    impl Protocol for Relay {
        type Msg = u32;
        type State = Vec<u64>;
        type Output = Vec<Vec<u64>>;
        fn init(&mut self, graph: &Graph) -> Vec<Vec<u64>> {
            vec![Vec::new(); graph.n()]
        }
        fn round(&self, invoked_at: &mut Vec<u64>, ctx: &mut RoundCtx<'_, u32>) {
            invoked_at.push(ctx.round());
            let fire = (ctx.round() == 0 && ctx.node() == 0)
                || ctx.inbox().iter().any(|&(from, _)| from < ctx.node());
            if fire {
                if let Some(i) = ctx.neighbor_index(ctx.node() + 1) {
                    ctx.send_nth(i, 1);
                }
            }
        }
        fn halted(&self, _: &Vec<u64>) -> bool {
            true // activity is purely mail-driven
        }
        fn finish(self, _: &Graph, states: Vec<Vec<u64>>, _: &RunStats) -> Vec<Vec<u64>> {
            states
        }
    }

    #[test]
    fn rounds_cost_active_nodes_not_n() {
        let g = lcs_graph::generators::path(5);
        let (invoked_at, stats) = run(&g, Relay, &SimConfig::default()).unwrap();
        // Node 0 runs only at phase start; node k > 0 additionally runs
        // exactly when the token reaches it (round k) and when its
        // forward neighbor's... nothing else: the hook must NOT run on
        // quiescent rounds.
        assert_eq!(invoked_at[0], vec![0]);
        for k in 1..5u64 {
            assert_eq!(
                invoked_at[k as usize],
                vec![0, k],
                "node {k} must wake only on mail"
            );
        }
        // Token hops rounds 1..=4, then quiescence.
        assert_eq!(stats.rounds, 5);
        assert_eq!(stats.delivered_rounds, 4);
        assert_eq!(stats.messages, 4);
    }

    /// The relay crosses every shard boundary when each node is its own
    /// shard: cross-shard wakes must deliver activation exactly like
    /// the sequential engine, including the invocation logs.
    #[test]
    fn cross_shard_wakes_match_sequential_invocations() {
        let g = lcs_graph::generators::path(8);
        let base = run(&g, Relay, &SimConfig::default()).unwrap();
        for shards in [2usize, 4, 8] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            assert_eq!(run(&g, Relay, &cfg).unwrap(), base, "shards={shards}");
        }
    }

    /// Node 0 overrides `wake` to stay scheduled WITHOUT mail (the
    /// explicit quiescence contract) for `ticks` rounds: a ticking
    /// clock. Everyone else sleeps after round 0, so rounds are O(1)
    /// regardless of n. The state is `(ticks left, invocations)`.
    struct Clock {
        ticks: u64,
    }

    impl Protocol for Clock {
        type Msg = ();
        type State = (u64, u64);
        type Output = Vec<(u64, u64)>;
        fn init(&mut self, graph: &Graph) -> Vec<(u64, u64)> {
            (0..graph.n())
                .map(|v| (if v == 0 { self.ticks } else { 0 }, 0))
                .collect()
        }
        fn round(&self, (ticks, invocations): &mut (u64, u64), _: &mut RoundCtx<'_, ()>) {
            *invocations += 1;
            *ticks = ticks.saturating_sub(1);
        }
        fn halted(&self, _: &(u64, u64)) -> bool {
            true
        }
        fn wake(&self, &(ticks, _): &(u64, u64)) -> Wake {
            if ticks > 0 {
                Wake::Stay
            } else {
                Wake::Sleep
            }
        }
        fn finish(self, _: &Graph, states: Vec<(u64, u64)>, _: &RunStats) -> Vec<(u64, u64)> {
            states
        }
    }

    #[test]
    fn wake_stay_keeps_a_mailless_node_scheduled() {
        let g = lcs_graph::generators::path(50);
        for shards in [1usize, 4] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let (nodes, stats) = run(&g, Clock { ticks: 10 }, &cfg).unwrap();
            assert_eq!(stats.rounds, 10, "shards={shards}");
            assert_eq!(nodes[0].1, 10, "shards={shards}");
            for (v, &(_, invocations)) in nodes.iter().enumerate().skip(1) {
                assert_eq!(
                    invocations, 1,
                    "sleeping node {v} must run only at phase start (shards={shards})"
                );
            }
            assert_eq!(stats.messages, 0);
            assert_eq!(stats.delivered_rounds, 0);
        }
    }

    /// Un-halt after quiescence: a node that slept for several rounds is
    /// re-activated by late mail and acts again — across a shard
    /// boundary. Node 0 stays awake until it fires at `fire_at`.
    struct LateCaller {
        fire_at: u64,
    }

    #[derive(Debug)]
    struct LateCallerNode {
        countdown: u64,
        echoed: bool,
        got_echo_at: Option<u64>,
    }

    impl Protocol for LateCaller {
        type Msg = u32;
        type State = LateCallerNode;
        type Output = Vec<LateCallerNode>;
        fn init(&mut self, graph: &Graph) -> Vec<LateCallerNode> {
            (0..graph.n())
                .map(|v| LateCallerNode {
                    countdown: if v == 0 { self.fire_at + 1 } else { 0 },
                    echoed: false,
                    got_echo_at: None,
                })
                .collect()
        }
        fn round(&self, st: &mut LateCallerNode, ctx: &mut RoundCtx<'_, u32>) {
            if ctx.node() == 0 {
                if ctx.round() == self.fire_at {
                    ctx.send(1, 7);
                }
                if let Some(&(_, m)) = ctx.inbox().first() {
                    st.got_echo_at = Some(ctx.round());
                    assert_eq!(m, 8);
                }
                if st.countdown > 0 {
                    st.countdown -= 1;
                }
            } else if let Some(&(_, m)) = ctx.inbox().first() {
                // Asleep since round 0; woken by the late message.
                st.echoed = true;
                ctx.send(0, m + 1);
            }
        }
        fn halted(&self, _: &LateCallerNode) -> bool {
            true
        }
        fn wake(&self, st: &LateCallerNode) -> Wake {
            if st.countdown > 0 {
                Wake::Stay
            } else {
                Wake::Sleep
            }
        }
        fn finish(self, _: &Graph, states: Vec<LateCallerNode>, _: &RunStats) -> Self::Output {
            states
        }
    }

    #[test]
    fn late_mail_reactivates_a_quiescent_node_identically_across_shards() {
        let g = lcs_graph::generators::path(2);
        for shards in [1usize, 2] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let (nodes, stats) = run(&g, LateCaller { fire_at: 5 }, &cfg).unwrap();
            assert!(nodes[1].echoed, "shards={shards}");
            // Sent at 5, echoed at 6, received at 7.
            assert_eq!(nodes[0].got_echo_at, Some(7), "shards={shards}");
            assert_eq!(stats.rounds, 8, "shards={shards}");
            assert_eq!(stats.delivered_rounds, 2, "shards={shards}");
        }
    }

    /// A deliberately misbehaving protocol for violation tests.
    struct Misbehave {
        mode: u8,
    }

    impl Protocol for Misbehave {
        type Msg = u64;
        type State = ();
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<()> {
            vec![(); graph.n()]
        }
        fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, u64>) {
            if ctx.round() == 0 && ctx.node() == 0 {
                match self.mode {
                    0 => ctx.send(2, 1), // non-neighbor on a path 0-1-2
                    1 => {
                        ctx.send(1, 1);
                        ctx.send(1, 2); // double send
                    }
                    _ => {}
                }
            }
        }
        fn halted(&self, _: &()) -> bool {
            true
        }
        fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
    }

    #[test]
    fn invalid_destination_detected() {
        let g = lcs_graph::generators::path(3);
        let err = run(&g, Misbehave { mode: 0 }, &SimConfig::default()).unwrap_err();
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
    fn channel_overflow_detected() {
        let g = lcs_graph::generators::path(3);
        let err = run(&g, Misbehave { mode: 1 }, &SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::ChannelOverflow {
                from: 0,
                to: 1,
                round: 0
            }
        );
    }

    #[test]
    fn violations_detected_identically_when_sharded() {
        let g = lcs_graph::generators::path(3);
        for (mode, expect) in [
            (
                0u8,
                SimError::InvalidDestination {
                    from: 0,
                    to: 2,
                    round: 0,
                },
            ),
            (
                1u8,
                SimError::ChannelOverflow {
                    from: 0,
                    to: 1,
                    round: 0,
                },
            ),
        ] {
            let cfg = SimConfig {
                shards: 3,
                ..SimConfig::default()
            };
            assert_eq!(run(&g, Misbehave { mode }, &cfg).unwrap_err(), expect);
        }
    }

    /// Sends an oversized message.
    struct Oversize;

    impl Protocol for Oversize {
        type Msg = (u64, (u64, u64));
        type State = ();
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<()> {
            vec![(); graph.n()]
        }
        fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, Self::Msg>) {
            if ctx.round() == 0 && ctx.node() == 0 {
                ctx.send(1, (1, (2, 3))); // 6 words > default 4
            }
        }
        fn halted(&self, _: &()) -> bool {
            true
        }
        fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
    }

    #[test]
    fn oversized_message_detected() {
        let g = lcs_graph::generators::path(2);
        let err = run(&g, Oversize, &SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::MessageTooLarge {
                words: 6,
                cap: 4,
                round: 0
            }
        );
    }

    /// Never halts.
    struct Spinner;

    impl Protocol for Spinner {
        type Msg = ();
        type State = ();
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<()> {
            vec![(); graph.n()]
        }
        fn round(&self, _: &mut (), _: &mut RoundCtx<'_, ()>) {}
        fn halted(&self, _: &()) -> bool {
            false
        }
        fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
    }

    #[test]
    fn round_limit_enforced() {
        let g = lcs_graph::generators::path(2);
        let cfg = SimConfig {
            max_rounds: 10,
            ..SimConfig::default()
        };
        let err = run(&g, Spinner, &cfg).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 10 });
    }

    /// Ping-pong: verifies messages are delivered exactly one round
    /// later and that per-node RNGs are deterministic.
    struct PingPong;

    #[derive(Debug, Default, Clone)]
    struct PingPongNode {
        got: Vec<(u64, u32)>,
        sent: bool,
        coin: Option<u64>,
    }

    impl Protocol for PingPong {
        type Msg = u32;
        type State = PingPongNode;
        type Output = Vec<PingPongNode>;
        fn init(&mut self, graph: &Graph) -> Vec<PingPongNode> {
            vec![PingPongNode::default(); graph.n()]
        }
        fn round(&self, st: &mut PingPongNode, ctx: &mut RoundCtx<'_, u32>) {
            if st.coin.is_none() {
                st.coin = Some(ctx.rng().gen());
            }
            if ctx.node() == 0 && ctx.round() == 0 {
                ctx.send(1, 7);
                st.sent = true;
            }
            for &(_, m) in ctx.inbox() {
                st.got.push((ctx.round(), m));
                if ctx.node() == 1 && !st.sent {
                    ctx.send(0, m + 1);
                    st.sent = true;
                }
            }
        }
        fn halted(&self, _: &PingPongNode) -> bool {
            true
        }
        fn finish(self, _: &Graph, states: Vec<PingPongNode>, _: &RunStats) -> Self::Output {
            states
        }
    }

    #[test]
    fn delivery_latency_is_one_round_and_rng_deterministic() {
        let g = lcs_graph::generators::path(2);
        let (nodes1, stats1) = run(&g, PingPong, &SimConfig::default()).unwrap();
        let (nodes2, _) = run(&g, PingPong, &SimConfig::default()).unwrap();
        assert_eq!(nodes1[1].got, vec![(1, 7)]);
        assert_eq!(nodes1[0].got, vec![(2, 8)]);
        assert_eq!(nodes1[0].coin, nodes2[0].coin);
        assert_ne!(nodes1[0].coin, nodes1[1].coin);
        assert_eq!(stats1.rounds, 3);
        assert_eq!(stats1.delivered_rounds, 2);
    }

    /// `send_nth` out-of-range panics (programmer error, not a model
    /// violation — there is no node id to report).
    struct BadIndex;

    impl Protocol for BadIndex {
        type Msg = u32;
        type State = ();
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<()> {
            vec![(); graph.n()]
        }
        fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, u32>) {
            if ctx.node() == 0 {
                ctx.send_nth(5, 1);
            }
        }
        fn halted(&self, _: &()) -> bool {
            true
        }
        fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn send_nth_out_of_range_panics() {
        let g = lcs_graph::generators::path(2);
        let _ = run(&g, BadIndex, &SimConfig::default());
    }

    /// The pool path must propagate the same programmer-error panic
    /// (from a worker thread) instead of deadlocking the barrier.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn send_nth_out_of_range_panics_under_the_pool_too() {
        let g = lcs_graph::generators::path(4);
        let cfg = SimConfig {
            shards: 4,
            ..SimConfig::default()
        };
        let _ = run(&g, BadIndex, &cfg);
    }

    /// Node 0 violates the model; a node in a *higher* shard panics in
    /// the same round. The sequential engine reports the violation (it
    /// never reaches the panicking node), so the pool must too.
    struct ViolateOrPanic {
        panic_node: NodeId,
    }

    impl Protocol for ViolateOrPanic {
        type Msg = u64;
        type State = ();
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<()> {
            vec![(); graph.n()]
        }
        fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, u64>) {
            if ctx.round() == 0 {
                if ctx.node() == 0 {
                    ctx.send(2, 1); // non-neighbor on a path: violation
                }
                if ctx.node() == self.panic_node {
                    panic!("node {} panicked", self.panic_node);
                }
            }
        }
        fn halted(&self, _: &()) -> bool {
            true
        }
        fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
    }

    #[test]
    fn violation_in_lower_shard_outranks_panic_in_higher_shard() {
        let g = lcs_graph::generators::path(4);
        let expect = SimError::InvalidDestination {
            from: 0,
            to: 2,
            round: 0,
        };
        for shards in [1usize, 2, 4] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            // Panic at node 3: sequential order hits node 0's violation
            // first and stops the scan before node 3 ever runs — but
            // only within a shard; across shards both events happen in
            // the same round and the coordinator must order them.
            let err = run(&g, ViolateOrPanic { panic_node: 3 }, &cfg).unwrap_err();
            assert_eq!(err, expect, "shards={shards}");
        }
    }

    #[test]
    fn panic_in_lower_shard_outranks_violation_in_higher_shard() {
        // Mirror image: node 1 panics, node 2 (a higher shard at
        // shards=4) violates. Sequential order hits the panic first.
        struct PanicThenViolate;
        impl Protocol for PanicThenViolate {
            type Msg = u64;
            type State = ();
            type Output = ();
            fn init(&mut self, graph: &Graph) -> Vec<()> {
                vec![(); graph.n()]
            }
            fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, u64>) {
                if ctx.round() == 0 {
                    if ctx.node() == 1 {
                        panic!("node 1 panicked");
                    }
                    if ctx.node() == 2 {
                        ctx.send(0, 1); // non-neighbor on a path 0-1-2-3
                    }
                }
            }
            fn halted(&self, _: &()) -> bool {
                true
            }
            fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
        }
        let g = lcs_graph::generators::path(4);
        for shards in [1usize, 4] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = run(&g, PanicThenViolate, &cfg);
            }))
            .expect_err("panic must win, shards={shards}");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert_eq!(msg, "node 1 panicked", "shards={shards}");
        }
    }

    #[test]
    fn rev_arcs_are_involutions() {
        let g = lcs_graph::generators::grid(3, 4);
        let rev = build_rev_arcs(&g);
        for a in 0..g.num_arcs() {
            let b = rev[a] as usize;
            assert_eq!(rev[b] as usize, a);
            assert_eq!(g.arc_edge(ArcId(a as u32)), g.arc_edge(ArcId(b as u32)));
            assert_ne!(a, b);
            assert_eq!(g.arc_head(ArcId(b as u32)), g.arc_tail(ArcId(a as u32)));
        }
    }

    // ---- fault injection ------------------------------------------------

    fn fault_cfg(plan: FaultPlan, shards: usize) -> SimConfig {
        SimConfig {
            shards,
            faults: Some(plan),
            ..SimConfig::default()
        }
    }

    /// Every inconsistent plan is rejected eagerly with a
    /// [`SimError::FaultConfig`] whose message names the offending field.
    #[test]
    fn fault_plan_validation_rejects_bad_plans() {
        let mut cases: Vec<(FaultPlan, &str)> = vec![
            (FaultPlan::drops(1.5, 0), "drop_rate"),
            (FaultPlan::drops(f64::NAN, 0), "drop_rate"),
            (
                FaultPlan {
                    delay_rate: -0.1,
                    ..FaultPlan::default()
                },
                "delay_rate",
            ),
            (
                FaultPlan {
                    corrupt_rate: 1.5,
                    ..FaultPlan::default()
                },
                "corrupt_rate",
            ),
            (
                FaultPlan {
                    corrupt_rate: f64::NEG_INFINITY,
                    ..FaultPlan::default()
                },
                "corrupt_rate",
            ),
            (
                FaultPlan {
                    delay_rate: 0.5,
                    max_delay: 0,
                    ..FaultPlan::default()
                },
                "max_delay",
            ),
            (
                FaultPlan {
                    max_delay: u64::MAX,
                    ..FaultPlan::default()
                },
                "max_delay",
            ),
            (
                FaultPlan {
                    crashes: vec![Crash {
                        node: 1,
                        at_round: u64::MAX,
                        recover_at: None,
                    }],
                    ..FaultPlan::default()
                },
                "round budget",
            ),
            (
                FaultPlan {
                    crashes: vec![Crash {
                        node: 1,
                        at_round: 5,
                        recover_at: Some(5),
                    }],
                    ..FaultPlan::default()
                },
                "strictly later",
            ),
            (
                FaultPlan {
                    crashes: vec![
                        Crash {
                            node: 1,
                            at_round: 2,
                            recover_at: None,
                        },
                        Crash {
                            node: 1,
                            at_round: 7,
                            recover_at: None,
                        },
                    ],
                    ..FaultPlan::default()
                },
                "twice",
            ),
        ];
        // Crashes of nodes the 4-node path does not have: just past the
        // end, far out, and at the id space's limit.
        for node in [4, 1000, NodeId::MAX] {
            cases.push((
                FaultPlan {
                    crashes: vec![Crash {
                        node,
                        at_round: 1,
                        recover_at: None,
                    }],
                    ..FaultPlan::default()
                },
                "graph has 4 nodes",
            ));
        }
        let g = lcs_graph::generators::path(4);
        for (plan, needle) in cases {
            let cfg = fault_cfg(plan, 1);
            let err = run(&g, Flood, &cfg).expect_err("plan must be rejected");
            match &err {
                SimError::FaultConfig { reason } => assert!(
                    reason.contains(needle),
                    "reason {reason:?} should mention {needle:?}"
                ),
                other => panic!("expected FaultConfig, got {other:?}"),
            }
        }
        // A valid plan passes.
        assert!(FaultPlan::drops(0.3, 9).validate(8, 1 << 20).is_ok());
    }

    /// Fault fates hash `(seed, round, arc)` — never shard layout: a
    /// lossy flood is bit-identical (per-node state, stats, and the
    /// fault counters folded into them) at every shard count.
    #[test]
    fn faulty_runs_bit_identical_across_shards() {
        for g in [
            lcs_graph::generators::path(23),
            lcs_graph::generators::complete(17),
        ] {
            let plan = FaultPlan {
                drop_rate: 0.25,
                delay_rate: 0.25,
                max_delay: 3,
                corrupt_rate: 0.25,
                crashes: Vec::new(),
                fault_seed: 0xC0FFEE,
            };
            let (base_nodes, base_stats) = run(&g, Flood, &fault_cfg(plan.clone(), 1)).unwrap();
            // On the sparse path the flood may die out before both fault
            // kinds fire; at least one must (the clique exercises both).
            assert!(base_stats.dropped + base_stats.delayed > 0);
            for shards in [2usize, 3, 8] {
                let (nodes, stats) = run(&g, Flood, &fault_cfg(plan.clone(), shards)).unwrap();
                assert_eq!(nodes, base_nodes, "shards={shards}");
                assert_eq!(stats, base_stats, "shards={shards}");
                assert_eq!(
                    stats.fingerprint(),
                    base_stats.fingerprint(),
                    "shards={shards}"
                );
            }
        }
    }

    /// Delaying every message must not break quiescence: a delivery due
    /// on a round where nothing else happens has to wake its receiver,
    /// or the flood stalls forever.
    #[test]
    fn delayed_delivery_wakes_receiver() {
        let g = lcs_graph::generators::path(6);
        let plan = FaultPlan {
            drop_rate: 0.0,
            delay_rate: 1.0, // every single message is late
            max_delay: 3,
            corrupt_rate: 0.0,
            crashes: Vec::new(),
            fault_seed: 11,
        };
        for shards in [1usize, 4] {
            let (nodes, stats) = run(&g, Flood, &fault_cfg(plan.clone(), shards)).unwrap();
            // The flood still reaches everyone, strictly later than the
            // fault-free schedule (node v hears at round v unfaulted).
            for (v, node) in nodes.iter().enumerate().skip(1) {
                let heard = node.heard_at.expect("flood must still arrive");
                assert!(heard > v as u64, "node {v} heard at {heard}");
            }
            assert_eq!(stats.delayed, stats.messages);
            assert_eq!(stats.dropped, 0);
        }
    }

    /// A crash-stopped relay severs the path; recovery (state intact,
    /// in-flight mail lost) lets a retransmitting sender get through.
    #[test]
    fn crash_silences_node_and_recovery_restores_it() {
        // Persistent sender: node 0 re-sends its token every round until
        // node 1 acks; the crash window of node 1 swallows the first
        // attempts.
        struct Nag;
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        struct NagNode {
            acked: bool,
            heard_at: Option<u64>,
        }
        impl Protocol for Nag {
            type Msg = u32;
            type State = NagNode;
            type Output = Vec<NagNode>;
            fn init(&mut self, graph: &Graph) -> Vec<NagNode> {
                vec![NagNode::default(); graph.n()]
            }
            fn round(&self, st: &mut NagNode, ctx: &mut RoundCtx<'_, u32>) {
                if ctx.node() == 0 {
                    if !ctx.inbox().is_empty() {
                        st.acked = true;
                    }
                    if !st.acked {
                        ctx.send_nth(0, 7);
                    }
                } else if st.heard_at.is_none() && !ctx.inbox().is_empty() {
                    st.heard_at = Some(ctx.round());
                    ctx.send_nth(0, 1); // ack back
                }
            }
            fn halted(&self, st: &NagNode) -> bool {
                st.acked || st.heard_at.is_some()
            }
            fn finish(self, _: &Graph, states: Vec<NagNode>, _: &RunStats) -> Vec<NagNode> {
                states
            }
        }
        let g = lcs_graph::generators::path(2);
        let plan = FaultPlan {
            crashes: vec![Crash {
                node: 1,
                at_round: 1,
                recover_at: Some(6),
            }],
            ..FaultPlan::default()
        };
        for shards in [1usize, 2] {
            let (nodes, stats) = run(&g, Nag, &fault_cfg(plan.clone(), shards)).unwrap();
            // Deliveries due in rounds 1..6 land on a dead node; the
            // first send surviving the outage arrives at round 6.
            assert_eq!(nodes[1].heard_at, Some(6), "shards={shards}");
            assert!(nodes[0].acked);
            assert!(stats.dropped >= 5, "outage must destroy mail");
            assert_eq!(stats.crashed_nodes, 1);
        }
    }

    /// A crash scheduled on an already-quiescent network must not keep
    /// the run spinning (the event is unobservable), but a pending
    /// *recovery* must keep the run alive until it fires.
    #[test]
    fn scheduled_faults_interact_correctly_with_quiescence() {
        let g = lcs_graph::generators::path(3);
        // Flood quiesces after ~4 rounds; a crash at round 50 (no
        // recovery) must not stretch the run to round 50.
        let crash_late = FaultPlan {
            crashes: vec![Crash {
                node: 2,
                at_round: 50,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let (_, stats) = run(&g, Flood, &fault_cfg(crash_late, 1)).unwrap();
        assert!(stats.rounds < 50, "rounds={}", stats.rounds);
        // With a recovery at round 60 the run must survive to fire it
        // (the recovered node is re-activated and may act on its state).
        let crash_recover = FaultPlan {
            crashes: vec![Crash {
                node: 2,
                at_round: 50,
                recover_at: Some(60),
            }],
            ..FaultPlan::default()
        };
        let (_, stats) = run(&g, Flood, &fault_cfg(crash_recover, 1)).unwrap();
        assert!(stats.rounds > 60, "rounds={}", stats.rounds);
    }

    /// Without a plan, the fault machinery must stay entirely out of
    /// the hot path — and out of the fingerprint.
    #[test]
    fn absent_fault_plan_changes_nothing() {
        let g = lcs_graph::generators::complete(9);
        let (base_nodes, base_stats) = run(&g, Flood, &SimConfig::default()).unwrap();
        let zeroed = FaultPlan {
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 1,
            corrupt_rate: 0.0,
            crashes: Vec::new(),
            fault_seed: 42,
        };
        let (nodes, stats) = run(&g, Flood, &fault_cfg(zeroed, 1)).unwrap();
        assert_eq!(nodes, base_nodes);
        assert_eq!(stats.fingerprint(), base_stats.fingerprint());
        assert_eq!(base_stats.dropped, 0);
        assert_eq!(base_stats.crashed_nodes, 0);
    }
}
