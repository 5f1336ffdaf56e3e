//! # lcs-congest
//!
//! A deterministic, synchronous **CONGEST-model simulator** plus the
//! distributed primitives used by the Kogan–Parter shortcut construction
//! (PODC 2021) and its applications.
//!
//! The CONGEST model (Peleg 2000): `n` processors, one per graph node,
//! communicate in synchronous rounds; per round each node may send one
//! `O(log n)`-bit message to each neighbor. The engine in [`sim`]
//! enforces exactly that (message sizes are accounted in `⌈log₂ n⌉`-bit
//! words, at most [`message::BANDWIDTH_WORDS`] per message) and
//! reports rounds, message totals, and per-edge traffic. Scheduling is
//! **event-driven** ([`Wake`]): a node runs only when it has mail, asked
//! to stay awake, or the phase just started, so a round costs
//! `O(active nodes + delivered messages)` rather than `O(n)` — with
//! outcomes bit-identical to polling every node every round.
//!
//! Provided protocols:
//!
//! * [`bfs`] — single-source BFS tree with child discovery;
//! * [`tree`] — convergecast / broadcast / prefix numbering on a rooted
//!   tree (`O(depth)` rounds);
//! * [`multi_bfs`] — `N` truncated BFS instances over overlapping
//!   subgraphs, multiplexed through per-edge FIFO queues with random
//!   start delays (the executable form of the paper's use of the
//!   Ghaffari'15 scheduler);
//! * [`multi_aggregate`] — partwise aggregation over many overlapping
//!   trees (the primitive consumed by MST / min-cut / verification).
//!
//! Every protocol is a first-class [`Protocol`] value, run through a
//! [`Session`] — one engine instance (worker pool, reverse-arc tables,
//! cumulative statistics) hosting any number of phases, one after
//! another ([`Session::run`]). Concurrency lives inside a protocol: the
//! part-wise protocols share rounds across their instances, and a
//! [`TreeAggregate`] folds several values over one tree at once.
//!
//! ## Example
//!
//! ```
//! use lcs_congest::{Bfs, Session, SimConfig};
//!
//! let g = lcs_graph::generators::grid(3, 3);
//! let mut session = Session::new(&g, SimConfig::default());
//! let out = session.run(Bfs::new(0)).unwrap();
//! assert_eq!(out.dist[8], Some(4));
//! // The session keeps cumulative + per-phase statistics.
//! assert_eq!(session.stats().rounds, out.stats.rounds);
//! assert_eq!(session.phases()[0].label, "bfs");
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod accounting;
mod arena;
pub mod bfs;
mod capture;
pub mod error;
pub mod hash;
pub mod message;
pub mod multi_aggregate;
pub mod multi_bfs;
pub mod node;
pub mod pool;
pub mod protocol;
pub mod reliable;
pub mod session;
pub mod sim;
pub mod stats;
pub mod tree;

pub use accounting::{ceil_log2, ScheduleCost};
pub use bfs::{Bfs, BfsMsg, BfsNode, DistBfsOutcome};
pub use error::SimError;
pub use message::{Message, BANDWIDTH_WORDS};
pub use multi_aggregate::{
    MultiAggMsg, MultiAggNode, MultiAggOutcome, MultiAggregate, Participation,
};
pub use multi_bfs::{
    Membership, MembershipFn, MultiBfs, MultiBfsInstance, MultiBfsMsg, MultiBfsNode,
    MultiBfsOutcome, MultiBfsSpec, Reached,
};
pub use node::{RoundCtx, Wake};
pub use pool::{Control, Pool};
pub use protocol::Protocol;
pub use reliable::{Reliable, ReliableMsg};
pub use session::Session;
pub use sim::{Crash, FaultPlan, SimConfig};
pub use stats::RunStats;
pub use tree::{
    positions_from_tree, AggOp, ConvergecastNode, PrefixNumber, PrefixNumberNode, TreeAggregate,
    TreeMsg, TreePosition,
};
