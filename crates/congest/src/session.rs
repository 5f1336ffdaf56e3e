//! The [`Session`] runner: one engine instance — graph, worker pool,
//! reverse-arc tables, cumulative statistics — shared by any number of
//! [`Protocol`] phases.
//!
//! Multi-phase CONGEST computations (the shortcut construction's
//! BFS → aggregation → numbering → multi-BFS → verification pipeline;
//! Boruvka's per-phase MWOE aggregations) run as **sequential
//! composition**: [`Session::run`] executes phases back-to-back on the
//! *same* worker pool (spawned exactly once, at session creation) and
//! the same precomputed reverse-arc table, absorbing every phase's
//! [`RunStats`] into one cumulative total with a per-phase breakdown
//! ([`Session::phases`]) and an optional cumulative round budget
//! ([`Session::with_round_budget`]). Work that shares rounds shares a
//! protocol: the part-wise protocols multiplex their instances over
//! each edge, and two aggregations over one tree fold a pair in one
//! convergecast, as in the example below.
//!
//! Determinism is inherited from the engine: outcomes, statistics, and
//! per-node RNG streams of every phase are bit-identical for any shard
//! count. Each phase reseeds its node RNGs from the phase's
//! [`SimConfig::seed`] (overridable per phase via
//! [`Session::run_configured`]), so a pipeline run through one session
//! is also bit-identical to the same phases run through separate
//! engines — sessions change the cost model, never the outcome.
//!
//! ```
//! use lcs_congest::{positions_from_tree, Bfs, Session, SimConfig, TreeAggregate};
//!
//! let g = lcs_graph::generators::grid(4, 4);
//! let mut session = Session::new(&g, SimConfig::default());
//!
//! // Phase 1: build a BFS tree from node 0.
//! let bfs = session.run(Bfs::new(0)).unwrap();
//! let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
//!
//! // Phase 2: count the nodes and find the tree's depth in ONE
//! // convergecast, folding the pair (1, depth) by (+, max).
//! let census: Vec<(u32, u32)> = bfs.dist.iter().map(|d| (1, d.unwrap())).collect();
//! let (res, _) = session
//!     .run_labeled(
//!         "census",
//!         TreeAggregate::folding(pos, census, |(n1, h1), (n2, h2)| (n1 + n2, h1.max(h2)), true),
//!     )
//!     .unwrap();
//! assert_eq!(res[0], Some((16, 6)));
//!
//! // Cumulative and per-phase accounting.
//! assert_eq!(session.phases().len(), 2);
//! assert_eq!(session.phases()[1].label, "census");
//! assert_eq!(
//!     session.stats().rounds,
//!     session.phases().iter().map(|p| p.rounds).sum::<u64>(),
//! );
//! ```

use crate::error::SimError;
use crate::protocol::Protocol;
use crate::sim::{run_phase, EngineHost, SimConfig};
use crate::stats::RunStats;
use lcs_graph::Graph;

/// One engine instance (worker pool, reverse-arc table, RNG seeding
/// discipline, cumulative statistics) hosting a pipeline of
/// [`Protocol`] phases over one graph. See the [module docs](self).
pub struct Session<'g> {
    graph: &'g Graph,
    cfg: SimConfig,
    host: EngineHost,
    cumulative: RunStats,
    phases: Vec<RunStats>,
    round_budget: Option<u64>,
    /// Rounds charged to the budget by phases that FAILED with
    /// [`SimError::RoundLimitExceeded`] (such a phase is not listed in
    /// `phases`, but its rounds really executed — it must not leave the
    /// budget untouched).
    charged_rounds: u64,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("n", &self.graph.n())
            .field("shards", &self.shards())
            .field("phases", &self.phases.len())
            .field("rounds_used", &self.cumulative.rounds)
            .field("round_budget", &self.round_budget)
            .finish()
    }
}

impl<'g> Session<'g> {
    /// Creates a session on `graph`. The worker pool is spawned here —
    /// once — with `cfg.shards` resolved per
    /// [`SimConfig::resolved_shards`]; every phase reuses it. `cfg` is
    /// the default configuration of each phase (see
    /// [`Session::run_configured`] for per-phase overrides; a phase
    /// override of `shards` is ignored, since the pool is fixed).
    pub fn new(graph: &'g Graph, cfg: SimConfig) -> Self {
        let host = EngineHost::new(graph, cfg.resolved_shards(graph.n()));
        Session {
            graph,
            cfg,
            host,
            cumulative: RunStats::new(graph),
            phases: Vec::new(),
            round_budget: None,
            charged_rounds: 0,
        }
    }

    /// Caps the session's **cumulative** rounds across all phases.
    /// Each subsequent phase runs with `max_rounds` clamped to the
    /// remaining budget; once the budget is spent, further phases fail
    /// with [`SimError::RoundLimitExceeded`] (reporting the budget as
    /// the limit). This is the session-level form of the paper's round
    /// accounting: a pipeline is one algorithm with one budget, not a
    /// sequence of independently-bounded runs.
    pub fn with_round_budget(mut self, budget: u64) -> Self {
        self.round_budget = Some(budget);
        self
    }

    /// The graph this session runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The session's base phase configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The resolved shard count (= persistent pool workers).
    pub fn shards(&self) -> usize {
        self.host.pool.workers()
    }

    /// Cumulative statistics over every entry of [`Session::phases`]:
    /// completed phases and phases aborted by a model violation.
    pub fn stats(&self) -> &RunStats {
        &self.cumulative
    }

    /// Per-phase statistics, in execution order, each labeled with the
    /// phase's [`Protocol::label`] (or the explicit
    /// [`Session::run_labeled`] label).
    ///
    /// A phase aborted by a model violation (say
    /// [`SimError::QuietBoundViolated`]) is listed too. Its `rounds`
    /// count the round the violation happened in; its messages, words
    /// and fault counters stop at the end of the round before. How much
    /// of the aborting round ran depends on the shard count, so leaving
    /// it out keeps the entry identical at every shard count. A phase
    /// that failed with [`SimError::RoundLimitExceeded`] or was refused
    /// before it started (an invalid configuration, a spent budget) is
    /// not listed.
    pub fn phases(&self) -> &[RunStats] {
        &self.phases
    }

    /// Rounds consumed so far, cumulative across phases: the rounds of
    /// every entry of [`Session::phases`], aborted ones included, plus
    /// the cap of every phase that failed with
    /// [`SimError::RoundLimitExceeded`] (those executed to their cap
    /// but are not listed).
    pub fn rounds_used(&self) -> u64 {
        self.cumulative.rounds + self.charged_rounds
    }

    /// Rounds left in the budget (`None` when unbudgeted).
    pub fn rounds_remaining(&self) -> Option<u64> {
        self.round_budget
            .map(|b| b.saturating_sub(self.rounds_used()))
    }

    /// Runs one protocol phase to quiescence and returns its typed
    /// output; the phase's statistics are recorded under
    /// [`Protocol::label`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on any CONGEST-model violation, when the
    /// phase exceeds `max_rounds`, or when the session's round budget
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `init` does not produce exactly one
    /// state per node, or propagates a panic from a protocol hook (on
    /// any shard — the pool never deadlocks on a panicking phase).
    pub fn run<P: Protocol + Sync>(&mut self, protocol: P) -> Result<P::Output, SimError> {
        let label = protocol.label().to_string();
        self.dispatch(label, protocol, |_| {})
    }

    /// [`Session::run`] with an explicit phase label (overriding
    /// [`Protocol::label`]) — useful when one pipeline runs the same
    /// protocol type several times.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_labeled<P: Protocol + Sync>(
        &mut self,
        label: impl Into<String>,
        protocol: P,
    ) -> Result<P::Output, SimError> {
        self.dispatch(label.into(), protocol, |_| {})
    }

    /// [`Session::run`] with a per-phase configuration override
    /// (applied to a copy of the session config): seed, round limit,
    /// bandwidth. A `shards` override is ignored — the pool is fixed
    /// for the session's lifetime.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_configured<P: Protocol + Sync>(
        &mut self,
        label: impl Into<String>,
        protocol: P,
        configure: impl FnOnce(&mut SimConfig),
    ) -> Result<P::Output, SimError> {
        self.dispatch(label.into(), protocol, configure)
    }

    fn dispatch<P: Protocol + Sync>(
        &mut self,
        label: String,
        mut protocol: P,
        configure: impl FnOnce(&mut SimConfig),
    ) -> Result<P::Output, SimError> {
        let mut cfg = self.cfg.clone();
        configure(&mut cfg);
        if let Some(budget) = self.round_budget {
            let remaining = budget.saturating_sub(self.rounds_used());
            if remaining == 0 {
                return Err(SimError::RoundLimitExceeded { limit: budget });
            }
            cfg.max_rounds = cfg.max_rounds.min(remaining);
        }
        cfg.validate(self.graph.n())?;
        let states = protocol.init(self.graph);
        let (outcome, stats) = run_phase(self.graph, &mut self.host, &protocol, states, &cfg);
        match outcome {
            Err(e @ SimError::RoundLimitExceeded { .. }) => {
                // The phase ran all the way to its cap; debit the
                // budget so a caller that catches the error and
                // retries cannot execute unbounded rounds under it.
                self.charged_rounds += cfg.max_rounds;
                Err(e)
            }
            outcome => {
                // Completed, or aborted by a model violation: either
                // way its rounds ran, and they are billed alike.
                let stats = stats.labeled(label);
                self.cumulative.absorb(&stats);
                let output = outcome.map(|states| protocol.finish(self.graph, states, &stats));
                self.phases.push(stats);
                output
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::node::RoundCtx;
    use crate::tree::{positions_from_tree, AggOp, TreeAggregate};

    #[test]
    fn sequential_phases_accumulate_stats_and_labels() {
        let g = lcs_graph::generators::grid(4, 4);
        let mut session = Session::new(&g, SimConfig::default());
        let bfs = session.run(Bfs::new(0)).unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let ones = vec![1u64; g.n()];
        let (res, agg_stats) = session
            .run(TreeAggregate::new(pos, &ones, AggOp::Sum, false))
            .unwrap();
        assert_eq!(res[0], Some(16));
        assert_eq!(session.phases().len(), 2);
        assert_eq!(session.phases()[0].label, "bfs");
        assert_eq!(session.phases()[1].label, "tree_aggregate");
        assert_eq!(session.phases()[1], agg_stats);
        assert_eq!(
            session.stats().rounds,
            bfs.stats.rounds + agg_stats.rounds,
            "cumulative = sum of phases"
        );
        assert_eq!(
            session.stats().messages,
            bfs.stats.messages + agg_stats.messages
        );
    }

    #[test]
    fn round_budget_is_cumulative_across_phases() {
        let g = lcs_graph::generators::path(12);
        let mut session = Session::new(&g, SimConfig::default()).with_round_budget(1000);
        let first = session.run(Bfs::new(0)).unwrap();
        assert_eq!(session.rounds_remaining(), Some(1000 - first.stats.rounds));
        // Exhaust the budget with a tiny one.
        let mut tight = Session::new(&g, SimConfig::default()).with_round_budget(3);
        let err = tight.run(Bfs::new(0)).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }));
        // The failed phase executed to its cap and must be DEBITED:
        // a caller that catches the error and retries cannot run
        // unbounded rounds under the budget.
        assert_eq!(tight.rounds_used(), 3);
        assert_eq!(tight.rounds_remaining(), Some(0));
        let err = tight.run(Bfs::new(0)).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 3 });
        let mut spent = Session::new(&g, SimConfig::default()).with_round_budget(0);
        let err = spent.run(Bfs::new(0)).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 0 });
    }

    #[test]
    fn run_configured_overrides_seed_per_phase() {
        let g = lcs_graph::generators::grid(3, 3);
        // A protocol whose outcome depends on the node RNG stream.
        struct Coin;
        impl Protocol for Coin {
            type Msg = ();
            type State = u64;
            type Output = Vec<u64>;
            fn init(&mut self, graph: &Graph) -> Vec<u64> {
                vec![0; graph.n()]
            }
            fn round(&self, st: &mut u64, ctx: &mut RoundCtx<'_, ()>) {
                if ctx.round() == 0 {
                    *st = rand::Rng::gen(ctx.rng());
                }
            }
            fn halted(&self, _: &u64) -> bool {
                true
            }
            fn finish(self, _: &Graph, st: Vec<u64>, _: &RunStats) -> Vec<u64> {
                st
            }
        }
        let mut session = Session::new(&g, SimConfig::default());
        let a = session.run(Coin).unwrap();
        let b = session.run(Coin).unwrap();
        let c = session
            .run_configured("coin2", Coin, |cfg| cfg.seed ^= 0xDEAD)
            .unwrap();
        assert_eq!(a, b, "same phase seed, same streams");
        assert_ne!(a, c, "overridden seed must move the streams");
        assert_eq!(session.phases()[2].label, "coin2");
    }

    /// A phase aborted by a model violation is listed and billed: its
    /// rounds include the aborting round, its traffic stops at the end
    /// of the round before. The aborting round's sends are left out
    /// even though every node made them before the violation.
    #[test]
    fn aborted_phase_is_billed_through_its_last_completed_round() {
        // Every node sends to each neighbor every round; at round 3 the
        // last node of the path also addresses node 0, a non-neighbor.
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u32;
            type State = ();
            type Output = ();
            fn init(&mut self, graph: &Graph) -> Vec<()> {
                vec![(); graph.n()]
            }
            fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, u32>) {
                for i in 0..ctx.degree() {
                    ctx.send_nth(i, 1);
                }
                if ctx.round() == 3 && ctx.node() as usize == ctx.n() - 1 {
                    ctx.send(0, 2);
                }
            }
            fn halted(&self, _: &()) -> bool {
                false
            }
            fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
        }
        let g = lcs_graph::generators::path(6); // 5 edges, 10 arcs
        for shards in [1, 2, 3] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let mut session = Session::new(&g, cfg);
            let err = session.run_labeled("chatter", Chatter).unwrap_err();
            assert_eq!(
                err,
                SimError::InvalidDestination {
                    from: 5,
                    to: 0,
                    round: 3
                }
            );
            let phase = &session.phases()[0];
            assert_eq!(phase.label, "chatter");
            assert_eq!(phase.rounds, 4, "shards={shards}");
            assert_eq!(phase.messages, 3 * 10, "rounds 0-2 only, shards={shards}");
            assert_eq!(phase.words, 3 * 10);
            assert_eq!(phase.per_edge_messages, vec![6; 5]);
            assert_eq!(session.stats().messages, 30);
            assert_eq!(session.rounds_used(), 4);
        }
    }

    /// Sessions change the cost model, never the outcome: a pipeline
    /// through one session equals the phases run in fresh engines.
    #[test]
    fn session_phases_match_fresh_engine_runs() {
        let g = lcs_graph::generators::gnp_connected(
            30,
            0.15,
            &mut <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(9),
        );
        let mut session = Session::new(&g, SimConfig::default());
        let b1 = session.run(Bfs::new(0)).unwrap();
        let pos = positions_from_tree(0, &b1.parent, &b1.children);
        let ones = vec![1u64; g.n()];
        let (r1, s1) = session
            .run(TreeAggregate::new(pos.clone(), &ones, AggOp::Sum, true))
            .unwrap();

        let b2 = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let (r2, s2) = Session::new(&g, SimConfig::default())
            .run(TreeAggregate::new(pos, &ones, AggOp::Sum, true))
            .unwrap();
        assert_eq!(b1.dist, b2.dist);
        assert_eq!(b1.stats, b2.stats);
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }
}
