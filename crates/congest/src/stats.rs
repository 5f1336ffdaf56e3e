//! Run statistics: rounds, message counts, per-edge traffic.

use lcs_graph::Graph;

#[cfg(test)]
use lcs_graph::EdgeId;

/// Statistics collected by a completed simulator run.
///
/// All fields are order-independent integer accumulations, which is what
/// makes sharded execution able to reproduce them bit-identically (see
/// [`crate::sim`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Phase label (set by [`Session`](crate::Session) from
    /// [`Protocol::label`](crate::Protocol::label), or via
    /// [`RunStats::labeled`]; empty for raw engine runs). Purely
    /// descriptive: excluded from [`RunStats::fingerprint`] so the
    /// shard-determinism gates compare numbers, not naming.
    pub label: String,
    /// Number of synchronous rounds executed (including quiescent final
    /// sweep).
    pub rounds: u64,
    /// Number of rounds in which at least one message was delivered
    /// (always `<= rounds`; the gap counts idle/compute-only rounds).
    pub delivered_rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total message volume in `⌈log₂ n⌉`-bit words.
    pub words: u64,
    /// Cumulative message count per undirected edge, indexed by
    /// [`EdgeId`](lcs_graph::EdgeId).
    pub per_edge_messages: Vec<u64>,
    /// Messages destroyed by the fault layer (never delivered): fate
    /// drops plus messages addressed to a crashed node. Always 0 when
    /// the run has no [`FaultPlan`](crate::FaultPlan).
    pub dropped: u64,
    /// Messages the fault layer delivered late (each counted once, at
    /// the round its delay was decided).
    pub delayed: u64,
    /// Messages whose payload the fault layer corrupted in flight (they
    /// still count as delivered — the receiver got a lie).
    pub corrupted: u64,
    /// Number of distinct nodes that crash-stopped during the run
    /// (crashes scheduled past the final round are not counted).
    pub crashed_nodes: u64,
}

impl RunStats {
    /// Fresh zeroed statistics for a run on `g` (public so orchestrators
    /// can accumulate multi-phase protocols with [`RunStats::absorb`]).
    pub fn new(g: &Graph) -> Self {
        RunStats {
            label: String::new(),
            rounds: 0,
            delivered_rounds: 0,
            messages: 0,
            words: 0,
            per_edge_messages: vec![0; g.m()],
            dropped: 0,
            delayed: 0,
            corrupted: 0,
            crashed_nodes: 0,
        }
    }

    /// Relabels these statistics (builder-style), e.g. with the phase
    /// name of the [`Session`](crate::Session) phase that produced
    /// them.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Largest cumulative message count over any single edge — a proxy
    /// for worst-edge load across the whole run.
    pub fn max_edge_messages(&self) -> u64 {
        self.per_edge_messages.iter().copied().max().unwrap_or(0)
    }

    /// Mean messages per edge (0 for edgeless graphs).
    pub fn mean_edge_messages(&self) -> f64 {
        if self.per_edge_messages.is_empty() {
            return 0.0;
        }
        self.messages as f64 / self.per_edge_messages.len() as f64
    }

    /// Stable 64-bit fingerprint over every *numeric* field (FNV-1a),
    /// including the full per-edge histogram — the descriptive
    /// [`RunStats::label`] is deliberately excluded. Two runs have
    /// equal fingerprints iff their statistics are byte-equal (modulo
    /// hash collisions), so the shard-sweep determinism check in the
    /// `sim_throughput` bench can compare sharded against sequential
    /// runs with one number.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv::new();
        h.u64(self.rounds)
            .u64(self.delivered_rounds)
            .u64(self.messages)
            .u64(self.words)
            .u64(self.per_edge_messages.len() as u64);
        for &x in &self.per_edge_messages {
            h.u64(x);
        }
        // Fault counters fold only when a fault actually occurred, so
        // every fingerprint recorded before the fault layer existed —
        // and every fault-free run since — is byte-for-byte unchanged.
        if self.dropped | self.delayed | self.crashed_nodes != 0 {
            h.u64(self.dropped)
                .u64(self.delayed)
                .u64(self.crashed_nodes);
        }
        // Same backwards-compatibility rule for the corruption tier,
        // under its own guard: every fingerprint recorded before
        // `corrupt_rate` existed has `corrupted == 0` and is unchanged —
        // including faulty (drop/delay/crash) ones.
        if self.corrupted != 0 {
            h.u64(self.corrupted);
        }
        h.finish()
    }

    /// Accumulates another run's statistics (for multi-phase protocols
    /// executed as successive simulator runs). Every numeric field —
    /// including [`RunStats::delivered_rounds`] — is summed, so
    /// absorbing the stats of phases 1 and 2 yields exactly the
    /// component-wise totals of the two runs. `self`'s label is kept.
    ///
    /// # Panics
    ///
    /// Panics if the per-edge vectors have different lengths (i.e. the
    /// runs were on different graphs).
    pub fn absorb(&mut self, other: &RunStats) {
        assert_eq!(
            self.per_edge_messages.len(),
            other.per_edge_messages.len(),
            "stats from different graphs"
        );
        self.rounds += other.rounds;
        self.delivered_rounds += other.delivered_rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.corrupted += other.corrupted;
        self.crashed_nodes += other.crashed_nodes;
        for (a, b) in self
            .per_edge_messages
            .iter_mut()
            .zip(other.per_edge_messages.iter())
        {
            *a += b;
        }
    }

    #[cfg(test)]
    pub(crate) fn record(&mut self, edge: EdgeId, words: u32) {
        self.messages += 1;
        self.words += words as u64;
        self.per_edge_messages[edge.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::session::Session;
    use crate::sim::SimConfig;
    use lcs_graph::Graph;

    fn bfs_stats(g: &Graph, root: u32, cfg: &SimConfig) -> RunStats {
        Session::new(g, cfg.clone())
            .run(Bfs::new(root))
            .unwrap()
            .stats
    }

    #[test]
    fn absorb_accumulates() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut a = RunStats::new(&g);
        a.rounds = 3;
        a.delivered_rounds = 2;
        a.record(EdgeId(0), 2);
        let mut b = RunStats::new(&g);
        b.rounds = 2;
        b.delivered_rounds = 1;
        b.record(EdgeId(1), 1);
        b.record(EdgeId(1), 1);
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.delivered_rounds, 3);
        assert_eq!(a.messages, 3);
        assert_eq!(a.words, 4);
        assert_eq!(a.per_edge_messages, vec![1, 2]);
        assert_eq!(a.max_edge_messages(), 2);
    }

    #[test]
    fn fingerprint_separates_unequal_stats_and_matches_equal_ones() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut a = RunStats::new(&g);
        a.rounds = 3;
        a.record(EdgeId(0), 2);
        let mut b = RunStats::new(&g);
        b.rounds = 3;
        b.record(EdgeId(0), 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any field difference must move the fingerprint.
        b.delivered_rounds += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.delivered_rounds -= 1;
        b.per_edge_messages[1] += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// The fingerprint is shard-invariant because the stats themselves
    /// are — sequential and pooled runs of the same protocol agree.
    #[test]
    fn fingerprint_is_shard_invariant_on_a_real_run() {
        let g = lcs_graph::generators::grid(5, 5);
        let base = bfs_stats(&g, 0, &SimConfig::default());
        for shards in [2usize, 5, 25] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let st = bfs_stats(&g, 0, &cfg);
            assert_eq!(st.fingerprint(), base.fingerprint(), "shards={shards}");
        }
    }

    #[test]
    fn mean_edge_messages_is_zero_on_edgeless_graph() {
        let g = Graph::from_edges(4, &[]).unwrap();
        let s = RunStats::new(&g);
        assert_eq!(s.mean_edge_messages(), 0.0);
        assert_eq!(s.max_edge_messages(), 0);
    }

    /// Round-trips `absorb` against a real two-phase run: running the
    /// same protocol twice and absorbing must equal the component-wise
    /// sum of the individual runs, for every field the engine emits.
    #[test]
    fn absorb_round_trips_a_two_phase_run() {
        let g = lcs_graph::generators::grid(4, 4);
        let cfg = SimConfig::default();
        let phase1 = bfs_stats(&g, 0, &cfg);
        let phase2 = bfs_stats(&g, 15, &cfg);
        let mut total = RunStats::new(&g);
        total.absorb(&phase1);
        total.absorb(&phase2);
        assert_eq!(total.rounds, phase1.rounds + phase2.rounds);
        assert_eq!(
            total.delivered_rounds,
            phase1.delivered_rounds + phase2.delivered_rounds
        );
        assert!(total.delivered_rounds > 0 && total.delivered_rounds < total.rounds);
        assert_eq!(total.messages, phase1.messages + phase2.messages);
        assert_eq!(total.words, phase1.words + phase2.words);
        for e in 0..g.m() {
            assert_eq!(
                total.per_edge_messages[e],
                phase1.per_edge_messages[e] + phase2.per_edge_messages[e]
            );
        }
        // Absorbing a zeroed stats value is the identity.
        let snapshot = total.clone();
        total.absorb(&RunStats::new(&g));
        assert_eq!(total, snapshot);
    }
}
