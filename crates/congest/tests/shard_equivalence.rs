//! Tier-1 differential suite for the persistent worker pool: every
//! protocol the construction uses — bfs, tree aggregation / prefix
//! numbering, multi-BFS, multi-aggregate — must produce **byte-equal
//! outcomes and `RunStats`** for `shards ∈ {1, 2, 3, 8}` on a fixed
//! seed set, and so must *composed* [`Session`] pipelines (phase chains
//! sharing one pool, a folded tuple aggregation among them). Unlike the
//! tier-2 proptests this runs on every `cargo
//! test`, so a pool or session regression fails fast without
//! `--features slow-tests`.

use lcs_congest::{
    positions_from_tree, AggOp, Bfs, Crash, DistBfsOutcome, FaultPlan, MultiAggOutcome,
    MultiAggregate, MultiBfs, MultiBfsInstance, MultiBfsOutcome, MultiBfsSpec, Participation,
    PrefixNumber, Protocol, Reliable, RoundCtx, RunStats, Session, SimConfig, SimError,
    TreeAggregate, Wake,
};
use lcs_graph::{gnp_connected, Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The shard counts under test: sequential, even splits, an odd split,
/// and more shards than fit evenly.
const SHARDS: [usize; 4] = [1, 2, 3, 8];

/// Fixed seeds: enough diversity to hit different graph shapes and
/// message schedules while keeping this suite tier-1 fast.
const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0x5EED];

fn fixtures(seed: u64) -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    vec![
        gnp_connected(48, 0.12, &mut rng),
        lcs_graph::generators::grid(8, 6),
        lcs_graph::generators::star(17),
    ]
}

fn cfg(seed: u64, shards: usize) -> SimConfig {
    SimConfig {
        seed,
        shards,
        ..SimConfig::default()
    }
}

fn session(g: &Graph, seed: u64, shards: usize) -> Session<'_> {
    Session::new(g, cfg(seed, shards))
}

fn bfs(g: &Graph, root: NodeId, seed: u64, shards: usize) -> DistBfsOutcome {
    session(g, seed, shards).run(Bfs::new(root)).unwrap()
}

#[test]
fn bfs_outcomes_and_stats_are_byte_equal_across_shard_counts() {
    for seed in SEEDS {
        for g in fixtures(seed) {
            let root = (seed % g.n() as u64) as NodeId;
            let base = bfs(&g, root, seed, 1);
            for shards in SHARDS {
                let out = bfs(&g, root, seed, shards);
                assert_eq!(out.dist, base.dist, "dist, seed={seed}, shards={shards}");
                assert_eq!(
                    out.parent, base.parent,
                    "parent, seed={seed}, shards={shards}"
                );
                assert_eq!(
                    out.children, base.children,
                    "children, seed={seed}, shards={shards}"
                );
                assert_eq!(out.stats, base.stats, "stats, seed={seed}, shards={shards}");
            }
        }
    }
}

#[test]
fn tree_protocols_are_byte_equal_across_shard_counts() {
    for seed in SEEDS {
        for g in fixtures(seed) {
            let n = g.n();
            let b = bfs(&g, 0, seed, 1);
            let pos = positions_from_tree(0, &b.parent, &b.children);
            let values: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed) % 997).collect();
            let marked: Vec<bool> = (0..n).map(|v| (seed >> (v % 64)) & 1 == 1).collect();
            for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
                let (base_res, base_stats) = session(&g, seed, 1)
                    .run(TreeAggregate::new(pos.clone(), &values, op, true))
                    .unwrap();
                for shards in SHARDS {
                    let (res, stats) = session(&g, seed, shards)
                        .run(TreeAggregate::new(pos.clone(), &values, op, true))
                        .unwrap();
                    assert_eq!(res, base_res, "agg {op:?}, seed={seed}, shards={shards}");
                    assert_eq!(
                        stats, base_stats,
                        "agg stats {op:?}, seed={seed}, shards={shards}"
                    );
                }
            }
            let (base_ranks, base_total, base_stats) = session(&g, seed, 1)
                .run(PrefixNumber::new(pos.clone(), &marked))
                .unwrap();
            for shards in SHARDS {
                let (ranks, total, stats) = session(&g, seed, shards)
                    .run(PrefixNumber::new(pos.clone(), &marked))
                    .unwrap();
                assert_eq!(ranks, base_ranks, "ranks, seed={seed}, shards={shards}");
                assert_eq!(total, base_total, "total, seed={seed}, shards={shards}");
                assert_eq!(
                    stats, base_stats,
                    "prefix stats, seed={seed}, shards={shards}"
                );
            }
        }
    }
}

fn multi_bfs_spec(g: &Graph, seed: u64) -> Arc<MultiBfsSpec> {
    let n = g.n();
    Arc::new(MultiBfsSpec {
        instances: (0..4u32)
            .map(|i| MultiBfsInstance {
                root: (i * 7 + seed as u32) % n as u32,
                start_round: (u64::from(i) * 3) % 5,
                depth_limit: u32::MAX,
            })
            .collect(),
        membership: lcs_congest::Membership::func(|_, _, _| true),
        queue_cap: 3,
    })
}

#[test]
fn multi_bfs_outcomes_are_byte_equal_across_shard_counts() {
    for seed in SEEDS {
        for g in fixtures(seed) {
            let run_one = |shards: usize| -> MultiBfsOutcome {
                session(&g, seed, shards)
                    .run(MultiBfs::new(multi_bfs_spec(&g, seed)))
                    .unwrap()
            };
            let base = run_one(1);
            for shards in SHARDS {
                let out = run_one(shards);
                assert_eq!(
                    out.reached, base.reached,
                    "reached, seed={seed}, shards={shards}"
                );
                assert_eq!(out.max_queue, base.max_queue);
                assert_eq!(out.overflowed, base.overflowed);
                assert_eq!(out.stats, base.stats, "stats, seed={seed}, shards={shards}");
            }
        }
    }
}

fn two_tree_participations(g: &Graph, seed: u64) -> Vec<Vec<Participation>> {
    let n = g.n();
    let roots = [0 as NodeId, (n - 1) as NodeId];
    let mut parts: Vec<Vec<Participation>> = vec![Vec::new(); n];
    for (i, &r) in roots.iter().enumerate() {
        let b = bfs(g, r, seed, 1);
        for (v, part) in parts.iter_mut().enumerate() {
            if b.dist[v].is_none() {
                continue;
            }
            part.push(Participation {
                inst: i as u32,
                parent: b.parent[v],
                children: b.children[v].clone(),
                value: (v as u64).wrapping_mul(seed) % 101,
            });
        }
    }
    parts
}

#[test]
fn multi_aggregate_outcomes_are_byte_equal_across_shard_counts() {
    for seed in SEEDS {
        for g in fixtures(seed) {
            let n = g.n();
            let parts = two_tree_participations(&g, seed);
            let run_one = |shards: usize| -> MultiAggOutcome {
                session(&g, seed, shards)
                    .run(MultiAggregate::new(parts.clone(), AggOp::Sum, true))
                    .unwrap()
            };
            let base = run_one(1);
            for shards in SHARDS {
                let out = run_one(shards);
                for v in 0..n as u32 {
                    for inst in 0..2u32 {
                        assert_eq!(
                            out.result_at(v, inst),
                            base.result_at(v, inst),
                            "result at {v}/{inst}, seed={seed}, shards={shards}"
                        );
                    }
                }
                assert_eq!(out.stats, base.stats, "stats, seed={seed}, shards={shards}");
            }
        }
    }
}

/// RNG-heavy protocol: every node draws a coin per round and gossips a
/// running xor. Catches any divergence in per-node RNG streams or inbox
/// ordering under the pool.
struct GossipXor;

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct GossipNode {
    coins: Vec<u64>,
    acc: u64,
}

impl Protocol for GossipXor {
    type Msg = u32;
    type State = GossipNode;
    type Output = Vec<GossipNode>;
    fn init(&mut self, graph: &Graph) -> Vec<GossipNode> {
        vec![GossipNode::default(); graph.n()]
    }
    fn round(&self, st: &mut GossipNode, ctx: &mut RoundCtx<'_, u32>) {
        let coin: u64 = rand::Rng::gen(ctx.rng());
        st.coins.push(coin);
        for &(from, m) in ctx.inbox() {
            st.acc ^= u64::from(m) ^ (u64::from(from) << 32);
        }
        if ctx.round() < 6 {
            for i in 0..ctx.degree() {
                ctx.send_nth(i, (st.acc ^ coin) as u32);
            }
        }
    }
    fn halted(&self, _: &GossipNode) -> bool {
        true
    }
    fn finish(self, _: &Graph, states: Vec<GossipNode>, _: &RunStats) -> Vec<GossipNode> {
        states
    }
}

#[test]
fn rng_streams_and_delivered_rounds_are_byte_equal_across_shard_counts() {
    for seed in SEEDS {
        for g in fixtures(seed) {
            let run_one = |shards: usize| {
                let mut s = session(&g, seed, shards);
                let states = s.run(GossipXor).unwrap();
                (states, s.stats().clone())
            };
            let (base_states, base_stats) = run_one(1);
            assert!(base_stats.delivered_rounds > 0);
            for shards in SHARDS {
                let (states, stats) = run_one(shards);
                assert_eq!(states, base_states, "states, seed={seed}, shards={shards}");
                assert_eq!(
                    stats.delivered_rounds, base_stats.delivered_rounds,
                    "delivered_rounds, seed={seed}, shards={shards}"
                );
                assert_eq!(stats, base_stats, "stats, seed={seed}, shards={shards}");
            }
        }
    }
}

/// Runs a representative composed pipeline — bfs, then a `(sum, max)`
/// pair of `u64`s folded in one tree aggregation (four words, the
/// bandwidth cap), then prefix numbering,
/// then a multi-BFS bundle, then a multi-aggregate — through ONE
/// session (one pool spawn, one cumulative budget), and returns every
/// per-phase stat plus the cumulative stats and a digest of outcomes.
#[allow(clippy::type_complexity)]
fn composed_pipeline(
    g: &Graph,
    seed: u64,
    shards: usize,
) -> (Vec<RunStats>, RunStats, Vec<u64>, Vec<Vec<u64>>) {
    let mut session = session(g, seed, shards).with_round_budget(100_000);
    let b = session.run(Bfs::new(0)).unwrap();
    let pos = positions_from_tree(0, &b.parent, &b.children);
    let values: Vec<u64> = (0..g.n() as u64).map(|v| v ^ seed).collect();
    let pairs: Vec<(u64, u64)> = values.iter().map(|&v| (v, v)).collect();
    let (folded, _) = session
        .run(TreeAggregate::folding(
            pos.clone(),
            pairs,
            |(s1, m1), (s2, m2)| (s1.saturating_add(s2), m1.max(m2)),
            true,
        ))
        .unwrap();
    let (sum, max) = folded[0].unwrap_or((0, 0));
    let marked: Vec<bool> = (0..g.n()).map(|v| v % 3 == 0).collect();
    let (ranks, total, _) = session.run(PrefixNumber::new(pos, &marked)).unwrap();
    let mb = session
        .run_configured("mb", MultiBfs::new(multi_bfs_spec(g, seed)), |c| {
            c.seed ^= 0x51_1E
        })
        .unwrap();
    let ma = session
        .run(MultiAggregate::new(
            two_tree_participations(g, seed),
            AggOp::Min,
            true,
        ))
        .unwrap();
    // Digest: every protocol-visible outcome folded to comparable vecs.
    let digest = vec![
        sum,
        max,
        total,
        ranks.iter().flatten().sum::<u64>(),
        mb.reached
            .iter()
            .flatten()
            .map(|(_, r)| u64::from(r.dist))
            .sum::<u64>(),
        ma.results
            .iter()
            .flat_map(|m| m.values().flatten())
            .sum::<u64>(),
    ];
    // Per-node RNG visibility is already covered by GossipXor; here we
    // keep the per-phase round/message shape.
    let phase_shape: Vec<Vec<u64>> = session
        .phases()
        .iter()
        .map(|p| vec![p.rounds, p.delivered_rounds, p.messages, p.words])
        .collect();
    (
        session.phases().to_vec(),
        session.stats().clone(),
        digest,
        phase_shape,
    )
}

/// Active-set stress protocol: node 0 emits a pulse every `gap` rounds
/// (staying awake via an explicit [`Protocol::wake`] override — it gets
/// no mail between pulses); every other node sleeps, is woken by each
/// pulse, forwards it one hop, and goes back to sleep. Exercises the
/// three active-set transitions the event-driven engine adds — stay
/// without mail, un-halt after quiescence, cross-shard wake on delivery
/// — through genuinely idle gaps (no messages in flight between a
/// pulse dying out and the next one firing).
struct PulseChain {
    pulses: u64,
    gap: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PulseState {
    /// Pulses still to emit (driver node only).
    to_emit: u64,
    /// `(round, pulse id)` log of everything heard.
    heard: Vec<(u64, u32)>,
}

impl Protocol for PulseChain {
    type Msg = u32;
    type State = PulseState;
    type Output = Vec<PulseState>;

    fn label(&self) -> &str {
        "pulse_chain"
    }

    fn init(&mut self, graph: &Graph) -> Vec<PulseState> {
        (0..graph.n())
            .map(|v| PulseState {
                to_emit: if v == 0 { self.pulses } else { 0 },
                heard: Vec::new(),
            })
            .collect()
    }

    fn round(&self, st: &mut PulseState, ctx: &mut RoundCtx<'_, u32>) {
        if ctx.node() == 0 {
            if st.to_emit > 0 && ctx.round() % self.gap == 0 {
                let id = (self.pulses - st.to_emit) as u32;
                st.to_emit -= 1;
                ctx.send(1, id);
            }
            return;
        }
        for &(from, id) in ctx.inbox() {
            st.heard.push((ctx.round(), id));
            if from < ctx.node() && (ctx.node() as usize) < ctx.n() - 1 {
                ctx.send(ctx.node() + 1, id);
            }
        }
    }

    fn halted(&self, st: &PulseState) -> bool {
        st.to_emit == 0
    }

    fn wake(&self, st: &PulseState) -> Wake {
        // The driver must stay scheduled across mail-less gap rounds;
        // everyone else is purely mail-driven.
        if st.to_emit > 0 {
            Wake::Stay
        } else {
            Wake::Sleep
        }
    }

    fn finish(self, _: &Graph, st: Vec<PulseState>, _: &RunStats) -> Vec<PulseState> {
        st
    }
}

/// Un-halt after quiescence + cross-shard wakes, byte-equal across
/// shard counts: every pulse finds the whole chain asleep and must
/// re-activate it hop by hop, across every shard boundary (at 8 shards
/// on 24 nodes each hop is usually a different shard than the last).
#[test]
fn pulse_chain_with_idle_gaps_is_byte_equal_across_shard_counts() {
    let n = 24;
    let g = lcs_graph::generators::path(n);
    let run_one = |shards: usize| {
        let mut s = session(&g, 7, shards);
        let states = s.run(PulseChain { pulses: 3, gap: 40 }).unwrap();
        (states, s.stats().clone())
    };
    let (base_states, base_stats) = run_one(1);
    // Pulses fire at rounds 0, 40, 80; the last one's n-1 hops end at
    // round 80 + (n-1), and `rounds` counts one past the final index.
    assert_eq!(base_stats.rounds, 80 + n as u64);
    // Idle gaps really were idle: only hop deliveries count.
    assert_eq!(base_stats.delivered_rounds, 3 * (n as u64 - 1));
    assert_eq!(base_stats.messages, 3 * (n as u64 - 1));
    let last = &base_states[n - 1];
    assert_eq!(last.heard.len(), 3, "all pulses must arrive");
    for shards in SHARDS {
        let (states, stats) = run_one(shards);
        assert_eq!(states, base_states, "states, shards={shards}");
        assert_eq!(stats, base_stats, "stats, shards={shards}");
    }
}

/// The sparse-frontier workload of the O(active) cost model: BFS down a
/// long path has a 1–2 node frontier for hundreds of rounds. Outcomes
/// and statistics must stay byte-equal across shard counts while the
/// engine runs almost every round inline (below the barrier threshold).
#[test]
fn long_path_bfs_is_byte_equal_across_shard_counts() {
    let g = lcs_graph::generators::path(97);
    let base = bfs(&g, 0, 0xFACE, 1);
    assert_eq!(base.depth(), 96);
    for shards in SHARDS {
        let out = bfs(&g, 0, 0xFACE, shards);
        assert_eq!(out.dist, base.dist, "shards={shards}");
        assert_eq!(out.parent, base.parent, "shards={shards}");
        assert_eq!(out.children, base.children, "shards={shards}");
        assert_eq!(out.stats, base.stats, "shards={shards}");
    }
}

/// Chaos under the pool: drops, delays, AND a mid-run crash (with one
/// permanent casualty) must leave outputs, `RunStats` — including the
/// fault counters `dropped` / `delayed` / `crashed_nodes` — and the
/// fingerprint byte-equal across every shard count, for two distinct
/// fault seeds. Fault fates are a pure hash of `(fault_seed, round,
/// arc)`, so the adversary is part of the determinism contract, not an
/// exception to it.
#[test]
fn chaos_runs_are_byte_equal_across_shard_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xCA05);
    let g = gnp_connected(40, 0.15, &mut rng);
    let n = g.n() as u32;
    for fault_seed in [0x0DD5_u64, 0xE5EED] {
        let plan = FaultPlan {
            drop_rate: 0.10,
            delay_rate: 0.15,
            max_delay: 3,
            // Corruption rides along: the Reliable phase must shrug the
            // lies off via its integrity tags, identically per shard.
            corrupt_rate: 0.05,
            crashes: vec![
                // Mid-run crash with recovery: state survives, inbox lost.
                Crash {
                    node: n / 3,
                    at_round: 2,
                    recover_at: Some(9),
                },
                // Permanent casualty.
                Crash {
                    node: n / 2,
                    at_round: 4,
                    recover_at: None,
                },
            ],
            fault_seed,
        };
        let run_one = |shards: usize| {
            let mut s = Session::new(
                &g,
                SimConfig {
                    seed: 0xBA5E,
                    shards,
                    max_rounds: 50_000,
                    ..SimConfig::default()
                },
            );
            // Raw BFS under fire (output is whatever the faults allow),
            // then a Reliable phase that must still be exact.
            let raw = s
                .run_configured("chaos.raw", Bfs::new(0), |c| c.faults = Some(plan.clone()))
                .unwrap();
            let rel = s
                .run_configured(
                    "chaos.reliable",
                    Reliable::with_crashed(Bfs::new(0), &[n / 2]),
                    |c| c.faults = Some(plan.clone()),
                )
                .unwrap();
            (raw, rel, s.phases().to_vec(), s.stats().clone())
        };
        let (base_raw, base_rel, base_phases, base_total) = run_one(1);
        assert!(base_total.dropped > 0, "seed {fault_seed:#x}: drops fired");
        assert!(base_total.delayed > 0, "seed {fault_seed:#x}: delays fired");
        assert!(
            base_total.corrupted > 0,
            "seed {fault_seed:#x}: corruptions fired"
        );
        // Both crash windows land inside the (long) reliable phase; the
        // raw phase may quiesce before the later one fires.
        assert!(
            base_total.crashed_nodes >= 2,
            "seed {fault_seed:#x}: crashes fired"
        );
        for shards in SHARDS {
            let (raw, rel, phases, total) = run_one(shards);
            assert_eq!(
                raw.dist, base_raw.dist,
                "raw dist, {fault_seed:#x}/{shards}"
            );
            assert_eq!(
                raw.parent, base_raw.parent,
                "raw parent, {fault_seed:#x}/{shards}"
            );
            assert_eq!(
                rel.dist, base_rel.dist,
                "reliable dist, {fault_seed:#x}/{shards}"
            );
            assert_eq!(
                rel.parent, base_rel.parent,
                "reliable parent, {fault_seed:#x}/{shards}"
            );
            assert_eq!(phases, base_phases, "phases, {fault_seed:#x}/{shards}");
            assert_eq!(total, base_total, "stats, {fault_seed:#x}/{shards}");
            assert_eq!(
                total.fingerprint(),
                base_total.fingerprint(),
                "fingerprint, {fault_seed:#x}/{shards}"
            );
        }
    }
}

/// The tentpole acceptance test: a full composed session — every
/// protocol the construction uses, a folded tuple aggregation among
/// them, all on one pool — is byte-equal across shard counts, per phase
/// and cumulatively.
#[test]
fn composed_sessions_are_byte_equal_across_shard_counts() {
    for seed in SEEDS {
        for g in fixtures(seed) {
            let (base_phases, base_total, base_digest, base_shape) = composed_pipeline(&g, seed, 1);
            assert_eq!(base_phases.len(), 5);
            assert_eq!(base_phases[1].label, "tree_aggregate");
            assert_eq!(base_phases[1].words, 4 * base_phases[1].messages);
            for shards in SHARDS {
                let (phases, total, digest, shape) = composed_pipeline(&g, seed, shards);
                assert_eq!(phases, base_phases, "phases, seed={seed}, shards={shards}");
                assert_eq!(total, base_total, "total, seed={seed}, shards={shards}");
                assert_eq!(
                    total.fingerprint(),
                    base_total.fingerprint(),
                    "fingerprint, seed={seed}, shards={shards}"
                );
                assert_eq!(digest, base_digest, "digest, seed={seed}, shards={shards}");
                assert_eq!(shape, base_shape, "shape, seed={seed}, shards={shards}");
            }
        }
    }
}

/// A phase aborted by `QuietBoundViolated` is billed, identically at
/// every shard count: one session runs `Reliable<Bfs>` under a quiet
/// bound far below the diameter on a lossy network, then the same
/// protocol with no bound. The error, the phase list, the totals and
/// `rounds_used` are byte-equal for shards {1, 2, 3, 8}. Counting the
/// aborting round's partial sends would break this, since how far each
/// shard got into that round depends on where its boundaries fall.
#[test]
fn aborted_phase_accounting_is_byte_equal_across_shard_counts() {
    let g = lcs_graph::generators::grid(12, 5); // diameter 15
    let plan = FaultPlan {
        drop_rate: 0.10,
        delay_rate: 0.10,
        max_delay: 2,
        corrupt_rate: 0.05,
        crashes: Vec::new(),
        fault_seed: 0xAB0_4ED,
    };
    let run_one = |shards: usize| {
        let mut s = Session::new(
            &g,
            SimConfig {
                seed: 0xAB07,
                shards,
                max_rounds: 50_000,
                faults: Some(plan.clone()),
            },
        );
        let err = s
            .run_labeled("guess", Reliable::new(Bfs::new(0)).with_quiet_bound(1))
            .unwrap_err();
        let exact = s.run_labeled("exact", Reliable::new(Bfs::new(0))).unwrap();
        (
            err,
            exact.dist,
            s.phases().to_vec(),
            s.stats().clone(),
            s.rounds_used(),
        )
    };
    let base = run_one(1);
    let (err, _, phases, total, used) = &base;
    assert!(
        matches!(err, SimError::QuietBoundViolated { .. }),
        "wrong error: {err}"
    );
    assert_eq!(phases.len(), 2, "the aborted attempt is listed");
    assert_eq!(phases[0].label, "guess");
    assert!(phases[0].rounds > 0 && phases[0].messages > 0);
    assert!(phases[0].dropped + phases[0].delayed + phases[0].corrupted > 0);
    assert_eq!(total.rounds, phases[0].rounds + phases[1].rounds);
    assert_eq!(total.messages, phases[0].messages + phases[1].messages);
    assert_eq!(*used, total.rounds);
    for shards in SHARDS {
        assert_eq!(run_one(shards), base, "shards={shards}");
    }
}
