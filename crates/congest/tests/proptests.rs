//! Property-based tests of the CONGEST protocols against centralized
//! references, on random graphs.

use lcs_congest::{
    positions_from_tree, AggOp, Bfs, Crash, DistBfsOutcome, FaultPlan, MultiAggregate, MultiBfs,
    MultiBfsInstance, MultiBfsOutcome, MultiBfsSpec, Participation, PrefixNumber, Protocol,
    Reliable, RoundCtx, RunStats, Session, SimConfig, TreeAggregate,
};
use lcs_graph::{bfs_distances, gnp_connected, Graph, NodeId, UNREACHABLE};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn random_graph(seed: u64, n: usize) -> lcs_graph::Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    gnp_connected(n, 0.1, &mut rng)
}

fn run_bfs(g: &Graph, root: NodeId) -> DistBfsOutcome {
    Session::new(g, SimConfig::default())
        .run(Bfs::new(root))
        .unwrap()
}

fn run_bundle(g: &Graph, spec: std::sync::Arc<MultiBfsSpec>, cfg: &SimConfig) -> MultiBfsOutcome {
    Session::new(g, cfg.clone())
        .run(MultiBfs::new(spec))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Distributed BFS distances equal centralized BFS distances from
    /// any root on any connected graph.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn distributed_bfs_equals_centralized(seed in any::<u64>(), n in 5usize..60, root_pick in any::<u32>()) {
        let g = random_graph(seed, n);
        let root = root_pick % n as u32;
        let out = run_bfs(&g, root);
        let exact = bfs_distances(&g, root);
        for v in g.nodes() {
            let expect = (exact[v as usize] != UNREACHABLE).then_some(exact[v as usize]);
            prop_assert_eq!(out.dist[v as usize], expect);
        }
    }

    /// Multi-BFS with concurrent overlapping instances: every instance
    /// spans exactly its reachable set, and queue-pipelined distances
    /// are sound upper bounds on the true BFS distances (under
    /// contention a longer-route token can win the race, which is why
    /// the construction budgets a generous depth limit). A contention-
    /// free single instance is exact.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn multi_bfs_instances_are_sound(seed in any::<u64>(), n in 5usize..40, k in 1usize..5) {
        let g = random_graph(seed, n);
        let roots: Vec<NodeId> = (0..k as u32).map(|i| (i * 7) % n as u32).collect();
        let spec = Arc::new(MultiBfsSpec {
            instances: roots
                .iter()
                .enumerate()
                .map(|(i, &r)| MultiBfsInstance {
                    root: r,
                    start_round: (i as u64 * 3) % 5,
                    depth_limit: u32::MAX,
                })
                .collect(),
            membership: lcs_congest::Membership::func(|_, _, _| true),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec, &SimConfig::default());
        for (i, &r) in roots.iter().enumerate() {
            let exact = bfs_distances(&g, r);
            for v in g.nodes() {
                let got = out.reach(v, i as u32).map(|x| x.dist);
                match got {
                    Some(d) => {
                        prop_assert!(exact[v as usize] != UNREACHABLE);
                        prop_assert!(
                            d >= exact[v as usize],
                            "instance {} node {}: {} below exact {}",
                            i, v, d, exact[v as usize]
                        );
                        if k == 1 {
                            prop_assert_eq!(d, exact[v as usize]);
                        }
                    }
                    None => prop_assert_eq!(exact[v as usize], UNREACHABLE),
                }
            }
        }
        prop_assert!(!out.overflowed);
    }

    /// Tree aggregation over a BFS tree computes exactly the centralized
    /// fold for every operator.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn convergecast_matches_fold(seed in any::<u64>(), n in 3usize..50) {
        let g = random_graph(seed, n);
        let bfs = run_bfs(&g, 0);
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
        let values: Vec<u64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0..1000u64)).collect();
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
            let (res, _) = Session::new(&g, SimConfig::default())
                .run(TreeAggregate::new(pos.clone(), &values, op, false))
                .unwrap();
            let expect = values.iter().fold(op.identity(), |a, &b| op.apply(a, b));
            prop_assert_eq!(res[0], Some(expect));
        }
    }

    /// Prefix numbering assigns dense distinct ranks matching the count
    /// of marked nodes, for any mark pattern.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn prefix_numbering_is_a_bijection(seed in any::<u64>(), n in 3usize..50, mask in any::<u64>()) {
        let g = random_graph(seed, n);
        let bfs = run_bfs(&g, 0);
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let marked: Vec<bool> = (0..n).map(|v| mask >> (v % 64) & 1 == 1).collect();
        let (ranks, total, _) = Session::new(&g, SimConfig::default())
            .run(PrefixNumber::new(pos, &marked))
            .unwrap();
        let expected = marked.iter().filter(|&&m| m).count() as u64;
        prop_assert_eq!(total, expected);
        let mut seen: Vec<u64> = ranks.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..expected).collect::<Vec<_>>());
    }

    /// Multi-instance aggregation over BFS-tree participations matches
    /// the centralized per-instance fold.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn multi_aggregate_matches_fold(seed in any::<u64>(), n in 4usize..30) {
        let g = random_graph(seed, n);
        // Two instances rooted at 0 and n-1, trees from BFS.
        let roots = [0 as NodeId, (n - 1) as NodeId];
        let mut parts: Vec<Vec<Participation>> = vec![Vec::new(); n];
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 2);
        let values: Vec<u64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0..100u64)).collect();
        for (i, &r) in roots.iter().enumerate() {
            let bfs = run_bfs(&g, r);
            for v in 0..n {
                if bfs.dist[v].is_none() {
                    continue;
                }
                parts[v].push(Participation {
                    inst: i as u32,
                    parent: bfs.parent[v],
                    children: bfs.children[v].clone(),
                    value: values[v],
                });
            }
        }
        let out = Session::new(&g, SimConfig::default())
            .run(MultiAggregate::new(parts, AggOp::Sum, true))
            .unwrap();
        let expect: u64 = values.iter().sum();
        for (i, &r) in roots.iter().enumerate() {
            prop_assert_eq!(out.result_at(r, i as u32), Some(expect));
            // Broadcast delivered everywhere.
            for v in g.nodes() {
                prop_assert_eq!(out.result_at(v, i as u32), Some(expect));
            }
        }
    }

    /// [`Reliable<Bfs>`] under an **arbitrary** fault plan — drop rate
    /// up to 30%, delays up to 3 rounds, payload corruption up to 30%,
    /// up to 10% of non-root nodes crashed from round 0, plus up to two
    /// non-root nodes knocked out transiently (crash with a scheduled
    /// recovery) — computes exactly the fault-free BFS distances on the
    /// subgraph the *permanent* crashes leave, for every surviving
    /// node: corrupted frames must be caught by the integrity tags and
    /// re-sent, and transiently-down nodes must rejoin and catch up.
    /// Every fault knob is its own proptest strategy, so a failing case
    /// shrinks the *plan* along with the graph: rates shrink toward
    /// 0.0, both crash lists shrink toward empty, delays toward 1,
    /// outage windows toward round 1.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn reliable_bfs_survives_arbitrary_fault_plans(
        seed in any::<u64>(),
        n in 8usize..36,
        drop_rate in 0.0f64..0.30,
        delay_rate in 0.0f64..0.50,
        max_delay in 1u64..4,
        corrupt_rate in 0.0f64..0.30,
        fault_seed in any::<u64>(),
        crash_picks in proptest::collection::vec(any::<u32>(), 0..4),
        transient_picks in proptest::collection::vec((any::<u32>(), 1u64..40, 1u64..40), 0..3),
    ) {
        let g = random_graph(seed, n);
        // Distinct non-root casualties, capped at 10% of the graph.
        let mut crashed: Vec<NodeId> = crash_picks
            .iter()
            .map(|&p| 1 + p % (n as u32 - 1))
            .collect();
        crashed.sort_unstable();
        crashed.dedup();
        crashed.truncate(n / 10);
        let mut crashes: Vec<Crash> = crashed
            .iter()
            .map(|&node| Crash { node, at_round: 0, recover_at: None })
            .collect();
        // Transient outages: down for a bounded window, then recovered.
        // Recovering nodes are *not* excised — the reliable layer must
        // bring them back — so they are excluded from `with_crashed` and
        // from the reference subgraph alike (at most one crash per node:
        // skip picks colliding with a permanent casualty or each other).
        for &(p, at, len) in &transient_picks {
            let node = 1 + p % (n as u32 - 1);
            if crashes.iter().any(|c| c.node == node) {
                continue;
            }
            crashes.push(Crash { node, at_round: at, recover_at: Some(at + len) });
        }
        let plan = FaultPlan {
            drop_rate,
            delay_rate,
            max_delay,
            corrupt_rate,
            crashes,
            fault_seed,
        };
        let cfg = SimConfig {
            max_rounds: 200_000,
            faults: Some(plan),
            ..SimConfig::default()
        };
        let out = Session::new(&g, cfg)
            .run(Reliable::with_crashed(Bfs::new(0), &crashed))
            .unwrap();
        // Centralized reference: BFS on the subgraph the crashes leave.
        let alive = |v: NodeId| crashed.binary_search(&v).is_err();
        let sub_edges: Vec<(NodeId, NodeId)> = g
            .edges()
            .iter()
            .copied()
            .filter(|&(a, b)| alive(a) && alive(b))
            .collect();
        let sub = Graph::from_edges(n, &sub_edges).unwrap();
        let exact = bfs_distances(&sub, 0);
        for v in g.nodes() {
            if !alive(v) {
                continue;
            }
            let expect = (exact[v as usize] != UNREACHABLE).then_some(exact[v as usize]);
            prop_assert_eq!(
                out.dist[v as usize], expect,
                "node {} (crashed: {:?})", v, &crashed
            );
        }
    }

    /// Sharded execution is bit-identical to the sequential engine on
    /// arbitrary graphs/seeds: final node states (including per-node RNG
    /// draws), full [`RunStats`], and multi-BFS outcomes all match for
    /// `shards ∈ {2, 4, 7}`.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn sharded_runs_are_bit_identical(seed in any::<u64>(), n in 5usize..50, k in 1usize..5) {
        let g = random_graph(seed, n);
        let cfg_for = |shards| SimConfig { seed, shards, ..SimConfig::default() };

        // A protocol that exercises RNG draws, inbox order, and sends:
        // each node draws one coin per round and gossips the running
        // xor to all neighbors for a few rounds.
        let gossip = |shards| {
            let mut session = Session::new(&g, cfg_for(shards));
            let states = session.run(GossipXor).unwrap();
            (states, session.stats().clone())
        };
        let (base_states, base_stats) = gossip(1);
        for shards in [2usize, 4, 7] {
            let (states, stats) = gossip(shards);
            for v in 0..n {
                prop_assert_eq!(&states[v].coins, &base_states[v].coins, "rng stream, shards={}", shards);
                prop_assert_eq!(states[v].acc, base_states[v].acc, "state, shards={}", shards);
            }
            prop_assert_eq!(&stats, &base_stats, "stats, shards={}", shards);
        }

        // The real protocol stack: multi-BFS outcomes must also match.
        let roots: Vec<NodeId> = (0..k as u32).map(|i| (i * 5) % n as u32).collect();
        let spec = |_: ()| Arc::new(MultiBfsSpec {
            instances: roots
                .iter()
                .enumerate()
                .map(|(i, &r)| MultiBfsInstance {
                    root: r,
                    start_round: (i as u64 * 3) % 4,
                    depth_limit: u32::MAX,
                })
                .collect(),
            membership: lcs_congest::Membership::func(|_, _, _| true),
            queue_cap: 0,
        });
        let base = run_bundle(&g, spec(()), &cfg_for(1));
        for shards in [2usize, 7] {
            let out = run_bundle(&g, spec(()), &cfg_for(shards));
            prop_assert_eq!(&out.reached, &base.reached, "reached, shards={}", shards);
            prop_assert_eq!(out.max_queue, base.max_queue);
            prop_assert_eq!(&out.stats, &base.stats, "stats, shards={}", shards);
        }
    }
}

/// Proptest helper: draws a coin every round, xors in everything heard,
/// and gossips for 6 rounds. Touches RNG, inbox, and sends each round.
struct GossipXor;

#[derive(Debug, Default, Clone)]
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
