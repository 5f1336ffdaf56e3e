//! Graceful degradation under crash faults: the shared
//! detect-and-excise machinery behind every fault-tolerant pipeline.
//!
//! Any shortcut-backed computation ([`distributed`](crate::distributed)
//! construction, MST, SSSP, min cut, 2-ECSS) degrades the same way when
//! a [`FaultPlan`] contains permanent
//! crash-stops:
//!
//! 1. **Detect** — a [`Reliable`]-wrapped BFS from node 0 runs on the
//!    faulty network; its reach *is* the surviving component. A census
//!    convergecast over the BFS tree tells the root how many nodes
//!    survive (`count < n` is the detection signal). Both phases execute
//!    over reliable links, so drops, delays, and payload corruption are
//!    absorbed; only permanent crashes (and anything they disconnect)
//!    leave the reach. The survivors' diameter is unknown, so each
//!    phase guesses its quiet bound and doubles it, as the construction
//!    guesses `D`: attempt `b` runs under
//!    [`Reliable::with_quiet_bound`]`(b)` for `b = 1, 2, 4, …`, capped
//!    at `n − 1`, and an attempt that aborts with
//!    [`SimError::QuietBoundViolated`] is retried at `2b`. The census
//!    starts at the bound the BFS was accepted at. A guess that is too
//!    small either aborts or changes nothing, so the first attempt that
//!    completes returns the unbounded run's output: the excision is the
//!    same as without the ladder, and termination costs `O(D)` virtual
//!    rounds per attempt instead of `Θ(n)`. Aborted attempts are
//!    charged. There are at most `⌈log₂ n⌉ + 1` attempts per phase, but
//!    on survivors whose diameter is close to `n` (a path, a cycle)
//!    nearly all of them abort, and detection costs more than one
//!    unbounded run would (see [`detect_and_excise`]).
//! 2. **Excise** — survivors are relabeled into a compact induced
//!    subgraph; partition parts are split into their surviving connected
//!    fragments (excising a node may cut a part in two); shortcut sets
//!    are restricted to surviving edges.
//! 3. **Complete** — the pipeline proper runs on the survivors. Since
//!    [`Reliable`] makes protocol outputs byte-identical to fault-free
//!    runs (a tier-1 property of `lcs-congest`), the remaining phases
//!    are simulated fault-free and only the detection overhead is
//!    charged, as [`DegradedOutcome::extra_rounds`]. This one path also
//!    serves a plan without permanent crashes: an empty excision
//!    relabels by the identity (survivors keep their ids, edges keep
//!    theirs, every part is its own single fragment), so the pipeline
//!    runs on a copy of the whole graph and returns the fault-free
//!    outcome plus the detection bill.
//!
//! [`detect_and_excise`] performs step 1 and returns an [`Excision`]
//! whose helpers implement step 2; callers own step 3 plus the mapping
//! of results back to original ids ([`Excision::original_edge`],
//! [`Excision::survivors`]).
//!
//! [`Reliable`]: lcs_congest::Reliable
//! [`Reliable::with_quiet_bound`]: lcs_congest::Reliable::with_quiet_bound

use lcs_congest::{
    positions_from_tree, AggOp, Bfs, FaultPlan, Protocol, Reliable, RunStats, Session, SimConfig,
    SimError, TreeAggregate,
};
use lcs_graph::{EdgeId, Graph, NodeId, UnionFind, WeightedGraph};
use lcs_shortcut::{Partition, ShortcutSet};
use std::collections::HashMap;

/// How a fault-tolerant run coped with crash-stops: what was cut away
/// and what the tolerance cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedOutcome {
    /// The pipeline completed on the surviving subgraph.
    pub completed: bool,
    /// Nodes excised before the main pipeline ran: permanently crashed
    /// nodes plus any survivors they disconnected from the root.
    pub excluded_nodes: Vec<NodeId>,
    /// Rounds spent on fault handling — the detection BFS + census
    /// convergecast executed over [`Reliable`]
    /// links on the faulty network, every attempt of their quiet-bound
    /// ladders included (see [`detect_and_excise`]) — on top of the
    /// ordinary pipeline rounds.
    pub extra_rounds: u64,
}

/// Result of the detection phase: who survived, how to relabel them,
/// and what detection cost.
///
/// Produced by [`detect_and_excise`]; consumed by the fault-tolerant
/// wrappers of each pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Excision {
    /// Surviving nodes in ascending original id; index = compact sub id.
    pub survivors: Vec<NodeId>,
    /// Original id → compact sub id (`u32::MAX` for excluded nodes).
    pub new_id: Vec<u32>,
    /// Excised nodes: permanent crashes plus whatever they disconnected
    /// from node 0.
    pub excluded: Vec<NodeId>,
    /// Rounds consumed by the detection BFS + census: the sum of
    /// `phase_stats`' rounds, aborted attempts included.
    pub extra_rounds: u64,
    /// Messages exchanged by the detection phases: the sum of
    /// `phase_stats`' messages, aborted attempts included.
    pub messages: u64,
    /// Per-attempt engine statistics of the detection session, in
    /// order: `F.detect_bfs@q<b>` for each quiet bound `b` the BFS
    /// tried, then `F.detect_census@q<b>` likewise. In each ladder
    /// every attempt but the last aborted with
    /// [`SimError::QuietBoundViolated`]; an aborted attempt's counters
    /// stop at the end of its last completed round (see
    /// [`Session::phases`]).
    pub phase_stats: Vec<RunStats>,
}

/// Runs the detection phase on the faulty network and computes the
/// excision.
///
/// The BFS and the census each run as a quiet-bound ladder (module
/// docs, step 1): attempts under bounds `1, 2, 4, …` up to `n − 1`,
/// each retried at twice the bound when it aborts with
/// [`SimError::QuietBoundViolated`], the census starting at the bound
/// the BFS was accepted at. The excision is the one an unbounded run
/// finds; the ladder only changes the cost, which counts the aborted
/// attempts. That cost follows the survivors' diameter `D`, not `n`,
/// so it pays off when `D ≪ n`: 286 rounds against 6,265 for one
/// unbounded run on `HighwayGraph::balanced(300, 4)` with one crash.
/// When `D` is close to `n`, nearly every rung aborts and detection
/// costs more: 6,143 rounds against 4,864 on `path(200)`, 5,349
/// against 4,046 on `path(200)` with node 150 crashed, and 1,403
/// against 1,129 on `cycle(64)` with one crash (all under 5 % drops,
/// 3 % delays of up to 2 rounds and 5 % corruption, seed 1).
///
/// `seed` and `shards` configure the detection [`Session`]; the
/// remaining simulator knobs are defaults plus a 500 000-round cap per
/// attempt (retransmission slack for the reliable layer).
///
/// # Errors
///
/// [`SimError::FaultConfig`] when the plan is invalid for `graph` (see
/// [`FaultPlan::validate`]) or node 0 — the detection root — is
/// permanently crashed; any engine error from the detection phases.
pub fn detect_and_excise(
    graph: &Graph,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Result<Excision, SimError> {
    let n = graph.n();
    let det_cfg = SimConfig {
        seed,
        shards,
        max_rounds: 500_000, // retransmission slack
        faults: Some(plan.clone()),
    };
    det_cfg.validate(n)?;
    let crashed: Vec<NodeId> = plan
        .crashes
        .iter()
        .filter(|c| c.recover_at.is_none())
        .map(|c| c.node)
        .collect();
    if crashed.contains(&0) {
        return Err(SimError::FaultConfig {
            reason: "node 0 roots the detection convergecast; it may not crash permanently \
                     — crash a different node or give node 0 a recovery round"
                .to_string(),
        });
    }

    let mut det = Session::new(graph, det_cfg);
    let (bfs, accepted) = quiet_ladder(&mut det, "F.detect_bfs", 1, &crashed, || Bfs::new(0))?;
    {
        let positions = positions_from_tree(0, &bfs.parent, &bfs.children);
        let ones = vec![1u64; n];
        let ((census, _), _) =
            quiet_ladder(&mut det, "F.detect_census", accepted, &crashed, || {
                TreeAggregate::new(positions.clone(), &ones, AggOp::Sum, true)
            })?;
        debug_assert_eq!(
            census.first().copied().flatten().unwrap_or(0),
            bfs.dist.iter().flatten().count() as u64,
            "census must count exactly the BFS-reached survivors"
        );
    }

    let mut new_id: Vec<u32> = vec![u32::MAX; n];
    let mut survivors: Vec<NodeId> = Vec::new();
    let mut excluded: Vec<NodeId> = Vec::new();
    for v in 0..n as NodeId {
        if bfs.dist[v as usize].is_some() {
            new_id[v as usize] = survivors.len() as u32;
            survivors.push(v);
        } else {
            excluded.push(v);
        }
    }
    Ok(Excision {
        survivors,
        new_id,
        excluded,
        extra_rounds: det.rounds_used(),
        messages: det.stats().messages,
        phase_stats: det.phases().to_vec(),
    })
}

/// Runs one detection phase as the quiet-bound ladder of the module
/// docs (step 1), from bound `start`: returns the output of the first
/// attempt that completes and the bound it ran under. The attempt at
/// `n − 1` runs the unbounded wave, which cannot be violated, so the
/// ladder always ends.
fn quiet_ladder<P: Protocol + Sync>(
    det: &mut Session<'_>,
    name: &str,
    start: u32,
    crashed: &[NodeId],
    inner: impl Fn() -> P,
) -> Result<(P::Output, u32), SimError> {
    let top = (det.graph().n() as u32).saturating_sub(1);
    let mut b = start.min(top);
    loop {
        let attempt = Reliable::with_crashed(inner(), crashed).with_quiet_bound(b);
        match det.run_labeled(format!("{name}@q{b}"), attempt) {
            Err(SimError::QuietBoundViolated { .. }) if b < top => b = b.saturating_mul(2).min(top),
            done => return done.map(|out| (out, b)),
        }
    }
}

impl Excision {
    /// The diameter a pipeline on the survivors may take as known: the
    /// caller's `diameter` when nothing was excised (the survivors are
    /// the whole graph), else `None`, for the pipeline to re-derive,
    /// since excision can stretch it.
    #[must_use]
    pub fn survivors_diameter(&self, diameter: Option<u32>) -> Option<u32> {
        diameter.filter(|_| self.excluded.is_empty())
    }

    /// The [`DegradedOutcome`] this excision reports.
    #[must_use]
    pub fn outcome(&self) -> DegradedOutcome {
        DegradedOutcome {
            completed: true,
            excluded_nodes: self.excluded.clone(),
            extra_rounds: self.extra_rounds,
        }
    }

    /// Surviving edges of `graph` with endpoints relabeled to sub ids,
    /// in original edge order.
    fn sub_edge_list(&self, graph: &Graph) -> Vec<(NodeId, NodeId)> {
        graph
            .edges()
            .iter()
            .filter(|&&(a, b)| {
                self.new_id[a as usize] != u32::MAX && self.new_id[b as usize] != u32::MAX
            })
            .map(|&(a, b)| (self.new_id[a as usize], self.new_id[b as usize]))
            .collect()
    }

    /// The induced subgraph on the survivors, relabeled to compact ids.
    ///
    /// # Panics
    ///
    /// Never on graphs the excision was computed from (relabeling
    /// preserves simplicity).
    #[must_use]
    pub fn induced_graph(&self, graph: &Graph) -> Graph {
        Graph::from_edges(self.survivors.len(), &self.sub_edge_list(graph))
            .expect("relabeled survivor edges are simple")
    }

    /// The induced **weighted** subgraph on the survivors: same edge
    /// set as [`Excision::induced_graph`], each edge carrying its
    /// original weight.
    ///
    /// # Panics
    ///
    /// Never on graphs the excision was computed from.
    #[must_use]
    pub fn induced_weighted(&self, wg: &WeightedGraph) -> WeightedGraph {
        let g = wg.graph();
        let sub_edges: Vec<(NodeId, NodeId, u64)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| {
                self.new_id[a as usize] != u32::MAX && self.new_id[b as usize] != u32::MAX
            })
            .map(|(e, &(a, b))| {
                (
                    self.new_id[a as usize],
                    self.new_id[b as usize],
                    wg.weight(EdgeId(e as u32)),
                )
            })
            .collect();
        WeightedGraph::from_weighted_edges(self.survivors.len(), &sub_edges)
            .expect("relabeled survivor edges are simple")
    }

    /// Splits each part of `partition` into its surviving connected
    /// fragments on the excised subgraph `sub_g` (excising a node may
    /// cut a part in two), returning the fragment partition plus, per
    /// fragment, the index of the original part it came from.
    ///
    /// # Panics
    ///
    /// Never when `sub_g` is [`Excision::induced_graph`] of the graph
    /// `partition` lives on: fragments are connected by construction.
    #[must_use]
    pub fn split_partition(&self, sub_g: &Graph, partition: &Partition) -> (Partition, Vec<usize>) {
        let mut sub_part_label: Vec<Option<usize>> = vec![None; self.survivors.len()];
        for (i, part) in partition.parts().iter().enumerate() {
            for &v in part {
                let nv = self.new_id[v as usize];
                if nv != u32::MAX {
                    sub_part_label[nv as usize] = Some(i);
                }
            }
        }
        let mut uf = UnionFind::new(self.survivors.len());
        for &(a, b) in sub_g.edges() {
            if sub_part_label[a as usize].is_some()
                && sub_part_label[a as usize] == sub_part_label[b as usize]
            {
                uf.union(a, b);
            }
        }
        let mut groups: HashMap<(usize, u32), Vec<NodeId>> = HashMap::new();
        for v in 0..self.survivors.len() as u32 {
            if let Some(p) = sub_part_label[v as usize] {
                groups.entry((p, uf.find(v))).or_default().push(v);
            }
        }
        let mut keys: Vec<(usize, u32)> = groups.keys().copied().collect();
        keys.sort_unstable();
        let mut sub_parts: Vec<Vec<NodeId>> = Vec::with_capacity(keys.len());
        let mut sub_to_orig_part: Vec<usize> = Vec::with_capacity(keys.len());
        for k in &keys {
            sub_parts.push(groups.remove(k).expect("key enumerated from map"));
            sub_to_orig_part.push(k.0);
        }
        let sub_partition =
            Partition::new(sub_g, sub_parts).expect("fragments are connected by construction");
        (sub_partition, sub_to_orig_part)
    }

    /// Restricts a shortcut set to the survivors: every fragment
    /// inherits the surviving shortcut edges of the original part it
    /// came from (`sub_to_orig_part` as returned by
    /// [`Excision::split_partition`]), relabeled to `sub_g` edge ids.
    /// Shortcut edges with an excised endpoint are dropped.
    #[must_use]
    pub fn restrict_shortcuts(
        &self,
        graph: &Graph,
        sub_g: &Graph,
        shortcuts: &ShortcutSet,
        sub_to_orig_part: &[usize],
    ) -> ShortcutSet {
        let surviving_of = |orig_part: usize| -> Vec<EdgeId> {
            shortcuts
                .edges(orig_part)
                .iter()
                .filter_map(|&e| {
                    let (a, b) = graph.edge_endpoints(e);
                    let (na, nb) = (self.new_id[a as usize], self.new_id[b as usize]);
                    if na == u32::MAX || nb == u32::MAX {
                        return None;
                    }
                    Some(
                        sub_g
                            .edge_between(na, nb)
                            .expect("surviving edge exists in the excised subgraph"),
                    )
                })
                .collect()
        };
        ShortcutSet::from_edge_lists(
            sub_to_orig_part
                .iter()
                .map(|&oi| surviving_of(oi))
                .collect(),
        )
    }

    /// Maps an edge of the excised subgraph back to the corresponding
    /// edge of the original graph.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not come from `sub_g` =
    /// [`Excision::induced_graph`] of `graph`.
    #[must_use]
    pub fn original_edge(&self, graph: &Graph, sub_g: &Graph, e: EdgeId) -> EdgeId {
        let (a, b) = sub_g.edge_endpoints(e);
        graph
            .edge_between(self.survivors[a as usize], self.survivors[b as usize])
            .expect("surviving edge exists in the original graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_congest::Crash;
    use lcs_graph::{bfs, cycle, gnp_connected, grid, path, random_tree, BfsOptions, HighwayGraph};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Path 0-1-2-3-4-5 with a chord (1,4); crashing 2 keeps everything
    /// reachable via the chord, crashing 4 *and* the chord's absence
    /// would cut the tail.
    fn chord_path() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]).unwrap()
    }

    fn crash_plan(nodes: &[NodeId]) -> FaultPlan {
        FaultPlan {
            crashes: nodes
                .iter()
                .map(|&v| Crash {
                    node: v,
                    at_round: 0,
                    recover_at: None,
                })
                .collect(),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn root_crash_is_rejected_eagerly() {
        let g = chord_path();
        let err = detect_and_excise(&g, &crash_plan(&[0]), 1, 1).unwrap_err();
        assert!(matches!(err, SimError::FaultConfig { .. }));
    }

    /// A crash of a node the graph does not have is a config error,
    /// reported before anything is sized by the bogus id.
    #[test]
    fn out_of_range_crash_is_rejected_eagerly() {
        let g = chord_path();
        for node in [6, 1000, NodeId::MAX] {
            let err = detect_and_excise(&g, &crash_plan(&[node]), 1, 1).unwrap_err();
            match err {
                SimError::FaultConfig { reason } => {
                    assert!(reason.contains("graph has 6 nodes"), "{reason}")
                }
                other => panic!("expected FaultConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn excision_takes_disconnected_survivors_too() {
        // Crashing 1 cuts 2..=5 off from the root: everything but 0 goes.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let exc = detect_and_excise(&g, &crash_plan(&[1]), 7, 1).unwrap();
        assert_eq!(exc.survivors, vec![0]);
        assert_eq!(exc.excluded, vec![1, 2, 3, 4, 5]);
        assert_eq!(exc.survivors_diameter(Some(5)), None, "re-derived");
        assert!(exc.extra_rounds > 0);
        assert_eq!(exc.phase_stats.len(), 2);
    }

    /// Why a plan without permanent crashes needs no path of its own:
    /// an empty excision rebuilds every input unchanged.
    #[test]
    fn empty_excision_relabels_by_the_identity() {
        let g = HighwayGraph::balanced(120, 4).unwrap().graph().clone();
        let exc = detect_and_excise(&g, &FaultPlan::drops(0.1, 9), 2, 1).unwrap();
        assert!(exc.excluded.is_empty());
        assert_eq!(exc.survivors, (0..g.n() as NodeId).collect::<Vec<_>>());
        let sub_g = exc.induced_graph(&g);
        assert_eq!(sub_g, g, "same nodes, edges and edge ids");
        let weights: Vec<u64> = (0..g.m() as u64).map(|i| 1 + i % 7).collect();
        let wg = WeightedGraph::new(g.clone(), weights).unwrap();
        assert_eq!(exc.induced_weighted(&wg).weights(), wg.weights());
        // Parts listed out of order and unsorted, as a caller may.
        let partition = Partition::new(&g, vec![vec![5, 4, 3], vec![0, 1], vec![9]]).unwrap();
        let (sub_p, back) = exc.split_partition(&sub_g, &partition);
        assert_eq!(sub_p, partition, "each part is its own one fragment");
        assert_eq!(back, vec![0, 1, 2]);
        let shortcuts = lcs_shortcut::global_tree_shortcuts(&g, &partition, 0, None);
        assert_eq!(
            exc.restrict_shortcuts(&g, &sub_g, &shortcuts, &back),
            shortcuts
        );
        for e in g.edge_ids() {
            assert_eq!(exc.original_edge(&g, &sub_g, e), e);
        }
        assert_eq!(exc.survivors_diameter(Some(7)), Some(7), "kept");
    }

    /// A plan inside the reference test's budget: drop ≤ 20 %, delay
    /// ≤ 3 rounds, corruption ≤ 10 %, 0–3 permanent crashes (never of
    /// node 0) at rounds 0–29, and a transient crash half the time.
    fn random_plan(n: usize, rng: &mut ChaCha8Rng) -> FaultPlan {
        let mut crashes: Vec<Crash> = Vec::new();
        for _ in 0..rng.gen_range(0..=3) {
            let node = rng.gen_range(1..n as NodeId);
            if crashes.iter().all(|c| c.node != node) {
                crashes.push(Crash {
                    node,
                    at_round: rng.gen_range(0..30),
                    recover_at: None,
                });
            }
        }
        if rng.gen_bool(0.5) {
            let node = rng.gen_range(0..n as NodeId);
            let at_round = rng.gen_range(0..30);
            if crashes.iter().all(|c| c.node != node) {
                crashes.push(Crash {
                    node,
                    at_round,
                    recover_at: Some(at_round + rng.gen_range(1..=40)),
                });
            }
        }
        FaultPlan {
            drop_rate: rng.gen_range(0.0..=0.2),
            delay_rate: rng.gen_range(0.0..=0.2),
            max_delay: rng.gen_range(1..=3),
            corrupt_rate: rng.gen_range(0.0..=0.1),
            crashes,
            fault_seed: rng.gen(),
        }
    }

    /// The ladder changes what detection costs, never what it finds:
    /// on 104 fixed instances the excision is exactly the set of nodes
    /// a centralized BFS from node 0 cannot reach around the permanent
    /// crashes, the bill is the sum of the listed attempts, and the
    /// whole `Excision` is identical at 1 and 3 shards. The paths and
    /// cycles include survivors whose diameter is close to `n`, where
    /// the ladder climbs to its last (unbounded) rung.
    #[test]
    fn excision_matches_centralized_reachability() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xDE7E_C7ED);
        let highway = |target, d| {
            HighwayGraph::balanced(target, d)
                .expect("valid highway parameters")
                .graph()
                .clone()
        };
        let mut instances: Vec<(&str, Graph)> = Vec::new();
        for _ in 0..4 {
            instances.push(("highway(300,4)", highway(300, 4)));
        }
        for _ in 0..12 {
            instances.push(("highway(120,3)", highway(120, 3)));
        }
        for _ in 0..28 {
            let n = rng.gen_range(12..60);
            let p = rng.gen_range(0.03..0.15);
            instances.push(("gnp", gnp_connected(n, p, &mut rng)));
        }
        for _ in 0..24 {
            let n = rng.gen_range(8..60);
            instances.push(("tree", random_tree(n, &mut rng)));
        }
        for _ in 0..16 {
            let (r, c) = (rng.gen_range(2..9), rng.gen_range(2..9));
            instances.push(("grid", grid(r, c)));
        }
        for n in [8, 12, 17, 24, 33, 40, 48, 64, 80, 100] {
            instances.push(("cycle", cycle(n)));
        }
        for n in [6, 9, 16, 23, 40, 57, 70, 90, 110, 130] {
            instances.push(("path", path(n)));
        }
        assert!(instances.len() >= 100);
        let mut top_rung = Vec::new();
        for (i, (family, g)) in instances.iter().enumerate() {
            let n = g.n();
            let plan = random_plan(n, &mut rng);
            let seed = rng.gen();
            let exc = detect_and_excise(g, &plan, seed, 1)
                .unwrap_or_else(|e| panic!("instance {i} ({family}): {e}"));
            let dead: Vec<NodeId> = plan
                .crashes
                .iter()
                .filter(|c| c.recover_at.is_none())
                .map(|c| c.node)
                .collect();
            let alive = |v: NodeId| !dead.contains(&v);
            let reach = bfs(
                g,
                &[0],
                &BfsOptions {
                    node_filter: Some(&alive),
                    ..BfsOptions::default()
                },
            );
            let unreached: Vec<NodeId> = (0..n as NodeId).filter(|&v| !reach.reached(v)).collect();
            assert_eq!(exc.excluded, unreached, "instance {i} ({family})");
            assert_eq!(
                exc.extra_rounds,
                exc.phase_stats.iter().map(|p| p.rounds).sum::<u64>(),
                "instance {i} ({family})"
            );
            assert_eq!(
                exc.messages,
                exc.phase_stats.iter().map(|p| p.messages).sum::<u64>(),
                "instance {i} ({family})"
            );
            let sharded = detect_and_excise(g, &plan, seed, 3).unwrap();
            assert_eq!(sharded, exc, "instance {i} ({family}) at 3 shards");
            let unbounded = format!("F.detect_bfs@q{}", n - 1);
            if exc.phase_stats.iter().any(|p| p.label == unbounded) {
                top_rung.push(*family);
            }
        }
        for family in ["path", "cycle"] {
            assert!(
                top_rung.contains(&family),
                "no {family} instance reached the unbounded rung: {top_rung:?}"
            );
        }
    }

    #[test]
    fn split_partition_fragments_cut_parts() {
        // One part = the whole path; excising 2 splits it in two
        // fragments, both mapping back to part 0.
        let g = chord_path();
        let exc = detect_and_excise(&g, &crash_plan(&[2]), 3, 1).unwrap();
        assert_eq!(exc.excluded, vec![2]);
        let sub_g = exc.induced_graph(&g);
        assert_eq!(sub_g.n(), 5);
        let partition = Partition::new(&g, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let (sub_p, back) = exc.split_partition(&sub_g, &partition);
        // Part {0,1,2} loses node 2 → fragment {0,1}; part {3,4,5}
        // stays whole (3-4-5 connected in the subgraph).
        assert_eq!(sub_p.num_parts(), 2);
        assert_eq!(back, vec![0, 1]);
        let mut sizes: Vec<usize> = sub_p.parts().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn weighted_excision_preserves_weights_and_edge_mapping() {
        let g = chord_path();
        let weights: Vec<u64> = (0..g.m() as u64).map(|i| 10 + i).collect();
        let wg = WeightedGraph::new(g.clone(), weights).unwrap();
        let exc = detect_and_excise(&g, &crash_plan(&[2]), 3, 1).unwrap();
        let sub_wg = exc.induced_weighted(&wg);
        let sub_g = exc.induced_graph(&g);
        assert_eq!(sub_wg.graph().edges(), sub_g.edges());
        for e in sub_g.edge_ids() {
            let orig = exc.original_edge(&g, &sub_g, e);
            assert_eq!(
                sub_wg.weight(e),
                wg.weight(orig),
                "weight survives relabeling"
            );
        }
    }
}
