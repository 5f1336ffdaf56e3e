//! Distributed MST via Boruvka over low-congestion shortcuts
//! (Corollary 1.2 / Fact 4.1 of the paper; framework from Ghaffari's
//! thesis, Theorem 6.1.2).
//!
//! Boruvka runs `O(log n)` phases. In each phase the current MST
//! fragments are the parts; shortcuts are (re)built for them; every
//! fragment finds its minimum-weight outgoing edge (MWOE) by a partwise
//! aggregation over the augmented fragment trees; the MWOE edges merge
//! fragments. Each phase costs one shortcut construction plus `O(1)`
//! aggregations, so the round complexity is `Õ(quality)` per phase and
//! `Õ(k_D)` overall on constant-diameter graphs.
//!
//! Tie-breaking by `(weight, edge id)` makes the MST unique and equal,
//! edge for edge, to the Kruskal reference in `lcs-graph`. The edges,
//! weight and phase count therefore depend only on the weighted graph:
//! [`boruvka`] folds each fragment's minimum centrally in the same loop
//! [`mst_via_shortcuts`] runs, and returns the same answer.
//!
//! [`mst_via_shortcuts`] runs every MWOE aggregation on the CONGEST
//! engine, message for message, in one [`Session`]. Two charges per
//! phase are still formulas (README, "Substitutions"): the shortcut
//! construction, at the strategy's round budget, and the leader-relabel
//! sweep that follows each merge, at one scheduled aggregation.

use lcs_congest::{AggOp, FaultPlan, Session, SimConfig, SimError};
use lcs_core::{
    centralized_shortcuts, detect_and_excise, prune_to_trees, DegradedOutcome, KpParams, ParamError,
};
use lcs_graph::{exact_diameter, kruskal, EdgeId, NodeId, UnionFind, WeightedGraph};
use lcs_shortcut::{
    global_tree_shortcuts, trivial_shortcuts, AggregationSetup, Partition, PartitionError,
};
use std::fmt;

/// Which shortcut construction feeds each Boruvka phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortcutStrategy {
    /// Kogan–Parter sampling shortcuts (`Õ(k_D)` quality).
    KoganParter,
    /// Folklore global-BFS-tree shortcuts (`O(D + √n)` quality).
    GlobalTree,
    /// No shortcuts (`H_i = ∅`): dilation = fragment diameter.
    Trivial,
}

impl fmt::Display for ShortcutStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            ShortcutStrategy::KoganParter => "kogan-parter",
            ShortcutStrategy::GlobalTree => "global-tree",
            ShortcutStrategy::Trivial => "trivial",
        })
    }
}

/// MST configuration.
#[derive(Debug, Clone)]
pub struct MstConfig {
    /// Seed for shortcut sampling and the simulator.
    pub seed: u64,
    /// Shortcut construction per phase.
    pub strategy: ShortcutStrategy,
    /// Known diameter (skips re-deriving it; required for
    /// [`ShortcutStrategy::KoganParter`] parameters — pass the measured
    /// graph diameter). When a fault plan excises nodes, Boruvka runs on
    /// the survivors with their diameter re-derived instead: excision
    /// can stretch it ([`lcs_core::Excision::survivors_diameter`]).
    pub diameter: Option<u32>,
    /// Engine shards ([`SimConfig::shards`]); `0` (the default)
    /// auto-sizes to the machine. Any value is bit-identical.
    pub shards: usize,
    /// Fault plan for the network ([`SimConfig::faults`]). With a plan
    /// attached, a detection phase (reliable BFS + census convergecast
    /// on the faulty network) excises permanently crashed nodes and
    /// anything they disconnect; Boruvka then computes the MST of the
    /// **surviving component** and reports a
    /// [`DegradedOutcome`].
    pub faults: Option<FaultPlan>,
}

impl Default for MstConfig {
    fn default() -> Self {
        MstConfig {
            seed: 0xB0B,
            strategy: ShortcutStrategy::KoganParter,
            diameter: None,
            shards: 0,
            faults: None,
        }
    }
}

/// Why the MST computation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MstError {
    /// Fragment partition became invalid (internal error).
    Partition(PartitionError),
    /// Parameter failure.
    Params(ParamError),
    /// Simulator failure.
    Sim(SimError),
    /// The MWOE encoding needs `weight < 2^37` and `edge id < 2^26`.
    EncodingOverflow,
}

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MstError::Partition(e) => write!(f, "fragment partition invalid: {e}"),
            MstError::Params(e) => write!(f, "parameter error: {e}"),
            MstError::Sim(e) => write!(f, "simulator error: {e}"),
            MstError::EncodingOverflow => {
                write!(f, "weight/edge-id exceed the MWOE message encoding")
            }
        }
    }
}

impl std::error::Error for MstError {}

impl From<PartitionError> for MstError {
    fn from(e: PartitionError) -> Self {
        MstError::Partition(e)
    }
}
impl From<ParamError> for MstError {
    fn from(e: ParamError) -> Self {
        MstError::Params(e)
    }
}
impl From<SimError> for MstError {
    fn from(e: SimError) -> Self {
        MstError::Sim(e)
    }
}

/// Per-phase cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCost {
    /// Rounds charged to (re)build shortcuts for the fragments: the
    /// strategy's construction budget, a formula.
    pub shortcut_rounds: u64,
    /// The rounds the engine ran for the MWOE aggregation, plus one
    /// round for the fragment-label exchange and the leader-relabel
    /// sweep's scheduled charge.
    pub aggregation_rounds: u64,
    /// Fragments alive at the start of the phase.
    pub fragments: usize,
}

/// The answer Boruvka computes, which depends only on the weighted
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoruvkaForest {
    /// The MST/MSF edges, sorted by id.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub weight: u64,
    /// Number of Boruvka phases.
    pub phases: u32,
}

/// MST result with cost accounting.
#[derive(Debug, Clone)]
pub struct MstOutcome {
    /// The MST/MSF edges, sorted by id.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub weight: u64,
    /// Number of Boruvka phases.
    pub phases: u32,
    /// Total rounds across phases (plus detection under a fault plan).
    pub total_rounds: u64,
    /// Messages the engine exchanged: every MWOE aggregation, plus
    /// detection under a fault plan.
    pub messages: u64,
    /// Per-phase cost breakdown.
    pub phase_costs: Vec<PhaseCost>,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](MstConfig::faults): what graceful degradation
    /// excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

const EID_BITS: u32 = 26;

/// Encodes an MWOE candidate as one aggregate-able word:
/// `(weight << 26) | edge_id` — min over these words is min over
/// `(weight, edge id)`, matching [`lcs_graph::mst_key`].
fn encode(weight: u64, e: EdgeId) -> Option<u64> {
    if weight >= (1 << (63 - EID_BITS)) || e.0 as u64 >= (1 << EID_BITS) {
        return None;
    }
    Some((weight << EID_BITS) | e.0 as u64)
}

/// [`MstError::EncodingOverflow`] unless the MWOE encoding carries
/// every edge of `wg` — the check Boruvka's first phase makes, since on
/// two or more nodes every edge is outgoing there.
pub(crate) fn check_encodable(wg: &WeightedGraph) -> Result<(), MstError> {
    if wg
        .graph()
        .edge_ids()
        .all(|e| encode(wg.weight(e), e).is_some())
    {
        Ok(())
    } else {
        Err(MstError::EncodingOverflow)
    }
}

fn decode(word: u64) -> EdgeId {
    EdgeId((word & ((1 << EID_BITS) - 1)) as u32)
}

/// Boruvka's loop, which every entry point runs. Each phase labels the
/// fragments, gives every node its least encoded `(weight, edge id)`
/// over the edges leaving its fragment (`u64::MAX` for none), takes each
/// fragment's least candidate from `fragment_minima(phase, fragments,
/// candidates)`, indexed by part, and merges along those edges. The loop
/// stops once one fragment is left or a phase merges nothing; that last
/// phase counts.
fn boruvka_with(
    wg: &WeightedGraph,
    mut fragment_minima: impl FnMut(u32, &Partition, &[u64]) -> Result<Vec<u64>, MstError>,
) -> Result<BoruvkaForest, MstError> {
    let g = wg.graph();
    let n = g.n();
    let mut uf = UnionFind::new(n);
    let mut forest = BoruvkaForest {
        edges: Vec::new(),
        weight: 0,
        phases: 0,
    };
    let mut candidates = vec![u64::MAX; n];
    loop {
        let labels: Vec<u32> = (0..n as u32).map(|v| uf.find(v)).collect();
        let fragments = Partition::from_labels(g, &labels)?;
        if fragments.num_parts() <= 1 {
            break;
        }
        for (v, best) in candidates.iter_mut().enumerate() {
            *best = u64::MAX;
            for (w, e) in g.neighbors_with_edges(v as NodeId) {
                if labels[w as usize] != labels[v] {
                    let word = encode(wg.weight(e), e).ok_or(MstError::EncodingOverflow)?;
                    *best = (*best).min(word);
                }
            }
        }
        let minima = fragment_minima(forest.phases, &fragments, &candidates)?;
        forest.phases += 1;
        let mut merged_any = false;
        for word in minima.into_iter().filter(|&word| word != u64::MAX) {
            let e = decode(word);
            let (a, b) = g.edge_endpoints(e);
            if uf.union(a, b) {
                forest.edges.push(e);
                forest.weight += wg.weight(e);
                merged_any = true;
            }
        }
        if !merged_any {
            break; // every remaining fragment is a full component
        }
    }
    forest.edges.sort_unstable();
    Ok(forest)
}

/// The MST (or minimum spanning forest) of `wg`, by Boruvka's loop with
/// each fragment's minimum folded centrally. It builds no shortcuts,
/// runs no engine and needs no seed or diameter, and returns the edges,
/// weight and phase count that [`mst_via_shortcuts`] returns on `wg`
/// under any fault-free configuration.
///
/// # Errors
///
/// [`MstError::EncodingOverflow`] when an edge's weight or id exceeds
/// the MWOE encoding, as [`mst_via_shortcuts`] reports it.
pub fn boruvka(wg: &WeightedGraph) -> Result<BoruvkaForest, MstError> {
    boruvka_with(wg, |_, fragments, candidates| {
        let mut minima = vec![u64::MAX; fragments.num_parts()];
        for (v, &word) in candidates.iter().enumerate() {
            if let Some(i) = fragments.part_of(v as NodeId) {
                minima[i as usize] = minima[i as usize].min(word);
            }
        }
        Ok(minima)
    })
}

/// Computes the MST (or minimum spanning forest) of `wg` through the
/// shortcut framework, with every MWOE aggregation run on the engine.
///
/// With a [`FaultPlan`](MstConfig::faults) attached, crash-stopped
/// nodes are detected and excised first and the MST is computed on the
/// surviving component (see [`MstConfig::faults`]).
///
/// # Errors
///
/// See [`MstError`].
pub fn mst_via_shortcuts(wg: &WeightedGraph, cfg: &MstConfig) -> Result<MstOutcome, MstError> {
    if let Some(plan) = &cfg.faults {
        return degraded_mst(wg, cfg, plan);
    }
    mst_pipeline(wg, cfg)
}

/// The fault-free Boruvka pipeline: each phase builds the strategy's
/// shortcuts for the fragments and takes the minima by one Min
/// aggregation through the engine.
fn mst_pipeline(wg: &WeightedGraph, cfg: &MstConfig) -> Result<MstOutcome, MstError> {
    let g = wg.graph();
    let n = g.n();
    let diameter = match cfg.diameter {
        Some(d) => d,
        None => exact_diameter(g).unwrap_or(3).max(3),
    };
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        shards: cfg.shards,
        ..SimConfig::default()
    };
    // One engine for every Boruvka phase's MWOE aggregation: the
    // session's pool and reverse-arc tables are built once, and its
    // cumulative stats give the whole run's message total.
    let mut session = Session::new(g, sim_cfg);
    let mut phase_costs: Vec<PhaseCost> = Vec::new();
    let forest = boruvka_with(wg, |phase, fragments, candidates| {
        let (shortcuts, shortcut_rounds) = match cfg.strategy {
            ShortcutStrategy::KoganParter => {
                // The paper's sampling probability `p = k_D ln n / N`.
                let params = KpParams::new(n, diameter.max(3))?;
                let raw =
                    centralized_shortcuts(g, fragments, params, cfg.seed ^ (phase as u64) << 32);
                let pruned = prune_to_trees(g, fragments, &raw.shortcuts, params.depth_limit());
                // Charged at the distributed construction's budget
                // (`Õ(k_D)`); the simulated construction is exercised
                // separately in lcs-core tests/benches.
                (pruned.shortcuts, params.round_budget())
            }
            ShortcutStrategy::GlobalTree => {
                let s = global_tree_shortcuts(g, fragments, 0, None);
                (s, 2 * diameter as u64 + 2)
            }
            ShortcutStrategy::Trivial => (trivial_shortcuts(fragments), 0),
        };
        let setup = AggregationSetup::build(g, fragments, &shortcuts);
        let value = |v: NodeId, part: usize| -> u64 {
            if fragments.part_of(v) == Some(part as u32) {
                candidates[v as usize]
            } else {
                u64::MAX
            }
        };
        let (roots, agg) = setup.aggregate_in_session(&mut session, AggOp::Min, &value, true)?;
        phase_costs.push(PhaseCost {
            shortcut_rounds,
            // One round for the fragment-label neighbor exchange, the
            // aggregation, and the leader-relabel broadcast charged as
            // one more scheduled sweep.
            aggregation_rounds: 1 + agg.stats.rounds + setup.accounted_rounds(n),
            fragments: fragments.num_parts(),
        });
        Ok(roots.into_iter().map(|r| r.unwrap_or(u64::MAX)).collect())
    })?;
    Ok(MstOutcome {
        edges: forest.edges,
        weight: forest.weight,
        phases: forest.phases,
        total_rounds: phase_costs
            .iter()
            .map(|p| p.shortcut_rounds + p.aggregation_rounds)
            .sum(),
        messages: session.stats().messages,
        phase_costs,
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network
/// (reliable BFS from node 0 + census convergecast over its tree),
/// excise the dead and anything they disconnect, and run Boruvka on the
/// surviving component. Detection rounds are charged as
/// [`DegradedOutcome::extra_rounds`]; the remaining phases run over the
/// reliable transport, whose outputs are byte-identical to fault-free
/// runs, so they are simulated fault-free.
fn degraded_mst(
    wg: &WeightedGraph,
    cfg: &MstConfig,
    plan: &FaultPlan,
) -> Result<MstOutcome, MstError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.seed, cfg.shards).map_err(MstError::Sim)?;
    let sub_cfg = MstConfig {
        diameter: exc.survivors_diameter(cfg.diameter),
        faults: None,
        ..cfg.clone()
    };
    let sub_wg = exc.induced_weighted(wg);
    let sub = mst_pipeline(&sub_wg, &sub_cfg)?;

    // Map the tree back to original edge ids.
    let mut edges: Vec<EdgeId> = sub
        .edges
        .iter()
        .map(|&e| exc.original_edge(g, sub_wg.graph(), e))
        .collect();
    edges.sort_unstable();
    Ok(MstOutcome {
        edges,
        weight: sub.weight,
        phases: sub.phases,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        messages: sub.messages + exc.messages,
        phase_costs: sub.phase_costs,
        degraded: Some(exc.outcome()),
    })
}

/// Convenience: assert the outcome equals the Kruskal reference.
/// Returns the common weight.
///
/// # Panics
///
/// Panics if the outcomes differ (edge-for-edge).
pub fn assert_matches_kruskal(wg: &WeightedGraph, outcome: &MstOutcome) -> u64 {
    let k = kruskal(wg);
    assert_eq!(outcome.weight, k.weight, "MST weight mismatch");
    assert_eq!(outcome.edges, k.edges, "MST edge set mismatch");
    k.weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{gnp_connected, HighwayGraph, HighwayParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn highway_weighted(d: u32, paths: usize, len: usize, seed: u64) -> WeightedGraph {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: paths,
            path_len: len,
            diameter: d,
        })
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        WeightedGraph::with_random_weights(hw.graph().clone(), 1000, &mut rng)
    }

    /// A strategy's name fills the width it is given, so the columns of
    /// a comparison table line up.
    #[test]
    fn strategy_names_honour_width() {
        for s in [
            ShortcutStrategy::KoganParter,
            ShortcutStrategy::GlobalTree,
            ShortcutStrategy::Trivial,
        ] {
            let cell = format!("{s:>14}");
            assert_eq!(cell.chars().count(), 14, "{cell:?}");
            assert!(cell.ends_with(&s.to_string()));
        }
    }

    #[test]
    fn simulated_mst_matches_kruskal() {
        let wg = highway_weighted(4, 3, 16, 2);
        let cfg = MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        assert_matches_kruskal(&wg, &out);
        assert!(out.phases >= 1 && out.total_rounds > 0);
        assert!(out.messages > 0, "the engine must exchange messages");
    }

    #[test]
    fn all_strategies_agree_on_the_tree() {
        let wg = highway_weighted(4, 3, 20, 3);
        let mut outs = Vec::new();
        for strategy in [
            ShortcutStrategy::KoganParter,
            ShortcutStrategy::GlobalTree,
            ShortcutStrategy::Trivial,
        ] {
            let cfg = MstConfig {
                strategy,
                diameter: Some(4),
                ..MstConfig::default()
            };
            outs.push(mst_via_shortcuts(&wg, &cfg).unwrap());
        }
        let k = kruskal(&wg);
        for o in &outs {
            assert_eq!(o.edges, k.edges);
        }
    }

    #[test]
    fn random_graphs_over_seeds() {
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = gnp_connected(60, 0.08, &mut rng);
            let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
            let cfg = MstConfig {
                seed,
                ..MstConfig::default()
            };
            let out = mst_via_shortcuts(&wg, &cfg).unwrap();
            assert_matches_kruskal(&wg, &out);
        }
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let wg =
            WeightedGraph::from_weighted_edges(6, &[(0, 1, 5), (1, 2, 2), (3, 4, 1), (4, 5, 9)])
                .unwrap();
        let cfg = MstConfig {
            diameter: Some(3),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let k = kruskal(&wg);
        assert_eq!(out.edges, k.edges);
        assert_eq!(out.weight, 17);
        // The second phase merges nothing, and it counts.
        assert_eq!(out.phases, 2);
    }

    #[test]
    fn boruvka_phase_count_is_logarithmic() {
        let wg = highway_weighted(4, 4, 24, 5);
        let cfg = MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let n = wg.graph().n() as f64;
        assert!(
            (out.phases as f64) <= n.log2().ceil() + 1.0,
            "phases {}",
            out.phases
        );
        // Fragment counts strictly decrease.
        let frags: Vec<usize> = out.phase_costs.iter().map(|p| p.fragments).collect();
        assert!(frags.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn empty_and_singleton() {
        let empty = WeightedGraph::from_weighted_edges(0, &[]).unwrap();
        let out = mst_via_shortcuts(&empty, &MstConfig::default()).unwrap();
        assert_eq!(out.weight, 0);
        let single = WeightedGraph::from_weighted_edges(1, &[]).unwrap();
        let out = mst_via_shortcuts(&single, &MstConfig::default()).unwrap();
        assert!(out.edges.is_empty());
        for wg in [&empty, &single] {
            let forest = boruvka(wg).unwrap();
            assert!(forest.edges.is_empty() && forest.phases == 0);
        }
        // A fault plan takes the degraded path on any graph, and says so.
        let faulty = MstConfig {
            faults: Some(FaultPlan::drops(0.1, 3)),
            ..MstConfig::default()
        };
        for wg in [&empty, &single] {
            let out = mst_via_shortcuts(wg, &faulty).unwrap();
            assert!(out.edges.is_empty());
            let deg = out.degraded.expect("plan reports degradation");
            assert!(deg.excluded_nodes.is_empty());
        }
    }

    #[test]
    fn degraded_mst_excises_crashed_part_and_matches_kruskal_on_survivors() {
        use lcs_congest::Crash;
        // Highway graph: 3 paths hanging off a small core. Crash every
        // node of one non-root path at round 0 — the whole part dies.
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 16,
            diameter: 4,
        })
        .unwrap();
        let parts = hw.path_parts();
        let mut dead_part: Vec<NodeId> = parts[1].clone();
        dead_part.sort_unstable();
        assert!(!dead_part.contains(&0), "crash a non-root part");
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let wg = WeightedGraph::with_random_weights(hw.graph().clone(), 1000, &mut rng);
        let cfg = MstConfig {
            diameter: Some(4),
            faults: Some(FaultPlan {
                drop_rate: 0.05,
                delay_rate: 0.05,
                max_delay: 2,
                corrupt_rate: 0.05,
                crashes: dead_part
                    .iter()
                    .map(|&v| Crash {
                        node: v,
                        at_round: 0,
                        recover_at: None,
                    })
                    .collect(),
                fault_seed: 0xDEAD,
            }),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("faulty run reports degradation");
        assert!(deg.completed);
        assert_eq!(
            deg.excluded_nodes, dead_part,
            "excised exactly the dead part"
        );
        assert!(deg.extra_rounds > 0, "detection rounds are charged");
        // Reference: Kruskal on the surviving subgraph.
        let survivors: Vec<NodeId> = (0..wg.graph().n() as NodeId)
            .filter(|v| !dead_part.contains(v))
            .collect();
        let mut new_id = vec![u32::MAX; wg.graph().n()];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let sub_edges: Vec<(NodeId, NodeId, u64)> = wg
            .graph()
            .edges()
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| {
                new_id[a as usize] != u32::MAX && new_id[b as usize] != u32::MAX
            })
            .map(|(e, &(a, b))| {
                (
                    new_id[a as usize],
                    new_id[b as usize],
                    wg.weight(EdgeId(e as u32)),
                )
            })
            .collect();
        let sub_wg = WeightedGraph::from_weighted_edges(survivors.len(), &sub_edges).unwrap();
        let k = kruskal(&sub_wg);
        assert_eq!(
            out.weight, k.weight,
            "MST weight on the surviving component"
        );
        assert_eq!(out.edges.len(), k.edges.len());
        // Same edges, modulo relabeling.
        let mapped: Vec<EdgeId> = {
            let mut v: Vec<EdgeId> = k
                .edges
                .iter()
                .map(|&e| {
                    let (a, b) = sub_wg.graph().edge_endpoints(e);
                    wg.graph()
                        .edge_between(survivors[a as usize], survivors[b as usize])
                        .unwrap()
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(out.edges, mapped);
        // No MST edge touches a dead node.
        for &e in &out.edges {
            let (a, b) = wg.graph().edge_endpoints(e);
            assert!(!dead_part.contains(&a) && !dead_part.contains(&b));
        }
    }

    /// Without permanent crashes the excision is empty and the outcome
    /// is the fault-free run's plus the detection bill. The caller's
    /// diameter (6) is not the fixture's exact one (4), and an empty
    /// excision keeps it: re-deriving it would charge every phase a
    /// smaller construction budget.
    #[test]
    fn degraded_mst_without_crashes_matches_fault_free() {
        let wg = highway_weighted(4, 3, 16, 4);
        assert_eq!(exact_diameter(wg.graph()), Some(4));
        let plan = FaultPlan {
            drop_rate: 0.10,
            delay_rate: 0.10,
            max_delay: 2,
            corrupt_rate: 0.05,
            crashes: vec![],
            fault_seed: 5,
        };
        let clean_cfg = MstConfig {
            diameter: Some(6),
            ..MstConfig::default()
        };
        let clean = mst_via_shortcuts(&wg, &clean_cfg).unwrap();
        let cfg = MstConfig {
            faults: Some(plan.clone()),
            ..clean_cfg
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let exc = detect_and_excise(wg.graph(), &plan, cfg.seed, cfg.shards).unwrap();
        assert!(exc.excluded.is_empty());
        assert_eq!(out.edges, clean.edges, "drops/delays never change the MST");
        assert_eq!(out.weight, clean.weight);
        assert_eq!(out.phases, clean.phases);
        assert_eq!(out.phase_costs, clean.phase_costs);
        assert_eq!(out.total_rounds, clean.total_rounds + exc.extra_rounds);
        assert_eq!(out.messages, clean.messages + exc.messages);
        assert_eq!(out.degraded, Some(exc.outcome()));
    }

    /// Excision can stretch the diameter, so Boruvka on the survivors
    /// must key its round budget on their diameter, not the caller's:
    /// crashing node 10 of `cycle(20)` leaves a 19-node path, D 10 → 18.
    #[test]
    fn degraded_mst_rederives_the_survivors_diameter() {
        use lcs_congest::Crash;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let wg =
            WeightedGraph::with_random_weights(lcs_graph::generators::cycle(20), 1000, &mut rng);
        let dead: NodeId = 10;
        let cfg = MstConfig {
            diameter: Some(10),
            faults: Some(FaultPlan {
                crashes: vec![Crash {
                    node: dead,
                    at_round: 0,
                    recover_at: None,
                }],
                ..FaultPlan::default()
            }),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("faulty run reports degradation");
        assert_eq!(deg.excluded_nodes, vec![dead]);
        // The survivors rebuilt independently, relabeled in id order.
        let new_id = |v: NodeId| if v < dead { v } else { v - 1 };
        let edges: Vec<(NodeId, NodeId, u64)> = wg
            .graph()
            .edges()
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| a != dead && b != dead)
            .map(|(e, &(a, b))| (new_id(a), new_id(b), wg.weight(EdgeId(e as u32))))
            .collect();
        let survivors = WeightedGraph::from_weighted_edges(19, &edges).unwrap();
        assert_eq!(exact_diameter(survivors.graph()), Some(18));
        let direct = mst_via_shortcuts(
            &survivors,
            &MstConfig {
                diameter: None,
                ..MstConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.weight, direct.weight);
        assert_eq!(out.total_rounds, direct.total_rounds + deg.extra_rounds);
    }

    #[test]
    fn crashing_the_root_is_rejected() {
        use lcs_congest::Crash;
        let wg = highway_weighted(4, 3, 16, 4);
        let cfg = MstConfig {
            diameter: Some(4),
            faults: Some(FaultPlan {
                crashes: vec![Crash {
                    node: 0,
                    at_round: 0,
                    recover_at: None,
                }],
                ..FaultPlan::default()
            }),
            ..MstConfig::default()
        };
        match mst_via_shortcuts(&wg, &cfg) {
            Err(MstError::Sim(SimError::FaultConfig { reason })) => {
                assert!(reason.contains("node 0"));
            }
            other => panic!("expected FaultConfig rejection, got {other:?}"),
        }
    }

    #[test]
    fn encoding_roundtrip_and_overflow() {
        let e = EdgeId(12345);
        let w = 999_999u64;
        let word = encode(w, e).unwrap();
        assert_eq!(decode(word), e);
        assert!(encode(1 << 40, e).is_none());
        assert!(encode(1, EdgeId(1 << 27)).is_none());
    }
}
