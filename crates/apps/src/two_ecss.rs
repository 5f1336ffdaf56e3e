//! O(log n)-approximate minimum-weight two-edge-connected spanning
//! subgraph (Corollary 4.3; framework of Dory–Ghaffari, PODC 2019).
//!
//! Classic reduction: take the MST, then solve *weighted tree
//! augmentation* — pick non-tree edges so that every tree edge lies on a
//! cycle — with the greedy set-cover rule (cost per newly covered tree
//! edge), which is an `O(log n)`-approximation; `w(MST) + w(augmentation)`
//! is then an `O(log n)`-approximation of the optimal 2-ECSS, since both
//! the MST and the optimal augmentation are bounded by the optimum.
//!
//! Distributed cost: the MST comes from
//! [`mst_via_shortcuts`](crate::mst::mst_via_shortcuts()); each greedy
//! round is one partwise aggregation (fragments = tree components of
//! uncovered edges), charged accordingly.

use crate::mst::{mst_via_shortcuts, MstConfig, MstError};
use lcs_congest::{ceil_log2, FaultPlan, SimError};
use lcs_core::{detect_and_excise, DegradedOutcome};
use lcs_graph::{is_two_edge_connected, EdgeId, Graph, NodeId, WeightedGraph};
use std::collections::HashSet;
use std::fmt;

/// 2-ECSS failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoEcssError {
    /// The input graph is not two-edge-connected, so no 2-ECSS exists.
    NotTwoEdgeConnected,
    /// MST subroutine failure.
    Mst(MstError),
    /// Fault-handling failure (detection phase).
    Sim(SimError),
}

impl fmt::Display for TwoEcssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwoEcssError::NotTwoEdgeConnected => {
                write!(f, "input graph is not two-edge-connected")
            }
            TwoEcssError::Mst(e) => write!(f, "mst subroutine failed: {e}"),
            TwoEcssError::Sim(e) => write!(f, "fault handling failed: {e}"),
        }
    }
}

impl std::error::Error for TwoEcssError {}

impl From<MstError> for TwoEcssError {
    fn from(e: MstError) -> Self {
        TwoEcssError::Mst(e)
    }
}

/// Result of the 2-ECSS approximation.
#[derive(Debug, Clone)]
pub struct TwoEcssOutcome {
    /// Chosen edges (MST ∪ augmentation), sorted.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub weight: u64,
    /// Weight of the MST part.
    pub mst_weight: u64,
    /// Weight of the augmentation part.
    pub augmentation_weight: u64,
    /// Greedy rounds used.
    pub greedy_rounds: u32,
    /// Total distributed rounds charged.
    pub total_rounds: u64,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](MstConfig::faults): what graceful degradation
    /// excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

/// Tree edges on the tree path between `u` and `v` (indices into
/// `tree_edges`).
fn tree_path_edges(n: usize, tree_edges: &[(NodeId, NodeId)], u: NodeId, v: NodeId) -> Vec<usize> {
    // Build adjacency with edge indices; BFS from u to v.
    let mut adj: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
    for (i, &(a, b)) in tree_edges.iter().enumerate() {
        adj[a as usize].push((b, i));
        adj[b as usize].push((a, i));
    }
    let mut prev: Vec<Option<(NodeId, usize)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[u as usize] = true;
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        if x == v {
            break;
        }
        for &(y, i) in &adj[x as usize] {
            if !seen[y as usize] {
                seen[y as usize] = true;
                prev[y as usize] = Some((x, i));
                queue.push_back(y);
            }
        }
    }
    let mut out = Vec::new();
    let mut cur = v;
    while let Some((p, i)) = prev[cur as usize] {
        out.push(i);
        cur = p;
        if cur == u {
            break;
        }
    }
    out
}

/// Computes the O(log n)-approximate 2-ECSS.
///
/// The MST subroutine is session-backed: in simulated mode every
/// Boruvka aggregation runs through one engine
/// [`Session`](lcs_congest::Session) (see
/// [`mst_via_shortcuts`]), so `cfg.shards` sizes its worker pool.
///
/// With a [`FaultPlan`](MstConfig::faults) attached, crash-stopped
/// nodes are detected and excised first (see [`lcs_core::degrade`])
/// and the 2-ECSS is built for the **surviving** subgraph — which must
/// itself be two-edge-connected (it can be even when the full graph is
/// not, e.g. after a pendant component crashes away). Returned edges
/// carry original ids; the outcome carries a [`DegradedOutcome`].
///
/// # Errors
///
/// [`TwoEcssError::NotTwoEdgeConnected`] when no 2-ECSS exists (for
/// the survivors, under a fault plan); [`TwoEcssError::Sim`] when the
/// detection phase fails.
pub fn two_ecss(wg: &WeightedGraph, cfg: &MstConfig) -> Result<TwoEcssOutcome, TwoEcssError> {
    if let Some(plan) = &cfg.faults {
        return degraded_two_ecss(wg, cfg, plan);
    }
    let g = wg.graph();
    let n = g.n();
    if !is_two_edge_connected(g) {
        return Err(TwoEcssError::NotTwoEdgeConnected);
    }
    if n <= 1 {
        return Ok(TwoEcssOutcome {
            edges: vec![],
            weight: 0,
            mst_weight: 0,
            augmentation_weight: 0,
            greedy_rounds: 0,
            total_rounds: 0,
            degraded: None,
        });
    }
    let mst = mst_via_shortcuts(wg, cfg)?;
    let tree_set: HashSet<EdgeId> = mst.edges.iter().copied().collect();
    let tree_edges: Vec<(NodeId, NodeId)> =
        mst.edges.iter().map(|&e| g.edge_endpoints(e)).collect();

    // Precompute, for every non-tree edge, the tree edges it covers.
    let mut non_tree: Vec<(EdgeId, Vec<usize>)> = Vec::new();
    for e in g.edge_ids() {
        if tree_set.contains(&e) {
            continue;
        }
        let (u, v) = g.edge_endpoints(e);
        non_tree.push((e, tree_path_edges(n, &tree_edges, u, v)));
    }

    // Greedy weighted set cover over tree edges.
    let mut covered = vec![false; tree_edges.len()];
    let mut uncovered = tree_edges.len();
    let mut augmentation: Vec<EdgeId> = Vec::new();
    let mut augmentation_weight = 0u64;
    let mut greedy_rounds = 0u32;
    while uncovered > 0 {
        greedy_rounds += 1;
        let mut best: Option<(f64, EdgeId, usize)> = None;
        for (idx, (e, path)) in non_tree.iter().enumerate() {
            let gain = path.iter().filter(|&&i| !covered[i]).count();
            if gain == 0 {
                continue;
            }
            let ratio = wg.weight(*e) as f64 / gain as f64;
            if best.is_none_or(|(r, be, _)| ratio < r || (ratio == r && e.0 < be.0)) {
                best = Some((ratio, *e, idx));
            }
        }
        let Some((_, e, idx)) = best else {
            // No non-tree edge covers the rest: contradicts
            // 2-edge-connectivity of the input.
            unreachable!("two-edge-connected input always admits a cover");
        };
        for &i in &non_tree[idx].1 {
            if !covered[i] {
                covered[i] = true;
                uncovered -= 1;
            }
        }
        augmentation.push(e);
        augmentation_weight += wg.weight(e);
    }

    let mut edges: Vec<EdgeId> = mst.edges.clone();
    edges.extend_from_slice(&augmentation);
    edges.sort_unstable();
    // Each greedy round is one aggregation sweep over the fragments.
    let agg_round_cost = 2 * ceil_log2(n.max(2)) as u64 + n.isqrt() as u64;
    let total_rounds = mst.total_rounds + greedy_rounds as u64 * agg_round_cost;

    Ok(TwoEcssOutcome {
        weight: mst.weight + augmentation_weight,
        mst_weight: mst.weight,
        augmentation_weight,
        edges,
        greedy_rounds,
        total_rounds,
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network,
/// excise the dead, and build the 2-ECSS of the surviving subgraph
/// (MST + greedy augmentation both run on the survivors, so every
/// surviving tree edge is covered by a surviving cycle). The inner MST
/// re-derives the diameter once nodes are excised, since excision can
/// lengthen shortest paths ([`lcs_core::Excision::survivors_diameter`]);
/// detection rounds are charged on top.
fn degraded_two_ecss(
    wg: &WeightedGraph,
    cfg: &MstConfig,
    plan: &FaultPlan,
) -> Result<TwoEcssOutcome, TwoEcssError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.seed, cfg.shards).map_err(TwoEcssError::Sim)?;
    let inner = MstConfig {
        diameter: exc.survivors_diameter(cfg.diameter),
        faults: None,
        ..cfg.clone()
    };
    let sub_wg = exc.induced_weighted(wg);
    let sub = two_ecss(&sub_wg, &inner)?;
    let mut edges: Vec<EdgeId> = sub
        .edges
        .iter()
        .map(|&e| exc.original_edge(g, sub_wg.graph(), e))
        .collect();
    edges.sort_unstable();
    Ok(TwoEcssOutcome {
        edges,
        weight: sub.weight,
        mst_weight: sub.mst_weight,
        augmentation_weight: sub.augmentation_weight,
        greedy_rounds: sub.greedy_rounds,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        degraded: Some(exc.outcome()),
    })
}

/// Verifies that the chosen edges form a two-edge-connected spanning
/// subgraph of `wg`'s topology.
pub fn verify_two_ecss(g: &Graph, edges: &[EdgeId]) -> bool {
    let sub_edges: Vec<(NodeId, NodeId)> = edges.iter().map(|&e| g.edge_endpoints(e)).collect();
    match Graph::from_edges(g.n(), &sub_edges) {
        Ok(sub) => is_two_edge_connected(&sub),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators::{complete, cycle};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn cycle_is_its_own_2ecss() {
        let g = cycle(8);
        let wg = WeightedGraph::new(g, vec![1; 8]).unwrap();
        let cfg = MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        assert_eq!(out.edges.len(), 8, "must keep the full cycle");
        assert_eq!(out.weight, 8);
        assert!(verify_two_ecss(wg.graph(), &out.edges));
    }

    #[test]
    fn dense_graph_prunes_most_edges() {
        let g = complete(10);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let wg = WeightedGraph::with_random_weights(g, 100, &mut rng);
        let cfg = MstConfig {
            diameter: Some(3),
            ..MstConfig::default()
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        assert!(verify_two_ecss(wg.graph(), &out.edges));
        // n-1 tree edges + a modest augmentation, far below 45 edges.
        assert!(out.edges.len() < 2 * 10);
        assert_eq!(out.weight, out.mst_weight + out.augmentation_weight);
        assert!(out.total_rounds > 0);
    }

    #[test]
    fn rejects_bridged_graphs() {
        let wg =
            WeightedGraph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)])
                .unwrap();
        assert_eq!(
            two_ecss(&wg, &MstConfig::default()).unwrap_err(),
            TwoEcssError::NotTwoEdgeConnected
        );
    }

    #[test]
    fn degraded_two_ecss_matches_direct_run_on_survivors() {
        use lcs_congest::{Crash, FaultPlan};
        let g = complete(8);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let wg = WeightedGraph::with_random_weights(g, 60, &mut rng);
        let plan = FaultPlan {
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            crashes: vec![Crash {
                node: 5,
                at_round: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let cfg = MstConfig {
            diameter: Some(3),
            faults: Some(plan),
            ..MstConfig::default()
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("fault plan reports degradation");
        assert_eq!(deg.excluded_nodes, vec![5]);
        assert!(deg.extra_rounds > 0);

        // Independent reference: a direct run on the survivors'
        // subgraph, built by hand (complete(8) minus node 5).
        let g = wg.graph();
        let survivors: Vec<NodeId> = (0u32..8).filter(|&v| v != 5).collect();
        let mut new_id = [u32::MAX; 8];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let sub_edges: Vec<(NodeId, NodeId, u64)> = g
            .edge_ids()
            .filter_map(|e| {
                let (a, b) = g.edge_endpoints(e);
                (a != 5 && b != 5).then(|| (new_id[a as usize], new_id[b as usize], wg.weight(e)))
            })
            .collect();
        let sub_wg = WeightedGraph::from_weighted_edges(7, &sub_edges).unwrap();
        let reference = two_ecss(
            &sub_wg,
            &MstConfig {
                diameter: None,
                ..MstConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.weight, reference.weight);
        assert_eq!(out.mst_weight, reference.mst_weight);
        let mut mapped: Vec<EdgeId> = out
            .edges
            .iter()
            .map(|&e| {
                let (a, b) = g.edge_endpoints(e);
                sub_wg
                    .graph()
                    .edge_between(new_id[a as usize], new_id[b as usize])
                    .expect("surviving edge")
            })
            .collect();
        mapped.sort_unstable();
        assert_eq!(mapped, reference.edges, "same subgraph, edge for edge");
        assert!(verify_two_ecss(sub_wg.graph(), &reference.edges));
    }

    /// Without permanent crashes the excision is empty and the outcome
    /// is the fault-free run's plus the detection bill. The caller's
    /// diameter (5) is not the one the MST would derive (3 on a
    /// complete graph), and an empty excision keeps it.
    #[test]
    fn degraded_two_ecss_without_permanent_crashes_matches_fault_free() {
        use lcs_congest::FaultPlan;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let wg = WeightedGraph::with_random_weights(complete(8), 60, &mut rng);
        let clean_cfg = MstConfig {
            diameter: Some(5),
            ..MstConfig::default()
        };
        let clean = two_ecss(&wg, &clean_cfg).unwrap();
        let plan = FaultPlan {
            drop_rate: 0.10,
            delay_rate: 0.05,
            max_delay: 2,
            corrupt_rate: 0.05,
            ..FaultPlan::default()
        };
        let cfg = MstConfig {
            faults: Some(plan.clone()),
            ..clean_cfg
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        let exc = detect_and_excise(wg.graph(), &plan, cfg.seed, cfg.shards).unwrap();
        assert!(exc.excluded.is_empty());
        assert_eq!(out.edges, clean.edges);
        assert_eq!(out.weight, clean.weight);
        assert_eq!(out.mst_weight, clean.mst_weight);
        assert_eq!(out.augmentation_weight, clean.augmentation_weight);
        assert_eq!(out.greedy_rounds, clean.greedy_rounds);
        assert_eq!(out.total_rounds, clean.total_rounds + exc.extra_rounds);
        assert_eq!(out.degraded, Some(exc.outcome()));
    }

    /// A graph without nodes has the empty 2-ECSS, under a fault plan
    /// too, in debug and release builds alike.
    #[test]
    fn degraded_two_ecss_on_an_empty_graph_has_no_edges() {
        use lcs_congest::FaultPlan;
        let wg = WeightedGraph::from_weighted_edges(0, &[]).unwrap();
        let cfg = MstConfig {
            faults: Some(FaultPlan::drops(0.1, 3)),
            ..MstConfig::default()
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        assert!(out.edges.is_empty());
        assert_eq!(out.weight, 0);
        let deg = out.degraded.expect("plan reports degradation");
        assert!(deg.excluded_nodes.is_empty());
    }

    #[test]
    fn degraded_two_ecss_succeeds_when_survivors_are_two_edge_connected() {
        use lcs_congest::{Crash, FaultPlan};
        // cycle(6) plus a pendant node 6: NOT two-edge-connected (the
        // pendant edge is a bridge), so the plain run refuses.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])
            .unwrap();
        let wg = WeightedGraph::new(g, vec![1; 7]).unwrap();
        let cfg_plain = MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        };
        assert_eq!(
            two_ecss(&wg, &cfg_plain).unwrap_err(),
            TwoEcssError::NotTwoEdgeConnected
        );
        // Crash the pendant: the survivors are exactly the cycle, which
        // IS two-edge-connected — graceful degradation succeeds where
        // the full graph could not.
        let plan = FaultPlan {
            crashes: vec![Crash {
                node: 6,
                at_round: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let cfg = MstConfig {
            faults: Some(plan),
            ..cfg_plain.clone()
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        assert_eq!(out.edges.len(), 6, "keeps the whole surviving cycle");
        assert_eq!(out.weight, 6);
        let deg = out.degraded.expect("plan reports degradation");
        assert_eq!(deg.excluded_nodes, vec![6]);
    }

    #[test]
    fn weight_is_within_log_factor_of_mst_lower_bound() {
        // w(2-ECSS optimum) >= w(MST); our output is MST + augmentation
        // where the augmentation is also bounded by opt * O(log n).
        let g = complete(12);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let wg = WeightedGraph::with_random_weights(g, 50, &mut rng);
        let cfg = MstConfig {
            diameter: Some(3),
            ..MstConfig::default()
        };
        let out = two_ecss(&wg, &cfg).unwrap();
        let lg = (12f64).ln();
        assert!(
            (out.weight as f64) <= 2.0 * lg * out.mst_weight as f64 + out.mst_weight as f64,
            "weight {} vs mst {}",
            out.weight,
            out.mst_weight
        );
    }
}
