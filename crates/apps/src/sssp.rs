//! Shortcut-accelerated single-source shortest paths (demonstration of
//! Corollary 4.2's mechanism).
//!
//! On a weighted constant-diameter graph, plain distributed Bellman–Ford
//! needs as many rounds as the shortest-path **hop** diameter, which can
//! be `Θ(n)` even when the unweighted diameter is `O(1)`. The paper's
//! Corollary 4.2 plugs the shortcuts into Haeupler–Li's machinery; the
//! full hopset construction is out of scope (see the README's
//! "Substitutions"). What we build instead isolates the primitive the
//! corollary relies on: interleaving Bellman–Ford edge relaxations with
//! **partwise tree relaxations** — each part tree broadcasts
//! `A_i = min_{v∈S_i}(dist(v) + wdepth_i(v))` and every member updates
//! `dist(u) ← min(dist(u), A_i + wdepth_i(u))`, a valid distance bound
//! realized along tree paths.
//!
//! The result is an *upper bound* on true distances whose stretch
//! depends on the weight of the tree detours. The `claims` bench (its
//! E11 rows) holds the estimates to Dijkstra from above, the fixpoint to
//! Dijkstra exactly and the iteration count to Bellman–Ford's rounds,
//! and reports the realized stretch.

use lcs_congest::{AggOp, FaultPlan, Session, SimConfig, SimError};
use lcs_core::{detect_and_excise, DegradedOutcome};
use lcs_graph::{dijkstra, NodeId, WeightedGraph, W_UNREACHABLE};
use lcs_shortcut::{AggregationSetup, PartPaths, Partition, ShortcutSet};
use std::convert::Infallible;

/// Result of the SSSP computation.
#[derive(Debug, Clone)]
pub struct SsspOutcome {
    /// Distance upper bounds per node.
    pub dist: Vec<u64>,
    /// Outer iterations run: until the fixpoint, or the cap.
    pub iterations: u32,
    /// Rounds: one per Bellman–Ford sweep plus the rounds the engine
    /// ran for each tree relaxation (plus detection under a fault
    /// plan).
    pub total_rounds: u64,
    /// Messages the engine exchanged in the tree relaxations (plus, under
    /// a fault plan, the detection phases).
    pub messages: u64,
    /// The rounds of each tree relaxation's aggregation phase, one per
    /// iteration.
    pub phase_rounds: Vec<u64>,
    /// Max multiplicative stretch vs. exact distances.
    pub max_stretch: f64,
    /// Mean multiplicative stretch over reachable nodes.
    pub mean_stretch: f64,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](SimConfig::faults): what graceful degradation
    /// excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

/// Plain distributed Bellman–Ford baseline: exact distances; the round
/// count is the number of synchronous relaxation sweeps until fixpoint
/// (= shortest-path hop radius from the source).
pub fn bellman_ford_rounds(wg: &WeightedGraph, source: NodeId) -> (Vec<u64>, u64) {
    let g = wg.graph();
    let mut dist = vec![W_UNREACHABLE; g.n()];
    dist[source as usize] = 0;
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut changed = false;
        let mut next = dist.clone();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let w = wg.weight(e);
            if dist[u as usize] != W_UNREACHABLE && dist[u as usize] + w < next[v as usize] {
                next[v as usize] = dist[u as usize] + w;
                changed = true;
            }
            if dist[v as usize] != W_UNREACHABLE && dist[v as usize] + w < next[u as usize] {
                next[u as usize] = dist[v as usize] + w;
                changed = true;
            }
        }
        dist = next;
        if !changed {
            break;
        }
    }
    (dist, rounds)
}

/// Weighted depth of every node in its own part's aggregation tree:
/// `depth[v]` is the tree-path weight from the root of part `i`'s tree
/// down to `v ∈ S_i`, and [`W_UNREACHABLE`] where no part tree spans
/// `v` (a node in no part, or a member its part's tree misses). The
/// tree relaxation reads a tree only at its own part's members, and a
/// node is in at most one part, so this one `n`-entry table serves
/// every tree, however many of them a shortcut node sits in.
///
/// Depths add up saturating: one too heavy for `u64` reads as
/// [`W_UNREACHABLE`], which no relaxation ever writes. A member whose
/// path to the root is broken — a parent edge missing from the graph,
/// or a parent cycle, which only a hand-built `setup` can hold — reads
/// as [`W_UNREACHABLE`] too.
///
/// This is [`PartPaths::depths`] on a view derived for the one call; a
/// [`ShortcutIndex`](lcs_shortcut::ShortcutIndex) derives its view once
/// and every customization reuses it.
pub fn part_tree_depths(
    wg: &WeightedGraph,
    partition: &Partition,
    setup: &AggregationSetup,
) -> Vec<u64> {
    PartPaths::new(wg.graph(), partition, setup).depths(wg.weights())
}

/// The interleaved relaxation behind every SSSP entry point. Each
/// iteration runs one Bellman–Ford sweep, then one partwise tree
/// relaxation: `part_minima(dist, minima)` sets `minima[i] = A_i = min
/// over v ∈ S_i of dist(v) + depth(v)`, and every member `u` of part `i`
/// takes `min(dist(u), A_i + depth(u))`. All minima may be taken before
/// any update, because part `i`'s updates touch only its own members,
/// which no other part's minimum reads. Sums saturate, so a candidate
/// too heavy for `u64` is [`W_UNREACHABLE`] and never written. At most
/// `max_iterations` iterations run: a cap of 0 returns the source-only
/// distances.
///
/// Returns `(dist, iterations)`.
fn relax<E>(
    wg: &WeightedGraph,
    partition: &Partition,
    depth: &[u64],
    source: NodeId,
    max_iterations: u32,
    mut part_minima: impl FnMut(&[u64], &mut [u64]) -> Result<(), E>,
) -> Result<(Vec<u64>, u32), E> {
    let g = wg.graph();
    let mut dist = vec![W_UNREACHABLE; g.n()];
    dist[source as usize] = 0;
    let mut snapshot = dist.clone();
    let mut minima = vec![W_UNREACHABLE; partition.num_parts()];
    let mut iterations = 0u32;
    while iterations < max_iterations {
        iterations += 1;
        let mut changed = false;
        // (a) one Bellman-Ford sweep.
        snapshot.copy_from_slice(&dist);
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let (u, v) = (u as usize, v as usize);
            let w = wg.weight(e);
            let via_u = snapshot[u].saturating_add(w);
            if via_u < dist[v] {
                dist[v] = via_u;
                changed = true;
            }
            let via_v = snapshot[v].saturating_add(w);
            if via_v < dist[u] {
                dist[u] = via_v;
                changed = true;
            }
        }
        // (b) partwise tree relaxation: one aggregation per iteration.
        part_minima(&dist, &mut minima)?;
        for (i, &a) in minima.iter().enumerate() {
            for &v in partition.part(i) {
                let cand = a.saturating_add(depth[v as usize]);
                if cand < dist[v as usize] {
                    dist[v as usize] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok((dist, iterations))
}

/// [`shortcut_sssp`]'s relaxation on a prebuilt `depth` table (see
/// [`part_tree_depths`]), with each part's minimum folded centrally
/// over its members. A member the part's tree misses has depth
/// [`W_UNREACHABLE`] and the tree's other nodes fold the identity, so
/// the fold equals the tree aggregation [`shortcut_sssp`] runs on the
/// engine. Returns `(dist, iterations)`.
///
/// The index-served SSSP calls this on a customization's table, so its
/// distances and iteration count are byte-identical to
/// [`shortcut_sssp`]'s.
///
/// # Panics
///
/// Panics if `source` is not a node of `wg`.
pub fn relax_partwise(
    wg: &WeightedGraph,
    partition: &Partition,
    depth: &[u64],
    source: NodeId,
    max_iterations: u32,
) -> (Vec<u64>, u32) {
    let minima = |dist: &[u64], minima: &mut [u64]| {
        for (i, a) in minima.iter_mut().enumerate() {
            *a = partition
                .part(i)
                .iter()
                .map(|&v| dist[v as usize].saturating_add(depth[v as usize]))
                .min()
                .unwrap_or(W_UNREACHABLE);
        }
        Ok::<_, Infallible>(())
    };
    let Ok(relaxed) = relax(wg, partition, depth, source, max_iterations, minima);
    relaxed
}

/// Max and mean multiplicative stretch of `dist` against Dijkstra from
/// `source`, over the nodes at a positive finite distance.
fn stretch(wg: &WeightedGraph, source: NodeId, dist: &[u64]) -> (f64, f64) {
    let exact = dijkstra(wg, source);
    let mut max_stretch = 1.0f64;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for (&d, &x) in dist.iter().zip(&exact) {
        if x == W_UNREACHABLE || x == 0 {
            continue;
        }
        debug_assert!(d >= x, "estimates are upper bounds");
        let s = d as f64 / x as f64;
        max_stretch = max_stretch.max(s);
        sum += s;
        count += 1;
    }
    let mean = if count == 0 { 1.0 } else { sum / count as f64 };
    (max_stretch, mean)
}

/// Runs the interleaved relaxation with every partwise tree relaxation
/// executed **through the CONGEST engine**: one [`Session`] hosts every
/// iteration's Min aggregation over the part trees (the paper's
/// partwise-aggregation primitive, message for message). Each
/// Bellman–Ford sweep is charged one round. `max_iterations` caps the
/// outer loop (pass `n` for guaranteed convergence to the fixpoint of
/// the combined relaxation).
///
/// With a [`FaultPlan`](SimConfig::faults) attached, crash-stopped
/// nodes are detected and excised first (see
/// [`lcs_core::degrade`]) and the relaxation runs on the surviving
/// subgraph over its part *fragments*; excised nodes report
/// [`W_UNREACHABLE`] and the outcome carries a [`DegradedOutcome`].
///
/// # Errors
///
/// Propagates engine errors from the aggregation phases;
/// [`SimError::FaultConfig`] when the detection root (node 0) or the
/// SSSP source crashes permanently.
///
/// # Panics
///
/// Panics if `source` is not a node of `wg`.
pub fn shortcut_sssp(
    wg: &WeightedGraph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    source: NodeId,
    max_iterations: u32,
    cfg: &SimConfig,
) -> Result<SsspOutcome, SimError> {
    if let Some(plan) = &cfg.faults {
        return degraded_sssp(wg, partition, shortcuts, source, max_iterations, cfg, plan);
    }
    let g = wg.graph();
    let setup = AggregationSetup::build(g, partition, shortcuts);
    let depth = part_tree_depths(wg, partition, &setup);
    let mut session = Session::new(g, cfg.clone());
    // Every part's minimum by one convergecast + broadcast over all
    // trees at once, through the engine.
    let minima = |dist: &[u64], minima: &mut [u64]| {
        let value = |v: NodeId, part: usize| -> u64 {
            if partition.part_of(v) == Some(part as u32) {
                dist[v as usize].saturating_add(depth[v as usize])
            } else {
                AggOp::Min.identity()
            }
        };
        let (roots, _) = setup.aggregate_in_session(&mut session, AggOp::Min, &value, true)?;
        for (a, root) in minima.iter_mut().zip(roots) {
            *a = root.unwrap_or(W_UNREACHABLE);
        }
        Ok::<_, SimError>(())
    };
    let (dist, iterations) = relax(wg, partition, &depth, source, max_iterations, minima)?;
    let (max_stretch, mean_stretch) = stretch(wg, source, &dist);
    let phase_rounds: Vec<u64> = session.phases().iter().map(|p| p.rounds).collect();
    Ok(SsspOutcome {
        dist,
        iterations,
        total_rounds: u64::from(iterations) + phase_rounds.iter().sum::<u64>(),
        messages: session.stats().messages,
        phase_rounds,
        max_stretch,
        mean_stretch,
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network,
/// excise the dead, and run the interleaved relaxation on the surviving
/// subgraph. Parts are split into their surviving fragments and the
/// shortcut set is restricted to surviving edges; detection rounds are
/// charged on top (`extra_rounds`). Distances of excised nodes are
/// [`W_UNREACHABLE`]; the stretch statistics compare against Dijkstra
/// **on the survivors** — the honest reference once the dead are gone.
#[allow(clippy::too_many_arguments)]
fn degraded_sssp(
    wg: &WeightedGraph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    source: NodeId,
    max_iterations: u32,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> Result<SsspOutcome, SimError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.seed, cfg.shards)?;
    let inner_cfg = SimConfig {
        faults: None,
        ..cfg.clone()
    };

    if exc.new_id[source as usize] == u32::MAX {
        return Err(SimError::FaultConfig {
            reason: format!(
                "SSSP source {source} was excised (crashed or disconnected from the \
                 detection root) — every distance would be unreachable"
            ),
        });
    }

    let sub_wg = exc.induced_weighted(wg);
    let (sub_partition, sub_to_orig) = exc.split_partition(sub_wg.graph(), partition);
    let sub_shortcuts = exc.restrict_shortcuts(g, sub_wg.graph(), shortcuts, &sub_to_orig);
    let sub_source = exc.new_id[source as usize];
    let sub = shortcut_sssp(
        &sub_wg,
        &sub_partition,
        &sub_shortcuts,
        sub_source,
        max_iterations,
        &inner_cfg,
    )?;

    let mut dist = vec![W_UNREACHABLE; g.n()];
    for (i, &v) in exc.survivors.iter().enumerate() {
        dist[v as usize] = sub.dist[i];
    }
    Ok(SsspOutcome {
        dist,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        messages: sub.messages + exc.messages,
        degraded: Some(exc.outcome()),
        ..sub
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::{centralized_shortcuts, prune_to_trees, KpParams};
    use lcs_graph::{HighwayGraph, HighwayParams};

    /// Highway instance with light path edges and heavy highway edges:
    /// true shortest paths hug the paths (many hops).
    fn fixture() -> (WeightedGraph, Partition, ShortcutSet) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 40,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let weights: Vec<u64> = g
            .edge_ids()
            .map(|e| {
                let (u, v) = g.edge_endpoints(e);
                if u < hw.highway_first() && v < hw.highway_first() {
                    1 // path edge
                } else {
                    50 // highway edge
                }
            })
            .collect();
        let wg = WeightedGraph::new(g.clone(), weights).unwrap();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), 4).unwrap();
        let raw = centralized_shortcuts(&g, &p, params, 3);
        let pruned = prune_to_trees(&g, &p, &raw.shortcuts, params.depth_limit());
        (wg, p, pruned.shortcuts)
    }

    /// [`shortcut_sssp`] fault-free, on the default engine.
    fn run(
        wg: &WeightedGraph,
        p: &Partition,
        s: &ShortcutSet,
        source: NodeId,
        max_iterations: u32,
    ) -> SsspOutcome {
        shortcut_sssp(wg, p, s, source, max_iterations, &SimConfig::default()).unwrap()
    }

    #[test]
    fn estimates_are_sound_upper_bounds() {
        let (wg, p, s) = fixture();
        let out = run(&wg, &p, &s, 0, 64);
        let exact = dijkstra(&wg, 0);
        for (v, &exact_d) in exact.iter().enumerate() {
            if exact_d != W_UNREACHABLE {
                assert!(out.dist[v] >= exact_d, "node {v}");
                assert_ne!(out.dist[v], W_UNREACHABLE, "node {v} must be reached");
            }
        }
        assert!(out.max_stretch >= 1.0);
    }

    #[test]
    fn anytime_stretch_beats_truncated_bellman_ford() {
        let (wg, p, s) = fixture();
        let (bf_dist, bf_rounds) = bellman_ford_rounds(&wg, 0);
        // Bellman-Ford is exact but needs hop-diameter sweeps.
        let exact = dijkstra(&wg, 0);
        assert_eq!(bf_dist, exact);
        assert!(bf_rounds > 8, "workload must have long hop chains");
        // A small budget (below the hop diameter) of shortcut iterations
        // yields *finite* estimates for every node — the tree relaxation
        // floods whole parts at once — while plain Bellman-Ford at the
        // same budget still misses nodes and is never better pointwise.
        let budget = 3;
        let accel = run(&wg, &p, &s, 0, budget);
        assert!(
            accel.dist.iter().all(|&d| d != W_UNREACHABLE),
            "every node must have a finite estimate at budget {budget}"
        );
        let truncated = lcs_graph::bounded_hop_distances(&wg, 0, budget as usize);
        let mut strictly_better = false;
        for (v, &trunc_d) in truncated.iter().enumerate() {
            assert!(accel.dist[v] <= trunc_d, "node {v}");
            strictly_better |= accel.dist[v] < trunc_d;
        }
        assert!(strictly_better, "tree relaxation must help somewhere");
        // And exactness arrives as iterations continue.
        let exact_run = run(&wg, &p, &s, 0, 4096);
        assert!(
            (exact_run.max_stretch - 1.0).abs() < 1e-9,
            "converges to exact, stretch {}",
            exact_run.max_stretch
        );
    }

    #[test]
    fn converges_to_exact_when_trees_are_paths() {
        // Trivial shortcuts on path parts: tree = the path itself, so
        // the tree relaxation is exact within parts.
        let (wg, p, _) = fixture();
        let trivial = lcs_shortcut::trivial_shortcuts(&p);
        let out = run(&wg, &p, &trivial, 0, 256);
        let exact = dijkstra(&wg, 0);
        assert_eq!(out.dist, exact, "path trees relax exactly");
        assert!((out.max_stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_relaxation_converges_and_measures_messages() {
        let (wg, p, s) = fixture();
        let out = run(&wg, &p, &s, 0, 4096);
        let exact = dijkstra(&wg, 0);
        // Exact once converged.
        assert!(
            (out.max_stretch - 1.0).abs() < 1e-9
                || out.dist.iter().zip(exact.iter()).all(|(&a, &b)| a >= b),
            "sound upper bounds"
        );
        for (v, &e) in exact.iter().enumerate() {
            if e != W_UNREACHABLE {
                assert!(out.dist[v] >= e, "node {v}");
            }
        }
        // The engine actually carried the tree relaxations.
        assert!(out.messages > 0, "simulated mode must exchange messages");
        assert_eq!(
            out.phase_rounds.len() as u32,
            out.iterations,
            "one aggregation phase per iteration"
        );
        // Sharded execution is bit-identical (outcome-level check).
        let sharded = shortcut_sssp(
            &wg,
            &p,
            &s,
            0,
            4096,
            &SimConfig {
                shards: 3,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.dist, out.dist);
        assert_eq!(sharded.messages, out.messages);
        assert_eq!(sharded.phase_rounds, out.phase_rounds);
    }

    #[test]
    fn depth_table_marks_broken_tree_paths_unreachable() {
        // Path 0-1-2-3-4, one part; a hand-built tree in which 1 and 2
        // are each other's parent and 3 hangs off the non-edge {0, 3}.
        let g = lcs_graph::path(5);
        let wg = WeightedGraph::new(g.clone(), vec![1; g.m()]).unwrap();
        let p = Partition::new(&g, vec![vec![0, 1, 2, 3, 4]]).unwrap();
        let setup = AggregationSetup {
            trees: vec![lcs_shortcut::PartTree {
                part: 0,
                root: 0,
                members: vec![
                    (0, None),
                    (1, Some(2)),
                    (2, Some(1)),
                    (3, Some(0)),
                    (4, Some(3)),
                ],
                depth: 2,
            }],
            tree_congestion: 1,
            tree_depth: 2,
        };
        let u = W_UNREACHABLE;
        assert_eq!(part_tree_depths(&wg, &p, &setup), vec![0, u, u, u, u]);
    }

    #[test]
    fn source_distance_is_zero() {
        let (wg, p, s) = fixture();
        let out = run(&wg, &p, &s, 5, 32);
        assert_eq!(out.dist[5], 0);
    }

    #[test]
    fn degraded_sssp_matches_dijkstra_on_survivors() {
        use lcs_congest::Crash;
        let (wg, p, s) = fixture();
        // Byzantine-tier plan: lossy + corrupting links, one permanent
        // crash in the middle of a path part (splitting it into two
        // fragments), one transient crash whose links resync once it
        // recovers.
        let plan = FaultPlan {
            drop_rate: 0.08,
            corrupt_rate: 0.04,
            crashes: vec![
                Crash {
                    node: 20,
                    at_round: 0,
                    recover_at: None,
                },
                Crash {
                    node: 57,
                    at_round: 2,
                    recover_at: Some(30),
                },
            ],
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            faults: Some(plan),
            ..SimConfig::default()
        };
        let out = shortcut_sssp(&wg, &p, &s, 0, 4096, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("fault plan reports degradation");
        assert!(deg.completed);
        assert!(deg.excluded_nodes.contains(&20), "the crash is excised");
        assert!(
            !deg.excluded_nodes.contains(&57),
            "transient crashes recover; the reliable layer absorbs them"
        );
        assert!(deg.extra_rounds > 0, "detection overhead is charged");

        // Differential reference: Dijkstra on the survivors' induced
        // subgraph, built independently here.
        let g = wg.graph();
        let excluded: std::collections::HashSet<NodeId> =
            deg.excluded_nodes.iter().copied().collect();
        let survivors: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|v| !excluded.contains(v))
            .collect();
        let mut new_id = vec![u32::MAX; g.n()];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let sub_edges: Vec<(NodeId, NodeId, u64)> = g
            .edge_ids()
            .filter_map(|e| {
                let (a, b) = g.edge_endpoints(e);
                (new_id[a as usize] != u32::MAX && new_id[b as usize] != u32::MAX)
                    .then(|| (new_id[a as usize], new_id[b as usize], wg.weight(e)))
            })
            .collect();
        let sub_wg = WeightedGraph::from_weighted_edges(survivors.len(), &sub_edges).unwrap();
        let exact = dijkstra(&sub_wg, 0);
        for (i, &v) in survivors.iter().enumerate() {
            assert_eq!(out.dist[v as usize], exact[i], "survivor {v}");
        }
        for &v in &deg.excluded_nodes {
            assert_eq!(out.dist[v as usize], W_UNREACHABLE, "excised {v}");
        }
        assert!(
            (out.max_stretch - 1.0).abs() < 1e-9,
            "converged run is exact on the survivors"
        );
        // Sharded execution of the whole degraded path is bit-identical.
        let sharded = shortcut_sssp(
            &wg,
            &p,
            &s,
            0,
            4096,
            &SimConfig {
                shards: 3,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(sharded.dist, out.dist);
        assert_eq!(sharded.messages, out.messages);
    }

    /// Without permanent crashes the excision is empty and the outcome
    /// is the fault-free run's plus the detection bill, from the root
    /// and from a source deep in a path part.
    #[test]
    fn degraded_sssp_without_permanent_crashes_matches_fault_free() {
        let (wg, p, s) = fixture();
        let plan = FaultPlan {
            drop_rate: 0.10,
            delay_rate: 0.05,
            max_delay: 3,
            corrupt_rate: 0.05,
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            faults: Some(plan.clone()),
            ..SimConfig::default()
        };
        let exc = detect_and_excise(wg.graph(), &plan, cfg.seed, cfg.shards).unwrap();
        assert!(exc.excluded.is_empty());
        for source in [0, 57] {
            let clean = run(&wg, &p, &s, source, 4096);
            let out = shortcut_sssp(&wg, &p, &s, source, 4096, &cfg).unwrap();
            assert_eq!(out.dist, clean.dist, "faults absorbed (source {source})");
            assert_eq!(out.iterations, clean.iterations);
            assert_eq!(out.total_rounds, clean.total_rounds + exc.extra_rounds);
            assert_eq!(out.max_stretch.to_bits(), clean.max_stretch.to_bits());
            assert_eq!(out.mean_stretch.to_bits(), clean.mean_stretch.to_bits());
            assert_eq!(out.messages, clean.messages + exc.messages);
            assert_eq!(out.phase_rounds, clean.phase_rounds);
            assert_eq!(out.degraded, Some(exc.outcome()));
        }
    }

    #[test]
    fn degraded_sssp_rejects_excised_source() {
        use lcs_congest::Crash;
        let (wg, p, s) = fixture();
        let plan = FaultPlan {
            crashes: vec![Crash {
                node: 5,
                at_round: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let err = shortcut_sssp(
            &wg,
            &p,
            &s,
            5,
            32,
            &SimConfig {
                faults: Some(plan),
                ..SimConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::FaultConfig { .. }));
    }
}
