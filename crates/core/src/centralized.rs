//! The centralized shortcut construction (§2 of the paper).
//!
//! For every *large* part `S_i`:
//!
//! 1. **Step 1** — every node of `S_i` contributes all incident edges to
//!    `H_i`;
//! 2. **Step 2** — every node `u ∉ S_i` samples each incident directed
//!    edge into `H_i` with probability `p`, independently `D` times.
//!
//! The raw `H_i` is what the dilation analysis (§3) reasons about; the
//! *output* a CONGEST algorithm can actually use is the depth-limited
//! BFS tree of `G[S_i] ∪ H_i` rooted at the leader, which
//! [`prune_to_trees`] extracts (this mirrors the paper's distributed
//! implementation, whose final knowledge is exactly those truncated BFS
//! trees).
//!
//! Sampling is keyed by the part **leader id**, so the distributed
//! implementation — which discovers parts in a different order — draws
//! the *same* coins and produces the same `H_i` (differential tests rely
//! on this). The probability is the paper's `p` with `D` repetitions
//! ([`KpParams`]); the `kogan_parter` backend runs this function.

use crate::params::KpParams;
use crate::sampling::SampleOracle;
use lcs_graph::{bfs, BfsOptions, EdgeId, Graph, UNREACHABLE};
use lcs_shortcut::{Partition, ShortcutSet};

/// Output of the centralized construction.
#[derive(Debug, Clone)]
pub struct CentralizedShortcuts {
    /// The raw sampled shortcut sets (Step 1 ∪ Step 2).
    pub shortcuts: ShortcutSet,
    /// Which parts were classified large.
    pub is_large: Vec<bool>,
    /// The parameters used.
    pub params: KpParams,
}

/// Classifies each part as large/small by the paper's distributed test:
/// a part is large when the depth-`k_D` BFS from its leader does **not**
/// span it (radius > `k_D`).
pub fn classify_large(graph: &Graph, partition: &Partition, k_ceil: u32) -> Vec<bool> {
    (0..partition.num_parts())
        .map(|i| partition.leader_radius(graph, i) > k_ceil)
        .collect()
}

/// Runs the centralized construction.
///
/// Large parts are keyed for sampling by their leader id; an arc joins
/// `H_i` when any of its `D` repetitions comes up
/// ([`SampleOracle::sampled`]). Small parts get `H_i = ∅`.
pub fn centralized_shortcuts(
    graph: &Graph,
    partition: &Partition,
    params: KpParams,
    seed: u64,
) -> CentralizedShortcuts {
    let oracle = SampleOracle::new(seed, params.p, params.reps);
    let is_large = classify_large(graph, partition, params.k_ceil);
    let large_parts: Vec<usize> = (0..partition.num_parts())
        .filter(|&i| is_large[i])
        .collect();
    let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.num_parts()];

    // Step 1: all edges incident to each large part.
    for &i in &large_parts {
        for &v in partition.part(i) {
            for (_, e) in graph.neighbors_with_edges(v) {
                per_part[i].push(e);
            }
        }
    }

    // Step 2.
    for &i in &large_parts {
        let leader = partition.leader(i);
        for u in graph.nodes() {
            if partition.part_of(u) == Some(i as u32) {
                continue;
            }
            for (v, e) in graph.neighbors_with_edges(u) {
                if oracle.sampled(u, v, leader) {
                    per_part[i].push(e);
                }
            }
        }
    }

    CentralizedShortcuts {
        shortcuts: ShortcutSet::from_edge_lists(per_part),
        is_large,
        params,
    }
}

/// Result of pruning raw shortcuts to depth-limited BFS trees.
#[derive(Debug, Clone)]
pub struct PrunedShortcuts {
    /// Per-part tree edge sets (empty for small parts).
    pub shortcuts: ShortcutSet,
    /// Whether each part's truncated tree spans the part (should hold
    /// w.h.p. when the depth limit respects Theorem 3.1).
    pub spans: Vec<bool>,
    /// Depth of each part's tree.
    pub depths: Vec<u32>,
}

/// Extracts, for each part with a nonempty `H_i`, the BFS tree of
/// `G[S_i] ∪ H_i` rooted at the leader, truncated at `depth_limit` —
/// the shape the distributed algorithm actually outputs.
pub fn prune_to_trees(
    graph: &Graph,
    partition: &Partition,
    raw: &ShortcutSet,
    depth_limit: u32,
) -> PrunedShortcuts {
    let mut per_part: Vec<Vec<EdgeId>> = Vec::with_capacity(partition.num_parts());
    let mut spans = Vec::with_capacity(partition.num_parts());
    let mut depths = Vec::with_capacity(partition.num_parts());
    for i in 0..partition.num_parts() {
        if raw.edges(i).is_empty() {
            per_part.push(Vec::new());
            // Small part: its own induced subgraph is its "tree".
            spans.push(true);
            depths.push(partition.leader_radius(graph, i));
            continue;
        }
        let sub = raw.augmented_subgraph(graph, partition, i);
        let root = sub
            .local_of(partition.leader(i))
            .expect("leader in own subgraph");
        let r = bfs(
            sub.local(),
            &[root],
            &BfsOptions {
                max_depth: depth_limit,
                node_filter: None,
            },
        );
        let mut edges = Vec::new();
        let mut depth = 0;
        for lv in 0..sub.n() as u32 {
            if r.dist[lv as usize] == UNREACHABLE {
                continue;
            }
            depth = depth.max(r.dist[lv as usize]);
            if let Some(lp) = r.parent[lv as usize] {
                let a = sub.parent_of(lv);
                let b = sub.parent_of(lp);
                edges.push(graph.edge_between(a, b).expect("tree edge"));
            }
        }
        let span = partition.part(i).iter().all(|&v| {
            sub.local_of(v)
                .is_some_and(|lv| r.dist[lv as usize] != UNREACHABLE)
        });
        per_part.push(edges);
        spans.push(span);
        depths.push(depth);
    }
    PrunedShortcuts {
        shortcuts: ShortcutSet::from_edge_lists(per_part),
        spans,
        depths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{HighwayGraph, HighwayParams};
    use lcs_shortcut::{measure_quality, DilationMode};

    fn fixture(d: u32, paths: usize, len: usize) -> (Graph, Partition, KpParams) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: paths,
            path_len: len,
            diameter: d,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), d).unwrap();
        (g, p, params)
    }

    #[test]
    fn small_parts_get_no_shortcut() {
        let (g, p, params) = fixture(4, 3, 30);
        // With a huge k threshold, everything is small.
        let mut fake = params;
        fake.k_ceil = 1000;
        let out = centralized_shortcuts(&g, &p, fake, 1);
        assert!(out.is_large.iter().all(|&l| !l));
        assert_eq!(out.shortcuts.total_edges(), 0);
    }

    #[test]
    fn step1_edges_present_for_large_parts() {
        let (g, p, params) = fixture(4, 2, 30);
        let out = centralized_shortcuts(&g, &p, params, 2);
        assert!(out.is_large.iter().all(|&l| l), "long paths are large");
        // Every edge incident to part 0 is in H_0.
        for &v in p.part(0) {
            for (_, e) in g.neighbors_with_edges(v) {
                assert!(out.shortcuts.edges(0).contains(&e));
            }
        }
    }

    #[test]
    fn sampled_construction_meets_bounds_on_highway() {
        let (g, p, params) = fixture(4, 4, 40);
        let out = centralized_shortcuts(&g, &p, params, 3);
        let report = measure_quality(&g, &p, &out.shortcuts, DilationMode::Exact);
        assert!(
            (report.quality.congestion as u64) <= params.congestion_bound(),
            "congestion {} vs bound {}",
            report.quality.congestion,
            params.congestion_bound()
        );
        assert!(
            (report.quality.dilation as u64) <= params.dilation_bound(),
            "dilation {} vs bound {}",
            report.quality.dilation,
            params.dilation_bound()
        );
        // And the shortcuts genuinely beat the trivial baseline.
        let trivial = measure_quality(
            &g,
            &p,
            &lcs_shortcut::trivial_shortcuts(&p),
            DilationMode::Exact,
        );
        assert!(report.quality.dilation < trivial.quality.dilation);
    }

    #[test]
    fn pruned_trees_span_and_respect_depth() {
        let (g, p, params) = fixture(4, 4, 40);
        let out = centralized_shortcuts(&g, &p, params, 7);
        let pruned = prune_to_trees(&g, &p, &out.shortcuts, params.depth_limit());
        assert!(pruned.spans.iter().all(|&s| s), "trees must span parts");
        assert!(pruned.depths.iter().all(|&d| d <= params.depth_limit()));
        // Pruned quality: dilation within 2*depth_limit; congestion no
        // worse than raw.
        let raw_q = measure_quality(&g, &p, &out.shortcuts, DilationMode::Exact).quality;
        let pruned_q = measure_quality(&g, &p, &pruned.shortcuts, DilationMode::Exact).quality;
        assert!(pruned_q.congestion <= raw_q.congestion);
        assert!((pruned_q.dilation as u64) <= 2 * params.depth_limit() as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, p, params) = fixture(3, 3, 30);
        let a = centralized_shortcuts(&g, &p, params, 11);
        let b = centralized_shortcuts(&g, &p, params, 11);
        assert_eq!(a.shortcuts, b.shortcuts);
        let c = centralized_shortcuts(&g, &p, params, 12);
        assert_ne!(a.shortcuts, c.shortcuts, "different seed, different coins");
    }
}
