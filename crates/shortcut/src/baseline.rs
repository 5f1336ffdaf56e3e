//! Baseline shortcut constructions the paper's result is measured
//! against.
//!
//! * [`trivial_shortcuts`] — `H_i = ∅`: dilation equals the part
//!   diameter, congestion ≤ 1. The "do nothing" lower anchor.
//! * [`global_tree_shortcuts`] — the folklore `O(D + √n)` construction
//!   Ghaffari–Haeupler start from: parts larger than a threshold
//!   (default `√n`) receive the entire global BFS tree; small parts
//!   receive nothing. Congestion = number of large parts (≤ `n/√n = √n`),
//!   dilation ≤ max(2·tree depth, small-part diameter) = `O(D + √n)`.
//! * [`kitamura_style_shortcuts`] — sampling constructions specialized
//!   to `D ∈ {3, 4}` in the spirit of Kitamura et al. (DISC 2019), who
//!   matched the `Ω̃(n^{1/4})` / `Ω̃(n^{1/3})` lower bounds of Lotker et
//!   al. Their code is not public; as the paper notes its own D = 3 case
//!   "is similar to" Kitamura's, we instantiate the same sampling
//!   template with a *fixed small repetition count* (one for D = 3, two
//!   for D = 4) rather than the full `D`-repetition scheme — see the
//!   README's "Substitutions".

use crate::partition::Partition;
use crate::shortcut::ShortcutSet;
use lcs_graph::{bfs, BfsOptions, EdgeId, Graph, NodeId};
use rand::Rng;

/// `H_i = ∅` for every part.
pub fn trivial_shortcuts(partition: &Partition) -> ShortcutSet {
    ShortcutSet::empty(partition.num_parts())
}

/// The folklore `O(D + √n)` construction: every part whose size is at
/// least `threshold` (default `⌈√n⌉`, pass `None`) receives the whole
/// BFS tree of `G` rooted at `root`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn global_tree_shortcuts(
    graph: &Graph,
    partition: &Partition,
    root: NodeId,
    threshold: Option<usize>,
) -> ShortcutSet {
    let threshold = threshold.unwrap_or_else(|| (graph.n() as f64).sqrt().ceil() as usize);
    let r = bfs(graph, &[root], &BfsOptions::default());
    let mut tree_edges: Vec<EdgeId> = Vec::with_capacity(graph.n().saturating_sub(1));
    for v in graph.nodes() {
        if let Some(p) = r.parent[v as usize] {
            tree_edges.push(graph.edge_between(p, v).expect("tree edge exists"));
        }
    }
    tree_edges.sort_unstable();
    let per_part = (0..partition.num_parts())
        .map(|i| {
            if partition.part(i).len() >= threshold {
                tree_edges.clone()
            } else {
                Vec::new()
            }
        })
        .collect();
    ShortcutSet::from_edge_lists(per_part)
}

/// Kitamura-style sampling shortcuts for `D ∈ {3, 4}`.
///
/// Every node outside `S_i` samples each incident edge into `H_i` with
/// probability `min(1, c·log n · n^(−1/(D−1)))`, repeated once for
/// `D = 3` and twice for `D = 4`; every node inside `S_i` contributes
/// all incident edges (Step 1 of the shared template). Shortcuts are
/// built only for parts whose leader-radius exceeds
/// `k_D = n^((D−2)/(2D−2))`.
///
/// # Panics
///
/// Panics if `d` is not 3 or 4.
pub fn kitamura_style_shortcuts<R: Rng>(
    graph: &Graph,
    partition: &Partition,
    d: u32,
    prob_constant: f64,
    rng: &mut R,
) -> ShortcutSet {
    assert!(
        d == 3 || d == 4,
        "kitamura baseline is specialized to D in {{3,4}}"
    );
    let n = graph.n().max(2) as f64;
    let p = (prob_constant * n.ln() * n.powf(-1.0 / (d as f64 - 1.0))).min(1.0);
    let reps = if d == 3 { 1 } else { 2 };
    let k_d = n.powf((d as f64 - 2.0) / (2.0 * d as f64 - 2.0));
    let mut per_part: Vec<Vec<EdgeId>> = Vec::with_capacity(partition.num_parts());
    for i in 0..partition.num_parts() {
        if (partition.leader_radius(graph, i) as f64) <= k_d {
            per_part.push(Vec::new());
            continue;
        }
        let mut edges = Vec::new();
        // Step 1: all edges incident to the part.
        for &v in partition.part(i) {
            for (_, e) in graph.neighbors_with_edges(v) {
                edges.push(e);
            }
        }
        // Step 2 (reps repetitions): outside nodes sample their arcs.
        for _rep in 0..reps {
            for u in graph.nodes() {
                if partition.part_of(u) == Some(i as u32) {
                    continue;
                }
                for (_, e) in graph.neighbors_with_edges(u) {
                    if rng.gen_bool(p) {
                        edges.push(e);
                    }
                }
            }
        }
        per_part.push(edges);
    }
    ShortcutSet::from_edge_lists(per_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut::{measure_quality, DilationMode};
    use lcs_graph::{HighwayGraph, HighwayParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn highway(d: u32, paths: usize, len: usize) -> (HighwayGraph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: paths,
            path_len: len,
            diameter: d,
        })
        .unwrap();
        let p = Partition::new(hw.graph(), hw.path_parts()).unwrap();
        (hw, p)
    }

    #[test]
    fn trivial_has_unit_congestion_and_path_dilation() {
        let (hw, p) = highway(4, 3, 16);
        let s = trivial_shortcuts(&p);
        let r = measure_quality(hw.graph(), &p, &s, DilationMode::Exact);
        assert_eq!(r.quality.congestion, 1);
        assert_eq!(r.quality.dilation, 15);
    }

    #[test]
    fn global_tree_gives_od_dilation_for_large_parts() {
        let (hw, p) = highway(4, 3, 25);
        let g = hw.graph();
        // threshold below part size so every path part is "large".
        let s = global_tree_shortcuts(g, &p, 0, Some(10));
        let r = measure_quality(g, &p, &s, DilationMode::Exact);
        // Dilation through the global tree is at most 2 * depth <= 2D.
        assert!(
            r.quality.dilation <= 2 * 4 + 2,
            "dilation {} too large",
            r.quality.dilation
        );
        // Tree edges are shared by all three parts.
        assert_eq!(r.quality.congestion, 3);
    }

    #[test]
    fn global_tree_skips_small_parts() {
        let (hw, p) = highway(4, 2, 16);
        let s = global_tree_shortcuts(hw.graph(), &p, 0, Some(1000));
        assert_eq!(s.total_edges(), 0);
    }

    #[test]
    fn kitamura_d3_improves_over_trivial() {
        let (hw, p) = highway(3, 4, 40);
        let g = hw.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let s = kitamura_style_shortcuts(g, &p, 3, 2.0, &mut rng);
        let r = measure_quality(g, &p, &s, DilationMode::Exact);
        let trivial = measure_quality(g, &p, &trivial_shortcuts(&p), DilationMode::Exact);
        assert!(
            r.quality.dilation < trivial.quality.dilation,
            "sampling should shortcut the paths: {} vs {}",
            r.quality.dilation,
            trivial.quality.dilation
        );
    }

    #[test]
    fn kitamura_rejects_other_diameters() {
        let (hw, p) = highway(5, 2, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kitamura_style_shortcuts(hw.graph(), &p, 5, 1.0, &mut rng)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn kitamura_skips_low_radius_parts() {
        // Parts with radius below k_D get no shortcut edges.
        let (hw, p) = highway(3, 2, 8);
        // n small => k_3 ~ n^(1/4); radius 7 still above? Use the
        // skip-branch by making path short relative to k_3.
        let g = hw.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let s = kitamura_style_shortcuts(g, &p, 3, 2.0, &mut rng);
        let k3 = (g.n() as f64).powf(0.25);
        for i in 0..p.num_parts() {
            if (p.leader_radius(g, i) as f64) <= k3 {
                assert!(s.edges(i).is_empty());
            }
        }
    }
}
