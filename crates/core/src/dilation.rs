//! Empirical dilation certification (Lemma 3.5 and Theorem 3.1).
//!
//! Theorem 3.1's proof shows that for any `s–t` shortest path `P` in
//! `G[S_j]`, w.h.p. one of three events holds in `H = G[S_j] ∪ H_j`:
//! (O1) the first half of `P` shortcuts to length `O(k_D)`, (O2) the
//! second half does, or (O3) the whole pair does; recursing on the
//! unshortcut half then yields `dist_H(s, t) = O(k_D·log n)` with
//! recursion depth `O(log n)`.
//!
//! `dilation_trace` replays that recursion on a concrete augmented
//! subgraph and records which event fired at every level, the realized
//! recursion depth, and any *violations* (levels where none of the three
//! events held within the threshold — the "w.h.p." failure the analysis
//! bounds). [`certify_part`] runs the trace on a part's (approximately)
//! most-distant member pair.

use lcs_graph::{bfs, BfsOptions, EdgeSubgraph, Graph, NodeId, UNREACHABLE};
use lcs_shortcut::{Partition, ShortcutSet};

/// Which Lemma-3.5 event fired at one recursion level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trichotomy {
    /// `dist_H(v_1, v_d) ≤ threshold` — recurse on the second half.
    O1FirstHalf,
    /// `dist_H(v_{d+1}, v_{2d−1}) ≤ threshold` — recurse on the first
    /// half.
    O2SecondHalf,
    /// `dist_H(s, t) ≤ threshold` — done.
    O3Whole,
    /// None of the three held (a w.h.p. failure); the trace falls back
    /// to recursing on both halves.
    Violation,
}

/// Result of replaying the Theorem-3.1 recursion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DilationTrace {
    /// Length of the `s–t` walk assembled from the shortcut pieces.
    pub total_length: u64,
    /// Maximum recursion depth reached.
    pub recursion_depth: u32,
    /// Events in recursion order.
    pub events: Vec<Trichotomy>,
    /// Number of [`Trichotomy::Violation`] events.
    pub violations: u32,
    /// The `O(k_D)` threshold used.
    pub threshold: u32,
}

fn rec(
    sub: &EdgeSubgraph,
    path: &[NodeId],
    threshold: u32,
    depth: u32,
    trace: &mut DilationTrace,
) -> u64 {
    trace.recursion_depth = trace.recursion_depth.max(depth);
    let s = path[0];
    let t = *path.last().expect("non-empty path");
    let d_st = sub.distance(s, t).expect("part members stay connected");
    if d_st as u64 <= threshold as u64 || path.len() <= 2 {
        trace.events.push(Trichotomy::O3Whole);
        return d_st as u64;
    }
    let mid = path.len() / 2;
    let (first, second) = (&path[..mid], &path[mid..]);
    let d1 = sub
        .distance(s, *first.last().expect("non-empty half"))
        .expect("connected");
    if d1 <= threshold {
        trace.events.push(Trichotomy::O1FirstHalf);
        // s ⇝ v_d (shortcut), the path edge (v_d, v_{d+1}), then the
        // recursive walk on the second half.
        return d1 as u64 + 1 + rec(sub, second, threshold, depth + 1, trace);
    }
    let d2 = sub.distance(second[0], t).expect("connected");
    if d2 <= threshold {
        trace.events.push(Trichotomy::O2SecondHalf);
        return rec(sub, first, threshold, depth + 1, trace) + 1 + d2 as u64;
    }
    trace.events.push(Trichotomy::Violation);
    trace.violations += 1;
    // Fallback: both halves plus the connecting hop. `first.last()` and
    // `second[0]` are adjacent on the path.
    rec(sub, first, threshold, depth + 1, trace) + 1 + rec(sub, second, threshold, depth + 1, trace)
}

/// Replays the recursion on `path` (a path in `G[S_j]`, given as its
/// node sequence) inside the augmented subgraph `sub`.
///
/// # Panics
///
/// Panics if `path` is empty or its nodes are missing from `sub`.
fn dilation_trace(sub: &EdgeSubgraph, path: &[NodeId], threshold: u32) -> DilationTrace {
    assert!(!path.is_empty(), "path must be non-empty");
    let mut trace = DilationTrace {
        total_length: 0,
        recursion_depth: 0,
        events: Vec::new(),
        violations: 0,
        threshold,
    };
    trace.total_length = rec(sub, path, threshold, 0, &mut trace);
    trace
}

/// Finds an (approximately) most-distant member pair of part `i` within
/// `G[S_i]` by double sweep, extracts their `G[S_i]`-shortest path, and
/// replays the recursion in the augmented subgraph.
///
/// # Panics
///
/// Panics if `i` is out of range.
pub fn certify_part(
    graph: &Graph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    i: usize,
    threshold: u32,
) -> DilationTrace {
    let member = |v: NodeId| partition.part_of(v) == Some(i as u32);
    // Double sweep inside G[S_i].
    let leader = partition.leader(i);
    let r0 = bfs(
        graph,
        &[leader],
        &BfsOptions {
            max_depth: u32::MAX,
            node_filter: Some(&member),
        },
    );
    let s = partition
        .part(i)
        .iter()
        .copied()
        .filter(|&v| r0.dist[v as usize] != UNREACHABLE)
        .max_by_key(|&v| r0.dist[v as usize])
        .unwrap_or(leader);
    let r1 = bfs(
        graph,
        &[s],
        &BfsOptions {
            max_depth: u32::MAX,
            node_filter: Some(&member),
        },
    );
    let t = partition
        .part(i)
        .iter()
        .copied()
        .filter(|&v| r1.dist[v as usize] != UNREACHABLE)
        .max_by_key(|&v| r1.dist[v as usize])
        .unwrap_or(s);
    let path = r1.path_to(t).expect("parts are connected");
    let sub = shortcuts.augmented_subgraph(graph, partition, i);
    dilation_trace(&sub, &path, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::centralized_shortcuts;
    use crate::params::KpParams;
    use lcs_graph::{HighwayGraph, HighwayParams};
    use lcs_shortcut::trivial_shortcuts;

    fn fixture() -> (Graph, Partition, KpParams) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 4,
            path_len: 48,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), 4).unwrap();
        (g, p, params)
    }

    #[test]
    fn trivial_shortcuts_make_o3_fire_at_path_scale() {
        let (g, p, _) = fixture();
        let s = trivial_shortcuts(&p);
        let sub = s.augmented_subgraph(&g, &p, 0);
        let path: Vec<NodeId> = p.part(0).to_vec(); // the path itself
                                                    // Threshold = path length: O3 fires immediately.
        let t = dilation_trace(&sub, &path, 47);
        assert_eq!(t.events, vec![Trichotomy::O3Whole]);
        assert_eq!(t.total_length, 47);
        assert_eq!(t.recursion_depth, 0);

        // Threshold far below the path: every level violates (no
        // shortcut edges exist at all).
        let t2 = dilation_trace(&sub, &path, 2);
        assert!(t2.violations > 0);
        assert_eq!(t2.total_length, 47, "walking the path is all we can do");
    }

    #[test]
    fn kp_shortcuts_certify_with_few_violations() {
        let (g, p, params) = fixture();
        let out = centralized_shortcuts(&g, &p, params, 21);
        let threshold = params.dilation_bound() as u32;
        for i in 0..p.num_parts() {
            let trace = certify_part(&g, &p, &out.shortcuts, i, threshold);
            assert_eq!(trace.violations, 0, "part {i}: {trace:?}");
            assert!(
                trace.total_length <= params.dilation_bound() * 2,
                "part {i} length {}",
                trace.total_length
            );
        }
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let (g, p, params) = fixture();
        let out = centralized_shortcuts(&g, &p, params, 22);
        // Small threshold forces actual recursion.
        let trace = certify_part(&g, &p, &out.shortcuts, 0, params.k_ceil);
        // Path length 48: depth must stay well below the path length
        // (log-ish); the exact value depends on coins.
        assert!(
            trace.recursion_depth <= 12,
            "depth {} too deep",
            trace.recursion_depth
        );
    }

    #[test]
    fn single_node_path() {
        let (g, p, _) = fixture();
        let s = trivial_shortcuts(&p);
        let sub = s.augmented_subgraph(&g, &p, 0);
        let t = dilation_trace(&sub, &[p.part(0)[0]], 5);
        assert_eq!(t.total_length, 0);
        assert_eq!(t.events, vec![Trichotomy::O3Whole]);
    }
}
