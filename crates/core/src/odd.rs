//! Odd-diameter handling (§3.2 of the paper).
//!
//! For odd `D` the paper subdivides every edge `e = (u, v)` with a dummy
//! node `x_e`, making the diameter even (`D' = 2D`), runs the sampling
//! with per-half probability `√p`, and keeps `e` in `H_i` exactly when
//! *both* halves `(u, x_e)` and `(x_e, v)` were sampled — probability
//! `(√p)² = p` per repetition, so the projected construction has the
//! same edge marginals as the even case while the analysis can walk the
//! even-diameter subdivision.
//!
//! [`odd_shortcuts_subdivision`] is the paper's reduction, literally.
//! The alternative is to run the even-case [`centralized_shortcuts`]
//! with the odd `D` plugged into the formulas, all of which are
//! well-defined for odd `D`; the `claims` bench checks both against the
//! Theorem 1.1 bounds.
//!
//! [`centralized_shortcuts`]: crate::centralized_shortcuts

use crate::centralized::{classify_large, CentralizedShortcuts};
use crate::params::KpParams;
use crate::sampling::SampleOracle;
use lcs_congest::hash::splitmix64;
use lcs_graph::{EdgeId, Graph, NodeId};
use lcs_shortcut::{Partition, ShortcutSet};

/// The subdivision-based odd-`D` construction, projected back to `G`.
///
/// Sampling coins live on edge halves: half `h ∈ {0, 1}` of edge `e` for
/// instance `leader` at repetition `rep` is sampled with probability
/// `√p`; the edge joins `H_i` when both halves succeed in the same
/// repetition. Step 1 (edges incident to the part) is taken with
/// probability 1, as in the even case.
pub fn odd_shortcuts_subdivision(
    graph: &Graph,
    partition: &Partition,
    params: KpParams,
    seed: u64,
) -> CentralizedShortcuts {
    assert!(params.d % 2 == 1, "subdivision strategy targets odd D");
    let sqrt_p = params.p.sqrt();
    let half_oracle = SampleOracle::new(seed ^ 0x0DD0_0DD0, sqrt_p, params.reps);
    let is_large = classify_large(graph, partition, params.k_ceil);
    let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.num_parts()];
    for i in 0..partition.num_parts() {
        if !is_large[i] {
            continue;
        }
        let leader = partition.leader(i);
        // Step 1.
        for &v in partition.part(i) {
            for (_, e) in graph.neighbors_with_edges(v) {
                per_part[i].push(e);
            }
        }
        // Step 2 on halves: key halves by synthetic endpoint ids so the
        // oracle's (sampler, head) key distinguishes them.
        for e in graph.edge_ids() {
            let (u, v) = graph.edge_endpoints(e);
            if partition.part_of(u) == Some(i as u32) || partition.part_of(v) == Some(i as u32) {
                continue; // already added by Step 1
            }
            let x = (graph.n() + e.index()) as NodeId;
            for rep in 0..params.reps {
                let first = half_oracle.sampled_by(u, x, leader, rep);
                let second = half_oracle.sampled_by(x, v, leader, rep);
                if first && second {
                    per_part[i].push(e);
                    break;
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

/// Deterministic start-delay helper shared with the distributed layer:
/// pseudo-random delay in `[0, range)` for instance `inst` derived from
/// a shared-randomness word.
pub fn shared_delay(shared_word: u64, inst: u32, range: u64) -> u64 {
    if range == 0 {
        return 0;
    }
    splitmix64(shared_word ^ ((inst as u64 + 1) << 17)) % range
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::centralized_shortcuts;
    use lcs_graph::{HighwayGraph, HighwayParams};
    use lcs_shortcut::{measure_quality, DilationMode};

    #[test]
    fn subdivision_strategy_meets_bounds_for_d5() {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 4,
            path_len: 36,
            diameter: 5,
        })
        .unwrap();
        let g = hw.graph();
        let p = Partition::new(g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), 5).unwrap();
        let out = odd_shortcuts_subdivision(g, &p, params, 9);
        let report = measure_quality(g, &p, &out.shortcuts, DilationMode::Exact);
        assert!(
            (report.quality.dilation as u64) <= params.dilation_bound(),
            "dilation {} vs {}",
            report.quality.dilation,
            params.dilation_bound()
        );
        assert!(
            (report.quality.congestion as u64) <= params.congestion_bound(),
            "congestion {} vs {}",
            report.quality.congestion,
            params.congestion_bound()
        );
    }

    #[test]
    fn direct_and_subdivision_have_comparable_volume() {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 4,
            path_len: 36,
            diameter: 5,
        })
        .unwrap();
        let g = hw.graph();
        let p = Partition::new(g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), 5).unwrap();
        let sub = odd_shortcuts_subdivision(g, &p, params, 13);
        let dir = centralized_shortcuts(g, &p, params, 13);
        let (a, b) = (
            sub.shortcuts.total_edges() as f64,
            dir.shortcuts.total_edges() as f64,
        );
        assert!(a > 0.0 && b > 0.0);
        assert!((a / b) < 2.0 && (b / a) < 2.0, "volumes {a} vs {b}");
    }

    #[test]
    fn subdivision_panics_on_even_d() {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 2,
            path_len: 12,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph();
        let p = Partition::new(g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), 4).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            odd_shortcuts_subdivision(g, &p, params, 1)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn shared_delay_in_range_and_deterministic() {
        for inst in 0..100 {
            let d = shared_delay(42, inst, 16);
            assert!(d < 16);
            assert_eq!(d, shared_delay(42, inst, 16));
        }
        assert_eq!(shared_delay(1, 5, 0), 0);
        // Spread: not all delays identical.
        let delays: std::collections::HashSet<u64> =
            (0..32).map(|i| shared_delay(7, i, 16)).collect();
        assert!(delays.len() > 4);
    }
}
