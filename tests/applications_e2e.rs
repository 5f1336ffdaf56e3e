//! End-to-end application tests: MST (simulated on the CONGEST engine),
//! min cut, SSSP, and 2-ECSS, all against exact references.

use lcs_apps::{approximation_ratio, bellman_ford_rounds, verify_two_ecss};
use low_congestion_shortcuts::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn simulated_mst_on_engine_matches_kruskal_across_strategies() {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 18,
        diameter: 4,
    })
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let wg = WeightedGraph::with_random_weights(hw.graph().clone(), 10_000, &mut rng);
    let reference = kruskal(&wg);
    for strategy in [
        ShortcutStrategy::KoganParter,
        ShortcutStrategy::GlobalTree,
        ShortcutStrategy::Trivial,
    ] {
        let out = mst_via_shortcuts(
            &wg,
            &MstConfig {
                strategy,
                diameter: Some(4),
                ..MstConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.edges, reference.edges, "{strategy}");
        assert!(out.messages > 0, "{strategy} must exchange real messages");
    }
}

#[test]
fn mst_over_many_seeds_and_families() {
    for seed in 0..5u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = lcs_graph::hub_and_spoke(150, 6, 2, 1, &mut rng);
        let d = exact_diameter(&g).unwrap().max(3);
        let wg = WeightedGraph::with_random_weights(g, 1000, &mut rng);
        let out = mst_via_shortcuts(
            &wg,
            &MstConfig {
                seed,
                diameter: Some(d),
                ..MstConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.weight, kruskal(&wg).weight, "seed {seed}");
    }
}

#[test]
fn min_cut_within_epsilon_on_structured_and_random_graphs() {
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
        let g = lcs_graph::gnp_connected(50, 0.12, &mut rng);
        let wg = WeightedGraph::with_random_weights(g, 25, &mut rng);
        let out = approximate_min_cut(
            &wg,
            &MinCutConfig {
                epsilon: 0.25,
                seed,
                ..MinCutConfig::default()
            },
        )
        .unwrap();
        let ratio = approximation_ratio(&wg, &out);
        assert!(ratio <= 1.25 + 1e-9, "seed {seed} ratio {ratio}");
        assert!(ratio >= 1.0 - 1e-9, "seed {seed} beat the exact cut?!");
    }
}

#[test]
fn sssp_accelerates_long_chains_with_sound_bounds() {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 50,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph().clone();
    let weights: Vec<u64> = g
        .edge_ids()
        .map(|e| {
            let (u, v) = g.edge_endpoints(e);
            if u < hw.highway_first() && v < hw.highway_first() {
                1
            } else {
                200
            }
        })
        .collect();
    let wg = WeightedGraph::new(g.clone(), weights).unwrap();
    let parts = Partition::new(&g, hw.path_parts()).unwrap();
    let params = KpParams::new(g.n(), 4).unwrap();
    let raw = centralized_shortcuts(&g, &parts, params, 4);
    let pruned = prune_to_trees(&g, &parts, &raw.shortcuts, params.depth_limit());
    let accel = shortcut_sssp(
        &wg,
        &parts,
        &pruned.shortcuts,
        0,
        512,
        &SimConfig::default(),
    )
    .unwrap();
    let (_, bf_rounds) = bellman_ford_rounds(&wg, 0);
    assert!((accel.iterations as u64) < bf_rounds);
    let exact = lcs_graph::dijkstra(&wg, 0);
    for (v, &exact_d) in exact.iter().enumerate().take(g.n()) {
        assert!(accel.dist[v] >= exact_d, "node {v} below true distance");
    }
}

#[test]
fn two_ecss_produces_valid_backbone() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let g = lcs_graph::hub_and_spoke(60, 6, 2, 2, &mut rng);
    if !lcs_graph::is_two_edge_connected(&g) {
        return; // family occasionally leaves a bridge; nothing to test
    }
    let wg = WeightedGraph::with_random_weights(g, 50, &mut rng);
    let out = two_ecss(
        &wg,
        &MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        },
    )
    .unwrap();
    assert!(verify_two_ecss(wg.graph(), &out.edges));
    assert!(out.weight >= kruskal(&wg).weight);
}
