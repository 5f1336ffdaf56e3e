//! Property-based integration tests of the paper's analysis invariants:
//! Observation 3.1 (distinct level-k nodes), Observation 3.2 (walks map
//! to H-paths), shortcut validity under random partitions, and the
//! congestion/dilation bounds across random seeds.

use lcs_core::{ShortcutTree, WalkEnd};
use low_congestion_shortcuts::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn highway_fixture(seedish: u8) -> (HighwayGraph, Partition) {
    let paths = 2 + (seedish % 3) as usize;
    let len = 16 + (seedish % 5) as usize * 4;
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: paths,
        path_len: len,
        diameter: 4,
    })
    .unwrap();
    let p = Partition::new(hw.graph(), hw.path_parts()).unwrap();
    (hw, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observation 3.1 + Lemma 3.3 structure: walks never repeat a
    /// level-k node and never move left.
    #[test]
    fn walks_satisfy_observation_3_1(seed in any::<u64>(), fix in 0u8..15, p in 0.05f64..0.95) {
        let (hw, parts) = highway_fixture(fix);
        let g = hw.graph();
        let path: Vec<NodeId> = parts.part(0).to_vec();
        let q: Vec<NodeId> = (0..hw.params().path_len).map(|c| hw.column_leaf(c)).collect();
        let oracle = SampleOracle::new(seed, p, 6);
        let tree = ShortcutTree::new(g, &path, &q, 2, &oracle, parts.leader(0), 0).unwrap();
        for i in (0..path.len()).step_by(3) {
            for target in 2..=3usize {
                let m = tree.walk_to_level(i, target).unwrap();
                prop_assert!(m.level_nodes_distinct, "i={i} target={target}");
                prop_assert!(m.length >= 1);
            }
        }
    }

    /// Observation 3.2: a measured (i,k) walk of length L implies an
    /// H-path of length ≤ L between p_i and the reached G-vertex.
    #[test]
    fn walks_map_to_h_paths(seed in any::<u64>(), p in 0.1f64..0.9) {
        let (hw, parts) = highway_fixture(4);
        let g = hw.graph();
        let path: Vec<NodeId> = parts.part(0).to_vec();
        let q: Vec<NodeId> = (0..hw.params().path_len).map(|c| hw.column_leaf(c)).collect();
        let reps = 6u32;
        let oracle = SampleOracle::new(seed, p, reps);
        let tree = ShortcutTree::new(g, &path, &q, 2, &oracle, parts.leader(0), 0).unwrap();
        // Materialize H_0 with the same coins: step 1 + either-direction
        // sampling (a superset of the directed coins the tree uses).
        let mut params = KpParams::new(g.n(), 4).unwrap();
        params.p = p;
        params.reps = reps;
        let built = centralized_shortcuts(g, &parts, params, seed);
        let sub = built.shortcuts.augmented_subgraph(g, &parts, 0);
        for i in (0..path.len()).step_by(4) {
            let m = tree.walk_to_level(i, 3).unwrap();
            if let WalkEnd::ReachedLevel { vertex } = m.end {
                if let Some(d) = sub.distance(path[i], vertex) {
                    prop_assert!(
                        (d as usize) <= m.length,
                        "walk length {} but H-distance {d}",
                        m.length
                    );
                }
            }
        }
    }

    /// Bound compliance over random seeds (the w.h.p. statement of
    /// Theorem 1.1 at fixed n).
    #[test]
    fn bounds_hold_over_seeds(seed in any::<u64>()) {
        let (hw, parts) = highway_fixture(7);
        let g = hw.graph();
        let params = KpParams::new(g.n(), 4).unwrap();
        let out = centralized_shortcuts(g, &parts, params, seed);
        let q = measure_quality(g, &parts, &out.shortcuts, DilationMode::Exact).quality;
        prop_assert!((q.congestion as u64) <= params.congestion_bound());
        prop_assert!((q.dilation as u64) <= params.dilation_bound());
    }

    /// Shortcut validity for arbitrary BFS-ball partitions of random
    /// connected graphs.
    #[test]
    fn random_partitions_yield_valid_shortcuts(seed in any::<u64>(), k in 2usize..12) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = lcs_graph::gnp_connected(80, 0.08, &mut rng);
        let parts = Partition::bfs_balls(&g, k, &mut rng);
        let d = exact_diameter(&g).unwrap().max(3);
        let params = KpParams::new(g.n(), d).unwrap();
        let out = centralized_shortcuts(&g, &parts, params, seed);
        // verify() recomputes everything and errors on any structural
        // violation.
        let report = verify(&g, &parts, &out.shortcuts, None, DilationMode::Exact).unwrap();
        prop_assert!((report.quality.congestion as u64) <= params.congestion_bound());
    }
}
