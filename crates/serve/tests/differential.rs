//! The service layer's correctness anchor: index-served answers must
//! be **byte-identical** to the one-shot pipeline on the same graph,
//! seed, and shard count.
//!
//! * The index is built by the same distributed construction
//!   (`distributed_shortcuts`) the one-shot path runs, at shard counts
//!   {1, 4} — the serialized index bytes must not depend on the shard
//!   count.
//! * Served SSSP / MST / aggregation / min-cut answers are compared
//!   field-for-field against `shortcut_sssp`, `mst_via_shortcuts`,
//!   `AggregationSetup` aggregation (centralized *and* engine-simulated
//!   at shards {1, 4}), and `approximate_min_cut`.
//! * Pool sizes {1, 4} must produce identical results and batch
//!   fingerprints.
//! * What a customization may cache is decided here: the SSSP depth
//!   table is pinned against a per-tree reference on 216 random
//!   instances, and the MST answer against every seed and shortcut
//!   strategy.
//! * The frozen trees, the depth table and the served aggregate are
//!   pinned against the per-part builds they replaced, on the same
//!   instances. The strip
//!   is pinned against a plain reference there too, and must keep each
//!   part's dilation, load no edge more, build the same trees and leave
//!   no tree leaf outside its part.

use lcs_apps::{
    approximate_min_cut, boruvka, mst_via_shortcuts, shortcut_sssp, MinCutError, MstConfig,
    MstError, ShortcutStrategy,
};
use lcs_congest::{AggOp, SimConfig};
use lcs_core::{
    build_index, build_index_distributed, centralized_shortcuts, DistributedConfig,
    IndexBuildConfig, KoganParter, KpParams,
};
use lcs_graph::{
    bfs, cut_weight, dijkstra, gnp, gnp_connected, grid, kruskal, BfsOptions, EdgeId, Graph,
    HighwayGraph, HighwayParams, NodeId, WeightedGraph, UNREACHABLE, W_UNREACHABLE,
};
use lcs_serve::{
    aggregate_value, min_cut_config, per_query_seed, CustomizedIndex, Query, QueryResult, ServePool,
};
use lcs_shortcut::{
    global_tree_shortcuts, measure_quality, trivial_shortcuts, AggregationSetup, DilationMode,
    IndexMeta, PartTree, Partition, ShortcutIndex, ShortcutSet,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn fixture() -> (WeightedGraph, Partition) {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 4,
        path_len: 12,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph().clone();
    let p = Partition::new(&g, hw.path_parts()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    (WeightedGraph::with_random_weights(g, 100, &mut rng), p)
}

fn build(wg: &WeightedGraph, p: &Partition, shards: usize) -> ShortcutIndex {
    let cfg = DistributedConfig {
        known_diameter: Some(4),
        shards,
        ..DistributedConfig::default()
    };
    build_index_distributed(wg.graph(), wg.weights(), p, &cfg)
        .expect("highway fixture builds")
        .0
}

#[test]
fn index_bytes_are_shard_count_invariant() {
    let (wg, p) = fixture();
    let bytes1 = build(&wg, &p, 1).to_bytes();
    let bytes4 = build(&wg, &p, 4).to_bytes();
    assert_eq!(bytes1, bytes4, "index must not depend on engine shards");
}

#[test]
fn served_sssp_is_byte_identical_to_one_shot() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let shortcuts = idx.shortcuts().clone();
    let pool = ServePool::new(Arc::clone(&idx), 2);

    for source in [0 as NodeId, 7, 30] {
        let batch = pool.serve(
            &[Query::Sssp {
                source,
                max_iterations: 4096,
            }],
            9,
        );
        let one_shot =
            shortcut_sssp(&wg, &p, &shortcuts, source, 4096, &SimConfig::default()).unwrap();
        match &batch.results[0] {
            lcs_serve::QueryResult::Sssp { dist, iterations } => {
                assert_eq!(dist, &one_shot.dist, "source {source}");
                assert_eq!(*iterations, one_shot.iterations, "source {source}");
            }
            other => panic!("expected an SSSP answer, got {other:?}"),
        }
    }
}

/// The served MST equals the one-shot run at every batch seed and pool
/// size, each on a fresh customization that fills its answer, and the
/// unique MST is Kruskal's — also when eight concurrent first queries
/// race to fill one customization.
#[test]
fn served_mst_is_byte_identical_to_one_shot_and_kruskal() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let k = kruskal(&wg);
    let kruskal_answer = |result: &QueryResult| match result {
        QueryResult::Mst { edges, weight, .. } => {
            assert_eq!(edges, &k.edges);
            assert_eq!(*weight, k.weight);
        }
        other => panic!("expected an MST answer, got {other:?}"),
    };
    let mut answers = Vec::new();
    for batch_seed in [0xBEEF, 1, 0x5EED_0003] {
        for workers in [1usize, 4] {
            let cx = Arc::new(CustomizedIndex::baseline(Arc::clone(&idx)));
            let served = ServePool::with_customization(Arc::clone(&cx), workers)
                .serve(&[Query::Mst], batch_seed);
            let seed = per_query_seed(batch_seed, 0);
            let cfg = MstConfig {
                seed,
                ..MstConfig::default()
            };
            let one_shot = mst_via_shortcuts(&wg, &cfg).unwrap();
            assert_eq!(
                served.results[0],
                QueryResult::Mst {
                    edges: one_shot.edges,
                    weight: one_shot.weight,
                    phases: one_shot.phases,
                },
                "batch seed {batch_seed:#x}, {workers} workers"
            );
            kruskal_answer(&served.results[0]);
            answers.push(served.results[0].clone());
        }
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
    let served = ServePool::new(Arc::clone(&idx), 4).serve(&[Query::Mst; 8], 0x8);
    served.results.iter().for_each(kruskal_answer);
    assert!(served.results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn served_aggregation_matches_one_shot_at_multiple_shard_counts() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let pool = ServePool::new(Arc::clone(&idx), 2);

    let batch_seed = 0xA66;
    let batch = pool.serve(&[Query::Aggregate { op: AggOp::Sum }], batch_seed);
    let seed = per_query_seed(batch_seed, 0);
    let per_part = match &batch.results[0] {
        lcs_serve::QueryResult::Aggregate { per_part } => per_part.clone(),
        other => panic!("expected an aggregation answer, got {other:?}"),
    };

    // One-shot: rebuild the trees from scratch and fold the identical
    // seed-derived workload, centralized…
    let setup = AggregationSetup::build(wg.graph(), &p, idx.shortcuts());
    let value = |v: NodeId, part: usize| -> u64 {
        if p.part_of(v) == Some(part as u32) {
            aggregate_value(seed, part, v)
        } else {
            AggOp::Sum.identity()
        }
    };
    assert_eq!(per_part, setup.aggregate_centralized(AggOp::Sum, &value));

    // …and through the CONGEST engine at shard counts {1, 4}.
    for shards in [1usize, 4] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let (roots, _) = setup
            .aggregate_simulated(wg.graph(), AggOp::Sum, &value, true, &cfg)
            .unwrap();
        for (i, &served) in per_part.iter().enumerate() {
            assert_eq!(roots[i], Some(served), "part {i} at {shards} shards");
        }
    }
}

#[test]
fn served_min_cut_is_byte_identical_to_one_shot() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let cx = CustomizedIndex::baseline(Arc::clone(&idx));
    let pool = ServePool::new(Arc::clone(&idx), 2);

    let batch_seed = 0xC07;
    let batch = pool.serve(&[Query::MinCut], batch_seed);
    let seed = per_query_seed(batch_seed, 0);
    let one_shot = approximate_min_cut(&wg, &min_cut_config(&cx, seed)).unwrap();
    match &batch.results[0] {
        lcs_serve::QueryResult::MinCut {
            weight,
            side,
            trees_packed,
        } => {
            assert_eq!(*weight, one_shot.weight);
            assert_eq!(side, &one_shot.side);
            assert_eq!(*trees_packed, one_shot.trees_packed as u64);
        }
        other => panic!("expected a min-cut answer, got {other:?}"),
    }
}

#[test]
fn pool_size_does_not_change_results_or_fingerprint() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let queries: Vec<Query> = (0..12)
        .map(|i| match i % 4 {
            0 => Query::sssp((i * 5) as NodeId),
            1 => Query::Mst,
            2 => Query::Aggregate {
                op: if i % 8 == 2 { AggOp::Sum } else { AggOp::Max },
            },
            _ => Query::MinCut,
        })
        .collect();

    let solo = ServePool::new(Arc::clone(&idx), 1).serve(&queries, 0x7001);
    let quad = ServePool::new(Arc::clone(&idx), 4).serve(&queries, 0x7001);
    assert_eq!(solo.results, quad.results);
    assert_eq!(solo.fingerprint, quad.fingerprint);
}

#[test]
fn customization_reweights_without_rebuilding() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let frozen_bytes = idx.to_bytes();

    // Re-weight every edge; the structure (partition, shortcuts,
    // trees) is reused untouched.
    let new_weights: Vec<u64> = (0..wg.graph().m() as u64).map(|e| e * 3 % 41 + 1).collect();
    let cx =
        Arc::new(CustomizedIndex::with_weights(Arc::clone(&idx), new_weights.clone()).unwrap());
    let pool = ServePool::with_customization(Arc::clone(&cx), 2);
    let batch = pool.serve(&[Query::sssp(3)], 1);

    // One-shot on a freshly weighted graph with the same frozen
    // shortcuts: identical answers.
    let new_wg = WeightedGraph::new(wg.graph().clone(), new_weights).unwrap();
    let one_shot =
        shortcut_sssp(&new_wg, &p, idx.shortcuts(), 3, 4096, &SimConfig::default()).unwrap();
    match &batch.results[0] {
        lcs_serve::QueryResult::Sssp { dist, .. } => assert_eq!(dist, &one_shot.dist),
        other => panic!("expected an SSSP answer, got {other:?}"),
    }
    assert_eq!(
        idx.to_bytes(),
        frozen_bytes,
        "customization never mutates the index"
    );
}

/// The doc-example index of the crate: 3 paths × 10 on a D = 4
/// highway, built by the Kogan–Parter backend.
fn doc_example_index() -> Arc<ShortcutIndex> {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 10,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph().clone();
    let p = Partition::new(&g, hw.path_parts()).unwrap();
    let weights: Vec<u64> = (0..g.m() as u64).map(|e| e % 9 + 1).collect();
    let wg = WeightedGraph::new(g, weights).unwrap();
    let backend = KoganParter {
        diameter: Some(4),
        ..KoganParter::default()
    };
    Arc::new(build_index(&wg, &p, &backend, &IndexBuildConfig::default()))
}

#[test]
fn heavy_weights_serve_exact_distances_and_a_typed_min_cut_failure() {
    let idx = doc_example_index();
    let m = idx.graph().m();
    // Tree depths of 2^59..2^61 weights overflow u64 although every
    // true distance fits: the relaxation must saturate, never wrap.
    for shift in [59u32, 60, 61] {
        let cx =
            Arc::new(CustomizedIndex::with_weights(Arc::clone(&idx), vec![1 << shift; m]).unwrap());
        let pool = ServePool::with_customization(Arc::clone(&cx), 1);
        let sources: [NodeId; 3] = [0, 13, 29];
        let batch = pool.serve(&sources.map(Query::sssp), 1);
        for (source, result) in sources.iter().zip(&batch.results) {
            let exact = dijkstra(cx.weighted_graph(), *source);
            match result {
                QueryResult::Sssp { dist, .. } => {
                    assert_eq!(dist, &exact, "weights 2^{shift}, source {source}")
                }
                other => panic!("expected an SSSP answer, got {other:?}"),
            }
        }
    }
    // 2^62 customizes and serves without a panic.
    let cx = Arc::new(CustomizedIndex::with_weights(Arc::clone(&idx), vec![1 << 62; m]).unwrap());
    match &ServePool::with_customization(cx, 1)
        .serve(&[Query::sssp(0)], 1)
        .results[0]
    {
        QueryResult::Sssp { dist, .. } => {
            assert_eq!(dist[0], 0);
            assert!(dist[1..].iter().all(|&d| d >= 1 << 62));
        }
        other => panic!("expected an SSSP answer, got {other:?}"),
    }
    // The MST, and min-cut before it sums a weight, reject what the
    // MWOE encoding cannot carry, with the errors the one-shot
    // pipelines report.
    let overflow = format!("min-cut: {}", MinCutError::Mst(MstError::EncodingOverflow));
    let mst_overflow = format!("mst: {}", MstError::EncodingOverflow);
    for shift in [37u32, 61, 63] {
        let cx =
            Arc::new(CustomizedIndex::with_weights(Arc::clone(&idx), vec![1 << shift; m]).unwrap());
        let served = ServePool::with_customization(Arc::clone(&cx), 1)
            .serve(&[Query::MinCut, Query::Mst], 3);
        assert_eq!(
            served.results,
            [
                QueryResult::Failed(overflow.clone()),
                QueryResult::Failed(mst_overflow.clone())
            ],
            "2^{shift}"
        );
        let one_shot = approximate_min_cut(cx.weighted_graph(), &min_cut_config(&cx, 3));
        assert_eq!(
            one_shot.unwrap_err(),
            MinCutError::Mst(MstError::EncodingOverflow)
        );
        let one_shot = mst_via_shortcuts(cx.weighted_graph(), &MstConfig::default());
        assert_eq!(one_shot.unwrap_err(), MstError::EncodingOverflow);
    }
    // Just below the bound, both answer Kruskal's tree.
    let cx =
        Arc::new(CustomizedIndex::with_weights(Arc::clone(&idx), vec![(1 << 37) - 1; m]).unwrap());
    let k = kruskal(cx.weighted_graph());
    let one_shot = mst_via_shortcuts(cx.weighted_graph(), &MstConfig::default()).unwrap();
    assert_eq!((&one_shot.edges, one_shot.weight), (&k.edges, k.weight));
    assert_eq!(
        ServePool::with_customization(cx, 1)
            .serve(&[Query::Mst], 3)
            .results[0],
        QueryResult::Mst {
            edges: k.edges,
            weight: k.weight,
            phases: one_shot.phases,
        }
    );
}

#[test]
fn served_min_cut_finds_a_zero_weight_cut() {
    // Every edge leaving path 0 weighs 0, so path 0 is a weight-0 cut
    // that the skeleton, which keeps only positive-weight edges, never
    // spans.
    let idx = doc_example_index();
    let in_path0 = |v: NodeId| idx.partition().part_of(v) == Some(0);
    let weights: Vec<u64> = idx
        .graph()
        .edges()
        .iter()
        .enumerate()
        .map(|(e, &(u, v))| {
            if in_path0(u) != in_path0(v) {
                0
            } else {
                e as u64 % 9 + 1
            }
        })
        .collect();
    let cx = Arc::new(CustomizedIndex::with_weights(Arc::clone(&idx), weights).unwrap());
    let served = ServePool::with_customization(Arc::clone(&cx), 1).serve(&[Query::MinCut], 3);
    let seed = per_query_seed(3, 0);
    let one_shot = approximate_min_cut(cx.weighted_graph(), &min_cut_config(&cx, seed)).unwrap();
    assert_eq!(one_shot.weight, 0);
    assert_eq!(cut_weight(cx.weighted_graph(), &one_shot.side), 0);
    assert_eq!(
        served.results[0],
        QueryResult::MinCut {
            weight: 0,
            side: one_shot.side,
            trees_packed: one_shot.trees_packed as u64,
        }
    );
}

/// Seeded G(n,p) (connected and not) and highway instances for the MST
/// premise.
fn mst_instances() -> Vec<WeightedGraph> {
    let mut out = Vec::new();
    for i in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x3E30 + i);
        let g = match i % 3 {
            0 => gnp_connected(16 + (i as usize % 5) * 6, 0.12, &mut rng),
            1 => gnp(20 + (i as usize % 4) * 5, 0.15, &mut rng),
            _ => HighwayGraph::new(HighwayParams {
                num_paths: 2 + (i as usize % 3),
                path_len: 6 + (i as usize % 4) * 2,
                diameter: 4,
            })
            .unwrap()
            .into_graph(),
        };
        // Few distinct weights, so ties fall to the edge id.
        out.push(WeightedGraph::with_random_weights(
            g,
            1 + i % 7 * 9,
            &mut rng,
        ));
    }
    out
}

/// The premise of the served MST: Boruvka merges on the exact minimum
/// `(weight, edge id)`, so the answer depends only on the weighted
/// graph — never on the seed or the shortcut strategy — and the
/// graph-only `boruvka` the index serves returns it.
#[test]
fn mst_answer_depends_only_on_the_weighted_graph() {
    for (i, wg) in mst_instances().iter().enumerate() {
        let answer = |seed: u64, strategy: ShortcutStrategy| {
            let cfg = MstConfig {
                seed,
                strategy,
                ..MstConfig::default()
            };
            let out = mst_via_shortcuts(wg, &cfg).unwrap();
            (out.edges, out.weight, out.phases)
        };
        let first = answer(1, ShortcutStrategy::KoganParter);
        assert_eq!(first.0, kruskal(wg).edges, "instance {i}");
        let forest = boruvka(wg).unwrap();
        assert_eq!(
            (forest.edges, forest.weight, forest.phases),
            first,
            "instance {i}, graph only"
        );
        for seed in [1, 0xB0B, 0xFEED_5EED] {
            for strategy in [
                ShortcutStrategy::KoganParter,
                ShortcutStrategy::GlobalTree,
                ShortcutStrategy::Trivial,
            ] {
                assert_eq!(
                    answer(seed, strategy),
                    first,
                    "instance {i}, {strategy} seed {seed}"
                );
            }
        }
    }
}

/// One relaxation instance: a weighted graph, a partition that may
/// leave nodes in no part, and raw Kogan–Parter shortcuts, whose trees
/// hold members from outside their part.
fn relaxation_instance(i: u64) -> (WeightedGraph, Partition, ShortcutSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x55_5900 + i);
    let (g, parts) = match i % 4 {
        0 => {
            let g = gnp_connected(12 + (i as usize % 7) * 4, 0.1, &mut rng);
            let k = 2 + i as usize % 4;
            let parts = Partition::bfs_balls(&g, k, &mut rng).parts().to_vec();
            (g, parts)
        }
        1 => {
            let g = gnp(24 + (i as usize % 5) * 4, 0.09, &mut rng);
            let parts = Partition::bfs_balls(&g, 3 + i as usize % 3, &mut rng)
                .parts()
                .to_vec();
            (g, parts)
        }
        2 => {
            let g = grid(3 + i as usize % 4, 4 + i as usize % 5);
            let parts = Partition::bfs_balls(&g, 2 + i as usize % 5, &mut rng)
                .parts()
                .to_vec();
            (g, parts)
        }
        _ => {
            let hw = HighwayGraph::new(HighwayParams {
                num_paths: 2 + i as usize % 3,
                path_len: 5 + i as usize % 8,
                diameter: 4,
            })
            .unwrap();
            let parts = hw.path_parts();
            (hw.into_graph(), parts)
        }
    };
    // Odd instances drop every third part, whose nodes are then in no
    // part.
    let mut parts: Vec<Vec<NodeId>> = parts
        .into_iter()
        .enumerate()
        .filter(|&(j, _)| j % 3 != 2 || i.is_multiple_of(2))
        .map(|(_, part)| part)
        .collect();
    parts.sort();
    let p = Partition::new(&g, parts).unwrap();
    let params = KpParams::new(g.n(), 4).unwrap();
    let raw = centralized_shortcuts(&g, &p, params, i);
    let wg = WeightedGraph::with_random_weights(g, 1 + (i % 5) * 40, &mut rng);
    (wg, p, raw.shortcuts)
}

/// The relaxation as written before the flat table: per-tree depth
/// maps keyed by every tree member, and each tree's minimum applied
/// before the next tree's is taken, for at most `max_iterations`
/// iterations. Returns `(dist, iterations)`.
fn per_tree_reference(
    wg: &WeightedGraph,
    p: &Partition,
    setup: &AggregationSetup,
    source: NodeId,
    max_iterations: u32,
) -> (Vec<u64>, u32) {
    let g = wg.graph();
    let depths: Vec<HashMap<NodeId, u64>> = setup
        .trees
        .iter()
        .map(|t| {
            let mut depth = HashMap::from([(t.root, 0u64)]);
            while depth.len() < t.members.len() {
                for &(v, parent) in &t.members {
                    let Some(dp) = parent.and_then(|q| depth.get(&q).copied()) else {
                        continue;
                    };
                    let w = wg.weight(g.edge_between(parent.unwrap(), v).unwrap());
                    depth.entry(v).or_insert(dp + w);
                }
            }
            depth
        })
        .collect();
    let mut dist = vec![W_UNREACHABLE; g.n()];
    dist[source as usize] = 0;
    let mut iterations = 0;
    while iterations < max_iterations {
        iterations += 1;
        let before = dist.clone();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            for (a, b) in [(u, v), (v, u)] {
                if before[a as usize] != W_UNREACHABLE {
                    let d = before[a as usize] + wg.weight(e);
                    dist[b as usize] = dist[b as usize].min(d);
                }
            }
        }
        for (t, depth) in setup.trees.iter().zip(&depths) {
            let in_part = |v: NodeId| p.part_of(v) == Some(t.part as u32);
            let a = t
                .members
                .iter()
                .filter(|&&(v, _)| in_part(v) && dist[v as usize] != W_UNREACHABLE)
                .map(|&(v, _)| dist[v as usize] + depth[&v])
                .min();
            if let Some(a) = a {
                for &(v, _) in t.members.iter().filter(|&&(v, _)| in_part(v)) {
                    dist[v as usize] = dist[v as usize].min(a + depth[&v]);
                }
            }
        }
        if dist == before {
            break;
        }
    }
    (dist, iterations)
}

#[test]
fn one_relaxation_agrees_with_the_per_tree_reference_on_random_instances() {
    let mut outside_members = 0;
    for i in 0..216u64 {
        let (wg, p, shortcuts) = relaxation_instance(i);
        let g = wg.graph();
        let idx = Arc::new(ShortcutIndex::freeze(
            g.clone(),
            wg.weights().to_vec(),
            p.clone(),
            shortcuts.clone(),
            IndexMeta {
                backend: "kogan_parter_raw".to_string(),
                params: vec![],
                seed: i,
                certificate: None,
                diameter: None,
            },
        ));
        let setup = idx.aggregation_setup();
        outside_members += setup
            .trees
            .iter()
            .flat_map(|t| t.members.iter().map(move |&(v, _)| (t.part, v)))
            .filter(|&(part, v)| p.part_of(v) != Some(part as u32))
            .count();
        let pool = ServePool::new(Arc::clone(&idx), 1);
        let source = (i as usize * 7 % g.n()) as NodeId;
        for max_iterations in [0u32, 1, 2, 4096] {
            let at = format!("instance {i}, source {source}, cap {max_iterations}");
            let (dist, iterations) = per_tree_reference(&wg, &p, setup, source, max_iterations);
            let query = Query::Sssp {
                source,
                max_iterations,
            };
            let reference = QueryResult::Sssp {
                dist: dist.clone(),
                iterations,
            };
            assert_eq!(
                pool.serve(&[query], 0).results[0],
                reference,
                "served, {at}"
            );
            let one_shot = [1usize, 3].map(|shards| {
                let cfg = SimConfig {
                    shards,
                    ..SimConfig::default()
                };
                shortcut_sssp(&wg, &p, &shortcuts, source, max_iterations, &cfg).unwrap()
            });
            for out in &one_shot {
                assert_eq!(out.dist, dist, "one-shot, {at}");
                assert_eq!(out.iterations, iterations, "one-shot, {at}");
            }
            assert_eq!(
                one_shot[0].total_rounds, one_shot[1].total_rounds,
                "one-shot shards, {at}"
            );
            assert_eq!(one_shot[0].messages, one_shot[1].messages, "{at}");
        }
    }
    assert!(
        outside_members > 0,
        "some trees must hold members from outside their part"
    );
}

/// The strip written plainly: each part's augmented subgraph is
/// rebuilt and the edges of all its non-member leaves are dropped, one
/// sweep at a time, until a sweep finds none.
fn strip_reference(g: &Graph, p: &Partition, s: &ShortcutSet) -> ShortcutSet {
    let mut lists: Vec<Vec<EdgeId>> = (0..p.num_parts()).map(|i| s.edges(i).to_vec()).collect();
    for i in 0..p.num_parts() {
        loop {
            let sub = ShortcutSet::from_edge_lists(lists.clone()).augmented_subgraph(g, p, i);
            let leaves: HashSet<NodeId> = (0..sub.n() as NodeId)
                .filter(|&lv| sub.local().degree(lv) == 1)
                .map(|lv| sub.parent_of(lv))
                .filter(|&v| p.part_of(v) != Some(i as u32))
                .collect();
            if leaves.is_empty() {
                break;
            }
            lists[i].retain(|&e| {
                let (u, w) = g.edge_endpoints(e);
                !leaves.contains(&u) && !leaves.contains(&w)
            });
        }
    }
    ShortcutSet::from_edge_lists(lists)
}

/// The tree build as written before the shared scratch arrays: the
/// plain strip, then one `EdgeSubgraph` and one BFS per part, the root
/// path of each member marked by a walk up the BFS tree, and one
/// `edge_between` per tree edge.
fn per_part_tree_reference(g: &Graph, p: &Partition, s: &ShortcutSet) -> AggregationSetup {
    let s = strip_reference(g, p, s);
    let mut trees = Vec::new();
    let mut edge_load = vec![0u32; g.m()];
    for i in 0..p.num_parts() {
        let sub = s.augmented_subgraph(g, p, i);
        let local_root = sub.local_of(p.leader(i)).unwrap();
        let r = bfs(sub.local(), &[local_root], &BfsOptions::default());
        let mut on_root_path = vec![false; sub.n()];
        for &v in p.part(i) {
            let mut at = sub
                .local_of(v)
                .filter(|&lv| r.dist[lv as usize] != UNREACHABLE);
            while let Some(lv) = at.filter(|&lv| !on_root_path[lv as usize]) {
                on_root_path[lv as usize] = true;
                at = r.parent[lv as usize];
            }
        }
        let mut members = Vec::new();
        let mut depth = 0;
        for lv in 0..sub.n() as u32 {
            if !on_root_path[lv as usize] {
                continue;
            }
            let node = sub.parent_of(lv);
            let parent = r.parent[lv as usize].map(|lp| sub.parent_of(lp));
            if let Some(q) = parent {
                edge_load[g.edge_between(q, node).unwrap().index()] += 1;
            }
            members.push((node, parent));
            depth = depth.max(r.dist[lv as usize]);
        }
        trees.push(PartTree {
            part: i,
            root: p.leader(i),
            members,
            depth,
        });
    }
    AggregationSetup {
        tree_congestion: edge_load.iter().copied().max().unwrap_or(0),
        tree_depth: trees.iter().map(|t| t.depth).max().unwrap_or(0),
        trees,
    }
}

/// The depth table as written before the per-part root paths: every
/// part member walked up its tree, with `n`-sized scratch reset per
/// tree, a broken edge or an over-long climb reading as unreachable.
fn depth_reference(wg: &WeightedGraph, p: &Partition, setup: &AggregationSetup) -> Vec<u64> {
    const NONE: NodeId = NodeId::MAX;
    let g = wg.graph();
    let mut depth = vec![W_UNREACHABLE; g.n()];
    let mut parent = vec![NONE; g.n()];
    let mut settled: Vec<Option<u64>> = vec![None; g.n()];
    let mut touched = Vec::new();
    let mut path = Vec::new();
    for tree in &setup.trees {
        for &(v, q) in &tree.members {
            parent[v as usize] = q.unwrap_or(NONE);
        }
        settled[tree.root as usize] = Some(0);
        touched.push(tree.root);
        for &v in p.part(tree.part) {
            let mut u = v;
            while settled[u as usize].is_none()
                && parent[u as usize] != NONE
                && path.len() < tree.members.len()
            {
                path.push(u);
                u = parent[u as usize];
            }
            let mut d = settled[u as usize].unwrap_or(W_UNREACHABLE);
            while let Some(x) = path.pop() {
                d = g
                    .edge_between(parent[x as usize], x)
                    .map_or(W_UNREACHABLE, |e| d.saturating_add(wg.weight(e)));
                settled[x as usize] = Some(d);
                touched.push(x);
            }
            depth[v as usize] = settled[v as usize].unwrap_or(W_UNREACHABLE);
        }
        for &(v, _) in &tree.members {
            parent[v as usize] = NONE;
        }
        for v in touched.drain(..) {
            settled[v as usize] = None;
        }
    }
    depth
}

/// Serves one Sum, Max and Min aggregate and compares each with the
/// fold over every tree node, off-part nodes folding the identity.
fn assert_served_aggregates_fold_the_trees(cx: &Arc<CustomizedIndex>, at: &str) {
    let ops = [AggOp::Sum, AggOp::Max, AggOp::Min];
    let batch_seed = 0xA66;
    let batch = ServePool::with_customization(Arc::clone(cx), 1)
        .serve(&ops.map(|op| Query::Aggregate { op }), batch_seed);
    let p = cx.index().partition();
    for (j, (op, served)) in ops.iter().zip(&batch.results).enumerate() {
        let seed = per_query_seed(batch_seed, j);
        let value = |v: NodeId, part: usize| {
            if p.part_of(v) == Some(part as u32) {
                aggregate_value(seed, part, v)
            } else {
                op.identity()
            }
        };
        let per_part = cx
            .index()
            .aggregation_setup()
            .aggregate_centralized(*op, &value);
        assert_eq!(served, &QueryResult::Aggregate { per_part }, "{op:?}, {at}");
    }
}

#[test]
fn trees_depths_and_aggregates_agree_with_the_per_part_references_on_random_instances() {
    for i in 0..216u64 {
        let (wg, p, shortcuts) = relaxation_instance(i);
        let g = wg.graph();
        for (name, s) in [
            ("raw", shortcuts.clone()),
            ("trivial", trivial_shortcuts(&p)),
            ("global tree", global_tree_shortcuts(g, &p, 0, Some(1))),
        ] {
            let at = format!("instance {i}, {name} shortcuts");
            let stripped = s.stripped(g, &p);
            assert_eq!(stripped, strip_reference(g, &p, &s), "{at}");
            assert_strip_keeps_quality(g, &p, &s, &stripped, &at);
            let setup = AggregationSetup::build(g, &p, &s);
            assert_eq!(setup, per_part_tree_reference(g, &p, &s), "{at}");
            assert_eq!(AggregationSetup::build(g, &p, &stripped), setup, "{at}");
            assert_leaves_are_members(&p, &setup, &at);
        }
        let idx = Arc::new(ShortcutIndex::freeze(
            g.clone(),
            wg.weights().to_vec(),
            p.clone(),
            shortcuts,
            IndexMeta {
                backend: "kogan_parter_raw".to_string(),
                params: vec![],
                seed: i,
                certificate: None,
                diameter: None,
            },
        ));
        let cx = Arc::new(CustomizedIndex::baseline(Arc::clone(&idx)));
        assert_eq!(
            cx.depths(),
            depth_reference(&wg, &p, idx.aggregation_setup()),
            "instance {i}"
        );
        assert_served_aggregates_fold_the_trees(&cx, &format!("instance {i}"));
    }
}

/// The stripped sets have the input's exact dilation, part by part,
/// and load no edge more.
fn assert_strip_keeps_quality(
    g: &Graph,
    p: &Partition,
    s: &ShortcutSet,
    stripped: &ShortcutSet,
    at: &str,
) {
    let before = measure_quality(g, p, s, DilationMode::Exact);
    let after = measure_quality(g, p, stripped, DilationMode::Exact);
    assert_eq!(
        after.per_part_dilation, before.per_part_dilation,
        "dilation, {at}"
    );
    assert!(
        after
            .per_edge_congestion
            .iter()
            .zip(&before.per_edge_congestion)
            .all(|(a, b)| a <= b),
        "congestion, {at}"
    );
}

/// Every tree node that is no node's parent is a member of its part.
fn assert_leaves_are_members(p: &Partition, setup: &AggregationSetup, at: &str) {
    for t in &setup.trees {
        let parents: HashSet<NodeId> = t.members.iter().filter_map(|&(_, q)| q).collect();
        for &(v, _) in &t.members {
            assert!(
                parents.contains(&v) || p.part_of(v) == Some(t.part as u32),
                "leaf {v} of tree {}, {at}",
                t.part
            );
        }
    }
}
