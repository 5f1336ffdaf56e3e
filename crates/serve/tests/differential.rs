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

use lcs_apps::{approximate_min_cut, mst_via_shortcuts, shortcut_sssp};
use lcs_congest::{AggOp, SimConfig};
use lcs_core::{build_index_distributed, DistributedConfig};
use lcs_graph::{kruskal, HighwayGraph, HighwayParams, NodeId, WeightedGraph};
use lcs_serve::{
    aggregate_value, min_cut_config, mst_config, per_query_seed, CustomizedIndex, Query, ServePool,
};
use lcs_shortcut::{AggregationSetup, Partition, ShortcutIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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
        let one_shot = shortcut_sssp(&wg, &p, &shortcuts, source, 4096);
        match &batch.results[0] {
            lcs_serve::QueryResult::Sssp {
                dist,
                iterations,
                total_rounds,
            } => {
                assert_eq!(dist, &one_shot.dist, "source {source}");
                assert_eq!(*iterations, one_shot.iterations, "source {source}");
                assert_eq!(*total_rounds, one_shot.total_rounds, "source {source}");
            }
            other => panic!("expected an SSSP answer, got {other:?}"),
        }
    }
}

#[test]
fn served_mst_is_byte_identical_to_one_shot_and_kruskal() {
    let (wg, p) = fixture();
    let idx = Arc::new(build(&wg, &p, 1));
    let cx = CustomizedIndex::baseline(Arc::clone(&idx));
    let pool = ServePool::new(Arc::clone(&idx), 2);

    let batch_seed = 0xBEEF;
    let batch = pool.serve(&[Query::Mst], batch_seed);
    let seed = per_query_seed(batch_seed, 0);
    let one_shot = mst_via_shortcuts(&wg, &mst_config(&cx, seed)).unwrap();
    match &batch.results[0] {
        lcs_serve::QueryResult::Mst {
            edges,
            weight,
            phases,
        } => {
            assert_eq!(edges, &one_shot.edges);
            assert_eq!(*weight, one_shot.weight);
            assert_eq!(*phases, one_shot.phases);
            // And the unique MST equals the Kruskal reference.
            let k = kruskal(&wg);
            assert_eq!(edges, &k.edges);
            assert_eq!(*weight, k.weight);
        }
        other => panic!("expected an MST answer, got {other:?}"),
    }
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
    let one_shot = shortcut_sssp(&new_wg, &p, idx.shortcuts(), 3, 4096);
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
