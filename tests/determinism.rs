//! Reproducibility: every randomized pipeline is a pure function of its
//! seed.
//!
//! The `pinned_*` tests go further: they compare against literal
//! fingerprints recorded in this file, so an engine, hash, or
//! serialization change that moves any outcome fails here — across
//! commits, not only within one run.

use low_congestion_shortcuts::congest::hash::Fnv;
use low_congestion_shortcuts::congest::{Crash, FaultPlan, Reliable};
use low_congestion_shortcuts::core::DistributedOutcome;
use low_congestion_shortcuts::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The fixed D = 4 highway instance every pin runs on.
fn pinned_instance() -> (Graph, Partition) {
    highway(4)
}

/// The 4 × 24 highway at `diameter`, partitioned into its paths.
fn highway(diameter: u32) -> (Graph, Partition) {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 4,
        path_len: 24,
        diameter,
    })
    .unwrap();
    let g = hw.graph().clone();
    let parts = Partition::new(&g, hw.path_parts()).unwrap();
    (g, parts)
}

/// A hash of the pipeline's own output, before any strip: every part's
/// edge list and its largeness verdict.
fn shortcuts_hash(out: &DistributedOutcome) -> u64 {
    let mut h = Fnv::new();
    for i in 0..out.shortcuts.num_parts() {
        h.u64(i as u64).u64(u64::from(out.is_large[i]));
        for &e in out.shortcuts.edges(i) {
            h.u64(u64::from(e.0));
        }
    }
    h.finish()
}

/// Distributed construction with the diameter guessed, so the guess
/// ladder's phases are pinned too.
fn pinned_config() -> DistributedConfig {
    DistributedConfig {
        seed: 0x5EED,
        known_diameter: None,
        shards: 1,
        ..DistributedConfig::default()
    }
}

#[test]
fn pinned_distributed_phase_fingerprints() {
    let (g, parts) = pinned_instance();
    let out = distributed_shortcuts(&g, &parts, &pinned_config()).unwrap();
    let phases: Vec<(&str, u64)> = out
        .phase_stats
        .iter()
        .map(|s| (s.label.as_str(), s.fingerprint()))
        .collect();
    assert_eq!(
        phases,
        [
            ("A.bfs", 6867872373041692530),
            ("A.census", 1529429326279458683),
            ("B1.parts@4", 1330378250290088136),
            ("B1.largeness@4", 13540947036775687520),
            ("B2.ranks@4", 1529429326279458683),
            ("B3.parallel_bfs@4", 13243591605059456104),
            ("B4.verify@4", 1529429326279458683),
        ]
    );
    assert_eq!(out.stats.fingerprint(), 7015653910255152991);
    // The pipeline's own output (the index checksum below pins only the
    // stripped sets).
    assert_eq!(shortcuts_hash(&out), 5350190253183584763);
}

/// The same highway at D = 3, where the coins sample: the accepted
/// guess 3 has p = 0.428, so an arc outside its part joins `H_i` with
/// probability about 0.81. (At D = 4, p = 0.949 admits an arc with
/// probability 1 − 7·10⁻⁶, so a change to every coin key moves none of
/// the D = 4 pins.) Pins the parallel BFS's fingerprint and the edge
/// lists.
#[test]
fn pinned_coins_at_d3() {
    let (g, parts) = highway(3);
    assert_eq!(g.n(), 120);
    let out = distributed_shortcuts(&g, &parts, &pinned_config()).unwrap();
    assert_eq!(out.accepted_guess, 3);
    assert!((out.params.p - 0.428).abs() < 5e-4, "p {}", out.params.p);
    let b3 = out
        .phase_stats
        .iter()
        .find(|s| s.label == "B3.parallel_bfs@3")
        .expect("the accepted guess ran its parallel BFS");
    assert_eq!(b3.fingerprint(), 16510584778006112684);
    assert_eq!(out.shortcuts.total_edges(), 474);
    assert_eq!(shortcuts_hash(&out), 13563722114902093337);
}

#[test]
fn pinned_reliable_bfs_under_faults() {
    let (g, _) = pinned_instance();
    let plan = FaultPlan {
        drop_rate: 0.1,
        delay_rate: 0.1,
        max_delay: 3,
        corrupt_rate: 0.05,
        crashes: vec![Crash {
            node: 5,
            at_round: 3,
            recover_at: Some(9),
        }],
        fault_seed: 0xFA17,
    };
    let cfg = SimConfig {
        shards: 1,
        faults: Some(plan),
        ..SimConfig::default()
    };
    let mut session = Session::new(&g, cfg);
    let out = session.run(Reliable::new(Bfs::new(0))).unwrap();
    let stats = session.stats();
    assert!(stats.dropped > 0 && stats.delayed > 0 && stats.corrupted > 0);
    // The reliable layer hides every fault: distances are exact.
    let exact = lcs_graph::bfs_distances(&g, 0);
    assert!(out.dist.iter().zip(&exact).all(|(d, &e)| *d == Some(e)));
    assert_eq!(stats.fingerprint(), 16884794384525805930);
}

#[test]
fn pinned_index_checksum_and_serve_batch() {
    let (g, parts) = pinned_instance();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let wg = WeightedGraph::with_random_weights(g.clone(), 1000, &mut rng);
    let (index, _) = build_index_distributed(&g, wg.weights(), &parts, &pinned_config()).unwrap();
    let bytes = index.to_bytes();
    let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    assert_eq!(checksum, 12552945563565870638);

    let queries = [
        Query::sssp(0),
        Query::sssp(37),
        Query::Aggregate { op: AggOp::Sum },
        Query::Aggregate { op: AggOp::Max },
        Query::Mst,
        Query::MinCut,
    ];
    let batch = ServePool::new(Arc::new(index), 1).serve(&queries, 0xBA7C);
    assert_eq!(batch.fingerprint, 17208130594470684867);
}

#[test]
fn whole_pipeline_is_seed_deterministic() {
    let build = || {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 20,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let parts = Partition::new(&g, hw.path_parts()).unwrap();
        let dist = distributed_shortcuts(
            &g,
            &parts,
            &DistributedConfig {
                seed: 123,
                known_diameter: Some(4),
                ..DistributedConfig::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let wg = WeightedGraph::with_random_weights(g.clone(), 100, &mut rng);
        let mst = mst_via_shortcuts(
            &wg,
            &MstConfig {
                seed: 5,
                diameter: Some(4),
                ..MstConfig::default()
            },
        )
        .unwrap();
        let cut = approximate_min_cut(
            &wg,
            &MinCutConfig {
                seed: 5,
                mst: MstConfig {
                    diameter: Some(4),
                    ..MstConfig::default()
                },
                ..MinCutConfig::default()
            },
        )
        .unwrap();
        (
            dist.shortcuts,
            dist.total_rounds,
            dist.total_messages,
            mst.edges,
            mst.total_rounds,
            cut.weight,
            cut.trees_packed,
        )
    };
    let a = build();
    let b = build();
    assert_eq!(a, b, "same seeds must reproduce every output exactly");
}

#[test]
fn different_seeds_change_the_coins_not_the_guarantees() {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 24,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph();
    let parts = Partition::new(g, hw.path_parts()).unwrap();
    // A fifth of the paper's `k_D·ln n / N` keeps p well below 1 at this
    // size, so the coins actually vary (at p = 1 every seed samples
    // everything).
    let mut params = KpParams::new(g.n(), 4).unwrap();
    params.p = 0.2 * params.k * (g.n() as f64).ln() / params.big_n as f64;
    let mut qualities = Vec::new();
    for seed in 0..6u64 {
        let out = centralized_shortcuts(g, &parts, params, seed);
        let q = measure_quality(g, &parts, &out.shortcuts, DilationMode::Exact).quality;
        assert!(
            (q.congestion as u64) <= params.congestion_bound(),
            "seed {seed}"
        );
        assert!(
            (q.dilation as u64) <= params.dilation_bound(),
            "seed {seed}"
        );
        qualities.push(out.shortcuts.total_edges());
    }
    // The coins genuinely vary.
    qualities.dedup();
    assert!(
        qualities.len() > 1,
        "seeds should produce different samples"
    );
}
