//! Differential test for the [`KoganParter`] trait adapter: building
//! through the trait must be byte-identical to running the pipeline's
//! free functions with the seed the adapter draws (the first `next_u64`
//! of the caller's RNG).

use lcs_core::{centralized_shortcuts, prune_to_trees, KoganParter, KpParams};
use lcs_graph::{gnp_connected, Graph, HighwayGraph, HighwayParams};
use lcs_shortcut::{Partition, ShortcutBuilder};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn highway() -> (Graph, Partition) {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 20,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph().clone();
    let p = Partition::new(&g, hw.path_parts()).unwrap();
    (g, p)
}

fn pipeline(
    g: &Graph,
    p: &Partition,
    d: u32,
    seed: u64,
    pruned: bool,
) -> lcs_shortcut::ShortcutSet {
    let params = KpParams::new(g.n(), d).unwrap();
    let raw = centralized_shortcuts(g, p, params, seed);
    if pruned {
        prune_to_trees(g, p, &raw.shortcuts, params.depth_limit()).shortcuts
    } else {
        raw.shortcuts
    }
}

#[test]
fn kogan_parter_backend_matches_pipeline() {
    let (g, p) = highway();
    for rng_seed in [1u64, 2, 3] {
        for pruned in [true, false] {
            let backend = KoganParter {
                diameter: Some(4),
                pruned,
            };
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            let s = backend.build(&g, &p, &mut rng);
            // The adapter's pipeline seed is its single RNG draw.
            let pipeline_seed = ChaCha8Rng::seed_from_u64(rng_seed).next_u64();
            let free = pipeline(&g, &p, 4, pipeline_seed, pruned);
            assert_eq!(s, free, "seed {rng_seed}, pruned {pruned}");
        }
    }
}

#[test]
fn measured_diameter_matches_supplied_diameter() {
    // On a random connected graph, letting the backend measure D must
    // agree with supplying the measured value explicitly.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let g = gnp_connected(50, 0.08, &mut rng);
    let p = Partition::bfs_balls(&g, 5, &mut rng);
    let d = lcs_graph::exact_diameter(&g).unwrap().max(3);

    let auto = KoganParter::default();
    let fixed = KoganParter {
        diameter: Some(d),
        ..KoganParter::default()
    };
    let mut r1 = ChaCha8Rng::seed_from_u64(4);
    let mut r2 = ChaCha8Rng::seed_from_u64(4);
    assert_eq!(auto.build(&g, &p, &mut r1), fixed.build(&g, &p, &mut r2));
}
