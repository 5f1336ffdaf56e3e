// MST on a constant-diameter "social network": the paper's motivating
// scenario (§1: real-world networks have tiny diameter independent of
// size). Builds a hub-and-spoke graph with measured diameter ≤ 4,
// computes the MST through the shortcut framework, with every MWOE
// aggregation run on the CONGEST engine, and verifies it against
// Kruskal.
//
// Run with: `cargo run --release --example social_network_mst`

use low_congestion_shortcuts::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    // 2000 members, 12 highly-connected hubs, everyone follows 2 hubs
    // and one random peer; link weights = interaction costs.
    let g = lcs_graph::hub_and_spoke(2000, 12, 2, 1, &mut rng);
    let d = exact_diameter(&g).expect("connected");
    println!(
        "social network: n={} m={} measured diameter={}",
        g.n(),
        g.m(),
        d
    );
    let wg = WeightedGraph::with_random_weights(g, 10_000, &mut rng);

    let reference = kruskal(&wg);
    println!("reference MST weight (Kruskal): {}", reference.weight);

    for strategy in [
        ShortcutStrategy::KoganParter,
        ShortcutStrategy::GlobalTree,
        ShortcutStrategy::Trivial,
    ] {
        let cfg = MstConfig {
            strategy,
            diameter: Some(d.max(3)),
            seed: 7,
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).expect("mst computes");
        assert_eq!(
            out.weight, reference.weight,
            "strategy {strategy} wrong tree"
        );
        assert_eq!(out.edges, reference.edges, "strategy {strategy} wrong tree");
        let aggregation: u64 = out.phase_costs.iter().map(|p| p.aggregation_rounds).sum();
        println!(
            "{strategy:>14}: {} phases, {} rounds ({} charged for construction, {aggregation} \
             aggregation), {} messages",
            out.phases,
            out.total_rounds,
            out.total_rounds - aggregation,
            out.messages
        );
    }
    println!("all strategies produced the exact MST — they differ only in rounds.");
}
