// Figure 1 & 2, executable: builds the auxiliary layered graph
// `G_{P,Q,ℓ}`, its BFS tree, the sampled forest `T*`, and walks the
// (i,k)-walk machinery of §3.1, printing each measured walk.
//
// Run with: `cargo run --release --example shortcut_tree_demo`

use lcs_core::WalkEnd;
use low_congestion_shortcuts::prelude::*;

fn main() {
    // Small instance so the printout stays readable: 2 paths of 14
    // columns, diameter 4 (one leaf level + root).
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 2,
        path_len: 14,
        diameter: 4,
    })
    .expect("valid parameters");
    let g = hw.graph();
    let params = KpParams::new(g.n(), 4).expect("params");
    println!(
        "instance: n={} m={} | k_D={:.2} p={:.3} reps={}",
        g.n(),
        g.m(),
        params.k,
        params.p,
        params.reps
    );

    // P = path 0; Q = the column leaves (distance 1 from every path
    // node); ell = 2 leaves room for one full copy layer.
    let path: Vec<NodeId> = (0..14).map(|c| hw.path_node(0, c)).collect();
    let q: Vec<NodeId> = (0..14).map(|c| hw.column_leaf(c)).collect();
    let ell = 2usize;

    for (label, p_sample) in [
        ("p = 0 (no sampling)", 0.0),
        ("p = paper", params.p),
        ("p = 1", 1.0),
    ] {
        let oracle = SampleOracle::new(7, p_sample, params.reps);
        let tree = ShortcutTree::new(g, &path, &q, ell, &oracle, path[13], 0)
            .expect("P within distance ell of Q");
        println!("\n--- {label} ---");
        println!(
            "auxiliary graph: {} nodes in {} layers (|P|={} leaves)",
            tree.aux_size(),
            ell + 2,
            tree.path_len()
        );
        for target in 2..=ell + 1 {
            let m = tree.walk_to_level(0, target).expect("valid target");
            let end = match m.end {
                WalkEnd::ReachedT => "reached t (walked the whole path)".to_string(),
                WalkEnd::ReachedLevel { vertex } => {
                    format!("reached level {target} at copy of node {vertex}")
                }
            };
            println!(
                "  (1,{}) walk: length {:>3}, {:>2} units, Obs 3.1 distinct: {} — {}",
                target, m.length, m.units, m.level_nodes_distinct, end
            );
        }
        if let Some(d) = tree.tstar_dist_to_layer(0, ell + 2) {
            println!("  dist_T*(s, root) = {d}");
        } else {
            println!("  root unreachable in T* (sampling too sparse)");
        }
    }
    println!(
        "\nreading: with p=0 every unit bounces on layer 2 and the walk crawls\n\
         along the path; at the paper's p the walk hops to the target level\n\
         within the Lemma 3.3 budget; with p=1 a single unit suffices."
    );
}
