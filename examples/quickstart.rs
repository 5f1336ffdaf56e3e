// Quickstart: build a constant-diameter hard instance, compute the
// Kogan–Parter shortcuts three ways (centralized raw, pruned trees,
// fully distributed), and compare their quality against the baselines.
//
// Run with: `cargo run --release --example quickstart`

use low_congestion_shortcuts::prelude::*;

fn main() {
    // 1. Workload: 6 disjoint paths of 40 columns behind a diameter-4
    //    highway — the structure that makes shortcuts hard (Elkin's
    //    lower bound family).
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 6,
        path_len: 40,
        diameter: 4,
    })
    .expect("valid family parameters");
    let g = hw.graph();
    println!(
        "graph: n={} m={} diameter={:?}",
        g.n(),
        g.m(),
        exact_diameter(g)
    );

    // 2. Parts: one per path (vertex-disjoint, connected).
    let parts = Partition::new(g, hw.path_parts()).expect("valid parts");
    println!(
        "parts: {} paths of {} nodes",
        parts.num_parts(),
        parts.part(0).len()
    );

    // 3. Paper parameters: k_D = n^((D-2)/(2D-2)), N = n/k_D,
    //    p = k_D log n / N.
    let params = KpParams::new(g.n(), 4).expect("D >= 3");
    println!(
        "params: k_D={:.2} N={} p={:.3} reps={}",
        params.k, params.big_n, params.p, params.reps
    );

    // 4. Centralized construction + pruning to the BFS-tree form.
    let raw = centralized_shortcuts(g, &parts, params, 42);
    let pruned = prune_to_trees(g, &parts, &raw.shortcuts, params.depth_limit());

    // 5. Full CONGEST execution (diameter guessing included). The whole
    //    multi-phase pipeline runs through ONE engine session — a
    //    single worker-pool spawn, one cumulative budget, per-phase
    //    statistics.
    let dist = distributed_shortcuts(
        g,
        &parts,
        &DistributedConfig {
            seed: 42,
            ..DistributedConfig::default()
        },
    )
    .expect("construction verifies");
    println!(
        "distributed: accepted D''={} in {} rounds, {} messages, {} engine phases",
        dist.accepted_guess,
        dist.total_rounds,
        dist.total_messages,
        dist.phase_stats.len()
    );
    for phase in &dist.phase_stats {
        println!(
            "    phase {:>22}: {:>5} rounds {:>7} messages",
            phase.label, phase.rounds, phase.messages
        );
    }

    // 5b. The same composability is available directly: protocols are
    //     first-class values run through a `Session`, phase after
    //     phase. Two aggregations over one tree are one convergecast of
    //     a pair: (1, depth), folded by (+, max), gives n and ecc.
    let mut session = Session::new(g, SimConfig::default());
    let bfs = session.run(Bfs::new(0)).expect("bfs");
    let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
    let census: Vec<(u32, u32)> = bfs.dist.iter().map(|d| (1, d.unwrap_or(0))).collect();
    let (res, _) = session
        .run(TreeAggregate::folding(
            pos,
            census,
            |(n1, h1), (n2, h2)| (n1 + n2, h1.max(h2)),
            true,
        ))
        .expect("census");
    let (n_res, ecc_res) = res[0].expect("the root learns the census");
    println!(
        "session: n={n_res} ecc={ecc_res} from one {}-round convergecast ({} phases, {} total rounds)",
        session.phases()[1].rounds,
        session.phases().len(),
        session.stats().rounds,
    );

    // 6. Quality comparison.
    for (name, shortcuts) in [
        ("trivial (H=∅)", trivial_shortcuts(&parts)),
        ("global tree", global_tree_shortcuts(g, &parts, 0, Some(1))),
        ("KP raw", raw.shortcuts.clone()),
        ("KP pruned", pruned.shortcuts.clone()),
        ("KP distributed", dist.shortcuts.clone()),
    ] {
        let report =
            verify(g, &parts, &shortcuts, None, DilationMode::Exact).expect("valid shortcut set");
        println!("{name:>16}: {}", report.quality);
    }
    println!(
        "bounds: congestion <= {} dilation <= {}",
        params.congestion_bound(),
        params.dilation_bound()
    );
}
