//! Shared machinery for the cross-backend shortcut **quality bench**
//! (`quality_bench` binary, the tier-2 registry proptest, and the CI
//! fingerprint gate): the backend registry, the graph-family zoo
//! instantiations, per-cell measurement, and the FNV-1a result
//! fingerprint.
//!
//! A *cell* is one `(family, backend)` pair: the backend builds its
//! shortcuts on the family instance, the independent verifier checks
//! them against the backend's declared bound, quality is measured
//! exactly, and a partwise aggregation is simulated on the CONGEST
//! engine for a rounds/messages cost. Cells are deterministic — the
//! build RNG is seeded from the cell's name pair, every cell is built
//! twice and must match bit for bit, and the run fingerprint folds only
//! integer results (never timings), so CI can gate on it.

use lcs_congest::hash::Fnv;
use lcs_core::KoganParter;
use lcs_graph::{
    exact_diameter, grid_diagonals, k_chordal, k_tree, power_law, random_regular, Graph,
    HighwayGraph, HighwayParams,
};
use lcs_shortcut::{
    measure_quality, verify, AggregationSetup, DilationMode, GlobalTree, KitamuraSampling,
    Partition, ShortcutBuilder, Trivial,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// The seed of the families and cells `quality_bench` runs.
pub const SEED: u64 = 0xC0DE;

/// One graph-family instance of the bench: a named graph, a partition,
/// and the measured diameter the parameterized backends key on.
pub struct Family {
    /// Family name (stable; part of the fingerprint).
    pub name: &'static str,
    /// The instance graph.
    pub graph: Graph,
    /// The partition backends must shortcut.
    pub partition: Partition,
    /// Exact diameter of `graph`.
    pub d: u32,
}

fn balls(graph: &Graph, k: usize, seed: u64) -> Partition {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Partition::bfs_balls(graph, k, &mut rng)
}

/// The bench's graph families — the paper's highway hard instance plus
/// the structured zoo (`lcs_graph::generators::zoo`): planar,
/// bounded-treewidth, expander, power-law, and bounded-chordality
/// shapes, so each backend's family dependence is visible side by side.
/// Deterministic in `seed`.
pub fn families(quick: bool, seed: u64) -> Vec<Family> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, graph: Graph, partition: Partition| {
        let d = exact_diameter(&graph).expect("bench families are connected");
        out.push(Family {
            name,
            graph,
            partition,
            d,
        });
    };

    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 4,
        path_len: if quick { 12 } else { 40 },
        diameter: 4,
    })
    .expect("valid highway parameters");
    let g = hw.graph().clone();
    let p = Partition::new(&g, hw.path_parts()).expect("path parts are valid");
    push("highway_d4", g, p);

    let side = if quick { 8 } else { 16 };
    let g = grid_diagonals(side, side);
    let p = balls(&g, 6, seed ^ 1);
    push("grid_diag", g, p);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 2);
    let g = k_tree(if quick { 60 } else { 200 }, 3, &mut rng);
    let p = balls(&g, 6, seed ^ 2);
    push("k_tree", g, p);

    // d-regular graphs from the configuration model are connected whp;
    // retry the seed deterministically until one is (diameter defined).
    let n = if quick { 64 } else { 200 };
    let g = (0..64u64)
        .find_map(|attempt| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 3 ^ (attempt << 32));
            let g = random_regular(n, 4, &mut rng);
            exact_diameter(&g).map(|_| g)
        })
        .expect("a connected 4-regular sample in 64 attempts");
    let p = balls(&g, 6, seed ^ 3);
    push("expander", g, p);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 4);
    let g = power_law(if quick { 80 } else { 250 }, 2, &mut rng);
    let p = balls(&g, 6, seed ^ 4);
    push("power_law", g, p);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 5);
    let g = k_chordal(if quick { 70 } else { 220 }, 5, &mut rng);
    let p = balls(&g, 6, seed ^ 5);
    push("k_chordal", g, p);

    out
}

/// Every registered backend, parameterized for an instance of diameter
/// `d`. Inapplicable backends (e.g. Kitamura sampling off `D ∈ {3,4}`)
/// are still returned — callers skip them via
/// [`ShortcutBuilder::applicable`], so skips are visible, not silent.
pub fn registry(d: u32) -> Vec<Box<dyn ShortcutBuilder>> {
    vec![
        Box::new(Trivial),
        Box::new(GlobalTree::default()),
        Box::new(KoganParter {
            diameter: Some(d.max(3)),
            pruned: true,
        }),
        Box::new(lcs_shortcut::TreeSeparator::default()),
        Box::new(lcs_shortcut::CappedGrowth::default()),
        Box::new(KitamuraSampling {
            d,
            prob_constant: 1.0,
        }),
    ]
}

/// One measured `(family, backend)` cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Family name.
    pub family: String,
    /// Backend name.
    pub backend: String,
    /// Backend parameters, rendered `key=value`.
    pub params: String,
    /// Nodes / edges / parts of the instance.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Part count.
    pub num_parts: usize,
    /// Total shortcut edges across parts.
    pub shortcut_edges: usize,
    /// Measured congestion.
    pub congestion: u32,
    /// Measured dilation.
    pub dilation: u32,
    /// Declared (certified) bound, when the backend has one.
    pub declared: Option<(u32, u32)>,
    /// Simulated partwise-aggregation rounds on the CONGEST engine.
    pub rounds: u64,
    /// Simulated partwise-aggregation messages.
    pub messages: u64,
}

/// Runs one cell: double-builds (in-run determinism self-check),
/// verifies against the declared bound, measures exact quality, checks
/// what stripping the shortcuts keeps, and simulates one partwise
/// Sum-aggregation with broadcast.
///
/// # Panics
///
/// Panics if the two builds diverge, verification fails, the stripped
/// shortcuts change a part's dilation, load an edge more or build other
/// trees, a tree has a leaf outside its part, or the aggregation
/// simulation errors — a bench with a broken cell must not emit a
/// fingerprint.
pub fn run_cell(family: &Family, backend: &dyn ShortcutBuilder) -> Cell {
    let cell_seed = {
        let mut f = Fnv::new();
        f.str(family.name);
        f.str(backend.name());
        f.finish()
    };
    let mut r1 = ChaCha8Rng::seed_from_u64(cell_seed);
    let mut r2 = ChaCha8Rng::seed_from_u64(cell_seed);
    let shortcuts = backend.build(&family.graph, &family.partition, &mut r1);
    let again = backend.build(&family.graph, &family.partition, &mut r2);
    assert_eq!(
        shortcuts,
        again,
        "{}/{}: build is not deterministic",
        family.name,
        backend.name()
    );

    let declared = backend.declared_bound(&family.graph, &family.partition);
    verify(
        &family.graph,
        &family.partition,
        &shortcuts,
        declared,
        DilationMode::Exact,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{}/{}: verification failed: {e:?}",
            family.name,
            backend.name()
        )
    });
    let report = measure_quality(
        &family.graph,
        &family.partition,
        &shortcuts,
        DilationMode::Exact,
    );

    let at = format!("{}/{}", family.name, backend.name());
    let stripped = shortcuts.stripped(&family.graph, &family.partition);
    let kept = measure_quality(
        &family.graph,
        &family.partition,
        &stripped,
        DilationMode::Exact,
    );
    assert_eq!(
        kept.per_part_dilation, report.per_part_dilation,
        "{at}: stripping changed a dilation"
    );
    assert!(
        kept.per_edge_congestion
            .iter()
            .zip(&report.per_edge_congestion)
            .all(|(after, before)| after <= before),
        "{at}: stripping raised a congestion"
    );
    let setup = AggregationSetup::build(&family.graph, &family.partition, &shortcuts);
    assert_eq!(
        AggregationSetup::build(&family.graph, &family.partition, &stripped),
        setup,
        "{at}: the stripped shortcuts build other trees"
    );
    for t in &setup.trees {
        let in_part = |v| family.partition.part_of(v) == Some(t.part as u32);
        let parents: HashSet<_> = t.members.iter().filter_map(|&(_, p)| p).collect();
        assert!(
            t.members
                .iter()
                .all(|&(v, _)| in_part(v) || parents.contains(&v)),
            "{at}: tree {} has a leaf outside its part",
            t.part
        );
    }
    let cfg = lcs_congest::SimConfig {
        shards: 1,
        ..lcs_congest::SimConfig::default()
    };
    let (_, outcome) = setup
        .aggregate_simulated(
            &family.graph,
            lcs_congest::AggOp::Sum,
            &|v, _| u64::from(v),
            true,
            &cfg,
        )
        .expect("aggregation simulates");

    Cell {
        family: family.name.to_string(),
        backend: backend.name().to_string(),
        params: backend
            .params()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(","),
        n: family.graph.n(),
        m: family.graph.m(),
        num_parts: family.partition.num_parts(),
        shortcut_edges: shortcuts.total_edges(),
        congestion: report.quality.congestion,
        dilation: report.quality.dilation,
        declared: declared.map(|q| (q.congestion, q.dilation)),
        rounds: outcome.stats.rounds,
        messages: outcome.stats.messages,
    }
}

impl Cell {
    /// Folds this cell's integer results into the run fingerprint.
    pub fn fold(&self, f: &mut Fnv) {
        f.str(&self.family).str(&self.backend).str(&self.params);
        f.u64(self.n as u64).u64(self.m as u64);
        f.u64(self.num_parts as u64).u64(self.shortcut_edges as u64);
        f.u64(u64::from(self.congestion))
            .u64(u64::from(self.dilation));
        let (dc, dd) = self
            .declared
            .map_or((u64::MAX, u64::MAX), |(c, d)| (u64::from(c), u64::from(d)));
        f.u64(dc).u64(dd);
        f.u64(self.rounds).u64(self.messages);
    }
}

/// Fingerprint of a full run: every cell folded in order.
pub fn fingerprint(cells: &[Cell]) -> u64 {
    let mut f = Fnv::new();
    for c in cells {
        c.fold(&mut f);
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every applicable quick cell passes `run_cell`'s checks, those of
    /// the strip included.
    #[test]
    fn every_quick_cell_runs() {
        let mut cells = 0;
        for family in families(true, SEED) {
            for backend in registry(family.d) {
                if backend.applicable(&family.graph, &family.partition) {
                    run_cell(&family, backend.as_ref());
                    cells += 1;
                }
            }
        }
        // The quick cells `BENCH_quality.json` records.
        assert_eq!(cells, 31);
    }
}
