//! A joined phase allocates about what its sides allocate alone.
//!
//! `Join` runs each side's hook through capture buffers that the
//! engine's shard lends for one hook, so a node of a joined phase owns
//! nothing but its backlog of unsent messages. This binary counts every
//! heap allocation the process makes (its own `#[global_allocator]`,
//! hence its own test binary with a single test) and bounds a joined
//! pair of tree aggregations by the two run alone plus two allocations
//! per node.

use lcs_congest::{positions_from_tree, AggOp, Bfs, Session, SimConfig, TreeAggregate};
use lcs_graph::generators::{grid, path, star};
use lcs_graph::{Graph, HighwayGraph, HighwayParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting allocations (a `realloc` counts as
/// one, since it may move the block).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`
// and returns its result; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `n`-count and max-depth aggregations of the construction's
/// Phase A, over a BFS tree of `g` from node 0.
fn aggregations(g: &Graph) -> (TreeAggregate, TreeAggregate) {
    let bfs = Session::new(g, SimConfig::default())
        .run(Bfs::new(0))
        .unwrap();
    let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
    let depths: Vec<u64> = bfs.dist.iter().map(|d| u64::from(d.unwrap())).collect();
    (
        TreeAggregate::new(pos.clone(), &vec![1; g.n()], AggOp::Sum, true),
        TreeAggregate::new(pos, &depths, AggOp::Max, true),
    )
}

/// Allocations made by one phase, run on a fresh one-shard session
/// (the session's own set-up is not counted).
fn phase_allocations<T>(g: &Graph, phase: impl FnOnce(&mut Session<'_>) -> T) -> u64 {
    let mut session = Session::new(
        g,
        SimConfig {
            shards: 1,
            ..SimConfig::default()
        },
    );
    let before = ALLOCATIONS.load(Relaxed);
    let out = phase(&mut session);
    let made = ALLOCATIONS.load(Relaxed) - before;
    drop(out);
    made
}

#[test]
fn a_join_allocates_what_its_sides_do_plus_two_per_node() {
    let highway = HighwayGraph::new(HighwayParams {
        num_paths: 6,
        path_len: 40,
        diameter: 4,
    })
    .unwrap();
    let cases = [
        ("highway", highway.graph().clone()),
        ("grid", grid(16, 16)),
        ("path", path(300)),
        ("star", star(300)),
    ];
    for (name, g) in cases {
        let (sum, max) = aggregations(&g);
        let alone = phase_allocations(&g, |s| s.run(sum.clone()).unwrap())
            + phase_allocations(&g, |s| s.run(max.clone()).unwrap());
        let joined = phase_allocations(&g, |s| s.join(sum, max).unwrap());
        let n = g.n() as u64;
        assert!(
            joined <= alone + 2 * n,
            "{name}: the join made {joined} allocations, its sides {alone} alone, n = {n}"
        );
    }
}
