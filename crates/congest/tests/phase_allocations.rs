//! A phase allocates per node, not per round.
//!
//! The engine keeps its per-round buffers (mailboxes, active lists,
//! shard reports) for the whole phase, so a long phase over a sparse
//! tree allocates what its node states need and a constant more. This
//! binary counts every heap allocation the process makes (its own
//! `#[global_allocator]`, hence its own test binary with a single test)
//! and bounds a one-shard tree aggregation on paths, whose rounds grow
//! with `n`, by `n` plus a constant.

use lcs_congest::{positions_from_tree, AggOp, Bfs, Protocol, Session, SimConfig, TreeAggregate};
use lcs_graph::generators::path;
use lcs_graph::Graph;
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

/// Allocations made by running `protocol` as one phase of a fresh
/// one-shard session (the session's set-up is not counted), and the
/// phase's rounds.
fn phase_allocations<P: Protocol + Sync>(g: &Graph, protocol: P) -> (u64, u64) {
    let mut session = Session::new(
        g,
        SimConfig {
            shards: 1,
            ..SimConfig::default()
        },
    );
    let before = ALLOCATIONS.load(Relaxed);
    let out = session.run(protocol).unwrap();
    let made = ALLOCATIONS.load(Relaxed) - before;
    drop(out);
    (made, session.stats().rounds)
}

#[test]
fn a_tree_aggregation_allocates_per_node_not_per_round() {
    for n in [300, 600, 1200] {
        let g = path(n);
        let bfs = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let sum = TreeAggregate::new(pos, &vec![1; n], AggOp::Sum, true);
        let (made, rounds) = phase_allocations(&g, sum);
        assert_eq!(rounds, 2 * n as u64 - 1, "path({n})");
        assert!(
            made <= n as u64 + 32,
            "path({n}): {made} allocations over {rounds} rounds"
        );
    }
}
