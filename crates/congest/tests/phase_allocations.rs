//! A phase allocates per node, not per round.
//!
//! The engine keeps its per-round buffers (mailboxes, active lists,
//! shard reports) for the whole phase, so a long phase over a sparse
//! tree allocates what its node states need and a constant more. This
//! binary counts every heap allocation the process makes (its own
//! `#[global_allocator]`, hence its own test binary, whose tests take
//! turns on one lock) and bounds two one-shard phases by their node
//! count: a tree aggregation on paths, whose rounds grow with `n`, by
//! `n` plus a constant, and a one-instance parallel BFS, whose nodes
//! each hold a cold box and a reach log, by `2n` plus a constant.

use lcs_congest::{
    positions_from_tree, AggOp, Bfs, MultiBfs, MultiBfsInstance, MultiBfsSpec, Protocol, Session,
    SimConfig, TreeAggregate,
};
use lcs_graph::generators::{grid, path};
use lcs_graph::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// The counter is process-wide, so each test holds this lock for its
/// whole body and no other test allocates inside its count.
static TURN: Mutex<()> = Mutex::new(());

/// Takes the lock. It guards no data, so a test that failed while
/// holding it leaves nothing to recover and the next one proceeds.
fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _turn = turn();
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

/// A parallel BFS node allocates its cold box and its reach log, and
/// nothing per acknowledgement it receives.
#[test]
fn a_one_instance_bundle_allocates_twice_per_node() {
    let _turn = turn();
    let g = grid(30, 30);
    let n = g.n() as u64;
    let spec = Arc::new(MultiBfsSpec {
        instances: vec![MultiBfsInstance {
            root: 0,
            start_round: 0,
            depth_limit: u32::MAX,
        }],
        membership: |_, _, _| true,
        queue_cap: 0,
    });
    let (made, rounds) = phase_allocations(&g, MultiBfs::new(spec));
    assert!(
        made <= 2 * n + 32,
        "grid(30, 30): {made} allocations over {rounds} rounds"
    );
}
