//! Pinned differential tests for the first-class `Session` path.
//!
//! This suite inherits the workloads of the retired free-function
//! wrapper suite (`distributed_bfs`, `tree_aggregate`, `prefix_number`,
//! `run_multi_bfs`, `run_multi_aggregate` ran these exact grid(6,7)
//! jobs before their removal): each protocol's outputs and `RunStats`
//! fingerprint must be identical between a 1-shard and a 4-shard
//! engine, and must match a centralized reference where one exists.
//! The pinned fingerprints therefore survive the wrapper removal — a
//! behavioural drift in any protocol still fails tier-1 here.

use lcs_congest::{
    positions_from_tree, AggOp, Bfs, MultiAggregate, MultiBfs, MultiBfsInstance, MultiBfsSpec,
    Participation, PrefixNumber, Session, SimConfig, TreeAggregate,
};
use lcs_graph::{bfs_distances, generators, Graph, NodeId};
use std::sync::Arc;

fn cfg(shards: usize) -> SimConfig {
    SimConfig {
        shards,
        ..SimConfig::default()
    }
}

/// The shared workload graph: a grid is dense enough to queue and
/// sparse enough to leave some nodes idle per round.
fn g() -> Graph {
    generators::grid(6, 7)
}

#[test]
fn bfs_pinned_across_shard_counts() {
    let g = g();
    let a = Session::new(&g, cfg(1)).run(Bfs::new(3)).expect("1 shard");
    let b = Session::new(&g, cfg(4)).run(Bfs::new(3)).expect("4 shards");
    assert_eq!(a.dist, b.dist);
    assert_eq!(a.parent, b.parent);
    assert_eq!(a.children, b.children);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.fingerprint(), b.stats.fingerprint());
    // Centralized reference: BFS distances are exact.
    let reference = bfs_distances(&g, 3);
    let got: Vec<u32> = a.dist.iter().map(|d| d.unwrap()).collect();
    assert_eq!(got, reference);
}

#[test]
fn tree_aggregate_pinned_across_shard_counts() {
    let g = g();
    let tree = Session::new(&g, cfg(1)).run(Bfs::new(0)).expect("tree");
    let pos = positions_from_tree(0, &tree.parent, &tree.children);
    let values: Vec<u64> = (0..g.n() as u64).map(|v| v * 7 + 1).collect();
    let (res_a, stats_a) = Session::new(&g, cfg(1))
        .run(TreeAggregate::new(pos.clone(), &values, AggOp::Sum, true))
        .expect("1 shard");
    let (res_b, stats_b) = Session::new(&g, cfg(4))
        .run(TreeAggregate::new(pos, &values, AggOp::Sum, true))
        .expect("4 shards");
    assert_eq!(res_a, res_b);
    assert_eq!(stats_a, stats_b);
    // The broadcast sum at every node is the centralized total.
    let total: u64 = values.iter().sum();
    assert!(res_a.iter().all(|r| *r == Some(total)));
}

#[test]
fn prefix_number_pinned_across_shard_counts() {
    let g = g();
    let tree = Session::new(&g, cfg(1)).run(Bfs::new(0)).expect("tree");
    let pos = positions_from_tree(0, &tree.parent, &tree.children);
    let marked: Vec<bool> = (0..g.n()).map(|v| v % 3 == 0).collect();
    let (ranks_a, total_a, stats_a) = Session::new(&g, cfg(1))
        .run(PrefixNumber::new(pos.clone(), &marked))
        .expect("1 shard");
    let (ranks_b, total_b, stats_b) = Session::new(&g, cfg(4))
        .run(PrefixNumber::new(pos, &marked))
        .expect("4 shards");
    assert_eq!(ranks_a, ranks_b);
    assert_eq!(total_a, total_b);
    assert_eq!(stats_a, stats_b);
    // Ranks are a permutation of 0..total over exactly the marked set.
    let marked_count = marked.iter().filter(|&&m| m).count() as u64;
    assert_eq!(total_a, marked_count);
    let mut ranks: Vec<u64> = ranks_a.iter().filter_map(|r| *r).collect();
    ranks.sort_unstable();
    assert_eq!(ranks, (0..total_a).collect::<Vec<_>>());
}

#[test]
fn multi_bfs_pinned_across_shard_counts() {
    let g = g();
    let spec = Arc::new(MultiBfsSpec {
        instances: (0..5u32)
            .map(|i| MultiBfsInstance {
                root: (i * 7) % g.n() as NodeId,
                start_round: u64::from(i % 3),
                depth_limit: u32::MAX,
            })
            .collect(),
        membership: |_, _, _| true,
        queue_cap: 0,
    });
    let a = Session::new(&g, cfg(1))
        .run(MultiBfs::new(Arc::clone(&spec)))
        .expect("1 shard");
    let b = Session::new(&g, cfg(4))
        .run(MultiBfs::new(spec))
        .expect("4 shards");
    assert_eq!(a.reached, b.reached);
    assert_eq!(a.max_queue, b.max_queue);
    assert_eq!(a.overflowed, b.overflowed);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn multi_aggregate_pinned_across_shard_counts() {
    let g = g();
    let tree = Session::new(&g, cfg(1)).run(Bfs::new(0)).expect("tree");
    let parts: Vec<Vec<Participation>> = (0..g.n())
        .map(|v| {
            (0..3u32)
                .map(|inst| Participation {
                    inst,
                    parent: tree.parent[v],
                    children: tree.children[v].clone(),
                    value: v as u64 + u64::from(inst) * 11,
                })
                .collect()
        })
        .collect();
    let a = Session::new(&g, cfg(1))
        .run(MultiAggregate::new(parts.clone(), AggOp::Max, true))
        .expect("1 shard");
    let b = Session::new(&g, cfg(4))
        .run(MultiAggregate::new(parts, AggOp::Max, true))
        .expect("4 shards");
    assert_eq!(a.results, b.results);
    assert_eq!(a.max_queue, b.max_queue);
    assert_eq!(a.stats, b.stats);
    // Centralized reference: instance `i`'s max is (n-1) + 11i.
    let n = g.n() as u64;
    for inst in 0..3u32 {
        assert_eq!(a.result_at(0, inst), Some(n - 1 + 11 * u64::from(inst)));
    }
}
