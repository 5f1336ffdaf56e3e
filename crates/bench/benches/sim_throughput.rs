//! Criterion microbenchmarks of the CONGEST engine's throughput: the
//! raw arc-mailbox message path, multi-BFS (the acceptance workload of
//! the arc-indexed engine rewrite), and sharded round execution.
//!
//! The `sim_throughput` binary measures the same workloads at full scale
//! and emits `BENCH_sim.json`; these benches track the trend at
//! criterion-friendly sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcs_bench::sim_workloads::{multi_bfs_spec, Saturate};
use lcs_congest::{MultiBfs, MultiBfsSpec, Session, SimConfig};
use lcs_graph::generators;
use std::sync::Arc;

fn bench_engine_message_path(c: &mut Criterion) {
    let g = generators::grid(40, 40);
    c.bench_function("engine_saturate_n1600", |b| {
        b.iter(|| {
            Session::new(&g, SimConfig::default())
                .run(Saturate::new(30))
                .unwrap()
        })
    });
}

fn run_bundle(g: &lcs_graph::Graph, spec: Arc<MultiBfsSpec>, cfg: &SimConfig) {
    Session::new(g, cfg.clone())
        .run(MultiBfs::new(spec))
        .unwrap();
}

fn bench_multi_bfs_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_multi_bfs");
    for &n_side in &[30usize, 50] {
        let g = generators::grid(n_side, n_side);
        let spec = multi_bfs_spec(g.n(), 16);
        group.bench_with_input(BenchmarkId::from_parameter(n_side * n_side), &g, |b, g| {
            b.iter(|| run_bundle(g, Arc::clone(&spec), &SimConfig::default()))
        });
    }
    group.finish();
}

fn bench_sharded_rounds(c: &mut Criterion) {
    let g = generators::grid(50, 50);
    let spec = multi_bfs_spec(g.n(), 16);
    let mut group = c.benchmark_group("sim_shards");
    for &shards in &[1usize, 2, 4, 8] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(shards), &cfg, |b, cfg| {
            b.iter(|| run_bundle(&g, Arc::clone(&spec), cfg))
        });
    }
    group.finish();
}

/// Shard-sweep of pure idle-round cost under the event-driven active
/// set: every node but one quiesces after round 0 and a single clock
/// node stays awake 100 rounds. An idle round runs O(1) work — and at
/// shards > 1 runs inline on the coordinator (no barrier crossing), so
/// the trace should be flat across shard counts. (The full-scan engine
/// this replaced paid O(n) node calls plus the barrier per round here.)
fn bench_pool_round_overhead(c: &mut Criterion) {
    use lcs_bench::sim_workloads::Clock;
    let g = generators::grid(40, 40);
    let mut group = c.benchmark_group("sim_pool_idle_rounds");
    for &shards in &[1usize, 2, 4, 8] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(shards), &cfg, |b, cfg| {
            b.iter(|| {
                let mut session = Session::new(&g, cfg.clone());
                session.run(Clock::new(100)).unwrap();
                assert_eq!(session.stats().rounds, 100);
            })
        });
    }
    group.finish();
}

/// Sparse-frontier BFS down a long path: 1–2 active nodes per round for
/// n rounds. The event-driven engine's rounds cost O(active), so this
/// completes in O(n) total; the full-scan engine paid O(n) per round.
fn bench_sparse_path_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_sparse_bfs");
    for &n in &[1_000usize, 4_000] {
        let g = generators::path(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let out = Session::new(g, SimConfig::default())
                    .run(lcs_congest::Bfs::new(0))
                    .unwrap();
                assert_eq!(out.depth() as usize, n - 1);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_message_path,
    bench_multi_bfs_throughput,
    bench_sharded_rounds,
    bench_pool_round_overhead,
    bench_sparse_path_bfs
);
criterion_main!(benches);
