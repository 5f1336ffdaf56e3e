//! Service-layer throughput benchmark: queries/sec of the
//! [`ServePool`] front-end as a function of pool
//! size and batch size, plus the **build-vs-query amortization curve**
//! — the wall-clock case for preprocess-once, query-many — emitted as
//! `BENCH_serve.json`.
//!
//! Usage: `serve_throughput [--quick] [--pools K[,K2,...]] [--out PATH]
//! [--check PATH]`
//!
//! `--quick` shrinks the workload to CI scale. `--pools` takes a
//! comma-separated sweep of pool sizes (pool size 1 is always measured
//! first as the baseline). For every `(pool, batch)` cell the run
//! records the batch fingerprint, and **exits nonzero if any pool
//! size's results diverge from the 1-worker run's** — CI runs `--quick`
//! and relies on that exit code as the serve determinism gate.
//!
//! `--check PATH` compares the run against a committed
//! `BENCH_serve.json` instead of writing one: the modes and the
//! `(pool, batch)` cells must match (exit 2 if not), and every cell's
//! fingerprint must equal the committed one (exit 1 if not). CI runs
//! `--quick --pools 1,4 --check BENCH_serve.json`, so a change to any
//! served answer fails the build until the file is regenerated.
//!
//! The latency section times single-query `serve` calls on a fresh
//! 1-worker pool, [`LATENCY_CALLS`] per query kind (SSSP, aggregate,
//! MST, min-cut), and records each kind's p50 and p99 wall time. It is
//! wall time, so `--check` does not compare it. The first MST call
//! computes the customization's answer and the rest reuse it, so the
//! MST p99 is the computation and its p50 the reuse.
//!
//! The amortization section times, for N ∈ {1, 4, 16, ...}:
//!
//! * `one_shot_s` — N × (full distributed construction + one answer),
//!   the cost of treating every request as a fresh pipeline run;
//! * `indexed_s`  — 1 × construction + N index-served answers.
//!
//! Serving N ≥ 16 mixed queries from one index must beat N one-shot
//! runs by ≥ 5× (the construction is repaid once instead of N times).

use lcs_bench::{json_str, value_flag};
use lcs_congest::AggOp;
use lcs_core::{build_index_distributed, DistributedConfig};
use lcs_graph::{HighwayGraph, HighwayParams, NodeId, WeightedGraph};
use lcs_serve::{per_query_seed, Query, ServePool};
use lcs_shortcut::{Partition, ShortcutIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's mixed query stream: the four kinds round-robin, so
/// every cell exercises SSSP, aggregation, MST, and min-cut together.
fn mixed_queries(count: usize, n: usize) -> Vec<Query> {
    (0..count)
        .map(|i| match i % 4 {
            0 => Query::sssp(((i * 13) % n) as NodeId),
            1 => Query::Aggregate {
                op: if i % 8 == 1 { AggOp::Sum } else { AggOp::Max },
            },
            2 => Query::Mst,
            _ => Query::MinCut,
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Cell {
    pool: usize,
    batch: usize,
    elapsed_s: f64,
    fingerprint: u64,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"pool\":{},\"batch\":{},\"elapsed_s\":{:.6},",
                "\"queries_per_s\":{:.1},\"fingerprint\":\"{:#018x}\"}}"
            ),
            self.pool,
            self.batch,
            self.elapsed_s,
            self.batch as f64 / self.elapsed_s,
            self.fingerprint,
        )
    }
}

/// Single-query calls timed per query kind.
const LATENCY_CALLS: usize = 30;

/// One query kind's latency over [`LATENCY_CALLS`] single-query calls.
#[derive(Debug, Clone)]
struct Latency {
    kind: &'static str,
    p50_s: f64,
    p99_s: f64,
}

impl Latency {
    /// Nearest-rank percentiles of the per-call wall times.
    fn of(kind: &'static str, mut secs: Vec<f64>) -> Self {
        secs.sort_by(f64::total_cmp);
        let rank = |q: f64| secs[((q * secs.len() as f64).ceil() as usize).max(1) - 1];
        Latency {
            kind,
            p50_s: rank(0.50),
            p99_s: rank(0.99),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"calls\":{},\"p50_s\":{:.9},\"p99_s\":{:.9}}}",
            self.kind, LATENCY_CALLS, self.p50_s, self.p99_s
        )
    }
}

/// Times [`LATENCY_CALLS`] single-query `serve` calls per query kind
/// on a fresh 1-worker pool over `index`.
fn per_kind_latency(index: &Arc<ShortcutIndex>, n: usize, batch_seed: u64) -> Vec<Latency> {
    const AGG_OPS: [AggOp; 3] = [AggOp::Sum, AggOp::Max, AggOp::Min];
    let query = |kind: &str, i: usize| match kind {
        "sssp" => Query::sssp(((i * 13) % n) as NodeId),
        "aggregate" => Query::Aggregate { op: AGG_OPS[i % 3] },
        "mst" => Query::Mst,
        _ => Query::MinCut,
    };
    let pool = ServePool::new(Arc::clone(index), 1);
    ["sssp", "aggregate", "mst", "mincut"]
        .into_iter()
        .map(|kind| {
            let secs = (0..LATENCY_CALLS)
                .map(|i| {
                    let q = query(kind, i);
                    let t = Instant::now();
                    pool.serve(&[q], per_query_seed(batch_seed, i));
                    t.elapsed().as_secs_f64()
                })
                .collect();
            let l = Latency::of(kind, secs);
            eprintln!(
                "latency {:>9}: p50 {:.9}s  p99 {:.9}s  ({LATENCY_CALLS} calls)",
                l.kind, l.p50_s, l.p99_s
            );
            l
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Amortization {
    n_queries: usize,
    one_shot_s: f64,
    indexed_s: f64,
}

impl Amortization {
    fn speedup(&self) -> f64 {
        self.one_shot_s / self.indexed_s
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"n_queries\":{},\"one_shot_s\":{:.6},",
                "\"indexed_s\":{:.6},\"speedup\":{:.2}}}"
            ),
            self.n_queries,
            self.one_shot_s,
            self.indexed_s,
            self.speedup(),
        )
    }
}

/// The `(pool, batch, fingerprint)` of every throughput cell in a
/// `BENCH_serve.json` this bench wrote.
fn committed_cells(json: &str) -> Vec<(usize, usize, &str)> {
    json.split("{\"pool\":")
        .skip(1)
        .filter_map(|cell| {
            let (pool, rest) = cell.split_once(",\"batch\":")?;
            let (batch, rest) = rest.split_once(',')?;
            let (_, rest) = rest.split_once("\"fingerprint\":\"")?;
            let (fingerprint, _) = rest.split_once('"')?;
            Some((pool.parse().ok()?, batch.parse().ok()?, fingerprint))
        })
        .collect()
}

/// `--check`: exits 2 unless `path` holds a run of the same mode with
/// the same cells, and 1 unless every cell's fingerprint matches.
fn check_against(path: &str, mode: &str, cells: &[Cell]) {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("serve_throughput --check: cannot read {path}: {e}"));
    let want_mode = json_str(&committed, "mode").unwrap_or("?");
    if want_mode != mode {
        eprintln!(
            "serve_throughput: committed {path} is a \"{want_mode}\" run; \
             this is a \"{mode}\" run — modes must match to compare"
        );
        std::process::exit(2);
    }
    let want = committed_cells(&committed);
    let mut regressed = false;
    for cell in cells {
        let got = format!("{:#018x}", cell.fingerprint);
        match want
            .iter()
            .find(|&&(pool, batch, _)| pool == cell.pool && batch == cell.batch)
        {
            Some(&(_, _, fp)) if fp == got => {}
            Some(&(_, _, fp)) => {
                regressed = true;
                eprintln!(
                    "SERVE REGRESSION: pool {} batch {} fingerprint {got} does not match \
                     committed {fp} in {path}",
                    cell.pool, cell.batch
                );
            }
            None => {
                eprintln!(
                    "serve_throughput: {path} has no pool {} batch {} cell — \
                     pool sweeps must match to compare",
                    cell.pool, cell.batch
                );
                std::process::exit(2);
            }
        }
    }
    if regressed {
        eprintln!("(rerun without --check, with `--out {path}`, to regenerate if intentional)");
        std::process::exit(1);
    }
    eprintln!("serve fingerprint check: ok ({} cells)", cells.len());
}

fn parse_pool_sweep(args: &[String]) -> Vec<usize> {
    let flag = args.iter().position(|a| a == "--pools");
    let raw = flag.and_then(|i| args.get(i + 1));
    if flag.is_some() && raw.is_none_or(|v| v.starts_with("--")) {
        eprintln!("serve_throughput: --pools requires a value (e.g. --pools 1,4)");
        std::process::exit(2);
    }
    let mut sweep = vec![1usize];
    if let Some(raw) = raw {
        for piece in raw.split(',') {
            match piece.trim().parse::<usize>() {
                Ok(k) if k >= 1 => {
                    if !sweep.contains(&k) {
                        sweep.push(k);
                    }
                }
                _ => {
                    eprintln!("serve_throughput: bad --pools value {piece:?}");
                    std::process::exit(2);
                }
            }
        }
    } else {
        sweep.push(4);
    }
    sweep
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pool_sweep = parse_pool_sweep(&args);
    let out_path = value_flag(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let check_path = value_flag(&args, "--check");
    let mode = if quick { "quick" } else { "full" };

    // The constant-diameter highway workload the paper's lower bound
    // lives on: Γ vertex-disjoint paths through a D=4 core.
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: if quick { 4 } else { 8 },
        path_len: if quick { 12 } else { 40 },
        diameter: 4,
    })
    .expect("highway fixture");
    let g = hw.graph().clone();
    let partition = Partition::new(&g, hw.path_parts()).expect("path partition");
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let wg = WeightedGraph::with_random_weights(g, 100, &mut rng);
    // No `known_diameter`: a cold pipeline run doesn't get told D, it
    // pays the guess ladder — exactly the cost the index amortizes.
    let cfg = DistributedConfig::default();

    // --- Build (preprocess-once) ---
    let t = Instant::now();
    let (index, _) = build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
        .expect("construction on the highway fixture");
    let build_s = t.elapsed().as_secs_f64();
    let index = Arc::new(index);

    // Serialization sanity on the real artifact: save → load must be
    // byte-exact (the persisted index is what a deployment would mmap).
    let bytes = index.to_bytes();
    let reloaded = ShortcutIndex::from_bytes(&bytes).expect("reload");
    assert_eq!(reloaded, *index, "save/load must round-trip");
    eprintln!(
        "build: n={} m={} parts={} elapsed={build_s:.3}s index={} bytes",
        wg.graph().n(),
        wg.graph().m(),
        partition.num_parts(),
        bytes.len()
    );

    // --- Throughput grid: pool sizes × batch sizes ---
    let batch_sizes: &[usize] = if quick { &[4, 16, 64] } else { &[16, 64, 256] };
    let batch_seed = 0x5EED_BA7C;
    let mut cells: Vec<Cell> = Vec::new();
    let mut diverged = false;
    for &pool_size in &pool_sweep {
        let pool = ServePool::new(Arc::clone(&index), pool_size);
        for &batch in batch_sizes {
            let queries = mixed_queries(batch, wg.graph().n());
            // Warm once (thread spawn, allocator), then measure.
            pool.serve(&queries, batch_seed);
            let t = Instant::now();
            let served = pool.serve(&queries, batch_seed);
            let cell = Cell {
                pool: pool_size,
                batch,
                elapsed_s: t.elapsed().as_secs_f64(),
                fingerprint: served.fingerprint,
            };
            eprintln!(
                "pool={:>2} batch={:>4}  {:>9.1} queries/s  fingerprint={:#018x}",
                cell.pool,
                cell.batch,
                cell.batch as f64 / cell.elapsed_s,
                cell.fingerprint
            );
            cells.push(cell);
        }
    }
    // Serve determinism gate: every (pool > 1, batch) fingerprint must
    // equal the 1-worker fingerprint for the same batch.
    for cell in cells.iter().filter(|c| c.pool != 1) {
        let base = cells
            .iter()
            .find(|b| b.pool == 1 && b.batch == cell.batch)
            .expect("1-worker baseline measured first");
        if cell.fingerprint != base.fingerprint {
            diverged = true;
            eprintln!(
                "DETERMINISM VIOLATION: batch {} fingerprint {:#018x} at pool {} \
                 != {:#018x} at pool 1",
                cell.batch, cell.fingerprint, cell.pool, base.fingerprint
            );
        }
    }

    // --- Per-kind latency: single-query calls on a fresh pool ---
    let latency = per_kind_latency(&index, wg.graph().n(), batch_seed);

    // --- Amortization curve: N one-shot pipelines vs 1 build + N serves ---
    // Min-cut is excluded from this mix: one min-cut query costs about
    // one construction at quick scale and up to twice one at full scale
    // (0.35–0.56 ms vs 0.40 ms at n=61, 4.0–4.6 ms vs 2.5–3.3 ms at
    // n=361, medians on a 2-core host), so including it would measure
    // the query, not the construction the index repays. (It stays in
    // the throughput grid and the determinism gate above.)
    let amortized_queries = |count: usize, n: usize| -> Vec<Query> {
        (0..count)
            .map(|i| match i % 3 {
                0 => Query::sssp(((i * 13) % n) as NodeId),
                1 => Query::Aggregate { op: AggOp::Sum },
                _ => Query::Mst,
            })
            .collect()
    };
    let amortize_pool = ServePool::new(Arc::clone(&index), *pool_sweep.last().unwrap());
    let mut amortization: Vec<Amortization> = Vec::new();
    for &n_queries in &[1usize, 4, 16] {
        let queries = amortized_queries(n_queries, wg.graph().n());
        // One-shot: every request pays the full distributed
        // construction before it can answer anything.
        let session = amortize_pool.session();
        let t = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            let (one_shot_index, _) =
                build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
                    .expect("one-shot construction");
            let one_pool = ServePool::new(Arc::new(one_shot_index), 1);
            one_pool.serve(std::slice::from_ref(q), per_query_seed(batch_seed, i));
        }
        let one_shot_s = t.elapsed().as_secs_f64();
        // Indexed: construction repaid once, then served answers only.
        let t = Instant::now();
        let (rebuilt, _) = build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
            .expect("amortized construction");
        drop(rebuilt); // charged, then the prebuilt shared index serves
        for (i, q) in queries.iter().enumerate() {
            session.answer(q, per_query_seed(batch_seed, i));
        }
        let indexed_s = t.elapsed().as_secs_f64();
        let a = Amortization {
            n_queries,
            one_shot_s,
            indexed_s,
        };
        eprintln!(
            "amortization N={:>3}: one-shot {:.3}s vs indexed {:.3}s  ({:.1}x)",
            a.n_queries,
            a.one_shot_s,
            a.indexed_s,
            a.speedup()
        );
        amortization.push(a);
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"serve_throughput\",\n  \"mode\": \"{}\",\n",
            "  \"graph\": {{\"n\": {}, \"m\": {}, \"parts\": {}}},\n",
            "  \"build_s\": {:.6},\n  \"index_bytes\": {},\n",
            "  \"pool_sweep\": {:?},\n  \"determinism\": \"{}\",\n",
            "  \"throughput\": [\n    {}\n  ],\n",
            "  \"latency\": [\n    {}\n  ],\n",
            "  \"amortization\": [\n    {}\n  ]\n}}\n"
        ),
        mode,
        wg.graph().n(),
        wg.graph().m(),
        partition.num_parts(),
        build_s,
        bytes.len(),
        pool_sweep,
        if diverged { "DIVERGED" } else { "ok" },
        cells
            .iter()
            .map(Cell::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        latency
            .iter()
            .map(Latency::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        amortization
            .iter()
            .map(Amortization::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    match &check_path {
        Some(path) => check_against(path, mode, &cells),
        None => {
            std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
            eprintln!("wrote {out_path}");
        }
    }
    println!("{json}");
    if diverged {
        eprintln!("serve_throughput: served results diverged across pool sizes");
        std::process::exit(1);
    }
    eprintln!("serve determinism check: ok");
}
