//! The distributed implementation of the shortcut construction (§2 of
//! the paper), executed on the CONGEST simulator.
//!
//! The protocol is a sequence of sub-protocols (each an honest CONGEST
//! algorithm run through `lcs-congest`; round and message counts are
//! summed across phases):
//!
//! * **Phase A** (once): BFS from an arbitrary root builds the global
//!   tree; one convergecast over it, of the pair `(1, depth)` folded by
//!   `(+, max)` and broadcast back, gives every node `n` and
//!   `ecc(root)` — i.e. a 2-approximation `D' = 2·ecc` of the diameter.
//! * **Phase B** (per diameter guess `D''`, walking
//!   [`guess_ladder`](crate::params::guess_ladder()) upward):
//!   1. *Largeness test*: truncated depth-`k_{D''}` BFS inside every
//!      part simultaneously (parts are disjoint — no congestion). A
//!      1-round reach-bit exchange tells each reached node whether a
//!      neighbour in its part was left unreached; a Max convergecast of
//!      that bit over the truncated trees tells each leader whether its
//!      part spanned, and `is_large` is what the leaders learned.
//!   2. *Numbering*: prefix-numbering of large-part leaders over the
//!      global tree gives each such leader a dense rank `i ∈ [0, N'')`,
//!      plus the total `N''`; ranks are broadcast within the truncated
//!      part trees.
//!   3. *Sampling + parallel BFS*: each node evaluates its Step-2 coins
//!      locally (PRF; keyed by the part **leader id**, so these are the
//!      same coins as the centralized construction); all `N''`
//!      truncated BFS trees grow concurrently with shared-randomness
//!      start delays, multiplexed through per-edge queues
//!      ([`lcs_congest::multi_bfs`]). Tokens carry the root id, as in
//!      the paper. Queue overflow (congestion enforcement) drops tokens.
//!      Each node logs, per instance that reached it, the arc its
//!      token arrived on.
//!   4. *Verification*: every node checks it was reached by the
//!      instance rooted at its own leader, the one numbered with its
//!      part's rank (nodes of small parts are satisfied by
//!      construction); a global AND convergecast accepts or rejects the
//!      guess.
//!
//! On acceptance, each `H_i` is the forest of parent edges of instance
//! `i` — the truncated BFS tree of `G[S_i] ∪ H_i`, which is exactly the
//! knowledge the real protocol leaves at the nodes. Each tree edge is
//! the edge of a logged arc, read without an adjacency search, and a
//! counting sort by edge id hands each part its list in ascending
//! order.

use crate::degrade::detect_and_excise;
use crate::odd::shared_delay;
use crate::params::{guess_ladder, KpParams, ParamError};
use crate::sampling::SampleOracle;
use lcs_congest::{
    ceil_log2, positions_from_tree, AggOp, Bfs, FaultPlan, MultiAggregate, MultiBfs,
    MultiBfsInstance, MultiBfsSpec, Participation, PrefixNumber, Reached, RunStats, Session,
    SimConfig, SimError, TreeAggregate,
};
use lcs_graph::{is_connected, EdgeId, Graph, NodeId};
use lcs_shortcut::{Partition, ShortcutSet};
use std::fmt;
use std::sync::Arc;

/// Configuration of the distributed construction.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Seed for all randomness (sampling PRF, shared delays, engine).
    pub seed: u64,
    /// Skip the guess ladder and use this diameter directly.
    pub known_diameter: Option<u32>,
    /// Queue capacity multiplier over `congestion_bound` (congestion
    /// enforcement; 0 disables the cap).
    pub queue_cap_factor: f64,
    /// Engine shards ([`SimConfig::shards`]) of the pipeline's
    /// [`Session`]: its persistent barrier-synchronized worker pool
    /// ([`lcs_congest::pool`]) is spawned once, with one thread per
    /// shard, and every phase reuses it. `0` (the default) auto-sizes
    /// to the machine; any value is bit-identical to `1`.
    pub shards: usize,
    /// Fault plan for the network ([`SimConfig::faults`]). With a plan
    /// attached, the pipeline first runs a **detection** phase on the
    /// faulty network — a [`Reliable`](lcs_congest::Reliable)-wrapped BFS + census convergecast
    /// — excises permanently crashed nodes (and anything they
    /// disconnect), and completes on the survivors, reporting a
    /// [`DegradedOutcome`].
    pub faults: Option<FaultPlan>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            seed: 0xFACE,
            known_diameter: None,
            queue_cap_factor: 1.0,
            shards: 0,
            faults: None,
        }
    }
}

/// Why the distributed construction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistributedError {
    /// The input graph is disconnected.
    Disconnected,
    /// No guess on the ladder produced verified shortcuts.
    NoGuessAccepted {
        /// The guesses tried.
        tried: Vec<u32>,
    },
    /// Parameter failure (e.g. `n < 2`).
    Params(ParamError),
    /// Engine failure.
    Sim(SimError),
}

impl fmt::Display for DistributedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributedError::Disconnected => write!(f, "input graph is disconnected"),
            DistributedError::NoGuessAccepted { tried } => {
                write!(f, "no diameter guess accepted (tried {tried:?})")
            }
            DistributedError::Params(e) => write!(f, "parameter error: {e}"),
            DistributedError::Sim(e) => write!(f, "simulator error: {e}"),
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<ParamError> for DistributedError {
    fn from(e: ParamError) -> Self {
        DistributedError::Params(e)
    }
}

impl From<SimError> for DistributedError {
    fn from(e: SimError) -> Self {
        DistributedError::Sim(e)
    }
}

/// Per-guess diagnostics.
#[derive(Debug, Clone)]
pub struct GuessReport {
    /// The diameter guess.
    pub guess: u32,
    /// Whether verification accepted.
    pub accepted: bool,
    /// Whether congestion enforcement dropped tokens.
    pub overflowed: bool,
    /// Rounds consumed by this guess.
    pub rounds: u64,
    /// Messages consumed by this guess.
    pub messages: u64,
    /// Number of large parts at this guess.
    pub num_large: usize,
    /// Longest per-edge queue observed in the parallel BFS.
    pub max_queue: usize,
}

pub use crate::degrade::DegradedOutcome;

/// Result of the distributed construction.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// The verified (tree-shaped) shortcuts.
    pub shortcuts: ShortcutSet,
    /// Largeness per part at the accepted guess.
    pub is_large: Vec<bool>,
    /// The accepted diameter guess.
    pub accepted_guess: u32,
    /// Parameters at the accepted guess.
    pub params: KpParams,
    /// Total rounds across all phases and guesses (including the
    /// bookkeeping constants documented in the module docs).
    pub total_rounds: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Per-guess diagnostics.
    pub guesses: Vec<GuessReport>,
    /// Aggregated engine statistics.
    pub stats: RunStats,
    /// Per-phase engine statistics (labeled), straight from the
    /// [`Session`] that executed the pipeline.
    pub phase_stats: Vec<RunStats>,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](DistributedConfig::faults): what graceful
    /// degradation excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

/// Runs the full distributed construction.
///
/// The whole multi-phase pipeline — global BFS, the `n`/`ecc` census
/// (one convergecast of a pair, [`TreeAggregate::folding`]), and every
/// per-guess sub-protocol — executes through **one** [`Session`]: a
/// single engine instance whose worker pool is spawned once, whose
/// statistics accumulate into one cumulative [`RunStats`] with a
/// per-phase breakdown ([`DistributedOutcome::phase_stats`]), and whose
/// rounds draw on one cumulative budget. Outcomes are bit-identical to
/// running each phase in a fresh engine, and to any shard count.
///
/// With a [`FaultPlan`](DistributedConfig::faults) attached the
/// pipeline is preceded by a detection phase on the faulty network
/// (reliable BFS + census convergecast), permanently crashed nodes and
/// anything they disconnect are excised, and the construction completes
/// on the survivors — see [`DegradedOutcome`].
///
/// # Errors
///
/// See [`DistributedError`].
pub fn distributed_shortcuts(
    graph: &Graph,
    partition: &Partition,
    cfg: &DistributedConfig,
) -> Result<DistributedOutcome, DistributedError> {
    if !is_connected(graph) {
        return Err(DistributedError::Disconnected);
    }
    match &cfg.faults {
        Some(plan) => degraded_shortcuts(graph, partition, cfg, plan),
        None => run_pipeline(graph, partition, cfg),
    }
}

/// The fault-free pipeline (Phases A and B of the module docs). A graph
/// on fewer than two nodes needs no shortcuts and is rejected before
/// Phase A, as [`KpParams::new`] would reject it after.
fn run_pipeline(
    graph: &Graph,
    partition: &Partition,
    cfg: &DistributedConfig,
) -> Result<DistributedOutcome, DistributedError> {
    let n = graph.n();
    if n < 2 {
        return Err(ParamError::GraphTooSmall(n).into());
    }
    let partition = Arc::new(partition.clone());
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        shards: cfg.shards,
        ..SimConfig::default()
    };
    // One engine for the whole pipeline. The cumulative budget is a
    // generous runaway cap (real pipelines use a few thousand rounds);
    // per-phase limits below stay the binding constraint.
    let mut session = Session::new(graph, sim_cfg).with_round_budget(32_000_000);
    // Rounds charged by accounting arguments rather than executed in
    // the simulator (shared-randomness dissemination, neighbor
    // bookkeeping, in-tree rank broadcasts).
    let mut accounted_rounds = 0u64;

    // ---- Phase A: global BFS; learn n and ecc(root). -----------------
    let root: NodeId = 0;
    let bfs_out = session.run_labeled("A.bfs", Bfs::new(root))?;
    let global_pos = positions_from_tree(root, &bfs_out.parent, &bfs_out.children);
    let ecc = bfs_out.depth();
    // One convergecast tells every node n and ecc: each contributes the
    // pair (1, depth), two words, folded by (+, max) and broadcast.
    let census: Vec<(u32, u32)> = bfs_out.dist.iter().map(|d| (1, d.unwrap_or(0))).collect();
    let (res, _) = session.run_labeled(
        "A.census",
        TreeAggregate::folding(
            global_pos.clone(),
            census,
            |(n1, h1), (n2, h2)| (n1 + n2, h1.max(h2)),
            true,
        ),
    )?;
    debug_assert_eq!(res[root as usize], Some((n as u32, ecc)));
    // Shared-randomness dissemination cost: O(D + log n) (Ghaffari'15).
    accounted_rounds += ecc as u64 + ceil_log2(n) as u64;
    let shared_word = lcs_congest::hash::splitmix64(cfg.seed ^ 0x5EED);

    // ---- Phase B: the guess ladder. -----------------------------------
    let ladder: Vec<u32> = match cfg.known_diameter {
        Some(d) => vec![d.max(3)],
        None => guess_ladder((2 * ecc).max(3)).collect(),
    };
    let mut guesses: Vec<GuessReport> = Vec::new();
    for &guess in &ladder {
        // The paper's sampling probability `p = k_D ln n / N`.
        let params = KpParams::new(n, guess)?;
        let before_rounds = session.rounds_used() + accounted_rounds;
        let before_msgs = session.stats().messages;

        // B0: one round of neighbor bookkeeping (part-leader exchange).
        accounted_rounds += 1;

        // B1: truncated per-part BFS (parts disjoint: zero congestion).
        let part_arc = Arc::clone(&partition);
        let membership_parts = lcs_congest::Membership::func(move |u, v, inst| {
            part_arc.part_of(u) == Some(inst) && part_arc.part_of(v) == Some(inst)
        });
        let b1_spec = Arc::new(MultiBfsSpec {
            instances: (0..partition.num_parts())
                .map(|i| MultiBfsInstance {
                    root: partition.leader(i),
                    start_round: 0,
                    depth_limit: params.k_ceil,
                })
                .collect(),
            membership: membership_parts,
            queue_cap: 0,
        });
        let b1 = session.run_labeled(format!("B1.parts@{guess}"), MultiBfs::new(b1_spec))?;
        // The reach-bit exchange (1 round) tells each reached node
        // whether a neighbour in its part was left unreached. A Max of
        // that bit over the truncated part trees, broadcast back, tells
        // each leader whether its part spanned: parts are connected, so
        // one did not exactly when such a neighbour exists.
        accounted_rounds += 1;
        let borders_unreached = |v: NodeId, inst: u32| {
            graph
                .neighbors(v)
                .iter()
                .any(|&w| partition.part_of(w) == Some(inst) && b1.reach(w, inst).is_none())
        };
        let parts_b1 = (0..n as NodeId)
            .map(|v| {
                b1.reached[v as usize]
                    .iter()
                    .map(|&(inst, r)| Participation {
                        inst,
                        parent: r.parent(graph),
                        children: b1.children_of(graph, v, inst),
                        value: u64::from(borders_unreached(v, inst)),
                    })
                    .collect()
            })
            .collect();
        let largeness = session.run_labeled(
            format!("B1.largeness@{guess}"),
            MultiAggregate::new(parts_b1, AggOp::Max, true),
        )?;
        let is_large: Vec<bool> = (0..partition.num_parts())
            .map(|i| largeness.result_at(partition.leader(i), i as u32) == Some(1))
            .collect();

        // B2: prefix-number the large-part leaders over the global tree.
        let marked: Vec<bool> = (0..n)
            .map(|v| {
                partition.part_of(v as NodeId).is_some_and(|i| {
                    partition.leader(i as usize) == v as NodeId && is_large[i as usize]
                })
            })
            .collect();
        let (ranks, total_large, _) = session.run_labeled(
            format!("B2.ranks@{guess}"),
            PrefixNumber::new(global_pos.clone(), &marked),
        )?;
        let num_large = total_large as usize;
        // Rank broadcast within truncated part trees: ≤ k_ceil + 1.
        accounted_rounds += params.k_ceil as u64 + 1;

        // rank <-> part index maps (engine-side view of leader
        // knowledge; after the broadcast, every member knows its
        // part's rank).
        let part_rank: Vec<Option<u32>> = (0..partition.num_parts())
            .map(|i| ranks[partition.leader(i) as usize].map(|r| r as u32))
            .collect();
        let mut rank_part: Vec<u32> = vec![u32::MAX; num_large];
        for (i, r) in part_rank.iter().enumerate() {
            if let Some(r) = r {
                rank_part[*r as usize] = i as u32;
            }
        }

        // B3: sampling (local PRF) + N'' parallel truncated BFS.
        let oracle = SampleOracle::new(cfg.seed, params.p, params.reps);
        let phase_len = ceil_log2(n) as u64;
        let instances: Vec<MultiBfsInstance> = (0..num_large)
            .map(|r| MultiBfsInstance {
                root: partition.leader(rank_part[r] as usize),
                start_round: shared_delay(shared_word, r as u32, params.k_ceil as u64) * phase_len,
                depth_limit: params.depth_limit(),
            })
            .collect();
        let queue_cap = if cfg.queue_cap_factor <= 0.0 {
            0
        } else {
            (params.congestion_bound() as f64 * cfg.queue_cap_factor).ceil() as usize
        };
        let b3_spec = Arc::new(MultiBfsSpec {
            instances,
            membership: oracle.membership(Arc::clone(&partition), &rank_part),
            queue_cap,
        });
        let b3_seed = cfg.seed ^ guess as u64;
        let b3_max_rounds = (params.round_budget() * 8).max(10_000);
        let b3 = match session.run_configured(
            format!("B3.parallel_bfs@{guess}"),
            MultiBfs::new(b3_spec),
            |c| {
                c.seed = b3_seed;
                c.max_rounds = b3_max_rounds;
            },
        ) {
            Ok(out) => out,
            Err(SimError::RoundLimitExceeded { .. }) => {
                // Budget exhausted: the guess fails; try the next one.
                // The session charged the aborted phase at its cap, so
                // `rounds_used` already reflects it.
                guesses.push(GuessReport {
                    guess,
                    accepted: false,
                    overflowed: true,
                    rounds: session.rounds_used() + accounted_rounds - before_rounds,
                    messages: session.stats().messages - before_msgs,
                    num_large,
                    max_queue: 0,
                });
                continue;
            }
            Err(e) => return Err(e.into()),
        };

        // B4: verification. satisfied(u) = not in a part, or part
        // small, or reached by its part's instance (the one numbered
        // with the part's rank, rooted at u's leader).
        let satisfied: Vec<u64> = (0..n as NodeId)
            .map(|v| {
                u64::from(match partition.part_of(v) {
                    Some(pi) if is_large[pi as usize] => {
                        part_rank[pi as usize].is_some_and(|r| b3.reach(v, r).is_some())
                    }
                    _ => true,
                })
            })
            .collect();
        let all_ok = satisfied.iter().all(|&s| s == 1) && !b3.overflowed;
        // Global AND convergecast + broadcast of the decision.
        session.run_labeled(
            format!("B4.verify@{guess}"),
            TreeAggregate::new(global_pos.clone(), &satisfied, AggOp::Min, true),
        )?;
        guesses.push(GuessReport {
            guess,
            accepted: all_ok,
            overflowed: b3.overflowed,
            rounds: session.rounds_used() + accounted_rounds - before_rounds,
            messages: session.stats().messages - before_msgs,
            num_large,
            max_queue: b3.max_queue,
        });

        if !all_ok {
            continue;
        }

        // Extract the tree shortcuts: parent edges of each instance.
        let per_part = tree_edge_lists(graph, &b3.reached, &rank_part, partition.num_parts());
        return Ok(DistributedOutcome {
            shortcuts: ShortcutSet::from_edge_lists(per_part),
            is_large,
            accepted_guess: guess,
            params,
            total_rounds: session.rounds_used() + accounted_rounds,
            total_messages: session.stats().messages,
            guesses,
            stats: session.stats().clone(),
            phase_stats: session.phases().to_vec(),
            degraded: None,
        });
    }
    Err(DistributedError::NoGuessAccepted { tried: ladder })
}

/// The tree edges of a parallel BFS, one list per part in ascending
/// edge-id order: the parent edge of every entry of the reach logs
/// `reached`, filed under part `rank_part[inst]`.
///
/// The entries are bucketed by part with exact counts, and each bucket
/// is put in order through one reused `m`-bit set, reading back only
/// the words between the lowest and highest it touched: no comparison
/// sort, and `O(m)` scratch besides the lists. An edge is a tree edge
/// of an instance at most once (its two endpoints cannot each have
/// adopted the other's token), so the read-back loses nothing.
fn tree_edge_lists(
    graph: &Graph,
    reached: &[Vec<(u32, Reached)>],
    rank_part: &[u32],
    num_parts: usize,
) -> Vec<Vec<EdgeId>> {
    let part = |inst: u32| rank_part[inst as usize] as usize;
    let mut lens = vec![0usize; num_parts];
    for &(inst, r) in reached.iter().flatten() {
        if r.parent_arc().is_some() {
            lens[part(inst)] += 1;
        }
    }
    let mut per_part: Vec<Vec<EdgeId>> = lens.into_iter().map(Vec::with_capacity).collect();
    for &(inst, r) in reached.iter().flatten() {
        if let Some(a) = r.parent_arc() {
            per_part[part(inst)].push(graph.arc_edge(a));
        }
    }
    let mut bits = vec![0u64; graph.m().div_ceil(64)];
    for edges in &mut per_part {
        let (mut lo, mut hi) = (bits.len(), 0);
        for e in edges.drain(..) {
            let w = e.index() / 64;
            bits[w] |= 1 << (e.index() % 64);
            lo = lo.min(w);
            hi = hi.max(w + 1);
        }
        // An empty bucket leaves `lo..hi` empty or reversed.
        let touched = bits.get_mut(lo..hi).unwrap_or_default();
        for (w, word) in (lo..).zip(touched) {
            let mut word = std::mem::take(word);
            while word != 0 {
                edges.push(EdgeId(w as u32 * 64 + word.trailing_zeros()));
                word &= word - 1;
            }
        }
    }
    per_part
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network,
/// excise the dead, and run the pipeline on the survivors.
///
/// Detection executes over [`Reliable`](lcs_congest::Reliable) links under the plan — a BFS
/// from node 0 (its reach IS the surviving component) followed by a
/// census convergecast over the BFS tree (the root learns the survivor
/// count; `count < n` is the detection signal). The remaining phases
/// then run on the excised subgraph over the same reliable transport;
/// since [`Reliable`](lcs_congest::Reliable) makes their outputs byte-identical to fault-free
/// runs (a tier-1 property of `lcs-congest`), they are simulated
/// fault-free, and only the detection overhead is charged as
/// [`DegradedOutcome::extra_rounds`].
fn degraded_shortcuts(
    graph: &Graph,
    partition: &Partition,
    cfg: &DistributedConfig,
    plan: &FaultPlan,
) -> Result<DistributedOutcome, DistributedError> {
    let exc = detect_and_excise(graph, plan, cfg.seed, cfg.shards)?;
    let sub_cfg = DistributedConfig {
        faults: None,
        ..cfg.clone()
    };
    let sub_g = exc.induced_graph(graph);
    let (sub_partition, sub_to_orig_part) = exc.split_partition(&sub_g, partition);
    let sub = run_pipeline(&sub_g, &sub_partition, &sub_cfg)?;

    // Map the result back to the original graph's ids.
    let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.num_parts()];
    let mut is_large = vec![false; partition.num_parts()];
    for (si, &oi) in sub_to_orig_part.iter().enumerate() {
        is_large[oi] |= sub.is_large[si];
        for &e in sub.shortcuts.edges(si) {
            per_part[oi].push(exc.original_edge(graph, &sub_g, e));
        }
    }
    let mut phase_stats = exc.phase_stats.clone();
    phase_stats.extend(sub.phase_stats);
    Ok(DistributedOutcome {
        shortcuts: ShortcutSet::from_edge_lists(per_part),
        is_large,
        accepted_guess: sub.accepted_guess,
        params: sub.params,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        total_messages: sub.total_messages + exc.messages,
        guesses: sub.guesses,
        stats: sub.stats,
        phase_stats,
        degraded: Some(exc.outcome()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::{centralized_shortcuts, classify_large};
    use lcs_graph::{HighwayGraph, HighwayParams};
    use lcs_shortcut::{measure_quality, verify, DilationMode};

    fn fixture(d: u32, paths: usize, len: usize) -> (Graph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: paths,
            path_len: len,
            diameter: d,
        })
        .unwrap();
        (hw.graph().clone(), {
            let g = hw.graph();
            Partition::new(g, hw.path_parts()).unwrap()
        })
    }

    #[test]
    fn distributed_construction_verifies_on_highway_d4() {
        let (g, p) = fixture(4, 4, 30);
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            ..DistributedConfig::default()
        };
        let out = distributed_shortcuts(&g, &p, &cfg).unwrap();
        assert_eq!(out.accepted_guess, 4);
        assert!(out.is_large.iter().all(|&l| l), "long paths are large");
        // The shortcut set is valid and meets the paper's bounds.
        let report = verify(&g, &p, &out.shortcuts, None, DilationMode::Exact).unwrap();
        assert!(
            (report.quality.dilation as u64) <= 2 * out.params.depth_limit() as u64,
            "dilation {}",
            report.quality.dilation
        );
        assert!(
            (report.quality.congestion as u64) <= out.params.congestion_bound(),
            "congestion {}",
            report.quality.congestion
        );
        assert!(out.total_rounds > 0 && out.total_messages > 0);
    }

    #[test]
    fn guess_ladder_reaches_acceptance() {
        let (g, p) = fixture(4, 3, 24);
        let cfg = DistributedConfig::default(); // unknown diameter
        let out = distributed_shortcuts(&g, &p, &cfg).unwrap();
        assert!(!out.guesses.is_empty());
        assert!(out.guesses.last().unwrap().accepted);
        // Ladder begins at max(3, ecc(0)/…): earlier guesses may fail,
        // later ones should be recorded in order.
        let tried: Vec<u32> = out.guesses.iter().map(|g| g.guess).collect();
        assert!(tried.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn distributed_rounds_within_budget() {
        let (g, p) = fixture(4, 4, 30);
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            ..DistributedConfig::default()
        };
        let out = distributed_shortcuts(&g, &p, &cfg).unwrap();
        // Õ(k_D) budget with our explicit constants.
        assert!(
            out.total_rounds <= out.params.round_budget() * 2,
            "rounds {} vs budget {}",
            out.total_rounds,
            out.params.round_budget()
        );
    }

    #[test]
    fn matches_centralized_quality_scale() {
        let (g, p) = fixture(4, 4, 30);
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            seed: 42,
            ..DistributedConfig::default()
        };
        let dist = distributed_shortcuts(&g, &p, &cfg).unwrap();
        let central = centralized_shortcuts(&g, &p, dist.params, 42);
        let dq = measure_quality(&g, &p, &dist.shortcuts, DilationMode::Exact).quality;
        let cq = measure_quality(&g, &p, &central.shortcuts, DilationMode::Exact).quality;
        // The distributed trees are prunings of (directionally
        // restricted) centralized shortcut sets with the same coins:
        // congestion can only be smaller; dilation within ~2x of the
        // raw centralized one (tree detour through the leader).
        assert!(dq.congestion <= cq.congestion);
        assert!(dq.dilation as u64 <= 4 * (cq.dilation as u64).max(1));
        assert_eq!(dist.is_large, central.is_large);
    }

    /// `is_large` is what each leader's B1 convergecast learned, and it
    /// is the centralized radius test on large and small parts alike.
    #[test]
    fn largeness_convergecast_classifies_mixed_parts() {
        let (g, p) = fixture(4, 4, 30);
        let v = p.part(2)[0];
        let w = *g
            .neighbors(v)
            .iter()
            .find(|&&w| p.part_of(w) == Some(2))
            .unwrap();
        let parts = vec![
            p.part(0).to_vec(),
            p.part(1).to_vec(),
            vec![v, w],
            vec![p.part(3)[0]],
        ];
        let mixed = Partition::new(&g, parts).unwrap();
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            ..DistributedConfig::default()
        };
        let out = distributed_shortcuts(&g, &mixed, &cfg).unwrap();
        assert_eq!(out.is_large, [true, true, false, false]);
        assert_eq!(out.is_large, classify_large(&g, &mixed, out.params.k_ceil));
        assert_eq!(out.guesses[0].num_large, 2);
    }

    #[test]
    fn small_parts_need_no_instances() {
        // Parts shorter than k: nothing to do, zero large parts.
        let (g, _) = fixture(4, 3, 24);
        let tiny_parts: Vec<Vec<NodeId>> = vec![vec![0, 1], vec![5, 6]];
        let p = Partition::new(&g, tiny_parts).unwrap();
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            ..DistributedConfig::default()
        };
        let out = distributed_shortcuts(&g, &p, &cfg).unwrap();
        assert!(out.is_large.iter().all(|&l| !l));
        assert_eq!(out.shortcuts.total_edges(), 0);
        assert!(out.guesses[0].accepted);
        assert_eq!(out.guesses[0].num_large, 0);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let p = Partition::new(&g, vec![vec![0, 1]]).unwrap();
        let err = distributed_shortcuts(&g, &p, &DistributedConfig::default()).unwrap_err();
        assert_eq!(err, DistributedError::Disconnected);
    }

    /// A graph without nodes needs no shortcuts: a parameter error in
    /// debug and release builds alike.
    #[test]
    fn empty_graph_is_too_small() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let p = Partition::new(&g, vec![]).unwrap();
        let err = distributed_shortcuts(&g, &p, &DistributedConfig::default()).unwrap_err();
        assert_eq!(err, DistributedError::Params(ParamError::GraphTooSmall(0)));
    }

    /// The same under a fault plan: detection on no nodes excises
    /// nothing, and the survivors are still too few.
    #[test]
    fn empty_graph_with_a_fault_plan_is_too_small() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let p = Partition::new(&g, vec![]).unwrap();
        let cfg = DistributedConfig {
            faults: Some(FaultPlan::drops(0.1, 3)),
            ..DistributedConfig::default()
        };
        let err = distributed_shortcuts(&g, &p, &cfg).unwrap_err();
        assert_eq!(err, DistributedError::Params(ParamError::GraphTooSmall(0)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, p) = fixture(4, 3, 24);
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            seed: 7,
            ..DistributedConfig::default()
        };
        let a = distributed_shortcuts(&g, &p, &cfg).unwrap();
        let b = distributed_shortcuts(&g, &p, &cfg).unwrap();
        assert_eq!(a.shortcuts, b.shortcuts);
        assert_eq!(a.total_rounds, b.total_rounds);
    }

    #[test]
    fn sharded_construction_is_bit_identical() {
        // End-to-end determinism contract of the worker pool: the whole
        // multi-phase construction — every phase a separate pooled
        // simulator run — is byte-equal to the sequential engine, for
        // even, odd, and oversubscribed shard counts.
        let (g, p) = fixture(4, 3, 24);
        let mk = |shards| DistributedConfig {
            known_diameter: Some(4),
            seed: 7,
            shards,
            ..DistributedConfig::default()
        };
        let seq = distributed_shortcuts(&g, &p, &mk(1)).unwrap();
        assert!(
            seq.phase_stats.len() >= 5,
            "the pipeline reports its phases"
        );
        for shards in [2, 3, 5, 8] {
            let par = distributed_shortcuts(&g, &p, &mk(shards)).unwrap();
            assert_eq!(par.shortcuts, seq.shortcuts, "shards={shards}");
            assert_eq!(par.total_rounds, seq.total_rounds);
            assert_eq!(par.stats, seq.stats);
            // The per-phase session breakdown — labels, rounds,
            // messages, per-edge histograms — must match too, not just
            // the cumulative totals.
            assert_eq!(par.phase_stats, seq.phase_stats, "shards={shards}");
            assert_eq!(
                par.stats.fingerprint(),
                seq.stats.fingerprint(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn degraded_construction_excises_crashed_part() {
        use lcs_congest::Crash;
        // Crash every node of one path-part at round 0, under drops and
        // delays too; the construction must excise it and verify
        // shortcuts for the surviving parts.
        let (g, p) = fixture(4, 4, 30);
        let mut dead_part: Vec<NodeId> = p.part(1).to_vec();
        dead_part.sort_unstable();
        assert!(!dead_part.contains(&0), "node 0 must survive");
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            faults: Some(FaultPlan {
                drop_rate: 0.05,
                delay_rate: 0.05,
                max_delay: 2,
                crashes: dead_part
                    .iter()
                    .map(|&v| Crash {
                        node: v,
                        at_round: 0,
                        recover_at: None,
                    })
                    .collect(),
                corrupt_rate: 0.0,
                fault_seed: 0xDEAD,
            }),
            ..DistributedConfig::default()
        };
        let out = distributed_shortcuts(&g, &p, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("faulty run reports degradation");
        assert!(deg.completed);
        assert_eq!(deg.excluded_nodes, dead_part);
        assert!(deg.extra_rounds > 0);
        // The dead part got no shortcuts; surviving large parts did.
        assert!(out.shortcuts.edges(1).is_empty());
        assert!(!out.is_large[1], "a dead part cannot be large");
        for i in [0usize, 2, 3] {
            assert!(out.is_large[i], "surviving long path {i} is large");
            assert!(!out.shortcuts.edges(i).is_empty());
        }
        // No shortcut edge touches a dead node.
        for i in 0..out.shortcuts.num_parts() {
            for &e in out.shortcuts.edges(i) {
                let (a, b) = g.edge_endpoints(e);
                assert!(!dead_part.contains(&a) && !dead_part.contains(&b));
            }
        }
        // Detection phases are first in the per-phase breakdown.
        assert!(out.phase_stats[0].label.starts_with("F.detect"));
    }

    /// Without permanent crashes the excision is empty and the outcome
    /// is the fault-free run's plus the detection bill: the same
    /// shortcuts, guesses and cumulative stats, the detection phases
    /// ahead of the fault-free ones.
    #[test]
    fn degraded_construction_without_crashes_matches_fault_free() {
        let (g, p) = fixture(4, 3, 24);
        let clean_cfg = DistributedConfig {
            known_diameter: Some(4),
            ..DistributedConfig::default()
        };
        let clean = distributed_shortcuts(&g, &p, &clean_cfg).unwrap();
        let plan = FaultPlan {
            drop_rate: 0.10,
            delay_rate: 0.10,
            max_delay: 2,
            corrupt_rate: 0.05,
            crashes: vec![],
            fault_seed: 21,
        };
        let cfg = DistributedConfig {
            faults: Some(plan.clone()),
            ..clean_cfg
        };
        let out = distributed_shortcuts(&g, &p, &cfg).unwrap();
        let exc = detect_and_excise(&g, &plan, cfg.seed, cfg.shards).unwrap();
        assert!(exc.excluded.is_empty());
        assert_eq!(out.shortcuts, clean.shortcuts, "reliability is exact");
        assert_eq!(out.is_large, clean.is_large);
        assert_eq!(out.accepted_guess, clean.accepted_guess);
        assert_eq!(out.params, clean.params);
        assert_eq!(out.total_rounds, clean.total_rounds + exc.extra_rounds);
        assert_eq!(out.total_messages, clean.total_messages + exc.messages);
        let rows = |o: &DistributedOutcome| -> Vec<_> {
            o.guesses
                .iter()
                .map(|r| {
                    let GuessReport {
                        guess,
                        accepted,
                        overflowed,
                        rounds,
                        messages,
                        num_large,
                        max_queue,
                    } = *r;
                    (
                        guess, accepted, overflowed, rounds, messages, num_large, max_queue,
                    )
                })
                .collect()
        };
        assert_eq!(rows(&out), rows(&clean));
        assert_eq!(out.stats, clean.stats);
        let phases: Vec<RunStats> = exc
            .phase_stats
            .iter()
            .chain(&clean.phase_stats)
            .cloned()
            .collect();
        assert_eq!(out.phase_stats, phases);
        assert_eq!(out.degraded, Some(exc.outcome()));
    }

    /// The bucketed read-back gives each part what collecting its
    /// instance's parent edges and sorting them gives, on overlapping
    /// instances that share a part-to-instance map with gaps.
    #[test]
    fn tree_edge_lists_are_the_sorted_parent_edges() {
        use lcs_congest::Membership;
        let g = lcs_graph::generators::grid(9, 11);
        let instances = (0..5)
            .map(|i| MultiBfsInstance {
                root: i * 19,
                start_round: u64::from(i % 2),
                depth_limit: 7,
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: Membership::func(|u, v, i| (u + v + i) % 5 != 0),
            queue_cap: 0,
        });
        let out = Session::new(&g, SimConfig::default())
            .run(MultiBfs::new(spec))
            .unwrap();
        let rank_part = [6, 0, 3, 5, 1];
        let mut expected: Vec<Vec<EdgeId>> = vec![Vec::new(); 8];
        for &(inst, r) in out.reached.iter().flatten() {
            if let Some(a) = r.parent_arc() {
                expected[rank_part[inst as usize] as usize].push(g.arc_edge(a));
            }
        }
        for edges in &mut expected {
            edges.sort_unstable();
        }
        assert!(expected.iter().filter(|e| !e.is_empty()).count() == 5);
        assert_eq!(tree_edge_lists(&g, &out.reached, &rank_part, 8), expected);
    }

    #[test]
    fn congestion_enforcement_can_reject() {
        // Absurdly small queue cap forces overflow and rejection at the
        // first guess; the ladder should still eventually accept (or
        // report the failure honestly).
        let (g, p) = fixture(4, 4, 30);
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            queue_cap_factor: 0.001,
            ..DistributedConfig::default()
        };
        match distributed_shortcuts(&g, &p, &cfg) {
            Ok(out) => {
                // If it somehow still spans, fine — but overflow must be
                // reported in the guess diagnostics.
                assert!(out.guesses.iter().any(|g| g.overflowed || g.accepted));
            }
            Err(DistributedError::NoGuessAccepted { tried }) => {
                assert_eq!(tried, vec![4]);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
