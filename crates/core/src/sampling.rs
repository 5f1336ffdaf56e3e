//! The randomness of Step 2, shared by every execution mode.
//!
//! In the paper, each node `u ∉ S_i` samples each incident directed edge
//! `(u, v)` into `H_i` independently with probability `p`, `D`
//! independent times. We realize those coins with a keyed PRF
//! (SplitMix64 finalizer) over `(seed, sampler, head, instance,
//! repetition)`, which gives:
//!
//! * **local recomputability** — a node can evaluate its own coins
//!   without storage or communication, exactly like private randomness;
//! * **centralized/distributed agreement** — both constructions observe
//!   the *same* coins, enabling edge-level differential testing.

use lcs_congest::hash::splitmix64;
use lcs_graph::NodeId;
use lcs_shortcut::Partition;

/// `p` in integer form. A coin reads the 53 high bits `m` of its hash
/// as the fraction `m / 2^53`, and for an integer `m`, `m / 2^53 < p`
/// holds exactly when `m < ⌈p·2^53⌉` (scaling by a power of two is
/// exact; `p ≤ 0` or NaN gives 0, `p ≥ 1` at least `2^53`).
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Deterministic sampling oracle for Step 2 of the construction.
#[derive(Debug, Clone, Copy)]
pub struct SampleOracle {
    seed: u64,
    /// The per-direction per-repetition probability `p`, in integer
    /// form ([`threshold`]).
    threshold: u64,
    /// Number of repetitions.
    pub reps: u32,
}

impl SampleOracle {
    /// Creates an oracle with probability `p` and `reps` repetitions.
    pub fn new(seed: u64, p: f64, reps: u32) -> Self {
        SampleOracle {
            seed,
            threshold: threshold(p),
            reps,
        }
    }

    /// The key of arc `(sampler, head)`'s coins in instance `inst`: the
    /// wrapping sum of the seed and one term each for the sampler, the
    /// head and the instance. Repetition `rep` hashes `key + rep·2^40`.
    #[inline]
    fn key(&self, sampler: NodeId, head: NodeId, inst: u32) -> u64 {
        self.seed
            .wrapping_add(splitmix64(sampler as u64 + 1))
            .wrapping_add(splitmix64((head as u64 + 1) << 20))
            .wrapping_add(splitmix64(((inst as u64) << 1) ^ 0xA5A5))
    }

    #[inline]
    fn coin(&self, key: u64, rep: u32) -> bool {
        splitmix64(key.wrapping_add(u64::from(rep) << 40)) >> 11 < self.threshold
    }

    /// Whether any of the `reps` coins under `key` comes up, folded
    /// without a branch.
    #[inline]
    fn any_coin(&self, key: u64) -> bool {
        (0..self.reps).fold(false, |hit, rep| hit | self.coin(key, rep))
    }

    /// The coin: did `sampler` sample its directed edge `(sampler,
    /// head)` into instance `inst` at repetition `rep`?
    #[inline]
    pub fn sampled_by(&self, sampler: NodeId, head: NodeId, inst: u32, rep: u32) -> bool {
        self.coin(self.key(sampler, head, inst), rep)
    }

    /// Did `sampler` sample `(sampler, head)` into instance `inst` at
    /// any of the `reps` repetitions? Equal to `(0..reps).any(|r|
    /// self.sampled_by(sampler, head, inst, r))`, but the key is built
    /// once and the repetitions are tested without a branch.
    #[inline]
    pub fn sampled(&self, sampler: NodeId, head: NodeId, inst: u32) -> bool {
        self.any_coin(self.key(sampler, head, inst))
    }

    /// `G[S_j] ∪ H_j` as the membership predicate of a parallel BFS on
    /// an `n`-node graph: instance `i` grows inside part `j = parts[i]`,
    /// and a token crosses `u → v` when either endpoint lies in `S_j`
    /// (Step 1) or `u` sampled the arc with the coins keyed by `S_j`'s
    /// leader (Step 2).
    ///
    /// The key's terms are tabulated here, once per phase: `seed +
    /// splitmix64(v + 1)` and `splitmix64((v + 1) << 20)` per node,
    /// and the leader's term per instance. An arc test then loads two
    /// terms and adds them to the leader's before the `reps` coins.
    /// Wrapping addition commutes, so every coin is the one
    /// [`Self::sampled`] tosses, the centralized build's reference.
    pub fn membership<'p>(
        self,
        partition: &'p Partition,
        parts: &[u32],
        n: usize,
    ) -> impl Fn(NodeId, NodeId, u32) -> bool + Send + Sync + Clone + 'p {
        let sampler_terms: Vec<u64> = (1..=n as u64)
            .map(|v| self.seed.wrapping_add(splitmix64(v)))
            .collect();
        let head_terms: Vec<u64> = (1..=n as u64).map(|v| splitmix64(v << 20)).collect();
        let keyed: Vec<(u32, u64)> = parts
            .iter()
            .map(|&j| {
                let leader = u64::from(partition.leader(j as usize));
                (j, splitmix64((leader << 1) ^ 0xA5A5))
            })
            .collect();
        move |u, v, inst| {
            let (j, leader_term) = keyed[inst as usize];
            partition.part_of(u) == Some(j)
                || partition.part_of(v) == Some(j)
                || self.any_coin(
                    sampler_terms[u as usize]
                        .wrapping_add(head_terms[v as usize])
                        .wrapping_add(leader_term),
                )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coins_are_deterministic_and_key_sensitive() {
        let o = SampleOracle::new(7, 0.5, 3);
        let a = o.sampled_by(1, 2, 3, 0);
        assert_eq!(a, o.sampled_by(1, 2, 3, 0));
        // Direction matters.
        let flips: Vec<bool> = (0..64)
            .map(|i| o.sampled_by(1, 2, i, 0) != o.sampled_by(2, 1, i, 0))
            .collect();
        assert!(flips.iter().any(|&x| x), "directions must be independent");
        // Repetition matters.
        let rep_flips: Vec<bool> = (0..64)
            .map(|i| o.sampled_by(1, 2, i, 0) != o.sampled_by(1, 2, i, 1))
            .collect();
        assert!(rep_flips.iter().any(|&x| x));
    }

    #[test]
    fn empirical_rate_matches_p() {
        let p = 0.3;
        let o = SampleOracle::new(99, p, 1);
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|&i| o.sampled_by(i % 100, (i / 100) % 100, i % 37, 0))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - p).abs() < 0.02, "rate {rate} vs p {p}");
    }

    /// The integer threshold decides exactly as the float comparison
    /// `m / 2^53 < p` the coins were first written with, at and around
    /// every threshold.
    #[test]
    fn integer_threshold_is_the_float_comparison() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let exact = |m: u64| m as f64 * unit;
        let ps = [
            0.0,
            -0.5,
            f64::MIN_POSITIVE / 4.0,
            1e-9,
            0.05,
            0.3,
            0.5,
            exact(12_345),
            exact(12_345).next_up(),
            exact(12_345).next_down(),
            1.0f64.next_down(),
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for p in ps {
            let t = threshold(p);
            for m in [
                0,
                1,
                t.saturating_sub(2),
                t.saturating_sub(1),
                t,
                t.saturating_add(1),
            ]
            .into_iter()
            .filter(|&m| m < 1 << 53)
            {
                assert_eq!(m < t, exact(m) < p, "p {p:e}, m {m}, threshold {t}");
            }
        }
    }

    /// `sampled` is the `any` over `sampled_by`'s repetitions, on every
    /// key, at the paper's `p` for `construct`'s instance and around it.
    #[test]
    fn sampled_is_any_sampled_by() {
        let paper_p = crate::params::KpParams::new(2551, 4).unwrap().p;
        for p in [1e-9, 0.05, 0.5, paper_p, 1.0] {
            for reps in [1, 3, 4, 7] {
                let o = SampleOracle::new(0xC0FFEE ^ u64::from(reps), p, reps);
                let mut hits = 0;
                for i in 0..4_000u64 {
                    let x = splitmix64(i);
                    let (sampler, head) = (x as u32 % 2551, (x >> 24) as u32 % 2551);
                    let inst = (x >> 48) as u32;
                    let any = (0..reps).any(|r| o.sampled_by(sampler, head, inst, r));
                    assert_eq!(
                        o.sampled(sampler, head, inst),
                        any,
                        "p {p}, reps {reps}, key {i}"
                    );
                    hits += usize::from(any);
                }
                if p >= 0.05 {
                    assert!(hits > 0, "p {p}, reps {reps}: no coin came up");
                }
                if p == 1.0 {
                    assert_eq!(hits, 4_000);
                }
            }
        }
    }

    /// B3's predicate, with its tabulated key terms, is Step 1's part
    /// test or Step 2's coins as [`SampleOracle::sampled`] tosses them,
    /// on every arc and instance of a seeded instance: the instances
    /// name the parts in a shuffled order, and some parts have none.
    #[test]
    fn membership_is_the_part_test_or_the_reference_coins() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB3);
        let g = lcs_graph::generators::gnp_connected(300, 0.03, &mut rng);
        let partition = Partition::bfs_balls(&g, 24, &mut rng);
        let mut parts: Vec<u32> = (0..partition.num_parts() as u32).collect();
        parts.shuffle(&mut rng);
        parts.truncate(parts.len() - 4);
        for p in [0.05, 0.428, 0.573, 1.0] {
            for reps in [3, 4] {
                let o = SampleOracle::new(0x5EED ^ u64::from(reps), p, reps);
                let admits = o.membership(&partition, &parts, g.n());
                let (mut coins, mut hits) = (0, 0);
                for (inst, &j) in parts.iter().enumerate() {
                    let leader = partition.leader(j as usize);
                    for u in g.nodes() {
                        for &v in g.neighbors(u) {
                            let in_part =
                                partition.part_of(u) == Some(j) || partition.part_of(v) == Some(j);
                            let expected = in_part || o.sampled(u, v, leader);
                            assert_eq!(
                                admits(u, v, inst as u32),
                                expected,
                                "p {p}, reps {reps}, arc {u} -> {v}, instance {inst}"
                            );
                            coins += usize::from(!in_part);
                            hits += usize::from(!in_part && expected);
                        }
                    }
                }
                assert!(0 < hits, "p {p}, reps {reps}: no coin came up");
                assert_eq!(hits == coins, p == 1.0, "p {p}, reps {reps}");
            }
        }
    }
}
