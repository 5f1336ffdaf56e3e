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
//!   the *same* coins, enabling edge-level differential testing;
//! * a fast enumeration mode ([`SampleOracle::picks_for_arc`]) for
//!   large-`N` centralized sweeps, which draws the set of instances that
//!   sampled an arc by geometric gap-skipping in `O(E[#picks])` expected
//!   time instead of `Θ(N)` PRF calls. The two modes produce different
//!   (but identically distributed) coin sets; tests cover both.

use lcs_congest::hash::splitmix64;
use lcs_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Uniform `[0, 1)` from 53 high bits.
#[inline]
fn to_unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic sampling oracle for Step 2 of the construction.
#[derive(Debug, Clone, Copy)]
pub struct SampleOracle {
    seed: u64,
    /// Per-direction per-repetition probability.
    pub p: f64,
    /// Number of repetitions.
    pub reps: u32,
}

impl SampleOracle {
    /// Creates an oracle with probability `p` and `reps` repetitions.
    pub fn new(seed: u64, p: f64, reps: u32) -> Self {
        SampleOracle { seed, p, reps }
    }

    /// The coin: did `sampler` sample its directed edge `(sampler,
    /// head)` into instance `inst` at repetition `rep`?
    #[inline]
    pub fn sampled_by(&self, sampler: NodeId, head: NodeId, inst: u32, rep: u32) -> bool {
        let key = self
            .seed
            .wrapping_add(splitmix64(sampler as u64 + 1))
            .wrapping_add(splitmix64((head as u64 + 1) << 20))
            .wrapping_add(splitmix64(((inst as u64) << 1) ^ 0xA5A5))
            .wrapping_add((rep as u64) << 40);
        to_unit(splitmix64(key)) < self.p
    }

    /// Whether the undirected edge `{u, v}` lands in `H_inst` through
    /// *any* direction and *any* repetition — the paper's membership
    /// rule ("taken into `H_i` if at least one of these sampling steps
    /// is successful").
    pub fn edge_in_instance(&self, u: NodeId, v: NodeId, inst: u32) -> bool {
        (0..self.reps).any(|r| self.sampled_by(u, v, inst, r) || self.sampled_by(v, u, inst, r))
    }

    /// Fast enumeration (alternative coin set, same distribution): the
    /// instances in `0..big_n` for which the directed arc `(sampler,
    /// head)` is sampled at repetition `rep`, generated by geometric
    /// gap-skipping. Returns sorted distinct instance ids.
    pub fn picks_for_arc(&self, sampler: NodeId, head: NodeId, rep: u32, big_n: usize) -> Vec<u32> {
        if self.p <= 0.0 || big_n == 0 {
            return Vec::new();
        }
        if self.p >= 1.0 {
            return (0..big_n as u32).collect();
        }
        let key = self
            .seed
            .wrapping_add(splitmix64(sampler as u64 + 1))
            .wrapping_add(splitmix64((head as u64 + 1) << 20))
            .wrapping_add((rep as u64) << 40)
            ^ 0xD1B5_4A32_D192_ED03;
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        let mut picks = Vec::new();
        let log1mp = (1.0 - self.p).ln();
        let mut pos: i64 = -1;
        loop {
            // Geometric(p) gap: floor(ln U / ln(1-p)).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap = (u.ln() / log1mp).floor() as i64;
            pos += 1 + gap;
            if pos >= big_n as i64 {
                break;
            }
            picks.push(pos as u32);
        }
        picks
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

    #[test]
    fn edge_in_instance_is_symmetric() {
        let o = SampleOracle::new(5, 0.2, 4);
        for u in 0..20u32 {
            for v in 0..20u32 {
                if u != v {
                    assert_eq!(o.edge_in_instance(u, v, 7), o.edge_in_instance(v, u, 7));
                }
            }
        }
    }

    #[test]
    fn picks_match_binomial_rate() {
        let p = 0.05;
        let big_n = 1000;
        let o = SampleOracle::new(123, p, 1);
        let mut total = 0usize;
        let arcs = 200;
        for a in 0..arcs {
            let picks = o.picks_for_arc(a, a + 1, 0, big_n);
            // Sorted, distinct, in range.
            assert!(picks.windows(2).all(|w| w[0] < w[1]));
            assert!(picks.iter().all(|&i| (i as usize) < big_n));
            total += picks.len();
        }
        let mean = total as f64 / arcs as f64;
        let expected = p * big_n as f64; // 50
        assert!(
            (mean - expected).abs() < 5.0,
            "mean picks {mean} vs expected {expected}"
        );
    }

    #[test]
    fn picks_edge_cases() {
        let o0 = SampleOracle::new(1, 0.0, 1);
        assert!(o0.picks_for_arc(0, 1, 0, 100).is_empty());
        let o1 = SampleOracle::new(1, 1.0, 1);
        assert_eq!(o1.picks_for_arc(0, 1, 0, 5), vec![0, 1, 2, 3, 4]);
        let o = SampleOracle::new(1, 0.5, 1);
        assert!(o.picks_for_arc(0, 1, 0, 0).is_empty());
    }

    #[test]
    fn picks_are_deterministic() {
        let o = SampleOracle::new(77, 0.1, 2);
        assert_eq!(o.picks_for_arc(3, 4, 1, 500), o.picks_for_arc(3, 4, 1, 500));
        assert_ne!(
            o.picks_for_arc(3, 4, 0, 500),
            o.picks_for_arc(4, 3, 0, 500),
            "directions draw independent pick sets (w.h.p. for these sizes)"
        );
    }
}
