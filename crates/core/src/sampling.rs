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
}
