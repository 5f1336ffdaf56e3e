//! Round-cost accounting for scheduled executions.
//!
//! Theorem 2.1 of the paper (Ghaffari, PODC 2015, Theorem 1.3; after
//! Leighton–Maggs–Richa) states: `m` distributed algorithms, each with
//! dilation ≤ `d` and with total per-edge congestion ≤ `c`, can be run
//! together in `O(c + d·log n)` rounds after `O(d·log² n)` rounds of
//! pre-computation, using shared randomness.
//!
//! The simulator executes such schedules concretely (see
//! [`crate::multi_bfs`]). A step that no protocol runs yet is charged
//! with the explicit-constant formula here instead; the README's
//! "Substitutions" section lists each such charge.

/// `⌈log₂ max(n, 2)⌉`.
pub fn ceil_log2(n: usize) -> u32 {
    usize::BITS - n.max(2).saturating_sub(1).leading_zeros()
}

/// Congestion+dilation pair describing a bundle of sub-algorithms to be
/// scheduled together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCost {
    /// Max total messages any edge must carry across all sub-algorithms.
    pub congestion: u64,
    /// Max dilation (rounds) of any single sub-algorithm.
    pub dilation: u64,
}

impl ScheduleCost {
    /// Round bound of the random-delay schedule, with all constants set
    /// to 1: `c + d·⌈log₂ n⌉` for the schedule itself plus
    /// `d·⌈log₂ n⌉²` of pre-computation.
    pub fn rounds(&self, n: usize) -> u64 {
        let lg = ceil_log2(n) as u64;
        self.congestion + self.dilation * lg + self.dilation * lg * lg
    }

    /// Schedule rounds without the pre-computation term (`c + d·log n`),
    /// for contexts where the pre-computation is shared across phases.
    pub fn rounds_no_precompute(&self, n: usize) -> u64 {
        let lg = ceil_log2(n) as u64;
        self.congestion + self.dilation * lg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_values() {
        assert_eq!(ceil_log2(0), 1);
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn schedule_rounds_scale() {
        let c = ScheduleCost {
            congestion: 100,
            dilation: 10,
        };
        // n = 1024: 100 + 10*10 + 10*100 = 1200.
        assert_eq!(c.rounds(1024), 1200);
        assert_eq!(c.rounds_no_precompute(1024), 200);
    }
}
