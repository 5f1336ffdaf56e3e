//! Parameters of the Kogan–Parter construction.
//!
//! For an `n`-node graph of diameter `D ≥ 3` the paper sets
//!
//! ```text
//! k_D = n^((D−2)/(2D−2))        (the quality target)
//! N   = ⌈n / k_D⌉              (max number of large parts)
//! p   = k_D·log n / N           (per-direction, per-repetition sampling
//!                                probability = log n · n^(−1/(D−1)))
//! ```
//!
//! with `D` independent repetitions of the sampling step. A part is
//! *small* when a depth-`k_D` BFS from its leader spans it; only the at
//! most `N` non-small parts receive shortcuts.

use lcs_congest::ceil_log2;
use std::fmt;

/// Error constructing [`KpParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// The construction needs `D ≥ 3` (D = 1 is the congested clique,
    /// D = 2 has its own `O(log n)` algorithms).
    DiameterTooSmall(u32),
    /// Graphs with fewer than 2 nodes need no shortcuts.
    GraphTooSmall(usize),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::DiameterTooSmall(d) => {
                write!(f, "construction requires diameter >= 3, got {d}")
            }
            ParamError::GraphTooSmall(n) => write!(f, "graph with {n} nodes needs no shortcuts"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Resolved parameters for one (n, D) instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KpParams {
    /// Number of nodes.
    pub n: usize,
    /// Diameter (or current diameter guess).
    pub d: u32,
    /// `k_D` as a real number.
    pub k: f64,
    /// `⌈k_D⌉`, the radius threshold for largeness.
    pub k_ceil: u32,
    /// `N = ⌈n / k_D⌉`.
    pub big_n: usize,
    /// Per-direction per-repetition sampling probability
    /// `k_D·ln n / N`, clamped to 1.
    pub p: f64,
    /// Number of independent sampling repetitions, `D`.
    pub reps: u32,
}

impl KpParams {
    /// Computes the paper's parameters for an `n`-node graph of
    /// diameter `d`.
    ///
    /// # Errors
    ///
    /// See [`ParamError`].
    pub fn new(n: usize, d: u32) -> Result<Self, ParamError> {
        if d < 3 {
            return Err(ParamError::DiameterTooSmall(d));
        }
        if n < 2 {
            return Err(ParamError::GraphTooSmall(n));
        }
        let nf = n as f64;
        let k = k_d(n, d);
        let k_ceil = k.ceil() as u32;
        let big_n = (nf / k).ceil() as usize;
        let p = (k * nf.ln() / big_n as f64).min(1.0);
        Ok(KpParams {
            n,
            d,
            k,
            k_ceil,
            big_n,
            p,
            reps: d,
        })
    }

    /// `⌈log₂ n⌉`.
    pub fn log_n(&self) -> u32 {
        ceil_log2(self.n)
    }

    /// Depth limit for the per-part shortcut BFS trees:
    /// `2·k_D·⌈log₂ n⌉` (Theorem 3.1's `O(k_D log n)` with constant 2).
    pub fn depth_limit(&self) -> u32 {
        2 * self.k_ceil * self.log_n()
    }

    /// Congestion target `O(D·k_D·log n)` with constant 4 (two
    /// directions × Chernoff slack).
    pub fn congestion_bound(&self) -> u64 {
        4 * self.d as u64 * self.k_ceil as u64 * self.log_n() as u64
    }

    /// Dilation target `O(k_D·log n)` with constant 4.
    pub fn dilation_bound(&self) -> u64 {
        4 * self.k_ceil as u64 * self.log_n() as u64
    }

    /// Round budget for the distributed construction at this guess:
    /// `O(k_D·log² n)` with constant 8, plus a `O(D)` additive term for
    /// the tree bookkeeping.
    pub fn round_budget(&self) -> u64 {
        8 * self.k_ceil as u64 * (self.log_n() as u64).pow(2) + 4 * self.d as u64 + 64
    }
}

/// `k_D = n^((D−2)/(2D−2))`.
pub fn k_d(n: usize, d: u32) -> f64 {
    let nf = (n.max(2)) as f64;
    let exp = (d as f64 - 2.0) / (2.0 * d as f64 - 2.0);
    nf.powf(exp)
}

/// The diameter-guess ladder the unknown-`D` algorithm walks: from
/// `max(3, ⌈approx/2⌉)` up to `approx`, where `approx` is the 2-factor
/// upper bound obtained from a BFS (`approx = 2·ecc(root)`).
pub fn guess_ladder(approx_upper: u32) -> std::ops::RangeInclusive<u32> {
    let lo = (approx_upper.div_ceil(2)).max(3);
    let hi = approx_upper.max(lo);
    lo..=hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_d_matches_closed_forms() {
        // D=3: n^(1/4); D=4: n^(1/3); D→∞: → sqrt(n).
        let n = 65536;
        assert!((k_d(n, 3) - (n as f64).powf(0.25)).abs() < 1e-9);
        assert!((k_d(n, 4) - (n as f64).powf(1.0 / 3.0)).abs() < 1e-9);
        assert!(k_d(n, 64) < (n as f64).sqrt());
        assert!(k_d(n, 64) > (n as f64).powf(0.48));
    }

    #[test]
    fn k_d_is_monotone_in_d() {
        let n = 10_000;
        for d in 3..20 {
            assert!(k_d(n, d) < k_d(n, d + 1));
        }
    }

    #[test]
    fn params_consistency() {
        let p = KpParams::new(4096, 4).unwrap();
        assert_eq!(p.k_ceil, 16);
        // k = 4096^(1/3) = 15.99…, so N = ⌈4096/k⌉ = 257.
        assert_eq!(p.big_n, 257);
        // p = k ln n / N = 16 * 8.317 / 256 ≈ 0.52.
        assert!(p.p > 0.4 && p.p < 0.6, "p = {}", p.p);
        assert_eq!(p.reps, 4);
        assert!(p.depth_limit() >= p.k_ceil);
        assert!(p.congestion_bound() > p.dilation_bound());
    }

    #[test]
    fn probability_clamped() {
        // At D = 6 and n = 630, k_D·ln n / N exceeds 1 and must clamp.
        let p = KpParams::new(630, 6).unwrap();
        assert!(p.k * (630f64).ln() / p.big_n as f64 > 1.0);
        assert_eq!(p.p, 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            KpParams::new(100, 2),
            Err(ParamError::DiameterTooSmall(2))
        ));
        assert!(matches!(
            KpParams::new(1, 4),
            Err(ParamError::GraphTooSmall(1))
        ));
    }

    #[test]
    fn ladder_covers_half_to_full() {
        assert_eq!(guess_ladder(8), 4..=8);
        assert_eq!(guess_ladder(3), 3..=3);
        assert_eq!(guess_ladder(2), 3..=3);
        assert_eq!(guess_ladder(9), 5..=9);
    }
}
