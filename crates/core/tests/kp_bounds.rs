//! Locks the paper's parameter table and bound formulas: `k_D`
//! exponents for small diameters, the `dilation_bound`/
//! `congestion_bound` formulas derived from them, and agreement
//! between `measure_quality` and `verify` on the hard highway
//! instances the construction targets.

use lcs_core::{centralized_shortcuts, k_d, KpParams, ParamError};
use lcs_graph::{HighwayGraph, HighwayParams};
use lcs_shortcut::{measure_quality, verify, DilationMode, Partition};

/// `⌈log₂ n⌉`, restated locally so the test pins the formula rather
/// than echoing the implementation's helper.
fn ceil_log2(n: usize) -> u64 {
    (n as f64).log2().ceil() as u64
}

/// The paper's quality-target table: `k_D = n^((D−2)/(2D−2))`.
/// D = 2 degenerates to exponent 0 (k = 1, no shortcut budget) and is
/// rejected by the constructor; D ∈ {3, 4, 5} give the closed-form
/// exponents 1/4, 1/3, 3/8.
#[test]
fn k_d_table_small_diameters() {
    let exponent = |d: u32| (d as f64 - 2.0) / (2.0 * d as f64 - 2.0);
    assert_eq!(exponent(2), 0.0);
    assert_eq!(exponent(3), 0.25);
    assert!((exponent(4) - 1.0 / 3.0).abs() < 1e-12);
    assert_eq!(exponent(5), 0.375);

    for n in [64usize, 1000, 4096, 100_000] {
        let nf = n as f64;
        assert!((k_d(n, 3) - nf.powf(0.25)).abs() < 1e-9, "n={n} D=3");
        assert!((k_d(n, 4) - nf.powf(1.0 / 3.0)).abs() < 1e-9, "n={n} D=4");
        assert!((k_d(n, 5) - nf.powf(0.375)).abs() < 1e-9, "n={n} D=5");
        // The ladder is strictly increasing in D and stays below √n,
        // the D → ∞ limit.
        assert!(k_d(n, 3) < k_d(n, 4));
        assert!(k_d(n, 4) < k_d(n, 5));
        assert!(k_d(n, 5) < nf.sqrt());
    }
}

/// D = 2 is outside the construction (the paper handles it separately
/// with O(log n)-quality shortcuts); the API must reject it loudly for
/// every n rather than produce vacuous bounds.
#[test]
fn diameter_two_is_rejected() {
    for n in [2usize, 64, 4096] {
        assert_eq!(
            KpParams::new(n, 2).unwrap_err(),
            ParamError::DiameterTooSmall(2),
            "n={n}"
        );
    }
}

/// `dilation_bound = 4·⌈k_D⌉·⌈log₂ n⌉` and
/// `congestion_bound = D·dilation_bound`, for every tabulated D.
#[test]
fn bound_formulas_match_table() {
    for n in [64usize, 1000, 4096, 100_000] {
        for d in [3u32, 4, 5] {
            let p = KpParams::new(n, d).unwrap();
            let k_ceil = k_d(n, d).ceil() as u64;
            assert_eq!(p.k_ceil as u64, k_ceil, "n={n} D={d}");
            assert_eq!(
                p.dilation_bound(),
                4 * k_ceil * ceil_log2(n),
                "dilation n={n} D={d}"
            );
            assert_eq!(
                p.congestion_bound(),
                4 * d as u64 * k_ceil * ceil_log2(n),
                "congestion n={n} D={d}"
            );
            // The two bounds differ by exactly the factor D.
            assert_eq!(p.congestion_bound(), d as u64 * p.dilation_bound());
        }
    }
}

/// Bounds are monotone in n for fixed D: a bigger graph never gets a
/// smaller budget.
#[test]
fn bounds_monotone_in_n() {
    for d in [3u32, 4, 5] {
        let mut prev = (0u64, 0u64);
        for n in [64usize, 256, 1024, 4096, 16_384] {
            let p = KpParams::new(n, d).unwrap();
            let cur = (p.dilation_bound(), p.congestion_bound());
            assert!(cur.0 >= prev.0 && cur.1 >= prev.1, "n={n} D={d}");
            prev = cur;
        }
    }
}

/// On highway instances, `measure_quality` and `verify` must tell the
/// same story: verify with no claim reports the measured quality,
/// verify accepts the measured quality as a claim, and rejects any
/// strictly tighter claim.
#[test]
fn measure_quality_agrees_with_verify_on_highways() {
    for (num_paths, path_len, diameter) in [(4usize, 30usize, 4u32), (3, 20, 3), (5, 12, 5)] {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths,
            path_len,
            diameter,
        })
        .unwrap();
        let g = hw.graph();
        let parts = Partition::new(g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), diameter).unwrap();
        let built = centralized_shortcuts(g, &parts, params, 7);

        let measured = measure_quality(g, &parts, &built.shortcuts, DilationMode::Exact);
        let report = verify(g, &parts, &built.shortcuts, None, DilationMode::Exact)
            .expect("unclaimed verify cannot fail");
        assert_eq!(
            report.quality, measured.quality,
            "verify and measure_quality disagree on D={diameter}"
        );

        // The measured quality, claimed back, passes...
        verify(
            g,
            &parts,
            &built.shortcuts,
            Some(measured.quality),
            DilationMode::Exact,
        )
        .expect("measured quality must verify");
        // ...and any strictly tighter claim fails.
        if measured.quality.dilation > 0 {
            let mut tighter = measured.quality;
            tighter.dilation -= 1;
            assert!(
                verify(
                    g,
                    &parts,
                    &built.shortcuts,
                    Some(tighter),
                    DilationMode::Exact
                )
                .is_err(),
                "tighter dilation claim must be rejected (D={diameter})"
            );
        }
        if measured.quality.congestion > 0 {
            let mut tighter = measured.quality;
            tighter.congestion -= 1;
            assert!(
                verify(
                    g,
                    &parts,
                    &built.shortcuts,
                    Some(tighter),
                    DilationMode::Exact
                )
                .is_err(),
                "tighter congestion claim must be rejected (D={diameter})"
            );
        }

        // And the construction meets the paper's budgets on its target
        // instance family.
        assert!(measured.quality.dilation as u64 <= params.dilation_bound());
        assert!(measured.quality.congestion as u64 <= params.congestion_bound());
    }
}
