//! Build checks across the construction's entry points: the
//! [`KoganParter`](crate::KoganParter) backend (raw and pruned sets) and
//! [`distributed_shortcuts`](crate::distributed_shortcuts). Test-only.

mod tests {
    use crate::{distributed_shortcuts, DistributedConfig, DistributedError, KoganParter};
    use lcs_graph::{Graph, HighwayGraph, HighwayParams};
    use lcs_shortcut::{measure_quality, DilationMode, Partition, ShortcutBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (Graph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 20,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        (g, p)
    }

    #[test]
    fn all_variants_build_valid_shortcuts() {
        let (g, p) = fixture();
        for pruned in [false, true] {
            let b = KoganParter {
                pruned,
                ..KoganParter::default()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let s = b.build(&g, &p, &mut rng);
            let q = measure_quality(&g, &p, &s, DilationMode::Exact).quality;
            let bound = b.declared_bound(&g, &p).expect("diameter is measured");
            assert!(q.congestion <= bound.congestion, "pruned={pruned}");
        }
        let out = distributed_shortcuts(
            &g,
            &p,
            &DistributedConfig {
                seed: 3,
                ..DistributedConfig::default()
            },
        )
        .unwrap();
        let q = measure_quality(&g, &p, &out.shortcuts, DilationMode::Exact).quality;
        assert!((q.congestion as u64) <= out.params.congestion_bound());
        assert!(out.total_rounds > 0);
    }

    #[test]
    fn disconnected_without_diameter_fails() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let p = Partition::new(&g, vec![vec![0, 1]]).unwrap();
        let b = KoganParter::default();
        assert!(!b.applicable(&g, &p));
        assert_eq!(b.declared_bound(&g, &p), None);
        let err = distributed_shortcuts(&g, &p, &DistributedConfig::default()).unwrap_err();
        assert_eq!(err, DistributedError::Disconnected);
    }
}
