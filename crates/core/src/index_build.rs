//! Builder → [`ShortcutIndex`] adapters: freeze any registered
//! [`ShortcutBuilder`] backend's construction — or the full distributed
//! pipeline — into the service-layer artifact that `lcs-serve` answers
//! queries from.
//!
//! Two entry points:
//!
//! * [`build_index`] runs a centralized backend (anything implementing
//!   the registry trait) under a seeded ChaCha8 stream, exactly like a
//!   quality-bench cell, and freezes the result;
//! * [`build_index_distributed`] runs [`distributed_shortcuts`] — the
//!   one-shot CONGEST pipeline — and freezes *its* shortcut set, so an
//!   index-served answer is byte-identical to what the one-shot
//!   pipeline would have computed at the same seed and shard count
//!   (the differential suite in `lcs-serve` holds this).

use crate::distributed::{
    distributed_shortcuts, DistributedConfig, DistributedError, DistributedOutcome,
};
use lcs_graph::{Graph, WeightedGraph};
use lcs_shortcut::{IndexMeta, Partition, Quality, ShortcutBuilder, ShortcutIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`build_index`].
#[derive(Debug, Clone, Copy)]
pub struct IndexBuildConfig {
    /// Seed of the backend's RNG stream (recorded in the index meta).
    pub seed: u64,
    /// Diameter to record in the meta (`None` = unrecorded).
    pub diameter: Option<u32>,
}

impl Default for IndexBuildConfig {
    fn default() -> Self {
        IndexBuildConfig {
            seed: 0xFACE,
            diameter: None,
        }
    }
}

/// Builds a [`ShortcutIndex`] by running `backend` once on
/// `(graph, partition)` under a ChaCha8 stream seeded with `cfg.seed`
/// — the same discipline as a quality-bench cell, so the frozen
/// shortcut set equals what [`ShortcutBuilder::build`] returns for
/// that seed, bit for bit. The backend's declared bound (when present)
/// is recorded as the index certificate.
pub fn build_index(
    wg: &WeightedGraph,
    partition: &Partition,
    backend: &dyn ShortcutBuilder,
    cfg: &IndexBuildConfig,
) -> ShortcutIndex {
    let graph = wg.graph();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let shortcuts = backend.build(graph, partition, &mut rng);
    let certificate = backend.declared_bound(graph, partition);
    let meta = IndexMeta {
        backend: backend.name().to_string(),
        params: backend
            .params()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        seed: cfg.seed,
        certificate,
        diameter: cfg.diameter,
    };
    ShortcutIndex::freeze(
        graph.clone(),
        wg.weights().to_vec(),
        partition.clone(),
        shortcuts,
        meta,
    )
}

/// Runs the full distributed Kogan–Parter pipeline
/// ([`distributed_shortcuts`]) and freezes its verified shortcut set
/// into an index. The returned [`DistributedOutcome`] carries the
/// construction's own accounting (rounds, messages, guess ladder);
/// the index records the accepted guess as its diameter and the
/// accepted parameters' bounds as its certificate.
///
/// # Errors
///
/// Propagates [`DistributedError`] from the pipeline.
pub fn build_index_distributed(
    graph: &Graph,
    weights: &[u64],
    partition: &Partition,
    cfg: &DistributedConfig,
) -> Result<(ShortcutIndex, DistributedOutcome), DistributedError> {
    let outcome = distributed_shortcuts(graph, partition, cfg)?;
    let clamp = |b: u64| b.min(u32::MAX as u64) as u32;
    let meta = IndexMeta {
        backend: "kogan_parter_distributed".to_string(),
        params: vec![
            (
                "known_diameter".to_string(),
                cfg.known_diameter
                    .map_or_else(|| "guessed".to_string(), |d| d.to_string()),
            ),
            (
                "queue_cap_factor".to_string(),
                format!("{}", cfg.queue_cap_factor),
            ),
        ],
        seed: cfg.seed,
        certificate: Some(Quality {
            congestion: clamp(outcome.params.congestion_bound()),
            dilation: clamp(outcome.params.dilation_bound()),
        }),
        diameter: Some(outcome.accepted_guess),
    };
    let index = ShortcutIndex::freeze(
        graph.clone(),
        weights.to_vec(),
        partition.clone(),
        outcome.shortcuts.clone(),
        meta,
    );
    Ok((index, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::KoganParter;
    use lcs_graph::{HighwayGraph, HighwayParams};
    use lcs_shortcut::AggregationSetup;
    use rand::SeedableRng;

    fn fixture() -> (WeightedGraph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 14,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        (WeightedGraph::with_random_weights(g, 100, &mut rng), p)
    }

    #[test]
    fn backend_index_freezes_the_backend_build() {
        let (wg, p) = fixture();
        let backend = KoganParter {
            diameter: Some(4),
            ..KoganParter::default()
        };
        let cfg = IndexBuildConfig {
            seed: 0xABCD,
            diameter: Some(4),
        };
        let idx = build_index(&wg, &p, &backend, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let fresh = backend.build(wg.graph(), &p, &mut rng);
        // The index stores the build stripped to what connects each
        // part, and its trees are the ones the build itself gives.
        assert_eq!(idx.shortcuts(), &fresh.stripped(wg.graph(), &p));
        assert_eq!(
            idx.aggregation_setup(),
            &AggregationSetup::build(wg.graph(), &p, &fresh)
        );
        assert_eq!(idx.meta().backend, "kogan_parter");
        assert_eq!(idx.meta().seed, 0xABCD);
        assert_eq!(idx.meta().diameter, Some(4));
        assert_eq!(
            idx.meta().certificate,
            backend.declared_bound(wg.graph(), &p)
        );
    }

    #[test]
    fn distributed_index_freezes_the_pipeline_output() {
        let (wg, p) = fixture();
        let cfg = DistributedConfig {
            known_diameter: Some(4),
            ..DistributedConfig::default()
        };
        let (idx, outcome) = build_index_distributed(wg.graph(), wg.weights(), &p, &cfg).unwrap();
        assert_eq!(idx.shortcuts(), &outcome.shortcuts.stripped(wg.graph(), &p));
        assert_eq!(idx.meta().diameter, Some(outcome.accepted_guess));
        assert_eq!(idx.meta().backend, "kogan_parter_distributed");
        // Round-trips through the on-disk format.
        let back = ShortcutIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back, idx);
    }
}
