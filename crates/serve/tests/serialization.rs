//! Serialization contract of a **distributed-built** index (the unit
//! tests in `lcs_shortcut::index` cover hand-assembled indexes): save
//! → load is byte-exact, and every corruption mode — truncation at any
//! prefix, bad magic, wrong version, bit flips — surfaces as a typed
//! [`IndexError`], never a panic. A file whose producer wrote other
//! shortcut sets either is malformed or loads to the index `freeze`
//! makes of those sets, and serves every query kind as that index does.

use lcs_congest::hash::Fnv;
use lcs_congest::AggOp;
use lcs_core::{build_index_distributed, DistributedConfig};
use lcs_graph::{EdgeId, HighwayGraph, HighwayParams, WeightedGraph};
use lcs_serve::{Query, QueryResult, ServePool};
use lcs_shortcut::{IndexError, Partition, ShortcutIndex, ShortcutSet, INDEX_FORMAT_VERSION};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn built_index() -> ShortcutIndex {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 10,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph().clone();
    let p = Partition::new(&g, hw.path_parts()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xD15C);
    let wg = WeightedGraph::with_random_weights(g, 50, &mut rng);
    let cfg = DistributedConfig {
        known_diameter: Some(4),
        ..DistributedConfig::default()
    };
    build_index_distributed(wg.graph(), wg.weights(), &p, &cfg)
        .unwrap()
        .0
}

#[test]
fn save_load_roundtrip_is_byte_exact() {
    let idx = built_index();
    let path = std::env::temp_dir().join(format!("lcs_serve_ser_{}.lcsidx", std::process::id()));
    idx.save(&path).unwrap();
    let loaded = ShortcutIndex::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, idx);
    assert_eq!(loaded.to_bytes(), idx.to_bytes());
    // The reloaded index carries the construction metadata through.
    assert_eq!(loaded.meta().backend, "kogan_parter_distributed");
    assert!(loaded.meta().certificate.is_some());
}

#[test]
fn every_truncation_prefix_is_a_typed_error() {
    let bytes = built_index().to_bytes();
    // Sweep every prefix length (stride keeps the test fast; the small
    // lengths where the header lives are covered exhaustively).
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(97));
    for cut in cuts {
        match ShortcutIndex::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {cut} bytes decoded successfully"),
        }
    }
    // A clean cut mid-payload reports Truncated specifically, not a
    // checksum mismatch.
    assert!(matches!(
        ShortcutIndex::from_bytes(&bytes[..bytes.len() / 2]),
        Err(IndexError::Truncated)
    ));
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let bytes = built_index().to_bytes();

    let mut magic = bytes.clone();
    magic[0] ^= 0xFF;
    assert!(matches!(
        ShortcutIndex::from_bytes(&magic),
        Err(IndexError::BadMagic)
    ));

    let mut version = bytes.clone();
    let bumped = INDEX_FORMAT_VERSION + 41;
    version[8..12].copy_from_slice(&bumped.to_le_bytes());
    match ShortcutIndex::from_bytes(&version) {
        Err(IndexError::UnsupportedVersion { found }) => assert_eq!(found, bumped),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn payload_bit_flips_fail_the_checksum() {
    let bytes = built_index().to_bytes();
    // Flip one bit in several payload positions; all must be caught by
    // the checksum (or a stricter structural error), never accepted.
    for pos in [
        bytes.len() / 4,
        bytes.len() / 3,
        bytes.len() / 2,
        2 * bytes.len() / 3,
    ] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        match ShortcutIndex::from_bytes(&corrupt) {
            Ok(_) => panic!("bit flip at {pos} was accepted"),
            Err(IndexError::BadChecksum { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            Err(_) => {} // structural errors are also acceptable
        }
    }
}

/// Section ids of the on-disk format.
const GRAPH: u32 = 2;
const SHORTCUTS: u32 = 5;

/// `bytes` with section `id`'s body replaced by `body`, the table's
/// lengths and offsets moved to match and the checksum redone: what a
/// producer that wrote `body` would have saved.
fn with_section(bytes: &[u8], id: u32, body: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let content = &bytes[..bytes.len() - 8];
    let word = |at: usize| u32::from_le_bytes(content[at..at + 4].try_into().unwrap());
    let long = |at: usize| u64::from_le_bytes(content[at..at + 8].try_into().unwrap());
    // Table entries { id: u32, reserved: u32, offset: u64, len: u64 }
    // start at byte 16.
    let entries: Vec<usize> = (0..word(12) as usize).map(|s| 16 + s * 24).collect();
    let entry = *entries.iter().find(|&&e| word(e) == id).unwrap();
    let (at, len) = (long(entry + 8) as usize, long(entry + 16) as usize);
    let new = body(&content[at..at + len]);
    let mut out = content[..at].to_vec();
    out.extend_from_slice(&new);
    out.extend_from_slice(&content[at + len..]);
    out[entry + 16..entry + 24].copy_from_slice(&(new.len() as u64).to_le_bytes());
    for &e in entries.iter().filter(|&&e| long(e + 8) as usize > at) {
        let moved = long(e + 8) - len as u64 + new.len() as u64;
        out[e + 8..e + 16].copy_from_slice(&moved.to_le_bytes());
    }
    let checksum = Fnv::new().bytes(&out).finish();
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// `bytes` with the graph section's node count, its first word, set
/// to `n`.
fn with_node_count(bytes: &[u8], n: u32) -> Vec<u8> {
    with_section(bytes, GRAPH, |body| {
        let mut body = body.to_vec();
        body[..4].copy_from_slice(&n.to_le_bytes());
        body
    })
}

/// `bytes` with the shortcut section written from `lists`: a count,
/// `count + 1` offsets, then every list's edge ids as they stand.
fn with_shortcut_lists(bytes: &[u8], lists: &[Vec<u32>]) -> Vec<u8> {
    let mut words = vec![lists.len() as u32, 0];
    for list in lists {
        words.push(words.last().unwrap() + list.len() as u32);
    }
    words.extend(lists.concat());
    with_section(bytes, SHORTCUTS, |_| {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    })
}

#[test]
fn a_node_count_beyond_the_buffer_length_is_malformed() {
    let idx = built_index();
    let bytes = idx.to_bytes();
    let len = bytes.len() as u32;
    let n = idx.graph().n() as u32;
    assert_eq!(
        ShortcutIndex::from_bytes(&with_node_count(&bytes, n)),
        Ok(idx)
    );
    // At the buffer's length the count is read: the extra nodes are
    // isolated and in no part.
    let widest = ShortcutIndex::from_bytes(&with_node_count(&bytes, len)).unwrap();
    assert_eq!(widest.graph().n(), len as usize);
    match ShortcutIndex::from_bytes(&with_node_count(&bytes, len + 1)) {
        Err(IndexError::Malformed(why)) => assert!(why.contains("node count"), "{why}"),
        other => panic!("n = length + 1 must be malformed, got {other:?}"),
    }
}

/// Shortcut lists that name an edge the graph lacks, or that number
/// one more or one fewer than the parts, are malformed.
#[test]
fn out_of_range_or_miscounted_shortcut_lists_are_malformed() {
    let idx = built_index();
    let bytes = idx.to_bytes();
    let m = idx.graph().m() as u32;
    let stored: Vec<Vec<u32>> = (0..idx.partition().num_parts())
        .map(|i| idx.shortcuts().edges(i).iter().map(|e| e.0).collect())
        .collect();
    let mut edge_m = stored.clone();
    edge_m[0].push(m);
    let mut one_more = stored.clone();
    one_more.push(stored[0].clone());
    let one_fewer = stored[1..].to_vec();
    for (what, lists) in [
        ("edge id m", edge_m),
        ("one list more", one_more),
        ("one list fewer", one_fewer),
    ] {
        match ShortcutIndex::from_bytes(&with_shortcut_lists(&bytes, &lists)) {
            Err(IndexError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }
}

/// A file whose shortcut lists hold repeated and descending ids, or
/// every edge in every part's list, loads to the index `freeze` builds
/// on the parsed sets, and a pool over it answers SSSP, aggregates,
/// MST and min-cut as a pool over that index does.
#[test]
fn forged_shortcut_sets_load_as_frozen_and_serve_every_query_kind() {
    let idx = built_index();
    let bytes = idx.to_bytes();
    let (g, p) = (idx.graph(), idx.partition());
    let repeated_descending: Vec<Vec<u32>> = (0..p.num_parts())
        .map(|i| {
            let ids = idx.shortcuts().edges(i).iter().rev().map(|e| e.0);
            ids.flat_map(|e| [e, e]).collect()
        })
        .collect();
    let every_edge = vec![(0..g.m() as u32).collect::<Vec<u32>>(); p.num_parts()];
    let n = g.n() as u32;
    let queries = [
        Query::sssp(0),
        Query::sssp(n - 1),
        Query::Aggregate { op: AggOp::Sum },
        Query::Aggregate { op: AggOp::Min },
        Query::Mst,
        Query::MinCut,
    ];
    for (what, lists) in [
        ("repeated and descending ids", repeated_descending),
        ("every edge in every list", every_edge),
    ] {
        let loaded = ShortcutIndex::from_bytes(&with_shortcut_lists(&bytes, &lists))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let sets = lists
            .iter()
            .map(|l| l.iter().copied().map(EdgeId).collect())
            .collect();
        let frozen = ShortcutIndex::freeze(
            g.clone(),
            idx.weights().to_vec(),
            p.clone(),
            ShortcutSet::from_edge_lists(sets),
            idx.meta().clone(),
        );
        assert_eq!(loaded, frozen, "{what}");
        let served = ServePool::new(Arc::new(loaded), 2).serve(&queries, 0x5E7);
        let want = ServePool::new(Arc::new(frozen), 1).serve(&queries, 0x5E7);
        assert_eq!(served.results, want.results, "{what}");
        for (q, r) in queries.iter().zip(&served.results) {
            assert!(
                !matches!(r, QueryResult::Failed(_)),
                "{what}: {q:?} failed: {r:?}"
            );
        }
    }
}
