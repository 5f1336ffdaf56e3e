//! Serialization contract of a **distributed-built** index (the unit
//! tests in `lcs_shortcut::index` cover hand-assembled indexes): save
//! → load is byte-exact, and every corruption mode — truncation at any
//! prefix, bad magic, wrong version, bit flips — surfaces as a typed
//! [`IndexError`], never a panic.

use lcs_congest::hash::Fnv;
use lcs_core::{build_index_distributed, DistributedConfig};
use lcs_graph::{HighwayGraph, HighwayParams, WeightedGraph};
use lcs_shortcut::{IndexError, Partition, ShortcutIndex, INDEX_FORMAT_VERSION};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// `bytes` with the graph section's node count set to `n` and the
/// checksum redone: what a producer that wrote `n` would have saved.
fn with_node_count(bytes: &[u8], n: u32) -> Vec<u8> {
    let mut out = bytes[..bytes.len() - 8].to_vec();
    let word = |at: usize| u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
    // Table entries { id: u32, reserved: u32, offset: u64, len: u64 }
    // start at byte 16; the graph section has id 2 and opens with n.
    let entry = (0..word(12) as usize)
        .map(|s| 16 + s * 24)
        .find(|&e| word(e) == 2)
        .unwrap();
    let at = u64::from_le_bytes(out[entry + 8..entry + 16].try_into().unwrap()) as usize;
    out[at..at + 4].copy_from_slice(&n.to_le_bytes());
    let checksum = Fnv::new().bytes(&out).finish();
    out.extend_from_slice(&checksum.to_le_bytes());
    out
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
