//! The frozen construction artifact behind the service layer: a
//! [`ShortcutIndex`] snapshots what a shortcut construction decided —
//! the graph, baseline edge weights, the partition, the per-part
//! shortcut edge sets, and the backend's certificate — so applications
//! can answer many queries from one preprocessing run (the CCH-style
//! construction / customization / query split).
//!
//! ## Stored and derived
//!
//! A shortcut *is* its sets `H_i`. The aggregation trees are the BFS
//! trees of each `G[S_i] ∪ H_i` from the part leader, which anyone
//! holding the sets recomputes, so an index stores the sets and derives
//! the trees. [`ShortcutIndex::freeze`] builds the [`AggregationSetup`]
//! and the [`PartPaths`] over it, and [`ShortcutIndex::from_bytes`]
//! parses the stored sections and ends in the same `freeze`. A loaded
//! index equals the frozen one, and every tree it holds is a tree of
//! its part's augmented subgraph, whatever the file's bytes.
//!
//! It keeps only what connects each part. Each `H_i` is stored
//! [stripped](ShortcutSet::stripped) — a shortcut node outside `S_i`
//! that hangs off the rest by one edge lies on no path between two
//! members, so it is cut, repeatedly — and each tree keeps only the
//! subtrees that hold a member. Member-to-member distances, and so the
//! dilation, stay as built; the congestion cannot rise. Stripping is
//! idempotent, so loading re-strips a stored set to itself. On a
//! Kogan–Parter index, whose every `H_i` is close to a spanning tree,
//! this cuts the stored sets about twentyfold.
//!
//! ## On-disk format
//!
//! A flat little-endian layout of fixed-width integer arrays, no
//! pointers. Version 2 stores five sections — meta, graph, weights,
//! partition, shortcut sets — and no trees (version 1 stored them as a
//! sixth). Loading reads the sections and then runs one BFS per part
//! inside its augmented subgraph, linear in the graph and the stored
//! sets:
//!
//! ```text
//! magic    8 B   b"LCSIDX01"
//! version  u32   INDEX_FORMAT_VERSION
//! sections u32   section count
//! table    sections × { id: u32, reserved: u32, offset: u64, len: u64 }
//! payload  the sections, in table order
//! checksum u64   FNV-1a over everything before it
//! ```
//!
//! Section payloads are `u32`/`u64` arrays (node and edge ids are
//! `u32`, weights `u64`); strings are length-prefixed UTF-8. Parsing a
//! malformed buffer returns a typed [`IndexError`] — never panics —
//! and a round trip of what `to_bytes` wrote is byte-exact.

use crate::aggregation::{AggregationSetup, PartPaths};
use crate::partition::Partition;
use crate::shortcut::{Quality, ShortcutSet};
use lcs_congest::hash::Fnv;
use lcs_graph::{EdgeId, Graph, NodeId};
use std::fmt;
use std::path::Path;

/// Current serialization format version.
pub const INDEX_FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"LCSIDX01";

/// Section ids of the on-disk format, in their fixed emission order.
mod section {
    pub const META: u32 = 1;
    pub const GRAPH: u32 = 2;
    pub const WEIGHTS: u32 = 3;
    pub const PARTITION: u32 = 4;
    pub const SHORTCUTS: u32 = 5;
}

/// Typed (de)serialization failure. Malformed inputs are reported, not
/// panicked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Buffer ends before the structure it promises.
    Truncated,
    /// Leading magic is not `LCSIDX01`.
    BadMagic,
    /// Format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// Trailing FNV-1a checksum does not match the content.
    BadChecksum {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// Structurally invalid content (bad offsets, invalid graph or
    /// partition, non-UTF-8 string, …).
    Malformed(String),
    /// I/O failure in [`ShortcutIndex::save`] / [`ShortcutIndex::load`].
    Io(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Truncated => write!(f, "buffer truncated"),
            IndexError::BadMagic => write!(f, "not a ShortcutIndex file (bad magic)"),
            IndexError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {INDEX_FORMAT_VERSION})"
                )
            }
            IndexError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            IndexError::Malformed(why) => write!(f, "malformed index: {why}"),
            IndexError::Io(why) => write!(f, "i/o error: {why}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// Construction metadata carried by an index: which backend built it,
/// with what parameters and seed, and what it certified.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexMeta {
    /// Backend name ([`crate::ShortcutBuilder::name`]).
    pub backend: String,
    /// Backend parameters, `key=value` rendered by the builder.
    pub params: Vec<(String, String)>,
    /// Seed the construction ran under.
    pub seed: u64,
    /// The backend's declared (certified) quality bound, if any.
    pub certificate: Option<Quality>,
    /// Graph diameter the construction keyed on, if known.
    pub diameter: Option<u32>,
}

/// A frozen, versioned snapshot of one shortcut construction —
/// everything needed to answer SSSP / MST / aggregation / min-cut
/// queries without re-running the pipeline. Built once per graph via
/// [`freeze`](ShortcutIndex::freeze) (or the `lcs-core` adapters),
/// shared read-only (`Arc<ShortcutIndex>`) across query workers, and
/// serializable to the flat format described in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortcutIndex {
    meta: IndexMeta,
    graph: Graph,
    weights: Vec<u64>,
    partition: Partition,
    shortcuts: ShortcutSet,
    /// Derived from the fields above on freeze and load; never
    /// serialized.
    setup: AggregationSetup,
    paths: PartPaths,
}

impl ShortcutIndex {
    /// Freezes one construction into an index. The shortcuts are stored
    /// [stripped](ShortcutSet::stripped) to what connects each part,
    /// which keeps every part's dilation and raises no congestion. The
    /// aggregation trees (the "shortcut tree" hierarchy queries walk)
    /// are built here by the same deterministic BFS the one-shot
    /// pipeline uses on the unstripped set — stripping is idempotent,
    /// so both give the same trees, and index-served aggregations are
    /// byte-identical to fresh ones. [`Self::from_bytes`] ends here too,
    /// so a loaded index derives its trees by this same code.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != graph.m()` or the shortcut set's
    /// part count differs from the partition's (construction-bug
    /// class, same contract as [`AggregationSetup::build`]).
    pub fn freeze(
        graph: Graph,
        weights: Vec<u64>,
        partition: Partition,
        shortcuts: ShortcutSet,
        meta: IndexMeta,
    ) -> Self {
        assert_eq!(weights.len(), graph.m(), "one weight per edge");
        let shortcuts = shortcuts.stripped(&graph, &partition);
        let setup = AggregationSetup::build(&graph, &partition, &shortcuts);
        let paths = PartPaths::new(&graph, &partition, &setup);
        ShortcutIndex {
            meta,
            graph,
            weights,
            partition,
            shortcuts,
            setup,
            paths,
        }
    }

    /// Construction metadata.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// The graph the index was built on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Baseline edge weights (customization may override these at
    /// query time without touching the index).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// The partition the shortcuts augment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The per-part shortcut edge sets, as the construction built them
    /// but [stripped](ShortcutSet::stripped) to what connects each part:
    /// the same dilation, and no higher congestion.
    pub fn shortcuts(&self) -> &ShortcutSet {
        &self.shortcuts
    }

    /// The aggregation trees, ready for
    /// [`AggregationSetup::aggregate_in_session`] — built from graph +
    /// partition + shortcuts when the index is frozen or loaded, and
    /// never serialized. Every customization of the index borrows
    /// these; none copies them.
    pub fn aggregation_setup(&self) -> &AggregationSetup {
        &self.setup
    }

    /// Each part's listed members and their root paths in its frozen
    /// tree, derived when the index is frozen or loaded and never
    /// serialized: customization fills its depth table from it, and
    /// the served aggregate folds over it.
    pub fn part_paths(&self) -> &PartPaths {
        &self.paths
    }

    /// Number of aggregation trees (= parts).
    pub fn num_trees(&self) -> usize {
        self.setup.trees.len()
    }

    // ---- serialization ------------------------------------------------

    /// Serializes to the flat little-endian format (module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections: Vec<(u32, Vec<u8>)> = vec![
            (section::META, self.meta_bytes()),
            (section::GRAPH, self.graph_bytes()),
            (section::WEIGHTS, self.weights_bytes()),
            (section::PARTITION, self.partition_bytes()),
            (section::SHORTCUTS, self.shortcuts_bytes()),
        ];
        let table_len = 8 + 4 + 4 + sections.len() * 24;
        let mut out = Vec::with_capacity(
            table_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>() + 8,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = table_len as u64;
        for (id, body) in &sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            offset += body.len() as u64;
        }
        for (_, body) in &sections {
            out.extend_from_slice(body);
        }
        let checksum = Fnv::new().bytes(&out).finish();
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the five stored sections and [freezes](Self::freeze) them,
    /// which derives the aggregation trees and their root paths.
    ///
    /// # Errors
    ///
    /// [`IndexError`] on truncation, wrong magic, unsupported version,
    /// checksum mismatch, or structurally invalid content. Never
    /// panics on malformed input. A node count above `bytes.len()` is
    /// [`IndexError::Malformed`], decided before anything sized by it
    /// is allocated, so a forged count cannot ask for more memory than
    /// a constant factor of the buffer's length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IndexError> {
        if bytes.len() < 8 + 4 + 4 + 8 {
            return Err(IndexError::Truncated);
        }
        let (content, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if &content[..8] != MAGIC {
            return Err(IndexError::BadMagic);
        }
        let version = u32::from_le_bytes(content[8..12].try_into().expect("4 bytes"));
        if version != INDEX_FORMAT_VERSION {
            return Err(IndexError::UnsupportedVersion { found: version });
        }
        let n_sections = u32::from_le_bytes(content[12..16].try_into().expect("4 bytes")) as usize;
        let table_len = 16usize
            .checked_add(n_sections.checked_mul(24).ok_or(IndexError::Truncated)?)
            .ok_or(IndexError::Truncated)?;
        if content.len() < table_len {
            return Err(IndexError::Truncated);
        }
        // Structural length check first, so a cut-off file reports
        // `Truncated` rather than the checksum mismatch it also causes.
        for s in 0..n_sections {
            let e = 16 + s * 24;
            let off = u64::from_le_bytes(content[e + 8..e + 16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(content[e + 16..e + 24].try_into().expect("8 bytes"));
            let end = off.checked_add(len).ok_or(IndexError::Truncated)?;
            if end > content.len() as u64 {
                return Err(IndexError::Truncated);
            }
        }
        let computed = Fnv::new().bytes(content).finish();
        if stored != computed {
            return Err(IndexError::BadChecksum { stored, computed });
        }
        let find = |want: u32| -> Result<&[u8], IndexError> {
            for s in 0..n_sections {
                let e = 16 + s * 24;
                let id = u32::from_le_bytes(content[e..e + 4].try_into().expect("4 bytes"));
                if id != want {
                    continue;
                }
                let off = u64::from_le_bytes(content[e + 8..e + 16].try_into().expect("8 bytes"))
                    as usize;
                let len = u64::from_le_bytes(content[e + 16..e + 24].try_into().expect("8 bytes"))
                    as usize;
                let end = off.checked_add(len).ok_or(IndexError::Truncated)?;
                if end > content.len() {
                    return Err(IndexError::Truncated);
                }
                return Ok(&content[off..end]);
            }
            Err(IndexError::Malformed(format!("missing section {want}")))
        };

        let meta = parse_meta(find(section::META)?)?;
        let graph = parse_graph(find(section::GRAPH)?, bytes.len())?;
        let weights = parse_weights(find(section::WEIGHTS)?, graph.m())?;
        let partition = parse_partition(find(section::PARTITION)?, &graph)?;
        let shortcuts = parse_shortcuts(find(section::SHORTCUTS)?, &graph, &partition)?;
        Ok(Self::freeze(graph, weights, partition, shortcuts, meta))
    }

    /// Writes [`Self::to_bytes`] to `path`.
    ///
    /// # Errors
    ///
    /// [`IndexError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), IndexError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| IndexError::Io(e.to_string()))
    }

    /// Reads and parses an index from `path`.
    ///
    /// # Errors
    ///
    /// [`IndexError::Io`] on filesystem failure, otherwise as
    /// [`Self::from_bytes`].
    pub fn load(path: &Path) -> Result<Self, IndexError> {
        let bytes = std::fs::read(path).map_err(|e| IndexError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    // ---- section emitters ---------------------------------------------

    fn meta_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.meta.backend);
        out.extend_from_slice(&(self.meta.params.len() as u32).to_le_bytes());
        for (k, v) in &self.meta.params {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out.extend_from_slice(&self.meta.seed.to_le_bytes());
        match self.meta.certificate {
            Some(q) => {
                out.extend_from_slice(&1u32.to_le_bytes());
                out.extend_from_slice(&q.congestion.to_le_bytes());
                out.extend_from_slice(&q.dilation.to_le_bytes());
            }
            None => out.extend_from_slice(&0u32.to_le_bytes()),
        }
        match self.meta.diameter {
            Some(d) => {
                out.extend_from_slice(&1u32.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
            }
            None => out.extend_from_slice(&0u32.to_le_bytes()),
        }
        out
    }

    fn graph_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.graph.m() * 8);
        out.extend_from_slice(&(self.graph.n() as u32).to_le_bytes());
        out.extend_from_slice(&(self.graph.m() as u32).to_le_bytes());
        for &(u, v) in self.graph.edges() {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn weights_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.weights.len() * 8);
        for &w in &self.weights {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    fn partition_bytes(&self) -> Vec<u8> {
        // Parts are stored sorted (the Partition invariant), so
        // Partition::new reconstructs leaders and the part_of map
        // exactly.
        let parts = self.partition.parts();
        let mut out = Vec::new();
        out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
        let mut off = 0u32;
        out.extend_from_slice(&off.to_le_bytes());
        for p in parts {
            off += p.len() as u32;
            out.extend_from_slice(&off.to_le_bytes());
        }
        for p in parts {
            for &v in p {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    fn shortcuts_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let parts = self.shortcuts.num_parts();
        out.extend_from_slice(&(parts as u32).to_le_bytes());
        let mut off = 0u32;
        out.extend_from_slice(&off.to_le_bytes());
        for i in 0..parts {
            off += self.shortcuts.edges(i).len() as u32;
            out.extend_from_slice(&off.to_le_bytes());
        }
        for i in 0..parts {
            for &e in self.shortcuts.edges(i) {
                out.extend_from_slice(&e.0.to_le_bytes());
            }
        }
        out
    }
}

// ---- parsing helpers ---------------------------------------------------

/// Little-endian cursor over a section body; every read is
/// bounds-checked and fails with [`IndexError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], IndexError> {
        let end = self.at.checked_add(len).ok_or(IndexError::Truncated)?;
        if end > self.buf.len() {
            return Err(IndexError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, IndexError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, IndexError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, IndexError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| IndexError::Malformed("non-UTF-8 string".to_string()))
    }

    fn done(&self) -> Result<(), IndexError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(IndexError::Malformed(format!(
                "{} trailing bytes in section",
                self.buf.len() - self.at
            )))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn parse_meta(body: &[u8]) -> Result<IndexMeta, IndexError> {
    let mut c = Cursor::new(body);
    let backend = c.string()?;
    let n_params = c.u32()? as usize;
    if n_params > body.len() {
        return Err(IndexError::Truncated);
    }
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let k = c.string()?;
        let v = c.string()?;
        params.push((k, v));
    }
    let seed = c.u64()?;
    let certificate = match c.u32()? {
        0 => None,
        1 => Some(Quality {
            congestion: c.u32()?,
            dilation: c.u32()?,
        }),
        tag => return Err(IndexError::Malformed(format!("bad certificate tag {tag}"))),
    };
    let diameter = match c.u32()? {
        0 => None,
        1 => Some(c.u32()?),
        tag => return Err(IndexError::Malformed(format!("bad diameter tag {tag}"))),
    };
    c.done()?;
    Ok(IndexMeta {
        backend,
        params,
        seed,
        certificate,
        diameter,
    })
}

/// Parses the graph section, refusing a node count above `max_nodes`.
fn parse_graph(body: &[u8], max_nodes: usize) -> Result<Graph, IndexError> {
    let mut c = Cursor::new(body);
    let n = c.u32()? as usize;
    if n > max_nodes {
        return Err(IndexError::Malformed(format!(
            "node count {n} exceeds the buffer's {max_nodes} bytes"
        )));
    }
    let m = c.u32()? as usize;
    if m > body.len() / 8 {
        return Err(IndexError::Truncated);
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u: NodeId = c.u32()?;
        let v: NodeId = c.u32()?;
        edges.push((u, v));
    }
    c.done()?;
    Graph::from_edges(n, &edges).map_err(|e| IndexError::Malformed(format!("graph: {e}")))
}

fn parse_weights(body: &[u8], m: usize) -> Result<Vec<u64>, IndexError> {
    if body.len() != m * 8 {
        return Err(IndexError::Malformed(format!(
            "weights section is {} bytes for m={m}",
            body.len()
        )));
    }
    let mut c = Cursor::new(body);
    let mut weights = Vec::with_capacity(m);
    for _ in 0..m {
        weights.push(c.u64()?);
    }
    Ok(weights)
}

/// Parses a `count, offsets[count+1], items…` ragged u32 array.
fn parse_ragged(c: &mut Cursor<'_>, limit: usize) -> Result<Vec<Vec<u32>>, IndexError> {
    let count = c.u32()? as usize;
    if count > limit {
        return Err(IndexError::Malformed(format!(
            "ragged array count {count} exceeds plausible bound {limit}"
        )));
    }
    let mut offsets = Vec::with_capacity(count + 1);
    for _ in 0..=count {
        offsets.push(c.u32()? as usize);
    }
    let mut lists = Vec::with_capacity(count);
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return Err(IndexError::Malformed("offsets not monotone".to_string()));
        }
        if (w[1] - w[0]) * 4 > c.buf.len() {
            return Err(IndexError::Truncated);
        }
        let mut list = Vec::with_capacity(w[1] - w[0]);
        for _ in w[0]..w[1] {
            list.push(c.u32()?);
        }
        lists.push(list);
    }
    Ok(lists)
}

fn parse_partition(body: &[u8], graph: &Graph) -> Result<Partition, IndexError> {
    let mut c = Cursor::new(body);
    let parts = parse_ragged(&mut c, graph.n().max(1))?;
    c.done()?;
    Partition::new(graph, parts).map_err(|e| IndexError::Malformed(format!("partition: {e}")))
}

fn parse_shortcuts(
    body: &[u8],
    graph: &Graph,
    partition: &Partition,
) -> Result<ShortcutSet, IndexError> {
    let mut c = Cursor::new(body);
    let lists = parse_ragged(&mut c, partition.num_parts())?;
    c.done()?;
    if lists.len() != partition.num_parts() {
        return Err(IndexError::Malformed(format!(
            "{} shortcut lists for {} parts",
            lists.len(),
            partition.num_parts()
        )));
    }
    let m = graph.m() as u32;
    for list in &lists {
        for &e in list {
            if e >= m {
                return Err(IndexError::Malformed(format!(
                    "shortcut edge id {e} out of range (m={m})"
                )));
            }
        }
    }
    Ok(ShortcutSet::from_edge_lists(
        lists
            .into_iter()
            .map(|l| l.into_iter().map(EdgeId).collect())
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::global_tree_shortcuts;
    use lcs_graph::{HighwayGraph, HighwayParams};

    fn fixture() -> ShortcutIndex {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 10,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        let s = global_tree_shortcuts(&g, &p, 0, Some(1));
        let weights: Vec<u64> = (0..g.m() as u64).map(|e| e % 17 + 1).collect();
        ShortcutIndex::freeze(
            g,
            weights,
            p,
            s,
            IndexMeta {
                backend: "global_tree".to_string(),
                params: vec![("root".to_string(), "0".to_string())],
                seed: 42,
                certificate: Some(Quality {
                    congestion: 3,
                    dilation: 8,
                }),
                diameter: Some(4),
            },
        )
    }

    #[test]
    fn roundtrip_is_byte_exact_and_value_equal() {
        let idx = fixture();
        let bytes = idx.to_bytes();
        let back = ShortcutIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.to_bytes(), bytes, "serialization is canonical");
    }

    #[test]
    fn frozen_trees_match_fresh_build() {
        let idx = fixture();
        let fresh = AggregationSetup::build(idx.graph(), idx.partition(), idx.shortcuts());
        assert_eq!(idx.aggregation_setup(), &fresh);
    }

    #[test]
    fn typed_errors_not_panics() {
        let idx = fixture();
        let bytes = idx.to_bytes();

        assert_eq!(ShortcutIndex::from_bytes(&[]), Err(IndexError::Truncated));
        assert_eq!(
            ShortcutIndex::from_bytes(&bytes[..bytes.len() / 2]),
            Err(IndexError::Truncated)
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            ShortcutIndex::from_bytes(&bad_magic),
            Err(IndexError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            ShortcutIndex::from_bytes(&bad_version),
            Err(IndexError::UnsupportedVersion { found: 99 })
        );

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x5a;
        assert!(matches!(
            ShortcutIndex::from_bytes(&flipped),
            Err(IndexError::BadChecksum { .. })
        ));
    }

    #[test]
    fn save_load_roundtrip() {
        let idx = fixture();
        let path = std::env::temp_dir().join("lcs_index_unit_test.lcsidx");
        idx.save(&path).unwrap();
        let back = ShortcutIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, idx);
    }
}
