//! Part collections: vertex-disjoint connected subsets `S_1, …, S_ℓ`.
//!
//! The shortcut framework (Definition 1.1 of the paper) is always stated
//! relative to such a collection. Parts arise as MST fragments, cluster
//! decompositions, or — on the lower-bound family — the long paths.
//! Following the paper's distributed convention, each part is identified
//! by its *leader*, the maximum-id node in the part.

use lcs_graph::{bfs, BfsOptions, Graph, NodeId, UNREACHABLE};
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// Error building a [`Partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A node id is out of range.
    OutOfRange {
        /// The offending node.
        node: NodeId,
    },
    /// A node appears in two parts (or twice in one part).
    Overlap {
        /// The duplicated node.
        node: NodeId,
    },
    /// A part induces a disconnected subgraph.
    NotConnected {
        /// Index of the offending part.
        part: usize,
    },
    /// A part is empty.
    EmptyPart {
        /// Index of the offending part.
        part: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::OutOfRange { node } => write!(f, "node {node} out of range"),
            PartitionError::Overlap { node } => write!(f, "node {node} appears in two parts"),
            PartitionError::NotConnected { part } => {
                write!(f, "part {part} is not connected in G")
            }
            PartitionError::EmptyPart { part } => write!(f, "part {part} is empty"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A validated collection of vertex-disjoint connected parts.
///
/// # Examples
///
/// ```
/// use lcs_graph::generators::path;
/// use lcs_shortcut::Partition;
///
/// let g = path(6);
/// let p = Partition::new(&g, vec![vec![0, 1, 2], vec![4, 5]]).unwrap();
/// assert_eq!(p.num_parts(), 2);
/// assert_eq!(p.leader(0), 2); // max id in the part
/// assert_eq!(p.part_of(3), None); // uncovered nodes are allowed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    parts: Vec<Vec<NodeId>>,
    part_of: Vec<Option<u32>>,
    leaders: Vec<NodeId>,
}

impl Partition {
    /// Validates and builds a partition. Parts need not cover all nodes,
    /// but must be non-empty, disjoint, and induce connected subgraphs.
    /// Each part is checked as it is read, so the first bad part in
    /// order is the one reported.
    ///
    /// Runs in O(n + m): each part's connectivity is one search that
    /// walks only the part's own members' adjacency, and the `seen`
    /// marks it shares with every other part never need clearing,
    /// since the parts are disjoint.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn new(graph: &Graph, mut parts: Vec<Vec<NodeId>>) -> Result<Self, PartitionError> {
        let n = graph.n();
        let mut part_of: Vec<Option<u32>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for (i, part) in parts.iter_mut().enumerate() {
            if part.is_empty() {
                return Err(PartitionError::EmptyPart { part: i });
            }
            part.sort_unstable();
            for &v in part.iter() {
                if v as usize >= n {
                    return Err(PartitionError::OutOfRange { node: v });
                }
                if part_of[v as usize].is_some() {
                    return Err(PartitionError::Overlap { node: v });
                }
                part_of[v as usize] = Some(i as u32);
            }
            // Search `G[part]` from its first member: later parts are
            // not marked yet, and earlier ones carry other indices.
            let mut reached = 1;
            seen[part[0] as usize] = true;
            stack.push(part[0]);
            while let Some(u) = stack.pop() {
                for &w in graph.neighbors(u) {
                    if part_of[w as usize] == Some(i as u32) && !seen[w as usize] {
                        seen[w as usize] = true;
                        reached += 1;
                        stack.push(w);
                    }
                }
            }
            if reached < part.len() {
                return Err(PartitionError::NotConnected { part: i });
            }
        }
        let leaders = parts
            .iter()
            .map(|p| *p.last().expect("non-empty part"))
            .collect();
        Ok(Partition {
            parts,
            part_of,
            leaders,
        })
    }

    /// Number of parts `ℓ`.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Members of part `i`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn part(&self, i: usize) -> &[NodeId] {
        &self.parts[i]
    }

    /// All parts.
    pub fn parts(&self) -> &[Vec<NodeId>] {
        &self.parts
    }

    /// The leader (maximum-id member) of part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn leader(&self, i: usize) -> NodeId {
        self.leaders[i]
    }

    /// The part containing `v`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn part_of(&self, v: NodeId) -> Option<u32> {
        self.part_of[v as usize]
    }

    /// Size of the largest part.
    pub fn max_part_size(&self) -> usize {
        self.parts.iter().map(|p| p.len()).max().unwrap_or(0)
    }

    /// Total number of covered nodes.
    pub fn covered(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Random BFS-Voronoi partition: `k` random centers grow
    /// simultaneously; every node joins the cell of the center whose
    /// BFS token reaches it first (ties to the earlier center). Cells
    /// are connected by construction, cover the component(s) containing
    /// centers, and are returned with empty cells removed.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > g.n()`.
    pub fn bfs_balls<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Partition {
        assert!(k >= 1 && k <= g.n(), "invalid center count");
        let mut centers: Vec<NodeId> = g.nodes().collect();
        centers.shuffle(rng);
        centers.truncate(k);
        // Multi-source BFS with owner propagation.
        let mut owner: Vec<Option<u32>> = vec![None; g.n()];
        let mut queue = std::collections::VecDeque::new();
        for (i, &c) in centers.iter().enumerate() {
            if owner[c as usize].is_none() {
                owner[c as usize] = Some(i as u32);
                queue.push_back(c);
            }
        }
        while let Some(u) = queue.pop_front() {
            let o = owner[u as usize];
            for &w in g.neighbors(u) {
                if owner[w as usize].is_none() {
                    owner[w as usize] = o;
                    queue.push_back(w);
                }
            }
        }
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for v in g.nodes() {
            if let Some(o) = owner[v as usize] {
                parts[o as usize].push(v);
            }
        }
        parts.retain(|p| !p.is_empty());
        Partition::new(g, parts).expect("Voronoi cells are valid parts")
    }

    /// The partition whose parts are the connected components of the
    /// spanning forest described by `component_of` labels (used for MST
    /// fragments). Labels with no nodes are skipped; each label's node
    /// set must be connected in `g`.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] (e.g. a label class that is not
    /// connected in `g`).
    pub fn from_labels(g: &Graph, labels: &[u32]) -> Result<Partition, PartitionError> {
        assert_eq!(labels.len(), g.n());
        let mut by_label: std::collections::BTreeMap<u32, Vec<NodeId>> = Default::default();
        for (v, &l) in labels.iter().enumerate() {
            by_label.entry(l).or_default().push(v as NodeId);
        }
        Partition::new(g, by_label.into_values().collect())
    }

    /// Radius of part `i` from its leader, *within the induced subgraph
    /// `G[S_i]`* — the quantity the paper's truncated-BFS largeness test
    /// measures.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn leader_radius(&self, g: &Graph, i: usize) -> u32 {
        let part = &self.parts[i];
        let member = |v: NodeId| self.part_of[v as usize] == Some(i as u32);
        let r = bfs(
            g,
            &[self.leaders[i]],
            &BfsOptions {
                max_depth: u32::MAX,
                node_filter: Some(&member),
            },
        );
        part.iter()
            .map(|&v| r.dist[v as usize])
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators::{grid, path};
    use lcs_graph::is_set_connected;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn validation_rejects_bad_parts() {
        let g = path(6);
        assert!(matches!(
            Partition::new(&g, vec![vec![0, 2]]),
            Err(PartitionError::NotConnected { part: 0 })
        ));
        assert!(matches!(
            Partition::new(&g, vec![vec![0, 1], vec![1, 2]]),
            Err(PartitionError::Overlap { node: 1 })
        ));
        assert!(matches!(
            Partition::new(&g, vec![vec![9]]),
            Err(PartitionError::OutOfRange { node: 9 })
        ));
        assert!(matches!(
            Partition::new(&g, vec![vec![]]),
            Err(PartitionError::EmptyPart { part: 0 })
        ));
    }

    /// Parts are checked in order: a disconnected part 0 is reported
    /// before part 1's overlap with it.
    #[test]
    fn first_bad_part_is_reported() {
        let g = path(6);
        assert_eq!(
            Partition::new(&g, vec![vec![0, 2], vec![2, 3]]),
            Err(PartitionError::NotConnected { part: 0 })
        );
    }

    /// A part is connected in the subgraph it induces, not through the
    /// members of another part, whichever of the two comes first.
    #[test]
    fn a_part_is_not_connected_through_another() {
        let g = path(5);
        assert_eq!(
            Partition::new(&g, vec![vec![1, 3], vec![2]]),
            Err(PartitionError::NotConnected { part: 0 })
        );
        assert_eq!(
            Partition::new(&g, vec![vec![2], vec![1, 3]]),
            Err(PartitionError::NotConnected { part: 1 })
        );
    }

    #[test]
    fn leaders_are_max_ids() {
        let g = path(8);
        let p = Partition::new(&g, vec![vec![2, 0, 1], vec![5, 6, 7]]).unwrap();
        assert_eq!(p.leader(0), 2);
        assert_eq!(p.leader(1), 7);
        assert_eq!(p.part(0), &[0, 1, 2]);
        assert_eq!(p.covered(), 6);
        assert_eq!(p.max_part_size(), 3);
    }

    #[test]
    fn bfs_balls_cover_and_connect() {
        let g = grid(6, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let p = Partition::bfs_balls(&g, 5, &mut rng);
        assert_eq!(p.covered(), 36);
        for i in 0..p.num_parts() {
            assert!(is_set_connected(&g, p.part(i)), "part {i} connected");
        }
    }

    #[test]
    fn bfs_balls_single_center_is_whole_component() {
        let g = grid(3, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Partition::bfs_balls(&g, 1, &mut rng);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.part(0).len(), 9);
    }

    #[test]
    fn from_labels_groups_nodes() {
        let g = path(6);
        let labels = [0, 0, 0, 7, 7, 7];
        let p = Partition::from_labels(&g, &labels).unwrap();
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.part(1), &[3, 4, 5]);
    }

    #[test]
    fn leader_radius_of_path_part() {
        let g = path(10);
        let p = Partition::new(&g, vec![vec![0, 1, 2, 3, 4]]).unwrap();
        // Leader is 4; radius within the part is 4 (to node 0).
        assert_eq!(p.leader_radius(&g, 0), 4);
    }
}
