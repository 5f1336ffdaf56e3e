//! Maps the engine's per-phase labels to legal metric names.
//!
//! Phase labels such as `B3.parallel_bfs@4` or
//! `tree_aggregate+tree_aggregate` contain characters metric names may
//! not. Each label maps to one phase family — `A`, `B1`…`B4` or
//! `detect` — and a family's rounds and messages are summed over every
//! rung of the diameter-guess ladder.

use lcs_congest::RunStats;

/// Phase families, in pipeline order.
pub const FAMILIES: [&str; 6] = ["A", "B1", "B2", "B3", "B4", "detect"];

/// The family of a phase label, or `None` for a label the pipeline
/// does not emit.
pub fn family(label: &str) -> Option<&'static str> {
    // Phase A runs its `n` and `ecc` convergecasts as one joined phase.
    if label == "tree_aggregate+tree_aggregate" {
        return Some("A");
    }
    let head = label.split(['.', '@']).next()?;
    match head {
        "A" => Some("A"),
        "B1" => Some("B1"),
        "B2" => Some("B2"),
        "B3" => Some("B3"),
        "B4" => Some("B4"),
        "F" if label.starts_with("F.detect_") => Some("detect"),
        _ => None,
    }
}

/// Engine totals of one pipeline run, per phase family.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTotals {
    /// Rounds per family, indexed like [`FAMILIES`].
    pub rounds: [u64; 6],
    /// Messages per family, indexed like [`FAMILIES`].
    pub messages: [u64; 6],
    /// Messages lost to drop faults, summed over phases.
    pub dropped: u64,
    /// Deliveries deferred by delay faults.
    pub delayed: u64,
    /// Deliveries whose payload was corrupted.
    pub corrupted: u64,
    /// Labels no family claims; their counts are left out.
    pub unknown: Vec<String>,
}

impl PhaseTotals {
    /// Sums `phases` per family.
    pub fn of(phases: &[RunStats]) -> Self {
        let mut t = PhaseTotals::default();
        for p in phases {
            t.dropped += p.dropped;
            t.delayed += p.delayed;
            t.corrupted += p.corrupted;
            match family(&p.label).and_then(|f| FAMILIES.iter().position(|&x| x == f)) {
                Some(i) => {
                    t.rounds[i] += p.rounds;
                    t.messages[i] += p.messages;
                }
                None => t.unknown.push(p.label.clone()),
            }
        }
        t
    }

    /// Rounds of `family`.
    pub fn rounds_of(&self, family: &str) -> u64 {
        FAMILIES
            .iter()
            .position(|&f| f == family)
            .map_or(0, |i| self.rounds[i])
    }

    /// Messages of `family`.
    pub fn messages_of(&self, family: &str) -> u64 {
        FAMILIES
            .iter()
            .position(|&f| f == family)
            .map_or(0, |i| self.messages[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_map_to_families() {
        assert_eq!(family("A.bfs"), Some("A"));
        assert_eq!(family("tree_aggregate+tree_aggregate"), Some("A"));
        assert_eq!(family("B1.parts@4"), Some("B1"));
        assert_eq!(family("B1.largeness@8"), Some("B1"));
        assert_eq!(family("B2.ranks@4"), Some("B2"));
        assert_eq!(family("B3.parallel_bfs@4"), Some("B3"));
        assert_eq!(family("B4.verify@16"), Some("B4"));
        assert_eq!(family("F.detect_bfs"), Some("detect"));
        assert_eq!(family("F.detect_census"), Some("detect"));
        assert_eq!(family("bfs"), None);
        assert_eq!(family("F.other"), None);
        assert_eq!(family("B31.x"), None);
    }

    #[test]
    fn totals_sum_each_family_over_guesses() {
        let g = lcs_graph::Graph::from_edges(2, &[(0, 1)]).unwrap();
        let phase = |label: &str, rounds, messages| {
            let mut s = RunStats::new(&g).labeled(label);
            s.rounds = rounds;
            s.messages = messages;
            s
        };
        let t = PhaseTotals::of(&[
            phase("A.bfs", 6, 10),
            phase("tree_aggregate+tree_aggregate", 10, 20),
            phase("B3.parallel_bfs@4", 100, 1000),
            phase("B3.parallel_bfs@8", 50, 500),
            phase("F.detect_bfs", 7, 70),
            phase("mystery", 1, 1),
        ]);
        assert_eq!(t.rounds_of("A"), 16);
        assert_eq!(t.messages_of("A"), 30);
        assert_eq!(t.rounds_of("B3"), 150);
        assert_eq!(t.messages_of("B3"), 1500);
        assert_eq!(t.rounds_of("detect"), 7);
        assert_eq!(t.rounds_of("B4"), 0);
        assert_eq!(t.unknown, vec!["mystery".to_string()]);
    }
}
