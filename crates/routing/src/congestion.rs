//! Congestion accounting for the routing experiments.
//!
//! Lemma 9 claims dilation exactly `2λ + 2` and congestion `O(k log n)` when
//! every node starts `k` messages to uniform targets. The tracker records how
//! many message copies every node handles in every round so the experiment can
//! report the maximum and compare it against `k · log n`.

use std::collections::HashMap;

use tsa_sim::{NodeId, Round};

/// Records message copies handled per node per round.
#[derive(Clone, Debug, Default)]
pub struct CongestionTracker {
    per_round: HashMap<Round, HashMap<NodeId, usize>>,
    total: usize,
}

impl CongestionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` handled `copies` message copies in `round`.
    pub fn record(&mut self, round: Round, node: NodeId, copies: usize) {
        if copies == 0 {
            return;
        }
        *self
            .per_round
            .entry(round)
            .or_default()
            .entry(node)
            .or_insert(0) += copies;
        self.total += copies;
    }

    /// Total copies handled over the whole run.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The largest number of copies any single node handled in any single
    /// round — the congestion of Lemma 9.
    pub fn max_per_node_round(&self) -> usize {
        self.per_round
            .values()
            .flat_map(|m| m.values())
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Mean copies per (node, round) pair that handled at least one copy.
    pub fn mean_per_active_node_round(&self) -> f64 {
        let count: usize = self.per_round.values().map(|m| m.len()).sum();
        if count == 0 {
            0.0
        } else {
            self.total as f64 / count as f64
        }
    }

    /// Number of distinct rounds with recorded traffic.
    pub fn rounds(&self) -> usize {
        self.per_round.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut t = CongestionTracker::new();
        t.record(0, NodeId(1), 3);
        t.record(0, NodeId(1), 2);
        t.record(0, NodeId(2), 1);
        t.record(1, NodeId(3), 7);
        t.record(1, NodeId(4), 0); // ignored
        assert_eq!(t.total(), 13);
        assert_eq!(t.max_per_node_round(), 7);
        assert_eq!(t.rounds(), 2);
        assert!((t.mean_per_active_node_round() - 13.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_zero() {
        let t = CongestionTracker::new();
        assert_eq!(t.total(), 0);
        assert_eq!(t.max_per_node_round(), 0);
        assert_eq!(t.mean_per_active_node_round(), 0.0);
    }
}
