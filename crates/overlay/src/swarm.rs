//! Swarms and a position index for efficient range queries on the ring.
//!
//! For a point `p ∈ [0,1)` the *swarm* `S(p)` is the set of nodes within ring
//! distance `cλ/n` of `p` (Section 3). Swarms — not individual nodes — are the
//! building blocks of the overlay: a message is always held by a whole swarm,
//! which is what makes the construction survive churn.

use tsa_sim::NodeId;

use crate::interval::Interval;
use crate::params::OverlayParams;
use crate::position::Position;

/// A sorted index from positions to node identifiers supporting wrap-around
/// range queries, nearest-neighbour queries and swarm extraction.
///
/// The index is **incrementally maintainable**: [`SwarmIndex::insert`] and
/// [`SwarmIndex::remove`] keep the sorted order under join/leave churn, so
/// callers tracking a changing membership never rebuild from scratch.
/// `insert` locates its slot by binary search; `remove` scans linearly for
/// the node (positions, not identifiers, are the sort key); both shift the
/// tail, so each operation is `O(n)` worst case — for the handful of churn
/// events one round actually brings, far cheaper than an `O(n log n)`
/// rebuild (2.7 µs against 29.7 µs at `n = 1024`; EXPERIMENTS.md,
/// "Wall-clock benchmarks"). An incrementally maintained
/// index is always byte-identical to a fresh [`SwarmIndex::build`] over the
/// same membership (pinned by a property test below).
#[derive(Clone, Debug, Default)]
pub struct SwarmIndex {
    /// Entries sorted by `(position value, node id)`.
    entries: Vec<(f64, NodeId)>,
}

impl SwarmIndex {
    /// Builds an index from `(node, position)` pairs.
    pub fn build<I>(assignments: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Position)>,
    {
        let mut entries: Vec<(f64, NodeId)> = assignments
            .into_iter()
            .map(|(id, p)| (p.value(), id))
            .collect();
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        SwarmIndex { entries }
    }

    /// Inserts `node` at position `p`, keeping the index sorted. A node that
    /// is already indexed (at any position) is moved to `p`.
    pub fn insert(&mut self, node: NodeId, p: Position) {
        self.remove(node);
        let key = (p.value(), node);
        let at = self.entries.partition_point(|&(v, id)| (v, id) < key);
        self.entries.insert(at, (key.0, key.1));
    }

    /// Removes `node` from the index. Returns its position, or `None` if the
    /// node was not indexed. Locating the node scans linearly (positions are
    /// the sort key, not identifiers); the index stays sorted.
    pub fn remove(&mut self, node: NodeId) -> Option<Position> {
        let at = self.entries.iter().position(|&(_, id)| id == node)?;
        let (v, _) = self.entries.remove(at);
        Some(Position::new(v))
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the index contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(node, position)` pairs in position order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Position)> + '_ {
        self.entries.iter().map(|(v, id)| (*id, Position::new(*v)))
    }

    /// All nodes whose position lies in `interval`.
    pub fn in_interval(&self, interval: &Interval) -> Vec<NodeId> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        if interval.is_full_ring() {
            return self.entries.iter().map(|(_, id)| *id).collect();
        }
        let lo = interval.left_end().value();
        let hi = interval.right_end().value();
        let mut out = Vec::new();
        if lo <= hi {
            self.collect_range(lo, hi, &mut out);
        } else {
            // Wraps around 0/1.
            self.collect_range(lo, 1.0, &mut out);
            self.collect_range(0.0, hi, &mut out);
        }
        out
    }

    fn collect_range(&self, lo: f64, hi: f64, out: &mut Vec<NodeId>) {
        let start = self.entries.partition_point(|(v, _)| *v < lo - 1e-15);
        for &(v, id) in &self.entries[start..] {
            if v > hi + 1e-15 {
                break;
            }
            out.push(id);
        }
    }

    /// Number of nodes whose position lies in `interval` — the counting
    /// counterpart of [`SwarmIndex::in_interval`]: two binary searches, no
    /// allocation, identical tolerance semantics.
    pub fn count_in_interval(&self, interval: &Interval) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        if interval.is_full_ring() {
            return self.entries.len();
        }
        let lo = interval.left_end().value();
        let hi = interval.right_end().value();
        if lo <= hi {
            self.count_range(lo, hi)
        } else {
            // Wraps around 0/1.
            self.count_range(lo, 1.0) + self.count_range(0.0, hi)
        }
    }

    fn count_range(&self, lo: f64, hi: f64) -> usize {
        let start = self.entries.partition_point(|(v, _)| *v < lo - 1e-15);
        let end = self.entries.partition_point(|(v, _)| *v <= hi + 1e-15);
        end.saturating_sub(start)
    }

    /// Number of nodes within `radius` of `p` (allocation-free
    /// [`SwarmIndex::within`]).
    pub fn count_within(&self, p: Position, radius: f64) -> usize {
        self.count_in_interval(&Interval::around(p, radius))
    }

    /// The swarm `S(p)` under `params`: all nodes within `cλ/n` of `p`.
    pub fn swarm(&self, p: Position, params: &OverlayParams) -> Vec<NodeId> {
        self.in_interval(&Interval::around(p, params.swarm_radius()))
    }

    /// All nodes within `radius` of `p`.
    pub fn within(&self, p: Position, radius: f64) -> Vec<NodeId> {
        self.in_interval(&Interval::around(p, radius))
    }

    /// The node closest to `p` (ties broken by identifier), if any.
    pub fn nearest(&self, p: Position) -> Option<(NodeId, Position)> {
        self.iter().min_by(|a, b| {
            p.distance(a.1)
                .partial_cmp(&p.distance(b.1))
                .unwrap()
                .then(a.0.cmp(&b.0))
        })
    }

    /// Sizes of the swarms around every indexed node (used by experiment F1).
    /// Counts via binary search instead of materializing each swarm.
    pub fn swarm_size_distribution(&self, params: &OverlayParams) -> Vec<usize> {
        let radius = params.swarm_radius();
        self.iter()
            .map(|(_, p)| self.count_within(p, radius))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn idx(positions: &[f64]) -> SwarmIndex {
        SwarmIndex::build(
            positions
                .iter()
                .enumerate()
                .map(|(i, &p)| (NodeId(i as u64), Position::new(p))),
        )
    }

    #[test]
    fn range_query_simple() {
        let s = idx(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let hits = s.in_interval(&Interval::around(Position::new(0.3), 0.11));
        assert_eq!(hits, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn range_query_wraps_around() {
        let s = idx(&[0.05, 0.5, 0.95]);
        let hits = s.in_interval(&Interval::around(Position::new(0.0), 0.1));
        assert!(hits.contains(&NodeId(0)));
        assert!(hits.contains(&NodeId(2)));
        assert!(!hits.contains(&NodeId(1)));
    }

    #[test]
    fn full_ring_interval_returns_everyone() {
        let s = idx(&[0.1, 0.4, 0.8]);
        let hits = s.in_interval(&Interval::around(Position::new(0.2), 0.7));
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn nearest_prefers_closest() {
        let s = idx(&[0.1, 0.45, 0.9]);
        let (id, _) = s.nearest(Position::new(0.05)).unwrap();
        assert_eq!(id, NodeId(0));
        let (id, _) = s.nearest(Position::new(0.99)).unwrap();
        assert_eq!(id, NodeId(2));
        assert!(idx(&[]).nearest(Position::new(0.5)).is_none());
    }

    #[test]
    fn swarm_uses_param_radius() {
        let params = OverlayParams::new(100, 1.0); // radius = λ/n = 7/100
        let s = idx(&[0.10, 0.14, 0.18, 0.30]);
        let members = s.swarm(Position::new(0.12), &params);
        assert!(members.contains(&NodeId(0)));
        assert!(members.contains(&NodeId(1)));
        assert!(members.contains(&NodeId(2)));
        assert!(!members.contains(&NodeId(3)));
    }

    #[test]
    fn swarm_size_distribution_has_one_entry_per_node() {
        let params = OverlayParams::new(10, 1.0);
        let s = idx(&[0.0, 0.1, 0.2, 0.9]);
        let dist = s.swarm_size_distribution(&params);
        assert_eq!(dist.len(), 4);
        assert!(
            dist.iter().all(|&x| x >= 1),
            "every node is in its own swarm"
        );
    }

    #[test]
    fn insert_and_remove_maintain_sorted_order() {
        let mut s = SwarmIndex::default();
        s.insert(NodeId(2), Position::new(0.5));
        s.insert(NodeId(0), Position::new(0.9));
        s.insert(NodeId(1), Position::new(0.1));
        let order: Vec<NodeId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(0)]);
        // Re-inserting moves a node instead of duplicating it.
        s.insert(NodeId(2), Position::new(0.95));
        assert_eq!(s.len(), 3);
        let order: Vec<NodeId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![NodeId(1), NodeId(0), NodeId(2)]);
        // Removal returns the position; absent nodes are a no-op.
        let p = s.remove(NodeId(0)).unwrap();
        assert!(p.distance(Position::new(0.9)) < 1e-12);
        assert!(s.remove(NodeId(0)).is_none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn count_within_matches_materialized_queries() {
        let s = idx(&[0.05, 0.1, 0.2, 0.5, 0.95]);
        for (center, radius) in [(0.1, 0.06), (0.0, 0.11), (0.5, 0.0), (0.7, 0.5)] {
            let interval = Interval::around(Position::new(center), radius);
            assert_eq!(
                s.count_in_interval(&interval),
                s.in_interval(&interval).len(),
                "center {center}, radius {radius}"
            );
        }
        assert_eq!(
            SwarmIndex::default().count_within(Position::new(0.5), 0.2),
            0
        );
    }

    /// One step of an interleaved churn/query workload for the property test.
    #[derive(Clone, Debug)]
    enum Op {
        Join(u64, f64),
        Leave(u64),
        Query(f64, f64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..40, 0.0f64..1.0).prop_map(|(id, p)| Op::Join(id, p)),
            (0u64..40).prop_map(Op::Leave),
            (0.0f64..1.0, 0.0f64..0.6).prop_map(|(c, r)| Op::Query(c, r)),
        ]
    }

    proptest! {
        /// The incremental index equals a from-scratch rebuild after arbitrary
        /// interleaved join/leave/query sequences — every query (wrap-around
        /// and interior alike) answers identically, and the final entry order
        /// is byte-identical.
        #[test]
        fn prop_incremental_index_equals_rebuild(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            let mut incremental = SwarmIndex::default();
            let mut membership: Vec<(NodeId, Position)> = Vec::new();
            for op in ops {
                match op {
                    Op::Join(id, p) => {
                        let (id, p) = (NodeId(id), Position::new(p));
                        membership.retain(|(m, _)| *m != id);
                        membership.push((id, p));
                        incremental.insert(id, p);
                    }
                    Op::Leave(id) => {
                        let id = NodeId(id);
                        membership.retain(|(m, _)| *m != id);
                        incremental.remove(id);
                    }
                    Op::Query(center, radius) => {
                        let rebuilt = SwarmIndex::build(membership.iter().copied());
                        let interval = Interval::around(Position::new(center), radius);
                        prop_assert_eq!(
                            incremental.in_interval(&interval),
                            rebuilt.in_interval(&interval)
                        );
                        prop_assert_eq!(
                            incremental.count_in_interval(&interval),
                            rebuilt.count_in_interval(&interval)
                        );
                    }
                }
            }
            let rebuilt = SwarmIndex::build(membership.iter().copied());
            let a: Vec<(NodeId, Position)> = incremental.iter().collect();
            let b: Vec<(NodeId, Position)> = rebuilt.iter().collect();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }

        #[test]
        fn prop_in_interval_matches_bruteforce(
            positions in proptest::collection::vec(0.0f64..1.0, 1..60),
            center in 0.0f64..1.0,
            radius in 0.0f64..0.5,
        ) {
            let s = idx(&positions);
            let interval = Interval::around(Position::new(center), radius);
            let mut fast = s.in_interval(&interval);
            fast.sort();
            let mut slow: Vec<NodeId> = positions
                .iter()
                .enumerate()
                .filter(|(_, &p)| Position::new(center).distance(Position::new(p)) <= radius + 1e-15)
                .map(|(i, _)| NodeId(i as u64))
                .collect();
            slow.sort();
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_every_node_is_in_its_own_swarm(
            positions in proptest::collection::vec(0.0f64..1.0, 1..50),
        ) {
            let params = OverlayParams::with_default_c(positions.len().max(2));
            let s = idx(&positions);
            for (id, p) in s.iter() {
                prop_assert!(s.swarm(p, &params).contains(&id));
            }
        }
    }
}
