//! The Linearized DeBruijn Swarm (Definition 5) and its structural checks.
//!
//! A LDS over a set of positioned nodes has two kinds of edges:
//!
//! * **list edges** `E_L`: `(v, w) ∈ E_L` iff `d(v, w) ≤ 2cλ/n`;
//! * **long-distance (de Bruijn) edges** `E_DB`: `(v, w) ∈ E_DB` iff
//!   `d((v + i)/2, w) ≤ 3cλ/(2n)` for some `i ∈ {0, 1}`.
//!
//! The *swarm property* (Lemma 6) then guarantees that every swarm `S(p)` is
//! adjacent to the swarms `S(p/2)` and `S((p+1)/2)`, which is what the routing
//! algorithm relies on.

use std::collections::{HashMap, HashSet};

use rand::Rng;
use tsa_sim::NodeId;

use crate::graph::OverlayGraph;
use crate::interval::Interval;
use crate::params::{OverlayParams, Radii};
use crate::position::Position;
use crate::swarm::SwarmIndex;

/// A snapshot of a Linearized DeBruijn Swarm: node positions plus the derived
/// edge sets.
#[derive(Clone, Debug)]
pub struct Lds {
    params: OverlayParams,
    index: SwarmIndex,
    positions: HashMap<NodeId, Position>,
}

impl Lds {
    /// Builds an LDS from explicit position assignments.
    pub fn build<I>(params: OverlayParams, assignments: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Position)>,
    {
        let positions: HashMap<NodeId, Position> = assignments.into_iter().collect();
        let index = SwarmIndex::build(positions.iter().map(|(id, p)| (*id, *p)));
        Lds {
            params,
            index,
            positions,
        }
    }

    /// Builds an LDS by placing every node uniformly at random.
    pub fn random<I, R>(params: OverlayParams, nodes: I, rng: &mut R) -> Self
    where
        I: IntoIterator<Item = NodeId>,
        R: Rng + ?Sized,
    {
        Self::build(
            params,
            nodes
                .into_iter()
                .map(|id| (id, Position::new(rng.gen::<f64>()))),
        )
    }

    /// Builds the LDS for overlay epoch `epoch` where node `v` sits at
    /// `h(v, epoch)` — exactly how the maintenance protocol places nodes.
    pub fn from_hash<I>(params: OverlayParams, nodes: I, hash_seed: u64, epoch: u64) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        Self::build(
            params,
            nodes.into_iter().map(|id| {
                (
                    id,
                    Position::new(tsa_sim::rng::position_hash(hash_seed, id, epoch)),
                )
            }),
        )
    }

    /// The overlay parameters.
    pub fn params(&self) -> &OverlayParams {
        &self.params
    }

    /// Adds (or moves) `node` at position `p`, incrementally maintaining the
    /// position index — no rebuild. Equivalent to rebuilding the LDS from the
    /// updated assignment set.
    pub fn insert(&mut self, node: NodeId, p: Position) {
        self.positions.insert(node, p);
        self.index.insert(node, p);
    }

    /// Removes `node`, incrementally maintaining the position index. Returns
    /// its position, or `None` if it was not a member.
    pub fn remove(&mut self, node: NodeId) -> Option<Position> {
        let p = self.positions.remove(&node)?;
        self.index.remove(node);
        Some(p)
    }

    /// The underlying position index.
    pub fn index(&self) -> &SwarmIndex {
        &self.index
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// All member identifiers.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.positions.keys().copied()
    }

    /// The position of `node`, if it is a member.
    pub fn position(&self, node: NodeId) -> Option<Position> {
        self.positions.get(&node).copied()
    }

    /// The swarm `S(p)`.
    pub fn swarm(&self, p: Position) -> Vec<NodeId> {
        self.index.swarm(p, &self.params)
    }

    /// The list neighbours of `node`: every other node within `2cλ/n`.
    pub fn list_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let Some(p) = self.position(node) else {
            return Vec::new();
        };
        let mut out = self.index.within(p, self.params.list_radius());
        out.retain(|&id| id != node);
        out
    }

    /// The long-distance neighbours of `node`: every node within `3cλ/(2n)` of
    /// one of the two de Bruijn images of its position.
    pub fn debruijn_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let Some(p) = self.position(node) else {
            return Vec::new();
        };
        let r = self.params.debruijn_radius();
        let mut out = self.index.within(p.half(), r);
        out.extend(self.index.within(p.half_plus(), r));
        out.sort();
        out.dedup();
        out.retain(|&id| id != node);
        out
    }

    /// All neighbours (list ∪ long-distance) of `node`.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = self.list_neighbors(node);
        out.extend(self.debruijn_neighbors(node));
        out.sort();
        out.dedup();
        out
    }

    /// The intervals a node at position `p` must know to fulfil Definition 5:
    /// `⟨p ± 2cλ/n⟩`, `⟨p/2 ± 3cλ/2n⟩` and `⟨(p+1)/2 ± 3cλ/2n⟩`.
    ///
    /// These are exactly the intervals the maintenance protocol (Listing 3)
    /// spreads join requests over.
    pub fn responsibility_intervals(radii: &Radii, p: Position) -> [Interval; 3] {
        [
            Interval::around(p, radii.list),
            Interval::around(p.half(), radii.debruijn),
            Interval::around(p.half_plus(), radii.debruijn),
        ]
    }

    /// Materializes the full directed edge set as a graph snapshot.
    pub fn to_graph(&self) -> OverlayGraph {
        let mut g = OverlayGraph::with_vertices(self.members());
        for id in self.members() {
            for w in self.neighbors(id) {
                g.add_edge(id, w);
            }
        }
        g
    }

    /// Precomputes the neighbour set of every member in one pass. Checks that
    /// probe many points against the same snapshot (e.g. the Figure-1 swarm
    /// property sweep in `exp_fig1`) should compute this once and pass it to
    /// [`Lds::swarm_property_holds_at_with`] instead of re-deriving each
    /// node's neighbourhood per probe.
    pub fn neighbor_sets(&self) -> HashMap<NodeId, HashSet<NodeId>> {
        self.members()
            .map(|v| (v, self.neighbors(v).into_iter().collect()))
            .collect()
    }

    /// Checks the swarm property (Lemma 6) at point `p`: every node of `S(p)`
    /// has an edge to every node of `S(p/2)` and of `S((p+1)/2)`. One-shot
    /// form: derives the (few) needed neighbour sets on the fly; repeated
    /// probes should precompute [`Lds::neighbor_sets`] and use
    /// [`Lds::swarm_property_holds_at_with`].
    pub fn swarm_property_holds_at(&self, p: Position) -> bool {
        let source = self.swarm(p);
        for image in [p.half(), p.half_plus()] {
            let target = self.swarm(image);
            for &v in &source {
                let nbrs: HashSet<NodeId> = self.neighbors(v).into_iter().collect();
                for &w in &target {
                    if w != v && !nbrs.contains(&w) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// [`Lds::swarm_property_holds_at`] against precomputed
    /// [`Lds::neighbor_sets`] — the allocation-light form for repeated
    /// probing.
    pub fn swarm_property_holds_at_with(
        &self,
        p: Position,
        neighbor_sets: &HashMap<NodeId, HashSet<NodeId>>,
    ) -> bool {
        let source = self.swarm(p);
        for image in [p.half(), p.half_plus()] {
            let target = self.swarm(image);
            for &v in &source {
                let Some(nbrs) = neighbor_sets.get(&v) else {
                    return false;
                };
                for &w in &target {
                    if w != v && !nbrs.contains(&w) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The goodness of the swarm at `p` given the set of nodes that survive
    /// into the relevant later round (Definition 8 asks for a 3/4 fraction).
    pub fn swarm_good_fraction(&self, p: Position, survivors: &HashSet<NodeId>) -> f64 {
        let swarm = self.swarm(p);
        if swarm.is_empty() {
            return 0.0;
        }
        let alive = swarm.iter().filter(|id| survivors.contains(id)).count();
        alive as f64 / swarm.len() as f64
    }

    /// Evaluates goodness at every member position and returns
    /// `(minimum fraction, share of positions whose swarm is ≥ threshold-good,
    /// minimum swarm size)`.
    pub fn goodness_stats(&self, survivors: &HashSet<NodeId>, threshold: f64) -> GoodnessStats {
        let mut min_fraction: f64 = 1.0;
        let mut good = 0usize;
        let mut total = 0usize;
        let mut min_size = usize::MAX;
        for (_, p) in self.index.iter() {
            let swarm = self.swarm(p);
            min_size = min_size.min(swarm.len());
            let frac = self.swarm_good_fraction(p, survivors);
            min_fraction = min_fraction.min(frac);
            if frac >= threshold {
                good += 1;
            }
            total += 1;
        }
        if total == 0 {
            min_fraction = 0.0;
            min_size = 0;
        }
        GoodnessStats {
            min_fraction,
            good_share: if total == 0 {
                0.0
            } else {
                good as f64 / total as f64
            },
            min_swarm_size: min_size,
            sampled_points: total,
        }
    }

    /// `true` if the overlay is *good* per Definition 8: every sampled swarm
    /// retains at least `threshold` of its members among `survivors`.
    pub fn is_good(&self, survivors: &HashSet<NodeId>, threshold: f64) -> bool {
        let stats = self.goodness_stats(survivors, threshold);
        stats.sampled_points > 0 && stats.min_fraction >= threshold
    }
}

/// Result of evaluating swarm goodness over an overlay (Lemma 17 / experiment E9).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct GoodnessStats {
    /// Smallest surviving fraction over all sampled swarms.
    pub min_fraction: f64,
    /// Share of sampled swarms meeting the goodness threshold.
    pub good_share: f64,
    /// Smallest sampled swarm size.
    pub min_swarm_size: usize,
    /// Number of sampled points.
    pub sampled_points: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_lds(n: usize, c: f64, seed: u64) -> Lds {
        let params = OverlayParams::new(n, c);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Lds::random(params, (0..n as u64).map(NodeId), &mut rng)
    }

    #[test]
    fn build_and_basic_queries() {
        let lds = random_lds(128, 2.0, 1);
        assert_eq!(lds.len(), 128);
        assert!(!lds.is_empty());
        let id = NodeId(5);
        assert!(lds.position(id).is_some());
        assert!(lds.position(NodeId(9999)).is_none());
        assert!(!lds.neighbors(id).is_empty());
    }

    #[test]
    fn list_neighbors_are_within_list_radius() {
        let lds = random_lds(128, 2.0, 2);
        let v = NodeId(3);
        let pv = lds.position(v).unwrap();
        for w in lds.list_neighbors(v) {
            let pw = lds.position(w).unwrap();
            assert!(pv.distance(pw) <= lds.params().list_radius() + 1e-12);
            assert_ne!(w, v);
        }
    }

    #[test]
    fn debruijn_neighbors_are_near_images() {
        let lds = random_lds(128, 2.0, 3);
        let v = NodeId(7);
        let pv = lds.position(v).unwrap();
        let r = lds.params().debruijn_radius();
        for w in lds.debruijn_neighbors(v) {
            let pw = lds.position(w).unwrap();
            let near_half = pv.half().distance(pw) <= r + 1e-12;
            let near_half_plus = pv.half_plus().distance(pw) <= r + 1e-12;
            assert!(near_half || near_half_plus);
        }
    }

    #[test]
    fn swarm_property_holds_at_random_points() {
        // Lemma 6: with a reasonable c the property holds deterministically,
        // not just w.h.p., because it follows from the triangle inequality.
        let lds = random_lds(256, 2.0, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..50 {
            let p = Position::new(rng.gen::<f64>());
            assert!(
                lds.swarm_property_holds_at(p),
                "swarm property violated at {p}"
            );
        }
    }

    #[test]
    fn graph_snapshot_is_connected_for_reasonable_c() {
        let lds = random_lds(256, 2.0, 5);
        let g = lds.to_graph();
        assert!(g.is_connected());
        assert_eq!(g.vertex_count(), 256);
    }

    #[test]
    fn goodness_with_full_survival_is_one() {
        let lds = random_lds(128, 2.0, 6);
        let survivors: HashSet<NodeId> = lds.members().collect();
        let stats = lds.goodness_stats(&survivors, 0.75);
        assert_eq!(stats.min_fraction, 1.0);
        assert_eq!(stats.good_share, 1.0);
        assert!(lds.is_good(&survivors, 0.75));
        assert!(stats.min_swarm_size >= 1);
    }

    #[test]
    fn goodness_degrades_when_half_the_nodes_die() {
        let lds = random_lds(128, 2.0, 7);
        let survivors: HashSet<NodeId> = lds.members().filter(|id| id.raw() % 2 == 0).collect();
        let stats = lds.goodness_stats(&survivors, 0.75);
        assert!(stats.min_fraction < 0.9);
        assert!(!lds.is_good(&survivors, 0.95));
    }

    #[test]
    fn from_hash_positions_match_the_shared_hash() {
        let params = OverlayParams::new(32, 2.0);
        let lds = Lds::from_hash(params, (0..32).map(NodeId), 77, 5);
        for id in lds.members() {
            let expected = Position::new(tsa_sim::rng::position_hash(77, id, 5));
            assert!(lds.position(id).unwrap().distance(expected) < 1e-15);
        }
    }

    #[test]
    fn responsibility_intervals_cover_neighbors() {
        let lds = random_lds(128, 2.0, 8);
        let v = NodeId(11);
        let pv = lds.position(v).unwrap();
        let intervals = Lds::responsibility_intervals(&lds.params().radii(), pv);
        for w in lds.neighbors(v) {
            let pw = lds.position(w).unwrap();
            assert!(
                intervals.iter().any(|i| i.contains(pw)),
                "neighbour {w} at {pw} outside all responsibility intervals of {v}"
            );
        }
    }

    #[test]
    fn incremental_membership_equals_rebuild() {
        let params = OverlayParams::new(64, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut live = Lds::random(params, (0..64).map(NodeId), &mut rng);
        // Interleave leaves and joins, then compare against a from-scratch
        // build over the surviving assignment set.
        for id in (0..64u64).step_by(3) {
            assert!(live.remove(NodeId(id)).is_some());
        }
        assert!(live.remove(NodeId(0)).is_none(), "double-leave is a no-op");
        for id in 100..110u64 {
            live.insert(NodeId(id), Position::new((id as f64) / 128.0));
        }
        let rebuilt = Lds::build(
            params,
            live.members().map(|id| (id, live.position(id).unwrap())),
        );
        assert_eq!(live.len(), rebuilt.len());
        for id in live.members() {
            assert_eq!(live.neighbors(id), rebuilt.neighbors(id), "node {id}");
        }
        let sets = live.neighbor_sets();
        for p in [0.1, 0.45, 0.99] {
            let p = Position::new(p);
            assert_eq!(
                live.swarm_property_holds_at(p),
                live.swarm_property_holds_at_with(p, &sets)
            );
        }
    }

    #[test]
    fn empty_lds_is_handled() {
        let params = OverlayParams::new(16, 2.0);
        let lds = Lds::build(params, std::iter::empty());
        assert!(lds.is_empty());
        let survivors = HashSet::new();
        assert!(!lds.is_good(&survivors, 0.75));
        assert_eq!(lds.goodness_stats(&survivors, 0.75).sampled_points, 0);
    }

    proptest! {
        #[test]
        fn prop_symmetric_predicate_is_the_edge_set(
            n in 8usize..160,
            c in 0.4f64..2.5,
            seed in 0u64..u64::MAX,
        ) {
            // The predicate the maintenance protocol introduces neighbours
            // by is the structure `neighbors` (and so `exp_fig1`) measures.
            let lds = random_lds(n, c, seed);
            let sets = lds.neighbor_sets();
            for v in lds.members() {
                let pv = lds.position(v).unwrap().value();
                for w in lds.members().filter(|&w| w != v) {
                    let pw = lds.position(w).unwrap().value();
                    prop_assert_eq!(
                        lds.params().are_neighbors(pv, pw),
                        sets[&v].contains(&w) || sets[&w].contains(&v),
                        "{} at {} and {} at {}", v, pv, w, pw
                    );
                }
            }
        }
    }
}
