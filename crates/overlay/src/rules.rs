//! The per-copy decisions of `A_ROUTING` (Listing 1) and `A_SAMPLING`
//! (Listing 2), each defined once, as plain functions on raw `(NodeId, f64)`
//! pairs:
//!
//! * **the hop** ([`hop`]): the members of a known set within the swarm
//!   radius of a point ([`members_near`]), then up to `r` distinct ones
//!   ([`choose_up_to`]) — the receivers of one forwarding or handover step;
//! * **the Δ range** ([`delta_range`]): `0..=round(2cλ)`;
//! * **the delivery rule** ([`delta_select`]): the candidate with exactly Δ
//!   candidates clockwise between the target and itself.
//!
//! Two callers run them. `tsa-core`'s `ProtocolNode` is the maintenance
//! protocol: every copy is a message and the known set is what the node's
//! neighbour set holds. `tsa-routing` measures Lemmas 9–13 on ideal
//! [`Lds`](crate::Lds) snapshots, where the known set is the whole swarm:
//! `RoutingSim::transfer` picks each holder's receivers with
//! [`choose_up_to`] over [`Lds::swarm`](crate::Lds::swarm) (the set [`hop`]'s
//! filter yields, pinned below), and `select_sample_target` and
//! `sample_many` take the Δ range and the delivery rule. Both already depend
//! on this crate, so sharing the rules here adds no edge to the crate graph.

use std::ops::RangeInclusive;

use rand::Rng;
use tsa_sim::NodeId;

use crate::ring_distance;

/// A node and its position in the overlay in question.
pub type Placed = (NodeId, f64);

/// Appends to `out` the identifiers of the `known` entries within `radius`
/// of `point`, in `known`'s order.
///
/// About a quarter of a neighbour set passes and nothing predicts which, so
/// a `filter` + `push` loop spends its time on mispredicted branches (the
/// protocol runs this once per routed copy). Instead every candidate is
/// written and the length advances by the comparison.
#[inline]
pub fn members_near(known: &[Placed], point: f64, radius: f64, out: &mut Vec<NodeId>) {
    let mut kept = out.len();
    out.resize(kept + known.len(), NodeId(0));
    for &(id, p) in known {
        out[kept] = id;
        kept += usize::from(ring_distance(p, point) <= radius);
    }
    out.truncate(kept);
}

/// Chooses up to `count` distinct elements of `candidates` uniformly at
/// random and returns them as a prefix of the (permuted) buffer: a partial
/// Fisher–Yates shuffle, draw for draw what `SliceRandom::choose_multiple`
/// does on an index vector. With `count` or fewer candidates it returns them
/// all, in order, without touching `rng`.
#[inline]
pub fn choose_up_to<'c, R: Rng + ?Sized>(
    candidates: &'c mut [NodeId],
    count: usize,
    rng: &mut R,
) -> &'c [NodeId] {
    let len = candidates.len();
    if len <= count {
        return candidates;
    }
    for i in 0..count {
        let j = rng.gen_range(i..len);
        candidates.swap(i, j);
    }
    &candidates[..count]
}

/// One hop of a routed copy: up to `r` distinct, uniformly chosen members of
/// `known` within `radius` (the swarm radius) of `point`. `members` is the
/// buffer the result lives in.
#[inline]
pub fn hop<'m, R: Rng + ?Sized>(
    known: &[Placed],
    point: f64,
    radius: f64,
    r: usize,
    members: &'m mut Vec<NodeId>,
    rng: &mut R,
) -> &'m [NodeId] {
    members.clear();
    members_near(known, point, radius, members);
    choose_up_to(members, r, rng)
}

/// The offsets `Δ` a sample draws from, uniformly: `0..=round(2cλ)`, up to
/// twice the expected number of swarm members clockwise of a point.
#[inline]
pub fn delta_range(c: f64, lambda: u32) -> RangeInclusive<u32> {
    0..=(2.0 * c * lambda as f64).round() as u32
}

/// The `A_SAMPLING` delivery rule: among `candidates` (the swarm of `target`,
/// each with its position), the one with exactly `delta` candidates
/// clockwise between `target` and itself, or `None` (discard). `clockwise`
/// is scratch.
///
/// A candidate is clockwise of `target` when its offset
/// `(p − target) mod 1` is at most ½, ordered by that offset, then by
/// identifier. Below a swarm radius of ½ that is every swarm member right of
/// the target (or on it). Once `cλ/n` reaches ½ (single-digit `n`) the swarm
/// is the whole ring and the rule ranks its clockwise half, the antipode of
/// `target` included.
#[inline]
pub fn delta_select(
    candidates: impl IntoIterator<Item = Placed>,
    target: f64,
    delta: usize,
    clockwise: &mut Vec<(f64, NodeId)>,
) -> Option<NodeId> {
    clockwise.clear();
    clockwise.extend(
        candidates
            .into_iter()
            .map(|(id, p)| ((p - target).rem_euclid(1.0), id))
            .filter(|(off, _)| *off <= 0.5),
    );
    // Identifiers are distinct, so the order is total and an unstable sort
    // cannot reorder anything.
    clockwise.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    clockwise.get(delta).map(|(_, id)| *id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lds, OverlayParams, Position};
    use proptest::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn choose_up_to_caps_at_candidates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c: Vec<NodeId> = (0..3).map(NodeId).collect();
        assert_eq!(choose_up_to(&mut c.clone(), 5, &mut rng), c.as_slice());
        assert_eq!(choose_up_to(&mut c.clone(), 2, &mut rng).len(), 2);
        let mut buf = c.clone();
        let picked = choose_up_to(&mut buf, 2, &mut rng);
        assert!(picked.iter().all(|id| c.contains(id)));
    }

    #[test]
    fn choose_up_to_makes_exactly_choose_multiples_draws() {
        // Same picks in the same order and the same RNG state afterwards,
        // with fewer, exactly as many and more candidates than picks.
        for seed in 0..50u64 {
            for (len, count) in [(0usize, 2usize), (1, 2), (2, 2), (3, 2), (9, 2), (40, 5)] {
                let c: Vec<NodeId> = (0..len as u64).map(|i| NodeId(i * 7 + seed)).collect();
                let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
                let reference: Vec<NodeId> = if c.len() <= count {
                    c.clone()
                } else {
                    c.choose_multiple(&mut reference_rng, count)
                        .copied()
                        .collect()
                };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut buf = c.clone();
                assert_eq!(
                    choose_up_to(&mut buf, count, &mut rng),
                    reference.as_slice(),
                    "seed {seed}, {count} of {len}"
                );
                assert_eq!(
                    rng.next_u64(),
                    reference_rng.next_u64(),
                    "seed {seed}, {count} of {len}: RNG streams diverged"
                );
            }
        }
    }

    /// What [`members_near`] computes, as the `filter` it replaced.
    fn members_near_by_filter(known: &[Placed], point: f64, radius: f64) -> Vec<NodeId> {
        let near = known
            .iter()
            .filter(|(_, p)| ring_distance(*p, point) <= radius);
        near.map(|(id, _)| *id).collect()
    }

    proptest! {
        #[test]
        fn members_near_is_the_filter_form(
            // Uniform positions and ones hugging the 0/1 seam; radii around
            // a swarm's and up to "the whole ring" (every distance is ≤ 0.5).
            positions in proptest::collection::vec(
                prop_oneof![0.0f64..1.0, 0.0f64..0.02, 0.98f64..1.0],
                0..48,
            ),
            point in prop_oneof![0.0f64..1.0, 0.0f64..0.02, 0.98f64..1.0],
            radius in prop_oneof![0.0f64..0.06, 0.0f64..0.8],
            earlier in 0usize..3,
        ) {
            let known: Vec<Placed> = (100u64..).map(NodeId).zip(positions).collect();
            let mut out: Vec<NodeId> = (0..earlier as u64).map(NodeId).collect();
            let mut expected = out.clone();
            expected.extend(members_near_by_filter(&known, point, radius));
            members_near(&known, point, radius, &mut out);
            prop_assert_eq!(out, expected);
        }
    }

    #[test]
    fn members_near_handles_the_empty_the_full_and_the_seam() {
        let known: Vec<Placed> = [0.995, 0.4, 0.005, 0.03]
            .into_iter()
            .enumerate()
            .map(|(i, p)| (NodeId(i as u64), p))
            .collect();
        let near = |known: &[Placed], point, radius| {
            let mut out = vec![NodeId(77)];
            members_near(known, point, radius, &mut out);
            assert_eq!(out[1..], members_near_by_filter(known, point, radius));
            out.split_off(1)
        };
        assert!(near(&[], 0.5, 0.3).is_empty(), "nobody known");
        assert!(near(&known, 0.7, 0.05).is_empty(), "nobody near");
        // Across the seam, from either side.
        assert_eq!(near(&known, 0.999, 0.01), [NodeId(0), NodeId(2)]);
        assert_eq!(near(&known, 0.0, 0.01), [NodeId(0), NodeId(2)]);
        // No two points of the ring are further apart than 0.5.
        for radius in [0.5, 0.75] {
            assert_eq!(near(&known, 0.2, radius).len(), known.len());
        }
    }

    proptest! {
        #[test]
        fn hop_filter_over_every_position_is_the_lds_swarm(
            n in 8usize..200,
            c in 0.5f64..2.5,
            hash_seed in 0u64..1000,
            p in prop_oneof![0.0f64..1.0, 0.0f64..0.02, 0.98f64..1.0],
        ) {
            // The simulators look a swarm up through the sorted index; the
            // protocol filters what it knows. Same set.
            let params = OverlayParams::new(n, c);
            let lds = Lds::from_hash(params, (0..n as u64).map(NodeId), hash_seed, 3);
            let everyone: Vec<Placed> = lds.index().iter().map(|(id, q)| (id, q.value())).collect();
            let mut filtered = Vec::new();
            members_near(&everyone, p, params.swarm_radius(), &mut filtered);
            filtered.sort();
            let mut swarm = lds.swarm(Position::new(p));
            swarm.sort();
            prop_assert_eq!(filtered, swarm);
        }

        #[test]
        fn hop_never_repeats_and_returns_everything_up_to_r(
            positions in proptest::collection::vec(0.0f64..1.0, 0..40),
            point in 0.0f64..1.0,
            radius in 0.0f64..0.6,
            r in 0usize..6,
            seed in 0u64..1000,
        ) {
            let known: Vec<Placed> = (0u64..).map(NodeId).zip(positions).collect();
            let mut swarm = Vec::new();
            members_near(&known, point, radius, &mut swarm);
            let mut buf = vec![NodeId(999)];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let picked = hop(&known, point, radius, r, &mut buf, &mut rng);
            prop_assert_eq!(picked.len(), r.min(swarm.len()));
            if swarm.len() <= r {
                prop_assert_eq!(picked, swarm.as_slice());
                let untouched = ChaCha8Rng::seed_from_u64(seed).next_u64();
                prop_assert_eq!(rng.next_u64(), untouched);
            }
            let mut distinct = picked.to_vec();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), picked.len());
            prop_assert!(picked.iter().all(|id| swarm.contains(id)));
        }

        #[test]
        fn delta_select_is_the_right_of_form_inside_a_swarm(
            target in prop_oneof![0.0f64..1.0, 0.0f64..0.02, 0.98f64..1.0],
            // Below ½ "right of the target" is well defined for every
            // swarm member.
            radius in prop_oneof![0.0f64..0.06, 0.0f64..0.499],
            offsets in proptest::collection::vec(-1.0f64..1.0, 0..40),
            delta in 0usize..45,
        ) {
            let swarm: Vec<Placed> = (0u64..)
                .map(NodeId)
                .zip(offsets.iter().map(|o| Position::new(target + o * radius).value()))
                .filter(|&(_, p)| ring_distance(p, target) <= radius)
                .collect();
            // The rule as `select_sample_target` used to spell it.
            let p = Position::new(target);
            let mut right_of_p: Vec<(f64, NodeId)> = swarm
                .iter()
                .map(|&(id, q)| (Position::new(q), id))
                .filter(|&(q, _)| q.is_right_of(p) || q == p)
                .map(|(q, id)| ((q.value() - p.value()).rem_euclid(1.0), id))
                .collect();
            right_of_p.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            prop_assert_eq!(
                delta_select(swarm, target, delta, &mut Vec::new()),
                right_of_p.get(delta).map(|&(_, id)| id)
            );
        }
    }

    #[test]
    fn delta_select_orders_clockwise() {
        let placed: Vec<Placed> = [0.30, 0.10, 0.95, 0.20, 0.10]
            .into_iter()
            .enumerate()
            .map(|(i, p)| (NodeId(i as u64), p))
            .collect();
        let select = |target, delta| delta_select(placed.clone(), target, delta, &mut Vec::new());
        // Clockwise of 0.05: 0.10 (ids 1 and 4, by id), 0.20, 0.30; 0.95 is
        // counter-clockwise.
        let order: Vec<_> = (0..5).map(|delta| select(0.05, delta)).collect();
        let ids = [1, 4, 3, 0].map(|id| Some(NodeId(id)));
        assert_eq!(order[..4], ids);
        assert_eq!(order[4], None);
        // Across the seam, and a candidate on the target itself counts.
        assert_eq!(select(0.95, 0), Some(NodeId(2)));
        assert_eq!(select(0.95, 1), Some(NodeId(1)));
    }

    #[test]
    fn delta_select_counts_the_antipode_as_clockwise() {
        // Swarm radius ≥ ½: every node is a candidate and the clockwise half
        // of the ring is ranked, its far end — exactly opposite the target —
        // included, whichever side of 0/1 the target sits on.
        for (target, antipode) in [(0.25, 0.75), (0.75, 0.25)] {
            let before = Position::new(antipode - 0.125).value();
            let after = Position::new(antipode + 0.125).value();
            let ring = [
                (NodeId(0), before),
                (NodeId(1), antipode),
                (NodeId(2), after),
            ];
            let select = |delta| delta_select(ring, target, delta, &mut Vec::new());
            assert_eq!(select(0), Some(NodeId(0)), "target {target}");
            assert_eq!(select(1), Some(NodeId(1)), "target {target}");
            assert_eq!(select(2), None, "target {target}");
        }
    }

    #[test]
    fn delta_range_ends_at_two_c_lambda_rounded() {
        assert_eq!(delta_range(1.5, 8), 0..=24);
        assert_eq!(delta_range(0.75, 7), 0..=11, "10.5 rounds away from zero");
        assert_eq!(delta_range(2.0, 10), 0..=40);
    }
}
