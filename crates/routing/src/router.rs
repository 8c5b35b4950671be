//! `A_ROUTING` (Listing 1): redundant swarm-to-swarm routing along trajectories.
//!
//! A message from a node `v` to a point `p` is first broadcast to `v`'s own
//! swarm, then travels along the trajectory `τ(v, p)` (Definition 7). In every
//! *forwarding* step each holder forwards copies to `r` distinct, uniformly
//! chosen members of the next trajectory point's swarm; in every *handover*
//! step the copies move from the current overlay's swarm to the next
//! overlay's swarm at the same point. The final step broadcasts to the whole
//! target swarm, so the message arrives after exactly `2λ + 2` rounds
//! (Lemma 9).
//!
//! This module executes the algorithm directly over a [`RoutableSeries`] (a
//! sequence of LDS snapshots) so its dilation, delivery rate and congestion
//! can be measured in isolation; the full message-level implementation inside
//! the maintenance protocol lives in `tsa-core`.

use rand::Rng;
use rand::SeedableRng;

use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use tsa_overlay::rules::choose_up_to;
use tsa_overlay::{Interval, Lds, Position, Trajectory};
use tsa_sim::NodeId;

use crate::config::RoutingConfig;
use crate::congestion::CongestionTracker;
use crate::series::RoutableSeries;

/// One message to be routed: a source node and a target point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageSpec {
    /// The node that starts the message (must be a member of the series).
    pub source: NodeId,
    /// The target address `p ∈ [0,1)`.
    pub target: Position,
}

/// The fate of one routed message.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct MessageOutcome {
    /// Whether at least one member of the target swarm received the message.
    pub delivered: bool,
    /// Rounds from start to delivery (always `2λ + 2` when delivered).
    pub rounds: u64,
    /// Total copies created for this message.
    pub copies: usize,
    /// Fraction of the target swarm that received the message.
    pub target_coverage: f64,
}

/// Aggregate result of routing a batch of messages.
#[derive(Clone, Debug, Serialize)]
pub struct RoutingReport {
    /// Per-message outcomes.
    pub outcomes: Vec<MessageOutcome>,
    /// Number of delivered messages.
    pub delivered: usize,
    /// Number of messages routed.
    pub total: usize,
    /// The dilation `2λ + 2` every delivered message took.
    pub dilation: u64,
    /// Maximum copies handled by one node in one round (Lemma 9 congestion).
    pub max_congestion: usize,
    /// Mean copies per active (node, round) pair.
    pub mean_congestion: f64,
    /// Total copies created across all messages.
    pub total_copies: usize,
}

impl RoutingReport {
    /// Delivered fraction.
    pub fn delivery_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.delivered as f64 / self.total as f64
        }
    }

    /// Mean fraction of the target swarm covered, over delivered messages.
    pub fn mean_target_coverage(&self) -> f64 {
        let delivered: Vec<&MessageOutcome> =
            self.outcomes.iter().filter(|o| o.delivered).collect();
        if delivered.is_empty() {
            return 0.0;
        }
        delivered.iter().map(|o| o.target_coverage).sum::<f64>() / delivered.len() as f64
    }
}

/// Executes `A_ROUTING` over a routable series of overlays.
pub struct RoutingSim<'a> {
    series: &'a RoutableSeries,
    config: RoutingConfig,
}

impl<'a> RoutingSim<'a> {
    /// Creates a routing simulation.
    pub fn new(series: &'a RoutableSeries, config: RoutingConfig) -> Self {
        RoutingSim { series, config }
    }

    /// Routes every message in `messages`, all starting in overlay epoch
    /// `first_epoch`, and reports delivery and congestion statistics.
    pub fn route_all(&self, first_epoch: u64, messages: &[MessageSpec]) -> RoutingReport {
        let lambda = self.series.params().lambda();
        let overlays = self.series.window(first_epoch, lambda as usize + 1);
        let mut congestion = CongestionTracker::new();
        let mut outcomes = Vec::with_capacity(messages.len());
        for (idx, spec) in messages.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(
                self.config.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            outcomes.push(self.route_one(spec, &overlays, lambda, &mut congestion, &mut rng));
        }
        let delivered = outcomes.iter().filter(|o| o.delivered).count();
        RoutingReport {
            delivered,
            total: outcomes.len(),
            dilation: 2 * lambda as u64 + 2,
            max_congestion: congestion.max_per_node_round(),
            mean_congestion: congestion.mean_per_active_node_round(),
            total_copies: congestion.total(),
            outcomes,
        }
    }

    /// Routes a single message along its trajectory through `overlays`
    /// (`overlays[i]` is the overlay used for forwarding step `i + 1`).
    fn route_one(
        &self,
        spec: &MessageSpec,
        overlays: &[Lds],
        lambda: u32,
        congestion: &mut CongestionTracker,
        rng: &mut ChaCha8Rng,
    ) -> MessageOutcome {
        let d0 = &overlays[0];
        let Some(source_pos) = d0.position(spec.source) else {
            return MessageOutcome {
                delivered: false,
                rounds: 0,
                copies: 0,
                target_coverage: 0.0,
            };
        };
        let trajectory = Trajectory::compute(source_pos, spec.target, lambda);
        let mut copies_total = 0usize;
        let mut round: u64 = 0;

        // Initial step: broadcast to the source's own swarm S(x_0).
        let mut holders: Vec<NodeId> = d0.swarm(source_pos);
        round += 1;
        for &h in &holders {
            congestion.record(round, h, 1);
        }
        copies_total += holders.len();

        // λ forwarding steps, each followed by a handover to the next overlay.
        for i in 1..=lambda as usize {
            let overlay = &overlays[i - 1];
            let next_point = trajectory.point(i);
            let target_swarm = overlay.swarm(next_point);
            holders = self.transfer(&holders, &target_swarm, false, congestion, round + 1, rng);
            round += 1;
            copies_total += holders.len();
            if holders.is_empty() {
                return MessageOutcome {
                    delivered: false,
                    rounds: round,
                    copies: copies_total,
                    target_coverage: 0.0,
                };
            }

            // Handover: same trajectory point, next overlay.
            let next_overlay = &overlays[i.min(overlays.len() - 1)];
            let handover_swarm = next_overlay.swarm(next_point);
            holders = self.transfer(&holders, &handover_swarm, false, congestion, round + 1, rng);
            round += 1;
            copies_total += holders.len();
            if holders.is_empty() {
                return MessageOutcome {
                    delivered: false,
                    rounds: round,
                    copies: copies_total,
                    target_coverage: 0.0,
                };
            }
        }

        // Final step: broadcast to the whole target swarm S(p) in the current
        // overlay.
        let final_overlay = &overlays[overlays.len() - 1];
        let target_swarm = final_overlay.swarm(spec.target);
        let reached = self.transfer(&holders, &target_swarm, true, congestion, round + 1, rng);
        round += 1;
        copies_total += reached.len();
        let coverage = if target_swarm.is_empty() {
            0.0
        } else {
            reached.len() as f64 / target_swarm.len() as f64
        };
        MessageOutcome {
            delivered: !reached.is_empty(),
            rounds: round,
            copies: copies_total,
            target_coverage: coverage,
        }
    }

    /// One transfer step: every surviving holder forwards copies into
    /// `target_swarm`. With `broadcast` each holder contacts the whole swarm
    /// (initial/final step); otherwise each holder picks up to `r` distinct
    /// uniform members, exactly as the protocol's hop does
    /// ([`choose_up_to`], see `tsa_overlay::rules`).
    /// Returns the distinct members that received at least one copy.
    fn transfer(
        &self,
        holders: &[NodeId],
        target_swarm: &[NodeId],
        broadcast: bool,
        congestion: &mut CongestionTracker,
        round: u64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<NodeId> {
        if target_swarm.is_empty() {
            return Vec::new();
        }
        let mut received: Vec<NodeId> = Vec::new();
        let mut members: Vec<NodeId> = Vec::with_capacity(target_swarm.len());
        for &_holder in holders {
            if self.config.holder_failure > 0.0 && rng.gen::<f64>() < self.config.holder_failure {
                continue; // this holder was churned out before it could forward
            }
            let to = if broadcast {
                target_swarm
            } else {
                members.clear();
                members.extend_from_slice(target_swarm);
                choose_up_to(&mut members, self.config.replication, rng)
            };
            for &t in to {
                congestion.record(round, t, 1);
                received.push(t);
            }
        }
        received.sort();
        received.dedup();
        received
    }
}

/// Counts how many of `messages` have the `j`-th point of their trajectory in
/// `interval` (the quantity of Lemma 12, whose expectation is `k · n · |I|`).
pub fn trajectory_crossings(
    overlay: &Lds,
    messages: &[MessageSpec],
    j: usize,
    interval: &Interval,
) -> usize {
    let lambda = overlay.params().lambda();
    messages
        .iter()
        .filter(|spec| {
            overlay
                .position(spec.source)
                .map(|src| {
                    let t = Trajectory::compute(src, spec.target, lambda);
                    j < t.len() && interval.contains(t.point(j))
                })
                .unwrap_or(false)
        })
        .count()
}

/// Generates `k` messages per member of the series, each with an independent
/// uniformly random target — the workload of Lemma 9.
pub fn uniform_workload(series: &RoutableSeries, k: usize, seed: u64) -> Vec<MessageSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(series.len() * k);
    for &m in series.members() {
        for _ in 0..k {
            out.push(MessageSpec {
                source: m,
                target: Position::new(rng.gen::<f64>()),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_overlay::OverlayParams;

    fn series(n: usize) -> RoutableSeries {
        RoutableSeries::new(
            OverlayParams::with_default_c(n),
            1234,
            (0..n as u64).map(NodeId),
        )
    }

    #[test]
    fn all_messages_delivered_without_failures() {
        let s = series(128);
        let sim = RoutingSim::new(&s, RoutingConfig::default());
        let msgs = uniform_workload(&s, 1, 7);
        let report = sim.route_all(0, &msgs);
        assert_eq!(report.total, 128);
        assert_eq!(
            report.delivered, 128,
            "every message must be delivered on a good series"
        );
        assert!((report.delivery_rate() - 1.0).abs() < 1e-12);
        assert!(
            report.mean_target_coverage() > 0.99,
            "final broadcast covers the whole swarm"
        );
    }

    #[test]
    fn dilation_is_exactly_two_lambda_plus_two() {
        let s = series(64);
        let lambda = s.params().lambda() as u64;
        let sim = RoutingSim::new(&s, RoutingConfig::default());
        let msgs = uniform_workload(&s, 1, 3);
        let report = sim.route_all(0, &msgs);
        assert_eq!(report.dilation, 2 * lambda + 2);
        for o in &report.outcomes {
            if o.delivered {
                assert_eq!(o.rounds, 2 * lambda + 2);
            }
        }
    }

    #[test]
    fn routing_survives_quarter_holder_failures() {
        let s = series(256);
        let config = RoutingConfig::default()
            .with_holder_failure(0.25)
            .with_replication(4);
        let sim = RoutingSim::new(&s, config);
        let msgs = uniform_workload(&s, 1, 11);
        let report = sim.route_all(0, &msgs);
        assert!(
            report.delivery_rate() > 0.97,
            "delivery rate {} too low under 25% holder failure",
            report.delivery_rate()
        );
    }

    #[test]
    fn congestion_scales_like_k_log_n() {
        let s = series(256);
        let sim = RoutingSim::new(&s, RoutingConfig::default());
        let r1 = sim.route_all(0, &uniform_workload(&s, 1, 5));
        let r4 = sim.route_all(0, &uniform_workload(&s, 4, 5));
        assert!(
            r4.max_congestion > r1.max_congestion,
            "more messages, more congestion"
        );
        // The peak is dominated by the final whole-swarm broadcast, so it is a
        // small multiple of k · λ · (swarm size); it must stay polylogarithmic
        // in n rather than anywhere near linear.
        let lambda = s.params().lambda() as usize;
        assert!(
            r1.max_congestion < 40 * lambda * lambda,
            "congestion {} unexpectedly large vs λ = {lambda}",
            r1.max_congestion
        );
        assert!(
            r4.max_congestion < 10 * r1.max_congestion,
            "congestion must scale roughly linearly in k"
        );
    }

    #[test]
    fn unknown_source_is_not_delivered() {
        let s = series(32);
        let sim = RoutingSim::new(&s, RoutingConfig::default());
        let report = sim.route_all(
            0,
            &[MessageSpec {
                source: NodeId(9999),
                target: Position::new(0.5),
            }],
        );
        assert_eq!(report.delivered, 0);
        assert_eq!(report.outcomes[0].copies, 0);
    }

    #[test]
    fn trajectory_crossings_counts_matching_messages() {
        let s = series(64);
        let overlay = s.overlay(0);
        let msgs = uniform_workload(&s, 2, 9);
        let full_ring = Interval::around(Position::new(0.5), 0.5);
        assert_eq!(
            trajectory_crossings(&overlay, &msgs, 0, &full_ring),
            msgs.len(),
            "every trajectory's 0th point lies somewhere on the ring"
        );
        let empty = Interval::around(Position::new(0.5), 0.0);
        assert!(trajectory_crossings(&overlay, &msgs, 1, &empty) <= msgs.len() / 8);
    }

    #[test]
    fn uniform_workload_generates_k_messages_per_node() {
        let s = series(16);
        let msgs = uniform_workload(&s, 3, 1);
        assert_eq!(msgs.len(), 48);
        assert!(msgs.iter().filter(|m| m.source == NodeId(5)).count() == 3);
    }
}
