//! `A_SAMPLING` (Listing 2): sending a message to a uniformly random node.
//!
//! The technique is adapted from King & Saia: pick a uniform target point
//! `p ∈ [0,1)` and a uniform offset `Δ` ([`delta_range`]), route to the swarm
//! `S(p)` with `A_ROUTING`, then deliver by [`delta_select`]; if it picks
//! nobody the message is discarded. Lemma 13 shows every node is chosen with
//! the same probability and the discard probability is at most `1/2`.

use std::collections::HashMap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use tsa_overlay::rules::{delta_range, delta_select};
use tsa_overlay::{Lds, Position};
use tsa_sim::NodeId;

/// Result of a batch of sampling attempts.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SamplingReport {
    /// How often each node was selected.
    pub hits: HashMap<u64, usize>,
    /// Number of discarded attempts.
    pub discarded: usize,
    /// Total attempts.
    pub attempts: usize,
}

impl SamplingReport {
    /// The empirical discard probability.
    pub fn discard_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.discarded as f64 / self.attempts as f64
        }
    }

    /// Number of distinct nodes that were selected at least once.
    pub fn distinct_nodes(&self) -> usize {
        self.hits.len()
    }

    /// Total delivered samples.
    pub fn delivered(&self) -> usize {
        self.attempts - self.discarded
    }

    /// Maximum and minimum hit counts over nodes that were hit at least once.
    pub fn hit_spread(&self) -> (usize, usize) {
        let max = self.hits.values().copied().max().unwrap_or(0);
        let min = self.hits.values().copied().min().unwrap_or(0);
        (min, max)
    }
}

/// The delivery rule of `A_SAMPLING` on an ideal overlay: the node
/// [`delta_select`] picks from the swarm `S(p)`, or `None` (discard).
pub fn select_sample_target(lds: &Lds, p: Position, delta: usize) -> Option<NodeId> {
    let placed = |id| Some((id, lds.position(id)?.value()));
    let swarm = lds.swarm(p).into_iter().filter_map(placed);
    delta_select(swarm, p.value(), delta, &mut Vec::new())
}

/// Performs `attempts` independent sampling attempts on `lds` and reports the
/// per-node hit counts and the discard rate.
pub fn sample_many(lds: &Lds, attempts: usize, seed: u64) -> SamplingReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let deltas = delta_range(lds.params().c, lds.params().lambda());
    let mut report = SamplingReport {
        attempts,
        ..Default::default()
    };
    for _ in 0..attempts {
        let p = Position::new(rng.gen::<f64>());
        let delta = rng.gen_range(deltas.clone()) as usize;
        match select_sample_target(lds, p, delta) {
            Some(node) => *report.hits.entry(node.raw()).or_insert(0) += 1,
            None => report.discarded += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsa_overlay::OverlayParams;

    fn lds(n: usize, seed: u64) -> Lds {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Lds::random(
            OverlayParams::with_default_c(n),
            (0..n as u64).map(NodeId),
            &mut rng,
        )
    }

    #[test]
    fn selection_with_delta_zero_returns_first_node_right_of_p() {
        let overlay = Lds::build(
            OverlayParams::new(10, 1.0),
            [
                (NodeId(0), Position::new(0.10)),
                (NodeId(1), Position::new(0.15)),
                (NodeId(2), Position::new(0.20)),
                (NodeId(3), Position::new(0.80)),
            ],
        );
        let got = select_sample_target(&overlay, Position::new(0.12), 0);
        assert_eq!(got, Some(NodeId(1)));
        let got = select_sample_target(&overlay, Position::new(0.12), 1);
        assert_eq!(got, Some(NodeId(2)));
    }

    #[test]
    fn selection_discards_when_delta_too_large() {
        let overlay = lds(64, 3);
        let p = Position::new(0.5);
        let deltas = delta_range(overlay.params().c, overlay.params().lambda());
        let huge = 10 * *deltas.end() as usize;
        assert_eq!(select_sample_target(&overlay, p, huge), None);
    }

    #[test]
    fn discard_rate_is_at_most_one_half_ish() {
        // Lemma 13: P[discard] <= 1/2. Empirically it hovers just below 1/2
        // because the offset range 2cλ is twice the expected number of nodes
        // right of p in the swarm.
        let overlay = lds(512, 4);
        let report = sample_many(&overlay, 20_000, 9);
        assert!(
            report.discard_rate() < 0.6,
            "discard rate {} far above the Lemma 13 bound",
            report.discard_rate()
        );
        assert!(report.delivered() > 0);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let n = 256;
        let overlay = lds(n, 5);
        let attempts = 60_000;
        let report = sample_many(&overlay, attempts, 11);
        // Every node should be hit, and no node should dominate.
        assert_eq!(report.distinct_nodes(), n, "every node must be sampleable");
        let expected = report.delivered() as f64 / n as f64;
        let (min, max) = report.hit_spread();
        assert!(
            (max as f64) < expected * 2.0,
            "max hits {max} more than twice the expectation {expected}"
        );
        assert!(
            (min as f64) > expected * 0.4,
            "min hits {min} less than 40% of the expectation {expected}"
        );
    }

    #[test]
    fn report_helpers() {
        let mut r = SamplingReport::default();
        assert_eq!(r.discard_rate(), 0.0);
        r.attempts = 10;
        r.discarded = 4;
        r.hits.insert(1, 3);
        r.hits.insert(2, 3);
        assert!((r.discard_rate() - 0.4).abs() < 1e-12);
        assert_eq!(r.delivered(), 6);
        assert_eq!(r.distinct_nodes(), 2);
        assert_eq!(r.hit_spread(), (3, 3));
    }
}
