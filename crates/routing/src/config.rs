//! Routing configuration.

use serde::{Deserialize, Serialize};

/// Parameters of `A_ROUTING` (Listing 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoutingConfig {
    /// The replication factor `r ∈ Θ(1)`: how many random members of the next
    /// swarm each holder forwards a copy to. The paper's analysis (Lemma 11)
    /// only needs a sufficiently large constant; 3 already works well in
    /// practice and 4 is a comfortable default. The maintenance protocol's
    /// own `r` (`tsa-core`'s `MaintenanceParams::replication`) defaults to 3;
    /// the committed artifacts of each layer depend on its default.
    pub replication: usize,
    /// Probability that an individual holder fails to forward in a step
    /// (models churned-out swarm members when the routing layer is exercised
    /// without the full maintenance protocol). The goodness assumption of
    /// Definition 8 corresponds to values up to `1/4`.
    pub holder_failure: f64,
    /// Seed for the routing layer's random choices.
    pub seed: u64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            replication: 4,
            holder_failure: 0.0,
            seed: 0xA11CE,
        }
    }
}

impl RoutingConfig {
    /// Sets the replication factor `r`.
    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Sets the per-step holder failure probability.
    pub fn with_holder_failure(mut self, p: f64) -> Self {
        self.holder_failure = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reasonable() {
        let c = RoutingConfig::default();
        assert!(c.replication >= 3);
        assert_eq!(c.holder_failure, 0.0);
    }

    #[test]
    fn builders_compose_and_clamp() {
        let c = RoutingConfig::default()
            .with_replication(7)
            .with_holder_failure(2.0)
            .with_seed(5);
        assert_eq!(c.replication, 7);
        assert_eq!(c.holder_failure, 1.0);
        assert_eq!(c.seed, 5);
    }
}
