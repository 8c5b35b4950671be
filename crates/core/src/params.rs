//! Parameters of the maintenance protocol (`A_LDS` + `A_RANDOM`).

use serde::{Deserialize, Serialize};
use tsa_overlay::OverlayParams;

use crate::byzantine::ByzantineSpec;

/// All tunables of the Section 5 maintenance protocol.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceParams {
    /// The underlying overlay parameters (`n`, `κ`, `c`).
    pub overlay: OverlayParams,
    /// `δ ∈ O(log n)`: how many mature nodes each fresh node connects to per
    /// round, and half the number of connect slots a mature node offers.
    pub delta: usize,
    /// `τ ∈ O(log n)`: how many tokens each mature node emits per round via
    /// `A_SAMPLING`.
    pub tau: usize,
    /// The routing replication factor `r ∈ Θ(1)` (Listing 1). Defaults to 3;
    /// the same `r` in the Lemma 9–12 simulator (`tsa-routing`'s
    /// `RoutingConfig::replication`) defaults to 4, and the committed
    /// artifacts of each layer depend on its default.
    pub replication: usize,
    /// Number of initial epochs during which genesis nodes may derive their
    /// neighbourhood directly from the (churn-free) initial member set instead
    /// of waiting for `CREATE` introductions. This realizes the bootstrap
    /// construction the paper delegates to Gmyr et al. \\[14\\]; it equals
    /// `λ + 1`, the depth of the join-request pipeline.
    pub genesis_epochs: u64,
    /// When `Some`, the id slice the spec selects runs its misbehavior
    /// instead of the honest protocol. `None` (the default, and the only
    /// value existing serialized parameter sets can contain) leaves every
    /// node honest.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub byzantine: Option<ByzantineSpec>,
}

impl MaintenanceParams {
    /// Sensible defaults for a network with lower bound `n`.
    pub fn new(n: usize) -> Self {
        Self::with_overlay(OverlayParams::new(n, 1.5))
    }

    /// Builds maintenance parameters on top of explicit overlay parameters.
    pub fn with_overlay(overlay: OverlayParams) -> Self {
        let lambda = overlay.lambda() as usize;
        MaintenanceParams {
            overlay,
            delta: lambda.max(2),
            tau: (2 * lambda).max(4),
            replication: 3,
            genesis_epochs: overlay.lambda() as u64 + 1,
            byzantine: None,
        }
    }

    /// Assigns a byzantine role to the id slice `spec` selects.
    pub fn with_byzantine(mut self, spec: ByzantineSpec) -> Self {
        self.byzantine = Some(spec);
        self
    }

    /// Overrides the robustness parameter `c` (and keeps everything else
    /// derived from it consistent).
    pub fn with_c(mut self, c: f64) -> Self {
        self.overlay.c = c;
        self
    }

    /// Overrides `δ`.
    pub fn with_delta(mut self, delta: usize) -> Self {
        self.delta = delta.max(1);
        self
    }

    /// Overrides `τ`.
    pub fn with_tau(mut self, tau: usize) -> Self {
        self.tau = tau;
        self
    }

    /// Overrides the replication factor `r`.
    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r.max(1);
        self
    }

    /// `λ`, the number of address bits.
    pub fn lambda(&self) -> u32 {
        self.overlay.lambda()
    }

    /// The age (in rounds) after which a node counts as mature
    /// (`λ' = 2λ + 4`).
    pub fn maturity_age(&self) -> u64 {
        self.overlay.maturity_age()
    }

    /// Number of connect slots a mature node offers (`2δ`).
    pub fn connect_slots(&self) -> usize {
        2 * self.delta
    }

    /// Length of the churn-free bootstrap phase in rounds (`2λ + 7` in the
    /// paper; we need `2(λ + 1)` for the pipeline to fill and keep the paper's
    /// small safety margin).
    pub fn bootstrap_rounds(&self) -> u64 {
        2 * self.lambda() as u64 + 7
    }

    /// The swarm radius used by the protocol.
    pub fn swarm_radius(&self) -> f64 {
        self.overlay.swarm_radius()
    }

    /// The paper's churn rules for this parameter set: `(n/16, 4λ+14)` with the
    /// join-via-2-rounds-old restriction.
    pub fn paper_churn_rules(&self) -> tsa_sim::ChurnRules {
        tsa_sim::ChurnRules::paper(
            self.overlay.n,
            self.overlay.churn_window(),
            self.bootstrap_rounds(),
        )
    }

    /// The paper's `(2, 2λ+7)` adversary lateness for this parameter set.
    pub fn paper_lateness(&self) -> tsa_sim::Lateness {
        tsa_sim::Lateness {
            topology: 2,
            state: self.overlay.state_lateness(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_n() {
        let small = MaintenanceParams::new(64);
        let large = MaintenanceParams::new(1024);
        assert!(large.delta > small.delta);
        assert!(large.tau > small.tau);
        assert_eq!(small.connect_slots(), 2 * small.delta);
        assert_eq!(small.genesis_epochs, small.lambda() as u64 + 1);
    }

    #[test]
    fn builders_override_fields() {
        let p = MaintenanceParams::new(128)
            .with_c(2.5)
            .with_delta(5)
            .with_tau(9)
            .with_replication(6);
        assert_eq!(p.overlay.c, 2.5);
        assert_eq!(p.delta, 5);
        assert_eq!(p.tau, 9);
        assert_eq!(p.replication, 6);
    }

    #[test]
    fn paper_rules_are_consistent_with_overlay() {
        let p = MaintenanceParams::new(256);
        let rules = p.paper_churn_rules();
        assert_eq!(rules.max_events, Some(16));
        assert_eq!(rules.window, p.overlay.churn_window());
        assert_eq!(rules.min_bootstrap_age, 2);
        assert_eq!(p.paper_lateness().topology, 2);
        assert!(p.bootstrap_rounds() >= 2 * p.lambda() as u64 + 2);
    }
}
