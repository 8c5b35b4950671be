//! An oblivious adversary that churns uniformly random nodes.
//!
//! This is the weakest adversary in Table 1's spectrum and the control group
//! for the lateness ablation (experiment E8): because the maintenance protocol
//! makes the adversary's topology knowledge useless (Lemma 16), a 2-late
//! targeted adversary should do no better than this one.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tsa_sim::{Adversary, ChurnPlan, KnowledgeView, Round};

use crate::util::{pick_random_members, spread_joins};

/// Churns a fixed number of uniformly random nodes per round and immediately
/// replaces them with the same number of joins, keeping the population stable.
#[derive(Clone, Debug)]
pub struct RandomChurnAdversary {
    /// Nodes to remove per active round.
    pub departures_per_round: usize,
    /// Nodes to add per active round (usually equal to `departures_per_round`).
    pub joins_per_round: usize,
    /// Only act every `period` rounds (1 = every round).
    pub period: u64,
    /// Maximum joins routed through the same bootstrap node.
    pub max_joins_per_bootstrap: usize,
    rng: ChaCha8Rng,
}

impl RandomChurnAdversary {
    /// Creates an adversary that replaces `churn_per_round` nodes each round.
    pub fn new(churn_per_round: usize, seed: u64) -> Self {
        RandomChurnAdversary {
            departures_per_round: churn_per_round,
            joins_per_round: churn_per_round,
            period: 1,
            max_joins_per_bootstrap: 2,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5241_4E44),
        }
    }

    /// Acts only every `period` rounds.
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period.max(1);
        self
    }
}

impl Adversary for RandomChurnAdversary {
    fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
        if !round.is_multiple_of(self.period) {
            return ChurnPlan::none();
        }
        let budget = view.remaining_budget();
        let departures_budget = budget.min(self.departures_per_round);
        let departures = pick_random_members(view, &mut self.rng, departures_budget, &[]);
        let joins_budget = budget
            .saturating_sub(departures.len())
            .min(self.joins_per_round);
        let joins = spread_joins(
            view,
            &mut self.rng,
            joins_budget,
            &departures,
            self.max_joins_per_bootstrap,
        );
        ChurnPlan { departures, joins }
    }

    fn name(&self) -> &'static str {
        "random-churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_sim::prelude::*;
    use tsa_sim::ChurnRules;

    struct Idle;
    impl Process for Idle {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {}
    }

    fn run(
        adversary: RandomChurnAdversary,
        rules: ChurnRules,
        rounds: u64,
    ) -> Simulator<Idle, RandomChurnAdversary> {
        let config = SimConfig::default().with_churn_rules(rules);
        let mut sim = Simulator::new(config, adversary, Box::new(|_, _| Idle));
        sim.seed_nodes(64);
        sim.run(rounds);
        sim
    }

    #[test]
    fn population_stays_stable_under_balanced_churn() {
        let adv = RandomChurnAdversary::new(4, 1);
        // A short bootstrap phase so that eligible bootstrap nodes exist by the
        // time churn starts (the paper always assumes one).
        let rules = ChurnRules {
            max_events: Some(1000),
            window: 10,
            bootstrap_rounds: 2,
            ..ChurnRules::default()
        };
        let sim = run(adv, rules, 10);
        assert_eq!(sim.node_count(), 64, "joins replace departures");
        assert!(sim
            .metrics()
            .rounds()
            .iter()
            .skip(2)
            .any(|m| m.departures > 0));
    }

    #[test]
    fn budget_limits_are_respected() {
        let adv = RandomChurnAdversary::new(50, 2);
        let rules = ChurnRules {
            max_events: Some(8),
            window: 1000,
            ..ChurnRules::default()
        };
        let sim = run(adv, rules, 5);
        let total_churn: usize = sim
            .metrics()
            .rounds()
            .iter()
            .map(|m| m.departures + m.joins)
            .sum();
        assert!(total_churn <= 8, "churn {total_churn} exceeded budget 8");
    }

    #[test]
    fn period_gates_activity() {
        let adv = RandomChurnAdversary::new(4, 3).with_period(4);
        let rules = ChurnRules {
            max_events: Some(1000),
            window: 10,
            ..ChurnRules::default()
        };
        let sim = run(adv, rules, 8);
        let active_rounds = sim
            .metrics()
            .rounds()
            .iter()
            .filter(|m| m.departures > 0 || m.joins > 0)
            .count();
        assert!(
            active_rounds <= 2,
            "only rounds 0 and 4 may churn, got {active_rounds}"
        );
    }
}
