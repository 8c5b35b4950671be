//! The Lemma 4 attack: joining via one-round-old nodes breaks any overlay.
//!
//! Lemma 4 proves that the model's join restriction (a bootstrap node must be
//! at least two rounds old) is necessary: if a node may join via a node that
//! itself joined only one round ago, even a completely oblivious
//! `(∞,∞)`-late adversary partitions the network. The strategy builds a chain
//! `v_1, v_2, …` where `v_{i+1}` joins via `v_i` and `v_{i-1}` is churned out
//! immediately, so every chain node only ever learns identifiers from the
//! original node set `V_0`; meanwhile the adversary slowly replaces all of
//! `V_0`. Eventually a chain node knows only departed nodes and cannot
//! introduce its successor to anybody — the successor is born disconnected.
//!
//! Experiment E2 runs this strategy once with the weakened join rule
//! (`min_bootstrap_age = 1`, attack succeeds) and once with the paper's rule
//! (`min_bootstrap_age = 2`, the engine rejects the chain joins and the attack
//! collapses into plain random churn).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tsa_sim::{Adversary, ChurnPlan, JoinPlan, KnowledgeView, NodeId, Round};

use crate::util::{oldest_members, spread_joins};

/// The Lemma 4 join-chain adversary.
#[derive(Clone, Debug)]
pub struct JoinChainAdversary {
    /// Round at which the chain starts.
    pub start_round: Round,
    /// How many of the original nodes are replaced per round.
    pub erosion_per_round: usize,
    /// The most recently added chain node (the next join goes through it).
    chain_head: Option<NodeId>,
    /// The previous chain node (churned out as soon as the next link exists).
    chain_prev: Option<NodeId>,
    /// Identifiers of all chain members ever created.
    chain: Vec<NodeId>,
    rng: ChaCha8Rng,
}

impl JoinChainAdversary {
    /// Creates the join-chain attack.
    pub fn new(start_round: Round, erosion_per_round: usize, seed: u64) -> Self {
        JoinChainAdversary {
            start_round,
            erosion_per_round,
            chain_head: None,
            chain_prev: None,
            chain: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xC4A1_4C11),
        }
    }

    /// All chain node identifiers created so far (oldest first).
    pub fn chain(&self) -> &[NodeId] {
        &self.chain
    }

    /// The current head of the chain.
    pub fn chain_head(&self) -> Option<NodeId> {
        self.chain_head
    }

    fn newest_member(&self, view: &KnowledgeView<'_>, joined_at: Round) -> Option<NodeId> {
        view.members()
            .filter(|(_, info)| info.joined_at == joined_at)
            .map(|(id, _)| id)
            .max()
    }
}

impl Adversary for JoinChainAdversary {
    fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
        if round < self.start_round {
            return ChurnPlan::none();
        }

        // Bookkeeping: the node that joined last round (if any) becomes the new
        // chain head; the old head becomes "previous" and is churned out now.
        if round > self.start_round {
            if let Some(new_head) = self.newest_member(view, round - 1) {
                if !self.chain.contains(&new_head) && Some(new_head) != self.chain_head {
                    self.chain_prev = self.chain_head;
                    self.chain_head = Some(new_head);
                    self.chain.push(new_head);
                }
            }
        }

        let mut departures: Vec<NodeId> = Vec::new();
        if let Some(prev) = self.chain_prev.take() {
            if view.contains(prev) {
                departures.push(prev);
            }
        }

        // Erode the original stable core.
        let budget = view.remaining_budget() / 2;
        for id in oldest_members(view, self.erosion_per_round) {
            if departures.len() >= budget {
                break;
            }
            if Some(id) != self.chain_head && !departures.contains(&id) {
                departures.push(id);
            }
        }

        // Next chain link: join via the current head if it exists (this is the
        // move the paper's join rule forbids), otherwise start the chain via
        // any eligible bootstrap.
        let mut joins: Vec<JoinPlan> = Vec::new();
        let chain_bootstrap = self
            .chain_head
            .filter(|id| view.contains(*id))
            .or_else(|| view.eligible_bootstraps().first().copied());
        // The replacement joins below must not reuse the chain bootstrap:
        // together with the chain join that could exceed the per-bootstrap
        // fan-in and get the chain join rejected by the engine.
        let mut join_exclude = departures.clone();
        if let Some(bootstrap) = chain_bootstrap {
            if !departures.contains(&bootstrap) {
                joins.push(JoinPlan { bootstrap });
                join_exclude.push(bootstrap);
            }
        }
        // Replace the eroded nodes to keep the population stable.
        let replacements = departures.len().saturating_sub(joins.len());
        joins.extend(spread_joins(
            view,
            &mut self.rng,
            replacements,
            &join_exclude,
            2,
        ));

        ChurnPlan { departures, joins }
    }

    fn name(&self) -> &'static str {
        "join-chain"
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

    fn rules(min_bootstrap_age: u64) -> ChurnRules {
        ChurnRules {
            max_events: Some(10_000),
            window: 1000,
            min_bootstrap_age,
            ..ChurnRules::default()
        }
    }

    #[test]
    fn chain_grows_under_the_weak_join_rule() {
        let adv = JoinChainAdversary::new(2, 1, 1);
        let config = SimConfig::default().with_churn_rules(rules(1).with_weak_join_rule());
        let mut sim = Simulator::new(config, adv, Box::new(|_, _| Idle));
        sim.seed_nodes(16);
        sim.run(12);
        let chain = sim.adversary().chain().to_vec();
        assert!(
            chain.len() >= 8,
            "one chain link per round, got {}",
            chain.len()
        );
        // Only the head survives; earlier links are churned out.
        let alive: Vec<NodeId> = chain
            .iter()
            .copied()
            .filter(|id| sim.member_ids().contains(id))
            .collect();
        assert!(
            alive.len() <= 2,
            "at most the newest links survive, got {alive:?}"
        );
    }

    #[test]
    fn paper_join_rule_blocks_the_chain() {
        const START: Round = 2;
        const ROUNDS: Round = 12;
        let adv = JoinChainAdversary::new(START, 0, 2);
        let config = SimConfig::default().with_churn_rules(rules(2));
        let mut sim = Simulator::new(config, adv, Box::new(|_, _| Idle));
        sim.seed_nodes(16);
        let mut rejected = 0;
        for _ in 0..ROUNDS {
            sim.step();
            rejected += sim.last_churn_outcome().rejected_joins.len();
        }
        // Chain joins via one-round-old heads are rejected by the engine, so
        // a link can only be added every second round (the weak rule adds
        // one every round).
        let chain_len = sim.adversary().chain().len();
        assert!(rejected >= 1, "the engine must reject a chain join");
        assert!(
            chain_len as Round <= (ROUNDS - START) / 2,
            "with the paper's rule the chain grows every second round at most \
             (len {chain_len}, rejected {rejected})"
        );
    }

    #[test]
    fn erosion_replaces_old_nodes() {
        let adv = JoinChainAdversary::new(0, 2, 3);
        let config = SimConfig::default().with_churn_rules(rules(1).with_weak_join_rule());
        let mut sim = Simulator::new(config, adv, Box::new(|_, _| Idle));
        sim.seed_nodes(20);
        sim.run(15);
        let survivors_from_v0 = (0..20u64)
            .filter(|i| sim.member_ids().contains(&NodeId(*i)))
            .count();
        assert!(
            survivors_from_v0 < 20,
            "the original node set must shrink under erosion"
        );
        assert!(sim.node_count() >= 18, "population stays roughly stable");
    }
}
