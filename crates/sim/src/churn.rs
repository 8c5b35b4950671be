//! Churn plans, the rules that constrain them, and budget accounting.
//!
//! The paper's model (Section 1.1) restricts the adversary in three ways:
//!
//! 1. **Churn rate** `(C, T)`: at most `C` joins/leaves within any window of
//!    `T` consecutive rounds (the paper uses `C = αn`, `T ∈ O(log n)`).
//! 2. **Join rule**: a node may only join via a bootstrap node that has been in
//!    the network for at least 2 rounds (`w ∈ V_t ∩ V_{t-2}`); Section 2 shows
//!    this is necessary.
//! 3. **Join fan-in**: only a constant number of nodes may join via the same
//!    bootstrap node in one round.
//!
//! The engine enforces all three and reports any part of a plan it had to
//! reject, so adversary implementations cannot cheat even accidentally.

use std::collections::{BTreeMap, VecDeque};

use crate::ids::{NodeId, Round};
use crate::knowledge::MemberInfo;

/// A join proposed by the adversary: the engine assigns the new node identifier,
/// the adversary only picks the bootstrap node that will learn about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// The bootstrap node `w ∈ V_t ∩ V_{t-2}` that receives a reference to the
    /// newly joined node.
    pub bootstrap: NodeId,
}

/// The adversary's decision for one round: which nodes leave and which join.
#[derive(Clone, Debug, Default)]
pub struct ChurnPlan {
    /// Nodes that leave immediately at the beginning of the round, without
    /// receiving this round's messages.
    pub departures: Vec<NodeId>,
    /// Nodes that join this round.
    pub joins: Vec<JoinPlan>,
}

impl ChurnPlan {
    /// A plan with no churn at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Total number of churn events (joins plus leaves) in this plan.
    pub fn events(&self) -> usize {
        self.departures.len() + self.joins.len()
    }

    /// `true` if the plan performs no churn.
    pub fn is_empty(&self) -> bool {
        self.departures.is_empty() && self.joins.is_empty()
    }
}

/// Static churn rules enforced by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChurnRules {
    /// Maximum number of churn events (`C`) within any `window` rounds, or
    /// `None` for an unconstrained adversary (used by the impossibility
    /// experiments).
    pub max_events: Option<usize>,
    /// The window length `T` for the churn-rate constraint.
    pub window: Round,
    /// Minimum age (in rounds) of a bootstrap node; the paper requires 2.
    pub min_bootstrap_age: Round,
    /// Maximum number of joins via the same bootstrap node in one round.
    pub max_joins_per_bootstrap: usize,
    /// Length of the churn-free bootstrap phase `B ∈ O(log n)`.
    pub bootstrap_rounds: Round,
}

impl Default for ChurnRules {
    fn default() -> Self {
        ChurnRules {
            max_events: None,
            window: 1,
            min_bootstrap_age: 2,
            max_joins_per_bootstrap: 2,
            bootstrap_rounds: 0,
        }
    }
}

impl ChurnRules {
    /// The paper's headline parameters: churn rate `(αn, T)` with `α = 1/16`,
    /// bootstrap-age 2 and a constant join fan-in.
    pub fn paper(n: usize, window: Round, bootstrap_rounds: Round) -> Self {
        ChurnRules {
            max_events: Some(n / 16),
            window,
            min_bootstrap_age: 2,
            max_joins_per_bootstrap: 2,
            bootstrap_rounds,
        }
    }

    /// Rules with the join restriction weakened so nodes may join via fresh
    /// bootstrap nodes — used to reproduce the Lemma 4 impossibility.
    pub fn with_weak_join_rule(mut self) -> Self {
        self.min_bootstrap_age = 1;
        self
    }
}

/// Sliding-window accounting of how much churn the adversary has already spent.
#[derive(Clone, Debug, Default)]
pub struct ChurnBudget {
    history: VecDeque<(Round, usize)>,
    total_in_window: usize,
}

impl ChurnBudget {
    /// Creates an empty budget tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops events that have fallen out of the `window` ending at `round`.
    /// The sum saturates: `window: u64::MAX` means "never leaves the window".
    pub fn roll(&mut self, round: Round, window: Round) {
        while let Some(&(r, n)) = self.history.front() {
            if r.saturating_add(window) <= round {
                self.history.pop_front();
                self.total_in_window -= n;
            } else {
                break;
            }
        }
    }

    /// Records `events` churn events at `round`.
    pub fn record(&mut self, round: Round, events: usize) {
        if events == 0 {
            return;
        }
        self.history.push_back((round, events));
        self.total_in_window += events;
    }

    /// Churn events currently inside the window.
    pub fn used(&self) -> usize {
        self.total_in_window
    }

    /// How many more events fit under `rules` at `round`.
    pub fn remaining(&mut self, round: Round, rules: &ChurnRules) -> usize {
        self.roll(round, rules.window);
        match rules.max_events {
            None => usize::MAX,
            Some(cap) => cap.saturating_sub(self.total_in_window),
        }
    }
}

/// Reusable scratch buffers for [`apply_churn_plan`] (departure deduplication
/// and per-bootstrap join fan-in accounting), so validating a plan performs
/// no steady-state heap allocation.
#[derive(Clone, Debug, Default)]
pub struct PlanScratch {
    seen: Vec<NodeId>,
    fanin: Vec<(NodeId, usize)>,
}

/// Validates and applies a churn plan against the shared membership state —
/// the single churn arbiter: [`World`](crate::World) applies every plan
/// through it, whatever its delivery, and the naive reference scheduler of
/// `tests/scheduler_reference.rs` calls it too, so the budget, bootstrap-age
/// and fan-in rules can never drift between schedulers.
///
/// Departures are processed first (the paper's `O_t`): deduplicated, checked
/// against the remaining budget, and removed from `members`. Joins (`J_t`)
/// are then checked against the bootstrap-age and per-bootstrap fan-in rules;
/// each accepted joiner is assigned the next identifier from `next_id` and
/// inserted into `members` with join round `t`. Everything applied or
/// rejected is accumulated into `outcome` (a recycled buffer the caller has
/// cleared), and the events actually spent are recorded against `budget`.
///
/// The caller remains responsible for materializing engine-side node state
/// (slots, processes, pending messages) from `outcome.departed` /
/// `outcome.joined` afterwards.
#[allow(clippy::too_many_arguments)]
pub fn apply_churn_plan(
    t: Round,
    plan: ChurnPlan,
    rules: &ChurnRules,
    budget: &mut ChurnBudget,
    members: &mut BTreeMap<NodeId, MemberInfo>,
    next_id: &mut u64,
    scratch: &mut PlanScratch,
    outcome: &mut ChurnOutcome,
) {
    let mut remaining = budget.remaining(t, rules);

    // Departures first (the paper's O_t).
    scratch.seen.clear();
    for id in plan.departures {
        if scratch.seen.contains(&id) {
            continue;
        }
        scratch.seen.push(id);
        if remaining == 0 || members.remove(&id).is_none() {
            outcome.rejected_departures.push(id);
            continue;
        }
        outcome.departed.push(id);
        remaining = remaining.saturating_sub(1);
    }

    // Joins (the paper's J_t), each via an eligible bootstrap node.
    scratch.fanin.clear();
    for join in plan.joins {
        let eligible = members
            .get(&join.bootstrap)
            .map(|m| m.joined_at.saturating_add(rules.min_bootstrap_age) <= t)
            .unwrap_or(false);
        let fanin_idx = match scratch
            .fanin
            .iter()
            .position(|(id, _)| *id == join.bootstrap)
        {
            Some(i) => i,
            None => {
                scratch.fanin.push((join.bootstrap, 0));
                scratch.fanin.len() - 1
            }
        };
        let fanin = &mut scratch.fanin[fanin_idx].1;
        if remaining == 0 || !eligible || *fanin >= rules.max_joins_per_bootstrap {
            outcome.rejected_joins.push(join);
            continue;
        }
        *fanin += 1;
        let id = NodeId(*next_id);
        *next_id += 1;
        members.insert(id, MemberInfo { joined_at: t });
        outcome.joined.push((id, join.bootstrap));
        remaining = remaining.saturating_sub(1);
    }

    budget.record(t, outcome.events());
}

/// What the engine actually applied of a [`ChurnPlan`], plus anything rejected.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnOutcome {
    /// Nodes removed this round.
    pub departed: Vec<NodeId>,
    /// Newly created nodes with their bootstrap node.
    pub joined: Vec<(NodeId, NodeId)>,
    /// Departures rejected (unknown node, or budget exhausted).
    pub rejected_departures: Vec<NodeId>,
    /// Joins rejected (ineligible bootstrap, fan-in, or budget exhausted).
    pub rejected_joins: Vec<JoinPlan>,
}

impl ChurnOutcome {
    /// Total churn events that actually happened.
    pub fn events(&self) -> usize {
        self.departed.len() + self.joined.len()
    }

    /// `true` if the engine had to reject part of the plan.
    pub fn had_rejections(&self) -> bool {
        !self.rejected_departures.is_empty() || !self.rejected_joins.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_no_events() {
        let p = ChurnPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.events(), 0);
    }

    #[test]
    fn plan_counts_joins_and_departures() {
        let p = ChurnPlan {
            departures: vec![NodeId(1), NodeId(2)],
            joins: vec![JoinPlan {
                bootstrap: NodeId(3),
            }],
        };
        assert_eq!(p.events(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn budget_rolls_old_events_out_of_the_window() {
        let rules = ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        };
        let mut b = ChurnBudget::new();
        b.record(0, 6);
        assert_eq!(b.remaining(1, &rules), 4);
        b.record(1, 4);
        assert_eq!(b.remaining(2, &rules), 0);
        // Round 4: events from round 0 leave the window (0 + 4 <= 4).
        assert_eq!(b.remaining(4, &rules), 6);
        // Round 5: events from round 1 leave as well.
        assert_eq!(b.remaining(5, &rules), 10);
    }

    #[test]
    fn an_unbounded_window_never_refills_the_budget() {
        // `window` deserializes from any u64: the sum saturates instead of
        // panicking (debug) or wrapping into a zero-length window that
        // refills the budget every round (release).
        let rules = ChurnRules {
            max_events: Some(10),
            window: u64::MAX,
            ..ChurnRules::default()
        };
        let mut b = ChurnBudget::new();
        b.record(3, 5);
        assert_eq!(b.remaining(10, &rules), 5);
    }

    #[test]
    fn an_unbounded_bootstrap_age_admits_no_bootstrap() {
        let rules = ChurnRules {
            min_bootstrap_age: u64::MAX,
            ..ChurnRules::default()
        };
        let mut members = BTreeMap::from([(NodeId(0), MemberInfo { joined_at: 1 })]);
        let via_zero = JoinPlan {
            bootstrap: NodeId(0),
        };
        let plan = ChurnPlan {
            departures: Vec::new(),
            joins: vec![via_zero],
        };
        let mut outcome = ChurnOutcome::default();
        apply_churn_plan(
            10,
            plan,
            &rules,
            &mut ChurnBudget::new(),
            &mut members,
            &mut 1,
            &mut PlanScratch::default(),
            &mut outcome,
        );
        assert!(outcome.joined.is_empty());
        assert_eq!(outcome.rejected_joins, vec![via_zero]);
    }

    #[test]
    fn unlimited_budget_reports_max() {
        let rules = ChurnRules::default();
        let mut b = ChurnBudget::new();
        b.record(0, 1000);
        assert_eq!(b.remaining(0, &rules), usize::MAX);
    }

    #[test]
    fn paper_rules_match_the_model() {
        let r = ChurnRules::paper(1600, 40, 20);
        assert_eq!(r.max_events, Some(100));
        assert_eq!(r.window, 40);
        assert_eq!(r.min_bootstrap_age, 2);
        assert_eq!(r.bootstrap_rounds, 20);
    }

    #[test]
    fn weak_join_rule_lowers_bootstrap_age() {
        let r = ChurnRules::default().with_weak_join_rule();
        assert_eq!(r.min_bootstrap_age, 1);
    }

    #[test]
    fn outcome_tracks_rejections() {
        let mut o = ChurnOutcome::default();
        assert!(!o.had_rejections());
        o.rejected_departures.push(NodeId(1));
        assert!(o.had_rejections());
    }
}
