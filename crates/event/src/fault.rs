//! The fault-injection plan language.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultRule`]s. Every message the
//! engine hands to the network is matched against the rules in order — by
//! round window, sender/receiver selector and message kind — and the first
//! rule that matches *and* whose probability coin fires decides the
//! message's fault: dropped, delayed, duplicated or mutated. Unmatched
//! messages pass through untouched.
//!
//! # Determinism
//!
//! Rule `idx`'s probability coin for message `seq` is word `idx` of the
//! counter hash the network fates use, under its own label (`COIN_LABEL`),
//! so the decision for a message is a pure function of `(seed, seq)` and
//! the plan itself — never of any shared RNG state. The same plan therefore
//! injects the same faults into the same messages on the event engine and on
//! the loopback transport (which assign identical sequence numbers), at any
//! thread cap, on any host. Mutation entropy is `mix(&[seed, seq,
//! FAULT_LABEL])` on both engines, so a mutated payload is byte-identical
//! across them too; the label differs from `COIN_LABEL`, so a rule's coin is
//! no function of the entropy its mutation uses.
//!
//! # Fault semantics at the two boundaries
//!
//! * **Drop** — the message never reaches the network (counted as `lost`).
//! * **Delay** — extra ticks on top of the sampled network delay
//!   (`tsa-event`), or the frame is held back for the equivalent number of
//!   whole rounds before it is written (`tsa-net`).
//! * **Duplicate** — a second copy is sent to the same receiver; the copy
//!   consumes the next sequence number and then takes its own independent
//!   network fate.
//! * **Mutate** — the payload is corrupted in place through the protocol's
//!   [`FaultAdapter`] before it is sent. Mutation may touch payload *claims*
//!   (positions, trajectory points) but never the receiver, the message
//!   kind, or the number of messages — those are delivery facts the twin
//!   trace depends on.
//!
//! When the event engine replays a recorded transport trace, Drop and Delay
//! decisions are skipped (the trace already encodes every fate) while
//! Duplicate and Mutate are re-applied, which keeps the sequence-number
//! assignment and the payload bytes of the replay aligned with the
//! recording.

use serde::{Deserialize, Serialize};
use tsa_sim::rng::mix;
use tsa_sim::{NodeId, Round};

use crate::model::{unit_f64, FateKey, RegionAssign};

/// Domain-separation label of the mutation entropy.
const FAULT_LABEL: u64 = 0x4641_554C_5450_4C4E; // "FAULTPLN"

/// Domain-separation label of the rules' probability coins.
const COIN_LABEL: u64 = 0x464C_5443_4F49_4E53; // "FLTCOINS"

/// A half-open round window `[from, until)`. `until = u64::MAX` means
/// "forever"; the default window matches every round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundWindow {
    /// First round the window covers.
    pub from: Round,
    /// First round past the window (exclusive).
    pub until: Round,
}

impl RoundWindow {
    /// The window covering every round.
    pub fn all() -> Self {
        RoundWindow {
            from: 0,
            until: u64::MAX,
        }
    }

    /// The window `[from, ∞)`.
    pub fn starting_at(from: Round) -> Self {
        RoundWindow {
            from,
            until: u64::MAX,
        }
    }

    /// The window `[from, until)`. An empty or inverted window matches
    /// nothing.
    pub fn between(from: Round, until: Round) -> Self {
        RoundWindow { from, until }
    }

    /// `true` if this is the match-everything window (the serde default).
    pub fn is_all(&self) -> bool {
        *self == RoundWindow::all()
    }

    /// `true` if `round` falls inside the window.
    pub fn contains(&self, round: Round) -> bool {
        self.from <= round && round < self.until
    }

    /// A compact label, e.g. `@8..` or `@8..20`; empty for the full window.
    pub fn label(&self) -> String {
        if self.is_all() {
            String::new()
        } else if self.until == u64::MAX {
            format!("@{}..", self.from)
        } else {
            format!("@{}..{}", self.from, self.until)
        }
    }
}

impl Default for RoundWindow {
    fn default() -> Self {
        RoundWindow::all()
    }
}

/// Selects the senders or receivers a rule applies to. Every variant is a
/// pure function of the node id, so selection is identical on every host
/// and at every thread configuration.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum NodeSelector {
    /// Matches every node.
    #[default]
    Any,
    /// Matches exactly one node id.
    Id {
        /// The raw node id to match.
        id: u64,
    },
    /// Matches every node a [`RegionAssign`] places in `region`.
    Region {
        /// The region assignment to evaluate.
        assign: RegionAssign,
        /// The region whose members match.
        region: u32,
    },
}

impl NodeSelector {
    /// `true` if this is the match-everything selector (the serde default).
    pub fn is_any(&self) -> bool {
        matches!(self, NodeSelector::Any)
    }

    /// `true` if the selector matches `node`.
    pub fn matches(&self, node: NodeId) -> bool {
        match self {
            NodeSelector::Any => true,
            NodeSelector::Id { id } => node.raw() == *id,
            NodeSelector::Region { assign, region } => assign.region_of(node) == *region,
        }
    }

    /// A compact label, e.g. `*`, `#5`, `r1`.
    pub fn label(&self) -> String {
        match self {
            NodeSelector::Any => "*".to_string(),
            NodeSelector::Id { id } => format!("#{id}"),
            NodeSelector::Region { region, .. } => format!("r{region}"),
        }
    }
}

/// What happens to a message matched by a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The message never reaches the network.
    Drop,
    /// The message is held back.
    Delay {
        /// Extra delay in virtual ticks
        /// ([`TICKS_PER_ROUND`](crate::TICKS_PER_ROUND) ticks per round).
        /// The transport rounds the hold-back up to whole rounds.
        ticks: u64,
    },
    /// A second copy is sent to the same receiver (it consumes the next
    /// sequence number and takes its own network fate).
    Duplicate,
    /// The payload is corrupted in place through the protocol's
    /// [`FaultAdapter`] before sending.
    Mutate,
}

impl FaultAction {
    /// A one-letter label: `d`rop, de`l`ay, d`u`plicate, `m`utate.
    pub fn letter(&self) -> char {
        match self {
            FaultAction::Drop => 'd',
            FaultAction::Delay { .. } => 'l',
            FaultAction::Duplicate => 'u',
            FaultAction::Mutate => 'm',
        }
    }
}

/// One ordered rule of a [`FaultPlan`]: a match (window, sender, receiver,
/// kinds) and the action taken when the match fires.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Rounds the rule is active in (default: every round).
    #[serde(default, skip_serializing_if = "RoundWindow::is_all")]
    pub window: RoundWindow,
    /// Senders the rule applies to (default: every sender).
    #[serde(default, skip_serializing_if = "NodeSelector::is_any")]
    pub from: NodeSelector,
    /// Receivers the rule applies to (default: every receiver).
    #[serde(default, skip_serializing_if = "NodeSelector::is_any")]
    pub to: NodeSelector,
    /// Message-kind tags the rule applies to (the protocol's
    /// [`FaultAdapter::kind_of`] tags); empty means every kind.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub kinds: Vec<u8>,
    /// Probability the rule fires when it matches; `None` means always
    /// (probability 1). The coin is a pure function of
    /// `(seed, seq, rule index)`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub prob: Option<f64>,
    /// The action taken when the rule fires.
    pub action: FaultAction,
}

impl FaultRule {
    /// An unconditional rule: every message, every round, probability 1.
    pub fn every(action: FaultAction) -> Self {
        FaultRule {
            window: RoundWindow::all(),
            from: NodeSelector::Any,
            to: NodeSelector::Any,
            kinds: Vec::new(),
            prob: None,
            action,
        }
    }

    /// The effective firing probability (`None` means 1).
    pub fn fire_prob(&self) -> f64 {
        self.prob.unwrap_or(1.0)
    }

    /// Restricts the rule to a round window.
    pub fn in_window(mut self, window: RoundWindow) -> Self {
        self.window = window;
        self
    }

    /// Restricts the rule to matching senders.
    pub fn from(mut self, from: NodeSelector) -> Self {
        self.from = from;
        self
    }

    /// Restricts the rule to matching receivers.
    pub fn to(mut self, to: NodeSelector) -> Self {
        self.to = to;
        self
    }

    /// Restricts the rule to the given message-kind tags.
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = u8>) -> Self {
        self.kinds = kinds.into_iter().collect();
        self
    }

    /// Sets the firing probability.
    pub fn with_prob(mut self, prob: f64) -> Self {
        self.prob = Some(prob);
        self
    }

    /// `true` if the rule's static match (window, selectors, kinds) covers
    /// the message — the probability coin is separate.
    fn matches(&self, round: Round, from: NodeId, to: NodeId, kind: u8) -> bool {
        self.window.contains(round)
            && self.from.matches(from)
            && self.to.matches(to)
            && (self.kinds.is_empty() || self.kinds.contains(&kind))
    }
}

/// A serde-round-trippable fault-injection plan: ordered rules applied at
/// the delivery boundary of the event engine and the frame boundary of the
/// loopback transport. The default plan is empty and injects nothing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The rules, in priority order (first match that fires wins).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The mixed plan the cross-engine twin pins and the faulted experiment
    /// runs share: every action kind at low probability, so one trace covers
    /// drop, delay, duplicate *and* mutate; drops start past round 2.
    pub fn mixed() -> Self {
        FaultPlan::new()
            .with_rule(
                FaultRule::every(FaultAction::Drop)
                    .with_prob(0.04)
                    .in_window(RoundWindow::starting_at(2)),
            )
            .with_rule(FaultRule::every(FaultAction::Delay { ticks: 1500 }).with_prob(0.05))
            .with_rule(FaultRule::every(FaultAction::Duplicate).with_prob(0.05))
            .with_rule(FaultRule::every(FaultAction::Mutate).with_prob(0.05))
    }

    /// `true` if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fault for message `seq` sent in `round` from `from` to
    /// `to` with kind tag `kind`, under master seed `seed`: the action of
    /// the rule that fires, or `None` when the message passes untouched.
    ///
    /// A pure function: the rules are scanned in order, each matching rule
    /// flips its private coin (word `idx` of `seq`'s coin hash — no shared
    /// stream; the hash's key is computed once, by the first coin), and the
    /// first rule whose coin fires decides. Hostile plans (empty,
    /// overlapping windows, all-match selectors) degrade to ordinary rule
    /// priority and can never panic.
    // The negated comparisons are deliberate: they send NaN probabilities
    // into the never-fires arm instead of the always-fires one.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn decide(
        &self,
        seed: u64,
        seq: u64,
        round: Round,
        from: NodeId,
        to: NodeId,
        kind: u8,
    ) -> Option<FaultAction> {
        // Hashed by the first coin flipped, shared by the later ones.
        let mut key = None;
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches(round, from, to, kind) {
                continue;
            }
            let prob = rule.fire_prob();
            // Written so NaN falls into the never-fires arm.
            if !(prob >= 1.0) {
                if !(prob > 0.0) {
                    continue;
                }
                let key = *key.get_or_insert_with(|| FateKey::new(seed, COIN_LABEL, seq));
                if unit_f64(key.word(idx as u64)) >= prob {
                    continue;
                }
            }
            return Some(rule.action);
        }
        None
    }

    /// The entropy word a [`FaultAdapter::mutate`] receives for message
    /// `seq`: a pure function of `(seed, seq)`, shared by both engines so a
    /// mutated payload is byte-identical across them.
    pub fn mutation_entropy(seed: u64, seq: u64) -> u64 {
        mix(&[seed, seq, FAULT_LABEL])
    }

    /// A compact label for tables and sweep axes, e.g. `f0` (empty) or
    /// `fd*l*` (one drop rule, one delay rule).
    pub fn label(&self) -> String {
        if self.rules.is_empty() {
            return "f0".to_string();
        }
        let mut label = "f".to_string();
        for rule in &self.rules {
            label.push(rule.action.letter());
            label.push_str(&rule.to.label());
        }
        label
    }
}

/// The engine-side bridge between the generic fault machinery and a concrete
/// protocol message type: plain function pointers, so the engines need no
/// extra trait bounds and the adapter is trivially `Copy`.
pub struct FaultAdapter<M> {
    /// Maps a message to the kind tag [`FaultRule::kinds`] matches against.
    pub kind_of: fn(&M) -> u8,
    /// Corrupts a payload in place using the given entropy word; returns
    /// `true` if anything changed. Must only touch payload claims — never
    /// anything that decides where or whether the message is delivered.
    pub mutate: fn(&mut M, u64) -> bool,
}

impl<M> Clone for FaultAdapter<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for FaultAdapter<M> {}

impl<M> std::fmt::Debug for FaultAdapter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultAdapter").finish_non_exhaustive()
    }
}

/// Whole-run counters of injected faults. Deliberately separate from
/// [`NetStats`](crate::NetStats) so existing serialized artifacts are
/// untouched by the fault layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages dropped by a fault rule.
    pub dropped: u64,
    /// Messages delayed by a fault rule.
    pub delayed: u64,
    /// Messages duplicated by a fault rule.
    pub duplicated: u64,
    /// Messages whose payload a fault rule mutated.
    pub mutated: u64,
}

impl FaultStats {
    /// Total number of injected faults.
    pub fn total(&self) -> u64 {
        self.dropped + self.delayed + self.duplicated + self.mutated
    }
}

/// One copy a send becomes on its way out, as
/// [`FaultInjector::copies`] numbers it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NumberedCopy<M> {
    /// The copy's sequence number.
    pub seq: u64,
    /// The fault the plan decided on this copy's number; `None` for a
    /// duplicate, which has no decision of its own.
    pub fault: Option<FaultAction>,
    /// The copy's own payload when a `Mutate` fault corrupted it; otherwise
    /// the copy carries the send's payload unchanged.
    pub mutated: Option<M>,
}

/// The fault state a delivery boundary carries: the installed plan and
/// message adapter, the run's seed, and the whole-run counters. The event
/// engine and the loopback transport each own one and turn every outgoing
/// send into its numbered copies through [`copies`](FaultInjector::copies) —
/// which is what makes one plan inject the same faults into the same
/// messages on both.
pub struct FaultInjector<M> {
    installed: Option<(FaultPlan, FaultAdapter<M>)>,
    seed: u64,
    stats: FaultStats,
    /// `stats` as of the end of the previous round.
    reported: FaultStats,
}

impl<M> FaultInjector<M> {
    /// An injector with no plan installed, over the run's master seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            installed: None,
            seed,
            stats: FaultStats::default(),
            reported: FaultStats::default(),
        }
    }

    /// Installs a plan and the protocol's message adapter.
    pub fn install(&mut self, plan: FaultPlan, adapter: FaultAdapter<M>) {
        self.installed = Some((plan, adapter));
    }

    /// Whether a plan is installed (an empty one too).
    pub(crate) fn is_installed(&self) -> bool {
        self.installed.is_some()
    }

    /// Whole-run counters of injected faults.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fault of the message about to take sequence number `seq`
    /// — a pure function of `(seed, seq)` and the plan — and counts it (a
    /// `Mutate` is counted by [`copies`](Self::copies), once it changed
    /// something). The payload is only read, for its kind tag.
    pub fn decide(
        &mut self,
        seq: u64,
        round: Round,
        from: NodeId,
        to: NodeId,
        payload: &M,
    ) -> Option<FaultAction> {
        let (plan, adapter) = self.installed.as_ref()?;
        let kind = (adapter.kind_of)(payload);
        let action = plan.decide(self.seed, seq, round, from, to, kind)?;
        match action {
            FaultAction::Drop => self.stats.dropped += 1,
            FaultAction::Delay { .. } => self.stats.delayed += 1,
            FaultAction::Duplicate => self.stats.duplicated += 1,
            FaultAction::Mutate => {}
        }
        Some(action)
    }

    /// The copies one send becomes, numbered from `*seq` on, which it
    /// advances past them: the twin contract's numbering rule, the same on
    /// both boundaries. The copy that takes `*seq` carries the plan's
    /// decision on that number and, under `Mutate`, its own payload,
    /// corrupted with the entropy of `(seed, seq)`. A `Duplicate` adds a
    /// second copy that takes the next number, with no decision of its own;
    /// it carries the send's payload. Every other copy of a shared payload
    /// goes on sharing it.
    pub fn copies(
        &mut self,
        seq: &mut u64,
        round: Round,
        from: NodeId,
        to: NodeId,
        payload: &M,
    ) -> impl Iterator<Item = NumberedCopy<M>>
    where
        M: Clone,
    {
        let first = *seq;
        let fault = self.decide(first, round, from, to, payload);
        let mut mutated = None;
        if let (Some(FaultAction::Mutate), Some((_, adapter))) = (fault, &self.installed) {
            let mut own = payload.clone();
            let entropy = FaultPlan::mutation_entropy(self.seed, first);
            self.stats.mutated += u64::from((adapter.mutate)(&mut own, entropy));
            mutated = Some(own);
        }
        *seq += 1 + u64::from(fault == Some(FaultAction::Duplicate));
        (first..*seq).map(move |seq| NumberedCopy {
            seq,
            fault: fault.filter(|_| seq == first),
            mutated: mutated.take(),
        })
    }

    /// Closes a round: reports what was injected since the previous call as
    /// the `proto.fault_*` counters. They only exist when a plan is
    /// installed, so fault-free runs keep their exact obs output.
    pub fn end_round(&mut self, obs: &tsa_obs::ObsHandle) {
        let before = std::mem::replace(&mut self.reported, self.stats);
        if obs.is_on() && self.installed.is_some() {
            let now = &self.stats;
            obs.add("proto.fault_dropped", now.dropped - before.dropped);
            obs.add("proto.fault_delayed", now.delayed - before.delayed);
            obs.add("proto.fault_duplicated", now.duplicated - before.duplicated);
            obs.add("proto.fault_mutated", now.mutated - before.mutated);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_all() -> FaultPlan {
        FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop))
    }

    #[test]
    fn the_empty_plan_passes_everything() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for seq in 0..64 {
            assert_eq!(plan.decide(7, seq, 3, NodeId(1), NodeId(2), 0), None);
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::every(FaultAction::Drop).kinds([2]))
            .with_rule(FaultRule::every(FaultAction::Mutate));
        assert_eq!(
            plan.decide(1, 0, 0, NodeId(0), NodeId(1), 2),
            Some(FaultAction::Drop),
            "kind 2 hits the drop rule first"
        );
        assert_eq!(
            plan.decide(1, 0, 0, NodeId(0), NodeId(1), 3),
            Some(FaultAction::Mutate),
            "other kinds fall through to the catch-all"
        );
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_seq() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::every(FaultAction::Drop).with_prob(0.5))
            .with_rule(FaultRule::every(FaultAction::Delay { ticks: 700 }).with_prob(0.5));
        let first: Vec<Option<FaultAction>> = (0..256)
            .map(|seq| plan.decide(42, seq, 5, NodeId(3), NodeId(4), 1))
            .collect();
        let second: Vec<Option<FaultAction>> = (0..256)
            .map(|seq| plan.decide(42, seq, 5, NodeId(3), NodeId(4), 1))
            .collect();
        assert_eq!(first, second, "same inputs, same decisions");
        assert!(
            first.contains(&Some(FaultAction::Drop))
                && first.contains(&Some(FaultAction::Delay { ticks: 700 }))
                && first.contains(&None),
            "a 0.5/0.5 two-rule plan exercises all three outcomes: {first:?}"
        );
        let other_seed: Vec<Option<FaultAction>> = (0..256)
            .map(|seq| plan.decide(43, seq, 5, NodeId(3), NodeId(4), 1))
            .collect();
        assert_ne!(first, other_seed, "the seed matters");
    }

    #[test]
    fn two_half_coins_fire_together_a_quarter_of_the_time() {
        // Kind 0 meets only rule 0, kind 1 only rule 1: one call per coin.
        let plan = FaultPlan::new()
            .with_rule(
                FaultRule::every(FaultAction::Drop)
                    .kinds([0])
                    .with_prob(0.5),
            )
            .with_rule(
                FaultRule::every(FaultAction::Duplicate)
                    .kinds([1])
                    .with_prob(0.5),
            );
        let fires = |seq, kind| {
            plan.decide(29, seq, 0, NodeId(0), NodeId(1), kind)
                .is_some()
        };
        let n = 1u64 << 16;
        let both = (0..n).filter(|&seq| fires(seq, 0) && fires(seq, 1)).count() as f64;
        let (mean, sigma) = (n as f64 * 0.25, (n as f64 * 0.25 * 0.75).sqrt());
        assert!(
            (both - mean).abs() < 5.0 * sigma,
            "{both} of {n} fired together"
        );
    }

    #[test]
    fn the_mixed_plan_decisions_are_pinned() {
        // One letter per sequence number, `.` for no fault: a change here
        // moves every recorded artifact whose run flips a fault coin.
        let decisions: String = (0..64)
            .map(|seq| {
                FaultPlan::mixed()
                    .decide(29, seq, 2, NodeId(0), NodeId(1), 0)
                    .map_or('.', |action| action.letter())
            })
            .collect();
        let known = "u.u.....m....mm..u.......ll.......u..d....lu...mm....m.........d";
        assert_eq!(decisions, known);
    }

    #[test]
    fn selectors_and_windows_restrict_the_match() {
        let plan = FaultPlan::new().with_rule(
            FaultRule::every(FaultAction::Drop)
                .in_window(RoundWindow::between(10, 20))
                .from(NodeSelector::Id { id: 5 })
                .to(NodeSelector::Region {
                    assign: RegionAssign::halves(8),
                    region: 0,
                }),
        );
        let hit = plan.decide(1, 0, 15, NodeId(5), NodeId(3), 0);
        assert_eq!(hit, Some(FaultAction::Drop));
        assert_eq!(
            plan.decide(1, 0, 9, NodeId(5), NodeId(3), 0),
            None,
            "before the window"
        );
        assert_eq!(
            plan.decide(1, 0, 20, NodeId(5), NodeId(3), 0),
            None,
            "the window end is exclusive"
        );
        assert_eq!(
            plan.decide(1, 0, 15, NodeId(6), NodeId(3), 0),
            None,
            "wrong sender"
        );
        assert_eq!(
            plan.decide(1, 0, 15, NodeId(5), NodeId(9), 0),
            None,
            "receiver in the wrong region"
        );
    }

    #[test]
    fn degenerate_probabilities_never_panic() {
        for prob in [0.0, -1.0, 2.0, f64::NAN] {
            let plan =
                FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop).with_prob(prob));
            // NaN and non-positive probabilities never fire; ≥ 1 always does.
            let d = plan.decide(1, 0, 0, NodeId(0), NodeId(1), 0);
            if prob >= 1.0 {
                assert_eq!(d, Some(FaultAction::Drop));
            } else {
                assert_eq!(d, None);
            }
        }
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = FaultPlan::new()
            .with_rule(
                FaultRule::every(FaultAction::Delay { ticks: 1500 })
                    .in_window(RoundWindow::starting_at(4))
                    .kinds([2, 3])
                    .with_prob(0.25),
            )
            .with_rule(FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 7 }));
        let json = serde_json::to_string(&plan).expect("plan serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan deserializes");
        assert_eq!(plan, back);
        let json2 = serde_json::to_string(&back).expect("plan re-serializes");
        assert_eq!(json, json2, "serialization is byte-stable");
    }

    #[test]
    fn default_fields_are_skipped_in_json() {
        let plan = drop_all();
        let json = serde_json::to_string(&plan).expect("plan serializes");
        assert_eq!(
            json, r#"{"rules":[{"action":"Drop"}]}"#,
            "every defaulted field stays off the wire"
        );
        let empty = serde_json::to_string(&FaultPlan::default()).expect("serializes");
        assert_eq!(empty, "{}", "the empty plan is an empty object");
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(FaultPlan::default().label(), "f0");
        assert_eq!(drop_all().label(), "fd*");
        let plan = FaultPlan::new()
            .with_rule(FaultRule::every(FaultAction::Delay { ticks: 5 }))
            .with_rule(FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 3 }));
        assert_eq!(plan.label(), "fl*m#3");
        assert_eq!(RoundWindow::all().label(), "");
        assert_eq!(RoundWindow::starting_at(8).label(), "@8..");
        assert_eq!(RoundWindow::between(8, 20).label(), "@8..20");
    }

    #[test]
    fn mutation_entropy_is_stable_and_seq_sensitive() {
        assert_eq!(
            FaultPlan::mutation_entropy(9, 100),
            FaultPlan::mutation_entropy(9, 100)
        );
        assert_ne!(
            FaultPlan::mutation_entropy(9, 100),
            FaultPlan::mutation_entropy(9, 101)
        );
    }
}
