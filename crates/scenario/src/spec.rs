//! The declarative description of a scenario: what kind of experiment, on how
//! many nodes, under which churn rules, against which adversary.
//!
//! Every spec type is plain serde-serializable data, so a [`ScenarioSpec`]
//! embedded in a `ScenarioOutcome` fully documents how a result was produced.

use serde::{Deserialize, Serialize};
use tsa_core::{ByzantineSpec, MaintenanceParams};
use tsa_event::{ExecutionModel, FaultPlan};
use tsa_sim::{ChurnRules, Lateness, MetricsMode};

/// Which experiment a scenario executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// The paper's maintained Linearized DeBruijn Swarm: the full
    /// message-level protocol running inside the simulator.
    MaintainedLds,
    /// A static comparison overlay attacked with a one-shot churn burst
    /// (the Table-1 trials).
    Baseline(BaselineKind),
    /// `A_ROUTING` over a routable series of ideal LDS snapshots.
    Routing,
    /// `A_SAMPLING` uniformity over a static LDS snapshot.
    Sampling,
}

/// The static comparison overlays of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Union of `d` random rings (Drees, Gmyr & Scheideler).
    HdGraph,
    /// Wrapped butterfly of `Θ(log n)` committees (Augustine &
    /// Sivasubramaniam).
    Spartan,
    /// Chord with swarms (Fiat, Saia & Young).
    ChordSwarm,
    /// A Linearized DeBruijn Swarm that is never reconfigured.
    StaticLds,
}

impl BaselineKind {
    /// A short human-readable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::HdGraph => "H_d graph",
            BaselineKind::Spartan => "SPARTAN butterfly",
            BaselineKind::ChordSwarm => "Chord with swarms",
            BaselineKind::StaticLds => "LDS, never reconfigured",
        }
    }
}

/// How much churn the engine lets the adversary spend, and under which join
/// rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnSpec {
    /// No churn budget at all (`max_events = 0`); with the default
    /// [`AdversarySpec::Null`] this reproduces the old
    /// `MaintenanceHarness::without_churn` behaviour.
    None,
    /// The paper's headline rules: `αn` events with `α = 1/16` per
    /// `4λ + 14`-round window, joins via ≥2-round-old bootstrap nodes.
    Paper,
    /// `max_events` churn events per paper churn window (the harsher budgets
    /// the stress experiments use, e.g. `n/4`).
    Budget {
        /// Maximum churn events per window.
        max_events: usize,
    },
    /// Explicit events-per-window control.
    BudgetWindow {
        /// Maximum churn events per window.
        max_events: usize,
        /// The window length in rounds.
        window: u64,
    },
    /// `n · num / den` churn events per paper churn window, resolved against
    /// the scenario's own `n`. This is the spec a parameter sweep wants: one
    /// churn axis value ("a quarter of the network per window") that scales
    /// with the `n` axis instead of baking in an absolute budget.
    Fraction {
        /// Numerator of the fraction of `n`.
        num: usize,
        /// Denominator of the fraction of `n` (must be nonzero).
        den: usize,
    },
    /// Fully explicit engine rules (impossibility experiments, weakened join
    /// rules, unconstrained adversaries).
    Custom {
        /// The rules handed verbatim to the engine.
        rules: ChurnRules,
    },
}

impl ChurnSpec {
    /// No churn budget.
    pub fn none() -> Self {
        ChurnSpec::None
    }

    /// The paper's headline churn rules.
    pub fn paper() -> Self {
        ChurnSpec::Paper
    }

    /// `max_events` churn events per paper churn window.
    pub fn budget(max_events: usize) -> Self {
        ChurnSpec::Budget { max_events }
    }

    /// Fully explicit engine rules.
    pub fn custom(rules: ChurnRules) -> Self {
        ChurnSpec::Custom { rules }
    }

    /// `n · num / den` churn events per paper churn window (`n`-relative).
    pub fn fraction(num: usize, den: usize) -> Self {
        assert!(den > 0, "fraction denominator must be nonzero");
        ChurnSpec::Fraction { num, den }
    }

    /// A short human-readable label for sweep tables.
    pub fn label(&self) -> String {
        match *self {
            ChurnSpec::None => "none".to_string(),
            ChurnSpec::Paper => "paper".to_string(),
            ChurnSpec::Budget { max_events } => format!("{max_events}/window"),
            ChurnSpec::BudgetWindow { max_events, window } => {
                format!("{max_events}/{window}r")
            }
            ChurnSpec::Fraction { num, den } => {
                if num == 1 {
                    format!("n/{den}")
                } else {
                    format!("{num}n/{den}")
                }
            }
            ChurnSpec::Custom { .. } => "custom".to_string(),
        }
    }

    /// Resolves the spec into concrete engine rules for `params`.
    pub fn rules_for(&self, params: &MaintenanceParams) -> ChurnRules {
        match *self {
            ChurnSpec::None => ChurnRules {
                max_events: Some(0),
                window: params.overlay.churn_window(),
                bootstrap_rounds: params.bootstrap_rounds(),
                ..ChurnRules::default()
            },
            ChurnSpec::Paper => params.paper_churn_rules(),
            ChurnSpec::Budget { max_events } => ChurnRules {
                max_events: Some(max_events),
                window: params.overlay.churn_window(),
                bootstrap_rounds: params.bootstrap_rounds(),
                ..ChurnRules::default()
            },
            ChurnSpec::BudgetWindow { max_events, window } => ChurnRules {
                max_events: Some(max_events),
                window,
                bootstrap_rounds: params.bootstrap_rounds(),
                ..ChurnRules::default()
            },
            ChurnSpec::Fraction { num, den } => ChurnRules {
                max_events: Some(fraction_of(params.overlay.n, num, den)),
                window: params.overlay.churn_window(),
                bootstrap_rounds: params.bootstrap_rounds(),
                ..ChurnRules::default()
            },
            ChurnSpec::Custom { rules } => rules,
        }
    }

    /// The one-shot removal budget a baseline trial spends (the maintained
    /// protocol spreads the same budget over a churn window instead). An
    /// unconstrained custom spec (`max_events = None`) maps to `n`, i.e. the
    /// whole network (the trial itself caps removals at `n - 1`).
    pub fn burst_budget(&self, n: usize) -> usize {
        match *self {
            ChurnSpec::None => 0,
            ChurnSpec::Paper => n / 16,
            ChurnSpec::Budget { max_events } | ChurnSpec::BudgetWindow { max_events, .. } => {
                max_events
            }
            ChurnSpec::Fraction { num, den } => fraction_of(n, num, den),
            ChurnSpec::Custom { rules } => rules.max_events.unwrap_or(n),
        }
    }
}

/// `n · num / den` (a zero `den` counts as 1), exact in 128 bits and clamped
/// to `usize::MAX`: a deserialized fraction can never overflow the product.
fn fraction_of(n: usize, num: usize, den: usize) -> usize {
    let exact = n as u128 * num as u128 / den.max(1) as u128;
    usize::try_from(exact).unwrap_or(usize::MAX)
}

/// Which attack strategy drives the churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversarySpec {
    /// No adversary: nothing ever leaves or joins.
    Null,
    /// Oblivious uniform churn (the control group).
    Random {
        /// Churn events attempted per round.
        per_round: usize,
        /// Seed of the adversary's own coin flips.
        seed: u64,
    },
    /// The strongest topology-late attack: wipe out observed swarms.
    Targeted {
        /// Departures attempted per round.
        per_round: usize,
        /// Seed of the adversary's own coin flips.
        seed: u64,
    },
    /// Remove the highest-degree nodes the stale topology view shows.
    Degree {
        /// Departures attempted per round.
        per_round: usize,
        /// Seed of the adversary's own coin flips.
        seed: u64,
    },
}

impl AdversarySpec {
    /// No adversary.
    pub fn null() -> Self {
        AdversarySpec::Null
    }

    /// Oblivious uniform churn.
    pub fn random(per_round: usize, seed: u64) -> Self {
        AdversarySpec::Random { per_round, seed }
    }

    /// Targeted-swarm churn.
    pub fn targeted(per_round: usize, seed: u64) -> Self {
        AdversarySpec::Targeted { per_round, seed }
    }

    /// Degree-attack churn.
    pub fn degree(per_round: usize, seed: u64) -> Self {
        AdversarySpec::Degree { per_round, seed }
    }

    /// A short human-readable label matching `Adversary::name`.
    pub fn label(&self) -> &'static str {
        match self {
            AdversarySpec::Null => "none",
            AdversarySpec::Random { .. } => "random-churn",
            AdversarySpec::Targeted { .. } => "targeted-swarm",
            AdversarySpec::Degree { .. } => "degree-attack",
        }
    }
}

/// The complete declarative description of one scenario.
///
/// `Clone` but not `Copy`: a fault plan is a heap-backed rule list. Every
/// other field is plain data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// What kind of experiment runs.
    pub kind: ScenarioKind,
    /// The network-size lower bound `n`.
    pub n: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Override of the robustness parameter `c`.
    pub c: Option<f64>,
    /// Override of `δ` (fresh-node connects per round).
    pub delta: Option<usize>,
    /// Override of `τ` (sampling tokens per round).
    pub tau: Option<usize>,
    /// Override of the replication factor `r`.
    pub replication: Option<usize>,
    /// The churn budget and join rules.
    pub churn: ChurnSpec,
    /// The attack strategy.
    pub adversary: AdversarySpec,
    /// Override of the adversary lateness (defaults to the paper's
    /// `(2, 2λ+7)`).
    pub lateness: Option<Lateness>,
    /// Which execution engine runs a maintained scenario: the synchronous
    /// round model (default) or the virtual-time event engine under a
    /// latency/jitter/loss model. One-shot kinds ignore it. Serialized only
    /// when asynchronous, so every pre-existing artifact (and every
    /// synchronous spec) keeps its exact serialized form.
    #[serde(default, skip_serializing_if = "ExecutionModel::is_rounds")]
    pub execution: ExecutionModel,
    /// How the engine retains per-round metrics for a maintained scenario:
    /// the full per-round history (default), or only the O(1) running
    /// [`MetricsSummary`](tsa_sim::MetricsSummary) digest, which both modes
    /// fold the same way. One-shot kinds ignore it. Serialized only
    /// when streaming, so every pre-existing artifact (and every full-mode
    /// spec) keeps its exact serialized form.
    #[serde(default, skip_serializing_if = "MetricsMode::is_full")]
    pub metrics: MetricsMode,
    /// The fault-injection plan applied at the message boundary of a
    /// maintained scenario. Faults act where messages are delivered, so a
    /// plan forces the event engine even under the default synchronous
    /// execution (a zero-delay model otherwise reproduces the round engine).
    /// One-shot kinds ignore it. Serialized only when present, so every
    /// pre-existing artifact keeps its exact serialized form.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultPlan>,
    /// The byzantine role assignment of a maintained scenario: which id
    /// slice misbehaves, and how. Flows into
    /// [`MaintenanceParams::byzantine`], so all three engines resolve it
    /// through the shared harness factory. Serialized only when present.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub byzantine: Option<ByzantineSpec>,
    /// Whether to run the churn-free bootstrap phase before the measured
    /// rounds (maintained scenarios only).
    pub bootstrap: bool,
    /// Messages per node in a routing workload.
    pub messages_per_node: usize,
    /// Per-step holder failure probability in a routing workload.
    pub holder_failure: f64,
    /// Attempts in a sampling workload.
    pub attempts: usize,
    /// Seed of the workload generator (defaults to a value derived from
    /// `seed`).
    pub workload_seed: Option<u64>,
}

impl ScenarioSpec {
    /// A fresh spec of the given kind over `n` nodes, everything else at the
    /// paper's defaults.
    pub fn new(kind: ScenarioKind, n: usize) -> Self {
        ScenarioSpec {
            kind,
            n,
            seed: 0xDEC0DE,
            c: None,
            delta: None,
            tau: None,
            replication: None,
            churn: ChurnSpec::Paper,
            adversary: AdversarySpec::Null,
            lateness: None,
            execution: ExecutionModel::Rounds,
            metrics: MetricsMode::Full,
            faults: None,
            byzantine: None,
            bootstrap: true,
            messages_per_node: 1,
            holder_failure: 0.0,
            attempts: 100_000,
            workload_seed: None,
        }
    }

    /// The maintenance parameters this spec resolves to, built in the
    /// canonical order (`new(n)`, then `c`, `δ`, `τ`, `r`) so results are
    /// byte-identical to hand-built parameter chains.
    pub fn maintenance_params(&self) -> MaintenanceParams {
        let mut params = MaintenanceParams::new(self.n);
        if let Some(c) = self.c {
            params = params.with_c(c);
        }
        if let Some(delta) = self.delta {
            params = params.with_delta(delta);
        }
        if let Some(tau) = self.tau {
            params = params.with_tau(tau);
        }
        if let Some(r) = self.replication {
            params = params.with_replication(r);
        }
        if let Some(spec) = self.byzantine {
            params = params.with_byzantine(spec);
        }
        params
    }

    /// The overlay parameters for structure-only scenarios (baselines,
    /// routing, sampling): `c` defaults to the overlay crate's default.
    pub fn overlay_params(&self) -> tsa_overlay::OverlayParams {
        match self.c {
            Some(c) => tsa_overlay::OverlayParams::new(self.n, c),
            None => tsa_overlay::OverlayParams::with_default_c(self.n),
        }
    }

    /// The workload seed, derived from the master seed when unset.
    pub fn workload_seed_or_default(&self) -> u64 {
        self.workload_seed
            .unwrap_or_else(|| self.seed.rotate_left(13) ^ 0x574F_524B)
    }

    /// Returns a copy with the master seed replaced — the hook sweep
    /// enumeration uses to stamp seed replicates onto one grid cell.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A short name for the experiment kind.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            ScenarioKind::MaintainedLds => "maintained",
            ScenarioKind::Baseline(kind) => kind.label(),
            ScenarioKind::Routing => "routing",
            ScenarioKind::Sampling => "sampling",
        }
    }

    /// A compact human-readable description of the axis point this spec sits
    /// at — every knob except the seeds. Two seed replicates of the same grid
    /// cell share this label, so sweeps group by it.
    pub fn axis_label(&self) -> String {
        let mut parts = vec![format!("{} n={}", self.kind_label(), self.n)];
        if let Some(c) = self.c {
            parts.push(format!("c={c}"));
        }
        if let Some(delta) = self.delta {
            parts.push(format!("δ={delta}"));
        }
        if let Some(tau) = self.tau {
            parts.push(format!("τ={tau}"));
        }
        if let Some(r) = self.replication {
            parts.push(format!("r={r}"));
        }
        match self.kind {
            ScenarioKind::MaintainedLds | ScenarioKind::Baseline(_) => {
                parts.push(format!("churn={}", self.churn.label()));
                parts.push(format!("adv={}", self.adversary.label()));
                if let Some(l) = self.lateness {
                    parts.push(format!("late=({},{})", l.topology, l.state));
                }
                // Synchronous execution is the default and adds nothing, so
                // pre-ExecutionModel labels are reproduced verbatim.
                if !self.execution.is_rounds() {
                    parts.push(format!("exec={}", self.execution.label()));
                }
                // Same rule for the metrics mode: the full history is the
                // default and adds nothing.
                if !self.metrics.is_full() {
                    parts.push("metrics=streaming".to_string());
                }
                // Fault-free, all-honest runs are the default and add
                // nothing, so pre-fault labels are reproduced verbatim.
                if let Some(plan) = &self.faults {
                    parts.push(format!("faults={}", plan.label()));
                }
                if let Some(byz) = &self.byzantine {
                    // `ByzantineSpec::label` is already `byz`-prefixed.
                    parts.push(byz.label());
                }
            }
            ScenarioKind::Routing => {
                parts.push(format!("k={}", self.messages_per_node));
                if self.holder_failure > 0.0 {
                    parts.push(format!("fail={}", self.holder_failure));
                }
            }
            ScenarioKind::Sampling => {
                parts.push(format!("attempts={}", self.attempts));
            }
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_compose_in_canonical_order() {
        let mut spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        spec.c = Some(1.5);
        spec.tau = Some(4);
        spec.replication = Some(2);
        let via_spec = spec.maintenance_params();
        let by_hand = MaintenanceParams::new(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2);
        assert_eq!(via_spec, by_hand);
    }

    #[test]
    fn churn_specs_resolve_to_engine_rules() {
        let params = MaintenanceParams::new(64);
        assert_eq!(
            ChurnSpec::paper().rules_for(&params),
            params.paper_churn_rules()
        );
        let budget = ChurnSpec::budget(16).rules_for(&params);
        assert_eq!(budget.max_events, Some(16));
        assert_eq!(budget.window, params.overlay.churn_window());
        assert_eq!(ChurnSpec::none().rules_for(&params).max_events, Some(0));
        let custom = ChurnRules::default().with_weak_join_rule();
        assert_eq!(ChurnSpec::custom(custom).rules_for(&params), custom);
    }

    #[test]
    fn burst_budgets_match_the_window_budgets() {
        assert_eq!(ChurnSpec::budget(64).burst_budget(256), 64);
        assert_eq!(ChurnSpec::paper().burst_budget(256), 16);
        assert_eq!(ChurnSpec::none().burst_budget(256), 0);
        // An unconstrained custom spec means "the whole network".
        let unconstrained = ChurnRules {
            max_events: None,
            ..ChurnRules::default()
        };
        assert_eq!(ChurnSpec::custom(unconstrained).burst_budget(256), 256);
    }

    #[test]
    fn fraction_budgets_resolve_against_n() {
        let params = MaintenanceParams::new(64);
        let rules = ChurnSpec::fraction(1, 4).rules_for(&params);
        assert_eq!(rules.max_events, Some(16));
        assert_eq!(rules.window, params.overlay.churn_window());
        assert_eq!(
            rules,
            ChurnSpec::budget(16).rules_for(&params),
            "n/4 at n = 64 is exactly budget(16)"
        );
        assert_eq!(ChurnSpec::fraction(1, 4).burst_budget(256), 64);
        assert_eq!(ChurnSpec::fraction(3, 8).burst_budget(64), 24);
        assert_eq!(ChurnSpec::fraction(1, 4).label(), "n/4");
        assert_eq!(ChurnSpec::fraction(3, 8).label(), "3n/8");
    }

    #[test]
    fn huge_fractions_clamp_instead_of_overflowing() {
        let params = MaintenanceParams::new(64);
        let half_of_max = ChurnSpec::Fraction {
            num: usize::MAX,
            den: 2,
        };
        // 64 · usize::MAX / 2 = 32 · usize::MAX: past every usize.
        assert_eq!(half_of_max.rules_for(&params).max_events, Some(usize::MAX));
        assert_eq!(half_of_max.burst_budget(64), usize::MAX);
        // The product overflows 64 bits, the quotient does not.
        let exact = ChurnSpec::Fraction {
            num: usize::MAX,
            den: usize::MAX,
        };
        assert_eq!(exact.burst_budget(64), 64);
        assert_eq!(ChurnSpec::Fraction { num: 1, den: 0 }.burst_budget(64), 64);
    }

    #[test]
    fn axis_labels_describe_the_cell_without_seeds() {
        let spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 96);
        let mut replicate = spec;
        replicate.c = Some(1.5);
        let a = replicate.clone().with_seed(1).axis_label();
        let b = replicate.with_seed(2).axis_label();
        assert_eq!(a, b, "seed replicates share the axis label");
        assert!(a.contains("maintained n=96"), "{a}");
        assert!(a.contains("c=1.5"), "{a}");
        assert!(a.contains("churn=paper"), "{a}");
        let mut routing = ScenarioSpec::new(ScenarioKind::Routing, 128);
        routing.holder_failure = 0.25;
        assert!(routing.axis_label().contains("k=1"));
        assert!(routing.axis_label().contains("fail=0.25"));
    }

    #[test]
    fn specs_serialize_and_deserialize() {
        let mut spec = ScenarioSpec::new(ScenarioKind::Baseline(BaselineKind::Spartan), 128);
        spec.adversary = AdversarySpec::targeted(2, 7);
        spec.churn = ChurnSpec::budget(32);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn full_metrics_specs_never_serialize_the_metrics_field() {
        // Same byte-compatibility contract as `execution`: a Full-mode spec
        // serializes exactly as it did before MetricsMode existed, and JSON
        // without the field deserializes to Full — so every committed
        // BENCH_*.json and every old sweep shard round-trips unchanged.
        let spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 64);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("metrics"), "Full must be skipped: {json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics, MetricsMode::Full);
        assert_eq!(back, spec);
        assert!(
            !spec.axis_label().contains("metrics="),
            "{}",
            spec.axis_label()
        );

        let mut streaming = spec;
        streaming.metrics = MetricsMode::Streaming;
        let json = serde_json::to_string(&streaming).unwrap();
        assert!(json.contains("\"metrics\":\"Streaming\""), "{json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, streaming);
        assert!(
            streaming.axis_label().contains("metrics=streaming"),
            "{}",
            streaming.axis_label()
        );
    }

    #[test]
    fn fault_free_specs_never_serialize_the_fault_fields() {
        // The byte-compatibility contract once more: a spec without faults
        // or byzantine nodes serializes exactly as it did before either
        // existed, and JSON without the fields deserializes to None — so
        // every committed BENCH_*.json round-trips unchanged.
        use tsa_core::MisbehaviorKind;
        use tsa_event::{FaultAction, FaultRule};
        let spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 64);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("faults"), "None must be skipped: {json}");
        assert!(!json.contains("byzantine"), "None must be skipped: {json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, None);
        assert_eq!(back.byzantine, None);
        assert_eq!(back, spec);
        assert!(!spec.axis_label().contains("faults="));
        assert!(!spec.axis_label().contains("byz"));

        let mut faulty = spec;
        faulty.faults = Some(FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop)));
        faulty.byzantine = Some(ByzantineSpec::fraction(
            1,
            8,
            MisbehaviorKind::SelectiveForward,
        ));
        let json = serde_json::to_string(&faulty).unwrap();
        assert!(json.contains("\"faults\""), "{json}");
        assert!(json.contains("\"byzantine\""), "{json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, faulty);
        let label = faulty.axis_label();
        assert!(label.contains("faults=fd*"), "{label}");
        assert!(label.contains("byz1/8-selfwd"), "{label}");
    }

    #[test]
    fn byzantine_specs_resolve_into_maintenance_params() {
        use tsa_core::MisbehaviorKind;
        let mut spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 64);
        spec.byzantine = Some(ByzantineSpec::fraction(1, 4, MisbehaviorKind::BogusReplies));
        let params = spec.maintenance_params();
        assert_eq!(params.byzantine, spec.byzantine);
        // ... and an all-honest spec resolves to all-honest params.
        assert_eq!(
            ScenarioSpec::new(ScenarioKind::MaintainedLds, 64)
                .maintenance_params()
                .byzantine,
            None
        );
    }

    #[test]
    fn synchronous_specs_never_serialize_the_execution_field() {
        // The byte-compatibility contract: a Rounds spec serializes exactly
        // as it did before ExecutionModel existed, and JSON without the
        // field deserializes to Rounds — so every committed BENCH_*.json and
        // every old sweep shard round-trips unchanged.
        let spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 64);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            !json.contains("execution"),
            "Rounds must be skipped: {json}"
        );
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.execution, ExecutionModel::Rounds);
        assert_eq!(back, spec);
    }

    #[test]
    fn async_specs_round_trip_with_their_network_model() {
        use tsa_event::LatencyModel;
        let mut spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 64);
        spec.execution = ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800))
            .with_jitter(100)
            .with_loss(0.01);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("execution"), "{json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let label = spec.axis_label();
        assert!(
            label.contains("exec=async(u200-1800+j100-l0.01)"),
            "{label}"
        );
        // ... and the synchronous label is unchanged from before.
        let sync_label = ScenarioSpec::new(ScenarioKind::MaintainedLds, 64).axis_label();
        assert!(!sync_label.contains("exec="), "{sync_label}");
    }
}
