//! The declarative grammar of a parameter sweep and its enumeration into
//! concrete scenario cells.
//!
//! A [`SweepSpec`] is plain serde data, exactly like
//! [`ScenarioSpec`]: a base scenario plus a set of
//! *axes* (each a list of values to sweep) and a seed range of replicates.
//! [`SweepSpec::enumerate`] expands the cartesian product of all non-empty
//! axes × the seed range into [`SweepCell`]s, each carrying the fully
//! resolved `ScenarioSpec` and round count — so running a cell is *exactly*
//! `Scenario::from_spec(cell.spec).run(cell.rounds)`, bit-identical to a
//! standalone run at the same seed.

use serde::{Deserialize, Serialize};
use tsa_scenario::{
    AdversarySpec, ByzantineSpec, ChurnSpec, ExecutionModel, FaultPlan, ScenarioKind, ScenarioSpec,
    Topology,
};
use tsa_sim::Lateness;

/// A contiguous range of master seeds: the replicates of every grid cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedRange {
    /// First master seed.
    pub start: u64,
    /// Number of replicates (at least 1 is enumerated even when 0).
    pub count: u64,
}

impl SeedRange {
    /// `count` replicates starting at `start`.
    pub fn new(start: u64, count: u64) -> Self {
        SeedRange { start, count }
    }

    /// The seeds of this range, in order.
    pub fn seeds(&self) -> impl Iterator<Item = u64> {
        let start = self.start;
        (0..self.count.max(1)).map(move |i| start.wrapping_add(i))
    }

    /// Number of replicates enumerated (never 0).
    pub fn len(&self) -> usize {
        self.count.max(1) as usize
    }

    /// Always `false`: a range enumerates at least one seed.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// How many measured rounds each cell runs (after the optional bootstrap).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundsSpec {
    /// A fixed number of rounds (one-shot kinds ignore it).
    Fixed(u64),
    /// `m · maturity_age(n)` rounds, resolved per cell against the cell's own
    /// maintenance parameters — the natural unit for maintained scenarios,
    /// scaling with the `n` axis. Saturates at `u64::MAX` rounds.
    MaturityAges(u64),
}

impl RoundsSpec {
    /// Resolves the measured round count for `spec`.
    pub fn resolve(&self, spec: &ScenarioSpec) -> u64 {
        match *self {
            RoundsSpec::Fixed(rounds) => rounds,
            RoundsSpec::MaturityAges(m) => {
                m.saturating_mul(spec.maintenance_params().maturity_age())
            }
        }
    }
}

/// One concrete cell of an enumerated sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Position in the enumeration order (stable across runs; the shard
    /// checkpoint key).
    pub index: usize,
    /// The fully resolved scenario.
    pub spec: ScenarioSpec,
    /// Measured rounds the cell runs.
    pub rounds: u64,
}

/// A declarative parameter sweep: a base scenario, the axes to sweep, and a
/// seed range of replicates.
///
/// Every `Vec` field is an axis: empty means "keep the base spec's value",
/// non-empty means "take the cartesian product over these values". The
/// enumeration order is fixed and documented (kind, n, c, δ, τ, r, churn,
/// adversary, lateness, execution model, topology, fault plan, byzantine
/// role, k, holder failure, attempts, then seed innermost), so cell indices
/// are stable for shard checkpoints.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Name of the sweep (shard file stem, table title).
    pub name: String,
    /// The template every cell starts from.
    pub base: ScenarioSpec,
    /// Measured rounds per cell.
    pub rounds: RoundsSpec,
    /// Seed replicates of every grid cell.
    pub seeds: SeedRange,
    /// Axis over the experiment kind (e.g. the four Table-1 baselines).
    pub kind: Vec<ScenarioKind>,
    /// Axis over the network size `n`.
    pub n: Vec<usize>,
    /// Axis over the robustness parameter `c`.
    pub c: Vec<f64>,
    /// Axis over `δ` (fresh-node connects per round).
    pub delta: Vec<usize>,
    /// Axis over `τ` (sampling tokens per round).
    pub tau: Vec<usize>,
    /// Axis over the replication factor `r`.
    pub replication: Vec<usize>,
    /// Axis over the churn budget / join rules.
    pub churn: Vec<ChurnSpec>,
    /// Axis over the attack strategy.
    pub adversary: Vec<AdversarySpec>,
    /// Axis over the adversary lateness.
    pub lateness: Vec<Lateness>,
    /// Axis over the execution model (round engine vs event engine under
    /// latency/jitter/loss). Absent in pre-`tsa-event` sweep specs, so it
    /// defaults to empty ("keep the base spec's engine") and is skipped when
    /// empty, keeping old spec JSON byte-identical.
    ///
    /// Like the churn/adversary/lateness axes, this axis is meaningful for
    /// maintained cells only: one-shot kinds ignore the execution model, so
    /// crossing it with them re-runs identical cells that fold into one
    /// aggregate group (their axis labels omit `exec=`).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub execution: Vec<ExecutionModel>,
    /// Axis over the link topology (a global model, or two halves joined by
    /// a possibly scheduled bridge). Each value replaces the cell's
    /// execution model with [`ExecutionModel::topo`] — a synchronous base
    /// switches to the event engine under that topology. Absent in
    /// pre-topology sweep specs, so it defaults to empty ("keep the cell's
    /// network as is") and is skipped when empty, keeping old spec JSON
    /// byte-identical. Meaningful for maintained cells only, exactly like
    /// the execution axis.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub topology: Vec<Topology>,
    /// Axis over the fault-injection plan applied at the message boundary.
    /// Each plan routes its cell onto the event engine (see
    /// [`ScenarioSpec::faults`]). Absent in pre-fault sweep specs, so it
    /// defaults to empty ("keep the base spec's plan") and is skipped when
    /// empty, keeping old spec JSON byte-identical. Meaningful for
    /// maintained cells only, exactly like the execution axis.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<FaultPlan>,
    /// Axis over the byzantine role assignment (which id slice misbehaves,
    /// and how). Absent in pre-byzantine sweep specs, so it defaults to
    /// empty and is skipped when empty, keeping old spec JSON
    /// byte-identical. Meaningful for maintained cells only.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub byzantine: Vec<ByzantineSpec>,
    /// Axis over messages per node in routing workloads.
    pub messages_per_node: Vec<usize>,
    /// Axis over the per-step holder failure probability.
    pub holder_failure: Vec<f64>,
    /// Axis over sampling attempts.
    pub attempts: Vec<usize>,
    /// Upper bound on worker threads for this sweep (`None` = no bound
    /// beyond `TSA_THREADS` / the machine). CI specs pin this to keep small
    /// boxes responsive.
    pub max_parallel: Option<usize>,
}

impl SweepSpec {
    /// A sweep named `name` over the single cell described by `base`, with
    /// one seed replicate (the base's own seed) and no axes. Fill in axes by
    /// mutating the public fields or through the `over_*` builders.
    pub fn new(name: &str, base: ScenarioSpec) -> Self {
        SweepSpec {
            name: name.to_string(),
            rounds: RoundsSpec::Fixed(0),
            seeds: SeedRange::new(base.seed, 1),
            base,
            kind: Vec::new(),
            n: Vec::new(),
            c: Vec::new(),
            delta: Vec::new(),
            tau: Vec::new(),
            replication: Vec::new(),
            churn: Vec::new(),
            adversary: Vec::new(),
            lateness: Vec::new(),
            execution: Vec::new(),
            topology: Vec::new(),
            faults: Vec::new(),
            byzantine: Vec::new(),
            messages_per_node: Vec::new(),
            holder_failure: Vec::new(),
            attempts: Vec::new(),
            max_parallel: None,
        }
    }

    /// Sets the per-cell round count.
    pub fn rounds(mut self, rounds: RoundsSpec) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the seed range: `count` replicates starting at `start`.
    pub fn seeds(mut self, start: u64, count: u64) -> Self {
        self.seeds = SeedRange::new(start, count);
        self
    }

    /// Sweeps the experiment kind.
    pub fn over_kinds(mut self, kinds: impl IntoIterator<Item = ScenarioKind>) -> Self {
        self.kind = kinds.into_iter().collect();
        self
    }

    /// Sweeps the network size `n`.
    pub fn over_n(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.n = ns.into_iter().collect();
        self
    }

    /// Sweeps the robustness parameter `c`.
    pub fn over_c(mut self, cs: impl IntoIterator<Item = f64>) -> Self {
        self.c = cs.into_iter().collect();
        self
    }

    /// Sweeps the replication factor `r`.
    pub fn over_replication(mut self, rs: impl IntoIterator<Item = usize>) -> Self {
        self.replication = rs.into_iter().collect();
        self
    }

    /// Sweeps the churn budget.
    pub fn over_churn(mut self, churns: impl IntoIterator<Item = ChurnSpec>) -> Self {
        self.churn = churns.into_iter().collect();
        self
    }

    /// Sweeps the attack strategy.
    pub fn over_adversaries(mut self, advs: impl IntoIterator<Item = AdversarySpec>) -> Self {
        self.adversary = advs.into_iter().collect();
        self
    }

    /// Sweeps the execution model (synchronous rounds vs asynchronous
    /// latency regimes). Meaningful for maintained scenarios; one-shot kinds
    /// ignore the execution model (see the field docs).
    pub fn over_execution(mut self, models: impl IntoIterator<Item = ExecutionModel>) -> Self {
        self.execution = models.into_iter().collect();
        self
    }

    /// Sweeps the link topology (two halves joined by a slow/lossy/scheduled
    /// bridge), which replaces each cell's execution model. Meaningful for
    /// maintained scenarios only (see the field docs).
    pub fn over_topology(mut self, topologies: impl IntoIterator<Item = Topology>) -> Self {
        self.topology = topologies.into_iter().collect();
        self
    }

    /// Sweeps the fault-injection plan applied at the message boundary.
    /// Meaningful for maintained scenarios only (see the field docs).
    pub fn over_faults(mut self, plans: impl IntoIterator<Item = FaultPlan>) -> Self {
        self.faults = plans.into_iter().collect();
        self
    }

    /// Sweeps the byzantine role assignment. Meaningful for maintained
    /// scenarios only (see the field docs).
    pub fn over_byzantine(mut self, specs: impl IntoIterator<Item = ByzantineSpec>) -> Self {
        self.byzantine = specs.into_iter().collect();
        self
    }

    /// Sweeps messages per node (routing workloads).
    pub fn over_messages_per_node(mut self, ks: impl IntoIterator<Item = usize>) -> Self {
        self.messages_per_node = ks.into_iter().collect();
        self
    }

    /// Bounds the worker threads used for this sweep.
    pub fn max_parallel(mut self, threads: usize) -> Self {
        self.max_parallel = Some(threads);
        self
    }

    /// The axes in enumeration order (outermost first): how many values each
    /// has and how its `i`-th value is written into a cell's spec. The
    /// topology replaces the execution model, so it comes after it.
    fn axes(&self) -> [Axis<'_>; 16] {
        fn axis<'a, T>(values: &'a [T], set: impl Fn(&mut ScenarioSpec, &'a T) + 'a) -> Axis<'a> {
            (values.len(), Box::new(move |spec, i| set(spec, &values[i])))
        }
        [
            axis(&self.kind, |spec, v| spec.kind = *v),
            axis(&self.n, |spec, v| spec.n = *v),
            axis(&self.c, |spec, v| spec.c = Some(*v)),
            axis(&self.delta, |spec, v| spec.delta = Some(*v)),
            axis(&self.tau, |spec, v| spec.tau = Some(*v)),
            axis(&self.replication, |spec, v| spec.replication = Some(*v)),
            axis(&self.churn, |spec, v| spec.churn = *v),
            axis(&self.adversary, |spec, v| spec.adversary = *v),
            axis(&self.lateness, |spec, v| spec.lateness = Some(*v)),
            axis(&self.execution, |spec, v| spec.execution = *v),
            axis(&self.topology, |spec, v| {
                spec.execution = ExecutionModel::topo(*v)
            }),
            axis(&self.faults, |spec, v| spec.faults = Some(v.clone())),
            axis(&self.byzantine, |spec, v| spec.byzantine = Some(*v)),
            axis(&self.messages_per_node, |spec, v| {
                spec.messages_per_node = *v
            }),
            axis(&self.holder_failure, |spec, v| spec.holder_failure = *v),
            axis(&self.attempts, |spec, v| spec.attempts = *v),
        ]
    }

    /// Number of cells the sweep enumerates (grid size × seed replicates).
    pub fn cell_count(&self) -> usize {
        let grid: usize = self.axes().iter().map(|(len, _)| (*len).max(1)).product();
        grid * self.seeds.len()
    }

    /// Expands the cartesian grid × seed range into concrete cells, in the
    /// fixed enumeration order (seed varies fastest).
    pub fn enumerate(&self) -> Vec<SweepCell> {
        let axes = self.axes();
        let seeds: Vec<u64> = self.seeds.seeds().collect();
        let count = self.cell_count();
        let cells = (0..count).map(|index| {
            // The cell index read as a mixed-radix number over the non-empty
            // axes and the seed range, most significant digit first; an empty
            // axis keeps the base spec's value.
            let mut spec = self.base.clone().with_seed(seeds[index % seeds.len()]);
            let mut stride = count;
            for (len, set) in axes.iter().filter(|(len, _)| *len > 0) {
                stride /= len;
                set(&mut spec, index / stride % len);
            }
            let rounds = self.rounds.resolve(&spec);
            SweepCell {
                index,
                spec,
                rounds,
            }
        });
        cells.collect()
    }
}

/// One axis of a [`SweepSpec`]: its length and the setter of its `i`-th value.
type Axis<'a> = (usize, Box<dyn Fn(&mut ScenarioSpec, usize) + 'a>);

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_scenario::BaselineKind;

    fn routing_base() -> ScenarioSpec {
        ScenarioSpec::new(ScenarioKind::Routing, 64)
    }

    #[test]
    fn empty_axes_enumerate_the_base_cell() {
        let sweep = SweepSpec::new("one", routing_base());
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 1);
        assert_eq!(sweep.cell_count(), 1);
        assert_eq!(cells[0].index, 0);
        assert_eq!(cells[0].spec, routing_base());
        assert_eq!(cells[0].rounds, 0);
    }

    #[test]
    fn cartesian_product_with_seed_innermost() {
        let sweep = SweepSpec::new("grid", routing_base())
            .over_n([32, 64])
            .over_messages_per_node([1, 2, 4])
            .seeds(10, 2);
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells.len(), sweep.cell_count());
        // Seed varies fastest, then k, then n.
        assert_eq!(
            (
                cells[0].spec.n,
                cells[0].spec.messages_per_node,
                cells[0].spec.seed
            ),
            (32, 1, 10)
        );
        assert_eq!(
            (
                cells[1].spec.n,
                cells[1].spec.messages_per_node,
                cells[1].spec.seed
            ),
            (32, 1, 11)
        );
        assert_eq!(
            (
                cells[2].spec.n,
                cells[2].spec.messages_per_node,
                cells[2].spec.seed
            ),
            (32, 2, 10)
        );
        assert_eq!(
            (
                cells[6].spec.n,
                cells[6].spec.messages_per_node,
                cells[6].spec.seed
            ),
            (64, 1, 10)
        );
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn non_adjacent_axes_cross_with_the_seed_range_in_the_documented_order() {
        let (ns, fails) = ([32, 64, 96], [0.0, 0.1]);
        let adversaries = [AdversarySpec::random(1, 1), AdversarySpec::targeted(1, 1)];
        let mut sweep = SweepSpec::new("cross", routing_base())
            .over_adversaries(adversaries)
            .over_n(ns)
            .seeds(5, 3);
        sweep.holder_failure = fails.to_vec();
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), sweep.cell_count());
        let mut expected = Vec::new();
        for n in ns {
            for adversary in adversaries {
                for fail in fails {
                    for seed in 5..8 {
                        expected.push((expected.len(), n, adversary, fail, seed));
                    }
                }
            }
        }
        let got: Vec<_> = cells
            .iter()
            .map(|c| {
                let s = &c.spec;
                (c.index, s.n, s.adversary, s.holder_failure, s.seed)
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn kind_axis_sweeps_the_baselines() {
        let sweep = SweepSpec::new(
            "table1",
            ScenarioSpec::new(ScenarioKind::Baseline(BaselineKind::HdGraph), 128),
        )
        .over_kinds([
            ScenarioKind::Baseline(BaselineKind::HdGraph),
            ScenarioKind::Baseline(BaselineKind::Spartan),
            ScenarioKind::Baseline(BaselineKind::ChordSwarm),
            ScenarioKind::Baseline(BaselineKind::StaticLds),
        ])
        .over_adversaries([AdversarySpec::random(1, 1), AdversarySpec::targeted(1, 1)]);
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 8);
        assert_eq!(
            cells[2].spec.kind,
            ScenarioKind::Baseline(BaselineKind::Spartan)
        );
    }

    #[test]
    fn maturity_rounds_resolve_per_cell() {
        let base = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        let sweep = SweepSpec::new("m", base)
            .over_n([48, 96])
            .rounds(RoundsSpec::MaturityAges(3));
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 2);
        let expect = |n: usize| {
            3 * ScenarioSpec::new(ScenarioKind::MaintainedLds, n)
                .maintenance_params()
                .maturity_age()
        };
        assert_eq!(cells[0].rounds, expect(48));
        assert_eq!(cells[1].rounds, expect(96));
        assert!(cells[1].rounds > cells[0].rounds);
    }

    #[test]
    fn a_huge_maturity_multiple_saturates_instead_of_wrapping() {
        let spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        assert!(spec.maintenance_params().maturity_age() > 1);
        assert_eq!(RoundsSpec::MaturityAges(u64::MAX).resolve(&spec), u64::MAX);
    }

    #[test]
    fn execution_axis_sweeps_engines_per_cell() {
        use tsa_scenario::LatencyModel;
        let base = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        let regimes = [
            ExecutionModel::rounds(),
            ExecutionModel::asynchronous(LatencyModel::constant(500)),
            ExecutionModel::asynchronous(LatencyModel::uniform(500, 2500)),
        ];
        let sweep = SweepSpec::new("async", base.clone())
            .over_execution(regimes)
            .seeds(1, 2);
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 6);
        assert_eq!(sweep.cell_count(), 6);
        assert_eq!(cells[0].spec.execution, regimes[0]);
        assert_eq!(cells[2].spec.execution, regimes[1]);
        assert_eq!(cells[4].spec.execution, regimes[2]);
        // An empty axis keeps the base's engine and serializes exactly as a
        // pre-ExecutionModel sweep spec did.
        let plain = SweepSpec::new("plain", base);
        assert!(!serde_json::to_string(&plain).unwrap().contains("execution"));
        let json = serde_json::to_string(&sweep).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
        assert_eq!(back.enumerate(), sweep.enumerate());
    }

    #[test]
    fn topology_axis_applies_on_top_of_the_execution_model() {
        use tsa_scenario::{LatencyModel, NetModel, RegionAssign, Topology};
        let net = |t: u64| NetModel::new(LatencyModel::constant(t));
        let base = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        let topologies = [
            Topology::global(net(100)),
            Topology::regions(RegionAssign::halves(24), net(100), net(2500)),
        ];
        // Applied to a synchronous base, the axis switches each cell to the
        // event engine under its topology.
        let sweep = SweepSpec::new("topo", base.clone())
            .over_topology(topologies)
            .seeds(1, 2);
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 4);
        assert_eq!(sweep.cell_count(), 4);
        assert_eq!(cells[0].spec.execution, ExecutionModel::topo(topologies[0]));
        assert_eq!(cells[2].spec.execution, ExecutionModel::topo(topologies[1]));
        // Crossed with an execution axis, the topology wins the network
        // (enumeration order: execution outside, topology inside).
        let crossed = SweepSpec::new("x", base.clone())
            .over_execution([
                ExecutionModel::rounds(),
                ExecutionModel::asynchronous(LatencyModel::constant(700)),
            ])
            .over_topology(topologies);
        let cells = crossed.enumerate();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert!(!cell.spec.execution.is_rounds());
        }
        assert_eq!(
            cells[1].spec.execution.effective_topology(),
            Some(topologies[1])
        );
        // An empty axis keeps the base's network and serializes exactly as
        // a pre-topology sweep spec did.
        let plain = SweepSpec::new("plain", base);
        assert!(!serde_json::to_string(&plain).unwrap().contains("topology"));
        let json = serde_json::to_string(&sweep).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
        assert_eq!(back.enumerate(), sweep.enumerate());
    }

    #[test]
    fn fault_and_byzantine_axes_sweep_adversarial_regimes() {
        use tsa_scenario::{ByzantineSpec, FaultAction, FaultPlan, FaultRule, MisbehaviorKind};
        let base = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        let plans = [
            FaultPlan::default(),
            FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop).with_prob(0.1)),
        ];
        let roles = [
            ByzantineSpec::fraction(0, 8, MisbehaviorKind::StaleClaims),
            ByzantineSpec::fraction(1, 8, MisbehaviorKind::StaleClaims),
            ByzantineSpec::fraction(1, 4, MisbehaviorKind::StaleClaims),
        ];
        let sweep = SweepSpec::new("byz", base.clone())
            .over_faults(plans.clone())
            .over_byzantine(roles)
            .seeds(1, 2);
        let cells = sweep.enumerate();
        assert_eq!(cells.len(), 12);
        assert_eq!(sweep.cell_count(), 12);
        // Enumeration order: fault plan outside, byzantine role inside, seed
        // innermost.
        assert_eq!(cells[0].spec.faults.as_ref(), Some(&plans[0]));
        assert_eq!(cells[0].spec.byzantine, Some(roles[0]));
        assert_eq!(cells[2].spec.byzantine, Some(roles[1]));
        assert_eq!(cells[6].spec.faults.as_ref(), Some(&plans[1]));
        assert_eq!(cells[6].spec.byzantine, Some(roles[0]));
        // An empty axis keeps the base's (absent) plan and serializes
        // exactly as a pre-fault sweep spec did.
        let plain = SweepSpec::new("plain", base);
        let json = serde_json::to_string(&plain).unwrap();
        assert!(
            !json.contains("faults") && !json.contains("byzantine"),
            "{json}"
        );
        let json = serde_json::to_string(&sweep).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
        assert_eq!(back.enumerate(), sweep.enumerate());
    }

    #[test]
    fn sweep_specs_round_trip_through_serde() {
        let sweep = SweepSpec::new("rt", routing_base())
            .over_n([32, 64])
            .over_c([1.0, 1.5])
            .over_churn([ChurnSpec::fraction(1, 4), ChurnSpec::none()])
            .over_adversaries([AdversarySpec::targeted(1, 5)])
            .rounds(RoundsSpec::MaturityAges(2))
            .seeds(3, 4)
            .max_parallel(2);
        let json = serde_json::to_string(&sweep).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
        assert_eq!(back.enumerate(), sweep.enumerate());
    }
}
