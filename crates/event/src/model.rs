//! Per-message latency, jitter and loss models, and the [`ExecutionModel`]
//! selector that picks between the round engine and the event engine.
//!
//! # Determinism
//!
//! Every message's fate (dropped or not, and its delay in ticks) is a pure
//! function of `(master seed, sequence number)`: word `k` of message `seq`
//! is the counter hash `splitmix64(mix(&[seed, seq, NET_LABEL]) ^ k)` —
//! `k = 0` the loss coin, `1` the latency, `2` the jitter — and a word is
//! computed only when its component is on. The fate depends on *what* the
//! message is (its global send order), never on *when* it is sampled or
//! which queue state surrounds it, so a fixed seed produces byte-identical
//! traces at any thread or host configuration. The only floating-point
//! operations used are IEEE-754 basic operations plus `sqrt` (all correctly
//! rounded and therefore bit-stable across conforming hosts); in particular
//! the heavy-tail model restricts its tail index to powers of two so it can
//! be computed by repeated square roots instead of `powf`.

use serde::{Deserialize, Serialize};
use tsa_sim::rng::{mix, splitmix64};
use tsa_sim::{NodeId, Round};

/// Domain-separation label of the network fates.
const NET_LABEL: u64 = 0x4E45_545F_4C41_5433; // "NET_LAT3"

/// Message `seq`'s entropy under the domain `label`, `mix(&[seed, seq,
/// label])`, hashed once: word `k` of it is the counter hash
/// [`word`](FateKey::word), so every word is a pure function of its four
/// inputs and no word depends on another having been drawn.
#[derive(Clone, Copy)]
pub(crate) struct FateKey(u64);

impl FateKey {
    #[inline]
    pub(crate) fn new(seed: u64, label: u64, seq: u64) -> Self {
        FateKey(mix(&[seed, seq, label]))
    }

    /// Word `k`.
    #[inline]
    pub(crate) fn word(self, k: u64) -> u64 {
        splitmix64(self.0 ^ k)
    }
}

/// Maps one word onto the unit interval `[0, 1)` with a full 53-bit
/// mantissa (the same conversion the `rand` shim's `f64` sampling uses).
#[inline]
pub(crate) fn unit_f64(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Maps one word uniformly onto `[min, max]` (inclusive) by the
/// multiply-shift method: `min + (w · span) >> 64`. One word per draw, no
/// rejection loop — the (at most `span / 2^64`) bias is far below anything a
/// simulation could resolve.
#[inline]
fn word_range(w: u64, min: u64, max: u64) -> u64 {
    let span = (max - min).wrapping_add(1); // 0 encodes the full u64 domain
    if span == 0 {
        w
    } else {
        min + (((w as u128 * span as u128) >> 64) as u64)
    }
}

/// How long a message spends in the network, in virtual ticks
/// ([`TICKS_PER_ROUND`](crate::TICKS_PER_ROUND) ticks make one protocol
/// round).
///
/// A sampled delay of `d` ticks means the message becomes deliverable at
/// `send_time + d`; nodes collect deliverable messages at each round boundary
/// of the virtual clock, so any delay of at most one round reproduces the
/// synchronous model's "sent in `t`, delivered in `t + 1`" exactly.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly `ticks` ticks.
    Constant {
        /// The fixed delay in ticks.
        ticks: u64,
    },
    /// Delays drawn uniformly from `[min, max]` ticks.
    Uniform {
        /// Smallest possible delay in ticks.
        min: u64,
        /// Largest possible delay in ticks (inclusive; must be ≥ `min`).
        max: u64,
    },
    /// A bounded Pareto-ish heavy tail: `base` plus
    /// `scale · (u^(−1/α) − 1)` ticks for uniform `u ∈ (0, 1]`, truncated at
    /// `base + cap`. The tail index is `α = 2^alpha_log2`, restricted to
    /// powers of two so the inverse power is a chain of square roots
    /// (bit-stable everywhere, unlike `powf`): `alpha_log2 = 0` is the
    /// classic very-heavy `α = 1` tail, `1` the `α = 2` finite-mean tail.
    Pareto {
        /// The minimum delay in ticks.
        base: u64,
        /// The tail scale in ticks.
        scale: u64,
        /// `log2` of the tail index `α`. Every value from 59 on samples
        /// alike; 64 roots are the most ever taken.
        alpha_log2: u32,
        /// Upper bound on the tail's extra delay, in ticks.
        cap: u64,
    },
}

impl LatencyModel {
    /// A constant delay of `ticks` ticks.
    pub fn constant(ticks: u64) -> Self {
        LatencyModel::Constant { ticks }
    }

    /// A uniform delay in `[min, max]` ticks.
    pub fn uniform(min: u64, max: u64) -> Self {
        assert!(min <= max, "uniform latency needs min <= max");
        LatencyModel::Uniform { min, max }
    }

    /// A bounded heavy tail with index `α = 2^alpha_log2`.
    pub fn pareto(base: u64, scale: u64, alpha_log2: u32, cap: u64) -> Self {
        LatencyModel::Pareto {
            base,
            scale,
            alpha_log2,
            cap,
        }
    }

    /// Maps one word to a delay in ticks — the single sampling path, fed
    /// word 1 of a message's fate.
    ///
    /// A malformed `Uniform` with `max < min` (possible via deserialization,
    /// which bypasses the [`LatencyModel::uniform`] assertion) degrades to
    /// the constant `min` rather than panicking mid-run.
    pub fn sample_word(&self, w: u64) -> u64 {
        match *self {
            LatencyModel::Constant { ticks } => ticks,
            LatencyModel::Uniform { min, max } => word_range(w, min, max.max(min)),
            LatencyModel::Pareto {
                base,
                scale,
                alpha_log2,
                cap,
            } => {
                // u ∈ (0, 1]: flip the [0, 1) draw so the heavy tail sits at
                // small u without ever dividing by zero.
                let u = 1.0 - unit_f64(w);
                // u^(−1/2^k) by repeated square roots (IEEE-correct, so the
                // value is identical on every conforming host). From 2⁻⁵³, the
                // smallest u, the chain reaches its fixed point within 59
                // roots, and a larger u no later: 64 are as good as any more.
                let mut v = u;
                for _ in 0..alpha_log2.min(64) {
                    v = v.sqrt();
                }
                let extra = scale as f64 * (1.0 / v - 1.0);
                let extra = if extra.is_finite() {
                    (extra as u64).min(cap)
                } else {
                    cap
                };
                base.saturating_add(extra)
            }
        }
    }

    /// A compact label for tables, e.g. `c500`, `u200-1800`, `p500/1000a2`.
    pub fn label(&self) -> String {
        match *self {
            LatencyModel::Constant { ticks } => format!("c{ticks}"),
            LatencyModel::Uniform { min, max } => format!("u{min}-{max}"),
            LatencyModel::Pareto {
                base,
                scale,
                alpha_log2,
                ..
            } => match 1u64.checked_shl(alpha_log2) {
                Some(alpha) => format!("p{base}/{scale}a{alpha}"),
                None => format!("p{base}/{scale}a2^{alpha_log2}"),
            },
        }
    }
}

/// The complete network model of an asynchronous execution: per-message
/// latency, extra uniform jitter, and an i.i.d. drop probability.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetModel {
    /// The base delay distribution.
    pub latency: LatencyModel,
    /// Extra per-message jitter: a uniform draw from `[0, jitter]` ticks
    /// added on top of the latency (0 disables it).
    pub jitter: u64,
    /// Probability that a message is silently dropped in transit.
    pub loss: f64,
}

impl NetModel {
    /// A model with the given latency, no jitter and no loss.
    pub fn new(latency: LatencyModel) -> Self {
        NetModel {
            latency,
            jitter: 0,
            loss: 0.0,
        }
    }

    /// Decides the fate of message `seq` under master seed `seed`: `None`
    /// if the message is lost, otherwise its total delay in ticks.
    ///
    /// Each component reads its own word of `seq`'s fate (loss 0, latency
    /// 1, jitter 2), and only when it is on — so disabling a component never
    /// perturbs another's draw, and a constant, lossless, jitterless link
    /// computes no word at all. The words share one key,
    /// `mix(&[seed, seq, NET_LABEL])`, hashed by the first word drawn. All
    /// delay additions saturate: a hostile model summing to beyond
    /// `u64::MAX` ticks parks the message in the far future instead of
    /// wrapping it into the past.
    pub fn route(&self, seed: u64, seq: u64) -> Option<u64> {
        let mut key = None;
        let mut word = |k| {
            let key = key.get_or_insert_with(|| FateKey::new(seed, NET_LABEL, seq));
            key.word(k)
        };
        if self.loss > 0.0 && unit_f64(word(0)) < self.loss {
            return None;
        }
        let delay = match self.latency {
            LatencyModel::Constant { ticks } => ticks,
            latency => latency.sample_word(word(1)),
        };
        if self.jitter == 0 {
            return Some(delay);
        }
        Some(delay.saturating_add(word_range(word(2), 0, self.jitter)))
    }

    /// The largest delay [`route`](Self::route) can return, in ticks
    /// (saturating): the latency's largest draw plus the whole jitter.
    pub fn max_delay(&self) -> u64 {
        let latency = match self.latency {
            LatencyModel::Constant { ticks } => ticks,
            LatencyModel::Uniform { min, max } => max.max(min),
            LatencyModel::Pareto { base, cap, .. } => base.saturating_add(cap),
        };
        latency.saturating_add(self.jitter)
    }

    /// A compact label for tables, e.g. `u200-1800+j300-l0.01`.
    pub fn label(&self) -> String {
        let mut label = self.latency.label();
        if self.jitter > 0 {
            label.push_str(&format!("+j{}", self.jitter));
        }
        if self.loss > 0.0 {
            label.push_str(&format!("-l{}", self.loss));
        }
        label
    }
}

/// Assigns every node to a *region* — a pure function of the node id, so the
/// assignment is identical on every host, at every thread configuration, and
/// across resumed runs. This is what keeps topology-aware traces
/// byte-identical everywhere: which side of a partition a node sits on can
/// never depend on hashing order, insertion order, or wall-clock state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionAssign {
    /// Two halves of the id space: ids below `split` are region 0, the rest
    /// region 1. With the engines' sequential id assignment (`V_0 = 0..n`),
    /// `split = n / 2` puts the two halves of the initial network in
    /// different regions; every later joiner (id ≥ n > split) lands in
    /// region 1.
    Halves {
        /// First id that belongs to region 1.
        split: u64,
    },
}

impl RegionAssign {
    /// Two halves split at `split`.
    pub fn halves(split: u64) -> Self {
        RegionAssign::Halves { split }
    }

    /// The region of `id` — a total, pure function.
    pub fn region_of(&self, id: NodeId) -> u32 {
        let RegionAssign::Halves { split } = *self;
        u32::from(id.0 >= split)
    }

    /// A compact label for tables, e.g. `halves@64`.
    pub fn label(&self) -> String {
        let RegionAssign::Halves { split } = self;
        format!("halves@{split}")
    }
}

/// The rounds during which a [`Topology::Regions`] bridge is *degraded*
/// (runs the `inter` model). Outside the window cross-region links run the
/// healthy `intra` model — this is the time-varying bridge that lets one
/// spec describe "healthy bootstrap, partition for D rounds, heal at round
/// R" without any out-of-band scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSchedule {
    /// First round boundary whose sends cross a degraded bridge.
    pub from: Round,
    /// First round boundary whose sends cross a healed bridge again
    /// (`u64::MAX` = the partition never heals).
    pub heal_at: Round,
}

impl PartitionSchedule {
    /// Degraded from `from` onwards, forever.
    pub fn starting_at(from: Round) -> Self {
        PartitionSchedule {
            from,
            heal_at: u64::MAX,
        }
    }

    /// Degraded during `[from, heal_at)`.
    pub fn window(from: Round, heal_at: Round) -> Self {
        PartitionSchedule { from, heal_at }
    }

    /// Whether the bridge is degraded for messages sent at `round`.
    pub fn degraded_at(&self, round: Round) -> bool {
        round >= self.from && round < self.heal_at
    }

    /// A compact label: `@3..11`, or `@3..` for a permanent partition.
    pub fn label(&self) -> String {
        if self.heal_at == u64::MAX {
            format!("@{}..", self.from)
        } else {
            format!("@{}..{}", self.from, self.heal_at)
        }
    }
}

/// The network *topology*: which [`NetModel`] governs each directed
/// `(sender, receiver)` link at each round.
///
/// Every variant resolves links through pure functions of
/// `(round, sender id, receiver id)` — never through runtime state — so a
/// topology-aware trace is exactly as deterministic as a global one. The
/// per-message randomness is hashed from `(seed, seq)` alone
/// ([`NetModel::route`]), independent of *which* model consumes it; two
/// topologies that resolve every link to equal models therefore produce
/// byte-identical traces — the equivalence the `topology_equivalence` test
/// bridge pins. Links are symmetric here: a one-way link is a
/// [`FaultRule`](crate::FaultRule) with `from`/`to` selectors, which both
/// fault boundaries (this engine and the loopback transport) honour.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// One model for every link (what a scalar [`NetModel`] always was).
    Global(NetModel),
    /// A two-level regional structure: links inside a region run `intra`,
    /// links crossing regions run `inter` — optionally only during a
    /// [`PartitionSchedule`] window (and `intra` outside it).
    Regions {
        /// The pure id → region assignment.
        assign: RegionAssign,
        /// The model of links within one region.
        intra: NetModel,
        /// The model of links crossing regions (the "bridge").
        inter: NetModel,
        /// When the bridge is degraded; `None` = always.
        schedule: Option<PartitionSchedule>,
    },
}

impl Topology {
    /// One model everywhere.
    pub fn global(net: NetModel) -> Self {
        Topology::Global(net)
    }

    /// A regional topology with a permanently active bridge model.
    pub fn regions(assign: RegionAssign, intra: NetModel, inter: NetModel) -> Self {
        Topology::Regions {
            assign,
            intra,
            inter,
            schedule: None,
        }
    }

    /// A regional topology whose bridge is degraded only during `schedule`.
    pub fn regions_with_schedule(
        assign: RegionAssign,
        intra: NetModel,
        inter: NetModel,
        schedule: PartitionSchedule,
    ) -> Self {
        Topology::Regions {
            assign,
            intra,
            inter,
            schedule: Some(schedule),
        }
    }

    /// The *base* model: what most links run (`Global`'s model, `Regions`'
    /// intra model).
    pub fn base(&self) -> NetModel {
        match *self {
            Topology::Global(net) => net,
            Topology::Regions { intra, .. } => intra,
        }
    }

    /// The region of `id`, for regional topologies.
    pub fn region_of(&self, id: NodeId) -> Option<u32> {
        match self {
            Topology::Regions { assign, .. } => Some(assign.region_of(id)),
            _ => None,
        }
    }

    /// Whether the directed link `from → to` crosses a region boundary
    /// (always `false` for non-regional topologies). This is the structural
    /// notion — it ignores the schedule — used for cross-region edge
    /// accounting.
    pub fn is_cross(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            Topology::Regions { assign, .. } => assign.region_of(from) != assign.region_of(to),
            _ => false,
        }
    }

    /// Resolves one message sent at round boundary `round` over the link
    /// `from → to`: its effective model, and whether the link crosses
    /// regions ([`Topology::is_cross`]) — the engine's per-message entry
    /// point, so each endpoint's region is looked up exactly once per send.
    pub fn resolve(&self, round: Round, from: NodeId, to: NodeId) -> (NetModel, bool) {
        match *self {
            Topology::Global(net) => (net, false),
            Topology::Regions {
                assign,
                intra,
                inter,
                schedule,
            } => {
                let cross = assign.region_of(from) != assign.region_of(to);
                let net = if cross && schedule.is_none_or(|s| s.degraded_at(round)) {
                    inter
                } else {
                    intra
                };
                (net, cross)
            }
        }
    }

    /// A compact label for tables, e.g.
    /// `regions(halves@24,intra=c500,inter=c3000-l0.5@6..14)`.
    pub fn label(&self) -> String {
        match self {
            Topology::Global(net) => net.label(),
            Topology::Regions {
                assign,
                intra,
                inter,
                schedule,
            } => format!(
                "regions({},intra={},inter={}{})",
                assign.label(),
                intra.label(),
                inter.label(),
                schedule.map(|s| s.label()).unwrap_or_default()
            ),
        }
    }
}

/// Which execution engine a scenario runs on — the round-synchronous
/// lockstep engine, or the virtual-time event engine under a network model.
///
/// `Rounds` is the serde default and is *skipped* when a spec serializes, so
/// every artifact written before this type existed round-trips unchanged and
/// every artifact written after it stays byte-identical for synchronous runs.
/// The `topology` field plays the same game one level down: it is skipped
/// when `None`, so every `Async` spec serialized before topologies existed
/// (and every global-network spec after) keeps its exact serialized form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum ExecutionModel {
    /// The paper's synchronous round model (`tsa-sim`'s lockstep engine).
    #[default]
    Rounds,
    /// The discrete-event engine of `tsa-event`: nodes still activate at
    /// round boundaries of the virtual clock, but every message individually
    /// samples a latency (plus jitter) and may be lost.
    Async {
        /// The base delay distribution, in ticks
        /// ([`TICKS_PER_ROUND`](crate::TICKS_PER_ROUND) per round).
        latency: LatencyModel,
        /// Extra uniform per-message jitter in `[0, jitter]` ticks.
        jitter: u64,
        /// Per-message drop probability.
        loss: f64,
        /// Link-level structure of the network. `None` (the serde default)
        /// means the flat `latency`/`jitter`/`loss` above apply to every
        /// link; `Some` makes the topology authoritative for link
        /// resolution, with the flat fields mirroring its
        /// [`base`](Topology::base) model (the constructors keep them in
        /// sync).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        topology: Option<Topology>,
    },
}

impl ExecutionModel {
    /// The synchronous round model.
    pub fn rounds() -> Self {
        ExecutionModel::Rounds
    }

    /// An asynchronous execution with the given latency model, no jitter and
    /// no loss, on a global (link-uniform) network.
    pub fn asynchronous(latency: LatencyModel) -> Self {
        ExecutionModel::Async {
            latency,
            jitter: 0,
            loss: 0.0,
            topology: None,
        }
    }

    /// An asynchronous execution over an explicit link [`Topology`]. The
    /// flat latency/jitter/loss fields mirror the topology's
    /// [`base`](Topology::base) model.
    pub fn topo(topology: Topology) -> Self {
        let base = topology.base();
        ExecutionModel::Async {
            latency: base.latency,
            jitter: base.jitter,
            loss: base.loss,
            topology: Some(topology),
        }
    }

    /// `true` for [`ExecutionModel::Rounds`] — the `skip_serializing_if`
    /// predicate that keeps synchronous specs byte-identical to the
    /// pre-`ExecutionModel` serialization.
    pub fn is_rounds(&self) -> bool {
        matches!(self, ExecutionModel::Rounds)
    }

    /// Adds uniform `[0, jitter]`-tick jitter (asynchronous global models
    /// only).
    ///
    /// # Panics
    ///
    /// Panics on [`ExecutionModel::Rounds`] (no network model) and on a
    /// topology-bearing model, where "the" jitter is ambiguous — configure
    /// the topology's own [`NetModel`]s instead.
    pub fn with_jitter(self, jitter: u64) -> Self {
        match self {
            ExecutionModel::Rounds => panic!("Rounds has no jitter to configure"),
            ExecutionModel::Async {
                topology: Some(_), ..
            } => panic!("a link topology carries its own jitter"),
            ExecutionModel::Async { latency, loss, .. } => ExecutionModel::Async {
                latency,
                jitter,
                loss,
                topology: None,
            },
        }
    }

    /// Sets the per-message drop probability (asynchronous global models
    /// only).
    ///
    /// # Panics
    ///
    /// Panics on [`ExecutionModel::Rounds`] (no network model) and on a
    /// topology-bearing model, where "the" loss is ambiguous — configure
    /// the topology's own [`NetModel`]s instead.
    pub fn with_loss(self, loss: f64) -> Self {
        match self {
            ExecutionModel::Rounds => panic!("Rounds has no loss to configure"),
            ExecutionModel::Async {
                topology: Some(_), ..
            } => panic!("a link topology carries its own loss"),
            ExecutionModel::Async {
                latency, jitter, ..
            } => ExecutionModel::Async {
                latency,
                jitter,
                loss,
                topology: None,
            },
        }
    }

    /// The *base* network model of an asynchronous execution (`None` for
    /// `Rounds`): the flat model for global executions, the topology's
    /// [`base`](Topology::base) otherwise.
    pub fn net_model(&self) -> Option<NetModel> {
        match self {
            ExecutionModel::Rounds => None,
            ExecutionModel::Async {
                topology: Some(t), ..
            } => Some(t.base()),
            ExecutionModel::Async {
                latency,
                jitter,
                loss,
                topology: None,
            } => Some(NetModel {
                latency: *latency,
                jitter: *jitter,
                loss: *loss,
            }),
        }
    }

    /// The complete link topology the event engine should run (`None` for
    /// `Rounds`): the explicit topology when one is set, otherwise the flat
    /// model wrapped as [`Topology::Global`].
    pub fn effective_topology(&self) -> Option<Topology> {
        match *self {
            ExecutionModel::Rounds => None,
            ExecutionModel::Async {
                topology: Some(t), ..
            } => Some(t),
            ExecutionModel::Async { .. } => self.net_model().map(Topology::Global),
        }
    }

    /// A compact label for sweep tables: `sync`, `async(<net label>)`, or
    /// `async(<topology label>)`.
    pub fn label(&self) -> String {
        match self {
            ExecutionModel::Rounds => "sync".to_string(),
            ExecutionModel::Async {
                topology: Some(t), ..
            } => format!("async({})", t.label()),
            ExecutionModel::Async { .. } => {
                format!("async({})", self.net_model().expect("async model").label())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn constant_latency_is_constant() {
        let m = LatencyModel::constant(7);
        let mut r = rng(1);
        for _ in 0..10 {
            assert_eq!(m.sample_word(r.next_u64()), 7);
        }
    }

    #[test]
    fn uniform_latency_stays_in_range_and_spreads() {
        let m = LatencyModel::uniform(100, 300);
        let mut r = rng(2);
        let draws: Vec<u64> = (0..500).map(|_| m.sample_word(r.next_u64())).collect();
        assert!(draws.iter().all(|&d| (100..=300).contains(&d)));
        assert!(draws.iter().any(|&d| d < 150));
        assert!(draws.iter().any(|&d| d > 250));
    }

    #[test]
    fn pareto_latency_is_heavy_tailed_but_bounded() {
        let m = LatencyModel::pareto(100, 200, 1, 10_000);
        let mut r = rng(3);
        let draws: Vec<u64> = (0..2000).map(|_| m.sample_word(r.next_u64())).collect();
        assert!(draws.iter().all(|&d| (100..=10_100).contains(&d)));
        // The α = 2 tail must actually produce multi-round outliers.
        assert!(draws.iter().any(|&d| d > 2000), "no tail events");
        let median = {
            let mut s = draws.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(median < 500, "median {median} should sit near the base");
    }

    #[test]
    fn a_huge_pareto_alpha_samples_like_64_roots_and_labels_without_panic() {
        assert_eq!(
            LatencyModel::pareto(1, 2, 63, 3).label(),
            format!("p1/2a{}", 1u64 << 63)
        );
        assert_eq!(LatencyModel::pareto(1, 2, 64, 3).label(), "p1/2a2^64");
        assert_eq!(
            LatencyModel::pareto(1, 2, u32::MAX, 3).label(),
            format!("p1/2a2^{}", u32::MAX)
        );
        let mut r = rng(11);
        let mut words: Vec<u64> = (0..20_000).map(|_| r.next_u64()).collect();
        // The smallest u the sampler draws, and its neighbours: the longest
        // chains of roots.
        words.extend((0..64).map(|i| u64::MAX - (i << 11)));
        let sample = |k| {
            let m = LatencyModel::pareto(200, 800, k, 8000);
            words.iter().map(|&w| m.sample_word(w)).collect::<Vec<_>>()
        };
        let reference = sample(59);
        for k in [64, 1000, u32::MAX] {
            assert!(sample(k) == reference, "alpha_log2 = {k}");
        }
    }

    #[test]
    fn max_delay_bounds_every_route_and_saturates() {
        let with = |latency, jitter| NetModel {
            latency,
            jitter,
            loss: 0.0,
        };
        // Only deserialization builds a `Uniform` with `min > max`; it
        // samples the constant `min`.
        let inverted = |min, max| LatencyModel::Uniform { min, max };
        let (pareto, max) = (LatencyModel::pareto, u64::MAX);
        // (model, its largest delay, whether 2000 draws must reach it)
        let cases = [
            (with(LatencyModel::constant(7), 0), 7, true),
            (with(inverted(900, 100), 0), 900, true),
            (with(LatencyModel::uniform(100, 900), 50), 950, false),
            // α = 1 hits its cap.
            (with(pareto(100, 100, 0, 500), 0), 600, true),
            (with(pareto(200, 800, 1, 8000), 10), 8210, false),
            (with(LatencyModel::constant(1), max), max, false),
            (with(inverted(max, 0), max), max, true),
            (with(pareto(max, 1, 0, 5), 0), max, true),
            (with(pareto(5, 1, 0, max), max), max, false),
        ];
        for (net, bound, reached) in cases {
            assert_eq!(net.max_delay(), bound, "{}", net.label());
            let delays: Vec<u64> = (0..2000).filter_map(|seq| net.route(3, seq)).collect();
            assert!(delays.iter().all(|&d| d <= bound), "{}", net.label());
            assert!(!reached || delays.contains(&bound), "{}", net.label());
        }
    }

    #[test]
    fn routing_is_a_pure_function_of_seed_and_seq() {
        let net = NetModel {
            latency: LatencyModel::uniform(0, 1000),
            jitter: 250,
            loss: 0.1,
        };
        for seq in 0..200 {
            assert_eq!(net.route(9, seq), net.route(9, seq));
        }
        let fates_a: Vec<_> = (0..200).map(|s| net.route(9, s)).collect();
        let fates_b: Vec<_> = (0..200).map(|s| net.route(10, s)).collect();
        assert_ne!(fates_a, fates_b, "different seeds give different fates");
        assert!(fates_a.iter().any(|f| f.is_none()), "loss must occur");
        assert!(fates_a.iter().filter(|f| f.is_none()).count() < 60);
    }

    #[test]
    fn disabling_jitter_does_not_perturb_loss_or_latency() {
        let with = NetModel {
            latency: LatencyModel::constant(10),
            jitter: 5,
            loss: 0.5,
        };
        let without = NetModel { jitter: 0, ..with };
        for seq in 0..100 {
            let a = with.route(3, seq);
            let b = without.route(3, seq);
            assert_eq!(a.is_none(), b.is_none(), "loss coin flips must agree");
            if let (Some(a), Some(b)) = (a, b) {
                assert!((b..=b + 5).contains(&a));
            }
        }
    }

    /// The sample every statistical test of the fate hash draws: `2^16`
    /// consecutive sequence numbers under seed 29.
    const SEQS: u64 = 1 << 16;

    fn word(seq: u64, k: u64) -> u64 {
        FateKey::new(29, NET_LABEL, seq).word(k)
    }

    /// Pearson's correlation of `(x, y)` pairs; NaN when either side is
    /// constant.
    fn correlation(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
        let (mut n, mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (x, y) in pairs {
            n += 1.0;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let cov = sxy / n - (sx / n) * (sy / n);
        let var_x = sxx / n - (sx / n) * (sx / n);
        let var_y = syy / n - (sy / n) * (sy / n);
        cov / (var_x * var_y).sqrt()
    }

    #[test]
    fn every_fate_word_is_uniform_over_64_bins() {
        // χ² over 64 bins has 63 degrees of freedom: mean 63, sd √126.
        let bound = 63.0 + 5.0 * 126f64.sqrt();
        let expected = SEQS as f64 / 64.0;
        for k in 0..3 {
            let mut bins = [0u64; 64];
            for seq in 0..SEQS {
                bins[(word(seq, k) >> 58) as usize] += 1;
            }
            let chi2: f64 = bins
                .iter()
                .map(|&o| (o as f64 - expected).powi(2) / expected)
                .sum();
            assert!(chi2 < bound, "word {k}: chi2 {chi2:.1} >= {bound:.1}");
        }
    }

    #[test]
    fn realized_loss_rates_sit_within_five_sigma_of_the_model() {
        let n = SEQS as f64;
        for loss in [0.005, 0.5] {
            let net = NetModel {
                loss,
                ..NetModel::new(LatencyModel::constant(0))
            };
            let lost = (0..SEQS)
                .filter(|&seq| net.route(29, seq).is_none())
                .count() as f64;
            let sigma = (n * loss * (1.0 - loss)).sqrt();
            assert!(
                (lost - n * loss).abs() < 5.0 * sigma,
                "loss {loss}: {lost} of {n} lost"
            );
        }
    }

    #[test]
    fn neighbouring_fate_words_are_uncorrelated() {
        let unit = |seq, k| unit_f64(word(seq, k));
        for k in 0..3 {
            let next_seq = correlation((0..SEQS).map(|seq| (unit(seq, k), unit(seq + 1, k))));
            assert!(
                next_seq.abs() < 0.02,
                "word {k}, seq vs seq + 1: {next_seq}"
            );
        }
        for k in 0..2 {
            let next_word = correlation((0..SEQS).map(|seq| (unit(seq, k), unit(seq, k + 1))));
            assert!(next_word.abs() < 0.02, "word {k} vs {}: {next_word}", k + 1);
        }
    }

    #[test]
    fn the_fate_function_is_pinned() {
        // `event_jitter`'s network: a change here moves every recorded
        // artifact whose run samples a fate.
        let net = NetModel {
            latency: LatencyModel::uniform(100, 900),
            jitter: 50,
            loss: 0.005,
        };
        let fates: Vec<_> = (0..8).map(|seq| net.route(29, seq)).collect();
        let known = [912, 320, 528, 601, 392, 215, 660, 696].map(Some);
        assert_eq!(fates, known);
    }

    #[test]
    fn execution_model_default_is_rounds_and_skipped() {
        assert_eq!(ExecutionModel::default(), ExecutionModel::Rounds);
        assert!(ExecutionModel::rounds().is_rounds());
        let asynch = ExecutionModel::asynchronous(LatencyModel::constant(500))
            .with_jitter(100)
            .with_loss(0.01);
        assert!(!asynch.is_rounds());
        let net = asynch.net_model().unwrap();
        assert_eq!(net.jitter, 100);
        assert_eq!(net.loss, 0.01);
        assert_eq!(asynch.label(), "async(c500+j100-l0.01)");
        assert_eq!(ExecutionModel::rounds().label(), "sync");
    }

    #[test]
    fn loss_zero_never_drops_and_loss_one_always_drops() {
        let never = NetModel {
            latency: LatencyModel::uniform(0, 100),
            jitter: 10,
            loss: 0.0,
        };
        let always = NetModel { loss: 1.0, ..never };
        for seq in 0..500 {
            assert!(never.route(11, seq).is_some(), "loss 0.0 must deliver");
            assert!(always.route(11, seq).is_none(), "loss 1.0 must drop");
        }
        // The two read the same latency and jitter words: delivered delays of
        // the loss-free model are what the lossy model *would* have delayed by.
        let half = NetModel { loss: 0.5, ..never };
        for seq in 0..100 {
            if let Some(d) = half.route(11, seq) {
                assert_eq!(Some(d), never.route(11, seq));
            }
        }
    }

    #[test]
    fn pareto_alpha_one_is_the_heaviest_supported_tail() {
        // alpha_log2 = 0 is α = 2^0 = 1: the repeated-sqrt chain is empty,
        // v = u, and the tail is the classic infinite-mean 1/u law — only
        // the cap keeps draws finite.
        let m = LatencyModel::pareto(100, 100, 0, 50_000);
        let mut r = rng(7);
        let draws: Vec<u64> = (0..4000).map(|_| m.sample_word(r.next_u64())).collect();
        assert!(draws.iter().all(|&d| (100..=50_100).contains(&d)));
        assert!(
            draws.contains(&50_100),
            "α = 1 must actually hit the cap over 4000 draws"
        );
        let median = {
            let mut s = draws.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(median < 400, "median {median} should hug the base");
        // And α = 1 is strictly heavier than α = 2 at the same scale.
        let lighter = LatencyModel::pareto(100, 100, 1, 50_000);
        let mut r2 = rng(7);
        let capped_lighter = (0..4000)
            .map(|_| lighter.sample_word(r2.next_u64()))
            .filter(|&d| d == 50_100)
            .count();
        let capped_heavy = draws.iter().filter(|&&d| d == 50_100).count();
        assert!(capped_heavy > capped_lighter);
    }

    #[test]
    fn jitter_zero_and_positive_share_fates_but_not_delays() {
        let flat = NetModel {
            latency: LatencyModel::constant(100),
            jitter: 0,
            loss: 0.2,
        };
        let jittered = NetModel {
            jitter: 400,
            ..flat
        };
        let mut spread = false;
        for seq in 0..200 {
            let (a, b) = (flat.route(5, seq), jittered.route(5, seq));
            assert_eq!(a.is_none(), b.is_none(), "fates agree at seq {seq}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a, 100, "jitter 0 is exactly the base latency");
                assert!((100..=500).contains(&b));
                spread |= b != a;
            }
        }
        assert!(spread, "positive jitter must actually move some delays");
    }

    #[test]
    fn region_assignment_is_a_pure_total_function_of_the_id() {
        let halves = RegionAssign::halves(24);
        assert_eq!(halves.region_of(NodeId(0)), 0);
        assert_eq!(halves.region_of(NodeId(23)), 0);
        assert_eq!(halves.region_of(NodeId(24)), 1);
        assert_eq!(halves.region_of(NodeId(u64::MAX)), 1, "joiners go right");
        // Degenerate splits put every id on one side, never panic.
        assert_eq!(RegionAssign::halves(0).region_of(NodeId(0)), 1);
        assert_eq!(RegionAssign::halves(u64::MAX).region_of(NodeId(9)), 0);
    }

    #[test]
    fn topology_resolves_links_by_region_schedule_and_override() {
        let fast = NetModel::new(LatencyModel::constant(100));
        let slow = NetModel {
            latency: LatencyModel::constant(3000),
            jitter: 0,
            loss: 0.5,
        };

        let global = Topology::global(fast);
        assert_eq!(global.resolve(9, NodeId(0), NodeId(99)), (fast, false));
        assert!(!global.is_cross(NodeId(0), NodeId(99)));
        assert_eq!(global.base(), fast);

        let regions = Topology::regions(RegionAssign::halves(8), fast, slow);
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(9));
        assert_eq!(regions.resolve(0, a, b), (fast, false), "intra");
        assert_eq!(regions.resolve(0, a, c), (slow, true), "bridge");
        assert_eq!(regions.resolve(0, c, a), (slow, true), "both ways");
        assert!(regions.is_cross(a, c));
        assert_eq!(regions.region_of(c), Some(1));
        assert_eq!(regions.base(), fast);

        let windowed = Topology::regions_with_schedule(
            RegionAssign::halves(8),
            fast,
            slow,
            PartitionSchedule::window(3, 7),
        );
        assert_eq!(windowed.resolve(2, a, c), (fast, true), "pre");
        assert_eq!(windowed.resolve(3, a, c), (slow, true), "during");
        assert_eq!(windowed.resolve(6, a, c), (slow, true));
        assert_eq!(windowed.resolve(7, a, c), (fast, true), "healed");
        // The schedule never touches intra links.
        assert_eq!(windowed.resolve(4, a, b), (fast, false));
    }

    #[test]
    fn equal_models_make_every_topology_the_global_one() {
        // The per-message fate is hashed from (seed, seq) alone, so two
        // topologies resolving every link to equal models give equal fates —
        // the model-level half of the equivalence bridge.
        let m = NetModel {
            latency: LatencyModel::uniform(100, 2500),
            jitter: 300,
            loss: 0.1,
        };
        let global = Topology::global(m);
        let regions = Topology::regions(RegionAssign::halves(8), m, m);
        for seq in 0..100 {
            let (from, to) = (NodeId(seq % 16), NodeId((seq * 7) % 16));
            let expect = global.resolve(0, from, to).0.route(13, seq);
            assert_eq!(regions.resolve(0, from, to).0.route(13, seq), expect);
        }
    }

    #[test]
    fn topology_models_round_trip_through_serde() {
        let fast = NetModel::new(LatencyModel::constant(500));
        let slow = NetModel {
            latency: LatencyModel::pareto(200, 800, 1, 8000),
            jitter: 100,
            loss: 0.25,
        };
        let topologies = [
            Topology::global(fast),
            Topology::regions(RegionAssign::halves(24), fast, slow),
            Topology::regions_with_schedule(
                RegionAssign::halves(8),
                fast,
                slow,
                PartitionSchedule::window(6, 14),
            ),
        ];
        for topo in topologies {
            let json = serde_json::to_string(&topo).unwrap();
            let back: Topology = serde_json::from_str(&json).unwrap();
            assert_eq!(back, topo, "{json}");
            let model = ExecutionModel::topo(topo);
            let json = serde_json::to_string(&model).unwrap();
            assert!(json.contains("topology"), "{json}");
            let back: ExecutionModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model, "{json}");
            assert_eq!(back.effective_topology(), Some(topo));
            assert_eq!(back.net_model(), Some(topo.base()));
        }
        // The serialized form the partition artifacts record.
        assert_eq!(
            serde_json::to_string(&RegionAssign::halves(24)).unwrap(),
            r#"{"Halves":{"split":24}}"#
        );
    }

    #[test]
    fn global_async_specs_never_serialize_the_topology_field() {
        // The byte-compatibility contract one level down from `Rounds`: an
        // Async model without a topology serializes exactly as it did before
        // the field existed, and old JSON deserializes to topology = None.
        let model = ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800))
            .with_jitter(100)
            .with_loss(0.01);
        let json = serde_json::to_string(&model).unwrap();
        assert!(!json.contains("topology"), "{json}");
        let pre_topology =
            r#"{"Async":{"latency":{"Constant":{"ticks":500}},"jitter":0,"loss":0.0}}"#;
        let back: ExecutionModel = serde_json::from_str(pre_topology).unwrap();
        assert_eq!(
            back,
            ExecutionModel::asynchronous(LatencyModel::constant(500))
        );
        assert_eq!(
            back.effective_topology(),
            back.net_model().map(Topology::Global)
        );
        assert_eq!(
            ExecutionModel::topo(Topology::global(NetModel::new(LatencyModel::constant(500))))
                .label(),
            "async(c500)",
            "a Global topology labels like its scalar model"
        );
    }

    #[test]
    fn execution_model_round_trips_through_serde() {
        let models = [
            ExecutionModel::rounds(),
            ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800)),
            ExecutionModel::asynchronous(LatencyModel::pareto(100, 500, 1, 20_000))
                .with_jitter(50)
                .with_loss(0.02),
        ];
        for model in models {
            let json = serde_json::to_string(&model).unwrap();
            let back: ExecutionModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model, "{json}");
        }
    }
}
