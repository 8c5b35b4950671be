//! Per-round metrics: message counts, congestion, degrees, churn.
//!
//! Lemma 24 bounds the maintenance protocol's congestion by `O(log^3 n)`
//! messages per node and round; experiment E11 measures exactly the quantities
//! collected here.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::ids::{NodeId, Round};

/// Metrics of a single round.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct RoundMetrics {
    /// The round these metrics describe.
    pub round: Round,
    /// Number of nodes that executed this round.
    pub node_count: usize,
    /// Total messages sent this round.
    pub messages_sent: usize,
    /// Total messages delivered this round (sent last round to survivors).
    pub messages_delivered: usize,
    /// Messages dropped because the receiver left before delivery.
    pub messages_dropped: usize,
    /// Maximum messages sent by a single node.
    pub max_sent_per_node: usize,
    /// Maximum messages received by a single node (the congestion of Lemma 24).
    pub max_received_per_node: usize,
    /// Mean messages sent per node.
    pub mean_sent_per_node: f64,
    /// Mean messages received per node.
    pub mean_received_per_node: f64,
    /// Maximum number of *distinct* receivers contacted by one node (its
    /// out-degree in `G_t`; the model allows `O(log n)` new edges per round).
    pub max_out_degree: usize,
    /// Nodes that departed at the start of this round.
    pub departures: usize,
    /// Nodes that joined at the start of this round.
    pub joins: usize,
}

/// Accumulates per-node counters during a round and finalizes them into a
/// [`RoundMetrics`].
///
/// The builder holds only running totals and maxima — no per-node tables —
/// so recording a round's metrics performs no heap allocation (part of the
/// engine's zero-allocation round loop; see the "Performance model" chapter
/// of DESIGN.md). The engine steps every node exactly once per round, so
/// [`record_sent`](Self::record_sent) and
/// [`record_received`](Self::record_received) must be called **at most once
/// per node per round**: the `count` of a call is the node's whole-round
/// total, which feeds both the sum and the per-node maximum.
#[derive(Debug, Default)]
pub struct RoundMetricsBuilder {
    round: Round,
    total_sent: usize,
    total_received: usize,
    max_sent: usize,
    max_received: usize,
    max_out_degree: usize,
    node_count: usize,
    dropped: usize,
    departures: usize,
    joins: usize,
}

impl RoundMetricsBuilder {
    /// Starts collecting metrics for `round`.
    pub fn new(round: Round) -> Self {
        RoundMetricsBuilder {
            round,
            ..Default::default()
        }
    }

    /// Records churn applied at the start of the round.
    pub fn record_churn(&mut self, departures: usize, joins: usize) {
        self.departures = departures;
        self.joins = joins;
    }

    /// Records the number of nodes stepping this round.
    pub fn record_node_count(&mut self, n: usize) {
        self.node_count = n;
    }

    /// Records that one node received `count` messages this round (one call
    /// per node per round).
    pub fn record_received(&mut self, _node: NodeId, count: usize) {
        self.total_received += count;
        self.max_received = self.max_received.max(count);
    }

    /// Records a dropped message (receiver no longer exists).
    pub fn record_dropped(&mut self, count: usize) {
        self.dropped += count;
    }

    /// Records that one node sent `count` messages to `distinct` distinct
    /// peers this round (one call per node per round).
    pub fn record_sent(&mut self, _node: NodeId, count: usize, distinct: usize) {
        self.total_sent += count;
        self.max_sent = self.max_sent.max(count);
        self.max_out_degree = self.max_out_degree.max(distinct);
    }

    /// Finalizes the round's metrics.
    pub fn finish(self) -> RoundMetrics {
        let n = self.node_count.max(1);
        RoundMetrics {
            round: self.round,
            node_count: self.node_count,
            messages_sent: self.total_sent,
            messages_delivered: self.total_received,
            messages_dropped: self.dropped,
            max_sent_per_node: self.max_sent,
            max_received_per_node: self.max_received,
            mean_sent_per_node: self.total_sent as f64 / n as f64,
            mean_received_per_node: self.total_received as f64 / n as f64,
            max_out_degree: self.max_out_degree,
            departures: self.departures,
            joins: self.joins,
        }
    }
}

/// A compact whole-run digest of a [`MetricsHistory`]: totals and peaks only,
/// no per-round rows. This is what `BENCH_*.json` stores by default (the raw
/// history stays available behind `--full`), shrinking maintained-run
/// artifacts by two orders of magnitude.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSummary {
    /// Rounds recorded.
    pub rounds: usize,
    /// Total messages sent over the run.
    pub total_messages_sent: usize,
    /// Total messages delivered over the run.
    pub total_messages_delivered: usize,
    /// Total messages dropped (receiver departed before delivery).
    pub total_messages_dropped: usize,
    /// Largest per-node receive count of any round (the Lemma 24 congestion).
    pub peak_congestion: usize,
    /// Largest per-node send count of any round.
    pub peak_send_rate: usize,
    /// Largest single-round out-degree of any node.
    pub peak_out_degree: usize,
    /// Mean messages sent per node per round.
    pub mean_messages_per_node_round: f64,
    /// Total departures over the run.
    pub total_departures: usize,
    /// Total joins over the run.
    pub total_joins: usize,
}

/// The full metrics history of a run.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsHistory {
    rounds: Vec<RoundMetrics>,
}

impl MetricsHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty history with room for `rounds` rows preallocated.
    pub fn with_capacity(rounds: usize) -> Self {
        MetricsHistory {
            rounds: Vec::with_capacity(rounds),
        }
    }

    /// Ensures room for `additional` more rows, so a run of known length
    /// records every round into preallocated storage.
    pub fn reserve(&mut self, additional: usize) {
        self.rounds.reserve(additional);
    }

    /// Appends one round's metrics.
    pub fn push(&mut self, m: RoundMetrics) {
        self.rounds.push(m);
    }

    /// All recorded rounds, oldest first.
    pub fn rounds(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// The most recent round's metrics, if any.
    pub fn last(&self) -> Option<&RoundMetrics> {
        self.rounds.last()
    }

    /// The maximum per-node congestion (messages received by one node in one
    /// round) observed over the whole run — the quantity bounded by Lemma 24.
    pub fn peak_congestion(&self) -> usize {
        self.rounds
            .iter()
            .map(|m| m.max_received_per_node)
            .max()
            .unwrap_or(0)
    }

    /// The maximum per-node send rate observed over the whole run.
    pub fn peak_send_rate(&self) -> usize {
        self.rounds
            .iter()
            .map(|m| m.max_sent_per_node)
            .max()
            .unwrap_or(0)
    }

    /// Mean messages per node per round over the whole run.
    pub fn mean_messages_per_node_round(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.rounds.iter().map(|m| m.mean_sent_per_node).sum();
        sum / self.rounds.len() as f64
    }

    /// Total messages sent over the whole run.
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|m| m.messages_sent).sum()
    }

    /// Folds the whole history into its compact [`MetricsSummary`] digest.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            rounds: self.rounds.len(),
            total_messages_sent: self.total_messages(),
            total_messages_delivered: self.rounds.iter().map(|m| m.messages_delivered).sum(),
            total_messages_dropped: self.rounds.iter().map(|m| m.messages_dropped).sum(),
            peak_congestion: self.peak_congestion(),
            peak_send_rate: self.peak_send_rate(),
            peak_out_degree: self
                .rounds
                .iter()
                .map(|m| m.max_out_degree)
                .max()
                .unwrap_or(0),
            mean_messages_per_node_round: self.mean_messages_per_node_round(),
            total_departures: self.rounds.iter().map(|m| m.departures).sum(),
            total_joins: self.rounds.iter().map(|m| m.joins).sum(),
        }
    }
}

/// Folds one finished round's row into the scheduler-independent `proto.*`
/// observability names. Every scheduler policy calls this with its own
/// per-round rows, so a round-engine run and a (fully delivering) event- or
/// net-engine run of the same protocol produce byte-identical `proto.*`
/// counters — the cross-engine comparison `exp_profile` byte-checks.
pub fn record_round_obs(obs: &tsa_obs::ObsHandle, row: &RoundMetrics) {
    obs.add("proto.rounds", 1);
    obs.add("proto.sent", row.messages_sent as u64);
    obs.add("proto.delivered", row.messages_delivered as u64);
    obs.add("proto.dropped", row.messages_dropped as u64);
    obs.add("proto.departures", row.departures as u64);
    obs.add("proto.joins", row.joins as u64);
    obs.observe("proto.round_sent", row.messages_sent as u64);
    obs.observe("proto.node_count", row.node_count as u64);
    // Close the round in the deterministic stream: flight recorders use the
    // boundary for per-round attribution; aggregate recorders ignore it.
    obs.round_mark(row.round);
}

/// Whether a world keeps its per-round rows.
///
/// Every finished round folds into O(1) running accumulators plus a small
/// reservoir-sampled congestion distribution ([`StreamingMetrics`]) — that
/// is what every summary reads, in either mode. `Full` additionally keeps
/// each [`RoundMetrics`] row in a [`MetricsHistory`] — O(rounds) memory,
/// required for `--full` artifacts and per-round plots; `Streaming` does
/// not, which is what makes observability stop costing O(rounds) on very
/// large grids. The accumulator fold is pinned by test to the byte-identical
/// [`MetricsSummary`] digest the rows fold to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetricsMode {
    /// Keep the full per-round history (the default, and the only mode that
    /// can serve `--full` artifacts).
    #[default]
    Full,
    /// Keep the O(1) running accumulators and the sampled distribution only.
    Streaming,
}

impl MetricsMode {
    /// Whether this is the default `Full` mode (the serde skip predicate
    /// that keeps pre-existing scenario specs byte-stable).
    pub fn is_full(&self) -> bool {
        matches!(self, MetricsMode::Full)
    }
}

/// Capacity of the streaming congestion reservoir.
pub const RESERVOIR_CAPACITY: usize = 32;

/// The reservoir's fixed RNG seed: sampling depends only on the pushed
/// sequence, never on ambient randomness, so streaming runs stay
/// reproducible.
const RESERVOIR_SEED: u64 = 0x0b5e_c0de;

/// Uniform reservoir sampling (algorithm R) over a stream of values, with a
/// fixed-seed RNG: the retained sample is a deterministic function of the
/// pushed sequence.
#[derive(Clone, Debug)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<u64>,
    rng: ChaCha8Rng,
}

impl Reservoir {
    /// An empty reservoir retaining at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Reservoir {
            capacity,
            seen: 0,
            samples: Vec::with_capacity(capacity),
            rng: ChaCha8Rng::seed_from_u64(RESERVOIR_SEED),
        }
    }

    /// Offers one value to the reservoir.
    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.samples[j as usize] = value;
            }
        }
    }

    /// The retained samples (unordered beyond insertion/replacement order).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// O(1) streaming counterpart of a [`MetricsHistory`]: the running
/// accumulators needed to reproduce the exact [`MetricsSummary`] digest,
/// the most recent round's row (harness reports read `last()`), and a
/// reservoir-sampled distribution of per-round congestion.
///
/// The mean accumulates `mean_sent_per_node` left-to-right exactly as the
/// history's iterator fold does, so `summary()` is bit-identical to
/// `MetricsHistory::summary()` over the same rows — pinned by test.
#[derive(Clone, Debug)]
pub struct StreamingMetrics {
    rounds: usize,
    total_sent: usize,
    total_delivered: usize,
    total_dropped: usize,
    peak_congestion: usize,
    peak_send_rate: usize,
    peak_out_degree: usize,
    mean_sum: f64,
    total_departures: usize,
    total_joins: usize,
    last: Option<RoundMetrics>,
    congestion: Reservoir,
}

impl Default for StreamingMetrics {
    fn default() -> Self {
        StreamingMetrics {
            rounds: 0,
            total_sent: 0,
            total_delivered: 0,
            total_dropped: 0,
            peak_congestion: 0,
            peak_send_rate: 0,
            peak_out_degree: 0,
            mean_sum: 0.0,
            total_departures: 0,
            total_joins: 0,
            last: None,
            congestion: Reservoir::new(RESERVOIR_CAPACITY),
        }
    }
}

impl StreamingMetrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished round in (the streaming analogue of
    /// [`MetricsHistory::push`]).
    pub fn push(&mut self, m: RoundMetrics) {
        self.rounds += 1;
        self.total_sent += m.messages_sent;
        self.total_delivered += m.messages_delivered;
        self.total_dropped += m.messages_dropped;
        self.peak_congestion = self.peak_congestion.max(m.max_received_per_node);
        self.peak_send_rate = self.peak_send_rate.max(m.max_sent_per_node);
        self.peak_out_degree = self.peak_out_degree.max(m.max_out_degree);
        self.mean_sum += m.mean_sent_per_node;
        self.total_departures += m.departures;
        self.total_joins += m.joins;
        self.congestion.push(m.max_received_per_node as u64);
        self.last = Some(m);
    }

    /// Rounds folded so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The most recent round's metrics, if any.
    pub fn last(&self) -> Option<&RoundMetrics> {
        self.last.as_ref()
    }

    /// The digest — bit-identical to `MetricsHistory::summary()` over the
    /// same rows.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            rounds: self.rounds,
            total_messages_sent: self.total_sent,
            total_messages_delivered: self.total_delivered,
            total_messages_dropped: self.total_dropped,
            peak_congestion: self.peak_congestion,
            peak_send_rate: self.peak_send_rate,
            peak_out_degree: self.peak_out_degree,
            mean_messages_per_node_round: if self.rounds == 0 {
                0.0
            } else {
                self.mean_sum / self.rounds as f64
            },
            total_departures: self.total_departures,
            total_joins: self.total_joins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_aggregates_counters() {
        let mut b = RoundMetricsBuilder::new(3);
        b.record_node_count(2);
        b.record_churn(1, 2);
        b.record_sent(NodeId(1), 5, 3);
        b.record_sent(NodeId(2), 1, 1);
        b.record_received(NodeId(1), 4);
        b.record_received(NodeId(2), 2);
        b.record_dropped(7);
        let m = b.finish();
        assert_eq!(m.round, 3);
        assert_eq!(m.messages_sent, 6);
        assert_eq!(m.messages_delivered, 6);
        assert_eq!(m.messages_dropped, 7);
        assert_eq!(m.max_sent_per_node, 5);
        assert_eq!(m.max_received_per_node, 4);
        assert_eq!(m.max_out_degree, 3);
        assert_eq!(m.departures, 1);
        assert_eq!(m.joins, 2);
        assert!((m.mean_sent_per_node - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_builder_finishes_to_zeros() {
        let m = RoundMetricsBuilder::new(0).finish();
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.max_received_per_node, 0);
        assert_eq!(m.mean_sent_per_node, 0.0);
    }

    #[test]
    fn history_summaries() {
        let mut h = MetricsHistory::new();
        for (r, recv) in [(0u64, 3usize), (1, 9), (2, 5)] {
            let mut b = RoundMetricsBuilder::new(r);
            b.record_node_count(4);
            b.record_received(NodeId(1), recv);
            b.record_sent(NodeId(1), recv, recv);
            h.push(b.finish());
        }
        assert_eq!(h.rounds().len(), 3);
        assert_eq!(h.peak_congestion(), 9);
        assert_eq!(h.peak_send_rate(), 9);
        assert_eq!(h.total_messages(), 17);
        assert_eq!(h.last().unwrap().round, 2);
        assert!(h.mean_messages_per_node_round() > 0.0);
    }

    #[test]
    fn summary_folds_totals_and_peaks() {
        let mut h = MetricsHistory::new();
        for (r, recv) in [(0u64, 3usize), (1, 9), (2, 5)] {
            let mut b = RoundMetricsBuilder::new(r);
            b.record_node_count(4);
            b.record_churn(1, 2);
            b.record_received(NodeId(1), recv);
            b.record_sent(NodeId(1), recv, recv);
            b.record_dropped(1);
            h.push(b.finish());
        }
        let s = h.summary();
        assert_eq!(s.rounds, 3);
        assert_eq!(s.total_messages_sent, 17);
        assert_eq!(s.total_messages_delivered, 17);
        assert_eq!(s.total_messages_dropped, 3);
        assert_eq!(s.peak_congestion, 9);
        assert_eq!(s.peak_send_rate, 9);
        assert_eq!(s.peak_out_degree, 9);
        assert_eq!(s.total_departures, 3);
        assert_eq!(s.total_joins, 6);
        assert_eq!(MetricsHistory::new().summary(), MetricsSummary::default());
    }

    #[test]
    fn empty_history_is_safe() {
        let h = MetricsHistory::new();
        assert_eq!(h.peak_congestion(), 0);
        assert_eq!(h.mean_messages_per_node_round(), 0.0);
        assert!(h.last().is_none());
    }

    fn varied_rows(rounds: usize) -> Vec<RoundMetrics> {
        (0..rounds)
            .map(|r| {
                let mut b = RoundMetricsBuilder::new(r as u64);
                b.record_node_count(3 + r % 5);
                b.record_churn(r % 2, r % 3);
                b.record_received(NodeId(1), (r * 7) % 11);
                b.record_sent(NodeId(1), (r * 5) % 13, (r * 3) % 7);
                b.record_dropped(r % 4);
                b.finish()
            })
            .collect()
    }

    #[test]
    fn streaming_digest_is_bit_identical_to_full() {
        for rounds in [0usize, 1, 3, 50, 200] {
            let mut h = MetricsHistory::new();
            let mut s = StreamingMetrics::new();
            for row in varied_rows(rounds) {
                h.push(row.clone());
                s.push(row);
            }
            let (full, streaming) = (h.summary(), s.summary());
            assert_eq!(full, streaming, "digest diverged at {rounds} rounds");
            // Bit-identical, not just PartialEq: the serialized artifact
            // bytes are the contract.
            assert_eq!(
                full.mean_messages_per_node_round.to_bits(),
                streaming.mean_messages_per_node_round.to_bits()
            );
            assert_eq!(s.rounds(), rounds);
            assert_eq!(
                s.last().map(|m| m.round),
                h.last().map(|m| m.round),
                "streaming keeps the last row for harness reports"
            );
        }
    }

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let mut a = Reservoir::new(4);
        let mut b = Reservoir::new(4);
        for v in 0..1000u64 {
            a.push(v);
            b.push(v);
        }
        assert_eq!(a.samples(), b.samples(), "fixed seed, fixed sequence");
        assert_eq!(a.samples().len(), 4);
        assert_eq!(a.seen(), 1000);
        // Replacement actually happens: after 1000 offers the reservoir is
        // overwhelmingly unlikely to still hold the first four values.
        assert_ne!(a.samples(), &[0, 1, 2, 3]);
        // All retained values came from the stream.
        assert!(a.samples().iter().all(|&v| v < 1000));
    }

    #[test]
    fn metrics_mode_default_and_predicate() {
        assert_eq!(MetricsMode::default(), MetricsMode::Full);
        assert!(MetricsMode::Full.is_full());
        assert!(!MetricsMode::Streaming.is_full());
    }
}
