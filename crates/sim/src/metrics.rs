//! Per-round metrics: message counts, congestion, degrees, churn.
//!
//! Lemma 24 bounds the maintenance protocol's congestion by `O(log^3 n)`
//! messages per node and round; experiment E11 measures exactly the quantities
//! collected here, at three levels with one fold between each:
//!
//! * a round accumulates straight into its [`RoundMetrics`] row;
//! * a run folds its rows into a [`MetricsSummary`] digest through
//!   [`StreamingMetrics`], the only code that does;
//! * a [`MetricsHistory`] stores the rows themselves (under
//!   [`MetricsMode::Full`]), and its [`summary`](MetricsHistory::summary)
//!   re-folds them through the same [`StreamingMetrics`].

use crate::ids::Round;

/// Metrics of a single round.
///
/// A row is filled while its round runs: [`new`](Self::new), then the
/// round's counts — [`record_received`](Self::record_received) and
/// [`record_sent`](Self::record_sent) once per node, the other counts by
/// assignment — then [`finish`](Self::finish). It holds only totals and
/// maxima, no per-node tables, so recording a round performs no heap
/// allocation (part of the engine's zero-allocation round loop; see the
/// "Performance model" chapter of DESIGN.md).
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

impl RoundMetrics {
    /// An empty row for `round`.
    pub fn new(round: Round) -> Self {
        RoundMetrics {
            round,
            ..Default::default()
        }
    }

    /// Records that one node received `count` messages this round. Call at
    /// most once per node: `count` is the node's whole-round total, which
    /// feeds both the sum and the per-node maximum.
    pub fn record_received(&mut self, count: usize) {
        self.messages_delivered += count;
        self.max_received_per_node = self.max_received_per_node.max(count);
    }

    /// Records that one node sent `count` messages to `distinct` distinct
    /// peers this round. Call at most once per node, like
    /// [`record_received`](Self::record_received).
    pub fn record_sent(&mut self, count: usize, distinct: usize) {
        self.messages_sent += count;
        self.max_sent_per_node = self.max_sent_per_node.max(count);
        self.max_out_degree = self.max_out_degree.max(distinct);
    }

    /// Closes the row: derives the per-node means from the totals and
    /// `node_count`.
    pub fn finish(mut self) -> Self {
        let n = self.node_count.max(1) as f64;
        self.mean_sent_per_node = self.messages_sent as f64 / n;
        self.mean_received_per_node = self.messages_delivered as f64 / n;
        self
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

/// The full metrics history of a run: its rows, oldest first.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsHistory {
    rounds: Vec<RoundMetrics>,
}

impl MetricsHistory {
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

    /// Folds the rows into their [`MetricsSummary`] digest, through the same
    /// [`StreamingMetrics`] a running world folds them with.
    pub fn summary(&self) -> MetricsSummary {
        let mut fold = StreamingMetrics::default();
        for row in &self.rounds {
            fold.push(row.clone());
        }
        fold.summary()
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
/// Every finished round folds into a [`StreamingMetrics`] in either mode —
/// that is what every summary reads. `Full` additionally keeps each
/// [`RoundMetrics`] row in a [`MetricsHistory`] — O(rounds) memory, required
/// for `--full` artifacts and per-round plots; `Streaming` does not, which
/// is what makes observability stop costing O(rounds) on very large grids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetricsMode {
    /// Keep the full per-round history (the default, and the only mode that
    /// can serve `--full` artifacts).
    #[default]
    Full,
    /// Keep the running digest and the last row only.
    Streaming,
}

impl MetricsMode {
    /// Whether this is the default `Full` mode (the serde skip predicate
    /// that keeps pre-existing scenario specs byte-stable).
    pub fn is_full(&self) -> bool {
        matches!(self, MetricsMode::Full)
    }
}

/// The one fold from [`RoundMetrics`] rows to a [`MetricsSummary`], in O(1)
/// memory: the digest in progress, the running sum behind its mean, and the
/// most recent row (harness reports read `last()`).
///
/// The mean sums `mean_sent_per_node` left to right, row by row, so the
/// digest depends only on the rows and their order.
#[derive(Clone, Debug, Default)]
pub struct StreamingMetrics {
    summary: MetricsSummary,
    mean_sum: f64,
    last: Option<RoundMetrics>,
}

impl StreamingMetrics {
    /// Folds one finished round in.
    pub fn push(&mut self, m: RoundMetrics) {
        let s = &mut self.summary;
        s.rounds += 1;
        s.total_messages_sent += m.messages_sent;
        s.total_messages_delivered += m.messages_delivered;
        s.total_messages_dropped += m.messages_dropped;
        s.peak_congestion = s.peak_congestion.max(m.max_received_per_node);
        s.peak_send_rate = s.peak_send_rate.max(m.max_sent_per_node);
        s.peak_out_degree = s.peak_out_degree.max(m.max_out_degree);
        s.total_departures += m.departures;
        s.total_joins += m.joins;
        self.mean_sum += m.mean_sent_per_node;
        self.last = Some(m);
    }

    /// The most recent round's metrics, if any.
    pub fn last(&self) -> Option<&RoundMetrics> {
        self.last.as_ref()
    }

    /// The digest of every round folded so far.
    pub fn summary(&self) -> MetricsSummary {
        let rounds = self.summary.rounds;
        MetricsSummary {
            mean_messages_per_node_round: if rounds == 0 {
                0.0
            } else {
                self.mean_sum / rounds as f64
            },
            ..self.summary
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aggregates_counters() {
        let mut m = RoundMetrics::new(3);
        m.node_count = 2;
        m.departures = 1;
        m.joins = 2;
        m.record_sent(5, 3);
        m.record_sent(1, 1);
        m.record_received(4);
        m.record_received(2);
        m.messages_dropped = 7;
        let m = m.finish();
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
    fn empty_row_finishes_to_zeros() {
        let m = RoundMetrics::new(0).finish();
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.max_received_per_node, 0);
        assert_eq!(m.mean_sent_per_node, 0.0);
    }

    #[test]
    fn summary_folds_totals_and_peaks() {
        let empty = MetricsHistory::default();
        assert_eq!(empty.summary(), MetricsSummary::default());
        assert!(empty.last().is_none());

        let mut h = MetricsHistory::default();
        for (r, recv) in [(0u64, 3usize), (1, 9), (2, 5)] {
            let mut m = RoundMetrics::new(r);
            m.node_count = 4;
            m.departures = 1;
            m.joins = 2;
            m.record_received(recv);
            m.record_sent(recv, recv);
            m.messages_dropped = 1;
            h.push(m.finish());
        }
        assert_eq!(h.rounds().len(), 3);
        assert_eq!(h.last().unwrap().round, 2);
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
        // Per-round means 3/4, 9/4, 5/4, averaged over the three rounds.
        assert_eq!(s.mean_messages_per_node_round, (0.75 + 2.25 + 1.25) / 3.0);
    }

    #[test]
    fn metrics_mode_default_and_predicate() {
        assert_eq!(MetricsMode::default(), MetricsMode::Full);
        assert!(MetricsMode::Full.is_full());
        assert!(!MetricsMode::Streaming.is_full());
    }
}
