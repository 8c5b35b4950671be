//! Per-message fate traces: record a run on one engine, replay it on a twin.
//!
//! A [`MessageTrace`] pins down the one degree of freedom that separates the
//! deterministic engines from a real transport: *what happened to each
//! message*. Indexed by the global send sequence number — which both the
//! [`EventSimulator`](crate::EventSimulator) and the `tsa-net` loopback
//! runner assign identically (in activation id order within each round) — a
//! trace says for every message whether it was lost or delivered, and if
//! delivered, at which round boundary its receiver read it.
//!
//! Recorded on the real transport and replayed as a fixed-fate schedule in
//! the event engine, the trace turns wall-clock nondeterminism into data: if
//! the replay reproduces the recorded run's protocol state, the transport
//! run was *some* valid execution of the deterministic model.

use serde::{Deserialize, Serialize};
use tsa_sim::Round;

/// What ultimately happened to one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageFate {
    /// The message reached its receiver's inbox in time for the activation
    /// at round `at_round` (or was dropped there because the receiver had
    /// departed — the engines distinguish those at delivery, not in the
    /// trace).
    Delivered {
        /// The round boundary at which the message was read.
        at_round: Round,
    },
    /// The message never reached an inbox: dropped by the loss model, failed
    /// at the socket, or still in flight when the run ended.
    Lost,
}

/// A per-message fate schedule, indexed by global send sequence number.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageTrace {
    fates: Vec<MessageFate>,
}

impl MessageTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the fate of message `seq`, overwriting any earlier record.
    ///
    /// Gaps are filled with [`MessageFate::Lost`], so a recorder may register
    /// deliveries out of order (as a real transport observes them) and leave
    /// in-flight messages implicitly lost.
    ///
    /// # Panics
    ///
    /// If `seq + 1` entries do not fit a `usize` — a panic with a message,
    /// never a wrap that would truncate the trace.
    pub fn record(&mut self, seq: u64, fate: MessageFate) {
        let idx = usize::try_from(seq)
            .ok()
            .filter(|idx| idx.checked_add(1).is_some())
            .unwrap_or_else(|| panic!("message seq {seq} is beyond any trace"));
        if idx >= self.fates.len() {
            self.fates.resize(idx + 1, MessageFate::Lost);
        }
        self.fates[idx] = fate;
    }

    /// The fate of message `seq`, if the trace extends that far.
    pub fn fate(&self, seq: u64) -> Option<MessageFate> {
        self.fates.get(seq as usize).copied()
    }

    /// Number of messages the trace covers.
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// Whether the trace covers no messages.
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }

    /// Number of recorded deliveries.
    pub fn delivered_count(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, MessageFate::Delivered { .. }))
            .count()
    }

    /// Number of recorded losses.
    pub fn lost_count(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, MessageFate::Lost))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_fill_as_lost_and_records_overwrite() {
        let mut trace = MessageTrace::new();
        trace.record(2, MessageFate::Delivered { at_round: 5 });
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.fate(0), Some(MessageFate::Lost));
        assert_eq!(trace.fate(1), Some(MessageFate::Lost));
        assert_eq!(trace.fate(2), Some(MessageFate::Delivered { at_round: 5 }));
        assert_eq!(trace.fate(3), None);
        trace.record(0, MessageFate::Delivered { at_round: 1 });
        assert_eq!(trace.fate(0), Some(MessageFate::Delivered { at_round: 1 }));
        assert_eq!(trace.delivered_count(), 2);
        assert_eq!(trace.lost_count(), 1);
    }

    #[test]
    #[should_panic(expected = "message seq 18446744073709551615 is beyond any trace")]
    fn the_last_seq_is_refused_instead_of_wrapping() {
        let mut trace = MessageTrace::new();
        trace.record(1, MessageFate::Lost);
        trace.record(u64::MAX, MessageFate::Lost);
    }

    #[test]
    fn traces_round_trip_through_serde() {
        let mut trace = MessageTrace::new();
        trace.record(0, MessageFate::Delivered { at_round: 3 });
        trace.record(1, MessageFate::Lost);
        let json = serde_json::to_string(&trace).unwrap();
        let back: MessageTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }
}
