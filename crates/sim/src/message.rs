//! Message envelopes.
//!
//! A message sent in round `t` is received at the beginning of round `t + 1`
//! (Section 1.1). Sending a message implicitly creates a directed edge of the
//! communication graph `G_t`, which is exactly the information the
//! `(a,b)`-late adversary observes with lateness `a`.

use crate::ids::{NodeId, Round};

/// A message in flight, together with its routing metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// The sender.
    pub from: NodeId,
    /// The receiver.
    pub to: NodeId,
    /// The round in which the message was sent; it is delivered in `sent_at + 1`.
    pub sent_at: Round,
    /// The protocol-level payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Creates a new envelope.
    pub fn new(from: NodeId, to: NodeId, sent_at: Round, payload: M) -> Self {
        Envelope {
            from,
            to,
            sent_at,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_carries_metadata() {
        let e = Envelope::new(NodeId(5), NodeId(6), 12, 99u8);
        assert_eq!(e.from, NodeId(5));
        assert_eq!(e.to, NodeId(6));
        assert_eq!(e.sent_at, 12);
        assert_eq!(e.payload, 99);
    }
}
