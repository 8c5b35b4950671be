//! Protocol messages of `A_LDS` and `A_RANDOM` (Listings 3 and 4).

use tsa_event::FaultAdapter;
use tsa_net::{CodecError, Wire, WireReader};
use tsa_sim::NodeId;

/// A message of the maintenance protocol.
///
/// Positions are carried as raw `f64` values (they are always in `[0,1)`);
/// every message is `Copy` and a few dozen bytes, matching the model's
/// `O(polylog n)`-bit budget per edge and round. On the `tsa-net` wire it
/// travels in exactly that layout: its [`MsgKind::tag`] as one byte, then its
/// fields in declaration order, little-endian, floats as `to_bits` — 9 to 33
/// bytes (see the [`Wire`] impl).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolMsg {
    /// Introduction: "`node` sits at `position` in overlay epoch `epoch` and is
    /// one of your neighbours there" (the `CREATE` message of Listing 3).
    Create {
        /// The introduced neighbour.
        node: NodeId,
        /// The overlay epoch the introduction is for.
        epoch: u64,
        /// The neighbour's position in that epoch.
        position: f64,
    },
    /// A join announcement spread within the target neighbourhood after a join
    /// request was delivered (the `JOIN` message exchanged between overlay
    /// members in Listing 3).
    AnnounceJoin {
        /// The (re-)joining node.
        node: NodeId,
        /// The epoch whose overlay the node will be part of.
        epoch: u64,
        /// The node's position in that epoch (`h(node, epoch)`).
        position: f64,
    },
    /// An in-flight join request travelling along its trajectory
    /// (`A_ROUTING` applied to a `JOIN`).
    RouteJoin {
        /// The (re-)joining node.
        node: NodeId,
        /// The overlay epoch the join is destined for.
        target_epoch: u64,
        /// Number of de Bruijn steps already taken.
        step: u32,
        /// The current trajectory point `x_step`.
        point: f64,
    },
    /// An in-flight token travelling to a uniformly random node
    /// (`A_SAMPLING` applied to a `TOKEN`, Listing 4).
    RouteToken {
        /// The mature node whose identifier the token carries.
        owner: NodeId,
        /// The offset `Δ ∈ [0, 2cλ]` used by the sampling delivery rule.
        delta: u32,
        /// The uniformly random target point.
        target: f64,
        /// Number of de Bruijn steps already taken.
        step: u32,
        /// The current trajectory point.
        point: f64,
    },
    /// A token handed directly to a node (either the sampling delivery, a
    /// forward to a connect-slot occupant, or the supply given to a newly
    /// joined node).
    Token {
        /// The mature node the token points to.
        owner: NodeId,
    },
    /// A fresh node announcing itself to a mature node picked from its tokens
    /// (the `CONNECT` message of Listing 4).
    Connect {
        /// The fresh node that wants to be known.
        node: NodeId,
    },
}

impl ProtocolMsg {
    /// A short tag used by metrics and tests.
    pub fn kind(&self) -> MsgKind {
        match self {
            ProtocolMsg::Create { .. } => MsgKind::Create,
            ProtocolMsg::AnnounceJoin { .. } => MsgKind::AnnounceJoin,
            ProtocolMsg::RouteJoin { .. } => MsgKind::RouteJoin,
            ProtocolMsg::RouteToken { .. } => MsgKind::RouteToken,
            ProtocolMsg::Token { .. } => MsgKind::Token,
            ProtocolMsg::Connect { .. } => MsgKind::Connect,
        }
    }

    /// The [`FaultAdapter`] wiring this message type into the engines'
    /// fault-injection machinery: kind tags for
    /// [`FaultRule::kinds`](tsa_event::FaultRule) matching, and a mutator
    /// that corrupts position and trajectory claims (but never identities,
    /// receivers or message kinds — the delivery facts the twin trace
    /// depends on).
    pub fn fault_adapter() -> FaultAdapter<ProtocolMsg> {
        FaultAdapter {
            kind_of: |m| m.kind().tag(),
            mutate: mutate_msg,
        }
    }
}

impl Wire for ProtocolMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.kind().tag());
        match *self {
            ProtocolMsg::Create {
                node,
                epoch,
                position,
            }
            | ProtocolMsg::AnnounceJoin {
                node,
                epoch,
                position,
            } => {
                node.encode(out);
                epoch.encode(out);
                position.encode(out);
            }
            ProtocolMsg::RouteJoin {
                node,
                target_epoch,
                step,
                point,
            } => {
                node.encode(out);
                target_epoch.encode(out);
                step.encode(out);
                point.encode(out);
            }
            ProtocolMsg::RouteToken {
                owner,
                delta,
                target,
                step,
                point,
            } => {
                owner.encode(out);
                delta.encode(out);
                target.encode(out);
                step.encode(out);
                point.encode(out);
            }
            ProtocolMsg::Token { owner: node } | ProtocolMsg::Connect { node } => node.encode(out),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        // The tags are `MsgKind::tag`'s. Struct fields are evaluated in the
        // order written, which is the order `encode` writes them in.
        Ok(match r.u8()? {
            0 => ProtocolMsg::Create {
                node: r.read()?,
                epoch: r.read()?,
                position: r.read()?,
            },
            1 => ProtocolMsg::AnnounceJoin {
                node: r.read()?,
                epoch: r.read()?,
                position: r.read()?,
            },
            2 => ProtocolMsg::RouteJoin {
                node: r.read()?,
                target_epoch: r.read()?,
                step: r.read()?,
                point: r.read()?,
            },
            3 => ProtocolMsg::RouteToken {
                owner: r.read()?,
                delta: r.read()?,
                target: r.read()?,
                step: r.read()?,
                point: r.read()?,
            },
            4 => ProtocolMsg::Token { owner: r.read()? },
            5 => ProtocolMsg::Connect { node: r.read()? },
            _ => return Err(CodecError::Malformed("unknown message tag")),
        })
    }
}

/// A uniform `[0,1)` value derived from the fault entropy word, salted per
/// field so one mutated message's fields decorrelate.
fn entropy_unit(entropy: u64, salt: u64) -> f64 {
    (tsa_sim::rng::mix(&[entropy, salt]) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Corrupts the payload *claims* of a message in place: positions,
/// trajectory points and sampling targets are replaced by entropy-derived
/// ring positions. Identity-only messages (`Token`, `Connect`) are left
/// untouched — mutating an identifier would invent a node, which is a
/// different adversary than a corrupted claim.
fn mutate_msg(msg: &mut ProtocolMsg, entropy: u64) -> bool {
    match msg {
        ProtocolMsg::Create { position, .. } | ProtocolMsg::AnnounceJoin { position, .. } => {
            *position = entropy_unit(entropy, 0);
            true
        }
        ProtocolMsg::RouteJoin { point, .. } => {
            *point = entropy_unit(entropy, 1);
            true
        }
        ProtocolMsg::RouteToken { target, point, .. } => {
            *target = entropy_unit(entropy, 2);
            *point = entropy_unit(entropy, 3);
            true
        }
        ProtocolMsg::Token { .. } | ProtocolMsg::Connect { .. } => false,
    }
}

/// The six message kinds of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Neighbour introduction.
    Create,
    /// Join announcement spread inside a neighbourhood.
    AnnounceJoin,
    /// In-flight join request.
    RouteJoin,
    /// In-flight sampling token.
    RouteToken,
    /// Directly delivered token.
    Token,
    /// Fresh-node connect request.
    Connect,
}

impl MsgKind {
    /// The stable numeric tag fault rules match against
    /// ([`FaultRule::kinds`](tsa_event::FaultRule)).
    pub fn tag(&self) -> u8 {
        match self {
            MsgKind::Create => 0,
            MsgKind::AnnounceJoin => 1,
            MsgKind::RouteJoin => 2,
            MsgKind::RouteToken => 3,
            MsgKind::Token => 4,
            MsgKind::Connect => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_sim::Envelope;

    #[test]
    fn kinds_match_variants() {
        assert_eq!(
            ProtocolMsg::Create {
                node: NodeId(1),
                epoch: 2,
                position: 0.5
            }
            .kind(),
            MsgKind::Create
        );
        assert_eq!(
            ProtocolMsg::Token { owner: NodeId(1) }.kind(),
            MsgKind::Token
        );
        assert_eq!(
            ProtocolMsg::Connect { node: NodeId(1) }.kind(),
            MsgKind::Connect
        );
        assert_eq!(
            ProtocolMsg::RouteJoin {
                node: NodeId(1),
                target_epoch: 3,
                step: 0,
                point: 0.1
            }
            .kind(),
            MsgKind::RouteJoin
        );
        assert_eq!(
            ProtocolMsg::RouteToken {
                owner: NodeId(1),
                delta: 0,
                target: 0.2,
                step: 1,
                point: 0.3
            }
            .kind(),
            MsgKind::RouteToken
        );
        assert_eq!(
            ProtocolMsg::AnnounceJoin {
                node: NodeId(1),
                epoch: 1,
                position: 0.4
            }
            .kind(),
            MsgKind::AnnounceJoin
        );
    }

    /// One message of every variant, with the float fields at `f`.
    fn every_variant(f: f64) -> [ProtocolMsg; 6] {
        let node = NodeId(u64::MAX - 1);
        [
            ProtocolMsg::Create {
                node,
                epoch: u64::MAX,
                position: f,
            },
            ProtocolMsg::AnnounceJoin {
                node,
                epoch: 1,
                position: -f,
            },
            ProtocolMsg::RouteJoin {
                node,
                target_epoch: 2,
                step: u32::MAX,
                point: f,
            },
            ProtocolMsg::RouteToken {
                owner: node,
                delta: 7,
                target: f,
                step: 3,
                point: -f,
            },
            ProtocolMsg::Token { owner: node },
            ProtocolMsg::Connect { node: NodeId(0) },
        ]
    }

    fn frame(msg: ProtocolMsg) -> Vec<u8> {
        let mut out = Vec::new();
        tsa_net::encode_wire_frame(9, &Envelope::new(NodeId(1), NodeId(2), 3, msg), &mut out);
        out
    }

    fn decode(frame: &[u8]) -> Result<ProtocolMsg, tsa_net::CodecError> {
        let body = &frame[tsa_net::FRAME_HEADER_LEN..];
        tsa_net::decode_wire_value(body).map(|(_, env): (u64, Envelope<_>)| env.payload)
    }

    #[test]
    fn every_variant_round_trips_bit_exactly_on_the_wire() {
        let floats = [
            0.328_125,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(1),
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // quiet NaN with a payload
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
        ];
        for f in floats {
            for msg in every_variant(f) {
                let bytes = frame(msg);
                let back = decode(&bytes).expect("a valid frame decodes");
                assert_eq!(back.kind(), msg.kind());
                // Byte equality of the re-encoding is field-by-field bit
                // equality, NaNs and the sign of zero included.
                assert_eq!(frame(back), bytes, "{msg:?}");
                if !f.is_nan() {
                    assert_eq!(back, msg);
                }
            }
        }
    }

    #[test]
    fn each_variant_has_its_fixed_frame_length() {
        // 4 B length, 4 × 8 B envelope words, 1 B tag, then the fields.
        let lengths = [61, 61, 65, 69, 45, 45];
        for (msg, len) in every_variant(0.5).into_iter().zip(lengths) {
            assert_eq!(frame(msg).len(), len, "{msg:?}");
        }
    }

    #[test]
    fn an_unknown_tag_is_malformed() {
        let tag_at = tsa_net::FRAME_HEADER_LEN + 4 * 8;
        for msg in every_variant(0.5) {
            let mut bytes = frame(msg);
            assert_eq!(bytes[tag_at], msg.kind().tag());
            for tag in 6..=u8::MAX {
                bytes[tag_at] = tag;
                assert_eq!(
                    decode(&bytes),
                    Err(tsa_net::CodecError::Malformed("unknown message tag")),
                    "tag {tag}"
                );
            }
        }
    }

    #[test]
    fn messages_are_small() {
        // The model allows O(polylog n) bits per message; our envelope is a
        // handful of machine words.
        assert!(std::mem::size_of::<ProtocolMsg>() <= 48);
    }
}
