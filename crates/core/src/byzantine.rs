//! Byzantine node roles: nodes that fail by *lying* instead of leaving.
//!
//! The paper's adversary only churns nodes; every surviving node runs the
//! protocol faithfully. A byzantine node keeps the protocol's cadence (so
//! the engines need no scheduling changes) but misbehaves inside its own
//! activation: it rewrites the claims its honest machinery queued, discards
//! messages it was supposed to forward, or answers introduction machinery
//! with bogus identities. Which nodes are byzantine is a pure function of
//! the node id ([`ByzantineSpec::is_byzantine`]), so the role assignment is
//! identical on all three engines, across churn, and at any thread cap.

use serde::{Deserialize, Serialize};
use tsa_sim::NodeId;

/// The misbehavior a byzantine node runs every activation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MisbehaviorKind {
    /// Announces positions two epochs stale: every position claim in an
    /// outgoing `CREATE` or `AnnounceJoin` is evaluated at `epoch - 2`
    /// instead of the epoch the message names.
    StaleClaims,
    /// Forges positions: every outgoing position claim is moved to the
    /// antipodal point of the ring (`(p + 0.5) mod 1`).
    ForgedPosition,
    /// Selective forwarding: silently discards every in-flight `RouteJoin`
    /// and `RouteToken` it should have forwarded.
    SelectiveForward,
    /// Bogus CREATE/CONNECT replies: every outgoing `Create` and `Token`
    /// names the byzantine node itself instead of the real neighbour or
    /// token owner.
    BogusReplies,
}

impl MisbehaviorKind {
    /// Every misbehavior, in sweep order.
    pub const ALL: [MisbehaviorKind; 4] = [
        MisbehaviorKind::StaleClaims,
        MisbehaviorKind::ForgedPosition,
        MisbehaviorKind::SelectiveForward,
        MisbehaviorKind::BogusReplies,
    ];

    /// A compact label for tables and sweep axes.
    pub fn label(&self) -> &'static str {
        match self {
            MisbehaviorKind::StaleClaims => "stale",
            MisbehaviorKind::ForgedPosition => "forged",
            MisbehaviorKind::SelectiveForward => "selfwd",
            MisbehaviorKind::BogusReplies => "bogus",
        }
    }
}

/// Which nodes are byzantine, and what they do: a `num/den` fraction of the
/// id space runs `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByzantineSpec {
    /// Numerator of the byzantine fraction.
    pub num: u64,
    /// Denominator of the byzantine fraction.
    pub den: u64,
    /// The misbehavior every byzantine node runs.
    pub kind: MisbehaviorKind,
}

impl ByzantineSpec {
    /// A spec making every node whose id falls in the `num/den` residue
    /// slice run `kind`.
    pub fn fraction(num: u64, den: u64, kind: MisbehaviorKind) -> Self {
        ByzantineSpec { num, den, kind }
    }

    /// `true` if `id` takes the byzantine role. Ids are assigned densely by
    /// the engines, so taking residues `< num` modulo `den` spreads the
    /// byzantine fraction evenly over the id space — a pure function of the
    /// id, identical on every engine and stable across churn (a rejoining
    /// id keeps its role).
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        self.num > 0 && id.raw() % self.den.max(1) < self.num
    }

    /// A compact label, e.g. `byz1/8-selfwd`.
    pub fn label(&self) -> String {
        format!("byz{}/{}-{}", self.num, self.den, self.kind.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fraction_slices_the_id_space_evenly() {
        let spec = ByzantineSpec::fraction(1, 4, MisbehaviorKind::SelectiveForward);
        let byz = (0..1000u64)
            .filter(|&i| spec.is_byzantine(NodeId(i)))
            .count();
        assert_eq!(byz, 250, "1/4 of a dense id range is byzantine");
        assert!(spec.is_byzantine(NodeId(0)));
        assert!(!spec.is_byzantine(NodeId(1)));
        assert!(spec.is_byzantine(NodeId(4)));
    }

    #[test]
    fn zero_fraction_marks_nobody() {
        let spec = ByzantineSpec::fraction(0, 8, MisbehaviorKind::StaleClaims);
        assert!((0..1000u64).all(|i| !spec.is_byzantine(NodeId(i))));
    }

    #[test]
    fn degenerate_denominators_never_panic() {
        let spec = ByzantineSpec::fraction(1, 0, MisbehaviorKind::BogusReplies);
        // den 0 is treated as 1: everything byzantine, nothing panics.
        assert!(spec.is_byzantine(NodeId(7)));
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(
            ByzantineSpec::fraction(1, 8, MisbehaviorKind::SelectiveForward).label(),
            "byz1/8-selfwd"
        );
        assert_eq!(MisbehaviorKind::StaleClaims.label(), "stale");
        assert_eq!(MisbehaviorKind::ForgedPosition.label(), "forged");
        assert_eq!(MisbehaviorKind::BogusReplies.label(), "bogus");
    }

    #[test]
    fn specs_round_trip_through_serde() {
        for kind in MisbehaviorKind::ALL {
            let spec = ByzantineSpec::fraction(3, 16, kind);
            let json = serde_json::to_string(&spec).expect("spec serializes");
            let back: ByzantineSpec = serde_json::from_str(&json).expect("spec deserializes");
            assert_eq!(spec, back);
        }
    }
}
