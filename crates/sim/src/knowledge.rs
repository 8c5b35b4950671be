//! The `(a,b)`-late omniscient adversary's view of the network.
//!
//! Section 1.1 defines the adversary's knowledge: in round `t` it has *full
//! knowledge of the topology* (the communication graphs `G_0, …, G_{t-a}`) and
//! *complete knowledge* — internal states, random choices, message contents —
//! only up to round `t - b`. The engine enforces this by handing adversary
//! strategies a [`KnowledgeView`] whose accessors simply refuse to return
//! anything newer.

use std::collections::BTreeMap;

use crate::ids::{NodeId, Round};

/// The directed communication graph `G_t` of one round: an edge `(u, v)` means
/// `u` sent at least one message to `v` in round `t`.
#[derive(Clone, Debug, Default)]
pub struct CommGraph {
    /// The round this graph belongs to.
    pub round: Round,
    /// Directed edges, deduplicated and sorted by `(from, to)`.
    pub edges: Vec<(NodeId, NodeId)>,
    /// The nodes present in this round (the vertex set `V_t`).
    pub members: Vec<NodeId>,
}

impl CommGraph {
    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of `node` (distinct receivers it contacted).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.edges.iter().filter(|(f, _)| *f == node).count()
    }

    /// In-degree of `node` (distinct senders that contacted it).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.edges.iter().filter(|(_, t)| *t == node).count()
    }

    /// All nodes that `node` contacted in this round.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(f, _)| *f == node)
            .map(|(_, t)| *t)
            .collect()
    }

    /// All nodes that contacted `node` in this round.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(_, t)| *t == node)
            .map(|(f, _)| *f)
            .collect()
    }
}

/// One archived round: the communication graph plus the state digests the
/// `b`-late part of the adversary may eventually read.
#[derive(Clone, Debug, Default)]
pub struct RoundRecord {
    /// The communication graph of the round.
    pub graph: CommGraph,
    /// Per-node state digests captured at the end of the round.
    pub digests: Vec<(NodeId, u64)>,
}

/// Per-member bookkeeping the adversary is always allowed to see (it controls
/// membership itself, so hiding it would be meaningless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberInfo {
    /// The round the node joined the network.
    pub joined_at: Round,
}

/// Lateness parameters `(a, b)` of the adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Lateness {
    /// Rounds after which the adversary learns the topology.
    pub topology: Round,
    /// Rounds after which the adversary learns states and message contents.
    pub state: Round,
}

impl Lateness {
    /// The paper's headline adversary: `(2, 2λ + 7)`-late.
    pub fn paper(lambda: u64) -> Self {
        Lateness {
            topology: 2,
            state: 2 * lambda + 7,
        }
    }

    /// A fully up-to-date adversary with respect to the topology (used by the
    /// Lemma 3 impossibility experiment).
    pub fn zero_late_topology() -> Self {
        Lateness {
            topology: 0,
            state: Round::MAX,
        }
    }

    /// An adversary that never learns anything beyond membership.
    pub fn oblivious() -> Self {
        Lateness {
            topology: Round::MAX,
            state: Round::MAX,
        }
    }
}

/// The lateness-filtered window onto the simulation given to adversary
/// strategies each round.
pub struct KnowledgeView<'a> {
    now: Round,
    lateness: Lateness,
    records: &'a [RoundRecord],
    members: &'a BTreeMap<NodeId, MemberInfo>,
    remaining_budget: usize,
    min_bootstrap_age: Round,
}

impl<'a> KnowledgeView<'a> {
    /// Constructs a view; used by the engine and by adversary unit tests.
    pub fn new(
        now: Round,
        lateness: Lateness,
        records: &'a [RoundRecord],
        members: &'a BTreeMap<NodeId, MemberInfo>,
        remaining_budget: usize,
        min_bootstrap_age: Round,
    ) -> Self {
        KnowledgeView {
            now,
            lateness,
            records,
            members,
            remaining_budget,
            min_bootstrap_age,
        }
    }

    /// The current round `t` (the round the adversary is about to act in).
    pub fn now(&self) -> Round {
        self.now
    }

    /// The adversary's lateness parameters.
    pub fn lateness(&self) -> Lateness {
        self.lateness
    }

    /// How many more churn events the engine will accept within the current
    /// rate window.
    pub fn remaining_budget(&self) -> usize {
        self.remaining_budget
    }

    /// Current members together with their join round.
    pub fn members(&self) -> impl Iterator<Item = (NodeId, MemberInfo)> + '_ {
        self.members.iter().map(|(id, info)| (*id, *info))
    }

    /// `true` if `node` is currently in the network.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains_key(&node)
    }

    /// The round `node` joined, if it is currently a member.
    pub fn joined_at(&self, node: NodeId) -> Option<Round> {
        self.members.get(&node).map(|m| m.joined_at)
    }

    /// Nodes eligible to serve as bootstrap nodes this round, i.e. nodes in
    /// `V_t ∩ V_{t - min_bootstrap_age}`.
    pub fn eligible_bootstraps(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|(_, info)| info.joined_at.saturating_add(self.min_bootstrap_age) <= self.now)
            .map(|(id, _)| *id)
            .collect()
    }

    /// The newest round whose topology the adversary may inspect, if any.
    pub fn newest_visible_topology_round(&self) -> Option<Round> {
        self.now.checked_sub(self.lateness.topology)
    }

    /// The communication graph `G_r`, available only if `r ≤ t - a`.
    pub fn topology_at(&self, round: Round) -> Option<&CommGraph> {
        let newest = self.newest_visible_topology_round()?;
        if round > newest {
            return None;
        }
        self.records
            .iter()
            .find(|rec| rec.graph.round == round)
            .map(|rec| &rec.graph)
    }

    /// The newest communication graph visible under the `a`-lateness, if any.
    pub fn latest_topology(&self) -> Option<&CommGraph> {
        let newest = self.newest_visible_topology_round()?;
        self.records
            .iter()
            .rev()
            .find(|rec| rec.graph.round <= newest)
            .map(|rec| &rec.graph)
    }

    /// A node's state digest at `round`, available only if `round ≤ t - b`.
    pub fn state_digest_at(&self, round: Round, node: NodeId) -> Option<u64> {
        let newest = self.now.checked_sub(self.lateness.state)?;
        if round > newest {
            return None;
        }
        self.records
            .iter()
            .find(|rec| rec.graph.round == round)?
            .digests
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, d)| *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: Round, edges: Vec<(u64, u64)>) -> RoundRecord {
        RoundRecord {
            graph: CommGraph {
                round,
                edges: edges
                    .into_iter()
                    .map(|(a, b)| (NodeId(a), NodeId(b)))
                    .collect(),
                members: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
            digests: vec![(NodeId(1), 111), (NodeId(2), 222)],
        }
    }

    fn members() -> BTreeMap<NodeId, MemberInfo> {
        let mut m = BTreeMap::new();
        m.insert(NodeId(1), MemberInfo { joined_at: 0 });
        m.insert(NodeId(2), MemberInfo { joined_at: 0 });
        m.insert(NodeId(3), MemberInfo { joined_at: 9 });
        m
    }

    #[test]
    fn comm_graph_degrees() {
        let g = record(0, vec![(1, 2), (1, 3), (2, 3)]).graph;
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(NodeId(1)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.successors(NodeId(1)), vec![NodeId(2), NodeId(3)]);
        assert_eq!(g.predecessors(NodeId(2)), vec![NodeId(1)]);
    }

    #[test]
    fn two_late_adversary_cannot_see_recent_topology() {
        let recs = vec![
            record(7, vec![(1, 2)]),
            record(8, vec![(2, 3)]),
            record(9, vec![(3, 1)]),
        ];
        let m = members();
        let v = KnowledgeView::new(
            10,
            Lateness {
                topology: 2,
                state: 20,
            },
            &recs,
            &m,
            100,
            2,
        );
        assert!(v.topology_at(8).is_some());
        assert!(
            v.topology_at(9).is_none(),
            "round 9 is too recent for a 2-late adversary at t=10"
        );
        assert_eq!(v.latest_topology().unwrap().round, 8);
    }

    #[test]
    fn oblivious_adversary_sees_no_topology() {
        let recs = vec![record(0, vec![(1, 2)])];
        let m = members();
        let v = KnowledgeView::new(5, Lateness::oblivious(), &recs, &m, 10, 2);
        assert!(v.latest_topology().is_none());
        assert!(v.topology_at(0).is_none());
    }

    #[test]
    fn state_digests_respect_b_lateness() {
        let recs = vec![record(1, vec![]), record(5, vec![])];
        let m = members();
        let v = KnowledgeView::new(
            10,
            Lateness {
                topology: 0,
                state: 6,
            },
            &recs,
            &m,
            10,
            2,
        );
        assert_eq!(v.state_digest_at(1, NodeId(1)), Some(111));
        assert_eq!(
            v.state_digest_at(5, NodeId(1)),
            None,
            "round 5 is newer than t-b=4"
        );
    }

    #[test]
    fn eligible_bootstraps_require_min_age() {
        let recs = Vec::new();
        let m = members();
        let v = KnowledgeView::new(10, Lateness::paper(4), &recs, &m, 10, 2);
        let eligible = v.eligible_bootstraps();
        assert!(eligible.contains(&NodeId(1)));
        assert!(eligible.contains(&NodeId(2)));
        assert!(
            !eligible.contains(&NodeId(3)),
            "node 3 joined at round 9, too fresh at round 10"
        );
    }

    #[test]
    fn membership_queries() {
        let recs = Vec::new();
        let m = members();
        let v = KnowledgeView::new(10, Lateness::paper(4), &recs, &m, 3, 2);
        assert!(v.contains(NodeId(2)));
        assert!(!v.contains(NodeId(7)));
        assert_eq!(v.joined_at(NodeId(3)), Some(9));
        assert_eq!(v.remaining_budget(), 3);
        assert_eq!(v.members().count(), 3);
    }

    #[test]
    fn paper_lateness_values() {
        let l = Lateness::paper(5);
        assert_eq!(l.topology, 2);
        assert_eq!(l.state, 17);
        assert_eq!(Lateness::zero_late_topology().topology, 0);
    }
}
