//! Direction-sensitivity regression: a fault rule with `from`/`to`
//! selectors names a *directed* link `from → to` — the one way to cut a
//! single direction — and may never leak onto the reverse direction. The
//! protocol under test floods `id ± 1`, so the pair `1 ↔ 2` exercises both
//! directions of one link every round. The loopback transport's counterpart
//! lives in `tsa-net`.

use tsa_event::{
    EventConfig, EventSimulator, FaultAction, FaultAdapter, FaultPlan, FaultRule, LatencyModel,
    NetModel, NodeSelector,
};
use tsa_sim::prelude::*;
use tsa_sim::SimConfig;

/// Floods `(me << 32) | round` to `id ± 1` each round; the high tag bits
/// name the sender, so who-heard-whom is directly observable.
#[derive(Default)]
struct Ping {
    heard: Vec<u64>,
}

impl Process for Ping {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        for env in inbox {
            self.heard.push(env.payload);
        }
        let me = ctx.id().raw();
        let tag = (me << 32) | ctx.round();
        ctx.send(NodeId(me.wrapping_add(1)), tag);
        if me > 0 {
            ctx.send(NodeId(me - 1), tag);
        }
    }
    fn state_digest(&self) -> u64 {
        self.heard.len() as u64
    }
}

const ADAPTER: FaultAdapter<u64> = FaultAdapter {
    kind_of: |m| (*m & 0x7) as u8,
    mutate: |m, entropy| {
        *m ^= entropy | 1;
        true
    },
};

fn senders_heard_by(sim: &EventSimulator<Ping, NullAdversary>, id: u64) -> Vec<u64> {
    let mut senders: Vec<u64> = sim
        .node(NodeId(id))
        .unwrap()
        .heard
        .iter()
        .map(|tag| tag >> 32)
        .collect();
    senders.sort_unstable();
    senders.dedup();
    senders
}

#[test]
fn fault_rules_drop_one_direction_only() {
    // An unconditional drop rule scoped to `from #1 → to #2` must censor
    // exactly that direction.
    let plan = FaultPlan::new().with_rule(
        FaultRule::every(FaultAction::Drop)
            .from(NodeSelector::Id { id: 1 })
            .to(NodeSelector::Id { id: 2 }),
    );
    let config = EventConfig::new(
        SimConfig::default().with_seed(5),
        NetModel::new(LatencyModel::constant(0)),
    );
    let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
    sim.set_faults(plan, ADAPTER);
    sim.seed_nodes(4);
    sim.run(6);
    assert_eq!(senders_heard_by(&sim, 2), vec![3], "2 never hears 1");
    assert_eq!(senders_heard_by(&sim, 1), vec![0, 2], "1 still hears 2");
    let fs = sim.fault_stats();
    assert_eq!(fs.dropped, 6, "one censored send per round");
    assert_eq!(fs.total(), fs.dropped, "no other action fired");
    assert_eq!(
        sim.net_stats().lost,
        fs.dropped,
        "fault drops are charged to the network loss counter"
    );
}
