//! The maintenance-protocol node: `A_LDS` (Listing 3) + `A_RANDOM` (Listing 4).
//!
//! Every node executes the same state machine on top of the round-synchronous
//! simulator. Overlay epoch `e` spans the even round `2e` (forwarding step of
//! `A_ROUTING` on the overlay `D_e`) and the odd round `2e + 1` (handover from
//! `D_e` to `D_{e+1}` plus neighbour introductions for `D_{e+1}`).
//!
//! The life of a (re-)join request started by a mature node `u` in epoch `s`:
//!
//! 1. even round `2s`: `u` computes the future position `h(v, s+λ+1)` for
//!    itself and every fresh node `v` it sponsors and sends the first
//!    forwarding copies towards the trajectory point `x_1`;
//! 2. the copies alternate forwarding (even rounds, current overlay) and
//!    handover (odd rounds, next overlay) steps, each one hop of
//!    [`tsa_overlay::rules`], reaching the swarm of the target position
//!    after `λ` forwarding steps, in even round `2(s+λ)`;
//! 3. the swarm members spread the announcement (`AnnounceJoin`) to every
//!    current member whose position falls in the three responsibility
//!    intervals of the announced position;
//! 4. odd round `2(s+λ)+1`: every member that collected announcements
//!    introduces future neighbours to each other (`Create` messages);
//! 5. even round `2(s+λ+1)`: the `Create` messages arrive and form the
//!    neighbour sets of `D_{s+λ+1}` — the overlay has been rebuilt from
//!    scratch, two rounds after the adversary last saw anything about it.
//!
//! In parallel, `A_RANDOM` floats tokens (mature node identifiers) to uniform
//! random members via the same routing pipeline; fresh nodes spend tokens to
//! send `Connect` requests so that `Θ(δ)` mature nodes know them and keep
//! re-injecting them into the overlay.
//!
//! Deviations from the paper (documented in DESIGN.md): the bootstrap
//! construction of `D_0 … D_λ` is realized by letting the initial ("genesis")
//! nodes derive their neighbourhoods from the known initial member set during
//! the churn-free bootstrap phase, and token pools are small bounded FIFOs
//! instead of being cleared every round.

use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rand::Rng;

use tsa_overlay::rules::{choose_up_to, delta_range, delta_select, hop, members_near, Placed};
use tsa_overlay::{step_bit, Lds, Position, Radii};
use tsa_sim::{Ctx, Envelope, NodeId, Process, Round, Shared};

use crate::byzantine::MisbehaviorKind;
use crate::messages::ProtocolMsg;
use crate::params::MaintenanceParams;
use crate::snapshot::{NodeSnapshot, NodeStats};

/// A neighbour entry: identifier plus position in the relevant epoch.
pub(crate) type Neighbor = Placed;

// ----------------------------------------------------------------------
// Per-worker scratch
// ----------------------------------------------------------------------

/// Identity of one logical message within an activation: `(kind, node or
/// owner, target epoch or Δ, step)`. Copies with equal keys are handled once.
type SeenKey = (u8, NodeId, u64, u32);
const SEEN_JOIN: u8 = 0;
const SEEN_TOKEN: u8 = 1;
/// A `Create`/`AnnounceJoin` claim about a node (epoch and step unused).
const SEEN_CLAIM: u8 = 2;

/// The routing header of an in-flight copy: which logical message it is a
/// copy of, the forwarding steps it has taken and the trajectory point it
/// sits at.
struct Route {
    key: SeenKey,
    step: u32,
    point: f64,
}

impl Route {
    /// Reads the header off a `RouteJoin` or `RouteToken`.
    #[inline]
    fn of(msg: &ProtocolMsg) -> Option<Route> {
        let (key, step, point) = match *msg {
            ProtocolMsg::RouteJoin {
                node,
                target_epoch,
                step,
                point,
            } => ((SEEN_JOIN, node, target_epoch, step), step, point),
            ProtocolMsg::RouteToken {
                owner,
                delta,
                step,
                point,
                ..
            } => ((SEEN_TOKEN, owner, delta as u64, step), step, point),
            _ => return None,
        };
        Some(Route { key, step, point })
    }
}

/// One multiply per key word. [`SeenKey`]s are a few machine words compared
/// exactly on collision, and the set lives for one activation of a simulated
/// node, so SipHash's protection against chosen keys buys nothing here while
/// costing more than the rest of a routed copy's handling.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the best-mixed bits on top; the table indexes
        // with the low ones.
        self.0.rotate_left(26)
    }
}

type SeenSet = HashSet<SeenKey, BuildHasherDefault<WordHasher>>;

/// Buffers an activation needs only while it runs. One instance per worker
/// thread, shared by every node that thread activates: per-node copies would
/// multiply the footprint by `n` for buffers that are empty between
/// activations. Nothing in here carries information from one activation to
/// the next — every user clears what it reads.
#[derive(Default)]
struct Scratch {
    /// Logical messages already handled by the running activation.
    seen: SeenSet,
    /// The current overlay as the running node knows it: its neighbour set,
    /// then itself.
    known: Vec<Neighbor>,
    /// Members near the point of the current routing decision; a [`hop`]
    /// permutes it in place.
    members: Vec<NodeId>,
    /// Small identifier lists: this round's joiners, the distinct tokens of
    /// the pool.
    ids: Vec<NodeId>,
    /// Join requests that reached their target swarm this round; announced
    /// after every forward has been sent.
    announces: Vec<(NodeId, u64, f64)>,
    /// `(receiver, owner)` token deliveries, sent after the announcements.
    token_deliveries: Vec<(NodeId, NodeId)>,
    /// [`delta_select`]'s clockwise offsets.
    clockwise: Vec<(f64, NodeId)>,
    /// The introduction phase's `Create` claims, one per entry of `H_t`.
    creates: Vec<Shared>,
    /// Bootstrap only: the initial members' positions in the next epoch,
    /// evaluated once per activation.
    genesis_next: Vec<Neighbor>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The node state machine of the maintenance protocol.
pub struct ProtocolNode {
    params: MaintenanceParams,
    /// `params.overlay`'s `λ` and radii: asked for per routed copy and per
    /// announced pair.
    radii: Radii,
    /// The initial member set, available only to genesis nodes and only used
    /// for epochs `< genesis_epochs` (the bootstrap substitute).
    genesis: Option<Arc<Vec<NodeId>>>,
    joined_at: Option<Round>,
    /// Neighbour set of the current overlay epoch.
    d_neighbors: Vec<Neighbor>,
    /// Epoch `d_neighbors` belongs to.
    d_epoch: u64,
    /// Announced `(node, position)` pairs for the *next* epoch, collected
    /// during the current odd round (the `H_t` variable of Listing 3).
    h_entries: Vec<Neighbor>,
    /// Token pool (identifiers of mature nodes), bounded FIFO.
    tokens: Vec<NodeId>,
    /// Connect slots (`c_1 … c_{2δ}` of Listing 4).
    slots: Vec<Option<NodeId>>,
    /// Token owners this node spent on neighbor repair in its last round
    /// (the samples behind the per-region sampling-age probe). Engine-side
    /// state only — deliberately not part of [`NodeStats`] or the snapshot,
    /// so artifacts are unaffected.
    repair_sampled: Vec<NodeId>,
    /// Statistics for the experiments.
    stats: NodeStats,
    /// When `Some`, the node runs this misbehavior instead of the honest
    /// protocol (`None` leaves the honest path untouched).
    byzantine: Option<MisbehaviorKind>,
}

impl ProtocolNode {
    /// Creates a node. `genesis` is `Some(initial member set)` for nodes
    /// created before the simulation starts and `None` for nodes churned in
    /// later.
    pub fn new(params: MaintenanceParams, genesis: Option<Arc<Vec<NodeId>>>) -> Self {
        let slots = vec![None; params.connect_slots()];
        ProtocolNode {
            params,
            radii: params.overlay.radii(),
            genesis,
            joined_at: None,
            d_neighbors: Vec::new(),
            d_epoch: u64::MAX,
            h_entries: Vec::new(),
            tokens: Vec::new(),
            slots,
            repair_sampled: Vec::new(),
            stats: NodeStats::default(),
            byzantine: None,
        }
    }

    /// Assigns (or clears) the node's byzantine role. Call before its first
    /// round; the harness factory does this from
    /// [`MaintenanceParams::byzantine`].
    pub fn set_byzantine(&mut self, kind: Option<MisbehaviorKind>) {
        self.byzantine = kind;
    }

    /// The protocol parameters.
    pub fn params(&self) -> &MaintenanceParams {
        &self.params
    }

    /// `true` if this node was part of the initial network.
    pub fn is_genesis(&self) -> bool {
        self.genesis.is_some()
    }

    /// The node's age in rounds (0 before its first round).
    pub fn age(&self, now: Round) -> Round {
        self.joined_at.map(|j| now.saturating_sub(j)).unwrap_or(0)
    }

    /// `true` if the node counts as *mature* at `now` (genesis nodes are
    /// mature from the start; others after `λ' = 2λ + 4` rounds).
    pub fn is_mature(&self, now: Round) -> bool {
        self.is_genesis() || self.age(now) >= self.params.maturity_age()
    }

    /// `true` if the node currently holds a neighbour set for epoch `epoch`
    /// (i.e. it is actually wired into the overlay).
    pub fn participates(&self, epoch: u64) -> bool {
        self.d_epoch == epoch && !self.d_neighbors.is_empty()
    }

    /// The token owners this node spent on neighbor repair in its last
    /// round (empty when it did not repair). The per-region sampling-age
    /// probe reads these after every step.
    pub fn repair_samples(&self) -> &[NodeId] {
        &self.repair_sampled
    }

    /// A copy of the node's observable state for analysis.
    pub fn snapshot(&self, now: Round) -> NodeSnapshot {
        NodeSnapshot {
            joined_at: self.joined_at.unwrap_or(now),
            mature: self.is_mature(now),
            genesis: self.is_genesis(),
            epoch: self.d_epoch,
            participating: !self.d_neighbors.is_empty(),
            neighbors: self.d_neighbors.iter().map(|(id, _)| *id).collect(),
            tokens_on_hand: self.tokens.len(),
            slots_used: self.slots.iter().filter(|s| s.is_some()).count(),
            stats: self.stats.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Neighbourhood helpers
    // ------------------------------------------------------------------

    /// `true` if the bootstrap substitute applies to `epoch` for this node.
    fn genesis_applies(&self, epoch: u64) -> bool {
        self.genesis.is_some() && epoch < self.params.genesis_epochs
    }

    /// Replaces `d_neighbors` with the Definition-5 neighbour set of this
    /// node for a genesis epoch, computed directly from the initial member
    /// set.
    fn fill_genesis_neighbors(&mut self, ctx: &Ctx<'_, ProtocolMsg>, epoch: u64) {
        self.d_neighbors.clear();
        let Some(genesis) = &self.genesis else {
            return;
        };
        let own = ctx.position_hash(ctx.id(), epoch);
        for &v in genesis.iter() {
            if v == ctx.id() {
                continue;
            }
            let p = ctx.position_hash(v, epoch);
            if self.radii.are_neighbors(own, p) {
                self.d_neighbors.push((v, p));
            }
        }
    }

    // ------------------------------------------------------------------
    // Even round: forwarding, delivery, join/token emission (Listing 3 even
    // block + Listing 4).
    //
    // Messages go out through `ctx.send` in one fixed order — forwards in
    // inbox order, then announcements, then token deliveries, then this
    // node's own join requests and tokens. The order of a node's outbox is
    // the order of every inbox it feeds, and inbox order decides which
    // duplicate wins and which RNG draw serves which copy: send order is the
    // determinism contract.
    // ------------------------------------------------------------------

    fn even_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        scratch: &mut Scratch,
    ) {
        let Scratch {
            seen,
            known,
            members,
            ids,
            announces,
            token_deliveries,
            clockwise,
            ..
        } = scratch;
        let Radii {
            lambda,
            swarm: swarm_r,
            ..
        } = self.radii;
        let replication = self.params.replication;
        let me: Neighbor = (ctx.id(), ctx.position_hash(ctx.id(), epoch));

        // (1) Assemble this epoch's neighbour set from the CREATE messages
        //     (or from genesis knowledge during the bootstrap phase).
        dedup_claims(
            inbox.iter().filter_map(|env| match env.payload {
                ProtocolMsg::Create {
                    node,
                    epoch: e,
                    position,
                } if e == epoch && node != me.0 => Some((node, position)),
                _ => None,
            }),
            seen,
            &mut self.d_neighbors,
        );
        self.stats.creates_received += self.d_neighbors.len();
        if self.genesis_applies(epoch) {
            self.fill_genesis_neighbors(ctx, epoch);
        }
        self.d_epoch = epoch;
        let participating = !self.d_neighbors.is_empty();
        if participating {
            self.stats.epochs_participated += 1;
        }

        // (2) Advance in-flight route messages (forwarding step) and deliver
        //     completed ones. Deduplicate copies of the same logical message.
        known.clear();
        known.extend_from_slice(&self.d_neighbors);
        known.push(me);
        let known: &[Neighbor] = known;
        // One forwarding step: the copy `msg`, on its way to `target`, hops
        // into the swarm of its next trajectory point (Definition 7, one
        // step at a time).
        let forward = |ctx: &mut Ctx<'_, ProtocolMsg>,
                       members: &mut Vec<NodeId>,
                       mut msg: ProtocolMsg,
                       target: f64| {
            let (ProtocolMsg::RouteJoin { step, point, .. }
            | ProtocolMsg::RouteToken { step, point, .. }) = &mut msg
            else {
                return;
            };
            *step += 1;
            let bit = step_bit(Position::new(target), *step, lambda);
            *point = Position::new(*point).debruijn_image(bit).value();
            let to = hop(known, *point, swarm_r, replication, members, &mut ctx.rng);
            ctx.broadcast(to.iter().copied(), msg);
        };
        seen.clear();
        announces.clear();
        token_deliveries.clear();
        for env in inbox {
            let Some(Route { key, step, .. }) = Route::of(&env.payload) else {
                continue;
            };
            self.stats.route_copies_received += 1;
            if !participating || !seen.insert(key) {
                continue;
            }
            let target = match env.payload {
                ProtocolMsg::RouteJoin {
                    node, target_epoch, ..
                } => ctx.position_hash(node, target_epoch),
                ProtocolMsg::RouteToken { target, .. } => target,
                _ => continue,
            };
            if step < lambda {
                forward(ctx, members, env.payload, target);
                continue;
            }
            // Arrived in the target's swarm.
            match env.payload {
                ProtocolMsg::RouteJoin {
                    node, target_epoch, ..
                } => {
                    // Spread the announcement (Listing 3 line 10).
                    announces.push((node, target_epoch, target));
                }
                ProtocolMsg::RouteToken { owner, delta, .. } => {
                    // The sampling rule (Listing 2) picks the receiver among
                    // the known members of the target's swarm.
                    members.clear();
                    members_near(known, target, swarm_r, members);
                    let placed = members.iter().map(|&id| (id, ctx.position_hash(id, epoch)));
                    if let Some(receiver) = delta_select(placed, target, delta as usize, clockwise)
                    {
                        token_deliveries.push((receiver, owner));
                    }
                }
                _ => {}
            }
        }

        // Spread announcements to every current member responsible for the
        // announced position (Listing 3 line 10).
        for &(node, target_epoch, position) in announces.iter() {
            self.stats.joins_delivered += 1;
            members.clear();
            for interval in Lds::responsibility_intervals(&self.radii, Position::new(position)) {
                members_near(known, interval.center().value(), interval.radius(), members);
            }
            members.sort_unstable();
            members.dedup();
            ctx.broadcast(
                members.iter().copied(),
                ProtocolMsg::AnnounceJoin {
                    node,
                    epoch: target_epoch,
                    position,
                },
            );
        }
        for &(to, owner) in token_deliveries.iter() {
            ctx.send(to, ProtocolMsg::Token { owner });
        }

        // (3) Start new join requests for this node and every fresh node it
        //     currently sponsors (Listing 3 lines 14-17), plus the per-round
        //     token emission of A_RANDOM (Listing 4).
        if participating && self.is_mature(ctx.round()) {
            let target_epoch = epoch + lambda as u64 + 1;
            ids.clear();
            ids.push(me.0);
            ids.extend(self.slots.iter().flatten());
            ids.sort_unstable();
            ids.dedup();
            // A new request is a copy that has taken no step yet and sits at
            // this node's own position.
            for &node in ids.iter() {
                let target = ctx.position_hash(node, target_epoch);
                self.stats.joins_started += 1;
                let request = ProtocolMsg::RouteJoin {
                    node,
                    target_epoch,
                    step: 0,
                    point: me.1,
                };
                forward(ctx, members, request, target);
            }

            // Token emission: τ tokens carrying this node's identifier, each
            // routed to a uniformly random point with a uniform offset Δ.
            let deltas = delta_range(self.params.overlay.c, lambda);
            for _ in 0..self.params.tau {
                let target: f64 = ctx.rng.gen();
                let token = ProtocolMsg::RouteToken {
                    owner: me.0,
                    delta: ctx.rng.gen_range(deltas.clone()),
                    target,
                    step: 0,
                    point: me.1,
                };
                forward(ctx, members, token, target);
            }
        }
    }

    // ------------------------------------------------------------------
    // Odd round: handover and introductions (Listing 3 odd block). Send
    // order: handovers in inbox order, then introductions.
    // ------------------------------------------------------------------

    fn odd_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        scratch: &mut Scratch,
    ) {
        let Scratch {
            seen,
            members,
            genesis_next,
            creates,
            ..
        } = scratch;
        let swarm_r = self.radii.swarm;
        let replication = self.params.replication;
        let next_epoch = epoch + 1;

        // (1) Collect announcements into H_t.
        let mut announces_received = 0;
        dedup_claims(
            inbox.iter().filter_map(|env| match env.payload {
                ProtocolMsg::AnnounceJoin {
                    node,
                    epoch: e,
                    position,
                } if e == next_epoch => {
                    announces_received += 1;
                    Some((node, position))
                }
                _ => None,
            }),
            seen,
            &mut self.h_entries,
        );
        self.stats.announces_received += announces_received;

        // (2) Handover step: every route copy received this round moves to the
        //     next overlay's swarm at its current trajectory point. The next
        //     overlay's members are the collected announcements, or the
        //     initial member set during bootstrap.
        let next_members: &[Neighbor] = if self.genesis_applies(next_epoch) {
            let genesis = self.genesis.as_ref().expect("genesis_applies checked");
            genesis_next.clear();
            genesis_next.extend(
                genesis
                    .iter()
                    .map(|&v| (v, ctx.position_hash(v, next_epoch))),
            );
            genesis_next
        } else {
            &self.h_entries
        };
        seen.clear();
        for env in inbox {
            let Some(Route { key, point, .. }) = Route::of(&env.payload) else {
                continue;
            };
            self.stats.route_copies_received += 1;
            if !seen.insert(key) {
                continue;
            }
            let to = hop(
                next_members,
                point,
                swarm_r,
                replication,
                members,
                &mut ctx.rng,
            );
            ctx.broadcast(to.iter().copied(), env.payload);
        }

        // (3) Introductions: for every pair of announced nodes that will be
        //     neighbours in D_{next_epoch}, send each of them the other's
        //     identifier and position (Listing 3 lines 25-26). A node's claim
        //     goes to each of its neighbours-to-be, interleaved with theirs:
        //     every claim is stored once, up front, and the pair loop sends
        //     handles in the order it always sent copies.
        creates.clear();
        creates.extend(self.h_entries.iter().map(|&(node, position)| {
            ctx.share(ProtocolMsg::Create {
                node,
                epoch: next_epoch,
                position,
            })
        }));
        for (i, &(v, pv)) in self.h_entries.iter().enumerate() {
            let create_v = creates[i];
            for (&(w, pw), &create_w) in self.h_entries[i + 1..].iter().zip(&creates[i + 1..]) {
                if self.radii.are_neighbors(pv, pw) {
                    ctx.send_shared(w, create_v);
                    ctx.send_shared(v, create_w);
                }
            }
        }
        self.h_entries.clear();
    }

    // ------------------------------------------------------------------
    // A_RANDOM bookkeeping executed every round (Listing 4).
    // ------------------------------------------------------------------

    fn random_overlay_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        scratch: &mut Scratch,
    ) {
        let distinct = &mut scratch.ids;
        let now = ctx.round();
        let delta = self.params.delta;
        self.stats.connects_received_last_round = 0;
        self.stats.tokens_received_last_round = 0;
        self.repair_sampled.clear();

        // Reset connect slots at the start of every round (Listing 4 line 35).
        for s in self.slots.iter_mut() {
            *s = None;
        }

        // Process CONNECT and directly delivered TOKEN messages.
        for env in inbox {
            match env.payload {
                ProtocolMsg::Connect { node } => {
                    self.stats.connects_received += 1;
                    self.stats.connects_received_last_round += 1;
                    // A uniformly chosen free slot, if any is left.
                    let free = self.slots.iter().filter(|s| s.is_none()).count();
                    if free > 0 {
                        let pick = ctx.rng.gen_range(0..free);
                        let slot = self.slots.iter_mut().filter(|s| s.is_none()).nth(pick);
                        *slot.expect("pick < free") = Some(node);
                    }
                }
                ProtocolMsg::Token { owner } => {
                    self.stats.tokens_received += 1;
                    self.stats.tokens_received_last_round += 1;
                    // A mature node keeps the token with probability 1/2 and
                    // otherwise forwards it to a random connect slot
                    // (Listing 4, token forwarding step); fresh nodes always
                    // keep what they are given.
                    if self.is_mature(now) && ctx.rng.gen::<bool>() {
                        let slot = ctx.rng.gen_range(0..self.slots.len().max(1));
                        if let Some(Some(fresh)) = self.slots.get(slot) {
                            ctx.send(*fresh, ProtocolMsg::Token { owner });
                        }
                        // otherwise: dropped, preserving token independence.
                    } else {
                        self.tokens.push(owner);
                    }
                }
                _ => {}
            }
        }

        // Bound the token pool (freshness substitute for the paper's
        // clear-every-round rule).
        let cap = 4 * self.params.tau.max(delta);
        if self.tokens.len() > cap {
            let excess = self.tokens.len() - cap;
            self.tokens.drain(..excess);
        }

        // Handle nodes that joined via this node this round: send CONNECTs on
        // their behalf and supply them with tokens (Listing 4 "Upon v joining").
        for &new_node in ctx.sponsored() {
            for &owner in pick_tokens(&self.tokens, delta, &mut ctx.rng, distinct) {
                ctx.send(owner, ProtocolMsg::Connect { node: new_node });
            }
            for &owner in pick_tokens(&self.tokens, delta, &mut ctx.rng, distinct) {
                ctx.send(new_node, ProtocolMsg::Token { owner });
            }
            // Make sure the newcomer is sponsored into the overlay even before
            // its CONNECTs land: keep it in one of our own slots.
            if let Some(slot) = self.slots.iter_mut().find(|s| s.is_none()) {
                *slot = Some(new_node);
            }
        }

        // Fresh nodes (and mature nodes that fell out of the overlay) spend
        // tokens to stay known by Θ(δ) mature nodes.
        let integrated = self.participates(now / 2);
        if !self.is_mature(now) || !integrated {
            for &owner in pick_tokens(&self.tokens, delta, &mut ctx.rng, distinct) {
                self.repair_sampled.push(owner);
                ctx.send(owner, ProtocolMsg::Connect { node: ctx.id() });
            }
        }
    }

    // ------------------------------------------------------------------
    // Byzantine roles
    // ------------------------------------------------------------------

    /// One honest activation: the even/odd maintenance round plus the
    /// random-overlay round, exactly as the paper specifies.
    fn honest_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        scratch: &mut Scratch,
    ) {
        if ctx.round() % 2 == 0 {
            self.even_round(ctx, inbox, epoch, scratch);
        } else {
            self.odd_round(ctx, inbox, epoch, scratch);
        }
        self.random_overlay_round(ctx, inbox, scratch);
    }

    /// One byzantine activation: the honest machinery still runs — the node
    /// keeps the protocol's cadence, state shape and RNG consumption — but
    /// the misbehavior wraps it: selective forwarding censors the inbox
    /// before the honest code reads it, the other kinds rewrite the claims
    /// the honest code queued before they reach the network.
    fn byzantine_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        kind: MisbehaviorKind,
        scratch: &mut Scratch,
    ) {
        let censored: Vec<Envelope<ProtocolMsg>>;
        let inbox = if kind == MisbehaviorKind::SelectiveForward {
            censored = inbox
                .iter()
                .filter(|env| {
                    !matches!(
                        env.payload,
                        ProtocolMsg::RouteJoin { .. } | ProtocolMsg::RouteToken { .. }
                    )
                })
                .cloned()
                .collect();
            censored.as_slice()
        } else {
            inbox
        };
        self.honest_round(ctx, inbox, epoch, scratch);

        ctx.rewrite_payloads(|ctx, msg| misreport(kind, ctx, msg));
    }
}

/// What a byzantine node of `kind` makes of a claim its honest machinery
/// queued: a function of the payload and the node's own identifier only, so
/// rewriting a shared payload once is rewriting every copy of it.
fn misreport(kind: MisbehaviorKind, ctx: &Ctx<'_, ProtocolMsg>, msg: &mut ProtocolMsg) {
    match (kind, msg) {
        // The censorship already happened on the inbound side.
        (MisbehaviorKind::SelectiveForward, _) => {}
        // Claims two epochs stale: exactly the staleness the two-steps-ahead
        // rebuild is supposed to outrun.
        (
            MisbehaviorKind::StaleClaims,
            ProtocolMsg::Create {
                node,
                epoch,
                position,
            }
            | ProtocolMsg::AnnounceJoin {
                node,
                epoch,
                position,
            },
        ) => *position = ctx.position_hash(*node, epoch.saturating_sub(2)),
        // Antipodal positions: maximally wrong, still in [0,1).
        (
            MisbehaviorKind::ForgedPosition,
            ProtocolMsg::Create { position, .. } | ProtocolMsg::AnnounceJoin { position, .. },
        ) => *position = (*position + 0.5) % 1.0,
        // Introductions and tokens all name the byzantine node itself: every
        // CREATE/CONNECT-machinery reply funnels edges to it.
        (MisbehaviorKind::BogusReplies, ProtocolMsg::Create { node, .. }) => *node = ctx.id(),
        (MisbehaviorKind::BogusReplies, ProtocolMsg::Token { owner }) => *owner = ctx.id(),
        _ => {}
    }
}

impl Process for ProtocolNode {
    type Msg = ProtocolMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>, inbox: &[Envelope<ProtocolMsg>]) {
        if self.joined_at.is_none() {
            self.joined_at = Some(ctx.round());
        }
        let epoch = ctx.round() / 2;
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            match self.byzantine {
                None => self.honest_round(ctx, inbox, epoch, scratch),
                Some(kind) => self.byzantine_round(ctx, inbox, epoch, kind, scratch),
            }
        });
        self.stats.last_round = ctx.round();
        self.stats.messages_sent += ctx.queued();
    }

    fn state_digest(&self) -> u64 {
        // A weak digest: the adversary may eventually learn how connected a
        // node is, but never its future positions.
        (self.d_neighbors.len() as u64) << 32 | self.tokens.len() as u64
    }
}

/// Replaces `out` with the first claim about each node, in `claims` order,
/// sorted by node: what a stable sort by node followed by keeping the first
/// of every run yields, without sorting the duplicates — an inbox holds on
/// the order of a hundred copies of every claim.
fn dedup_claims(
    claims: impl Iterator<Item = Neighbor>,
    seen: &mut SeenSet,
    out: &mut Vec<Neighbor>,
) {
    seen.clear();
    out.clear();
    out.extend(claims.filter(|&(node, _)| seen.insert((SEEN_CLAIM, node, 0, 0))));
    out.sort_unstable_by_key(|&(node, _)| node);
}

/// Picks `count` tokens uniformly at random (with replacement across calls but
/// without replacement within one call) from the pool. `distinct` is the
/// buffer the result lives in.
fn pick_tokens<'d, R: Rng + ?Sized>(
    pool: &[NodeId],
    count: usize,
    rng: &mut R,
    distinct: &'d mut Vec<NodeId>,
) -> &'d [NodeId] {
    distinct.clear();
    distinct.extend_from_slice(pool);
    distinct.sort_unstable();
    distinct.dedup();
    choose_up_to(distinct, count, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsa_overlay::Trajectory;

    fn params() -> MaintenanceParams {
        MaintenanceParams::new(64)
    }

    fn genesis(n: u64) -> Arc<Vec<NodeId>> {
        Arc::new((0..n).map(NodeId).collect())
    }

    #[test]
    fn dedup_claims_keeps_the_first_claim_in_inbox_order() {
        // Duplicate claims about one node may carry conflicting positions
        // (mutated or forged): the first in inbox order must win, as with
        // the stable sort + dedup this replaces.
        let mut seen = SeenSet::default();
        let mut out = vec![(NodeId(999), 0.0)];
        for seed in 0..50u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let claims: Vec<Neighbor> = (0..rng.gen_range(0..400usize))
                .map(|_| (NodeId(rng.gen_range(0..40u64)), rng.gen::<f64>()))
                .collect();
            let mut reference = claims.clone();
            reference.sort_by_key(|a| a.0);
            reference.dedup_by(|a, b| a.0 == b.0);
            // A stale entry from another kind of key must not leak in.
            seen.insert((SEEN_JOIN, NodeId(3), 0, 0));
            dedup_claims(claims.iter().copied(), &mut seen, &mut out);
            assert_eq!(out, reference, "seed {seed}");
        }
    }

    #[test]
    fn pick_tokens_deduplicates() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut buf = Vec::new();
        let pool = vec![NodeId(1), NodeId(1), NodeId(2)];
        let picked = pick_tokens(&pool, 5, &mut rng, &mut buf);
        assert_eq!(picked, [NodeId(1), NodeId(2)]);
        assert!(pick_tokens(&[], 3, &mut rng, &mut buf).is_empty());
    }

    #[test]
    fn maturity_rules() {
        let p = params();
        let mut node = ProtocolNode::new(p, None);
        node.joined_at = Some(10);
        assert!(!node.is_mature(10));
        assert!(!node.is_mature(10 + p.maturity_age() - 1));
        assert!(node.is_mature(10 + p.maturity_age()));
        let g = ProtocolNode::new(p, Some(genesis(4)));
        assert!(g.is_mature(0), "genesis nodes are mature immediately");
        assert!(g.is_genesis());
    }

    #[test]
    fn genesis_neighbors_match_definition_5() {
        // The bootstrap neighbourhood is the node's LDS neighbourhood, in
        // either direction, over the initial member set.
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g.clone()));
        let ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 0, 0, &[], 7, 7);
        node.d_neighbors = vec![(NodeId(63), 0.5)];
        node.fill_genesis_neighbors(&ctx, 0);
        let lds = Lds::from_hash(p.overlay, g.iter().copied(), 7, 0);
        let own = lds.neighbors(NodeId(0));
        let expected: Vec<Neighbor> = g
            .iter()
            .filter(|&&w| own.contains(&w) || lds.neighbors(w).contains(&NodeId(0)))
            .map(|&w| (w, ctx.position_hash(w, 0)))
            .collect();
        assert!(!expected.is_empty(), "a genesis node must have neighbours");
        assert_eq!(node.d_neighbors, expected);
    }

    #[test]
    fn snapshot_reflects_state() {
        let p = params();
        let mut node = ProtocolNode::new(p, Some(genesis(8)));
        node.joined_at = Some(0);
        node.d_neighbors = vec![(NodeId(1), 0.5)];
        node.d_epoch = 3;
        node.tokens = vec![NodeId(2), NodeId(3)];
        let snap = node.snapshot(6);
        assert!(snap.mature);
        assert!(snap.genesis);
        assert!(snap.participating);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.neighbors, vec![NodeId(1)]);
        assert_eq!(snap.tokens_on_hand, 2);
    }

    #[test]
    fn forwarded_copies_follow_the_definition_7_trajectory() {
        // One even round of a genesis node: it starts its own join request
        // (step 1) and forwards one copy of that request for every later
        // step. Every copy it sends must sit on the trajectory from the
        // node's position to the request's target, bit for bit. Several
        // nodes, so that not every target's λ-bit prefix is a palindrome.
        let p = params();
        let lambda = p.lambda();
        let target_epoch = lambda as u64 + 1;
        for me in (0..8).map(NodeId) {
            let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(me, 0, 0, &[], 7, 7);
            let trajectory = Trajectory::compute(
                Position::new(ctx.position_hash(me, 0)),
                Position::new(ctx.position_hash(me, target_epoch)),
                lambda,
            );
            let inbox: Vec<Envelope<ProtocolMsg>> = (1..lambda)
                .map(|step| {
                    let msg = ProtocolMsg::RouteJoin {
                        node: me,
                        target_epoch,
                        step,
                        point: trajectory.point(step as usize).value(),
                    };
                    Envelope::new(NodeId(63), me, 0, msg)
                })
                .collect();
            let mut node = ProtocolNode::new(p, Some(genesis(64)));
            node.on_round(&mut ctx, &inbox);
            let mut steps_seen = vec![false; lambda as usize + 1];
            for (_, msg) in ctx.into_sends() {
                if let ProtocolMsg::RouteJoin { step, point, .. } = msg {
                    let expected = trajectory.point(step as usize).value();
                    assert_eq!(point.to_bits(), expected.to_bits(), "{me}, step {step}");
                    steps_seen[step as usize] = true;
                }
            }
            assert!(
                steps_seen[1..].iter().all(|&seen| seen),
                "{me} must have sent a copy of every step 1..=λ: {steps_seen:?}"
            );
        }
    }

    #[test]
    fn rewriting_each_distinct_payload_is_rewriting_each_copy() {
        // One outbox with every message kind, sent each way a payload can be
        // queued (alone, broadcast, shared and interleaved). For every
        // misbehavior the byzantine hook — once per distinct payload — must
        // leave the flat sends a per-copy rewrite of the honest ones gives.
        use MisbehaviorKind::*;
        let claim = |node, epoch, position| (NodeId(node), epoch, position);
        let queued = || {
            let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(11), 20, 0, &[], 5, 5);
            let (node, epoch, position) = claim(4, 9, 0.75);
            ctx.broadcast(
                (0..5).map(NodeId),
                ProtocolMsg::AnnounceJoin {
                    node,
                    epoch,
                    position,
                },
            );
            ctx.broadcast([], ProtocolMsg::Connect { node });
            let creates = [claim(1, 9, 0.125), claim(2, 1, 0.5), claim(3, 9, 0.9)].map(
                |(node, epoch, position)| {
                    ctx.share(ProtocolMsg::Create {
                        node,
                        epoch,
                        position,
                    })
                },
            );
            ctx.send_shared(NodeId(2), creates[0]);
            ctx.send_shared(NodeId(1), creates[1]);
            ctx.send(NodeId(8), ProtocolMsg::Token { owner: NodeId(5) });
            ctx.send_shared(NodeId(1), creates[0]);
            let forward = ProtocolMsg::RouteToken {
                owner: NodeId(6),
                delta: 3,
                target: 0.3,
                step: 2,
                point: 0.6,
            };
            ctx.broadcast([NodeId(7), NodeId(7)], forward);
            ctx
        };
        let me = queued();
        let honest = queued().into_sends();
        assert_eq!(honest.len(), 11);
        for kind in [SelectiveForward, StaleClaims, ForgedPosition, BogusReplies] {
            let mut per_payload = queued();
            per_payload.rewrite_payloads(|ctx, msg| misreport(kind, ctx, msg));
            let mut per_copy = honest.clone();
            for (_, msg) in per_copy.iter_mut() {
                misreport(kind, &me, msg);
            }
            assert_eq!(per_payload.into_sends(), per_copy, "{kind:?}");
            assert_eq!(
                per_copy != honest,
                kind != SelectiveForward,
                "{kind:?} rewrites something here, censorship does not"
            );
        }
    }

    #[test]
    fn first_round_sets_join_round_and_emits_messages() {
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g));
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 0, 0, &[], 11, 11);
        node.on_round(&mut ctx, &[]);
        assert_eq!(node.joined_at, Some(0));
        assert!(node.participates(0), "genesis node participates in epoch 0");
        assert!(
            ctx.queued() > 0,
            "a participating mature node must start join requests and tokens"
        );
    }

    #[test]
    fn non_genesis_node_is_idle_until_contacted() {
        let p = params();
        let mut node = ProtocolNode::new(p, None);
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(99), 4, 4, &[], 11, 11);
        node.on_round(&mut ctx, &[]);
        // No tokens, no neighbours: nothing can be sent yet.
        assert_eq!(ctx.queued(), 0);
        assert!(!node.participates(2));
    }

    #[test]
    fn fresh_node_spends_tokens_on_connects() {
        let p = params();
        let mut node = ProtocolNode::new(p, None);
        let inbox = vec![
            Envelope::new(
                NodeId(1),
                NodeId(99),
                3,
                ProtocolMsg::Token { owner: NodeId(5) },
            ),
            Envelope::new(
                NodeId(1),
                NodeId(99),
                3,
                ProtocolMsg::Token { owner: NodeId(6) },
            ),
        ];
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(99), 4, 4, &[], 11, 11);
        node.on_round(&mut ctx, &inbox);
        let out = ctx.into_sends();
        let connects: Vec<&(NodeId, ProtocolMsg)> = out
            .iter()
            .filter(|(_, m)| matches!(m, ProtocolMsg::Connect { .. }))
            .collect();
        assert!(
            !connects.is_empty(),
            "a fresh node with tokens must send CONNECTs"
        );
        for (to, _) in connects {
            assert!([NodeId(5), NodeId(6)].contains(to));
        }
    }

    #[test]
    fn mature_node_assigns_connects_to_slots() {
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g));
        node.joined_at = Some(0);
        let inbox = vec![Envelope::new(
            NodeId(77),
            NodeId(0),
            9,
            ProtocolMsg::Connect { node: NodeId(77) },
        )];
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 10, 0, &[], 11, 11);
        node.on_round(&mut ctx, &inbox);
        assert_eq!(node.snapshot(10).slots_used, 1);
        assert_eq!(node.snapshot(10).stats.connects_received, 1);
    }

    #[test]
    fn sponsor_supplies_newcomer_with_tokens_and_connects() {
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g));
        node.joined_at = Some(0);
        node.tokens = vec![NodeId(3), NodeId(4), NodeId(5)];
        let sponsored = vec![NodeId(200)];
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 31, 0, &sponsored, 11, 11);
        node.on_round(&mut ctx, &[]);
        let out = ctx.into_sends();
        let tokens_to_newcomer = out
            .iter()
            .filter(|(to, m)| *to == NodeId(200) && matches!(m, ProtocolMsg::Token { .. }))
            .count();
        let connects_for_newcomer = out
            .iter()
            .filter(|(_, m)| matches!(m, ProtocolMsg::Connect { node } if *node == NodeId(200)))
            .count();
        assert!(tokens_to_newcomer > 0, "the sponsor must supply tokens");
        assert!(
            connects_for_newcomer > 0,
            "the sponsor must announce the newcomer"
        );
    }
}
