//! Pins the round loop's "no steady-state heap allocation" claim with a
//! counting allocator instead of buffer-capacity checks.
//!
//! A maintained overlay is run past its bootstrap phase; over the following
//! rounds the protocol activations (the world's compute phase: every
//! `ProtocolNode::on_round` plus the `Ctx::send`s it makes) must not touch
//! the allocator at all — on the lockstep and on the event scheduler — and
//! the rest of either round loop only to grow its reused buffers, a bounded
//! number of times.
//!
//! The compute phase is located from outside, through the observability
//! sink: the world closes its deliver span (`sim.deliver`, `event.pop`)
//! immediately before the phase and its `sim.compute` span immediately
//! after.
//!
//! The allocator counts per thread, and the thread cap of 1 keeps each
//! test's whole run on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsa_core::{AsyncMaintenanceHarness, MaintenanceParams};
use tsa_obs::{ObsHandle, Recorder};
use tsa_scenario::{ChurnSpec, LatencyModel, NetModel, Scenario};
use tsa_sim::{MetricsMode, NullAdversary};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. Const-initialized and without a destructor, so touching it
    /// from inside the allocator never allocates or re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` as `System.realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An observability sink that records nothing but how many allocator calls
/// fall inside the engine's compute phases.
#[derive(Default)]
struct ComputePhaseAllocations {
    at_phase_start: AtomicU64,
    in_compute: AtomicU64,
}

impl Recorder for ComputePhaseAllocations {
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn observe(&self, _name: &'static str, _value: u64) {}
    fn observe_region(&self, _name: &'static str, _region: u32, _value: u64) {}

    fn span_ns(&self, name: &'static str, _nanos: u64) {
        match name {
            "sim.deliver" | "event.pop" => {
                self.at_phase_start.store(allocations(), Ordering::Relaxed)
            }
            "sim.compute" => {
                let during = allocations() - self.at_phase_start.load(Ordering::Relaxed);
                self.in_compute.fetch_add(during, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Past the harness's 64-round record window (from then on every round's
/// communication-graph record is a recycled one) and long enough for the
/// per-node buffers — outboxes, neighbour sets, token pools — to have met
/// their high-water marks: for this seed one still grew after a 96-round
/// warm-up, none after 128. Raise it if a protocol change moves that; an
/// allocation count that grows with the message volume is the regression
/// these tests exist for.
const WARM_UP_ROUNDS: u64 = 160;
const MEASURED_ROUNDS: u64 = 8;

/// Runs `world` past its bootstrap and warm-up, then counts the allocator
/// calls of [`MEASURED_ROUNDS`] more rounds: `(inside the compute phases,
/// in total)`.
fn measure<W>(world: &mut W, run: fn(&mut W, u64), set_obs: fn(&mut W, ObsHandle)) -> (u64, u64) {
    run(world, WARM_UP_ROUNDS);
    let sink = Arc::new(ComputePhaseAllocations::default());
    set_obs(world, ObsHandle::new(sink.clone()));
    let before = allocations();
    run(world, MEASURED_ROUNDS);
    let total = allocations() - before;
    set_obs(world, ObsHandle::off());
    (sink.in_compute.load(Ordering::Relaxed), total)
}

/// Allocator calls the round loop may make *outside* the compute phase over
/// the measured rounds: one growth of a reused buffer (payloads, handles,
/// round record) per round when traffic sets a new high. Measured: 0
/// on both schedulers.
const ENGINE_GROWTH_BOUND: u64 = MEASURED_ROUNDS;

#[test]
fn protocol_activations_do_not_allocate_in_steady_state() {
    rayon::with_thread_cap(1, || {
        let mut run = Scenario::maintained_lds(32)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .churn(ChurnSpec::none())
            .metrics_mode(MetricsMode::Streaming)
            .seed(29)
            .build();
        run.run_bootstrap();
        let (in_compute, total) = measure(
            &mut run,
            |run, rounds| run.run(rounds),
            |run, obs| run.set_obs(obs),
        );

        assert!(
            run.report().is_routable(),
            "the measured overlay is healthy"
        );
        assert_eq!(
            in_compute, 0,
            "{in_compute} allocator calls inside protocol activations over \
             {MEASURED_ROUNDS} steady-state rounds"
        );
        let engine_side = total - in_compute;
        assert!(
            engine_side <= ENGINE_GROWTH_BOUND,
            "{engine_side} allocator calls in the round loop outside the compute phase \
             over {MEASURED_ROUNDS} steady-state rounds (bound {ENGINE_GROWTH_BOUND})"
        );
    });
}

#[test]
fn protocol_activations_do_not_allocate_on_the_event_scheduler() {
    // The same overlay through the event engine under sub-round latency and
    // jitter: the compute phase is the shared one, so it must be as silent,
    // and the scheduler's own side — the per-round records of copies and
    // payloads, and the inboxes' per-slot positions — reuses its buffers like
    // the lockstep one.
    rayon::with_thread_cap(1, || {
        let params = MaintenanceParams::new(32)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2);
        let mut harness = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            29,
            ChurnSpec::none().rules_for(&params),
            params.paper_lateness(),
            NetModel {
                latency: LatencyModel::uniform(100, 900),
                jitter: 50,
                loss: 0.0,
            },
        );
        harness.set_metrics_mode(MetricsMode::Streaming);
        harness.run_bootstrap();
        let (in_compute, total) = measure(
            &mut harness,
            |harness, rounds| harness.run(rounds),
            |harness, obs| harness.set_obs(obs),
        );

        assert!(
            harness.report().is_routable(),
            "the measured overlay is healthy"
        );
        assert_eq!(
            in_compute, 0,
            "{in_compute} allocator calls inside protocol activations over \
             {MEASURED_ROUNDS} steady-state event rounds"
        );
        let engine_side = total - in_compute;
        assert!(
            engine_side <= ENGINE_GROWTH_BOUND,
            "{engine_side} allocator calls in the event round loop outside the compute \
             phase over {MEASURED_ROUNDS} steady-state rounds (bound {ENGINE_GROWTH_BOUND})"
        );
    });
}
