//! The metrics-mode bridge, pinned by property tests: a
//! [`MetricsMode::Streaming`] run keeps no per-round `MetricsHistory` rows,
//! yet its O(1) running digest must equal the **exact**
//! [`MetricsSummary`] of a [`MetricsMode::Full`] run — same totals, same
//! extrema, same means — across seeds, adversaries and both execution
//! engines. There is one fold (`StreamingMetrics`): the running digest and
//! the full run's rows re-folded after the fact both go through it, so a
//! digest diff here means the two modes saw different rows.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use tsa_scenario::{AdversarySpec, ChurnSpec, ExecutionModel, LatencyModel, MetricsMode, Scenario};

/// The maintained scenario the bridge is pinned over.
fn base(seed: u64, adv: AdversarySpec, execution: ExecutionModel) -> Scenario {
    Scenario::maintained_lds(32)
        .with_c(1.5)
        .with_tau(3)
        .with_replication(2)
        .churn(ChurnSpec::fraction(1, 4))
        .adversary(adv)
        .execution(execution)
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streaming_folds_to_the_full_digest(
        seed in 0u64..1_000_000,
        adv in 0u8..3,
        asynchronous in 0u8..2,
    ) {
        let adversary = match adv {
            0 => AdversarySpec::null(),
            1 => AdversarySpec::random(1, seed),
            _ => AdversarySpec::targeted(1, seed),
        };
        let execution = if asynchronous == 1 {
            // Super-round delays: messages genuinely straddle boundaries,
            // so the event engine's accumulators see its own trace.
            ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800))
        } else {
            ExecutionModel::Rounds
        };

        let full = base(seed, adversary, execution).run(6);
        let streaming = base(seed, adversary, execution)
            .metrics_mode(MetricsMode::Streaming)
            .run(6);

        let fm = full.maintenance.expect("maintained outcome");
        let sm = streaming.maintenance.expect("maintained outcome");
        prop_assert_eq!(fm.metrics_summary, sm.metrics_summary);
        // Both digests come from the accumulators; the rows of the full run
        // must fold to the same one.
        let rows = fm.metrics.as_ref().expect("the full run kept its rows");
        prop_assert_eq!(rows.summary(), sm.metrics_summary);
        // Streaming is streaming: the rows really are gone.
        prop_assert!(sm.metrics.is_none());
    }
}
