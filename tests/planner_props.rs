//! Property tests for the capacity planner's determinism contract:
//! forecasts and resize decisions are a pure function of the
//! cumulative telemetry fold sequence. Heartbeat racing (how often and
//! where the window store ticks) and thread/node partitioning (which
//! store each record lands in before the folds merge) must never
//! change a single decision.

use proptest::prelude::*;
use tt_obs::{WindowAccum, WindowStore};
use tt_serve::planner::{Planner, PlannerAction, PlannerConfig, PlannerInput, ServiceTotals};

const TIERS: [&str; 4] = [
    "cost/0.050",
    "cost/0.100",
    "response-time/0.000",
    "response-time/0.010",
];

/// One recorded observation: an arrival for a tier plus a service
/// completion on a version.
#[derive(Debug, Clone)]
struct Obs {
    tier: usize,
    version: usize,
    latency_us: u64,
}

fn obs_strategy() -> impl Strategy<Value = Obs> {
    (0usize..TIERS.len(), 0usize..3, 200u64..30_000).prop_map(|(tier, version, latency_us)| Obs {
        tier,
        version,
        latency_us,
    })
}

/// Adapt a fold into the planner input contract, exactly as the
/// serving layer does per round.
fn input_of(fold: &WindowAccum) -> PlannerInput {
    PlannerInput {
        arrivals: fold
            .tiers
            .iter()
            .map(|(tier, t)| (tier.clone(), t.arrivals))
            .collect(),
        service: fold
            .versions
            .iter()
            .map(|(version, hist)| {
                (
                    *version,
                    ServiceTotals {
                        count: hist.count(),
                        sum_us: hist.sum(),
                    },
                )
            })
            .collect(),
    }
}

/// The planner's window: the service's default 250 ms.
const WINDOW_US: u64 = 250_000;

/// Record `events` into `shards` window stores (round-robin — a stand
/// in for which node or thread observed each request), ticking each
/// store after every `tick_every` records (heartbeat racing), and
/// return the merged cumulative fold.
fn fold_via(events: &[Obs], shards: usize, tick_every: usize) -> WindowAccum {
    let stores: Vec<WindowStore> = (0..shards).map(|_| WindowStore::new(1_000, 8)).collect();
    let mut clock = 0u64;
    for (i, event) in events.iter().enumerate() {
        let store = &stores[i % shards];
        store.record_arrival(TIERS[event.tier]);
        store.record_service(event.version, event.latency_us);
        if tick_every > 0 && i % tick_every == tick_every - 1 {
            clock += 1_000;
            for s in &stores {
                s.tick(clock);
            }
        }
    }
    let mut fold = WindowAccum::default();
    for store in &stores {
        fold.merge(&store.cumulative());
    }
    fold
}

/// Feed the planner one round per prefix cut and collect every action.
fn decisions_for(
    config: &PlannerConfig,
    events: &[Obs],
    cuts: &[usize],
    shards: usize,
    tick_every: usize,
) -> Vec<PlannerAction> {
    let mut planner = Planner::new(config.clone(), WINDOW_US, 4);
    let mut actions = Vec::new();
    for &cut in cuts {
        let fold = fold_via(&events[..cut], shards, tick_every);
        actions.extend(planner.observe(&input_of(&fold)));
    }
    actions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same observation prefix sequence yields bit-identical
    /// decisions regardless of how records were sharded across
    /// stores and how often the heartbeat ticked.
    #[test]
    fn decisions_are_invariant_to_sharding_and_heartbeat_racing(
        events in prop::collection::vec(obs_strategy(), 8..120),
        rounds in 1usize..5,
        shards_a in 1usize..5,
        shards_b in 1usize..5,
        tick_a in 0usize..7,
        tick_b in 0usize..7,
    ) {
        // Monotone prefix cuts: round r sees the first r/rounds of the
        // stream — the planner's cumulative input contract.
        let cuts: Vec<usize> = (1..=rounds)
            .map(|r| events.len() * r / rounds)
            .collect();
        let config = PlannerConfig::defaults();

        let a = decisions_for(&config, &events, &cuts, shards_a, tick_a);
        let b = decisions_for(&config, &events, &cuts, shards_b, tick_b);
        prop_assert_eq!(a, b);
    }

    /// The fold itself is partition- and heartbeat-invariant (the
    /// planner inherits determinism from this).
    #[test]
    fn folds_merge_identically_across_partitions(
        events in prop::collection::vec(obs_strategy(), 1..80),
        shards in 1usize..6,
        tick_every in 0usize..5,
    ) {
        let single = fold_via(&events, 1, 0);
        let sharded = fold_via(&events, shards, tick_every);
        prop_assert_eq!(input_of(&single), input_of(&sharded));
    }

    /// Forecast actions always precede resize actions within a round,
    /// and every resize stays inside the configured bounds — under any
    /// traffic whatsoever.
    #[test]
    fn resizes_stay_bounded(
        events in prop::collection::vec(obs_strategy(), 8..200),
        rounds in 1usize..6,
    ) {
        let cuts: Vec<usize> = (1..=rounds)
            .map(|r| events.len() * r / rounds)
            .collect();
        let config = PlannerConfig::defaults();
        let actions = decisions_for(&config, &events, &cuts, 1, 0);
        for action in &actions {
            if let PlannerAction::Resize { to, .. } = action {
                prop_assert!(*to >= config.min_workers);
                prop_assert!(*to <= config.max_workers);
            }
        }
    }
}
