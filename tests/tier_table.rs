//! The tier table's three promises, each checked against the public
//! reference implementations rather than the table's own code:
//!
//! * the downward-compatibility rule exists once — the table's
//!   resolver agrees with `RoutingRules::lookup`,
//!   `TierPriceSchedule::price_for` and the brownout ladder for any
//!   tolerance;
//! * every per-tier map is keyed by the tier *served*, so a client
//!   cycling through unadvertised tolerances cannot grow server state;
//! * a rules hot-swap is one store, so no request — and no document —
//!   ever mixes two deployment generations.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use tt_core::objective::Objective;
use tt_core::policy::Policy;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::{RoutingRuleGenerator, RoutingRules};
use tt_net::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, BrownoutLevel};
use tt_net::demo::{demo_frontend, demo_matrix, demo_service, DEMO_TIERS};
use tt_net::obs::ObsConfig;
use tt_net::server::HttpHandler;
use tt_net::service::{ComputeService, ServiceConfig};
use tt_net::tiers::{LiveTiers, TierTable};
use tt_net::Request;
use tt_serve::billing::TierPriceSchedule;
use tt_serve::frontend::TieredFrontend;
use tt_sim::Money;

const PAYLOADS: usize = 60;
const SEED: u64 = 42;

fn compute(objective: Objective, tolerance: f64, payload: usize) -> Request {
    Request {
        method: "POST".into(),
        target: "/compute".into(),
        headers: vec![
            ("Tolerance".into(), tolerance.to_string()),
            ("Objective".into(), objective.to_string()),
            ("Payload".into(), payload.to_string()),
        ],
        body: Vec::new(),
        keep_alive: true,
    }
}

fn get(service: &ComputeService, target: &str) -> String {
    let request = Request {
        method: "GET".into(),
        target: target.into(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    };
    let reply = service.handle(&request, &AtomicBool::new(false));
    assert_eq!(reply.status, 200, "{target}");
    reply.body
}

/// The number after `"key": ` in a rendered document.
fn number(body: &str, key: &str) -> f64 {
    let at = body.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let end = body[at..]
        .find(|c: char| c != '.' && c != '-' && c != 'e' && !c.is_ascii_digit())
        .map_or(body.len(), |n| at + n);
    body[at..end].parse().expect(key)
}

/// Every tier key (`"{objective}/{tolerance:.3}"`) a document names.
fn tier_keys(body: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for objective in Objective::all() {
        let prefix = format!("{objective}/");
        for (at, _) in body.match_indices(&prefix) {
            keys.insert(body[at..at + prefix.len() + 5].to_string());
        }
    }
    keys
}

fn per_objective<'a>(keys: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, usize> {
    let mut counts = BTreeMap::new();
    for key in keys {
        *counts.entry(key).or_default() += 1;
    }
    counts
}

#[test]
fn unadvertised_tolerances_are_tallied_under_the_tier_served() {
    const REQUESTS: usize = 5_000;
    let service = demo_service(PAYLOADS, SEED, ServiceConfig::defaults());
    let shutdown = AtomicBool::new(false);
    // 5 000 distinct tolerances, none advertised: 3 300 below, between
    // and just under the advertised tiers, 1 700 above the loosest
    // (past 100 % too).
    let tolerances: Vec<f64> = (0..REQUESTS)
        .map(|i| {
            if i < 3_300 {
                0.000_131 + i as f64 * 0.000_03
            } else {
                0.100_7 + (i - 3_300) as f64 * 0.001_1
            }
        })
        .collect();
    assert_eq!(
        tolerances
            .iter()
            .map(|t| t.to_bits())
            .collect::<BTreeSet<_>>()
            .len(),
        REQUESTS
    );
    assert!(tolerances.iter().all(|t| !DEMO_TIERS.contains(t)));
    for (i, &tolerance) in tolerances.iter().enumerate() {
        let objective = [Objective::ResponseTime, Objective::Cost][i % 2];
        let reply = service.handle(&compute(objective, tolerance, i), &shutdown);
        assert_eq!(reply.status, 200);
        let billed = service.schedule().price_for(tolerance).as_dollars();
        assert!(
            (number(&reply.body, "price_usd") - billed).abs() < 1e-12,
            "tolerance {tolerance} billed {}",
            reply.body
        );
    }

    // Every per-tier map holds the deployment's tiers and nothing else.
    let advertised: BTreeSet<String> = Objective::all()
        .flat_map(|o| DEMO_TIERS.iter().map(move |t| format!("{o}/{t:.3}")))
        .collect();
    let obs = service.observability().expect("defaults enable obs");
    let snapshot = service.snapshot();
    let fold = obs.windows().cumulative();
    let admissions = service.admission().tier_admissions();
    for counts in [
        per_objective(snapshot.trace.by_tier().keys().map(|(o, _)| o.as_str())),
        per_objective(snapshot.billing.tiers.keys().map(|(o, _)| o.as_str())),
        per_objective(fold.tiers.keys().map(|k| k.split('/').next().unwrap())),
        per_objective(admissions.iter().map(|(k, _)| k.split('/').next().unwrap())),
    ] {
        assert_eq!(counts.len(), 2, "{counts:?}");
        assert!(
            counts.values().all(|&n| n <= DEMO_TIERS.len()),
            "{counts:?}"
        );
    }
    for target in ["/stats", "/metrics", "/metrics/windows"] {
        let named = tier_keys(&get(&service, target));
        assert!(named.is_subset(&advertised), "{target} names {named:?}");
    }
    assert_eq!(
        get(&service, "/stats").matches("\"objective\": ").count(),
        2 * DEMO_TIERS.len()
    );

    // Nothing was lost by the re-keying: every request is billed,
    // admitted and counted as an arrival exactly once.
    let billed: usize = snapshot.billing.tiers.values().map(|t| t.requests).sum();
    assert_eq!(billed, REQUESTS);
    assert_eq!(fold.total_arrivals(), REQUESTS as u64);
    let admitted: u64 = admissions.iter().map(|(_, t)| t.admitted).sum();
    assert_eq!(admitted, REQUESTS as u64);
}

/// The tier of `rules` serving `tolerance`, by a plain scan: the
/// reference the table's resolution is held against.
fn reference_tier(rules: &RoutingRules, tolerance: f64) -> (f64, Policy) {
    let mut serving = (
        0.0,
        Policy::Single {
            version: rules.baseline_version(),
        },
    );
    for &(tol, policy) in rules.tiers() {
        if tol <= tolerance + 1e-12 {
            serving = (tol, policy);
        }
    }
    serving
}

#[test]
fn no_request_sees_a_torn_install() {
    const SWAPS: u64 = 200;
    let matrix = Arc::new(demo_matrix(PAYLOADS, SEED));
    // Two deployments that disagree on the tier set and the policies.
    let generations = [demo_frontend(&matrix, SEED), {
        let gen = RoutingRuleGenerator::with_defaults(&matrix, 0.80, SEED + 1).unwrap();
        TieredFrontend::new(vec![
            gen.generate(&[0.0, 0.02, 0.10], Objective::ResponseTime)
                .unwrap(),
            gen.generate(&[0.0, 0.02, 0.10], Objective::Cost).unwrap(),
        ])
    }];
    let service = ComputeService::new(
        Arc::clone(&matrix),
        generations[0].clone(),
        ServiceConfig {
            // Pressure 1 (the other caller in flight) is already the
            // brownout band, so admission outcomes are mixed.
            admission: AdmissionConfig {
                initial_limit: 1,
                min_limit: 1,
                ..AdmissionConfig::defaults()
            },
            supervisor: None,
            ..ServiceConfig::defaults()
        },
    );
    let mix: Vec<(Objective, f64)> = Objective::all()
        .flat_map(|o| [0.0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.10, 0.5].map(|t| (o, t)))
        .collect();
    let swapping = AtomicBool::new(true);
    let start = Barrier::new(3);
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for caller in 0..2 {
            let (service, mix, generations) = (&service, &mix, &generations);
            let (swapping, start, shutdown) = (&swapping, &start, &shutdown);
            scope.spawn(move || {
                start.wait();
                let mut i = caller;
                // Keeps calling for as long as the swapper swaps.
                while swapping.load(Ordering::SeqCst) || i < 400 {
                    let (objective, tolerance) = mix[i % mix.len()];
                    if i % 4 < 2 {
                        let reply = service.handle(&compute(objective, tolerance, i), shutdown);
                        assert_eq!(reply.status, 200);
                    } else {
                        let tol = Tolerance::new(tolerance).unwrap();
                        let outcome = service
                            .execute(&ServiceRequest::new(i, tol, objective))
                            .expect("fault-free service");
                        // Tier, policy and price all come from one
                        // generation's answer to this tolerance.
                        let served = (outcome.billed_tolerance, outcome.policy);
                        let coherent = generations.iter().any(|frontend| {
                            let rules = frontend.rules().find(|r| r.objective() == objective);
                            reference_tier(rules.unwrap(), tolerance) == served
                        });
                        assert!(coherent, "{objective} @ {tolerance}: {outcome:?}");
                        assert_eq!(outcome.price, service.schedule().price_for(tolerance));
                    }
                    i += 2;
                }
            });
        }
        start.wait();
        for swap in 1..=SWAPS {
            service.adopt_rules(generations[(swap % 2) as usize].clone(), swap + 1);
        }
        swapping.store(false, Ordering::SeqCst);
    });

    let obs = service.observability().expect("defaults enable obs");
    let fold = obs.windows().cumulative();
    let admissions: BTreeMap<_, _> = service.admission().tier_admissions().into_iter().collect();
    assert_eq!(
        fold.tiers.keys().collect::<Vec<_>>(),
        admissions.keys().collect::<Vec<_>>()
    );
    for (key, window) in &fold.tiers {
        let tally = admissions[key];
        assert_eq!(
            (window.admitted, window.browned_out, window.rejected),
            (tally.admitted, tally.browned_out, tally.rejected),
            "{key}"
        );
        assert_eq!(
            window.arrivals,
            window.admitted + window.browned_out + window.rejected,
            "{key}"
        );
    }
    assert!(admissions.values().any(|t| t.browned_out > 0));

    // Billed is served, tier by tier: the ledger's economics, the
    // trace's aggregates and the tiers' lifetime telemetry (continuous
    // across all 200 swaps) count the same requests.
    let snapshot = service.snapshot();
    let served = snapshot.trace.by_tier();
    assert_eq!(
        snapshot.billing.tiers.keys().collect::<Vec<_>>(),
        served.keys().collect::<Vec<_>>()
    );
    for (key, bill) in &snapshot.billing.tiers {
        assert_eq!(bill.requests, served[key].requests, "{key:?}");
        let tier = service.resolve(
            Objective::parse(&key.0).unwrap(),
            Tolerance::new(f64::from(key.1) / 1000.0).unwrap(),
        );
        if (tier.tolerance * 1000.0).round() as u32 == key.1 {
            assert_eq!(
                tier.sinks.telemetry.requests(),
                bill.requests as u64,
                "{key:?}"
            );
        }
    }
    let billed: usize = snapshot.billing.tiers.values().map(|t| t.requests).sum();
    assert_eq!(billed, snapshot.served);
    assert_eq!(service.rules_epoch(), SWAPS + 1);
}

/// One deployment with response-time rules only (and no explicit 0 %
/// tier), under the list prices and under a schedule whose breakpoints
/// are not the routing tiers'.
struct Deployment {
    rules: RoutingRules,
    frontend: TieredFrontend,
    schedules: [TierPriceSchedule; 2],
    tables: [Arc<TierTable>; 2],
    /// Limit-1 controllers over the tables: pressure 1 is the
    /// brownout band.
    controllers: [AdmissionController; 2],
}

const RULE_TIERS: [f64; 3] = [0.01, 0.05, 0.10];
const OFF_TIER_BREAKPOINTS: [f64; 4] = [0.0, 0.03, 0.05, 0.2];

fn deployment() -> &'static Deployment {
    static DEPLOYMENT: OnceLock<Deployment> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| {
        let matrix = demo_matrix(PAYLOADS, SEED);
        let rules = RoutingRuleGenerator::with_defaults(&matrix, 0.95, SEED)
            .unwrap()
            .generate(&RULE_TIERS, Objective::ResponseTime)
            .unwrap();
        let frontend = TieredFrontend::new(vec![rules.clone()]);
        let base = Money::from_dollars(0.001);
        let schedules = [
            TierPriceSchedule::list_prices(base),
            TierPriceSchedule::new(
                OFF_TIER_BREAKPOINTS
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (t, base.scaled(1.0 - 0.2 * i as f64)))
                    .collect(),
            ),
        ];
        let table = |schedule: &TierPriceSchedule| {
            TierTable::build(
                &matrix,
                frontend.clone(),
                schedule,
                &ObsConfig::defaults(),
                None,
            )
        };
        let tables = [0, 1].map(|i| Arc::new(table(&schedules[i])));
        let controllers = [0, 1].map(|i| {
            let config = AdmissionConfig {
                initial_limit: 1,
                min_limit: 1,
                ..AdmissionConfig::defaults()
            };
            AdmissionController::new(
                config,
                Arc::new(LiveTiers::new(Arc::new(table(&schedules[i])))),
            )
        });
        Deployment {
            rules,
            frontend,
            schedules,
            tables,
            controllers,
        }
    })
}

fn tolerances() -> impl Strategy<Value = f64> {
    const NUDGES: [f64; 5] = [0.0, 1e-12, -1e-12, 1e-9, -1e-9];
    let breakpoints: Vec<f64> = RULE_TIERS
        .iter()
        .chain(&OFF_TIER_BREAKPOINTS)
        .copied()
        .collect();
    prop_oneof![
        0.0..0.25f64,
        1.0..3.0f64,
        (0..breakpoints.len(), 0..NUDGES.len())
            .prop_map(move |(b, n)| (breakpoints[b] + NUDGES[n]).max(0.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_rule_exists_once(tolerance in tolerances(), schedule in 0usize..2) {
        let d = deployment();
        let (table, prices) = (&d.tables[schedule], &d.schedules[schedule]);
        let declared = Tolerance::new(tolerance).unwrap();

        // Deployed objective: the table answers as `lookup` and
        // `price_for` do, and names the tier a plain scan finds.
        let tier = table.resolve(Objective::ResponseTime, tolerance);
        prop_assert_eq!(tier.policy, d.rules.lookup(declared));
        prop_assert_eq!((tier.tolerance, tier.policy), reference_tier(&d.rules, tolerance));
        prop_assert_eq!(tier.price, prices.price_for(tolerance));
        prop_assert_eq!(&tier.key, &format!("response-time/{:.3}", tier.tolerance));
        prop_assert!(tier.advertised);

        // No rules deployed for the objective: the other objective's
        // baseline, as `TieredFrontend::route` falls back to, under
        // one key whatever the tolerance.
        let request = ServiceRequest::new(0, declared, Objective::Cost);
        let fallback = table.resolve(Objective::Cost, tolerance);
        prop_assert_eq!(fallback.policy, d.frontend.route(&request));
        prop_assert_eq!(fallback.price, prices.price_for(tolerance));
        prop_assert_eq!(&fallback.key, "cost/0.000");
        prop_assert!(!fallback.advertised);

        // The brownout ladder starts from the same tier: a rewrite
        // keeps its versions, a looser tier lies strictly above it.
        match d.controllers[schedule].decide_at(Objective::ResponseTime, tolerance, 1) {
            AdmissionDecision::Brownout { policy, billed_tolerance, level: BrownoutLevel::Rewrite } => {
                prop_assert_eq!(billed_tolerance, tolerance);
                let (Policy::Cascade { cheap, accurate, threshold, .. }, Policy::Cascade { cheap: c, accurate: a, threshold: t, .. }) = (policy, tier.policy) else {
                    return Err(TestCaseError::fail("only a cascade is rewritten, into a cascade"));
                };
                prop_assert_eq!((cheap, accurate, threshold), (c, a, t));
            }
            AdmissionDecision::Brownout { policy, billed_tolerance, level: BrownoutLevel::LooserTier } => {
                prop_assert!(billed_tolerance > tier.tolerance);
                prop_assert_eq!((billed_tolerance, policy), reference_tier(&d.rules, billed_tolerance));
            }
            AdmissionDecision::Admit => {}
            AdmissionDecision::Reject { .. } => prop_assert!(false, "pressure 1 is below the reject band"),
        }
    }
}
