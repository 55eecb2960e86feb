//! Correctness gates: a fast wrong answer is not a result. Every gate
//! runs inside the benchmark command and a failure makes the run
//! incorrect (and the process exit non-zero).

use crate::gen::{Plan, Tier};
use crate::report::Gate;
use std::collections::BTreeMap;
use tt_net::ComputeService;

/// Requests the generator had answered with a 200, per tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally(BTreeMap<(String, u32), usize>);

impl Tally {
    pub fn add(&mut self, tier: &Tier, count: usize) {
        if count > 0 {
            *self.0.entry(tier.key()).or_default() += count;
        }
    }

    /// Count `sweeps` complete, all-200 sweeps of `plan`.
    pub fn add_sweeps(&mut self, plan: &Plan, sweeps: usize) {
        for planned in &plan.requests {
            self.add(&plan.tiers[usize::from(planned.tier)], sweeps);
        }
    }

    pub fn total(&self) -> usize {
        self.0.values().sum()
    }
}

/// Per-tier `(requests, revenue bits)` as the service billed them.
pub type Billed = BTreeMap<(String, u32), (usize, u64)>;

pub fn billed(service: &ComputeService) -> Billed {
    service
        .snapshot()
        .billing
        .tiers
        .iter()
        .map(|(k, v)| (k.clone(), (v.requests, v.revenue.as_dollars().to_bits())))
        .collect()
}

/// Per-tier billed totals must equal the tier's request count times
/// its unit price. The service accumulates revenue one request at a
/// time, so the expected figure is the same running sum of equal
/// prices — bit-exact, whatever order threads settled in.
pub fn billing_matches_counts(service: &ComputeService, tally: &Tally) -> Gate {
    let expected: Billed = tally
        .0
        .iter()
        .map(|(key, &count)| {
            let price = service
                .schedule()
                .price_for(f64::from(key.1) / 1000.0)
                .as_dollars();
            let revenue = (0..count).fold(0.0_f64, |sum, _| sum + price);
            (key.clone(), (count, revenue.to_bits()))
        })
        .collect();
    let actual = billed(service);
    let detail = if actual == expected {
        format!("{} requests over {} tiers", tally.total(), expected.len())
    } else {
        format!("billed {actual:?} != count x unit price {expected:?}")
    };
    Gate::check("billing_matches_counts", actual == expected, detail)
}

/// Independent services given the same inputs must bill identically,
/// bit for bit.
pub fn billing_repeatable(rounds: &[Billed]) -> Gate {
    let same = rounds.windows(2).all(|w| w[0] == w[1]);
    Gate::check(
        "billing_repeatable",
        rounds.len() >= 2 && same,
        format!("{} set-ups served the same warm-up", rounds.len()),
    )
}

/// The paper's contract on the deployed rules: each tolerant tier's
/// mean quality error over the profiled population, relative to the
/// strict (baseline) tier, stays within its tolerance. Together with
/// the per-reply check that every live answer came from the version
/// the rules name, this bounds the live error too.
pub fn tolerance_honoured(service: &ComputeService) -> Gate {
    let frontend = service.frontend();
    let mut worst = String::new();
    let mut ok = true;
    let mut tiers = 0;
    for rules in frontend.rules() {
        let guarantees = rules
            .guarantees(service.matrix(), 0.99)
            .expect("deployed rules evaluate on their own matrix");
        for g in guarantees {
            tiers += 1;
            let degradation = if g.baseline_mean_err > 0.0 {
                (g.predicted_mean_err - g.baseline_mean_err) / g.baseline_mean_err
            } else {
                g.predicted_mean_err
            };
            if degradation > g.tolerance + 1e-9 {
                ok = false;
                worst = format!(
                    "{}/{:.3}: degradation {degradation:.4}",
                    g.objective, g.tolerance
                );
            }
        }
    }
    let detail = if ok {
        format!("{tiers} tiers within tolerance")
    } else {
        worst
    };
    Gate::check("tolerance_honoured", ok, detail)
}

/// Nothing was lost: no request dropped, no metric series refused, and
/// the bounded trace and window rings evicted exactly what overflowed
/// them (a ring that evicts is not a loss; one that miscounts is).
pub fn nothing_dropped(service: &ComputeService) -> Gate {
    let snapshot = service.snapshot();
    let mut problems = Vec::new();
    if snapshot.resilience.dropped_requests != 0 {
        problems.push(format!(
            "dropped_requests={}",
            snapshot.resilience.dropped_requests
        ));
    }
    let mut detail = "dropped_requests=0".to_string();
    if let Some(obs) = service.observability() {
        let series = obs.registry().dropped_series();
        let tracer = obs.tracer();
        let traces_over = tracer
            .finished_count()
            .saturating_sub(tracer.capacity() as u64);
        let windows = obs.windows();
        let windows_over = windows
            .sealed_count()
            .saturating_sub(windows.capacity() as u64);
        if series != 0 {
            problems.push(format!("dropped_series={series}"));
        }
        if tracer.dropped_traces() != traces_over {
            problems.push(format!(
                "dropped_traces={} but ring overflow is {traces_over}",
                tracer.dropped_traces()
            ));
        }
        if windows.dropped_windows() != windows_over {
            problems.push(format!(
                "dropped_windows={} but ring overflow is {windows_over}",
                windows.dropped_windows()
            ));
        }
        detail = format!(
            "dropped_requests=0 dropped_series=0 dropped_traces={} dropped_windows={} (ring overflow, exact)",
            tracer.dropped_traces(),
            windows.dropped_windows()
        );
    }
    if !problems.is_empty() {
        detail = problems.join("; ");
    }
    Gate::check("nothing_dropped", problems.is_empty(), detail)
}
