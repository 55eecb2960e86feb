//! Serving traces and per-tier service-level reporting.
//!
//! The cluster reports aggregates; operators want per-tier views: does
//! the 1%-tolerance tier actually get the latency it pays for? A
//! [`TraceRecorder`] collects one [`TraceEvent`] per served request and
//! slices the stream by (tolerance, objective) tier.
//!
//! The default recorder retains every event — simulations want the
//! full stream for CSV export and exact replay comparison. A live
//! server does not: [`TraceRecorder::bounded`] keeps only the last `N`
//! events in a ring buffer while folding *every* event into running
//! per-tier aggregates (request counts, a fixed-point quality-error
//! sum, and a bounded latency histogram), so [`TraceRecorder::by_tier`]
//! stays accurate over the whole stream at O(1) memory.

use std::collections::{BTreeMap, VecDeque};
use tt_core::objective::Objective;
use tt_sim::{LatencyRecorder, SimDuration, SimTime};

/// Fixed-point scale for quality-error sums (1e9 units per 1.0 of
/// error): integer addition keeps aggregate means independent of the
/// order threads complete requests in.
const ERR_NANOS: f64 = 1e9;

/// One served request.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceEvent {
    /// Arrival instant.
    pub arrival: SimTime,
    /// Response instant.
    pub responded: SimTime,
    /// The consumer's tolerance annotation.
    pub tolerance: f64,
    /// The consumer's objective annotation.
    pub objective: Objective,
    /// Which version's answer was returned.
    pub answered_by: usize,
    /// Quality error of the returned answer.
    pub quality_err: f64,
}

impl TraceEvent {
    /// Response time.
    pub fn response_time(&self) -> SimDuration {
        self.responded.saturating_since(self.arrival)
    }

    /// The tier as `(objective name, tolerance in tenths of a
    /// percent)`; ordered like the `(String, u32)` keys of
    /// [`TraceRecorder::by_tier`], built without allocating because a
    /// live service records under its settlement lock.
    fn tier_key(&self) -> (&'static str, u32) {
        (
            self.objective.name(),
            (self.tolerance * 1000.0).round() as u32,
        )
    }
}

/// Per-tier aggregate view of a trace.
#[derive(Debug, Clone)]
pub struct TierStats {
    /// Requests in the tier.
    pub requests: usize,
    /// Response-time distribution.
    pub latency: LatencyRecorder,
    /// Mean quality error.
    pub mean_err: f64,
}

/// Running per-tier aggregate for the bounded recorder.
#[derive(Debug, Clone)]
struct TierAgg {
    requests: usize,
    err_nanos: u128,
    latency: LatencyRecorder,
}

impl TierAgg {
    fn new() -> Self {
        TierAgg {
            requests: 0,
            err_nanos: 0,
            latency: LatencyRecorder::bounded(),
        }
    }
}

/// Collects trace events and slices them by tier.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: VecDeque<TraceEvent>,
    /// Bounded mode: each retained event's number, in step with
    /// `events` (see [`TraceRecorder::record_numbered`]).
    numbers: VecDeque<u64>,
    /// `Some(retain)` in bounded mode: the ring keeps at most `retain`
    /// events while `aggs` folds every event ever recorded.
    retention: Option<usize>,
    aggs: BTreeMap<(&'static str, u32), TierAgg>,
    total: usize,
}

impl TraceRecorder {
    /// An unbounded recorder retaining every event (the simulation
    /// default).
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// A bounded recorder: the ring keeps the most recent `retain`
    /// events (for CSV export and spot inspection) while per-tier
    /// aggregates cover the entire stream.
    pub fn bounded(retain: usize) -> Self {
        TraceRecorder {
            retention: Some(retain.max(1)),
            ..TraceRecorder::default()
        }
    }

    /// Whether this recorder evicts old events.
    pub fn is_bounded(&self) -> bool {
        self.retention.is_some()
    }

    /// Record one served request.
    pub fn record(&mut self, event: TraceEvent) {
        self.record_numbered(self.total as u64, event);
    }

    /// Record one served request as the `number`-th of a stream that
    /// several bounded recorders share: [`TraceRecorder::merged`]
    /// orders their events by it. Numbers must ascend within one
    /// recorder. An unbounded recorder keeps no numbers.
    pub fn record_numbered(&mut self, number: u64, event: TraceEvent) {
        self.total += 1;
        if let Some(retain) = self.retention {
            let agg = self
                .aggs
                .entry(event.tier_key())
                .or_insert_with(TierAgg::new);
            agg.requests += 1;
            agg.err_nanos += (event.quality_err.max(0.0) * ERR_NANOS).round() as u128;
            agg.latency.record(event.response_time());
            // Evict before pushing, so a full ring never grows its
            // buffer past `retain`.
            if self.events.len() == retain {
                self.events.pop_front();
                self.numbers.pop_front();
            }
            self.events.push_back(event);
            self.numbers.push_back(number);
        } else {
            self.events.push_back(event);
        }
    }

    /// One bounded recorder holding what `parts` hold together: every
    /// part's per-tier aggregates (integer sums and histogram buckets,
    /// so the fold does not depend on how events were spread over the
    /// parts) and, in its ring, the newest of their retained events in
    /// number order, as many as the largest part retains.
    ///
    /// # Panics
    ///
    /// Panics if a part is unbounded: it keeps no numbers to order by.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a TraceRecorder>) -> TraceRecorder {
        let parts: Vec<&TraceRecorder> = parts.into_iter().collect();
        let mut out = TraceRecorder::folded(parts.iter().copied());
        // Each part's numbers ascend. Count how many of each part's
        // newest events the ring takes, walking back from every part's
        // newest and taking the newest overall; then merge those tails
        // forward, oldest first.
        let retain = out.retention.unwrap_or(1);
        let mut newest: Vec<_> = parts
            .iter()
            .map(|part| part.numbers.iter().rev().peekable())
            .collect();
        let mut taken = vec![0; parts.len()];
        for _ in 0..retain {
            let next = (0..parts.len())
                .filter_map(|i| newest[i].peek().map(|&&number| (number, i)))
                .max();
            let Some((_, i)) = next else { break };
            newest[i].next();
            taken[i] += 1;
        }
        let mut tails: Vec<_> = parts
            .iter()
            .zip(&taken)
            .map(|(part, &n)| {
                let from = part.numbers.len() - n;
                part.numbers
                    .range(from..)
                    .zip(part.events.range(from..))
                    .peekable()
            })
            .collect();
        out.numbers.reserve_exact(taken.iter().sum());
        out.events.reserve_exact(taken.iter().sum());
        while let Some((_, i)) = (0..tails.len())
            .filter_map(|i| tails[i].peek().map(|&(&number, _)| (number, i)))
            .min()
        {
            let (&number, event) = tails[i].next().expect("peeked");
            out.numbers.push_back(number);
            out.events.push_back(event.clone());
        }
        out
    }

    /// [`TraceRecorder::merged`] without the ring: every part's
    /// per-tier aggregates and stream length, and no retained event.
    /// What [`TraceRecorder::by_tier`] and
    /// [`TraceRecorder::total_recorded`] read of the merge, at the cost
    /// of the aggregates alone.
    ///
    /// # Panics
    ///
    /// Panics if a part is unbounded.
    pub fn folded<'a>(parts: impl IntoIterator<Item = &'a TraceRecorder>) -> TraceRecorder {
        let mut out = TraceRecorder::bounded(1);
        for part in parts {
            let retain = part
                .retention
                .expect("only bounded recorders number their events");
            out.retention = out.retention.max(Some(retain));
            out.total += part.total;
            for (&key, agg) in &part.aggs {
                match out.aggs.get_mut(&key) {
                    Some(mine) => {
                        mine.requests += agg.requests;
                        mine.err_nanos += agg.err_nanos;
                        mine.latency.merge(&agg.latency);
                    }
                    None => {
                        out.aggs.insert(key, agg.clone());
                    }
                }
            }
        }
        out
    }

    /// Retained events in recording order — the complete stream for an
    /// unbounded recorder, the most recent window for a bounded one
    /// (see [`TraceRecorder::total_recorded`] for the stream length).
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Total events ever recorded, including any evicted from a
    /// bounded ring.
    pub fn total_recorded(&self) -> usize {
        self.total
    }

    /// Aggregate by (objective, tolerance-in-tenths-of-percent) tier.
    /// Covers the complete stream in both modes: the bounded recorder
    /// serves this from its running aggregates, not the retained ring.
    pub fn by_tier(&self) -> BTreeMap<(String, u32), TierStats> {
        if self.retention.is_some() {
            return self
                .aggs
                .iter()
                .map(|(&(objective, tolerance), agg)| {
                    (
                        (objective.to_string(), tolerance),
                        TierStats {
                            requests: agg.requests,
                            latency: agg.latency.clone(),
                            mean_err: agg.err_nanos as f64 / ERR_NANOS / agg.requests as f64,
                        },
                    )
                })
                .collect();
        }
        let mut map: BTreeMap<(&'static str, u32), (LatencyRecorder, f64, usize)> = BTreeMap::new();
        for e in &self.events {
            let slot = map.entry(e.tier_key()).or_default();
            slot.0.record(e.response_time());
            slot.1 += e.quality_err;
            slot.2 += 1;
        }
        map.into_iter()
            .map(|((objective, tolerance), (latency, err, n))| {
                (
                    (objective.to_string(), tolerance),
                    TierStats {
                        requests: n,
                        latency,
                        mean_err: err / n as f64,
                    },
                )
            })
            .collect()
    }

    /// Render the retained events as a CSV string (`arrival_us,
    /// responded_us,tolerance,objective,answered_by,quality_err`), for
    /// offline analysis.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("arrival_us,responded_us,tolerance,objective,answered_by,quality_err\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.arrival.as_micros(),
                e.responded.as_micros(),
                e.tolerance,
                e.objective,
                e.answered_by,
                e.quality_err
            ));
        }
        out
    }
}

/// Capacity planning: the pool slots needed to keep utilization below
/// `target_utilization` at `rate_per_sec` arrivals with the given mean
/// service time.
///
/// # Panics
///
/// Panics unless `0 < target_utilization < 1` and inputs are positive.
pub fn required_slots(
    rate_per_sec: f64,
    mean_service: SimDuration,
    target_utilization: f64,
) -> usize {
    assert!(
        rate_per_sec > 0.0 && rate_per_sec.is_finite(),
        "rate must be positive"
    );
    assert!(
        target_utilization > 0.0 && target_utilization < 1.0,
        "utilization target must be in (0, 1)"
    );
    let offered = rate_per_sec * mean_service.as_secs_f64();
    (offered / target_utilization).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tol: f64, obj: Objective, at_us: u64, took_us: u64, err: f64) -> TraceEvent {
        TraceEvent {
            arrival: SimTime::from_micros(at_us),
            responded: SimTime::from_micros(at_us + took_us),
            tolerance: tol,
            objective: obj,
            answered_by: 0,
            quality_err: err,
        }
    }

    #[test]
    fn tier_slicing_groups_correctly() {
        let mut rec = TraceRecorder::new();
        rec.record(event(0.01, Objective::ResponseTime, 0, 100, 0.0));
        rec.record(event(0.01, Objective::ResponseTime, 10, 300, 1.0));
        rec.record(event(0.10, Objective::Cost, 20, 50, 0.0));
        let tiers = rec.by_tier();
        assert_eq!(tiers.len(), 2);
        let rt = &tiers[&("response-time".to_string(), 10)];
        assert_eq!(rt.requests, 2);
        assert!((rt.mean_err - 0.5).abs() < 1e-12);
        assert_eq!(tiers[&("cost".to_string(), 100)].requests, 1);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut rec = TraceRecorder::new();
        rec.record(event(0.05, Objective::Cost, 5, 10, 0.0));
        let csv = rec.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("arrival_us"));
        assert!(csv.contains("cost"));
    }

    #[test]
    fn bounded_ring_evicts_but_aggregates_everything() {
        let mut rec = TraceRecorder::bounded(4);
        assert!(rec.is_bounded());
        for i in 0..20u64 {
            rec.record(event(0.05, Objective::Cost, i * 10, 100 + i, 0.1));
        }
        assert_eq!(rec.events().len(), 4, "ring holds only the newest events");
        assert_eq!(rec.total_recorded(), 20);
        assert_eq!(
            rec.events().front().unwrap().arrival,
            SimTime::from_micros(160)
        );
        let tiers = rec.by_tier();
        let tier = &tiers[&("cost".to_string(), 50)];
        assert_eq!(tier.requests, 20, "aggregates cover evicted events too");
        assert!((tier.mean_err - 0.1).abs() < 1e-9);
        assert_eq!(tier.latency.len(), 20);
        // CSV exports just the retained window.
        assert_eq!(rec.to_csv().lines().count(), 5);
    }

    #[test]
    fn merged_parts_hold_the_newest_events_in_number_order() {
        let mut whole = TraceRecorder::bounded(5);
        let mut parts = [TraceRecorder::bounded(5), TraceRecorder::bounded(5)];
        for i in 0..17u64 {
            let e = event(0.05 * (i % 2) as f64, Objective::Cost, i * 10, 100 + i, 0.1);
            whole.record(e.clone());
            // Uneven spread: the second part takes every third event.
            parts[usize::from(i % 3 == 0)].record_numbered(i, e);
        }
        let merged = TraceRecorder::merged(&parts);
        assert_eq!(merged.events(), whole.events());
        assert_eq!(merged.total_recorded(), 17);
        let render = |rec: &TraceRecorder| format!("{:?}", rec.by_tier());
        assert_eq!(render(&merged), render(&whole));
        let folded = TraceRecorder::folded(&parts);
        assert!(folded.events().is_empty());
        assert_eq!(folded.total_recorded(), 17);
        assert_eq!(render(&folded), render(&whole));
    }

    #[test]
    fn capacity_planning_matches_littles_law() {
        // 100 req/s x 0.2s service = 20 busy servers; at 80% target -> 25.
        let slots = required_slots(100.0, SimDuration::from_millis(200), 0.8);
        assert_eq!(slots, 25);
        // Tiny load still needs one slot.
        assert_eq!(required_slots(0.1, SimDuration::from_millis(1), 0.9), 1);
    }

    #[test]
    #[should_panic(expected = "utilization target")]
    fn capacity_rejects_full_utilization() {
        required_slots(10.0, SimDuration::from_millis(10), 1.0);
    }
}
