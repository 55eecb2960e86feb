//! Continuous capacity planning: a low-frequency **planner** plus a
//! high-frequency **tuner**, both pure automatons.
//!
//! The paper's tolerance tiers promise per-tier latency/accuracy
//! envelopes, but a static worker pool defends them only at one traffic
//! level: a diurnal trough wastes provisioned capacity, a flash crowd
//! melts the SLO. Following InferLine's split, this module separates
//! the response into two cadences:
//!
//! * [`Planner`] — runs every few telemetry windows. It diffs
//!   successive *cumulative* window folds into per-round demand
//!   deltas, forecasts the next round with a fixed-point EWMA plus a
//!   seasonal (slot-indexed) correction, and emits provisioning
//!   actions: worker-pool resizes (grow eagerly, shrink patiently) and
//!   routing-rule regeneration triggers when the forecast *tier mix*
//!   drifts from the mix the deployed rules were generated for
//!   (INFaaS-style variant awareness).
//! * [`Tuner`] — runs every window. It watches the per-window arrival
//!   delta against a short EWMA and, on a surge, nudges the two fast
//!   knobs that do not require re-provisioning: the AIMD admission
//!   limit (boosted multiplicatively) and the batch formation deadline
//!   (tightened, so queueing slack is not spent under pressure).
//!
//! Like [`crate::supervisor`], neither automaton reads a clock, opens
//! a socket, or owns a thread: the serving layer feeds observations
//! and executes the returned actions. All arithmetic is integer /
//! fixed-point (per-mille scale), and observations are *cumulative*
//! totals — the deterministic fold contract of the windowed telemetry
//! store — so the decision sequence is a pure function of the observed
//! fold sequence: bit-identical across thread counts, node counts, and
//! heartbeat jitter.

use std::collections::BTreeMap;

/// Fixed-point scale used throughout: 1000 = 1.0 (per-mille).
pub const PERMILLE: u64 = 1000;

/// Cumulative service-time totals for one model version.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServiceTotals {
    /// Requests served by this version since boot.
    pub count: u64,
    /// Summed (simulated) service time since boot, microseconds.
    pub sum_us: u64,
}

/// One planner observation: *cumulative* totals since boot, as folded
/// by the windowed telemetry store. Feeding cumulative totals (rather
/// than per-window deltas) makes the input independent of heartbeat
/// timing: the automaton diffs consecutive observations itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannerInput {
    /// Cumulative arrivals per tier key (`"{objective}/{tolerance:.3}"`).
    pub arrivals: BTreeMap<String, u64>,
    /// Cumulative service totals per model version.
    pub service: BTreeMap<usize, ServiceTotals>,
}

/// Planner tuning knobs. All ratios are integer fractions so the
/// automaton never touches floating point.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannerConfig {
    /// Demand-EWMA smoothing factor `alpha = alpha_num / alpha_den`.
    pub alpha_num: u64,
    /// Denominator of the demand-EWMA smoothing factor.
    pub alpha_den: u64,
    /// Seasonal slots per cycle; 0 disables the seasonal correction.
    pub season_len: usize,
    /// Seasonal-deviation EWMA factor numerator.
    pub season_alpha_num: u64,
    /// Seasonal-deviation EWMA factor denominator.
    pub season_alpha_den: u64,
    /// Windows per planning round (the planner's cadence).
    pub windows_per_round: u64,
    /// Target worker busy fraction, percent, `1..=100`.
    pub target_utilization_pct: u64,
    /// Resize floor.
    pub min_workers: usize,
    /// Resize ceiling.
    pub max_workers: usize,
    /// Consecutive rounds a lower demand estimate must persist before
    /// the planner shrinks (grows are immediate).
    pub shrink_patience: u64,
    /// Assumed mean service time before any service data arrives,
    /// microseconds.
    pub default_service_us: u64,
    /// L1 distance (per-mille) between the forecast tier mix and the
    /// mix at the last regeneration that triggers a rules regen.
    pub regen_threshold_permille: u64,
    /// Seed handed through to [`PlannerAction::Regen`] so triggered
    /// rule generation is reproducible.
    pub rulegen_seed: u64,
}

impl PlannerConfig {
    /// Defaults sized for the ops demos: a 3/10 demand EWMA, 8-slot
    /// seasonal memory, 70% target utilization, shrink after 2 calm
    /// rounds, regen on a 25% mix shift.
    pub fn defaults() -> Self {
        PlannerConfig {
            alpha_num: 3,
            alpha_den: 10,
            season_len: 8,
            season_alpha_num: 2,
            season_alpha_den: 10,
            windows_per_round: 4,
            target_utilization_pct: 70,
            min_workers: 1,
            max_workers: 32,
            shrink_patience: 2,
            default_service_us: 2_000,
            regen_threshold_permille: 250,
            rulegen_seed: 17,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first nonsensical field.
    pub fn validate(&self) -> Result<(), String> {
        if self.alpha_den == 0 || self.alpha_num == 0 || self.alpha_num > self.alpha_den {
            return Err(format!(
                "demand EWMA alpha must be in (0, 1]: {}/{}",
                self.alpha_num, self.alpha_den
            ));
        }
        if self.season_len > 0
            && (self.season_alpha_den == 0
                || self.season_alpha_num == 0
                || self.season_alpha_num > self.season_alpha_den)
        {
            return Err(format!(
                "seasonal EWMA alpha must be in (0, 1]: {}/{}",
                self.season_alpha_num, self.season_alpha_den
            ));
        }
        if self.windows_per_round == 0 {
            return Err("windows_per_round must be >= 1".into());
        }
        if self.target_utilization_pct == 0 || self.target_utilization_pct > 100 {
            return Err(format!(
                "target utilization must be in 1..=100: {}",
                self.target_utilization_pct
            ));
        }
        if self.min_workers == 0 {
            return Err("min_workers must be >= 1".into());
        }
        if self.max_workers < self.min_workers {
            return Err(format!(
                "max_workers {} < min_workers {}",
                self.max_workers, self.min_workers
            ));
        }
        if self.default_service_us == 0 {
            return Err("default_service_us must be positive".into());
        }
        Ok(())
    }
}

/// An action the planner asks the serving layer to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PlannerAction {
    /// The round's forecast, emitted every round for the event log:
    /// expected busy-time demand next round (µs, fixed-point per-mille
    /// precision folded away) and the worker count that demand asks
    /// for at the target utilization.
    Forecast {
        /// Forecast busy time next round, microseconds.
        busy_us: u64,
        /// Mean service time estimate used, microseconds.
        mean_service_us: u64,
        /// Workers the forecast demands (before hysteresis).
        demand_workers: usize,
    },
    /// Resize the worker pool from `from` to `to` workers.
    Resize {
        /// Provisioned workers before the resize.
        from: usize,
        /// Provisioned workers after the resize.
        to: usize,
    },
    /// Re-run the routing-rule generator against the forecast tier
    /// mix and publish through the epoch machinery.
    Regen {
        /// Forecast tier mix, per-mille of total arrivals per tier
        /// key, canonical (sorted) order.
        mix: BTreeMap<String, u64>,
        /// Seed for the triggered rule generation.
        seed: u64,
    },
}

/// A read-only snapshot of the planner's state for ops endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannerStatus {
    /// Planning rounds completed.
    pub rounds: u64,
    /// Current provisioned-worker belief.
    pub workers: usize,
    /// Demand EWMA, µs of busy time per round (fixed point ÷ 1000).
    pub busy_ewma_us: u64,
    /// Resizes emitted since boot.
    pub resizes: u64,
    /// Regens emitted since boot.
    pub regens: u64,
    /// Forecast tier mix at the last regen (per-mille).
    pub regen_mix: BTreeMap<String, u64>,
}

/// The low-frequency capacity planner. See the module docs.
#[derive(Debug, Clone)]
pub struct Planner {
    config: PlannerConfig,
    /// The host's control-loop window, microseconds: a round is
    /// nominally `window_us × windows_per_round` long.
    window_us: u64,
    /// Previous cumulative observation, diffed against the current one.
    prev: PlannerInput,
    /// Demand EWMA in fixed point: µs of busy time per round × 1000.
    busy_ewma_fp: u64,
    /// Per-tier arrival-rate EWMAs (arrivals per round × 1000).
    tier_ewma_fp: BTreeMap<String, u64>,
    /// Seasonal deviation per slot, signed fixed point.
    season_dev_fp: Vec<i64>,
    /// Rounds observed so far (also indexes the seasonal slot).
    rounds: u64,
    /// The worker count the planner believes is provisioned.
    workers: usize,
    /// Consecutive rounds the demand estimate sat below `workers`.
    shrink_streak: u64,
    /// Tier mix (per-mille) the deployed rules were generated for.
    regen_mix: BTreeMap<String, u64>,
    resizes: u64,
    regens: u64,
}

impl Planner {
    /// A planner believing `initial_workers` are provisioned, whose
    /// host closes one window every `window_us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PlannerConfig::validate`]
    /// or `window_us` is zero.
    pub fn new(config: PlannerConfig, window_us: u64, initial_workers: usize) -> Self {
        if let Err(e) = config.validate() {
            panic!("planner config: {e}");
        }
        assert!(window_us > 0, "planner window must be positive");
        let season = vec![0i64; config.season_len];
        Planner {
            config,
            window_us,
            prev: PlannerInput::default(),
            busy_ewma_fp: 0,
            tier_ewma_fp: BTreeMap::new(),
            season_dev_fp: season,
            rounds: 0,
            workers: initial_workers,
            shrink_streak: 0,
            regen_mix: BTreeMap::new(),
            resizes: 0,
            regens: 0,
        }
    }

    /// The configuration this planner runs.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Close one planning round against the current *cumulative*
    /// totals and return the actions the serving layer should execute,
    /// in order. A [`PlannerAction::Forecast`] is always first; a
    /// resize and/or regen follow when warranted.
    pub fn observe(&mut self, input: &PlannerInput) -> Vec<PlannerAction> {
        let mut actions = Vec::new();

        // Diff cumulative totals into this round's deltas. Saturating:
        // a restarted store can only reset to zero, never go negative.
        let mut delta_busy_us = 0u64;
        let mut delta_served = 0u64;
        for (version, totals) in &input.service {
            let prev = self.prev.service.get(version).copied().unwrap_or_default();
            delta_busy_us += totals.sum_us.saturating_sub(prev.sum_us);
            delta_served += totals.count.saturating_sub(prev.count);
        }
        let mut delta_arrivals = 0u64;
        let mut tier_deltas: BTreeMap<&str, u64> = BTreeMap::new();
        for (tier, count) in &input.arrivals {
            let prev = self.prev.arrivals.get(tier).copied().unwrap_or(0);
            let d = count.saturating_sub(prev);
            delta_arrivals += d;
            tier_deltas.insert(tier, d);
        }

        // Mean service time: observed this round, else lifetime, else
        // the configured default.
        let mean_service_us = delta_busy_us.checked_div(delta_served).unwrap_or_else(|| {
            let (count, sum): (u64, u64) = input
                .service
                .values()
                .fold((0, 0), |(c, s), t| (c + t.count, s + t.sum_us));
            sum.checked_div(count)
                .unwrap_or(self.config.default_service_us)
        });

        // Demand this round: arrivals × mean service time. Arrivals
        // (not served) so shed traffic still registers as demand — a
        // melted SLO must read as under-provisioning, not calm.
        let observed_busy_fp = u64::try_from(
            (delta_arrivals as u128 * mean_service_us as u128 * PERMILLE as u128)
                .min(u64::MAX as u128)
                / PERMILLE as u128,
        )
        .unwrap_or(u64::MAX)
        .saturating_mul(PERMILLE);

        // Demand EWMA (seeded at the first observation).
        let (num, den) = (self.config.alpha_num as u128, self.config.alpha_den as u128);
        self.busy_ewma_fp = if self.rounds == 0 {
            observed_busy_fp
        } else {
            let blended = num * observed_busy_fp as u128 + (den - num) * self.busy_ewma_fp as u128;
            u64::try_from(blended / den).unwrap_or(u64::MAX)
        };

        // Seasonal deviation for this round's slot, and the correction
        // for the *next* round's slot.
        let mut forecast_fp = self.busy_ewma_fp;
        if self.config.season_len > 0 {
            let slot = (self.rounds as usize) % self.config.season_len;
            let dev = observed_busy_fp as i128 - self.busy_ewma_fp as i128;
            let (snum, sden) = (
                self.config.season_alpha_num as i128,
                self.config.season_alpha_den as i128,
            );
            let blended = (snum * dev + (sden - snum) * self.season_dev_fp[slot] as i128) / sden;
            self.season_dev_fp[slot] = blended.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            let next_slot = (self.rounds as usize + 1) % self.config.season_len;
            forecast_fp = u64::try_from(
                (self.busy_ewma_fp as i128 + self.season_dev_fp[next_slot] as i128).max(0),
            )
            .unwrap_or(u64::MAX);
        }

        // Per-tier arrival EWMAs feed the forecast mix.
        for (tier, d) in &tier_deltas {
            let observed_fp = d.saturating_mul(PERMILLE);
            let entry = self.tier_ewma_fp.entry((*tier).to_string()).or_insert(0);
            *entry = if self.rounds == 0 {
                observed_fp
            } else {
                u64::try_from((num * observed_fp as u128 + (den - num) * *entry as u128) / den)
                    .unwrap_or(u64::MAX)
            };
        }

        // Capacity one worker contributes per round at target
        // utilization, µs.
        let round_us = self.window_us * self.config.windows_per_round;
        let per_worker_us = round_us * self.config.target_utilization_pct / 100;
        let forecast_busy_us = forecast_fp / PERMILLE;
        let demand_workers = usize::try_from(forecast_busy_us.div_ceil(per_worker_us.max(1)))
            .unwrap_or(usize::MAX)
            .clamp(self.config.min_workers, self.config.max_workers);

        self.rounds += 1;
        actions.push(PlannerAction::Forecast {
            busy_us: forecast_busy_us,
            mean_service_us,
            demand_workers,
        });

        // Hysteresis: grow eagerly, shrink only after the demand
        // estimate has sat below the provisioned count for
        // `shrink_patience` consecutive rounds.
        if demand_workers > self.workers {
            actions.push(PlannerAction::Resize {
                from: self.workers,
                to: demand_workers,
            });
            self.workers = demand_workers;
            self.shrink_streak = 0;
            self.resizes += 1;
        } else if demand_workers < self.workers {
            self.shrink_streak += 1;
            if self.shrink_streak >= self.config.shrink_patience {
                actions.push(PlannerAction::Resize {
                    from: self.workers,
                    to: demand_workers,
                });
                self.workers = demand_workers;
                self.shrink_streak = 0;
                self.resizes += 1;
            }
        } else {
            self.shrink_streak = 0;
        }

        // Forecast mix vs the mix at the last regen: L1 drift beyond
        // the threshold retriggers rule generation for the new mix.
        let mix = self.forecast_mix();
        if !mix.is_empty() {
            let drift = l1_permille(&mix, &self.regen_mix);
            if self.regen_mix.is_empty() || drift >= self.config.regen_threshold_permille {
                self.regen_mix = mix.clone();
                self.regens += 1;
                actions.push(PlannerAction::Regen {
                    mix,
                    seed: self.config.rulegen_seed,
                });
            }
        }

        self.prev = input.clone();
        actions
    }

    /// The forecast tier mix: each tier's share of total forecast
    /// arrivals, per-mille, canonical order. Empty before any traffic.
    pub fn forecast_mix(&self) -> BTreeMap<String, u64> {
        let total: u128 = self.tier_ewma_fp.values().map(|&v| v as u128).sum();
        if total == 0 {
            return BTreeMap::new();
        }
        self.tier_ewma_fp
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(tier, &v)| {
                (
                    tier.clone(),
                    u64::try_from(v as u128 * PERMILLE as u128 / total).unwrap_or(0),
                )
            })
            .collect()
    }

    /// A snapshot for ops endpoints.
    pub fn status(&self) -> PlannerStatus {
        PlannerStatus {
            rounds: self.rounds,
            workers: self.workers,
            busy_ewma_us: self.busy_ewma_fp / PERMILLE,
            resizes: self.resizes,
            regens: self.regens,
            regen_mix: self.regen_mix.clone(),
        }
    }
}

/// L1 distance between two per-mille mixes, in per-mille.
fn l1_permille(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> u64 {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let x = a.get(k).copied().unwrap_or(0);
            let y = b.get(k).copied().unwrap_or(0);
            x.abs_diff(y)
        })
        .sum()
}

/// Tuner knobs: surge detection and the two fast nudges.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TunerConfig {
    /// Short arrival-EWMA factor numerator.
    pub alpha_num: u64,
    /// Short arrival-EWMA factor denominator.
    pub alpha_den: u64,
    /// A window is a surge when `arrivals * surge_den > ewma *
    /// surge_num` (e.g. 2/1 → double the smoothed rate).
    pub surge_num: u64,
    /// Denominator of the surge ratio.
    pub surge_den: u64,
    /// Admission-limit boost under surge: `limit * boost_num /
    /// boost_den`, clamped to `max_limit`.
    pub boost_num: u64,
    /// Denominator of the admission-limit boost.
    pub boost_den: u64,
    /// Lower clamp for nudged admission limits.
    pub min_limit: usize,
    /// Upper clamp for nudged admission limits.
    pub max_limit: usize,
    /// Batch formation-deadline scale under surge, per-mille of the
    /// configured deadline (e.g. 250 = quarter slack).
    pub surge_slack_permille: u32,
    /// Consecutive calm windows before the tuner reverts its nudges.
    pub calm_windows: u64,
    /// Windows ignored entirely before the EWMA has warmed up.
    pub warmup_windows: u64,
}

impl TunerConfig {
    /// Defaults: 5/10 arrival EWMA, surge at 2× the smoothed rate,
    /// limit boost 2×, quarter batch slack under surge, revert after
    /// 4 calm windows, 2-window warmup.
    pub fn defaults() -> Self {
        TunerConfig {
            alpha_num: 5,
            alpha_den: 10,
            surge_num: 2,
            surge_den: 1,
            boost_num: 2,
            boost_den: 1,
            min_limit: 4,
            max_limit: 4096,
            surge_slack_permille: 250,
            calm_windows: 4,
            warmup_windows: 2,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first nonsensical field.
    pub fn validate(&self) -> Result<(), String> {
        if self.alpha_den == 0 || self.alpha_num == 0 || self.alpha_num > self.alpha_den {
            return Err(format!(
                "tuner EWMA alpha must be in (0, 1]: {}/{}",
                self.alpha_num, self.alpha_den
            ));
        }
        if self.surge_den == 0 || self.surge_num < self.surge_den {
            return Err(format!(
                "surge ratio must be >= 1: {}/{}",
                self.surge_num, self.surge_den
            ));
        }
        if self.boost_den == 0 || self.boost_num < self.boost_den {
            return Err(format!(
                "limit boost must be >= 1: {}/{}",
                self.boost_num, self.boost_den
            ));
        }
        if self.min_limit == 0 || self.max_limit < self.min_limit {
            return Err(format!(
                "limit clamp must satisfy 1 <= min <= max: {}..{}",
                self.min_limit, self.max_limit
            ));
        }
        if self.surge_slack_permille == 0 || self.surge_slack_permille > 1000 {
            return Err(format!(
                "surge slack must be in 1..=1000 per-mille: {}",
                self.surge_slack_permille
            ));
        }
        Ok(())
    }
}

/// What the tuner wants changed after one window, `None` = leave the
/// knob alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TunerDecision {
    /// New AIMD admission limit to install.
    pub admission_limit: Option<usize>,
    /// New batch formation-deadline scale, per-mille.
    pub batch_slack_permille: Option<u32>,
    /// True while the tuner considers the traffic surging.
    pub surging: bool,
}

/// The high-frequency spike absorber. See the module docs.
#[derive(Debug, Clone)]
pub struct Tuner {
    config: TunerConfig,
    prev_arrivals: u64,
    /// Short EWMA of per-window arrivals, fixed point × 1000.
    arrivals_ewma_fp: u64,
    windows: u64,
    surging: bool,
    calm_streak: u64,
    nudges: u64,
}

impl Tuner {
    /// A fresh tuner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TunerConfig::validate`].
    pub fn new(config: TunerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("tuner config: {e}");
        }
        Tuner {
            config,
            prev_arrivals: 0,
            arrivals_ewma_fp: 0,
            windows: 0,
            surging: false,
            calm_streak: 0,
            nudges: 0,
        }
    }

    /// Close one window against the cumulative arrival total and the
    /// currently installed admission limit.
    pub fn observe(&mut self, cumulative_arrivals: u64, current_limit: usize) -> TunerDecision {
        let delta = cumulative_arrivals.saturating_sub(self.prev_arrivals);
        self.prev_arrivals = cumulative_arrivals;
        self.windows += 1;

        let observed_fp = delta.saturating_mul(PERMILLE);
        let warmed = self.windows > self.config.warmup_windows;
        let surge = warmed
            && self.arrivals_ewma_fp > 0
            && (observed_fp as u128 * self.config.surge_den as u128)
                > (self.arrivals_ewma_fp as u128 * self.config.surge_num as u128);

        // Update the EWMA *after* the surge test so a spike is judged
        // against the pre-spike rate; surge windows are excluded from
        // the smoothing so a sustained crowd keeps reading as a surge
        // until the planner re-provisions for it.
        if !surge {
            let (num, den) = (self.config.alpha_num as u128, self.config.alpha_den as u128);
            self.arrivals_ewma_fp = if self.windows == 1 {
                observed_fp
            } else {
                u64::try_from(
                    (num * observed_fp as u128 + (den - num) * self.arrivals_ewma_fp as u128) / den,
                )
                .unwrap_or(u64::MAX)
            };
        }

        let mut decision = TunerDecision {
            surging: surge || (self.surging && self.calm_streak < self.config.calm_windows),
            ..TunerDecision::default()
        };

        if surge {
            self.calm_streak = 0;
            if !self.surging {
                // Surge onset: boost the admission limit and tighten
                // batch formation.
                self.surging = true;
                self.nudges += 1;
                let boosted = (current_limit as u128 * self.config.boost_num as u128
                    / self.config.boost_den as u128)
                    .min(self.config.max_limit as u128);
                decision.admission_limit = Some((boosted as usize).max(self.config.min_limit));
                decision.batch_slack_permille = Some(self.config.surge_slack_permille);
            }
        } else if self.surging {
            self.calm_streak += 1;
            if self.calm_streak >= self.config.calm_windows {
                // Calm restored: hand the limit back to AIMD pacing
                // and restore full batch slack.
                self.surging = false;
                self.calm_streak = 0;
                decision.batch_slack_permille = Some(1000);
                decision.surging = false;
            }
        }

        decision
    }

    /// True while the tuner considers traffic surging.
    pub fn surging(&self) -> bool {
        self.surging
    }

    /// Surge onsets detected since boot.
    pub fn nudges(&self) -> u64 {
        self.nudges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host window the unit tests plan over: 1 ms.
    const WINDOW_US: u64 = 1_000;

    fn config() -> PlannerConfig {
        PlannerConfig {
            windows_per_round: 1,
            season_len: 4,
            ..PlannerConfig::defaults()
        }
    }

    fn input(arrivals: &[(&str, u64)], service: &[(usize, u64, u64)]) -> PlannerInput {
        PlannerInput {
            arrivals: arrivals.iter().map(|(t, n)| (t.to_string(), *n)).collect(),
            service: service
                .iter()
                .map(|(v, count, sum)| {
                    (
                        *v,
                        ServiceTotals {
                            count: *count,
                            sum_us: *sum,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut c = PlannerConfig::defaults();
        c.alpha_num = 0;
        assert!(c.validate().is_err());
        let mut c = PlannerConfig::defaults();
        c.target_utilization_pct = 101;
        assert!(c.validate().is_err());
        let mut c = PlannerConfig::defaults();
        c.max_workers = 0;
        assert!(c.validate().is_err());
        let mut c = TunerConfig::defaults();
        c.surge_num = 0;
        assert!(c.validate().is_err());
        let mut c = TunerConfig::defaults();
        c.surge_slack_permille = 1500;
        assert!(c.validate().is_err());
    }

    #[test]
    fn forecast_precedes_other_actions_every_round() {
        let mut p = Planner::new(config(), WINDOW_US, 1);
        for round in 1..=5u64 {
            let actions = p.observe(&input(
                &[("cost/0.050", round * 10)],
                &[(0, round * 10, round * 10_000)],
            ));
            assert!(
                matches!(actions[0], PlannerAction::Forecast { .. }),
                "round {round}: {actions:?}"
            );
        }
    }

    #[test]
    fn sustained_demand_growth_resizes_up_immediately() {
        let mut p = Planner::new(config(), WINDOW_US, 1);
        // 10 arrivals/round at 1ms mean service in a 1ms round at 70%
        // target utilization demands ~15 workers.
        let actions = p.observe(&input(&[("cost/0.050", 10)], &[(0, 10, 10_000)]));
        let resize = actions.iter().find_map(|a| match a {
            PlannerAction::Resize { from, to } => Some((*from, *to)),
            _ => None,
        });
        let (from, to) = resize.expect("grows on first loaded round");
        assert_eq!(from, 1);
        assert!(to > 10, "demand of 10ms busy in a 0.7ms budget: {to}");
    }

    #[test]
    fn shrink_waits_for_patience_then_releases_capacity() {
        let mut cfg = config();
        cfg.shrink_patience = 2;
        cfg.season_len = 0;
        let mut p = Planner::new(cfg, WINDOW_US, 1);
        // Load up.
        p.observe(&input(&[("cost/0.050", 20)], &[(0, 20, 20_000)]));
        let high = p.status().workers;
        assert!(high > 1);
        // Trough: demand collapses; first calm round must NOT shrink.
        let a1 = p.observe(&input(&[("cost/0.050", 21)], &[(0, 21, 21_000)]));
        assert!(
            !a1.iter().any(|a| matches!(a, PlannerAction::Resize { .. })),
            "patience must hold the first calm round: {a1:?}"
        );
        // EWMA decays across further calm rounds until the streak fires.
        let mut shrank = false;
        for round in 0..6u64 {
            let a = p.observe(&input(
                &[("cost/0.050", 22 + round)],
                &[(0, 22 + round, 22_000 + round * 1_000)],
            ));
            if let Some(PlannerAction::Resize { from, to }) =
                a.iter().find(|a| matches!(a, PlannerAction::Resize { .. }))
            {
                assert!(to < from, "trough resize must shrink: {a:?}");
                shrank = true;
                break;
            }
        }
        assert!(shrank, "planner never released trough capacity");
    }

    #[test]
    fn mix_shift_triggers_regen_with_forecast_mix() {
        let mut p = Planner::new(config(), WINDOW_US, 1);
        let first = p.observe(&input(&[("cost/0.050", 100)], &[(0, 100, 100_000)]));
        assert!(
            first
                .iter()
                .any(|a| matches!(a, PlannerAction::Regen { .. })),
            "first traffic establishes the mix: {first:?}"
        );
        // Same mix → no regen.
        let same = p.observe(&input(&[("cost/0.050", 200)], &[(0, 200, 200_000)]));
        assert!(
            !same
                .iter()
                .any(|a| matches!(a, PlannerAction::Regen { .. })),
            "unchanged mix must not regen: {same:?}"
        );
        // The tier mix flips to a new tier → regen with both tiers in
        // the forecast mix.
        let mut shifted = None;
        for round in 1..=6u64 {
            let a = p.observe(&input(
                &[("cost/0.050", 200), ("cost/0.010", round * 300)],
                &[(0, 200 + round * 300, 200_000 + round * 300_000)],
            ));
            if let Some(PlannerAction::Regen { mix, seed }) = a
                .into_iter()
                .find(|a| matches!(a, PlannerAction::Regen { .. }))
            {
                shifted = Some((mix, seed));
                break;
            }
        }
        let (mix, seed) = shifted.expect("mix flip must trigger a regen");
        assert_eq!(seed, PlannerConfig::defaults().rulegen_seed);
        assert!(mix.contains_key("cost/0.010"), "{mix:?}");
        let total: u64 = mix.values().sum();
        assert!((990..=1000).contains(&total), "mix sums to ~1000: {mix:?}");
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_fold_sequence() {
        let folds: Vec<PlannerInput> = (1..=20u64)
            .map(|round| {
                let surge = if round > 10 { round * 40 } else { round * 8 };
                input(
                    &[("cost/0.050", surge), ("accuracy/0.000", round * 3)],
                    &[(0, surge / 2, surge * 500), (1, round, round * 9_000)],
                )
            })
            .collect();
        let run = || {
            let mut p = Planner::new(config(), WINDOW_US, 2);
            folds.iter().flat_map(|f| p.observe(f)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seasonal_correction_anticipates_a_repeating_peak() {
        let mut cfg = config();
        cfg.season_len = 4;
        cfg.shrink_patience = 1;
        let mut p = Planner::new(cfg, WINDOW_US, 1);
        // A 4-round cycle: one heavy slot, three light. After a few
        // cycles the forecast entering the heavy slot must exceed the
        // forecast entering a light slot.
        let mut cumulative = 0u64;
        let mut cum_us = 0u64;
        let mut heavy_forecasts = Vec::new();
        let mut light_forecasts = Vec::new();
        for round in 0..16u64 {
            let slot = round % 4;
            let arrivals = if slot == 3 { 40 } else { 4 };
            cumulative += arrivals;
            cum_us += arrivals * 1_000;
            let actions = p.observe(&input(
                &[("cost/0.050", cumulative)],
                &[(0, cumulative, cum_us)],
            ));
            if let PlannerAction::Forecast { busy_us, .. } = actions[0] {
                // The forecast emitted in slot 2 targets slot 3 (heavy).
                if round >= 8 {
                    if slot == 2 {
                        heavy_forecasts.push(busy_us);
                    } else if slot == 0 {
                        light_forecasts.push(busy_us);
                    }
                }
            }
        }
        let heavy: u64 = heavy_forecasts.iter().sum::<u64>() / heavy_forecasts.len() as u64;
        let light: u64 = light_forecasts.iter().sum::<u64>() / light_forecasts.len() as u64;
        assert!(
            heavy > light,
            "seasonal slots must anticipate the peak: heavy {heavy} vs light {light}"
        );
    }

    #[test]
    fn tuner_boosts_on_surge_and_reverts_after_calm() {
        let mut t = Tuner::new(TunerConfig::defaults());
        let mut cum = 0u64;
        // Warmup + steady traffic: no nudges.
        for _ in 0..6 {
            cum += 10;
            let d = t.observe(cum, 64);
            assert_eq!(d.admission_limit, None);
        }
        // 5× spike: surge onset nudges both knobs once.
        cum += 50;
        let onset = t.observe(cum, 64);
        assert!(onset.surging);
        assert_eq!(onset.admission_limit, Some(128));
        assert_eq!(onset.batch_slack_permille, Some(250));
        // Continued surge: no repeated nudges.
        cum += 50;
        let sustained = t.observe(cum, 128);
        assert!(sustained.surging);
        assert_eq!(sustained.admission_limit, None);
        // Calm returns: after calm_windows the slack reverts.
        let mut reverted = false;
        for _ in 0..TunerConfig::defaults().calm_windows {
            cum += 10;
            let d = t.observe(cum, 128);
            if d.batch_slack_permille == Some(1000) {
                reverted = true;
                assert!(!d.surging);
            }
        }
        assert!(reverted, "tuner must revert batch slack after calm");
        assert_eq!(t.nudges(), 1);
    }

    #[test]
    fn tuner_is_deterministic_and_clamps_the_boost() {
        let mut cfg = TunerConfig::defaults();
        cfg.max_limit = 100;
        let run = |cfg: TunerConfig| {
            let mut t = Tuner::new(cfg);
            let mut cum = 0u64;
            let mut out = Vec::new();
            for w in 0..12u64 {
                cum += if w == 8 { 200 } else { 10 };
                out.push(t.observe(cum, 64));
            }
            out
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a, b);
        let onset = a.iter().find(|d| d.admission_limit.is_some()).unwrap();
        assert_eq!(onset.admission_limit, Some(100), "boost clamps at max");
    }
}
