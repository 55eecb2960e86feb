//! The routing-rule generator (paper Fig. 7).
//!
//! The generator takes training data (a [`ProfileMatrix`]), a set of
//! candidate policies and a confidence level. Construction bootstraps
//! every candidate: repeatedly draw a random tenth of the training
//! requests, evaluate the candidate on the sample, and record the tuple
//! *(error degradation, response time, cost)*; trials continue until
//! each metric satisfies the paper's z-score confidence criterion, and
//! the per-candidate **worst case** over trials is kept. `generate`
//! then assembles routing rules: for each tolerance, the candidate with
//! the smallest objective value among those whose worst-case error
//! degradation fits within the tolerance.
//!
//! Error degradation is *relative to the most accurate single version*,
//! measured on the same trial sample, matching the paper's "less than
//! 1% worse than the most accurate tier" phrasing.
//!
//! # Parallelism and determinism
//!
//! Candidates are bootstrapped independently, so construction fans them
//! out across a [`crate::parallel`] worker pool. Every candidate `i`
//! derives its RNG stream by hashing the base seed with its index
//! ([`crate::parallel::mix_seed`]); no random state is shared between
//! candidates, and records are collected back in candidate order —
//! which makes the generator's output **bit-identical at any thread
//! count**, including the sequential `threads = 1` path.

use crate::objective::Objective;
use crate::parallel;
use crate::policy::{Policy, Scheduling, Termination};
use crate::profile::ProfileMatrix;
use crate::request::Tolerance;
use crate::tier::serving_tier;
use crate::{CoreError, Result};
use tt_stats::bootstrap::{Bootstrap, TrialLimits};

/// Penalty used when a trial sample's baseline error is zero but the
/// candidate errs (finite so a single degenerate sample cannot poison
/// every statistic, large enough to disqualify the candidate).
const ZERO_BASELINE_PENALTY: f64 = 1e6;

/// Confidence thresholds enumerated for cascade candidates. Dense at
/// the top because that is where the small-tolerance tiers live: the
/// degradation a cascade introduces falls off steeply as the threshold
/// approaches 1.
const DEFAULT_THRESHOLDS: [f64; 13] = [
    0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.93, 0.95, 0.97, 0.98, 0.99,
];

/// Bootstrapped statistics for one candidate policy.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CandidateRecord {
    /// The candidate.
    pub policy: Policy,
    /// Worst observed relative error degradation across trials.
    pub worst_err_degradation: f64,
    /// Worst observed mean response time (µs) across trials.
    pub worst_latency_us: f64,
    /// Worst observed mean cost across trials.
    pub worst_cost: f64,
    /// Mean of the per-trial error degradations.
    pub mean_err_degradation: f64,
    /// Mean of the per-trial mean response times (µs).
    pub mean_latency_us: f64,
    /// Mean of the per-trial mean costs.
    pub mean_cost: f64,
    /// Bootstrap trials executed.
    pub trials: usize,
    /// Whether the confidence stopping rule fired.
    pub converged: bool,
}

impl CandidateRecord {
    /// The record's value under an objective (worst case, which is what
    /// the guarantee machinery reasons about).
    pub fn objective_value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::ResponseTime => self.worst_latency_us,
            Objective::Cost => self.worst_cost,
        }
    }
}

/// The deployed routing rules for one objective: per tolerance tier,
/// the policy that serves it.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoutingRules {
    objective: Objective,
    /// Most accurate single version (the zero-tolerance fallback and
    /// degradation baseline).
    baseline_version: usize,
    /// `(tolerance, chosen policy)` sorted by ascending tolerance.
    tiers: Vec<(f64, Policy)>,
}

impl RoutingRules {
    /// The objective these rules optimize.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The most accurate single version (baseline).
    pub fn baseline_version(&self) -> usize {
        self.baseline_version
    }

    /// `(tolerance, policy)` pairs, ascending.
    pub fn tiers(&self) -> &[(f64, Policy)] {
        &self.tiers
    }

    /// The policy serving a consumer-requested tolerance: that of the
    /// largest deployed tier whose tolerance does not exceed the
    /// request's (guarantees transfer downward). Requests below the
    /// smallest tier get the baseline version.
    pub fn lookup(&self, tolerance: Tolerance) -> Policy {
        match serving_tier(&self.tiers, |&(tol, _)| tol, tolerance.value()) {
            Some(tier) => self.tiers[tier].1,
            None => Policy::Single {
                version: self.baseline_version,
            },
        }
    }

    /// Translate every version index through `map` (new index → old
    /// index): rules generated over a quarantine sub-matrix (see
    /// [`ProfileMatrix::without_versions`]) become valid against the
    /// full deployment again. Tolerances, thresholds, and ordering are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if a policy references a version at or beyond
    /// `map.len()`.
    #[must_use]
    pub fn map_versions(&self, map: &[usize]) -> RoutingRules {
        RoutingRules {
            objective: self.objective,
            baseline_version: map[self.baseline_version],
            tiers: self
                .tiers
                .iter()
                .map(|&(tol, policy)| (tol, policy.map_versions(|v| map[v])))
                .collect(),
        }
    }
}

/// The generator: bootstrapped candidate records over a training
/// matrix.
#[derive(Debug, Clone)]
pub struct RoutingRuleGenerator<'a> {
    matrix: &'a ProfileMatrix,
    records: Vec<CandidateRecord>,
    baseline_version: usize,
    confidence: f64,
}

impl<'a> RoutingRuleGenerator<'a> {
    /// Bootstrap the default candidate set (every single version; every
    /// faster-but-less-accurate → slower-but-more-accurate cascade pair
    /// across all four scheduling/termination flavours and six
    /// confidence thresholds).
    ///
    /// # Errors
    ///
    /// Propagates invalid confidence levels and degenerate matrices.
    pub fn with_defaults(matrix: &'a ProfileMatrix, confidence: f64, seed: u64) -> Result<Self> {
        Self::with_defaults_threaded(matrix, confidence, seed, 0)
    }

    /// [`Self::with_defaults`] with an explicit worker-thread count
    /// (`0` means one worker per available hardware thread). The output
    /// is bit-identical for every `threads` value.
    ///
    /// # Errors
    ///
    /// Propagates invalid confidence levels and degenerate matrices.
    pub fn with_defaults_threaded(
        matrix: &'a ProfileMatrix,
        confidence: f64,
        seed: u64,
        threads: usize,
    ) -> Result<Self> {
        let candidates = Self::default_candidates(matrix)?;
        Self::new_threaded(
            matrix,
            candidates,
            confidence,
            seed,
            TrialLimits::default(),
            threads,
        )
    }

    /// Bootstrap an explicit candidate set across all available
    /// hardware threads.
    ///
    /// # Errors
    ///
    /// Returns an error if any candidate is invalid for the matrix, the
    /// confidence is outside `(0, 1)`, or the candidate set is empty.
    pub fn new(
        matrix: &'a ProfileMatrix,
        candidates: Vec<Policy>,
        confidence: f64,
        seed: u64,
        limits: TrialLimits,
    ) -> Result<Self> {
        Self::new_threaded(matrix, candidates, confidence, seed, limits, 0)
    }

    /// [`Self::new`] with an explicit worker-thread count (`0` means
    /// one worker per available hardware thread). The output is
    /// bit-identical for every `threads` value: each candidate's
    /// bootstrap runs on its own RNG stream derived by hashing the base
    /// seed with the candidate index, and records are collected in
    /// candidate order.
    ///
    /// # Errors
    ///
    /// Returns an error if any candidate is invalid for the matrix, the
    /// confidence is outside `(0, 1)`, or the candidate set is empty.
    pub fn new_threaded(
        matrix: &'a ProfileMatrix,
        candidates: Vec<Policy>,
        confidence: f64,
        seed: u64,
        limits: TrialLimits,
        threads: usize,
    ) -> Result<Self> {
        if candidates.is_empty() {
            return Err(CoreError::InvalidParameter { what: "candidates" });
        }
        for c in &candidates {
            c.validate(matrix.versions())?;
        }
        // Validate the confidence level once, up front, rather than on
        // every worker.
        Bootstrap::new(confidence, 0)?;
        let baseline_version = matrix.best_version()?;

        let records = parallel::parallel_map(threads, &candidates, |i, policy| {
            Self::bootstrap_candidate(
                matrix,
                baseline_version,
                *policy,
                confidence,
                parallel::mix_seed(seed, i as u64),
                limits,
            )
        })
        .into_iter()
        .collect::<Result<Vec<CandidateRecord>>>()?;
        Ok(RoutingRuleGenerator {
            matrix,
            records,
            baseline_version,
            confidence,
        })
    }

    /// Bootstrap one candidate on its own seeded RNG stream. The trial
    /// loop is allocation-free: the candidate is compiled once into a
    /// [`crate::policy::PolicyEvaluator`], the baseline error comes
    /// from the matrix's SoA column, and the resample buffer is reused
    /// across trials by [`Bootstrap::run_indices`].
    fn bootstrap_candidate(
        matrix: &ProfileMatrix,
        baseline_version: usize,
        policy: Policy,
        confidence: f64,
        seed: u64,
        limits: TrialLimits,
    ) -> Result<CandidateRecord> {
        let boot = Bootstrap::new(confidence, seed)?.with_limits(limits);
        let evaluator = policy.evaluator(matrix)?;
        let baseline_err_col = matrix.columns(baseline_version).quality_err;
        let outcome = boot.run_indices(matrix.requests(), 3, |idx, out| {
            let perf = evaluator
                .evaluate_indices(idx)
                .expect("validated policy over validated indices");
            let mut baseline_sum = 0.0;
            for &r in idx {
                baseline_sum += baseline_err_col[r];
            }
            let baseline_err = baseline_sum / idx.len() as f64;
            let degradation = if baseline_err == 0.0 {
                if perf.mean_err == 0.0 {
                    0.0
                } else {
                    ZERO_BASELINE_PENALTY
                }
            } else {
                (perf.mean_err - baseline_err) / baseline_err
            };
            out[0] = degradation;
            out[1] = perf.mean_latency_us;
            out[2] = perf.mean_cost;
            Ok(())
        })?;
        Ok(CandidateRecord {
            policy,
            worst_err_degradation: outcome.worst_case[0],
            worst_latency_us: outcome.worst_case[1],
            worst_cost: outcome.worst_case[2],
            mean_err_degradation: outcome.trial_mean[0],
            mean_latency_us: outcome.trial_mean[1],
            mean_cost: outcome.trial_mean[2],
            trials: outcome.trials,
            converged: outcome.converged,
        })
    }

    /// The default candidate enumeration for a matrix.
    ///
    /// # Errors
    ///
    /// Propagates matrix statistics failures.
    pub fn default_candidates(matrix: &ProfileMatrix) -> Result<Vec<Policy>> {
        let v = matrix.versions();
        let mut errs = Vec::with_capacity(v);
        let mut lats = Vec::with_capacity(v);
        for i in 0..v {
            errs.push(matrix.version_error(i, None)?);
            lats.push(matrix.version_latency(i, None)?);
        }
        let mut candidates: Vec<Policy> =
            (0..v).map(|version| Policy::Single { version }).collect();
        for cheap in 0..v {
            for accurate in 0..v {
                // A cascade makes sense when the first version is faster
                // and the second strictly more accurate.
                if cheap == accurate
                    || lats[cheap] >= lats[accurate]
                    || errs[accurate] >= errs[cheap]
                {
                    continue;
                }
                for &threshold in &DEFAULT_THRESHOLDS {
                    for scheduling in [Scheduling::Sequential, Scheduling::Concurrent] {
                        for termination in [Termination::EarlyTerminate, Termination::FinishOut] {
                            candidates.push(Policy::Cascade {
                                cheap,
                                accurate,
                                threshold,
                                scheduling,
                                termination,
                            });
                        }
                    }
                }
            }
        }
        Ok(candidates)
    }

    /// Three-version chain candidates for ablation studies (the paper
    /// evaluated chains and found the two-version cascades superior;
    /// these are *not* part of [`Self::default_candidates`]).
    ///
    /// # Errors
    ///
    /// Propagates matrix statistics failures.
    pub fn chain_candidates(matrix: &ProfileMatrix) -> Result<Vec<Policy>> {
        let v = matrix.versions();
        if v < 3 {
            return Ok(Vec::new());
        }
        let mut errs = Vec::with_capacity(v);
        let mut lats = Vec::with_capacity(v);
        for i in 0..v {
            errs.push(matrix.version_error(i, None)?);
            lats.push(matrix.version_latency(i, None)?);
        }
        let mut candidates = Vec::new();
        for first in 0..v {
            for second in 0..v {
                for third in 0..v {
                    let ordered = lats[first] < lats[second]
                        && lats[second] < lats[third]
                        && errs[first] > errs[second]
                        && errs[second] > errs[third];
                    if !ordered {
                        continue;
                    }
                    for &t1 in &[0.7, 0.9, 0.97] {
                        for &t2 in &[0.7, 0.9, 0.97] {
                            candidates.push(Policy::Chain3 {
                                first,
                                second,
                                third,
                                threshold_first: t1,
                                threshold_second: t2,
                            });
                        }
                    }
                }
            }
        }
        Ok(candidates)
    }

    /// The bootstrapped candidate records.
    pub fn records(&self) -> &[CandidateRecord] {
        &self.records
    }

    /// The confidence level used for bootstrapping.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The degradation baseline (most accurate single version).
    pub fn baseline_version(&self) -> usize {
        self.baseline_version
    }

    /// Assemble routing rules for the given tolerances (paper
    /// `generate`): per tolerance, the feasible candidate minimizing
    /// the objective's worst-case value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoFeasiblePolicy`] if some tolerance admits
    /// no candidate (cannot happen when the candidate set contains the
    /// baseline single version, whose degradation is identically zero).
    pub fn generate(&self, tolerances: &[f64], objective: Objective) -> Result<RoutingRules> {
        let mut tiers = Vec::with_capacity(tolerances.len());
        for &tol in tolerances {
            if !tol.is_finite() || tol < 0.0 {
                return Err(CoreError::InvalidParameter { what: "tolerance" });
            }
            // The zero-tolerance tier *is* the most accurate tier: no
            // amount of bootstrap evidence can certify an ensemble that
            // is allowed to degrade by exactly nothing, so it always
            // deploys the baseline version.
            if tol == 0.0 {
                tiers.push((
                    tol,
                    Policy::Single {
                        version: self.baseline_version,
                    },
                ));
                continue;
            }
            let best = self
                .records
                .iter()
                .filter(|r| r.worst_err_degradation <= tol + 1e-9)
                .min_by(|a, b| {
                    a.objective_value(objective)
                        .partial_cmp(&b.objective_value(objective))
                        .expect("objective values are finite")
                });
            match best {
                Some(rec) => tiers.push((tol, rec.policy)),
                None => return Err(CoreError::NoFeasiblePolicy { tolerance: tol }),
            }
        }
        tiers.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("tolerances are finite"));
        Ok(RoutingRules {
            objective,
            baseline_version: self.baseline_version,
            tiers,
        })
    }

    /// The training matrix the generator was built over.
    pub fn matrix(&self) -> &ProfileMatrix {
        self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::test_support::toy_matrix;

    fn generator(matrix: &ProfileMatrix) -> RoutingRuleGenerator<'_> {
        RoutingRuleGenerator::with_defaults(matrix, 0.9, 7).unwrap()
    }

    #[test]
    fn default_candidates_include_singles_and_cascades() {
        let m = toy_matrix();
        let cands = RoutingRuleGenerator::default_candidates(&m).unwrap();
        let singles = cands
            .iter()
            .filter(|c| matches!(c, Policy::Single { .. }))
            .count();
        let cascades = cands.len() - singles;
        assert_eq!(singles, 2);
        // One valid (cheap, accurate) pair × 13 thresholds × 4 flavours.
        assert_eq!(cascades, 13 * 4);
    }

    #[test]
    fn baseline_single_version_has_zero_degradation() {
        let m = toy_matrix();
        let g = generator(&m);
        let baseline_rec = g
            .records()
            .iter()
            .find(|r| matches!(r.policy, Policy::Single { version } if version == g.baseline_version()))
            .unwrap();
        assert_eq!(baseline_rec.worst_err_degradation, 0.0);
    }

    #[test]
    fn zero_tolerance_tier_is_always_feasible() {
        let m = toy_matrix();
        let g = generator(&m);
        let rules = g.generate(&[0.0], Objective::ResponseTime).unwrap();
        assert_eq!(rules.tiers().len(), 1);
        // The chosen policy's worst-case degradation must be zero.
        let chosen = rules.tiers()[0].1;
        let rec = g.records().iter().find(|r| r.policy == chosen).unwrap();
        assert!(rec.worst_err_degradation <= 1e-9);
    }

    #[test]
    fn looser_tolerance_never_costs_more() {
        let m = toy_matrix();
        let g = generator(&m);
        for objective in Objective::all() {
            let rules = g.generate(&[0.0, 0.05, 0.10, 0.5, 1.0], objective).unwrap();
            let values: Vec<f64> = rules
                .tiers()
                .iter()
                .map(|(_, p)| {
                    g.records()
                        .iter()
                        .find(|r| r.policy == *p)
                        .unwrap()
                        .objective_value(objective)
                })
                .collect();
            for w in values.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "objective worsened with looser tolerance: {values:?}"
                );
            }
        }
    }

    #[test]
    fn lookup_returns_largest_qualifying_tier() {
        let m = toy_matrix();
        let g = generator(&m);
        let rules = g.generate(&[0.0, 0.10], Objective::ResponseTime).unwrap();
        let at_5pct = rules.lookup(Tolerance::new(0.05).unwrap());
        assert_eq!(at_5pct, rules.tiers()[0].1);
        let at_20pct = rules.lookup(Tolerance::new(0.20).unwrap());
        assert_eq!(at_20pct, rules.tiers()[1].1);
    }

    #[test]
    fn thread_count_does_not_change_records() {
        let m = toy_matrix();
        let sequential = RoutingRuleGenerator::with_defaults_threaded(&m, 0.9, 7, 1).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                RoutingRuleGenerator::with_defaults_threaded(&m, 0.9, 7, threads).unwrap();
            assert_eq!(
                sequential.records(),
                parallel.records(),
                "threads={threads}"
            );
            assert_eq!(
                sequential
                    .generate(&[0.0, 0.05, 0.5], Objective::Cost)
                    .unwrap(),
                parallel
                    .generate(&[0.0, 0.05, 0.5], Objective::Cost)
                    .unwrap(),
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let m = toy_matrix();
        let a = RoutingRuleGenerator::with_defaults(&m, 0.9, 3)
            .unwrap()
            .generate(&[0.05], Objective::Cost)
            .unwrap();
        let b = RoutingRuleGenerator::with_defaults(&m, 0.9, 3)
            .unwrap()
            .generate(&[0.05], Objective::Cost)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn map_versions_round_trips_rules_from_a_sub_matrix() {
        let m = toy_matrix();
        let rules = generator(&m)
            .generate(&[0.0, 0.10, 0.5], Objective::Cost)
            .unwrap();
        // Pretend these rules came from a sub-matrix whose version i is
        // the full deployment's version i+2.
        let map = vec![2, 3];
        let shifted = rules.map_versions(&map);
        assert_eq!(shifted.objective(), rules.objective());
        assert_eq!(shifted.baseline_version(), rules.baseline_version() + 2);
        assert_eq!(shifted.tiers().len(), rules.tiers().len());
        for ((tol_a, pol_a), (tol_b, pol_b)) in rules.tiers().iter().zip(shifted.tiers()) {
            assert_eq!(tol_a, tol_b);
            assert_eq!(pol_a.map_versions(|v| v + 2), *pol_b);
        }
        // Identity map is a no-op.
        assert_eq!(rules.map_versions(&[0, 1]), rules);
    }

    #[test]
    fn rejects_empty_candidates_and_bad_tolerance() {
        let m = toy_matrix();
        assert!(RoutingRuleGenerator::new(&m, vec![], 0.9, 1, TrialLimits::default()).is_err());
        let g = generator(&m);
        assert!(g.generate(&[-0.1], Objective::Cost).is_err());
        assert!(g.generate(&[f64::NAN], Objective::Cost).is_err());
    }
}
