//! Service-version ensembling policies (§IV-C of the paper).
//!
//! A policy decides how one or two service versions combine to answer a
//! request. Cascades are parameterized along two orthogonal axes:
//!
//! * **Scheduling** — `Sequential` runs the cheap version first and the
//!   accurate one only on low confidence; `Concurrent` launches both at
//!   t = 0.
//! * **Termination** — `EarlyTerminate` (ET) cancels work made
//!   unnecessary by a confident cheap answer; `FinishOut` (FO) lets
//!   every launched invocation run to completion (the paper: "In FO,
//!   the IaaS cost for Conc is the same as Seq because both service
//!   node versions will compute the results in either case").
//!
//! The cost/latency algebra per flavour, for cheap observation `c` and
//! accurate observation `a`, confident := `c.confidence ≥ threshold`:
//!
//! | scheduling | termination | latency                        | cost                                  |
//! |------------|-------------|--------------------------------|---------------------------------------|
//! | Seq        | ET          | conf? c.lat : c.lat + a.lat    | conf? c.cost : c.cost + a.cost        |
//! | Seq        | FO          | conf? c.lat : c.lat + a.lat    | c.cost + a.cost                       |
//! | Conc       | ET          | conf? c.lat : max(c.lat,a.lat) | conf? c.cost + a.cost·min(1, c/a) : both |
//! | Conc       | FO          | conf? c.lat : max(c.lat,a.lat) | c.cost + a.cost                       |
//!
//! The algebra is executed in one place, the [`Walk`] stage machine
//! that every driver (this module's [`Policy::execute`], the live
//! service, the cluster simulator) feeds; [`PolicyEvaluator`] is its
//! closed form for aggregates, held to it by test.

use crate::profile::{ProfileMatrix, VersionColumns};
use crate::{CoreError, Result};

mod walk;

pub use walk::{Action, Walk};

/// When the ensemble launches each version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Scheduling {
    /// Launch the accurate version only after the cheap one disappoints.
    Sequential,
    /// Launch both versions at request arrival.
    Concurrent,
}

/// Whether superfluous in-flight work is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Termination {
    /// Cancel the accurate version once a confident cheap answer lands.
    EarlyTerminate,
    /// Let every launched invocation finish.
    FinishOut,
}

/// A routing policy for one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Policy {
    /// Route every request to one version (the "one size fits all"
    /// baseline when that version is the most accurate one).
    Single {
        /// Version index.
        version: usize,
    },
    /// A two-version cascade.
    Cascade {
        /// The fast version consulted first.
        cheap: usize,
        /// The accurate version consulted when confidence is low.
        accurate: usize,
        /// Confidence threshold above which the cheap answer is final.
        threshold: f64,
        /// Scheduling axis.
        scheduling: Scheduling,
        /// Termination axis.
        termination: Termination,
    },
    /// A three-version sequential chain with early termination — one of
    /// the "more complex solutions including using more than two
    /// versions" the paper evaluated (and found outperformed by the
    /// simple policies; kept here as an ablation).
    Chain3 {
        /// First version consulted.
        first: usize,
        /// Second version, consulted when the first is unconfident.
        second: usize,
        /// Final version; always answers if reached.
        third: usize,
        /// Confidence threshold for accepting the first version.
        threshold_first: f64,
        /// Confidence threshold for accepting the second version.
        threshold_second: f64,
    },
}

/// What a policy produced for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PolicyOutcome {
    /// Quality error of the returned result.
    pub quality_err: f64,
    /// Response time in microseconds.
    pub latency_us: u64,
    /// Total invocation cost in dollars.
    pub cost: f64,
    /// Which version's answer was returned.
    pub answered_by: usize,
}

impl Policy {
    /// The same policy with every version index passed through `map`.
    ///
    /// Used to translate policies generated over a sub-matrix (see
    /// [`crate::profile::ProfileMatrix::without_versions`]) back into
    /// the indices of the full deployment.
    #[must_use]
    pub fn map_versions<F: Fn(usize) -> usize>(self, map: F) -> Policy {
        match self {
            Policy::Single { version } => Policy::Single {
                version: map(version),
            },
            Policy::Cascade {
                cheap,
                accurate,
                threshold,
                scheduling,
                termination,
            } => Policy::Cascade {
                cheap: map(cheap),
                accurate: map(accurate),
                threshold,
                scheduling,
                termination,
            },
            Policy::Chain3 {
                first,
                second,
                third,
                threshold_first,
                threshold_second,
            } => Policy::Chain3 {
                first: map(first),
                second: map(second),
                third: map(third),
                threshold_first,
                threshold_second,
            },
        }
    }

    /// Validate the policy against a matrix's version count.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range versions, a cascade onto
    /// itself, or a threshold outside `[0, 1]`.
    pub fn validate(&self, versions: usize) -> Result<()> {
        match *self {
            Policy::Single { version } => {
                if version >= versions {
                    return Err(CoreError::UnknownVersion {
                        index: version,
                        versions,
                    });
                }
            }
            Policy::Cascade {
                cheap,
                accurate,
                threshold,
                ..
            } => {
                for v in [cheap, accurate] {
                    if v >= versions {
                        return Err(CoreError::UnknownVersion { index: v, versions });
                    }
                }
                if cheap == accurate {
                    return Err(CoreError::InvalidParameter {
                        what: "cascade versions",
                    });
                }
                if !(0.0..=1.0).contains(&threshold) {
                    return Err(CoreError::InvalidParameter { what: "threshold" });
                }
            }
            Policy::Chain3 {
                first,
                second,
                third,
                threshold_first,
                threshold_second,
            } => {
                for v in [first, second, third] {
                    if v >= versions {
                        return Err(CoreError::UnknownVersion { index: v, versions });
                    }
                }
                if first == second || second == third || first == third {
                    return Err(CoreError::InvalidParameter {
                        what: "chain versions",
                    });
                }
                for t in [threshold_first, threshold_second] {
                    if !(0.0..=1.0).contains(&t) {
                        return Err(CoreError::InvalidParameter { what: "threshold" });
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate the policy on one profiled request: the [`Walk`] over
    /// the request's matrix row, cheap stage first.
    ///
    /// # Panics
    ///
    /// Panics if the policy references versions outside the matrix
    /// (call [`Policy::validate`] first at the trust boundary).
    pub fn execute(&self, matrix: &ProfileMatrix, request: usize) -> PolicyOutcome {
        let row = matrix.request_row(request);
        let walk = Walk::profiled(self, row);
        let answered_by = walk
            .answered_by()
            .expect("a walk with nothing failing answers");
        PolicyOutcome {
            quality_err: row[answered_by].quality_err,
            latency_us: walk.latency_us(),
            cost: walk.cost(),
            answered_by,
        }
    }

    /// Evaluate over all (or a subset of) requests and aggregate.
    ///
    /// The full-matrix path (`indices: None`) iterates the request
    /// range directly and performs **zero heap allocations**: the
    /// policy is compiled once into a [`PolicyEvaluator`] borrowing the
    /// matrix's per-version SoA columns, then the aggregation streams
    /// through them.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty or out-of-range index set.
    pub fn evaluate(
        &self,
        matrix: &ProfileMatrix,
        indices: Option<&[usize]>,
    ) -> Result<PolicyPerformance> {
        let evaluator = self.evaluator(matrix)?;
        match indices {
            Some(idx) => evaluator.evaluate_indices(idx),
            None => Ok(evaluator.evaluate_all()),
        }
    }

    /// Compile the policy against a matrix into a reusable evaluator:
    /// version columns are resolved and per-version constants hoisted
    /// once, so callers evaluating the same policy over many index sets
    /// (the bootstrap trial loop) pay the validation and set-up cost a
    /// single time.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy is invalid for the matrix.
    pub fn evaluator<'m>(&self, matrix: &'m ProfileMatrix) -> Result<PolicyEvaluator<'m>> {
        self.validate(matrix.versions())?;
        let kernel = match *self {
            Policy::Single { version } => EvalKernel::Single {
                cols: matrix.columns(version),
            },
            Policy::Cascade {
                cheap,
                accurate,
                threshold,
                scheduling,
                termination,
            } => EvalKernel::Cascade {
                cheap: matrix.columns(cheap),
                accurate: matrix.columns(accurate),
                threshold,
                sequential: scheduling == Scheduling::Sequential,
                early_terminate: termination == Termination::EarlyTerminate,
            },
            Policy::Chain3 {
                first,
                second,
                third,
                threshold_first,
                threshold_second,
            } => EvalKernel::Chain3 {
                first: matrix.columns(first),
                second: matrix.columns(second),
                third: matrix.columns(third),
                threshold_first,
                threshold_second,
            },
        };
        Ok(PolicyEvaluator {
            kernel,
            requests: matrix.requests(),
        })
    }
}

/// A policy compiled against one matrix: borrowed SoA columns plus the
/// policy constants, ready for repeated allocation-free aggregation.
#[derive(Debug, Clone, Copy)]
pub struct PolicyEvaluator<'m> {
    kernel: EvalKernel<'m>,
    requests: usize,
}

/// The per-flavour evaluation kernel. Scheduling/termination are
/// pre-resolved to booleans and each referenced version's columns are
/// captured as contiguous slices.
#[derive(Debug, Clone, Copy)]
enum EvalKernel<'m> {
    Single {
        cols: VersionColumns<'m>,
    },
    Cascade {
        cheap: VersionColumns<'m>,
        accurate: VersionColumns<'m>,
        threshold: f64,
        sequential: bool,
        early_terminate: bool,
    },
    Chain3 {
        first: VersionColumns<'m>,
        second: VersionColumns<'m>,
        third: VersionColumns<'m>,
        threshold_first: f64,
        threshold_second: f64,
    },
}

impl EvalKernel<'_> {
    /// One request: `(quality_err, latency_us, cost, cheap_answered)`.
    #[inline]
    fn step(&self, r: usize) -> (f64, u64, f64, bool) {
        match *self {
            EvalKernel::Single { cols } => {
                (cols.quality_err[r], cols.latency_us[r], cols.cost[r], false)
            }
            EvalKernel::Cascade {
                cheap,
                accurate,
                threshold,
                sequential,
                early_terminate,
            } => {
                let confident = cheap.confidence[r] >= threshold;
                let c_lat = cheap.latency_us[r];
                let a_lat = accurate.latency_us[r];
                let latency_us = if confident {
                    c_lat
                } else if sequential {
                    c_lat + a_lat
                } else {
                    c_lat.max(a_lat)
                };
                let c_cost = cheap.cost[r];
                let a_cost = accurate.cost[r];
                let cost = if !early_terminate || !confident {
                    // Finish-out, and every non-confident flavour, pays
                    // both versions in full.
                    c_cost + a_cost
                } else if sequential {
                    // Sequential + confident + ET: the accurate version
                    // was never launched.
                    c_cost
                } else {
                    // Concurrent + confident + ET: the accurate version
                    // ran until the cheap answer landed.
                    let fraction = (c_lat as f64 / a_lat.max(1) as f64).min(1.0);
                    c_cost + a_cost * fraction
                };
                let quality_err = if confident {
                    cheap.quality_err[r]
                } else {
                    accurate.quality_err[r]
                };
                (quality_err, latency_us, cost, confident)
            }
            EvalKernel::Chain3 {
                first,
                second,
                third,
                threshold_first,
                threshold_second,
            } => {
                if first.confidence[r] >= threshold_first {
                    return (
                        first.quality_err[r],
                        first.latency_us[r],
                        first.cost[r],
                        true,
                    );
                }
                if second.confidence[r] >= threshold_second {
                    return (
                        second.quality_err[r],
                        first.latency_us[r] + second.latency_us[r],
                        first.cost[r] + second.cost[r],
                        false,
                    );
                }
                (
                    third.quality_err[r],
                    first.latency_us[r] + second.latency_us[r] + third.latency_us[r],
                    first.cost[r] + second.cost[r] + third.cost[r],
                    false,
                )
            }
        }
    }
}

impl PolicyEvaluator<'_> {
    /// Aggregate over every request of the matrix. Allocation-free.
    pub fn evaluate_all(&self) -> PolicyPerformance {
        self.accumulate(0..self.requests, self.requests)
    }

    /// Aggregate over an explicit index set (repeats allowed — the
    /// bootstrap resamples with replacement). Allocation-free on the
    /// success path.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty or out-of-range index set.
    pub fn evaluate_indices(&self, indices: &[usize]) -> Result<PolicyPerformance> {
        if indices.is_empty() {
            return Err(CoreError::Stats(tt_stats::StatsError::EmptySample));
        }
        for &r in indices {
            if r >= self.requests {
                return Err(CoreError::MalformedProfile {
                    detail: format!("index {r} out of range"),
                });
            }
        }
        Ok(self.accumulate(indices.iter().copied(), indices.len()))
    }

    fn accumulate<I: Iterator<Item = usize>>(&self, requests: I, n: usize) -> PolicyPerformance {
        let mut err = 0.0;
        let mut lat = 0.0;
        let mut cost = 0.0;
        let mut cheap_answers = 0usize;
        for r in requests {
            let (e, l, c, cheap_hit) = self.kernel.step(r);
            err += e;
            lat += l as f64;
            cost += c;
            cheap_answers += usize::from(cheap_hit);
        }
        let n = n as f64;
        PolicyPerformance {
            mean_err: err / n,
            mean_latency_us: lat / n,
            mean_cost: cost / n,
            cheap_answer_fraction: cheap_answers as f64 / n,
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::Single { version } => write!(f, "single(v{version})"),
            Policy::Cascade {
                cheap,
                accurate,
                threshold,
                scheduling,
                termination,
            } => {
                let sched = match scheduling {
                    Scheduling::Sequential => "seq",
                    Scheduling::Concurrent => "conc",
                };
                let term = match termination {
                    Termination::EarlyTerminate => "et",
                    Termination::FinishOut => "fo",
                };
                write!(
                    f,
                    "cascade(v{cheap}→v{accurate}, θ={threshold:.2}, {sched}+{term})"
                )
            }
            Policy::Chain3 {
                first,
                second,
                third,
                threshold_first,
                threshold_second,
            } => write!(
                f,
                "chain(v{first}→v{second}→v{third}, θ={threshold_first:.2}/{threshold_second:.2})"
            ),
        }
    }
}

/// Aggregate performance of a policy over a request set.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PolicyPerformance {
    /// Mean quality error.
    pub mean_err: f64,
    /// Mean response time in microseconds.
    pub mean_latency_us: f64,
    /// Mean invocation cost in dollars.
    pub mean_cost: f64,
    /// Fraction of requests answered by the cheap version (0 for
    /// single-version policies).
    pub cheap_answer_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::test_support::toy_matrix;

    fn cascade(scheduling: Scheduling, termination: Termination) -> Policy {
        Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling,
            termination,
        }
    }

    #[test]
    fn single_reproduces_version_stats() {
        let m = toy_matrix();
        let perf = Policy::Single { version: 1 }.evaluate(&m, None).unwrap();
        assert_eq!(perf.mean_err, 0.25);
        assert_eq!(perf.mean_latency_us, 400.0);
        assert_eq!(perf.mean_cost, 4.0);
        assert_eq!(perf.cheap_answer_fraction, 0.0);
    }

    #[test]
    fn sequential_et_charges_only_cheap_when_confident() {
        let m = toy_matrix();
        // Request 0: conf 0.95 >= 0.5 -> cheap answers.
        let o = cascade(Scheduling::Sequential, Termination::EarlyTerminate).execute(&m, 0);
        assert_eq!(o.latency_us, 100);
        assert_eq!(o.cost, 1.0);
        assert_eq!(o.answered_by, 0);
        // Request 1: conf 0.30 < 0.5 -> escalate.
        let o = cascade(Scheduling::Sequential, Termination::EarlyTerminate).execute(&m, 1);
        assert_eq!(o.latency_us, 500);
        assert_eq!(o.cost, 5.0);
        assert_eq!(o.quality_err, 0.0);
        assert_eq!(o.answered_by, 1);
    }

    #[test]
    fn map_versions_remaps_every_index_and_nothing_else() {
        let p = Policy::Single { version: 1 }.map_versions(|v| v + 3);
        assert_eq!(p, Policy::Single { version: 4 });

        let p = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.7,
            scheduling: Scheduling::Concurrent,
            termination: Termination::EarlyTerminate,
        }
        .map_versions(|v| [2, 5][v]);
        assert_eq!(
            p,
            Policy::Cascade {
                cheap: 2,
                accurate: 5,
                threshold: 0.7,
                scheduling: Scheduling::Concurrent,
                termination: Termination::EarlyTerminate,
            }
        );

        let p = Policy::Chain3 {
            first: 0,
            second: 1,
            third: 2,
            threshold_first: 0.6,
            threshold_second: 0.8,
        }
        .map_versions(|v| v * 2);
        assert_eq!(
            p,
            Policy::Chain3 {
                first: 0,
                second: 2,
                third: 4,
                threshold_first: 0.6,
                threshold_second: 0.8,
            }
        );
    }

    #[test]
    fn finish_out_always_pays_both() {
        let m = toy_matrix();
        let o = cascade(Scheduling::Sequential, Termination::FinishOut).execute(&m, 0);
        assert_eq!(o.cost, 5.0);
        assert_eq!(o.latency_us, 100); // still answers fast
        let o = cascade(Scheduling::Concurrent, Termination::FinishOut).execute(&m, 0);
        assert_eq!(o.cost, 5.0);
    }

    #[test]
    fn concurrent_latency_is_max_not_sum() {
        let m = toy_matrix();
        // Request 1 is unconfident.
        let seq = cascade(Scheduling::Sequential, Termination::EarlyTerminate).execute(&m, 1);
        let conc = cascade(Scheduling::Concurrent, Termination::EarlyTerminate).execute(&m, 1);
        assert_eq!(seq.latency_us, 500);
        assert_eq!(conc.latency_us, 400);
    }

    #[test]
    fn concurrent_et_pays_partial_accurate_cost_when_confident() {
        let m = toy_matrix();
        // Request 0: confident at 100µs; accurate takes 400µs, so 1/4 of
        // its cost accrues before cancellation.
        let o = cascade(Scheduling::Concurrent, Termination::EarlyTerminate).execute(&m, 0);
        assert!((o.cost - 2.0).abs() < 1e-12); // 1.0 + 4.0 * 0.25
        assert_eq!(o.latency_us, 100);
    }

    #[test]
    fn threshold_one_always_escalates_threshold_zero_never() {
        let m = toy_matrix();
        let never = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.0,
            scheduling: Scheduling::Sequential,
            termination: Termination::EarlyTerminate,
        };
        let perf = never.evaluate(&m, None).unwrap();
        assert_eq!(perf.cheap_answer_fraction, 1.0);
        assert_eq!(perf.mean_err, 0.5); // cheap version's error

        let always = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 1.0,
            scheduling: Scheduling::Sequential,
            termination: Termination::EarlyTerminate,
        };
        let perf = always.evaluate(&m, None).unwrap();
        assert_eq!(perf.cheap_answer_fraction, 0.0);
        assert_eq!(perf.mean_err, 0.25); // accurate version's error
    }

    #[test]
    fn cascade_with_discriminative_confidence_beats_both_singles() {
        let m = toy_matrix();
        // Threshold 0.5 separates the toy matrix's confident/unconfident
        // requests perfectly.
        let c = cascade(Scheduling::Sequential, Termination::EarlyTerminate)
            .evaluate(&m, None)
            .unwrap();
        let fast = Policy::Single { version: 0 }.evaluate(&m, None).unwrap();
        let acc = Policy::Single { version: 1 }.evaluate(&m, None).unwrap();
        assert_eq!(c.mean_err, acc.mean_err); // no accuracy loss
        assert!(c.mean_latency_us < acc.mean_latency_us);
        assert!(c.mean_cost < acc.mean_cost);
        assert!(c.mean_err < fast.mean_err);
    }

    #[test]
    fn validate_catches_bad_policies() {
        let m = toy_matrix();
        assert!(Policy::Single { version: 5 }
            .validate(m.versions())
            .is_err());
        assert!(Policy::Cascade {
            cheap: 0,
            accurate: 0,
            threshold: 0.5,
            scheduling: Scheduling::Sequential,
            termination: Termination::FinishOut,
        }
        .validate(m.versions())
        .is_err());
        assert!(Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 1.5,
            scheduling: Scheduling::Sequential,
            termination: Termination::FinishOut,
        }
        .validate(m.versions())
        .is_err());
    }

    fn chain() -> Policy {
        Policy::Chain3 {
            first: 0,
            second: 1,
            third: 0, // deliberately invalid in validate tests; fixed below
            threshold_first: 0.5,
            threshold_second: 0.5,
        }
    }

    #[test]
    fn chain_requires_distinct_versions() {
        let m = toy_matrix();
        assert!(chain().validate(m.versions()).is_err());
    }

    #[test]
    fn chain_semantics_on_a_three_version_matrix() {
        // Build a 3-version matrix by hand.
        let mut b =
            crate::profile::ProfileMatrixBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        let obs = |err: f64, lat: u64, conf: f64| Observation {
            quality_err: err,
            latency_us: lat,
            cost: lat as f64,
            confidence: conf,
        };
        // r0: first confident; r1: second confident; r2: falls through.
        b.push_request(vec![
            obs(0.0, 10, 0.9),
            obs(0.0, 20, 0.9),
            obs(0.0, 40, 0.9),
        ]);
        b.push_request(vec![
            obs(1.0, 10, 0.1),
            obs(0.0, 20, 0.9),
            obs(0.0, 40, 0.9),
        ]);
        b.push_request(vec![
            obs(1.0, 10, 0.1),
            obs(1.0, 20, 0.1),
            obs(0.0, 40, 0.9),
        ]);
        let m = b.build().unwrap();
        let p = Policy::Chain3 {
            first: 0,
            second: 1,
            third: 2,
            threshold_first: 0.5,
            threshold_second: 0.5,
        };
        let o0 = p.execute(&m, 0);
        assert_eq!((o0.latency_us, o0.answered_by), (10, 0));
        let o1 = p.execute(&m, 1);
        assert_eq!((o1.latency_us, o1.answered_by), (30, 1));
        assert_eq!(o1.quality_err, 0.0);
        let o2 = p.execute(&m, 2);
        assert_eq!((o2.latency_us, o2.answered_by), (70, 2));
        assert_eq!(o2.cost, 70.0);
        // cheap_answer_fraction counts first-stage answers.
        let perf = p.evaluate(&m, None).unwrap();
        assert!((perf.cheap_answer_fraction - 1.0 / 3.0).abs() < 1e-12);
    }

    use crate::profile::Observation;

    #[test]
    fn kernel_matches_scalar_execute_on_every_flavour() {
        let m = toy_matrix();
        let mut policies = vec![Policy::Single { version: 0 }, Policy::Single { version: 1 }];
        for scheduling in [Scheduling::Sequential, Scheduling::Concurrent] {
            for termination in [Termination::EarlyTerminate, Termination::FinishOut] {
                for threshold in [0.0, 0.25, 0.5, 0.93, 1.0] {
                    policies.push(Policy::Cascade {
                        cheap: 0,
                        accurate: 1,
                        threshold,
                        scheduling,
                        termination,
                    });
                }
            }
        }
        let idx = [3, 0, 0, 2, 1];
        for p in policies {
            let reference = |set: &[usize]| {
                let (mut err, mut lat, mut cost) = (0.0, 0.0, 0.0);
                for &r in set {
                    let o = p.execute(&m, r);
                    err += o.quality_err;
                    lat += o.latency_us as f64;
                    cost += o.cost;
                }
                let n = set.len() as f64;
                (err / n, lat / n, cost / n)
            };
            let all: Vec<usize> = (0..m.requests()).collect();
            for (perf, set) in [
                (p.evaluate(&m, None).unwrap(), &all[..]),
                (p.evaluate(&m, Some(&idx)).unwrap(), &idx[..]),
            ] {
                let (err, lat, cost) = reference(set);
                assert_eq!(perf.mean_err, err, "{p}");
                assert_eq!(perf.mean_latency_us, lat, "{p}");
                assert_eq!(perf.mean_cost, cost, "{p}");
            }
        }
    }

    #[test]
    fn reusable_evaluator_agrees_with_evaluate() {
        let m = toy_matrix();
        let p = cascade(Scheduling::Concurrent, Termination::EarlyTerminate);
        let ev = p.evaluator(&m).unwrap();
        assert_eq!(ev.evaluate_all(), p.evaluate(&m, None).unwrap());
        assert_eq!(
            ev.evaluate_indices(&[1, 1, 2]).unwrap(),
            p.evaluate(&m, Some(&[1, 1, 2])).unwrap()
        );
        assert!(ev.evaluate_indices(&[]).is_err());
        assert!(ev.evaluate_indices(&[99]).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Policy::Single { version: 2 }.to_string(), "single(v2)");
        assert!(cascade(Scheduling::Concurrent, Termination::EarlyTerminate)
            .to_string()
            .contains("conc+et"));
    }
}
