//! The policy walk: every tier policy as one sans-IO stage machine.
//!
//! A [`Policy`] is up to three *stages* — a version, with a confidence
//! threshold on every stage but the last — plus a scheduling and a
//! termination: `Single` is one stage, `Cascade` two, `Chain3` three
//! (sequential, early-terminating). A [`Walk`] holds no clock, pool,
//! breaker or retry budget. Its driver runs versions however it runs
//! them (the profile matrix, a worker pool, a simulated node pool),
//! feeds back what it observed, and takes the next step from
//! [`Walk::poll`]. The rules, for stage `k`:
//!
//! * **Launch.** A sequential walk asks for its first stage; a
//!   concurrent one asks for every stage at once.
//! * **Landing.** A landing at or above the stage's threshold (the last
//!   stage has none) answers. Early termination then cancels every later
//!   stage still running; finish-out asks for every later stage not yet
//!   run. Below the threshold the answer becomes the fallback and the
//!   walk asks for the next stage.
//! * **Failure, shed.** A stage that failed (after whatever retries the
//!   driver spent) or that the driver refused moves the walk on like an
//!   unconfident landing, with no fallback.
//! * **Refused stages.** A sequential walk asks again for a later stage
//!   its driver refused (a hedge turned down). A concurrent walk asked
//!   for every stage at arrival; it asks again for a refused one only
//!   after a failure has left it nothing in hand.
//! * **Exhaustion.** With nothing running and nothing left to ask for,
//!   the walk answers with its fallback, degraded, or reports
//!   [`Action::Exhausted`] and the driver degrades or drops.
//! * **Timers.** A hedge asks early for the second stage of a two-stage
//!   sequential walk; a deadline answers with the fallback.
//!
//! Accounting is the profiled model's: the walk's clock advances by each
//! stage that lands (sequential) or to the latest one (concurrent), and
//! the answer's latency is the clock when it answered. Every launched
//! stage is charged its profiled latency as busy time and its profiled
//! cost, except a cancelled one, charged only until the answer:
//! `min(answer latency, its latency)`, and the same fraction of its cost.

use super::{Policy, Scheduling, Termination};
use crate::profile::Observation;

/// What a [`Walk`] asks of its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run stage `k`'s version ([`Walk::version`]), then report
    /// [`Walk::landed`], [`Walk::failed`] or [`Walk::shed`].
    Invoke(usize),
    /// Stop stage `k`: an early-terminating answer made it unnecessary.
    Cancel(usize),
    /// Reply with `stage`'s answer.
    Answer {
        /// The answering stage.
        stage: usize,
        /// The answer is an unconfident one the walk settled for.
        degraded: bool,
    },
    /// Nothing runs, and nothing is left to ask for or answer with.
    Exhausted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// Asked for; [`Walk::poll`] has not handed it out yet.
    Wanted,
    Running,
    Landed,
    Failed,
    /// Refused by the driver.
    Shed,
    /// Cancelled; [`Walk::poll`] has not handed it out yet.
    Cancelling,
    Cancelled,
}

#[derive(Debug, Clone, Copy)]
struct Stage {
    version: usize,
    /// Negative infinity on the last stage, which answers whatever its
    /// confidence.
    threshold: f64,
    latency_us: u64,
    cost: f64,
    state: State,
}

impl Stage {
    fn launched(&self) -> bool {
        !matches!(self.state, State::Idle | State::Wanted | State::Shed)
    }

    fn cancelled(&self) -> bool {
        matches!(self.state, State::Cancelling | State::Cancelled)
    }

    /// Not running and not done: the walk may ask for it (a refused
    /// stage only when `reask_shed`).
    fn open(&self, reask_shed: bool) -> bool {
        self.state == State::Idle || (reask_shed && self.state == State::Shed)
    }
}

/// One request's walk through its policy's stages. `Copy`, and kept
/// entirely on the stack.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    stages: [Stage; 3],
    len: usize,
    concurrent: bool,
    early_terminate: bool,
    clock_us: u64,
    /// The answering stage and whether it was a fallback.
    answer: Option<(usize, bool)>,
    fallback: Option<usize>,
    /// An answer or exhaustion [`Walk::poll`] has not reported yet.
    news: bool,
}

impl Walk {
    /// The walk of `policy` for one request whose profiled observations
    /// (one per version) are `row`.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a version outside `row` (validate it
    /// first, at the trust boundary).
    pub fn new(policy: &Policy, row: &[Observation]) -> Walk {
        let stage = |version: usize, threshold: f64| Stage {
            version,
            threshold,
            latency_us: row[version].latency_us,
            cost: row[version].cost,
            state: State::Idle,
        };
        let (stages, len, concurrent, early_terminate) = match *policy {
            Policy::Single { version } => ([stage(version, f64::NEG_INFINITY); 3], 1, false, true),
            Policy::Cascade {
                cheap,
                accurate,
                threshold,
                scheduling,
                termination,
            } => {
                let last = stage(accurate, f64::NEG_INFINITY);
                (
                    [stage(cheap, threshold), last, last],
                    2,
                    scheduling == Scheduling::Concurrent,
                    termination == Termination::EarlyTerminate,
                )
            }
            Policy::Chain3 {
                first,
                second,
                third,
                threshold_first,
                threshold_second,
            } => (
                [
                    stage(first, threshold_first),
                    stage(second, threshold_second),
                    stage(third, f64::NEG_INFINITY),
                ],
                3,
                false,
                true,
            ),
        };
        let mut walk = Walk {
            stages,
            len,
            concurrent,
            early_terminate,
            clock_us: 0,
            answer: None,
            fallback: None,
            news: false,
        };
        let asked = if concurrent { len } else { 1 };
        for stage in &mut walk.stages[..asked] {
            stage.state = State::Wanted;
        }
        walk
    }

    /// Walk `policy` over one profiled request with nothing failing:
    /// every stage the walk invokes lands with its profiled confidence,
    /// earliest stage first. This is [`Policy::execute`], and the walk a
    /// live driver takes when every version answers.
    pub fn profiled(policy: &Policy, row: &[Observation]) -> Walk {
        let mut walk = Walk::new(policy, row);
        loop {
            while walk.poll().is_some() {}
            if walk.answer.is_some() {
                return walk;
            }
            let k = walk.stages[..walk.len]
                .iter()
                .position(|s| s.state == State::Running)
                .expect("an unanswered walk with nothing failing has a stage running");
            walk.landed(k, row[walk.stages[k].version].confidence);
        }
    }

    /// The next step for the driver, or `None` until it feeds the walk
    /// another observation. Steps come in order: an answer first, then
    /// launches and cancellations by stage.
    pub fn poll(&mut self) -> Option<Action> {
        if std::mem::take(&mut self.news) {
            return Some(match self.answer {
                Some((stage, degraded)) => Action::Answer { stage, degraded },
                None => Action::Exhausted,
            });
        }
        for (k, stage) in self.stages[..self.len].iter_mut().enumerate() {
            match stage.state {
                State::Wanted => {
                    stage.state = State::Running;
                    return Some(Action::Invoke(k));
                }
                State::Cancelling => {
                    stage.state = State::Cancelled;
                    return Some(Action::Cancel(k));
                }
                _ => {}
            }
        }
        None
    }

    /// Stage `k` answered with `confidence`.
    pub fn landed(&mut self, k: usize, confidence: f64) {
        if !self.resolve(k, State::Landed) {
            return;
        }
        let stage = self.stages[k];
        self.clock_us = if self.concurrent {
            self.clock_us.max(stage.latency_us)
        } else {
            self.clock_us + stage.latency_us
        };
        if confidence >= stage.threshold {
            self.respond(k, false);
            let (early_terminate, reask_shed) = (self.early_terminate, !self.concurrent);
            for later in &mut self.stages[k + 1..self.len] {
                if early_terminate && later.state == State::Running {
                    later.state = State::Cancelling;
                } else if !early_terminate && later.open(reask_shed) {
                    later.state = State::Wanted;
                }
            }
        } else {
            self.fallback = Some(k);
            self.advance(k, !self.concurrent);
        }
    }

    /// Stage `k` failed, and its driver will not try it again.
    pub fn failed(&mut self, k: usize) {
        if self.resolve(k, State::Failed) {
            self.advance(k, true);
        }
    }

    /// The driver refused to run stage `k` (a breaker, a quarantine).
    pub fn shed(&mut self, k: usize) {
        if self.resolve(k, State::Shed) {
            self.advance(k, !self.concurrent);
        }
    }

    /// Whether a hedge timer applies: a two-stage sequential walk.
    pub fn hedgeable(&self) -> bool {
        !self.concurrent && self.len == 2
    }

    /// A hedge timer fired: ask for the second stage now, unless the
    /// walk has answered or that stage already ran.
    pub fn hedge(&mut self) {
        if self.hedgeable() && self.answer.is_none() && self.stages[1].open(true) {
            self.stages[1].state = State::Wanted;
        }
    }

    /// A deadline passed: answer with the fallback, if the walk holds
    /// one and has not answered.
    pub fn deadline(&mut self) {
        if let (None, Some(fallback)) = (self.answer, self.fallback) {
            self.respond(fallback, true);
        }
    }

    /// Stage `k`'s version.
    pub fn version(&self, k: usize) -> usize {
        self.stages[k].version
    }

    /// The number of stages.
    pub fn stages(&self) -> usize {
        self.len
    }

    /// The answering version, once the walk has answered.
    pub fn answered_by(&self) -> Option<usize> {
        self.answer.map(|(k, _)| self.stages[k].version)
    }

    /// Accounted latency, µs: the answer's, once the walk has answered.
    pub fn latency_us(&self) -> u64 {
        self.clock_us
    }

    /// Accounted busy time across every launched stage, µs.
    pub fn busy_us(&self) -> u64 {
        self.launched()
            .map(|s| {
                if s.cancelled() {
                    s.latency_us.min(self.clock_us)
                } else {
                    s.latency_us
                }
            })
            .sum()
    }

    /// Accounted cost across every launched stage, in stage order.
    pub fn cost(&self) -> f64 {
        self.launched().fold(0.0, |cost, s| {
            cost + if s.cancelled() {
                let ran = (self.clock_us as f64 / s.latency_us.max(1) as f64).min(1.0);
                s.cost * ran
            } else {
                s.cost
            }
        })
    }

    /// Stages launched (one invocation each; retries are the driver's).
    pub fn invocations(&self) -> u64 {
        self.launched().count() as u64
    }

    /// The versions launched, in launch order.
    pub fn invoked(&self) -> impl Iterator<Item = usize> + '_ {
        self.launched().map(|s| s.version)
    }

    fn launched(&self) -> impl Iterator<Item = &Stage> {
        self.stages[..self.len].iter().filter(|s| s.launched())
    }

    /// Move running stage `k` to `to`; whether the walk, unanswered,
    /// must react.
    fn resolve(&mut self, k: usize, to: State) -> bool {
        if self.stages[k].state != State::Running {
            return false;
        }
        self.stages[k].state = to;
        self.answer.is_none()
    }

    /// Stage `k` resolved without an answer: ask for the next open
    /// stage, or settle for the fallback, or report exhaustion.
    fn advance(&mut self, k: usize, reask_shed: bool) {
        if let Some(next) = self.stages[k + 1..self.len]
            .iter_mut()
            .find(|s| s.open(reask_shed))
        {
            next.state = State::Wanted;
            return;
        }
        let busy = self.stages[..self.len]
            .iter()
            .any(|s| matches!(s.state, State::Wanted | State::Running));
        if busy {
            return;
        }
        match self.fallback {
            Some(fallback) => self.respond(fallback, true),
            None => self.news = true,
        }
    }

    fn respond(&mut self, k: usize, degraded: bool) {
        self.answer = Some((k, degraded));
        self.news = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(latency_us: u64, cost: f64, confidence: f64) -> Observation {
        Observation {
            quality_err: 0.0,
            latency_us,
            cost,
            confidence,
        }
    }

    fn cascade(scheduling: Scheduling, termination: Termination) -> Policy {
        Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling,
            termination,
        }
    }

    fn drain(walk: &mut Walk) -> Vec<Action> {
        std::iter::from_fn(|| walk.poll()).collect()
    }

    #[test]
    fn concurrent_et_cancels_the_accurate_stage_at_the_cheap_answer() {
        let row = [obs(100, 1.0, 0.9), obs(400, 4.0, 0.9)];
        let mut walk = Walk::new(
            &cascade(Scheduling::Concurrent, Termination::EarlyTerminate),
            &row,
        );
        assert_eq!(drain(&mut walk), [Action::Invoke(0), Action::Invoke(1)]);
        walk.landed(0, 0.9);
        assert_eq!(
            drain(&mut walk),
            [
                Action::Answer {
                    stage: 0,
                    degraded: false
                },
                Action::Cancel(1)
            ]
        );
        assert_eq!((walk.latency_us(), walk.busy_us()), (100, 200));
        assert_eq!((walk.invocations(), walk.cost()), (2, 2.0));
    }

    #[test]
    fn sequential_fo_runs_the_accurate_stage_after_answering() {
        let row = [obs(100, 1.0, 0.9), obs(400, 4.0, 0.9)];
        let mut walk = Walk::new(
            &cascade(Scheduling::Sequential, Termination::FinishOut),
            &row,
        );
        assert_eq!(drain(&mut walk), [Action::Invoke(0)]);
        walk.landed(0, 0.9);
        assert_eq!(
            drain(&mut walk),
            [
                Action::Answer {
                    stage: 0,
                    degraded: false
                },
                Action::Invoke(1)
            ]
        );
        assert_eq!((walk.latency_us(), walk.busy_us()), (100, 500));
    }

    #[test]
    fn an_unconfident_answer_is_the_fallback_when_the_rest_fails() {
        let row = [obs(100, 1.0, 0.2), obs(400, 4.0, 0.9)];
        let mut walk = Walk::new(
            &cascade(Scheduling::Sequential, Termination::EarlyTerminate),
            &row,
        );
        drain(&mut walk);
        walk.landed(0, 0.2);
        assert_eq!(drain(&mut walk), [Action::Invoke(1)]);
        walk.failed(1);
        assert_eq!(
            drain(&mut walk),
            [Action::Answer {
                stage: 0,
                degraded: true
            }]
        );
        assert_eq!(walk.answered_by(), Some(0));
        assert_eq!(walk.latency_us(), 100);
    }

    #[test]
    fn shedding_every_stage_exhausts_the_walk() {
        let row = [obs(10, 0.0, 0.9), obs(20, 0.0, 0.9), obs(40, 0.0, 0.9)];
        let chain = Policy::Chain3 {
            first: 0,
            second: 1,
            third: 2,
            threshold_first: 0.5,
            threshold_second: 0.5,
        };
        let mut walk = Walk::new(&chain, &row);
        for k in 0..3 {
            assert_eq!(walk.poll(), Some(Action::Invoke(k)));
            walk.shed(k);
        }
        assert_eq!(drain(&mut walk), [Action::Exhausted]);
        assert_eq!((walk.invocations(), walk.busy_us()), (0, 0));
    }

    #[test]
    fn concurrent_walks_reask_a_refused_stage_only_after_a_failure() {
        let row = [obs(100, 0.0, 0.2), obs(400, 0.0, 0.9)];
        let policy = cascade(Scheduling::Concurrent, Termination::EarlyTerminate);
        let refused = || {
            let mut walk = Walk::new(&policy, &row);
            assert_eq!(walk.poll(), Some(Action::Invoke(0)));
            assert_eq!(walk.poll(), Some(Action::Invoke(1)));
            walk.shed(1);
            walk
        };
        let mut unconfident = refused();
        unconfident.landed(0, 0.2);
        assert_eq!(
            drain(&mut unconfident),
            [Action::Answer {
                stage: 0,
                degraded: true
            }]
        );
        let mut failed = refused();
        failed.failed(0);
        assert_eq!(drain(&mut failed), [Action::Invoke(1)]);
    }

    #[test]
    fn a_hedge_launches_the_second_stage_of_a_sequential_cascade_once() {
        let row = [obs(100, 0.0, 0.9), obs(400, 0.0, 0.9)];
        let mut walk = Walk::new(
            &cascade(Scheduling::Sequential, Termination::EarlyTerminate),
            &row,
        );
        assert!(walk.hedgeable());
        drain(&mut walk);
        walk.hedge();
        assert_eq!(drain(&mut walk), [Action::Invoke(1)]);
        walk.hedge();
        assert_eq!(walk.poll(), None);
        walk.landed(0, 0.9);
        assert_eq!(
            drain(&mut walk),
            [
                Action::Answer {
                    stage: 0,
                    degraded: false
                },
                Action::Cancel(1)
            ]
        );
        let single = Walk::new(&Policy::Single { version: 0 }, &row);
        assert!(!single.hedgeable());
    }

    #[test]
    fn a_deadline_answers_with_the_fallback_only() {
        let row = [obs(100, 0.0, 0.2), obs(400, 0.0, 0.9)];
        let mut walk = Walk::new(
            &cascade(Scheduling::Sequential, Termination::EarlyTerminate),
            &row,
        );
        drain(&mut walk);
        walk.deadline();
        assert_eq!(walk.poll(), None);
        walk.landed(0, 0.2);
        drain(&mut walk);
        walk.deadline();
        assert_eq!(
            drain(&mut walk),
            [Action::Answer {
                stage: 0,
                degraded: true
            }]
        );
        // A late landing changes nothing.
        walk.landed(1, 0.9);
        assert_eq!(walk.poll(), None);
        assert_eq!(walk.answered_by(), Some(0));
    }
}
