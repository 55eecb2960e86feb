//! Deadline-bounded request coalescing for the reactor engine.
//!
//! Tolerant requests that resolve to the same objective and the same
//! policy are compatible: their accounted outcomes are independent pure
//! functions of `(policy, payload)`, so a group of them can share one
//! vectorized evaluator pass (one executor thread walks the group's
//! completion timeline) instead of occupying a model-pool slot each.
//! The batcher
//! holds such requests for a *formation deadline* proportional to the
//! loosest thing the customer asked for — a request resolved to a
//! strict tier never waits here at all (the service bypasses the
//! batcher for it, see [`crate::tiers::TierEntry::strict`]), and no
//! request waits longer than [`BatchConfig::max_deadline`].
//!
//! Determinism: batching only changes *when* work happens on the wall
//! clock, never *what* is accounted. Each member's settlement runs the
//! same math as the synchronous path, so response bytes and billed
//! totals are bit-identical whether a request was batched, and at any
//! batch composition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tt_core::objective::Objective;
use tt_core::policy::Policy;

/// Tuning for the request-coalescing layer. Disabled by default; the
/// reactor engine's bench and e2e configurations switch it on.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Master switch: when `false` the service never constructs a
    /// batcher and every request takes the synchronous path.
    pub enabled: bool,
    /// A group is flushed immediately once it holds this many members.
    pub max_batch: usize,
    /// Formation-deadline slope: a request may wait up to
    /// `tolerance × slack` microseconds for batchmates.
    pub slack_us_per_unit_tolerance: u64,
    /// Hard cap on any formation deadline, however loose the tier.
    pub max_deadline: Duration,
    /// Batch-executor threads (each flushes whole groups).
    pub workers: usize,
}

impl BatchConfig {
    /// Disabled, with the tuning the bench and e2e suites use once
    /// they flip `enabled`: batches of 32, 10 ms of formation slack
    /// per unit tolerance capped at 2 ms, two executors.
    pub fn defaults() -> Self {
        BatchConfig {
            enabled: false,
            max_batch: 32,
            slack_us_per_unit_tolerance: 10_000,
            max_deadline: Duration::from_millis(2),
            workers: 2,
        }
    }

    /// How long a batched request declaring `tolerance` may wait for
    /// batchmates: `min(max_deadline, tolerance × slack)`. Whether it
    /// is batched at all is its tier's call, not this one's.
    pub fn formation_deadline(&self, tolerance: f64) -> Duration {
        let slack_us = (tolerance * self.slack_us_per_unit_tolerance as f64).round() as u64;
        Duration::from_micros(slack_us).min(self.max_deadline)
    }

    /// [`BatchConfig::formation_deadline`] scaled by
    /// `slack_permille / 1000` — the capacity tuner's surge knob:
    /// tightening formation deadlines trades batching efficiency for
    /// queueing headroom without rebuilding the batcher. A scaled
    /// deadline of zero still batches (the group just flushes
    /// immediately).
    pub fn formation_deadline_scaled(&self, tolerance: f64, slack_permille: u32) -> Duration {
        let us = self.formation_deadline(tolerance).as_micros() as u64;
        Duration::from_micros(us * u64::from(slack_permille) / 1000)
    }
}

/// What makes two in-flight requests batchable: same objective, same
/// resolved policy — every variant field (versions, thresholds,
/// scheduling, termination). A `Copy` value, so parking a request
/// allocates no key.
pub(crate) type GroupKey = (Objective, Policy);

/// One request handed to the batcher. `finish(batch_size, waited_us)`
/// runs on a batch-executor thread after the group's shared sleep and
/// performs the member's settlement and reply.
pub(crate) struct BatchItem {
    pub key: GroupKey,
    /// How long this member may wait for batchmates.
    pub deadline_in: Duration,
    /// The member's accounted latency, µs — the flush settles this
    /// member once that much scaled time has passed since enqueue.
    pub sim_latency_us: u64,
    pub finish: Box<dyn FnOnce(u64, u64) + Send>,
}

struct Member {
    enqueued: Instant,
    sim_latency_us: u64,
    finish: Box<dyn FnOnce(u64, u64) + Send>,
}

struct Group {
    members: Vec<Member>,
    /// Earliest member deadline: the whole group flushes when the
    /// tightest member's patience runs out.
    deadline: Instant,
}

struct Shared {
    /// Forming groups, oldest first.
    state: Mutex<Vec<(GroupKey, Group)>>,
    cv: Condvar,
    max_batch: usize,
    latency_scale: f64,
    shutdown: AtomicBool,
}

/// The coalescing queue plus its executor threads. Dropping the
/// batcher flushes every pending group (no reply is ever lost) and
/// joins the executors.
pub(crate) struct Batcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Batcher {
    pub fn new(config: &BatchConfig, latency_scale: f64) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            max_batch: config.max_batch.max(1),
            latency_scale,
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tt-batch-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn batch executor")
            })
            .collect();
        Batcher { shared, workers }
    }

    /// Add one request to its compatibility group. The group flushes
    /// when full or when its earliest member deadline expires.
    pub fn enqueue(&self, item: BatchItem) {
        let deadline = Instant::now() + item.deadline_in;
        let wake = {
            let mut state = self.shared.state.lock().expect("batch state lock");
            let at = state
                .iter()
                .position(|(key, _)| *key == item.key)
                .unwrap_or_else(|| {
                    let members = Vec::new();
                    state.push((item.key, Group { members, deadline }));
                    state.len() - 1
                });
            let group = &mut state[at].1;
            let new_group = group.members.is_empty();
            let earlier = deadline < group.deadline;
            if earlier {
                group.deadline = deadline;
            }
            group.members.push(Member {
                enqueued: Instant::now(),
                sim_latency_us: item.sim_latency_us,
                finish: item.finish,
            });
            // A sleeping executor only needs to hear about pushes that
            // change when the next flush is due: a group appearing, a
            // deadline moving earlier, or a group filling up. Joining
            // an existing group ahead of its deadline changes nothing
            // the timed waits don't already cover — and waking one
            // executor (not the whole pool) is enough, because each
            // wake handles at most one flush event.
            new_group || earlier || group.members.len() >= self.shared.max_batch
        };
        if wake {
            self.shared.cv.notify_one();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            // Set the flag under the lock so a worker checking it
            // between its scan and its wait cannot miss the notify.
            let _state = self.shared.state.lock().expect("batch state lock");
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker(shared: &Shared) {
    let mut state = shared.state.lock().expect("batch state lock");
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        let now = Instant::now();
        let ripe = state.iter().position(|(_, g)| {
            draining || g.members.len() >= shared.max_batch || g.deadline <= now
        });
        if let Some(at) = ripe {
            let (_, group) = state.remove(at);
            drop(state);
            // This thread is about to go quiet for the whole flush; if
            // more work is already ripe, a peer should pick it up now
            // rather than at its next timed wake. One notify per flush
            // is cheap — the per-enqueue storm is what the wake
            // discipline above avoids.
            shared.cv.notify_one();
            execute(shared, group);
            state = shared.state.lock().expect("batch state lock");
            continue;
        }
        if draining {
            return;
        }
        // Sleep until the earliest group deadline (or a bounded idle
        // tick when empty); enqueue/drop notify the condvar.
        let wait = state
            .iter()
            .map(|(_, g)| g.deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(50))
            .max(Duration::from_micros(20));
        state = shared
            .cv
            .wait_timeout(state, wait)
            .expect("batch state lock")
            .0;
    }
}

/// Flush one group: the vectorized evaluator pass. The pass occupies
/// this executor for the slowest member's scaled accounted latency;
/// each member settles as its *own* accounted latency elapses, counted
/// from when it joined the queue — formation wait is spent inside the
/// member's latency budget, not stacked on top of it. Only wall timing
/// varies here; every accounted value was fixed before enqueue.
fn execute(shared: &Shared, group: Group) {
    let batch_size = group.members.len() as u64;
    let flushed = Instant::now();
    let mut members: Vec<(Duration, u64, Member)> = group
        .members
        .into_iter()
        .map(|member| {
            let waited = flushed.duration_since(member.enqueued);
            let nominal =
                Duration::from_secs_f64(member.sim_latency_us as f64 * 1e-6 * shared.latency_scale);
            (
                nominal.saturating_sub(waited),
                waited.as_micros() as u64,
                member,
            )
        })
        .collect();
    // Stable by remaining time: ties settle in enqueue order.
    members.sort_by_key(|(remaining, ..)| *remaining);
    for (remaining, waited_us, member) in members {
        let elapsed = flushed.elapsed();
        if remaining > elapsed {
            std::thread::sleep(remaining - elapsed);
        }
        (member.finish)(batch_size, waited_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn formation_deadline_scales_with_tolerance_and_caps() {
        let config = BatchConfig::defaults();
        assert_eq!(config.formation_deadline(0.0), Duration::ZERO);
        assert_eq!(config.formation_deadline(0.007), Duration::from_micros(70));
        assert_eq!(config.formation_deadline(0.01), Duration::from_micros(100));
        assert_eq!(config.formation_deadline(0.1), Duration::from_micros(1000));
        assert_eq!(
            config.formation_deadline(0.5),
            config.max_deadline,
            "slack is capped"
        );
        assert_eq!(
            config.formation_deadline_scaled(0.1, 250),
            Duration::from_micros(250)
        );
    }

    fn item(version: usize, deadline: Duration, tx: &mpsc::Sender<(u64, u64)>) -> BatchItem {
        let tx = tx.clone();
        BatchItem {
            key: (Objective::ResponseTime, Policy::Single { version }),
            deadline_in: deadline,
            sim_latency_us: 10,
            finish: Box::new(move |size, waited| {
                let _ = tx.send((size, waited));
            }),
        }
    }

    #[test]
    fn full_group_flushes_without_waiting_for_the_deadline() {
        let config = BatchConfig {
            enabled: true,
            max_batch: 3,
            ..BatchConfig::defaults()
        };
        let batcher = Batcher::new(&config, 0.0);
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            batcher.enqueue(item(0, Duration::from_secs(60), &tx));
        }
        for _ in 0..3 {
            let (size, _) = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("full batch flushes promptly");
            assert_eq!(size, 3);
        }
    }

    #[test]
    fn deadline_flushes_a_partial_group() {
        let batcher = Batcher::new(&BatchConfig::defaults(), 0.0);
        let (tx, rx) = mpsc::channel();
        batcher.enqueue(item(1, Duration::from_millis(5), &tx));
        let (size, waited) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("deadline flushes the lone member");
        assert_eq!(size, 1);
        assert!(waited >= 4_000, "waited ~the deadline, got {waited}µs");
    }

    #[test]
    fn incompatible_groups_never_merge() {
        let config = BatchConfig {
            enabled: true,
            max_batch: 2,
            ..BatchConfig::defaults()
        };
        let batcher = Batcher::new(&config, 0.0);
        let (tx, rx) = mpsc::channel();
        batcher.enqueue(item(0, Duration::from_millis(5), &tx));
        batcher.enqueue(item(1, Duration::from_millis(5), &tx));
        for _ in 0..2 {
            let (size, _) = rx.recv_timeout(Duration::from_secs(5)).expect("flushed");
            assert_eq!(size, 1, "different policies must not share a batch");
        }
    }

    #[test]
    fn drop_flushes_pending_members() {
        let flushed = Arc::new(AtomicU64::new(0));
        let batcher = Batcher::new(&BatchConfig::defaults(), 0.0);
        for _ in 0..5 {
            let counter = Arc::clone(&flushed);
            batcher.enqueue(BatchItem {
                key: (Objective::Cost, Policy::Single { version: 0 }),
                deadline_in: Duration::from_secs(600),
                sim_latency_us: 0,
                finish: Box::new(move |_, _| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            });
        }
        drop(batcher);
        assert_eq!(
            flushed.load(Ordering::SeqCst),
            5,
            "every pending reply settles on shutdown"
        );
    }
}
