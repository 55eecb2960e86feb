//! A real thread-pool executor for tiered serving.
//!
//! The cluster simulator reasons about time analytically; this module
//! actually *runs* model code on worker threads, with genuine
//! concurrency (crossbeam channels) and early-ish termination (a
//! cancellation flag checked before a queued call starts; compute
//! cannot be preempted mid-call, matching how real serving frameworks
//! cancel between batches).
//!
//! The pool runs calls; it knows nothing of policies or failures. What
//! a tier policy launches, cancels, retries and answers with comes from
//! its [`crate::resilience::ResilientWalk`], which the caller drives
//! with the pool's results.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A counting semaphore bounding in-flight model calls.
///
/// Both execution paths — queued jobs picked up by pool workers and
/// [`WorkerPool::run_inline`] calls on the caller's thread — hold one
/// permit per running call, so the pool's concurrency bound is the
/// number of permits regardless of which path a call takes. (Uses the
/// std primitives directly: the vendored `parking_lot` shim has no
/// `Condvar`.)
#[derive(Debug)]
struct Permits {
    state: std::sync::Mutex<PermitState>,
    freed: std::sync::Condvar,
}

/// `available` counts free permits; `deficit` counts permits scheduled
/// for removal that are currently held by running calls. A shrink never
/// waits for in-flight work: it takes what is free immediately and
/// books the remainder as deficit, which future releases pay down
/// before any permit becomes available again. `waiters` counts callers
/// blocked in `acquire`: `Condvar::notify_one` is a `futex` syscall
/// whether or not anyone is parked, and a release with nobody waiting
/// (every inline model call on an uncontended pool) skips it.
#[derive(Debug)]
struct PermitState {
    available: usize,
    deficit: usize,
    waiters: usize,
}

impl Permits {
    fn new(count: usize) -> Self {
        Permits {
            state: std::sync::Mutex::new(PermitState {
                available: count,
                deficit: 0,
                waiters: 0,
            }),
            freed: std::sync::Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while s.available == 0 {
            // Counted under the lock `release` reads it under, so a
            // release either sees this waiter or has already made its
            // permit visible to the check above.
            s.waiters += 1;
            s = self
                .freed
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.waiters -= 1;
        }
        s.available -= 1;
    }

    fn release(&self) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.deficit > 0 {
            s.deficit -= 1;
            return;
        }
        s.available += 1;
        let wake = s.waiters > 0;
        drop(s);
        if wake {
            self.freed.notify_one();
        }
    }

    /// Grow capacity by `count` permits (paying down any deficit
    /// first).
    fn add(&self, count: usize) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let paid = count.min(s.deficit);
        s.deficit -= paid;
        s.available += count - paid;
        drop(s);
        self.freed.notify_all();
    }

    /// Shrink capacity by `count` permits without waiting for running
    /// calls: free permits are removed immediately, the remainder is
    /// booked as deficit and absorbed by future releases.
    fn remove(&self, count: usize) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let taken = count.min(s.available);
        s.available -= taken;
        s.deficit += count - taken;
    }
}

/// A unit of model work: returns `(result, confidence)`.
pub type ModelCall<T> = Box<dyn FnOnce() -> (T, f64) + Send + 'static>;

enum Job<T> {
    Run {
        call: ModelCall<T>,
        cancelled: Arc<AtomicBool>,
        reply: Sender<(T, f64)>,
    },
    Shutdown,
}

/// A fixed-size worker pool executing model calls.
///
/// ```
/// use tt_serve::live::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let rx = pool.submit(Box::new(|| (21 * 2, 0.99)));
/// assert_eq!(rx.recv().unwrap(), (42, 0.99));
/// pool.shutdown();
/// ```
#[derive(Debug)]
pub struct WorkerPool<T: Send + 'static> {
    tx: Sender<Job<T>>,
    /// Retained so [`WorkerPool::resize`] can hand new workers the
    /// same MPMC job stream.
    rx: Receiver<Job<T>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    permits: Arc<Permits>,
    /// The provisioned worker count (the resize target). Workers being
    /// drained out by a shrink are no longer counted even while they
    /// finish their in-flight call.
    provisioned: std::sync::atomic::AtomicUsize,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawn `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let (tx, rx) = unbounded::<Job<T>>();
        let permits = Arc::new(Permits::new(workers));
        let handles = (0..workers)
            .map(|_| Self::spawn_worker(&rx, &permits))
            .collect();
        WorkerPool {
            tx,
            rx,
            workers: Mutex::new(handles),
            permits,
            provisioned: std::sync::atomic::AtomicUsize::new(workers),
        }
    }

    fn spawn_worker(rx: &Receiver<Job<T>>, permits: &Arc<Permits>) -> JoinHandle<()> {
        let rx: Receiver<Job<T>> = rx.clone();
        let permits = Arc::clone(permits);
        std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                match job {
                    Job::Run {
                        call,
                        cancelled,
                        reply,
                    } => {
                        if cancelled.load(Ordering::Relaxed) {
                            continue; // cancelled while queued
                        }
                        permits.acquire();
                        let out = call();
                        permits.release();
                        let _ = reply.send(out);
                    }
                    Job::Shutdown => break,
                }
            }
        })
    }

    /// The provisioned worker count (the most recent resize target).
    pub fn workers(&self) -> usize {
        self.provisioned.load(Ordering::SeqCst)
    }

    /// Live-resize the pool to `target` workers.
    ///
    /// Growing spawns fresh workers on the shared job stream and adds
    /// permits immediately. Shrinking enqueues one shutdown job per
    /// retired worker and books the permit removal as a deficit paid
    /// by completing calls — a worker always finishes its in-flight
    /// call before exiting (drain-before-reap), so no request is ever
    /// dropped by a resize. Returns the previous provisioned count.
    ///
    /// # Panics
    ///
    /// Panics if `target == 0`.
    pub fn resize(&self, target: usize) -> usize {
        assert!(target > 0, "pool needs at least one worker");
        let mut workers = self.workers.lock();
        let current = self.provisioned.load(Ordering::SeqCst);
        if target > current {
            self.permits.add(target - current);
            for _ in current..target {
                workers.push(Self::spawn_worker(&self.rx, &self.permits));
            }
        } else if target < current {
            let retire = current - target;
            self.permits.remove(retire);
            for _ in 0..retire {
                let _ = self.tx.send(Job::Shutdown);
            }
        }
        self.provisioned.store(target, Ordering::SeqCst);
        // Reap workers that have already drained out of earlier
        // shrinks; exited threads join instantly.
        let mut alive = Vec::with_capacity(workers.len());
        for handle in workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                alive.push(handle);
            }
        }
        *workers = alive;
        current
    }

    /// Submit a call; the receiver yields its result.
    pub fn submit(&self, call: ModelCall<T>) -> Receiver<(T, f64)> {
        let (reply_tx, reply_rx) = unbounded();
        self.tx
            .send(Job::Run {
                call,
                cancelled: Arc::new(AtomicBool::new(false)),
                reply: reply_tx,
            })
            .expect("pool is alive");
        reply_rx
    }

    /// Run a call on the caller's thread under the pool's concurrency
    /// bound.
    ///
    /// Holds one permit from the same pool the queued path draws on,
    /// so capacity semantics are identical to [`WorkerPool::submit`] —
    /// but the dispatch round trip (a reply channel and two context
    /// switches) disappears, which matters when the call itself is a
    /// sub-millisecond simulated model invocation. Nothing crosses a
    /// thread, so the call needs neither a box nor `Send + 'static`: a
    /// closure borrowing the caller's state does (a [`ModelCall`] is
    /// accepted as before).
    pub fn run_inline<F: FnOnce() -> (T, f64)>(&self, call: F) -> (T, f64) {
        self.permits.acquire();
        let out = call();
        self.permits.release();
        out
    }

    /// Submit a cancellable call: flipping the returned flag before a
    /// worker picks the job up skips it entirely.
    pub fn submit_cancellable(&self, call: ModelCall<T>) -> (Receiver<(T, f64)>, Arc<AtomicBool>) {
        let (reply_tx, reply_rx) = unbounded();
        let cancelled = Arc::new(AtomicBool::new(false));
        self.tx
            .send(Job::Run {
                call,
                cancelled: Arc::clone(&cancelled),
                reply: reply_tx,
            })
            .expect("pool is alive");
        (reply_rx, cancelled)
    }

    /// Stop all workers (idempotent; pending jobs may be dropped).
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock();
        for _ in 0..workers.len() {
            let _ = self.tx.send(Job::Shutdown);
        }
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn executes_submitted_work() {
        let pool = WorkerPool::new(2);
        let rx = pool.submit(Box::new(|| ("hello", 0.8)));
        assert_eq!(rx.recv().unwrap(), ("hello", 0.8));
    }

    #[test]
    fn parallel_throughput() {
        let pool = Arc::new(WorkerPool::new(4));
        let receivers: Vec<_> = (0..64)
            .map(|i| pool.submit(Box::new(move || (i * i, 1.0))))
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap().0, i * i);
        }
    }

    #[test]
    fn resize_grows_and_shrinks_the_provisioned_count() {
        let pool: WorkerPool<u32> = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.resize(6), 2);
        assert_eq!(pool.workers(), 6);
        assert_eq!(pool.resize(1), 6);
        assert_eq!(pool.workers(), 1);
        // The survivor still serves.
        let rx = pool.submit(Box::new(|| (7, 1.0)));
        assert_eq!(rx.recv().unwrap().0, 7);
    }

    #[test]
    fn shrink_drains_in_flight_work_before_reaping() {
        let pool: Arc<WorkerPool<u32>> = Arc::new(WorkerPool::new(4));
        let receivers: Vec<_> = (0..16u32)
            .map(|i| {
                pool.submit(Box::new(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    (i, 1.0)
                }))
            })
            .collect();
        // Shrink while all four workers are mid-call: every queued and
        // in-flight job must still complete.
        pool.resize(1);
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().0, i as u32);
        }
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn grow_restores_parallel_capacity_after_a_shrink() {
        let pool: Arc<WorkerPool<u64>> = Arc::new(WorkerPool::new(4));
        pool.resize(1);
        pool.resize(4);
        // Four concurrent sleeps finish in roughly one sleep's time
        // only if four workers (and permits) are genuinely live.
        let started = Instant::now();
        let receivers: Vec<_> = (0..4u64)
            .map(|i| {
                pool.submit(Box::new(move || {
                    std::thread::sleep(Duration::from_millis(40));
                    (i, 1.0)
                }))
            })
            .collect();
        for rx in receivers {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(
            started.elapsed() < Duration::from_millis(140),
            "four jobs must overlap after regrowth, took {:?}",
            started.elapsed()
        );
    }

    /// A model call that holds its permit until released through the
    /// returned sender; the receiver fires once the call is running.
    fn holder(
        pool: &Arc<WorkerPool<usize>>,
    ) -> (
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<(usize, f64)>,
    ) {
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (running_tx, running) = std::sync::mpsc::channel::<()>();
        let pool = Arc::clone(pool);
        let thread = std::thread::spawn(move || {
            pool.run_inline(Box::new(move || {
                running_tx.send(()).expect("the test waits for this");
                released.recv().expect("the test releases every holder");
                (usize::MAX, 1.0)
            }))
        });
        running.recv().expect("the holder starts");
        (release, thread)
    }

    /// `count` threads calling `run_inline`, returned once every one
    /// of them is parked in `acquire`.
    fn blocked_callers(
        pool: &Arc<WorkerPool<usize>>,
        count: usize,
    ) -> std::sync::mpsc::Receiver<usize> {
        let (done_tx, done) = std::sync::mpsc::channel();
        for i in 0..count {
            let (pool, done_tx) = (Arc::clone(pool), done_tx.clone());
            std::thread::spawn(move || {
                let (i, _) = pool.run_inline(Box::new(move || (i, 1.0)));
                done_tx.send(i).expect("the test collects every caller");
            });
        }
        while pool.permits.state.lock().expect("not poisoned").waiters < count {
            std::thread::yield_now();
        }
        done
    }

    fn all_complete(done: &std::sync::mpsc::Receiver<usize>, count: usize) {
        let mut seen: Vec<usize> = (0..count)
            .map(|_| {
                done.recv_timeout(Duration::from_secs(10))
                    .expect("a blocked caller was never woken")
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn no_blocked_inline_caller_is_left_asleep_across_a_resize() {
        const CALLERS: usize = 6;
        let pool: Arc<WorkerPool<usize>> = Arc::new(WorkerPool::new(2));
        let (release_a, a) = holder(&pool);
        let (release_b, b) = holder(&pool);
        let done = blocked_callers(&pool, CALLERS);

        // Shrink with both permits held: the removal is booked as
        // deficit, the first release pays it and frees nothing, so
        // nobody may run yet.
        pool.resize(1);
        release_a.send(()).unwrap();
        a.join().unwrap();
        assert!(done.try_recv().is_err(), "a caller ran on a retired permit");
        assert_eq!(pool.permits.state.lock().unwrap().waiters, CALLERS);

        // The second release frees the one remaining permit: it must
        // wake a caller, and every caller's own release the next.
        release_b.send(()).unwrap();
        b.join().unwrap();
        all_complete(&done, CALLERS);
        assert_eq!(pool.permits.state.lock().unwrap().waiters, 0);

        // Grow with the permit held and callers parked again: the new
        // permits reach them without any release.
        let (release_c, c) = holder(&pool);
        let done = blocked_callers(&pool, CALLERS);
        pool.resize(3);
        all_complete(&done, CALLERS);
        release_c.send(()).unwrap();
        c.join().unwrap();
        let state = pool.permits.state.lock().unwrap();
        assert_eq!((state.available, state.deficit, state.waiters), (3, 0, 0));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool: WorkerPool<u8> = WorkerPool::new(2);
        pool.shutdown();
        pool.shutdown();
    }
}
