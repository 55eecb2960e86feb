//! Deterministic parallel execution for embarrassingly parallel
//! candidate work.
//!
//! The routing-rule generator bootstraps hundreds of candidate policies,
//! each fully independent of the others. This module fans that work out
//! across a crossbeam-channel worker pool while keeping the result
//! **bit-identical to the sequential path at any thread count**. Two
//! properties make that possible:
//!
//! 1. **Per-item seeded RNG streams.** Every item derives its own seed
//!    by hashing the base seed with the item index ([`mix_seed`], a
//!    splitmix64 finalizer). No RNG state is shared between items, so
//!    the schedule — which worker runs which item, and in what order —
//!    cannot influence any item's random draws.
//! 2. **Index-ordered collection.** Workers tag each result with its
//!    item index and the collector writes it into a dense output slot,
//!    so the output order is the input order regardless of completion
//!    order.
//!
//! The pool is built from scoped threads plus an unbounded MPMC channel
//! used as a work queue (workers pull the next index as they free up,
//! giving dynamic load balancing for items of uneven cost — bootstrap
//! candidates converge after wildly different trial counts). The calling
//! thread is one of the workers.

use crossbeam::channel;

/// Number of worker threads the host offers (`1` when the hint is
/// unavailable). Used as the default for [`parallel_map`] callers that
/// pass `threads = 0`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derive the seed for item `index` from `base` by hashing both through
/// a splitmix64 finalizer.
///
/// Unlike `base + index` schemes, hashed derivation keeps the streams
/// of *adjacent base seeds* disjoint too: `mix_seed(s, i)` and
/// `mix_seed(s + 1, j)` never collapse onto the same stream for
/// neighbouring `(i, j)` pairs, so sweeps that vary the base seed stay
/// statistically independent of sweeps that vary the item count.
#[must_use]
pub fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map `f` over `items` using up to `threads` worker threads
/// (`0` means [`available_threads`]), returning results in input order.
///
/// `f` receives `(index, &item)` so callers can derive per-item seeds
/// with [`mix_seed`]. The output is identical to
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` for any
/// thread count — determinism is the caller's to keep only in the sense
/// that `f` itself must not consult global mutable state.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins every worker before
/// returning).
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_init(threads, items, || (), |(), i, x| f(i, x))
}

/// [`parallel_map`] with per-worker state: each worker calls `init`
/// once and hands the value to `f` with every item it runs, so buffers
/// that are expensive to build are reused across items without being
/// shared between threads.
///
/// Which items share a state depends on the schedule; the output is
/// schedule-independent only if `f`'s result does not depend on what
/// earlier items left in the state.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn parallel_map_init<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    if threads <= 1 || items.len() <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| f(&mut state, i, x))
            .collect();
    }
    let threads = threads.min(items.len());

    let (task_tx, task_rx) = channel::unbounded::<usize>();
    for i in 0..items.len() {
        task_tx.send(i).expect("receiver alive");
    }
    drop(task_tx);

    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        while let Ok(i) = task_rx.recv() {
            done.push((i, f(&mut state, i, &items[i])));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        // The caller is one of the workers: it would only wait
        // otherwise, and what it allocates while working goes back to
        // the heap it keeps using instead of to a finished thread's.
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for worker in spawned {
            match worker.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    // The queue hands every index out exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, &items, |_, &x| x * 3);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn seeded_streams_are_schedule_invariant() {
        // Each item draws from its own mixed-seed RNG; any thread count
        // must reproduce the sequential draws bit-for-bit.
        let items: Vec<usize> = (0..64).collect();
        let draw = |i: usize, _: &usize| {
            let mut rng = StdRng::seed_from_u64(mix_seed(42, i as u64));
            (0..16).map(|_| rng.gen::<u64>()).collect::<Vec<u64>>()
        };
        let sequential = parallel_map(1, &items, draw);
        for threads in [2, 8] {
            assert_eq!(parallel_map(threads, &items, draw), sequential);
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4] {
            let built = AtomicUsize::new(0);
            let got = parallel_map_init(
                threads,
                &items,
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    Vec::<u64>::new()
                },
                |seen, _, &x| {
                    seen.push(x);
                    x + 1
                },
            );
            assert_eq!(got, (1..=100).collect::<Vec<u64>>(), "threads={threads}");
            assert_eq!(built.load(Ordering::SeqCst), threads, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u8], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let items: Vec<u32> = (0..10).collect();
        let got = parallel_map(0, &items, |i, &x| x + i as u32);
        assert_eq!(got, (0..10).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn mix_seed_separates_adjacent_bases_and_indices() {
        // No collisions across a small grid of (base, index) pairs.
        let mut seen = std::collections::HashSet::new();
        for base in 0..32u64 {
            for index in 0..512u64 {
                assert!(
                    seen.insert(mix_seed(base, index)),
                    "collision at ({base}, {index})"
                );
            }
        }
        // wrapping_add-style derivation would alias (s, i+1) with
        // (s+1, i); the hash must not.
        assert_ne!(mix_seed(5, 1), mix_seed(6, 0));
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u8> = (0..32).collect();
        parallel_map(4, &items, |i, _| {
            assert!(i != 13, "boom");
            i
        });
    }
}
