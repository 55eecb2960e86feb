//! Per-thread shards: state the request path writes on every request,
//! split so that concurrent writers do not share a lock.
//!
//! A [`Shards`] holds a fixed number of cache-line-aligned slots, one
//! per hardware thread (rounded up to a power of two). A thread takes
//! its slot index the first time it touches any `Shards`, round-robin
//! from one process-wide counter, and keeps it for life; every
//! `Shards` maps the index onto its own slots the same way. A write
//! locks only the writer's slot, which no other thread touches unless
//! more threads write than there are slots. Readers fold the slots in
//! slot order, so state kept as integers folds to the same value
//! however the writes were spread across threads.
//!
//! The index lives in a `const`-initialised thread-local without a
//! destructor: reading it is one thread-local load, and a thread that
//! takes one registers nothing to run at its exit.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The next slot index to hand out.
static NEXT_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot index; `usize::MAX` until its first write.
    static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot index, handed out on first use.
fn thread_index() -> usize {
    INDEX.with(|cell| {
        let index = cell.get();
        if index != usize::MAX {
            return index;
        }
        // Only distinctness matters, not ordering against other data.
        let index = NEXT_INDEX.fetch_add(1, Ordering::Relaxed);
        cell.set(index);
        index
    })
}

/// One slot on its own pair of cache lines (128 bytes covers the
/// adjacent-line prefetcher), so writers on neighbouring slots do not
/// contend for a line.
#[derive(Debug)]
#[repr(align(128))]
struct Slot<T>(Mutex<T>);

/// A value split into per-thread parts: each writer locks its own
/// part, readers fold every part.
#[derive(Debug)]
pub struct Shards<T> {
    slots: Box<[Slot<T>]>,
}

impl<T> Shards<T> {
    /// One part per hardware thread (rounded up to a power of two),
    /// each built by `init`.
    pub fn new(init: impl FnMut() -> T) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_slots(threads, init)
    }

    /// `slots` parts (rounded up to a power of two, at least one),
    /// each built by `init`.
    fn with_slots(slots: usize, mut init: impl FnMut() -> T) -> Self {
        let slots = slots.max(1).next_power_of_two();
        Shards {
            slots: (0..slots).map(|_| Slot(Mutex::new(init()))).collect(),
        }
    }

    /// Lock the calling thread's part.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding this part.
    pub fn local(&self) -> MutexGuard<'_, T> {
        // The slot count is a power of two, so the mask is the modulo.
        let slot = &self.slots[thread_index() & (self.slots.len() - 1)];
        slot.0.lock().expect("a shard writer panicked")
    }

    /// Every part, locked one at a time in slot order as the iterator
    /// advances. Collect the guards to hold all parts at once.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding a part.
    pub fn each(&self) -> impl Iterator<Item = MutexGuard<'_, T>> {
        self.slots
            .iter()
            .map(|slot| slot.0.lock().expect("a shard writer panicked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn slot_counts_round_up_to_a_power_of_two() {
        for (asked, made) in [(0, 1), (1, 1), (2, 2), (3, 4), (6, 8), (8, 8)] {
            assert_eq!(Shards::with_slots(asked, || 0u64).each().count(), made);
        }
        assert!(Shards::new(|| 0u64).each().count().is_power_of_two());
    }

    #[test]
    fn a_thread_keeps_its_slot_and_the_fold_sees_every_write() {
        let shards = Shards::with_slots(4, || 0u64);
        let threads = 6;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..1_000 {
                        *shards.local() += 1;
                    }
                });
            }
        });
        let parts: Vec<u64> = shards.each().map(|part| *part).collect();
        assert_eq!(parts.iter().sum::<u64>(), 6_000);
        // Each thread wrote all of its adds into one slot.
        assert!(parts.iter().all(|&n| n % 1_000 == 0), "{parts:?}");
    }

    #[test]
    fn one_thread_writes_one_slot() {
        let shards = Shards::with_slots(8, || 0u64);
        for _ in 0..10 {
            *shards.local() += 1;
        }
        let parts: Vec<u64> = shards.each().map(|part| *part).collect();
        assert_eq!(parts.iter().filter(|&&n| n > 0).count(), 1);
        assert_eq!(parts.iter().sum::<u64>(), 10);
    }
}
