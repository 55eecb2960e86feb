//! Windowed telemetry store — the capacity planner's input contract.
//!
//! A [`WindowStore`] accumulates per-tier arrival/admission/cache
//! counts and per-version service-time histograms into an *open*
//! window, seals that window on a caller-injected heartbeat
//! ([`WindowStore::tick`]), and retains sealed windows in a bounded
//! ring. Sealed windows are immutable. The store additionally keeps a
//! *cumulative* accumulator — the fold of every window since boot,
//! open one included — which is the deterministic artifact: window
//! *boundaries* depend on wall-clock heartbeat timing, but the
//! cumulative fold equals the plain multiset total of everything
//! recorded, so it is bit-identical across thread counts, node
//! partitions, and heartbeat jitter.
//!
//! Determinism rules, inherited from the rest of the crate:
//!
//! * no clock reads — `tick` receives its timestamp from the caller;
//! * integer accumulation only (counts and histogram bucket sums);
//! * the open window is split per recording thread ([`Shards`]) and
//!   folded in slot order only when sealed or read;
//! * tier keys live in a [`BTreeMap`], so iteration (and therefore
//!   any rendering or merge) walks keys in one canonical order;
//! * [`WindowAccum::merge`] is commutative and associative, so a
//!   fleet-level fold over per-node accumulators does not depend on
//!   node order.

use crate::hist::{BucketScheme, Histogram};
use crate::shard::Shards;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Per-tier counts inside one window. All fields are monotonic counts
/// of *events*, so merging two windows is field-wise addition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TierWindow {
    /// Requests that arrived for this tier (pre-admission).
    pub arrivals: u64,
    /// Requests admitted at full quality.
    pub admitted: u64,
    /// Requests rejected with a retryable 429.
    pub rejected: u64,
    /// Requests shed/dropped after admission (faults, overload).
    pub shed: u64,
    /// Requests served in a brownout (degraded) plan.
    pub browned_out: u64,
    /// Result-cache hits (exact + semantic) attributed to this tier.
    pub cache_hits: u64,
    /// Result-cache misses attributed to this tier.
    pub cache_misses: u64,
}

impl TierWindow {
    fn absorb(&mut self, other: &TierWindow) {
        self.arrivals += other.arrivals;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.browned_out += other.browned_out;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    fn is_empty(&self) -> bool {
        self.arrivals == 0
            && self.admitted == 0
            && self.rejected == 0
            && self.shed == 0
            && self.browned_out == 0
            && self.cache_hits == 0
            && self.cache_misses == 0
    }
}

/// One window's (or the cumulative fold's) full payload: per-tier
/// counts plus per-version service-time histograms. Both maps are
/// ordered, so rendering walks a canonical key order.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WindowAccum {
    /// Counts keyed by tier key (`"{objective}/{tolerance:.3}"`).
    pub tiers: BTreeMap<String, TierWindow>,
    /// Service-time histograms keyed by the answering model version.
    pub versions: BTreeMap<usize, Histogram>,
}

impl WindowAccum {
    /// Fold `other` into `self`. Field-wise integer addition per tier
    /// and histogram bucket addition per version — commutative and
    /// associative, so fleet-level folds are order-independent.
    ///
    /// # Panics
    ///
    /// Panics if the same version's histograms use different bucket
    /// schemes (propagated from [`Histogram::merge`]).
    pub fn merge(&mut self, other: &WindowAccum) {
        for (key, tier) in &other.tiers {
            self.tiers.entry(key.clone()).or_default().absorb(tier);
        }
        for (version, hist) in &other.versions {
            match self.versions.get_mut(version) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.versions.insert(*version, hist.clone());
                }
            }
        }
    }

    /// Fold the entries of `part` that recorded something into `self`:
    /// a store's open part keeps zeroed entries across seals, which
    /// must not show as keys in a sealed window or the cumulative fold.
    fn absorb_recorded(&mut self, part: &WindowAccum) {
        for (key, tier) in part.tiers.iter().filter(|(_, t)| !t.is_empty()) {
            match self.tiers.get_mut(key) {
                Some(mine) => mine.absorb(tier),
                None => {
                    self.tiers.insert(key.clone(), tier.clone());
                }
            }
        }
        for (version, hist) in part.versions.iter().filter(|(_, h)| !h.is_empty()) {
            match self.versions.get_mut(version) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.versions.insert(*version, hist.clone());
                }
            }
        }
    }

    /// Zero every count, keeping the keys and histogram storage.
    fn zero(&mut self) {
        self.tiers
            .values_mut()
            .for_each(|t| *t = TierWindow::default());
        self.versions.values_mut().for_each(Histogram::clear);
    }

    /// Total arrivals across every tier in this accumulator.
    pub fn total_arrivals(&self) -> u64 {
        self.tiers.values().map(|t| t.arrivals).sum()
    }

    /// True when nothing has been recorded: every tier count is zero
    /// and every version histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.tiers.values().all(TierWindow::is_empty)
            && self.versions.values().all(|h| h.count() == 0)
    }
}

/// An immutable sealed window: its ordinal, its wall-clock bounds (as
/// injected by the sealing heartbeat), and its payload.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SealedWindow {
    /// Zero-based ordinal of this window since boot.
    pub index: u64,
    /// Heartbeat timestamp (µs since service start) that opened it.
    pub start_us: u64,
    /// Heartbeat timestamp (µs since service start) that sealed it.
    pub end_us: u64,
    /// The window's counts and histograms.
    pub accum: WindowAccum,
}

/// The sealed side of the store: what the heartbeat and readers touch
/// and the request path never does.
#[derive(Debug)]
struct Ring {
    open_start_us: u64,
    next_index: u64,
    sealed: VecDeque<SealedWindow>,
    /// The fold of every window sealed since boot, evicted ones
    /// included.
    sealed_total: WindowAccum,
    dropped_windows: u64,
}

/// Bounded ring of fixed-duration telemetry windows plus the
/// cumulative fold of everything recorded since boot.
///
/// The open window is split into per-thread [`Shards`]: a record is a
/// handful of integer additions under the recording thread's own
/// part's lock, which no other recorder takes. A part keeps its keys
/// and histogram storage across seals (zeroed, not dropped), so a
/// steady request path allocates nothing here. Sealing and the
/// cumulative read fold the parts in slot order under the ring's lock;
/// the fold is integer addition, so it does not depend on which thread
/// recorded what. The store never reads a clock; sealing happens only
/// inside [`WindowStore::tick`], driven by the serving engines' idle
/// heartbeat.
#[derive(Debug)]
pub struct WindowStore {
    window_us: u64,
    capacity: usize,
    scheme: BucketScheme,
    open: Shards<WindowAccum>,
    ring: Mutex<Ring>,
}

impl WindowStore {
    /// A store sealing windows every `window_us` microseconds and
    /// retaining at most `capacity` sealed windows (oldest evicted,
    /// counted in [`WindowStore::dropped_windows`]).
    pub fn new(window_us: u64, capacity: usize) -> Self {
        Self::with_scheme(window_us, capacity, BucketScheme::DEFAULT)
    }

    /// Like [`WindowStore::new`] with an explicit histogram scheme for
    /// the per-version service-time histograms.
    pub fn with_scheme(window_us: u64, capacity: usize, scheme: BucketScheme) -> Self {
        assert!(window_us > 0, "window duration must be positive");
        assert!(capacity > 0, "must retain at least one sealed window");
        Self {
            window_us,
            capacity,
            scheme,
            open: Shards::new(WindowAccum::default),
            ring: Mutex::new(Ring {
                open_start_us: 0,
                next_index: 0,
                sealed: VecDeque::new(),
                sealed_total: WindowAccum::default(),
                dropped_windows: 0,
            }),
        }
    }

    /// The configured window duration in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The maximum number of sealed windows the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Count a request arriving for `tier` (pre-admission).
    pub fn record_arrival(&self, tier: &str) {
        self.record_tier(tier, |t| t.arrivals += 1);
    }

    /// Count an admission-controller outcome for `tier`.
    pub fn record_admission(&self, tier: &str, outcome: AdmissionOutcome) {
        self.record_tier(tier, |t| match outcome {
            AdmissionOutcome::Admitted => t.admitted += 1,
            AdmissionOutcome::BrownedOut => t.browned_out += 1,
            AdmissionOutcome::Rejected => t.rejected += 1,
            AdmissionOutcome::Shed => t.shed += 1,
        });
    }

    /// Count a result-cache consult for `tier`.
    pub fn record_cache(&self, tier: &str, hit: bool) {
        self.record_tier(tier, |t| {
            if hit {
                t.cache_hits += 1;
            } else {
                t.cache_misses += 1;
            }
        });
    }

    /// Record one served request's accounted (simulated) service time
    /// against the answering model version.
    pub fn record_service(&self, version: usize, sim_latency_us: u64) {
        let scheme = self.scheme;
        self.open
            .local()
            .versions
            .entry(version)
            .or_insert_with(|| Histogram::new(scheme))
            .record(sim_latency_us);
    }

    fn record_tier(&self, tier: &str, mutate: impl FnOnce(&mut TierWindow)) {
        let mut open = self.open.local();
        match open.tiers.get_mut(tier) {
            Some(counts) => mutate(counts),
            // First sight of the tier on this thread's part.
            None => mutate(open.tiers.entry(tier.to_string()).or_default()),
        }
    }

    /// Heartbeat: seal the open window if it has run for at least the
    /// configured duration (and is non-empty, or a sealed window
    /// already exists — empty leading windows before first traffic are
    /// not minted). Returns the sealed window's index when a seal
    /// happened.
    ///
    /// `now_us` is microseconds since service start, injected by the
    /// caller — the store itself never reads a clock.
    pub fn tick(&self, now_us: u64) -> Option<u64> {
        let mut ring = self.ring.lock().expect("window store poisoned");
        if now_us.saturating_sub(ring.open_start_us) < self.window_us {
            return None;
        }
        let mut accum = WindowAccum::default();
        for mut part in self.open.each() {
            accum.absorb_recorded(&part);
            part.zero();
        }
        if accum.is_empty() && ring.sealed.is_empty() {
            // Nothing has ever happened: slide the open window forward
            // instead of minting empty leading windows.
            ring.open_start_us = now_us;
            return None;
        }
        ring.sealed_total.merge(&accum);
        let index = ring.next_index;
        ring.next_index += 1;
        let start_us = ring.open_start_us;
        ring.open_start_us = now_us;
        ring.sealed.push_back(SealedWindow {
            index,
            start_us,
            end_us: now_us,
            accum,
        });
        while ring.sealed.len() > self.capacity {
            ring.sealed.pop_front();
            ring.dropped_windows += 1;
        }
        Some(index)
    }

    /// The most recent `limit` sealed windows, oldest first.
    pub fn sealed(&self, limit: usize) -> Vec<SealedWindow> {
        let ring = self.ring.lock().expect("window store poisoned");
        let skip = ring.sealed.len().saturating_sub(limit);
        ring.sealed.iter().skip(skip).cloned().collect()
    }

    /// How many windows have been sealed since boot (including any
    /// since evicted from the ring).
    pub fn sealed_count(&self) -> u64 {
        self.ring.lock().expect("window store poisoned").next_index
    }

    /// Sealed windows evicted from the bounded ring.
    pub fn dropped_windows(&self) -> u64 {
        self.ring
            .lock()
            .expect("window store poisoned")
            .dropped_windows
    }

    /// The cumulative fold of everything recorded since boot — sealed
    /// windows *and* the open one. This is the deterministic planner
    /// contract: independent of heartbeat timing, thread interleaving,
    /// and window boundaries.
    pub fn cumulative(&self) -> WindowAccum {
        // The ring's lock keeps a concurrent seal from moving counts
        // out of a part after it was read and before `sealed_total`
        // was.
        let ring = self.ring.lock().expect("window store poisoned");
        let mut total = ring.sealed_total.clone();
        for part in self.open.each() {
            total.absorb_recorded(&part);
        }
        total
    }
}

/// What the admission controller decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admitted at full quality.
    Admitted,
    /// Served, but on a degraded (brownout) plan.
    BrownedOut,
    /// Rejected with a retryable 429.
    Rejected,
    /// Dropped after admission (fault path, overload shed).
    Shed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> WindowStore {
        WindowStore::new(1_000, 4)
    }

    #[test]
    fn cumulative_equals_multiset_total_regardless_of_sealing() {
        let a = store();
        let b = store();
        // Same events, different heartbeat cadence.
        for i in 0..100u64 {
            for s in [&a, &b] {
                s.record_arrival("cost/0.050");
                s.record_admission("cost/0.050", AdmissionOutcome::Admitted);
                s.record_service(2, 1_000 + i * 17);
            }
            if i % 10 == 0 {
                a.tick(i * 200);
            }
            if i % 3 == 0 {
                b.tick(i * 900);
            }
        }
        assert_ne!(a.sealed_count(), 0);
        assert_eq!(a.cumulative(), b.cumulative());
        assert_eq!(a.cumulative().total_arrivals(), 100);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mk = |versions: &[(usize, u64)], tier: &str, n: u64| {
            let s = store();
            for _ in 0..n {
                s.record_arrival(tier);
            }
            for &(v, us) in versions {
                s.record_service(v, us);
            }
            s.cumulative()
        };
        let x = mk(&[(0, 500), (1, 900)], "cost/0.010", 3);
        let y = mk(&[(1, 1_200)], "cost/0.050", 5);
        let z = mk(&[(2, 80)], "cost/0.010", 2);

        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);

        let mut xy_z = xy.clone();
        xy_z.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut x_yz = x.clone();
        x_yz.merge(&yz);
        assert_eq!(xy_z, x_yz);
        assert_eq!(xy_z.total_arrivals(), 10);
    }

    #[test]
    fn sealing_respects_duration_and_ring_capacity() {
        let s = WindowStore::new(1_000, 2);
        // Empty store: heartbeats slide the window, mint nothing.
        assert_eq!(s.tick(5_000), None);
        assert_eq!(s.sealed_count(), 0);

        s.record_arrival("cost/0.000");
        assert_eq!(s.tick(5_500), None, "window not yet elapsed");
        assert_eq!(s.tick(6_100), Some(0));
        // Subsequent windows seal even when empty (trailing gaps are
        // real observations once traffic has started).
        assert_eq!(s.tick(7_200), Some(1));
        assert_eq!(s.tick(8_300), Some(2));
        assert_eq!(s.tick(9_400), Some(3));
        assert_eq!(s.sealed_count(), 4);
        assert_eq!(s.dropped_windows(), 2);

        let sealed = s.sealed(10);
        assert_eq!(sealed.len(), 2, "ring capacity bounds retention");
        assert_eq!(sealed[0].index, 2);
        assert_eq!(sealed[1].index, 3);
        assert!(sealed[0].start_us < sealed[0].end_us);
    }

    #[test]
    fn sealed_windows_partition_the_cumulative_fold() {
        let s = WindowStore::new(100, 16);
        for i in 0..60u64 {
            s.record_arrival("response-time/0.010");
            s.record_service(i as usize % 3, 700 + i);
            if i % 25 == 24 {
                s.tick((i + 1) * 50);
            }
        }
        let mut folded = WindowAccum::default();
        for w in s.sealed(16) {
            folded.merge(&w.accum);
        }
        // Fold the still-open remainder in via a sealing heartbeat.
        s.tick(u64::MAX);
        let mut complete = WindowAccum::default();
        for w in s.sealed(16) {
            complete.merge(&w.accum);
        }
        assert_ne!(folded, complete, "open window held the remainder");
        assert_eq!(complete, s.cumulative());
    }

    #[test]
    fn records_from_many_threads_fold_like_one() {
        let tiers = ["cost/0.050", "cost/0.100", "response-time/0.000"];
        let record = |s: &WindowStore, i: u64| {
            s.record_arrival(tiers[i as usize % 3]);
            s.record_cache(tiers[i as usize % 3], i.is_multiple_of(5));
            s.record_service(i as usize % 2, 500 + i * 13);
        };
        let one = store();
        for i in 0..600 {
            record(&one, i);
        }
        let many = store();
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (many, barrier) = (&many, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in (t as u64..600).step_by(threads) {
                        record(many, i);
                    }
                });
            }
        });
        assert_eq!(one.cumulative(), many.cumulative());
        assert_eq!(one.tick(10_000), Some(0));
        assert_eq!(many.tick(10_000), Some(0));
        assert_eq!(one.sealed(1)[0].accum, many.sealed(1)[0].accum);
        assert_eq!(one.cumulative(), many.cumulative());
        // A part keeps its zeroed keys across the seal; they show
        // neither in the next window nor in the cumulative fold.
        many.record_arrival("cost/0.050");
        assert_eq!(many.tick(20_000), Some(1));
        let next = &many.sealed(1)[0].accum;
        assert_eq!(next.tiers.keys().collect::<Vec<_>>(), ["cost/0.050"]);
        assert!(next.versions.is_empty());
    }

    #[test]
    fn admission_and_cache_counts_land_on_their_tier() {
        let s = store();
        s.record_admission("cost/0.050", AdmissionOutcome::Rejected);
        s.record_admission("cost/0.050", AdmissionOutcome::BrownedOut);
        s.record_admission("cost/0.100", AdmissionOutcome::Shed);
        s.record_cache("cost/0.050", true);
        s.record_cache("cost/0.050", false);
        let cum = s.cumulative();
        let t = &cum.tiers["cost/0.050"];
        assert_eq!(
            (t.rejected, t.browned_out, t.cache_hits, t.cache_misses),
            (1, 1, 1, 1)
        );
        assert_eq!(cum.tiers["cost/0.100"].shed, 1);
    }
}
