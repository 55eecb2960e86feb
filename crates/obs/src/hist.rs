//! Log-linear fixed-bucket histograms with O(1) record, bounded
//! memory, and associative merge.
//!
//! The bucket layout is the classic HdrHistogram shape: values below
//! `2^sub_bits` get one exact bucket each; above that, every power-of-
//! two octave is divided into `2^sub_bits` linear sub-buckets. A
//! bucket's width is therefore at most `1/2^sub_bits` of its lower
//! edge, so quantile estimates (reported at the bucket midpoint) carry
//! a relative error of at most [`BucketScheme::relative_error`] — with
//! the default scheme, under 1.6 %.
//!
//! Two flavours share the layout:
//!
//! * [`Histogram`] — plain counts, for single-writer recording
//!   (simulations, snapshots, merging).
//! * [`AtomicHistogram`] — lock-free shared recording from many
//!   threads; per-bucket `fetch_add` makes the totals *exact* (no
//!   sampling, no lost updates) and independent of thread
//!   interleaving, so two runs that record the same multiset of values
//!   produce bit-identical snapshots.
//!
//! Merging adds bucket counts, which is associative and commutative —
//! shard-local histograms can be folded in any order.

use std::sync::atomic::{AtomicU64, Ordering};

/// The bucket layout: `2^sub_bits` linear sub-buckets per octave,
/// values saturating at `2^max_bits - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BucketScheme {
    sub_bits: u32,
    max_bits: u32,
}

impl BucketScheme {
    /// The default layout: 64 sub-buckets per octave (≤ 1.6 % relative
    /// error) over values up to `2^40 - 1` — about 12.7 days when the
    /// unit is microseconds — in 2 240 buckets (≈ 18 KiB).
    pub const DEFAULT: BucketScheme = BucketScheme {
        sub_bits: 6,
        max_bits: 40,
    };

    /// A custom layout.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sub_bits < max_bits <= 63`.
    pub fn new(sub_bits: u32, max_bits: u32) -> Self {
        assert!(sub_bits > 0, "need at least two sub-buckets per octave");
        assert!(
            sub_bits < max_bits && max_bits <= 63,
            "need sub_bits < max_bits <= 63"
        );
        BucketScheme { sub_bits, max_bits }
    }

    /// Largest recordable value; anything above saturates to it.
    pub fn max_value(&self) -> u64 {
        (1u64 << self.max_bits) - 1
    }

    /// Total number of buckets.
    pub fn buckets(&self) -> usize {
        ((self.max_bits - self.sub_bits + 1) as usize) << self.sub_bits
    }

    /// Worst-case relative error of a quantile estimate: the midpoint
    /// of a bucket is within `width/2 <= lower_edge / 2^(sub_bits+1)`
    /// of any value in the bucket; `1/2^sub_bits` is the conservative
    /// documented bound.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Bucket index for `value` (saturating).
    fn index(&self, value: u64) -> usize {
        let v = value.min(self.max_value());
        let sub = 1u64 << self.sub_bits;
        if v < sub {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - self.sub_bits;
            ((shift as usize) << self.sub_bits) + (v >> shift) as usize
        }
    }

    /// `(lower_edge, width)` of bucket `i`.
    fn bounds(&self, i: usize) -> (u64, u64) {
        let sub = 1usize << self.sub_bits;
        if i < sub {
            (i as u64, 1)
        } else {
            let shift = (i >> self.sub_bits) as u32 - 1;
            let off = (i & (sub - 1)) as u64;
            (((sub as u64) + off) << shift, 1u64 << shift)
        }
    }

    /// Midpoint representative of bucket `i` (exact for the unit-width
    /// buckets below `2^sub_bits`).
    fn midpoint(&self, i: usize) -> u64 {
        let (lower, width) = self.bounds(i);
        lower + width / 2
    }
}

/// A plain (single-writer) log-linear histogram.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram {
    scheme: BucketScheme,
    counts: Vec<u64>,
    count: u64,
    /// Sum of recorded (saturated) values — an exact integer total.
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(BucketScheme::DEFAULT)
    }
}

impl Histogram {
    /// An empty histogram with the given layout.
    pub fn new(scheme: BucketScheme) -> Self {
        Histogram {
            scheme,
            counts: vec![0; scheme.buckets()],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket layout.
    pub fn scheme(&self) -> BucketScheme {
        self.scheme
    }

    /// Record one value (O(1); values above the scheme cap saturate).
    pub fn record(&mut self, value: u64) {
        let v = value.min(self.scheme.max_value());
        self.counts[self.scheme.index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Forget every recorded value, keeping the bucket storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Exact sum of recorded (saturated) values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimate of the `q`-quantile (`q` in `[0, 1]`): the midpoint of
    /// the bucket holding the sample of rank `round(q · (n-1))`,
    /// clamped into the observed `[min, max]` range. Within
    /// [`BucketScheme::relative_error`] of the true sample quantile.
    ///
    /// Returns `None` when the histogram is empty or `q` is not a
    /// probability.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(self.scheme.midpoint(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram's counts into this one (associative and
    /// commutative).
    ///
    /// # Panics
    ///
    /// Panics if the schemes differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.scheme, other.scheme,
            "cannot merge histograms with different bucket schemes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference `self - earlier`, where `earlier` is a
    /// previous snapshot of the *same* growing histogram (counts are
    /// monotone, so the difference is the exact histogram of the
    /// values recorded in between). Min/max of the delta are recovered
    /// from its non-empty bucket bounds, so they stay within one
    /// bucket width of the true extremes.
    ///
    /// # Panics
    ///
    /// Panics if the schemes differ or any bucket shrank.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        assert_eq!(
            self.scheme, earlier.scheme,
            "cannot diff histograms with different bucket schemes"
        );
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(now, before)| {
                now.checked_sub(*before)
                    .expect("histogram counts shrank between snapshots")
            })
            .collect();
        let mut delta = Histogram {
            scheme: self.scheme,
            counts,
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
            min: u64::MAX,
            max: 0,
        };
        if delta.count > 0 {
            let first = delta.counts.iter().position(|&c| c > 0).expect("count > 0");
            let last = delta
                .counts
                .iter()
                .rposition(|&c| c > 0)
                .expect("count > 0");
            let (lower, _) = delta.scheme.bounds(first);
            let (upper_lower, upper_width) = delta.scheme.bounds(last);
            delta.min = lower.max(self.min);
            delta.max = (upper_lower + upper_width - 1).min(self.max);
        }
        delta
    }

    /// Per-bucket `(lower_edge, width, count)` for the non-empty
    /// buckets, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lower, width) = self.scheme.bounds(i);
                (lower, width, c)
            })
    }
}

/// A lock-free multi-writer log-linear histogram.
#[derive(Debug)]
pub struct AtomicHistogram {
    scheme: BucketScheme,
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new(BucketScheme::DEFAULT)
    }
}

impl AtomicHistogram {
    /// An empty histogram with the given layout.
    pub fn new(scheme: BucketScheme) -> Self {
        AtomicHistogram {
            scheme,
            counts: (0..scheme.buckets()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket layout.
    pub fn scheme(&self) -> BucketScheme {
        self.scheme
    }

    /// Record one value. O(1), wait-free, and exact: concurrent
    /// writers never lose updates, and the final totals are
    /// independent of interleaving.
    pub fn record(&self, value: u64) {
        let v = value.min(self.scheme.max_value());
        self.counts[self.scheme.index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a plain [`Histogram`]. Quiescent state
    /// (no concurrent writers) snapshots exactly; under concurrency
    /// the copy is a valid histogram of a subset/superset of the
    /// in-flight updates.
    pub fn snapshot(&self) -> Histogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        Histogram {
            scheme: self.scheme,
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 7, 63] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 71);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Below 2^sub_bits every bucket is width one: quantiles exact.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(63));
    }

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let s = BucketScheme::new(3, 12); // 8 sub-buckets, tiny for scanning
        let mut last = 0usize;
        for v in 0..=s.max_value() {
            let i = s.index(v);
            assert!(i == last || i == last + 1, "index jumped at {v}");
            let (lower, width) = s.bounds(i);
            assert!(
                lower <= v && v < lower + width,
                "v={v} not in bucket {i} [{lower}, {})",
                lower + width
            );
            last = i;
        }
        assert_eq!(last, s.buckets() - 1);
    }

    #[test]
    fn quantile_respects_relative_error_bound() {
        let mut h = Histogram::default();
        let values: Vec<u64> = (0..10_000).map(|i| 1_000 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        let err = h.scheme().relative_error();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = (q * (values.len() - 1) as f64).round() as usize;
            let exact = values[rank] as f64;
            let est = h.quantile(q).unwrap() as f64;
            assert!(
                (est - exact).abs() <= exact * err + 1.0,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn oversized_values_saturate() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.max(), Some(h.scheme().max_value()));
        assert_eq!(h.sum(), h.scheme().max_value());
    }

    #[test]
    fn merge_is_addition() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [5u64, 500, 50_000] {
            a.record(v);
        }
        for v in [7u64, 700_000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut all = Histogram::default();
        for v in [5u64, 500, 50_000, 7, 700_000] {
            all.record(v);
        }
        assert_eq!(merged, all);
    }

    #[test]
    #[should_panic(expected = "different bucket schemes")]
    fn merge_rejects_mismatched_schemes() {
        let mut a = Histogram::new(BucketScheme::new(3, 12));
        a.merge(&Histogram::default());
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let atomic = AtomicHistogram::default();
        let mut plain = Histogram::default();
        for v in [1u64, 99, 12_345, 1 << 35] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(1.5), None);
    }
}
