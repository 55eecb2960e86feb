//! Cost accounting: IaaS busy-time charges and per-invocation API prices.
//!
//! The paper reports two cost perspectives: what the *provider* pays for
//! the compute (instance-hours of the nodes executing the service
//! versions — GPU nodes cost roughly 3× a CPU node) and what the *API
//! consumer* pays per invocation. Both reduce to the same accounting:
//! time × rate and count × price.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign};

/// An amount of money in dollars.
///
/// A thin newtype over `f64` so costs cannot be confused with latencies
/// or error rates in APIs that juggle all three.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Money(f64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0.0);

    /// Build from a dollar amount.
    ///
    /// # Panics
    ///
    /// Panics if `dollars` is NaN.
    pub fn from_dollars(dollars: f64) -> Self {
        assert!(!dollars.is_nan(), "money cannot be NaN");
        Money(dollars)
    }

    /// Amount in dollars.
    pub fn as_dollars(self) -> f64 {
        self.0
    }

    /// Scale by a dimensionless factor.
    pub fn scaled(self, factor: f64) -> Money {
        Money(self.0 * factor)
    }

    /// `count` charges of this amount as a running total adds them up:
    /// bit-identical to adding `self` to zero `count` times, one at a
    /// time, but in O(log count) steps. Unlike `scaled(count)`, this
    /// is the figure a ledger that charged each call would hold, so a
    /// bill kept as a count can be priced at read time without moving
    /// a bit.
    pub fn repeated(self, count: u64) -> Money {
        Money(repeated_sum(self.0, count))
    }
}

/// `(0..count).fold(0.0, |sum, _| sum + x)`, without the loop.
///
/// While the running sum stays inside one binade `[2^e, 2^(e+1))` and
/// the exact sum `sum + x` stays below `2^(e+1)`, every addition rounds
/// onto the binade's grid of ulps. Off a tie that adds the same number
/// of ulps each time; on a tie (`x` is a whole number of ulps plus one
/// half) round-half-to-even leaves an even mantissa after one step and
/// from there on also adds the same number each time. So after two
/// additions inside one binade the increment is fixed until the binade
/// ends, and the additions left in it are skipped in one jump. The sum
/// crosses at most one binade per doubling, so there are O(log count)
/// real additions.
fn repeated_sum(x: f64, count: u64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    if x < 0.0 {
        // Round-to-nearest is symmetric in sign.
        return -repeated_sum(-x, count);
    }
    if !x.is_normal() {
        return (0..count).fold(0.0, |sum, _| sum + x);
    }
    // Biased exponent and mantissa (implicit bit included) of a
    // positive normal value: it is `mantissa · 2^(exponent - 1075)`.
    let parts = |v: f64| {
        let bits = v.to_bits();
        (bits >> 52, (bits & ((1 << 52) - 1)) | (1 << 52))
    };
    let (x_exponent, x_mantissa) = parts(x);
    let mut sum = 0.0_f64;
    let mut left = count;
    // Consecutive additions that began and ended in one binade, and
    // the last one's increment in ulps.
    let mut streak = 0;
    let mut step = 0;
    while left > 0 {
        if streak >= 2 {
            // `sum` is past its first addition in this binade, so every
            // addition whose exact result stays below the binade's top
            // adds `step` ulps. With `sum` at mantissa `m` and `x` at
            // `m_x` ulps of this binade (its fraction dropped), the
            // addition from `m + j·step` qualifies while
            // `m + j·step + m_x < 2^53`.
            let (exponent, mantissa) = parts(sum);
            let shift = exponent - x_exponent;
            let x_ulps = if shift >= 64 { 0 } else { x_mantissa >> shift };
            let room = (1_u64 << 53).saturating_sub(mantissa + x_ulps);
            let jumps = if step == 0 {
                left
            } else {
                room.div_ceil(step).min(left)
            };
            // Landing exactly on the binade's top carries into the
            // exponent bits, which is that value's encoding.
            sum = f64::from_bits(sum.to_bits() + jumps * step);
            left -= jumps;
            streak = 0;
            continue;
        }
        let next = sum + x;
        if sum > 0.0 && parts(next).0 == parts(sum).0 {
            streak += 1;
            step = next.to_bits() - sum.to_bits();
        } else {
            streak = 0;
        }
        sum = next;
        left -= 1;
    }
    sum
}

impl Add for Money {
    type Output = Money;

    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Self {
        iter.fold(Money::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.6}", self.0)
    }
}

/// A machine instance type with an hourly price.
///
/// ```
/// use tt_sim::{InstanceType, SimDuration};
///
/// let gpu = InstanceType::new("gpu-k80", 2.70);
/// let cost = gpu.cost_of(SimDuration::from_secs_f64(3600.0));
/// assert!((cost.as_dollars() - 2.70).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct InstanceType {
    name: String,
    price_per_hour: f64,
}

impl InstanceType {
    /// Define an instance type.
    ///
    /// # Panics
    ///
    /// Panics if the price is negative or non-finite.
    pub fn new(name: impl Into<String>, price_per_hour: f64) -> Self {
        assert!(
            price_per_hour.is_finite() && price_per_hour >= 0.0,
            "invalid instance price"
        );
        InstanceType {
            name: name.into(),
            price_per_hour,
        }
    }

    /// Instance type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hourly price in dollars.
    pub fn price_per_hour(&self) -> f64 {
        self.price_per_hour
    }

    /// Cost of keeping this instance busy for `busy` time.
    pub fn cost_of(&self, busy: SimDuration) -> Money {
        Money(self.price_per_hour * busy.as_secs_f64() / 3600.0)
    }

    /// The CPU node type used throughout the reproduction (2017-era
    /// c4.xlarge-class list price).
    pub fn cpu_node() -> InstanceType {
        InstanceType::new("cpu-c4", 0.199)
    }

    /// The GPU node type (K80-class p2.xlarge list price).
    pub fn gpu_node() -> InstanceType {
        InstanceType::new("gpu-k80", 0.90)
    }
}

/// Accumulates compute and invocation charges over a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CostLedger {
    compute: Money,
    invocation: Money,
    invocations: u64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charge compute time on an instance type.
    pub fn charge_compute(&mut self, instance: &InstanceType, busy: SimDuration) {
        self.compute += instance.cost_of(busy);
    }

    /// Charge one API invocation at `price`.
    pub fn charge_invocation(&mut self, price: Money) {
        self.invocation += price;
        self.invocations += 1;
    }

    /// Refund compute (early termination gives unused busy time back).
    pub fn refund_compute(&mut self, instance: &InstanceType, unused: SimDuration) {
        self.compute += instance.cost_of(unused).scaled(-1.0);
    }

    /// Total compute (IaaS) charges.
    pub fn compute_cost(&self) -> Money {
        self.compute
    }

    /// Total invocation (API) charges.
    pub fn invocation_cost(&self) -> Money {
        self.invocation
    }

    /// Number of invocations charged.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Grand total.
    pub fn total(&self) -> Money {
        self.compute + self.invocation
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.compute += other.compute;
        self.invocation += other.invocation;
        self.invocations += other.invocations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_cost_scales_linearly() {
        let cpu = InstanceType::new("cpu", 0.40);
        let one_hr = cpu.cost_of(SimDuration::from_secs_f64(3600.0));
        let two_hr = cpu.cost_of(SimDuration::from_secs_f64(7200.0));
        assert!((one_hr.as_dollars() - 0.40).abs() < 1e-12);
        assert!((two_hr.as_dollars() - 0.80).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid instance price")]
    fn negative_price_panics() {
        let _ = InstanceType::new("bad", -1.0);
    }

    #[test]
    fn ledger_accumulates_and_refunds() {
        let cpu = InstanceType::new("cpu", 3.6); // $0.001/sec
        let mut ledger = CostLedger::new();
        ledger.charge_compute(&cpu, SimDuration::from_secs_f64(10.0));
        assert!((ledger.compute_cost().as_dollars() - 0.01).abs() < 1e-12);
        ledger.refund_compute(&cpu, SimDuration::from_secs_f64(5.0));
        assert!((ledger.compute_cost().as_dollars() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn ledger_counts_invocations() {
        let mut ledger = CostLedger::new();
        ledger.charge_invocation(Money::from_dollars(0.004));
        ledger.charge_invocation(Money::from_dollars(0.004));
        assert_eq!(ledger.invocations(), 2);
        assert!((ledger.invocation_cost().as_dollars() - 0.008).abs() < 1e-12);
        assert!((ledger.total().as_dollars() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn ledger_merge() {
        let mut a = CostLedger::new();
        a.charge_invocation(Money::from_dollars(1.0));
        let mut b = CostLedger::new();
        b.charge_invocation(Money::from_dollars(2.0));
        a.merge(&b);
        assert_eq!(a.invocations(), 2);
        assert!((a.invocation_cost().as_dollars() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_charges_match_a_running_total_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let naive = |x: f64, n: u64| (0..n).fold(0.0_f64, |sum, _| sum + x);
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        // List prices, amounts that land on rounding ties (a whole
        // number of ulps plus a half, once the sum outgrows them),
        // powers of two, and random magnitudes.
        let mut amounts = vec![
            0.001,
            0.0008,
            0.0005,
            0.00035,
            0.1,
            1.0 / 3.0,
            3.0 * 2f64.powi(-40),
            (1u64 << 52 | 1) as f64 * 2f64.powi(-60),
            (1u64 << 52 | 3) as f64 * 2f64.powi(-60),
            0.5,
            1.0,
            -0.0008,
        ];
        amounts.extend((0..40).map(|_| rng.gen::<f64>() * 10f64.powi(rng.gen_range(-9..4))));
        let counts = (0..70).chain([127, 128, 129, 1_000, 4_097, 65_537, 300_001]);
        for &x in &amounts {
            for n in counts.clone() {
                let expected = naive(x, n);
                let got = Money::from_dollars(x).repeated(n).as_dollars();
                assert_eq!(got.to_bits(), expected.to_bits(), "{x:e} x {n}");
            }
        }
        for _ in 0..200 {
            let x = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..6));
            let n = rng.gen_range(0..200_000);
            let expected = naive(x, n);
            assert_eq!(
                Money::from_dollars(x).repeated(n).as_dollars().to_bits(),
                expected.to_bits(),
                "{x:e} x {n}"
            );
        }
        assert_eq!(Money::ZERO.repeated(10), Money::ZERO);
        assert_eq!(
            Money::from_dollars(1e-310).repeated(3).as_dollars(),
            naive(1e-310, 3)
        );
    }

    #[test]
    fn money_sum_and_display() {
        let total: Money = [1.0, 2.0].iter().map(|&d| Money::from_dollars(d)).sum();
        assert_eq!(total, Money::from_dollars(3.0));
        assert!(total.to_string().starts_with('$'));
    }
}
