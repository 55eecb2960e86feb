//! Tolerance tier definitions.

use crate::objective::Objective;
use crate::request::Tolerance;

/// One tier a provider offers: an accuracy tolerance paired with the
/// objective the tier optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ToleranceTier {
    /// Maximum relative accuracy degradation the tier may exhibit.
    pub tolerance: Tolerance,
    /// What the tier optimizes subject to that tolerance.
    pub objective: Objective,
}

impl ToleranceTier {
    /// Define a tier.
    pub fn new(tolerance: Tolerance, objective: Objective) -> Self {
        ToleranceTier {
            tolerance,
            objective,
        }
    }

    /// The paper's evaluation grid: tolerances from 0 to 10% in 0.1%
    /// steps, for one objective.
    pub fn paper_grid(objective: Objective) -> Vec<ToleranceTier> {
        (0..=100)
            .map(|i| {
                ToleranceTier::new(
                    Tolerance::new(i as f64 / 1000.0).expect("grid values are valid"),
                    objective,
                )
            })
            .collect()
    }
}

/// The downward-compatibility rule, the API's one contract: a request
/// annotated `Tolerance: t` is served — and billed — as the loosest
/// advertised tier whose tolerance does not exceed `t` (guarantees
/// transfer downward). Returns that tier's index in `tiers`, which
/// must ascend by `tolerance_of`; `None` when `t` lies below every
/// tier. A tier within `1e-12` above `t` still serves it, so a
/// tolerance that reaches the wire as `0.1 - ulp` gets the 10% tier.
///
/// Routing ([`crate::rulegen::RoutingRules::lookup`]), pricing and the
/// serving layer's tier table all resolve through this function.
pub fn serving_tier<T>(tiers: &[T], tolerance_of: impl Fn(&T) -> f64, t: f64) -> Option<usize> {
    tiers
        .partition_point(|tier| tolerance_of(tier) <= t + 1e-12)
        .checked_sub(1)
}

impl std::fmt::Display for ToleranceTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tier({} tolerance, optimize {})",
            self.tolerance, self.objective
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_spans_zero_to_ten_percent() {
        let grid = ToleranceTier::paper_grid(Objective::ResponseTime);
        assert_eq!(grid.len(), 101);
        assert_eq!(grid[0].tolerance.value(), 0.0);
        assert!((grid[100].tolerance.value() - 0.10).abs() < 1e-12);
        // 0.1% steps.
        assert!((grid[1].tolerance.value() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn serving_tier_is_the_loosest_tier_not_above_the_request() {
        let tiers = [0.01, 0.05, 0.10];
        let at = |t: f64| serving_tier(&tiers, |&tol| tol, t);
        assert_eq!(at(0.0), None, "below every tier");
        assert_eq!(at(0.01), Some(0));
        assert_eq!(at(0.03), Some(0));
        assert_eq!(at(0.05 - 1e-13), Some(1), "within the epsilon");
        assert_eq!(at(0.05 - 1e-9), Some(0));
        assert_eq!(at(2.0), Some(2), "above every tier");
        assert_eq!(at(f64::NAN), None);
        assert_eq!(serving_tier(&[] as &[f64], |&tol| tol, 0.5), None);
    }

    #[test]
    fn display_mentions_both_parts() {
        let t = ToleranceTier::new(Tolerance::new(0.05).unwrap(), Objective::Cost);
        let s = t.to_string();
        assert!(s.contains("5.0%") && s.contains("cost"));
    }
}
