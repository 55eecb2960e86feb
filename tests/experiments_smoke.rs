//! Smoke tests for the experiment harness: every sweep and table the
//! figure binaries rely on runs end to end at CI scale.

use std::sync::OnceLock;
use tt_core::objective::Objective;
use tt_experiments::context::{ExperimentContext, Scale};
use tt_experiments::sweep::{point_at, policy_label, sweep_tiers};

/// The Quick context, built once for every test in this binary.
fn quick_context() -> &'static ExperimentContext {
    static CELL: OnceLock<ExperimentContext> = OnceLock::new();
    CELL.get_or_init(|| ExperimentContext::at_scale(Scale::Quick))
}

#[test]
fn quick_context_sweeps_both_objectives() {
    let ctx = quick_context();
    for (label, matrix) in ctx.deployments() {
        for objective in Objective::all() {
            let points =
                sweep_tiers(matrix, &[0.0, 0.05, 0.10], objective, 99).expect("sweep runs");
            assert_eq!(points.len(), 3, "{label}/{objective}");
            // Reductions are well-formed fractions.
            for p in &points {
                assert!(p.latency_reduction <= 1.0);
                assert!(p.cost_reduction <= 1.0);
                assert!(p.degradation.is_finite());
                assert!(!policy_label(&p.policy, matrix).is_empty());
            }
            // Tolerance lookup helper works.
            assert!(point_at(&points, 0.04).is_some());
        }
    }
}

#[test]
fn report_table_renders() {
    let mut t = tt_experiments::Table::new(vec!["a", "b"]);
    t.row(vec!["1".into(), "2".into()]);
    let s = t.render();
    assert!(s.lines().count() == 3);
}
