//! Assembling model runs into a profile matrix: the one place a run's
//! latency becomes an invocation cost and request rows become a matrix.

use tt_core::profile::{Observation, ProfileMatrix, ProfileMatrixBuilder};

/// Fraction of an hour per microsecond (for IaaS cost conversion).
const HOURS_PER_US: f64 = 1.0 / 3.6e9;

/// One model run as a profile observation. Its cost is the IaaS charge
/// for `latency_us` on a node billed at `price_per_hour`.
pub(crate) fn observation(
    quality_err: f64,
    confidence: f64,
    latency_us: u64,
    price_per_hour: f64,
) -> Observation {
    Observation {
        quality_err,
        latency_us,
        cost: latency_us as f64 * HOURS_PER_US * price_per_hour,
        confidence,
    }
}

/// The matrix over `version_names` whose requests are `rows`, in order;
/// each row holds one observation per version.
///
/// # Panics
///
/// Panics if there are no versions or no rows.
pub(crate) fn assemble(
    version_names: Vec<String>,
    rows: impl IntoIterator<Item = Vec<Observation>>,
) -> ProfileMatrix {
    let mut builder = ProfileMatrixBuilder::new(version_names);
    for row in rows {
        builder.push_request(row);
    }
    builder
        .build()
        .expect("at least one version and one request")
}
