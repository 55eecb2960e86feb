//! The consumer-facing frontend: annotation parsing and tier routing.
//!
//! The paper's request shape:
//!
//! ```text
//! curl --header Tolerance: 0.01
//!      --header Objective: response-time
//!      --data-binary @input-file-name
//!      -X POST http://cloud-service/compute
//! ```
//!
//! [`parse_annotations`] understands that header block;
//! [`TieredFrontend`] holds the deployed routing rules per objective and
//! resolves each annotated request to the policy that will serve it.

use std::collections::HashMap;
use tt_core::objective::Objective;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRules;
use tt_core::Policy;

/// Why an annotation block failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnotationError {
    /// A non-empty line had no `name: value` shape.
    MalformedLine(String),
    /// The `Tolerance:` value is not a number.
    InvalidTolerance(String),
    /// The `Tolerance:` value parsed but is out of range (negative or
    /// non-finite).
    ToleranceOutOfRange(String),
    /// The `Objective:` value names no known objective.
    InvalidObjective(String),
    /// A header name the API does not define.
    UnknownHeader(String),
    /// The same header appeared more than once.
    DuplicateHeader(String),
}

impl std::fmt::Display for AnnotationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnotationError::MalformedLine(line) => {
                write!(f, "malformed header line `{line}`")
            }
            AnnotationError::InvalidTolerance(value) => {
                write!(f, "invalid tolerance `{value}`")
            }
            AnnotationError::ToleranceOutOfRange(value) => {
                write!(
                    f,
                    "tolerance `{value}` out of range (must be finite and >= 0)"
                )
            }
            AnnotationError::InvalidObjective(value) => {
                write!(f, "invalid objective `{value}`")
            }
            AnnotationError::UnknownHeader(name) => {
                write!(f, "unknown annotation header `{name}`")
            }
            AnnotationError::DuplicateHeader(name) => {
                write!(f, "duplicate annotation header `{name}`")
            }
        }
    }
}

impl std::error::Error for AnnotationError {}

/// The paper's two annotations, accumulated one header at a time: the
/// single reading of `Tolerance:` / `Objective:` (case-insensitive
/// names, each at most once, missing objective defaults to
/// response-time, missing tolerance to zero). [`parse_annotations`]
/// feeds it a text block's lines; a server that already holds parsed
/// header pairs feeds those, with no block re-joined in between.
#[derive(Debug, Clone, Copy, Default)]
pub struct Annotations {
    tolerance: Option<Tolerance>,
    objective: Option<Objective>,
}

impl Annotations {
    /// Nothing seen yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take one header. Surrounding whitespace on either side is
    /// ignored.
    ///
    /// # Errors
    ///
    /// An [`AnnotationError`] for a name the API does not define (in
    /// lowercase), a repeated header, or a bad value.
    pub fn header(&mut self, name: &str, value: &str) -> Result<(), AnnotationError> {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("tolerance") {
            if self.tolerance.is_some() {
                return Err(AnnotationError::DuplicateHeader("Tolerance".to_string()));
            }
            let v: f64 = value
                .parse()
                .map_err(|_| AnnotationError::InvalidTolerance(value.to_string()))?;
            self.tolerance = Some(
                Tolerance::new(v)
                    .map_err(|_| AnnotationError::ToleranceOutOfRange(value.to_string()))?,
            );
        } else if name.eq_ignore_ascii_case("objective") {
            if self.objective.is_some() {
                return Err(AnnotationError::DuplicateHeader("Objective".to_string()));
            }
            self.objective = Some(
                Objective::parse(value)
                    .map_err(|_| AnnotationError::InvalidObjective(value.to_string()))?,
            );
        } else {
            return Err(AnnotationError::UnknownHeader(name.to_ascii_lowercase()));
        }
        Ok(())
    }

    /// The annotations, defaults filled in.
    pub fn finish(self) -> (Tolerance, Objective) {
        (
            self.tolerance.unwrap_or(Tolerance::ZERO),
            self.objective.unwrap_or(Objective::ResponseTime),
        )
    }
}

/// Parse a `Tolerance:` / `Objective:` annotation block (one header per
/// line, case-insensitive names, missing objective defaults to
/// response-time, missing tolerance to zero).
///
/// The block may come straight off a wire: lines ending in `\r\n` (the
/// HTTP line terminator) are handled identically to bare `\n`.
///
/// # Errors
///
/// Returns an [`AnnotationError`] describing the first malformed,
/// unknown, out-of-range, or duplicated header.
pub fn parse_annotations(headers: &str) -> Result<(Tolerance, Objective), AnnotationError> {
    let mut annotations = Annotations::new();
    for line in headers.lines() {
        // `str::lines` splits on `\n` only; shed the `\r` of a CRLF
        // terminator explicitly before the whitespace trim so the
        // behaviour is wire-exact rather than incidental.
        let line = line.strip_suffix('\r').unwrap_or(line).trim();
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| AnnotationError::MalformedLine(line.to_string()))?;
        annotations.header(name, value)?;
    }
    Ok(annotations.finish())
}

/// The deployed frontend: routing rules per objective.
#[derive(Debug, Clone)]
pub struct TieredFrontend {
    rules: HashMap<Objective, RoutingRules>,
}

impl TieredFrontend {
    /// Deploy rules for one or both objectives.
    ///
    /// # Panics
    ///
    /// Panics if `rules` is empty.
    pub fn new(rules: Vec<RoutingRules>) -> Self {
        assert!(!rules.is_empty(), "frontend needs at least one rule set");
        TieredFrontend {
            rules: rules.into_iter().map(|r| (r.objective(), r)).collect(),
        }
    }

    /// The policy that will serve an annotated request. Requests for an
    /// objective with no deployed rules fall back to the other
    /// objective's baseline (most accurate) version — the service never
    /// rejects a request over tiering.
    pub fn route(&self, request: &ServiceRequest) -> Policy {
        if let Some(rules) = self.rules.get(&request.objective) {
            return rules.lookup(request.tolerance);
        }
        let any = self.rules.values().next().expect("non-empty rules");
        Policy::Single {
            version: any.baseline_version(),
        }
    }

    /// Parse an annotation block and route in one step.
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn route_annotated(
        &self,
        headers: &str,
        payload: usize,
    ) -> Result<(ServiceRequest, Policy), AnnotationError> {
        let (tolerance, objective) = parse_annotations(headers)?;
        let request = ServiceRequest::new(payload, tolerance, objective);
        let policy = self.route(&request);
        Ok((request, policy))
    }

    /// The deployed rule sets.
    pub fn rules(&self) -> impl Iterator<Item = &RoutingRules> {
        self.rules.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        let (tol, obj) = parse_annotations("Tolerance: 0.01\nObjective: response-time").unwrap();
        assert_eq!(tol.value(), 0.01);
        assert_eq!(obj, Objective::ResponseTime);
    }

    #[test]
    fn defaults_and_case_insensitivity() {
        let (tol, obj) = parse_annotations("").unwrap();
        assert_eq!(tol, Tolerance::ZERO);
        assert_eq!(obj, Objective::ResponseTime);
        let (tol, obj) = parse_annotations("TOLERANCE: 0.10\nobjective: COST").unwrap();
        assert_eq!(tol.value(), 0.10);
        assert_eq!(obj, Objective::Cost);
    }

    #[test]
    fn rejects_malformed_input_with_typed_errors() {
        assert_eq!(
            parse_annotations("Tolerance 0.01"),
            Err(AnnotationError::MalformedLine("Tolerance 0.01".into()))
        );
        assert_eq!(
            parse_annotations("Tolerance: lots"),
            Err(AnnotationError::InvalidTolerance("lots".into()))
        );
        assert_eq!(
            parse_annotations("Tolerance: -0.3"),
            Err(AnnotationError::ToleranceOutOfRange("-0.3".into()))
        );
        assert_eq!(
            parse_annotations("Tolerance: NaN"),
            Err(AnnotationError::ToleranceOutOfRange("NaN".into()))
        );
        assert_eq!(
            parse_annotations("X-Custom: 1"),
            Err(AnnotationError::UnknownHeader("x-custom".into()))
        );
        assert_eq!(
            parse_annotations("Objective: teleport"),
            Err(AnnotationError::InvalidObjective("teleport".into()))
        );
    }

    #[test]
    fn tolerates_crlf_line_endings_from_the_wire() {
        // The full paper example as an HTTP/1.1 client would send it.
        let (tol, obj) =
            parse_annotations("Tolerance: 0.01\r\nObjective: response-time\r\n").unwrap();
        assert_eq!(tol.value(), 0.01);
        assert_eq!(obj, Objective::ResponseTime);
        // A lone CR-terminated final line and mixed endings both parse.
        let (tol, obj) = parse_annotations("tolerance: 0.05\r\nOBJECTIVE: cost\r").unwrap();
        assert_eq!(tol.value(), 0.05);
        assert_eq!(obj, Objective::Cost);
        // CRLF must not mask a malformed value: the error's payload is
        // the clean value, CR excluded.
        assert_eq!(
            parse_annotations("Tolerance: lots\r\n"),
            Err(AnnotationError::InvalidTolerance("lots".into()))
        );
    }

    #[test]
    fn every_error_variant_is_reachable_with_crlf_endings() {
        // One case per variant, all wire-framed, pinning the typed
        // errors the HTTP layer maps to 400 bodies.
        assert_eq!(
            parse_annotations("Tolerance 0.01\r\n"),
            Err(AnnotationError::MalformedLine("Tolerance 0.01".into()))
        );
        assert_eq!(
            parse_annotations("Tolerance: abc\r\n"),
            Err(AnnotationError::InvalidTolerance("abc".into()))
        );
        assert_eq!(
            parse_annotations("Tolerance: -1\r\n"),
            Err(AnnotationError::ToleranceOutOfRange("-1".into()))
        );
        assert_eq!(
            parse_annotations("Objective: accuracy\r\n"),
            Err(AnnotationError::InvalidObjective("accuracy".into()))
        );
        assert_eq!(
            parse_annotations("Priority: high\r\n"),
            Err(AnnotationError::UnknownHeader("priority".into()))
        );
        assert_eq!(
            parse_annotations("Tolerance: 0.01\r\nTolerance: 0.05\r\n"),
            Err(AnnotationError::DuplicateHeader("Tolerance".into()))
        );
    }

    #[test]
    fn rejects_duplicate_headers() {
        assert_eq!(
            parse_annotations("Tolerance: 0.01\nTolerance: 0.05"),
            Err(AnnotationError::DuplicateHeader("Tolerance".into()))
        );
        assert_eq!(
            parse_annotations("Objective: cost\nOBJECTIVE: cost"),
            Err(AnnotationError::DuplicateHeader("Objective".into()))
        );
        // Distinct headers are of course fine in either order.
        assert!(parse_annotations("Objective: cost\nTolerance: 0.05").is_ok());
    }

    #[test]
    fn errors_render_and_satisfy_the_error_trait() {
        let err: Box<dyn std::error::Error> =
            Box::new(AnnotationError::DuplicateHeader("Tolerance".into()));
        assert!(err.to_string().contains("duplicate"));
        assert!(parse_annotations("Tolerance: lots")
            .unwrap_err()
            .to_string()
            .contains("invalid tolerance `lots`"));
    }

    // TieredFrontend routing is exercised end-to-end in the cluster
    // tests and the workspace integration tests, where real routing
    // rules exist.
}
