//! Property: however the paper's two annotations reach the parser —
//! header pairs fed straight to [`Annotations`], or the same pairs
//! joined into a wire block for [`parse_annotations`] — the verdict is
//! the one the block parser gave before it was rebuilt on the
//! accumulator: the same `Ok` value, or the same error with the same
//! payload.

use proptest::prelude::*;
use tt_core::objective::Objective;
use tt_core::request::Tolerance;
use tt_serve::{parse_annotations, AnnotationError, Annotations};

/// The block parser as it stood before the accumulator existed
/// (lowercased name copies and all): the reference the other two
/// routes are held to.
fn reference_parse(headers: &str) -> Result<(Tolerance, Objective), AnnotationError> {
    let mut tolerance: Option<Tolerance> = None;
    let mut objective: Option<Objective> = None;
    for line in headers.lines() {
        let line = line.strip_suffix('\r').unwrap_or(line).trim();
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| AnnotationError::MalformedLine(line.to_string()))?;
        match name.trim().to_ascii_lowercase().as_str() {
            "tolerance" => {
                if tolerance.is_some() {
                    return Err(AnnotationError::DuplicateHeader("Tolerance".to_string()));
                }
                let value = value.trim();
                let v: f64 = value
                    .parse()
                    .map_err(|_| AnnotationError::InvalidTolerance(value.to_string()))?;
                tolerance = Some(
                    Tolerance::new(v)
                        .map_err(|_| AnnotationError::ToleranceOutOfRange(value.to_string()))?,
                );
            }
            "objective" => {
                if objective.is_some() {
                    return Err(AnnotationError::DuplicateHeader("Objective".to_string()));
                }
                let known = match value.trim().to_ascii_lowercase().as_str() {
                    "response-time" | "latency" => Some(Objective::ResponseTime),
                    "cost" => Some(Objective::Cost),
                    _ => None,
                };
                objective =
                    Some(known.ok_or_else(|| {
                        AnnotationError::InvalidObjective(value.trim().to_string())
                    })?);
            }
            other => return Err(AnnotationError::UnknownHeader(other.to_string())),
        }
    }
    Ok((
        tolerance.unwrap_or(Tolerance::ZERO),
        objective.unwrap_or(Objective::ResponseTime),
    ))
}

const NAMES: [&str; 9] = [
    "Tolerance",
    "tolerance",
    "TOLERANCE",
    "tOlErAnCe",
    "Objective",
    "objective",
    "OBJECTIVE",
    "X-Custom",
    "Priority",
];

const VALUES: [&str; 18] = [
    "0",
    "0.01",
    "0.10",
    "1e-2",
    ".5",
    "7",
    "-0.3",
    "NaN",
    "inf",
    "-inf",
    "lots",
    "",
    "0.05 %",
    "response-time",
    "LATENCY",
    "Cost",
    "teleport",
    "0.1\rX",
];

const PADS: [&str; 4] = ["", " ", "\t", "  \t "];

fn feed(pairs: &[(String, String)]) -> Result<(Tolerance, Objective), AnnotationError> {
    let mut annotations = Annotations::new();
    for (name, value) in pairs {
        annotations.header(name, value)?;
    }
    Ok(annotations.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn pairs_and_block_agree_with_the_reference(
        picks in prop::collection::vec(
            (0usize..NAMES.len(), 0usize..VALUES.len(), 0usize..PADS.len(), 0usize..PADS.len()),
            0..5,
        ),
        crlf in 0u8..2,
    ) {
        // Names carry trailing padding only: a wire header name has
        // no leading whitespace (the line is trimmed as a whole).
        let pairs: Vec<(String, String)> = picks
            .iter()
            .map(|&(name, value, before, after)| {
                (
                    format!("{}{}", NAMES[name], PADS[after]),
                    format!("{}{}{}", PADS[before], VALUES[value], PADS[after]),
                )
            })
            .collect();
        let terminator = if crlf == 1 { "\r\n" } else { "\n" };
        let block: String = pairs
            .iter()
            .map(|(name, value)| format!("{name}:{value}{terminator}"))
            .collect();
        let expected = reference_parse(&block);
        prop_assert_eq!(&parse_annotations(&block), &expected);
        prop_assert_eq!(&feed(&pairs), &expected);
    }
}

#[test]
fn the_vocabulary_reaches_every_verdict() {
    let verdict = |name: &str, value: &str| feed(&[(name.to_string(), value.to_string())]);
    assert!(verdict("Tolerance", " 0.01 ").is_ok());
    assert_eq!(
        verdict("tolerance", "lots"),
        Err(AnnotationError::InvalidTolerance("lots".into()))
    );
    assert_eq!(
        verdict("TOLERANCE", "-inf"),
        Err(AnnotationError::ToleranceOutOfRange("-inf".into()))
    );
    assert_eq!(
        verdict("Objective", " Teleport"),
        Err(AnnotationError::InvalidObjective("Teleport".into()))
    );
    assert_eq!(
        verdict("X-Custom ", "1"),
        Err(AnnotationError::UnknownHeader("x-custom".into()))
    );
    assert_eq!(
        feed(&[
            ("objective".to_string(), "cost".to_string()),
            ("OBJECTIVE".to_string(), "cost".to_string()),
        ]),
        Err(AnnotationError::DuplicateHeader("Objective".into()))
    );
}
