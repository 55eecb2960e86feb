//! Consumer optimization objectives.

/// What a Tolerance Tier optimizes, subject to its accuracy tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Objective {
    /// Minimize service response time (the paper's `response-time`
    /// header value).
    ResponseTime,
    /// Minimize invocation cost (the paper's cost policy).
    Cost,
}

impl Objective {
    /// Both objectives, in presentation order.
    pub fn all() -> impl Iterator<Item = Objective> {
        [Objective::ResponseTime, Objective::Cost].into_iter()
    }

    /// The annotation-header spelling, which is also how the objective
    /// prints.
    pub fn name(self) -> &'static str {
        match self {
            Objective::ResponseTime => "response-time",
            Objective::Cost => "cost",
        }
    }

    /// Parse the annotation-header spelling used by the serving layer.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input on failure.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let is = |spelling: &str| s.eq_ignore_ascii_case(spelling);
        if is("response-time") || is("latency") {
            Ok(Objective::ResponseTime)
        } else if is("cost") {
            Ok(Objective::Cost)
        } else {
            Err(format!("unknown objective `{}`", s.to_ascii_lowercase()))
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        for obj in Objective::all() {
            assert_eq!(Objective::parse(&obj.to_string()).unwrap(), obj);
        }
    }

    #[test]
    fn parse_accepts_aliases_and_case() {
        assert_eq!(
            Objective::parse("LATENCY").unwrap(),
            Objective::ResponseTime
        );
        assert_eq!(Objective::parse(" Cost ").unwrap(), Objective::Cost);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(Objective::parse("speed").is_err());
    }
}
