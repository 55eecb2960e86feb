//! What one run of one workload produces, and how it is printed.

use crate::stats::Summary;

/// A named figure with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// The highest percentile the sample supports, for timings.
    pub tail: Option<(&'static str, f64)>,
}

impl Metric {
    /// A single measured value (a count, a ratio, a one-off time).
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: 1,
            tail: None,
        }
    }

    /// The `q` quantile of `samples`, with the sample's supported
    /// tail; 0 with no samples.
    pub fn quantile(name: &'static str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        match Summary::of(samples, q) {
            Some(s) => Metric {
                name,
                unit,
                value: s.value,
                samples: s.samples,
                tail: s.tail,
            },
            None => Metric::value(name, unit, 0.0).with_samples(0),
        }
    }

    /// The median of `samples`; 0 with no samples.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::quantile(name, unit, samples, 0.5)
    }

    pub fn with_samples(mut self, samples: usize) -> Metric {
        self.samples = samples;
        self
    }

    fn line(&self) -> String {
        let tail = match self.tail {
            Some((label, value)) => format!("  {label}={value:.3}"),
            None => String::new(),
        };
        format!(
            "  {:<36} {:>16.4} {:<6} n={}{tail}",
            self.name, self.value, self.unit, self.samples
        )
    }
}

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub gates: Vec<Gate>,
    /// The gated frame, or (traced run) the per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The same figures under the issue's workload-specific names, and
    /// reported-but-ungated extras.
    pub detail: Vec<Metric>,
    /// What this workload pins beyond the common configuration.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.detail)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable block: every metric by name with unit and
    /// sample count, then the gates.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        // A layer the workload does not touch reads 0 from no samples;
        // the JSON line carries it, the table does not.
        for m in self
            .metrics
            .iter()
            .chain(&self.detail)
            .filter(|m| m.samples > 0)
        {
            out.push_str(&m.line());
            out.push('\n');
        }
        out.push_str(&format!(
            "  attempted={} failed={} failed_share={}\n",
            self.attempted,
            self.failed,
            crate::gen::failed_share(self.attempted, self.failed)
        ));
        for g in &self.gates {
            out.push_str(&format!(
                "  gate {:<28} {}  {}\n",
                g.name,
                if g.ok { "ok  " } else { "FAIL" },
                g.detail
            ));
        }
        out
    }

    /// The contract's last line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
