//! The benchmark's vocabulary: workloads, the gated end-to-end frame,
//! and the per-layer metrics. `BENCHMARK.json` at the repository root
//! states the same tables; a unit test holds the two together.

use crate::report::{Metric, Outcome};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "path_inproc",
        why: "whole request path, no sockets or sleeps: 1 caller then nproc callers on one service; parse/admit/route/settle/obs/serialize do the work, cache and model time do none",
    },
    Workload {
        name: "cache_inproc",
        why: "same path with the result cache on: Zipf-hot keys (hits dominate) then repeat-free keys over 4x capacity (every request misses, inserts, evicts); the cache does most of the work",
    },
    Workload {
        name: "tiers_wire",
        why: "loopback sockets, model sleeps on: closed loop on nproc connections (gated: capacity and per-tier latency of a caller who waits), then open-loop Poisson arrivals from due time (reported, not gated)",
    },
    Workload {
        name: "rulegen_offline",
        why: "the offline routing-rule generator over ASR and vision profile matrices, then policy evaluation; rulegen and bootstrap do everything here and nothing on the serving workloads but boot",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The gated frame. Every workload reports every metric; what each
/// means on each workload is tabulated in `README.md`. Tail latencies
/// and open-loop latencies are not in it: none repeats within a tenth
/// on the reference host (6 to 12 % between runs of one binary), so
/// they are per-layer metrics and rows of each run's table instead.
pub const END_TO_END: [EndToEnd; 6] = [
    // The contract requires `setup_s`, exempts its run-to-run spread
    // and asks that it get the largest bound: one set-up is short and
    // cold (page faults, thread spawns), so single runs sit 10 % apart
    // while the median of ten repeats within a few percent.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "request_us",
        unit: "us",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "strict_us",
        unit: "us",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "tol10_us",
        unit: "us",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, grouped by the workload whose traced run
/// measures them. A workload reports 0 for a layer it does not touch.
pub const PER_LAYER: [PerLayer; 61] = [
    // path_inproc
    layer("net.http.parse_ns", "ns", "lower"),
    layer("net.service.handle_ns", "ns", "lower"),
    layer("net.http.serialize_ns", "ns", "lower"),
    layer("path.residual_ns", "ns", "lower"),
    layer("path.traced_ns", "ns", "lower"),
    layer("path.request_p99_us", "us", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("net.service.mt_scaling", "ratio", "higher"),
    layer("obs.overhead_ns", "ns", "lower"),
    layer("serve.frontend.parse_annotations_ns", "ns", "lower"),
    layer("serve.frontend.route_ns", "ns", "lower"),
    layer("net.admission.decide_ns", "ns", "lower"),
    layer("core.policy.execute_ns", "ns", "lower"),
    layer("net.service.execute_ns", "ns", "lower"),
    layer("net.service.snapshot_us", "us", "lower"),
    layer("net.stats.scrape_us", "us", "lower"),
    layer("net.metrics.scrape_us", "us", "lower"),
    layer("obs.hist.record_ns", "ns", "lower"),
    layer("obs.span.open_close_ns", "ns", "lower"),
    layer("obs.window.seal_us", "us", "lower"),
    // cache_inproc
    layer("cache.hot_handle_ns", "ns", "lower"),
    layer("cache.churn_handle_ns", "ns", "lower"),
    layer("cache.hot_p99_us", "us", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.lookup_hit_ns", "ns", "lower"),
    layer("cache.lookup_miss_ns", "ns", "lower"),
    layer("cache.insert_ns", "ns", "lower"),
    // tiers_wire
    layer("wire.closed_p50_us", "us", "lower"),
    layer("wire.stack_rps", "1/s", "higher"),
    layer("wire.stack_p50_us", "us", "lower"),
    layer("wire.overhead_us", "us", "lower"),
    layer("wire.connect_us", "us", "lower"),
    layer("wire.slo_rate_rps", "1/s", "higher"),
    layer("wire.open_p50_us", "us", "lower"),
    layer("wire.open_strict_p50_us", "us", "lower"),
    layer("wire.open_tol10_p50_us", "us", "lower"),
    layer("wire.open_p90_us", "us", "lower"),
    layer("wire.open_p99_us", "us", "lower"),
    layer("wire.open_lo_p99_us", "us", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.late_max_us", "us", "lower"),
    layer("net.admission.admitted", "count", "higher"),
    layer("net.admission.browned_out", "count", "lower"),
    layer("net.admission.rejected", "count", "lower"),
    layer("net.batch.on_capacity_rps", "1/s", "higher"),
    layer("net.batch.on_tol10_p50_us", "us", "lower"),
    layer("serve.live.submit_roundtrip_us", "us", "lower"),
    layer("serve.live.inline_ns", "ns", "lower"),
    // rulegen_offline
    layer("core.rulegen.asr_s", "s", "lower"),
    layer("core.rulegen.ic_s", "s", "lower"),
    layer("core.rulegen.candidates_per_s", "1/s", "higher"),
    layer("core.rulegen.thread_speedup_asr", "ratio", "higher"),
    layer("core.rulegen.thread_speedup_ic", "ratio", "higher"),
    layer("stats.bootstrap.trials_per_s", "1/s", "higher"),
    layer("core.policy.evaluate_ns", "ns", "lower"),
    layer("asr.decode_ms_per_utt", "ms", "lower"),
    layer("vision.infer_us_per_image", "us", "lower"),
    layer("workloads.build_s", "s", "lower"),
    layer("serve.clustersim.requests_per_s", "1/s", "higher"),
    layer("trace.spans", "count", "higher"),
];

/// Put a run's metrics into table order: the frame for an untraced
/// run, every per-layer metric (0 where the workload does not touch
/// the layer) for a traced one.
///
/// # Panics
///
/// Panics if the run reported a metric the table does not name, a
/// unit that differs from the table's, or — untraced — left a frame
/// metric out.
pub fn conform(outcome: &mut Outcome, trace: bool) {
    let table: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for m in &outcome.metrics {
        let known = table.iter().find(|(name, _)| *name == m.name);
        assert!(known.is_some(), "metric {} is not in the table", m.name);
        assert_eq!(known.unwrap().1, m.unit, "unit of {}", m.name);
    }
    let reported = std::mem::take(&mut outcome.metrics);
    outcome.metrics = table
        .iter()
        .map(
            |&(name, unit)| match reported.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None => {
                    assert!(trace, "frame metric {name} was not reported");
                    Metric::value(name, unit, 0.0).with_samples(0)
                }
            },
        )
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of `"key": "..."` or `"key": number` inside `object`.
    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let pattern = format!("\"{key}\":");
        let rest = object[object.find(&pattern).expect(key) + pattern.len()..].trim_start();
        let end = if let Some(quoted) = rest.strip_prefix('"') {
            return &quoted[..quoted.find('"').unwrap()];
        } else {
            rest.find([',', '}']).unwrap()
        };
        rest[..end].trim()
    }

    /// The `{...}` objects of the array under `key`.
    fn objects<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
        let start = doc.find(&format!("\"{key}\":")).expect(key);
        let open = start + doc[start..].find('[').unwrap();
        let close = open + doc[open..].find(']').unwrap();
        doc[open..close]
            .split('{')
            .skip(1)
            .map(|s| &s[..s.find('}').unwrap() + 1])
            .collect()
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let workloads = objects(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(json, "name"), w.name);
            assert_eq!(field(json, "why"), w.why);
            assert!(w.why.len() <= 200, "why of {} is too long", w.name);
        }
        let frame = objects(&doc, "end_to_end");
        assert_eq!(frame.len(), END_TO_END.len());
        for (json, m) in frame.iter().zip(&END_TO_END) {
            assert_eq!(field(json, "name"), m.name);
            assert_eq!(field(json, "unit"), m.unit);
            assert_eq!(field(json, "better"), m.better);
            assert_eq!(field(json, "bound").parse::<f64>().unwrap(), m.bound);
        }
        let layers = objects(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(json, "name"), m.name);
            assert_eq!(field(json, "unit"), m.unit);
            assert_eq!(field(json, "better"), m.better);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_traced_run_reports_every_layer_and_zero_for_the_untouched() {
        let mut outcome = Outcome {
            metrics: vec![Metric::value("cache.hit_ratio", "ratio", 0.9)],
            ..Outcome::default()
        };
        conform(&mut outcome, true);
        assert_eq!(outcome.metrics.len(), PER_LAYER.len());
        assert_eq!(outcome.metric("cache.hit_ratio"), Some(0.9));
        assert_eq!(outcome.metric("net.http.parse_ns"), Some(0.0));
    }
}
