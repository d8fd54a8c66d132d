//! The repository's benchmark: three workloads over the real serving and
//! search paths, end-to-end metrics from untraced runs and per-layer
//! metrics from traced runs. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod codec;
pub mod host;
pub mod json;
pub mod ledger;
pub mod schedule;
pub mod search;
pub mod serving;
pub mod spans;
pub mod stats;

use json::Json;
use std::collections::BTreeMap;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["interactive", "saturation", "lpq_search"];

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics (traced runs): name and unit. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("net.edge_p50_ms", "ms"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.protocol_errors", "count"),
    ("net.inflight_rejections", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.service_p50_ms", "ms"),
    ("server.delivery_p50_ms", "ms"),
    ("server.mean_batch", "items"),
    ("pool.executed", "count"),
    ("pool.stolen", "count"),
    ("pool.parks", "count"),
    ("dnn.forward_b1_us", "us"),
    ("dnn.forward_us_per_item.b1", "us"),
    ("dnn.forward_us_per_item.b2", "us"),
    ("dnn.forward_us_per_item.b3", "us"),
    ("dnn.forward_us_per_item.b4", "us"),
    ("dnn.forward_us_per_item.b5", "us"),
    ("dnn.forward_us_per_item.b6", "us"),
    ("dnn.forward_us_per_item.b7", "us"),
    ("dnn.forward_us_per_item.b8", "us"),
    ("dnn.weight_bytes_per_item", "B-computed"),
    ("dnn.pack_s", "s"),
    ("adapter.codec_us", "us"),
    ("lp.fit_s", "s"),
    ("lpq.prep_s", "s"),
    ("lpq.evaluations", "count"),
    ("lpq.eval_ms", "ms"),
    ("lpq.replay.quantize_ms", "ms"),
    ("lpq.replay.forward_ms", "ms"),
    ("lpq.replay.fitness_ms", "ms"),
    ("ledger.residual_p50_ms", "ms"),
    ("trace.spans", "count"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or searches plus replays).
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts behind reported statistics.
    pub samples: Vec<(&'static str, usize)>,
    /// Human-readable report.
    pub report: String,
    /// Spans to write out at exit (traced runs).
    pub spans: Vec<Json>,
}

impl Outcome {
    /// An outcome with its operation counts.
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics` — the end-to-end set, or the per-layer set when traced.
    ///
    /// # Panics
    ///
    /// If an end-to-end metric is missing: every workload reports all of
    /// them.
    pub fn result(&self, traced: bool) -> Json {
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.per_layer.get(name).copied().unwrap_or(0.0), unit))
                .collect::<Vec<_>>()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let v = *self
                        .end_to_end
                        .get(name)
                        .unwrap_or_else(|| panic!("workload did not report {name}"));
                    (name, v, unit)
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(metrics.into_iter().map(|(n, v, u)| {
                    (
                        n,
                        Json::obj([("value", Json::Num(v)), ("unit", Json::Str(u.into()))]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables must match `BENCHMARK.json` at the repository
    /// root, name for name and unit for unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end].to_string()
        };
        let names = |s: &str| -> Vec<(String, String)> {
            s.split("\"name\"")
                .skip(1)
                .map(|chunk| {
                    let field = |key: &str| {
                        let at = chunk.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &chunk[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    let open = chunk.find('"').expect("name opens") + 1;
                    let close = chunk[open..].find('"').expect("name closes") + open;
                    (chunk[open..close].to_string(), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&section("end_to_end")), own(&END_TO_END));
        assert_eq!(names(&section("per_layer")), own(&PER_LAYER));
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} listed"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(10, 0);
        for (n, _) in END_TO_END {
            o.end_to_end.insert(n, 1.5);
        }
        let line = o.result(false).render();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}"#));
        let traced = o.result(true).render();
        assert!(traced.contains(r#""lpq.evaluations": {"value": 0, "unit": "count"}"#));
    }
}
