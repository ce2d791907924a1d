//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root (compiled in, so the binary and the file it was built beside cannot
//! disagree): which workloads exist, and every metric's name, unit and
//! regression bound. The file is the only place a metric is declared.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

fn file() -> Result<Json, String> {
    json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn section(name: &str) -> Result<Vec<Json>, String> {
    let items = file()?.get(name).and_then(Json::as_array).map(<[Json]>::to_vec);
    items.ok_or_else(|| format!("BENCHMARK.json has no `{name}` list"))
}

fn metrics(name: &str) -> Result<Vec<MetricDef>, String> {
    section(name)?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{name}` metric has no `{key}`"))
            };
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// What a user of the federation pays; measured with tracing off, reported
/// by every workload.
pub fn end_to_end() -> Result<Vec<MetricDef>, String> {
    metrics("end_to_end")
}

/// Single-layer metrics of the traced run; layer = module name.
pub fn per_layer() -> Result<Vec<MetricDef>, String> {
    metrics("per_layer")
}

/// The workload names, in the order the driver runs them.
pub fn workloads() -> Result<Vec<String>, String> {
    section("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "BENCHMARK.json: a workload has no `name`".to_string())
        })
        .collect()
}

/// Seconds one run measures (what a run without `--seconds` uses).
pub fn run_seconds() -> Result<f64, String> {
    let seconds = file()?.get("run_seconds").and_then(Json::as_f64);
    seconds.ok_or_else(|| "BENCHMARK.json has no `run_seconds`".to_string())
}
